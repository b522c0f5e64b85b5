import csv
import importlib.util
import math
import re
import warnings
from dataclasses import fields, replace
from pathlib import Path

import pytest

from cellassoc.cli import match_main, simulate_main
from cellassoc.experiments import (
    ExperimentConfig,
    VerificationFailure,
    aggregate_path,
    load_config,
    optimal_min_quota_sweep,
    parse_config,
    run_experiment,
    run_figure,
)
from cellassoc.matching import MatchingInstance, VerifierReport, format_instance
from cellassoc.policies import PolicyConfig, max_rssi_policy, max_sinr_policy
from cellassoc.scenario import (
    ConfigurationError,
    PathLossParams,
    ScenarioConfig,
    generate_scenario,
)

TINY = ExperimentConfig(
    scenario=ScenarioConfig(n_mmw=2, n_muw=2, n_ue=8, seed=77),
    policy=PolicyConfig(q_min_muw=1),
    n_runs=3,
    n_slots=2,
)


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


# --- config files -----------------------------------------------------------

FULL_CONFIG = """
# experiment description file
scenario.n_mmw = 3
scenario.n_muw = 4
scenario.n_ue = 12
scenario.area_radius = 400
scenario.seed = 5
scenario.pathloss_mmw_los.slope = 2.1
policy.q_min_muw = 2
policy.c_th = -inf
policy.bias_rssi_db = 10
experiment.policies = mmq, max_rssi
experiment.runs = 4
experiment.slots = 3
experiment.out = out.csv
experiment.auto_bias = true
sweep.m = 8, 12
"""


def test_parse_full_config():
    cfg = parse_config(FULL_CONFIG)
    assert cfg.scenario.n_mmw == 3
    assert cfg.scenario.n_muw == 4
    assert cfg.scenario.area_radius == 400.0
    assert cfg.scenario.pathloss_mmw_los.slope == 2.1
    assert cfg.scenario.pathloss_mmw_los.intercept_db == 70.0  # default kept
    assert cfg.policy.q_min_muw == 2
    assert cfg.policy.c_th == float("-inf")
    assert cfg.policies_enabled == ("mmq", "max_rssi")
    assert cfg.n_runs == 4 and cfg.n_slots == 3
    assert cfg.auto_bias is True
    assert cfg.sweep == {"m": (8, 12)}
    assert cfg.output_path == "out.csv"


def test_unknown_key_is_hard_error():
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config("scenario.n_mwm = 3\n")
    with pytest.raises(ConfigurationError, match="unknown key"):
        parse_config("experiment.wokers = 2\n")


def test_bad_value_reports_line():
    with pytest.raises(ConfigurationError, match="line 1"):
        parse_config("scenario.n_ue = many\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigurationError):
        parse_config("scenario.n_ue 5\n")


def _scalar_config_keys():
    scenario = ScenarioConfig()
    keys = [f"policy.{f.name}" for f in fields(PolicyConfig)]
    for f in fields(ScenarioConfig):
        value = getattr(scenario, f.name)
        if isinstance(value, PathLossParams):
            keys += [f"scenario.{f.name}.{g.name}" for g in fields(PathLossParams)]
        else:
            keys.append(f"scenario.{f.name}")
    return keys


@pytest.mark.parametrize("key", _scalar_config_keys())
def test_every_config_field_has_a_key(key):
    cfg = parse_config(f"{key} = 7\n")
    value = cfg
    for part in key.split("."):
        value = getattr(value, part)
    assert value == 7


def test_repeated_key_names_both_lines():
    with pytest.raises(
        ConfigurationError, match=r"line 3: 'scenario.n_ue' already set on line 1"
    ):
        parse_config("scenario.n_ue = 12\n# again\nscenario.n_ue = 14\n")


def test_bad_boolean_names_line_and_key():
    with pytest.raises(
        ConfigurationError, match=r"line 2: bad value 'maybe' for 'experiment.auto_bias'"
    ):
        parse_config("scenario.n_ue = 9\nexperiment.auto_bias = maybe\n")


def test_empty_policy_list_rejected():
    with pytest.raises(ConfigurationError, match="at least one policy"):
        parse_config("experiment.policies =\n")
    with pytest.raises(ConfigurationError, match="at least one policy"):
        ExperimentConfig(policies_enabled=())


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(n_runs=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(policies_enabled=("mmq", "oracle"))
    with pytest.raises(ConfigurationError):
        ExperimentConfig(sweep={"tilt": (1, 2)})


# --- running experiments ------------------------------------------------------

def test_run_experiment_writes_rows_and_aggregate(tmp_path):
    cfg = ExperimentConfig(
        scenario=TINY.scenario, policy=TINY.policy, n_runs=3, n_slots=2,
        output_path=str(tmp_path / "r.csv"),
    )
    out = run_experiment(cfg)
    rows = read_rows(out)
    assert len(rows) == 3 * 4  # runs x policies
    assert {r["policy"] for r in rows} == {"mmq", "da", "max_rssi", "max_sinr"}
    for r in rows:
        if r["policy"] == "mmq":
            assert r["feasible"] == "true"
            assert r["blocking_pairs"] == "0"
    agg = read_rows(aggregate_path(out))
    assert len(agg) == 4
    assert all(a["n_runs"] == "3" for a in agg)


def test_run_experiment_deterministic_bytes(tmp_path):
    a = ExperimentConfig(
        scenario=TINY.scenario, policy=TINY.policy, n_runs=3, n_slots=2,
        output_path=str(tmp_path / "a.csv"),
    )
    b = ExperimentConfig(
        scenario=TINY.scenario, policy=TINY.policy, n_runs=3, n_slots=2,
        output_path=str(tmp_path / "b.csv"),
    )
    pa, pb = run_experiment(a), run_experiment(b)
    assert pa.read_bytes() == pb.read_bytes()
    assert aggregate_path(pa).read_bytes() == aggregate_path(pb).read_bytes()


def test_parallel_matches_serial(tmp_path):
    serial = ExperimentConfig(
        scenario=TINY.scenario, policy=TINY.policy, n_runs=4, n_slots=2,
        sweep={"m": (6, 8)}, output_path=str(tmp_path / "s.csv"),
    )
    parallel = ExperimentConfig(
        scenario=TINY.scenario, policy=TINY.policy, n_runs=4, n_slots=2,
        sweep={"m": (6, 8)}, output_path=str(tmp_path / "p.csv"),
    )
    ps = run_experiment(serial, workers=1)
    pp = run_experiment(parallel, workers=2)
    assert ps.read_bytes() == pp.read_bytes()


def test_sweep_grid_rows(tmp_path):
    cfg = ExperimentConfig(
        scenario=TINY.scenario, policy=TINY.policy,
        policies_enabled=("mmq",), n_runs=2, n_slots=2,
        sweep={"m": (6, 8), "q_min_muw": (0, 1)},
        output_path=str(tmp_path / "g.csv"),
    )
    rows = read_rows(run_experiment(cfg))
    assert len(rows) == 4 * 2  # grid points x runs
    assert {(r["m"], r["q_min_muw"]) for r in rows} == {
        ("6", "0"), ("6", "1"), ("8", "0"), ("8", "1")
    }


def test_random_quota_mode_reports_totals(tmp_path):
    cfg = ExperimentConfig(
        scenario=TINY.scenario, policy=PolicyConfig(),
        policies_enabled=("mmq",), n_runs=4, n_slots=2,
        random_muw_quota=True, output_path=str(tmp_path / "q.csv"),
    )
    rows = read_rows(run_experiment(cfg))
    totals = {int(r["q_min_muw_total"]) for r in rows}
    assert all(0 <= t <= 8 for t in totals)
    assert all(r["feasible"] == "true" for r in rows)


def test_bad_grid_point_fails_before_any_run(tmp_path, monkeypatch):
    # q_min_muw = 3 on ten microwave BSs needs 30 UEs; M is 20.
    import cellassoc.experiments as experiments

    def no_runs(*args, **kwargs):
        raise AssertionError("a run started before the grid was checked")

    monkeypatch.setattr(experiments, "generate_scenario", no_runs)
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(n_ue=20), policies_enabled=("mmq",), n_runs=2,
        sweep={"q_min_muw": (1, 3)}, output_path=str(tmp_path / "bad.csv"),
    )
    with pytest.raises(
        ConfigurationError,
        match=r"grid point \{'q_min_muw': 3\}: no feasible matching: sum q_min=30, M=20",
    ):
        run_experiment(cfg)
    assert not (tmp_path / "bad.csv").exists()


@pytest.mark.parametrize(
    "key, values",
    [
        ("q_min_muw", (1, -1)),
        ("bias_rssi_db", (0.0, -5.0)),
        ("c_th", (0.5, math.nan)),
        ("m", (20, 0)),
        ("bias_rssi_db", (0.0, math.inf)),
    ],
)
def test_bad_sweep_value_names_grid_point_before_any_run(tmp_path, monkeypatch, key, values):
    def no_runs(*args, **kwargs):
        raise AssertionError("a run started before the grid was checked")

    monkeypatch.setattr("cellassoc.experiments.generate_scenario", no_runs)
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(n_ue=20), policies_enabled=("mmq",), n_runs=2,
        sweep={key: values}, output_path=str(tmp_path / "bad.csv"),
    )
    bad_point = re.escape(f"grid point {{{key!r}: {values[-1]!r}}}: ")
    with pytest.raises(ConfigurationError, match=bad_point):
        run_experiment(cfg)
    assert not (tmp_path / "bad.csv").exists()


def test_random_quota_failure_names_point_run_and_seed(tmp_path):
    # Ten mmW minima of 1 plus ten random microwave minima in [0, 2] exceed
    # M = 20 on some runs; the grid check cannot see that in advance.
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(n_ue=20, seed=40), policy=PolicyConfig(q_min_mmw=1),
        policies_enabled=("mmq",), n_runs=30, n_slots=1, random_muw_quota=True,
        sweep={"m": (20,)}, output_path=str(tmp_path / "rq.csv"),
    )
    with pytest.raises(
        ConfigurationError,
        match=r"grid point \{'m': 20\}, run \d+, seed \d+: no feasible matching: sum q_min=",
    ):
        run_experiment(cfg)


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_driver_baselines_match_one_scenario_policies(tmp_path, seed):
    # The driver and max_rssi_policy/max_sinr_policy share one CRE search: with
    # fixed biases, each baseline row describes the one-scenario policy's matching.
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(n_ue=40, seed=seed),
        policy=PolicyConfig(bias_rssi_db=20.0, bias_sinr_db=6.0),
        policies_enabled=("max_rssi", "max_sinr"), n_runs=1, n_slots=1,
        output_path=str(tmp_path / "base.csv"),
    )
    rows = {row["policy"]: row for row in read_rows(run_experiment(cfg))}
    sc = generate_scenario(cfg.scenario)
    for name, policy, bias in (
        ("max_rssi", max_rssi_policy, 20.0), ("max_sinr", max_sinr_policy, 6.0)
    ):
        loads = policy(sc, bias).loads
        assert float(rows[name]["bias_db"]) == bias
        assert int(rows[name]["ue_mmw"]) == loads[: sc.n_mmw].sum()
        assert int(rows[name]["ue_muw"]) == loads[sc.n_mmw :].sum()
        assert int(rows[name]["delta_kappa"]) == loads.max() - loads.min()


# --- figures --------------------------------------------------------------------

def test_single_policy_experiment_within_time_budget(tmp_path):
    # 200 runs of the quota policy at M=50 with default parameters must stay
    # comfortably interactive.
    import time

    cfg = ExperimentConfig(
        scenario=ScenarioConfig(n_ue=50, seed=1),
        policies_enabled=("mmq",),
        n_runs=200,
        output_path=str(tmp_path / "t.csv"),
    )
    start = time.perf_counter()
    run_experiment(cfg)
    assert time.perf_counter() - start < 10.0


# --- figures --------------------------------------------------------------------

def test_run_figure_rejects_unknown_id(tmp_path):
    with pytest.raises(ConfigurationError, match="unknown figure"):
        run_figure("fig9", output_path=tmp_path / "x.csv")


def test_fig3_aggregate_schema(tmp_path):
    out = run_figure("fig3", output_path=tmp_path / "f3.csv", n_runs=2)
    agg = read_rows(aggregate_path(out))
    assert len(agg) == 10 * 3  # ten UE counts x three policies
    assert sorted({int(r["m"]) for r in agg}) == list(range(10, 101, 10))
    assert {r["policy"] for r in agg} == {"mmq", "max_rssi", "max_sinr"}


def test_fig5_schema(tmp_path):
    out = run_figure("fig5", output_path=tmp_path / "f5.csv", n_runs=2)
    rows = read_rows(out)
    assert {r["policy"] for r in rows} == {"mmq", "max_rssi"}
    biases = {float(r["bias_rssi_db"]) for r in rows}
    assert biases == {0.0, 10.0, 20.0, 30.0, 40.0, 50.0, 60.0}
    assert all(r["m"] == "70" for r in rows)
    agg = read_rows(aggregate_path(out))
    assert len(agg) == 7 * 2


def test_fig4_schema(tmp_path):
    out = run_figure("fig4", output_path=tmp_path / "f4.csv", n_runs=2)
    rows = read_rows(out)
    ms = sorted({int(r["m"]) for r in rows})
    assert ms == [20, 40, 60, 80, 100]
    for m in ms:
        stars = [r for r in rows if int(r["m"]) == m and r["optimal"] == "true"]
        assert len(stars) == 1


def test_fig4_starts_one_pool(tmp_path, monkeypatch):
    sizes = []
    monkeypatch.setattr("cellassoc.experiments.ProcessPoolExecutor", recording_pool(sizes))
    run_figure("fig4", output_path=tmp_path / "f4.csv", n_runs=1, workers=2)
    assert sizes == [2]


def test_fig4_emits_no_warning(tmp_path):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_figure("fig4", output_path=tmp_path / "f4.csv", n_runs=1)


def test_quota_sweep_over_many_m_equals_per_m_calls():
    cfg = ScenarioConfig(n_mmw=2, n_muw=2, n_ue=8, seed=77)
    candidates = (0, 3, 5)  # q = 5 cannot be met at M = 6
    with pytest.warns(UserWarning, match="skipping q_min=5 at M=6"):
        together = optimal_min_quota_sweep(cfg, [6, 10], candidates, n_runs=3, n_slots=2)
    with pytest.warns(UserWarning, match="skipping q_min=5 at M=6"):
        apart = optimal_min_quota_sweep(cfg, [6], candidates, n_runs=3, n_slots=2)
    apart += optimal_min_quota_sweep(cfg, [10], candidates, n_runs=3, n_slots=2)
    assert together == apart
    assert [sorted(row["mean_sum_rate_bps"]) for row in together] == [[0, 3], [0, 3, 5]]


def test_fig4_parallel_matches_serial(tmp_path):
    serial = run_figure("fig4", output_path=tmp_path / "serial.csv", n_runs=2)
    parallel = run_figure("fig4", output_path=tmp_path / "par.csv", n_runs=2, workers=2)
    assert serial.read_bytes() == parallel.read_bytes()


def test_fig4_runs_pass_through_the_verifier(tmp_path, monkeypatch):
    def report_infeasible(instance, matching, enumeration_budget=0):
        return VerifierReport(feasible=False, blocking_pairs=(), blocking_pairs_literal=())

    monkeypatch.setattr("cellassoc.experiments.verify", report_infeasible)
    with pytest.raises(VerificationFailure, match="failed verification"):
        run_figure("fig4", output_path=tmp_path / "f4.csv", n_runs=1)
    assert not (tmp_path / "f4.csv").exists()


def test_verification_failure_lists_every_host(tmp_path, monkeypatch):
    def report_infeasible(instance, matching, enumeration_budget=0):
        return VerifierReport(feasible=False, blocking_pairs=(), blocking_pairs_literal=())

    monkeypatch.setattr("cellassoc.experiments.verify", report_infeasible)
    exp = replace(
        TINY, scenario=replace(TINY.scenario, n_ue=1001), policy=PolicyConfig(),
        policies_enabled=("mmq",), n_runs=1, output_path=str(tmp_path / "big.csv"),
    )
    with pytest.raises(VerificationFailure) as failure:
        run_experiment(exp)
    assignment = str(failure.value).split("Assignment: ")[1]
    assert "..." not in assignment
    assert len(assignment.strip("[]").split(", ")) == 1001


def test_fig7_schema(tmp_path):
    out = run_figure("fig7", output_path=tmp_path / "f7.csv", n_runs=2)
    rows = read_rows(out)
    assert {r["policy"] for r in rows} == {"mmq", "max_rssi", "max_sinr"}
    for name in ("mmq", "max_rssi", "max_sinr"):
        cdf = [float(r["cdf"]) for r in rows if r["policy"] == name]
        assert cdf == sorted(cdf)
        assert cdf[-1] == pytest.approx(1.0)


# --- command line ------------------------------------------------------------------

def test_cli_simulate_config(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(
        "scenario.n_mmw = 2\nscenario.n_muw = 2\nscenario.n_ue = 8\n"
        "experiment.policies = mmq\nexperiment.runs = 5\nexperiment.slots = 2\n"
    )
    out = tmp_path / "cli.csv"
    code = simulate_main(
        ["--config", str(cfg_file), "--runs", "2", "--seed", "3", "--out", str(out)]
    )
    assert code == 0
    rows = read_rows(out)
    assert len(rows) == 2  # --runs override applied
    assert rows[0]["seed"] == "3"


def test_cli_simulate_rejects_nan_scenario_value(tmp_path, capsys, monkeypatch):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_run)
    cfg_file = tmp_path / "nan.cfg"
    cfg_file.write_text("scenario.n_ue = 8\nscenario.area_radius = nan\nexperiment.runs = 2\n")
    out = tmp_path / "nan.csv"
    assert simulate_main(["--config", str(cfg_file), "--out", str(out)]) == 1
    assert not out.exists()
    assert "area_radius must be finite" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text, message",
    [
        (
            "scenario.n_ue = 8\nscenario.pathloss_muw.slope = 0\n",
            "error: line 2: scenario.pathloss_muw.slope: slope must be > 0, got 0.0\n",
        ),
        (
            "policy.q_min_mmw = 5\nscenario.n_ue = 30\npolicy.q_max_mmw = 3\n",
            "error: line 1: policy.q_min_mmw, line 3: policy.q_max_mmw: "
            "q_max_mmw must be >= q_min_mmw\n",
        ),
        (
            "experiment.runs = 2\npolicy.bias_sinr_db = nan\n",
            "error: line 2: policy.bias_sinr_db: "
            "bias_sinr_db must be a finite non-negative dB offset, got nan\n",
        ),
        (
            "\nexperiment.policies = mmq, oracle\n",
            "error: line 2: experiment.policies: "
            "unknown policies in policies_enabled: ['oracle']\n",
        ),
        (
            "policy.bias_rssi_db = inf\nexperiment.runs = 2\n",
            "error: line 1: policy.bias_rssi_db: "
            "bias_rssi_db must be a finite non-negative dB offset, got inf\n",
        ),
    ],
    ids=["one_key", "two_keys", "policy_bias", "experiment", "policy_bias_inf"],
)
def test_cli_simulate_rejected_value_names_line_and_key(
    tmp_path, capsys, monkeypatch, text, message
):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_run)
    cfg_file = tmp_path / "bad.cfg"
    cfg_file.write_text(text)
    out = tmp_path / "bad.csv"
    assert simulate_main(["--config", str(cfg_file), "--out", str(out)]) == 1
    assert not out.exists()
    assert capsys.readouterr().err == message


def test_cli_simulate_missing_config(tmp_path):
    assert simulate_main(["--config", str(tmp_path / "nope.cfg")]) == 1


@pytest.mark.parametrize("runs", ["0", "-3"])
@pytest.mark.parametrize("figure_id", ["fig4", "fig5"])
def test_cli_simulate_figure_rejects_bad_runs(tmp_path, capsys, monkeypatch, figure_id, runs):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_run)
    out = tmp_path / f"{figure_id}.csv"
    assert simulate_main(["figure", figure_id, "--runs", runs, "--out", str(out)]) == 1
    assert not out.exists()
    assert "n_runs must be >= 1" in capsys.readouterr().err


@pytest.mark.parametrize(
    "argv",
    [
        ["--workers", "0"],
        ["--workers", "-3"],
        ["figure", "fig5", "--workers", "-1"],
        ["figure", "fig4", "--workers", "0"],
    ],
)
def test_cli_simulate_rejects_bad_workers(tmp_path, capsys, monkeypatch, argv):
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_run)
    out = tmp_path / "out.csv"
    if argv[0] == "figure":
        argv = argv + ["--runs", "2", "--out", str(out)]
    else:
        cfg_file = tmp_path / "w.cfg"
        cfg_file.write_text("scenario.n_ue = 8\nexperiment.runs = 2\n")
        argv = ["--config", str(cfg_file), "--out", str(out)] + argv
    assert simulate_main(argv) == 1
    assert not out.exists()
    assert "workers must be >= 1" in capsys.readouterr().err


def recording_pool(sizes):
    class RecordingPool:  # runs the tasks in process; starts no worker
        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    return RecordingPool


def test_pool_is_capped_at_the_batch_count(tmp_path, monkeypatch):
    sizes = []
    monkeypatch.setattr("cellassoc.experiments.ProcessPoolExecutor", recording_pool(sizes))
    one = replace(TINY, n_runs=1, output_path=str(tmp_path / "one.csv"))
    three_runs = replace(TINY, n_runs=3, output_path=str(tmp_path / "runs.csv"))
    three_points = replace(one, sweep={"m": (8, 9, 10)}, output_path=str(tmp_path / "pts.csv"))
    run_experiment(one, workers=4)
    run_experiment(three_runs, workers=4)
    assert sizes == []  # one batch (TINY's three runs fit in one): serial, no pool at all
    run_experiment(three_points, workers=8)
    run_experiment(three_points, workers=2)
    assert sizes == [3, 2]


def test_batches_depend_on_the_grid_point_alone(tmp_path, monkeypatch):
    # Runs per batch = max(1, min(runs, 8192 // (M * N))) with N = 20 here:
    # all 9 runs at M=10, 4 at M=100 and 1 at M=500, whatever --workers says.
    batches = []

    def record(exp, overrides, grid_idx, runs, collect_muw_samples):
        batches.append((overrides["m"], runs))
        return []

    monkeypatch.setattr("cellassoc.experiments.ProcessPoolExecutor", recording_pool([]))
    monkeypatch.setattr("cellassoc.experiments._run_batch", record)
    exp = replace(
        TINY,
        scenario=replace(TINY.scenario, n_mmw=10, n_muw=10),
        n_runs=9,
        sweep={"m": (10, 100, 500)},
        output_path=str(tmp_path / "b.csv"),
    )
    want = [(10, range(9)), (100, range(4)), (100, range(4, 8)), (100, range(8, 9))]
    want += [(500, range(run, run + 1)) for run in range(9)]
    for workers in (1, 2, 5):
        batches.clear()
        run_experiment(exp, workers=workers)
        assert batches == want


def test_cli_simulate_figure_usage_error():
    with pytest.raises(SystemExit) as exc:
        simulate_main(["figure", "fig99"])
    assert exc.value.code == 2


def test_cli_match_roundtrip(tmp_path, capsys):
    inst = MatchingInstance(
        n_agents=3, n_hosts=3,
        agent_prefs=((0, 1, 2),) * 3,
        master_list=(0, 1, 2),
        q_min=(1, 1, 1), q_max=(2, 2, 2),
    )
    path = tmp_path / "inst.txt"
    path.write_text(format_instance(inst))

    assert match_main(["--instance", str(path)]) == 0
    out = capsys.readouterr().out
    assert "feasible: True" in out
    assert "blocking pairs: 0" in out

    # Deferred acceptance violates the minimum quota here: nonzero exit.
    assert match_main(["--instance", str(path), "--algorithm", "da"]) == 1
    out = capsys.readouterr().out
    assert "feasible: False" in out


def test_cli_match_reports_unmatched_agents(tmp_path, capsys):
    # Both agents list only host 0, which holds one: DA strands agent 1.
    path = tmp_path / "short.txt"
    path.write_text("2 2\n0 0\n1 1\n0\n0\n0 1\n")
    assert match_main(["--instance", str(path), "--algorithm", "da"]) == 1
    out = capsys.readouterr().out
    assert "unmatched agents: 1\n" in out
    assert "feasible: False" in out


def test_cli_match_bad_token_names_its_line(tmp_path, capsys):
    # Line 5 of the file, counting the blank line 3: agent 1's preferences.
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 1\n\n1 1\n0 x\n0\n0 1\n")
    assert match_main(["--instance", str(path)]) == 1
    assert capsys.readouterr().err == "error: line 5: invalid literal for int() with base 10: 'x'\n"


def test_cli_match_missing_file(tmp_path):
    assert match_main(["--instance", str(tmp_path / "none.txt")]) == 1


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("scenario.n_ue = 9\nexperiment.runs = 2\n")
    cfg = load_config(path)
    assert cfg.scenario.n_ue == 9
    assert cfg.n_runs == 2


def test_bench_trace_targets_resolve():
    # The benchmark's span tracer wraps these names; a rename must fail here,
    # not only show up as a missing name in a benchmark note.
    path = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"
    spec = importlib.util.spec_from_file_location("bench_tracing", path)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    assert tracing.TARGETS
    for module, attribute, _layer in tracing.TARGETS:
        assert hasattr(importlib.import_module(module), attribute), f"{module}.{attribute}"
