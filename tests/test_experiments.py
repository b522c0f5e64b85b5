import csv
import importlib
import json
import math
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, is_dataclass, replace
from pathlib import Path

import numpy as np
import pytest

from cellassoc.channel import _BATCH_ELEMENTS, link_budget
from cellassoc.cli import match_main, simulate_main
from cellassoc.experiments import (
    POLICY_ORDER,
    ROW_COLUMNS,
    SWEEP_KEYS,
    _CONFIG_KEYS,
    ExperimentConfig,
    VerificationFailure,
    _collect_rows,
    _grid_points,
    aggregate_path,
    load_config,
    optimal_min_quota_sweep,
    parse_config,
    run_experiment,
    run_figure,
    with_overrides,
)
from cellassoc.matching import (
    MatchingError,
    MatchingInstance,
    build_matching,
    format_instance,
    mmq_match,
    parse_instance,
    verify,
)
from cellassoc.policies import PolicyConfig, cre_association, rssi_matrix_dbm, sinr_matrix_db
from cellassoc.scenario import (
    ConfigurationError,
    ScenarioConfig,
    generate_scenario,
)

import helpers

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


def test_empty_sweep_is_refused():
    # The message names the dotted key itself: the file's error names it once.
    with pytest.raises(ConfigurationError, match=r"^line 2: sweep\.m has no values$"):
        parse_config("scenario.n_ue = 9\nsweep.m =\n")
    with pytest.raises(ConfigurationError, match=r"^sweep\.m has no values$"):
        ExperimentConfig(sweep={"m": ()})


@pytest.mark.parametrize("out", ["", ".", "/"])
def test_an_output_path_naming_no_file_is_refused(out):
    message = f"output_path must name a file, got {out!r}"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        ExperimentConfig(output_path=out)
    file_message = f"line 2: experiment.out: {message}"
    with pytest.raises(ConfigurationError, match=f"^{re.escape(file_message)}$"):
        parse_config(f"scenario.n_ue = 9\nexperiment.out = {out}\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigurationError):
        parse_config("scenario.n_ue 5\n")


# One config-file text per field kind and the value it parses to.
KIND_SAMPLES = {
    "int": ("7", 7), "float": ("7.5", 7.5), "bool": ("yes", True), "str": ("x.csv", "x.csv"),
    "tuple[str, ...]": ("da, mmq", ("da", "mmq")),
}
RENAMED = {  # ExperimentConfig fields whose experiment.* key is shorter
    "n_runs": "runs", "n_slots": "slots", "output_path": "out", "policies_enabled": "policies"
}


def _leaf_fields(config=ExperimentConfig(), path=()):
    """(field path, kind) of every leaf field of ``config``; ``Optional[...]`` is unwrapped."""
    for f in fields(config):
        if is_dataclass(f.default):
            yield from _leaf_fields(f.default, path + (f.name,))
        else:
            optional = f.type.startswith("Optional[")
            yield path + (f.name,), f.type[len("Optional[") : -1] if optional else f.type


def _file_keys():
    """(key, field path, text, value) for every leaf field of ExperimentConfig, the
    sweep dict replaced by one list key per sweep parameter of its swept field's kind."""
    kinds = dict(_leaf_fields())
    cases = []
    for path, kind in kinds.items():
        if path != ("sweep",):
            key = ".".join(path) if len(path) > 1 else f"experiment.{RENAMED.get(path[0], path[0])}"
            cases.append((key, path, *KIND_SAMPLES[kind]))
    for k in SWEEP_KEYS:
        text, value = KIND_SAMPLES[kinds[("scenario", "n_ue") if k == "m" else ("policy", k)]]
        cases.append((f"sweep.{k}", ("sweep", k), f"{text}, {text}", (value, value)))
    return cases


def test_config_keys_are_the_leaf_fields():
    assert sorted(case[0] for case in _file_keys()) == sorted(_CONFIG_KEYS)


@pytest.mark.parametrize(
    "key, path, text, value", [pytest.param(*case, id=case[0]) for case in _file_keys()]
)
def test_every_config_field_has_a_key(key, path, text, value):
    parsed = parse_config(f"{key} = {text}\n")
    for part in path:
        parsed = parsed[part] if isinstance(parsed, dict) else getattr(parsed, part)
    assert repr(parsed) == repr(value)


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


@pytest.mark.parametrize(
    "key, value",
    [("sweep.m", "8,,12"), ("experiment.policies", "mmq,"), ("experiment.policies", ",mmq")],
)
def test_empty_list_item_names_line_and_key(key, value):
    # An empty item between, after or before the commas is refused, not dropped.
    with pytest.raises(ConfigurationError, match=rf"^line 2: bad value '{value}' for '{key}'$"):
        parse_config(f"experiment.runs = 2\n{key} = {value}\n")


def test_repeated_policy_rejected():
    with pytest.raises(ConfigurationError, match=r"policies_enabled repeats a policy"):
        ExperimentConfig(policies_enabled=("mmq", "mmq", "max_rssi"))


def test_parsed_repeated_policy_names_its_line():
    with pytest.raises(
        ConfigurationError,
        match=r"^line 2: experiment.policies: policies_enabled repeats a policy: "
        r"\('mmq', 'mmq', 'max_rssi'\)$",
    ):
        parse_config("experiment.runs = 2\nexperiment.policies = mmq, mmq, max_rssi\n")


def test_experiment_config_validation():
    with pytest.raises(ConfigurationError):
        ExperimentConfig(n_runs=0)
    with pytest.raises(ConfigurationError):
        ExperimentConfig(policies_enabled=("mmq", "oracle"))
    with pytest.raises(ConfigurationError):
        ExperimentConfig(sweep={"tilt": (1, 2)})
    for name in ("n_runs", "n_slots"):
        with pytest.raises(ConfigurationError, match=f"^{name} must be an integer, got 2.5$"):
            ExperimentConfig(**{name: 2.5})
        assert getattr(ExperimentConfig(**{name: np.int64(2)}), name) == 2


@pytest.mark.parametrize("name", ["n_runs", "n_slots"])
def test_experiment_config_rejects_bool_counts(name):
    with pytest.raises(ConfigurationError, match=f"^{name} must be an integer, got True$"):
        ExperimentConfig(**{name: True})


@pytest.mark.parametrize(
    "kwargs, refused",
    [
        ({"auto_bias": "false"}, "auto_bias must be a bool, got 'false'"),  # ran as True
        ({"sweep": {"m": 10}}, "sweep must be a dict of tuples, lists or ranges, got {'m': 10}"),
        ({"policies_enabled": "mmq"}, "policies_enabled must be a tuple of strings, got 'mmq'"),
    ],
    ids=["auto_bias", "sweep", "policies_enabled"],
)
def test_experiment_config_refuses_wrong_kinds(kwargs, refused):
    with pytest.raises(ConfigurationError, match=f"^{re.escape(refused)}$"):
        ExperimentConfig(**kwargs)


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

    monkeypatch.setattr(experiments, "_run_batch", no_runs)
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


def test_sweep_accepts_numpy_integer_ue_counts(tmp_path):
    plain = run_experiment(replace(TINY, sweep={"m": (8,)}, output_path=str(tmp_path / "a.csv")))
    numpy = run_experiment(
        replace(TINY, sweep={"m": (np.int64(8),)}, output_path=str(tmp_path / "b.csv"))
    )
    assert numpy.read_bytes() == plain.read_bytes()
    assert {row["m"] for row in read_rows(numpy)} == {"8"}


@pytest.mark.parametrize(
    "key, values",
    [
        ("q_min_muw", (1, -1)),
        ("bias_rssi_db", (0.0, -5.0)),
        ("c_th", (0.5, math.nan)),
        ("m", (20, 0)),
        ("bias_rssi_db", (0.0, math.inf)),
        ("q_min_muw", (1, 0.5)),
        ("m", (20, 10.7)),  # refused, not truncated to 10
    ],
)
def test_bad_sweep_value_names_grid_point_before_any_run(tmp_path, monkeypatch, key, values):
    def no_runs(*args, **kwargs):
        raise AssertionError("a run started before the grid was checked")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_runs)
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(n_ue=20), policies_enabled=("mmq",), n_runs=2,
        sweep={key: values}, output_path=str(tmp_path / "bad.csv"),
    )
    bad_point = re.escape(f"grid point {{{key!r}: {values[-1]!r}}}: ")
    with pytest.raises(ConfigurationError, match=bad_point):
        run_experiment(cfg)
    assert not (tmp_path / "bad.csv").exists()


def test_random_quota_failure_names_point_run_and_seed(tmp_path, monkeypatch):
    # Ten mmW minima of 1 plus ten random microwave minima in [0, 2] exceed
    # M = 20 on some runs: every run's minima are drawn and checked before any batch.
    def no_runs(*args, **kwargs):
        raise AssertionError("a run started before the minima were checked")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_runs)
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


def test_random_minima_m_cannot_meet_fail_before_any_batch(tmp_path, capsys, monkeypatch):
    # M = 100 and 60 are met; run 0 at M = 10 draws 3 microwave minima on top of
    # ten mmW minima of 1. Drawn inside its batch, it was refused after 21 batches.
    def no_runs(*args, **kwargs):
        raise AssertionError("a batch started before every run's minima were checked")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_runs)
    message = (
        "grid point {'m': 10}, run 0, seed 1: no feasible matching: "
        "sum q_min=13, M=10, sum q_max=200"
    )
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(seed=1), policy=PolicyConfig(q_min_mmw=1),
        policies_enabled=("mmq",), n_runs=200, random_muw_quota=True,
        sweep={"m": (100, 60, 10)}, output_path=str(tmp_path / "m.csv"),
    )
    with pytest.raises(ConfigurationError, match=f"^{re.escape(message)}$"):
        run_experiment(cfg)
    cfg_file = tmp_path / "m.cfg"
    cfg_file.write_text(
        "scenario.seed = 1\npolicy.q_min_mmw = 1\nexperiment.runs = 200\n"
        "experiment.random_muw_quota = true\nexperiment.policies = mmq\nsweep.m = 100, 60, 10\n"
    )
    assert simulate_main(["--config", str(cfg_file), "--out", str(tmp_path / "m.csv")]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "m.csv").exists()


@pytest.mark.parametrize(
    "changes",
    [
        {"policy": PolicyConfig(q_min_muw=2)},
        {"sweep": {"q_min_muw": (0, 2)}},
        {"sweep": {"m": (8,), "q_min_muw": (0,)}},
    ],
)
def test_random_minima_refuse_a_set_microwave_minimum(changes):
    # The draws would replace it: grid points whose rows differ in their label alone.
    refused = r"^random_muw_quota draws the microwave minima: q_min_muw must be 0 and not swept$"
    changes = {"policy": PolicyConfig(), **changes}
    with pytest.raises(ConfigurationError, match=refused):
        replace(TINY, random_muw_quota=True, **changes)
    replace(TINY, **changes)  # fixed minima may be set and swept


def test_random_minima_above_the_microwave_cap_fail_before_any_run(tmp_path, capsys, monkeypatch):
    # Draws reach M // N2 = 50 on a microwave BS capped at 48: once refused
    # only by the run that drew it, after every batch before it had run.
    def no_runs(*args, **kwargs):
        raise AssertionError("a run started before the grid was checked")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_runs)
    cfg_file = tmp_path / "cap.cfg"
    cfg_file.write_text(
        "scenario.n_ue = 100\nscenario.n_muw = 2\npolicy.q_max_muw = 48\n"
        "experiment.runs = 200\nexperiment.random_muw_quota = true\nexperiment.policies = mmq\n"
    )
    assert simulate_main(["--config", str(cfg_file), "--out", str(tmp_path / "cap.csv")]) == 1
    message = "grid point {}: random microwave minima reach M // N2 = 50 > q_max_muw = 48"
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not (tmp_path / "cap.csv").exists()


def test_numpy_integer_seed_gives_the_same_bytes(tmp_path):
    # ScenarioConfig accepts numpy integer seeds; every stream must key as the
    # equal Python int (random minima use the quota stream too).
    outs = []
    for seed in (3, np.int64(3)):
        cfg = replace(
            TINY, scenario=replace(TINY.scenario, seed=seed), policy=PolicyConfig(),
            random_muw_quota=True, output_path=str(tmp_path / f"{type(seed).__name__}.csv"),
        )
        out = run_experiment(cfg)
        outs.append((out.read_bytes(), aggregate_path(out).read_bytes()))
    assert outs[0] == outs[1]


@pytest.mark.parametrize(
    "seed, n_runs", [(2**64, 2), (2**64 - 1, 2), (np.uint64(2**64 - 1), 2), (-1, 1)]
)
def test_run_seeds_outside_64_bits_are_refused_before_any_run(
    tmp_path, capsys, monkeypatch, seed, n_runs
):
    # Stream keys take a seed mod 2**64, so run seed 2**64 repeated every draw of
    # run seed 0 under another seed column. numpy's uint64 would wrap the sum.
    def no_runs(*args, **kwargs):
        raise AssertionError("a run started before the seed was checked")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_runs)
    refused = rf"^seed must be in \[0, 2\*\*64 - n_runs\], got {int(seed)}$"
    with pytest.raises(ConfigurationError, match=refused):
        run_experiment(with_overrides(TINY, n_runs, seed, tmp_path / "seed.csv"))
    with pytest.raises(ConfigurationError, match=refused):
        run_figure("fig7", tmp_path / "fig7.csv", n_runs, seed)
    cfg_file = tmp_path / "seed.cfg"
    cfg_file.write_text(f"scenario.seed = {int(seed)}\nexperiment.runs = {n_runs}\n")
    assert simulate_main(["--config", str(cfg_file)]) == 1
    named = "error: line 1: scenario.seed, line 2: experiment.runs: seed must be"
    assert capsys.readouterr().err.startswith(named)
    assert with_overrides(TINY, n_runs, 2**64 - n_runs).scenario.seed == 2**64 - n_runs


@pytest.mark.parametrize("seed", [3, 11, 29])
def test_driver_baselines_match_one_scenario_policies(tmp_path, seed):
    # With fixed biases, each baseline row of the driver describes the matching
    # that ``cre_association`` gives the one scenario at that one bias.
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(n_ue=40, seed=seed),
        policy=PolicyConfig(bias_rssi_db=20.0, bias_sinr_db=6.0),
        policies_enabled=("max_rssi", "max_sinr"), n_runs=1, n_slots=1,
        output_path=str(tmp_path / "base.csv"),
    )
    rows = {row["policy"]: row for row in read_rows(run_experiment(cfg))}
    sc = generate_scenario(cfg.scenario)
    for name, metric, bias in (
        ("max_rssi", rssi_matrix_dbm, 20.0), ("max_sinr", sinr_matrix_db, 6.0)
    ):
        _, choice = cre_association(name, metric(sc, link_budget(sc)), sc.n_mmw, (bias,))
        loads = build_matching(choice, sc.config.n_bs).loads
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


def test_quota_sweep_refuses_fractional_values_before_any_run(monkeypatch):
    def no_runs(*args, **kwargs):
        raise AssertionError("a run started before the grid was checked")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_runs)
    with pytest.raises(
        ConfigurationError,
        match=re.escape("grid point {'m': 20.9, 'q_min_muw': 0.5}: n_ue must be an integer"),
    ):
        optimal_min_quota_sweep(ScenarioConfig(seed=1), [20.9], [0.5, 1.7])
    with pytest.raises(
        ConfigurationError,
        match=re.escape("grid point {'m': 20, 'q_min_muw': 1.7}: q_min_muw must be an integer"),
    ):
        optimal_min_quota_sweep(ScenarioConfig(seed=1), [20], [1, 1.7])


@pytest.mark.parametrize(
    "sweep, refused",
    [
        ({"m": (10, True)}, "grid point {'m': True}: n_ue must be an integer, got True"),
        ({"q_min_muw": (True,)}, "grid point {'q_min_muw': True}: q_min_muw must be an integer"),
        ({"c_th": (0.5, True)}, "grid point {'c_th': True}: c_th must be a number, got True"),
    ],
    ids=["m", "q_min_muw", "c_th"],
)
def test_sweep_refuses_a_bool_value_before_any_run(monkeypatch, tmp_path, sweep, refused):
    # Unrefused, a bool M dies inside the scenario draw without naming its
    # point, and a bool quota runs as 1.
    def no_runs(*args, **kwargs):
        raise AssertionError("a run started before the grid was checked")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_runs)
    exp = ExperimentConfig(n_runs=2, sweep=sweep, output_path=str(tmp_path / "out.csv"))
    with pytest.raises(ConfigurationError, match=re.escape(refused)):
        run_experiment(exp)


@pytest.mark.parametrize(
    "sweep, refused",
    [
        ({"c_th": ("0.5",)}, "grid point {'c_th': '0.5'}: c_th must be a number, got '0.5'"),
        ({"bias_rssi_db": (None,)}, "grid point {'bias_rssi_db': None}: bias_rssi_db must be a"),
    ],
    ids=["c_th", "bias_rssi_db"],
)
def test_sweep_refuses_a_wrong_kind_value_before_any_run(monkeypatch, tmp_path, sweep, refused):
    # Unrefused, a string gate or a None bias raised a bare TypeError naming no point.
    def no_runs(*args, **kwargs):
        raise AssertionError("a run started before the grid was checked")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_runs)
    exp = ExperimentConfig(n_runs=2, sweep=sweep, output_path=str(tmp_path / "out.csv"))
    with pytest.raises(ConfigurationError, match=re.escape(refused)):
        run_experiment(exp)


@pytest.mark.parametrize(
    "m, q, refused",
    [(5.5, 3, "n_ue must be an integer, got 5.5"), (5, 0.7, "q_min_muw must be an integer")],
)
def test_quota_sweep_refuses_a_fractional_pair_it_would_skip(m, q, refused):
    # N2 * q > M for both pairs (N2 = 10): the refusal must come before the
    # skip test, or the pair is skipped with a warning (an error under pytest).
    with pytest.raises(
        ConfigurationError, match=re.escape(f"grid point {{'m': {m}, 'q_min_muw': {q}}}: {refused}")
    ):
        optimal_min_quota_sweep(ScenarioConfig(), [m], [q])


def test_quota_sweep_accepts_numpy_integers():
    cfg = ScenarioConfig(n_mmw=2, n_muw=2, n_ue=8, seed=77)
    plain = optimal_min_quota_sweep(cfg, [6, 10], [0, 3], n_runs=2, n_slots=2)
    numpy = optimal_min_quota_sweep(cfg, np.array([6, 10]), np.array([0, 3]), n_runs=2, n_slots=2)
    assert numpy == plain


def test_quota_sweep_with_every_candidate_skipped_is_empty():
    with pytest.warns(UserWarning, match="skipping q_min") as record:
        assert optimal_min_quota_sweep(ScenarioConfig(), [5], [3, 4]) == []
    assert len(record) == 2  # one warning per skipped (M, q)


def test_fig4_parallel_matches_serial(tmp_path):
    serial = run_figure("fig4", output_path=tmp_path / "serial.csv", n_runs=2)
    parallel = run_figure("fig4", output_path=tmp_path / "par.csv", n_runs=2, workers=2)
    assert serial.read_bytes() == parallel.read_bytes()


def test_fig3_parallel_matches_serial(tmp_path):
    # Random minima: at 17 runs, M = 100 takes two batches (16 + 1), each handed
    # its own runs' drawn minima.
    serial = run_figure("fig3", output_path=tmp_path / "serial.csv", n_runs=17)
    parallel = run_figure("fig3", output_path=tmp_path / "par.csv", n_runs=17, workers=2)
    assert serial.read_bytes() == parallel.read_bytes()


def test_a_batch_error_names_its_grid_point_runs_and_seeds(tmp_path, capsys, monkeypatch):
    # A stage's own error names no run. The driver notes the batch's grid point,
    # runs and seeds; the note survives the pool, and simulate prints it.
    def broken(*args, **kwargs):
        raise ValueError("stage failed")

    monkeypatch.setattr("cellassoc.experiments.cre_association", broken)
    note = "in grid point {'m': 6}, runs 0-1, seeds 77-78"
    exp = replace(TINY, n_runs=2, sweep={"m": (6, 8)}, output_path=str(tmp_path / "e.csv"))
    for workers in (1, 2):
        with pytest.raises(ValueError) as failure:
            run_experiment(exp, workers=workers)
        assert (str(failure.value), failure.value.__notes__) == ("stage failed", [note])
    cfg_file = tmp_path / "e.cfg"
    cfg_file.write_text("scenario.n_mmw = 2\nscenario.n_muw = 2\nscenario.seed = 77\n"
                        "policy.q_min_muw = 1\nexperiment.runs = 2\nsweep.m = 6, 8\n")
    argv = ["--config", str(cfg_file), "--out", str(tmp_path / "e.csv"), "--workers", "2"]
    assert simulate_main(argv) == 1
    assert capsys.readouterr().err == f"error: stage failed\n{note}\n"
    assert not (tmp_path / "e.csv").exists()


def test_fig4_runs_pass_through_the_verifier(tmp_path, monkeypatch):
    def report_infeasible(instance, matching):
        report = verify(instance, matching)
        return replace(report, feasible=np.zeros_like(report.feasible))

    monkeypatch.setattr("cellassoc.experiments.verify", report_infeasible)
    with pytest.raises(VerificationFailure, match="failed verification"):
        run_figure("fig4", output_path=tmp_path / "f4.csv", n_runs=1)
    assert not (tmp_path / "f4.csv").exists()


def test_verification_failure_lists_every_host(tmp_path, monkeypatch):
    def report_infeasible(instance, matching):
        report = verify(instance, matching)
        return replace(report, feasible=np.zeros_like(report.feasible))

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


def test_verification_failure_names_run_and_seed(tmp_path, monkeypatch):
    # One batch of four runs and three policies; only run 2's quota-aware
    # assignment is broken, so a check that reads one run or one policy misses it.
    import cellassoc.experiments as experiments

    real_mmq = experiments.mmq_match

    def break_run_2(instance):
        hosts = real_mmq(instance).agent_to_host.copy()
        hosts[2, 0] = -1  # agent 0 of run 2 left unmatched
        return build_matching(hosts, instance.n_hosts)

    monkeypatch.setattr(experiments, "mmq_match", break_run_2)
    exp = replace(
        TINY, policies_enabled=("mmq", "da", "max_rssi"), n_runs=4,
        output_path=str(tmp_path / "broken.csv"),
    )
    with pytest.raises(VerificationFailure) as failure:
        run_experiment(exp)
    message = str(failure.value)
    assert f"grid point {{}}, run 2, seed {TINY.scenario.seed + 2} (feasible=False" in message
    assert message.split("Assignment: ")[1].startswith("[-1, ")
    assert not hasattr(failure.value, "__notes__")  # it names its run itself
    assert not (tmp_path / "broken.csv").exists()


def test_verification_failure_names_the_first_blocking_pair(tmp_path, monkeypatch):
    # Run 2's quota-aware assignment gets one capacity-aware blocking pair,
    # agent 5 with host 3; the message names that pair after the count.
    import cellassoc.experiments as experiments

    def block_run_2(instance, matching):
        report = verify(instance, matching)
        capacity_aware = report.capacity_aware.copy()
        assert not capacity_aware[:, 0].any()  # policy 0 is mmq, which is stable
        capacity_aware[2, 0, 5, 3] = True
        return replace(report, capacity_aware=capacity_aware)

    monkeypatch.setattr(experiments, "verify", block_run_2)
    exp = replace(
        TINY, policies_enabled=("mmq", "da", "max_rssi"), n_runs=4,
        output_path=str(tmp_path / "blocked.csv"),
    )
    with pytest.raises(VerificationFailure) as failure:
        run_experiment(exp)
    seed = TINY.scenario.seed + 2
    assert f"run 2, seed {seed} (feasible=True, blocking=1 [(5, 3)]).\n" in str(failure.value)
    assert not (tmp_path / "blocked.csv").exists()


def test_verification_failure_dump_replays_through_match(tmp_path, monkeypatch, capsys):
    # Three gated (c_th = 0.5) runs with mmW BSs capped at 2, stacked in one
    # batch; run 2 is reported infeasible. Its dump carries the gates, so
    # `match` walks it to the experiment's assignment and gives the real verdict.
    import cellassoc.experiments as experiments

    reports = []

    def fail_run_2(instance, matching):
        reports.append(verify(instance, matching))
        feasible = reports[-1].feasible.copy()
        feasible[2] = False
        return replace(reports[-1], feasible=feasible)

    monkeypatch.setattr(experiments, "verify", fail_run_2)
    exp = ExperimentConfig(
        scenario=ScenarioConfig(n_ue=100), policy=PolicyConfig(q_min_muw=8, q_max_mmw=2, c_th=0.5),
        policies_enabled=("mmq",), n_runs=3, n_slots=1, output_path=str(tmp_path / "g.csv"),
    )
    with pytest.raises(VerificationFailure) as failure:
        run_experiment(exp)
    message = str(failure.value)
    assert len(reports) == 1 and "run 2, seed 2 (feasible=False" in message
    dump, assignment = message.split("Instance dump:\n")[1].split("Assignment: ")
    path = tmp_path / "dump.txt"
    path.write_text(dump)
    assert match_main(["--instance", str(path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    hosts = [-1] * 100
    for host, line in enumerate(lines[:20]):
        for agent in line.split(": ")[1].split():
            hosts[int(agent)] = host
    assert hosts == json.loads(assignment)
    assert lines[20:] == [
        f"feasible: {reports[0].feasible[2, 0]}",
        f"blocking pairs: {reports[0].n_blocking_pairs[2, 0]} []",
        "pareto optimal: True",
    ]
    # Without its gates the instance walks to another assignment.
    inst = parse_instance(dump)
    ungated = MatchingInstance(100, 20, inst.agent_prefs, inst.master_list, inst.q_min, inst.q_max)
    assert mmq_match(ungated).agent_to_host.tolist() != hosts


@pytest.mark.parametrize(
    "figure_id, directory",
    [("fig5", "out.csv"), ("fig5", "out_agg.csv"), ("fig4", "out.csv"), ("fig7", "out_runs.csv")],
)
def test_output_paths_are_checked_before_any_run(
    tmp_path, capsys, monkeypatch, figure_id, directory
):
    def no_runs(*args, **kwargs):
        raise AssertionError("a run started before the output paths were checked")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_runs)
    (tmp_path / directory).mkdir()
    argv = ["figure", figure_id, "--runs", "1", "--out", str(tmp_path / "out.csv")]
    assert simulate_main(argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: output path {tmp_path / directory} is a directory\n"


def test_unwritable_output_parent_fails_before_any_run(tmp_path, capsys, monkeypatch):
    def no_runs(*args, **kwargs):
        raise AssertionError("a run started before the output paths were checked")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_runs)
    (tmp_path / "file").write_text("")
    out = tmp_path / "file" / "sub" / "out.csv"
    assert simulate_main(["figure", "fig5", "--runs", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == (
        f"error: output path {out}: {tmp_path / 'file'} is not a directory\n"
    )
    monkeypatch.setattr("cellassoc.experiments.os.access", lambda path, mode: False)
    out = tmp_path / "new" / "out.csv"
    assert simulate_main(["figure", "fig5", "--runs", "1", "--out", str(out)]) == 1
    assert capsys.readouterr().err == f"error: output path {out}: {tmp_path} is not writable\n"


@pytest.mark.parametrize("figure", [False, True], ids=["config", "figure"])
def test_cli_refuses_an_empty_output_path_before_any_run(tmp_path, capsys, monkeypatch, figure):
    def no_runs(*args, **kwargs):
        raise AssertionError("a run started before the output path was checked")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_runs)
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text("scenario.n_ue = 9\nexperiment.runs = 1\n")
    argv = ["figure", "fig7"] if figure else ["--config", str(cfg_file)]
    assert simulate_main(argv + ["--out", ""]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err == "error: output_path must name a file, got ''\n"


def test_a_path_the_writer_does_not_open_is_not_checked(tmp_path):
    (tmp_path / "out_runs.csv").mkdir()  # only fig7 writes a _runs file
    out = run_figure("fig5", output_path=tmp_path / "out.csv", n_runs=1)
    assert out == tmp_path / "out.csv" and aggregate_path(out).exists()


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


def written_bytes(directory):
    return {p.name: p.read_bytes() for p in sorted(Path(directory).iterdir())}


CLI_CONFIG = (
    "scenario.n_mmw = 2\nscenario.n_muw = 2\nscenario.n_ue = 8\n"
    "experiment.policies = mmq, max_rssi\nexperiment.runs = 5\nexperiment.slots = 2\n"
)


def test_cli_simulate_config_matches_the_library_call(tmp_path, capsys):
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CLI_CONFIG)
    (tmp_path / "cli").mkdir()
    (tmp_path / "lib").mkdir()
    out = tmp_path / "cli" / "x.csv"
    argv = ["--config", str(cfg_file), "--runs", "2", "--seed", "3", "--out", str(out)]
    assert simulate_main(argv) == 0
    assert capsys.readouterr().out == f"{out}\n"
    config = load_config(cfg_file)
    run_experiment(
        replace(
            config,
            scenario=replace(config.scenario, seed=3),
            n_runs=2,
            output_path=str(tmp_path / "lib" / "x.csv"),
        )
    )
    assert written_bytes(tmp_path / "cli") == written_bytes(tmp_path / "lib")


def test_simulate_does_not_import_numpy_ma(tmp_path):
    # np.percentile's first call imports numpy.ma, a fixed cost in every process.
    cfg_file = tmp_path / "exp.cfg"
    cfg_file.write_text(CLI_CONFIG)
    argv = ["--config", str(cfg_file), "--runs", "2", "--out", str(tmp_path / "x.csv")]
    script = (
        "import sys\nfrom cellassoc.cli import simulate_main\n"
        f"code = simulate_main({argv!r})\nprint(code, 'numpy.ma' in sys.modules)\n"
    )
    paths = [str(Path(__file__).resolve().parent.parent / "src"), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, paths)))
    proc = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "0 False"


def test_cli_simulate_figure_matches_the_library_call(tmp_path, capsys):
    (tmp_path / "cli").mkdir()
    (tmp_path / "lib").mkdir()
    out = tmp_path / "cli" / "x.csv"
    argv = ["figure", "fig5", "--runs", "2", "--seed", "3", "--out", str(out)]
    assert simulate_main(argv) == 0
    assert capsys.readouterr().out == f"{out}\n"
    run_figure("fig5", tmp_path / "lib" / "x.csv", n_runs=2, seed=3)
    assert written_bytes(tmp_path / "cli") == written_bytes(tmp_path / "lib")


def test_cli_simulate_figure_defaults_to_its_own_seed_and_file_name(
    tmp_path, capsys, monkeypatch
):
    (tmp_path / "default").mkdir()
    (tmp_path / "seed0").mkdir()
    monkeypatch.chdir(tmp_path / "default")
    assert simulate_main(["figure", "fig5", "--runs", "2"]) == 0
    assert capsys.readouterr().out == "fig5.csv\n"
    out = tmp_path / "seed0" / "fig5.csv"
    assert simulate_main(["figure", "fig5", "--runs", "2", "--seed", "0", "--out", str(out)]) == 0
    assert written_bytes(tmp_path / "default") == written_bytes(tmp_path / "seed0")


def test_with_overrides_keeps_what_is_none():
    assert with_overrides(TINY) == TINY
    changed = with_overrides(TINY, n_runs=2, seed=3, output_path=Path("b.csv"))
    assert changed == replace(
        TINY, scenario=replace(TINY.scenario, seed=3), n_runs=2, output_path="b.csv"
    )
    with pytest.raises(ConfigurationError, match="n_runs must be >= 1"):
        with_overrides(TINY, n_runs=0)


@pytest.mark.parametrize("form", ["config", "figure"])
def test_cli_simulate_out_naming_a_directory_fails_cleanly(tmp_path, capsys, form):
    if form == "figure":
        argv = ["figure", "fig5", "--runs", "1"]
    else:
        cfg_file = tmp_path / "exp.cfg"
        cfg_file.write_text(CLI_CONFIG)
        argv = ["--config", str(cfg_file)]
    assert simulate_main(argv + ["--out", str(tmp_path)]) == 1
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: ")


@pytest.mark.skipif(sys.version_info < (3, 11), reason="tomllib is new in Python 3.11")
def test_console_scripts_resolve():
    import tomllib

    pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
    scripts = tomllib.loads(pyproject.read_text())["project"]["scripts"]
    assert set(scripts) == {"simulate", "match"}
    for target in scripts.values():
        module, _, attr = target.partition(":")
        assert callable(getattr(importlib.import_module(module), attr))


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
        (
            "experiment.random_muw_quota = true\nscenario.n_ue = 30\npolicy.q_min_muw = 2\n",
            "error: line 1: experiment.random_muw_quota, line 3: policy.q_min_muw: "
            "random_muw_quota draws the microwave minima: q_min_muw must be 0 and not swept\n",
        ),
        (
            "sweep.q_min_muw = 0, 1\nexperiment.random_muw_quota = true\n",
            "error: line 1: sweep.q_min_muw, line 2: experiment.random_muw_quota: "
            "random_muw_quota draws the microwave minima: q_min_muw must be 0 and not swept\n",
        ),
    ],
    ids=[
        "one_key", "two_keys", "policy_bias", "experiment", "policy_bias_inf",
        "random_minima_policy", "random_minima_sweep",
    ],
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


@pytest.mark.parametrize("workers", [2.0, 2.5, True, "2"])
@pytest.mark.parametrize("entry", ["run_experiment", "run_figure", "optimal_min_quota_sweep"])
def test_api_rejects_non_integer_workers(tmp_path, monkeypatch, entry, workers):
    # A float or str would fail inside the pool, and a bool would pass as 0 or 1.
    def no_run(*args, **kwargs):
        raise AssertionError("a run started")

    monkeypatch.setattr("cellassoc.experiments._run_batch", no_run)
    monkeypatch.setattr("cellassoc.experiments._point_tasks", no_run)
    out = tmp_path / "out.csv"
    calls = {
        "run_experiment": lambda: run_experiment(
            replace(TINY, sweep={"m": (8, 10)}, output_path=str(out)), workers=workers
        ),
        "run_figure": lambda: run_figure("fig7", out, 2, workers=workers),
        "optimal_min_quota_sweep": lambda: optimal_min_quota_sweep(
            TINY.scenario, [8], [0, 1], n_runs=2, n_slots=2, workers=workers
        ),
    }
    with pytest.raises(ConfigurationError, match="^workers must be an integer"):
        calls[entry]()
    assert not out.exists()


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
    run_experiment(three_points, workers=np.int64(2))  # a numpy integer is an integer
    assert sizes == [3, 2, 2]


def test_batches_depend_on_the_grid_point_alone(monkeypatch):
    # Runs per batch = max(1, min(runs, _BATCH_ELEMENTS // (M * N))) with N = 20
    # here, whatever --workers says.
    batches = []

    def record(exp, overrides, runs, q_min):
        batches.append((overrides["m"], runs))
        return {**dict.fromkeys(ROW_COLUMNS, ()), "muw_rates_bps": runs}

    monkeypatch.setattr("cellassoc.experiments.ProcessPoolExecutor", recording_pool([]))
    monkeypatch.setattr("cellassoc.experiments._run_batch", record)
    exp = replace(
        TINY,
        scenario=replace(TINY.scenario, n_mmw=10, n_muw=10),
        n_runs=9,
        sweep={"m": (10, 100, 500)},
    )
    want = []
    for m in exp.sweep["m"]:
        size = max(1, min(9, _BATCH_ELEMENTS // (m * 20)))
        want += [(m, range(start, min(start + size, 9))) for start in range(0, 9, size)]
    assert len(want) > 3  # some grid point spans several batches
    for workers in (1, 2, 5):
        batches.clear()
        columns = _collect_rows(exp, _grid_points(exp.sweep), workers)
        # Each batch's microwave rates stay one entry, in task order, not joined.
        assert columns == {**dict.fromkeys(ROW_COLUMNS, []), "muw_rates_bps": [r for _, r in want]}
        assert batches == want


@pytest.mark.parametrize("workers", [1, 2])
def test_rows_arrive_in_grid_run_policy_order(tmp_path, workers):
    # At M=500 and N=20 each batch holds one run, so the second grid point spans
    # three batches; its rows must still follow the first point's, run by run.
    exp = replace(
        TINY,
        scenario=replace(TINY.scenario, n_mmw=10, n_muw=10),
        policies_enabled=("max_sinr", "mmq", "max_rssi"),
        sweep={"m": (10, 500)},
        output_path=str(tmp_path / "order.csv"),
    )
    rows = read_rows(run_experiment(exp, workers=workers))
    rank = {name: i for i, name in enumerate(POLICY_ORDER)}
    order = [(int(row["m"]), int(row["run"]), rank[row["policy"]]) for row in rows]
    assert order == sorted(order)
    assert order == [(m, k, p) for m in (10, 500) for k in range(3) for p in (0, 2, 3)]
    agg = read_rows(aggregate_path(tmp_path / "order.csv"))
    groups = [(row["m"], row["policy"]) for row in agg]
    assert groups == [(m, p) for m in ("10", "500") for p in ("mmq", "max_rssi", "max_sinr")]
    for group, row in zip(groups, agg):
        sums = [float(r["sum_rate_bps"]) for r in rows if (r["m"], r["policy"]) == group]
        assert row["n_runs"] == "3" and float(row["sum_rate_mean_bps"]) == np.mean(sums)


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


def test_cli_match_decides_pareto_optimality_beyond_enumeration(tmp_path, capsys, monkeypatch):
    # 3^12 = 531,441 assignments, every one of them feasible: none is enumerated
    # by the brute-force oracle, which the test helpers hold.
    def no_enumeration(*args, **kwargs):
        raise AssertionError("verify enumerated the feasible matchings")

    monkeypatch.setattr(helpers, "enumerate_feasible", no_enumeration)
    inst = MatchingInstance(
        n_agents=12, n_hosts=3,
        agent_prefs=tuple(tuple(np.roll([0, 1, 2], a)) for a in range(12)),
        master_list=tuple(range(12)),
        q_min=(0, 0, 0), q_max=(12, 12, 12),
    )
    path = tmp_path / "inst.txt"
    path.write_text(format_instance(inst))
    assert match_main(["--instance", str(path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1] == "pareto optimal: True"


def test_cli_match_rejects_short_preference_lists(tmp_path, capsys):
    # Both agents list only host 0 of two: refused before either matcher runs.
    path = tmp_path / "short.txt"
    path.write_text("2 2\n0 0\n1 1\n0\n0\n0 1\n")
    for algorithm in ("mmq", "da"):
        assert match_main(["--instance", str(path), "--algorithm", algorithm]) == 1
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: agent 0: preference list must rank all 2 hosts, got 1\n"


def test_cli_match_bad_token_names_its_line(tmp_path, capsys):
    # Line 5 of the file, counting the blank line 3: agent 1's preferences.
    path = tmp_path / "bad.txt"
    path.write_text("2 2\n1 1\n\n1 1\n0 x\n0\n0 1\n")
    assert match_main(["--instance", str(path)]) == 1
    assert capsys.readouterr().err == "error: line 5: not an integer: 'x'\n"


@pytest.mark.parametrize(
    "text, message",
    [
        ("-1 2\n0 0\n1 1\n", "line 1: agent and host counts must be non-negative, got -1 2"),
        ("\n1 -2\n0\n1\n0\n0\n", "line 2: agent and host counts must be non-negative, got 1 -2"),
        ("3\n0 0 0\n", "line 1: bad header line '3'"),
        ("\n1 2 3\n0 0\n", "line 2: bad header line '1 2 3'"),
    ],
)
def test_cli_match_rejects_a_bad_header_naming_its_line(tmp_path, capsys, text, message):
    path = tmp_path / "header.txt"
    path.write_text(text)
    assert match_main(["--instance", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    with pytest.raises(MatchingError, match=f"^{re.escape(message)}$"):
        parse_instance(text)


def test_cli_match_missing_file(tmp_path):
    assert match_main(["--instance", str(tmp_path / "none.txt")]) == 1


def test_load_config_roundtrip(tmp_path):
    path = tmp_path / "c.cfg"
    path.write_text("scenario.n_ue = 9\nexperiment.runs = 2\n")
    cfg = load_config(path)
    assert cfg.scenario.n_ue == 9
    assert cfg.n_runs == 2
