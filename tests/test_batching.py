"""Batched Monte Carlo runs against one-run batches and per-run stages, bit for bit.

``_run_batch`` evaluates the link budget, utilities, preferences, bias search,
rates and row statistics once for a batch of runs, on arrays with a leading
run axis. Every stacked stage must give each run exactly what the per-run call
gives, and the rows of a batch must be the rows of its runs taken one at a time.
"""

import hashlib
import json
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from cellassoc.channel import draw_los_slots, link_budget, realize_links
from cellassoc.experiments import (
    ROW_COLUMNS,
    ExperimentConfig,
    _write_rows,
    aggregate_path,
    load_config,
    run_experiment,
    run_figure,
)
from cellassoc.matching import build_matching, mmq_match
from cellassoc.metrics import run_metrics, served_links, slot_averaged_rates
from cellassoc.policies import (
    CRE_BIAS_GRIDS,
    PolicyConfig,
    build_master_list,
    build_matching_instance,
    build_preferences,
    compute_utilities,
    cre_association,
    rssi_matrix_dbm,
    sinr_matrix_db,
)
from cellassoc.scenario import Scenario, ScenarioConfig, generate_scenario
from helpers import oracle_best_bias, oracle_slot_averaged_rates, run_batch

BASE = ExperimentConfig(scenario=ScenarioConfig(n_mmw=3, n_muw=4, n_ue=20, seed=31), n_slots=9)

# Each case covers a per-run branch of the driver: random microwave minima with
# the load-optimal biases, the utility gate with deferred acceptance and fixed
# biases, and fixed microwave minima with every policy at its load-optimal bias.
CASES = {
    "random_minima_auto_bias": replace(
        BASE,
        policies_enabled=("mmq", "max_rssi", "max_sinr"),
        random_muw_quota=True,
        auto_bias=True,
    ),
    "gate_da_fixed_bias": replace(
        BASE,
        policy=PolicyConfig(q_min_muw=2, c_th=0.5, bias_rssi_db=10.0, bias_sinr_db=4.0),
    ),
    "muw_samples": replace(BASE, policy=PolicyConfig(q_min_muw=1), auto_bias=True),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("overrides", [{}, {"m": 13}])
def test_batch_rows_equal_one_run_batches(tmp_path, case, overrides):
    # A batch's columns are its one-run batches' columns end to end: rows run-major,
    # policies in POLICY_ORDER, and one flat array of microwave rates in row order.
    exp = CASES[case]
    runs = range(2, 7)
    batch = run_batch(exp, overrides, runs)  # random minima: each run's drawn row
    singles = [run_batch(exp, overrides, range(run, run + 1)) for run in runs]
    assert batch.keys() == set(ROW_COLUMNS + ("muw_rates_bps",))
    samples = batch.pop("muw_rates_bps")
    assert isinstance(samples, np.ndarray) and samples.ndim == 1
    assert np.array_equal(samples, np.concatenate([one.pop("muw_rates_bps") for one in singles]))
    assert len(samples) == sum(batch["ue_muw"]) > 0
    single = {key: [value for one in singles for value in one[key]] for key in batch}
    n_policies = len(exp.policies_enabled)
    assert {len(column) for column in batch.values()} == {len(runs) * n_policies}
    assert batch["run"] == [run for run in runs for _ in range(n_policies)]
    assert batch == single
    _write_rows(batch, tmp_path / "batch.csv")
    _write_rows(single, tmp_path / "single.csv")
    assert (tmp_path / "batch.csv").read_bytes() == (tmp_path / "single.csv").read_bytes()


def _per_run(cfg: ScenarioConfig, n_runs: int):
    """Per-run configs and scenarios, plus the batched draw of the same seeds."""
    configs = [replace(cfg, seed=cfg.seed + k) for k in range(n_runs)]
    batch = generate_scenario(cfg, [c.seed for c in configs])
    assert batch.seeds == tuple(c.seed for c in configs)  # the slot draw keys run k from it
    return configs, [generate_scenario(c) for c in configs], batch


def test_one_run_stack_is_a_view():
    # A one-run call is the batched draw of one seed, the run axis dropped by views.
    cfg = ScenarioConfig(n_ue=6, seed=2)
    (sc,), batch = _per_run(cfg, 1)[1:]
    assert batch.los_prob.shape == (1,) + sc.los_prob.shape
    assert batch.seeds == (cfg.seed,) and sc.seeds is None
    for f in fields(Scenario)[1:-1]:  # the arrays
        assert np.array_equal(getattr(batch, f.name)[0], getattr(sc, f.name))
        assert not getattr(sc, f.name).flags.owndata


@pytest.mark.parametrize("n_runs", [1, 4])
@pytest.mark.parametrize("c_th", [float("-inf"), 0.5])
def test_stacked_stages_match_per_run(n_runs, c_th):
    configs, scenarios, batch = _per_run(ScenarioConfig(n_mmw=3, n_muw=4, n_ue=11, seed=9), n_runs)
    assert (batch.n_ue, batch.n_mmw, batch.n_muw) == (11, 3, 4)
    budget = link_budget(batch)
    slots = draw_los_slots(batch, 5)
    links = realize_links(batch, None, budget)
    u = compute_utilities(links, batch.los_prob)
    prefs, gated = build_preferences(u, batch.n_mmw, c_th)
    master = build_master_list(u)
    policy = PolicyConfig(q_min_muw=1, c_th=c_th)
    instance = build_matching_instance(batch, links, batch.los_prob, policy)
    assert instance.agent_prefs.shape == (n_runs, 11, 7)
    for r, (cfg, sc) in enumerate(zip(configs, scenarios)):
        run_budget = link_budget(sc)
        for name in ("loss_mmw_los", "loss_mmw_nlos", "loss_muw", "sinr_muw_db"):
            assert np.array_equal(getattr(budget, name)[r], getattr(run_budget, name))
        run_links = realize_links(sc, None, run_budget)
        for name in ("se_mmw_los", "se_mmw_nlos", "se_muw"):
            assert np.array_equal(getattr(links, name)[r], getattr(run_links, name))
        run_slots = draw_los_slots(sc, 5)
        assert np.array_equal(slots[:, r], run_slots)
        assert np.array_equal(rssi_matrix_dbm(batch, budget)[r], rssi_matrix_dbm(sc, run_budget))
        assert np.array_equal(sinr_matrix_db(batch, budget)[r], sinr_matrix_db(sc, run_budget))
        run_u = compute_utilities(run_links, sc.los_prob)
        assert np.array_equal(u[r], run_u)
        run_prefs, run_gated = build_preferences(run_u, sc.n_mmw, c_th)
        assert np.array_equal(prefs[r], run_prefs) and np.array_equal(gated[r], run_gated)
        assert np.array_equal(master[r], build_master_list(run_u))
        assert instance.run(r) == build_matching_instance(sc, run_links, sc.los_prob, policy)


@pytest.mark.parametrize("m, n", [(7, 3), (1, 2), (40, 20)])
@pytest.mark.parametrize("tier", ["mmw", "muw"])
@pytest.mark.parametrize("integer", [False, True], ids=["real", "ties"])
def test_stacked_best_bias_matches_oracle_per_run(m, n, tier, integer):
    rng = np.random.default_rng([m, n, int(integer), 8])
    for trial in range(10):
        shape = (int(rng.integers(1, 6)), m, n)
        if integer:  # small integers against integer biases tie argmaxes and spreads
            metric = rng.integers(-3, 4, shape).astype(float)
            metric[0] = 0.0 if trial == 0 else metric[0]
        else:
            metric = rng.normal(0.0, 20.0, shape)
        n_mmw = int(rng.integers(0, n + 1))
        name = "max_rssi" if tier == "mmw" else "max_sinr"  # the baseline biasing ``tier``
        for grid in (*CRE_BIAS_GRIDS.values(), (0.0, 1.0, 2.0, 3.0)):
            biases, choice = cre_association(name, metric, n_mmw, grid)
            assert biases.shape == shape[:1] and choice.shape == shape[:2]
            for r in range(shape[0]):
                want_bias, want_choice = oracle_best_bias(metric[r], n_mmw, grid, tier)
                assert biases[r] == want_bias
                assert choice[r].tolist() == want_choice


@pytest.mark.parametrize("n_slots", [1, 9])
@pytest.mark.parametrize("n_ue", [1, 17])
def test_stacked_rates_match_oracle_per_run(n_slots, n_ue):
    rng = np.random.default_rng([n_slots, n_ue])
    configs, scenarios, batch = _per_run(ScenarioConfig(n_mmw=3, n_muw=2, n_ue=n_ue, seed=5), 3)
    slots = draw_los_slots(batch, n_slots)
    links = realize_links(batch, None)
    instance = build_matching_instance(batch, links, batch.los_prob, PolicyConfig())
    hosts = np.stack(  # (run, policy, UE); the random policy has both tiers and unmatched UEs
        [mmq_match(instance).agent_to_host, rng.integers(-1, 5, (3, n_ue))], axis=1
    )
    served = served_links(build_matching(hosts, 5), links)
    rates = slot_averaged_rates(served, slots, configs[0])  # run axes align
    rm = run_metrics(served, rates)
    assert rates.shape == (3, 2, n_ue) and rm.delta_kappa.shape == rm.sum_rate_bps.shape == (3, 2)
    # The samples are flat in row order (run, policy, UE): row (r, p) holds one per microwave UE.
    per_row = (hosts >= 3).sum(axis=-1).ravel()
    assert rm.muw_rate_samples.shape == (per_row.sum(),)
    row_samples = np.split(rm.muw_rate_samples, np.cumsum(per_row)[:-1])
    for r, (cfg, sc) in enumerate(zip(configs, scenarios)):
        run_links = realize_links(sc, None)
        run_slots = draw_los_slots(sc, n_slots)
        for p in range(2):
            matching = build_matching(hosts[r, p], 5)
            want = oracle_slot_averaged_rates(matching, run_links, run_slots, cfg)
            assert np.array_equal(rates[r, p], want)
            one_served = served_links(matching, run_links)
            one_run = slot_averaged_rates(one_served, run_slots, cfg)
            assert np.array_equal(rates[r, p], one_run)
            one = run_metrics(one_served, want)
            assert rm.delta_kappa[r, p] == one.delta_kappa
            assert rm.sum_rate_bps[r, p] == one.sum_rate_bps
            assert np.array_equal(row_samples[2 * r + p], one.muw_rate_samples)


def test_stacked_rates_align_on_the_run_axis():
    # R == P == S == 2: broadcast from the trailing axes, run r's links would
    # meet policy r's assignments of every run, and no shape would object.
    configs, scenarios, batch = _per_run(ScenarioConfig(n_mmw=3, n_muw=2, n_ue=8, seed=9), 2)
    slots = draw_los_slots(batch, 2)
    hosts = np.random.default_rng(4).integers(-1, 5, (2, 2, 8))  # (run, policy, UE)
    served = served_links(build_matching(hosts, 5), realize_links(batch, None))
    rates = slot_averaged_rates(served, slots, configs[0])
    for r, (cfg, sc) in enumerate(zip(configs, scenarios)):
        run_links = realize_links(sc, None)
        run_slots = draw_los_slots(sc, 2)
        for p in range(2):
            want = slot_averaged_rates(
                served_links(build_matching(hosts[r, p], 5), run_links), run_slots, cfg
            )
            assert np.array_equal(rates[r, p], want)


# sha256 of every file that run_figure writes at n_runs=3, seed=5, recorded
# before the Monte Carlo runs were batched (numpy 2.4.6). Another numpy may
# round a transcendental function differently in the last bit.
FIGURE_DIGESTS_NUMPY = "2.4.6"
FIGURE_DIGESTS = {
    "fig3.csv": "394b05fb6a42262829af3343ea673729071918e1303577eb34d9feb61bea41ad",
    "fig3_agg.csv": "e75c8a0e4c7ee98e4aab6f9194e65f1d5c632ae9f182652d6aaf66d7ee5ed6a4",
    "fig4.csv": "3e69d7422767aa2cca155778cdf76ae37b30675ac3ab9389f8163c382f67c2cb",
    "fig5.csv": "9f8d83f24539f07c0a4a7ae494d9eba778c2ceca804e4e7a52f8e78bfb2bd8ab",
    "fig5_agg.csv": "6abb060940bb67a034e270564afa96566e0ca57d433eea15aa0da757ee29103a",
    "fig6.csv": "8550854ec6d6180a4b921f61a9708618d1640379f672f09d373754170d680dc9",
    "fig6_agg.csv": "05a2c3610bbf9fbabb95020fc0b8c478ae05e50a42c0e700b9fe64ebca4aaa79",
    "fig7.csv": "8b6fc896db335761bbd3d8d29086fa0dff77cdabb4a96678e700be1e0652aad3",
    "fig7_runs.csv": "f1e08588f54ba6d2d7d55e0f9b41a7cb115da35428d38ee070cad629ac736014",
}


@pytest.mark.skipif(
    np.__version__ != FIGURE_DIGESTS_NUMPY,
    reason=f"figure digests were recorded with numpy {FIGURE_DIGESTS_NUMPY}",
)
@pytest.mark.parametrize("workers", [1, 2])
def test_figures_keep_their_bytes(tmp_path, workers):
    for figure_id in ("fig3", "fig4", "fig5", "fig6", "fig7"):
        run_figure(figure_id, tmp_path / f"{figure_id}.csv", n_runs=3, seed=5, workers=workers)
    got = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in tmp_path.iterdir()}
    assert got == FIGURE_DIGESTS


BENCH = Path(__file__).resolve().parents[1] / "bench"


@pytest.mark.skipif(
    np.__version__ != FIGURE_DIGESTS_NUMPY,
    reason=f"benchmark digests were recorded with numpy {FIGURE_DIGESTS_NUMPY}",
)
@pytest.mark.parametrize("workload", sorted(p.stem for p in (BENCH / "workloads").glob("*.cfg")))
def test_bench_workloads_keep_their_digests(tmp_path, workload):
    # Each benchmark workload at its committed seed, serially (serial output
    # equals parallel), against the digests the benchmark checks every repetition.
    exp = load_config(BENCH / "workloads" / f"{workload}.cfg")
    out = run_experiment(replace(exp, output_path=str(tmp_path / f"{workload}.csv")))
    want = json.loads((BENCH / "digests.json").read_text())[workload]
    assert hashlib.sha256(out.read_bytes()).hexdigest() == want["csv_sha256"]
    assert hashlib.sha256(aggregate_path(out).read_bytes()).hexdigest() == want["agg_sha256"]
