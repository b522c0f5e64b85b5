"""Batched Monte Carlo runs against one-run batches and per-run stages, bit for bit.

``_run_batch`` evaluates the link budget, utilities, preferences, bias search,
rates and row statistics once for a batch of runs, on arrays with a leading
run axis. Every stacked stage must give each run exactly what the per-run call
gives, and the rows of a batch must be the rows of its runs taken one at a time.
"""

import hashlib
from dataclasses import fields, replace

import numpy as np
import pytest

from cellassoc.channel import draw_los_slots, link_budget, realize_links
from cellassoc.experiments import (
    ExperimentConfig,
    _run_batch,
    _stack_scenarios,
    _write_rows,
    run_figure,
)
from cellassoc.matching import build_matching, mmq_match
from cellassoc.metrics import run_metrics, slot_averaged_rates
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
from cellassoc.scenario import (
    STREAM_LINKS,
    STREAM_SLOTS,
    ScenarioConfig,
    generate_scenario,
    rng_stream,
)
from helpers import oracle_best_bias, oracle_slot_averaged_rates

BASE = ExperimentConfig(scenario=ScenarioConfig(n_mmw=3, n_muw=4, n_ue=20, seed=31), n_slots=9)

# Each case covers a per-run branch of the driver: random microwave minima with
# the load-optimal biases, the utility gate with deferred acceptance and fixed
# biases, and the microwave rate samples of the rate CDF.
CASES = {
    "random_minima_auto_bias": (
        replace(
            BASE,
            policies_enabled=("mmq", "max_rssi", "max_sinr"),
            random_muw_quota=True,
            auto_bias=True,
        ),
        False,
    ),
    "gate_da_fixed_bias": (
        replace(
            BASE,
            policy=PolicyConfig(q_min_muw=2, c_th=0.5, bias_rssi_db=10.0, bias_sinr_db=4.0),
        ),
        False,
    ),
    "muw_samples": (
        replace(BASE, policy=PolicyConfig(q_min_muw=1), auto_bias=True),
        True,
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
@pytest.mark.parametrize("overrides", [{}, {"m": 13}])
def test_batch_rows_equal_one_run_batches(tmp_path, case, overrides):
    exp, samples = CASES[case]
    runs = range(2, 7)
    batch = _run_batch(exp, overrides, 0, runs, samples)
    single = [
        row for run in runs for row in _run_batch(exp, overrides, 0, range(run, run + 1), samples)
    ]
    _write_rows(batch, tmp_path / "batch.csv")
    _write_rows(single, tmp_path / "single.csv")
    assert (tmp_path / "batch.csv").read_bytes() == (tmp_path / "single.csv").read_bytes()
    assert len(batch) == len(runs) * len(exp.policies_enabled)
    for got, want in zip(batch, single):
        assert got.keys() == want.keys()
        if samples:
            assert np.array_equal(got.pop("_muw_rates_bps"), want.pop("_muw_rates_bps"))
        assert got == want


def _per_run(cfg: ScenarioConfig, n_runs: int):
    configs = [replace(cfg, seed=cfg.seed + k) for k in range(n_runs)]
    return configs, [generate_scenario(c) for c in configs]


def test_one_run_stack_is_a_view():
    (sc,) = _per_run(ScenarioConfig(n_ue=6, seed=2), 1)[1]
    batch = _stack_scenarios([sc])
    assert batch.los_prob.shape == (1,) + sc.los_prob.shape
    assert np.shares_memory(batch.los_prob, sc.los_prob)
    assert np.shares_memory(batch.ue_positions, sc.ue_positions)


@pytest.mark.parametrize("n_runs", [1, 4])
@pytest.mark.parametrize("c_th", [float("-inf"), 0.5])
def test_stacked_stages_match_per_run(n_runs, c_th):
    configs, scenarios = _per_run(ScenarioConfig(n_mmw=3, n_muw=4, n_ue=11, seed=9), n_runs)
    batch = _stack_scenarios(scenarios)
    assert (batch.n_ue, batch.n_mmw, batch.n_muw) == (11, 3, 4)
    budget = link_budget(batch)
    links = realize_links(batch, [rng_stream(c.seed, STREAM_LINKS) for c in configs], budget)
    slots = draw_los_slots(batch, [rng_stream(c.seed, STREAM_SLOTS) for c in configs], 5)
    util = compute_utilities(links, batch.los_prob)
    prefs, gated = build_preferences(util, c_th)
    master = build_master_list(util)
    policy = PolicyConfig(q_min_muw=1, c_th=c_th)
    instances = list(build_matching_instance(batch, links, batch.los_prob, policy))
    assert len(instances) == n_runs
    for r, (cfg, sc) in enumerate(zip(configs, scenarios)):
        run_budget = link_budget(sc)
        for name in ("loss_mmw_los", "loss_mmw_nlos", "loss_muw", "sinr_muw_db"):
            assert np.array_equal(getattr(budget, name)[r], getattr(run_budget, name))
        run_links = realize_links(sc, rng_stream(cfg.seed, STREAM_LINKS), run_budget)
        for name in ("los_state", "se_mmw_los", "se_mmw_nlos", "se_muw"):
            assert np.array_equal(getattr(links, name)[r], getattr(run_links, name))
        run_slots = draw_los_slots(sc, rng_stream(cfg.seed, STREAM_SLOTS), 5)
        assert np.array_equal(slots[:, r], run_slots)
        assert np.array_equal(rssi_matrix_dbm(batch, budget)[r], rssi_matrix_dbm(sc))
        assert np.array_equal(sinr_matrix_db(batch, budget)[r], sinr_matrix_db(sc))
        run_util = compute_utilities(run_links, sc.los_prob)
        assert np.array_equal(util.u[r], run_util.u)
        run_prefs, run_gated = build_preferences(run_util, c_th)
        assert np.array_equal(prefs[r], run_prefs) and np.array_equal(gated[r], run_gated)
        assert tuple(master[r]) == build_master_list(run_util)
        assert instances[r] == build_matching_instance(sc, run_links, sc.los_prob, policy)


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
    configs, scenarios = _per_run(ScenarioConfig(n_mmw=3, n_muw=2, n_ue=n_ue, seed=5), 3)
    batch = _stack_scenarios(scenarios)
    links = realize_links(batch, [rng_stream(c.seed, STREAM_LINKS) for c in configs])
    slots = draw_los_slots(batch, [rng_stream(c.seed, STREAM_SLOTS) for c in configs], n_slots)
    instances = build_matching_instance(batch, links, batch.los_prob, PolicyConfig())
    matchings = [
        [
            mmq_match(instance),
            build_matching(rng.integers(-1, 5, n_ue), 5),  # both tiers and unmatched UEs
        ]
        for instance in instances
    ]
    per_policy = replace(links, **{f.name: getattr(links, f.name)[:, None] for f in fields(links)})
    rates = slot_averaged_rates(matchings, per_policy, slots[:, :, None], configs[0])
    rm = run_metrics(matchings, links, configs[0], rates)
    assert rates.shape == (3, 2, n_ue) and rm.loads.shape == (3, 2, 5)
    for r, (cfg, sc) in enumerate(zip(configs, scenarios)):
        run_links = realize_links(sc, rng_stream(cfg.seed, STREAM_LINKS))
        run_slots = draw_los_slots(sc, rng_stream(cfg.seed, STREAM_SLOTS), n_slots)
        for p, matching in enumerate(matchings[r]):
            want = oracle_slot_averaged_rates(matching, run_links, run_slots, cfg)
            assert np.array_equal(rates[r, p], want)
            one_run = slot_averaged_rates(matching, run_links, run_slots, cfg)
            assert np.array_equal(rates[r, p], one_run)
            one = run_metrics(matching, run_links, cfg, want)
            assert rm.delta_kappa[r, p] == one.delta_kappa
            assert rm.sum_rate_bps[r, p] == one.sum_rate_bps
            assert np.array_equal(rm.muw_rate_samples[2 * r + p], one.muw_rate_samples)


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
