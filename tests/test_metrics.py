import math

import numpy as np
import pytest

from cellassoc.channel import LinkRealization, draw_los_slots, realize_links
from cellassoc.experiments import optimal_min_quota_sweep
from cellassoc.matching import build_matching
from cellassoc.metrics import (
    max_load_difference,
    percentile,
    rate_cdf,
    run_metrics,
    served_links,
    slot_averaged_rates,
)
from cellassoc.policies import PolicyConfig, mmq_policy
from cellassoc.scenario import ScenarioConfig, generate_scenario
from helpers import oracle_slot_averaged_rates


def make_links(se_los, se_nlos, se_muw):
    return LinkRealization(
        se_mmw_los=np.atleast_2d(np.asarray(se_los, float)),
        se_mmw_nlos=np.atleast_2d(np.asarray(se_nlos, float)),
        se_muw=np.atleast_2d(np.asarray(se_muw, float)),
    )


def one_slot_rates(matching, links, los_state=None, cfg=ScenarioConfig()):
    """The rates of one slot in ``los_state`` (all NLoS by default), as a
    one-slot stack, checked against the loop oracle."""
    if los_state is None:
        los_state = np.zeros_like(links.se_mmw_los, dtype=bool)
    slots = np.atleast_2d(np.asarray(los_state, bool))[None]
    rates = slot_averaged_rates(served_links(matching, links), slots, cfg)
    assert np.array_equal(rates, oracle_slot_averaged_rates(matching, links, slots, cfg))
    return rates


def test_load_vector_counts():
    m = build_matching([0, 0, 1], 2)
    assert list(m.loads) == [2, 1]


def test_load_vector_empty():
    m = build_matching([], 3)
    assert list(m.loads) == [0, 0, 0]


def test_loads_partition_random_matching():
    rng = np.random.default_rng(3)
    assignment = [int(h) for h in rng.integers(0, 7, size=40)]
    m = build_matching(assignment, 7)
    assert sum(m.loads) == 40


def test_max_load_difference():
    assert max_load_difference([4, 4, 4]) == 0
    assert max_load_difference([5, 1, 3]) == 4
    with pytest.raises(ValueError):
        max_load_difference([])


def test_rates_single_ue_on_mmw():
    # 1 GHz times the LoS spectral efficiency, frozen from the link budget.
    se = 7.317316001936548
    links = make_links([[se]], [[1.0]], [[1.0]])
    m = build_matching([0], 2)
    rates = one_slot_rates(m, links, [[True]])
    assert rates[0] == pytest.approx(se * 1e9, rel=1e-9)


def test_rates_use_realized_los_state():
    links = make_links([[8.0]], [[2.0]], [[1.0]])
    m = build_matching([0], 2)
    rates = one_slot_rates(m, links, [[False]])
    assert rates[0] == pytest.approx(2.0e9)


def test_rates_equal_split():
    links = make_links([[4.0], [4.0]], [[1.0], [1.0]], [[1.0], [1.0]])
    solo = one_slot_rates(build_matching([0, 1], 2), links, [[True], [True]])
    shared = one_slot_rates(build_matching([0, 0], 2), links, [[True], [True]])
    assert shared[0] == pytest.approx(solo[0] / 2)
    assert shared[1] == pytest.approx(shared[0])


def test_rates_microwave_alone():
    links = make_links([[4.0]], [[1.0]], [[1.0]])
    m = build_matching([1], 2)  # the single microwave BS
    rates = one_slot_rates(m, links)
    assert rates[0] == pytest.approx(10e6)


def test_sum_rate_accounting_invariant():
    # Sum over UEs must equal the per-BS bandwidth-split accounting.
    cfg = ScenarioConfig(n_ue=24, seed=14)
    sc = generate_scenario(cfg)
    links = realize_links(sc, None)
    m = mmq_policy(sc, links, sc.los_prob, PolicyConfig(q_min_muw=1))
    (los_state,) = draw_los_slots(sc, 1)
    rates = one_slot_rates(m, links, los_state, cfg)
    per_bs = 0.0
    for bs, agents in enumerate(m.host_to_agents):
        if not agents:
            continue
        if bs < sc.n_mmw:
            ses = [
                links.se_mmw_los[a, bs] if los_state[a, bs] else links.se_mmw_nlos[a, bs]
                for a in agents
            ]
            per_bs += cfg.bandwidth_mmw_hz * sum(ses) / len(agents)
        else:
            ses = [links.se_muw[a, bs - sc.n_mmw] for a in agents]
            per_bs += cfg.bandwidth_muw_hz * sum(ses) / len(agents)
    assert rates.sum() == pytest.approx(per_bs, rel=1e-9)


def test_slot_averaging_matches_manual_mean():
    cfg = ScenarioConfig(n_ue=5, seed=6)
    sc = generate_scenario(cfg)
    links = realize_links(sc, None)
    m = mmq_policy(sc, links, sc.los_prob, PolicyConfig())
    slots = draw_los_slots(sc, 7)
    avg = slot_averaged_rates(served_links(m, links), slots, cfg)
    manual = np.mean([one_slot_rates(m, links, s, cfg) for s in slots], axis=0)
    assert np.allclose(avg, manual)


def test_run_metrics_bundle():
    links = make_links([[8.0], [8.0]], [[2.0], [2.0]], [[1.0], [1.0]])
    m = build_matching([0, 1], 2)
    rm = run_metrics(served_links(m, links), one_slot_rates(m, links, [[True], [True]]))
    assert rm.delta_kappa == 0
    assert rm.sum_rate_bps == pytest.approx(8.0e9 + 10e6)
    assert rm.muw_rate_samples.tolist() == [10e6]


def test_rate_cdf_basics():
    xs, cdf = rate_cdf([5.0])
    assert xs.tolist() == [5.0] and cdf.tolist() == [1.0]
    xs, cdf = rate_cdf([3.0, 1.0, 2.0])
    assert xs.tolist() == [1.0, 2.0, 3.0]
    assert cdf[1] == pytest.approx(2.0 / 3.0)
    with pytest.raises(ValueError):
        rate_cdf([])


def test_rate_cdf_against_exponential():
    rng = np.random.default_rng(1)
    samples = rng.exponential(1.0, size=10_000)
    xs, cdf = rate_cdf(samples)
    truth = 1.0 - np.exp(-xs)
    # Two-sided KS distance of the empirical step function.
    n = xs.size
    d_plus = np.max(cdf - truth)
    d_minus = np.max(truth - (cdf - 1.0 / n))
    assert max(d_plus, d_minus) < 0.02


def _percentile_samples(rng):
    """1-D and stacked (R, P, M) samples with ties, +-inf, nan and 1e+-300 magnitudes."""
    for n in [*range(1, 81), 5000]:
        yield rng.normal(size=n)
        yield rng.integers(0, 3, size=n).astype(float)  # ties
        x = rng.normal(size=(4, 3, n)) * 10.0 ** rng.choice([-300, 0, 300], size=(4, 3, n))
        x[0, 0, rng.integers(n)] = np.inf
        x[0, 1, rng.integers(n)] = -np.inf
        x[0, 2] = np.inf
        x[1, 0, rng.integers(n)] = np.nan
        x[1, 1] = np.nan
        x[1, 2] = -np.inf
        x[2, :, :2] = [-np.inf, np.inf][:n]
        x[3] = rng.integers(-2, 3, size=(3, n)) * 1e300  # ties among huge values
        yield x


@pytest.mark.parametrize("q", [0, 5, 33.3, 50, 95, 100])
def test_percentile_matches_numpy(q):
    for x in _percentile_samples(np.random.default_rng(int(q * 10))):
        with np.errstate(invalid="ignore"):  # numpy warns at inf - inf; the helper does not
            want = np.percentile(x, q, axis=-1)
        got = percentile(x, q)
        assert np.shape(got) == np.shape(want)
        assert np.array_equal(got, want, equal_nan=True), (q, x.shape)


@pytest.mark.parametrize("q", [-10, 150, math.nan, -1e-300, 100.5])
def test_percentile_refuses_q_outside_0_100_as_numpy_does(q):
    x = np.arange(5.0)
    with pytest.raises(ValueError, match=r"^Percentiles must be in the range \[0, 100\]$"):
        np.percentile(x, q)
    with pytest.raises(ValueError, match=r"^Percentiles must be in the range \[0, 100\]$"):
        percentile(x, q)


def test_quota_sweep_zero_candidates():
    rows = optimal_min_quota_sweep(
        ScenarioConfig(n_mmw=2, n_muw=2, seed=2), [8], [0], n_runs=3, n_slots=2
    )
    assert rows[0]["q_star"] == 0


def test_quota_sweep_skips_infeasible_candidate():
    with pytest.warns(UserWarning, match="skipping"):
        rows = optimal_min_quota_sweep(
            ScenarioConfig(n_mmw=2, n_muw=2, seed=2), [4], [0, 1, 5],
            n_runs=2, n_slots=2,
        )
    assert set(rows[0]["mean_sum_rate_bps"]) == {0, 1}
