"""The vectorised rate code against the per-UE, per-slot loop oracle, bit for bit."""

import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from cellassoc.channel import LinkRealization, draw_los_slots, realize_links
from cellassoc.matching import build_matching
from cellassoc.metrics import run_metrics, served_links, slot_averaged_rates
from cellassoc.policies import PolicyConfig, mmq_policy
from cellassoc.scenario import ScenarioConfig, generate_scenario, rng_stream
from helpers import oracle_slot_averaged_rates


def rates_of(matching, links, slots, cfg):
    return slot_averaged_rates(served_links(matching, links), slots, cfg)


def assert_rates_match_oracle(matching, links, slots, cfg):
    # The whole stack, and its first slot alone as a one-slot stack, bit for bit.
    for stack in (slots, slots[:1]):
        want = oracle_slot_averaged_rates(matching, links, stack, cfg)
        assert rates_of(matching, links, stack, cfg).tobytes() == want.tobytes()


@pytest.mark.parametrize("n_slots", [1, 7])
@pytest.mark.parametrize("seed", range(8))
def test_rates_match_loop_oracle_on_random_scenarios(seed, n_slots):
    rng = np.random.default_rng(seed)
    cfg = ScenarioConfig(
        n_mmw=int(rng.integers(1, 6)),
        n_muw=int(rng.integers(1, 6)),
        n_ue=int(rng.integers(3, 40)),
        seed=seed,
    )
    sc = generate_scenario(cfg)
    links = realize_links(sc, rng_stream(seed, 1))
    slots = draw_los_slots(sc, n_slots)

    # Both tiers and unmatched UEs: UE 0 unmatched, UE 1 on mmW, UE 2 on microwave.
    assignment = [
        -1 if rng.random() < 0.3 else int(rng.integers(cfg.n_bs)) for _ in range(cfg.n_ue)
    ]
    assignment[:3] = [-1, 0, cfg.n_mmw]
    matching = build_matching(assignment, cfg.n_bs)
    assert_rates_match_oracle(matching, links, slots, cfg)
    assert rates_of(matching, links, slots, cfg)[0] == 0.0

    policy = PolicyConfig(q_min_muw=int(cfg.n_ue >= cfg.n_muw))
    assert_rates_match_oracle(mmq_policy(sc, links, sc.los_prob, policy), links, slots, cfg)


@pytest.mark.parametrize("n_slots", [1, 7])
def test_rates_match_loop_oracle_without_mmw_tier(n_slots):
    rng = np.random.default_rng(5)
    m, n_muw = 9, 3
    links = LinkRealization(
        se_mmw_los=np.zeros((m, 0)),
        se_mmw_nlos=np.zeros((m, 0)),
        se_muw=rng.uniform(0.1, 5.0, size=(m, n_muw)),
    )
    slots = np.zeros((n_slots, m, 0), dtype=bool)
    assignment = [-1, 0, 1, 2, 2, -1, 1, 0, 0]
    assert_rates_match_oracle(build_matching(assignment, n_muw), links, slots, ScenarioConfig())


def random_stacked_links(rng, n_runs, n_ue, n_mmw, n_muw):
    """(R, M, N) links of random spectral efficiencies."""
    return LinkRealization(
        se_mmw_los=rng.uniform(1.0, 9.0, size=(n_runs, n_ue, n_mmw)),
        se_mmw_nlos=rng.uniform(0.1, 1.0, size=(n_runs, n_ue, n_mmw)),
        se_muw=rng.uniform(0.1, 5.0, size=(n_runs, n_ue, n_muw)),
    )


@pytest.mark.parametrize("n_slots", [1, 9])
@pytest.mark.parametrize("n_ue", [1, 9])
@pytest.mark.parametrize("n_mmw", [0, 3])
def test_stacked_rates_match_loop_oracle_row_by_row(n_mmw, n_ue, n_slots):
    # (R, P, M) assignments with (R, M, N) links and (S, R, M, N1) slots, each row
    # against the oracle on its run's links and slots, with unmatched UEs and,
    # at n_mmw = 0, no mmW tier. A load of 9 makes the bandwidth share inexact.
    rng = np.random.default_rng([n_mmw, n_ue, n_slots])
    n_runs, n_bs = 3, n_mmw + 2
    links = random_stacked_links(rng, n_runs, n_ue, n_mmw, 2)
    slots = rng.random((n_slots, n_runs, n_ue, n_mmw)) < 0.6
    hosts = rng.integers(-1, n_bs, size=(n_runs, 4, n_ue))
    hosts[:, 0] = -1  # policy 0 leaves every UE unmatched
    hosts[:, 1] = n_bs - 1  # policy 1 puts every UE on one microwave BS
    cfg = ScenarioConfig()
    rates = rates_of(build_matching(hosts, n_bs), links, slots, cfg)
    assert rates.shape == hosts.shape
    for r, p in np.ndindex(hosts.shape[:2]):
        run_links = LinkRealization(
            se_mmw_los=links.se_mmw_los[r],
            se_mmw_nlos=links.se_mmw_nlos[r],
            se_muw=links.se_muw[r],
        )
        want = oracle_slot_averaged_rates(
            build_matching(hosts[r, p], n_bs), run_links, slots[:, r], cfg
        )
        assert np.array_equal(rates[r, p], want), (r, p)


@pytest.mark.parametrize("lead", [(), (3,)], ids=["one run", "stacked"])
@pytest.mark.parametrize("n_mmw", [0, 3])
def test_served_links_hold_each_ues_host_efficiencies(n_mmw, lead):
    # The driver gathers these right after the matchers and releases the links: a mmW
    # host's LoS and NLoS SE, a microwave host's SE, nothing for an unmatched UE.
    # Links without a run axis broadcast over (P, M) hosts; stacked ones over (R, P, M).
    rng = np.random.default_rng(n_mmw)
    n_ue, n_bs = 7, n_mmw + 2
    links = random_stacked_links(rng, 3, n_ue, n_mmw, 2)
    if not lead:
        links = LinkRealization(links.se_mmw_los[0], links.se_mmw_nlos[0], links.se_muw[0])
    hosts = rng.integers(-1, n_bs, size=lead + (4, n_ue))
    matching = build_matching(hosts, n_bs)
    served = served_links(matching, links)
    assert served.matching is matching and served.n_mmw == links.n_mmw == n_mmw
    got = {}
    for i, at in enumerate(zip(*served.mmw)):
        got[at[:-1]] = (at[-1], served.se_los[i], served.se_nlos[i])
    for i, at in enumerate(zip(*served.muw)):
        got[at[:-1]] = (at[-1], served.se_muw[i])
    for at in np.ndindex(hosts.shape):
        run, ue, host = at[: len(lead)], at[-1], hosts[at]
        if host < 0:
            assert at not in got
        elif host < n_mmw:
            cell = run + (ue, host)
            assert got[at] == (host, links.se_mmw_los[cell], links.se_mmw_nlos[cell])
        else:
            assert got[at] == (host, links.se_muw[run + (ue, host - n_mmw)])
    slots = rng.random((5,) + lead + (n_ue, n_mmw)) < 0.5
    rates = slot_averaged_rates(served, slots, ScenarioConfig())
    samples = run_metrics(served, rates).muw_rate_samples
    assert samples.tobytes() == rates[hosts >= n_mmw].tobytes()


def fitting_links(n_ue=3, n_muw=1):
    """Links of ``n_ue`` UEs, 2 mmW and ``n_muw`` microwave BSs, and a (4, 3, 2) slot
    stack: by default both fit ``Matching([0, 1, 2], 3)``."""
    stacked = random_stacked_links(np.random.default_rng([n_ue, n_muw]), 1, n_ue, 2, n_muw)
    links = LinkRealization(stacked.se_mmw_los[0], stacked.se_mmw_nlos[0], stacked.se_muw[0])
    return links, np.ones((4, 3, 2), dtype=bool)


@pytest.mark.parametrize("field", ["se_mmw_los", "se_mmw_nlos", "se_muw", None])
def test_served_links_refuse_links_of_another_ue_count(field):
    # Links of a 5-UE drop do not fit a 3-UE matching, nor do links whose arrays
    # disagree on M, though indexing would read the first 3 rows of the longer ones.
    links, _ = fitting_links(n_ue=5)
    if field is not None:
        fit, _ = fitting_links()
        links = replace(fit, **{field: getattr(links, field)})
    want = [5 if field in (name, None) else 3 for name in ("se_mmw_los", "se_mmw_nlos", "se_muw")]
    with pytest.raises(ValueError, match=rf"M = \[{', '.join(map(str, want))}\] .* M = 3 "):
        served_links(build_matching([0, 1, 2], 3), links)


def test_served_links_refuse_links_of_another_bs_count():
    # Links with N1 + N2 = 4 do not fit a 3-host matching.
    links, _ = fitting_links(n_muw=2)
    with pytest.raises(ValueError, match=r"N1 \+ N2 = 4 .* 3 hosts"):
        served_links(build_matching([0, 1, 2], 3), links)


@pytest.mark.parametrize("shape", [(4, 3, 3), (4, 5, 2), (3, 2)])
def test_rates_refuse_a_slot_stack_of_another_shape(shape):
    # (4, 3, 3) and (4, 5, 2) stacks do not fit (M, N1) = (3, 2), though indexing
    # would read them; a (3, 2) array is one slot without its stack axis.
    links, slots = fitting_links()
    served = served_links(build_matching([0, 1, 2], 3), links)
    assert (slot_averaged_rates(served, slots, ScenarioConfig()) > 0).all()
    with pytest.raises(ValueError, match=rf"shape \({shape[0]}, .* \(M, N1\) = \(3, 2\)"):
        slot_averaged_rates(served, np.ones(shape, dtype=bool), ScenarioConfig())


def test_rates_refuse_a_stack_of_no_slot():
    # No slot gives no average (S = 0 divides), and draw_los_slots refuses to draw it.
    links, slots = fitting_links()
    served = served_links(build_matching([0, 1, 2], 3), links)
    with pytest.raises(ValueError, match=r"shape \(0, 3, 2\) is not \(S >= 1"):
        slot_averaged_rates(served, slots[:0], ScenarioConfig())


def test_rates_build_no_slot_stack_scratch():
    # At fig7's batch shape the call peaks below two (S, R, P, M) float64 arrays,
    # so no scratch array of that shape (a zero-filled slot stack) fits in it
    # beside the per-slot terms of the served entries.
    n_slots, n_runs, n_policies, n_ue, n_mmw, n_muw = 10, 16, 3, 100, 10, 10
    rng = np.random.default_rng(7)
    links = random_stacked_links(rng, n_runs, n_ue, n_mmw, n_muw)
    slots = rng.random((n_slots, n_runs, n_ue, n_mmw)) < 0.6
    hosts = rng.integers(-1, n_mmw + n_muw, size=(n_runs, n_policies, n_ue))
    served, cfg = served_links(build_matching(hosts, n_mmw + n_muw), links), ScenarioConfig()
    slot_averaged_rates(served, slots, cfg)  # lazy set-up stays out of the peak
    tracemalloc.start()
    try:
        slot_averaged_rates(served, slots, cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * n_slots * hosts.size * 8
