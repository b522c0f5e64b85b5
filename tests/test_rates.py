"""The vectorised rate code against the per-UE, per-slot loop oracle, bit for bit."""

import numpy as np
import pytest

from cellassoc.channel import LinkRealization, draw_los_slots, realize_links
from cellassoc.matching import build_matching
from cellassoc.metrics import achievable_rates, slot_averaged_rates
from cellassoc.policies import PolicyConfig, mmq_policy
from cellassoc.scenario import ScenarioConfig, generate_scenario, rng_stream
from helpers import oracle_slot_averaged_rates


def assert_rates_match_oracle(matching, links, slots, cfg):
    assert np.array_equal(
        slot_averaged_rates(matching, links, slots, cfg),
        oracle_slot_averaged_rates(matching, links, slots, cfg),
    )
    assert np.array_equal(
        achievable_rates(matching, links, cfg),
        oracle_slot_averaged_rates(matching, links, links.los_state[None], cfg),
    )


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
    slots = draw_los_slots(sc, rng_stream(seed, 3), n_slots)

    # Both tiers and unmatched UEs: UE 0 unmatched, UE 1 on mmW, UE 2 on microwave.
    assignment = [
        -1 if rng.random() < 0.3 else int(rng.integers(cfg.n_bs)) for _ in range(cfg.n_ue)
    ]
    assignment[:3] = [-1, 0, cfg.n_mmw]
    matching = build_matching(assignment, cfg.n_bs)
    assert_rates_match_oracle(matching, links, slots, cfg)
    assert slot_averaged_rates(matching, links, slots, cfg)[0] == 0.0

    policy = PolicyConfig(q_min_muw=int(cfg.n_ue >= cfg.n_muw))
    assert_rates_match_oracle(mmq_policy(sc, links, sc.los_prob, policy), links, slots, cfg)


@pytest.mark.parametrize("n_slots", [1, 7])
def test_rates_match_loop_oracle_without_mmw_tier(n_slots):
    rng = np.random.default_rng(5)
    m, n_muw = 9, 3
    links = LinkRealization(
        los_state=np.zeros((m, 0), dtype=bool),
        se_mmw_los=np.zeros((m, 0)),
        se_mmw_nlos=np.zeros((m, 0)),
        se_muw=rng.uniform(0.1, 5.0, size=(m, n_muw)),
    )
    slots = np.zeros((n_slots, m, 0), dtype=bool)
    assignment = [-1, 0, 1, 2, 2, -1, 1, 0, 0]
    assert_rates_match_oracle(build_matching(assignment, n_muw), links, slots, ScenarioConfig())

