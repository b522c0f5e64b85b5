import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellassoc.channel import LinkRealization, realize_links
from cellassoc.matching import verify
from cellassoc.policies import (
    PolicyConfig,
    UtilityTable,
    build_master_list,
    build_matching_instance,
    build_preferences,
    compute_utilities,
    max_rssi_policy,
    max_sinr_policy,
    mmq_policy,
    rssi_matrix_dbm,
    sinr_matrix_db,
)
from cellassoc.scenario import (
    PathLossParams,
    Scenario,
    ScenarioConfig,
    generate_scenario,
    rng_stream,
)

NEG_INF = float("-inf")


def make_links(se_los, se_nlos, se_muw):
    se_los = np.atleast_2d(np.asarray(se_los, float))
    return LinkRealization(
        los_state=np.zeros_like(se_los, dtype=bool),
        se_mmw_los=se_los,
        se_mmw_nlos=np.atleast_2d(np.asarray(se_nlos, float)),
        se_muw=np.atleast_2d(np.asarray(se_muw, float)),
    )


# --- utilities ---------------------------------------------------------------

def test_utility_pure_los():
    links = make_links([[8.0]], [[2.0]], [[1.0]])
    util = compute_utilities(links, [[1.0]])
    assert util.u[0, 0] == pytest.approx(math.log(8.0), rel=1e-12)


def test_utility_mixture():
    links = make_links([[8.0]], [[2.0]], [[1.0]])
    util = compute_utilities(links, [[0.5]])
    # 0.5*8 + 0.5*2 = 5; frozen natural log.
    assert util.u[0, 0] == pytest.approx(1.6094379124341003, rel=1e-6)


def test_utility_muw_unit_se_is_zero():
    links = make_links([[8.0]], [[2.0]], [[1.0]])
    util = compute_utilities(links, [[0.5]])
    assert util.u[0, 1] == 0.0


def test_zero_se_gives_minus_inf_not_crash():
    links = make_links([[0.0]], [[0.0]], [[1.0]])
    util = compute_utilities(links, [[0.3]])
    assert util.u[0, 0] == NEG_INF
    prefs, _ = build_preferences(util)
    assert prefs[0].tolist() == [1, 0]  # the dead mmW link ranks last


def test_utility_ml_is_row_max():
    links = make_links(
        [[8.0, 4.0]], [[2.0, 1.0]], [[1.5]]
    )
    util = compute_utilities(links, [[1.0, 1.0]])
    assert util.u_ml[0] == pytest.approx(util.u[0].max())


def test_utilities_validate_f():
    links = make_links([[8.0]], [[2.0]], [[1.0]])
    with pytest.raises(ValueError):
        compute_utilities(links, [[1.5]])
    with pytest.raises(ValueError):
        compute_utilities(links, [[0.2, 0.3]])


# --- preferences and master list ----------------------------------------------

def test_preferences_sorting():
    util = UtilityTable(u=np.array([[3.0, 1.0, 2.0]]), u_ml=np.array([3.0]), n_mmw=3)
    prefs, gated = build_preferences(util, NEG_INF)
    assert prefs[0].tolist() == [0, 2, 1]
    assert np.flatnonzero(gated[0]).tolist() == []


def test_gate_marks_weak_unpreferred_microwave():
    # All-microwave row: top choice immune, entries below 0.5 gated.
    util = UtilityTable(u=np.array([[3.0, 0.4, 0.6]]), u_ml=np.array([3.0]), n_mmw=0)
    prefs, gated = build_preferences(util, c_th=0.5)
    assert prefs[0].tolist() == [0, 2, 1]
    assert np.flatnonzero(gated[0]).tolist() == [1]


def test_gate_never_touches_mmw_or_top_choice():
    # Column 0 is mmW; column 1 is the microwave top choice.
    util = UtilityTable(
        u=np.array([[0.1, 0.3, 0.2], [0.3, 0.1, 0.2]]),
        u_ml=np.array([0.3, 0.3]),
        n_mmw=1,
    )
    _, gated = build_preferences(util, c_th=1.0)
    assert np.flatnonzero(gated[0]).tolist() == [2]  # not the mmW BS, not the top microwave
    assert np.flatnonzero(gated[1]).tolist() == [1, 2]


def test_tie_break_by_index():
    util = UtilityTable(u=np.array([[1.0, 1.0, 1.0]]), u_ml=np.array([1.0]), n_mmw=3)
    prefs, _ = build_preferences(util)
    assert prefs[0].tolist() == [0, 1, 2]


def test_master_list_order():
    util = UtilityTable(
        u=np.array([[5.0], [7.0], [6.0]]), u_ml=np.array([5.0, 7.0, 6.0]), n_mmw=1
    )
    assert build_master_list(util) == (1, 2, 0)


def test_master_list_ties_break_by_ue_index():
    util = UtilityTable(
        u=np.array([[1.0], [1.0], [1.0]]), u_ml=np.array([1.0, 1.0, 1.0]), n_mmw=1
    )
    assert build_master_list(util) == (0, 1, 2)


@given(
    scale=st.floats(min_value=0.01, max_value=50.0),
    shift=st.floats(min_value=-100.0, max_value=100.0),
)
@settings(max_examples=50, deadline=None)
def test_rankings_invariant_under_monotone_transform(scale, shift):
    rng = np.random.default_rng(31)
    u = rng.normal(size=(5, 4))
    base = UtilityTable(u=u, u_ml=u.max(axis=1), n_mmw=2)
    mapped_u = scale * u + shift
    mapped = UtilityTable(u=mapped_u, u_ml=mapped_u.max(axis=1), n_mmw=2)
    assert build_master_list(base) == build_master_list(mapped)
    assert np.array_equal(build_preferences(base)[0], build_preferences(mapped)[0])


# --- the quota-aware policy end to end ------------------------------------------

def test_mmq_policy_unconstrained_is_argmax():
    sc = generate_scenario(ScenarioConfig(n_ue=12, seed=3))
    links = realize_links(sc, rng_stream(3, 1))
    matching = mmq_policy(sc, links, sc.los_prob, PolicyConfig())
    util = compute_utilities(links, sc.los_prob)
    expected = [int(n) for n in np.argmax(util.u, axis=1)]
    assert list(matching.agent_to_host) == expected


def test_mmq_policy_counterexample_utilities():
    # Utilities picked so every UE ranks BS0 > BS1 > BS2 and the master list
    # is UE0 > UE1 > UE2; with minima of 1 the matcher must spread them out.
    u = np.array([[3.0, 2.0, 1.0], [2.9, 1.9, 0.9], [2.8, 1.8, 0.8]])
    util = UtilityTable(u=u, u_ml=u.max(axis=1), n_mmw=3)
    prefs, gated = build_preferences(util)
    master = build_master_list(util)
    from cellassoc.matching import MatchingInstance, mmq_match

    inst = MatchingInstance(
        n_agents=3, n_hosts=3, agent_prefs=prefs, master_list=master,
        q_min=(1, 1, 1), q_max=(2, 2, 2),
    )
    assert mmq_match(inst).host_to_agents == ((0,), (1,), (2,))


def test_mmq_policy_feasible_and_stable_on_random_scenarios():
    for seed in range(5):
        cfg = ScenarioConfig(n_ue=30, seed=seed)
        sc = generate_scenario(cfg)
        links = realize_links(sc, rng_stream(seed, 1))
        pol = PolicyConfig(q_min_mmw=1, q_min_muw=1)
        matching = mmq_policy(sc, links, sc.los_prob, pol)
        inst = build_matching_instance(sc, links, sc.los_prob, pol)
        report = verify(inst, matching, enumeration_budget=0)
        assert report.feasible
        assert report.blocking_pairs == ()


def test_pigeonhole_balance_quotas():
    cfg = ScenarioConfig(n_ue=50, seed=9)
    sc = generate_scenario(cfg)
    links = realize_links(sc, rng_stream(9, 1))
    n = cfg.n_bs
    pol = PolicyConfig(
        q_min_mmw=50 // n, q_min_muw=50 // n,
        q_max_mmw=-(-50 // n), q_max_muw=-(-50 // n),
    )
    matching = mmq_policy(sc, links, sc.los_prob, pol)
    loads = np.asarray(matching.loads)
    assert loads.max() - loads.min() <= 1


def test_quota_vectors_expansion():
    pol = PolicyConfig(q_min_mmw=1, q_min_muw=2, q_max_muw=5)
    q_min, q_max = pol.quota_vectors(n_mmw=2, n_muw=3, n_ue=40)
    assert q_min == (1, 1, 2, 2, 2)
    assert q_max == (40, 40, 5, 5, 5)


def test_policy_config_validation():
    with pytest.raises(ValueError):
        PolicyConfig(q_min_mmw=-1)
    with pytest.raises(ValueError):
        PolicyConfig(q_min_muw=3, q_max_muw=2)
    with pytest.raises(ValueError):
        PolicyConfig(bias_rssi_db=-5.0)


@pytest.mark.parametrize("name", ["c_th", "bias_rssi_db", "bias_sinr_db"])
def test_policy_config_rejects_nan(name):
    # A NaN bias sent every UE to one BS and a NaN gate silently gated nothing.
    with pytest.raises(ValueError):
        PolicyConfig(**{name: math.nan})


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("name", ["bias_rssi_db", "bias_sinr_db"])
def test_policy_config_rejects_non_finite_bias(name, value):
    # An infinite bias made every entry of the biased tier infinite, so the
    # argmax sent every UE to that tier's first BS.
    with pytest.raises(ValueError, match=f"^{name} must be a finite non-negative dB offset"):
        PolicyConfig(**{name: value})


def test_policy_config_accepts_infinite_gate():
    assert PolicyConfig(c_th=math.inf).c_th == math.inf
    assert PolicyConfig(c_th=-math.inf).c_th == -math.inf


# --- baselines -------------------------------------------------------------------

def co_located_scenario(rho: float) -> Scenario:
    """One mmW and one microwave BS at the origin, one UE 100 m away."""
    cfg = ScenarioConfig(n_mmw=1, n_muw=1, n_ue=1)
    return Scenario(
        config=cfg,
        mmw_positions=np.array([[0.0, 0.0]]),
        muw_positions=np.array([[0.0, 0.0]]),
        ue_positions=np.array([[100.0, 0.0]]),
        los_prob=np.array([[rho]]),
        shadow_mmw_los=np.zeros((1, 1)),
        shadow_mmw_nlos=np.zeros((1, 1)),
        shadow_muw=np.zeros((1, 1)),
    )


def test_max_rssi_prefers_microwave_without_bias():
    sc = co_located_scenario(rho=0.1)
    # Independent link budget: averaged linear attenuation for the mmW side.
    mean_loss = 0.1 * 10 ** (110.0 / 10.0) + 0.9 * 10 ** (150.0 / 10.0)
    rssi_mmw = 30.0 + 18.0 - 10.0 * math.log10(mean_loss)
    rssi_muw = 30.0 - 98.0
    mat = rssi_matrix_dbm(sc)
    assert mat[0, 0] == pytest.approx(rssi_mmw, rel=1e-9)
    assert mat[0, 1] == pytest.approx(rssi_muw, rel=1e-9)
    assert rssi_muw > rssi_mmw
    assert max_rssi_policy(sc, 0.0).agent_to_host == (1,)


def test_max_rssi_bias_pulls_ue_to_mmw():
    sc = co_located_scenario(rho=0.1)
    assert max_rssi_policy(sc, 60.0).agent_to_host == (0,)


def test_max_rssi_single_bs():
    cfg = ScenarioConfig(n_mmw=1, n_muw=1, n_ue=1)
    sc = Scenario(
        config=cfg,
        mmw_positions=np.zeros((0, 2)),
        muw_positions=np.array([[0.0, 0.0]]),
        ue_positions=np.array([[50.0, 0.0]]),
        los_prob=np.zeros((1, 0)),
        shadow_mmw_los=np.zeros((1, 0)),
        shadow_mmw_nlos=np.zeros((1, 0)),
        shadow_muw=np.zeros((1, 1)),
    )
    assert max_rssi_policy(sc).agent_to_host == (0,)
    assert max_sinr_policy(sc).agent_to_host == (0,)


def ring_scenario(rho: float) -> Scenario:
    """Ten microwave BSs on a 100 m ring around the UE, one mmW BS at 100 m."""
    cfg = ScenarioConfig(n_mmw=1, n_muw=10, n_ue=1)
    angles = 2 * np.pi * np.arange(10) / 10
    return Scenario(
        config=cfg,
        mmw_positions=np.array([[100.0, 0.0]]),
        muw_positions=100.0 * np.column_stack([np.cos(angles), np.sin(angles)]),
        ue_positions=np.array([[0.0, 0.0]]),
        los_prob=np.array([[rho]]),
        shadow_mmw_los=np.zeros((1, 1)),
        shadow_mmw_nlos=np.zeros((1, 1)),
        shadow_muw=np.zeros((1, 10)),
    )


def test_max_sinr_interference_pushes_ue_to_mmw():
    sc = ring_scenario(rho=1.0)
    mat = sinr_matrix_db(sc)
    # mmW SNR: 30+18-110 over noise in 1 GHz (-84 dBm) = 22 dB.
    assert mat[0, 0] == pytest.approx(22.0, rel=1e-9)
    # Nine equal interferers: SINR just below 1/9 (frozen -9.5425 dB).
    assert mat[0, 1] == pytest.approx(-9.542546303636945, rel=1e-3)
    assert max_sinr_policy(sc, 0.0).agent_to_host == (0,)


def test_max_sinr_isolated_microwave_wins():
    sc = co_located_scenario(rho=1.0)
    mat = sinr_matrix_db(sc)
    assert mat[0, 1] == pytest.approx(36.0, rel=1e-9)  # 30-98 over -104 dBm noise
    assert max_sinr_policy(sc, 0.0).agent_to_host == (1,)


def test_max_sinr_huge_bias_sends_everyone_to_microwave():
    sc = generate_scenario(ScenarioConfig(n_ue=20, seed=4))
    matching = max_sinr_policy(sc, 500.0)
    assert all(h >= sc.n_mmw for h in matching.agent_to_host)


@pytest.mark.parametrize("policy", [max_rssi_policy, max_sinr_policy])
def test_baselines_reject_non_finite_bias(policy):
    sc = generate_scenario(ScenarioConfig(n_ue=20, seed=4))
    for bias in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="CRE biases must be finite"):
            policy(sc, bias)


def test_baselines_assign_every_ue():
    sc = generate_scenario(ScenarioConfig(n_ue=33, seed=8))
    for matching in (max_rssi_policy(sc, 20.0), max_sinr_policy(sc, 6.0)):
        assert sum(matching.loads) == 33
