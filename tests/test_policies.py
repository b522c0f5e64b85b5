import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellassoc.channel import LinkRealization, link_budget, realize_links
from cellassoc.matching import build_matching, verify
from cellassoc.policies import (
    PolicyConfig,
    build_master_list,
    build_matching_instance,
    build_preferences,
    compute_utilities,
    cre_association,
    mmq_policy,
    rssi_matrix_dbm,
    sinr_matrix_db,
)
from cellassoc.scenario import Scenario, ScenarioConfig, generate_scenario
from helpers import oracle_best_bias, oracle_build_preferences

NEG_INF = float("-inf")


def make_links(se_los, se_nlos, se_muw):
    return LinkRealization(
        se_mmw_los=np.atleast_2d(np.asarray(se_los, float)),
        se_mmw_nlos=np.atleast_2d(np.asarray(se_nlos, float)),
        se_muw=np.atleast_2d(np.asarray(se_muw, float)),
    )


# --- utilities ---------------------------------------------------------------

def test_utility_pure_los():
    links = make_links([[8.0]], [[2.0]], [[1.0]])
    u = compute_utilities(links, [[1.0]])
    assert u[0, 0] == pytest.approx(math.log(8.0), rel=1e-12)


def test_utility_mixture():
    links = make_links([[8.0]], [[2.0]], [[1.0]])
    u = compute_utilities(links, [[0.5]])
    # 0.5*8 + 0.5*2 = 5; frozen natural log.
    assert u[0, 0] == pytest.approx(1.6094379124341003, rel=1e-6)


def test_utility_muw_unit_se_is_zero():
    links = make_links([[8.0]], [[2.0]], [[1.0]])
    u = compute_utilities(links, [[0.5]])
    assert u[0, 1] == 0.0


def test_zero_se_gives_minus_inf_not_crash():
    links = make_links([[0.0]], [[0.0]], [[1.0]])
    u = compute_utilities(links, [[0.3]])
    assert u[0, 0] == NEG_INF
    prefs, _ = build_preferences(u, links.n_mmw)
    assert prefs[0].tolist() == [1, 0]  # the dead mmW link ranks last


def test_utility_ml_is_row_max():
    # The master list ranks UEs by their best utility, whichever tier holds it.
    links = make_links(
        [[3.0, 1.0], [1.0, 2.0], [4.0, 1.0]], [[1.0, 1.0]] * 3, [[1.5], [8.0], [2.5]]
    )
    u = compute_utilities(links, [[1.0, 1.0]] * 3)
    assert isinstance(u, np.ndarray) and u.shape == (3, 3)
    assert build_master_list(u).tolist() == [1, 2, 0]  # best SEs 3, 8 (microwave), 4


def test_utilities_validate_f():
    links = make_links([[8.0]], [[2.0]], [[1.0]])
    with pytest.raises(ValueError):
        compute_utilities(links, [[1.5]])
    with pytest.raises(ValueError):
        compute_utilities(links, [[0.2, 0.3]])


@pytest.mark.parametrize("f", [[[0.5, math.nan]], [[math.nan, math.nan]]])
def test_utilities_reject_nan_estimates(f):
    # A NaN estimate passed the range test and gave a NaN utility.
    links = make_links([[8.0, 4.0]], [[2.0, 1.0]], [[1.0]])
    with pytest.raises(ValueError, match=r"LoS estimates must lie in \[0, 1\]"):
        compute_utilities(links, f)


# --- preferences and master list ----------------------------------------------

def test_preferences_sorting():
    prefs, gated = build_preferences(np.array([[3.0, 1.0, 2.0]]), 3, NEG_INF)
    assert prefs[0].tolist() == [0, 2, 1]
    assert np.flatnonzero(gated[0]).tolist() == []


def test_gate_marks_weak_unpreferred_microwave():
    # All-microwave row: top choice immune, entries below 0.5 gated.
    prefs, gated = build_preferences(np.array([[3.0, 0.4, 0.6]]), 0, c_th=0.5)
    assert prefs[0].tolist() == [0, 2, 1]
    assert np.flatnonzero(gated[0]).tolist() == [1]


def test_gate_never_touches_mmw_or_top_choice():
    # Column 0 is mmW; column 1 is the microwave top choice.
    u = np.array([[0.1, 0.3, 0.2], [0.3, 0.1, 0.2]])
    _, gated = build_preferences(u, 1, c_th=1.0)
    assert np.flatnonzero(gated[0]).tolist() == [2]  # not the mmW BS, not the top microwave
    assert np.flatnonzero(gated[1]).tolist() == [1, 2]


def test_tie_break_by_index():
    prefs, _ = build_preferences(np.array([[1.0, 1.0, 1.0]]), 3)
    assert prefs[0].tolist() == [0, 1, 2]


def _tied_rows(rng, m, n):
    # Rows of every kind the guarded sort must get right, shuffled together.
    one = np.nextafter(1.0, 2.0)
    special = np.array([0.0, -0.0, -np.inf, np.inf, np.nan, 1.0, one, np.nextafter(1.0, 0.0)])
    ulps = 1.0 + np.finfo(float).eps * np.arange(n)  # distinct, each 1 ulp from the next
    rows = np.concatenate([
        rng.integers(0, 3, (m, n)).astype(float),  # equal finite values
        rng.choice(special, (m, n)),  # +-0.0, +-inf pairs, NaN and 1-ulp neighbours
        rng.choice(special[:4], (m, n)),  # +-0.0 and +-inf only, no NaN
        np.where(rng.random((m, n)) < 0.3, -np.inf, rng.normal(size=(m, n))),  # -inf pairs
        np.where(rng.random((m, n)) < 0.3, np.nan, rng.normal(size=(m, n))),  # NaN pairs
        rng.permuted(np.tile(ulps, (m, 1)), axis=-1),  # no tie, 1 ulp apart
        rng.normal(size=(m, n)),  # no tie
    ])
    return rng.permutation(rows)


@pytest.mark.parametrize("n", [8, 20, 64, 200])
def test_preferences_equal_the_stable_argsort_on_ties(n):
    # Short rows can come out of the default argsort in stable order anyway,
    # depending on the host's sort kernel, and so may not show a missing tie
    # guard; rows of 8 BSs or more do.
    rng = np.random.default_rng(n)
    u = _tied_rows(rng, 40, n)
    before = u.copy()
    for table in (u, u.reshape(4, 70, n)):  # one table and an (R, M, N) stack
        prefs, _ = build_preferences(table, 0)
        assert prefs.shape == table.shape
        assert (prefs == oracle_build_preferences(table)).all()
    np.testing.assert_array_equal(u, before)  # the utilities are not sorted in place


@pytest.mark.parametrize("shape", [(0, 5), (5, 0), (0, 0), (3, 0, 5), (3, 4, 0), (3, 0, 0)])
def test_preferences_of_empty_tables(shape):
    u = np.zeros(shape)
    prefs, gated = build_preferences(u, 0, c_th=0.5)
    assert prefs.shape == gated.shape == shape
    assert (prefs == oracle_build_preferences(u)).all()


def test_master_list_order():
    assert build_master_list(np.array([[5.0], [7.0], [6.0]])).tolist() == [1, 2, 0]
    # A UE without a BS has best utility -inf and ranks last, ties toward the lower index.
    assert build_master_list(np.zeros((3, 0))).tolist() == [0, 1, 2]
    assert build_master_list(np.zeros((2, 3, 0))).tolist() == [[0, 1, 2]] * 2


def test_master_list_ties_break_by_ue_index():
    assert build_master_list(np.array([[1.0], [1.0], [1.0]])).tolist() == [0, 1, 2]


@given(
    scale=st.floats(min_value=0.01, max_value=50.0),
    shift=st.floats(min_value=-100.0, max_value=100.0),
)
@settings(max_examples=50, deadline=None)
def test_rankings_invariant_under_monotone_transform(scale, shift):
    rng = np.random.default_rng(31)
    u = rng.normal(size=(5, 4))
    mapped = scale * u + shift
    assert np.array_equal(build_master_list(u), build_master_list(mapped))
    assert np.array_equal(build_preferences(u, 2)[0], build_preferences(mapped, 2)[0])


# --- the quota-aware policy end to end ------------------------------------------

def test_mmq_policy_unconstrained_is_argmax():
    sc = generate_scenario(ScenarioConfig(n_ue=12, seed=3))
    links = realize_links(sc, None)
    matching = mmq_policy(sc, links, sc.los_prob, PolicyConfig())
    u = compute_utilities(links, sc.los_prob)
    expected = [int(n) for n in np.argmax(u, axis=1)]
    assert list(matching.agent_to_host) == expected


def test_mmq_policy_counterexample_utilities():
    # Utilities picked so every UE ranks BS0 > BS1 > BS2 and the master list
    # is UE0 > UE1 > UE2; with minima of 1 the matcher must spread them out.
    u = np.array([[3.0, 2.0, 1.0], [2.9, 1.9, 0.9], [2.8, 1.8, 0.8]])
    prefs, gated = build_preferences(u, 3)
    master = build_master_list(u)
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
        links = realize_links(sc, None)
        pol = PolicyConfig(q_min_mmw=1, q_min_muw=1)
        matching = mmq_policy(sc, links, sc.los_prob, pol)
        inst = build_matching_instance(sc, links, sc.los_prob, pol)
        report = verify(inst, matching)
        assert report.feasible
        assert report.blocking_pairs == ()


def test_pigeonhole_balance_quotas():
    cfg = ScenarioConfig(n_ue=50, seed=9)
    sc = generate_scenario(cfg)
    links = realize_links(sc, None)
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


@pytest.mark.parametrize("name", ["q_min_mmw", "q_min_muw", "q_max_mmw", "q_max_muw"])
def test_policy_config_rejects_fractional_quotas(name):
    # A fractional quota ran truncated while every CSV row reported the fraction.
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got 2.5$"):
        PolicyConfig(**{name: 2.5})
    assert getattr(PolicyConfig(**{name: np.int64(3)}), name) == 3
    if name.startswith("q_min"):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got None$"):
            PolicyConfig(**{name: None})


@pytest.mark.parametrize("name", ["q_min_mmw", "q_min_muw", "q_max_mmw", "q_max_muw"])
def test_policy_config_rejects_bool_quotas(name):
    # A bool quota would run as 0 or 1 while the CSV's quota column said True.
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got True$"):
        PolicyConfig(**{name: True})


@pytest.mark.parametrize("value", [True, np.True_], ids=["True", "np.True_"])
@pytest.mark.parametrize("name", ["c_th", "bias_rssi_db", "bias_sinr_db"])
def test_policy_config_rejects_bool_gate_and_biases(name, value):
    with pytest.raises(ValueError, match=f"^{name} must be a number, got {value!r}$"):
        PolicyConfig(**{name: value})


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

def baseline(name: str, sc: Scenario, bias_db: float = 0.0):
    """Baseline ``name``'s matching at one CRE bias: the one-entry bias grid."""
    metric = (rssi_matrix_dbm if name == "max_rssi" else sinr_matrix_db)(sc, link_budget(sc))
    _, choice = cre_association(name, metric, sc.n_mmw, (bias_db,))
    return build_matching(choice, sc.n_mmw + sc.n_muw)


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
    mat = rssi_matrix_dbm(sc, link_budget(sc))
    assert mat[0, 0] == pytest.approx(rssi_mmw, rel=1e-9)
    assert mat[0, 1] == pytest.approx(rssi_muw, rel=1e-9)
    assert rssi_muw > rssi_mmw
    assert baseline("max_rssi", sc, 0.0).agent_to_host == (1,)


def test_max_rssi_bias_pulls_ue_to_mmw():
    sc = co_located_scenario(rho=0.1)
    assert baseline("max_rssi", sc, 60.0).agent_to_host == (0,)


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
    assert baseline("max_rssi", sc).agent_to_host == (0,)
    assert baseline("max_sinr", sc).agent_to_host == (0,)


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
    mat = sinr_matrix_db(sc, link_budget(sc))
    # mmW SNR: 30+18-110 over noise in 1 GHz (-84 dBm) = 22 dB.
    assert mat[0, 0] == pytest.approx(22.0, rel=1e-9)
    # Nine equal interferers: SINR just below 1/9 (frozen -9.5425 dB).
    assert mat[0, 1] == pytest.approx(-9.542546303636945, rel=1e-3)
    assert baseline("max_sinr", sc, 0.0).agent_to_host == (0,)


def test_max_sinr_isolated_microwave_wins():
    sc = co_located_scenario(rho=1.0)
    mat = sinr_matrix_db(sc, link_budget(sc))
    assert mat[0, 1] == pytest.approx(36.0, rel=1e-9)  # 30-98 over -104 dBm noise
    assert baseline("max_sinr", sc, 0.0).agent_to_host == (1,)


def test_max_sinr_huge_bias_sends_everyone_to_microwave():
    sc = generate_scenario(ScenarioConfig(n_ue=20, seed=4))
    matching = baseline("max_sinr", sc, 500.0)
    assert all(h >= sc.n_mmw for h in matching.agent_to_host)


@pytest.mark.parametrize("name", ["max_rssi", "max_sinr"])
def test_baselines_reject_non_finite_bias(name):
    sc = generate_scenario(ScenarioConfig(n_ue=20, seed=4))
    for bias in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError, match="CRE biases must be finite"):
            baseline(name, sc, bias)


def test_cre_association_rejects_an_empty_bias_grid():
    with pytest.raises(ValueError, match="CRE bias grid must not be empty"):
        cre_association("max_rssi", np.zeros((2, 3)), 1, ())


def test_cre_association_rejects_an_unknown_baseline():
    with pytest.raises(ValueError, match="unknown CRE baseline 'max_snr'"):
        cre_association("max_snr", np.zeros((2, 3)), 1, (0.0,))


@pytest.mark.parametrize("name", ["max_rssi", "max_sinr"])
@pytest.mark.parametrize("col", [0, 2])
def test_cre_association_rejects_a_nan_metric(name, col):
    metric = np.zeros((2, 4, 3))
    metric[1, 3, col] = math.nan
    with pytest.raises(ValueError, match="CRE metric must not contain NaN"):
        cre_association(name, metric, 1, (0.0, 5.0))


MAX = np.finfo(float).max


@pytest.mark.parametrize(
    "name, row",
    [
        ("max_rssi", [MAX, 1.0, -50.0]),
        ("max_rssi", [-MAX, -MAX, -50.0]),
        ("max_rssi", [np.nextafter(MAX, 0), MAX, 0.0]),
        ("max_sinr", [1.0, 2.0, -MAX]),
        ("max_sinr", [1.0, 2.0, MAX]),
        ("max_sinr", [-50.0, 0.0, MAX / 2]),
    ],
)
def test_cre_association_at_float_max_matches_the_per_bias_search(name, row):
    # A biased tier's maximum at +-float max is flagged for the per-bias argmax
    # without an overflow warning (tier-1 turns warnings into errors).
    metric = np.array([[row]])
    tier = "mmw" if name == "max_rssi" else "muw"
    biases, choice = cre_association(name, metric, 2, (0.0, 3.0, 60.0))
    want_bias, want_choice = oracle_best_bias(metric[0], 2, (0.0, 3.0, 60.0), tier)
    assert biases.tolist() == [want_bias] and choice.tolist() == [want_choice]


def test_baselines_assign_every_ue():
    sc = generate_scenario(ScenarioConfig(n_ue=33, seed=8))
    for matching in (baseline("max_rssi", sc, 20.0), baseline("max_sinr", sc, 6.0)):
        assert sum(matching.loads) == 33
