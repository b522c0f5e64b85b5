"""The radio chain works in place on its own temporaries, byte for byte.

Each function is compared with its out-of-place body in ``helpers`` through
``tobytes``, so signed zeros and NaN payloads count, and must return the same
type (scalars stay scalars). Every writable input must come back unchanged.
The preference sort, which works in row blocks, must equal the whole-table
stable argsort across every block edge. The last tests bound the traced peaks
of the preference sort and of one tight batch by the arrays their design keeps
alive at the peak.
"""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from cellassoc import channel
from cellassoc.channel import (
    LinkRealization,
    db_to_linear,
    link_budget,
    linear_to_db,
    mmw_spectral_efficiency,
    path_loss_db,
    realize_links,
)
from cellassoc.experiments import ExperimentConfig, _run_batch
from cellassoc.policies import PolicyConfig, build_preferences, compute_utilities
from cellassoc.scenario import (
    MMW_LOS_PATHLOSS,
    MUW_PATHLOSS,
    ScenarioConfig,
    generate_scenario,
    pairwise_distances,
)
from helpers import (
    oracle_build_preferences,
    oracle_compute_utilities,
    oracle_db_to_linear,
    oracle_link_budget,
    oracle_linear_to_db,
    oracle_mmw_spectral_efficiency,
    oracle_path_loss_db,
    oracle_realize_links,
    oracle_stacked_distances,
)

NAN_PAYLOAD = np.array([0x7FF8_0000_0000_1234], dtype=np.uint64).view(np.float64)[0]
SPECIAL = np.array([0.0, -0.0, 1e-300, 3.25, -7.5, 400.0, -400.0, np.inf, -np.inf, np.nan,
                    NAN_PAYLOAD, -NAN_PAYLOAD])


def _inputs(low: float, high: float):
    """Scalars of every kind, then 1-D, (M, N) and stacked (R, M, N) arrays."""
    rng = np.random.default_rng(5)
    yield 3.5
    yield -2
    yield -0.0
    yield np.float64(low)
    yield np.array(high)
    yield SPECIAL
    yield rng.uniform(low, high, (40, 7))
    yield rng.uniform(low, high, (3, 40, 7))


def assert_same(got, want) -> None:
    assert type(got) is type(want)
    assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.asarray(want).dtype
    assert np.asarray(got).tobytes() == np.asarray(want).tobytes()


def call_unchanged(fn, *args):
    """``fn(*args)``, checking that no array argument (nor a field of one) was written."""
    arrays = [a for a in args if isinstance(a, np.ndarray)]
    for a in args:
        if isinstance(a, LinkRealization):
            arrays += [getattr(a, f.name) for f in fields(a)]
    before = [a.copy() for a in arrays]
    with np.errstate(all="ignore"):
        out = fn(*args)
    for a, b in zip(arrays, before):
        assert a.tobytes() == b.tobytes()
    return out


@pytest.mark.parametrize("x", list(_inputs(-200.0, 200.0)), ids=repr)
def test_db_to_linear_matches_out_of_place(x):
    assert_same(call_unchanged(db_to_linear, x), call_unchanged(oracle_db_to_linear, x))


def test_scalar_conversions_keep_python_arithmetic():
    # numpy's vectorised power and Python's differ in the last bit for some
    # exponents, so a scalar must take the scalar path, as before.
    for x in np.random.default_rng(7).uniform(-300.0, 300.0, 400).tolist():
        assert_same(db_to_linear(x), oracle_db_to_linear(x))
        d, shadow = abs(x) + 0.5, x / 30
        assert_same(path_loss_db(MUW_PATHLOSS, d, shadow), oracle_path_loss_db(MUW_PATHLOSS, d, shadow))
        assert_same(mmw_spectral_efficiency(30.0, 18.0, x, 1e9, -174.0),
                    oracle_mmw_spectral_efficiency(30.0, 18.0, x, 1e9, -174.0))


@pytest.mark.parametrize("x", list(_inputs(0.0, 1e6)), ids=repr)
def test_linear_to_db_matches_out_of_place(x):
    assert_same(call_unchanged(linear_to_db, x), call_unchanged(oracle_linear_to_db, x))


DISTANCES = [
    0.3, 1.0, 2, np.float64(0.01), np.array(800.0),
    np.array([0.01, 0.5, 0.999, 1.0, 1.0000001, 3.0, 1e4, np.inf]),  # NaN is refused
    *(np.random.default_rng(6).uniform(0.01, 800.0, shape) for shape in [(40, 7), (3, 40, 7)]),
]


@pytest.mark.parametrize("d", DISTANCES, ids=repr)
@pytest.mark.parametrize("shadow", [None, 0.0, -0.0, "zeros", "normal"])
def test_path_loss_matches_out_of_place(d, shadow):
    if shadow in ("zeros", "normal"):
        rng = np.random.default_rng(1)
        shadow = np.zeros(np.shape(d)) if shadow == "zeros" else rng.normal(0.0, 5.0, np.shape(d))
    for params in (MMW_LOS_PATHLOSS, MUW_PATHLOSS):
        args = (params, d) if shadow is None else (params, d, shadow)
        assert_same(call_unchanged(path_loss_db, *args), call_unchanged(oracle_path_loss_db, *args))


def test_path_loss_broadcasts_a_scalar_distance_over_the_shadowing():
    shadow = np.random.default_rng(2).normal(0.0, 7.6, (4, 3))
    args = (MMW_LOS_PATHLOSS, 0.5, shadow)
    assert_same(call_unchanged(path_loss_db, *args), call_unchanged(oracle_path_loss_db, *args))


@pytest.mark.parametrize("loss", list(_inputs(40.0, 250.0)), ids=repr)
def test_mmw_se_matches_out_of_place(loss):
    args = (30.0, 18.0, loss, 1e9, -174.0)
    assert_same(
        call_unchanged(mmw_spectral_efficiency, *args),
        call_unchanged(oracle_mmw_spectral_efficiency, *args),
    )


@pytest.mark.parametrize("lead", [(), (3,)])
def test_pairwise_distances_match_out_of_place(lead):
    rng = np.random.default_rng(8)
    a = rng.uniform(-500.0, 500.0, lead + (30, 2))
    b = rng.uniform(-500.0, 500.0, lead + (6, 2))
    b[..., 0, :] = a[..., 0, :]  # a coincident pair
    b[..., 1, :] = a[..., 1, :] + 0.25  # and a pair closer than 1 m
    for args in ((a, b), (a[..., 0, :], b), (np.array([0.0, -0.0]), b)):
        assert_same(call_unchanged(pairwise_distances, *args),
                    call_unchanged(oracle_stacked_distances, *args))


@pytest.mark.parametrize("seeds", [None, [4, 9, 17]])
def test_budget_and_links_match_out_of_place(seeds):
    cfg = ScenarioConfig(n_mmw=6, n_muw=5, n_ue=40, seed=4)
    sc = generate_scenario(cfg, seeds)
    budget, want = link_budget(sc), oracle_link_budget(sc)
    for f in fields(budget):
        assert_same(getattr(budget, f.name), getattr(want, f.name))
    pairs = [(realize_links(sc, None, budget), oracle_realize_links(sc)),
             (realize_links(sc, None), oracle_realize_links(sc, want))]
    for got, ref in pairs:
        for f in fields(got):
            assert_same(getattr(got, f.name), getattr(ref, f.name))


def test_a_released_shadowing_refuses_a_second_budget():
    sc = generate_scenario(ScenarioConfig(n_ue=9, seed=2))
    released = replace(sc, shadow_mmw_los=None, shadow_mmw_nlos=None, shadow_muw=None)
    assert np.array_equal(released.los_prob, sc.los_prob) and not released.los_prob.flags.writeable
    with pytest.raises(ValueError, match="shadowing was released"):
        link_budget(released)


@pytest.mark.parametrize("lead", [(), (3,)])
@pytest.mark.parametrize("f", [0.0, 1.0, "mixed"])
def test_utilities_match_out_of_place(lead, f):
    rng = np.random.default_rng(11)
    m, n1, n2 = 25, 4, 3
    se = [rng.uniform(0.0, 9.0, lead + (m, n)) for n in (n1, n1, n2)]
    for a in se:
        a[..., 0, :] = 0.0  # a zero SE: utility -inf
    links = LinkRealization(*se)
    est = rng.uniform(0.0, 1.0, lead + (m, n1))
    if f == "mixed":
        est[..., 1, :2] = (0.0, 1.0)
    else:
        est[...] = f
    assert_same(call_unchanged(compute_utilities, links, est),
                call_unchanged(oracle_compute_utilities, links, est))


def _edge_rows(n: int) -> np.ndarray:
    # Rows of every kind the tie guard must get right, one kind after another,
    # so that a block edge falls between two kinds at every block size.
    rng = np.random.default_rng(n)
    kinds = [
        rng.integers(0, 2, n).astype(float),  # equal finite values
        np.where(np.arange(n) % 3 == 1, np.nan, rng.normal(size=n)),  # NaN pairs
        rng.choice([np.inf, -np.inf, 1.0], n),  # +-inf pairs
        rng.choice([0.0, -0.0, 2.0], n),  # -0.0 and 0.0 compare equal
        rng.normal(size=n),  # no tie
    ]
    return np.stack([rng.permutation(kinds[i % len(kinds)]) for i in range(23)])


@pytest.mark.parametrize("budget", [1, 3 * 20, 7 * 20 + 19], ids=["1-row", "3-row", "7-row"])
def test_preference_blocks_equal_the_whole_table_sort(monkeypatch, budget):
    # N = 20: blocks of 1, 3 and 7 rows. Rows this long can show a missing
    # tie guard (see test_preferences_equal_the_stable_argsort_on_ties).
    monkeypatch.setattr(channel, "_BATCH_ELEMENTS", budget)
    u = _edge_rows(20)
    for table in (u, u[:21].reshape(3, 7, 20), u[:, :0], np.zeros((2, 0, 20)), np.zeros((3, 4, 0))):
        prefs, gated = call_unchanged(build_preferences, table, 2, 0.5)
        want = oracle_build_preferences(table)
        assert prefs.shape == gated.shape == table.shape
        assert prefs.dtype == np.intp and (prefs == want).all()
        # The gate: a microwave BS below c_th that is not the UE's top choice.
        want_gated = table < 0.5
        want_gated[..., :2] = False
        if table.shape[-1]:
            np.put_along_axis(want_gated, want[..., :1], False, axis=-1)
        assert (gated == want_gated).all()


def test_preference_sort_peak_stays_within_its_output():
    m, n = 5000, 200
    u = np.random.default_rng(8).normal(size=(m, n))
    build_preferences(u, 100, 0.0)
    tracemalloc.start()
    try:
        build_preferences(u, 100, 0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # The preference order (one unit) and the gate mask (1/8 unit), plus one
    # row block's sort key and order: 1.13 units. A whole-table sort key
    # peaked at 2.14.
    assert peak <= 1.5 * u.nbytes, f"{peak / u.nbytes:.2f} arrays of (M, N) floats"


def test_tight_batch_peak_stays_within_its_live_arrays():
    m, n1, n2, q = 2000, 50, 50, 20
    exp = ExperimentConfig(
        scenario=ScenarioConfig(n_ue=m, n_mmw=n1, n_muw=n2, seed=3),
        policy=PolicyConfig(q_min_mmw=q, q_max_mmw=q, q_min_muw=q, q_max_muw=q),
        policies_enabled=("mmq", "da"),
        n_runs=1,
    )
    _run_batch(exp, {}, range(1), None)  # lazy imports and first-call set-up stay out of the trace
    tracemalloc.start()
    try:
        _run_batch(exp, {}, range(1), None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    unit = m * (n1 + n2) * 8  # bytes of one (M, N) float array
    # Alive at the peak, the link budget: los_prob and the drop's three
    # shadowing arrays, the three path loss matrices being built and the
    # microwave SINR's received powers and interference (half a unit each).
    # No LoS slot stack is alive: it is drawn after ``verify``, once the
    # instance is gone, so the instance build and ``verify`` peak below the
    # budget. Smaller arrays fit in the last 0.3 unit: 4.8 units in all, where
    # a slot stack drawn before the links peaked at 5.08 in the instance build.
    live = 4 * 0.5 + 3 * 0.5 + 2 * 0.5
    assert peak <= (live + 0.3) * unit, f"{peak / unit:.2f} arrays of (M, N) floats"
