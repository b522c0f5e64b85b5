"""The radio chain works in place on its own temporaries, byte for byte.

Each function is compared with its out-of-place body in ``helpers`` through
``tobytes``, so signed zeros and NaN payloads count, and must return the same
type (scalars stay scalars). Every writable input must come back unchanged.
The last test bounds the traced peak of one tight batch by the arrays its
design keeps alive at the peak.
"""

import math
import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

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
from cellassoc.policies import PolicyConfig, compute_utilities
from cellassoc.scenario import (
    MMW_LOS_PATHLOSS,
    MUW_PATHLOSS,
    STREAM_LINKS,
    ScenarioConfig,
    generate_scenario,
    pairwise_distances,
    rng_stream,
)
from helpers import (
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
    np.array([0.01, 0.5, 0.999, 1.0, 1.0000001, 3.0, 1e4, np.inf, np.nan]),
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
    state = sc.los_prob > 0.5
    pairs = [(realize_links(sc, state, budget), oracle_realize_links(sc, state))]
    if seeds is None:  # a one-run scenario may draw its own slot and budget
        pairs.append(tuple(fn(sc, rng_stream(4, STREAM_LINKS))
                           for fn in (realize_links, oracle_realize_links)))
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
    links = LinkRealization(np.zeros(lead + (m, n1), dtype=bool), *se)
    est = rng.uniform(0.0, 1.0, lead + (m, n1))
    if f == "mixed":
        est[..., 1, :2] = (0.0, 1.0)
    else:
        est[...] = f
    assert_same(call_unchanged(compute_utilities, links, est),
                call_unchanged(oracle_compute_utilities, links, est))


def test_tight_batch_peak_stays_within_its_live_arrays():
    m, n1, n2, q = 2000, 50, 50, 20
    exp = ExperimentConfig(
        scenario=ScenarioConfig(n_ue=m, n_mmw=n1, n_muw=n2, seed=3),
        policy=PolicyConfig(q_min_mmw=q, q_max_mmw=q, q_min_muw=q, q_max_muw=q),
        policies_enabled=("mmq", "da"),
        n_runs=1,
    )
    _run_batch(exp, {}, range(1))  # lazy imports and first-call set-up stay out of the trace
    tracemalloc.start()
    try:
        _run_batch(exp, {}, range(1))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    unit = m * (n1 + n2) * 8  # bytes of one (M, N) float array
    # Alive at the peak, the preference sort: los_prob and the three SE
    # arrays (half a unit each), the LoS slot stack (one bool per slot and
    # (UE, mmW BS) pair) and the utilities, their negated sort key and the
    # preference order (a unit each). The drop's shadowing and the link
    # budget are gone by then. Smaller arrays round up to a whole unit.
    live = 4 * 0.5 + exp.n_slots * m * n1 / unit + 3
    assert peak <= math.ceil(live) * unit, f"{peak / unit:.2f} arrays of (M, N) floats"
