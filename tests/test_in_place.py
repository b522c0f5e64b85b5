"""The radio chain works in place on its own temporaries, byte for byte.

Each function is compared with its out-of-place body in ``helpers`` through
``tobytes``, so signed zeros and NaN payloads count, and must return the same
type (scalars stay scalars). Every writable input must come back unchanged.
The preference sort, which works in row blocks on packed integer keys, must
equal the whole-table stable argsort across every block edge and on values a
few ulps apart; a batch run in blocks of UE rows must equal its one-block run
byte for byte. The last tests bound the traced peaks of the preference sort
and of one tight batch by the arrays their design keeps alive at the peak; the
batch's links are written over its drop's shadowing, and its instance holds
one-byte preferences and no gate array.
"""

import tracemalloc
from dataclasses import fields, replace

import numpy as np
import pytest

from cellassoc import channel, experiments
from cellassoc.channel import (
    LinkRealization,
    db_to_linear,
    link_budget,
    linear_to_db,
    mmw_spectral_efficiency,
    path_loss_db,
    realize_links,
)
from cellassoc.experiments import POLICY_ORDER, ExperimentConfig, _point_tasks, _run_batch
from cellassoc.metrics import served_links
from cellassoc.policies import (
    PolicyConfig,
    build_matching_instance,
    build_preferences,
    compute_utilities,
)
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
        assert prefs.dtype == np.uint8 and (prefs == want).all()  # N <= 20: one byte
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
    # The uint8 preference order and the gate mask (1/8 unit each), plus the
    # gate step's small temporaries: 0.26 units; the sort's row-block
    # temporaries peak below that. A whole-table sort key peaked at 2.14, and
    # an intp order with its row block's temporaries at 1.13.
    assert peak <= 0.4 * u.nbytes, f"{peak / u.nbytes:.2f} arrays of (M, N) floats"


def _bits(x) -> np.ndarray:
    return np.asarray(x, dtype=float).view(np.int64)


def _ulp_rows(n: int, rng) -> np.ndarray:
    # Rows whose values lie fewer than 2**bits ulps apart, so that the packed keys'
    # column bits cover their difference: runs of consecutive floats, distinct or
    # with repeats, then +-0.0 in swapped columns, +-inf and NaN payloads of either sign.
    rows = []
    for start, step in ((1.0, 1), (-3.5, 1), (1e-300, 1), (0.0, 1), (-0.0, 1),
                        (np.finfo(float).max, -1), (-np.finfo(float).max, -1)):
        for offsets in (rng.permutation(n), rng.integers(0, n, n)):
            rows.append((_bits(start) + step * offsets).view(np.float64))
    zeros = rows[0].copy()
    zeros[[0, -1]] = (0.0, -0.0)
    rows += [zeros, zeros[::-1]]  # 0.0 before -0.0, then after
    low_payload = [(_bits(np.inf) + 1).view(np.float64), (_bits(-np.inf) + 1).view(np.float64)]
    for special in [np.inf, -np.inf, NAN_PAYLOAD, -NAN_PAYLOAD, np.nan, *low_payload]:
        row = rng.normal(size=n)
        row[rng.integers(n)] = special
        rows.append(row)
        rows.append(np.where(np.arange(n) % 2, rows[0], special))  # among consecutive floats
    rows.append(np.full(n, -np.inf))
    return np.stack(rows)


@pytest.mark.parametrize("n", [1, 2, 3, 5, 20, 200, 257])
def test_packed_key_sort_equals_the_stable_argsort(n):
    # The sort packs each value's order-preserving int64 with its column in the low
    # bits; values within 2**bits ulps, equal values and NaN must take the stable sort.
    rng = np.random.default_rng(n)
    u = np.concatenate([_ulp_rows(n, rng), rng.normal(size=(5, n))])
    prefs, _ = call_unchanged(build_preferences, u, 0)
    assert prefs.dtype == (np.uint8 if n <= 256 else np.uint16)  # the smallest holding N - 1
    assert (prefs == oracle_build_preferences(u)).all()


def test_sort_guards_fire_on_their_rows_alone(monkeypatch):
    # The NaN and tie guards test a whole block first and its rows only when they
    # fire: blocks of three rows, clean but for a NaN row, a near-tie row, or both.
    # A near tie puts the larger value in the later column, which the packed keys'
    # column bits alone would put second; the other rows keep the packed-key order.
    monkeypatch.setattr(channel, "_BATCH_ELEMENTS", 3 * 20)
    u = np.random.default_rng(21).normal(size=(12, 20))
    u[1, 7] = np.nan  # block 0: a NaN row
    u[5, 11] = np.nextafter(u[5, 3], np.inf)  # block 1: a near-tie row
    u[6, 2], u[8, 9] = np.nan, np.nextafter(u[8, 4], np.inf)  # block 2: both
    prefs, _ = call_unchanged(build_preferences, u, 0)
    assert (prefs == oracle_build_preferences(u)).all()
    for row, first, second in ((5, 11, 3), (8, 9, 4)):  # one ulp above: just before
        assert prefs[row].tolist().index(first) + 1 == prefs[row].tolist().index(second)
    assert prefs[1, -1] == 7 and prefs[6, -1] == 2  # NaN ranks last


@pytest.mark.parametrize("rows", [1, 3, 7], ids=["1-row", "3-row", "7-row"])
def test_row_blocked_batch_equals_its_one_block_run(monkeypatch, rows):
    # M = 20 UEs, N = 3 + 4 BSs and R = 3 runs: blocks of 1, 3 and 7 UE rows, the last
    # one short. Every policy, auto-bias, a gate and random minima: each stage that
    # works in blocks (radio chain, metrics, instance build, sort, slot draw) takes part.
    exp = ExperimentConfig(
        scenario=ScenarioConfig(n_ue=20, n_mmw=3, n_muw=4, seed=11),
        policy=PolicyConfig(q_min_mmw=1, c_th=1.2),
        policies_enabled=POLICY_ORDER,
        n_runs=3,
        n_slots=4,
        random_muw_quota=True,
        auto_bias=True,
    )
    (task,) = _point_tasks(exp, {})
    want = _run_batch(*task)
    calls = []
    real = channel.path_loss_db

    def recorded(params, d, shadow_db=0.0):
        calls.append((params, np.array(d)))
        return real(params, d, shadow_db)

    monkeypatch.setattr(channel, "_BATCH_ELEMENTS", 3 * 7 * rows)
    monkeypatch.setattr(channel, "path_loss_db", recorded)
    got = _run_batch(*task)
    assert got.keys() == want.keys()
    for key, column in want.items():
        if key == "muw_rates_bps":
            assert got[key].tobytes() == column.tobytes()
        else:
            assert repr(got[key]) == repr(column), key  # repr tells -0.0 and NaN apart
    # Each block evaluates the three path loss classes once, and each UE row is in one block.
    n_blocks = -(-20 // rows)
    assert len(calls) == 3 * n_blocks
    batch = generate_scenario(exp.scenario, [11, 12, 13])
    cfg = exp.scenario
    for params, bs in ((cfg.pathloss_mmw_los, batch.mmw_positions),
                       (cfg.pathloss_mmw_nlos, batch.mmw_positions),
                       (cfg.pathloss_muw, batch.muw_positions)):
        blocks = [d for p, d in calls if p is params]
        assert [d.shape[-2] for d in blocks] == [min(rows, 20 - lo) for lo in range(0, 20, rows)]
        whole = np.maximum(pairwise_distances(batch.ue_positions, bs), 1.0)
        assert np.concatenate(blocks, axis=-2).tobytes() == whole.tobytes()


def _tight_batch(m: int, n1: int, n2: int, q: int) -> ExperimentConfig:
    return ExperimentConfig(
        scenario=ScenarioConfig(n_ue=m, n_mmw=n1, n_muw=n2, seed=3),
        policy=PolicyConfig(q_min_mmw=q, q_max_mmw=q, q_min_muw=q, q_max_muw=q),
        policies_enabled=("mmq", "da"),
        n_runs=1,
    )


@pytest.mark.parametrize("m, n1, n2, q", [(2000, 50, 50, 20), (5000, 100, 100, 25)])
def test_tight_batch_peak_stays_within_its_live_arrays(monkeypatch, m, n1, n2, q):
    exp = _tight_batch(m, n1, n2, q)
    # Lazy imports and first-call set-up stay out of the trace. This warm-up batch
    # also shows that the links are written over the drop's shadowing, which stays
    # read-only in the drop, and that the gate-free instance holds uint8 preferences
    # and no gate array of its own (a False view with zero strides).
    seen = {}
    monkeypatch.setattr(experiments, "generate_scenario",
                        lambda *args: seen.setdefault("drop", generate_scenario(*args)))
    monkeypatch.setattr(experiments, "served_links",
                        lambda hosts, links: served_links(hosts, seen.setdefault("links", links)))
    monkeypatch.setattr(experiments, "build_matching_instance",
                        lambda *args: seen.setdefault("instance", build_matching_instance(*args)))
    _run_batch(_tight_batch(36, 3, 3, 6), {}, range(1), None)
    monkeypatch.undo()
    drop, links, instance = seen["drop"], seen["links"], seen["instance"]
    for shadow, link in (("shadow_mmw_los", "se_mmw_los"), ("shadow_mmw_nlos", "se_mmw_nlos"),
                         ("shadow_muw", "se_muw")):
        assert np.shares_memory(getattr(drop, shadow), getattr(links, link))
        assert not getattr(drop, shadow).flags.writeable
    assert instance.agent_prefs.dtype == np.uint8
    assert instance.gated.strides == (0, 0, 0) and not instance.gated.any()
    del seen, drop, links, instance
    tracemalloc.start()
    try:
        _run_batch(exp, {}, range(1), None)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    unit = m * (n1 + n2) * 8  # bytes of one (M, N) float array
    # Alive at the peak, in the instance build's preference sort: los_prob (half a
    # unit), the drop's shadowing buffer that became the links (three half units),
    # the instance's uint8 agent_prefs (an eighth; there is no gate array), and one
    # block's utilities, sort key and sign mask with their casting buffers and bool
    # temporaries: at most four arrays of the block's rows. The radio chain
    # (los_prob, the buffer and one block's budget) and ``verify`` (the links are
    # released before it builds ``rank``) peak below that. With int32 preferences,
    # a gate array and an intp order block the peak was 3.48 units at 2000 x 100
    # and 2.81 at 5000 x 200 (bounds 3.71 and 2.92); it is 2.80 and 2.27, and the
    # bounds are 2.88 and 2.36.
    block = (channel._BATCH_ELEMENTS // (n1 + n2)) / m
    live = 0.5 + 3 * 0.5 + 0.125 + 4 * block
    assert peak <= (live + 0.1) * unit, f"{peak / unit:.2f} arrays of (M, N) floats"
