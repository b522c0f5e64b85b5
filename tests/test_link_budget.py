"""One link budget per run, checked against the code it replaced, bit for bit.

The per-bias CRE search, the 3-D distance matrix and the one-shot slot draw
live on in ``helpers`` as oracles; the budget-derived RSSI and SINR matrices
are also checked entry by entry against scalar path loss arithmetic.
"""

import inspect
import math
import weakref
from dataclasses import fields, replace

import numpy as np
import pytest

from cellassoc import channel, experiments, scenario
from cellassoc.channel import draw_los_slots, link_budget, path_loss_db, realize_links
from cellassoc.experiments import POLICY_ORDER, ExperimentConfig, _point_tasks, _run_batch
from cellassoc.policies import CRE_BIAS_GRIDS, cre_association, rssi_matrix_dbm, sinr_matrix_db
from cellassoc.scenario import (
    STREAM_QUOTAS,
    STREAM_SCENARIO,
    STREAM_SLOTS,
    Scenario,
    ScenarioConfig,
    distance,
    generate_scenario,
    pairwise_distances,
    rekey,
    rng_stream,
)
from helpers import oracle_best_bias, oracle_draw_los_slots, oracle_pairwise_distances, run_batch

SHAPES = [(7, 3), (1, 1), (5000, 100)]


@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("seed", range(3))
def test_pairwise_distances_match_3d_oracle(m, n, seed):
    rng = np.random.default_rng(seed)
    a = rng.uniform(-500.0, 500.0, (m, 2))
    b = rng.uniform(-500.0, 500.0, (n, 2))
    b[0] = a[0]  # one coincident pair: distance exactly 0
    got = pairwise_distances(a, b)
    assert got.shape == (m, n)
    assert got[0, 0] == 0.0
    assert np.array_equal(got, oracle_pairwise_distances(a, b))


@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("n_slots", [1, 3, 10])
def test_draw_los_slots_matches_one_shot_draw(m, n, n_slots):
    sc = generate_scenario(ScenarioConfig(n_ue=m, n_mmw=n, n_muw=1, seed=m + n_slots))
    got = draw_los_slots(sc, n_slots)
    want = oracle_draw_los_slots(sc, rng_stream(sc.config.seed, STREAM_SLOTS), n_slots)
    assert got.dtype == bool and got.shape == (n_slots, m, n)
    assert np.array_equal(got, want)


@pytest.mark.parametrize("budget", [0, 1, 50, 64, 10**6])
def test_chunked_slot_draw_matches_one_shot_draw(monkeypatch, budget):
    # 16 floats per slot: chunks of 1, 1, 3 (3 + 3 + 1), 4 (4 + 3) and all 7 slots,
    # each run's stream re-keyed from one generator as the driver does.
    monkeypatch.setattr(channel, "_BATCH_ELEMENTS", budget)
    cfg = ScenarioConfig(n_ue=4, n_mmw=4, n_muw=1, seed=3)
    seeds = [3, -1, 2**63]
    got = draw_los_slots(generate_scenario(cfg, seeds), 7)  # the stack names its runs
    assert got.dtype == bool and got.shape == (7, 3, 4, 4)
    for r, seed in enumerate(seeds):
        sc = generate_scenario(ScenarioConfig(n_ue=4, n_mmw=4, n_muw=1, seed=seed))
        assert np.array_equal(got[:, r], oracle_draw_los_slots(sc, rng_stream(seed, STREAM_SLOTS), 7))
        assert np.array_equal(got[:, r], draw_los_slots(sc, 7))


def test_stack_is_built_with_one_seed_per_run():
    # The slot draw takes no seeds: it reads the stack's own, so a stack is refused
    # where it is built without exactly one per run, and a one-run scenario with any.
    assert list(inspect.signature(draw_los_slots).parameters) == ["scenario", "n_slots"]
    cfg = ScenarioConfig(n_ue=4, n_mmw=4, n_muw=1, seed=3)
    batch, one = generate_scenario(cfg, [3, 4]), generate_scenario(cfg)
    arrays = [getattr(batch, f.name) for f in fields(Scenario)[1:-1]]
    with pytest.raises(ValueError, match="one seed per run"):
        Scenario(cfg, *arrays)
    for sc, seeds in ((batch, None), (batch, (3,)), (batch, (3, 4, 5)), (one, (3,))):
        with pytest.raises(ValueError, match="one seed per run"):
            replace(sc, seeds=seeds)
    released = replace(batch, shadow_mmw_los=None, shadow_mmw_nlos=None, shadow_muw=None)
    assert released.seeds == batch.seeds == (3, 4)
    assert np.array_equal(draw_los_slots(released, 2), draw_los_slots(batch, 2))
    # numpy seeds are kept as Python ints, which key the streams without wrapping.
    seeds = generate_scenario(cfg, np.array([2**64 - 1, 5], dtype=np.uint64)).seeds
    assert seeds == (2**64 - 1, 5) and all(type(seed) is int for seed in seeds)


@pytest.mark.parametrize("m, n", SHAPES)
@pytest.mark.parametrize("tier", ["mmw", "muw"])
@pytest.mark.parametrize("integer", [False, True], ids=["real", "ties"])
def test_best_bias_matches_per_bias_loop(m, n, tier, integer):
    rng = np.random.default_rng([m, n, int(integer)])
    for trial in range(1 if m > 100 else 30):
        if integer:
            # Small integers against integer biases tie both the per-UE argmax
            # and the load spreads; the all-zero metric ties everything.
            metric = np.zeros((m, n)) if trial == 0 else rng.integers(-3, 4, (m, n)).astype(float)
        else:
            metric = rng.normal(0.0, 20.0, (m, n))
        n_mmw = int(rng.integers(0, n + 1))
        name = "max_rssi" if tier == "mmw" else "max_sinr"  # the baseline biasing ``tier``
        for grid in (*CRE_BIAS_GRIDS.values(), (0.0, 1.0, 2.0, 3.0)):
            bias, choice = cre_association(name, metric, n_mmw, grid)
            assert bias.shape == () and choice.shape == (m,)
            assert (bias, choice.tolist()) == oracle_best_bias(metric, n_mmw, grid, tier)


BIASED_TIER = {"max_rssi": "mmw", "max_sinr": "muw"}  # the tier each baseline biases


def assert_matches_loop(name, metric, n_mmw, grid):
    """``cre_association`` on an (M, N) or stacked (R, M, N) metric equals the
    per-bias loop run by run."""
    biases, choice = cre_association(name, metric, n_mmw, grid)
    assert biases.shape == metric.shape[:-2] and choice.shape == metric.shape[:-1]
    runs = metric.reshape(-1, *metric.shape[-2:])
    for run, bias, hosts in zip(runs, biases.reshape(-1), choice.reshape(len(runs), -1)):
        assert (bias, hosts.tolist()) == oracle_best_bias(run, n_mmw, grid, BIASED_TIER[name])


@pytest.mark.parametrize("name", BIASED_TIER)
def test_rounding_clash_in_the_biased_tier_follows_the_loop(name):
    # 1 + 3 and nextafter(1, 2) + 3 both round to 4.0, so the loop's argmax
    # takes the earlier entry although the biased tier's argmax is the later.
    top = np.nextafter(1.0, 2.0)
    row, n_mmw, want = ([1.0, top, -50.0], 2, 0) if name == "max_rssi" else ([-50.0, 1.0, top], 1, 1)
    assert 1.0 + 3.0 == top + 3.0
    metric = np.array([row, row[::-1], [0.0, 0.0, 0.0]])
    bias, choice = cre_association(name, metric, n_mmw, (3.0,))
    assert bias == 3.0 and choice[0] == want
    for grid in ((3.0,), CRE_BIAS_GRIDS[name], (0.0, 3.0)):
        assert_matches_loop(name, metric, n_mmw, grid)
        assert_matches_loop(name, np.stack([metric, metric[::-1]]), n_mmw, grid)


@pytest.mark.parametrize("name", BIASED_TIER)
def test_stacked_near_duplicates_follow_the_loop(name):
    # Entries a few ulps apart in every tier: many (bias, run, UE) slices
    # where a lower entry rounds onto the biased tier's maximum.
    rng = np.random.default_rng(len(name))
    for _ in range(40):
        base = rng.choice([1.0, 2.0, -3.0, 57.5, 0.0], (4, 6, 5))
        metric = base + rng.integers(-3, 4, base.shape) * np.spacing(base)
        n_mmw = int(rng.integers(0, 6))
        for grid in (CRE_BIAS_GRIDS[name], (3.0,), (0.0, 0.5, 1e-15, 2.5)):
            assert_matches_loop(name, metric, n_mmw, grid)


@pytest.mark.parametrize("name", BIASED_TIER)
@pytest.mark.parametrize("n_mmw", [0, 4], ids=["no_mmw", "no_muw"])
def test_empty_tier_follows_the_loop(name, n_mmw):
    rng = np.random.default_rng(n_mmw)
    metric = rng.normal(0.0, 20.0, (3, 9, 4))
    metric[0, 0] = -np.inf  # a UE with no usable BS goes to BS 0 at every bias
    metric[1, :, :2] = 1.0
    metric[1, :, 1] = np.nextafter(1.0, 2.0)  # near-duplicates inside the one tier
    for grid in (CRE_BIAS_GRIDS[name], (7.0,), (3.0, 0.0)):
        assert_matches_loop(name, metric, n_mmw, grid)


@pytest.mark.parametrize("name", BIASED_TIER)
@pytest.mark.parametrize("bias", [0.0, 6.0, 500.0])
def test_fixed_bias_grid_follows_the_loop(name, bias):
    rng = np.random.default_rng(int(bias))
    metric = rng.normal(-70.0, 20.0, (5, 30, 8))
    assert_matches_loop(name, metric, 3, (bias,))
    assert_matches_loop(name, metric[0], 3, (bias,))
    assert (cre_association(name, metric, 3, (bias,))[0] == bias).all()


@pytest.mark.parametrize("name", BIASED_TIER)
def test_infinite_and_overflowing_entries_follow_the_loop(name):
    big = np.finfo(float).max
    values = [np.inf, -np.inf, big, -big, np.nextafter(big, 0.0), 0.0, 1.0]
    rng = np.random.default_rng(7)
    with np.errstate(over="ignore"):  # the biased sums overflow in the loop too
        for _ in range(40):
            metric = rng.choice(values, (3, 5, 4))
            for grid in (CRE_BIAS_GRIDS[name], (1e300,), (-1e300, 0.0)):
                assert_matches_loop(name, metric, int(rng.integers(0, 5)), grid)


def _counting(monkeypatch, module, name, counts):
    original = getattr(module, name)

    def counted(*args, **kwargs):
        counts[name] += 1
        return original(*args, **kwargs)

    monkeypatch.setattr(module, name, counted)


def test_run_batch_evaluates_the_link_budget_once(monkeypatch):
    counts = {"path_loss_db": 0, "pairwise_distances": 0}
    for name in counts:
        _counting(monkeypatch, channel, name, counts)
    exp = ExperimentConfig(
        scenario=ScenarioConfig(n_ue=30, seed=4),
        policies_enabled=POLICY_ORDER,
        auto_bias=True,
    )
    columns = _run_batch(exp, {}, range(5), None)
    assert columns["policy"] == list(POLICY_ORDER) * 5
    assert columns["run"] == [run for run in range(5) for _ in POLICY_ORDER]
    # One distance matrix per tier; LoS, NLoS and microwave path loss once
    # each, for the whole 5-run batch.
    assert counts == {"path_loss_db": 3, "pairwise_distances": 2}


@pytest.mark.parametrize("random_muw_quota", [False, True])
def test_quotas_and_batches_build_one_generator_per_stream(monkeypatch, random_muw_quota):
    # A grid point's random minima are drawn before any batch, from one generator
    # re-keyed once per run; a batch builds one generator per stream it draws, the
    # scenarios and the slots, each re-keyed once per run. No other stream is keyed.
    built, keys, rekeys = [], [], []
    real_generator, real_key = np.random.Generator, scenario._stream_key

    def generator(bit_generator):
        built.append(bit_generator)
        return real_generator(bit_generator)

    def stream_key(seed, stream):
        keys.append(stream)
        return real_key(seed, stream)

    def counted_rekey(rng, seed, stream):
        rekeys.append((seed, stream))
        return rekey(rng, seed, stream)

    monkeypatch.setattr(np.random, "Generator", generator)
    monkeypatch.setattr(scenario, "_stream_key", stream_key)
    for module in (scenario, channel, experiments):
        monkeypatch.setattr(module, "rekey", counted_rekey)
    exp = ExperimentConfig(
        scenario=ScenarioConfig(n_ue=30, seed=4),
        policies_enabled=POLICY_ORDER,
        n_runs=8,
        random_muw_quota=random_muw_quota,
    )
    [(_, _, runs, q_min)] = _point_tasks(exp, {})  # 8 runs of 30 x 20 fit one batch
    assert runs == range(8) and (q_min is None) != random_muw_quota
    assert len(built) == random_muw_quota
    assert rekeys == [(4 + run, STREAM_QUOTAS) for run in runs if random_muw_quota]
    assert len(keys) == len(built) + len(rekeys) and set(keys) <= {STREAM_QUOTAS}
    for record in (built, keys, rekeys):
        record.clear()
    runs = range(3, 8)
    _run_batch(exp, {}, runs, q_min and q_min[3:])
    streams = [STREAM_SCENARIO, STREAM_SLOTS]
    assert len(built) == len(streams)
    assert sorted(rekeys) == sorted((4 + run, stream) for run in runs for stream in streams)
    assert len(keys) == len(built) + len(rekeys) and set(keys) <= set(streams)


@pytest.mark.parametrize("random_muw_quota", [False, True])
def test_run_batch_draws_the_slots_after_the_instance_is_released(monkeypatch, random_muw_quota):
    # The association reads LoS probabilities only: the slot stack is drawn
    # after ``verify``, once the instance is gone, and the links carry no state.
    # The links themselves are gone before ``verify``: the rates read only each
    # UE's served spectral efficiencies, gathered right after the matchers.
    calls, instances, links = [], [], []

    def recorded(name, real, check):
        def wrapper(*args, **kwargs):
            check(*args)
            calls.append(name)
            return real(*args, **kwargs)
        return wrapper

    def no_state(scenario, rng, budget):
        assert rng is None

    def gather(matchings, batch_links):
        links.append(weakref.ref(batch_links))

    def keep(instance, matchings):
        assert [ref() for ref in links] == [None]
        instances.append(weakref.ref(instance))

    def no_instance(*args):
        assert [ref() for ref in instances] == [None]

    for name, check in (
        ("realize_links", no_state),
        ("build_matching_instance", lambda *args: None),
        ("served_links", gather),
        ("verify", keep),
        ("draw_los_slots", no_instance),
        ("slot_averaged_rates", lambda *args: None),
    ):
        monkeypatch.setattr(experiments, name, recorded(name, getattr(experiments, name), check))
    exp = ExperimentConfig(
        scenario=ScenarioConfig(n_ue=30, seed=4),
        policies_enabled=POLICY_ORDER,
        random_muw_quota=random_muw_quota,
    )
    run_batch(exp, {}, range(3))
    assert calls == [
        "realize_links", "build_matching_instance", "served_links", "verify", "draw_los_slots",
        "slot_averaged_rates",
    ]


def test_budget_matrices_match_per_entry_recomputation():
    sc = generate_scenario(ScenarioConfig(n_mmw=3, n_muw=4, n_ue=6, seed=11))
    cfg = sc.config
    budget = link_budget(sc)
    rssi = rssi_matrix_dbm(sc, budget)
    sinr = sinr_matrix_db(sc, budget)
    links = realize_links(sc, None, budget)
    assert np.array_equal(links.se_muw, realize_links(sc, None).se_muw)

    noise_mmw_dbm = cfg.noise_psd_dbm_hz + 10.0 * math.log10(cfg.bandwidth_mmw_hz)
    noise_muw_mw = 10.0 ** ((cfg.noise_psd_dbm_hz + 10.0 * math.log10(cfg.bandwidth_muw_hz)) / 10.0)
    for m in range(sc.n_ue):
        for n in range(sc.n_mmw):
            d = max(distance(sc.ue_positions[m], sc.mmw_positions[n]), 1.0)
            loss_los = path_loss_db(cfg.pathloss_mmw_los, d, sc.shadow_mmw_los[m, n])
            loss_nlos = path_loss_db(cfg.pathloss_mmw_nlos, d, sc.shadow_mmw_nlos[m, n])
            rho = sc.los_prob[m, n]
            mean_loss = rho * 10.0 ** (loss_los / 10.0) + (1.0 - rho) * 10.0 ** (loss_nlos / 10.0)
            mean_gain = rho * 10.0 ** (-loss_los / 10.0) + (1.0 - rho) * 10.0 ** (-loss_nlos / 10.0)
            head = cfg.tx_power_dbm + cfg.antenna_gain_dbi
            assert rssi[m, n] == pytest.approx(head - 10.0 * math.log10(mean_loss), rel=1e-9)
            assert sinr[m, n] == pytest.approx(
                head + 10.0 * math.log10(mean_gain) - noise_mmw_dbm, rel=1e-9, abs=1e-9
            )
        loss_muw = [
            path_loss_db(
                cfg.pathloss_muw,
                max(distance(sc.ue_positions[m], sc.muw_positions[k]), 1.0),
                sc.shadow_muw[m, k],
            )
            for k in range(sc.n_muw)
        ]
        rx_mw = [10.0 ** ((cfg.tx_power_dbm - loss) / 10.0) for loss in loss_muw]
        for n in range(sc.n_muw):
            col = sc.n_mmw + n
            interference = sum(rx_mw[k] for k in range(sc.n_muw) if k != n)
            assert rssi[m, col] == pytest.approx(cfg.tx_power_dbm - loss_muw[n], rel=1e-9)
            assert sinr[m, col] == pytest.approx(
                10.0 * math.log10(rx_mw[n] / (interference + noise_muw_mw)), rel=1e-9, abs=1e-9
            )
