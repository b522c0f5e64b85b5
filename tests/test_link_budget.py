"""One link budget per run, checked against the code it replaced, bit for bit.

The per-bias CRE search, the 3-D distance matrix and the one-shot slot draw
live on in ``helpers`` as oracles; the budget-derived RSSI and SINR matrices
are also checked entry by entry against scalar path loss arithmetic.
"""

import math

import numpy as np
import pytest

from cellassoc import channel
from cellassoc.channel import draw_los_slots, link_budget, path_loss_db, realize_links
from cellassoc.experiments import POLICY_ORDER, ExperimentConfig, _run_batch
from cellassoc.policies import CRE_BIAS_GRIDS, cre_association, rssi_matrix_dbm, sinr_matrix_db
from cellassoc.scenario import (
    STREAM_SLOTS,
    ScenarioConfig,
    distance,
    generate_scenario,
    pairwise_distances,
    rng_stream,
)
from helpers import oracle_best_bias, oracle_draw_los_slots, oracle_pairwise_distances

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
    got = draw_los_slots(sc, rng_stream(sc.config.seed, STREAM_SLOTS), n_slots)
    want = oracle_draw_los_slots(sc, rng_stream(sc.config.seed, STREAM_SLOTS), n_slots)
    assert got.dtype == bool and got.shape == (n_slots, m, n)
    assert np.array_equal(got, want)


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
    rows = _run_batch(exp, {}, 0, range(5))
    assert [row["policy"] for row in rows] == list(POLICY_ORDER) * 5
    assert [row["run"] for row in rows] == [run for run in range(5) for _ in POLICY_ORDER]
    # One distance matrix per tier; LoS, NLoS and microwave path loss once
    # each, for the whole 5-run batch.
    assert counts == {"path_loss_db": 3, "pairwise_distances": 2}


def test_budget_matrices_match_per_entry_recomputation():
    sc = generate_scenario(ScenarioConfig(n_mmw=3, n_muw=4, n_ue=6, seed=11))
    cfg = sc.config
    budget = link_budget(sc)
    rssi = rssi_matrix_dbm(sc, budget)
    sinr = sinr_matrix_db(sc, budget)
    assert np.array_equal(rssi, rssi_matrix_dbm(sc))
    assert np.array_equal(sinr, sinr_matrix_db(sc))
    links = realize_links(sc, rng_stream(11, 1), budget)
    assert np.array_equal(links.se_muw, realize_links(sc, rng_stream(11, 1)).se_muw)

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
