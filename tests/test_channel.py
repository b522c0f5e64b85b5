import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellassoc.channel import (
    db_to_linear,
    draw_los_slots,
    linear_to_db,
    mmw_spectral_efficiency,
    muw_spectral_efficiency,
    noise_power_dbm,
    path_loss_db,
    realize_links,
)
from cellassoc.scenario import (
    MMW_LOS_PATHLOSS,
    PathLossParams,
    Scenario,
    ScenarioConfig,
    distance,
    generate_scenario,
    rng_stream,
)


def oracle_link_budget_se(p_dbm, gain_dbi, loss_db, w_hz, n0_dbm_hz):
    """Independent scalar link-budget chain: dBm arithmetic, then Shannon."""
    rx_dbm = p_dbm + gain_dbi - loss_db
    noise_dbm = n0_dbm_hz + 10.0 * math.log10(w_hz)
    return math.log2(1.0 + 10.0 ** ((rx_dbm - noise_dbm) / 10.0))


# --- path loss -------------------------------------------------------------

def test_path_loss_at_one_meter_is_intercept():
    # log10(1) = 0 pins the value to the 70 dB intercept.
    assert path_loss_db(PathLossParams(2.0, 70.0), 1.0, 0.0) == pytest.approx(70.0)


def test_path_loss_oracle_values():
    assert path_loss_db(PathLossParams(2.0, 70.0), 100.0, 0.0) == pytest.approx(
        110.0, rel=1e-12
    )
    assert path_loss_db(PathLossParams(3.0, 38.0), 100.0, 5.0) == pytest.approx(
        103.0, rel=1e-12
    )


def test_path_loss_rejects_nonpositive_distance():
    with pytest.raises(ValueError):
        path_loss_db(PathLossParams(2.0, 70.0), 0.0)
    with pytest.raises(ValueError):
        path_loss_db(PathLossParams(2.0, 70.0), -3.0)


@pytest.mark.parametrize("d", [np.nan, -0.0, [3.0, np.nan], [[np.inf], [np.nan]]], ids=repr)
def test_path_loss_rejects_nan_and_signed_zero_distances(d):
    with pytest.raises(ValueError, match="distance must be positive"):
        path_loss_db(MMW_LOS_PATHLOSS, d)


def test_path_loss_takes_infinite_and_empty_distances():
    assert path_loss_db(MMW_LOS_PATHLOSS, np.inf) == np.inf
    assert path_loss_db(MMW_LOS_PATHLOSS, np.zeros((0, 3))).shape == (0, 3)


def test_path_loss_clamps_below_one_meter():
    p = PathLossParams(2.0, 70.0)
    assert path_loss_db(p, 0.25) == path_loss_db(p, 1.0)


def test_path_loss_vectorized():
    p = PathLossParams(2.0, 70.0)
    out = path_loss_db(p, np.array([1.0, 10.0, 100.0]))
    assert np.allclose(out, [70.0, 90.0, 110.0])


# --- spectral efficiency ---------------------------------------------------

def test_mmw_se_at_zero_db_snr():
    # p=0 dBm, no gain, no loss, 1 Hz, N0=0 dBm/Hz puts the SNR at exactly 0 dB.
    assert mmw_spectral_efficiency(0.0, 0.0, 0.0, 1.0, 0.0) == pytest.approx(1.0)


def test_mmw_se_link_budget():
    # 30 dBm + 18 dBi - 110 dB against noise over 1 GHz at -174 dBm/Hz: 22 dB SNR.
    value = mmw_spectral_efficiency(30.0, 18.0, 110.0, 1e9, -174.0)
    assert value == pytest.approx(7.317316001936548, rel=1e-6)  # frozen oracle
    assert value == pytest.approx(
        oracle_link_budget_se(30.0, 18.0, 110.0, 1e9, -174.0), rel=1e-12
    )


def test_mmw_se_vanishes_with_infinite_loss():
    assert mmw_spectral_efficiency(30.0, 18.0, np.inf, 1e9, -174.0) == 0.0


def test_mmw_se_requires_positive_bandwidth():
    with pytest.raises(ValueError):
        mmw_spectral_efficiency(30.0, 18.0, 110.0, 0.0, -174.0)


@pytest.mark.parametrize("w2_hz", [0.0, -1e6])
def test_muw_se_requires_positive_bandwidth(w2_hz):
    with pytest.raises(ValueError, match="^bandwidth must be positive$"):
        muw_spectral_efficiency(30.0, 103.0, [113.0], w2_hz, -174.0)


def test_muw_se_no_interference_zero_db():
    assert muw_spectral_efficiency(0.0, 0.0, [], 1.0, 0.0) == pytest.approx(1.0)


def test_muw_se_single_equal_interferer():
    # Signal and interferer both at -60 dBm, noise essentially off: SINR ~ 1.
    value = muw_spectral_efficiency(30.0, 90.0, [90.0], 1.0, -174.0)
    assert value == pytest.approx(1.0, rel=1e-9)


def test_muw_se_linear_domain_sum():
    value = muw_spectral_efficiency(30.0, 103.0, [113.0, 120.0], 10e6, -174.0)
    assert value == pytest.approx(3.214401905516492, rel=1e-6)  # frozen oracle


def test_muw_matches_mmw_without_gain_or_interference():
    for loss in (80.0, 100.0, 123.4):
        assert muw_spectral_efficiency(30.0, loss, [], 5e6, -174.0) == pytest.approx(
            mmw_spectral_efficiency(30.0, 0.0, loss, 5e6, -174.0), rel=1e-12
        )


@given(
    loss=st.floats(min_value=40.0, max_value=180.0),
    extra=st.floats(min_value=0.1, max_value=60.0),
)
@settings(max_examples=50, deadline=None)
def test_se_strictly_decreases_in_pathloss(loss, extra):
    low = mmw_spectral_efficiency(30.0, 18.0, loss + extra, 1e9, -174.0)
    high = mmw_spectral_efficiency(30.0, 18.0, loss, 1e9, -174.0)
    assert low < high


@given(w=st.floats(min_value=1e3, max_value=1e10))
@settings(max_examples=50, deadline=None)
def test_doubling_bandwidth_never_raises_se(w):
    assert mmw_spectral_efficiency(30.0, 18.0, 100.0, 2 * w, -174.0) <= (
        mmw_spectral_efficiency(30.0, 18.0, 100.0, w, -174.0)
    )


@given(x=st.floats(min_value=-300.0, max_value=300.0))
@settings(max_examples=100, deadline=None)
def test_db_linear_round_trip(x):
    assert linear_to_db(db_to_linear(x)) == pytest.approx(x, rel=1e-12, abs=1e-12)


def test_noise_power():
    assert noise_power_dbm(-174.0, 1e9) == pytest.approx(-84.0)
    assert noise_power_dbm(-174.0, 10e6) == pytest.approx(-104.0)


# --- realize_links ---------------------------------------------------------

def _hand_scenario():
    cfg = ScenarioConfig(
        n_mmw=1,
        n_muw=1,
        n_ue=2,
        pathloss_mmw_los=PathLossParams(2.0, 70.0, 5.2),
        pathloss_mmw_nlos=PathLossParams(4.0, 70.0, 7.6),
        pathloss_muw=PathLossParams(3.0, 38.0, 10.0),
    )
    return Scenario(
        config=cfg,
        mmw_positions=np.array([[0.0, 0.0]]),
        muw_positions=np.array([[50.0, 60.0]]),
        ue_positions=np.array([[100.0, 0.0], [-30.0, 40.0]]),
        los_prob=np.array([[0.4], [0.9]]),
        shadow_mmw_los=np.array([[1.5], [-2.0]]),
        shadow_mmw_nlos=np.array([[-3.0], [0.5]]),
        shadow_muw=np.array([[4.0], [-1.0]]),
    )


def test_realize_links_matches_per_entry_recomputation():
    sc = _hand_scenario()
    cfg = sc.config
    links = realize_links(sc, None)
    for m in range(2):
        d1 = max(distance(sc.ue_positions[m], sc.mmw_positions[0]), 1.0)
        loss_los = path_loss_db(cfg.pathloss_mmw_los, d1, sc.shadow_mmw_los[m, 0])
        loss_nlos = path_loss_db(cfg.pathloss_mmw_nlos, d1, sc.shadow_mmw_nlos[m, 0])
        assert links.se_mmw_los[m, 0] == pytest.approx(
            mmw_spectral_efficiency(
                cfg.tx_power_dbm, cfg.antenna_gain_dbi, loss_los,
                cfg.bandwidth_mmw_hz, cfg.noise_psd_dbm_hz,
            ),
            rel=1e-9,
        )
        assert links.se_mmw_nlos[m, 0] == pytest.approx(
            mmw_spectral_efficiency(
                cfg.tx_power_dbm, cfg.antenna_gain_dbi, loss_nlos,
                cfg.bandwidth_mmw_hz, cfg.noise_psd_dbm_hz,
            ),
            rel=1e-9,
        )
        d2 = max(distance(sc.ue_positions[m], sc.muw_positions[0]), 1.0)
        loss_muw = path_loss_db(cfg.pathloss_muw, d2, sc.shadow_muw[m, 0])
        # Single microwave BS: the interference sum is empty, noise-limited.
        assert links.se_muw[m, 0] == pytest.approx(
            muw_spectral_efficiency(
                cfg.tx_power_dbm, loss_muw, [],
                cfg.bandwidth_muw_hz, cfg.noise_psd_dbm_hz,
            ),
            rel=1e-9,
        )


def test_realize_links_empty_mmw_tier():
    cfg = ScenarioConfig(n_mmw=1, n_muw=2, n_ue=3)
    sc = Scenario(
        config=cfg,
        mmw_positions=np.zeros((0, 2)),
        muw_positions=np.array([[0.0, 0.0], [100.0, 0.0]]),
        ue_positions=np.array([[10.0, 0.0], [50.0, 0.0], [90.0, 0.0]]),
        los_prob=np.zeros((3, 0)),
        shadow_mmw_los=np.zeros((3, 0)),
        shadow_mmw_nlos=np.zeros((3, 0)),
        shadow_muw=np.zeros((3, 2)),
    )
    links = realize_links(sc, None)
    assert links.se_mmw_los.shape == (3, 0)
    assert draw_los_slots(sc, 1).shape == (1, 3, 0)
    assert links.se_muw.shape == (3, 2)
    assert np.all(links.se_muw > 0)


def test_realize_links_full_scenario_properties():
    sc = generate_scenario(ScenarioConfig(n_ue=25, seed=21))
    links = realize_links(sc, None)
    for mat in (links.se_mmw_los, links.se_mmw_nlos, links.se_muw):
        assert np.all(np.isfinite(mat)) and np.all(mat >= 0)
    assert draw_los_slots(sc, 1).dtype == bool


def test_realize_links_ignores_its_rng():
    sc = generate_scenario(ScenarioConfig(n_ue=25, seed=22))
    drawn, bare = realize_links(sc, rng_stream(22, 1)), realize_links(sc, None)
    for name in ("se_mmw_los", "se_mmw_nlos", "se_muw"):
        assert np.array_equal(getattr(bare, name), getattr(drawn, name)), name


def test_los_beats_nlos_at_equal_shadowing():
    # Equal shadowing draws leave only the exponent gap, and d >= 1 m.
    sc = _hand_scenario()
    sc = Scenario(
        config=sc.config,
        mmw_positions=sc.mmw_positions,
        muw_positions=sc.muw_positions,
        ue_positions=sc.ue_positions,
        los_prob=sc.los_prob,
        shadow_mmw_los=np.array([[1.0], [0.0]]),
        shadow_mmw_nlos=np.array([[1.0], [0.0]]),
        shadow_muw=sc.shadow_muw,
    )
    links = realize_links(sc, None)
    assert np.all(links.se_mmw_los >= links.se_mmw_nlos)


def test_draw_los_slots_shape_and_bias():
    sc = generate_scenario(ScenarioConfig(n_ue=10, seed=2))
    slots = draw_los_slots(sc, 200)
    assert slots.shape == (200, 10, 10)
    # Per-pair LoS frequency tracks rho loosely at 200 slots.
    freq = slots.mean(axis=0)
    assert np.abs(freq - sc.los_prob).max() < 0.2
    with pytest.raises(ValueError):
        draw_los_slots(sc, 0)
