"""Path loss, LoS state sampling, and spectral efficiency for both tiers.

All dB bookkeeping happens here. Powers are carried in dBm, losses and gains
in dB, and every accumulation (interference, LoS averaging) is done in the
linear domain. Spectral efficiencies are Shannon rates per unit bandwidth,
in bit/s/Hz. Each function returns a new array and never writes its inputs;
its later steps work in place on that array, in the order of the formula.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .scenario import STREAM_SLOTS, PathLossParams, Scenario, pairwise_distances, rekey, rng_stream

# Entries per working array: the Monte Carlo driver batches as many runs as
# keep its (R, M, N) stacks within it, and each row-blocked stage (the batch's
# radio chain and instance build, the preference sort, the slot draw) as many rows.
_BATCH_ELEMENTS = 32768


def _row_blocks(n_rows: int, row_size: int) -> list[slice]:
    """Consecutive slices over ``n_rows`` rows of ``row_size`` entries each: as many rows
    per slice as keep a block within ``_BATCH_ELEMENTS`` entries, one row at least."""
    step = max(1, _BATCH_ELEMENTS // max(1, row_size))
    return [slice(lo, min(lo + step, n_rows)) for lo in range(0, n_rows, step)]


def db_to_linear(x_db):
    """10^(x/10). Works elementwise on arrays."""
    x = np.divide(x_db, 10.0, dtype=float)  # a new array, or a numpy scalar
    # A scalar keeps Python's power: numpy's vectorised one may differ by an ulp.
    return np.power(10.0, x, out=x) if np.ndim(x) else 10.0 ** x


def linear_to_db(x):
    """10 log10(x). Works elementwise on arrays."""
    out = np.log10(x, dtype=float)  # a new array, or a numpy scalar
    out *= 10.0
    return out


def noise_power_dbm(noise_psd_dbm_hz: float, bandwidth_hz: float) -> float:
    """Thermal noise power over a bandwidth, in dBm."""
    return noise_psd_dbm_hz + 10.0 * np.log10(bandwidth_hz)


def path_loss_db(params: PathLossParams, d, shadow_db=0.0):
    """Log-distance path loss in dB: intercept + slope * 10 log10(d) + shadowing.

    The intercept is defined at 1 m, so distances below 1 m are clamped to
    1 m. Non-positive and NaN distances are rejected.
    """
    d = np.asarray(d, dtype=float)
    if not (d > 0).all():  # NaN fails the comparison too
        raise ValueError("distance must be positive")
    shadow_db = np.asarray(shadow_db, dtype=float)
    out = np.empty(np.broadcast_shapes(d.shape, shadow_db.shape))
    np.maximum(d, 1.0, out=out)
    np.log10(out, out=out)
    out *= params.slope * 10.0
    out += params.intercept_db
    out += shadow_db
    return float(out) if out.ndim == 0 else out


def mmw_spectral_efficiency(p_dbm, psi_dbi, pathloss_db, w1_hz, n0_dbm_hz):
    """Noise-limited spectral efficiency of a mmW link, bit/s/Hz.

    log2(1 + SNR) with SNR = p * psi * g / (w1 * N0) evaluated in linear
    units; g is the channel gain 10^(-pathloss/10). mmW transmissions sit in
    their own band, so the denominator carries no interference.
    """
    if w1_hz <= 0:
        raise ValueError("bandwidth must be positive")
    snr_db = np.subtract(p_dbm + psi_dbi, pathloss_db, dtype=float)
    snr_db -= noise_power_dbm(n0_dbm_hz, w1_hz)
    out = db_to_linear(snr_db)
    out += 1.0
    return np.log2(out, out=out) if np.ndim(out) else float(np.log2(out))


def muw_spectral_efficiency(p_dbm, pathloss_db, interferer_pathlosses_db, w2_hz, n0_dbm_hz):
    """Spectral efficiency of a microwave link with co-channel interference.

    Signal, each interference term, and noise are converted to linear mW and
    summed there; the interferer list holds the path losses toward the other
    microwave BSs, all transmitting at the same power.
    """
    if w2_hz <= 0:
        raise ValueError("bandwidth must be positive")
    signal_mw = db_to_linear(p_dbm - pathloss_db)
    interference_mw = sum(
        db_to_linear(p_dbm - li) for li in interferer_pathlosses_db
    )
    noise_mw = db_to_linear(noise_power_dbm(n0_dbm_hz, w2_hz))
    return float(np.log2(1.0 + signal_mw / (interference_mw + noise_mw)))


@dataclass(frozen=True, eq=False)
class LinkRealization:
    """Per-pair spectral efficiencies, fixed for a run: they depend only on
    geometry and static shadowing. The per-slot LoS states are the stack
    ``draw_los_slots`` draws, which the rates read beside these."""

    se_mmw_los: np.ndarray = field(repr=False)  # (M, N1) bit/s/Hz
    se_mmw_nlos: np.ndarray = field(repr=False)  # (M, N1)
    se_muw: np.ndarray = field(repr=False)  # (M, N2)

    @property
    def n_mmw(self) -> int:
        return self.se_mmw_los.shape[-1]

    @property
    def n_muw(self) -> int:
        return self.se_muw.shape[-1]


@dataclass(frozen=True, eq=False)
class LinkBudget:
    """One run's radio environment, evaluated once from the scenario.

    Path losses are in dB with shadowing included, distances clamped to
    1 m; ``sinr_muw_db[m, n]`` is UE m's SINR at microwave BS n with every
    other microwave BS interfering, summed in the linear domain.
    """

    loss_mmw_los: np.ndarray = field(repr=False)  # (M, N1)
    loss_mmw_nlos: np.ndarray = field(repr=False)  # (M, N1)
    loss_muw: np.ndarray = field(repr=False)  # (M, N2)
    sinr_muw_db: np.ndarray = field(repr=False)  # (M, N2)


def link_budget(scenario: Scenario) -> LinkBudget:
    """Distances, the path loss matrices and the microwave SINR; (R, M, N) when stacked.

    The scenario's shadowing is read here and nowhere else. Each distance
    matrix dies once its tier's path losses are taken, the received powers
    and the interference once the SINR is; the budget holds only its four
    matrices.
    """
    cfg = scenario.config
    if scenario.shadow_muw is None:
        raise ValueError("the scenario's shadowing was released after its link budget")
    d = pairwise_distances(scenario.ue_positions, scenario.mmw_positions)
    np.maximum(d, 1.0, out=d)
    loss_los = path_loss_db(cfg.pathloss_mmw_los, d, scenario.shadow_mmw_los)
    loss_nlos = path_loss_db(cfg.pathloss_mmw_nlos, d, scenario.shadow_mmw_nlos)
    d = pairwise_distances(scenario.ue_positions, scenario.muw_positions)
    np.maximum(d, 1.0, out=d)
    loss_muw = path_loss_db(cfg.pathloss_muw, d, scenario.shadow_muw)
    del d
    rx_mw = db_to_linear(cfg.tx_power_dbm - loss_muw)
    interference_mw = rx_mw.sum(axis=-1, keepdims=True) - rx_mw
    interference_mw += db_to_linear(noise_power_dbm(cfg.noise_psd_dbm_hz, cfg.bandwidth_muw_hz))
    rx_mw /= interference_mw  # the linear SINR
    del interference_mw
    return LinkBudget(
        loss_mmw_los=loss_los,
        loss_mmw_nlos=loss_nlos,
        loss_muw=loss_muw,
        sinr_muw_db=linear_to_db(rx_mw),
    )


def realize_links(
    scenario: Scenario, rng: object, budget: Optional[LinkBudget] = None
) -> LinkRealization:
    """Per-pair spectral efficiencies from the link budget; (R, M, N) when stacked.

    ``budget`` defaults to ``link_budget(scenario)``; pass it when the same
    run derives other matrices from it too. ``rng`` is accepted and ignored:
    it has no effect, since links carry no LoS state; ``draw_los_slots``
    draws the per-slot states.
    """
    cfg = scenario.config
    if budget is None:
        budget = link_budget(scenario)
    se_los, se_nlos = (
        mmw_spectral_efficiency(
            cfg.tx_power_dbm, cfg.antenna_gain_dbi, loss, cfg.bandwidth_mmw_hz, cfg.noise_psd_dbm_hz
        )
        for loss in (budget.loss_mmw_los, budget.loss_mmw_nlos)
    )
    se_muw = db_to_linear(budget.sinr_muw_db)  # last: no mmW temporary is alive beside it
    se_muw += 1.0
    return LinkRealization(
        se_mmw_los=se_los, se_mmw_nlos=se_nlos, se_muw=np.log2(se_muw, out=se_muw)
    )


def draw_los_slots(scenario: Scenario, n_slots: int) -> np.ndarray:
    """(n_slots, M, N1) boolean stack of independent per-slot LoS states drawn from
    the stream ``(config.seed, STREAM_SLOTS)``. A stacked scenario gives (n_slots, R,
    M, N1), run r drawn from ``(scenario.seeds[r], STREAM_SLOTS)``: the stack names its
    runs, and one generator is re-keyed per run. A ``random`` call fills as many slots as
    fit in ``_BATCH_ELEMENTS`` floats, at least one."""
    if n_slots < 1:
        raise ValueError("n_slots must be >= 1")
    seeds, prob = scenario.seeds, scenario.los_prob
    if seeds is None:  # one run: a run axis of one, keyed by the config's seed
        seeds, prob = (scenario.config.seed,), prob[None]
    slots = np.empty((n_slots,) + prob.shape, dtype=bool)
    # Blocks of slots read the same stream as one (S, M, N1) draw, through one float buffer.
    blocks = _row_blocks(n_slots, prob[0].size)
    buffer = np.empty((blocks[0].stop,) + prob.shape[-2:])
    rng = rng_stream(seeds[0], STREAM_SLOTS)
    for seed, run_prob, run_slots in zip(seeds, prob, slots.swapaxes(0, 1)):
        rekey(rng, seed, STREAM_SLOTS)
        for block in blocks:
            draw = buffer[: block.stop - block.start]
            rng.random(out=draw)
            np.less(draw, run_prob, out=run_slots[block])
    return slots if scenario.seeds is not None else slots[:, 0]
