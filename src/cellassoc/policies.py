"""Cell association policies: utilities, preferences, and the four schemes.

The quota-aware policy turns expected spectral efficiencies into UE
utilities, ranks BSs per UE and UEs on one shared master list, and hands the
result to the matching engine. The max-RSSI and max-SINR baselines are
quota-free per-UE argmax rules, optionally with a cell range expansion bias.

BS indexing follows the scenario convention: mmW BSs first, then microwave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from . import channel
from .matching import Matching, MatchingInstance, build_matching, mmq_match
from .scenario import Scenario

NEG_INF = float("-inf")


@dataclass(frozen=True)
class PolicyConfig:
    """Quotas per tier, the utility gate, and the baseline biases.

    ``q_max_*`` of None means "no effective cap" (the number of UEs). The
    gate ``c_th`` applies to microwave BSs that are not a UE's top choice;
    with the default of -inf it is off.
    """

    q_min_mmw: int = 0
    q_min_muw: int = 0
    q_max_mmw: Optional[int] = None
    q_max_muw: Optional[int] = None
    c_th: float = NEG_INF
    bias_rssi_db: float = 0.0
    bias_sinr_db: float = 0.0

    def __post_init__(self) -> None:
        for name in ("q_min_mmw", "q_min_muw"):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be >= 0")
        for lo_name, hi_name in (("q_min_mmw", "q_max_mmw"), ("q_min_muw", "q_max_muw")):
            hi = getattr(self, hi_name)
            if hi is not None and hi < getattr(self, lo_name):
                raise ValueError(f"{hi_name} must be >= {lo_name}")
        for name in ("bias_rssi_db", "bias_sinr_db"):
            value = getattr(self, name)
            if not 0 <= value < math.inf:  # NaN fails too
                raise ValueError(f"{name} must be a finite non-negative dB offset, got {value}")
        if np.isnan(self.c_th):  # every comparison with NaN is false: the gate would be off
            raise ValueError("c_th must not be NaN")

    def quota_vectors(
        self, n_mmw: int, n_muw: int, n_ue: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Expand the per-tier quotas into per-BS vectors, mmW columns first."""
        q_max_mmw = n_ue if self.q_max_mmw is None else self.q_max_mmw
        q_max_muw = n_ue if self.q_max_muw is None else self.q_max_muw
        q_min = (self.q_min_mmw,) * n_mmw + (self.q_min_muw,) * n_muw
        q_max = (q_max_mmw,) * n_mmw + (q_max_muw,) * n_muw
        return q_min, q_max


@dataclass(frozen=True, eq=False)
class UtilityTable:
    """Per-pair utilities and each UE's best achievable utility.

    ``u[m, n]`` is the log of UE m's expected spectral efficiency at BS n;
    ``u_ml[m]`` is the row maximum and drives the master list.
    """

    u: np.ndarray = field(repr=False)  # (M, N)
    u_ml: np.ndarray = field(repr=False)  # (M,)
    n_mmw: int = 0

    @property
    def n_ue(self) -> int:
        return self.u.shape[-2]

    @property
    def n_bs(self) -> int:
        return self.u.shape[-1]


def compute_utilities(links: channel.LinkRealization, f) -> UtilityTable:
    """UE utilities from expected spectral efficiencies.

    For a mmW BS the expected SE mixes the LoS and NLoS rates with the LoS
    estimate ``f`` (an (M, N1) array of values in [0, 1]); for a microwave BS
    it is the interference-limited SE directly. Utility is the natural log;
    a zero SE maps to -inf so the BS simply ranks last.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != links.se_mmw_los.shape:
        raise ValueError(
            f"LoS estimates must have shape {links.se_mmw_los.shape}, got {f.shape}"
        )
    if f.size and (f.min() < 0.0 or f.max() > 1.0):
        raise ValueError("LoS estimates must lie in [0, 1]")
    expected_mmw = f * links.se_mmw_los + (1.0 - f) * links.se_mmw_nlos
    with np.errstate(divide="ignore"):
        u = np.concatenate([np.log(expected_mmw), np.log(links.se_muw)], axis=-1)
    return UtilityTable(u=u, u_ml=u.max(axis=-1), n_mmw=links.n_mmw)


def build_preferences(util: UtilityTable, c_th: float = NEG_INF) -> tuple[np.ndarray, np.ndarray]:
    """Strict per-UE BS rankings and the gated-BS mask, both (..., M, N).

    Row m of the first array lists BS ids by descending utility, ties broken
    toward the lower BS index (one row-wise stable argsort). In the bool mask
    a microwave BS other than the UE's top choice is gated when its utility
    falls below ``c_th``; mmW BSs and top choices are never gated.
    """
    prefs = np.argsort(-util.u, axis=-1, kind="stable")
    gated = util.u < c_th
    gated[..., : util.n_mmw] = False
    if util.n_bs:
        np.put_along_axis(gated, prefs[..., :1], False, axis=-1)
    return prefs, gated


def build_master_list(util: UtilityTable) -> tuple[int, ...]:
    """UEs ranked by their best achievable utility, high to low.

    Every BS uses this one list. Ties break toward the lower UE index, and
    the order depends only on the ordering of utilities, not their scale.
    A table with a leading run axis gives one list per run.
    """
    return tuple(np.argsort(-util.u_ml, axis=-1, kind="stable").tolist())


def build_matching_instance(
    scenario: Scenario,
    links: channel.LinkRealization,
    f,
    policy: PolicyConfig,
    q_min_override: Optional[Sequence[int]] = None,
) -> MatchingInstance:
    """Assemble the matching problem for one realized network state.

    ``q_min_override`` replaces the expanded per-BS minimum quota vector,
    e.g. for per-run random quota draws. A stacked scenario (one override row
    per run) gives an iterator that builds each run's instance when reached.
    """
    util = compute_utilities(links, f)
    prefs, gated = build_preferences(util, policy.c_th)
    master = build_master_list(util)
    q_min, q_max = policy.quota_vectors(scenario.n_mmw, scenario.n_muw, scenario.n_ue)
    n_hosts = scenario.n_mmw + scenario.n_muw
    if prefs.ndim == 2:
        q_min = q_min if q_min_override is None else q_min_override
        return MatchingInstance(scenario.n_ue, n_hosts, prefs, master, q_min, q_max, gated)
    q_mins = [q_min] * len(prefs) if q_min_override is None else q_min_override
    return (
        MatchingInstance(scenario.n_ue, n_hosts, run_prefs, run_master, run_q_min, q_max, gates)
        for run_prefs, run_master, run_q_min, gates in zip(prefs, master, q_mins, gated)
    )


def mmq_policy(
    scenario: Scenario,
    links: channel.LinkRealization,
    f,
    policy: PolicyConfig,
    q_min_override: Optional[Sequence[int]] = None,
) -> Matching:
    """Quota-aware association: build the instance and run the matcher."""
    return mmq_match(build_matching_instance(scenario, links, f, policy, q_min_override))


def rssi_matrix_dbm(
    scenario: Scenario, budget: Optional[channel.LinkBudget] = None
) -> np.ndarray:
    """(..., M, N) averaged received signal strength in dBm, mmW columns first.

    A mmW entry is transmit power plus antenna gain minus the attenuation
    averaged over the LoS state in the linear domain,
    10 log10(rho * 10^(L_los/10) + (1-rho) * 10^(L_nlos/10)). NLoS slots
    dominate that average, which is what makes plain max-RSSI shun the mmW
    tier. Microwave entries are transmit power minus path loss. ``budget``
    defaults to ``channel.link_budget(scenario)``.
    """
    cfg = scenario.config
    if budget is None:
        budget = channel.link_budget(scenario)
    mean_loss_db = channel.linear_to_db(
        scenario.los_prob * channel.db_to_linear(budget.loss_mmw_los)
        + (1.0 - scenario.los_prob) * channel.db_to_linear(budget.loss_mmw_nlos)
    )
    rssi_mmw_dbm = cfg.tx_power_dbm + cfg.antenna_gain_dbi - mean_loss_db
    return np.concatenate([rssi_mmw_dbm, cfg.tx_power_dbm - budget.loss_muw], axis=-1)


def sinr_matrix_db(
    scenario: Scenario, budget: Optional[channel.LinkBudget] = None
) -> np.ndarray:
    """(..., M, N) average SINR in dB, mmW columns first.

    mmW entries are the noise-limited SNR with the linear SNR (equivalently
    the channel gain) averaged over the LoS state, which keeps max-SINR
    partial to the interference-free mmW tier; microwave entries carry the
    cross-microwave interference. ``budget`` defaults to
    ``channel.link_budget(scenario)``.
    """
    cfg = scenario.config
    if budget is None:
        budget = channel.link_budget(scenario)
    mean_gain = scenario.los_prob * channel.db_to_linear(-budget.loss_mmw_los) + (
        1.0 - scenario.los_prob
    ) * channel.db_to_linear(-budget.loss_mmw_nlos)
    noise_db = channel.noise_power_dbm(cfg.noise_psd_dbm_hz, cfg.bandwidth_mmw_hz)
    snr_mmw_db = (
        cfg.tx_power_dbm + cfg.antenna_gain_dbi + channel.linear_to_db(mean_gain) - noise_db
    )
    return np.concatenate([snr_mmw_db, budget.sinr_muw_db], axis=-1)


# Cell range expansion: max-RSSI biases the mmW tier, which its plain form
# shuns, and max-SINR the microwave tier, which its plain form starves. An
# experiment asking for the load-optimal bias scans the baseline's grid.
CRE_BIAS_GRIDS = {
    "max_rssi": tuple(float(b) for b in range(0, 61, 5)),
    "max_sinr": tuple(float(b) for b in range(0, 21, 2)),
}


def cre_association(
    name: str, metric: np.ndarray, n_mmw: int, biases: Sequence[float]
) -> tuple[np.ndarray, np.ndarray]:
    """The load-optimal CRE bias of baseline ``name`` and its host choices.

    Each bias is added to the baseline's tier of the (..., M, N) ``metric``
    and every UE takes its argmax, ties going to the lower BS index. Per
    leading index the bias with the smallest load spread wins, ties going to
    the earlier bias. Returns the winning biases, shaped like the leading
    axes, and the (..., M) host choices. Biases go one at a time into one
    reused buffer.
    """
    if not np.isfinite(biases).all():  # an infinite bias sends a whole tier to its first BS
        raise ValueError(f"CRE biases must be finite, got {list(biases)}")
    cols = slice(None, n_mmw) if name == "max_rssi" else slice(n_mmw, None)
    *lead, n_ue, n_bs = metric.shape
    n_runs = math.prod(lead)
    metric = metric.reshape(n_runs, n_ue, n_bs)
    biased = metric.copy()
    choices = []
    for bias in biases:
        np.add(metric[..., cols], bias, out=biased[..., cols])
        choices.append(biased.argmax(axis=-1))
    choice = np.stack(choices)  # (G, R, M)
    flat = choice + n_bs * np.arange(len(biases) * n_runs).reshape(len(biases), n_runs, 1)
    loads = np.bincount(flat.ravel(), minlength=len(biases) * n_runs * n_bs)
    best = np.argmin(np.ptp(loads.reshape(len(biases), n_runs, n_bs), axis=-1), axis=0)
    winners = np.asarray(biases, dtype=float)[best].reshape(lead)
    return winners, choice[best, np.arange(n_runs)].reshape(*lead, n_ue)


def max_rssi_policy(scenario: Scenario, bias_db: float = 0.0) -> Matching:
    """Each UE picks the BS with the strongest average received power.

    ``bias_db`` implements cell range expansion: it is added to the mmW
    entries before the argmax, since plain max-RSSI under-loads the mmW
    tier. No quotas are enforced.
    """
    _, choice = cre_association("max_rssi", rssi_matrix_dbm(scenario), scenario.n_mmw, (bias_db,))
    return build_matching(choice, scenario.n_mmw + scenario.n_muw)


def max_sinr_policy(scenario: Scenario, bias_db: float = 0.0) -> Matching:
    """Each UE picks the BS with the best average SINR.

    Plain max-SINR over-loads the interference-free mmW tier, so the cell
    range expansion bias ``bias_db`` favors microwave. No quotas are
    enforced.
    """
    _, choice = cre_association("max_sinr", sinr_matrix_db(scenario), scenario.n_mmw, (bias_db,))
    return build_matching(choice, scenario.n_mmw + scenario.n_muw)
