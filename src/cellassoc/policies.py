"""Cell association policies: utilities, preferences, and the four schemes.

The quota-aware policy turns expected spectral efficiencies into UE
utilities, ranks BSs per UE and UEs on one shared master list, and hands the
result to the matching engine. The max-RSSI and max-SINR baselines are
quota-free per-UE argmax rules with a cell range expansion bias, and share
one search over their bias grids, ``cre_association``.

BS indexing follows the scenario convention: mmW BSs first, then microwave.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from . import channel
from .matching import Matching, MatchingInstance, mmq_match
from .metrics import max_load_difference
from .scenario import ConfigurationError, Scenario, _check_fields, _require

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
        _check_fields(self)
        _require(self, ("q_min_mmw", "q_min_muw"), lambda v: v >= 0, ">= 0")
        for lo_name, hi_name in (("q_min_mmw", "q_max_mmw"), ("q_min_muw", "q_max_muw")):
            hi = getattr(self, hi_name)
            if hi is not None and hi < getattr(self, lo_name):
                raise ConfigurationError(f"{hi_name} must be >= {lo_name}")
        offset = "a finite non-negative dB offset"  # NaN fails too
        _require(self, ("bias_rssi_db", "bias_sinr_db"), lambda v: 0 <= v < math.inf, offset)
        if np.isnan(self.c_th):  # every comparison with NaN is false: the gate would be off
            raise ConfigurationError("c_th must not be NaN")

    def quota_vectors(
        self, n_mmw: int, n_muw: int, n_ue: int
    ) -> tuple[tuple[int, ...], tuple[int, ...]]:
        """Expand the per-tier quotas into per-BS vectors, mmW columns first."""
        q_max_mmw = n_ue if self.q_max_mmw is None else self.q_max_mmw
        q_max_muw = n_ue if self.q_max_muw is None else self.q_max_muw
        q_min = (self.q_min_mmw,) * n_mmw + (self.q_min_muw,) * n_muw
        q_max = (q_max_mmw,) * n_mmw + (q_max_muw,) * n_muw
        return q_min, q_max


def compute_utilities(links: channel.LinkRealization, f) -> np.ndarray:
    """(..., M, N) UE utilities from expected spectral efficiencies, mmW columns first.

    For a mmW BS the expected SE mixes the LoS and NLoS rates with the LoS
    estimate ``f`` (an (M, N1) array of values in [0, 1]); for a microwave BS
    it is the interference-limited SE directly. Utility is the natural log;
    a zero SE maps to -inf so the BS simply ranks last.
    """
    f = np.asarray(f, dtype=float)
    if f.shape != links.se_mmw_los.shape:
        raise ValueError(f"LoS estimates must have shape {links.se_mmw_los.shape}, got {f.shape}")
    if f.size and not (0.0 <= f.min() and f.max() <= 1.0):  # NaN fails both comparisons
        raise ValueError("LoS estimates must lie in [0, 1]")
    u = np.empty(f.shape[:-1] + (links.n_mmw + links.n_muw,))
    expected_mmw = np.multiply(f, links.se_mmw_los, out=u[..., : links.n_mmw])
    nlos = np.subtract(1.0, f)
    nlos *= links.se_mmw_nlos
    expected_mmw += nlos
    del nlos
    with np.errstate(divide="ignore"):  # both logs go straight into their columns of u
        np.log(expected_mmw, out=expected_mmw)
        np.log(links.se_muw, out=u[..., links.n_mmw :])
    return u


def build_preferences(
    u: np.ndarray, n_mmw: int, c_th: float = NEG_INF
) -> tuple[np.ndarray, np.ndarray]:
    """Strict per-UE BS rankings and the gated-BS mask of utilities ``u``, both (..., M, N).

    Row m of the first array lists BS ids by descending utility, ties broken
    toward the lower BS index: the stable argsort of the negated row. In the
    bool mask a microwave BS other than the UE's top choice is gated when its
    utility falls below ``c_th``; mmW BSs (the first ``n_mmw`` columns) and
    top choices are never gated.

    Rows are sorted in blocks of ``channel._row_blocks``, so the sort keys
    never span more than one block; each row is sorted alone, so the blocks do
    not change the result. ``u`` is never written.
    """
    *lead, n = u.shape
    rows = np.asarray(u, dtype=float).reshape(math.prod(lead), n)  # the keys read float64 bits
    prefs = np.empty(rows.shape, dtype=np.intp)
    for block in channel._row_blocks(len(rows), n):
        _sort_block(rows[block], prefs[block])
    prefs = prefs.reshape(u.shape)
    gated = u < c_th
    gated[..., :n_mmw] = False
    if u.shape[-1]:
        np.put_along_axis(gated, prefs[..., :1], False, axis=-1)
    return prefs, gated


_MAGNITUDE = np.int64(0x7FFF_FFFF_FFFF_FFFF)  # a float64's bits but the sign
_INF_BITS = np.int64(0x7FF0_0000_0000_0000)  # inf's magnitude bits; NaN's exceed them


def _sort_block(rows: np.ndarray, out: np.ndarray) -> None:
    """Write the stable descending argsort of each of the (B, N) ``rows`` into the intp
    ``out``, from one int64 sort.

    A float's magnitude bits grow with its magnitude, so the signed magnitude
    bits order floats as their values do, with -0.0 and 0.0 as one key; negated,
    they order by descending value. Each key's low ``shift`` bits are replaced
    by its column, so sorting the keys orders a row by value, then column, and
    the low bits give the order. A row where two keys agree above the low bits
    (values within 2**shift ulps, equal values among them) or holding a NaN
    takes the stable argsort of its negated values instead.
    """
    n = rows.shape[-1]
    shift = max(n - 1, 0).bit_length()
    bits = rows.view(np.int64)
    key = bits & _MAGNITUDE
    nan = key.max(initial=0) > _INF_BITS  # each guard tests the whole block, then its rows
    if nan:
        nan = key.max(axis=-1) > _INF_BITS
    flip = np.invert(bits >> 63)  # -1 where x >= 0.0, 0 where x <= -0.0
    key ^= flip
    key -= flip  # two's complement: the key of -x, -|x| where x >= 0.0, else |x|
    key &= np.int64(-1 << shift)
    key |= np.arange(n)
    key.sort(axis=-1)
    np.bitwise_and(key, (1 << shift) - 1, out=out)
    key >>= shift
    tied = key[:, 1:] == key[:, :-1]
    if tied.any() or nan.any():
        tied = tied.any(axis=-1) | nan
        out[tied] = np.argsort(-rows[tied], axis=-1, kind="stable")


def build_master_list(u: np.ndarray) -> np.ndarray:
    """UEs ranked by their best achievable utility (the row maximum of ``u``), high to low.

    Every BS uses this one list. Ties break toward the lower UE index, and
    the order depends only on the ordering of utilities, not their scale.
    Utilities with a leading run axis give an (R, M) array, one list per run;
    a UE without a BS has best utility -inf.
    """
    return np.argsort(-u.max(axis=-1, initial=NEG_INF), axis=-1, kind="stable")


def build_matching_instance(
    scenario: Scenario,
    links: channel.LinkRealization,
    f,
    policy: PolicyConfig,
    q_min_override: Optional[Sequence[int]] = None,
) -> MatchingInstance:
    """Assemble the matching problem for one realized network state.

    ``q_min_override`` replaces the expanded per-BS minimum quota vector,
    e.g. for per-run random quota draws. A stacked scenario (with one
    override row per run) gives one stacked instance, validated as a whole;
    an invalid run raises naming the lowest such run.

    Utilities, preferences, gates and each UE's best utility are taken in
    blocks of UE rows (``channel._row_blocks``), so no whole utility table
    exists; each block's order goes straight into the instance's int32
    preference array. The master list ranks the gathered best utilities.
    """
    n_bs = scenario.n_mmw + scenario.n_muw
    los, nlos, muw = links.se_mmw_los, links.se_mmw_nlos, links.se_muw
    f = np.asarray(f, dtype=float)
    if f.shape != los.shape:
        raise ValueError(f"LoS estimates must have shape {los.shape}, got {f.shape}")
    prefs = np.empty(los.shape[:-1] + (n_bs,), dtype=np.int32)
    gated = np.empty(prefs.shape, dtype=bool)
    best = np.empty(los.shape[:-1])
    for rows in channel._row_blocks(scenario.n_ue, math.prod(los.shape[:-2]) * n_bs):
        block = channel.LinkRealization(los[..., rows, :], nlos[..., rows, :], muw[..., rows, :])
        u = compute_utilities(block, f[..., rows, :])
        prefs[..., rows, :], gated[..., rows, :] = build_preferences(u, scenario.n_mmw, policy.c_th)
        u.max(axis=-1, initial=NEG_INF, out=best[..., rows])
    master = build_master_list(best[..., None])  # a one-column table: its maxima are ``best``
    q_min, q_max = policy.quota_vectors(scenario.n_mmw, scenario.n_muw, scenario.n_ue)
    q_min = q_min if q_min_override is None else q_min_override
    return MatchingInstance(scenario.n_ue, n_bs, prefs, master, q_min, q_max, gated)


def mmq_policy(
    scenario: Scenario, links: channel.LinkRealization, f, policy: PolicyConfig
) -> Matching:
    """Quota-aware association: build the instance and run the matcher."""
    return mmq_match(build_matching_instance(scenario, links, f, policy))


def _los_average(rho: np.ndarray, x_los_db: np.ndarray, x_nlos_db: np.ndarray) -> np.ndarray:
    """rho * 10^(x_los/10) + (1 - rho) * 10^(x_nlos/10): a mmW dB quantity's linear LoS mean."""
    return rho * channel.db_to_linear(x_los_db) + (1.0 - rho) * channel.db_to_linear(x_nlos_db)


def rssi_matrix_dbm(scenario: Scenario, budget: channel.LinkBudget) -> np.ndarray:
    """(..., M, N) averaged received signal strength in dBm, mmW columns first.

    A mmW entry is transmit power plus antenna gain minus the attenuation
    averaged over the LoS state in the linear domain,
    10 log10(rho * 10^(L_los/10) + (1-rho) * 10^(L_nlos/10)). NLoS slots
    dominate that average, which is what makes plain max-RSSI shun the mmW
    tier. Microwave entries are transmit power minus path loss.
    """
    cfg = scenario.config
    mean_loss_db = channel.linear_to_db(
        _los_average(scenario.los_prob, budget.loss_mmw_los, budget.loss_mmw_nlos)
    )
    rssi_mmw_dbm = cfg.tx_power_dbm + cfg.antenna_gain_dbi - mean_loss_db
    return np.concatenate([rssi_mmw_dbm, cfg.tx_power_dbm - budget.loss_muw], axis=-1)


def sinr_matrix_db(scenario: Scenario, budget: channel.LinkBudget) -> np.ndarray:
    """(..., M, N) average SINR in dB, mmW columns first.

    mmW entries are the noise-limited SNR with the linear SNR (equivalently
    the channel gain) averaged over the LoS state, which keeps max-SINR
    partial to the interference-free mmW tier; microwave entries carry the
    cross-microwave interference.
    """
    cfg = scenario.config
    mean_gain = _los_average(scenario.los_prob, -budget.loss_mmw_los, -budget.loss_mmw_nlos)
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
    axes, and the (..., M) host choices.

    Each tier's max and argmax are taken once. Rounding is monotone, so a
    bias then costs one comparison of (..., M) tier maxima. A UE whose biased
    tier has a second entry within a few ulps of its maximum (it may round
    onto it), or a maximum that may overflow, takes the per-bias argmax.
    """
    if name not in CRE_BIAS_GRIDS:
        raise ValueError(f"unknown CRE baseline {name!r}, expected one of {list(CRE_BIAS_GRIDS)}")
    if not len(biases):
        raise ValueError("CRE bias grid must not be empty")
    if not np.isfinite(biases).all():  # an infinite bias sends a whole tier to its first BS
        raise ValueError(f"CRE biases must be finite, got {list(biases)}")
    cols = slice(None, n_mmw) if name == "max_rssi" else slice(n_mmw, None)
    *lead, n_ue, n_bs = metric.shape
    n_runs = math.prod(lead)
    metric = metric.reshape(n_runs, n_ue, n_bs)
    grid = np.asarray(biases, dtype=float)
    spans = ((0, n_mmw), (n_mmw, n_bs))  # the mmW tier, then microwave
    hosts = [metric[..., lo:hi].argmax(-1) + lo for lo, hi in spans if hi > lo]
    hosts *= 3 - len(hosts)  # an empty tier takes the other tier's argmax
    tops = [np.take_along_axis(metric, host[..., None], -1)[..., 0] for host in hosts]
    if np.isnan(tops).any():  # argmax stops at the first NaN
        raise ValueError("CRE metric must not contain NaN")
    pairs = list(zip(tops, hosts))  # (max, argmax) per tier; the biased tier goes first
    (top, host), (rival, rival_host) = pairs if name == "max_rssi" else pairs[::-1]
    raised = top + grid[:, None, None]  # (G, R, M); ties go to the mmW tier
    choice = np.where(raised >= rival if name == "max_rssi" else raised > rival, host, rival_host)
    # fl(x + b) == fl(top + b) < inf needs top - x <= 2 * spacing(max(|top|, |b|)).
    reach = float(np.abs(grid).max())
    with np.errstate(over="ignore"):  # a top near float max overflows here; the guard flags it
        near = metric[..., cols] >= (top - 4 * np.spacing(np.maximum(abs(top), reach)))[..., None]
    guard = (near.sum(-1) > 1) | (abs(top) >= np.finfo(float).max - reach)
    if guard.any():
        shifted = np.repeat(metric[guard][None], len(grid), axis=0)  # (G, flagged UEs, N)
        shifted[..., cols] += grid[:, None, None]
        choice[:, guard] = shifted.argmax(-1)
    best = np.argmin(max_load_difference(Matching(choice, n_bs).loads), axis=0)
    return grid[best].reshape(lead), choice[best, np.arange(n_runs)].reshape(*lead, n_ue)
