"""Loads, load difference, slot-averaged rates, rate CDFs and percentiles."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import LinkRealization
from .matching import Matching
from .scenario import ScenarioConfig


@dataclass(frozen=True, eq=False)
class RunMetrics:
    """Load spread, sum rate and microwave UE rates of one policy's run or runs
    (see ``run_metrics``); the matching's loads stay in ``Matching.loads``."""

    delta_kappa: int  # max load minus min load, both tiers pooled
    sum_rate_bps: float  # sum of the per-UE rates the caller handed in
    muw_rate_samples: np.ndarray = field(repr=False)  # microwave UEs' rates, flat


def max_load_difference(loads):
    """Spread between the most and least loaded BS; one per row of (..., N) loads."""
    loads = np.asarray(loads)
    if loads.size == 0:
        raise ValueError("load vector is empty")
    spread = loads.max(axis=-1) - loads.min(axis=-1)
    return int(spread) if spread.ndim == 0 else spread


@dataclass(frozen=True, eq=False)
class ServedLinks:
    """What the rates read of a ``LinkRealization`` for ``matching``, gathered by
    ``served_links``: the one form in which links reach the rates. ``mmw`` and ``muw``
    index the matching's mmW-served and microwave-served entries (leading indices, UE,
    then its BS id); ``se_los`` and ``se_nlos`` hold the former's LoS and NLoS spectral
    efficiencies, ``se_muw`` the latter's."""

    matching: Matching = field(repr=False)  # the matching they were gathered for
    mmw: tuple = field(repr=False)
    se_los: np.ndarray = field(repr=False)  # (E,) for E mmW-served entries
    se_nlos: np.ndarray = field(repr=False)  # (E,)
    muw: tuple = field(repr=False)
    se_muw: np.ndarray = field(repr=False)  # (F,) for F microwave-served entries
    n_mmw: int


def _aligned(a: np.ndarray, skip: int, lead: tuple) -> np.ndarray:
    # a's K leading axes after its first ``skip`` go over lead's first K; size-1 axes broadcast.
    k = a.ndim - 2 - skip
    a = a.reshape(a.shape[: skip + k] + (1,) * (len(lead) - k) + a.shape[-2:])
    return np.broadcast_to(a, a.shape[:skip] + lead + a.shape[-2:])


def served_links(matching: Matching, links: LinkRealization) -> ServedLinks:
    """The spectral efficiencies of ``links`` at each UE's host in ``matching``. The
    links' (K..., M, N) arrays align their K leading axes with the matching's first K,
    as in ``slot_averaged_rates``; links with an array of another M, or of N1 + N2
    other than the matching's host count, are refused."""
    host, n_mmw, n_bs = matching.agent_to_host, links.n_mmw, links.n_mmw + links.se_muw.shape[-1]
    m = [a.shape[-2] for a in (links.se_mmw_los, links.se_mmw_nlos, links.se_muw)]
    if m != [host.shape[-1]] * 3 or n_bs != matching.n_hosts:
        raise ValueError(
            f"links of M = {m} (mmW LoS, NLoS, microwave) and N1 + N2 = {n_bs} do not fit "
            f"a matching of M = {host.shape[-1]} and {matching.n_hosts} hosts"
        )
    lead = host.shape[:-1]
    mmw, muw = np.nonzero((host >= 0) & (host < n_mmw)), np.nonzero(host >= n_mmw)
    mmw, muw = mmw + (host[mmw],), muw + (host[muw],)
    se_los, se_nlos = (_aligned(a, 0, lead)[mmw] for a in (links.se_mmw_los, links.se_mmw_nlos))
    se_muw = _aligned(links.se_muw, 0, lead)[muw[:-1] + (muw[-1] - n_mmw,)]
    return ServedLinks(matching, mmw, se_los, se_nlos, muw, se_muw, n_mmw)


def slot_averaged_rates(
    served: ServedLinks, los_slots: np.ndarray, config: ScenarioConfig
) -> np.ndarray:
    """Per-UE rates in bit/s of ``served.matching``, averaged over a stack of LoS slots.

    Each BS splits its bandwidth equally. A UE served by mmW BS n gets
    (w1 / load_n) times its LoS or NLoS spectral efficiency, whichever the
    slot's state says; a microwave UE gets (w2 / load_n) times its
    interference-limited SE. Unmatched UEs get zero. An (..., M) matching
    gives (..., M) rates. The (S, K..., M, N1) ``los_slots`` align their K leading
    axes with the matching's first K (a stacked run axis meets the matching's, as in
    ``verify``), and size-1 axes broadcast; a stack of no slot, or of another
    (M, N1), is refused.
    Only served entries get per-slot terms: (S, E) for the E mmW-served ones, one
    term for each microwave-served one. They are added one slot at a time in slot
    order, then divided by S, so a rate equals the per-slot loop's bit for bit.
    """
    matching, mmw, muw = served.matching, served.mmw, served.muw
    n_slots, host, loads = len(los_slots), matching.agent_to_host, matching.loads
    trailing = (host.shape[-1], served.n_mmw)  # (M, N1)
    if los_slots.ndim < 3 or n_slots < 1 or los_slots.shape[-2:] != trailing:
        raise ValueError(
            f"slot stack of shape {los_slots.shape} is not (S >= 1, ..., M, N1) with "
            f"(M, N1) = {trailing}"
        )
    mmw_share = config.bandwidth_mmw_hz * (1.0 / loads[mmw[:-2] + mmw[-1:]])
    muw_share = config.bandwidth_muw_hz * (1.0 / loads[muw[:-2] + muw[-1:]])
    los = _aligned(los_slots, 1, host.shape[:-1])[(slice(None),) + mmw]
    mmw_terms = np.where(los, served.se_los, served.se_nlos)
    mmw_terms *= mmw_share  # (S, E), in place: share * se is se * share, bit for bit
    muw_term = muw_share * served.se_muw  # the same in every slot
    mmw_sum, muw_sum = np.zeros(len(mmw_share)), np.zeros(len(muw_share))
    for slot_terms in mmw_terms:  # in slot order: a pairwise .sum(axis=0) rounds otherwise
        mmw_sum += slot_terms
        muw_sum += muw_term
    rates = np.zeros(host.shape)
    rates[mmw[:-1]], rates[muw[:-1]] = mmw_sum / n_slots, muw_sum / n_slots
    return rates


def rate_cdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: sorted sample values and F(x) at each, right-continuous."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no rate samples")
    xs = np.sort(samples)
    return xs, np.arange(1, xs.size + 1) / xs.size


def percentile(samples, q: float):
    """``np.percentile(samples, q, axis=-1)``, bit for bit, from one sort: numpy's
    default linear method without the ``numpy.ma`` import its first call pays."""
    q = q / 100
    if not 0 <= q <= 1:  # numpy's test, on q / 100; NaN fails it too
        raise ValueError("Percentiles must be in the range [0, 100]")
    xs = np.sort(samples, axis=-1)
    n = xs.shape[-1]
    index = (n - 1) * q
    lo, hi = (int(index), int(index) + 1) if index < n - 1 else (-1, -1)  # numpy's neighbours
    a, b, g = xs[..., lo], xs[..., hi], index - lo
    with np.errstate(invalid="ignore"):  # inf - inf is nan, as in numpy
        value = a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)
    return np.where(np.isnan(xs[..., -1]), xs[..., -1], value)  # a nan sorts last


def run_metrics(served: ServedLinks, rates: np.ndarray) -> RunMetrics:
    """Bundle the load spread of ``served.matching`` with the sum and the microwave UEs'
    share of ``rates``, its per-UE rates as the caller computed them (the driver passes
    ``slot_averaged_rates``). An (..., M) matching and its (..., M) rates give their
    leading axes to the spread and the sum; the microwave UEs' rates are one flat
    array in C order (leading indices, then UE)."""
    return RunMetrics(
        delta_kappa=max_load_difference(served.matching.loads),
        sum_rate_bps=rates.sum(axis=-1),
        muw_rate_samples=rates[served.matching.agent_to_host >= served.n_mmw],
    )
