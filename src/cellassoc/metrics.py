"""Loads, load difference, achievable rates, rate CDFs and percentiles."""

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


def achievable_rates(
    matching: Matching, links: LinkRealization, config: ScenarioConfig
) -> np.ndarray:
    """Per-UE rate in bit/s in the single slot ``links.los_state`` describes."""
    return slot_averaged_rates(matching, links, links.los_state[None], config)


def slot_averaged_rates(
    matching: Matching,
    links: LinkRealization,
    los_slots: np.ndarray,
    config: ScenarioConfig,
) -> np.ndarray:
    """Per-UE rates in bit/s, averaged over a stack of per-slot LoS states.

    Each BS splits its bandwidth equally. A UE served by mmW BS n gets
    (w1 / load_n) times its LoS or NLoS spectral efficiency, whichever the
    slot's state says; a microwave UE gets (w2 / load_n) times its
    interference-limited SE. Unmatched UEs get zero. An (..., M) matching
    gives (..., M) rates. The links' (K..., M, N) and ``los_slots`` (S, K..., M, N1)
    arrays align their K leading axes with the matching's first K (a stacked
    run axis meets the matching's, as in ``verify``), and size-1 axes broadcast.
    """
    n_mmw = links.n_mmw
    host, loads = matching.agent_to_host, matching.loads
    lead = host.shape[:-1]

    def aligned(a, skip):  # a's K leading axes after its first ``skip`` go over lead's first K
        k = a.ndim - 2 - skip
        a = a.reshape(a.shape[: skip + k] + (1,) * (len(lead) - k) + a.shape[-2:])
        return np.broadcast_to(a, a.shape[:skip] + lead + a.shape[-2:])

    matched = host >= 0
    share = np.zeros(host.shape)
    share[matched] = 1.0 / np.take_along_axis(loads, np.maximum(host, 0), axis=-1)[matched]
    mmw = np.nonzero(matched & (host < n_mmw))  # leading indices, then the UE
    muw = np.nonzero(host >= n_mmw)
    bandwidth = np.zeros(host.shape)
    bandwidth[mmw] = config.bandwidth_mmw_hz
    bandwidth[muw] = config.bandwidth_muw_hz
    se_los, se_nlos, se_muw = (
        aligned(a, 0) for a in (links.se_mmw_los, links.se_mmw_nlos, links.se_muw)
    )
    slots = aligned(los_slots, 1)
    se = np.zeros((len(los_slots),) + host.shape)
    at_mmw = mmw + (host[mmw],)
    se[(slice(None),) + mmw] = np.where(
        slots[(slice(None),) + at_mmw], se_los[at_mmw], se_nlos[at_mmw]
    )
    se[(slice(None),) + muw] = se_muw[muw + (host[muw] - n_mmw,)]
    return (bandwidth * share * se).cumsum(axis=0)[-1] / len(los_slots)  # summed in slot order


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
    xs = np.sort(samples, axis=-1)
    n = xs.shape[-1]
    index = (n - 1) * (q / 100)
    lo, hi = (int(index), int(index) + 1) if index < n - 1 else (-1, -1)  # numpy's neighbours
    a, b, g = xs[..., lo], xs[..., hi], index - lo
    with np.errstate(invalid="ignore"):  # inf - inf is nan, as in numpy
        value = a + (b - a) * g if g < 0.5 else b - (b - a) * (1 - g)
    return np.where(np.isnan(xs[..., -1]), xs[..., -1], value)  # a nan sorts last


def run_metrics(matching: Matching, links: LinkRealization, rates: np.ndarray) -> RunMetrics:
    """Bundle the load spread of ``matching`` with the sum and the microwave UEs' share
    of ``rates``, its per-UE rates as the caller computed them (the driver passes
    ``slot_averaged_rates``). An (..., M) matching and its (..., M) rates give their
    leading axes to the spread and the sum; the microwave UEs' rates are one flat
    array in C order (leading indices, then UE)."""
    return RunMetrics(
        delta_kappa=max_load_difference(matching.loads),
        sum_rate_bps=rates.sum(axis=-1),
        muw_rate_samples=rates[matching.agent_to_host >= links.n_mmw],
    )
