"""Loads, load difference, achievable rates, and rate CDFs."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .channel import LinkRealization
from .matching import Matching
from .scenario import ScenarioConfig


@dataclass(frozen=True, eq=False)
class RunMetrics:
    """Per-run outcome of one policy on one realized network."""

    loads: np.ndarray  # (N,) UEs per BS
    delta_kappa: int  # max load minus min load, both tiers pooled
    per_ue_rate_bps: np.ndarray = field(repr=False)  # (M,)
    sum_rate_bps: float = 0.0
    muw_rate_samples: np.ndarray = field(repr=False, default=None)  # rates of microwave UEs


def max_load_difference(loads) -> int:
    """Spread between the most and least loaded BS."""
    loads = np.asarray(loads)
    if loads.size == 0:
        raise ValueError("load vector is empty")
    return int(loads.max() - loads.min())


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
    interference-limited SE. Unmatched UEs get zero.
    """
    n_mmw = links.n_mmw
    host = matching.agent_to_host
    matched = host >= 0
    share = np.zeros(host.size)
    share[matched] = 1.0 / matching.loads[host[matched]]
    mmw = np.flatnonzero(matched & (host < n_mmw))
    muw = np.flatnonzero(host >= n_mmw)
    bandwidth = np.zeros(host.size)
    bandwidth[mmw] = config.bandwidth_mmw_hz
    bandwidth[muw] = config.bandwidth_muw_hz
    se = np.zeros((len(los_slots), host.size))
    h = host[mmw]
    se[:, mmw] = np.where(
        los_slots[:, mmw, h], links.se_mmw_los[mmw, h], links.se_mmw_nlos[mmw, h]
    )
    se[:, muw] = links.se_muw[muw, host[muw] - n_mmw]
    return (bandwidth * share * se).sum(axis=0) / len(los_slots)


def rate_cdf(samples) -> tuple[np.ndarray, np.ndarray]:
    """Empirical CDF: sorted sample values and F(x) at each, right-continuous."""
    samples = np.asarray(samples, dtype=float)
    if samples.size == 0:
        raise ValueError("no rate samples")
    xs = np.sort(samples)
    return xs, np.arange(1, xs.size + 1) / xs.size


def run_metrics(
    matching: Matching,
    links: LinkRealization,
    config: ScenarioConfig,
    per_ue_rate_bps: np.ndarray | None = None,
) -> RunMetrics:
    """Assemble the per-run metric bundle; rates default to the single-slot ones."""
    if per_ue_rate_bps is None:
        per_ue_rate_bps = achievable_rates(matching, links, config)
    on_muw = matching.agent_to_host >= links.n_mmw
    return RunMetrics(
        loads=matching.loads,
        delta_kappa=max_load_difference(matching.loads),
        per_ue_rate_bps=per_ue_rate_bps,
        sum_rate_bps=float(per_ue_rate_bps.sum()),
        muw_rate_samples=per_ue_rate_bps[on_muw],
    )
