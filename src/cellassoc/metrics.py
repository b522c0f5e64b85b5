"""Loads, load difference, achievable rates, and the quota sweep."""

from __future__ import annotations

import warnings
from dataclasses import dataclass, field, replace

import numpy as np

from .channel import LinkRealization, draw_los_slots, realize_links
from .matching import Matching
from .policies import PolicyConfig, mmq_policy
from .scenario import (
    STREAM_LINKS,
    STREAM_SLOTS,
    Scenario,
    ScenarioConfig,
    generate_scenario,
    rng_stream,
)


@dataclass(frozen=True, eq=False)
class RunMetrics:
    """Per-run outcome of one policy on one realized network."""

    loads: np.ndarray  # (N,) UEs per BS
    delta_kappa: int  # max load minus min load, both tiers pooled
    per_ue_rate_bps: np.ndarray = field(repr=False)  # (M,)
    sum_rate_bps: float = 0.0
    muw_rate_samples: np.ndarray = field(repr=False, default=None)  # rates of microwave UEs


def load_vector(matching: Matching) -> np.ndarray:
    """UEs per BS."""
    return np.asarray(matching.loads, dtype=int)


def max_load_difference(loads) -> int:
    """Spread between the most and least loaded BS."""
    loads = np.asarray(loads)
    if loads.size == 0:
        raise ValueError("load vector is empty")
    return int(loads.max() - loads.min())


def achievable_rates(
    matching: Matching, links: LinkRealization, config: ScenarioConfig
) -> np.ndarray:
    """Per-UE rate in bit/s under an equal bandwidth split at each BS.

    A UE served by mmW BS n gets (w1 / load_n) times its LoS or NLoS
    spectral efficiency, whichever the realized slot state says; a microwave
    UE gets (w2 / load_n) times its interference-limited SE. Unmatched UEs
    get zero.
    """
    n_mmw = links.n_mmw
    rates = np.zeros(len(matching.agent_to_host))
    for ue, bs in enumerate(matching.agent_to_host):
        if bs is None:
            continue
        share = 1.0 / matching.loads[bs]
        if bs < n_mmw:
            se = (
                links.se_mmw_los[ue, bs]
                if links.los_state[ue, bs]
                else links.se_mmw_nlos[ue, bs]
            )
            rates[ue] = config.bandwidth_mmw_hz * share * se
        else:
            rates[ue] = config.bandwidth_muw_hz * share * links.se_muw[ue, bs - n_mmw]
    return rates


def slot_averaged_rates(
    matching: Matching,
    links: LinkRealization,
    los_slots: np.ndarray,
    config: ScenarioConfig,
) -> np.ndarray:
    """Per-UE rates averaged over a stack of per-slot LoS states."""
    acc = np.zeros(len(matching.agent_to_host))
    for slot_state in los_slots:
        acc += achievable_rates(matching, replace(links, los_state=slot_state), config)
    return acc / len(los_slots)


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
    loads = load_vector(matching)
    if per_ue_rate_bps is None:
        per_ue_rate_bps = achievable_rates(matching, links, config)
    on_muw = np.array(
        [bs is not None and bs >= links.n_mmw for bs in matching.agent_to_host]
    )
    return RunMetrics(
        loads=loads,
        delta_kappa=max_load_difference(loads),
        per_ue_rate_bps=per_ue_rate_bps,
        sum_rate_bps=float(per_ue_rate_bps.sum()),
        muw_rate_samples=per_ue_rate_bps[on_muw],
    )


def mean_mmq_sum_rate(
    config: ScenarioConfig,
    policy: PolicyConfig,
    n_runs: int,
    n_slots: int = 10,
) -> float:
    """Monte Carlo mean of the quota-aware policy's sum rate, bit/s."""
    total = 0.0
    for run in range(n_runs):
        cfg = replace(config, seed=config.seed + run)
        scenario = generate_scenario(cfg)
        links = realize_links(scenario, rng_stream(cfg.seed, STREAM_LINKS))
        matching = mmq_policy(scenario, links, scenario.los_prob, policy)
        slots = draw_los_slots(scenario, rng_stream(cfg.seed, STREAM_SLOTS), n_slots)
        rates = slot_averaged_rates(matching, links, slots, cfg)
        total += float(rates.sum())
    return total / n_runs


def optimal_min_quota_sweep(
    config: ScenarioConfig,
    m_values,
    quota_candidates,
    n_runs: int = 100,
    n_slots: int = 10,
) -> list[dict]:
    """Find the microwave minimum quota maximizing mean sum rate, per UE count.

    Runs the quota-aware policy with every candidate applied uniformly to the
    microwave BSs (mmW minima stay zero) and reports the argmax. Candidates
    that cannot be met (N2 * q > M) are skipped with a warning. Returns one
    row per M: {"m", "q_star", "mean_sum_rate_bps": {q: value}}.
    """
    rows = []
    for m in m_values:
        cfg = replace(config, n_ue=int(m))
        means: dict[int, float] = {}
        for q in quota_candidates:
            q = int(q)
            if cfg.n_muw * q > m:
                warnings.warn(
                    f"skipping q_min={q} at M={m}: microwave minima alone "
                    f"exceed the UE count",
                    stacklevel=2,
                )
                continue
            policy = PolicyConfig(q_min_muw=q)
            means[q] = mean_mmq_sum_rate(cfg, policy, n_runs, n_slots)
        if not means:
            continue
        q_star = max(means, key=lambda q: (means[q], -q))
        rows.append({"m": int(m), "q_star": q_star, "mean_sum_rate_bps": means})
    return rows
