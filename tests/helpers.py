"""Shared test utilities: random instances, loop-based reference oracles and
one batch of the Monte Carlo driver as its tasks run it.

The oracles are the row-wise stable argsort that the tie-guarded
preference sort replaced, the proposal-loop deferred acceptance, the per-agent
quota matcher that reads gates as sets (the two-pass host choice that the
precomputed walk order replaced), the per-agent verifier loops that the
array-based engine replaced, the per-UE, per-slot rate loop that the
vectorised rate code replaced, the per-bias CRE search, the 3-D distance
matrix and the one-shot LoS slot draw that the link-budget code replaced,
the one-generator-per-run scenario draw that the batched draw replaced, and
the radio chain as it was before it worked in place on its own temporaries,
and the brute-force enumeration of feasible matchings that the Pareto
closure replaced in ``verify``. They read an instance through plain
per-agent lists only, so they stay independent of the arrays' internals.
"""

from collections import deque
from dataclasses import dataclass
from typing import Iterator, Optional

import numpy as np

from cellassoc.channel import LinkBudget, LinkRealization, noise_power_dbm
from cellassoc.experiments import _point_tasks, _run_batch
from cellassoc.matching import (
    Matching,
    MatchingError,
    MatchingInstance,
    _require_one_run,
    build_matching,
)
from cellassoc.scenario import STREAM_SCENARIO, Scenario, ScenarioConfig, rng_stream


def random_feasible_instance(
    rng: np.random.Generator,
    max_agents: int = 6,
    max_hosts: int = 3,
    *,
    gates: bool = False,
    zero_capacity: bool = False,
    allow_empty: bool = False,
    by_assignment: bool = False,
) -> MatchingInstance:
    """Random instance whose quota sums admit a solution.

    By default every host takes at least one agent. The keywords widen the
    instance language: ``gates`` flags a random subset of each agent's
    hosts in the (M, N) bool mask, ``zero_capacity`` lets ``q_max`` be 0,
    and ``allow_empty`` lets M be 0. ``by_assignment`` draws the instance
    with ``assignment_bounded_instance``, which takes no rejection loop and
    so scales to the simulator's sizes.
    """
    m = int(rng.integers(0 if allow_empty else 1, max_agents + 1))
    n = int(rng.integers(1, max_hosts + 1))
    if by_assignment:
        return assignment_bounded_instance(rng, m, n, gates=gates, zero_capacity=zero_capacity)
    prefs = tuple(tuple(int(h) for h in rng.permutation(n)) for _ in range(m))
    master = tuple(int(a) for a in rng.permutation(m))
    low = 0 if zero_capacity else 1
    while True:
        q_max = rng.integers(low, max(m, low) + 1, size=n)
        if q_max.sum() >= m:
            break
    while True:
        q_min = np.array([rng.integers(0, hi + 1) for hi in q_max])
        if q_min.sum() <= m:
            break
    gated = None
    if gates:  # one draw per agent and host, in each agent's preference order
        gated = np.zeros((m, n), dtype=bool)
        draws = rng.random((m, n)) < 0.4
        np.put_along_axis(gated, np.array(prefs, dtype=int).reshape(m, n), draws, axis=-1)
    return MatchingInstance(
        n_agents=m,
        n_hosts=n,
        agent_prefs=prefs,
        master_list=master,
        q_min=tuple(int(q) for q in q_min),
        q_max=tuple(int(q) for q in q_max),
        gated=gated,
    )


def assignment_bounded_instance(
    rng: np.random.Generator, m: int, n: int, *, gates: bool = False, zero_capacity: bool = False
) -> MatchingInstance:
    """An M x N instance that is feasible by construction.

    The loads of a uniformly random assignment bound the quotas: host h gets
    ``q_min = floor(load * U)`` with U uniform in [0, 1) and ``q_max = load +
    {0, 1, 2}``, raised to at least 1 unless ``zero_capacity``. The
    assignment meets both, whatever the preferences. ``gates`` flags each
    (agent, host) pair alone with probability 0.4.
    """
    prefs = rng.permuted(np.tile(np.arange(n), (m, 1)), axis=-1)
    master = rng.permutation(m)
    load = np.bincount(rng.integers(0, n, size=m), minlength=n)
    q_min = np.floor(load * rng.random(n)).astype(int)
    q_max = load + rng.integers(0, 3, size=n)
    if not zero_capacity:
        q_max = np.maximum(q_max, 1)
    gated = rng.random((m, n)) < 0.4 if gates else None
    return MatchingInstance(m, n, prefs, master, q_min, q_max, gated)


def oracle_build_preferences(u: np.ndarray) -> np.ndarray:
    """Each UE's BS ids by descending utility, ties toward the lower BS index:
    one row-wise stable argsort of the negated (..., M, N) utilities."""
    return np.argsort(-u, axis=-1, kind="stable")


def pref_lists(instance: MatchingInstance) -> list[list[int]]:
    """Each agent's listed hosts, best first."""
    return [[h for h in row if h >= 0] for row in instance.agent_prefs.tolist()]


def gate_sets(instance: MatchingInstance) -> list[set[int]]:
    return [set(np.flatnonzero(row).tolist()) for row in instance.gated]


def ml_ranks(instance: MatchingInstance) -> list[int]:
    ranks = [0] * instance.n_agents
    for i, a in enumerate(instance.master_list.tolist()):
        ranks[a] = i
    return ranks


def oracle_deferred_acceptance(instance: MatchingInstance) -> Matching:
    """Agent-proposing DA as a proposal loop: hosts hold at most q_max agents
    and reject the master-list-worst holder when a better agent proposes."""
    prefs = pref_lists(instance)
    q_max = instance.q_max.tolist()
    ml_rank = ml_ranks(instance)
    next_choice = [0] * instance.n_agents
    held: list[list[int]] = [[] for _ in range(instance.n_hosts)]
    free = deque(instance.master_list.tolist())

    while free:
        agent = free.popleft()
        if next_choice[agent] >= len(prefs[agent]):
            continue  # exhausted every listed host; stays unmatched
        host = prefs[agent][next_choice[agent]]
        next_choice[agent] += 1
        if len(held[host]) < q_max[host]:
            held[host].append(agent)
            continue
        if not held[host]:
            free.append(agent)  # q_max == 0
            continue
        worst = max(held[host], key=lambda a: ml_rank[a])
        if ml_rank[agent] < ml_rank[worst]:
            held[host].remove(worst)
            held[host].append(agent)
            free.append(worst)
        else:
            free.append(agent)

    assignment = [-1] * instance.n_agents
    for host, agents in enumerate(held):
        for agent in agents:
            assignment[agent] = host
    return build_matching(assignment, instance.n_hosts)


def oracle_mmq_match(instance: MatchingInstance) -> Matching:
    """mmq_match per agent, gates as sets: in master-list order each agent
    takes its best ungated host with room, else its best host with room.
    Room is spare capacity while more agents are left than the unmet minimum
    quota (recounted from the loads each time), then an unmet minimum."""
    prefs, gated = pref_lists(instance), gate_sets(instance)
    q_min, q_max = instance.q_min.tolist(), instance.q_max.tolist()
    loads = [0] * instance.n_hosts
    assignment = [-1] * instance.n_agents
    for pos, agent in enumerate(instance.master_list.tolist()):
        deficit = sum(max(low - load, 0) for low, load in zip(q_min, loads))
        room = q_max if instance.n_agents - pos > deficit else q_min
        open_hosts = [h for h in prefs[agent] if loads[h] < room[h]]
        host = next((h for h in open_hosts if h not in gated[agent]), open_hosts[0])
        loads[host] += 1
        assignment[agent] = host
    return build_matching(assignment, instance.n_hosts)


def oracle_check_consistency(instance: MatchingInstance, matching: Matching) -> None:
    if len(matching.agent_to_host) != instance.n_agents:
        raise MatchingError("matching covers the wrong number of agents")
    if len(matching.loads) != instance.n_hosts:
        raise MatchingError("matching covers the wrong number of hosts")


def oracle_blocking_pairs(
    instance: MatchingInstance, matching: Matching
) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
    prefs = pref_lists(instance)
    gated = gate_sets(instance)
    ml_rank = ml_ranks(instance)
    pref_ranks = [{h: i for i, h in enumerate(p)} for p in prefs]
    q_min, q_max = instance.q_min.tolist(), instance.q_max.tolist()
    a2h, loads = matching.agent_to_host.tolist(), matching.loads.tolist()
    # Worst (largest) master-list rank currently held by each host.
    worst_held = [
        max((ml_rank[a] for a in agents), default=None)
        for agents in matching.host_to_agents
    ]
    capacity_aware: list[tuple[int, int]] = []
    literal: list[tuple[int, int]] = []
    for agent in range(instance.n_agents):
        current = a2h[agent]
        current_rank = (
            pref_ranks[agent].get(current, len(prefs[agent]))
            if current >= 0
            else len(prefs[agent])
        )
        for host in prefs[agent][:current_rank]:
            if host in gated[agent]:
                continue  # the agent itself ruled this host out
            envy = worst_held[host] is not None and ml_rank[agent] < worst_held[host]
            if envy:
                literal.append((agent, host))
                capacity_aware.append((agent, host))
            elif loads[host] < q_max[host]:
                leaves_feasible = current < 0 or (loads[current] > q_min[current])
                if leaves_feasible:
                    capacity_aware.append((agent, host))
    return capacity_aware, literal


DEFAULT_ENUMERATION_BUDGET = 10**6


class EnumerationBudgetError(MatchingError):
    """The instance is too large for exhaustive enumeration."""


def enumerate_feasible(
    instance: MatchingInstance, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Iterator[Matching]:
    """Yield every feasible matching exactly once (brute-force oracle).

    Feasible means every agent is assigned to a host and all quota bounds
    hold. Refuses instances with more than ``budget`` raw assignments to
    scan.
    """
    _require_one_run(instance)
    if instance.n_hosts**instance.n_agents > budget:
        raise EnumerationBudgetError(
            f"{instance.n_hosts}^{instance.n_agents} assignments exceed the "
            f"budget of {budget}"
        )
    q_min, q_max = instance.q_min.tolist(), instance.q_max.tolist()
    loads = [0] * instance.n_hosts
    assignment = [-1] * instance.n_agents

    def recurse(agent: int, deficit: int) -> Iterator[Matching]:
        # ``deficit``: the minimum quota still unmet once agents 0..agent-1 are placed.
        if deficit > instance.n_agents - agent:
            return  # not enough agents left to meet the minima
        if agent == instance.n_agents:
            yield build_matching(assignment, instance.n_hosts)
            return
        for host in range(instance.n_hosts):
            if loads[host] < q_max[host]:
                below_min = loads[host] < q_min[host]
                loads[host] += 1
                assignment[agent] = host
                yield from recurse(agent + 1, deficit - below_min)
                loads[host] -= 1

    yield from recurse(0, sum(q_min))


def oracle_pareto_optimal(instance: MatchingInstance, matching: Matching, budget: int) -> bool:
    # Hosts ranked in mmq_match's walk order: each agent's gated hosts after
    # all of its ungated ones, both best first.
    prefs = pref_lists(instance)
    gated = gate_sets(instance)
    walk_ranks = [
        {h: i + len(p) * (h in gated[a]) for i, h in enumerate(p)} for a, p in enumerate(prefs)
    ]
    a2h = matching.agent_to_host.tolist()
    ranks = [walk_ranks[a][a2h[a]] for a in range(instance.n_agents)]  # called when feasible
    for other in enumerate_feasible(instance, budget=budget):
        other_a2h = other.agent_to_host.tolist()
        other_ranks = [walk_ranks[a][other_a2h[a]] for a in range(instance.n_agents)]
        if all(o <= r for o, r in zip(other_ranks, ranks)) and any(
            o < r for o, r in zip(other_ranks, ranks)
        ):
            return False
    return True


@dataclass(frozen=True)
class OracleReport:
    """The answers ``oracle_verify`` gives, named as ``VerifierReport`` names them."""

    feasible: bool
    blocking_pairs: tuple[tuple[int, int], ...]
    blocking_pairs_literal: tuple[tuple[int, int], ...]
    pareto_optimal: Optional[bool] = None


def assert_reports_agree(report, want, index: tuple = ()) -> None:
    """Every answer of ``report`` (entry ``index`` of a stacked one) equals
    ``want``'s: feasibility, both pair tuples in the same order, the count of
    capacity-aware pairs, and the Pareto answer."""
    for name in ("feasible", "blocking_pairs", "blocking_pairs_literal", "pareto_optimal"):
        got = getattr(report, name)
        assert (got[index] if index else got) == getattr(want, name), name
    count = report.n_blocking_pairs
    assert (count[index] if index else count) == len(want.blocking_pairs)


def oracle_verify(
    instance: MatchingInstance, matching: Matching, enumeration_budget: int = 10**6
) -> OracleReport:
    """The verifier as per-agent loops; must agree with ``verify`` exactly."""
    oracle_check_consistency(instance, matching)
    q_min, q_max = instance.q_min.tolist(), instance.q_max.tolist()
    loads = matching.loads.tolist()
    feasible = all(h >= 0 for h in matching.agent_to_host.tolist()) and all(
        q_min[h] <= loads[h] <= q_max[h] for h in range(instance.n_hosts)
    )
    capacity_aware, literal = oracle_blocking_pairs(instance, matching)
    pareto = None
    if feasible and instance.n_hosts**instance.n_agents <= enumeration_budget:
        pareto = oracle_pareto_optimal(instance, matching, enumeration_budget)
    return OracleReport(
        feasible=feasible,
        blocking_pairs=tuple(capacity_aware),
        blocking_pairs_literal=tuple(literal),
        pareto_optimal=pareto,
    )


def oracle_slot_averaged_rates(matching: Matching, links, los_slots, config) -> np.ndarray:
    """Per-UE rates as a loop over slots and UEs: each slot's equal-split rate
    (LoS or NLoS SE on mmW, interference-limited SE on microwave, zero when
    unmatched) is added up in slot order, then divided by the slot count."""
    n_mmw = links.n_mmw
    acc = np.zeros(len(matching.agent_to_host))
    for slot_state in los_slots:
        rates = np.zeros(len(matching.agent_to_host))
        for ue, bs in enumerate(matching.agent_to_host.tolist()):
            if bs < 0:
                continue
            share = 1.0 / matching.loads[bs]
            if bs < n_mmw:
                se = (
                    links.se_mmw_los[ue, bs]
                    if slot_state[ue, bs]
                    else links.se_mmw_nlos[ue, bs]
                )
                rates[ue] = config.bandwidth_mmw_hz * share * se
            else:
                rates[ue] = config.bandwidth_muw_hz * share * links.se_muw[ue, bs - n_mmw]
        acc += rates
    return acc / len(los_slots)


def oracle_best_bias(metric: np.ndarray, n_mmw: int, grid, tier: str) -> tuple[float, list[int]]:
    """The per-bias CRE search: one copy, argmax and bincount per grid value,
    the first minimal load spread wins, then one more argmax at that bias."""

    def assign(bias):
        biased = metric.copy()
        if tier == "mmw":
            biased[:, :n_mmw] += bias
        else:
            biased[:, n_mmw:] += bias
        return np.argmax(biased, axis=1).tolist()

    spreads = [np.ptp(np.bincount(assign(b), minlength=metric.shape[1])) for b in grid]
    best = grid[int(np.argmin(spreads))]
    return best, assign(best)


def oracle_pairwise_distances(points_a, points_b) -> np.ndarray:
    """Distance matrix from one (len(a), len(b), 2) difference stack."""
    a = np.asarray(points_a, dtype=float).reshape(-1, 2)
    b = np.asarray(points_b, dtype=float).reshape(-1, 2)
    diff = a[:, None, :] - b[None, :, :]
    return np.sqrt(np.sum(diff * diff, axis=2))


def oracle_draw_los_slots(scenario, rng: np.random.Generator, n_slots: int) -> np.ndarray:
    """All slots' LoS states from one (n_slots, M, N1) uniform draw."""
    shape = (n_slots,) + scenario.los_prob.shape
    return rng.random(shape) < scenario.los_prob[None, :, :]


def _oracle_uniform_disk(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def oracle_generate_scenario(config: ScenarioConfig) -> Scenario:
    """One run's scenario from its own generator, one call per block."""
    rng = rng_stream(config.seed, STREAM_SCENARIO)
    mmw = _oracle_uniform_disk(rng, config.n_mmw, config.area_radius)
    muw = _oracle_uniform_disk(rng, config.n_muw, config.area_radius)
    ue = _oracle_uniform_disk(rng, config.n_ue, config.area_radius)
    shape_mmw = (config.n_ue, config.n_mmw)
    rho = rng.random(shape_mmw)
    shadow_los = rng.normal(0.0, config.pathloss_mmw_los.shadow_sigma_db, shape_mmw)
    shadow_nlos = rng.normal(0.0, config.pathloss_mmw_nlos.shadow_sigma_db, shape_mmw)
    shadow_muw = rng.normal(
        0.0, config.pathloss_muw.shadow_sigma_db, (config.n_ue, config.n_muw)
    )
    return Scenario(config, mmw, muw, ue, rho, shadow_los, shadow_nlos, shadow_muw)


# The radio chain before it worked in place: every step a new array.


def oracle_stacked_distances(points_a, points_b) -> np.ndarray:
    a, b = (np.asarray(p, dtype=float) for p in (points_a, points_b))
    a, b = (p.reshape(p.shape[:-2] + (-1, 2)) for p in (a, b))
    dx = a[..., :, None, 0] - b[..., None, :, 0]
    dy = a[..., :, None, 1] - b[..., None, :, 1]
    return np.sqrt(dx * dx + dy * dy)


def oracle_db_to_linear(x_db):
    return 10.0 ** (np.asarray(x_db, dtype=float) / 10.0)


def oracle_linear_to_db(x):
    return 10.0 * np.log10(np.asarray(x, dtype=float))


def oracle_path_loss_db(params, d, shadow_db=0.0):
    d = np.asarray(d, dtype=float)
    if np.any(d <= 0):
        raise ValueError("distance must be positive")
    out = (
        params.intercept_db
        + params.slope * 10.0 * np.log10(np.maximum(d, 1.0))
        + np.asarray(shadow_db, dtype=float)
    )
    return float(out) if out.ndim == 0 else out


def oracle_mmw_spectral_efficiency(p_dbm, psi_dbi, pathloss_db, w1_hz, n0_dbm_hz):
    snr_db = p_dbm + psi_dbi - np.asarray(pathloss_db, dtype=float) - noise_power_dbm(
        n0_dbm_hz, w1_hz
    )
    out = np.log2(1.0 + oracle_db_to_linear(snr_db))
    return float(out) if out.ndim == 0 else out


def oracle_link_budget(scenario) -> LinkBudget:
    cfg = scenario.config
    d = np.maximum(oracle_stacked_distances(scenario.ue_positions, scenario.mmw_positions), 1.0)
    loss_los = oracle_path_loss_db(cfg.pathloss_mmw_los, d, scenario.shadow_mmw_los)
    loss_nlos = oracle_path_loss_db(cfg.pathloss_mmw_nlos, d, scenario.shadow_mmw_nlos)
    d = np.maximum(oracle_stacked_distances(scenario.ue_positions, scenario.muw_positions), 1.0)
    loss_muw = oracle_path_loss_db(cfg.pathloss_muw, d, scenario.shadow_muw)
    rx_mw = oracle_db_to_linear(cfg.tx_power_dbm - loss_muw)
    interference_mw = rx_mw.sum(axis=-1, keepdims=True) - rx_mw
    noise_mw = oracle_db_to_linear(noise_power_dbm(cfg.noise_psd_dbm_hz, cfg.bandwidth_muw_hz))
    return LinkBudget(
        loss_mmw_los=loss_los,
        loss_mmw_nlos=loss_nlos,
        loss_muw=loss_muw,
        sinr_muw_db=oracle_linear_to_db(rx_mw / (interference_mw + noise_mw)),
    )


def oracle_realize_links(scenario, budget=None) -> LinkRealization:
    cfg = scenario.config
    if budget is None:
        budget = oracle_link_budget(scenario)
    return LinkRealization(
        se_mmw_los=oracle_mmw_spectral_efficiency(
            cfg.tx_power_dbm, cfg.antenna_gain_dbi, budget.loss_mmw_los,
            cfg.bandwidth_mmw_hz, cfg.noise_psd_dbm_hz,
        ),
        se_mmw_nlos=oracle_mmw_spectral_efficiency(
            cfg.tx_power_dbm, cfg.antenna_gain_dbi, budget.loss_mmw_nlos,
            cfg.bandwidth_mmw_hz, cfg.noise_psd_dbm_hz,
        ),
        se_muw=np.log2(1.0 + oracle_db_to_linear(budget.sinr_muw_db)),
    )


def oracle_compute_utilities(links, f) -> np.ndarray:
    f = np.asarray(f, dtype=float)
    expected_mmw = f * links.se_mmw_los + (1.0 - f) * links.se_mmw_nlos
    with np.errstate(divide="ignore"):
        return np.concatenate([np.log(expected_mmw), np.log(links.se_muw)], axis=-1)


def run_batch(exp, overrides: dict, runs: range) -> dict[str, list]:
    """``_run_batch`` on runs ``runs`` of grid point ``overrides``, handed the minimum
    quotas that the driver's tasks carry for those runs (None for fixed minima)."""
    rows = [row for *_, q_min in _point_tasks(exp, overrides) for row in q_min or ()]
    return _run_batch(exp, overrides, runs, rows[runs.start : runs.stop] or None)
