"""One-to-many matching with minimum and maximum quotas under a master list.

The engine is generic: "agents" propose-side players each end up with exactly
one "host", hosts hold between ``q_min`` and ``q_max`` agents, and every host
ranks agents by one shared master list. Provided here:

* ``mmq_match``      -- two-phase quota-respecting assignment; on complete
                        preference lists it returns a feasible matching
                        whenever the quota sums admit one. Incomplete lists
                        can make it fail on an instance that has one.
* ``deferred_acceptance`` -- classical agent-proposing DA against the maximum
                        quotas only; may violate minimum quotas.
* ``verify``         -- feasibility, blocking pairs (two readings), and an
                        exhaustive Pareto-optimality check on small instances.
* ``enumerate_feasible`` -- brute-force oracle over all feasible matchings.

Agents and hosts are integer ids 0..M-1 and 0..N-1.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import cached_property
from typing import Iterator, Optional, Sequence

import numpy as np

DEFAULT_ENUMERATION_BUDGET = 10**6
_PAD = np.iinfo(np.intp).max  # fills unlisted slots while an instance is validated


class MatchingError(ValueError):
    """Structural problem with an instance or a matching."""


class InfeasibleInstanceError(MatchingError):
    """Quota sums leave no feasible assignment (sum q_min <= M <= sum q_max fails)."""


class EnumerationBudgetError(MatchingError):
    """The instance is too large for exhaustive enumeration."""


@dataclass(frozen=True, eq=False)
class MatchingInstance:
    """A quota-constrained matching problem, held as arrays.

    ``agent_prefs`` (M, N) ranks host ids best-first per agent; -1 fills the
    slots of a short list, and unlisted hosts are unacceptable. ``master_list``
    (M,) ranks agent ids best-first for every host. ``gated`` (M, N) flags the
    hosts an agent avoids unless forced to meet a minimum quota; they keep
    their place in the order. Derived: ``rank[m, h]``, host h's position on
    agent m's list (``n_hosts`` if unlisted), and ``ml_rank[m]``, agent m's
    master-list position. The constructor also takes plain sequences: host
    tuples of any length, and None or one set of host ids per agent for
    ``gated``.
    """

    n_agents: int
    n_hosts: int
    agent_prefs: np.ndarray
    master_list: np.ndarray
    q_min: np.ndarray
    q_max: np.ndarray
    gated: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        m, n = self.n_agents, self.n_hosts
        if m < 0 or n < 0:
            raise MatchingError("agent and host counts must be non-negative")
        if len(self.agent_prefs) != m:
            raise MatchingError(f"expected {m} preference lists, got {len(self.agent_prefs)}")
        q_min = np.asarray(self.q_min, dtype=np.intp)
        q_max = np.asarray(self.q_max, dtype=np.intp)
        if q_min.shape != (n,) or q_max.shape != (n,):
            raise MatchingError("quota vectors must have one entry per host")
        bad = np.flatnonzero((q_min < 0) | (q_min > q_max))
        if bad.size:
            h, lo, hi = bad[0], q_min[bad[0]], q_max[bad[0]]
            raise MatchingError(f"host {h}: need 0 <= q_min <= q_max, got ({lo}, {hi})")
        master = np.asarray(self.master_list, dtype=np.intp)
        if master.shape != (m,) or not np.array_equal(np.sort(master), np.arange(m)):
            raise MatchingError("master list must be a permutation of all agents")
        prefs = _pref_matrix(self.agent_prefs, m, n)
        known = prefs.view(np.uintp) < n  # a slot holding a host id in 0..n-1
        rank = np.full((m, n + 1), n, dtype=np.int32)  # column n takes all other slots
        slots = prefs if known.all() else np.where(known, prefs, n)
        np.put_along_axis(rank, slots, np.arange(prefs.shape[1]), axis=1)
        rank = rank[:, :n]
        if slots is not prefs or not (rank < n).all():  # not complete lists of distinct hosts
            # A listed slot that set no rank names an unknown host or a duplicate.
            listed = prefs != _PAD
            bad = np.flatnonzero((rank < n).sum(axis=1) < listed.sum(axis=1))
            if bad.size:
                row = prefs[bad[0], listed[bad[0]]].tolist()
                dup = len(set(row)) < len(row)
                what = "contains duplicates" if dup else "names an unknown host"
                raise MatchingError(f"agent {bad[0]}: preference list {what}")
            prefs = np.where(listed, prefs, -1)[:, :n]  # a valid row lists at most n hosts
        if self.gated is not None and len(self.gated) != m:
            raise MatchingError("gated sets must have one entry per agent")
        gated = _gate_mask(self.gated, m, n)
        bad = np.flatnonzero((gated[:, :n] & (rank == n)).any(axis=1) | gated[:, n])
        if bad.size:
            raise MatchingError(f"agent {bad[0]}: gated host not on preference list")
        if q_min.sum() > m or m > q_max.sum():
            sums = f"sum q_min={q_min.sum()}, M={m}, sum q_max={q_max.sum()}"
            raise InfeasibleInstanceError(f"no feasible matching: {sums}")
        ml_rank = np.argsort(master)  # the inverse permutation
        self.__dict__.update(  # frozen: bypass __setattr__ to store the arrays
            agent_prefs=prefs, master_list=master, q_min=q_min, q_max=q_max,
            gated=gated[:, :n], rank=rank, ml_rank=ml_rank,
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchingInstance):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    @cached_property
    def _pref_rows(self) -> list[list[int]]:
        """Each agent's listed hosts, best first, as plain lists; converted once."""
        rows = self.agent_prefs.tolist()
        if (self.agent_prefs < 0).any():
            rows = [[h for h in row if h >= 0] for row in rows]
        return rows


def _pref_matrix(agent_prefs, m: int, n: int) -> np.ndarray:
    # Preference rows as an (M, W >= N) int array with _PAD in unlisted slots.
    if isinstance(agent_prefs, np.ndarray) and agent_prefs.shape == (m, n):
        prefs = np.asarray(agent_prefs, dtype=np.intp)
        return np.where(prefs < 0, _PAD, prefs) if (prefs < 0).any() else prefs
    prefs = np.full((m, max([n, *map(len, agent_prefs)])), _PAD, dtype=np.intp)
    for a, p in enumerate(agent_prefs):
        prefs[a, : len(p)] = p
    return prefs


def _gate_mask(gated, m: int, n: int) -> np.ndarray:
    # (M, N + 1) bool mask; column n takes the host ids outside 0..n-1.
    mask = np.zeros((m, n + 1), dtype=bool)
    if isinstance(gated, np.ndarray):
        mask[:, :n] = gated
    elif gated is not None:
        for a, hosts in enumerate(gated):
            for h in hosts:
                mask[a, h if 0 <= h < n else n] = True
    return mask


@dataclass(frozen=True, eq=False)
class Matching:
    """An assignment held as one (M,) ``agent_to_host`` array, -1 for an
    unmatched agent. ``loads`` (N,) counts each host's agents; both arrays are
    read-only, so the derived views always agree with the assignment.
    """

    agent_to_host: np.ndarray
    n_hosts: int

    def __post_init__(self) -> None:
        a2h = np.asarray(self.agent_to_host)
        if a2h.size and a2h.dtype.kind not in "iu":
            raise MatchingError(f"host ids must be integers, got {a2h.dtype}")
        a2h = a2h.astype(np.intp)  # a copy: the caller's array stays its own
        bad = np.flatnonzero((a2h < -1) | (a2h >= self.n_hosts))
        if bad.size:
            raise MatchingError(f"agent {bad[0]} assigned to unknown host {a2h[bad[0]]}")
        loads = np.bincount(a2h[a2h >= 0], minlength=self.n_hosts)
        for array in (a2h, loads):
            array.setflags(write=False)
        self.__dict__.update(agent_to_host=a2h, loads=loads)  # frozen: bypass __setattr__

    @property
    def host_to_agents(self) -> tuple[tuple[int, ...], ...]:
        """Each host's agents in increasing id order."""
        hosts: list[list[int]] = [[] for _ in range(self.n_hosts)]
        for agent, host in enumerate(self.agent_to_host.tolist()):
            if host >= 0:
                hosts[host].append(agent)
        return tuple(map(tuple, hosts))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Matching):
            return NotImplemented
        same_hosts = self.n_hosts == other.n_hosts
        return same_hosts and np.array_equal(self.agent_to_host, other.agent_to_host)


def build_matching(assignment: Sequence[int], n_hosts: int) -> Matching:
    """The Matching of a per-agent host list (-1 for an unmatched agent)."""
    return Matching(assignment, n_hosts)


def _best_listed_host(row, gate_row, loads, room) -> Optional[int]:
    # The first host h on the row with loads[h] < room[h]. A gated host is
    # taken only when no ungated one qualifies: the gate never strands an agent.
    if gate_row is not None:
        for h in row:
            if loads[h] < room[h] and not gate_row[h]:
                return h
    for h in row:
        if loads[h] < room[h]:
            return h
    return None


def _master_list_pass(instance: MatchingInstance, quota_aware: bool) -> Matching:
    # Each agent in master-list order takes its best listed host with room.
    # Deferred acceptance: room is a free slot, no gates, an agent whose list
    # runs out stays unmatched. mmq_match: gates apply, room turns into an
    # unmet minimum once every agent left is needed for one (phase 2), and a
    # list that runs out is an error.
    m_count = instance.n_agents
    rows = instance._pref_rows
    use_gates = quota_aware and instance.gated.any()
    gates = instance.gated.tolist() if use_gates else [None] * m_count
    q_min, q_max = instance.q_min.tolist(), instance.q_max.tolist()
    deficit = sum(q_min) if quota_aware else 0  # unmet minimum quota; DA stays in phase 1
    loads = [0] * instance.n_hosts
    assignment = [-1] * m_count
    for pos, agent in enumerate(instance.master_list.tolist()):
        phase_1 = m_count - pos > deficit  # once false, stays false
        host = _best_listed_host(rows[agent], gates[agent], loads, q_max if phase_1 else q_min)
        if host is None:
            if not quota_aware:
                continue
            raise MatchingError(
                f"agent {agent} ranks no host with "
                f"{'spare capacity' if phase_1 else 'an unmet minimum quota'}; "
                "preference list is too short for this instance"
            )
        if loads[host] < q_min[host]:
            deficit -= 1
        loads[host] += 1
        assignment[agent] = host
    return build_matching(assignment, instance.n_hosts)


def mmq_match(instance: MatchingInstance) -> Matching:
    """Two-phase master-list assignment honoring minimum and maximum quotas.

    Phase 1 walks the master list and gives each agent its most preferred
    host with spare capacity, but only while the number of unassigned agents
    exceeds the total unmet minimum quota. Phase 2 assigns everyone left, in
    master-list order, to their most preferred host whose minimum quota is
    still unmet. Gated hosts are skipped in both phases unless an agent has
    no ungated option, in which case the gate yields to feasibility.

    When every agent lists every host, the result is feasible, stable, and
    Pareto optimal for the agents (``verify`` checks all three). With
    incomplete lists a phase can run out of listed hosts and raise
    ``MatchingError``, even on an instance that has a feasible matching.
    """
    return _master_list_pass(instance, quota_aware=True)


def deferred_acceptance(instance: MatchingInstance) -> Matching:
    """Agent-proposing deferred acceptance against the maximum quotas.

    All hosts rank proposers by one master list, so the stable matching is
    unique and DA returns serial dictatorship in master-list order (Ergin,
    Econometrica 2002, the common-priority case). That runs here: phase 1 of
    ``mmq_match`` without gates and without the stop for minimum quotas; an
    agent whose list runs out stays unmatched. The result can violate
    minimum quotas; run ``verify`` to find out.
    """
    return _master_list_pass(instance, quota_aware=False)


@dataclass(frozen=True)
class VerifierReport:
    """Feasibility, blocking pairs under both readings, Pareto optimality.

    ``blocking_pairs`` uses the capacity-aware reading: an agent also blocks
    with a strictly preferred host that has a free slot, provided leaving its
    current host would not break that host's minimum quota. ``blocking_pairs_literal``
    counts only envy pairs, where the preferred host holds a master-list-worse
    agent. ``pareto_optimal`` is None when the matching is infeasible or the
    instance exceeds the enumeration budget.
    """

    feasible: bool
    blocking_pairs: tuple[tuple[int, int], ...]
    blocking_pairs_literal: tuple[tuple[int, int], ...]
    pareto_optimal: Optional[bool] = None


def _check_consistency(instance: MatchingInstance, matching: Matching) -> None:
    """Raise MatchingError unless the matching has the instance's agent and host counts."""
    if matching.agent_to_host.size != instance.n_agents:
        raise MatchingError("matching covers the wrong number of agents")
    if matching.n_hosts != instance.n_hosts:
        raise MatchingError("matching covers the wrong number of hosts")


def _blocking_pairs(
    instance: MatchingInstance, a2h: np.ndarray, loads: np.ndarray
) -> tuple[tuple[tuple[int, int], ...], tuple[tuple[int, int], ...]]:
    n = instance.n_hosts
    assigned = a2h >= 0
    current_rank = np.where(assigned, instance.rank[np.arange(instance.n_agents), a2h], n)
    # Worst (largest) master-list rank currently held by each host; -1 if empty.
    worst_held = np.full(n, -1, dtype=np.intp)
    np.maximum.at(worst_held, a2h[assigned], instance.ml_rank[assigned])
    # The agent itself ruled gated hosts out, so they never block.
    better = (instance.rank < current_rank[:, None]) & ~instance.gated
    envy = better & (instance.ml_rank[:, None] < worst_held)
    leaves_feasible = ~assigned | (loads[a2h] > instance.q_min[a2h])
    capacity_aware = envy | (better & (loads < instance.q_max) & leaves_feasible[:, None])
    return _pairs(instance, capacity_aware), _pairs(instance, envy)


def _pairs(instance: MatchingInstance, mask: np.ndarray) -> tuple[tuple[int, int], ...]:
    # (agent, host) pairs of the mask, by agent and then preference order.
    agents, hosts = np.nonzero(mask)
    order = np.lexsort((instance.rank[agents, hosts], agents))
    return tuple(zip(agents[order].tolist(), hosts[order].tolist()))


def enumerate_feasible(
    instance: MatchingInstance, budget: int = DEFAULT_ENUMERATION_BUDGET
) -> Iterator[Matching]:
    """Yield every feasible matching exactly once (brute-force oracle).

    Feasible means every agent is assigned to a host on its list and all
    quota bounds hold. Refuses instances with more than ``budget`` raw
    assignments to scan.
    """
    if instance.n_hosts**instance.n_agents > budget:
        raise EnumerationBudgetError(
            f"{instance.n_hosts}^{instance.n_agents} assignments exceed the "
            f"budget of {budget}"
        )
    rows = instance._pref_rows
    q_min, q_max = instance.q_min.tolist(), instance.q_max.tolist()
    loads = [0] * instance.n_hosts
    assignment = [-1] * instance.n_agents
    deficit = sum(q_min)

    def recurse(agent: int) -> Iterator[Matching]:
        nonlocal deficit
        if agent == instance.n_agents:
            if deficit == 0:
                yield build_matching(assignment, instance.n_hosts)
            return
        remaining = instance.n_agents - agent
        if deficit > remaining:
            return  # not enough agents left to meet the minima
        for host in sorted(rows[agent]):
            if loads[host] >= q_max[host]:
                continue
            below_min = loads[host] < q_min[host]
            loads[host] += 1
            if below_min:
                deficit -= 1
            assignment[agent] = host
            yield from recurse(agent + 1)
            assignment[agent] = -1
            loads[host] -= 1
            if below_min:
                deficit += 1

    yield from recurse(0)


def _pareto_optimal(instance: MatchingInstance, matching: Matching, budget: int) -> bool:
    # Hosts not on an agent's list rank below everything it did list.
    agents = np.arange(instance.n_agents)
    ranks = instance.rank[agents, matching.agent_to_host]
    for other in enumerate_feasible(instance, budget=budget):
        other_ranks = instance.rank[agents, other.agent_to_host]
        if (other_ranks <= ranks).all() and (other_ranks < ranks).any():
            return False
    return True


def verify(
    instance: MatchingInstance,
    matching: Matching,
    enumeration_budget: int = DEFAULT_ENUMERATION_BUDGET,
) -> VerifierReport:
    """Check feasibility, enumerate blocking pairs, and (when the instance is
    small enough) decide Pareto optimality by exhaustive comparison.

    Pairs the agent gated out are never counted as blocking; the agent
    declared the host inadmissible itself. Pairs are listed by agent, then
    in the agent's preference order. The Pareto check runs only for feasible
    matchings on instances within the enumeration budget.
    """
    _check_consistency(instance, matching)
    a2h, loads = matching.agent_to_host, matching.loads
    feasible = bool(
        (a2h >= 0).all() and ((instance.q_min <= loads) & (loads <= instance.q_max)).all()
    )
    capacity_aware, literal = _blocking_pairs(instance, a2h, loads)
    pareto: Optional[bool] = None
    if feasible and instance.n_hosts**instance.n_agents <= enumeration_budget:
        pareto = _pareto_optimal(instance, matching, enumeration_budget)
    return VerifierReport(
        feasible=feasible,
        blocking_pairs=capacity_aware,
        blocking_pairs_literal=literal,
        pareto_optimal=pareto,
    )


def format_instance(instance: MatchingInstance) -> str:
    """Serialize to the plain-text exchange format.

    Line 1: ``M N``. Line 2: the N minimum quotas. Line 3: the N maximum
    quotas. Then M preference lines (host ids, best first) and one final
    line with the master list (agent ids, best first). Gates are not part
    of the format.
    """
    lines = [
        f"{instance.n_agents} {instance.n_hosts}",
        " ".join(map(str, instance.q_min.tolist())),
        " ".join(map(str, instance.q_max.tolist())),
    ]
    lines.extend(" ".join(map(str, row)) for row in instance._pref_rows)
    lines.append(" ".join(map(str, instance.master_list.tolist())))
    return "\n".join(lines) + "\n"


def parse_instance(text: str) -> MatchingInstance:
    """Parse the plain-text exchange format written by ``format_instance``."""
    lines = [ln for ln in (raw.strip() for raw in text.splitlines()) if ln]
    if not lines:
        raise MatchingError("empty instance file")
    try:
        m, n = (int(tok) for tok in lines[0].split())
    except ValueError as exc:
        raise MatchingError(f"bad header line {lines[0]!r}") from exc
    if len(lines) != 4 + m:
        raise MatchingError(f"expected {4 + m} lines for M={m}, got {len(lines)}")
    q_min = tuple(int(tok) for tok in lines[1].split())
    q_max = tuple(int(tok) for tok in lines[2].split())
    prefs = tuple(tuple(int(tok) for tok in lines[3 + i].split()) for i in range(m))
    master = tuple(int(tok) for tok in lines[3 + m].split())
    return MatchingInstance(
        n_agents=m, n_hosts=n, agent_prefs=prefs,
        master_list=master, q_min=q_min, q_max=q_max,
    )
