"""One-to-many matching with minimum and maximum quotas under a master list.

The engine is generic: "agents" propose-side players each end up with exactly
one "host", hosts hold between ``q_min`` and ``q_max`` agents, and every host
ranks agents by one shared master list. Every agent ranks every host (an
instance with a shorter or longer preference list is rejected). Provided here:

* ``mmq_match``      -- two-phase quota-respecting assignment; it returns a
                        feasible matching whenever the quota sums admit one.
* ``deferred_acceptance`` -- classical agent-proposing DA against the maximum
                        quotas only; may violate minimum quotas.
* ``verify``         -- feasibility, blocking pairs (two readings), and Pareto
                        optimality by closure of the host-improvement digraph.

Agents and hosts are integer ids 0..M-1 and 0..N-1. An instance may stack R
runs of one size on a leading axis: it is validated once, the matchers walk
each run and return an (R, M) matching, and ``verify`` checks an (R, P, M)
stack of assignments in one array pass. Without the axis, the same code
checks one run.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field, fields
from functools import cached_property
from typing import Optional, Sequence

import numpy as np

from .channel import _row_blocks


class MatchingError(ValueError):
    """Structural problem with an instance or a matching. ``run`` is the index
    of the failing run of a stacked instance (None otherwise); it prefixes the
    message."""

    run: Optional[int] = None

    def __str__(self) -> str:
        text = super().__str__()
        return text if self.run is None else f"run {self.run}: {text}"


class InfeasibleInstanceError(MatchingError):
    """Quota sums leave no feasible assignment (sum q_min <= M <= sum q_max fails)."""


@dataclass(frozen=True, eq=False)
class MatchingInstance:
    """A quota-constrained matching problem, held as arrays.

    ``agent_prefs`` (M, N) ranks all N host ids best-first per agent: each row
    is a permutation of 0..N-1, stored like ``rank`` in ``_pref_dtype(N)``, the
    smallest unsigned type holding N - 1. ``master_list`` (M,) ranks agent ids
    best-first for every host. ``gated`` is None (no gates: a read-only False
    view) or an (M, N) bool array flagging the hosts an agent avoids unless
    forced to meet a minimum quota; they keep their place in ``agent_prefs``.
    Derived: ``ml_rank[m]``, agent m's master-list position, and ``rank[m, h]``,
    host h's position on agent m's list, derived on first read (construction
    only checks the rows). ``agent_prefs`` may also be given as one N-host tuple
    per agent. Every id must be an integer; a preference id beyond int32 is
    refused, and ids are cast only once their rows are checked, never wrapped.
    The arrays are stored as read-only views (preferences of another dtype as
    a compact copy): the caller must not write to an array it passed in.

    A stacked instance holds R runs that share M and N: an (R, M, N)
    ``agent_prefs`` array gives every array a leading run axis (quotas given
    per host apply to every run). It is validated as a whole; a run that
    fails raises the error it raises alone, with ``run`` set to the lowest
    such run. ``run(k)`` gives run k as a single-run instance.
    """

    n_agents: int
    n_hosts: int
    agent_prefs: np.ndarray
    master_list: np.ndarray
    q_min: np.ndarray
    q_max: np.ndarray
    gated: Optional[np.ndarray] = None

    def __post_init__(self) -> None:
        # Counts pass the ids' rule: integers, never bools or floats.
        m, n = (int(_integers(name, getattr(self, name))) for name in ("n_agents", "n_hosts"))
        if m < 0 or n < 0:
            raise MatchingError("agent and host counts must be non-negative")
        prefs = self.agent_prefs
        lead = prefs.shape[:1] if isinstance(prefs, np.ndarray) and prefs.ndim == 3 else ()
        shape = lead + (m, n)
        if isinstance(prefs, np.ndarray):
            if prefs.shape != shape:
                raise MatchingError(f"agent_prefs must be a {shape} array, got {prefs.shape}")
        else:
            if len(prefs) != m:
                raise MatchingError(f"expected {m} preference lists, got {len(prefs)}")
            for a, row in enumerate(prefs):
                if len(row) != n:
                    got = f"must rank all {n} hosts, got {len(row)}"
                    raise MatchingError(f"agent {a}: preference list {got}")
            prefs = np.asarray(prefs).reshape(m, n)
        prefs = _integers("agent_prefs", prefs, prefs.dtype)  # the int32 range: a run's check
        q_min, q_max = _integers("q_min", self.q_min), _integers("q_max", self.q_max)
        if not {q_min.shape, q_max.shape} <= {(n,), lead + (n,)}:
            raise MatchingError("quota vectors must have one entry per host")
        q_min, q_max = (np.broadcast_to(q, lead + (n,)) for q in (q_min, q_max))
        master = _integers("master_list", self.master_list)
        if master.shape != lead + (m,):
            raise MatchingError("master list must be a permutation of all agents")
        gates = np.broadcast_to(np.False_, shape) if self.gated is None else self.gated
        got = gates.shape if isinstance(gates, np.ndarray) else type(gates).__name__
        if got != shape:
            raise MatchingError(f"gated must be a {shape} array, got {got}")
        if gates.dtype != bool:
            raise MatchingError(f"gated must be a bool array, got {gates.dtype}")
        try:
            _fits("agent_prefs", prefs, np.int32)
            arrays = _validated(m, n, prefs, master, q_min, q_max, gates)
        except MatchingError as exc:
            if not lead:
                raise
            for k in range(lead[0]):  # the lowest failing run raises its own error
                try:
                    MatchingInstance(m, n, prefs[k], master[k], q_min[k], q_max[k], gates[k])
                except MatchingError as run_exc:
                    run_exc.run = k
                    raise run_exc from None
            raise exc
        self.__dict__.update(arrays)  # frozen: bypass __setattr__ to store the arrays

    def run(self, k: int) -> "MatchingInstance":
        """Run ``k`` of a stacked instance as a single-run instance."""
        return MatchingInstance(
            self.n_agents, self.n_hosts, self.agent_prefs[k], self.master_list[k],
            self.q_min[k], self.q_max[k], self.gated[k],
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, MatchingInstance):
            return NotImplemented
        return all(
            np.array_equal(getattr(self, f.name), getattr(other, f.name))
            for f in fields(self)
        )

    @cached_property
    def rank(self) -> np.ndarray:
        """(..., M, N) in ``agent_prefs``' dtype, read-only: ``rank[m, h]`` is host h's
        position on agent m's list. One flat scatter per row block of ``agent_prefs``,
        built on first read."""
        rank = np.empty(self.agent_prefs.shape, self.agent_prefs.dtype)  # C order: a view below
        rows = rank.reshape(math.prod(rank.shape[:-1]), self.n_hosts)
        positions = np.arange(self.n_hosts, dtype=rank.dtype)
        for start, block, flat in _pref_blocks(self.agent_prefs):
            rows[start : start + len(block)].reshape(-1)[flat] = positions
        rank.setflags(write=False)
        return rank

    @cached_property
    def _walk_order(self) -> np.ndarray:
        """``agent_prefs`` in ``mmq_match``'s order, ascending ``rank + N * gated``, in
        its dtype. The key is intp, so ``N * gated`` cannot wrap a compact ``rank``."""
        if not self.gated.any():
            return self.agent_prefs
        key = self.rank + np.intp(self.n_hosts) * self.gated
        return np.argsort(key, axis=-1).astype(self.agent_prefs.dtype)


def _pref_dtype(n_hosts: int) -> np.dtype:
    """The dtype of an N-host instance's preferences and ranks: the smallest unsigned
    type that holds every host id 0..N-1."""
    return np.min_scalar_type(max(n_hosts - 1, 0))


def _integers(name: str, values, dtype=np.intp) -> np.ndarray:
    # A ``dtype`` array; a non-empty one of another kind is refused, not truncated,
    # and a value beyond ``dtype`` is refused before the cast, not wrapped.
    array = np.asarray(values)
    if array.size and array.dtype.kind not in "iu":
        raise MatchingError(f"{name} must be integers, got {array.dtype}")
    _fits(name, array, dtype)
    return array.astype(dtype, copy=False)


def _fits(name: str, array: np.ndarray, dtype) -> None:
    # Refuse an integer array holding a value beyond ``dtype``; no copy is made.
    if array.size and not np.can_cast(array.dtype, dtype):
        info, low, high = np.iinfo(dtype), int(array.min()), int(array.max())
        if low < info.min or high > info.max:
            got = high if high > info.max else low
            raise MatchingError(f"{name} must fit in {np.dtype(dtype)}, got {got}")


def _validated(m: int, n: int, prefs, master, q_min, q_max, gated) -> dict:
    # The checks every run must pass, on arrays with an optional leading run
    # axis, and the instance's stored arrays. A failure's message describes
    # the first failing entry of a single-run instance.
    bad = np.argwhere((q_min < 0) | (q_min > q_max))
    if bad.size:
        at = tuple(bad[0])
        got = f"({q_min[at]}, {q_max[at]})"
        raise MatchingError(f"host {at[-1]}: need 0 <= q_min <= q_max, got {got}")
    ml_rank = np.argsort(master, axis=-1)  # for a permutation, the inverse one
    if not (np.take_along_axis(master, ml_rank, -1) == np.arange(m)).all():
        raise MatchingError("master list must be a permutation of all agents")
    for start, block, flat in _pref_blocks(prefs):  # each row names every host once
        seen = np.zeros(flat.size, dtype=bool)
        if block.max(initial=0) < n and (block.dtype.kind == "u" or block.min(initial=0) >= 0):
            seen[flat.reshape(-1)] = True
        if not seen.all():
            rows = block.tolist()
            at = next(i for i, row in enumerate(rows) if set(row) != set(range(n)))
            what = "contains duplicates" if len(set(rows[at])) < n else "names an unknown host"
            raise MatchingError(f"agent {(start + at) % m}: preference list {what}")
    low, high = q_min.sum(axis=-1), q_max.sum(axis=-1)
    if (low > m).any() or (m > high).any():
        sums = f"sum q_min={low.max()}, M={m}, sum q_max={high.min()}"
        raise InfeasibleInstanceError(f"no feasible matching: {sums}")
    prefs = prefs.astype(_pref_dtype(n), copy=False)  # read in place until every row is checked
    arrays = dict(
        agent_prefs=prefs, master_list=master, q_min=q_min, q_max=q_max,
        gated=gated, ml_rank=ml_rank,
    )
    return {name: np.broadcast_to(x, x.shape) for name, x in arrays.items()}  # read-only views


def _pref_blocks(prefs: np.ndarray):
    # The rows of the (..., M, N) ``prefs`` in ``channel._row_blocks``: each block's first
    # row, its (B, N) rows, and the flat index i * N + prefs[i, j] of each entry within the
    # block's table, as intp. The row offsets are taken once, for the first (longest) block.
    *lead, n = prefs.shape
    rows = prefs.reshape(math.prod(lead), n)
    blocks = _row_blocks(len(rows), n)
    offsets = n * np.arange(blocks[0].stop if blocks else 0)[:, None]
    for block in blocks:
        values = rows[block]
        yield block.start, values, np.add(values, offsets[: len(values)], dtype=np.intp)


@dataclass(frozen=True, eq=False)
class Matching:
    """An assignment held as one (M,) ``agent_to_host`` array, -1 for an
    unmatched agent. ``loads`` (N,) counts each host's agents; both arrays are
    read-only, so the derived views always agree with the assignment. An
    (..., M) array holds one assignment per leading index, with (..., N) loads.
    One ``bincount`` of N + 1 bins per assignment counts them; bin 0 (agents at -1) is dropped.
    """

    agent_to_host: np.ndarray
    n_hosts: int

    def __post_init__(self) -> None:
        _integers("n_hosts", self.n_hosts)  # a count, refused as the ids are
        a2h = _integers("host ids", self.agent_to_host).copy()  # the caller's array stays its own
        bad = (a2h < -1) | (a2h >= self.n_hosts)
        if bad.any():  # argwhere only on failure: it costs more than the check
            at = tuple(np.argwhere(bad)[0])
            where = f"matching {list(at[:-1])}: " if len(at) > 1 else ""
            raise MatchingError(f"{where}agent {at[-1]} assigned to unknown host {a2h[at]}")
        lead, bins = a2h.shape[:-1], self.n_hosts + 1
        flat = _flat_hosts(a2h, bins)
        flat += 1  # host h in bin h + 1, an unmatched agent in bin 0
        loads = np.bincount(flat.reshape(-1), minlength=math.prod(lead) * bins)
        loads = loads.reshape(lead + (bins,))[..., 1:]
        for array in (a2h, loads):
            array.setflags(write=False)
        self.__dict__.update(agent_to_host=a2h, loads=loads)  # frozen: bypass __setattr__

    @property
    def host_to_agents(self) -> tuple[tuple[int, ...], ...]:
        """Each host's agents in increasing id order (one assignment)."""
        if self.agent_to_host.ndim != 1:
            raise MatchingError("host_to_agents needs one (M,) assignment, not a stack")
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


def _flat_hosts(a2h: np.ndarray, n_hosts: int) -> np.ndarray:
    # Host ids of an (..., M) assignment made distinct across leading indices:
    # host h of the i-th assignment (in C order) becomes i * n_hosts + h.
    lead = a2h.shape[:-1]
    return a2h + n_hosts * np.arange(math.prod(lead)).reshape(lead + (1,))


def build_matching(assignment: Sequence[int], n_hosts: int) -> Matching:
    """The Matching of a per-agent host list (-1 for an unmatched agent)."""
    return Matching(assignment, n_hosts)


def _master_list_pass(instance: MatchingInstance, quota_aware: bool) -> Matching:
    # Each agent in master-list order takes the first host with room on its row
    # of a flat view of the order array. Deferred acceptance: ``agent_prefs``, room
    # is a free slot. mmq_match: ``_walk_order`` (gated hosts last), and room turns
    # into an unmet minimum once every agent left is needed for one (phase 2).
    # Complete rows and sum q_min <= M <= sum q_max leave each phase a host.
    m, n = instance.n_agents, instance.n_hosts
    stacked = instance.agent_prefs.ndim == 3
    r = len(instance.agent_prefs) if stacked else 1
    order = instance._walk_order if quota_aware else instance.agent_prefs
    walk = memoryview(order.reshape(-1))  # a C-order copy only when not C-contiguous
    runs = zip(
        [k * m * n for k in range(r)],  # each run's offset into ``walk``
        instance.master_list.reshape(r, m).tolist(),
        instance.q_min.reshape(r, n).tolist(),
        instance.q_max.reshape(r, n).tolist(),
    )
    hosts = []
    for base, master, q_min, q_max in runs:
        deficit = sum(q_min) if quota_aware else 0  # unmet minimum quota; DA stays in phase 1
        loads = [0] * n
        assignment = [-1] * m
        for pos, agent in enumerate(master):
            room = q_max if m - pos > deficit else q_min  # phase 1, then phase 2 for good
            at = base + agent * n  # the agent's row is walk[at : at + n]
            host = walk[at]
            if loads[host] >= room[host]:  # most take their first choice; the rest scan on
                for host in walk[at + 1 : at + n]:
                    if loads[host] < room[host]:
                        break
            if loads[host] < q_min[host]:
                deficit -= 1
            loads[host] += 1
            assignment[agent] = host
        hosts.append(assignment)
    return build_matching(hosts if stacked else hosts[0], n)


def mmq_match(instance: MatchingInstance) -> Matching:
    """Two-phase master-list assignment honoring minimum and maximum quotas.

    Phase 1 walks the master list and gives each agent its most preferred
    host with spare capacity, but only while the number of unassigned agents
    exceeds the total unmet minimum quota. Phase 2 assigns everyone left, in
    master-list order, to their most preferred host whose minimum quota is
    still unmet. Both phases walk an agent's ungated hosts best first, then
    its gated ones (ascending ``rank + N * gated``): a gated host is taken
    only when no ungated one has room, so the gate yields to feasibility.

    Every agent ranks every host, so the result is feasible, stable, and
    Pareto optimal for the agents under that order (``verify`` checks all
    three). A stacked instance gives an (R, M) matching, one walk per run.
    """
    return _master_list_pass(instance, quota_aware=True)


def deferred_acceptance(instance: MatchingInstance) -> Matching:
    """Agent-proposing deferred acceptance against the maximum quotas.

    All hosts rank proposers by one master list, so the stable matching is
    unique and DA returns serial dictatorship in master-list order (Ergin,
    Econometrica 2002, the common-priority case). That runs here: phase 1 of
    ``mmq_match`` without gates and without the stop for minimum quotas, so
    every agent is matched. The result can violate minimum quotas; run
    ``verify`` to find out.
    """
    return _master_list_pass(instance, quota_aware=False)


@dataclass(frozen=True, eq=False)
class VerifierReport:
    """Feasibility, blocking pairs under both readings, Pareto optimality.

    ``capacity_aware`` and ``envy`` are (M, N) bool masks of the blocking
    (agent, host) pairs. The capacity-aware reading: an agent also blocks
    with a strictly preferred host that has a free slot, provided leaving its
    current host would not break that host's minimum quota. The envy
    (literal) reading counts only pairs where the preferred host holds a
    master-list-worse agent. ``blocking_pairs`` and ``blocking_pairs_literal``
    list the two masks' pairs by agent, then in the agent's preference order
    (``rank``), built when first read; ``n_blocking_pairs`` counts the
    capacity-aware ones. ``pareto_optimal`` is None for an infeasible
    matching; else it is built when first read from the ``instance`` and
    ``matching`` the report refers to. A feasible matching is Pareto optimal
    in ``mmq_match``'s walk order iff the host-improvement digraph (h -> g
    when an agent at h ranks g before h) has no cycle and no path from a host
    with load > q_min to one with load < q_max (Abraham et al., ISAAC 2004).

    A report on an (..., M) matching gives every field its leading axes:
    ``feasible`` and ``n_blocking_pairs`` as arrays, the pair tuples and
    Pareto answers as object arrays. Entry [i] of each is what checking
    assignment i alone gives.
    """

    feasible: bool
    capacity_aware: np.ndarray = field(repr=False)
    envy: np.ndarray = field(repr=False)
    instance: MatchingInstance = field(repr=False)
    matching: Matching = field(repr=False)

    @property
    def n_blocking_pairs(self):
        return _scalar(self.capacity_aware.sum(axis=(-2, -1)))

    @cached_property
    def blocking_pairs(self) -> tuple[tuple[int, int], ...]:
        return self._pairs(self.capacity_aware)

    @cached_property
    def blocking_pairs_literal(self) -> tuple[tuple[int, int], ...]:
        return self._pairs(self.envy)

    @cached_property
    def pareto_optimal(self) -> Optional[bool]:
        a2h, loads, n = self.matching.agent_to_host, self.matching.loads, self.matching.n_hosts
        rank, gated, _, q_min, q_max = _aligned(self.instance, a2h.ndim)
        key = rank + np.intp(n) * gated  # mmq_match's walk order, gated hosts last, as intp
        host = np.maximum(a2h, 0)  # an unassigned agent: infeasible, answered None below
        better = key < np.take_along_axis(key, host[..., None], -1)
        # reach[..., h, g]: the edge h -> g, then (boolean Warshall, no BLAS) a path.
        *lead, agent, g = np.nonzero(better)
        reach = np.zeros(loads.shape + (n,), dtype=bool)
        reach[(*lead, host[(*lead, agent)], g)] = True
        for k in range(n):
            reach |= reach[..., :, k, None] & reach[..., None, k, :]
        cycle = reach.diagonal(axis1=-2, axis2=-1).any(axis=-1)
        reach &= (loads > q_min)[..., :, None] & (loads < q_max)[..., None, :]
        return _scalar(np.where(self.feasible, ~(cycle | reach.any(axis=(-2, -1))), None))

    def _pairs(self, mask: np.ndarray):
        # The (agent, host) pairs of each (M, N) mask, by agent and then preference order.
        rank = np.broadcast_to(_aligned(self.instance, mask.ndim - 1)[0], mask.shape)
        pairs = np.empty(mask.shape[:-2], dtype=object)
        for i in np.ndindex(pairs.shape):
            agents, hosts = np.nonzero(mask[i])
            order = np.lexsort((rank[i][agents, hosts], agents))
            pairs[i] = tuple(zip(agents[order].tolist(), hosts[order].tolist()))
        return _scalar(pairs)


def _scalar(values: np.ndarray):
    # A value with no leading axes as a plain Python value; arrays stay arrays.
    return values.item() if values.ndim == 0 else values


def _check_consistency(instance: MatchingInstance, matching: Matching) -> None:
    """Raise MatchingError unless the matching has the instance's agent and
    host counts and its leading axes start with the instance's run axis."""
    a2h = matching.agent_to_host
    if a2h.shape[-1] != instance.n_agents:
        raise MatchingError("matching covers the wrong number of agents")
    if matching.n_hosts != instance.n_hosts:
        raise MatchingError("matching covers the wrong number of hosts")
    runs = instance.agent_prefs.shape[:-2]
    if a2h.shape[:-1][: len(runs)] != runs:
        raise MatchingError(f"matching's leading axes must start with the instance's {runs}")


def _require_one_run(instance: MatchingInstance) -> None:
    if instance.agent_prefs.ndim == 3:
        raise MatchingError("a stacked instance: take one run with instance.run(k)")


def verify(
    instance: MatchingInstance, matching: Matching, enumeration_budget: Optional[int] = None
) -> VerifierReport:
    """Check feasibility and find blocking pairs; the report decides Pareto
    optimality when its ``pareto_optimal`` is first read.

    Pairs the agent gated out are never counted as blocking; the agent
    declared the host inadmissible itself. ``enumeration_budget`` is
    accepted and ignored: it has no effect.

    The matching may carry leading axes; a stacked instance's run axis must
    lead them (an (R, P, M) matching holds P assignments per run). One array
    pass checks every assignment, and the report carries the leading axes.
    """
    _check_consistency(instance, matching)
    a2h, loads, n = matching.agent_to_host, matching.loads, instance.n_hosts
    rank, gated, ml_rank, q_min, q_max = _aligned(instance, a2h.ndim)
    assigned = a2h >= 0
    feasible = assigned.all(axis=-1) & ((q_min <= loads) & (loads <= q_max)).all(axis=-1)
    host = np.maximum(a2h, 0)  # the unassigned read host 0, masked out below
    held = np.take_along_axis(rank, host[..., None], -1)[..., 0]
    current_rank = np.where(assigned, held, np.intp(n))  # intp: a compact rank cannot hold N
    # Worst (largest) master-list rank currently held by each host; -1 if empty.
    worst_held = np.full(loads.shape, -1, dtype=np.intp)
    held_ml = np.broadcast_to(ml_rank, a2h.shape)[assigned]
    np.maximum.at(worst_held.reshape(-1), _flat_hosts(a2h, n)[assigned], held_ml)
    leaves_feasible = ~assigned | (
        np.take_along_axis(loads, host, -1) > np.take_along_axis(q_min, host, -1)
    )
    # In place, so that three (..., M, N) bool arrays at most are alive at once.
    # The agent itself ruled gated hosts out, so they never block.
    better = rank < current_rank[..., None]
    better &= ~gated
    envy = ml_rank[..., None] < worst_held[..., None, :]
    envy &= better
    capacity_aware = better  # better & free slot & leaving keeps the minimum, or envy
    capacity_aware &= (loads < q_max)[..., None, :]
    capacity_aware &= leaves_feasible[..., None]
    capacity_aware |= envy
    return VerifierReport(
        feasible=_scalar(feasible),
        capacity_aware=capacity_aware,
        envy=envy,
        instance=instance,
        matching=matching,
    )


def _aligned(instance: MatchingInstance, ndim: int) -> list[np.ndarray]:
    # rank, gated, ml_rank, q_min and q_max as views with a unit axis for each
    # of an ndim-axis matching's leading axes after the run axis.
    runs = instance.agent_prefs.ndim - 2  # 1 for a stacked instance
    at = (slice(None),) * runs + (None,) * (ndim - 1 - runs)
    names = ("rank", "gated", "ml_rank", "q_min", "q_max")
    return [getattr(instance, name)[at] for name in names]


def format_instance(instance: MatchingInstance) -> str:
    """Serialize to the plain-text exchange format.

    Line 1: ``M N``. Line 2: the N minimum quotas. Line 3: the N maximum
    quotas. Then M preference lines (all N host ids, best first, a gated
    host's id followed by ``*``) and one final line with the master list
    (agent ids, best first). A line with no entries is written ``-``.
    """
    _require_one_run(instance)
    gated, prefs = instance.gated.tolist(), instance.agent_prefs.tolist()
    prefs = [[f"{h}*" if gated[a][h] else h for h in row] for a, row in enumerate(prefs)]
    rows = [instance.q_min.tolist(), instance.q_max.tolist(), *prefs, instance.master_list.tolist()]
    body = [" ".join(map(str, row)) or "-" for row in rows]
    return "\n".join([f"{instance.n_agents} {instance.n_hosts}", *body]) + "\n"


def parse_instance(text: str) -> MatchingInstance:
    """Parse the plain-text exchange format written by ``format_instance``.

    Blank lines are skipped; a line holding only ``-`` has no entries. A
    token other than ``-?[0-9]+`` (with a trailing ``*`` on a preference
    line), a ``*`` on any other line, and a header that is not two
    non-negative counts are rejected naming their line, counted from 1 with
    blank lines included.
    """
    lines = []  # (line number, integers, which had a trailing '*') of each non-blank line
    for lineno, raw in enumerate(text.splitlines(), start=1):
        tokens = [] if raw.split() == ["-"] else raw.split()
        for tok in tokens:  # ASCII digits only: int() also takes '1_0', '+3' and other scripts
            if not re.fullmatch(r"-?[0-9]+\*?", tok):
                raise MatchingError(f"line {lineno}: not an integer: {tok!r}")
        row = [int(tok.removesuffix("*")) for tok in tokens]
        if raw.strip():
            lines.append((lineno, row, [tok.endswith("*") for tok in tokens]))
    if not lines:
        raise MatchingError("empty instance file")
    header_line, header, _ = lines[0]
    if len(header) != 2:
        raise MatchingError(f"line {header_line}: bad header line {' '.join(map(str, header))!r}")
    m, n = header
    if m < 0 or n < 0:
        raise MatchingError(
            f"line {header_line}: agent and host counts must be non-negative, got {m} {n}"
        )
    if len(lines) != 4 + m:
        raise MatchingError(f"expected {4 + m} lines for M={m}, got {len(lines)}")
    for lineno, _, starred in lines[:3] + lines[-1:]:
        if any(starred):
            raise MatchingError(f"line {lineno}: only a preference line marks gated hosts with '*'")
    q_min, q_max, *prefs, master = (row for _, row, _ in lines[1:])
    gated = np.zeros((m, n), dtype=bool)
    for a, (_, row, starred) in enumerate(lines[3:-1]):  # an unknown id fails in the instance
        gated[a, [h for h, star in zip(row, starred) if star and 0 <= h < n]] = True
    return MatchingInstance(m, n, prefs, master, q_min, q_max, gated)
