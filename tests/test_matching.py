import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cellassoc.matching import (
    InfeasibleInstanceError,
    Matching,
    MatchingError,
    MatchingInstance,
    build_matching,
    deferred_acceptance,
    format_instance,
    mmq_match,
    parse_instance,
    verify,
)
from helpers import (
    EnumerationBudgetError,
    assert_reports_agree,
    assignment_bounded_instance,
    enumerate_feasible,
    oracle_deferred_acceptance,
    oracle_mmq_match,
    oracle_pareto_optimal,
    oracle_verify,
    random_feasible_instance,
)


@pytest.fixture
def counterexample():
    # Three agents all ranking n0 > n1 > n2, master list 0 > 1 > 2, minima of 1.
    # Deferred acceptance famously strands host n2 here.
    return MatchingInstance(
        n_agents=3,
        n_hosts=3,
        agent_prefs=((0, 1, 2), (0, 1, 2), (0, 1, 2)),
        master_list=(0, 1, 2),
        q_min=(1, 1, 1),
        q_max=(2, 2, 2),
    )


@pytest.fixture
def thirty_on_three():
    # 30 agents who all rank 0 > 1 > 2, and no quota that binds.
    return MatchingInstance(
        n_agents=30, n_hosts=3,
        agent_prefs=((0, 1, 2),) * 30,
        master_list=tuple(range(30)),
        q_min=(0, 0, 0), q_max=(30, 30, 30),
    )


# --- the quota-aware matcher -------------------------------------------------

def test_mmq_on_counterexample(counterexample):
    m = mmq_match(counterexample)
    assert m.host_to_agents == ((0,), (1,), (2,))
    report = verify(counterexample, m)
    assert report.feasible
    assert report.blocking_pairs == ()
    assert report.blocking_pairs_literal == ()
    assert report.pareto_optimal is True


def test_mmq_counterexample_without_minima_matches_da(counterexample):
    relaxed = MatchingInstance(
        n_agents=3, n_hosts=3,
        agent_prefs=counterexample.agent_prefs,
        master_list=counterexample.master_list,
        q_min=(0, 0, 0), q_max=(2, 2, 2),
    )
    assert mmq_match(relaxed).host_to_agents == ((0, 1), (2,), ())
    assert deferred_acceptance(relaxed).host_to_agents == ((0, 1), (2,), ())


def test_mmq_unconstrained_gives_first_choices():
    inst = MatchingInstance(
        n_agents=4, n_hosts=3,
        agent_prefs=((2, 0, 1), (0, 1, 2), (2, 1, 0), (1, 0, 2)),
        master_list=(3, 1, 0, 2),
        q_min=(0, 0, 0), q_max=(4, 4, 4),
    )
    m = mmq_match(inst)
    assert m.agent_to_host.tolist() == [2, 0, 2, 1]


def test_mmq_single_pair():
    inst = MatchingInstance(1, 1, ((0,),), (0,), (1,), (1,))
    assert mmq_match(inst).agent_to_host.tolist() == [0]


def test_mmq_empty_instance():
    inst = MatchingInstance(0, 2, (), (), (0, 0), (1, 1))
    m = mmq_match(inst)
    assert m.loads.tolist() == [0, 0]
    report = verify(inst, m)
    assert report.feasible and report.blocking_pairs == ()


def test_mmq_is_deterministic(counterexample):
    assert mmq_match(counterexample) == mmq_match(counterexample)
    assert deferred_acceptance(counterexample) == deferred_acceptance(counterexample)


def test_master_list_top_agent_gets_first_choice():
    rng = np.random.default_rng(5)
    checked = 0
    while checked < 100:
        inst = random_feasible_instance(rng)
        if sum(inst.q_min) >= inst.n_agents:
            continue  # every agent is needed to fill minima; no free pick exists
        top = inst.master_list[0]
        m = mmq_match(inst)
        # The top agent goes first and is never beaten to a host with capacity.
        open_hosts = [h for h in inst.agent_prefs[top] if inst.q_max[h] > 0]
        assert m.agent_to_host[top] == open_hosts[0]
        checked += 1


def test_phase_boundary_with_tight_minima():
    # Sum of minima equals the agent count: phase 1 must not consume anyone.
    inst = MatchingInstance(
        n_agents=2, n_hosts=3,
        agent_prefs=((0, 1, 2), (0, 1, 2)),
        master_list=(0, 1),
        q_min=(0, 1, 1), q_max=(2, 2, 2),
    )
    m = mmq_match(inst)
    assert m.agent_to_host.tolist() == [1, 2]  # both go to unmet-minimum hosts
    assert verify(inst, m).feasible


# --- deferred acceptance -----------------------------------------------------

def test_da_on_counterexample(counterexample):
    m = deferred_acceptance(counterexample)
    assert m.host_to_agents == ((0, 1), (2,), ())
    report = verify(counterexample, m)
    assert not report.feasible


def test_da_distinct_first_choices_unit_capacity():
    inst = MatchingInstance(
        n_agents=3, n_hosts=3,
        agent_prefs=((0, 1, 2), (1, 2, 0), (2, 0, 1)),
        master_list=(2, 0, 1),
        q_min=(0, 0, 0), q_max=(1, 1, 1),
    )
    assert deferred_acceptance(inst).agent_to_host.tolist() == [0, 1, 2]


def test_da_feasible_when_minima_vacuous():
    rng = np.random.default_rng(17)
    for _ in range(50):
        inst = random_feasible_instance(rng)
        relaxed = MatchingInstance(
            inst.n_agents, inst.n_hosts, inst.agent_prefs, inst.master_list,
            (0,) * inst.n_hosts, inst.q_max,
        )
        assert verify(relaxed, deferred_acceptance(relaxed)).feasible


def test_da_rejection_chain():
    # Capacity 1 everywhere forces a cascade of rejections by master-list rank.
    inst = MatchingInstance(
        n_agents=3, n_hosts=3,
        agent_prefs=((0, 1, 2), (0, 1, 2), (0, 1, 2)),
        master_list=(2, 1, 0),
        q_min=(0, 0, 0), q_max=(1, 1, 1),
    )
    m = deferred_acceptance(inst)
    assert m.agent_to_host.tolist() == [2, 1, 0]  # ML-best agent 2 lands on host 0


EXTENDED = dict(gates=True, zero_capacity=True, allow_empty=True)


def test_da_matches_proposal_loop_oracle():
    # One master list for every host makes the stable matching unique, so
    # the master-list pass must equal the proposal loop on every instance:
    # gates, q_max = 0 hosts and M = 0 included.
    rng = np.random.default_rng(23)
    for i in range(600):
        inst = random_feasible_instance(rng, **(EXTENDED if i % 2 else {}))
        assert deferred_acceptance(inst) == oracle_deferred_acceptance(inst)


def test_mmq_matches_per_agent_oracle():
    # The walk order (ungated hosts, then gated ones) must pick what the
    # two-pass choice picks: the best ungated host with room, else the best one.
    rng = np.random.default_rng(31)
    for i in range(600):
        inst = random_feasible_instance(rng, **(EXTENDED if i % 2 else {"gates": True}))
        assert mmq_match(inst) == oracle_mmq_match(inst)


# --- verifier ----------------------------------------------------------------

def test_verify_rejects_wrong_agent_count(counterexample):
    with pytest.raises(MatchingError, match="wrong number of agents"):
        verify(counterexample, build_matching([0, 1], 3))


def test_verify_rejects_wrong_host_count(counterexample):
    with pytest.raises(MatchingError, match="wrong number of hosts"):
        verify(counterexample, build_matching([0, 1, 1], 2))


@pytest.mark.parametrize("bad_host", [-2, 3, 7])
def test_build_matching_rejects_unknown_host(bad_host):
    with pytest.raises(MatchingError, match=f"agent 2 assigned to unknown host {bad_host}"):
        build_matching([0, -1, bad_host, 1], 3)


def test_build_matching_rejects_non_integer_hosts():
    with pytest.raises(MatchingError, match="host ids must be integers"):
        build_matching([0.7, 1], 2)


@pytest.mark.parametrize(
    "n_hosts, dtype", [(True, "bool"), (np.bool_(True), "bool"), (1.0, "float64"), ("1", "<U1")]
)
def test_build_matching_rejects_a_non_integer_host_count(n_hosts, dtype):
    with pytest.raises(MatchingError, match=f"^n_hosts must be integers, got {dtype}$"):
        build_matching([0], n_hosts)


def test_numpy_integer_counts_are_accepted():
    instance = MatchingInstance(np.int64(1), np.int32(1), ((0,),), (0,), (0,), (1,))
    assert build_matching([0], np.int64(1)) == mmq_match(instance)


def test_matching_arrays_are_read_only():
    m = build_matching([0, -1, 2, 0], 3)
    with pytest.raises(ValueError):
        m.agent_to_host[0] = 1
    with pytest.raises(ValueError):
        m.loads[0] = 5


@pytest.mark.parametrize(
    "shape, n_hosts",
    [((9,), 4), ((5, 7), 3), ((2, 3, 6), 5), ((4, 0), 3), ((3, 5), 0), ((13, 16, 100), 20)],
)
def test_loads_equal_a_per_row_bincount(shape, n_hosts):
    # 1-D, (R, M) and (G, R, M) stacks (the CRE search's is (13, 16, 100) with
    # N = 20), with unmatched agents, no agents, and no hosts at all.
    rng = np.random.default_rng(list(shape) + [n_hosts])
    a2h = rng.integers(-1, n_hosts, size=shape)
    loads = Matching(a2h, n_hosts).loads
    rows = [a2h[i] for i in np.ndindex(shape[:-1])]
    want = [np.bincount(row[row >= 0], minlength=n_hosts) for row in rows]
    assert loads.shape == shape[:-1] + (n_hosts,)
    assert np.array_equal(loads, np.reshape(want, loads.shape))
    assert not loads.flags.writeable


def test_matching_derives_loads_and_host_sets():
    source = np.array([2, -1, 0, 2])
    m = build_matching(source, 4)
    source[0] = 1  # the matching holds its own copy
    assert m.agent_to_host.tolist() == [2, -1, 0, 2]
    assert m.loads.tolist() == [1, 0, 2, 0]
    assert m.host_to_agents == ((2,), (), (0, 3), ())
    assert m == Matching([2, -1, 0, 2], 4)
    assert m != Matching([2, -1, 0, 2], 5)
    assert m != Matching([2, -1, 0, 1], 4)


def test_verify_flags_blocking_pair():
    # Agent 1 prefers host 0, which holds the master-list-worse agent 2.
    inst = MatchingInstance(
        n_agents=3, n_hosts=2,
        agent_prefs=((0, 1), (0, 1), (0, 1)),
        master_list=(0, 1, 2),
        q_min=(0, 0), q_max=(2, 2),
    )
    m = build_matching([0, 1, 0], 2)
    report = verify(inst, m)
    assert (1, 0) in report.blocking_pairs_literal
    assert (1, 0) in report.blocking_pairs


def test_verify_capacity_aware_respects_minima():
    # Host 1 sits at its minimum, so its lone agent moving to the free slot
    # on host 0 would break feasibility: not a capacity-aware blocking pair.
    inst = MatchingInstance(
        n_agents=2, n_hosts=2,
        agent_prefs=((0, 1), (0, 1)),
        master_list=(0, 1),
        q_min=(0, 1), q_max=(2, 2),
    )
    m = build_matching([0, 1], 2)
    report = verify(inst, m)
    assert report.feasible
    assert report.blocking_pairs == ()
    # Relaxing the minimum turns the same move into a blocking pair.
    relaxed = MatchingInstance(
        2, 2, inst.agent_prefs, inst.master_list, (0, 0), (2, 2)
    )
    assert (1, 0) in verify(relaxed, m).blocking_pairs


def test_verify_pareto_flag():
    inst = MatchingInstance(
        n_agents=2, n_hosts=2,
        agent_prefs=((0, 1), (1, 0)),
        master_list=(0, 1),
        q_min=(1, 1), q_max=(1, 1),
    )
    good = build_matching([0, 1], 2)
    bad = build_matching([1, 0], 2)
    assert verify(inst, good).pareto_optimal is True
    assert verify(inst, bad).pareto_optimal is False


def test_verify_decides_pareto_beyond_the_enumeration_budget(thirty_on_three):
    # 3^30 assignments: far beyond any enumeration, decided by the closure.
    assert verify(thirty_on_three, mmq_match(thirty_on_three)).pareto_optimal is True
    dominated = build_matching([1] + [0] * 29, 3)  # agent 0 would rather join the others
    report = verify(thirty_on_three, dominated)
    assert report.feasible and report.pareto_optimal is False


def test_mmq_is_pareto_optimal_on_the_acceptance_draws():
    # Criterion 1's 1,000 draws, with the Pareto answer checked by enumeration.
    rng = np.random.default_rng(20240)
    for _ in range(1000):
        inst = random_feasible_instance(rng, max_agents=6, max_hosts=3)
        matching = mmq_match(inst)
        assert oracle_pareto_optimal(inst, matching, 10**6) is True
        assert verify(inst, matching).pareto_optimal is True


def _sample_matchings(rng, inst):
    # The two engines' outputs plus random assignments that leave agents
    # unmatched and break quotas.
    yield deferred_acceptance(inst)
    yield mmq_match(inst)
    for _ in range(3):
        hosts = rng.integers(-1, inst.n_hosts, size=inst.n_agents).tolist()
        yield build_matching(hosts, inst.n_hosts)


def _enumerated_matchings(rng, inst, count):
    # ``count`` feasible matchings drawn from the enumerator, many of them not
    # Pareto optimal.
    feasible = list(enumerate_feasible(inst))
    return [feasible[i] for i in rng.integers(len(feasible), size=count)]


def test_verify_matches_loop_oracle():
    rng, picks = np.random.default_rng(99), np.random.default_rng(98)
    for i in range(400):
        inst = random_feasible_instance(rng, **(EXTENDED if i % 2 else {}))
        for matching in [*_sample_matchings(rng, inst), *_enumerated_matchings(picks, inst, 2)]:
            assert_reports_agree(verify(inst, matching), oracle_verify(inst, matching))


def _same_shape_instances(rng, n_runs, **kwargs):
    # ``n_runs`` random instances that share M and N, so that they stack.
    runs = [random_feasible_instance(rng, **kwargs)]
    while len(runs) < n_runs:
        inst = random_feasible_instance(rng, **kwargs)
        if (inst.n_agents, inst.n_hosts) == (runs[0].n_agents, runs[0].n_hosts):
            runs.append(inst)
    return runs


def _stack(runs):
    first = runs[0]
    return MatchingInstance(
        first.n_agents, first.n_hosts,
        *(np.stack([getattr(inst, name) for inst in runs])
          for name in ("agent_prefs", "master_list", "q_min", "q_max", "gated")),
    )


@pytest.mark.parametrize("n_policies", [1, 3])
@pytest.mark.parametrize("n_runs", [1, 3])
@pytest.mark.parametrize(
    "variant", [{}, {"allow_empty": True}, {"gates": True}, {"zero_capacity": True}]
)
def test_stacked_verify_matches_single_run_calls(variant, n_runs, n_policies):
    rng = np.random.default_rng([n_runs, n_policies, len(str(variant))])
    picks = np.random.default_rng([n_runs, n_policies, len(str(variant)), 1])
    for _ in range(40):
        runs = _same_shape_instances(rng, n_runs, **variant)
        stacked = _stack(runs)
        for k, inst in enumerate(runs):
            assert stacked.run(k) == inst
        # Each run's P assignments, once from the engines' outputs and random
        # ones, which leave agents unmatched and break quotas, and once from
        # the enumerator's feasible ones.
        for sample in (
            lambda inst: list(_sample_matchings(rng, inst))[-n_policies:],
            lambda inst: _enumerated_matchings(picks, inst, n_policies),
        ):
            hosts = np.stack([[m.agent_to_host for m in sample(inst)] for inst in runs])
            assert hosts.shape == (n_runs, n_policies, stacked.n_agents)
            report = verify(stacked, build_matching(hosts, stacked.n_hosts))
            assert report.feasible.shape == (n_runs, n_policies)
            for k, p in np.ndindex(n_runs, n_policies):
                matching = build_matching(hosts[k, p], stacked.n_hosts)
                assert_reports_agree(report, verify(runs[k], matching), (k, p))
                assert_reports_agree(report, oracle_verify(runs[k], matching), (k, p))
            if n_policies == 1:  # an (R, M) matching: one assignment per run
                report = verify(stacked, build_matching(hosts[:, 0], stacked.n_hosts))
                for k in range(n_runs):
                    single = verify(runs[k], build_matching(hosts[k, 0], stacked.n_hosts))
                    assert_reports_agree(report, single, (k,))


def test_stacked_matchers_walk_each_run():
    rng = np.random.default_rng(17)
    for variant in ({}, {"gates": True}, {"zero_capacity": True}):
        for _ in range(20):
            runs = _same_shape_instances(rng, 4, **variant)
            stacked = _stack(runs)
            for matcher in (deferred_acceptance, mmq_match):
                want = [matcher(inst).agent_to_host for inst in runs]
                assert matcher(stacked) == build_matching(want, stacked.n_hosts)


def test_stacked_instance_reuses_complete_arrays():
    # Preferences are stored as int32: an int32 array is kept as a view, a wider one is cast.
    wide = np.argsort(np.random.default_rng(3).random((2, 4, 3)), axis=-1)
    prefs = wide.astype(np.int32)
    inst = MatchingInstance(4, 3, prefs, np.tile(np.arange(4), (2, 1)), (0, 0, 0), (4, 4, 4))
    assert inst.agent_prefs.base is prefs  # a read-only view, not a copy
    cast = MatchingInstance(4, 3, wide, np.tile(np.arange(4), (2, 1)), (0, 0, 0), (4, 4, 4))
    assert cast.agent_prefs.dtype == np.int32 and cast == inst
    assert prefs.flags.writeable and not inst.agent_prefs.flags.writeable
    assert inst.q_min.shape == (2, 3) and np.shares_memory(inst.q_min[0], inst.q_min[1])


def test_instance_arrays_are_read_only_views():
    prefs, gated = np.array([[0, 1], [1, 0]], dtype=np.int32), np.zeros((2, 2), dtype=bool)
    master, q_min, q_max = np.array([1, 0]), np.array([0, 0]), np.array([2, 2])
    inst = MatchingInstance(2, 2, prefs, master, q_min, q_max, gated)
    with pytest.raises(ValueError, match="read-only"):
        inst.agent_prefs[1] = [1, 1]
    for name in ("master_list", "q_min", "q_max", "gated", "rank", "ml_rank"):
        with pytest.raises(ValueError, match="read-only"):
            getattr(inst, name)[0] = 0
    for given, name in ((prefs, "agent_prefs"), (gated, "gated"), (master, "master_list")):
        assert given.flags.writeable and np.shares_memory(given, getattr(inst, name))  # no copy
    stacked = MatchingInstance(2, 2, np.stack([prefs] * 3), np.stack([master] * 3), q_min, q_max)
    run = stacked.run(2)
    assert not (run.agent_prefs.flags.writeable or run.gated.flags.writeable)


def test_one_run_functions_reject_stacks():
    stacked = MatchingInstance(
        2, 2, np.array([[[0, 1], [1, 0]]] * 3), np.array([[0, 1]] * 3), (0, 0), (2, 2)
    )
    for one_run in (format_instance, lambda inst: list(enumerate_feasible(inst))):
        with pytest.raises(MatchingError, match=r"stacked instance: take one run"):
            one_run(stacked)
    assert format_instance(stacked.run(2)) == "2 2\n0 0\n2 2\n0 1\n1 0\n0 1\n"
    with pytest.raises(MatchingError, match=r"one \(M,\) assignment"):
        mmq_match(stacked).host_to_agents  # noqa: B018


def test_verify_refuses_a_matching_of_other_runs():
    # Three runs' assignments against a two-run stack: no run axis to align.
    stacked = MatchingInstance(
        2, 2, np.array([[[0, 1], [1, 0]]] * 2), np.array([[0, 1]] * 2), (0, 0), (2, 2)
    )
    three_runs = Matching(np.zeros((3, 2), dtype=int), 2)
    refused = r"^matching's leading axes must start with the instance's \(2,\)$"
    with pytest.raises(MatchingError, match=refused):
        verify(stacked, three_runs)
    assert verify(stacked, Matching(np.zeros((2, 2), dtype=int), 2)).feasible.tolist() == [True] * 2

@pytest.mark.parametrize(
    "edits, run, error, message",
    [
        # Run 3 fails the first check and run 1 the last one: run 1 is the lowest.
        ({("q_min", (3, 0)): 3, ("q_min", 1): (2, 1)}, 1, InfeasibleInstanceError,
         "no feasible matching: sum q_min=3, M=2, sum q_max=4"),
        ({("agent_prefs", (2, 1)): (0, 0)}, 2, MatchingError,
         "agent 1: preference list contains duplicates"),
        ({("master_list", 0): (1, 1), ("gated", (1, 0, 1)): True, ("agent_prefs", (1, 0, 1)): -1},
         0, MatchingError, "master list must be a permutation of all agents"),
        ({("agent_prefs", (1, 0, 1)): -1}, 1, MatchingError,
         "agent 0: preference list names an unknown host"),
        ({("q_min", (3, 1)): 3}, 3, MatchingError, "host 1: need 0 <= q_min <= q_max, got (3, 2)"),
    ],
)
def test_stacked_instance_names_its_lowest_failing_run(edits, run, error, message):
    arrays = {
        "agent_prefs": np.array([[[0, 1], [1, 0]]] * 4), "master_list": np.array([[0, 1]] * 4),
        "q_min": np.zeros((4, 2), dtype=int), "q_max": np.full((4, 2), 2),
        "gated": np.zeros((4, 2, 2), dtype=bool),
    }
    for (name, index), value in edits.items():
        arrays[name][index] = value
    with pytest.raises(error) as failure:
        MatchingInstance(2, 2, **arrays)
    assert type(failure.value) is error
    assert failure.value.run == run
    assert str(failure.value) == f"run {run}: {message}"
    with pytest.raises(error, match=f"^{re.escape(message)}$"):  # the run alone: no prefix
        MatchingInstance(2, 2, *(arrays[name][run] for name in arrays))

# --- enumeration oracle --------------------------------------------------------

def test_enumeration_counts(counterexample):
    assert sum(1 for _ in enumerate_feasible(counterexample)) == 6
    two_on_one = MatchingInstance(2, 1, ((0,), (0,)), (0, 1), (0,), (2,))
    assert sum(1 for _ in enumerate_feasible(two_on_one)) == 1
    one_of_two = MatchingInstance(1, 2, ((0, 1),), (0,), (0, 0), (1, 1))
    assert sum(1 for _ in enumerate_feasible(one_of_two)) == 2


def test_enumeration_yields_only_feasible(counterexample):
    for m in enumerate_feasible(counterexample):
        assert verify(counterexample, m).feasible


def test_enumeration_budget_guard(thirty_on_three):
    with pytest.raises(EnumerationBudgetError):
        next(enumerate_feasible(thirty_on_three))


# --- instance validation -------------------------------------------------------

def test_quota_sums_must_admit_solution():
    with pytest.raises(InfeasibleInstanceError):
        MatchingInstance(2, 2, ((0, 1), (0, 1)), (0, 1), (2, 2), (2, 2))
    with pytest.raises(InfeasibleInstanceError):
        MatchingInstance(5, 2, ((0, 1),) * 5, (0, 1, 2, 3, 4), (0, 0), (2, 2))


def test_structural_validation():
    with pytest.raises(MatchingError):
        MatchingInstance(2, 2, ((0, 0), (0, 1)), (0, 1), (0, 0), (2, 2))  # dup pref
    with pytest.raises(MatchingError):
        MatchingInstance(2, 2, ((0, 1), (0, 1)), (0, 0), (0, 0), (2, 2))  # bad ML
    with pytest.raises(MatchingError):
        MatchingInstance(2, 2, ((0, 1), (0, 1)), (0, 1), (2, 0), (1, 1))  # min > max
    with pytest.raises(MatchingError):
        MatchingInstance(1, 2, ((0, 5),), (0,), (0, 0), (1, 1))  # unknown host


@pytest.mark.parametrize(
    "args, kwargs, message",
    [
        ((-1, 0, (), (), (), ()), {},
         "agent and host counts must be non-negative"),
        ((2, 2.0, ((0, 1), (1, 0)), (0, 1), (0, 0), (2, 2)), {},
         "n_hosts must be integers, got float64"),
        ((True, 1, ((0,),), (0,), (0,), (1,)), {},
         "n_agents must be integers, got bool"),
        ((1, np.bool_(True), ((0,),), (0,), (0,), (1,)), {},
         "n_hosts must be integers, got bool"),
        (("1", 1, ((0,),), (0,), (0,), (1,)), {},
         "n_agents must be integers, got <U1"),
        ((2, 1, ((0,),), (0, 1), (0,), (2,)), {},
         "expected 2 preference lists, got 1"),
        ((1, 2, ((0, 1),), (0,), (0,), (1, 1)), {},
         "quota vectors must have one entry per host"),
        ((1, 2, ((0, 1),), (0,), (0, 2), (1, 1)), {},
         "host 1: need 0 <= q_min <= q_max, got (2, 1)"),
        ((1, 2, ((0, 1),), (0,), (0, -1), (1, 1)), {},
         "host 1: need 0 <= q_min <= q_max, got (-1, 1)"),
        ((2, 1, ((0,), (0,)), (1, 1), (0,), (2,)), {},
         "master list must be a permutation of all agents"),
        ((2, 1, ((0,), (0,)), (0,), (0,), (2,)), {},
         "master list must be a permutation of all agents"),
        ((2, 2, ((0, 1), (1, 1)), (0, 1), (0, 0), (2, 2)), {},
         "agent 1: preference list contains duplicates"),
        ((2, 2, ((0, 1), (1, 0, 1)), (0, 1), (0, 0), (2, 2)), {},
         "agent 1: preference list must rank all 2 hosts, got 3"),
        ((2, 2, ((0, 1), (5, 5)), (0, 1), (0, 0), (2, 2)), {},
         "agent 1: preference list contains duplicates"),
        ((2, 2, ((0, -1), (0, 0)), (0, 1), (0, 0), (2, 2)), {},
         "agent 0: preference list names an unknown host"),
        ((2, 2, ((0, 1), (1, 2)), (0, 1), (0, 0), (2, 2)), {},
         "agent 1: preference list names an unknown host"),
        ((1, 2, ((0, 1),), (0,), (0, 0), (1, 1)), {"gated": ()},
         "gated must be a (1, 2) array, got tuple"),
        ((2, 2, ((0, 1), (0, 1)), (0, 1), (0, 0), (2, 2)), {"gated": ({0}, {1})},
         "gated must be a (2, 2) array, got tuple"),
        ((1, 2, ((0, 1),), (0,), (0, 0), (1, 1)), {"gated": [[True, False]]},
         "gated must be a (1, 2) array, got list"),
        ((2, 2, ((0, 1), (0, 1)), (0, 1), (2, 2), (2, 2)), {},
         "no feasible matching: sum q_min=4, M=2, sum q_max=4"),
        ((3, 1, ((0,),) * 3, (0, 1, 2), (0,), (2,)), {},
         "no feasible matching: sum q_min=0, M=3, sum q_max=2"),
        ((2, 2, ((0, 1), (0,)), (0, 1), (0, 0), (2, 2)), {},
         "agent 1: preference list must rank all 2 hosts, got 1"),
        ((2, 2, np.array([[0, 1, 0], [1, 0, 1]]), (0, 1), (0, 0), (2, 2)), {},
         "agent_prefs must be a (2, 2) array, got (2, 3)"),
        ((2, 2, np.zeros((3, 2, 1), dtype=int), (0, 1), (0, 0), (2, 2)), {},
         "agent_prefs must be a (3, 2, 2) array, got (3, 2, 1)"),
        ((2, 2, ((0, 1), (1, 0)), (0, 1), (0, 0), (2, 2)), {"gated": np.array([False, True])},
         "gated must be a (2, 2) array, got (2,)"),
        ((2, 2, ((0, 1), (1, 0)), (0, 1), (0, 0), (2, 2)), {"gated": np.zeros((2, 3), bool)},
         "gated must be a (2, 2) array, got (2, 3)"),
        ((2, 2, np.array([[[0, 1], [1, 0]]]), np.array([[0, 1]]), (0, 0), (2, 2)),
         {"gated": ({0}, {1})}, "gated must be a (1, 2, 2) array, got tuple"),
        ((2, 2, ((0, 1), (1, 0.0)), (0, 1), (0, 0), (2, 2)), {},
         "agent_prefs must be integers, got float64"),
        ((2, 2, ((0, 1), (1, 0)), np.array([0.0, 1.0]), (0, 0), (2, 2)), {},
         "master_list must be integers, got float64"),
        ((2, 2, ((0, 1), (1, 0)), (0, 1), (0.7, 0), (2, 2)), {},
         "q_min must be integers, got float64"),
        ((2, 2, ((0, 1), (1, 0)), (0, 1), (0, 0), (2, 2.9)), {},
         "q_max must be integers, got float64"),
        ((2, 2, ((0, 1), (1, 0)), (0, 1), (0, 0), (2, 2)),
         {"gated": np.array([[0.5, 0], [0, 0]])}, "gated must be a bool array, got float64"),
        ((2, 2, ((0, 1), (1, 0)), (0, 1), (0, 0), np.array([2**63, 1], dtype=np.uint64)), {},
         "q_max must fit in int64, got 9223372036854775808"),
    ],
)
def test_structural_errors_keep_their_messages(args, kwargs, message):
    with pytest.raises(MatchingError, match=re.escape(message)):
        MatchingInstance(*args, **kwargs)


@pytest.mark.parametrize("host", [2**31, -(2**31) - 1, 2**40])
def test_preference_ids_beyond_int32_are_refused_not_wrapped(host):
    # Preferences are stored as int32: an id past it is refused before the cast, so
    # 2**32 + 1 cannot wrap onto host 1.
    message = re.escape(f"agent_prefs must fit in int32, got {host}")
    prefs = np.array([[0, 1], [1, host]])
    forms = [prefs, prefs.tolist()] + ([prefs.astype(np.uint64)] if host > 0 else [])
    for form in forms:
        with pytest.raises(MatchingError, match=message):
            MatchingInstance(2, 2, form, (0, 1), (0, 0), (2, 2))
    with pytest.raises(MatchingError, match=message):
        parse_instance(f"2 2\n0 0\n2 2\n0 1\n1 {host}\n0 1\n")


def test_a_wrapping_id_is_not_taken_for_a_host():
    # 2**32 + 1 narrowed to int32 would be host 1 and pass as a permutation.
    with pytest.raises(MatchingError, match="must fit in int32"):
        MatchingInstance(2, 2, np.array([[0, 1], [2**32 + 1, 0]]), (0, 1), (0, 0), (2, 2))


def test_array_form_equals_tuple_form():
    gated = np.array([[1, 0, 0], [0, 0, 0], [0, 1, 1]], dtype=bool)
    tuples = MatchingInstance(
        3, 3, ((2, 0, 1), (1, 2, 0), (0, 1, 2)), (2, 0, 1), (0, 0, 1), (2, 2, 2), gated=gated
    )
    arrays = MatchingInstance(
        3, 3, np.array([[2, 0, 1], [1, 2, 0], [0, 1, 2]]), np.array([2, 0, 1]),
        np.array([0, 0, 1]), np.array([2, 2, 2]), gated=gated,
    )
    assert arrays == tuples
    assert tuples.rank.tolist() == [[1, 2, 0], [2, 0, 1], [0, 1, 2]]
    assert tuples.ml_rank.tolist() == [1, 2, 0]
    assert parse_instance(format_instance(tuples)) == tuples


def _layouts(prefs):
    # The same preference values held as intp, int32, Fortran-ordered and strided arrays.
    strided = np.repeat(prefs, 2, axis=-1)[..., ::2]
    return prefs, prefs.astype(np.int32), np.asfortranarray(prefs), strided


@pytest.mark.parametrize(
    "variant", [{}, {"gates": True}, {"zero_capacity": True}, {"allow_empty": True}]
)
def test_matchers_equal_the_oracles_on_every_array_layout(variant):
    rng = np.random.default_rng(len(str(variant)))
    cases = [_stack(_same_shape_instances(rng, 3, **variant)) for _ in range(25)]
    cases += [  # stacks with M = 0, and with M = N = 0
        MatchingInstance(0, n, np.zeros((3, 0, n), int), np.zeros((3, 0), int), (0,) * n, (0,) * n)
        for n in (0, 2)
    ]
    for case in cases:
        for prefs in _layouts(case.agent_prefs):
            stacked = MatchingInstance(
                case.n_agents, case.n_hosts, prefs, case.master_list, case.q_min, case.q_max,
                case.gated,
            )
            runs = [stacked.run(k) for k in range(3)]  # one-run instances on non-contiguous rows
            for matcher, oracle in (
                (mmq_match, oracle_mmq_match), (deferred_acceptance, oracle_deferred_acceptance)
            ):
                want = [oracle(run).agent_to_host for run in runs]
                assert matcher(stacked) == build_matching(want, case.n_hosts)
                assert [matcher(run).agent_to_host.tolist() for run in runs] == [
                    w.tolist() for w in want
                ]


def test_incomplete_preference_list_is_rejected():
    # Agent 1 lists host 0 only. a0->1, a1->0 is feasible, yet mmq_match's
    # phase 2 would strand agent 1: its guarantee needs every agent to rank
    # every host, so the instance is refused before any matcher runs.
    message = "^agent 1: preference list must rank all 2 hosts, got 1$"
    with pytest.raises(MatchingError, match=message):
        parse_instance("2 2\n1 1\n1 1\n0 1\n0\n0 1\n")


# --- gating --------------------------------------------------------------------

def test_gated_hosts_avoided_when_possible():
    inst = MatchingInstance(
        n_agents=2, n_hosts=2,
        agent_prefs=((0, 1), (0, 1)),
        master_list=(0, 1),
        q_min=(0, 0), q_max=(1, 2),
        gated=np.array([[False, False], [False, True]]),
    )
    # Agent 1 loses host 0 to agent 0 and would go to gated host 1 only as a
    # fallback; with q_max at 2 it is indeed forced there.
    m = mmq_match(inst)
    assert m.agent_to_host.tolist() == [0, 1]


def test_gating_phase_two_fallback_keeps_feasibility():
    # Both remaining hosts with unmet minima are gated for agent 1; the gate
    # must yield so the minimum quota is still met.
    inst = MatchingInstance(
        n_agents=2, n_hosts=2,
        agent_prefs=((0, 1), (0, 1)),
        master_list=(0, 1),
        q_min=(1, 1), q_max=(1, 1),
        gated=np.array([[False, False], [False, True]]),
    )
    m = mmq_match(inst)
    assert m.agent_to_host.tolist() == [0, 1]
    assert verify(inst, m).feasible


def test_gated_pairs_are_not_blocking():
    inst = MatchingInstance(
        n_agents=2, n_hosts=2,
        agent_prefs=((0, 1), (0, 1)),
        master_list=(0, 1),
        q_min=(0, 0), q_max=(2, 2),
        gated=np.array([[True, False], [False, False]]),
    )
    m = build_matching([1, 0], 2)
    report = verify(inst, m)
    assert (0, 0) not in report.blocking_pairs


# --- random property suite -------------------------------------------------------

def test_matcher_guarantees_on_random_instances():
    rng = np.random.default_rng(2024)
    for _ in range(200):
        inst = random_feasible_instance(rng)
        m = mmq_match(inst)
        report = verify(inst, m)
        assert report.feasible
        assert report.blocking_pairs == ()
        assert report.blocking_pairs_literal == ()
        assert report.pareto_optimal is True


def test_mmq_is_pareto_optimal_under_its_walk_order():
    # Ranked by ``rank`` alone, 417 of these outputs read as not Pareto optimal:
    # a gated top host is one mmq_match avoids while an ungated one has room.
    rng = np.random.default_rng(3)
    for _ in range(2000):
        inst = random_feasible_instance(rng, gates=True)
        assert verify(inst, mmq_match(inst)).pareto_optimal is True


def test_walk_order_puts_gated_hosts_last():
    inst = MatchingInstance(
        2, 3, ((2, 0, 1), (0, 1, 2)), (0, 1), (0, 0, 0), (2, 2, 2),
        gated=np.array([[False, False, True], [True, False, True]]),
    )
    assert inst._walk_order.tolist() == [[0, 1, 2], [1, 0, 2]]
    assert inst._walk_order is inst._walk_order  # computed once per instance
    ungated = MatchingInstance(2, 3, inst.agent_prefs, inst.master_list, inst.q_min, inst.q_max)
    assert ungated._walk_order is ungated.agent_prefs  # no gate: the preference array itself


@given(seed=st.integers(min_value=0, max_value=10_000))
@settings(max_examples=60, deadline=None)
def test_mmq_partitions_agents(seed):
    inst = random_feasible_instance(np.random.default_rng(seed))
    m = mmq_match(inst)
    assert sum(m.loads) == inst.n_agents
    assert (m.agent_to_host >= 0).all()
    seen = [a for agents in m.host_to_agents for a in agents]
    assert sorted(seen) == list(range(inst.n_agents))


# --- guarantees at the simulator's sizes -------------------------------------------

def _assert_guarantees(runs):
    # One instance, or a stack of several of one size: mmq_match's output is
    # feasible, has no blocking pair under either reading and is Pareto
    # optimal; DA equals the proposal loop; each run survives the text format.
    inst = runs[0] if len(runs) == 1 else _stack(runs)
    report = verify(inst, mmq_match(inst))
    assert np.all(report.feasible)
    assert not report.capacity_aware.any() and not report.envy.any()
    assert set(np.ravel(report.pareto_optimal).tolist()) == {True}
    want = [oracle_deferred_acceptance(run).agent_to_host for run in runs]
    want = want if len(runs) > 1 else want[0]
    assert deferred_acceptance(inst) == build_matching(want, inst.n_hosts)
    for run in runs:
        assert parse_instance(format_instance(run)) == run


@pytest.mark.parametrize(
    "variant", [{}, {"gates": True}, {"zero_capacity": True}, {"allow_empty": True}, EXTENDED]
)
def test_guarantees_hold_up_to_200_by_20(variant):
    rng = np.random.default_rng([200, 20, len(str(variant))])
    for _ in range(80):
        _assert_guarantees([random_feasible_instance(rng, 200, 20, by_assignment=True, **variant)])
    kwargs = {k: v for k, v in variant.items() if k != "allow_empty"}
    for _ in range(16):  # stacks of 2 to 4 runs that share M and N
        m, n, r = int(rng.integers(0, 201)), int(rng.integers(1, 21)), int(rng.integers(2, 5))
        _assert_guarantees([assignment_bounded_instance(rng, m, n, **kwargs) for _ in range(r)])


@st.composite
def bounded_instances(draw, max_m=12, max_n=6):
    """``assignment_bounded_instance``'s construction with every choice drawn by
    Hypothesis, M, N, the gates and zero capacity included, so that a failing
    instance shrinks: the loads of a drawn assignment bound the quotas (q_min in
    [0, load - 1], q_max = load + {0, 1, 2}, raised to 1 unless zero capacity)."""
    m, n = draw(st.integers(0, max_m)), draw(st.integers(1, max_n))
    gates, zero_capacity = draw(st.booleans()), draw(st.booleans())
    prefs = np.array([draw(st.permutations(range(n))) for _ in range(m)], int).reshape(m, n)
    master = np.array(draw(st.permutations(range(m))), int)
    hosts = draw(st.lists(st.integers(0, n - 1), min_size=m, max_size=m))
    load = np.bincount(np.array(hosts, int), minlength=n).tolist()
    q_min = [draw(st.integers(0, max(k - 1, 0))) for k in load]
    q_max = [k + draw(st.integers(0, 2)) for k in load]
    q_max = q_max if zero_capacity else [max(q, 1) for q in q_max]
    row = st.lists(st.booleans(), min_size=n, max_size=n)
    gated = np.array(draw(st.lists(row, min_size=m, max_size=m)), bool).reshape(m, n)
    return MatchingInstance(m, n, prefs, master, q_min, q_max, gated if gates else None)


@given(instance=bounded_instances())
@settings(max_examples=300, deadline=None)
def test_guarantees_hold_on_shrinking_instances(instance):
    _assert_guarantees([instance])


@pytest.mark.parametrize("variant", [{}, {"gates": True}, {"zero_capacity": True}])
def test_guarantees_hold_at_2000_by_100(variant):
    rng = np.random.default_rng(2000)
    _assert_guarantees([assignment_bounded_instance(rng, 2000, 100, **variant)])


# --- text format ------------------------------------------------------------------

def test_format_parse_round_trip(counterexample):
    text = format_instance(counterexample)
    parsed = parse_instance(text)
    assert parsed == counterexample


@pytest.mark.parametrize(
    "variant", [{}, {"gates": True}, {"allow_empty": True}, {"zero_capacity": True}]
)
def test_text_format_round_trip_on_every_generator_variant(variant):
    rng = np.random.default_rng(5)
    for _ in range(500):
        inst = random_feasible_instance(rng, **variant)
        assert parse_instance(format_instance(inst)) == inst


def test_text_format_marks_gates_and_empty_lines():
    inst = MatchingInstance(
        2, 2, ((1, 0), (0, 1)), (1, 0), (0, 0), (2, 2),
        gated=np.array([[True, False], [True, True]]),
    )
    text = "2 2\n0 0\n2 2\n1 0*\n0* 1*\n1 0\n"
    assert format_instance(inst) == text
    assert parse_instance(text) == inst
    empty = MatchingInstance(0, 2, np.zeros((0, 2), dtype=int), (), (0, 0), (0, 0))
    assert format_instance(empty) == "0 2\n0 0\n0 0\n-\n"
    assert parse_instance("0 2\n0 0\n0 0\n-\n") == empty


@pytest.mark.parametrize(
    "text, message",
    [
        ("2 2\n0* 0\n2 2\n0 1\n1 0\n0 1\n", "line 2: only a preference line marks"),
        ("2 2\n0 0\n\n2 2*\n0 1\n1 0\n0 1\n", "line 4: only a preference line marks"),
        ("2 2\n0 0\n2 2\n0 1\n1 0\n0 1*\n", "line 6: only a preference line marks"),
        ("2 2*\n0 0\n2 2\n0 1\n1 0\n0 1\n", "line 1: only a preference line marks"),
        ("2 2\n0 0\n2 2\n0 1\n1 0**\n0 1\n",
         "line 5: not an integer: '0**'"),
        ("2 2\n0 0\n2 2\n0 1\n- 1 0\n0 1\n", "line 5: not an integer: '-'"),
    ],
    ids=["q_min", "q_max", "master_list", "header", "double_star", "dash_among_ids"],
)
def test_misplaced_gate_or_empty_token_names_its_line(text, message):
    with pytest.raises(MatchingError, match=f"^{re.escape(message)}"):
        parse_instance(text)


@pytest.mark.parametrize(
    "template, token, ascii_token",
    [
        ("2 2\n0 0\n2 {}\n0 1\n1 0\n0 1\n", "1_0", "10"),
        ("2 2\n0 0\n2 {}\n0 1\n1 0\n0 1\n", "+2", "2"),
        ("2 2\n0 0\n2 {}\n0 1\n1 0\n0 1\n", "\u0662", "2"),  # ARABIC-INDIC DIGIT TWO
        ("2 2\n0 0\n2 2\n0 {}\n1 0\n0 1\n", "+1*", "1*"),
        ("{} 2\n0 0\n2 2\n0 1\n1 0\n0 1\n", "+2", "2"),
    ],
    ids=["underscore", "plus", "arabic_indic", "plus_gated", "plus_header"],
)
def test_parse_accepts_only_ascii_digit_tokens(template, token, ascii_token):
    # int() reads each token as the ASCII one, which the format does accept.
    line = template.split("{}")[0].count("\n") + 1
    message = f"^line {line}: not an integer: {re.escape(repr(token))}$"
    with pytest.raises(MatchingError, match=message):
        parse_instance(template.format(token))
    parse_instance(template.format(ascii_token))


def test_parse_rejects_malformed():
    with pytest.raises(MatchingError):
        parse_instance("")
    with pytest.raises(MatchingError):
        parse_instance("2 2\n0 0\n2 2\n0 1\n")  # missing lines
    with pytest.raises(MatchingError):
        parse_instance("x y\n")
