"""Tour of the matching engine: why minimum quotas break deferred acceptance.

Three UEs all want the same BS, every BS must serve at least one UE.
Classical deferred acceptance leaves the least popular BS empty; the
quota-aware matcher spreads the UEs while staying stable and Pareto optimal.

Run: python demos/quota_matching_basics.py
"""

from itertools import product

from cellassoc import (
    MatchingInstance,
    build_matching,
    deferred_acceptance,
    format_instance,
    mmq_match,
    verify,
)


def show(name, matching, instance):
    report = verify(instance, matching)
    print(f"{name}:")
    for host, agents in enumerate(matching.host_to_agents):
        print(f"  BS {host}: UEs {list(agents)} (load {matching.loads[host]})")
    print(f"  feasible={report.feasible} blocking_pairs={len(report.blocking_pairs)}"
          f" pareto_optimal={report.pareto_optimal}")
    print()


def main():
    instance = MatchingInstance(
        n_agents=3,
        n_hosts=3,
        agent_prefs=((0, 1, 2), (0, 1, 2), (0, 1, 2)),  # everyone: BS0 > BS1 > BS2
        master_list=(0, 1, 2),  # shared BS-side ranking of the UEs
        q_min=(1, 1, 1),
        q_max=(2, 2, 2),
    )
    print("Instance (text exchange format):")
    print(format_instance(instance))

    show("Deferred acceptance (ignores minimum quotas)",
         deferred_acceptance(instance), instance)
    show("Quota-aware matcher", mmq_match(instance), instance)

    feasible = [hosts for hosts in product(range(3), repeat=3)
                if verify(instance, build_matching(hosts, 3)).feasible]
    print(f"Brute force over all 27 assignments: {len(feasible)} are feasible "
          f"(each BS takes exactly one UE, so 3! = 6).")

    relaxed = MatchingInstance(
        n_agents=3, n_hosts=3,
        agent_prefs=instance.agent_prefs, master_list=instance.master_list,
        q_min=(0, 0, 0), q_max=(2, 2, 2),
    )
    print("\nWith the minima removed the two algorithms agree again:")
    show("Deferred acceptance", deferred_acceptance(relaxed), relaxed)
    show("Quota-aware matcher", mmq_match(relaxed), relaxed)


if __name__ == "__main__":
    main()
