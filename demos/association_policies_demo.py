"""All four association policies on one network drop, side by side.

Generates a 50-UE network, realizes the links once, and compares loads,
load spread, and sum rate across the quota-aware policy, deferred
acceptance, and the two argmax baselines (with and without cell range
expansion bias).

Run: python demos/association_policies_demo.py
"""

import numpy as np

from cellassoc import (
    Matching,
    PolicyConfig,
    ScenarioConfig,
    build_matching_instance,
    deferred_acceptance,
    draw_los_slots,
    generate_scenario,
    link_budget,
    mmq_match,
    realize_links,
    rssi_matrix_dbm,
    run_metrics,
    served_links,
    sinr_matrix_db,
    slot_averaged_rates,
    verify,
)
from cellassoc.policies import cre_association

SEED = 2


def describe(name, matching, scenario, links, slots, instance=None):
    served = served_links(matching, links)  # all the rates read of the links
    rates = slot_averaged_rates(served, slots, scenario.config)
    rm = run_metrics(served, rates)
    n1 = scenario.n_mmw
    loads = np.asarray(matching.loads)
    line = (f"{name:<22} mmW/microwave UEs {int(loads[:n1].sum()):>2}/"
            f"{int(loads[n1:].sum()):<2}  spread {rm.delta_kappa:>2}  "
            f"sum rate {rm.sum_rate_bps / 1e9:6.1f} Gbit/s")
    if instance is not None:
        report = verify(instance, matching)
        line += (f"  feasible={report.feasible}"
                 f" blocking={len(report.blocking_pairs)}")
    print(line)


def main():
    cfg = ScenarioConfig(n_ue=50, seed=SEED)
    scenario = generate_scenario(cfg)
    budget = link_budget(scenario)  # the links and both baselines' metrics derive from it
    links = realize_links(scenario, None, budget)
    slots = draw_los_slots(scenario, 10)

    policy = PolicyConfig(q_min_mmw=2, q_min_muw=2)
    instance = build_matching_instance(scenario, links, scenario.los_prob, policy)
    print(f"Network: {cfg.n_mmw} mmW BSs, {cfg.n_muw} microwave BSs, "
          f"{cfg.n_ue} UEs, minimum quota 2 everywhere\n")

    describe("quota-aware matching", mmq_match(instance), scenario, links, slots, instance)
    describe("deferred acceptance", deferred_acceptance(instance), scenario, links, slots, instance)
    for label, name, metric, bias_db in (
        ("max-RSSI", "max_rssi", rssi_matrix_dbm, 0.0),
        ("max-RSSI + 40 dB CRE", "max_rssi", rssi_matrix_dbm, 40.0),
        ("max-SINR", "max_sinr", sinr_matrix_db, 0.0),
        ("max-SINR + 10 dB CRE", "max_sinr", sinr_matrix_db, 10.0),
    ):
        # One argmax baseline at one cell range expansion bias: a one-entry grid.
        _, choice = cre_association(name, metric(scenario, budget), cfg.n_mmw, (bias_db,))
        describe(label, Matching(choice, cfg.n_bs), scenario, links, slots, instance)

    print("\nPlain max-RSSI piles onto the microwave tier, plain max-SINR onto")
    print("the mmW tier; biasing shifts the split but cannot pin per-BS loads,")
    print("which is exactly what the minimum quotas do.")


if __name__ == "__main__":
    main()
