"""Acceptance suite: one test per release criterion, each printing a verdict.

Statistical criteria run on fixed seeds, so every assertion here is
deterministic. Tolerances are stated inline next to each assertion.
"""

import csv
import math
import time

import numpy as np
import pytest

from cellassoc.channel import (
    mmw_spectral_efficiency,
    muw_spectral_efficiency,
    path_loss_db,
    realize_links,
)
from cellassoc.experiments import (
    ExperimentConfig,
    aggregate_path,
    run_experiment,
    run_figure,
)
from cellassoc.los import LosEstimate, update_f
from cellassoc.matching import (
    MatchingInstance,
    deferred_acceptance,
    mmq_match,
    verify,
)
from cellassoc.experiments import optimal_min_quota_sweep
from cellassoc.policies import PolicyConfig, mmq_policy
from cellassoc.scenario import (
    PathLossParams,
    ScenarioConfig,
    distance,
    generate_scenario,
    rng_stream,
)
from helpers import random_feasible_instance


def read_rows(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_criterion_1_matcher_guarantee_suite():
    # 1,000 random instances (M <= 6, N <= 3, feasible quotas): the matcher's
    # output must be feasible, free of blocking pairs under both readings,
    # and Pareto optimal by exhaustive enumeration. Budget: under 60 s.
    rng = np.random.default_rng(20240)
    start = time.perf_counter()
    for _ in range(1000):
        inst = random_feasible_instance(rng, max_agents=6, max_hosts=3)
        report = verify(inst, mmq_match(inst), enumeration_budget=10**6)
        assert report.feasible
        assert report.blocking_pairs == ()
        assert report.blocking_pairs_literal == ()
        assert report.pareto_optimal is True
    elapsed = time.perf_counter() - start
    assert elapsed < 60.0
    print(f"\nACCEPTANCE 1 (matcher guarantee suite): PASS - "
          f"1000/1000 feasible, stable, Pareto optimal in {elapsed:.1f}s")


def test_criterion_2_counterexample_reproduction():
    # The 3x3 instance on which deferred acceptance strands a host below its
    # minimum quota, while the quota-aware matcher stays feasible. Exact.
    inst = MatchingInstance(
        n_agents=3, n_hosts=3,
        agent_prefs=((0, 1, 2), (0, 1, 2), (0, 1, 2)),
        master_list=(0, 1, 2),
        q_min=(1, 1, 1), q_max=(2, 2, 2),
    )
    da = deferred_acceptance(inst)
    assert da.host_to_agents == ((0, 1), (2,), ())
    assert verify(inst, da).feasible is False
    mmq = mmq_match(inst)
    assert verify(inst, mmq).feasible is True
    print("\nACCEPTANCE 2 (DA counterexample): PASS - "
          f"DA={da.host_to_agents} infeasible, quota matcher feasible")


def test_criterion_3_sum_rate_beats_baselines(tmp_path):
    # M=50, standard parameters, 200 runs, random microwave minima, baselines
    # at their per-run load-optimal biases. Gate: the quota policy's mean sum
    # rate is at least 5% above each baseline with non-overlapping 95% CIs,
    # inside 5 minutes.
    start = time.perf_counter()
    cfg = ExperimentConfig(
        scenario=ScenarioConfig(n_ue=50, seed=42),
        policies_enabled=("mmq", "max_rssi", "max_sinr"),
        n_runs=200,
        random_muw_quota=True,
        auto_bias=True,
        output_path=str(tmp_path / "sumrate.csv"),
    )
    out = run_experiment(cfg)
    elapsed = time.perf_counter() - start
    agg = {r["policy"]: r for r in read_rows(aggregate_path(out))}
    mean = {p: float(r["sum_rate_mean_bps"]) for p, r in agg.items()}
    half = {p: 1.96 * float(r["sum_rate_se_bps"]) for p, r in agg.items()}
    gains = {}
    for base in ("max_rssi", "max_sinr"):
        gains[base] = 100.0 * (mean["mmq"] - mean[base]) / mean[base]
        assert gains[base] >= 5.0
        assert mean["mmq"] - half["mmq"] > mean[base] + half[base]  # CIs disjoint
    assert elapsed < 300.0
    print(f"\nACCEPTANCE 3 (sum rate vs baselines): PASS - "
          f"+{gains['max_rssi']:.1f}% over max-RSSI, "
          f"+{gains['max_sinr']:.1f}% over max-SINR in {elapsed:.0f}s")


def test_criterion_4_optimal_quota_trend():
    # Sum-rate-optimal microwave minimum quota: 8 +/- 2 at M=100 with ten
    # microwave BSs, and non-decreasing in M with at most one inversion.
    cfg = ScenarioConfig(seed=7)
    stars = {}
    for m in (20, 40, 60, 80, 100):
        row = optimal_min_quota_sweep(
            cfg, [m], range(0, m // cfg.n_muw + 1), n_runs=60, n_slots=8
        )[0]
        stars[m] = row["q_star"]
    assert abs(stars[100] - 8) <= 2
    seq = [stars[m] for m in (20, 40, 60, 80, 100)]
    inversions = sum(1 for a, b in zip(seq, seq[1:]) if b < a)
    assert inversions <= 1
    print(f"\nACCEPTANCE 4 (optimal quota trend): PASS - q*={stars}, "
          f"{inversions} inversion(s)")


def test_criterion_5_load_balancing_beats_cre(tmp_path):
    # M=70, 200 runs: the quota policy's mean load spread must undercut the
    # best point of each baseline's bias sweep by at least 25%.
    margins = {}
    for fig, baseline in (("fig5", "max_rssi"), ("fig6", "max_sinr")):
        out = run_figure(fig, output_path=tmp_path / f"{fig}.csv", n_runs=200)
        agg = read_rows(aggregate_path(out))
        mmq_means = [float(r["delta_kappa_mean"]) for r in agg if r["policy"] == "mmq"]
        base_means = [float(r["delta_kappa_mean"]) for r in agg if r["policy"] == baseline]
        mmq_dk = mmq_means[0]  # bias does not enter the quota policy
        best_base = min(base_means)
        margins[baseline] = 100.0 * (1.0 - mmq_dk / best_base)
        assert mmq_dk <= 0.75 * best_base
    print(f"\nACCEPTANCE 5 (load spread vs CRE): PASS - "
          f"{margins['max_rssi']:.0f}% below best max-RSSI, "
          f"{margins['max_sinr']:.0f}% below best max-SINR")


def test_criterion_6_pigeonhole_balance():
    # Floor/ceil quotas on every BS force a load spread of at most 1, on
    # every one of 1,000 runs; exercised on both a divisible and a
    # non-divisible UE count.
    checked = 0
    for m_count, base_seed in ((50, 10_000), (73, 20_000)):
        for run in range(500):
            cfg = ScenarioConfig(n_ue=m_count, seed=base_seed + run)
            sc = generate_scenario(cfg)
            links = realize_links(sc, rng_stream(cfg.seed, 1))
            n = cfg.n_bs
            pol = PolicyConfig(
                q_min_mmw=m_count // n, q_min_muw=m_count // n,
                q_max_mmw=-(-m_count // n), q_max_muw=-(-m_count // n),
            )
            matching = mmq_policy(sc, links, sc.los_prob, pol)
            loads = np.asarray(matching.loads)
            assert loads.max() - loads.min() <= 1
            checked += 1
    print(f"\nACCEPTANCE 6 (pigeonhole balance): PASS - "
          f"load spread <= 1 on {checked}/1000 runs")


def test_criterion_7_numerical_micro_checks():
    # Frozen independent-oracle values, 1e-6 relative tolerance.
    assert path_loss_db(PathLossParams(2.0, 70.0), 1.0, 0.0) == pytest.approx(70.0, rel=1e-6)
    assert path_loss_db(PathLossParams(2.0, 70.0), 100.0, 0.0) == pytest.approx(110.0, rel=1e-6)
    assert path_loss_db(PathLossParams(3.0, 38.0), 100.0, 5.0) == pytest.approx(103.0, rel=1e-6)
    assert mmw_spectral_efficiency(30.0, 18.0, 110.0, 1e9, -174.0) == pytest.approx(
        7.317316001936548, rel=1e-6
    )
    assert muw_spectral_efficiency(30.0, 103.0, [113.0, 120.0], 10e6, -174.0) == pytest.approx(
        3.214401905516492, rel=1e-6
    )
    assert distance((100.0, 200.0), (-50.0, -16.0)) == pytest.approx(
        262.9752840097335, rel=1e-6
    )

    # Moving-average estimator: mean over 1e4 trials lands within 3 standard
    # errors of the exact expectation rho + (1-lambda)^T (f0 - rho).
    rho, lam, k, frames, trials = 0.35, 0.1, 100, 40, 10_000
    rng = np.random.default_rng(99)
    finals = np.empty(trials)
    for t in range(trials):
        est = LosEstimate(value=0.5, smoothing=lam, window_slots=k)
        for _ in range(frames):
            est = update_f(est, int(rng.binomial(k, rho)), 1)
        finals[t] = est.value
    expected = rho + (1 - lam) ** frames * (0.5 - rho)
    se = finals.std(ddof=1) / math.sqrt(trials)
    deviation = abs(finals.mean() - expected)
    assert deviation < 3 * se
    print(f"\nACCEPTANCE 7 (numerical micro-checks): PASS - "
          f"oracle values at 1e-6, estimator off by {deviation/se:.2f} SE")


def test_criterion_8_end_to_end_determinism(tmp_path):
    # Same config twice: byte-identical CSVs. Two workers: identical to serial.
    def config(name, runs=4):
        return ExperimentConfig(
            scenario=ScenarioConfig(n_mmw=3, n_muw=3, n_ue=12, seed=5),
            policy=PolicyConfig(q_min_muw=1),
            n_runs=runs, n_slots=2,
            sweep={"m": (10, 12)},
            output_path=str(tmp_path / name),
        )

    p1 = run_experiment(config("one.csv"))
    p2 = run_experiment(config("two.csv"))
    assert p1.read_bytes() == p2.read_bytes()
    assert aggregate_path(p1).read_bytes() == aggregate_path(p2).read_bytes()
    p3 = run_experiment(config("par.csv"), workers=2)
    assert p1.read_bytes() == p3.read_bytes()
    print("\nACCEPTANCE 8 (determinism): PASS - reruns and parallel runs "
          "byte-identical")
