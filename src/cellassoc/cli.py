"""Command line entry points: ``simulate`` and ``match``."""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .experiments import (
    FIGURES,
    VerificationFailure,
    load_config,
    run_experiment,
    run_figure,
    with_overrides,
)
from .matching import deferred_acceptance, mmq_match, parse_instance, verify


def simulate_main(argv=None) -> int:
    """Run a config-file experiment or one of the canned figure sweeps."""
    argv = sys.argv[1:] if argv is None else list(argv)
    figure = argv[:1] == ["figure"]
    if figure:
        parser = argparse.ArgumentParser(
            prog="simulate figure", description="Run a canned figure sweep."
        )
        parser.add_argument("figure_id", choices=FIGURES)
    else:
        parser = argparse.ArgumentParser(
            prog="simulate", description="Run a Monte Carlo cell association experiment."
        )
        parser.add_argument("--config", required=True, help="experiment config file")
    parser.add_argument("--runs", type=int, help="override run count")
    parser.add_argument("--seed", type=int, help="override base seed")
    parser.add_argument("--out", help="override output CSV path")
    parser.add_argument("--workers", type=int, default=1, help="worker processes")
    args = parser.parse_args(argv[figure:])
    try:
        if figure:
            out = run_figure(args.figure_id, args.out, args.runs, args.seed, args.workers)
        else:
            config = with_overrides(load_config(args.config), args.runs, args.seed, args.out)
            out = run_experiment(config, workers=args.workers)
    except (ValueError, VerificationFailure, OSError) as exc:
        print(f"error: {exc}", *getattr(exc, "__notes__", ()), sep="\n", file=sys.stderr)
        return 1
    print(out)
    return 0


def match_main(argv=None) -> int:
    """Solve a text-format matching instance and print the verifier report."""
    parser = argparse.ArgumentParser(
        prog="match", description="Run the matching engine on an instance file."
    )
    parser.add_argument("--instance", required=True, help="instance file path")
    parser.add_argument(
        "--algorithm", choices=("mmq", "da"), default="mmq",
        help="mmq (quota-aware, default) or da (deferred acceptance)",
    )
    args = parser.parse_args(sys.argv[1:] if argv is None else list(argv))
    try:
        instance = parse_instance(Path(args.instance).read_text())
        solver = mmq_match if args.algorithm == "mmq" else deferred_acceptance
        matching = solver(instance)
        report = verify(instance, matching)
    except (OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1

    for host, agents in enumerate(matching.host_to_agents):
        members = " ".join(str(a) for a in agents) or "-"
        print(f"host {host} (load {matching.loads[host]}): {members}")
    print(f"feasible: {report.feasible}")
    print(f"blocking pairs: {len(report.blocking_pairs)} {list(report.blocking_pairs)}")
    if report.pareto_optimal is not None:
        print(f"pareto optimal: {report.pareto_optimal}")
    ok = report.feasible and not report.blocking_pairs
    return 0 if ok else 1
