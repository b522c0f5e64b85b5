"""One benchmark repetition in a fresh interpreter.

Usage: python3 bench/rep.py --config FILE --workers N [--trace] [--spans FILE]

Imports cellassoc from the checkout's ``src`` directory, loads the config
through ``load_config``, runs ``run_experiment`` once, checks its output and
prints one JSON object: set-up time, wall time, run-points attempted and
failed, CSV digests, peak RSS and, with ``--trace``, the per-layer summary.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def n_points(exp) -> int:
    """Run-points of an experiment: grid points x Monte Carlo runs."""
    grid = math.prod(len(v) for v in (exp.sweep or {}).values())
    return grid * exp.n_runs


def failed_points(csv_path, points: int, policies) -> set[int]:
    """Run-points whose rows fail the output checks.

    Rows come ordered by (grid point, run, policy), one per enabled policy,
    so row i belongs to run-point i // len(policies). Each run-point needs
    exactly one mmq row with feasible=true and blocking_pairs=0; a file with
    the wrong number of rows fails every run-point.
    """
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    per_point = len(policies)
    if len(rows) != points * per_point:
        return set(range(points))
    bad = set()
    for p in range(points):
        group = rows[p * per_point : (p + 1) * per_point]
        mmq = [r for r in group if r["policy"] == "mmq"]
        if "mmq" in policies and not (
            len(mmq) == 1
            and mmq[0]["feasible"] == "true"
            and mmq[0]["blocking_pairs"] == "0"
        ):
            bad.add(p)
    return bad


def peak_rss_mb() -> float:
    """High-water RSS of this process image.

    VmHWM starts afresh at exec; ru_maxrss would also carry the RSS of the
    parent that forked this interpreter.
    """
    for line in Path("/proc/self/status").read_text().splitlines():
        if line.startswith("VmHWM:"):
            return int(line.split()[1]) / 1024.0
    raise RuntimeError("no VmHWM in /proc/self/status")


def digests(csv_path) -> dict:
    """sha256 of the per-run CSV and of its ``_agg`` companion."""
    from cellassoc.experiments import aggregate_path

    return {
        "csv_sha256": hashlib.sha256(Path(csv_path).read_bytes()).hexdigest(),
        "agg_sha256": hashlib.sha256(aggregate_path(csv_path).read_bytes()).hexdigest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--config", required=True)
    parser.add_argument("--workers", type=int, default=1)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--spans", default=None, help="write the spans here (JSONL)")
    args = parser.parse_args(argv)

    # Set-up: what `simulate --config` pays before its first run-point.
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import cellassoc.cli  # noqa: F401  (the `simulate` entry point's import)
    from cellassoc import load_config, run_experiment

    exp = load_config(args.config)
    setup_s = time.perf_counter() - t0

    if not Path(cellassoc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"cellassoc imported from {cellassoc.__file__}, not {SRC}", file=sys.stderr)
        return 2

    import numpy

    points = n_points(exp)
    result = {
        "setup_s": setup_s,
        "points": points,
        "failed_points": points,
        "numpy": numpy.__version__,
        "error": None,
    }
    try:
        if args.trace:
            from tracing import traced, write_spans

            with traced() as tracer:
                start = time.perf_counter()
                out = run_experiment(exp, workers=args.workers)
                wall_s = time.perf_counter() - start
            result["trace"] = tracer.summary(wall_s)
            if args.spans:
                write_spans(tracer.spans, args.spans)
        else:
            start = time.perf_counter()
            out = run_experiment(exp, workers=args.workers)
            wall_s = time.perf_counter() - start
        result["peak_rss_mb"] = peak_rss_mb()
        result["wall_s"] = wall_s
        result["failed_points"] = len(failed_points(out, points, exp.policies_enabled))
        result.update(digests(out))
    except Exception as exc:  # reported to the parent as failed run-points
        result["error"] = f"{type(exc).__name__}: {exc}"
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
