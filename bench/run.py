"""cellassoc benchmark: one workload, end-to-end or traced per-layer metrics.

Usage (from the root of a checkout):

    python3 bench/run.py --workload fig3_serial --seed 3 --seconds 20 --trace 0

Each repetition is ``bench/rep.py`` in a fresh interpreter: it imports the
package from ``src``, loads a config generated from
``bench/workloads/<workload>.cfg`` and runs ``run_experiment`` once. The
first repetition runs the workload's own config (its default seed) and its
CSVs must match ``bench/digests.json``; the timed repetitions then run with
seeds derived from ``--seed`` until ``--seconds`` have passed.

``--trace 0`` reports the end-to-end metrics (points_per_s, setup_s,
peak_rss_mb). ``--trace 1`` alternates untraced serial, traced serial and,
for a pooled workload, untraced parallel repetitions on the same seeds, and
reports per-layer self times, call counts and shares. Every metric is
printed on its own line with its unit; the last line is one JSON object
with keys correct, attempted, failed and metrics. A failed output check
makes the exit code 1; a checkout without the package makes it 2.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_ROOT = ROOT / ".bench_out"

sys.path.insert(0, str(HERE))
from calib import NOMINAL_S, time_kernel  # noqa: E402
from tracing import LAYERS, TARGETS, span_name  # noqa: E402

# Worker processes per workload; the config files hold everything else.
WORKLOADS = {"fig3_serial": 1, "fig7_gated_w2": 2, "scale_tight": 1}

MIN_REPS = 3  # timed repetitions per run, whatever --seconds says
DEADLINE_S = 150  # start no repetition after this long
LIMIT_S = 170  # kill a repetition still running at this point

END_TO_END_UNITS = {"points_per_s": "1/s", "setup_s": "s", "peak_rss_mb": "MB"}


def per_layer_units() -> dict[str, str]:
    """Names and units of the per-layer metrics, in report order."""
    units = {}
    for _, attr, layer in TARGETS:
        name = span_name(attr, layer)
        units[f"{name}.self_s"] = "s"
        units[f"{name}.calls"] = "count"
        units[f"{name}.share"] = "ratio"
    for layer in LAYERS:
        units[f"{layer}.share"] = "ratio"
    units["experiments.self_s"] = "s"
    units["trace.overhead_share"] = "ratio"
    units["experiments.pool_speedup"] = "ratio"
    return units


def rep_seed(seed: int, k: int, n_runs: int) -> int:
    """Base seed of timed repetition k: disjoint drops for every (seed, k < 1000)."""
    return (seed * 1000 + k) * n_runs


def write_config(base_text: str, path: Path, overrides: dict) -> Path:
    """The workload config with ``overrides`` replacing keys of the same name."""
    kept = [
        line for line in base_text.splitlines()
        if line.split("#", 1)[0].split("=", 1)[0].strip() not in overrides
    ]
    kept += [f"{key} = {value}" for key, value in overrides.items()]
    path.write_text("\n".join(kept) + "\n")
    return path


def config_items(text: str) -> dict[str, str]:
    """The ``key = value`` pairs of a config file, comments dropped."""
    items = {}
    for line in text.splitlines():
        parts = line.split("#", 1)[0].split("=", 1)
        if len(parts) == 2:
            items[parts[0].strip()] = parts[1].strip()
    return items


def run_rep(config: Path, workers: int, timeout: float, trace: bool = False,
            spans: Path | None = None) -> dict:
    """Run one repetition in a fresh interpreter and return its report.

    A repetition that crashes, times out or prints no report comes back with
    ``error`` set; the caller counts all its run-points as failed.
    """
    cmd = [sys.executable, str(HERE / "rep.py"), "--config", str(config),
           "--workers", str(workers)]
    if trace:
        cmd.append("--trace")
    if spans is not None:
        cmd += ["--spans", str(spans)]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True, start_new_session=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the child and any pool workers
        proc.communicate()
        return {"error": f"repetition timed out after {timeout:.0f} s"}
    lines = stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"repetition exited {proc.returncode}: {stderr.strip()[-2000:]}"}
    return json.loads(lines[-1])


def digest_errors(workload: str, report: dict) -> list[str]:
    """Differences between a default-seed report and bench/digests.json."""
    expected = json.loads((HERE / "digests.json").read_text())[workload]
    return [
        f"{key}: expected {expected[key]}, got {report.get(key)}"
        for key in ("csv_sha256", "agg_sha256")
        if report.get(key) != expected[key]
    ]


def spread(values: list[float]) -> str:
    med = statistics.median(values)
    if len(values) < 2:
        return f"median of {len(values)}"
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / med if med else float("nan")
    return f"median of {len(values)}, q1 {q1:.6g}, q3 {q3:.6g}, spread {share:.1%}"


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            ref = head[5:]
            ref_file = ROOT / ".git" / ref
            if ref_file.is_file():
                return ref_file.read_text().strip()
            for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
                if line.endswith(" " + ref):
                    return line.split()[0]
            return "unknown"
        return head
    except OSError:
        return "unknown"


class Run:
    """Bookkeeping for one benchmark invocation: reports, checks, failures."""

    def __init__(self, workload: str, runs: int | None) -> None:
        self.workload = workload
        self.workers = WORKLOADS[workload]
        self.base_text = (HERE / "workloads" / f"{workload}.cfg").read_text()
        items = config_items(self.base_text)
        self.default_runs = int(items["experiment.runs"])
        self.n_runs = runs or self.default_runs
        grid = 1
        for key, value in items.items():
            if key.startswith("sweep."):
                grid *= len([v for v in value.split(",") if v.strip()])
        self.points = grid * self.n_runs  # run-points per repetition
        self.out_dir = OUT_ROOT / workload
        self.out_dir.mkdir(parents=True, exist_ok=True)
        for old in self.out_dir.iterdir():
            old.unlink()
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []  # failed checks
        self.notes: list[str] = []  # e.g. traced names that no longer exist
        self.numpy = "unknown"
        self.series: dict[str, list[float]] = {}  # per-repetition values
        self.start = time.perf_counter()

    def more(self, k: int, minimum: int, deadline: float) -> bool:
        """Whether to start repetition k: until ``minimum`` and ``deadline``."""
        now = time.perf_counter()
        return now - self.start < DEADLINE_S and (k < minimum or now < deadline)

    def rep(self, config: Path, workers: int, trace: bool = False,
            spans: Path | None = None) -> dict:
        """Run a repetition and count its run-points; a crash fails them all."""
        timeout = max(1.0, LIMIT_S - (time.perf_counter() - self.start))
        report = run_rep(config, workers, timeout, trace, spans)
        self.attempted += self.points
        if report.get("error"):
            self.failed += self.points
            self.problems.append(report["error"])
        else:
            self.failed += report["failed_points"]
            self.numpy = report["numpy"]
        return report

    def config(self, tag: str, seed: int | None) -> Path:
        overrides = {"experiment.out": str(self.out_dir / f"{tag}.csv"),
                     "experiment.runs": self.n_runs}
        if seed is not None:
            overrides["scenario.seed"] = seed
        return write_config(self.base_text, self.out_dir / f"{tag}.cfg", overrides)

    def warm_up(self) -> None:
        """Default-seed repetition: fills caches and checks the digests."""
        report = self.rep(self.config("default", None), self.workers)
        if report.get("error") or self.n_runs != self.default_runs:
            return
        errors = digest_errors(self.workload, report)
        if errors:
            self.failed += self.points - report["failed_points"]
            self.problems += [f"default-seed digest mismatch: {e}" for e in errors]


def end_to_end(run: Run, seed: int, seconds: float) -> dict:
    """Timed repetitions, each bracketed by timings of the reference kernel.

    points_per_s is each repetition's throughput scaled by (mean of the two
    bracketing kernel times / NOMINAL_S), so that the host's speed swings
    cancel; the raw median is printed next to it.
    """
    reps = []
    time_kernel()  # the first call pays one-off allocation costs
    kernel_s = [time_kernel()]
    deadline = time.perf_counter() + seconds
    k = 0
    while run.more(k, MIN_REPS, deadline):
        report = run.rep(run.config(f"rep{k}", rep_seed(seed, k, run.n_runs)), run.workers)
        kernel_s.append(time_kernel())
        if not report.get("error"):
            reps.append((report, (kernel_s[-2] + kernel_s[-1]) / 2))
        k += 1
    if not reps:
        return {}
    raw = [r["points"] / r["wall_s"] for r, _ in reps]
    series = {
        "points_per_s": [x * c / NOMINAL_S for x, (_, c) in zip(raw, reps)],
        "setup_s": [r["setup_s"] for r, _ in reps],
        "peak_rss_mb": [r["peak_rss_mb"] for r, _ in reps],
    }
    notes = {name: spread(v) for name, v in series.items()}
    notes["points_per_s"] += (
        f"; raw {statistics.median(raw):.6g} 1/s, kernel {statistics.median(kernel_s):.4g} s"
    )
    run.series = dict(series, raw_points_per_s=raw, kernel_s=kernel_s)
    return {name: (statistics.median(v), notes[name]) for name, v in series.items()}


def per_layer(run: Run, seed: int, seconds: float) -> dict:
    """Per seed k: untraced serial, traced serial and, for a pooled workload,
    untraced parallel repetitions of one config, in rotating order."""
    modes = [("serial", 1, False), ("traced", 1, True)]
    if run.workers > 1:
        modes.append(("parallel", run.workers, False))
    walls = {mode: [] for mode, _, _ in modes}
    traces = []
    deadline = time.perf_counter() + seconds
    k = 0
    while run.more(k, 2, deadline):
        config = run.config(f"rep{k}", rep_seed(seed, k, run.n_runs))
        order = modes[k % len(modes):] + modes[: k % len(modes)]
        reports = {}
        for mode, workers, trace in order:
            spans = run.out_dir / f"rep{k}.spans.jsonl" if trace else None
            reports[mode] = run.rep(config, workers, trace, spans)
        k += 1
        if any(r.get("error") for r in reports.values()):
            continue
        digests = {(r["csv_sha256"], r["agg_sha256"]) for r in reports.values()}
        if len(digests) != 1:
            # Traced, serial and parallel output of one config must be byte-equal.
            run.failed += run.points * (len(modes) - 1)
            run.problems.append(f"rep{k - 1}: CSVs differ between {sorted(reports)}")
            continue
        for mode in walls:
            walls[mode].append(reports[mode]["wall_s"])
        traces.append(reports["traced"]["trace"])
    if not traces:
        return {}

    run.series = {f"{mode}_wall_s": v for mode, v in walls.items()}
    n = len(traces)
    traced_wall = sum(walls["traced"])
    metrics: dict[str, float] = {}
    layer_self = dict.fromkeys(LAYERS, 0.0)
    missing = set(traces[0]["missing"])
    for _, attr, layer in TARGETS:
        name = span_name(attr, layer)
        if name in missing:
            continue
        self_s = sum(t["functions"].get(name, {}).get("self_s", 0.0) for t in traces)
        calls = sum(t["functions"].get(name, {}).get("calls", 0) for t in traces)
        metrics[f"{name}.self_s"] = self_s / n
        metrics[f"{name}.calls"] = calls / n
        metrics[f"{name}.share"] = self_s / traced_wall
        layer_self[layer] += self_s
    layer_self["experiments"] = sum(t["experiments_self_s"] for t in traces)
    for layer in LAYERS:
        metrics[f"{layer}.share"] = layer_self[layer] / traced_wall
    metrics["experiments.self_s"] = layer_self["experiments"] / n
    # Medians over seeds of paired repetitions (same config, same inputs).
    serial = walls["serial"]
    metrics["trace.overhead_share"] = statistics.median(
        (t - s) / t for s, t in zip(serial, walls["traced"])
    )
    # Serial traced wall minus tracing overhead is the serial untraced wall;
    # a one-worker workload has no pool, so its speed-up is 1 by definition.
    metrics["experiments.pool_speedup"] = (
        statistics.median(s / p for s, p in zip(serial, walls["parallel"]))
        if "parallel" in walls else 1.0
    )
    if missing:
        run.notes += [f"traced name no longer exists: {m}" for m in sorted(missing)]
    return {name: (value, f"{n} traced repetitions") for name, value in metrics.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cellassoc benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--runs", type=int, default=None,
                        help="override experiment.runs (smoke tests; skips the digest check)")
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0 or (args.runs is not None and args.runs < 1):
        parser.error("--seed must be >= 0, --seconds and --runs > 0")
    if not (ROOT / "src" / "cellassoc" / "__init__.py").is_file():
        print(f"error: no cellassoc package under {ROOT / 'src'}", file=sys.stderr)
        return 2

    run = Run(args.workload, args.runs)
    run.warm_up()
    measure = per_layer if args.trace else end_to_end
    results = measure(run, args.seed, args.seconds)

    units = per_layer_units() if args.trace else END_TO_END_UNITS
    stamp = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "n_runs": run.n_runs, "workers": run.workers,
        "python": platform.python_version(), "numpy": run.numpy,
        "nproc": os.cpu_count(), "commit": git_commit(),
    }
    print("# " + json.dumps(stamp))
    for name, unit in units.items():
        if name in results:
            value, note = results[name]
            print(f"{name} = {value:.6g} {unit}  [{args.workload}; {note}]")
        else:
            print(f"{name} = missing {unit}  [{args.workload}]")
    failed_share = run.failed / run.attempted if run.attempted else 1.0
    print(f"failed_share = {failed_share:.6g} ratio  [{run.failed} of {run.attempted} run-points]")
    for problem in run.problems:
        print(f"problem: {problem}", file=sys.stderr)
    for note in run.notes:
        print(f"note: {note}", file=sys.stderr)

    metrics = {
        name: {"value": results[name][0], "unit": unit}
        for name, unit in units.items() if name in results
    }
    correct = run.failed == 0 and not run.problems
    (run.out_dir / "result.json").write_text(
        json.dumps({"stamp": stamp, "metrics": metrics, "series": run.series,
                    "problems": run.problems, "notes": run.notes}, indent=1)
    )
    print(json.dumps({"correct": correct, "attempted": run.attempted,
                      "failed": run.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
