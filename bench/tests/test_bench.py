"""Tests of the benchmark harness itself.

Run from the root of a checkout: python3 -m pytest bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import rep  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
from cellassoc import load_config, run_experiment  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def bench(args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    return proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    proc = bench(["--workload", workload, "--seed", "5", "--seconds", "1",
                  "--trace", str(trace), "--runs", "1"])
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert f"\n{m['name']} = " in proc.stdout
    assert "\nfailed_share = 0 ratio" in proc.stdout


def test_benchmark_json_lists_the_metrics_the_harness_emits():
    assert [m["name"] for m in SPEC["per_layer"]] == list(bench_run.per_layer_units())
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == bench_run.END_TO_END_UNITS
    assert sorted(w["name"] for w in SPEC["workloads"]) == sorted(bench_run.WORKLOADS)


def test_traced_restores_every_attribute_even_on_error():
    import cellassoc.experiments as experiments
    import cellassoc.matching as matching
    import cellassoc.policies as policies

    modules = (experiments, policies, matching)
    before = [dict(vars(m)) for m in modules]
    with pytest.raises(RuntimeError):
        with tracing.traced():
            assert experiments.verify is not before[0]["verify"]
            assert policies.MatchingInstance is not before[1]["MatchingInstance"]
            raise RuntimeError("fails inside the traced block")
    for module, snapshot in zip(modules, before):
        after = vars(module)
        assert after.keys() == snapshot.keys()
        assert all(after[k] is v for k, v in snapshot.items())


def test_missing_target_is_reported_not_raised():
    targets = tracing.TARGETS + (
        ("cellassoc.experiments", "no_such_function", "matching"),
        ("cellassoc.no_such_module", "f", "scenario"),
    )
    with tracing.traced(targets) as tracer:
        pass
    assert tracer.missing == ["matching.no_such_function", "scenario.f"]


def test_spans_nest_and_self_times_add_up_to_the_wall_time(tmp_path):
    cfg = bench_run.write_config(
        (BENCH / "workloads" / "fig7_gated_w2.cfg").read_text(), tmp_path / "t.cfg",
        {"experiment.out": tmp_path / "t.csv", "experiment.runs": 3},
    )
    exp = load_config(cfg)
    with tracing.traced() as tracer:
        run_experiment(exp)
    summary = tracer.summary(wall_s=10.0)
    assert summary["points"] == 3
    assert summary["functions"]["matching.mmq_match"]["calls"] == 3
    # mmq_match builds its matching through build_matching: a child span.
    names = [s[0] for s in tracer.spans]
    child = [s for s in tracer.spans if s[0] == "matching.build_matching" and s[3] >= 0]
    assert any(names[s[3]] == "matching.mmq_match" for s in child)
    assert {s[4] for s in tracer.spans} == {0, 1, 2}
    total_self = sum(f["self_s"] for f in summary["functions"].values())
    assert total_self + summary["experiments_self_s"] == pytest.approx(10.0)
    tracing.write_spans(tracer.spans, tmp_path / "spans.jsonl")
    first = json.loads((tmp_path / "spans.jsonl").read_text().splitlines()[0])
    assert set(first) == {"name", "start", "end", "parent", "point"}


def test_mutated_csv_fails_the_digest_check(tmp_path):
    cfg = bench_run.write_config(
        (BENCH / "workloads" / "fig3_serial.cfg").read_text(), tmp_path / "f.cfg",
        {"experiment.out": tmp_path / "f.csv"},
    )
    exp = load_config(cfg)
    out = run_experiment(exp)
    assert bench_run.digest_errors("fig3_serial", rep.digests(out)) == []
    assert rep.failed_points(out, rep.n_points(exp), exp.policies_enabled) == set()

    # The first "true" is run-point 0's mmq feasibility flag.
    out.write_text(out.read_text().replace("true", "false", 1))
    assert len(bench_run.digest_errors("fig3_serial", rep.digests(out))) == 1
    assert rep.failed_points(out, rep.n_points(exp), exp.policies_enabled) == {0}


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench(["--workload", "fig3_serial", "--seed", "1", "--seconds", "1",
                  "--trace", "0"], cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
