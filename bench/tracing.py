"""Span tracing of cellassoc's layers from outside the package.

The tracer replaces module attributes that the Monte Carlo loop in
cellassoc.experiments calls through with timing wrappers, and puts every
original back when the ``traced`` block ends, also on error. No source file of the package is
touched. Spans are kept in memory; ``write_spans`` saves them at the end.

A span is ``[name, start, end, parent, point]``: ``parent`` is the index of
the enclosing span (-1 at top level) and ``point`` numbers the run-point
(one grid point x one Monte Carlo run) the span belongs to.
"""

from __future__ import annotations

import importlib
import json
import time
from contextlib import contextmanager

# (namespace module, attribute, layer). The loop in cellassoc.experiments
# calls the first group through its own imported names; build_matching is
# imported from cellassoc.matching at call time; the last group is called by
# policies.build_matching_instance through the policies namespace. Nested
# calls (mmq_match -> build_matching) become child spans. cellassoc.los has
# no entry: no simulate path calls it (the LoS learning loop is deferred).
TARGETS = (
    ("cellassoc.experiments", "generate_scenario", "scenario"),
    ("cellassoc.experiments", "rng_stream", "scenario"),
    ("cellassoc.experiments", "realize_links", "channel"),
    ("cellassoc.experiments", "draw_los_slots", "channel"),
    ("cellassoc.experiments", "build_matching_instance", "policies"),
    ("cellassoc.policies", "compute_utilities", "policies"),
    ("cellassoc.policies", "build_preferences", "policies"),
    ("cellassoc.policies", "build_master_list", "policies"),
    ("cellassoc.policies", "MatchingInstance", "matching"),
    ("cellassoc.experiments", "rssi_matrix_dbm", "policies"),
    ("cellassoc.experiments", "sinr_matrix_db", "policies"),
    ("cellassoc.experiments", "mmq_match", "matching"),
    ("cellassoc.experiments", "deferred_acceptance", "matching"),
    ("cellassoc.matching", "build_matching", "matching"),
    ("cellassoc.experiments", "verify", "matching"),
    ("cellassoc.experiments", "slot_averaged_rates", "metrics"),
    ("cellassoc.experiments", "run_metrics", "metrics"),
    ("cellassoc.experiments", "max_load_difference", "metrics"),
)

# Every run-point draws its scenario exactly once, before anything else, so
# a top-level call of this name starts the next run-point.
POINT_START = "scenario.generate_scenario"

# Layers that get a share; "experiments" is the loop's own time, i.e. the
# wall time not covered by any span (bias search, row assembly, CSV writes).
LAYERS = ("scenario", "channel", "policies", "matching", "metrics", "experiments")


def span_name(attr: str, layer: str) -> str:
    return f"{layer}.{attr}"


class Tracer:
    """In-memory span recorder for one traced run (single thread)."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._point = -1

    def wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        starts_point = name == POINT_START

        def wrapper(*args, **kwargs):
            if starts_point and not stack:
                self._point += 1
            idx = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self._point]
            spans.append(span)
            stack.append(idx)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        wrapper.__wrapped__ = fn
        return wrapper

    def summary(self, wall_s: float) -> dict:
        """Per-name self time and call count, plus the time no span covers.

        A span's self time is its duration minus the durations of its direct
        children; top-level durations add up to the time covered by spans.
        """
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent >= 0:
                child[parent] += end - start
        per_name: dict[str, dict] = {}
        covered = 0.0
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            entry = per_name.setdefault(name, {"self_s": 0.0, "calls": 0})
            entry["self_s"] += (end - start) - child[i]
            entry["calls"] += 1
            if parent < 0:
                covered += end - start
        return {
            "functions": per_name,
            "experiments_self_s": wall_s - covered,
            "points": self._point + 1,
            "missing": list(self.missing),
        }


@contextmanager
def traced(targets=TARGETS):
    """Install wrappers for ``targets``; restore every original on exit.

    A target whose attribute no longer exists is recorded in
    ``tracer.missing`` and skipped.
    """
    tracer = Tracer()
    originals = []
    try:
        for module_name, attr, layer in targets:
            name = span_name(attr, layer)
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            fn = getattr(module, attr, None)
            if fn is None:
                tracer.missing.append(name)
                continue
            originals.append((module, attr, fn))
            setattr(module, attr, tracer.wrap(name, fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(originals):
            setattr(module, attr, fn)


def write_spans(spans, path) -> None:
    """One JSON object per span: name, start, end, parent, point."""
    with open(path, "w") as fh:
        for name, start, end, parent, point in spans:
            fh.write(
                json.dumps(
                    {"name": name, "start": start, "end": end,
                     "parent": parent, "point": point}
                )
                + "\n"
            )
