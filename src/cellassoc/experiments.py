"""Monte Carlo experiment driver: config files, sweeps, CSV output.

One experiment is a grid of parameter points times ``n_runs`` independent
seeded runs. Each run draws a scenario and LoS slots from ``base_seed + run``,
executes every enabled policy on the same spectral efficiencies, checks the
quota-aware policy's output (a failed check aborts the experiment; it would
mean an engine bug), and emits one CSV row per policy. Each batch also hands
back its microwave UEs' rates as one flat array in row order, which the rate
CDF writer pools. Runs go in batches:
re-keyed generators make each run's raw draws, and all else but each run's
matcher walk, the instance and its check included, runs once per batch on
arrays with a leading run axis. A second file with suffix ``_agg`` holds
per-point means and standard errors.

Output is deterministic: identical config gives byte-identical files, and
parallel execution matches serial because batches of runs depend on the grid
point alone and rows arrive in task order: grid point, then run, then policy.
"""

from __future__ import annotations

import csv
import itertools
import os
import re
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .channel import (
    LinkRealization,
    _row_blocks,
    draw_los_slots,
    link_budget,
    realize_links,
)
from .matching import build_matching, deferred_acceptance, format_instance, mmq_match, verify
from .metrics import (
    max_load_difference,
    percentile,
    rate_cdf,
    run_metrics,
    served_links,
    slot_averaged_rates,
)
from .policies import (
    CRE_BIAS_GRIDS,
    PolicyConfig,
    build_matching_instance,
    cre_association,
    rssi_matrix_dbm,
    sinr_matrix_db,
)
from .scenario import (
    STREAM_QUOTAS,
    ConfigurationError,
    ScenarioConfig,
    _check_fields,
    _field_kind,
    _is_integer,
    _parse_list,
    _require,
    generate_scenario,
    rekey,
    rng_stream,
)

POLICY_ORDER = ("mmq", "da", "max_rssi", "max_sinr")

SWEEP_KEYS = ("m", "q_min_mmw", "q_min_muw", "c_th", "bias_rssi_db", "bias_sinr_db")
# The (config, field) a sweep key sets: m is the scenario's UE count, the rest policy fields.
_SWEPT = {k: ("scenario", "n_ue") if k == "m" else ("policy", k) for k in SWEEP_KEYS}


class VerificationFailure(RuntimeError):
    """The quota-aware policy produced an infeasible or unstable matching."""


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioConfig = ScenarioConfig()
    policy: PolicyConfig = PolicyConfig()
    policies_enabled: tuple[str, ...] = POLICY_ORDER
    n_runs: int = 200
    n_slots: int = 10
    sweep: Optional[dict[str, tuple]] = None
    random_muw_quota: bool = False  # per-run i.i.d. microwave minima in [0, M/N2]
    auto_bias: bool = False  # per-run load-optimal CRE bias for the baselines
    output_path: str = "results.csv"

    def __post_init__(self) -> None:
        _check_fields(self)
        _require(self, ("n_runs", "n_slots"), lambda v: v >= 1, ">= 1")
        seed = int(self.scenario.seed)  # run seeds are 64-bit keys; numpy's uint64 would wrap
        if not 0 <= seed <= 2**64 - int(self.n_runs):
            raise ConfigurationError(f"seed must be in [0, 2**64 - n_runs], got {seed}")
        if not self.policies_enabled:
            raise ConfigurationError("policies_enabled must name at least one policy")
        unknown = set(self.policies_enabled) - set(POLICY_ORDER)
        if unknown:
            raise ConfigurationError(f"unknown policies in policies_enabled: {sorted(unknown)}")
        if len(set(self.policies_enabled)) < len(self.policies_enabled):
            raise ConfigurationError(f"policies_enabled repeats a policy: {self.policies_enabled}")
        if not Path(self.output_path).name:  # "", "." and "/" name no file to write
            raise ConfigurationError(f"output_path must name a file, got {self.output_path!r}")
        for key, values in (self.sweep or {}).items():
            if key not in SWEEP_KEYS:
                raise ConfigurationError(f"unknown sweep parameter {key!r}")
            if len(values) == 0:
                raise ConfigurationError(f"sweep.{key} has no values")
        if self.random_muw_quota and (self.policy.q_min_muw or "q_min_muw" in (self.sweep or {})):
            raise ConfigurationError(
                "random_muw_quota draws the microwave minima: q_min_muw must be 0 and not swept"
            )


def _grid_points(sweep: Optional[dict[str, tuple]]) -> list[dict]:
    """The product grid of a sweep, keys in ``SWEEP_KEYS`` order; no sweep is one point."""
    keys = [k for k in SWEEP_KEYS if k in (sweep or {})]
    return [dict(zip(keys, combo)) for combo in itertools.product(*(sweep[k] for k in keys))]


def _point_configs(exp: ExperimentConfig, overrides: dict) -> tuple[ScenarioConfig, PolicyConfig]:
    """The configs at grid point ``overrides``, base seed kept; a refused value raises
    ``ConfigurationError`` naming the point."""
    changes = {"scenario": {}, "policy": {}}
    for key, value in overrides.items():
        changes[_SWEPT[key][0]][_SWEPT[key][1]] = value
    try:
        return tuple(replace(getattr(exp, name), **values) for name, values in changes.items())
    except ValueError as exc:
        raise ConfigurationError(f"grid point {overrides}: {exc}") from exc


def _run_seed(scen: ScenarioConfig, run: int) -> int:
    """The seed of Monte Carlo run ``run``: the base seed plus the run index."""
    return int(scen.seed) + run


def _point_tasks(exp: ExperimentConfig, overrides: dict) -> list[tuple]:
    """The ``_run_batch`` arguments of grid point ``overrides``, one tuple per batch, each
    with its runs' drawn minimum quotas (None for fixed minima). Every run's row is checked
    against M first: a refusal names the point and, for drawn minima, the run and its seed."""
    scen, pol = _point_configs(exp, overrides)
    q_min, q_max = pol.quota_vectors(scen.n_mmw, scen.n_muw, scen.n_ue)
    rows = [q_min]
    if exp.random_muw_quota:
        cap = scen.n_ue // scen.n_muw  # random microwave minima are drawn in [0, cap]
        if cap > q_max[-1]:
            raise ConfigurationError(
                f"grid point {overrides}: random microwave minima reach M // N2 = {cap} > "
                f"q_max_muw = {q_max[-1]}"
            )
        rng = rng_stream(scen.seed, STREAM_QUOTAS)  # re-keyed to each run's quota stream
        draws = [rekey(rng, _run_seed(scen, r), STREAM_QUOTAS).integers(0, cap + 1, scen.n_muw)
                 for r in range(exp.n_runs)]
        rows = [q_min[: scen.n_mmw] + tuple(d.tolist()) for d in draws]
    for r, row in enumerate(rows):
        if not sum(row) <= scen.n_ue <= sum(q_max):
            run = f", run {r}, seed {_run_seed(scen, r)}" if exp.random_muw_quota else ""
            raise ConfigurationError(
                f"grid point {overrides}{run}: no feasible matching: sum q_min={sum(row)}, "
                f"M={scen.n_ue}, sum q_max={sum(q_max)}"
            )
    # Runs per batch depend on the grid point alone, never on ``workers``.
    return [(exp, overrides, range(b.start, b.stop), rows[b] if exp.random_muw_quota else None)
            for b in _row_blocks(exp.n_runs, scen.n_ue * scen.n_bs)]


def _run_batch(exp: ExperimentConfig, overrides: dict, runs: range, q_min) -> dict[str, list]:
    """The rows of runs ``runs`` of one grid point as ``ROW_COLUMNS`` columns,
    run-major with policies in ``POLICY_ORDER``, plus ``muw_rates_bps``: one
    flat array of every row's microwave UE rates in row order, row i holding
    ``ue_muw[i]`` of them. Run r's seed is the base seed plus r, and each run has its
    own matcher walk. ``q_min`` is None or each run's minimum quotas, which
    ``_point_tasks`` drew and checked. The drop keeps its runs' seeds, which the slot
    draw and the ``seed`` column read; each stream (scenario, slots) has one generator,
    re-keyed per run (see ``rekey``). Everything else runs once for the batch, on arrays
    with a leading run axis, and gives each run what it gets alone: one validated
    instance, one (R, P, M) matching of every enabled policy, one ``verify`` call. A
    failed verification names the grid point, the run, its seed and its first blocking pair.

    The radio chain runs in blocks of UE rows (``_row_blocks``, R·N entries a row): each
    block's link budget comes from its rows of the drop, its links and the enabled baselines'
    metrics are written into their rows of arrays allocated before the first block (``np.empty``
    touches no page a block has not written), and the block's budget is dropped. The drop's
    shadowing dies once the last block's budget is taken, the baselines' metrics once their bias
    searches are, and the links once ``served_links`` has gathered what the rates read, right
    after the matchers; ``verify``'s masks die once the quota-aware runs are checked, and the
    instance then. The association reads LoS probabilities only, so the links carry no LoS
    state and the (S, R, M, N1) slot stack is drawn last, for the rates alone."""
    scen, pol = _point_configs(exp, overrides)
    batch = generate_scenario(scen, [_run_seed(scen, r) for r in runs])
    baselines = {  # baseline -> (metric matrix builder, fixed bias)
        name: spec
        for name, spec in (("max_rssi", (rssi_matrix_dbm, pol.bias_rssi_db)),
                           ("max_sinr", (sinr_matrix_db, pol.bias_sinr_db)))
        if name in exp.policies_enabled
    }
    lead = batch.los_prob.shape[:-1]  # (R, M): every block writes its rows of these
    links = LinkRealization(*(np.empty(lead + (n,)) for n in (scen.n_mmw, scen.n_mmw, scen.n_muw)))
    matrices = {name: np.empty(lead + (scen.n_bs,)) for name in baselines}
    ue_fields = ("ue_positions", "los_prob", "shadow_mmw_los", "shadow_mmw_nlos", "shadow_muw")
    released = dict.fromkeys(ue_fields[2:])  # the shadowing, replaced by None
    blocks = _row_blocks(scen.n_ue, len(runs) * scen.n_bs)
    for rows in blocks:
        block = replace(batch, **{name: getattr(batch, name)[:, rows] for name in ue_fields})
        budget = link_budget(block)
        block = replace(block, **released)
        if rows == blocks[-1]:  # every budget is taken: the drop's shadowing dies
            batch = replace(batch, **released)
        block_links = realize_links(block, None, budget)  # the rates read the slots drawn below
        for f in fields(links):
            getattr(links, f.name)[:, rows] = getattr(block_links, f.name)
        del block_links
        for name, (metric, _) in baselines.items():
            matrices[name][:, rows] = metric(block, budget)
        del block, budget
    choices = {  # baseline -> (bias per run, host choices per run); each search frees its matrix
        name: cre_association(
            name, matrices.pop(name), scen.n_mmw, CRE_BIAS_GRIDS[name] if exp.auto_bias else (bias,)
        )
        for name, (_, bias) in baselines.items()
    }

    enabled = [name for name in POLICY_ORDER if name in exp.policies_enabled]
    instance = build_matching_instance(batch, links, batch.los_prob, pol, q_min)
    matchers = {"mmq": mmq_match, "da": deferred_acceptance}
    # Policy p's assignment of run k is matchings.agent_to_host[k, p].
    matchings = build_matching(
        np.stack(
            [matchers[name](instance).agent_to_host if name in matchers else choices[name][1]
             for name in enabled],
            axis=1,
        ),
        scen.n_bs,
    )
    served = served_links(matchings, links)  # all the rates read of the links
    del links
    report = verify(instance, matchings)
    feasible, blocking = report.feasible, report.n_blocking_pairs
    if "mmq" in enabled:
        p = enabled.index("mmq")
        failed = np.flatnonzero(~feasible[:, p] | (blocking[:, p] > 0))
        if failed.size:
            k = failed[0]
            raise VerificationFailure(
                f"quota-aware matching failed verification at grid point "
                f"{overrides}, run {runs[k]}, seed {batch.seeds[k]} "
                f"(feasible={feasible[k, p]}, blocking={blocking[k, p]} "
                f"{list(report.blocking_pairs[k, p][:1])}).\n"
                f"Instance dump:\n{format_instance(instance.run(k))}"
                f"Assignment: {matchings.agent_to_host[k, p].tolist()}"
            )
    del report  # its (R, P, M, N) masks need not outlive the check
    totals = instance.q_min[:, scen.n_mmw :].sum(axis=-1).tolist()
    del instance

    # The slots' run axis is the matching's first: rates are (R, P, M), statistics
    # (R, P). Each run's slots come from its own stream, so drawing them last
    # changes no byte.
    los_slots = draw_los_slots(batch, exp.n_slots)
    rates = slot_averaged_rates(served, los_slots, scen)
    rm = run_metrics(served, rates)
    mmw_loads, muw_loads = np.split(matchings.loads, [scen.n_mmw], axis=-1)
    stats = {  # (R, P) each
        "bias_db": np.stack([choices.get(name, [np.zeros(len(runs))])[0] for name in enabled], 1),
        "sum_rate_bps": rm.sum_rate_bps, "delta_kappa": rm.delta_kappa,
        "delta_kappa_mmw": max_load_difference(mmw_loads),
        "delta_kappa_muw": max_load_difference(muw_loads),
        "ue_mmw": mmw_loads.sum(axis=-1), "ue_muw": muw_loads.sum(axis=-1),
        "feasible": np.where(feasible, "true", "false"), "blocking_pairs": blocking,
        "mean_ue_rate_bps": rates.mean(axis=-1), "min_ue_rate_bps": rates.min(axis=-1),
        "p5_ue_rate_bps": percentile(rates, 5.0),
    }
    point = {
        "m": scen.n_ue, "n_mmw": scen.n_mmw, "n_muw": scen.n_muw,
        "q_min_mmw": pol.q_min_mmw, "q_min_muw": pol.q_min_muw, "c_th": pol.c_th,
        "bias_rssi_db": pol.bias_rssi_db, "bias_sinr_db": pol.bias_sinr_db,
    }
    per_run = {"q_min_muw_total": totals, "seed": batch.seeds, "run": runs}
    columns = {key: [value] * (len(runs) * len(enabled)) for key, value in point.items()}
    columns.update({key: [v for v in values for _ in enabled] for key, values in per_run.items()})
    columns.update({key: value.ravel().tolist() for key, value in stats.items()})
    columns["policy"] = enabled * len(runs)
    columns["muw_rates_bps"] = rm.muw_rate_samples
    return columns


def _noted_batch(exp: ExperimentConfig, overrides: dict, runs: range, q_min) -> dict[str, list]:
    """``_run_batch``; an error other than a ``VerificationFailure``, which names its
    run, gets a note naming the grid point, the runs and their seeds."""
    try:
        return _run_batch(exp, overrides, runs, q_min)
    except VerificationFailure:
        raise
    except Exception as exc:
        first, last = (_run_seed(exp.scenario, r) for r in (runs[0], runs[-1]))
        exc.add_note(f"in grid point {overrides}, runs {runs[0]}-{runs[-1]}, seeds {first}-{last}")
        raise


ROW_COLUMNS = (
    "m", "n_mmw", "n_muw", "q_min_mmw", "q_min_muw", "q_min_muw_total",
    "c_th", "bias_rssi_db", "bias_sinr_db", "seed", "run", "policy",
    "bias_db", "sum_rate_bps", "delta_kappa", "delta_kappa_mmw",
    "delta_kappa_muw", "ue_mmw", "ue_muw", "feasible", "blocking_pairs",
    "mean_ue_rate_bps", "min_ue_rate_bps", "p5_ue_rate_bps",
)

AGG_COLUMNS = (
    "m", "q_min_mmw", "q_min_muw", "c_th", "bias_rssi_db", "bias_sinr_db",
    "policy", "n_runs", "sum_rate_mean_bps", "sum_rate_se_bps",
    "delta_kappa_mean", "delta_kappa_se",
)


def _standard_error(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    return float(np.std(values, ddof=1) / np.sqrt(len(values)))


def aggregate_path(output_path) -> Path:
    out = Path(output_path)
    return out.with_name(out.stem + "_agg" + (out.suffix or ".csv"))


def _write_csv(out: Path, header: Sequence[str], records) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(records)


def _write_rows(columns: dict[str, list], out: Path) -> None:
    _write_csv(out, ROW_COLUMNS, zip(*(columns[c] for c in ROW_COLUMNS)))


def _aggregate_records(exp: ExperimentConfig, columns: dict[str, list]):
    """One record per grid point and policy, in row order. Each point owns
    ``n_runs`` * P consecutive rows, run-major, so a policy's are every P-th."""
    n_policies = len(exp.policies_enabled)
    size = exp.n_runs * n_policies
    for start in range(0, len(columns["policy"]), size):
        for first in range(start, start + n_policies):
            group = slice(first, start + size, n_policies)
            sums = columns["sum_rate_bps"][group]
            deltas = [float(d) for d in columns["delta_kappa"][group]]
            yield [
                *(columns[c][first] for c in AGG_COLUMNS[:7]),  # m through policy
                exp.n_runs,
                float(np.mean(sums)), _standard_error(sums),
                float(np.mean(deltas)), _standard_error(deltas),
            ]


def _collect_rows(exp: ExperimentConfig, grid: list[dict], workers: int) -> dict[str, list]:
    """Run every (grid point, run) pair of ``grid`` and return the rows' columns.

    ``grid`` is a list of override dicts (``SWEEP_KEYS`` to values); it need
    not be a product, so one call can cover a ragged sweep. A grid point's
    runs go to ``_run_batch`` in batches, the pool's tasks (``_point_tasks``: every
    run's minima are drawn and checked before any batch); rows arrive in
    task order (grid point, run, policy). ``muw_rates_bps`` lists each
    batch's flat array of microwave UE rates, unjoined.
    """
    if not _is_integer(workers):  # a bool or a float would reach the pool
        raise ConfigurationError(f"workers must be an integer, got {workers!r}")
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    # A point no run can meet fails before any work.
    tasks = [task for overrides in grid for task in _point_tasks(exp, overrides)]
    workers = min(workers, len(tasks))  # a worker without a batch would sit idle
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_noted_batch, *zip(*tasks)))
    else:
        results = list(itertools.starmap(_noted_batch, tasks))
    columns = {key: [value for batch in results for value in batch[key]] for key in ROW_COLUMNS}
    columns["muw_rates_bps"] = [batch["muw_rates_bps"] for batch in results]
    return columns


def _run_and_write(exp: ExperimentConfig, grid, write, workers: int) -> Path:
    """Run ``grid`` and ``write`` its files, returning the first. Each path is
    checked first, so that an OSError the writer would raise comes before any run."""
    paths = _WRITTEN_PATHS[write](Path(exp.output_path))
    for path in paths:
        base = next(p for p in (path, *path.parents) if p.exists())  # the writer makes the rest
        if path.is_dir():
            raise IsADirectoryError(f"output path {path} is a directory")
        if not (base == path or base.is_dir()):
            raise NotADirectoryError(f"output path {path}: {base} is not a directory")
        if not os.access(base, os.W_OK):
            raise PermissionError(f"output path {path}: {base} is not writable")
    write(exp, grid, _collect_rows(exp, grid, workers), *paths)
    return paths[0]


# Writers: each takes (config, grid, row columns) and writes the paths that
# ``_WRITTEN_PATHS`` gives for ``config.output_path``.


def _write_experiment(exp: ExperimentConfig, grid, columns, out: Path, agg: Path) -> None:
    """Per-run rows plus the per-point aggregate next to them."""
    _write_rows(columns, out)
    _write_csv(agg, AGG_COLUMNS, _aggregate_records(exp, columns))


def _optimal_quotas(grid: list[dict], columns: dict[str, list], n_runs: int) -> list[dict]:
    """Mean sum rate per (M, microwave minimum) point of one policy, and the argmax per M.

    Point i owns rows i * ``n_runs`` onwards. Each mean is the sequential sum
    of its run-ordered rows over ``n_runs``; ties go to the smaller minimum.
    """
    table: dict[int, dict[int, float]] = {}
    for i, point in enumerate(grid):
        total = 0.0
        for value in columns["sum_rate_bps"][i * n_runs : (i + 1) * n_runs]:
            total += value
        table.setdefault(point["m"], {})[point["q_min_muw"]] = total / n_runs
    return [
        {"m": m, "q_star": max(means, key=lambda q: (means[q], -q)), "mean_sum_rate_bps": means}
        for m, means in table.items()
    ]


def _write_quota_table(exp: ExperimentConfig, grid, columns, out: Path) -> None:
    """One line per (M, microwave minimum), flagging the sum-rate-optimal one."""
    _write_csv(
        out,
        ("m", "q_min_muw", "mean_sum_rate_bps", "optimal"),
        (
            [row["m"], q, mean, "true" if q == row["q_star"] else "false"]
            for row in _optimal_quotas(grid, columns, exp.n_runs)
            for q, mean in sorted(row["mean_sum_rate_bps"].items())
        ),
    )


def _write_rate_cdf(exp: ExperimentConfig, grid, columns, out: Path, runs: Path) -> None:
    """Pooled microwave rate CDF per policy, plus the per-run rows in ``_runs.csv``."""
    n_policies = len(exp.policies_enabled)  # rows are run-major: a policy's are every P-th
    samples = np.concatenate(columns["muw_rates_bps"])  # row i holds ue_muw[i] of them
    row_policy = np.repeat(np.arange(len(columns["policy"])) % n_policies, columns["ue_muw"])
    _write_csv(
        out,
        ("policy", "muw_rate_bps", "cdf"),
        (
            [name, x, f]  # floats from tolist(): no numpy scalar per sample
            for p, name in enumerate(columns["policy"][:n_policies])
            for x, f in zip(*(a.tolist() for a in rate_cdf(samples[row_policy == p])))
        ),
    )
    _write_rows(columns, runs)


_WRITTEN_PATHS = {
    _write_experiment: lambda out: (out, aggregate_path(out)),
    _write_quota_table: lambda out: (out,),
    _write_rate_cdf: lambda out: (out, out.with_name(out.stem + "_runs.csv")),
}


def with_overrides(exp, n_runs=None, seed=None, output_path=None) -> ExperimentConfig:
    """``exp`` with its run count, base seed and output path replaced; None keeps its own."""
    scenario = exp.scenario if seed is None else replace(exp.scenario, seed=seed)
    n_runs = exp.n_runs if n_runs is None else n_runs
    output_path = exp.output_path if output_path is None else str(output_path)
    return replace(exp, scenario=scenario, n_runs=n_runs, output_path=output_path)


def run_experiment(config: ExperimentConfig, workers: int = 1) -> Path:
    """Execute the experiment and write the per-run CSV plus the aggregate.

    Returns the per-run CSV path; the aggregate sits next to it with an
    ``_agg`` suffix. Raises, before any run, ``ConfigurationError`` naming the
    grid point (and run and seed, for random minima) whose quotas M cannot meet
    or the grid point and field of a sweep value of the wrong kind, and
    ``OSError`` for an output path it could not write; ``VerificationFailure``
    if any run's quota-aware matching is infeasible or unstable. Any other
    error from a batch carries a note naming its grid point, runs and seeds.
    """
    return _run_and_write(config, _grid_points(config.sweep), _write_experiment, workers)


def optimal_min_quota_sweep(
    config: ScenarioConfig,
    m_values,
    quota_candidates,
    n_runs: int = 100,
    n_slots: int = 10,
    workers: int = 1,
) -> list[dict]:
    """Find the microwave minimum quota maximizing mean sum rate, per UE count.

    Runs the quota-aware policy with every candidate applied uniformly to the
    microwave BSs (mmW minima stay zero) and reports the argmax. Candidates
    that cannot be met (N2 * q > M) are skipped with a warning; a fractional
    M or candidate raises ``ConfigurationError`` naming its pair. All (M, q)
    points are one ragged grid through the verified Monte Carlo driver.
    Returns one row per M: {"m", "q_star", "mean_sum_rate_bps": {q: value}}.
    """
    exp = ExperimentConfig(
        scenario=config, policies_enabled=("mmq",), n_runs=n_runs, n_slots=n_slots
    )
    grid = []
    for m in m_values:
        for q in quota_candidates:
            point = {"m": m, "q_min_muw": q}
            _point_configs(exp, point)  # a fractional pair is refused, not skipped
            if config.n_muw * q > m:
                warnings.warn(
                    f"skipping q_min={q} at M={m}: microwave minima alone "
                    f"exceed the UE count",
                    stacklevel=2,
                )
                continue
            grid.append(point)
    return _optimal_quotas(grid, _collect_rows(exp, grid, workers), n_runs)


# Canned figures: id -> (config at seed 0 and 200 runs, grid, writer). Each
# writes <id>.csv unless told otherwise. fig4 tries every microwave minimum q
# with N2 * q <= M; fig5/fig6 set every minimum to M // N = 70 // 20.
_FIG3 = ExperimentConfig(
    policies_enabled=("mmq", "max_rssi", "max_sinr"),
    sweep={"m": tuple(range(10, 101, 10))},
    random_muw_quota=True,
    auto_bias=True,
)
_FIG4 = ExperimentConfig(policies_enabled=("mmq",))
_FIG4_GRID = [{"m": m, "q_min_muw": q} for m in range(20, 101, 20)
              for q in range(m // _FIG4.scenario.n_muw + 1)]
_FIG5 = ExperimentConfig(
    scenario=ScenarioConfig(n_ue=70),
    policy=PolicyConfig(q_min_mmw=3, q_min_muw=3),
    policies_enabled=("mmq", "max_rssi"),
    sweep={"bias_rssi_db": CRE_BIAS_GRIDS["max_rssi"][::2]},
)
_FIG6 = replace(
    _FIG5, policies_enabled=("mmq", "max_sinr"), sweep={"bias_sinr_db": CRE_BIAS_GRIDS["max_sinr"]}
)
_FIG7 = ExperimentConfig(
    scenario=ScenarioConfig(n_ue=100),
    policy=PolicyConfig(q_min_muw=8, c_th=0.5),
    policies_enabled=("mmq", "max_rssi", "max_sinr"),
    auto_bias=True,
)
_FIGURE_TABLE = {
    "fig3": (_FIG3, _grid_points(_FIG3.sweep), _write_experiment),
    "fig4": (_FIG4, _FIG4_GRID, _write_quota_table),
    "fig5": (_FIG5, _grid_points(_FIG5.sweep), _write_experiment),
    "fig6": (_FIG6, _grid_points(_FIG6.sweep), _write_experiment),
    "fig7": (_FIG7, [{}], _write_rate_cdf),
}
FIGURES = tuple(_FIGURE_TABLE)


def run_figure(
    figure_id: str,
    output_path=None,
    n_runs: Optional[int] = None,
    seed: Optional[int] = None,
    workers: int = 1,
) -> Path:
    """Run one canned figure sweep and write its plot-ready CSV.

    fig3: mean sum rate versus UE count for the quota policy and both
    baselines at their load-optimal biases, random microwave minima.
    fig4: sum-rate-optimal microwave minimum quota versus UE count, one
    ragged (M, q) grid through the same verified driver.
    fig5/fig6: load spread of the quota policy versus max-RSSI / max-SINR
    over their bias sweeps at M=70.
    fig7: empirical CDF of the microwave per-UE rate at M=100 with the
    utility gate at 0.5.

    ``n_runs``, ``seed`` and ``output_path`` go through ``with_overrides``;
    None keeps the figure's own 200 runs, base seed 0 and ``<figure_id>.csv``.
    """
    if figure_id not in FIGURES:
        raise ConfigurationError(f"unknown figure id {figure_id!r}; expected one of {FIGURES}")
    config, grid, write = _FIGURE_TABLE[figure_id]
    out = f"{figure_id}.csv" if output_path is None else output_path
    return _run_and_write(with_overrides(config, n_runs, seed, out), grid, write, workers)


# --------------------------------------------------------------------------
# Flat key=value config files


# ExperimentConfig's own fields are experiment.* keys, these four under shorter names.
_RENAMED = {"n_runs": "runs", "n_slots": "slots", "output_path": "out",
            "policies_enabled": "policies"}


def _field_keys(config, path: tuple[str, ...] = ()) -> dict[str, tuple]:
    """Dotted key -> (field path inside ExperimentConfig, parser of its text) of every
    leaf field of dataclass ``config`` at ``path``, each parsed as its annotation's kind."""
    keys = {}
    for f in fields(config):
        field_path = path + (f.name,)
        if is_dataclass(f.default):
            keys.update(_field_keys(f.default, field_path))
        elif path or f.name != "sweep":  # each sweep.<k> key parses as its swept field
            key = ".".join(field_path) if path else f"experiment.{_RENAMED.get(f.name, f.name)}"
            keys[key] = (field_path, _field_kind(f)[2])
    return keys


_CONFIG_KEYS = _field_keys(ExperimentConfig)
_CONFIG_KEYS.update(
    (f"sweep.{k}", (("sweep", k), _parse_list(_CONFIG_KEYS[".".join(_SWEPT[k])][1])))
    for k in SWEEP_KEYS
)


def _with_fields(obj, values: dict, lines: dict[str, int], path: tuple[str, ...] = ()):
    """``obj`` with ``values`` replacing its fields; a dict for a dataclass field updates it.

    ``lines`` maps each key set in the file to its line. A value rejected by
    ``obj`` (at field ``path``) names the line and key of each set field it names.
    """
    for name, value in values.items():
        if is_dataclass(getattr(obj, name)):
            values[name] = _with_fields(getattr(obj, name), value, lines, path + (name,))
    try:
        return replace(obj, **values)
    except ValueError as exc:
        named = [
            f"line {line}: {key}"
            for key, line in lines.items()  # in line order
            if _CONFIG_KEYS[key][0][: len(path)] == path
            and re.search(rf"\b{_CONFIG_KEYS[key][0][-1]}\b", str(exc))
        ]
        message = f"{', '.join(named)}: {exc}" if named else str(exc)
        message = re.sub(r"\b(\w+\.\w+): \1\b", r"\1", message)  # a key its message names, once
        raise ConfigurationError(message) from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat ``key = value`` experiment format.

    Keys are dotted: ``scenario.*`` (and ``scenario.pathloss_*.*``), ``policy.*``,
    ``experiment.*`` (runs, slots, out, random_muw_quota, auto_bias, policies) and
    ``sweep.*`` (comma lists of the swept field's kind); every key and its parser
    derive from the config annotations. Text after ``#`` and blank lines are
    ignored; unknown and repeated keys are errors.
    """
    values: dict = {"scenario": {}, "policy": {}}  # built in this order, then the rest
    seen: dict[str, int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        if key not in _CONFIG_KEYS:
            raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        if key in seen:
            raise ConfigurationError(f"line {lineno}: {key!r} already set on line {seen[key]}")
        seen[key] = lineno
        path, parse = _CONFIG_KEYS[key]
        target = values
        for name in path[:-1]:
            target = target.setdefault(name, {})
        try:
            target[path[-1]] = parse(value)
        except (KeyError, ValueError) as exc:  # a bool word missing from the table: KeyError
            raise ConfigurationError(f"line {lineno}: bad value {value!r} for {key!r}") from exc
    return _with_fields(ExperimentConfig(), values, seen)


def load_config(path) -> ExperimentConfig:
    """Read an experiment config file (see ``parse_config`` for the format)."""
    return parse_config(Path(path).read_text())
