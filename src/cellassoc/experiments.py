"""Monte Carlo experiment driver: config files, sweeps, CSV output.

One experiment is a grid of parameter points times ``n_runs`` independent
seeded runs. Each run generates a scenario from ``base_seed + run``, realizes
the links once, executes every enabled policy on the same realization, checks
the quota-aware policy's output (a failed check aborts the experiment; it
would mean an engine bug), and emits one CSV row per policy. A second file
with suffix ``_agg`` holds per-point means and standard errors.

Output is deterministic: identical config gives byte-identical files, and
parallel execution matches serial because batches of runs depend on the grid
point alone and rows are ordered by (grid point, run, policy) before writing.
"""

from __future__ import annotations

import csv
import itertools
import re
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, is_dataclass, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .channel import draw_los_slots, link_budget, realize_links
from .matching import (
    InfeasibleInstanceError,
    deferred_acceptance,
    format_instance,
    mmq_match,
    verify,
)
from .metrics import (
    max_load_difference,
    rate_cdf,
    run_metrics,
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
    STREAM_LINKS,
    STREAM_QUOTAS,
    STREAM_SLOTS,
    ConfigurationError,
    Scenario,
    ScenarioConfig,
    generate_scenario,
    rng_stream,
)

POLICY_ORDER = ("mmq", "da", "max_rssi", "max_sinr")

SWEEP_KEYS = ("m", "q_min_mmw", "q_min_muw", "c_th", "bias_rssi_db", "bias_sinr_db")

# Runs per batch: as many as keep the (R, M, N) stacks within this many entries.
_BATCH_ELEMENTS = 8192


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
        if self.n_runs < 1:
            raise ConfigurationError(f"n_runs must be >= 1, got {self.n_runs}")
        if self.n_slots < 1:
            raise ConfigurationError(f"n_slots must be >= 1, got {self.n_slots}")
        if not self.policies_enabled:
            raise ConfigurationError("policies_enabled must name at least one policy")
        unknown = set(self.policies_enabled) - set(POLICY_ORDER)
        if unknown:
            raise ConfigurationError(f"unknown policies in policies_enabled: {sorted(unknown)}")
        for key, values in (self.sweep or {}).items():
            if key not in SWEEP_KEYS:
                raise ConfigurationError(f"unknown sweep parameter {key!r}")
            if len(tuple(values)) == 0:
                raise ConfigurationError(f"sweep.{key} has no values")


def _grid_points(sweep: Optional[dict[str, tuple]]) -> list[dict]:
    """The product grid of a sweep, keys in ``SWEEP_KEYS`` order; no sweep is one point."""
    keys = [k for k in SWEEP_KEYS if k in (sweep or {})]
    return [dict(zip(keys, combo)) for combo in itertools.product(*(sweep[k] for k in keys))]


def _point_configs(
    exp: ExperimentConfig, overrides: dict, run: int
) -> tuple[ScenarioConfig, PolicyConfig]:
    scen = exp.scenario
    scen = replace(scen, n_ue=int(overrides.get("m", scen.n_ue)), seed=scen.seed + run)
    pol = replace(exp.policy, **{k: v for k, v in overrides.items() if k != "m"})
    return scen, pol


def _stack_scenarios(scenarios: list[Scenario]) -> Scenario:
    # One scenario with a leading run axis; a lone run's arrays become views, not copies.
    arrays = ([getattr(sc, f.name) for sc in scenarios] for f in fields(Scenario)[1:])
    return Scenario(
        scenarios[0].config, *(a[0][None] if len(a) == 1 else np.stack(a) for a in arrays)
    )


def _run_batch(
    exp: ExperimentConfig,
    overrides: dict,
    grid_idx: int,
    runs: range,
    collect_muw_samples: bool = False,
) -> list[dict]:
    """The rows of runs ``runs`` of one grid point. Each run has its own seeds,
    instance, matchings and checks; the array stages run once for the batch,
    on arrays with a leading run axis, and give each run what it gets alone."""
    # Looked up at call time, not imported at the top: a span tracer that wraps
    # cellassoc.matching.build_matching then sees the baselines' calls too.
    from .matching import build_matching

    first, pol = _point_configs(exp, overrides, runs[0])
    cfgs = [replace(first, seed=first.seed + k) for k in range(len(runs))]
    batch = _stack_scenarios([generate_scenario(cfg) for cfg in cfgs])
    budget = link_budget(batch)
    links = realize_links(batch, [rng_stream(cfg.seed, STREAM_LINKS) for cfg in cfgs], budget)
    # The baselines' metrics come from the same budget, which is then dropped
    # so that it is not alive through the slot draw and the matching.
    choices = {}  # baseline -> (bias per run, host choices per run)
    for name, metric, bias in (
        ("max_rssi", rssi_matrix_dbm, pol.bias_rssi_db),
        ("max_sinr", sinr_matrix_db, pol.bias_sinr_db),
    ):
        if name in exp.policies_enabled:
            grid = CRE_BIAS_GRIDS[name] if exp.auto_bias else (bias,)
            choices[name] = cre_association(name, metric(batch, budget), first.n_mmw, grid)
    del budget
    slot_rngs = [rng_stream(cfg.seed, STREAM_SLOTS) for cfg in cfgs]
    los_slots = draw_los_slots(batch, slot_rngs, exp.n_slots)

    q_min = None
    if exp.random_muw_quota:
        cap = first.n_ue // first.n_muw
        draws = [rng_stream(c.seed, STREAM_QUOTAS).integers(0, cap + 1, c.n_muw) for c in cfgs]
        q_min = [(pol.q_min_mmw,) * first.n_mmw + tuple(d.tolist()) for d in draws]

    enabled = [name for name in POLICY_ORDER if name in exp.policies_enabled]
    instances = build_matching_instance(batch, links, batch.los_prob, pol, q_min)
    matchings, reports, q_min_muw_totals = [], [], []
    for k, (run, cfg) in enumerate(zip(runs, cfgs)):
        try:
            instance = next(instances)
        except InfeasibleInstanceError as exc:
            where = f"grid point {overrides}, run {run}, seed {cfg.seed}"
            raise ConfigurationError(f"{where}: {exc}") from exc
        q_min_muw_totals.append(int(instance.q_min[first.n_mmw :].sum()))
        matchings.append([])
        for name in enabled:
            if name == "mmq":
                matching = mmq_match(instance)
            elif name == "da":
                matching = deferred_acceptance(instance)
            else:
                matching = build_matching(choices[name][1][k], first.n_bs)
            report = verify(instance, matching, enumeration_budget=0)
            if name == "mmq" and (not report.feasible or report.blocking_pairs):
                raise VerificationFailure(
                    f"quota-aware matching failed verification at grid point "
                    f"{overrides}, run {run} (feasible={report.feasible}, "
                    f"blocking={len(report.blocking_pairs)}).\n"
                    f"Instance dump:\n{format_instance(instance)}"
                    f"Assignment: {matching.agent_to_host.tolist()}"
                )
            matchings[-1].append(matching)
            reports.append(report)

    # A policy axis after the run axis: rates are (R, P, M), statistics (R, P).
    per_policy = replace(links, **{f.name: getattr(links, f.name)[:, None] for f in fields(links)})
    rates = slot_averaged_rates(matchings, per_policy, los_slots[:, :, None], first)
    rm = run_metrics(matchings, links, first, rates)
    mmw_loads, muw_loads = rm.loads[..., : first.n_mmw], rm.loads[..., first.n_mmw :]
    stats = {
        "sum_rate_bps": rm.sum_rate_bps, "delta_kappa": rm.delta_kappa,
        "delta_kappa_mmw": max_load_difference(mmw_loads),
        "delta_kappa_muw": max_load_difference(muw_loads),
        "ue_mmw": mmw_loads.sum(axis=-1), "ue_muw": muw_loads.sum(axis=-1),
        "mean_ue_rate_bps": rates.mean(axis=-1), "min_ue_rate_bps": rates.min(axis=-1),
        "p5_ue_rate_bps": np.percentile(rates, 5.0, axis=-1),
    }
    stats = {key: value.ravel().tolist() for key, value in stats.items()}  # one number per row
    rows: list[dict] = []
    for i, report in enumerate(reports):
        k, p = divmod(i, len(enabled))
        name = enabled[p]
        rows.append({
            "m": first.n_ue, "n_mmw": first.n_mmw, "n_muw": first.n_muw,
            "q_min_mmw": pol.q_min_mmw, "q_min_muw": pol.q_min_muw,
            "q_min_muw_total": q_min_muw_totals[k], "c_th": pol.c_th,
            "bias_rssi_db": pol.bias_rssi_db, "bias_sinr_db": pol.bias_sinr_db,
            "seed": cfgs[k].seed, "run": runs[k], "policy": name,
            "bias_db": choices[name][0][k] if name in choices else 0.0,
            **{key: values[i] for key, values in stats.items()},
            "feasible": "true" if report.feasible else "false",
            "blocking_pairs": len(report.blocking_pairs), "_grid_idx": grid_idx,
        })
        if collect_muw_samples:  # only the rate CDF reads them; other rows stay small
            rows[-1]["_muw_rates_bps"] = rm.muw_rate_samples[i]
    return rows


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


def _write_rows(rows: list[dict], out: Path) -> None:
    _write_csv(out, ROW_COLUMNS, ([row[c] for c in ROW_COLUMNS] for row in rows))


def _aggregate_records(rows: list[dict]):
    groups: dict[tuple, list[dict]] = {}
    for row in rows:  # dicts keep first-seen order: grid point, then policy
        groups.setdefault((row["_grid_idx"], row["policy"]), []).append(row)
    for group in groups.values():
        first = group[0]
        sums = [r["sum_rate_bps"] for r in group]
        deltas = [float(r["delta_kappa"]) for r in group]
        yield [
            first["m"], first["q_min_mmw"], first["q_min_muw"],
            first["c_th"], first["bias_rssi_db"], first["bias_sinr_db"],
            first["policy"], len(group),
            float(np.mean(sums)), _standard_error(sums),
            float(np.mean(deltas)), _standard_error(deltas),
        ]


def _collect_rows(
    exp: ExperimentConfig, grid: list[dict], workers: int, collect_muw_samples: bool = False
) -> list[dict]:
    """Run every (grid point, run) pair of ``grid`` and return the sorted rows.

    ``grid`` is a list of override dicts (``SWEEP_KEYS`` to values); it need
    not be a product, so one call can cover a ragged sweep. With
    ``collect_muw_samples`` each row also carries its microwave UEs' rates.
    A grid point's runs go to ``_run_batch`` in batches, the pool's tasks.
    """
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    tasks = []
    for gi, overrides in enumerate(grid):  # fail a point no run can meet before any work
        try:
            scen, pol = _point_configs(exp, overrides, 0)
        except ValueError as exc:
            raise ConfigurationError(f"grid point {overrides}: {exc}") from exc
        q_min, q_max = pol.quota_vectors(scen.n_mmw, scen.n_muw, scen.n_ue)
        # Random microwave minima are drawn per run; their smallest draw is 0.
        low = sum(q_min[: scen.n_mmw] if exp.random_muw_quota else q_min)
        if not low <= scen.n_ue <= sum(q_max):
            raise ConfigurationError(
                f"grid point {overrides}: no feasible matching: sum q_min={low}, "
                f"M={scen.n_ue}, sum q_max={sum(q_max)}"
            )
        # Runs per batch depend on the grid point alone, never on ``workers``.
        size = max(1, min(exp.n_runs, _BATCH_ELEMENTS // (scen.n_ue * scen.n_bs)))
        tasks += [
            (exp, overrides, gi, range(start, min(start + size, exp.n_runs)), collect_muw_samples)
            for start in range(0, exp.n_runs, size)
        ]
    workers = min(workers, len(tasks))  # a worker without a batch would sit idle
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_batch, *zip(*tasks)))
    else:
        results = list(itertools.starmap(_run_batch, tasks))

    rows = [row for task_rows in results for row in task_rows]
    policy_rank = {name: i for i, name in enumerate(POLICY_ORDER)}
    rows.sort(key=lambda r: (r["_grid_idx"], r["run"], policy_rank[r["policy"]]))
    return rows


# Writers: each takes (config, grid, rows) and writes the files named by
# ``config.output_path``.


def _write_experiment(exp: ExperimentConfig, grid, rows) -> None:
    """Per-run rows plus the per-point aggregate next to them."""
    out = Path(exp.output_path)
    _write_rows(rows, out)
    _write_csv(aggregate_path(out), AGG_COLUMNS, _aggregate_records(rows))


def _optimal_quotas(grid: list[dict], rows: list[dict], n_runs: int) -> list[dict]:
    """Mean sum rate per (M, microwave minimum) point, and the argmax per M.

    Each mean is the sequential sum of the run-ordered rows over ``n_runs``;
    ties go to the smaller minimum.
    """
    totals = [0.0] * len(grid)
    for row in rows:
        totals[row["_grid_idx"]] += row["sum_rate_bps"]
    table: dict[int, dict[int, float]] = {}
    for point, total in zip(grid, totals):
        table.setdefault(point["m"], {})[point["q_min_muw"]] = total / n_runs
    return [
        {"m": m, "q_star": max(means, key=lambda q: (means[q], -q)), "mean_sum_rate_bps": means}
        for m, means in table.items()
    ]


def _write_quota_table(exp: ExperimentConfig, grid, rows) -> None:
    """One line per (M, microwave minimum), flagging the sum-rate-optimal one."""
    _write_csv(
        Path(exp.output_path),
        ("m", "q_min_muw", "mean_sum_rate_bps", "optimal"),
        (
            [row["m"], q, mean, "true" if q == row["q_star"] else "false"]
            for row in _optimal_quotas(grid, rows, exp.n_runs)
            for q, mean in sorted(row["mean_sum_rate_bps"].items())
        ),
    )


def _write_rate_cdf(exp: ExperimentConfig, grid, rows) -> None:
    """Pooled microwave rate CDF per policy, plus the per-run rows in ``_runs.csv``."""
    pooled: dict[str, list[np.ndarray]] = {}
    for row in rows:  # sorted by grid point, run, then policy: keys fall in policy order
        pooled.setdefault(row["policy"], []).append(row["_muw_rates_bps"])
    out = Path(exp.output_path)
    _write_csv(
        out,
        ("policy", "muw_rate_bps", "cdf"),
        (
            [name, float(x), float(f)]
            for name, runs in pooled.items()
            for x, f in zip(*rate_cdf(np.concatenate(runs)))
        ),
    )
    _write_rows(rows, out.with_name(out.stem + "_runs.csv"))


def run_experiment(config: ExperimentConfig, workers: int = 1) -> Path:
    """Execute the experiment and write the per-run CSV plus the aggregate.

    Returns the per-run CSV path; the aggregate sits next to it with an
    ``_agg`` suffix. Raises ``VerificationFailure`` if any run's quota-aware
    matching is infeasible or unstable, and ``ConfigurationError`` naming the
    grid point (and run and seed, for random minima) whose quotas M cannot meet.
    """
    grid = _grid_points(config.sweep)
    _write_experiment(config, grid, _collect_rows(config, grid, workers))
    return Path(config.output_path)


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
    that cannot be met (N2 * q > M) are skipped with a warning. All (M, q)
    points are one ragged grid through the verified Monte Carlo driver.
    Returns one row per M: {"m", "q_star", "mean_sum_rate_bps": {q: value}}.
    """
    grid = []
    for m in m_values:
        for q in quota_candidates:
            q = int(q)
            if config.n_muw * q > m:
                warnings.warn(
                    f"skipping q_min={q} at M={m}: microwave minima alone "
                    f"exceed the UE count",
                    stacklevel=2,
                )
                continue
            grid.append({"m": int(m), "q_min_muw": q})
    exp = ExperimentConfig(
        scenario=config, policies_enabled=("mmq",), n_runs=n_runs, n_slots=n_slots
    )
    return _optimal_quotas(grid, _collect_rows(exp, grid, workers), n_runs)


# Canned figures: id -> (config at seed 0 and 200 runs, grid, writer, whether
# the writer reads the microwave rate samples). Each writes <id>.csv unless told
# otherwise. fig4 tries every microwave minimum q with N2 * q <= M (N2 = 10);
# fig5/fig6 set every minimum to M // N = 70 // 20.
_FIG3 = ExperimentConfig(
    policies_enabled=("mmq", "max_rssi", "max_sinr"),
    sweep={"m": tuple(range(10, 101, 10))},
    random_muw_quota=True,
    auto_bias=True,
)
_FIG4_GRID = [{"m": m, "q_min_muw": q} for m in range(20, 101, 20) for q in range(m // 10 + 1)]
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
    "fig3": (_FIG3, _grid_points(_FIG3.sweep), _write_experiment, False),
    "fig4": (ExperimentConfig(policies_enabled=("mmq",)), _FIG4_GRID, _write_quota_table, False),
    "fig5": (_FIG5, _grid_points(_FIG5.sweep), _write_experiment, False),
    "fig6": (_FIG6, _grid_points(_FIG6.sweep), _write_experiment, False),
    "fig7": (_FIG7, [{}], _write_rate_cdf, True),
}
FIGURES = tuple(_FIGURE_TABLE)


def run_figure(
    figure_id: str,
    output_path=None,
    n_runs: Optional[int] = None,
    seed: int = 0,
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
    """
    if figure_id not in FIGURES:
        raise ConfigurationError(
            f"unknown figure id {figure_id!r}; expected one of {FIGURES}"
        )
    config, grid, write, muw_samples = _FIGURE_TABLE[figure_id]
    config = replace(
        config,
        scenario=replace(config.scenario, seed=seed),
        n_runs=200 if n_runs is None else n_runs,
        output_path=str(f"{figure_id}.csv" if output_path is None else output_path),
    )
    write(config, grid, _collect_rows(config, grid, workers, muw_samples))
    return Path(config.output_path)


# --------------------------------------------------------------------------
# Flat key=value config files


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered not in ("true", "yes", "1", "on", "false", "no", "0", "off"):
        raise ValueError(f"expected a boolean, got {value!r}")
    return lowered in ("true", "yes", "1", "on")


def _parse_list(item_type):
    return lambda value: tuple(
        item_type(tok.strip()) for tok in value.split(",") if tok.strip()
    )


def _field_keys(path: tuple[str, ...], obj) -> dict[str, tuple]:
    """Key table entries for every scalar field of a config dataclass, nested ones dotted."""
    keys = {}
    for f in fields(obj):
        field_path = path + (f.name,)
        value = getattr(obj, f.name)
        if is_dataclass(value):
            keys.update(_field_keys(field_path, value))
        else:  # typed by the default; None (the q_max caps) parses as int
            keys[".".join(field_path)] = (field_path, int if value is None else type(value))
    return keys


# Dotted key -> (field path inside ExperimentConfig, value parser).
_CONFIG_KEYS = {
    **_field_keys(("scenario",), ScenarioConfig()),
    **_field_keys(("policy",), PolicyConfig()),
    # A sweep over m sets the scenario's n_ue; the other sweep keys are policy fields.
    **{
        f"sweep.{k}": (
            ("sweep", k),
            _parse_list(int if k == "m" else type(getattr(PolicyConfig(), k))),
        )
        for k in SWEEP_KEYS
    },
    "experiment.runs": (("n_runs",), int),
    "experiment.slots": (("n_slots",), int),
    "experiment.out": (("output_path",), str),
    "experiment.random_muw_quota": (("random_muw_quota",), _parse_bool),
    "experiment.auto_bias": (("auto_bias",), _parse_bool),
    "experiment.policies": (("policies_enabled",), _parse_list(str)),
}


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
        raise ConfigurationError(message) from exc


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat ``key = value`` experiment format.

    Keys are dotted: ``scenario.*`` (including the three ``pathloss_*``
    groups), ``policy.*``, ``experiment.*`` (runs, slots, out,
    random_muw_quota, auto_bias, policies), and ``sweep.*`` with
    comma-separated value lists. Lines starting with ``#`` and blank lines
    are ignored. Unknown and repeated keys are errors.
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
        except ValueError as exc:
            raise ConfigurationError(f"line {lineno}: bad value {value!r} for {key!r}") from exc
    return _with_fields(ExperimentConfig(), values, seen)


def load_config(path) -> ExperimentConfig:
    """Read an experiment config file (see ``parse_config`` for the format)."""
    return parse_config(Path(path).read_text())
