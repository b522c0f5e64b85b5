"""Monte Carlo experiment driver: config files, sweeps, CSV output.

One experiment is a grid of parameter points times ``n_runs`` independent
seeded runs. Each run generates a scenario from ``base_seed + run``, realizes
the links once, executes every enabled policy on the same realization, checks
the quota-aware policy's output (a failed check aborts the experiment; it
would mean an engine bug), and emits one CSV row per policy. A second file
with suffix ``_agg`` holds per-point means and standard errors.

Output is deterministic: identical config gives byte-identical files, and
parallel execution matches serial because rows are computed independently
and ordered by (grid point, run, policy) before writing.
"""

from __future__ import annotations

import csv
import itertools
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, replace
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
    PolicyConfig,
    biased_argmax,
    build_matching_instance,
    rssi_matrix_dbm,
    sinr_matrix_db,
    tier_columns,
)
from .scenario import (
    STREAM_LINKS,
    STREAM_QUOTAS,
    STREAM_SLOTS,
    ConfigurationError,
    PathLossParams,
    Scenario,
    ScenarioConfig,
    generate_scenario,
    rng_stream,
)

POLICY_ORDER = ("mmq", "da", "max_rssi", "max_sinr")

# Bias grids scanned when an experiment asks for the load-optimal bias.
RSSI_BIAS_GRID = tuple(float(b) for b in range(0, 61, 5))
SINR_BIAS_GRID = tuple(float(b) for b in range(0, 21, 2))

SWEEP_KEYS = ("m", "q_min_mmw", "q_min_muw", "c_th", "bias_rssi_db", "bias_sinr_db")

FIGURES = ("fig3", "fig4", "fig5", "fig6", "fig7")


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
        unknown = set(self.policies_enabled) - set(POLICY_ORDER)
        if unknown:
            raise ConfigurationError(f"unknown policies: {sorted(unknown)}")
        if self.sweep:
            for key, values in self.sweep.items():
                if key not in SWEEP_KEYS:
                    raise ConfigurationError(f"unknown sweep parameter {key!r}")
                if len(tuple(values)) == 0:
                    raise ConfigurationError(f"sweep.{key} has no values")


def _grid_points(sweep: Optional[dict[str, tuple]]) -> list[dict]:
    if not sweep:
        return [{}]
    keys = [k for k in SWEEP_KEYS if k in sweep]
    return [
        dict(zip(keys, combo))
        for combo in itertools.product(*(sweep[k] for k in keys))
    ]


def _point_configs(
    exp: ExperimentConfig, overrides: dict, run: int
) -> tuple[ScenarioConfig, PolicyConfig]:
    scen = exp.scenario
    if "m" in overrides:
        scen = replace(scen, n_ue=int(overrides["m"]))
    scen = replace(scen, seed=exp.scenario.seed + run)
    policy_fields = {k: v for k, v in overrides.items() if k != "m"}
    pol = replace(exp.policy, **policy_fields) if policy_fields else exp.policy
    return scen, pol


def _best_bias(
    metric: np.ndarray, n_mmw: int, grid: Sequence[float], tier: str
) -> tuple[float, list[int]]:
    """Bias from the grid minimizing the load spread, and its assignment.

    All biases are scored in one (G, M, N) stack; argmin keeps the first
    minimum, so ties go to the earlier (smaller) bias.
    """
    n_bs = metric.shape[1]
    biased = np.repeat(metric[None], len(grid), axis=0)
    biased[:, :, tier_columns(n_mmw, tier)] += np.asarray(grid, dtype=float)[:, None, None]
    choice = biased.argmax(axis=2)  # (G, M)
    flat = (choice + n_bs * np.arange(len(grid))[:, None]).ravel()
    loads = np.bincount(flat, minlength=len(grid) * n_bs).reshape(len(grid), n_bs)
    best = int(np.argmin(np.ptp(loads, axis=1)))
    return grid[best], choice[best].tolist()


def _run_point(
    exp: ExperimentConfig,
    overrides: dict,
    grid_idx: int,
    run: int,
    collect_muw_samples: bool = False,
) -> tuple[list[dict], dict[str, np.ndarray]]:
    from .matching import build_matching  # local import keeps worker pickling simple

    scen_cfg, pol = _point_configs(exp, overrides, run)
    scenario = generate_scenario(scen_cfg)
    budget = link_budget(scenario)
    links = realize_links(scenario, rng_stream(scen_cfg.seed, STREAM_LINKS), budget)
    # The baselines' metrics come from the same budget, which is then dropped
    # so that it is not alive through the slot draw and the matching.
    baseline_metrics = {}
    if "max_rssi" in exp.policies_enabled:
        baseline_metrics["max_rssi"] = rssi_matrix_dbm(scenario, budget)
    if "max_sinr" in exp.policies_enabled:
        baseline_metrics["max_sinr"] = sinr_matrix_db(scenario, budget)
    del budget
    los_slots = draw_los_slots(
        scenario, rng_stream(scen_cfg.seed, STREAM_SLOTS), exp.n_slots
    )

    q_override = None
    if exp.random_muw_quota:
        cap = scen_cfg.n_ue // scen_cfg.n_muw
        draws = rng_stream(scen_cfg.seed, STREAM_QUOTAS).integers(0, cap + 1, scen_cfg.n_muw)
        q_override = (pol.q_min_mmw,) * scen_cfg.n_mmw + tuple(int(q) for q in draws)

    try:
        instance = build_matching_instance(scenario, links, scenario.los_prob, pol, q_override)
    except InfeasibleInstanceError as exc:
        where = f"grid point {overrides}, run {run}, seed {scen_cfg.seed}"
        raise ConfigurationError(f"{where}: {exc}") from exc
    q_min_muw_total = int(instance.q_min[scen_cfg.n_mmw :].sum())

    rows: list[dict] = []
    samples: dict[str, np.ndarray] = {}
    for name in POLICY_ORDER:
        if name not in exp.policies_enabled:
            continue
        bias_used = 0.0
        if name == "mmq":
            matching = mmq_match(instance)
        elif name == "da":
            matching = deferred_acceptance(instance)
        else:  # max_rssi biases the mmW tier, max_sinr the microwave tier
            rssi = name == "max_rssi"
            metric = baseline_metrics[name]
            tier = "mmw" if rssi else "muw"
            if exp.auto_bias:
                grid = RSSI_BIAS_GRID if rssi else SINR_BIAS_GRID
                bias_used, assignment = _best_bias(metric, scen_cfg.n_mmw, grid, tier)
            else:
                bias_used = pol.bias_rssi_db if rssi else pol.bias_sinr_db
                assignment = biased_argmax(metric, scen_cfg.n_mmw, bias_used, tier)
            matching = build_matching(assignment, scen_cfg.n_bs)

        report = verify(instance, matching, enumeration_budget=0)
        if name == "mmq" and (not report.feasible or report.blocking_pairs):
            raise VerificationFailure(
                f"quota-aware matching failed verification at grid point "
                f"{overrides}, run {run} (feasible={report.feasible}, "
                f"blocking={len(report.blocking_pairs)}).\n"
                f"Instance dump:\n{format_instance(instance)}"
                f"Assignment: {matching.agent_to_host}"
            )

        rates = slot_averaged_rates(matching, links, los_slots, scen_cfg)
        rm = run_metrics(matching, links, scen_cfg, rates)
        loads = rm.loads
        mmw_loads, muw_loads = loads[: scen_cfg.n_mmw], loads[scen_cfg.n_mmw :]
        rows.append(
            {
                "m": scen_cfg.n_ue,
                "n_mmw": scen_cfg.n_mmw,
                "n_muw": scen_cfg.n_muw,
                "q_min_mmw": pol.q_min_mmw,
                "q_min_muw": pol.q_min_muw,
                "q_min_muw_total": q_min_muw_total,
                "c_th": pol.c_th,
                "bias_rssi_db": pol.bias_rssi_db,
                "bias_sinr_db": pol.bias_sinr_db,
                "seed": scen_cfg.seed,
                "run": run,
                "policy": name,
                "bias_db": bias_used,
                "sum_rate_bps": rm.sum_rate_bps,
                "delta_kappa": rm.delta_kappa,
                "delta_kappa_mmw": max_load_difference(mmw_loads),
                "delta_kappa_muw": max_load_difference(muw_loads),
                "ue_mmw": int(mmw_loads.sum()),
                "ue_muw": int(muw_loads.sum()),
                "feasible": "true" if report.feasible else "false",
                "blocking_pairs": len(report.blocking_pairs),
                "mean_ue_rate_bps": float(rates.mean()),
                "min_ue_rate_bps": float(rates.min()),
                "p5_ue_rate_bps": float(np.percentile(rates, 5.0)),
                "_grid_idx": grid_idx,
            }
        )
        if collect_muw_samples:
            samples[name] = rm.muw_rate_samples
    return rows, samples


def _run_point_star(args) -> tuple[list[dict], dict[str, np.ndarray]]:
    return _run_point(*args)


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


def _write_rows(rows: list[dict], out: Path) -> None:
    out.parent.mkdir(parents=True, exist_ok=True)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(ROW_COLUMNS)
        for row in rows:
            writer.writerow([row[c] for c in ROW_COLUMNS])


def _write_aggregate(rows: list[dict], out: Path) -> None:
    groups: dict[tuple, list[dict]] = {}
    order: list[tuple] = []
    for row in rows:
        key = (row["_grid_idx"], row["policy"])
        if key not in groups:
            groups[key] = []
            order.append(key)
        groups[key].append(row)
    with out.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(AGG_COLUMNS)
        for key in order:
            group = groups[key]
            first = group[0]
            sums = [r["sum_rate_bps"] for r in group]
            deltas = [float(r["delta_kappa"]) for r in group]
            writer.writerow(
                [
                    first["m"], first["q_min_mmw"], first["q_min_muw"],
                    first["c_th"], first["bias_rssi_db"], first["bias_sinr_db"],
                    first["policy"], len(group),
                    float(np.mean(sums)), _standard_error(sums),
                    float(np.mean(deltas)), _standard_error(deltas),
                ]
            )


def _collect_rows(
    exp: ExperimentConfig, workers: int, collect_muw_samples: bool = False
) -> tuple[list[dict], dict[str, list[np.ndarray]]]:
    if workers < 1:
        raise ConfigurationError(f"workers must be >= 1, got {workers}")
    grid = _grid_points(exp.sweep)
    for overrides in grid:  # fail a point whose quotas no run can meet before any work
        scen, pol = _point_configs(exp, overrides, 0)
        q_min, q_max = pol.quota_vectors(scen.n_mmw, scen.n_muw, scen.n_ue)
        # Random microwave minima are drawn per run; their smallest draw is 0.
        low = sum(q_min[: scen.n_mmw] if exp.random_muw_quota else q_min)
        if not low <= scen.n_ue <= sum(q_max):
            raise ConfigurationError(
                f"grid point {overrides}: no feasible matching: sum q_min={low}, "
                f"M={scen.n_ue}, sum q_max={sum(q_max)}"
            )
    tasks = [
        (exp, overrides, gi, run, collect_muw_samples)
        for gi, overrides in enumerate(grid)
        for run in range(exp.n_runs)
    ]
    workers = min(workers, len(tasks))  # a worker without a run-point would sit idle
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_point_star, tasks, chunksize=8))
    else:
        results = [_run_point_star(t) for t in tasks]

    rows: list[dict] = []
    all_samples: dict[str, list[np.ndarray]] = {}
    for task_rows, task_samples in results:
        rows.extend(task_rows)
        for name, values in task_samples.items():
            all_samples.setdefault(name, []).append(values)
    policy_rank = {name: i for i, name in enumerate(POLICY_ORDER)}
    rows.sort(key=lambda r: (r["_grid_idx"], r["run"], policy_rank[r["policy"]]))
    return rows, all_samples


def run_experiment(config: ExperimentConfig, workers: int = 1) -> Path:
    """Execute the experiment and write the per-run CSV plus the aggregate.

    Returns the per-run CSV path; the aggregate sits next to it with an
    ``_agg`` suffix. Raises ``VerificationFailure`` if any run's quota-aware
    matching is infeasible or unstable, and ``ConfigurationError`` naming the
    grid point (and run and seed, for random minima) whose quotas M cannot meet.
    """
    rows, _ = _collect_rows(config, workers)
    out = Path(config.output_path)
    _write_rows(rows, out)
    _write_aggregate(rows, aggregate_path(out))
    return out


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
    that cannot be met (N2 * q > M) are skipped with a warning. Each M is one
    ``q_min_muw`` sweep through the verified Monte Carlo driver. Returns one
    row per M: {"m", "q_star", "mean_sum_rate_bps": {q: value}}.
    """
    rows = []
    for m in m_values:
        feasible = []
        for q in quota_candidates:
            q = int(q)
            if config.n_muw * q > m:
                warnings.warn(
                    f"skipping q_min={q} at M={m}: microwave minima alone "
                    f"exceed the UE count",
                    stacklevel=2,
                )
                continue
            feasible.append(q)
        if not feasible:
            continue
        exp = ExperimentConfig(
            scenario=replace(config, n_ue=int(m)),
            policies_enabled=("mmq",),
            n_runs=n_runs,
            n_slots=n_slots,
            sweep={"q_min_muw": tuple(feasible)},
        )
        totals = [0.0] * len(feasible)
        for row in _collect_rows(exp, workers)[0]:  # sorted by grid point, then run
            totals[row["_grid_idx"]] += row["sum_rate_bps"]
        means = {q: totals[i] / n_runs for i, q in enumerate(feasible)}
        q_star = max(means, key=lambda q: (means[q], -q))
        rows.append({"m": int(m), "q_star": q_star, "mean_sum_rate_bps": means})
    return rows


def _figure_config(figure_id: str, n_runs: Optional[int], seed: int) -> ExperimentConfig:
    base = ScenarioConfig(seed=seed)
    runs = 200 if n_runs is None else n_runs
    if figure_id == "fig3":
        return ExperimentConfig(
            scenario=base,
            policies_enabled=("mmq", "max_rssi", "max_sinr"),
            n_runs=runs,
            sweep={"m": tuple(range(10, 101, 10))},
            random_muw_quota=True,
            auto_bias=True,
            output_path="fig3.csv",
        )
    if figure_id == "fig5":
        m = 70
        q = m // base.n_bs
        return ExperimentConfig(
            scenario=replace(base, n_ue=m),
            policy=PolicyConfig(q_min_mmw=q, q_min_muw=q),
            policies_enabled=("mmq", "max_rssi"),
            n_runs=runs,
            sweep={"bias_rssi_db": RSSI_BIAS_GRID[::2]},
            output_path="fig5.csv",
        )
    if figure_id == "fig6":
        m = 70
        q = m // base.n_bs
        return ExperimentConfig(
            scenario=replace(base, n_ue=m),
            policy=PolicyConfig(q_min_mmw=q, q_min_muw=q),
            policies_enabled=("mmq", "max_sinr"),
            n_runs=runs,
            sweep={"bias_sinr_db": SINR_BIAS_GRID},
            output_path="fig6.csv",
        )
    if figure_id == "fig7":
        return ExperimentConfig(
            scenario=replace(base, n_ue=100),
            policy=PolicyConfig(q_min_muw=8, c_th=0.5),
            policies_enabled=("mmq", "max_rssi", "max_sinr"),
            n_runs=runs,
            auto_bias=True,
            output_path="fig7.csv",
        )
    raise ConfigurationError(f"unknown figure id {figure_id!r}")


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
    fig4: sum-rate-optimal microwave minimum quota versus UE count; its runs
    go through the same verified grid driver and honour ``workers``.
    fig5/fig6: load spread of the quota policy versus max-RSSI / max-SINR
    over their bias sweeps at M=70.
    fig7: empirical CDF of the microwave per-UE rate at M=100 with the
    utility gate at 0.5.
    """
    if figure_id not in FIGURES:
        raise ConfigurationError(
            f"unknown figure id {figure_id!r}; expected one of {FIGURES}"
        )

    if figure_id == "fig4":
        out = Path(output_path or "fig4.csv")
        base = ScenarioConfig(seed=seed)
        rows = []
        for m in (20, 40, 60, 80, 100):
            rows.extend(
                optimal_min_quota_sweep(
                    base, [m], range(0, m // base.n_muw + 1),
                    n_runs=200 if n_runs is None else n_runs, workers=workers,
                )
            )
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["m", "q_min_muw", "mean_sum_rate_bps", "optimal"])
            for row in rows:
                for q, mean in sorted(row["mean_sum_rate_bps"].items()):
                    writer.writerow(
                        [row["m"], q, mean, "true" if q == row["q_star"] else "false"]
                    )
        return out

    config = _figure_config(figure_id, n_runs, seed)
    if output_path is not None:
        config = replace(config, output_path=str(output_path))

    if figure_id == "fig7":
        rows, samples = _collect_rows(config, workers, collect_muw_samples=True)
        out = Path(config.output_path)
        out.parent.mkdir(parents=True, exist_ok=True)
        with out.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["policy", "muw_rate_bps", "cdf"])
            for name in POLICY_ORDER:
                if name not in samples:
                    continue
                pooled = np.concatenate(samples[name])
                xs, cdf = rate_cdf(pooled)
                for x, f in zip(xs, cdf):
                    writer.writerow([name, float(x), float(f)])
        _write_rows(rows, out.with_name(out.stem + "_runs.csv"))
        return out

    return run_experiment(config, workers=workers)


# --------------------------------------------------------------------------
# Flat key=value config files


def _parse_bool(value: str) -> bool:
    lowered = value.strip().lower()
    if lowered in ("true", "yes", "1", "on"):
        return True
    if lowered in ("false", "no", "0", "off"):
        return False
    raise ConfigurationError(f"expected a boolean, got {value!r}")


def _parse_list(value: str, item_type):
    return tuple(item_type(tok.strip()) for tok in value.split(",") if tok.strip())


_SCENARIO_FIELDS = {
    "n_mmw": int, "n_muw": int, "n_ue": int, "seed": int,
    "area_radius": float, "tx_power_dbm": float,
    "bandwidth_mmw_hz": float, "bandwidth_muw_hz": float,
    "noise_psd_dbm_hz": float, "antenna_gain_dbi": float,
}
_PATHLOSS_GROUPS = ("pathloss_mmw_los", "pathloss_mmw_nlos", "pathloss_muw")
_PATHLOSS_FIELDS = {"slope": float, "intercept_db": float, "shadow_sigma_db": float}
_POLICY_FIELDS = {
    "q_min_mmw": int, "q_min_muw": int, "q_max_mmw": int, "q_max_muw": int,
    "c_th": float, "bias_rssi_db": float, "bias_sinr_db": float,
}
_SWEEP_FIELDS = {
    "m": int, "q_min_mmw": int, "q_min_muw": int,
    "c_th": float, "bias_rssi_db": float, "bias_sinr_db": float,
}
_EXPERIMENT_FIELDS = {
    "runs": int, "slots": int, "out": str,
    "random_muw_quota": _parse_bool, "auto_bias": _parse_bool,
}


def parse_config(text: str) -> ExperimentConfig:
    """Parse the flat ``key = value`` experiment format.

    Keys are dotted: ``scenario.*`` (including the three ``pathloss_*``
    groups), ``policy.*``, ``experiment.*`` (runs, slots, out,
    random_muw_quota, auto_bias, policies), and ``sweep.*`` with
    comma-separated value lists. Lines starting with ``#`` and blank lines
    are ignored. Unknown keys are errors.
    """
    scenario_kw: dict = {}
    pathloss_kw: dict[str, dict] = {g: {} for g in _PATHLOSS_GROUPS}
    policy_kw: dict = {}
    experiment_kw: dict = {}
    sweep: dict[str, tuple] = {}
    policies: Optional[tuple[str, ...]] = None

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigurationError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, value = (part.strip() for part in line.split("=", 1))
        parts = key.split(".")
        try:
            if parts[0] == "scenario" and len(parts) == 2 and parts[1] in _SCENARIO_FIELDS:
                scenario_kw[parts[1]] = _SCENARIO_FIELDS[parts[1]](value)
            elif (
                parts[0] == "scenario"
                and len(parts) == 3
                and parts[1] in _PATHLOSS_GROUPS
                and parts[2] in _PATHLOSS_FIELDS
            ):
                pathloss_kw[parts[1]][parts[2]] = _PATHLOSS_FIELDS[parts[2]](value)
            elif parts[0] == "policy" and len(parts) == 2 and parts[1] in _POLICY_FIELDS:
                policy_kw[parts[1]] = _POLICY_FIELDS[parts[1]](value)
            elif parts[0] == "experiment" and len(parts) == 2 and parts[1] == "policies":
                policies = _parse_list(value, str)
            elif parts[0] == "experiment" and len(parts) == 2 and parts[1] in _EXPERIMENT_FIELDS:
                experiment_kw[parts[1]] = _EXPERIMENT_FIELDS[parts[1]](value)
            elif parts[0] == "sweep" and len(parts) == 2 and parts[1] in _SWEEP_FIELDS:
                sweep[parts[1]] = _parse_list(value, _SWEEP_FIELDS[parts[1]])
            else:
                raise ConfigurationError(f"line {lineno}: unknown key {key!r}")
        except ValueError as exc:
            if isinstance(exc, ConfigurationError):
                raise
            raise ConfigurationError(
                f"line {lineno}: bad value {value!r} for {key!r}"
            ) from exc

    for group, kw in pathloss_kw.items():
        if kw:
            defaults = getattr(ScenarioConfig(), group)
            scenario_kw[group] = replace(defaults, **kw)
    scenario = ScenarioConfig(**scenario_kw)
    policy = PolicyConfig(**policy_kw)
    exp_kw: dict = {}
    if "runs" in experiment_kw:
        exp_kw["n_runs"] = experiment_kw["runs"]
    if "slots" in experiment_kw:
        exp_kw["n_slots"] = experiment_kw["slots"]
    if "out" in experiment_kw:
        exp_kw["output_path"] = experiment_kw["out"]
    if "random_muw_quota" in experiment_kw:
        exp_kw["random_muw_quota"] = experiment_kw["random_muw_quota"]
    if "auto_bias" in experiment_kw:
        exp_kw["auto_bias"] = experiment_kw["auto_bias"]
    if policies is not None:
        exp_kw["policies_enabled"] = policies
    return ExperimentConfig(
        scenario=scenario, policy=policy, sweep=sweep or None, **exp_kw
    )


def load_config(path) -> ExperimentConfig:
    """Read an experiment config file (see ``parse_config`` for the format)."""
    return parse_config(Path(path).read_text())
