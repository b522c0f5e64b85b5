"""Downlink cell association and load balancing for joint mmW/microwave networks.

A system-level Monte Carlo simulator built around a reusable one-to-many
matching engine with minimum-quota constraints, plus the classical
deferred-acceptance, max-RSSI, and max-SINR association baselines.
"""

from .channel import (
    LinkBudget,
    LinkRealization,
    db_to_linear,
    draw_los_slots,
    linear_to_db,
    link_budget,
    mmw_spectral_efficiency,
    muw_spectral_efficiency,
    noise_power_dbm,
    path_loss_db,
    realize_links,
)
from .experiments import (
    ExperimentConfig,
    VerificationFailure,
    load_config,
    optimal_min_quota_sweep,
    parse_config,
    run_experiment,
    run_figure,
)
from .los import LosEstimate, update_f
from .matching import (
    InfeasibleInstanceError,
    Matching,
    MatchingError,
    MatchingInstance,
    VerifierReport,
    build_matching,
    deferred_acceptance,
    format_instance,
    mmq_match,
    parse_instance,
    verify,
)
from .metrics import (
    RunMetrics,
    max_load_difference,
    rate_cdf,
    run_metrics,
    served_links,
    slot_averaged_rates,
)
from .policies import (
    PolicyConfig,
    build_master_list,
    build_matching_instance,
    build_preferences,
    compute_utilities,
    mmq_policy,
    rssi_matrix_dbm,
    sinr_matrix_db,
)
from .scenario import (
    ConfigurationError,
    PathLossParams,
    Scenario,
    ScenarioConfig,
    distance,
    generate_scenario,
    rng_stream,
)

__version__ = "0.1.0"

__all__ = [
    "ConfigurationError",
    "ExperimentConfig",
    "InfeasibleInstanceError",
    "LinkBudget",
    "LinkRealization",
    "LosEstimate",
    "Matching",
    "MatchingError",
    "MatchingInstance",
    "PathLossParams",
    "PolicyConfig",
    "RunMetrics",
    "Scenario",
    "ScenarioConfig",
    "VerificationFailure",
    "VerifierReport",
    "build_master_list",
    "build_matching",
    "build_matching_instance",
    "build_preferences",
    "compute_utilities",
    "db_to_linear",
    "deferred_acceptance",
    "distance",
    "draw_los_slots",
    "format_instance",
    "generate_scenario",
    "linear_to_db",
    "link_budget",
    "load_config",
    "max_load_difference",
    "mmq_match",
    "mmq_policy",
    "mmw_spectral_efficiency",
    "muw_spectral_efficiency",
    "noise_power_dbm",
    "optimal_min_quota_sweep",
    "parse_config",
    "parse_instance",
    "path_loss_db",
    "rate_cdf",
    "realize_links",
    "rng_stream",
    "rssi_matrix_dbm",
    "run_experiment",
    "run_figure",
    "run_metrics",
    "served_links",
    "sinr_matrix_db",
    "slot_averaged_rates",
    "update_f",
    "verify",
]
