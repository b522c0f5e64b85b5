"""Network topology generation: BS/UE placement and static per-link randomness.

A scenario is an immutable snapshot of one random network drop. Everything
random that stays fixed for the duration of a run lives here: positions,
per-pair LoS probabilities, and per-pair shadowing draws. Fast fading does
not exist in this model and LoS/NLoS flips are realized per slot by the
channel module.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Stream ids for the counter-based generators. One Philox key is (seed, stream),
# and every matrix inside a stream comes from a single vectorized call, so
# per-pair draws never depend on iteration order.
STREAM_SCENARIO = 0
STREAM_LINKS = 1
STREAM_QUOTAS = 2
STREAM_SLOTS = 3


class ConfigurationError(ValueError):
    """A configuration value is out of range; the message names the field."""


def rng_stream(seed: int, stream: int = STREAM_SCENARIO) -> np.random.Generator:
    """Counter-based (Philox) generator keyed by (seed, stream)."""
    key = np.array([seed & _MASK64, stream & _MASK64], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _require_finite(config) -> None:
    # NaN passes every <, <= range check, so finiteness is tested first.
    for f in fields(config):
        value = getattr(config, f.name)
        if f.type == "float" and not np.isfinite(value):
            raise ConfigurationError(f"{f.name} must be finite, got {value}")


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path loss fit: slope, intercept at 1 m, shadowing std (dB)."""

    slope: float
    intercept_db: float
    shadow_sigma_db: float = 0.0

    def __post_init__(self) -> None:
        _require_finite(self)
        if self.slope <= 0:
            raise ConfigurationError(f"slope must be > 0, got {self.slope}")
        if self.shadow_sigma_db < 0:
            raise ConfigurationError(
                f"shadow_sigma_db must be >= 0, got {self.shadow_sigma_db}"
            )


# Measured-fit defaults for the three link classes (28 GHz LoS/NLoS, sub-6 GHz).
MMW_LOS_PATHLOSS = PathLossParams(slope=2.0, intercept_db=70.0, shadow_sigma_db=5.2)
MMW_NLOS_PATHLOSS = PathLossParams(slope=4.0, intercept_db=70.0, shadow_sigma_db=7.6)
MUW_PATHLOSS = PathLossParams(slope=3.0, intercept_db=38.0, shadow_sigma_db=10.0)


@dataclass(frozen=True)
class ScenarioConfig:
    """Knobs for one network drop. Defaults are the standard simulation setup."""

    n_mmw: int = 10
    n_muw: int = 10
    n_ue: int = 50
    area_radius: float = 500.0
    tx_power_dbm: float = 30.0
    bandwidth_mmw_hz: float = 1e9
    bandwidth_muw_hz: float = 10e6
    noise_psd_dbm_hz: float = -174.0
    antenna_gain_dbi: float = 18.0
    pathloss_mmw_los: PathLossParams = MMW_LOS_PATHLOSS
    pathloss_mmw_nlos: PathLossParams = MMW_NLOS_PATHLOSS
    pathloss_muw: PathLossParams = MUW_PATHLOSS
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_mmw", "n_muw", "n_ue"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)) or value < 1:
                raise ConfigurationError(f"{name} must be an integer >= 1, got {value!r}")
        _require_finite(self)
        for name in ("area_radius", "bandwidth_mmw_hz", "bandwidth_muw_hz"):
            value = getattr(self, name)
            if value <= 0:
                raise ConfigurationError(f"{name} must be > 0, got {value}")
        if not isinstance(self.seed, (int, np.integer)):
            raise ConfigurationError(f"seed must be an integer, got {self.seed!r}")

    @property
    def n_bs(self) -> int:
        return self.n_mmw + self.n_muw


@dataclass(frozen=True, eq=False)
class Scenario:
    """One network drop: positions in meters, LoS probabilities, shadowing in dB.

    BS indexing convention used throughout the package: indices 0..n_mmw-1 are
    the mmW BSs, n_mmw..n_bs-1 the microwave BSs. Arrays are write-protected;
    a scenario may be shared read-only across workers. A stacked scenario
    puts a leading run axis on every array (runs that differ only in seed).
    """

    config: ScenarioConfig
    mmw_positions: np.ndarray = field(repr=False)  # (N1, 2)
    muw_positions: np.ndarray = field(repr=False)  # (N2, 2)
    ue_positions: np.ndarray = field(repr=False)  # (M, 2)
    los_prob: np.ndarray = field(repr=False)  # (M, N1)
    shadow_mmw_los: np.ndarray = field(repr=False)  # (M, N1)
    shadow_mmw_nlos: np.ndarray = field(repr=False)  # (M, N1)
    shadow_muw: np.ndarray = field(repr=False)  # (M, N2)

    def __post_init__(self) -> None:
        for name in (
            "mmw_positions",
            "muw_positions",
            "ue_positions",
            "los_prob",
            "shadow_mmw_los",
            "shadow_mmw_nlos",
            "shadow_muw",
        ):
            getattr(self, name).setflags(write=False)

    @property
    def n_mmw(self) -> int:
        return self.mmw_positions.shape[-2]

    @property
    def n_muw(self) -> int:
        return self.muw_positions.shape[-2]

    @property
    def n_ue(self) -> int:
        return self.ue_positions.shape[-2]


def _uniform_disk(rng: np.random.Generator, n: int, radius: float) -> np.ndarray:
    # Polar sampling; sqrt on the radial draw keeps the density uniform in area.
    r = radius * np.sqrt(rng.random(n))
    theta = 2.0 * np.pi * rng.random(n)
    return np.column_stack([r * np.cos(theta), r * np.sin(theta)])


def generate_scenario(config: ScenarioConfig) -> Scenario:
    """Draw one network snapshot, deterministically from config.seed.

    Positions are uniform on the disk of radius ``area_radius``; LoS
    probabilities are i.i.d. uniform on [0, 1]; shadowing is zero-mean
    Gaussian with the per-class sigma, drawn once per (pair, LoS state)
    and held fixed for the run.
    """
    rng = rng_stream(config.seed, STREAM_SCENARIO)
    mmw = _uniform_disk(rng, config.n_mmw, config.area_radius)
    muw = _uniform_disk(rng, config.n_muw, config.area_radius)
    ue = _uniform_disk(rng, config.n_ue, config.area_radius)
    shape_mmw = (config.n_ue, config.n_mmw)
    rho = rng.random(shape_mmw)
    shadow_los = rng.normal(0.0, config.pathloss_mmw_los.shadow_sigma_db, shape_mmw)
    shadow_nlos = rng.normal(0.0, config.pathloss_mmw_nlos.shadow_sigma_db, shape_mmw)
    shadow_muw = rng.normal(
        0.0, config.pathloss_muw.shadow_sigma_db, (config.n_ue, config.n_muw)
    )
    return Scenario(
        config=config,
        mmw_positions=mmw,
        muw_positions=muw,
        ue_positions=ue,
        los_prob=rho,
        shadow_mmw_los=shadow_los,
        shadow_mmw_nlos=shadow_nlos,
        shadow_muw=shadow_muw,
    )


def distance(a, b) -> float:
    """Euclidean distance between two planar points, in meters."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    return float(np.linalg.norm(a - b))


def pairwise_distances(points_a: np.ndarray, points_b: np.ndarray) -> np.ndarray:
    """Distance matrix of shape (..., len(a), len(b)); leading axes broadcast."""
    a, b = (np.asarray(p, dtype=float) for p in (points_a, points_b))
    a, b = (p.reshape(p.shape[:-2] + (-1, 2)) for p in (a, b))  # a lone point may come flat
    dx = a[..., :, None, 0] - b[..., None, :, 0]
    dy = a[..., :, None, 1] - b[..., None, :, 1]
    return np.sqrt(dx * dx + dy * dy)
