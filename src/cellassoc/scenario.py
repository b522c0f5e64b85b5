"""Network topology generation: BS/UE placement and static per-link randomness.

A scenario is an immutable snapshot of one random network drop. Everything
random that stays fixed for the duration of a run lives here: positions,
per-pair LoS probabilities, and per-pair shadowing draws. Fast fading does
not exist in this model and LoS/NLoS flips are realized per slot by the
channel module.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field, fields, is_dataclass
from typing import Optional

import numpy as np

_MASK64 = 0xFFFFFFFFFFFFFFFF

# Stream ids for the counter-based generators. One Philox key is (seed, stream),
# and every matrix inside a stream comes from a single vectorized call, so
# per-pair draws never depend on iteration order. The ids are part of the keys,
# so they keep their values and none is reused.
STREAM_SCENARIO = 0
STREAM_QUOTAS = 2
STREAM_SLOTS = 3


class ConfigurationError(ValueError):
    """A configuration value is of the wrong kind or out of range; the message names it."""


def _stream_key(seed: int, stream: int) -> np.ndarray:
    # int() first: masking a numpy integer seed would overflow a C long.
    return np.array([int(seed) & _MASK64, stream & _MASK64], dtype=np.uint64)


def rng_stream(seed: int, stream: int = STREAM_SCENARIO) -> np.random.Generator:
    """Counter-based (Philox) generator keyed by (seed, stream)."""
    return np.random.Generator(np.random.Philox(key=_stream_key(seed, stream)))


_FRESH = np.zeros(4, dtype=np.uint64)


def rekey(rng: np.random.Generator, seed: int, stream: int) -> np.random.Generator:
    """Restart the Philox generator ``rng`` in place as ``rng_stream(seed, stream)``
    and return it: a fresh state (counter 0, empty buffers, no half-used 32-bit
    word) gives the same stream as a new generator at a fifth of its cost."""
    key = {"counter": _FRESH, "key": _stream_key(seed, stream)}
    rng.bit_generator.state = {"bit_generator": "Philox", "state": key, "buffer": _FRESH,
                               "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    return rng


def _is_integer(value) -> bool:
    """An int or a numpy integer, but no bool: Python's bool is an int, numpy's is neither."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def _holds(value, container, item) -> bool:
    """Whether ``value`` is a ``container`` whose items (a dict's values) are all ``item``."""
    items = value.values() if isinstance(value, dict) else value
    return isinstance(value, container) and all(isinstance(x, item) for x in items)


def _parse_list(item):
    def parse(text):  # a wholly empty text is the empty list; an empty item is refused
        tokens = [tok.strip() for tok in text.split(",")] if text.strip() else []
        if "" in tokens:
            raise ValueError(f"empty item in {text!r}")
        return tuple(map(item, tokens))
    return parse


_BOOL_WORDS = {"true": True, "yes": True, "1": True, "on": True,  # the bool kind's words
               "false": False, "no": False, "0": False, "off": False}
# A field annotation -> (the test its values pass, the wording of a refusal, its text parser).
_KINDS = {
    "int": (_is_integer, "an integer", int),
    "float": (
        lambda v: isinstance(v, (float, np.floating)) or _is_integer(v), "a number", float
    ),
    "bool": (lambda v: isinstance(v, (bool, np.bool_)), "a bool", lambda t: _BOOL_WORDS[t.lower()]),
    "str": (lambda v: isinstance(v, str), "a string", str),
    "tuple[str, ...]": (
        lambda v: _holds(v, (tuple, list), str), "a tuple of strings", _parse_list(str)
    ),
    "dict[str, tuple]": (
        lambda v: _holds(v, dict, (tuple, list, range)), "a dict of tuples, lists or ranges", None
    ),
}


def _field_kind(f) -> tuple:
    """(test, wording, parser) of dataclass field ``f``: a nested config's class and no parser,
    else its annotation's ``_KINDS`` entry; ``Optional[...]`` takes None too."""
    if is_dataclass(f.default):
        return (lambda v: isinstance(v, type(f.default))), f"a {type(f.default).__name__}", None
    optional = f.type.startswith("Optional[")
    test, wording, parse = _KINDS[f.type[len("Optional[") : -1] if optional else f.type]
    return (lambda v: v is None or test(v)) if optional else test, wording, parse


def _check_fields(config) -> None:
    """Refuse, naming the field, any value of ``config`` its annotation does not allow."""
    for f in fields(config):
        test, wording, _ = _field_kind(f)
        if not test(getattr(config, f.name)):
            raise ConfigurationError(f"{f.name} must be {wording}, got {getattr(config, f.name)!r}")


def _require(config, names, ok, rule: str) -> None:
    """Refuse, naming the field, a value of field ``names`` that fails ``ok``."""
    for name in names:
        if not ok(getattr(config, name)):
            raise ConfigurationError(f"{name} must be {rule}, got {getattr(config, name)}")


def _require_finite(config) -> None:
    # NaN passes every <, <= range check, so finiteness is tested first.
    _require(config, [f.name for f in fields(config) if f.type == "float"], np.isfinite, "finite")


@dataclass(frozen=True)
class PathLossParams:
    """Log-distance path loss fit: slope, intercept at 1 m, shadowing std (dB)."""

    slope: float
    intercept_db: float
    shadow_sigma_db: float = 0.0

    def __post_init__(self) -> None:
        _check_fields(self)
        _require_finite(self)
        _require(self, ("slope",), lambda v: v > 0, "> 0")
        _require(self, ("shadow_sigma_db",), lambda v: v >= 0, ">= 0")


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
        _check_fields(self)
        _require(self, ("n_mmw", "n_muw", "n_ue"), lambda v: v >= 1, ">= 1")
        _require_finite(self)
        positive = ("area_radius", "bandwidth_mmw_hz", "bandwidth_muw_hz")
        _require(self, positive, lambda v: v > 0, "> 0")

    @property
    def n_bs(self) -> int:
        return self.n_mmw + self.n_muw


@dataclass(frozen=True, eq=False)
class Scenario:
    """One network drop: positions in meters, LoS probabilities, shadowing in dB.

    BS indexing convention used throughout the package: indices 0..n_mmw-1 are
    the mmW BSs, n_mmw..n_bs-1 the microwave BSs. Arrays are write-protected;
    a scenario may be shared read-only across workers. A stacked scenario
    puts a leading run axis on every array and names its runs' seeds, one
    Python int each; a one-run scenario has none and is keyed by config.seed.
    Only ``channel.link_budget`` reads the shadowing. The Monte Carlo driver
    takes over its memory: it draws through ``_drop_and_buffer``, which also
    hands it writable views of the one buffer that the three shadowing arrays
    view, and each block of UE rows writes its links over the rows whose
    budget it has just taken. The rest of the batch runs on a copy of the drop
    whose shadowing is None. For every other caller the arrays stay read-only.
    """

    config: ScenarioConfig
    mmw_positions: np.ndarray = field(repr=False)  # (N1, 2)
    muw_positions: np.ndarray = field(repr=False)  # (N2, 2)
    ue_positions: np.ndarray = field(repr=False)  # (M, 2)
    los_prob: np.ndarray = field(repr=False)  # (M, N1)
    shadow_mmw_los: Optional[np.ndarray] = field(repr=False)  # (M, N1)
    shadow_mmw_nlos: Optional[np.ndarray] = field(repr=False)  # (M, N1)
    shadow_muw: Optional[np.ndarray] = field(repr=False)  # (M, N2)
    seeds: Optional[tuple] = None  # (R,) run seeds of a stack

    def __post_init__(self) -> None:
        for f in fields(self)[1:-1]:  # the arrays after the config; released shadowing is None
            if getattr(self, f.name) is not None:
                getattr(self, f.name).setflags(write=False)
        if self.los_prob.shape[:-2] != (() if self.seeds is None else (len(self.seeds),)):
            raise ValueError("a stacked scenario names one seed per run, one run none")

    @property
    def n_mmw(self) -> int:
        return self.mmw_positions.shape[-2]

    @property
    def n_muw(self) -> int:
        return self.muw_positions.shape[-2]

    @property
    def n_ue(self) -> int:
        return self.ue_positions.shape[-2]


def generate_scenario(config: ScenarioConfig, seeds=None) -> Scenario:
    """Draw one network snapshot, deterministically from config.seed.

    Positions are uniform on the disk of radius ``area_radius``; LoS
    probabilities are i.i.d. uniform on [0, 1]; shadowing is zero-mean
    Gaussian with the per-class sigma, drawn once per (pair, LoS state)
    and held fixed for the run. With ``seeds``, one stacked scenario holds a
    run per seed instead and keeps them as a tuple, from which later draws key
    each run. Each run re-keys one generator to its seed and draws three
    blocks: every position, the LoS probabilities, then all shadowing as
    standard normals; disk transforms and scaling run once for all runs. An
    empty ``seeds``, or a seed that is not an integer (a bool, a float), is
    refused naming its index.
    """
    stacked = seeds is not None
    if stacked:
        if not len(seeds):
            raise ConfigurationError("seeds must name at least one run")
        for i, seed in enumerate(seeds):
            if not _is_integer(seed):
                raise ConfigurationError(f"seeds[{i}] must be an integer, got {seed!r}")
    seeds = tuple(map(int, seeds)) if stacked else (config.seed,)
    rng = rng_stream(seeds[0])
    n1, n2, m = config.n_mmw, config.n_muw, config.n_ue
    uniform = np.empty((len(seeds), 2 * (n1 + n2 + m)))
    rho = np.empty((len(seeds), m, n1))
    normal = np.empty((len(seeds), m * (2 * n1 + n2)))
    for row, seed in enumerate(seeds):
        run_rng = rekey(rng, seed, STREAM_SCENARIO)
        run_rng.random(out=uniform[row])
        run_rng.random(out=rho[row])
        run_rng.standard_normal(out=normal[row])
    arrays = []
    for start, n in ((0, n1), (2 * n1, n2), (2 * (n1 + n2), m)):
        # Polar sampling; sqrt on the radial draw keeps the density uniform in area.
        r = config.area_radius * np.sqrt(uniform[:, start : start + n])
        theta = 2.0 * np.pi * uniform[:, start + n : start + 2 * n]
        arrays.append(np.stack([r * np.cos(theta), r * np.sin(theta)], axis=-1))
    arrays.append(rho)
    classes = (config.pathloss_mmw_los, config.pathloss_mmw_nlos, config.pathloss_muw)
    for z, params in zip(_shadow_views(normal, m, n1), classes):
        z *= params.shadow_sigma_db
        z += 0.0  # rng.normal's loc + scale * z, bit for bit (-0.0 becomes 0.0)
        arrays.append(z)
    if (handover := _HANDOVER.get()) is not None:
        handover.append(normal)
    return Scenario(config, *(a if stacked else a[0] for a in arrays), seeds if stacked else None)


def _shadow_views(normal: np.ndarray, m: int, n1: int) -> list[np.ndarray]:
    # The LoS, NLoS and microwave (R, M, N) views of the (R, M·(2N1 + N2)) shadowing draw.
    return [z.reshape(len(normal), m, -1) for z in np.split(normal, [m * n1, 2 * m * n1], -1)]


# While ``_drop_and_buffer`` draws, in its context: the list ``generate_scenario`` puts
# its shadowing buffer in.
_HANDOVER: ContextVar[Optional[list]] = ContextVar("_HANDOVER", default=None)


def _drop_and_buffer(draw, config: ScenarioConfig, seeds) -> tuple[Scenario, list[np.ndarray]]:
    """The stacked drop ``draw(config, seeds)`` (``draw`` is ``generate_scenario`` or a
    wrapper of it) and writable views of the buffer its three shadowing arrays view: LoS,
    NLoS, then microwave, each (R, M, N), the order and layout of ``channel.LinkRealization``.
    For the Monte Carlo driver, which reads each row of the shadowing once, for its link
    budget, and writes the row's links over it; the drop's own arrays stay read-only."""
    token = _HANDOVER.set(buffers := [])
    try:
        drop = draw(config, seeds)
    finally:
        _HANDOVER.reset(token)
    shadow = (drop.shadow_mmw_los, drop.shadow_mmw_nlos, drop.shadow_muw)
    views = _shadow_views(buffers[0], *drop.los_prob.shape[-2:]) if len(buffers) == 1 else []
    layout = [[(a.shape, a.strides, a.ctypes.data) for a in arrays] for arrays in (views, shadow)]
    if layout[0] != layout[1]:
        raise RuntimeError("the drop's shadowing does not view the buffer its draw handed over")
    return drop, views


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
    dx *= dx  # dx * dx + dy * dy and its root, in place on the two fresh differences
    dy *= dy
    dx += dy
    return np.sqrt(dx, out=dx)
