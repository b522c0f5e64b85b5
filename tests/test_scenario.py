import math
import re
from dataclasses import fields, is_dataclass, replace

import numpy as np
import pytest
from scipy import stats

from cellassoc.experiments import ExperimentConfig
from cellassoc.los import LosEstimate
from cellassoc.policies import PolicyConfig
from cellassoc.scenario import (
    STREAM_QUOTAS,
    STREAM_SCENARIO,
    STREAM_SLOTS,
    ConfigurationError,
    PathLossParams,
    Scenario,
    ScenarioConfig,
    _drop_and_buffer,
    distance,
    generate_scenario,
    rekey,
    rng_stream,
)
from helpers import oracle_generate_scenario


def test_zero_ue_count_rejected():
    with pytest.raises(ConfigurationError, match="n_ue"):
        ScenarioConfig(n_ue=0)


@pytest.mark.parametrize(
    "kwargs, field",
    [
        ({"n_mmw": 0}, "n_mmw"),
        ({"n_muw": -1}, "n_muw"),
        ({"area_radius": 0.0}, "area_radius"),
        ({"bandwidth_mmw_hz": -1.0}, "bandwidth_mmw_hz"),
        ({"bandwidth_muw_hz": 0.0}, "bandwidth_muw_hz"),
    ],
)
def test_invalid_config_names_field(kwargs, field):
    with pytest.raises(ConfigurationError, match=field):
        ScenarioConfig(**kwargs)


CONFIGS = (  # a valid instance of every config class
    PathLossParams(slope=3.0, intercept_db=38.0),
    ScenarioConfig(),
    PolicyConfig(),
    ExperimentConfig(),
    LosEstimate(),
)


def _wrong_kinds(f):
    """Values that field ``f``'s annotation does not allow."""
    if is_dataclass(f.default):
        return [{}, None]
    wrong = [7 if f.type == "str" else "1"]  # a bare string is no tuple of strings either
    if not f.type.startswith("Optional["):
        wrong.append(None)
    if f.type in ("int", "Optional[int]", "float"):
        wrong.append(True)
    if f.type in ("int", "Optional[int]"):
        wrong += [2.5, np.float64(2.0)]
    if f.type == "bool":
        wrong += [1, "false"]
    return wrong


@pytest.mark.parametrize(
    "config, name, value",
    [
        pytest.param(c, f.name, v, id=f"{type(c).__name__}.{f.name}={v!r}")
        for c in CONFIGS
        for f in fields(c)
        for v in _wrong_kinds(f)
    ],
)
def test_every_config_field_refuses_a_wrong_kind_by_name(config, name, value):
    with pytest.raises(ConfigurationError, match=f"^{name} must be "):
        replace(config, **{name: value})


def test_bad_pathloss_params():
    with pytest.raises(ConfigurationError, match="slope"):
        PathLossParams(slope=0.0, intercept_db=70.0)
    with pytest.raises(ConfigurationError, match="shadow_sigma_db"):
        PathLossParams(slope=2.0, intercept_db=70.0, shadow_sigma_db=-1.0)


def _float_fields(cls):
    return [f.name for f in fields(cls) if f.type == "float"]


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", _float_fields(ScenarioConfig))
def test_scenario_config_rejects_non_finite(name, value):
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        ScenarioConfig(**{name: value})


@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("name", _float_fields(PathLossParams))
def test_pathloss_params_reject_non_finite(name, value):
    base = PathLossParams(slope=3.0, intercept_db=38.0, shadow_sigma_db=10.0)
    with pytest.raises(ConfigurationError, match=f"{name} must be finite"):
        replace(base, **{name: value})


@pytest.mark.parametrize("name", ["n_mmw", "n_muw", "n_ue", "seed"])
def test_scenario_config_rejects_bool_counts_and_seed(name):
    # Python's bool is an int, so an isinstance check alone takes True as 1.
    with pytest.raises(ConfigurationError, match=f"^{name} must be an integer.*, got True$"):
        ScenarioConfig(**{name: True})


@pytest.mark.parametrize("value", [True, np.True_], ids=["True", "np.True_"])
@pytest.mark.parametrize("name", _float_fields(ScenarioConfig))
def test_scenario_config_rejects_bool_floats(name, value):
    with pytest.raises(ConfigurationError, match=f"^{name} must be a number, got {value!r}$"):
        ScenarioConfig(**{name: value})


@pytest.mark.parametrize("value", [True, np.True_], ids=["True", "np.True_"])
@pytest.mark.parametrize("name", _float_fields(PathLossParams))
def test_pathloss_params_reject_bools(name, value):
    base = PathLossParams(slope=3.0, intercept_db=38.0, shadow_sigma_db=10.0)
    with pytest.raises(ConfigurationError, match=f"^{name} must be a number"):
        replace(base, **{name: value})


def test_same_seed_bit_identical():
    cfg = ScenarioConfig(n_ue=30, seed=123)
    a = generate_scenario(cfg)
    b = generate_scenario(cfg)
    for name in (
        "mmw_positions", "muw_positions", "ue_positions",
        "los_prob", "shadow_mmw_los", "shadow_mmw_nlos", "shadow_muw",
    ):
        assert getattr(a, name).tobytes() == getattr(b, name).tobytes()


def test_different_seed_differs():
    a = generate_scenario(ScenarioConfig(seed=1))
    b = generate_scenario(ScenarioConfig(seed=2))
    assert not np.array_equal(a.ue_positions, b.ue_positions)


def test_shapes_and_ranges():
    cfg = ScenarioConfig(n_mmw=4, n_muw=3, n_ue=17, seed=5)
    sc = generate_scenario(cfg)
    assert sc.mmw_positions.shape == (4, 2)
    assert sc.muw_positions.shape == (3, 2)
    assert sc.ue_positions.shape == (17, 2)
    assert sc.los_prob.shape == (17, 4)  # no LoS state on the microwave tier
    assert sc.shadow_muw.shape == (17, 3)
    assert np.all(sc.los_prob >= 0.0) and np.all(sc.los_prob <= 1.0)
    for pts in (sc.mmw_positions, sc.muw_positions, sc.ue_positions):
        assert np.all(np.linalg.norm(pts, axis=1) <= cfg.area_radius + 1e-9)


def test_scenario_arrays_are_read_only():
    sc = generate_scenario(ScenarioConfig(seed=3))
    with pytest.raises(ValueError):
        sc.ue_positions[0, 0] = 0.0


def test_mean_radial_distance_matches_uniform_disk():
    # E|y| = 2r/3 for a uniform disk; Monte Carlo estimate at 1e5 samples.
    cfg = ScenarioConfig(n_mmw=1, n_muw=1, n_ue=100_000, area_radius=1000.0, seed=11)
    sc = generate_scenario(cfg)
    mean_dist = np.linalg.norm(sc.ue_positions, axis=1).mean()
    assert mean_dist == pytest.approx(2000.0 / 3.0, rel=0.01)


def test_radial_cdf_kolmogorov_smirnov():
    cfg = ScenarioConfig(n_mmw=1, n_muw=1, n_ue=100_000, area_radius=1000.0, seed=12)
    sc = generate_scenario(cfg)
    r = np.linalg.norm(sc.ue_positions, axis=1)
    result = stats.kstest(r, lambda d: (d / cfg.area_radius) ** 2)
    assert result.pvalue > 0.01


def test_distance_examples():
    assert distance((0.0, 0.0), (0.0, 0.0)) == 0.0
    assert distance((3.0, 0.0), (0.0, 4.0)) == pytest.approx(5.0)
    # Frozen from sqrt(150^2 + 216^2), computed independently.
    assert distance((100.0, 200.0), (-50.0, -16.0)) == pytest.approx(
        262.9752840097335, rel=1e-12
    )


def test_distance_symmetry_and_identity():
    rng = np.random.default_rng(0)
    for _ in range(50):
        a, b = rng.normal(size=2), rng.normal(size=2)
        assert distance(a, b) == pytest.approx(distance(b, a))
        assert distance(a, a) == 0.0


def test_rng_streams_are_independent():
    a = rng_stream(99, 0).random(8)
    b = rng_stream(99, 1).random(8)
    assert not np.array_equal(a, b)
    assert np.array_equal(a, rng_stream(99, 0).random(8))


# Negative seeds, seeds >= 2**63 and 2**64 - 1, which keys the stream of -1.
SEEDS = [0, 17, -1, -(2**40), 2**63, 2**64 - 1]


@pytest.mark.parametrize(
    "m, n1, n2, seeds",
    [(1, 1, 1, SEEDS), (1, 3, 2, SEEDS), (4, 1, 1, SEEDS), (100, 10, 10, SEEDS),
     (5000, 100, 100, [-1, 2**63, 2**64 - 1])],
)
@pytest.mark.parametrize("sigma_muw", [10.0, 0.0])
def test_batched_draw_matches_per_run_oracle(m, n1, n2, seeds, sigma_muw):
    cfg = ScenarioConfig(
        n_ue=m, n_mmw=n1, n_muw=n2, seed=99,
        pathloss_muw=PathLossParams(slope=3.0, intercept_db=38.0, shadow_sigma_db=sigma_muw),
    )
    batch = generate_scenario(cfg, seeds)
    assert batch.config is cfg and batch.los_prob.shape == (len(seeds), m, n1)
    assert batch.seeds == tuple(seeds)  # the stack names its runs
    for r, seed in enumerate(seeds):
        want = oracle_generate_scenario(replace(cfg, seed=seed))
        one = generate_scenario(replace(cfg, seed=seed))
        assert one.seeds is None and want.seeds is None  # a one-run drop is keyed by its config
        for f in fields(Scenario)[1:-1]:  # the arrays; seeds is checked above
            got, expected = getattr(batch, f.name)[r], getattr(want, f.name)
            assert np.array_equal(got, expected)
            assert got.tobytes() == expected.tobytes()  # signed zeros too
            assert getattr(one, f.name).tobytes() == expected.tobytes()
    alias = seeds.index(2**64 - 1)
    assert np.array_equal(batch.ue_positions[alias], batch.ue_positions[seeds.index(-1)])


@pytest.mark.parametrize(
    "seeds, message",
    [([], "seeds must name at least one run"),
     ((), "seeds must name at least one run"),
     ([1.5], "seeds[0] must be an integer, got 1.5"),
     ([True], "seeds[0] must be an integer, got True"),
     ([4, np.True_], "seeds[1] must be an integer, got np.True_"),
     ([3, 4, np.float64(5.0)], "seeds[2] must be an integer, got"),
     ([0, "1"], "seeds[1] must be an integer, got '1'")],
)
def test_stacked_draw_refuses_a_bad_seed_list(seeds, message):
    # An empty list used to raise a bare IndexError, and 1.5 and True were keyed as seed 1.
    with pytest.raises(ConfigurationError, match=re.escape(message)):
        generate_scenario(ScenarioConfig(n_ue=3, n_mmw=2, n_muw=1), seeds)


def test_stacked_draw_takes_numpy_integer_seeds():
    cfg = ScenarioConfig(n_ue=3, n_mmw=2, n_muw=1)
    batch = generate_scenario(cfg, [np.int64(-1), np.uint64(2**63), 7])
    assert batch.seeds == (-1, 2**63, 7) and all(type(s) is int for s in batch.seeds)


def test_drop_and_buffer_hands_over_the_drops_own_shadowing():
    # The views are writable and are the drop's three read-only shadowing arrays;
    # a draw that hands over no buffer, two, or one its drop does not view is refused.
    cfg = ScenarioConfig(n_ue=4, n_mmw=2, n_muw=3, seed=6)
    drop, views = _drop_and_buffer(generate_scenario, cfg, [6, 7])
    want = generate_scenario(cfg, [6, 7])
    for view, name in zip(views, ("shadow_mmw_los", "shadow_mmw_nlos", "shadow_muw")):
        assert view.flags.writeable and not getattr(drop, name).flags.writeable
        assert np.shares_memory(view, getattr(drop, name))
        assert view.tobytes() == getattr(want, name).tobytes()

    def copied(config, seeds):
        d = generate_scenario(config, seeds)
        return replace(d, shadow_muw=d.shadow_muw.copy())

    def twice(config, seeds):
        generate_scenario(config, seeds)
        return generate_scenario(config, seeds)

    for draw in (copied, twice, lambda config, seeds: want):
        with pytest.raises(RuntimeError, match="does not view the buffer its draw handed over"):
            _drop_and_buffer(draw, cfg, [6, 7])


def test_rekey_after_half_used_word_equals_fresh_stream():
    rng = rng_stream(5, STREAM_QUOTAS)
    for seed, stream in ((9, STREAM_QUOTAS), (-1, STREAM_SCENARIO), (2**64 - 1, STREAM_SLOTS)):
        # An odd count of fresh 32-bit draws leaves half a 64-bit word buffered.
        rng.integers(0, 3, 7 + rng.bit_generator.state["has_uint32"])
        assert rng.bit_generator.state["has_uint32"] == 1
        assert rekey(rng, seed, stream) is rng
        fresh = rng_stream(seed, stream)
        # A power-of-two range takes every 32-bit word as it comes, a stale one too.
        assert np.array_equal(rng.integers(0, 4, 7), fresh.integers(0, 4, 7))
        assert np.array_equal(rng.random(9), fresh.random(9))
        assert np.array_equal(rng.standard_normal(9), fresh.standard_normal(9))


def test_numpy_integer_seed_keys_like_python_int():
    for seed in (np.int64(3), np.int64(-1), np.uint64(2**64 - 1)):
        want = rng_stream(int(seed), STREAM_SLOTS).random(4)
        assert np.array_equal(rng_stream(seed, STREAM_SLOTS).random(4), want)
        assert np.array_equal(rekey(rng_stream(0), seed, STREAM_SLOTS).random(4), want)


def test_scenario_direct_construction():
    cfg = ScenarioConfig(n_mmw=1, n_muw=1, n_ue=2)
    sc = Scenario(
        config=cfg,
        mmw_positions=np.array([[0.0, 0.0]]),
        muw_positions=np.array([[10.0, 0.0]]),
        ue_positions=np.array([[1.0, 0.0], [2.0, 0.0]]),
        los_prob=np.array([[0.5], [0.5]]),
        shadow_mmw_los=np.zeros((2, 1)),
        shadow_mmw_nlos=np.zeros((2, 1)),
        shadow_muw=np.zeros((2, 1)),
    )
    assert sc.n_ue == 2 and sc.n_mmw == 1 and sc.n_muw == 1
