"""The package's surface: ``cellassoc.__all__`` lists exactly what it exports,
links carry no LoS state, the metric matrices take the run's link budget, no
public callable takes a generator, the LoS update has one rule, every name the
span tracer wraps exists, ``src/`` makes no BLAS call, and the field check
reads, and the config file parses, every config annotation."""

import ast
import importlib
import inspect
import types
from collections import Counter
from dataclasses import fields, is_dataclass
from pathlib import Path

import pytest

import cellassoc
from cellassoc import scenario
from cellassoc.scenario import _field_kind

ROOT = Path(__file__).resolve().parent.parent
SOURCES = sorted((ROOT / "src" / "cellassoc").glob("*.py"))


def test_all_names_every_public_export_once():
    repeated = [name for name, count in Counter(cellassoc.__all__).items() if count > 1]
    assert repeated == []
    missing = [name for name in cellassoc.__all__ if not hasattr(cellassoc, name)]
    assert missing == []  # e.g. a removed type still listed
    public = {
        name
        for name, value in vars(cellassoc).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert set(cellassoc.__all__) == public
    assert not {"enumerate_feasible", "EnumerationBudgetError"} & public  # oracles of the tests
    # One-bias and one-slot forms of cre_association and slot_averaged_rates.
    assert not {"achievable_rates", "max_rssi_policy", "max_sinr_policy"} & public


def test_links_reach_the_rates_in_one_form():
    # served_links gathers what the rates read of the links, with the matching it
    # was gathered for; the rates and the run metrics take that and no other form.
    assert "served_links" in cellassoc.__all__
    for fn in (cellassoc.slot_averaged_rates, cellassoc.run_metrics):
        served = next(iter(inspect.signature(fn).parameters.values()))
        assert (served.name, served.annotation) == ("served", "ServedLinks")
        assert "matching" not in inspect.signature(fn).parameters


def test_links_carry_no_los_state():
    # The LoS states live in draw_los_slots' stack alone; the stream ids key the
    # generators, so the ids in use keep their values.
    assert "los_state" not in {f.name for f in fields(cellassoc.LinkRealization)}
    assert not hasattr(scenario, "STREAM_LINKS")
    assert (scenario.STREAM_SCENARIO, scenario.STREAM_QUOTAS, scenario.STREAM_SLOTS) == (0, 2, 3)


@pytest.mark.parametrize("metric", [cellassoc.rssi_matrix_dbm, cellassoc.sinr_matrix_db])
def test_metric_matrices_take_the_run_budget(metric):
    # The driver evaluates one link budget per run and hands it to both
    # baselines' metrics; neither evaluates a budget of its own.
    budget = inspect.signature(metric).parameters["budget"]
    assert budget.default is inspect.Parameter.empty
    sc = cellassoc.generate_scenario(cellassoc.ScenarioConfig(n_ue=3, seed=1))
    with pytest.raises(TypeError):
        metric(sc)


def test_no_public_callable_takes_a_generator():
    # Each draw keys its own generator by (seed, stream), so no caller builds
    # one to hand in. realize_links' rng is accepted and ignored. A stack's run
    # seeds are given once, where it is drawn, and the Scenario keeps them.
    takers = []
    for name in cellassoc.__all__:
        value = getattr(cellassoc, name)
        if not callable(value) or isinstance(value, type) and issubclass(value, Exception):
            continue  # an exception's signature is the builtin one
        for param in inspect.signature(value).parameters.values():
            if param.name in {"rng", "generator", "seeds"} or "Generator" in str(param.annotation):
                takers.append(f"{name}({param.name})")
    assert sorted(takers) == ["Scenario(seeds)", "generate_scenario(seeds)", "realize_links(rng)"]


def test_los_update_has_one_rule():
    # The paper's update multiplies the observation by the association
    # indicator; no switch freezes an unobserved estimate.
    assert list(inspect.signature(cellassoc.update_f).parameters) == ["prev", "k_t", "x"]
    with pytest.raises(TypeError):
        cellassoc.update_f(cellassoc.LosEstimate(), 3, 0, freeze_unobserved=True)


def _tracer_targets():
    """``TARGETS`` of ``bench/tracing.py``, read from its source without importing it."""
    tree = ast.parse((ROOT / "bench" / "tracing.py").read_text())
    (value,) = [
        node.value
        for node in tree.body
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == ["TARGETS"]
    ]
    return ast.literal_eval(value)


def test_every_traced_name_resolves():
    # The tracer skips a name it cannot find, so a renamed or deleted call
    # site would drop out of every span without failing a run.
    targets = _tracer_targets()
    assert targets
    missing = [
        f"{module}.{attr}"
        for module, attr, _ in targets
        if not hasattr(importlib.import_module(module), attr)
    ]
    assert missing == []


MATRIX_PRODUCTS = {"matmul", "dot", "vdot", "inner", "tensordot", "einsum", "multi_dot"}


def _matrix_products(tree):
    """(line, what) of every matrix product, or name of one, in a module's AST."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(node.op, ast.MatMult):
            yield node.lineno, "@"
        elif isinstance(node, ast.Attribute) and node.attr in MATRIX_PRODUCTS:
            yield node.lineno, node.attr
        elif isinstance(node, ast.Name) and node.id in MATRIX_PRODUCTS:
            yield node.lineno, node.id
        elif isinstance(node, ast.alias) and node.name in MATRIX_PRODUCTS:
            yield node.lineno, node.name


@pytest.mark.parametrize("source", SOURCES, ids=lambda p: p.name)
def test_src_makes_no_blas_call(source):
    # A matrix product goes to the BLAS, whose threads made one 200 x 200
    # matmul take 10.4 ms against 0.13 ms single-threaded on a shared 2-core host.
    assert list(_matrix_products(ast.parse(source.read_text()))) == []


def test_blas_guard_sees_each_spelling():
    code = "a @ b\na @= b\nnp.dot(a, b)\nnp.linalg.multi_dot(x)\nfrom numpy import einsum\n"
    found = [what for _, what in _matrix_products(ast.parse(code))]
    assert sorted(found) == ["@", "@", "dot", "einsum", "multi_dot"]


@pytest.mark.parametrize(
    "config",
    [
        cellassoc.PathLossParams, cellassoc.ScenarioConfig, cellassoc.PolicyConfig,
        cellassoc.ExperimentConfig, cellassoc.LosEstimate,
    ],
    ids=lambda c: c.__name__,
)
def test_field_check_knows_every_config_annotation(config):
    # A field whose annotation has no kind would pass unchecked, so a new
    # field must come with its kind in ``scenario._KINDS`` (or be a nested config).
    # Every other field is a config-file key, so its kind needs a parser too; the
    # sweep dict is the exception, its keys parse as their swept fields.
    unknown = []
    for f in fields(config):
        try:
            parse = _field_kind(f)[2]
        except (KeyError, AttributeError):  # no entry, or an annotation that is no string
            unknown.append(f"{f.name}: {f.type}")
            continue
        sweep = (config, f.name) == (cellassoc.ExperimentConfig, "sweep")
        if parse is None and not is_dataclass(f.default) and not sweep:
            unknown.append(f"{f.name}: {f.type} has no parser")
    assert unknown == []
