"""Every adiband name the benchmark's tracer hooks must still exist, with the same kind,
every adiband call in the benchmark's workloads must still bind to its signature,
and every adiband attribute the benchmark's own tests read must still exist.

perfbench/run.py imports perfbench/tracer.py and perfbench/workloads.py on
every run.  The tracer resolves its hooks by name (span names come from
`fn.__module__` and `fn.__name__`), and the workloads call the package's
API directly, so a rename, a move or a changed signature breaks every
benchmark run.  perfbench/test_perfbench.py reads `harness` and
`propagation` attributes, among them the `diagonalize` that `harness`
imports from `propagation`, which the tracer rebinds in both.  The three
files are parsed with `ast`, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

from adiband import harness
from adiband.harness import ExperimentConfig, PropagatorCache

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
WORKLOADS = TRACER.with_name("workloads.py")
PERFBENCH_TESTS = TRACER.with_name("test_perfbench.py")

# the adiband callables perfbench/workloads.py calls, by attribute name, and
# whether the call goes through an instance (so `self` is bound implicitly)
WORKLOAD_CALLS = {
    "full": (PropagatorCache.full, True),
    "diag": (PropagatorCache.diag, True),
    "from_json": (ExperimentConfig.from_json, False),
    "build_model": (ExperimentConfig.build_model, True),
    "build_grid": (ExperimentConfig.build_grid, True),
    "build_band": (ExperimentConfig.build_band, True),
    "eps_scan": (harness.eps_scan, False),
}

# the kind of each class attribute the tracer replaces
METHOD_KINDS = {
    ("SpectralPropagator", "apply"): "method",
    ("ExperimentConfig", "from_json"): "classmethod",
    ("ExperimentConfig", "validate"): "method",
    ("ExperimentConfig", "hitting_window"): "method",
    ("PropagatorCache", "get"): "method",
}


def _tracer_tree():
    return ast.parse(TRACER.read_text(), filename=str(TRACER))


def _assigned_tuple(name):
    for node in _tracer_tree().body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return node.value.elts
    raise AssertionError(f"{TRACER.name} assigns no {name}")


def _resolve(node):
    """`module.attr` -> (adiband module, attr), for a module the tracer imports from adiband."""
    assert isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name), ast.unparse(node)
    return importlib.import_module(f"adiband.{node.value.id}"), node.attr


def _functions():
    return [ast.unparse(node) for node in _assigned_tuple("FUNCTIONS")]


def _class_hooks():
    """(class expression, attribute) for METHODS and for every `Class.__dict__["attr"]` lookup."""
    hooks = []
    for entry in _assigned_tuple("METHODS"):
        _, cls, attr = entry.elts
        hooks.append((cls, attr.value))
    for node in ast.walk(_tracer_tree()):
        if (isinstance(node, ast.Subscript) and isinstance(node.value, ast.Attribute)
                and node.value.attr == "__dict__" and isinstance(node.slice, ast.Constant)
                and isinstance(node.value.value, ast.Attribute)):
            hooks.append((node.value.value, node.slice.value))
    unique = {(ast.unparse(cls), attr): cls for cls, attr in hooks}
    return [(cls, attr) for (_, attr), cls in unique.items()]


def _kind(raw):
    if isinstance(raw, classmethod):
        return "classmethod"
    if isinstance(raw, staticmethod):
        return "staticmethod"
    return "method" if inspect.isfunction(raw) else type(raw).__name__


def test_tracer_hooks_found():
    assert len(_functions()) >= 18
    assert len(_class_hooks()) == len(METHOD_KINDS)


@pytest.mark.parametrize("expr", _functions())
def test_traced_function_exists(expr):
    module, attr = _resolve(ast.parse(expr, mode="eval").body)
    fn = getattr(module, attr, None)
    assert inspect.isfunction(fn), f"{expr}: not a function in {module.__name__}"
    # the span name is <module>.<function>, read from the function itself
    assert (fn.__module__, fn.__name__) == (module.__name__, attr), f"{expr} moved or renamed"


@pytest.mark.parametrize(
    "cls_node, attr", _class_hooks(), ids=lambda v: v if isinstance(v, str) else ast.unparse(v)
)
def test_traced_method_exists_with_its_kind(cls_node, attr):
    module, name = _resolve(cls_node)
    cls = getattr(module, name, None)
    assert inspect.isclass(cls), f"{ast.unparse(cls_node)}: no such class"
    assert attr in vars(cls), f"{name}.{attr} is not defined on the class"
    assert (name, attr) in METHOD_KINDS, f"{name}.{attr}: state its kind in METHOD_KINDS"
    assert _kind(vars(cls)[attr]) == METHOD_KINDS[name, attr]


def _workload_calls():
    tree = ast.parse(WORKLOADS.read_text(), filename=str(WORKLOADS))
    return [node for node in ast.walk(tree)
            if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr in WORKLOAD_CALLS]


def test_workload_calls_found():
    assert {call.func.attr for call in _workload_calls()} == set(WORKLOAD_CALLS)


@pytest.mark.parametrize("call", _workload_calls(), ids=lambda call: f"line{call.lineno}-{call.func.attr}")
def test_workload_call_binds_to_current_signature(call):
    fn, via_instance = WORKLOAD_CALLS[call.func.attr]
    assert not any(isinstance(a, ast.Starred) for a in call.args) and all(k.arg for k in call.keywords)
    args = [None] * (len(call.args) + via_instance)
    inspect.signature(fn).bind(*args, **{k.arg: None for k in call.keywords})


def _perfbench_test_attributes():
    """Every `harness.` and `propagation.` attribute chain in perfbench/test_perfbench.py, as source text."""
    tree = ast.parse(PERFBENCH_TESTS.read_text(), filename=str(PERFBENCH_TESTS))
    chains = set()
    for node in ast.walk(tree):
        root = node
        while isinstance(root, ast.Attribute):
            root = root.value
        if root is not node and isinstance(root, ast.Name) and root.id in ("harness", "propagation"):
            chains.add(ast.unparse(node))
    return sorted(chains)


def test_perfbench_test_attributes_found():
    assert {"harness.diagonalize", "propagation.diagonalize", "harness.PropagatorCache"} <= set(
        _perfbench_test_attributes()
    )


@pytest.mark.parametrize("expr", _perfbench_test_attributes())
def test_perfbench_test_attribute_exists(expr):
    module, *names = expr.split(".")
    obj = importlib.import_module(f"adiband.{module}")
    for name in names:
        assert hasattr(obj, name), f"{expr}: no {name}"
        obj = getattr(obj, name)


def test_harness_diagonalize_is_propagation_diagonalize():
    from adiband import propagation

    assert harness.diagonalize is propagation.diagonalize
