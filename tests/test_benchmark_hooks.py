"""Every adiband name the benchmark's tracer hooks must still exist, with the same kind.

perfbench/run.py imports perfbench/tracer.py on every run, and the tracer
resolves its hooks by name (span names come from `fn.__module__` and
`fn.__name__`), so a rename or move breaks every benchmark run.  The tracer
is parsed with `ast`, not imported.
"""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"

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
