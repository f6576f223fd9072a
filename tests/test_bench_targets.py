"""Every csmod name the benchmark scripts under bench/ reach exists.

The tracer patches functions and methods by name, and the workloads call
into csmod by attribute; a name deleted or renamed in csmod would stop
the benchmark only when it runs.  These tests read the bench files and
do not change them.
"""

import ast
import importlib.util
import pathlib
import re

import pytest

import csmod
import csmod.cli  # noqa: F401  (binds csmod.cli and every layer)
from csmod import orders

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
SCRIPTS = ("run.py", "tracing.py", "workloads.py")


def load_tracing():
    # tracing.py imports only the standard library
    spec = importlib.util.spec_from_file_location("bench_tracing",
                                                  BENCH / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def resolve(path):
    """The object at a dotted path under csmod, or None if one is missing."""
    obj = csmod
    for part in path:
        obj = getattr(obj, part, None)
        if obj is None:
            return None
    return obj


def dotted(node):
    """('csmod', 'orders', ...) for an attribute chain on a name, else ()."""
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return ()
    return (node.id, *reversed(parts))


def csmod_paths(tree):
    """The dotted paths under csmod of every attribute chain on csmod or
    on a name bound to one (as in ``rings, quat = csmod.rings, csmod.quat``)."""
    alias = {"csmod": ()}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
            pairs = ([(target, value)] if not isinstance(target, ast.Tuple)
                     else zip(target.elts, getattr(value, "elts", ())))
            for name, bound in pairs:
                path = dotted(bound)
                if isinstance(name, ast.Name) and path[:1] == ("csmod",):
                    alias[name.id] = path[1:]
    for node in ast.walk(tree):
        path = dotted(node)
        if isinstance(node, ast.Attribute) and path and path[0] in alias:
            yield alias[path[0]] + path[1:]


@pytest.mark.parametrize("script", SCRIPTS)
def test_bench_attribute_chains_exist(script):
    tree = ast.parse((BENCH / script).read_text(encoding="utf-8"))
    paths = set(csmod_paths(tree))
    missing = sorted(".".join(p) for p in paths if resolve(p) is None)
    assert missing == []
    if script != "run.py":
        assert paths


@pytest.mark.parametrize("script", SCRIPTS)
def test_bench_imports_exist(script):
    # the set-up probe of run.py imports from csmod inside a string
    text = (BENCH / script).read_text(encoding="utf-8")
    missing = []
    for module, names in re.findall(r"from (csmod[.\w]*) import ([\w, ]+)",
                                    text):
        path = tuple(module.split(".")[1:])
        missing += [f"{module}.{name.strip()}" for name in names.split(",")
                    if resolve(path + (name.strip(),)) is None]
    for module in re.findall(r"^\s*\"?import (csmod[.\w]*)", text, re.M):
        if resolve(tuple(module.split(".")[1:])) is None:
            missing.append(module)
    assert missing == []


def test_tracer_spans_and_counters_exist():
    tracing = load_tracing()
    missing = [f"{module}.{path}" for module, path, _ in tracing.SPANS
               if resolve((module, *path.split("."))) is None]
    for module, cls, methods, _ in tracing.COUNTERS:
        owner = resolve((module, cls))
        missing += [f"{module}.{cls}.{attr}" for attr in methods
                    if owner is None or attr not in vars(owner)]
    assert missing == []
    # and the tracer installs on them and restores every one it patched
    before = {name: dict(vars(getattr(csmod, name)))
              for name in ("cli", "csm", "modlat", "orders", "quat",
                           "rings", "series")}
    tracer = tracing.Tracer()
    tracer.install(csmod)
    tracer.remove()
    assert before == {name: dict(vars(getattr(csmod, name)))
                      for name in before}


def test_fresh_orders_can_clear_the_order_caches():
    for name in ("hurwitz", "icosian", "octahedral"):
        assert callable(getattr(orders, name).cache_clear)
