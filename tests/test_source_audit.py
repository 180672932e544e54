"""Source-level audit of the package modules."""

import ast
import importlib.util
import inspect
import os
import pathlib
import subprocess
import sys

import pytest

import flype

ROOT = pathlib.Path(__file__).resolve().parent.parent


def test_no_unused_imports():
    """Every name a module imports is referenced in that module; the package
    ``__init__`` is exempt because its imports are the public re-exports."""
    src = pathlib.Path(flype.__file__).parent
    unused = []
    for path in sorted(src.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        imported = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    imported[(alias.asname or alias.name).split(".")[0]] = node.lineno
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                for alias in node.names:
                    imported[alias.asname or alias.name] = node.lineno
        used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        unused += [f"{path.name}:{line} {name}" for name, line in imported.items()
                   if name not in used]
    assert not unused, unused


_CONTAINERS = (ast.Dict, ast.List, ast.Set, ast.DictComp, ast.ListComp, ast.SetComp)
_CONSTRUCTORS = frozenset(("dict", "list", "set", "defaultdict", "Counter", "OrderedDict"))
_MUTATORS = frozenset((
    "append", "extend", "insert", "add", "update", "setdefault", "pop", "popitem",
    "remove", "discard", "clear", "sort", "reverse", "difference_update",
    "intersection_update", "symmetric_difference_update"))


def _module_containers(tree):
    """Names a module binds at its top level to a dict, list or set."""
    names = set()
    for node in tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if isinstance(value, _CONTAINERS) or (
                isinstance(value, ast.Call) and isinstance(value.func, ast.Name)
                and value.func.id in _CONSTRUCTORS):
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return names


def mutated_module_state(source: str):
    """(line, name) for every place a module mutates one of its top-level
    dicts, lists or sets: item assignment, augmented item assignment, item
    deletion, augmented assignment to the name, or a mutating method call."""
    tree = ast.parse(source)
    names = _module_containers(tree)
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.Delete)):
            targets = node.targets
        elif isinstance(node, ast.AugAssign):
            targets = [node.target]
            if isinstance(node.target, ast.Name) and node.target.id in names:
                hits.append((node.lineno, node.target.id))
        elif (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
              and isinstance(node.func.value, ast.Name) and node.func.value.id in names
              and node.func.attr in _MUTATORS):
            hits.append((node.lineno, node.func.value.id))
            continue
        else:
            continue
        hits += [(node.lineno, t.value.id) for t in targets
                 if isinstance(t, ast.Subscript) and isinstance(t.value, ast.Name)
                 and t.value.id in names]
    return sorted(hits)


def test_no_mutated_module_state():
    """No module-level dict, list or set of the package is mutated in its
    module, so no call leaves state behind for the next one: a cache is a
    ``functools.lru_cache`` and a tally travels in the value a call returns."""
    src = pathlib.Path(flype.__file__).parent
    found = [f"{path.name}:{line} {name}" for path in sorted(src.glob("*.py"))
             for line, name in mutated_module_state(path.read_text(encoding="utf-8"))]
    assert not found, found


def test_mutated_module_state_audit_catches_each_form():
    source = ("A = {}\nB = []\nC = set()\nD = {}\nE = ()\n"
              "def f(k):\n    A[k] = 1\n    A[k] += 1\n    del A[k]\n"
              "    B.append(k)\n    B += [k]\n    C.add(k)\n    D.get(k)\n    E.count(k)\n")
    assert [name for _line, name in mutated_module_state(source)] == list("AAABBC")


def test_benchmark_trace_hooks_resolve():
    """Every ``module.fn`` and ``module.Class.method`` that the benchmark's
    tracer wraps is still a function of that name in ``flype``."""
    path = ROOT / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    missing = []
    for layer, names in spans.LAYERS.items():
        mod = importlib.import_module(f"flype.{layer}")
        for name in names:
            if "." in name:
                cls_name, meth = name.split(".")
                fn = vars(getattr(mod, cls_name, object)).get(meth)
            else:
                fn = getattr(mod, name, None)
            if not inspect.isfunction(fn):
                missing.append(f"{layer}.{name}")
    assert not missing, missing


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs(demo):
    """Each demo script runs to completion against the source tree."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)], env=env,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert "Traceback" not in proc.stderr
