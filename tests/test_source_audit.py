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
