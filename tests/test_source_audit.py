"""Source-level audit of the package modules."""

import ast
import importlib.util
import inspect
import pathlib

import flype


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
    path = pathlib.Path(__file__).resolve().parent.parent / "bench" / "spans.py"
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
