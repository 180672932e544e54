"""Smoke test of the benchmark: every workload at tiny size, plain and traced.

    python3 -m pytest bench/test_smoke.py

Kept out of the package's own test suite: the benchmark gates no test run.
"""

import importlib
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import spans  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _run(workload, trace, cwd=ROOT):
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", "3",
           "--seconds", "0", "--trace", str(trace), "--size", "tiny"]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def _parse(proc):
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    table = {line.split()[1]: line.split()[2:] for line in lines[:-2]}
    return table, json.loads(lines[-2]), json.loads(lines[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_workload_prints_every_metric_and_checks_outputs(workload):
    table, meta, plain = _parse(_run(workload, 0))
    traced_table, traced_meta, traced = _parse(_run(workload, 1))

    for result, kind in ((plain, "end_to_end"), (traced, "per_layer")):
        names = [m["name"] for m in SPEC[kind]]
        assert list(result["metrics"]) == names
        for m in SPEC[kind]:
            assert result["metrics"][m["name"]]["unit"] == m["unit"]
    for m in SPEC["end_to_end"]:
        assert plain["metrics"][m["name"]]["value"] > 0
        assert table[m["name"]][1] == m["unit"]
    for m in SPEC["per_layer"]:
        assert traced_table[m["name"]][1] == m["unit"]

    for t, result in ((table, plain), (traced_table, traced)):
        assert t["error_rate"] == ["0", "ratio"]
        assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert len(meta["digest"]) == 1
    assert traced_meta["digest"] == meta["digest"]


def test_tracer_replaces_every_binding_and_restores_it():
    annulus = importlib.import_module("flype.annulus")
    decompose = importlib.import_module("flype.decompose")
    package = importlib.import_module("flype")
    locate, y_at = annulus.locate, annulus.MonotoneCurve.y_at
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert annulus.locate is not locate
        assert decompose.locate is annulus.locate is package.locate
        assert annulus.MonotoneCurve.y_at is not y_at
        package.jones(package.UNKNOT2)
    finally:
        tracer.remove()
    assert decompose.locate is locate and package.locate is locate
    assert annulus.MonotoneCurve.y_at is y_at
    report = tracer.report()
    assert report["invariants.jones.calls"] == 1
    assert report["invariants.kauffman_bracket.calls"] == 1
    assert report["invariants.self_ms"] >= report["invariants.jones.self_ms"]


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run("census", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
