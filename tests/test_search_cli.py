"""Monotonic simplification, the census, and the command line."""

import json
from random import Random

import pytest

from flype.cli import cli
from flype.invariants import jones
from flype.search import all_diagrams, simplify, unknot_census
from flype.torus_core import (
    GridDiagram,
    TREFOIL5,
    UNKNOT2,
    canonical_form,
    parse,
    serialize,
)


def test_unknot2_is_already_minimal():
    report = simplify(UNKNOT2)
    assert report.min_complexity == 2
    assert report.minima == (canonical_form(UNKNOT2),)
    assert not report.budget_exceeded


def test_small_unknots_all_reach_two():
    one = jones(UNKNOT2)
    for n in (3, 4):
        for d in all_diagrams(n):
            if jones(d) != one:
                continue
            report = simplify(d)
            assert report.min_complexity == 2
            assert canonical_form(UNKNOT2) in report.minima


def test_trefoil_floor_is_five():
    # no diagram with n <= 4 has the trefoil's Jones polynomial
    jt = jones(TREFOIL5)
    for n in (2, 3, 4):
        assert all(jones(d) != jt for d in all_diagrams(n))
    report = simplify(TREFOIL5)
    assert report.min_complexity == 5


def test_budget_flag():
    stabbed = GridDiagram.make((1, 0, 2), (2, 1, 0))
    report = simplify(stabbed, budget=1)
    assert report.budget_exceeded


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_cli_budget_below_one(tmp_path, capsys, budget):
    grid = tmp_path / "u2.grid"
    grid.write_text(serialize(UNKNOT2), encoding="utf-8")
    assert cli(["simplify", "--grid", str(grid), "--budget", budget]) == 1
    assert capsys.readouterr().err.startswith("E:OutOfRangeValue:")


def test_witness_paths_are_shortest_and_valid():
    stabbed = GridDiagram.make((1, 0, 2), (2, 1, 0))
    report = simplify(stabbed)
    assert report.min_complexity == 2
    path = report.witness[report.minima[0]]
    assert path[0] == canonical_form(stabbed)
    assert path[-1] == report.minima[0]
    assert len(path) == 2  # one destabilization away


def test_simplify_with_flype_moves_runs():
    report = simplify(TREFOIL5, move_set="elem+flype")
    assert report.min_complexity == 5
    assert not report.budget_exceeded


def test_reports_are_deterministic():
    stabbed = GridDiagram.make((1, 0, 2), (2, 1, 0))
    a = json.dumps(simplify(stabbed).to_dict(), sort_keys=True)
    b = json.dumps(simplify(stabbed).to_dict(), sort_keys=True)
    assert a == b


def test_all_diagrams_counts():
    # raw counts are 2, 12, 216 (n! times the disjoint-permutation count);
    # deduplicating the torus translations leaves these classes
    assert len(all_diagrams(2)) == 1
    assert len(all_diagrams(3)) == 4
    assert len(all_diagrams(4)) == 19


def test_census_small():
    report = unknot_census(3)
    assert report["per_n"][2]["jones_trivial"] == 1
    assert report["all_simplified"]
    with pytest.raises(ValueError):
        unknot_census(6)


@pytest.mark.parametrize("n_max", [1, 0])
def test_census_rejects_n_max_below_two(n_max):
    # no diagram has grid number below 2, so the report would be vacuous
    with pytest.raises(ValueError, match="2 <= n_max <= 5"):
        unknot_census(n_max)


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

@pytest.fixture
def grid_file(tmp_path):
    path = tmp_path / "t5.grid"
    path.write_text(serialize(TREFOIL5), encoding="utf-8")
    return str(path)


def test_cli_validate_and_render(grid_file, capsys):
    assert cli(["validate", grid_file]) == 0
    assert "n=5" in capsys.readouterr().out
    assert cli(["render", grid_file]) == 0
    out = capsys.readouterr().out
    assert out.splitlines()[-1] == "X..O."


def test_cli_validate_bad_grid(tmp_path, capsys):
    bad = tmp_path / "bad.grid"
    bad.write_text("grid 2\n+ 0 1\n- 0 1\n", encoding="utf-8")
    rc = cli(["validate", str(bad)])
    err = capsys.readouterr().err
    assert rc == 1
    assert err.startswith("E:CoincidentVertices:")


def test_cli_grid_number_beyond_canonical_range(tmp_path, capsys):
    big = tmp_path / "big.grid"
    n = 256
    big.write_text(serialize(GridDiagram.make(range(n), [(j + 1) % n for j in range(n)])),
                   encoding="utf-8")
    rc = cli(["simplify", "--grid", str(big)])
    assert rc == 1
    assert capsys.readouterr().err.startswith("E:OutOfRangeValue:")


def test_cli_missing_file(capsys):
    assert cli(["validate", "/nonexistent.grid"]) == 1
    assert capsys.readouterr().err.startswith("E:Usage:")


def test_cli_moves(grid_file, capsys):
    assert cli(["moves", grid_file, "--filter", "stabilizations"]) == 0
    out = capsys.readouterr().out
    assert out and all(line.startswith("move ") for line in out.splitlines())


def test_cli_invariants(grid_file, capsys):
    assert cli(["invariants", "--grid", grid_file]) == 0
    out = capsys.readouterr().out
    assert "jones t^-1 + t^-3 - t^-4" in out


def test_cli_apply_and_decompose(tmp_path, capsys):
    grid = tmp_path / "u2.grid"
    grid.write_text(serialize(UNKNOT2), encoding="utf-8")
    annulus = tmp_path / "band.annulus"
    annulus.write_text(
        "annulus 2 winding 1 1\nB1: (1/4,0)\nB2: (-1/4,0)\n", encoding="utf-8")
    out_grid = tmp_path / "out.grid"
    assert cli(["apply", "--grid", str(grid), "--annulus", str(annulus),
                "--dir", "NE", "--out", str(out_grid)]) == 0
    flyped = parse(out_grid.read_text(encoding="utf-8"))
    assert flyped.n == 4
    log = capsys.readouterr().out
    assert "interior" in log

    assert cli(["decompose", "--grid", str(grid), "--annulus", str(annulus),
                "--dir", "NE", "--verify"]) == 0
    out = capsys.readouterr().out
    assert "certificate length 2" in out
    assert out.count("move ") == 2


def test_cli_simplify_report(tmp_path, grid_file):
    out = tmp_path / "report.json"
    assert cli(["simplify", "--grid", grid_file, "--budget", "50",
                "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["version"] == 1
    assert report["min_complexity"] == 5


def test_cli_census(tmp_path):
    out = tmp_path / "census.json"
    assert cli(["census", "--n-max", "3", "--out", str(out)]) == 0
    report = json.loads(out.read_text(encoding="utf-8"))
    assert report["all_simplified"] is True
    assert cli(["census", "--n-max", "9"]) == 1


def test_cli_invalid_annulus(tmp_path, capsys):
    grid = tmp_path / "u2.grid"
    grid.write_text(serialize(UNKNOT2), encoding="utf-8")
    annulus = tmp_path / "bad.annulus"
    annulus.write_text("annulus 2 winding 1 1\nB1: (1/4,0)\nB2: (1/4,0)\n",
                       encoding="utf-8")
    rc = cli(["apply", "--grid", str(grid), "--annulus", str(annulus), "--dir", "NE"])
    assert rc == 1
    assert capsys.readouterr().err.startswith("E:")


def test_cli_usage_error(capsys):
    assert cli(["frobnicate"]) == 1
    assert capsys.readouterr().err.startswith("E:Usage:")
