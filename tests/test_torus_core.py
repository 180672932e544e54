"""Core diagram machinery: validation, sigma maps, canonical forms, planar data."""

from fractions import Fraction as F
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from oracles import brute_canonical_form, translate
from flype.errors import (
    CoincidentVertices,
    ColumnCountMismatch,
    CutThroughVertex,
    EmptySet,
    GridSyntaxError,
    OutOfRangeValue,
    RowCountMismatch,
)
from flype.sampling import random_diagram
from flype.torus_core import (
    GridDiagram,
    Rectangle,
    TREFOIL5,
    UNKNOT2,
    apply_symmetry,
    canonical_form,
    characteristic,
    complexity,
    crossings,
    edges,
    from_characteristic,
    parse,
    render_ascii,
    serialize,
    sigma_of_rectangle,
    to_planar,
    translate_equal,
    validate_diagram,
)


def test_validate_trivial_square():
    d = validate_diagram([((0, 0), 1), ((1, 1), 1), ((0, 1), -1), ((1, 0), -1)])
    assert d == GridDiagram.make((0, 1), (1, 0))


def test_validate_column_mismatch():
    with pytest.raises((ColumnCountMismatch, RowCountMismatch)):
        validate_diagram([((0, 0), 1), ((0, 1), -1)])


def test_validate_renormalizes_rational_levels():
    pts = [((0, 0), 1), ((F(1, 2), F(1, 2)), 1), ((1, 1), 1),
           ((0, F(1, 2)), -1), ((F(1, 2), 1), -1), ((1, 0), -1)]
    assert validate_diagram(pts) == GridDiagram.make((0, 1, 2), (1, 2, 0))


def test_validate_errors():
    with pytest.raises(EmptySet):
        validate_diagram([])
    with pytest.raises(CoincidentVertices):
        validate_diagram([((0, 0), 1), ((0, 0), -1)])


def test_characteristic_values_and_line_sums():
    m = characteristic(UNKNOT2)
    assert m[(0, 0)] == 1 and m[(1, 1)] == 1
    assert m[(0, 1)] == -1 and m[(1, 0)] == -1
    for d in (UNKNOT2, TREFOIL5):
        m = characteristic(d)
        for j in range(d.n):
            assert sum(v for p, v in m.entries.items() if p.theta == j) == 0
            assert sum(v for p, v in m.entries.items() if p.phi == j) == 0


def test_characteristic_sign_flip_swaps_roles():
    m = characteristic(TREFOIL5)
    flipped = {p: -v for p, v in m.entries.items()}
    swapped = characteristic(GridDiagram.make(TREFOIL5.neg, TREFOIL5.pos))
    assert flipped == swapped.entries


def test_from_characteristic_roundtrip_and_range():
    assert from_characteristic(characteristic(UNKNOT2)) == UNKNOT2
    bad = characteristic(UNKNOT2)
    bad[(0, 0)] = 2
    with pytest.raises(OutOfRangeValue):
        from_characteristic(bad)


def test_stabilization_by_sigma_arithmetic():
    m = characteristic(UNKNOT2)
    m.add_rectangle(Rectangle.of(0, F(1, 2), 0, F(1, 2)), -1)
    assert from_characteristic(m) == GridDiagram.make((1, 0, 2), (2, 1, 0))


def test_edges_counts_and_membership():
    for d in (UNKNOT2, TREFOIL5):
        vert, horiz = edges(d)
        assert len(vert) == len(horiz) == d.n
        touched = {}
        for a, b in vert + horiz:
            touched[a] = touched.get(a, 0) + 1
            touched[b] = touched.get(b, 0) + 1
        assert all(count == 2 for count in touched.values())  # one vertical, one horizontal


def test_crossings_cardinality():
    assert crossings(UNKNOT2) == set()
    assert len(crossings(TREFOIL5)) == 15
    rng = Random(0)
    for _ in range(5):
        d = random_diagram(rng, rng.randrange(2, 7))
        assert len(crossings(d)) == d.n * d.n - 2 * d.n


def test_symmetry_involution_and_commutation():
    rng = Random(1)
    for _ in range(10):
        d = random_diagram(rng, rng.randrange(2, 6))
        for s in ("flip_theta", "flip_phi"):
            assert apply_symmetry(apply_symmetry(d, s), s) == d
        ab = apply_symmetry(apply_symmetry(d, "flip_theta"), "flip_phi")
        ba = apply_symmetry(apply_symmetry(d, "flip_phi"), "flip_theta")
        assert ab == ba == apply_symmetry(d, "both")


def test_flip_of_unknot_is_translate_equal():
    assert translate_equal(apply_symmetry(UNKNOT2, "flip_theta"), UNKNOT2)


def test_canonical_form_translation_orbits_exhaustive():
    """Constant on orbits and injective across them, all diagrams n <= 4."""
    from flype.search import all_diagrams
    for n in (2, 3, 4):
        reps = all_diagrams(n)
        seen = {}
        for d in reps:
            form = canonical_form(d)
            for a in range(n):
                for b in range(n):
                    assert canonical_form(translate(d, a, b)) == form
            assert form not in seen or seen[form] == (d.pos, d.neg)
            seen[form] = (d.pos, d.neg)
        assert len(seen) == len(reps)


def test_canonical_form_matches_all_translations_reference():
    """The n candidates with pos[0] = 0 contain the minimum over all n^2:
    one shifted member of every class with n <= 5, and random n = 8, 12."""
    from flype.search import all_diagrams
    rng = Random(8)
    cases = [translate(d, rng.randrange(n), rng.randrange(n))
             for n in (2, 3, 4, 5) for d in all_diagrams(n)]
    cases += [random_diagram(rng, n) for n in (8, 12) for _ in range(10)]
    for d in cases:
        assert canonical_form(d) == brute_canonical_form(d)


def test_canonical_form_shift_example():
    assert canonical_form(UNKNOT2) == canonical_form(GridDiagram.make((1, 0), (0, 1)))


def test_complexity():
    assert complexity(UNKNOT2) == 2
    assert complexity(TREFOIL5) == 5


def test_to_planar_unknot_and_sizes():
    planar = to_planar(UNKNOT2)
    assert len(planar.crossings) == 0
    assert planar.components == 1
    rng = Random(5)
    for _ in range(10):
        d = random_diagram(rng, rng.randrange(2, 7))
        assert len(to_planar(d).crossings) <= len(crossings(d))


def test_cut_through_vertex_rejected():
    with pytest.raises(CutThroughVertex):
        to_planar(UNKNOT2, (0, F(1, 2)))


def test_parse_serialize_roundtrip():
    text = "grid 2\n+ 0 1\n- 1 0\n"
    assert parse(text) == UNKNOT2
    assert serialize(parse(text)) == text
    assert parse("# comment\n" + text) == UNKNOT2
    for bad in ("grid x\n+ 0 1\n- 1 0\n", "grid 2\n+ 0 1\n",
                "grid 2\n+ 0 1\n- 1 0\nextra\n"):
        with pytest.raises(GridSyntaxError):
            parse(bad)
    # out-of-range rows surface as syntax or validation errors
    from flype.errors import DiagramError
    with pytest.raises((GridSyntaxError, DiagramError)):
        parse("grid 2\n+ 0 5\n- 1 0\n")


def test_render_ascii_bottom_row():
    lines = render_ascii(UNKNOT2).splitlines()
    assert lines == ["OX", "XO"]  # row 0 at the bottom
    assert render_ascii(TREFOIL5).splitlines()[-1] == "X..O."


def test_sigma_of_rectangle_pattern():
    m = sigma_of_rectangle(Rectangle.of(0, 1, 0, 1), 3)
    assert m[(0, 0)] == 1 and m[(1, 1)] == 1
    assert m[(0, 1)] == -1 and m[(1, 0)] == -1


@st.composite
def diagrams(draw, n_max=6):
    n = draw(st.integers(2, n_max))
    pos = draw(st.permutations(list(range(n))))
    shift = draw(st.integers(1, n - 1))
    neg = [(pos[j] + shift) % n for j in range(n)]
    return GridDiagram.make(pos, neg)


@settings(max_examples=40, derandomize=True)
@given(diagrams())
def test_grid_file_roundtrip_property(d):
    assert parse(serialize(d)) == d


@settings(max_examples=40, derandomize=True)
@given(diagrams(), st.integers(0, 5), st.integers(0, 5))
def test_canonical_form_translation_property(d, a, b):
    assert canonical_form(translate(d, a % d.n, b % d.n)) == canonical_form(d)
