"""Multiflypes: the defining sum, inverses, conjugation, realization of moves."""

import importlib
from fractions import Fraction as F
from random import Random

import pytest

import oracles
from flype.annulus import (
    Annulus,
    INTERIOR,
    MonotoneCurve,
    locate,
    negate_annulus,
    parse_annulus,
    perturb_boundary,
    rect_rv,
    validate_annulus,
)
from flype.decompose import decompose_with_trace
from flype.errors import (
    AnnulusInvalid,
    BoundaryHitsCrossing,
    FlypeError,
    ForbiddenPair,
    SlopeViolation,
)
from flype.invariants import jones
from flype.moves import ElementaryMove, apply_elementary, classify, enumerate_elementary
from flype.multiflype import (
    MultiflypeSpec,
    apply_multiflype,
    apply_multiflype_map,
    flype_sum_map,
    inverse_spec,
    realize_elementary,
    replacement_log,
    thin_move_annulus,
)
from flype.sampling import random_diagram, random_flype_case
from flype.search import _flype_neighbors, _staircase_family
from flype.torus_core import (
    GridDiagram,
    Point,
    Rectangle,
    SignedPointMap,
    TREFOIL5,
    UNKNOT2,
    apply_symmetry,
    characteristic,
    cyc_dist,
    from_characteristic,
    map_symmetry,
    reduce_mod,
)

DIAG = Annulus(MonotoneCurve(((F(1, 4), 0),), (1, 1), 2),
               MonotoneCurve(((F(-1, 4), 0),), (1, 1), 2), 2)
STAB = ElementaryMove(Rectangle.of(0, F(1, 2), 0, F(1, 2)), 1)


def test_vertex_free_annulus_is_identity():
    # a thin diagonal band through no vertex of unknot2 at all
    b1 = MonotoneCurve(((F(3, 4), 0),), (1, 1), 2)
    b2 = MonotoneCurve(((F(1, 4), 0),), (1, 1), 2)
    ann = Annulus(b1, b2, 2)
    assert all(locate(ann, v) == "outside" for v, _s in UNKNOT2.vertices())
    assert apply_multiflype(UNKNOT2, MultiflypeSpec(ann, "NE")) == UNKNOT2


def test_one_interior_vertex_equals_elementary_move():
    spec = realize_elementary(UNKNOT2, STAB, "direct")
    assert spec is not None and spec.direction == "NE"
    assert apply_multiflype(UNKNOT2, spec) == apply_elementary(UNKNOT2, STAB)


def test_inverse_spec_involution_and_roundtrip():
    spec = MultiflypeSpec(DIAG, "NE")
    assert inverse_spec(inverse_spec(spec)) == spec
    m = characteristic(UNKNOT2)
    fwd = apply_multiflype_map(m, spec)
    assert apply_multiflype_map(fwd, inverse_spec(spec)) == m


def test_roundtrip_randomized():
    rng = Random(101)
    for _ in range(80):
        d, spec = random_flype_case(rng, n_max=6)
        m = characteristic(d)
        fwd = apply_multiflype_map(m, spec)
        back = apply_multiflype_map(fwd, inverse_spec(spec))
        assert back == m
        assert from_characteristic(back) == d


def test_sum_lands_in_diagram_range():
    # the computed sigma' has values in {-1,0,1} with <= 2 nonzeros per line
    rng = Random(103)
    for _ in range(40):
        d, spec = random_flype_case(rng, n_max=6)
        out = apply_multiflype_map(characteristic(d), spec)
        lines_t, lines_f = {}, {}
        for p, v in out.entries.items():
            assert v in (-1, 1)
            lines_t.setdefault(p.theta, []).append(v)
            lines_f.setdefault(p.phi, []).append(v)
        assert all(len(vs) == 2 for vs in lines_t.values())
        assert all(len(vs) == 2 for vs in lines_f.values())


def test_jones_preserved_all_directions():
    rng = Random(107)
    seen = set()
    for _ in range(60):
        d, spec = random_flype_case(rng, n_max=6)
        seen.add(spec.direction)
        assert jones(from_characteristic(
            apply_multiflype_map(characteristic(d), spec))) == jones(d)
    assert seen == {"NE", "NW", "SW", "SE"}


def test_nw_is_flip_conjugated_ne():
    # exact on characteristic maps; independent renormalizations of the two
    # sides can differ by a torus translation, never more
    from flype.torus_core import translate_equal
    rng = Random(109)
    count = 0
    while count < 15:
        d, spec = random_flype_case(rng, n_max=5)
        if spec.direction != "NW":
            continue
        count += 1
        nw_map = apply_multiflype_map(characteristic(d), spec)
        ne_map = apply_multiflype_map(
            map_symmetry(characteristic(d), "flip_theta"),
            MultiflypeSpec(spec.annulus, "NE"))
        assert nw_map == map_symmetry(ne_map, "flip_theta")
        via_nw = apply_multiflype(d, spec)
        flipped = apply_symmetry(d, "flip_theta")
        via_ne = apply_symmetry(
            apply_multiflype(flipped, MultiflypeSpec(spec.annulus, "NE")), "flip_theta")
        assert translate_equal(via_nw, via_ne)


def test_sw_is_point_reflection_conjugated_ne():
    rng = Random(113)
    count = 0
    while count < 15:
        d, spec = random_flype_case(rng, n_max=5)
        if spec.direction != "SW":
            continue
        count += 1
        sw_map = apply_multiflype_map(characteristic(d), spec)
        ne_map = apply_multiflype_map(
            map_symmetry(characteristic(d), "both"),
            MultiflypeSpec(negate_annulus(spec.annulus), "NE"))
        assert sw_map == map_symmetry(ne_map, "both")
        from flype.torus_core import translate_equal
        via_sw = apply_multiflype(d, spec)
        both = apply_symmetry(d, "both")
        via_ne = apply_symmetry(
            apply_multiflype(both, MultiflypeSpec(negate_annulus(spec.annulus), "NE")),
            "both")
        assert translate_equal(via_sw, via_ne)


def test_boundary_arc_rules_emerge_from_the_sum():
    """At a b1 point whose maximal horizontal arc holds two or no vertices the
    diagram is unchanged; one vertex adds or removes per the prose rules."""
    from flype.annulus import _first_hit
    rng = Random(127)
    checked_rules = set()
    for _ in range(60):
        d, spec = random_flype_case(rng, n_max=5)
        if spec.direction != "NE":
            continue
        m = characteristic(d)
        out = flype_sum_map(m, spec.annulus)
        c = m.circumference
        points = set()
        for p in list(m.entries) + list(out.entries):
            if spec.annulus.b1.contains_point(p):
                points.add(p)
        for v in m.entries:
            if locate(spec.annulus, v) == INTERIOR:
                r = rect_rv(spec.annulus, v)
                points.add(Point(r.theta2, r.phi1).reduced(c))
        for p in points:
            if not spec.annulus.b1.contains_point(p):
                continue
            _tag, entry, _t = _first_hit(spec.annulus, p, (-1, 0))
            arc_len = cyc_dist(entry.theta, p.theta, c)
            inside = [v for v in m.entries
                      if v.phi == p.phi and locate(spec.annulus, v) == INTERIOR
                      and 0 < cyc_dist(entry.theta, v.theta, c) < arc_len]
            if len(inside) in (0, 2):
                assert out[p] == m[p]
                checked_rules.add(len(inside))
            elif len(inside) == 1:
                if m[p] != 0:
                    assert out[p] == 0
                    checked_rules.add("removed")
                else:
                    assert out[p] == m[inside[0]]
                    checked_rules.add("added")
    assert {0, "added"} <= checked_rules


def test_realize_exchange_both_slopes():
    for move in enumerate_elementary(TREFOIL5, "exchanges")[:4]:
        direct = realize_elementary(TREFOIL5, move, "direct")
        reflected = realize_elementary(TREFOIL5, move, "reflected")
        assert direct is not None and reflected is not None
        assert direct.direction in ("NE", "SW")
        assert reflected.direction in ("NW", "SE")
        expected = apply_elementary(TREFOIL5, move)
        assert apply_multiflype(TREFOIL5, direct) == expected
        assert apply_multiflype(TREFOIL5, reflected) == expected


def test_realize_stabilization_exactly_one_slope():
    rng = Random(131)
    for _ in range(5):
        d = random_diagram(rng, rng.randrange(2, 6))
        for move in enumerate_elementary(d, "stabilizations")[:5]:
            direct = realize_elementary(d, move, "direct")
            reflected = realize_elementary(d, move, "reflected")
            assert (direct is None) != (reflected is None)
            spec = direct or reflected
            assert apply_multiflype(d, spec) == apply_elementary(d, move)
            validate_annulus(spec.annulus,
                             d if spec.direction in ("NE", "SW")
                             else apply_symmetry(d, "flip_theta"))


def test_realized_band_has_one_interior_vertex():
    spec = realize_elementary(UNKNOT2, STAB, "direct")
    frame = UNKNOT2
    inside = [v for v, _s in frame.vertices()
              if locate(spec.annulus, v) == INTERIOR]
    assert inside == [Point(F(0), F(0))]


def test_replacement_log_interior_and_boundary_vertices():
    # b1 runs through both negative vertices; the positive ones are interior
    band = parse_annulus("annulus 2 winding 1 1\nB1: (1,0)\nB2: (-1/2,0)\n")
    kept = ["boundary (0,1) sign -1 on on_b1 (kept by the sum)",
            "boundary (1,0) sign -1 on on_b1 (kept by the sum)"]
    for direction, lines in (("NE", ["interior (0,0) sign +1 -> (1,1/2) sign -1", *kept,
                                     "interior (1,1) sign +1 -> (0,3/2) sign -1"]),
                             ("SW", ["interior (0,0) sign +1 -> (3/2,1) sign -1", *kept,
                                     "interior (1,1) sign +1 -> (1/2,0) sign -1"])):
        spec = MultiflypeSpec(band, direction)
        assert replacement_log(UNKNOT2, spec) == (apply_multiflype(UNKNOT2, spec), lines)


def test_thin_band_retries_only_geometric_failures(monkeypatch):
    multiflype = importlib.import_module("flype.multiflype")
    build = multiflype._build_band
    calls = []

    def flaky(*args):
        calls.append(args)
        if len(calls) == 1:
            raise SlopeViolation("too wide")
        return build(*args)

    monkeypatch.setattr(multiflype, "_build_band", flaky)
    validate_annulus(thin_move_annulus(UNKNOT2, STAB.rect), UNKNOT2)
    assert len(calls) == 2  # retried with half the epsilon

    def broken(*args):
        calls.append(args)
        raise KeyError("a bug, not geometry")

    calls.clear()
    monkeypatch.setattr(multiflype, "_build_band", broken)
    with pytest.raises(KeyError):
        thin_move_annulus(UNKNOT2, STAB.rect)
    assert len(calls) == 1


def test_direction_validation():
    with pytest.raises(ValueError):
        MultiflypeSpec(DIAG, "UP")


def _outcome(fn, *args):
    try:
        return "ok", fn(*args)
    except FlypeError as err:
        return type(err), str(err)


def test_integer_flype_and_validation_match_fraction_references():
    """validate_annulus, apply_multiflype and the search's flype neighbours
    agree with their Fraction references: equal results, or the same error
    type and message."""
    outcomes = set()

    def same_validation(ann, m):
        got = _outcome(validate_annulus, ann, m)
        assert got == _outcome(oracles.ref_validate_annulus, ann, m)
        outcomes.add(got[0])

    def same_flypes(d, ann):
        for direction in ("NE", "NW", "SW", "SE"):
            spec = MultiflypeSpec(ann, direction)
            assert (_outcome(apply_multiflype, d, spec)
                    == _outcome(oracles.ref_apply_multiflype, d, spec))
        same_validation(ann, characteristic(d))
        same_validation(ann, map_symmetry(characteristic(d), "flip_theta"))

    rng = Random(211)
    for _ in range(20):
        d, spec = random_flype_case(rng, n_max=6)
        same_flypes(d, spec.annulus)
        theta = F(rng.randrange(0, 4 * d.n), 4) + F(1, 16)
        same_flypes(d, perturb_boundary(spec.annulus, theta, set(), d))
    for d in (UNKNOT2, TREFOIL5, random_diagram(rng, 4)):
        for move in enumerate_elementary(d, "all")[::7]:
            same_flypes(d, thin_move_annulus(d, move.rect))

    # every staircase annulus of the search, which reaches the crossing check
    # and both forbidden-pair checks
    for n in range(3, 7):
        for _ in range(3):
            d = random_diagram(rng, n)
            for ann in _staircase_family(n):
                same_validation(ann, characteristic(d))
            assert _flype_neighbors(d) == oracles.ref_flype_neighbors(d)

    # the rational maps of the decomposition, against every annulus it used
    for _ in range(4):
        d, spec = random_flype_case(rng, n_max=5, require_interior=True)
        _cert, trace = decompose_with_trace(d, spec)
        for m in trace.maps:
            for ann in set(trace.annuli):
                same_validation(ann, m)
    same_validation(DIAG, characteristic(TREFOIL5))  # circumference mismatch
    same_validation(DIAG, SignedPointMap(2, {Point(F(0), F(0)): 1}))  # not a diagram

    # d is the NE image of a map on which this annulus is strictly valid; the
    # SW flype of d fails validation and is accepted by the relaxed route
    d = GridDiagram.make((0, 1, 3, 2), (1, 2, 0, 3))
    ann = parse_annulus("annulus 4 winding 1 1\nB1: (2,3/2) (3,2) (4,4)\n"
                        "B2: (0,3/2) (2,3)\n")
    same_flypes(d, ann)
    assert apply_multiflype(d, MultiflypeSpec(ann, "SW")) == GridDiagram.make(
        (1, 2, 0), (2, 0, 1))
    assert {"ok", BoundaryHitsCrossing, ForbiddenPair, AnnulusInvalid} <= outcomes
