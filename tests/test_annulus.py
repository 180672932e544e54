"""Annulus geometry: curves, membership, the r_v / bar geometry, Omega regions."""

from fractions import Fraction as F
from random import Random

import pytest

import oracles
from oracles import membership_oracle
from flype.annulus import (
    Annulus,
    INTERIOR,
    MonotoneCurve,
    ON_B1,
    ON_B2,
    OUTSIDE,
    _first_hit,
    _graphs_avoid_lattice,
    bar,
    co_rect,
    locate,
    omega_regions,
    parse_annulus,
    perturb_boundary,
    rect_in_annulus,
    rect_rv,
    serialize_annulus,
    validate_annulus,
)
from flype.errors import (
    AnnulusInvalid,
    BoundaryHitsCrossing,
    ForbiddenPair,
    NotInterior,
    Outside,
    SlopeViolation,
)
from flype.moves import enumerate_elementary
from flype.multiflype import thin_move_annulus
from flype.sampling import _staircase_points, random_annulus, random_diagram, random_flype_case
from flype.torus_core import Point, Rectangle, TREFOIL5, UNKNOT2, cyc_dist, pt, reduce_mod

DIAG = Annulus(MonotoneCurve(((F(1, 4), 0),), (1, 1), 2),
               MonotoneCurve(((F(-1, 4), 0),), (1, 1), 2), 2)


def _random_cases(seed, count, n_lo=2, n_hi=6, windings=((1, 1), (1, 2), (2, 1))):
    rng = Random(seed)
    out = []
    while len(out) < count:
        d = random_diagram(rng, rng.randrange(n_lo, n_hi + 1))
        ann = random_annulus(rng, d, rng.choice(list(windings)))
        if ann is not None:
            out.append((d, ann, rng))
    return out


def test_vertical_segment_rejected():
    with pytest.raises(SlopeViolation):
        MonotoneCurve(((0, 0), (0, 1)), (1, 1), 2)
    with pytest.raises(SlopeViolation):
        MonotoneCurve(((0, 0), (1, 0)), (1, 1), 2)


def test_crossing_counts_match_winding():
    for d, ann, rng in _random_cases(1, 6):
        p, q = ann.winding
        for curve in (ann.b1, ann.b2):
            theta = F(rng.randrange(0, 4 * d.n), 4)
            phi = F(rng.randrange(0, 4 * d.n), 4)
            assert len(curve.meridian_crossings(theta)) == p
            assert len(curve.longitude_crossings(phi)) == q


def test_thin_diagonal_annulus_is_valid_for_unknot():
    validate_annulus(DIAG, UNKNOT2)


def test_locate_basics_and_pushoff():
    assert locate(DIAG, (F(1, 4), 0)) == ON_B1
    assert locate(DIAG, (0, F(1, 4))) == ON_B2
    assert locate(DIAG, (0, 0)) == INTERIOR
    assert locate(DIAG, (0, 1)) == OUTSIDE
    # push off b1 in the (1,-1) direction leaves the annulus
    t = F(1, 100)
    assert locate(DIAG, (F(1, 4) + t, -t)) == OUTSIDE
    assert locate(DIAG, (F(1, 4) - t, t)) == INTERIOR


def test_locate_agrees_with_vertical_order_oracle():
    rng = Random(7)
    cases = _random_cases(7, 4)
    checked = 0
    for d, ann, _ in cases:
        for _ in range(2500):
            p = (F(rng.randrange(0, 8 * d.n), 8), F(rng.randrange(0, 8 * d.n), 8))
            assert locate(ann, p) == membership_oracle(ann, p)
            checked += 1
    assert checked == 10000


def test_boundary_through_crossing_rejected():
    # (1, 0) is a crossing of the trefoil diagram; run b1 through it
    assert TREFOIL5.sign_at(pt(1, 0)) == 0
    b1 = MonotoneCurve(((F(5, 4), F(1, 4)),), (1, 1), 5)  # theta - phi = 1
    b2 = MonotoneCurve(((F(3, 4), F(1, 4)),), (1, 1), 5)
    ann = Annulus(b1, b2, 5)
    with pytest.raises(BoundaryHitsCrossing):
        validate_annulus(ann, TREFOIL5)


def test_forbidden_pair_detected():
    # boundary points (1/2, 1) on b1 and (1/2, 2) on b2 share the meridian
    # theta=1/2 at two used heights without forming an edge
    b1 = MonotoneCurve(((F(1, 2), 1),), (1, 1), 3)
    b2 = MonotoneCurve(((F(1, 2), 2),), (1, 1), 3)
    ann = Annulus(b1, b2, 3)
    d = __import__("flype.torus_core", fromlist=["GridDiagram"]).GridDiagram.make(
        (0, 1, 2), (1, 2, 0))
    with pytest.raises((ForbiddenPair, BoundaryHitsCrossing)):
        validate_annulus(ann, d)


def test_rect_rv_and_bar_on_thin_diagonal():
    r = rect_rv(DIAG, (0, 0))
    assert (r.theta1, r.theta2, r.phi1, r.phi2) == (0, F(1, 4), 0, F(1, 4))
    assert bar(DIAG, (0, 0)) == Point(F(1, 4), F(1, 4))
    assert locate(DIAG, Point(r.theta2, r.phi1)) == ON_B1
    assert locate(DIAG, Point(r.theta1, r.phi2)) == ON_B2


def test_bar_bijection_and_co_rect():
    rng = Random(9)
    for d, ann, _ in _random_cases(9, 5):
        hits = 0
        while hits < 6:
            p = (F(rng.randrange(0, 8 * d.n), 8) + F(1, 32),
                 F(rng.randrange(0, 8 * d.n), 8) + F(1, 32))
            if locate(ann, p) != INTERIOR:
                continue
            hits += 1
            v = Point(reduce_mod(p[0], d.n), reduce_mod(p[1], d.n))
            w = bar(ann, v)
            rv = rect_rv(ann, v)
            co = co_rect(ann, w)
            assert Point(co.theta1, co.phi1) == v  # bar is inverted by co_rect
            assert (rv.theta1, rv.theta2, rv.phi1, rv.phi2) == \
                (co.theta1, co.theta2, co.phi1, co.phi2)
            assert rect_in_annulus(ann, rv)


def test_bar_on_boundary_by_continuity():
    for d, ann, rng in _random_cases(13, 4):
        for curve, tag in ((ann.b1, ON_B1), (ann.b2, ON_B2)):
            (x1, y1), (x2, y2) = curve.segments()[0]
            p = Point(reduce_mod((x1 + x2) / 2, d.n), reduce_mod((y1 + y2) / 2, d.n))
            assert locate(ann, p) == tag
            image = bar(ann, p)
            if tag == ON_B1:
                assert locate(ann, image) == ON_B2 and image.theta == p.theta
            else:
                assert locate(ann, image) == ON_B1 and image.phi == p.phi


def test_bar_same_meridian_pairs_share_longitude():
    # v, w interior on one meridian arc map to one longitude
    for d, ann, rng in _random_cases(17, 4):
        found = 0
        tries = 0
        while found < 3 and tries < 400:
            tries += 1
            theta = F(rng.randrange(0, 8 * d.n), 8) + F(1, 64)
            lo = F(rng.randrange(0, 8 * d.n), 8)
            v = Point(reduce_mod(theta, d.n), reduce_mod(lo, d.n))
            w = Point(reduce_mod(theta, d.n), reduce_mod(lo + F(1, 128), d.n))
            if locate(ann, v) != INTERIOR or locate(ann, w) != INTERIOR:
                continue
            # same meridian arc: their upward rays end on the same b2 point set
            bv, bw = bar(ann, v), bar(ann, w)
            if rect_rv(ann, v).phi2 == rect_rv(ann, w).phi2:
                assert bv.phi == bw.phi
                found += 1


def test_outside_raises():
    with pytest.raises(Outside):
        bar(DIAG, (0, 1))
    with pytest.raises(NotInterior):
        rect_rv(DIAG, (0, 1))


def test_omega_regions_structure():
    om = omega_regions(DIAG, (F(1, 2), F(3, 8)))
    v = Point(F(1, 2), F(3, 8))
    assert om.in_omega(v) and om.on_boundary_star(v)
    assert om.in_rv(v)
    # Delta+ misses b1 and Delta- misses b2 (sampled)
    rng = Random(21)
    for d, ann, _ in _random_cases(21, 3):
        u0 = None
        tries = 0
        while u0 is None and tries < 300:
            tries += 1
            p = (F(rng.randrange(0, 8 * d.n), 8) + F(1, 32),
                 F(rng.randrange(0, 8 * d.n), 8) + F(1, 32))
            if locate(ann, p) == INTERIOR:
                u0 = Point(reduce_mod(p[0], d.n), reduce_mod(p[1], d.n))
        om = omega_regions(ann, u0)
        for curve, check in ((ann.b1, om.in_delta_plus), (ann.b2, om.in_delta_minus)):
            for (x1, y1), (x2, y2) in curve.segments():
                for f in (F(1, 3), F(2, 3)):
                    p = Point(reduce_mod(x1 + f * (x2 - x1), d.n),
                              reduce_mod(y1 + f * (y2 - y1), d.n))
                    assert not check(p)


def test_omega_membership_against_polygon_oracle():
    from oracles import omega_polygon_oracle
    rng = Random(23)
    checked = 0
    for d, ann, _ in _random_cases(23, 3):
        u0 = None
        tries = 0
        while u0 is None and tries < 300:
            tries += 1
            p = (F(rng.randrange(0, 8 * d.n), 8) + F(1, 32),
                 F(rng.randrange(0, 8 * d.n), 8) + F(1, 32))
            if locate(ann, p) == INTERIOR:
                u0 = Point(reduce_mod(p[0], d.n), reduce_mod(p[1], d.n))
        om = omega_regions(ann, u0)
        poly = omega_polygon_oracle(om)
        for _ in range(1200):
            p = Point(F(rng.randrange(0, 16 * d.n), 16), F(rng.randrange(0, 16 * d.n), 16))
            assert om.in_omega(p) == poly(p), (p, u0)
            checked += 1
    assert checked >= 3000


def test_boundary_star_bar_identity():
    # u in d*Omega_v iff bar(u) in d*Omega_{bar(v)}
    for d, ann, rng in _random_cases(27, 3):
        u0 = None
        tries = 0
        while u0 is None and tries < 300:
            tries += 1
            p = (F(rng.randrange(0, 8 * d.n), 8) + F(1, 32),
                 F(rng.randrange(0, 8 * d.n), 8) + F(1, 32))
            if locate(ann, p) == INTERIOR:
                u0 = Point(reduce_mod(p[0], d.n), reduce_mod(p[1], d.n))
        om = omega_regions(ann, u0)
        om_bar = omega_regions(ann, om.v_bar)
        (tstart, _), (rstart, _) = om.boundary_star_segments()
        for f in (F(1, 5), F(1, 2), F(4, 5)):
            u = Point(reduce_mod(tstart.theta + f * cyc_dist(tstart.theta, u0.theta, d.n), d.n),
                      u0.phi)
            if locate(ann, u) == INTERIOR:
                assert om.on_boundary_star(u)
                assert om_bar.on_boundary_star(bar(ann, u))


def test_perturb_with_everything_kept_is_identity():
    for d, ann, rng in _random_cases(31, 2):
        theta = F(rng.randrange(0, 4 * d.n), 4) + F(1, 16)
        keep = set()
        for curve in (ann.b1, ann.b2):
            keep.update(Point(reduce_mod(theta, d.n), h)
                        for h in curve.meridian_crossings(theta))
        out = perturb_boundary(ann, theta, keep, d)
        assert out.b1.breakpoints == ann.b1.breakpoints
        assert out.b2.breakpoints == ann.b2.breakpoints


def test_perturb_moves_crossings_and_preserves_bars():
    moved = 0
    for d, ann, rng in _random_cases(33, 4):
        theta = F(rng.randrange(0, 4 * d.n), 4) + F(1, 16)
        before = sorted(ann.b1.meridian_crossings(theta)
                        + ann.b2.meridian_crossings(theta))
        out = perturb_boundary(ann, theta, set(), d)
        after = sorted(out.b1.meridian_crossings(theta)
                       + out.b2.meridian_crossings(theta))
        assert len(before) == len(after)
        if before != after:
            moved += 1
        for v, _s in d.vertices():
            side = locate(ann, v)
            assert locate(out, v) == side
            if side == INTERIOR:
                assert rect_rv(out, v) == rect_rv(ann, v)
    assert moved >= 3


def test_annulus_serialization_roundtrip():
    for d, ann, _ in _random_cases(37, 3):
        text = serialize_annulus(ann)
        back = parse_annulus(text)
        assert back.b1.breakpoints == ann.b1.breakpoints
        assert back.b2.breakpoints == ann.b2.breakpoints
        assert back.winding == ann.winding
        assert serialize_annulus(back) == text


def test_intersecting_curves_rejected():
    b1 = MonotoneCurve(((0, 0),), (1, 1), 2)
    b2 = MonotoneCurve(((F(1, 2), 0),), (1, 1), 2)  # crosses b1 on the torus?
    # parallel diagonals never meet; build a genuinely crossing pair instead
    c1 = MonotoneCurve(((0, 0), (F(1, 2), F(5, 4))), (1, 1), 2)
    c2 = MonotoneCurve(((0, F(1, 8)),), (1, 1), 2)
    from flype.annulus import curves_disjoint
    if curves_disjoint(c1, c2):
        pytest.skip("construction failed to cross")
    with pytest.raises(AnnulusInvalid):
        Annulus(c1, c2, 2)


def _kernel_cases():
    """Seeded flype annuli, twice-perturbed copies of them (D up to about
    1e14) and thin bands around elementary moves."""
    rng = Random(15)
    out = []
    for _ in range(5):
        d, spec = random_flype_case(rng, n_max=8)
        ann = spec.annulus
        theta = F(rng.randrange(0, 4 * d.n), 4) + F(1, 16)
        once = perturb_boundary(ann, theta, set(), d)
        moves = enumerate_elementary(d, "all")
        out += [(ann, rng), (perturb_boundary(once, theta + F(3, 7), set(), d), rng),
                (thin_move_annulus(d, moves[len(moves) // 2].rect), rng)]
    return out


def test_integer_kernel_matches_fraction_reference():
    """The scaled-integer curve queries and ray cast give exactly the values
    of the segment-by-segment Fraction computations in ``oracles``."""
    big_d = 0
    for ann, rng in _kernel_cases():
        eighths = int(8 * ann.circumference)
        big_d = max(big_d, ann.b1._table[0], ann.b2._table[0])
        points = [(F(rng.randrange(eighths), den), F(rng.randrange(eighths), den))
                  for den in (8, 8, 7, 3072)]
        for curve in ann.b1, ann.b2:
            points += rng.sample(curve.breakpoints, 2)
            theta = F(rng.randrange(eighths), 8)
            points += [(theta, h) for h in oracles.ref_meridian_crossings(curve, theta)]
        for p in points:
            for curve in ann.b1, ann.b2:
                assert curve.y_at(p[0]) == oracles.ref_y_at(curve, p[0])
                assert curve.x_lifts_of(p[0]) == oracles.ref_x_lifts_of(curve, p[0])
                assert curve.lift_of(p) == oracles.ref_lift_of(curve, p)
                assert curve.contains_point(p) == oracles.ref_contains_point(curve, p)
                assert (curve.meridian_crossings(p[0])
                        == oracles.ref_meridian_crossings(curve, p[0]))
                assert (curve.longitude_crossings(p[1])
                        == oracles.ref_longitude_crossings(curve, p[1]))
            for direction in (1, 0), (-1, 0), (0, 1), (0, -1), (1, -1), (-1, 1):
                assert (_first_hit(ann, p, direction)
                        == oracles.ref_first_hit(ann, p, direction))
    assert big_d > 10 ** 12


def _curve(pts, winding, c, dx=0, dy=0):
    return MonotoneCurve(tuple((x + dx, y + dy) for x, y in pts), winding, c)


def _touching_pairs():
    """Hand-built (low, high) pairs on C = 2 whose difference d(x) =
    high(x) - low(x) reaches a multiple of C exactly, from below or from
    above, at a kink of both curves, at a kink of one curve inside a segment
    of the other, or along a whole segment; and two near misses."""
    line = ((0, 0),)
    pairs = [
        (line, ((0, F(3, 2)), (1, 3))),              # from below, high kink
        (line, ((0, F(5, 2)), (1, 3))),              # from above, high kink
        (((0, 0), (1, 1)), ((0, F(3, 2)), (1, 3))),  # at a kink of both
        (((0, 0), (1, F(1, 2))), ((0, F(3, 2)),)),   # from below, low kink
        (((0, 0), (1, F(3, 2))), ((0, F(1, 2)),)),   # from above, low kink
        (((0, 0), (1, 1)), ((0, F(5, 4)), (F(1, 2), F(5, 2)), (1, 3))),  # along a piece
        (line, ((0, F(3, 2)), (1, 3 - F(1, 1000)))),  # near miss below
        (line, ((0, F(5, 2)), (1, 3 + F(1, 1000)))),  # near miss above
    ]
    return [(MonotoneCurve(lo, (1, 1), 2), MonotoneCurve(hi, (1, 1), 2)) for lo, hi in pairs]


def _lattice_cases():
    """(kind, low, high) curve pairs: the two boundaries of seeded annulus
    draws for windings (1,1), (1,2) and (2,1), both the translated kind and
    the kind routed through a diagram vertex (built the way
    ``random_annulus`` builds them, before any check), two through-vertex
    curves sharing their vertex, twice-perturbed boundaries with large D,
    and the hand-built touches."""
    rng = Random(23)
    out = []
    for winding in (1, 1), (1, 2), (2, 1):
        p, q = winding
        for _ in range(12):
            n = rng.randrange(2, 7)
            d = random_diagram(rng, n)
            v, _s = rng.choice(d.vertices())
            width = F(rng.randrange(1, 4), 8)
            centers = [_staircase_points(rng, n, p, q) for _ in range(2)]
            if any(len(pts) < 2 for pts in centers):
                continue
            pts = centers[0]
            b1 = _curve(pts, winding, n, width, -width)
            b2 = _curve(pts, winding, n, -width, width)
            offs = [MonotoneCurve(tuple(c_pts), winding, n).y_at(v.theta) - v.phi
                    for c_pts in centers]
            t1, t2 = (_curve(c_pts, winding, n, 0, -off) for c_pts, off in zip(centers, offs))
            t1_up = _curve(pts, winding, n, -2 * width, 2 * width - offs[0])
            out += [("translates", lo, hi) for lo, hi in
                    ((b1, b2), (b2, b1), (b1, b1), (b2, b2))]
            out += [("through-vertex", t1, t1_up),
                    ("through-vertex", t1_up, t1),
                    ("shared vertex", t1, t2)]
    for ann, _rng in _kernel_cases():
        out += [("perturbed", lo, hi) for lo, hi in
                ((ann.b1, ann.b2), (ann.b2, ann.b1), (ann.b1, ann.b1))]
    out += [("touch", lo, hi) for lo, hi in _touching_pairs()]
    return out


def test_lattice_check_matches_fraction_reference():
    """The integer embedding and disjointness check agrees with the
    kink-by-kink Fraction check of ``oracles``, and every kind of pair
    reaches both answers; ``kinks_between`` agrees too, on windows that
    start or end on a kink."""
    seen = set()
    for kind, low, high in _lattice_cases():
        for skip in (False, True):
            got = _graphs_avoid_lattice(low, high, skip)
            assert got == oracles.ref_graphs_avoid_lattice(low, high, skip), (kind, low, skip)
        seen.add((kind, _graphs_avoid_lattice(low, high, False)))
        x = low.breakpoints[-1][0]
        for lo, hi in ((x, x + 3), (x - F(5, 7), x), (x + F(1, 3), x + F(1, 3))):
            assert low.kinks_between(lo, hi) == oracles.ref_kinks_between(low, lo, hi)
    kinds = ("translates", "through-vertex", "shared vertex", "perturbed", "touch")
    assert seen == {(kind, got) for kind in kinds for got in (True, False)} - {
        ("shared vertex", True)}
    touches = [_graphs_avoid_lattice(lo, hi, False) for lo, hi in _touching_pairs()]
    assert touches == [False] * 6 + [True] * 2


def _containment_cases():
    """(kind, annulus, rectangle) over the kernel annuli: rectangles that
    wrap the torus, with a side on a boundary kink, with a corner on a
    boundary point, r_v and r^v themselves, and degenerate ones whose width
    or height reduces to 0 (a side of length C)."""
    out = []
    for ann, rng in _kernel_cases():
        c = ann.circumference

        def size():
            return c * F(rng.randrange(1, 64), 64) / rng.choice((1, 8, 64))

        def spot():
            return c * F(rng.randrange(256), 256) + F(1, 1024)

        def box(t1, f1, w, h):
            return Rectangle.of(t1, t1 + w, f1, f1 + h)

        for _ in range(40):
            w, h = size(), size()
            out.append(("wrap", ann, box(c - w * F(rng.randrange(1, 8), 8),
                                         c - h * F(rng.randrange(1, 8), 8), w, h)))
            # a kink's theta as the left or right side, or its phi as the
            # bottom or top
            x, y = rng.choice(rng.choice((ann.b1, ann.b2)).breakpoints)
            t1, f1 = spot(), spot()
            side = rng.randrange(4)
            out.append(("kink side", ann, box((x, x - w, t1, t1)[side],
                                              (f1, f1, y, y - h)[side], w, h)))
            # a boundary kink or meridian crossing at one of the four corners
            curve = rng.choice((ann.b1, ann.b2))
            px, py = rng.choice(curve.breakpoints)
            if rng.random() < 0.5:
                px = spot()
                py = rng.choice(curve.meridian_crossings(px))
            corner = rng.randrange(4)
            out.append(("corner", ann, box(px - w if corner in (1, 2) else px,
                                           py - h if corner in (2, 3) else py, w, h)))
            v = (spot(), spot())
            if locate(ann, v) == INTERIOR:
                out.append(("r_v", ann, rng.choice((rect_rv, co_rect))(ann, v)))
            w, h = rng.choice(((c, h), (w, c), (c, c)))
            out.append(("degenerate", ann, box(spot(), spot(), w, h)))
    return out


def test_rect_in_annulus_matches_segment_walk():
    """The branch test on the curve tables agrees with the lattice-copy
    segment walk of ``oracles.ref_rect_in_annulus``, and every kind of
    rectangle but r_v reaches both answers."""
    seen = set()
    for kind, ann, rect in _containment_cases():
        got = rect_in_annulus(ann, rect)
        assert got == oracles.ref_rect_in_annulus(ann, rect), (kind, rect)
        seen.add((kind, got))
    kinds = ("wrap", "kink side", "corner", "degenerate")
    assert seen == {(kind, got) for kind in kinds for got in (True, False)} | {("r_v", True)}
