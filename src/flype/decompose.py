"""Certified decomposition of a multiflype into elementary moves.

This is the constructive content of the isotopy theorem: every multiflype
factors into elementary moves performed inside its annulus, meaning each move
rectangle lies in the annulus and meets the current diagram only in corners.

Pick a basepoint u0 interior to the annulus, off every used level, with
bar(u0) also off every used level, and let Omega be the swept lens between
the two L-shaped fronts through u0 and u1 = bar(u0).

* Base case (no vertex in Omega off the boundary): slide u backward from u0,
  both coordinates strictly decreasing, through the corridor
  A \\ (dA u Omega) to u1.  Each time a vertex first appears on the active
  front (the two edges of r^{u_t} adjacent to u_t) it is flyped by the single
  move with rectangle r_v; when two vertices appear together they form an
  edge on one arm and the one nearer u_t goes first.
* Induction step: flype the vertex of Omega closest to u1 out of Omega by one
  move r(eps), split into three cases by region (inside r_{u0}; in Delta-;
  in Delta+, which transposes to Delta-), perturbing the boundary near the
  fresh meridian when condition 3 would otherwise break for the new diagram.
  Recurse, then close with the conjugated rectangle bar(r): the flyped
  diagrams differ by exactly that one move.

Every epsilon is an exact rational found by a deterministic shrink loop, and
every claim of the proof (the measure drops by exactly one, perturbation does
not change the flype or the basepoint geometry, each emitted move is legal
and inside its annulus) is re-checked at run time; a failure raises
InternalInvariantBroken, never a wrong certificate.

The certificate pass is one replay (``_certify``): it takes the diagram's
map to the NE frame by one symmetry per direction, checks and composes the
moves there, takes them back, and renumbers each step's levels in the order
of their public images (``_public_chain``).
"""

from __future__ import annotations

from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from fractions import Fraction

from .annulus import (
    Annulus,
    INTERIOR,
    ON_B1,
    ON_B2,
    OmegaRegions,
    _expect_hit,
    bar,
    locate,
    negate_annulus,
    omega_regions,
    perturb_boundary,
    rect_in_annulus,
    rect_rv,
    transpose_annulus,
    validate_annulus,
)
from .errors import (
    AnnulusInvalid,
    InternalInvariantBroken,
    NotAnElementaryMove,
    NotContained,
)
from .moves import ElementaryMove, apply_elementary, apply_move_to_map, conjugate_move
from .multiflype import NE, NW, SE, SW, MultiflypeSpec, apply_multiflype, flype_sum_map
from .torus_core import (
    GridDiagram,
    Point,
    Rectangle,
    SignedPointMap,
    _min_gap,
    characteristic,
    cyc_dist,
    from_characteristic,
    in_cyclic,
    map_symmetry,
    reduce_mod,
    translate_equal,
)


@dataclass(frozen=True)
class MoveCertificate:
    """A verified factorization: source --steps--> target."""

    source: GridDiagram
    steps: tuple  # of (ElementaryMove, GridDiagram)
    target: GridDiagram

    def __len__(self):
        return len(self.steps)


@dataclass(frozen=True)
class SweepPath:
    """Strictly decreasing PL path from u0 to u1, as lifted breakpoints."""

    breakpoints: tuple
    circumference: Fraction

    def __post_init__(self):
        for (x1, y1), (x2, y2) in zip(self.breakpoints, self.breakpoints[1:]):
            if not (x2 < x1 and y2 < y1):
                raise InternalInvariantBroken("sweep path is not strictly decreasing")
        # both coordinates ascend along the path once negated, for bisection
        object.__setattr__(self, "_keys", tuple(
            tuple(-v[axis] for v in self.breakpoints) for axis in (0, 1)))

    def points(self):
        c = self.circumference
        return [Point(reduce_mod(x, c), reduce_mod(y, c)) for x, y in self.breakpoints]

    def x_range(self):
        return self.breakpoints[-1][0], self.breakpoints[0][0]

    def y_range(self):
        return self.breakpoints[-1][1], self.breakpoints[0][1]

    def _segment(self, axis, v):
        """The breakpoints (x1, y1), (x2, y2) of the first segment whose
        ``axis`` coordinate spans v."""
        keys = self._keys[axis]
        i = max(bisect_left(keys, -v) - 1, 0)
        if i + 1 >= len(keys) or not keys[i] <= -v <= keys[i + 1]:
            raise InternalInvariantBroken("sweep evaluation outside the path")
        return self.breakpoints[i], self.breakpoints[i + 1]

    def at_x(self, x) -> Fraction:
        (x1, y1), (x2, y2) = self._segment(0, x)
        return y2 + (x - x2) * (y1 - y2) / (x1 - x2)

    def x_at_y(self, y) -> Fraction:
        (x1, y1), (x2, y2) = self._segment(1, y)
        return x2 + (y - y2) * (x1 - x2) / (y1 - y2)


def _used_levels(m: SignedPointMap):
    return ({p.theta for p in m.entries}, {p.phi for p in m.entries})


def pick_u0(diagram, annulus: Annulus) -> Point:
    """Deterministic interior basepoint off all used levels, bar(u0) too.

    First admissible half-integer-plus-offset cell point; thin annuli can
    miss every such point, in which case candidates slide along b1, pushed
    inside by half the local clearance.
    """
    m = characteristic(diagram) if isinstance(diagram, GridDiagram) else diagram
    c = m.circumference
    used_t, used_f = _used_levels(m)

    def admissible(u):
        if u.theta in used_t or u.phi in used_f:
            return False
        if locate(annulus, u) != INTERIOR:
            return False
        u1 = bar(annulus, u)
        return u1.theta not in used_t and u1.phi not in used_f

    cells = int(c) + (0 if Fraction(c).denominator == 1 else 1)
    for d in [Fraction(0)] + [Fraction(1, 2 ** k) for k in range(2, 10)]:
        for i in range(cells):
            for j in range(cells):
                u = Point(reduce_mod(Fraction(2 * i + 1, 2) + d, c),
                          reduce_mod(Fraction(2 * j + 1, 2) + d, c))
                if admissible(u):
                    return u
    for denom in (2, 4, 8, 16, 32, 64, 128):
        for num in range(1, denom, 2):
            f = Fraction(num, denom)
            for (x1, y1), (x2, y2) in annulus.b1.segments():
                p = Point(reduce_mod(x1 + f * (x2 - x1), c),
                          reduce_mod(y1 + f * (y2 - y1), c))
                hit = _expect_hit(annulus, p, (-1, 1), ON_B2)
                t = cyc_dist(hit.theta, p.theta, c)
                u = Point(reduce_mod(p.theta - t / 2, c),
                          reduce_mod(p.phi + t / 2, c))
                if admissible(u):
                    return u
    raise InternalInvariantBroken("no admissible basepoint found")


# ---------------------------------------------------------------------------
# Base case: the sweep
# ---------------------------------------------------------------------------

def build_sweep_path(m: SignedPointMap, annulus: Annulus, u0: Point,
                     om: OmegaRegions) -> SweepPath:
    """Monotone descending path from u0 through the corridor to u1.

    In the lift the annulus is the strip between the two boundary graphs, and
    clamping the height window to (phi(u1), phi(u0)) keeps any strictly
    decreasing path off both L-fronts and every lens copy.  The path blends
    the clamped floor and ceiling by traversal fraction, which is strictly
    monotone and stays inside the open window; used grid points are the only
    remaining obstacles and are dodged by local nudges.
    """
    c = annulus.circumference
    p, q = annulus.winding
    u1 = om.v_bar
    x0, y0 = Fraction(u0.theta), Fraction(u0.phi)
    x1 = x0 + cyc_dist(u0.theta, u1.theta, c) - p * c
    y1 = y0 + cyc_dist(u0.phi, u1.phi, c) - q * c

    # The strip containing u0 is bounded by the branch of the boundary lift
    # directly below u0 (necessarily a b1 branch: meridian arcs enter through
    # b1) and the branch directly above (a b2 branch).  Branches of one curve
    # are indexed by a horizontal shift a in 0..p-1 plus a vertical period.
    below = above = None
    for tag, curve in annulus.curves():
        for a in range(p):
            base = curve.y_at(x0 - a * c)
            bb = (y0 - base) // c
            lo_val, hi_val = base + bb * c, base + (bb + 1) * c
            if lo_val == y0 or hi_val == y0:
                raise InternalInvariantBroken("basepoint sits on the boundary")
            if below is None or lo_val > below[0]:
                below = (lo_val, tag, curve, a, bb)
            if above is None or hi_val < above[0]:
                above = (hi_val, tag, curve, a, bb + 1)
    if below[1] != "on_b1" or above[1] != "on_b2":
        raise InternalInvariantBroken("basepoint strip is not a b1-to-b2 strip")

    def floor_at(x, _cv=below[2], _a=below[3], _b=below[4]):
        return _cv.y_at(x - _a * c) + _b * c

    def ceil_at(x, _cv=above[2], _a=above[3], _b=above[4]):
        return _cv.y_at(x - _a * c) + _b * c

    xs = {x0, x1}
    for _val, _tag, curve, a, _b in (below, above):
        xs.update(x + a * c for x in curve.kinks_between(x1 - a * c, x0 - a * c))
    # the window functions, evaluated once per knot
    knots = sorted(xs)
    window = {x: (floor_at(x), ceil_at(x)) for x in knots}
    for xx, yy in ((x0, y0), (x1, y1)):
        if not (window[xx][0] < yy < window[xx][1]):
            raise InternalInvariantBroken("strip anchoring failed")
    # where the clamps take over, the window functions kink as well
    for side, target in ((0, y1), (1, y0)):
        for a, b in zip(knots, knots[1:]):
            fa, fb = window[a][side], window[b][side]
            if (fa - target) * (fb - target) < 0:
                xs.add(a + (target - fa) * (b - a) / (fb - fa))
    span = x0 - x1
    pts = []
    for x in sorted(xs, reverse=True):  # descending in x
        low, high = window[x] if x in window else (floor_at(x), ceil_at(x))
        lo, hi = max(low, y1), min(high, y0)
        if not lo < hi:
            raise InternalInvariantBroken("empty corridor window")
        rho = (x - x1) / span
        pts.append((x, lo + (hi - lo) * rho))

    # a used grid point lies on the path when the path's height over a lift
    # of a used meridian in (x1, x0) reduces to a used longitude; the least
    # such lift is the obstacle dodged first
    used_t, used_f = _used_levels(m)
    columns = []
    for t in used_t:
        x = t + ((x1 - t) // c + 1) * c
        while x < x0:
            columns.append(x)
            x += c
    columns.sort()

    for _round in range(200):
        path = SweepPath(tuple(pts), c)
        heights = ((x, path.at_x(x)) for x in columns)
        bad = next(((x, y) for x, y in heights if reduce_mod(y, c) in used_f), None)
        if bad is None:
            return path
        bx, by = bad
        lo = max(floor_at(bx), y1)
        hi = min(ceil_at(bx), y0)
        replace = next((i for i, (x, _y) in enumerate(pts) if x == bx), None)
        if replace is not None:
            prev_y, next_y = pts[replace - 1][1], pts[replace + 1][1]
        else:
            idx = next(i for i, (x, _y) in enumerate(pts) if x < bx)
            prev_y, next_y = pts[idx - 1][1], pts[idx][1]
        room_up = min(hi - by, prev_y - by)
        room_down = min(by - lo, by - next_y)
        s = max(room_up, room_down) / 2
        nudged = by + s if room_up >= room_down else by - s
        if not (next_y < nudged < prev_y and lo < nudged < hi):
            raise InternalInvariantBroken("cannot dodge a grid point on the sweep")
        if replace is not None:
            pts[replace] = (bx, nudged)
        else:
            pts.insert(idx, (bx, nudged))
    raise InternalInvariantBroken("sweep obstacle dodging did not terminate")


def _event_parameter(path: SweepPath, annulus: Annulus, w: Point):
    """Earliest moment the vertex w lies on the active front; None if never.

    The parameter is x0 - x(u_t), strictly increasing along the traversal.
    Each crossing of w's row (column) casts only the backward ray of
    co_rect(u_t) that bounds the front along that row (column).
    """
    c = annulus.circumference
    x_lo, x_hi = path.x_range()
    y_lo, y_hi = path.y_range()
    candidates = []
    y = w.phi + ((y_lo - w.phi) // c + 1) * c
    while y < y_hi:
        if y > y_lo:
            x = path.x_at_y(y)
            u = Point(reduce_mod(x, c), reduce_mod(y, c))
            left = _expect_hit(annulus, u, (-1, 0), ON_B2).theta
            if in_cyclic(left, u.theta, w.theta, c):
                candidates.append(x_hi - x)
        y += c
    x = w.theta + ((x_lo - w.theta) // c + 1) * c
    while x < x_hi:
        if x > x_lo:
            u = Point(reduce_mod(x, c), reduce_mod(path.at_x(x), c))
            bottom = _expect_hit(annulus, u, (0, -1), ON_B1).phi
            if in_cyclic(bottom, u.phi, w.phi, c):
                candidates.append(x_hi - x)
        x += c
    return min(candidates) if candidates else None


def _sweep_moves(m: SignedPointMap, annulus: Annulus, u0: Point,
                 om: OmegaRegions, interior, tally: Counter):
    """Ordered elementary moves realizing the base case; ``interior`` lists
    the vertices of m interior to the annulus, sorted."""
    c = annulus.circumference
    path = build_sweep_path(m, annulus, u0, om)
    events = {}
    for w in interior:
        t = _event_parameter(path, annulus, w)
        if t is None:
            raise InternalInvariantBroken(f"vertex {w} was never swept")
        events.setdefault(t, []).append(w)

    moves = []
    for t in sorted(events):
        group = events[t]
        if len(group) == 2:
            tally["pair_event"] += 1
            w1, w2 = group
            x = path.x_range()[1] - t
            u = Point(reduce_mod(x, c), reduce_mod(path.at_x(x), c))
            if w1.phi == w2.phi:
                group = sorted(group, key=lambda w: cyc_dist(w.theta, u.theta, c))
            elif w1.theta == w2.theta:
                group = sorted(group, key=lambda w: cyc_dist(w.phi, u.phi, c))
            else:
                raise InternalInvariantBroken("simultaneous event off a common arm")
        elif len(group) > 2:
            raise InternalInvariantBroken(f"{len(group)} vertices in one event")
        for w in group:
            moves.append(ElementaryMove(rect_rv(annulus, w), m[w]))
    return moves


# ---------------------------------------------------------------------------
# Induction step
# ---------------------------------------------------------------------------

def _interior(m: SignedPointMap, annulus: Annulus):
    """The vertices of m interior to the annulus, sorted: the one ``locate``
    pass over m that a recursion level shares."""
    return [p for p in sorted(m.entries) if locate(annulus, p) == INTERIOR]


def _omega_count(m: SignedPointMap, annulus: Annulus, om: OmegaRegions,
                 interior=None) -> int:
    """The vertices of m in Omega off the boundary; ``interior``, when
    given, is ``_interior(m, annulus)``."""
    if interior is None:
        interior = _interior(m, annulus)
    return sum(1 for p in interior if om.in_omega(p))


def _closest_to_u1(interior, om: OmegaRegions) -> Point:
    """The vertex of Omega \\ dA closest to u1, lifted Euclidean metric,
    ties broken lexicographically; ``interior`` lists the interior vertices."""
    c = om.circumference
    u0, u1 = om.v, om.v_bar
    t0, f0 = Fraction(u0.theta), Fraction(u0.phi)
    u1_l = (t0 + cyc_dist(u0.theta, u1.theta, c), f0 + cyc_dist(u0.phi, u1.phi, c))
    best = None
    for p in interior:
        if not om.in_omega(p):
            continue
        if om.in_rv(p) or om.in_delta_minus(p):
            tl = t0 + cyc_dist(u0.theta, p.theta, c)
        else:
            tl = t0 - cyc_dist(p.theta, u0.theta, c)
        if om.in_rv(p) or om.in_delta_plus(p):
            fl = f0 + cyc_dist(u0.phi, p.phi, c)
        else:
            fl = f0 - cyc_dist(p.phi, u0.phi, c)
        key = ((tl - u1_l[0]) ** 2 + (fl - u1_l[1]) ** 2, p.theta, p.phi)
        if best is None or key < best[0]:
            best = (key, p)
    if best is None:
        raise InternalInvariantBroken("induction step called with empty Omega")
    return best[1]


def _strictly_inside_rv(om: OmegaRegions, p: Point, c) -> bool:
    r = om.rv
    return (in_cyclic(r.theta1, r.theta2, p.theta, c, closed=False)
            and in_cyclic(r.phi1, r.phi2, p.phi, c, closed=False))


def _induction_move(m: SignedPointMap, annulus: Annulus, u0: Point,
                    om: OmegaRegions, count: int, interior, tally: Counter):
    """One elementary move inside A dropping the Omega vertex count by one;
    ``interior`` is ``_interior(m, annulus)`` and ``tally`` counts the proof
    branches taken."""
    c = annulus.circumference
    v = _closest_to_u1(interior, om)
    if _strictly_inside_rv(om, v, c):
        tally["case1"] += 1
        return _case_move(m, annulus, u0, om, v, case=1, count=count, tally=tally)
    if om.in_delta_minus(v):
        tally["case2"] += 1
        return _case_move(m, annulus, u0, om, v, case=2, count=count, tally=tally)
    if om.in_delta_plus(v):
        tally["case3"] += 1
        mt = map_symmetry(m, "transpose")
        at = transpose_annulus(annulus)
        u0t = Point(u0.phi, u0.theta)
        omt = omega_regions(at, u0t)
        vt = Point(v.phi, v.theta)
        if not omt.in_delta_minus(vt):
            raise InternalInvariantBroken("transposed Case 3 vertex not in Delta-")
        # transposing maps the interior onto the transposed interior
        interior_t = sorted(Point(p.phi, p.theta) for p in interior)
        move_t, a2t = _case_move(mt, at, u0t, omt, vt, case=2,
                                 count=_omega_count(mt, at, omt, interior_t),
                                 tally=tally)
        return conjugate_move(move_t, "transpose", c), transpose_annulus(a2t)
    raise InternalInvariantBroken(f"vertex {v} escapes the case trichotomy")


def _case_move(m: SignedPointMap, annulus: Annulus, u0: Point, om: OmegaRegions,
               v: Point, case: int, count: int, tally: Counter):
    c = annulus.circumference
    u1 = om.v_bar
    sign = m[v]
    theta3 = bar(annulus, v).theta if case == 2 else None
    extra = [u0.theta, u0.phi, u1.theta, u1.phi]
    if theta3 is not None:
        extra.append(theta3)
    used_t, used_f = _used_levels(m)
    eps = _min_gap([*used_t, *used_f, *extra], c) / 4
    last = None
    for _attempt in range(60):
        try:
            if case == 1:
                rect = Rectangle.of(v.theta, reduce_mod(u1.theta + eps, c),
                                    v.phi, reduce_mod(u1.phi + eps, c))
            else:
                rect = Rectangle.of(v.theta, theta3,
                                    v.phi, reduce_mod(u1.phi + eps, c))
            move = ElementaryMove(rect, sign)
            m2 = apply_move_to_map(m, move)
            if not rect_in_annulus(annulus, rect):
                raise NotContained(f"r(eps) not inside the annulus at eps={eps}")
            a2 = annulus
            try:
                validate_annulus(a2, m2)
            except AnnulusInvalid:
                if case != 2:
                    raise
                a2 = perturb_boundary(annulus, theta3, {Point(theta3, v.phi)},
                                      m, stable_points=(u0,))
                tally["perturbed"] += 1
                validate_annulus(a2, m2)
                if flype_sum_map(m, a2) != flype_sum_map(m, annulus):
                    raise InternalInvariantBroken("perturbation changed the flype")
                if not rect_in_annulus(a2, rect):
                    raise NotContained("r(eps) left the perturbed annulus")
            om2 = om if a2 is annulus else omega_regions(a2, u0)
            if om2.v_bar != om.v_bar:
                raise InternalInvariantBroken("perturbation moved u1")
            if _omega_count(m2, a2, om2) != count - 1:
                raise InternalInvariantBroken("measure did not decrease by one")
            return move, a2
        except (NotContained, AnnulusInvalid, NotAnElementaryMove) as err:
            last = err
            eps = eps / 2
            tally["eps_halvings"] += 1
    raise InternalInvariantBroken(f"induction step failed (case {case}): {last}")


# ---------------------------------------------------------------------------
# The conjugated rectangle bar(r)
# ---------------------------------------------------------------------------

def conjugate_rectangle(annulus: Annulus, rect: Rectangle) -> Rectangle:
    """bar(r) = {bar(u) : u in r} for a rectangle inside the annulus.

    On r, bar acts as (x, y) -> (X(y), Y(x)), X(y) the b1 exit of row y and
    Y(x) the b2 exit of column x, so bar(r) is the product of the two exit
    intervals; the corner cycle reverses orientation.
    """
    if not rect_in_annulus(annulus, rect):
        raise NotContained("rectangle not inside the annulus")

    v1 = Point(rect.theta1, rect.phi1)
    v2 = Point(rect.theta2, rect.phi1)
    v4 = Point(rect.theta1, rect.phi2)
    x_b = _expect_hit(annulus, v1, (1, 0), ON_B1).theta
    x_t = _expect_hit(annulus, v4, (1, 0), ON_B1).theta
    y_a = _expect_hit(annulus, v1, (0, 1), ON_B2).phi
    y_b = _expect_hit(annulus, v2, (0, 1), ON_B2).phi
    return Rectangle.of(x_b, x_t, y_a, y_b)


# ---------------------------------------------------------------------------
# Full decomposition
# ---------------------------------------------------------------------------

def _decompose_ne(m: SignedPointMap, annulus: Annulus, u0: Point, tally: Counter,
                  depth=0):
    """(move, annulus) pairs factoring the forward flype of m based on annulus;
    ``tally`` counts the proof branches taken.

    The annuli only ever grow (perturbations expand), so each move is inside
    its own level's annulus and all later ones.
    """
    if depth > len(m.entries) + 8:
        raise InternalInvariantBroken("decomposition recursion too deep")
    validate_annulus(annulus, m)
    interior = _interior(m, annulus)
    if not interior:
        return []
    if len(interior) == 1:
        tally["single"] += 1
        v = interior[0]
        return [(ElementaryMove(rect_rv(annulus, v), m[v]), annulus)]
    om = omega_regions(annulus, u0)
    count = _omega_count(m, annulus, om, interior)
    if count == 0:
        tally["sweep"] += 1
        return [(mv, annulus)
                for mv in _sweep_moves(m, annulus, u0, om, interior, tally)]
    move, a2 = _induction_move(m, annulus, u0, om, count, interior, tally)
    m1 = apply_move_to_map(m, move)
    sub = _decompose_ne(m1, a2, u0, tally, depth + 1)
    closing = ElementaryMove(conjugate_rectangle(a2, move.rect), move.sign)
    return [(move, a2)] + sub + [(closing, a2)]


@dataclass(frozen=True)
class DecomposeTrace:
    """NE-frame internals of a run: maps[i] --moves[i]--> maps[i+1], each move
    performed inside annuli[i]; maps[-1] is the forward flype of maps[0].
    ``tallies`` holds sorted (branch, count) pairs of the proof branches the
    run took: "single", "sweep", "pair_event", "case1" to "case3",
    "perturbed" (each perturbation attempt) and "eps_halvings" (each retry
    of an induction move with half the epsilon).  Each induction move
    recurses once, so the recursion depth is case1 + case2 + case3."""

    maps: tuple
    moves: tuple
    annuli: tuple
    tallies: tuple


#: the symmetry taking each direction's map to the NE frame; SW and SE also
#: negate the annulus.  SE's flip_phi is flip_theta followed by both.
_NE_FRAME = {NE: "none", NW: "flip_theta", SW: "both", SE: "flip_phi"}


def decompose_with_trace(diagram: GridDiagram, spec: MultiflypeSpec):
    """The certificate plus the verified NE-frame trace."""
    m0 = characteristic(diagram)
    frame = _NE_FRAME[spec.direction]
    work = m0 if frame == "none" else map_symmetry(m0, frame)
    a_ne = negate_annulus(spec.annulus) if spec.direction in (SW, SE) else spec.annulus
    validate_annulus(a_ne, work)
    u0 = pick_u0(work, a_ne)
    tally = Counter()
    pairs = _decompose_ne(work, a_ne, u0, tally)
    cert, maps = _certify(diagram, work, pairs, flype_sum_map(work, a_ne), frame)
    trace = DecomposeTrace(tuple(maps), tuple(mv for mv, _a in pairs),
                           tuple(a for _mv, a in pairs), tuple(sorted(tally.items())))
    direct = apply_multiflype(diagram, spec)
    if not translate_equal(cert.target, direct):
        raise InternalInvariantBroken("certificate target differs from the flype")
    return cert, trace


def decompose(diagram: GridDiagram, spec: MultiflypeSpec) -> MoveCertificate:
    """Factor the multiflype into validated elementary moves inside A."""
    cert, _trace = decompose_with_trace(diagram, spec)
    return cert


def _certify(diagram: GridDiagram, work: SignedPointMap, pairs, expected, frame):
    """(certificate, NE-frame maps) of the (move, annulus) pairs replayed on
    ``work``, the diagram's map taken to the NE frame by ``frame``; each move
    must lie in its annulus and the last map must equal ``expected``."""
    maps = [work]
    for mv, a in pairs:
        if not rect_in_annulus(a, mv.rect):
            raise InternalInvariantBroken("step rectangle left its annulus")
        maps.append(apply_move_to_map(maps[-1], mv))
    if maps[-1] != expected:
        raise InternalInvariantBroken("certificate does not compose to the flype")
    out_moves = [conjugate_move(mv, frame, work.circumference) for mv, _a in pairs]
    out_maps = maps if frame == "none" else [map_symmetry(mm, frame) for mm in maps]
    return _public_chain(diagram, out_maps, out_moves), maps


def _public_chain(source: GridDiagram, maps, moves) -> MoveCertificate:
    """Renormalized certificate: each step target is literally apply_elementary
    of the previous step.

    Per axis, the internal levels map to the public levels 0..n-1 in the
    same cyclic order: a fresh level goes to its cyclic predecessor's image
    plus 1/2, the midpoint of the public gap, and after each step the levels
    are numbered in the order of their public images, as renormalization
    numbers them.  (Renormalizing each internal map on its own could differ
    from this chain by a torus translation whenever a fresh level wraps past
    the representative cut.)
    """
    current_pub = from_characteristic(maps[0])
    if current_pub != source:
        raise InternalInvariantBroken("source diagram is not normalized")
    level_maps = [{x: x for x in axis} for axis in _used_levels(maps[0])]
    steps = []
    for mv, after in zip(moves, maps[1:]):
        r = mv.rect
        for pub, sides in zip(level_maps, ((r.theta1, r.theta2), (r.phi1, r.phi2))):
            used = sorted(pub)
            for x in sides:
                if x not in pub:
                    pub[x] = pub[used[bisect_left(used, x) - 1]] + Fraction(1, 2)
        t_pub, f_pub = level_maps
        pub_move = ElementaryMove(
            Rectangle.of(t_pub[r.theta1], t_pub[r.theta2], f_pub[r.phi1], f_pub[r.phi2]),
            mv.sign)
        next_pub = apply_elementary(current_pub, pub_move)
        if not translate_equal(next_pub, from_characteristic(after)):
            raise InternalInvariantBroken("public step drifted off the flype")
        level_maps = [{x: i for i, x in enumerate(sorted(axis, key=pub.__getitem__))}
                      for pub, axis in zip(level_maps, _used_levels(after))]
        steps.append((pub_move, next_pub))
        current_pub = next_pub
    return MoveCertificate(source, tuple(steps), current_pub)


# ---------------------------------------------------------------------------
# Public single-phase entry points (forward flype frame)
# ---------------------------------------------------------------------------

def base_case_sweep(diagram: GridDiagram, annulus: Annulus, u0) -> MoveCertificate:
    """Base-case certificate for a forward flype; Omega_{u0} must be free of
    diagram vertices off the annulus boundary."""
    m = characteristic(diagram)
    validate_annulus(annulus, m)
    u0 = Point(Fraction(u0[0]), Fraction(u0[1])).reduced(m.circumference)
    om = omega_regions(annulus, u0)
    interior = _interior(m, annulus)
    if _omega_count(m, annulus, om, interior) != 0:
        raise ValueError("Omega_{u0} contains diagram vertices; not the base case")
    moves = _sweep_moves(m, annulus, u0, om, interior, Counter())
    return _certify(diagram, m, [(mv, annulus) for mv in moves],
                    flype_sum_map(m, annulus), "none")[0]


def induction_step(diagram: GridDiagram, annulus: Annulus, u0, u1=None):
    """One induction-step move (in the diagram's own exact coordinates) and
    the possibly perturbed annulus, still valid for the resulting map."""
    m = characteristic(diagram)
    validate_annulus(annulus, m)
    u0 = Point(Fraction(u0[0]), Fraction(u0[1])).reduced(m.circumference)
    om = omega_regions(annulus, u0)
    if u1 is not None:
        u1 = Point(Fraction(u1[0]), Fraction(u1[1])).reduced(m.circumference)
        if u1 != om.v_bar:
            raise ValueError(f"u1 must be bar(u0) = {om.v_bar}")
    interior = _interior(m, annulus)
    count = _omega_count(m, annulus, om, interior)
    if count == 0:
        raise ValueError("Omega_{u0} is vertex-free; nothing to push out")
    return _induction_move(m, annulus, u0, om, count, interior, Counter())


def validate_certificate(cert: MoveCertificate) -> bool:
    """Re-check every certificate step with apply_elementary."""
    current = cert.source
    for move, target in cert.steps:
        if apply_elementary(current, move) != target:
            return False
        current = target
    return current == cert.target
