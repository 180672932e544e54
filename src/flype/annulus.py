"""Positive-slope annuli on the torus and their exact PL geometry.

An annulus is the closed region between two disjoint strictly-increasing
piecewise linear closed curves of equal winding (p, q).  The boundary
component whose small push-off in the (1,-1) direction leaves the region is
b1 (the lower-right boundary); the other is b2.  Validity against a diagram:

1. every boundary segment has strictly positive finite slope (structural);
2. the boundary misses all crossings of the diagram;
3. two distinct boundary points on one meridian whose heights are both used
   longitudes must form a vertical edge of the diagram, and symmetrically
   with meridians and longitudes swapped.

Curves are stored as one period of their lift: strictly increasing rational
breakpoints, the closing step to ``first + (p*C, q*C)`` implicit.  A monotone
curve is a graph over theta in the universal cover, which makes every
predicate here a one-dimensional exact computation: a meridian meets the
curve p times per period, and disjointness of two curves says a certain
periodic PL function avoids all multiples of C.

Each curve is compiled once, when it is built, into a table of integers:
its breakpoints, the closing point included, and C, all scaled by D, the
least common multiple of their denominators.  Every boundary-curve query
reads it, taking a coordinate a/b as the integers a and b and comparing by
cross-multiplication; a ``Fraction`` is built only for a returned value.
``MonotoneCurve.lift_of`` finds the lift through a point.  Embedding and
disjointness (``_graphs_avoid_lattice``, behind every ``Annulus``) put the
kinks of two curves on one lattice 1/L, L the lcm of their two D, and place
each value of the height difference between multiples of C by one integer
floor division, a zero remainder being a touch.  Over each lift x
of t1 a boundary is an increasing branch, so it meets the open box
(t1, t1+w) x (f1, f1+h) iff y(x) + kC < f1 + h and y(x+w) + kC > f1 for
some k (``rect_in_annulus``).  Omega_v keeps its two boundary pieces as
lifted x-spans and evaluates the curve's own ``y_at`` on them.

Every construction is read off one ray cast, ``_first_hit``: the first
boundary point on a ray from x in one of six directions, each transverse to
the positive-slope boundary.  Membership (``locate``) casts (1,-1), which
leaves the annulus through b1 and enters it through b2, so the first hit
decides the side; ``pick_u0`` casts (-1,1) from b1 into the band.  The axis
rays +theta, +phi end r_v on b1 and b2, and -theta, -phi start r^v on b2 and
b1; ``bar`` and the conjugated rectangle bar(r) are read off the same hits.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import (
    AnnulusInvalid,
    BoundaryHitsCrossing,
    CannotPerturb,
    CurveError,
    ForbiddenPair,
    GridSyntaxError,
    InternalInvariantBroken,
    NotInterior,
    Outside,
    SlopeViolation,
)
from .torus_core import (
    GridDiagram,
    Point,
    Rectangle,
    SignedPointMap,
    _common_denominator,
    _is_vertex_table,
    _lcm,
    _min_gap,
    characteristic,
    cyc_dist,
    in_cyclic,
    reduce_mod,
)

INTERIOR = "interior"
ON_B1 = "on_b1"
ON_B2 = "on_b2"
OUTSIDE = "outside"


@dataclass(frozen=True)
class MonotoneCurve:
    """Closed strictly-increasing PL curve on the torus, one lifted period.

    Construction compiles the curve once into ``_table``, a flat tuple of
    ints ``(D, C*D, X0, Y0, X1, Y1, ..., Xk, Yk)``: D is the least common
    multiple of the denominators of C and of every breakpoint coordinate,
    and (Xi, Yi) = D * (xi, yi), the closing point (x0 + pC, y0 + qC) last.
    ``y_at``, ``x_lifts_of``, ``lift_of`` and the crossing queries take a
    query value a/b as the integers a and b and cross-multiply; a
    ``Fraction`` is built only for a value they return.
    """

    breakpoints: tuple
    winding: tuple
    circumference: Fraction

    def __post_init__(self):
        p, q = self.winding
        c = Fraction(self.circumference)
        if p < 1 or q < 1:
            raise SlopeViolation(f"winding {self.winding} is not positive")
        pts = tuple((Fraction(x), Fraction(y)) for x, y in self.breakpoints)
        if not pts:
            raise CurveError("no breakpoints")
        closed = list(pts) + [(pts[0][0] + p * c, pts[0][1] + q * c)]
        for (x1, y1), (x2, y2) in zip(closed, closed[1:]):
            if not (x2 > x1 and y2 > y1):
                raise SlopeViolation(
                    f"segment ({x1},{y1})->({x2},{y2}) is not strictly increasing")
        object.__setattr__(self, "breakpoints", pts)
        object.__setattr__(self, "circumference", c)
        d = _common_denominator([c, *(v for xy in pts for v in xy)])
        table = [d, c.numerator * (d // c.denominator)]
        for x, y in closed:
            table += (x.numerator * (d // x.denominator), y.numerator * (d // y.denominator))
        object.__setattr__(self, "_table", tuple(table))

    # -- lifted graph structure ------------------------------------------

    def period(self):
        p, q = self.winding
        return (p * self.circumference, q * self.circumference)

    def segments(self):
        px, py = self.period()
        pts = list(self.breakpoints)
        pts.append((pts[0][0] + px, pts[0][1] + py))
        return list(zip(pts, pts[1:]))

    def _lifts(self, a, b):
        """D*b times the p lifted parameters over the meridian at a/b."""
        t = self._table
        step = t[1] * b
        n = a * t[0]
        n -= (n - t[2] * b) // step * step  # least lift >= x0
        return [n + i * step for i in range(self.winding[0])]

    def _height(self, n, b):
        """D*y(x) as (numerator, denominator) at the lifted x = n/(D*b)."""
        t = self._table
        p, q = self.winding
        step = p * t[1] * b
        k = (n - t[2] * b) // step
        n -= k * step
        for i in range(2, len(t) - 2, 2):
            if n <= t[i + 2] * b:
                x1, y1 = t[i], t[i + 1]
                dx = t[i + 2] - x1
                return ((y1 + k * q * t[1]) * b * dx + (n - x1 * b) * (t[i + 3] - y1),
                        b * dx)
        raise InternalInvariantBroken("graph evaluation outside the period")

    def y_at(self, x) -> Fraction:
        """Graph evaluation in the lift: y(x + pC) = y(x) + qC."""
        a, b = _num_den(x)
        d = self._table[0]
        num, den = self._height(a * d, b)
        return Fraction(num, den * d)

    def x_lifts_of(self, theta):
        """The p lifted parameters over the meridian m_theta, one period."""
        a, b = _num_den(theta)
        den = b * self._table[0]
        return [Fraction(n, den) for n in self._lifts(a, b)]

    def kinks_between(self, x_lo, x_hi):
        """Lifted x of all breakpoint copies in [x_lo, x_hi], ascending."""
        a, b = _num_den(x_lo)
        e, f = _num_den(x_hi)
        t = self._table
        lo, hi = a * t[0] * f, e * t[0] * b  # times D*b*f
        step = self.winding[0] * t[1] * b * f
        out = []
        for i in range(2, len(t) - 2, 2):
            x = t[i] * b * f
            x -= (x - lo) // step * step  # least copy >= lo
            while x <= hi:
                out.append(x)
                x += step
        den = t[0] * b * f
        return [Fraction(x, den) for x in sorted(out)]

    # -- torus-level queries ----------------------------------------------

    def lift_of(self, point):
        """The first of ``x_lifts_of(point[0])`` at which the lifted curve
        passes through the point mod C, or None; a miss builds no Fraction."""
        a, b = _num_den(point[0])
        e, f = _num_den(point[1])
        d, cd = self._table[0], self._table[1]
        for n in self._lifts(a, b):
            num, den = self._height(n, b)
            if (num * f - e * d * den) % (cd * den * f) == 0:
                return Fraction(n, b * d)
        return None

    def contains_point(self, point) -> bool:
        return self.lift_of(point) is not None

    def meridian_crossings(self, theta):
        """Reduced heights of the p crossings with the meridian m_theta."""
        return [Fraction(r, q) for r, q in self._meridian_hits(*_num_den(theta))]

    def _meridian_hits(self, a, b):
        """meridian_crossings at a/b (any b > 0), each height as the integers
        (r, q) of r/q in [0, C)."""
        d, cd = self._table[0], self._table[1]
        out = []
        for n in self._lifts(a, b):
            num, den = self._height(n, b)
            out.append((num % (cd * den), den * d))
        return out

    def longitude_crossings(self, phi):
        """Reduced theta of the q crossings with the longitude l_phi."""
        return [Fraction(r, q) for r, q in self._longitude_hits(*_num_den(phi))]

    def _longitude_hits(self, e, f):
        """longitude_crossings at e/f (any f > 0), each theta as the integers
        (r, q) of r/q in [0, C)."""
        t = self._table
        d, step = t[0], t[1] * f
        level = e * d
        out = []
        for i in range(2, len(t) - 2, 2):
            x1, y1 = t[i], t[i + 1]
            dx, dy = t[i + 2] - x1, t[i + 3] - y1
            y = level - (level - y1 * f) // step * step  # least copy >= y1
            while y < t[i + 3] * f:  # half-open in y: each crossing counted once
                num = x1 * f * dy + (y - y1 * f) * dx
                out.append((num % (step * dy), f * dy * d))
                y += step
        return out


def transpose_curve(curve: MonotoneCurve) -> MonotoneCurve:
    p, q = curve.winding
    return MonotoneCurve(tuple((y, x) for x, y in curve.breakpoints),
                         (q, p), curve.circumference)


def negate_curve(curve: MonotoneCurve) -> MonotoneCurve:
    """Image under (theta, phi) -> (-theta, -phi), reparametrized increasing."""
    pts = tuple((-x, -y) for x, y in reversed(curve.breakpoints))
    return MonotoneCurve(pts, curve.winding, curve.circumference)


def _graphs_avoid_lattice(low: MonotoneCurve, high: MonotoneCurve, skip_zero_shift):
    """True iff no lattice copy of ``high`` meets ``low``.

    Both curves must have equal winding (p, q).  The torus point sets meet
    iff for some shift a in 0..p-1 the periodic PL function
    d(x) = high(x + aC) - low(x) takes a value in C*Z.  d is linear between
    the kinks of the two graphs, so it misses C*Z exactly when its values at
    one period of kinks all lie in one open interval (kC, (k+1)C).

    The check reads the two compiled tables.  The kinks go on one lattice,
    x = X/L with L = lcm(D_low, D_high); ``_height`` gives each graph's
    height there as a (numerator, denominator) pair; and L*d(x) = N/E is
    placed by one floor division by E*L*C, whose remainder is 0 exactly when
    d(x) is a multiple of C.
    """
    if low.winding != high.winding or low.circumference != high.circumference:
        return False
    tl, th = low._table, high._table
    scale = _lcm(tl[0], th[0])
    sl, sh = scale // tl[0], scale // th[0]
    cl = tl[1] * sl  # L*C
    low_x = [tl[i] * sl for i in range(2, len(tl) - 2, 2)]
    high_x = [th[i] * sh for i in range(2, len(th) - 2, 2)]
    for a in range(1 if skip_zero_shift else 0, low.winding[0]):
        shift = a * cl
        cell = None
        # d has period pC, so any lift of a kink of high will do
        for x in low_x + [x - shift for x in high_x]:
            nl, el = low._height(x, sl)
            nh, eh = high._height(x + shift, sh)
            k, rest = divmod(nh * sh * el - nl * sl * eh, el * eh * cl)
            if not rest or cell is not None and k != cell:
                return False
            cell = k
    return True


def curve_embedded(curve: MonotoneCurve) -> bool:
    return _graphs_avoid_lattice(curve, curve, skip_zero_shift=True)


def curves_disjoint(c1: MonotoneCurve, c2: MonotoneCurve) -> bool:
    return _graphs_avoid_lattice(c1, c2, skip_zero_shift=False)


# ---------------------------------------------------------------------------
# Annuli
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Annulus:
    """Region between b1 (lower-right boundary) and b2 (upper-left boundary)."""

    b1: MonotoneCurve
    b2: MonotoneCurve
    circumference: Fraction

    def __post_init__(self):
        c = Fraction(self.circumference)
        object.__setattr__(self, "circumference", c)
        if self.b1.circumference != c or self.b2.circumference != c:
            raise AnnulusInvalid("curve circumference mismatch")
        if self.b1.winding != self.b2.winding:
            raise AnnulusInvalid(
                f"windings differ: {self.b1.winding} vs {self.b2.winding}")
        if not curve_embedded(self.b1) or not curve_embedded(self.b2):
            raise AnnulusInvalid("boundary curve is not embedded")
        if not curves_disjoint(self.b1, self.b2):
            raise AnnulusInvalid("boundary curves intersect")

    @property
    def winding(self):
        return self.b1.winding

    def curves(self):
        return ((ON_B1, self.b1), (ON_B2, self.b2))


def transpose_annulus(annulus: Annulus) -> Annulus:
    """Image under (theta, phi) -> (phi, theta); the boundary roles swap."""
    return Annulus(transpose_curve(annulus.b2), transpose_curve(annulus.b1),
                   annulus.circumference)


def negate_annulus(annulus: Annulus) -> Annulus:
    """Image under the point reflection; the boundary roles swap."""
    return Annulus(negate_curve(annulus.b2), negate_curve(annulus.b1),
                   annulus.circumference)


def locate(annulus: Annulus, point) -> str:
    """Exact membership via the first boundary hit of the (1,-1)-ray."""
    if annulus.b1.contains_point(point):
        return ON_B1
    if annulus.b2.contains_point(point):
        return ON_B2
    tag, _pt, _t = _first_hit(annulus, point, (1, -1))
    return INTERIOR if tag == ON_B1 else OUTSIDE


def _first_hit(annulus: Annulus, x, direction):
    """First boundary point on {x + t*direction : t > 0} as (tag, point, t).

    ``direction`` is one of (+-1, 0), (0, +-1), +-(1, -1); each ray closes up
    after t = C.  The level |dphi|*theta + |dtheta|*phi is constant along the
    ray and strictly increasing along every boundary segment, so the ray
    meets a segment where the level takes its value mod C.  With x = (a, e)/b,
    levels along a curve are integers over D*b; a hit and its distance t are
    integers over D*b*rise, rise being the segment's level increase times D,
    and two distances compare by cross-multiplication.
    """
    dx, dy = direction
    a, b = _num_den(x[0])
    e, f = _num_den(x[1])
    if b != f:
        a, e, b = a * f, e * b, b * f
    target = (a if dy else 0) + (e if dx else 0)
    # the ray moves along theta when dx != 0, else along phi
    along, origin, sign = (0, a, dx) if dx else (1, e, dy)
    best = None
    for tag, curve in annulus.curves():
        t = curve._table
        d, step = t[0], t[1] * b
        level = target * d
        for i in range(2, len(t) - 2, 2):
            x1, y1, x2, y2 = t[i], t[i + 1], t[i + 2], t[i + 3]
            g1 = (x1 if dy else 0) + (y1 if dx else 0)
            rise = (x2 if dy else 0) + (y2 if dx else 0) - g1
            val = level - (level - g1 * b) // step * step  # least copy >= g1
            while val < (g1 + rise) * b:  # half-open: each crossing counted once
                # the hit point and the distance t, times D*b*rise
                s = val - g1 * b
                hit = (x1 * b * rise + s * (x2 - x1), y1 * b * rise + s * (y2 - y1))
                mod = step * rise
                num = sign * (hit[along] - origin * d * rise) % mod
                den = d * b * rise
                if num and (best is None or num * best[1] < best[0] * den):
                    best = (num, den, tag, hit, mod)
                val += step
    if best is None:
        raise InternalInvariantBroken(f"the {direction} ray missed the boundary")
    num, den, tag, hit, mod = best
    return (tag, Point(Fraction(hit[0] % mod, den), Fraction(hit[1] % mod, den)),
            Fraction(num, den))


def _num_den(v):
    """Numerator and denominator of an exact rational, in lowest terms."""
    if not isinstance(v, (int, Fraction)):
        v = Fraction(v)
    return v.numerator, v.denominator


def _expect_hit(annulus: Annulus, x: Point, direction, tag: str) -> Point:
    got, p, _t = _first_hit(annulus, x, direction)
    if got != tag:
        raise InternalInvariantBroken(
            f"{direction} ray from {x} met {got} before {tag}")
    return p


def rect_rv(annulus: Annulus, v) -> Rectangle:
    """The rectangle r_v: v at its start corner, the forward longitude ray
    ending on b1 and the upward meridian ray ending on b2."""
    return _rect_rv(annulus, _interior_point(annulus, v))


def co_rect(annulus: Annulus, v) -> Rectangle:
    """The rectangle r^v = r_u with bar(u) = v, via backward rays."""
    return _co_rect(annulus, _interior_point(annulus, v))


def _interior_point(annulus: Annulus, v) -> Point:
    v = Point(Fraction(v[0]), Fraction(v[1])).reduced(annulus.circumference)
    if locate(annulus, v) != INTERIOR:
        raise NotInterior(f"{v} is not interior to the annulus")
    return v


def _rect_rv(annulus: Annulus, v: Point) -> Rectangle:
    """rect_rv of a reduced point already located in the interior."""
    right = _expect_hit(annulus, v, (1, 0), ON_B1)
    top = _expect_hit(annulus, v, (0, 1), ON_B2)
    return Rectangle.of(v.theta, right.theta, v.phi, top.phi)


def _co_rect(annulus: Annulus, v: Point) -> Rectangle:
    """co_rect of a reduced point already located in the interior."""
    left = _expect_hit(annulus, v, (-1, 0), ON_B2)
    bottom = _expect_hit(annulus, v, (0, -1), ON_B1)
    return Rectangle.of(left.theta, v.theta, bottom.phi, v.phi)


def bar(annulus: Annulus, v) -> Point:
    """v -> opposite corner of r_v, extended to the boundary by continuity."""
    c = annulus.circumference
    v = Point(Fraction(v[0]), Fraction(v[1])).reduced(c)
    side = locate(annulus, v)
    if side == OUTSIDE:
        raise Outside(f"{v} is outside the annulus")
    if side == ON_B1:
        return _expect_hit(annulus, v, (0, 1), ON_B2)
    if side == ON_B2:
        return _expect_hit(annulus, v, (1, 0), ON_B1)
    r = rect_rv(annulus, v)
    return Point(r.theta2, r.phi2)


# ---------------------------------------------------------------------------
# Validation against a diagram
# ---------------------------------------------------------------------------

def _diagram_map(diagram) -> SignedPointMap:
    if isinstance(diagram, GridDiagram):
        return characteristic(diagram)
    if isinstance(diagram, SignedPointMap):
        return diagram
    raise TypeError(f"expected a diagram, got {type(diagram)!r}")


def validate_annulus(annulus: Annulus, diagram) -> None:
    """Check conditions 1-3 exactly; raises an AnnulusInvalid subclass.

    Accepts a GridDiagram or a diagram-valued SignedPointMap (the latter is
    what the decomposition recursion works with, where vertex coordinates are
    rational).  Vertices may lie on the boundary; crossings may not.

    Works on scaled integers: the map is scaled by S, the least common
    multiple of C's denominator and its coordinates', so the vertex table
    (checked first to be a diagram) and the used levels are keyed by ints.
    Each boundary crossing of a used line is read off the curve's integer
    table as r/q, and lies on a used level exactly when q divides r*S.  A
    ``Fraction`` is built only to group crossings by their position along
    the line and for a point named in an error.
    """
    m = _diagram_map(diagram)
    if m.circumference != annulus.circumference:
        raise AnnulusInvalid("circumference mismatch with the diagram")
    c = annulus.circumference
    s = _common_denominator([c, *(v for p in m.entries for v in p)])
    cs = c.numerator * (s // c.denominator)
    verts = {(p.theta.numerator * (s // p.theta.denominator) % cs,
              p.phi.numerator * (s // p.phi.denominator) % cs): v
             for p, v in m.entries.items()}
    if not _is_vertex_table(verts):
        raise AnnulusInvalid("the supplied map is not a diagram characteristic")
    used_theta = sorted({t for t, _f in verts})
    used_phi = sorted({f for _t, f in verts})

    def level(r, q):
        """S * (r/q) when it is an integer, else -1 (on no used level)."""
        k, rest = divmod(r * s, q)
        return -1 if rest else k

    # condition 2 plus the meridian half of condition 3.  A used meridian
    # carries two vertices, so once no crossing is hit, at most two boundary
    # points on it lie at used heights and they form its vertical edge.
    on_phi = set(used_phi)
    by_phi = {}
    for t in used_theta:
        for _tag, curve in annulus.curves():
            for r, q in curve._meridian_hits(t, s):
                k = level(r, q)
                if k in on_phi and (t, k) not in verts:
                    raise BoundaryHitsCrossing(Point(Fraction(t, s), Fraction(r, q)))
                by_phi.setdefault(Fraction(r, q), (k, []))[1].append(t)

    # longitude half of condition 3: two boundary points on used meridians
    # at one (arbitrary) height must be a horizontal edge, which forces both
    # to be vertices.
    for phi, (k, ts) in by_phi.items():
        ts = sorted(set(ts))
        if len(ts) > 2 or len(ts) == 2 and not ((ts[0], k) in verts and (ts[1], k) in verts):
            raise ForbiddenPair(Point(Fraction(ts[0], s), phi), Point(Fraction(ts[1], s), phi),
                                "longitude")

    # meridian half applied to boundary points on used longitudes; one that
    # is also on a used meridian was found above, so it is a vertex
    by_theta = {}
    for f in used_phi:
        for _tag, curve in annulus.curves():
            for r, q in curve._longitude_hits(f, s):
                by_theta.setdefault(Fraction(r, q), (level(r, q), []))[1].append(f)
    for theta, (k, fs) in by_theta.items():
        fs = sorted(set(fs))
        if len(fs) > 2 or len(fs) == 2 and not ((k, fs[0]) in verts and (k, fs[1]) in verts):
            raise ForbiddenPair(Point(theta, Fraction(fs[0], s)), Point(theta, Fraction(fs[1], s)),
                                "meridian")


# ---------------------------------------------------------------------------
# Containment of rectangles and points of interest
# ---------------------------------------------------------------------------

def rect_in_annulus(annulus: Annulus, rect: Rectangle) -> bool:
    """Closed containment r <= A: the open rectangle meets no boundary and
    the center is interior.  The branch test of the module docstring runs on
    the box scaled by the lcm s of its denominators, with the least k of its
    second inequality; the open box is empty when w or h is 0."""
    c = annulus.circumference
    t1 = reduce_mod(rect.theta1, c)
    w = cyc_dist(rect.theta1, rect.theta2, c)
    f1 = reduce_mod(rect.phi1, c)
    h = cyc_dist(rect.phi1, rect.phi2, c)
    if w and h:
        s = _common_denominator((t1, w, f1, h))
        left, width, bottom, top = (v.numerator * (s // v.denominator)
                                    for v in (t1, w, f1, f1 + h))
        for _tag, curve in annulus.curves():
            d, cd = curve._table[0], curve._table[1]
            for n in curve._lifts(left, s):
                lo, lo_den = curve._height(n, s)
                hi, hi_den = curve._height(n + width * d, s)
                k = (bottom * hi_den * d - hi * s) // (s * hi_den * cd) + 1
                if (lo + k * cd * lo_den) * s < top * lo_den * d:
                    return False
    center = Point(reduce_mod(t1 + w / 2, c), reduce_mod(f1 + h / 2, c))
    return locate(annulus, center) == INTERIOR


# ---------------------------------------------------------------------------
# The swept region Omega_v and its active boundary
# ---------------------------------------------------------------------------

def _span(curve: MonotoneCurve, start, end):
    """Lifted x-span (x_start, x_end) of the forward piece of the curve from
    start to end, both on the curve; a full period when they coincide."""
    x_s, x_e = curve.lift_of(start), curve.lift_of(end)
    if x_s is None or x_e is None:
        raise InternalInvariantBroken(f"{start} or {end} is not on the curve")
    px, _ = curve.period()
    x_e += ((x_s - x_e) / px).__ceil__() * px
    return (x_s, x_e + px if x_e == x_s else x_e)


@dataclass(frozen=True)
class OmegaRegions:
    """Omega_v = Delta+ u Delta- u r_v for an interior point v, with exact
    membership tests and the active boundary d*Omega_v on r^v."""

    annulus: Annulus
    v: Point
    v_bar: Point
    rv: Rectangle        # r_v, from v forward
    co: Rectangle        # r^v, ending at v
    roof: tuple          # lifted x-span of b2 from (theta_x, phi0) to (theta0, phi1)
    floor: tuple         # lifted x-span of b1 from (theta0, phi_y) to (theta1, phi0)

    @property
    def circumference(self):
        return self.annulus.circumference

    def in_rv(self, x) -> bool:
        return self.rv.contains(Point(Fraction(x[0]), Fraction(x[1])), self.circumference)

    def in_delta_plus(self, x) -> bool:
        c = self.circumference
        x = Point(Fraction(x[0]), Fraction(x[1])).reduced(c)
        tx, t0 = self.co.theta1, self.co.theta2
        if not in_cyclic(tx, t0, x.theta, c):
            return False
        x_s, x_e = self.roof
        x_lift = x_s + cyc_dist(tx, x.theta, c)
        y = self.annulus.b2.y_at  # y(x_s): the lifted height of phi0 at the left pinch
        return x_lift <= x_e and cyc_dist(self.v.phi, x.phi, c) <= y(x_lift) - y(x_s)

    def in_delta_minus(self, x) -> bool:
        c = self.circumference
        x = Point(Fraction(x[0]), Fraction(x[1])).reduced(c)
        t0, t1 = self.rv.theta1, self.rv.theta2
        if not in_cyclic(t0, t1, x.theta, c):
            return False
        x_s, x_e = self.floor
        x_lift = x_s + cyc_dist(t0, x.theta, c)
        y = self.annulus.b1.y_at  # y(x_e): the lifted height of phi0 at the right pinch
        return x_lift <= x_e and cyc_dist(x.phi, self.v.phi, c) <= y(x_e) - y(x_lift)

    def in_omega(self, x) -> bool:
        return self.in_rv(x) or self.in_delta_plus(x) or self.in_delta_minus(x)

    def boundary_star_segments(self):
        """The two arms of d*Omega_v: top and right edges of r^v adjacent to v."""
        top = (Point(self.co.theta1, self.co.phi2), self.v)
        right = (Point(self.co.theta2, self.co.phi1), self.v)
        return top, right

    def on_boundary_star(self, x) -> bool:
        c = self.circumference
        x = Point(Fraction(x[0]), Fraction(x[1])).reduced(c)
        (tstart, _), (rstart, _) = self.boundary_star_segments()
        on_top = x.phi == self.v.phi and in_cyclic(tstart.theta, self.v.theta, x.theta, c)
        on_right = x.theta == self.v.theta and in_cyclic(rstart.phi, self.v.phi, x.phi, c)
        return on_top or on_right


def omega_regions(annulus: Annulus, v) -> OmegaRegions:
    c = annulus.circumference
    v = Point(Fraction(v[0]), Fraction(v[1])).reduced(c)
    rv = rect_rv(annulus, v)
    co = co_rect(annulus, v)
    roof = _span(annulus.b2, Point(co.theta1, co.phi2), Point(rv.theta1, rv.phi2))
    floor = _span(annulus.b1, Point(co.theta2, co.phi1), Point(rv.theta2, rv.phi1))
    return OmegaRegions(annulus, v, Point(rv.theta2, rv.phi2), rv, co, roof, floor)


# ---------------------------------------------------------------------------
# Boundary perturbation (Case 2 of the decomposition)
# ---------------------------------------------------------------------------

def _detour_curve(curve: MonotoneCurve, x_cross, delta, dy) -> MonotoneCurve:
    """Reroute the curve inside (x_cross - delta, x_cross + delta) through the
    single point (x_cross, y(x_cross) + dy); the rest is untouched."""
    px, _ = curve.period()
    p_minus = (x_cross - delta, curve.y_at(x_cross - delta))
    mid = (x_cross, curve.y_at(x_cross) + dy)
    p_plus = (x_cross + delta, curve.y_at(x_cross + delta))
    pts = [p_minus, mid, p_plus]
    for x in curve.kinks_between(x_cross + delta, x_cross - delta + px):
        if x_cross + delta < x < x_cross - delta + px:
            pts.append((x, curve.y_at(x)))
    return MonotoneCurve(tuple(pts), curve.winding, curve.circumference)


def perturb_boundary(annulus: Annulus, meridian_level, keep, diagram=None,
                     stable_points=()) -> Annulus:
    """Move every boundary crossing of the meridian, except the kept points,
    slightly off its height, expanding the annulus locally (b1 crossings move
    down, b2 crossings move up).  The bar map of every vertex of ``diagram``
    and of every extra point in ``stable_points`` is left unchanged; the
    modification stays within an epsilon-neighborhood of the perturbed
    crossings.
    """
    c = annulus.circumference
    theta = reduce_mod(meridian_level, c)
    keep = {Point(Fraction(p[0]), Fraction(p[1])).reduced(c) for p in keep}
    for p in keep:
        if p.theta != theta:
            raise CannotPerturb(f"kept point {p} is not on the meridian {theta}")
        if not (annulus.b1.contains_point(p) or annulus.b2.contains_point(p)):
            raise CannotPerturb(f"kept point {p} is not on the boundary")

    interest_t = {theta}
    interest_f = set()
    m = _diagram_map(diagram) if diagram is not None else None
    if m is not None:
        interest_t.update(p.theta for p in m.entries)
        interest_f.update(p.phi for p in m.entries)
    for _tag, curve in annulus.curves():
        for x, y in curve.breakpoints:
            interest_t.add(reduce_mod(x, c))
            interest_f.add(reduce_mod(y, c))
        interest_f.update(curve.meridian_crossings(theta))
    eps0 = min(_min_gap(interest_t, c), _min_gap(interest_f, c)) / 2

    watched = list(stable_points)
    if m is not None:
        watched.extend(m.entries)
    before = {}
    for raw in watched:
        p = Point(Fraction(raw[0]), Fraction(raw[1])).reduced(c)
        side = locate(annulus, p)
        before[p] = (side, rect_rv(annulus, p) if side == INTERIOR else None)

    eps = eps0
    for _attempt in range(60):
        try:
            new_b = {}
            for tag, curve in annulus.curves():
                for h in sorted(curve.meridian_crossings(theta)):
                    if Point(theta, h) in keep:
                        continue
                    x = curve.lift_of((theta, h))
                    y = curve.y_at(x)
                    rise = min(y - curve.y_at(x - eps), curve.y_at(x + eps) - y)
                    dy = -rise / 2 if tag == ON_B1 else rise / 2
                    curve = _detour_curve(curve, x, eps, dy)
                new_b[tag] = curve
            candidate = Annulus(new_b[ON_B1], new_b[ON_B2], c)
        except (AnnulusInvalid, SlopeViolation, CurveError):
            eps = eps / 2
            continue
        if not _bars_unchanged(candidate, before):
            eps = eps / 2
            continue
        return candidate
    raise CannotPerturb(f"no valid perturbation near meridian {theta}")


def _bars_unchanged(candidate: Annulus, before) -> bool:
    for p, data in before.items():
        side = locate(candidate, p)
        if side != data[0]:
            return False
        if side == INTERIOR and rect_rv(candidate, p) != data[1]:
            return False
    return True


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize_annulus(annulus: Annulus) -> str:
    p, q = annulus.winding

    def fmt(curve):
        return " ".join(f"({x},{y})" for x, y in curve.breakpoints)

    return ("annulus {} winding {} {}\nB1: {}\nB2: {}\n".format(
        annulus.circumference, p, q, fmt(annulus.b1), fmt(annulus.b2)))


def parse_annulus(text: str) -> Annulus:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip() and not ln.startswith("#")]
    if len(lines) != 3:
        raise GridSyntaxError(f"expected 3 content lines, got {len(lines)}")
    head = lines[0].split()
    if len(head) != 5 or head[0] != "annulus" or head[2] != "winding":
        raise GridSyntaxError(f"bad header {lines[0]!r}")
    try:
        c = Fraction(head[1])
        p, q = int(head[3]), int(head[4])
    except (ValueError, ZeroDivisionError):
        raise GridSyntaxError(f"bad header {lines[0]!r}") from None

    def parse_curve(line, tag):
        if not line.startswith(tag + ":"):
            raise GridSyntaxError(f"expected {tag}: line")
        pts = []
        for tok in line[len(tag) + 1:].split():
            if not (tok.startswith("(") and tok.endswith(")")):
                raise GridSyntaxError(f"bad point {tok!r}")
            try:
                x, y = tok[1:-1].split(",")
                pts.append((Fraction(x), Fraction(y)))
            except (ValueError, ZeroDivisionError):
                raise GridSyntaxError(f"bad point {tok!r}") from None
        try:
            return MonotoneCurve(tuple(pts), (p, q), c)
        except (SlopeViolation, CurveError) as err:
            raise GridSyntaxError(str(err)) from None
    b1 = parse_curve(lines[1], "B1")
    b2 = parse_curve(lines[2], "B2")
    return Annulus(b1, b2, c)
