"""Independent oracles the tests compare the library against.

Each oracle re-derives its answer straight from definitions through a
different code path than the implementation under test: the bracket by the
full 2^c state sum over a port graph, annulus membership by the vertical
order of boundary crossings on a meridian, the move list by a raw scan of
all half-integer rectangles with the sigma arithmetic done inline, the
canonical form by trying all n^2 torus translations, and the boundary-curve
queries, embedding and disjointness checks, ray cast and rectangle
containment by ``Fraction`` arithmetic over each segment.  The
library's move layer is also checked against its previous forms: the scan of
every rectangle with a corner on a vertex, and the move applied to the
``Fraction``-keyed characteristic map.  So is the multiflype layer: annulus
validation over ``Fraction`` points, and the flype summed on the
``Fraction``-keyed map.  And so is the decomposition: its sweep path's
first form treats every used grid point in its box as an obstacle, and its
first public chain counts removed and added levels one by one.
"""

from fractions import Fraction

from flype.annulus import INTERIOR, _diagram_map, locate
from flype.decompose import MoveCertificate, SweepPath
from flype.errors import (
    AnnulusInvalid,
    BoundaryHitsCrossing,
    DiagramError,
    FlypeError,
    ForbiddenPair,
    InternalInvariantBroken,
    NotAnElementaryMove,
)
from flype.invariants import LaurentPolynomial
from flype.moves import (
    DESTABILIZATION,
    EXCHANGE,
    STABILIZATION,
    ElementaryMove,
    _corner_hits,
    apply_elementary,
    apply_move_to_map,
)
from flype.multiflype import MultiflypeSpec, apply_multiflype_map
from flype.search import _staircase_family
from flype.torus_core import (
    GridDiagram,
    Point,
    Rectangle,
    _add_corner_signs,
    _renormalize,
    canonical_form,
    characteristic,
    cyc_dist,
    from_characteristic,
    reduce_mod,
    to_planar,
    translate_equal,
)


# ---------------------------------------------------------------------------
# Torus translations and the canonical form over all n^2 of them
# ---------------------------------------------------------------------------

def translate(diagram: GridDiagram, a: int, b: int) -> GridDiagram:
    """Shift columns by a and rows by b (torus translation)."""
    n = diagram.n
    pos = tuple((diagram.pos[(j + a) % n] - b) % n for j in range(n))
    neg = tuple((diagram.neg[(j + a) % n] - b) % n for j in range(n))
    return GridDiagram(n, pos, neg)


def brute_canonical_form(diagram: GridDiagram) -> bytes:
    """Lexicographically minimal encoding over every translation, each built
    as a validated GridDiagram."""
    n = diagram.n
    best = None
    for a in range(n):
        for b in range(n):
            t = translate(diagram, a, b)
            enc = bytes([n]) + bytes(t.pos) + bytes(t.neg)
            if best is None or enc < best:
                best = enc
    return best


# ---------------------------------------------------------------------------
# Naive Kauffman bracket: 2^c states, loops counted with union-find
# ---------------------------------------------------------------------------

class _UF:
    def __init__(self, size):
        self.parent = list(range(size))

    def find(self, a):
        while self.parent[a] != a:
            self.parent[a] = self.parent[self.parent[a]]
            a = self.parent[a]
        return a

    def union(self, a, b):
        ra, rb = self.find(a), self.find(b)
        if ra != rb:
            self.parent[ra] = rb


def naive_bracket(diagram: GridDiagram, cut=None) -> LaurentPolynomial:
    planar = to_planar(diagram, cut)
    n = planar.n
    cr = planar.crossings
    c = len(cr)
    if c > 18:
        raise ValueError("oracle is sized for few crossings")
    # nodes: 4 ports per crossing (N E S W), then one node per vertex
    N, E, S, W = 0, 1, 2, 3
    port = lambda i, d: 4 * i + d
    vnode = {}
    for j in range(n):
        vnode[(j, diagram.pos[j])] = 4 * c + 2 * j
        vnode[(j, diagram.neg[j])] = 4 * c + 2 * j + 1
    links = []

    pos_col = {diagram.pos[j]: j for j in range(n)}
    neg_col = {diagram.neg[j]: j for j in range(n)}
    col_cross = {j: sorted((i for i, x in enumerate(cr) if x.col == j),
                           key=lambda i: planar.row_pos[cr[i].row])
                 for j in range(n)}
    row_cross = {k: sorted((i for i, x in enumerate(cr) if x.row == k),
                           key=lambda i: planar.col_pos[cr[i].col])
                 for k in range(n)}

    for j in range(n):
        lo, hi, _up = planar.col_span[j]
        bottom = diagram.pos[j] if planar.row_pos[diagram.pos[j]] == lo else diagram.neg[j]
        top = diagram.neg[j] if bottom == diagram.pos[j] else diagram.pos[j]
        chain = col_cross[j]
        if chain:
            links.append((vnode[(j, bottom)], port(chain[0], S)))
            links.append((port(chain[-1], N), vnode[(j, top)]))
            for a, b in zip(chain, chain[1:]):
                links.append((port(a, N), port(b, S)))
        else:
            links.append((vnode[(j, bottom)], vnode[(j, top)]))
    for k in range(n):
        lo_h, hi_h, _r = planar.row_span[k]
        jl = pos_col[k] if planar.col_pos[pos_col[k]] == lo_h else neg_col[k]
        jr = neg_col[k] if jl == pos_col[k] else pos_col[k]
        chain = row_cross[k]
        if chain:
            links.append((vnode[(jl, k)], port(chain[0], W)))
            links.append((port(chain[-1], E), vnode[(jr, k)]))
            for a, b in zip(chain, chain[1:]):
                links.append((port(a, E), port(b, W)))
        else:
            links.append((vnode[(jl, k)], vnode[(jr, k)]))

    size = 4 * c + 2 * n
    delta = LaurentPolynomial({8: -1, -8: -1})
    total = LaurentPolynomial.zero()
    for state in range(2 ** c):
        uf = _UF(size)
        for a, b in links:
            uf.union(a, b)
        a_count = 0
        for i in range(c):
            if (state >> i) & 1:  # A-smoothing joins N-E and S-W
                a_count += 1
                uf.union(port(i, N), port(i, E))
                uf.union(port(i, S), port(i, W))
            else:
                uf.union(port(i, N), port(i, W))
                uf.union(port(i, S), port(i, E))
        loops = len({uf.find(x) for x in range(size)})
        term = LaurentPolynomial.one().shifted(4 * (2 * a_count - c))
        for _ in range(loops - 1):
            term = term * delta
        total = total + term
    return total


def naive_jones(diagram: GridDiagram, cut=None) -> LaurentPolynomial:
    planar = to_planar(diagram, cut)
    w = sum(x.sign for x in planar.crossings)
    f = naive_bracket(diagram, cut).shifted(-12 * w, (-1) ** (w % 2))
    return f.substitute_inverse_fourth()


# ---------------------------------------------------------------------------
# Annulus membership by vertical boundary order on the meridian
# ---------------------------------------------------------------------------

def membership_oracle(annulus, point) -> str:
    """interior / on_b1 / on_b2 / outside by the nearest boundary crossings
    below and above the point on its meridian."""
    c = annulus.circumference
    p = Point(Fraction(point[0]), Fraction(point[1])).reduced(c)
    hits = []
    for tag, curve in (("on_b1", annulus.b1), ("on_b2", annulus.b2)):
        for h in ref_meridian_crossings(curve, p.theta):
            hits.append((tag, h))
    for tag, h in hits:
        if h == p.phi:
            return tag
    below = min(hits, key=lambda th: cyc_dist(th[1], p.phi, c))
    above = min(hits, key=lambda th: cyc_dist(p.phi, th[1], c))
    if below[0] == "on_b1" and above[0] == "on_b2":
        return "interior"
    return "outside"


# ---------------------------------------------------------------------------
# Brute-force elementary move scan, straight from the definitions
# ---------------------------------------------------------------------------

def brute_transitions(diagram: GridDiagram):
    """All (canonical target, kind) transitions by scanning every rectangle
    with corners on the half-integer lattice and both signs."""
    n = diagram.n
    levels = [Fraction(k, 2) for k in range(2 * n)]
    sigma = {}
    for j in range(n):
        sigma[Point(Fraction(j), Fraction(diagram.pos[j]))] = 1
        sigma[Point(Fraction(j), Fraction(diagram.neg[j]))] = -1
    out = set()
    for t1 in levels:
        for t2 in levels:
            if t1 == t2:
                continue
            for f1 in levels:
                for f2 in levels:
                    if f1 == f2:
                        continue
                    corners = [Point(t1, f1), Point(t2, f1), Point(t2, f2), Point(t1, f2)]
                    csig = {corners[0]: 1, corners[1]: -1, corners[2]: 1, corners[3]: -1}
                    inside = [p for p in sigma
                              if cyc_dist(t1, p.theta, n) <= cyc_dist(t1, t2, n)
                              and cyc_dist(f1, p.phi, n) <= cyc_dist(f1, f2, n)]
                    if any(p not in corners for p in inside):
                        continue
                    hit = [i for i, q in enumerate(corners) if q in sigma]
                    if len(hit) not in (1, 2, 3):
                        continue
                    if len(hit) == 2 and (hit[1] - hit[0]) % 4 == 2:
                        continue
                    for sign in (1, -1):
                        new = dict(sigma)
                        for q, s in csig.items():
                            new[q] = new.get(q, 0) - sign * s
                            if new[q] == 0:
                                del new[q]
                        if _is_diagram(new, n):
                            target = _renorm(new)
                            kind = ("stabilization", "exchange",
                                    "destabilization")[len(hit) - 1]
                            out.add((canonical_form(target), kind))
    return out


def brute_enumerate_elementary(diagram: GridDiagram):
    """(move, kind) for every legal move, deduplicated by (target, kind) in
    sorted rectangle order, from every rectangle on the doubled lattice that
    has a corner on a vertex: 4*(2n)^2 per vertex.  The moves of one kind, or
    of a set of kinds, are then exactly what enumerate_elementary returns for
    the matching filter."""
    n = diagram.n
    big = 2 * n
    verts = {}
    for j in range(n):
        verts[(2 * j, 2 * diagram.pos[j])] = 1
        verts[(2 * j, 2 * diagram.neg[j])] = -1
    rect_keys = set()
    for x, y in verts:
        for ta in range(big):
            for fa in range(big):
                for t1, t2, f1, f2 in ((x, ta, y, fa), (ta, x, y, fa),
                                       (ta, x, fa, y), (x, ta, fa, y)):
                    if t1 != t2 and f1 != f2:
                        rect_keys.add((t1, t2, f1, f2))
    kinds = (STABILIZATION, EXCHANGE, DESTABILIZATION)
    out = []
    seen = set()
    for t1, t2, f1, f2 in sorted(rect_keys):
        try:
            hit = _corner_hits(verts, t1, t2, f1, f2, big)
        except NotAnElementaryMove:
            continue
        kind = kinds[len(hit) - 1]
        corners = ((t1, f1), (t2, f1), (t2, f2), (t1, f2))
        sign = verts[corners[hit[0]]] * (1, -1, 1, -1)[hit[0]]
        new = dict(verts)
        _add_corner_signs(new, corners, -sign)
        try:
            target = _renormalize(new)
        except DiagramError:
            continue
        key = (canonical_form(target), kind)
        if key not in seen:
            seen.add(key)
            rect = Rectangle.of(Fraction(t1, 2), Fraction(t2, 2),
                                Fraction(f1, 2), Fraction(f2, 2))
            out.append((ElementaryMove(rect, sign), kind))
    return out


def ref_apply_elementary(diagram: GridDiagram, move: ElementaryMove) -> GridDiagram:
    """The move applied to the diagram's Fraction-keyed characteristic map."""
    if move.sign not in (1, -1):
        raise NotAnElementaryMove(f"sign {move.sign}")
    return from_characteristic(apply_move_to_map(characteristic(diagram), move))


def _is_diagram(sigma, n):
    cols, rows = {}, {}
    if not sigma:
        return False
    for p, v in sigma.items():
        if v not in (1, -1):
            return False
        cols.setdefault(p.theta, []).append(v)
        rows.setdefault(p.phi, []).append(v)
    return (all(sorted(v) == [-1, 1] for v in cols.values())
            and all(sorted(v) == [-1, 1] for v in rows.values()))


def _renorm(sigma):
    ts = sorted({p.theta for p in sigma})
    fs = sorted({p.phi for p in sigma})
    ti = {t: i for i, t in enumerate(ts)}
    fi = {f: i for i, f in enumerate(fs)}
    pos = [None] * len(ts)
    neg = [None] * len(ts)
    for p, v in sigma.items():
        if v == 1:
            pos[ti[p.theta]] = fi[p.phi]
        else:
            neg[ti[p.theta]] = fi[p.phi]
    return GridDiagram(len(ts), tuple(pos), tuple(neg))


# ---------------------------------------------------------------------------
# Omega membership by explicit polygon, even-odd rule in the lift
# ---------------------------------------------------------------------------

def _curve_walk(curve, x_start, x_end):
    """The lifted points of the curve over [x_start, x_end]: both ends and
    every kink between them."""
    xs = [x_start, *(x for x in ref_kinks_between(curve, x_start, x_end)
                     if x_start < x < x_end), x_end]
    return [(x, ref_y_at(curve, x)) for x in xs]


def omega_polygon_oracle(om):
    """Point-in-polygon test for Omega_v, built from its boundary walk."""
    c = om.circumference
    u0 = om.v
    x0, y0 = Fraction(u0.theta), Fraction(u0.phi)
    dx_co = cyc_dist(om.co.theta1, u0.theta, c)
    dy_co = cyc_dist(om.co.phi1, u0.phi, c)
    dx_rv = cyc_dist(om.rv.theta1, om.rv.theta2, c)
    dy_rv = cyc_dist(om.rv.phi1, om.rv.phi2, c)

    roof = _curve_walk(om.annulus.b2, *om.roof)
    floor = _curve_walk(om.annulus.b1, *om.floor)
    poly = [(x0, y0), (x0 - dx_co, y0)]
    rx, ry = roof[0]
    poly.extend((x0 - dx_co + (x - rx), y0 + (y - ry)) for x, y in roof[1:])
    poly.append((x0 + dx_rv, y0 + dy_rv))  # along the top edge to u1
    poly.append((x0 + dx_rv, y0))          # down the right edge
    fx, fy = floor[-1]
    poly.extend((x0 + dx_rv + (x - fx), y0 + (y - fy)) for x, y in reversed(floor[:-1]))
    # polygon closes back up the co right edge to u0

    xs = [p[0] for p in poly]
    ys = [p[1] for p in poly]

    def on_edge(px, py):
        k = len(poly)
        for i in range(k):
            (ax, ay), (bx, by) = poly[i], poly[(i + 1) % k]
            cross = (bx - ax) * (py - ay) - (by - ay) * (px - ax)
            if cross == 0 and min(ax, bx) <= px <= max(ax, bx) \
                    and min(ay, by) <= py <= max(ay, by):
                return True
        return False

    def inside_lift(px, py):
        if on_edge(px, py):
            return True
        count = 0
        k = len(poly)
        for i in range(k):
            (ax, ay), (bx, by) = poly[i], poly[(i + 1) % k]
            if (ay > py) != (by > py):
                xin = ax + (py - ay) * (bx - ax) / (by - ay)
                if px < xin:
                    count += 1
        return count % 2 == 1

    def member(point):
        px = reduce_mod(point[0], c)
        py = reduce_mod(point[1], c)
        a = ((min(xs) - px) / c).__ceil__()
        while px + a * c <= max(xs):
            b = ((min(ys) - py) / c).__ceil__()
            while py + b * c <= max(ys):
                if inside_lift(px + a * c, py + b * c):
                    return True
                b += 1
            a += 1
        return False

    return member


# ---------------------------------------------------------------------------
# Boundary-curve queries in Fraction arithmetic, segment by segment
# ---------------------------------------------------------------------------

def _segments(curve):
    p, q = curve.winding
    c = curve.circumference
    pts = list(curve.breakpoints)
    pts.append((pts[0][0] + p * c, pts[0][1] + q * c))
    return list(zip(pts, pts[1:]))


def ref_y_at(curve, x) -> Fraction:
    """Graph evaluation in the lift: y(x + pC) = y(x) + qC."""
    x = Fraction(x)
    p, q = curve.winding
    px, py = p * curve.circumference, q * curve.circumference
    k = (x - curve.breakpoints[0][0]) // px
    xr = x - k * px
    for (x1, y1), (x2, y2) in _segments(curve):
        if x1 <= xr <= x2:
            return y1 + (xr - x1) * (y2 - y1) / (x2 - x1) + k * py
    raise AssertionError("graph evaluation outside the period")


def ref_x_lifts_of(curve, theta):
    """The p lifted parameters over the meridian m_theta, one period."""
    c = curve.circumference
    x0 = curve.breakpoints[0][0]
    base = Fraction(theta) + ((x0 - Fraction(theta)) / c).__ceil__() * c
    out = []
    x = base
    while x < x0 + curve.winding[0] * c:
        out.append(x)
        x += c
    return out


def ref_lift_of(curve, point):
    """The first lift over the point's meridian at which the curve passes
    through the point, or None."""
    p = Point(Fraction(point[0]), Fraction(point[1])).reduced(curve.circumference)
    return next((x for x in ref_x_lifts_of(curve, p.theta)
                 if reduce_mod(ref_y_at(curve, x) - p.phi, curve.circumference) == 0), None)


def ref_contains_point(curve, point) -> bool:
    return ref_lift_of(curve, point) is not None


def ref_meridian_crossings(curve, theta):
    """Reduced heights of the p crossings with the meridian m_theta."""
    c = curve.circumference
    return [reduce_mod(ref_y_at(curve, x), c) for x in ref_x_lifts_of(curve, theta)]


def ref_longitude_crossings(curve, phi):
    """Reduced theta of the q crossings with the longitude l_phi."""
    c = curve.circumference
    phi = reduce_mod(phi, c)
    out = []
    for (x1, y1), (x2, y2) in _segments(curve):
        b = ((y1 - phi) / c).__ceil__()
        y = phi + b * c
        while y < y2:  # half-open in y: each crossing counted once
            if y >= y1:
                out.append(reduce_mod(x1 + (y - y1) * (x2 - x1) / (y2 - y1), c))
            y += c
    return out


def ref_kinks_between(curve, x_lo, x_hi):
    """Lifted x of all breakpoint copies in [x_lo, x_hi], ascending."""
    px = curve.winding[0] * curve.circumference
    out = set()
    for x, _y in curve.breakpoints:
        k = (Fraction(x_lo) - x) // px
        xx = x + k * px
        while xx <= x_hi:
            if xx >= x_lo:
                out.add(xx)
            xx += px
    return sorted(out)


def ref_graphs_avoid_lattice(low, high, skip_zero_shift):
    """True iff no lattice copy of ``high`` meets ``low``: for each shift a,
    d(x) = high(x + aC) - low(x) is evaluated at the sorted kinks of one
    period, and each piece between two of them is tested for a multiple of
    C in [lo, hi]."""
    if low.winding != high.winding or low.circumference != high.circumference:
        return False
    c = low.circumference
    p = low.winding[0]
    x_lo = low.breakpoints[0][0]
    x_hi = x_lo + p * c
    for a in range(p):
        if skip_zero_shift and a == 0:
            continue
        shift = a * c
        xs = set(ref_kinks_between(low, x_lo, x_hi))
        xs.update(x - shift for x in ref_kinks_between(high, x_lo + shift, x_hi + shift))
        xs = sorted(xs)
        vals = [ref_y_at(high, x + shift) - ref_y_at(low, x) for x in xs]
        for d1, d2 in zip(vals, vals[1:]):
            lo, hi = (d1, d2) if d1 <= d2 else (d2, d1)
            if (lo / c).__ceil__() * c <= hi:
                return False
    return True


def _level(direction, theta, phi):
    dx, dy = direction
    if dx and dy:
        return theta + phi
    return phi if dx else theta


def ref_first_hit(annulus, x, direction):
    """First boundary point on {x + t*direction : t > 0} as (tag, point, t),
    by scanning every segment for the copies of the ray's level on it."""
    c = annulus.circumference
    dx, dy = direction
    theta, phi = Fraction(x[0]), Fraction(x[1])
    target = _level(direction, theta, phi)
    best = None
    for tag, curve in annulus.curves():
        for (x1, y1), (x2, y2) in _segments(curve):
            g1, g2 = _level(direction, x1, y1), _level(direction, x2, y2)
            val = target - ((target - g1) // c) * c  # least val >= g1
            while val < g2:  # half-open [g1, g2): each crossing counted once
                s = (val - g1) / (g2 - g1)
                if dx:
                    d = x1 + s * (x2 - x1) - theta
                    t = reduce_mod(d if dx > 0 else -d, c)
                else:
                    d = y1 + s * (y2 - y1) - phi
                    t = reduce_mod(d if dy > 0 else -d, c)
                if t != 0 and (best is None or t < best[0]):
                    best = (t, tag, (x1, y1), (x2, y2), s)
                val += c
    if best is None:
        raise AssertionError(f"the {direction} ray missed the boundary")
    t, tag, (x1, y1), (x2, y2), s = best
    return tag, Point(reduce_mod(x1 + s * (x2 - x1), c), reduce_mod(y1 + s * (y2 - y1), c)), t


def ref_rect_in_annulus(annulus, rect) -> bool:
    """Closed containment r <= A by crossing every lattice copy of every
    boundary segment with the open box, then locating the center."""
    c = annulus.circumference
    t1, f1 = reduce_mod(rect.theta1, c), reduce_mod(rect.phi1, c)
    bx1, bx2 = t1, t1 + cyc_dist(rect.theta1, rect.theta2, c)
    by1, by2 = f1, f1 + cyc_dist(rect.phi1, rect.phi2, c)
    for _tag, curve in annulus.curves():
        for (x1, y1), (x2, y2) in _segments(curve):
            for a in range(((bx1 - x2) / c).__ceil__(), ((bx2 - x1) / c).__floor__() + 1):
                for b in range(((by1 - y2) / c).__ceil__(), ((by2 - y1) / c).__floor__() + 1):
                    sx1, sy1 = x1 + a * c, y1 + b * c
                    sx2, sy2 = x2 + a * c, y2 + b * c
                    if sx2 <= bx1 or sx1 >= bx2 or sy2 <= by1 or sy1 >= by2:
                        continue
                    # the segment parameters with the point strictly inside the box
                    dx, dy = sx2 - sx1, sy2 - sy1
                    s_lo = max((bx1 - sx1) / dx, (by1 - sy1) / dy, Fraction(0))
                    s_hi = min((bx2 - sx1) / dx, (by2 - sy1) / dy, Fraction(1))
                    if s_lo < s_hi:
                        return False
    center = Point(reduce_mod((bx1 + bx2) / 2, c), reduce_mod((by1 + by2) / 2, c))
    return locate(annulus, center) == INTERIOR


# ---------------------------------------------------------------------------
# Annulus validation over Fraction points, and the flype on the Fraction map
# ---------------------------------------------------------------------------

def ref_validate_annulus(annulus, diagram) -> None:
    """Conditions 1-3 checked point by point in ``Fraction`` arithmetic; the
    same checks, in the same order, as ``validate_annulus``."""
    m = _diagram_map(diagram)
    if m.circumference != annulus.circumference:
        raise AnnulusInvalid("circumference mismatch with the diagram")
    if not m.is_diagram():
        raise AnnulusInvalid("the supplied map is not a diagram characteristic")
    used_theta = sorted({p.theta for p in m.entries})
    used_phi = sorted({p.phi for p in m.entries})
    is_vertex = lambda p: m[p] != 0

    # condition 2 plus the meridian half of condition 3
    on_used_meridians = {}
    for theta in used_theta:
        points = []
        for _tag, curve in annulus.curves():
            points.extend(Point(reduce_mod(theta, m.circumference), h)
                          for h in ref_meridian_crossings(curve, theta))
        for p in points:
            if p.phi in used_phi and not is_vertex(p):
                raise BoundaryHitsCrossing(p)
        at_used = sorted({p for p in points if p.phi in used_phi})
        if len(at_used) > 2:
            raise ForbiddenPair(at_used[0], at_used[1], "meridian")
        if len(at_used) == 2 and not (is_vertex(at_used[0]) and is_vertex(at_used[1])):
            raise ForbiddenPair(at_used[0], at_used[1], "meridian")
        on_used_meridians[theta] = points

    # longitude half of condition 3
    by_phi = {}
    for theta, points in on_used_meridians.items():
        for p in points:
            by_phi.setdefault(p.phi, []).append(p)
    for phi, group in by_phi.items():
        group = sorted(set(group))
        if len(group) < 2:
            continue
        if len(group) > 2:
            raise ForbiddenPair(group[0], group[1], "longitude")
        if not (is_vertex(group[0]) and is_vertex(group[1])):
            raise ForbiddenPair(group[0], group[1], "longitude")

    # meridian half applied to boundary points on used longitudes
    by_theta = {}
    for phi in used_phi:
        points = []
        for _tag, curve in annulus.curves():
            points.extend(Point(h, reduce_mod(phi, m.circumference))
                          for h in ref_longitude_crossings(curve, phi))
        for p in points:
            if p.theta in used_theta and not is_vertex(p):
                raise BoundaryHitsCrossing(p)
        for p in points:
            by_theta.setdefault(p.theta, []).append(p)
    for theta, group in by_theta.items():
        group = sorted(set(group))
        if len(group) < 2:
            continue
        if len(group) > 2:
            raise ForbiddenPair(group[0], group[1], "meridian")
        if not (is_vertex(group[0]) and is_vertex(group[1])):
            raise ForbiddenPair(group[0], group[1], "meridian")


def ref_apply_multiflype(diagram: GridDiagram, spec) -> GridDiagram:
    """The flype summed on the diagram's Fraction-keyed characteristic map."""
    return from_characteristic(apply_multiflype_map(characteristic(diagram), spec))


def ref_flype_neighbors(diagram: GridDiagram):
    """The search's flype neighbours, each direction through the reference
    flype, which validates the pair again."""
    out = []
    m = characteristic(diagram)
    for ann in _staircase_family(diagram.n):
        try:
            ref_validate_annulus(ann, m)
        except FlypeError:
            continue
        for direction in ("NE", "SW"):
            try:
                got = ref_apply_multiflype(diagram, MultiflypeSpec(ann, direction))
            except FlypeError:
                continue
            if got.n == diagram.n:
                out.append(got)
    return out


# ---------------------------------------------------------------------------
# The sweep path with every used grid point of its box as an obstacle
# ---------------------------------------------------------------------------

def _ref_at_x(pts, x):
    """Height of the descending PL path through ``pts`` at x, by a linear
    scan of its segments."""
    for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
        if x2 <= x <= x1:
            return y2 + (x - x2) * (y1 - y2) / (x1 - x2)
    raise AssertionError("sweep evaluation outside the path")


def ref_build_sweep_path(m, annulus, u0, om):
    """``build_sweep_path`` by its first form: every lifted used grid point
    of the box (x1, x0) x (y1, y0) is an obstacle, and each round dodges the
    least one, in sorted order, that lies on the path."""
    c = annulus.circumference
    p, q = annulus.winding
    u1 = om.v_bar
    x0, y0 = Fraction(u0.theta), Fraction(u0.phi)
    x1 = x0 + cyc_dist(u0.theta, u1.theta, c) - p * c
    y1 = y0 + cyc_dist(u0.phi, u1.phi, c) - q * c

    below = above = None
    for tag, curve in annulus.curves():
        for a in range(p):
            base = ref_y_at(curve, x0 - a * c)
            bb = (y0 - base) // c
            lo_val, hi_val = base + bb * c, base + (bb + 1) * c
            if below is None or lo_val > below[0]:
                below = (lo_val, tag, curve, a, bb)
            if above is None or hi_val < above[0]:
                above = (hi_val, tag, curve, a, bb + 1)

    def floor_at(x, _cv=below[2], _a=below[3], _b=below[4]):
        return ref_y_at(_cv, x - _a * c) + _b * c

    def ceil_at(x, _cv=above[2], _a=above[3], _b=above[4]):
        return ref_y_at(_cv, x - _a * c) + _b * c

    xs = {x0, x1}
    for _val, _tag, curve, a, _b in (below, above):
        xs.update(x + a * c for x in ref_kinks_between(curve, x1 - a * c, x0 - a * c))
    for fn, target in ((floor_at, y1), (ceil_at, y0)):
        knots = sorted(set(xs))
        for a, b in zip(knots, knots[1:]):
            fa, fb = fn(a), fn(b)
            if (fa - target) * (fb - target) < 0:
                xs.add(a + (target - fa) * (b - a) / (fb - fa))
    xs = sorted(x for x in xs if x1 <= x <= x0)
    span = x0 - x1
    pts = []
    for x in xs:
        lo = max(floor_at(x), y1)
        hi = min(ceil_at(x), y0)
        pts.append((x, lo + (hi - lo) * (x - x1) / span))
    pts.reverse()

    used_t = {pt.theta for pt in m.entries}
    used_f = {pt.phi for pt in m.entries}
    obstacles = set()
    for t in used_t:
        x = t + ((x1 - t) // c + 1) * c
        while x < x0:
            if x > x1:
                for f in used_f:
                    y = f + ((y1 - f) // c + 1) * c
                    while y < y0:
                        if y > y1:
                            obstacles.add((x, y))
                        y += c
            x += c

    for _round in range(200):
        bad = next((ob for ob in sorted(obstacles) if _ref_at_x(pts, ob[0]) == ob[1]), None)
        if bad is None:
            return SweepPath(tuple(pts), c)
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
        assert next_y < nudged < prev_y and lo < nudged < hi
        if replace is not None:
            pts[replace] = (bx, nudged)
        else:
            pts.insert(idx, (bx, nudged))
    raise AssertionError("sweep obstacle dodging did not terminate")


# ---------------------------------------------------------------------------
# The public chain with a level map advanced by counting levels
# ---------------------------------------------------------------------------

def ref_public_chain(source: GridDiagram, maps, moves) -> MoveCertificate:
    """Renormalized certificate: each step target is literally apply_elementary
    of the previous step.

    A persistent order bijection from internal levels to public levels is
    maintained: used levels map through it and a fresh level goes to the
    midpoint of the corresponding public gap.  (Renormalization anchors level
    indices at coordinate representatives, so independently renormalizing
    each internal map could differ from this chain by a torus translation
    whenever a fresh level wraps past the representative cut; the chain form
    keeps every step equation exact.)
    """
    levels = [({p.theta for p in mm.entries}, {p.phi for p in mm.entries}) for mm in maps]
    t_map = {lvl: lvl for lvl in sorted(levels[0][0])}
    f_map = {lvl: lvl for lvl in sorted(levels[0][1])}
    current_pub = from_characteristic(maps[0])
    if current_pub != source:
        raise InternalInvariantBroken("source diagram is not normalized")
    steps = []
    for mv, after, (t_before, f_before), (t_after, f_after) in zip(
            moves, maps[1:], levels, levels[1:]):
        n_pub = current_pub.n
        pub_rect = Rectangle.of(
            _ref_convert_level(mv.rect.theta1, t_map, n_pub),
            _ref_convert_level(mv.rect.theta2, t_map, n_pub),
            _ref_convert_level(mv.rect.phi1, f_map, n_pub),
            _ref_convert_level(mv.rect.phi2, f_map, n_pub))
        pub_move = ElementaryMove(pub_rect, mv.sign)
        next_pub = apply_elementary(current_pub, pub_move)
        if not translate_equal(next_pub, from_characteristic(after)):
            raise InternalInvariantBroken("public step drifted off the flype")
        t_map = _ref_advance_level_map(t_map, t_before, t_after,
                                       pub_rect.theta1, pub_rect.theta2)
        f_map = _ref_advance_level_map(f_map, f_before, f_after,
                                       pub_rect.phi1, pub_rect.phi2)
        steps.append((pub_move, next_pub))
        current_pub = next_pub
    return MoveCertificate(source, tuple(steps), current_pub)


def _ref_convert_level(x, level_map, n_pub):
    """Internal level to public coordinate through the order bijection."""
    if x in level_map:
        return level_map[x]
    levels = sorted(level_map)
    below = [lvl for lvl in levels if lvl < x]
    lo = below[-1] if below else levels[-1]
    hi = levels[(levels.index(lo) + 1) % len(levels)]
    a = level_map[lo]
    return reduce_mod(a + cyc_dist(a, level_map[hi], n_pub) / 2, n_pub)


def _ref_advance_level_map(level_map, before_levels, after_levels, pub1, pub2):
    """Update the internal-to-public level bijection across one public apply.
    Public levels, like the move's public sides pub1 and pub2, are
    ``Fraction``s."""
    removed = before_levels - after_levels
    added = after_levels - before_levels
    if len(removed) > 1 or len(added) > 1:
        raise InternalInvariantBroken("a move changed more than one level per axis")
    pub_before = {level_map[x] for x in before_levels}
    pub_removed = {level_map[x] for x in removed}
    pub_added = sorted({p for p in (pub1, pub2) if p.denominator != 1 or p not in pub_before})
    if len(pub_added) != len(added):
        raise InternalInvariantBroken("fresh level mismatch in the public frame")
    survivors = {}
    for x in before_levels & after_levels:
        v = level_map[x]
        survivors[x] = v - sum(1 for r in pub_removed if r < v) \
            + sum(1 for a in pub_added if a < v)
    for x in added:
        a = pub_added[0]
        survivors[x] = Fraction(sum(1 for y in before_levels - removed
                                    if level_map[y] < a))
    return survivors
