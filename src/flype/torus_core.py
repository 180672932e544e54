"""Grid diagrams on the torus over exact rational coordinates.

A diagram of grid number n lives on the torus R^2/(nZ)^2.  Its vertices sit on
the integer lattice, one positive and one negative vertex on every used
meridian ``{theta} x S^1`` and longitude ``S^1 x {phi}``.  Vertical arcs join
the two vertices of a column and go over at every crossing; they are oriented
from the positive vertex to the negative one, horizontal arcs the other way.

All coordinates are ``fractions.Fraction``.  No floating point is used
anywhere, so every incidence predicate in this package is an exact comparison.
Rendering convention: positive vertices print as ``X``, negative as ``O``
(this choice is internal; the literature uses both assignments).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, NamedTuple

from .errors import (
    CoincidentVertices,
    ColumnCountMismatch,
    CutThroughVertex,
    EmptySet,
    GridSyntaxError,
    OutOfRangeValue,
    RowCountMismatch,
)

Coord = Fraction  # exact rational in [0; C), reduction is canonical


def reduce_mod(x, circumference) -> Fraction:
    """Canonical representative of x in [0; circumference)."""
    if not isinstance(x, Fraction):
        x = Fraction(x)
    if 0 <= x < circumference:
        return x
    return x - (x // circumference) * circumference


def cyc_dist(a, b, circumference) -> Fraction:
    """Length of the forward interval from a to b."""
    return reduce_mod(Fraction(b) - Fraction(a), circumference)


def _min_gap(values, circumference) -> Fraction:
    """Shortest gap between the distinct reduced values, cyclically; the
    whole circumference when there are fewer than two."""
    vals = sorted({reduce_mod(v, circumference) for v in values})
    if len(vals) < 2:
        return Fraction(circumference)
    gaps = [b - a for a, b in zip(vals, vals[1:])]
    gaps.append(vals[0] + circumference - vals[-1])
    return min(gaps)


def in_cyclic(start, end, x, circumference, closed=True) -> bool:
    """Membership of x in the interval traversed forward from start to end."""
    d_end = cyc_dist(start, end, circumference)
    d_x = cyc_dist(start, x, circumference)
    if closed:
        return d_x <= d_end
    return 0 < d_x < d_end


class Point(NamedTuple):
    """A point of the torus; equality is componentwise on reduced coordinates."""

    theta: Fraction
    phi: Fraction

    def reduced(self, circumference) -> "Point":
        return Point(reduce_mod(self.theta, circumference),
                     reduce_mod(self.phi, circumference))


def pt(theta, phi) -> Point:
    return Point(Fraction(theta), Fraction(phi))


@dataclass(frozen=True)
class CyclicInterval:
    """[start; end] traversed forward from start, closed or open."""

    start: Fraction
    end: Fraction
    closed: bool = True

    def __post_init__(self):
        if self.start == self.end:
            raise ValueError("degenerate cyclic interval")

    def contains(self, x, circumference) -> bool:
        return in_cyclic(self.start, self.end, x, circumference, self.closed)

    def length(self, circumference) -> Fraction:
        return cyc_dist(self.start, self.end, circumference)


@dataclass(frozen=True)
class Rectangle:
    """[theta1; theta2] x [phi1; phi2] with the signed corner pattern of R(r).

    sigma assigns +1 to the corners (theta1, phi1), (theta2, phi2) and -1 to
    (theta1, phi2), (theta2, phi1); this is the characteristic function of the
    trivial diagram spanned by the rectangle.
    """

    theta_iv: CyclicInterval
    phi_iv: CyclicInterval

    @staticmethod
    def of(theta1, theta2, phi1, phi2) -> "Rectangle":
        return Rectangle(CyclicInterval(Fraction(theta1), Fraction(theta2)),
                         CyclicInterval(Fraction(phi1), Fraction(phi2)))

    @property
    def theta1(self):
        return self.theta_iv.start

    @property
    def theta2(self):
        return self.theta_iv.end

    @property
    def phi1(self):
        return self.phi_iv.start

    @property
    def phi2(self):
        return self.phi_iv.end

    def corners(self) -> tuple:
        """Corners v1..v4 counterclockwise, v1 the start corner."""
        return (Point(self.theta1, self.phi1), Point(self.theta2, self.phi1),
                Point(self.theta2, self.phi2), Point(self.theta1, self.phi2))

    def contains(self, p: Point, circumference, closed=True) -> bool:
        return (in_cyclic(self.theta1, self.theta2, p.theta, circumference, closed)
                and in_cyclic(self.phi1, self.phi2, p.phi, circumference, closed))


class SignedPointMap:
    """Finitely supported Z-valued function on the torus; zero entries vanish."""

    __slots__ = ("entries", "circumference")

    def __init__(self, circumference, entries=None):
        self.circumference = circumference
        self.entries = {}
        if entries:
            for p, v in (entries.items() if isinstance(entries, dict) else entries):
                self[p] = self[p] + v

    def __getitem__(self, p: Point) -> int:
        return self.entries.get(Point(Fraction(p[0]), Fraction(p[1])).reduced(self.circumference), 0)

    def __setitem__(self, p: Point, v: int):
        q = Point(Fraction(p[0]), Fraction(p[1])).reduced(self.circumference)
        if v == 0:
            self.entries.pop(q, None)
        else:
            self.entries[q] = v

    def copy(self) -> "SignedPointMap":
        m = SignedPointMap(self.circumference)
        m.entries = dict(self.entries)
        return m

    def __add__(self, other: "SignedPointMap") -> "SignedPointMap":
        if self.circumference != other.circumference:
            raise ValueError("circumference mismatch")
        m = self.copy()
        for p, v in other.entries.items():
            m[p] = m[p] + v
        return m

    def __sub__(self, other: "SignedPointMap") -> "SignedPointMap":
        if self.circumference != other.circumference:
            raise ValueError("circumference mismatch")
        m = self.copy()
        for p, v in other.entries.items():
            m[p] = m[p] - v
        return m

    def __eq__(self, other):
        return (isinstance(other, SignedPointMap)
                and self.circumference == other.circumference
                and self.entries == other.entries)

    def __iter__(self):
        return iter(sorted(self.entries.items()))

    def __len__(self):
        return len(self.entries)

    def add_rectangle(self, rect: Rectangle, coeff: int):
        """Add coeff * sigma_rect in place."""
        c = self.circumference
        _add_corner_signs(self.entries, [q.reduced(c) for q in rect.corners()], coeff)

    def is_diagram(self) -> bool:
        """True iff this is the characteristic function of some grid diagram."""
        if not self.entries:
            return False
        cols, rows = {}, {}
        for p, v in self.entries.items():
            if v not in (1, -1):
                return False
            cols.setdefault(p.theta, []).append(v)
            rows.setdefault(p.phi, []).append(v)
        return (all(sorted(vs) == [-1, 1] for vs in cols.values())
                and all(sorted(vs) == [-1, 1] for vs in rows.values()))


def _add_corner_signs(entries: dict, corners, coeff: int):
    """Add coeff * (+1, -1, +1, -1) at the corners v1..v4 of a rectangle, in
    place; entries that reach zero vanish.  Corners must be keyed as entries are."""
    for q, s in zip(corners, (1, -1, 1, -1)):
        v = entries.get(q, 0) + coeff * s
        if v:
            entries[q] = v
        else:
            entries.pop(q, None)


def sigma_of_rectangle(rect: Rectangle, circumference) -> SignedPointMap:
    m = SignedPointMap(circumference)
    m.add_rectangle(rect, 1)
    return m


def map_symmetry(m: SignedPointMap, s: str) -> SignedPointMap:
    """Image of a point map under flip_theta / flip_phi / both / transpose."""
    if s not in ("flip_theta", "flip_phi", "both", "transpose"):
        raise ValueError(f"unknown symmetry {s!r}")
    out = SignedPointMap(m.circumference)
    for p, v in m.entries.items():
        theta, phi = p.theta, p.phi
        if s == "transpose":
            theta, phi = phi, theta
        else:
            if s in ("flip_theta", "both"):
                theta = -theta
            if s in ("flip_phi", "both"):
                phi = -phi
        out[Point(theta, phi)] = v
    return out


# ---------------------------------------------------------------------------
# Grid diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridDiagram:
    """Oriented rectangular diagram normalized to integer levels 0..n-1.

    pos[j] / neg[j] is the row of the positive / negative vertex in column j.
    Both are permutations of 0..n-1 and differ in every column.
    """

    n: int
    pos: tuple
    neg: tuple

    def __post_init__(self):
        n = self.n
        if n < 2:
            raise RowCountMismatch(f"grid number {n} < 2")
        for name, perm in (("pos", self.pos), ("neg", self.neg)):
            if len(perm) != n or sorted(perm) != list(range(n)):
                raise ColumnCountMismatch(f"{name} is not a permutation of 0..{n - 1}")
        for j in range(n):
            if self.pos[j] == self.neg[j]:
                raise CoincidentVertices(f"column {j} has coincident +/- vertices")

    @staticmethod
    def make(pos: Iterable[int], neg: Iterable[int]) -> "GridDiagram":
        pos, neg = tuple(pos), tuple(neg)
        return GridDiagram(len(pos), pos, neg)

    def vertices(self):
        """All (Point, sign) with integer Fraction coordinates."""
        out = []
        for j in range(self.n):
            out.append((pt(j, self.pos[j]), 1))
            out.append((pt(j, self.neg[j]), -1))
        return out

    def sign_at(self, p: Point) -> int:
        q = p.reduced(self.n)
        if q.theta.denominator != 1 or q.phi.denominator != 1:
            return 0
        j, k = int(q.theta), int(q.phi)
        if 0 <= j < self.n:
            if self.pos[j] == k:
                return 1
            if self.neg[j] == k:
                return -1
        return 0


def validate_diagram(points) -> GridDiagram:
    """Build a GridDiagram from a set of ((theta, phi), sign) pairs.

    Used coordinate levels are renormalized, order preserved, to 0..n-1; only
    the cyclic order of levels matters for the diagram type.
    """
    seen = {}
    for (theta, phi), sign in points:
        if sign not in (1, -1):
            raise OutOfRangeValue(f"sign {sign} not in {{-1, +1}}")
        p = Point(Fraction(theta), Fraction(phi))
        if p in seen and seen[p] != sign:
            raise CoincidentVertices(f"+ and - vertex at {p}")
        seen[p] = sign
    return _renormalize(seen)


def _renormalize(entries: dict) -> GridDiagram:
    """The diagram of a vertex map {(theta, phi): sign}, levels renumbered in
    order to 0..n-1.  Coordinates may be of any one exact type (Fraction
    levels, or the integers of a rescaled lattice)."""
    if not entries:
        raise EmptySet("no vertices")
    cols, rows = {}, {}
    for p, v in entries.items():
        if v not in (1, -1):
            raise OutOfRangeValue(f"value {v} at {p}")
        cols.setdefault(p[0], []).append(v)
        rows.setdefault(p[1], []).append(v)
    for t, vs in cols.items():
        if sorted(vs) != [-1, 1]:
            raise ColumnCountMismatch(f"meridian {t} does not carry exactly one + and one -")
    for f, vs in rows.items():
        if sorted(vs) != [-1, 1]:
            raise RowCountMismatch(f"longitude {f} does not carry exactly one + and one -")
    tindex = {t: i for i, t in enumerate(sorted(cols))}
    pindex = {f: i for i, f in enumerate(sorted(rows))}
    pos = [None] * len(tindex)
    neg = [None] * len(tindex)
    for (theta, phi), v in entries.items():
        (pos if v == 1 else neg)[tindex[theta]] = pindex[phi]
    return GridDiagram(len(pos), tuple(pos), tuple(neg))


def characteristic(diagram: GridDiagram) -> SignedPointMap:
    """The +-1-valued map sigma_R recording vertex positions and signs."""
    m = SignedPointMap(diagram.n)
    entries = m.entries  # integer levels 0..n-1 are already reduced
    for j in range(diagram.n):
        theta = Fraction(j)
        entries[Point(theta, Fraction(diagram.pos[j]))] = 1
        entries[Point(theta, Fraction(diagram.neg[j]))] = -1
    return m


def from_characteristic(m: SignedPointMap) -> GridDiagram:
    return _renormalize(m.entries)


def edges(diagram: GridDiagram):
    """(vertical, horizontal) edges, each as a (positive Point, negative Point) pair."""
    vertical = [(pt(j, diagram.pos[j]), pt(j, diagram.neg[j])) for j in range(diagram.n)]
    pos_col = {diagram.pos[j]: j for j in range(diagram.n)}
    neg_col = {diagram.neg[j]: j for j in range(diagram.n)}
    horizontal = [(pt(pos_col[k], k), pt(neg_col[k], k)) for k in range(diagram.n)]
    return vertical, horizontal


def crossings(diagram: GridDiagram) -> set:
    """All n^2 - 2n used grid points that are not vertices."""
    verts = {p for p, _ in diagram.vertices()}
    return {pt(j, k) for j in range(diagram.n) for k in range(diagram.n)} - verts


def complexity(diagram: GridDiagram) -> int:
    """Number of vertical edges; the quantity monotonic simplification never increases."""
    return diagram.n


def apply_symmetry(diagram: GridDiagram, s: str) -> GridDiagram:
    """Apply flip_theta (theta -> -theta), flip_phi, or both; signs preserved."""
    if s not in ("flip_theta", "flip_phi", "both"):
        raise ValueError(f"unknown symmetry {s!r}")
    n = diagram.n
    points = []
    for p, sign in diagram.vertices():
        theta, phi = p.theta, p.phi
        if s in ("flip_theta", "both"):
            theta = reduce_mod(-theta, n)
        if s in ("flip_phi", "both"):
            phi = reduce_mod(-phi, n)
        points.append(((theta, phi), sign))
    return validate_diagram(points)


def canonical_form(diagram: GridDiagram) -> bytes:
    """Lexicographically minimal encoding ``n, pos, neg`` over all n^2 torus
    translations.

    Constant exactly on translation orbits; symmetries and rotations are not
    quotiented out (they may change the diagram type).  An encoding begins
    with the shifted row of the first column's positive vertex, and that row
    is 0 for exactly one row shift, so the minimum is among the n candidates
    that shift columns by a and rows by pos[a].  Levels are encoded as bytes,
    so the grid number must be at most 255.
    """
    n = diagram.n
    if n > 255:
        raise OutOfRangeValue(f"grid number {n} > 255 has no canonical form")
    pos, neg = diagram.pos, diagram.neg
    return min(bytes([n, *((v - pos[a]) % n for v in pos[a:] + pos[:a] + neg[a:] + neg[:a])])
               for a in range(n))


def translate_equal(d1: GridDiagram, d2: GridDiagram) -> bool:
    return d1.n == d2.n and canonical_form(d1) == canonical_form(d2)


# ---------------------------------------------------------------------------
# Serialization
# ---------------------------------------------------------------------------

def serialize(diagram: GridDiagram) -> str:
    return ("grid {}\n+ {}\n- {}\n".format(
        diagram.n,
        " ".join(str(v) for v in diagram.pos),
        " ".join(str(v) for v in diagram.neg)))


def parse(text: str) -> GridDiagram:
    """Parse the grid file format; inverse of serialize on canonical files."""
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if len(lines) != 3:
        raise GridSyntaxError(f"expected 3 content lines, got {len(lines)}")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "grid":
        raise GridSyntaxError(f"bad header {lines[0]!r}")
    try:
        n = int(head[1])
    except ValueError:
        raise GridSyntaxError(f"bad grid number {head[1]!r}") from None
    rows = {}
    for ln in lines[1:]:
        parts = ln.split()
        if not parts or parts[0] not in ("+", "-"):
            raise GridSyntaxError(f"bad vertex line {ln!r}")
        try:
            rows[parts[0]] = [int(v) for v in parts[1:]]
        except ValueError:
            raise GridSyntaxError(f"bad vertex line {ln!r}") from None
    if set(rows) != {"+", "-"} or any(len(v) != n for v in rows.values()):
        raise GridSyntaxError("need one + line and one - line of length n")
    points = [((j, rows["+"][j]), 1) for j in range(n)] + \
             [((j, rows["-"][j]), -1) for j in range(n)]
    diagram = validate_diagram(points)
    if (diagram.pos, diagram.neg) != (tuple(rows["+"]), tuple(rows["-"])):
        raise GridSyntaxError("vertex rows out of range 0..n-1")
    return diagram


def render_ascii(diagram: GridDiagram) -> str:
    """n x n picture, X positive, O negative, row 0 at the bottom."""
    lines = []
    for k in range(diagram.n - 1, -1, -1):
        row = []
        for j in range(diagram.n):
            if diagram.pos[j] == k:
                row.append("X")
            elif diagram.neg[j] == k:
                row.append("O")
            else:
                row.append(".")
        lines.append("".join(row))
    return "\n".join(lines)


# ---------------------------------------------------------------------------
# Planar diagrams
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PlanarCrossing:
    col: int        # vertical (over) arc
    row: int        # horizontal (under) arc
    over_up: bool   # over strand travels upward
    under_right: bool
    sign: int


@dataclass(frozen=True)
class PlanarDiagram:
    """Combinatorial planar diagram obtained by cutting the torus open.

    Arc spans are stored in cut coordinates (level minus cut, mod n, in (0; n)),
    so every arc is the straight segment between its two vertices inside the
    square.  Gauss-code equivalent: crossings identify their over and under
    arcs by column / row index together with travel directions.
    """

    n: int
    cut: tuple
    col_span: tuple   # per column: (c_low, c_high, over_up)
    row_span: tuple   # per row:    (c_low, c_high, under_right)
    col_pos: tuple    # cut coordinate of each used meridian
    row_pos: tuple
    crossings: tuple
    components: int


def _component_count(diagram: GridDiagram) -> int:
    n = diagram.n
    pos_col = {diagram.pos[j]: j for j in range(n)}
    neg_col = {diagram.neg[j]: j for j in range(n)}
    seen = set()
    comps = 0
    for j0 in range(n):
        if j0 in seen:
            continue
        comps += 1
        j = j0
        while j not in seen:
            seen.add(j)
            # vertical edge of column j ends at the negative vertex, the
            # horizontal edge of that row leads to its positive vertex.
            j = pos_col[diagram.neg[j]]
    return comps


def to_planar(diagram: GridDiagram, cut=None) -> PlanarDiagram:
    """Cut the torus along a vertex-free meridian and longitude and read off
    the resulting planar link diagram; vertical arcs overcross everywhere.
    """
    n = diagram.n
    if cut is None:
        cut = (Fraction(-1, 2), Fraction(-1, 2))
    tc, pc = reduce_mod(cut[0], n), reduce_mod(cut[1], n)
    if tc.denominator == 1 or pc.denominator == 1:
        raise CutThroughVertex(f"cut ({tc}, {pc}) meets a used level")
    ctheta = tuple(reduce_mod(Fraction(j) - tc, n) for j in range(n))
    cphi = tuple(reduce_mod(Fraction(k) - pc, n) for k in range(n))

    col_span = []
    for j in range(n):
        a, b = cphi[diagram.pos[j]], cphi[diagram.neg[j]]
        col_span.append((min(a, b), max(a, b), a < b))  # up iff + below -
    pos_col = {diagram.pos[j]: j for j in range(n)}
    neg_col = {diagram.neg[j]: j for j in range(n)}
    row_span = []
    for k in range(n):
        a, b = ctheta[neg_col[k]], ctheta[pos_col[k]]
        row_span.append((min(a, b), max(a, b), a < b))  # right iff - left of +

    found = []
    for j in range(n):
        lo_v, hi_v, up = col_span[j]
        for k in range(n):
            lo_h, hi_h, right = row_span[k]
            if lo_v < cphi[k] < hi_v and lo_h < ctheta[j] < hi_h:
                sign = -1 if up == right else 1
                found.append(PlanarCrossing(j, k, up, right, sign))
    return PlanarDiagram(n, (tc, pc), tuple(col_span), tuple(row_span),
                         ctheta, cphi, tuple(found), _component_count(diagram))


UNKNOT2 = GridDiagram.make((0, 1), (1, 0))
TREFOIL5 = GridDiagram.make((0, 1, 2, 3, 4), (2, 3, 4, 0, 1))
