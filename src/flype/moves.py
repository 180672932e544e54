"""Elementary moves: stabilizations, exchanges, destabilizations.

A move is carried by a rectangle r and a sign e; it sends sigma_R to
sigma_R - e*sigma_r.  It is legal when the diagram meets the closed rectangle
in one, two, or three cyclically successive corners and nothing else, and the
resulting map is again a diagram characteristic.  One corner gains a level
(stabilization, n+1), two keep n (exchange), three drop a level
(destabilization, n-1).

New coordinate levels are enumerated at half-integers, one per gap between
used levels; since only cyclic order matters, this is exhaustive up to
renormalization.  The enumeration works on the doubled-integer lattice.
Exchanges and destabilizations are built from vertex pairs: two successive
corners share a side, so they are the two vertices of one column or of one
row, and the opposite side ranges over the lattice.  Stabilizations have a
single vertex corner and keep the scan over every rectangle with a corner on
a vertex.  apply_elementary scales the diagram and the rectangle by the least
common multiple D of the rectangle's denominators and works on integers.
Both, and corner_pattern on the rational maps of the decomposition, go
through one corner check (``_corner_hits``), one corner-sign update and one
renormalizer (``torus_core._renormalize``).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .errors import DiagramError, GridSyntaxError, InvalidResult, NotAnElementaryMove
from .torus_core import (
    GridDiagram,
    Point,
    Rectangle,
    SignedPointMap,
    _add_corner_signs,
    _common_denominator,
    _renormalize,
    canonical_form,
    characteristic,
    translate_equal,
)

STABILIZATION = "stabilization"
EXCHANGE = "exchange"
DESTABILIZATION = "destabilization"
UP_FAMILY = "up_family"
DOWN_FAMILY = "down_family"
BOTH_FAMILIES = "both"


@dataclass(frozen=True)
class ElementaryMove:
    """Rectangle plus sign; coordinates are relative to the source diagram.

    The sign is redundant (legality forces it) but stored so that every sigma
    computation stays literal.
    """

    rect: Rectangle
    sign: int

    def reversed(self) -> "ElementaryMove":
        return ElementaryMove(self.rect, -self.sign)


@dataclass(frozen=True)
class MoveKind:
    kind: str
    family: str


def corner_pattern(m: SignedPointMap, rect: Rectangle):
    """Indices (0..3) of rectangle corners that are vertices of the diagram
    with characteristic map m (levels may be rational).

    Raises NotAnElementaryMove if a vertex meets the closed rectangle away
    from its corners, or the corner count / successiveness rule fails.
    """
    return _corner_hits(m.entries, rect.theta1, rect.theta2, rect.phi1, rect.phi2,
                        m.circumference)


def _corner_hits(verts: dict, t1, t2, f1, f2, c, scale=None):
    """corner_pattern on a reduced vertex map {(theta, phi): sign} whose
    coordinates, the rectangle's and the circumference c are all Fractions
    or all integers.  When the integers are levels multiplied by scale, an
    error names the vertex at its own levels."""
    w, h = (t2 - t1) % c, (f2 - f1) % c
    if not w or not h:
        raise NotAnElementaryMove("rectangle corners are not distinct")
    hit = []
    for p in verts:
        dx, dy = (p[0] - t1) % c, (p[1] - f1) % c
        if dx <= w and dy <= h:
            if dx not in (0, w) or dy not in (0, h):
                if scale is not None:
                    p = Point(Fraction(p[0], scale), Fraction(p[1], scale))
                raise NotAnElementaryMove(f"vertex {p} inside the rectangle")
            hit.append((0, 1, 3, 2)[(dx != 0) + 2 * (dy != 0)])
    hit = tuple(sorted(hit))
    if len(hit) not in (1, 2, 3):
        raise NotAnElementaryMove(f"{len(hit)} corners on the diagram")
    if len(hit) == 2 and (hit[1] - hit[0]) % 4 == 2:
        raise NotAnElementaryMove("two opposite corners on the diagram")
    return hit


def move_kind_of(diagram: GridDiagram, move: ElementaryMove) -> str:
    return (STABILIZATION, EXCHANGE, DESTABILIZATION)[
        len(corner_pattern(characteristic(diagram), move.rect)) - 1]


def apply_move_to_map(m, move: ElementaryMove):
    """Map-level apply_elementary; validates legality and the result."""
    corner_pattern(m, move.rect)
    out = m.copy()
    out.add_rectangle(move.rect, -move.sign)
    if not out.is_diagram():
        raise InvalidResult("resulting map is not a diagram characteristic")
    return out


_FLIP_SIGN = {"none": 1, "flip_theta": -1, "flip_phi": -1, "both": 1, "transpose": 1}


def conjugate_move(move: ElementaryMove, symmetry: str, circumference) -> ElementaryMove:
    """Image of a move under a torus symmetry: sigma_{s(R)} - sigma_{s(R')} =
    (+-sign) * sigma_{s(rect)}; single reflections flip the sign."""
    from .torus_core import reduce_mod
    r = move.rect
    t1, t2, f1, f2 = r.theta1, r.theta2, r.phi1, r.phi2
    if symmetry == "none":
        rect = r
    elif symmetry == "flip_theta":
        rect = Rectangle.of(reduce_mod(-t2, circumference), reduce_mod(-t1, circumference), f1, f2)
    elif symmetry == "flip_phi":
        rect = Rectangle.of(t1, t2, reduce_mod(-f2, circumference), reduce_mod(-f1, circumference))
    elif symmetry == "both":
        rect = Rectangle.of(reduce_mod(-t2, circumference), reduce_mod(-t1, circumference),
                            reduce_mod(-f2, circumference), reduce_mod(-f1, circumference))
    elif symmetry == "transpose":
        rect = Rectangle.of(f1, f2, t1, t2)
    else:
        raise ValueError(f"unknown symmetry {symmetry!r}")
    return ElementaryMove(rect, move.sign * _FLIP_SIGN[symmetry])


def apply_elementary(diagram: GridDiagram, move: ElementaryMove) -> GridDiagram:
    """Apply sigma_R - sign*sigma_rect and renormalize.

    Works on the lattice scaled by D, the least common multiple of the
    rectangle's denominators: vertex (j, row) becomes (j*D, row*D) and the
    circumference n*D, so every coordinate is an integer.
    """
    if move.sign not in (1, -1):
        raise NotAnElementaryMove(f"sign {move.sign}")
    r = move.rect
    coords = (r.theta1, r.theta2, r.phi1, r.phi2)
    scale = _common_denominator(coords)
    c = diagram.n * scale
    t1, t2, f1, f2 = (q.numerator * (scale // q.denominator) % c for q in coords)
    verts = {}
    for j in range(diagram.n):
        verts[(j * scale, diagram.pos[j] * scale)] = 1
        verts[(j * scale, diagram.neg[j] * scale)] = -1
    _corner_hits(verts, t1, t2, f1, f2, c, scale)
    _add_corner_signs(verts, ((t1, f1), (t2, f1), (t2, f2), (t1, f2)), -move.sign)
    try:
        return _renormalize(verts)
    except DiagramError:
        raise InvalidResult("resulting map is not a diagram characteristic") from None


def enumerate_elementary(diagram: GridDiagram, move_filter: str = "all"):
    """Every legal move on the half-integer level lattice, deduplicated.

    Two rectangles carrying the same (source, target, kind) transition count
    as one move; order is deterministic (sorted rectangle coordinates).  The
    scan runs on the integer lattice of doubled coordinates for speed, through
    the corner check, corner-sign update and renormalizer that
    apply_elementary uses; the returned moves carry the usual exact rationals.

    Candidates: an exchange or destabilization meets the diagram in two
    successive corners, which share a side and so are the two vertices of one
    column x (rectangles (x, o, a, b), (o, x, a, b) and their row swaps, for
    every other level o) or of one row.  Without stabilizations only these
    are tried; they include every legal non-increasing rectangle, so the
    result equals the full scan's.  A stabilization meets one corner, so the
    filters that ask for it scan every rectangle with a corner on a vertex.
    """
    if move_filter not in ("all", "non_increasing", "destabilizations",
                           "exchanges", "stabilizations"):
        raise ValueError(f"unknown filter {move_filter!r}")
    wanted = {
        "all": {STABILIZATION, EXCHANGE, DESTABILIZATION},
        "non_increasing": {EXCHANGE, DESTABILIZATION},
        "destabilizations": {DESTABILIZATION},
        "exchanges": {EXCHANGE},
        "stabilizations": {STABILIZATION},
    }[move_filter]
    n = diagram.n
    big = 2 * n  # doubled circumference: half-integers become integers
    verts = {}
    for j in range(n):
        verts[(2 * j, 2 * diagram.pos[j])] = 1
        verts[(2 * j, 2 * diagram.neg[j])] = -1

    rect_keys = set()
    if STABILIZATION in wanted:
        for x, y in verts:
            for ta in range(big):
                for fa in range(big):
                    for t1, t2, f1, f2 in ((x, ta, y, fa), (ta, x, y, fa),
                                           (ta, x, fa, y), (x, ta, fa, y)):
                        if t1 != t2 and f1 != f2:
                            rect_keys.add((t1, t2, f1, f2))
    else:
        cols, rows = {}, {}
        for x, y in verts:
            cols.setdefault(x, []).append(y)
            rows.setdefault(y, []).append(x)
        for o in range(big):
            for x, (a, b) in cols.items():
                if o != x:
                    rect_keys.update(((x, o, a, b), (x, o, b, a),
                                      (o, x, a, b), (o, x, b, a)))
            for y, (a, b) in rows.items():
                if o != y:
                    rect_keys.update(((a, b, y, o), (b, a, y, o),
                                      (a, b, o, y), (b, a, o, y)))

    kinds = (STABILIZATION, EXCHANGE, DESTABILIZATION)
    moves = []
    seen = set()
    forms = {}  # many rectangles renormalize to one target
    for t1, t2, f1, f2 in sorted(rect_keys):
        try:
            hit = _corner_hits(verts, t1, t2, f1, f2, big)
        except NotAnElementaryMove:
            continue
        kind = kinds[len(hit) - 1]
        if kind not in wanted:
            continue
        corners = ((t1, f1), (t2, f1), (t2, f2), (t1, f2))
        # hit corners force a consistent sign on valid moves
        sign = verts[corners[hit[0]]] * (1, -1, 1, -1)[hit[0]]
        new = dict(verts)
        _add_corner_signs(new, corners, -sign)
        try:
            target = _renormalize(new)
        except DiagramError:
            continue
        form = forms.get(target)
        if form is None:
            form = forms[target] = canonical_form(target)
        key = (form, kind)
        if key in seen:
            continue
        seen.add(key)
        moves.append(ElementaryMove(
            Rectangle.of(Fraction(t1, 2), Fraction(t2, 2),
                         Fraction(f1, 2), Fraction(f2, 2)), sign))
    return moves


def classify(diagram: GridDiagram, move: ElementaryMove) -> MoveKind:
    """Kind from the corner count; family by multiflype realizability.

    Exchange moves are simultaneously up- and down-family; every
    (de)stabilization is realizable as a one-interior-vertex multiflype for
    exactly one slope family.
    """
    kind = move_kind_of(diagram, move)
    if kind == EXCHANGE:
        return MoveKind(kind, BOTH_FAMILIES)
    from .multiflype import realize_elementary
    direct = realize_elementary(diagram, move, "direct")
    reflected = realize_elementary(diagram, move, "reflected")
    if (direct is None) == (reflected is None):
        raise NotAnElementaryMove(
            f"family of {move} is not well defined ({direct=}, {reflected=})")
    return MoveKind(kind, UP_FAMILY if direct is not None else DOWN_FAMILY)


def find_elementary(diagram: GridDiagram, target: GridDiagram):
    """A single move carrying diagram onto target up to translation, if any."""
    for move in enumerate_elementary(diagram, "all"):
        if translate_equal(apply_elementary(diagram, move), target):
            return move
    return None


# ---------------------------------------------------------------------------
# Serialization: "move e t1 t2 f1 f2" with rationals as p/q
# ---------------------------------------------------------------------------

def serialize_move(move: ElementaryMove) -> str:
    r = move.rect
    return "move {:+d} {} {} {} {}".format(
        move.sign, r.theta1, r.theta2, r.phi1, r.phi2)


def parse_move(line: str) -> ElementaryMove:
    parts = line.split()
    if len(parts) != 6 or parts[0] != "move":
        raise GridSyntaxError(f"bad move line {line!r}")
    try:
        sign = int(parts[1])
        rect = Rectangle.of(*(Fraction(p) for p in parts[2:]))
    except (ValueError, ZeroDivisionError):  # Rectangle.of rejects equal endpoints
        raise GridSyntaxError(f"bad move line {line!r}") from None
    if sign not in (1, -1):
        raise GridSyntaxError(f"bad move sign {parts[1]!r}")
    return ElementaryMove(rect, sign)
