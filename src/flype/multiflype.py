"""Multiflypes: the simultaneous flype of every vertex inside an annulus.

A NE multiflype based on a positive-slope annulus A subtracts, from sigma_R,
the term sigma_R(v) * sigma_{r_v} for every vertex v interior to A (vertices
on the boundary contribute the zero function).  The sum is evaluated
literally; the additions and removals at boundary points emerge from the
arithmetic rather than from special-cased rules.

Direction semantics, with the annulus always stored with positive slope:

* NE: the forward sum over rectangles r_v on A;
* SW: the backward sum over co-rectangles r^v on A, which is the exact
  inverse of NE on the same annulus (and equals the point-reflection
  conjugation of a NE multiflype based on the reflected annulus);
* NW: conjugation of NE by flip_theta; the annulus lives in the flipped frame;
* SE: conjugation of SW by flip_theta.

With these conventions the inverse of a spec is literally the same annulus
with the direction swapped NE<->SW, NW<->SE.

Two routes compute a flype.  ``apply_multiflype_map``, ``flype_sum_map`` and
the decomposition sum rectangles on ``Fraction``-keyed maps.
``apply_multiflype`` on a GridDiagram validates the annulus once in the
forward frame; when that passes it sums the rectangles on the integer
lattice scaled by the lcm L of their denominators and renormalizes there
(``_flype_grid``), building no map.  When validation fails it falls back to
the map route, whose relaxed acceptance of the inverse of a strictly valid
flype needs the rational image.  Each vertex is located once per (annulus,
map) pair (``_vertex_sides``), and the search reuses those sides for both
of its directions.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .annulus import (
    Annulus,
    INTERIOR,
    MonotoneCurve,
    ON_B1,
    ON_B2,
    OUTSIDE,
    _co_rect,
    _rect_rv,
    locate,
    validate_annulus,
)
from .errors import AnnulusInvalid, CurveError, DiagramError, InternalInvariantBroken
from .moves import ElementaryMove, apply_elementary, conjugate_move, corner_pattern
from .torus_core import (
    GridDiagram,
    Point,
    Rectangle,
    SignedPointMap,
    _add_corner_signs,
    _common_denominator,
    _min_gap,
    _renormalize,
    characteristic,
    cyc_dist,
    from_characteristic,
    map_symmetry,
    reduce_mod,
)

NE, NW, SW, SE = "NE", "NW", "SW", "SE"
DIRECTIONS = (NE, NW, SW, SE)


@dataclass(frozen=True)
class MultiflypeSpec:
    """A positive-slope annulus plus one of the four direction arrows."""

    annulus: Annulus
    direction: str

    def __post_init__(self):
        if self.direction not in DIRECTIONS:
            raise ValueError(f"unknown direction {self.direction!r}")


def inverse_spec(spec: MultiflypeSpec) -> MultiflypeSpec:
    swap = {NE: SW, SW: NE, NW: SE, SE: NW}
    return MultiflypeSpec(spec.annulus, swap[spec.direction])


def direction_frame(direction: str) -> str:
    """Symmetry conjugating the given direction to a forward (NE) flype."""
    return {NE: "none", SW: "none", NW: "flip_theta", SE: "flip_theta"}[direction]


def _forward_frame(m: SignedPointMap, spec: MultiflypeSpec):
    """The map in the spec's forward frame, that frame's symmetry, and
    whether the sum runs over co-rectangles (SW, SE)."""
    frame = direction_frame(spec.direction)
    work = m if frame == "none" else map_symmetry(m, frame)
    return work, frame, spec.direction in (SW, SE)


def _vertex_sides(m: SignedPointMap, annulus: Annulus):
    """(vertex, sign, side) for every vertex of m in sorted order, each
    located once."""
    return [(p, s, locate(annulus, p)) for p, s in sorted(m.entries.items())]


def _flyped_vertices(sides, annulus: Annulus, backward: bool):
    """(vertex, sign, side, rectangle) for every vertex of ``_vertex_sides``
    not outside the annulus; the rectangle is r_v (r^v when backward) inside,
    None on the boundary."""
    for p, s, side in sides:
        if side == INTERIOR:
            yield p, s, side, _co_rect(annulus, p) if backward else _rect_rv(annulus, p)
        elif side != OUTSIDE:
            yield p, s, side, None


def flype_sum_map(m: SignedPointMap, annulus: Annulus, backward=False) -> SignedPointMap:
    """sigma_R minus the literal sum over all vertices inside the annulus."""
    out = m.copy()
    for _p, s, _side, rect in _flyped_vertices(_vertex_sides(m, annulus), annulus, backward):
        if rect is not None:
            out.add_rectangle(rect, -s)
    return out


def _flype_grid(diagram: GridDiagram, sides, annulus: Annulus, frame: str,
                backward: bool) -> GridDiagram:
    """The flype of a diagram whose forward-frame map passed validation
    against the annulus, given that map's ``_vertex_sides``.

    Works on the lattice scaled by L, the least common multiple of the
    denominators of the flyped rectangles: vertex (j, row) becomes
    (j*L, row*L) in the forward frame and the circumference n*L, so the sum
    and the renormalization run on integers.
    """
    rects = [(s, (r.theta1, r.theta2, r.phi1, r.phi2))
             for _p, s, _side, r in _flyped_vertices(sides, annulus, backward)
             if r is not None]
    scale = _common_denominator(q for _s, qs in rects for q in qs)
    n = diagram.n
    c = n * scale
    flip = frame != "none"
    verts = {}
    for j in range(n):
        t = -j * scale % c if flip else j * scale
        verts[(t, diagram.pos[j] * scale)] = 1
        verts[(t, diagram.neg[j] * scale)] = -1
    for s, qs in rects:
        t1, t2, f1, f2 = (q.numerator * (scale // q.denominator) % c for q in qs)
        _add_corner_signs(verts, ((t1, f1), (t2, f1), (t2, f2), (t1, f2)), -s)
    if flip:
        verts = {(-t % c, f): v for (t, f), v in verts.items()}
    try:
        return _renormalize(verts)
    except DiagramError:
        raise _non_diagram() from None


def _non_diagram() -> InternalInvariantBroken:
    return InternalInvariantBroken(
        "multiflype produced a non-diagram map; this contradicts the "
        "well-definedness proposition")


def apply_multiflype_map(m: SignedPointMap, spec: MultiflypeSpec) -> SignedPointMap:
    """Multiflype on the level of characteristic functions.

    The annulus conditions are sufficient for well-definedness, not
    necessary, and the image R' of a flype need not satisfy condition 3
    literally (fresh vertex levels can create boundary-point coincidences).
    So when strict validation fails, the application is still accepted in
    exactly one situation: the input is itself the image of a strictly valid
    flype that this spec reverses, which is the case the inverse proposition
    speaks about and where isotopy preservation is inherited from the
    forward direction.
    """
    work, frame, backward = _forward_frame(m, spec)
    relaxed = False
    try:
        validate_annulus(spec.annulus, work)
    except AnnulusInvalid:
        relaxed = True
    result = flype_sum_map(work, spec.annulus, backward=backward)
    if not result.is_diagram():
        if relaxed:
            validate_annulus(spec.annulus, work)  # re-raise the original error
        raise _non_diagram()
    if relaxed:
        try:
            validate_annulus(spec.annulus, result)
            reverse = flype_sum_map(result, spec.annulus, backward=not backward)
        except AnnulusInvalid:
            reverse = None
        if reverse != work:
            validate_annulus(spec.annulus, work)  # re-raise the original error
    return result if frame == "none" else map_symmetry(result, frame)


def apply_multiflype(diagram: GridDiagram, spec: MultiflypeSpec) -> GridDiagram:
    """Apply the multiflype and renormalize.

    The annulus is validated once against the diagram in the spec's forward
    frame.  When it passes, the flype is summed on the integer lattice of
    ``_flype_grid``.  When it fails, the map route of
    ``apply_multiflype_map`` decides: it accepts the input only as the image
    of a strictly valid flype that this spec reverses, and otherwise raises
    the AnnulusInvalid of the validation.  A non-diagram result is an
    internal error.
    """
    return _apply(diagram, spec)[0]


def _apply(diagram: GridDiagram, spec: MultiflypeSpec):
    """``apply_multiflype`` as (result, sides, backward): the forward-frame
    ``_vertex_sides`` the flype sums over, and whether it sums r^v."""
    m = characteristic(diagram)
    work, frame, backward = _forward_frame(m, spec)
    try:
        validate_annulus(spec.annulus, work)
    except AnnulusInvalid:
        result = from_characteristic(apply_multiflype_map(m, spec))
        return result, _vertex_sides(work, spec.annulus), backward
    sides = _vertex_sides(work, spec.annulus)
    return _flype_grid(diagram, sides, spec.annulus, frame, backward), sides, backward


def replacement_log(diagram: GridDiagram, spec: MultiflypeSpec):
    """``apply_multiflype`` of the diagram, and a human-readable record of
    what the flype does to each vertex, from one validation."""
    result, sides, backward = _apply(diagram, spec)
    lines = []
    for p, s, side, rect in _flyped_vertices(sides, spec.annulus, backward):
        if rect is None:
            lines.append(f"boundary {_fmt(p)} sign {s:+d} on {side} (kept by the sum)")
        else:
            dest = Point(rect.theta1, rect.phi1) if backward else Point(rect.theta2, rect.phi2)
            lines.append(f"interior {_fmt(p)} sign {s:+d} -> {_fmt(dest)} sign {-s:+d}")
    return result, lines


def _fmt(p: Point) -> str:
    return f"({p.theta},{p.phi})"


# ---------------------------------------------------------------------------
# Realizing an elementary move as a one-interior-vertex multiflype
# ---------------------------------------------------------------------------

def _lifted_specials(levels, lo, hi, circumference):
    """Lifted copies of the given reduced levels in the open interval (lo, hi)."""
    out = []
    for s in levels:
        s = reduce_mod(s, circumference)
        k = ((lo - s) / circumference).__floor__() + 1
        x = s + k * circumference
        while x < hi:
            if x > lo:
                out.append(x)
            x += circumference
    return sorted(set(out))


def thin_move_annulus(diagram: GridDiagram, rect: Rectangle) -> Annulus:
    """A (1,1) annulus inscribing the rectangle: b1 through its bottom-right
    corner, b2 through its top-left corner, the return corridor crossing every
    used line away from the grid.  Every diagram vertex other than the
    rectangle corners stays outside.
    """
    n = diagram.n
    t1 = reduce_mod(rect.theta1, n)
    w_t = cyc_dist(rect.theta1, rect.theta2, n)
    f1 = reduce_mod(rect.phi1, n)
    w_f = cyc_dist(rect.phi1, rect.phi2, n)
    t2, f2 = t1 + w_t, f1 + w_f
    specials_t = [Fraction(j) for j in range(n)] + [t1, reduce_mod(t2, n)]
    specials_f = [Fraction(k) for k in range(n)] + [f1, reduce_mod(f2, n)]
    eps0 = min(_min_gap(specials_t, n), _min_gap(specials_f, n),
               w_t, w_f, n - w_t, n - w_f) / 8

    eps = eps0
    last_error = None
    for _attempt in range(50):
        try:
            return _build_band(n, t1, t2, f1, f2, specials_t, specials_f, eps)
        except (CurveError, AnnulusInvalid) as err:
            last_error = err
            eps = eps / 2
    raise InternalInvariantBroken(f"thin annulus construction failed: {last_error}")


def _build_band(n, t1, t2, f1, f2, specials_t, specials_f, eps) -> Annulus:
    delta = eps / 2
    start = (t2 + 2 * eps, f2 + 2 * eps)
    end = (t1 + n - 2 * eps, f1 + n - 2 * eps)
    xs = _lifted_specials(specials_t, start[0], end[0], n)
    ys = _lifted_specials(specials_f, start[1], end[1], n)
    eta = eps / (len(xs) + 2)
    center = [start]
    for i, x in enumerate(xs):
        center.append((x, start[1] + (i + 1) * eta))
    lower = xs[-1] if xs else start[0]
    room = end[0] - lower
    pivot = lower + room / 4
    eta2 = room / (2 * (len(ys) + 2))
    for j, y in enumerate(ys):
        center.append((pivot + j * eta2, y))
    center.append(end)

    b1_pts = [(t1 - eps, f1 - eps), (t2, f1)]
    b1_pts += [(x + delta, y - delta) for x, y in center]
    b2_pts = [(t1 - 2 * eps, f1 - eps / 2), (t1, f2)]
    b2_pts += [(x - delta, y + delta) for x, y in center]
    b1 = MonotoneCurve(tuple(b1_pts), (1, 1), n)
    b2 = MonotoneCurve(tuple(b2_pts), (1, 1), n)
    return Annulus(b1, b2, n)


_NE_PATTERNS = ({0}, {0, 1}, {3, 0}, {3, 0, 1})
_SW_PATTERNS = ({2}, {1, 2}, {2, 3}, {1, 2, 3})


def realize_elementary(diagram: GridDiagram, move: ElementaryMove, slope: str):
    """A one-interior-vertex multiflype reproducing the move, or None.

    slope="direct" seeks a NE or SW spec on a thin positive-slope band around
    the move rectangle; slope="reflected" conjugates through flip_theta and
    seeks NW or SE.  A move realizable for neither pattern of the requested
    slope belongs exclusively to the other family.
    """
    if slope not in ("direct", "reflected"):
        raise ValueError(f"unknown slope {slope!r}")
    m = characteristic(diagram)
    pattern = set(corner_pattern(m, move.rect))  # may raise NotAnElementaryMove
    expected = apply_elementary(diagram, move)

    if slope == "direct":
        work, rect = diagram, move.rect
    else:
        flipped = map_symmetry(m, "flip_theta")
        work = from_characteristic(flipped)
        rect = conjugate_move(move, "flip_theta", diagram.n).rect
        pattern = set(corner_pattern(flipped, rect))

    if pattern in _NE_PATTERNS:
        direction = NE if slope == "direct" else NW
        interior_corner = rect.corners()[0]
    elif pattern in _SW_PATTERNS:
        direction = SW if slope == "direct" else SE
        interior_corner = rect.corners()[2]
    else:
        return None

    band = thin_move_annulus(work, rect)
    _check_band_placement(band, work, rect, interior_corner)
    spec = MultiflypeSpec(band, direction)
    got = apply_multiflype(diagram, spec)
    if got != expected:
        raise InternalInvariantBroken(
            f"realized multiflype disagrees with the elementary move ({direction})")
    return spec


def _check_band_placement(band: Annulus, diagram: GridDiagram, rect: Rectangle,
                          interior_corner: Point):
    n = diagram.n
    validate_annulus(band, diagram)
    c_br = Point(rect.theta2, rect.phi1).reduced(n)
    c_tl = Point(rect.theta1, rect.phi2).reduced(n)
    want_interior = interior_corner.reduced(n)
    for p, _s in diagram.vertices():
        side = locate(band, p)
        if p == want_interior:
            ok = side == INTERIOR
        elif p == c_br:
            ok = side == ON_B1
        elif p == c_tl:
            ok = side == ON_B2
        else:
            ok = side == OUTSIDE
        if not ok:
            raise InternalInvariantBroken(f"vertex {p} located {side} in the band")
