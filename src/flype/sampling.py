"""Seeded random diagrams and annuli for property tests and demos.

Randomness comes from ``random.Random`` integer methods only; all geometry
stays rational.  Annuli are jittered staircases: a monotone center walk
through the lattice with small rational offsets crosses every used line away
from the grid, and the two boundary curves are its anti-diagonal translates.
A fraction of the annuli are routed exactly through diagram vertices to
exercise the boundary rules of the flype equation.
"""

from __future__ import annotations

from fractions import Fraction
from random import Random

from .annulus import Annulus, MonotoneCurve, locate, validate_annulus, INTERIOR
from .errors import AnnulusInvalid, CurveError, SlopeViolation
from .multiflype import DIRECTIONS, MultiflypeSpec
from .torus_core import GridDiagram, apply_symmetry


def random_diagram(rng: Random, n: int) -> GridDiagram:
    """Uniform-ish valid diagram: pos uniform, neg resampled until disjoint."""
    pos = list(range(n))
    rng.shuffle(pos)
    while True:
        neg = list(range(n))
        rng.shuffle(neg)
        if all(p != q for p, q in zip(pos, neg)):
            return GridDiagram.make(pos, neg)


def _jitter(rng: Random, scale=Fraction(1, 64)) -> Fraction:
    return Fraction(rng.randrange(-7, 8), 1) * scale / 8


def _staircase_points(rng: Random, n: int, p: int, q: int):
    """Strictly increasing lifted walk from a jittered anchor, advancing
    (p*n, q*n) per period, with breakpoints off the integer grid."""
    steps = rng.randrange(2, 2 * n + 2)
    xs = sorted(rng.sample(range(1, 4 * p * n), min(steps, 4 * p * n - 1)))
    ys = sorted(rng.sample(range(1, 4 * q * n), min(steps, 4 * q * n - 1)))
    k = min(len(xs), len(ys))
    anchor = (Fraction(1, 4) + _jitter(rng), Fraction(1, 4) + _jitter(rng))
    pts = [anchor]
    for i in range(k):
        x = anchor[0] + Fraction(xs[i] * p * n, 4 * p * n) + _jitter(rng)
        y = anchor[1] + Fraction(ys[i] * q * n, 4 * q * n) + _jitter(rng)
        if x > pts[-1][0] and y > pts[-1][1] and \
                x < anchor[0] + p * n and y < anchor[1] + q * n:
            pts.append((x, y))
    return pts


def random_annulus(rng: Random, diagram: GridDiagram, winding=(1, 1),
                   tries=200, through_vertices=True):
    """A random annulus valid for the diagram, or None if unlucky.

    Roughly a third of the samples route b1 through one diagram vertex, which
    keeps the vertex-on-boundary cases of the flype equation in every corpus.
    """
    n = diagram.n
    p, q = winding
    for _try in range(tries):
        pts = _staircase_points(rng, n, p, q)
        if len(pts) < 2:
            continue
        width = Fraction(rng.randrange(1, 4), 8) + _jitter(rng)
        if width <= 0:
            continue
        try:
            center = MonotoneCurve(tuple(pts), (p, q), n)
            if through_vertices and rng.randrange(3) == 0:
                v, _s = rng.choice(diagram.vertices())
                off = center.y_at(Fraction(v.theta)) - Fraction(v.phi)
                b1 = MonotoneCurve(
                    tuple((x - 0, y - off) for x, y in pts), (p, q), n)
                b2 = MonotoneCurve(
                    tuple((x - 2 * width, y - off + 2 * width) for x, y in pts),
                    (p, q), n)
            else:
                b1 = MonotoneCurve(
                    tuple((x + width, y - width) for x, y in pts), (p, q), n)
                b2 = MonotoneCurve(
                    tuple((x - width, y + width) for x, y in pts), (p, q), n)
            ann = Annulus(b1, b2, n)
            validate_annulus(ann, diagram)
        except (AnnulusInvalid, SlopeViolation, CurveError):
            continue
        return ann
    return None


def random_flype_case(rng: Random, n_max=6, windings=((1, 1), (1, 2), (2, 1)),
                      require_interior=False):
    """A random valid (diagram, MultiflypeSpec) pair.

    For reflected directions the annulus must be valid for the theta-flipped
    diagram, so it is generated against that frame.
    """
    while True:
        n = rng.randrange(2, n_max + 1)
        diagram = random_diagram(rng, n)
        direction = rng.choice(DIRECTIONS)
        frame = diagram if direction in ("NE", "SW") else \
            apply_symmetry(diagram, "flip_theta")
        winding = rng.choice(list(windings))
        ann = random_annulus(rng, frame, winding)
        if ann is None:
            continue
        if require_interior:
            if not any(locate(ann, v) == INTERIOR for v, _s in frame.vertices()):
                continue
        return diagram, MultiflypeSpec(ann, direction)
