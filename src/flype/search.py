"""Monotonic simplification: breadth-first search that never adds edges.

The classical decision procedures work by applying all sequences of
elementary moves that do not increase the number of vertical edges and
checking what the closure reaches.  States are canonical forms (diagrams up
to torus translation), expansion order is deterministic, and every state is
expanded at most once, so reports are bit-reproducible.

The optional multiflype move set adds complexity-preserving flypes over a
small generated family of staircase annuli with breakpoints on the
half-integer lattice, windings (1,1), (1,2) and (2,1); the full annulus
space is infinite, so this is a documented completeness limitation.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from fractions import Fraction

from .annulus import Annulus, MonotoneCurve, validate_annulus
from .errors import AnnulusInvalid, CurveError, FlypeError, OutOfRangeValue, SlopeViolation
from .moves import apply_elementary, enumerate_elementary
from .multiflype import MultiflypeSpec, apply_multiflype
from .torus_core import GridDiagram, canonical_form, characteristic

MOVESET_ELEMENTARY = "elem"
MOVESET_WITH_FLYPES = "elem+flype"


@dataclass(frozen=True)
class SearchReport:
    start: bytes
    minima: tuple          # canonical forms of minimal complexity reached
    min_complexity: int
    witness: dict          # canonical form -> tuple of canonical forms (path)
    visited: int
    budget_exceeded: bool

    def to_dict(self):
        return {
            "version": 1,
            "start": self.start.hex(),
            "min_complexity": self.min_complexity,
            "minima": sorted(m.hex() for m in self.minima),
            "witness_lengths": {m.hex(): len(self.witness[m]) - 1
                                for m in self.minima},
            "visited": self.visited,
            "budget_exceeded": self.budget_exceeded,
        }


def _diagram_of(form: bytes) -> GridDiagram:
    n = form[0]
    return GridDiagram(n, tuple(form[1:n + 1]), tuple(form[n + 1:]))


_FAMILY_CACHE = {}


def _staircase_family(n: int):
    """Deterministic thin and medium staircase annuli with breakpoints on the
    half-integer lattice, windings (1,1), (1,2), (2,1)."""
    if n in _FAMILY_CACHE:
        return _FAMILY_CACHE[n]
    out = []
    seen = set()
    for p, q in ((1, 1), (1, 2), (2, 1)):
        for phase in range(2):
            pts = tuple((Fraction(1, 2) + i * p, Fraction(1, 2) + phase + i * q)
                        for i in range(n))
            for width in (Fraction(1, 4), Fraction(1, 2)):
                try:
                    b1 = MonotoneCurve(tuple((x + width, y - width) for x, y in pts),
                                       (p, q), n)
                    b2 = MonotoneCurve(tuple((x - width, y + width) for x, y in pts),
                                       (p, q), n)
                    ann = Annulus(b1, b2, n)
                except (SlopeViolation, CurveError, AnnulusInvalid):
                    continue
                key = (ann.b1.breakpoints, ann.b2.breakpoints, ann.winding)
                if key not in seen:
                    seen.add(key)
                    out.append(ann)
    _FAMILY_CACHE[n] = out
    return out


def _flype_neighbors(diagram: GridDiagram):
    """Complexity-preserving multiflypes over the generated annulus family."""
    neighbors = []
    m = characteristic(diagram)
    for ann in _staircase_family(diagram.n):
        try:
            validate_annulus(ann, m)
        except FlypeError:
            continue
        for direction in ("NE", "SW"):
            try:
                out = apply_multiflype(diagram, MultiflypeSpec(ann, direction))
            except FlypeError:
                continue
            if out.n == diagram.n:
                neighbors.append(out)
    return neighbors


def simplify(diagram: GridDiagram, budget: int = 10 ** 6,
             move_set: str = MOVESET_ELEMENTARY) -> SearchReport:
    """BFS closure under non-increasing moves; all minimal forms reached,
    one shortest witness path each."""
    if move_set not in (MOVESET_ELEMENTARY, MOVESET_WITH_FLYPES):
        raise ValueError(f"unknown move set {move_set!r}")
    if budget < 1:
        raise OutOfRangeValue(f"budget {budget} < 1")
    start = canonical_form(diagram)
    parent = {start: None}
    queue = deque([start])
    visited_order = []
    exceeded = False
    while queue:
        if len(visited_order) >= budget:
            exceeded = True
            break
        form = queue.popleft()
        visited_order.append(form)
        d = _diagram_of(form)
        nexts = []
        for move in enumerate_elementary(d, "non_increasing"):
            nexts.append(apply_elementary(d, move))
        if move_set == MOVESET_WITH_FLYPES:
            nexts.extend(_flype_neighbors(d))
        for nd in sorted(canonical_form(x) for x in nexts):
            if nd not in parent:
                parent[nd] = form
                queue.append(nd)
    min_c = min(f[0] for f in visited_order)
    minima = tuple(sorted(f for f in visited_order if f[0] == min_c))
    witness = {}
    for mform in minima:
        path = [mform]
        while parent[path[-1]] is not None:
            path.append(parent[path[-1]])
        witness[mform] = tuple(reversed(path))
    return SearchReport(start, minima, min_c, witness, len(visited_order), exceeded)


# ---------------------------------------------------------------------------
# Unknot census
# ---------------------------------------------------------------------------

def all_diagrams(n: int):
    """All valid diagrams with grid number exactly n, up to torus translation."""
    from itertools import permutations
    seen = set()
    out = []
    for pos in permutations(range(n)):
        for neg in permutations(range(n)):
            if any(p == q for p, q in zip(pos, neg)):
                continue
            d = GridDiagram(n, pos, neg)
            form = canonical_form(d)
            if form not in seen:
                seen.add(form)
                out.append(_diagram_of(form))
    return out


def unknot_census(n_max: int) -> dict:
    """Check that every unknot diagram with n <= n_max monotonically
    simplifies to the 2x2 diagram.

    Unknots are filtered by trivial Jones polynomial together with
    reachability of the crossing-free grid number 2 (which the assertion then
    confirms); the counts are translation-deduplicated.  The non-increasing
    move graph over all diagrams with n <= n_max is expanded once, then each
    unknot is answered by reachability inside it.
    """
    from .invariants import jones
    if not 2 <= n_max <= 5:
        raise ValueError("census is sized for 2 <= n_max <= 5")
    one = jones(GridDiagram.make((0, 1), (1, 0)))

    per_n = {n: all_diagrams(n) for n in range(2, n_max + 1)}
    edges_out = {}
    for n, diagrams in per_n.items():
        for d in diagrams:
            form = canonical_form(d)
            outs = {canonical_form(apply_elementary(d, move))
                    for move in enumerate_elementary(d, "non_increasing")}
            edges_out[form] = sorted(outs)

    target = canonical_form(GridDiagram.make((0, 1), (1, 0)))
    reaches_two = {target}
    changed = True
    while changed:  # non-increasing moves can cycle, so iterate to fixpoint
        changed = False
        for form, outs in edges_out.items():
            if form not in reaches_two and any(o in reaches_two for o in outs):
                reaches_two.add(form)
                changed = True

    report = {"version": 1, "n_max": n_max, "per_n": {}}
    total_unknots = simplified = 0
    for n, diagrams in per_n.items():
        unknots = [d for d in diagrams if jones(d) == one]
        reached = sum(1 for d in unknots if canonical_form(d) in reaches_two)
        report["per_n"][n] = {
            "diagrams": len(diagrams),
            "jones_trivial": len(unknots),
            "monotonically_simplified": reached,
        }
        total_unknots += len(unknots)
        simplified += reached
    report["unknots"] = total_unknots
    report["simplified"] = simplified
    report["all_simplified"] = total_unknots == simplified
    return report
