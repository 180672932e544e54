"""Link-invariant oracles: writhe, Kauffman bracket, Jones, Legendrian pairs.

These are the machine checks that moves preserve what they must preserve: the
Jones polynomial is invariant under every elementary move and every multiflype,
and the two Legendrian (tb, rot) pairs are invariant under the up-slope and
down-slope move families respectively.

Exponents are quarter-integers throughout (stored as integer numerators over a
fixed denominator of 4) so that the writhe normalization (-A^3)^(-w) and the
substitution t = A^(-4) stay exact for links of any component parity.

The bracket is evaluated by sweeping the cut-open diagram column by column and
contracting in the Temperley-Lieb basis of noncrossing matchings, which is
exact and fast at any realistic grid number; tests cross-check it against an
independent brute-force state sum.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalInvariantBroken, TooManyCrossings
from .torus_core import GridDiagram, PlanarDiagram, to_planar


class LaurentPolynomial:
    """Laurent polynomial with integer coefficients and quarter-integer exponents.

    Keys of ``coeffs`` are exponents in units of 1/4: the monomial x^(k/4) is
    stored under key k.  Zero coefficients are never stored.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs=None):
        self.coeffs = {}
        if coeffs:
            for k, c in (coeffs.items() if isinstance(coeffs, dict) else coeffs):
                if c:
                    self.coeffs[k] = self.coeffs.get(k, 0) + c
                    if not self.coeffs[k]:
                        del self.coeffs[k]

    @staticmethod
    def monomial(quarters, coeff=1) -> "LaurentPolynomial":
        return LaurentPolynomial({quarters: coeff})

    @staticmethod
    def zero() -> "LaurentPolynomial":
        return LaurentPolynomial()

    @staticmethod
    def one() -> "LaurentPolynomial":
        return LaurentPolynomial({0: 1})

    def __bool__(self):
        return bool(self.coeffs)

    def __eq__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial({0: other} if other else {})
        return isinstance(other, LaurentPolynomial) and self.coeffs == other.coeffs

    def __hash__(self):
        return hash(frozenset(self.coeffs.items()))

    def __add__(self, other):
        out = dict(self.coeffs)
        for k, c in other.coeffs.items():
            out[k] = out.get(k, 0) + c
            if not out[k]:
                del out[k]
        p = LaurentPolynomial()
        p.coeffs = out
        return p

    def __neg__(self):
        p = LaurentPolynomial()
        p.coeffs = {k: -c for k, c in self.coeffs.items()}
        return p

    def __sub__(self, other):
        return self + (-other)

    def __mul__(self, other):
        if isinstance(other, int):
            other = LaurentPolynomial({0: other})
        out = {}
        for k1, c1 in self.coeffs.items():
            for k2, c2 in other.coeffs.items():
                k = k1 + k2
                out[k] = out.get(k, 0) + c1 * c2
                if not out[k]:
                    del out[k]
        p = LaurentPolynomial()
        p.coeffs = out
        return p

    def shifted(self, quarters, coeff=1) -> "LaurentPolynomial":
        p = LaurentPolynomial()
        p.coeffs = {k + quarters: c * coeff for k, c in self.coeffs.items()}
        return p

    def divexact(self, other: "LaurentPolynomial") -> "LaurentPolynomial":
        """Exact division; raises if ``other`` does not divide ``self``."""
        if not other:
            raise ZeroDivisionError("division by zero polynomial")
        rem = dict(self.coeffs)
        lead_k = max(other.coeffs)
        lead_c = other.coeffs[lead_k]
        out = {}
        while rem:
            k = max(rem)
            q, r = divmod(rem[k], lead_c)
            if r:
                raise InternalInvariantBroken("inexact polynomial division")
            shift = k - lead_k
            out[shift] = q
            for k2, c2 in other.coeffs.items():
                kk = k2 + shift
                rem[kk] = rem.get(kk, 0) - q * c2
                if not rem[kk]:
                    del rem[kk]
        return LaurentPolynomial(out)

    def substitute_inverse_fourth(self) -> "LaurentPolynomial":
        """Reparametrize x -> y with y = x^(-4); exponents stay quarter-exact."""
        out = {}
        for k, c in self.coeffs.items():
            if k % 4:
                raise InternalInvariantBroken("non-integer exponent before t-substitution")
            out[-k // 4] = c
        return LaurentPolynomial(out)

    def pretty(self, var="t") -> str:
        if not self.coeffs:
            return "0"
        terms = []
        for k in sorted(self.coeffs, reverse=True):
            c = self.coeffs[k]
            if k == 0:
                body = str(abs(c))
            else:
                e = f"{k // 4}" if k % 4 == 0 else f"({k}/4)"
                body = f"{var}^{e}" if abs(c) == 1 else f"{abs(c)}*{var}^{e}"
            terms.append(("- " if c < 0 else "+ ") + body)
        head = terms[0][2:] if terms[0].startswith("+ ") else "-" + terms[0][2:]
        return " ".join([head] + terms[1:])

    def __repr__(self):
        return f"LaurentPolynomial({self.pretty('x')})"


#: loop value delta = -A^2 - A^(-2), in quarter-exponent keys
_DELTA = LaurentPolynomial({8: -1, -8: -1})
_RHO = "RHO"  # sentinel for the strand running up the active column


def _column_transitions(pairs, brow, b_ends, cross_rows, trow, t_ends):
    """All Kauffman smoothings of one column applied to one sweep state.

    ``pairs``: symmetric dict mating the open sweepline points (keyed by row).
    Yields (new_pairs, a_quarters, delta_power).
    """
    base = dict(pairs)
    if b_ends:
        y = base.pop(brow)
        base[y] = _RHO
        base[_RHO] = y
    else:
        base[brow] = _RHO
        base[_RHO] = brow
    states = [(base, 0, 0)]
    for k in cross_rows:
        nxt = []
        for m, qa, dp in states:
            y = m[_RHO]
            z = m[k]
            # A-smoothing: the running strand joins the incoming strand at
            # row k; a fresh running strand continues with a fresh point.
            ma = dict(m)
            if y == k:
                dpa = dp + 1  # closed a loop
            else:
                ma[y] = z
                ma[z] = y
                dpa = dp
            ma[_RHO] = k
            ma[k] = _RHO
            nxt.append((ma, qa + 4, dpa))
            # B-smoothing: the open point at row k becomes the running strand
            # and the running strand becomes the new point at row k.
            if y == k:
                nxt.append((m, qa - 4, dp))
            else:
                mb = dict(m)
                mb[k] = y
                mb[y] = k
                mb[_RHO] = z
                mb[z] = _RHO
                nxt.append((mb, qa - 4, dp))
        states = nxt
    out = []
    for m, qa, dp in states:
        y = m.pop(_RHO)
        if t_ends:
            if y == trow:
                m.pop(trow)
                dp += 1
            else:
                z = m.pop(trow)
                m[y] = z
                m[z] = y
        else:
            m[trow] = y
            m[y] = trow
        out.append((m, qa, dp))
    return out


def _state_key(pairs):
    return tuple(sorted((a, b) for a, b in pairs.items() if not isinstance(a, str) and a < b))


def kauffman_bracket(planar: PlanarDiagram) -> LaurentPolynomial:
    """Kauffman bracket of a cut-open grid diagram, <unknot> = 1, in A."""
    if len(planar.crossings) > 40:
        raise TooManyCrossings(f"{len(planar.crossings)} crossings exceed the cutoff")
    n = planar.n
    columns = sorted(range(n), key=lambda j: planar.col_pos[j])
    cross_of_col = {j: [] for j in range(n)}
    for c in planar.crossings:
        cross_of_col[c.col].append(c.row)
    states = {(): LaurentPolynomial.one()}
    for j in columns:
        lo, hi, _ = planar.col_span[j]
        brow = next(k for k in range(n) if planar.row_pos[k] == lo)
        trow = next(k for k in range(n) if planar.row_pos[k] == hi)
        b_ends = planar.row_span[brow][1] == planar.col_pos[j]   # arc comes from the left
        t_ends = planar.row_span[trow][1] == planar.col_pos[j]
        cross_rows = sorted(cross_of_col[j], key=lambda k: planar.row_pos[k])
        nxt = {}
        for key, coeff in states.items():
            pairs = {}
            for a, b in key:
                pairs[a] = b
                pairs[b] = a
            for m, qa, dp in _column_transitions(pairs, brow, b_ends, cross_rows, trow, t_ends):
                addend = coeff.shifted(qa)
                for _ in range(dp):
                    addend = addend * _DELTA
                k2 = _state_key(m)
                nxt[k2] = nxt.get(k2, LaurentPolynomial.zero()) + addend
        states = {k: v for k, v in nxt.items() if v}
    if set(states) - {()}:
        raise InternalInvariantBroken("sweepline not empty after the last column")
    total = states.get((), LaurentPolynomial.zero())
    return total.divexact(_DELTA)


def writhe(diagram: GridDiagram, cut=None) -> int:
    """Sum of crossing signs of the associated planar diagram (cut-independent)."""
    return sum(c.sign for c in to_planar(diagram, cut).crossings)


def jones(diagram: GridDiagram, cut=None) -> LaurentPolynomial:
    """Jones polynomial in t, via (-A^3)^(-writhe) <D> and t = A^(-4)."""
    planar = to_planar(diagram, cut)
    w = sum(c.sign for c in planar.crossings)
    f = kauffman_bracket(planar).shifted(-12 * w, (-1) ** (w % 2))
    return f.substitute_inverse_fourth()


# ---------------------------------------------------------------------------
# Legendrian invariants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LegendrianPair:
    """(tb, rot) for the up-slope and down-slope Legendrian types of a diagram."""

    up: tuple
    down: tuple


def _oriented_corners(diagram: GridDiagram, planar: PlanarDiagram):
    """Per vertex, the (incoming, outgoing) compass directions of its two arcs.

    Vertical arcs run + to -, horizontal arcs - to +; at every vertex exactly
    one arc comes in and one leaves.
    """
    n = diagram.n
    pos_col = {diagram.pos[j]: j for j in range(n)}
    neg_col = {diagram.neg[j]: j for j in range(n)}
    corners = []
    for j in range(n):
        for row, sign in ((diagram.pos[j], 1), (diagram.neg[j], -1)):
            lo_v, hi_v, _ = planar.col_span[j]
            v_up = planar.row_pos[row] == lo_v          # vertical arc extends upward
            lo_h, hi_h, _ = planar.row_span[row]
            h_right = planar.col_pos[j] == lo_h         # horizontal arc extends rightward
            if sign == 1:
                d_out = "N" if v_up else "S"
                d_in = "W" if h_right else "E"          # arc arrives moving W iff it lies to the right
            else:
                d_in = "S" if v_up else "N"
                d_out = "E" if h_right else "W"
            corners.append((d_in, d_out))
    return corners


#: oriented corner labels whose two strand ends span the NE/SW quadrants,
#: and those spanning NW/SE
_UP_CUSPS = {("W", "N"), ("N", "W"), ("S", "E"), ("E", "S")}
_DOWN_CUSPS = {("S", "W"), ("W", "S"), ("E", "N"), ("N", "E")}


def legendrian(diagram: GridDiagram, cut=None) -> LegendrianPair:
    """Thurston-Bennequin and rotation numbers for both front conventions.

    The up pair counts NW/SE corners against +writhe, the down pair NE/SW
    corners against -writhe.  This is the unique corner/writhe pairing that
    is invariant under torus translations: moving the cut across a row
    changes the writhe and flips that row's corner types between the two
    diagonal families, and the drifts cancel only for the opposite-diagonal
    combination.  Calibrated, as the invariance suite demands, so that
    up-family moves preserve the up pair and down-family moves the down pair.
    """
    planar = to_planar(diagram, cut)
    w = sum(c.sign for c in planar.crossings)
    corners = _oriented_corners(diagram, planar)

    nwse = [c for c in corners if c in _DOWN_CUSPS]
    rising = sum(1 for c in nwse if c in {("E", "N"), ("N", "E")})
    falling = len(nwse) - rising
    if len(nwse) % 2 or (falling - rising) % 2:
        raise InternalInvariantBroken("odd cusp count")
    tb_up = w - len(nwse) // 2
    rot_up = (falling - rising) // 2

    nesw = [c for c in corners if c in _UP_CUSPS]
    rising_d = sum(1 for c in nesw if c in {("W", "N"), ("N", "W")})
    falling_d = len(nesw) - rising_d
    if len(nesw) % 2 or (falling_d - rising_d) % 2:
        raise InternalInvariantBroken("odd cusp count")
    tb_down = -w - len(nesw) // 2
    rot_down = (falling_d - rising_d) // 2

    pair = LegendrianPair((tb_up, rot_up), (tb_down, rot_down))
    if planar.components == 1:
        for tb, rot in (pair.up, pair.down):
            if (tb + abs(rot)) % 2 == 0:
                raise InternalInvariantBroken(f"tb+|rot| even on a knot: {(tb, rot)}")
    return pair
