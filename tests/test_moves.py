"""Elementary moves: application, enumeration vs brute force, classification."""

from fractions import Fraction as F
from random import Random

import pytest

from oracles import brute_transitions, translate
from flype.errors import GridSyntaxError, InvalidResult, NotAnElementaryMove
from flype.invariants import jones
from flype.moves import (
    BOTH_FAMILIES,
    DESTABILIZATION,
    DOWN_FAMILY,
    EXCHANGE,
    STABILIZATION,
    UP_FAMILY,
    ElementaryMove,
    apply_elementary,
    apply_move_to_map,
    classify,
    conjugate_move,
    enumerate_elementary,
    find_elementary,
    move_kind_of,
    parse_move,
    serialize_move,
)
from flype.sampling import random_diagram
from flype.torus_core import (
    GridDiagram,
    Rectangle,
    TREFOIL5,
    UNKNOT2,
    canonical_form,
    characteristic,
    complexity,
    translate_equal,
)

STAB = ElementaryMove(Rectangle.of(0, F(1, 2), 0, F(1, 2)), 1)


def test_apply_stabilization_example():
    assert apply_elementary(UNKNOT2, STAB) == GridDiagram.make((1, 0, 2), (2, 1, 0))


def test_move_then_reverse_cancels():
    # sigma arithmetic cancels exactly at the map level
    rng = Random(1)
    for _ in range(20):
        d = random_diagram(rng, rng.randrange(2, 6))
        for move in enumerate_elementary(d, "all")[:5]:
            m = characteristic(d)
            fwd = apply_move_to_map(m, move)
            assert apply_move_to_map(fwd, move.reversed()) == m


def test_full_rectangle_rejected():
    move = ElementaryMove(Rectangle.of(0, 1, 0, 1), 1)
    with pytest.raises((NotAnElementaryMove, InvalidResult)):
        apply_elementary(UNKNOT2, move)


def test_wrong_sign_rejected():
    with pytest.raises(InvalidResult):
        apply_elementary(UNKNOT2, ElementaryMove(STAB.rect, -1))


def test_opposite_corner_pair_rejected():
    # [0;1]x[0;1] meets this diagram exactly in the two opposite corners
    d = GridDiagram.make((0, 1, 2, 3), (2, 3, 0, 1))
    move = ElementaryMove(Rectangle.of(0, 1, 0, 1), 1)
    with pytest.raises(NotAnElementaryMove):
        apply_elementary(d, move)


def test_unknot_has_no_destabilizations():
    assert enumerate_elementary(UNKNOT2, "destabilizations") == []


def test_every_enumerated_move_applies():
    rng = Random(3)
    for _ in range(10):
        d = random_diagram(rng, rng.randrange(2, 6))
        for move in enumerate_elementary(d, "all"):
            apply_elementary(d, move)


def test_enumeration_matches_brute_force():
    rng = Random(5)
    samples = [UNKNOT2, TREFOIL5] + [random_diagram(rng, rng.randrange(2, 5))
                                     for _ in range(6)]
    for d in samples:
        ours = set()
        for move in enumerate_elementary(d, "all"):
            target = apply_elementary(d, move)
            ours.add((canonical_form(target), move_kind_of(d, move)))
        assert ours == brute_transitions(d)


def test_kind_arithmetic():
    deltas = {STABILIZATION: 1, EXCHANGE: 0, DESTABILIZATION: -1}
    rng = Random(7)
    for _ in range(8):
        d = random_diagram(rng, rng.randrange(2, 6))
        for move in enumerate_elementary(d, "all"):
            kind = move_kind_of(d, move)
            assert complexity(apply_elementary(d, move)) - complexity(d) == deltas[kind]


def test_filters_are_consistent():
    rng = Random(9)
    d = random_diagram(rng, 5)
    all_moves = {serialize_move(m) for m in enumerate_elementary(d, "all")}
    by_kind = set()
    for flt in ("stabilizations", "exchanges", "destabilizations"):
        by_kind |= {serialize_move(m) for m in enumerate_elementary(d, flt)}
    assert by_kind == all_moves
    non_inc = {serialize_move(m) for m in enumerate_elementary(d, "non_increasing")}
    stabs = {serialize_move(m) for m in enumerate_elementary(d, "stabilizations")}
    assert non_inc == all_moves - stabs


def test_jones_invariant_under_moves():
    rng = Random(11)
    checked = 0
    while checked < 120:
        d = random_diagram(rng, rng.randrange(2, 7))
        base = jones(d)
        for move in enumerate_elementary(d, "all"):
            assert jones(apply_elementary(d, move)) == base
            checked += 1


def test_classify_stabilization_and_exchange():
    assert classify(UNKNOT2, STAB) == __import__("flype.moves", fromlist=["MoveKind"]).MoveKind(
        STABILIZATION, UP_FAMILY)
    for move in enumerate_elementary(TREFOIL5, "exchanges"):
        assert classify(TREFOIL5, move).family == BOTH_FAMILIES


def test_classify_family_well_defined_on_stabilizations():
    rng = Random(13)
    seen = set()
    for _ in range(6):
        d = random_diagram(rng, rng.randrange(2, 6))
        for move in enumerate_elementary(d, "stabilizations")[:6]:
            kind = classify(d, move)
            assert kind.kind == STABILIZATION
            assert kind.family in (UP_FAMILY, DOWN_FAMILY)
            seen.add(kind.family)
    assert seen == {UP_FAMILY, DOWN_FAMILY}


def test_classification_stable_under_translation():
    rng = Random(15)
    d = random_diagram(rng, 4)
    for move in enumerate_elementary(d, "all")[:8]:
        kind = classify(d, move)
        for a, b in ((1, 0), (0, 1), (2, 3)):
            moved = conjugate_move(move, "none", d.n)
            shifted = ElementaryMove(
                Rectangle.of(move.rect.theta1 - a, move.rect.theta2 - a,
                             move.rect.phi1 - b, move.rect.phi2 - b), move.sign)
            assert classify(translate(d, a, b), shifted) == kind


def test_find_elementary():
    stabbed = apply_elementary(UNKNOT2, STAB)
    found = find_elementary(UNKNOT2, stabbed)
    assert found is not None
    assert translate_equal(apply_elementary(UNKNOT2, found), stabbed)
    assert find_elementary(UNKNOT2, TREFOIL5) is None


def test_find_elementary_self_agrees_with_brute_force():
    rng = Random(17)
    for _ in range(6):
        d = random_diagram(rng, rng.randrange(2, 5))
        found = find_elementary(d, d)
        brute_has = any(target == canonical_form(d) and kind == EXCHANGE
                        for target, kind in brute_transitions(d))
        if found is not None:
            assert translate_equal(apply_elementary(d, found), d)
        assert (found is not None) == any(
            target == canonical_form(d) for target, kind in brute_transitions(d))
        del brute_has


def test_move_serialization_roundtrip():
    line = serialize_move(STAB)
    assert line == "move +1 0 1/2 0 1/2"
    assert parse_move(line) == STAB
    move = ElementaryMove(Rectangle.of(F(3, 2), 0, F(7, 3), 1), -1)
    assert parse_move(serialize_move(move)) == move
    with pytest.raises(GridSyntaxError):
        parse_move("move +1 0 0 1 2")  # equal theta endpoints
