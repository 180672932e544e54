"""The decomposition algorithm: sweep, induction cases, certificates."""

from collections import Counter
from fractions import Fraction as F
from random import Random

import importlib

import pytest

import oracles
from flype.annulus import (
    Annulus,
    INTERIOR,
    MonotoneCurve,
    bar,
    locate,
    parse_annulus,
    rect_in_annulus,
    rect_rv,
    validate_annulus,
)
from flype.decompose import (
    MoveCertificate,
    base_case_sweep,
    build_sweep_path,
    conjugate_rectangle,
    decompose,
    decompose_with_trace,
    induction_step,
    omega_regions,
    pick_u0,
    validate_certificate,
)
from flype.errors import InternalInvariantBroken
from flype.moves import BOTH_FAMILIES, DOWN_FAMILY, UP_FAMILY, classify
from flype.multiflype import MultiflypeSpec, apply_multiflype, flype_sum_map
from flype.sampling import random_annulus, random_diagram, random_flype_case
from flype.torus_core import (
    GridDiagram,
    Point,
    Rectangle,
    SignedPointMap,
    TREFOIL5,
    UNKNOT2,
    characteristic,
    cyc_dist,
    from_characteristic,
    parse,
    reduce_mod,
    sigma_of_rectangle,
    translate_equal,
)

decompose_mod = importlib.import_module("flype.decompose")


def _interior_count(diagram, annulus):
    return sum(1 for v, _s in diagram.vertices() if locate(annulus, v) == INTERIOR)


def test_pick_u0_contract():
    rng = Random(1)
    for _ in range(8):
        d = random_diagram(rng, rng.randrange(2, 6))
        ann = random_annulus(rng, d)
        if ann is None:
            continue
        u0 = pick_u0(d, ann)
        assert locate(ann, u0) == INTERIOR
        assert u0.theta.denominator > 1 and u0.phi.denominator > 1
        u1 = bar(ann, u0)
        assert u1.theta not in set(range(d.n)) and u1.phi not in set(range(d.n))
        assert pick_u0(d, ann) == u0  # deterministic


def test_pick_u0_thin_band_slides_along_b1():
    # no half-integer cell point lies in this band, so u0 comes from the
    # fallback that pushes b1 points up-left into the band
    thin = parse_annulus("annulus 2 winding 1 1\nB1: (10001/30000,0)\nB2: (9999/30000,0)\n")
    assert pick_u0(UNKNOT2, thin) == Point(F(26667, 20000), F(60001, 60000))


def test_vertex_free_flype_has_empty_certificate():
    b1 = MonotoneCurve(((F(3, 4), 0),), (1, 1), 2)
    b2 = MonotoneCurve(((F(1, 4), 0),), (1, 1), 2)
    ann = Annulus(b1, b2, 2)
    cert = decompose(UNKNOT2, MultiflypeSpec(ann, "NE"))
    assert len(cert) == 0
    assert cert.target == UNKNOT2


def test_one_interior_vertex_certificate_has_length_one():
    from flype.moves import ElementaryMove, apply_elementary
    from flype.multiflype import realize_elementary
    move = ElementaryMove(Rectangle.of(0, F(1, 2), 0, F(1, 2)), 1)
    spec = realize_elementary(UNKNOT2, move, "direct")
    cert = decompose(UNKNOT2, spec)
    assert len(cert) == 1
    assert cert.target == apply_elementary(UNKNOT2, move)
    assert validate_certificate(cert)


def test_randomized_decompositions_are_sound():
    rng = Random(41)
    for _ in range(40):
        d, spec = random_flype_case(rng, n_max=6, require_interior=True)
        cert, trace = decompose_with_trace(d, spec)
        assert validate_certificate(cert)
        # inside-A discipline, step by step, in the NE frame
        running = trace.maps[0]
        for mv, ann, nxt in zip(trace.moves, trace.annuli, trace.maps[1:]):
            assert rect_in_annulus(ann, mv.rect)
            for p in running.entries:
                if mv.rect.contains(p, running.circumference):
                    assert p in {q.reduced(running.circumference)
                                 for q in mv.rect.corners()}
            running = nxt
        if trace.annuli:
            # exact composition at the sigma level (perturbations never change
            # the flype, so any step's annulus gives the same sum)
            assert trace.maps[-1] == flype_sum_map(trace.maps[0], trace.annuli[0])
            interior = sum(1 for p in trace.maps[0].entries
                           if locate(trace.annuli[0], p) == INTERIOR)
            assert len(cert) >= interior


def test_certificate_matches_direct_application_up_to_anchoring():
    rng = Random(43)
    for _ in range(25):
        d, spec = random_flype_case(rng, n_max=6, require_interior=True)
        cert = decompose(d, spec)
        direct = apply_multiflype(d, spec)
        assert translate_equal(cert.target, direct)


def test_family_purity():
    rng = Random(47)
    checked = 0
    while checked < 12:
        d, spec = random_flype_case(rng, n_max=5, require_interior=True)
        cert = decompose(d, spec)
        if len(cert) == 0:
            continue
        ok_families = ({UP_FAMILY, BOTH_FAMILIES} if spec.direction in ("NE", "SW")
                       else {DOWN_FAMILY, BOTH_FAMILIES})
        current = cert.source
        for move, target in cert.steps:
            assert classify(current, move).family in ok_families
            current = target
        checked += 1


def test_progress_and_case_coverage():
    rng = Random(3)
    counters = Counter()
    for _ in range(60):
        d, spec = random_flype_case(rng, n_max=5, require_interior=True)
        counters.update(dict(decompose_with_trace(d, spec)[1].tallies))
    assert counters["sweep"] > 0
    assert counters["case1"] > 0 and counters["case2"] > 0 and counters["case3"] > 0
    assert counters["pair_event"] > 0


PERTURB_GRID = "grid 5\n+ 2 1 4 0 3\n- 0 3 2 1 4\n"
PERTURB_ANNULUS = (
    "annulus 5 winding 1 1\n"
    "B1: (5/8,-1/8) (15/8,3/8) (17/8,5/8) (19/8,23/8) (21/8,25/8) (23/8,29/8)"
    " (25/8,33/8) (39/8,35/8)\n"
    "B2: (-1/8,5/8) (9/8,9/8) (11/8,11/8) (13/8,29/8) (15/8,31/8) (17/8,35/8)"
    " (19/8,39/8) (33/8,41/8)\n")


def test_pinned_case_requiring_boundary_perturbation():
    d = parse(PERTURB_GRID)
    ann = parse_annulus(PERTURB_ANNULUS)
    spec = MultiflypeSpec(ann, "NW")
    cert, trace = decompose_with_trace(d, spec)
    assert dict(trace.tallies)["perturbed"] >= 1
    assert validate_certificate(cert)
    assert len(cert) == 6


HALVING_GRID = "grid 4\n+ 0 3 1 2\n- 2 1 0 3\n"
HALVING_ANNULUS = (
    "annulus 4 winding 1 1\n"
    "B1: (39/64,-51/512) (215/64,331/512) (1847/512,931/256)\n"
    "B2: (-15/128,321/512) (337/128,703/512) (1475/512,1117/256)\n")


def test_pinned_case_requiring_epsilon_halving():
    """The fifth ``random_flype_case(Random(130), n_max=8,
    require_interior=True)`` draw: its Case 1 move fits the annulus only
    after one halving of epsilon."""
    spec = MultiflypeSpec(parse_annulus(HALVING_ANNULUS), "SW")
    cert, trace = decompose_with_trace(parse(HALVING_GRID), spec)
    assert dict(trace.tallies) == {"case1": 1, "eps_halvings": 1, "pair_event": 1,
                                   "sweep": 1}
    assert validate_certificate(cert)
    assert len(cert) == 8


def test_failed_proof_check_is_not_retried(monkeypatch):
    """Epsilon halving retries geometric failures only; a broken measure
    check in the NW perturbation case propagates after one attempt."""
    calls = []

    def stuck_count(m, annulus, om, interior=None):
        calls.append(om)
        return 3

    monkeypatch.setattr(decompose_mod, "_omega_count", stuck_count)
    spec = MultiflypeSpec(parse_annulus(PERTURB_ANNULUS), "NW")
    with pytest.raises(InternalInvariantBroken) as err:
        decompose(parse(PERTURB_GRID), spec)
    assert err.value.message == "measure did not decrease by one"
    assert len(calls) == 2  # the starting count and one check


def test_conjugate_rectangle_sigma_identity():
    """sigma_r - sum_{v in V(r)} sigma_r(v) sigma_{r_v} = -sigma_{bar r}."""
    rng = Random(53)
    checked = 0
    while checked < 60:
        d = random_diagram(rng, rng.randrange(2, 6))
        ann = random_annulus(rng, d)
        if ann is None:
            continue
        n = d.n
        p = Point(F(rng.randrange(0, 8 * n), 8) + F(1, 32),
                  F(rng.randrange(0, 8 * n), 8) + F(1, 32)).reduced(n)
        if locate(ann, p) != INTERIOR:
            continue
        full = rect_rv(ann, p)
        w = cyc_dist(full.theta1, full.theta2, n)
        h = cyc_dist(full.phi1, full.phi2, n)
        rect = Rectangle.of(full.theta1,
                            reduce_mod(full.theta1 + w * rng.randrange(1, 5) // 4, n)
                            if False else full.theta2,
                            full.phi1, full.phi2)
        scale = F(rng.randrange(1, 5), 4)
        rect = Rectangle.of(full.theta1, reduce_mod(full.theta1 + w * scale, n),
                            full.phi1, reduce_mod(full.phi1 + h * scale, n))
        if not rect_in_annulus(ann, rect):
            continue
        lhs = sigma_of_rectangle(rect, n)
        for corner in rect.corners():
            if locate(ann, corner) == INTERIOR:
                coeff = sigma_of_rectangle(rect, n)[corner]
                lhs = lhs - _scaled_sigma(rect_rv(ann, corner), n, coeff)
        rbar = conjugate_rectangle(ann, rect)
        rhs = sigma_of_rectangle(rbar, n)
        assert (lhs + rhs).entries == {}
        checked += 1


def _scaled_sigma(rect, n, coeff):
    m = SignedPointMap(n)
    m.add_rectangle(rect, coeff)
    return m


def test_conjugate_rectangle_reverses_orientation():
    rng = Random(59)
    checked = 0
    while checked < 10:
        d = random_diagram(rng, rng.randrange(2, 6))
        ann = random_annulus(rng, d)
        if ann is None:
            continue
        n = d.n
        p = Point(F(rng.randrange(0, 8 * n), 8) + F(1, 32),
                  F(rng.randrange(0, 8 * n), 8) + F(1, 32)).reduced(n)
        if locate(ann, p) != INTERIOR:
            continue
        rect = rect_rv(ann, p)
        rbar = conjugate_rectangle(ann, rect)
        v1, v2, v3, v4 = rect.corners()
        bars = [bar(ann, v) for v in (v1, v2, v3, v4)]
        w1, w2, w3, w4 = rbar.corners()
        # counterclockwise v1..v4 map to clockwise corners of bar(r)
        assert bars == [w1, w4, w3, w2]
        assert all(len(set(bars)) == 4 for _ in [0])
        checked += 1


def test_base_case_sweep_public_op():
    rng = Random(61)
    done = 0
    while done < 5:
        d = random_diagram(rng, rng.randrange(2, 5))
        ann = random_annulus(rng, d)
        if ann is None:
            continue
        u0 = pick_u0(d, ann)
        from flype.decompose import omega_regions, _omega_count
        om = omega_regions(ann, u0)
        if _omega_count(characteristic(d), ann, om) != 0:
            continue
        cert = base_case_sweep(d, ann, u0)
        assert validate_certificate(cert)
        assert len(cert) == _interior_count(d, ann)
        done += 1


def test_induction_step_public_op():
    rng = Random(67)
    done = 0
    while done < 4:
        d = random_diagram(rng, rng.randrange(3, 6))
        ann = random_annulus(rng, d)
        if ann is None or _interior_count(d, ann) < 2:
            continue
        u0 = pick_u0(d, ann)
        from flype.decompose import omega_regions, _omega_count
        om = omega_regions(ann, u0)
        m = characteristic(d)
        before = _omega_count(m, ann, om)
        if before == 0:
            continue
        move, ann2 = induction_step(d, ann, u0, bar(ann, u0))
        from flype.moves import apply_move_to_map
        m2 = apply_move_to_map(m, move)
        validate_annulus(ann2, m2)
        om2 = omega_regions(ann2, u0)
        assert _omega_count(m2, ann2, om2) == before - 1
        done += 1


def test_sweep_path_structure():
    rng = Random(71)
    done = 0
    while done < 5:
        d = random_diagram(rng, rng.randrange(2, 5))
        ann = random_annulus(rng, d)
        if ann is None:
            continue
        u0 = pick_u0(d, ann)
        from flype.decompose import omega_regions
        om = omega_regions(ann, u0)
        path = build_sweep_path(characteristic(d), ann, u0, om)
        pts = path.breakpoints
        assert pts == oracles.ref_build_sweep_path(characteristic(d), ann, u0, om).breakpoints
        assert pts[0] == (u0.theta, u0.phi)
        u1 = om.v_bar
        p, q = ann.winding
        assert reduce_mod(pts[-1][0], d.n) == u1.theta
        assert reduce_mod(pts[-1][1], d.n) == u1.phi
        for (x1, y1), (x2, y2) in zip(pts, pts[1:]):
            assert x2 < x1 and y2 < y1
        # interior breakpoints stay strictly inside the annulus and miss grid points
        for x, y in pts[1:-1]:
            pt = Point(reduce_mod(x, d.n), reduce_mod(y, d.n))
            assert locate(ann, pt) == INTERIOR
            assert not (pt.theta.denominator == 1 and pt.phi.denominator == 1)
        done += 1


def test_sweep_paths_of_the_corpus_match_reference(monkeypatch):
    """Every sweep path of a seeded decomposition corpus has the breakpoints
    of ``oracles.ref_build_sweep_path``."""
    paths = []

    def checked(m, annulus, u0, om):
        path = build_sweep_path(m, annulus, u0, om)
        assert path.breakpoints == oracles.ref_build_sweep_path(m, annulus, u0, om).breakpoints
        paths.append(path)
        return path

    monkeypatch.setattr(decompose_mod, "build_sweep_path", checked)
    rng = Random(41)
    for _ in range(20):
        d, spec = random_flype_case(rng, n_max=6, require_interior=True)
        decompose(d, spec)
    assert len(paths) >= 10


def _two_by_two(c, columns, rows):
    """The 2-grid unknot on the given levels: + at (t0, f0) and (t1, f1)."""
    (t0, t1), (f0, f1) = columns, rows
    return SignedPointMap(c, {Point(t0, f0): 1, Point(t0, f1): -1,
                              Point(t1, f1): 1, Point(t1, f0): -1})


def test_sweep_path_dodges_a_grid_point_on_its_path():
    """Used levels that put a grid point on the blended path, once at one of
    its breakpoints and once inside a segment: the path dodges it, equals
    the reference, and misses every used grid point."""
    rng = Random(73)
    dodged = 0
    while dodged < 4:
        d = random_diagram(rng, rng.randrange(2, 5))
        ann = random_annulus(rng, d)
        if ann is None:
            continue
        c = ann.circumference
        u0 = pick_u0(d, ann)
        om = omega_regions(ann, u0)
        plain = build_sweep_path(characteristic(d), ann, u0, om).breakpoints
        if len(plain) < 3:
            continue
        (xa, ya), (xb, yb) = plain[1], plain[2]
        for x, y in ((xa, ya), ((xa + xb) / 2, (ya + yb) / 2)):
            t, f = reduce_mod(x, c), reduce_mod(y, c)
            m = _two_by_two(c, (t, reduce_mod(t + c / 3, c)), (f, reduce_mod(f + c / 3, c)))
            path = build_sweep_path(m, ann, u0, om)
            assert path.breakpoints != plain
            assert path.breakpoints == oracles.ref_build_sweep_path(m, ann, u0, om).breakpoints
            x1, x0 = path.x_range()
            used_f = {p.phi for p in m.entries}
            for t_used in {p.theta for p in m.entries}:
                xx = t_used + ((x1 - t_used) // c + 1) * c
                while xx < x0:
                    assert reduce_mod(path.at_x(xx), c) not in used_f
                    xx += c
            dodged += 1
