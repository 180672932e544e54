"""The three benchmark workloads: seeded inputs, the timed ops, output checks.

Every workload is a closed loop with one caller: the next op starts when the
previous one has returned.  All calls go through attributes of the ``flype``
package looked up at call time, so a traced pass sees them through the
wrappers of ``spans.Tracer``.

``certify``   the paper's central algorithm: decompose a multiflype into
              elementary moves, re-check the certificate, compare Jones
              polynomials.  Mostly ``annulus`` queries, almost no move
              enumeration.
``census``    ``unknot_census(5)``, the same work as ``flype census
              --n-max 5``: canonical forms and move enumeration, no
              ``annulus`` at all.
``simplify``  ``simplify(d, move_set="elem+flype")`` on seeded n = 5
              diagrams with a fixed budget: many ``validate_annulus`` calls
              over one fixed family of staircase annuli (most raise), many
              cheap flypes, and the census's move machinery.
"""

import hashlib
import importlib
import json
import time

WORKLOADS = ("certify", "census", "simplify")

DIRECTIONS = ("NE", "NW", "SW", "SE")
WINDINGS = ((1, 1), (1, 2), (2, 1))

#: workload -> size -> parameters.  "full" is what the benchmark measures,
#: "tiny" is for the smoke test.
SIZES = {
    "certify": {"full": {"n_values": tuple(range(2, 9)), "per_stratum": 4},
                "tiny": {"n_values": (2, 3), "per_stratum": 1}},
    "census": {"full": {"n_max": 5}, "tiny": {"n_max": 3}},
    "simplify": {"full": {"n": 5, "diagrams": 48, "budget": 4},
                 "tiny": {"n": 4, "diagrams": 2, "budget": 3}},
}

#: diagrams per grid number up to torus translation (acceptance criterion 7
#: pins 224 at n = 5)
CENSUS_DIAGRAMS = {2: 1, 3: 4, 4: 19, 5: 224}


def _mod(name):
    return importlib.import_module(f"flype.{name}")


def make_inputs(workload, seed, size):
    """The seeded inputs of one pass; nothing here is timed."""
    from random import Random
    rng = Random(seed)
    params = SIZES[workload][size]
    if workload == "certify":
        return [_flype_case(rng, n, winding, direction)
                for n in params["n_values"] for winding in WINDINGS
                for direction in DIRECTIONS
                for _ in range(params["per_stratum"])]
    if workload == "census":
        return params["n_max"]
    sampling = _mod("sampling")
    return ([sampling.random_diagram(rng, params["n"])
             for _ in range(params["diagrams"])], params["budget"])


def _flype_case(rng, n, winding, direction):
    """``random_flype_case(rng, require_interior=True)`` with the grid number,
    winding and direction fixed.

    Decomposition time grows with n and differs by winding, so drawing the
    same number of cases from every (n, winding, direction) stratum keeps the
    corpus, and its timings, alike from seed to seed.
    """
    sampling, annulus = _mod("sampling"), _mod("annulus")
    torus_core, multiflype = _mod("torus_core"), _mod("multiflype")
    while True:
        diagram = sampling.random_diagram(rng, n)
        frame = diagram if direction in ("NE", "SW") else \
            torus_core.apply_symmetry(diagram, "flip_theta")
        ann = sampling.random_annulus(rng, frame, winding)
        if ann is None:
            continue
        if any(annulus.locate(ann, v) == annulus.INTERIOR
               for v, _s in frame.vertices()):
            return diagram, multiflype.MultiflypeSpec(ann, direction)


class Outcome:
    """What one timed pass produced.

    ``timings`` holds one ``(seconds, ops)`` pair per timed item: a
    certificate, a census call or a simplify call.
    """

    def __init__(self):
        self.timings = []
        self.ops = 0
        self.failed = 0
        self.errors = []
        self.outputs = []

    def fail(self, ops, message):
        self.failed += ops
        if len(self.errors) < 3:
            self.errors.append(message)

    def digest(self):
        h = hashlib.sha256()
        for text in self.outputs:
            h.update(text.encode())
            h.update(b"\0")
        return h.hexdigest()


def run_timed(workload, inputs):
    """The timed phase.  Each op is checked here only where the check is part
    of the op; the rest is left to ``check``."""
    import flype
    clock = time.perf_counter
    out = Outcome()
    if workload == "certify":
        for diagram, spec in inputs:
            start = clock()
            try:
                cert, _trace = flype.decompose_with_trace(diagram, spec)
                ok = (cert.source == diagram and flype.validate_certificate(cert)
                      and flype.jones(cert.source) == flype.jones(cert.target))
                problem = None if ok else "certificate failed validation or the Jones check"
            except Exception as err:  # a failed op is counted, not fatal
                cert, problem = None, f"{type(err).__name__}: {err}"
            out.timings.append((clock() - start, 1))
            out.ops += 1
            if problem:
                out.fail(1, problem)
            out.outputs.append(cert)
    elif workload == "census":
        start = clock()
        report = flype.unknot_census(inputs)
        elapsed = clock() - start
        ops = sum(v["diagrams"] for v in report["per_n"].values())
        out.timings.append((elapsed, ops))
        out.ops += ops
        out.outputs.append(report)
    else:
        diagrams, budget = inputs
        for diagram in diagrams:
            start = clock()
            report = flype.simplify(diagram, budget=budget, move_set="elem+flype")
            out.timings.append((clock() - start, report.visited))
            out.ops += report.visited
            out.outputs.append((diagram, report))
    return out


def check(workload, inputs, out):
    """Untimed output checks; turns ``out.outputs`` into digestible text."""
    torus_core, moves, invariants = _mod("torus_core"), _mod("moves"), _mod("invariants")
    texts = []
    if workload == "certify":
        for cert in out.outputs:
            if cert is None:
                texts.append("failed")
                continue
            lines = [torus_core.serialize(cert.source)]
            for move, target in cert.steps:
                lines += [moves.serialize_move(move), torus_core.serialize(target)]
            lines.append(invariants.jones(cert.target).pretty("t"))
            texts.append("\n".join(lines))
    elif workload == "census":
        (report,) = out.outputs
        expected = {n: CENSUS_DIAGRAMS[n] for n in range(2, inputs + 1)}
        got = {n: v["diagrams"] for n, v in report["per_n"].items()}
        if got != expected:
            out.fail(out.ops, f"census diagram counts {got}, expected {expected}")
        elif not report["all_simplified"]:
            out.fail(report["unknots"] - report["simplified"],
                     "unknot diagrams that did not simplify")
        texts.append(json.dumps(report, sort_keys=True))
    else:
        _diagrams, budget = inputs
        for diagram, report in out.outputs:
            problem = _simplify_problem(diagram, report, budget)
            if problem:
                out.fail(report.visited, problem)
            texts.append(json.dumps(report.to_dict(), sort_keys=True))
    out.outputs = texts


def _simplify_problem(diagram, report, budget):
    """Why a simplify report is wrong, or None.  Moves and flypes preserve
    the Jones polynomial, so every minimum must share the start's."""
    torus_core, invariants = _mod("torus_core"), _mod("invariants")
    if report.start != torus_core.canonical_form(diagram):
        return "report start is not the input's canonical form"
    if report.visited > budget or (report.budget_exceeded and report.visited != budget):
        return "visited count disagrees with the budget"
    if report.min_complexity > diagram.n:
        return "minimum above the start complexity"
    start_jones = invariants.jones(diagram)
    for form in report.minima:
        path = report.witness[form]
        if form[0] != report.min_complexity or path[0] != report.start or path[-1] != form:
            return "malformed minimum or witness path"
        n = form[0]
        minimum = torus_core.GridDiagram(n, tuple(form[1:n + 1]), tuple(form[n + 1:]))
        if invariants.jones(minimum) != start_jones:
            return "a minimum has another Jones polynomial than the start"
    return None
