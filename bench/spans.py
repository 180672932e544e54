"""Per-layer tracing from outside the package.

Each layer is a ``flype`` module.  Its public functions are wrapped in a
span that counts calls, calls that raised, and self time: the span's
duration minus the time covered by the spans it caused.  Time spent in an
unwrapped private helper is charged to the nearest wrapped caller, so
``decompose_with_trace`` self time covers the sweep, the induction step and
``_public_chain``.

Spans are aggregated in memory as they close and read out once, at the end
of the timed phase; nothing is written while the workload runs.
"""

import importlib
import sys
import time

#: layer -> wrapped public functions ("Class.method" for methods)
LAYERS = {
    "annulus": ("locate", "MonotoneCurve.y_at", "rect_rv", "co_rect",
                "validate_annulus", "rect_in_annulus", "omega_regions",
                "perturb_boundary"),
    "torus_core": ("canonical_form", "translate_equal", "characteristic",
                   "from_characteristic", "reduce_mod"),
    "moves": ("enumerate_elementary", "apply_elementary"),
    "multiflype": ("apply_multiflype", "apply_multiflype_map", "flype_sum_map"),
    "decompose": ("decompose_with_trace", "pick_u0", "conjugate_rectangle",
                  "validate_certificate"),
    "invariants": ("jones", "kauffman_bracket", "legendrian"),
    "search": ("simplify", "unknot_census"),
}

#: functions that raise a FlypeError as part of their contract; these also
#: report ``.raised``
RAISING = frozenset((
    "annulus.rect_rv", "annulus.co_rect", "annulus.validate_annulus",
    "annulus.omega_regions", "annulus.perturb_boundary",
    "torus_core.from_characteristic",
    "moves.apply_elementary",
    "multiflype.apply_multiflype", "multiflype.apply_multiflype_map",
    "multiflype.flype_sum_map",
    "decompose.decompose_with_trace", "decompose.pick_u0",
    "decompose.conjugate_rectangle",
    "invariants.jones", "invariants.kauffman_bracket",
))

#: derived counts and ratios, with their units
EXTRAS = {
    "annulus.validate_annulus.accept_ratio": "ratio",
    "moves.enumerate_elementary.moves": "count",
    "decompose.cert_steps": "count",
    "search.useful_ratio": "ratio",
}

FUNCTIONS = tuple(f"{layer}.{name}" for layer, names in LAYERS.items()
                  for name in names)


def metric_units():
    """Every per-layer metric name the traced run reports, with its unit."""
    units = {}
    for key in FUNCTIONS:
        units[f"{key}.calls"] = "count"
        units[f"{key}.self_ms"] = "ms"
        if key in RAISING:
            units[f"{key}.raised"] = "count"
    for layer in LAYERS:
        units[f"{layer}.self_ms"] = "ms"
    units.update(EXTRAS)
    units["trace_overhead"] = "ratio"
    return units


def _flype_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == "flype" or name.startswith("flype."))]


class Tracer:
    """Installs span wrappers on every binding of each traced function.

    Modules are fetched through ``importlib``: the package attribute
    ``flype.decompose`` is the function, not the module.  ``decompose``,
    ``search`` and ``multiflype`` import the traced names directly, some of
    them inside functions, so every ``flype.*`` attribute bound to the
    original object is replaced, not just the defining one.
    """

    def __init__(self):
        self.stats = {key: [0, 0, 0] for key in FUNCTIONS}  # calls, self ns, raised
        self.extra = {"moves": 0, "cert_steps": 0, "states": 0, "neighbours": 0}
        self._stack = []
        self._restore = []
        self._hook_table = self._hooks()

    def install(self):
        for layer, names in LAYERS.items():
            mod = importlib.import_module(f"flype.{layer}")
            for name in names:
                key = f"{layer}.{name}"
                if "." in name:
                    cls_name, meth = name.split(".")
                    cls = getattr(mod, cls_name)
                    orig = cls.__dict__[meth]
                    self._restore.append((cls, meth, orig))
                    setattr(cls, meth, self._wrap(key, orig))
                    continue
                orig = getattr(mod, name)
                wrapper = self._wrap(key, orig)
                for m in _flype_modules():
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            self._restore.append((m, attr, orig))
                            setattr(m, attr, wrapper)

    def remove(self):
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def _wrap(self, key, fn):
        stats = self.stats[key]
        stack = self._stack
        clock = time.perf_counter_ns
        before, after = self._hook_table.get(key, (None, None))

        def span(*args, **kwargs):
            if before is not None:
                before()
            stack.append(0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                stats[2] += 1
                raise
            finally:
                elapsed = clock() - start
                children = stack.pop()
                stats[0] += 1
                stats[1] += elapsed - children
                if stack:
                    stack[-1] += elapsed
            if after is not None:
                after(result)
            return result

        span.__wrapped__ = fn
        span.__name__ = getattr(fn, "__name__", key)
        return span

    def _hooks(self):
        """key -> (before, after(result)) callbacks that keep the derived counts."""
        extra = self.extra
        marks = []

        def enter_search():
            marks.append(self._neighbours_generated())

        def leave_search():
            extra["neighbours"] += self._neighbours_generated() - marks.pop()

        def moves(result):
            extra["moves"] += len(result)

        def cert_steps(result):
            extra["cert_steps"] += len(result[0].steps)

        def expanded(report):
            leave_search()
            extra["states"] += report.visited

        def classified(report):
            leave_search()
            extra["states"] += sum(v["diagrams"] for v in report["per_n"].values())

        return {"moves.enumerate_elementary": (None, moves),
                "decompose.decompose_with_trace": (None, cert_steps),
                "search.simplify": (enter_search, expanded),
                "search.unknot_census": (enter_search, classified)}

    def _neighbours_generated(self):
        """Successful move and flype applications so far; inside a search
        call these are the neighbours it generated."""
        s = self.stats
        return (s["moves.apply_elementary"][0] - s["moves.apply_elementary"][2]
                + s["multiflype.apply_multiflype"][0]
                - s["multiflype.apply_multiflype"][2])

    def report(self):
        """Per-layer numbers of the traced phase (without trace_overhead)."""
        out = {}
        layer_ns = dict.fromkeys(LAYERS, 0)
        for key, (calls, self_ns, raised) in self.stats.items():
            out[f"{key}.calls"] = calls
            out[f"{key}.self_ms"] = self_ns / 1e6
            if key in RAISING:
                out[f"{key}.raised"] = raised
            layer_ns[key.split(".")[0]] += self_ns
        for layer, ns in layer_ns.items():
            out[f"{layer}.self_ms"] = ns / 1e6
        calls, _ns, raised = self.stats["annulus.validate_annulus"]
        out["annulus.validate_annulus.accept_ratio"] = \
            (calls - raised) / calls if calls else 0.0
        out["moves.enumerate_elementary.moves"] = self.extra["moves"]
        out["decompose.cert_steps"] = self.extra["cert_steps"]
        states, generated = self.extra["states"], self.extra["neighbours"]
        out["search.useful_ratio"] = states / generated if generated else 0.0
        return out
