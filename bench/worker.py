"""One benchmark pass in a fresh interpreter.

    python3 bench/worker.py --workload certify --seed 1 --size full --mode plain

Imports ``flype`` from the ``src`` directory next to ``bench``, builds the
seeded inputs, runs the timed phase once (traced in mode ``traced``), checks
the outputs and prints one JSON line.  Mode ``setup`` stops once the inputs
are built.  ``bench/run.py`` starts one worker per
pass, so process-global caches such as ``search._FAMILY_CACHE`` start cold
in every pass, as they do for a command-line user.

``ready_ns`` is ``time.monotonic_ns()`` when the inputs are built; the clock
is system-wide, so the parent subtracts its own reading taken just before it
started this process to get the set-up time.
"""

import argparse
import json
import pathlib
import resource
import sys
import time

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--size", required=True)
    ap.add_argument("--mode", choices=("plain", "traced", "setup"), required=True)
    args = ap.parse_args()

    sys.path.insert(0, str(SRC))
    import flype
    if pathlib.Path(flype.__file__).resolve().parent != SRC / "flype":
        sys.exit(f"imported flype from {flype.__file__}, not from {SRC}")
    import workloads

    inputs = workloads.make_inputs(args.workload, args.seed, args.size)
    ready_ns = time.monotonic_ns()
    if args.mode == "setup":
        print(json.dumps({"ready_ns": ready_ns}))
        return

    tracer = None
    if args.mode == "traced":
        from spans import Tracer
        tracer = Tracer()
        tracer.install()
    start = time.perf_counter()
    out = workloads.run_timed(args.workload, inputs)
    pass_s = time.perf_counter() - start
    if tracer is not None:
        tracer.remove()

    workloads.check(args.workload, inputs, out)
    result = {
        "ready_ns": ready_ns,
        "pass_s": pass_s,
        "timings": out.timings,
        "ops": out.ops,
        "failed": out.failed,
        "errors": out.errors,
        "digest": out.digest(),
        "rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.report() if tracer is not None else None,
    }
    print(json.dumps(result))


if __name__ == "__main__":
    main()
