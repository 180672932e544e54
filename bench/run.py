"""Benchmark of the flype toolkit: one workload, measured for a fixed time.

    python3 bench/run.py --workload certify --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; ``flype`` is imported from ``src``.
The workloads are described in ``bench/README.md`` and ``workloads.py``.

Passes run one after another, each in a fresh interpreter (``worker.py``),
until ``--seconds`` have passed and at least ``MIN_PASSES`` passes are done.
Every pass rebuilds the same seeded inputs, so its set-up time is one sample
of ``setup_s``.  Each metric is a median over passes; per-op latencies take,
for every op, its median over passes first.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` alternates plain
and traced passes and reports the per-layer metrics of the traced ones and
``trace_overhead``, the traced over the plain ``wall_s`` minus one.

Output: a table with every metric, its unit and ``error_rate``; a JSON line
of run facts (commit, Python, nproc, digest); and, as the last line, the
JSON result ``{"correct", "attempted", "failed", "metrics"}``.  ``correct``
requires every op to pass its checks and every pass, traced or not, to give
the same output digest, equal to the one in ``digests.json`` where that file
records the seed.  Exit status 2 when the source tree is missing, 1 when a
pass cannot run.
"""

import argparse
import json
import os
import pathlib
import platform
import statistics
import subprocess
import sys
import time

BENCH = pathlib.Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import spans  # noqa: E402
import workloads  # noqa: E402

MIN_PASSES = 3
#: a short set-up is noisy, so a run adds starts that only build the inputs
#: until it has this many set-up samples or they add up to SETUP_PROBE_S
MIN_SETUPS = 9
SETUP_PROBE_S = 3
#: no pass starts after this, and none may end later, so a run stays well
#: inside three minutes
DEADLINE_S = 170

END_TO_END = {"setup_s": "s", "wall_s": "s", "ops_per_s": "1/s",
              "op_p50_ms": "ms", "op_p90_ms": "ms", "peak_rss_mib": "MiB"}


def run_pass(args, mode, started):
    """One worker: ``mode`` is plain, traced, or setup (build inputs, stop)."""
    spawn_ns = time.monotonic_ns()
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size, "--mode", mode]
    timeout = max(DEADLINE_S - (time.monotonic() - started), 1)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        raise SystemExit(f"{args.workload} {mode} pass ran past the deadline") from None
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"{args.workload} {mode} pass exited with {proc.returncode}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["setup_s"] = (result["ready_ns"] - spawn_ns) / 1e9
    return result


def op_latencies_ms(passes):
    """Per-op milliseconds of each timed item, as its median over passes.

    A timed item is one op on ``certify`` and one call elsewhere, whose time
    is spread evenly over its ops; the census is a single call, so there
    both percentiles are its mean time per op."""
    per_pass = [[s / ops * 1e3 for s, ops in p["timings"]] for p in passes]
    return [statistics.median(values) for values in zip(*per_pass)]


def end_to_end(passes, setups):
    sample = op_latencies_ms(passes)
    p90 = statistics.quantiles(sample, n=10)[8] if len(sample) > 1 else sample[0]
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.median(p["pass_s"] for p in passes),
        "ops_per_s": statistics.median(p["ops"] / p["pass_s"] for p in passes),
        "op_p50_ms": statistics.median(sample),
        "op_p90_ms": p90,
        "peak_rss_mib": statistics.median(p["rss_kib"] for p in passes) / 1024,
    }, len(sample)


def per_layer(plain, traced):
    out = {key: statistics.median(p["layers"][key] for p in traced)
           for key in traced[0]["layers"]}
    out["trace_overhead"] = (statistics.median(p["pass_s"] for p in traced)
                             / statistics.median(p["pass_s"] for p in plain) - 1)
    return out


def commit():
    """HEAD of the checkout if it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def recorded_digest(workload, seed, size):
    if size != "full":
        return None
    digests = json.loads((BENCH / "digests.json").read_text())[workload]
    return digests.get(str(seed), digests.get("*"))


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full",
                    help="tiny inputs, for the smoke test")
    args = ap.parse_args()
    if not (ROOT / "src" / "flype" / "__init__.py").is_file():
        sys.stderr.write(f"no flype source tree under {ROOT / 'src'}\n")
        return 2

    started = time.monotonic()
    runs = {"plain": [], "traced": []}
    plain, traced = runs["plain"], runs["traced"]
    while True:
        if not args.trace:
            order = ("plain",)
        else:  # alternate which side goes first
            order = ("plain", "traced") if len(plain) % 2 == 0 else ("traced", "plain")
        for mode in order:
            runs[mode].append(run_pass(args, mode, started))
        elapsed = time.monotonic() - started
        last = sum(runs[mode][-1]["pass_s"] + runs[mode][-1]["setup_s"] for mode in order)
        if len(plain) >= MIN_PASSES and (
                elapsed >= args.seconds or elapsed + last > DEADLINE_S):
            break
    setups = [p["setup_s"] for p in plain]
    while not args.trace and len(setups) < MIN_SETUPS and sum(setups) < SETUP_PROBE_S:
        setups.append(run_pass(args, "setup", started)["setup_s"])

    passes = plain + traced
    digests = {p["digest"] for p in passes}
    expected = recorded_digest(args.workload, args.seed, args.size)
    attempted = sum(p["ops"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    correct = failed == 0 and len(digests) == 1 and expected in (None, *digests)
    for p in passes:
        for err in p["errors"]:
            sys.stderr.write(f"{args.workload}: {err}\n")
    if len(digests) != 1:
        sys.stderr.write(f"{args.workload}: passes disagree on the output digest\n")
    elif expected not in (None, *digests):
        sys.stderr.write(f"{args.workload}: digest differs from digests.json\n")

    e2e, samples = end_to_end(plain, setups)
    if args.trace:
        values, units = per_layer(plain, traced), spans.metric_units()
    else:
        values, units = e2e, END_TO_END
    shown = dict(e2e, error_rate=failed / attempted, **(values if args.trace else {}))
    shown_units = dict(END_TO_END, error_rate="ratio", **(units if args.trace else {}))
    for name, value in shown.items():
        text = f"{int(value)}" if float(value).is_integer() else f"{value:.6g}"
        print(f"{args.workload:9} {name:48} {text:>14} {shown_units[name]}")
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "size": args.size,
        "pass_s": [p["pass_s"] for p in plain],
        "traced_pass_s": [p["pass_s"] for p in traced], "setup_s": setups,
        "op_latency_samples": samples, "digest": sorted(digests),
        "commit": commit(), "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }))
    print(json.dumps({
        "correct": correct, "attempted": attempted, "failed": failed,
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
