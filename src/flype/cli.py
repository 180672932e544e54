"""Command-line surface: ``flype <subcommand>``.

Subcommands: validate, render, moves, apply, decompose, invariants, simplify,
census.  Exit status 0 on success, 1 on any user error (reported on stderr
with the machine-parsable prefix ``E:<code>:``), 2 only when an internal
invariant of the theory broke, which is a bug in this package.
"""

from __future__ import annotations

import argparse
import json
import sys

from .annulus import parse_annulus
from .decompose import decompose, validate_certificate
from .errors import FlypeError, InternalInvariantBroken
from .invariants import jones, legendrian, writhe
from .moves import enumerate_elementary, move_kind_of, serialize_move
from .multiflype import MultiflypeSpec, replacement_log
from .search import simplify, unknot_census
from .torus_core import parse, render_ascii, serialize


class _UsageError(FlypeError):
    code = "Usage"


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _read(path: str) -> str:
    try:
        with open(path, encoding="utf-8") as fh:
            return fh.read()
    except OSError as err:
        raise _UsageError(f"cannot read {path}: {err}") from None


def _load_grid(path: str):
    return parse(_read(path))


def _build_parser() -> _Parser:
    parser = _Parser(prog="flype", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check a grid file")
    p.add_argument("grid")

    p = sub.add_parser("render", help="ASCII picture of a grid file")
    p.add_argument("grid")

    p = sub.add_parser("moves", help="enumerate elementary moves")
    p.add_argument("grid")
    p.add_argument("--filter", default="all",
                   choices=["all", "non_increasing", "destabilizations",
                            "exchanges", "stabilizations"])

    for name in ("apply", "decompose"):
        p = sub.add_parser(name)
        p.add_argument("--grid", required=True)
        p.add_argument("--annulus", required=True)
        p.add_argument("--dir", required=True, choices=["NE", "NW", "SW", "SE"])
        if name == "apply":
            p.add_argument("--out")
        else:
            p.add_argument("--verify", action="store_true")

    p = sub.add_parser("invariants")
    p.add_argument("--grid", required=True)

    p = sub.add_parser("simplify")
    p.add_argument("--grid", required=True)
    p.add_argument("--budget", type=int, default=10 ** 6)
    p.add_argument("--moves", default="elem", choices=["elem", "elem+flype"])
    p.add_argument("--out")

    p = sub.add_parser("census")
    p.add_argument("--n-max", type=int, required=True)
    p.add_argument("--out")
    return parser


def _write(text: str, out):
    """Write to the --out path, or to stdout when there is none."""
    if not out:
        sys.stdout.write(text)
        return
    try:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as err:
        raise _UsageError(f"cannot write {out}: {err}") from None


def _write_report(report: dict, out):
    _write(json.dumps(report, sort_keys=True, indent=2) + "\n", out)


def _run(args) -> int:
    if args.command == "validate":
        diagram = _load_grid(args.grid)
        print(f"valid grid diagram, n={diagram.n}")
        return 0

    if args.command == "render":
        print(render_ascii(_load_grid(args.grid)))
        return 0

    if args.command == "moves":
        diagram = _load_grid(args.grid)
        for move in enumerate_elementary(diagram, args.filter):
            print(serialize_move(move), "#", move_kind_of(diagram, move))
        return 0

    if args.command == "apply":
        diagram = _load_grid(args.grid)
        spec = MultiflypeSpec(parse_annulus(_read(args.annulus)), args.dir)
        result, log = replacement_log(diagram, spec)
        for line in log:
            print("#", line)
        _write(serialize(result), args.out)
        return 0

    if args.command == "decompose":
        diagram = _load_grid(args.grid)
        spec = MultiflypeSpec(parse_annulus(_read(args.annulus)), args.dir)
        cert = decompose(diagram, spec)
        for move, target in cert.steps:
            print(serialize_move(move))
            sys.stdout.write(serialize(target))
        if args.verify and not validate_certificate(cert):
            raise InternalInvariantBroken("certificate failed re-validation")
        print(f"certificate length {len(cert)}")
        return 0

    if args.command == "invariants":
        diagram = _load_grid(args.grid)
        pair = legendrian(diagram)
        print(f"n {diagram.n}")
        print(f"writhe {writhe(diagram)}")
        print(f"jones {jones(diagram).pretty('t')}")
        print(f"up tb {pair.up[0]} rot {pair.up[1]}")
        print(f"down tb {pair.down[0]} rot {pair.down[1]}")
        return 0

    if args.command == "simplify":
        diagram = _load_grid(args.grid)
        report = simplify(diagram, budget=args.budget, move_set=args.moves)
        _write_report(report.to_dict(), args.out)
        return 0

    if args.command == "census":
        if not 2 <= args.n_max <= 5:
            raise _UsageError("census needs 2 <= n-max <= 5")
        _write_report(unknot_census(args.n_max), args.out)
        return 0

    raise _UsageError(f"unknown command {args.command!r}")


def cli(argv) -> int:
    """Run the command line; returns the exit status."""
    try:
        args = _build_parser().parse_args(argv)
        return _run(args)
    except InternalInvariantBroken as err:
        sys.stderr.write(f"E:{err.code}: {err.message}\n")
        return 2
    except _UsageError as err:
        sys.stderr.write(f"E:Usage: {err.message}\n")
        return 1
    except FlypeError as err:
        sys.stderr.write(f"E:{err.code}: {err.message}\n")
        return 1


def main():
    sys.exit(cli(sys.argv[1:]))


if __name__ == "__main__":
    main()
