"""Command-line interface.

Subcommands: dist, iso-dist, matrix, transform, law-dist, enumerate.
Rationals always print as ``p/q`` in lowest terms. Exit codes:

  0  success
  2  parse error (with line/column where known)
  3  invariant violation (empty face, bad vertex map, ...)
  4  input exceeds the brute-force cap (TooLarge)
  5  empty intersection
  6  law weights do not sum to one
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from pathlib import Path

from . import complex_core as cc
from .errors import (
    EmptyIntersectionError,
    InvalidLawError,
    ParseError,
    SimhausError,
    TooLargeError,
)
from .exact_minimax import format_rational, parse_rational
from .hausdorff_metric import Law, distance, law_distance
from .iso_metric import class_distance, class_distance_matrix, enumerate_classes

# the first matching entry wins, so subclasses come before SimhausError
EXIT_CODES = (
    (ParseError, 2),
    (ValueError, 2),
    (TooLargeError, 4),
    (EmptyIntersectionError, 5),
    (InvalidLawError, 6),
    (SimhausError, 3),
)


def _read_complex(path: str) -> cc.Complex:
    """JSON when the text starts with ``{`` or ``[``; no line-format input can."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc}")
    if text.lstrip()[:1] in ("{", "["):
        return cc.complex_from_json(text)
    return cc.complex_from_lines(text)


def _write_output(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        Path(out).write_text(text)


def _parse_law(text: str) -> Law:
    weights: dict[int, Fraction] = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if ":" not in part:
            raise ParseError(f"law entries look like 'vertex:p/q', got {part!r}")
        vtext, wtext = part.split(":", 1)
        try:
            v = int(vtext)
            w = parse_rational(wtext)
        except (ValueError, ParseError) as exc:
            raise ParseError(f"bad law entry {part!r}: {exc}")
        weights[v] = weights.get(v, Fraction(0)) + w
    if not weights:
        raise ParseError("empty law specification")
    return Law.of(weights)


def _cmd_dist(args) -> int:
    a = _read_complex(args.a)
    b = _read_complex(args.b)
    _write_output(format_rational(distance(a, b)) + "\n", args.out)
    return 0


def _cmd_iso_dist(args) -> int:
    a = _read_complex(args.a)
    b = _read_complex(args.b)
    result = class_distance(a, b)
    _write_output(format_rational(result.value) + "\n", args.out)
    if args.witness:
        if result.witness_bijection is None:
            print("no bijection: vertex counts differ", file=sys.stderr)
        else:
            pairs = " ".join(f"{u}->{v}" for u, v in sorted(result.witness_bijection.items()))
            print(pairs, file=sys.stderr)
    return 0


def _cmd_matrix(args) -> int:
    if args.n > 5 or (args.n == 5 and not args.extended):
        raise TooLargeError("matrix supports n <= 4, or n = 5 with --extended")
    classes = enumerate_classes(args.n)
    matrix = class_distance_matrix(classes)
    _write_output(matrix.to_tsv(), args.out)
    return 0


def _cmd_enumerate(args) -> int:
    if args.n > 4 and not args.extended:
        raise TooLargeError("enumerate supports n <= 4, or up to 5 with --extended")
    classes = enumerate_classes(args.n)
    payload = [{"maximal_faces": [list(f) for f in sorted(c.complex.maximal_faces)]}
               for c in classes]
    _write_output(json.dumps(payload, indent=2) + "\n", args.out)
    return 0


def _cmd_transform(args) -> int:
    k = _read_complex(args.input)
    if args.op == "skeleton":
        if args.k is None or args.k < 0:
            raise ParseError("skeleton needs a nonnegative -k")
        result = cc.skeleton(k, args.k)
        _write_output(cc.complex_to_json(result) + "\n", args.out)
    elif args.op == "sd":
        result = cc.barycentric_subdivision(k)
        _write_output(cc.complex_to_json(result) + "\n", args.out)
    elif args.op == "components":
        comps = cc.connected_components(k)
        payload = [json.loads(cc.complex_to_json(c)) for c in comps]
        _write_output(json.dumps(payload) + "\n", args.out)
    else:  # intersect
        if args.second is None:
            raise ParseError("intersect needs two input files")
        other = _read_complex(args.second)
        result = cc.intersect(k, other)
        _write_output(cc.complex_to_json(result) + "\n", args.out)
    return 0


def _cmd_law_dist(args) -> int:
    k = _read_complex(args.complex)
    law = _parse_law(args.law)
    _write_output(format_rational(law_distance(law, k)) + "\n", args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="simhaus",
        description="Exact Hausdorff distances between finite simplicial complexes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("dist", help="distance between two labeled complexes")
    p.add_argument("a")
    p.add_argument("b")
    p.set_defaults(func=_cmd_dist)

    p = sub.add_parser("iso-dist", help="distance between isomorphism classes")
    p.add_argument("a")
    p.add_argument("b")
    p.add_argument("--witness", action="store_true",
                   help="print the minimizing vertex bijection on stderr")
    p.set_defaults(func=_cmd_iso_dist)

    p = sub.add_parser("matrix", help="distance matrix over all classes on n vertices")
    p.add_argument("n", type=int)
    p.add_argument("--extended", action="store_true", help="allow n = 5")
    p.set_defaults(func=_cmd_matrix)

    p = sub.add_parser("enumerate", help="list all classes on n vertices as JSON")
    p.add_argument("n", type=int)
    p.add_argument("--extended", action="store_true", help="allow n = 5")
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("transform", help="apply a complex operation")
    p.add_argument("op", choices=["skeleton", "sd", "components", "intersect"])
    p.add_argument("input")
    p.add_argument("second", nargs="?", default=None, help="second input for intersect")
    p.add_argument("-k", type=int, default=None, help="skeleton order")
    p.set_defaults(func=_cmd_transform)

    p = sub.add_parser("law-dist", help="distance from a probability law to a complex")
    p.add_argument("complex")
    p.add_argument("--law", required=True, help='weights as "v:p/q,v:p/q,..." summing to 1')
    p.set_defaults(func=_cmd_law_dist)

    for p in sub.choices.values():
        p.add_argument("--out", default=None, help="write output to a file instead of stdout")
    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (SimhausError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
