"""Command-line interface.

Subcommands: dist, iso-dist, matrix, transform, law-dist, enumerate.
Each returns its text, and ``main`` writes it (stdout or --out) and any
error (stderr); the one subcommand that prints for itself is
``iso-dist --witness``, which writes its bijection to stderr.
Rationals always print as ``p/q`` in lowest terms. Exit codes:

  0  success
  2  parse error (with line/column where known), or an unwritable --out
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
from .iso_metric import (MAX_ENUMERATION_VERTICES, CanonicalComplex, class_distance,
                         class_distance_matrix, enumerate_classes)

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
            v = cc.integer(vtext.strip())
            w = parse_rational(wtext.strip())
        except (ValueError, ParseError) as exc:
            raise ParseError(f"bad law entry {part!r}: {exc}")
        # refused as read: a repeated vertex's entries are summed, and a sum
        # could hide a negative entry from ``Law.of``
        if w < 0:
            raise InvalidLawError(f"weights must be nonnegative, got {part!r}")
        weights[v] = weights.get(v, Fraction(0)) + w
    if not weights:
        raise ParseError("empty law specification")
    return Law.of(weights)


# n from EXTENDED_VERTICES up needs --extended; each command has its own cap.
# The 6-vertex matrix has 130,290,153 class pairs, so matrix stops at 5.
EXTENDED_VERTICES = 5
VERTEX_CAPS = {"matrix": 5, "enumerate": MAX_ENUMERATION_VERTICES}


def _classes(args) -> list[CanonicalComplex]:
    low, cap = EXTENDED_VERTICES, VERTEX_CAPS[args.command]
    if args.n > cap or (args.n >= low and not args.extended):
        raise TooLargeError(f"{args.command} supports n < {low}, or n <= {cap} with --extended")
    return enumerate_classes(args.n)


def _cmd_dist(args) -> str:
    return format_rational(distance(_read_complex(args.a), _read_complex(args.b))) + "\n"


def _cmd_iso_dist(args) -> str:
    result = class_distance(_read_complex(args.a), _read_complex(args.b))
    if args.witness:
        w = result.witness_bijection
        print("no bijection: vertex counts differ" if w is None
              else " ".join(f"{u}->{v}" for u, v in sorted(w.items())), file=sys.stderr)
    return format_rational(result.value) + "\n"


def _cmd_matrix(args) -> str:
    return class_distance_matrix(_classes(args)).to_tsv()


def _cmd_enumerate(args) -> str:
    payload = [{"maximal_faces": [list(f) for f in sorted(c.complex.maximal_faces)]}
               for c in _classes(args)]
    return json.dumps(payload, indent=2) + "\n"


def _cmd_transform(args) -> str:
    k = _read_complex(args.input)
    if args.op == "components":
        return "[" + ", ".join(map(cc.complex_to_json, cc.connected_components(k))) + "]\n"
    if args.op == "skeleton":
        if args.k is None:
            raise ParseError("skeleton needs -k")
        result = cc.skeleton(k, args.k)
    elif args.op == "sd":
        result = cc.barycentric_subdivision(k)
    else:  # intersect
        if args.second is None:
            raise ParseError("intersect needs two input files")
        result = cc.intersect(k, _read_complex(args.second))
    return cc.complex_to_json(result) + "\n"


def _cmd_law_dist(args) -> str:
    k = _read_complex(args.complex)
    return format_rational(law_distance(_parse_law(args.law), k)) + "\n"


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

    for name, func, text in (
            ("matrix", _cmd_matrix, "distance matrix over all classes on n vertices"),
            ("enumerate", _cmd_enumerate, "list all classes on n vertices as JSON")):
        p = sub.add_parser(name, help=text)
        p.add_argument("n", type=cc.integer)
        p.add_argument("--extended", action="store_true",
                       help=f"allow n from {EXTENDED_VERTICES} up to {VERTEX_CAPS[name]}")
        p.set_defaults(func=func)

    p = sub.add_parser("transform", help="apply a complex operation")
    p.add_argument("op", choices=["skeleton", "sd", "components", "intersect"])
    p.add_argument("input")
    p.add_argument("second", nargs="?", default=None, help="second input for intersect")
    p.add_argument("-k", type=cc.integer, default=None, help="skeleton order")
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
        # argparse reads a lone "--" as an option's value (--law=--) as an empty list
        if [] in vars(args).values():
            raise ParseError("an option's value cannot be '--'")
        text = args.func(args)
        if args.out is None:
            sys.stdout.write(text)
        else:
            try:
                Path(args.out).write_text(text)
            except OSError as exc:
                raise ParseError(f"cannot write {args.out}: {exc}")
    except (SimhausError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in EXIT_CODES if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
