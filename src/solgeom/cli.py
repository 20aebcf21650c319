"""JSON command line front end.

Three families of subcommands:

  invariant validate|normalize|isom|enumerate   matrix-literal algebra
  group h1|center|torsion|w1 SPEC               reports on a named group
  verify SUITE                                  brute-force property sweeps

Every command prints exactly one JSON document with a top-level
"schema" field; --pretty indents it.  Exit codes: 0 success, 1 input or
validation error, 2 suite failure.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys

from . import catalog, verify
from .classifier import enumerate_invariants, isomorphic, normalize, validate
from .intmat import IntMatrix


# a matrix literal such as "-3,2;4,-3": a value, even with a leading minus
_MATRIX_LITERAL = re.compile(r"-?\d+(\s*[,;]\s*-?\d+)+")


class _Parser(argparse.ArgumentParser):
    """Usage errors print an error document and exit 1; argparse's
    default exit code 2 is reserved for suite failures.  --help prints
    the usage text as one help document and exits 0."""

    def error(self, message):
        print(json.dumps({"schema": "solgeom/error-v1", "error": message}))
        raise SystemExit(1)

    def print_help(self, file=None):
        print(json.dumps({"schema": "solgeom/help-v1",
                          "usage": self.format_help()}), file=file)

    def _parse_optional(self, arg_string):
        if _MATRIX_LITERAL.fullmatch(arg_string):
            return None
        return super()._parse_optional(arg_string)


def _emit(payload: dict, pretty: bool) -> None:
    print(json.dumps(payload, indent=2 if pretty else None))


# ---------------------------------------------------------------------------
# invariant subcommands

def _cmd_invariant(args):
    inv = args.reader(IntMatrix.parse(args.matrix))
    return {"schema": "solgeom/invariant-v1", **inv.to_record(),
            "matrix": inv.matrix().literal()}, 0


def _cmd_isom(args):
    left = normalize(IntMatrix.parse(args.left))
    right = normalize(IntMatrix.parse(args.right))
    return {"schema": "solgeom/isom-v1",
            "isomorphic": isomorphic(left, right),
            "left": left.to_record(), "right": right.to_record()}, 0


def _cmd_enumerate(args):
    invs = enumerate_invariants(args.max)
    return {"schema": "solgeom/enumeration-v1", "maxEntry": args.max,
            "count": len(invs),
            "invariants": [i.to_record() for i in invs]}, 0


# ---------------------------------------------------------------------------
# group subcommands

def _cmd_h1(args):
    g = catalog.resolve_group(args.spec)
    rank, torsion = g.abelianization()
    return {"schema": "solgeom/h1-v1", "group": g.name, "rank": rank,
            "torsion": list(torsion)}, 0


def _cmd_center(args):
    g = catalog.resolve_group(args.spec)
    c = g.center()
    words = [g.element_to_word(e) for e in c.generators]
    out = {"schema": "solgeom/center-v1", "group": g.name, "rank": c.rank,
           "generators": words}
    # convenience key when the center is cyclic
    if len(words) == 1:
        out["generator"] = words[0]
    return out, 0


def _cmd_torsion(args):
    if args.max_word < 1:
        raise ValueError(f"--max-word must be at least 1, not "
                         f"{args.max_word}")
    g = catalog.resolve_group(args.spec)
    witness = g.find_torsion()
    out = {"schema": "solgeom/torsion-v1", "group": g.name,
           "maxWordLength": args.max_word, "complete": True,
           "torsion_found": witness is not None}
    if witness is not None:
        out["witness"] = {"element": g.element_to_word(witness), "order": 2}
    return out, 0


def _cmd_w1(args):
    g = catalog.resolve_group(args.spec)
    return {"schema": "solgeom/w1-v1", "group": g.name,
            "characters": g.generator_characters(),
            "factors_through_z4": g.w1_factors_through_z4()}, 0


# ---------------------------------------------------------------------------
# verify

def _cmd_verify(args):
    rep = verify.run_suite(args.suite, box=args.box, max_entry=args.max,
                           a_max=args.a_max)
    return rep.to_json_dict(), 0 if rep.ok else 2


# ---------------------------------------------------------------------------

@functools.cache
def _parser() -> _Parser:
    top = _Parser(prog="solgeom",
                  description="Sol^3 x E^1 group toolkit, JSON output")
    pretty = argparse.ArgumentParser(add_help=False)
    pretty.add_argument("--pretty", action="store_true",
                        help="indent the JSON output")
    sub = top.add_subparsers(dest="command", required=True)

    inv = sub.add_parser("invariant", help="pillowcase invariant algebra")
    inv_sub = inv.add_subparsers(dest="subcommand", required=True)
    p = inv_sub.add_parser("validate", parents=[pretty],
                           help="check a matrix literal against every "
                                "invariant constraint")
    p.add_argument("matrix", help='matrix literal "p,q;r,p"')
    p.set_defaults(handler=_cmd_invariant, reader=validate)
    p = inv_sub.add_parser("normalize", parents=[pretty],
                           help="validate the matrix or its inverse")
    p.add_argument("matrix")
    p.set_defaults(handler=_cmd_invariant, reader=normalize)
    p = inv_sub.add_parser("isom", parents=[pretty],
                           help="decide whether two matrices give "
                                "isomorphic groups")
    p.add_argument("left")
    p.add_argument("right")
    p.set_defaults(handler=_cmd_isom)
    p = inv_sub.add_parser("enumerate", parents=[pretty],
                           help="list every invariant within an entry bound")
    p.add_argument("--max", type=int, default=20, metavar="K",
                   help="entry bound (default 20)")
    p.set_defaults(handler=_cmd_enumerate)

    grp = sub.add_parser("group", help="reports on a catalog or file group")
    grp_sub = grp.add_subparsers(dest="subcommand", required=True)
    for name, handler, extra in (
            ("h1", _cmd_h1, "abelianization rank and torsion"),
            ("center", _cmd_center, "center rank and generating words"),
            ("torsion", _cmd_torsion, "decide torsion in a dihedral "
                                      "extension"),
            ("w1", _cmd_w1, "orientation character data")):
        p = grp_sub.add_parser(name, parents=[pretty], help=extra)
        p.add_argument("spec",
                       help="catalog id, parameterized form like "
                            "pillowcase(3,2,4), or a .json description path")
        if name == "torsion":
            p.add_argument("--max-word", type=int, default=7, metavar="L",
                           help="echoed as maxWordLength; the decision is "
                                "exact for every L >= 1 (default 7)")
        p.set_defaults(handler=handler)

    ver = sub.add_parser("verify", parents=[pretty],
                         help="run a property sweep; exit 2 on failures")
    ver.add_argument("suite",
                     help="one of: " + ", ".join(sorted(verify.SUITES)))
    ver.add_argument("--box", type=int, default=None, metavar="B",
                     help="matrix entry bound for GL(2,Z) sweeps")
    ver.add_argument("--max", type=int, default=None, metavar="K",
                     help="invariant entry bound for family sweeps")
    ver.add_argument("--a-max", type=int, default=None, metavar="A",
                     help="diagonal bound for the bordered family")
    ver.set_defaults(handler=_cmd_verify)
    return top


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    pretty = getattr(args, "pretty", False)
    try:
        payload, code = args.handler(args)
    except (ValueError, OSError) as exc:
        _emit({"schema": "solgeom/error-v1", "error": str(exc)}, pretty)
        return 1
    _emit(payload, pretty)
    return code


if __name__ == "__main__":
    sys.exit(main())
