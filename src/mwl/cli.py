"""Command-line front end with deterministic text output.

Exit codes for check/shiromoto: 0 = Holds, 1 = Fails, 2 = NotWellFormed,
3 = usage or runtime error. All other commands exit 0 on success and 3 on
error.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import io
import sys

from .errors import BudgetExceeded, budget_limit
from .gray import (
    Field,
    canonical_gray_map,
    format_gray_table,
    is_bijective_extension,
    is_weight_preserving,
    parse_gray_table,
)
from .homopoly import from_text, substitute_transform, to_text
from .identity import (
    IdentityQuery,
    IdentityStatus,
    IdentityVerdict,
    check_identity,
    check_shiromoto_form,
    scan_existence,
    search_counterexample,
)
from .krawtchouk import KrawtchoukParams, krawtchouk_matrix
from .weights import WeightKind, weight_enumerator
from .zmod import LinearCode, format_code_spec, format_codewords, parse_code_spec


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


_EXIT_BY_STATUS = {
    IdentityStatus.HOLDS: 0,
    IdentityStatus.FAILS: 1,
    IdentityStatus.NOT_WELL_FORMED: 2,
}


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _load_code(args) -> LinearCode:
    return parse_code_spec(_read_text(args.code))


def _print_verdict(verdict: IdentityVerdict) -> int:
    disc = to_text(verdict.discrepancy) if verdict.discrepancy is not None else "none"
    print(f"verdict={verdict.status.value} reason={verdict.reason.value} discrepancy={disc}")
    return _EXIT_BY_STATUS[verdict.status]


def cmd_enumerate(args) -> int:
    print(format_codewords(_load_code(args)), end="")
    return 0


def cmd_dual(args) -> int:
    code = _load_code(args)
    print(format_code_spec(code.dual()), end="")
    return 0


def cmd_wenum(args) -> int:
    code = _load_code(args)
    kind = WeightKind(args.weight)
    print(to_text(weight_enumerator(code, kind)))
    print(f"|C| = {code.cardinality()}")
    return 0


def cmd_gray(args) -> int:
    field = Field(args.m)
    if args.map is not None:
        gmap = parse_gray_table(_read_text(args.map), field)
        if args.modulus is not None and gmap.ell != args.modulus:
            raise _UsageError(
                f"table has {gmap.ell} rows but --modulus {args.modulus} was given"
            )
        wp = "true" if is_weight_preserving(gmap) else "false"
        bij = "true" if is_bijective_extension(gmap) else "false"
        print(f"weight_preserving={wp}")
        print(f"bijective_extension={bij}")
        return 0
    if args.modulus is None:
        raise _UsageError("--modulus is required unless --map is given")
    print(format_gray_table(canonical_gray_map(args.modulus, field)), end="")
    return 0


def cmd_kraw(args) -> int:
    matrix = krawtchouk_matrix(KrawtchoukParams(n=args.n, q=args.q))
    for row in matrix:
        print("\t".join(map(str, row)))
    return 0


def cmd_transform(args) -> int:
    poly = from_text(args.poly)
    print(to_text(substitute_transform(poly, args.multiplier, args.scale)))
    return 0


def cmd_check(args) -> int:
    code = _load_code(args)
    query = IdentityQuery(code, WeightKind(args.weight), args.multiplier)
    return _print_verdict(check_identity(query))


def cmd_shiromoto(args) -> int:
    code = _load_code(args)
    return _print_verdict(check_shiromoto_form(code, WeightKind(args.weight)))


def cmd_scan(args) -> int:
    for ell, t in scan_existence(WeightKind(args.weight), args.max):
        print(f"{ell} {t}")
    return 0


def cmd_search(args) -> int:
    found = search_counterexample(
        args.modulus, WeightKind(args.weight), args.multiplier, args.max_length
    )
    if found is None:
        print("verdict=none")
        return 0
    code, discrepancy = found
    print(f"verdict=found length={code.length}")
    print(format_code_spec(code), end="")
    print(f"discrepancy={to_text(discrepancy)}")
    return 0


@functools.cache
def _build_parser() -> _Parser:
    """The command-line grammar; built once per process, as parsing leaves it unchanged."""
    parser = _Parser(prog="mwl", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, func, help_text):
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(func=func, budget=None)
        return p

    def add_budget(p):
        p.add_argument("--budget", type=int, help="enumeration budget (overrides MWL_BUDGET)")

    p = add("enumerate", cmd_enumerate, "list all codewords of a code")
    p.add_argument("--code", required=True, help="code spec file, or - for stdin")
    add_budget(p)

    p = add("dual", cmd_dual, "emit the dual code as a code spec")
    p.add_argument("--code", required=True)
    add_budget(p)

    p = add("wenum", cmd_wenum, "weight enumerator polynomial of a code")
    p.add_argument("--code", required=True)
    p.add_argument("--weight", required=True, choices=["hamming", "lee", "euclidean"])
    add_budget(p)

    p = add("gray", cmd_gray, "print the canonical Gray table, or verify a custom one")
    p.add_argument("--modulus", type=int, default=None)
    p.add_argument("--m", type=int, required=True, dest="m", help="field size")
    p.add_argument("--map", default=None, help="custom table file to verify")

    p = add("kraw", cmd_kraw, "Krawtchouk value matrix K_k(j)")
    p.add_argument("--q", type=int, required=True)
    p.add_argument("--n", type=int, required=True)

    p = add("transform", cmd_transform, "apply the substitution transform to a polynomial")
    p.add_argument("--poly", required=True, help="polynomial in 'deg D; i:c ...' form")
    p.add_argument("--m", "--q", type=int, required=True, dest="multiplier")
    p.add_argument("--scale", type=int, default=1)

    p = add("check", cmd_check, "verify the identity for one code and multiplier")
    p.add_argument("--code", required=True)
    p.add_argument("--weight", required=True, choices=["lee", "euclidean"])
    p.add_argument("--m", "--q", type=int, required=True, dest="multiplier")
    add_budget(p)

    p = add("shiromoto", cmd_shiromoto, "check the fixed-root identity form")
    p.add_argument("--code", required=True)
    p.add_argument("--weight", required=True, choices=["lee", "euclidean"])
    add_budget(p)

    p = add("scan", cmd_scan, "list moduli admitting an identity")
    p.add_argument("--weight", required=True, choices=["lee", "euclidean"])
    p.add_argument("--max", type=int, required=True)

    p = add("search", cmd_search, "first code failing the identity, if any")
    p.add_argument("--modulus", type=int, required=True)
    p.add_argument("--weight", required=True, choices=["lee", "euclidean"])
    p.add_argument("--m", "--q", type=int, required=True, dest="multiplier")
    p.add_argument("--max-length", type=int, required=True, dest="max_length")
    add_budget(p)

    return parser


def main(argv=None) -> int:
    """Run one command; its stdout is written once it has returned, so an error prints none."""
    parser = _build_parser()
    out = io.StringIO()
    try:
        args = parser.parse_args(argv)
        with budget_limit(args.budget), contextlib.redirect_stdout(out):
            status = args.func(args)
    except (_UsageError, BudgetExceeded, ValueError, ArithmeticError, OSError, MemoryError) as exc:
        # a MemoryError is an allocation the budget did not foresee: an error, never "Fails"
        print(f"error: {str(exc) or type(exc).__name__}", file=sys.stderr)
        return 3
    sys.stdout.write(out.getvalue())
    return status


if __name__ == "__main__":
    sys.exit(main())
