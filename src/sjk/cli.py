"""Command-line interface.

Verbs: poly, egf, lacunary, connect, react, table, verify.  Output goes
to stdout in text (default), json, or latex form; diagnostics go to
stderr.  Exit codes: 0 success, 1 usage or domain/parameter error, 2
verification failure.  The environment variable SJK_MAX_ORDER (default
64) caps every truncation order and degree accepted on the command line,
lacunary's K included; --alpha, --beta and --gamma take numerators and
denominators of at most 64 bits, and egf --family sj-beta-shifted takes
beta <= 1000.
"""

from __future__ import annotations

import argparse
import functools
import io
import os
import re
import sys
from fractions import Fraction

from . import families, jsonio, verify
from .connect import FAMILIES, lookup, reaction_solve
from .errors import SjkError
from .poly import CoeffSeries, Poly

DEFAULT_MAX_ORDER = 64
# The rational parameters' domain.  At the default cap its worst corners
# print coefficients of about 2,560 digits (Jacobi, two 64-bit parameters)
# and 3,150 digits (egf sj-beta-shifted, beta = 1999/2), under the 4,300
# digits CPython converts to a decimal string; Gamma(n + beta + 2) at a
# half-integer beta is an O(beta) product, so beta also bounds the work.
RATIONAL_BITS = 64
MAX_SHIFTED_BETA = 1000


class UsageError(Exception):
    pass


class _HelpRequested(Exception):
    """-h/--help was given; args[0] is the help text."""


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2) on bad flags; remap to the declared contract.
    def error(self, message):
        raise UsageError(message)

    # argparse's help action would print to sys.stdout and exit(0); run
    # writes the text to its own out stream instead.
    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


def _max_order() -> int:
    raw = os.environ.get("SJK_MAX_ORDER", "")
    try:
        cap = int(raw) if raw else DEFAULT_MAX_ORDER
    except ValueError:
        raise UsageError(f"SJK_MAX_ORDER must be an integer, got {raw!r}")
    if cap < 0:
        raise UsageError(f"SJK_MAX_ORDER must be >= 0, got {raw!r}")
    return cap


def _check_cap(value: int, label: str):
    cap = _max_order()
    if value > cap:
        raise UsageError(f"{label} {value} exceeds SJK_MAX_ORDER = {cap}")
    return value


# argparse treats only '-<digits>' and '-<digits>.<digits>' as negative
# numbers, so the '-1/2' in '--beta -1/2' would be read as an option.
_RATIONAL_OPTIONS = ("--alpha", "--beta", "--gamma")
_NEGATIVE_VALUE = re.compile(r"-[\d.]")


def _bind_negative_rationals(argv) -> list:
    """Rewrite '--beta -1/2' as '--beta=-1/2' for the rational options."""
    out = []
    for tok in argv:
        if out and out[-1] in _RATIONAL_OPTIONS and _NEGATIVE_VALUE.match(tok):
            out[-1] = f"{out[-1]}={tok}"
        else:
            out.append(tok)
    return out


def _rat(text: str) -> Fraction:
    # Fraction would expand exponent notation such as '1e999999999' into
    # an integer of unbounded size, so it is refused before parsing.
    try:
        if "e" in text.lower():
            raise ValueError(text)
        q = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise UsageError(f"expected a rational like '-3/2', got {text!r}")
    if max(abs(q.numerator), q.denominator).bit_length() > RATIONAL_BITS:
        raise UsageError(f"{text!r} has a numerator or denominator of more "
                         f"than {RATIONAL_BITS} bits")
    return q


def _render(p: Poly, fmt: str) -> str:
    """p as text or LaTeX; json output goes through jsonio instead."""
    return p.latex() if fmt == "latex" else p.text()


def _emit_poly(p: Poly, fmt: str, out):
    if fmt == "json":
        print(jsonio.dumps(jsonio.poly_to_obj(p)), file=out)
    else:
        print(_render(p, fmt), file=out)


def _emit_series(s: CoeffSeries, fmt: str, out, parameter="lambda"):
    if fmt == "json":
        print(jsonio.dumps(jsonio.series_to_obj(s, parameter)), file=out)
        return
    power = "{%d}" if fmt == "latex" else "%d"
    for k, c in enumerate(s.coeffs):
        print(f"{parameter}^{power % k}: {_render(c, fmt)}", file=out)


def _cmd_poly(args, out):
    n = _check_cap(args.n, "degree")
    fam = args.family
    if fam == "sj" and n == 1:
        # degree one is the only member with a free constant
        p = Poly.var("x") + args.gamma
    elif fam == "sj-beta":
        p = families.sj_beta_family(n, args.beta)
    elif fam == "jacobi":
        p = families.jacobi_family(n, args.alpha, args.beta)
    else:
        p = lookup(fam).source(n)
    _emit_poly(p, args.format, out)
    return 0


def _cmd_egf(args, out):
    order = _check_cap(args.order, "order")
    if args.family in FAMILIES:
        s = lookup(args.family).egf(order)
    elif args.beta > MAX_SHIFTED_BETA:
        raise UsageError(f"--beta {args.beta} exceeds {MAX_SHIFTED_BETA} "
                         "for --family sj-beta-shifted")
    else:
        s = families.egf_beta_shifted(order, args.beta)
    _emit_series(s, args.format, out)
    return 0


def _cmd_lacunary(args, out):
    order = _check_cap(args.order, "order")
    _check_cap(args.K * order + args.L, "K*order+L")
    _check_cap(args.K, "K")
    if args.check and args.format != "text":
        raise UsageError("--check prints a text PASS/FAIL line; --format applies "
                         "only to the oracle table")
    if args.check:
        detail = verify.lacunary_slices([(args.family, args.K, args.L, order)])
        print(f"closed-form == oracle: {'FAIL' if detail else 'PASS'}", file=out)
        if detail:
            print(f"  {detail}", file=out)
        return 2 if detail else 0
    oracle = verify.lacunary_oracle(args.family, args.K, args.L, order)
    _emit_series(oracle, args.format, out)
    return 0


def _cmd_connect(args, out):
    M = _check_cap(args.M, "M")
    connection = lookup(args.family).connection
    weights = [connection(M, n) for n in range(M + 1)]
    if args.format == "json":
        rows = [
            {"n": n, "num": str(w.numerator), "den": str(w.denominator)}
            if isinstance(w, Fraction) else {"n": n, "poly": jsonio.poly_to_obj(w)}
            for n, w in enumerate(weights)
        ]
        print(jsonio.dumps({"family": args.family, "M": M, "weights": rows}), file=out)
    else:
        for n, w in enumerate(weights):
            w = Poly.const(w) if isinstance(w, Fraction) else w
            print(f"A[{M},{n}] = {_render(w, args.format)}", file=out)
    return 0


def _cmd_react(args, out):
    N0 = _check_cap(args.N0, "N0")
    t_order = _check_cap(args.t_order, "t-order")
    sol = reaction_solve(N0, t_order)
    _emit_series(sol, args.format, out, parameter="t")
    return 0


def _cmd_table(args, out):
    top = _check_cap(args.max_n, "max-n")
    fn = lookup(args.family).source
    for n in range(top + 1):
        print(f"{n}: {_render(fn(n), args.format)}", file=out)
    return 0


def _cmd_verify(args, out):
    names = args.suite or None
    try:
        failures = verify.run_suites(names, out=out)
    except KeyError as exc:
        raise UsageError(
            f"unknown suite {exc.args[0]!r}; known: {', '.join(sorted(verify.SUITES))}"
        )
    return 2 if failures else 0


@functools.cache
def build_parser() -> _Parser:
    """The one parser of this process.  parse_args keeps no state between
    calls and returns a fresh Namespace each time, so it is built once."""
    parser = _Parser(prog="sjk", description=__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json", "latex"), default="text"
        )

    p = sub.add_parser("poly", help="print one family polynomial")
    p.add_argument("--family", choices=("sj", "sj-beta", "hermite", "jacobi"),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=_rat, default=Fraction(0))
    p.add_argument("--beta", type=_rat, default=Fraction(0))
    p.add_argument("--gamma", type=_rat, default=Fraction(0))
    add_format(p)
    p.set_defaults(fn=_cmd_poly)

    p = sub.add_parser("egf", help="print EGF coefficients")
    p.add_argument("--family", choices=(*FAMILIES, "sj-beta-shifted"),
                   required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--beta", type=_rat, default=Fraction(0))
    add_format(p)
    p.set_defaults(fn=_cmd_egf)

    p = sub.add_parser("lacunary", help="lacunary series; --check compares "
                                        "the closed form against the oracle")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, default=0)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--check", action="store_true")
    add_format(p)
    p.set_defaults(fn=_cmd_lacunary)

    p = sub.add_parser("connect", help="connection coefficient row for x^M")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--M", type=int, required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_connect)

    p = sub.add_parser("react", help="decay-system solution as a t-series")
    p.add_argument("--N0", type=int, required=True)
    p.add_argument("--t-order", dest="t_order", type=int, default=6)
    add_format(p)
    p.set_defaults(fn=_cmd_react)

    p = sub.add_parser("table", help="family polynomials up to a degree")
    p.add_argument("--family", choices=FAMILIES, required=True)
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    add_format(p)
    p.set_defaults(fn=_cmd_table)

    p = sub.add_parser("verify", help="run named invariant suites")
    p.add_argument("--suite", action="append",
                   help="suite name (repeatable); default: all")
    p.set_defaults(fn=_cmd_verify)

    return parser


def run(argv, out=None, err=None) -> int:
    """Run one request; a request refused with exit 1 leaves out untouched."""
    out = out or sys.stdout
    err = err or sys.stderr
    parser = build_parser()
    buf = io.StringIO()
    try:
        args = parser.parse_args(_bind_negative_rationals(argv))
        if getattr(args, "K", None) is not None and args.K < 1:
            raise UsageError("K must be >= 1")
        for attr in ("n", "order", "L", "M", "N0", "t_order", "max_n"):
            v = getattr(args, attr, None)
            if v is not None and v < 0:
                raise UsageError(f"--{attr.replace('_', '-')} must be >= 0")
        code = args.fn(args, buf)
    except _HelpRequested as exc:
        out.write(exc.args[0])
        return 0
    except (UsageError, SjkError) as exc:
        print(f"error: {exc}", file=err)
        return 1
    except ValueError as exc:
        # CPython's limit on int-to-text digits; only a raised cap reaches it
        if "integer string conversion" not in str(exc):
            raise
        cap = os.environ.get("SJK_MAX_ORDER", DEFAULT_MAX_ORDER)
        print(f"error: a coefficient has more than {sys.get_int_max_str_digits()} "
              f"digits; lower SJK_MAX_ORDER (now {cap})", file=err)
        return 1
    out.write(buf.getvalue())
    return code


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
