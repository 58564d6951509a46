"""The argparse parser that sjk.cli used before its option tables: the
oracle that tests/test_cli.py checks the table parser against.

build_parser, _Parser and _bind_negative_rationals are the former code of
sjk.cli, with the names they read from that module qualified by ``cli.``.
"""

import argparse
import functools
import re
from fractions import Fraction

from sjk import cli


class _HelpRequested(Exception):
    """-h/--help was given; args[0] is the help text."""


class _Parser(argparse.ArgumentParser):
    # argparse would exit(2) on bad flags; remap to the declared contract.
    def error(self, message):
        raise cli.UsageError(message)

    # argparse's help action would print to sys.stdout and exit(0); run
    # writes the text to its own out stream instead.
    def print_help(self, file=None):
        raise _HelpRequested(self.format_help())


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


@functools.cache
def build_parser() -> _Parser:
    """The one parser of this process.  parse_args keeps no state between
    calls and returns a fresh Namespace each time, so it is built once."""
    parser = _Parser(prog="sjk", description=cli.__doc__)
    sub = parser.add_subparsers(dest="verb", required=True)

    def add_format(p):
        p.add_argument(
            "--format", choices=("text", "json", "latex"), default="text"
        )

    p = sub.add_parser("poly", help="print one family polynomial")
    p.add_argument("--family", choices=("sj", "sj-beta", "hermite", "jacobi"),
                   required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=cli._rat, default=Fraction(0))
    p.add_argument("--beta", type=cli._rat, default=Fraction(0))
    p.add_argument("--gamma", type=cli._rat, default=Fraction(0))
    add_format(p)
    p.set_defaults(fn=cli._cmd_poly)

    p = sub.add_parser("egf", help="print EGF coefficients")
    p.add_argument("--family", choices=(*cli.FAMILIES, "sj-beta-shifted"),
                   required=True)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--beta", type=cli._rat, default=Fraction(0))
    add_format(p)
    p.set_defaults(fn=cli._cmd_egf)

    p = sub.add_parser("lacunary", help="lacunary series; --check compares "
                                        "the closed form against the oracle")
    p.add_argument("--family", choices=cli.FAMILIES, required=True)
    p.add_argument("--K", type=int, required=True)
    p.add_argument("--L", type=int, default=0)
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--check", action="store_true")
    add_format(p)
    p.set_defaults(fn=cli._cmd_lacunary)

    p = sub.add_parser("connect", help="connection coefficient row for x^M")
    p.add_argument("--family", choices=cli.FAMILIES, required=True)
    p.add_argument("--M", type=int, required=True)
    add_format(p)
    p.set_defaults(fn=cli._cmd_connect)

    p = sub.add_parser("react", help="decay-system solution as a t-series")
    p.add_argument("--N0", type=int, required=True)
    p.add_argument("--t-order", dest="t_order", type=int, default=6)
    add_format(p)
    p.set_defaults(fn=cli._cmd_react)

    p = sub.add_parser("table", help="family polynomials up to a degree")
    p.add_argument("--family", choices=cli.FAMILIES, required=True)
    p.add_argument("--max-n", dest="max_n", type=int, required=True)
    add_format(p)
    p.set_defaults(fn=cli._cmd_table)

    p = sub.add_parser("verify", help="run named invariant suites")
    p.add_argument("--suite", action="append",
                   help="suite name (repeatable); default: all")
    p.set_defaults(fn=cli._cmd_verify)

    return parser


def parse(argv):
    """argv as sjk.cli's run read it with this parser; a request for help is
    read as the namespace sjk.cli._parse gives it, that of its verb's help."""
    try:
        return build_parser().parse_args(_bind_negative_rationals(argv))
    except _HelpRequested as exc:
        usage = exc.args[0].split()  # 'usage: sjk [-h] ...' or 'usage: sjk poly ...'
        return argparse.Namespace(verb=None if usage[2] == "[-h]" else usage[2],
                                  fn=cli._cmd_help)
