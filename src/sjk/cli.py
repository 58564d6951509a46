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

import io
import os
import sys
from types import SimpleNamespace

from . import families, jsonio, lacunary, scalar, verify
from .connect import FAMILIES, lookup, reaction_solve
from .errors import SjkError
from .poly import CoeffSeries, Poly
from .scalar import ExactScalar

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


def _max_order() -> int:
    raw = os.environ.get("SJK_MAX_ORDER", "")
    try:
        cap = int(raw) if raw else DEFAULT_MAX_ORDER
    except ValueError:
        raise UsageError(f"SJK_MAX_ORDER must be an integer, got {raw!r}")
    if cap < 0:
        raise UsageError(f"SJK_MAX_ORDER must be >= 0, got {raw!r}")
    return cap


def _check_cap(*checks):
    """checks[0]'s value; UsageError at a value over SJK_MAX_ORDER, read once."""
    cap = _max_order()
    for value, label in checks:
        if value > cap:
            raise UsageError(f"{label} {value} exceeds SJK_MAX_ORDER = {cap}")
    return checks[0][0]


def _rat(text: str):
    """text parsed as a Fraction (scalar._fraction imports fractions once)."""
    # Fraction would expand exponent notation such as '1e999999999' into
    # an integer of unbounded size, so it is refused before parsing.
    try:
        if "e" in text.lower():
            raise ValueError(text)
        q = scalar._fraction(text)
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
        print(jsonio.dumps(p), file=out)
    else:
        print(_render(p, fmt), file=out)


def _emit_series(s: CoeffSeries, fmt: str, out, parameter="lambda"):
    if fmt == "json":
        envelope = {"parameter": parameter, "order": s.order, "coefficients": s.coeffs}
        print(jsonio.dumps(envelope), file=out)
        return
    power = "{%d}" if fmt == "latex" else "%d"
    for k, c in enumerate(s.coeffs):
        print(f"{parameter}^{power % k}: {_render(c, fmt)}", file=out)


def _cmd_poly(args, out):
    n = _check_cap((args.n, "degree"))
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
    order = _check_cap((args.order, "order"))
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
    order = _check_cap((args.order, "order"),
                       (args.K * args.order + args.L, "K*order+L"), (args.K, "K"))
    if args.check and args.format != "text":
        raise UsageError("--check prints a text PASS/FAIL line; --format applies "
                         "only to the oracle table")
    if args.check:
        detail = verify.lacunary_slices([(args.family, args.K, args.L, order)])
        print(f"closed-form == oracle: {'FAIL' if detail else 'PASS'}", file=out)
        if detail:
            print(f"  {detail}", file=out)
        return 2 if detail else 0
    source = lookup(args.family).source
    oracle = lacunary.multisection_oracle(source, args.K, args.L, order)
    _emit_series(oracle, args.format, out)
    return 0


def _cmd_connect(args, out):
    M = _check_cap((args.M, "M"))
    connection = lookup(args.family).connection
    weights = [connection(M, n) for n in range(M + 1)]
    if args.format == "json":
        rows = [
            {"n": n, "num": str(w.num), "den": str(w.den)}
            if isinstance(w, ExactScalar) else {"n": n, "poly": w}
            for n, w in enumerate(weights)
        ]
        print(jsonio.dumps({"family": args.family, "M": M, "weights": rows}), file=out)
    else:
        for n, w in enumerate(weights):
            w = Poly.const(w) if isinstance(w, ExactScalar) else w
            print(f"A[{M},{n}] = {_render(w, args.format)}", file=out)
    return 0


def _cmd_react(args, out):
    _check_cap((args.N0, "N0"), (args.t_order, "t-order"))
    sol = reaction_solve(args.N0, args.t_order)
    _emit_series(sol, args.format, out, parameter="t")
    return 0


def _cmd_table(args, out):
    top = _check_cap((args.max_n, "max-n"))
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


def _cmd_help(args, out):
    """-h/--help: the usage of sjk, or of one verb, written from the tables."""
    if args.verb is None:
        print(f"usage: sjk [-h] {{{','.join(_VERBS)}}} ...\n\n{__doc__}", file=out)
        for verb, (_, line, _) in _VERBS.items():
            print(f"  {verb:10}{line}", file=out)
        return 0
    _, line, opts = _VERBS[args.verb]
    print(f"usage: sjk {args.verb} [-h] OPTION ...\n\n{line}\n", file=out)
    for name, kind in opts.items():
        value = "{%s}" % ",".join(kind) if type(kind) is tuple else name[2:].upper()
        form = name if kind is bool else f"{name} {value}"
        print(f"  [{form}]" if name in _DEFAULTS else f"  {form}", file=out)
    return 0


# Each verb's options, in the order errors list them.  An option takes a str
# from a tuple of choices, or a value that int or _rat converts, or a str that
# may repeat (list); bool marks a flag.  It is required unless it has a default.
_FORMAT = ("text", "json", "latex")
_DEFAULTS = {"--alpha": 0, "--beta": 0, "--gamma": 0, "--L": 0,
             "--t-order": 6, "--check": False, "--format": "text", "--suite": None}
_VERBS = {
    "poly": (_cmd_poly, "print one family polynomial", {
        "--family": ("sj", "sj-beta", "hermite", "jacobi"), "--n": int,
        "--alpha": _rat, "--beta": _rat, "--gamma": _rat, "--format": _FORMAT}),
    "egf": (_cmd_egf, "print EGF coefficients", {
        "--family": (*FAMILIES, "sj-beta-shifted"), "--order": int, "--beta": _rat,
        "--format": _FORMAT}),
    "lacunary": (_cmd_lacunary, "lacunary series; --check compares the closed "
                 "form against the oracle", {"--family": FAMILIES, "--K": int,
                 "--L": int, "--order": int, "--check": bool, "--format": _FORMAT}),
    "connect": (_cmd_connect, "connection coefficient row for x^M",
                {"--family": FAMILIES, "--M": int, "--format": _FORMAT}),
    "react": (_cmd_react, "decay-system solution as a t-series",
              {"--N0": int, "--t-order": int, "--format": _FORMAT}),
    "table": (_cmd_table, "family polynomials up to a degree",
              {"--family": FAMILIES, "--max-n": int, "--format": _FORMAT}),
    "verify": (_cmd_verify, "run named invariant suites (--suite repeats; "
               "default: all)", {"--suite": list}),
}
_HELP = {"-h": None, "--help": None}  # the options before the verb; None is help


def _choice(label, value, choices):
    if value not in choices:
        raise UsageError(f"argument {label}: invalid choice: {value!r} "
                         f"(choose from {', '.join(map(repr, choices))})")
    return value


def _classify(tok: str, names: dict):
    """tok, before any '--', as argparse reads it: None for a value, else the
    option string it names (None if none) and the text after '=' (or None).
    A unique prefix names a '--' option; no option is a prefix of another."""
    if tok in names:
        return tok, None
    if tok[:2] == "--":
        head, eq, value = tok.partition("=")
        hits = [head] if head in names else [n for n in names if n.startswith(head)]
        if len(hits) > 1:
            raise UsageError(f"ambiguous option: {tok} could match "
                             f"{', '.join(hits)}")
        return hits[0] if hits else None, value if eq else None
    whole, dot, frac = tok[1:].partition(".")
    negative = (whole + frac).isdecimal() and (frac or not dot)  # -1, -.5, -1.5
    return None if tok[:1] != "-" or tok == "-" or negative else (None, None)


def _parse(argv) -> SimpleNamespace:
    """argv read against the option tables as argparse read it: UsageError
    for a refused request, _cmd_help's namespace for -h/--help."""
    tokens = []
    for tok in argv:  # '--beta -1/2' is '--beta=-1/2', as for --alpha and --gamma
        if (tok[:1] == "-" and (tok[1:2] == "." or tok[1:2].isdecimal())
                and tokens and tokens[-1] in ("--alpha", "--beta", "--gamma")):
            tokens[-1] += "=" + tok
        else:
            tokens.append(tok)
    end = tokens.index("--") if "--" in tokens else len(tokens)
    verb, names, marks, values, extras, i = None, _HELP, [None] * end, {}, [], 0
    while i < end:
        tok = tokens[i]
        mark = marks[i] if verb else _classify(tok, _HELP)
        i += 1
        if mark is None and verb is None:  # the verb, whose table reads the rest
            verb = _choice("verb", tok, _VERBS)
            names = {**_HELP, **_VERBS[verb][2]}  # in the order '--f' lists them
            values = {name: _DEFAULTS.get(name) for name in _VERBS[verb][2]}
            marks[i:] = [_classify(t, names) for t in tokens[i:end]]
            continue
        if mark is None or mark[0] is None:
            extras.append(tok)
            continue
        name, value = mark
        kind = names[name]
        if kind in (None, bool):  # -h/--help or a flag
            if value is not None:
                raise UsageError(f"argument {name if kind else '-h/--help'}: "
                                 f"ignored explicit argument {value!r}")
            if kind is None:
                return SimpleNamespace(verb=verb, fn=_cmd_help)
            values[name] = True
            continue
        if value is None:
            if i == end or marks[i] is not None:
                raise UsageError(f"argument {name}: expected one argument")
            value, i = tokens[i], i + 1
        if kind is int:
            try:
                value = int(value)
            except ValueError:
                raise UsageError(f"argument {name}: invalid int value: {value!r}")
        elif kind is _rat:
            value = _rat(value)
        elif kind is list:
            value = [*(values[name] or ()), value]
        else:
            _choice(name, value, kind)
        values[name] = value
    if verb is None and len(tokens) > end + 1:  # argparse's verb in '-- x' is '--'
        _choice("verb", "--", _VERBS)
    missing = [name for name in values
               if values[name] is None and name not in _DEFAULTS]
    if verb is None or missing:
        raise UsageError(f"the following arguments are required: "
                         f"{', '.join(missing or ['verb'])}")
    extras += tokens[end:]
    if extras:
        raise UsageError(f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(verb=verb, fn=_VERBS[verb][0], **{
        name[2:].replace("-", "_"): value for name, value in values.items()})


def run(argv, out=None, err=None) -> int:
    """Run one request; a request refused with exit 1 leaves out untouched."""
    out = out or sys.stdout
    err = err or sys.stderr
    buf = io.StringIO()
    try:
        args = _parse(argv)
        if getattr(args, "K", None) is not None and args.K < 1:
            raise UsageError("K must be >= 1")
        for attr in ("n", "order", "L", "M", "N0", "t_order", "max_n"):
            v = getattr(args, attr, None)
            if v is not None and v < 0:
                raise UsageError(f"--{attr.replace('_', '-')} must be >= 0")
        code = args.fn(args, buf)
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
