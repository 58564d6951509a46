"""Lossless JSON interchange for polynomials and coefficient series.

Schema per polynomial:

    {"variables": ["x", ...],
     "terms": [{"exps": [..], "num": "..", "den": "..", "sqrt_pi_pow": 0}, ..]}

num and den are decimal strings so arbitrary-precision values survive
any JSON reader; terms are emitted in graded-lexicographic descending
order, which makes serialization deterministic and round-trips
byte-identical.

``dumps`` writes the same bytes as the standard library's ``json.dumps``
with two-space indentation and the ``", "`` item separator (which ends
each line but the last of a container), strings escaped to ASCII.  It is
a writer for this fixed schema: every polynomial block comes from one
template, and the series and connection envelopes around it from a short
recursive writer of dicts, lists, strings and ints.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .poly import CoeffSeries, Poly
from .scalar import ExactScalar


def poly_to_obj(p: Poly) -> dict:
    terms = []
    for exps, c in p.sorted_terms():
        terms.append(
            {
                "exps": list(exps),
                "num": str(c.rat.numerator),
                "den": str(c.rat.denominator),
                "sqrt_pi_pow": c.sqrt_pi_pow,
            }
        )
    return {"variables": list(p.vars), "terms": terms}


def poly_from_obj(obj: dict) -> Poly:
    vars = tuple(obj["variables"])
    terms = {}
    for t in obj["terms"]:
        exps = tuple(t["exps"])
        if exps in terms:
            raise ValueError(f"repeated exponent vector {list(exps)}")
        den = int(t["den"])
        if not den:
            raise ValueError(f"zero denominator at exponents {list(exps)}")
        terms[exps] = ExactScalar(Fraction(int(t["num"]), den), t.get("sqrt_pi_pow", 0))
    return Poly(vars, terms)


def series_to_obj(s: CoeffSeries, parameter: str = "lambda") -> dict:
    return {
        "parameter": parameter,
        "order": s.order,
        "coefficients": [poly_to_obj(c) for c in s.coeffs],
    }


_INDENT = "  "
_POLY_KEYS = ("variables", "terms")


def dumps(obj) -> str:
    """obj as indented JSON.  obj is a tree of dicts with str keys, lists,
    strs and ints, such as the objects built in this module; a dict whose
    keys are "variables" then "terms" is a poly_to_obj block."""
    return _write(obj, "\n")


def _write(obj, nl: str) -> str:
    """obj as a JSON value whose closing bracket, if any, follows nl."""
    kind = type(obj)
    if kind is str:
        return _string(obj)
    if kind is int:
        return int.__repr__(obj)
    inner = nl + _INDENT
    if kind is list:
        return _block([_write(v, inner) for v in obj], nl, "[]")
    if kind is dict:
        if tuple(obj) == _POLY_KEYS:
            return _poly(obj, nl)
        items = [_string(k) + ": " + _write(v, inner) for k, v in obj.items()]
        return _block(items, nl, "{}")
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _block(items: list, nl: str, brackets: str) -> str:
    """Written items between brackets, one per line, one step deeper than nl."""
    if not items:
        return brackets
    inner = nl + _INDENT
    return brackets[0] + inner + (", " + inner).join(items) + nl + brackets[1]


def _poly(obj: dict, nl: str) -> str:
    """A poly_to_obj block, every term written from one template."""
    i1 = nl + _INDENT  # keys of the block
    i2 = i1 + _INDENT  # variable names and terms
    i3 = i2 + _INDENT  # keys of a term
    i4 = i3 + _INDENT  # exponents
    key = ", " + i3
    rest = key + '"num": %s' + key + '"den": %s' + key + '"sqrt_pi_pow": %s' + i2 + "}"
    term = "{" + i3 + '"exps": [' + i4 + "%s" + i3 + "]" + rest
    no_exps = "{" + i3 + '"exps": []%s' + rest  # a constant over no variables
    exps_sep = ", " + i4
    terms = [
        (term if t["exps"] else no_exps) % (
            exps_sep.join(map(int.__repr__, t["exps"])),
            _string(t["num"]),
            _string(t["den"]),
            int.__repr__(t["sqrt_pi_pow"]),
        )
        for t in obj["terms"]
    ]
    names = [*map(_string, obj["variables"])]
    return _block(
        ['"variables": ' + _block(names, i1, "[]"),
         '"terms": ' + _block(terms, i1, "[]")],
        nl,
        "{}",
    )
