"""Lossless JSON interchange for polynomials and coefficient series.

Schema per polynomial:

    {"variables": ["x", ...],
     "terms": [{"exps": [..], "num": "..", "den": "..", "sqrt_pi_pow": 0}, ..]}

num and den are decimal strings so arbitrary-precision values survive
any JSON reader; terms are emitted in graded-lexicographic descending
order, which makes serialization deterministic and round-trips
byte-identical.

poly_to_obj and series_to_obj give that object form as dicts and
poly_from_obj reads it back.  The CLI does not build it: it passes its
Polys to ``dumps``, which writes each one straight from Poly._rows, the
sorted walk of the terms that the text and LaTeX renderers read too.

``dumps`` writes the same bytes as the standard library's ``json.dumps``
with two-space indentation and the ``", "`` item separator (which ends
each line but the last of a container), strings escaped to ASCII, of the
tree with each Poly replaced by its poly_to_obj block.  It is a writer
for this fixed schema: every term of a Poly comes from one template, and
the series and connection envelopes around it from a short recursive
writer of dicts, lists, strings and ints, which also writes a
poly_to_obj dict, to the same bytes.
"""

from __future__ import annotations

from fractions import Fraction
from json.encoder import encode_basestring_ascii as _string

from .poly import CoeffSeries, Poly
from .scalar import ExactScalar


def poly_to_obj(p: Poly) -> dict:
    return {"variables": list(p.vars), "terms": [
        {"exps": list(exps), "num": str(num), "den": str(den), "sqrt_pi_pow": k}
        for exps, num, den, k in p._rows()
    ]}


def poly_from_obj(obj: dict) -> Poly:
    vars = tuple(obj["variables"])
    if not all(isinstance(v, str) for v in vars):
        raise TypeError(f"variable names must be strings, got {list(vars)}")
    terms = {}
    for t in obj["terms"]:
        exps = tuple(t["exps"])
        if exps in terms:
            raise ValueError(f"repeated exponent vector {list(exps)}")
        grade = t.get("sqrt_pi_pow", 0)
        # a JSON true or false would pass as the integer 1 or 0
        if bool in map(type, (*exps, grade)):
            raise TypeError(f"boolean exponent or grade at exponents {list(exps)}")
        den = int(t["den"])
        if not den:
            raise ValueError(f"zero denominator at exponents {list(exps)}")
        terms[exps] = ExactScalar(Fraction(int(t["num"]), den), grade)
    return Poly(vars, terms)


def series_to_obj(s: CoeffSeries, parameter: str = "lambda") -> dict:
    return {
        "parameter": parameter,
        "order": s.order,
        "coefficients": [poly_to_obj(c) for c in s.coeffs],
    }


_INDENT = "  "


def dumps(obj) -> str:
    """obj as indented JSON.  obj is a tree of dicts with str keys, lists,
    strs, ints and Polys, such as the objects built in this module; a Poly
    is written as its poly_to_obj block."""
    return _write(obj, "\n")


def _write(obj, nl: str) -> str:
    """obj as a JSON value whose closing bracket, if any, follows nl."""
    kind = type(obj)
    if kind is str:
        return _string(obj)
    if kind is int:
        return int.__repr__(obj)
    if kind is Poly:
        return _poly(obj, nl)
    inner = nl + _INDENT
    if kind is list:
        return _block([_write(v, inner) for v in obj], nl, "[]")
    if kind is dict:
        items = [_string(k) + ": " + _write(v, inner) for k, v in obj.items()]
        return _block(items, nl, "{}")
    raise TypeError(f"Object of type {kind.__name__} is not JSON serializable")


def _block(items: list, nl: str, brackets: str) -> str:
    """Written items between brackets, one per line, one step deeper than nl."""
    if not items:
        return brackets
    inner = nl + _INDENT
    return brackets[0] + inner + (", " + inner).join(items) + nl + brackets[1]


def _poly(p: Poly, nl: str) -> str:
    """p's poly_to_obj block, each term written from its row by one template."""
    i1 = nl + _INDENT  # keys of the block
    i2 = i1 + _INDENT  # variable names and terms
    i3 = i2 + _INDENT  # keys of a term
    vector = _block(["%d"] * len(p.vars), i3, "[]")
    key = ", " + i3
    term = ("{" + i3 + '"exps": ' + vector + key + '"num": "%d"' + key + '"den": "%s"'
            + key + '"sqrt_pi_pow": %d' + i2 + "}")
    terms = [term % (*exps, num, den, k) for exps, num, den, k in p._rows()]
    names = [*map(_string, p.vars)]
    return _block(
        ['"variables": ' + _block(names, i1, "[]"),
         '"terms": ' + _block(terms, i1, "[]")],
        nl,
        "{}",
    )
