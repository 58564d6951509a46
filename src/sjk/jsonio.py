"""Lossless JSON interchange for polynomials and coefficient series.

Schema per polynomial:

    {"variables": ["x", ...],
     "terms": [{"exps": [..], "num": "..", "den": "..", "sqrt_pi_pow": 0}, ..]}

num and den are decimal strings so arbitrary-precision values survive
any JSON reader; terms are emitted in graded-lexicographic descending
order, which makes serialization deterministic and round-trips
byte-identical.

No dict of that form is built: ``dumps`` is passed the Polys and writes
each one straight from Poly._rows, the sorted walk of the terms that the
text and LaTeX renderers read too.

``dumps`` writes the same bytes as the standard library's ``json.dumps``
with two-space indentation and the ``", "`` item separator (which ends
each line but the last of a container), strings escaped to ASCII, of the
tree with each Poly replaced by its object form.  It is a writer for
this fixed schema: every term of a Poly comes from one template, and the
series and connection envelopes around it from a short recursive writer
of dicts, lists, strings and ints, which also writes the object form
given as a dict, to the same bytes.  Strings are escaped by
``_json.encode_basestring_ascii``, the C function that ``json.dumps``
calls, taken from ``_json`` so that the ``json`` package is not imported.
"""

from __future__ import annotations

from _json import encode_basestring_ascii as _string

from .poly import Poly


_INDENT = "  "


def dumps(obj) -> str:
    """obj as indented JSON.  obj is a tree of dicts with str keys, lists,
    strs, ints and Polys, such as the CLI's series and connection
    envelopes; a Poly is written as its object form."""
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
    """p's object form, each term written from its row by one template."""
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
