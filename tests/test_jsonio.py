"""jsonio.dumps against the standard library's indented JSON, and the
lossless round trip of polynomials."""

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sjk import jsonio
from sjk.poly import CoeffSeries, Poly
from sjk.scalar import ExactScalar

from reference import poly_from_obj, poly_to_obj, series_to_obj


def oracle(obj) -> str:
    return json.dumps(obj, separators=(", ", ": "), indent=2)


VARSETS = ((), ("x",), ("z", "x"), ("x", "z"), ("mu",), ("lambda", "x"),
           ("x", "mu", "z"))
rationals = st.builds(
    Fraction, st.integers(-(10**30), 10**30), st.integers(1, 10**20)
) | st.fractions(min_value=-5, max_value=5, max_denominator=9)


@st.composite
def polys(draw):
    """A Poly at a sqrt(pi) grade from -3 to 3; the zero Poly and constants
    over no variables included."""
    vars = draw(st.sampled_from(VARSETS))
    grade = draw(st.integers(-3, 3))
    terms = {}
    for _ in range(draw(st.integers(0, 4))):
        key = tuple(draw(st.integers(0, 12)) for _ in vars)
        terms[key] = ExactScalar(draw(rationals), grade)
    return Poly(vars, terms)


@st.composite
def series(draw):
    coeffs = draw(st.lists(polys(), min_size=1, max_size=4))
    return CoeffSeries(coeffs, len(coeffs) - 1)


@st.composite
def connect_envelopes(draw):
    """The shape `connect --format json` writes, for either family."""
    family = draw(st.sampled_from(("sj", "hermite")))
    if family == "sj":
        row = st.builds(
            lambda n, w: {"n": n, "num": str(w.numerator), "den": str(w.denominator)},
            st.integers(0, 64), rationals,
        )
    else:
        row = st.builds(
            lambda n, p: {"n": n, "poly": poly_to_obj(p)},
            st.integers(0, 64), polys(),
        )
    weights = draw(st.lists(row, max_size=4))
    return {"family": family, "M": draw(st.integers(0, 64)), "weights": weights}


@settings(max_examples=60, deadline=None)
@given(polys())
def test_poly_bytes_equal_the_oracle_and_round_trip(p):
    obj = poly_to_obj(p)
    text = jsonio.dumps(obj)
    assert text == oracle(obj)
    back = poly_from_obj(json.loads(text))
    assert back == p and back.vars == p.vars


@settings(max_examples=30, deadline=None)
@given(series(), st.sampled_from(("lambda", "t")))
def test_series_bytes_equal_the_oracle(s, parameter):
    obj = series_to_obj(s, parameter)
    assert jsonio.dumps(obj) == oracle(obj)


@settings(max_examples=30, deadline=None)
@given(connect_envelopes())
def test_connect_bytes_equal_the_oracle(obj):
    assert jsonio.dumps(obj) == oracle(obj)


def _objects(tree):
    """tree with every Poly leaf replaced by its poly_to_obj block."""
    if isinstance(tree, Poly):
        return poly_to_obj(tree)
    if isinstance(tree, list):
        return [_objects(v) for v in tree]
    if isinstance(tree, dict):
        return {k: _objects(v) for k, v in tree.items()}
    return tree


@settings(max_examples=60, deadline=None)
@given(st.recursive(
    polys() | st.text(max_size=3) | st.integers(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=8,
))
def test_poly_leaves_are_written_as_their_object_form(tree):
    assert jsonio.dumps(tree) == oracle(_objects(tree))


@pytest.mark.parametrize("p", [
    Poly(),
    Poly(("x", "z")),
    Poly.const(ExactScalar(Fraction(-3, 7), 1)),
    Poly.const(1),
    Poly(("x", "z"), {(2, 0): -1, (0, 1): Fraction(5, 3)}) * ExactScalar(1, -2),
    Poly(("mu",), {(3,): Fraction(-10**40, 3**50), (0,): 2}) * ExactScalar(1, 3),
], ids=["zero", "zero-over-variables", "graded-constant", "one", "negative-lead",
        "graded-long-terms"])
def test_poly_leaf_cases(p):
    tree = {"coefficients": [p, p], "poly": p}
    assert jsonio.dumps(p) == oracle(poly_to_obj(p))
    assert jsonio.dumps(tree) == oracle(_objects(tree))


@settings(max_examples=30, deadline=None)
@given(st.recursive(
    st.text() | st.integers(),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=5), inner, max_size=3),
    max_leaves=12,
))
def test_any_tree_of_the_schema_types_equals_the_oracle(obj):
    # strings with quotes, controls and non-ASCII text escape as the stdlib does
    assert jsonio.dumps(obj) == oracle(obj)


@pytest.mark.parametrize("obj", [
    poly_to_obj(Poly()),
    poly_to_obj(Poly(("x",))),
    poly_to_obj(Poly.const(ExactScalar(Fraction(-3, 7), 1))),
    series_to_obj(CoeffSeries([Poly()], 0)),
    {"family": "sj", "M": 0, "weights": []},
    {}, [], "", 0,
])
def test_empty_and_scalar_values(obj):
    assert jsonio.dumps(obj) == oracle(obj)


@pytest.mark.parametrize("bad", [1.5, None, True, (1, 2), {1: "x"}])
def test_values_outside_the_schema_are_refused(bad):
    with pytest.raises(TypeError):
        jsonio.dumps({"value": bad})


def _term(exps, num, sqrt_pi_pow=0):
    return {"exps": exps, "num": str(num), "den": "1", "sqrt_pi_pow": sqrt_pi_pow}


@pytest.mark.parametrize("obj, error", [
    # a dict keyed by exponents would keep only the last: 2 x, not 3 x
    ({"variables": ["x"], "terms": [_term([1], 1), _term([1], 2)]}, ValueError),
    # int() would truncate the grade to 0
    ({"variables": ["x"], "terms": [_term([1], 1, 0.5)]}, TypeError),
    ({"variables": ["x", "x"], "terms": [_term([1, 2], 1)]}, ValueError),
    # Fraction would raise ZeroDivisionError
    ({"variables": ["x"], "terms": [{**_term([1], 1), "den": "0"}]}, ValueError),
    # dumps could not write the variable back
    ({"variables": [1], "terms": [_term([1], 1)]}, TypeError),
    # JSON true would be read as the integer 1
    ({"variables": ["x"], "terms": [_term([True], 1)]}, TypeError),
    ({"variables": ["x"], "terms": [_term([1], 1, True)]}, TypeError),
    # int() would truncate a float, read true as 1 and take any int
    ({"variables": ["x"], "terms": [{**_term([1], 1), "num": 1.5}]}, TypeError),
    ({"variables": ["x"], "terms": [{**_term([1], 1), "den": 2.9}]}, TypeError),
    ({"variables": ["x"], "terms": [{**_term([1], 1), "num": True}]}, TypeError),
    ({"variables": ["x"], "terms": [{**_term([1], 1), "num": 3}]}, TypeError),
    ({"variables": ["x"], "terms": [{**_term([1], 1), "den": 2}]}, TypeError),
    # int() would read each of these strings, which the writer never emits
    ({"variables": ["x"], "terms": [_term([1], " 1_0 ")]}, ValueError),
    ({"variables": ["x"], "terms": [_term([1], "+1")]}, ValueError),
    ({"variables": ["x"], "terms": [_term([1], "\uff11")]}, ValueError),
    ({"variables": ["x"], "terms": [{**_term([1], 1), "den": "-2"}]}, ValueError),
    ({"variables": ["x"], "terms": [{**_term([1], 1), "den": "2\n"}]}, ValueError),
    # tuple() would read the string as the variables x and y
    ({"variables": "xy", "terms": [_term([1, 1], 1)]}, TypeError),
], ids=["repeated-exps", "float-grade", "repeated-variable", "zero-den",
        "non-string-variable", "boolean-exps", "boolean-grade", "float-num",
        "float-den", "boolean-num", "int-num", "int-den", "underscore-num",
        "plus-num", "fullwidth-num", "negative-den", "newline-den",
        "string-variables"])
def test_lossy_input_is_refused(obj, error):
    with pytest.raises(error):
        poly_from_obj(obj)
