import math
import operator
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sjk import jsonio
from sjk.opcalc import DiagonalOp, apply_diagonal
from sjk.poly import CoeffSeries, Poly, _decimal_dens
from sjk.scalar import ZERO, ExactScalar

from conftest import assert_canonical, rand_poly

X = Poly.var("x")
Y = Poly.var("y")
# the Euler operator D: each monomial scaled by its degree
EULER = DiagonalOp(lambda d: (d, 1), {0})


class TestDerivative:
    def test_power_rule(self):
        assert Poly.var("x", 3).derivative("x") == Poly.var("x", 2) * 3

    def test_bivariate(self):
        p = Poly.var("x", 2) + Y * 2  # H_2 with y as second variable
        assert p.derivative("x") == X * 2

    def test_constant(self):
        assert Poly.const(5).derivative("x").is_zero()
        assert (Y * 3).derivative("x").is_zero()


class TestEuler:
    def test_single_power(self):
        p = Poly.var("x", 4)
        assert apply_diagonal(EULER, p, ("x",)) == p * 4

    def test_total_degree(self):
        p = Poly.monomial(1, x=2, y=3)
        assert apply_diagonal(EULER, p, ("x", "y")) == p * 5
        assert apply_diagonal(EULER, p, ("x",)) == p * 2

    def test_kills_constants(self):
        assert apply_diagonal(EULER, Poly.const(1), ("x",)).is_zero()


class TestShift:
    def test_square(self):
        assert Poly.var("x", 2).shift("x", 1) == X * X + X * 2 + 1

    def test_linear_symbolic_offset(self):
        c = Poly.monomial(Fraction(-1, 2), mu=1)
        assert X.shift("x", c) == X + c

    def test_constant_unchanged(self):
        p = Poly.const(Fraction(7, 3))
        assert p.shift("x", 99) == p

    def test_offset_must_avoid_var(self):
        with pytest.raises(ValueError):
            X.shift("x", X)


class TestSeriesProduct:
    def test_binomial_square(self):
        one_plus = CoeffSeries([Poly.const(1), Poly.const(1), Poly.zero()])
        sq = one_plus * one_plus
        assert sq.coeffs == [Poly.const(1), Poly.const(2), Poly.const(1)]

    def test_inverse_exponentials(self):
        e_plus = CoeffSeries.build(
            lambda n: Poly.var("x", n) * Fraction(1, math.factorial(n)), 2
        )
        e_minus = CoeffSeries.build(
            lambda n: Poly.var("x", n) * Fraction((-1) ** n, math.factorial(n)), 2
        )
        prod = e_plus * e_minus
        assert prod.coeffs[0] == Poly.const(1)
        assert prod.coeffs[1].is_zero()
        assert prod.coeffs[2].is_zero()

    def test_exp_square_lambda_cubed(self):
        # independent oracle: coefficient of lambda^3 in (sum x^n lambda^n/n!)^2
        # is x^3 * sum_{i+j=3} 1/(i! j!) = (4/3) x^3
        e = CoeffSeries.build(
            lambda n: Poly.var("x", n) * Fraction(1, math.factorial(n)), 3
        )
        expect = sum(
            Fraction(1, math.factorial(i) * math.factorial(3 - i)) for i in range(4)
        )
        assert expect == Fraction(4, 3)
        assert (e * e).coeffs[3] == Poly.var("x", 3) * expect

    def test_truncation_to_min_order(self):
        a = CoeffSeries([Poly.const(1)] * 6, 5)
        b = CoeffSeries([Poly.const(1)] * 4, 3)
        assert (a * b).order == 3


class TestSeriesCalculus:
    def test_lambda_derivative(self):
        # d^2/dl^2 sum l^n/n! x^n keeps the same shape shifted by two
        e = CoeffSeries.build(
            lambda n: Poly.var("x", n) * Fraction(1, math.factorial(n)), 5
        )
        d2 = e.lambda_derivative(2)
        assert d2.order == 3
        for k in range(4):
            assert d2.coeffs[k] == Poly.var("x", k + 2) * Fraction(
                1, math.factorial(k)
            )


def test_heisenberg_weyl_30_random(rng):
    for _ in range(30):
        p = rand_poly(rng, ("x", "y"))
        lhs = (X * p).derivative("x") - X * p.derivative("x")
        assert lhs == p


def test_euler_square_identity(rng):
    # D^2 = x^2 d^2 + D on the x-grading
    for _ in range(30):
        p = rand_poly(rng, ("x",), max_terms=5, max_exp=7)
        dp = apply_diagonal(EULER, p, ("x",))
        lhs = apply_diagonal(EULER, dp, ("x",))
        rhs = Poly.var("x", 2) * p.derivative("x").derivative("x") + dp
        assert lhs == rhs


def test_ring_axioms_random(rng):
    for _ in range(15):
        a = rand_poly(rng, ("x", "y"))
        b = rand_poly(rng, ("x",), max_terms=3)
        c = rand_poly(rng, ("y", "z"), max_terms=3)
        assert (a + b) + c == a + (b + c)
        assert a * (b + c) == a * b + a * c
        assert (a * b) * c == a * (b * c)


small_fracs = st.fractions(
    min_value=-5, max_value=5, max_denominator=7
)


@st.composite
def small_polys(draw):
    n_terms = draw(st.integers(0, 4))
    p = Poly.zero(("x", "y"))
    for _ in range(n_terms):
        c = draw(small_fracs)
        ex = draw(st.integers(0, 4))
        ey = draw(st.integers(0, 3))
        p = p + Poly.monomial(c, x=ex, y=ey)
    return p


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_commutativity_property(p, q):
    assert p + q == q + p
    assert p * q == q * p


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_derivative_is_linear_against_doubling(p):
    assert (p + p).derivative("x") == p.derivative("x") * 2


@st.composite
def graded_polys(draw, pi_weight, varsets=(("x", "y"), ("y", "x"), ("x",), ("y",))):
    """A Poly whose term x^a y^b carries sqrt(pi)^(pi_weight * b), so the
    sum and product of two of them never add across grades."""
    vars = draw(st.sampled_from(varsets))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        key = tuple(draw(st.integers(0, 3)) for _ in vars)
        grade = pi_weight * dict(zip(vars, key)).get("y", 0)
        terms[key] = ExactScalar(draw(small_fracs), grade)
    return Poly(vars, terms)


@settings(max_examples=120, deadline=None)
@given(st.integers(-2, 2), st.data())
def test_arithmetic_results_are_canonical(w, data):
    p, q = data.draw(graded_polys(w)), data.draw(graded_polys(w))
    c = ExactScalar(data.draw(small_fracs), data.draw(st.integers(-3, 3)))
    # a grade-0 value free of y keeps the y-weighted grades consistent
    v = data.draw(graded_polys(0, (("t",), ("x", "t"), ("x",))))
    results = [
        p + q, p - q, p * q, p * c, 3 * p, -p, p + (-p), p * p,
        (p + q) * (p - q),  # the p q cross terms cancel inside one product
        p.derivative("x"), p.derivative("y"), apply_diagonal(EULER, p),
        apply_diagonal(EULER, p, ("y",)),
        p.coeff_of("y", 1), p.coeff_of("x", 0), p.substitute("x", v),
        p.substitute("x", 2), p.shift("x", v.substitute("x", 0)),
        Poly.sum([p, q, -p]),
    ]
    for r in results:
        assert_canonical(r)
    assert (p + q) - q == p
    assert (p * 0).terms == {} and (p * 0).vars == p.vars


def _reference_product(p, q):
    """p * q by the schoolbook loop: one ExactScalar product and running
    sum per pair of terms, a sum that cancels dropped at once, the terms
    of each operand in the order Poly.terms gives them."""
    vars = p.vars if p.vars == q.vars else tuple(sorted({*p.vars, *q.vars}))
    a, b = Poly.sum([p], vars).terms, Poly.sum([q], vars).terms
    out = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            key = tuple(x + y for x, y in zip(e1, e2))
            s = out.get(key, ZERO) + c1 * c2
            if s.is_zero():
                out.pop(key, None)
            else:
                out[key] = s
    return Poly(vars, out)


def assert_same_poly(got, want):
    assert got.vars == want.vars and got.terms == want.terms
    assert_canonical(got)


# the zero Poly and constants over no variables, unsorted and differing tuples
_PRODUCT_VARSETS = ((), ("x",), ("y",), ("x", "y"), ("y", "x"), ("t", "y", "x"))


@settings(max_examples=150, deadline=None)
@given(st.integers(-2, 2), st.data())
def test_product_matches_the_schoolbook_loop(w, data):
    p = data.draw(graded_polys(w, _PRODUCT_VARSETS))
    q = data.draw(graded_polys(w, _PRODUCT_VARSETS))
    # (p + q)(p - q): the p q cross terms cancel to zero inside the product
    for a, b in ((p, q), (q, p), (p, p), (p + q, p - q), (p, Poly.zero())):
        assert_same_poly(a * b, _reference_product(a, b))


@st.composite
def mixed_grade_polys(draw, varsets=(("x",), ("x", "y"), ("y", "x"))):
    """A Poly whose terms carry unrelated sqrt(pi) grades."""
    vars = draw(st.sampled_from(varsets))
    keys = st.tuples(*[st.integers(0, 2)] * len(vars))
    coeffs = st.builds(ExactScalar, small_fracs, st.integers(0, 1))
    return Poly(vars, draw(st.dictionaries(keys, coeffs, max_size=4)))


@settings(max_examples=150, deadline=None)
@given(mixed_grade_polys(), mixed_grade_polys())
def test_product_meets_grades_as_the_schoolbook_loop(p, q):
    try:
        want = _reference_product(p, q)
    except ValueError:
        with pytest.raises(ValueError):
            p * q
    else:
        assert_same_poly(p * q, want)


def _left_fold(polys, vars):
    out = Poly.zero(vars)
    for p in polys:
        out = out + p
    return out


def assert_sum_is_the_left_fold(polys, vars):
    """Poly.sum(polys, vars) is the fold in terms, .vars and hash, or
    raises the fold's ValueError; returns whether the fold succeeded."""
    try:
        want = _left_fold(polys, vars)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            Poly.sum(polys, vars)
        return False
    got = Poly.sum(iter(polys), vars)  # one pass, as a generator gives
    assert_same_poly(got, want)
    assert hash(got) == hash(want)
    return True


# no variables, one, unsorted and differing tuples over x, z and mu
_SUM_VARSETS = ((), ("x",), ("z",), ("mu",), ("x", "z"), ("z", "x"), ("mu", "x", "z"))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(_SUM_VARSETS), st.booleans(), st.data())
def test_sum_is_the_left_fold(vars, shared, data):
    varsets = (vars,) if shared else _SUM_VARSETS
    polys = data.draw(st.lists(mixed_grade_polys(varsets), max_size=5))
    assert_sum_is_the_left_fold([], vars)
    if assert_sum_is_the_left_fold(polys, vars):
        # each summand taken back off, last first: the sum cancels to zero
        cancelled = polys + [-p for p in reversed(polys)]
        assert assert_sum_is_the_left_fold(cancelled, vars)
        assert Poly.sum(cancelled, vars).is_zero()
    for p in polys:
        if p:  # p and sqrt(pi) p meet at every key of p with two grades
            assert not assert_sum_is_the_left_fold([p, p * ExactScalar(1, 1)], vars)


@settings(max_examples=150, deadline=None)
@given(st.integers(-2, 2), st.booleans(), st.data())
def test_stored_form_is_rebuilt_by_every_path(w, mixed, data):
    # the checking constructor, arithmetic and the JSON round trip all
    # arrive at the one stored form: equal, hashing equal, same terms
    # (a Poly operand over other variables would realign an unsorted tuple)
    p = data.draw(mixed_grade_polys() if mixed else graded_polys(w))
    rebuilt = [
        Poly(p.vars, p.terms),
        jsonio.poly_from_obj(jsonio.poly_to_obj(p)),
        -(-p), p * 1, p - Poly.zero(p.vars), Poly.sum([p], p.vars),
        (p * 3) * Fraction(1, 3), (p + p) * Fraction(1, 2),
        Poly.sum([p, p, -p], p.vars), p * Poly(p.vars, {(0,) * len(p.vars): 1}),
        p * ExactScalar(5, 1) * ExactScalar(Fraction(1, 5), -1),
    ]
    for r in rebuilt:
        assert r == p and hash(r) == hash(p)
        assert r.vars == p.vars and r.terms == p.terms and r._parts == p._parts
        assert_canonical(r)


_OVER_VARSETS = ((), ("x",), ("y",), ("x", "y"), ("y", "x"), ("mu", "x", "y"))


@settings(max_examples=200, deadline=None)
@given(mixed_grade_polys(_OVER_VARSETS), st.sampled_from(_OVER_VARSETS),
       st.integers(0, 1), st.integers(1, 6), st.integers(-3, 3), st.data())
def test_equals_over_is_equality_with_the_built_poly(p, vars, grade, den, k, data):
    # integers over a denominator, zeros and common factors included,
    # compare as the Poly that Poly._over builds from them
    keys = st.tuples(*[st.integers(0, 2)] * len(vars))
    nums = data.draw(st.dictionaries(keys, st.integers(-3, 3), max_size=4))
    assert p._equals_over(vars, grade, den, nums) == (
        p == Poly._over(vars, grade, den, dict(nums)))
    # p's own integers at its one grade, scaled by k, with a zero added
    if len(p._parts) == 1 and set(p.vars) <= set(vars) and k:
        (g, d, stored), = p._by_grade(vars)
        same = {e: n * k for e, n in stored.items()}
        same.setdefault((0,) * len(vars), 0)
        assert p._equals_over(vars, g, d * k, same)
        assert not p._equals_over(vars, g + 1, d * k, same)
        e = next(iter(stored))
        assert not p._equals_over(vars, g, d * k, {**same, e: same[e] + 1})


def test_equals_over_sees_variables_outside_vars():
    # x y is not x, though its exponents over (x,) alone would read as x
    assert not Poly(("x", "y"), {(1, 1): 1})._equals_over(("x",), 0, 1, {(1,): 1})
    assert Poly(("x", "y"), {(1, 0): 2})._equals_over(("x",), 0, 3, {(1,): 6})


def test_sum_takes_the_next_grade_after_a_cancellation():
    pi_x = Poly.monomial(ExactScalar(2, 1), x=1)
    assert_same_poly(Poly.sum([X, -X, pi_x]), pi_x)
    with pytest.raises(ValueError, match="sqrt\\(pi\\)"):
        Poly.sum([X, pi_x])


class TestProductGrades:
    def test_cross_grade_collision_raises(self):
        # x * 1 and sqrt(pi) * x meet at x while the sum there is nonzero
        p = Poly(("x",), {(1,): 1, (0,): ExactScalar(1, 1)})
        for f in (operator.mul, _reference_product):
            with pytest.raises(ValueError, match="sqrt\\(pi\\)"):
                f(p, X + 1)

    def test_cancelled_sum_takes_the_next_grade(self):
        # at x y: x * y, then y * (-x) cancel, then sqrt(pi) * x y arrives
        p = Poly(("x", "y"), {(1, 0): 1, (0, 1): 1, (0, 0): ExactScalar(1, 1)})
        q = Poly(("x", "y"), {(0, 1): 1, (1, 0): -1, (1, 1): 1})
        got = p * q
        assert_same_poly(got, _reference_product(p, q))
        assert got.terms[(1, 1)] == ExactScalar(1, 1)


@settings(max_examples=30, deadline=None)
@given(st.integers(-1, 1), st.data())
def test_power_matches_repeated_multiplication(w, data):
    p = data.draw(graded_polys(w, _PRODUCT_VARSETS))
    want = Poly.const(1)
    for k in range(10):
        assert_same_poly(p**k, want)
        want = want * p


def test_power_squares_no_further_than_its_top_bit(monkeypatch):
    calls = []
    mul = Poly.__mul__

    def counted(a, b):
        calls.append(b)
        return mul(a, b)

    monkeypatch.setattr(Poly, "__mul__", counted)
    for k in range(1, 33):
        calls.clear()
        (X - 1) ** k
        squares = k.bit_length() - 1
        assert len(calls) == squares + bin(k).count("1"), k


class TestConstructorValidates:
    def test_width_mismatch(self):
        with pytest.raises(ValueError):
            Poly(("x", "y"), {(1,): 1})

    def test_negative_exponent(self):
        with pytest.raises(ValueError):
            Poly(("x",), {(-1,): 1})

    def test_inexact_coefficient(self):
        with pytest.raises(TypeError):
            Poly(("x",), {(1,): 0.5})

    @pytest.mark.parametrize("make", [
        lambda: Poly.var("x", 1.5),
        lambda: Poly.monomial(2, x=0.5),
        lambda: Poly.var("x", 0.0),
        lambda: Poly.monomial(2, x=0.0),
    ], ids=["var", "monomial", "var-zero", "monomial-zero"])
    def test_non_integer_exponent(self, make):
        # a float is no exponent: x^1.5 would render as a term, and a zero
        # float would pass as the integer 0
        with pytest.raises(TypeError):
            make()

    def test_repeated_variable(self):
        # over ("x", "x") the term x x^2 would differentiate to x^2 and
        # differ from x^3
        with pytest.raises(ValueError, match="repeated variable"):
            Poly(("x", "x"), {(1, 2): 1})

    def test_repeated_keys_summed_and_zeros_dropped(self):
        # range(1, -1, -1) is the exponent vector (1, 0) under another key
        p = Poly(["x", "y"], {(1, 0): 2, range(1, -1, -1): 3, (0, 1): 0})
        assert p.vars == ("x", "y") and p.terms == {(1, 0): ExactScalar(5)}
        assert type(p.terms[(1, 0)]) is ExactScalar
        assert Poly(("x",), {(1,): 2, range(1, 2): -2}).terms == {}
        # 1/4 + 1/4 over their common 4 is 2/4, stored as 1/2
        half = Poly(("x",), {(1,): Fraction(1, 4), range(1, 2): Fraction(1, 4)})
        assert half.terms == {(1,): ExactScalar(Fraction(1, 2))}
        assert_canonical(half)

    def test_builders_reduce_and_drop_zeros(self):
        # the kernels' builders bring any integers over any nonzero
        # denominator to lowest terms with a positive denominator
        p = Poly._over(("x",), 1, -6, {(2,): 4, (1,): 0, (0,): -10})
        assert p == Poly(("x",), {(2,): ExactScalar(Fraction(-2, 3), 1),
                                  (0,): ExactScalar(Fraction(5, 3), 1)})
        assert_canonical(p)
        q = Poly._term_over(("x", "z"), 0, (1, 2), 6, -4)
        assert q == Poly.monomial(Fraction(-3, 2), x=1, z=2)
        assert_canonical(q)
        assert Poly._term_over(("x",), 0, (1,), 0, 7).is_zero()
        assert Poly._over(("x",), 0, 3, {(1,): 0}).is_zero()


class TestStructure:
    def test_zero_degree_sentinel(self):
        assert Poly.zero().degree("x") == -math.inf

    def test_alignment_equality(self):
        assert Poly.zero(("x",)) == Poly.zero(("x", "y"))
        assert Poly.monomial(2, x=1) == Poly(("x", "y"), {(1, 0): ExactScalar(2)})

    def test_scalar_coeff(self):
        p = Poly.monomial(3, x=2, y=1) + Poly.const(7)
        assert p.scalar_coeff(x=2, y=1) == ExactScalar(3)
        assert p.scalar_coeff() == ExactScalar(7)
        assert p.scalar_coeff(x=1) == ExactScalar(0)

    def test_coeff_of(self):
        p = Poly.monomial(3, x=2, y=1) + Poly.monomial(5, y=1) + Poly.const(1)
        assert p.coeff_of("y", 1) == Poly.var("x", 2) * 3 + 5

    def test_no_zero_terms_stored(self):
        p = X - X
        assert p.terms == {}

    def test_substitute(self):
        p = Poly.var("x", 2) + 1
        assert p.substitute("x", Y + 1) == Y * Y + Y * 2 + 2


class TestRendering:
    def test_text_descending_graded_lex(self):
        p = (
            Poly.var("x", 4)
            + Poly.monomial(Fraction(-6, 5), x=2)
            + Poly.const(Fraction(1, 5))
        )
        assert p.text() == "x^4 - 6/5 x^2 + 1/5"

    def test_text_bivariate(self):
        p = Poly.var("x", 4) + Poly.monomial(12, x=2, z=1) + Poly.monomial(12, z=2)
        assert p.text() == "x^4 + 12 x^2 z + 12 z^2"

    def test_text_zero_and_constants(self):
        assert Poly.zero().text() == "0"
        assert Poly.const(Fraction(-3, 7)).text() == "-3/7"

    def test_pi_rendering(self):
        p = Poly.const(ExactScalar(Fraction(3, 4), 1))
        assert "sqrt(pi)" in p.text()

    def test_latex(self):
        p = Poly.var("x", 4) + Poly.monomial(Fraction(-6, 5), x=2)
        assert p.latex() == r"x^{4} - \frac{6}{5} x^{2}"

    # sqrt(pi) power -> (text, latex) spelling; 0 writes nothing
    PI = {
        -3: ("sqrt(pi)^-3", r"\pi^{-3/2}"),
        -2: ("pi^-1", r"\pi^{-1}"),
        -1: ("sqrt(pi)^-1", r"\pi^{-1/2}"),
        0: ("", ""),
        1: ("sqrt(pi)", r"\sqrt{\pi}"),
        2: ("pi", r"\pi"),
        3: ("sqrt(pi)^3", r"\pi^{3/2}"),
        4: ("pi^2", r"\pi^{2}"),
    }

    @pytest.mark.parametrize("k", sorted(PI))
    def test_pi_powers_magnitudes_and_names(self, k):
        pt, pl = self.PI[k]
        p = (
            Poly.monomial(ExactScalar(Fraction(-3, 2), k), x=2, mu=1)
            + Poly.monomial(ExactScalar(1, k), **{"lambda": 1})
            + Poly.const(ExactScalar(Fraction(5, 7), k))
        )
        q = Poly.monomial(ExactScalar(-1, k), x=3) + Poly.const(ExactScalar(-2, k))
        if k:
            assert p.text() == f"-3/2 {pt} mu x^2 + {pt} lambda + 5/7 {pt}"
            assert p.latex() == (
                rf"-\frac{{3}}{{2}} {pl} \mu x^{{2}} + {pl} \lambda + \frac{{5}}{{7}} {pl}"
            )
            assert q.text() == f"-{pt} x^3 - 2 {pt}"
            assert q.latex() == rf"-{pl} x^{{3}} - 2 {pl}"
        else:
            assert p.text() == "-3/2 mu x^2 + lambda + 5/7"
            assert p.latex() == r"-\frac{3}{2} \mu x^{2} + \lambda + \frac{5}{7}"
            assert q.text() == "-x^3 - 2"
            assert q.latex() == "-x^{3} - 2"
        assert Poly.const(ExactScalar(-1, k)).text() == "-" + (pt or "1")
        assert Poly.const(ExactScalar(-1, k)).latex() == "-" + (pl or "1")


@pytest.mark.parametrize(
    "a, b",
    [
        (Poly(("x", "y"), {(1, 0): 1}), Poly.var("x")),
        (Poly(("y", "x"), {(2, 1): 3}), Poly.monomial(3, x=1, y=2)),
        (Poly.zero(("x",)), Poly.const(0)),
        (Poly.zero(("x",)), 0),
        (Poly(("x",), {(0,): 3}), 3),
        (Poly.const(3), 3),
        (Poly.const(Fraction(1, 2)), Fraction(1, 2)),
        (Poly.const(ExactScalar(2, 1)), ExactScalar(2, 1)),
        (ExactScalar(1), 1),
        (ExactScalar(Fraction(-3, 4)), Fraction(-3, 4)),
    ],
)
def test_equal_values_hash_equal(a, b):
    assert a == b
    assert len({a, b}) == 1


class TestOperandsOutsideTheRing:
    """An operand ExactScalar.coerce cannot interpret makes the operator
    return NotImplemented: == falls back to False, the other operand's
    reflected method runs, and otherwise Python raises its own TypeError."""

    FOREIGN = (None, 1.5, object())

    def test_equality_is_false(self):
        assert not (X == None)  # noqa: E711
        assert X != object()
        assert X not in [None, 1]
        assert Poly.zero(("x",)) != 0.0
        assert X == Poly.var("x") and Poly.const(0) == 0

    @pytest.mark.parametrize("op", [operator.add, operator.sub, operator.mul])
    def test_arithmetic_raises_unsupported_operand(self, op):
        for other in self.FOREIGN:
            with pytest.raises(TypeError, match="unsupported operand"):
                op(X, other)
            with pytest.raises(TypeError, match="unsupported operand"):
                op(other, X)

    def test_string_operand(self):
        with pytest.raises(TypeError, match="unsupported operand"):
            X + "a"
        with pytest.raises(TypeError, match="unsupported operand"):
            X - "a"

    def test_reflected_methods_of_the_other_operand_run(self):
        class Other:
            def __radd__(self, other):
                return "radd"

            def __rsub__(self, other):
                return "rsub"

            def __rmul__(self, other):
                return "rmul"

            def __eq__(self, other):
                return "eq"

            __hash__ = None

        o = Other()
        assert (X + o, X - o, X * o, X == o) == ("radd", "rsub", "rmul", "eq")

    def test_non_integer_power_is_unsupported(self):
        for k in (0.5, Fraction(1, 2), "2", None):
            with pytest.raises(TypeError, match="unsupported operand"):
                X**k
        with pytest.raises(ValueError, match="non-negative"):
            X**-1
        assert X ** Fraction(2) == X**2  # Fraction.__rpow__ hands back an int

    def test_series_with_a_non_series_operand_is_unsupported(self):
        s = CoeffSeries([X, Poly.const(1)])
        for op in (operator.add, operator.sub):
            for other in (1, Fraction(1, 2), X, None):
                with pytest.raises(TypeError, match="unsupported operand"):
                    op(s, other)
                with pytest.raises(TypeError, match="unsupported operand"):
                    op(other, s)
        for other in self.FOREIGN:
            with pytest.raises(TypeError, match="unsupported operand.*'CoeffSeries'"):
                s * other
            with pytest.raises(TypeError, match="unsupported operand.*'CoeffSeries'"):
                other * s

        class Other:
            def __rmul__(self, other):
                return "rmul"

        assert s * Other() == "rmul"
        assert (s + s).coeffs == [X * 2, Poly.const(2)] and (s - s) == s * 0
        for c in (2, Fraction(2), ExactScalar(2), Poly.const(2)):
            assert (s * c).coeffs == (c * s).coeffs == [X * 2, Poly.const(2)]
        assert (s * X).coeffs == (X * s).coeffs == [X * X, X]

    def test_exact_operands_still_combine(self):
        assert X + 1 == 1 + X == Poly(("x",), {(1,): 1, (0,): 1})
        assert 1 - X == -(X - 1)
        assert ExactScalar(2) * X == X * ExactScalar(2) == X * 2


# sqrt(pi) power -> (text, latex) spelling, as TestRendering pins it
_PI_SPELLING = TestRendering.PI


def _reference_render(p, latex):
    """Poly.text() (latex=0) or Poly.latex() (latex=1) spelled out from
    abs() and str() of each coefficient's Fraction."""
    if not p.terms:
        return "0"
    names = {"mu": r"\mu", "lambda": r"\lambda"} if latex else {}
    chunks = []
    grlex = sorted(p.terms.items(), key=lambda t: (sum(t[0]), t[0]), reverse=True)
    for exps, c in grlex:
        parts = [_PI_SPELLING[c.sqrt_pi_pow][latex]] if c.sqrt_pi_pow else []
        for v, e in zip(p.vars, exps):
            name = names.get(v, v)
            if e == 1:
                parts.append(name)
            elif e:
                parts.append(f"{name}^{{{e}}}" if latex else f"{name}^{e}")
        mag = abs(c.rat)
        if latex and mag.denominator != 1:
            mag_s = rf"\frac{{{mag.numerator}}}{{{mag.denominator}}}"
        else:
            mag_s = str(mag)
        body = " ".join(parts)
        piece = body if body and mag == 1 else " ".join(s for s in (mag_s, body) if s)
        if chunks:
            chunks.append(("- " if c.rat < 0 else "+ ") + piece)
        else:
            chunks.append(("-" if c.rat < 0 else "") + piece)
    return " ".join(chunks)


_render_rationals = st.one_of(
    st.sampled_from((1, -1)),  # units
    st.integers(-(10**6), 10**6),
    small_fracs,
    st.builds(Fraction, st.integers(-(10**40), 10**40), st.integers(1, 10**40)),
)


@st.composite
def render_polys(draw):
    vars = draw(st.sampled_from(
        ((), ("x",), ("x", "z"), ("z", "x"), ("mu", "x"), ("lambda", "mu", "x"))
    ))
    keys = st.tuples(*[st.integers(0, 3)] * len(vars))
    coeffs = st.builds(ExactScalar, _render_rationals, st.sampled_from(sorted(_PI_SPELLING)))
    return Poly(vars, draw(st.dictionaries(keys, coeffs, max_size=5)))


@settings(max_examples=200, deadline=None)
@given(render_polys())
def test_rendering_matches_fraction_reference(p):
    assert p.text() == _reference_render(p, 0)
    assert p.latex() == _reference_render(p, 1)
    assert Poly.zero(p.vars).text() == Poly.zero(p.vars).latex() == "0"


def _grlex_dens(p):
    """str() of each denominator of p, in graded-lexicographic descending order."""
    keys = sorted(p.terms, key=lambda e: (sum(e), e), reverse=True)
    return [str(p.terms[e].rat.denominator) for e in keys]


class TestLongDenominators:
    """Poly._rows writes the denominators of a Poly that has one of more
    than 600 digits as decimal products over their gcd; they must read as
    str() of each, and past CPython's digit limit raise str()'s ValueError."""

    @staticmethod
    def shared(digits):
        # denominators sharing a factor of `digits` digits, with short
        # cofactors, beside one unrelated denominator
        g = 10 ** (digits - 1) + 7
        return Poly(("x", "z"), {
            (3, 0): Fraction(-5, g * 3),
            (1, 1): Fraction(2, g * 11),
            (0, 2): ExactScalar(Fraction(1, g), 1),
            (0, 0): Fraction(1, 7),
        })

    @pytest.mark.parametrize("digits", [2, 598, 599, 600, 601, 602, 1500, 4299])
    def test_rows_read_as_str(self, digits):
        p = self.shared(digits)
        dens = [d for _, _, d, _ in p._rows()]
        assert [str(d) for d in dens] == _grlex_dens(p)
        assert [type(d) for d in dens] == [
            str if len(d) > 600 else int for d in _grlex_dens(p)
        ]
        assert p.text() == _reference_render(p, 0)
        assert p.latex() == _reference_render(p, 1)

    @settings(max_examples=40, deadline=None)
    @given(st.integers(1, 10**900), st.lists(st.integers(1, 10**60), min_size=1,
                                             max_size=6))
    def test_decimal_route_equals_str(self, g, cofactors):
        dens = [g * c for c in cofactors] + cofactors
        got = _decimal_dens(dens)
        assert [str(d) for d in got] == [str(d) for d in dens]
        assert [type(d) for d in got] == [str if d >= 10**600 else int for d in dens]

    def test_digit_limit_raises_as_str_does(self):
        limit = sys.get_int_max_str_digits()  # 4,300 unless configured
        assert limit > 600
        at_limit = Poly(("x",), {(1,): Fraction(1, 10 ** (limit - 1) + 1), (0,): 1})
        assert _grlex_dens(at_limit) == [str(d) for _, _, d, _ in at_limit._rows()]
        assert at_limit.text() == _reference_render(at_limit, 0)
        over = 10**limit + 1  # limit + 1 digits
        with pytest.raises(ValueError) as want:
            str(over)
        p = Poly(("x",), {(2,): Fraction(1, 3 * over), (1,): Fraction(1, over)})
        for write in (p.text, p.latex, p._rows):
            with pytest.raises(ValueError) as got:
                write()
            assert str(got.value) == str(want.value)


class TestScalarSubstitute:
    P = Poly(("z", "y", "x"), {
        (1, 2, 0): Fraction(3, 4), (1, 0, 0): -2, (0, 1, 3): ExactScalar(5, 1),
        (0, 3, 3): ExactScalar(Fraction(-1, 6), 1), (0, 0, 1): 1,
    })

    @pytest.mark.parametrize("value", [1, 0, -2, Fraction(3, 5), ExactScalar(2)])
    def test_equals_the_poly_valued_path(self, value):
        got = self.P.substitute("y", value)
        assert got.vars == ("z", "x")
        assert got == self.P.substitute("y", Poly.const(value))
        assert_canonical(got)

    def test_graded_value(self):
        p = Poly(("x", "y"), {(1, 2): 3, (0, 0): 1})
        got = p.substitute("y", ExactScalar(2, 1))
        assert got.terms == {(1,): ExactScalar(12, 2), (0,): ExactScalar(1)}

    def test_grade_clash_still_raises(self):
        # x y and sqrt(pi) x both land on x
        p = Poly(("x", "y"), {(1, 1): 1, (1, 0): ExactScalar(1, 1)})
        with pytest.raises(ValueError, match=r"different powers of sqrt\(pi\)"):
            p.substitute("y", 1)

    def test_cancelling_terms_are_dropped(self):
        p = Poly(("x", "y"), {(1, 1): 2, (1, 0): -4, (0, 0): 1})
        assert p.substitute("y", 2).terms == {(0,): ExactScalar(1)}


def test_product_grade_clash_reads_as_the_sum():
    # x^1 meets 1 from x * 1 and then sqrt(pi) from sqrt(pi) * x
    p = Poly(("x",), {(1,): 1, (0,): ExactScalar(1, 1)})
    q = Poly(("x",), {(0,): 1, (1,): 1})
    with pytest.raises(ValueError) as want:
        ExactScalar(1) + ExactScalar(1, 1)
    with pytest.raises(ValueError) as got:
        p * q
    assert str(got.value) == str(want.value)
