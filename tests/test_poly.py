import json
import math
import operator
import re
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sjk import jsonio
from sjk.families import sj_family
from sjk.opcalc import DiagonalOp
from sjk.poly import CoeffSeries, Poly, _decimal_dens
from sjk.scalar import ExactScalar

from conftest import assert_canonical, rand_poly
from reference import apply_diagonal, derivative, lambda_derivative, monomial
from reference import poly_from_obj, product, shift, substitute

X = Poly.var("x")
Y = Poly.var("y")
# the Euler operator D: each monomial scaled by its degree
EULER = DiagonalOp(lambda d: (d, 1), {0})


class TestDerivative:
    def test_power_rule(self):
        assert derivative(Poly.var("x", 3), "x") == Poly.var("x", 2) * 3

    def test_bivariate(self):
        p = Poly.var("x", 2) + Y * 2  # H_2 with y as second variable
        assert derivative(p, "x") == X * 2

    def test_constant(self):
        assert not derivative(Poly.const(5), "x")
        assert not derivative(Y * 3, "x")


class TestEuler:
    def test_single_power(self):
        p = Poly.var("x", 4)
        assert apply_diagonal(EULER, p, ("x",)) == p * 4

    def test_total_degree(self):
        p = monomial(1, x=2, y=3)
        assert apply_diagonal(EULER, p, ("x", "y")) == p * 5
        assert apply_diagonal(EULER, p, ("x",)) == p * 2

    def test_kills_constants(self):
        assert not apply_diagonal(EULER, Poly.const(1), ("x",))


class TestShift:
    def test_square(self):
        assert shift(Poly.var("x", 2), "x", 1) == Poly.var("x", 2) + X * 2 + 1

    def test_linear_symbolic_offset(self):
        c = monomial(Fraction(-1, 2), mu=1)
        assert shift(X, "x", c) == X + c

    def test_constant_unchanged(self):
        p = Poly.const(Fraction(7, 3))
        assert shift(p, "x", 99) == p


class TestSeriesProduct:
    def test_equality(self):
        # the same order and equal coefficients, each Poly compared by ==
        a = CoeffSeries([X, Poly.const(1)], 1)
        assert a == CoeffSeries([X + 0, monomial(1, y=0)], 1)
        assert a != CoeffSeries([X, Poly.const(2)], 1)
        assert a != CoeffSeries([X, Poly.const(1), Poly.zero()], 2)
        assert (a == X) is False and a.__eq__(X) is NotImplemented


class TestSeriesCalculus:
    def test_lambda_derivative(self):
        # d^2/dl^2 sum l^n/n! x^n keeps the same shape shifted by two
        e = CoeffSeries.build(
            lambda n: Poly.var("x", n) * Fraction(1, math.factorial(n)), 5
        )
        d2 = lambda_derivative(e, 2)
        assert d2.order == 3
        for k in range(4):
            assert d2.coeffs[k] == Poly.var("x", k + 2) * Fraction(
                1, math.factorial(k)
            )


def test_heisenberg_weyl_30_random(rng):
    for _ in range(30):
        p = rand_poly(rng, ("x", "y"))
        lhs = derivative(product(X, p), "x") - product(X, derivative(p, "x"))
        assert lhs == p


def test_euler_square_identity(rng):
    # D^2 = x^2 d^2 + D on the x-grading
    for _ in range(30):
        p = rand_poly(rng, ("x",), max_terms=5, max_exp=7)
        dp = apply_diagonal(EULER, p, ("x",))
        lhs = apply_diagonal(EULER, dp, ("x",))
        rhs = product(Poly.var("x", 2), derivative(derivative(p, "x"), "x")) + dp
        assert lhs == rhs


def test_ring_axioms_random(rng):
    # the axioms of the sums and scalings that Poly keeps
    for _ in range(15):
        a = rand_poly(rng, ("x", "y"))
        b = rand_poly(rng, ("x",), max_terms=3)
        c = rand_poly(rng, ("y", "z"), max_terms=3)
        assert (a + b) + c == a + (b + c)
        assert (b + c) * Fraction(-2, 3) == b * Fraction(-2, 3) + c * Fraction(-2, 3)
        assert (a * 3) * Fraction(1, 6) == a * Fraction(1, 2)


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
        p = p + monomial(c, x=ex, y=ey)
    return p


@settings(max_examples=60, deadline=None)
@given(small_polys(), small_polys())
def test_commutativity_property(p, q):
    assert p + q == q + p
    assert p * 3 == 3 * p


@settings(max_examples=40, deadline=None)
@given(small_polys())
def test_derivative_is_linear_against_doubling(p):
    assert derivative(p + p, "x") == derivative(p, "x") * 2


@st.composite
def graded_polys(draw, grade, varsets=(("x", "y"), ("y", "x"), ("x",), ("y",))):
    """A Poly whose every term carries sqrt(pi)^grade."""
    vars = draw(st.sampled_from(varsets))
    terms = {}
    for _ in range(draw(st.integers(0, 5))):
        key = tuple(draw(st.integers(0, 3)) for _ in vars)
        terms[key] = ExactScalar(draw(small_fracs), grade)
    return Poly(vars, terms)


def two_grade_polys(varsets):
    """A Poly at sqrt(pi) grade 0 or 1, so that two of them may meet in a sum."""
    return st.integers(0, 1).flatmap(lambda g: graded_polys(g, varsets))


@settings(max_examples=120, deadline=None)
@given(st.integers(-2, 2), st.data())
def test_arithmetic_results_are_canonical(w, data):
    p, q = data.draw(graded_polys(w)), data.draw(graded_polys(w))
    c = ExactScalar(data.draw(small_fracs), data.draw(st.integers(-3, 3)))
    results = [
        p + q, p - q, p * c, 3 * p, -p, p + (-p), (p + q) * 2 - q * 2,
        derivative(p, "x"), derivative(p, "y"), apply_diagonal(EULER, p),
        apply_diagonal(EULER, p, ("y",)), p.substitute("x", 2),
        p.substitute("y", Fraction(-1, 3)), Poly.sum([p, q, -p]),
    ]
    for r in results:
        assert_canonical(r)
    assert (p + q) - q == p
    assert (p * 0).terms == {} and (p * 0).vars == p.vars


def assert_same_poly(got, want):
    assert got.vars == want.vars and got.terms == want.terms
    assert_canonical(got)


def _left_fold(polys, vars):
    out = Poly.zero(vars)
    for p in polys:
        out = out + p
    return out


def assert_sum_is_the_left_fold(polys, vars):
    """Poly.sum(polys, vars) is the fold in terms, .vars and hash, or
    raises where the fold raises; returns whether the fold succeeded.  The
    two name the leading terms under their own variable orders, which
    differ where the fold has not yet met every summand's variables."""
    try:
        want = _left_fold(polys, vars)
    except ValueError as exc:
        assert "different powers of sqrt(pi)" in str(exc)
        with pytest.raises(ValueError, match=r"different powers of sqrt\(pi\)"):
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
    # each summand at grade 0 or 1: the fold raises where a summand meets
    # a nonzero sum at the other grade, and a sum cancelled to zero takes
    # the next summand's grade
    varsets = (vars,) if shared else _SUM_VARSETS
    polys = data.draw(st.lists(two_grade_polys(varsets), max_size=5))
    assert_sum_is_the_left_fold([], vars)
    if assert_sum_is_the_left_fold(polys, vars):
        # each summand taken back off, last first: the sum cancels to zero
        cancelled = polys + [-p for p in reversed(polys)]
        assert assert_sum_is_the_left_fold(cancelled, vars)
        assert not Poly.sum(cancelled, vars)
    for p in polys:
        if p:  # p and sqrt(pi) p meet at every key of p with two grades
            assert not assert_sum_is_the_left_fold([p, p * ExactScalar(1, 1)], vars)


@settings(max_examples=150, deadline=None)
@given(st.integers(-2, 2), st.data())
def test_stored_form_is_rebuilt_by_every_path(w, data):
    # the checking constructor, arithmetic and the JSON round trip all
    # arrive at the one stored form: equal, hashing equal, same terms
    # (a Poly operand over other variables would realign an unsorted tuple);
    # a zero, however made, has no grade and adds to p at any grade
    p = data.draw(graded_polys(w))
    other = Poly(p.vars, {(0,) * len(p.vars): ExactScalar(3, w + 1)})
    zeros = [Poly.zero(p.vars), other - other]
    rebuilt = [
        Poly(p.vars, p.terms),
        poly_from_obj(json.loads(jsonio.dumps(p))),
        -(-p), p * 1, p - zeros[0], *(z + p for z in zeros), *(p + z for z in zeros),
        Poly.sum([p], p.vars), Poly.sum([*zeros, p, *zeros], p.vars),
        (p * 3) * Fraction(1, 3), (p + p) * Fraction(1, 2),
        Poly.sum([p, p, -p], p.vars),
        p * ExactScalar(5, 1) * ExactScalar(Fraction(1, 5), -1),
    ]
    for r in rebuilt:
        assert r == p and hash(r) == hash(p)
        assert r.vars == p.vars and r.terms == p.terms
        assert r._integers() == p._integers()
        assert_canonical(r)


_OVER_VARSETS = ((), ("x",), ("y",), ("x", "y"), ("y", "x"), ("mu", "x", "y"))


def _first_unequal_built(polys, vars, den, nums):
    """Poly._first_unequal as == against the Poly that Poly._over builds
    from the numerators at each power j, times j!."""
    for j, p in enumerate(polys):
        row = {e[1:]: n * math.factorial(j) for e, n in nums.items() if e[0] == j}
        if p != Poly._over(vars, 0, den, row):
            return j


@settings(max_examples=200, deadline=None)
@given(st.lists(two_grade_polys(_OVER_VARSETS), min_size=1, max_size=3),
       st.sampled_from(_OVER_VARSETS), st.integers(1, 6), st.integers(-3, 3), st.data())
def test_first_unequal_is_equality_with_the_built_polys(polys, vars, den, k, data):
    # integers keyed by the power and the exponents over vars, zeros and
    # common factors included, compare as the Polys that Poly._over builds
    keys = st.tuples(st.integers(0, len(polys) - 1), *[st.integers(0, 2)] * len(vars))
    nums = data.draw(st.dictionaries(keys, st.integers(-3, 3), max_size=6))
    got = Poly._first_unequal(polys, vars, den, nums)
    assert got == _first_unequal_built(polys, vars, den, dict(nums))
    # the grade-0 sources' own integers over ("mu", "x", "y"), over one den
    # scaled by k, with a zero added: equal, until one numerator moves
    same = [Poly(p.vars, {e: c for e, c in p.terms.items() if not c.sqrt_pi_pow})
            for p in polys]
    wide = ("mu", "x", "y")
    d = 2 * k * math.lcm(1, *[c.den for p in same for c in p.terms.values()])
    if d:
        wide_nums = {(0,) * 4: 0}
        for j, p in enumerate(same):
            for e, c in p.terms.items():
                at = dict(zip(p.vars, e))
                key = (j, *[at.get(v, 0) for v in wide])
                wide_nums[key] = c.num * (d // c.den) // math.factorial(j)
        assert Poly._first_unequal(same, wide, d, wide_nums) is None
        key = max(wide_nums)
        moved = {**wide_nums, key: wide_nums[key] + 1}
        assert Poly._first_unequal(same, wide, d, moved) == key[0]


def test_first_unequal_sees_variables_outside_vars():
    # x y is not x, though its exponents over (x,) alone would read as x
    two_x, x_y = Poly(("x", "y"), {(1, 0): 2}), Poly(("x", "y"), {(1, 1): 1})
    assert Poly._first_unequal([two_x], ("x",), 3, {(0, 1): 6}) is None
    assert Poly._first_unequal([two_x, x_y], ("x",), 3, {(0, 1): 6, (1, 1): 3}) == 1


class TestFirstUnequalBranches:
    # a source over other variables than the compare vars is re-keyed,
    # unless a variable outside them has a nonzero exponent
    def test_the_sj_degree_zero_constant_over_x(self):
        # every sj member is over (x,), as sj_family(0) = 1 and
        # sj_family(2) = x^2 - 1 are; the constant 1 over no variable is
        # re-keyed and compares as sj_family(0)
        polys = [sj_family(0), sj_family(2)]
        assert polys[0].vars == polys[1].vars == ("x",)
        nums = {(0, 0): 2, (1, 2): 2, (1, 0): -2}
        assert Poly._first_unequal(polys, ("x",), 2, nums) is None
        assert Poly._first_unequal(polys, ("x",), 2, {**nums, (0, 0): 4}) == 0
        assert Poly._first_unequal([Poly.const(1), polys[1]], ("x",), 2, nums) is None

    def test_an_extra_variable_at_a_nonzero_exponent_is_unequal_at_its_k(self):
        # x + w over (x, w) against x over (x,): unequal at k = 2, though
        # the sources before it and its x term compare equal
        polys = [Poly.var("x"), Poly.var("x"), Poly(("x", "w"), {(1, 0): 2, (0, 1): 2})]
        nums = {(0, 1): 1, (1, 1): 1, (2, 1): 1}
        assert Poly._first_unequal(polys, ("x",), 1, nums) == 2
        # at a zero exponent the extra variable is re-keyed away
        polys[2] = Poly(("x", "w"), {(1, 0): 2})
        assert Poly._first_unequal(polys, ("x",), 1, nums) is None


def test_first_unequal_reads_grade_zero_only():
    # sqrt(pi) x stores the integers of x, at grade 1
    pi_x = Poly(("x",), {(1,): ExactScalar(1, 1)})
    nums = {(0, 1): 1, (1, 1): 1}
    assert Poly._first_unequal([Poly.var("x"), Poly.var("x")], ("x",), 1, nums) is None
    assert Poly._first_unequal([Poly.var("x"), pi_x], ("x",), 1, nums) == 1
    assert Poly._first_unequal([pi_x, Poly.var("x")], ("x",), 1, nums) == 0
    # zero has no grade: it is stored at grade 0 and compares equal to zero
    assert Poly._first_unequal([pi_x - pi_x], ("x",), 1, {(0, 1): 0}) is None


def test_sum_takes_the_next_grade_after_a_cancellation():
    pi_x = monomial(ExactScalar(2, 1), x=1)
    assert_same_poly(Poly.sum([X, -X, pi_x]), pi_x)
    with pytest.raises(ValueError, match="sqrt\\(pi\\)"):
        Poly.sum([X, pi_x])


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
        lambda: monomial(2, x=0.5),
        lambda: Poly.var("x", 0.0),
        lambda: monomial(2, x=0.0),
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
        assert q == monomial(Fraction(-3, 2), x=1, z=2)
        assert_canonical(q)
        assert not Poly._term_over(("x",), 0, (1,), 0, 7)
        assert not Poly._over(("x",), 0, 3, {(1,): 0})


class TestStructure:
    def test_alignment_equality(self):
        assert Poly.zero(("x",)) == Poly.zero(("x", "y"))
        assert monomial(2, x=1) == Poly(("x", "y"), {(1, 0): ExactScalar(2)})

    def test_scalar_coeff(self):
        p = monomial(3, x=2, y=1) + Poly.const(7)
        assert p.scalar_coeff(x=2, y=1) == ExactScalar(3)
        assert p.scalar_coeff() == ExactScalar(7)
        assert p.scalar_coeff(x=1) == ExactScalar(0)

    def test_no_zero_terms_stored(self):
        p = X - X
        assert p.terms == {}

    def test_substitute(self):
        p = Poly.var("x", 2) + Y
        assert p.substitute("x", 3) == Y + 9 and p.substitute("x", 3).vars == ("y",)
        assert p.substitute("y", Fraction(1, 2)) == Poly.var("x", 2) + Fraction(1, 2)


class TestRendering:
    def test_text_descending_graded_lex(self):
        p = (
            Poly.var("x", 4)
            + monomial(Fraction(-6, 5), x=2)
            + Poly.const(Fraction(1, 5))
        )
        assert p.text() == "x^4 - 6/5 x^2 + 1/5"

    def test_text_bivariate(self):
        p = Poly.var("x", 4) + monomial(12, x=2, z=1) + monomial(12, z=2)
        assert p.text() == "x^4 + 12 x^2 z + 12 z^2"

    def test_text_zero_and_constants(self):
        assert Poly.zero().text() == "0"
        assert Poly.const(Fraction(-3, 7)).text() == "-3/7"

    def test_pi_rendering(self):
        p = Poly.const(ExactScalar(Fraction(3, 4), 1))
        assert "sqrt(pi)" in p.text()

    def test_latex(self):
        p = Poly.var("x", 4) + monomial(Fraction(-6, 5), x=2)
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
            monomial(ExactScalar(Fraction(-3, 2), k), x=2, mu=1)
            + monomial(ExactScalar(1, k), **{"lambda": 1})
            + Poly.const(ExactScalar(Fraction(5, 7), k))
        )
        q = monomial(ExactScalar(-1, k), x=3) + Poly.const(ExactScalar(-2, k))
        if k:
            assert p.text() == f"-3/2 {pt} mu x^2 + {pt} lambda + 5/7 {pt}"
            assert p.latex() == (
                rf"-\frac{{3}}{{2}} {pl} \mu x^{{2}} + {pl} \lambda"
                rf" + \frac{{5}}{{7}} {pl}"
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
        (Poly(("y", "x"), {(2, 1): 3}), monomial(3, x=1, y=2)),
        (Poly.zero(("x",)), Poly.const(0)),
        (Poly.zero(("x",)), 0),
        (Poly(("x",), {(0,): 3}), 3),
        (Poly.const(3), 3),
        (Poly.const(Fraction(1, 2)), Fraction(1, 2)),
        (Poly.const(ExactScalar(2, 1)), ExactScalar(2, 1)),
        (ExactScalar(1), 1),
        (ExactScalar(Fraction(-3, 4)), Fraction(-3, 4)),
        # non-constant graded Polys over reordered and unused variables
        (Poly(("y", "x"), {(0, 1): ExactScalar(1, -1)}),
         monomial(ExactScalar(1, -1), x=1)),
        (Poly(("y", "x"), {(0, 1): ExactScalar(1, 2)}),
         monomial(ExactScalar(1, 2), x=1)),
        (Poly(("z", "x", "y"), {(0, 2, 1): ExactScalar(Fraction(-5, 3), 2)}),
         monomial(ExactScalar(Fraction(-5, 3), 2), x=2, y=1)),
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

    def test_products_powers_and_series_arithmetic_are_unsupported(self):
        # a Poly adds and scales; it multiplies no Poly and has no power,
        # and a series has no operator but ==
        s = CoeffSeries([X, Poly.const(1)], 1)
        for make in (lambda: X * Y, lambda: X**2, lambda: X ** Fraction(2),
                     lambda: s + s, lambda: s * s, lambda: s * 2, lambda: 2 * s):
            with pytest.raises(TypeError, match="unsupported operand"):
                make()
        with pytest.raises(ValueError, match="rational value"):
            X.substitute("x", ExactScalar(1, 1))
        for name in ("degree", "coeff_of", "is_zero"):
            assert not hasattr(Poly, name)

    def test_series_with_a_non_series_operand_is_unsupported(self):
        s = CoeffSeries([X, Poly.const(1)], 1)
        for other in (1, Fraction(1, 2), X, None):
            with pytest.raises(TypeError, match="unsupported operand"):
                s + other
            with pytest.raises(TypeError, match="unsupported operand"):
                other + s
        for other in self.FOREIGN:
            with pytest.raises(TypeError, match="unsupported operand.*'CoeffSeries'"):
                s * other
            with pytest.raises(TypeError, match="unsupported operand.*'CoeffSeries'"):
                other * s

        class Other:
            def __rmul__(self, other):
                return "rmul"

        assert s * Other() == "rmul"

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
    grade = draw(st.sampled_from(sorted(_PI_SPELLING)))
    coeffs = st.builds(ExactScalar, _render_rationals, st.just(grade))
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
        # cofactors, beside one unrelated denominator, times sqrt(pi)
        g = 10 ** (digits - 1) + 7
        return Poly(("x", "z"), {
            (3, 0): Fraction(-5, g * 3),
            (1, 1): Fraction(2, g * 11),
            (0, 2): Fraction(1, g),
            (0, 0): Fraction(1, 7),
        }) * ExactScalar(1, 1)

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
        (1, 2, 0): Fraction(3, 4), (1, 0, 0): -2, (0, 1, 3): 5,
        (0, 3, 3): Fraction(-1, 6), (0, 0, 1): 1,
    }) * ExactScalar(1, 1)

    @pytest.mark.parametrize("value", [1, 0, -2, Fraction(3, 5), ExactScalar(2)])
    def test_equals_the_poly_valued_path(self, value):
        # the schoolbook substitution of the constant Poly value
        got = self.P.substitute("y", value)
        assert got.vars == ("z", "x")
        assert got == substitute(self.P, "y", Poly.const(value))
        assert_canonical(got)

    def test_graded_value(self):
        # a value with a sqrt(pi) power is refused, whatever the powers of
        # y: one, none, or y not a variable at all
        for p in (Poly(("x", "y"), {(1, 2): 3, (0, 2): 1}), Poly(("y",), {(0,): 2}), X):
            with pytest.raises(ValueError, match=r"rational value, not 2\*pi\^\(1/2\)"):
                p.substitute("y", ExactScalar(2, 1))

    def test_grade_clash_still_raises(self):
        # x would land at grade 0 and x y at grade 1: the refusal of the
        # value comes first, and a Poly value is no scalar
        p = Poly(("x", "y"), {(1, 1): 1, (1, 0): 1, (2, 2): 1})
        with pytest.raises(ValueError, match="rational value"):
            p.substitute("y", ExactScalar(1, 1))
        with pytest.raises(TypeError, match="exact scalar"):
            p.substitute("y", Poly.const(ExactScalar(1, 1)))

    def test_cancelling_terms_are_dropped(self):
        p = Poly(("x", "y"), {(1, 1): 2, (1, 0): -4, (0, 0): 1})
        assert p.substitute("y", 2).terms == {(0,): ExactScalar(1)}


def test_product_grade_clash_reads_as_the_sum():
    # x^1 would meet 1 from x * 1 and sqrt(pi) from sqrt(pi) * x in p * q;
    # p, x + sqrt(pi), is refused where it is built, with the sum's text
    with pytest.raises(ValueError) as want:
        ExactScalar(1) + ExactScalar(1, 1)
    with pytest.raises(ValueError) as got:
        Poly(("x",), {(1,): 1, (0,): ExactScalar(1, 1)})
    assert str(got.value) == str(want.value)


PI_Y = Poly.var("y") * ExactScalar(1, 1)


@pytest.mark.parametrize("make", [
    lambda: Poly(("x", "y"), {(1, 0): 1, (0, 1): ExactScalar(1, 1)}),
    lambda: X + PI_Y,
    lambda: Poly.sum([X, PI_Y]),
    lambda: Poly._sum_over(("x", "y"), [(0, 1, {(1, 0): 1}, 1),
                                        (1, 1, {(0, 1): 1}, 1)]),
], ids=["constructor", "add", "sum", "sum_over"])
def test_two_grades_are_refused_as_the_scalar_sum(make):
    # nonzero terms landing in two sqrt(pi) grades raise ExactScalar's text
    # for the leading term of each side
    with pytest.raises(ValueError) as want:
        ExactScalar(1) + ExactScalar(1, 1)
    with pytest.raises(ValueError) as got:
        make()
    assert str(got.value) == str(want.value)


def test_a_refused_sum_names_the_leading_term_of_each_side():
    # the terms that text() writes first: 3 x^2 and 7 sqrt(pi) x y^2
    p = Poly(("x", "y"), {(1, 0): 2, (2, 0): 3})
    q = Poly(("x", "y"), {(0, 1): 5, (1, 2): 7}) * ExactScalar(1, 1)
    assert p.text().startswith("3 x^2") and q.text().startswith("7 sqrt(pi) x y^2")
    with pytest.raises(ValueError) as want:
        ExactScalar(3) + ExactScalar(7, 1)
    for make in (lambda: p + q, lambda: Poly.sum([p, q])):
        with pytest.raises(ValueError) as got:
            make()
        assert str(got.value) == str(want.value)


def _pieces_fold(vars, pieces):
    """Poly._sum_over as the left fold by + of the one-piece Polys."""
    out = Poly.zero(vars)
    for g, d, nums, m in pieces:
        out = out + Poly._over(vars, g, d, {e: n * m for e, n in nums.items()})
    return out


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(((), ("x",), ("x", "y"))), st.data())
def test_sum_over_is_the_left_fold_of_its_pieces(vars, data):
    # pieces at grades 0 and 1, with zero numerators, zero multipliers and
    # keys recurring across pieces
    keys = st.tuples(*[st.integers(0, 2)] * len(vars))
    piece = st.tuples(st.integers(0, 1), st.integers(-4, 4).filter(bool),
                      st.dictionaries(keys, st.integers(-3, 3), max_size=3),
                      st.integers(-2, 2))
    pieces = data.draw(st.lists(piece, max_size=5))
    try:
        want = _pieces_fold(vars, pieces)
    except ValueError as exc:
        with pytest.raises(ValueError, match=re.escape(str(exc))):
            Poly._sum_over(vars, pieces)
        return
    assert_same_poly(Poly._sum_over(vars, pieces), want)
