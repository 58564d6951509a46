from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sjk import verify
from sjk.errors import PoleError
from sjk.poly import Poly
from sjk.scalar import (
    ONE,
    ZERO,
    ExactScalar,
    HalfInt,
    beta_fn,
    gamma_half,
    gamma_ratio,
    half,
    pochhammer,
    recip_gamma,
)

H = Fraction(1, 2)


class TestHalfInt:
    def test_coercion(self):
        assert half(3).twice == 6
        assert half(Fraction(5, 2)).twice == 5
        assert half(HalfInt(7)) is not None
        with pytest.raises(ValueError):
            half(Fraction(1, 3))

    def test_ordering_and_diff(self):
        assert HalfInt(3) < HalfInt(4)
        assert (HalfInt(5) - HalfInt(1)).twice == 4
        assert HalfInt(4).is_integer
        assert not HalfInt(3).is_integer
        assert HalfInt(0).is_nonpositive_integer()
        assert HalfInt(-4).is_nonpositive_integer()
        assert not HalfInt(-3).is_nonpositive_integer()

    def test_sum_with_exact_scalar_either_way(self):
        # HalfInt(1) is 1/2; an operand half() does not know is left to
        # ExactScalar's reflected method.
        three_halves = ExactScalar(Fraction(3, 2))
        assert HalfInt(1) + ExactScalar(1) == ExactScalar(1) + HalfInt(1) == three_halves
        assert HalfInt(1) - ExactScalar(1) == ExactScalar(Fraction(-1, 2))
        assert ExactScalar(1) - HalfInt(1) == ExactScalar(H)

    @pytest.mark.parametrize(
        "method", ["__add__", "__radd__", "__sub__", "__rsub__", "__lt__", "__le__"]
    )
    def test_unknown_operand_returns_not_implemented(self, method):
        assert getattr(HalfInt(1), method)(ExactScalar(1)) is NotImplemented
        assert getattr(HalfInt(1), method)("x") is NotImplemented

    def test_ordering_against_unknown_type_is_type_error(self):
        with pytest.raises(TypeError):
            HalfInt(1) < "x"

    @pytest.mark.parametrize("method", ["__add__", "__sub__", "__rsub__", "__lt__", "__le__"])
    def test_finer_rational_still_refused(self, method):
        with pytest.raises(ValueError, match="is not a half-integer"):
            getattr(HalfInt(1), method)(Fraction(1, 3))

    def test_half_integer_arithmetic_unchanged(self):
        assert HalfInt(1) + 1 == 1 + HalfInt(1) == HalfInt(3)
        assert 1 - HalfInt(1) == HalfInt(1)
        assert HalfInt(3) - H == HalfInt(2)
        assert HalfInt(1) < 1 and HalfInt(2) <= 1


class TestExactScalar:
    def test_canonical_zero(self):
        z = ExactScalar(0, 5)
        assert z.sqrt_pi_pow == 0
        assert z == ExactScalar(0)

    def test_mixed_pi_addition_rejected(self):
        with pytest.raises(ValueError):
            ExactScalar(1, 1) + ExactScalar(1, 0)

    def test_zero_absorbs_any_grade(self):
        assert ExactScalar(0) + ExactScalar(3, 2) == ExactScalar(3, 2)

    def test_field_ops(self):
        a = ExactScalar(Fraction(3, 4), 1)
        assert a * a == ExactScalar(Fraction(9, 16), 2)
        assert a / a == ExactScalar(1)
        assert a**3 == ExactScalar(Fraction(27, 64), 3)
        assert a ** (-1) == ExactScalar(Fraction(4, 3), -1)

    @pytest.mark.parametrize("bad", [0.1, 0.0, -2.5, float("inf")])
    def test_float_refused(self, bad):
        # a float is not exact: 0.1 would be stored as 3602879701896397/2^55
        with pytest.raises(TypeError):
            ExactScalar(bad)
        with pytest.raises(TypeError):
            ExactScalar(bad, 1)
        with pytest.raises(TypeError):
            ExactScalar.coerce(bad)

    def test_exact_inputs_accepted(self):
        assert ExactScalar(3).rat == 3
        assert ExactScalar(True).rat == 1
        assert ExactScalar(Fraction(-2, 6), 1) == ExactScalar(Fraction(-1, 3), 1)
        assert ExactScalar("-3/4").rat == Fraction(-3, 4)
        assert ExactScalar("0.1").rat == Fraction(1, 10)

    def test_unknown_operand_defers_to_its_reflected_method(self):
        x = Poly.var("x")
        assert ExactScalar(2) * x == x * 2
        assert ExactScalar(2) + x == x + 2
        assert ExactScalar(2) - x == 2 - x
        assert isinstance(ExactScalar(2) * x, Poly)

    @pytest.mark.parametrize("other", [object(), 0.5, "1"])
    def test_operand_nobody_knows_still_raises(self, other):
        one = ExactScalar(1)
        for op in (
            lambda: one + other, lambda: other + one, lambda: one - other,
            lambda: other - one, lambda: one * other, lambda: other * one,
            lambda: one / other, lambda: other / one,
        ):
            with pytest.raises(TypeError):
                op()


fracs = st.fractions(min_value=-6, max_value=6, max_denominator=9)
grades = st.integers(-4, 4)


def _plain(x):
    """x as a plain (rational, grade) pair, after checking its form."""
    assert type(x) is ExactScalar and type(x.rat) is Fraction
    if not x.rat:
        assert x.sqrt_pi_pow == 0  # zero is canonical
    return x.rat, x.sqrt_pi_pow


@settings(max_examples=150, deadline=None)
@given(fracs, fracs, fracs, grades, grades)
def test_ring_axioms_within_a_grade(a, b, c, k, j):
    x, y, z = ExactScalar(a, k), ExactScalar(b, k), ExactScalar(c, k)
    w = ExactScalar(c, j)
    assert _plain(x + y) == _plain(ExactScalar(a + b, k))
    assert _plain(x - y) == _plain(ExactScalar(a - b, k))
    assert _plain(x * w) == _plain(ExactScalar(a * c, k + j))
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + ZERO == x == ZERO + x
    assert _plain(x + -x) == (0, 0)
    assert (x - y) + y == x
    assert x * w == w * x
    assert (x * y) * w == x * (y * w)
    assert w * (x + y) == w * x + w * y
    assert x * ONE == x
    assert x**2 == x * x
    assert _plain(x**0) == (1, 0)
    if b:
        assert (x / y) * y == x
        assert y ** -2 * y**2 == ONE


@settings(max_examples=150, deadline=None)
@given(fracs, grades, grades)
def test_zero_is_canonical_across_grades(a, k, j):
    x, z = ExactScalar(a, k), ExactScalar(0, j)
    results = [x * z, z * x, z * 5, x - x, -z, z**3, z + z, z - z, x * 0, 0 * x]
    if a:
        results.append(z / x)
    for r in results:
        assert _plain(r) == (0, 0)
        assert r == ZERO == 0 and hash(r) == hash(0)
        assert not r and r.is_zero()


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(Fraction(17, 2), 0) == 1
        assert pochhammer(-3, 0) == 1

    def test_half_case(self):
        # (1/2)(3/2)(5/2)
        assert pochhammer(H, 3) == Fraction(15, 8)

    def test_integer_case(self):
        assert pochhammer(3, 2) == 12

    @pytest.mark.parametrize(
        "a",
        [-1, -2, -5, Fraction(-7, 2), Fraction(1, 2), Fraction(5, 3), Fraction(17, 2)],
    )
    def test_matches_a_fraction_loop(self, a):
        want = Fraction(1)
        for n in range(31):
            got = pochhammer(a, n)
            assert type(got) is Fraction and got == want, n
            want *= a + n
        if a == int(a):  # the product passes through zero at a + j = 0
            assert pochhammer(a, 1 - int(a)) == 0 == pochhammer(a, 30)


class TestGammaHalf:
    def test_sqrt_pi(self):
        assert gamma_half(H) == ExactScalar(1, 1)

    def test_factorial(self):
        assert gamma_half(3) == ExactScalar(2)

    def test_five_halves(self):
        assert gamma_half(Fraction(5, 2)) == ExactScalar(Fraction(3, 4), 1)

    def test_negative_half_odd(self):
        # Gamma(-1/2) = Gamma(1/2)/(-1/2) = -2 sqrt(pi)
        assert gamma_half(Fraction(-1, 2)) == ExactScalar(-2, 1)
        # Gamma(-3/2) = 4/3 sqrt(pi)
        assert gamma_half(Fraction(-3, 2)) == ExactScalar(Fraction(4, 3), 1)

    @pytest.mark.parametrize("bad", [0, -1, -5])
    def test_poles(self, bad):
        with pytest.raises(PoleError):
            gamma_half(bad)


class TestRecipGamma:
    def test_entire_zeros(self):
        assert recip_gamma(-2) == ExactScalar(0)
        assert recip_gamma(0) == ExactScalar(0)

    def test_one(self):
        assert recip_gamma(1) == ExactScalar(1)

    def test_inverse_of_gamma(self):
        assert recip_gamma(H) == ExactScalar(1, -1)
        for twice in (-5, -3, -1, 1, 2, 3, 7, 8):
            a = HalfInt(twice)
            assert gamma_half(a) * recip_gamma(a) == ExactScalar(1)


class TestGammaRatio:
    def test_pochhammer_case(self):
        assert gamma_ratio(Fraction(5, 2), H) == ExactScalar(Fraction(3, 4))

    def test_equal_arguments(self):
        for twice in (-3, -1, 1, 4):
            assert gamma_ratio(HalfInt(twice), HalfInt(twice)) == ExactScalar(1)

    def test_pole_numerator(self):
        with pytest.raises(PoleError):
            gamma_ratio(0, 1)

    def test_denominator_pole_gives_zero(self):
        assert gamma_ratio(2, -1) == ExactScalar(0)

    def test_non_integer_difference(self):
        # Gamma(1)/Gamma(1/2) = 1/sqrt(pi)
        assert gamma_ratio(1, H) == ExactScalar(1, -1)

    def test_matches_pochhammer_up_to_20(self):
        assert verify.pochhammer_ratio((-7, -3, -1, 1, 2, 3, 5, 8), 21) is None


class TestBeta:
    def test_unit(self):
        assert beta_fn(1, 1) == ExactScalar(1)

    def test_pi(self):
        assert beta_fn(H, H) == ExactScalar(1, 2)

    def test_integers(self):
        assert beta_fn(2, 3) == ExactScalar(Fraction(1, 12))

    def test_pole(self):
        with pytest.raises(PoleError):
            beta_fn(0, 1)
        with pytest.raises(PoleError):
            beta_fn(H, Fraction(-1, 2))  # a + b = 0

    def test_pascal_identity_random(self):
        # negative half-integers too; pairs at a pole are skipped
        pairs = verify.half_pairs(41, 50, -9, 40)
        assert verify.beta_differences((a, b, 1) for a, b in pairs) is None

    @pytest.mark.parametrize("n", range(7))
    def test_iterated_difference_identity(self, n):
        pairs = verify.half_pairs(100 + n, 10, 1, 30)
        assert verify.beta_differences((a, b, n) for a, b in pairs) is None


def test_duplication_formula():
    # Gamma(2z) = 2^(2z-1) pi^(-1/2) Gamma(z) Gamma(z + 1/2), half-integer z
    assert verify.duplication(range(1, 17)) is None


# sympy evaluates gamma at integers and half-odd integers to a rational
# times a power of sqrt(pi), and 1/Gamma to zero at the poles, so it is an
# independent oracle for the closed forms above.
HALVES = [HalfInt(t) for t in range(-13, 30)]


def _sympy_check(got, want):
    sp = pytest.importorskip("sympy")
    _plain(got)
    assert want / sp.sqrt(sp.pi) ** got.sqrt_pi_pow == sp.Rational(
        got.rat.numerator, got.rat.denominator
    ), (got, want)


def _sympy_gamma(h):
    sp = pytest.importorskip("sympy")
    return sp.gamma(sp.Rational(h.twice, 2))


@pytest.mark.parametrize("a", HALVES, ids=str)
def test_gamma_half_and_recip_match_sympy(a):
    want = _sympy_gamma(a)
    if a.is_nonpositive_integer():
        with pytest.raises(PoleError):
            gamma_half(a)
    else:
        _sympy_check(gamma_half(a), want)
    _sympy_check(recip_gamma(a), 1 / want)


@pytest.mark.parametrize("a", HALVES[::3], ids=str)
def test_gamma_ratio_and_beta_match_sympy(a):
    for b in HALVES[::2]:
        if a.is_nonpositive_integer():
            with pytest.raises(PoleError):
                gamma_ratio(a, b)
        else:
            _sympy_check(gamma_ratio(a, b), _sympy_gamma(a) / _sympy_gamma(b))
        if any(h.is_nonpositive_integer() for h in (a, b, a + b)):
            with pytest.raises(PoleError):
                beta_fn(a, b)
        else:
            want = _sympy_gamma(a) * _sympy_gamma(b) / _sympy_gamma(a + b)
            _sympy_check(beta_fn(a, b), want)
