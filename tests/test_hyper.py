from fractions import Fraction
from itertools import islice
from math import factorial, prod

import pytest
from hypothesis import given, settings, strategies as st

from sjk import verify
from sjk.errors import ParamError, PoleError
from sjk.hyper import (
    HyperSpec,
    gamma_multiplication,
    pfq_coeff,
    pfq_terms,
    pochhammer_proliferate,
)
from sjk.scalar import ExactScalar, HalfInt, gamma_half, pochhammer
from sjk.umbral import GenMonomial, GenSeries, itransform

from conftest import as_scalar, random_proliferation_cases
from reference import pfq_derivative, tricomi_coeff

H = Fraction(1, 2)


class TestPfqCoeff:
    def test_exponential_series(self):
        assert pfq_coeff(HyperSpec((), ()), 3) == ExactScalar(Fraction(1, 6))

    def test_egf_inner_series_value(self):
        # 1F2(n - 1/2; n/2 - 1/4, n/2 + 1/4; .) at n = 2, m = 1:
        # (3/2) / ((3/4)(5/4)) = 8/5
        spec = HyperSpec((Fraction(3, 2),), (Fraction(3, 4), Fraction(5, 4)))
        assert pfq_coeff(spec, 1) == ExactScalar(Fraction(8, 5))

    def test_zeroth_coefficient_is_one(self):
        spec = HyperSpec((Fraction(-7, 2), 4), (H,), Fraction(3, 5))
        assert pfq_coeff(spec, 0) == ExactScalar(1)

    def test_lower_param_validation(self):
        with pytest.raises(ParamError):
            HyperSpec((1,), (-1,))

    @pytest.mark.parametrize("bad", [0.1, 0.0, -2.5, float("inf")])
    def test_float_parameter_refused(self, bad):
        # 0.1 would be stored as 3602879701896397/36028797018963968
        with pytest.raises(TypeError):
            HyperSpec((bad,), ())
        with pytest.raises(TypeError):
            HyperSpec((), (bad,))

    def test_parameters_kept_exact(self):
        # each group is the reduced pair (numerators, denominators) of ints
        spec = HyperSpec((Fraction(1, 3), 2, HalfInt(3), "1/10"), (Fraction(-4, 6),))
        assert spec.upper == ((1, 2, 3, 1), (3, 1, 2, 10))
        assert spec.lower == ((-2,), (3,))
        groups = (*spec.upper, *spec.lower)
        assert all(type(n) is int for group in groups for n in group)

    def test_arg_scale_powers(self):
        spec = HyperSpec((), (), Fraction(2))
        assert pfq_coeff(spec, 3) == ExactScalar(Fraction(8, 6))

    def test_terminating_upper(self):
        spec = HyperSpec((-2,), (H,))
        assert pfq_coeff(spec, 3) == ExactScalar(0)


# rationals that include negative non-integers; a lower parameter avoids Z_<=0
params = st.fractions(min_value=-9, max_value=9, max_denominator=13)
lower_params = params.filter(lambda b: not (b.denominator == 1 and b <= 0))


@settings(max_examples=120, deadline=None)
@given(
    upper=st.lists(params, max_size=3),
    stop=st.one_of(st.none(), st.integers(-12, 0)),
    lower=st.lists(lower_params, max_size=3),
    scale=st.fractions(min_value=-5, max_value=5, max_denominator=11),
    grade=st.integers(-3, 3),
    start=st.one_of(st.just(Fraction(0)), st.fractions(max_denominator=10**6)),
    start_grade=st.integers(-3, 3),
)
def test_pfq_terms_equal_pochhammer_quotients(
    upper, stop, lower, scale, grade, start, start_grade
):
    # the integer term ratio against scale^m / m! prod (a)_m / prod (b)_m; an
    # upper parameter at a non-positive integer terminates the series
    upper = upper if stop is None else [*upper, Fraction(stop)]
    spec = HyperSpec(upper, lower, ExactScalar(scale, grade))
    first = ExactScalar(start, start_grade)
    scaled = pfq_terms(spec, first)
    for m, (c, d) in enumerate(islice(zip(pfq_terms(spec), scaled), 30)):
        want = scale**m / factorial(m) * prod(pochhammer(a, m) for a in upper)
        want /= prod(pochhammer(b, m) for b in lower)
        assert c == ExactScalar(want, grade * m), m
        # the start is the m = 0 term: every term is start times the unscaled one
        assert d == first * c, m
        for t in (c, d):
            assert type(t.rat) is Fraction and type(t.sqrt_pi_pow) is int
            assert t or t.sqrt_pi_pow == 0


@pytest.mark.parametrize("start", [
    ExactScalar(0), ExactScalar(0, 3), 0, ExactScalar(Fraction(-2, 7), -3),
    ExactScalar(5, 3), Fraction(3, 4), 2,
])
def test_pfq_terms_start_is_the_first_term(start):
    spec = HyperSpec(
        (Fraction(-5, 2), Fraction(1, 3)), (Fraction(7, 4),), ExactScalar(-3, 1)
    )
    for c, d in islice(zip(pfq_terms(spec), pfq_terms(spec, start)), 12):
        want = c * start
        assert d == want and d.sqrt_pi_pow == want.sqrt_pi_pow


def test_reprs():
    assert (repr(HalfInt(3)), repr(HalfInt(4))) == ("HalfInt(3/2)", "HalfInt(2)")
    spec = HyperSpec((H,), (2,), Fraction(-1, 4))
    assert repr(spec) == "HyperSpec(1F1; [1/2]; [2]; scale=-1/4)"
    # the new parameters (alpha + k) / r and (beta + t) / s, each reduced
    _, new = pochhammer_proliferate(HalfInt(2), HalfInt(3), 2, 2, spec)
    assert repr(new) == "HyperSpec(3F3; [1/2, 1/2, 1]; [2, 3/4, 5/4]; scale=-1/4)"
    s = GenSeries([GenMonomial(3, {"u": H}, lambda_pow=1)], 2)
    assert repr(s) == "GenSeries(1 terms, lambda_order=2, mu_order=None)"
    assert repr(s.terms[0]) == "GenMonomial(3 | u^1/2 |  | lambda^1 mu^0)"


class TestPfqDerivative:
    def test_exponential_fixed_point(self):
        spec = HyperSpec((), ())
        pref, new = pfq_derivative(spec, 5)
        assert pref == ExactScalar(1)
        assert (new.upper, new.lower, new.arg_scale) == (((), ()), ((), ()), 1)

    def test_kummer_shift(self):
        pref, new = pfq_derivative(HyperSpec((1,), (2,)), 1)
        assert pref == ExactScalar(H)
        assert (new.upper, new.lower, new.arg_scale) == (((2,), (1,)), ((3,), (1,)), 1)

    @pytest.mark.parametrize(
        "spec,n",
        [
            (HyperSpec((1,), (2,)), 1),
            (HyperSpec((H, 3), (Fraction(5, 2),)), 2),
            (HyperSpec((Fraction(3, 2),), (Fraction(7, 2), 2), Fraction(2, 3)), 3),
        ],
    )
    def test_termwise_consistency(self, spec, n):
        # d^n/dz^n sum c_M z^M has m-th coefficient (m+n)!/m! c_{m+n}
        pref, new = pfq_derivative(spec, n)
        for m in range(9):
            direct = pfq_coeff(spec, m + n) * Fraction(
                factorial(m + n), factorial(m)
            )
            assert pref * pfq_coeff(new, m) == direct


class TestProliferation:
    def test_trivial_case(self):
        spec = HyperSpec((Fraction(3, 2),), (2,))
        pref, new = pochhammer_proliferate(HalfInt(2), HalfInt(2), 1, 1, spec)
        assert pref == ExactScalar(1)
        for m in range(6):
            assert pfq_coeff(new, m) == pfq_coeff(spec, m)

    def test_argument_rescale(self):
        spec = HyperSpec((), ())
        _, new = pochhammer_proliferate(HalfInt(2), HalfInt(2), 2, 1, spec)
        assert new.arg_scale == ExactScalar(4)

    def _umbral_side(self, alpha, beta, r, s, spec, m):
        # brute force through the integral transform:
        # coefficient of z^m of I(u^a v^b pFq(z u^r v^s))
        term = GenMonomial(
            1,
            u_exps={"u": alpha + m * r},
            v_exps={"v": beta + m * s},
            lambda_pow=0,
        )
        val = as_scalar(itransform(GenSeries([term], lambda_order=0)).coeffs[0])
        return pfq_coeff(spec, m) * val

    def test_worked_example(self):
        spec = HyperSpec((Fraction(3, 2),), (Fraction(5, 2), 1))
        alpha, beta, r, s = HalfInt(1), HalfInt(3), 1, 2
        pref, new = pochhammer_proliferate(alpha, beta, r, s, spec)
        for m in range(9):
            assert pref * pfq_coeff(new, m) == self._umbral_side(
                alpha, beta, r, s, spec, m
            )

    def test_twenty_random_admissible_tuples(self):
        cases = random_proliferation_cases(2024, 20)
        assert verify.proliferation(cases, range(9)) is None

    def test_rejects_poles(self):
        with pytest.raises(ParamError):
            pochhammer_proliferate(HalfInt(0), HalfInt(1), 1, 1, HyperSpec((), ()))


class TestGammaMultiplication:
    def test_example_n2(self):
        lhs, rhs = gamma_multiplication(2, 1, H)
        assert lhs == rhs == ExactScalar(2)  # Gamma(3)

    def test_s_zero_is_plain_gamma(self):
        for xt in (1, 2, 5):
            lhs, rhs = gamma_multiplication(2, 0, Fraction(xt, 2))
            assert lhs == rhs == gamma_half(Fraction(xt))

    def test_example_n3(self):
        lhs, rhs = gamma_multiplication(3, 1, 1)
        assert lhs == rhs == ExactScalar(120)  # Gamma(6) = 5!

    def test_grid(self):
        assert verify.multiplication_formula((2, 3, 4), range(4), range(1, 9)) is None

    def test_rejects_unevaluable(self):
        with pytest.raises(ParamError):
            gamma_multiplication(2, 1, Fraction(1, 3))

    def test_pole(self):
        with pytest.raises(PoleError):
            gamma_multiplication(2, 0, Fraction(-1, 2))  # nx = -1

    @pytest.mark.parametrize("bad", [0.5, 1.0, 0.1])
    def test_float_refused(self, bad):
        # 0.5 and 1.0 are exact in binary, but a float is refused all the same
        with pytest.raises(TypeError):
            gamma_multiplication(2, 1, bad)


class TestTricomi:
    def test_zeroth(self):
        assert tricomi_coeff(0, 0) == ExactScalar(1)

    def test_integer_case(self):
        assert tricomi_coeff(1, 2) == ExactScalar(Fraction(1, 12))

    def test_half_case(self):
        assert tricomi_coeff(H, 0) == ExactScalar(2, -1)

    def test_parameter_pole(self):
        with pytest.raises(PoleError):
            tricomi_coeff(-1, 0)


@pytest.mark.parametrize(
    "uppers,lowers",
    [
        ((Fraction(3, 2),), (Fraction(5, 2),)),  # 1F1
        ((H,), (Fraction(7, 2), 2)),  # 1F2
        ((Fraction(3, 2), 1), (Fraction(9, 2),)),  # 2F1
    ],
)
def test_pfq_through_integral_transform(uppers, lowers):
    # I(prod (u_i v_i)^(a_i) prod (u_(p+j) v_(p+j))^(b_j) e^(z u... v...))
    # reproduces the series coefficients
    p = len(uppers)
    spec = HyperSpec(uppers, lowers)
    top = 8
    terms = []
    for m in range(top + 1):
        u_exps = {}
        v_exps = {}
        for i, a in enumerate(uppers):
            u_exps[f"u{i}"] = Fraction(a) + m
            v_exps[f"v{i}"] = Fraction(a)
        for j, b in enumerate(lowers):
            u_exps[f"u{p + j}"] = Fraction(b)
            v_exps[f"v{p + j}"] = Fraction(b) + m
        terms.append(
            GenMonomial(
                Fraction(1, factorial(m)), u_exps, v_exps, lambda_pow=m
            )
        )
    out = itransform(GenSeries(terms, lambda_order=top))
    for m in range(top + 1):
        assert as_scalar(out.coeffs[m]) == pfq_coeff(spec, m)
