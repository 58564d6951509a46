from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from sjk import opcalc, verify
from sjk.errors import InternalError, ParamError
from sjk.families import jacobi_classical, sj_closed_mm
from sjk.opcalc import (
    DiagonalOp,
    apply_diagonal,
    apply_inverse_diagonal,
    exp_B_bivariate,
    exp_resolvent_sj,
    gp_series,
    hermite_exp,
    jacobi_operator_apply,
)
from sjk.poly import Poly
from sjk.scalar import ExactScalar

from conftest import assert_canonical, inverse_step

X = Poly.var("x")


class TestApplyDiagonal:
    def test_kernel_annihilates(self):
        op = DiagonalOp(lambda d: (d - 2, 1), {2})
        assert apply_diagonal(op, Poly.var("x", 2)).is_zero()

    def test_eigenoperator_kills_top_monomial(self):
        # -(d - 4)(d + 3) at degree 4, the (n, alpha, beta) = (4, -1, -1) factor
        op = DiagonalOp(lambda d: (-(d - 4) * (d + 3), 1), {4})
        assert apply_diagonal(op, Poly.var("x", 4)).is_zero()

    def test_identity_rule(self):
        op = DiagonalOp(lambda d: (1, 1))
        p = Poly.var("x", 3) + 7
        assert apply_diagonal(op, p) == p

    def test_inconsistent_kernel_declaration(self):
        op = DiagonalOp(lambda d: (d - 2, 1), kernel=())
        with pytest.raises(InternalError):
            apply_diagonal(op, Poly.var("x", 2))


class TestApplyInverseDiagonal:
    def test_simple_division(self):
        op = DiagonalOp(lambda d: (d + 1, 1))
        assert apply_inverse_diagonal(op, X) == X * Fraction(1, 2)

    def test_identity_completion_passes_kernel(self):
        op = DiagonalOp(lambda d: ((d - 4) * (d + 3), 1), {4})
        p = Poly.var("x", 4)
        assert apply_inverse_diagonal(op, p) == p


class TestConjugateShift:
    def test_shift_up(self):
        op = DiagonalOp(lambda d: (d, 1))
        assert op.shifted(1, 0).eval(3) == (4, 1)

    def test_shift_down(self):
        op = DiagonalOp(lambda d: (d, 1), {0})
        shifted = op.shifted(0, 2)
        assert shifted.eval(3) == (1, 1)
        assert shifted.kernel == frozenset({2})

    @pytest.mark.parametrize("p, q", [(-1, 0), (0, -1), (-2, -3)])
    def test_negative_exponents_refused(self, p, q):
        with pytest.raises(ValueError, match="non-negative"):
            DiagonalOp(lambda d: (d, 1)).shifted(p, q)

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("q", range(4))
    def test_both_orderings_agree(self, p, q, rng):
        # f(D) x^p d^q m == x^p d^q f(D + p - q) m on monomials
        op = DiagonalOp(lambda d: (d * d + 1, 1))

        def x_p_d_q(poly):
            for _ in range(q):
                poly = poly.derivative("x")
            return poly * Poly.var("x", p) if p else poly

        for _ in range(20):
            m = Poly.var("x", rng.randint(0, 8)) * rng.randint(1, 5)
            lhs = apply_diagonal(op, x_p_d_q(m), ("x",))
            rhs = x_p_d_q(apply_diagonal(op.shifted(p, q), m, ("x",)))
            assert lhs == rhs


class TestGpSeries:
    def test_table_row_2(self):
        assert gp_series(2, -1, -1) == Poly.var("x", 2) - 1

    def test_table_row_4(self):
        expect = (
            Poly.var("x", 4)
            + Poly.monomial(Fraction(-6, 5), x=2)
            + Poly.const(Fraction(1, 5))
        )
        assert gp_series(4, -1, -1) == expect

    def test_degree_zero(self):
        assert gp_series(0, Fraction(1, 2), Fraction(3, 2)) == Poly.const(1)

    def test_monic_of_declared_degree(self):
        for n in (1, 3, 6):
            p = gp_series(n, -1, Fraction(1, 2))
            assert p.scalar_coeff(x=n) == ExactScalar(1)
            assert p.degree("x") == n

    def test_parameter_range(self):
        with pytest.raises(ParamError):
            gp_series(2, Fraction(-3, 2), 0)


class TestExpForms:
    def test_exp_resolvent_rows(self):
        assert exp_resolvent_sj(3) == Poly.var("x", 3) - X
        assert exp_resolvent_sj(1) == X
        expect = (
            Poly.var("x", 8)
            + Poly.monomial(Fraction(-28, 13), x=6)
            + Poly.monomial(Fraction(210, 143), x=4)
            + Poly.monomial(Fraction(-140, 429), x=2)
            + Poly.const(Fraction(5, 429))
        )
        assert exp_resolvent_sj(8) == expect

    def test_bivariate_small(self):
        assert exp_B_bivariate(0) == Poly.const(1)
        assert exp_B_bivariate(1) == Poly.monomial(1, x=1, y=1)
        assert exp_B_bivariate(2) == Poly.monomial(1, x=2, y=2) + Poly.monomial(
            -1, y=2
        )

    def test_bivariate_specializes_to_univariate(self):
        for n in range(13):
            assert exp_B_bivariate(n).substitute("y", 1) == exp_resolvent_sj(n)

    def test_hermite_rows(self):
        assert hermite_exp(1) == X
        assert hermite_exp(4) == (
            Poly.var("x", 4) + Poly.monomial(12, x=2, z=1) + Poly.monomial(12, z=2)
        )
        h10 = hermite_exp(10)
        assert h10.scalar_coeff(x=4, z=3) == ExactScalar(25200)
        assert h10.scalar_coeff(z=5) == ExactScalar(30240)


class TestEigenEquations:
    @pytest.mark.parametrize("n", range(0, 16))
    def test_mm_eigen(self, n):
        assert verify.eigenequation([n]) is None

    @pytest.mark.parametrize("beta", [Fraction(0), Fraction(1, 2), Fraction(2)])
    def test_beta_eigen(self, beta):
        assert verify.eigenequation(range(9), [beta]) is None

    def test_classical_matches_monic_jacobi(self):
        for alpha, beta in ((Fraction(0), Fraction(0)),
                            (Fraction(1, 2), Fraction(1, 2)),
                            (Fraction(1), Fraction(2))):
            for n in range(11):
                cls = jacobi_classical(n, alpha, beta)
                lead = cls.scalar_coeff(x=n)
                monic = cls * (ExactScalar(1) / lead)
                assert gp_series(n, alpha, beta) == monic


def _sweeps():
    """The series sweeps whose kernel degrees the audit below watches."""
    out = []
    for n in range(31):
        out += [gp_series(n, -1, -1), exp_resolvent_sj(n), exp_B_bivariate(n)]
    for beta in (Fraction(0), Fraction(1, 2), Fraction(2)):
        out += [gp_series(n, -1, beta) for n in range(16)]
    return out


def test_error_on_kernel_never_hit_in_sweeps(monkeypatch):
    # the degree-lowering argument keeps nonzero coefficients off kernel
    # degrees, so the identity completion never acts: every series operator
    # built with no declared kernel evaluates only degrees where it is
    # nonzero, and a coefficient at a kernel degree makes eval raise
    want = _sweeps()
    monkeypatch.setattr(opcalc, "DiagonalOp", lambda fn, kernel=(): DiagonalOp(fn))
    assert _sweeps() == want


def test_kernel_audit_sees_a_kernel_hit(monkeypatch):
    # a first step that keeps an x^4 term in the resolvent series of degree
    # 4, whose factor vanishes there: the library's identity completion
    # passes it through to a wrong sum, the audit's operator raises
    real = opcalc._step

    def broken(nums, r, w2, w1, made, factor):
        out = real(nums, r, w2, w1, made, factor)
        if nums == {4: 1}:
            f = factor(4 + r)
            out.append((4, w2 * f[0], f[1]))
        return out

    monkeypatch.setattr(opcalc, "_step", broken)
    assert gp_series(4, -1, -1) != sj_closed_mm(4, 0)
    monkeypatch.setattr(opcalc, "DiagonalOp", lambda fn, kernel=(): DiagonalOp(fn))
    with pytest.raises(InternalError, match="declared kernel"):
        gp_series(4, -1, -1)


def test_b_commutation_with_matched_powers(rng):
    # b_m y^p dx^p = y^p dx^p b_m: both sides preserve total degree, so the
    # diagonal acts identically; check on random bivariate monomials
    for m in range(4):
        op = DiagonalOp(
            lambda d, m=m: (d + m - 1, 1), {1 - m} if 1 - m >= 0 else ()
        )

        def b(poly, op=op):
            return apply_inverse_diagonal(op, poly, ("x", "y")) * Fraction(-1, 2)

        for p in range(4):
            for _ in range(5):
                mono = Poly.monomial(
                    rng.randint(1, 9), x=rng.randint(p, p + 5), y=rng.randint(0, 4)
                )

                def ypdxp(poly):
                    for _ in range(p):
                        poly = poly.derivative("x")
                    return poly * Poly.var("y", p) if p else poly

                assert b(ypdxp(mono)) == ypdxp(b(mono))


def _outcome(fn):
    """fn()'s Poly with its variables, or the type and text of its error."""
    try:
        p = fn()
    except (InternalError, ValueError) as exc:
        return type(exc), str(exc)
    return p.vars, p.terms


def _step_oracle(op, t, vars, ba, scale):
    # the composition the one-pass step replaced
    d1 = t.derivative("x")
    return apply_inverse_diagonal(op, d1.derivative("x") + d1 * ba, vars) * scale


SMALL = st.fractions(min_value=-9, max_value=9, max_denominator=9)


@st.composite
def _step_cases(draw):
    vars = draw(st.sampled_from([("x",), ("x", "y")]))
    grades = draw(st.sampled_from([(0,), (1,), (0, 1)]))  # (0, 1) may clash
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 7) for _ in vars]),
        st.tuples(SMALL.filter(bool), st.sampled_from(grades)), max_size=6))
    t = Poly(vars, {e: ExactScalar(c, g) for e, (c, g) in terms.items()})
    k = draw(st.integers(0, 6))
    # declared kernel: the true one, a missing one (InternalError when met)
    # or one degree too many (never evaluated, as before)
    kernel = draw(st.sampled_from([{k}, set(), {k, k + 1}]))
    w = draw(SMALL.filter(bool))
    op = DiagonalOp(lambda d: ((d - k) * w.numerator, w.denominator), kernel)
    return op, t, vars, draw(SMALL), draw(SMALL.filter(bool))


@settings(max_examples=200, deadline=None)
@given(case=_step_cases())
def test_inverse_step_matches_composition(case):
    op, t, vars, ba, scale = case
    got = _outcome(lambda: inverse_step(op, t, vars, ba, scale))
    assert got == _outcome(lambda: _step_oracle(op, t, vars, ba, scale))


def test_inverse_step_errors_as_composition():
    op = DiagonalOp(lambda d: (d - 2, 1), set())  # declared kernel is wrong
    t = Poly.var("x", 4)
    got = _outcome(lambda: inverse_step(op, t, ("x",), 0, Fraction(-1, 2)))
    assert got[0] is InternalError
    assert got == _outcome(lambda: _step_oracle(op, t, ("x",), 0, Fraction(-1, 2)))


def test_inverse_step_passes_kernel_terms_as_composition():
    # x^4 lands on x^2, the kernel degree: it passes through, scaled
    op = DiagonalOp(lambda d: (d - 2, 1), {2})
    t = Poly.var("x", 4)
    got = _outcome(lambda: inverse_step(op, t, ("x",), 0, Fraction(-1, 2)))
    assert got == (("x",), {(2,): ExactScalar(-6)})
    assert got == _outcome(lambda: _step_oracle(op, t, ("x",), 0, Fraction(-1, 2)))


def test_inverse_step_grade_clash_as_composition():
    # x^3 (grade 0) and x^2 sqrt(pi) both land on x^1
    t = Poly.var("x", 3) + Poly.monomial(ExactScalar(1, 1), x=2)
    op = DiagonalOp(lambda d: (d + 1, 1))
    got = _outcome(lambda: inverse_step(op, t, ("x",), Fraction(1, 3), Fraction(1)))
    assert got[0] is ValueError and "different powers of sqrt(pi)" in got[1]
    assert got == _outcome(
        lambda: _step_oracle(op, t, ("x",), Fraction(1, 3), Fraction(1)))


def _jacobi_operator_oracle(p, alpha, beta):
    # the two Poly products that the one-pass map replaced
    d1 = p.derivative("x")
    out = Poly(("x",), {(0,): 1, (2,): -1}) * d1.derivative("x")
    return out + Poly(("x",), {(0,): beta - alpha, (1,): -(alpha + beta + 2)}) * d1


@st.composite
def _operator_cases(draw):
    vars = draw(st.sampled_from([("x",), ("x", "y"), ("z", "x"), ("y",), ()]))
    grades = draw(st.sampled_from([(0,), (1,), (-2,), (0, 1)]))  # (0, 1) may clash
    terms = draw(st.dictionaries(
        st.tuples(*[st.integers(0, 7) for _ in vars]),
        st.tuples(SMALL.filter(bool), st.sampled_from(grades)), max_size=6))
    p = Poly(vars, {e: ExactScalar(c, g) for e, (c, g) in terms.items()})
    alpha, beta = draw(st.sampled_from([(-1, -1), (-1, 0), (-1, Fraction(1, 2))])
                       | st.tuples(SMALL, SMALL))
    return p, alpha, beta


@settings(max_examples=150, deadline=None)
@given(case=_operator_cases())
def test_jacobi_operator_apply_matches_products(case):
    # same terms and the same .vars, the sorted union of ("x",) and p.vars;
    # a clash of sqrt(pi) grades raises ValueError on both paths
    p, alpha, beta = case
    try:
        want = _jacobi_operator_oracle(p, alpha, beta)
    except ValueError:
        with pytest.raises(ValueError, match="different powers of sqrt"):
            jacobi_operator_apply(p, alpha, beta)
        return
    got = jacobi_operator_apply(p, alpha, beta)
    assert (got.vars, got.terms) == (want.vars, want.terms)
    assert got.vars == tuple(sorted({"x", *p.vars}))
    assert_canonical(got)
