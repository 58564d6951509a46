from fractions import Fraction

import pytest

from sjk import verify
from sjk.errors import InternalError, KernelHit, ParamError
from sjk.families import jacobi_classical
from sjk.opcalc import (
    ERROR_ON_KERNEL,
    DiagonalOp,
    apply_diagonal,
    apply_inverse_diagonal,
    exp_B_bivariate,
    exp_resolvent_sj,
    gp_series,
    hermite_exp,
)
from sjk.poly import Poly
from sjk.scalar import ExactScalar

X = Poly.var("x")


class TestApplyDiagonal:
    def test_kernel_annihilates(self):
        op = DiagonalOp(lambda d: Fraction(d - 2), {2})
        assert apply_diagonal(op, Poly.var("x", 2)).is_zero()

    def test_eigenoperator_kills_top_monomial(self):
        # -(d - 4)(d + 3) at degree 4, the (n, alpha, beta) = (4, -1, -1) factor
        op = DiagonalOp(lambda d: -Fraction((d - 4) * (d + 3)), {4})
        assert apply_diagonal(op, Poly.var("x", 4)).is_zero()

    def test_identity_rule(self):
        op = DiagonalOp(lambda d: 1)
        p = Poly.var("x", 3) + 7
        assert apply_diagonal(op, p) == p

    def test_inconsistent_kernel_declaration(self):
        op = DiagonalOp(lambda d: Fraction(d - 2), kernel=())
        with pytest.raises(InternalError):
            apply_diagonal(op, Poly.var("x", 2))


class TestApplyInverseDiagonal:
    def test_simple_division(self):
        op = DiagonalOp(lambda d: Fraction(d + 1))
        assert apply_inverse_diagonal(op, X) == X * Fraction(1, 2)

    def test_identity_completion_passes_kernel(self):
        op = DiagonalOp(lambda d: Fraction((d - 4) * (d + 3)), {4})
        p = Poly.var("x", 4)
        assert apply_inverse_diagonal(op, p) == p

    def test_error_completion_raises(self):
        op = DiagonalOp(lambda d: Fraction(d - 1), {1}, ERROR_ON_KERNEL)
        with pytest.raises(KernelHit):
            apply_inverse_diagonal(op, X)


class TestConjugateShift:
    def test_shift_up(self):
        op = DiagonalOp(lambda d: Fraction(d))
        assert op.shifted(1, 0).eval(3) == ExactScalar(4)

    def test_shift_down(self):
        op = DiagonalOp(lambda d: Fraction(d), {0})
        shifted = op.shifted(0, 2)
        assert shifted.eval(3) == ExactScalar(1)
        assert shifted.kernel == frozenset({2})

    @pytest.mark.parametrize("p, q", [(-1, 0), (0, -1), (-2, -3)])
    def test_negative_exponents_refused(self, p, q):
        with pytest.raises(ValueError, match="non-negative"):
            DiagonalOp(lambda d: Fraction(d)).shifted(p, q)

    @pytest.mark.parametrize("p", range(4))
    @pytest.mark.parametrize("q", range(4))
    def test_both_orderings_agree(self, p, q, rng):
        # f(D) x^p d^q m == x^p d^q f(D + p - q) m on monomials
        op = DiagonalOp(lambda d: Fraction(d * d + 1))

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


def test_error_on_kernel_never_hit_in_sweeps():
    # the degree-lowering argument keeps nonzero coefficients off kernel
    # degrees; running the strict completion documents it
    for n in range(31):
        assert gp_series(n, -1, -1, completion=ERROR_ON_KERNEL) == gp_series(
            n, -1, -1
        )
        assert exp_resolvent_sj(n, completion=ERROR_ON_KERNEL) == exp_resolvent_sj(n)
    for beta in (Fraction(0), Fraction(1, 2), Fraction(2)):
        for n in range(16):
            assert gp_series(n, -1, beta, completion=ERROR_ON_KERNEL) == gp_series(
                n, -1, beta
            )


def test_b_commutation_with_matched_powers(rng):
    # b_m y^p dx^p = y^p dx^p b_m: both sides preserve total degree, so the
    # diagonal acts identically; check on random bivariate monomials
    for m in range(4):
        op = DiagonalOp(
            lambda d, m=m: Fraction(d + m - 1), {1 - m} if 1 - m >= 0 else ()
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
