from fractions import Fraction
from math import factorial

import pytest

from sjk import verify
from sjk.connect import (
    FAMILIES,
    connection_gf_coeff,
    connection_gf_coeff_direct,
    gaussian_pair,
    hermite_connection,
    lookup,
    pair_factors,
    reaction_solve,
    reconstruct_monomial,
    sj_connection,
)
from sjk.errors import ParamError
from sjk.poly import Poly
from sjk.scalar import ExactScalar

X = Poly.var("x")


class TestSjConnection:
    def test_diagonal_is_one(self):
        for M in range(12):
            assert sj_connection(M, M) == 1

    def test_x_squared_decomposition(self):
        # x^2 = (x^2 - 1) + 1
        assert sj_connection(2, 0) == 1

    def test_x_cubed_decomposition(self):
        # x^3 = (x^3 - x) + x
        assert sj_connection(3, 1) == 1

    def test_parity_zeros(self):
        assert sj_connection(5, 2) == 0
        assert sj_connection(4, 1) == 0

    def test_index_error(self):
        with pytest.raises(IndexError):
            sj_connection(3, 4)


class TestHermiteConnection:
    def test_diagonal(self):
        for M in (0, 3, 6):
            assert hermite_connection(M, M) == Poly.const(1)

    def test_example_4_2(self):
        assert hermite_connection(4, 2) == Poly.monomial(-12, z=1)

    def test_parity_zero(self):
        assert hermite_connection(3, 0).is_zero()

    def test_index_error(self):
        with pytest.raises(IndexError):
            hermite_connection(2, 5)


class TestReconstruction:
    def test_sj_small(self):
        assert reconstruct_monomial(2, "sj") == Poly.var("x", 2)
        assert reconstruct_monomial(0, "sj") == Poly.const(1)

    def test_sj_degree_ten(self):
        assert reconstruct_monomial(10, "sj") == Poly.var("x", 10)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_through_degree_twenty(self, family):
        assert verify.reconstruction(range(21), [family]) is None

    def test_unknown_family(self):
        with pytest.raises(ParamError):
            reconstruct_monomial(2, "legendre")


class TestBiorthogonality:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_delta_through_twelve(self, family):
        assert verify.biorthogonality(13, [family]) is None


class TestGaussianPair:
    def test_matched_powers(self):
        F = Poly.var("w", 2)
        G = Poly.var("wbar", 2)
        assert gaussian_pair(F, G) == Poly.const(2)

    def test_mismatched_powers_vanish(self):
        assert gaussian_pair(Poly.var("w"), Poly.var("wbar", 2)).is_zero()

    def test_passthrough_variables(self):
        F = Poly.monomial(1, alpha=1, w=1)
        G = Poly.monomial(1, beta=2, wbar=1)
        assert gaussian_pair(F, G) == Poly.monomial(1, alpha=1, beta=2)

    def test_zero_operand_gives_zero(self):
        G = Poly.monomial(3, beta=1, wbar=2)
        assert gaussian_pair(Poly.zero(), G) == Poly.zero()
        assert gaussian_pair(G, Poly.zero(("wbar",))) == Poly.zero()

    def test_operand_free_of_w_pairs_at_r_zero(self):
        F = Poly.monomial(5, alpha=2)
        G = Poly.monomial(3, beta=1) + Poly.monomial(7, beta=2, wbar=1)
        assert gaussian_pair(F, G) == Poly.monomial(15, alpha=2, beta=1)

    @pytest.mark.parametrize("family", FAMILIES)
    def test_beta_factor_equals_substitution(self, family):
        # B renames x to beta in each p_n; substituting x -> beta gives
        # the same terms over the same variables, at every order
        source = lookup(family).source
        for order in range(7):
            want = Poly.sum((
                source(n).substitute("x", Poly.var("beta"))
                * Poly.monomial(Fraction(1, factorial(n)), wbar=n)
                for n in range(order + 1)
            ), ("beta", "wbar"))
            B = pair_factors(order, family)[1]
            assert (B.vars, B.terms) == (want.vars, want.terms), order

    @pytest.mark.parametrize("order", [4, 6])
    def test_sj_generating_functions_pair_to_exp(self, order):
        assert verify.pairing([order], ["sj"]) is None

    @pytest.mark.parametrize("order", [4, 6])
    def test_hermite_generating_functions_pair_to_exp(self, order):
        assert verify.pairing([order], ["hermite"]) is None


class TestConnectionGf:
    def test_hyper_matches_direct(self):
        for M in range(7):
            assert connection_gf_coeff(M, 12) == connection_gf_coeff_direct(M, 12)

    def test_first_correction_at_m0(self):
        # 0F1(1/2; l^2/4): the l^2 term is 1/2 = A_{2,0}/2!
        out = connection_gf_coeff(0, 4)
        assert out[2] == ExactScalar(Fraction(1, 2))
        assert out[2] == ExactScalar(Fraction(sj_connection(2, 0), factorial(2)))

    def test_leading_term(self):
        for M in (1, 3, 5):
            out = connection_gf_coeff(M, M)
            assert out[M] == ExactScalar(Fraction(1, factorial(M)))

    def test_m1_next_term_vs_a31(self):
        out = connection_gf_coeff(1, 3)
        assert out[3] == ExactScalar(Fraction(sj_connection(3, 1), factorial(3)))


class TestReaction:
    def test_initial_condition_is_monomial(self):
        assert verify.reaction(range(9), 4) is None

    def test_n0_two_first_order(self):
        sol = reaction_solve(2, 3)
        assert sol.coeffs[1] == (Poly.var("x", 2) - 1) * (-2)

    def test_n0_one_is_stationary(self):
        sol = reaction_solve(1, 5)
        assert sol.coeffs[0] == X
        for j in range(1, 6):
            assert sol.coeffs[j].is_zero()

    def test_n0_zero(self):
        sol = reaction_solve(0, 5)
        assert sol.coeffs[0] == Poly.const(1)
        assert all(sol.coeffs[j].is_zero() for j in range(1, 6))

    @pytest.mark.parametrize("N0", range(9))
    def test_satisfies_evolution_equation(self, N0):
        assert verify.reaction([N0], 6) is None
