from fractions import Fraction
from math import factorial

import pytest

from sjk import connect, verify
from sjk.connect import (
    FAMILIES,
    biorthogonality_check,
    connection_gf_coeff,
    connection_gf_coeff_direct,
    exp_product_truncation,
    gaussian_pair,
    hermite_connection,
    lookup,
    pair_factors,
    reaction_modes,
    reaction_solve,
    reconstruct_monomial,
    sj_connection,
)
from sjk.errors import ParamError
from sjk.poly import CoeffSeries, Poly
from sjk.scalar import ExactScalar

from conftest import assert_canonical

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

    def test_same_terms_as_checked_monomial(self):
        # the one-Fraction term against the checked construction it replaced
        for M in range(21):
            for n in range(M % 2, M + 1, 2):
                k = (M - n) // 2
                want = Poly.monomial(
                    Fraction(factorial(M), factorial(k) * factorial(n))
                    * Fraction(-1) ** k, z=k)
                got = hermite_connection(M, n)
                assert (got.vars, got.terms) == (want.vars, want.terms), (M, n)


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
        assert out[2] == ExactScalar(Fraction(sj_connection(2, 0).rat, factorial(2)))

    def test_leading_term(self):
        for M in (1, 3, 5):
            out = connection_gf_coeff(M, M)
            assert out[M] == ExactScalar(Fraction(1, factorial(M)))

    def test_m1_next_term_vs_a31(self):
        out = connection_gf_coeff(1, 3)
        assert out[3] == ExactScalar(Fraction(sj_connection(3, 1).rat, factorial(3)))


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

    @pytest.mark.parametrize("N0", range(21))
    def test_equals_eigenfamily_expansion(self, N0):
        for t in range(11):
            got, want = reaction_solve(N0, t), reaction_modes(N0, t)
            assert got.order == want.order == t
            for p, m in zip(got.coeffs, want.coeffs, strict=True):
                assert p == m and p.vars == m.vars == ("x",), t
                assert_canonical(p)

    def test_verify_catches_one_altered_coefficient(self, monkeypatch):
        def altered(N0, t_order):
            sol = reaction_solve(N0, t_order)
            coeffs = list(sol.coeffs)
            coeffs[-1] = coeffs[-1] + Poly.var("x", N0 % 2) * Fraction(1, 7)
            return CoeffSeries(coeffs, t_order)

        monkeypatch.setattr(connect, "reaction_solve", altered)
        found = verify.reaction(range(6), 4)
        assert found == "series differs from its eigenfamily expansion at N0=0"

    def test_rejects_negative_sizes(self):
        for fn in (reaction_solve, reaction_modes):
            with pytest.raises(ParamError):
                fn(-1, 3)
            with pytest.raises(ParamError):
                fn(2, -1)


class TestNegativeIndices:
    # an index below zero names no polynomial, so each is refused

    def test_reconstruct_monomial(self):
        with pytest.raises(ParamError, match="M must be >= 0, got -1"):
            reconstruct_monomial(-1, "sj")

    def test_biorthogonality_check(self):
        # one contraction per family and size: the size is the one index
        with pytest.raises(ParamError, match="top must be >= 0, got -1"):
            biorthogonality_check(-1, "sj")
        with pytest.raises(ParamError, match="top must be >= 0, got -3"):
            biorthogonality_check(-3, "hermite")

    def test_connection_gf_coeff(self):
        with pytest.raises(ParamError, match="M must be >= 0, got -1"):
            connection_gf_coeff(-1, 3)

    def test_pair_factors(self):
        with pytest.raises(ParamError, match="order must be >= 0, got -1"):
            pair_factors(-1, "sj")

    def test_exp_product_truncation(self):
        with pytest.raises(ParamError, match="order must be >= 0, got -2"):
            exp_product_truncation(-2)
