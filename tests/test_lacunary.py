from fractions import Fraction
from math import factorial

import pytest

from sjk import connect, lacunary, verify
from sjk.connect import lookup
from sjk.errors import ParamError
from sjk.families import hermite_closed, hermite_egf, hermite_family, sj_egf
from sjk.lacunary import (
    _hermite_raise,
    coeff_bridge_check,
    hermite_lacunary_closed,
    hermite_lacunary_shift,
    lacunary_dilate,
    mu_slice,
    multisection_oracle,
    sj_lacunary_closed,
    sj_lacunary_closed_printed,
)
from sjk.poly import Poly
from sjk.scalar import ExactScalar
from sjk.verify import lacunary_oracle as oracle

from conftest import assert_canonical, reference_slices

X = Poly.var("x")


class TestOracle:
    def test_k1_is_plain_egf(self):
        assert oracle("sj", 1, 0, 3) == sj_egf(3)

    def test_hermite_k2_first_coefficient(self, golden):
        s = oracle("hermite", 2, 0, 2)
        assert s.coeffs[1] == golden[("hermite", 2)]

    def test_sj_k2_l1_first_coefficient(self, golden):
        s = oracle("sj", 2, 1, 2)
        assert s.coeffs[1] == golden[("sj", 3)]

    @pytest.mark.parametrize("check", [
        lambda: oracle("bogus", 2, 0, 2),
        lambda: verify.lacunary_closed([("bogus", 2, 2)]),
        lambda: verify.lacunary_slices([("bogus", 2, 1, 2)]),
        lambda: verify.lacunary_shifts([("bogus", 2, 1, 2, 1)]),
    ], ids=["oracle", "closed", "slices", "shifts"])
    def test_unknown_family_is_refused(self, check):
        with pytest.raises(ParamError, match="^unknown family 'bogus'$"):
            check()

    def test_params_validated(self):
        for K, L, order in ((0, 0, 3), (1, -1, 3), (1, 0, -1)):
            with pytest.raises(ParamError):
                multisection_oracle(hermite_family, K, L, order)

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    @pytest.mark.parametrize("L", [0, 1, 2, 3])
    @pytest.mark.parametrize("family", ["sj", "hermite"])
    def test_terms_over_n_factorial(self, family, K, L):
        # each term divided by n! once equals the Poly product by 1/n!
        source = lookup(family).source
        got = multisection_oracle(source, K, L, 6)
        for n, c in enumerate(got.coeffs):
            want = source(K * n + L) * Fraction(1, factorial(n))
            assert c.vars == want.vars and c.terms == want.terms, n
            assert_canonical(c)

    def test_terms_keep_their_grade(self):
        # a source whose terms carry different powers of sqrt(pi), over (z, x)
        def source(n):
            return Poly(("z", "x"), {
                (0, n): ExactScalar(Fraction(n + 1, 3), n % 3 - 1),
                (1, 0): ExactScalar(Fraction(-4, 5), 2),
                (2, n): ExactScalar(-7),
            })

        got = multisection_oracle(source, 3, 2, 7)
        for n, c in enumerate(got.coeffs):
            want = source(3 * n + 2) * Fraction(1, factorial(n))
            assert c.vars == want.vars == ("z", "x") and c.terms == want.terms, n
            assert {t.sqrt_pi_pow for t in c.terms.values()} == {0, 1, 2}
            assert_canonical(c)


class TestDilate:
    def test_hermite_k2(self, golden):
        d = lacunary_dilate(hermite_egf(10), 2)
        assert d.coeffs[1] == golden[("hermite", 2)]
        assert d == oracle("hermite", 2, 0, 5)

    def test_identity_at_k1(self):
        e = sj_egf(6)
        assert lacunary_dilate(e, 1) == e

    def test_sj_k3(self, golden):
        d = lacunary_dilate(sj_egf(9), 3)
        assert d.coeffs[1] == golden[("sj", 3)]
        assert d == oracle("sj", 3, 0, 3)


class TestHermiteClosed:
    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    def test_equals_oracle(self, K):
        assert verify.lacunary_closed([("hermite", K, 5)]) is None

    def test_k2_lambda_one_slice(self, golden):
        got = hermite_lacunary_closed(2, 5)
        assert got.coeffs[1] == golden[("hermite", 2)]

    def test_k2_against_sympy_generating_function(self):
        # sum_n H_2n(x, z) lambda^n / n! = (1-4z lambda)^(-1/2) exp(x^2 lambda/(1-4z lambda)),
        # expanded in exact rationals from the binomial, geometric and
        # exponential series, each truncated after lambda^N
        sympy = pytest.importorskip("sympy")
        x, z, lam = sympy.symbols("x z lam")
        N = 12

        def series(expr):
            p = sympy.Poly(expr, lam, x, z, domain=sympy.QQ)
            return sympy.Poly.from_dict(
                {m: c for m, c in p.as_dict().items() if m[0] <= N}, lam, x, z,
                domain=sympy.QQ,
            )

        half = sum(
            sympy.binomial(sympy.Rational(-1, 2), k) * (-4 * z * lam) ** k
            for k in range(N + 1)
        )
        w = series(x**2 * lam * sum((4 * z * lam) ** i for i in range(N + 1)))
        exp_w, w_j = series(1), series(1)
        for j in range(1, N + 1):
            w_j = series(w_j * w)
            exp_w += w_j * sympy.Rational(1, sympy.factorial(j))
        want = series(series(half) * exp_w).as_dict()
        got = hermite_lacunary_closed(2, N)
        for n in range(N + 1):
            c = got.coeffs[n]
            assert c.vars == ("x", "z") and all(
                v.sqrt_pi_pow == 0 for v in c.terms.values()
            ), n
            assert {k: v.rat for k, v in c.terms.items()} == {
                (a, b): Fraction(int(q.numerator), int(q.denominator))
                for (k, a, b), q in want.items()
                if k == n
            }, n


class TestSjClosed:
    @pytest.mark.parametrize("K", [2, 3, 4])
    def test_equals_oracle(self, K):
        assert verify.lacunary_closed([("sj", K, 4)]) is None

    def test_rows(self, golden):
        s2 = sj_lacunary_closed(2, 2)
        assert s2.coeffs[1] == golden[("sj", 2)]
        assert s2.coeffs[2] == golden[("sj", 4)] * Fraction(1, 2)
        s3 = sj_lacunary_closed(3, 1)
        assert s3.coeffs[1] == golden[("sj", 3)]

    def test_k1_rejected(self):
        with pytest.raises(ParamError):
            sj_lacunary_closed(1, 3)


class TestPrintedConventions:
    """The printed parameter lists disagree with their own derivation in
    two places; the oracle arbitrates (see the decisions ledger).
    """

    def test_corrected_conventions_match_oracle(self):
        for K in (2, 3, 4):
            got = sj_lacunary_closed_printed(
                K, 4, even_beta_doubled=True, odd_beta_start=0
            )
            assert got == oracle("sj", K, 0, 4), K

    def test_even_k2_agrees_either_way(self):
        # a single even cell (beta = 0) makes both parameter variants equal
        assert sj_lacunary_closed_printed(2, 4) == oracle("sj", 2, 0, 4)

    def test_odd_beta_start_one_misses_oracle(self):
        got = sj_lacunary_closed_printed(3, 2, odd_beta_start=1)
        assert got != oracle("sj", 3, 0, 2)

    def test_even_undoubled_beta_misses_oracle(self):
        got = sj_lacunary_closed_printed(4, 3, even_beta_doubled=False,
                                         odd_beta_start=0)
        assert got != oracle("sj", 4, 0, 3)


class TestHermiteShift:
    @pytest.mark.parametrize("K", [2, 3])
    @pytest.mark.parametrize("L", [0, 1, 2, 3])
    def test_slices_equal_oracle(self, K, L):
        assert verify.lacunary_shifts([("hermite", K, 3, 3, L)]) is None

    def test_mu_zero_is_unshifted(self):
        gen = hermite_lacunary_shift(2, 2, 4)
        assert mu_slice(gen, 0) == hermite_lacunary_closed(2, 4)

    def test_specific_values(self, golden):
        gen = hermite_lacunary_shift(2, 1, 2)
        assert mu_slice(gen, 1).coeffs[1] == golden[("hermite", 3)]
        gen3 = hermite_lacunary_shift(3, 2, 1)
        assert mu_slice(gen3, 2).coeffs[0] == golden[("hermite", 2)]


class TestSjShiftGen:
    def test_mu_zero_matches_closed(self):
        for K in (2, 3):
            gen = lookup("sj").image_of(hermite_lacunary_shift(K, 0, 4))
            assert mu_slice(gen, 0) == sj_lacunary_closed(K, 4)

    def test_specific_values(self, golden):
        gen = lookup("sj").image_of(hermite_lacunary_shift(2, 1, 1))
        sliced = mu_slice(gen, 1)
        assert sliced.coeffs[0] == golden[("sj", 1)]
        assert sliced.coeffs[1] == golden[("sj", 3)]

    @pytest.mark.parametrize("K", [1, 2, 3, 4])
    @pytest.mark.parametrize("L", [0, 1, 2, 3])
    def test_slices_equal_oracle(self, K, L):
        # (mu_order, order) = (3, 3), then the sizes `lacunary --L L` uses
        # at family degree 16 (K * order + L <= 16)
        sizes = [(3, 3)] + ([(L, (16 - L) // K)] if L else [])
        assert verify.lacunary_shifts(
            ("sj", K, mu_order, order, L) for mu_order, order in sizes) is None


# (K, L) at every size series-warm sends (family degree 16), then shapes
# whose full mu-generator is too slow to build
SLICE_SIZES = [(K, L, (16 - L) // K) for K in (1, 2, 3, 4) for L in (0, 1, 2, 3)]
SLICE_SIZES += [(1, 1, 63), (1, 32, 32), (2, 20, 22), (4, 3, 15)]


class TestShiftSlice:
    @pytest.mark.parametrize("family", ["hermite", "sj"])
    @pytest.mark.parametrize("K, L, order", SLICE_SIZES)
    def test_slice_equals_oracle(self, family, K, L, order):
        assert verify.lacunary_slices([(family, K, L, order)]) is None

    @pytest.mark.parametrize("family", ["hermite", "sj"])
    @pytest.mark.parametrize("K, L, order", SLICE_SIZES)
    def test_integer_pass_agrees_with_poly_composition(self, family, K, L, order):
        case = family, K, L, order
        assert verify.lacunary_slices([case]) == reference_slices(*case) is None


def _break_closed_form(monkeypatch, k):
    """Make the closed form's kernel add 1 to its lambda^k coefficient."""
    real = lacunary._closed_nums

    def broken(K, order):
        rows = real(K, order)
        den, nums = rows[k]
        nums[(0, 0)] = nums.get((0, 0), 0) + den
        return rows

    monkeypatch.setattr(lacunary, "_closed_nums", broken)


def _break_raise(monkeypatch, k):
    """Make the raising step add 1 to one numerator of the degree-k input."""
    real = lacunary._raise_nums

    def broken(nums, L):
        out = dict(real(nums, L))
        if any(sum(e) == k for e in nums):
            out[min(out)] = out.get(min(out), 0) + 1
        return out

    monkeypatch.setattr(lacunary, "_raise_nums", broken)


def _break_image(monkeypatch, k):
    """Make the (-1,-1) image add 1 to its numerator of the lowest power of
    x at or above x^k."""
    real = connect._image_grade

    def broken(vars, den, nums):
        vars, den, image = real(vars, den, nums)
        high = [e for e in image if e[0] >= k]
        if high:
            image[min(high)] += 1
        return vars, den, image

    monkeypatch.setattr(connect, "_image_grade", broken)


class TestSliceMutations:
    # each mutation reaches both the integer pass and the Poly composition,
    # which must report the same first lambda^k and the same text
    @pytest.mark.parametrize("family", ["hermite", "sj"])
    @pytest.mark.parametrize("K, L, order", [(1, 0, 6), (2, 1, 7), (3, 3, 4), (4, 2, 3),
                                             (2, 20, 22)])
    @pytest.mark.parametrize("mutate", [_break_closed_form, _break_raise, _break_image])
    def test_first_mismatch_agrees(self, monkeypatch, mutate, family, K, L, order):
        mutate(monkeypatch, order // 2 + 1)
        case = family, K, L, order
        got = verify.lacunary_slices([case])
        assert got == reference_slices(*case)
        if mutate is not _break_image or family == "sj":
            assert got.startswith("first mismatch at lambda^"), got


class TestHermiteRaise:
    def test_raising_steps_through_the_family(self):
        for n in range(25):
            for L in range(7):
                got = _hermite_raise(hermite_closed(n), L)
                want = hermite_closed(n + L)
                assert (got.vars, got.terms) == (want.vars, want.terms), (n, L)

    def test_cancelled_terms_are_dropped(self):
        # (x + 2z d/dx)(x^2 - 4z) = x^3 + 4xz - 4xz
        c = Poly(("x", "z"), {(2, 0): 1, (0, 1): -4})
        got = _hermite_raise(c, 1)
        assert (got.vars, got.terms) == (("x", "z"), {(3, 0): ExactScalar(1)})

    def test_zero_stays_zero(self):
        got = _hermite_raise(Poly.zero(("x", "z")), 3)
        assert (got.vars, got.terms) == (("x", "z"), {})


class TestOperatorRelation:
    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("L", [1, 2])
    def test_derivative_commutes_through_dilation(self, K, L):
        # (d/dl)^L after dilation == dilation after (d/dl)^(K L)
        for egf_fn in (hermite_egf, sj_egf):
            egf = egf_fn(24)
            lhs = lacunary_dilate(egf, K).lambda_derivative(L)
            rhs = lacunary_dilate(egf.lambda_derivative(K * L), K)
            order = min(lhs.order, rhs.order)
            assert lhs.coeffs[: order + 1] == rhs.coeffs[: order + 1], (K, L)


class TestCoeffBridge:
    def test_k1_plain(self):
        g, rhs = coeff_bridge_check(1, 0, 2, 0)
        assert g == rhs == ExactScalar(1)

    def test_k2_example(self):
        # both sides are the x^2 coefficient of the degree-6 polynomial
        g, rhs = coeff_bridge_check(2, 0, 2, 1)
        assert g == rhs
        assert g == ExactScalar(Fraction(5, 7))

    def test_vanishing_slots_agree(self):
        # odd x-power at even family degree: both sides vanish
        g, rhs = coeff_bridge_check(1, 0, 1, 1)
        assert g == rhs == ExactScalar(0)

    def test_sweep(self):
        for K in (1, 2):
            for L in (0, 1, 2):
                for r in range(4):
                    for m in range(4 - r):
                        g, rhs = coeff_bridge_check(K, L, r, m)
                        assert g == rhs, (K, L, r, m)


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_closed_form_coefficients_are_canonical(K):
    # _gather fills one dict per coefficient and Poly._over drops the zeros
    forms = [hermite_lacunary_closed(K, 6)]
    if K >= 2:
        forms += [sj_lacunary_closed(K, 6), sj_lacunary_closed_printed(K, 6)]
    for series in forms:
        for c in series.coeffs:
            assert_canonical(c)
