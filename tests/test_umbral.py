import logging
import random
from fractions import Fraction
from math import comb

import pytest

from sjk import verify
from sjk.errors import DomainError
from sjk.poly import Poly
from sjk.scalar import ExactScalar, HalfInt, beta_fn
from sjk.umbral import (
    GenMonomial,
    GenSeries,
    itransform,
    itransform_scalar,
)

from conftest import as_scalar
from reference import expand_exponential, gen_product, monomial, series_product

H = Fraction(1, 2)


def const_series(*terms, lam=None, mu=None):
    return GenSeries(list(terms), lambda_order=lam, mu_order=mu)


class TestItransform:
    def test_pochhammer_image(self):
        # u^(a+n) v^a at a = 1/2, n = 2 -> (1/2)_2 = 3/4
        t = GenMonomial(1, u_exps={"u": Fraction(5, 2)}, v_exps={"v": H})
        assert itransform_scalar(const_series(t, lam=0)) == Poly.const(
            Fraction(3, 4)
        )

    def test_bessel_j0_truncation(self):
        assert verify.bessel_image([0], [4]) is None

    def test_domain_error_on_bad_u(self):
        t = GenMonomial(1, u_exps={"u": -3})
        with pytest.raises(DomainError):
            itransform(const_series(t, lam=0))

    def test_v_zero_drops_term(self, caplog):
        # 1/Gamma at a non-positive integer kills the whole term; _weight
        # makes a debug record of it, importing logging only there
        t = GenMonomial(1, v_exps={"v": -1})
        with caplog.at_level(logging.DEBUG, logger="sjk.umbral"):
            assert not itransform_scalar(const_series(t, lam=0))
        assert [(r.name, r.levelno, r.getMessage()) for r in caplog.records] == [
            ("sjk.umbral", logging.DEBUG,
             f"term {t!r} vanishes: v-exponent at a 1/Gamma zero")]

    def test_lambda_and_mu_bookkeeping(self):
        t = GenMonomial(Poly.var("x"), lambda_pow=2, mu_pow=1)
        out = itransform(const_series(t, lam=3))
        assert out.order == 3
        assert out.coeffs[2] == monomial(1, x=1, mu=1)


class TestGenProduct:
    def test_disjoint_gammas_multiply(self):
        s1 = const_series(GenMonomial(1, u_exps={"u1": H}), lam=0)
        s2 = const_series(GenMonomial(1, u_exps={"u2": H}), lam=0)
        prod = gen_product(s1, s2)
        # Gamma(1/2)^2 = pi
        assert itransform_scalar(prod) == Poly.const(ExactScalar(1, 2))

    def test_empty_series(self):
        s = const_series(GenMonomial(1, u_exps={"u": H}), lam=0)
        empty = GenSeries([], lambda_order=0)
        assert gen_product(empty, s).terms == []

    def test_multiplicativity_50_random_disjoint(self):
        rng = random.Random(99)

        def rand_series(uname, vname, marker, lam_top):
            # one parity of twice the u and of twice the v exponent per
            # series, so that every weight has one sqrt(pi) grade
            terms = []
            up, vp = rng.randint(0, 1), rng.randint(0, 1)
            for i in range(rng.randint(1, 3)):
                while True:
                    ut = 2 * rng.randint(-3, 4) + up
                    if not (ut % 2 == 0 and ut <= 0):
                        break
                vt = 2 * rng.randint(-3, 4) + vp
                terms.append(
                    GenMonomial(
                        Poly.var(marker, i)
                        * Fraction(rng.randint(-5, 5), rng.randint(1, 5)),
                        u_exps={uname: HalfInt(ut)},
                        v_exps={vname: HalfInt(vt)},
                        lambda_pow=rng.randint(0, lam_top),
                    )
                )
            return GenSeries(terms, lambda_order=lam_top)

        for _ in range(50):
            s1 = rand_series("u1", "v1", "x", 3)
            s2 = rand_series("u2", "v2", "y", 3)
            want = series_product(itransform(s1), itransform(s2))
            assert itransform(gen_product(s1, s2)) == want


class TestExpandExponential:
    def test_lambda_graded(self):
        base = GenMonomial(
            Poly.var("x"), u_exps={"u": 1}, v_exps={"v": 1}, lambda_pow=1
        )
        s = expand_exponential(base, 2)
        assert len(s.terms) == 3
        assert s.lambda_order == 2
        quad = [t for t in s.terms if t.lambda_pow == 2][0]
        assert quad.coeff == Poly.var("x", 2) * H
        assert dict(quad.u_exps)["u"] == HalfInt(4)

    def test_lambda_squared_grading(self):
        base = GenMonomial(
            Poly.var("y", 2) * Fraction(-1, 4),
            u_exps={"u": 1},
            v_exps={"v": 2},
            lambda_pow=2,
        )
        s = expand_exponential(base, 1)
        assert len(s.terms) == 2
        assert {t.lambda_pow for t in s.terms} == {0, 2}

    def test_rejects_ungraded_base(self):
        with pytest.raises(ValueError, match="no lambda/mu grading"):
            expand_exponential(GenMonomial(Poly.var("x")), 3)


class TestBesselFamily:
    @pytest.mark.parametrize("n", range(4))
    @pytest.mark.parametrize("top", [3, 6])
    def test_cylindrical_images(self, n, top):
        assert verify.bessel_image([n], [top]) is None


class TestBetaIdentities:
    def test_difference_expansion_vs_beta(self):
        rng = random.Random(7)
        for n in range(6):
            for _ in range(8):
                a = HalfInt(rng.randint(1, 25))
                b = HalfInt(rng.randint(1, 25))
                terms = [
                    GenMonomial(
                        Fraction((-1) ** k * comb(n, k)),
                        u_exps={"u1": a + k, "u2": b},
                        v_exps={"v": a + b + k},
                    )
                    for k in range(n + 1)
                ]
                got = as_scalar(itransform_scalar(const_series(*terms, lam=0)))
                assert got == beta_fn(a, b + n)


class TestAppendixIdentities:
    @pytest.mark.parametrize("p", [1, 2, 3])
    @pytest.mark.parametrize("twice_n", [1, 3, 4])
    def test_null_identity(self, p, twice_n):
        assert verify.null_identity([p], [twice_n]) is None

    @pytest.mark.parametrize("twice_n", [1, 3, 4])
    def test_unit_identity(self, twice_n):
        assert verify.unit_identity([twice_n]) is None


def test_tricomi_factorization_step():
    # the independence of the two v-integrations in the product EGF:
    # I(v1^2 v2^(b+1) e^(l v1 (x-1)) e^(l v2 (x+1)))
    #   == I(v1^2 e^(l v1 (x-1))) * I(v2^(b+1) e^(l v2 (x+1)))
    beta = H
    order = 5
    e1 = expand_exponential(
        GenMonomial(Poly.var("x") - 1, v_exps={"v1": 1}, lambda_pow=1), order
    )
    e2 = expand_exponential(
        GenMonomial(Poly.var("x") + 1, v_exps={"v2": 1}, lambda_pow=1), order
    )
    m1 = const_series(GenMonomial(1, v_exps={"v1": 2}), lam=order)
    m2 = const_series(GenMonomial(1, v_exps={"v2": beta + 1}), lam=order)
    joint = gen_product(gen_product(m1, e1), gen_product(m2, e2))
    lhs = itransform(joint)
    rhs = series_product(itransform(gen_product(m1, e1)),
                         itransform(gen_product(m2, e2)))
    assert lhs == rhs
