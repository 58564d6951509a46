import runpy
from fractions import Fraction
from functools import partial
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sjk import families, verify
from sjk.errors import ParamError
from sjk.families import (
    egf_beta_shifted,
    hermite_closed,
    hermite_egf,
    jacobi_classical,
    jacobi_family,
    jacobi_monic,
    sj_beta_family,
    sj_closed_beta,
    sj_closed_mm,
    sj_egf_coeff,
    sj_family,
    sj_umbral,
)
from sjk.opcalc import gp_series, jacobi_operator_apply
from sjk.poly import CoeffSeries, Poly
from sjk.scalar import ExactScalar, HalfInt, gamma_ratio, half, recip_gamma
from sjk.umbral import GenMonomial, GenSeries, itransform_scalar

from conftest import assert_canonical
from reference import binom_general, derivative, egf_beta_shifted_tricomi
from reference import hermite_exp, image_grade, matching_coeff, sj_beta_rescaled
from reference import image_poly, power, product, series_product, sj_egf_coeff_nums
from reference import substitute

H = Fraction(1, 2)
X = Poly.var("x")
# the (-1,-1) image of a Hermite polynomial: the sj row's image map
hermite_image = partial(image_poly, families._image_grade)
GRID = tuple(
    Fraction(v) for v in ("-1/2", "-1/3", "0", "1/3", "1/2", "1", "3/2", "2")
)
# every grid value once as alpha and once as beta
PAIRS = tuple(zip(GRID, GRID[3:] + GRID[:3]))
PAIR_IDS = [f"{a},{b}" for a, b in PAIRS]


class TestGolden:
    def test_sj_rows_match_resolvent(self, golden):
        for n in range(11):
            assert gp_series(n, -1, -1) == golden[("sj", n)], f"n={n}"

    def test_hermite_rows_match_closed_form(self, golden):
        for n in range(11):
            assert hermite_closed(n) == golden[("hermite", n)], f"n={n}"

    def test_loader_shape(self, golden):
        assert len(golden) == 22
        assert golden[("sj", 1)] == X
        assert golden[("hermite", 2)].scalar_coeff(z=1) == ExactScalar(2)


class TestJacobiClassical:
    def test_degree_zero(self):
        assert jacobi_classical(0, Fraction(3, 2), 7) == Poly.const(1)

    def test_legendre_p1(self):
        assert jacobi_classical(1, 0, 0) == X

    def test_eigenequation(self):
        n, a, b = 3, H, H
        p = jacobi_classical(n, a, b)
        assert jacobi_operator_apply(p, a, b) == p * (-Fraction(n) * (n + a + b + 1))

    def test_rejects_degenerate_params(self):
        with pytest.raises(ParamError):
            jacobi_classical(2, -1, 0)


class TestSjClosedMm:
    def test_degree_one_gamma(self):
        assert sj_closed_mm(1, 0) == X
        assert sj_closed_mm(1, Fraction(2, 3)) == X + Fraction(2, 3)

    def test_degree_five(self, golden):
        assert sj_closed_mm(5) == golden[("sj", 5)]

    def test_degree_zero(self):
        assert sj_closed_mm(0, Fraction(9, 7)) == Poly.const(1)


class TestSjClosedBeta:
    def test_degree_one(self):
        # the general sum gives x - 1 over ("x",); no special case
        for beta in (Fraction(0), H, Fraction(2), Fraction(-1, 3), -H, Fraction(7)):
            p = sj_closed_beta(1, beta)
            assert (p.vars, p.terms) == (("x",), (X - 1).terms), beta

    def test_degree_zero(self):
        assert sj_closed_beta(0, H) == Poly.const(1)

    @pytest.mark.parametrize(
        "beta", [Fraction(0), H, Fraction(2), Fraction(7, 2), Fraction(1, 3)]
    )
    def test_matches_resolvent_construction(self, beta):
        # the closed form stays rational for any rational beta
        for n in range(9):
            assert sj_closed_beta(n, beta) == gp_series(n, -1, beta), (n, beta)

    def test_degree_one_from_generic_formula(self):
        # the n >= 2 sum evaluated at n = 1 reproduces the special case
        for beta in (H, Fraction(3)):
            n = 1
            scale = 1 / binom_general(2 * n + beta - 1, n)
            out = Poly.zero(("x",))
            for k in range(n + 1):
                c = binom_general(n - 1, k) * binom_general(n + beta, n - k)
                out = out + product(power(X - 1, n - k), power(X + 1, k)) * c
            assert out * scale == sj_closed_beta(1, beta)

    def test_rejects_bad_beta(self):
        with pytest.raises(ParamError):
            sj_closed_beta(3, -1)


class TestHermiteClosed:
    def test_rows(self, golden):
        assert hermite_closed(6) == golden[("hermite", 6)]
        assert hermite_closed(0) == Poly.const(1)
        assert hermite_closed(7) == golden[("hermite", 7)]

    def test_matches_operational_form_up_to_30(self):
        for n in range(31):
            assert hermite_closed(n) == hermite_exp(n)


class TestMatchingCoeff:
    def test_values(self):
        assert matching_coeff(4, 1) == 12
        assert matching_coeff(7, 0) == 1
        assert matching_coeff(3, 2) == 0
        assert matching_coeff(2, -1) == 0


class TestSjUmbral:
    def test_rows(self, golden):
        assert sj_umbral(2) == golden[("sj", 2)]
        assert sj_umbral(6) == golden[("sj", 6)]
        assert sj_umbral(1) == X

    def test_one_term_coefficients_equal_scalar_products(self):
        # each GenMonomial coefficient is built as its one term; the result
        # equals the construction from the checked term over (x,) times two
        # scalar products, variables included (degree 0 is over x too)
        for n in range(31):
            terms = [
                GenMonomial(
                    Poly(("x",), {(n - 2 * m,): 1}) * Fraction(-1, 4) ** m
                    * matching_coeff(n, m),
                    u_exps={"u": HalfInt(2 * (n - m) - 1)},
                    v_exps={"v": HalfInt(2 * n - 1)},
                )
                for m in range(n // 2 + 1)
            ]
            want = itransform_scalar(GenSeries(terms, lambda_order=0))
            got = sj_umbral(n)
            assert (got.vars, got.terms) == (want.vars, want.terms), n
            assert_canonical(got)

    def test_hermite_image_equals_umbral(self):
        # the termwise map against the independent itransform route
        for n in range(31):
            assert hermite_image(hermite_closed(n)) == sj_umbral(n), n


class TestSjEgfCoeff:
    def test_small_orders(self, golden):
        assert sj_egf_coeff(0) == Poly.const(1)
        assert sj_egf_coeff(2) == golden[("sj", 2)] * H
        assert sj_egf_coeff(5) == golden[("sj", 5)] * Fraction(1, 120)

    def test_equals_image_of_hermite_coefficient(self):
        for N in range(65):
            got = sj_egf_coeff(N)
            want = hermite_image(families._hermite_over(N, factorial(N)))
            assert got.vars == want.vars == ("x",) and got.terms == want.terms, N
            assert_canonical(got)

    def test_stores_the_per_term_integers(self):
        # the running product against one image weight per term, reduced
        for N in range(65):
            want = Poly._over(("x",), 0, *sj_egf_coeff_nums(N))
            assert sj_egf_coeff(N)._integers() == want._integers(), N

    def test_equals_umbral_over_factorial(self):
        for N in range(13):
            assert sj_egf_coeff(N) == sj_umbral(N) * Fraction(1, factorial(N))

    def test_is_the_family_over_factorial(self):
        # one chain read over N! and over 1
        for N in range(1, 65):
            got, want = sj_egf_coeff(N), sj_family(N) * Fraction(1, factorial(N))
            assert (got.vars, got.terms) == (want.vars, want.terms), N


class TestHermiteStructure:
    def test_ladder_identities(self):
        for n in range(2, 21):
            h = hermite_closed(n)
            dxx = derivative(derivative(h, "x"), "x")
            dz = derivative(h, "z")
            assert dxx == dz
            assert dxx == hermite_closed(n - 2) * Fraction(n * (n - 1))

    def test_egf_against_exponential(self):
        order = 15
        ex = CoeffSeries.build(
            lambda k: Poly.var("x", k) * Fraction(1, factorial(k)), order
        )
        ez = CoeffSeries.build(
            lambda k: (
                Poly.var("z", k // 2) * Fraction(1, factorial(k // 2))
                if k % 2 == 0
                else Poly.zero()
            ),
            order,
        )
        assert series_product(ex, ez) == hermite_egf(order)


class TestBetaShiftedEgf:
    def test_order_zero_beta_zero(self):
        s = egf_beta_shifted(0, 0)
        assert s.coeffs[0] == X - 1

    def test_lambda_zero_matches_rescaled_p1(self):
        for beta in (Fraction(0), H):
            s = egf_beta_shifted(0, beta)
            assert s.coeffs[0] == sj_beta_rescaled(1, beta)

    @pytest.mark.parametrize("beta", [Fraction(0), H])
    def test_order_six_against_defining_sum(self, beta):
        got = egf_beta_shifted(6, beta)
        for n in range(7):
            want = sj_beta_rescaled(n + 1, beta) * Fraction(1, factorial(n))
            assert got.coeffs[n] == want, (beta, n)

    def test_halfodd_scale_carries_inverse_sqrt_pi(self):
        s = egf_beta_shifted(1, H)
        for exps, c in s.coeffs[0].terms.items():
            assert c.sqrt_pi_pow == -1

    def test_rejects_bad_beta(self):
        with pytest.raises(ParamError):
            egf_beta_shifted(3, Fraction(-3, 2))
        with pytest.raises(ParamError):
            egf_beta_shifted(3, Fraction(1, 3))

    @pytest.mark.parametrize("fn", [egf_beta_shifted, egf_beta_shifted_tricomi])
    def test_bad_beta_messages(self, fn):
        with pytest.raises(ParamError, match=r"^needs beta > -1, got -3/2$"):
            fn(3, Fraction(-3, 2))
        with pytest.raises(
            ParamError, match=r"^exact evaluation needs half-integer beta, got 1/3$"
        ):
            fn(3, Fraction(1, 3))

    @pytest.mark.parametrize("beta", ["-1/2", "0", "3/2", "1999/2"])
    def test_equals_scaled_monic_family(self, beta):
        # the scale is folded into each term's one Fraction: it must equal
        # the monic polynomial times the scale, term for term and in grade
        beta = Fraction(beta)
        s = egf_beta_shifted(12, beta)
        for n, c in enumerate(s.coeffs):
            scale = ExactScalar(
                binom_general(2 * n + beta + 1, n + 1) / factorial(n)
            ) * recip_gamma(half(beta) + (n + 2))
            want = jacobi_monic(n + 1, -1, beta) * scale
            assert (c.vars, c.terms) == (want.vars, want.terms), (beta, n)
            assert_canonical(c)

    def test_one_scalar_product_per_coefficient(self, monkeypatch):
        calls = []
        mul = ExactScalar.__mul__
        monkeypatch.setattr(
            ExactScalar, "__mul__", lambda a, b: calls.append(1) or mul(a, b)
        )
        s = egf_beta_shifted(16, H)
        assert sum(len(c.terms) for c in s.coeffs) > 150
        assert len(calls) == 17

    @pytest.mark.parametrize("beta", ["-1/2", "0", "1/2", "1", "3/2", "3"])
    def test_equals_tricomi_product(self, beta):
        for order in (0, 1, 8):
            got = egf_beta_shifted(order, Fraction(beta))
            want = egf_beta_shifted_tricomi(order, Fraction(beta))
            assert got.order == want.order == order
            for g, w in zip(got.coeffs, want.coeffs):
                assert (g.vars, g.terms) == (w.vars, w.terms), (beta, order)


def test_family_sources_are_stable():
    assert sj_family(4).scalar_coeff(x=2) == ExactScalar(Fraction(-6, 5))
    assert sj_family(1) == X  # gamma fixed to zero


def test_benchmark_family_caches_exist():
    # perfbench clears and fills these caches by name and skips a name it
    # cannot find, so a rename in families would change its workloads
    mix = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "mix.py"))
    assert mix["FAMILY_CACHES"]
    for name in mix["FAMILY_CACHES"]:
        fn = getattr(families, name, None)
        assert fn is not None and fn.__module__ == families.__name__, name
        assert callable(fn.cache_clear) and callable(fn.cache_info), name


class TestCoefficientRecurrence:
    """The O(n) recurrence serves the classical and (-1, beta) families in
    production, and at (-1, -1) is a cross-check of the image chain; the
    closed forms are the reference of both.  JSON output prints Poly.vars,
    so those must agree too."""

    def test_sj_family_equals_closed_form(self):
        assert verify.recurrence(range(25), [(-1, -1)]) is None

    def test_sj_recurrence_equals_closed_form(self):
        # the recurrence no production path runs at (-1, -1); degree 0 is
        # over x, as every degree is
        for n in range(65):
            got, want = jacobi_monic(n, -1, -1), sj_closed_mm(n)
            assert (got.vars, got) == (want.vars, want), n
        assert jacobi_monic(0, -1, -1).vars == ("x",)

    @pytest.mark.parametrize("beta", GRID, ids=str)
    def test_sj_beta_family_equals_closed_form(self, beta):
        assert verify.recurrence(range(25), [(-1, beta)]) is None

    @pytest.mark.parametrize("alpha", GRID, ids=str)
    def test_jacobi_family_equals_closed_form_on_grid(self, alpha):
        assert verify.recurrence(range(13), [(alpha, beta) for beta in GRID]) is None

    @pytest.mark.parametrize("alpha, beta", PAIRS, ids=PAIR_IDS)
    def test_jacobi_family_equals_closed_form_to_24(self, alpha, beta):
        assert verify.recurrence(range(13, 25), [(alpha, beta)]) is None

    @pytest.mark.parametrize(
        "alpha, beta",
        [(Fraction(7, 11), Fraction(-5, 13)), (-1, Fraction(9, 17)),
         (Fraction(-1, 7), Fraction(-1, 7))],
        ids=str,
    )
    def test_coprime_denominators(self, alpha, beta):
        # q = lcm(den alpha, den beta) is 143, 17 and 7, past the grid's 6
        assert verify.recurrence([*range(41), 64], [(alpha, beta)]) is None
        for n in (1, 2, 17, 40, 64):
            p = jacobi_monic(n, alpha, beta)
            assert_canonical(p)
            assert p.vars == ("x",) and p.scalar_coeff(x=n) == ExactScalar(1)

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 24),
        st.sampled_from([
            (-1, -1), (Fraction(7, 11), Fraction(-5, 13)), (-1, Fraction(9, 2)),
        ]),
        st.fractions(max_denominator=10**30).filter(bool),
        st.integers(-3, 3),
    )
    def test_lead_scales_every_term(self, n, params, lead, grade):
        lead = ExactScalar(lead, grade)
        got = jacobi_monic(n, *params, lead)
        want = jacobi_monic(n, *params) * lead
        assert (got.vars, got.terms) == (want.vars, want.terms)
        assert_canonical(got)

    def test_rejects_bad_params(self):
        with pytest.raises(ParamError):
            jacobi_monic(2, Fraction(-3, 2), 0)
        with pytest.raises(ParamError):
            jacobi_monic(-1, 0, 0)
        with pytest.raises(ParamError, match="needs beta > -1"):
            sj_beta_family(2, -1)
        with pytest.raises(ParamError, match="classical Jacobi"):
            jacobi_family(2, -1, 0)
        with pytest.raises(ParamError, match="degree must be >= 0"):
            sj_family(-1)
        with pytest.raises(ParamError, match="order must be >= 0"):
            sj_egf_coeff(-1)

    def test_eigenequation_at_cap(self):
        n = 64
        cases = [(sj_family(n), -1, -1)]
        cases += [(sj_beta_family(n, b), -1, b) for b in (Fraction(0), H)]
        cases += [(jacobi_family(n, a, b), a, b) for a, b in PAIRS[:3]]
        for p, a, b in cases:
            assert p.vars == ("x",) and max(p.terms) == (n,)
            want = p * (-Fraction(n) * (n + a + b + 1))
            assert jacobi_operator_apply(p, a, b) == want, (a, b)


def _sympy_terms(sympy, expr, x):
    """Exponent of x -> Fraction coefficient of a sympy polynomial in x."""
    return {
        k: Fraction(int(c.p), int(c.q)) for (k,), c in sympy.Poly(expr, x).terms()
    }


def _x_terms(p: Poly, n: int):
    """Exponent of x -> Fraction coefficient of a Poly in x of degree <= n."""
    coeffs = {k: p.scalar_coeff(x=k) for k in range(n + 1)}
    return {k: c.rat for k, c in coeffs.items() if c}


def test_sj_family_against_sympy_jacobi():
    # Szego (4.22.2): the (-1,-1) member of degree n is (x^2-1) P_{n-2}^{(1,1)}
    # up to a constant factor
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(2, 41):
        want = sympy.Poly((x**2 - 1) * sympy.jacobi(n - 2, 1, 1, x), x).monic()
        assert _x_terms(sj_family(n), n) == _sympy_terms(sympy, want.as_expr(), x), n


def test_hermite_closed_against_sympy_hermite():
    # DLMF 18.5: H_n(x) = sum_m n! / ((n-2m)! m!) (2x)^(n-2m) (-1)^m
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    for n in range(41):
        got = substitute(hermite_closed(n), "x", X * 2).substitute("z", -1)
        want = _sympy_terms(sympy, sympy.hermite(n, x), x)
        assert _x_terms(got, n) == want, n


def test_hermite_egf_against_sympy_exponential():
    # exp(x lambda + z lambda^2) = sum_n H_n(x, z) lambda^n / n!
    sympy = pytest.importorskip("sympy")
    x, z, lam = sympy.symbols("x z lam")
    order = 24
    series = sympy.expand(
        sympy.series(sympy.exp(x * lam + z * lam**2), lam, 0, order + 1).removeO()
    )
    got = hermite_egf(order)
    for n in range(order + 1):
        want = {
            k: Fraction(int(c.p), int(c.q))
            for k, c in sympy.Poly(series.coeff(lam, n), x, z).terms()
        }
        c = got.coeffs[n]
        assert c.vars == ("x", "z"), n
        assert {k: v.rat for k, v in c.terms.items()} == want, n


def test_hermite_path_against_the_matching_numbers():
    # H_n, its EGF coefficient and its (-1,-1) image, built from integer
    # ratios, against matching_coeff and the H_n / n! route, n <= 64
    egf = hermite_egf(64)
    for n in range(65):
        h = hermite_closed(n)
        assert h.vars == ("x", "z")
        assert h.terms == {
            (n - 2 * m, m): matching_coeff(n, m) for m in range(n // 2 + 1)}
        inv = Fraction(1, factorial(n))
        assert egf.coeffs[n].vars == ("x", "z") and egf.coeffs[n] == h * inv, n
        sj = sj_egf_coeff(n)
        assert sj.vars == ("x",) and sj == hermite_image(h) * inv, n
        for p in (h, egf.coeffs[n], sj):
            assert_canonical(p)


def _image_weight(a, m):
    """(-1/4)^m Gamma(a+m-1/2)/Gamma(a+2m-1/2), through gamma_ratio."""
    g = gamma_ratio(HalfInt(2 * (a + m) - 1), HalfInt(2 * (a + 2 * m) - 1))
    return g * Fraction(-1, 4) ** m


def test_hermite_image_weight_grid():
    for a in range(65):
        for m in range(33):
            got = hermite_image(Poly(("x", "z"), {(a, m): 1}))
            assert got.vars == ("x",), (a, m)
            assert got.terms == {(a,): _image_weight(a, m)}, (a, m)


def _image_reference(p):
    """hermite_image as the termwise gamma-ratio formula, summed through
    the checking constructor."""
    rest = tuple(v for v in p.vars if v != "z")
    out = {}
    for exps, c in p.terms.items():
        e = dict(zip(p.vars, exps))
        key = tuple(e[v] for v in rest)
        weight = _image_weight(e.get("x", 0), e.get("z", 0))
        out[key] = out.get(key, ExactScalar(0)) + c * weight
    return Poly(rest, out)


class TestHermiteImageTerms:
    def test_colliding_terms_cancel(self):
        # mu^2 x and 6 mu^2 x z both land on mu^2 x, with weights 1 and -1/6
        p = Poly(("mu", "x", "z"), {
            (2, 1, 0): 1, (2, 1, 1): 6, (1, 3, 2): Fraction(-2, 5),
            (0, 0, 3): 7, (3, 2, 0): Fraction(1, 3),
        }) * ExactScalar(1, 1)
        got = hermite_image(p)
        assert got.vars == ("mu", "x")
        assert (2, 1) not in got.terms and len(got.terms) == 3
        assert got.terms == _image_reference(p).terms
        assert_canonical(got)

    def test_cross_grade_collision_refused(self):
        # x z and x would both land on x, but no Poly holds two sqrt(pi)
        # powers: the source itself is refused
        with pytest.raises(ValueError, match=r"different powers of sqrt\(pi\)"):
            Poly(("x", "z"), {(1, 1): ExactScalar(6, 1), (1, 0): ExactScalar(1)})
        # the grade is kept as it is
        got = hermite_image(Poly(("x", "z"), {(1, 1): ExactScalar(6, 1)}))
        assert got.terms == {(1,): ExactScalar(-1, 1)}

    @pytest.mark.parametrize("vars", [
        ("mu", "x", "z"), ("z", "x", "mu"), ("x", "z"), ("z", "x"), ("x",), ("z",),
        ("mu",),
    ])
    def test_random_polys(self, rng, vars):
        for _ in range(25):
            terms = {
                tuple(rng.randint(0, 6) for _ in vars):
                    Fraction(rng.randint(-9, 9), rng.randint(1, 9))
                for _ in range(rng.randint(0, 8))
            }
            p = Poly(vars, terms)
            got, want = hermite_image(p), _image_reference(p)
            assert got.vars == want.vars and got.terms == want.terms
            assert_canonical(got)


# the variable tuples of the image column: the lacunary check carries
# lambda, the shifted forms mu, and a coefficient alone has x and z
IMAGE_VARS = (("lambda", "x", "z"), ("mu", "x", "z"), ("x", "z"), ("x",), ("z",))


def _assert_same_triple(vars, den, nums):
    # the same vars, den and numerators, key for key in the same order
    got, want = families._image_grade(vars, den, nums), image_grade(vars, den, nums)
    assert got == want
    assert list(got[2].items()) == list(want[2].items())


@pytest.mark.parametrize("vars", IMAGE_VARS)
def test_image_grade_is_the_per_term_triple(rng, vars):
    # each call has a zero numerator at the sum a + 2m = 0, a term at
    # another sum, and random terms, some on one key once z is dropped
    for _ in range(40):
        nums = {(0,) * len(vars): 0, (1,) * len(vars): rng.randint(1, 10**30)}
        for _ in range(rng.randint(0, 20)):
            e = tuple(rng.randint(0, 8) for _ in vars)
            nums[e] = rng.choice((0, rng.randint(-(10**30), 10**30)))
        _assert_same_triple(vars, rng.randint(1, 10**20), nums)
    _assert_same_triple(vars, 7, {})


# integer numerators and denominators of the size the closed forms make
BIG = st.integers(-(2**128 - 1), 2**128 - 1)


@settings(max_examples=60, deadline=None)
@given(data=st.data(), n=st.integers(0, 24), den=BIG.filter(bool))
def test_binomial_basis_sum_matches_power_products(data, n, den):
    # the integer Horner sum against the Poly products it replaced
    nums = data.draw(st.lists(st.one_of(st.just(0), BIG),
                              min_size=n + 1, max_size=n + 1))
    got = families._binomial_basis_sum(n, nums, den)
    want = Poly.sum((
        product(power(X - 1, n - k), power(X + 1, k)) * m
        for k, m in enumerate(nums) if m
    ), ("x",)) * Fraction(1, den)
    assert got == want and got.vars == ("x",)
    assert_canonical(got)


@pytest.mark.parametrize("call", [
    lambda: jacobi_monic(3, 0.5, 0),
    lambda: jacobi_monic(3, 0, 0.5),
    lambda: jacobi_family(3, 0.5, 0),
    lambda: jacobi_classical(3, 0, 0.5),
    lambda: sj_beta_family(3, 0.5),
    lambda: sj_closed_beta(3, 0.5),
    lambda: sj_beta_rescaled(3, 0.5),
    lambda: sj_closed_mm(1, 0.5),
    lambda: binom_general(0.5, 3),
    lambda: egf_beta_shifted(3, 0.5),
    lambda: gp_series(3, -1, 0.5),
    lambda: jacobi_operator_apply(Poly.var("x", 2), 0.5, 0),
], ids=[
    "jacobi_monic-alpha", "jacobi_monic-beta", "jacobi_family", "jacobi_classical",
    "sj_beta_family", "sj_closed_beta", "sj_beta_rescaled", "sj_closed_mm-gamma",
    "binom_general", "egf_beta_shifted", "gp_series", "jacobi_operator_apply",
])
def test_float_parameter_refused(call):
    # a float's binary value is not the decimal one written: 0.1 would be
    # read as 3602879701896397/2^55
    with pytest.raises(TypeError, match="cannot interpret 0.5 as an exact rational"):
        call()
