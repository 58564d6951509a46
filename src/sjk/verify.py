"""Named verification suites behind the command-line `verify` verb.

A suite is a list of (label, fn) pairs.  Each fn re-derives an identity at
desk scale and returns a counterexample string on failure, None on success.
These are quick spot checks; the full sweep lives in the test suite.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction

from . import connect, families, hyper, lacunary, opcalc, scalar, umbral
from .poly import Poly
from .scalar import ExactScalar, HalfInt


def _suite_scalar():
    def pascal():
        rng = random.Random(7)
        for _ in range(20):
            a = HalfInt(rng.randrange(1, 20))
            b = HalfInt(rng.randrange(1, 20))
            lhs = scalar.beta_fn(a, b)
            rhs = scalar.beta_fn(a + 1, b) + scalar.beta_fn(a, b + 1)
            if lhs != rhs:
                return f"B({a},{b}) != B({a}+1,{b}) + B({a},{b}+1)"

    def ratio_poch():
        for twice in range(1, 12):
            a = HalfInt(twice)
            for n in range(8):
                if scalar.gamma_ratio(a + n, a) != ExactScalar(
                    scalar.pochhammer(a, n)
                ):
                    return f"gamma_ratio({a}+{n},{a}) != ({a})_{n}"

    def duplication():
        for twice in range(1, 16):
            z = HalfInt(twice)
            lhs = scalar.gamma_half(z * 2)
            rhs = (
                ExactScalar(Fraction(2) ** (twice - 1), -1)
                * scalar.gamma_half(z)
                * scalar.gamma_half(z + Fraction(1, 2))
            )
            if lhs != rhs:
                return f"duplication fails at z={z}"

    return [
        ("beta Pascal identity", pascal),
        ("gamma ratio telescopes to Pochhammer", ratio_poch),
        ("Legendre duplication at half-integers", duplication),
    ]


def _suite_opcalc():
    def table_rows():
        for n in (2, 3, 4, 5, 8):
            if opcalc.gp_series(n, -1, -1) != families.sj_closed_mm(n, 0):
                return f"resolvent vs closed form differ at n={n}"

    def recurrence():
        a, b = Fraction(1, 2), Fraction(-1, 3)
        for n in range(6):
            if families.sj_family(n) != families.sj_closed_mm(n, 0):
                return f"(-1,-1) recurrence vs closed form differ at n={n}"
            if families.sj_beta_family(n, a) != families.sj_closed_beta(n, a):
                return f"(-1,{a}) recurrence vs closed form differ at n={n}"
            if families.jacobi_family(n, a, b) != families.jacobi_classical(n, a, b):
                return f"Jacobi recurrence vs closed form differ at n={n}"

    def eigen():
        for n in range(13):
            p = opcalc.gp_series(n, -1, -1)
            lhs = (Poly.const(1) - Poly.var("x", 2)) * p.derivative("x").derivative("x")
            if lhs != p * Fraction(-n * (n - 1)):
                return f"eigenequation fails at n={n}"

    def four_way():
        for n in range(13):
            a = opcalc.gp_series(n, -1, -1)
            b = opcalc.exp_resolvent_sj(n)
            c = families.sj_umbral(n)
            d = opcalc.exp_B_bivariate(n).substitute("y", 1)
            if not (a == b == c == d):
                return f"constructions disagree at n={n}"

    return [
        ("resolvent equals closed form", table_rows),
        ("coefficient recurrence equals closed forms", recurrence),
        ("(1-x^2) d^2 eigenequation", eigen),
        ("four-way construction equality", four_way),
    ]


def _suite_umbral():
    def bessel():
        from math import factorial

        for n in range(3):
            r_top = 4
            terms = []
            for r in range(r_top + 1):
                coeff = Poly.var("x", n + 2 * r) * Fraction(
                    (-1) ** r, factorial(r) * 2 ** (n + 2 * r)
                )
                terms.append(umbral.GenMonomial(coeff, v_exps={"v": n + r + 1}))
            got = umbral.itransform_scalar(umbral.GenSeries(terms, lambda_order=0))
            want = Poly.sum((
                Poly.var("x", n + 2 * r) * Fraction(
                    (-1) ** r, factorial(n + r) * factorial(r) * 2 ** (n + 2 * r)
                )
                for r in range(r_top + 1)
            ), ("x",))
            if got != want:
                return f"Bessel image truncation fails at n={n}"

    def appendix_null():
        for p in (1, 2, 3):
            for N in (HalfInt(1), HalfInt(3), HalfInt(4)):
                if not _appendix_null_value(N, p).is_zero():
                    return f"null identity fails at N={N}, p={p}"

    def appendix_unit():
        for N in (HalfInt(1), HalfInt(3), HalfInt(4)):
            terms = [
                umbral.GenMonomial(
                    1,
                    u_exps={"u1": N + 1, "u2": N},
                    v_exps={"v1": N + 1, "v2": N},
                )
            ]
            val = umbral.itransform_scalar(umbral.GenSeries(terms, lambda_order=0))
            if val != Poly.const(1):
                return f"unit identity fails at N={N}"

    return [
        ("Bessel umbral image", bessel),
        ("two-letter null identity", appendix_null),
        ("two-letter unit identity", appendix_unit),
    ]


def _appendix_null_value(N, p):
    from math import comb

    terms = []
    for k in range(p + 1):
        terms.append(
            umbral.GenMonomial(
                Fraction((-1) ** k * comb(p, k)),
                u_exps={"u1": N + 1 + 2 * k, "u2": N + k},
                v_exps={"v1": N + 1 + p + k, "v2": N + 2 * k},
            )
        )
    return umbral.itransform_scalar(umbral.GenSeries(terms, lambda_order=0))


def _suite_hyper():
    def multiplication():
        for n in (2, 3):
            for s in (0, 1, 2):
                for xt in range(1, 7):
                    x = Fraction(xt, 2 * n)  # guarantees n*x half-integer
                    lhs, rhs = hyper.gamma_multiplication(n, s, x)
                    if lhs != rhs:
                        return f"multiplication formula fails at n={n}, s={s}, x={x}"

    def proliferation():
        spec = hyper.HyperSpec((Fraction(1, 2),), (Fraction(3, 2),))
        pref, new = hyper.pochhammer_proliferate(
            HalfInt(1), HalfInt(3), 1, 2, spec
        )
        for m in range(6):
            direct = (
                hyper.pfq_coeff(spec, m)
                * scalar.gamma_half(HalfInt(1) + m)
                * scalar.recip_gamma(HalfInt(3) + 2 * m)
            )
            if pref * hyper.pfq_coeff(new, m) != direct:
                return f"proliferation mismatch at m={m}"

    return [
        ("Gauss-Legendre multiplication", multiplication),
        ("Pochhammer proliferation vs direct transform", proliferation),
    ]


def _suite_lacunary():
    def closed_vs_oracle():
        for K in (2, 3):
            got = lacunary.sj_lacunary_closed(K, 3)
            want = lacunary.multisection_oracle(
                families.sj_family, lacunary.LacunaryParams(K, 0, 3)
            )
            if got != want:
                return f"closed form != oracle at K={K}"
            goth = lacunary.hermite_lacunary_closed(K, 3)
            wanth = lacunary.multisection_oracle(
                families.hermite_family, lacunary.LacunaryParams(K, 0, 3)
            )
            if goth != wanth:
                return f"hermite closed form != oracle at K={K}"

    def shifts():
        for K, L in ((2, 1), (3, 2)):
            got = lacunary.mu_slice(lacunary.sj_lacunary_shift_gen(K, L, 2), L)
            want = lacunary.multisection_oracle(
                families.sj_family, lacunary.LacunaryParams(K, L, 2)
            )
            if got != want:
                return f"shifted generator != oracle at K={K}, L={L}"

    return [
        ("closed lacunary forms equal oracle", closed_vs_oracle),
        ("shift generators equal oracle", shifts),
    ]


def _suite_connect():
    def reconstruction():
        for M in range(11):
            if connect.reconstruct_monomial(M, connect.SJ_FAMILY) != Poly.var(
                "x", M
            ):
                return f"x^{M} reconstruction fails (sj)"
            if connect.reconstruct_monomial(M, connect.HERMITE_FAMILY) != Poly.var(
                "x", M
            ):
                return f"x^{M} reconstruction fails (hermite)"

    def biortho():
        for M in range(7):
            for L in range(7):
                want = ExactScalar(1 if M == L else 0)
                for fam in (connect.SJ_FAMILY, connect.HERMITE_FAMILY):
                    if connect.biorthogonality_check(M, L, fam) != want:
                        return f"contraction != delta at (M,L)=({M},{L}), {fam}"

    def pairing():
        A, B = connect.pair_factors(4, connect.SJ_FAMILY)
        if connect.gaussian_pair(A, B) != connect.exp_product_truncation(4):
            return "Gaussian pairing misses exp(alpha beta) (sj)"
        A, B = connect.pair_factors(4, connect.HERMITE_FAMILY)
        if connect.gaussian_pair(A, B) != connect.exp_product_truncation(4):
            return "Gaussian pairing misses exp(alpha beta) (hermite)"

    def reaction():
        for N0 in range(6):
            sol = connect.reaction_solve(N0, 4)
            if sol.coeffs[0] != Poly.var("x", N0):
                return f"initial condition fails at N0={N0}"
            res = connect.reaction_residual(sol)
            if any(not c.is_zero() for c in res.coeffs):
                return f"evolution equation fails at N0={N0}"

    return [
        ("monomial reconstruction", reconstruction),
        ("biorthogonality", biortho),
        ("Gaussian pairing", pairing),
        ("decay-system evolution", reaction),
    ]


SUITES = {
    "scalar": _suite_scalar,
    "opcalc": _suite_opcalc,
    "umbral": _suite_umbral,
    "hyper": _suite_hyper,
    "lacunary": _suite_lacunary,
    "connect": _suite_connect,
}


def run_suites(names=None, out=None):
    """Run the named suites (all by default); returns the failure count."""
    out = out or sys.stdout
    checks = [
        (name, label, fn)
        for name in names or sorted(SUITES)
        for label, fn in SUITES[name]()
    ]
    failures = 0
    for suite, label, fn in checks:
        try:
            detail = fn()
        except Exception as exc:  # surfaced as a failure with the message
            detail = f"raised {type(exc).__name__}: {exc}"
        if detail is None:
            print(f"[PASS] {suite}: {label}", file=out)
        else:
            failures += 1
            print(f"[FAIL] {suite}: {label}: {detail}", file=out)
    print(f"{len(checks) - failures}/{len(checks)} checks passed", file=out)
    return failures
