"""The identity registry behind the command-line `verify` verb.

Each public function below is the one definition of an identity of the
paper.  It takes the inputs to check, sweeps them and returns a
counterexample string on failure, None on success.  A suite is a list of
(label, fn) pairs that call them at desk scale; the test suite calls the
same functions at larger sizes.  The three lacunary checks share one
integer compare with the oracle's stored terms, _first_mismatch.

One run_suites call is one run (_one_run): inside it, a construction that
several checks compare, gp_series(n, -1, beta) or sj_closed_mm(n, 0), is
built once per distinct argument (_shared) and handed to each check that
reads it; the memo is dropped when the run ends, so nothing outlives it,
and a check called outside a run builds its own.  A build that raises is
not stored, so each check that reads it raises in turn.
"""

from __future__ import annotations

import random
import sys
from contextlib import contextmanager
from math import comb, factorial

from . import connect, families, hyper, lacunary, opcalc, scalar, umbral
from .poly import Poly
from .scalar import ExactScalar, HalfInt, _pair, _ratio


_memo = None  # {(fn, args): value} while a run is open, else None


@contextmanager
def _one_run():
    """The scope of one verify run: _shared builds each (fn, args) once
    within it; the memo is dropped on exit, however the run ends."""
    global _memo
    _memo = {}
    try:
        yield
    finally:
        _memo = None


def _shared(fn, *args):
    """fn(*args), built once per (fn, args) within a run and on every call
    outside one; a raising build is not stored.  Callers pass the builder as
    read from its module at the call (opcalc.gp_series), so a wrapper put
    there, such as a tracer's, is the one called."""
    if _memo is None:
        return fn(*args)
    key = fn, args
    if key not in _memo:
        _memo[key] = fn(*args)
    return _memo[key]


# --- scalar ---------------------------------------------------------------

def half_pairs(seed, count, lo, hi):
    """count pairs (HalfInt(t), HalfInt(u)), t and u drawn by randint(lo, hi)
    from Random(seed); pairs where B(a, b) has a pole are skipped."""
    rng = random.Random(seed)
    while count:
        a, b = HalfInt(rng.randint(lo, hi)), HalfInt(rng.randint(lo, hi))
        if not any(h.is_nonpositive_integer() for h in (a, b, a + b)):
            count -= 1
            yield a, b


def beta_differences(cases):
    """sum_k (-1)^k C(n,k) B(a+k, b) == B(a, b+n) for each (a, b, n);
    n = 1 is the Pascal identity B(a, b) = B(a+1, b) + B(a, b+1)."""
    for a, b, n in cases:
        lhs = sum((ExactScalar((-1) ** k * comb(n, k)) * scalar.beta_fn(a + k, b)
                   for k in range(n + 1)), ExactScalar(0))
        if lhs != scalar.beta_fn(a, b + n):
            return f"sum_k (-1)^k C({n},k) B({a}+k,{b}) != B({a},{b}+{n})"


def pochhammer_ratio(twices, n_top):
    """Gamma(a+n)/Gamma(a) == (a)_n at a = twice/2, n < n_top."""
    for twice in twices:
        a = HalfInt(twice)
        for n in range(n_top):
            if scalar.gamma_ratio(a + n, a) != ExactScalar(scalar.pochhammer(a, n)):
                return f"gamma_ratio({a}+{n},{a}) != ({a})_{n}"


def duplication(twices):
    """Gamma(2z) == 2^(2z-1) pi^(-1/2) Gamma(z) Gamma(z+1/2) at z = twice/2."""
    for twice in twices:
        z = HalfInt(twice)
        lhs = scalar.gamma_half(z * 2)
        rhs = (
            ExactScalar(1, -1) * ExactScalar(2) ** (twice - 1)
            * scalar.gamma_half(z)
            * scalar.gamma_half(z + HalfInt(1))
        )
        if lhs != rhs:
            return f"duplication fails at z={z}"


# --- opcalc ---------------------------------------------------------------

def resolvent_closed_form(ns):
    """The (-1,-1) resolvent series equals the closed form."""
    for n in ns:
        if (_shared(opcalc.gp_series, n, -1, -1)
                != _shared(families.sj_closed_mm, n, 0)):
            return f"resolvent vs closed form differ at n={n}"


def _recurrence_and_closed(n, alpha, beta):
    if alpha != -1:
        return families.jacobi_family(n, alpha, beta), families.jacobi_classical(
            n, alpha, beta)
    if beta == -1:
        return families.sj_family(n), _shared(families.sj_closed_mm, n, 0)
    return families.sj_beta_family(n, beta), families.sj_closed_beta(n, beta)


def recurrence(ns, params):
    """The production construction equals the closed form, variables included,
    for each (alpha, beta): (-1, -1), (-1, beta) or classical Jacobi."""
    for n in ns:
        for alpha, beta in params:
            got, want = _recurrence_and_closed(n, alpha, beta)
            if got != want or got.vars != want.vars:
                return (f"({alpha},{beta}) recurrence vs closed form differ "
                        f"at n={n}")


def eigenequation(ns, betas=(-1,)):
    """The (-1, beta) resolvent series is an eigenfunction of the Jacobi
    operator with eigenvalue -n(n+beta); at beta = -1 the operator is
    (1-x^2) d^2."""
    for beta in betas:
        for n in ns:
            p = _shared(opcalc.gp_series, n, -1, beta)
            if opcalc.jacobi_operator_apply(p, -1, beta) != p * (-n * (n + beta)):
                return f"eigenequation fails at n={n}, beta={beta}"


def four_way(ns):
    """Resolvent, exponential resolvent, umbral and bivariate constructions
    of the (-1,-1) family agree."""
    for n in ns:
        a = _shared(opcalc.gp_series, n, -1, -1)
        b = opcalc.exp_resolvent_sj(n)
        c = families.sj_umbral(n)
        d = opcalc.exp_B_bivariate(n).substitute("y", 1)
        if not (a == b == c == d):
            return f"constructions disagree at n={n}"


# --- umbral ---------------------------------------------------------------

def _transform_value(terms):
    return umbral.itransform_scalar(umbral.GenSeries(terms, lambda_order=0))


def bessel_image(ns, tops):
    """The transform of sum_{r <= top} (-1)^r (x/2)^(n+2r) v^(n+r+1) / r!
    is the Bessel series J_n(x) truncated at r = top."""
    for n in ns:
        for top in tops:
            terms = [
                umbral.GenMonomial(
                    Poly.var("x", n + 2 * r)
                    * _ratio((-1) ** r, factorial(r) * 2 ** (n + 2 * r), 0),
                    v_exps={"v": n + r + 1},
                )
                for r in range(top + 1)
            ]
            want = Poly.sum((
                Poly.var("x", n + 2 * r) * _ratio(
                    (-1) ** r, factorial(n + r) * factorial(r) * 2 ** (n + 2 * r), 0
                )
                for r in range(top + 1)
            ), ("x",))
            if _transform_value(terms) != want:
                return f"Bessel image truncation fails at n={n}, top={top}"


def null_identity(ps, twices):
    """The two-letter appendix sum over k <= p transforms to zero."""
    for p in ps:
        for twice in twices:
            N = HalfInt(twice)
            terms = [
                umbral.GenMonomial(
                    (-1) ** k * comb(p, k),
                    u_exps={"u1": N + 1 + 2 * k, "u2": N + k},
                    v_exps={"v1": N + 1 + p + k, "v2": N + 2 * k},
                )
                for k in range(p + 1)
            ]
            if _transform_value(terms):
                return f"null identity fails at N={N}, p={p}"


def unit_identity(twices):
    """u1^(N+1) u2^N v1^(N+1) v2^N transforms to one."""
    for twice in twices:
        N = HalfInt(twice)
        term = umbral.GenMonomial(
            1, u_exps={"u1": N + 1, "u2": N}, v_exps={"v1": N + 1, "v2": N}
        )
        if _transform_value([term]) != Poly.const(1):
            return f"unit identity fails at N={N}"


# --- hyper ----------------------------------------------------------------

def multiplication_formula(ns, ss, nums):
    """Gauss-Legendre multiplication at x = num/(2n), so n x is a half-integer."""
    for n in ns:
        for s in ss:
            for num in nums:
                x = scalar._fraction(num, 2 * n)
                lhs, rhs = hyper.gamma_multiplication(n, s, x)
                if lhs != rhs:
                    return f"multiplication formula fails at n={n}, s={s}, x={x}"


def proliferation(cases, ms):
    """Pochhammer proliferation equals the term-by-term transform
    Gamma(alpha + m r) / Gamma(beta + m s) of each pFq coefficient."""
    for alpha, beta, r, s, spec in cases:
        pref, new = hyper.pochhammer_proliferate(alpha, beta, r, s, spec)
        for m in ms:
            direct = (
                hyper.pfq_coeff(spec, m)
                * scalar.gamma_half(alpha + m * r)
                * scalar.recip_gamma(beta + m * s)
            )
            if pref * hyper.pfq_coeff(new, m) != direct:
                return (f"proliferation mismatch at alpha={alpha}, beta={beta}, "
                        f"r={r}, s={s}, m={m}")


# --- lacunary -------------------------------------------------------------

def _first_mismatch(sources, vars, den, nums):
    """The first lambda^k at which the integers nums / den, keyed (k, *exps)
    over vars, lambda first, differ from sources[k] / k!, in one pass
    (Poly._first_unequal), with both sides' coefficient as text; else None."""
    k = Poly._first_unequal(sources, vars[1:], den, nums)
    if k is not None:
        closed = Poly._over(
            vars[1:], 0, den, {key[1:]: n for key, n in nums.items() if key[0] == k})
        oracle = sources[k] * _pair(1, factorial(k), 0)
        return (f"first mismatch at lambda^{k}: closed={closed.text()} "
                f"oracle={oracle.text()}")


def lacunary_closed(cases):
    """The closed lacunary form, the integers of the family table's
    closed-form column, equals the oracle for each (family, K, order)."""
    for family, K, order in cases:
        row = connect.lookup(family)
        sources = lacunary._selected(row.source, K, 0, order)
        if _first_mismatch(sources, *row.lacunary_closed(K, order)):
            return f"{family} closed form != oracle at K={K}, order={order}"


def _slice_mismatch(family, K, L, order):
    """_first_mismatch of the mu^L slice that `lacunary --check` checks at
    (family, K, L, order): the Hermite closed form raised L times
    (_closed_nums, _raise_nums) and taken through the family's image once,
    over all powers of lambda."""
    row = connect.lookup(family)
    sources = lacunary._selected(row.source, K, L, order)
    den, nums = lacunary._closed_nums(K, order)
    return _first_mismatch(sources, *row.image(
        lacunary._LAMBDA_VARS, den, lacunary._raise_nums(nums, L)))


def lacunary_slices(cases):
    """The mu^L slice that `lacunary --check` checks equals the oracle for
    each (family, K, L, order), else the first coefficient that differs."""
    for family, K, L, order in cases:
        detail = _slice_mismatch(family, K, L, order)
        if detail:
            return detail


def lacunary_shifts(cases):
    """The mu^L slice of the shift generator exp(mu x + mu^2 z) H_{K,0}(lambda;
    x + 2 mu z, z), truncated at mu^mu_order, equals the oracle for each
    (family, K, mu_order, order, L).  As [x, 2z d/dx] = -2z is central, the
    generator is exp(mu (x + 2z d/dx)) H_{K,0}, so L! times its mu^L slice is
    the closed form raised L times: that slice alone is built, and a
    generator truncated below mu^L, whose slice is zero, never matches."""
    for family, K, mu_order, order, L in cases:
        if _slice_mismatch(family, K, L, order) or L > mu_order:
            return f"{family} shifted generator != oracle at K={K}, L={L}"


# --- connect --------------------------------------------------------------

def reconstruction(Ms, fams=connect.FAMILIES):
    """sum_n A[M,n] p_n == x^M."""
    for M in Ms:
        want = Poly.var("x", M)
        for fam in fams:
            if connect.reconstruct_monomial(M, fam) != want:
                return f"x^{M} reconstruction fails ({fam})"


def biorthogonality(top, fams=connect.FAMILIES):
    """The contraction of the dual pair is the Kronecker delta for M, L < top."""
    for fam in fams:
        for M, row in enumerate(connect.biorthogonality_check(top, fam)):
            for L, residual in enumerate(row):
                if residual:
                    return f"contraction != delta at (M,L)=({M},{L}), {fam}"


def pairing(orders, fams=connect.FAMILIES):
    """The Gaussian pairing of the generating functions is exp(alpha beta)."""
    for order in orders:
        want = connect.exp_product_truncation(order)
        for fam in fams:
            A, B = connect.pair_factors(order, fam)
            if connect.gaussian_pair(A, B) != want:
                return f"Gaussian pairing misses exp(alpha beta) ({fam})"


def reaction(N0s, t_order):
    """The decay-system series starts at x^N0, equals its expansion over the
    (-1,-1) eigenfamily (variables included) and satisfies its evolution
    equation to t_order."""
    for N0 in N0s:
        sol = connect.reaction_solve(N0, t_order)
        if sol.coeffs[0] != Poly.var("x", N0):
            return f"initial condition fails at N0={N0}"
        modes = connect.reaction_modes(N0, t_order).coeffs
        if any(p != m or p.vars != m.vars for p, m in zip(sol.coeffs, modes)):
            return f"series differs from its eigenfamily expansion at N0={N0}"
        if connect.reaction_residual(sol) is not None:
            return f"evolution equation fails at N0={N0}"


# --- suites: the desk-scale sizes that `sjk verify` runs --------------------

def _suite_scalar():
    return [
        ("beta Pascal identity", lambda: beta_differences(
            (a, b, 1) for a, b in half_pairs(7, 20, 1, 19))),
        ("gamma ratio telescopes to Pochhammer",
         lambda: pochhammer_ratio(range(1, 12), 8)),
        ("Legendre duplication at half-integers", lambda: duplication(range(1, 16))),
    ]


def _suite_opcalc():
    a, b = scalar._fraction(1, 2), scalar._fraction(-1, 3)
    return [
        ("resolvent equals closed form",
         lambda: resolvent_closed_form((2, 3, 4, 5, 8))),
        ("coefficient recurrence equals closed forms",
         lambda: recurrence(range(6), ((-1, -1), (-1, a), (a, b)))),
        ("(1-x^2) d^2 eigenequation", lambda: eigenequation(range(13))),
        ("four-way construction equality", lambda: four_way(range(13))),
    ]


def _suite_umbral():
    return [
        ("Bessel umbral image", lambda: bessel_image(range(3), (4,))),
        ("two-letter null identity", lambda: null_identity((1, 2, 3), (1, 3, 4))),
        ("two-letter unit identity", lambda: unit_identity((1, 3, 4))),
    ]


def _suite_hyper():
    spec = hyper.HyperSpec((HalfInt(1),), (HalfInt(3),))
    return [
        ("Gauss-Legendre multiplication",
         lambda: multiplication_formula((2, 3), (0, 1, 2), range(1, 7))),
        ("Pochhammer proliferation vs direct transform", lambda: proliferation(
            [(HalfInt(1), HalfInt(3), 1, 2, spec)], range(6))),
    ]


def _suite_lacunary():
    return [
        ("closed lacunary forms equal oracle", lambda: lacunary_closed(
            (family, K, 3) for K in (2, 3) for family in connect.FAMILIES)),
        ("shift generators equal oracle", lambda: lacunary_shifts(
            ("sj", K, L, 2, L) for K, L in ((2, 1), (3, 2)))),
    ]


def _suite_connect():
    return [
        ("monomial reconstruction", lambda: reconstruction(range(11))),
        ("biorthogonality", lambda: biorthogonality(7)),
        ("Gaussian pairing", lambda: pairing((4,))),
        ("decay-system evolution", lambda: reaction(range(6), 4)),
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
    with _one_run():
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
