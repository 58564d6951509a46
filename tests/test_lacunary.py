import io
import os
import shutil
import subprocess
import sys
from fractions import Fraction
from math import factorial, gcd
from pathlib import Path

import pytest

from sjk import cli, connect, families, lacunary, verify
from sjk.connect import lookup
from sjk.errors import ParamError
from sjk.families import hermite_closed, hermite_egf, hermite_family, sj_egf
from sjk.lacunary import multisection_oracle
from sjk.poly import CoeffSeries, Poly
from sjk.scalar import ExactScalar

from conftest import assert_canonical
from reference import cells_closed_nums, cells_sj_closed_nums, cells_sj_gathered
from reference import coeff_bridge_check, hermite_lacunary_closed
from reference import hermite_lacunary_shift, hermite_raise, image_of, lacunary_dilate
from reference import lambda_derivative
from reference import lacunary_oracle as oracle
from reference import matching_coeff, mu_slice, reference_closed, reference_shifts
from reference import reference_slices, sj_lacunary_closed, sj_lacunary_closed_printed

X = Poly.var("x")
SRC = Path(__file__).resolve().parent.parent / "src" / "sjk"


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
        # sources whose power of sqrt(pi) changes with n, over (z, x)
        def source(n):
            g = n % 5 - 2
            return Poly(("z", "x"), {
                (0, n): ExactScalar(Fraction(n + 1, 3), g),
                (1, 0): ExactScalar(Fraction(-4, 5), g),
                (2, n): ExactScalar(-7, g),
            })

        got = multisection_oracle(source, 3, 2, 7)
        for n, c in enumerate(got.coeffs):
            want = source(3 * n + 2) * Fraction(1, factorial(n))
            assert c.vars == want.vars == ("z", "x") and c.terms == want.terms, n
            assert {t.sqrt_pi_pow for t in c.terms.values()} == {(3 * n + 2) % 5 - 2}
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
        # sum_n H_2n(x, z) lambda^n / n!
        #     = (1-4z lambda)^(-1/2) exp(x^2 lambda/(1-4z lambda)),
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
            gen = image_of(lookup("sj"), hermite_lacunary_shift(K, 0, 4))
            assert mu_slice(gen, 0) == sj_lacunary_closed(K, 4)

    def test_specific_values(self, golden):
        gen = image_of(lookup("sj"), hermite_lacunary_shift(2, 1, 1))
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
SLICE_SIZES += [(1, 1, 63), (1, 32, 32), (2, 20, 22), (4, 3, 15), (1, 63, 1),
                (1, 0, 40)]


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

    @pytest.mark.parametrize("family", ["hermite", "sj"])
    @pytest.mark.parametrize("K, L, order",
                             [(1, 0, 8), (2, 3, 6), (3, 1, 5), (4, 3, 15)])
    def test_a_pass_reads_each_source_once_and_builds_no_series(
            self, monkeypatch, family, K, L, order):
        # the oracle is read as the stored integers of each p_{K k + L}: one
        # source call per power of lambda, and no CoeffSeries, which only
        # the tests' Poly forms build; so for the slice, the shift
        # generator's slice and (L = 0, and K >= 2 for sj) the closed form
        built, calls = [], []
        init = CoeffSeries.__init__

        def counting_init(self, *args):
            built.append(self)
            init(self, *args)

        real = getattr(connect, f"{family}_family")

        def counting_source(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(CoeffSeries, "__init__", counting_init)
        monkeypatch.setattr(connect, f"{family}_family", counting_source)
        checks = [(verify.lacunary_slices, (family, K, L, order), L),
                  (verify.lacunary_shifts, (family, K, L, order, L), L)]
        if family == "hermite" or K >= 2:
            checks.append((verify.lacunary_closed, (family, K, order), 0))
        for check, case, shift in checks:
            calls.clear()
            assert check([case]) is None
            assert (built, calls) == ([], [K * k + shift for k in range(order + 1)])
        # the counter sees the oracle series when it is built
        oracle(family, K, L, order)
        assert len(built) == 1


def _break_closed_form(monkeypatch, K, L, k):
    """Make the closed form's kernel add 1 to its lambda^k coefficient."""
    real = lacunary._closed_nums

    def broken(K, order):
        den, nums = real(K, order)
        nums[k, 0, 0] = nums.get((k, 0, 0), 0) + den
        return den, nums

    monkeypatch.setattr(lacunary, "_closed_nums", broken)


def _break_raise(monkeypatch, K, L, k):
    """Make the raising step double one numerator at lambda^k: the least
    key among the nonzero ones whose last two entries (e, m) have
    e + 2m = K k + L.  The batched pass keys them (k, e, m), the
    reference's one coefficient at a time (0, e, m)."""
    real = lacunary._raise_nums

    def broken(nums, steps):
        out = dict(real(nums, steps))
        hit = [key for key, n in out.items()
               if n and key[-2] + 2 * key[-1] == K * k + L]
        if hit:
            out[min(hit)] *= 2
        return out

    monkeypatch.setattr(lacunary, "_raise_nums", broken)


def _break_image(monkeypatch, K, L, k):
    """Make the (-1,-1) image double its numerator at the lowest power of x
    among the nonzero images of the terms x^e z^m with e + 2m = K k + L,
    the lambda^k coefficient, whether lambda is among the variables or
    the terms are one coefficient's."""
    real = connect._image_grade

    def broken(vars, den, nums):
        out_vars, den, image = real(vars, den, nums)
        ix, iz = vars.index("x"), vars.index("z")
        hit = [e[:iz] + e[iz + 1 :] for e in nums if e[ix] + 2 * e[iz] == K * k + L]
        hit = [e for e in hit if image[e]]
        if hit:
            image[min(hit)] *= 2
        return out_vars, den, image

    monkeypatch.setattr(connect, "_image_grade", broken)


def _break_source(monkeypatch, K, L, k):
    """Make each family's source double the leading term of its member of
    degree K k + L, which the oracle divides by k! at lambda^k."""
    for name in ("sj_family", "hermite_family"):
        real = getattr(connect, name)

        def broken(n, real=real):
            return real(n) + Poly.var("x", n) if n == K * k + L else real(n)

        monkeypatch.setattr(connect, name, broken)


class TestSliceMutations:
    # each mutation reaches both the integer pass and the Poly composition,
    # which must report the same first lambda^k and the same text
    @pytest.mark.parametrize("family", ["hermite", "sj"])
    @pytest.mark.parametrize("K, L, order", [(1, 0, 6), (2, 1, 7), (3, 3, 4), (4, 2, 3),
                                             (2, 20, 22)])
    @pytest.mark.parametrize("mutate", [_break_closed_form, _break_raise, _break_image,
                                        _break_source])
    def test_first_mismatch_agrees(self, monkeypatch, mutate, family, K, L, order):
        k = order // 2 + 1
        mutate(monkeypatch, K, L, k)
        case = family, K, L, order
        got = verify.lacunary_slices([case])
        assert got == reference_slices(*case)
        if mutate is not _break_image or family == "sj":
            assert got.startswith(f"first mismatch at lambda^{k}: "), got


# (check, its case less the family) with K < 1, L < 0 or order < 0
BAD_PARAMS = [
    ("lacunary_closed", (0, 3)), ("lacunary_closed", (2, -1)),
    ("lacunary_slices", (0, 0, 3)), ("lacunary_slices", (1, -1, 3)),
    ("lacunary_slices", (1, 0, -1)),
    ("lacunary_shifts", (0, 1, 3, 0)), ("lacunary_shifts", (2, 1, 3, -1)),
    ("lacunary_shifts", (2, 1, -1, 1)),
]


class TestParameterGuard:
    @pytest.mark.parametrize("family", ["hermite", "sj"])
    @pytest.mark.parametrize("check, params", BAD_PARAMS)
    def test_refused_by_the_source_read(self, monkeypatch, check, params, family):
        # each check reads its sources by lacunary._selected before it
        # builds a closed form, so that one ParamError refuses them all
        def refuse(*args):
            raise AssertionError("closed form built")

        monkeypatch.setattr(lacunary, "_closed_nums", refuse)
        monkeypatch.setattr(lacunary, "_sj_closed_nums", refuse)
        with pytest.raises(ParamError, match="^bad lacunary parameters K="):
            getattr(verify, check)([(family, *params)])

    def test_sj_closed_form_needs_k2(self):
        # K = 1 is the EGF: the sj row's closed column refuses it, and the
        # slice and the shift generator, which do not read it, pass
        with pytest.raises(ParamError, match="^closed lacunary form needs K >= 2$"):
            verify.lacunary_closed([("sj", 1, 3)])
        assert verify.lacunary_slices([("sj", 1, 2, 3)]) is None
        assert verify.lacunary_shifts([("sj", 1, 2, 3, 2)]) is None


@pytest.mark.parametrize("K", [2, 3, 4, 5, 6])
def test_sj_closed_keys_drop_no_term(K):
    # the sj column keys its integers (k, x exponent): no two of the
    # proliferated cells' keys (k, x exponent, y exponent) may share the
    # first two, or leaving y out would lose a term
    for order in range(11):
        _, nums = cells_sj_gathered(K, order)
        assert len({key[:2] for key in nums}) == len(nums), order


@pytest.mark.parametrize("K", range(1, 9))
def test_one_pass_equals_the_cell_list(K):
    # the one-pass cells and kernels give the integers, den and every
    # numerator, of the cell list and _gather they replaced
    for order in range(22):
        assert lacunary._closed_nums(K, order) == cells_closed_nums(K, order), order
        if K >= 2:
            got = lacunary._sj_closed_nums(K, order)
            assert got == cells_sj_closed_nums(K, order), order


def _double_last(nums: dict) -> dict:
    """nums with the numerator at its largest nonzero key doubled."""
    nums = dict(nums)
    key = max(k for k, n in nums.items() if n)
    nums[key] *= 2
    return nums


def _double_closed_nums(monkeypatch):
    real = lacunary._closed_nums

    def broken(K, order):
        den, nums = real(K, order)
        return den, _double_last(nums)

    monkeypatch.setattr(lacunary, "_closed_nums", broken)


def _double_sj_closed(monkeypatch):
    real = lacunary._sj_closed_nums

    def broken(K, order):
        vars, den, nums = real(K, order)
        return vars, den, _double_last(nums)

    monkeypatch.setattr(lacunary, "_sj_closed_nums", broken)


def _break_raise_step(monkeypatch):
    real = lacunary._raise_nums

    def broken(nums, L):
        return _double_last(real(nums, L)) if L else nums

    monkeypatch.setattr(lacunary, "_raise_nums", broken)


def _break_image_ratio(monkeypatch):
    # W_M / W_M, the factor of the terms at the largest m of a chain; the
    # oracle's sj_family and the shift check's image read it, the sj closed
    # form does not
    real = families._image_ratios

    def broken(N, M):
        r = real(N, M)
        if M:
            r[M] *= 3
        return r

    monkeypatch.setattr(families, "_image_ratios", broken)


def _double_source(monkeypatch):
    # the leading numerator of each family's member of degree 2
    _break_source(monkeypatch, 1, 0, 2)


CLOSED = "closed lacunary forms equal oracle"
SHIFTS = "shift generators equal oracle"
MUTATIONS = [
    (_double_closed_nums, {CLOSED: "hermite closed form != oracle at K=2, order=3",
                           SHIFTS: "sj shifted generator != oracle at K=2, L=1"}),
    (_double_sj_closed, {CLOSED: "sj closed form != oracle at K=2, order=3"}),
    (_break_raise_step, {SHIFTS: "sj shifted generator != oracle at K=2, L=1"}),
    (_break_image_ratio, {CLOSED: "sj closed form != oracle at K=2, order=3"}),
    (_double_source, {CLOSED: "sj closed form != oracle at K=2, order=3",
                      SHIFTS: "sj shifted generator != oracle at K=3, L=2"}),
]
MUTATION_IDS = [m.__name__.strip("_") for m, _ in MUTATIONS]


@pytest.mark.usefixtures("cold_sj_family")
class TestClosedAndShiftMutations:
    @pytest.mark.parametrize("mutate, failing", MUTATIONS, ids=MUTATION_IDS)
    def test_verify_prints_the_fail_line_it_reaches(self, monkeypatch, mutate, failing):
        mutate(monkeypatch)
        out = io.StringIO()
        assert cli.run(["verify", "--suite", "lacunary"], out=out) == 2
        want = [f"[FAIL] lacunary: {label}: {failing[label]}" if label in failing
                else f"[PASS] lacunary: {label}" for label in (CLOSED, SHIFTS)]
        want.append(f"{2 - len(failing)}/2 checks passed")
        assert out.getvalue().splitlines() == want

    @pytest.mark.parametrize("mutate", [m for m, _ in MUTATIONS], ids=MUTATION_IDS)
    @pytest.mark.parametrize("family", ["hermite", "sj"])
    def test_verdicts_agree_with_the_poly_compositions(
            self, monkeypatch, mutate, family):
        # each integer check says what its composition of Polys says
        mutate(monkeypatch)
        for K in (2, 3, 4):
            for order in (1, 3, 4):
                case = family, K, order
                assert verify.lacunary_closed([case]) == reference_closed(*case), case
                for L in (0, 1, 2):
                    for mu_order in (L, 3):
                        case = family, K, mu_order, order, L
                        got = verify.lacunary_shifts([case])
                        assert got == reference_shifts(*case), case


# One-token mutants of the cell generator that both closed forms read,
# each applied to a copy of the package: (text, its mutant, the
# lacunary --check request that must print FAIL); `sjk verify` must fail too
ONE_PASS_MUTANTS = [
    # the running matching-number product and the running s!
    pytest.param("// (beta + 1)", "// (beta + 2)", ("hermite", 3, 0, 3),
                 id="matching-ratio-den"),
    pytest.param("(Ks - 2 * beta - 1)", "(Ks - 2 * beta - 2)",
                 ("hermite", 3, 0, 3), id="matching-ratio-num"),
    pytest.param("f *= s or 1", "f *= s or 2", ("sj", 2, 1, 3),
                 id="running-factorial"),
]


class TestOnePassMutations:
    @pytest.mark.parametrize("text, mutant, case", ONE_PASS_MUTANTS)
    def test_check_prints_fail(self, tmp_path, text, mutant, case):
        pkg = tmp_path / "sjk"
        shutil.copytree(SRC, pkg, ignore=shutil.ignore_patterns("__pycache__"))
        path = pkg / "lacunary.py"
        source = path.read_text()
        assert source.count(text) == 1, text
        path.write_text(source.replace(text, mutant))

        def sjk(*argv):
            env = dict(os.environ, PYTHONPATH=str(tmp_path))
            return subprocess.run([sys.executable, "-m", "sjk", *map(str, argv)],
                                  env=env, capture_output=True, text=True)

        family, K, L, order = case
        proc = sjk("lacunary", "--family", family, "--K", K, "--L", L,
                   "--order", order, "--check")
        assert (proc.returncode, proc.stderr) == (2, "")
        assert proc.stdout.splitlines()[0] == "closed-form == oracle: FAIL"
        proc = sjk("verify")
        assert proc.returncode == 2
        assert any(line.startswith(f"[FAIL] lacunary: {CLOSED}: ")
                   for line in proc.stdout.splitlines()), proc.stdout


class TestHermiteRaise:
    def test_raising_steps_through_the_family(self):
        for n in range(25):
            for L in range(7):
                got = hermite_raise(hermite_closed(n), L)
                want = hermite_closed(n + L)
                assert (got.vars, got.terms) == (want.vars, want.terms), (n, L)

    def test_cancelled_terms_are_dropped(self):
        # (x + 2z d/dx)(x^2 - 4z) = x^3 + 4xz - 4xz
        c = Poly(("x", "z"), {(2, 0): 1, (0, 1): -4})
        got = hermite_raise(c, 1)
        assert (got.vars, got.terms) == (("x", "z"), {(3, 0): ExactScalar(1)})

    def test_zero_stays_zero(self):
        got = hermite_raise(Poly.zero(("x", "z")), 3)
        assert (got.vars, got.terms) == (("x", "z"), {})


class TestOperatorRelation:
    @pytest.mark.parametrize("K", [1, 2, 3])
    @pytest.mark.parametrize("L", [1, 2])
    def test_derivative_commutes_through_dilation(self, K, L):
        # (d/dl)^L after dilation == dilation after (d/dl)^(K L)
        for egf_fn in (hermite_egf, sj_egf):
            egf = egf_fn(24)
            lhs = lambda_derivative(lacunary_dilate(egf, K), L)
            rhs = lacunary_dilate(lambda_derivative(egf, K * L), K)
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


@pytest.mark.parametrize("K", [1, 2, 3, 4, 5])
def test_cells_scale_by_the_matching_numbers(K):
    # cell (beta, s), s outer and beta inner, is kept where the matching
    # number of (K s, beta) is not zero, and its start is that number over
    # s! in lowest terms
    betas = range(K // 2) if K % 2 == 0 else range(K)
    for order in range(14):
        cells = list(lacunary._hermite_cells(K, order))
        assert [(beta, s) for beta, s, *_ in cells] == [
            (beta, s) for s in range(order + 1) for beta in betas
            if matching_coeff(K * s, beta)]
        uppers = {s: upper for _, s, _, upper, _ in cells}
        lowers = {beta: lower for beta, _, _, _, lower in cells}
        for beta, s, start, upper, lower in cells:
            h, f = matching_coeff(K * s, beta), factorial(s)
            assert start == (h // gcd(h, f), f // gcd(h, f))
            # the parameters are made once per s and once per beta
            assert upper is uppers[s] and lower is lowers[beta]


@pytest.mark.parametrize("K", [1, 2, 3, 4])
def test_closed_form_coefficients_are_canonical(K):
    # _gather fills one dict per coefficient and Poly._over drops the zeros
    forms = [hermite_lacunary_closed(K, 6)]
    if K >= 2:
        forms += [sj_lacunary_closed(K, 6), sj_lacunary_closed_printed(K, 6)]
    for series in forms:
        for c in series.coeffs:
            assert_canonical(c)
