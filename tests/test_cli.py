import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import cli_oracle
from sjk import cli, connect, families, jsonio, lacunary, opcalc, umbral, verify
from sjk.poly import Poly
from sjk.scalar import ExactScalar, HalfInt

from reference import monomial, poly_from_obj, poly_to_obj, series_to_obj

GRID = ("-1/2", "-1/3", "0", "1/3", "1/2", "1", "3/2", "2")
# every grid value once as alpha and once as beta
JACOBI_PAIRS = tuple(zip(GRID, GRID[3:] + GRID[:3]))
FORMATS = ("text", "latex", "json")


RECURRENCE_FAIL = ("[FAIL] opcalc: coefficient recurrence equals closed forms: "
                   "(-1,-1) recurrence vs closed form differ at n=2")


def run_cli(*argv):
    out, err = io.StringIO(), io.StringIO()
    code = cli.run(list(argv), out=out, err=err)
    return code, out.getvalue(), err.getvalue()


def render(p, fmt):
    """p as `sjk poly --format fmt` prints it."""
    if fmt == "json":
        return jsonio.dumps(poly_to_obj(p)) + "\n"
    return (p.latex() if fmt == "latex" else p.text()) + "\n"


class TestPolyVerb:
    def test_sj_row_four(self):
        code, out, _ = run_cli("poly", "--family", "sj", "--n", "4")
        assert code == 0
        assert out.strip() == "x^4 - 6/5 x^2 + 1/5"

    def test_hermite_degree_zero(self):
        code, out, _ = run_cli("poly", "--family", "hermite", "--n", "0")
        assert code == 0
        assert out.strip() == "1"

    def test_jacobi_with_rational_params(self):
        code, out, _ = run_cli(
            "poly", "--family", "jacobi", "--n", "1", "--alpha", "0",
            "--beta", "0",
        )
        assert code == 0
        assert out.strip() == "x"

    def test_sj_beta_accepts_halves(self):
        code, out, _ = run_cli(
            "poly", "--family", "sj-beta", "--n", "1", "--beta", "1/2"
        )
        assert code == 0
        assert out.strip() == "x - 1"

    def test_latex_format(self):
        code, out, _ = run_cli(
            "poly", "--family", "sj", "--n", "4", "--format", "latex"
        )
        assert code == 0
        assert out.strip() == r"x^{4} - \frac{6}{5} x^{2} + \frac{1}{5}"


class TestOutputMatchesClosedForms:
    """poly and the lacunary oracle print byte for byte what the closed
    forms render, degree-0 variable tuples included."""

    @staticmethod
    def check(options, closed, degrees=range(13)):
        for n in degrees:
            p = closed(n)
            for fmt in FORMATS:
                code, out, _ = run_cli(
                    "poly", *options, "--n", str(n), "--format", fmt
                )
                assert (code, out) == (0, render(p, fmt)), (options, n, fmt)

    def test_sj(self):
        self.check(("--family", "sj"), lambda n: families.sj_closed_mm(n, 0))

    @pytest.mark.parametrize("gamma", GRID)
    def test_sj_degree_one_gamma(self, gamma):
        self.check(
            ("--family", "sj", f"--gamma={gamma}"),
            lambda n: families.sj_closed_mm(n, Fraction(gamma)),
            degrees=(0, 1, 2),
        )

    @pytest.mark.parametrize("beta", GRID)
    def test_sj_beta(self, beta):
        self.check(
            ("--family", "sj-beta", f"--beta={beta}"),
            lambda n: families.sj_closed_beta(n, Fraction(beta)),
        )

    @pytest.mark.parametrize("alpha, beta", JACOBI_PAIRS)
    def test_jacobi(self, alpha, beta):
        self.check(
            ("--family", "jacobi", f"--alpha={alpha}", f"--beta={beta}"),
            lambda n: families.jacobi_classical(n, Fraction(alpha), Fraction(beta)),
        )

    @pytest.mark.parametrize("L", (0, 1))
    def test_lacunary_oracle_json(self, L):
        closed = lacunary.multisection_oracle(
            lambda n: families.sj_closed_mm(n, 0), 2, L, 4
        )
        code, out, _ = run_cli(
            "lacunary", "--family", "sj", "--K", "2", "--L", str(L),
            "--order", "4", "--format", "json",
        )
        assert code == 0
        assert out == jsonio.dumps(series_to_obj(closed, "lambda")) + "\n"


@pytest.mark.parametrize(
    "alpha, beta", [("0", "0"), ("1/2", "-1/3"), ("3/2", "2")]
)
def test_jacobi_matches_sympy(alpha, beta):
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    a, b = sympy.Rational(alpha), sympy.Rational(beta)
    for n in range(13):
        code, out, _ = run_cli(
            "poly", "--family", "jacobi", "--n", str(n), f"--alpha={alpha}",
            f"--beta={beta}", "--format", "json",
        )
        assert code == 0
        want = Poly.zero(("x",))
        for (k,), c in sympy.Poly(sympy.jacobi(n, a, b, x), x).terms():
            want = want + monomial(Fraction(int(c.p), int(c.q)), x=k)
        assert poly_from_obj(json.loads(out)) == want, n


class TestNegativeRationals:
    @pytest.mark.parametrize(
        "line",
        [
            "poly --family sj-beta --n 2 --beta=-1/2",
            "poly --family jacobi --n 3 --alpha=-1/3 --beta=-1/2",
            "poly --family jacobi --n 2 --alpha=-.5 --format json",
            "poly --family sj --n 1 --gamma=-3/4",
            "egf --family sj-beta-shifted --order 2 --beta=-1/2",
            "poly --family sj-beta --n 2 --beta=-1",
        ],
    )
    def test_space_form_equals_equals_form(self, line):
        joined = run_cli(*line.split())
        spaced = run_cli(*line.replace("=", " ").split())
        assert spaced == joined
        assert spaced[0] == (1 if line.endswith("=-1") else 0)

    def test_missing_value_still_rejected(self):
        code, _, err = run_cli("poly", "--family", "sj-beta", "--n", "2", "--beta")
        assert code == 1
        assert "expected one argument" in err


class TestJsonRoundTrip:
    def test_cli_emission_round_trips_byte_identical(self):
        code, out, _ = run_cli(
            "poly", "--family", "sj", "--n", "8", "--format", "json"
        )
        assert code == 0
        parsed = json.loads(out)
        rendered = jsonio.dumps(poly_to_obj(poly_from_obj(parsed)))
        assert rendered + "\n" == out

    def test_pi_carrying_poly_round_trips(self):
        p = Poly.const(ExactScalar(Fraction(-3, 7), 1)) + monomial(
            ExactScalar(Fraction(2, 5), 1), x=3
        )
        obj = poly_to_obj(p)
        assert poly_from_obj(json.loads(jsonio.dumps(obj))) == p

    def test_series_emission(self):
        code, out, _ = run_cli(
            "egf", "--family", "hermite", "--order", "3", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["order"] == 3
        assert len(obj["coefficients"]) == 4


class TestLacunaryVerb:
    def test_check_passes(self):
        code, out, _ = run_cli(
            "lacunary", "--family", "sj", "--K", "2", "--L", "0",
            "--order", "2", "--check",
        )
        assert code == 0
        assert "closed-form == oracle: PASS" in out

    def test_check_shifted(self):
        code, out, _ = run_cli(
            "lacunary", "--family", "hermite", "--K", "3", "--L", "2",
            "--order", "2", "--check",
        )
        assert code == 0
        assert "PASS" in out

    def test_table_output(self, golden):
        code, out, _ = run_cli(
            "lacunary", "--family", "sj", "--K", "2", "--L", "1", "--order", "1"
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "lambda^0: x"
        assert lines[1] == "lambda^1: " + golden[("sj", 3)].text()

    def test_check_builds_only_the_slice(self, monkeypatch):
        # the L = 0 slice is the closed form; the proliferated sj closed
        # form is a cross-check, never the production path
        def refuse(K, order):
            raise AssertionError("sj closed form built")

        monkeypatch.setattr(lacunary, "_sj_closed_nums", refuse)
        code, out, err = run_cli(
            "lacunary", "--family", "sj", "--K", "3", "--L", "0",
            "--order", "4", "--check",
        )
        assert (code, out, err) == (0, "closed-form == oracle: PASS\n", "")

    def test_check_failure_reports_first_mismatch(self, monkeypatch):
        real = lacunary._closed_nums

        def one_wrong_coefficient(K, order):
            den, nums = real(K, order)
            nums[2, 0, 0] = nums.get((2, 0, 0), 0) + den  # + 1 at lambda^2
            return den, nums

        monkeypatch.setattr(lacunary, "_closed_nums", one_wrong_coefficient)
        code, out, err = run_cli(
            "lacunary", "--family", "hermite", "--K", "2", "--order", "3", "--check"
        )
        assert (code, err) == (2, "")
        assert out == (
            "closed-form == oracle: FAIL\n"
            "  first mismatch at lambda^2: closed=1/2 x^4 + 6 x^2 z + 6 z^2 + 1 "
            "oracle=1/2 x^4 + 6 x^2 z + 6 z^2\n"
        )

    def test_check_catches_a_broken_raising_step(self, monkeypatch):
        real, real_closed, dens = lacunary._raise_nums, lacunary._closed_nums, []

        def closed(K, order):
            den, nums = real_closed(K, order)
            dens.append(den)
            return den, nums

        def one_wrong_numerator(nums, L):
            out = dict(real(nums, L))
            out[min(out)] += dens[-1]  # + 1 at the least key, lambda^0 z
            return out

        monkeypatch.setattr(lacunary, "_closed_nums", closed)
        monkeypatch.setattr(lacunary, "_raise_nums", one_wrong_numerator)
        code, out, err = run_cli(
            "lacunary", "--family", "hermite", "--K", "2", "--L", "2",
            "--order", "2", "--check",
        )
        assert (code, err) == (2, "")
        assert out == (
            "closed-form == oracle: FAIL\n"
            "  first mismatch at lambda^0: closed=x^2 + 3 z oracle=x^2 + 2 z\n"
        )

    def test_check_catches_a_broken_sj_image(self, monkeypatch):
        real = connect._image_grade

        def one_wrong_numerator(vars, den, nums):
            vars, den, image = real(vars, den, nums)
            image[0, 2] += den // 2  # + 1/2 at lambda^0 x^2
            return vars, den, image

        monkeypatch.setattr(connect, "_image_grade", one_wrong_numerator)
        argv = ("lacunary", "--K", "2", "--L", "2", "--order", "2", "--check")
        code, out, err = run_cli(*argv, "--family", "sj")
        assert (code, err) == (2, "")
        assert out == (
            "closed-form == oracle: FAIL\n"
            "  first mismatch at lambda^0: closed=3/2 x^2 - 1 oracle=x^2 - 1\n"
        )
        # the family table gives the Hermite row the identity, not this image
        assert run_cli(*argv, "--family", "hermite") == (
            0, "closed-form == oracle: PASS\n", "")

    def test_one_image_factor_reaches_the_check_and_the_egf(
            self, monkeypatch, cold_sj_family):
        # the running product's m = 1 factor -2 (2N-3) made -2 (2N-1); of
        # W_M / W_m only W_M / W_0 carries it.  lacunary --check reads the
        # chain on both sides, the closed form's image and the oracle's
        # sj_family, so the recurrence check is the one that sees it
        real = families._image_ratios

        def one_factor_off(N, M):
            r = real(N, M)
            if M:
                r[0] = r[0] // (2 * N - 3) * (2 * N - 1)
            return r

        monkeypatch.setattr(families, "_image_ratios", one_factor_off)
        assert run_cli("poly", "--family", "sj", "--n", "4") == (
            0, "x^4 - 6/7 x^2 + 1/7\n", "")  # x^4 - 6/5 x^2 + 1/5 unpatched
        code, out, err = run_cli("verify", "--suite", "opcalc")
        assert (code, err) == (2, "") and RECURRENCE_FAIL in out.splitlines()
        for N in range(2, 13):
            umbral_form = families.sj_umbral(N) * Fraction(1, math.factorial(N))
            assert families.sj_egf_coeff(N) != umbral_form, N

    def test_every_image_factor_reaches_the_recurrence_check(
            self, monkeypatch, cold_sj_family):
        # every factor -2 (2N-2m-1) of the running product made -3 (2N-2m-1),
        # so W_M / W_m gains (3/2)^(M-m): a chain that is wrong yet consistent
        real = families._image_ratios
        monkeypatch.setattr(families, "_image_ratios", lambda N, M: [
            w * 3 ** (M - m) // 2 ** (M - m) for m, w in enumerate(real(N, M))])
        assert run_cli("poly", "--family", "sj", "--n", "4") == (
            0, "x^4 - 4/5 x^2 + 4/45\n", "")
        code, out, err = run_cli("verify")
        assert (code, err) == (2, "") and RECURRENCE_FAIL in out.splitlines()

    @pytest.mark.parametrize("fmt", ["json", "latex"])
    def test_check_refuses_other_formats(self, fmt):
        # the verdict is one text line; --format applies to the oracle table
        code, out, err = run_cli(
            "lacunary", "--family", "sj", "--K", "2", "--L", "1",
            "--order", "2", "--check", "--format", fmt,
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: --check ") and err.count("\n") == 1


class TestExitCodes:
    def test_unknown_family_is_usage_error(self):
        code, _, err = run_cli("poly", "--family", "gegenbauer", "--n", "2")
        assert code == 1
        assert "error" in err

    def test_negative_degree(self):
        code, _, err = run_cli("poly", "--family", "sj", "--n", "-2")
        assert code == 1

    def test_malformed_rational(self):
        code, _, err = run_cli(
            "poly", "--family", "sj-beta", "--n", "2", "--beta", "half"
        )
        assert code == 1
        assert "rational" in err

    @pytest.mark.parametrize("beta", [["--beta=1e400"], ["--beta", "2E3"]])
    def test_exponent_notation_refused(self, beta):
        # Fraction would expand the exponent into an unbounded integer
        code, out, err = run_cli("poly", "--family", "sj-beta", "--n", "2", *beta)
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_domain_error_maps_to_one(self):
        code, _, err = run_cli(
            "poly", "--family", "jacobi", "--n", "2", "--alpha", "-1"
        )
        assert code == 1

    def test_missing_verb(self):
        code, _, err = run_cli()
        assert code == 1

    def test_verify_unknown_suite(self):
        code, _, err = run_cli("verify", "--suite", "nonsense")
        assert code == 1
        assert "unknown suite" in err

    def test_verification_failure_exits_two(self, monkeypatch):
        def broken_suite():
            return [("always fails", lambda: "injected failure")]

        monkeypatch.setitem(verify.SUITES, "scalar", broken_suite)
        code, out, _ = run_cli("verify", "--suite", "scalar")
        assert code == 2
        assert "[FAIL]" in out

    def test_shared_check_catches_a_broken_construction(self, monkeypatch):
        # verify and criterion 03 run one definition of the four-way check
        real = opcalc.exp_resolvent_sj
        monkeypatch.setattr(opcalc, "exp_resolvent_sj",
                            lambda n: real(n) + 1 if n == 5 else real(n))
        code, out, _ = run_cli("verify", "--suite", "opcalc")
        assert code == 2
        assert ("[FAIL] opcalc: four-way construction equality: constructions "
                "disagree at n=5\n") in out
        assert verify.four_way(range(31)) == "constructions disagree at n=5"

    # a one-coefficient error in each integer kernel that verify checks
    def test_verify_catches_a_broken_binomial_basis_sum(self, monkeypatch):
        real = families._binomial_basis_sum

        def broken(n, coeff, scale):
            p = real(n, coeff, scale)
            return p + Poly.var("x", n - 1) if n == 3 else p

        monkeypatch.setattr(families, "_binomial_basis_sum", broken)
        code, out, _ = run_cli("verify", "--suite", "opcalc")
        assert code == 2
        assert ("[FAIL] opcalc: resolvent equals closed form: resolvent vs closed "
                "form differ at n=3\n") in out

    def test_verify_catches_a_broken_inverse_step(self, monkeypatch):
        # the series' step on the stored integers, from the first term x^5
        real = opcalc._step

        def broken(nums, r, w2, w1, made, factor):
            out = real(nums, r, w2, w1, made, factor)
            return [(e, 2 * x, *f) for e, x, *f in out] if nums == {5: 1} else out

        monkeypatch.setattr(opcalc, "_step", broken)
        code, out, _ = run_cli("verify", "--suite", "opcalc")
        assert code == 2
        assert ("[FAIL] opcalc: resolvent equals closed form: resolvent vs closed "
                "form differ at n=5\n") in out

    def test_verify_catches_a_broken_sj_weight(self, monkeypatch):
        # A_{4,2} = 6/5 read one numerator off: 3457/2880
        real = connect._sj_weight

        def broken(M, n):
            num, den = real(M, n)
            return (num + 1, den) if (M, n) == (4, 2) else (num, den)

        monkeypatch.setattr(connect, "_sj_weight", broken)
        code, out, _ = run_cli("verify", "--suite", "connect")
        assert code == 2
        assert ("[FAIL] connect: monomial reconstruction: "
                "x^4 reconstruction fails (sj)\n") in out
        assert ("[FAIL] connect: biorthogonality: contraction != delta at "
                "(M,L)=(4,0), sj\n") in out
        assert ("[FAIL] connect: Gaussian pairing: Gaussian pairing misses "
                "exp(alpha beta) (sj)\n") in out

    def test_verify_catches_a_broken_hermite_weight(self, monkeypatch):
        # A_{4,2} = -12 z read as -11 z: the z^2 terms of the contraction at
        # (4, 0) no longer cancel, so the entry fails as a wrong constant does
        real = connect.hermite_connection

        def broken(M, n):
            w = real(M, n)
            return w + Poly.var("z") if (M, n) == (4, 2) else w

        monkeypatch.setattr(connect, "hermite_connection", broken)
        code, out, _ = run_cli("verify", "--suite", "connect")
        assert code == 2
        assert ("[FAIL] connect: monomial reconstruction: x^4 reconstruction "
                "fails (hermite)\n") in out
        assert ("[FAIL] connect: biorthogonality: contraction != delta at "
                "(M,L)=(4,0), hermite\n") in out
        assert ("[FAIL] connect: Gaussian pairing: Gaussian pairing misses "
                "exp(alpha beta) (hermite)\n") in out

    def test_verify_catches_a_two_term_hermite_weight(self, monkeypatch):
        # A_{2,0} = -2 z read as -2 z + 1, a weight of two terms: the z
        # powers of the contraction at (2, 0) cancel and leave 1
        real = connect.hermite_connection

        def broken(M, n):
            w = real(M, n)
            return w + 1 if (M, n) == (2, 0) else w

        monkeypatch.setattr(connect, "hermite_connection", broken)
        code, out, _ = run_cli("verify", "--suite", "connect")
        assert code == 2
        assert ("[FAIL] connect: monomial reconstruction: x^2 reconstruction "
                "fails (hermite)\n") in out
        assert ("[FAIL] connect: biorthogonality: contraction != delta at "
                "(M,L)=(2,0), hermite\n") in out
        assert ("[FAIL] connect: Gaussian pairing: Gaussian pairing misses "
                "exp(alpha beta) (hermite)\n") in out

    def test_verify_catches_a_broken_diagonal_rule(self, monkeypatch):
        # the resolvent factor of degree 4 at (-1, -1) takes -9 for -10 at d = 2
        real = opcalc._resolvent_factor

        def broken(n, alpha, beta):
            op = real(n, alpha, beta)
            if n != 4:
                return op

            def rule(d):
                num, den = op.rule(d)
                return (num + den, den) if d == 2 else (num, den)

            return opcalc.DiagonalOp(rule, op.kernel)

        monkeypatch.setattr(opcalc, "_resolvent_factor", broken)
        code, out, _ = run_cli("verify", "--suite", "opcalc")
        assert code == 2
        assert ("[FAIL] opcalc: resolvent equals closed form: resolvent vs closed "
                "form differ at n=4\n") in out
        assert ("[FAIL] opcalc: (1-x^2) d^2 eigenequation: eigenequation fails "
                "at n=4, beta=-1\n") in out
        assert ("[FAIL] opcalc: four-way construction equality: constructions "
                "disagree at n=4\n") in out

    def test_verify_catches_a_broken_sj_umbral_weight(self, monkeypatch):
        # the transform weight of every term of sj_umbral(5), the ones with
        # the v-exponent 9/2, off by one
        real = umbral._weight

        def broken(t):
            w = real(t)
            if w is None or dict(t.v_exps).get("v") != HalfInt(9):
                return w
            num, den, grade = w
            return num + den, den, grade

        monkeypatch.setattr(umbral, "_weight", broken)
        code, out, _ = run_cli("verify", "--suite", "opcalc")
        assert code == 2
        assert ("[FAIL] opcalc: four-way construction equality: constructions "
                "disagree at n=5\n") in out

    def test_verify_catches_a_broken_transform_weight(self, monkeypatch):
        real = umbral._weight

        def broken(t):
            w = real(t)
            if w is None or HalfInt(6) not in dict(t.v_exps).values():
                return w
            num, den, grade = w
            return num + den, den, grade  # the weight of v^3 is off by one

        monkeypatch.setattr(umbral, "_weight", broken)
        code, out, _ = run_cli("verify", "--suite", "umbral")
        assert code == 2
        assert ("[FAIL] umbral: Bessel umbral image: Bessel image truncation "
                "fails at n=0, top=4\n") in out


LONG = "9" * 100 + "/" + "7" * 99 + "8"  # coprime, so it does not reduce
TOP = 2**64 - 1  # the largest numerator or denominator accepted


@pytest.mark.parametrize("line, code", [
    # each of these three ended in CPython's 4300-digit ValueError
    ("egf --family sj-beta-shifted --order 64 --beta 4001/2", 1),
    (f"poly --family sj-beta --n 64 --beta {LONG}", 1),
    (f"poly --family jacobi --n 64 --alpha {LONG} --beta 1/3", 1),
    (f"poly --family sj --n 1 --gamma -{TOP}/{TOP - 1}", 0),
    (f"poly --family sj --n 1 --gamma {TOP + 1}", 1),
    (f"poly --family sj --n 1 --gamma 1/{TOP + 1}", 1),
    ("egf --family sj-beta-shifted --order 2 --beta 1000", 0),
    ("egf --family sj-beta-shifted --order 2 --beta 2001/2", 1),
])
def test_rational_parameter_domain(line, code):
    got, out, err = run_cli(*line.split())
    assert got == code, err
    if code:
        assert out == "" and err.startswith("error: ") and err.count("\n") == 1


class TestMaxOrderCap:
    def test_env_cap_enforced(self, monkeypatch):
        monkeypatch.setenv("SJK_MAX_ORDER", "3")
        code, _, err = run_cli("egf", "--family", "sj", "--order", "5")
        assert code == 1
        assert "SJK_MAX_ORDER" in err

    def test_cap_counts_lacunary_reach(self, monkeypatch):
        monkeypatch.setenv("SJK_MAX_ORDER", "10")
        code, _, err = run_cli(
            "lacunary", "--family", "sj", "--K", "4", "--L", "3", "--order", "2"
        )
        assert code == 1

    def test_cap_bounds_lacunary_k_at_order_zero(self, monkeypatch):
        # K * order + L is 0 here; K alone must still be capped
        monkeypatch.delenv("SJK_MAX_ORDER", raising=False)
        assert run_cli(
            "lacunary", "--family", "hermite", "--K", "65", "--order", "0", "--check"
        ) == (1, "", "error: K 65 exceeds SJK_MAX_ORDER = 64\n")

    @pytest.mark.parametrize("argv", [
        ("lacunary", "--family", "sj", "--K", "2", "--L", "1", "--order", "3",
         "--check"),
        ("lacunary", "--family", "hermite", "--K", "65", "--order", "0"),
        ("react", "--N0", "4", "--t-order", "3"),
        ("react", "--N0", "4", "--t-order", "65"),
    ])
    def test_cap_is_read_once_per_request(self, monkeypatch, argv):
        # every check of one request compares with the one value read
        reads = []

        def counting():
            reads.append(1)
            return real()

        real = cli._max_order
        monkeypatch.setattr(cli, "_max_order", counting)
        run_cli(*argv)
        assert reads == [1]

    def test_default_cap_allows_normal_use(self, monkeypatch):
        monkeypatch.delenv("SJK_MAX_ORDER", raising=False)
        code, _, _ = run_cli("egf", "--family", "sj", "--order", "8")
        assert code == 0

    def test_bad_cap_value(self, monkeypatch):
        monkeypatch.setenv("SJK_MAX_ORDER", "lots")
        code, _, err = run_cli("egf", "--family", "sj", "--order", "2")
        assert code == 1

    def test_negative_cap_value(self, monkeypatch):
        monkeypatch.setenv("SJK_MAX_ORDER", "-1")
        code, out, err = run_cli("poly", "--family", "sj", "--n", "0")
        assert (code, out) == (1, "")
        assert err == "error: SJK_MAX_ORDER must be >= 0, got '-1'\n"
        monkeypatch.setenv("SJK_MAX_ORDER", "0")
        assert run_cli("poly", "--family", "sj", "--n", "0") == (0, "1\n", "")

    def test_raised_cap_past_printable_digits(self, monkeypatch):
        # a coefficient of more digits than CPython converts to text
        monkeypatch.setenv("SJK_MAX_ORDER", "1000")
        code, out, err = run_cli(
            "poly", "--family", "jacobi", "--n", "220",
            "--alpha", "18446744073709551615/18446744073709551614",
            "--beta", "18446744073709551614/18446744073709551615",
        )
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "SJK_MAX_ORDER (now 1000)" in err


class TestOtherVerbs:
    def test_connect_rows(self):
        code, out, _ = run_cli("connect", "--family", "sj", "--M", "3")
        assert code == 0
        assert "A[3,1] = 1" in out
        assert "A[3,3] = 1" in out

    def test_connect_sj_latex_weights(self):
        code, out, _ = run_cli("connect", "--family", "sj", "--M", "4",
                               "--format", "latex")
        assert code == 0
        assert out.splitlines() == [
            "A[4,0] = 1", "A[4,1] = 0", r"A[4,2] = \frac{6}{5}",
            "A[4,3] = 0", "A[4,4] = 1",
        ]
        code, text, _ = run_cli("connect", "--family", "sj", "--M", "4")
        assert text == out.replace(r"\frac{6}{5}", "6/5")

    def test_connect_hermite_json(self):
        code, out, _ = run_cli(
            "connect", "--family", "hermite", "--M", "4", "--format", "json"
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["M"] == 4
        assert len(obj["weights"]) == 5

    def test_react(self):
        code, out, _ = run_cli("react", "--N0", "2", "--t-order", "2")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "t^0: x^2"
        assert lines[1] == "t^1: -2 x^2 + 2"

    def test_table(self, golden):
        code, out, _ = run_cli("table", "--family", "hermite", "--max-n", "4")
        assert code == 0
        assert out.strip().splitlines()[4] == "4: " + golden[("hermite", 4)].text()

    def test_table_looks_up_the_source_per_request(self, monkeypatch):
        # a wrapper rebound in the module, as perfbench/spans.py installs
        # its spans, sees every call: the family table keeps no reference
        calls = []
        real = connect.sj_family

        def counting(n):
            calls.append(n)
            return real(n)

        monkeypatch.setattr(connect, "sj_family", counting)
        code, _, err = run_cli("table", "--family", "sj", "--max-n", "3")
        assert (code, err, calls) == (0, "", [0, 1, 2, 3])

    def test_verify_all_green(self):
        code, out, _ = run_cli("verify")
        assert code == 0
        assert "[FAIL]" not in out

    def test_verify_has_no_jobs_option(self):
        code, out, err = run_cli("verify", "--jobs", "2")
        assert (code, out) == (1, "")
        assert err.startswith("error: ") and err.count("\n") == 1


# SHA-256 of stdout of large outputs, so that a change to any digit, term
# or term order in them shows, and of the verify report, whose checks the
# tests also run at larger sizes.
LARGE_OUTPUT_DIGESTS = {
    "egf --family hermite --order 64 --format text":
        "e7402e840caa178a6949ae26bf27c99d59ffcb62462906ee15488bd757a3d149",
    "egf --family hermite --order 64 --format latex":
        "97d3a1165a0ded2fddb3ee3ad9ce5dc9fe435f2841fe9f2c4441a61d57b622a1",
    "egf --family hermite --order 64 --format json":
        "7807e43aecce68f8463621ed3d3569316bff8897ab676c96e283b7625a686b23",
    "table --family hermite --max-n 64":
        "8d9af9fc9a3c4451c990ef46805fe93db2a9afccacca68a404c331bb5d8ba502",
    "egf --family sj --order 24":
        "ee7f1b87afce61936be4375fed2a718b9263fd038c1e0073eba9228602024329",
    "connect --family hermite --M 64 --format text":
        "5c51bac8748c25814e74ae8a0cc947468322a8dd143a0d01071b4256e05ad9c8",
    "connect --family hermite --M 64 --format latex":
        "f847041b29f20a44dff6a7adb1121499bf3def676301d75dfe1414ab366c6215",
    "connect --family hermite --M 64 --format json":
        "551940f9f51c3bdc6507c17dd78ac73fe533c7006d55081bebde74b54c6b565b",
    "connect --family sj --M 64 --format text":
        "c4cc90bf07061e5f107a345b6a07d56036d5b0102e743b471a3f0076fbd89cd6",
    "connect --family sj --M 64 --format latex":
        "7fcaf8a5ef026e3572ce41de360b54492ad8c927bcdc361b0e65a9264ec04a11",
    "connect --family sj --M 64 --format json":
        "3873c453bd926f562725d16c244229230a28ca9b864ceb5928d5db8629e4e9d1",
    "verify":
        "700cd671c18d20e834620348b9362a005426e09dd20868560821679616fd89c1",
    "verify --suite lacunary --suite connect":
        "cf7dc04d6536ae852feafcd8cf1f46e2619366ae9f27b2e852a12453d9835863",
}


# Requests whose parameters are all integers: every rational they meet is
# an integer pair, so none of them makes a Fraction.
FRACTION_FREE = [
    *(("lacunary", "--family", family, "--K", str(K), "--L", str(L),
       "--order", str((16 - L) // K), "--check")
      for family in connect.FAMILIES for K in (1, 2, 3, 4) for L in range(4)),
    *((verb, "--family", family, size, "12", "--format", fmt)
      for verb, size in (("poly", "--n"), ("egf", "--order"), ("table", "--max-n"))
      for family in ("sj", "hermite") for fmt in FORMATS),
    ("poly", "--family", "sj", "--n", "1"),
    *(("react", "--N0", "10", "--t-order", "6", "--format", fmt) for fmt in FORMATS),
]


@pytest.mark.parametrize("argv", FRACTION_FREE, ids=" ".join)
def test_request_makes_no_fraction(argv, monkeypatch):
    families.sj_family.cache_clear()
    families.hermite_family.cache_clear()
    made = []
    new = Fraction.__new__

    def counting(cls, *args, **kwargs):
        made.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    code, out, err = run_cli(*argv)
    monkeypatch.undo()
    assert (code, err) == (0, "") and out
    assert made == []


# (-1,-1) requests of every verb but egf and verify; poly, table and
# lacunary read the members from sj_family
SJ_MEMBER_REQUESTS = [
    *(("poly", "--family", "sj", "--n", n) for n in ("0", "4", "64")),
    ("poly", "--family", "sj", "--n", "0", "--format", "json"),  # over x
    ("table", "--family", "sj", "--max-n", "12"),
    ("connect", "--family", "sj", "--M", "13"),
    ("react", "--N0", "7", "--t-order", "3"),
    ("lacunary", "--family", "sj", "--K", "2", "--L", "1", "--order", "8"),
    *(("lacunary", "--family", "sj", "--K", K, "--L", L, "--order", "6", "--check")
      for K, L in (("1", "3"), ("2", "1"), ("3", "2"))),
]


@pytest.mark.parametrize("argv", SJ_MEMBER_REQUESTS, ids=" ".join)
def test_sj_members_are_not_the_recurrence(argv, monkeypatch, cold_sj_family):
    # the (-1,-1) members have one production construction, the image
    # chain; jacobi_monic at (-1, -1) is a cross-check that no request runs
    want = run_cli(*argv)
    families.sj_family.cache_clear()
    real = families.jacobi_monic

    def refuse(n, alpha, beta, *lead):
        if (alpha, beta) == (-1, -1):
            raise AssertionError("jacobi_monic(n, -1, -1) ran")
        return real(n, alpha, beta, *lead)

    monkeypatch.setattr(families, "jacobi_monic", refuse)
    assert run_cli(*argv) == want


@pytest.mark.parametrize("line", sorted(LARGE_OUTPUT_DIGESTS))
def test_large_output_pinned(line):
    code, out, err = run_cli(*line.split())
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == LARGE_OUTPUT_DIGESTS[line]


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "sjk", "poly", "--family", "sj", "--n", "2"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "x^2 - 1"


def test_package_root_holds_only_the_version():
    # a fresh process, so no submodule imported by another test is counted
    root = Path(__file__).resolve().parent.parent
    code = (
        f"import json, sys; sys.path.insert(0, {str(root / 'src')!r}); import sjk; "
        "print(json.dumps([sjk.__file__, sjk.__version__, "
        "sorted(n for n in vars(sjk) if not n.startswith('_'))]))"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    path, version, public = json.loads(proc.stdout)
    assert Path(path).parent == root / "src" / "sjk"
    assert public == []
    pyproject = (root / "pyproject.toml").read_text()
    assert version == re.search(r'^version = "(.*)"$', pyproject, re.M)[1]


def run_fresh(*argv):
    """argv as the first request of a new `python -m sjk` process."""
    proc = subprocess.run(
        [sys.executable, "-m", "sjk", *argv], capture_output=True, text=True
    )
    return proc.returncode, proc.stdout, proc.stderr


@pytest.mark.parametrize("line, want", [
    ("poly --fam sj --n 3", (0, "x^3 - x\n", "")),
    ("poly --family=sj --n=2 --n 3", (0, "x^3 - x\n", "")),
    ("poly --f sj --n 3",
     (1, "", "error: ambiguous option: --f could match --family, --format\n")),
    ("lacunary --family sj --K 2 --order 3 --check=1",
     (1, "", "error: argument --check: ignored explicit argument '1'\n")),
    ("poly --family --n 3",
     (1, "", "error: argument --family: expected one argument\n")),
    ("poly --family sj-beta --n 2 --beta -x",
     (1, "", "error: argument --beta: expected one argument\n")),
    ("poly --family sj --n -1", (1, "", "error: --n must be >= 0\n")),
    ("poly --family sj --n 2 -- 3", (1, "", "error: unrecognized arguments: -- 3\n")),
    ("poly -x --family sj --n 2 -hx",
     (1, "", "error: unrecognized arguments: -x -hx\n")),
])
def test_command_line_forms(line, want):
    # the forms the README lists
    assert run_cli(*line.split()) == want


def test_no_option_string_is_a_prefix_of_another():
    # cli._classify reads '--help=x' and '--n=3' by prefix, so such a pair of
    # option strings would make the first one ambiguous
    for _, _, opts in cli._VERBS.values():
        names = ["-h", "--help", *opts]
        pairs = [(a, b) for a in names for b in names if a != b and b.startswith(a)]
        assert pairs == []


def test_cli_import_keeps_heavy_stdlib_modules_out():
    # a fresh `import sjk.cli` is the cold-start cost of every shell call,
    # and each of these modules would add milliseconds to it; requests that
    # take no rational option run without fractions too
    root = Path(__file__).resolve().parent.parent
    requests = ["egf --family sj --order 8",
                "lacunary --family sj --K 3 --L 1 --order 6 --check",
                "connect --family hermite --M 6", "table --family sj --max-n 5"]
    code = (f"import io, sys; sys.path.insert(0, {str(root / 'src')!r}); "
            "before = set(sys.modules); import sjk.cli; "
            "print(*sorted(set(sys.modules) - before)); "
            f"codes = [sjk.cli.run(r.split(), io.StringIO()) for r in {requests!r}]; "
            "print(*codes, 'fractions' in sys.modules)")
    proc = subprocess.run([sys.executable, "-I", "-c", code], capture_output=True,
                          text=True)
    assert proc.returncode == 0, proc.stderr
    imported, ran = proc.stdout.splitlines()
    loaded = {name.partition(".")[0] for name in imported.split()}
    assert "sjk" in loaded
    assert not loaded & {"argparse", "logging", "dataclasses", "json", "inspect",
                         "fractions", "decimal", "numbers"}
    assert ran == "0 0 0 0 False"


class TestSharedParser:
    # the option tables are shared; each call gets a fresh --suite list
    # and the defaults
    @pytest.mark.parametrize("first, second", [
        # an append action after an earlier append
        ("verify --suite scalar", "verify --suite hyper"),
        # defaults after a request that set the option
        ("poly --family sj --n 1 --gamma 1/2", "poly --family sj --n 1"),
        ("egf --family sj-beta-shifted --order 3 --beta -1/2",
         "egf --family sj-beta-shifted --order 3"),
        # a valid request after a refused one
        ("poly --family nope --n 2", "poly --family sj --n 2"),
    ])
    def test_no_state_between_calls(self, first, second):
        for line in (first, second):
            assert run_cli(*line.split()) == run_fresh(*line.split())


class TestHelp:
    @pytest.mark.parametrize("line", ["--help", "poly --help", "lacunary -h"])
    def test_help_is_written_to_out(self, line):
        code, out, err = run_cli(*line.split())
        assert (code, err) == (0, "")
        assert out.startswith("usage: sjk")
        # a shell call keeps its bytes and exit code
        assert run_fresh(*line.split()) == (code, out, err)

    @pytest.mark.parametrize("verb", sorted(cli._VERBS))
    def test_help_names_every_option(self, verb):
        code, out, _ = run_cli(verb, "-h")
        assert code == 0
        assert [name for name in cli._VERBS[verb][2] if name not in out] == []

    @pytest.mark.parametrize("line", ["-h", "poly -h"])
    def test_help_does_not_depend_on_the_terminal_width(self, line):
        def shell_call(columns):
            env = {**os.environ, "COLUMNS": columns}
            return subprocess.run([sys.executable, "-m", "sjk", *line.split()],
                                  capture_output=True, text=True, env=env).stdout

        assert shell_call("40") == shell_call("200")

    def test_requests_after_help(self):
        assert run_cli("poly", "--help")[0] == 0
        assert run_cli("poly", "--family", "sj", "--n", "2") == (0, "x^2 - 1\n", "")


# Random command lines: each verb with its required options, then a few
# extra options, flags or stray tokens, with values valid or not, and a few
# such tokens before the verb.  An option may be spelled as a prefix: "--fam"
# is --family, "--f" is --family or --format, ambiguous where both are options.
FUZZ_INT = ("0", "1", "2", "3", "7", "-1", "x")
FUZZ_RATIONAL = ("0", "1/2", "-1/2", "3", "1/0", "1e3", "x", "1000", "2001/2",
                 f"-{TOP}/{TOP - 1}", str(TOP + 1), LONG, "-.5", "-x")
FUZZ_VALUES = {
    "--family": ("sj", "sj-beta", "hermite", "jacobi", "sj-beta-shifted", "nope"),
    "--format": ("text", "json", "latex", "nope"),
    "--suite": ("scalar", "hyper", "nope"),
    **dict.fromkeys(("--n", "--order", "--K", "--L", "--M", "--N0", "--t-order",
                     "--max-n"), FUZZ_INT),
    **dict.fromkeys(("--alpha", "--beta", "--gamma"), FUZZ_RATIONAL),
}
FUZZ_PREFIXES = {"--fam": "--family", "--f": "--family", "--o": "--order",
                 "--bet": "--beta", "--t": "--t-order", "--s": "--suite"}
FUZZ_OPTIONS = {
    "poly": ("--family", "--n", "--alpha", "--beta", "--gamma", "--format"),
    "egf": ("--family", "--order", "--beta", "--format"),
    "lacunary": ("--family", "--K", "--L", "--order", "--format"),
    "connect": ("--family", "--M", "--format"),
    "react": ("--N0", "--t-order", "--format"),
    "table": ("--family", "--max-n", "--format"), "verify": ("--suite",), "nope": (),
}
FUZZ_REQUIRED = {
    "poly": ("--family", "--n"), "egf": ("--family", "--order"),
    "lacunary": ("--family", "--K", "--order"), "connect": ("--family", "--M"),
    "react": ("--N0",), "table": ("--family", "--max-n"), "verify": (), "nope": (),
}


def fuzz_extra(draw, verb) -> list:
    """An option of verb, or any option or prefix, with a value, repeated, or
    alone; a value alone; a flag; '--'; or --help."""
    anything = sorted(FUZZ_VALUES) + sorted(FUZZ_PREFIXES)
    option = draw(st.sampled_from(FUZZ_OPTIONS.get(verb) or anything)
                  | st.sampled_from(anything))
    values = st.sampled_from(FUZZ_VALUES[FUZZ_PREFIXES.get(option, option)])
    value, again = draw(values), draw(values)
    return draw(st.sampled_from((
        [option, value], [f"{option}={value}"], [option, value, option, again],
        ["--check"], ["--check=1"], [value], [option], ["--"], ["--help"],
    )))


@st.composite
def fuzz_argv(draw):
    verb = draw(st.sampled_from(sorted(FUZZ_REQUIRED)))
    argv = []
    for _ in range(draw(st.sampled_from((0, 0, 0, 1)))):
        argv += fuzz_extra(draw, None)
    argv.append(verb)
    for option in FUZZ_REQUIRED[verb]:
        argv += [option, draw(st.sampled_from(FUZZ_VALUES[option]))]
    for _ in range(draw(st.sampled_from((0, 0, 1, 2, 3)))):
        argv += fuzz_extra(draw, verb)
    return argv


def parsed(parse, argv):
    """The fields of the namespace that parse makes of argv, or its error."""
    try:
        return vars(parse(argv))
    except cli.UsageError as exc:
        return f"error: {exc}"


@settings(max_examples=200, deadline=None)
@given(st.lists(fuzz_argv(), min_size=1, max_size=4))
def test_fuzzed_command_lines_keep_the_exit_contract(argvs):
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("SJK_MAX_ORDER", "6")
        for argv in argvs:
            # the argparse parser the option tables replaced reads it alike
            assert parsed(cli._parse, argv) == parsed(cli_oracle.parse, argv), argv
            code, out, err = run_cli(*argv)
            assert code in (0, 1, 2), argv
            if code == 1:
                assert out == "", argv
                assert err.startswith("error: ") and err.count("\n") == 1, argv
