"""sympy as an independent oracle for the CLI's verbs.

Each output is read as a user reads it, through ``sjk.cli.run`` with
``--format json`` and ``poly_from_obj`` of tests/reference.py, and compared exactly with
a polynomial that sympy builds from its classical Jacobi polynomials:
``poly --family jacobi`` prints P^(alpha,beta)_n itself, and for n >= 1
the (-1, beta) Sobolev-Jacobi polynomial is the monic (x - 1)
P^(1,beta)_(n-1).  The cross-check constructions that
``sjk verify`` compares (the resolvent and exponential series of opcalc
and the umbral transform) have no verb; they are compared with the same
sympy polynomials directly.  The two-variable Hermite polynomials are
taken from their generating function exp(x lambda + z lambda^2), sympy's
ring series exponential.  ``table`` prints text rows in every format, so
its rows are read from the text.  The module skips itself when sympy is
absent.
"""

import io
import json
import re
import runpy
from fractions import Fraction
from functools import lru_cache
from math import factorial
from pathlib import Path

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.orthopolys import jacobi_poly  # noqa: E402
from sympy.polys.ring_series import rs_exp  # noqa: E402
from sympy.polys.rings import ring  # noqa: E402

from sjk import cli  # noqa: E402
from sjk.families import sj_umbral  # noqa: E402
from sjk.opcalc import exp_B_bivariate, exp_resolvent_sj, gp_series  # noqa: E402
from sjk.poly import Poly  # noqa: E402
from sjk.scalar import ExactScalar  # noqa: E402

from reference import poly_from_obj  # noqa: E402

X = sympy.Symbol("x")
# the corpus's rationals; BIG and NEAR_M1 have a 64-bit numerator and denominator
CORPUS = runpy.run_path(str(Path(__file__).parents[1] / "tools" / "corpus.py"))
BIG, NEAR_M1, RATIONALS = (CORPUS[k] for k in ("BIG", "NEAR_M1", "RATIONALS"))


def _json(*argv):
    out, err = io.StringIO(), io.StringIO()
    assert cli.run([*argv, "--format", "json"], out=out, err=err) == 0, err.getvalue()
    return json.loads(out.getvalue())


def _monic_sj_beta(n, beta):
    """Monic (x - 1) P^(1,beta)_(n-1) as a sympy Poly over QQ; 1 at n = 0."""
    if n == 0:
        return sympy.Poly(1, X, domain="QQ")
    p = sympy.Poly(X - 1, X, domain="QQ") * jacobi_poly(n - 1, 1, beta, X, polys=True)
    return p.monic()


def _as_poly(p, scale=ExactScalar(1)):
    """The sympy Poly p over QQ, times scale, as a Poly in x."""
    terms = {(k,): Fraction(int(c.p), int(c.q)) for (k,), c in p.terms()}
    return Poly(("x",), terms) * scale


@pytest.mark.parametrize("beta", ["-1/2", "1/3", "7/2"])
def test_sj_beta_polys_equal_jacobi_oracle(beta):
    b = sympy.Rational(beta)
    for n in range(65):
        got = poly_from_obj(
            _json("poly", "--family", "sj-beta", "--n", str(n), f"--beta={beta}"))
        assert got == _as_poly(_monic_sj_beta(n, b)), n


@pytest.mark.parametrize("n, alpha, beta", [
    *((4, a, b) for a in RATIONALS for b in ("0", "-1/2", BIG, NEAR_M1)),
    (64, "1/2", "-1/2"), (24, "-1/3", "2"), (32, BIG, NEAR_M1),
])
def test_jacobi_polys_equal_sympy_jacobi(n, alpha, beta):
    # the corpus's poly --family jacobi grid at n = 4, then larger degrees
    got = poly_from_obj(_json(
        "poly", "--family", "jacobi", "--n", str(n), f"--alpha={alpha}",
        f"--beta={beta}"))
    want = jacobi_poly(n, sympy.Rational(alpha), sympy.Rational(beta), X, polys=True)
    assert got == _as_poly(want)


def _shifted_scale(n, b):
    """C(2n+beta+1, n+1) / (n! Gamma(n+beta+2)) as an ExactScalar: at a
    half-odd beta the Gamma value carries one sqrt(pi), so the scale is a
    rational over sqrt(pi)."""
    value = sympy.binomial(2 * n + b + 1, n + 1) / (
        sympy.factorial(n) * sympy.gamma(n + b + 2))
    grade = -1 if b.q == 2 else 0
    rational = value * sympy.sqrt(sympy.pi) ** -grade
    assert rational.is_Rational, value
    return ExactScalar(Fraction(int(rational.p), int(rational.q)), grade)


@pytest.mark.parametrize("beta", ["-1/2", "1/2", "3"])
def test_shifted_beta_egf_equals_jacobi_oracle(beta):
    b = sympy.Rational(beta)
    obj = _json("egf", "--family", "sj-beta-shifted", "--order", "16", f"--beta={beta}")
    assert obj["order"] == 16
    for n, c in enumerate(obj["coefficients"]):
        want = _as_poly(_monic_sj_beta(n + 1, b), _shifted_scale(n, b))
        assert poly_from_obj(c) == want, n


def _monic_sj(n):
    """The (-1,-1) Sobolev-Jacobi polynomial: 1, x, then monic
    (x^2 - 1) P^(1,1)_(n-2) for n >= 2, as a sympy Poly over QQ."""
    if n < 2:
        return sympy.Poly(X**n, X, domain="QQ")
    p = sympy.Poly(X**2 - 1, X, domain="QQ") * jacobi_poly(n - 2, 1, 1, X, polys=True)
    return p.monic()


def _to_sympy(p):
    """A Poly in x with rational coefficients as a sympy Poly over QQ."""
    assert p.vars in ((), ("x",)), p.vars
    expr = sympy.Integer(0)
    for exps, c in p.terms.items():
        assert c.sqrt_pi_pow == 0, c
        expr += sympy.Rational(c.num, c.den) * X ** (exps[0] if exps else 0)
    return sympy.Poly(expr, X, domain="QQ")


def test_sj_egf_equals_jacobi_oracle():
    obj = _json("egf", "--family", "sj", "--order", "16")
    assert obj["order"] == 16
    for n, c in enumerate(obj["coefficients"]):
        want = _monic_sj(n) * sympy.Rational(1, sympy.factorial(n))
        assert _to_sympy(poly_from_obj(c)) == want, n


@pytest.mark.parametrize("M", [*range(25), 32, 40, 64])
def test_sj_connection_rebuilds_the_monomial(M):
    # sum_n w_n p_n = x^M, with the weights read from the JSON row and the
    # p_n built by sympy
    obj = _json("connect", "--family", "sj", "--M", str(M))
    assert [w["n"] for w in obj["weights"]] == list(range(M + 1))
    total = sympy.Poly(0, X, domain="QQ")
    for w in obj["weights"]:
        total += _monic_sj(w["n"]) * sympy.Rational(int(w["num"]), int(w["den"]))
    assert total == sympy.Poly(X**M, X, domain="QQ")


@lru_cache(maxsize=None)
def _hermite_ring(top):
    """(R, H): H[n] = H_n(x, z) for n <= top in sympy's ring R = QQ[x, z,
    lambda], n! times the lambda^n coefficient of exp(x lambda + z
    lambda^2), the ring series exponential truncated past lambda^top."""
    R, x, z, lam = ring("x z lambda", sympy.QQ)
    H = [R(0)] * (top + 1)
    for (a, b, n), c in rs_exp(x * lam + z * lam**2, lam, top + 1).terms():
        H[n] += c * factorial(n) * x**a * z**b
    return R, H


def _in_ring(R, p):
    """A Poly with rational coefficients over some of R's variables, as an
    element of R."""
    gens = {str(g): g for g in R.gens}
    out = R(0)
    for exps, c in p.terms.items():
        assert c.sqrt_pi_pow == 0, c
        term = R(sympy.QQ(c.num, c.den))
        for v, e in zip(p.vars, exps):
            term *= gens[v] ** e
        out += term
    return out


def test_hermite_polys_equal_the_generating_function():
    # poly --family hermite prints H_n(x, z), n! times the lambda^n
    # coefficient of exp(x lambda + z lambda^2), for every n up to the cap
    R, H = _hermite_ring(64)
    for n in range(65):
        got = poly_from_obj(_json("poly", "--family", "hermite", "--n", str(n)))
        assert _in_ring(R, got) == H[n], n


def test_hermite_egf_equals_the_generating_function():
    # egf --family hermite prints the lambda^n coefficients H_n / n!
    R, H = _hermite_ring(64)
    obj = _json("egf", "--family", "hermite", "--order", "64")
    assert (obj["parameter"], obj["order"]) == ("lambda", 64)
    for n, c in enumerate(obj["coefficients"]):
        assert _in_ring(R, poly_from_obj(c)) == H[n] * sympy.QQ(1, factorial(n)), n


def _read_text(R, text):
    """A Poly written as text, terms "c v^e ..." joined by " + " and " - ",
    c a signed integer or p/q, 1 when left out, as an element of sympy's
    ring R."""
    gens = {str(g): g for g in R.gens}
    row = R(0)
    for term in re.split(r" (?=[+-] )", text):
        sign, term = (-1, term[2:]) if term[:2] == "- " else (1, term.lstrip("+ "))
        coeff, *powers = term.split(" ")
        if not re.fullmatch(r"-?\d+(/\d+)?", coeff):
            coeff, powers = "1", [coeff, *powers]
        value = R(sign * sympy.QQ(*map(int, coeff.split("/"))))
        for power in powers:
            var, _, e = power.partition("^")
            value *= gens[var] ** int(e or 1)
        row += value
    return row


def _text(*argv):
    out, err = io.StringIO(), io.StringIO()
    assert (cli.run(list(argv), out=out, err=err), err.getvalue()) == (0, "")
    return out.getvalue()


def _table_rows(R, family):
    """The rows of `table --family family --max-n 64` as elements of
    sympy's ring R, read from the text: "n: " and then the Poly."""
    rows = []
    for n, line in enumerate(_text("table", "--family", family, "--max-n", "64")
                             .splitlines()):
        label, text = line.split(": ", 1)
        assert label == str(n)
        rows.append(_read_text(R, text))
    assert len(rows) == 65
    return rows


def test_hermite_table_equals_the_generating_function():
    R, H = _hermite_ring(64)
    assert _table_rows(R, "hermite") == H


def test_sj_table_equals_jacobi_oracle():
    R, x = ring("x", sympy.QQ)
    want = [R(_monic_sj(n).as_expr()) for n in range(65)]
    assert _table_rows(R, "sj") == want


@pytest.mark.parametrize("n", [0, 1, 2, 33, 64])
def test_sj_poly_text_equals_jacobi_oracle(n):
    # poly --family sj --n n read from its text; degree 0 is the constant 1,
    # whose text names no variable, and degree 1 is x
    R, x = ring("x", sympy.QQ)
    text = _text("poly", "--family", "sj", "--n", str(n))
    assert text.endswith("\n") and text.count("\n") == 1
    assert _read_text(R, text[:-1]) == R(_monic_sj(n).as_expr())
    assert (n > 0) == ("x" in text)


@pytest.mark.parametrize("M", range(21))
def test_hermite_connection_rebuilds_the_monomial(M):
    # sum_n w_n H_n = x^M, with the weights, polynomials in z, read from the
    # JSON row and the H_n built by sympy from their generating function
    R, H = _hermite_ring(20)
    obj = _json("connect", "--family", "hermite", "--M", str(M))
    assert [w["n"] for w in obj["weights"]] == list(range(M + 1))
    total = R(0)
    for w in obj["weights"]:
        total += _in_ring(R, poly_from_obj(w["poly"])) * H[w["n"]]
    assert total == R.gens[0] ** M


@pytest.mark.parametrize("N0", [0, 1, 2, 5, 8, 13, 16])
def test_react_solves_its_equation(N0):
    # P(0) = x^N0 and, t-coefficient by t-coefficient, dP/dt = (1 - x^2) P''
    t_order = 8
    obj = _json("react", "--N0", str(N0), "--t-order", str(t_order))
    assert (obj["parameter"], obj["order"]) == ("t", t_order)
    c = [_to_sympy(poly_from_obj(p)) for p in obj["coefficients"]]
    assert c[0] == sympy.Poly(X**N0, X, domain="QQ")
    one_minus_x2 = sympy.Poly(1 - X**2, X, domain="QQ")
    for j in range(t_order):
        assert c[j + 1] * (j + 1) == one_minus_x2 * c[j].diff(X).diff(X), j


@pytest.mark.parametrize("beta", ["-1", "-1/2", "1/3", "2"])
def test_resolvent_series_equals_jacobi_oracle(beta):
    # gp_series(n, -1, beta) is the (-1, beta) polynomial that
    # poly --family sj-beta prints
    b = sympy.Rational(beta)
    for n in range(2, 17):
        assert gp_series(n, -1, Fraction(beta)) == _as_poly(_monic_sj_beta(n, b)), n


def test_four_way_constructions_equal_jacobi_oracle():
    # the exponential resolvent, the umbral transform and the bivariate
    # exponential at y = 1 each give the (-1,-1) polynomial
    for n in range(2, 17):
        want = _monic_sj(n)
        assert _to_sympy(exp_resolvent_sj(n)) == want, n
        assert _to_sympy(sj_umbral(n)) == want, n
        assert _to_sympy(exp_B_bivariate(n).substitute("y", 1)) == want, n


@pytest.mark.parametrize("K, L, order", [(3, 0, 21), (2, 1, 31), (3, 2, 20)])
def test_sj_lacunary_equals_multisection_oracle(K, L, order):
    # the lacunary series sum_n lambda^n / n! p_(K n + L) against the
    # multisection of sympy's polynomials; --check holds its closed form
    # to the same series
    obj = _json("lacunary", "--family", "sj", "--K", str(K), "--L", str(L),
                "--order", str(order))
    assert (obj["parameter"], obj["order"]) == ("lambda", order)
    for n, c in enumerate(obj["coefficients"]):
        want = _monic_sj(K * n + L) * sympy.Rational(1, sympy.factorial(n))
        assert _to_sympy(poly_from_obj(c)) == want, n
    out, err = io.StringIO(), io.StringIO()
    argv = ["lacunary", "--family", "sj", "--K", str(K), "--L", str(L),
            "--order", str(order), "--check"]
    assert cli.run(argv, out=out, err=err) == 0, out.getvalue() + err.getvalue()
    assert out.getvalue() == "closed-form == oracle: PASS\n"


@pytest.mark.parametrize("K, L, order",
                         [(3, 0, 21), (2, 1, 31), (1, 3, 20), (4, 2, 15)])
def test_hermite_lacunary_equals_multisection_oracle(K, L, order):
    # sum_n lambda^n / n! H_(K n + L) against sympy's H_n from their
    # generating function; --check holds its closed form to the same series
    R, H = _hermite_ring(64)
    args = ["lacunary", "--family", "hermite", "--K", str(K), "--L", str(L),
            "--order", str(order)]
    obj = _json(*args)
    assert (obj["parameter"], obj["order"]) == ("lambda", order)
    for n, c in enumerate(obj["coefficients"]):
        want = H[K * n + L] * sympy.QQ(1, factorial(n))
        assert _in_ring(R, poly_from_obj(c)) == want, n
    out, err = io.StringIO(), io.StringIO()
    code = cli.run([*args, "--check"], out=out, err=err)
    assert code == 0, out.getvalue() + err.getvalue()
    assert out.getvalue() == "closed-form == oracle: PASS\n"
