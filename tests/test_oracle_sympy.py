"""sympy as an independent oracle for the rational-parameter paths.

Each output is read as a user reads it, through ``sjk.cli.run`` with
``--format json`` and ``jsonio.poly_from_obj``, and compared exactly with
a polynomial that sympy builds from the classical Jacobi polynomial
P^(1,beta): for n >= 1 the (-1, beta) Sobolev-Jacobi polynomial is the
monic (x - 1) P^(1,beta)_(n-1).  The module skips itself when sympy is
absent.
"""

import io
import json
from fractions import Fraction

import pytest

sympy = pytest.importorskip("sympy")
from sympy.polys.orthopolys import jacobi_poly  # noqa: E402

from sjk import cli, jsonio  # noqa: E402
from sjk.poly import Poly  # noqa: E402
from sjk.scalar import ExactScalar  # noqa: E402

X = sympy.Symbol("x")


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
        got = jsonio.poly_from_obj(
            _json("poly", "--family", "sj-beta", "--n", str(n), f"--beta={beta}"))
        assert got == _as_poly(_monic_sj_beta(n, b)), n


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
        assert jsonio.poly_from_obj(c) == want, n
