"""The reads of sjk internals that the benchmark makes.

perfbench/spans.py sizes each traced family result by reading every value
of ``Poly.terms`` through ``getattr(c, "rat", c)``, and perfbench's scalar
probe builds ``ExactScalar(Fraction)`` and times ``*`` and ``+`` on it.
The tracer also wraps public functions by module name, so a function that
production calls under another name drops out of its spans.  The
benchmark is frozen, so a change to any of these would change what it
measures; these tests hold them to what the package does.
"""

import runpy
from fractions import Fraction
from pathlib import Path

import pytest

from sjk import connect
from sjk.families import egf_beta_shifted, hermite_egf, sj_family
from sjk.poly import Poly
from sjk.scalar import ExactScalar

SPANS = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "spans.py"))


def _sizes_from_rows(result):
    """(terms, largest numerator or denominator bit length) of a Poly or a
    series of them, read from the rows the writers print."""
    terms = bits = 0
    for p in getattr(result, "coeffs", None) or [result]:
        for _, num, den, _ in p._rows():
            terms += 1
            bits = max(bits, num.bit_length(), int(den).bit_length())
    return terms, bits


@pytest.mark.parametrize("make", [
    lambda: sj_family(12),
    lambda: hermite_egf(6),
    lambda: egf_beta_shifted(4, Fraction(1, 2)),
], ids=["sj_family(12)", "hermite_egf(6)", "egf_beta_shifted(4, 1/2)"])
def test_span_sizes_read_the_terms(make):
    result = make()
    terms, bits = SPANS["_coef_sizes"](result)
    assert (terms, bits) == _sizes_from_rows(result)
    assert terms > 0 and bits > 0


def test_scalar_probe_operations():
    a, b = Fraction(2**40 + 3, 2**39 + 1), Fraction(-(2**41) + 5, 2**40 + 7)
    x, y = ExactScalar(a), ExactScalar(b)
    assert x * y == ExactScalar(a * b) and x + y == ExactScalar(a + b)
    assert (x * y).rat == a * b and (x + y).rat == a + b


@pytest.mark.parametrize("family, name", [
    ("sj", "sj_connection"), ("hermite", "hermite_connection"),
])
def test_connection_column_calls_the_public_name(monkeypatch, family, name):
    # the family table reads its connection column from the module global,
    # where the tracer puts its wrapper
    calls = []
    inner = getattr(connect, name)

    def wrapper(M, n):
        calls.append((M, n))
        return inner(M, n)
    monkeypatch.setattr(connect, name, wrapper)
    assert connect.reconstruct_monomial(4, family) == Poly.var("x", 4)
    assert calls == [(4, 0), (4, 2), (4, 4)]


def test_tracer_targets_absent_set():
    # the tracer wraps its targets by module name and skips a name that
    # is gone, so a renamed function would drop out of the spans unseen;
    # absent today: removed names and the tests/reference.py cross-checks,
    # the lacunary Poly forms among them
    import sjk.cli  # noqa: F401  imports every module the tracer wraps

    tracer = SPANS["Tracer"]()
    tracer.install()
    try:
        absent = set(tracer.absent)
    finally:
        tracer.uninstall()
    assert absent == {
        "sjk.lacunary.sj_lacunary_shift_gen",
        "sjk.connect.sj_pair_factors",
        "sjk.connect.hermite_pair_factors",
        "sjk.opcalc.conjugate_shift",
        "sjk.families.sj_beta_rescaled",
        "sjk.families.tricomi_series",
        "sjk.hyper.pfq_derivative",
        "sjk.hyper.tricomi_coeff",
        "sjk.umbral.gen_product",
        "sjk.umbral.expand_exponential",
        "sjk.lacunary.sj_lacunary_closed_printed",
        "sjk.lacunary.lacunary_dilate",
        "sjk.lacunary.coeff_bridge_check",
        "sjk.connect.connection_gf_coeff",
        "sjk.connect.connection_gf_coeff_direct",
        "sjk.opcalc.apply_diagonal",
        "sjk.opcalc.apply_inverse_diagonal",
        "sjk.opcalc.hermite_exp",
        "sjk.jsonio.poly_to_obj",
        "sjk.jsonio.series_to_obj",
        "sjk.jsonio.poly_from_obj",
        "sjk.poly.Poly.shift",
        "sjk.poly.Poly.__pow__",
        "sjk.lacunary.hermite_lacunary_closed",
        "sjk.lacunary.hermite_lacunary_shift",
        "sjk.lacunary.sj_lacunary_closed",
        "sjk.lacunary.mu_slice",
    }
