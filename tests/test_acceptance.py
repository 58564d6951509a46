"""Acceptance criteria, one test per criterion.

Every check is exact equality in rational * sqrt(pi)-power arithmetic;
where a runtime bound is stated it is measured and enforced.  The paper's
identities are defined once, in the registry of sjk.verify; criteria 02,
03, 05, 06, 07, 09 and 10 call those functions at larger sizes than
`sjk verify` does, and each reports the counterexamples they return.  Each
test prints one pass/fail line (visible with pytest -s or in failure
output).
"""

import io
import time
from fractions import Fraction
from math import factorial

import pytest

from sjk import cli, families, opcalc, verify
from sjk.scalar import HalfInt

from conftest import random_proliferation_cases
from reference import egf_beta_shifted_tricomi, sj_beta_rescaled

BETAS = (Fraction(0), Fraction(1, 2), Fraction(2))


def _report(num, label, found, elapsed=None, bound=None):
    """found: the checks' results, each a failure (a counterexample or an
    index) or None."""
    failures = [f for f in found if f is not None]
    ok = not failures
    if bound is not None:
        ok = ok and elapsed < bound
    tail = f" ({elapsed:.2f}s < {bound:.0f}s)" if bound is not None else ""
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'}: {label}{tail}")
    assert ok, f"criterion {num}: {label}; first failures: {failures[:3]}"


def test_criterion_01_table_a1_reproduction(golden):
    t0 = time.monotonic()
    bad = []
    for n in range(11):
        if opcalc.gp_series(n, -1, -1) != golden[("sj", n)]:
            bad.append(("sj", n))
        if families.hermite_closed(n) != golden[("hermite", n)]:
            bad.append(("hermite", n))
    _report(1, "Table rows 0..10 reproduced exactly", bad,
            time.monotonic() - t0, 1.0)


def test_criterion_02_eigenequation_sweep():
    t0 = time.monotonic()
    found = [verify.eigenequation(range(31)), verify.eigenequation(range(16), BETAS)]
    _report(2, "eigenequations exact (n<=30; beta sweep n<=15)", found,
            time.monotonic() - t0, 5.0)


def test_criterion_03_four_way_equality():
    t0 = time.monotonic()
    found = [verify.four_way(range(31)), verify.resolvent_closed_form(range(31))]
    _report(3, "four constructions agree for n<=30", found,
            time.monotonic() - t0, 10.0)


def test_criterion_04_egf_consistency():
    bad = []
    for N in range(13):
        want = families.sj_umbral(N) * Fraction(1, factorial(N))
        if families.sj_egf_coeff(N) != want:
            bad.append(N)
    _report(4, "EGF double-sum coefficient equals P_N/N! for N<=12", bad)


def test_criterion_05_lacunary_closed_forms():
    t0 = time.monotonic()
    found = [
        verify.lacunary_closed(
            case for K in (2, 3, 4) for case in (("hermite", K, 5), ("sj", K, 4))),
        verify.lacunary_shifts((family, K, 3, 3, L) for K in (2, 3, 4)
                               for L in range(4) for family in ("hermite", "sj")),
    ]
    _report(5, "lacunary closed forms and shift generators equal the oracle",
            found, time.monotonic() - t0, 60.0)


def test_criterion_06_pochhammer_proliferation():
    found = [verify.proliferation(random_proliferation_cases(60657, 20), range(9))]
    _report(6, "proliferation matches the term-by-term transform oracle", found)


def test_criterion_07_connection_coefficients():
    found = [verify.reconstruction(range(21)), verify.biorthogonality(13),
             verify.pairing((6,))]
    _report(7, "reconstruction M<=20, biorthogonality M,L<=12, pairings", found)


def test_criterion_08_beta_family_egf():
    bad = []
    for beta in (Fraction(0), Fraction(1, 2)):
        for build in (families.egf_beta_shifted,
                      egf_beta_shifted_tricomi):
            got = build(6, beta)
            for n in range(7):
                want = sj_beta_rescaled(n + 1, beta) * Fraction(
                    1, factorial(n)
                )
                diff = got.coeffs[n] - want
                if diff:
                    bad.append((build.__name__, beta, n))
                    continue
                # canonical zero carries no residual sqrt(pi) grade
                for c in diff.terms.values():
                    if c.sqrt_pi_pow != 0:
                        bad.append((build.__name__, beta, n, "pi residue"))
    _report(8, "shifted EGF and its Tricomi-Bessel product match to order 6, "
               "pi-free", bad)


def test_criterion_09_transform_identities():
    found = [
        verify.null_identity((1, 2, 3), (1, 3, 4)),
        verify.unit_identity((1, 3, 4)),
        verify.beta_differences(
            (a, b, 1) for a, b in verify.half_pairs(909, 50, 1, 30)),
        verify.beta_differences((HalfInt(3), HalfInt(2 * n + 1), n) for n in range(7)),
    ]
    _report(9, "transform null/unit identities and beta identity family", found)


def test_criterion_10_reaction_demo():
    found = [verify.reaction(range(9), 6)]
    _report(10, "decay demo solves the evolution equation to t-order 6", found)


# Each request held to the 1 s goal for every request under the cap: the
# largest family table, the decay demo, lacunary checks, and the worst corner
# of the rational parameters' domain (largest coefficients, slowest format).
ONE_SECOND_AT_CAP = (
    "table --family sj --max-n 64",
    "react --N0 64 --t-order 64",
    "lacunary --family sj --K 2 --order 32 --check",
    "egf --family sj-beta-shifted --order 64 --beta 1/2",
    "lacunary --family sj --K 1 --L 24 --order 40 --check",
    "lacunary --family hermite --K 1 --L 24 --order 40 --check",
    "egf --family sj-beta-shifted --order 64 --beta 1999/2 --format json",
)


@pytest.mark.parametrize("line", ONE_SECOND_AT_CAP)
def test_criterion_11_cold_runs_at_the_cap(line):
    # cleared caches: what every shell invocation of sjk pays
    families.sj_family.cache_clear()
    families.hermite_family.cache_clear()
    out, err = io.StringIO(), io.StringIO()
    t0 = time.monotonic()
    code = cli.run(line.split(), out=out, err=err)
    elapsed = time.monotonic() - t0
    bad = [] if code == 0 else [(code, err.getvalue())]
    if "--check" in line and "PASS" not in out.getvalue():
        bad.append(out.getvalue())
    _report(11, f"sjk {line}", bad, elapsed, 1.0)
