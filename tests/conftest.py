import random
from fractions import Fraction
from pathlib import Path

import pytest

from sjk.families import load_golden
from sjk.poly import Poly
from sjk.scalar import ExactScalar

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def golden():
    return load_golden(DATA / "table_a1.txt")


def rand_fraction(rng, span=9):
    return Fraction(rng.randint(-span, span), rng.randint(1, span))


def assert_canonical(p):
    """What the validating constructor would store, and nothing else."""
    width = len(p.vars)
    for exps, c in p.terms.items():
        assert type(exps) is tuple and len(exps) == width
        assert all(e >= 0 for e in exps)
        assert type(c) is ExactScalar and c
    again = Poly(p.vars, p.terms)
    assert again.vars == p.vars and again.terms == p.terms
    assert p == again and hash(p) == hash(again)


def rand_poly(rng, vars=("x",), max_terms=4, max_exp=5):
    p = Poly.zero(vars)
    for _ in range(rng.randint(1, max_terms)):
        exps = {v: rng.randint(0, max_exp) for v in vars}
        p = p + Poly.monomial(rand_fraction(rng), **exps)
    return p


@pytest.fixture
def rng():
    return random.Random(20260809)
