import random
from fractions import Fraction
from pathlib import Path

import pytest

from sjk.families import HERMITE_SECOND_VAR
from sjk.hyper import HyperSpec
from sjk.poly import Poly
from sjk.scalar import ExactScalar, HalfInt

DATA = Path(__file__).parent / "data"


# Golden-data file format: one record per line,
#     <family> <n>: <exp>:<num>/<den> <exp>:<num>/<den> ...
# where <exp> is the x-exponent.  For the hermite family the second
# variable's exponent is implied: z-power = (n - exp) / 2.

def load_golden(path) -> dict:
    """Parse a golden polynomial table; keys are (family, n) pairs."""
    rows = {}
    with open(path, encoding="utf-8") as fh:
        for raw in fh:
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            head, _, body = line.partition(":")
            family, n_str = head.split()
            n = int(n_str)
            monomials = []
            for chunk in body.split():
                exp_str, _, frac = chunk.partition(":")
                exp = int(exp_str)
                num_str, _, den_str = frac.partition("/")
                c = Fraction(int(num_str), int(den_str))
                if family == "hermite":
                    if (n - exp) % 2:
                        raise ValueError(f"bad hermite exponent {exp} at n={n}")
                    monomials.append(Poly.monomial(
                        c, x=exp, **{HERMITE_SECOND_VAR: (n - exp) // 2}
                    ))
                else:
                    monomials.append(Poly.monomial(c, x=exp))
            rows[(family, n)] = Poly.sum(monomials, ("x",))
    return rows


@pytest.fixture(scope="session")
def golden():
    return load_golden(DATA / "table_a1.txt")


def random_proliferation_cases(seed, count):
    """count admissible (alpha, beta, r, s, spec) drawn from Random(seed)."""
    rng = random.Random(seed)

    def params():
        return tuple(Fraction(rng.randint(1, 9), rng.choice((1, 2)))
                     for _ in range(rng.randint(0, 2)))

    while count:
        at, bt = rng.randint(-7, 12), rng.randint(-7, 12)
        if (at % 2 == 0 and at <= 0) or (bt % 2 == 0 and bt <= 0):
            continue
        r, s = rng.randint(1, 3), rng.randint(1, 3)
        spec = HyperSpec(params(), params())
        count -= 1
        yield HalfInt(at), HalfInt(bt), r, s, spec


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
