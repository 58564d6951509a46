import random
from fractions import Fraction
from math import gcd
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


def assert_reduced(c):
    """c stores its value as the validating constructor would: a reduced
    integer pair with a positive denominator, zero as (0, 1) at grade 0.
    Equality is field-wise, so an unreduced pair would make equal values
    compare unequal."""
    assert type(c) is ExactScalar
    assert type(c.num) is int and type(c.den) is int and type(c.sqrt_pi_pow) is int
    assert c.den > 0 and gcd(c.num, c.den) == 1
    if not c.num:
        assert (c.den, c.sqrt_pi_pow) == (1, 0)


def assert_stored_form(p):
    """The stored integers: for each sqrt(pi) grade, in increasing order,
    one positive denominator and nonzero integer numerators whose gcd with
    it is 1; no exponent vector in two grades."""
    width = len(p.vars)
    grades = [g for g, _, _ in p._parts]
    assert grades == sorted(set(grades))
    keys = set()
    for g, den, nums in p._parts:
        assert type(g) is int and type(den) is int and den > 0
        assert type(nums) is dict and nums
        for exps, n in nums.items():
            assert type(exps) is tuple and len(exps) == width
            assert type(n) is int and n
        assert gcd(den, *nums.values()) == 1
        assert keys.isdisjoint(nums)
        keys.update(nums)


def assert_canonical(p):
    """What the validating constructor would store, and nothing else."""
    assert_stored_form(p)
    width = len(p.vars)
    for exps, c in p.terms.items():
        assert type(exps) is tuple and len(exps) == width
        assert all(e >= 0 for e in exps)
        assert_reduced(c)
        assert c
    again = Poly(p.vars, p.terms)
    assert again.vars == p.vars and again.terms == p.terms
    assert again._parts == p._parts
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
