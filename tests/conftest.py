import random
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from sjk import connect, lacunary, opcalc
from sjk.families import HERMITE_SECOND_VAR
from sjk.hyper import HyperSpec
from sjk.poly import CoeffSeries, Poly
from sjk.scalar import ExactScalar, HalfInt, _parts

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


def inverse_step(op, t, vars, ba, scale):
    """op^{-1}(scale (d^2 + ba d) t), d = d/dx and op acting on the total
    degree in vars, for the rationals ba and scale, scale nonzero: the
    step of opcalc._series on a Poly, which the tests hold to the
    composition it replaced.  At one sqrt(pi) grade, with x among the
    variables in vars, the terms are grouped by their other exponents and
    each group takes opcalc._step, as the series does; otherwise it is the
    composition, so a clash of grades raises as the sum t'' + ba t'
    raises it."""
    bn, bd = _parts(ba)
    sn, sd = _parts(scale)
    parts = t._by_grade()
    if len(parts) != 1 or "x" not in t.vars or (vars is not None and "x" not in vars):
        d1 = t.derivative("x")
        summed = (d1.derivative("x") + d1 * Fraction(bn, bd)) * Fraction(sn, sd)
        return opcalc.apply_inverse_diagonal(op, summed, vars)
    (g, den, nums), = parts
    i = t.vars.index("x")
    idx = opcalc._positions(t, vars)
    groups = {}  # other exponents -> (their degree in vars, {x exponent: numerator})
    for exps, n in nums.items():
        rest = exps[:i] + exps[i + 1 :]
        group = groups.get(rest)
        if group is None:
            d = sum(exps) if idx is None else sum([exps[j] for j in idx])
            group = groups[rest] = (d - exps[i], {})
        group[1][exps[i]] = n
    made, factor = {}, opcalc._inverse_factor(op)
    terms = [
        (rest[:i] + (e,) + rest[i:], x, fd)
        for rest, (r, sub) in groups.items()
        for e, x, fd in opcalc._step(sub, r, bd * sn, bn * sn, made, factor)
    ]
    if not terms:
        return Poly.zero(t.vars)
    return Poly._over(t.vars, g, *opcalc._gather(den * bd * sd, terms))


def as_scalar(p):
    """The value of a constant Poly; ValueError if it is not constant."""
    if any(any(e) for e in p.terms):
        raise ValueError(f"polynomial is not constant: {p}")
    return p.scalar_coeff()


def reference_slices(family, K, L, order):
    """verify.lacunary_slices at one (family, K, L, order) as the Poly
    composition it replaced: the Hermite closed form, each coefficient
    raised L times, the family's image, and == against the oracle."""
    row = connect.lookup(family)
    oracle = lacunary.multisection_oracle(row.source, K, L, order).coeffs
    closed = lacunary.hermite_lacunary_closed(K, order)
    got = row.image_of(CoeffSeries(
        [lacunary._hermite_raise(c, L) for c in closed.coeffs], order))
    for k, c in enumerate(got.coeffs):
        if c != oracle[k]:
            return (f"first mismatch at lambda^{k}: closed={c.text()} "
                    f"oracle={oracle[k].text()}")
