import os
import random
import subprocess
import sys
from fractions import Fraction
from math import gcd
from pathlib import Path

import pytest

from sjk import families, opcalc
from sjk.families import HERMITE_SECOND_VAR
from sjk.hyper import HyperSpec
from sjk.poly import Poly
from sjk.scalar import ExactScalar, HalfInt, _parts

from reference import apply_inverse_diagonal, derivative, monomial

DATA = Path(__file__).parent / "data"
ROOT = Path(__file__).parent.parent

# python -c _PROFILED OUT SCRIPT ARG... runs SCRIPT as __main__ and writes
# to OUT "file TAB first line" of every Python function that started.
_PROFILED = """
import runpy, sys
ran = set()
def hook(frame, event, arg):
    if event == "call":
        ran.add((frame.f_code.co_filename, frame.f_code.co_firstlineno))
out, sys.argv = sys.argv[1], sys.argv[2:]
sys.setprofile(hook)
try:
    runpy.run_path(sys.argv[0], run_name="__main__")
finally:
    sys.setprofile(None)
    with open(out, "w") as fh:
        fh.writelines(f"{f}\\t{n}\\n" for f, n in ran)
"""


@pytest.fixture(scope="session")
def corpus_run(tmp_path_factory):
    """tools/corpus.py over src, run once in a fresh process under _PROFILED:
    (the finished process, the set of (file, first line) that ran)."""
    # The raised-cap requests fail on CPython's 4,300-digit limit for int
    # to str conversion, which older versions do not have.
    if sys.version_info < (3, 11):
        pytest.skip("needs the int digit limit")
    out = tmp_path_factory.mktemp("corpus") / "ran.txt"
    # the requests without a setting of their own run at the default cap
    env = {k: v for k, v in os.environ.items() if k != "SJK_MAX_ORDER"}
    argv = [str(out), str(ROOT / "tools" / "corpus.py"), str(ROOT / "src")]
    proc = subprocess.run([sys.executable, "-c", _PROFILED, *argv],
                          capture_output=True, text=True, env=env)
    rows = (line.rsplit("\t", 1) for line in out.read_text().splitlines())
    return proc, {(f, int(n)) for f, n in rows}


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
                    monomials.append(monomial(
                        c, x=exp, **{HERMITE_SECOND_VAR: (n - exp) // 2}
                    ))
                else:
                    monomials.append(monomial(c, x=exp))
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
    """The stored integers: one sqrt(pi) grade, one positive denominator
    and nonzero integer numerators whose gcd with it is 1; zero as
    (0, 1, {})."""
    g, den, nums = p._integers()
    assert type(g) is int and type(den) is int and den > 0 and type(nums) is dict
    if not nums:
        assert (g, den) == (0, 1)
    for exps, n in nums.items():
        assert type(exps) is tuple and len(exps) == len(p.vars)
        assert type(n) is int and n
    assert gcd(den, *nums.values()) == 1


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
    assert again._integers() == p._integers()
    assert p == again and hash(p) == hash(again)


def rand_poly(rng, vars=("x",), max_terms=4, max_exp=5):
    p = Poly.zero(vars)
    for _ in range(rng.randint(1, max_terms)):
        exps = {v: rng.randint(0, max_exp) for v in vars}
        p = p + monomial(rand_fraction(rng), **exps)
    return p


@pytest.fixture
def cold_sj_family():
    """The sj_family cache empty when the test starts and when it ends: a
    test that patches what the (-1,-1) members are built from reads the
    patched members, and none of them outlives it."""
    families.sj_family.cache_clear()
    yield
    families.sj_family.cache_clear()


@pytest.fixture
def rng():
    return random.Random(20260809)


def inverse_step(op, t, vars, ba, scale):
    """op^{-1}(scale (d^2 + ba d) t), d = d/dx and op acting on the total
    degree in vars, for the rationals ba and scale, scale nonzero: the
    step of opcalc._series on a Poly, which the tests hold to the
    composition it replaced.  For a nonzero t, with x among the variables
    in vars, the terms are grouped by their other exponents and each group
    takes opcalc._step, as the series does; otherwise it is the
    composition."""
    bn, bd = _parts(ba)
    sn, sd = _parts(scale)
    g, den, nums = t._integers()
    if not nums or "x" not in t.vars or (vars is not None and "x" not in vars):
        d1 = derivative(t, "x")
        summed = (derivative(d1, "x") + d1 * Fraction(bn, bd)) * Fraction(sn, sd)
        return apply_inverse_diagonal(op, summed, vars)
    i = t.vars.index("x")
    idx = [j for j, v in enumerate(t.vars) if vars is None or v in vars]
    groups = {}  # other exponents -> (their degree in vars, {x exponent: numerator})
    for exps, n in nums.items():
        rest = exps[:i] + exps[i + 1 :]
        group = groups.get(rest)
        if group is None:
            d = sum([exps[j] for j in idx])
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

