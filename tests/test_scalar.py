import os
import shutil
import subprocess
import sys
from fractions import Fraction
from functools import partial
from itertools import islice
from math import factorial
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from sjk import connect, families, hyper, lacunary, opcalc, umbral, verify
from sjk.errors import PoleError
from sjk.poly import Poly
from sjk.scalar import (
    ONE,
    ZERO,
    ExactScalar,
    HalfInt,
    _gamma_parts,
    _ratio,
    beta_fn,
    gamma_half,
    gamma_ratio,
    half,
    pochhammer,
    recip_gamma,
)

from conftest import assert_canonical, assert_reduced, inverse_step
from reference import hermite_lacunary_closed, hermite_raise, image_poly, monomial

H = Fraction(1, 2)
MODULUS = sys.hash_info.modulus
SRC = Path(__file__).resolve().parent.parent / "src" / "sjk"


class TestHalfInt:
    @pytest.mark.parametrize("bad", [1.5, "3"])
    def test_non_integer_twice_refused(self, bad):
        # int() would turn 1.5 into HalfInt(1/2) and "3" into HalfInt(3/2)
        with pytest.raises(TypeError):
            HalfInt(bad)

    def test_coercion(self):
        assert half(3).twice == 6
        assert half(Fraction(5, 2)).twice == 5
        assert half(HalfInt(7)) is not None
        with pytest.raises(ValueError):
            half(Fraction(1, 3))

    def test_ordering_and_diff(self):
        # there is no order or difference of HalfInts: callers read twice
        with pytest.raises(TypeError):
            HalfInt(3) < HalfInt(4)
        with pytest.raises(TypeError):
            HalfInt(5) - HalfInt(1)
        assert HalfInt(4).is_integer
        assert not HalfInt(3).is_integer
        assert HalfInt(0).is_nonpositive_integer()
        assert HalfInt(-4).is_nonpositive_integer()
        assert not HalfInt(-3).is_nonpositive_integer()

    def test_sum_with_exact_scalar_either_way(self):
        # HalfInt(1) is 1/2; an operand half() does not know is left to
        # ExactScalar's reflected method.
        three_halves = ExactScalar(Fraction(3, 2))
        assert HalfInt(1) + ExactScalar(1) == three_halves
        assert ExactScalar(1) + HalfInt(1) == three_halves
        assert HalfInt(1) - ExactScalar(1) == ExactScalar(Fraction(-1, 2))
        assert ExactScalar(1) - HalfInt(1) == ExactScalar(H)

    @pytest.mark.parametrize("method", ["__add__", "__radd__"])
    def test_unknown_operand_returns_not_implemented(self, method):
        assert getattr(HalfInt(1), method)(ExactScalar(1)) is NotImplemented
        assert getattr(HalfInt(1), method)("x") is NotImplemented

    def test_ordering_against_unknown_type_is_type_error(self):
        with pytest.raises(TypeError):
            HalfInt(1) < "x"

    @pytest.mark.parametrize("method", ["__add__"])
    def test_finer_rational_still_refused(self, method):
        with pytest.raises(ValueError, match="is not a half-integer"):
            getattr(HalfInt(1), method)(Fraction(1, 3))

    def test_half_integer_arithmetic_unchanged(self):
        assert HalfInt(1) + 1 == 1 + HalfInt(1) == HalfInt(3)
        assert HalfInt(3) + H == HalfInt(4)

    @pytest.mark.parametrize("twice", range(-7, 8))
    def test_sums_read_twice_as_half_does(self, twice):
        # an int or a HalfInt operand is read directly, not through half
        h = HalfInt(twice)
        for other in (*range(-3, 4), *map(HalfInt, range(-5, 6))):
            want = twice + half(other).twice
            for got in (h + other, other + h):
                assert type(got) is HalfInt and got.twice == want, (h, other)

    def test_other_operands_go_through_half(self):
        # a bool is read as half reads it, a Fraction too, and a finer
        # rational is refused with half's ValueError
        for got in (HalfInt(3) + True, True + HalfInt(3)):
            assert type(got) is HalfInt and got.twice == 5
        assert (HalfInt(3) + False).twice == 3
        assert (HalfInt(3) + Fraction(-5, 2)).twice == -2
        with pytest.raises(ValueError, match="^1/3 is not a half-integer$"):
            HalfInt(3) + Fraction(1, 3)
        with pytest.raises(ValueError, match="^1/3 is not a half-integer$"):
            Fraction(1, 3) + HalfInt(3)

    # twice next to 0 and next to plus and minus twice the hash modulus
    @pytest.mark.parametrize("twice", [
        *range(-41, 42),
        *(s * 2 * MODULUS + d for s in (1, -1) for d in range(-3, 4)),
    ])
    def test_hash_is_the_fraction_hash(self, twice):
        assert hash(HalfInt(twice)) == hash(Fraction(twice, 2))

    def test_dict_keyed_by_int_or_fraction_finds_equal_half_int(self):
        table = {3: "three", Fraction(5, 2): "five halves", Fraction(-7, 2): "-7/2"}
        assert table[HalfInt(6)] == "three"
        assert table[HalfInt(5)] == "five halves"
        assert table[HalfInt(-7)] == "-7/2"
        assert HalfInt(9) not in table
        by_half = {HalfInt(6): "three", HalfInt(-1): "-1/2"}
        assert by_half[3] == "three" and by_half[Fraction(-1, 2)] == "-1/2"


class TestExactScalar:
    def test_canonical_zero(self):
        z = ExactScalar(0, 5)
        assert z.sqrt_pi_pow == 0
        assert z == ExactScalar(0)

    def test_mixed_pi_addition_rejected(self):
        with pytest.raises(ValueError):
            ExactScalar(1, 1) + ExactScalar(1, 0)

    def test_zero_absorbs_any_grade(self):
        assert ExactScalar(0) + ExactScalar(3, 2) == ExactScalar(3, 2)

    def test_field_ops(self):
        a = ExactScalar(Fraction(3, 4), 1)
        assert a * a == ExactScalar(Fraction(9, 16), 2)
        assert a / a == ExactScalar(1)
        assert a**3 == ExactScalar(Fraction(27, 64), 3)
        assert a ** (-1) == ExactScalar(Fraction(4, 3), -1)

    def test_non_integer_grade_refused(self):
        # the sqrt(pi) power is an integer; 0.5 would be stored as given
        with pytest.raises(TypeError):
            ExactScalar(1, 0.5)

    @pytest.mark.parametrize("bad", [0.1, 0.0, -2.5, float("inf")])
    def test_float_refused(self, bad):
        # a float is not exact: 0.1 would be stored as 3602879701896397/2^55
        with pytest.raises(TypeError):
            ExactScalar(bad)
        with pytest.raises(TypeError):
            ExactScalar(bad, 1)
        with pytest.raises(TypeError):
            ExactScalar.coerce(bad)

    def test_exact_inputs_accepted(self):
        assert ExactScalar(3).rat == 3
        assert ExactScalar(True).rat == 1
        assert ExactScalar(Fraction(-2, 6), 1) == ExactScalar(Fraction(-1, 3), 1)
        assert ExactScalar("-3/4").rat == Fraction(-3, 4)
        assert ExactScalar("0.1").rat == Fraction(1, 10)

    def test_unknown_operand_defers_to_its_reflected_method(self):
        x = Poly.var("x")
        assert ExactScalar(2) * x == x * 2
        assert ExactScalar(2) + x == x + 2
        assert ExactScalar(2) - x == 2 - x
        assert isinstance(ExactScalar(2) * x, Poly)

    @pytest.mark.parametrize("other", [object(), 0.5, "1"])
    def test_operand_nobody_knows_still_raises(self, other):
        one = ExactScalar(1)
        for op in (
            lambda: one + other, lambda: other + one, lambda: one - other,
            lambda: other - one, lambda: one * other, lambda: other * one,
            lambda: one / other, lambda: other / one,
        ):
            with pytest.raises(TypeError):
                op()


fracs = st.fractions(min_value=-6, max_value=6, max_denominator=9)
grades = st.integers(-4, 4)


def _plain(x):
    """x as a plain (rational, grade) pair, after checking its stored form:
    a reduced integer pair, den > 0, zero as (0, 1) at grade 0."""
    assert_reduced(x)
    assert type(x.rat) is Fraction
    return x.rat, x.sqrt_pi_pow


@settings(max_examples=150, deadline=None)
@given(fracs, fracs, fracs, grades, grades)
def test_ring_axioms_within_a_grade(a, b, c, k, j):
    x, y, z = ExactScalar(a, k), ExactScalar(b, k), ExactScalar(c, k)
    w = ExactScalar(c, j)
    assert _plain(x + y) == _plain(ExactScalar(a + b, k))
    assert _plain(x - y) == _plain(ExactScalar(a - b, k))
    assert _plain(x * w) == _plain(ExactScalar(a * c, k + j))
    assert x + y == y + x
    assert (x + y) + z == x + (y + z)
    assert x + ZERO == x == ZERO + x
    assert _plain(x + -x) == (0, 0)
    assert (x - y) + y == x
    assert x * w == w * x
    assert (x * y) * w == x * (y * w)
    assert w * (x + y) == w * x + w * y
    assert x * ONE == x
    assert x**2 == x * x
    assert _plain(x**0) == (1, 0)
    if b:
        assert (x / y) * y == x
        assert y ** -2 * y**2 == ONE


@settings(max_examples=150, deadline=None)
@given(fracs, grades, grades)
def test_zero_is_canonical_across_grades(a, k, j):
    x, z = ExactScalar(a, k), ExactScalar(0, j)
    results = [x * z, z * x, z * 5, x - x, -z, z**3, z + z, z - z, x * 0, 0 * x]
    if a:
        results.append(z / x)
    for r in results:
        assert _plain(r) == (0, 0)
        assert r == ZERO == 0 and hash(r) == hash(0)
        assert not r


@settings(max_examples=150, deadline=None)
@given(fracs, grades, grades)
def test_equality_and_hash_agree(a, k, j):
    # two ExactScalars compare field by field, a Fraction or an int after
    # coercion; equal values hash equal either way
    x, y = ExactScalar(a, k), ExactScalar(a, k) * 1
    assert x is not y and x == y and not x != y and hash(x) == hash(y)
    rational = not a or not k
    assert (x == a) is rational and (a == x) is rational
    if rational:
        assert hash(x) == hash(a)
        if a.denominator == 1:
            n = a.numerator
            assert x == n and n == x and hash(x) == hash(n)
    if a and j != k:
        assert x != ExactScalar(a, j) and not x == ExactScalar(a, j)


@pytest.mark.parametrize("q", [
    Fraction(n, d)
    for n in (0, 1, -1, 2, -(MODULUS + 2), MODULUS, MODULUS + 1, -(MODULUS - 1), 10**40)
    for d in (1, 2, 3, MODULUS - 1, MODULUS, 2 * MODULUS, MODULUS + 1, 7**30)
])
def test_rational_hash_is_the_fraction_hash(q):
    # next to the modulus, at its multiples (the infinite hash) and at -1,
    # which is written -2
    assert hash(ExactScalar(q)) == hash(q)
    assert hash(_ratio(q.numerator * 3, q.denominator * 3, 0)) == hash(q)


# Values whose denominators share factors of every size with each other,
# so the cross-gcd product and the lcm sum meet every reduction they make.
_SHARED = st.sampled_from([1, 2, 6, 9, 30, 2**40, 3**25 * 5, 10**18])
pairs_fracs = st.builds(
    lambda n, d, k, j: Fraction(n * k, d * j),
    st.integers(-60, 60), st.integers(1, 60), _SHARED, _SHARED,
)


def _checked(got, q, grade):
    """got is q sqrt(pi)^grade, stored as a reduced pair, and hashes as q
    when it is rational."""
    assert_reduced(got)
    assert (got.rat, got.sqrt_pi_pow) == (q, grade if q else 0)
    if not got.sqrt_pi_pow:
        assert got == q and hash(got) == hash(q)


@settings(max_examples=400, deadline=None)
@given(pairs_fracs, pairs_fracs, grades, grades, st.integers(-4, 4),
       st.integers(-9, 9))
def test_stored_pair_matches_fraction_arithmetic(a, b, k, j, e, twice):
    x, y = ExactScalar(a, k), ExactScalar(b, j)
    _checked(x * y, a * b, k + j)
    _checked(x * b, a * b, k)
    _checked(-x, -a, k)
    _checked(ExactScalar.coerce(a), a, 0)
    _checked(ExactScalar.coerce(a.numerator), Fraction(a.numerator), 0)
    _checked(ExactScalar.coerce(HalfInt(twice)), Fraction(twice, 2), 0)
    if b:
        _checked(x / y, a / b, k - j)
        _checked(a / y, a / b, -j)
    if a or e >= 0:
        _checked(x**e, a**e, k * e)
    if a and b and k != j:
        with pytest.raises(ValueError, match="different powers of sqrt"):
            x + y
    else:
        grade = k if a else j
        _checked(x + y, a + b, grade)
        _checked(x - y, a - b, grade)
        if not k:
            _checked(x + b, a + b, 0)
            _checked(b - x, b - a, 0)


@settings(max_examples=300, deadline=None)
@given(st.integers(-10**30, 10**30), st.integers(-10**30, 10**30).filter(bool),
       _SHARED, grades)
def test_ratio_reduces_any_pair(n, d, k, grade):
    got = _ratio(n * k, d * k, grade)
    _checked(got, Fraction(n, d), grade)
    assert got == ExactScalar(Fraction(n, d), grade)


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(Fraction(17, 2), 0) == 1
        assert pochhammer(-3, 0) == 1

    def test_half_case(self):
        # (1/2)(3/2)(5/2)
        assert pochhammer(H, 3) == Fraction(15, 8)

    def test_integer_case(self):
        assert pochhammer(3, 2) == 12

    @pytest.mark.parametrize(
        "a",
        [-1, -2, -5, Fraction(-7, 2), Fraction(1, 2), Fraction(5, 3), Fraction(17, 2)],
    )
    def test_matches_a_fraction_loop(self, a):
        want = Fraction(1)
        for n in range(31):
            got = pochhammer(a, n)
            assert type(got) is Fraction and got == want, n
            want *= a + n
        if a == int(a):  # the product passes through zero at a + j = 0
            assert pochhammer(a, 1 - int(a)) == 0 == pochhammer(a, 30)

    @pytest.mark.parametrize("bad", [0.1, 0.0, -2.5, float("inf")])
    def test_float_refused(self, bad):
        # (0.1)_2 would be the product of 3602879701896397/2^55 and its successor
        for n in (0, 2):
            with pytest.raises(TypeError):
                pochhammer(bad, n)


class TestGammaHalf:
    def test_sqrt_pi(self):
        assert gamma_half(H) == ExactScalar(1, 1)

    def test_factorial(self):
        assert gamma_half(3) == ExactScalar(2)

    def test_five_halves(self):
        assert gamma_half(Fraction(5, 2)) == ExactScalar(Fraction(3, 4), 1)

    def test_negative_half_odd(self):
        # Gamma(-1/2) = Gamma(1/2)/(-1/2) = -2 sqrt(pi)
        assert gamma_half(Fraction(-1, 2)) == ExactScalar(-2, 1)
        # Gamma(-3/2) = 4/3 sqrt(pi)
        assert gamma_half(Fraction(-3, 2)) == ExactScalar(Fraction(4, 3), 1)

    @pytest.mark.parametrize("bad", [0, -1, -5])
    def test_poles(self, bad):
        with pytest.raises(PoleError):
            gamma_half(bad)


class TestRecipGamma:
    def test_entire_zeros(self):
        assert recip_gamma(-2) == ExactScalar(0)
        assert recip_gamma(0) == ExactScalar(0)

    def test_one(self):
        assert recip_gamma(1) == ExactScalar(1)

    def test_inverse_of_gamma(self):
        assert recip_gamma(H) == ExactScalar(1, -1)
        for twice in (-5, -3, -1, 1, 2, 3, 7, 8):
            a = HalfInt(twice)
            assert gamma_half(a) * recip_gamma(a) == ExactScalar(1)


def _gamma_by_pochhammer(twice):
    """Gamma(twice/2) as gamma_half built it before the integer table:
    (m-1)!, (1/2)_k sqrt(pi), or sqrt(pi) / (a)_(-k) below 1/2."""
    if twice % 2 == 0:
        return ExactScalar(factorial(twice // 2 - 1))
    k = (twice - 1) // 2
    if k >= 0:
        return ExactScalar(pochhammer(H, k), 1)
    return ExactScalar(1 / pochhammer(Fraction(twice, 2), -k), 1)


@pytest.mark.parametrize("twice", range(-41, 42))
def test_gamma_table_matches_pochhammer_construction(twice):
    a = HalfInt(twice)
    if a.is_nonpositive_integer():
        with pytest.raises(PoleError, match=f"Gamma pole at {twice // 2}$"):
            _gamma_parts(a)
        assert recip_gamma(a) == ZERO
        return
    want = _gamma_by_pochhammer(twice)
    num, den, grade = _gamma_parts(a)
    assert (num, den, grade) == (want.rat.numerator, want.rat.denominator,
                                 want.sqrt_pi_pow)
    assert gamma_half(a) == want
    assert recip_gamma(a) == ExactScalar(1 / want.rat, -want.sqrt_pi_pow)


class TestGammaRatio:
    def test_pochhammer_case(self):
        assert gamma_ratio(Fraction(5, 2), H) == ExactScalar(Fraction(3, 4))

    def test_equal_arguments(self):
        for twice in (-3, -1, 1, 4):
            assert gamma_ratio(HalfInt(twice), HalfInt(twice)) == ExactScalar(1)

    def test_pole_numerator(self):
        with pytest.raises(PoleError):
            gamma_ratio(0, 1)

    def test_denominator_pole_gives_zero(self):
        assert gamma_ratio(2, -1) == ExactScalar(0)

    def test_non_integer_difference(self):
        # Gamma(1)/Gamma(1/2) = 1/sqrt(pi)
        assert gamma_ratio(1, H) == ExactScalar(1, -1)

    def test_matches_pochhammer_up_to_20(self):
        assert verify.pochhammer_ratio((-7, -3, -1, 1, 2, 3, 5, 8), 21) is None


class TestBeta:
    def test_unit(self):
        assert beta_fn(1, 1) == ExactScalar(1)

    def test_pi(self):
        assert beta_fn(H, H) == ExactScalar(1, 2)

    def test_integers(self):
        assert beta_fn(2, 3) == ExactScalar(Fraction(1, 12))

    def test_pole(self):
        with pytest.raises(PoleError):
            beta_fn(0, 1)
        with pytest.raises(PoleError):
            beta_fn(H, Fraction(-1, 2))  # a + b = 0

    @pytest.mark.parametrize("a, b, arg", [
        (0, 1, "0"), (1, -2, "-2"), (HalfInt(-3), HalfInt(-1), "-2"),
        (Fraction(5, 2), -3, "-3"), (-1, -3, "-1"), (HalfInt(5), HalfInt(-7), "-1"),
    ])
    def test_pole_text(self, a, b, arg):
        # the first of a, b and a + b at a pole is named
        with pytest.raises(PoleError, match=f"^beta function pole at argument {arg}$"):
            beta_fn(a, b)

    @pytest.mark.parametrize("ta", range(-9, 12))
    def test_equals_the_gamma_product(self, ta):
        # B(a, b) = Gamma(a) Gamma(b) / Gamma(a + b) over half-integers,
        # negative half-odd ones included; a pole names its argument
        a = HalfInt(ta)
        for b in map(HalfInt, range(-9, 12)):
            poles = [h for h in (a, b, a + b) if h.is_nonpositive_integer()]
            if poles:
                with pytest.raises(PoleError) as info:
                    beta_fn(a, b)
                assert str(info.value) == f"beta function pole at argument {poles[0]}"
            else:
                want = gamma_half(a) * gamma_half(b) * recip_gamma(a + b)
                assert beta_fn(a, b) == want, (a, b)

    def test_a_one_factor_mutant_fails_verify(self, tmp_path):
        # Gamma(a + b)'s denominator read for its numerator: `sjk verify`
        # prints the beta Pascal identity's [FAIL] line and exits 2
        shutil.copytree(SRC, tmp_path / "sjk",
                        ignore=shutil.ignore_patterns("__pycache__"))
        path = tmp_path / "sjk" / "scalar.py"
        text, mutant = "na * nb * dc", "na * nb * nc"
        source = path.read_text()
        assert source.count(text) == 1
        path.write_text(source.replace(text, mutant))
        env = dict(os.environ, PYTHONPATH=str(tmp_path))
        proc = subprocess.run([sys.executable, "-m", "sjk", "verify"], env=env,
                              capture_output=True, text=True)
        assert (proc.returncode, proc.stderr) == (2, "")
        failed = [line for line in proc.stdout.splitlines() if "[FAIL]" in line]
        assert len(failed) == 1
        assert failed[0].startswith("[FAIL] scalar: beta Pascal identity: ")

    def test_pascal_identity_random(self):
        # negative half-integers too; pairs at a pole are skipped
        pairs = verify.half_pairs(41, 50, -9, 40)
        assert verify.beta_differences((a, b, 1) for a, b in pairs) is None

    @pytest.mark.parametrize("n", range(7))
    def test_iterated_difference_identity(self, n):
        pairs = verify.half_pairs(100 + n, 10, 1, 30)
        assert verify.beta_differences((a, b, n) for a, b in pairs) is None


def test_duplication_formula():
    # Gamma(2z) = 2^(2z-1) pi^(-1/2) Gamma(z) Gamma(z + 1/2), half-integer z
    assert verify.duplication(range(1, 17)) is None


# sympy evaluates gamma at integers and half-odd integers to a rational
# times a power of sqrt(pi), and 1/Gamma to zero at the poles, so it is an
# independent oracle for the closed forms above.
HALVES = [HalfInt(t) for t in range(-13, 30)]


def _sympy_check(got, want):
    sp = pytest.importorskip("sympy")
    _plain(got)
    assert want / sp.sqrt(sp.pi) ** got.sqrt_pi_pow == sp.Rational(
        got.rat.numerator, got.rat.denominator
    ), (got, want)


def _sympy_gamma(h):
    sp = pytest.importorskip("sympy")
    return sp.gamma(sp.Rational(h.twice, 2))


@pytest.mark.parametrize("a", HALVES, ids=str)
def test_gamma_half_and_recip_match_sympy(a):
    want = _sympy_gamma(a)
    if a.is_nonpositive_integer():
        with pytest.raises(PoleError):
            gamma_half(a)
    else:
        _sympy_check(gamma_half(a), want)
    _sympy_check(recip_gamma(a), 1 / want)


@pytest.mark.parametrize("a", HALVES[::3], ids=str)
def test_gamma_ratio_and_beta_match_sympy(a):
    for b in HALVES[::2]:
        if a.is_nonpositive_integer():
            with pytest.raises(PoleError):
                gamma_ratio(a, b)
        else:
            _sympy_check(gamma_ratio(a, b), _sympy_gamma(a) / _sympy_gamma(b))
        if any(h.is_nonpositive_integer() for h in (a, b, a + b)):
            with pytest.raises(PoleError):
                beta_fn(a, b)
        else:
            want = _sympy_gamma(a) * _sympy_gamma(b) / _sympy_gamma(a + b)
            _sympy_check(beta_fn(a, b), want)


def _kernel_outputs(name):
    """What one production kernel makes, on inputs with large, shared and
    negative denominators and with sqrt(pi) grades."""
    if name == "jacobi_monic":
        lead = ExactScalar(Fraction(10**30 + 1, 3**40), 3)
        return [*families.egf_beta_shifted(8, Fraction(1999, 2)).coeffs,
                families.jacobi_monic(12, Fraction(1, 3), Fraction(-2, 7), lead)]
    if name == "hermite_image":
        raised = [hermite_raise(c, 2) for c in hermite_lacunary_closed(3, 5).coeffs]
        image = partial(image_poly, families._image_grade)
        return [*map(image, raised),
                *(image(families.hermite_family(n)) for n in range(13))]
    if name == "pfq_terms":
        spec = hyper.HyperSpec((H, Fraction(-7)), (Fraction(3, 2),),
                               ExactScalar(Fraction(-3, 8), 1))
        return list(islice(hyper.pfq_terms(spec, ExactScalar(Fraction(5, 6), -1)), 20))
    if name == "itransform":
        terms = [
            umbral.GenMonomial(monomial(Fraction(4, 21), x=2, z=1),
                               {"u": HalfInt(5)}, {"v": HalfInt(-3)}, 1),
            umbral.GenMonomial(Poly.var("x", 3, Fraction(-5, 6)),
                               {"u": HalfInt(7)}, {"v": HalfInt(9)}, 2),
            umbral.GenMonomial(Poly.var("x", 1, Fraction(10, 3)),
                               {"u": HalfInt(7)}, {"v": HalfInt(9)}, 3, 1),
            umbral.GenMonomial(Fraction(9, 4), {"u": HalfInt(4)}, {"v": HalfInt(1)}),
        ]
        return umbral.itransform(umbral.GenSeries(terms)).coeffs
    if name == "multisection_oracle":
        return [*lacunary.multisection_oracle(families.sj_family, 2, 1, 6).coeffs,
                *lacunary.multisection_oracle(families.hermite_family, 3, 0, 5).coeffs]
    if name == "reaction_solve":
        return connect.reaction_solve(12, 8).coeffs
    assert name == "_inverse_step"
    op = opcalc._resolvent_factor(9, Fraction(1, 3), Fraction(-2, 7))
    t = Poly(("x", "y"), {(9, 0): Fraction(7, 12), (6, 2): Fraction(-5, 18),
                          (3, 1): Fraction(11, 4)})
    one = Poly.var("x", 9, Fraction(7, 12))  # one term in, one term out
    return [inverse_step(op, t, ("x",), Fraction(-13, 21), Fraction(-1, 6)),
            inverse_step(op, t, ("x", "y"), 0, Fraction(4, 15)),
            inverse_step(op, one, ("x",), 0, Fraction(-1, 6)),
            *(opcalc.gp_series(n, -1, -1) for n in range(9))]


@pytest.mark.parametrize("name", [
    "jacobi_monic", "hermite_image", "pfq_terms", "itransform",
    "multisection_oracle", "reaction_solve", "_inverse_step",
])
def test_kernel_terms_are_reduced_pairs(name):
    out = _kernel_outputs(name)
    assert out
    for item in out:
        if isinstance(item, Poly):
            assert item, name
            assert_canonical(item)
        else:
            assert_reduced(item)
