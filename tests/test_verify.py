"""One `sjk verify` run builds each construction that several checks
compare once (verify._one_run, verify._shared), and nothing it builds
outlives the run."""

import io
from collections import Counter

import pytest

from sjk import cli, families, opcalc, verify

# the distinct arguments that one full run builds
GP_ARGS = [(n, -1, -1) for n in range(13)]
CLOSED_ARGS = [(n, 0) for n in (0, 1, 2, 3, 4, 5, 8)]


@pytest.fixture
def builds(monkeypatch):
    """Counter of the (name, args) that opcalc.gp_series and
    families.sj_closed_mm are called with, through wrappers put where the
    checks read them."""
    calls = Counter()
    for module, name in ((opcalc, "gp_series"), (families, "sj_closed_mm")):
        real = getattr(module, name)

        def counting(*args, real=real, name=name):
            calls[name, args] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)
    return calls


def run_verify():
    out = io.StringIO()
    code = cli.run(["verify"], out=out)
    return code, out.getvalue().splitlines()


def test_one_run_builds_each_argument_once(builds):
    code, lines = run_verify()
    assert (code, lines[-1]) == (0, "18/18 checks passed")
    want = {("gp_series", a): 1 for a in GP_ARGS}
    want.update({("sj_closed_mm", a): 1 for a in CLOSED_ARGS})
    assert builds == want
    assert verify._memo is None


def test_a_second_run_builds_again(builds):
    run_verify()
    run_verify()
    assert set(builds.values()) == {2}
    assert len(builds) == len(GP_ARGS) + len(CLOSED_ARGS)


def test_a_check_outside_a_run_stores_nothing(builds):
    for _ in range(2):
        assert verify.four_way(range(3)) is None
        assert verify.resolvent_closed_form((2,)) is None
        assert verify._memo is None
    assert builds == {**{("gp_series", (n, -1, -1)): 2 for n in (0, 1)},
                      ("gp_series", (2, -1, -1)): 4, ("sj_closed_mm", (2, 0)): 2}


def test_the_memo_is_dropped_when_the_run_raises():
    with pytest.raises(KeyboardInterrupt):
        with verify._one_run():
            assert verify._shared(opcalc.gp_series, 2, -1, -1) is not None
            assert verify._memo
            raise KeyboardInterrupt
    assert verify._memo is None


def test_a_raising_build_fails_every_check_that_reads_it(monkeypatch):
    # nothing is stored for a build that raises, so each reader builds and
    # raises again, as each one did when every check built its own
    real, calls = opcalc.gp_series, []

    def broken(n, alpha, beta):
        if n == 4:
            calls.append(n)
            raise ArithmeticError("injected")
        return real(n, alpha, beta)

    monkeypatch.setattr(opcalc, "gp_series", broken)
    code, lines = run_verify()
    assert code == 2
    assert [line for line in lines if line.startswith("[FAIL]")] == [
        f"[FAIL] opcalc: {label}: raised ArithmeticError: injected"
        for label in ("resolvent equals closed form", "(1-x^2) d^2 eigenequation",
                      "four-way construction equality")]
    assert calls == [4, 4, 4]


def test_a_broken_diagonal_rule_fails_the_same_lines(monkeypatch):
    # the resolvent factor of degree 4 at (-1, -1) takes -9 for -10 at d = 2:
    # the one shared build of gp_series(4, -1, -1) is wrong, and each check
    # that reads it prints the line it printed when it built its own
    _, clean = run_verify()
    real = opcalc._resolvent_factor

    def broken(n, alpha, beta):
        op = real(n, alpha, beta)
        if n != 4:
            return op

        def rule(d):
            num, den = op.rule(d)
            return (num + den, den) if d == 2 else (num, den)

        return opcalc.DiagonalOp(rule, op.kernel)

    monkeypatch.setattr(opcalc, "_resolvent_factor", broken)
    failing = {
        "resolvent equals closed form": "resolvent vs closed form differ at n=4",
        "(1-x^2) d^2 eigenequation": "eigenequation fails at n=4, beta=-1",
        "four-way construction equality": "constructions disagree at n=4",
    }
    want = []
    for line in clean[:-1]:
        label = line.removeprefix("[PASS] opcalc: ")
        want.append(f"[FAIL] opcalc: {label}: {failing[label]}" if label in failing
                    else line)
    want.append("15/18 checks passed")
    assert run_verify() == (2, want)
