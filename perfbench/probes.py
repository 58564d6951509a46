"""Fixed-size probes for the traced run: ExactScalar against Fraction, and
one pass of each at-cap row of the baseline table."""

from __future__ import annotations

import random
import statistics
import time
from fractions import Fraction

import mix
import refspeed

SCALAR_BITS = 64  # numerator and denominator bit length of the operands
SCALAR_PAIRS = 2000
SCALAR_REPEATS = 7


def _mul_loop(pairs):
    t0 = time.thread_time()
    for a, b in pairs:
        a * b
    return time.thread_time() - t0


def _add_loop(pairs):
    t0 = time.thread_time()
    for a, b in pairs:
        a + b
    return time.thread_time() - t0


def _rescaled(loop, pairs):
    """CPU time of one loop at the reference speed of that moment."""
    t = loop(pairs)
    return t * refspeed.speed([refspeed.slice_s() for _ in range(5)])


def scalar_probe(scalar_mod, seed: int) -> dict:
    """Median ns per operation on seeded SCALAR_BITS-bit operands, at the
    reference speed."""
    rng = random.Random(f"scalar:{seed}")
    top = 1 << (SCALAR_BITS - 1)
    fracs = [
        Fraction(rng.getrandbits(SCALAR_BITS) | top, rng.getrandbits(SCALAR_BITS) | top)
        for _ in range(SCALAR_PAIRS + 1)
    ]
    raw = list(zip(fracs, fracs[1:]))
    out = {}
    cases = [("scalar.fraction_mul_ns", _mul_loop, raw)]
    wrap = getattr(scalar_mod, "ExactScalar", None)
    if wrap is None:  # absent after a refactor: reported as 0
        out = {"scalar.mul_ns": 0.0, "scalar.add_ns": 0.0}
    else:
        wrapped = [(wrap(a), wrap(b)) for a, b in raw]
        cases += [("scalar.mul_ns", _mul_loop, wrapped), ("scalar.add_ns", _add_loop, wrapped)]
    for name, loop, pairs in cases:
        times = [_rescaled(loop, pairs) for _ in range(SCALAR_REPEATS)]
        out[name] = statistics.median(times) / len(pairs) * 1e9
    return out


def cap_rows(cap: int) -> list:
    """(metric name, request) for each row of the baseline table at cap."""
    zero = Fraction(0)
    return [
        ("cap.table.sj_s", mix.table("sj", cap)),
        ("cap.react_s", mix.react(cap, cap)),
        ("cap.lacunary.sj.K2_s", mix.lacunary("sj", 2, 0, cap // 2)),
        ("cap.lacunary.sj.K4_s", mix.lacunary("sj", 4, 0, cap // 4)),
        ("cap.lacunary.sj.K2L3_s", mix.lacunary("sj", 2, 3, min(20, (cap - 3) // 2))),
        ("cap.poly.sj_s", mix.poly("sj", cap)),
        ("cap.poly.sj-beta_s", mix.poly("sj-beta", cap, beta=zero)),
        ("cap.poly.jacobi_s", mix.poly("jacobi", cap, alpha=zero, beta=zero)),
        ("cap.egf.sj-beta-shifted_s", mix.egf("sj-beta-shifted", cap // 2, beta=zero)),
        ("cap.poly.hermite_s", mix.poly("hermite", cap)),
        ("cap.connect.sj_s", mix.connect("sj", cap)),
        ("cap.verify_s", mix.verify()),
    ]
