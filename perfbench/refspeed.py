"""Reference CPU speed, measured alongside the program.

On a shared machine the CPU time of a fixed piece of work swings by tens of
percent within seconds, as other tenants load the cores and caches.  A
fixed slice of pure-Python exact arithmetic (stdlib ``fractions`` in dicts,
the same kind of work as sjk's inner loops), timed in thread CPU time after
every request, follows those swings closely: time divided by the slice time
of the same moment varies far less than time alone.  The benchmark reports
times rescaled to a machine on which one slice takes NOMINAL_SLICE_S, so a
metric in ms is "ms at the reference speed".  Nothing here imports sjk, so
no change to the program can move the slice.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_SLICE_S = 0.0005  # one slice on a 2-core x86-64 VM, CPython 3.11, unloaded

_A = {k: Fraction((-1) ** k * (k * k + 3), 2 * k + 7) for k in range(9)}
_B = {(k, 5 - k): Fraction(k + 1, 3 ** (k % 4)) for k in range(6)}


def _mul(a, b, add):
    out = {}
    for ka, va in a.items():
        for kb, vb in b.items():
            key = add(ka, kb)
            out[key] = out.get(key, 0) + va * vb
    return out


def _slice():
    _mul(_A, _A, int.__add__)
    _mul(_B, _B, lambda p, q: (p[0] + q[0], p[1] + q[1]))


def slice_s() -> float:
    """Thread CPU seconds of one reference slice."""
    c0 = time.thread_time()
    _slice()
    return time.thread_time() - c0


def speed(slices) -> float:
    """Factor that rescales CPU times measured while these slice times were
    seen to the reference speed."""
    return NOMINAL_SLICE_S * len(slices) / sum(slices)
