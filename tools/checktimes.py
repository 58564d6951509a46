"""Per-check times of `sjk verify` on two source trees.

    python3 tools/checktimes.py PARENT_SRC CHANGE_SRC

PARENT_SRC and CHANGE_SRC are directories that hold the package (for
example ``src`` of two checkouts).  Each of ROUNDS (25) rounds starts
one child process per tree, alternating which tree runs first.  A child
imports sjk from its tree and makes PASSES (5) passes over every check
of every suite, in the order `sjk verify` runs them, with the family
caches cleared at the start of each pass; a check's time in the round is
its least CPU time (time.thread_time) over the passes, so a later check
finds the caches that the earlier ones of its pass filled, as in one
`sjk verify`.  The garbage collector is off in the child: a collection
falls wherever the allocation count happens to cross its threshold, so
with it on, a change that allocates less in one check moves collections
into another.

Prints a markdown table: per check, per suite (the sum of its checks) and
for all checks, the median over the rounds on each tree in microseconds,
the median over the rounds of the ratio change / parent within a round
(the two children of a round run back to back, so a drift of the
machine's speed between rounds cancels in it), and in how many rounds the
change took less time.  Needs only the standard library.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

ROUNDS = 25
PASSES = 5

CHILD = """\
import gc, json, sys, time
sys.path.insert(0, {src!r})
from sjk import families, verify

gc.disable()

checks = [(f"{{name}}: {{label}}", fn)
          for name in sorted(verify.SUITES) for label, fn in verify.SUITES[name]()]
caches = [f for f in vars(families).values() if hasattr(f, "cache_clear")]
best = {{}}
for _ in range({passes}):
    for f in caches:
        f.cache_clear()
    for key, fn in checks:
        t0 = time.thread_time()
        detail = fn()
        t = time.thread_time() - t0
        if detail is not None:
            raise SystemExit(f"{{key}} failed: {{detail}}")
        best[key] = min(t, best.get(key, t))
print(json.dumps(best))
"""


def _child(src: str) -> dict:
    out = subprocess.run([sys.executable, "-c", CHILD.format(src=src, passes=PASSES)],
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def _rows(times: dict) -> dict:
    """The per-check times plus one total per suite and one for all checks."""
    rows = dict(times)
    for key, t in times.items():
        suite = key.split(":")[0] + " suite"
        rows[suite] = rows.get(suite, 0.0) + t
    rows["all checks (full verify)"] = sum(times.values())
    return rows


def main() -> None:
    if len(sys.argv) != 3:
        raise SystemExit("usage: python3 tools/checktimes.py PARENT_SRC CHANGE_SRC")
    trees = {"parent": sys.argv[1], "change": sys.argv[2]}
    runs = {"parent": [], "change": []}
    for r in range(ROUNDS):
        order = ("parent", "change") if r % 2 == 0 else ("change", "parent")
        for side in order:
            runs[side].append(_rows(_child(trees[side])))
        print(f"round {r + 1}/{ROUNDS}", file=sys.stderr)
    print(f"{ROUNDS} rounds, {PASSES} passes per child; times in us\n")
    print("| check | parent | change | ratio | change faster |")
    print("|---|---:|---:|---:|---:|")
    for key in runs["parent"][0]:
        p = statistics.median(run[key] for run in runs["parent"]) * 1e6
        c = statistics.median(run[key] for run in runs["change"]) * 1e6
        pairs = list(zip(runs["parent"], runs["change"]))
        ratio = statistics.median(b[key] / a[key] for a, b in pairs)
        wins = sum(b[key] < a[key] for a, b in pairs)
        print(f"| {key} | {p:,.0f} | {c:,.0f} | {ratio:.2f} | {wins}/{ROUNDS} |")


if __name__ == "__main__":
    main()
