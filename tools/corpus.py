"""Byte-identity corpus for the sjk CLI.

    python3 tools/corpus.py SRC > corpus.txt

Imports sjk from the directory SRC (for example ``src`` of a checkout),
sends a fixed list of requests to ``sjk.cli.run`` in process with the
family caches cleared before each, and prints one line per request:

    <request> TAB <exit code or exception> TAB <SHA-256 of stdout> TAB <repr of stderr>

A request is a CLI argument line, optionally led by NAME=value
environment settings that hold for that request only.  Diffing the output
of two checkouts shows every request whose stdout, stderr or exit code
changed.  The list covers every verb in every format, the alpha/beta grid
(64-bit and half-integer values included), other spellings of a rational
option (0.5, -.5, +3/2, 2/4), lacunary K 1-4 x L 0-3 with and without
--check and --check at large L, verify with each suite, and the usage
errors.
"""

from __future__ import annotations

import hashlib
import io
import os
import sys
from pathlib import Path

FORMATS = ("text", "latex", "json")
BIG = "18446744073709551615/18446744073709551614"  # 64-bit, just above 1
NEAR_M1 = "-18446744073709551614/18446744073709551615"  # 64-bit, just above -1
RATIONALS = ("0", "1/2", "-1/2", "3/2", "-1/3", "2", BIG, NEAR_M1)
HALF_INTS = ("-1/2", "0", "1/2", "3", "1999/2")
SUITES = ("scalar", "opcalc", "umbral", "hyper", "lacunary", "connect")


def requests() -> list:
    reqs = []
    for fmt in FORMATS:
        f = f"--format {fmt}"
        for n in (0, 1, 2, 5, 9, 33, 64):
            reqs.append(f"poly --family sj --n {n} {f}")
        reqs += [f"poly --family sj --n 1 --gamma {g} {f}" for g in ("1/2", "-3/2")]
        for n in (0, 1, 6, 12):
            reqs.append(f"poly --family hermite --n {n} {f}")
        for b in RATIONALS:
            reqs.append(f"poly --family sj-beta --n 5 --beta {b} {f}")
        for a in RATIONALS:
            for b in ("0", "-1/2", BIG, NEAR_M1):
                reqs.append(f"poly --family jacobi --n 4 --alpha {a} --beta {b} {f}")
        reqs.append(f"poly --family jacobi --n 64 --alpha {BIG} --beta {NEAR_M1} {f}")
        for order in (0, 3, 8):
            reqs.append(f"egf --family sj --order {order} {f}")
            reqs.append(f"egf --family hermite --order {order} {f}")
        for b in HALF_INTS:
            reqs.append(f"egf --family sj-beta-shifted --order 6 --beta {b} {f}")
        for fam in ("sj", "hermite"):
            for M in (0, 1, 6, 13):
                reqs.append(f"connect --family {fam} --M {M} {f}")
            for top in (0, 5):
                reqs.append(f"table --family {fam} --max-n {top} {f}")
        for N0 in (0, 1, 4, 7):
            for t in (0, 3):
                reqs.append(f"react --N0 {N0} --t-order {t} {f}")
    # the largest sj EGF of the emit-large mix; test_cli pins its text form
    reqs += [f"egf --family sj --order 24 --format {fmt}" for fmt in ("latex", "json")]
    # the degree-0 sj-beta member; only JSON writes its variables
    reqs.append("poly --family sj-beta --n 0 --format json")
    for fam in ("sj", "hermite"):
        for K in range(1, 5):
            for L in range(4):
                base = f"lacunary --family {fam} --K {K} --L {L} --order 3"
                reqs += [f"{base} --format {fmt}" for fmt in FORMATS]
                reqs.append(f"{base} --check")
    reqs.append("lacunary --family sj --K 2 --L 1 --order 8 --check")
    for fam in ("sj", "hermite"):
        for K, L, order in ((1, 32, 32), (1, 63, 1), (2, 20, 22)):
            base = f"lacunary --family {fam} --K {K} --L {L} --order {order}"
            reqs.append(f"{base} --check")
    reqs.append("verify")
    reqs += [f"verify --suite {s}" for s in SUITES]
    reqs.append("verify --suite lacunary --suite connect")
    reqs += [
        # usage, domain and parameter errors
        "",
        "-h",
        "poly -h",
        "nosuchverb",
        "poly --family sj",
        "poly --family nosuch --n 2",
        "poly --family sj --n -1",
        "poly --family sj --n 65",
        "poly --family jacobi --n 3 --alpha -1 --beta 0",
        "poly --family jacobi --n 3 --alpha x --beta 0",
        "poly --family jacobi --n 3 --alpha 1e9 --beta 0",
        "poly --family jacobi --n 3 --alpha 1/0 --beta 0",
        "poly --family jacobi --n 3 --alpha 36893488147419103232 --beta 0",
        "poly --family sj-beta --n 3 --beta -1",
        "poly --family sj-beta --n 3 --beta -3/2",
        "poly --family sj --n 2 --format xml",
        "egf --family sj --order 65",
        "egf --family sj-beta-shifted --order 4 --beta 1/3",
        "egf --family sj-beta-shifted --order 4 --beta 2001/2",
        "lacunary --family sj --K 0 --order 3",
        "lacunary --family sj --K 2 --L -1 --order 3",
        "lacunary --family sj --K 3 --order 30",
        "lacunary --family hermite --K 65 --order 0 --check",
        "lacunary --family sj --K 65 --order 0 --check",
        "lacunary --family sj --K 2 --order 3 --check --format json",
        "lacunary --family hermite --K 2 --order 3 --check --format latex",
        "connect --family sj --M 65",
        "connect --family sj --M -2",
        "react --N0 3 --t-order 65",
        "react --N0 -1",
        "table --family sj --max-n 65",
        "verify --suite nosuch",
        "verify --jobs 2",
        "SJK_MAX_ORDER=8 poly --family sj --n 9",
        "SJK_MAX_ORDER=8 poly --family sj --n 8",
        "SJK_MAX_ORDER=-1 poly --family sj --n 2",
        "SJK_MAX_ORDER=lots poly --family sj --n 2",
        "SJK_MAX_ORDER=0 egf --family hermite --order 0",
        "SJK_MAX_ORDER=100 table --family hermite --max-n 80",
    ]
    # rational spellings that reach the parser of cli._rat: a decimal point,
    # a leading '+' and an unreduced fraction
    for fmt in FORMATS:
        reqs += [
            f"poly --family sj-beta --n 5 --beta 0.5 --format {fmt}",
            f"egf --family sj-beta-shifted --order 6 --beta -.5 --format {fmt}",
            f"poly --family sj --n 1 --gamma +3/2 --format {fmt}",
            f"poly --family jacobi --n 4 --alpha 2/4 --beta 0 --format {fmt}",
        ]
    # past the digits CPython prints, reachable only with a raised cap
    reqs += [
        f"SJK_MAX_ORDER=1000 poly --family jacobi --n 220 --alpha {BIG} "
        f"--beta 18446744073709551614/18446744073709551615 --format {fmt}"
        for fmt in FORMATS
    ]
    return reqs


def _run_one(sjk, line: str):
    argv = line.split()
    env = {}
    while argv and "=" in argv[0] and not argv[0].startswith("-"):
        name, value = argv.pop(0).split("=", 1)
        env[name] = value
    saved = {name: os.environ.get(name) for name in env}
    os.environ.update(env)
    try:
        for fn in vars(sjk.families).values():
            getattr(fn, "cache_clear", lambda: None)()
        out, err = io.StringIO(), io.StringIO()
        try:
            code = sjk.cli.run(argv, out=out, err=err)
        except Exception as exc:  # a traceback is recorded, not fatal
            code = f"raised {type(exc).__name__}: {exc}"
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value
    digest = hashlib.sha256(out.getvalue().encode()).hexdigest()
    return f"{line}\t{code}\t{digest}\t{err.getvalue()!r}"


def main(argv) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 1
    src = Path(argv[0]).resolve()
    sys.path.insert(0, str(src))
    import sjk.cli
    import sjk.families

    if src not in Path(sjk.__file__).resolve().parents:
        raise RuntimeError(f"sjk imported from {sjk.__file__}, not from {src}")
    for line in requests():
        print(_run_one(sjk, line))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
