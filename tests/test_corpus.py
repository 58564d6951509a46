"""The byte-identity corpus (tools/corpus.py) against its recorded output."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).parent.parent
RECORDED = Path(__file__).parent / "data" / "corpus.txt"


# The raised-cap requests fail on CPython's 4,300-digit limit for int to str
# conversion, which older versions do not have.
@pytest.mark.skipif(sys.version_info < (3, 11), reason="needs the int digit limit")
def test_corpus_output_is_unchanged():
    # the requests without a setting of their own run at the default cap
    env = {k: v for k, v in os.environ.items() if k != "SJK_MAX_ORDER"}
    proc = subprocess.run(
        [sys.executable, str(ROOT / "tools" / "corpus.py"), str(ROOT / "src")],
        capture_output=True,
        text=True,
        env=env,
    )
    assert (proc.returncode, proc.stderr) == (0, "")
    got = proc.stdout.splitlines()
    want = RECORDED.read_text().splitlines()
    for g, w in zip(got, want):
        assert g == w, "first difference at request " + repr(w.split("\t")[0])
    assert len(got) == len(want)
