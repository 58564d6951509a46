"""The byte-identity corpus (tools/corpus.py) against its recorded output."""

from pathlib import Path

RECORDED = Path(__file__).parent / "data" / "corpus.txt"


def test_corpus_output_is_unchanged(corpus_run):
    proc, _ = corpus_run
    assert (proc.returncode, proc.stderr) == (0, "")
    got = proc.stdout.splitlines()
    want = RECORDED.read_text().splitlines()
    for g, w in zip(got, want):
        assert g == w, "first difference at request " + repr(w.split("\t")[0])
    assert len(got) == len(want)
