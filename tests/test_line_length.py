"""No line of the package, its tools or its tests is longer than 88 characters."""

from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
LIMIT = 88


def test_no_line_over_the_limit():
    too_long = [
        f"{path.relative_to(ROOT)}:{n}: {len(line)} characters"
        for path in sorted([*ROOT.glob("src/sjk/**/*.py"), *ROOT.glob("tools/**/*.py"),
                            *ROOT.glob("tests/**/*.py")])
        for n, line in enumerate(path.read_text().splitlines(), 1)
        if len(line) > LIMIT
    ]
    assert not too_long, "\n".join(too_long)
