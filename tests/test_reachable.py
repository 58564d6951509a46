"""Every function and method in src/sjk runs in the corpus of
tools/corpus.py, or is one of the names that KEPT lists.  A definition ran
when its first line, decorators included, is among the (file, first line)
pairs that the corpus_run fixture (conftest.py) recorded; each method is
its own code object, so operators and shared names are told apart exactly.
"""

import ast
import re
from functools import cache
from pathlib import Path

from sjk.poly import Poly

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "sjk"

# What the corpus does not run but src/sjk keeps, as module.qualified.name.
KEPT = (
    # Public names, the README's "Library API" list; each has a test.
    # perfbench reads Poly.terms and ExactScalar.rat.
    "cli.main",  # the sjk console script; the corpus calls cli.run
    "scalar.HalfInt.__eq__", "scalar.HalfInt.__hash__", "scalar.HalfInt.__repr__",
    "scalar.HalfInt.__str__",
    "scalar.ExactScalar.rat", "scalar.ExactScalar.__bool__",
    "scalar.ExactScalar.__neg__", "scalar.ExactScalar.__sub__",
    "scalar.ExactScalar.__rsub__", "scalar.ExactScalar.__truediv__",
    "scalar.ExactScalar.__rtruediv__", "scalar.ExactScalar.__hash__",
    "scalar.ExactScalar.__repr__", "scalar.ExactScalar.__str__",
    "poly.Poly.terms", "poly.Poly.scalar_coeff",
    "poly.Poly.__neg__", "poly.Poly.__sub__", "poly.Poly.__rsub__",
    "poly.Poly.__hash__", "poly.Poly.__repr__",
    "poly.CoeffSeries.__eq__", "poly.CoeffSeries.__repr__",
    "hyper.HyperSpec.__repr__", "umbral.GenMonomial.__repr__",
    "umbral.GenSeries.__repr__",
    # Private helpers that only the public names run: the hashes,
    # ExactScalar repr and str.
    "scalar._rat_hash", "scalar.ExactScalar._rat_text",
    # Guards, run only on input that the command never passes on.
    "scalar._grade_clash",  # a scalar sum over two sqrt(pi) grades
    "poly._lead",  # the term that a Poly sum over two grades names
)


def sources() -> dict:
    """{module name: source text} of the modules of src/sjk."""
    return {path.stem: path.read_text() for path in sorted(SRC.glob("*.py"))}


def definitions(texts: dict) -> dict:
    """{(module, first line): module.qualified.name} of every function and
    method, nested ones included, in texts, a map {module name: text}."""
    out = {}

    def visit(node, module, prefix):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if not isinstance(child, ast.ClassDef):
                    lines = [child.lineno] + [d.lineno for d in child.decorator_list]
                    out[module, min(lines)] = f"{module}.{name}"
                visit(child, module, name + ".")
            elif isinstance(child, (ast.stmt, ast.excepthandler, ast.match_case)):
                visit(child, module, prefix)  # a def can sit in a block

    for module, text in texts.items():
        visit(_parse(text), module, "")
    return out


_parse = cache(ast.parse)  # each edited copy parses only the module it changes


def ran_names(ran: set) -> set:
    """The names of the definitions in src/sjk whose (file, first line) ran."""
    lines = {(Path(f).stem, n) for f, n in ran if Path(f).parent == SRC}
    return {name for key, name in definitions(sources()).items() if key in lines}


def unrun(ran: set, texts: dict) -> list:
    """The names defined in texts that neither ran nor are kept."""
    return sorted(set(definitions(texts).values()) - ran - set(KEPT))


def test_every_definition_is_reached_from_the_cli(corpus_run):
    ran = ran_names(corpus_run[1])
    assert unrun(ran, sources()) == []
    # a kept name is defined and does not run: no entry outlives its reason
    assert set(KEPT) - (set(definitions(sources()).values()) - ran) == set()


def test_the_walk_names_an_unused_definition(corpus_run):
    # the walk over edited copies of the text, against the real run's names
    ran = ran_names(corpus_run[1])
    texts = sources()
    for module, text in texts.items():
        edited = {**texts, module: text + "\n\ndef _unused():\n    pass\n"}
        assert unrun(ran, edited) == [f"{module}._unused"]
    # an operator that nothing calls, in a class whose other operators run
    anchor = "    def __eq__(self, other):\n        other = _operand(other)\n"
    matmul = "    def __matmul__(self, other):\n        return self\n\n"
    poly = texts["poly"].replace(anchor, matmul + anchor)
    assert unrun(ran, {**texts, "poly": poly}) == ["poly.Poly.__matmul__"]


# The attribute that holds a Poly's stored integers; no module but poly.py
# reads it, so that the form it holds can change in one place.
STORED = "_form"


def stored_form_reads(texts: dict) -> list:
    """(module, line) of each read of a Poly's stored form outside poly.py
    in texts: the attribute, or its name as a string (getattr)."""
    return sorted(
        (module, node.lineno)
        for module, text in texts.items() if module != "poly"
        for node in ast.walk(_parse(text))
        if isinstance(node, ast.Attribute) and node.attr == STORED
        or isinstance(node, ast.Constant) and node.value == STORED
    )


def test_only_poly_reads_the_stored_form():
    assert STORED in Poly.__slots__
    texts = sources()  # scalar._parts, a function that hyper reads, is not it
    assert stored_form_reads(texts) == []
    # a read is found, as an attribute or through getattr
    for module, read in (("connect", "Poly.var('x')._form"),
                         ("umbral", "getattr(Poly(), '_form')")):
        edited = {**texts, module: texts[module] + f"x = {read}\n"}
        line = texts[module].count("\n") + 1
        assert stored_form_reads(edited) == [(module, line)]


def test_readme_lists_the_public_kept_names():
    readme = (ROOT / "README.md").read_text()
    section = readme.split("\n## Library API\n", 1)[1].split("\n## ", 1)[0]
    rows = re.findall(r"^- `sjk\.([\w.]+)`: (.*)$", section, re.M)
    listed = [f"{owner}.{name}" for owner, names in rows
              for name in re.findall(r"`(\w+)`", names)]
    public = [k for k in KEPT if not re.search(r"(^|\.)_(?!_)", k)]  # dunders too
    assert sorted(listed) == sorted(public)
