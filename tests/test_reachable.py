"""Every definition in src/sjk is reached from what the sjk command runs.

The walk starts from cli.run, cli.main and every module's module-level
code.  A function, method or class is reached when a reached body refers
to it by a name, an attribute or an identifier string (not by an import).
A reached class brings its dunder methods, so the data model of Poly,
ExactScalar and the rest stays public API.  One reference reaches every
definition of that name, so the walk errs towards reaching.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "sjk"
DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _definitions(src: Path):
    """(defs, roots): defs maps sjk.module[.Class].name to (name, the nodes
    run when it is reached, its dunder methods); roots are the statements
    run at import: module-level code, decorators, defaults and bases."""
    defs, roots = {}, []

    def visit(body, prefix, owner):
        for node in body:
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                continue
            if not isinstance(node, DEFS):
                if owner is None:
                    roots.append(node)
                continue
            qual = f"{prefix}.{node.name}"
            roots.extend(node.decorator_list)
            if isinstance(node, ast.ClassDef):
                roots.extend(node.bases + node.keywords)
                stmts = [n for n in node.body if not isinstance(n, DEFS)]
                defs[qual] = (node.name, stmts, [])
                visit(node.body, qual, qual)
                continue
            roots.extend(node.args.defaults + node.args.kw_defaults)
            defs[qual] = (node.name, node.body, [])
            if owner and node.name.startswith("__") and node.name.endswith("__"):
                defs[owner][2].append(qual)

    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()).body, f"sjk.{path.stem}", None)
    return defs, roots


def _names(nodes) -> set:
    """The names that the code of nodes refers to."""
    out = set()
    for node in (n for root in nodes for n in ast.walk(root)):
        if isinstance(node, ast.Name):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if node.value.isidentifier():
                out.add(node.value)
    return out


def unreached(src: Path = SRC) -> list:
    """The qualified names of the definitions in src that the walk from
    the entry points and the module-level code does not reach."""
    defs, roots = _definitions(src)
    by_name = {}
    for qual, (name, _, _) in defs.items():
        by_name.setdefault(name, []).append(qual)
    todo, reached, seen = ["sjk.cli.run", "sjk.cli.main"], set(), set()
    pending = [roots]
    while todo or pending:
        if pending:
            for name in _names(pending.pop()) - seen:
                seen.add(name)
                todo += by_name.get(name, [])
        while todo:
            qual = todo.pop()
            if qual not in reached:
                reached.add(qual)
                pending.append(defs[qual][1])
                todo += defs[qual][2]
    return sorted(set(defs) - reached)


def test_every_definition_is_reached_from_the_cli():
    missing = unreached()
    assert not missing, "reached only from outside the sjk command:\n" + "\n".join(
        missing)


def test_the_walk_names_an_unused_definition(tmp_path):
    # each module in turn gains one function that nothing refers to
    modules = sorted(SRC.glob("*.py"))
    for target in modules:
        for path in modules:
            extra = "\n\ndef _unused():\n    pass\n" if path == target else ""
            (tmp_path / path.name).write_text(path.read_text() + extra)
        assert unreached(tmp_path) == [f"sjk.{target.stem}._unused"]
