"""Checks over the source of `src/ripslab`, read as syntax trees: every
public module-level name has a reader in the program or the benchmark,
sympy is imported in one place, and only `forest` reads path pieces."""

import ast
import pathlib

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC, PERFBENCH = ROOT / "src" / "ripslab", ROOT / "perfbench"

# names that no command calls yet, each kept for the ROADMAP item that is
# to call it; when that item lands without it, the name moves to tests/
KEPT = {"word_domain": "item 4", "lineage": "item 2", "is_reduced": "item 3"}


def _trees(directory):
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(directory.glob("*.py"))}


def _references(tree):
    """(name, line) of each name that the tree loads, reads as an
    attribute or imports."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def _public_definitions(tree):
    """(name, first line, last line) of each public module-level function,
    class and assigned name."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            targets = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            roots = node.targets if isinstance(node, ast.Assign) else [node.target]
            targets = [n.id for t in roots for n in ast.walk(t) if isinstance(n, ast.Name)]
        else:
            continue
        for name in targets:
            if not name.startswith("_"):
                yield name, node.lineno, node.end_lineno


def test_every_public_name_has_a_reader():
    """A public name of src/ripslab is referenced outside its own
    definition, by src/ or by perfbench/, unless KEPT names its item."""
    src = _trees(SRC)
    readers = [(("src", f), t) for f, t in src.items()]
    readers += [(("perfbench", f), t) for f, t in _trees(PERFBENCH).items()]
    refs = [(where, name, line) for where, tree in readers for name, line in _references(tree)]
    unread = sorted(
        name for f, tree in src.items() for name, lo, hi in _public_definitions(tree)
        if not any(r == name and not (where == ("src", f) and lo <= line <= hi)
                   for where, r, line in refs))
    assert unread == sorted(KEPT)


def test_sympy_is_imported_in_one_place():
    sites = [(f, node.lineno) for f, tree in _trees(SRC).items() for node in ast.walk(tree)
             if isinstance(node, ast.Import)
             and any(a.name.split(".")[0] == "sympy" for a in node.names)
             or isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "sympy"]
    assert [f for f, _ in sites] == ["scalar.py"], sites


def test_only_forest_reads_path_pieces():
    """`MetricForest.path`'s piece layout stays inside `forest`: every
    other module reads an arc through `MetricForest.arc`."""
    calls = [(f, node.lineno) for f, tree in _trees(SRC).items() if f != "forest.py"
             for node in ast.walk(tree)
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and node.func.attr == "path"
             and not (isinstance(node.func.value, ast.Name) and node.func.value.id == "os")]
    assert calls == []
