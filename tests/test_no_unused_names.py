"""Every top-level function, class and constant of the package, and every
method, property and annotated field of its classes, is used: by its own
module, by another module under src/, tests/ or perfbench/, or by
pyproject.toml."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORD = re.compile(r"\w+")


def _docstrings(tree) -> set:
    scopes = (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    return {id(node.body[0].value) for node in ast.walk(tree)
            if isinstance(node, scopes) and node.body and isinstance(node.body[0], ast.Expr)
            and isinstance(node.body[0].value, ast.Constant)}


def _uses(tree) -> set:
    """Names the module reads: loaded names, attributes, imported names, and
    the words of its strings (traced names, monkeypatched attributes)."""
    skip = _docstrings(tree)
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.alias):
            used.add(node.name)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and id(node) not in skip):
            used.update(WORD.findall(node.value))
    return used


def _definitions(tree):
    """Top-level names, then `Class.member` for the methods, properties and
    annotated fields of each top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            yield from ((t.id, t.id) for t in targets if isinstance(t, ast.Name))
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield member.name, f"{node.name}.{member.name}"
                elif isinstance(member, ast.AnnAssign) and isinstance(member.target, ast.Name):
                    yield member.target.id, f"{node.name}.{member.target.id}"


def test_every_top_level_name_in_the_package_is_referenced():
    files = sorted(p for d in ("src", "tests", "perfbench") for p in (ROOT / d).rglob("*.py"))
    trees = {p: ast.parse(p.read_text(), filename=str(p)) for p in files}
    seen = set(WORD.findall((ROOT / "pyproject.toml").read_text()))
    seen = seen.union(*(_uses(tree) for tree in trees.values()))
    unused = [f"{path.name}: {label}" for path in sorted((ROOT / "src" / "dafed").glob("*.py"))
              for name, label in _definitions(trees[path])
              if name not in seen and not name.startswith("__")]
    assert not unused, "defined but never referenced: " + ", ".join(unused)
