"""Every top-level function, class and constant of the package, and every
method, property and annotated field of its classes, is used: by its own
module, by another module under src/ or perfbench/, by pyproject.toml, or by
the acceptance suite, which calls the release API. A name that only a unit
test calls counts as unused. Likewise every dataclass field with a default
is set, and every function parameter with a default is passed, by one of
those files."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
WORD = re.compile(r"\w+")


def _release_trees() -> dict:
    """Path -> AST of every file whose use counts: src/, perfbench/ and the
    acceptance suite."""
    files = sorted(p for d in ("src", "perfbench") for p in (ROOT / d).rglob("*.py"))
    files.append(ROOT / "tests" / "test_acceptance.py")
    return {p: ast.parse(p.read_text(), filename=str(p)) for p in files}


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
    trees = _release_trees()
    seen = set(WORD.findall((ROOT / "pyproject.toml").read_text()))
    seen = seen.union(*(_uses(tree) for tree in trees.values()))
    unused = [f"{path.name}: {label}" for path in sorted((ROOT / "src" / "dafed").glob("*.py"))
              for name, label in _definitions(trees[path])
              if name not in seen and not name.startswith("__")]
    assert not unused, "defined but never referenced: " + ", ".join(unused)


def _defaulted_fields(tree):
    """(Class, field) of each dataclass field with a plain default, and each
    dataclass's fields in declaration order; `field(...)` values are exempt."""
    defaulted, order = [], {}
    for node in tree.body:
        if not (isinstance(node, ast.ClassDef) and any(
                "dataclass" in ast.dump(d) for d in node.decorator_list)):
            continue
        fields = [m for m in node.body
                  if isinstance(m, ast.AnnAssign) and isinstance(m.target, ast.Name)]
        order[node.name] = [m.target.id for m in fields]
        defaulted += [(node.name, m.target.id) for m in fields if m.value is not None and not (
            isinstance(m.value, ast.Call) and getattr(m.value.func, "id", None) == "field")]
    return defaulted, order


def _set_fields(tree, order) -> set:
    """(Class, field) pairs a call to the class passes by position or keyword
    (every field under `*` or `**`), and (None, name) for each attribute
    assignment."""
    assigned = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            assigned.update((None, t.attr) for t in targets if isinstance(t, ast.Attribute))
        elif isinstance(node, ast.Call):
            func = node.func
            cls = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if cls not in order:
                continue
            names = order[cls]
            if any(isinstance(a, ast.Starred) for a in node.args) or any(
                    k.arg is None for k in node.keywords):
                assigned.update((cls, name) for name in names)
            assigned.update((cls, name) for name in names[:len(node.args)])
            assigned.update((cls, k.arg) for k in node.keywords)
    return assigned


def test_every_defaulted_dataclass_field_is_set_somewhere():
    # a setting that only ever takes its default is a constant
    trees = _release_trees()
    defaulted, order = [], {}
    for path in sorted((ROOT / "src" / "dafed").glob("*.py")):
        fields, classes = _defaulted_fields(trees[path])
        defaulted += fields
        order.update(classes)
    assigned = set().union(*(_set_fields(tree, order) for tree in trees.values()))
    never = [f"{cls}.{name}" for cls, name in defaulted
             if (cls, name) not in assigned and (None, name) not in assigned]
    assert not never, "defaulted but never set: " + ", ".join(never)


def _defaulted_parameters(tree):
    """(function, parameter, positional index or None) of each parameter
    with a default, for every function and method; a method's index leaves
    out `self`, and a class's `__init__` is listed under the class name."""
    methods = {id(m): cls.name for cls in ast.walk(tree) if isinstance(cls, ast.ClassDef)
               for m in cls.body if isinstance(m, (ast.FunctionDef, ast.AsyncFunctionDef))}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        cls = methods.get(id(node))
        name = cls if node.name == "__init__" else node.name
        static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
        positional = node.args.posonlyargs + node.args.args
        skip = 1 if cls and not static else 0
        first = len(positional) - len(node.args.defaults)
        yield from ((name, a.arg, i - skip) for i, a in enumerate(positional) if i >= first)
        yield from ((name, a.arg, None) for a, d in zip(node.args.kwonlyargs,
                                                         node.args.kw_defaults) if d is not None)


def _passed_parameters(tree) -> set:
    """(callee, parameter name) for each keyword a call passes, (callee,
    index) for each position, and (callee, None) for a call with `*` or
    `**`, which may pass any."""
    passed = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        func = node.func
        callee = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
        if any(isinstance(a, ast.Starred) for a in node.args) or any(
                k.arg is None for k in node.keywords):
            passed.add((callee, None))
        passed.update((callee, i) for i in range(len(node.args)))
        passed.update((callee, k.arg) for k in node.keywords)
    return passed


def test_every_defaulted_parameter_is_passed_somewhere():
    # a parameter that every call leaves at its default is a constant
    trees = _release_trees()
    passed = set().union(*(_passed_parameters(tree) for tree in trees.values()))
    never = [f"{path.name}: {func}({param})"
             for path in sorted((ROOT / "src" / "dafed").glob("*.py"))
             for func, param, index in _defaulted_parameters(trees[path])
             if not {(func, param), (func, index), (func, None)} & passed]
    assert not never, "defaulted but never passed: " + ", ".join(never)
