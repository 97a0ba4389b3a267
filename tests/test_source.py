"""Checks on the package's own source: no import goes unused and no private
helper is left without a caller."""

import ast
from pathlib import Path

import squarestable

SRC = Path(squarestable.__file__).resolve().parent


def _modules() -> dict[str, ast.Module]:
    return {p.name: ast.parse(p.read_text(), str(p)) for p in sorted(SRC.glob("*.py"))}


def _referenced(nodes) -> set[str]:
    """The names that the nodes and their subtrees read, as names, as
    attributes or as names imported from a module."""
    out = set()
    for node in nodes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name):
                out.add(sub.id)
            elif isinstance(sub, ast.Attribute):
                out.add(sub.attr)
            elif isinstance(sub, ast.ImportFrom):
                out.update(alias.name for alias in sub.names)
    return out


def unused_imports(modules: dict[str, ast.Module]) -> list[str]:
    """Each name that a module other than ``__init__.py`` imports and never
    reads, as ``module: name``."""
    out = []
    for name, tree in modules.items():
        if name == "__init__.py":
            continue
        imported = []
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported += [a.asname or a.name for a in node.names]
            elif isinstance(node, ast.Import):
                imported += [(a.asname or a.name).split(".")[0] for a in node.names]
        used = {sub.id for sub in ast.walk(tree) if isinstance(sub, ast.Name)}
        used |= {sub.value.id for sub in ast.walk(tree)
                 if isinstance(sub, ast.Attribute) and isinstance(sub.value, ast.Name)}
        out += [f"{name}: {b}" for b in imported if b not in used]
    return out


def dead_helpers(modules: dict[str, ast.Module]) -> list[str]:
    """Each module-level private function or class that nothing in the
    package reads outside its own definition, as ``module: name``."""
    out = []
    for name, tree in modules.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") and not node.name.startswith("__")):
                continue
            elsewhere = [stmt for other, t in modules.items() for stmt in t.body
                         if not (other == name and stmt is node)]
            if node.name not in _referenced(elsewhere):
                out.append(f"{name}: {node.name}")
    return out


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports(_modules()) == []


def test_every_private_helper_has_a_caller():
    assert dead_helpers(_modules()) == []


def test_the_checks_catch_a_planted_fault():
    planted = dict(_modules())
    planted["planted.py"] = ast.parse(
        "from .graphs import Graph, square\n\n"
        "def _orphan(g: Graph) -> int:\n    return _orphan(g)\n")
    assert unused_imports(planted) == ["planted.py: square"]
    assert dead_helpers(planted) == ["planted.py: _orphan"]
