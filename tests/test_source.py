"""Checks on the package's own source: no import goes unused, no private
helper is left without a caller, no public function or class is left
neither exported nor read, no defaulted parameter goes unpassed, and
nothing reads the process environment."""

import ast
from pathlib import Path

import squarestable

SRC = Path(squarestable.__file__).resolve().parent
ROOT = Path(__file__).resolve().parents[1]


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


def _unread(modules: dict[str, ast.Module], private: bool) -> list[str]:
    """Each module-level function or class, private or public as asked, that
    nothing in the package reads outside its own definition, as ``module:
    name``.  ``__init__.py`` imports every export, so an export is read."""
    reads = [(stmt, _referenced([stmt])) for tree in modules.values() for stmt in tree.body]
    out = []
    for name, tree in modules.items():
        for node in tree.body:
            if not (isinstance(node, (ast.FunctionDef, ast.ClassDef))
                    and node.name.startswith("_") == private
                    and not node.name.startswith("__")):
                continue
            if not any(node.name in names for stmt, names in reads if stmt is not node):
                out.append(f"{name}: {node.name}")
    return out


def dead_helpers(modules: dict[str, ast.Module]) -> list[str]:
    """Each private function or class that has no caller in the package."""
    return _unread(modules, private=True)


def orphan_public_names(modules: dict[str, ast.Module]) -> list[str]:
    """Each public function or class that the package neither exports nor
    reads: a wrapper no route takes, kept alive only by its tests."""
    return _unread(modules, private=False)


def uncalled_defaults(modules: dict[str, ast.Module], callers) -> list[str]:
    """Each defaulted parameter of a function in ``modules`` that no call in
    the ``callers`` trees passes, by position or by keyword, as
    ``module: function(parameter)``.  Calls are matched by the function's
    name; one with ``*args`` passes every positional parameter, and one with
    ``**kwargs`` every parameter."""
    calls = {}
    for tree in callers:
        for sub in ast.walk(tree):
            if isinstance(sub, ast.Call):
                func = sub.func
                key = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
                calls.setdefault(key, []).append(sub)
    out = []
    for name, tree in modules.items():
        methods = {id(f) for c in ast.walk(tree) if isinstance(c, ast.ClassDef) for f in c.body}
        for fn in ast.walk(tree):
            if not isinstance(fn, ast.FunctionDef):
                continue
            args = fn.args
            positional = args.posonlyargs + args.args
            # a call of a method does not pass its self
            shift = int(id(fn) in methods and not any(
                getattr(d, "id", None) == "staticmethod" for d in fn.decorator_list))
            first = len(positional) - len(args.defaults)
            defaulted = [(i - shift, p.arg) for i, p in enumerate(positional) if i >= first]
            defaulted += [(None, p.arg) for p, d in zip(args.kwonlyargs, args.kw_defaults)
                          if d is not None]
            for index, param in defaulted:
                if not any(_passes(call, index, param) for call in calls.get(fn.name, ())):
                    out.append(f"{name}: {fn.name}({param})")
    return out


def _passes(call: ast.Call, index, param: str) -> bool:
    """Whether ``call`` passes ``param``, by keyword or at the positional
    ``index`` (``None`` for a keyword-only parameter)."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return index is not None and (len(call.args) > index
                                  or any(isinstance(a, ast.Starred) for a in call.args))


def environment_reads(modules: dict[str, ast.Module]) -> list[str]:
    """Each reference to the process environment, ``environ``, ``getenv``
    or ``putenv``, as ``module: name``: every setting comes from the
    command line."""
    env = {"environ", "getenv", "putenv"}
    return [f"{name}: {ref}" for name, tree in modules.items()
            for ref in sorted(_referenced([tree]) & env)]


def _callers(modules: dict[str, ast.Module]) -> list[ast.Module]:
    """The package's modules, the tests and the demos."""
    paths = [*sorted((ROOT / "tests").glob("*.py")), *sorted((ROOT / "demos").glob("*.py"))]
    return [*modules.values(), *(ast.parse(p.read_text(), str(p)) for p in paths)]


def test_no_module_imports_a_name_it_never_uses():
    assert unused_imports(_modules()) == []


def test_every_private_helper_has_a_caller():
    assert dead_helpers(_modules()) == []


def test_every_public_name_is_exported_or_read():
    assert orphan_public_names(_modules()) == []


def test_every_defaulted_parameter_has_a_caller():
    modules = _modules()
    assert uncalled_defaults(modules, _callers(modules)) == []


def test_no_module_reads_the_environment():
    assert environment_reads(_modules()) == []


def test_the_checks_catch_a_planted_fault():
    planted = dict(_modules())
    planted["planted.py"] = ast.parse(
        "import os\n"
        "from .graphs import Graph, square\n\n"
        "def _orphan(g: Graph, first=0, cap=None, *, strict=False) -> int:\n"
        "    return _orphan(g, 1, strict=os.environ.get('STRICT'))\n\n"
        "def stray(g: Graph) -> int:\n"
        "    return stray(g)\n")
    assert unused_imports(planted) == ["planted.py: square"]
    assert dead_helpers(planted) == ["planted.py: _orphan"]
    assert orphan_public_names(planted) == ["planted.py: stray"]
    assert uncalled_defaults(planted, _callers(planted)) == ["planted.py: _orphan(cap)"]
    assert environment_reads(planted) == ["planted.py: environ"]
