"""Every module-level name of ``src/niverify`` is used somewhere in ``src``,
every method and property of its classes is read as an attribute somewhere
in ``src``, and every name a module imports is used in that module.

A function, class, constant or method that only tests reach is code the
verifier carries for nothing, so it belongs in the tests.  The exceptions
are the oracles that the acceptance tests import from the package, the
dunder methods, which Python calls, and the members the benchmark in
``perfbench`` reads.  A name that ``__all__`` lists counts as used: that is
how ``__init__`` re-exports.
"""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "niverify"
PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"

# Test oracles that tests/test_acceptance.py imports from the package.
PINNED = {"state_holds", "product_explore", "initial_precise_store", "in_gamma_k"}


def _defined(tree: ast.Module) -> set[str]:
    names = set()
    for stmt in tree.body:
        if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(stmt.name)
        elif isinstance(stmt, ast.Assign):
            names |= {target.id for target in stmt.targets if isinstance(target, ast.Name)}
        elif isinstance(stmt, ast.AnnAssign) and isinstance(stmt.target, ast.Name):
            names.add(stmt.target.id)
    return names


def _loaded(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name)
    return names


def test_every_module_level_name_is_used_in_src():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    loaded = set().union(*map(_loaded, trees.values()))
    unused = sorted(
        f"{module}:{name}"
        for module, tree in trees.items()
        for name in _defined(tree) - loaded - PINNED
        if not name.startswith("__")  # __all__, __version__: read from outside
    )
    assert unused == []


def _members(tree: ast.Module) -> set[tuple[str, str]]:
    """``(class, name)`` of every method and property the module's classes define."""
    members = set()
    for cls in ast.walk(tree):
        if not isinstance(cls, ast.ClassDef):
            continue
        for stmt in cls.body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members.add((cls.name, stmt.name))
            elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Call):
                if isinstance(stmt.value.func, ast.Name) and stmt.value.func.id == "property":
                    members |= {(cls.name, target.id) for target in stmt.targets if isinstance(target, ast.Name)}
    return members


def _attributes_read(tree: ast.Module) -> set[str]:
    return {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}


def test_every_class_member_is_read_in_src():
    trees = {path.name: ast.parse(path.read_text(), str(path)) for path in sorted(SRC.glob("*.py"))}
    bench = [path for path in sorted(PERFBENCH.glob("*.py")) if not path.name.startswith("test_")]
    read = set().union(*map(_attributes_read, trees.values()))
    read |= set().union(*(_attributes_read(ast.parse(path.read_text(), str(path))) for path in bench))
    unread = sorted(
        f"{module}:{cls}.{name}"
        for module, tree in trees.items()
        for cls, name in _members(tree)
        if name not in read and not (name.startswith("__") and name.endswith("__"))
    )
    assert unread == []


def _imported(tree: ast.Module) -> set[str]:
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names |= {alias.asname or alias.name.split(".")[0] for alias in node.names}
    return names


def _exported(tree: ast.Module) -> set[str]:
    for stmt in tree.body:
        if isinstance(stmt, ast.Assign) and any(
            isinstance(target, ast.Name) and target.id == "__all__" for target in stmt.targets
        ):
            return set(ast.literal_eval(stmt.value))
    return set()


def _names_loaded(tree: ast.Module) -> set[str]:
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}


def test_every_imported_name_is_used_in_its_module():
    unused = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text(), str(path))
        used = _names_loaded(tree) | _exported(tree)
        unused += [f"{path.name}:{name}" for name in sorted(_imported(tree) - used)]
    assert unused == []
