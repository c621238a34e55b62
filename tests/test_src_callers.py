"""Every function in ``src/uavnav`` has a caller in the program or the
benchmark, and every name a module there imports is read in it.

Code that only tests call belongs in ``tests/reference.py``. The first test
parses ``src/uavnav/*.py`` and ``bench/*.py`` and fails, naming them, when a
function or method defined in ``src/`` (dunders aside) is referenced
nowhere as a name, an attribute or an imported name: ``save as
save_table`` is a use of ``save``. Docstrings and comments do not count,
and neither do the re-exports in ``uavnav/__init__.py``. The second fails,
naming the module and the names, when a module of ``src/uavnav`` binds a
name by ``import`` and never reads it; ``from __future__`` imports and the
re-exports in ``uavnav/__init__.py`` are not checked.

Blind spot: a reference is matched by name alone, so a function whose name
is also used for a variable, a parameter's attribute or another module's
function (``at``, say) counts as called whether or not anything calls it.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = sorted((ROOT / "src" / "uavnav").glob("*.py"))
BENCH = sorted((ROOT / "bench").glob("*.py"))


def _trees(paths):
    return {path: ast.parse(path.read_text(encoding="utf-8"), str(path)) for path in paths}


def _defined(tree):
    return {
        node.name
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def _referenced(tree):
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.alias):
            names.add(node.name.rpartition(".")[2])
    return names


def test_every_src_function_has_a_caller_outside_tests():
    assert SRC and BENCH
    src = _trees(SRC)
    defined = set().union(*map(_defined, src.values()))
    users = {**src, **_trees(BENCH)}
    del users[ROOT / "src" / "uavnav" / "__init__.py"]
    referenced = set().union(*map(_referenced, users.values()))
    unused = sorted(defined - referenced)
    assert not unused, f"defined in src/uavnav, called from no module there or in bench: {unused}"


def _unread_imports(tree):
    """The names ``tree`` binds by import and never reads, sorted."""
    bound = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            # ``import a.b`` binds ``a``; ``import a as b`` and ``from m import a as b`` bind ``b``
            bound.update(a.asname or a.name.partition(".")[0] for a in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(bound - read)


def test_every_src_import_is_read():
    src = _trees(SRC)
    del src[ROOT / "src" / "uavnav" / "__init__.py"]
    unread = {path.name: names for path, tree in src.items() if (names := _unread_imports(tree))}
    assert not unread, f"imported in src/uavnav and never read: {unread}"
