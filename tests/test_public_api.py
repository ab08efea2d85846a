import ast
import importlib
import inspect
import pathlib
import pkgutil

import csq

REPO = pathlib.Path(__file__).resolve().parent.parent


def test_all_lists_exactly_the_public_names_defined():
    """Every csq module with an ``__all__`` lists each public function and
    class it defines, once, and nothing else, so a deleted or new name
    cannot leave the export list stale."""
    checked = 0
    for info in pkgutil.iter_modules(csq.__path__):
        module = importlib.import_module(f"csq.{info.name}")
        if not hasattr(module, "__all__"):
            continue
        defined = {
            name
            for name, obj in vars(module).items()
            if not name.startswith("_")
            and (inspect.isfunction(obj) or inspect.isclass(obj))
            and obj.__module__ == module.__name__
        }
        assert sorted(module.__all__) == sorted(defined), module.__name__
        checked += 1
    assert checked >= 4


def _nodes(*roots: str):
    """Each file's path and every node of its syntax tree, for every .py
    file under the given directories of the repository."""
    for root in roots:
        for path in sorted((REPO / root).rglob("*.py")):
            for node in ast.walk(ast.parse(path.read_text(), str(path))):
                yield path.relative_to(REPO), node


def test_library_has_no_assert_statements():
    """The library's invariants hold under ``python -O``: it checks them
    with raised exceptions, never with an assert statement."""
    found = [f"{path}:{node.lineno}" for path, node in _nodes("src/csq") if isinstance(node, ast.Assert)]
    assert found == []


def _private_csq_names(node: ast.AST) -> list[str]:
    """The csq names an import statement imports through a private part
    (one with a leading underscore that is not a dunder)."""
    if isinstance(node, ast.ImportFrom) and node.level == 0 and node.module:
        parts, names = node.module.split("."), [alias.name for alias in node.names]
    elif isinstance(node, ast.Import):
        parts, names = [], [alias.name for alias in node.names]
    else:
        return []
    return [
        ".".join(parts + [name]) for name in names
        if (parts + name.split("."))[0] == "csq"
        and any(p.startswith("_") and not p.endswith("__") for p in parts + name.split("."))
    ]


def test_scripts_and_benchmark_import_no_private_csq_name():
    """scripts/ and perfbench/ use csq's public names only, so the library
    may rename or delete any private helper without breaking them."""
    found = [
        f"{path}:{node.lineno} imports {name}"
        for path, node in _nodes("scripts", "perfbench")
        for name in _private_csq_names(node)
    ]
    assert found == []
    assert _private_csq_names(ast.parse("from csq.text_core import _sais").body[0]) == ["csq.text_core._sais"]
    assert _private_csq_names(ast.parse("import csq._x, csq.cli").body[0]) == ["csq._x"]
