"""Every name a package module imports is referenced in that module, every
private helper the package defines is referenced somewhere in it, and the
CLI turns the library's refusals into exit 2 in one place only."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "s1cochain"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["os", "b"]


_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def _private(node: ast.AST) -> bool:
    return (isinstance(node, _DEFS) and node.name.startswith("_")
            and not node.name.startswith("__"))


def _orphaned_private(sources: list[str]) -> list[str]:
    """The `_`-prefixed module-level functions and classes, and the
    `_`-prefixed methods of module-level classes, whose name no source
    references as a name or an attribute."""
    trees = [ast.parse(src) for src in sources]
    defined = []
    for tree in trees:
        for node in tree.body:
            defined += [node.name] if _private(node) else []
            if isinstance(node, ast.ClassDef):
                defined += [m.name for m in node.body if _private(m)]
    used = set()
    for tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Name):
                used.add(n.id)
            elif isinstance(n, ast.Attribute):
                used.add(n.attr)
    return [name for name in defined if name not in used]


def test_no_orphaned_private_helper():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert _orphaned_private(sources) == []


def test_an_orphaned_private_helper_is_caught():
    source = ("def _used(): pass\n"
              "def _orphan(): pass\n"
              "class _Kept:\n"
              "    def __init__(self): self._called()\n"
              "    def _called(self): pass\n"
              "    def _unread(self): pass\n"
              "_used(); _Kept()\n")
    assert _orphaned_private([source]) == ["_orphan", "_unread"]
    assert _orphaned_private([source, "_orphan\nx._unread\n"]) == []


# What a handler catches when it catches a refusal of the library.
_REFUSALS = {"ValueError", "DocumentError", "TruncationError", "Exception", "BaseException"}


def _caught(handler: ast.ExceptHandler) -> set[str]:
    if handler.type is None:
        return {"BaseException"}
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.attr if isinstance(t, ast.Attribute) else getattr(t, "id", "") for t in types}


def _exits(node: ast.AST) -> bool:
    """`raise SystemExit(...)` or a call of `sys.exit`."""
    if isinstance(node, ast.Raise) and node.exc is not None:
        exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
        return isinstance(exc, ast.Name) and exc.id == "SystemExit"
    return (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
            and node.func.attr == "exit" and getattr(node.func.value, "id", "") == "sys")


def _refusals_outside_refused(source: str) -> list[str]:
    """The module-level functions other than `_refused` with an `except`
    handler that catches a ValueError and exits."""
    out = []
    for fn in ast.parse(source).body:
        if isinstance(fn, ast.FunctionDef) and fn.name != "_refused" and any(
                isinstance(h, ast.ExceptHandler) and _caught(h) & _REFUSALS
                and any(_exits(n) for n in ast.walk(h)) for h in ast.walk(fn)):
            out.append(fn.name)
    return out


def test_cli_refuses_only_through_refused():
    assert _refusals_outside_refused((PACKAGE / "cli.py").read_text()) == []


def test_a_second_refusal_path_is_caught():
    source = ("def _refused():\n"
              "    try: yield\n"
              "    except ValueError as exc: raise SystemExit(2) from None\n"
              "def tuple_handler():\n"
              "    try: f()\n"
              "    except (KeyError, io_json.DocumentError): raise SystemExit\n"
              "def via_sys_exit():\n"
              "    try: f()\n"
              "    except ValueError:\n"
              "        if g(): sys.exit(2)\n"
              "def other_errors():\n"
              "    try: f()\n"
              "    except OSError: raise SystemExit(2)\n"
              "    except ValueError: raise click.BadParameter('x')\n")
    assert _refusals_outside_refused(source) == ["tuple_handler", "via_sys_exit"]
