"""Every name a package module imports is read in that module, no
package module imports another's private name, every private helper the
package defines is referenced somewhere in it, every public function and
method has a reader outside the tests or a stated reason to stay, the
CLI turns the library's refusals into exit 2 in one place only, and every
elimination takes its rows from one of the two integer row builders."""

import ast
import re
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parent.parent
PACKAGE = REPO / "src" / "s1cochain"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str) -> list[str]:
    """The imported names that the module never reads: a name that is only
    rebound, or that only a string or a comment holds, counts as unused."""
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [a.asname or a.name.split(".")[0] for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [a.asname or a.name for a in node.names]
    used = {n.id for n in ast.walk(tree)
            if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_unused_import(path):
    assert _unused_imports(path.read_text()) == []


def test_an_unused_import_is_caught():
    assert _unused_imports("import os\nfrom a import b, c as d\nd()\n") == ["os", "b"]
    # rebinding, a string and a comment do not read a name; an attribute's base does
    source = ("from .complexes import cohomology, kernel_and_image, shift\n"
              "import os.path\n"
              "cohomology = None\n"
              "'kernel_and_image'  # shift\n"
              "os.path.join('a')\n")
    assert _unused_imports(source) == ["cohomology", "kernel_and_image", "shift"]


def _private_imports(source: str) -> list[str]:
    """The `_`-prefixed names imported from a module of the package."""
    return [a.name for node in ast.walk(ast.parse(source))
            if isinstance(node, ast.ImportFrom)
            and (node.level > 0 or (node.module or "").split(".")[0] == "s1cochain")
            for a in node.names if a.name.startswith("_")]


@pytest.mark.parametrize("path", MODULES, ids=[p.stem for p in MODULES])
def test_no_private_import(path):
    assert _private_imports(path.read_text()) == []


def test_a_private_import_is_caught():
    source = ("from __future__ import annotations\n"
              "from functools import _lru_cache_wrapper\n"
              "from .spectral import WitnessedCycle, _split as split\n"
              "from . import _tracer\n"
              "from s1cochain.linalg import _echelon\n")
    assert _private_imports(source) == ["_split", "_tracer", "_echelon"]


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


def _registered(fn: ast.FunctionDef) -> bool:
    """A function that a `.command(...)` or `.group(...)` decorator
    registers: the CLI reaches it through its command name."""
    return any(isinstance(d, ast.Call) and isinstance(d.func, ast.Attribute)
               and d.func.attr in ("command", "group") for d in fn.decorator_list)


def _public_defs(source: str) -> list[str]:
    """The public module-level functions, other than registered commands,
    and the public methods of module-level classes."""
    out = []
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_"):
            out += [] if _registered(node) else [node.name]
        elif isinstance(node, ast.ClassDef):
            out += [m.name for m in node.body
                    if isinstance(m, ast.FunctionDef) and not m.name.startswith("_")]
    return out


def _references(node: ast.AST, own: frozenset = frozenset()) -> set[str]:
    """The names and attributes that code under `node` references, leaving
    out each function's references to its own name."""
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
        own = own | {node.name}
    name = node.id if isinstance(node, ast.Name) else getattr(node, "attr", None)
    out = {name} if isinstance(name, str) and name not in own else set()
    for child in ast.iter_child_nodes(node):
        out |= _references(child, own)
    return out


def _unreferenced(defined: list[str], sources: list[str], texts: list[str]) -> list[str]:
    """The names in `defined` that no source references in code, outside
    the function itself, and no text holds as a word."""
    used = {name for src in sources for name in _references(ast.parse(src))}
    used |= {w for text in texts for w in re.findall(r"\w+", text)}
    return [name for name in defined if name not in used]


# The public functions that no package code, demo, benchmark or README line
# reaches, each with the reason it stays in the package.
_UNREACHED = {
    "make_complex": "the constructor of a complex from named generators and "
                    "(source, target, coefficient) triples, the form a complex is "
                    "written in by hand",
    "has_k_semidilation": "the paper's test for a k-semi-dilation at one level; the "
                          "order scan's witness is its solution at the order",
    "delta_plus_k": "the paper's structural map Delta^k of the plus part",
    "delta_plus0_k": "the paper's map Delta^k_{+,0} of the connecting morphism",
    "zero_morphism": "the zero S^1-morphism, a construction of the paper's category",
    "verify_homotopy": "the check of the paper's S^1-homotopy relation",
    "document_to_morphism": "the reader of the morphism document format",
    "morphism_to_document": "the writer of the morphism document format",
}


def test_every_public_function_has_a_reader_outside_the_tests():
    # the package's own modules except `__init__`, whose exports read everything
    defined = {n for p in MODULES for n in _public_defs(p.read_text())}
    readers = [*MODULES, *sorted((REPO / "demos").glob("*.py")),
               *sorted((REPO / "perfbench").glob("*.py"))]
    got = _unreferenced(sorted(defined), [p.read_text() for p in readers],
                        [(REPO / "README.md").read_text()])
    assert got == sorted(_UNREACHED)


def test_a_function_only_the_tests_call_is_caught():
    source = ("def used(): pass\n"
              "def orphan(): return orphan\n"
              "@main.command('cmd')\n"
              "def cmd(): pass\n"
              "@cache\n"
              "def cached(): pass\n"
              "class Kept:\n"
              "    def read(self): pass\n"
              "    def unread(self): pass\n"
              "    def _private(self): pass\n"
              "used(); Kept().read\n")
    defined = _public_defs(source)
    assert defined == ["used", "orphan", "cached", "read", "unread"]
    # a function's call of itself is not a reader
    assert _unreferenced(defined, [source], []) == ["orphan", "cached", "unread"]
    # a string or a comment is not a reference; a word of a text is
    assert _unreferenced(defined, [source, "'cached'  # unread\n"], []) == [
        "orphan", "cached", "unread"]
    assert _unreferenced(defined, [source, "orphan()"],
                         ["call `cached()`, then unread"]) == []


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


# The elimination kernel and the builders of the integer rows it takes.
_KERNEL = {"_echelon", "_rref_rows"}
_ROW_BUILDERS = {"_column_rows", "_matrix_rows"}


def _called(node: ast.AST) -> str:
    """The name a call calls, plain or as an attribute; "" otherwise."""
    if not isinstance(node, ast.Call):
        return ""
    f = node.func
    return f.id if isinstance(f, ast.Name) else f.attr if isinstance(f, ast.Attribute) else ""


def _rows_off_the_builders(source: str) -> list[str]:
    """"function:line" of each kernel call whose rows are neither a builder's
    call, nor a name the enclosing function binds only to builder calls,
    nor, inside a kernel function, that function's own parameter; and of
    each kernel call that passes anything besides its rows."""
    out = []
    for fn in ast.walk(ast.parse(source)):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        built, other = set(), set()
        for node in ast.walk(fn):
            if isinstance(node, (ast.Assign, ast.AnnAssign, ast.AugAssign, ast.NamedExpr)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
                simple = (isinstance(node, ast.Assign) and len(targets) == 1
                          and isinstance(targets[0], ast.Name))
                (built if simple and _called(node.value) in _ROW_BUILDERS else other).update(names)
            elif isinstance(node, (ast.For, ast.comprehension, ast.With)):
                other.update(n.id for n in ast.walk(node) if isinstance(n, ast.Name)
                             and isinstance(n.ctx, ast.Store))
        params = {a.arg for a in fn.args.args} if fn.name in _KERNEL else set()
        for call in ast.walk(fn):
            if _called(call) not in _KERNEL:
                continue
            rows = call.args[0] if call.args else next(
                (k.value for k in call.keywords if k.arg == "rows"), None)
            if len(call.args) + len(call.keywords) != 1 or not (
                    _called(rows) in _ROW_BUILDERS
                    or isinstance(rows, ast.Name) and (rows.id in built - other
                                                       or rows.id in params)):
                out.append(f"{fn.name}:{call.lineno}")
    return out


def test_every_elimination_takes_builder_rows():
    sources = [p.read_text() for p in sorted(PACKAGE.glob("*.py"))]
    assert [bad for src in sources for bad in _rows_off_the_builders(src)] == []
    # the check has calls to look at: every entry of linalg makes one, and
    # nothing else does
    callers = {fn.name for src in sources for fn in ast.walk(ast.parse(src))
               if isinstance(fn, ast.FunctionDef)
               and any(_called(n) in _KERNEL for n in ast.walk(fn))}
    assert callers == {"pivot_columns", "matrix_pivot_columns", "solve", "_rref_rows",
                       "kernel_basis", "coordinate_matrix"}


def test_rows_from_elsewhere_are_caught():
    source = ("def _rref_rows(rows):\n"
              "    return _echelon(rows)\n"
              "def direct(m):\n"
              "    return _echelon(_matrix_rows(m))\n"
              "def bound(m, b):\n"
              "    rows = _matrix_rows(m, b)\n"
              "    return _rref_rows(rows)\n"
              "def copied(m):\n"
              "    return _echelon([dict(r) for r in _matrix_rows(m)])\n"
              "def rebound(vs, n):\n"
              "    rows = _column_rows(vs, n)\n"
              "    rows = [r for r in rows if r]\n"
              "    return linalg._rref_rows(rows)\n"
              "def passed_on(rows, n):\n"
              "    return _echelon(rows)\n"
              "def keyword(m):\n"
              "    return _echelon(rows=_matrix_rows(m))\n"
              "def keyword_copied(m):\n"
              "    return _echelon(rows=list(_matrix_rows(m)))\n"
              "def column_bound(m):\n"
              "    return _echelon(_matrix_rows(m), m.cols)\n"
              "def column_bound_keyword(m):\n"
              "    return linalg._rref_rows(rows=_matrix_rows(m), cols=m.cols)\n")
    assert _rows_off_the_builders(source) == [
        "copied:9", "rebound:13", "passed_on:15", "keyword_copied:19",
        "column_bound:21", "column_bound_keyword:23"]
