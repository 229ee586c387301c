"""Source hygiene checks that need no linter: the standard ``ast`` module
reads every package module."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fixsettle"
# ``__init__.py`` imports names to re-export them, not to use them.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def _unused_imports(source: str):
    """The names a module imports and never reads, with their lines."""
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``.
                name = alias.asname or alias.name.split(".")[0]
                imported.setdefault(name, node.lineno)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_module_is_checked():
    assert {p.name for p in MODULES} >= {"cli.py", "lyapunov.py", "systems.py"}


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_no_unused_imports(path):
    assert _unused_imports(path.read_text()) == []


def test_unused_imports_are_found():
    source = (
        "from __future__ import annotations\n"
        "import json\n"
        "import os.path\n"
        "from typing import Optional, Tuple\n"
        "from .errors import EmptyDomainError as Empty\n"
        "def f(x: Optional[int]) -> None:\n"
        "    return os.path.join(x)\n"
    )
    assert _unused_imports(source) == [(2, "json"), (4, "Tuple"), (5, "Empty")]


# Calls that open a file whatever their arguments, and the builtin or method
# ``open``, which writes when its mode is not a literal read-only one.
_ALWAYS_OPEN = {"write_text", "write_bytes", "fdopen", "mkstemp", "NamedTemporaryFile"}


def _called_name(call: ast.Call):
    """The name a call is made by: ``f`` of ``f(...)`` and of ``a.f(...)``."""
    func = call.func
    return func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)


def _opens_for_writing(call: ast.Call) -> bool:
    func = call.func
    name = _called_name(call)
    if name in _ALWAYS_OPEN:
        return True
    if name != "open":
        return False
    if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
        return True  # os.open takes flags, not a mode
    # Builtin ``open(file, mode)`` and ``Path.open(mode)``; the default is "r".
    mode_at = 1 if isinstance(func, ast.Name) else 0
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] or call.args[mode_at:mode_at + 1]
    if not modes:
        return False
    mode = modes[0]
    return not (isinstance(mode, ast.Constant) and isinstance(mode.value, str)
                and set(mode.value) <= set("rbt"))


def _callers(source: str, wanted):
    """The names of the outermost functions whose bodies make a call that
    ``wanted`` picks ("<module>" outside any function), with the line of
    each call."""
    tree = ast.parse(source)
    # ``ast.walk`` is breadth-first, so an enclosing function comes before
    # the functions nested in it, and the module comes last.
    scopes = [node for node in ast.walk(tree)
              if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))] + [tree]
    outermost = {}
    for scope in scopes:
        for node in ast.walk(scope):
            if isinstance(node, ast.Call) and wanted(node):
                outermost.setdefault(node, (getattr(scope, "name", "<module>"), node.lineno))
    return sorted(outermost.values())


def _writers(source: str):
    """Where a file is opened for writing, as ``_callers`` gives it."""
    return _callers(source, _opens_for_writing)


def _rng_makers(source: str):
    """Where ``default_rng`` is called, as a name or an attribute, as
    ``_callers`` gives it."""
    return _callers(source, lambda call: _called_name(call) == "default_rng")


def test_cli_writing_is_the_one_write_path():
    writers = {(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
               for name, _ in _writers(path.read_text())}
    assert writers == {("cli.py", "_writing")}


def test_writing_never_truncates_to_zero():
    # Mode "w" asks for O_TRUNC; ``_writing``'s opener must clear it, and
    # nothing in ``_writing`` may ask for it otherwise.
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    writing = next(node for node in ast.walk(tree)
                   if isinstance(node, ast.FunctionDef) and node.name == "_writing")
    cleared = {id(node.operand) for node in ast.walk(writing)
               if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert)}
    truncs = [node for node in ast.walk(writing)
              if isinstance(node, ast.Attribute) and node.attr == "O_TRUNC"
              or isinstance(node, ast.Name) and node.id == "O_TRUNC"]
    assert truncs and all(id(node) in cleared for node in truncs)
    opens = [node for node in ast.walk(writing)
             if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "open"]
    assert opens and all(any(kw.arg == "opener" for kw in node.keywords) for node in opens)


def test_writers_are_found():
    source = (
        "import os\n"
        "from pathlib import Path\n"
        "def read(p):\n"
        "    with open(p) as a, open(p, 'rb') as b, Path(p).open(mode='r') as c:\n"
        "        return a.read() + b.read() + c.read()\n"
        "def append(p, mode):\n"
        "    open(p, 'a').close()\n"
        "    open(p, mode=mode).close()\n"
        "def outer(p):\n"
        "    def inner():\n"
        "        return os.open(p, os.O_WRONLY)\n"
        "    Path(p).write_text('x')\n"
        "    return Path(p).open('r+')\n"
        "LOG = open('log', 'w')\n"
    )
    assert _writers(source) == [
        ("<module>", 14), ("append", 7), ("append", 8), ("outer", 11), ("outer", 12),
        ("outer", 13),
    ]


def test_default_rng_is_called_in_two_places():
    # ``uniform_ball`` draws through ``_pcg64.normals_and_uniforms``, whose
    # fallback is ``fresh_draws``; the Lemma 1 trial seeds its own stream.
    makers = {(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
              for name, _ in _rng_makers(path.read_text())}
    assert makers == {("_pcg64.py", "fresh_draws"), ("oracle.py", "lemma1_randomized_trial")}
    fallbacks = {(path.name, name) for path in sorted(PACKAGE.glob("*.py"))
                 for name, _ in _callers(path.read_text(),
                                         lambda call: _called_name(call) == "fresh_draws")}
    assert fallbacks == {("_pcg64.py", "normals_and_uniforms")}


def test_rng_makers_are_found():
    source = (
        "import numpy as np\n"
        "from numpy.random import default_rng\n"
        "def draws(seed, k):\n"
        "    return default_rng((seed, k)).random()\n"
        "def outer(seed):\n"
        "    def inner():\n"
        "        return np.random.default_rng(seed)\n"
        "    return np.random.Generator(np.random.PCG64(seed)), inner\n"
        "RNG = np.random.default_rng(0)\n"
        "maker = default_rng\n"
    )
    assert _rng_makers(source) == [("<module>", 9), ("draws", 4), ("outer", 7)]


def _lenient_dumps(source: str):
    """The lines of the ``dump`` and ``dumps`` calls that do not pass the
    literal ``allow_nan=False``, so would write NaN or Infinity, which
    strict JSON readers refuse."""
    return sorted(
        node.lineno for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Call) and _called_name(node) in ("dump", "dumps")
        and not any(kw.arg == "allow_nan" and isinstance(kw.value, ast.Constant)
                    and kw.value.value is False for kw in node.keywords)
    )


def test_cli_json_refuses_non_finite_floats():
    source = (PACKAGE / "cli.py").read_text()
    assert _callers(source, lambda call: _called_name(call) == "dumps")
    assert _lenient_dumps(source) == []


def test_lenient_dumps_are_found():
    source = (
        "import json\n"
        "from json import dumps\n"
        "def f(x, fh):\n"
        "    a = json.dumps(x, allow_nan=False, indent=2)\n"
        "    b = json.dumps(x)\n"
        "    c = dumps(x, allow_nan=True)\n"
        "    d = json.dumps(x, **{'allow_nan': False})\n"
        "    e = json.dumps(x, allow_nan=0)\n"
        "    json.dump(x, fh)\n"
        "    return json.loads(a)\n"
    )
    assert _lenient_dumps(source) == [5, 6, 7, 8, 9]


def _private_definitions(tree: ast.Module):
    """The module-level functions, classes and constants of ``tree`` whose
    name starts with one underscore, each with the statement defining it."""
    found = []
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names = [node.name]
        elif isinstance(node, ast.Assign):
            names = [t.id for t in node.targets if isinstance(t, ast.Name)]
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            names = [node.target.id]
        else:
            continue
        found += [(name, node) for name in names if name.startswith("_") and not name.startswith("__")]
    return found


def _read_names(tree: ast.Module):
    """Every identifier ``tree`` reads, with its node: a name, an
    attribute, or a name imported from another module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node
        elif isinstance(node, ast.Attribute):
            yield node.attr, node
        elif isinstance(node, ast.ImportFrom):
            for alias in node.names:
                yield alias.name, node


def _dead_private_names(sources):
    """The (module, name) of every module-level private name of ``sources``
    (module name -> source) that no module reads outside the statement that
    defines it."""
    trees = {module: ast.parse(source) for module, source in sources.items()}
    reads = {}  # identifier -> (module, node id) of every read of it
    for module, tree in trees.items():
        for name, node in _read_names(tree):
            reads.setdefault(name, []).append((module, id(node)))
    dead = []
    for module, tree in trees.items():
        for name, definition in _private_definitions(tree):
            inside = {id(node) for node in ast.walk(definition)}
            if all(other == module and node in inside for other, node in reads.get(name, ())):
                dead.append((module, name))
    return sorted(dead)


def test_no_dead_private_names():
    sources = {path.name: path.read_text() for path in sorted(PACKAGE.glob("*.py"))}
    assert _dead_private_names(sources) == []


def test_dead_private_names_are_found():
    sources = {
        "a.py": (
            "_LIMIT = 3\n"
            "_UNUSED: int = 4\n"
            "__version__ = '1'\n"
            "def _helper(x):\n"
            "    return x + _LIMIT\n"
            "def _recursive(n):\n"
            "    return _recursive(n - 1) if n else 0\n"
            "class _Node:\n"
            "    pass\n"
            "def _by_attribute():\n"
            "    pass\n"
            "def public():\n"
            "    def _nested():\n"
            "        pass\n"
            "    return _helper(1)\n"
        ),
        "b.py": (
            "from .a import _Node\n"
            "from . import a\n"
            "a._by_attribute()\n"
        ),
    }
    assert _dead_private_names(sources) == [("a.py", "_UNUSED"), ("a.py", "_recursive")]
