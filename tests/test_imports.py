"""Every import in the package, its tests, its scripts and the benchmark's
scripts (``perfbench/*.py``) is used, every export exists, and no package
module imports another module's ``_``-prefixed name.

A stdlib-only lint: leftovers such as a helper imported for a deleted code
path fail here.  Relative imports in ``__init__.py`` are re-exports, and
``from __future__`` imports are directives, so both are exempt from the
unused-import check.  Instead, every name in a module's ``__all__`` must be
defined in that module, and every name ``__init__.py`` re-exports must be in
its source module's ``__all__``, so a deletion cannot leave a stale export.
Every exported name, and every public method or property of a package
class, must also be read by the code that runs (the package, its scripts or
the benchmark), so a name that only its own tests call cannot stay in the
runtime.  The names the benchmark's tracer patches must
stay in their modules too, and every exception class the package defines
must be raised somewhere in it, so an error type cannot outlive its last
``raise``.  Every oracle type the group driver batches inherits
``LyingOracle.query`` unchanged, so an oracle with its own answer rule
cannot join the batch.  Importing the package and its CLI loads nothing
beyond the standard library, so no dependency can creep into every run's
start-up.
"""

import ast
import builtins
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from liarminmax import algorithms, core, harness
from liarminmax.oracles import LyingOracle, RandomLiarOracle, ScriptedOracle, TruthfulOracle

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "liarminmax"
SOURCES = [
    *sorted(PACKAGE.glob("*.py")),
    *sorted((ROOT / "tests").glob("*.py")),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def unused_imports(source: str, is_init: bool) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom):
            if node.module == "__future__" or (is_init and node.level > 0):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(), path.name == "__init__.py") == []


def test_lint_flags_an_unused_import():
    source = "from __future__ import annotations\nimport math\nfrom .x import y\n"
    assert unused_imports(source, is_init=False) == ["math (line 2)", "y (line 3)"]
    assert unused_imports(source, is_init=True) == ["math (line 2)"]
    assert unused_imports("import os.path\nos.sep\n", is_init=False) == []


def exports(tree: ast.Module) -> list[str]:
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            return [element.value for element in node.value.elts]
    return []


def undefined_exports(source: str) -> list[str]:
    """Names in ``__all__`` that no top-level statement of the module defines."""
    tree = ast.parse(source)
    defined = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined.add(node.name)
        elif isinstance(node, ast.Assign):
            defined.update(t.id for t in node.targets if isinstance(t, ast.Name))
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            defined.add(node.target.id)
    return [name for name in exports(tree) if name not in defined]


def unexported_reexports(init_source: str, exports_of) -> list[str]:
    """``module.name`` for each relative import in ``__init__.py`` that the
    source module's ``__all__`` (as ``exports_of(module)`` returns it) lacks."""
    stale = []
    for node in ast.parse(init_source).body:
        if isinstance(node, ast.ImportFrom) and node.level > 0:
            listed = exports_of(node.module)
            stale += [f"{node.module}.{a.name}" for a in node.names if a.name not in listed]
    return stale


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_every_export_is_defined(path):
    assert undefined_exports(path.read_text()) == []


def test_init_reexports_only_exported_names():
    def exports_of(module):
        return exports(ast.parse((PACKAGE / f"{module}.py").read_text()))

    assert unexported_reexports((PACKAGE / "__init__.py").read_text(), exports_of) == []


def test_lint_flags_a_stale_export():
    source = '__all__ = ["gone", "kept", "LIMIT", "Alias"]\nLIMIT = 1\nAlias: type = int\n'
    assert undefined_exports(source + "def kept(): pass\n") == ["gone"]
    init = "from .graphs import kept, gone\n"
    assert unexported_reexports(init, lambda module: ["kept"]) == ["graphs.gone"]


# The code that runs: the package's modules, the scripts and the benchmark.
# Re-exports in ``__init__.py`` and calls from the tests do not count.
RUNTIME = [
    *(path for path in sorted(PACKAGE.glob("*.py")) if path.name != "__init__.py"),
    *sorted((ROOT / "scripts").glob("*.py")),
    *sorted((ROOT / "perfbench").glob("*.py")),
]


def read_names(sources: list[str]) -> set[str]:
    """Every name the sources read, as a name or an attribute; a definition
    or an assignment is not a read."""
    read = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
                read.add(node.attr)
    return read


def unread_exports(exported: list[str], sources: list[str]) -> list[str]:
    """Names in ``exported`` that no source reads."""
    read = read_names(sources)
    return [name for name in exported if name not in read]


@pytest.mark.parametrize(
    "path", [path for path in RUNTIME if path.parent == PACKAGE], ids=lambda p: p.name
)
def test_every_export_is_read_outside_the_tests(path):
    exported = exports(ast.parse(path.read_text()))
    assert unread_exports(exported, [p.read_text() for p in RUNTIME]) == []


def test_lint_flags_an_unread_export():
    module = '__all__ = ["LIMIT", "called", "typed", "SET", "gone"]\nLIMIT = 1\nSET = 2\n'
    user = "from m import called\ncalled(m.typed, LIMIT)\nm.SET = 3\n"
    assert unread_exports(exports(ast.parse(module)), [module, user]) == ["SET", "gone"]
    assert unread_exports(["called"], ["def called(): pass\n"]) == ["called"]


def public_members(source: str) -> list[str]:
    """``Class.member`` for each public method or property (any function a
    class body defines whose name has no leading ``_``)."""
    return [
        f"{node.name}.{item.name}"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
        for item in node.body
        if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
        and not item.name.startswith("_")
    ]


def unread_members(members: list[str], sources: list[str]) -> list[str]:
    """The ``Class.member`` entries whose member no source reads."""
    read = read_names(sources)
    return [member for member in members if member.rpartition(".")[2] not in read]


@pytest.mark.parametrize(
    "path", [path for path in RUNTIME if path.parent == PACKAGE], ids=lambda p: p.name
)
def test_every_public_member_is_read_outside_the_tests(path):
    members = public_members(path.read_text())
    assert unread_members(members, [p.read_text() for p in RUNTIME]) == []


def test_lint_flags_an_unread_method():
    module = (
        "class C:\n"
        "    def called(self): pass\n"
        "    @property\n"
        "    def shown(self): return 1\n"
        "    @classmethod\n"
        "    def gone(cls): pass\n"
        "    def _private(self): pass\n"
        "    def __len__(self): return 0\n"
    )
    user = "c.called()\nprint(c.shown)\nc.gone = 1\n"
    members = public_members(module)
    assert members == ["C.called", "C.shown", "C.gone"]
    assert unread_members(members, [module, user]) == ["C.gone"]
    assert unread_members(members, [module]) == members


def private_imports(source: str) -> list[str]:
    """``_``-prefixed names imported from another module: a name a module
    keeps private is not another module's to lean on."""
    return [
        f"{alias.name} (line {node.lineno})"
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
        if alias.name.startswith("_")
    ]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_private_imports(path):
    assert private_imports(path.read_text()) == []


def test_lint_flags_a_private_import():
    source = (
        "from __future__ import annotations\n"
        "from .algorithms import _blocks, find_min_k_lies\n"
        "def f():\n"
        "    from .harness import _split\n"
    )
    assert private_imports(source) == ["_blocks (line 2)", "_split (line 4)"]


def unraised_errors(sources: list[str]) -> list[str]:
    """Exception classes that ``sources`` define and none of them raises.

    A class is an exception class when one of its bases is a builtin
    exception or another exception class defined there.  ``raise X``,
    ``raise X(...)`` and ``raise module.X(...)`` all raise ``X``.
    """
    bases: dict[str, list[str]] = {}
    raised = set()
    for source in sources:
        for node in ast.walk(ast.parse(source)):
            if isinstance(node, ast.ClassDef):
                bases[node.name] = [b.id for b in node.bases if isinstance(b, ast.Name)]
            elif isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                if isinstance(exc, ast.Attribute):
                    raised.add(exc.attr)
                elif isinstance(exc, ast.Name):
                    raised.add(exc.id)

    def is_error(name: str) -> bool:
        builtin = getattr(builtins, name, None)
        if isinstance(builtin, type):
            return issubclass(builtin, BaseException)
        return any(is_error(base) for base in bases.get(name, ()))

    return sorted(name for name in bases if is_error(name) and name not in raised)


def test_every_error_type_is_raised():
    sources = [path.read_text() for path in sorted(PACKAGE.glob("*.py"))]
    assert unraised_errors(sources) == []


def test_lint_flags_an_unraised_error_type():
    source = (
        "class Broken(ValueError): pass\n"
        "class Worse(Broken): pass\n"
        "class Raised(RuntimeError): pass\n"
        "class Gone(Exception): pass\n"
        "class Plain: pass\n"
        "def f():\n"
        "    raise Raised('x') from None\n"
        "    raise errors.Worse\n"
    )
    assert unraised_errors([source]) == ["Broken", "Gone"]
    assert unraised_errors([source, "raise Broken\n"]) == ["Gone"]


def answer_lookups_in_functions(source: str) -> list[str]:
    """``Answer.<member>`` lookups inside function bodies: each one takes the
    enum metaclass's slow ``__getattr__`` on every call, where the module
    constants ``core.SMALLER`` / ``core.LARGER`` are plain global reads."""
    found = set()
    for func in ast.walk(ast.parse(source)):
        if isinstance(func, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            body = func.body if isinstance(func.body, list) else [func.body]
            for node in (inner for statement in body for inner in ast.walk(statement)):
                if (
                    isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id == "Answer"
                ):
                    found.add(f"Answer.{node.attr} (line {node.lineno})")
    return sorted(found)


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_no_answer_lookup_inside_functions(path):
    assert answer_lookups_in_functions(path.read_text()) == []


def test_lint_flags_an_answer_lookup_inside_a_function():
    source = (
        "SMALLER = Answer.FIRST_SMALLER\n"
        "def f(x=Answer.FIRST_LARGER):\n"
        "    return x is Answer.FIRST_LARGER\n"
        "class C:\n"
        "    def g(self):\n"
        "        h = lambda: Answer.FIRST_SMALLER\n"
        "        return SMALLER\n"
    )
    assert answer_lookups_in_functions(source) == [
        "Answer.FIRST_LARGER (line 3)",
        "Answer.FIRST_SMALLER (line 6)",
    ]


def query_overrides(classes) -> list[str]:
    """The names of the classes whose ``query`` is not ``LyingOracle.query``
    inherited unchanged.  The group driver batches a group's checks for the
    oracle types it lists, through ``LyingOracle.ask_checks``, which answers
    as that ``query`` would; a type with its own answer rule must not join."""
    return [cls.__name__ for cls in classes if getattr(cls, "query", None) is not LyingOracle.query]


def test_every_batched_oracle_inherits_query_unchanged():
    assert query_overrides(algorithms._BATCHED) == []


def test_lint_flags_an_oracle_with_its_own_query():
    class Kept(RandomLiarOracle):
        def _wants_lie(self, index):
            return False

    class Own(TruthfulOracle):
        def query(self, a, b):
            return super().query(a, b)

    classes = [TruthfulOracle, Kept, Own, ScriptedOracle, object]
    assert query_overrides(classes) == ["Own", "ScriptedOracle", "object"]


# The names the benchmark's tracer (``perfbench/tracer.py``, ``instrument``)
# swaps for tracing wrappers.  It reads each one from its owner's
# ``__dict__``, so a refactor that stops importing one of them breaks every
# benchmark run, golden replay included; this fails first.  A name that stays
# but that the package stops *calling* breaks nothing here, yet leaves its
# layer dark in every traced run; the tests that run the code through a
# patched name guard that, e.g. test_harness's
# test_walk_builds_every_oracle_through_the_patch_point for ScriptedOracle
# and test_algorithms's test_records_every_query_through_the_patch_point for
# Transcript.append.  The oracle tap guards itself the same way:
# test_algorithms's test_a_tapped_oracle_sends_every_query_through_its_proxy.
PATCH_POINTS = [
    (harness, "run_experiments"),
    (harness, "verify_exhaustive"),
    (harness, "assert_lie_budget"),
    (harness, "improved_minmax"),
    (harness, "simple_minmax"),
    (harness, "pohl_minmax"),
    (harness, "TruthfulOracle"),
    (harness, "RandomLiarOracle"),
    (harness, "TriggeredLiarOracle"),
    (harness, "ScriptedOracle"),
    (algorithms, "balanced_quicksort"),
    (algorithms, "mergesort"),
    (algorithms, "complete_edges"),
    (algorithms, "added_edge_pairs"),
    (algorithms, "find_min_k_lies"),
    (algorithms, "find_max_k_lies"),
    (core.Transcript, "append"),
]


def test_benchmark_patch_points_exist():
    missing = [f"{owner.__name__}.{attr}" for owner, attr in PATCH_POINTS if attr not in vars(owner)]
    assert missing == []


def foreign_modules(before: list[str], after: list[str], stdlib) -> list[str]:
    """The modules in ``after`` but not in ``before`` whose top-level package
    is neither in ``stdlib`` nor ``liarminmax``."""
    own = {*stdlib, "liarminmax"}
    return sorted(m for m in set(after) - set(before) if m.partition(".")[0] not in own)


def test_package_imports_only_the_standard_library():
    # A fresh interpreter: site hooks may preload third-party modules (a
    # ``.pth`` file's, say) before the package is imported, so only what the
    # import adds counts.
    code = (
        "import sys\n"
        "before = list(sys.modules)\n"
        "import liarminmax, liarminmax.cli\n"
        "import json\n"
        "print(json.dumps([before, list(sys.modules)]))\n"
    )
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        check=True,
        env={**os.environ, "PYTHONPATH": path},
    )
    before, after = json.loads(done.stdout)
    assert "liarminmax.cli" in after
    assert foreign_modules(before, after, sys.stdlib_module_names) == []


def test_lint_flags_a_foreign_module():
    before = ["sys", "_distutils_hack", "certifi", "certifi.core"]
    after = [*before, "json", "json.decoder", "_json", "liarminmax", "liarminmax.cli"]
    stdlib = {"sys", "json", "_json"}
    assert foreign_modules(before, after, stdlib) == []
    assert foreign_modules(before, [*after, "numpy", "numpy.linalg"], stdlib) == [
        "numpy",
        "numpy.linalg",
    ]
    assert foreign_modules([], after, stdlib) == ["_distutils_hack", "certifi", "certifi.core"]
