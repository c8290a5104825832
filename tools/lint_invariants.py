#!/usr/bin/env python3
"""Self-lint: determinism invariants and unused imports, by AST walk.

The engines are deterministic discrete-event simulations: every run of a
program with the same seed must produce the same result, trace and
metrics, or the fault-injection and cross-backend equivalence suites
become flaky.  Two classes of call break that:

* **wall clock** -- ``time.time()``, ``time.monotonic()``,
  ``time.perf_counter()``, ``datetime.now()``/``utcnow()``/``today()``:
  simulated time must come from the event clock, never the host;
* **unseeded randomness** -- module-level ``random.random()`` etc.,
  ``random.Random()`` with no seed, ``numpy.random.default_rng()`` with
  no seed: all randomness must flow from an explicit seed.

Scope: ``src/repro/engine``, ``src/repro/runtime``,
``src/repro/distributed``, ``src/repro/serving`` and ``src/repro/delta``
(the deterministic core plus the simulated-clock serving loop and the
delta-repair subsystem, whose byte-identical SLO reports and repair
replays depend on the same invariants).  The CLI, bench harness and obs
layers may legitimately read the host clock.

A second pass flags **unused imports** (ruff's F401) over ``src``,
``tests``, ``benchmarks``, ``examples`` and ``tools``, so that what a
deletion leaves behind is caught on hosts without ruff: a name bound by
``import`` that the file never reads.  ``__init__.py`` re-exports are
exempt (as in ``pyproject.toml``), a ``# noqa`` on the line is honoured,
and names that appear only in string annotations or ``__all__`` count as
used.

A third pass guards the **layering** of the array-free packages:
``src/repro/engine``, ``src/repro/distributed`` and ``src/repro/delta``
move kernel payloads and plan columns without knowing which kernel made
them, so none of them may import ``numpy`` or
``repro.runtime.numpy_kernel``.  The two files that draw from a seeded
generator (``distributed/chaos.py``, ``distributed/cluster.py``) are the
listed exceptions, for that one spelling, ``import numpy as np``.

A fourth pass holds the **kernel contract**: every method a subclass of
``Kernel`` or ``SendSide`` (``src/repro/runtime/base.py``) overrides in
``src/repro/runtime`` keeps the base method's signature -- parameter
names, kinds and defaults.  The engines call kernels through the base
class only, so an override that renamed a keyword or dropped a default
would break just the callers that use it, on one backend.

A fifth pass keeps the **run epilogue** said once: absorbing a run's
work counters (``.absorb_work_counters(...)``) and attaching metrics to
a result (``<name>.metrics = ...``, anything but ``self``) happen only
in ``src/repro/obs/metrics.py`` (``record_run``, which every engine run
and every delta repair ends with).

A sixth pass flags **unused locals** (ruff's F841, widened to unpacked
names) over ``src`` and ``tests``: a name a function stores -- by
assignment, loop or ``with`` target, unpacking, ``:=`` or
``except ... as`` -- and never reads, where a read in a nested function or comprehension counts.
Names with a leading underscore (``_``, ``_unused``) are exempt, and so
are ``global``/``nonlocal`` names, which outlive the call.

A seventh pass keeps **one engine table**: a dict literal in
``src/repro`` whose values are distributed engine classes (the
``*Engine`` classes ``src/repro/distributed`` defines), lambdas or
``partial`` objects that build them, belongs only in
``src/repro/distributed/registry.py`` (``ENGINES``), which every
surface that offers engines reads.  A dict of engine *instances*, built
with each caller's own settings, is not a table of engines.

An eighth pass flags **undefined names** (ruff's F821) over ``src``
and ``tests``, from the compiler's own scopes (stdlib ``symtable``): a
name some scope of a module reads as a global that the module never
binds -- by assignment, ``def``/``class``, import, or a ``global``
statement and an assignment in a function -- and that is not a builtin
or a module attribute (``__file__``).  A module with a star import is
skipped: it may bind anything.  Annotations the compiler does not
evaluate (``from __future__ import annotations``) are not read.

A ninth pass keeps the **engines' state on objects**: no method of a
class in ``distributed/sync_engine.py``, ``async_engine.py``, ``aap.py``
or ``unified.py`` may define a nested function.  A run's state lives on
its run object and its handlers are that object's methods, so a closure
over a method's locals is state kept where no second run can see it
reset.  Lambdas pass.

Paths given on the command line are checked by every pass.  Exit code
0 when clean, 1 with one ``file:line: message`` per violation otherwise.
Pure stdlib; wired into ``make lint`` and CI.
"""

from __future__ import annotations

import ast
import builtins
import re
import symtable
import sys
from functools import cache
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SCOPE = (
    REPO_ROOT / "src" / "repro" / "engine",
    REPO_ROOT / "src" / "repro" / "runtime",
    REPO_ROOT / "src" / "repro" / "distributed",
    REPO_ROOT / "src" / "repro" / "serving",
    REPO_ROOT / "src" / "repro" / "delta",
)

#: where the unused-import pass looks
IMPORT_SCOPE = tuple(
    REPO_ROOT / name for name in ("src", "tests", "benchmarks", "examples", "tools")
)

#: packages that handle kernel payloads without knowing (or testing) the kernel
ARRAY_FREE_SCOPE = tuple(
    REPO_ROOT / "src" / "repro" / name for name in ("engine", "distributed", "delta")
)

#: where the kernel contract is implemented, and where it is stated
KERNEL_SCOPE = (REPO_ROOT / "src" / "repro" / "runtime",)
CONTRACT_FILE = REPO_ROOT / "src" / "repro" / "runtime" / "base.py"
CONTRACT_CLASSES = ("Kernel", "SendSide")

#: where the unused-locals pass looks
LOCALS_SCOPE = (REPO_ROOT / "src", REPO_ROOT / "tests")

#: where engines end their runs, and the one file that may say how
EPILOGUE_SCOPE = (REPO_ROOT / "src" / "repro",)
EPILOGUE_FILES = {Path("src/repro/obs/metrics.py")}

#: where engine tables and constructions are looked for, the one module
#: that may hold a table, and the package whose ``*Engine`` classes are
#: the engines (and the only one that may call them)
TABLE_SCOPE = (REPO_ROOT / "src" / "repro",)
REGISTRY_FILE = Path("src/repro/distributed/registry.py")
ENGINE_PACKAGE = REPO_ROOT / "src" / "repro" / "distributed"

#: the engine modules whose methods define no nested functions
CLOSURE_SCOPE = tuple(
    ENGINE_PACKAGE / f"{name}.py" for name in ("sync_engine", "async_engine", "aap", "unified")
)

#: files allowed ``import numpy as np``: they take a seeded
#: ``np.random.default_rng`` from it and nothing else
SEEDED_GENERATOR_FILES = {
    Path("src/repro/distributed/chaos.py"),
    Path("src/repro/distributed/cluster.py"),
}

#: (module, attribute) calls that read the host wall clock
WALL_CLOCK = {
    ("time", "time"),
    ("time", "monotonic"),
    ("time", "perf_counter"),
    ("time", "time_ns"),
    ("time", "monotonic_ns"),
    ("datetime", "now"),
    ("datetime", "utcnow"),
    ("datetime", "today"),
    ("date", "today"),
}

#: module-level random functions that use the hidden global state
GLOBAL_RANDOM = {
    "random",
    "randint",
    "randrange",
    "uniform",
    "gauss",
    "choice",
    "choices",
    "shuffle",
    "sample",
    "seed",
}

#: constructors that take their seed as the first positional argument
SEEDED_CONSTRUCTORS = {
    ("random", "Random"),
    ("np.random", "default_rng"),
    ("numpy.random", "default_rng"),
    ("random", "default_rng"),  # from numpy import random as random
}


def _dotted(node: ast.AST) -> str:
    """Best-effort dotted name of a call target ('np.random.default_rng')."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
    return ".".join(reversed(parts))


def _has_seed_argument(call: ast.Call) -> bool:
    if call.args:
        return True
    return any(kw.arg in ("seed", "x") for kw in call.keywords)


def _relative(path: Path) -> Path:
    try:
        return path.relative_to(REPO_ROOT)
    except ValueError:
        return path


def check_file(path: Path) -> list[str]:
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    violations: list[str] = []
    relative = _relative(path)

    for node in ast.walk(tree):
        if not isinstance(node, ast.Call):
            continue
        dotted = _dotted(node.func)
        if not dotted:
            continue
        head, _, tail = dotted.rpartition(".")
        leaf_module = head.rpartition(".")[2] if head else ""

        if (leaf_module, tail) in WALL_CLOCK:
            violations.append(
                f"{relative}:{node.lineno}: wall-clock call {dotted}(): "
                "use the simulated event clock instead"
            )
            continue

        if head in ("random",) and tail in GLOBAL_RANDOM:
            violations.append(
                f"{relative}:{node.lineno}: global-state randomness "
                f"{dotted}(): use a seeded random.Random / Generator"
            )
            continue

        for module, constructor in SEEDED_CONSTRUCTORS:
            if dotted.endswith(f"{module}.{constructor}") or dotted == constructor and head == module:
                if not _has_seed_argument(node):
                    violations.append(
                        f"{relative}:{node.lineno}: unseeded {dotted}(): "
                        "pass an explicit seed"
                    )
                break
    return violations


_NOQA = re.compile(r"#\s*noqa(?::\s*(?P<codes>[A-Z0-9, ]+))?", re.IGNORECASE)


def _suppressed(line: str) -> bool:
    """A bare ``# noqa``, or one that lists F401."""
    match = _NOQA.search(line)
    if match is None:
        return False
    codes = match.group("codes")
    return codes is None or "F401" in codes.upper()


def _names_read(tree: ast.AST) -> set[str]:
    """Every name the module reads: loads, ``__all__`` entries and the
    names inside string annotations (``"CompiledPlan"``)."""
    read: set[str] = set()
    quoted: list[ast.AST] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            if isinstance(node.ctx, ast.Load):
                read.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign)):
            quoted.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            quoted.append(node.returns)
        elif isinstance(node, (ast.Assign, ast.AugAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            if any(isinstance(t, ast.Name) and t.id == "__all__" for t in targets):
                read.update(
                    c.value
                    for c in ast.walk(node.value)
                    if isinstance(c, ast.Constant) and isinstance(c.value, str)
                )
    for annotation in quoted:
        if annotation is None:
            continue
        for node in ast.walk(annotation):
            if isinstance(node, ast.Constant) and isinstance(node.value, str):
                try:
                    inner = ast.parse(node.value, mode="eval")
                except SyntaxError:
                    continue
                read.update(n.id for n in ast.walk(inner) if isinstance(n, ast.Name))
    return read


def check_unused_imports(path: Path) -> list[str]:
    if path.name == "__init__.py":
        return []
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    lines = source.splitlines()
    read = _names_read(tree)
    relative = _relative(path)
    violations: list[str] = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        for alias in node.names:
            if alias.name == "*":
                continue
            # ``import a.b`` binds ``a``; ``import a.b as c`` binds ``c``
            bound = alias.asname or alias.name.partition(".")[0]
            if bound in read:
                continue
            if _suppressed(lines[node.lineno - 1]) or _suppressed(
                lines[alias.lineno - 1]
            ):
                continue
            violations.append(
                f"{relative}:{alias.lineno}: unused import {bound!r}: "
                "remove it (or mark a deliberate re-export with # noqa: F401)"
            )
    return violations


def check_array_imports(path: Path) -> list[str]:
    """Imports of numpy or of the array kernel; a listed exception may
    ``import numpy as np``."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    relative = _relative(path)
    violations: list[str] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported = [(alias.name, alias.asname) for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module:
            imported = [(f"{node.module}.{alias.name}", None) for alias in node.names]
        else:
            continue
        for name, asname in imported:
            if (name, asname) == ("numpy", "np") and relative in SEEDED_GENERATOR_FILES:
                continue
            if name.split(".")[0] == "numpy" or name.startswith(
                "repro.runtime.numpy_kernel"
            ):
                violations.append(
                    f"{relative}:{node.lineno}: array import {name}: this "
                    "package handles kernel payloads and plan columns opaquely"
                )
    return violations


def _parameters(function: ast.FunctionDef) -> list[tuple]:
    """``(name, kind, default source)`` per parameter of ``function``."""
    args = function.args
    positional = [*args.posonlyargs, *args.args]
    defaults = [None] * (len(positional) - len(args.defaults)) + list(args.defaults)
    params = [
        (arg.arg, "positional-only" if index < len(args.posonlyargs) else "positional", default)
        for index, (arg, default) in enumerate(zip(positional, defaults))
    ]
    if args.vararg:
        params.append((args.vararg.arg, "var-positional", None))
    params += [
        (arg.arg, "keyword-only", default)
        for arg, default in zip(args.kwonlyargs, args.kw_defaults)
    ]
    if args.kwarg:
        params.append((args.kwarg.arg, "var-keyword", None))
    return [
        (name, kind, None if default is None else ast.unparse(default))
        for name, kind, default in params
    ]


def _methods(cls: ast.ClassDef) -> dict:
    return {
        node.name: node
        for node in cls.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    }


def _contract() -> dict:
    """Contract class name -> method name -> its definition."""
    tree = ast.parse(CONTRACT_FILE.read_text(encoding="utf-8"))
    return {
        node.name: _methods(node)
        for node in tree.body
        if isinstance(node, ast.ClassDef) and node.name in CONTRACT_CLASSES
    }


def check_kernel_contract(path: Path) -> list[str]:
    """Overrides of a contract method whose signature drifted."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    relative = _relative(path)
    contract = _contract()
    violations: list[str] = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for base in {_dotted(node).rpartition(".")[2] for node in cls.bases}:
            for name, method in _methods(cls).items():
                expected = contract.get(base, {}).get(name)
                if expected is None or _parameters(method) == _parameters(expected):
                    continue
                violations.append(
                    f"{relative}:{method.lineno}: {cls.name}.{name}"
                    f"({ast.unparse(method.args)}) drifts from {base}.{name}"
                    f"({ast.unparse(expected.args)}): keep the contract's "
                    "parameter names, kinds and defaults"
                )
    return violations


def check_run_epilogue(path: Path) -> list[str]:
    """Epilogue steps taken outside :data:`EPILOGUE_FILES`."""
    relative = _relative(path)
    if relative in EPILOGUE_FILES:
        return []
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    violations: list[str] = []
    for node in ast.walk(tree):
        if (
            isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)
            and node.func.attr == "absorb_work_counters"
        ):
            step = "absorb_work_counters()"
        elif (
            isinstance(node, ast.Attribute)
            and isinstance(node.ctx, ast.Store)
            and node.attr == "metrics"
            and not (isinstance(node.value, ast.Name) and node.value.id == "self")
        ):
            step = f"{ast.unparse(node)} ="
        else:
            continue
        violations.append(
            f"{relative}:{node.lineno}: {step} outside the run epilogue: "
            "end the run with repro.obs.record_run"
        )
    return violations


@cache
def _engine_classes() -> frozenset:
    """The ``*Engine`` class names :data:`ENGINE_PACKAGE` defines."""
    return frozenset(
        node.name
        for path in ENGINE_PACKAGE.glob("*.py")
        for node in ast.parse(path.read_text(encoding="utf-8")).body
        if isinstance(node, ast.ClassDef) and node.name.endswith("Engine")
    )


def _names_engine(node: ast.AST, engines: set) -> bool:
    return _dotted(node).rsplit(".", 1)[-1] in engines


def _is_engine_constructor(value: ast.AST, engines: set) -> bool:
    """An engine class, or a lambda or ``partial`` that builds one."""
    if isinstance(value, ast.Lambda):
        return isinstance(value.body, ast.Call) and _names_engine(value.body.func, engines)
    if isinstance(value, ast.Call):
        return (
            _dotted(value.func).rsplit(".", 1)[-1] == "partial"
            and bool(value.args)
            and _names_engine(value.args[0], engines)
        )
    return _names_engine(value, engines)


def check_engine_tables(path: Path) -> list[str]:
    """Name -> engine tables outside :data:`REGISTRY_FILE`, and calls of
    an engine class outside :data:`ENGINE_PACKAGE` -- a dict of engine
    instances or a bare construction is an engine table spelled out."""
    relative = _relative(path)
    engines = _engine_classes()
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    found = []
    if relative != REGISTRY_FILE:
        found += [
            (node.lineno, f"engine table outside {REGISTRY_FILE}: "
             "build engines from repro.distributed.ENGINES")
            for node in ast.walk(tree)
            if isinstance(node, ast.Dict)
            and any(_is_engine_constructor(value, engines) for value in node.values)
        ]
    if ENGINE_PACKAGE not in path.resolve().parents:
        found += [
            (node.lineno, f"{_dotted(node.func)}(...) outside {_relative(ENGINE_PACKAGE)}: "
             "build engines with repro.distributed.build_engine")
            for node in ast.walk(tree)
            if isinstance(node, ast.Call) and _names_engine(node.func, engines)
        ]
    return [f"{relative}:{line}: {message}" for line, message in sorted(found)]


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def check_engine_closures(path: Path) -> list[str]:
    """Nested ``def``s inside the methods of any class in ``path``."""
    relative = _relative(path)
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    return [
        f"{relative}:{node.lineno}: nested def {node.name!r} in "
        f"{cls.name}.{method.name}: keep run state on the run object and "
        "make it a method"
        for cls in ast.walk(tree)
        if isinstance(cls, ast.ClassDef)
        for method in cls.body
        if isinstance(method, _FUNCTIONS)
        for node in ast.walk(method)
        if node is not method and isinstance(node, _FUNCTIONS)
    ]


_SCOPES = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda, ast.ClassDef)


def _own_nodes(function: ast.AST):
    """The nodes of ``function``'s own scope: its body, not the bodies of
    the functions, lambdas and classes defined in it."""
    stack = list(ast.iter_child_nodes(function))
    while stack:
        node = stack.pop()
        yield node
        if not isinstance(node, _SCOPES):
            stack.extend(ast.iter_child_nodes(node))


def _stores(function: ast.AST) -> dict:
    """Name -> first line, for every name ``function`` binds itself."""
    stored: dict = {}
    for node in _own_nodes(function):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            name, line = node.id, node.lineno
        elif isinstance(node, ast.ExceptHandler) and node.name:
            name, line = node.name, node.lineno
        else:
            continue
        stored[name] = min(line, stored.get(name, line))
    return stored


def _reads(function: ast.AST) -> set:
    """Every name read anywhere inside ``function``, nested scopes too;
    ``x += 1`` and ``del x`` read ``x``, and ``global``/``nonlocal`` names
    are kept."""
    read: set = set()
    for node in ast.walk(function):
        if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store):
            read.add(node.id)
        elif isinstance(node, ast.AugAssign) and isinstance(node.target, ast.Name):
            read.add(node.target.id)
        elif isinstance(node, (ast.Global, ast.Nonlocal)):
            read.update(node.names)
    return read


def check_unused_locals(path: Path) -> list[str]:
    """Names a function stores and never reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    relative = _relative(path)
    violations: list[str] = []
    for function in ast.walk(tree):
        if not isinstance(function, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        read = _reads(function)
        for line, name in sorted((line, name) for name, line in _stores(function).items()):
            if name in read or name.startswith("_"):
                continue
            violations.append(
                f"{relative}:{line}: local {name!r} is stored and never read: "
                "drop it (or name it with a leading underscore)"
            )
    return violations


#: names every module has without binding them
MODULE_NAMES = frozenset(dir(builtins)) | {
    "__file__", "__path__", "__builtins__", "__cached__", "__annotations__",
}


def check_undefined_names(path: Path) -> list[str]:
    """Names a module reads as globals and binds nowhere."""
    source = path.read_text(encoding="utf-8")
    tree = ast.parse(source, filename=str(path))
    if any(
        isinstance(node, ast.ImportFrom) and any(alias.name == "*" for alias in node.names)
        for node in ast.walk(tree)
    ):
        return []
    top = symtable.symtable(source, str(path), "exec")
    bound = set(MODULE_NAMES)
    read: set = set()
    tables = [top]
    while tables:
        table = tables.pop()
        tables.extend(table.get_children())
        for symbol in table.get_symbols():
            name = symbol.get_name()
            if table is top or symbol.is_declared_global():
                if symbol.is_assigned() or symbol.is_imported() or symbol.is_namespace():
                    bound.add(name)
            if symbol.is_referenced() and (table is top or symbol.is_global()):
                read.add(name)
    undefined = read - bound
    if not undefined:
        return []
    relative = _relative(path)
    lines: dict = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and node.id in undefined:
            lines[node.id] = min(node.lineno, lines.get(node.id, node.lineno))
    return [
        f"{relative}:{line}: undefined name {name!r}: bind or import it"
        for line, name in sorted((lines.get(name, 0), name) for name in undefined)
    ]


def _run_pass(check, roots) -> tuple[list[str], int]:
    violations: list[str] = []
    checked = 0
    for root in roots:
        files = sorted(root.rglob("*.py")) if root.is_dir() else [root]
        for path in files:
            violations.extend(check(path))
            checked += 1
    return violations, checked


def main(argv: list[str] | None = None) -> int:
    args = sys.argv[1:] if argv is None else argv
    given = [Path(arg) for arg in args]
    status = 0
    for check, default, broken, clean in (
        (check_file, DEFAULT_SCOPE,
         "determinism invariants violated", "determinism invariants hold"),
        (check_unused_imports, IMPORT_SCOPE,
         "unused imports", "no unused imports"),
        (check_array_imports, ARRAY_FREE_SCOPE,
         "array imports in array-free packages", "array-free packages stay kernel-agnostic"),
        (check_kernel_contract, KERNEL_SCOPE,
         "kernel contract drift", "kernel overrides keep the contract"),
        (check_run_epilogue, EPILOGUE_SCOPE,
         "run epilogue said twice", "one run epilogue"),
        (check_unused_locals, LOCALS_SCOPE,
         "unused locals", "no unused locals"),
        (check_engine_tables, TABLE_SCOPE,
         "engines wired outside the registry", "one engine table, every engine built from it"),
        (check_undefined_names, LOCALS_SCOPE,
         "undefined names", "no undefined names"),
        (check_engine_closures, CLOSURE_SCOPE,
         "closures in engine methods", "engine methods define no closures"),
    ):
        violations, checked = _run_pass(check, given or default)
        if violations:
            status = 1
            print(f"{broken} ({len(violations)}):")
            for violation in violations:
                print(f"  {violation}")
        else:
            print(f"{clean} ({checked} files checked)")
    return status


if __name__ == "__main__":
    sys.exit(main())
