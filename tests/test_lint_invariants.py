"""The self-lint (``tools/lint_invariants.py``): determinism invariants
and unused imports."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent
TOOL = REPO_ROOT / "tools" / "lint_invariants.py"

sys.path.insert(0, str(TOOL.parent))
from lint_invariants import (  # noqa: E402
    ARRAY_FREE_SCOPE,
    SEEDED_GENERATOR_FILES,
    CONTRACT_CLASSES,
    EPILOGUE_FILES,
    KERNEL_SCOPE,
    REGISTRY_FILE,
    check_array_imports,
    check_engine_tables,
    check_file,
    check_kernel_contract,
    check_run_epilogue,
    check_unused_imports,
    check_unused_locals,
    main,
)

CLEAN = """\
import random

def jitter(rng: random.Random) -> float:
    return rng.random()

def seeded() -> random.Random:
    return random.Random(7)
"""

DIRTY = """\
import random
import time
from datetime import datetime

def stamp():
    return time.time(), datetime.now()

def roll():
    return random.random()

def unseeded():
    return random.Random()
"""


class TestCheckFile:
    def test_clean_file(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text(CLEAN)
        assert check_file(path) == []

    def test_flags_wall_clock_and_global_random(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text(DIRTY)
        violations = check_file(path)
        text = "\n".join(violations)
        assert "time.time" in text
        assert "datetime.now" in text
        assert "random.random" in text
        assert "random.Random()" in text or "Random" in text
        assert len(check_file(path)) >= 4

    def test_seeded_constructor_allowed(self, tmp_path):
        path = tmp_path / "seeded.py"
        path.write_text("import random\nrng = random.Random(x=3)\n")
        assert check_file(path) == []


IMPORTS_CLEAN = """\
from __future__ import annotations

import os.path
import json as js
from typing import TYPE_CHECKING, Optional
from collections import Counter  # noqa: F401  (re-export)
from itertools import chain  # noqa

if TYPE_CHECKING:
    from decimal import Decimal
    from fractions import Fraction

__all__ = ["Optional"]

def load(path: str, scale: "Decimal") -> "list[Fraction]":
    return js.loads(os.path.basename(path))
"""

IMPORTS_DIRTY = """\
import os
import sys
from typing import (
    Optional,
    Sequence,
)
from array import array  # noqa: E501

def first(items: Sequence):
    import json
    return items[0], sys.argv
"""


class TestUnusedImports:
    def test_clean_file(self, tmp_path):
        path = tmp_path / "clean.py"
        path.write_text(IMPORTS_CLEAN)
        assert check_unused_imports(path) == []

    def test_flags_each_unused_binding(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text(IMPORTS_DIRTY)
        flagged = [v.split(": ", 1)[1].split("'")[1] for v in check_unused_imports(path)]
        # a noqa for another rule does not cover F401; the function-local
        # import counts; the used ones (sys, Sequence) do not
        assert sorted(flagged) == ["Optional", "array", "json", "os"]
        (optional,) = [v for v in check_unused_imports(path) if "Optional" in v]
        assert ":4: " in optional  # the alias's own line, not the statement's

    def test_init_reexports_are_exempt(self, tmp_path):
        path = tmp_path / "__init__.py"
        path.write_text("from os import sep\n")
        assert check_unused_imports(path) == []


ARRAY_IMPORTS = """\
import numpy as np
import numpy.random
from numpy import asarray
import numpy as xp
from repro.runtime.numpy_kernel import Columns
import repro.runtime.numpy_kernel

def later():
    from repro.runtime import get_kernel  # fine: no array comes with it
    import numpy as np
"""


class TestArrayFreePackages:
    def test_flags_every_spelling(self, tmp_path):
        path = tmp_path / "seeded.py"
        path.write_text(ARRAY_IMPORTS)
        lines = sorted(int(v.split(":")[1]) for v in check_array_imports(path))
        assert lines == [1, 2, 3, 4, 5, 6, 10]

    def test_the_three_packages_and_the_two_exceptions(self):
        assert sorted(root.name for root in ARRAY_FREE_SCOPE) == [
            "delta", "distributed", "engine",
        ]
        for relative in SEEDED_GENERATOR_FILES:
            path = REPO_ROOT / relative
            assert "\nimport numpy as np\n" in path.read_text()
            assert check_array_imports(path) == []

    def test_an_exception_covers_one_import_only(self, tmp_path, monkeypatch):
        import lint_invariants

        path = tmp_path / "chaos.py"
        path.write_text("import numpy\nimport numpy as np\n")
        monkeypatch.setattr(lint_invariants, "REPO_ROOT", tmp_path)
        monkeypatch.setattr(
            lint_invariants, "SEEDED_GENERATOR_FILES", {Path("chaos.py")}
        )
        (violation,) = check_array_imports(path)
        assert "chaos.py:1: array import numpy" in violation

    def test_nonzero_on_violation(self, tmp_path, capsys):
        path = tmp_path / "join.py"
        path.write_text("import numpy as np\n\nprint(np)\n")
        assert main([str(path)]) == 1
        assert "array import numpy" in capsys.readouterr().out


KERNEL_DRIFT = """\
from repro.runtime.base import Kernel, SendSide


class Drifted(Kernel):
    def push(self, key, value):
        pass

    @classmethod
    def forward_closure(cls, plan, seeds, pairs=None):
        return set()

    def apply_batch(self, deltas=None, keys=None):
        pass

    def helper(self, anything):
        pass


class Sender(SendSide):
    def fill(self, buffers, out):
        pass
"""


class TestKernelContract:
    def test_flags_each_drifted_override(self, tmp_path):
        path = tmp_path / "drifted.py"
        path.write_text(KERNEL_DRIFT)
        violations = check_kernel_contract(path)
        flagged = sorted(v.split(": ", 1)[1].split("(")[0] for v in violations)
        # a changed default, a keyword-only made positional, a dropped
        # parameter; the kept override and the extra helper are fine
        assert flagged == ["Drifted.apply_batch", "Drifted.forward_closure", "Sender.fill"]
        (closure,) = [v for v in violations if "forward_closure" in v]
        assert ":9: " in closure and "pairs=None" in closure and "Iterable=()" in closure

    def test_the_runtime_keeps_the_contract(self):
        assert CONTRACT_CLASSES == ("Kernel", "SendSide")
        for root in KERNEL_SCOPE:
            for path in sorted(root.rglob("*.py")):
                assert check_kernel_contract(path) == [], path

    def test_nonzero_on_drift(self, tmp_path, capsys):
        path = tmp_path / "drifted.py"
        path.write_text(KERNEL_DRIFT)
        assert main([str(path)]) == 1
        assert "kernel contract drift (3)" in capsys.readouterr().out


SECOND_EPILOGUE = """\
class Engine:
    def __init__(self, obs):
        self.metrics = obs.metrics

    def run(self, result, obs):
        obs.metrics.absorb_work_counters(result.counters, engine="x")
        result.metrics = obs.metrics
        out, result.metrics = 1, None
        return result
"""


class TestRunEpilogue:
    def test_flags_each_step_outside_the_epilogue(self, tmp_path):
        path = tmp_path / "engine.py"
        path.write_text(SECOND_EPILOGUE)
        lines = [int(v.split(":")[1]) for v in check_run_epilogue(path)]
        # an instance's own ``self.metrics`` is not a result's
        assert lines == [6, 7, 8]

    def test_only_the_epilogue_and_the_repair_say_it(self):
        assert sorted(str(p) for p in EPILOGUE_FILES) == [
            "src/repro/delta/engine.py", "src/repro/obs/metrics.py",
        ]
        for relative in EPILOGUE_FILES:
            assert "absorb_work_counters(" in (REPO_ROOT / relative).read_text()

    def test_nonzero_on_a_second_epilogue(self, tmp_path, capsys):
        path = tmp_path / "engine.py"
        path.write_text(SECOND_EPILOGUE)
        assert main([str(path)]) == 1
        assert "run epilogue said twice (3)" in capsys.readouterr().out


LOCALS_DIRTY = """\
def repair(key, rows):
    program, version, params = key
    for row in rows:
        pass
    try:
        total = len(rows)
    except TypeError as error:
        return None
    return program, version
"""

LOCALS_CLEAN = """\
def repair(key, rows):
    program, version, *_ = key
    seen = 0
    seen += 1
    for _row in rows:
        pass
    best = min(rows)

    def later():
        return best

    hits = [x for x in rows if x]
    return program, version, later, hits
"""


class TestUnusedLocals:
    def test_flags_each_name_stored_and_never_read(self, tmp_path):
        path = tmp_path / "locals.py"
        path.write_text(LOCALS_DIRTY)
        found = [(int(v.split(":")[1]), v.split("'")[1]) for v in check_unused_locals(path)]
        assert found == [(2, "params"), (3, "row"), (6, "total"), (7, "error")]

    def test_underscores_augmented_closures_and_comprehensions_read(self, tmp_path):
        path = tmp_path / "locals.py"
        path.write_text(LOCALS_CLEAN)
        assert check_unused_locals(path) == []

    def test_nonzero_on_an_unused_local(self, tmp_path, capsys):
        path = tmp_path / "locals.py"
        path.write_text(LOCALS_DIRTY)
        assert main([str(path)]) == 1
        assert "unused locals (4)" in capsys.readouterr().out


ENGINE_TABLES = """\
from functools import partial

from repro.distributed import AsyncEngine, SyncEngine
import repro.distributed.unified as unified

FACTORIES = {"sync": SyncEngine, "async": AsyncEngine}
BUILDERS = {
    "unified": lambda plan, cluster: unified.UnifiedEngine(plan, cluster),
}
MODES = {"naive": partial(SyncEngine, mode="naive")}
LABELS = {"sync": "SyncEngine", "async": len}


def engines(plan, cluster):
    return {"sync": SyncEngine(plan, cluster), "label": "x"}
"""


class TestEngineTables:
    def test_flags_classes_lambdas_and_partials(self, tmp_path):
        path = tmp_path / "tables.py"
        path.write_text(ENGINE_TABLES)
        lines = [int(v.split(":")[1]) for v in check_engine_tables(path)]
        # a dict of engine instances, built with the caller's own
        # settings, is not a table of engines
        assert lines == [6, 7, 10]

    def test_the_registry_holds_the_one_table(self):
        registry = REPO_ROOT / REGISTRY_FILE
        assert "ENGINES = {" in registry.read_text()
        assert check_engine_tables(registry) == []

    def test_nonzero_on_a_second_table(self, tmp_path, capsys):
        path = tmp_path / "tables.py"
        path.write_text(ENGINE_TABLES)
        assert main([str(path)]) == 1
        assert "engine tables outside the registry (3)" in capsys.readouterr().out


class TestMain:
    def test_core_tree_is_clean(self):
        # the invariants the tool exists to hold: no wall-clock or
        # unseeded randomness in engine/runtime/distributed, and no
        # unused import anywhere in the tree
        assert main([]) == 0

    def test_nonzero_on_violation(self, tmp_path):
        path = tmp_path / "dirty.py"
        path.write_text(DIRTY)
        assert main([str(path)]) == 1

    def test_nonzero_on_unused_import(self, tmp_path, capsys):
        path = tmp_path / "dirty.py"
        path.write_text(IMPORTS_DIRTY)
        assert main([str(path)]) == 1
        assert "unused import 'os'" in capsys.readouterr().out

    def test_runs_as_a_script(self):
        proc = subprocess.run(
            [sys.executable, str(TOOL)], capture_output=True, text=True, cwd=REPO_ROOT
        )
        assert proc.returncode == 0
        assert "determinism invariants hold" in proc.stdout
        # the second pass covers src, tests, benchmarks, examples, tools
        assert "no unused imports" in proc.stdout
        assert "array-free packages stay kernel-agnostic" in proc.stdout
        assert "kernel overrides keep the contract" in proc.stdout
        assert "one run epilogue" in proc.stdout
        assert "one engine table" in proc.stdout
        # the sixth pass covers src and tests
        checked = sum(len(list((REPO_ROOT / d).rglob("*.py"))) for d in ("src", "tests"))
        assert f"no unused locals ({checked} files checked)" in proc.stdout
