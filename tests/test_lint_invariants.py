"""The self-lint (``tools/lint_invariants.py``): determinism invariants
and unused imports."""

import subprocess
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).parent.parent
TOOL = REPO_ROOT / "tools" / "lint_invariants.py"

sys.path.insert(0, str(TOOL.parent))
from lint_invariants import check_file, check_unused_imports, main  # noqa: E402

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
