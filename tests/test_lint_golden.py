"""Golden diagnostics: ``repro lint --format json`` output is a contract.

Every registry program and every seeded-bad example under
``examples/datalog/`` is snapshotted.  Codes, messages, severities and
theorem verdicts are pinned -- renumbering an ``RAxxx`` code or
reordering diagnostics is a breaking change and must show up here.

Regenerate intentionally with::

    REPRO_REGEN_GOLDEN=1 python -m pytest tests/test_lint_golden.py
"""

import json
import os
from pathlib import Path

import pytest

from repro.cli import main
from repro.programs.registry import PROGRAMS

GOLDEN_DIR = Path(__file__).parent / "golden"
EXAMPLES_DIR = Path(__file__).parent.parent / "examples" / "datalog"
REGEN = os.environ.get("REPRO_REGEN_GOLDEN") == "1"

EXAMPLE_FILES = sorted(EXAMPLES_DIR.glob("*.dl"))

# bad examples fail plain lint; the async-ineligible and overflow ones
# only fail gated, and the two semiring-violation seeds warn without
# failing
EXPECTED_EXIT = {
    "bad_unstratifiable": 1,
    "bad_unbound": 1,
    "bad_async_ineligible": 0,
    "bad_mean_semiring": 0,
    "bad_uncertified_times": 0,
    "bad_overflow": 0,
}


def lint_json(capsys, target):
    code = main(["lint", target, "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    return code, payload


def assert_matches_golden(payload, name):
    golden_path = GOLDEN_DIR / f"{name}.json"
    rendered = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    if REGEN or not golden_path.exists():
        golden_path.write_text(rendered)
    assert json.loads(golden_path.read_text()) == json.loads(rendered), (
        f"lint output for {name!r} drifted from {golden_path}; "
        "if intentional, rerun with REPRO_REGEN_GOLDEN=1"
    )


class TestRegistryGoldens:
    @pytest.mark.parametrize("name", sorted(PROGRAMS))
    def test_registry_program(self, capsys, name):
        code, payload = lint_json(capsys, name)
        assert code == 0, f"registry program {name} must lint clean"
        assert_matches_golden(payload, name)


class TestExampleGoldens:
    @pytest.mark.parametrize(
        "path", EXAMPLE_FILES, ids=[p.stem for p in EXAMPLE_FILES]
    )
    def test_example_file(self, capsys, path):
        code, payload = lint_json(capsys, str(path))
        assert code == EXPECTED_EXIT.get(path.stem, 0), path.stem
        assert_matches_golden(payload, path.stem)

    def test_bad_examples_present(self):
        stems = {p.stem for p in EXAMPLE_FILES}
        assert set(EXPECTED_EXIT) <= stems

    def test_async_gate_fails_ineligible_example(self, capsys):
        target = str(EXAMPLES_DIR / "bad_async_ineligible.dl")
        assert main(["lint", target, "--gate", "async"]) == 1
        out = capsys.readouterr().out
        assert "RA310" in out

    def test_async_gate_passes_certified_example(self, capsys):
        target = str(EXAMPLES_DIR / "reachable_cost.dl")
        assert main(["lint", target, "--gate", "async"]) == 0
        capsys.readouterr()

    def test_overflow_gate_fails_unbounded_example(self, capsys):
        target = str(EXAMPLES_DIR / "bad_overflow.dl")
        assert main(["lint", target, "--gate", "overflow"]) == 1
        out = capsys.readouterr().out
        assert "RA351" in out

    def test_overflow_gate_passes_bounded_example(self, capsys):
        target = str(EXAMPLES_DIR / "reachable_cost.dl")
        assert main(["lint", target, "--gate", "overflow"]) == 0
        capsys.readouterr()


class TestStableCodes:
    """The specific codes the seeded-bad examples were seeded to produce."""

    def expect_codes(self, capsys, stem, codes):
        _, payload = lint_json(capsys, str(EXAMPLES_DIR / f"{stem}.dl"))
        produced = {d["code"] for d in payload["diagnostics"]}
        assert codes <= produced, f"{stem}: {produced}"

    def test_unstratifiable(self, capsys):
        self.expect_codes(capsys, "bad_unstratifiable", {"RA102", "RA110"})

    def test_unbound(self, capsys):
        self.expect_codes(capsys, "bad_unbound", {"RA201"})

    def test_async_ineligible(self, capsys):
        self.expect_codes(capsys, "bad_async_ineligible", {"RA310", "RA302"})

    def test_mean_is_no_semiring(self, capsys):
        # mean's ⊕ is not associative: no semiring, nothing conditioned
        # on one (RA341 and the RA322/RA331 downgrades travel together)
        self.expect_codes(
            capsys, "bad_mean_semiring", {"RA341", "RA322", "RA331"}
        )

    def test_uncertified_times(self, capsys):
        # declared ⊕-semiring but an F' outside the pattern table: the
        # ⊗ obligation is not structurally discharged
        self.expect_codes(capsys, "bad_uncertified_times", {"RA342", "RA310"})

    def test_overflow(self, capsys):
        # the assume-declared factor >= 2 proves multiplicative growth
        # with no epsilon stop: the symbolic range pass must warn
        self.expect_codes(capsys, "bad_overflow", {"RA351"})


class TestIncrementalCodes:
    """RA32x incremental-maintainability verdicts per registry program.

    These gate :mod:`repro.delta` repair strategies, so the mapping is a
    contract: a program silently moving between RA320/RA321/RA322 would
    change which serving-layer cache entries get repaired in place.
    """

    #: selective fixpoints: deletions re-derive, inserts take the frontier
    FULL = {"sssp", "cc", "viterbi", "lca", "apsp", "why_reach", "kpaths", "reach_prob"}
    #: additive fixpoints: insert-only fast path, deletions recompute
    INSERT_ONLY = {"dag_paths", "cost", "path_count"}

    def verdict_of(self, capsys, name):
        _, payload = lint_json(capsys, name)
        return payload["incremental"], {
            d["code"] for d in payload["diagnostics"]
        }

    @pytest.mark.parametrize("name", sorted(FULL))
    def test_selective_programs_are_ra320(self, capsys, name):
        verdict, codes = self.verdict_of(capsys, name)
        assert "RA320" in codes
        assert verdict["mode"] == "full" and verdict["maintainable"]

    @pytest.mark.parametrize("name", sorted(INSERT_ONLY))
    def test_additive_programs_are_ra321(self, capsys, name):
        verdict, codes = self.verdict_of(capsys, name)
        assert "RA321" in codes
        assert verdict["mode"] == "insert-only" and verdict["maintainable"]

    @pytest.mark.parametrize(
        "name", sorted(set(PROGRAMS) - FULL - INSERT_ONLY)
    )
    def test_everything_else_is_ra322(self, capsys, name):
        verdict, codes = self.verdict_of(capsys, name)
        assert "RA322" in codes
        assert verdict["mode"] == "none" and not verdict["maintainable"]

    def test_epsilon_termination_is_called_out(self, capsys):
        # simrank is structurally a sum fixpoint, but its epsilon stop
        # makes repaired and from-scratch runs diverge -- the detail
        # must say so, not just "none"
        verdict, _ = self.verdict_of(capsys, "simrank")
        assert "epsilon" in verdict["detail"]


class TestFrontierCodes:
    """RA33x sparse-frontier scheduling verdicts per registry program.

    ``SyncEngine(delta_stepping=True)`` is only accepted where the RA330
    verdict holds; everything else runs frontier compaction alone.  The
    mapping is a contract with the engine layer's refusal path, so it is
    pinned here.
    """

    #: selective idempotent fixpoints over numeric carriers: a value
    #: threshold is exact (kpaths is selective but its KTuple carrier
    #: has no float order to threshold, so it stays compaction-only)
    DELTA_STEPPING = {"sssp", "cc", "viterbi", "lca", "apsp", "why_reach", "reach_prob"}

    def verdict_of(self, capsys, name):
        _, payload = lint_json(capsys, name)
        return payload["frontier"], {
            d["code"] for d in payload["diagnostics"]
        }

    @pytest.mark.parametrize("name", sorted(DELTA_STEPPING))
    def test_selective_programs_are_ra330(self, capsys, name):
        verdict, codes = self.verdict_of(capsys, name)
        assert "RA330" in codes
        assert verdict["mode"] == "delta-stepping"
        assert verdict["delta_stepping"]

    @pytest.mark.parametrize(
        "name", sorted(set(PROGRAMS) - DELTA_STEPPING)
    )
    def test_everything_else_is_ra331(self, capsys, name):
        verdict, codes = self.verdict_of(capsys, name)
        assert "RA331" in codes
        assert verdict["mode"] == "compaction-only"
        assert not verdict["delta_stepping"]

    def test_non_idempotent_aggregate_is_called_out(self, capsys):
        # pagerank's sum fold is order-sensitive under bucketing; the
        # detail must explain the refusal, not just name the mode
        verdict, _ = self.verdict_of(capsys, "pagerank")
        assert "idempotent" in verdict["detail"]
