"""Baseline system models and the PowerLog pipeline (Figure 2)."""

import pytest

from repro.distributed import ClusterConfig
from repro.engine import MRAEvaluator
from repro.graphs import rmat
from repro.programs import PROGRAMS
from repro.systems import SYSTEMS, PowerLog, get_system


@pytest.fixture(scope="module")
def graph():
    return rmat(70, 350, seed=51, name="systems-graph")


@pytest.fixture(scope="module")
def cluster():
    return ClusterConfig(num_workers=8)


def reference_values(program, graph):
    return MRAEvaluator(PROGRAMS[program].plan(graph)).run().values


class TestRegistry:
    def test_all_systems_present(self):
        assert set(SYSTEMS) == {
            "SociaLite",
            "Myria",
            "BigDatalog",
            "PowerGraph",
            "Maiter",
            "Prom",
            "PowerLog",
        }

    def test_lookup(self):
        assert get_system("PowerLog").name == "PowerLog"

    def test_unknown(self):
        with pytest.raises(KeyError):
            get_system("Oracle")


class TestSupportMatrix:
    """Paper section 6.3: Myria/BigDatalog lack Adsorption, Katz, BP."""

    @pytest.mark.parametrize("system_name", ["Myria", "BigDatalog"])
    @pytest.mark.parametrize("program", ["adsorption", "katz", "bp"])
    def test_unsupported(self, system_name, program):
        assert not SYSTEMS[system_name].supports(PROGRAMS[program])

    @pytest.mark.parametrize("system_name", ["SociaLite", "PowerLog"])
    @pytest.mark.parametrize("program", ["adsorption", "katz", "bp"])
    def test_supported_elsewhere(self, system_name, program):
        assert SYSTEMS[system_name].supports(PROGRAMS[program])


class TestCorrectness:
    @pytest.mark.parametrize(
        "system_name", ["SociaLite", "Myria", "BigDatalog", "PowerLog", "PowerGraph"]
    )
    def test_sssp(self, system_name, graph, cluster):
        result = SYSTEMS[system_name].run(PROGRAMS["sssp"], graph, cluster)
        assert result.values == reference_values("sssp", graph)

    @pytest.mark.parametrize(
        "system_name", ["SociaLite", "Myria", "BigDatalog", "PowerLog", "Maiter"]
    )
    def test_pagerank(self, system_name, graph, cluster):
        result = SYSTEMS[system_name].run(PROGRAMS["pagerank"], graph, cluster)
        expected = reference_values("pagerank", graph)
        for key, value in expected.items():
            assert result.values[key] == pytest.approx(value, abs=2e-3)

    def test_prom_bp(self, cluster):
        small = rmat(30, 120, seed=52)
        result = SYSTEMS["Prom"].run(PROGRAMS["bp"], small, cluster)
        expected = reference_values("bp", small)
        for key, value in expected.items():
            assert result.values[key] == pytest.approx(value, abs=2e-3)


class TestStrategies:
    def test_socialite_uses_naive_for_pagerank(self, graph, cluster):
        result = SYSTEMS["SociaLite"].run(PROGRAMS["pagerank"], graph, cluster)
        assert "naive" in result.engine

    def test_socialite_uses_incremental_for_sssp(self, graph, cluster):
        result = SYSTEMS["SociaLite"].run(PROGRAMS["sssp"], graph, cluster)
        assert "incremental" in result.engine and "delta-step" in result.engine

    def test_myria_async_for_monotonic(self, graph, cluster):
        result = SYSTEMS["Myria"].run(PROGRAMS["cc"], graph, cluster)
        assert "async" in result.engine

    def test_bigdatalog_labelled_graphx_for_pagerank(self, graph, cluster):
        result = SYSTEMS["BigDatalog"].run(PROGRAMS["pagerank"], graph, cluster)
        assert "GraphX" in result.engine

    def test_powerlog_unified_for_satisfiable(self, graph, cluster):
        result = SYSTEMS["PowerLog"].run(PROGRAMS["pagerank"], graph, cluster)
        assert "sync-async" in result.engine


class TestPowerLogDecision:
    def test_mra_route(self):
        decision = PowerLog().decide(PROGRAMS["pagerank"])
        assert decision.evaluation == "mra"
        assert decision.engine == "unified sync-async"

    def test_naive_route_for_gcn(self):
        decision = PowerLog().decide(PROGRAMS["gcn"])
        assert decision.evaluation == "naive"
        assert decision.engine == "sync"

    def test_decision_summary_readable(self):
        summary = PowerLog().decide(PROGRAMS["sssp"]).summary()
        assert "sssp" in summary and "mra" in summary


class TestRelativePerformance:
    """The headline ordering: PowerLog fastest on additive programs."""

    def test_powerlog_beats_naive_baselines_on_pagerank(self, graph, cluster):
        times = {}
        for name in ("SociaLite", "Myria", "PowerLog"):
            result = SYSTEMS[name].run(PROGRAMS["pagerank"], graph, cluster)
            times[name] = result.simulated_seconds
        assert times["PowerLog"] < times["SociaLite"]
        assert times["PowerLog"] < times["Myria"]

    def test_powerlog_fastest_on_cc_at_dataset_scale(self):
        from repro.graphs import load_dataset

        graph = load_dataset("livej")
        times = {}
        for name in ("SociaLite", "Myria", "BigDatalog", "PowerLog"):
            result = SYSTEMS[name].run(PROGRAMS["cc"], graph)
            times[name] = result.simulated_seconds
        assert min(times, key=times.get) == "PowerLog"


#: every row x {sssp, pagerank} it supports on the module graph:
#: (engine label, simulated seconds as ``float.hex``, counters in
#: :data:`PINNED_COUNTERS` order), so a routing slip fails here
PINNED_COUNTERS = (
    "iterations", "fprime_applications", "combines", "updates", "messages",
    "message_tuples", "barriers", "bindings_produced", "tuples_scanned",
)
PINNED_RUNS = {
    ("BigDatalog", "pagerank"): ("BigDatalog/GraphX:incremental+sync", "0x1.04a4b298bf230p+2", (48, 19632, 19632, 3360, 2688, 10752, 48, 0, 0)),
    ("BigDatalog", "sssp"): ("BigDatalog:incremental+sync", "0x1.ac4996d945d8dp-2", (5, 538, 501, 96, 138, 379, 5, 0, 0)),
    ("Maiter", "pagerank"): ("Maiter:mra+async", "0x1.3333333333333p-2", (6, 145635, 28407, 18222, 3178, 12678, 0, 0, 0)),
    ("Maiter", "sssp"): ("Maiter:mra+async", "0x1.9ecc3e6efd2a8p-6", (1, 617, 415, 113, 136, 385, 0, 0, 0)),
    ("Myria", "pagerank"): ("Myria:naive+sync", "0x1.5349331e2c20fp+0", (48, 19632, 16272, 3360, 2688, 17472, 48, 0, 0)),
    ("Myria", "sssp"): ("Myria:mra+async", "0x1.c3f2b38dcc4b9p-6", (1, 601, 419, 113, 136, 390, 0, 0, 0)),
    ("PowerGraph", "pagerank"): ("PowerGraph:incremental+sync", "0x1.cfdcbfaeb6a89p-3", (48, 19632, 19632, 3360, 2688, 10752, 48, 0, 0)),
    ("PowerGraph", "sssp"): ("PowerGraph:incremental+sync", "0x1.2899a23491358p-6", (5, 538, 501, 96, 138, 379, 5, 0, 0)),
    ("PowerLog", "pagerank"): ("PowerLog:mra+sync-async", "0x1.0000000000000p-2", (5, 54786, 14592, 6653, 2326, 8712, 0, 0, 0)),
    ("PowerLog", "sssp"): ("PowerLog:mra+sync-async", "0x1.9bcd5341a70ecp-6", (1, 615, 427, 112, 140, 397, 0, 0, 0)),
    ("Prom", "pagerank"): ("Prom:mra+async", "0x1.3333333333333p-2", (6, 44748, 12821, 5682, 2159, 8200, 0, 0, 0)),
    ("Prom", "sssp"): ("Prom:mra+async", "0x1.9ecc3e6efd2a8p-6", (1, 617, 415, 113, 136, 385, 0, 0, 0)),
    ("SociaLite", "pagerank"): ("SociaLite:naive+sync", "0x1.ecc2bec96b874p+0", (48, 19632, 16272, 3360, 2688, 17472, 48, 0, 0)),
    ("SociaLite", "sssp"): ("SociaLite:incremental+sync+delta-step", "0x1.c045fd78ac128p-6", (7, 537, 500, 93, 145, 383, 7, 0, 0)),
}


class TestPinnedRuns:
    def test_every_supported_row_is_pinned(self):
        assert set(PINNED_RUNS) == {
            (name, program)
            for name, system in SYSTEMS.items()
            for program in ("sssp", "pagerank")
            if system.supports(PROGRAMS[program])
        }

    @pytest.mark.parametrize("system_name, program", sorted(PINNED_RUNS))
    def test_run_is_pinned(self, system_name, program, graph, cluster):
        result = SYSTEMS[system_name].run(PROGRAMS[program], graph, cluster)
        snapshot = result.counters.snapshot()
        engine, seconds, counters = PINNED_RUNS[system_name, program]
        assert result.engine == engine
        assert result.simulated_seconds.hex() == seconds
        assert snapshot == dict(zip(PINNED_COUNTERS, counters))
