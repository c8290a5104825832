"""Route planning on a road-like network: min-family programs end to end.

High-diameter, low-skew networks (like the Arabic-2005 regime) are where
the sync/async tradeoff is sharpest for shortest-path workloads.  This
example builds a grid-plus-shortcuts road network, runs SSSP under every
execution mode (including SociaLite-style delta stepping), and then uses
the pair-key APSP program on a small district.

Run:  python examples/route_planning.py
"""

import numpy as np

from repro import AsyncEngine, SyncEngine, UnifiedEngine, get_program
from repro.distributed import ClusterConfig
from repro.graphs import Graph, grid_graph, rmat
from repro.graphs.graph import deduplicate_edges


def road_network(rows: int = 25, cols: int = 40, seed: int = 5) -> Graph:
    """A directed grid with a few highways (long-range shortcuts)."""
    base = grid_graph(rows, cols, name="roads")
    rng = np.random.default_rng(seed)
    n = base.num_vertices
    highways = [
        (int(rng.integers(0, n)), int(rng.integers(0, n))) for _ in range(30)
    ]
    edges = deduplicate_edges(base.edges + highways)
    return Graph(n, edges, name="roads", seed=seed)


def main() -> None:
    graph = road_network()
    cluster = ClusterConfig(num_workers=16)
    spec = get_program("sssp")
    plan = spec.plan(graph)
    print(f"road network: {graph}")

    modes = {
        "sync (BSP)": SyncEngine(plan, cluster),
        "sync + delta-stepping": SyncEngine(plan, cluster, delta_stepping=True),
        "async": AsyncEngine(plan, cluster),
        "unified sync-async": UnifiedEngine(plan, cluster),
    }
    baseline = None
    for label, engine in modes.items():
        result = engine.run()
        if baseline is None:
            baseline = result.values
        assert result.values == baseline, "modes disagree!"
        print(
            f"  {label:22s} {result.simulated_seconds:7.3f}s simulated, "
            f"{result.counters.fprime_applications:7d} relaxations, "
            f"{result.counters.iterations:4d} rounds"
        )
    farthest = max(baseline, key=baseline.get)
    print(f"  farthest reachable intersection: {farthest} "
          f"(distance {baseline[farthest]})")

    # all-pairs distances for a small district (pair-key program)
    district = rmat(15, 60, seed=9, name="district")
    apsp = get_program("apsp")
    result = UnifiedEngine(apsp.plan(district), cluster).run()
    reachable_pairs = len(result.values)
    print(f"\ndistrict APSP: {reachable_pairs} reachable pairs "
          f"of {district.num_vertices}^2")
    diameter_pair = max(result.values, key=result.values.get)
    print(f"  weighted diameter: {result.values[diameter_pair]} "
          f"between {diameter_pair}")


if __name__ == "__main__":
    main()
