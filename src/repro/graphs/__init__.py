"""Graph substrate: generators, datasets, IO and statistics.

The paper evaluates on six real-world graphs (Table 2: Flickr,
LiveJournal, Orkut, ClueWeb09, Wiki-link, Arabic-2005).  Those datasets
are unavailable offline and far too large for a pure-Python engine, so
:mod:`repro.graphs.datasets` provides seeded synthetic stand-ins scaled
down while preserving the *relative* properties the experiments depend
on: density (work per iteration), degree skew (worker imbalance, hence
barrier cost) and diameter (iteration count, hence async benefit).
"""

from repro.graphs.graph import Graph
from repro.graphs.generators import (
    rmat,
    erdos_renyi,
    small_world,
    locality_crawl,
    grid_graph,
    random_dag,
    chain,
    star,
)
from repro.graphs.datasets import DATASETS, DatasetSpec, load_dataset, dataset_names
from repro.graphs.io import EdgeListError, write_edge_list, read_edge_list
from repro.graphs.stats import GraphStats, compute_stats

__all__ = [
    "Graph",
    "rmat",
    "erdos_renyi",
    "small_world",
    "locality_crawl",
    "grid_graph",
    "random_dag",
    "chain",
    "star",
    "DATASETS",
    "DatasetSpec",
    "load_dataset",
    "dataset_names",
    "EdgeListError",
    "write_edge_list",
    "read_edge_list",
    "GraphStats",
    "compute_stats",
]
