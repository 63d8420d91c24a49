"""Static per-layer structural metrics aimed at dependability analysis:
density, degrees, component structure, diameter, and single points of
failure (articulation points and bridges)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, replace
from typing import Mapping, Sequence

from . import multiplex
from .graphutil import cut_points
from .model import Layer, Link, MultilayerNetwork

# BFS sources per chunk; a chunk holds their trees as chunk * n int32 predecessors.
_DIAMETER_CHUNK = 256


@dataclass(frozen=True)
class LayerMetrics:
    node_count: int
    link_count: int
    density: float
    degree_min: int
    degree_mean: float
    degree_max: int
    connected_components: int
    largest_component_fraction: float
    diameter_of_largest_component: int
    articulation_points: tuple[str, ...]
    bridges: tuple[Link, ...]


def _diameter(n: int, pairs: Sequence[tuple[int, int]], sources: list[int]) -> int:
    """Largest finite BFS distance from `sources` in the graph `0..n-1`.
    Each source gets one BFS tree in compiled code; the last node of its BFS
    order is a farthest one, and its depth is found by following the tree's
    predecessors back to the source, for a whole chunk of sources at once."""
    # Only `metrics` needs scipy; importing it here keeps it out of other commands.
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    rows = [a for a, _ in pairs] + [b for _, b in pairs]
    cols = [b for _, b in pairs] + [a for a, _ in pairs]
    mat = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    best = 0
    for i in range(0, len(sources), _DIAMETER_CHUNK):
        src = np.array(sources[i : i + _DIAMETER_CHUNK], dtype=np.int32)
        pred = np.empty((len(src), n), dtype=np.int32)
        cur = np.empty_like(src)
        for row, s in enumerate(src):
            # The matrix is symmetric, so the directed BFS is the undirected one.
            order, pred[row] = breadth_first_order(mat, s, return_predecessors=True)
            cur[row] = order[-1]
        rows_ix = np.arange(len(src))
        depth = 0
        while (cur != src).any():
            cur = np.where(cur != src, pred[rows_ix, cur], cur)
            depth += 1
        best = max(best, depth)
    return best


def layer_metrics(layer: Layer) -> LayerMetrics:
    """Metrics of a layer as an undirected simple graph, read from
    `layer.graph`. When two components tie for largest, the one holding the
    smallest name counts."""
    graph = layer.graph
    n, m = len(graph.incident), len(graph.links)
    degrees = list(map(len, graph.incident))
    sizes = graph.sizes
    # Labels follow each component's lowest id, i.e. its smallest name.
    largest = min(sizes, key=lambda c: (-sizes[c], c), default=-1)
    members = [i for i, label in enumerate(graph.labels) if label == largest]
    cut, bridges = cut_points(graph)
    return LayerMetrics(
        node_count=n,
        link_count=m,
        density=(2.0 * m / (n * (n - 1))) if n >= 2 else 0.0,
        degree_min=min(degrees, default=0),
        degree_mean=(2.0 * m / n) if n else 0.0,
        degree_max=max(degrees, default=0),
        connected_components=len(sizes),
        largest_component_fraction=(len(members) / n) if n else 0.0,
        diameter_of_largest_component=(
            _diameter(n, graph.links, members) if len(members) > 1 else 0
        ),
        articulation_points=tuple(layer.components[i].name for i in sorted(cut)),
        bridges=tuple(layer.links[j] for j in sorted(bridges)),
    )


def sublayer_metrics(layer: Layer) -> dict[str, LayerMetrics]:
    """Metrics per protocol sub-layer, computed over the full layer vertex
    set so protocol reachability gaps show up as extra components."""
    return {
        sub.protocol: layer_metrics(replace(layer, links=sub.links))
        for sub in multiplex.decompose_layer(layer)
    }


@dataclass(frozen=True)
class InterlayerDegreeStats:
    """Projection-degree histograms of one cross-layer, keyed degree -> node
    count; the weighted sum of either side equals the projection count."""

    upper_index: int
    upper: Mapping[int, int]
    lower: Mapping[int, int]


def interlayer_degree_stats(
    network: MultilayerNetwork, upper_index: int
) -> InterlayerDegreeStats:
    network.cross_layer(upper_index)  # KeyError unless 2 <= upper_index <= depth
    supporters = network.substrate[upper_index - 1].supporters
    dependents = network.substrate[upper_index - 2].dependents
    upper_deg = Counter(len(ids) for ids in supporters if ids)
    lower_deg = Counter(len(ids) for ids in dependents if ids)
    return InterlayerDegreeStats(upper_index, dict(upper_deg), dict(lower_deg))
