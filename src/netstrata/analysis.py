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


def _diameter(n: int, pairs: Sequence[tuple[int, int]], start: int) -> int:
    """Largest finite BFS distance in the component of `start`, in the graph
    `0..n-1`, by iFUB (Crescenzi et al., TCS 2013). Two double sweeps give a
    lower bound and a central node `u`; then nodes are searched from the
    fringe of `u`'s BFS tree inwards, until the bound is at least twice the
    depth of every node left, since no two of those can be farther apart.
    Each search is one BFS tree in compiled code; the last node of its BFS
    order is a farthest one, and its depth is found by following the tree's
    predecessors back to the source, for a whole chunk of sources at once."""
    # Only `metrics` needs scipy; importing it here keeps it out of other commands.
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    rows = [a for a, _ in pairs] + [b for _, b in pairs]
    cols = [b for _, b in pairs] + [a for a, _ in pairs]
    mat = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))

    def tree(s: int):
        # The matrix is symmetric, so the directed BFS is the undirected one.
        return breadth_first_order(mat, s, return_predecessors=True)

    def farthest_path(s: int) -> list[int]:
        """A shortest path from a node farthest from `s` back to `s`."""
        order, pred = tree(s)
        path = [int(order[-1])]
        while path[-1] != s:
            path.append(int(pred[path[-1]]))
        return path

    best, u = 0, start
    for _ in range(2):
        path = farthest_path(farthest_path(u)[0])
        best = max(best, len(path) - 1)
        u = path[len(path) // 2]

    order, pred = tree(u)
    depth = [0] * n
    pred_of = pred.tolist()
    for v in order[1:].tolist():
        depth[v] = depth[pred_of[v]] + 1
    fringe = order[:0:-1]  # deepest first, `u` left out
    for i in range(0, len(fringe), _DIAMETER_CHUNK):
        # Every node not yet searched is at most this deep, so any two of
        # them are at most twice this far apart.
        if best >= 2 * depth[fringe[i]]:
            break
        src = fringe[i : i + _DIAMETER_CHUNK]
        preds = np.empty((len(src), n), dtype=np.int32)
        cur = np.empty_like(src)
        for row, s in enumerate(src):
            far, preds[row] = tree(s)
            cur[row] = far[-1]
        rows_ix = np.arange(len(src))
        ecc = 0
        while (cur != src).any():
            cur = np.where(cur != src, preds[rows_ix, cur], cur)
            ecc += 1
        best = max(best, ecc)
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
    size = sizes.get(largest, 0)
    cut, bridges = cut_points(graph)
    return LayerMetrics(
        node_count=n,
        link_count=m,
        density=(2.0 * m / (n * (n - 1))) if n >= 2 else 0.0,
        degree_min=min(degrees, default=0),
        degree_mean=(2.0 * m / n) if n else 0.0,
        degree_max=max(degrees, default=0),
        connected_components=len(sizes),
        largest_component_fraction=(size / n) if n else 0.0,
        diameter_of_largest_component=(
            _diameter(n, graph.links, graph.labels.index(largest)) if size > 1 else 0
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
