"""Static per-layer structural metrics aimed at dependability analysis:
density, degrees, component structure, diameter, and single points of
failure (articulation points and bridges)."""

from __future__ import annotations

from typing import NamedTuple, Sequence

from .graphutil import cut_points
from .model import Layer, Link

# BFS sources per chunk; a chunk holds their trees as chunk * n int32 predecessors.
_DIAMETER_CHUNK = 256
# Largest predicted fringe search, in BFS visits (searches times the nodes plus
# twice the links of the component), run in Python. 10**6 visits take about
# 55 ms, an eighth of importing numpy and scipy's csgraph (about 0.45 s).
_PYTHON_BFS_VISITS = 1_000_000


class LayerMetrics(NamedTuple):
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


def _bfs(adj: Sequence[Sequence[int]], s: int) -> tuple[list[int], list[int]]:
    """The nodes reached from `s` in BFS order, and each node's predecessor in
    the BFS tree (-1 if not reached)."""
    pred = [-1] * len(adj)
    pred[s] = s
    order = [s]
    for v in order:  # the loop also walks the nodes appended while it runs
        for w in adj[v]:
            if pred[w] < 0:
                pred[w] = v
                order.append(w)
    return order, pred


def _farthest_path(adj: Sequence[Sequence[int]], s: int) -> list[int]:
    """A shortest path from a node farthest from `s` back to `s`."""
    order, pred = _bfs(adj, s)
    path = [order[-1]]
    while path[-1] != s:
        path.append(pred[path[-1]])
    return path


def _diameter(n: int, pairs: Sequence[tuple[int, int]], start: int) -> int:
    """Largest finite BFS distance in the component of `start`, in the graph
    `0..n-1`, by iFUB (Crescenzi et al., TCS 2013). Two double sweeps give a
    lower bound and a central node `u`; then nodes are searched from the
    fringe of `u`'s BFS tree inwards, until the bound is at least twice the
    depth of every node left, since no two of those can be farther apart.
    The sweeps and `u`'s tree are Python BFS. So is the fringe search when
    its predicted visits are at most `_PYTHON_BFS_VISITS`; a larger one pays
    for importing scipy and runs in `_compiled_fringe_search`."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)

    best, u = 0, start
    for _ in range(2):
        path = _farthest_path(adj, _farthest_path(adj, u)[0])
        best = max(best, len(path) - 1)
        u = path[len(path) // 2]

    order, pred = _bfs(adj, u)
    depth = [0] * n
    for v in order[1:]:
        depth[v] = depth[pred[v]] + 1
    # Deepest first. Any two nodes at most best / 2 deep are at most `best`
    # apart, so only deeper ones need a search: at most len(fringe) searches,
    # each visiting every node of the component and both ends of its links.
    fringe = [v for v in reversed(order) if 2 * depth[v] > best]
    visits = len(order) + sum(len(adj[v]) for v in order)
    if len(fringe) * visits > _PYTHON_BFS_VISITS:
        return _compiled_fringe_search(n, pairs, fringe, depth, best)
    for v in fringe:
        # Every node not yet searched is at most this deep, so any two of
        # them are at most twice this far apart.
        if best >= 2 * depth[v]:
            break
        best = max(best, len(_farthest_path(adj, v)) - 1)
    return best


def _compiled_fringe_search(
    n: int,
    pairs: Sequence[tuple[int, int]],
    fringe: Sequence[int],
    depth: Sequence[int],
    best: int,
) -> int:
    """The fringe search of `_diameter` in scipy's compiled BFS. Each search
    is one BFS tree; the last node of its BFS order is a farthest one, and its
    depth is found by following the tree's predecessors back to the source,
    for a whole chunk of sources at once."""
    # Only large layers need scipy; importing it here keeps it out of the rest.
    import numpy as np
    from scipy.sparse import csr_matrix
    from scipy.sparse.csgraph import breadth_first_order

    rows = [a for a, _ in pairs] + [b for _, b in pairs]
    cols = [b for _, b in pairs] + [a for a, _ in pairs]
    mat = csr_matrix((np.ones(len(rows)), (rows, cols)), shape=(n, n))
    for i in range(0, len(fringe), _DIAMETER_CHUNK):
        if best >= 2 * depth[fringe[i]]:
            break
        src = np.array(fringe[i : i + _DIAMETER_CHUNK])
        preds = np.empty((len(src), n), dtype=np.int32)
        cur = np.empty_like(src)
        for row, s in enumerate(src):
            # The matrix is symmetric, so the directed BFS is the undirected one.
            far, preds[row] = breadth_first_order(mat, s, return_predecessors=True)
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
