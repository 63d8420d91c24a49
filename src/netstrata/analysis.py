"""Static per-layer structural metrics aimed at dependability analysis:
density, degrees, component structure, diameter, and single points of
failure (articulation points and bridges)."""

from __future__ import annotations

from array import array
from itertools import islice
from typing import NamedTuple, Sequence

from .graphutil import cut_points
from .model import Layer, Link

# BFS sources per chunk; a chunk holds their trees as chunk * n int32 predecessors.
_DIAMETER_CHUNK = 256
# Work the fringe search may spend in Python before it hands the rest of the
# fringe to scipy: BFS visits (the component's nodes plus twice its links per
# search), plus one per node and per 64-bit word of each centre's `_far` table,
# so the tables hold at most 8 MB. A Python BFS takes 35-80 ns a visit (desk
# layers, sparse random layers of 20,000 nodes), against about 0.45 s for
# importing numpy and scipy's csgraph.
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


def _bfs(adj: Sequence[Sequence[int]], s: int) -> tuple[list[int], list[int], list[int]]:
    """The nodes reached from `s` in BFS order, each node's predecessor in the
    BFS tree, and each node's distance from `s` (both -1 if not reached)."""
    pred = [-1] * len(adj)
    dist = pred[:]
    pred[s], dist[s] = s, 0
    order = [s]
    for v in order:  # the loop also walks the nodes appended while it runs
        d = dist[v] + 1
        for w in adj[v]:
            if dist[w] < 0:
                pred[w], dist[w] = v, d
                order.append(w)
    return order, pred, dist


def _far(order: Sequence[int], dist: Sequence[int]) -> list[int]:
    """`far[t]` for each t below the eccentricity of the source of the BFS
    `order`: the nodes farther than t from it, as an int bitset of node ids."""
    bits = bytearray((len(dist) + 7) // 8)
    t = dist[order[-1]]
    far = [0] * t
    for v in reversed(order):
        if dist[v] < t:  # `bits` holds every node farther than dist[v]
            t = dist[v]
            far[t] = int.from_bytes(bits, "little")
        bits[v >> 3] |= 1 << (v & 7)
    return far


def _diameter(n: int, pairs: Sequence[tuple[int, int]], start: int) -> int:
    """Largest finite BFS distance in the component of `start`, in the graph
    `0..n-1`, by iFUB (Crescenzi et al., TCS 2013). Two double sweeps give a
    lower bound `best` and a central node `u`; then nodes are searched from
    the fringe of `u`'s BFS tree inwards, until `best` is at least twice the
    depth of every node left, since no two of those can be farther apart.

    Every BFS made is kept as a centre c, and its eccentricity is folded into
    `best`. A fringe node v is searched only if some node y not yet searched
    has d(v, c) + d(c, y) > `best` for every centre c; otherwise no node is
    farther than `best` from v, and v is skipped. The test is one AND of `_far`
    tables per centre, over the centres whose tables fit the budget. The
    search runs in Python until its next step would spend more than
    `_PYTHON_BFS_VISITS`; then the rest of the fringe goes to
    `_compiled_fringe_search`, which imports scipy."""
    best, fringe, depth = _python_search(n, pairs, start)
    # The Python search's adjacency lists, centres and tables are freed by now.
    return _compiled_fringe_search(n, pairs, fringe, depth, best) if fringe else best


def _python_search(
    n: int, pairs: Sequence[tuple[int, int]], start: int
) -> tuple[int, Sequence[int], Sequence[int]]:
    """`_diameter`'s search in Python: the bound it reached, the fringe left
    when its budget ran out (empty if it finished), and each node's depth in
    `u`'s BFS tree."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for a, b in pairs:
        adj[a].append(b)
        adj[b].append(a)
    # Per source: its BFS order and distances, as two C int arrays (8 bytes a node).
    runs: dict[int, tuple[Sequence[int], Sequence[int]]] = {}

    def bfs(s: int) -> tuple[list[int], list[int], list[int]]:
        order, pred, dist = _bfs(adj, s)
        runs[s] = array("i", order), array("i", dist)
        return order, pred, dist

    u = start
    for _ in range(2):
        order, pred, _ = bfs(bfs(u)[0][-1])
        path = [order[-1]]
        while path[-1] != order[0]:
            path.append(pred[path[-1]])
        u = path[len(path) // 2]
    if u not in runs:
        bfs(u)
    order, depth = runs[u]
    # Each search's eccentricity, u's included, is a lower bound; every
    # threshold read below needs the centre's own eccentricity in `best`.
    best = max(dist[o[-1]] for o, dist in runs.values())
    # Deepest first. Any two nodes at most best / 2 deep are at most `best`
    # apart, so only deeper ones need a search.
    fringe = [v for v in reversed(order) if 2 * depth[v] > best]
    visits = len(order) + sum(len(adj[v]) for v in order)  # per search
    words = (n + 63) // 64  # per threshold of a `_far` table
    spent, tables = 0, []
    for i, v in enumerate(fringe):
        # Every node not yet searched or skipped is at most this deep, so any
        # two of them are at most twice this far apart.
        if best >= 2 * depth[v]:
            break
        if v in runs:
            continue  # searched: its eccentricity is in `best`
        # A centre's table is made when a test first needs it, while the
        # tables fit the budget: each costs a visit per node and per 64-bit
        # word it holds.
        for o, dist in islice(runs.values(), len(tables), None):
            cost = len(o) + dist[o[-1]] * words
            if spent + cost > _PYTHON_BFS_VISITS:
                break
            spent += cost
            tables.append((dist, _far(o, dist)))
        # The nodes other than v that are farther than `best` from v through
        # every tabled centre. A centre is not farther than t >= 0 from
        # itself, so no tabled centre is left in `rest`.
        rest = ~(1 << v)
        for dist, far in tables:
            t = best - dist[v]
            rest = rest & far[t] if t < len(far) else 0
            if not rest:
                break
        else:
            spent += visits
            if spent > _PYTHON_BFS_VISITS:
                return best, fringe[i:], depth
            o, _, dist = bfs(v)
            best = max(best, dist[o[-1]])
    return best, (), depth


def _compiled_fringe_search(
    n: int,
    pairs: Sequence[tuple[int, int]],
    fringe: Sequence[int],
    depth: Sequence[int],
    best: int,
) -> int:
    """The rest of `_diameter`'s fringe search, each node searched, in scipy's
    compiled BFS. Each search is one BFS tree; the last node of its BFS order
    is a farthest one, and its depth is found by following the tree's
    predecessors back to the source, for a whole chunk of sources at once."""
    # Only layers the Python search cannot finish need scipy; importing it here
    # keeps it out of the rest. A failed import names its package in one line:
    # numpy words a failed load of its extensions over many, with no name.
    package = "numpy"
    try:
        import numpy as np
        package = "scipy"
        from scipy.sparse import csr_matrix
        from scipy.sparse.csgraph import breadth_first_order
    except ImportError as exc:
        message = f"cannot import {package}, which the diameter of a layer this large needs"
        raise ImportError(message) from exc

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
    smallest name counts. A diameter search that needs numpy or scipy and
    cannot import it raises `ImportError`, in one line that names the package."""
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
