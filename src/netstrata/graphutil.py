"""Small shared graph helpers (undirected)."""

from __future__ import annotations

from array import array
from collections import Counter, deque
from functools import cached_property
from typing import Iterable, NamedTuple, Sequence


def component_labels(
    nodes: Iterable[str], links: Iterable[tuple[str, str]]
) -> dict[str, int]:
    """Connected-component label per named node; labels are numbered in order
    of each component's first node in `nodes`."""
    index: dict[str, int] = {}
    for name in nodes:
        index.setdefault(name, len(index))
    graph = Graph.of(len(index), [(index[a], index[b]) for a, b in links])
    return dict(zip(index, graph.labels))


class Dfs(NamedTuple):
    """One iterative lowlink DFS (Hopcroft & Tarjan, CACM 1973) of a `Graph`,
    kept in arrays as long as the graph. Removing node `v` splits off, as one
    component each, the subtrees `order[disc[w]:end[w]]` of `splits[v]`."""

    order: Sequence[int]  # node ids in preorder
    disc: Sequence[int]  # preorder number per node
    end: Sequence[int]  # exclusive end of each node's subtree in `order`
    low: Sequence[int]  # lowest `disc` one back link from the subtree reaches
    via: Sequence[int]  # link id to the DFS parent, -1 at a root
    splits: dict[int, list[int]]  # children `w` with `low[w] >= disc[v]`: all, at a root


class _GraphFields(NamedTuple):
    links: tuple[tuple[int, int], ...]
    incident: Sequence[Sequence[int]]  # link ids per node


class Graph(_GraphFields):
    """An undirected simple graph on nodes `0..n-1`, compiled once. A subclass
    of its fields' named tuple, for the `__dict__` its caches are kept in."""

    @staticmethod
    def of(n: int, links: Iterable[tuple[int, int]]) -> "Graph":
        links = tuple(links)
        incident: list[list[int]] = [[] for _ in range(n)]
        for j, (a, b) in enumerate(links):
            incident[a].append(j)
            incident[b].append(j)
        return Graph(links, incident)

    def components(self) -> list[int]:
        """Connected-component label per node, numbered from 0 in order of
        each component's lowest node."""
        links, incident = self.links, self.incident
        labels = [-1] * len(incident)
        fresh = 0
        for root in range(len(incident)):
            if labels[root] >= 0:
                continue
            labels[root] = fresh
            stack = [root]
            while stack:
                v = stack.pop()
                for j in incident[v]:
                    a, b = links[j]
                    w = b if a == v else a
                    if labels[w] < 0:
                        labels[w] = fresh
                        stack.append(w)
            fresh += 1
        return labels

    def without(self, labels: list[int], sizes: dict[int, int], v: int) -> list[int]:
        """Fail `v` in `labels` and `sizes`, copies of the baseline's, reading
        the split from the DFS table. Returns the nodes whose label changed, `v`
        first. Each split-off subtree takes a fresh label, numbered on from the
        baseline's; the rest of `v`'s component keeps its label, and so does
        the first subtree of a DFS root, which has no rest."""
        dfs, moved = self.dfs, [v]
        old, labels[v] = labels[v], -1
        sizes[old] -= 1
        splits = dfs.splits.get(v, [])
        for w in splits[1:] if dfs.via[v] < 0 else splits:
            piece = dfs.order[dfs.disc[w] : dfs.end[w]]
            fresh = len(sizes)
            for x in piece:
                labels[x] = fresh
            sizes[fresh] = len(piece)
            sizes[old] -= len(piece)
            moved.extend(piece)
        return moved

    def split(
        self,
        labels: list[int],
        sizes: dict[int, int],
        inactive: bytearray,
        nodes: Iterable[int],
        links: Iterable[int],
    ) -> list[int]:
        """Remove `nodes`, not yet labelled -1, and `links`, not yet marked in
        `inactive`: mark the links, and update `labels` (the component per node
        over the nodes and links left, -1 per failed node) and `sizes` (the
        node count per label, keys `0..len(sizes)-1`). Returns the nodes whose
        label changed, the removed nodes first.

        Removal only splits components, so this walks mainly the smaller
        sides (Even & Shiloach, JACM 1981). The live ends of the removed
        elements are the seeds, grouped by label. The searches of a group run
        in lockstep in breadth-first order, one node per search per turn; those
        that meet merge, and they stop once at most one still runs. Each
        exhausted search is a whole piece and takes a fresh label. The running
        one keeps the old label, or the largest piece if none runs."""
        edges, incident = self.links, self.incident
        moved = list(nodes)
        ends = []  # ends of the active links that go; removed nodes are dropped below
        for j in links:
            a, b = edges[j]
            if labels[a] >= 0 and labels[b] >= 0:
                ends += (a, b)
            inactive[j] = 1
        for v in moved:
            for j in incident[v]:
                if not inactive[j]:
                    a, b = edges[j]
                    w = b if a == v else a
                    if labels[w] >= 0:
                        ends.append(w)
        for v in moved:
            sizes[labels[v]] -= 1
            labels[v] = -1
        groups: dict[int, dict[int, None]] = {}
        for w in ends:
            if labels[w] >= 0:
                groups.setdefault(labels[w], {})[w] = None
        for old, seeds in groups.items():
            if len(seeds) < 2:
                continue
            owner = {s: i for i, s in enumerate(seeds)}  # node -> the search that found it
            queues = [deque([s]) for s in seeds]  # per search: nodes still to expand
            into = list(range(len(seeds)))  # per search: the search it merged into
            running, done = into[:], []
            while len(running) > 1:
                for i in running:
                    if into[i] != i:
                        continue
                    queue = queues[i]
                    v = queue.popleft()
                    for j in incident[v]:
                        if inactive[j]:
                            continue
                        a, b = edges[j]
                        w = b if a == v else a
                        if labels[w] < 0:
                            continue
                        o = owner.get(w)
                        if o is None:
                            owner[w] = i
                            queue.append(w)
                            continue
                        while into[o] != o:
                            o = into[o]
                        if o != i:  # the searches meet: `i` takes over `o`
                            into[o] = i
                            queue += queues[o]
                    if not queue:
                        done.append(i)
                running = [i for i in running if into[i] == i and queues[i]]
            pieces: dict[int, list[int]] = {}
            for w, o in owner.items():
                while into[o] != o:
                    o = into[o]
                pieces.setdefault(o, []).append(w)
            keep = running[0] if running else max(done, key=lambda i: len(pieces[i]))
            for i in done:
                if i != keep:
                    fresh, piece = len(sizes), pieces[i]
                    for w in piece:
                        labels[w] = fresh
                    sizes[fresh] = len(piece)
                    sizes[old] -= len(piece)
                    moved += piece
        return moved

    @cached_property
    def labels(self) -> list[int]:
        """Component labels with nothing failed, built on first use."""
        return self.components()

    @cached_property
    def sizes(self) -> dict[int, int]:
        """Node count per component label."""
        return Counter(self.labels)

    @cached_property
    def dfs(self) -> Dfs:
        """The lowlink DFS table, built on first use."""
        links, incident = self.links, self.incident
        n = len(incident)
        order: list[int] = []
        disc, end, low, via = [-1] * n, [0] * n, [0] * n, [-1] * n
        splits: dict[int, list[int]] = {}
        for root in range(n):
            if disc[root] >= 0:
                continue
            disc[root] = low[root] = len(order)
            order.append(root)
            # (node, link id it was reached by, its incident links still to walk)
            stack = [(root, -1, iter(incident[root]))]
            while stack:
                v, up, todo = stack[-1]
                for j in todo:
                    if j == up:
                        continue
                    a, b = links[j]
                    w = b if a == v else a
                    if disc[w] < 0:
                        disc[w] = low[w] = len(order)
                        order.append(w)
                        via[w] = j
                        stack.append((w, j, iter(incident[w])))
                        break
                    if disc[w] < low[v]:
                        low[v] = disc[w]
                else:
                    stack.pop()
                    end[v] = len(order)
                    if stack:
                        parent = stack[-1][0]
                        if low[v] < low[parent]:
                            low[parent] = low[v]
                        if low[v] >= disc[parent]:
                            splits.setdefault(parent, []).append(v)
        return Dfs(*(array("l", c) for c in (order, disc, end, low, via)), splits)


def cut_points(graph: Graph) -> tuple[set[int], list[int]]:
    """Articulation points (node ids): roots with two split-off children, other
    nodes with one. Bridges (link ids): tree links that no back link spans."""
    dfs = graph.dfs
    cut = {v for v, ws in dfs.splits.items() if len(ws) > (dfs.via[v] < 0)}
    bridges = [j for w, j in enumerate(dfs.via) if j >= 0 and dfs.low[w] == dfs.disc[w]]
    return cut, bridges
