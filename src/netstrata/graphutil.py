"""Small shared graph helpers (undirected)."""

from __future__ import annotations

from array import array
from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


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


@dataclass(frozen=True)
class Dfs:
    """One iterative lowlink DFS (Hopcroft & Tarjan, CACM 1973) of a `Graph`,
    kept in arrays as long as the graph. Removing node `v` splits off, as one
    component each, the subtrees `order[disc[w]:end[w]]` of `splits[v]`."""

    order: Sequence[int]  # node ids in preorder
    disc: Sequence[int]  # preorder number per node
    end: Sequence[int]  # exclusive end of each node's subtree in `order`
    low: Sequence[int]  # lowest `disc` one back link from the subtree reaches
    via: Sequence[int]  # link id to the DFS parent, -1 at a root
    splits: dict[int, list[int]]  # children `w` with `low[w] >= disc[v]`: all, at a root


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on nodes `0..n-1`, compiled once."""

    links: tuple[tuple[int, int], ...]
    incident: Sequence[Sequence[int]]  # link ids per node

    @staticmethod
    def of(n: int, links: Iterable[tuple[int, int]]) -> "Graph":
        links = tuple(links)
        incident: list[list[int]] = [[] for _ in range(n)]
        for j, (a, b) in enumerate(links):
            incident[a].append(j)
            incident[b].append(j)
        return Graph(links, incident)

    def components(self, failed: Sequence[int] = b"", inactive: Sequence[int] = b"") -> list[int]:
        """Connected-component label per node, over the nodes not marked in
        `failed` and the links not marked in `inactive`; failed nodes get -1.
        Labels are numbered from 0 in order of each component's lowest node."""
        links, incident = self.links, self.incident
        labels = [-1] * len(incident)
        seen = bytearray(failed or len(incident))
        fresh = 0
        for root in range(len(incident)):
            if seen[root]:
                continue
            seen[root] = 1
            labels[root] = fresh
            stack = [root]
            while stack:
                v = stack.pop()
                for j in incident[v]:
                    if inactive and inactive[j]:
                        continue
                    a, b = links[j]
                    w = b if a == v else a
                    if not seen[w]:
                        seen[w] = 1
                        labels[w] = fresh
                        stack.append(w)
            fresh += 1
        return labels

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
