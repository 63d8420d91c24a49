"""Small shared graph helpers (undirected)."""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import cached_property
from typing import Iterable, Sequence


def int_component_labels(
    n: int,
    links: Iterable[tuple[int, int]],
    dead: Sequence[int] = b"",
) -> list[int]:
    """Connected-component label per node `0..n-1`, via union-find.

    Labels are numbered from 0 in order of each component's lowest node.
    Nodes marked in `dead` get label -1 and must not appear in `links`.
    """
    parent = list(range(n))
    for a, b in links:
        while parent[a] != a:
            parent[a] = a = parent[parent[a]]
        while parent[b] != b:
            parent[b] = b = parent[parent[b]]
        if a != b:
            parent[a] = b

    labels = [-1] * n
    root_label: dict[int, int] = {}
    for i in range(n):
        if dead and dead[i]:
            continue
        root = i
        while parent[root] != root:
            root = parent[root]
        label = root_label.get(root)
        if label is None:
            label = root_label[root] = len(root_label)
        labels[i] = label
    return labels


def component_labels(
    nodes: Iterable[str], links: Iterable[tuple[str, str]]
) -> dict[str, int]:
    """Connected-component label per named node; labels are numbered in order
    of each component's first node in `nodes`."""
    index: dict[str, int] = {}
    for name in nodes:
        index.setdefault(name, len(index))
    labels = int_component_labels(
        len(index), [(index[a], index[b]) for a, b in links]
    )
    return dict(zip(index, labels))


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph on nodes `0..n-1`, compiled once."""

    links: tuple[tuple[int, int], ...]
    incident: Sequence[Sequence[int]]  # link ids per node
    labels: Sequence[int]  # from `int_component_labels`

    @staticmethod
    def of(n: int, links: Iterable[tuple[int, int]]) -> "Graph":
        links = tuple(links)
        incident: list[list[int]] = [[] for _ in range(n)]
        for j, (a, b) in enumerate(links):
            incident[a].append(j)
            incident[b].append(j)
        return Graph(links, incident, int_component_labels(n, links))

    @cached_property
    def sizes(self) -> dict[int, int]:
        """Node count per component label."""
        return Counter(self.labels)


def cut_points(graph: Graph) -> tuple[set[int], list[int]]:
    """Articulation points (node ids) and bridges (link ids) of `graph`, by
    one iterative lowlink DFS (Tarjan), so deep graphs need no recursion."""
    links, incident = graph.links, graph.incident
    n = len(incident)
    disc = [-1] * n
    low = [0] * n
    cut: set[int] = set()
    bridges: list[int] = []
    clock = 0
    for root in range(n):
        if disc[root] >= 0:
            continue
        disc[root] = low[root] = clock
        clock += 1
        root_children = 0
        # (node, link id it was reached by, its incident links still to walk)
        stack = [(root, -1, iter(incident[root]))]
        while stack:
            v, via, todo = stack[-1]
            for j in todo:
                if j == via:
                    continue
                a, b = links[j]
                w = b if a == v else a
                if disc[w] < 0:
                    disc[w] = low[w] = clock
                    clock += 1
                    stack.append((w, j, iter(incident[w])))
                    break
                low[v] = min(low[v], disc[w])
            else:
                stack.pop()
                if via < 0:
                    continue
                parent = stack[-1][0]
                low[parent] = min(low[parent], low[v])
                if low[v] > disc[parent]:
                    bridges.append(via)
                if parent == root:
                    root_children += 1
                elif low[v] >= disc[parent]:
                    cut.add(parent)
        if root_children > 1:
            cut.add(root)
    return cut, bridges
