"""Small shared graph helpers (undirected)."""

from __future__ import annotations

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
