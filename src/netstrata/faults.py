"""Fault-injection cascades.

Failures propagate strictly upward: a component above the bottom layer fails
once every one of its supporters is gone (redundancy semantics), and a link
goes inactive once no pair of surviving supporters of its endpoints remains
connected in the layer below. Propagation iterates to a fixed point.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterable, Mapping

from .graphutil import Graph
from .model import (
    ComponentId,
    LayerRole,
    Link,
    MultilayerNetwork,
    canonical_link,
    unsupported_links,
)

LinkRef = tuple[int, Link]  # (layer index, canonical name pair)


@dataclass(frozen=True)
class FaultScenario:
    failed_nodes: frozenset[ComponentId] = frozenset()
    failed_links: frozenset[LinkRef] = frozenset()
    label: str = ""

    @staticmethod
    def of(
        nodes: Iterable[ComponentId] = (),
        links: Iterable[tuple[int, tuple[str, str]]] = (),
        label: str = "",
    ) -> "FaultScenario":
        return FaultScenario(
            frozenset(nodes),
            frozenset((idx, canonical_link(*pair)) for idx, pair in links),
            label,
        )


@dataclass(frozen=True)
class CascadeRound:
    failed_nodes: frozenset[ComponentId]
    inactive_links: frozenset[LinkRef]


@dataclass(frozen=True)
class CascadeResult:
    scenario: FaultScenario
    rounds: tuple[CascadeRound, ...]
    final_failed_nodes: frozenset[ComponentId]
    final_inactive_links: frozenset[LinkRef]
    per_layer_survival: Mapping[int, float]
    per_layer_largest_component_fraction: Mapping[int, float]
    functional_alive: bool

    @property
    def total_failed(self) -> int:
        return len(self.final_failed_nodes)


def _labels_without(graph: Graph, v: int) -> tuple[list[int], list[int]]:
    """What `graph.components` gives when `v` is the layer's only failed node
    and only links incident to it are inactive, read from the baseline labels
    and the DFS table; and the nodes whose label that changes, `v` first."""
    dfs, labels, moved = graph.dfs, list(graph.labels), [v]
    labels[v] = -1
    for fresh, w in enumerate(dfs.splits.get(v, ()), len(graph.sizes)):
        piece = dfs.order[dfs.disc[w] : dfs.end[w]]
        for x in piece:
            labels[x] = fresh
        moved.extend(piece)
    return labels, moved


def run_cascade(network: MultilayerNetwork, scenario: FaultScenario) -> CascadeResult:
    """Propagate an injected fault set upward to its fixed point.

    Each round re-evaluates both rules against the state at the start of the
    round (Jacobi rounds); bottom-layer elements fail only by injection. The
    recorded rounds exclude the injection itself. A scenario naming a node or
    link that the network lacks raises `KeyError`.

    That state only grows, so a rule whose inputs did not change in the
    previous round cannot newly fire: each round checks only the dependents
    of newly failed nodes, the links incident to them, and every link of a
    layer whose layer below changed. The injection is the change before
    round 1, which also inactivates the links unsupported with nothing
    failed, since removing elements never connects anything. While a layer's
    whole change is one failed node and links incident to it, its labels come
    from the DFS table, and the layer above checks only the links incident to
    the dependents of the nodes whose label changed.
    """
    substrate, layers = network.substrate, network.layers
    graphs = [layer.graph for layer in layers]
    depth = len(layers)
    failed = [bytearray(len(layer.components)) for layer in layers]
    inactive = [bytearray(len(layer.links)) for layer in layers]
    new_nodes: list[set[int]] = [set() for _ in layers]
    changed = [False] * depth
    # Per layer: -1 while unchanged; its one failed node while that node and
    # links incident to it are the whole change; None after any other change.
    lone: list[int | None] = [-1] * depth
    for node in sorted(scenario.failed_nodes):
        if not 1 <= node.layer_index <= depth:
            raise KeyError(f"no layer {node.layer_index} for node {node}")
        k = node.layer_index - 1
        i = layers[k].node_ids.get(node.local_name)
        if i is None:
            raise KeyError(f"unknown component {node}")
        failed[k][i] = 1
        new_nodes[k].add(i)
        changed[k] = True
        lone[k] = i if lone[k] == -1 else None
    for idx, link in sorted(scenario.failed_links):
        if not 1 <= idx <= depth:
            raise KeyError(f"no layer {idx} for link {link}")
        j = layers[idx - 1].link_ids.get(link)
        if j is None:
            raise KeyError(f"unknown link {link} on layer {idx}")
        inactive[idx - 1][j] = 1
        changed[idx - 1] = True
        lone[idx - 1] = None
    rounds: list[CascadeRound] = []

    while True:
        round_nodes: list[set[int]] = [set() for _ in layers]
        for k in range(1, depth):
            up_failed, low_failed = failed[k], failed[k - 1]
            supporters = substrate[k].supporters
            for i in new_nodes[k - 1]:
                for d in substrate[k - 1].dependents[i]:
                    if not up_failed[d] and all(low_failed[s] for s in supporters[d]):
                        round_nodes[k].add(d)

        round_links: list[set[int]] = []
        for k, (sub, graph) in enumerate(zip(substrate, graphs)):
            dead = inactive[k]
            hit = {j for i in new_nodes[k] for j in graph.incident[i] if not dead[j]}
            if k and not rounds:
                hit.update(j for j in sub.unsupported if not dead[j])
            if k and changed[k - 1]:
                if lone[k - 1] is None:
                    below = graphs[k - 1].components(failed[k - 1], inactive[k - 1])
                    hit.update(unsupported_links(graph, sub.supporters, below, dead))
                else:
                    below, moved = _labels_without(graphs[k - 1], lone[k - 1])
                    deps = substrate[k - 1].dependents
                    ids = {j for x in moved for d in deps[x] for j in graph.incident[d]}
                    hit.update(unsupported_links(graph, sub.supporters, below, dead, ids))
            round_links.append(hit)

        if not any(round_nodes) and not any(round_links):
            break
        for k, (down, graph) in enumerate(zip(failed, graphs)):
            for i in round_nodes[k]:
                down[i] = 1
                lone[k] = i if lone[k] == -1 else None
            changed[k] = bool(round_nodes[k])
            for j in round_links[k]:
                inactive[k][j] = 1
                a, b = graph.links[j]
                # A link with a failed endpoint is already out of `components`.
                if not (down[a] or down[b]):
                    changed[k] = True
                    lone[k] = None
        new_nodes = round_nodes
        rounds.append(
            CascadeRound(
                frozenset(
                    ComponentId(l.index, l.components[i].name)
                    for l, ids in zip(layers, round_nodes)
                    for i in ids
                ),
                frozenset(
                    (l.index, l.links[j]) for l, ids in zip(layers, round_links) for j in ids
                ),
            )
        )

    survival: dict[int, float] = {}
    largest_fraction: dict[int, float] = {}
    functional_alive = not any(l.role is LayerRole.FUNCTIONAL for l in layers)
    for k, (layer, graph) in enumerate(zip(layers, graphs)):
        total = len(layer.components)
        survivors = total - failed[k].count(1)
        v = lone[k]
        if v == -1:
            largest = max(graph.sizes.values())
        elif v is not None:
            dfs, sizes = graph.dfs, Counter(graph.sizes)
            pieces = [dfs.end[w] - dfs.disc[w] for w in dfs.splits.get(v, ())]
            sizes[graph.labels[v]] -= 1 + sum(pieces)
            largest = max([*sizes.values(), *pieces])
        else:
            labels = graph.components(failed[k], inactive[k])
            sizes = Counter(label for label in labels if label >= 0)
            largest = max(sizes.values(), default=0)
        survival[layer.index] = survivors / total
        largest_fraction[layer.index] = largest / survivors if survivors else 0.0
        if layer.role is LayerRole.FUNCTIONAL and survivors:
            functional_alive = True

    return CascadeResult(
        scenario=scenario,
        rounds=tuple(rounds),
        final_failed_nodes=frozenset(scenario.failed_nodes).union(
            *(r.failed_nodes for r in rounds)
        ),
        final_inactive_links=frozenset(scenario.failed_links).union(
            *(r.inactive_links for r in rounds)
        ),
        per_layer_survival=survival,
        per_layer_largest_component_fraction=largest_fraction,
        functional_alive=functional_alive,
    )


@dataclass(frozen=True)
class ImpactEntry:
    node: ComponentId
    result: CascadeResult


def exhaustive_single_faults(network: MultilayerNetwork) -> list[ImpactEntry]:
    """One cascade per single bottom-layer node failure, ranked by severity:
    functional-layer kills first, then total failed nodes, ties by name."""
    entries = [
        ImpactEntry(
            ComponentId(1, comp.name),
            run_cascade(
                network,
                FaultScenario.of([ComponentId(1, comp.name)], label=f"fail {comp.name}"),
            ),
        )
        for comp in network.layer(1).components
    ]
    return sorted(
        entries,
        key=lambda e: (
            e.result.functional_alive,
            -e.result.total_failed,
            e.node.local_name,
        ),
    )
