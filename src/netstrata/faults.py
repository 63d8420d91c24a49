"""Fault-injection cascades.

Failures propagate strictly upward: a component above the bottom layer fails
once every one of its supporters is gone (redundancy semantics), and a link
goes inactive once no pair of surviving supporters of its endpoints remains
connected in the layer below. Propagation iterates to a fixed point.
"""

from __future__ import annotations

from typing import Iterable, Mapping, NamedTuple, Sequence

from .model import (
    ComponentId,
    LayerRole,
    Link,
    MultilayerNetwork,
    canonical_link,
    unsupported_links,
)

LinkRef = tuple[int, Link]  # (layer index, canonical name pair)


class FaultScenario(NamedTuple):
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


class CascadeRound(NamedTuple):
    failed_nodes: frozenset[ComponentId]
    inactive_links: frozenset[LinkRef]


class CascadeResult(NamedTuple):
    kind = "cascade"  # the kind `model_io.report_payload` gives it; not a field
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


def run_cascade(network: MultilayerNetwork, scenario: FaultScenario) -> CascadeResult:
    """Propagate an injected fault set upward to its fixed point.

    Each round re-evaluates both rules against the state at the start of the
    round (Jacobi rounds); bottom-layer elements fail only by injection. The
    recorded rounds exclude the injection itself. A scenario naming a node or
    link that the network lacks raises `KeyError`.

    That state only grows, so a rule whose inputs did not change in the
    previous round cannot newly fire: each round checks only the dependents
    of newly failed nodes, the links incident to them, and the links incident
    to the dependents of the nodes whose component label changed in the layer
    below. The injection is the change before round 1, which also inactivates
    the links unsupported with nothing failed, since removing elements never
    connects anything. A node has failed when its label is -1. A layer reads
    its baseline labels and component sizes until its first change, copies
    them once then, and splits the copy by `Graph.split` after each change; a
    first change of exactly one failed node is read from the DFS table
    instead (`Graph.without`).
    """
    substrate, layers = network.substrate, network.layers
    graphs = [layer.graph for layer in layers]
    depth = len(layers)
    inactive = [bytearray(len(layer.links)) for layer in layers]
    # Per layer: component label per node (-1 once failed) and node count per
    # label; the baseline's until the layer's first change, a copy from then on.
    labels = [graph.labels for graph in graphs]
    sizes = [graph.sizes for graph in graphs]
    new_nodes: list[set[int]] = [set() for _ in layers]
    new_links: list[set[int]] = [set() for _ in layers]
    for node in sorted(scenario.failed_nodes):
        if not 1 <= node.layer_index <= depth:
            raise KeyError(f"no layer {node.layer_index} for node {node}")
        i = layers[node.layer_index - 1].node_ids.get(node.local_name)
        if i is None:
            raise KeyError(f"unknown component {node}")
        new_nodes[node.layer_index - 1].add(i)
    for idx, link in sorted(scenario.failed_links):
        if not 1 <= idx <= depth:
            raise KeyError(f"no layer {idx} for link {link}")
        j = layers[idx - 1].link_ids.get(link)
        if j is None:
            raise KeyError(f"unknown link {link} on layer {idx}")
        new_links[idx - 1].add(j)
    rounds: list[CascadeRound] = []

    while True:
        # Apply the last change and collect, per layer, the nodes it relabelled.
        moved: list[Sequence[int]] = [()] * depth
        for k, (nodes, links) in enumerate(zip(new_nodes, new_links)):
            if not (nodes or links):
                continue
            graph = graphs[k]
            if labels[k] is graph.labels:
                labels[k], sizes[k] = list(graph.labels), dict(graph.sizes)
                if len(nodes) == 1 and not links:
                    moved[k] = graph.without(labels[k], sizes[k], *nodes)
                    continue
            moved[k] = graph.split(labels[k], sizes[k], inactive[k], nodes, links)

        round_nodes: list[set[int]] = [set() for _ in layers]
        for k in range(1, depth):
            up, low = labels[k], labels[k - 1]
            supporters = substrate[k].supporters
            for i in new_nodes[k - 1]:
                for d in substrate[k - 1].dependents[i]:
                    if up[d] >= 0 and all(low[s] < 0 for s in supporters[d]):
                        round_nodes[k].add(d)

        round_links: list[set[int]] = []
        for k, (sub, graph) in enumerate(zip(substrate, graphs)):
            dead = inactive[k]
            hit = {j for i in new_nodes[k] for j in graph.incident[i] if not dead[j]}
            if k and not rounds:
                hit.update(j for j in sub.unsupported if not dead[j])
            if k and moved[k - 1]:
                deps = substrate[k - 1].dependents
                ids = {j for x in moved[k - 1] for d in deps[x] for j in graph.incident[d]}
                hit.update(unsupported_links(graph, sub.supporters, labels[k - 1], dead, ids))
            round_links.append(hit)

        if not any(round_nodes) and not any(round_links):
            break
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
        new_nodes, new_links = round_nodes, round_links

    survival: dict[int, float] = {}
    largest_fraction: dict[int, float] = {}
    functional_alive = not any(l.role is LayerRole.FUNCTIONAL for l in layers)
    for layer, counts in zip(layers, sizes):
        survivors = sum(counts.values())
        largest = max(counts.values())
        survival[layer.index] = survivors / len(layer.components)
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


class ImpactEntry(NamedTuple):
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
