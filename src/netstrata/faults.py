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

from .graphutil import Graph, int_component_labels
from .model import (
    ComponentId,
    LayerRole,
    Link,
    MultilayerNetwork,
    canonical_link,
    unsupported_links,
)

LinkRef = tuple[int, Link]  # (layer index, canonical name pair)


class UnknownScenarioElement(ValueError):
    """Scenario references a node or link absent from the network."""


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


def _labels(graph: Graph, failed: bytearray, inactive: bytearray) -> list[int]:
    """Component labels of a layer restricted to survivors and active links;
    failed nodes get -1."""
    return int_component_labels(
        len(failed),
        [
            (a, b)
            for j, (a, b) in enumerate(graph.links)
            if not inactive[j] and not failed[a] and not failed[b]
        ],
        failed,
    )


def run_cascade(network: MultilayerNetwork, scenario: FaultScenario) -> CascadeResult:
    """Propagate an injected fault set upward to its fixed point.

    Each round re-evaluates both rules against the state at the start of the
    round (Jacobi rounds); bottom-layer elements fail only by injection. The
    recorded rounds exclude the injection itself.

    That state only grows, so a rule whose inputs did not change in the
    previous round cannot newly fire: each round checks only the dependents
    of newly failed nodes, the links incident to them, and every link of a
    layer whose layer below changed. The injection is the change before
    round 1, which also inactivates the links unsupported with nothing
    failed, since removing elements never connects anything.
    """
    substrate, layers = network.substrate, network.layers
    graphs = [layer.graph for layer in layers]
    depth = len(layers)
    failed = [bytearray(len(layer.components)) for layer in layers]
    inactive = [bytearray(len(layer.links)) for layer in layers]
    new_nodes: list[set[int]] = [set() for _ in layers]
    changed = [False] * depth
    for node in scenario.failed_nodes:
        if not 1 <= node.layer_index <= depth:
            raise UnknownScenarioElement(f"no layer {node.layer_index} for node {node}")
        k = node.layer_index - 1
        i = layers[k].node_ids.get(node.local_name)
        if i is None:
            raise UnknownScenarioElement(f"unknown component {node}")
        failed[k][i] = 1
        new_nodes[k].add(i)
        changed[k] = True
    for idx, link in scenario.failed_links:
        if not 1 <= idx <= depth:
            raise UnknownScenarioElement(f"no layer {idx} for link {link}")
        j = layers[idx - 1].link_ids.get(link)
        if j is None:
            raise UnknownScenarioElement(f"unknown link {link} on layer {idx}")
        inactive[idx - 1][j] = 1
        changed[idx - 1] = True
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
            if k and changed[k - 1]:
                below = _labels(graphs[k - 1], failed[k - 1], inactive[k - 1])
                hit.update(unsupported_links(graph, sub.supporters, below, dead))
            elif k and not rounds:
                hit.update(j for j in sub.unsupported if not dead[j])
            round_links.append(hit)

        if not any(round_nodes) and not any(round_links):
            break
        for k in range(depth):
            for i in round_nodes[k]:
                failed[k][i] = 1
            for j in round_links[k]:
                inactive[k][j] = 1
            changed[k] = bool(round_nodes[k] or round_links[k])
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
    for k, layer in enumerate(layers):
        total = len(layer.components)
        survivors = total - failed[k].count(1)
        if survivors == total and 1 not in inactive[k]:
            largest = max(graphs[k].sizes.values())
        else:
            labels = _labels(graphs[k], failed[k], inactive[k])
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
