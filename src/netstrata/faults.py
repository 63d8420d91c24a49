"""Fault-injection cascades.

Failures propagate strictly upward: a component above the bottom layer fails
once every one of its supporters is gone (redundancy semantics), and a link
goes inactive once no pair of surviving supporters of its endpoints remains
connected in the layer below. Propagation iterates to a fixed point.

The rules live in one round kernel, `_Workspace.cascade`. A campaign
(`exhaustive_single_faults`) runs all its cascades on one workspace, undoes
each from the trail of its writes, and keeps only the counts its report
prints. `run_cascade` runs one cascade on a fresh workspace and builds the
full result, settling the top layer, which the kernel never relabels, once at
the end.
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


class _Workspace:
    """Per layer, the component label per node (-1 once failed), the node
    count per label and the inactive links: the baseline's between cascades.
    `cascade` records each write in `trail`, and `undo` puts back what the
    trail names, in time that grows with the changes, not with the layers
    (Briggs & Torczon, ACM LOPLAS 1993, clear a sparse set the same way)."""

    def __init__(self, network: MultilayerNetwork) -> None:
        self.substrate = network.substrate
        self.graphs = [layer.graph for layer in network.layers]
        self.labels = [list(graph.labels) for graph in self.graphs]
        self.sizes = [dict(graph.sizes) for graph in self.graphs]
        self.inactive = [bytearray(len(graph.links)) for graph in self.graphs]
        # (layer, nodes relabelled, links marked) per write, until `undo`
        self.trail: list[tuple[int, Iterable[int], Iterable[int]]] = []

    def cascade(
        self, new_nodes: Sequence[Iterable[int]], new_links: Sequence[Iterable[int]]
    ) -> list[tuple[list[set[int]], list[set[int]]]]:
        """The cascade rules: propagate the injected node and link ids per
        layer to their fixed point. Returns the ids each round failed and
        inactivated, per layer.

        Each round re-evaluates both rules against the state at the start of
        the round (Jacobi rounds); bottom-layer elements fail only by
        injection. That state only grows, so a rule whose
        inputs did not change in the previous round cannot newly fire: each
        round checks only the dependents of newly failed nodes, the links
        incident to them, and the links incident to the dependents of the
        nodes whose label changed in the layer below. The injection is the
        change before round 1, which also inactivates the links unsupported
        with nothing failed, since removing elements never connects anything.

        A layer's first change in a cascade that is exactly one failed node is
        read from the DFS table (`Graph.without`); every other change is
        settled by `Graph.split`. Only the layer above reads a layer's labels,
        so the top layer keeps just its -1 marks and link marks."""
        substrate, graphs, trail = self.substrate, self.graphs, self.trail
        labels, sizes, inactive = self.labels, self.sizes, self.inactive
        depth = len(graphs)
        top = depth - 1
        unchanged = [True] * depth  # per layer: no write yet in this cascade
        rounds: list[tuple[list[set[int]], list[set[int]]]] = []

        while True:
            # Apply the last change and collect, per layer, the nodes it relabelled.
            moved: list[Sequence[int]] = [()] * depth
            for k, (nodes, links) in enumerate(zip(new_nodes, new_links)):
                if not (nodes or links):
                    continue
                if k == top:
                    up, dead = labels[k], inactive[k]
                    for i in nodes:
                        up[i] = -1
                    for j in links:
                        dead[j] = 1
                    trail.append((k, nodes, links))
                    continue
                graph = graphs[k]
                if unchanged[k] and len(nodes) == 1 and not links:
                    moved[k] = graph.without(labels[k], sizes[k], *nodes)
                else:
                    moved[k] = graph.split(labels[k], sizes[k], inactive[k], nodes, links)
                unchanged[k] = False
                trail.append((k, moved[k], links))

            round_nodes: list[set[int]] = [set() for _ in graphs]
            for k in range(1, depth):
                if not new_nodes[k - 1]:
                    continue
                up, low, found = labels[k], labels[k - 1], round_nodes[k]
                supporters, dependents = substrate[k].supporters, substrate[k - 1].dependents
                for i in new_nodes[k - 1]:
                    for d in dependents[i]:
                        if up[d] >= 0 and all(low[s] < 0 for s in supporters[d]):
                            found.add(d)

            round_links: list[set[int]] = []
            for k, (sub, graph) in enumerate(zip(substrate, graphs)):
                dead, nodes, incident = inactive[k], new_nodes[k], graph.incident
                hit = {j for i in nodes for j in incident[i] if not dead[j]} if nodes else set()
                if k and not rounds:
                    hit.update(j for j in sub.unsupported if not dead[j])
                if k and moved[k - 1]:
                    deps = substrate[k - 1].dependents
                    ids = {j for x in moved[k - 1] for d in deps[x] for j in incident[d]}
                    hit.update(unsupported_links(graph, sub.supporters, labels[k - 1], dead, ids))
                round_links.append(hit)

            if not any(round_nodes) and not any(round_links):
                return rounds
            rounds.append((round_nodes, round_links))
            new_nodes, new_links = round_nodes, round_links

    def undo(self) -> None:
        """Restore the baseline from the trail: each node written to its
        baseline label, that label to its baseline size, each link mark
        cleared and each fresh label dropped."""
        for k, nodes, links in self.trail:
            base, counts = self.graphs[k].labels, self.graphs[k].sizes
            labels, sizes, dead = self.labels[k], self.sizes[k], self.inactive[k]
            for x in nodes:
                labels[x] = label = base[x]
                sizes[label] = counts[label]
            for j in links:
                dead[j] = 0
            while len(sizes) > len(counts):  # fresh labels are the last keys added
                sizes.popitem()
        self.trail.clear()


def run_cascade(network: MultilayerNetwork, scenario: FaultScenario) -> CascadeResult:
    """Propagate an injected fault set upward to its fixed point, by the
    rounds of `_Workspace.cascade`; they exclude the injection itself. A
    scenario naming a node or link that the network lacks raises `KeyError`.

    A layer's survivors and largest component are read from its node counts.
    The top layer's, if it changed, come from one `Graph.split` of a fresh copy
    of its baseline by all its failed nodes and inactive links."""
    layers = network.layers
    depth = len(layers)
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
    work = _Workspace(network)
    rounds = tuple(
        CascadeRound(
            frozenset(
                ComponentId(l.index, l.components[i].name)
                for l, ids in zip(layers, round_nodes)
                for i in ids
            ),
            frozenset((l.index, l.links[j]) for l, ids in zip(layers, round_links) for j in ids),
        )
        for round_nodes, round_links in work.cascade(new_nodes, new_links)
    )

    sizes = work.sizes
    if any(k == depth - 1 for k, _, _ in work.trail):
        top = work.graphs[-1]
        sizes[-1] = dict(top.sizes)
        top.split(
            list(top.labels),
            sizes[-1],
            bytearray(len(top.links)),
            [i for i, label in enumerate(work.labels[-1]) if label < 0],
            [j for j, dead in enumerate(work.inactive[-1]) if dead],
        )
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
        rounds=rounds,
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
    """What a campaign report prints of one bottom node's cascade."""

    node: ComponentId
    functional_alive: bool
    failed_count: int
    round_count: int


def exhaustive_single_faults(network: MultilayerNetwork) -> list[ImpactEntry]:
    """One cascade per single bottom-layer node failure, ranked by severity:
    functional-layer kills first, then total failed nodes, ties by name. Each
    cascade keeps only its counts: nodes failed per layer, and rounds."""
    layers = network.layers
    work = _Workspace(network)
    functional = [k for k, l in enumerate(layers) if l.role is LayerRole.FUNCTIONAL]
    none = [()] * len(layers)
    entries = []
    for i, comp in enumerate(layers[0].components):
        rounds = work.cascade([(i,), *none[1:]], none)
        work.undo()
        failed = [0] * len(layers)
        failed[0] = 1
        for round_nodes, _ in rounds:
            for k, ids in enumerate(round_nodes):
                failed[k] += len(ids)
        entries.append(
            ImpactEntry(
                ComponentId(1, comp.name),
                not functional or any(failed[k] < len(layers[k].components) for k in functional),
                sum(failed),
                len(rounds),
            )
        )
    return sorted(entries, key=lambda e: (e.functional_alive, -e.failed_count, e.node.local_name))
