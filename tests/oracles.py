"""Independent brute-force reference implementations used to cross-check the
library. These deliberately share no code with the package: flood-fill and
exhaustive enumeration only."""

from __future__ import annotations

from netstrata.model import ComponentId, MultilayerNetwork


def adjacency(nodes, links):
    adj = {n: set() for n in nodes}
    for a, b in links:
        adj[a].add(b)
        adj[b].add(a)
    return adj


def bf_reachable(start, adj):
    seen = {start}
    stack = [start]
    while stack:
        for nxt in adj[stack.pop()]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def bf_components(nodes, links):
    adj = adjacency(nodes, links)
    comps = []
    left = set(nodes)
    while left:
        comp = bf_reachable(next(iter(left)), adj)
        comps.append(comp)
        left -= comp
    return comps


def bf_distances(nodes, links):
    """All-pairs unweighted shortest paths by per-source BFS."""
    adj = adjacency(nodes, links)
    dist = {}
    for src in nodes:
        d = {src: 0}
        frontier = [src]
        while frontier:
            nxt_frontier = []
            for u in frontier:
                for v in adj[u]:
                    if v not in d:
                        d[v] = d[u] + 1
                        nxt_frontier.append(v)
            frontier = nxt_frontier
        dist[src] = d
    return dist


def bf_connected(adj, a, b):
    return b in bf_reachable(a, adj)


def bf_articulation_points(nodes, links):
    """A node is an articulation point iff removing it raises the component
    count among the remaining nodes."""
    base = len(bf_components(nodes, links))
    out = set()
    for n in nodes:
        rest = [x for x in nodes if x != n]
        rest_links = [l for l in links if n not in l]
        if rest and len(bf_components(rest, rest_links)) > base:
            out.add(n)
    return out


def bf_bridges(nodes, links):
    base = len(bf_components(nodes, links))
    out = set()
    for link in links:
        rest_links = [l for l in links if l != link]
        if len(bf_components(nodes, rest_links)) > base:
            out.add(tuple(sorted(link)))
    return out


def bf_diameter_of_largest(nodes, links):
    """Diameter of the largest component; a tie goes to the component holding
    the smallest name."""
    comps = sorted(bf_components(nodes, links), key=lambda c: (-len(c), min(c)))
    if not comps or len(comps[0]) <= 1:
        return 0
    comp = comps[0]
    sub_links = [l for l in links if l[0] in comp and l[1] in comp]
    dist = bf_distances(sorted(comp), sub_links)
    return max(d for row in dist.values() for d in row.values())


def oracle_uncovered(layer):
    by_name = {c.name: c for c in layer.components}
    out = set()
    for a, b in layer.links:
        shared = (
            set(by_name[a].spec.protocols)
            & set(by_name[b].spec.protocols)
            & set(layer.protocols)
        )
        if not shared:
            out.add((a, b))
    return out


def oracle_decomposition(layer):
    """Per-protocol sub-layer links (only protocols that induce a link) and
    the declared protocols that induce none, by scanning every declared
    protocol against every link."""
    by_name = {c.name: c for c in layer.components}
    subs = {}
    for p in layer.protocols:
        links = [
            (a, b)
            for a, b in layer.links
            if p in by_name[a].spec.protocols and p in by_name[b].spec.protocols
        ]
        if links:
            subs[p] = sorted(links)
    unused = sorted(p for p in set(layer.protocols) if p not in subs)
    return subs, unused


def oracle_interlayer_classes(network: MultilayerNetwork, upper_index):
    """`{"layer/name": class value}` for every node incident to a projection
    of the cross-layer, from the projection list by name: each projection's
    labels follow from its endpoints' projection counts, both endpoints
    collect them, and more than one distinct label makes a node mixed."""
    cross = network.cross_layer(upper_index)
    labels = {}
    for up, low in cross.projections:
        deg_up = sum(1 for u, _ in cross.projections if u == up)
        deg_low = sum(1 for _, l in cross.projections if l == low)
        edge = set()
        if deg_up > 1:
            edge.add("clustering")
        if deg_low > 1:
            edge.add("virtualization-replication")
        if deg_up == 1 and deg_low == 1:
            edge.add("dedicated")
        for node in (f"{upper_index}/{up}", f"{upper_index - 1}/{low}"):
            labels.setdefault(node, set()).update(edge)
    return {
        node: (next(iter(ls)) if len(ls) == 1 else "mixed")
        for node, ls in labels.items()
    }


def oracle_consistency_violations(network: MultilayerNetwork):
    """Exhaustive re-derivation of node-support, cardinality and
    path-consistency findings as comparable tuples."""
    out = set()
    for alpha in range(2, network.depth + 1):
        cross = network.cross_layer(alpha)
        upper = network.layer(alpha)
        lower = network.layer(alpha - 1)
        projected = {up for up, _ in cross.projections}
        for comp in upper.components:
            if comp.name not in projected:
                out.add(("unsupported-node", alpha, f"{alpha}/{comp.name}"))
        if len(upper.components) > len(cross.projections):
            out.add(("cardinality", alpha, "None"))
        adj = adjacency(lower.component_names, lower.links)
        for a, b in upper.links:
            sup_a = [low for up, low in cross.projections if up == a]
            sup_b = [low for up, low in cross.projections if up == b]
            ok = any(
                sa == sb or bf_connected(adj, sa, sb)
                for sa in sup_a
                for sb in sup_b
            )
            if not ok:
                out.add(("path-inconsistency", alpha, str((a, b))))
    return out


def oracle_cascade(network: MultilayerNetwork, failed_nodes, failed_links):
    """Naive global fixed point: sweep every rule from scratch until stable,
    with exhaustive supporter-pair path search for link support."""
    failed = set(failed_nodes)
    inactive = set(failed_links)

    def link_supported(alpha, a, b):
        cross = network.cross_layer(alpha)
        lower = network.layer(alpha - 1)
        survivors = [
            n for n in lower.component_names
            if ComponentId(alpha - 1, n) not in failed
        ]
        active = [
            l
            for l in lower.links
            if (alpha - 1, l) not in inactive
            and ComponentId(alpha - 1, l[0]) not in failed
            and ComponentId(alpha - 1, l[1]) not in failed
        ]
        adj = adjacency(survivors, active)
        sup_a = [
            low for up, low in cross.projections if up == a and low in adj
        ]
        sup_b = [
            low for up, low in cross.projections if up == b and low in adj
        ]
        return any(
            sa == sb or bf_connected(adj, sa, sb)
            for sa in sup_a
            for sb in sup_b
        )

    while True:
        changed = False
        for alpha in range(2, network.depth + 1):
            cross = network.cross_layer(alpha)
            for comp in network.layer(alpha).components:
                node = ComponentId(alpha, comp.name)
                sups = [low for up, low in cross.projections if up == comp.name]
                if (
                    node not in failed
                    and sups
                    and all(ComponentId(alpha - 1, s) in failed for s in sups)
                ):
                    failed.add(node)
                    changed = True
        for layer in network.layers:
            for link in layer.links:
                ref = (layer.index, link)
                if ref in inactive:
                    continue
                a, b = link
                if (
                    ComponentId(layer.index, a) in failed
                    or ComponentId(layer.index, b) in failed
                ):
                    inactive.add(ref)
                    changed = True
                elif layer.index >= 2 and not link_supported(layer.index, a, b):
                    inactive.add(ref)
                    changed = True
        if not changed:
            return frozenset(failed), frozenset(inactive)


def _bf_labels(nodes, links):
    return {
        n: label
        for label, comp in enumerate(bf_components(nodes, links))
        for n in comp
    }


def oracle_cascade_rounds(network: MultilayerNetwork, scenario):
    """Round-by-round reference cascade: every round sweeps every rule of
    every layer against the state at the start of the round (Jacobi rounds),
    relabelling the layer below from scratch for each upper layer."""
    from netstrata.faults import CascadeResult, CascadeRound
    from netstrata.model import LayerRole

    for node in scenario.failed_nodes:
        if not 1 <= node.layer_index <= network.depth:
            raise KeyError(f"no layer {node.layer_index}")
        if node.local_name not in network.layer(node.layer_index).component_names:
            raise KeyError(f"unknown component {node}")
    for idx, link in scenario.failed_links:
        if not 1 <= idx <= network.depth or link not in network.layer(idx).links:
            raise KeyError(f"unknown link {link} on layer {idx}")

    def surviving_labels(layer, failed, inactive):
        survivors = [
            n for n in layer.component_names
            if ComponentId(layer.index, n) not in failed
        ]
        active = [
            (a, b)
            for a, b in layer.links
            if (layer.index, (a, b)) not in inactive
            and ComponentId(layer.index, a) not in failed
            and ComponentId(layer.index, b) not in failed
        ]
        return _bf_labels(survivors, active)

    # Lower names per upper name, for each upper layer index; a node with no
    # projection has no entry, so the all-supporters-failed rule skips it.
    supporters_by_upper = {}
    for cross in network.cross_layers:
        by_name = supporters_by_upper.setdefault(cross.upper_index, {})
        for up, low in cross.projections:
            by_name.setdefault(up, []).append(low)

    failed = frozenset(scenario.failed_nodes)
    inactive = frozenset(scenario.failed_links)
    rounds = []
    while True:
        new_failed = set()
        new_inactive = set()
        for alpha, by_name in supporters_by_upper.items():
            for name, sups in by_name.items():
                node = ComponentId(alpha, name)
                if node not in failed and all(
                    ComponentId(alpha - 1, s) in failed for s in sups
                ):
                    new_failed.add(node)
        for layer in network.layers:
            labels = None
            for a, b in layer.links:
                ref = (layer.index, (a, b))
                if ref in inactive:
                    continue
                if (
                    ComponentId(layer.index, a) in failed
                    or ComponentId(layer.index, b) in failed
                ):
                    new_inactive.add(ref)
                    continue
                if layer.index == 1:
                    continue
                if labels is None:
                    labels = surviving_labels(
                        network.layer(layer.index - 1), failed, inactive
                    )
                sups = supporters_by_upper[layer.index]
                comps_a = {labels[s] for s in sups.get(a, ()) if s in labels}
                comps_b = {labels[s] for s in sups.get(b, ()) if s in labels}
                if not (comps_a & comps_b):
                    new_inactive.add(ref)
        if not new_failed and not new_inactive:
            break
        rounds.append(CascadeRound(frozenset(new_failed), frozenset(new_inactive)))
        failed |= new_failed
        inactive |= new_inactive

    survival = {}
    largest_fraction = {}
    functional_alive = not any(l.role is LayerRole.FUNCTIONAL for l in network.layers)
    for layer in network.layers:
        labels = surviving_labels(layer, failed, inactive)
        survivors = len(labels)
        survival[layer.index] = survivors / len(layer.components)
        if survivors:
            sizes = {}
            for lab in labels.values():
                sizes[lab] = sizes.get(lab, 0) + 1
            largest_fraction[layer.index] = max(sizes.values()) / survivors
        else:
            largest_fraction[layer.index] = 0.0
        if layer.role is LayerRole.FUNCTIONAL and survivors:
            functional_alive = True
    return CascadeResult(
        scenario=scenario,
        rounds=tuple(rounds),
        final_failed_nodes=failed,
        final_inactive_links=inactive,
        per_layer_survival=survival,
        per_layer_largest_component_fraction=largest_fraction,
        functional_alive=functional_alive,
    )
