"""Model generators for experiments and randomized testing."""

from __future__ import annotations

import random

from .model import (
    Component,
    ComponentKind,
    CrossLayer,
    Layer,
    LayerRole,
    Mode,
    MultilayerNetwork,
    SpecSet,
    build_network,
    canonical_link,
)

PROTOCOL_POOL = ("p1", "p2", "p3", "p4")


def random_layer(
    rng: random.Random,
    index: int = 1,
    n_min: int = 2,
    n_max: int = 8,
    protocols: tuple[str, ...] = PROTOCOL_POOL[:3],
    ensure_cover: bool = True,
    connected: bool = False,
) -> Layer:
    """Random layer, checked by `Layer.of`. With `ensure_cover` every component
    shares the first protocol, so every link's endpoints share at least one
    protocol."""
    raw = _random_record(rng, index, n_min, n_max, protocols, ensure_cover, connected)
    return Layer.of(index, raw.components, raw.links, protocols=protocols)


def _random_record(
    rng: random.Random,
    index: int,
    n_min: int,
    n_max: int,
    protocols: tuple[str, ...],
    ensure_cover: bool,
    connected: bool,
) -> Layer:
    """`random_layer`'s layer as a raw record, for `build_network` to check."""
    n = rng.randint(n_min, n_max)
    components = []
    for i in range(n):
        if ensure_cover:
            protos = {protocols[0]} | {
                p for p in protocols[1:] if rng.random() < 0.5
            }
        else:
            protos = {p for p in protocols if rng.random() < 0.5} or {
                rng.choice(protocols)
            }
        components.append(
            Component(f"c{index}_{i}", ComponentKind.HARDWARE, SpecSet.of(protos))
        )
    names = [c.name for c in components]
    links: set[tuple[str, str]] = set()
    if connected and n >= 2:
        order = names[:]
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            links.add(canonical_link(a, b))
    for _ in range(rng.randint(0, 2 * n)):
        a, b = rng.sample(names, 2) if n >= 2 else (None, None)
        if a is not None:
            links.add(canonical_link(a, b))
    return Layer(index, LayerRole.CUSTOM, tuple(components), tuple(links), protocols)


def random_network(
    rng: random.Random,
    max_layers: int = 6,
    max_nodes: int = 40,
    consistent: bool = True,
) -> MultilayerNetwork:
    """Structurally valid random network (relaxed mode).

    With `consistent=True` every layer is connected, every upper node has at
    least one supporter, and protocol cover is guaranteed, so the network
    passes every top-down consistency check. With `consistent=False` the
    generator may leave nodes unsupported, layers fragmented, and links
    protocol-uncovered.
    """
    n_layers = rng.randint(1, max_layers)
    budget = max(n_layers, max_nodes)
    sizes = []
    remaining = budget
    for i in range(n_layers):
        left = n_layers - i - 1
        hi = max(1, (remaining - left) // max(1, left + 1) * 2)
        size = rng.randint(1, min(max(1, remaining - left), max(1, hi)))
        sizes.append(size)
        remaining -= size

    layers = [
        _random_record(
            rng, i + 1, sizes[i], sizes[i], PROTOCOL_POOL[:3], consistent, consistent
        )
        for i in range(n_layers)
    ]
    # Names in sorted order, as `build_network` orders each layer's components.
    names = [sorted(c.name for c in layer.components) for layer in layers]
    cross_layers = []
    for alpha in range(2, n_layers + 1):
        lower_names = names[alpha - 2]
        projections: set[tuple[str, str]] = set()
        for name in names[alpha - 1]:
            if consistent or rng.random() < 0.8:
                k = rng.randint(1, min(2, len(lower_names)))
                for low in rng.sample(lower_names, k):
                    projections.add((name, low))
        cross_layers.append(CrossLayer.of(alpha, projections))
    return build_network(layers, cross_layers, Mode.RELAXED)


def desk_model(
    num_layers: int = 5,
    nodes_per_layer: int = 2000,
    chords_per_layer: int = 800,
) -> MultilayerNetwork:
    """Deterministic large model: ring-plus-chords layers, every node
    dual-homed onto the layer below. Defaults give 10,000 components and
    30,000 edges across five layers."""
    roles = [
        LayerRole.ENGINEERING_ENVIRONMENT,
        LayerRole.PHYSICAL,
        LayerRole.LOGICAL,
        LayerRole.SERVICE,
        LayerRole.FUNCTIONAL,
    ]
    kinds = {
        LayerRole.ENGINEERING_ENVIRONMENT: ComponentKind.ENGINEERING_SYSTEM,
        LayerRole.PHYSICAL: ComponentKind.HARDWARE,
    }
    layers = []
    n = nodes_per_layer
    for alpha in range(1, num_layers + 1):
        role = roles[(alpha - 1) % len(roles)]
        kind = kinds.get(role, ComponentKind.SOFTWARE)
        spec_even = SpecSet.of(("eth", "fiber"))
        spec_odd = SpecSet.of(("eth",))
        components = [
            Component(f"n{i:05d}", kind, spec_even if i % 2 == 0 else spec_odd)
            for i in range(n)
        ]
        links = {canonical_link(f"n{i:05d}", f"n{(i + 1) % n:05d}") for i in range(n)}
        step = max(2, n // max(1, chords_per_layer))
        added = 0
        offset = n // 3
        i = 0
        while added < chords_per_layer:
            link = canonical_link(f"n{i % n:05d}", f"n{(i + offset) % n:05d}")
            if link not in links:
                links.add(link)
                added += 1
            i += step
        layers.append(Layer(alpha, role, tuple(components), tuple(links), ("eth", "fiber")))
    cross_layers = [
        CrossLayer.of(
            alpha,
            [(f"n{i:05d}", f"n{i:05d}") for i in range(n)]
            + [(f"n{i:05d}", f"n{(i + 1) % n:05d}") for i in range(n)],
        )
        for alpha in range(2, num_layers + 1)
    ]
    return build_network(layers, cross_layers, Mode.STRICT)
