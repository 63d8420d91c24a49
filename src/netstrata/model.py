"""Core domain types for hierarchical multilayer network models.

A network is an ordered stack of layers (bottom = physical reality, higher =
virtual strata) plus one bipartite cross-layer between each adjacent pair.
Every record is a named tuple, so it hashes and compares as the tuple of its
fields. A type with a `cached_property` subclasses a named tuple of its
fields, as the subclass has the `__dict__` that the cache is kept in.
`build_network` canonicalizes its inputs so structurally equal networks
compare equal with `==`.
"""

from __future__ import annotations

from enum import Enum
from functools import cached_property
from typing import Iterable, Mapping, NamedTuple, Sequence

from .graphutil import Graph


class ModelError(ValueError):
    """Structural problem detected while assembling a network. `path` names
    the offending input of `build_network`, e.g. `layers[0].links[3]`."""

    def __init__(self, message: str, path: str = ""):
        super().__init__(message)
        self.path = path


class Mode(str, Enum):
    """Validation strictness. Strict enforces every non-emptiness rule;
    relaxed downgrades empty link/projection sets to warnings."""

    STRICT = "strict"
    RELAXED = "relaxed"


class ComponentKind(str, Enum):
    HARDWARE = "hardware"
    SOFTWARE = "software"
    PERSON = "person"
    ENGINEERING_SYSTEM = "engineering-system"


class LayerRole(str, Enum):
    ENGINEERING_ENVIRONMENT = "engineering-environment"
    PHYSICAL = "physical"
    LOGICAL = "logical"
    SERVICE = "service"
    FUNCTIONAL = "functional"
    SOCIAL_ENVIRONMENT = "social-environment"
    CUSTOM = "custom"


class ComponentId(NamedTuple):
    """Identity of a component: (layer index, name unique within the layer)."""

    layer_index: int
    local_name: str

    def __str__(self) -> str:
        return f"{self.layer_index}/{self.local_name}"


class SpecSet(NamedTuple):
    """Component specification label: supported protocols plus free-form
    key/value attributes, both kept sorted for canonical equality."""

    protocols: tuple[str, ...]
    attributes: tuple[tuple[str, str], ...] = ()

    @staticmethod
    def of(
        protocols: Iterable[str],
        attributes: Mapping[str, str] | Iterable[tuple[str, str]] = (),
    ) -> "SpecSet":
        attrs = dict(attributes)
        return SpecSet(
            protocols=tuple(sorted(set(protocols))),
            attributes=tuple(sorted(attrs.items())),
        )


class Component(NamedTuple):
    name: str
    kind: ComponentKind
    spec: SpecSet

    @property
    def protocols(self) -> tuple[str, ...]:
        return self.spec.protocols


Link = tuple[str, str]


def canonical_link(a: str, b: str) -> Link:
    """Undirected link as a sorted name pair."""
    return (a, b) if a <= b else (b, a)


class _LayerFields(NamedTuple):
    index: int
    role: LayerRole
    components: tuple[Component, ...]
    links: tuple[Link, ...]
    protocols: tuple[str, ...]


class Layer(_LayerFields):
    """One stratum: components, intralayer links, and its protocol set."""

    @staticmethod
    def of(
        index: int,
        components: Iterable[Component],
        links: Iterable[tuple[str, str]] = (),
        role: LayerRole = LayerRole.CUSTOM,
        protocols: Iterable[str] | None = None,
    ) -> "Layer":
        """Canonical constructor: sorts everything; protocols default to the
        union of the components' supported protocols. Deduplicating keeps the
        input order, so input already sorted sorts in one linear pass."""
        comps = tuple(sorted(components, key=lambda c: c.name))
        canon_links = tuple(sorted(dict.fromkeys(canonical_link(a, b) for a, b in links)))
        if protocols is None:
            protos: set[str] = set()
            for c in comps:
                protos.update(c.protocols)
        else:
            protos = set(protocols)
        return Layer(index, role, comps, canon_links, tuple(sorted(protos)))

    @cached_property
    def component_names(self) -> frozenset[str]:
        return frozenset(c.name for c in self.components)

    @cached_property
    def link_ids(self) -> dict[Link, int]:
        """Position of each link in `links`."""
        return {link: j for j, link in enumerate(self.links)}

    @cached_property
    def node_ids(self) -> dict[str, int]:
        """Position of each component in `components`: its node id in `graph`."""
        return {c.name: i for i, c in enumerate(self.components)}

    @cached_property
    def graph(self) -> Graph:
        """The layer's links compiled once to node ids; link `j` is `links[j]`.
        This is the only code that maps a layer's links to ids."""
        ids = self.node_ids
        return Graph.of(len(ids), [(ids[a], ids[b]) for a, b in self.links])

    @cached_property
    def link_protocols(self) -> tuple[frozenset[str], ...]:
        """The declared protocols both endpoints of each link support, in
        `links` order. Each component's protocols meet the declared set once,
        not once per link."""
        declared = frozenset(self.protocols)
        own = {c.name: declared.intersection(c.protocols) for c in self.components}
        return tuple(own[a] & own[b] for a, b in self.links)


Projection = tuple[str, str]  # (upper component name, lower component name)


class CrossLayer(NamedTuple):
    """Bipartite projection graph from layer `upper_index` down to the layer
    directly below it."""

    upper_index: int
    projections: tuple[Projection, ...]

    @staticmethod
    def of(upper_index: int, projections: Iterable[tuple[str, str]]) -> "CrossLayer":
        return CrossLayer(upper_index, tuple(sorted(dict.fromkeys(projections))))


class FlatEdge(NamedTuple):
    """Edge of the flattened network, tagged with its origin."""

    source: ComponentId
    target: ComponentId
    interlayer: bool


class FlatGraph(NamedTuple):
    vertices: frozenset[ComponentId]
    edges: frozenset[FlatEdge]


class LayerSubstrate(NamedTuple):
    """What joins one layer to its neighbours, on the node ids of
    `Layer.graph`. Built once and never mutated."""

    supporters: Sequence[Sequence[int]]  # node ids one layer below
    dependents: Sequence[Sequence[int]]  # node ids one layer above
    unsupported: Sequence[int]  # links with no supporter pair connected below


class _NetworkFields(NamedTuple):
    layers: tuple[Layer, ...]
    cross_layers: tuple[CrossLayer, ...]
    mode: Mode
    warnings: tuple[str, ...] = ()


class MultilayerNetwork(_NetworkFields):
    """Validated, immutable multilayer model. Build via `build_network`."""

    @property
    def depth(self) -> int:
        return len(self.layers)

    @cached_property
    def substrate(self) -> tuple[LayerSubstrate, ...]:
        """The tables joining adjacent layers, compiled once, bottom layer first."""
        return _compile_substrate(self)

    def layer(self, index: int) -> Layer:
        if not 1 <= index <= len(self.layers):
            raise KeyError(f"no layer with index {index}")
        return self.layers[index - 1]

    def cross_layer(self, upper_index: int) -> CrossLayer:
        if not 2 <= upper_index <= len(self.layers):
            raise KeyError(f"no cross-layer with upper index {upper_index}")
        return self.cross_layers[upper_index - 2]

    def flatten(self) -> FlatGraph:
        """Disjoint union of all layer vertex sets, plus every intralayer link
        and interlayer projection as tagged edges."""
        vertices: set[ComponentId] = set()
        edges: set[FlatEdge] = set()
        for layer in self.layers:
            for comp in layer.components:
                vertices.add(ComponentId(layer.index, comp.name))
            for a, b in layer.links:
                edges.add(
                    FlatEdge(
                        ComponentId(layer.index, a),
                        ComponentId(layer.index, b),
                        interlayer=False,
                    )
                )
        for cross in self.cross_layers:
            for up, low in cross.projections:
                edges.add(
                    FlatEdge(
                        ComponentId(cross.upper_index, up),
                        ComponentId(cross.upper_index - 1, low),
                        interlayer=True,
                    )
                )
        return FlatGraph(frozenset(vertices), frozenset(edges))


def _compile_substrate(network: MultilayerNetwork) -> tuple[LayerSubstrate, ...]:
    layers = network.layers
    supporters: list[list[list[int]]] = [[[] for _ in l.components] for l in layers]
    dependents: list[list[list[int]]] = [[[] for _ in l.components] for l in layers]
    for cross in network.cross_layers:
        k = cross.upper_index - 1
        upper_ix, lower_ix = layers[k].node_ids, layers[k - 1].node_ids
        for up, low in cross.projections:
            u, l = upper_ix[up], lower_ix[low]
            supporters[k][u].append(l)
            dependents[k - 1][l].append(u)

    out: list[LayerSubstrate] = []
    for k, layer in enumerate(layers):
        unsupported: list[int] = []
        if k:
            unsupported = unsupported_links(layer.graph, supporters[k], layers[k - 1].graph.labels)
        out.append(LayerSubstrate(supporters[k], dependents[k], unsupported))
    return tuple(out)


def unsupported_links(
    graph: Graph, supporters: Sequence[Sequence[int]], below: Sequence[int], skip: bytes = b"",
    ids: Iterable[int] | None = None,
) -> list[int]:
    """Ids of the links of `graph` (or of those in `ids`), other than those
    marked in `skip`, where no supporter of one endpoint shares a component
    label in `below` (the layer underneath, -1 for a failed node) with a
    supporter of the other."""
    links = graph.links
    return [
        j
        for j in (range(len(links)) if ids is None else ids)
        if not (skip and skip[j])
        and {below[s] for s in supporters[links[j][0]] if below[s] >= 0}.isdisjoint(
            [below[s] for s in supporters[links[j][1]]]
        )
    ]


def _check_layer(
    layer: Layer, path: str, mode: Mode, warnings: list[str]
) -> tuple[Layer, dict[str, str]]:
    """Check one layer as given at `path`, then return it canonicalized, with
    each component name mapped to itself: a lookup in that map returns the
    component's own name object, which every link endpoint then shares."""
    at = f"layer {layer.index}"
    if not layer.components:
        raise ModelError(f"{at} has no components", f"{path}.components")
    declared = frozenset(layer.protocols)
    names: dict[str, str] = {}
    for j, comp in enumerate(layer.components):
        name, spec = comp.name, comp.spec
        if not name:
            raise ModelError(
                f"{at}: component name must be non-empty", f"{path}.components[{j}].name"
            )
        if "/" in name:
            raise ModelError(
                f"{at}: component name {name!r} contains '/'", f"{path}.components[{j}].name"
            )
        if name in names:
            raise ModelError(
                f"{at}: duplicate component name {name!r}", f"{path}.components[{j}].name"
            )
        names[name] = name
        if not spec.protocols:
            raise ModelError(
                f"{at}: component {name!r} declares no protocols",
                f"{path}.components[{j}].protocols",
            )
        if not declared.issuperset(spec.protocols):
            raise ModelError(
                f"{at}: component {name!r} uses protocols "
                f"{sorted(set(spec.protocols) - declared)} missing from the layer protocol set",
                f"{path}.components[{j}].protocols",
            )
    links: list[Link] = []
    for k, (a, b) in enumerate(layer.links):
        if a == b:
            raise ModelError(f"{at}: self-loop on {a!r}", f"{path}.links[{k}]")
        x, y = names.get(a), names.get(b)
        if x is None or y is None:
            raise ModelError(
                f"{at}: link ({a!r}, {b!r}) references unknown component "
                f"{a if x is None else b!r}",
                f"{path}.links[{k}]",
            )
        links.append((x, y))
    if not links:
        if mode is Mode.STRICT:
            raise ModelError(f"{at} has no links (strict mode)", f"{path}.links")
        warnings.append(f"{at} has no links")
    unused = declared.difference(*(c.protocols for c in layer.components))
    if unused:
        warnings.append(f"{at}: declared protocols {sorted(unused)} are supported by no component")
    return Layer.of(layer.index, layer.components, links, layer.role, declared), names


def _check_cross_layer(
    cross: CrossLayer, path: str, upper: dict[str, str], lower: dict[str, str],
    mode: Mode, warnings: list[str],
) -> CrossLayer:
    """Check one cross-layer as given at `path` against the name maps of its
    two layers, then return it canonicalized, sharing their name objects."""
    at = f"cross-layer {cross.upper_index}->{cross.upper_index - 1}"
    if not cross.projections:
        if mode is Mode.STRICT:
            raise ModelError(f"{at} has no projections (strict mode)", f"{path}.projections")
        warnings.append(f"{at} has no projections")
    projections: list[Projection] = []
    for k, (up, low) in enumerate(cross.projections):
        x, y = upper.get(up), lower.get(low)
        if x is None or y is None:
            side, name = ("upper", up) if x is None else ("lower", low)
            raise ModelError(
                f"{at}: projection ({up!r}, {low!r}) references unknown {side} "
                f"component {name!r}",
                f"{path}.projections[{k}]",
            )
        projections.append((x, y))
    return CrossLayer.of(cross.upper_index, projections)


def build_network(
    layers: Sequence[Layer],
    cross_layers: Sequence[CrossLayer] = (),
    mode: Mode | str = Mode.STRICT,
) -> MultilayerNetwork:
    """Assemble and eagerly validate a multilayer network.

    Each input is checked as given, so the path of a `ModelError` indexes the
    caller's sequences, and then canonicalized (sorted components, links,
    projections): the same model handed over in any order builds a
    structurally equal network.
    """
    mode = Mode(mode)
    if not layers:
        raise ModelError("a network needs at least one layer", "layers")
    order = sorted(range(len(layers)), key=lambda i: layers[i].index)
    indices = [layers[i].index for i in order]
    if indices != list(range(1, len(layers) + 1)):
        raise ModelError(f"layer indices must be exactly 1..N, got {indices}", "layers")

    warnings: list[str] = []
    checked = [_check_layer(layers[i], f"layers[{i}]", mode, warnings) for i in order]
    canonical = tuple(layer for layer, _ in checked)

    by_upper: dict[int, int] = {}
    for j, cross in enumerate(cross_layers):
        if not 2 <= cross.upper_index <= len(layers):
            raise ModelError(
                f"cross-layer upper index {cross.upper_index} is outside 2..{len(layers)}",
                f"cross_layers[{j}].upper_index",
            )
        if cross.upper_index in by_upper:
            raise ModelError(
                f"duplicate cross-layer for upper index {cross.upper_index}",
                f"cross_layers[{j}].upper_index",
            )
        by_upper[cross.upper_index] = j
    for alpha in range(2, len(layers) + 1):
        if alpha not in by_upper:
            raise ModelError(
                f"no cross-layer between layer {alpha} and layer {alpha - 1}",
                "cross_layers",
            )
    ordered_cross = tuple(
        _check_cross_layer(
            cross_layers[by_upper[alpha]], f"cross_layers[{by_upper[alpha]}]",
            checked[alpha - 1][1], checked[alpha - 2][1], mode, warnings,
        )
        for alpha in range(2, len(layers) + 1)
    )

    return MultilayerNetwork(canonical, ordered_cross, mode, tuple(warnings))
