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

from array import array
from enum import Enum
from functools import cached_property
from operator import eq, itemgetter, lt
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
        """Position of each component in `components`: its node id in `graph`.
        Made on first use: only a command that looks a name up holds one."""
        return {c.name: i for i, c in enumerate(self.components)}

    @cached_property
    def id_links(self) -> tuple[tuple[int, int], ...]:
        """Each link of `links` as its pair of node ids. `build_network` fills
        this in from the one pass that checks the names."""
        ids = self.node_ids
        return tuple((ids[a], ids[b]) for a, b in self.links)

    @cached_property
    def graph(self) -> Graph:
        """The layer's links compiled once to node ids; link `j` is `links[j]`."""
        return Graph.of(len(self.components), self.id_links)

    @cached_property
    def link_protocols(self) -> tuple[frozenset[str], ...]:
        """The declared protocols both endpoints of each link support, in
        `links` order. Each component's protocols meet the declared set once,
        not once per link."""
        declared = frozenset(self.protocols)
        own = [declared.intersection(c.protocols) for c in self.components]
        return tuple(own[a] & own[b] for a, b in self.id_links)


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
    def projection_ids(self) -> tuple[tuple[array, array], ...]:
        """Each cross-layer's projections as two arrays of node ids, upper ends
        and lower ends, in `projections` order: C ints, not a tuple per pair,
        as they live as long as the model. `build_network` fills this in."""
        ids = [layer.node_ids for layer in self.layers]
        return tuple(
            (
                array("i", [ids[c.upper_index - 1][up] for up, _ in c.projections]),
                array("i", [ids[c.upper_index - 2][low] for _, low in c.projections]),
            )
            for c in self.cross_layers
        )

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
    for cross, (ups, lows) in zip(network.cross_layers, network.projection_ids):
        k = cross.upper_index - 1
        for u, l in zip(ups, lows):
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


_FIRST, _SECOND = itemgetter(0), itemgetter(1)  # a component's name; a pair's two ends


def _by_id(pairs: Iterable[tuple[int, int]], first: list[str], second: list[str]) -> tuple:
    """The name pairs of node id `pairs`: the components' own name objects."""
    firsts = map(first.__getitem__, map(_FIRST, pairs))
    return tuple(zip(firsts, map(second.__getitem__, map(_SECOND, pairs))))


def _layer_fault(layer: Layer, path: str) -> None:
    """Raise the first fault of the layer as given at `path`, in input order.
    This and `_cross_layer_fault` alone build a fault's message and path, and
    run only once a whole-array pass has failed."""
    at, declared, names = f"layer {layer.index}", frozenset(layer.protocols), set()
    for j, (name, _, spec) in enumerate(layer.components):
        where = f"{path}.components[{j}]"
        if not name:
            raise ModelError(f"{at}: component name must be non-empty", f"{where}.name")
        if "/" in name:
            raise ModelError(f"{at}: component name {name!r} contains '/'", f"{where}.name")
        if name in names:
            raise ModelError(f"{at}: duplicate component name {name!r}", f"{where}.name")
        names.add(name)
        if not spec.protocols:
            message = f"{at}: component {name!r} declares no protocols"
            raise ModelError(message, f"{where}.protocols")
        if not declared.issuperset(spec.protocols):
            raise ModelError(
                f"{at}: component {name!r} uses protocols {sorted(set(spec.protocols) - declared)}"
                " missing from the layer protocol set", f"{where}.protocols",
            )
    for k, (a, b) in enumerate(layer.links):
        if a == b:
            raise ModelError(f"{at}: self-loop on {a!r}", f"{path}.links[{k}]")
        if a not in names or b not in names:
            raise ModelError(
                f"{at}: link ({a!r}, {b!r}) references unknown component "
                f"{a if a not in names else b!r}", f"{path}.links[{k}]",
            )


def _check_layer(
    layer: Layer, path: str, mode: Mode, warnings: list[str]
) -> tuple[Layer, dict[str, int]]:
    """Check one layer as given at `path`, each rule in one pass over a whole
    array, and return it canonicalized, with the map of each name to its node
    id, its sorted position. The links come out of that one map as ids, and
    as the components' own name objects, so a model holds each name once."""
    at = f"layer {layer.index}"
    if not layer.components:
        raise ModelError(f"{at} has no components", f"{path}.components")
    declared, links = frozenset(layer.protocols), layer.links
    components = tuple(sorted(layer.components, key=_FIRST))
    names = list(map(_FIRST, components))
    ids = dict(zip(names, range(len(names))))
    specs = set(map(itemgetter(2), components))
    ends = list(map(ids.get, map(_FIRST, links))), list(map(ids.get, map(_SECOND, links)))
    if (
        len(ids) < len(names)
        or "" in ids
        or "/" in "".join(names)
        or not all(s.protocols and declared.issuperset(s.protocols) for s in specs)
        or None in ends[0]
        or None in ends[1]
        or any(map(eq, *ends))
    ):
        _layer_fault(layer, path)
        raise AssertionError(f"{path}: a whole-array pass failed where no element does")
    if not all(map(lt, *ends)):  # some link is written larger name first
        ends = list(map(min, *ends)), list(map(max, *ends))
    id_links = tuple(sorted(dict.fromkeys(zip(*ends))))
    if not id_links:
        if mode is Mode.STRICT:
            raise ModelError(f"{at} has no links (strict mode)", f"{path}.links")
        warnings.append(f"{at} has no links")
    unused = declared.difference(*(s.protocols for s in specs))
    if unused:
        warnings.append(f"{at}: declared protocols {sorted(unused)} are supported by no component")
    canonical = Layer(
        layer.index, layer.role, components, _by_id(id_links, names, names), tuple(sorted(declared))
    )
    vars(canonical)["id_links"] = id_links
    return canonical, ids


def _cross_layer_fault(
    cross: CrossLayer, path: str, upper: dict[str, int], lower: dict[str, int]
) -> None:
    """Raise the first unknown endpoint of the cross-layer as given at `path`."""
    for k, (up, low) in enumerate(cross.projections):
        if up not in upper or low not in lower:
            side, name = ("upper", up) if up not in upper else ("lower", low)
            raise ModelError(
                f"cross-layer {cross.upper_index}->{cross.upper_index - 1}: projection "
                f"({up!r}, {low!r}) references unknown {side} component {name!r}",
                f"{path}.projections[{k}]",
            )


def _check_cross_layer(
    cross: CrossLayer, path: str, upper: dict[str, int], lower: dict[str, int], mode: Mode,
    warnings: list[str],
) -> tuple[CrossLayer, tuple[array, array]]:
    """Check one cross-layer as given at `path` against the node id maps of
    its two layers, and return it canonicalized, with its projections as
    node ids."""
    if not cross.projections:
        at = f"cross-layer {cross.upper_index}->{cross.upper_index - 1}"
        if mode is Mode.STRICT:
            raise ModelError(f"{at} has no projections (strict mode)", f"{path}.projections")
        warnings.append(f"{at} has no projections")
    ups = list(map(upper.get, map(_FIRST, cross.projections)))
    lows = list(map(lower.get, map(_SECOND, cross.projections)))
    if None in ups or None in lows:
        _cross_layer_fault(cross, path, upper, lower)
        raise AssertionError(f"{path}: a whole-array pass failed where no element does")
    pairs = sorted(dict.fromkeys(zip(ups, lows)))
    projections = _by_id(pairs, list(upper), list(lower))
    # An array fills far faster from a list than from an iterator.
    ids = array("i", list(map(_FIRST, pairs))), array("i", list(map(_SECOND, pairs)))
    return CrossLayer(cross.upper_index, projections), ids


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
    crosses = [
        _check_cross_layer(
            cross_layers[by_upper[alpha]], f"cross_layers[{by_upper[alpha]}]",
            checked[alpha - 1][1], checked[alpha - 2][1], mode, warnings,
        )
        for alpha in range(2, len(layers) + 1)
    ]
    network = MultilayerNetwork(canonical, tuple(c for c, _ in crosses), mode, tuple(warnings))
    vars(network)["projection_ids"] = tuple(ids for _, ids in crosses)
    return network
