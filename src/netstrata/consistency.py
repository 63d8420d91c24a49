"""Top-down consistency checks across adjacent layers.

Two rules are enforced: every node above the bottom layer must project onto
at least one supporter below, and every intralayer link must be backed by a
lower-layer path between some supporter pair of its endpoints (a shared
supporter counts). Cross-layer degrees additionally classify the technology
each projection pattern represents.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Mapping

from . import multiplex
from .model import ComponentId, Link, Mode, MultilayerNetwork


class ViolationKind(str, Enum):
    UNSUPPORTED_NODE = "unsupported-node"
    CARDINALITY = "cardinality"
    PATH_INCONSISTENCY = "path-inconsistency"
    UNCOVERED_LINK = "uncovered-link"
    ROLE_KIND_MISMATCH = "role-kind-mismatch"


@dataclass(frozen=True)
class Violation:
    kind: ViolationKind
    layer_index: int
    subject: ComponentId | Link | None
    detail: str

    def sort_key(self) -> tuple:
        return (self.layer_index, self.kind.value, str(self.subject), self.detail)


class NodeClass(str, Enum):
    CLUSTERING = "clustering"
    VIRTUALIZATION_REPLICATION = "virtualization-replication"
    DEDICATED = "dedicated"
    MIXED = "mixed"


@dataclass(frozen=True)
class InterlayerClass:
    """Per-node technology classification for one cross-layer."""

    upper_index: int
    classes: Mapping[ComponentId, NodeClass]


@dataclass(frozen=True)
class ValidationReport:
    mode: Mode
    violations: tuple[Violation, ...]
    warnings: tuple[str, ...]
    interlayer_classes: tuple[InterlayerClass, ...]

    @property
    def passed(self) -> bool:
        return not self.violations


def supporters(network: MultilayerNetwork, component: ComponentId) -> set[ComponentId]:
    """Lower-layer components this component projects onto."""
    network.cross_layer(component.layer_index)  # KeyError on the bottom layer or above the top
    k = component.layer_index - 1
    up = network.layers[k].node_ids.get(component.local_name)
    lows = network.substrate[k].supporters[up] if up is not None else ()
    below = network.layers[k - 1].components
    return {ComponentId(k, below[low].name) for low in lows}


def check_node_support(network: MultilayerNetwork) -> list[Violation]:
    """Unsupported-node and cardinality violations for every cross-layer."""
    out: list[Violation] = []
    for cross in network.cross_layers:
        alpha = cross.upper_index
        upper = network.layer(alpha)
        sups = network.substrate[alpha - 1].supporters
        for comp, lows in zip(upper.components, sups):
            if not lows:
                out.append(
                    Violation(
                        ViolationKind.UNSUPPORTED_NODE,
                        alpha,
                        ComponentId(alpha, comp.name),
                        f"{alpha}/{comp.name} has no supporter on layer {alpha - 1}",
                    )
                )
        if len(upper.components) > len(cross.projections):
            out.append(
                Violation(
                    ViolationKind.CARDINALITY,
                    alpha,
                    None,
                    f"layer {alpha} has {len(upper.components)} components but only "
                    f"{len(cross.projections)} projections to layer {alpha - 1}",
                )
            )
    return sorted(out, key=Violation.sort_key)


def check_path_consistency(network: MultilayerNetwork) -> list[Violation]:
    """Every upper-layer link needs some supporter pair of its endpoints to be
    connected within the layer below; checking links suffices because upper
    multi-hop paths concatenate from supported links."""
    out: list[Violation] = []
    for layer, sub in zip(network.layers[1:], network.substrate[1:]):
        alpha = layer.index
        for j in sub.unsupported:
            a, b = layer.links[j]
            out.append(
                Violation(
                    ViolationKind.PATH_INCONSISTENCY,
                    alpha,
                    (a, b),
                    f"link ({a}, {b}) on layer {alpha} has no supporter pair "
                    f"connected within layer {alpha - 1}",
                )
            )
    return sorted(out, key=Violation.sort_key)


def classify_interlayer(network: MultilayerNetwork, upper_index: int) -> InterlayerClass:
    """Classify every node incident to a cross-layer by the technology its
    projection pattern represents. Each projection carries the labels implied
    by its endpoint degrees and both endpoints inherit them; a node collecting
    more than one distinct label is mixed. Classes are keyed lower layer first,
    then upper layer, each in component (name) order, which is the order
    reports print."""
    network.cross_layer(upper_index)  # KeyError unless 2 <= upper_index <= depth
    supporters = network.substrate[upper_index - 1].supporters
    dependents = network.substrate[upper_index - 2].dependents
    lower_labels: list[set[NodeClass]] = [set() for _ in dependents]
    upper_labels: list[set[NodeClass]] = [set() for _ in supporters]
    for up, lows in enumerate(supporters):
        for low in lows:
            edge_labels: set[NodeClass] = set()
            if len(lows) > 1:
                edge_labels.add(NodeClass.CLUSTERING)
            if len(dependents[low]) > 1:
                edge_labels.add(NodeClass.VIRTUALIZATION_REPLICATION)
            if not edge_labels:
                edge_labels.add(NodeClass.DEDICATED)
            upper_labels[up] |= edge_labels
            lower_labels[low] |= edge_labels

    classes: dict[ComponentId, NodeClass] = {}
    for index, labels in ((upper_index - 1, lower_labels), (upper_index, upper_labels)):
        for comp, ls in zip(network.layer(index).components, labels):
            if ls:
                cls = next(iter(ls)) if len(ls) == 1 else NodeClass.MIXED
                classes[ComponentId(index, comp.name)] = cls
    return InterlayerClass(upper_index, classes)


def validate(network: MultilayerNetwork) -> ValidationReport:
    """Bundle node-support, cardinality, path-consistency and multiplex-cover
    checks plus per-cross-layer classification into one report."""
    violations: list[Violation] = []
    warnings: list[str] = list(network.warnings)

    violations.extend(check_node_support(network))
    violations.extend(check_path_consistency(network))

    for layer in network.layers:
        for link in multiplex.check_cover(layer):
            finding = Violation(
                ViolationKind.UNCOVERED_LINK,
                layer.index,
                link,
                f"link ({link[0]}, {link[1]}) on layer {layer.index} has no "
                "protocol shared by both endpoints",
            )
            if network.mode is Mode.STRICT:
                violations.append(finding)
            else:
                warnings.append(finding.detail)
        for p in multiplex.unused_protocols(layer):
            warnings.append(f"layer {layer.index}: protocol {p!r} induces no links")

    classes = tuple(
        classify_interlayer(network, cross.upper_index)
        for cross in network.cross_layers
    )
    return ValidationReport(
        mode=network.mode,
        violations=tuple(sorted(violations, key=Violation.sort_key)),
        warnings=tuple(warnings),
        interlayer_classes=classes,
    )
