"""Protocol-induced decomposition of a layer into multiplex sub-layers.

A link belongs to the sub-layer of protocol p iff both endpoints support p,
so the same link can live in several sub-layers at once. Every query here
reads one table, `Layer.link_protocols`, built once per layer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .model import Layer, Link


@dataclass(frozen=True)
class ProtocolSubLayer:
    layer_index: int
    protocol: str
    links: tuple[Link, ...]


def decompose_layer(layer: Layer) -> list[ProtocolSubLayer]:
    """Split a layer into one sub-layer per protocol that induces at least
    one link. Protocols inducing nothing are reported by `unused_protocols`,
    not emitted here."""
    by_protocol: dict[str, list[Link]] = {}
    for link, shared in zip(layer.links, layer.link_protocols):
        for p in shared:
            by_protocol.setdefault(p, []).append(link)
    return [
        ProtocolSubLayer(layer.index, p, tuple(sorted(by_protocol[p])))
        for p in sorted(by_protocol)
    ]


def unused_protocols(layer: Layer) -> list[str]:
    """Declared protocols that induce no link at all."""
    return sorted(set(layer.protocols).difference(*layer.link_protocols))


def check_cover(layer: Layer) -> list[Link]:
    """Links whose endpoints share no protocol; these links are lost by the
    decomposition, so an empty result means the sub-layer union reproduces
    the layer's link set exactly."""
    return sorted(
        link for link, shared in zip(layer.links, layer.link_protocols) if not shared
    )


def multiplex_multiplicity(layer: Layer) -> dict[Link, int]:
    """How many sub-layers each linked pair appears in; bounded by the size
    of the layer's protocol set."""
    return {link: len(shared) for link, shared in zip(layer.links, layer.link_protocols)}
