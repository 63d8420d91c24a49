"""Seeded `.mln.json` inputs for the benchmark workloads.

The documents are built and written here, without importing netstrata, so
that two commits under comparison read byte-identical inputs. Each generator
returns a `Model`: plain lists the checker also reads to derive the outputs
it expects.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

# The desk stack from bottom to top; every workload model has these 5 layers.
ROLES = ("engineering-environment", "physical", "logical", "service", "functional")
KINDS = {"engineering-environment": "engineering-system", "physical": "hardware"}


def name(i: int) -> str:
    return f"n{i:05d}"


@dataclass
class Model:
    """Layer k (1-based) is `links[k-1]` over nodes 0..n-1 of `protocols[k-1]`;
    `projections[k-2]` lists (upper, lower) node pairs from layer k to k-1.
    Links and projections are sorted index pairs, links with a < b."""

    roles: list[str]
    protocols: list[list[tuple[str, ...]]]
    links: list[list[tuple[int, int]]]
    projections: list[list[tuple[int, int]]]

    @property
    def depth(self) -> int:
        return len(self.links)

    def size(self, layer: int) -> int:
        return len(self.protocols[layer - 1])

    def document(self) -> str:
        """Canonical document text: components, links and projections sorted
        by name, indented by two, as the format's canonical writer does."""
        layers = []
        for k in range(self.depth):
            kind = KINDS.get(self.roles[k], "software")
            protos = self.protocols[k]
            layers.append({
                "role": self.roles[k],
                "protocols": sorted({p for ps in protos for p in ps}),
                "components": [
                    {"name": name(i), "kind": kind, "protocols": list(ps)}
                    for i, ps in enumerate(protos)
                ],
                "links": [[name(a), name(b)] for a, b in self.links[k]],
            })
        data = {
            "format_version": "1",
            "mode": "strict",
            "layers": layers,
            "cross_layers": [
                {
                    "upper_index": k + 2,
                    "projections": [[name(u), name(l)] for u, l in proj],
                }
                for k, proj in enumerate(self.projections)
            ],
        }
        return json.dumps(data, indent=2) + "\n"


def _ring_plus(n: int, chords: set[tuple[int, int]]) -> list[tuple[int, int]]:
    ring = {(min(i, (i + 1) % n), max(i, (i + 1) % n)) for i in range(n)}
    return sorted(ring | chords)


def _dual_homed(n: int, depth: int) -> list[list[tuple[int, int]]]:
    """Node i of every upper layer projects onto nodes i and i+1 below."""
    proj = sorted({(i, i) for i in range(n)} | {(i, (i + 1) % n) for i in range(n)})
    return [proj] * (depth - 1)


def _eth_fiber(n: int) -> list[tuple[str, ...]]:
    return [("eth", "fiber") if i % 2 == 0 else ("eth",) for i in range(n)]


def desk() -> Model:
    """The fixed desk model: 5 layers, each the same ring of 2000 nodes plus
    800 chords of span n//3, every node dual-homed. Same topology as
    `netstrata.generators.desk_model()`."""
    layers, n, chords = 5, 2000, 800
    step, offset = n // chords, n // 3
    ring = set(_ring_plus(n, set()))
    added: set[tuple[int, int]] = set()
    i = 0
    while len(added) < chords:
        a, b = i % n, (i + offset) % n
        link = (min(a, b), max(a, b))
        if link not in ring and link not in added:
            added.add(link)
        i += step
    links = _ring_plus(n, added)
    return Model(list(ROLES), [_eth_fiber(n)] * layers, [links] * layers, _dual_homed(n, layers))


def fragile(seed: int) -> Model:
    """5 layers of 200 nodes, each a random spanning tree plus 20 random
    links; 80% of upper nodes have one supporter, the rest two. Single
    bottom faults cascade over up to 4 rounds, yet every upper link has a
    supporter path below, so strict validation passes."""
    layers, n = 5, 200
    rng = random.Random(seed)
    all_links, all_proj = [], []
    for k in range(layers):
        order = list(range(n))
        rng.shuffle(order)
        links = {
            tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)
        }
        target = len(links) + n // 10
        while len(links) < target:
            links.add(tuple(sorted(rng.sample(range(n), 2))))
        all_links.append(sorted(links))
        if k:
            proj = set()
            for u in range(n):
                count = 1 if rng.random() < 0.8 else 2
                proj.update((u, low) for low in rng.sample(range(n), count))
            all_proj.append(sorted(proj))
    return Model(list(ROLES), [[("eth",)] * n] * layers, all_links, all_proj)
