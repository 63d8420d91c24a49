"""Independent checks of the CLI's outputs.

Every expected value is derived here from the generated `gen.Model`, with
code that shares nothing with netstrata: breadth-first search, a lowlink
pass for cut vertices and bridges, and a direct transcription of the
cascade rules (a node above the bottom fails once all its supporters have
failed; a link goes inactive once an endpoint failed or, above the bottom,
no surviving supporters of its endpoints are connected below; both rules
are evaluated against the state at the start of each round).

Each `check_*` method returns a list of error strings, empty when the
output is right.
"""

from __future__ import annotations

import json
import math
import random
from collections import deque

from gen import Model, name


def _labels(n: int, adj: list[list[int]], alive=None) -> list[int]:
    """Component label per node (-1 for nodes not alive)."""
    label = [-1] * n
    next_label = 0
    for s in range(n):
        if label[s] != -1 or (alive is not None and not alive[s]):
            continue
        label[s] = next_label
        queue = [s]
        for u in queue:
            for v in adj[u]:
                if label[v] == -1 and (alive is None or alive[v]):
                    label[v] = next_label
                    queue.append(v)
        next_label += 1
    return label


def _eccentricity(adj: list[list[int]], src: int) -> int:
    dist = {src: 0}
    queue = deque([src])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            if v not in dist:
                dist[v] = dist[u] + 1
                queue.append(v)
    return max(dist.values())


def _cut_elements(n: int, adj: list[list[int]]) -> tuple[set[int], set[tuple[int, int]]]:
    """Articulation points and bridges by an iterative lowlink search."""
    disc, low = [-1] * n, [0] * n
    points, bridges = set(), set()
    clock = 0
    for root in range(n):
        if disc[root] != -1:
            continue
        disc[root] = low[root] = clock
        clock += 1
        root_children = 0
        stack = [(root, -1, iter(adj[root]))]
        while stack:
            u, parent, it = stack[-1]
            for v in it:
                if v == parent:
                    continue
                if disc[v] == -1:
                    disc[v] = low[v] = clock
                    clock += 1
                    stack.append((v, u, iter(adj[v])))
                    break
                low[u] = min(low[u], disc[v])
            else:
                stack.pop()
                if parent == -1:
                    continue
                low[parent] = min(low[parent], low[u])
                if low[u] > disc[parent]:
                    bridges.add((min(u, parent), max(u, parent)))
                if parent == root:
                    root_children += 1
                elif low[u] >= disc[parent]:
                    points.add(parent)
        if root_children > 1:
            points.add(root)
    return points, bridges


def _shared(model: Model, k: int, a: int, b: int) -> set[str]:
    protos = model.protocols[k]
    return set(protos[a]) & set(protos[b])


class Expected:
    """Outputs the CLI must produce on `model`."""

    # Layers up to this size get an exact diameter; larger ones are bounded
    # by breadth-first searches from a few seeded sources.
    EXACT_DIAMETER_NODES = 500

    def __init__(self, model: Model, seed: int):
        self.model = model
        self.adj = []
        for k in range(model.depth):
            adj = [[] for _ in range(model.size(k + 1))]
            for a, b in model.links[k]:
                adj[a].append(b)
                adj[b].append(a)
            self.adj.append(adj)
        self.supporters = [None]
        for proj in model.projections:
            sup: dict[int, list[int]] = {}
            for up, low in proj:
                sup.setdefault(up, []).append(low)
            self.supporters.append(sup)
        rng = random.Random(seed)
        self.layer_stats = [self._layer_stats(k, rng) for k in range(model.depth)]

    def _layer_stats(self, k: int, rng: random.Random) -> dict:
        n, adj, m = self.model.size(k + 1), self.adj[k], len(self.model.links[k])
        label = _labels(n, adj)
        sizes: dict[int, int] = {}
        for lab in label:
            sizes[lab] = sizes.get(lab, 0) + 1
        big = max(sizes, key=sizes.get)
        members = [v for v in range(n) if label[v] == big]
        exact = len(members) <= self.EXACT_DIAMETER_NODES
        sources = members if exact else rng.sample(members, 8)
        ecc = [_eccentricity(adj, s) for s in sources]
        points, bridges = _cut_elements(n, adj)
        return {
            "node_count": n,
            "link_count": m,
            "density": 2.0 * m / (n * (n - 1)),
            "degree_min": min(map(len, adj)),
            "degree_mean": 2.0 * m / n,
            "degree_max": max(map(len, adj)),
            "connected_components": len(sizes),
            "largest_component_fraction": sizes[big] / n,
            "diameter": (max(ecc), max(ecc) if exact else 2 * min(ecc)),
            "articulation_points": sorted(name(v) for v in points),
            "bridges": sorted([name(a), name(b)] for a, b in bridges),
        }

    # -- validate ---------------------------------------------------------

    def _warnings(self) -> list[str]:
        out = []
        for k in range(self.model.depth):
            declared = {p for ps in self.model.protocols[k] for p in ps}
            induced = set()
            for a, b in self.model.links[k]:
                induced |= _shared(self.model, k, a, b)
            out += [
                f"layer {k + 1}: protocol {p!r} induces no links"
                for p in sorted(declared - induced)
            ]
        return out

    def _classes(self) -> list[dict]:
        out = []
        for k, proj in enumerate(self.model.projections, start=2):
            deg_up: dict[int, int] = {}
            deg_low: dict[int, int] = {}
            for up, low in proj:
                deg_up[up] = deg_up.get(up, 0) + 1
                deg_low[low] = deg_low.get(low, 0) + 1
            labels: dict[str, set[str]] = {}
            for up, low in proj:
                got = set()
                if deg_up[up] > 1:
                    got.add("clustering")
                if deg_low[low] > 1:
                    got.add("virtualization-replication")
                if deg_up[up] == 1 and deg_low[low] == 1:
                    got.add("dedicated")
                labels.setdefault(f"{k}/{name(up)}", set()).update(got)
                labels.setdefault(f"{k - 1}/{name(low)}", set()).update(got)
            classes = {
                node: next(iter(got)) if len(got) == 1 else "mixed"
                for node, got in labels.items()
            }
            out.append({"upper_index": k, "classes": classes})
        return out

    def check_validate(self, stdout: str) -> list[str]:
        report = json.loads(stdout)
        errors = []
        if report.get("kind") != "validation" or report.get("passed") is not True:
            errors.append("validation did not pass")
        if report.get("violations") != []:
            errors.append(f"unexpected violations: {report.get('violations')!r:.200}")
        if report.get("warnings") != self._warnings():
            errors.append(f"warnings {report.get('warnings')!r:.200}")
        classes = [
            {"upper_index": c.get("upper_index"), "classes": c.get("classes")}
            for c in report.get("interlayer_classes", [])
        ]
        if classes != self._classes():
            errors.append("interlayer classes differ from the projection degrees")
        return errors

    # -- metrics ----------------------------------------------------------

    def check_metrics(self, stdout: str) -> list[str]:
        report = json.loads(stdout)
        layers = report.get("layers", {})
        if report.get("kind") != "metrics" or sorted(layers, key=int) != [
            str(k + 1) for k in range(self.model.depth)
        ]:
            return ["metrics report does not list every layer"]
        errors = []
        for k, want in enumerate(self.layer_stats, start=1):
            got = layers[str(k)]
            for key, value in want.items():
                if key == "diameter":
                    lo, hi = value
                    d = got.get("diameter_of_largest_component")
                    if not (isinstance(d, int) and lo <= d <= hi):
                        errors.append(f"layer {k}: diameter {d} outside [{lo}, {hi}]")
                elif isinstance(value, float):
                    if not math.isclose(got.get(key, math.nan), value, rel_tol=1e-12):
                        errors.append(f"layer {k}: {key} {got.get(key)} != {value}")
                elif got.get(key) != value:
                    errors.append(f"layer {k}: {key} {got.get(key)!r:.80} != {value!r:.80}")
        return errors

    # -- cascades ---------------------------------------------------------

    def cascade(self, bottom: int) -> dict:
        """Reference cascade after failing bottom node `bottom`, in the form
        of the machine cascade report's node, link and survival fields."""
        model, depth = self.model, self.model.depth
        failed = [set() for _ in range(depth)]
        failed[0].add(bottom)
        inactive = [set() for _ in range(depth)]
        rounds = []
        while True:
            new_failed = [set() for _ in range(depth)]
            for k in range(1, depth):
                for up, sups in self.supporters[k].items():
                    if up not in failed[k] and all(s in failed[k - 1] for s in sups):
                        new_failed[k].add(up)
            new_inactive = [set() for _ in range(depth)]
            for k in range(depth):
                below = None
                for link in model.links[k]:
                    if link in inactive[k]:
                        continue
                    a, b = link
                    if a in failed[k] or b in failed[k]:
                        new_inactive[k].add(link)
                        continue
                    if k == 0:
                        continue
                    if below is None:
                        below = self._survivor_labels(k - 1, failed, inactive)
                    sup = self.supporters[k]
                    comps_a = {below[s] for s in sup.get(a, ()) if below[s] != -1}
                    comps_b = {below[s] for s in sup.get(b, ()) if below[s] != -1}
                    if not comps_a & comps_b:
                        new_inactive[k].add(link)
            if not any(new_failed) and not any(new_inactive):
                break
            rounds.append((_node_ids(new_failed), _link_refs(new_inactive)))
            for k in range(depth):
                failed[k] |= new_failed[k]
                inactive[k] |= new_inactive[k]

        survival, largest = {}, {}
        for k in range(depth):
            n = model.size(k + 1)
            label = self._survivor_labels(k, failed, inactive)
            alive = n - len(failed[k])
            sizes: dict[int, int] = {}
            for lab in label:
                if lab != -1:
                    sizes[lab] = sizes.get(lab, 0) + 1
            survival[str(k + 1)] = alive / n
            largest[str(k + 1)] = max(sizes.values()) / alive if alive else 0.0
        functional = [k for k in range(depth) if model.roles[k] == "functional"]
        return {
            "rounds": rounds,
            "final_failed_nodes": _node_ids(failed),
            "final_inactive_links": _link_refs(inactive),
            "per_layer_survival": survival,
            "per_layer_largest_component_fraction": largest,
            "functional_alive": any(len(failed[k]) < model.size(k + 1) for k in functional)
            if functional else True,
        }

    def _survivor_labels(self, k, failed, inactive) -> list[int]:
        n = self.model.size(k + 1)
        adj = [[] for _ in range(n)]
        for link in self.model.links[k]:
            a, b = link
            if link not in inactive[k] and a not in failed[k] and b not in failed[k]:
                adj[a].append(b)
                adj[b].append(a)
        return _labels(n, adj, [v not in failed[k] for v in range(n)])

    def check_cascade(self, stdout: str, want: dict) -> list[str]:
        """Compare a machine cascade report with `cascade(bottom)`."""
        report = json.loads(stdout)
        got_rounds = [
            (r.get("failed_nodes"), [(i, tuple(l)) for i, l in r.get("inactive_links", [])])
            for r in report.get("rounds", [])
        ]
        errors = []
        if report.get("kind") != "cascade":
            errors.append("not a cascade report")
        if got_rounds != want["rounds"]:
            errors.append(f"rounds differ: {len(got_rounds)} reported, {len(want['rounds'])} expected")
        if report.get("final_failed_nodes") != want["final_failed_nodes"]:
            errors.append("final failed nodes differ")
        got_links = [(i, tuple(l)) for i, l in report.get("final_inactive_links", [])]
        if got_links != want["final_inactive_links"]:
            errors.append("final inactive links differ")
        for key in ("per_layer_survival", "per_layer_largest_component_fraction"):
            got = report.get(key, {})
            if set(got) != set(want[key]) or any(
                not math.isclose(got[k], v, rel_tol=1e-12, abs_tol=1e-15)
                for k, v in want[key].items()
            ):
                errors.append(f"{key} differs")
        if report.get("functional_alive") is not want["functional_alive"]:
            errors.append("functional_alive differs")
        return errors

    def campaign(self) -> list[tuple[str, bool, int]]:
        """Reference `simulate --exhaustive` ranking: (node, functional
        alive, failed count), functional kills first, then most failed."""
        entries = []
        for v in range(self.model.size(1)):
            result = self.cascade(v)
            entries.append(
                (f"1/{name(v)}", result["functional_alive"], len(result["final_failed_nodes"]))
            )
        return sorted(entries, key=lambda e: (e[1], -e[2], e[0]))

    def check_campaign(self, stdout: str, want: list[tuple[str, bool, int]]) -> list[str]:
        """Compare a machine campaign report with `campaign()`."""
        report = json.loads(stdout)
        got = [
            (e.get("node"), e.get("functional_alive"), e.get("failed_count"))
            for e in report.get("entries", [])
        ]
        if report.get("kind") != "campaign":
            return ["not a campaign report"]
        if got == want:
            return []
        bad = sum(g != w for g, w in zip(got, want)) + abs(len(got) - len(want))
        return [f"{bad} of {len(want)} campaign entries differ"]


def _node_ids(failed: list[set[int]]) -> list[str]:
    return sorted(f"{k + 1}/{name(v)}" for k, nodes in enumerate(failed) for v in nodes)


def _link_refs(inactive: list[set[tuple[int, int]]]) -> list[tuple[int, tuple[str, str]]]:
    return sorted(
        (k + 1, (name(a), name(b))) for k, links in enumerate(inactive) for a, b in links
    )
