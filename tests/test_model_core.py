import json
import random
from collections import Counter

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstrata.model import (
    ComponentId,
    ComponentKind,
    CrossLayer,
    Layer,
    LayerRole,
    Mode,
    ModelError,
    build_network,
)
from netstrata.generators import random_network
from netstrata.graphutil import Graph, component_labels
from netstrata.model_io import ModelParseError, parse_model

from . import oracles
from .conftest import comp, exactly, layer


def test_single_layer_base_case():
    net = build_network([layer(1, [comp("h1"), comp("h2")], [("h1", "h2")])])
    flat = net.flatten()
    assert net.depth == 1
    assert len(flat.vertices) == 2
    assert len(flat.edges) == 1


def test_two_layer_flatten_counts(two_layer_network):
    flat = two_layer_network.flatten()
    assert len(flat.vertices) == 3
    assert len(flat.edges) == 2
    assert {str(v) for v in flat.vertices} == {"1/h1", "1/h2", "2/s1"}
    intra = [e for e in flat.edges if not e.interlayer]
    cross = [e for e in flat.edges if e.interlayer]
    assert len(intra) == 1 and len(cross) == 1
    assert cross[0].source == ComponentId(2, "s1")
    assert cross[0].target == ComponentId(1, "h1")


def test_three_layer_flatten_arithmetic():
    net = build_network(
        [
            layer(1, [comp("a"), comp("b")], [("a", "b")]),
            layer(2, [comp("c"), comp("d")], [("c", "d")]),
            layer(3, [comp("e")]),
        ],
        [
            CrossLayer.of(2, [("c", "a"), ("d", "b")]),
            CrossLayer.of(3, [("e", "c")]),
        ],
        Mode.RELAXED,
    )
    flat = net.flatten()
    assert len(flat.vertices) == 5
    assert len(flat.edges) == 5


def test_missing_cross_layer():
    message = "no cross-layer between layer 2 and layer 1"
    with pytest.raises(ModelError, match=exactly(message)) as exc:
        build_network(
            [
                layer(1, [comp("h1"), comp("h2")], [("h1", "h2")]),
                layer(2, [comp("s1")]),
            ],
            [],
            Mode.RELAXED,
        )
    assert exc.value.path == "cross_layers"


def assert_rejected(message, path, components, links=(), protocols=None, mode=Mode.STRICT):
    """`build_network` rejects layer 1 of these arguments, as written, with
    `message` at `path` under `layers[0].`, and `Layer.of` at `path` itself."""
    if protocols is None:
        protocols = sorted({p for c in components for p in c.protocols})
    raw = Layer(1, LayerRole.CUSTOM, tuple(components), tuple(links), tuple(protocols))
    with pytest.raises(ModelError, match=exactly(message)) as exc:
        build_network([raw], mode=mode)
    assert exc.value.path == f"layers[0].{path}"
    with pytest.raises(ModelError, match=exactly(message)) as exc:
        Layer.of(1, components, links, protocols=protocols)
    assert exc.value.path == path


def test_empty_layer_set():
    with pytest.raises(ModelError, match=exactly("a network needs at least one layer")) as exc:
        build_network([])
    assert exc.value.path == "layers"
    assert_rejected("layer 1 has no components", "components", [])


def test_duplicate_component_name():
    message = "layer 1: duplicate component name 'x'"
    assert_rejected(message, "components[1].name", [comp("x"), comp("x")], mode=Mode.RELAXED)


def test_dangling_link_endpoint():
    message = "layer 1: link ('a', 'ghost') references unknown component 'ghost'"
    assert_rejected(message, "links[0]", [comp("a"), comp("b")], [("a", "ghost")])


def test_self_loop_rejected():
    message = "layer 1: self-loop on 'a'"
    assert_rejected(message, "links[0]", [comp("a"), comp("b")], [("a", "a")])


def test_empty_edge_set_strict_vs_relaxed():
    layers = [layer(1, [comp("lonely")])]
    with pytest.raises(ModelError, match=exactly("layer 1 has no links (strict mode)")) as exc:
        build_network(layers, mode=Mode.STRICT)
    assert exc.value.path == "layers[0].links"
    net = build_network(layers, mode=Mode.RELAXED)
    assert any("no links" in w for w in net.warnings)


def test_cross_layer_index_mismatch():
    layers = [
        layer(1, [comp("a"), comp("b")], [("a", "b")]),
        layer(2, [comp("c"), comp("d")], [("c", "d")]),
    ]
    message = "cross-layer upper index 5 is outside 2..2"
    with pytest.raises(ModelError, match=exactly(message)) as exc:
        build_network(layers, [CrossLayer.of(5, [("c", "a")])], Mode.RELAXED)
    assert exc.value.path == "cross_layers[0].upper_index"
    with pytest.raises(ModelError, match=exactly("duplicate cross-layer for upper index 2")) as exc:
        build_network(
            layers,
            [CrossLayer.of(2, [("c", "a")]), CrossLayer.of(2, [("d", "b")])],
            Mode.RELAXED,
        )
    assert exc.value.path == "cross_layers[1].upper_index"


def test_model_error_path_indexes_the_input_as_given():
    def raw_layer(index, names, links):
        return Layer(index, LayerRole.CUSTOM, tuple(comp(n) for n in names), links, ("p1",))

    layers = [
        raw_layer(3, ["e", "f"], (("e", "f"),)),
        raw_layer(1, ["b", "a"], (("b", "zed"), ("b", "a"))),
        raw_layer(2, ["d", "c"], (("d", "c"),)),
    ]
    crosses = [CrossLayer(3, (("e", "c"), ("f", "d"))), CrossLayer(2, (("d", "b"), ("c", "a")))]
    message = "layer 1: link ('b', 'zed') references unknown component 'zed'"
    with pytest.raises(ModelError, match=exactly(message)) as exc:
        build_network(layers, crosses)
    assert exc.value.path == "layers[1].links[0]"

    layers[1] = raw_layer(1, ["b", "a"], (("b", "a"),))
    crosses[1] = CrossLayer(2, (("d", "b"), ("ghost", "a"), ("c", "a")))
    message = (
        "cross-layer 2->1: projection ('ghost', 'a') references unknown upper component 'ghost'"
    )
    with pytest.raises(ModelError, match=exactly(message)) as exc:
        build_network(layers, crosses)
    assert exc.value.path == "cross_layers[1].projections[1]"

    layers[2] = raw_layer(2, ["d", "c", "d"], (("d", "c"),))
    with pytest.raises(ModelError, match=exactly("layer 2: duplicate component name 'd'")) as exc:
        build_network(layers, crosses)
    assert exc.value.path == "layers[2].components[2].name"


@pytest.mark.parametrize(
    "names, links, projections, message, path",
    [
        (
            ["a", "b"], [("a", "a"), ("a", "zed")], [],
            "layer 1: self-loop on 'a'", "layers[0].links[0]",
        ),
        (
            ["a", "b"], [("a", "zed"), ("b", "b")], [],
            "layer 1: link ('a', 'zed') references unknown component 'zed'", "layers[0].links[0]",
        ),
        (
            ["", "b", "b"], [("b", "c")], [],
            "layer 1: component name must be non-empty", "layers[0].components[0].name",
        ),
        (
            ["b", "b", ""], [("b", "c")], [],
            "layer 1: duplicate component name 'b'", "layers[0].components[1].name",
        ),
        (  # every component is checked before the first link
            ["a", "b/c"], [("a", "a")], [],
            "layer 1: component name 'b/c' contains '/'", "layers[0].components[1].name",
        ),
        (
            ["a", "b"], [("a", "b")], [("x", "ghost"), ("ghost", "a")],
            "cross-layer 2->1: projection ('x', 'ghost') references unknown lower component "
            "'ghost'",
            "cross_layers[0].projections[2]",
        ),
    ],
    ids=[
        "self-loop-then-unknown", "unknown-then-self-loop", "empty-then-duplicate",
        "duplicate-then-empty", "component-before-link", "two-unknown-projection-ends",
    ],
)
def test_the_first_of_two_faults_in_an_array_is_reported(names, links, projections, message, path):
    # The whole-array passes find that an array has a fault; the one reported
    # is the first in input order, at the path the input gives it.
    raw = [
        Layer(1, LayerRole.CUSTOM, tuple(comp(n) for n in names), tuple(links), ("p1",)),
        Layer(2, LayerRole.CUSTOM, (comp("x"), comp("y")), (("x", "y"),), ("p1",)),
    ]
    projections = [("x", "a"), ("y", "b"), *projections]
    with pytest.raises(ModelError, match=exactly(message)) as exc:
        build_network(raw, [CrossLayer(2, tuple(projections))])
    assert exc.value.path == path

    document = {
        "format_version": "1",
        "layers": [
            {
                "role": "custom",
                "protocols": ["p1"],
                "components": [{"name": n, "kind": "hardware", "protocols": ["p1"]} for n in c],
                "links": [list(link) for link in ls],
            }
            for c, ls in ((names, links), (["x", "y"], [("x", "y")]))
        ],
        "cross_layers": [{"upper_index": 2, "projections": [list(p) for p in projections]}],
    }
    with pytest.raises(ModelParseError) as exc:
        parse_model(json.dumps(document))
    assert (exc.value.message, exc.value.position) == (message, f"$.{path}")


def test_the_first_of_two_shape_faults_in_an_array_is_reported():
    components = [{"name": "a", "kind": "hardware", "protocols": ["p1"]}] * 2
    document = {
        "format_version": "1",
        "layers": [{"role": "custom", "components": components, "links": [["a", 1], ["a"]]}],
    }
    with pytest.raises(ModelParseError) as exc:
        parse_model(json.dumps(document))
    assert (exc.value.message, exc.value.position) == (
        "expected a string, got int", "$.layers[0].links[0][1]"
    )


def test_layer_index_gap():
    message = "layer indices must be exactly 1..N, got [1, 3]"
    with pytest.raises(ModelError, match=exactly(message)) as exc:
        build_network(
            [
                layer(1, [comp("a")], []),
                layer(3, [comp("b")], []),
            ],
            mode=Mode.RELAXED,
        )
    assert exc.value.path == "layers"


def test_empty_spec_set():
    message = "layer 1: component 'a' declares no protocols"
    assert_rejected(message, "components[0].protocols", [comp("a", [])], mode=Mode.RELAXED)


def test_undeclared_protocol():
    message = "layer 1: component 'a' uses protocols ['p9'] missing from the layer protocol set"
    assert_rejected(
        message, "components[0].protocols", [comp("a", ["p9"])], protocols=["p1"],
        mode=Mode.RELAXED,
    )


def test_declared_superset_warns_when_unused():
    net = build_network(
        [layer(1, [comp("a", ["p1"]), comp("b", ["p1"])], [("a", "b")], protocols=["p1", "p2"])],
    )
    assert any("p2" in w for w in net.warnings)


def test_same_name_on_different_layers_is_fine():
    net = build_network(
        [
            layer(1, [comp("db"), comp("x")], [("db", "x")]),
            layer(2, [comp("db", kind=ComponentKind.SOFTWARE)]),
        ],
        [CrossLayer.of(2, [("db", "db")])],
        Mode.RELAXED,
    )
    assert ComponentId(1, "db") in net.flatten().vertices
    assert ComponentId(2, "db") in net.flatten().vertices


def test_build_is_deterministic_up_to_input_order(two_layer_network):
    net2 = build_network(
        [
            layer(2, [comp("s1", kind=ComponentKind.SOFTWARE)], [], LayerRole.SERVICE),
            layer(1, [comp("h2"), comp("h1")], [("h2", "h1")], LayerRole.PHYSICAL),
        ],
        [CrossLayer.of(2, [("s1", "h1")])],
        Mode.RELAXED,
    )
    assert net2 == two_layer_network


def test_rebuild_round_trip(two_layer_network):
    rebuilt = build_network(
        two_layer_network.layers,
        two_layer_network.cross_layers,
        two_layer_network.mode,
    )
    assert rebuilt == two_layer_network


def test_networks_are_immutable(two_layer_network):
    with pytest.raises(AttributeError):
        two_layer_network.mode = Mode.STRICT
    with pytest.raises(AttributeError):
        two_layer_network.layers[0].index = 9


@given(seed=st.integers(0, 10_000), consistent=st.booleans())
@settings(max_examples=60, deadline=None)
def test_flatten_counts_match_unions(seed, consistent):
    net = random_network(random.Random(seed), consistent=consistent)
    flat = net.flatten()
    assert len(flat.vertices) == sum(len(l.components) for l in net.layers)
    assert len(flat.edges) == sum(len(l.links) for l in net.layers) + sum(
        len(c.projections) for c in net.cross_layers
    )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_component_labels_partition_in_first_seen_order(seed):
    rng = random.Random(seed)
    nodes = [f"v{i}" for i in rng.sample(range(40), rng.randint(1, 20))]
    links = [
        tuple(rng.sample(nodes, 2)) for _ in range(rng.randint(0, 25)) if len(nodes) > 1
    ]

    def check(labels, survivors, active):
        """`labels` (name -> label of each survivor) split `survivors` as the
        oracle does over `active`, numbered 0, 1, 2, ... in first-seen order."""
        groups = {}
        for n, lab in labels.items():
            groups.setdefault(lab, set()).add(n)
        assert sorted(map(sorted, groups.values())) == sorted(
            map(sorted, oracles.bf_components(survivors, active))
        )
        first_seen = list(dict.fromkeys(labels.values()))
        assert first_seen == list(range(len(groups)))

    labels = component_labels(nodes, links)
    assert list(labels) == nodes
    check(labels, nodes, links)

    # The same graph with its nodes numbered as listed.
    index = {n: i for i, n in enumerate(nodes)}
    graph = Graph.of(len(nodes), [(index[a], index[b]) for a, b in links])
    assert graph.components() == graph.labels == list(labels.values())
    assert graph.sizes == Counter(graph.labels)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=150, deadline=None)
def test_split_search_matches_oracle(seed):
    """Batches of node failures and link removals applied in turn: after each,
    `Graph.split` leaves labels that partition the survivors as the oracle
    does over the active links, sizes that count them, and every relabelled
    node in the moved set."""
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    links = sorted(
        {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, 2 * n))}
        if n > 1
        else ()
    )
    graph = Graph.of(n, links)
    labels, sizes = list(graph.labels), dict(graph.sizes)
    inactive = bytearray(len(links))
    gone, cut = set(), set()
    while len(gone) < n:
        alive = [v for v in range(n) if v not in gone]
        active = [j for j in range(len(links)) if j not in cut]
        nodes = set(rng.sample(alive, rng.randint(0, min(3, len(alive)))))
        batch = set(rng.sample(active, rng.randint(0, min(4, len(active)))))
        if not (nodes or batch):
            nodes = {rng.choice(alive)}
        gone |= nodes
        cut |= batch
        before = list(labels)
        moved = graph.split(labels, sizes, inactive, nodes, batch)

        assert {j for j in range(len(links)) if inactive[j]} == cut
        assert {v for v in range(n) if labels[v] < 0} == gone
        survivors = [v for v in range(n) if v not in gone]
        live = [
            (a, b)
            for j, (a, b) in enumerate(links)
            if j not in cut and a not in gone and b not in gone
        ]
        groups = {}
        for v in survivors:
            groups.setdefault(labels[v], set()).add(v)
        assert sorted(map(sorted, groups.values())) == sorted(
            map(sorted, oracles.bf_components(survivors, live))
        )
        assert {lab: c for lab, c in sizes.items() if c} == Counter(labels[v] for v in survivors)
        assert sorted(sizes) == list(range(len(sizes)))
        assert len(set(moved)) == len(moved) and set(moved[: len(nodes)]) == nodes
        assert {v for v in range(n) if labels[v] != before[v]} <= set(moved)


def _scrambled(items, how, rng):
    """`items` (canonical, strictly increasing) out of canonical order: in
    reverse, with one adjacent pair swapped, or with one element repeated."""
    items = list(items)
    if how == "reverse":
        return items[::-1]
    if len(items) > 1:
        i = rng.randrange(len(items) - 1)
        if how == "swap":
            items[i], items[i + 1] = items[i + 1], items[i]
        else:
            items.insert(i, items[i])
    return items


@given(
    seed=st.integers(0, 10_000),
    consistent=st.booleans(),
    how=st.sampled_from(["reverse", "swap", "duplicate"]),
    flip=st.booleans(),
)
@settings(max_examples=150, deadline=None)
def test_build_network_canonicalizes_input_out_of_order(seed, consistent, how, flip):
    # A canonical document hands build_network sorted input, which sorts in
    # one linear pass; input in any other order must still come out canonical.
    net = random_network(random.Random(seed), consistent=consistent)
    rng = random.Random(seed)
    layers = [
        Layer(
            l.index, l.role, tuple(_scrambled(l.components, how, rng)),
            tuple((b, a) if flip and rng.random() < 0.5 else (a, b)
                  for a, b in _scrambled(l.links, how, rng)),
            l.protocols[::-1],
        )
        for l in reversed(net.layers)
    ]
    if how == "duplicate":  # a repeated component is an error, so keep them canonical
        layers = [l._replace(components=net.layer(l.index).components) for l in layers]
    crosses = [
        CrossLayer(c.upper_index, tuple(_scrambled(c.projections, how, rng)))
        for c in reversed(net.cross_layers)
    ]
    assert build_network(layers, crosses, net.mode) == net
