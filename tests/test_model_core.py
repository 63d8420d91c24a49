import dataclasses
import random

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
from netstrata.graphutil import component_labels

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


def test_empty_layer_set():
    with pytest.raises(ModelError, match=exactly("a network needs at least one layer")) as exc:
        build_network([])
    assert exc.value.path == "layers"
    with pytest.raises(ModelError, match=exactly("layer 1 has no components")) as exc:
        build_network([layer(1, [])])
    assert exc.value.path == "layers[0].components"


def test_duplicate_component_name():
    with pytest.raises(ModelError, match=exactly("layer 1: duplicate component name 'x'")) as exc:
        build_network([layer(1, [comp("x"), comp("x")], [])], mode=Mode.RELAXED)
    assert exc.value.path == "layers[0].components[1].name"


def test_dangling_link_endpoint():
    message = "layer 1: link ('a', 'ghost') references unknown component 'ghost'"
    with pytest.raises(ModelError, match=exactly(message)) as exc:
        build_network([layer(1, [comp("a"), comp("b")], [("a", "ghost")])])
    assert exc.value.path == "layers[0].links[0]"


def test_self_loop_rejected():
    with pytest.raises(ModelError, match=exactly("layer 1: self-loop on 'a'")) as exc:
        build_network([layer(1, [comp("a"), comp("b")], [("a", "a")])])
    assert exc.value.path == "layers[0].links[0]"


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
    with pytest.raises(ModelError, match=exactly(message)) as exc:
        build_network([layer(1, [comp("a", [])])], mode=Mode.RELAXED)
    assert exc.value.path == "layers[0].components[0].protocols"


def test_undeclared_protocol():
    message = "layer 1: component 'a' uses protocols ['p9'] missing from the layer protocol set"
    with pytest.raises(ModelError, match=exactly(message)) as exc:
        build_network(
            [layer(1, [comp("a", ["p9"])], [], protocols=["p1"])],
            mode=Mode.RELAXED,
        )
    assert exc.value.path == "layers[0].components[0].protocols"


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
    with pytest.raises(dataclasses.FrozenInstanceError):
        two_layer_network.mode = Mode.STRICT
    with pytest.raises(dataclasses.FrozenInstanceError):
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
    labels = component_labels(nodes, links)
    assert list(labels) == nodes
    groups = {}
    for n, lab in labels.items():
        groups.setdefault(lab, set()).add(n)
    assert sorted(map(sorted, groups.values())) == sorted(
        map(sorted, oracles.bf_components(nodes, links))
    )
    first_seen = list(dict.fromkeys(labels.values()))
    assert first_seen == list(range(len(groups)))


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
        layers = [dataclasses.replace(l, components=net.layer(l.index).components) for l in layers]
    crosses = [
        CrossLayer(c.upper_index, tuple(_scrambled(c.projections, how, rng)))
        for c in reversed(net.cross_layers)
    ]
    assert build_network(layers, crosses, net.mode) == net
