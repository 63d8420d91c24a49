import random

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from netstrata import analysis
from netstrata.analysis import (
    interlayer_degree_stats,
    layer_metrics,
    sublayer_metrics,
)
from netstrata.generators import random_layer, random_network
from netstrata.model import CrossLayer, Mode, build_network
from netstrata.multiplex import decompose_layer

from . import oracles
from .conftest import comp, layer


def test_path_graph_metrics():
    l = layer(1, [comp("a"), comp("b"), comp("c")], [("a", "b"), ("b", "c")])
    m = layer_metrics(l)
    assert m.node_count == 3
    assert m.link_count == 2
    assert m.degree_min == 1
    assert m.degree_mean == pytest.approx(4 / 3)
    assert m.degree_max == 2
    assert m.connected_components == 1
    assert m.largest_component_fraction == 1.0
    assert m.diameter_of_largest_component == 2
    assert m.articulation_points == ("b",)
    assert m.bridges == (("a", "b"), ("b", "c"))
    assert m.density == pytest.approx(2 / 3)


def test_isolated_node_metrics():
    m = layer_metrics(layer(1, [comp("solo")], []))
    assert m.node_count == 1
    assert m.density == 0.0
    assert m.connected_components == 1
    assert m.largest_component_fraction == 1.0
    assert m.diameter_of_largest_component == 0
    assert m.articulation_points == ()


def test_two_disjoint_links():
    l = layer(
        1,
        [comp("a"), comp("b"), comp("c"), comp("d")],
        [("a", "b"), ("c", "d")],
    )
    m = layer_metrics(l)
    assert m.connected_components == 2
    assert m.largest_component_fraction == 0.5
    assert m.diameter_of_largest_component == 1


def test_sublayer_metrics_ap(ap_layer):
    per_protocol = sublayer_metrics(ap_layer)
    assert set(per_protocol) == {"wired", "wireless"}
    wired = per_protocol["wired"]
    # full vertex set is kept: the wireless client is isolated in the wired view
    assert wired.node_count == 3
    assert wired.link_count == 1
    assert wired.connected_components == 2


def test_sublayer_metrics_single_protocol_identity():
    l = layer(1, [comp("a"), comp("b")], [("a", "b")])
    per_protocol = sublayer_metrics(l)
    assert per_protocol == {"p1": layer_metrics(l)}


def test_sublayer_metrics_skips_unused_protocol():
    l = layer(
        1,
        [comp("a", ["p1"]), comp("b", ["p1"])],
        [("a", "b")],
        protocols=["p1", "ghost"],
    )
    assert set(sublayer_metrics(l)) == {"p1"}


def test_interlayer_degree_stats_one_to_one(basic_stack_network):
    stats = interlayer_degree_stats(basic_stack_network, 2)
    assert stats.upper == {1: 2}
    assert stats.lower == {1: 2}


def test_interlayer_degree_stats_clustering():
    net = build_network(
        [
            layer(1, [comp("h1"), comp("h2"), comp("h3")], [("h1", "h2"), ("h2", "h3")]),
            layer(2, [comp("s1")], []),
        ],
        [CrossLayer.of(2, [("s1", "h1"), ("s1", "h2"), ("s1", "h3")])],
        Mode.RELAXED,
    )
    stats = interlayer_degree_stats(net, 2)
    assert stats.upper == {3: 1}
    assert stats.lower == {1: 3}


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_bipartite_handshake(seed):
    net = random_network(random.Random(seed), consistent=False)
    for cross in net.cross_layers:
        stats = interlayer_degree_stats(net, cross.upper_index)
        upper_sum = sum(d * c for d, c in stats.upper.items())
        lower_sum = sum(d * c for d, c in stats.lower.items())
        assert upper_sum == lower_sum == len(cross.projections)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=40, deadline=None)
def test_layer_handshake(seed):
    l = random_layer(random.Random(seed))
    m = layer_metrics(l)
    degree_sum = sum(
        sum(1 for link in l.links if name in link) for name in l.component_names
    )
    assert degree_sum == 2 * m.link_count


@given(seed=st.integers(0, 20_000), n_max=st.sampled_from([12, 40]))
@settings(max_examples=60, deadline=None)
def test_metrics_match_brute_force(seed, n_max):
    l = random_layer(random.Random(seed), n_min=1, n_max=n_max)
    nodes = sorted(l.component_names)
    cases = [(layer_metrics(l), list(l.links))]
    # sub-layers keep every node, so they bring isolated nodes and many components
    subs = {sub.protocol: list(sub.links) for sub in decompose_layer(l)}
    cases += [(m, subs[p]) for p, m in sublayer_metrics(l).items()]
    for m, links in cases:
        comps = oracles.bf_components(nodes, links)
        assert m.connected_components == len(comps)
        assert m.largest_component_fraction == pytest.approx(
            max(len(c) for c in comps) / len(nodes)
        )
        assert m.diameter_of_largest_component == oracles.bf_diameter_of_largest(
            nodes, links
        )
        assert set(m.articulation_points) == oracles.bf_articulation_points(nodes, links)
        assert set(m.bridges) == oracles.bf_bridges(nodes, links)


def test_largest_component_tie_goes_to_smallest_name():
    # {a, b, c} is a path of diameter 2, {d, e, f} a triangle of diameter 1
    links = [("a", "b"), ("b", "c"), ("d", "e"), ("e", "f"), ("d", "f")]
    l = layer(1, [comp(x) for x in "abcdef"], links)
    assert layer_metrics(l).diameter_of_largest_component == 2


@pytest.mark.parametrize("n", range(4, 9))
def test_complete_graph_minus_one_link_has_diameter_2(n):
    # Radius 1 and diameter 2: a search that stops one level early reads 1.
    names = [f"v{i}" for i in range(n)]
    full = [(a, b) for i, a in enumerate(names) for b in names[i + 1 :]]
    for missing in full:
        links = [lk for lk in full if lk != missing]
        l = layer(1, [comp(x) for x in names], links)
        assert layer_metrics(l).diameter_of_largest_component == 2, missing


@pytest.mark.parametrize("chunk", [1, analysis._DIAMETER_CHUNK])
def test_small_dense_graphs_match_brute_force(monkeypatch, chunk):
    # Small graphs with many links put the diameter's endpoints at any depth
    # of the central BFS tree, so each shortcut of the search shows on some.
    # One source per chunk also checks the stop rule between every two sources.
    monkeypatch.setattr(analysis, "_DIAMETER_CHUNK", chunk)
    rng = random.Random(20130)
    for _ in range(2000):
        names = [f"v{i:02d}" for i in range(rng.randint(3, 14))]
        p = rng.uniform(0.1, 0.6)
        links = [
            (a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < p
        ]
        m = layer_metrics(layer(1, [comp(x) for x in names], links))
        assert m.diameter_of_largest_component == oracles.bf_diameter_of_largest(
            names, links
        ), (names, links)


def test_long_path_needs_no_recursion():
    n = 2000  # deeper than the default recursion limit
    names = [f"v{i:04d}" for i in range(n)]
    # both ends sort mid-way, so the diameter shows only from a middle chunk
    path = names[n // 2 :] + names[: n // 2]
    m = layer_metrics(layer(1, [comp(x) for x in names], list(zip(path, path[1:]))))
    assert len(m.articulation_points) == n - 2
    assert len(m.bridges) == n - 1
    assert m.diameter_of_largest_component == n - 1


def _ring_with_chords(rng, names):
    chords = [tuple(rng.sample(names, 2)) for _ in range(rng.randint(0, len(names) // 4))]
    return list(zip(names, names[1:] + names[:1])) + chords


def _ring_with_offset_chords(rng, names):
    # As in a desk layer: the radius is about the diameter, so the diameter
    # search goes through about half the nodes, two chunks above 512 nodes.
    n = len(names)
    chords = [(names[i], names[(i + n // 3) % n]) for i in range(0, n, rng.randint(2, 5))]
    return list(zip(names, names[1:] + names[:1])) + chords


def _random_tree(rng, names):
    return [(v, names[rng.randrange(i)]) for i, v in enumerate(names) if i]


@given(
    seed=st.integers(0, 10_000),
    size=st.integers(257, 700),
    shape=st.sampled_from([_ring_with_chords, _ring_with_offset_chords, _random_tree]),
)
# No shrinking: each shrink step reruns the O(n(n+m)) oracle on hundreds of
# nodes, so a broken diameter would stall the run for minutes.
@settings(
    max_examples=25, deadline=None, phases=(Phase.explicit, Phase.reuse, Phase.generate)
)
def test_diameter_spanning_several_chunks_matches_brute_force(seed, size, shape):
    # The largest component holds more sources than one diameter chunk (256).
    rng = random.Random(seed)
    second = rng.randint(2, size - 1)
    names = [f"n{i:04d}" for i in range(size + second + rng.randint(1, 5))]
    rng.shuffle(names)  # so chunks mix nodes from every part of both shapes
    big, small = names[:size], names[size : size + second]
    links = shape(rng, big) + list(zip(small, small[1:]))  # the second is a path
    m = layer_metrics(layer(1, [comp(x) for x in names], links))
    assert m.connected_components == len(names) - size - second + 2
    assert m.diameter_of_largest_component == oracles.bf_diameter_of_largest(
        names, links
    )


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_articulation_point_removal_splits(seed):
    l = random_layer(random.Random(seed), n_min=2, n_max=10)
    nodes = sorted(l.component_names)
    links = list(l.links)
    base = len(oracles.bf_components(nodes, links))
    m = layer_metrics(l)
    for name in nodes:
        rest = [n for n in nodes if n != name]
        rest_links = [lk for lk in links if name not in lk]
        after = len(oracles.bf_components(rest, rest_links)) if rest else 0
        if name in m.articulation_points:
            assert after > base
        elif rest:
            assert after <= base


@given(seed=st.integers(0, 10_000))
@example(seed=9342)  # two components tie for largest, and the renaming swaps their order
@settings(max_examples=30, deadline=None)
def test_metrics_invariant_under_relabeling(seed):
    rng = random.Random(seed)
    l = random_layer(rng, n_min=2, n_max=10)
    names = sorted(l.component_names)
    mapping = {n: f"z{i}" for i, n in enumerate(rng.sample(names, len(names)))}
    renamed_links = [(mapping[a], mapping[b]) for a, b in l.links]
    a = layer_metrics(l)
    b = layer_metrics(layer(1, [comp(x) for x in mapping.values()], renamed_links))
    for field in (
        "node_count",
        "link_count",
        "density",
        "degree_min",
        "degree_mean",
        "degree_max",
        "connected_components",
        "largest_component_fraction",
    ):
        assert getattr(a, field) == getattr(b, field)
    # the tie rule for the largest component reads names, so each naming
    # is checked against the rule rather than against the other
    assert a.diameter_of_largest_component == oracles.bf_diameter_of_largest(names, l.links)
    assert b.diameter_of_largest_component == oracles.bf_diameter_of_largest(
        list(mapping.values()), renamed_links
    )
    assert len(a.articulation_points) == len(b.articulation_points)
    assert len(a.bridges) == len(b.bridges)
