import random
from unittest.mock import patch

import pytest
from hypothesis import Phase, example, given, settings
from hypothesis import strategies as st

from netstrata import analysis
from netstrata.analysis import layer_metrics
from netstrata.generators import random_layer
from netstrata.graphutil import Graph
from netstrata.multiplex import decompose_layer

from . import oracles
from .conftest import comp, layer


def diameters_by_each_path(l):
    """`l`'s diameter with every fringe search in scipy, then with every one
    in Python. Small graphs take the Python path unless told otherwise."""
    diameters = []
    for budget in (0, 10**12):
        with patch.object(analysis, "_PYTHON_BFS_VISITS", budget):
            diameters.append(layer_metrics(l).diameter_of_largest_component)
    return diameters


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
    subs = [layer(l.index, l.components, s.links, l.role, l.protocols) for s in decompose_layer(l)]
    cases += [(layer_metrics(sub), list(sub.links)) for sub in subs]
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
        assert diameters_by_each_path(l) == [2, 2], missing


@pytest.mark.parametrize("chunk", [1, analysis._DIAMETER_CHUNK])
def test_small_dense_graphs_match_brute_force(monkeypatch, chunk):
    # Small graphs with many links put the diameter's endpoints at any depth
    # of the central BFS tree, so each shortcut of the search shows on some.
    # One source per chunk also checks the compiled path's stop rule between
    # every two sources, as the Python path always does.
    monkeypatch.setattr(analysis, "_DIAMETER_CHUNK", chunk)
    rng = random.Random(20130)
    for _ in range(2000):
        names = [f"v{i:02d}" for i in range(rng.randint(3, 14))]
        p = rng.uniform(0.1, 0.6)
        links = [
            (a, b) for i, a in enumerate(names) for b in names[i + 1 :] if rng.random() < p
        ]
        expected = oracles.bf_diameter_of_largest(names, links)
        l = layer(1, [comp(x) for x in names], links)
        assert diameters_by_each_path(l) == [expected, expected], (names, links)


def test_rings_with_few_chords_match_brute_force():
    # On a ring with a few chords the sweeps often fall short of the diameter
    # and fringe nodes of equal depth differ in eccentricity, so a fringe
    # searched in any order but deepest first stops early on some of them.
    # These graphs are small, so their search runs in Python.
    rng = random.Random(2013)
    for _ in range(1500):
        names = [f"v{i:02d}" for i in range(rng.randint(10, 60))]
        ring = list(zip(names, names[1:] + names[:1]))
        links = ring + [tuple(rng.sample(names, 2)) for _ in range(rng.randint(1, 3))]
        m = layer_metrics(layer(1, [comp(x) for x in names], links))
        assert m.diameter_of_largest_component == oracles.bf_diameter_of_largest(
            names, links
        ), links


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
    l = layer(1, [comp(x) for x in names], links)
    assert layer_metrics(l).connected_components == len(names) - size - second + 2
    expected = oracles.bf_diameter_of_largest(names, links)
    assert diameters_by_each_path(l) == [expected, expected]


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


@given(seed=st.integers(0, 20_000))
@settings(max_examples=100, deadline=None)
def test_dfs_table_splits_match_components_without_each_node(seed):
    rng = random.Random(seed)
    n = rng.randint(1, 14)
    # Few links for the node count, so most graphs have isolated nodes and
    # several components.
    pairs = sorted(
        {tuple(sorted(rng.sample(range(n), 2))) for _ in range(rng.randint(0, n + 3))}
        if n >= 2
        else set()
    )
    graph = Graph.of(n, pairs)
    dfs, labels = graph.dfs, graph.labels
    assert sorted(dfs.order) == list(range(n))
    assert all(dfs.order[dfs.disc[v]] == v for v in range(n))
    by_label = {c: frozenset(i for i in range(n) if labels[i] == c) for c in set(labels)}
    for v in range(n):
        splits = dfs.splits.get(v, [])
        pieces = [frozenset(dfs.order[dfs.disc[w] : dfs.end[w]]) for w in splits]
        rest = by_label[labels[v]].difference([v], *pieces)
        assert len(rest) == graph.sizes[labels[v]] - 1 - sum(
            dfs.end[w] - dfs.disc[w] for w in splits
        )
        found = [c for label, c in by_label.items() if label != labels[v]] + pieces
        found += [rest] if rest else []
        expected = oracles.bf_components(
            [i for i in range(n) if i != v], [p for p in pairs if v not in p]
        )
        assert sorted(map(sorted, found)) == sorted(map(sorted, expected))


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
