import random
import runpy
from collections import Counter
from pathlib import Path
from unittest.mock import patch

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstrata import faults
from netstrata.consistency import validate
from netstrata.faults import (
    FaultScenario,
    exhaustive_single_faults,
    run_cascade,
)
from netstrata.generators import desk_model, random_network
from netstrata.graphutil import Graph, cut_points
from netstrata.model import ComponentId, ComponentKind, CrossLayer, LayerRole, Mode, build_network
from netstrata.model_io import emit_report, parse_model, report_payload

from . import oracles
from .conftest import comp, layer


def cid(alpha, name):
    return ComponentId(alpha, name)


def test_dual_homed_service_survives_one_host(dual_homed_network):
    result = run_cascade(
        dual_homed_network, FaultScenario.of([cid(1, "p1")], label="one host")
    )
    assert cid(2, "s") not in result.final_failed_nodes
    assert result.per_layer_survival[2] == 1.0
    assert result.functional_alive


def test_dual_homed_service_dies_with_both_hosts(dual_homed_network):
    # Every node fails, so survivors and the largest component read 0 everywhere.
    scenario = FaultScenario.of([cid(1, "p1"), cid(1, "p2")])
    result = run_cascade(dual_homed_network, scenario)
    assert cid(2, "s") in result.final_failed_nodes
    assert result.rounds[0].failed_nodes == frozenset({cid(2, "s")})
    assert result.per_layer_survival == {1: 0.0, 2: 0.0}
    assert result.per_layer_largest_component_fraction == {1: 0.0, 2: 0.0}
    assert not result.functional_alive
    assert result == oracles.oracle_cascade_rounds(dual_homed_network, scenario)


def multi_round_network():
    """Three layers where one physical failure first deactivates an L2 link
    and only then starves an L3 node."""
    return build_network(
        [
            layer(1, [comp("ha"), comp("hb"), comp("hc")], [("ha", "hb"), ("hb", "hc")]),
            layer(2, [comp("ma"), comp("mb")], [("ma", "mb")]),
            layer(
                3,
                [comp("top", kind=ComponentKind.SOFTWARE)],
                [],
                LayerRole.FUNCTIONAL,
            ),
        ],
        [
            CrossLayer.of(2, [("ma", "ha"), ("mb", "hc")]),
            CrossLayer.of(3, [("top", "ma")]),
        ],
        Mode.RELAXED,
    )


def test_multi_round_cascade():
    net = multi_round_network()
    result = run_cascade(net, FaultScenario.of([cid(1, "hb")], label="cut bridge"))
    # round 1: hb's L1 links die with it and the supporters of (ma, mb) lose
    # their only connecting path
    assert (2, ("ma", "mb")) in result.rounds[0].inactive_links
    assert cid(3, "top") not in result.final_failed_nodes
    assert result.per_layer_survival[1] == pytest.approx(2 / 3)
    failed, inactive = oracles.oracle_cascade(
        net, {cid(1, "hb")}, set()
    )
    assert result.final_failed_nodes == failed
    assert result.final_inactive_links == inactive


def test_cascade_reaches_upper_layers():
    net = multi_round_network()
    result = run_cascade(net, FaultScenario.of([cid(1, "ha")]))
    assert cid(2, "ma") in result.final_failed_nodes
    assert cid(3, "top") in result.final_failed_nodes
    assert len(result.rounds) >= 2
    assert not result.functional_alive


def test_empty_scenario_no_failures(basic_stack_network):
    result = run_cascade(basic_stack_network, FaultScenario.of())
    assert result.final_failed_nodes == frozenset()
    assert result.final_inactive_links == frozenset()
    assert result.rounds == ()
    assert all(v == 1.0 for v in result.per_layer_survival.values())


def test_injected_link_failure_counts_as_inactive(dual_homed_network):
    result = run_cascade(
        dual_homed_network, FaultScenario.of(links=[(1, ("p1", "p2"))])
    )
    assert result.final_inactive_links == frozenset({(1, ("p1", "p2"))})
    assert result.final_failed_nodes == frozenset()
    assert result.per_layer_survival[2] == 1.0


def test_unknown_scenario_element(dual_homed_network):
    cases = [
        (FaultScenario.of([cid(1, "ghost")]), "unknown component 1/ghost"),
        (FaultScenario.of([cid(9, "p1")]), "no layer 9 for node 9/p1"),
        (FaultScenario.of(links=[(9, ("p1", "p2"))]), "no layer 9 for link ('p1', 'p2')"),
        (FaultScenario.of(links=[(1, ("p1", "ghost"))]), "unknown link ('ghost', 'p1') on layer 1"),
        (FaultScenario.of(links=[(1, (1, 2))]), "unknown link (1, 2) on layer 1"),
    ]
    for scenario, message in cases:
        # `str` of a KeyError quotes its message, so compare the message itself.
        with pytest.raises(KeyError) as info:
            run_cascade(dual_homed_network, scenario)
        assert info.value.args[0] == message


def test_rounds_partition_final_state(dual_homed_network):
    scenario = FaultScenario.of([cid(1, "p1"), cid(1, "p2")])
    result = run_cascade(dual_homed_network, scenario)
    seen_nodes: set = set()
    seen_links: set = set()
    for rnd in result.rounds:
        assert not (rnd.failed_nodes & seen_nodes)
        assert not (rnd.inactive_links & seen_links)
        seen_nodes |= rnd.failed_nodes
        seen_links |= rnd.inactive_links
    assert seen_nodes == result.final_failed_nodes - scenario.failed_nodes
    assert seen_links == result.final_inactive_links - scenario.failed_links


@given(seed=st.integers(0, 20_000))
@settings(max_examples=60, deadline=None)
def test_cascade_matches_naive_oracle(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=12, consistent=True)
    nodes = [
        ComponentId(l.index, c.name) for l in net.layers for c in l.components
    ]
    injected = frozenset(rng.sample(nodes, rng.randint(0, min(3, len(nodes)))))
    result = run_cascade(net, FaultScenario(failed_nodes=injected))
    failed, inactive = oracles.oracle_cascade(net, injected, set())
    assert result.final_failed_nodes == failed
    assert result.final_inactive_links == inactive
    assert len(result.rounds) <= sum(len(l.components) for l in net.layers) + sum(
        len(l.links) for l in net.layers
    )


@given(seed=st.integers(0, 50_000), consistent=st.booleans())
@settings(max_examples=150, deadline=None)
def test_cascade_rounds_match_round_oracle(seed, consistent):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=16, consistent=consistent)
    nodes = [ComponentId(l.index, c.name) for l in net.layers for c in l.components]
    links = [(l.index, link) for l in net.layers for link in l.links]
    scenario = FaultScenario.of(
        rng.sample(nodes, rng.randint(0, min(4, len(nodes)))),
        rng.sample(links, rng.randint(0, min(3, len(links)))),
        label="random",
    )
    result = run_cascade(net, scenario)
    expected = oracles.oracle_cascade_rounds(net, scenario)
    assert result == expected
    assert emit_report(result, "machine") == emit_report(expected, "machine")


def fragile_network(rng, depth=4, n=24):
    """Functional stack of spanning trees plus a few links, mostly
    single-homed, so single bottom faults cascade over several rounds."""
    layers, crosses = [], []
    for alpha in range(1, depth + 1):
        names = [f"c{alpha}_{i}" for i in range(n)]
        order = names[:]
        rng.shuffle(order)
        links = {tuple(sorted((order[i], order[rng.randrange(i)]))) for i in range(1, n)}
        for _ in range(3):
            links.add(tuple(sorted(rng.sample(names, 2))))
        role = LayerRole.FUNCTIONAL if alpha == depth else LayerRole.CUSTOM
        layers.append(layer(alpha, [comp(x) for x in names], links, role))
        if alpha > 1:
            below = [f"c{alpha - 1}_{i}" for i in range(n)]
            crosses.append(
                CrossLayer.of(
                    alpha,
                    [
                        (up, low)
                        for up in names
                        for low in rng.sample(below, 1 if rng.random() < 0.8 else 2)
                    ],
                )
            )
    return build_network(layers, crosses, Mode.RELAXED)


def _ranked(entries):
    return sorted(entries, key=lambda e: (e[1], -e[2], e[0].local_name))


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_exhaustive_ranking_matches_round_oracle(seed):
    # Every field of every entry, and their order: node, functional_alive,
    # failed count, round count.
    net = fragile_network(random.Random(seed))
    expected = []
    for c in net.layer(1).components:
        r = oracles.oracle_cascade_rounds(net, FaultScenario.of([cid(1, c.name)]))
        expected.append((cid(1, c.name), r.functional_alive, r.total_failed, len(r.rounds)))
    assert exhaustive_single_faults(net) == _ranked(expected)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_campaign_entries_match_each_cascade(seed):
    # The campaign runs its cascades in turn on one workspace, so a write one
    # cascade left behind shows in a later entry.
    rng = random.Random(seed)
    for net in (random_network(rng, max_nodes=16, consistent=False), fragile_network(rng, n=12)):
        ranking = exhaustive_single_faults(net)
        expected = []
        for c in net.layer(1).components:
            r = run_cascade(net, FaultScenario.of([cid(1, c.name)]))
            expected.append((cid(1, c.name), r.functional_alive, r.total_failed, len(r.rounds)))
        assert ranking == _ranked(expected)
        assert report_payload(ranking)["entries"] == [
            {"node": str(n), "functional_alive": a, "failed_count": f, "round_count": r}
            for n, a, f, r in _ranked(expected)
        ]


def _workspace_state(work):
    return work.labels, work.sizes, work.inactive, work.trail


@given(seed=st.integers(0, 10**6))
@settings(max_examples=30, deadline=None)
def test_a_campaign_leaves_its_workspace_as_it_found_it(seed):
    rng = random.Random(seed)
    for net in (random_network(rng, max_nodes=16, consistent=False), fragile_network(rng)):
        work = faults._Workspace(net)
        fresh = _workspace_state(faults._Workspace(net))
        with patch.object(faults, "_Workspace", return_value=work):
            first = exhaustive_single_faults(net)
            assert _workspace_state(work) == fresh
            assert exhaustive_single_faults(net) == first
            assert _workspace_state(work) == fresh


@given(seed=st.integers(0, 20_000))
@settings(max_examples=50, deadline=None)
def test_cascade_monotonicity(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=12, consistent=True)
    nodes = [
        ComponentId(l.index, c.name) for l in net.layers for c in l.components
    ]
    small = frozenset(rng.sample(nodes, rng.randint(0, min(2, len(nodes)))))
    big = small | frozenset(rng.sample(nodes, rng.randint(0, min(3, len(nodes)))))
    res_a = run_cascade(net, FaultScenario(failed_nodes=small))
    res_b = run_cascade(net, FaultScenario(failed_nodes=big))
    assert res_a.final_failed_nodes <= res_b.final_failed_nodes
    assert res_a.final_inactive_links <= res_b.final_inactive_links
    for idx in res_a.per_layer_survival:
        assert res_a.per_layer_survival[idx] >= res_b.per_layer_survival[idx]


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_fixed_point_is_stable(seed):
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=12, consistent=True)
    nodes = [
        ComponentId(l.index, c.name) for l in net.layers for c in l.components
    ]
    injected = frozenset(rng.sample(nodes, rng.randint(0, min(3, len(nodes)))))
    first = run_cascade(net, FaultScenario(failed_nodes=injected))
    rerun = run_cascade(
        net,
        FaultScenario(
            failed_nodes=first.final_failed_nodes,
            failed_links=first.final_inactive_links,
        ),
    )
    assert rerun.final_failed_nodes == first.final_failed_nodes
    assert rerun.final_inactive_links == first.final_inactive_links
    assert rerun.rounds == ()


def test_exhaustive_ranking_dedicated_chain():
    net = build_network(
        [
            layer(1, [comp("host")], []),
            layer(2, [comp("svc", kind=ComponentKind.SOFTWARE)], []),
            layer(
                3,
                [comp("fn", kind=ComponentKind.SOFTWARE)],
                [],
                LayerRole.FUNCTIONAL,
            ),
        ],
        [CrossLayer.of(2, [("svc", "host")]), CrossLayer.of(3, [("fn", "svc")])],
        Mode.RELAXED,
    )
    ranking = exhaustive_single_faults(net)
    assert len(ranking) == 1
    top = ranking[0]
    assert top.node == cid(1, "host")
    assert not top.functional_alive
    assert top.failed_count == 3


def test_exhaustive_ranking_dual_homed(dual_homed_network):
    ranking = exhaustive_single_faults(dual_homed_network)
    assert len(ranking) == 2
    assert all(e.functional_alive for e in ranking)
    # deterministic tie-break on node name
    assert [e.node.local_name for e in ranking] == ["p1", "p2"]


def test_exhaustive_covers_every_bottom_node(basic_stack_network):
    ranking = exhaustive_single_faults(basic_stack_network)
    assert len(ranking) == len(basic_stack_network.layer(1).components)


def shaped_links(rng, shape, names):
    """Links over `names` in one shape. Names are shuffled into it, so the
    DFS root, the smallest name, can sit anywhere: inside a path it is a root
    cut vertex, elsewhere a leaf."""
    order = names[:]
    rng.shuffle(order)

    def tree(part):
        return [(part[i], part[rng.randrange(i)]) for i in range(1, len(part))]

    if shape == "path":
        return list(zip(order, order[1:]))
    if shape == "star":
        if rng.random() < 0.5:  # the centre is the DFS root
            order.sort(key=lambda x: x != min(names))
        return [(order[0], x) for x in order[1:]]
    if shape == "tree":
        # A few extra links make cycles, so a split is not always a bridge.
        extra = rng.randint(0, 2) if len(names) > 1 else 0
        return tree(order) + [tuple(rng.sample(names, 2)) for _ in range(extra)]
    # "isolated": two trees over part of the nodes, the rest isolated
    a = rng.randint(0, len(order))
    b = rng.randint(a, len(order))
    return tree(order[:a]) + tree(order[a:b])


def shaped_network(rng, shapes, consistent=True, bottom=None):
    """One layer per shape, each of 1..9 nodes and the top one functional;
    `bottom`, as (names, links), replaces the first. Upper nodes have one or
    two supporters; when not `consistent`, some have none."""
    layers, crosses = [], []
    for alpha, shape in enumerate(shapes, 1):
        names = [f"x{alpha}_{i}" for i in range(rng.randint(1, 9))]
        links = shaped_links(rng, shape, names)
        if alpha == 1 and bottom:
            names, links = bottom
        role = LayerRole.FUNCTIONAL if alpha == len(shapes) else LayerRole.CUSTOM
        layers.append(layer(alpha, [comp(x) for x in names], links, role))
        if alpha > 1:
            below = [c.name for c in layers[-2].components]
            crosses.append(
                CrossLayer.of(
                    alpha,
                    [
                        (up, low)
                        for up in names
                        if consistent or rng.random() < 0.8
                        for low in rng.sample(below, min(len(below), rng.randint(1, 2)))
                    ],
                )
            )
    return build_network(layers, crosses, Mode.RELAXED)


def tie_network(rng):
    """A bottom path of 2m+1 nodes, sometimes beside a path of m, under
    random layers: removing the middle node leaves components of equal size."""
    m = rng.randint(1, 4)
    names = [f"x1_{i}" for i in range(3 * m + 1)]
    path, side = names[: 2 * m + 1], names[2 * m + 1 :] if rng.random() < 0.5 else []
    rng.shuffle(path)
    links = list(zip(path, path[1:])) + list(zip(side, side[1:]))
    shapes = ["path"] + rng.choices(SHAPES, k=rng.randint(1, 3))
    return shaped_network(rng, shapes, bottom=(path + side, links)), cid(1, path[m])


SHAPES = ["path", "star", "tree", "isolated"]


def one_node_case(case, rng):
    """A network and a scenario of one failed node below the top layer (plus
    one link on its layer for "injected-link"), for each class of layer the
    one-node shortcut meets."""
    links = []
    if case == "tie":
        net, node = tie_network(rng)
        return net, FaultScenario.of([node], label=case)
    if case == "inconsistent":
        net = random_network(rng, max_nodes=16, consistent=False)
        while net.depth < 2:
            net = random_network(rng, max_nodes=16, consistent=False)
    else:
        bottom = case if case in SHAPES else rng.choice(SHAPES)
        depth = rng.randint(3, 4) if case == "above-bottom" else rng.randint(2, 4)
        net = shaped_network(rng, [bottom] + rng.choices(SHAPES, k=depth - 1))
    alpha = rng.randint(2, net.depth - 1) if case == "above-bottom" else 1
    if case == "injected-link":
        while not net.layer(1).links:
            net = shaped_network(rng, rng.choices(SHAPES, k=rng.randint(2, 4)))
        links = [(alpha, rng.choice(net.layer(alpha).links))]
    node = cid(alpha, rng.choice(net.layer(alpha).components).name)
    return net, FaultScenario.of([node], links, label=case)


@pytest.mark.parametrize(
    "case", SHAPES + ["inconsistent", "above-bottom", "tie", "injected-link"]
)
@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_one_node_shortcut_matches_round_oracle(case, seed):
    rng = random.Random(seed)
    net, scenario = one_node_case(case, rng)
    with patch.object(Graph, "without", autospec=True, side_effect=Graph.without) as spy:
        result = run_cascade(net, scenario)
    expected = oracles.oracle_cascade_rounds(net, scenario)
    assert result == expected
    assert emit_report(result, "machine") == emit_report(expected, "machine")
    (node,) = scenario.failed_nodes
    target = net.layer(node.layer_index)
    v = target.node_ids[node.local_name]
    # The DFS table answered the injected layer, or the split search did when
    # a link was injected there too. Layers can have equal graphs, so by identity.
    ran = any(c.args[0] is target.graph and c.args[3] == v for c in spy.call_args_list)
    assert ran == (case != "injected-link")


def split_case(case, rng):
    """A network, a scenario and the layer it changes by more than one failed
    node, for each class of change the split search meets."""
    if case == "inconsistent":
        net = random_network(rng, max_nodes=16, consistent=False)
    elif case == "tie":
        # An even path cut in the middle, sometimes beside a path as long as
        # each half: every piece has the same size.
        m = rng.randint(1, 4)
        names = [f"x1_{i}" for i in range(3 * m if rng.random() < 0.5 else 2 * m)]
        path, side = names[: 2 * m], names[2 * m :]
        rng.shuffle(path)
        links = list(zip(path, path[1:])) + list(zip(side, side[1:]))
        shapes = ["path"] + rng.choices(SHAPES, k=rng.randint(1, 3))
        net = shaped_network(rng, shapes, bottom=(path + side, links))
        return net, FaultScenario.of(links=[(1, (path[m - 1], path[m]))], label=case), 1
    else:
        net = shaped_network(rng, rng.choices(SHAPES, k=rng.randint(2, 4)))
    alpha = rng.randint(1, net.depth)
    target = net.layer(alpha)
    names = [c.name for c in target.components]
    nodes = []
    if case == "cut-links":
        _, bridges = cut_points(target.graph)
        links = [target.links[j] for j in rng.sample(bridges, min(len(bridges), 3))]
        links = links or rng.sample(target.links, min(len(target.links), 2))
    elif case == "many-links":
        links = rng.sample(target.links, min(len(target.links), rng.randint(2, 4)))
    elif case == "many-faults":
        links = []
        nodes = rng.sample(names, min(len(names), rng.randint(2, 4)))
    else:
        links = rng.sample(target.links, min(len(target.links), rng.randint(0, 3)))
        nodes = rng.sample(names, min(len(names), rng.randint(0, 3)))
    scenario = FaultScenario.of(
        [cid(alpha, x) for x in nodes], [(alpha, link) for link in links], label=case
    )
    return net, scenario, alpha


@pytest.mark.parametrize("case", ["cut-links", "many-faults", "many-links", "inconsistent", "tie"])
@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_split_search_cascades_match_round_oracle(case, seed):
    rng = random.Random(seed)
    net, scenario, alpha = split_case(case, rng)
    with patch.object(Graph, "split", autospec=True, side_effect=Graph.split) as spy:
        result = run_cascade(net, scenario)
    expected = oracles.oracle_cascade_rounds(net, scenario)
    assert result == expected
    assert emit_report(result, "machine") == emit_report(expected, "machine")
    # Whenever the injection is more than one failed node, the split search
    # answered the injected layer. Layers can have equal graphs, so by identity.
    if scenario.failed_links or len(scenario.failed_nodes) > 1:
        target = net.layer(alpha).graph
        assert any(c.args[0] is target for c in spy.call_args_list)


def test_removing_a_dfs_root_relabels_all_but_its_first_subtree():
    # Node 0 is the DFS root and has no rest of its component, so its first
    # subtree keeps the label: a root with one subtree moves no other node,
    # and the cascade re-checks nothing above for it.
    path = Graph.of(4, [(0, 1), (1, 2), (2, 3)])
    labels, sizes = list(path.labels), dict(path.sizes)
    assert path.without(labels, sizes, 0) == [0]
    assert (labels, sizes) == ([-1, 0, 0, 0], {0: 3})
    star = Graph.of(4, [(0, 1), (0, 2), (0, 3)])
    labels, sizes = list(star.labels), dict(star.sizes)
    assert star.without(labels, sizes, 0) == [0, 2, 3]
    assert (labels, sizes) == ([-1, 0, 1, 2], {0: 1, 1: 1, 2: 1})


def _assert_baselines_are_fresh(net):
    """Every layer's cached baseline labels and sizes equal a fresh search."""
    for l in net.layers:
        fresh = l.graph.components()
        assert l.graph.labels == fresh
        assert dict(l.graph.sizes) == dict(Counter(fresh))


def test_cascades_leave_the_baseline_labels_untouched():
    gen = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "gen.py"))
    for net in (parse_model(gen["fragile"](23).document()).network, desk_model()):
        exhaustive_single_faults(net)
        _assert_baselines_are_fresh(net)


@given(seed=st.integers(0, 10**6))
@settings(max_examples=60, deadline=None)
def test_random_cascades_leave_the_baseline_labels_untouched(seed):
    # The injected layer's first change is one node (`Graph.without`), or
    # several nodes, links or both (`Graph.split`); the cascades run in turn
    # on one network, so a baseline one of them wrote shows in the next.
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=16, consistent=False)
    for shape in ("one-node", "nodes", "links", "both"):
        target = rng.choice(net.layers)
        names = [c.name for c in target.components]
        nodes = rng.sample(names, 1 if shape == "one-node" else min(len(names), rng.randint(2, 3)))
        links = rng.sample(target.links, min(len(target.links), rng.randint(1, 3)))
        scenario = FaultScenario.of(
            [cid(target.index, x) for x in nodes if shape != "links"],
            [(target.index, link) for link in links if shape in ("links", "both")],
            label=shape,
        )
        run_cascade(net, scenario)
        _assert_baselines_are_fresh(net)


def test_labels_are_not_recomputed_for_states_that_cannot_have_changed():
    # Each layer's baseline labels are read first, so the spy on
    # `Graph.components` counts only whole-layer relabels in a cascade.
    desk = desk_model()
    for l in desk.layers:
        l.graph.labels
    with patch.object(Graph, "components", autospec=True, side_effect=Graph.components) as spy:
        result = run_cascade(desk, FaultScenario.of([cid(1, "n00007")]))
    assert len(result.rounds) == 1
    assert spy.call_count == 0

    # The benchmark's campaign workload on seed 23.
    gen = runpy.run_path(str(Path(__file__).parents[1] / "perfbench" / "gen.py"))
    campaign = parse_model(gen["fragile"](23).document()).network
    for l in campaign.layers:
        l.graph.labels
    with patch.object(Graph, "components", autospec=True, side_effect=Graph.components) as spy:
        exhaustive_single_faults(campaign)
    assert spy.call_count == 0


def test_validate_builds_no_dfs_table_and_a_cascade_does(dual_homed_network):
    validate(dual_homed_network)
    assert not any("dfs" in vars(l.graph) for l in dual_homed_network.layers)
    run_cascade(dual_homed_network, FaultScenario.of([cid(1, "p1")]))
    assert "dfs" in vars(dual_homed_network.layer(1).graph)
