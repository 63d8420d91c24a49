import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstrata.faults import (
    FaultScenario,
    UnknownScenarioElement,
    exhaustive_single_faults,
    run_cascade,
)
from netstrata.generators import random_network
from netstrata.model import ComponentId, ComponentKind, CrossLayer, LayerRole, Mode, build_network
from netstrata.model_io import emit_report

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
    result = run_cascade(
        dual_homed_network, FaultScenario.of([cid(1, "p1"), cid(1, "p2")])
    )
    assert cid(2, "s") in result.final_failed_nodes
    assert result.rounds[0].failed_nodes == frozenset({cid(2, "s")})
    assert result.per_layer_survival[2] == 0.0
    assert not result.functional_alive


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
    with pytest.raises(UnknownScenarioElement, match=r"^unknown component 1/ghost$"):
        run_cascade(dual_homed_network, FaultScenario.of([cid(1, "ghost")]))
    with pytest.raises(UnknownScenarioElement, match=r"^no layer 9 for node 9/p1$"):
        run_cascade(dual_homed_network, FaultScenario.of([cid(9, "p1")]))
    with pytest.raises(UnknownScenarioElement, match=r"^no layer 9 for link \('p1', 'p2'\)$"):
        run_cascade(dual_homed_network, FaultScenario.of(links=[(9, ("p1", "p2"))]))
    for link in [("p1", "ghost"), (1, 2)]:
        with pytest.raises(UnknownScenarioElement, match=r"^unknown link .* on layer 1$"):
            run_cascade(dual_homed_network, FaultScenario.of(links=[(1, link)]))


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


@given(seed=st.integers(0, 10_000))
@settings(max_examples=10, deadline=None)
def test_exhaustive_ranking_matches_round_oracle(seed):
    net = fragile_network(random.Random(seed))
    expected = sorted(
        (
            (
                cid(1, c.name),
                oracles.oracle_cascade_rounds(
                    net, FaultScenario.of([cid(1, c.name)], label=f"fail {c.name}")
                ),
            )
            for c in net.layer(1).components
        ),
        key=lambda p: (p[1].functional_alive, -p[1].total_failed, p[0].local_name),
    )
    assert [(e.node, e.result) for e in exhaustive_single_faults(net)] == expected


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
    assert not top.result.functional_alive
    assert top.result.total_failed == 3


def test_exhaustive_ranking_dual_homed(dual_homed_network):
    ranking = exhaustive_single_faults(dual_homed_network)
    assert len(ranking) == 2
    assert all(e.result.functional_alive for e in ranking)
    # deterministic tie-break on node name
    assert [e.node.local_name for e in ranking] == ["p1", "p2"]


def test_exhaustive_covers_every_bottom_node(basic_stack_network):
    ranking = exhaustive_single_faults(basic_stack_network)
    assert len(ranking) == len(basic_stack_network.layer(1).components)
