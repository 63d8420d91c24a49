import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstrata.consistency import (
    NodeClass,
    ViolationKind,
    check_node_support,
    check_path_consistency,
    classify_interlayer,
    validate,
)
from netstrata.generators import random_network
from netstrata.model import ComponentId, CrossLayer, Mode, build_network
from netstrata.multiplex import check_cover

from .conftest import comp, layer
from .oracles import (
    oracle_consistency_violations,
    oracle_interlayer_classes,
    oracle_uncovered,
)


def two_over_three(l1_links, projections):
    return build_network(
        [
            layer(1, [comp("h1"), comp("h2"), comp("h3")], l1_links),
            layer(2, [comp("s1"), comp("s2")], [("s1", "s2")]),
        ],
        [CrossLayer.of(2, projections)],
        Mode.RELAXED,
    )


def test_node_support_clean():
    net = two_over_three([("h1", "h2")], [("s1", "h1"), ("s2", "h2")])
    assert check_node_support(net) == []


def test_unsupported_node_reported():
    net = two_over_three([("h1", "h2")], [("s1", "h1"), ("s1", "h2")])
    violations = check_node_support(net)
    kinds = [(v.kind, v.subject) for v in violations]
    assert (ViolationKind.UNSUPPORTED_NODE, ComponentId(2, "s2")) in kinds


def test_cardinality_pigeonhole():
    net = build_network(
        [
            layer(1, [comp("h1"), comp("h2")], [("h1", "h2")]),
            layer(2, [comp("s1"), comp("s2"), comp("s3")], [("s1", "s2")]),
        ],
        [CrossLayer.of(2, [("s1", "h1"), ("s2", "h2")])],
        Mode.RELAXED,
    )
    violations = check_node_support(net)
    assert any(v.kind is ViolationKind.CARDINALITY for v in violations)
    assert any(v.kind is ViolationKind.UNSUPPORTED_NODE for v in violations)


def test_path_consistency_direct_edge():
    net = two_over_three([("h1", "h2")], [("s1", "h1"), ("s2", "h2")])
    assert check_path_consistency(net) == []


def test_path_consistency_multi_hop():
    net = two_over_three(
        [("h1", "h3"), ("h3", "h2")], [("s1", "h1"), ("s2", "h2")]
    )
    assert check_path_consistency(net) == []


def test_path_consistency_shared_supporter():
    net = two_over_three([("h2", "h3")], [("s1", "h1"), ("s2", "h1")])
    assert check_path_consistency(net) == []


def test_path_inconsistency_across_components():
    net = two_over_three([("h2", "h3")], [("s1", "h1"), ("s2", "h2")])
    violations = check_path_consistency(net)
    assert [(v.kind, v.subject) for v in violations] == [
        (ViolationKind.PATH_INCONSISTENCY, ("s1", "s2"))
    ]


def test_classify_clustering():
    net = build_network(
        [
            layer(
                1,
                [comp("h1"), comp("h2"), comp("h3"), comp("h4")],
                [("h1", "h2"), ("h2", "h3"), ("h3", "h4")],
            ),
            layer(2, [comp("s1"), comp("s2")], [("s1", "s2")]),
        ],
        [CrossLayer.of(2, [("s1", "h1"), ("s1", "h2"), ("s1", "h3"), ("s2", "h4")])],
        Mode.RELAXED,
    )
    classes = classify_interlayer(net, 2).classes
    assert classes[ComponentId(2, "s1")] is NodeClass.CLUSTERING
    # cluster members inherit the technology of their projection pattern
    assert classes[ComponentId(1, "h1")] is NodeClass.CLUSTERING


def test_classify_virtualization():
    net = two_over_three([("h1", "h2")], [("s1", "h1"), ("s2", "h1")])
    classes = classify_interlayer(net, 2).classes
    assert classes[ComponentId(1, "h1")] is NodeClass.VIRTUALIZATION_REPLICATION


def test_classify_dedicated_pair():
    net = two_over_three([("h1", "h2")], [("s1", "h1"), ("s2", "h2")])
    classes = classify_interlayer(net, 2).classes
    assert classes[ComponentId(2, "s1")] is NodeClass.DEDICATED
    assert classes[ComponentId(1, "h1")] is NodeClass.DEDICATED
    with pytest.raises(KeyError) as exc:
        classify_interlayer(net, 1)  # the bottom layer projects onto nothing
    assert exc.value.args == ("no cross-layer with upper index 1",)


def test_classify_mixed():
    # s1 clusters over h1+h2 while h1 is also shared with s2: the (s1, h1)
    # projection carries both technologies, so both its endpoints are mixed.
    net = two_over_three(
        [("h1", "h2")], [("s1", "h1"), ("s1", "h2"), ("s2", "h1")]
    )
    classes = classify_interlayer(net, 2).classes
    assert classes[ComponentId(2, "s1")] is NodeClass.MIXED
    assert classes[ComponentId(1, "h1")] is NodeClass.MIXED
    assert classes[ComponentId(1, "h2")] is NodeClass.CLUSTERING
    assert classes[ComponentId(2, "s2")] is NodeClass.VIRTUALIZATION_REPLICATION


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_classification_is_total(seed):
    net = random_network(random.Random(seed), consistent=False)
    for cross in net.cross_layers:
        classes = classify_interlayer(net, cross.upper_index).classes
        incident = {ComponentId(cross.upper_index, up) for up, _ in cross.projections} | {
            ComponentId(cross.upper_index - 1, low) for _, low in cross.projections
        }
        assert set(classes) == incident


@given(seed=st.integers(0, 10_000))
@settings(max_examples=60, deadline=None)
def test_classification_matches_oracle_in_report_order(seed):
    net = random_network(random.Random(seed), consistent=False)
    for cross in net.cross_layers:
        classes = classify_interlayer(net, cross.upper_index).classes
        got = {str(node): cls.value for node, cls in classes.items()}
        assert got == oracle_interlayer_classes(net, cross.upper_index)
        # reports print the classes as they iterate, with no sort of their own
        nodes = list(classes)
        assert nodes == sorted(nodes, key=lambda n: (n.layer_index, n.local_name))


def test_validate_consistent_model_passes(basic_stack_network):
    report = validate(basic_stack_network)
    assert report.passed
    assert report.violations == ()


def test_validate_counts_injected_defects():
    # one unsupported node and one uncovered link, strict mode
    net = build_network(
        [
            layer(
                1,
                [comp("h1", ["p1"]), comp("h2", ["p2"])],
                [("h1", "h2")],
                protocols=["p1", "p2"],
            ),
            layer(
                2,
                [comp("s1", ["p1"]), comp("s2", ["p1"]), comp("s3", ["p1"])],
                [("s1", "s3")],
            ),
        ],
        [CrossLayer.of(2, [("s1", "h1"), ("s1", "h2"), ("s3", "h1")])],
        Mode.STRICT,
    )
    report = validate(net)
    assert not report.passed
    assert len(report.violations) == 2
    kinds = sorted(v.kind.value for v in report.violations)
    assert kinds == ["uncovered-link", "unsupported-node"]


def test_validate_relaxed_uncovered_link_is_warning_only():
    net = build_network(
        [layer(1, [comp("h1", ["p1"]), comp("h2", ["p2"])], [("h1", "h2")])],
        mode=Mode.RELAXED,
    )
    report = validate(net)
    assert report.passed
    assert report.warnings == (
        "link (h1, h2) on layer 1 has no protocol shared by both endpoints",
        "layer 1: protocol 'p1' induces no links",
        "layer 1: protocol 'p2' induces no links",
    )


def test_validate_relaxed_empty_links_is_warning_only():
    net = build_network(
        [layer(1, [comp("only")], [])],
        mode=Mode.RELAXED,
    )
    report = validate(net)
    assert report.passed
    assert any("no links" in w for w in report.warnings)


@given(seed=st.integers(0, 20_000))
@settings(max_examples=100, deadline=None)
def test_validator_matches_brute_force(seed):
    net = random_network(random.Random(seed), max_nodes=12, consistent=False)
    got = {
        (v.kind.value, v.layer_index, str(v.subject))
        for v in check_node_support(net) + check_path_consistency(net)
    }
    assert got == oracle_consistency_violations(net)
    for l in net.layers:
        assert set(check_cover(l)) == oracle_uncovered(l)


@given(seed=st.integers(0, 10_000))
@settings(max_examples=50, deadline=None)
def test_monotonicity_of_repairs(seed):
    """Adding a projection never creates node-support violations; adding a
    lower-layer link never creates path violations above it."""
    rng = random.Random(seed)
    net = random_network(rng, max_nodes=12, consistent=False)
    if net.depth < 2:
        return
    alpha = rng.randint(2, net.depth)
    upper = net.layer(alpha)
    lower = net.layer(alpha - 1)

    before_support = {
        (v.kind.value, v.layer_index, str(v.subject)) for v in check_node_support(net)
    }
    up = rng.choice(upper.components).name
    low = rng.choice(lower.components).name
    cross = net.cross_layer(alpha)
    patched = build_network(
        net.layers,
        [
            c if c.upper_index != alpha
            else CrossLayer.of(alpha, set(cross.projections) | {(up, low)})
            for c in net.cross_layers
        ],
        net.mode,
    )
    after_support = {
        (v.kind.value, v.layer_index, str(v.subject))
        for v in check_node_support(patched)
    }
    assert after_support <= before_support

    if len(lower.components) >= 2:
        a, b = (c.name for c in rng.sample(lower.components, 2))
        from netstrata.model import canonical_link

        patched_layers = [
            l if l.index != lower.index
            else layer(
                l.index,
                l.components,
                set(l.links) | {canonical_link(a, b)},
                l.role,
                l.protocols,
            )
            for l in net.layers
        ]
        patched2 = build_network(patched_layers, net.cross_layers, net.mode)
        before_paths = {
            (v.layer_index, v.subject)
            for v in check_path_consistency(net)
            if v.layer_index == alpha
        }
        after_paths = {
            (v.layer_index, v.subject)
            for v in check_path_consistency(patched2)
            if v.layer_index == alpha
        }
        assert after_paths <= before_paths
