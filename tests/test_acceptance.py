"""Acceptance suite: one test per criterion, each printing a pass line and
enforcing its runtime budget."""

import json
import random
import string
import time
from itertools import permutations

from netstrata import analysis, consistency, faults, multiplex, reference
from netstrata.generators import desk_model, random_layer, random_network
from netstrata.model import ComponentId, CrossLayer, Mode, build_network
from netstrata.model_io import ModelParseError, parse_model, serialize_model

from . import oracles
from .conftest import FIXTURES, comp, layer, make_stack

ALL_FIXTURES = [
    "ap.mln.json",
    "basic_stack.mln.json",
    "extended_stack.mln.json",
    "dual_homed.mln.json",
    "dedicated_chain.mln.json",
    "inconsistent.mln.json",
]


def report(name, start, budget):
    elapsed = time.perf_counter() - start
    assert elapsed < budget, f"{name} took {elapsed:.2f}s (budget {budget}s)"
    print(f"ACCEPTANCE {name}: PASS ({elapsed:.2f}s, budget {budget}s)")


def test_criterion_1_structural_identities():
    start = time.perf_counter()
    rng = random.Random(1)
    for i in range(200):
        net = random_network(rng, max_layers=6, max_nodes=40, consistent=bool(i % 2))
        flat = net.flatten()
        assert len(flat.vertices) == sum(len(l.components) for l in net.layers)
        assert len(flat.edges) == sum(len(l.links) for l in net.layers) + sum(
            len(c.projections) for c in net.cross_layers
        )
    report("1 structural-identities", start, 5)


def test_criterion_2_multiplex_reconstruction():
    start = time.perf_counter()
    rng = random.Random(2)
    for _ in range(200):
        l = random_layer(rng, n_min=2, n_max=12, ensure_cover=True)
        union = {
            link for sub in multiplex.decompose_layer(l) for link in sub.links
        }
        assert union == set(l.links)
        assert multiplex.check_cover(l) == []
        for count in multiplex.multiplex_multiplicity(l).values():
            assert count <= len(l.protocols)
    report("2 multiplex-reconstruction", start, 5)


def hand_built_edge_cases():
    cases = []
    # unsupported node plus pigeonhole cardinality
    cases.append(
        build_network(
            [
                layer(1, [comp("h1"), comp("h2")], [("h1", "h2")]),
                layer(2, [comp("s1"), comp("s2"), comp("s3")], [("s1", "s2")]),
            ],
            [CrossLayer.of(2, [("s1", "h1"), ("s2", "h2")])],
            Mode.RELAXED,
        )
    )
    # disconnected supporters
    cases.append(
        build_network(
            [
                layer(1, [comp("h1"), comp("h2"), comp("h3")], [("h2", "h3")]),
                layer(2, [comp("s1"), comp("s2")], [("s1", "s2")]),
            ],
            [CrossLayer.of(2, [("s1", "h1"), ("s2", "h2")])],
            Mode.RELAXED,
        )
    )
    # shared supporter, consistent
    cases.append(
        build_network(
            [
                layer(1, [comp("h1"), comp("h2")], []),
                layer(2, [comp("s1"), comp("s2")], [("s1", "s2")]),
            ],
            [CrossLayer.of(2, [("s1", "h1"), ("s2", "h1")])],
            Mode.RELAXED,
        )
    )
    # uncovered link
    cases.append(
        build_network(
            [
                layer(
                    1,
                    [comp("a", ["p1"]), comp("b", ["p2"])],
                    [("a", "b")],
                    protocols=["p1", "p2"],
                )
            ],
            mode=Mode.RELAXED,
        )
    )
    cases.append(parse_model((FIXTURES / "dedicated_chain.mln.json").read_text()).network)
    cases.append(parse_model((FIXTURES / "inconsistent.mln.json").read_text()).network)
    return cases


def test_criterion_3_consistency_oracle_equivalence():
    start = time.perf_counter()
    rng = random.Random(3)
    nets = [
        random_network(rng, max_nodes=12, consistent=False) for _ in range(500)
    ] + hand_built_edge_cases()
    for net in nets:
        assert sum(len(l.components) for l in net.layers) <= 12
        got = {
            (v.kind.value, v.layer_index, str(v.subject))
            for v in consistency.check_node_support(net)
            + consistency.check_path_consistency(net)
        }
        assert got == oracles.oracle_consistency_violations(net)
        for l in net.layers:
            assert set(multiplex.check_cover(l)) == oracles.oracle_uncovered(l)
    report("3 consistency-oracle", start, 30)


def test_criterion_4_cascade_oracle_and_monotonicity():
    start = time.perf_counter()
    rng = random.Random(4)
    for _ in range(300):
        net = random_network(rng, max_nodes=12, consistent=True)
        nodes = [
            ComponentId(l.index, c.name) for l in net.layers for c in l.components
        ]
        injected = frozenset(rng.sample(nodes, rng.randint(0, min(3, len(nodes)))))
        result = faults.run_cascade(net, faults.FaultScenario(failed_nodes=injected))
        failed, inactive = oracles.oracle_cascade(net, injected, set())
        assert result.final_failed_nodes == failed
        assert result.final_inactive_links == inactive

    for _ in range(100):
        net = random_network(rng, max_nodes=12, consistent=True)
        nodes = [
            ComponentId(l.index, c.name) for l in net.layers for c in l.components
        ]
        small = frozenset(rng.sample(nodes, rng.randint(0, min(2, len(nodes)))))
        big = small | frozenset(
            rng.sample(nodes, rng.randint(0, min(3, len(nodes))))
        )
        res_a = faults.run_cascade(net, faults.FaultScenario(failed_nodes=small))
        res_b = faults.run_cascade(net, faults.FaultScenario(failed_nodes=big))
        assert res_a.final_failed_nodes <= res_b.final_failed_nodes
        for idx in res_a.per_layer_survival:
            assert res_a.per_layer_survival[idx] >= res_b.per_layer_survival[idx]

    empty = faults.run_cascade(
        random_network(random.Random(44), consistent=True), faults.FaultScenario()
    )
    assert empty.final_failed_nodes == frozenset()
    assert all(v == 1.0 for v in empty.per_layer_survival.values())
    report("4 cascade-oracle-monotonicity", start, 60)


def test_criterion_5_reference_stacks():
    start = time.perf_counter()
    basic = parse_model((FIXTURES / "basic_stack.mln.json").read_text()).network
    extended = parse_model((FIXTURES / "extended_stack.mln.json").read_text()).network
    assert reference.check_reference_conformance(basic, "basic").conforms
    assert reference.check_reference_conformance(extended, "extended").conforms
    failed = 0
    for perm in permutations(reference.BASIC_STACK):
        if perm == reference.BASIC_STACK:
            continue
        if not reference.check_reference_conformance(
            make_stack(list(perm)), "basic"
        ).conforms:
            failed += 1
    assert failed == 23
    report("5 reference-stacks", start, 1)


def test_criterion_6_access_point_example():
    start = time.perf_counter()
    text = (FIXTURES / "ap.mln.json").read_text()
    outputs = []
    for _ in range(2):
        doc = parse_model(text)
        subs = multiplex.decompose_layer(doc.network.layer(1))
        assert {s.protocol: s.links for s in subs} == {
            "wired": (("ap", "sw"),),
            "wireless": (("ap", "cl"),),
        }
        outputs.append(
            serialize_model(doc)
            + json.dumps([[s.protocol, s.links] for s in subs])
        )
    assert outputs[0] == outputs[1]
    report("6 paper-ap-example", start, 5)


def mutate(rng, text):
    kind = rng.randrange(6)
    if kind == 0:
        return text[: rng.randrange(len(text))]
    if kind == 1:
        pos = rng.randrange(len(text))
        return text[:pos] + rng.choice("{}[]\",:xyz") + text[pos:]
    if kind == 2:
        pos = rng.randrange(len(text))
        return text[:pos] + text[pos + rng.randrange(1, 20):]
    if kind == 3:
        word = rng.choice(
            ["components", "layers", "protocols", "name", "kind", "role", "links"]
        )
        return text.replace(word, rng.choice(["komponents", "zzz", "12", ""]), 1)
    if kind == 4:
        return text.replace('"', "'", rng.randrange(1, 5))
    return "".join(
        rng.choice(string.printable) for _ in range(rng.randrange(0, 200))
    )


def test_criterion_7_io_round_trip_and_fuzz():
    start = time.perf_counter()
    for name in ALL_FIXTURES:
        text = (FIXTURES / name).read_text()
        doc = parse_model(text)
        canonical = serialize_model(doc)
        assert parse_model(canonical) == doc
        assert serialize_model(parse_model(canonical)) == canonical

    base = json.loads((FIXTURES / "basic_stack.mln.json").read_text())
    for layer_obj in base["layers"]:
        layer_obj["components"].reverse()
        layer_obj["links"].reverse()
    permuted = json.dumps(base)
    assert serialize_model(parse_model(permuted)) == serialize_model(
        parse_model((FIXTURES / "basic_stack.mln.json").read_text())
    )

    rng = random.Random(7)
    seeds = [(FIXTURES / name).read_text() for name in ALL_FIXTURES]
    rejected = 0
    for _ in range(10_000):
        mutated = mutate(rng, rng.choice(seeds))
        try:
            parse_model(mutated)
        except ModelParseError as exc:
            assert exc.position
            rejected += 1
    assert rejected > 5000  # most mutations must actually be malformed
    report("7 io-round-trip-fuzz", start, 60)


def test_criterion_8_desk_scale_performance():
    net = desk_model()
    flat = net.flatten()
    assert len(flat.vertices) == 10_000
    assert len(flat.edges) == 30_000
    start = time.perf_counter()
    assert consistency.validate(net).passed
    bundle = {l.index: analysis.layer_metrics(l) for l in net.layers}
    assert len(bundle) == 5
    # exact: every node of a desk layer has eccentricity 334 or 335
    assert {m.diameter_of_largest_component for m in bundle.values()} == {335}
    result = faults.run_cascade(
        net, faults.FaultScenario.of([ComponentId(1, "n00000")])
    )
    assert result.per_layer_survival[5] == 1.0
    report("8 desk-scale-performance", start, 5)
