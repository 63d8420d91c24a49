import random
from collections import Counter

from hypothesis import given, settings
from hypothesis import strategies as st

from netstrata.generators import random_layer
from netstrata.model import Layer
from netstrata.multiplex import (
    check_cover,
    decompose_layer,
    unused_protocols,
)

from .conftest import comp, layer
from .oracles import oracle_decomposition, oracle_uncovered


def test_two_protocol_split():
    l = layer(
        1,
        [comp("a", ["p1"]), comp("b", ["p1", "p2"]), comp("c", ["p2"])],
        [("a", "b"), ("b", "c")],
    )
    subs = {s.protocol: s.links for s in decompose_layer(l)}
    assert subs == {"p1": (("a", "b"),), "p2": (("b", "c"),)}


def test_access_point_example(ap_layer):
    subs = {s.protocol: s.links for s in decompose_layer(ap_layer)}
    assert subs == {"wired": (("ap", "sw"),), "wireless": (("ap", "cl"),)}
    assert check_cover(ap_layer) == []


def test_single_protocol_identity():
    l = layer(
        1,
        [comp("a"), comp("b"), comp("c")],
        [("a", "b"), ("b", "c")],
    )
    subs = decompose_layer(l)
    assert len(subs) == 1
    assert subs[0].links == l.links


def test_uncovered_link_reported():
    l = layer(
        1,
        [comp("a", ["p1"]), comp("c", ["p2"])],
        [("a", "c")],
        protocols=["p1", "p2"],
    )
    assert check_cover(l) == [("a", "c")]
    assert decompose_layer(l) == []


def test_unused_protocol_listed():
    l = layer(
        1,
        [comp("a", ["p1"]), comp("b", ["p1"])],
        [("a", "b")],
        protocols=["p1", "ghost"],
    )
    assert unused_protocols(l) == ["ghost"]


def test_multiplicity_counts():
    l = layer(
        1,
        [comp("a", ["p1", "p2"]), comp("b", ["p1", "p2"]), comp("c", ["p3"])],
        [("a", "b"), ("a", "c")],
        protocols=["p1", "p2", "p3"],
    )
    mult = Counter(link for sub in decompose_layer(l) for link in sub.links)
    assert mult[("a", "b")] == 2
    assert mult[("a", "c")] == 0
    assert check_cover(l) == [("a", "c")]


@given(seed=st.integers(0, 10_000), ensure_cover=st.booleans())
@settings(max_examples=80, deadline=None)
def test_decomposition_properties(seed, ensure_cover):
    l = random_layer(random.Random(seed), ensure_cover=ensure_cover)
    subs = decompose_layer(l)
    by_name = {c.name: c for c in l.components}
    layer_links = set(l.links)
    for sub in subs:
        assert set(sub.links) <= layer_links
        for a, b in sub.links:
            assert sub.protocol in by_name[a].spec.protocols
            assert sub.protocol in by_name[b].spec.protocols
    uncovered = set(check_cover(l))
    union = {link for sub in subs for link in sub.links}
    assert union | uncovered == layer_links
    assert not (union & uncovered)
    for count in Counter(link for sub in subs for link in sub.links).values():
        assert count <= len(l.protocols)
    if ensure_cover:
        assert uncovered == set()
        assert union == layer_links


@given(seed=st.integers(0, 10_000))
@settings(max_examples=30, deadline=None)
def test_decomposition_is_stable_under_reapplication(seed):
    l = random_layer(random.Random(seed), ensure_cover=True)
    once = decompose_layer(l)
    again = decompose_layer(l)
    assert once == again


@given(seed=st.integers(0, 10_000), narrow=st.booleans())
@settings(max_examples=80, deadline=None)
def test_decomposition_matches_oracle(seed, narrow):
    rng = random.Random(seed)
    l = random_layer(rng, ensure_cover=False)
    if narrow:
        # declare fewer protocols than the components support: the rest
        # must induce no sub-layer
        declared = rng.sample(l.protocols, rng.randint(0, len(l.protocols)))
        l = Layer.of(l.index, l.components, l.links, l.role, declared)
    subs, unused = oracle_decomposition(l)
    got = decompose_layer(l)
    assert [sub.protocol for sub in got] == sorted(subs)
    assert {sub.protocol: list(sub.links) for sub in got} == subs
    assert unused_protocols(l) == unused
    assert set(check_cover(l)) == oracle_uncovered(l)
    shared = [{p for p, links in subs.items() if link in links} for link in l.links]
    assert list(l.link_protocols) == shared
    assert Counter(link for sub in got for link in sub.links) == {
        link: len(ps) for link, ps in zip(l.links, shared) if ps
    }
