"""The whole-array passes of `parse_model` and `build_network` against the
per-element checkers they stand in for. Forced onto the per-element path,
every document must give an equal `ModelDocument`, or the same rejection.

On that path `model_io` parses every component, link and projection with
`_parse_component` or `_string_pair`, and `build_network` runs
`_layer_fault` and `_cross_layer_fault` on every layer and cross-layer
before its own passes. A pass that accepts what an element checker rejects
then gives a different outcome; one that rejects what the element checkers
accept ends in the `AssertionError` after the fault finder.
"""

import json
import random
from array import array
from contextlib import contextmanager
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstrata import model, model_io
from netstrata.generators import desk_model, random_network
from netstrata.model_io import ModelDocument, ModelParseError, parse_model, serialize_model

from .conftest import FIXTURES
from .test_acceptance import ALL_FIXTURES
from .test_parse_outcomes import GOLDEN, corpus, network_document


@contextmanager
def per_element():
    check_layer, check_cross_layer = model._check_layer, model._check_cross_layer

    def layer_first(layer, path, *args):
        model._layer_fault(layer, path)
        return check_layer(layer, path, *args)

    def cross_layer_first(cross, path, upper, lower, *args):
        model._cross_layer_fault(cross, path, upper, lower)
        return check_cross_layer(cross, path, upper, lower, *args)

    with mock.patch.multiple(
        model_io, _components=lambda raw, specs: None, _pairs=lambda raw: None
    ), mock.patch.multiple(
        model, _check_layer=layer_first, _check_cross_layer=cross_layer_first
    ):
        yield


def outcome(text):
    try:
        return parse_model(text)
    except ModelParseError as exc:
        return exc.position, exc.message


def assert_paths_agree(text):
    fast = outcome(text)
    with per_element():
        slow = outcome(text)
    assert fast == slow
    if isinstance(fast, ModelDocument):
        assert_seeded_tables_are_the_named_ones(fast.network)
    return fast


def assert_seeded_tables_are_the_named_ones(network):
    """The id tables `build_network` fills in equal those mapped here from
    names, and every endpoint is its component's own name."""
    own, ids = {}, {}
    for layer in network.layers:
        at = ids[layer.index] = {c.name: i for i, c in enumerate(layer.components)}
        assert layer.node_ids == at
        assert layer.id_links == tuple((at[a], at[b]) for a, b in layer.links)
        names = own[layer.index] = {c.name: c.name for c in layer.components}
        assert all(a is names[a] and b is names[b] for a, b in layer.links)
    for cross, (ups, lows) in zip(network.cross_layers, network.projection_ids, strict=True):
        upper, lower = own[cross.upper_index], own[cross.upper_index - 1]
        assert ups == array("i", [ids[cross.upper_index][u] for u, _ in cross.projections])
        assert lows == array("i", [ids[cross.upper_index - 1][l] for _, l in cross.projections])
        assert all(u is upper[u] and l is lower[l] for u, l in cross.projections)


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_fixtures(name):
    assert_paths_agree((FIXTURES / name).read_text())


def test_desk_document():
    doc = assert_paths_agree(serialize_model(ModelDocument("1", desk_model())))
    assert isinstance(doc, ModelDocument)


def test_every_golden_corpus_document():
    # Rejected documents too: they hold the faults deep inside long arrays.
    accepted = json.loads(GOLDEN.read_text())
    outcomes = [assert_paths_agree(text) for _, text in corpus()]
    assert [isinstance(o, ModelDocument) for o in outcomes] == [
        o is None for o in accepted.values()
    ]


def _shaken_document(seed):
    """A `random_network` document with attributes on some components, and
    every array shuffled, some link and projection pairs flipped."""
    rng = random.Random(seed)
    data = json.loads(serialize_model(ModelDocument("1", random_network(rng, max_nodes=60))))
    for layer in data["layers"]:
        for comp in layer["components"]:
            if rng.random() < 0.3:
                comp["attributes"] = {"rack": f"r{rng.randrange(3)}", "site": "s1"}
        for key in ("components", "links"):
            rng.shuffle(layer[key])
        layer["links"] = [link[::-1] if rng.random() < 0.5 else link for link in layer["links"]]
    for cross in data["cross_layers"]:
        rng.shuffle(cross["projections"])
    return data


@given(seed=st.integers(0, 10_000))
@settings(max_examples=80, deadline=None)
def test_random_documents(seed):
    assert isinstance(assert_paths_agree(json.dumps(_shaken_document(seed))), ModelDocument)


def _top(data):
    """The top layer, the last component of that layer, and the cross-layer
    below it: each hand fault goes at the end of a long array."""
    layer = data["layers"][-1]
    return layer, layer["components"][-1], data["cross_layers"][-1]


def _rename_last(data, new):
    """Rename the last component of the top layer at every endpoint too, so
    that its name is the only fault."""
    layer, comp, cross = _top(data)
    old = comp["name"]
    comp["name"] = new
    for link in layer["links"]:
        link[:] = [new if end == old else end for end in link]
    for projection in cross["projections"]:
        projection[0] = new if projection[0] == old else projection[0]


# Each edit makes one fault, the only one in its document: the first eight
# only an exact-type or key test of `model_io` finds, the rest only one
# whole-array pass of `build_network`.
_FAULTS = {
    "bool name": (lambda d: _top(d)[1].update(name=True), ".name"),
    "int kind": (lambda d: _top(d)[1].update(kind=1), ".kind"),
    "non-string protocol": (lambda d: _top(d)[1]["protocols"].append(1), ".protocols["),
    "protocols as object": (lambda d: _top(d)[1].update(protocols={}), ".protocols"),
    "bool attribute value": (lambda d: _top(d)[1].update(attributes={"rack": False}), ".rack"),
    "attributes as array": (lambda d: _top(d)[1].update(attributes=[]), ".attributes"),
    "unknown field": (lambda d: _top(d)[1].update(colour="red"), ".components["),
    "missing kind": (lambda d: _top(d)[1].pop("kind"), ".components["),
    "empty name": (lambda d: _rename_last(d, ""), ".name"),
    "slash in a name": (lambda d: _rename_last(d, "a/b"), ".name"),
    "duplicate name": (
        lambda d: _top(d)[0]["components"].append(d["layers"][-1]["components"][0]), ".name"
    ),
    "no protocols": (lambda d: _top(d)[1].update(protocols=[]), ".protocols"),
    "undeclared protocol": (lambda d: _top(d)[1]["protocols"].append("zzz"), ".protocols"),
    "self-loop": (lambda d: _top(d)[0]["links"].append([_top(d)[1]["name"]] * 2), ".links["),
    "unknown link end": (
        lambda d: _top(d)[0]["links"].append([_top(d)[1]["name"], "x"]), ".links["
    ),
    "unknown upper end": (
        lambda d: _top(d)[2]["projections"].append(["x", d["layers"][0]["components"][0]["name"]]),
        ".projections[",
    ),
    "unknown lower end": (
        lambda d: _top(d)[2]["projections"].append([_top(d)[1]["name"], "x"]), ".projections["
    ),
}


@pytest.mark.parametrize("fault", _FAULTS)
def test_hand_faults(fault):
    edit, where = _FAULTS[fault]
    data = json.loads(network_document())
    edit(data)
    position, _ = assert_paths_agree(json.dumps(data))
    assert position.startswith(f"$.layers[{len(data['layers']) - 1}]") or ".projections[" in where
    assert where in position


@pytest.mark.parametrize(
    "old, new, where",
    [
        ('"name": "', '"name": "x", "name": "', ".components["),  # the last component
        ('"rack": "', '"rack": "x", "rack": "', ".attributes"),  # the last attributes
        ('["', '[true, "', ".projections["),  # the last projection
        ('["', '["a", "b", "', ".projections["),
    ],
    ids=["repeated key", "repeated attribute", "bool in a pair", "three-element pair"],
)
def test_hand_faults_in_the_text(old, new, where):
    text = network_document()
    at = text.rindex(old)
    position, _ = assert_paths_agree(text[:at] + new + text[at + len(old) :])
    assert where in position
