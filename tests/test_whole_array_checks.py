"""The loading rules of `parse_model` and `build_network`, each written once
as a row that `model.check` runs over whole columns, held to a linear
reference. On every `check` call these tests make, each row is tested on
each prefix of the array, as long as the rows before it hold there: no row
fails on the empty prefix, and a row that fails on a prefix fails on every
longer one, the precondition of the bisection. `check` must then give what
`linear_check` gives, the fault of the first element on whose prefix some
row fails: the same columns, or the same error.
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
from netstrata.model import ModelError
from netstrata.model_io import ModelDocument, ModelParseError, parse_model, serialize_model

from .conftest import FIXTURES
from .test_acceptance import ALL_FIXTURES
from .test_parse_outcomes import network_document


def first_failing(rows, items, columns):
    """For each prefix length k, the position in `rows` of the first row that
    fails on the first k elements, or len(rows) if none does. A row is
    tested only where the rows before it hold, as `check` tests it, and each
    row's test must hold on the empty prefix and, once it fails on a prefix,
    fail on every longer one: this first failing row never moves later."""
    first = []
    for k in range(len(items) + 1):
        cols = columns(items[:k])
        first.append(next((r for r, row in enumerate(rows) if not row.test(cols)), len(rows)))
    assert first[0] == len(rows), "a row fails on the empty array"
    assert first == sorted(first, reverse=True), "a row holds on a longer prefix"
    return first


def linear_check(rows, items, columns, *context):
    """`model.check` by a linear scan: the fault of the first element i such
    that some row fails on the first i + 1 elements, for the first such row."""
    first = first_failing(rows, items, columns)
    for i, element in enumerate(items):
        if first[i + 1] < len(rows):
            rows[first[i + 1]].fault(element, i, *context)
    return columns(items)


def describe(exc):
    if isinstance(exc, ModelError):
        return "ModelError", str(exc), exc.path
    return "ModelParseError", exc.position, exc.message


def raised(call, *args):
    """The error `call(*args)` raises, described, or None."""
    try:
        call(*args)
    except (ModelError, ModelParseError) as exc:
        return describe(exc)
    return None


@contextmanager
def against_the_linear_reference():
    """Hold every `check` call, the recursive ones too, to `linear_check`."""
    real, calls = model.check, []

    def check(rows, items, columns, *context):
        calls.append(len(items))
        expected = raised(linear_check, rows, items, columns, *context)
        try:
            result = real(rows, items, columns, *context)
        except (ModelError, ModelParseError) as exc:
            assert describe(exc) == expected
            raise
        assert expected is None, f"check accepted what the reference rejects: {expected}"
        return result

    with mock.patch.object(model, "check", check), mock.patch.object(model_io, "check", check):
        yield calls


def outcome(text):
    try:
        return parse_model(text)
    except ModelParseError as exc:
        return exc.position, exc.message


def checked_outcome(text):
    """The outcome of `parse_model`, with every array held to the reference."""
    with against_the_linear_reference() as calls:
        result = outcome(text)
    assert calls, "no array was checked"
    assert result == outcome(text)
    if isinstance(result, ModelDocument):
        assert_seeded_tables_are_the_named_ones(result.network)
    return result


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
    checked_outcome((FIXTURES / name).read_text())


def test_desk_document():
    # Too long for the quadratic reference: the tables alone are checked.
    doc = outcome(serialize_model(ModelDocument("1", desk_model())))
    assert isinstance(doc, ModelDocument)
    assert_seeded_tables_are_the_named_ones(doc.network)


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
    assert isinstance(checked_outcome(json.dumps(_shaken_document(seed))), ModelDocument)


# Faults to put on one element of an array: each breaks at least one rule.
_COMPONENT_FAULTS = (
    lambda c, names: c.update(name=True),
    lambda c, names: c.update(name=""),
    lambda c, names: c.update(name="a/b"),
    lambda c, names: c.update(name=next((n for n in names if n != c["name"]), "")),  # duplicate
    lambda c, names: c.update(kind=1),
    lambda c, names: c.update(kind="nope"),
    lambda c, names: c.update(protocols=[]),
    lambda c, names: c.update(protocols=[1]),
    lambda c, names: c.update(protocols={}),
    lambda c, names: c.update(protocols=["zzz"]),
    lambda c, names: c.update(attributes=[]),
    lambda c, names: c.update(attributes={"rack": False}),
    lambda c, names: c.update(colour="red"),
    lambda c, names: c.pop("kind"),
)
_PAIR_FAULTS = (
    lambda p, names: p.__setitem__(1, p[0]),
    lambda p, names: p.__setitem__(0, "ghost"),
    lambda p, names: p.__setitem__(1, "ghost"),
    lambda p, names: p.__setitem__(slice(None), ["ghost", "ghost"]),
    lambda p, names: p.__setitem__(slice(None), ["ghost", "spook"]),
    lambda p, names: p.__setitem__(1, True),
    lambda p, names: p.append(names[0]),
    lambda p, names: p.pop(),
)


def _inject(rng, data, broken):
    """Break one element of one array of `data`, chosen by `rng`, other than
    those in `broken`, so that a second fault cannot undo the first."""
    layer = rng.choice(data["layers"])
    names = [c["name"] for c in layer["components"]]
    arrays = [(layer["components"], _COMPONENT_FAULTS), (layer["protocols"], None)]
    arrays += [(layer["links"], _PAIR_FAULTS)]
    arrays += [(c["projections"], _PAIR_FAULTS) for c in data["cross_layers"]]
    array_, faults = rng.choice([(a, f) for a, f in arrays if a])
    j = rng.randrange(len(array_))
    if (id(array_), j) in broken:
        return _inject(rng, data, broken)
    broken.add((id(array_), j))
    if faults is None:
        array_[j] = rng.choice([1, None, ["p"]])
    else:
        rng.choice(faults)(array_[j], names)


@given(seed=st.integers(0, 10_000), faults=st.integers(1, 2))
@settings(max_examples=120, deadline=None)
def test_injected_faults(seed, faults):
    # One or two elements broken, often in one array: the first in input
    # order is reported, for the first rule it breaks.
    rng, data, broken = random.Random(seed), _shaken_document(seed), set()
    for _ in range(faults):
        _inject(rng, data, broken)
    assert not isinstance(checked_outcome(json.dumps(data)), ModelDocument)


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
# only a shape row of `model_io` finds, the rest only one row of
# `build_network`.
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
    position, _ = checked_outcome(json.dumps(data))
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
    position, _ = checked_outcome(text[:at] + new + text[at + len(old) :])
    assert where in position


def test_rows_keep_the_checker_order():
    # An element that breaks several rules is reported for the first row, so
    # the rows keep the order the rules have always been checked in, even
    # where no one element can break both of two rules, as with an empty
    # name and a name with a '/'.
    assert [rule.message for rule in model._COMPONENT_RULES] == [
        "component name must be non-empty",
        "component name {0!r} contains '/'",
        "duplicate component name {0!r}",
        "component {0!r} declares no protocols",
        "component {0!r} uses protocols {missing} missing from the layer protocol set",
    ]
    assert [rule.message.split()[0] for rule in model._LINK_RULES] == ["self-loop", "link", "link"]
    assert ["upper" in rule.message for rule in model._PROJECTION_RULES] == [True, False]
    assert [(row.field, row.rule) for row in model_io._COMPONENT] == [
        (None, "fields"), ("name", str), ("kind", str), ("kind", "kind"),
        ("protocols", list), ("protocols", "strings"), ("attributes", dict),
        ("attributes", "values"),
    ]
    assert [row.rule for row in model_io._PAIR] == ["pair", "strings"]
