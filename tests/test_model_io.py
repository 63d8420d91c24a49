import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

import netstrata
from netstrata import analysis, consistency, faults, model_io, reference
from netstrata.model import ComponentId, Mode, SpecSet
from netstrata.model_io import (
    ModelDocument,
    ModelParseError,
    _components,
    emit_report,
    export_dot,
    parse_model,
    report_payload,
    serialize_model,
)
from netstrata.multiplex import decompose_layer

from .conftest import exactly
from .dotcheck import check_dot, cluster_names

ALL_FIXTURES = [
    "ap.mln.json",
    "basic_stack.mln.json",
    "extended_stack.mln.json",
    "dual_homed.mln.json",
    "dedicated_chain.mln.json",
    "inconsistent.mln.json",
]


def read(fixtures_dir, name):
    return (fixtures_dir / name).read_text()


def test_minimal_document():
    doc = parse_model(
        json.dumps(
            {
                "format_version": "1",
                "mode": "relaxed",
                "layers": [
                    {
                        "role": "custom",
                        "components": [
                            {"name": "only", "kind": "hardware", "protocols": ["p"]}
                        ],
                    }
                ],
            }
        )
    )
    assert doc.network.depth == 1
    assert doc.network.mode is Mode.RELAXED
    assert doc.scenarios == ()


def test_ap_fixture_decomposes(fixtures_dir):
    doc = parse_model(read(fixtures_dir, "ap.mln.json"))
    subs = {s.protocol: s.links for s in decompose_layer(doc.network.layer(1))}
    assert subs == {"wired": (("ap", "sw"),), "wireless": (("ap", "cl"),)}


@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_round_trip_identity(fixtures_dir, name):
    doc = parse_model(read(fixtures_dir, name))
    text = serialize_model(doc)
    assert parse_model(text) == doc
    assert serialize_model(parse_model(text)) == text


def test_canonical_form_ignores_input_order(fixtures_dir):
    raw = json.loads(read(fixtures_dir, "basic_stack.mln.json"))
    for layer_obj in raw["layers"]:
        layer_obj["components"].reverse()
        for link in layer_obj["links"]:
            link.reverse()
        layer_obj["links"].reverse()
    for cross in raw["cross_layers"]:
        cross["projections"].reverse()
    permuted = json.dumps(raw)
    original = read(fixtures_dir, "basic_stack.mln.json")
    assert serialize_model(parse_model(permuted)) == serialize_model(
        parse_model(original)
    )


def test_dangling_projection_reference():
    message = (
        "$.cross_layers[0].projections[0]: cross-layer 2->1: projection ('b', 'nothere') "
        "references unknown lower component 'nothere'"
    )
    with pytest.raises(ModelParseError, match=exactly(message)) as exc:
        parse_model(
            json.dumps(
                {
                    "format_version": "1",
                    "mode": "relaxed",
                    "layers": [
                        {
                            "role": "custom",
                            "components": [
                                {"name": "a", "kind": "hardware", "protocols": ["p"]}
                            ],
                        },
                        {
                            "role": "custom",
                            "components": [
                                {"name": "b", "kind": "hardware", "protocols": ["p"]}
                            ],
                        },
                    ],
                    "cross_layers": [
                        {"upper_index": 2, "projections": [["b", "nothere"]]}
                    ],
                }
            )
        )
    assert exc.value.position == "$.cross_layers[0].projections[0]"


def test_unknown_field_rejected():
    with pytest.raises(ModelParseError, match=exactly("$: unknown field 'color'")) as exc:
        parse_model('{"format_version": "1", "layers": [], "color": "red"}')
    assert exc.value.position == "$"


def test_unsupported_format_version():
    message = "$.format_version: unsupported format version '99' (expected '1')"
    with pytest.raises(ModelParseError, match=exactly(message)) as exc:
        parse_model('{"format_version": "99", "layers": []}')
    assert exc.value.position == "$.format_version"


def test_syntax_error_has_line_position(fixtures_dir):
    message = "line 4, column 1: Expecting value"
    with pytest.raises(ModelParseError, match=exactly(message)) as exc:
        parse_model(read(fixtures_dir, "malformed.mln.json"))
    assert exc.value.position == "line 4, column 1"


@pytest.mark.skipif(
    not getattr(sys, "get_int_max_str_digits", lambda: 0)(),
    reason="this interpreter has no int-string digit limit",
)
def test_overlong_integer_literal_is_a_syntax_error():
    # `json.loads` raises a plain ValueError, not a JSONDecodeError, past the limit
    digits = sys.get_int_max_str_digits() + 1
    message = "$: integer literal has too many digits"
    with pytest.raises(ModelParseError, match=exactly(message)) as exc:
        parse_model("[" + "1" * digits + "]")
    assert exc.value.position == "$"


@pytest.mark.parametrize(
    "old, new, position",
    [
        ('"name": "cl"', '"name": "c\\ud800"', "$.layers[0].components[2].name"),
        ('["wired"]', '["wi\\udfffred"]', "$.layers[0].components[1].protocols[0]"),
        ('"links"', '"attributes": {"\\ud800": 1}, "links"', "$.layers[0].attributes"),
    ],
    ids=["name", "protocol", "object-key"],
)
def test_lone_surrogate_is_rejected_at_its_path(fixtures_dir, old, new, position):
    text = read(fixtures_dir, "ap.mln.json").replace(old, new, 1)
    with pytest.raises(ModelParseError) as exc:
        parse_model(text)
    assert exc.value.position == position


def test_escaped_surrogate_pairs_and_backslashes_are_text(fixtures_dir):
    text = read(fixtures_dir, "ap.mln.json")
    for name in ("c\\ud83d\\ude00", "c\\\\ud800"):  # an emoji; a literal backslash
        doc = parse_model(text.replace('"cl"', f'"{name}"'))
        assert json.loads(f'"{name}"') in doc.network.layer(1).component_names


def test_all_parse_errors_carry_positions():
    bad_docs = [
        "",
        "[1, 2, 3]",
        '{"format_version": 1, "layers": []}',
        '{"format_version": "1"}',
        '{"format_version": "1", "layers": [{"role": "nope", "components": []}]}',
        '{"format_version": "1", "layers": [{"role": "custom", "components": '
        '[{"name": "a", "kind": "hardware", "protocols": ["p"]}], '
        '"links": [["a", "a", "a"]]}]}',
    ]
    for text in bad_docs:
        with pytest.raises(ModelParseError) as exc:
            parse_model(text)
        assert exc.value.position


def test_first_missing_field_in_schema_order_whatever_the_hash_seed():
    # Both `kind` and `protocols` are missing; `kind` comes first in the schema.
    text = (
        '{"format_version": "1", "layers": '
        '[{"role": "custom", "components": [{"name": "a"}]}]}'
    )
    expected = "$.layers[0].components[0]: missing required field 'kind'"
    with pytest.raises(ModelParseError, match=exactly(expected)):
        parse_model(text)
    code = (
        "import sys\n"
        "from netstrata.model_io import ModelParseError, parse_model\n"
        "try:\n"
        "    parse_model(sys.stdin.read())\n"
        "except ModelParseError as exc:\n"
        "    print(exc)\n"
    )
    src = str(Path(netstrata.__file__).parents[1])
    for seed in ("1", "2", "3"):  # the set-ordered check reported `protocols` under 2 and 3
        out = subprocess.run(
            [sys.executable, "-c", code], input=text, capture_output=True, text=True,
            env={**os.environ, "PYTHONPATH": src, "PYTHONHASHSEED": seed},
        )
        assert out.stdout == expected + "\n", (seed, out.stderr)


def test_scenarios_parse_and_lookup(fixtures_dir):
    doc = parse_model(read(fixtures_dir, "dual_homed.mln.json"))
    assert {s.label for s in doc.scenarios} == {"one-host", "both-hosts"}
    one = doc.scenario("one-host")
    assert len(one.failed_nodes) == 1
    with pytest.raises(KeyError):
        doc.scenario("missing")


def test_export_dot_flatten(fixtures_dir):
    doc = parse_model(read(fixtures_dir, "basic_stack.mln.json"))
    dot = export_dot(doc.network, "flatten")
    check_dot(dot)
    clusters = cluster_names(dot)
    assert len(clusters) == 4
    assert "style=dashed" in dot


def test_export_dot_sublayers(fixtures_dir):
    doc = parse_model(read(fixtures_dir, "ap.mln.json"))
    dot = export_dot(doc.network, "sublayers")
    check_dot(dot)
    assert len(cluster_names(dot)) == 2


def test_export_dot_layer_without_links():
    doc = parse_model(
        json.dumps(
            {
                "format_version": "1",
                "mode": "relaxed",
                "layers": [
                    {
                        "role": "custom",
                        "components": [
                            {"name": "solo", "kind": "hardware", "protocols": ["p"]}
                        ],
                    }
                ],
            }
        )
    )
    dot = export_dot(doc.network, "flatten")
    check_dot(dot)
    assert "solo" in dot


def test_emit_validation_report(fixtures_dir):
    doc = parse_model(read(fixtures_dir, "basic_stack.mln.json"))
    report = consistency.validate(doc.network)
    machine = json.loads(emit_report(report, "machine"))
    assert machine["kind"] == "validation"
    assert machine["passed"] is True
    assert machine["violations"] == []
    human = emit_report(report, "human")
    assert human.splitlines()[0].startswith("validation: PASSED")


def test_emit_conformance_report(fixtures_dir):
    doc = parse_model(read(fixtures_dir, "extended_stack.mln.json"))
    report = reference.check_reference_conformance(doc.network, "extended")
    machine = json.loads(emit_report(report, "machine"))
    assert machine["conforms"] is True


def test_emit_metrics_bundle(fixtures_dir):
    doc = parse_model(read(fixtures_dir, "basic_stack.mln.json"))
    bundle = {l.index: analysis.layer_metrics(l) for l in doc.network.layers}
    machine = json.loads(emit_report(bundle, "machine"))
    assert machine["kind"] == "metrics"
    assert len(machine["layers"]) == doc.network.depth


def test_emit_cascade_report_survival_totals(fixtures_dir):
    doc = parse_model(read(fixtures_dir, "dual_homed.mln.json"))
    result = faults.run_cascade(doc.network, doc.scenario("both-hosts"))
    machine = json.loads(emit_report(result, "machine"))
    total = 0
    for idx, fraction in machine["per_layer_survival"].items():
        layer = doc.network.layer(int(idx))
        total += round(fraction * len(layer.components))
    alive = sum(len(l.components) for l in doc.network.layers) - len(
        result.final_failed_nodes
    )
    assert total == alive



def _records(fixtures_dir):
    """One record of each type, from runs on two fixtures."""
    doc = parse_model(read(fixtures_dir, "dual_homed.mln.json"))
    net, layer = doc.network, doc.network.layers[0]
    report = consistency.validate(parse_model(read(fixtures_dir, "inconsistent.mln.json")).network)
    result = faults.run_cascade(net, doc.scenario("both-hosts"))
    flat = net.flatten()
    return [
        doc, net, layer, layer.components[0], layer.components[0].spec, ComponentId(1, "h1"),
        net.cross_layers[0], flat, min(flat.edges), net.substrate[0], layer.graph, layer.graph.dfs,
        report, report.violations[0], report.interlayer_classes[0], doc.scenarios[0], result,
        result.rounds[0], faults.exhaustive_single_faults(net)[0], analysis.layer_metrics(layer),
        decompose_layer(layer)[0], reference.check_reference_conformance(net, "basic"),
    ]


def test_every_record_is_the_tuple_of_its_fields(fixtures_dir):
    # A record equals the tuple of its fields and hashes as it, as a frozen
    # dataclass hashed, so set and dict orders, and stdout, stay as they were.
    records = _records(fixtures_dir)
    assert len({type(r) for r in records}) == 22
    for r in records:
        fields = tuple(getattr(r, f) for f in r._fields)
        assert r == fields and tuple(r) == fields
        for f in r._fields:
            with pytest.raises(AttributeError):
                setattr(r, f, None)
        try:
            want = hash(fields)
        except TypeError:  # a field holds a dict or a list
            continue
        assert hash(r) == want


def test_report_payload_tells_records_from_plain_tuples():
    # A report or a subject is told by its type, not by equality: a plain
    # tuple equal to a record is not taken for it.
    kind = consistency.ViolationKind.PATH_INCONSISTENCY
    subjects = [ComponentId(2, "s"), (2, "s"), ("a", "b"), None]
    report = consistency.ValidationReport(
        Mode.STRICT, tuple(consistency.Violation(kind, 2, s, "x") for s in subjects), (), ()
    )
    payload = report_payload(report)
    assert [v["subject"] for v in payload["violations"]] == ["2/s", (2, "s"), ("a", "b"), None]
    with pytest.raises(TypeError, match="cannot emit report for tuple"):
        report_payload(tuple(report))
    assert report_payload({})["kind"] == "metrics"
    assert report_payload([])["kind"] == "campaign"


class _AskedKeys(dict):
    """A spec cache that keeps each key it is asked for: the raw forms."""

    def __init__(self):
        super().__init__()
        self.asked = []

    def get(self, key, default=None):
        self.asked.append(key)
        return super().get(key, default)


_NAMES = st.sampled_from(["a", "b", "c", "d"])


@given(
    st.lists(
        st.fixed_dictionaries(
            {"protocols": st.lists(_NAMES, max_size=3)},
            optional={"attributes": st.dictionaries(_NAMES, _NAMES, max_size=2)},
        ),
        max_size=6,
    )
)
@example([{"protocols": ["a", "b"]}])
@example(
    [{"protocols": [], "attributes": {"a": "b", "c": "d"}},
     {"protocols": ["a", "b"], "attributes": {"c": "d"}}]
)
def test_spec_cache_keys_never_equal_a_spec_set(specs_raw):
    # The cache holds raw forms and the `SpecSet`s made from them side by
    # side. A `SpecSet` is a tuple, so a raw key must never equal one.
    specs = _AskedKeys()
    for i, raw in enumerate(specs_raw):
        _components([{"name": f"c{i}", "kind": "hardware", **raw}], "$", specs)
    assert all(type(s) is SpecSet for s in specs.values())
    assert not any(k == s for k in specs.asked for s in specs.values())


def _component(name, protocols=("p",)):
    return {"name": name, "kind": "hardware", "protocols": list(protocols)}


def _two_layer_doc():
    comp = _component
    return {
        "format_version": "1",
        "mode": "strict",
        "layers": [
            {"role": "custom", "components": [comp("a"), comp("b")], "links": [["a", "b"]]},
            {"role": "custom", "components": [comp("c"), comp("d")], "links": [["c", "d"]]},
        ],
        "cross_layers": [{"upper_index": 2, "projections": [["c", "a"], ["d", "b"]]}],
    }


STRUCTURAL_ERRORS = [
    ("dangling-link-endpoint", lambda d: d["layers"][1]["links"].append(["c", "ghost"]),
     "$.layers[1].links[1]", "layer 2: link ('c', 'ghost') references unknown component 'ghost'"),
    ("dangling-projection-endpoint",
     lambda d: d["cross_layers"][0]["projections"].append(["ghost", "a"]),
     "$.cross_layers[0].projections[2]",
     "cross-layer 2->1: projection ('ghost', 'a') references unknown upper component 'ghost'"),
    ("self-loop", lambda d: d["layers"][0]["links"].append(["b", "b"]),
     "$.layers[0].links[1]", "layer 1: self-loop on 'b'"),
    ("empty-name", lambda d: d["layers"][0]["components"].append(_component("")),
     "$.layers[0].components[2].name", "layer 1: component name must be non-empty"),
    ("duplicate-name", lambda d: d["layers"][1]["components"].append(_component("c")),
     "$.layers[1].components[2].name", "layer 2: duplicate component name 'c'"),
    ("slash-in-name", lambda d: d["layers"][0]["components"].append(_component("a/b")),
     "$.layers[0].components[2].name", "layer 1: component name 'a/b' contains '/'"),
    ("no-protocols", lambda d: d["layers"][0]["components"].append(_component("e", ())),
     "$.layers[0].components[2].protocols", "layer 1: component 'e' declares no protocols"),
    ("undeclared-protocol", lambda d: d["layers"][0].update(protocols=["q"]),
     "$.layers[0].components[0].protocols",
     "layer 1: component 'a' uses protocols ['p'] missing from the layer protocol set"),
    ("no-components", lambda d: d["layers"][1].update(components=[]),
     "$.layers[1].components", "layer 2 has no components"),
    ("no-layers", lambda d: d.update(layers=[]),
     "$.layers", "a network needs at least one layer"),
    ("upper-index-out-of-range", lambda d: d["cross_layers"][0].update(upper_index=3),
     "$.cross_layers[0].upper_index", "cross-layer upper index 3 is outside 2..2"),
    ("duplicate-upper-index",
     lambda d: d["cross_layers"].append({"upper_index": 2, "projections": []}),
     "$.cross_layers[1].upper_index", "duplicate cross-layer for upper index 2"),
    ("missing-cross-layer", lambda d: d.update(cross_layers=[]),
     "$.cross_layers", "no cross-layer between layer 2 and layer 1"),
    ("strict-empty-links", lambda d: d["layers"][1].update(links=[]),
     "$.layers[1].links", "layer 2 has no links (strict mode)"),
    ("strict-empty-projections", lambda d: d["cross_layers"][0].update(projections=[]),
     "$.cross_layers[0].projections", "cross-layer 2->1 has no projections (strict mode)"),
    ("non-string-attribute",
     lambda d: d["layers"][0]["components"][0].update(attributes={"rack": 3}),
     "$.layers[0].components[0].attributes.rack", "expected a string, got int"),
    ("scenario-link-bad-layer", lambda d: d.update(
        scenarios=[{"label": "x", "failed_links": [{"layer": 3, "link": ["a", "b"]}]}]),
     "$.scenarios[0].failed_links[0].layer", "no layer 3"),
    ("scenario-unknown-link", lambda d: d.update(
        scenarios=[{"label": "x", "failed_links": [{"layer": 2, "link": ["a", "b"]}]}]),
     "$.scenarios[0].failed_links[0].link", "no link ('a', 'b') on layer 2"),
    ("scenario-node-bad-layer", lambda d: d.update(
        scenarios=[{"label": "x", "failed_nodes": [{"layer": 0, "name": "a"}]}]),
     "$.scenarios[0].failed_nodes[0].layer", "no layer 0"),
    ("duplicate-scenario-label", lambda d: d.update(scenarios=[{"label": "x"}, {"label": "x"}]),
     "$.scenarios[1].label", "duplicate scenario label 'x'"),
]


@pytest.mark.parametrize(
    "edit, position, message",
    [row[1:] for row in STRUCTURAL_ERRORS],
    ids=[row[0] for row in STRUCTURAL_ERRORS],
)
def test_structural_errors_name_their_element(edit, position, message):
    doc = _two_layer_doc()
    parse_model(json.dumps(doc))
    edit(doc)
    with pytest.raises(ModelParseError, match=exactly(f"{position}: {message}")) as exc:
        parse_model(json.dumps(doc))
    assert exc.value.position == position


@pytest.mark.parametrize(
    "old, new, position",
    [
        ('"name": "b"', '"name": "b", "name": "z"', "$.layers[0].components[1]"),
        ('"upper_index": 2', '"upper_index": 2, "upper_index": 2', "$.cross_layers[0]"),
        ('"format_version": "1"', '"format_version": "1", "format_version": "1"', "$"),
    ],
    ids=["component", "cross-layer", "root"],
)
def test_duplicate_key_rejected_at_its_object(old, new, position):
    text = json.dumps(_two_layer_doc())
    assert old in text
    with pytest.raises(ModelParseError) as exc:
        parse_model(text.replace(old, new, 1))
    assert type(exc.value) is ModelParseError
    assert exc.value.position == position
    assert "duplicate field" in str(exc.value)


def test_mode_argument_overrides_the_declared_mode(fixtures_dir):
    text = read(fixtures_dir, "dual_homed.mln.json")
    assert parse_model(text).network.mode is Mode.RELAXED
    with pytest.raises(ModelParseError) as exc:
        parse_model(text, Mode.STRICT)
    assert exc.value.position == "$.layers[1].links"
    strict = read(fixtures_dir, "basic_stack.mln.json")
    assert parse_model(strict, "relaxed").network.mode is Mode.RELAXED
    # the declared mode is still checked when overridden
    with pytest.raises(ModelParseError) as exc:
        parse_model(strict.replace('"mode": "strict"', '"mode": "lenient"', 1), "strict")
    assert exc.value.position == "$.mode"


def test_failed_links_scenario_round_trips():
    doc = _two_layer_doc()
    # a reversed pair names the same undirected link
    doc["scenarios"] = [{"label": "cut", "failed_links": [{"layer": 1, "link": ["b", "a"]}]}]
    parsed = parse_model(json.dumps(doc))
    assert parsed.scenario("cut").failed_links == frozenset({(1, ("a", "b"))})
    text = serialize_model(parsed)
    assert json.loads(text)["scenarios"] == [
        {"label": "cut", "failed_nodes": [], "failed_links": [{"layer": 1, "link": ["a", "b"]}]}
    ]
    assert parse_model(text) == parsed
    assert serialize_model(parse_model(text)) == text


def _own_names(network):
    return {l.index: {c.name: c.name for c in l.components} for l in network.layers}


def _scrambled_document(text):
    """`text` with every array in reverse and every link pair flipped."""
    raw = json.loads(text)
    for layer_obj in raw["layers"]:
        layer_obj["components"].reverse()
        layer_obj["links"] = [link[::-1] for link in reversed(layer_obj["links"])]
    for cross in raw.get("cross_layers", []):
        cross["projections"].reverse()
    return json.dumps(raw)


@pytest.mark.parametrize("scrambled", [False, True], ids=["canonical", "scrambled"])
@pytest.mark.parametrize("name", ALL_FIXTURES)
def test_endpoints_are_their_components_name_objects(fixtures_dir, name, scrambled):
    text = read(fixtures_dir, name)
    network = parse_model(_scrambled_document(text) if scrambled else text).network
    own = _own_names(network)
    for layer in network.layers:
        names = own[layer.index]
        assert all(a is names[a] and b is names[b] for a, b in layer.links)
    for cross in network.cross_layers:
        upper, lower = own[cross.upper_index], own[cross.upper_index - 1]
        assert all(u is upper[u] and l is lower[l] for u, l in cross.projections)


def test_equal_spec_sets_within_a_document_are_one_object():
    doc = _two_layer_doc()
    comps = doc["layers"][0]["components"] + doc["layers"][1]["components"]
    comps[0].update(protocols=["p", "q"], attributes={"rack": "1", "site": "a"})
    comps[1].update(protocols=["q", "p"], attributes={"site": "a", "rack": "1"})
    comps[2].update(protocols=["q", "p", "q"], attributes={"rack": "1", "site": "a"})
    comps[3].update(protocols=["p"])
    for layer_obj in doc["layers"]:
        layer_obj["protocols"] = ["p", "q"]
    network = parse_model(json.dumps(doc)).network
    specs = [c.spec for l in network.layers for c in l.components]
    assert specs[0] == specs[1] == specs[2] != specs[3]
    assert specs[0] is specs[1] is specs[2]
    # and equal to a spec set of its own: sharing stays within one document
    assert parse_model(json.dumps(doc)).network.layers[0].components[0].spec is not specs[0]


GC_CASES = {
    "accepted": json.dumps(_two_layer_doc()),
    "json-error": '{"format_version": "1", "layers": [',
    "build-error": json.dumps(_two_layer_doc()).replace('["c", "d"]', '["c", "ghost"]'),
}


@pytest.mark.parametrize("case", list(GC_CASES))
@pytest.mark.parametrize("enabled", [True, False], ids=["gc-on", "gc-off"])
def test_parse_leaves_the_cyclic_gc_as_it_found_it(monkeypatch, case, enabled):
    during = []
    build = model_io.build_network
    monkeypatch.setattr(
        model_io, "build_network", lambda *a: during.append(gc.isenabled()) or build(*a)
    )
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        if case == "accepted":
            parse_model(GC_CASES[case])
        else:
            with pytest.raises(ModelParseError):
                parse_model(GC_CASES[case])
        assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()
    assert during == ([] if case == "json-error" else [False])
