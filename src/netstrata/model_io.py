"""Model document IO.

Models live in a single JSON document (extension .mln.json) with a closed
schema; serialization is canonical, so structurally equal models produce
byte-identical files. Parsing checks only the document's shape; structural
rules are `build_network`'s. Both write each rule about an array once, as a
row that `model.check` tests over the whole array, and bisects an array that
fails it to find its first fault. Every rejection carries a position:
line/column for malformed JSON, otherwise a JSON path to the offending element.
"""

from __future__ import annotations

import gc
import json
import re
from itertools import chain, repeat
from functools import partial
from operator import add
from typing import TYPE_CHECKING, Any, Iterable, Mapping, NamedTuple

from .model import (
    Component,
    ComponentId,
    ComponentKind,
    CrossLayer,
    Layer,
    LayerRole,
    Link,
    Mode,
    ModelError,
    MultilayerNetwork,
    SpecSet,
    build_network,
    canonical_link,
    check,
)

# `faults` and `multiplex` are imported where they are used, and no report
# module at all, so each CLI command loads only the modules it runs.
if TYPE_CHECKING:
    from .faults import FaultScenario

FORMAT_VERSION = "1"
REPORT_VERSION = "2"
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile(r"[\ud800-\udfff]")
_WHAT = {str: "a string", int: "an integer", list: "an array", dict: "an object"}


class ModelParseError(ValueError):
    """Document rejected; `position` pinpoints where."""

    def __init__(self, message: str, position: str):
        super().__init__(f"{position}: {message}")
        self.message = message
        self.position = position


class ModelDocument(NamedTuple):
    format_version: str
    network: MultilayerNetwork
    scenarios: tuple[FaultScenario, ...] = ()

    def scenario(self, label: str) -> FaultScenario:
        for s in self.scenarios:
            if s.label == label:
                return s
        raise KeyError(f"no scenario named {label!r}")


class _RepeatedKey(dict):
    """Stands in for a JSON object that repeats `key`; `_expect` rejects it
    at the object's own path."""

    def __init__(self, key: str):
        super().__init__()
        self.key = key


def _object(pairs: list[tuple[str, Any]]) -> dict[str, Any]:
    """`object_pairs_hook`: the object, or a `_RepeatedKey` if a key repeats."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        seen: set[str] = set()
        for key, _ in pairs:
            if key in seen:
                return _RepeatedKey(key)
            seen.add(key)
    return obj


def _lone_surrogate(data: Any) -> str | None:
    """JSON path of a string or object key holding a lone surrogate (from a
    `\\ud800`-style escape), or None. Such a string is not Unicode text and
    cannot be written out as UTF-8."""
    stack: list[tuple[Any, str]] = [(data, "$")]
    while stack:
        value, path = stack.pop()
        if isinstance(value, str):
            if _SURROGATE.search(value):
                return path
        elif isinstance(value, dict):
            if _SURROGATE.search("".join(value)):
                return path
            stack.extend((v, f"{path}.{k}") for k, v in value.items())
        elif isinstance(value, list):
            stack.extend((v, f"{path}[{i}]") for i, v in enumerate(value))
    return None


def _expect(value: Any, typ: type, path: str, what: str = "") -> Any:
    if type(value) is not typ:  # exact type: rejects bool for int, _RepeatedKey
        if isinstance(value, _RepeatedKey):
            raise ModelParseError(f"duplicate field {value.key!r}", path)
        raise ModelParseError(f"expected {what or _WHAT[typ]}, got {type(value).__name__}", path)
    return value


def _closed(
    obj: Mapping[str, Any], allowed: set[str], required: tuple[str, ...], path: str
) -> None:
    _expect(obj, dict, path)
    for key in obj:
        if key not in allowed:
            raise ModelParseError(f"unknown field {key!r}", path)
    for key in required:  # schema order: the field named does not depend on the hash seed
        if key not in obj:
            raise ModelParseError(f"missing required field {key!r}", path)


_COMPONENT_FIELDS = frozenset({"name", "kind", "protocols", "attributes"})
_COMPONENT_REQUIRED = ("name", "kind", "protocols")
_COMPONENT_KEYS = {frozenset(_COMPONENT_REQUIRED), _COMPONENT_FIELDS}
_KINDS = {kind.value: kind for kind in ComponentKind}
_NO_ATTRIBUTES: dict[str, str] = {}  # read, never written
_columns = partial(dict.fromkeys, (None,))  # {None: items}: the array's columns, filled on use


class _Shape(NamedTuple):
    """A shape rule as a row, over each element of an array or its `field`:
    an exact type, or by name the component fields, a component kind, a
    two-element array, or strings in a list or in an object."""

    field: str | None
    rule: Any

    def test(self, columns: dict[Any, list[Any]]) -> bool:
        if self.field not in columns:  # read each field of each element once
            field, absent = repeat(self.field), repeat(_NO_ATTRIBUTES)
            columns[self.field] = list(map(dict.get, columns[None], field, absent))
        rule, values = self.rule, columns[self.field]
        if rule == "fields":  # each distinct key tuple once
            return {dict}.issuperset(map(type, values)) and _COMPONENT_KEYS.issuperset(
                map(frozenset, set(map(tuple, values)))
            )
        if rule == "kind":
            return _KINDS.keys() >= set(values)
        if rule == "pair":
            return {list}.issuperset(map(type, values)) and {2}.issuperset(map(len, values))
        if rule == "values":
            values = map(dict.values, values)
        if rule in ("strings", "values"):
            rule, values = str, chain.from_iterable(values)
        return {rule}.issuperset(map(type, values))  # exact type: rejects bool, _RepeatedKey

    def fault(self, element: Any, j: int, where: str) -> None:
        value, path = element, where.format(j)
        if self.field:
            value, path = element.get(self.field, _NO_ATTRIBUTES), f"{path}.{self.field}"
        if self.rule in _WHAT:
            _expect(value, self.rule, path)
        if self.rule == "fields":
            _closed(value, _COMPONENT_FIELDS, _COMPONENT_REQUIRED, path)
        if self.rule == "kind":
            raise ModelParseError(f"unknown component kind {value!r}", path)
        if self.rule == "pair":
            _expect(value, list, path, "a two-element array")
            raise ModelParseError("expected a two-element array", path)
        for key, item in value.items() if self.rule == "values" else enumerate(value):
            at = f"{path}.{key}" if self.rule == "values" else f"{path}[{key}]"
            _expect(item, str, at)


# Each array's rows, in the order one element is checked against them.
_COMPONENT = (
    _Shape(None, "fields"), _Shape("name", str), _Shape("kind", str), _Shape("kind", "kind"),
    _Shape("protocols", list), _Shape("protocols", "strings"), _Shape("attributes", dict),
    _Shape("attributes", "values"),
)
_PAIR = (_Shape(None, "pair"), _Shape(None, "strings"))
_STRING = (_Shape(None, str),)


def _components(raw: list[Any], where: str, specs: dict[Any, SpecSet]) -> tuple[Component, ...]:
    """The components of `raw`, checked and read a field at a time, with
    error paths `where.format(j)`. `specs` maps each raw form of a spec seen,
    and each `SpecSet` made, to this document's one `SpecSet` for it. Strings,
    then pairs: unambiguous, and unlike `(protocols, attributes)` never equal
    to a `SpecSet`, a tuple of two tuples, stored beside it."""
    fields = check(_COMPONENT, raw, _columns, where)
    protocols, attributes = fields["protocols"], fields["attributes"]
    keys = list(map(tuple, protocols))
    if attributes.count(_NO_ATTRIBUTES) < len(attributes):  # not every one empty
        keys = list(map(add, keys, map(tuple, map(dict.items, attributes))))
    for key, i in dict(zip(keys, range(len(keys)))).items():
        if specs.get(key) is None:
            spec = SpecSet.of(protocols[i], attributes[i])
            specs[key] = specs.setdefault(spec, spec)
    # `tuple.__new__` makes each component with no Python-level call.
    kinds = map(_KINDS.__getitem__, fields["kind"])
    made = zip(fields["name"], kinds, map(specs.__getitem__, keys))
    return tuple(map(tuple.__new__, repeat(Component), made))


def _parse_layer(obj: Any, index: int, path: str, specs: dict[Any, SpecSet]) -> Layer:
    """The layer as written; `build_network` checks and canonicalizes it."""
    _closed(obj, {"role", "protocols", "components", "links"}, ("role", "components"), path)
    role_raw = _expect(obj["role"], str, f"{path}.role")
    try:
        role = LayerRole(role_raw)
    except ValueError:
        raise ModelParseError(f"unknown layer role {role_raw!r}", f"{path}.role")
    comps_raw = _expect(obj["components"], list, f"{path}.components")
    components = _components(comps_raw, f"{path}.components[{{}}]", specs)
    links = _expect(obj.get("links", []), list, f"{path}.links")
    check(_PAIR, links, _columns, f"{path}.links[{{}}]")
    if "protocols" in obj:
        protocols = _expect(obj["protocols"], list, f"{path}.protocols")
        check(_STRING, protocols, _columns, f"{path}.protocols[{{}}]")
    else:
        protocols = {p for c in components for p in c.protocols}
    return Layer(index, role, components, tuple(map(tuple, links)), tuple(protocols))


def _parse_cross_layer(obj: Any, path: str) -> CrossLayer:
    """The cross-layer as written; `build_network` checks and canonicalizes it."""
    _closed(obj, {"upper_index", "projections"}, ("upper_index", "projections"), path)
    upper_index = _expect(obj["upper_index"], int, f"{path}.upper_index")
    raw = _expect(obj["projections"], list, f"{path}.projections")
    check(_PAIR, raw, _columns, f"{path}.projections[{{}}]")
    return CrossLayer(upper_index, tuple(map(tuple, raw)))


def _parse_node_ref(obj: Any, layers: tuple[Layer, ...], path: str) -> ComponentId:
    _closed(obj, {"layer", "name"}, ("layer", "name"), path)
    layer = _expect(obj["layer"], int, f"{path}.layer")
    name = _expect(obj["name"], str, f"{path}.name")
    if not 1 <= layer <= len(layers):
        raise ModelParseError(f"no layer {layer}", f"{path}.layer")
    if name not in layers[layer - 1].node_ids:
        raise ModelParseError(
            f"no component {name!r} on layer {layer}", f"{path}.name"
        )
    return ComponentId(layer, name)


def _parse_scenario(obj: Any, layers: tuple[Layer, ...], path: str) -> FaultScenario:
    _closed(obj, {"label", "failed_nodes", "failed_links"}, ("label",), path)
    label = _expect(obj["label"], str, f"{path}.label")
    nodes = [
        _parse_node_ref(n, layers, f"{path}.failed_nodes[{i}]")
        for i, n in enumerate(_expect(obj.get("failed_nodes", []), list, f"{path}.failed_nodes"))
    ]
    links: list[tuple[int, tuple[str, str]]] = []
    raw_links = _expect(obj.get("failed_links", []), list, f"{path}.failed_links")
    for i, entry in enumerate(raw_links):
        lpath = f"{path}.failed_links[{i}]"
        _closed(entry, {"layer", "link"}, ("layer", "link"), lpath)
        layer = _expect(entry["layer"], int, f"{lpath}.layer")
        if not 1 <= layer <= len(layers):
            raise ModelParseError(f"no layer {layer}", f"{lpath}.layer")
        check(_PAIR, [entry["link"]], _columns, f"{lpath}.link")
        a, b = entry["link"]
        if canonical_link(a, b) not in layers[layer - 1].link_ids:
            raise ModelParseError(
                f"no link ({a!r}, {b!r}) on layer {layer}", f"{lpath}.link"
            )
        links.append((layer, (a, b)))
    from .faults import FaultScenario
    return FaultScenario.of(nodes, links, label)


def parse_model(text: str, mode: Mode | str | None = None) -> ModelDocument:
    """Parse and fully validate a model document. A given `mode` overrides
    the one the document declares, which must still be valid.

    The cyclic GC is paused meanwhile, and left as it was on every exit: the
    parse makes no reference cycles, yet each collection the decoder's and
    the model's many objects would set off scans them all again. The GC
    switch is process-wide, so a thread that turns the GC on or off while a
    parse runs has its choice undone when the parse ends."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return _parse_document(text, mode)
    finally:
        if enabled:
            gc.enable()


def _parse_document(text: str, mode: Mode | str | None) -> ModelDocument:
    try:
        data = json.loads(text, object_pairs_hook=_object)
    except json.JSONDecodeError as exc:
        raise ModelParseError(exc.msg, f"line {exc.lineno}, column {exc.colno}")
    except RecursionError:
        raise ModelParseError("arrays or objects nested too deeply", "$")
    except ValueError:  # CPython's int-string limit, not a JSONDecodeError
        raise ModelParseError("integer literal has too many digits", "$")
    # UTF-8 decoding already rejects encoded surrogates, so only a `\uD800`-
    # `\uDFFF` escape can bring one in; documents without one skip the walk.
    if _SURROGATE_ESCAPE.search(text) and (where := _lone_surrogate(data)) is not None:
        raise ModelParseError("string holds a lone surrogate, not Unicode text", where)

    _closed(
        data,
        {"format_version", "mode", "layers", "cross_layers", "scenarios"},
        ("format_version", "layers"),
        "$",
    )
    version = _expect(data["format_version"], str, "$.format_version")
    if version != FORMAT_VERSION:
        raise ModelParseError(
            f"unsupported format version {version!r} (expected {FORMAT_VERSION!r})",
            "$.format_version",
        )
    mode_raw = _expect(data.get("mode", "strict"), str, "$.mode")
    try:
        declared = Mode(mode_raw)
    except ValueError:
        raise ModelParseError(f"unknown mode {mode_raw!r}", "$.mode")

    layers_raw = _expect(data["layers"], list, "$.layers")
    specs: dict[Any, SpecSet] = {}
    layers = [
        _parse_layer(obj, i + 1, f"$.layers[{i}]", specs) for i, obj in enumerate(layers_raw)
    ]
    cross_raw = _expect(data.get("cross_layers", []), list, "$.cross_layers")
    cross_layers = [
        _parse_cross_layer(obj, f"$.cross_layers[{i}]") for i, obj in enumerate(cross_raw)
    ]
    try:
        network = build_network(layers, cross_layers, declared if mode is None else mode)
    except ModelError as exc:
        raise ModelParseError(str(exc), f"$.{exc.path}")

    scenarios_raw = _expect(data.get("scenarios", []), list, "$.scenarios")
    scenarios = []
    seen_labels: set[str] = set()
    for i, obj in enumerate(scenarios_raw):
        scenario = _parse_scenario(obj, network.layers, f"$.scenarios[{i}]")
        if scenario.label in seen_labels:
            raise ModelParseError(
                f"duplicate scenario label {scenario.label!r}", f"$.scenarios[{i}].label"
            )
        seen_labels.add(scenario.label)
        scenarios.append(scenario)
    scenarios.sort(key=lambda s: s.label)
    return ModelDocument(version, network, tuple(scenarios))


def serialize_model(doc: ModelDocument) -> str:
    """Canonical document text: layers bottom-to-top, everything sorted,
    byte-identical for structurally equal documents."""
    network = doc.network
    data: dict[str, Any] = {
        "format_version": FORMAT_VERSION,
        "mode": network.mode.value,
        "layers": [
            {
                "role": layer.role.value,
                "protocols": list(layer.protocols),
                "components": [
                    {
                        "name": comp.name,
                        "kind": comp.kind.value,
                        "protocols": list(comp.spec.protocols),
                        **(
                            {"attributes": dict(comp.spec.attributes)}
                            if comp.spec.attributes
                            else {}
                        ),
                    }
                    for comp in layer.components
                ],
                "links": [list(link) for link in layer.links],
            }
            for layer in network.layers
        ],
        "cross_layers": [
            {
                "upper_index": cross.upper_index,
                "projections": [list(p) for p in cross.projections],
            }
            for cross in network.cross_layers
        ],
    }
    if doc.scenarios:
        data["scenarios"] = [
            {
                "label": s.label,
                "failed_nodes": [
                    {"layer": n.layer_index, "name": n.local_name}
                    for n in sorted(s.failed_nodes)
                ],
                "failed_links": [
                    {"layer": idx, "link": list(link)}
                    for idx, link in sorted(s.failed_links)
                ],
            }
            for s in sorted(doc.scenarios, key=lambda s: s.label)
        ]
    return json.dumps(data, indent=2) + "\n"


def _dot_quote(name: str) -> str:
    return '"' + name.replace("\\", "\\\\").replace('"', '\\"') + '"'


def export_dot(network: MultilayerNetwork, view: str = "flatten") -> str:
    """Render the network as DOT. Views: flatten (layer clusters plus dashed
    interlayer edges), layers (clusters only), sublayers (one cluster per
    protocol sub-layer)."""
    if view not in ("flatten", "layers", "sublayers"):
        raise ValueError(f"unknown view {view!r}")
    from . import multiplex
    lines = ["graph multilayer {"]

    def cluster(
        name: str, label: str, prefix: str, nodes: Iterable[str], links: Iterable[Link]
    ) -> None:
        """One cluster; node ids are `prefix` + component name."""
        lines.append(f"  subgraph {name} {{")
        lines.append(f"    label={_dot_quote(label)};")
        for node in nodes:
            lines.append(f"    {_dot_quote(prefix + node)} [label={_dot_quote(node)}];")
        for a, b in links:
            lines.append(f"    {_dot_quote(prefix + a)} -- {_dot_quote(prefix + b)};")
        lines.append("  }")

    for layer in network.layers:
        if view == "sublayers":
            for sub in multiplex.decompose_layer(layer):
                cluster(
                    _dot_quote(f"cluster_layer_{layer.index}_{sub.protocol}"),
                    f"L{layer.index}:{sub.protocol}", f"{layer.index}/{sub.protocol}/",
                    sorted({n for link in sub.links for n in link}), sub.links,
                )
        else:
            cluster(
                f"cluster_layer_{layer.index}", f"L{layer.index} ({layer.role.value})",
                f"{layer.index}/", [c.name for c in layer.components], layer.links,
            )
    if view == "flatten":
        for cross in network.cross_layers:
            for up, low in cross.projections:
                lines.append(
                    f"  {_dot_quote(f'{cross.upper_index}/{up}')} -- "
                    f"{_dot_quote(f'{cross.upper_index - 1}/{low}')} [style=dashed];"
                )
    lines.append("}")
    return "\n".join(lines) + "\n"


def report_payload(report: Any) -> dict[str, Any]:
    """Machine-format dictionary for any report type. This is the only code
    that reads a report object; the human format is rendered from its result.
    A report type names its kind in a `kind` class attribute, so telling the
    types apart imports none of the modules that define them."""
    if isinstance(report, dict):
        kind = "metrics"  # layer index -> LayerMetrics
    elif isinstance(report, list):
        kind = "campaign"  # ranked list[ImpactEntry]
    else:
        kind = getattr(type(report), "kind", None)
    if kind == "validation":
        body = {
            "passed": report.passed,
            "mode": report.mode.value,
            "violations": [
                {
                    "kind": v.kind.value,
                    "layer": v.layer_index,
                    "subject": str(v.subject) if isinstance(v.subject, ComponentId) else v.subject,
                    "detail": v.detail,
                }
                for v in report.violations
            ],
            "warnings": report.warnings,
            "interlayer_classes": [
                {
                    "upper_index": ic.upper_index,
                    "classes": {str(node): cls.value for node, cls in ic.classes.items()},
                }
                for ic in report.interlayer_classes
            ],
        }
    elif kind == "conformance":
        body = {
            "model_kind": report.model_kind,
            "conforms": report.conforms,
            "missing_roles": [r.value for r in report.missing_roles],
            "order_violations": report.order_violations,
            "extras": report.extras,
        }
    elif kind == "cascade":
        body = {
            "scenario": report.scenario.label,
            "rounds": [
                {
                    "failed_nodes": sorted(str(n) for n in r.failed_nodes),
                    "inactive_links": sorted(r.inactive_links),
                }
                for r in report.rounds
            ],
            "final_failed_nodes": sorted(str(n) for n in report.final_failed_nodes),
            "final_inactive_links": sorted(report.final_inactive_links),
            "per_layer_survival": {
                str(k): v for k, v in sorted(report.per_layer_survival.items())
            },
            "per_layer_largest_component_fraction": {
                str(k): v
                for k, v in sorted(report.per_layer_largest_component_fraction.items())
            },
            "functional_alive": report.functional_alive,
        }
    elif kind == "metrics":
        body = {
            "layers": {str(idx): m._asdict() for idx, m in sorted(report.items())}
        }
    elif kind == "campaign":
        body = {
            "entries": [
                {
                    "node": str(e.node),
                    "functional_alive": e.functional_alive,
                    "failed_count": e.failed_count,
                    "round_count": e.round_count,
                }
                for e in report
            ]
        }
    else:
        raise TypeError(f"cannot emit report for {type(report).__name__}")
    return {"report_version": REPORT_VERSION, "kind": kind, **body}


def _human_lines(payload: dict[str, Any]) -> list[str]:
    """One finding per line, read from a `report_payload` result."""
    kind = payload["kind"]
    if kind == "validation":
        return [
            f"validation: {'PASSED' if payload['passed'] else 'FAILED'} ({payload['mode']} mode)",
            *(
                f"violation [{v['kind']}] layer {v['layer']}: {v['detail']}"
                for v in payload["violations"]
            ),
            *(f"warning: {w}" for w in payload["warnings"]),
        ]
    if kind == "conformance":
        return [
            f"conformance ({payload['model_kind']}): "
            f"{'CONFORMS' if payload['conforms'] else 'DOES NOT CONFORM'}",
            *(f"missing role: {r}" for r in payload["missing_roles"]),
            *(f"order violation: {o}" for o in payload["order_violations"]),
            *(f"extra layer: {idx}" for idx in payload["extras"]),
        ]
    if kind == "cascade":
        largest = payload["per_layer_largest_component_fraction"]
        return [
            f"cascade '{payload['scenario']}': {len(payload['final_failed_nodes'])} nodes "
            f"failed in {len(payload['rounds'])} rounds, functional layer "
            f"{'alive' if payload['functional_alive'] else 'DOWN'}",
            *(
                f"layer {idx}: survival {survival:.3f}, largest component {largest[idx]:.3f}"
                for idx, survival in payload["per_layer_survival"].items()
            ),
        ]
    if kind == "metrics":
        return [
            f"layer {idx}: {m['node_count']} nodes, {m['link_count']} links, "
            f"density {m['density']:.3f}, degrees {m['degree_min']}/"
            f"{m['degree_mean']:.2f}/{m['degree_max']}, "
            f"{m['connected_components']} components, "
            f"diameter {m['diameter_of_largest_component']}, "
            f"{len(m['articulation_points'])} articulation points, "
            f"{len(m['bridges'])} bridges"
            for idx, m in payload["layers"].items()
        ]
    return [
        f"{e['node']}: {e['failed_count']} failed in {e['round_count']} rounds, "
        f"functional {'alive' if e['functional_alive'] else 'DOWN'}"
        for e in payload["entries"]
    ]


def emit_report(report: Any, format: str = "human") -> str:
    """Render a report. Machine format is versioned JSON; human format is one
    finding per line, read from the same payload."""
    if format not in ("machine", "human"):
        raise ValueError(f"unknown report format {format!r}")
    payload = report_payload(report)
    if format == "machine":
        return json.dumps(payload, indent=2) + "\n"
    return "\n".join(_human_lines(payload)) + "\n"
