"""Model document IO.

Models live in a single JSON document (extension .mln.json) with a closed
schema; serialization is canonical, so structurally equal models produce
byte-identical files. Parsing checks only the document's shape; structural
rules are `build_network`'s. Both check each long array in a few whole-array
passes, and go element by element only through an array that fails one, to
find its first fault. Every rejection carries a position: line/column for
malformed JSON, otherwise a JSON path to the offending element.
"""

from __future__ import annotations

import gc
import json
import re
from itertools import chain, repeat
from operator import add, itemgetter
from typing import TYPE_CHECKING, Any, Callable, Iterable, Mapping, NamedTuple

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
)

# `faults` and `multiplex` are imported where they are used, and no report
# module at all, so each CLI command loads only the modules it runs.
if TYPE_CHECKING:
    from .faults import FaultScenario

FORMAT_VERSION = "1"
REPORT_VERSION = "2"
_SURROGATE_ESCAPE = re.compile(r"\\u[dD][89a-fA-F]")
_SURROGATE = re.compile(r"[\ud800-\udfff]")


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


def _expect(value: Any, typ: type, path: str, what: str) -> Any:
    if type(value) is not typ:  # exact type: rejects bool for int, _RepeatedKey
        if isinstance(value, _RepeatedKey):
            raise ModelParseError(f"duplicate field {value.key!r}", path)
        raise ModelParseError(f"expected {what}, got {type(value).__name__}", path)
    return value


def _closed(
    obj: Mapping[str, Any], allowed: set[str], required: tuple[str, ...], path: str
) -> None:
    _expect(obj, dict, path, "an object")
    for key in obj:
        if key not in allowed:
            raise ModelParseError(f"unknown field {key!r}", path)
    for key in required:  # schema order: the field named does not depend on the hash seed
        if key not in obj:
            raise ModelParseError(f"missing required field {key!r}", path)


def _string_pair(value: Any, path: str = "") -> tuple[str, str]:
    _expect(value, list, path, "a two-element array")
    if len(value) != 2:
        raise ModelParseError("expected a two-element array", path)
    a, b = value
    return _expect(a, str, f"{path}[0]", "a string"), _expect(b, str, f"{path}[1]", "a string")


def _each(parse: Callable[..., Any], raw: list[Any], path: str, *args: Any) -> tuple:
    """`parse(element, *args)` of each element of the array at `path`.
    `parse` raises at a position relative to its element, which is made
    absolute here: a document that parses builds no element path."""
    parsed: list[Any] = []
    try:
        for value in raw:
            parsed.append(parse(value, *args))
    except ModelParseError as exc:
        raise ModelParseError(exc.message, f"{path}[{len(parsed)}]{exc.position}") from None
    return tuple(parsed)


_COMPONENT_FIELDS = frozenset({"name", "kind", "protocols", "attributes"})
_COMPONENT_REQUIRED = ("name", "kind", "protocols")
_KINDS = {kind.value: kind for kind in ComponentKind}
_NO_ATTRIBUTES: dict[str, str] = {}  # read, never written


def _spec(
    key: tuple, protocols: list[str], attributes: dict[str, str], specs: dict[Any, SpecSet]
) -> SpecSet:
    """The one `SpecSet` of this document for `key`, the raw form of
    `protocols` and `attributes`: `specs` maps each raw form seen, and each
    `SpecSet` made, to that one. Strings, then pairs: unambiguous, and unlike
    `(protocols, attributes)` never equal to a `SpecSet`, a tuple of two
    tuples, stored beside it."""
    spec = specs.get(key)
    if spec is None:
        spec = SpecSet.of(protocols, attributes)
        spec = specs[key] = specs.setdefault(spec, spec)
    return spec


def _parse_component(obj: Any, specs: dict[Any, SpecSet]) -> Component:
    """The component, raising at positions relative to it."""
    _closed(obj, _COMPONENT_FIELDS, _COMPONENT_REQUIRED, "")
    name = _expect(obj["name"], str, ".name", "a string")
    kind_raw = _expect(obj["kind"], str, ".kind", "a string")
    if kind_raw not in _KINDS:
        raise ModelParseError(f"unknown component kind {kind_raw!r}", ".kind")
    protocols = _expect(obj["protocols"], list, ".protocols", "an array")
    for i, p in enumerate(protocols):
        _expect(p, str, f".protocols[{i}]", "a string")
    attributes = _expect(obj.get("attributes", {}), dict, ".attributes", "an object")
    for k, v in attributes.items():
        _expect(v, str, f".attributes.{k}", "a string")
    key = (*protocols, *attributes.items())
    return Component(name, _KINDS[kind_raw], _spec(key, protocols, attributes, specs))


def _components(raw: list[Any], specs: dict[Any, SpecSet]) -> tuple[Component, ...] | None:
    """The components of `raw`, as `_parse_component` makes them, checked
    in whole-array passes: exact types, each distinct key tuple, and each
    field as one column. None if a pass fails: `_parse_component`, run on
    each element, then finds the first fault."""
    if not {dict}.issuperset(map(type, raw)):  # exact type: rejects _RepeatedKey
        return None
    for keys in set(map(tuple, raw)):
        if not _COMPONENT_FIELDS.issuperset(keys) or not set(keys).issuperset(_COMPONENT_REQUIRED):
            return None
    names, kinds = list(map(itemgetter("name"), raw)), list(map(itemgetter("kind"), raw))
    protocols = list(map(itemgetter("protocols"), raw))
    attributes = list(map(dict.get, raw, repeat("attributes"), repeat(_NO_ATTRIBUTES)))
    if not (
        {str}.issuperset(map(type, names))
        and {str}.issuperset(map(type, kinds))
        and _KINDS.keys() >= set(kinds)
        and {list}.issuperset(map(type, protocols))
        and {str}.issuperset(map(type, chain.from_iterable(protocols)))
        and {dict}.issuperset(map(type, attributes))
        and {str}.issuperset(map(type, chain.from_iterable(map(dict.values, attributes))))
    ):
        return None
    keys = list(map(tuple, protocols))
    if attributes.count(_NO_ATTRIBUTES) < len(attributes):  # not every one empty
        keys = list(map(add, keys, map(tuple, map(dict.items, attributes))))
    for key, i in dict(zip(keys, range(len(keys)))).items():
        _spec(key, protocols[i], attributes[i], specs)
    # `tuple.__new__` makes each component with no Python-level call.
    fields = zip(names, map(_KINDS.__getitem__, kinds), map(specs.__getitem__, keys))
    return tuple(map(tuple.__new__, repeat(Component), fields))


def _pairs(raw: list[Any]) -> tuple[tuple[str, str], ...] | None:
    """The string pairs of `raw`, checked in whole-array passes, or None if
    a pass fails: `_string_pair` then finds the first fault."""
    if (
        {list}.issuperset(map(type, raw))
        and {2}.issuperset(map(len, raw))
        and {str}.issuperset(map(type, chain.from_iterable(raw)))
    ):
        return tuple(map(tuple, raw))
    return None


def _parse_layer(obj: Any, index: int, path: str, specs: dict[Any, SpecSet]) -> Layer:
    """The layer as written; `build_network` checks and canonicalizes it."""
    _closed(obj, {"role", "protocols", "components", "links"}, ("role", "components"), path)
    role_raw = _expect(obj["role"], str, f"{path}.role", "a string")
    try:
        role = LayerRole(role_raw)
    except ValueError:
        raise ModelParseError(f"unknown layer role {role_raw!r}", f"{path}.role")
    comps_raw = _expect(obj["components"], list, f"{path}.components", "an array")
    components = _components(comps_raw, specs) or _each(
        _parse_component, comps_raw, f"{path}.components", specs
    )
    links_raw = _expect(obj.get("links", []), list, f"{path}.links", "an array")
    links = _pairs(links_raw) or _each(_string_pair, links_raw, f"{path}.links")
    if "protocols" in obj:
        protocols = _expect(obj["protocols"], list, f"{path}.protocols", "an array")
        for i, p in enumerate(protocols):
            _expect(p, str, f"{path}.protocols[{i}]", "a string")
    else:
        protocols = {p for c in components for p in c.protocols}
    return Layer(index, role, components, links, tuple(protocols))


def _parse_cross_layer(obj: Any, path: str) -> CrossLayer:
    """The cross-layer as written; `build_network` checks and canonicalizes it."""
    _closed(obj, {"upper_index", "projections"}, ("upper_index", "projections"), path)
    upper_index = _expect(obj["upper_index"], int, f"{path}.upper_index", "an integer")
    raw = _expect(obj["projections"], list, f"{path}.projections", "an array")
    return CrossLayer(upper_index, _pairs(raw) or _each(_string_pair, raw, f"{path}.projections"))


def _parse_node_ref(obj: Any, layers: tuple[Layer, ...], path: str) -> ComponentId:
    _closed(obj, {"layer", "name"}, ("layer", "name"), path)
    layer = _expect(obj["layer"], int, f"{path}.layer", "an integer")
    name = _expect(obj["name"], str, f"{path}.name", "a string")
    if not 1 <= layer <= len(layers):
        raise ModelParseError(f"no layer {layer}", f"{path}.layer")
    if name not in layers[layer - 1].node_ids:
        raise ModelParseError(
            f"no component {name!r} on layer {layer}", f"{path}.name"
        )
    return ComponentId(layer, name)


def _parse_scenario(obj: Any, layers: tuple[Layer, ...], path: str) -> FaultScenario:
    _closed(obj, {"label", "failed_nodes", "failed_links"}, ("label",), path)
    label = _expect(obj["label"], str, f"{path}.label", "a string")
    nodes = [
        _parse_node_ref(n, layers, f"{path}.failed_nodes[{i}]")
        for i, n in enumerate(
            _expect(obj.get("failed_nodes", []), list, f"{path}.failed_nodes", "an array")
        )
    ]
    links: list[tuple[int, tuple[str, str]]] = []
    raw_links = _expect(obj.get("failed_links", []), list, f"{path}.failed_links", "an array")
    for i, entry in enumerate(raw_links):
        lpath = f"{path}.failed_links[{i}]"
        _closed(entry, {"layer", "link"}, ("layer", "link"), lpath)
        layer = _expect(entry["layer"], int, f"{lpath}.layer", "an integer")
        if not 1 <= layer <= len(layers):
            raise ModelParseError(f"no layer {layer}", f"{lpath}.layer")
        a, b = _string_pair(entry["link"], f"{lpath}.link")
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
    version = _expect(data["format_version"], str, "$.format_version", "a string")
    if version != FORMAT_VERSION:
        raise ModelParseError(
            f"unsupported format version {version!r} (expected {FORMAT_VERSION!r})",
            "$.format_version",
        )
    mode_raw = _expect(data.get("mode", "strict"), str, "$.mode", "a string")
    try:
        declared = Mode(mode_raw)
    except ValueError:
        raise ModelParseError(f"unknown mode {mode_raw!r}", "$.mode")

    layers_raw = _expect(data["layers"], list, "$.layers", "an array")
    specs: dict[Any, SpecSet] = {}
    layers = [
        _parse_layer(obj, i + 1, f"$.layers[{i}]", specs) for i, obj in enumerate(layers_raw)
    ]
    cross_raw = _expect(data.get("cross_layers", []), list, "$.cross_layers", "an array")
    cross_layers = [
        _parse_cross_layer(obj, f"$.cross_layers[{i}]") for i, obj in enumerate(cross_raw)
    ]
    try:
        network = build_network(layers, cross_layers, declared if mode is None else mode)
    except ModelError as exc:
        raise ModelParseError(str(exc), f"$.{exc.path}")

    scenarios_raw = _expect(data.get("scenarios", []), list, "$.scenarios", "an array")
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
                    "functional_alive": e.result.functional_alive,
                    "failed_count": e.result.total_failed,
                    "round_count": len(e.result.rounds),
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
