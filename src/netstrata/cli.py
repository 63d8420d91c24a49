"""Command-line front-end.

Exit codes: 0 success / conforming, 1 violations found, 2 usage or parse
error, or output that could not be written (a closed pipe, a full device).
Diagnostics go to stderr; data goes to stdout.
"""

from __future__ import annotations

import os
import sys
from pathlib import Path
from typing import NoReturn, TextIO

import click

from . import __version__, analysis, consistency, faults, model_io, multiplex
from .model import ComponentId, Mode
from .model_io import ModelDocument, ModelParseError


def _silence(stream: TextIO) -> None:
    """Point `stream` at /dev/null after a failed write. The unwritten bytes
    stay in its buffer, and Python's flush at exit would fail on them again,
    print `Exception ignored` and exit 120."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _usage_error(message: str) -> NoReturn:
    """Print one `error:` line, if stderr can still be written, and exit 2."""
    try:
        click.echo(f"error: {message}", err=True)
    except OSError:
        _silence(sys.stderr)
    sys.exit(2)


def _write(text: str, output: str | None = None) -> None:
    """Write `text` to the file `output`, or to stdout. A failed write is exit
    2, not a result, so it never reads as "violations found"."""
    try:
        if output is None:
            click.echo(text, nl=False)
        else:
            Path(output).write_text(text)
    except OSError as exc:
        if output is None:
            _silence(sys.stdout)
        _usage_error(str(exc))


def _read(path: str) -> str:
    try:
        return Path(path).read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ModelParseError(f"not UTF-8 text ({exc.reason})", f"byte {exc.start}")


def _load(path: str, mode: str | None) -> ModelDocument:
    """Parse a model file; an explicit --mode (or NETSTRATA_MODE) overrides
    the mode declared in the file."""
    try:
        return model_io.parse_model(_read(path), mode)
    except (OSError, ModelParseError) as exc:
        _usage_error(str(exc))


mode_option = click.option(
    "--mode",
    type=click.Choice(["strict", "relaxed"]),
    default=None,
    envvar="NETSTRATA_MODE",
    help="Override the mode declared in the model file.",
)
format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["human", "machine"]),
    default="human",
    show_default=True,
)


@click.group()
@click.version_option(__version__)
def main() -> None:
    """Model, validate, analyze, and fault-simulate hierarchical multilayer
    networks."""


@main.command()
@click.argument("model", type=click.Path())
@mode_option
@format_option
def validate(model: str, mode: str | None, fmt: str) -> None:
    """Run the top-down consistency checks."""
    doc = _load(model, mode)
    report = consistency.validate(doc.network)
    _write(model_io.emit_report(report, fmt))
    sys.exit(0 if report.passed else 1)


@main.command()
@click.argument("model", type=click.Path())
@click.option("--layer", "layer_index", type=int, required=True)
@mode_option
def decompose(model: str, layer_index: int, mode: str | None) -> None:
    """List the protocol sub-layers of one layer."""
    doc = _load(model, mode)
    try:
        layer = doc.network.layer(layer_index)
    except KeyError as exc:
        _usage_error(exc.args[0])
    for sub in multiplex.decompose_layer(layer):
        links = ", ".join(f"({a}, {b})" for a, b in sub.links)
        _write(f"protocol {sub.protocol}: {links}\n")
    for p in multiplex.unused_protocols(layer):
        _write(f"unused protocol: {p}\n")
    uncovered = multiplex.check_cover(layer)
    for a, b in uncovered:
        _write(f"uncovered link: ({a}, {b})\n")
    if uncovered and doc.network.mode is Mode.STRICT:
        sys.exit(1)


@main.command()
@click.argument("model", type=click.Path())
@click.option("--layer", "layer_index", type=int, default=None)
@mode_option
@format_option
def metrics(model: str, layer_index: int | None, mode: str | None, fmt: str) -> None:
    """Per-layer structural metrics."""
    doc = _load(model, mode)
    if layer_index is not None:
        try:
            layers = [doc.network.layer(layer_index)]
        except KeyError as exc:
            _usage_error(exc.args[0])
    else:
        layers = list(doc.network.layers)
    bundle = {layer.index: analysis.layer_metrics(layer) for layer in layers}
    _write(model_io.emit_report(bundle, fmt))


def _parse_node_spec(spec: str) -> ComponentId:
    """'layer/name' or bare name (assumed bottom layer)."""
    if "/" in spec:
        raw_layer, name = spec.split("/", 1)
        try:
            layer_index = int(raw_layer)
        except ValueError:
            raise faults.UnknownScenarioElement(f"bad node spec {spec!r}")
    else:
        layer_index, name = 1, spec
    return ComponentId(layer_index, name)


@main.command()
@click.argument("model", type=click.Path())
@click.option("--fail", "fail_spec", default=None, help="Comma-separated nodes, e.g. h1 or 2/s1.")
@click.option("--scenario", "scenario_name", default=None, help="Named scenario from the model file.")
@click.option("--exhaustive", is_flag=True, help="One cascade per bottom-layer node, ranked by impact.")
@mode_option
@format_option
def simulate(
    model: str,
    fail_spec: str | None,
    scenario_name: str | None,
    exhaustive: bool,
    mode: str | None,
    fmt: str,
) -> None:
    """Fault-injection cascade simulation."""
    chosen = sum(x is not None for x in (fail_spec, scenario_name)) + int(exhaustive)
    if chosen != 1:
        _usage_error("pass exactly one of --fail, --scenario, --exhaustive")
    doc = _load(model, mode)

    if exhaustive:
        ranking = faults.exhaustive_single_faults(doc.network)
        _write(model_io.emit_report(ranking, fmt))
        return

    try:
        if scenario_name is not None:
            scenario = doc.scenario(scenario_name)
        else:
            specs = [s.strip() for s in fail_spec.split(",")]
            nodes = [_parse_node_spec(s) for s in specs if s]
            if not nodes:
                _usage_error("--fail names no node")
            scenario = faults.FaultScenario.of(nodes, label=f"fail {fail_spec}")
        result = faults.run_cascade(doc.network, scenario)
    except (faults.UnknownScenarioElement, KeyError) as exc:
        _usage_error(exc.args[0])
    _write(model_io.emit_report(result, fmt))


@main.command()
@click.argument("model", type=click.Path())
@click.option(
    "--view",
    type=click.Choice(["flatten", "layers", "sublayers"]),
    default="flatten",
    show_default=True,
)
@click.option("-o", "--output", type=click.Path(), default=None, help="Output file (default stdout).")
@mode_option
def export(model: str, view: str, output: str | None, mode: str | None) -> None:
    """Export the network as Graphviz DOT."""
    doc = _load(model, mode)
    _write(model_io.export_dot(doc.network, view), output)


if __name__ == "__main__":
    main()
