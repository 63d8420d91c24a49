"""Command-line front-end, on the standard library's argparse.

Exit codes: 0 success / conforming, 1 violations found, 2 usage or parse
error, or output that could not be written (a closed pipe, a full device),
help and version text included. Diagnostics go to stderr; data goes to
stdout. Stdout and the `export -o` file are written as UTF-8 whatever the
locale, as inputs are read. An interrupt is not caught, so it ends the
process with SIGINT's status.

A process enters at `run`, in-process callers at `main`.
"""

from __future__ import annotations

import argparse
import functools
import gc
import os
import sys
from pathlib import Path
from typing import NoReturn, TextIO

from . import __version__, model_io
from .model import ComponentId, Layer, Mode
from .model_io import ModelDocument, ModelParseError

MODES = tuple(mode.value for mode in Mode)


def _silence(stream: TextIO) -> None:
    """Point `stream` at /dev/null after a failed write. The unwritten bytes
    stay in its buffer, and Python's flush at exit would fail on them again,
    print `Exception ignored` and exit 120."""
    devnull = os.open(os.devnull, os.O_WRONLY)
    os.dup2(devnull, stream.fileno())
    os.close(devnull)


def _usage_error(message: str) -> NoReturn:
    """Print one `error:` line, if stderr can still be written, and exit 2. A
    closed stderr is None, and `print` would write to stdout in its place."""
    try:
        if sys.stderr is not None:
            print(f"error: {message}", file=sys.stderr, flush=True)
    except OSError:
        _silence(sys.stderr)
    sys.exit(2)


def _write(text: str, output: str | None = None) -> None:
    """Write `text` as UTF-8 to the file `output`, or to stdout. A failed write
    is exit 2, not a result, so it never reads as "violations found"; so is a
    closed stdout, which Python leaves as `None`."""
    data = text.encode("utf-8")
    if output is None and sys.stdout is None:
        _usage_error("stdout is closed")
    try:
        if output is None:
            sys.stdout.buffer.write(data)
            sys.stdout.buffer.flush()
        else:
            Path(output).write_bytes(data)
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


def _layer(doc: ModelDocument, index: int) -> Layer:
    """The layer `--layer` names; one the model does not have is exit 2."""
    try:
        return doc.network.layer(index)
    except KeyError as exc:
        _usage_error(exc.args[0])


class _Parser(argparse.ArgumentParser):
    """argparse with one way out for each kind of text: help and version text
    go through `_write`, because argparse's own writer swallows an `OSError`,
    and a usage error goes through `_usage_error`."""

    def __init__(self, **kwargs: object) -> None:
        # No abbreviations and no `-h`: only the options declared here are accepted.
        super().__init__(add_help=False, allow_abbrev=False, **kwargs)
        self.add_argument("--help", action="help", help="Show this message and exit.")

    def parse_known_args(
        self, args: list[str] | None = None, namespace: argparse.Namespace | None = None
    ) -> tuple[argparse.Namespace, list[str]]:
        # An option that takes a value takes the next argument whatever it is,
        # and a short one the rest of its own argument, so `--fail -eth0` fails
        # the node "-eth0" and `-o=x` writes the file "=x". argparse alone
        # would read "-eth0" as an option and `-o=x` as the file "x".
        takes_value = {s for a in self._actions if a.nargs is None for s in a.option_strings}
        tokens = iter(sys.argv[1:] if args is None else args)
        joined = []
        for arg in tokens:
            if arg in takes_value:
                value = next(tokens, None)
                arg = arg if value is None else f"{arg}={value}"
            elif arg[:2] in takes_value:
                arg = f"{arg[:2]}={arg[2:]}"
            joined.append(arg)
            if arg == "--":
                joined += tokens
        return super().parse_known_args(joined, namespace)

    def _get_values(self, action: argparse.Action, arg_strings: list[str]) -> object:
        # Before Python 3.13 argparse drops an option's value that is just "--",
        # as in `--fail=--`, and hands the command an empty list.
        if action.option_strings and arg_strings == ["--"]:
            value = self._get_value(action, "--")
            self._check_value(action, value)
            return value
        return super()._get_values(action, arg_strings)

    def _print_message(self, message: str, file: TextIO | None = None) -> None:
        _write(message)

    def error(self, message: str) -> NoReturn:
        _usage_error(message)


def validate(args: argparse.Namespace) -> int:
    """Run the top-down consistency checks."""
    from . import consistency  # each command imports only what it runs
    doc = _load(args.model, args.mode)
    report = consistency.validate(doc.network, classify=args.format == "machine")
    _write(model_io.emit_report(report, args.format))
    return 0 if report.passed else 1


def decompose(args: argparse.Namespace) -> int:
    """List the protocol sub-layers of one layer."""
    from . import multiplex
    doc = _load(args.model, args.mode)
    layer = _layer(doc, args.layer)
    lines = []
    for sub in multiplex.decompose_layer(layer):
        links = ", ".join(f"({a}, {b})" for a, b in sub.links)
        lines.append(f"protocol {sub.protocol}: {links}\n")
    for p in multiplex.unused_protocols(layer):
        lines.append(f"unused protocol: {p}\n")
    uncovered = multiplex.check_cover(layer)
    for a, b in uncovered:
        lines.append(f"uncovered link: ({a}, {b})\n")
    _write("".join(lines))
    return 1 if uncovered and doc.network.mode is Mode.STRICT else 0


def metrics(args: argparse.Namespace) -> int:
    """Per-layer structural metrics."""
    from . import analysis
    doc = _load(args.model, args.mode)
    if args.layer is not None:
        layers = [_layer(doc, args.layer)]
    else:
        layers = list(doc.network.layers)
    bundle = {layer.index: analysis.layer_metrics(layer) for layer in layers}
    _write(model_io.emit_report(bundle, args.format))
    return 0


def _parse_node_spec(spec: str) -> ComponentId:
    """'layer/name' or bare name (assumed bottom layer)."""
    raw_layer, slash, name = spec.partition("/")
    if not slash:
        return ComponentId(1, spec)
    try:
        return ComponentId(int(raw_layer), name)
    except ValueError:
        _usage_error(f"bad node spec {spec!r}")


def simulate(args: argparse.Namespace) -> int:
    """Fault-injection cascade simulation."""
    from . import faults
    doc = _load(args.model, args.mode)
    if args.exhaustive:
        ranking = faults.exhaustive_single_faults(doc.network)
        _write(model_io.emit_report(ranking, args.format))
        return 0
    try:
        if args.scenario is not None:
            scenario = doc.scenario(args.scenario)
        else:
            specs = [s.strip() for s in args.fail.split(",")]
            nodes = [_parse_node_spec(s) for s in specs if s]
            if not nodes:
                _usage_error("--fail names no node")
            scenario = faults.FaultScenario.of(nodes, label=f"fail {args.fail}")
        result = faults.run_cascade(doc.network, scenario)
    except KeyError as exc:
        _usage_error(exc.args[0])
    _write(model_io.emit_report(result, args.format))
    return 0


def export(args: argparse.Namespace) -> int:
    """Export the network as Graphviz DOT."""
    doc = _load(args.model, args.mode)
    _write(model_io.export_dot(doc.network, args.view), args.output)
    return 0


# Built once: it takes about 1 ms, and an in-process caller may run `main` often.
@functools.cache
def _parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="netstrata", description=main.__doc__)
    parser.add_argument("--version", action="version", version=f"%(prog)s, version {__version__}")
    commands = parser.add_subparsers(title="commands", required=True)

    def command(run, formats: bool = True) -> argparse.ArgumentParser:
        sub = commands.add_parser(run.__name__, help=run.__doc__, description=run.__doc__)
        sub.set_defaults(run=run)
        sub.add_argument("model")
        sub.add_argument("--mode", choices=MODES,
                         help="Override the mode declared in the model file.")
        if formats:
            sub.add_argument("--format", choices=("human", "machine"), default="human")
        return sub

    command(validate)
    command(decompose, formats=False).add_argument("--layer", type=int, required=True)
    command(metrics).add_argument("--layer", type=int)
    chosen = command(simulate).add_mutually_exclusive_group(required=True)
    chosen.add_argument("--fail", help="Comma-separated nodes, e.g. h1 or 2/s1.")
    chosen.add_argument("--scenario", help="Named scenario from the model file.")
    chosen.add_argument("--exhaustive", action="store_true",
                        help="One cascade per bottom-layer node, ranked by impact.")
    sub = command(export, formats=False)
    sub.add_argument("--view", choices=("flatten", "layers", "sublayers"), default="flatten")
    sub.add_argument("-o", "--output", help="Output file (default stdout).")
    return parser


def main(argv: list[str] | None = None) -> NoReturn:
    """Model, validate, analyze, and fault-simulate hierarchical multilayer
    networks."""
    args = _parser().parse_args(argv)
    # --mode wins; an empty NETSTRATA_MODE counts as unset. argparse checks
    # `choices` on the command line only, so the variable's value is checked here.
    args.mode = args.mode or os.environ.get("NETSTRATA_MODE") or None
    if args.mode is not None and args.mode not in MODES:
        choices = ", ".join(map(repr, MODES))
        _usage_error(f"NETSTRATA_MODE: invalid choice: {args.mode!r} (choose from {choices})")
    sys.exit(args.run(args))


def run() -> NoReturn:
    """`main` with the cyclic GC off, as a command makes no cycles that grow,
    then `os._exit` with the status Python would give its `SystemExit`: the
    interpreter's teardown, `atexit` hooks included, is skipped. Any other
    exception, an interrupt too, takes the interpreter's usual way out."""
    gc.disable()
    try:
        main()
    except SystemExit as exc:
        status = exc.code
    if status is None:
        status = 0
    elif not isinstance(status, int):
        if sys.stderr is not None:  # closed: `print` would write to stdout instead
            print(status, file=sys.stderr)
        status = 1
    for stream in (sys.stdout, sys.stderr):
        if stream is not None:
            stream.flush()
    os._exit(status)


if __name__ == "__main__":
    run()
