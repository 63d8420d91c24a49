from __future__ import annotations

import io
import os
import re
from contextlib import nullcontext, redirect_stderr, redirect_stdout
from pathlib import Path
from typing import NamedTuple
from unittest import mock

import pytest

from netstrata.cli import main
from netstrata.model import (
    Component,
    ComponentKind,
    CrossLayer,
    Layer,
    LayerRole,
    Mode,
    SpecSet,
    build_network,
)

FIXTURES = Path(__file__).parent / "fixtures"


def comp(name, protocols=("p1",), kind=ComponentKind.HARDWARE, attributes=()):
    return Component(name, kind, SpecSet.of(protocols, attributes))


def layer(index, components, links=(), role=LayerRole.CUSTOM, protocols=None):
    return Layer.of(index, components, links, role, protocols)


def exactly(message):
    """An anchored `pytest.raises` pattern for the whole of `message`. Each
    stage raises one error type, so only the message and the path or position
    tell one rule from another."""
    return f"^{re.escape(message)}$"


class CliResult(NamedTuple):
    exit_code: int
    output: str
    stderr: str


def run_cli(args, env=None):
    """Run the CLI in this process, with `env` added to the environment, and
    return its exit code, stdout and stderr. The CLI writes stdout as UTF-8
    bytes, so `output` is those bytes decoded. Any exception other than the
    CLI's own `SystemExit` propagates, so a crash fails the calling test."""
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    # Restoring a patched environment rewrites all of it, so patch only for an `env`.
    environ = mock.patch.dict(os.environ, env) if env else nullcontext()
    with environ, redirect_stdout(stdout), redirect_stderr(stderr):
        with pytest.raises(SystemExit) as raised:
            main(args)
    return CliResult(raised.value.code, stdout.buffer.getvalue().decode("utf-8"), stderr.getvalue())


@pytest.fixture
def fixtures_dir():
    return FIXTURES


@pytest.fixture
def ap_layer():
    """Wireless access point bridging a wired switch and a wireless client."""
    return layer(
        1,
        [
            comp("ap", ["wired", "wireless"]),
            comp("sw", ["wired"]),
            comp("cl", ["wireless"]),
        ],
        [("ap", "sw"), ("ap", "cl")],
        role=LayerRole.PHYSICAL,
    )


@pytest.fixture
def two_layer_network():
    """Two hosts below, one service above, supported by h1."""
    return build_network(
        [
            layer(1, [comp("h1"), comp("h2")], [("h1", "h2")], LayerRole.PHYSICAL),
            layer(2, [comp("s1", kind=ComponentKind.SOFTWARE)], [], LayerRole.SERVICE),
        ],
        [CrossLayer.of(2, [("s1", "h1")])],
        Mode.RELAXED,
    )


def make_stack(roles, mode=Mode.STRICT):
    """Consistent stack with two linked components per layer, dual 1-to-1
    projections, suitable for conformance tests."""
    kind_for = {
        LayerRole.ENGINEERING_ENVIRONMENT: ComponentKind.ENGINEERING_SYSTEM,
        LayerRole.PHYSICAL: ComponentKind.HARDWARE,
        LayerRole.SOCIAL_ENVIRONMENT: ComponentKind.PERSON,
    }
    layers = []
    for i, role in enumerate(roles, start=1):
        kind = kind_for.get(role, ComponentKind.SOFTWARE)
        layers.append(
            layer(
                i,
                [comp(f"a{i}", kind=kind), comp(f"b{i}", kind=kind)],
                [(f"a{i}", f"b{i}")],
                role,
            )
        )
    crosses = [
        CrossLayer.of(i, [(f"a{i}", f"a{i - 1}"), (f"b{i}", f"b{i - 1}")])
        for i in range(2, len(roles) + 1)
    ]
    return build_network(layers, crosses, mode)


@pytest.fixture
def basic_stack_network():
    return make_stack(
        [LayerRole.PHYSICAL, LayerRole.LOGICAL, LayerRole.SERVICE, LayerRole.FUNCTIONAL]
    )


@pytest.fixture
def extended_stack_network():
    return make_stack(
        [
            LayerRole.ENGINEERING_ENVIRONMENT,
            LayerRole.PHYSICAL,
            LayerRole.LOGICAL,
            LayerRole.SERVICE,
            LayerRole.FUNCTIONAL,
            LayerRole.SOCIAL_ENVIRONMENT,
        ]
    )


@pytest.fixture
def dual_homed_network():
    """One service on two hosts; no single host failure can kill it."""
    return build_network(
        [
            layer(1, [comp("p1"), comp("p2")], [("p1", "p2")], LayerRole.PHYSICAL),
            layer(
                2,
                [comp("s", kind=ComponentKind.SOFTWARE)],
                [],
                LayerRole.FUNCTIONAL,
            ),
        ],
        [CrossLayer.of(2, [("s", "p1"), ("s", "p2")])],
        Mode.RELAXED,
    )
