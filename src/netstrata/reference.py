"""Reference-stack conformance.

The basic stack is physical / logical / service / functional bottom-to-top;
the extended stack wraps it with an engineering-environment layer below and a
social-environment layer above. Roles also constrain which component kinds a
layer may contain.
"""

from __future__ import annotations

from typing import NamedTuple

from .consistency import Violation, ViolationKind
from .model import ComponentId, ComponentKind, LayerRole, Mode, MultilayerNetwork

BASIC_STACK: tuple[LayerRole, ...] = (
    LayerRole.PHYSICAL,
    LayerRole.LOGICAL,
    LayerRole.SERVICE,
    LayerRole.FUNCTIONAL,
)

EXTENDED_STACK: tuple[LayerRole, ...] = (
    (LayerRole.ENGINEERING_ENVIRONMENT,) + BASIC_STACK + (LayerRole.SOCIAL_ENVIRONMENT,)
)

ALLOWED_KINDS: dict[LayerRole, frozenset[ComponentKind]] = {
    LayerRole.ENGINEERING_ENVIRONMENT: frozenset(
        {ComponentKind.ENGINEERING_SYSTEM, ComponentKind.HARDWARE}
    ),
    LayerRole.PHYSICAL: frozenset({ComponentKind.HARDWARE}),
    LayerRole.LOGICAL: frozenset({ComponentKind.SOFTWARE}),
    LayerRole.SERVICE: frozenset({ComponentKind.SOFTWARE}),
    LayerRole.FUNCTIONAL: frozenset({ComponentKind.SOFTWARE}),
    LayerRole.SOCIAL_ENVIRONMENT: frozenset({ComponentKind.PERSON}),
    LayerRole.CUSTOM: frozenset(ComponentKind),
}


class ConformanceReport(NamedTuple):
    kind = "conformance"  # the kind `model_io.report_payload` gives it; not a field
    model_kind: str
    missing_roles: tuple[LayerRole, ...]
    order_violations: tuple[str, ...]
    extras: tuple[int, ...]  # layer indices with roles outside the stack

    @property
    def conforms(self) -> bool:
        return not self.missing_roles and not self.order_violations


def check_reference_conformance(
    network: MultilayerNetwork, model_kind: str
) -> ConformanceReport:
    """Check the layer-role sequence against the basic or extended stack.

    Strict mode demands the stack exactly; relaxed mode tolerates custom
    layers interleaved with the required roles, as long as the required roles
    still appear exactly once each and in order.
    """
    if model_kind not in ("basic", "extended"):
        raise ValueError(f"model_kind must be 'basic' or 'extended', got {model_kind!r}")
    required = BASIC_STACK if model_kind == "basic" else EXTENDED_STACK

    roles = [layer.role for layer in network.layers]
    missing = tuple(r for r in required if r not in roles)
    order_violations: list[str] = []
    extras: list[int] = []

    for role in required:
        n = roles.count(role)
        if n > 1:
            order_violations.append(f"role {role.value!r} appears {n} times")

    required_seq = [r for r in roles if r in required]
    expected_seq = [r for r in required if r in roles]
    if required_seq != expected_seq and not any(
        roles.count(r) > 1 for r in required
    ):
        order_violations.append(
            "required roles appear out of order: "
            + " -> ".join(r.value for r in required_seq)
        )

    for layer in network.layers:
        if layer.role in required:
            continue
        extras.append(layer.index)
        if layer.role is not LayerRole.CUSTOM or network.mode is Mode.STRICT:
            order_violations.append(
                f"unexpected role {layer.role.value!r} on layer {layer.index}"
            )

    return ConformanceReport(
        model_kind=model_kind,
        missing_roles=missing,
        order_violations=tuple(order_violations),
        extras=tuple(extras),
    )


def role_of_kind_constraints(network: MultilayerNetwork) -> list[Violation]:
    """Components whose kind is not admissible for their layer's role."""
    out: list[Violation] = []
    for layer in network.layers:
        allowed = ALLOWED_KINDS[layer.role]
        for comp in layer.components:
            if comp.kind not in allowed:
                out.append(
                    Violation(
                        ViolationKind.ROLE_KIND_MISMATCH,
                        layer.index,
                        ComponentId(layer.index, comp.name),
                        f"{comp.kind.value} component {comp.name!r} is not allowed "
                        f"on a {layer.role.value} layer",
                    )
                )
    return sorted(out, key=Violation.sort_key)
