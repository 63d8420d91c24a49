"""Modeling, validation, and analysis of hierarchical multilayer networks."""

from .model import (
    Component,
    ComponentId,
    ComponentKind,
    CrossLayer,
    FlatEdge,
    FlatGraph,
    Layer,
    LayerRole,
    Mode,
    ModelError,
    MultilayerNetwork,
    SpecSet,
    build_network,
    canonical_link,
)
from .multiplex import (
    ProtocolSubLayer,
    check_cover,
    decompose_layer,
    unused_protocols,
)
from .consistency import (
    InterlayerClass,
    NodeClass,
    ValidationReport,
    Violation,
    ViolationKind,
    check_node_support,
    check_path_consistency,
    classify_interlayer,
    validate,
)
from .reference import (
    BASIC_STACK,
    EXTENDED_STACK,
    ConformanceReport,
    check_reference_conformance,
    role_of_kind_constraints,
)
from .analysis import (
    LayerMetrics,
    layer_metrics,
)
from .faults import (
    CascadeResult,
    FaultScenario,
    ImpactEntry,
    exhaustive_single_faults,
    run_cascade,
)
from .model_io import (
    ModelDocument,
    ModelParseError,
    emit_report,
    export_dot,
    parse_model,
    serialize_model,
)

__version__ = "0.1.0"
