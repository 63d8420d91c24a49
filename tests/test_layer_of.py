"""`Layer.of` against `build_network`. One routine checks, canonicalizes and
maps names to node ids for every layer, so `Layer.of` makes of its
arguments the layer `build_network` makes of the same record in relaxed
mode, `id_links` included, and rejects what `build_network` rejects, with
the same message at the path of the argument."""

import json
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from netstrata import model_io
from netstrata.analysis import layer_metrics
from netstrata.generators import random_layer
from netstrata.model import Layer, Mode, ModelError, build_network
from netstrata.multiplex import decompose_layer

from .test_parse_outcomes import network_document
from .test_whole_array_checks import _FAULTS


@given(seed=st.integers(0, 10_000), ensure_cover=st.booleans(), declared=st.booleans())
@settings(max_examples=100, deadline=None)
def test_layer_of_is_the_layer_build_network_makes(seed, ensure_cover, declared):
    rng = random.Random(seed)
    drawn = random_layer(rng, n_min=1, n_max=12, ensure_cover=ensure_cover)
    components = list(drawn.components)
    rng.shuffle(components)
    links = list(drawn.links)
    links += rng.sample(links, rng.randint(0, len(links)))  # each one at most twice
    links = [link[::-1] if rng.random() < 0.5 else link for link in links]
    rng.shuffle(links)
    if declared:
        protocols = rng.sample(drawn.protocols, len(drawn.protocols))
    else:  # `Layer.of` declares what the components support
        protocols = sorted({p for c in components for p in c.protocols})
    raw = Layer(1, drawn.role, tuple(components), tuple(links), tuple(protocols))

    of = Layer.of(1, components, links, drawn.role, protocols if declared else None)
    built = build_network([raw], mode=Mode.RELAXED).layers[0]
    assert of == built
    assert of.id_links == built.id_links
    assert layer_metrics(of) == layer_metrics(built)
    assert decompose_layer(of) == decompose_layer(built)


# The hand faults of the whole-array tests that only `build_network`'s layer
# passes find; the others are faults of JSON shape or of projection ends.
LAYER_FAULTS = [
    "empty name", "slash in a name", "duplicate name", "no protocols", "undeclared protocol",
    "self-loop", "unknown link end",
]


@pytest.mark.parametrize("fault", LAYER_FAULTS)
def test_layer_of_rejects_a_hand_fault_as_build_network_does(fault):
    data = json.loads(network_document())
    _FAULTS[fault][0](data)
    raw = model_io._parse_layer(data["layers"][-1], 1, "$.layers[0]", {})
    with pytest.raises(ModelError) as built:
        build_network([raw], mode=Mode.RELAXED)
    with pytest.raises(ModelError) as of:
        Layer.of(1, raw.components, raw.links, raw.role, raw.protocols)
    assert str(of.value) == str(built.value)
    assert f"layers[0].{of.value.path}" == built.value.path
    assert _FAULTS[fault][1] in f".{of.value.path}"
