"""The models the generators make, pinned by the sha256 of their canonical
documents: how a generator hands its layers to `build_network` (raw records,
each checked once there) must not change the model it makes."""

import hashlib
import random

import pytest

from netstrata.generators import desk_model, random_network
from netstrata.model_io import FORMAT_VERSION, ModelDocument, serialize_model


def digest(network):
    text = serialize_model(ModelDocument(FORMAT_VERSION, network))
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def test_desk_models_are_unchanged():
    assert digest(desk_model()) == "0171be2dbe41c7c2"
    assert digest(desk_model(3, 50, 7)) == "84f3443c5103f146"


@pytest.mark.parametrize(
    "consistent, digests",
    [
        (
            True,
            ["d8df02ba666c7fa9", "53cf727999c23959", "0d12617e414bb534", "091b9689e44c1f55",
             "e388f9aeee5a07e9", "0c53d5d630cda086", "449277234782febf", "964c5230340b6439"],
        ),
        (
            False,
            ["9213e7504e1820a6", "cada326144e8f823", "c5bdcee7dee29655", "56972e74977b4551",
             "30c43ee92b6d434f", "87e6d8e3b161eed9", "f51bcebf74b1c145", "f4d4a1bf7c9ddfac"],
        ),
    ],
)
def test_random_networks_are_unchanged(consistent, digests):
    assert [
        digest(random_network(random.Random(seed), consistent=consistent)) for seed in range(8)
    ] == digests

