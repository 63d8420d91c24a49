#!/usr/bin/env python3
"""Emit a model document: either a random network or the deterministic
desk-scale benchmark model."""

import argparse
import random

from netstrata.cli import _write
from netstrata.generators import desk_model, random_network
from netstrata.model_io import FORMAT_VERSION, ModelDocument, serialize_model


def positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--kind", choices=["random", "desk"], default="random")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--max-layers", type=positive, default=6)
    parser.add_argument("--max-nodes", type=positive, default=40)
    parser.add_argument(
        "--inconsistent",
        action="store_true",
        help="allow unsupported nodes and uncovered links",
    )
    args = parser.parse_args()

    if args.kind == "desk":
        network = desk_model()
    else:
        network = random_network(
            random.Random(args.seed),
            max_layers=args.max_layers,
            max_nodes=args.max_nodes,
            consistent=not args.inconsistent,
        )
    # The CLI's writer: a stdout that cannot be written is exit 2 and one `error:` line.
    _write(serialize_model(ModelDocument(FORMAT_VERSION, network)))


if __name__ == "__main__":
    main()
