#!/usr/bin/env python3
"""Exhaustive single-fault campaign over a model file: one cascade per
bottom-layer node, printed as a ranked impact table."""

import argparse
import sys
from pathlib import Path

from netstrata.faults import exhaustive_single_faults
from netstrata.model_io import ModelParseError, parse_model


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("model", type=Path)
    parser.add_argument("--top", type=int, default=20)
    args = parser.parse_args()

    try:
        doc = parse_model(args.model.read_text(encoding="utf-8"))
    except (OSError, UnicodeDecodeError, ModelParseError) as exc:
        # One line and exit 2, as the CLI reports a document it cannot load.
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(2)
    ranking = exhaustive_single_faults(doc.network)
    print(f"{'node':<24} {'failed':>8} {'rounds':>8}  functional")
    for entry in ranking[: args.top]:
        r = entry.result
        print(
            f"{str(entry.node):<24} {r.total_failed:>8} {len(r.rounds):>8}  "
            f"{'alive' if r.functional_alive else 'DOWN'}"
        )


if __name__ == "__main__":
    main()
