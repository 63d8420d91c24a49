"""In-process per-layer run: calls each netstrata module's public functions
on one model document, with a span around every call.

    PYTHONPATH=src python3 perfbench/traced.py DOC --fail NAME \
        --sample NAME,NAME,... --out SPANS.jsonl

Spans (name, layer, command, start, end, parent, run id) and counts are
kept in memory and written as JSON lines to `--out` when the run ends.
Without `--out` the same calls run with no span recorded, which gives the
untraced time the tracing overhead is measured against.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import time


class Tracer:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.records: list[dict] = []
        self._open: list[int] = []

    @contextlib.contextmanager
    def span(self, name: str, layer: int | None = None, command: str | None = None):
        record = {
            "run": self.run_id, "id": len(self.records), "name": name,
            "parent": self._open[-1] if self._open else None,
            "layer": layer, "command": command,
        }
        self.records.append(record)
        self._open.append(record["id"])
        record["start"] = time.perf_counter()
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            self._open.pop()

    def count(self, name: str, value: float) -> None:
        self.records.append({"run": self.run_id, "count": name, "value": value})


class Off:
    """Stands in for `Tracer` when tracing is off."""

    def span(self, *args, **kwargs):
        return contextlib.nullcontext()

    def count(self, name: str, value: float) -> None:
        pass


def maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run(tr, doc_path: str, fail: str, sample: list[str]) -> None:
    with tr.span("import"):
        import netstrata.cli  # noqa: F401  (the CLI's own import cost)
        from netstrata import analysis, consistency, faults, graphutil, model_io, multiplex
        from netstrata.model import ComponentId, build_network

    text = open(doc_path).read()
    tr.count("model_io.doc_bytes", len(text.encode()))
    with tr.span("model_io.parse_model"):
        doc = model_io.parse_model(text)
    net = doc.network
    with tr.span("model.build_network"):
        build_network(net.layers, net.cross_layers, net.mode)
    tr.count("model.components", sum(len(l.components) for l in net.layers))
    tr.count("model.links", sum(len(l.links) for l in net.layers))
    tr.count("model.projections", sum(len(c.projections) for c in net.cross_layers))

    # analysis comes first after set-up so the high-water mark it leaves is
    # its own, not that of the checks below.
    rss_setup = maxrss_mb()
    bundle = {}
    for layer in net.layers:
        with tr.span("analysis.layer_metrics", layer.index, "metrics"):
            bundle[layer.index] = analysis.layer_metrics(layer)
    tr.count("analysis.layer_metrics_rss_delta_mb", maxrss_mb() - rss_setup)
    with tr.span("model_io.emit_report", command="metrics"):
        model_io.emit_report(bundle, "machine")
    del bundle  # each CLI command holds only its own result

    with tr.span("consistency.check_node_support"):
        consistency.check_node_support(net)
    with tr.span("consistency.check_path_consistency"):
        consistency.check_path_consistency(net)
    for cross in net.cross_layers:
        with tr.span("consistency.classify_interlayer", cross.upper_index):
            consistency.classify_interlayer(net, cross.upper_index)
    for layer in net.layers:
        with tr.span("multiplex.check_cover", layer.index):
            multiplex.check_cover(layer)
        with tr.span("multiplex.unused_protocols", layer.index):
            multiplex.unused_protocols(layer)
    with tr.span("consistency.validate", command="validate"):
        report = consistency.validate(net)
    tr.count("consistency.violations", len(report.violations))
    with tr.span("model_io.emit_report", command="validate"):
        model_io.emit_report(report, "machine")
    del report

    for layer in net.layers:
        with tr.span("multiplex.decompose_layer", layer.index):
            multiplex.decompose_layer(layer)
        for _ in range(5):
            with tr.span("graphutil.component_labels", layer.index):
                graphutil.component_labels(layer.component_names, layer.links)

    with tr.span("faults.run_cascade", command="simulate"):
        result = faults.run_cascade(
            net, faults.FaultScenario.of([ComponentId(1, fail)], label=f"fail {fail}")
        )
    with tr.span("model_io.emit_report", command="simulate"):
        model_io.emit_report(result, "machine")
    del result

    rounds, failed, inactive = [], 0, 0
    for node in sample:
        scenario = faults.FaultScenario.of([ComponentId(1, node)], label=f"fail {node}")
        with tr.span("faults.sample_cascade"):
            result = faults.run_cascade(net, scenario)
        rounds.append(len(result.rounds))
        failed += result.total_failed
        inactive += len(result.final_inactive_links)
    tr.count("faults.cascades", len(sample))
    tr.count("faults.rounds_mean", sum(rounds) / len(rounds))
    tr.count("faults.rounds_max", max(rounds))
    tr.count("faults.failed_nodes", failed)
    tr.count("faults.inactive_links", inactive)


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("doc")
    parser.add_argument("--fail", required=True, help="bottom node of the single cascade")
    parser.add_argument("--sample", required=True, help="bottom nodes of the timed cascades")
    parser.add_argument("--out", help="write spans here; omit to run untraced")
    args = parser.parse_args()
    tr = Tracer(f"{os.path.basename(args.doc)}-{os.getpid()}") if args.out else Off()
    with tr.span("traced_run"):
        run(tr, args.doc, args.fail, args.sample.split(","))
    if args.out:
        with open(args.out, "w") as out:
            for record in tr.records:
                out.write(json.dumps(record) + "\n")


if __name__ == "__main__":
    main()
