#!/usr/bin/env python3
"""netstrata benchmark: the CLI end to end, plus a traced per-module run.

    python3 perfbench/run.py --workload desk --seed 1 --seconds 36 --trace 0

Run it from the root of a source checkout; the package is read from `src/`
and never installed. The last line of stdout is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`. The full record of the
run, provenance included, goes to `perfbench/.cache/results/`.

With `--trace 0` the metrics are end to end: every CLI command runs as a
fresh child process, one at a time, in closed-loop sessions for `--seconds`
seconds. Each timing is the median wall time from spawn to exit, scaled by
the calibration child (`calib.py`) to a host on which it takes 1 s. Peak RSS
is the kernel's high-water mark (`ru_maxrss` from `os.wait4`) of each
child. With `--trace 1` the same sessions run, and then the per-layer
metrics come from `-X importtime` children and from `traced.py`, run once
with spans and once without. See perfbench/README.md for what each metric
is expected to move.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import resource
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from pathlib import Path

import check
import gen

SCHEMA_VERSION = 1
ROOT = Path(__file__).resolve().parent.parent
CACHE = ROOT / "perfbench" / ".cache"
COMMANDS = ("validate", "metrics", "simulate")
# One closed-loop session: the calibration child, set-up (import and parse
# only), then each command.
SESSION = ("calib", "setup") + COMMANDS
# Reported times are scaled to a host on which the calibration child takes
# this long, which cancels the host's speed drift between runs.
CALIB_S = 1.0
MIN_SAMPLES = 2
IMPORT_RUNS = 3
# Bottom nodes whose cascades traced.py times one by one on desk;
# on campaign it times every bottom node, which is the exhaustive campaign.
CASCADE_SAMPLE = 12
IMPORT_PACKAGES = ("scipy", "networkx", "numpy", "click")

WORKLOADS = {
    "desk": lambda seed: gen.desk(),
    "campaign": gen.fragile,
}


class Child:
    """One finished child process: exit code, output, wall time and peak RSS."""

    def __init__(self, argv: list[str], env: dict[str, str]):
        out_path, err_path = CACHE / "child.stdout", CACHE / "child.stderr"
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=out, stderr=err, env=env, cwd=ROOT)
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            except BaseException:  # interrupted: leave no child behind
                proc.kill()
                proc.wait()
                raise
            self.wall_s = time.perf_counter() - start
        proc.returncode = self.code = os.waitstatus_to_exitcode(status)
        self.maxrss_mb = usage.ru_maxrss / 1024
        self.stdout = out_path.read_text()
        self.stderr = err_path.read_text()


class Tally:
    """Operations attempted and failed; an operation fails on a non-zero
    exit, a traceback on stderr, or output the checker rejects."""

    def __init__(self):
        self.attempted = self.failed = 0
        self.errors: list[str] = []

    def record(self, label: str, child: Child, check_output=None) -> None:
        self.attempted += 1
        errors = []
        if child.code != 0:
            errors.append(f"exit code {child.code}")
        if "Traceback (most recent call last)" in child.stderr:
            errors.append("traceback on stderr")
        if not errors and check_output is not None:
            try:
                errors = check_output(child)
            except (ValueError, KeyError, TypeError, AttributeError) as exc:
                errors = [f"unreadable output: {exc!r}"]
        if errors:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{label}: {'; '.join(errors)}"[:500])


def git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=30
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() or "unknown"


def source_digest() -> str:
    """sha256 over the paths and contents of every file under src/, which
    identifies the code when the checkout is not a git repository."""
    h = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            h.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def import_breakdown(stderr: str) -> dict[str, float]:
    """Self times from `-X importtime`, summed per top-level package, for
    the modules imported after the marker line."""
    self_us: dict[str, int] = defaultdict(int)
    for line in stderr.split("IMPORTS\n", 1)[1].splitlines():
        fields = line.split("|")
        if not line.startswith("import time:") or len(fields) != 3 or "self" in fields[0]:
            continue
        us = int(fields[0].split(":")[1])
        self_us[fields[2].strip().split(".")[0]] += us
        self_us["total"] += us
    out = {f"import.{pkg}_s": self_us[pkg] / 1e6 for pkg in IMPORT_PACKAGES}
    out["import.total_s"] = self_us["total"] / 1e6
    out["import.netstrata_self_s"] = self_us["netstrata"] / 1e6
    return out


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def per_layer(
    records: list[dict], depth: int, workload: str
) -> tuple[dict[str, float], dict[str, float]]:
    """Per-layer metrics from the traced run's records, and the library time
    each CLI command spends, to subtract from its wall time."""
    spans = [r for r in records if "name" in r]
    counts = {r["count"]: r["value"] for r in records if "count" in r}

    def secs(name: str, **match) -> float:
        return sum(
            r["end"] - r["start"] for r in spans
            if r["name"] == name and all(r[k] == v for k, v in match.items())
        )

    m: dict[str, float] = {}
    m["model_io.parse_model_s"] = secs("model_io.parse_model")
    m["model_io.emit_report_s"] = secs("model_io.emit_report")
    m["model.build_network_s"] = secs("model.build_network")
    m["consistency.check_node_support_s"] = secs("consistency.check_node_support")
    m["consistency.check_path_consistency_s"] = secs("consistency.check_path_consistency")
    m["consistency.validate_s"] = secs("consistency.validate")
    m["multiplex.check_cover_s"] = secs("multiplex.check_cover")
    m["multiplex.unused_protocols_s"] = secs("multiplex.unused_protocols")
    for k in range(1, depth + 1):
        if k > 1:
            m[f"consistency.classify_interlayer_s.L{k}"] = secs("consistency.classify_interlayer", layer=k)
        m[f"multiplex.decompose_layer_s.L{k}"] = secs("multiplex.decompose_layer", layer=k)
        m[f"analysis.layer_metrics_s.L{k}"] = secs("analysis.layer_metrics", layer=k)
        m[f"graphutil.component_labels_ms.L{k}"] = 1000 * statistics.median(
            r["end"] - r["start"] for r in spans
            if r["name"] == "graphutil.component_labels" and r["layer"] == k
        )
    cascades = [r["end"] - r["start"] for r in spans if r["name"] == "faults.sample_cascade"]
    m["faults.run_cascade_s"] = secs("faults.run_cascade")
    m["faults.cascades_s"] = sum(cascades)
    m["faults.run_cascade_p50_ms"] = 1000 * statistics.median(cascades)
    m["faults.run_cascade_p95_ms"] = 1000 * quantile(cascades, 95)
    m.update(counts)

    # Library time inside each CLI command, as the CLI calls it.
    parse = m["model_io.parse_model_s"]
    library = {
        "validate": parse + secs("consistency.validate") + secs("model_io.emit_report", command="validate"),
        "metrics": parse + secs("analysis.layer_metrics") + secs("model_io.emit_report", command="metrics"),
        "simulate": parse + (
            m["faults.cascades_s"] if workload == "campaign"
            else m["faults.run_cascade_s"] + secs("model_io.emit_report", command="simulate")
        ),
    }
    return m, library


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    # Turn SIGTERM into SystemExit, so a running child is killed and reaped.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "netstrata" / "cli.py").is_file():
        print(f"error: no netstrata sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    (CACHE / "results").mkdir(parents=True, exist_ok=True)

    # Inputs, expectations and arguments, all outside the timed region.
    model = WORKLOADS[args.workload](args.seed)
    text = model.document().encode()
    digest = hashlib.sha256(text).hexdigest()
    doc = CACHE / f"{args.workload}-{digest[:16]}.mln.json"
    if not doc.exists():
        doc.write_bytes(text)
    documents = {doc.name: {"sha256": digest, "bytes": len(text)}}
    del text
    rng = random.Random(args.seed)
    bottom = model.size(1)
    fail = rng.randrange(bottom)
    sample = list(range(bottom)) if args.workload == "campaign" else rng.sample(range(bottom), CASCADE_SAMPLE)
    expected = check.Expected(model, args.seed)
    if args.workload == "campaign":
        want = expected.campaign()
        check_simulate = lambda c: expected.check_campaign(c.stdout, want)
    else:
        want = expected.cascade(fail)
        check_simulate = lambda c: expected.check_cascade(c.stdout, want)

    env = {k: v for k, v in os.environ.items() if not k.startswith("NETSTRATA_")}
    env.update(PYTHONPATH=str(ROOT / "src"), PYTHONHASHSEED="0")
    py = sys.executable
    cli = [py, "-m", "netstrata.cli"]
    simulate = ["--exhaustive"] if args.workload == "campaign" else ["--fail", gen.name(fail)]
    setup = [py, "-c", "import sys, netstrata.cli\nfrom netstrata import model_io\n"
             "model_io.parse_model(open(sys.argv[1]).read())", str(doc)]
    sessions = {
        "calib": ([py, str(ROOT / "perfbench" / "calib.py")], None),
        "setup": (setup, None),
        "validate": (cli + ["validate", "--format", "machine", str(doc)],
                     lambda c: expected.check_validate(c.stdout)),
        "metrics": (cli + ["metrics", "--format", "machine", str(doc)],
                    lambda c: expected.check_metrics(c.stdout)),
        "simulate": (cli + ["simulate", *simulate, "--format", "machine", str(doc)], check_simulate),
    }
    tally = Tally()

    # Warm-up: fills the bytecode and page caches, which users keep too.
    Child([py, "-c", "import netstrata.cli"], env)

    metrics: dict[str, float] = {}
    times: dict[str, list[float]] = {c: [] for c in SESSION}
    peak_mb, last_metrics = 0.0, None
    start = time.perf_counter()
    while True:
        # Every command twice, in session order; then the command with the
        # least total time so far, so short commands gather more samples.
        if min(map(len, times.values())) < MIN_SAMPLES:
            command = min(SESSION, key=lambda c: len(times[c]))
        else:
            command = min(SESSION, key=lambda c: sum(times[c]))
        argv, check_output = sessions[command]
        child = Child(argv, env)
        tally.record(command, child, check_output)
        times[command].append(child.wall_s)
        if command in COMMANDS:
            peak_mb = max(peak_mb, child.maxrss_mb)
        if command == "metrics":
            last_metrics = child
        if time.perf_counter() - start >= args.seconds and min(map(len, times.values())) >= MIN_SAMPLES:
            break

    # The checker must reject a wrong expectation: one corrupted value has
    # to count as one failed operation.
    probe = Tally()
    expected.layer_stats[0]["node_count"] += 1
    try:
        probe.record("self-test", last_metrics, sessions["metrics"][1])
    finally:
        expected.layer_stats[0]["node_count"] -= 1
    self_test_ok = probe.failed == 1

    medians = {c: statistics.median(times[c]) for c in SESSION}
    record: dict = {}
    if args.trace == 0:
        speed = CALIB_S / medians["calib"]
        metrics.update({f"{c}_s": medians[c] * speed for c in ("setup",) + COMMANDS})
        metrics["peak_rss_mb"] = peak_mb
    else:
        imports = []
        for _ in range(IMPORT_RUNS):
            child = Child([py, "-X", "importtime", "-c",
                           "import sys; sys.stderr.write('IMPORTS\\n'); import netstrata.cli"], env)
            tally.record("importtime", child)
            imports.append(import_breakdown(child.stderr))
        for key in imports[0]:
            metrics[key] = statistics.median(i[key] for i in imports)
        spans_path = CACHE / "results" / f"{args.workload}-seed{args.seed}.spans.jsonl"
        traced = [py, str(ROOT / "perfbench" / "traced.py"), str(doc), "--fail", gen.name(fail),
                  "--sample", ",".join(gen.name(v) for v in sample)]
        traced_run = Child(traced + ["--out", str(spans_path)], env)
        tally.record("traced.py", traced_run)
        untraced_run = Child(traced, env)
        tally.record("traced.py untraced", untraced_run)
        records = [json.loads(line) for line in spans_path.read_text().splitlines()]
        layer_metrics, library = per_layer(records, model.depth, args.workload)
        metrics.update(layer_metrics)
        for c in COMMANDS:
            metrics[f"cli.residual_s.{c}"] = medians[c] - metrics["import.total_s"] - library[c]
        metrics["trace.overhead_s"] = traced_run.wall_s - untraced_run.wall_s
        record["spans"] = spans_path.name
        record["traced_wall_s"] = {"traced": traced_run.wall_s, "untraced": untraced_run.wall_s}

    correct = tally.failed == 0 and self_test_ok
    runner_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    record.update({
        "schema_version": SCHEMA_VERSION,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "src_sha256": source_digest(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "packages": {p: importlib.metadata.version(p) for p in ("numpy", "scipy", "networkx", "click")},
        "documents": documents,
        "arguments": {"fail": gen.name(fail), "cascades_timed": len(sample)},
        # Children inherit this process's RSS high-water mark, so it must
        # stay below theirs for peak_rss_mb to be the children's own.
        "runner_maxrss_mb": runner_mb,
        "samples_s": times,
        "raw_median_s": medians,
        "correct": correct,
        "self_test_ok": self_test_ok,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "error_rate": tally.failed / tally.attempted,
        "errors": tally.errors,
        "metrics": metrics,
    })
    out = CACHE / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.write_text(json.dumps(record, indent=2) + "\n")

    units = json.loads((ROOT / "BENCHMARK.json").read_text())
    unit = {m["name"]: m["unit"] for m in units["end_to_end"] + units["per_layer"]}
    for key, value in metrics.items():
        print(f"{key:42} {value:14.6f} {unit[key]}")
    print(f"{'error_rate':42} {record['error_rate']:14.6f} ratio ({tally.failed}/{tally.attempted})")
    print(f"self-test {'ok' if self_test_ok else 'FAILED'}; record in {out.relative_to(ROOT)}")
    for error in tally.errors:
        print(f"error: {error}", file=sys.stderr)
    if runner_mb >= peak_mb:
        print(f"warning: runner RSS {runner_mb:.1f} MB masks the children's peak", file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": unit[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
