"""The scripts README documents, and the benchmark's traced run, run as a
user runs them: a child process with the source tree on PYTHONPATH."""

import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import netstrata
from netstrata.model_io import parse_model

ROOT = Path(__file__).parents[1]


def _run_script(path, *args, stdout=subprocess.PIPE):
    src = str(Path(netstrata.__file__).parents[1])
    return subprocess.run(
        [sys.executable, str(ROOT / path), *args],
        env={**os.environ, "PYTHONPATH": src},
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_generate_model_writes_a_document_parse_model_accepts():
    out = _run_script("scripts/generate_model.py", "--kind", "random", "--seed", "7")
    assert out.returncode == 0, out.stderr
    assert parse_model(out.stdout).network.depth >= 1


def test_generate_model_into_a_closed_pipe_exits_2_with_one_error_line():
    read, write = os.pipe()
    os.close(read)  # nobody reads: the script's write to stdout fails
    try:
        out = _run_script("scripts/generate_model.py", stdout=write)
    finally:
        os.close(write)
    assert out.returncode == 2
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr


@pytest.mark.parametrize("flag", ["--max-layers", "--max-nodes"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_generate_model_rejects_sizes_below_one_as_a_usage_error(flag, value):
    out = _run_script("scripts/generate_model.py", flag, value)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("usage: ")
    assert f"argument {flag}: must be at least 1, got {value}" in out.stderr


def test_benchmark_traced_run_exits_0_untraced(tmp_path):
    # The benchmark's smoke runs pass `--trace 0`, which never starts
    # traced.py, so only this run shows a library name it calls going away.
    gen = runpy.run_path(str(ROOT / "perfbench" / "gen.py"))
    doc = tmp_path / "campaign.mln.json"
    doc.write_text(gen["fragile"](23).document())
    out = _run_script(
        "perfbench/traced.py", str(doc), "--fail", "n00000", "--sample", "n00001,n00002,n00003"
    )
    assert out.returncode == 0, out.stderr
