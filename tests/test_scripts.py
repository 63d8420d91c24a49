"""The scripts README documents, run as a user runs them: a child process
with the source tree on PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import netstrata
from netstrata.model_io import parse_model

SCRIPTS = Path(__file__).parents[1] / "scripts"


def _run_script(name, *args, stdout=subprocess.PIPE):
    src = str(Path(netstrata.__file__).parents[1])
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env={**os.environ, "PYTHONPATH": src},
        stdout=stdout,
        stderr=subprocess.PIPE,
        text=True,
    )


def test_generate_model_writes_a_document_parse_model_accepts():
    out = _run_script("generate_model.py", "--kind", "random", "--seed", "7")
    assert out.returncode == 0, out.stderr
    assert parse_model(out.stdout).network.depth >= 1


def test_generate_model_into_a_closed_pipe_exits_2_with_one_error_line():
    read, write = os.pipe()
    os.close(read)  # nobody reads: the script's write to stdout fails
    try:
        out = _run_script("generate_model.py", stdout=write)
    finally:
        os.close(write)
    assert out.returncode == 2
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr


@pytest.mark.parametrize("flag", ["--max-layers", "--max-nodes"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_generate_model_rejects_sizes_below_one_as_a_usage_error(flag, value):
    out = _run_script("generate_model.py", flag, value)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("usage: ")
    assert f"argument {flag}: must be at least 1, got {value}" in out.stderr
