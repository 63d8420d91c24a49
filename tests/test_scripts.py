"""The scripts README documents, run as a user runs them: a child process
with the source tree on PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import netstrata
from netstrata.model_io import parse_model

from .conftest import FIXTURES

SCRIPTS = Path(__file__).parents[1] / "scripts"


def _run_script(name, *args):
    src = str(Path(netstrata.__file__).parents[1])
    return subprocess.run(
        [sys.executable, str(SCRIPTS / name), *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )


def test_generate_model_writes_a_document_parse_model_accepts():
    out = _run_script("generate_model.py", "--kind", "random", "--seed", "7")
    assert out.returncode == 0, out.stderr
    assert parse_model(out.stdout).network.depth >= 1


def test_fault_campaign_prints_a_ranked_table():
    model = FIXTURES / "dual_homed.mln.json"
    out = _run_script("fault_campaign.py", str(model), "--top", "3")
    assert out.returncode == 0, out.stderr
    header, *rows = out.stdout.splitlines()
    assert header.split() == ["node", "failed", "rounds", "functional"]
    bottom = parse_model(model.read_text()).network.layer(1).components
    assert len(rows) == min(3, len(bottom))
    assert all(row.startswith("1/") for row in rows)


def test_fault_campaign_rejects_a_malformed_document_with_one_error_line():
    out = _run_script("fault_campaign.py", str(FIXTURES / "malformed.mln.json"))
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr == "error: line 4, column 1: Expecting value\n"


def test_fault_campaign_reports_an_unreadable_path(tmp_path):
    out = _run_script("fault_campaign.py", str(tmp_path / "missing.mln.json"))
    assert out.returncode == 2
    assert out.stderr.startswith("error: ") and out.stderr.count("\n") == 1


@pytest.mark.parametrize("flag", ["--max-layers", "--max-nodes"])
@pytest.mark.parametrize("value", ["0", "-2"])
def test_generate_model_rejects_sizes_below_one_as_a_usage_error(flag, value):
    out = _run_script("generate_model.py", flag, value)
    assert out.returncode == 2
    assert out.stdout == ""
    assert out.stderr.startswith("usage: ")
    assert f"argument {flag}: must be at least 1, got {value}" in out.stderr
