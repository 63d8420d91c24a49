"""The scripts README documents, run as a user runs them: a child process
with the source tree on PYTHONPATH."""

import os
import subprocess
import sys
from pathlib import Path

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
