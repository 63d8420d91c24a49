import gc
import json
import os
import random
import subprocess
import sys
from pathlib import Path

try:
    import resource
except ImportError:  # not on every platform
    resource = None

import pytest

import netstrata
from netstrata import consistency
from netstrata.cli import main
from netstrata.generators import desk_model
from netstrata.model_io import FORMAT_VERSION, REPORT_VERSION, ModelDocument, serialize_model

from .conftest import FIXTURES, run_cli
from .test_acceptance import ALL_FIXTURES, mutate


def fx(name):
    return str(FIXTURES / name)


def test_validate_consistent_fixture():
    result = run_cli(["validate", fx("basic_stack.mln.json")])
    assert result.exit_code == 0
    assert "PASSED" in result.output


def test_validate_inconsistent_fixture():
    result = run_cli(["validate", fx("inconsistent.mln.json")])
    assert result.exit_code == 1
    assert "unsupported-node" in result.output
    assert "uncovered-link" in result.output


def test_validate_malformed_file():
    result = run_cli(["validate", fx("malformed.mln.json")])
    assert result.exit_code == 2
    assert "line" in result.stderr


def test_validate_missing_file():
    result = run_cli(["validate", "/nonexistent.mln.json"])
    assert result.exit_code == 2


def test_validate_machine_format():
    result = run_cli(["validate", fx("basic_stack.mln.json"), "--format", "machine"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["report_version"] == REPORT_VERSION
    assert payload["passed"] is True


def test_mode_flag_overrides_file():
    # relaxed fixture forced strict: empty link set becomes a build error
    result = run_cli(["validate", fx("dual_homed.mln.json"), "--mode", "strict"])
    assert result.exit_code == 2
    assert result.stderr == "error: $.layers[1].links: layer 2 has no links (strict mode)\n"


def test_mode_env_var():
    result = run_cli(
        ["validate", fx("dual_homed.mln.json")],
        env={"NETSTRATA_MODE": "strict"},
    )
    assert result.exit_code == 2
    assert result.stderr == "error: $.layers[1].links: layer 2 has no links (strict mode)\n"


def test_mode_env_var_must_name_a_mode_unless_the_flag_wins():
    args = ["validate", fx("dual_homed.mln.json")]
    result = run_cli(args, env={"NETSTRATA_MODE": "bogus"})
    assert result.exit_code == 2
    assert result.stderr == (
        "error: NETSTRATA_MODE: invalid choice: 'bogus' (choose from 'strict', 'relaxed')\n"
    )
    for env in ("bogus", "strict"):
        result = run_cli([*args, "--mode", "relaxed"], env={"NETSTRATA_MODE": env})
        assert result.exit_code == 0, result.stderr
        assert "PASSED (relaxed mode)" in result.output


def test_decompose_ap():
    result = run_cli(["decompose", fx("ap.mln.json"), "--layer", "1"])
    assert result.exit_code == 0
    assert "protocol wired: (ap, sw)" in result.output
    assert "protocol wireless: (ap, cl)" in result.output


def test_decompose_bad_layer():
    result = run_cli(["decompose", fx("ap.mln.json"), "--layer", "7"])
    assert result.exit_code == 2


def test_decompose_uncovered_strict_exits_1():
    result = run_cli(["decompose", fx("inconsistent.mln.json"), "--layer", "1"])
    assert result.exit_code == 1
    assert "uncovered link: (h1, h2)" in result.output


def test_metrics_all_layers():
    result = run_cli(["metrics", fx("basic_stack.mln.json")])
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 4


def test_metrics_single_layer_machine():
    result = run_cli(["metrics", fx("basic_stack.mln.json"), "--layer", "1", "--format", "machine"])
    payload = json.loads(result.output)
    assert list(payload["layers"]) == ["1"]
    assert payload["layers"]["1"]["node_count"] == 2


def test_metrics_bad_layer():
    result = run_cli(["metrics", fx("basic_stack.mln.json"), "--layer", "9"])
    assert result.exit_code == 2
    assert result.stderr == "error: no layer with index 9\n"


def test_simulate_fail_single():
    result = run_cli(["simulate", fx("dual_homed.mln.json"), "--fail", "p1"])
    assert result.exit_code == 0
    assert "functional layer alive" in result.output


def test_simulate_fail_both():
    result = run_cli(
        ["simulate", fx("dual_homed.mln.json"), "--fail", "p1,p2", "--format", "machine"],
    )
    payload = json.loads(result.output)
    assert payload["functional_alive"] is False
    assert payload["per_layer_survival"]["2"] == 0.0


def test_simulate_fail_accepts_spaces_after_commas():
    def run(spec):
        args = ["simulate", fx("dual_homed.mln.json"), "--fail", spec, "--format", "machine"]
        result = run_cli(args)
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload.pop("scenario") == f"fail {spec}"
        return payload

    spaced = run(" p1, p2 ")
    assert spaced == run("p1,p2")
    assert spaced["final_failed_nodes"] == ["1/p1", "1/p2", "2/s"]


def test_simulate_named_scenario():
    result = run_cli(
        ["simulate", fx("dual_homed.mln.json"), "--scenario", "one-host", "--format", "machine"],
    )
    payload = json.loads(result.output)
    assert payload["functional_alive"] is True


def test_simulate_unknown_node():
    result = run_cli(["simulate", fx("dual_homed.mln.json"), "--fail", "ghost"])
    assert result.exit_code == 2


def test_simulate_layer_qualified_node():
    result = run_cli(["simulate", fx("dual_homed.mln.json"), "--fail", "2/s"])
    assert result.exit_code == 0
    assert "1 nodes failed in 0 rounds, functional layer DOWN" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["--fail", "x/p1"], "bad node spec 'x/p1'"),
        (["--fail", "9/p1"], "no layer 9 for node 9/p1"),
        (["--fail", ","], "--fail names no node"),
        (["--scenario", "nope"], "no scenario named 'nope'"),
        # An option's value is the next argument, even one that starts with a dash.
        (["--fail", "-eth0"], "unknown component 1/-eth0"),
        (["--fail", "--mode"], "unknown component 1/--mode"),
        (["--fail", "--"], "unknown component 1/--"),
        (["--fail=--"], "unknown component 1/--"),
        (["--scenario", "-x"], "no scenario named '-x'"),
    ],
    ids=[
        "malformed-spec", "bad-layer", "no-node", "unknown-scenario",
        "dash-node", "option-named-node", "double-dash-node", "attached-double-dash",
        "dash-scenario",
    ],
)
def test_simulate_bad_scenario_exits_2_with_one_line(args, message):
    result = run_cli(["simulate", fx("dual_homed.mln.json"), *args])
    assert result.exit_code == 2
    assert result.stderr == f"error: {message}\n"


def test_simulate_failed_links_scenario(tmp_path):
    doc = json.loads((FIXTURES / "dual_homed.mln.json").read_text())
    doc["scenarios"] = [{"label": "cut", "failed_links": [{"layer": 1, "link": ["p2", "p1"]}]}]
    path = tmp_path / "cut.mln.json"
    path.write_text(json.dumps(doc))
    result = run_cli(["simulate", str(path), "--scenario", "cut", "--format", "machine"])
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["final_inactive_links"] == [[1, ["p1", "p2"]]]
    assert payload["per_layer_largest_component_fraction"]["1"] == 0.5


def test_simulate_exhaustive():
    result = run_cli(["simulate", fx("dedicated_chain.mln.json"), "--exhaustive"])
    assert result.exit_code == 0
    assert "1/host: 3 failed in 2 rounds, functional DOWN" in result.output


def test_simulate_exhaustive_machine_ranks_bottom_nodes_with_their_rounds():
    args = ["simulate", fx("extended_stack.mln.json"), "--exhaustive", "--format", "machine"]
    result = run_cli(args)
    assert result.exit_code == 0
    assert json.loads(result.output)["entries"] == [
        {"node": "1/power", "functional_alive": False, "failed_count": 11, "round_count": 5},
        {"node": "1/climate", "functional_alive": True, "failed_count": 1, "round_count": 1},
    ]


def test_simulate_exhaustive_rejects_a_malformed_document_with_one_error_line():
    result = run_cli(["simulate", fx("malformed.mln.json"), "--exhaustive"])
    assert result.exit_code == 2
    assert result.output == ""
    assert result.stderr == "error: line 4, column 1: Expecting value\n"


def test_simulate_exhaustive_reports_an_unreadable_path(tmp_path):
    result = run_cli(["simulate", str(tmp_path / "missing.mln.json"), "--exhaustive"])
    assert result.exit_code == 2
    assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1


def test_simulate_requires_one_mode():
    result = run_cli(["simulate", fx("dual_homed.mln.json")])
    assert result.exit_code == 2
    result = run_cli(["simulate", fx("dual_homed.mln.json"), "--fail", "p1", "--exhaustive"])
    assert result.exit_code == 2


def test_export_to_stdout():
    result = run_cli(["export", fx("basic_stack.mln.json")])
    assert result.exit_code == 0
    assert result.output.startswith("graph")


def test_export_to_file(tmp_path):
    out = tmp_path / "net.dot"
    result = run_cli(["export", fx("ap.mln.json"), "--view", "sublayers", "-o", str(out)])
    assert result.exit_code == 0
    assert out.read_text().startswith("graph")


@pytest.mark.parametrize(
    "args, written",
    [
        (["-o", "-net.dot"], "-net.dot"),
        (["-o", "--"], "--"),
        (["--output", "-o"], "-o"),
        (["-onet.dot"], "net.dot"),
        (["-o=net.dot"], "=net.dot"),
    ],
    ids=["dash-file", "double-dash-file", "option-named-file", "attached", "attached-equals"],
)
def test_export_output_is_the_next_argument_whatever_it_is(tmp_path, monkeypatch, args, written):
    monkeypatch.chdir(tmp_path)
    result = run_cli(["export", fx("ap.mln.json"), *args])
    assert result.exit_code == 0
    assert [path.name for path in tmp_path.iterdir()] == [written]


def test_export_to_missing_directory_exits_2(tmp_path):
    out = tmp_path / "missing" / "net.dot"
    result = run_cli(["export", fx("ap.mln.json"), "-o", str(out)])
    assert result.exit_code == 2
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_fuzzed_documents_keep_the_exit_code_contract(tmp_path):
    rng = random.Random(11)
    seeds = [(FIXTURES / name).read_text() for name in ALL_FIXTURES]
    commands = [
        ["validate"],
        ["metrics"],
        ["simulate", "--exhaustive"],
        ["export", "--view", "sublayers"],
        ["decompose", "--layer", "2"],
    ]
    # The machine format on every other document keeps the test's time down.
    machine = [[*command, "--format", "machine"] for command in commands[:3]]
    doc = tmp_path / "fuzz.mln.json"
    exits = set()
    for i in range(500):
        doc.write_text(mutate(rng, rng.choice(seeds)), encoding="utf-8")
        for command in commands + machine * (i % 2):
            result = run_cli([command[0], str(doc), *command[1:]])
            assert result.exit_code in (0, 1, 2), (command, doc.read_text())
            exits.add(result.exit_code)
    assert exits == {0, 1, 2}


def _run_cli_into(args, stdout, stderr=subprocess.PIPE, env=None):
    """Run the CLI in a child process that writes its stdout to `stdout`, with
    stdout block-buffered as in a shell (PYTHONUNBUFFERED would hide bytes
    left in the buffer after a failed write), and with `env` added to the
    environment."""
    src = str(Path(netstrata.__file__).parents[1])
    inherited = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    return subprocess.run(
        [sys.executable, "-m", "netstrata.cli", *args],
        stdout=stdout,
        stderr=stderr,
        env={**inherited, "PYTHONPATH": src, **(env or {})},
        text=True,
    )


def _assert_one_error_line(out):
    """Exit 2 and one `error:` line: no traceback, no `Exception ignored`."""
    assert out.returncode == 2, out.stderr
    lines = out.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: "), out.stderr


@pytest.mark.parametrize(
    "args",
    [
        ["validate", fx("dual_homed.mln.json"), "--format", "machine"],
        ["export", fx("dual_homed.mln.json")],
        # Help and version text go through the same writer as a report.
        ["--help"],
        ["validate", "--help"],
        ["--version"],
    ],
)
def test_closed_stdout_pipe_exits_2(args):
    read, write = os.pipe()
    os.close(read)  # nobody reads: the child's first write to stdout fails
    try:
        out = _run_cli_into(args, write)
    finally:
        os.close(write)
    _assert_one_error_line(out)


def test_closed_stdout_and_stderr_pipes_exit_2():
    read, write = os.pipe()
    os.close(read)  # nobody reads either stream: the `error:` line is lost too
    try:
        out = _run_cli_into(["validate", fx("dual_homed.mln.json")], write, write)
    finally:
        os.close(write)
    assert out.returncode == 2


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this host")
def test_full_device_on_stdout_exits_2():
    with open("/dev/full", "w") as full:
        out = _run_cli_into(["metrics", fx("dual_homed.mln.json")], full)
    _assert_one_error_line(out)


def _run_with_closed(argv, fd=1):
    """Run `python ARGV` in a child process whose file descriptor `fd` is
    closed, as a shell's `>&-` leaves it; Python then sets that stream to None."""
    src = str(Path(netstrata.__file__).parents[1])
    return subprocess.run(
        ["/bin/sh", "-c", f'exec "$@" {fd}>&-', "sh", sys.executable, *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
        text=True,
    )


def test_run_drops_a_text_exit_status_when_stderr_is_closed():
    # `run` prints a status that is not an int to stderr, as Python's own exit
    # does; with stderr closed the line is dropped, not sent to stdout.
    code = "\n".join([
        "import sys",
        "from netstrata import cli",
        "cli.main = lambda: sys.exit('no model')",
        "cli.run()",
    ])
    out = _run_with_closed(["-c", code], 2)
    assert (out.returncode, out.stdout) == (1, "")
    out = _run_with_closed(["-c", code], 0)  # stdin closed, stderr open: the line is written
    assert (out.returncode, out.stdout, out.stderr) == (1, "", "no model\n")


# Every command on a passing, a failing and a malformed document, plus help and
# version: the runs that each stream state below is tried on.
_STREAM_CASES = [
    pytest.param([command[0], fx(f"{name}.mln.json"), *command[1:]], id=f"{command[0]}-{name}")
    for name in ("basic_stack", "inconsistent", "malformed")
    for command in (
        ["validate"],
        ["decompose", "--layer", "1"],
        ["metrics"],
        ["simulate", "--exhaustive"],
        ["export"],
    )
] + [pytest.param(["--help"], id="help"), pytest.param(["--version"], id="version")]


@pytest.mark.parametrize(
    "argv",
    [pytest.param(["-m", "netstrata.cli", *case.values[0]], id=case.id) for case in _STREAM_CASES]
    + [
        pytest.param(
            [str(Path(__file__).parents[1] / "scripts" / "generate_model.py")], id="generate_model"
        ),
    ],
)
def test_closed_stdout_exits_2(argv):
    # Whatever the command would have found, its output cannot be written.
    _assert_one_error_line(_run_with_closed(argv))


@pytest.mark.parametrize(
    "state",
    [
        pytest.param("full", marks=pytest.mark.skipif(
            not os.path.exists("/dev/full"), reason="no /dev/full on this host")),
        "pipe",
        "stderr-closed",
        "stdin-closed",
    ],
)
@pytest.mark.parametrize("args", _STREAM_CASES)
def test_every_stream_state_keeps_the_exit_code_contract(args, state):
    expected = run_cli(args)
    if state == "full":
        with open("/dev/full", "w") as full:
            out = _run_cli_into(args, full)
    elif state == "pipe":
        read, write = os.pipe()
        os.close(read)  # nobody reads: the child's first write to stdout fails
        try:
            out = _run_cli_into(args, write)
        finally:
            os.close(write)
    else:
        out = _run_with_closed(["-m", "netstrata.cli", *args], 2 if state == "stderr-closed" else 0)
    if state in ("full", "pipe"):
        # Each run writes something, so it cannot be written: exit 2.
        assert expected.output or expected.exit_code == 2
        _assert_one_error_line(out)
    elif state == "stderr-closed":
        # The exit code stands, and no diagnostic moves to stdout.
        assert (out.returncode, out.stdout) == expected[:2]
    else:
        assert (out.returncode, out.stdout, out.stderr) == tuple(expected)


def test_export_to_a_file_with_stdout_closed_exits_0(tmp_path):
    args, dot = ["export", fx("basic_stack.mln.json")], tmp_path / "out.dot"
    out = _run_with_closed(["-m", "netstrata.cli", *args, "-o", str(dot)])
    assert out.returncode == 0, out.stderr
    assert out.stderr == ""
    assert dot.read_text(encoding="utf-8") == run_cli(args).output


def test_scenario_errors_do_not_depend_on_the_hash_seed():
    # Both nodes are unknown; the first in sorted order is the one reported.
    args = ["simulate", fx("ap.mln.json"), "--fail", "p1,2/s"]
    for seed in ("1", "3"):
        out = _run_cli_into(args, subprocess.PIPE, env={"PYTHONHASHSEED": seed})
        assert out.returncode == 2
        assert out.stderr == "error: unknown component 1/p1\n", seed


def test_version_from_a_source_checkout():
    # The child imports netstrata from the source tree, so the version cannot
    # come from package metadata, which exists only once netstrata is installed.
    out = _run_cli_into(["--version"], subprocess.PIPE)
    assert out.returncode == 0, out.stderr
    assert out.stdout.rstrip("\n").endswith(f"version {netstrata.__version__}")


@pytest.mark.parametrize(
    "args, usage",
    [(["--help"], "usage: netstrata [--help]"), (["validate", "--help"], "usage: netstrata validate ")],
)
def test_help_goes_to_stdout(args, usage):
    out = _run_cli_into(args, subprocess.PIPE)
    assert out.returncode == 0, out.stderr
    assert out.stdout.startswith(usage)
    assert out.stderr == ""


def test_interrupt_propagates_out_of_main(monkeypatch):
    # Not caught, so the process ends with SIGINT's status, not exit 1.
    def interrupted(network, classify=True):
        raise KeyboardInterrupt

    monkeypatch.setattr(consistency, "validate", interrupted)
    with pytest.raises(KeyboardInterrupt):
        main(["validate", fx("basic_stack.mln.json")])


@pytest.mark.parametrize(
    "env",
    [
        {"PYTHONIOENCODING": "latin-1"},
        {"PYTHONIOENCODING": "ascii"},
        {"PYTHONUTF8": "0", "PYTHONCOERCECLOCALE": "0", "LC_ALL": "C"},
    ],
    ids=["latin-1", "ascii", "c-locale"],
)
def test_output_is_utf8_whatever_the_locale(tmp_path, env):
    # The `ap` fixture with its client renamed to a name outside Latin-1.
    doc = tmp_path / "unicode.mln.json"
    doc.write_bytes((FIXTURES / "ap.mln.json").read_bytes().replace(b'"cl"', '"名"'.encode()))
    expected = run_cli(["export", str(doc)]).output.encode("utf-8")
    assert "名".encode() in expected
    stdout, dot = tmp_path / "stdout.dot", tmp_path / "file.dot"
    with open(stdout, "wb") as stream:
        out = _run_cli_into(["export", str(doc)], stream, env=env)
    assert out.returncode == 0, out.stderr
    out = _run_cli_into(["export", str(doc), "-o", str(dot)], subprocess.PIPE, env=env)
    assert out.returncode == 0, out.stderr
    assert stdout.read_bytes() == dot.read_bytes() == expected


def test_export_keeps_control_characters_in_names(tmp_path):
    # The bytes written do not depend on whether stdout is a terminal.
    doc = tmp_path / "esc.mln.json"
    doc.write_text((FIXTURES / "ap.mln.json").read_text().replace('"cl"', '"c\\u001b[31ml"'))
    result = run_cli(["export", str(doc)])
    assert result.exit_code == 0
    assert "c\x1b[31ml" in result.output


def test_commands_are_deterministic():
    a = run_cli(["validate", fx("basic_stack.mln.json"), "--format", "machine"])
    b = run_cli(["validate", fx("basic_stack.mln.json"), "--format", "machine"])
    assert a.output == b.output


@pytest.mark.parametrize(
    "content",
    [
        b'{"format_version": "1", "layers": ["\xff\xfe"]}',
        b"[" * 100_000 + b"]" * 100_000,
        b"[" + b"1" * 5000 + b"]",
        # Well-formed but for the name "c\ud800", which cannot be printed as UTF-8.
        (FIXTURES / "ap.mln.json").read_bytes().replace(b'"cl"', b'"c\\ud800"'),
    ],
    ids=["non-utf8", "deep-nesting", "long-integer", "lone-surrogate"],
)
def test_unreadable_document_exits_2(tmp_path, content):
    doc = tmp_path / "bad.mln.json"
    doc.write_bytes(content)
    for command in (
        ["validate"],
        ["metrics"],
        ["simulate", "--exhaustive"],
        ["export"],
        ["decompose", "--layer", "1"],
    ):
        result = run_cli([command[0], str(doc), *command[1:]])
        assert result.exit_code == 2, command
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), command


def test_cli_import_leaves_out_numeric_packages():
    # Nor `dataclasses`, which costs several milliseconds with the `inspect`
    # it imports; the CLI's records are named tuples.
    code = (
        "import sys, netstrata.cli; "
        "print(sorted({'networkx', 'scipy', 'numpy', 'dataclasses', 'inspect'} & set(sys.modules)))"
    )
    src = str(Path(netstrata.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "[]"


# Imports the CLI, runs `main` on the arguments, if any, with its output
# dropped, and prints the `netstrata` modules loaded after each step, with
# `dataclasses` and `inspect` if either got loaded (no command loads them).
_MODULES_CHILD = """
import contextlib, io, json, sys

def loaded():
    return sorted(
        m for m in sys.modules
        if m.partition(".")[0] == "netstrata" or m in ("dataclasses", "inspect")
    )

import netstrata.cli
imported = loaded()
if sys.argv[1:]:
    with contextlib.redirect_stdout(io.TextIOWrapper(io.BytesIO())):
        try:
            netstrata.cli.main(sys.argv[1:])
        except SystemExit:
            pass
print(json.dumps([imported, loaded()]))
"""
_CLI_MODULES = ["netstrata", "netstrata.cli", "netstrata.graphutil", "netstrata.model",
                "netstrata.model_io"]


@pytest.mark.parametrize(
    "args, added",
    [
        ([], []),
        (["validate", fx("basic_stack.mln.json")], ["consistency", "multiplex"]),
        (["metrics", fx("basic_stack.mln.json")], ["analysis"]),
        (["simulate", fx("basic_stack.mln.json"), "--exhaustive"], ["faults"]),
        (["decompose", fx("basic_stack.mln.json"), "--layer", "1"], ["multiplex"]),
        (["export", fx("basic_stack.mln.json")], ["multiplex"]),
        # A document with scenarios builds them with `faults`.
        (["metrics", fx("dual_homed.mln.json")], ["analysis", "faults"]),
    ],
    ids=["import", "validate", "metrics", "simulate", "decompose", "export", "scenarios"],
)
def test_each_command_imports_only_what_it_runs(args, added):
    src = str(Path(netstrata.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", _MODULES_CHILD, *args],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    imported, after = json.loads(out.stdout)
    assert imported == _CLI_MODULES
    assert after == sorted(_CLI_MODULES + [f"netstrata.{m}" for m in added])


@pytest.mark.parametrize("name", sorted(path.name for path in FIXTURES.glob("*.mln.json")))
def test_process_entry_matches_main_in_process(name):
    # `python -m netstrata.cli` runs `run`: GC off and an exit that skips the
    # interpreter's teardown. Output and exit code are still `main`'s.
    commands = [["decompose", "--layer", "1"], ["export"]] + [
        [*command, "--format", fmt]
        for command in (["validate"], ["metrics"], ["simulate", "--exhaustive"])
        for fmt in ("human", "machine")
    ]
    for command in commands:
        args = [command[0], fx(name), *command[1:]]
        expected = run_cli(args)
        out = _run_cli_into(args, subprocess.PIPE)
        assert (out.returncode, out.stdout, out.stderr) == tuple(expected), args


@pytest.mark.parametrize("code", ["None", "0", "1", "2", "'no model'", "['a', 1]"])
def test_process_entry_exits_as_python_would(code):
    # `run` maps `main`'s `SystemExit` to the status and stderr text that
    # Python's own exit gives the same code, after flushing what was written
    # (block-buffered, as in `_run_cli_into`).
    src = str(Path(netstrata.__file__).parents[1])
    inherited = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    child = (
        "import sys\n"
        "from netstrata import cli\n"
        "def main():\n"
        "    print('written', end='')\n"
        f"    sys.exit({code})\n"
    )
    runs = [
        subprocess.run(
            [sys.executable, "-c", child + tail],
            env={**inherited, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        for tail in ("cli.main = main\ncli.run()\n", "main()\n")
    ]
    assert [(r.returncode, r.stdout, r.stderr) for r in runs] == [
        (runs[1].returncode, "written", runs[1].stderr)
    ] * 2


def test_module_entry_exits_without_teardown():
    # `python -m netstrata.cli` runs `run`, so the atexit hooks that the
    # interpreter's teardown would run do not.
    args = ["validate", fx("basic_stack.mln.json")]
    child = (
        "import atexit, runpy, sys\n"
        "atexit.register(print, 'teardown')\n"
        f"sys.argv = ['netstrata', *{args!r}]\n"
        "runpy.run_module('netstrata.cli', run_name='__main__', alter_sys=True)\n"
    )
    src = str(Path(netstrata.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", child],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
    )
    assert (out.returncode, out.stdout, out.stderr) == tuple(run_cli(args))


@pytest.mark.parametrize("enabled", [True, False])
def test_main_leaves_the_gc_switch_as_it_found_it(enabled):
    was = gc.isenabled()
    (gc.enable if enabled else gc.disable)()
    try:
        for args in (["validate", fx("dual_homed.mln.json")], ["validate", fx("malformed.mln.json")]):
            run_cli(args)
            assert gc.isenabled() is enabled
    finally:
        (gc.enable if was else gc.disable)()


# Runs `metrics` in both formats on every document named after the first
# argument, all in one process, then prints each run, which of numpy and scipy
# got loaded, and which packages outside the standard library and netstrata
# importing the CLI and running it loaded. With "blocked" as the first
# argument, importing numpy or scipy fails. The child captures each run's
# output itself: the tests' `run_cli` would bring pytest into the modules.
_METRICS_CHILD = """
import contextlib, io, json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = sys.modules["scipy"] = None
baseline = set(sys.modules)
from netstrata.cli import main

def run(args):
    stdout, stderr = io.TextIOWrapper(io.BytesIO(), encoding="utf-8"), io.StringIO()
    with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
        try:
            main(args)
        except SystemExit as exc:
            return [exc.code, stdout.buffer.getvalue().decode("utf-8"), stderr.getvalue()]

runs = [run(["metrics", doc, "--format", fmt]) for doc in sys.argv[2:] for fmt in ("human", "machine")]
loaded = {m.partition(".")[0] for m in set(sys.modules) - baseline}
print(json.dumps({
    "runs": runs,
    "loaded": sorted(m for m in ("numpy", "scipy") if sys.modules.get(m)),
    "foreign": sorted(loaded - {*sys.stdlib_module_names, "netstrata"}),
}))
"""


def _metrics_without_numeric_packages(docs):
    """`_METRICS_CHILD`'s runs on `docs`, after checking that they load neither
    numpy nor scipy, nor any other package, and come out the same when both are
    blocked."""
    src = str(Path(netstrata.__file__).parents[1])

    def child(numeric):
        out = subprocess.run(
            [sys.executable, "-c", _METRICS_CHILD, numeric, *docs],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(out.stdout)

    free, blocked = child("free"), child("blocked")
    assert free["loaded"] == []
    assert free["foreign"] == blocked["foreign"] == []
    assert [code for code, _, _ in free["runs"]] == [0] * 2 * len(docs)
    assert blocked["runs"] == free["runs"]
    return free["runs"]


def test_metrics_on_small_models_leaves_out_numeric_packages(tmp_path):
    # Desk-shaped layers at the campaign's size (5 x 200 nodes): radius near
    # the diameter, so iFUB's fringe is about half of each layer.
    campaign = tmp_path / "campaign.mln.json"
    network = desk_model(num_layers=5, nodes_per_layer=200, chords_per_layer=80)
    campaign.write_text(serialize_model(ModelDocument(FORMAT_VERSION, network)))
    runs = _metrics_without_numeric_packages([fx(name) for name in ALL_FIXTURES] + [str(campaign)])
    assert "diameter 35" in runs[-2][1]


def test_metrics_on_the_desk_document_leaves_out_numeric_packages(tmp_path):
    # Each desk layer's fringe holds 997 nodes, and the nodes searched by the
    # sweeps and from `u` bound every one of them, so none needs scipy.
    desk = tmp_path / "desk.mln.json"
    desk.write_text(serialize_model(ModelDocument(FORMAT_VERSION, desk_model())))
    runs = _metrics_without_numeric_packages([str(desk)])
    assert runs[0][1].count("diameter 335") == 5


def test_metrics_without_the_diameter_fallback_exits_2_naming_the_package(tmp_path):
    # With no Python budget, the diameter of a desk-shaped layer goes to
    # scipy's compiled BFS. Where numpy or scipy cannot be imported, `metrics`
    # says which in one line, as for any input this machine cannot handle.
    doc = tmp_path / "small.mln.json"
    network = desk_model(num_layers=5, nodes_per_layer=200, chords_per_layer=80)
    doc.write_text(serialize_model(ModelDocument(FORMAT_VERSION, network)))
    child = (
        "import sys\n"
        "sys.modules[sys.argv[1]] = None\n"
        "from netstrata import analysis, cli\n"
        "analysis._PYTHON_BFS_VISITS = 0\n"
        "sys.argv = ['netstrata', 'metrics', sys.argv[2]]\n"
        "cli.run()\n"
    )
    src = str(Path(netstrata.__file__).parents[1])
    for package in ("numpy", "scipy"):
        out = subprocess.run(
            [sys.executable, "-c", child, package, str(doc)],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True,
            text=True,
        )
        assert (out.returncode, out.stdout) == (2, "")
        assert out.stderr == (
            f"error: cannot import {package}, which the diameter of a layer this large needs\n"
        )


def test_run_reports_running_out_of_memory_in_one_line_if_stderr_is_open():
    code = "\n".join([
        "from netstrata import cli",
        "def main():",
        "    raise MemoryError",
        "cli.main = main",
        "cli.run()",
    ])
    out = _run_with_closed(["-c", code], 0)
    assert (out.returncode, out.stdout, out.stderr) == (2, "", "error: out of memory\n")
    out = _run_with_closed(["-c", code], 2)
    assert (out.returncode, out.stdout) == (2, "")


def _address_space_needed_to_start():
    """The peak address space, in bytes, of a process that has imported the
    CLI and the modules of `validate`, `simulate` and `metrics`."""
    code = (
        "import netstrata.cli, netstrata.consistency, netstrata.faults, netstrata.analysis\n"
        "print(next(l.split()[1] for l in open('/proc/self/status') if l.startswith('VmPeak:')))\n"
    )
    src = str(Path(netstrata.__file__).parents[1])
    out = subprocess.run(
        [sys.executable, "-c", code],
        env={**os.environ, "PYTHONPATH": src},
        capture_output=True,
        text=True,
        check=True,
    )
    return int(out.stdout) << 10


@pytest.mark.skipif(
    resource is None or not hasattr(resource, "RLIMIT_AS")
    or not os.path.exists("/proc/self/status"),
    reason="no address-space limit or no /proc on this platform",
)
def test_running_out_of_memory_is_exit_2_with_one_line(tmp_path):
    # Each child caps its own address space, so nothing outside it changes.
    # The low cap is what a process needs to start and import the commands'
    # modules, plus 8 MB: enough to print the error line, too little to load
    # the 3.3 MB desk document. Without this change each of these commands
    # ended there in a `MemoryError` traceback and exit 1. A cap 300 MB higher
    # lets every command finish, with the output it gives uncapped.
    desk = tmp_path / "desk.mln.json"
    desk.write_text(serialize_model(ModelDocument(FORMAT_VERSION, desk_model())))
    start = _address_space_needed_to_start()
    src = str(Path(netstrata.__file__).parents[1])

    def capped(args, cap):
        def limit():
            resource.setrlimit(resource.RLIMIT_AS, (cap, cap))

        return subprocess.run(
            [sys.executable, "-m", "netstrata.cli", *args],
            env={**os.environ, "PYTHONPATH": src},
            preexec_fn=limit,
            capture_output=True,
            text=True,
        )

    for command in (["validate"], ["simulate", "--exhaustive"], ["metrics"]):
        args = [command[0], str(desk), *command[1:], "--format", "machine"]
        out = capped(args, start + (8 << 20))
        assert (out.returncode, out.stdout, out.stderr) == (2, "", "error: out of memory\n"), args
        out = capped(args, start + (300 << 20))
        assert (out.returncode, out.stdout, out.stderr) == tuple(run_cli(args)), args
