import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest
from click.testing import CliRunner

import netstrata
from netstrata.cli import main
from netstrata.generators import desk_model
from netstrata.model_io import FORMAT_VERSION, ModelDocument, serialize_model

from .conftest import FIXTURES
from .test_acceptance import ALL_FIXTURES, mutate


@pytest.fixture
def runner():
    return CliRunner()


def fx(name):
    return str(FIXTURES / name)


def test_validate_consistent_fixture(runner):
    result = runner.invoke(main, ["validate", fx("basic_stack.mln.json")])
    assert result.exit_code == 0
    assert "PASSED" in result.output


def test_validate_inconsistent_fixture(runner):
    result = runner.invoke(main, ["validate", fx("inconsistent.mln.json")])
    assert result.exit_code == 1
    assert "unsupported-node" in result.output
    assert "uncovered-link" in result.output


def test_validate_malformed_file(runner):
    result = runner.invoke(main, ["validate", fx("malformed.mln.json")])
    assert result.exit_code == 2
    assert "line" in result.stderr


def test_validate_missing_file(runner):
    result = runner.invoke(main, ["validate", "/nonexistent.mln.json"])
    assert result.exit_code == 2


def test_validate_machine_format(runner):
    result = runner.invoke(
        main, ["validate", fx("basic_stack.mln.json"), "--format", "machine"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["report_version"] == "1"
    assert payload["passed"] is True


def test_mode_flag_overrides_file(runner):
    # relaxed fixture forced strict: empty link set becomes a build error
    result = runner.invoke(
        main, ["validate", fx("dual_homed.mln.json"), "--mode", "strict"]
    )
    assert result.exit_code == 2
    assert result.stderr == "error: $.layers[1].links: layer 2 has no links (strict mode)\n"


def test_mode_env_var(runner):
    result = runner.invoke(
        main,
        ["validate", fx("dual_homed.mln.json")],
        env={"NETSTRATA_MODE": "strict"},
    )
    assert result.exit_code == 2
    assert result.stderr == "error: $.layers[1].links: layer 2 has no links (strict mode)\n"


def test_decompose_ap(runner):
    result = runner.invoke(main, ["decompose", fx("ap.mln.json"), "--layer", "1"])
    assert result.exit_code == 0
    assert "protocol wired: (ap, sw)" in result.output
    assert "protocol wireless: (ap, cl)" in result.output


def test_decompose_bad_layer(runner):
    result = runner.invoke(main, ["decompose", fx("ap.mln.json"), "--layer", "7"])
    assert result.exit_code == 2


def test_decompose_uncovered_strict_exits_1(runner):
    result = runner.invoke(
        main, ["decompose", fx("inconsistent.mln.json"), "--layer", "1"]
    )
    assert result.exit_code == 1
    assert "uncovered link: (h1, h2)" in result.output


def test_metrics_all_layers(runner):
    result = runner.invoke(main, ["metrics", fx("basic_stack.mln.json")])
    assert result.exit_code == 0
    assert len(result.output.strip().splitlines()) == 4


def test_metrics_single_layer_machine(runner):
    result = runner.invoke(
        main,
        ["metrics", fx("basic_stack.mln.json"), "--layer", "1", "--format", "machine"],
    )
    payload = json.loads(result.output)
    assert list(payload["layers"]) == ["1"]
    assert payload["layers"]["1"]["node_count"] == 2


def test_metrics_bad_layer(runner):
    result = runner.invoke(main, ["metrics", fx("basic_stack.mln.json"), "--layer", "9"])
    assert result.exit_code == 2
    assert result.stderr == "error: no layer with index 9\n"


def test_simulate_fail_single(runner):
    result = runner.invoke(
        main, ["simulate", fx("dual_homed.mln.json"), "--fail", "p1"]
    )
    assert result.exit_code == 0
    assert "functional layer alive" in result.output


def test_simulate_fail_both(runner):
    result = runner.invoke(
        main,
        ["simulate", fx("dual_homed.mln.json"), "--fail", "p1,p2", "--format", "machine"],
    )
    payload = json.loads(result.output)
    assert payload["functional_alive"] is False
    assert payload["per_layer_survival"]["2"] == 0.0


def test_simulate_fail_accepts_spaces_after_commas(runner):
    def run(spec):
        args = ["simulate", fx("dual_homed.mln.json"), "--fail", spec, "--format", "machine"]
        result = runner.invoke(main, args)
        assert result.exit_code == 0, result.output
        payload = json.loads(result.output)
        assert payload.pop("scenario") == f"fail {spec}"
        return payload

    spaced = run(" p1, p2 ")
    assert spaced == run("p1,p2")
    assert spaced["final_failed_nodes"] == ["1/p1", "1/p2", "2/s"]


def test_simulate_named_scenario(runner):
    result = runner.invoke(
        main,
        ["simulate", fx("dual_homed.mln.json"), "--scenario", "one-host", "--format", "machine"],
    )
    payload = json.loads(result.output)
    assert payload["functional_alive"] is True


def test_simulate_unknown_node(runner):
    result = runner.invoke(
        main, ["simulate", fx("dual_homed.mln.json"), "--fail", "ghost"]
    )
    assert result.exit_code == 2


def test_simulate_layer_qualified_node(runner):
    result = runner.invoke(
        main, ["simulate", fx("dual_homed.mln.json"), "--fail", "2/s"]
    )
    assert result.exit_code == 0
    assert "1 nodes failed in 0 rounds, functional layer DOWN" in result.output


@pytest.mark.parametrize(
    "args, message",
    [
        (["--fail", "x/p1"], "bad node spec 'x/p1'"),
        (["--fail", "9/p1"], "no layer 9 for node 9/p1"),
        (["--fail", ","], "--fail names no node"),
        (["--scenario", "nope"], "no scenario named 'nope'"),
    ],
    ids=["malformed-spec", "bad-layer", "no-node", "unknown-scenario"],
)
def test_simulate_bad_scenario_exits_2_with_one_line(runner, args, message):
    result = runner.invoke(main, ["simulate", fx("dual_homed.mln.json"), *args])
    assert result.exit_code == 2
    assert result.stderr == f"error: {message}\n"


def test_simulate_failed_links_scenario(runner, tmp_path):
    doc = json.loads((FIXTURES / "dual_homed.mln.json").read_text())
    doc["scenarios"] = [{"label": "cut", "failed_links": [{"layer": 1, "link": ["p2", "p1"]}]}]
    path = tmp_path / "cut.mln.json"
    path.write_text(json.dumps(doc))
    result = runner.invoke(
        main, ["simulate", str(path), "--scenario", "cut", "--format", "machine"]
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert payload["final_inactive_links"] == [[1, ["p1", "p2"]]]
    assert payload["per_layer_largest_component_fraction"]["1"] == 0.5


def test_simulate_exhaustive(runner):
    result = runner.invoke(
        main, ["simulate", fx("dedicated_chain.mln.json"), "--exhaustive"]
    )
    assert result.exit_code == 0
    assert "1/host: 3 failed, functional DOWN" in result.output


def test_simulate_requires_one_mode(runner):
    result = runner.invoke(main, ["simulate", fx("dual_homed.mln.json")])
    assert result.exit_code == 2
    result = runner.invoke(
        main,
        ["simulate", fx("dual_homed.mln.json"), "--fail", "p1", "--exhaustive"],
    )
    assert result.exit_code == 2


def test_export_to_stdout(runner):
    result = runner.invoke(main, ["export", fx("basic_stack.mln.json")])
    assert result.exit_code == 0
    assert result.output.startswith("graph")


def test_export_to_file(runner, tmp_path):
    out = tmp_path / "net.dot"
    result = runner.invoke(
        main,
        ["export", fx("ap.mln.json"), "--view", "sublayers", "-o", str(out)],
    )
    assert result.exit_code == 0
    assert out.read_text().startswith("graph")


def test_export_to_missing_directory_exits_2(runner, tmp_path):
    out = tmp_path / "missing" / "net.dot"
    result = runner.invoke(main, ["export", fx("ap.mln.json"), "-o", str(out)])
    assert result.exit_code == 2
    assert result.exception is None or isinstance(result.exception, SystemExit)
    lines = result.stderr.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error: ")


def test_fuzzed_documents_keep_the_exit_code_contract(runner, tmp_path):
    rng = random.Random(11)
    seeds = [(FIXTURES / name).read_text() for name in ALL_FIXTURES]
    commands = [
        ["validate"],
        ["metrics"],
        ["simulate", "--exhaustive"],
        ["export", "--view", "sublayers"],
        ["decompose", "--layer", "2"],
    ]
    doc = tmp_path / "fuzz.mln.json"
    exits = set()
    for _ in range(500):
        doc.write_text(mutate(rng, rng.choice(seeds)), encoding="utf-8")
        for command in commands:
            result = runner.invoke(main, [command[0], str(doc), *command[1:]])
            assert result.exit_code in (0, 1, 2), (command, doc.read_text())
            assert result.exception is None or isinstance(result.exception, SystemExit), (
                command,
                doc.read_text(),
            )
            exits.add(result.exit_code)
    assert exits == {0, 1, 2}


def test_commands_are_deterministic(runner):
    a = runner.invoke(main, ["validate", fx("basic_stack.mln.json"), "--format", "machine"])
    b = runner.invoke(main, ["validate", fx("basic_stack.mln.json"), "--format", "machine"])
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
def test_unreadable_document_exits_2(runner, tmp_path, content):
    doc = tmp_path / "bad.mln.json"
    doc.write_bytes(content)
    for command in (
        ["validate"],
        ["metrics"],
        ["simulate", "--exhaustive"],
        ["export"],
        ["decompose", "--layer", "1"],
    ):
        result = runner.invoke(main, [command[0], str(doc), *command[1:]])
        assert result.exit_code == 2, command
        assert result.exception is None or isinstance(result.exception, SystemExit)
        lines = result.stderr.splitlines()
        assert len(lines) == 1 and lines[0].startswith("error: "), command


def test_cli_import_leaves_out_numeric_packages():
    code = (
        "import sys, netstrata.cli; "
        "print(sorted({'networkx', 'scipy', 'numpy'} & set(sys.modules)))"
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


# Runs `metrics` in both formats on every document named after the first
# argument, all in one process, then prints each run and which of numpy and
# scipy got loaded. With "blocked" as the first argument, importing either fails.
_METRICS_CHILD = """
import json, sys
if sys.argv[1] == "blocked":
    sys.modules["numpy"] = sys.modules["scipy"] = None
from click.testing import CliRunner
from netstrata.cli import main
runs = [
    CliRunner().invoke(main, ["metrics", doc, "--format", fmt])
    for doc in sys.argv[2:]
    for fmt in ("human", "machine")
]
print(json.dumps({
    "runs": [[r.exit_code, r.stdout, r.stderr] for r in runs],
    "loaded": sorted(m for m in ("numpy", "scipy") if sys.modules.get(m)),
}))
"""


def test_metrics_on_small_models_leaves_out_numeric_packages(tmp_path):
    # Desk-shaped layers at the campaign's size (5 x 200 nodes): radius near
    # the diameter, so the diameter searches about half of each layer.
    campaign = tmp_path / "campaign.mln.json"
    network = desk_model(num_layers=5, nodes_per_layer=200, chords_per_layer=80)
    campaign.write_text(serialize_model(ModelDocument(FORMAT_VERSION, network)))
    docs = [fx(name) for name in ALL_FIXTURES] + [str(campaign)]
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
    assert [code for code, _, _ in free["runs"]] == [0] * 2 * len(docs)
    assert "diameter 35" in free["runs"][-2][1]
    assert blocked["runs"] == free["runs"]
