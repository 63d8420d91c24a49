"""Golden report texts: `emit_report` in both formats for every report kind,
on every well-formed fixture and on an 11-layer desk model, compared byte for
byte with `tests/golden/reports.json`.

Regenerate only for a change that means to alter report output (and so bumps
`REPORT_VERSION`):

    PYTHONPATH=src python -m tests.test_golden_reports
"""

import json
from pathlib import Path

import pytest

from netstrata import analysis, consistency, faults, reference
from netstrata.generators import desk_model
from netstrata.model import ComponentId
from netstrata.model_io import emit_report, parse_model

HERE = Path(__file__).parent
GOLDEN = HERE / "golden" / "reports.json"
FIXTURES = ["ap", "basic_stack", "dedicated_chain", "dual_homed", "extended_stack", "inconsistent"]


def _models():
    for name in FIXTURES:
        doc = parse_model((HERE / "fixtures" / f"{name}.mln.json").read_text())
        yield name, doc.network, doc.scenarios
    # More than nine layers, so the texts pin numeric layer order (2 before 10).
    yield "desk11", desk_model(num_layers=11, nodes_per_layer=6, chords_per_layer=2), ()


def _reports():
    for name, net, scenarios in _models():
        yield f"{name}/validation", consistency.validate(net)
        yield f"{name}/metrics", {l.index: analysis.layer_metrics(l) for l in net.layers}
        bottom = [c.name for c in net.layer(1).components]
        for picked in (bottom[:1], bottom[:2]):
            spec = ",".join(picked)
            scenario = faults.FaultScenario.of(
                [ComponentId(1, n) for n in picked], label=f"fail {spec}"
            )
            yield f"{name}/cascade/fail {spec}", faults.run_cascade(net, scenario)
        for scenario in scenarios:
            yield f"{name}/cascade/{scenario.label}", faults.run_cascade(net, scenario)
        yield f"{name}/campaign", faults.exhaustive_single_faults(net)
        for kind in ("basic", "extended"):
            yield f"{name}/conformance/{kind}", reference.check_reference_conformance(net, kind)


def render_all() -> dict[str, str]:
    return {
        f"{key}/{fmt}": emit_report(report, fmt)
        for key, report in _reports()
        for fmt in ("human", "machine")
    }


EXPECTED = json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def rendered():
    return render_all()


def test_golden_cases_are_the_rendered_cases(rendered):
    assert sorted(rendered) == sorted(EXPECTED)


@pytest.mark.parametrize("key", sorted(EXPECTED))
def test_report_matches_golden(rendered, key):
    assert rendered[key] == EXPECTED[key]


def test_layers_render_in_numeric_order(rendered):
    for key in ("desk11/metrics/human", "desk11/cascade/fail n00000/human"):
        text = rendered[key]
        assert text.index("layer 2:") < text.index("layer 10:")
    machine = json.loads(rendered["desk11/metrics/machine"])
    assert list(machine["layers"]) == [str(i) for i in range(1, 12)]


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(json.dumps(render_all(), indent=1, sort_keys=True) + "\n")
