"""Golden parse outcomes: for every document of a fixed mutation corpus,
whether `parse_model` accepts it, or the exact message and position it
rejects it with, compared with `tests/golden/parse_outcomes.json`.

The corpus is the criterion-7 fuzz (`test_acceptance.mutate` on the fixtures,
seeds 7 and 8) plus mutations of one mid-sized `random_network` document, so
that rejections also land deep inside long arrays. Regenerate only for a
change that means to alter what the parser accepts or what it reports:

    PYTHONPATH=src python -m tests.test_parse_outcomes
"""

import hashlib
import json
import random
import re
from pathlib import Path

import pytest

from netstrata.generators import random_network
from netstrata.model_io import ModelDocument, ModelParseError, parse_model, serialize_model

from .conftest import FIXTURES
from .test_acceptance import ALL_FIXTURES, mutate

GOLDEN = Path(__file__).parent / "golden" / "parse_outcomes.json"
FIXTURE_CASES = 2_000  # per seed, the start of the criterion-7 sequence
NETWORK_CASES = 500  # per mutation kind
LONG = 200  # messages longer than this are kept as a prefix and a digest


def network_document() -> str:
    """A mid-sized model (several hundred components on four layers) whose
    components carry attributes, some of them equal."""
    net = random_network(random.Random(16), max_layers=4, max_nodes=300)
    data = json.loads(serialize_model(ModelDocument("1", net)))
    for layer in data["layers"]:
        for i, comp in enumerate(layer["components"]):
            if i % 3 == 0:
                comp["attributes"] = {"rack": f"r{i % 4}", "site": "s1"}
    return json.dumps(data)


# What a string token may become: a value of the wrong type, a name that
# breaks a structural rule, or an array grown past a pair.
_REPLACEMENTS = ('""', '"a/b"', '"ghost"', "1", "null", "true", "[]", "{}")


def mutate_shape(rng, text):
    """Replace one string token, key or value, deep inside `text`: with
    another token of the document (a duplicate, a dangling or self-loop
    endpoint, a name where a kind belongs), with a wrong type, or with two
    strings where one was."""
    tokens = list(re.finditer(r'"[^"\\]*"', text))
    m = rng.choice(tokens)
    kind = rng.randrange(3)
    if kind == 0:
        new = rng.choice(tokens).group()
    elif kind == 1:
        new = rng.choice(_REPLACEMENTS)
    else:
        new = f'{m.group()}, {rng.choice(tokens).group()}'
    return text[: m.start()] + new + text[m.end() :]


def corpus():
    """(case id, document text) for every case, in a fixed order."""
    fixtures = [(FIXTURES / name).read_text() for name in ALL_FIXTURES]
    for seed in (7, 8):
        rng = random.Random(seed)
        for i in range(FIXTURE_CASES):
            yield f"fixtures/{seed}/{i}", mutate(rng, rng.choice(fixtures))
    text = network_document()
    for name, edit in (("mutate", mutate), ("shape", mutate_shape)):
        rng = random.Random(16)
        for i in range(NETWORK_CASES):
            yield f"network/{name}/{i}", edit(rng, text)


def outcome(text):
    """None if `text` parses, else `[position, message]`; a long message is
    kept as its start, its length and its sha256."""
    try:
        parse_model(text)
    except ModelParseError as exc:
        message = str(exc)[len(exc.position) + 2 :]
        if len(message) > LONG:
            digest = hashlib.sha256(message.encode("utf-8", "surrogatepass")).hexdigest()
            message = f"{message[:LONG]}... ({len(message)} chars, sha256 {digest})"
        return [exc.position, message]
    return None


def render_all():
    return {case: outcome(text) for case, text in corpus()}


def dump(outcomes):
    """One case a line, so a changed outcome shows as one changed line."""
    lines = [f"{json.dumps(case)}: {json.dumps(o)}" for case, o in outcomes.items()]
    return "{\n" + ",\n".join(lines) + "\n}\n"


@pytest.fixture(scope="module")
def expected():
    return json.loads(GOLDEN.read_text())


@pytest.fixture(scope="module")
def rendered():
    return render_all()


def test_golden_cases_are_the_rendered_cases(rendered, expected):
    assert list(rendered) == list(expected)


def test_parse_outcomes_match_golden(rendered, expected):
    changed = [case for case in expected if rendered[case] != expected[case]]
    assert not changed, [(case, expected[case], rendered[case]) for case in changed[:5]]


def test_corpus_reaches_deep_shape_and_structure_errors(expected):
    # The network cases must reject inside long arrays, not only at the top.
    deep = [o for case, o in expected.items() if case.startswith("network/") and o]
    assert any(".components[" in p and "expected" in m for p, m in deep)
    assert any(".links[" in p and "references unknown component" in m for p, m in deep)
    assert any(".projections[" in p for p, _ in deep)
    assert any(p.endswith(".attributes.rack") or p.endswith(".attributes.site") for p, _ in deep)
    assert sum(o is None for o in expected.values()) > 100


if __name__ == "__main__":
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text(dump(render_all()))
