"""cli.render_json against the element-by-element renderer it replaced."""

import contextlib
import io
import json
import math
import random
import tracemalloc

import pytest

from cli_runner import CliRunner
from oddsrule import validate_probabilities
from oddsrule.cli import CHUNK, _analysis_document, main, render_json


def reference_scalar(v) -> str:
    if isinstance(v, bool):
        return "true" if v else "false"
    if v is None:
        return "null"
    if isinstance(v, int):
        return str(v)
    if isinstance(v, float):
        if math.isnan(v):
            return '"nan"'
        if math.isinf(v):
            return '"inf"' if v > 0 else '"-inf"'
        return format(float(v), ".17g")
    if isinstance(v, str):
        return json.dumps(v)
    raise TypeError(f"cannot render {type(v)!r}")


def reference_render(doc, indent: int = 0) -> str:
    """The recursive renderer: one call and one type dispatch per element."""
    pad = "  " * indent
    if isinstance(doc, dict):
        if not doc:
            return "{}"
        body = ",\n".join(
            f'{pad}  {json.dumps(str(k))}: {reference_render(v, indent + 1)}'
            for k, v in doc.items()
        )
        return "{\n" + body + "\n" + pad + "}"
    if isinstance(doc, (list, tuple)):
        if not doc:
            return "[]"
        body = ",\n".join(f"{pad}  {reference_render(v, indent + 1)}" for v in doc)
        return "[\n" + body + "\n" + pad + "]"
    return reference_scalar(doc)


FLOATS = [
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 2.2250738585072014e-308,
    1 - 2**-53, 1.0, 0.1, 1e17, 1.7976931348623157e308, -2.5,
]

DOCUMENTS = [
    FLOATS,
    tuple(FLOATS),
    [1.0],
    [],
    (),
    {},
    math.nan,
    -0.0,
    7,
    -(2**70),
    True,
    False,
    None,
    'quote " backslash \\ tab \t',
    "non-ASCII: R₁ ≥ 1, é, \U0001d53c",
    {
        "n": 3,
        "p": [0.5, 1.0, 0.0],
        "empty_list": [],
        "empty_tuple": (),
        "empty_dict": {},
        "flag": True,
        "off": False,
        "missing": None,
        'key "quoted" é': "value ≤ \"x\"",
        "nested": {
            "values": (math.inf, -math.inf, math.nan, -0.0),
            "deeper": {"x": 5e-324, "list": [1 - 2**-53], "s": 2},
        },
    },
    # a list of more than one piece, non-finite values on both sides of the cut
    {"p": [0.25] * (CHUNK - 1) + [math.inf, math.nan] + [0.5] * CHUNK + [-math.inf]},
]


@pytest.mark.parametrize("doc", DOCUMENTS, ids=range(len(DOCUMENTS)))
def test_hand_built_documents(doc):
    assert render_json(doc) == reference_render(doc)


@pytest.mark.parametrize("indent", [0, 1, 3])
def test_indented_lists(indent):
    assert render_json(FLOATS, indent) == reference_render(FLOATS, indent)


@pytest.mark.parametrize("element", [True, 1, None, "0.5", [0.5], {"a": 0.5}])
def test_list_elements_must_be_floats(element):
    with pytest.raises(TypeError):
        render_json([0.5, element])


def test_analyze_file_output(tmp_path):
    """--format json on a 10^4-entry file with p = 1 and p = 0 prints the
    reference rendering of the analysis document."""
    rnd = random.Random(20260810)
    probs = [rnd.random() * 0.01 for _ in range(10_000)]
    probs[100] = 1.0  # odds and the first 101 suffix sums are inf
    probs[5000:5010] = [0.0] * 10
    path = tmp_path / "probs.json"
    path.write_text(json.dumps({"p": probs}), encoding="utf-8")
    res = CliRunner().invoke(main, ["analyze", "--format", "json", "--file", str(path)])
    assert res.exit_code == 0
    expected = reference_render(_analysis_document(validate_probabilities(probs)))
    assert res.stdout == expected + "\n"
    assert '"inf"' in res.stdout


def test_analyze_file_text_lists(tmp_path):
    """--format text writes each list line in pieces; the line is the one
    ", ".join of all n values."""
    rnd = random.Random(11)
    probs = [rnd.random() * 0.01 for _ in range(2 * CHUNK + 3)]
    path = tmp_path / "probs.txt"
    path.write_text("\n".join(map(repr, probs)), encoding="utf-8")
    res = CliRunner().invoke(main, ["analyze", "--file", str(path)])
    assert res.exit_code == 0
    seq = validate_probabilities(probs)
    lines = res.stdout.splitlines()
    for label, values in [("p", probs), ("odds", seq.r), ("suffix sums", seq.R)]:
        expected = f"{label:<14}" + ", ".join(format(x, ".12g") for x in values)
        assert expected in lines


class _Discard(io.TextIOBase):
    """A stdout that drops what it is given."""

    def write(self, text):
        return len(text)


@pytest.mark.parametrize("output_format", ["json", "text"])
def test_render_builds_no_string_of_a_whole_list(tmp_path, output_format):
    """analyze on a 10^5-entry file peaks under 14 MiB traced, about 10 MiB
    of it the input and the sequence.  Rendering each list as one string
    peaked at 32.2 MiB in json and 18.1 MiB in text."""
    rnd = random.Random(7)
    path = tmp_path / "probs.json"
    path.write_text(json.dumps({"p": [rnd.random() * 1e-4 for _ in range(100_000)]}),
                    encoding="utf-8")
    tracemalloc.start()
    try:
        with contextlib.redirect_stdout(_Discard()):
            main(["analyze", "--format", output_format, "--file", str(path)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 14 * 2**20
