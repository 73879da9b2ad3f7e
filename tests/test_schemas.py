"""The string patterns of ``docs/schemas`` accept exactly the strings that the
code accepts, on a fixed corpus, and so do the bounds on a place's logNv.

Each pattern is read with ``json`` and matched with ``re`` (no
``jsonschema`` needed). A JSON Schema pattern is an ECMA-262 regular
expression; these are all anchored ``^...$``, and ECMA's ``$`` matches only at
the end of the input, so the body is matched with ``re.fullmatch``.
"""

import json
import re
from pathlib import Path

import pytest

from hypinv import cli
from hypinv.metgraph import MetrizedGraph
from hypinv.rational import parse_point, parse_rat

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"

CORPUS = [
    "0", "1", "-1", "12", "007", "-0", "00", "+1", "0/3", "3/4", "-3/4", "01/2",
    "1/0", "1/00", "-3/00", "0/0", "1/10", "1/01", "10/100", "3/-4", "1/2/3",
    "", "-", "1/", "/2", "1.5", "0.5", "1e3", "1_000", " 1", "1 ", "1\n",
    "٣", "inf", "INF", "-inf", "nan", "0x10",
]


def schema_pattern(name, *path):
    node = json.loads((SCHEMAS / name).read_text())
    for key in path:
        node = node[key]
    pattern = node["pattern"]
    assert pattern.startswith("^") and pattern.endswith("$")
    return pattern[1:-1]


def accepts(fn, text):
    try:
        fn(text)
    except ValueError:
        return False
    return True


def one_loop(length):
    doc = {"vertices": [{"id": "v", "genus": 1}], "edges": [{"u": "v", "v": "v", "length": length}]}
    return MetrizedGraph.from_json(doc)


@pytest.mark.parametrize(
    "schema,path,parse",
    [
        ("curve.schema.json", ("properties", "roots", "items"), parse_point),
        *[
            ("places.schema.json", ("items", "properties", key), parse_rat)
            for key in ("d", "eps", "delta", "phi", "chi")
        ],
        (
            "graph.schema.json",
            ("properties", "edges", "items", "properties", "length"),
            one_loop,
        ),
    ],
)
def test_pattern_accepts_what_the_code_accepts(schema, path, parse):
    pattern = schema_pattern(schema, *path)
    for text in CORPUS:
        assert bool(re.fullmatch(pattern, text)) == accepts(parse, text), text


# JSON numbers only: json writes nan and inf as NaN and Infinity, not JSON
LOG_NV = [
    1.0, 1, 0.5, 5e-324, 0, 0.0, -1.0, 1.7976931348623157e308, 10**308,
    int(1.7976931348623157e308) + 1, 10**400, True, False, "1.0", None, [1.0],
]


def schema_accepts_number(node, x):
    """The ``number`` node with an exclusive minimum and a maximum, on x."""
    assert set(node) == {"type", "exclusiveMinimum", "maximum"}
    assert node["type"] == "number"
    if isinstance(x, bool) or not isinstance(x, (int, float)):
        return False
    return node["exclusiveMinimum"] < x <= node["maximum"]


def test_lognv_bounds_accept_what_the_code_accepts(tmp_path, capsys):
    node = json.loads((SCHEMAS / "places.schema.json").read_text())
    node = node["items"]["properties"]["logNv"]
    place = {
        "label": "3", "genus": 2, "d": "6",
        "eps": "5/9", "delta": "3", "phi": "1/9", "chi": "1/9",
    }
    path = tmp_path / "places.json"
    for x in LOG_NV:
        path.write_text(json.dumps([{**place, "logNv": x}]))
        code = cli.main(["global", "--places", str(path)])
        capsys.readouterr()
        assert code in (0, 1), x
        assert (code == 0) == schema_accepts_number(node, x), x
