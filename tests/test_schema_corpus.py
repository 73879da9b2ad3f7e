"""The schemas of ``docs/schemas`` against the CLI on a corpus of documents,
validated with ``jsonschema`` (skipped where it is not installed).

Each document of ``AGREE`` is schema-valid exactly when its command exits 0.
``INTEGRAL_FLOATS`` pins the one known gap: JSON Schema's ``"integer"``
admits 2.0, while the code refuses an integral float for a curve genus, a
curve prime (also one that ``--prime`` overrides), a place genus and a
vertex genus (exit 1), as each property's ``$comment`` says.
"""

import json
from pathlib import Path

import pytest

from hypinv import cli
from test_cli import capped_curve, capped_graph

jsonschema = pytest.importorskip("jsonschema")

SCHEMAS = Path(__file__).resolve().parents[1] / "docs" / "schemas"

CURVE = {"genus": 2, "roots": ["0", "9", "1", "10", "2", "11"], "prime": 3}
GRAPH = {"vertices": [{"id": "v", "genus": 1}], "edges": [{"u": "v", "v": "v", "length": "1"}]}
PLACE = {
    "label": "3", "genus": 2, "logNv": 1.0986, "d": "6",
    "eps": "5/9", "delta": "3", "phi": "1/9", "chi": "1/9",
}

#: kind -> (schema file, argv with {path} for the document)
KINDS = {
    "curve": ("curve.schema.json", ["symroots", "--curve", "{path}", "--triple", "0,2,1"]),
    "curve --prime": (
        "curve.schema.json",
        ["cluster", "--curve", "{path}", "--prime", "3", "--triple", "0,2,1"],
    ),
    "graph": ("graph.schema.json", ["graph", "eval", "--in", "{path}"]),
    "places": ("places.schema.json", ["global", "--places", "{path}"]),
}


def curve(**change):
    return {**CURVE, **change}


def graph_vertex(**change):
    return {**GRAPH, "vertices": [{"id": "v", "genus": 1, **change}]}


def graph_length(length):
    return {**GRAPH, "edges": [{"u": "v", "v": "v", "length": length}]}


def place(**change):
    return [{**PLACE, **change}]


AGREE = [
    ("curve", CURVE),
    ("curve", {"genus": 2, "roots": CURVE["roots"]}),
    ("curve", curve(note="x", prime=5)),
    ("curve", curve(roots=["inf", "1/2", "-2", "3", "4", "5"])),
    ("curve", curve(genus="2")),
    ("curve", curve(genus=True)),
    ("curve", curve(genus=2.5)),
    ("curve", curve(genus=1)),
    ("curve", curve(prime="3")),
    ("curve", curve(prime=True)),
    ("curve", curve(prime=1)),
    ("curve", curve(roots="091102")),
    ("curve", curve(roots=["0", "9", "1", "10", "2", 11])),
    ("curve", curve(roots=["0", "9", "1", "10", "2", "0.5"])),
    ("curve", curve(roots=["0", "9", "1", "10", "2", "1/0"])),
    ("curve", curve(roots=["0", "9", "1", "10", "2", "INF"])),
    ("curve", curve(note=5)),
    ("curve", curve(extra=1)),
    ("curve", {"genus": 2}),
    ("curve", [CURVE]),
    ("graph", GRAPH),
    ("graph", graph_length("3/2")),
    ("graph", {"vertices": [{"id": "v", "genus": 2}, {"id": "w", "genus": 1}],
               "edges": [{"u": "v", "v": "w", "length": "2"}]}),
    ("graph", graph_vertex(genus=-1)),
    ("graph", graph_vertex(genus="1")),
    ("graph", graph_vertex(genus=True)),
    ("graph", graph_vertex(genus=1.5)),
    ("graph", {**GRAPH, "vertices": [{"id": "v"}]}),
    ("graph", graph_vertex(label="x")),
    ("graph", {**GRAPH, "vertices": [{"id": 0, "genus": 1}]}),
    ("graph", graph_length("0")),
    ("graph", graph_length("0.5")),
    ("graph", graph_length("1/0")),
    ("graph", graph_length(1)),
    ("graph", {**GRAPH, "note": "x"}),
    ("graph", {"vertices": [], "edges": []}),
    ("graph", {"vertices": GRAPH["vertices"]}),
    ("places", place()),
    ("places", [{k: v for k, v in PLACE.items() if k != "label"}]),
    ("places", place(logNv=1)),
    ("places", place(genus="2")),
    ("places", place(genus=1)),
    ("places", place(genus=2.5)),
    ("places", place(logNv=0)),
    ("places", place(logNv="1.0")),
    ("places", place(d=6)),
    ("places", place(d="0.5")),
    ("places", place(extra=1)),
    ("places", [{k: v for k, v in PLACE.items() if k != "chi"}]),
    ("places", PLACE),
    # appended, so that the ids of the cases above stay as they were
    ("curve --prime", CURVE),
    ("curve --prime", {"genus": 2, "roots": CURVE["roots"]}),
    ("curve --prime", curve(prime=4)),
    ("curve --prime", curve(prime="abc")),
    ("curve --prime", curve(prime="3")),
    ("curve --prime", curve(prime=True)),
    ("curve --prime", curve(prime=None)),
    ("curve --prime", curve(prime=1)),
    ("curve", curve(prime=None)),
    # a document without a required key, of each kind; a graph's vertices
    # or edges that are not a list
    ("curve", {"roots": CURVE["roots"]}),
    ("curve --prime", {"genus": 2, "prime": 3}),
    ("graph", {"edges": GRAPH["edges"]}),
    ("graph", {**GRAPH, "vertices": [{"genus": 1}]}),
    ("graph", {**GRAPH, "edges": [{"v": "v", "length": "1"}]}),
    ("graph", {**GRAPH, "edges": [{"u": "v", "v": "v"}]}),
    ("graph", {**GRAPH, "vertices": 5}),
    ("graph", {**GRAPH, "edges": {}}),
    ("places", [{k: v for k, v in PLACE.items() if k != "logNv"}]),
    ("places", [{k: v for k, v in PLACE.items() if k != "genus"}]),
    # the size caps: a curve genus of 16 (34 roots), 128 vertices, 512 edges
    ("curve", capped_curve(16)),
    ("curve", capped_curve(17)),
    ("curve", {**capped_curve(16), "roots": capped_curve(17)["roots"]}),
    ("graph", capped_graph(128, 512)),
    ("graph", capped_graph(129, 512)),
    ("graph", capped_graph(128, 513)),
    # the vertex-genus cap, 512
    ("graph", graph_vertex(genus=512)),
    ("graph", graph_vertex(genus=513)),
    ("graph", graph_vertex(genus=10**9)),
]

INTEGRAL_FLOATS = [
    ("curve", curve(genus=2.0), "curve genus is not an integer: 2.0"),
    ("curve", curve(prime=3.0), "curve prime is not an integer: 3.0"),
    ("graph", graph_vertex(genus=1.0), "genus of vertex 'v' is not an integer: 1.0"),
    ("places", place(genus=2.0), "genus of place '3' is not an integer: 2.0"),
    ("curve --prime", curve(prime=3.0), "curve prime is not an integer: 3.0"),
]


def schema_valid(kind, doc):
    schema = json.loads((SCHEMAS / KINDS[kind][0]).read_text())
    return jsonschema.Draft202012Validator(schema).is_valid(doc)


def run(tmp_path, capsys, kind, doc):
    path = tmp_path / f"{kind}.json"
    path.write_text(json.dumps(doc))
    code = cli.main([a.format(path=path) for a in KINDS[kind][1]])
    return code, json.loads(capsys.readouterr().out)


def test_the_corpus_accepts_and_refuses():
    verdicts = [schema_valid(kind, doc) for kind, doc in AGREE]
    assert 0 < sum(verdicts) < len(verdicts)


@pytest.mark.parametrize("kind, doc", AGREE)
def test_schema_and_cli_agree(tmp_path, capsys, kind, doc):
    code, out = run(tmp_path, capsys, kind, doc)
    assert code in (0, 1), out
    assert schema_valid(kind, doc) == (code == 0), out


@pytest.mark.parametrize("kind, doc, detail", INTEGRAL_FLOATS)
def test_integral_floats_are_schema_valid_but_refused(tmp_path, capsys, kind, doc, detail):
    assert schema_valid(kind, doc)
    code, out = run(tmp_path, capsys, kind, doc)
    assert code == 1
    assert out == {"error": "validation", "detail": detail}
