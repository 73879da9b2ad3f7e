import json
import math
from fractions import Fraction
from pathlib import Path

import pytest

from hypinv import cli, invariants, metgraph, rational, symroots
from test_metgraph import graph_doc

LOOP1 = {
    "vertices": [{"id": "v", "genus": 1}],
    "edges": [{"u": "v", "v": "v", "length": "1"}],
}
CURVE6 = {"genus": 2, "roots": ["0", "1", "2", "3", "4", "5"]}
CURVE3 = {"genus": 2, "roots": ["0", "9", "1", "10", "2", "11"], "prime": 3}


def run(capsys, *argv):
    code = cli.main(list(argv))
    return code, capsys.readouterr().out


def write(tmp_path, name, doc):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


def test_symroots_triple(tmp_path, capsys):
    curve = write(tmp_path, "c.json", CURVE6)
    code, out = run(capsys, "symroots", "--curve", curve, "--triple", "0,1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["l_pow_2g"] == "16/5"
    assert "nu_l" not in doc


def test_symroots_with_prime(tmp_path, capsys):
    curve = write(tmp_path, "c.json", CURVE3)
    code, out = run(capsys, "symroots", "--curve", curve, "--triple", "0,2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["nu_l"] == "2"
    assert doc["pairing_nu"] == "1"
    assert math.isclose(float(doc["pairing_log"]), math.log(3))


def test_symroots_all_triples(tmp_path, capsys):
    curve = write(tmp_path, "c.json", CURVE6)
    code, out = run(capsys, "symroots", "--curve", curve, "--all-triples")
    assert code == 0
    doc = json.loads(out)
    assert len(doc["results"]) == 6 * 5 * 4


def test_symroots_needs_triple_mode(tmp_path, capsys):
    curve = write(tmp_path, "c.json", CURVE6)
    code, out = run(capsys, "symroots", "--curve", curve)
    assert code == 1
    assert json.loads(out)["error"] == "validation"


def test_graph_eval(tmp_path, capsys):
    path = write(tmp_path, "loop1.json", LOOP1)
    code, out = run(capsys, "graph", "eval", "--in", path)
    assert code == 0
    assert json.loads(out) == {
        "epsilon": "1/6",
        "phi": "1/12",
        "delta": "1",
        "genus": "2",
        "warnings": [],
    }


@pytest.mark.parametrize("fiber_type", invariants.GENUS2_ARITY)
def test_graph_eval_no_warnings_at_genus_2(tmp_path, capsys, fiber_type):
    params = (1, 2, 3)[: invariants.GENUS2_ARITY[fiber_type]]
    doc = graph_doc(invariants.genus2_graph(fiber_type, params))
    code, out = run(capsys, "graph", "eval", "--in", write(tmp_path, "g.json", doc))
    assert code == 0
    assert json.loads(out)["warnings"] == []


def test_graph_eval_warns_per_non_separating_edge(tmp_path, capsys):
    # genus-3 banana: four parallel edges, none of them a bridge
    banana = metgraph.MetrizedGraph({"a": 0, "b": 0}, [("a", "b", n) for n in (1, 2, 3, 4)])
    assert banana.total_genus == 3
    code, out = run(capsys, "graph", "eval", "--in", write(tmp_path, "g.json", graph_doc(banana)))
    assert code == 0
    warnings = json.loads(out)["warnings"]
    assert len(warnings) == 4
    assert [w.split(":")[0] for w in warnings] == [f"edge {i}" for i in range(4)]


def test_graph_eval_deterministic(tmp_path, capsys):
    path = write(tmp_path, "loop1.json", LOOP1)
    _, out1 = run(capsys, "graph", "eval", "--in", path)
    _, out2 = run(capsys, "graph", "eval", "--in", path)
    assert out1 == out2


def test_out_file(tmp_path, capsys):
    path = write(tmp_path, "loop1.json", LOOP1)
    target = tmp_path / "result.json"
    code, out = run(capsys, "graph", "eval", "--in", path, "--out", str(target))
    assert code == 0 and out == ""
    assert json.loads(target.read_text())["epsilon"] == "1/6"


def test_out_file_that_cannot_be_written(tmp_path, capsys):
    # an OSError on write is reported as on read, not as a traceback
    curve = write(tmp_path, "c.json", CURVE6)
    target = tmp_path / "missing" / "x.json"
    code, out = run(capsys, "symroots", "--curve", curve, "--triple", "0,1,2", "--out", str(target))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "validation"
    assert doc["detail"].startswith(f"cannot write {target}: ")
    assert not target.parent.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ("graph", "nope", "--in", "g.json"),
        ("invariants", "nope", "--d", "6", "--eps", "5/9", "--delta", "3", "--genus", "2"),
    ],
    ids=["graph", "invariants"],
)
def test_unknown_action(capsys, argv):
    # argparse's choices refuse the action before any handler runs
    code, out = run(capsys, *argv)
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "validation"
    assert "invalid choice: 'nope'" in doc["detail"]


def test_cluster(tmp_path, capsys):
    curve = write(tmp_path, "c.json", CURVE3)
    code, out = run(capsys, "cluster", "--curve", curve, "--triple", "0,2,1")
    assert code == 0
    doc = json.loads(out)
    assert doc["checks"] == ["ok"]
    rec = doc["pairings"]["(0,2,1)"]
    assert rec == {
        "combination": "8",
        "expected_from_symroots": "8",
        "match": True,
    }
    assert any(n["level"] == 2 for n in doc["tree"]["nodes"])


def test_cluster_rejects_bad_form(tmp_path, capsys):
    curve = write(
        tmp_path, "c.json", {"genus": 2, "roots": ["0", "3", "1", "4", "2", "5"]}
    )
    code, out = run(capsys, "cluster", "--curve", curve, "--prime", "3")
    assert code == 0  # diagnostic report, not an error
    doc = json.loads(out)
    assert doc["checks"] != ["ok"]
    assert "tree" not in doc


@pytest.mark.parametrize(
    "roots", [CURVE3["roots"], ["0", "3", "1", "4", "2", "5"]], ids=["normal-form", "not-normal-form"]
)
@pytest.mark.parametrize(
    ("triple", "detail"),
    [
        ("0,0,99", "indices must be pairwise distinct: (0, 0, 99)"),
        ("0,1,99", "root index out of range: 99"),
        ("0,1,-1", "root index out of range: -1"),
        ("0,1", "expected 3 comma-separated indices: '0,1'"),
    ],
)
def test_cluster_checks_the_triple_whatever_the_curve(tmp_path, capsys, roots, triple, detail):
    # a malformed --triple once exited 0 with the diagnostic document when
    # the curve was not in normal form
    curve = write(tmp_path, "c.json", {"genus": 2, "roots": roots})
    code, out = run(capsys, "cluster", "--curve", curve, "--prime", "3", "--triple", triple)
    assert code == 1
    assert json.loads(out) == {"error": "validation", "detail": detail}


def test_cluster_without_a_prime_exits_1(tmp_path, capsys):
    curve = write(tmp_path, "c.json", CURVE6)
    code, out = run(capsys, "cluster", "--curve", curve)
    assert code == 1
    assert json.loads(out) == {
        "error": "validation",
        "detail": "cluster requires --prime (or a prime in the curve JSON)",
    }


def _count_valuation_tables(monkeypatch):
    calls = []
    real = rational.valuation_table

    def counted(roots, p):
        calls.append(p)
        return real(roots, p)

    monkeypatch.setattr(rational, "valuation_table", counted)
    monkeypatch.setattr(symroots, "valuation_table", counted)
    return calls


@pytest.mark.parametrize(
    ("roots", "checks"),
    [
        (["0", "9", "1", "10", "2", "11"], ["ok"]),
        (
            ["0", "3", "1", "4", "2", "5"],
            [f"val(a_{r} - a_{r + 1}) = 1 is odd" for r in (0, 2, 4)],
        ),
    ],
)
def test_cluster_builds_one_valuation_table(tmp_path, capsys, monkeypatch, roots, checks):
    curve = write(tmp_path, "c.json", {"genus": 2, "roots": roots})
    calls = _count_valuation_tables(monkeypatch)
    code, out = run(capsys, "cluster", "--curve", curve, "--prime", "3", "--all-triples")
    assert code == 0
    assert calls == [3]
    assert json.loads(out)["checks"] == checks


def test_genus2(capsys):
    code, out = run(
        capsys, "genus2", "--type", "VII", "--params", "1,1,1", "--graph-check"
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["chi"] == "1/9"
    assert doc["graph_check"]["matches_table"] is True


def test_genus2_bad_type(capsys):
    code, out = run(capsys, "genus2", "--type", "IX")
    assert code == 1


def test_invariants_chi(capsys):
    code, out = run(
        capsys,
        "invariants", "chi",
        "--d", "6", "--eps", "5/9", "--delta", "3", "--genus", "2",
    )
    assert code == 0
    assert json.loads(out)["chi"] == "1/9"


def test_global(tmp_path, capsys):
    places = [
        {
            "label": "3",
            "genus": 2,
            "logNv": math.log(3),
            "d": "6",
            "eps": "5/9",
            "delta": "3",
            "phi": "1/9",
            "chi": "1/9",
        }
    ]
    path = write(tmp_path, "places.json", places)
    code, out = run(capsys, "global", "--places", path)
    assert code == 0
    doc = json.loads(out)
    expect = 2 / 5 * float(Fraction(1, 9)) * math.log(3)
    assert math.isclose(float(doc["omega_omega_adm"]), expect)


def test_global_inconsistent_chi(tmp_path, capsys):
    places = [
        {
            "genus": 2,
            "logNv": 1.0,
            "d": "6",
            "eps": "5/9",
            "delta": "3",
            "phi": "1/9",
            "chi": "1/3",
        }
    ]
    path = write(tmp_path, "places.json", places)
    code, out = run(capsys, "global", "--places", path)
    assert code == 1
    assert "inconsistent" in json.loads(out)["detail"]


def test_global_missing_key(tmp_path, capsys):
    path = write(tmp_path, "places.json", [{"genus": 2}])
    code, out = run(capsys, "global", "--places", path)
    assert code == 1


def test_verify_cli(capsys):
    code, out = run(capsys, "verify", "--suite", "subdivision", "--seed", "7")
    assert code == 0
    doc = json.loads(out)
    assert doc["failed"] == 0 and doc["passed"] > 0


def test_verify_exits_3_when_a_check_fails(monkeypatch, tmp_path, capsys):
    # the same document as on a pass, so a script can tell the two apart by
    # the exit code alone
    original, calls = metgraph.verify_admissible, []

    def first_fails(graph, mu):
        calls.append(graph)
        return original(graph, mu) + (len(calls) == 1)

    monkeypatch.setattr(metgraph, "verify_admissible", first_fails)
    code, out = run(capsys, "verify", "--suite", "subdivision", "--seed", "7")
    assert code == 3
    doc = json.loads(out)
    assert doc["failed"] == 1 and doc["failures"] == ["admissible II(1,)"]
    assert doc["passed"] > 0
    calls.clear()
    path = tmp_path / "out.json"
    code, out = run(capsys, "verify", "--suite", "subdivision", "--seed", "7", "--out", str(path))
    assert (code, out) == (3, "") and json.loads(path.read_text()) == doc


def test_verify_unknown_suite(capsys):
    code, out = run(capsys, "verify", "--suite", "nope")
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "validation"
    assert doc["detail"].startswith("unknown suite: 'nope'")


def test_missing_file(capsys):
    code, out = run(capsys, "graph", "eval", "--in", "does-not-exist.json")
    assert code == 1
    assert json.loads(out)["error"] == "validation"


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{bad")
    code, out = run(capsys, "graph", "eval", "--in", str(path))
    assert code == 1
    assert "malformed" in json.loads(out)["detail"]


def test_bad_graph_schema(tmp_path, capsys):
    path = write(tmp_path, "g.json", {"nodes": []})
    code, out = run(capsys, "graph", "eval", "--in", str(path))
    assert code == 1


def test_graph_duplicate_vertex_id(tmp_path, capsys):
    doc = {
        "vertices": [{"id": "a", "genus": 1}, {"id": "a", "genus": 5}],
        "edges": [{"u": "a", "v": "a", "length": "1"}],
    }
    code, out = run(capsys, "graph", "eval", "--in", write(tmp_path, "g.json", doc))
    assert code == 1
    assert "duplicate vertex id" in json.loads(out)["detail"]


def test_graph_missing_genus(tmp_path, capsys):
    doc = {
        "vertices": [{"id": "v", "genus": 2}, {"id": "w"}],
        "edges": [{"u": "v", "v": "w", "length": "1"}],
    }
    code, out = run(capsys, "graph", "eval", "--in", write(tmp_path, "g.json", doc))
    assert code == 1
    assert "vertex missing keys: ['genus']" in json.loads(out)["detail"]


@pytest.mark.parametrize("key", ["vertices", "edges"])
def test_graph_missing_key(tmp_path, capsys, key):
    # once a KeyError caught by a catch-all: "bad graph JSON: 'edges'"
    doc = {k: v for k, v in LOOP1.items() if k != key}
    code, out = run(capsys, "graph", "eval", "--in", write(tmp_path, "g.json", doc))
    assert code == 1
    assert json.loads(out) == {"error": "validation", "detail": f"graph missing keys: ['{key}']"}


@pytest.mark.parametrize("genus", [1.9, 1.0, True, "1", None])
def test_graph_non_integer_genus(tmp_path, capsys, genus):
    doc = {
        "vertices": [{"id": "v", "genus": genus}],
        "edges": [{"u": "v", "v": "v", "length": "1"}],
    }
    code, out = run(capsys, "graph", "eval", "--in", write(tmp_path, "g.json", doc))
    assert code == 1
    assert "not an integer" in json.loads(out)["detail"]


@pytest.mark.parametrize("genus", [2.9, 2.0, True, "2", None])
@pytest.mark.parametrize("command", ["symroots", "cluster"])
def test_curve_non_integer_genus(tmp_path, capsys, command, genus):
    curve = write(tmp_path, "c.json", {**CURVE3, "genus": genus})
    code, out = run(capsys, command, "--curve", curve, "--triple", "0,1,2")
    assert code == 1
    assert "curve genus is not an integer" in json.loads(out)["detail"]


@pytest.mark.parametrize("genus", [2.7, 2.0, False, "2", None])
def test_global_non_integer_genus(tmp_path, capsys, genus):
    place = {
        "label": "3", "genus": genus, "logNv": 1.0, "d": "6",
        "eps": "5/9", "delta": "3", "phi": "1/9", "chi": "1/9",
    }
    path = write(tmp_path, "places.json", [place])
    code, out = run(capsys, "global", "--places", path)
    assert code == 1
    assert "genus of place '3' is not an integer" in json.loads(out)["detail"]


@pytest.mark.parametrize("length", ["1/0", "0.5", "1.1e1", "1e400"])
def test_graph_length_not_a_rational_string(tmp_path, capsys, length):
    doc = {**LOOP1, "edges": [{"u": "v", "v": "v", "length": length}]}
    code, out = run(capsys, "graph", "eval", "--in", write(tmp_path, "g.json", doc))
    assert code == 1
    assert json.loads(out)["error"] == "validation"


@pytest.mark.parametrize("root", ["1/0", "0.5", "1e400"])
def test_curve_root_not_a_rational_string(tmp_path, capsys, root):
    curve = write(tmp_path, "c.json", {**CURVE6, "roots": ["0", "1", "2", "3", "4", root]})
    code, out = run(capsys, "symroots", "--curve", curve, "--triple", "0,1,2")
    assert code == 1
    assert json.loads(out)["error"] == "validation"


@pytest.mark.parametrize("command", ["symroots", "cluster"])
@pytest.mark.parametrize("root", [" 1 ", "INF", "Inf", " inf"])
def test_curve_root_outside_the_schema_pattern(tmp_path, capsys, command, root):
    # docs/schemas/curve.schema.json: ^(-?[0-9]+(/[0-9]*[1-9][0-9]*)?|inf)$, nothing stripped
    curve = write(tmp_path, "c.json", {**CURVE6, "roots": ["6", "1", "2", "3", "4", root]})
    code, out = run(capsys, command, "--curve", curve, "--prime", "3", "--triple", "0,1,2")
    assert code == 1
    assert json.loads(out)["error"] == "validation"


@pytest.mark.parametrize("command", ["symroots", "cluster"])
@pytest.mark.parametrize(
    ("doc", "detail"),
    [
        ({**CURVE3, "roots": "091102"}, "curve roots must be a list of strings"),
        ({**CURVE3, "roots": ["0", "9", "1", "10", "2", 11]}, "must be a list of strings"),
        ({**CURVE3, "extra": 1}, "unknown curve keys: ['extra']"),
        ({**CURVE3, "note": 5}, "curve fields ['note'] must be strings"),
        ([CURVE3], "curve is not an object"),
    ],
)
def test_curve_outside_the_schema(tmp_path, capsys, command, doc, detail):
    # docs/schemas/curve.schema.json: additionalProperties false, string items
    curve = write(tmp_path, "c.json", doc)
    code, out = run(capsys, command, "--curve", curve, "--prime", "3", "--all-triples")
    assert code == 1
    assert detail in json.loads(out)["detail"]


@pytest.mark.parametrize("command", ["symroots", "cluster"])
def test_curve_with_a_note(tmp_path, capsys, command):
    curve = write(tmp_path, "c.json", {**CURVE3, "note": "x"})
    code, out = run(capsys, command, "--curve", curve, "--triple", "0,2,1")
    assert code == 0


PLACE = {
    "label": "3", "genus": 2, "logNv": 1.0, "d": "6",
    "eps": "5/9", "delta": "3", "phi": "1/9", "chi": "1/9",
}


@pytest.mark.parametrize(
    ("record", "detail"),
    [
        (list(PLACE.items()), "place record is not an object"),
        ({**PLACE, "label": 3}, "must be strings"),
        ({**PLACE, "d": 6}, "must be strings"),
        ({**PLACE, "extra": 1}, "unknown place record keys: ['extra']"),
        ({**PLACE, "logNv": "1.0"}, "logNv of place '3' is not a positive float"),
        ({**PLACE, "logNv": True}, "logNv of place '3' is not a positive float"),
        ({**PLACE, "logNv": 0}, "logNv of place '3' is not a positive float"),
        ({**PLACE, "logNv": 10**400}, "logNv of place '3' is not a positive float"),
        ({**PLACE, "logNv": math.nan}, "logNv of place '3' is not a positive float"),
        ({**PLACE, "logNv": math.inf}, "logNv of place '3' is not a positive float"),
    ],
)
def test_global_outside_the_schema(tmp_path, capsys, record, detail):
    # docs/schemas/places.schema.json: additionalProperties false, and logNv a
    # JSON number (json writes math.nan and math.inf as NaN and Infinity)
    path = write(tmp_path, "places.json", [record])
    code, out = run(capsys, "global", "--places", path)
    assert code == 1
    assert detail in json.loads(out)["detail"]


def test_global_keeps_the_documents_log_nv(tmp_path, capsys):
    # an integer logNv prints what the same float does, as float(logNv) once did
    outs = [run(capsys, "global", "--places", write(tmp_path, "p.json", [{**PLACE, "logNv": x}]))
            for x in (1, 1.0)]
    assert outs[0] == outs[1] and outs[0][0] == 0


@pytest.mark.parametrize(
    ("exponent", "log_nv"), [(400, 1.0), (300, 1e300)], ids=["chi beyond float", "term inf"]
)
def test_global_sum_beyond_the_float_range(tmp_path, capsys, exponent, log_nv):
    # valid genus-2 records, chi = 3d/2 with eps = delta = 0: float(chi) once
    # ended in an internal OverflowError (exit 2), and chi * logNv = inf was
    # printed as "inf" (exit 0)
    record = {
        **PLACE, "logNv": log_nv, "d": f"2{'0' * exponent}", "eps": "0",
        "delta": "0", "phi": "0", "chi": f"3{'0' * exponent}",
    }
    code, out = run(capsys, "global", "--places", write(tmp_path, "places.json", [record]))
    assert code == 1
    doc = json.loads(out)
    assert doc["error"] == "validation" and "not a finite float" in doc["detail"]


@pytest.mark.parametrize("command", ["symroots", "cluster"])
def test_curve_root_inf(tmp_path, capsys, command):
    curve = write(tmp_path, "c.json", {**CURVE6, "roots": ["inf", "1", "2", "3", "4", "5"]})
    code, out = run(capsys, command, "--curve", curve, "--prime", "3", "--triple", "0,1,2")
    assert code == 0
    assert "error" not in json.loads(out)


@pytest.mark.parametrize("command", ["symroots", "cluster"])
def test_triple_and_all_triples_conflict(tmp_path, capsys, command):
    # once --all-triples was dropped without a word: exit 0 and one triple
    curve = write(tmp_path, "c.json", CURVE3)
    code, out = run(capsys, command, "--curve", curve, "--triple", "0,1,2", "--all-triples")
    assert code == 1
    assert json.loads(out) == {
        "error": "validation",
        "detail": "argument --all-triples: not allowed with argument --triple",
    }


@pytest.mark.parametrize("command", ["symroots", "cluster"])
def test_substitution_of_a_root_at_infinity_is_shown(tmp_path, capsys, command):
    # cluster reports "root 1 = 1/9 is not integral at 3" for the user's root
    # 9: the document names the substitution that made every root finite
    curve = write(tmp_path, "c.json", {**CURVE3, "roots": ["inf", "9", "1", "10", "2", "11"]})
    code, out = run(capsys, command, "--curve", curve, "--triple", "0,1,2")
    assert code == 0
    doc = json.loads(out)
    assert doc["substitution"] == "applied x -> 1/(x - 0)"
    if command == "cluster":
        assert doc["checks"] == ["root 1 = 1/9 is not integral at 3"]
    # a curve with every root finite has no such key
    code, out = run(capsys, command, "--curve", write(tmp_path, "f.json", CURVE3),
                    "--triple", "0,1,2")
    assert code == 0 and "substitution" not in json.loads(out)


@pytest.mark.parametrize(
    ("change", "detail"),
    [
        ({"note": "x"}, "unknown graph keys: ['note']"),
        ({"vertices": [{"id": "v", "genus": 1, "label": "x"}]}, "unknown vertex keys"),
        ({"edges": [{"u": "v", "v": "v", "length": "1", "w": 1}]}, "unknown edge keys"),
        (
            {"vertices": [{"id": 0, "genus": 1}], "edges": [{"u": 0, "v": 0, "length": "1"}]},
            "must be strings",
        ),
        ({"edges": [{"u": "v", "v": "v", "length": 1}]}, "must be strings"),
        ({"edges": [{"v": "v", "length": "1"}]}, "edge missing keys: ['u']"),
        ({"vertices": [{"genus": 1}]}, "vertex missing keys: ['id']"),
        ({"vertices": 5}, "graph vertices is not a list: 5"),
        ({"edges": {}}, "graph edges is not a list: {}"),
    ],
)
def test_graph_outside_the_schema(tmp_path, capsys, change, detail):
    path = write(tmp_path, "g.json", {**LOOP1, **change})
    code, out = run(capsys, "graph", "eval", "--in", path)
    assert code == 1
    assert detail in json.loads(out)["detail"]


@pytest.mark.parametrize("d", ["1/0", "6.0", "1.1e1"])
def test_invariants_chi_d_not_a_rational_string(capsys, d):
    code, out = run(
        capsys,
        "invariants", "chi",
        "--d", d, "--eps", "5/9", "--delta", "3", "--genus", "2",
    )
    assert code == 1
    assert json.loads(out)["error"] == "validation"


@pytest.mark.parametrize(
    "value", ["３", "٠", " 3", "3 ", "+3", "1_1", "3.0", "0x3", ""]
)
@pytest.mark.parametrize(
    "argv",
    [
        ("cluster", "--curve", "{curve}", "--prime", "{value}", "--all-triples"),
        ("symroots", "--curve", "{curve}", "--prime", "{value}", "--all-triples"),
        ("invariants", "chi", "--d", "6", "--eps", "5/9", "--delta", "3",
         "--genus", "{value}"),
        ("verify", "--suite", "identities", "--seed", "{value}"),
    ],
    ids=["cluster --prime", "symroots --prime", "invariants --genus", "verify --seed"],
)
def test_integer_option_not_in_ascii_digits(tmp_path, capsys, argv, value):
    # int() would read "３" as 3, " 3" as 3 and "1_1" as 11
    curve = write(tmp_path, "c.json", CURVE3)
    code, out = run(capsys, *(a.format(curve=curve, value=value) for a in argv))
    assert code == 1
    assert json.loads(out)["error"] == "validation"


@pytest.mark.parametrize("command", ["symroots", "cluster"])
@pytest.mark.parametrize(
    "triple", ["٠,1,2", "0,١,2", " 0, 1,2 ", "0,1_0,2", "0,+1,2", "0,1,2,", "0,1", "0,,2"]
)
def test_triple_not_in_ascii_digits(tmp_path, capsys, command, triple):
    # "0,1_0,2" once read index 10
    curve = write(tmp_path, "c.json", CURVE3)
    code, out = run(capsys, command, "--curve", curve, "--prime", "3", "--triple", triple)
    assert code == 1
    assert json.loads(out)["error"] == "validation"


@pytest.mark.parametrize("command", ["symroots", "cluster"])
@pytest.mark.parametrize(
    ("prime", "detail"),
    [
        ("abc", "curve prime is not an integer: 'abc'"),
        (3.0, "curve prime is not an integer: 3.0"),
        (True, "curve prime is not an integer: True"),
        (None, "curve prime is not an integer: None"),
        (1, "curve prime must be at least 2: 1"),
    ],
)
def test_prime_override_keeps_the_document_prime_checked(
    tmp_path, capsys, command, prime, detail
):
    # docs/schemas/curve.schema.json refuses these documents; with --prime
    # they once ran and exited 0
    curve = write(tmp_path, "c.json", {**CURVE3, "prime": prime})
    code, out = run(capsys, command, "--curve", curve, "--prime", "3", "--triple", "0,2,1")
    assert code == 1
    assert json.loads(out) == {"error": "validation", "detail": detail}


@pytest.mark.parametrize("command", ["symroots", "cluster"])
def test_prime_override_replaces_a_valid_document_prime(tmp_path, capsys, command):
    # an integer of at least 2 is all the schema asks of the document's prime
    curve = write(tmp_path, "c.json", {**CURVE3, "prime": 4})
    code, out = run(capsys, command, "--curve", curve, "--prime", "3", "--triple", "0,2,1")
    assert code == 0
    assert json.loads(out)["prime"] == 3


def test_negative_integer_option_parses(tmp_path, capsys):
    # "-?[0-9]+": the minus sign is read, and -3 is then no prime
    curve = write(tmp_path, "c.json", CURVE3)
    code, out = run(capsys, "cluster", "--curve", curve, "--prime", "-3", "--all-triples")
    assert code == 1
    assert "not a prime: -3" in json.loads(out)["detail"]


def test_bad_subcommand(capsys):
    code, out = run(capsys, "bogus")
    assert code == 1
    assert json.loads(out)["error"] == "validation"


def test_internal_error_exit_code(tmp_path, capsys, monkeypatch):
    path = write(tmp_path, "loop1.json", LOOP1)

    def boom(*args):
        raise RuntimeError("induced failure")

    # the epsilon/phi core, which the place path calls
    monkeypatch.setattr(metgraph, "_epsilon_phi", boom)
    code, out = run(capsys, "graph", "eval", "--in", path)
    assert code == 2
    assert json.loads(out)["error"] == "internal"


@pytest.mark.parametrize("exc", [KeyError, TypeError])
def test_graph_eval_reports_an_internal_key_or_type_error(tmp_path, capsys, monkeypatch, exc):
    # once caught while reading the graph and reported as invalid input
    # (exit 1, "bad graph JSON: ...")
    def boom(text):
        raise exc("induced failure")

    monkeypatch.setattr(metgraph, "parse_rat", boom)
    code, out = run(capsys, "graph", "eval", "--in", write(tmp_path, "loop1.json", LOOP1))
    assert code == 2
    assert json.loads(out)["error"] == "internal"


HELP = Path(__file__).parent / "golden" / "help"


@pytest.mark.parametrize(
    "command", ["", "symroots", "cluster", "graph", "genus2", "invariants", "global", "verify"],
    ids=lambda c: c or "hypinv",
)
def test_help_text_is_pinned(capsys, monkeypatch, command):
    # the text of `hypinv [<cmd>] --help` at 80 columns without colour:
    # build_parser may change how it adds the options, not what help shows
    monkeypatch.setenv("COLUMNS", "80")
    monkeypatch.setenv("NO_COLOR", "1")
    with pytest.raises(SystemExit) as done:
        cli.main([command, "--help"] if command else ["--help"])
    assert done.value.code == 0
    text = capsys.readouterr().out.replace("optional arguments:", "options:")  # Python 3.10
    golden = HELP / (f"hypinv-{command}.txt" if command else "hypinv.txt")
    assert text == golden.read_text()
