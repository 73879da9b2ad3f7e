"""Cost guards on start-up: ``import hypinv`` loads no layer, access to a
public name loads the home layer and the layers it imports, each CLI
subcommand loads only the layers it runs (``hypinv.verify`` only for
``verify``), and no subcommand loads ``dataclasses`` or ``inspect``: the one
dataclass, ``PiecewisePoly``, loads with the first ``green_diagonal``.

Every case starts a fresh interpreter and compares the sorted ``hypinv.*``
entries of its ``sys.modules`` with the expected list.
"""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import hypinv

SRC = Path(hypinv.__file__).resolve().parents[1]

REPORT = "import json, sys\nprint(json.dumps(sorted(sys.modules)), file=sys.stderr)\n"

CLI = ["hypinv", "hypinv.cli", "hypinv.rational"]


def held(code):
    """Every module held by a fresh interpreter after running ``code``."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(SRC), os.environ.get("PYTHONPATH", "")]))
    run = subprocess.run(
        [sys.executable, "-c", code + REPORT], env=env, capture_output=True, text=True, check=True
    )
    return json.loads(run.stderr.splitlines()[-1])


def loaded(code):
    """The hypinv modules held by a fresh interpreter after running ``code``."""
    return [m for m in held(code) if m.startswith("hypinv")]


def cli_code(argv):
    return f"from hypinv import cli\nassert cli.main({argv!r}) == 0\n"


def cli_loaded(argv):
    return loaded(cli_code(argv))


def test_import_hypinv_loads_no_layer():
    assert loaded("import hypinv\n") == ["hypinv"]


def test_attribute_access_loads_only_the_home_layer():
    assert loaded("import hypinv\nhypinv.chi_nonarch\n") == [
        "hypinv", "hypinv.invariants", "hypinv.rational"
    ]
    assert loaded("import hypinv\nhypinv.metgraph.MetrizedGraph\n") == [
        "hypinv", "hypinv.metgraph", "hypinv.rational"
    ]


@pytest.mark.parametrize(
    "argv",
    [
        ["invariants", "chi", "--d", "6", "--eps", "5/9", "--delta", "3", "--genus", "2"],
        ["global", "--places", "PLACES"],
    ],
)
def test_invariants_and_global_load_no_graph_or_padic_layer(argv, tmp_path):
    places = tmp_path / "places.json"
    places.write_text(json.dumps([{
        "genus": 2, "logNv": 1.0986, "d": "2", "eps": "0", "delta": "1",
        "phi": "1/2", "chi": "1/2",
    }]))
    argv = [str(places) if a == "PLACES" else a for a in argv]
    assert cli_loaded(argv) == sorted(CLI + ["hypinv.invariants"])


@pytest.mark.parametrize("command,layers", [
    ("symroots", ["hypinv.symroots"]),
    ("cluster", ["hypinv.clustertree", "hypinv.symroots"]),
])
def test_padic_commands_load_no_graph_layer(command, layers, tmp_path):
    curve = tmp_path / "curve.json"
    curve.write_text(json.dumps({"genus": 2, "roots": ["0", "1", "2", "3", "4", "inf"]}))
    argv = [command, "--curve", str(curve), "--prime", "7", "--all-triples"]
    assert cli_loaded(argv) == sorted(CLI + layers)


def test_identities_suite_loads_only_symroots():
    argv = ["verify", "--suite", "identities", "--seed", "7"]
    assert cli_loaded(argv) == sorted(CLI + ["hypinv.symroots", "hypinv.verify"])


def assert_no_dataclasses(argv, tmp_path):
    """Run the CLI on ``argv`` in a fresh interpreter, its file arguments
    written to ``tmp_path``, and assert it loads neither ``dataclasses`` nor
    the ``inspect`` module that ``dataclasses`` imports, together over 10 ms
    of a child's start-up."""
    bare = held("")
    if "dataclasses" in bare or "inspect" in bare:
        pytest.skip("a bare interpreter already holds dataclasses or inspect")
    files = {
        "PLACES": tmp_path / "places.json",
        "CURVE": tmp_path / "curve.json",
        "GRAPH": tmp_path / "graph.json",
    }
    files["PLACES"].write_text(json.dumps([{
        "genus": 2, "logNv": 1.0986, "d": "2", "eps": "0", "delta": "1",
        "phi": "1/2", "chi": "1/2",
    }]))
    # in normal form at 3, so that cluster builds its tree
    files["CURVE"].write_text(json.dumps({"genus": 2, "roots": ["0", "9", "1", "10", "2", "11"]}))
    files["GRAPH"].write_text(json.dumps({
        "vertices": [{"id": "a", "genus": 0}, {"id": "b", "genus": 1}],
        "edges": [{"u": "a", "v": "b", "length": "1/2"}, {"u": "a", "v": "b", "length": "2"},
                  {"u": "a", "v": "a", "length": "3"}],
    }))
    argv = [str(files[a]) if a in files else a for a in argv]
    modules = held(cli_code(argv))
    assert "dataclasses" not in modules
    assert "inspect" not in modules


def command_id(argv):
    return " ".join(argv[:1] + argv[1:3] * (argv[0] == "verify"))


@pytest.mark.parametrize("argv", [
    ["invariants", "chi", "--d", "6", "--eps", "5/9", "--delta", "3", "--genus", "2"],
    ["global", "--places", "PLACES"],
    ["symroots", "--curve", "CURVE", "--prime", "3", "--all-triples"],
    ["cluster", "--curve", "CURVE", "--prime", "3", "--all-triples"],
    ["verify", "--suite", "identities", "--seed", "7"],
    ["verify", "--suite", "cluster-vs-symroots", "--seed", "7"],
], ids=command_id)
def test_padic_and_scalar_commands_load_no_dataclasses(argv, tmp_path):
    assert_no_dataclasses(argv, tmp_path)


@pytest.mark.parametrize("argv", [
    ["graph", "eval", "--in", "GRAPH"],
    ["genus2", "--type", "VII", "--params", "1,2,3", "--graph-check"],
    ["verify", "--suite", "genus2-table", "--seed", "7"],
    ["verify", "--suite", "phi-equals-chi", "--seed", "7"],
    ["verify", "--suite", "subdivision", "--seed", "7"],
], ids=command_id)
def test_graph_commands_load_no_dataclasses(argv, tmp_path):
    # green_diagonal imports PiecewisePoly from _piecewise; no command calls it
    assert_no_dataclasses(argv, tmp_path)


def test_only_the_package_loads_names_on_attribute_access():
    # one lazy-load idiom in the layers: an import in the body that needs it
    for path in sorted((SRC / "hypinv").glob("*.py")):
        if path.name != "__init__.py":
            assert not hasattr(importlib.import_module(f"hypinv.{path.stem}"), "__getattr__")


def test_piecewise_poly_loads_with_green_diagonal_only():
    code = "from hypinv import metgraph\nimport sys\nassert 'dataclasses' not in sys.modules\n"
    assert loaded(code) == ["hypinv", "hypinv.metgraph", "hypinv.rational"]
    code += ("g = metgraph.MetrizedGraph({'v': 1}, [('v', 'v', 1)])\n"
             "metgraph.green_diagonal(g, metgraph.admissible_measure(g))\n")
    assert loaded(code) == ["hypinv", "hypinv._piecewise", "hypinv.metgraph", "hypinv.rational"]
    assert "dataclasses" in held(code)


def test_star_import_binds_every_public_name():
    namespace = {}
    exec("from hypinv import *", namespace)
    assert set(hypinv.__all__) <= set(namespace)
    assert set(hypinv.__all__) <= set(dir(hypinv))
    for name in hypinv.__all__:
        assert namespace[name] is getattr(hypinv, name)


def test_public_names_are_read_from_their_home_module(monkeypatch):
    assert sorted(hypinv._HOME) == sorted(hypinv.__all__)
    for name in hypinv.__all__:
        home = importlib.import_module(f"hypinv.{hypinv._HOME[name]}")
        obj = getattr(hypinv, name)
        assert obj is getattr(home, name)
        # functions and classes are defined where the table says they live
        assert getattr(obj, "__module__", home.__name__) == home.__name__
    sentinel = object()
    monkeypatch.setattr(importlib.import_module("hypinv.metgraph"), "epsilon_phi", sentinel)
    assert hypinv.epsilon_phi is sentinel


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError):
        hypinv.no_such_name


#: what a layer may load besides ``hypinv`` and ``__future__``: the modules
#: these standard imports load
STDLIB = "import argparse, collections, fractions, itertools, json, math, operator, random, sys, types\n"


@pytest.fixture(scope="module")
def standard_modules():
    return set(held(STDLIB)) | {"__future__"}


@pytest.mark.parametrize(
    "layer", ["rational", "invariants", "metgraph", "symroots", "clustertree", "verify", "cli"]
)
def test_each_layer_loads_no_module_beyond_its_standard_imports(layer, standard_modules):
    # an added import of a module outside that set costs every child that
    # loads the layer its import time
    extra = set(held(f"import hypinv.{layer}\n")) - standard_modules
    assert sorted(m for m in extra if m.split(".")[0] != "hypinv") == []
