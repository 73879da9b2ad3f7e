"""Value semantics of the records, which are ``rational._Record`` classes
and namedtuples rather than dataclasses (``PiecewisePoly`` aside): equal
values are ``==`` and hash alike, or are unhashable where mutable, the
frozen ones refuse assignment with ``AttributeError``, and each ``repr`` is
the one the dataclass gave.  The exact-value boundary: a root,
an edge length, a scale factor, a subdivision point, or a measure's vertex
mass or edge density that is not an ``int`` or a ``Fraction`` is refused,
not coerced."""

import ast
import copy
import importlib
import math
import re
from decimal import Decimal
from fractions import Fraction as F
from pathlib import Path

import pytest

import hypinv
from hypinv import clustertree, invariants, metgraph, symroots
from hypinv.clustertree import ClusterNode, ClusterTree, NormalFormReport
from hypinv.invariants import Genus2Row, NodeCounts, PlaceReport
from hypinv.metgraph import Edge, Measure, MetrizedGraph
from hypinv.rational import INF, _Record
from hypinv.symroots import RootConfig
from test_metgraph import graph_doc

ROOTS = tuple(map(F, (0, 9, 1, 10, 2, 11)))  # in normal form at 3


def _node():
    return ClusterNode(2, frozenset({0, 1}), F(0))


def _place(label="p"):
    return PlaceReport(label, 2, math.log(3), F(6), F(5, 9), F(3), F(1, 9))


#: name -> (make, a different value, its dataclass repr, a field)
VALUES = {
    "RootConfig": (
        lambda: RootConfig(2, ROOTS),
        RootConfig(2, ROOTS[::-1]),
        "RootConfig(genus=2, roots=(Fraction(0, 1), Fraction(9, 1), Fraction(1, 1), "
        "Fraction(10, 1), Fraction(2, 1), Fraction(11, 1)), note='')",
        "roots",
    ),
    "NodeCounts": (
        lambda: NodeCounts(3, 1, (0,), (F(1, 2),)),
        NodeCounts(3, 1, (0,), (F(1, 3),)),
        "NodeCounts(genus=3, xi0=Fraction(1, 1), xi=(Fraction(0, 1),), "
        "delta_i=(Fraction(1, 2),))",
        "xi0",
    ),
    "Genus2Row": (
        lambda: invariants.genus2_row("III", (2,)),
        invariants.genus2_row("III", (3,)),
        "Genus2Row(d_half=Fraction(2, 1), delta=Fraction(2, 1), eps=Fraction(1, 3), "
        "chi=Fraction(1, 6))",
        "chi",
    ),
    "PlaceReport": (
        _place,
        _place("q"),
        "PlaceReport(label='p', genus=2, log_nv=1.0986122886681098, d=Fraction(6, 1), "
        "eps=Fraction(5, 9), delta=Fraction(3, 1), phi=Fraction(1, 9), "
        "chi=Fraction(1, 9))",
        "eps",
    ),
    "NormalFormReport": (
        lambda: clustertree.check_normal_form(RootConfig(2, tuple(map(F, range(6)))), 3),
        clustertree.check_normal_form(RootConfig(2, ROOTS), 3),
        "NormalFormReport(violations=('val(a_0 - a_3) = 1 is odd', "
        "'val(a_1 - a_4) = 1 is odd', 'val(a_2 - a_5) = 1 is odd'))",
        "violations",
    ),
    "ClusterNode": (
        _node, ClusterNode(4, frozenset({0, 1}), F(0)), "ClusterNode(level=2, members={0,1})",
        "level",
    ),
    "Edge": (
        lambda: Edge(0, "a", "b", F(1, 2)),
        Edge(0, "b", "a", F(1, 2)),
        "Edge(eid=0, u='a', v='b', length=Fraction(1, 2))",
        "length",
    ),
    "Measure": (
        lambda: Measure({"a": F(1, 2)}, {0: F(1, 4)}),
        Measure({"a": F(1, 2)}, {0: F(1, 3)}),
        "Measure(vertex_mass={'a': Fraction(1, 2)}, edge_density={0: Fraction(1, 4)})",
        "edge_density",
    ),
}

#: the mutable records, in the form of VALUES
MUTABLE = {
    "ClusterTree": (
        lambda: ClusterTree(None, 3, (), {}, {}, {}, [], []),
        ClusterTree(None, 5, (), {}, {}, {}, [], []),
        "ClusterTree(config=None, prime=3, nodes=(), parent={}, node_of_root={}, "
        "depth={}, vals=[], wv2=[])",
        "prime",
    ),
}


@pytest.mark.parametrize("name", VALUES)
def test_equal_values_are_equal_and_hash_alike(name):
    make, other, _, _ = VALUES[name]
    a, b = make(), make()
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != other
    assert len({a, b, other}) == 2


@pytest.mark.parametrize("name", VALUES)
def test_repr_is_the_dataclass_repr(name):
    make, _, expected, _ = VALUES[name]
    assert repr(make()) == expected


@pytest.mark.parametrize("name", VALUES)
def test_assignment_to_a_frozen_type_raises_attribute_error(name):
    make, _, _, field = VALUES[name]
    obj = make()
    before = getattr(obj, field)
    with pytest.raises(AttributeError):
        setattr(obj, field, 7)
    with pytest.raises(AttributeError):
        delattr(obj, field)
    with pytest.raises(AttributeError):
        obj.no_such_field = 1
    assert getattr(obj, field) == before


@pytest.mark.parametrize("name", MUTABLE)
def test_a_mutable_record_compares_by_value_and_is_unhashable(name):
    make, other, expected, field = MUTABLE[name]
    a, b = make(), make()
    assert a is not b and a == b and a != other
    assert a.__eq__(expected) is NotImplemented
    assert repr(a) == expected
    with pytest.raises(TypeError):
        hash(a)
    setattr(b, field, getattr(other, field))
    assert b == other and a != b


def test_measure_takes_its_fields_by_name():
    mu = Measure(vertex_mass={"a": F(1)}, edge_density={})
    assert mu == Measure({"a": F(1)}, {}) and mu.mass("a") == 1 and mu.density(0) == 0
    assert Measure(edge_density={}, vertex_mass={}) == Measure({}, {})


def test_a_measure_keeps_read_only_copies_of_its_mappings():
    # a graph keeps the kernel of a measure, which must not change under it
    masses, densities = {"a": F(1, 2)}, {0: F(1, 4)}
    mu = Measure(masses, densities)
    masses["a"], densities[1] = F(1), F(1)
    assert mu == Measure({"a": F(1, 2)}, {0: F(1, 4)})
    with pytest.raises(TypeError):
        mu.vertex_mass["a"] = F(1)
    with pytest.raises(TypeError):
        mu.edge_density[0] = F(1)
    with pytest.raises(TypeError):
        del mu.vertex_mass["a"]
    assert mu.vertex_mass == {"a": F(1, 2)} and mu.edge_density == {0: F(1, 4)}
    # by value: an int mass equals its Fraction and hashes alike
    one, same = Measure({"a": 1}, {}), Measure({"a": F(1)}, {})
    assert one == same and hash(one) == hash(same)


@pytest.mark.parametrize(
    "make",
    [
        lambda: Edge(0, "a", "b"),
        lambda: Edge(0, "a", "b", F(1), F(1)),
        lambda: Measure({}),
        lambda: ClusterTree(*range(7)),
        lambda: ClusterTree(*range(9)),
    ],
    ids=["Edge 3", "Edge 5", "Measure 1", "ClusterTree 7", "ClusterTree 9"],
)
def test_a_record_takes_exactly_its_fields(make):
    with pytest.raises(TypeError):
        make()


def test_root_config_compares_genus_and_roots_only():
    a = RootConfig(2, ROOTS, note="one")
    symroots.symroot_val(a, 3, 0, 1, 2)  # fills a's table for 3
    b = RootConfig(2, list(ROOTS), note="two")
    assert a == b and hash(a) == hash(b)
    assert b.roots == ROOTS and type(b.roots) is tuple
    assert a != RootConfig(3, ROOTS + (F(20), F(21)))
    assert a.__eq__(ROOTS) is NotImplemented
    assert not RootConfig(2, (INF,) + ROOTS[1:]).all_finite


def test_validation_runs_in_the_constructors():
    with pytest.raises(ValueError, match="genus must be at least 2"):
        RootConfig(1, ROOTS[:4])
    for genus in (2.0, F(2), "2"):  # once accepted, or a TypeError from inside
        with pytest.raises(ValueError, match="^genus is not an integer"):
            RootConfig(genus, ROOTS)
    with pytest.raises(ValueError, match="expected 6 roots for genus 2, got 5"):
        RootConfig(genus=2, roots=ROOTS[:5])
    with pytest.raises(ValueError, match="counts must be nonnegative"):
        NodeCounts(2, xi0=-1)
    with pytest.raises(ValueError, match="logNv of place 'p' is not a positive float"):
        PlaceReport("p", 2, 0.0, F(0), F(0), F(0), F(0))
    counts = NodeCounts(genus=5, delta_i=(1,))
    assert counts.xi == (F(0), F(0)) and counts.delta_i == (F(1), F(0))


@pytest.mark.parametrize(
    "bad", [0.5, 2.0, True, False, "1", None, complex(1, 0)], ids=repr
)
def test_root_config_refuses_a_root_that_is_not_rational(bad):
    # a float would be computed from its binary value: 0.5 gave
    # symroot_pow 72/35 before it was refused
    with pytest.raises(ValueError, match=r"is not an int, a Fraction or INF"):
        RootConfig(2, (bad,) + ROOTS[1:])


@pytest.mark.parametrize(
    "field,bad,message",
    [
        ("phi", "0.1", "phi is not an int or a Fraction: '0.1'"),
        ("phi", 0.5, "phi is not an int or a Fraction: 0.5"),
        ("log_nv", "1", "logNv of place 'p' is not a positive float: '1'"),
        ("log_nv", True, "logNv of place 'p' is not a positive float: True"),
        ("log_nv", F(1), "logNv of place 'p' is not a positive float: Fraction(1, 1)"),
        ("log_nv", math.inf, "logNv of place 'p' is not a positive float: inf"),
        ("log_nv", math.nan, "logNv of place 'p' is not a positive float: nan"),
        ("log_nv", 10**400, f"logNv of place 'p' is not a positive float: {10**400}"),
        ("log_nv", -1, "logNv of place 'p' is not a positive float: -1"),
    ],
    ids=[
        "phi str", "phi float", "logNv str", "logNv bool", "logNv Fraction",
        "logNv inf", "logNv nan", "logNv huge int", "logNv negative",
    ],
)
def test_place_report_refuses_what_it_cannot_store(field, bad, message):
    # phi was stored unchecked and a string logNv raised TypeError from inside
    fields = dict(label="p", genus=2, log_nv=1.0, d=F(6), eps=F(0), delta=F(3), phi=F(1, 2))
    fields[field] = bad
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        PlaceReport(**fields)


def test_place_report_keeps_exact_values():
    rep = PlaceReport("p", 2, 1, F(6), F(0), F(3), 1)
    assert rep.log_nv == 1 and type(rep.phi) is F and rep.phi == 1


def test_place_report_stores_every_invariant_as_a_fraction():
    # d, eps and delta were stored as given: an int d showed as d=6 in repr
    rep = PlaceReport("p", 2, 1.0, 6, 0, 3, 1)
    values = [rep.d, rep.eps, rep.delta, rep.phi, rep.chi]
    assert [type(x) for x in values] == [F] * 5
    assert values == [6, 0, 3, 1, F(3, 2)]
    assert repr(rep) == repr(PlaceReport("p", 2, 1.0, F(6), F(0), F(3), F(1)))
    assert "d=Fraction(6, 1), eps=Fraction(0, 1), delta=Fraction(3, 1)" in repr(rep)


def test_root_config_accepts_ints_fractions_and_one_inf():
    roots = (0, F(1, 2), 2, F(3), -4, INF)
    assert RootConfig(2, roots).roots == roots


def test_place_report_warnings_are_outside_eq_hash_and_repr():
    warned = PlaceReport(
        "p", 2, math.log(3), F(6), F(5, 9), F(3), F(1, 9), warnings=["w"]
    )
    plain = _place()
    assert warned.warnings == ("w",) and plain.warnings == ()
    assert warned == plain and hash(warned) == hash(plain)
    assert repr(warned) == repr(plain)
    with pytest.raises(AttributeError):
        warned.warnings = ()


#: lengths, scale factors, subdivision points, masses and densities that
#: are not exact rationals: as a length, 0.1 was once read as
#: 3602879701896397/36028797018963968, True as 1 and "1/3" was parsed
NOT_RATIONAL = [0.1, 0.5, 1.0, True, False, "1/3", "1", None, Decimal("0.5"), complex(1, 0)]


@pytest.mark.parametrize("bad", NOT_RATIONAL, ids=repr)
def test_metrized_graph_refuses_a_length_that_is_not_rational(bad):
    with pytest.raises(ValueError, match=r"length of edge \(v, v\) is not an int or a Fraction"):
        MetrizedGraph({"v": 1}, [("v", "v", F(1)), ("v", "v", bad)])


@pytest.mark.parametrize("bad", NOT_RATIONAL, ids=repr)
def test_scale_and_subdivide_refuse_a_value_that_is_not_rational(bad):
    graph = MetrizedGraph({"v": 1}, [("v", "v", F(2))])
    with pytest.raises(ValueError, match="scale factor is not an int or a Fraction"):
        metgraph.scale(graph, bad)
    with pytest.raises(ValueError, match="subdivision point is not an int or a Fraction"):
        metgraph.subdivide(graph, 0, bad)


#: The three calls that build a measure's kernel, on (graph, mu).
KERNEL_CALLS = [
    lambda g, mu: metgraph.green(g, mu, "v", (0, 1)),
    metgraph.green_diagonal,
    metgraph.verify_admissible,
]


@pytest.mark.parametrize("call", KERNEL_CALLS, ids=["green", "green_diagonal", "verify_admissible"])
@pytest.mark.parametrize("bad", NOT_RATIONAL, ids=repr)
def test_the_kernel_refuses_a_mass_or_density_that_is_not_rational(call, bad):
    # a float mass once ended in AttributeError, a string mass in TypeError,
    # and True was read as 1
    graph = MetrizedGraph({"v": 1, "w": 1}, [("v", "w", F(2)), ("w", "w", 1)])
    with pytest.raises(ValueError, match="mass of vertex 'v' is not an int or a Fraction"):
        call(graph, metgraph.Measure({"v": bad, "w": F(1, 2)}, {0: F(1, 4)}))
    with pytest.raises(ValueError, match="density of edge 0 is not an int or a Fraction"):
        call(graph, metgraph.Measure({"v": F(1, 2)}, {0: bad}))


@pytest.mark.parametrize("call", KERNEL_CALLS, ids=["green", "green_diagonal", "verify_admissible"])
@pytest.mark.parametrize("bad", [{"v": 1}, None, ({"v": 1}, {})], ids=["dict", "None", "tuple"])
def test_the_kernel_refuses_a_measure_that_is_not_a_measure(call, bad):
    # a mapping or None once ended in AttributeError on ``edge_density``
    graph = MetrizedGraph({"v": 1, "w": 1}, [("v", "w", F(2)), ("w", "w", 1)])
    with pytest.raises(ValueError, match=f"mu is not a Measure: {type(bad).__name__}$"):
        call(graph, bad)


def test_a_metrized_graph_refuses_mutation_and_compares_by_identity():
    # its kept solve and bridge sides would go stale under any change
    graph = MetrizedGraph({"a": 0, "b": 1}, [("a", "b", 2), ("b", "a", F(1, 3)), ("a", "a", 1)])
    before = graph_doc(graph)
    for name, value in [("edges", ()), ("genus", {}), ("total_genus", 5),
                        ("bridge_sides", {}), ("_res", None), ("color", "red")]:
        with pytest.raises(AttributeError, match=f"cannot assign to field '{name}'"):
            setattr(graph, name, value)
    for name in ("edges", "genus", "_res"):
        with pytest.raises(AttributeError):
            delattr(graph, name)
    with pytest.raises(TypeError):
        graph.genus["a"] = 3
    with pytest.raises(TypeError):
        graph.bridge_sides[0] = 1
    with pytest.raises(AttributeError):
        graph.edges.append(graph.edges[0])
    assert type(graph.edges) is tuple and graph_doc(graph) == before
    twin = MetrizedGraph(graph.genus, [(e.u, e.v, e.length) for e in graph.edges])
    assert graph == graph and graph != twin and len({graph, twin}) == 2


def test_metrized_graph_takes_ints_and_fractions_as_fractions():
    graph = MetrizedGraph({"a": 0, "b": 1}, [("a", "b", 2), ("b", "a", F(1, 3)), ("a", "a", 1)])
    assert [e.length for e in graph.edges] == [F(2), F(1, 3), F(1)]
    assert all(type(e.length) is F for e in graph.edges)
    assert metgraph.scale(graph, 3).edges[1].length == 1
    assert metgraph.subdivide(graph, 0, 1).edges[1].length == 1
    assert metgraph.subdivide(graph, 1, F(1, 6)).edges[1].length == F(1, 6)


def test_copy_then_object_setattr_forges_a_place_report():
    # how a check is shown a faulty result: validation is bypassed on a copy
    rep = _place()
    forged = copy.copy(rep)
    object.__setattr__(forged, "eps", rep.eps + 1)
    assert forged.eps == rep.eps + 1 and rep.eps == F(5, 9)
    assert forged != rep and forged.chi == rep.chi


def test_the_records_are_also_tuples():
    row = invariants.genus2_row("II", (1,))
    assert row == Genus2Row(F(2), F(1), F(1), F(1)) == (F(2), F(1), F(1), F(1))
    assert row.chi == row[3]
    assert clustertree.check_normal_form(RootConfig(2, ROOTS), 3) == ((),)
    assert tuple(_node()) == (2, frozenset({0, 1}), F(0))
    assert NormalFormReport(()).ok


def test_cluster_tree_is_mutable_and_unhashable():
    tree = clustertree.build_tree(RootConfig(2, ROOTS), 3)
    again = clustertree.build_tree(RootConfig(2, ROOTS), 3)
    assert tree == again and tree != tree.nodes
    with pytest.raises(TypeError):
        hash(tree)
    assert repr(tree).startswith("ClusterTree(config=RootConfig(genus=2, ")
    fields = ("config", "prime", "nodes", "parent", "node_of_root", "depth", "vals", "wv2")
    assert list(vars(tree)) == list(fields)
    assert ClusterTree(*(getattr(tree, name) for name in fields)) == tree
    again.prime = 5
    assert tree != again


def _fields_set_outside_the_base(cls, body):
    """The names of ``cls._fields`` that the class body ``body`` sets on
    ``self``: by ``_set``, ``setattr`` or ``object.__setattr__``, or by
    assignment to ``self.<name>``."""
    found = []
    for node in ast.walk(body):
        if isinstance(node, ast.Call) and len(node.args) >= 2:
            func, (obj, name) = node.func, node.args[:2]
            setter = (isinstance(func, ast.Name) and func.id in ("_set", "setattr")) or (
                isinstance(func, ast.Attribute) and func.attr == "__setattr__"
            )
            if setter and isinstance(obj, ast.Name) and obj.id == "self":
                if isinstance(name, ast.Constant) and name.value in cls._fields:
                    found.append(name.value)
        targets = node.targets if isinstance(node, ast.Assign) else [getattr(node, "target", None)]
        for target in targets:
            if (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
                and target.attr in cls._fields
            ):
                found.append(target.attr)
    return found


def test_every_record_sets_its_fields_through_the_base():
    # _Record.__init__ is the one place where a record sets its _fields;
    # a subclass's own __init__ passes them to it
    records = {}
    for path in sorted(Path(hypinv.__file__).parent.glob("*.py")):
        module = importlib.import_module(f"hypinv.{path.stem}")
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            cls = getattr(module, getattr(node, "name", ""), None)
            if isinstance(node, ast.ClassDef) and isinstance(cls, type):
                if issubclass(cls, _Record) and cls is not _Record:
                    records[cls.__qualname__] = _fields_set_outside_the_base(cls, node)
    assert {"NodeCounts", "PlaceReport", "RootConfig", "ClusterTree", "Edge", "Measure"} <= set(records)
    assert records == dict.fromkeys(records, [])
