"""The benchmark's own reference computations on cases checked by hand."""

from fractions import Fraction as F

import pytest

import reference as ref


def test_valuation():
    assert ref.valuation(F(18), 3) == 2
    assert ref.valuation(F(5, 9), 3) == -2
    assert ref.valuation(F(-50), 5) == 2
    assert ref.valuation(F(7, 2), 3) == 0
    with pytest.raises(ValueError):
        ref.valuation(F(0), 3)


def test_cluster_depths():
    # 0 and 9 agree mod 3**2; 1 and 2 share no class with anyone
    assert ref.cluster_depths([F(0), F(1), F(2), F(9)], 3) == {0: 2, 1: 0, 2: 0, 3: 2}
    # nested: 0 ~ 9 ~ 90 mod 9, and 9 ~ 90 mod 81
    assert ref.cluster_depths([F(0), F(9), F(90), F(1)], 3)[2] == 4


def test_vertex_resistances():
    banana = ({"a": 0, "b": 0}, [("a", "b", F(1)), ("a", "b", F(1)), ("a", "a", F(5))])
    assert ref.vertex_resistances(*banana)["a", "b"] == F(1, 2)  # the loop carries no current
    path = ({"a": 0, "b": 0, "c": 0}, [("a", "b", F(1)), ("b", "c", F(2))])
    assert ref.vertex_resistances(*path)["a", "c"] == 3
    triangle = ({"a": 0, "b": 0, "c": 0}, [("a", "b", F(1)), ("b", "c", F(1)), ("c", "a", F(1))])
    table = ref.vertex_resistances(*triangle)
    assert table["a", "b"] == table["c", "a"] == F(2, 3)


def test_point_resistance_baker_faber():
    segment = ({"u": 1, "v": 1}, [("u", "v", F(3))])
    assert ref.point_resistance(*segment, "u", (0, F(1))) == 1
    loop = ({"v": 1}, [("v", "v", F(4))])
    assert ref.point_resistance(*loop, "v", (0, F(1))) == F(3, 4)  # 1 || 3
    # two unit edges: the midpoint of one sees a through 1/2 || 3/2
    banana = ({"a": 0, "b": 0}, [("a", "b", F(1)), ("a", "b", F(1))])
    assert ref.point_resistance(*banana, "a", (0, F(1, 2))) == F(3, 8)
    # antipodal points of a circle of length 2
    assert ref.point_resistance(*banana, (0, F(1, 2)), (1, F(1, 2))) == F(1, 2)
    with pytest.raises(ValueError):
        ref.point_resistance(*banana, (0, F(1, 4)), (0, F(1, 2)))


def test_discriminant_order_and_genus():
    bridge = ({"u": 1, "v": 1}, [("u", "v", F(3))])
    assert ref.total_genus(*bridge) == 2
    assert ref.discriminant_order(*bridge) == 4 * 1 * 1 * 3
    loop = ({"v": 1}, [("v", "v", F(5))])
    assert ref.discriminant_order(*loop) == 2 * 5
    # a bridge to a genus-0 leaf is not a stable-type node
    leaf = ({"v": 2, "w": 0}, [("v", "w", F(1))])
    assert ref.discriminant_order(*leaf) == 0


def test_genus2_table_and_chi():
    d, delta, eps, chi = ref.genus2_row("VII", (1, 1, 1))
    assert (d, delta, eps, chi) == (6, 3, F(5, 9), F(1, 9))
    assert ref.chi(2, d, eps, delta) == chi
    for fiber_type, params in (("II", (2,)), ("IV", (1, 3)), ("VI", (1, 2, 3))):
        d, delta, eps, chi = ref.genus2_row(fiber_type, params)
        genus, edges = ref.genus2_shape(fiber_type, params)
        assert ref.total_genus(genus, edges) == 2
        assert ref.discriminant_order(genus, edges) == d
        assert sum(length for _, _, length in edges) == delta
        assert ref.chi(2, d, eps, delta) == chi
