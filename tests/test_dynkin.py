"""Tests for the extended-diagram combinatorics."""

import networkx as nx
import numpy as np
import pytest
import sympy

from hkgeom.dynkin import (
    DynkinGraph,
    _adjacency,
    _diagram_edges,
    dynkin_signs,
    extended_diagram,
    gamma_order,
    mckay_dims,
    quiver_dim,
)
from hkgeom.errors import ConfigError

ALL_KINDS = [("A", 1), ("A", 2), ("A", 3), ("A", 5), ("D", 4), ("D", 5), ("D", 7), ("E6", None), ("E7", None), ("E8", None)]


def test_known_marks():
    assert mckay_dims("A", 1) == (1, 1)
    assert mckay_dims("A", 4) == (1, 1, 1, 1, 1)
    assert mckay_dims("D", 4) == (1, 1, 2, 1, 1)
    assert mckay_dims("E6") == (1, 2, 3, 2, 1, 2, 1)
    assert mckay_dims("E7") == (1, 2, 3, 4, 3, 2, 1, 2)
    assert mckay_dims("E8") == (1, 2, 3, 4, 5, 6, 4, 2, 3)


@pytest.mark.parametrize("kind,k", ALL_KINDS)
def test_marks_match_symbolic_nullspace(kind, k):
    num, edges = _diagram_edges(kind, k)
    cartan = sympy.Matrix(2 * np.eye(num, dtype=int) - _adjacency(num, edges))
    null = cartan.nullspace()
    assert len(null) == 1
    vec = null[0] / min(v for v in null[0] if v > 0)
    assert tuple(int(v) for v in vec) == mckay_dims(kind, k)


@pytest.mark.parametrize("kind,k", ALL_KINDS)
def test_sum_of_squares_is_group_order(kind, k):
    marks = mckay_dims(kind, k)
    assert sum(d * d for d in marks) == gamma_order(kind, k)


@pytest.mark.parametrize("kind,k", ALL_KINDS)
def test_signs_match_bipartite_oracle(kind, k):
    graph = extended_diagram(kind, k)
    signs = dynkin_signs(graph)
    oracle = nx.MultiGraph(list(graph.edges))
    if nx.is_bipartite(oracle):
        assert signs is not None
        for i, j in graph.edges:
            assert signs[i] * signs[j] == -1
    else:
        assert signs is None


def test_a_series_signs_exist_iff_odd():
    for k in range(1, 9):
        signs = dynkin_signs(extended_diagram("A", k))
        if k % 2 == 1:
            assert signs is not None
        else:
            assert signs is None


def test_d_and_e_always_signable():
    for kind, k in [("D", 4), ("D", 5), ("D", 8), ("E6", None), ("E7", None), ("E8", None)]:
        assert dynkin_signs(extended_diagram(kind, k)) is not None


def test_quiver_dims():
    # two vertices, double edge, unit marks: 2 * (1 + 1) = 4, i.e. H^2
    assert quiver_dim(extended_diagram("A", 1)) == 4
    assert quiver_dim(extended_diagram("A", 3)) == 8
    assert quiver_dim(extended_diagram("D", 4)) == 16
    assert quiver_dim(extended_diagram("E8")) == 240


def test_diagram_shapes():
    a1 = extended_diagram("A", 1)
    assert a1.num_vertices == 2 and len(a1.edges) == 2
    d4 = extended_diagram("D", 4)
    assert d4.num_vertices == 5 and len(d4.edges) == 4
    e8 = extended_diagram("E8")
    assert e8.num_vertices == 9 and len(e8.edges) == 8
    assert e8.tag == "E8"
    assert extended_diagram("A", 3).tag == "A3"


def test_every_diagram_is_built_once_and_shared():
    # each diagram is built on first use and shared, inside the dynkin suite's range or not
    for kind, k, tag in (("D", 6, "D6"), ("E7", None, "E7"), ("A", 12, "A12"), ("D", 10, "D10")):
        graph = extended_diagram(kind, k)
        assert graph is extended_diagram(kind, k) and graph.tag == tag
        assert mckay_dims(kind, k) is graph.marks
    assert extended_diagram("A", np.int64(12)) is extended_diagram("A", 12)
    assert mckay_dims("A", 12) == (1,) * 13
    assert mckay_dims("D", 10) == (1, 1) + (2,) * 7 + (1, 1)


_BAD_DIAGRAMS = [
    ("A", 0, "A-series needs k >= 1"),
    ("A", None, "A-series needs k >= 1"),
    ("D", 3, "D-series needs k >= 4"),
    ("E6", 6, "E-series diagrams take no index"),
    # a whole float and a bool hash and compare equal to an integer; neither is an index
    ("A", 3.0, "diagram index must be an integer"),
    ("A", True, "diagram index must be an integer"),
    ("D", 4.5, "diagram index must be an integer"),
    ("B", 2, "diagram kind must be one of"),
    ("F4", None, "diagram kind must be one of"),
]


@pytest.mark.parametrize("build", [extended_diagram, mckay_dims, gamma_order])
@pytest.mark.parametrize(
    "kind, k, message", _BAD_DIAGRAMS, ids=[f"{kind}-{k}" for kind, k, _ in _BAD_DIAGRAMS]
)
def test_bad_diagram_raises(build, kind, k, message):
    with pytest.raises(ConfigError, match=message):
        build(kind, k)


def test_validation_errors():
    with pytest.raises(ConfigError):
        DynkinGraph("bad", 3, ((0, 1),), (1, 1, 1))  # disconnected
    with pytest.raises(ConfigError):
        DynkinGraph("bad", 2, ((0, 5),), (1, 1))  # edge out of range
    with pytest.raises(ConfigError):
        DynkinGraph("bad", 2, ((0, 1),), (1, 0))  # non-positive mark


def test_custom_triangle_has_no_signs():
    triangle = DynkinGraph("triangle", 3, ((0, 1), (1, 2), (2, 0)), (1, 1, 1))
    assert dynkin_signs(triangle) is None


def test_single_vertex_has_one_sign():
    assert dynkin_signs(DynkinGraph("point", 1, (), (1,))) == (1,)


def test_even_square_alternates():
    # the 4-cycle 0-1-3-2-0: vertices 1 and 2 are 0's children, 3 is a grandchild
    square = DynkinGraph("square", 4, ((0, 1), (1, 3), (3, 2), (2, 0)), (1, 1, 1, 1))
    assert dynkin_signs(square) == (1, -1, -1, 1)
