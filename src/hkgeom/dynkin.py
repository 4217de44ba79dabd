"""Extended Dynkin diagrams: marks, two-colourings, and quiver dimensions.

The A/D/E diagrams here are the *extended* (affine) ones.  Their vertex
marks are the minimal positive integer null vector of the affine Cartan
matrix; by the McKay correspondence the marks are the dimensions of the
irreducible representations of the associated binary polyhedral group, so
sum d_i^2 recovers the group order.  The sign assignments c_i = +/-1 with
c_i c_j = -1 across every edge exist exactly when the diagram is bipartite
(no odd cycle), which for the A-series cycle means an even vertex count.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from math import gcd

import numpy as np

from .errors import ConfigError, StructureError

KINDS = ("A", "D", "E6", "E7", "E8")


def _diagram_edges(kind: str, k=None):
    """Vertex count and undirected edge multiset of the extended diagram; checks (kind, k)."""
    if kind not in KINDS:
        raise ConfigError(f"diagram kind must be one of {KINDS}")
    if kind.startswith("E") and k is not None:
        raise ConfigError("E-series diagrams take no index")
    if k is not None and not isinstance(k, (int, np.integer)):
        raise ConfigError(f"diagram index must be an integer, got {k!r}")
    if kind == "A":
        if k is None or k < 1:
            raise ConfigError("A-series needs k >= 1")
        if k == 1:
            return 2, ((0, 1), (0, 1))  # two vertices joined by a double edge
        return k + 1, tuple((i, (i + 1) % (k + 1)) for i in range(k + 1))
    if kind == "D":
        if k is None or k < 4:
            raise ConfigError("D-series needs k >= 4")
        edges = [(0, 2), (1, 2)]
        edges += [(i, i + 1) for i in range(2, k - 2)]
        edges += [(k - 2, k - 1), (k - 2, k)]
        return k + 1, tuple(edges)
    if kind == "E6":
        return 7, ((0, 1), (1, 2), (2, 3), (3, 4), (2, 5), (5, 6))
    if kind == "E7":
        return 8, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (3, 7))
    return 9, ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (5, 8))


def gamma_order(kind: str, k=None) -> int:
    """Order of the binary polyhedral group attached to the diagram.

    A closed form in (kind, k): dynkin.mckay.order checks sum d_i^2 over the marks against it.
    """
    _diagram_edges(kind, k)
    if kind == "A":
        return k + 1
    if kind == "D":
        return 4 * k - 8
    return {"E6": 24, "E7": 48, "E8": 120}[kind]


def _adjacency(num_vertices: int, edges) -> np.ndarray:
    adj = np.zeros((num_vertices, num_vertices), dtype=int)
    for i, j in edges:
        adj[i, j] += 1
        adj[j, i] += 1
    return adj


def _null_marks(num_vertices: int, edges) -> tuple:
    """The minimal positive integer null vector of the affine Cartan matrix, by one SVD."""
    cartan = 2 * np.eye(num_vertices) - _adjacency(num_vertices, edges)
    _, s, vt = np.linalg.svd(cartan)
    if s[-2] < 1e-9:
        raise StructureError("affine Cartan matrix has corank > 1")
    null = vt[-1]
    null = null / null[np.argmax(np.abs(null))]
    scaled = null / np.min(null[null > 1e-12])
    marks = np.rint(scaled).astype(int)
    if np.any(marks < 1) or np.any(cartan @ marks != 0):
        raise StructureError("failed to extract an integer null vector")
    divisor = gcd(*(int(m) for m in marks))
    marks = tuple(int(m) // divisor for m in marks)
    return marks


@dataclass(frozen=True)
class DynkinGraph:
    """An extended diagram: tag, undirected edge multiset, vertex marks."""

    tag: str
    num_vertices: int
    edges: tuple
    marks: tuple

    def __post_init__(self):
        if self.num_vertices < 1:
            raise ConfigError("need at least one vertex")
        for i, j in self.edges:
            if not (0 <= i < self.num_vertices and 0 <= j < self.num_vertices):
                raise ConfigError(f"edge ({i},{j}) out of range")
        if len(self.marks) != self.num_vertices:
            raise ConfigError("one mark per vertex required")
        if any(int(d) < 1 for d in self.marks):
            raise ConfigError("marks must be positive integers")
        if len(_bfs_parents(self)) != self.num_vertices:
            raise ConfigError("diagram must be connected")

    @property
    def neighbours(self) -> dict:
        out = {v: [] for v in range(self.num_vertices)}
        for i, j in self.edges:
            out[i].append(j)
            out[j].append(i)
        return out


def _build_diagram(kind: str, k=None) -> DynkinGraph:
    num, edges = _diagram_edges(kind, k)
    tag = kind if kind.startswith("E") else f"{kind}{k}"
    return DynkinGraph(tag, num, edges, _null_marks(num, edges))


def extended_diagram(kind: str, k=None) -> DynkinGraph:
    """The extended A_k/D_k/E6/E7/E8 diagram with its computed marks.

    A1-A9, D4-D8 and E6-E8 are built once, at import, and shared (a
    DynkinGraph is frozen and holds tuples); any other is built per call.
    """
    _diagram_edges(kind, k)  # the checks, also for a diagram built at import
    graph = _DIAGRAMS.get((kind, k))
    return _build_diagram(kind, k) if graph is None else graph


def mckay_dims(kind: str, k=None) -> tuple:
    """Marks d_i: minimal positive integer null vector of the affine Cartan matrix."""
    return extended_diagram(kind, k).marks


def _bfs_parents(graph: DynkinGraph) -> dict:
    """Breadth-first parent of each vertex reachable from 0, in visit order; 0 is its own."""
    parents = {0: 0}
    queue = deque([0])
    neigh = graph.neighbours
    while queue:
        v = queue.popleft()
        for u in neigh[v]:
            if u not in parents:
                parents[u] = v
                queue.append(u)
    return parents


def dynkin_signs(graph: DynkinGraph):
    """A +/-1 assignment with opposite signs across every edge, or None.

    Breadth-first two-colouring: each vertex takes the sign opposite its
    parent's, the parity of its distance from vertex 0.  An edge joining
    equal signs closes an odd cycle, and then None is returned.
    """
    colors = [0] * graph.num_vertices
    for v, parent in _bfs_parents(graph).items():
        colors[v] = 1 if v == 0 else -colors[parent]
    if any(colors[i] == colors[j] for i, j in graph.edges):
        return None
    return tuple(colors)


def quiver_dim(graph: DynkinGraph) -> int:
    """Complex dimension of the quiver space: sum of d_i d_j over directed edges."""
    return 2 * sum(graph.marks[i] * graph.marks[j] for i, j in graph.edges)


_DIAGRAMS = {
    (kind, k): _build_diagram(kind, k)
    for kind, k in (
        *(("A", k) for k in range(1, 10)),
        *(("D", k) for k in range(4, 9)),
        *((label, None) for label in ("E6", "E7", "E8")),
    )
}
