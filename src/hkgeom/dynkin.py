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
from functools import lru_cache
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
    if k is not None and (isinstance(k, bool) or not isinstance(k, (int, np.integer))):
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
    """The minimal positive integer null vector of the affine Cartan matrix C, in integers.

    With d_0 = 1 the other rows of C d = 0 are the finite diagram's Cartan
    matrix, positive definite, so Gaussian elimination (each row divided
    by its gcd) needs no pivoting; back substitution keeps d over one
    common denominator, and C d = 0 is checked whole.  No float enters.
    """
    cartan = 2 * np.eye(num_vertices, dtype=int) - _adjacency(num_vertices, edges)
    rows = [row[1:] + [-row[0]] for row in cartan[1:].tolist()]
    for col, lead in enumerate(rows):
        if not lead[col]:
            raise StructureError("affine Cartan matrix has corank > 1")
        for r in range(col + 1, len(rows)):
            row = rows[r]
            if row[col]:
                combined = [lead[col] * x - row[col] * y for x, y in zip(row, lead)]
                divisor = gcd(*combined)
                rows[r] = [x // divisor for x in combined]
    scale, tail = 1, []  # d_j = tail[j - i - 1] / scale for the rows j > i solved so far
    for i in reversed(range(len(rows))):
        row = rows[i]
        rest = row[-1] * scale - sum(c * x for c, x in zip(row[i + 1 : -1], tail))
        divisor = gcd(rest, row[i])
        factor = row[i] // divisor
        scale *= factor
        tail = [rest // divisor] + [x * factor for x in tail]
    null = [scale] + tail
    divisor = gcd(*null)
    marks = tuple(d // divisor for d in null)
    if any(m < 1 for m in marks) or np.any(cartan @ marks):
        raise StructureError("failed to extract an integer null vector")
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


def extended_diagram(kind: str, k=None) -> DynkinGraph:
    """The extended A_k/D_k/E6/E7/E8 diagram with its computed marks.

    Each diagram is built on first use and shared (a DynkinGraph is frozen
    and holds tuples).  The arguments are checked before the cache is read,
    since a whole float or a bool hashes and compares equal to an integer.
    """
    _diagram_edges(kind, k)
    return _diagram(kind, k)


@lru_cache(maxsize=None)
def _diagram(kind: str, k) -> DynkinGraph:
    num, edges = _diagram_edges(kind, k)
    tag = kind if kind.startswith("E") else f"{kind}{k}"
    return DynkinGraph(tag, num, edges, _null_marks(num, edges))


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

