"""Finite-difference exterior calculus, the Hodge star and the type-(1,1) residual.

Differential forms are carried by their components on the canonical
ordered multi-index basis (dx0^dx1, dx0^dx2, ... in lexicographic
order), so antisymmetry is structural.  Derivatives (d, d^c, Laplacian)
are central finite differences on user-supplied evaluation callbacks;
there is no symbolic layer.

Every callable a stencil evaluates has one contract: it takes an
``(m, dim)`` batch of points and returns one row per point, ``(m,)``
values, ``(m, nb)`` form components or ``(m, N)`` points, each row equal
to that point evaluated alone.  That covers ``ScalarField.fn``,
``FormField.fn`` and the callables given to ``fd_gradient`` and
``fd_jacobian``.  Every derivative (``fd_gradient``, ``fd_jacobian``,
``d``, ``d^c``, ``dd^c``, the Laplacian) comes from one central-difference
stencil whose points go to the callable in one call.

The operators take base points the same way, and only that way.
``fd_gradient``, ``fd_jacobian``, ``ext_deriv``, ``dc_deriv``, ``ddc``,
``laplacian`` and the field calls take a batch ``(k, dim)`` and give
``(k, dim)`` gradients, ``(k, N, dim)`` Jacobians, ``(k, nb)`` form
components or ``(k,)`` values, each row equal to that point alone in a
batch of one; any other shape is a :class:`ConfigError` naming
``(k, dim)``.  A field's clearance, a point-dependent complex structure,
``type11_residual`` and ``hodge_star`` follow the same rule: a clearance
maps ``(m, dim)`` points to ``(m,)`` distances, a structure to ``(m,
dim, dim)`` matrices, and ``type11_residual`` and ``hodge_star`` take the
``(k, nb)`` components of k forms, with one matrix or one per form.
Component arrays, and for a 2-form its antisymmetric matrix M with
w(X, Y) = X^T M Y, are the package's only representation of a form.

No field call returns more than ``MAX_STENCIL_VALUES`` (4096) values: an
operator splits its base points into chunks of as many points as fit,
and at least one.  A scalar field gives one value per stencil row and a
form field ``nb``.  A first-derivative stencil has ``4 dim`` rows, so 85
points of R^12 fit in one gradient call.  A nested ``dd^c`` stencil of
order 4 has ``(4 dim)^2`` points per base point, and each of its
``16 dim (dim + 1) / 2`` distinct points is evaluated once: 1,248 rows
at dim = 12 (three base points to a chunk), 1,680 at dim = 14 (two).
Order 2 has ``4 dim (dim + 1) / 2``: 312 rows at dim = 12 (13).  A
form field's components count because it may build far more than its
output per row: the twistor F_Z field forms a complex 14 x 14 matrix for
each of its 91 components' rows at dim = 14.

Conventions fixed here and used everywhere else in the package:

* ``d^c f = -df o I`` for an (almost) complex structure I, which gives
  ``dd^c f = 2i ddbar f`` in holomorphic coordinates.
* The Hodge star is defined by ``a ^ *b = <a, b>_g vol_g`` with the
  volume form of the given orientation; on oriented 4-space the
  standard coordinate order makes dx0^dx1 + dx2^dx3 self-dual.
"""

from __future__ import annotations

import ctypes
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError, MetricError, StructureError

__all__ = [
    "basis_indices",
    "FDScheme",
    "ScalarField",
    "FormField",
    "fd_gradient",
    "fd_jacobian",
    "MAX_STENCIL_VALUES",
    "ext_deriv",
    "dc_deriv",
    "ddc",
    "laplacian",
    "hodge_star",
    "type11_residual",
]


@lru_cache(maxsize=None)
def basis_indices(dim: int, degree: int) -> tuple[tuple[int, ...], ...]:
    """Sorted multi-indices labelling the degree-k form basis on R^dim."""
    if degree < 0 or degree > dim:
        return ()
    return tuple(itertools.combinations(range(dim), degree))


@lru_cache(maxsize=None)
def _basis_position(dim: int, degree: int) -> dict:
    return {idx: pos for pos, idx in enumerate(basis_indices(dim, degree))}


@lru_cache(maxsize=None)
def _pair_indices(dim: int) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices (i, j), i < j, of the degree-2 basis, in its order."""
    return np.triu_indices(dim, 1)


def _as_matrices(comps: np.ndarray, dim: int) -> np.ndarray:
    """Antisymmetric matrices (..., dim, dim) of degree-2 components (..., nb)."""
    M = np.zeros(comps.shape[:-1] + (dim, dim), dtype=comps.dtype)
    rows, cols = _pair_indices(dim)
    M[..., rows, cols] = comps
    M[..., cols, rows] = -comps
    return M


# -- field handles -------------------------------------------------------------


@dataclass(frozen=True)
class FDScheme:
    """Central finite-difference scheme: step h, order 2 or 4."""

    h: float
    order: int

    def __post_init__(self):
        if not 0 < self.h < np.inf:
            raise ConfigError(f"FD step h must be finite and positive, got {self.h!r}")
        if self.order not in (2, 4):
            raise ConfigError(f"FD order must be 2 or 4, got {self.order!r}")

    @property
    def radius(self) -> float:
        """Largest coordinate displacement used by the stencil."""
        return (2.0 if self.order == 4 else 1.0) * self.h


def _points(p, dim: int | None = None) -> np.ndarray:
    """p as a float batch of points (k, dim); any other shape is a ConfigError."""
    P = np.asarray(p, dtype=float)
    if P.ndim != 2 or (dim is not None and P.shape[1] != dim):
        raise ConfigError(
            f"points must have shape (k, {'dim' if dim is None else dim}), got shape {P.shape}"
        )
    if len(P) == 0:
        raise ConfigError(f"a batch needs at least one point, got shape {P.shape}")
    return P


@dataclass(frozen=True)
class ScalarField:
    """A scalar-valued field: batch callback plus optional domain clearance.

    ``fn`` maps an ``(m, dim)`` batch to its ``(m,)`` values, and the
    field called on a batch returns them.  ``clearance`` maps the same
    batch to each point's distance ``(m,)`` from the field's singular
    set; None means the field is globally smooth.
    """

    fn: Callable
    dim: int
    clearance: Callable | None = None

    def __call__(self, p):
        return self.fn(_points(p, self.dim))


@dataclass(frozen=True)
class FormField:
    """A degree-k form field with declared degree/dimension and clearance.

    ``fn`` maps an ``(m, dim)`` batch to the ``(m, nb)`` components of
    the form at each row, on the basis ``basis_indices(dim, degree)``,
    and the field called on a batch returns them.  ``clearance`` is as
    for :class:`ScalarField`.
    """

    fn: Callable
    degree: int
    dim: int
    clearance: Callable | None = None

    def __call__(self, p):
        P = _points(p, self.dim)
        comps = np.asarray(self.fn(P))
        shape = (len(P), len(basis_indices(self.dim, self.degree)))
        if comps.shape != shape:
            raise ValueError(f"form field returned shape {comps.shape}, expected {shape}")
        return comps


def _require_margin(field, points: np.ndarray, scheme: FDScheme):
    """Reject stencils closer than 10h to the field's singular set, around every row."""
    if field.clearance is None:
        return
    clear = np.asarray(field.clearance(points))
    if clear.shape != (len(points),):
        raise ValueError(
            f"clearance callable returned shape {clear.shape}, expected {(len(points),)}"
        )
    bad = np.flatnonzero(clear < 10.0 * scheme.h)
    if len(bad):
        raise DomainError(
            f"point at clearance {clear[bad[0]]:.3e} violates the 10h margin "
            f"(h = {scheme.h:.3e})"
        )


# -- finite differences ---------------------------------------------------------


#: stencil offsets, in units of the step, in the order they are evaluated
_OFFSETS = {2: (1.0, -1.0), 4: (2.0, 1.0, -1.0, -2.0)}

#: the most values one field call returns (a stencil row of a scalar field
#: is one value, of a form field nb): the operators split their base points
#: into consecutive chunks under this bound, and never less than one point
MAX_STENCIL_VALUES = 4096
#: freed heap that glibc keeps instead of returning it (M_TOP_PAD, option -2).
#: Each chunk frees a few hundred kB of temporaries at the top of the heap,
#: and under the default trim threshold every chunk would hand them back and
#: fault them in again: without the pad twistor.hermitian.curvature takes
#: 160-320 minor faults (850-1,270 at n = 3; the count moves with the heap
#: layout) over three warm runs in a fresh process, 0 with it.  The stencil
#: values, not the structure matrices, are most of what is freed: the whole
#: batch in one chunk takes 530-670 faults at the default n = 2.
_HEAP_TOP_PAD = 16 << 20
try:
    ctypes.CDLL(None).mallopt(-2, _HEAP_TOP_PAD)
except (AttributeError, OSError, TypeError):  # another C library: nothing to keep
    pass


def _fd_reduce(vals, order: int, h):
    """Derivatives from stencil values laid out as [offset][...].

    ``vals[o]`` is the value at offset ``_OFFSETS[order][o]`` times the
    step h; entries may be scalars or arrays, and h a float or an array
    of steps that broadcasts against them.  These are the package's only
    first-derivative weights.
    """
    if order == 2:
        return (vals[0] - vals[1]) / (2.0 * h)
    return (-vals[0] + 8.0 * vals[1] - 8.0 * vals[2] + vals[3]) / (12.0 * h)


def _stencil_points(P: np.ndarray, scheme: FDScheme) -> np.ndarray:
    """Central-difference stencil points around each row of a (k, N) array P.

    Returns the rows of an (O, k, N, N) array, flattened to (O k N, N):
    point [o, r, i] is P[r] with coordinate i moved by
    ``_OFFSETS[order][o] * h``.
    """
    steps = np.array(_OFFSETS[scheme.order]) * scheme.h
    pts = P[None, :, None, :] + steps[:, None, None, None] * np.eye(P.shape[1])
    return pts.reshape(-1, P.shape[1])


def _stencil_rows(scheme: FDScheme, dim: int) -> int:
    """Number of points in the first-derivative stencil of one point of R^dim."""
    return len(_OFFSETS[scheme.order]) * dim


def _stencil_derivatives(vals, k: int, scheme: FDScheme) -> np.ndarray:
    """D[r, i] = d_i at row r of P, from values at ``_stencil_points(P, scheme)``.

    ``vals`` holds one value (scalar or array) per stencil point, in the
    order of the points; P has k rows.
    """
    vals = np.asarray(vals)
    vals = vals.reshape((len(_OFFSETS[scheme.order]), k, -1) + vals.shape[1:])
    return _fd_reduce(vals, scheme.order, scheme.h)


def _derivatives(fn: Callable, P: np.ndarray, scheme: FDScheme) -> np.ndarray:
    """D[r, i] = d_i fn at row r of P; fn gets every stencil point in one batch.

    fn maps an (m, dim) batch to (m,) values or (m, ...) arrays.
    """
    return _stencil_derivatives(fn(_stencil_points(P, scheme)), P.shape[0], scheme)


def _chunks(count: int, values_per_point: int) -> list:
    """Slices of consecutive chunks of count base points.

    Each chunk holds as many base points as keep their stencil values (at
    ``values_per_point`` each) within MAX_STENCIL_VALUES, and at least one.
    """
    size = max(1, MAX_STENCIL_VALUES // values_per_point)
    return [slice(i, i + size) for i in range(0, count, size)]


def _chunked(P: np.ndarray, values_per_point: int, op: Callable) -> np.ndarray:
    """op over the ``_chunks`` of the rows of P, concatenated."""
    return np.concatenate([op(P[rows]) for rows in _chunks(len(P), values_per_point)])


def fd_gradient(fn: Callable, p, scheme: FDScheme) -> np.ndarray:
    """Gradients (k, dim) at base points p (k, dim) of a batch scalar callback (m, dim) -> (m,)."""
    P = _points(p)
    return _chunked(P, _stencil_rows(scheme, P.shape[1]), lambda C: _derivatives(fn, C, scheme))


def fd_jacobian(fn: Callable, p, scheme: FDScheme) -> np.ndarray:
    """Jacobians (k, N, dim) at base points p (k, dim) of a batch callback (m, dim) -> (m, N).

    Column j of each Jacobian is the x_j partial.  The result is
    C-ordered, not a transposed view: BLAS rounds products with a
    transposed operand differently, by a few ulps.  The width N, which
    sizes the chunks, comes from fn at the first base point.
    """
    P = _points(p)
    values = _stencil_rows(scheme, P.shape[1]) * np.shape(fn(P[:1]))[1]
    D = _chunked(P, values, lambda C: _derivatives(fn, C, scheme))
    return np.ascontiguousarray(np.swapaxes(D, 1, 2))


# -- exterior calculus -----------------------------------------------------------


@lru_cache(maxsize=None)
def _ext_deriv_table(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coords, rests, signs) with (dw)_J = sum_m signs[m] d_{coords[J, m]} w_{rests[J, m]}.

    For the J-th basis multi-index of degree ``degree + 1``, coords[J, m]
    is its m-th index j_m and rests[J, m] the basis position of J without
    j_m; signs[m] = (-1)^m.  The positions come in closed form, from one
    array expression over every (J, m): the degree-k basis lists the sorted
    k-indices (c_0, ..., c_{k-1}) in lexicographic order, and reflecting
    every index, c -> dim - 1 - c, turns that order around into the
    colexicographic order of the reflected sets, whose rank is a sum of
    binomials.  So the position is C(dim, k) - 1 - sum_p C(dim - 1 - c_p,
    k - p).  The arrays are read-only: the cache shares them with every
    caller.
    """
    top = basis_indices(dim, degree + 1)
    coords = np.array(top, dtype=int).reshape(len(top), degree + 1)
    # drop[m] lists the places of J that remain once its m-th index is removed
    places = np.arange(degree)
    drop = places + (places >= np.arange(degree + 1)[:, None])
    binom = np.array(
        [[math.comb(a, b) for b in range(degree + 1)] for a in range(dim)], dtype=int
    ).reshape(dim, degree + 1)
    colex = binom[dim - 1 - coords[:, drop], degree - places].sum(axis=2)
    rests = len(basis_indices(dim, degree)) - 1 - colex
    table = (coords, rests, (-1.0) ** np.arange(degree + 1))
    for column in table:
        column.flags.writeable = False
    return table


def _ext_deriv_sum(D: np.ndarray, dim: int, degree: int) -> np.ndarray:
    """Components (k, nb) of dw from the derivatives D[r, i, I] = d_i w_I of a degree-k form.

    (dw)_J = sum_m (-1)^m d_{j_m} w_{J minus j_m}, summed in order of m;
    the package's one definition of the exterior derivative, for
    ``ext_deriv`` and for any stencil a caller lays out itself.
    """
    coords, rests, signs = _ext_deriv_table(dim, degree)
    return sum(signs[m] * D[:, coords[:, m], rests[:, m]] for m in range(len(signs)))


def ext_deriv(field: FormField, p, scheme: FDScheme) -> np.ndarray:
    """Exterior derivative of a degree-k form field at base points p (k, dim).

    Returns the (k, nb) components of the degree k+1 forms, from
    ``_ext_deriv_sum``.
    """
    P = _points(p, field.dim)

    def chunk(C):
        _require_margin(field, C, scheme)
        return _ext_deriv_sum(_derivatives(field, C, scheme), field.dim, field.degree)

    nb = len(basis_indices(field.dim, field.degree))
    return _chunked(P, _stencil_rows(scheme, field.dim) * nb, chunk)


#: how far I^2 may deviate from -Id before d^c refuses it
_STRUCTURE_TOL = 1e-8


def _structures(I, points: np.ndarray, tol: float, where: str) -> np.ndarray:
    """The structure at every row of points (m, N): (m, N, N), or I itself if constant.

    A callable I takes the whole (m, N) batch and returns (m, N, N); a
    constant I of another shape than (N, N) is a ConfigError.  Every
    matrix must square to -Id to within tol.
    """
    N = points.shape[1]
    if callable(I):
        S = np.asarray(I(points))
        if S.shape != (len(points), N, N):
            raise ValueError(
                f"structure callable returned shape {S.shape}, expected {(len(points), N, N)}"
            )
    else:
        S = np.asarray(I)
        if S.shape != (N, N):
            raise ConfigError(f"a constant structure must have shape {(N, N)}, got {S.shape}")
    dev = np.max(np.abs(S @ S + np.eye(N)))
    if dev > tol:
        raise StructureError(f"I^2 + Id deviates by {dev:.3e} {where}")
    return S


def _dc_contract(S: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """Rows -S^T grad of d^c: S is one matrix or one per row of grads (m, N).

    A stacked matrix-vector product, which rounds each row as ``-S.T @ grad``
    alone does; an einsum or a matrix-matrix product does not.
    """
    return -(np.swapaxes(S, -1, -2) @ grads[..., None])[..., 0]


def dc_deriv(f: ScalarField, I, p, scheme: FDScheme) -> np.ndarray:
    """The 1-form d^c f = -df o I at base points p (k, dim), as components (k, dim).

    I may be a constant matrix or a callback taking (m, dim) points to
    (m, dim, dim) matrices; it must square to -Id at every base point to
    within _STRUCTURE_TOL.  The gradient stencils go to f in one batch.
    """
    P = _points(p, f.dim)

    def chunk(C):
        _require_margin(f, C, scheme)
        S = _structures(I, C, _STRUCTURE_TOL, "at the base point")
        return _dc_contract(S, _derivatives(f, C, scheme))

    return _chunked(P, _stencil_rows(scheme, f.dim), chunk)


@lru_cache(maxsize=None)
def _nested_table(scheme: FDScheme, dim: int) -> tuple[np.ndarray, ...]:
    """(cols_a, steps_a, cols_b, steps_b, back): the distinct points of a nested stencil.

    Nested point [o2, o1, i, j] (``_stencil_points`` applied to its own
    output) moves coordinate i of the base point by the step s of o1 and
    then j by the step t of o2.  For i != j its key is (lower coordinate,
    its step, higher coordinate, its step): every point that moves the
    same two coordinates by the same steps has its bits.  For i = j the
    key is (i, s, i, t), as (x + s) + t and (x + t) + s may round apart.
    Distinct point u moves coordinate cols_a[u] by steps_a[u] and then
    cols_b[u] by steps_b[u]; nested point m, in C order, is distinct
    point back[m].

    The keys that occur are every (a, s, b, t) with a <= b, and no two of
    them are equal, since the O steps of the order are distinct.  So the
    distinct points are the entries of the (dim, O, dim, O) grid of (a,
    rank of s, b, rank of t) with a <= b, the steps ranked ascending, in C
    order: the lexicographic order of their keys, as a sort would give it.
    back follows with no search: the running count of kept grid entries,
    read at each nested point's key.  The arrays are read-only: the cache
    shares them with every caller.
    """
    steps = np.array(_OFFSETS[scheme.order]) * scheme.h
    O = len(steps)
    ascending = steps[::-1]  # _OFFSETS lists each order's steps from the largest down
    cols_a, ranks_a, cols_b, ranks_b = np.indices((dim, O, dim, O)).reshape(4, -1)
    kept = cols_a <= cols_b
    position = np.cumsum(kept) - 1
    o2, o1, i, j = np.indices((O, O, dim, dim)).reshape(4, -1)
    lower_first = i <= j
    rank_a = O - 1 - np.where(lower_first, o1, o2)
    rank_b = O - 1 - np.where(lower_first, o2, o1)
    back = position[((np.minimum(i, j) * O + rank_a) * dim + np.maximum(i, j)) * O + rank_b]
    table = (
        cols_a[kept],
        ascending[ranks_a[kept]],
        cols_b[kept],
        ascending[ranks_b[kept]],
        back,
    )
    for column in table:
        column.flags.writeable = False
    return table


def ddc(f: ScalarField, I, p, scheme: FDScheme) -> np.ndarray:
    """dd^c f at base points p (k, dim), as components (k, nb), by nested central differences.

    The stencil differentiates the 1-form d^c f = -df o I, whose value at
    each outer point q is -I(q)^T times the gradient of f from the same
    stencil around q.  The distinct inner points of a chunk of base points
    go to f in one batch, each once (see ``_nested_table``), and all its
    outer points to I.  A coordinate that neither step moves keeps its
    bits, where the plain nested sum adds 0.0 to it and may flip the sign
    of a zero.  I may be a constant matrix or a callback taking (m, dim)
    points to (m, dim, dim) matrices; it must square to -Id at every
    outer point.  The 10h clearance margin holds at every base and outer point.
    """
    P = _points(p, f.dim)
    N = f.dim
    a, b = _pair_indices(N)
    cols_a, steps_a, cols_b, steps_b, back = _nested_table(scheme, N)
    rows = np.arange(len(cols_a))

    def chunk(C):
        Q = _stencil_points(C, scheme)
        _require_margin(f, np.vstack([C, Q]), scheme)
        S = _structures(I, Q, _STRUCTURE_TOL, "at an outer stencil point")
        pts = np.repeat(C[:, None, :], len(rows), axis=1)
        pts[:, rows, cols_a] += steps_a
        pts[:, rows, cols_b] += steps_b
        vals = np.asarray(f(pts.reshape(-1, N))).reshape(len(C), -1)[:, back]
        # [r, o2, o1, i, j] -> [o2, o1, r, i, j], the order of the nested stencil points
        vals = np.swapaxes(vals.reshape(len(C), -1, N * N), 0, 1).reshape(-1)
        dc = _dc_contract(S, _stencil_derivatives(vals, len(Q), scheme))
        D = _stencil_derivatives(dc, len(C), scheme)  # D[r, i, j] = d_i (d^c f)_j at row r
        return D[:, a, b] - D[:, b, a]

    return _chunked(P, len(rows), chunk)


def laplacian(f: ScalarField, p, scheme: FDScheme) -> np.ndarray:
    """Flat Laplacian sum_i d^2 f / dx_i^2 at base points p (k, dim), (k,).

    Central second differences; the base points and their stencils go to
    f in one batch.
    """
    P = _points(p, f.dim)
    N, h = f.dim, scheme.h

    def chunk(C):
        _require_margin(f, C, scheme)
        vals = f(np.vstack([C, _stencil_points(C, scheme)]))
        f0, side = vals[: len(C), None], vals[len(C) :].reshape(-1, len(C), N)
        if scheme.order == 2:
            terms = (side[0] - 2.0 * f0 + side[1]) / h**2
        else:
            terms = (-side[0] + 16.0 * side[1] - 30.0 * f0 + 16.0 * side[2] - side[3]) / (
                12.0 * h**2
            )
        # a running sum in coordinate order; np.sum may pair terms
        return np.cumsum(terms, axis=1)[:, -1]

    return _chunked(P, 1 + _stencil_rows(scheme, N), chunk)


# -- metric operations -------------------------------------------------------------


@lru_cache(maxsize=None)
def _star_table(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray]:
    """(targets, signs): the star sends basis element I to signs[I] dx^J, J at targets[I].

    J is the sorted complement of I, and signs[I] the sign of the
    permutation (I, J) of (0, ..., dim - 1), (-1) to the number of pairs
    i in I, j in J with i > j.
    """
    pos_out = _basis_position(dim, dim - degree)
    targets, signs = [], []
    for I in basis_indices(dim, degree):
        J = tuple(j for j in range(dim) if j not in I)
        targets.append(pos_out[J])
        signs.append((-1) ** sum(i > j for i in I for j in J))
    return np.array(targets, dtype=int), np.array(signs, dtype=int)


def _raise_indices(Ginv: np.ndarray, F: np.ndarray, degree: int) -> np.ndarray:
    """Contravariant components w^I = det(Ginv[I, I']) w_{I'} of the rows of F (k, nb).

    Ginv is one inverse metric (N, N) or one per row (k, N, N).  The
    degree-th compound matrix of Ginv, every (I, I') minor of it, comes
    from one stacked determinant.  It is made contiguous: the determinant
    returns a strided array, and BLAS rounds a product with it differently.
    """
    if degree == 0:
        return F.copy()
    compound = Ginv
    if degree > 1:
        idx = np.array(basis_indices(Ginv.shape[-1], degree), dtype=int)
        minors = Ginv[..., idx[:, None, :, None], idx[None, :, None, :]]
        compound = np.ascontiguousarray(np.linalg.det(minors))
    return (compound @ F[:, :, None])[:, :, 0]


def _check_metric(g) -> np.ndarray:
    """g as float metrics, (N, N) or (k, N, N), each symmetric to 1e-12 and positive definite.

    The symmetry bound is absolute (rtol 0); eigvalsh reads one triangle
    only, so it could not see an asymmetric metric.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim not in (2, 3) or g.shape[-1] != g.shape[-2]:
        raise ConfigError(f"metrics must have shape (N, N) or (k, N, N), got shape {g.shape}")
    if not np.allclose(g, np.swapaxes(g, -1, -2), rtol=0.0, atol=1e-12):
        raise MetricError("metric matrix is not symmetric")
    least = np.min(np.linalg.eigvalsh(g), initial=np.inf)
    if least <= 0:
        raise MetricError(f"metric not positive definite (min eigenvalue {least:.3e})")
    return g


def hodge_star(g, orientation: int, comps, degree: int) -> np.ndarray:
    """Metric Hodge duals of k forms, defined by a ^ *b = <a,b>_g vol_g.

    comps holds the (k, nb) components of k degree-``degree`` forms on
    ``basis_indices(N, degree)``; the result holds the (k, nb') components
    of their duals, of degree N - degree.  g is one metric (N, N) or one
    per form (k, N, N), validated once for the batch.  orientation (+1/-1)
    fixes whether the coordinate order gives the positive volume form.
    Each row equals that form and its metric alone in a batch of one.
    """
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    g = _check_metric(g)
    N = g.shape[-1]
    nb = len(basis_indices(N, degree))
    F = np.asarray(comps)
    if not 0 <= degree <= N or F.ndim != 2 or F.shape[1] != nb:
        raise ConfigError(
            f"degree-{degree} forms on R^{N} must have shape (k, nb) = (k, {nb}), "
            f"got shape {F.shape}"
        )
    if g.ndim == 3 and len(g) != len(F):
        raise ConfigError(f"{len(F)} forms need {len(F)} metrics, got {len(g)}")
    F = np.ascontiguousarray(F, dtype=np.result_type(F, float))
    raised = _raise_indices(np.linalg.inv(g), F, degree)
    sqrtdet = np.sqrt(np.linalg.det(g))[..., None]
    targets, signs = _star_table(N, degree)
    out = np.empty_like(raised)
    out[:, targets] = orientation * signs * sqrtdet * raised
    return out


def type11_residual(F, S, *, structure_tol: float = 1e-6) -> np.ndarray:
    """Deviation of k 2-forms from type (1,1) w.r.t. the complex structure S, (k,).

    Returns max over unit tangent pairs of |F(SX,SY) - F(X,Y)|, i.e. the
    spectral norm of S^T M S - M; this is invariant under orthonormal
    frame changes.  Zero iff F has no (2,0)+(0,2) part.  F holds the
    (k, nb) components of k forms; S is one matrix, or one per form
    (k, N, N).
    """
    S = np.asarray(S)
    if S.ndim not in (2, 3) or S.shape[-1] != S.shape[-2]:
        raise ConfigError(f"structures must have shape (N, N) or (k, N, N), got shape {S.shape}")
    N = S.shape[-1]
    F = np.asarray(F)
    if F.ndim != 2 or F.shape[1] != len(basis_indices(N, 2)):
        raise ConfigError(
            f"2-forms must have shape (k, {len(basis_indices(N, 2))}), got shape {F.shape}"
        )
    if S.ndim == 3 and len(S) != len(F):
        raise ConfigError(f"{len(F)} forms need {len(F)} structures, got {len(S)}")
    dev = np.max(np.abs(S @ S + np.eye(N)))
    if dev > structure_tol:
        raise StructureError(f"S^2 + Id deviates by {dev:.3e}")
    M = _as_matrices(F, N)
    return np.linalg.norm(np.swapaxes(S, -1, -2) @ M @ S - M, 2, axis=(1, 2))

