"""Finite-difference exterior calculus and pointwise tensor algebra.

Differential forms are carried by their components on the canonical
ordered multi-index basis (dx0^dx1, dx0^dx2, ... in lexicographic
order), so antisymmetry is structural and wedge / interior products
reduce to index bookkeeping.  Derivatives (d, d^c, Laplacian) are
central finite differences on user-supplied evaluation callbacks;
there is no symbolic layer.

Every callable a stencil evaluates has one contract: it takes an
``(m, dim)`` batch of points and returns one row per point, ``(m,)``
values, ``(m, nb)`` form components or ``(m, N)`` points, each row equal
to that point evaluated alone.  That covers ``ScalarField.fn``,
``FormField.fn``, the callables given to ``fd_gradient`` and
``fd_jacobian`` and the surface of ``surface_integral``.  Every
derivative (``fd_gradient``, ``fd_jacobian``, ``d``, ``d^c``, ``dd^c``,
the Laplacian, surface tangents) comes from one central-difference
stencil whose points go to the callable in one call.

The operators take base points the same way.  ``fd_gradient``,
``ext_deriv``, ``dc_deriv``, ``ddc`` and ``laplacian`` take one point
``(dim,)`` or a batch ``(k, dim)``.  A batch gives ``(k, dim)``
gradients, ``(k, nb)`` form components or ``(k,)`` Laplacians, each row
equal to that point alone; one point is a batch of one and gives a
gradient, a :class:`FormValue` or a float.  A point-dependent complex
structure is a callable taking ``(m, dim)`` points to ``(m, dim, dim)``
matrices, and ``type11_residual`` takes the ``(k, nb)`` components of k
2-forms.  No field call returns more than ``MAX_STENCIL_VALUES`` (4096)
values: an operator splits its base points into chunks of as many points
as fit, and at least one.  A scalar field gives one value per stencil
row and a form field ``nb``, so a scalar field's call holds at most 4096
stencil rows.  A nested ``dd^c`` stencil of order 4 has ``(4 dim)^2``
rows per base point (2,304 at dim = 12 and 3,136 at dim = 14), so there
a chunk is one point and the batch holds at most ``4096 * dim`` floats,
under 460 KB at dim = 14; a first-derivative stencil has ``4 dim`` rows,
so 85 points of R^12 fit in one gradient call.  Counting a form field's
components matters because a form field may build far more than its
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

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import DomainError, MetricError, StructureError

__all__ = [
    "basis_indices",
    "FormValue",
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
    "wedge",
    "interior_product",
    "pullback",
    "hodge_star",
    "form_metric_norm",
    "type11_residual",
    "surface_integral",
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


def _sort_with_sign(indices: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Sort an index tuple by adjacent swaps, tracking the permutation sign.

    Returns (sorted tuple, sign); sign is 0 if any index repeats.
    """
    idx = list(indices)
    sign = 1
    for i in range(1, len(idx)):
        j = i
        while j > 0 and idx[j - 1] > idx[j]:
            idx[j - 1], idx[j] = idx[j], idx[j - 1]
            sign = -sign
            j -= 1
    for a, b in zip(idx, idx[1:]):
        if a == b:
            return tuple(idx), 0
    return tuple(idx), sign


class FormValue:
    """A degree-k antisymmetric tensor at a point of R^dim.

    Components are stored on the sorted multi-index basis
    ``basis_indices(dim, degree)`` and may be real or complex.
    """

    __slots__ = ("degree", "dim", "comps")

    def __init__(self, degree: int, dim: int, comps=None):
        nb = len(basis_indices(dim, degree))
        if comps is None:
            comps = np.zeros(nb)
        else:
            comps = np.asarray(comps)
            if comps.shape != (nb,):
                raise ValueError(
                    f"degree-{degree} form on R^{dim} needs {nb} components, "
                    f"got shape {comps.shape}"
                )
            if not np.iscomplexobj(comps):
                comps = comps.astype(float)
        self.degree = degree
        self.dim = dim
        self.comps = comps

    # -- construction helpers -------------------------------------------------

    @classmethod
    def from_dict(cls, degree: int, dim: int, entries: dict) -> "FormValue":
        """Build a form from {multi-index tuple: value}; indices may be unsorted."""
        comps = np.zeros(len(basis_indices(dim, degree)), dtype=complex)
        pos = _basis_position(dim, degree)
        for idx, val in entries.items():
            srt, sgn = _sort_with_sign(tuple(idx))
            if sgn == 0:
                continue
            comps[pos[srt]] += sgn * val
        if np.allclose(comps.imag, 0.0):
            comps = comps.real.copy()
        return cls(degree, dim, comps)

    @classmethod
    def from_matrix(cls, M: np.ndarray) -> "FormValue":
        """Degree-2 form from an antisymmetric matrix M, w(X,Y) = X^T M Y."""
        M = np.asarray(M)
        return cls(2, M.shape[0], M[_pair_indices(M.shape[0])])

    # -- component access -----------------------------------------------------

    def comp(self, indices: Sequence[int]):
        """Signed component lookup for an arbitrary (possibly unsorted) index tuple."""
        srt, sgn = _sort_with_sign(tuple(indices))
        if sgn == 0:
            return self.comps.dtype.type(0)
        return sgn * self.comps[_basis_position(self.dim, self.degree)[srt]]

    def as_matrix(self) -> np.ndarray:
        """Degree-2 form as the antisymmetric matrix M with w(X,Y) = X^T M Y."""
        if self.degree != 2:
            raise ValueError("as_matrix requires a degree-2 form")
        return _as_matrices(self.comps, self.dim)

    # -- evaluation -----------------------------------------------------------

    def __call__(self, *vectors):
        """Evaluate on degree-many tangent vectors (multilinear, alternating)."""
        if len(vectors) != self.degree:
            raise ValueError(f"expected {self.degree} vectors, got {len(vectors)}")
        if self.degree == 0:
            return self.comps[0]
        cols = np.column_stack([np.asarray(v) for v in vectors])
        if self.degree == 1:
            return self.comps @ cols[:, 0]
        if self.degree == 2:
            return cols[:, 0] @ self.as_matrix() @ cols[:, 1]
        total = 0.0
        for pos, idx in enumerate(basis_indices(self.dim, self.degree)):
            c = self.comps[pos]
            if c != 0:
                total = total + c * np.linalg.det(cols[list(idx), :])
        return total

    # -- algebra ---------------------------------------------------------------

    def conjugate(self) -> "FormValue":
        return FormValue(self.degree, self.dim, np.conj(self.comps))

    def norm(self) -> float:
        """Euclidean norm of the stored components."""
        return float(np.linalg.norm(self.comps))

    def __add__(self, other):
        self._check_compatible(other)
        return FormValue(self.degree, self.dim, self.comps + other.comps)

    def __sub__(self, other):
        self._check_compatible(other)
        return FormValue(self.degree, self.dim, self.comps - other.comps)

    def __neg__(self):
        return FormValue(self.degree, self.dim, -self.comps)

    def __mul__(self, scalar):
        return FormValue(self.degree, self.dim, self.comps * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return FormValue(self.degree, self.dim, self.comps / scalar)

    def _check_compatible(self, other):
        if not isinstance(other, FormValue):
            raise TypeError("can only combine FormValue with FormValue")
        if (self.degree, self.dim) != (other.degree, other.dim):
            raise ValueError("degree/dimension mismatch")

    def __repr__(self):
        return f"FormValue(degree={self.degree}, dim={self.dim}, comps={self.comps!r})"


# -- field handles -------------------------------------------------------------


@dataclass(frozen=True)
class FDScheme:
    """Central finite-difference scheme: step h, order 2 or 4."""

    h: float = 1e-3
    order: int = 4

    def __post_init__(self):
        if not self.h > 0:
            raise ValueError("FD step h must be positive")
        if self.order not in (2, 4):
            raise ValueError("FD order must be 2 or 4")

    @property
    def radius(self) -> float:
        """Largest coordinate displacement used by the stencil."""
        return (2.0 if self.order == 4 else 1.0) * self.h


@dataclass(frozen=True)
class ScalarField:
    """A scalar-valued field: batch callback plus optional domain clearance.

    ``fn`` maps an ``(m, dim)`` batch to its ``(m,)`` values.  The field
    called on a batch returns those values; called on one point
    ``(dim,)`` it evaluates a batch of one and returns its scalar.
    ``clearance(p)`` returns the distance from one point p to the field's
    singular set; None means the field is globally smooth.
    """

    fn: Callable
    dim: int
    clearance: Callable | None = None

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        values = self.fn(np.atleast_2d(p))
        return values if p.ndim > 1 else values[0]

    def margin(self, p) -> float:
        if self.clearance is None:
            return np.inf
        return float(self.clearance(np.asarray(p, dtype=float)))


@dataclass(frozen=True)
class FormField:
    """A degree-k form field with declared degree/dimension and clearance.

    ``fn`` maps an ``(m, dim)`` batch to the ``(m, nb)`` components of
    the form at each row, on the basis ``basis_indices(dim, degree)``.
    The field called on a batch returns those components; called on one
    point ``(dim,)`` it returns a :class:`FormValue`.
    """

    fn: Callable
    degree: int
    dim: int
    clearance: Callable | None = None

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        rows = np.atleast_2d(p)
        comps = np.asarray(self.fn(rows))
        shape = (len(rows), len(basis_indices(self.dim, self.degree)))
        if comps.shape != shape:
            raise ValueError(f"form field returned shape {comps.shape}, expected {shape}")
        return comps if p.ndim > 1 else FormValue(self.degree, self.dim, comps[0])

    def margin(self, p) -> float:
        if self.clearance is None:
            return np.inf
        return float(self.clearance(np.asarray(p, dtype=float)))


def _require_margin(field, points: np.ndarray, scheme: FDScheme):
    """Reject stencils closer than 10h to the field's singular set, around every row."""
    if field.clearance is None:
        return
    for q in points:
        m = field.margin(q)
        if m < 10.0 * scheme.h:
            raise DomainError(
                f"point at clearance {m:.3e} violates the 10h margin "
                f"(h = {scheme.h:.3e})"
            )


# -- finite differences ---------------------------------------------------------


#: stencil offsets, in units of the step, in the order they are evaluated
_OFFSETS = {2: (1.0, -1.0), 4: (2.0, 1.0, -1.0, -2.0)}

#: the most values one field call returns (a stencil row of a scalar field
#: is one value, of a form field nb): the operators split their base points
#: into consecutive chunks under this bound, and never less than one point
MAX_STENCIL_VALUES = 4096


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


def _base_points(p) -> tuple[np.ndarray, bool]:
    """(P, single): base points as a (k, N) batch, and whether p was one (N,) point."""
    p = np.asarray(p, dtype=float)
    return np.atleast_2d(p), p.ndim == 1


def _chunked(P: np.ndarray, values_per_point: int, op: Callable) -> np.ndarray:
    """op over consecutive chunks of the rows of P, concatenated.

    Each chunk holds as many base points as keep their stencil values (at
    ``values_per_point`` each) within MAX_STENCIL_VALUES, and at least one.
    """
    size = max(1, MAX_STENCIL_VALUES // values_per_point)
    return np.concatenate([op(P[i : i + size]) for i in range(0, len(P), size)])


def _form_result(comps: np.ndarray, degree: int, dim: int, single: bool):
    """A FormValue for one base point, the (k, nb) components for a batch."""
    return FormValue(degree, dim, comps[0]) if single else comps


def fd_gradient(fn: Callable, p, scheme: FDScheme) -> np.ndarray:
    """Gradient of a batch scalar callback, (m, dim) -> (m,), at p.

    p is one point (dim,), giving (dim,), or base points (k, dim), giving
    one gradient per row.
    """
    P, single = _base_points(p)
    grads = _chunked(P, _stencil_rows(scheme, P.shape[1]), lambda C: _derivatives(fn, C, scheme))
    return grads[0] if single else grads


def fd_jacobian(fn: Callable, p, scheme: FDScheme) -> np.ndarray:
    """Jacobian at p of a batch callback (m, dim) -> (m, N); column j is the x_j partial.

    The result is C-ordered, not a transposed view: BLAS rounds products
    with a transposed operand differently, by a few ulps.
    """
    p = np.asarray(p, dtype=float)
    return np.ascontiguousarray(_derivatives(fn, p[None, :], scheme)[0].T)


# -- exterior calculus -----------------------------------------------------------


@lru_cache(maxsize=None)
def _ext_deriv_table(dim: int, degree: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(coords, rests, signs) with (dw)_J = sum_m signs[m] d_{coords[J, m]} w_{rests[J, m]}.

    For the J-th basis multi-index of degree ``degree + 1``, coords[J, m]
    is its m-th index j_m and rests[J, m] the basis position of J without
    j_m; signs[m] = (-1)^m.
    """
    pos_k = _basis_position(dim, degree)
    top = basis_indices(dim, degree + 1)
    coords = np.array(top, dtype=int).reshape(len(top), degree + 1)
    rests = np.array(
        [[pos_k[J[:m] + J[m + 1 :]] for m in range(degree + 1)] for J in top], dtype=int
    ).reshape(len(top), degree + 1)
    return coords, rests, (-1.0) ** np.arange(degree + 1)


def _ext_deriv_sum(D: np.ndarray, dim: int, degree: int) -> np.ndarray:
    """Components (k, nb) of dw from the derivatives D[r, i, I] = d_i w_I of a degree-k form.

    (dw)_J = sum_m (-1)^m d_{j_m} w_{J minus j_m}, summed in order of m;
    the package's one definition of the exterior derivative, for
    ``ext_deriv`` and for any stencil a caller lays out itself.
    """
    coords, rests, signs = _ext_deriv_table(dim, degree)
    return sum(signs[m] * D[:, coords[:, m], rests[:, m]] for m in range(len(signs)))


def ext_deriv(field: FormField, p, scheme: FDScheme | None = None):
    """Exterior derivative of a degree-k form field at p (degree k+1 value).

    p is one point (a :class:`FormValue` result) or base points (k, dim)
    (a (k, nb) component array); the components come from
    ``_ext_deriv_sum``.
    """
    scheme = scheme or FDScheme()
    P, single = _base_points(p)

    def chunk(C):
        _require_margin(field, C, scheme)
        return _ext_deriv_sum(_derivatives(field, C, scheme), field.dim, field.degree)

    nb = len(basis_indices(field.dim, field.degree))
    comps = _chunked(P, _stencil_rows(scheme, field.dim) * nb, chunk)
    return _form_result(comps, field.degree + 1, field.dim, single)


#: how far I^2 may deviate from -Id before d^c refuses it
_STRUCTURE_TOL = 1e-8


def _structures(I, points: np.ndarray, tol: float, where: str) -> np.ndarray:
    """The structure at every row of points (m, N): (m, N, N), or I itself if constant.

    A callable I takes the whole (m, N) batch and returns (m, N, N).
    Every matrix must square to -Id to within tol.
    """
    N = points.shape[1]
    S = np.asarray(I(points) if callable(I) else I)
    if callable(I) and S.shape != (len(points), N, N):
        raise ValueError(
            f"structure callable returned shape {S.shape}, expected {(len(points), N, N)}"
        )
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


def dc_deriv(f: ScalarField, I, p, scheme: FDScheme | None = None):
    """The 1-form d^c f = -df o I at p, one point (FormValue) or base points (k, dim).

    I may be a constant matrix or a callback taking (m, dim) points to
    (m, dim, dim) matrices; it must square to -Id at every base point to
    within _STRUCTURE_TOL.  The gradient stencils go to f in one batch.
    """
    scheme = scheme or FDScheme()
    P, single = _base_points(p)
    N = P.shape[1]

    def chunk(C):
        _require_margin(f, C, scheme)
        S = _structures(I, C, _STRUCTURE_TOL, "at the base point")
        return _dc_contract(S, _derivatives(f, C, scheme))

    return _form_result(_chunked(P, _stencil_rows(scheme, N), chunk), 1, N, single)


def ddc(
    f: ScalarField,
    I,
    p,
    scheme: FDScheme | None = None,
    inner_scheme: FDScheme | None = None,
):
    """dd^c f at p, one point (FormValue) or base points (k, dim), by nested central differences.

    The outer stencil (``scheme``) differentiates the 1-form
    d^c f = -df o I, whose value at each outer point q is -I(q)^T times
    the gradient of f from an ``inner_scheme`` stencil around q (the
    inner scheme defaults to the outer one).  All inner points of all
    outer points of a chunk of base points go to f in one batch, and all
    its outer points to I.  I may be a constant matrix or a callback
    taking (m, dim) points to (m, dim, dim) matrices; it must square to
    -Id at every outer point.  The 10h clearance margin is checked at
    every base point for the outer step and at every outer point for the
    inner step.
    """
    scheme = scheme or FDScheme()
    inner = inner_scheme or scheme
    P, single = _base_points(p)
    N = P.shape[1]
    a, b = _pair_indices(N)

    def chunk(C):
        _require_margin(f, C, scheme)
        Q = _stencil_points(C, scheme)
        _require_margin(f, Q, inner)
        S = _structures(I, Q, _STRUCTURE_TOL, "at an outer stencil point")
        dc = _dc_contract(S, _derivatives(f, Q, inner))
        D = _stencil_derivatives(dc, len(C), scheme)  # D[r, i, j] = d_i (d^c f)_j at row r
        return D[:, a, b] - D[:, b, a]

    rows = _stencil_rows(scheme, N) * _stencil_rows(inner, N)
    return _form_result(_chunked(P, rows, chunk), 2, N, single)


def laplacian(f: ScalarField, p, scheme: FDScheme | None = None):
    """Flat Laplacian sum_i d^2 f / dx_i^2 by central second differences.

    p is one point (a float result) or base points (k, dim) (a (k,)
    array).  The base points and their stencils go to f in one batch.
    """
    scheme = scheme or FDScheme()
    P, single = _base_points(p)
    N, h = P.shape[1], scheme.h

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

    tot = _chunked(P, 1 + _stencil_rows(scheme, N), chunk)
    return float(tot[0]) if single else tot


# -- pointwise algebra ------------------------------------------------------------


def wedge(a: FormValue, b: FormValue) -> FormValue:
    """Wedge product by index combinatorics on the sorted bases."""
    if a.dim != b.dim:
        raise ValueError("wedge requires forms on the same space")
    N = a.dim
    k = a.degree + b.degree
    dtype = np.result_type(a.comps, b.comps)
    out = np.zeros(len(basis_indices(N, k)), dtype=dtype)
    pos_k = _basis_position(N, k)
    for pa, ia in enumerate(basis_indices(N, a.degree)):
        ca = a.comps[pa]
        if ca == 0:
            continue
        for pb, ib in enumerate(basis_indices(N, b.degree)):
            cb = b.comps[pb]
            if cb == 0:
                continue
            srt, sgn = _sort_with_sign(ia + ib)
            if sgn != 0:
                out[pos_k[srt]] += sgn * ca * cb
    return FormValue(k, N, out)


def interior_product(X, w: FormValue) -> FormValue:
    """i_X w: contraction of the first slot with the tangent vector X."""
    X = np.asarray(X)
    if w.degree == 0:
        raise ValueError("cannot contract a 0-form")
    N = w.dim
    out = np.zeros(len(basis_indices(N, w.degree - 1)), dtype=np.result_type(X, w.comps))
    for pos_J, J in enumerate(basis_indices(N, w.degree - 1)):
        acc = 0.0
        for i in range(N):
            xi = X[i]
            if xi != 0:
                acc += xi * w.comp((i,) + J)
        out[pos_J] = acc
    return FormValue(w.degree - 1, N, out)


def pullback(w: FormValue, A: np.ndarray) -> FormValue:
    """Pull back w through the linear map with matrix A (columns = images).

    A maps R^m -> R^dim(w); the result is a degree-k form on R^m.  With a
    rectangular frame matrix this is the restriction of w to the frame.
    """
    # in C order every column A[:, j] is strided, as the columns that
    # FormValue.__call__ stacks are; BLAS rounds a product with a
    # contiguous column differently
    A = np.ascontiguousarray(A)
    N_target, m = A.shape
    if N_target != w.dim:
        raise ValueError("frame matrix rows must match the form's dimension")
    k = w.degree
    if k == 0:
        return FormValue(0, m, w.comps.copy())
    out = np.zeros(len(basis_indices(m, k)), dtype=np.result_type(w.comps, A))
    if k == 2:
        M = w.as_matrix()
        for pos_J, (i, j) in enumerate(basis_indices(m, 2)):
            out[pos_J] = A[:, i] @ M @ A[:, j]
        return FormValue(2, m, out)
    for pos_J, J in enumerate(basis_indices(m, k)):
        out[pos_J] = w(*[A[:, j] for j in J])
    return FormValue(k, m, out)


# -- metric operations -------------------------------------------------------------


def _raise_indices(Ginv: np.ndarray, w: FormValue) -> np.ndarray:
    """Contravariant components w^I = det(Ginv[I, I']) w_{I'} on the sorted basis."""
    k, N = w.degree, w.dim
    if k == 0:
        return w.comps.copy()
    if k == 1:
        return Ginv @ w.comps
    idx = basis_indices(N, k)
    out = np.zeros(len(idx), dtype=w.comps.dtype)
    for pI, I in enumerate(idx):
        acc = 0.0
        for pIp, Ip in enumerate(idx):
            c = w.comps[pIp]
            if c != 0:
                acc += np.linalg.det(Ginv[np.ix_(I, Ip)]) * c
        out[pI] = acc
    return out


def _check_metric(g: np.ndarray) -> np.ndarray:
    g = np.asarray(g, dtype=float)
    if not np.allclose(g, g.T, atol=1e-12):
        raise MetricError("metric matrix is not symmetric")
    evals = np.linalg.eigvalsh(g)
    if evals.min() <= 0:
        raise MetricError(f"metric not positive definite (min eigenvalue {evals.min():.3e})")
    return g


def hodge_star(g, orientation: int, w: FormValue) -> FormValue:
    """Metric Hodge dual, defined by a ^ *b = <a,b>_g vol_g.

    orientation (+1/-1) fixes whether the coordinate order gives the
    positive volume form.
    """
    g = _check_metric(g)
    if orientation not in (1, -1):
        raise ValueError("orientation must be +1 or -1")
    N, k = w.dim, w.degree
    Ginv = np.linalg.inv(g)
    sqrtdet = np.sqrt(np.linalg.det(g))
    raised = _raise_indices(Ginv, w)
    out = np.zeros(len(basis_indices(N, N - k)), dtype=w.comps.dtype)
    pos_out = _basis_position(N, N - k)
    full = set(range(N))
    for pI, I in enumerate(basis_indices(N, k)):
        J = tuple(sorted(full - set(I)))
        _, sgn = _sort_with_sign(I + J)
        out[pos_out[J]] = orientation * sgn * sqrtdet * raised[pI]
    return FormValue(N - k, N, out)


def form_metric_norm(g, w: FormValue) -> float:
    """Pointwise metric norm: sqrt(sum_I conj(w_I) w^I) on the sorted basis."""
    g = _check_metric(g)
    raised = _raise_indices(np.linalg.inv(g), w)
    val = np.real(np.sum(np.conj(w.comps) * raised))
    return float(np.sqrt(max(val, 0.0)))


def type11_residual(F, S, *, structure_tol: float = 1e-6):
    """Deviation of a 2-form from type (1,1) w.r.t. the complex structure S.

    Returns max over unit tangent pairs of |F(SX,SY) - F(X,Y)|, i.e. the
    spectral norm of S^T M S - M; this is invariant under orthonormal
    frame changes.  Zero iff F has no (2,0)+(0,2) part.  F is one
    :class:`FormValue` (a float result) or the (k, nb) components of k
    forms (a (k,) result); S is one matrix, or one per form (k, N, N).
    """
    S = np.asarray(S)
    N = S.shape[-1]
    dev = np.max(np.abs(S @ S + np.eye(N)))
    if dev > structure_tol:
        raise StructureError(f"S^2 + Id deviates by {dev:.3e}")
    single = isinstance(F, FormValue)
    M = _as_matrices(F.comps[None] if single else np.asarray(F), N)
    norms = np.linalg.norm(np.swapaxes(S, -1, -2) @ M @ S - M, 2, axis=(1, 2))
    return float(norms[0]) if single else norms


# -- quadrature ---------------------------------------------------------------------


#: second-order central differences for the tangents of a parametrized surface
_SURFACE_TANGENT_SCHEME = FDScheme(h=1e-5, order=2)


def surface_integral(w: FormField, surf: Callable, resolution: int = 8) -> float:
    """Integral of a 2-form field over a parametrized surface [0,1]^2 -> R^N.

    Composite 4-point Gauss-Legendre quadrature on resolution x resolution
    panels.  ``surf`` maps an (m, 2) batch of parameters (s, t) to the
    (m, N) surface points; every node goes to it, to its tangent stencil
    (central differences) and to ``w`` in one batch each.
    """
    if w.degree != 2:
        raise ValueError("surface_integral expects a degree-2 form field")
    nodes, wts = np.polynomial.legendre.leggauss(4)
    width = 1.0 / resolution
    coords = ((np.arange(resolution)[:, None] + 0.5 + 0.5 * nodes) * width).ravel()
    params = np.stack(np.meshgrid(coords, coords, indexing="ij"), axis=-1).reshape(-1, 2)
    node_wts = np.tile(wts, resolution)
    weights = np.outer(node_wts, node_wts).ravel() * (0.5 * width) ** 2
    tangents = _derivatives(surf, params, _SURFACE_TANGENT_SCHEME)  # [node, (d/ds, d/dt), N]
    ds, dt = tangents[:, 0], tangents[:, 1]
    rows, cols = _pair_indices(w.dim)
    comps = w(surf(params))
    values = np.sum(comps * (ds[:, rows] * dt[:, cols] - ds[:, cols] * dt[:, rows]), axis=1)
    return float(np.sum(weights * values))
