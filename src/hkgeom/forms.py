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
``FormField.fn``, the callables given to ``fd_gradient`` and
``fd_jacobian`` and the surface of ``surface_integral``.  Every
derivative (``fd_gradient``, ``fd_jacobian``, ``d``, ``d^c``, ``dd^c``,
the Laplacian, surface tangents) comes from one central-difference
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
and at least one.  A scalar field gives one value per stencil
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

import ctypes
import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np
from numpy.polynomial.legendre import leggauss

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


def _points(p, dim: int | None = None) -> np.ndarray:
    """p as a float batch of points (k, dim); any other shape is a ConfigError."""
    P = np.asarray(p, dtype=float)
    if P.ndim != 2 or (dim is not None and P.shape[1] != dim):
        raise ConfigError(
            f"points must have shape (k, {'dim' if dim is None else dim}), got shape {P.shape}"
        )
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
#: fault them in again (1,500 page faults per flat curvature call at n = 3)
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


def _chunked(P: np.ndarray, values_per_point: int, op: Callable) -> np.ndarray:
    """op over consecutive chunks of the rows of P, concatenated.

    Each chunk holds as many base points as keep their stencil values (at
    ``values_per_point`` each) within MAX_STENCIL_VALUES, and at least one.
    """
    size = max(1, MAX_STENCIL_VALUES // values_per_point)
    return np.concatenate([op(P[i : i + size]) for i in range(0, len(P), size)])


def fd_gradient(fn: Callable, p, scheme: FDScheme) -> np.ndarray:
    """Gradients (k, dim) at base points p (k, dim) of a batch scalar callback (m, dim) -> (m,)."""
    P = _points(p)
    return _chunked(P, _stencil_rows(scheme, P.shape[1]), lambda C: _derivatives(fn, C, scheme))


def fd_jacobian(fn: Callable, p, scheme: FDScheme) -> np.ndarray:
    """Jacobians (k, N, dim) at base points p (k, dim) of a batch callback (m, dim) -> (m, N).

    Column j of each Jacobian is the x_j partial.  The result is
    C-ordered, not a transposed view: BLAS rounds products with a
    transposed operand differently, by a few ulps.
    """
    return np.ascontiguousarray(np.swapaxes(_derivatives(fn, _points(p), scheme), 1, 2))


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


def ext_deriv(field: FormField, p, scheme: FDScheme | None = None) -> np.ndarray:
    """Exterior derivative of a degree-k form field at base points p (k, dim).

    Returns the (k, nb) components of the degree k+1 forms, from
    ``_ext_deriv_sum``.
    """
    scheme = scheme or FDScheme()
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


def dc_deriv(f: ScalarField, I, p, scheme: FDScheme | None = None) -> np.ndarray:
    """The 1-form d^c f = -df o I at base points p (k, dim), as components (k, dim).

    I may be a constant matrix or a callback taking (m, dim) points to
    (m, dim, dim) matrices; it must square to -Id at every base point to
    within _STRUCTURE_TOL.  The gradient stencils go to f in one batch.
    """
    scheme = scheme or FDScheme()
    P = _points(p, f.dim)

    def chunk(C):
        _require_margin(f, C, scheme)
        S = _structures(I, C, _STRUCTURE_TOL, "at the base point")
        return _dc_contract(S, _derivatives(f, C, scheme))

    return _chunked(P, _stencil_rows(scheme, f.dim), chunk)


def ddc(
    f: ScalarField,
    I,
    p,
    scheme: FDScheme | None = None,
    inner_scheme: FDScheme | None = None,
) -> np.ndarray:
    """dd^c f at base points p (k, dim), as components (k, nb), by nested central differences.

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
    P = _points(p, f.dim)
    N = f.dim
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
    return _chunked(P, rows, chunk)


def laplacian(f: ScalarField, p, scheme: FDScheme | None = None) -> np.ndarray:
    """Flat Laplacian sum_i d^2 f / dx_i^2 at base points p (k, dim), (k,).

    Central second differences; the base points and their stencils go to
    f in one batch.
    """
    scheme = scheme or FDScheme()
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
    N = S.shape[-1]
    F = np.asarray(F)
    if F.ndim != 2 or F.shape[1] != len(basis_indices(N, 2)):
        raise ConfigError(
            f"2-forms must have shape (k, {len(basis_indices(N, 2))}), got shape {F.shape}"
        )
    dev = np.max(np.abs(S @ S + np.eye(N)))
    if dev > structure_tol:
        raise StructureError(f"S^2 + Id deviates by {dev:.3e}")
    M = _as_matrices(F, N)
    return np.linalg.norm(np.swapaxes(S, -1, -2) @ M @ S - M, 2, axis=(1, 2))


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
    nodes, wts = leggauss(4)
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
