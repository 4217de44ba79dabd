"""Finite-difference exterior calculus and pointwise tensor algebra.

Differential forms are carried by their components on the canonical
ordered multi-index basis (dx0^dx1, dx0^dx2, ... in lexicographic
order), so antisymmetry is structural and wedge / interior products
reduce to index bookkeeping.  Derivatives (d, d^c, Laplacian) are
central finite differences on user-supplied evaluation callbacks;
there is no symbolic layer.

``d^c`` and ``dd^c`` evaluate their stencils in batches: every point of
the stencil goes to the scalar field in one call, as an ``(m, dim)``
array.  A field whose callback is vectorised (``(m, dim)`` in, ``(m,)``
out) declares so and costs one callback per batch; any other field is
called row by row.  One nested ``dd^c`` stencil of order 4 is
``(4 dim)^2`` points, so the batch holds ``(4 dim)^2 * dim`` floats:
about 350 KB at dim = 14 (four times that with Richardson
extrapolation, which doubles both stencils).

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
    "partial_derivative",
    "fd_gradient",
    "fd_jacobian",
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
        dim = M.shape[0]
        comps = np.array([M[i, j] for i, j in basis_indices(dim, 2)])
        return cls(2, dim, comps)

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
        M = np.zeros((self.dim, self.dim), dtype=self.comps.dtype)
        for pos, (i, j) in enumerate(basis_indices(self.dim, 2)):
            M[i, j] = self.comps[pos]
            M[j, i] = -self.comps[pos]
        return M

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

    def wedge(self, other: "FormValue") -> "FormValue":
        return wedge(self, other)

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
    """Central finite-difference scheme: step h, order 2 or 4, optional Richardson."""

    h: float = 1e-3
    order: int = 4
    richardson: bool = False

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
    """A scalar-valued field: evaluation callback plus optional domain clearance.

    ``clearance(p)`` returns the distance from p to the field's singular
    set; None means the field is globally smooth.

    The field takes one point ``(dim,)`` or a batch ``(m, dim)``, for
    which it returns an ``(m,)`` array.  With ``vectorized=True`` the
    callback receives the batch itself and must return the ``(m,)``
    values, each equal to what it returns for that row alone; otherwise
    the callback sees one point at a time.
    """

    fn: Callable
    dim: int
    clearance: Callable | None = None
    vectorized: bool = False

    def __call__(self, p):
        p = np.asarray(p, dtype=float)
        if p.ndim == 1 or self.vectorized:
            return self.fn(p)
        return np.array([self.fn(row) for row in p])

    def margin(self, p) -> float:
        if self.clearance is None:
            return np.inf
        return float(self.clearance(np.asarray(p, dtype=float)))


@dataclass(frozen=True)
class FormField:
    """A FormValue-valued field with declared degree/dimension and clearance."""

    fn: Callable
    degree: int
    dim: int
    clearance: Callable | None = None

    def __call__(self, p) -> FormValue:
        return self.fn(np.asarray(p, dtype=float))

    def margin(self, p) -> float:
        if self.clearance is None:
            return np.inf
        return float(self.clearance(np.asarray(p, dtype=float)))


def _require_margin(field, p, scheme: FDScheme):
    """Reject stencils closer than 10h to the field's singular set."""
    m = field.margin(p)
    if m < 10.0 * scheme.h:
        raise DomainError(
            f"point at clearance {m:.3e} violates the 10h margin "
            f"(h = {scheme.h:.3e})"
        )


# -- finite differences ---------------------------------------------------------


#: stencil offsets, in units of the step, in the order they are evaluated
_OFFSETS = {2: (1.0, -1.0), 4: (2.0, 1.0, -1.0, -2.0)}


def _steps(scheme: FDScheme) -> tuple:
    """The step of each central difference: h, then h/2 for Richardson."""
    return (scheme.h, scheme.h / 2.0) if scheme.richardson else (scheme.h,)


def _fd_reduce(vals, scheme: FDScheme):
    """Derivatives from stencil values laid out as [step][offset][...].

    ``vals[t][o]`` is the value at offset ``_OFFSETS[order][o]`` times
    ``_steps(scheme)[t]``; entries may be scalars or arrays.
    """
    diffs = []
    for v, h in zip(vals, _steps(scheme)):
        if scheme.order == 2:
            diffs.append((v[0] - v[1]) / (2.0 * h))
        else:
            diffs.append((-v[0] + 8.0 * v[1] - 8.0 * v[2] + v[3]) / (12.0 * h))
    if scheme.richardson:
        k = 4.0 if scheme.order == 2 else 16.0
        return (k * diffs[1] - diffs[0]) / (k - 1.0)
    return diffs[0]


def _stencil(P: np.ndarray, scheme: FDScheme) -> np.ndarray:
    """Central-difference stencil points around each row of a (k, N) array P.

    Returns shape (T, O, k, N, N): entry [t, o, r, i] is P[r] with
    coordinate i moved by ``_OFFSETS[order][o] * _steps(scheme)[t]``,
    the same points, bit for bit, that partial_derivative evaluates.
    """
    eye = np.eye(P.shape[1])
    return np.array(
        [
            [P[:, None, :] + (a * h) * eye for a in _OFFSETS[scheme.order]]
            for h in _steps(scheme)
        ]
    )


def _gradients(f: ScalarField, P: np.ndarray, scheme: FDScheme) -> np.ndarray:
    """Gradient of f at each row of P, from one field call over all stencils."""
    pts = _stencil(P, scheme)
    vals = np.asarray(f(pts.reshape(-1, P.shape[1]))).reshape(pts.shape[:-1])
    return _fd_reduce(vals, scheme)


def partial_derivative(fn: Callable, p, i: int, scheme: FDScheme):
    """d(fn)/dx_i at p by central differences; fn may return scalars or arrays."""
    p = np.asarray(p, dtype=float)
    e = np.zeros(len(p))
    e[i] = 1.0
    vals = [
        [fn(p + (a * h) * e) for a in _OFFSETS[scheme.order]] for h in _steps(scheme)
    ]
    return _fd_reduce(vals, scheme)


def fd_gradient(fn: Callable, p, scheme: FDScheme) -> np.ndarray:
    """Gradient vector of a scalar callback."""
    p = np.asarray(p, dtype=float)
    return np.array([partial_derivative(fn, p, i, scheme) for i in range(len(p))])


def fd_jacobian(fn: Callable, p, scheme: FDScheme) -> np.ndarray:
    """Jacobian of a vector-valued callback; column j is the x_j partial."""
    p = np.asarray(p, dtype=float)
    cols = [partial_derivative(fn, p, j, scheme) for j in range(len(p))]
    return np.column_stack(cols)


# -- exterior calculus -----------------------------------------------------------


def ext_deriv(field: FormField, p, scheme: FDScheme | None = None) -> FormValue:
    """Exterior derivative of a degree-k form field at p (degree k+1 value).

    Components: (dw)_J = sum_m (-1)^m d_{j_m} w_{J minus j_m}.
    """
    scheme = scheme or FDScheme()
    p = np.asarray(p, dtype=float)
    _require_margin(field, p, scheme)
    k, N = field.degree, field.dim
    dcomp = [partial_derivative(lambda q: field(q).comps, p, i, scheme) for i in range(N)]
    pos_k = _basis_position(N, k)
    out = np.zeros(len(basis_indices(N, k + 1)), dtype=np.result_type(*dcomp))
    for pos_J, J in enumerate(basis_indices(N, k + 1)):
        acc = 0.0
        for m, jm in enumerate(J):
            rest = J[:m] + J[m + 1 :]
            acc += (-1.0) ** m * dcomp[jm][pos_k[rest]]
        out[pos_J] = acc
    return FormValue(k + 1, N, out)


#: how far I^2 may deviate from -Id before d^c refuses it
_STRUCTURE_TOL = 1e-8


def _checked_structure(S, dim: int, tol: float, where: str) -> np.ndarray:
    """S as an array, after checking S^2 = -Id to within tol."""
    S = np.asarray(S)
    dev = np.max(np.abs(S @ S + np.eye(dim)))
    if dev > tol:
        raise StructureError(f"I^2 + Id deviates by {dev:.3e} {where}")
    return S


def dc_deriv(
    f: ScalarField,
    I,
    p,
    scheme: FDScheme | None = None,
    *,
    structure_tol: float = _STRUCTURE_TOL,
) -> FormValue:
    """The 1-form d^c f = -df o I at p.

    I may be a constant matrix or a callback p -> matrix; it must square
    to -Id at p to within structure_tol.  The gradient stencil goes to f
    in one batch.
    """
    scheme = scheme or FDScheme()
    p = np.asarray(p, dtype=float)
    _require_margin(f, p, scheme)
    S = _checked_structure(
        I(p) if callable(I) else I, len(p), structure_tol, "at the base point"
    )
    grad = _gradients(f, p[None, :], scheme)[0]
    return FormValue(1, len(p), -S.T @ grad)


def ddc(
    f: ScalarField,
    I,
    p,
    scheme: FDScheme | None = None,
    inner_scheme: FDScheme | None = None,
) -> FormValue:
    """dd^c f at p by nested central differences.

    The outer stencil (``scheme``) differentiates the 1-form
    d^c f = -df o I, whose value at each outer point q is -I(q)^T times
    the gradient of f from an ``inner_scheme`` stencil around q (the
    inner scheme defaults to the outer one).  All inner points of all
    outer points go to f in one batch.  I may be a constant matrix or a
    callback p -> matrix; it must square to -Id at every outer point.
    The 10h clearance margin is checked at p for the outer step and at
    every outer point for the inner step.
    """
    scheme = scheme or FDScheme()
    inner = inner_scheme or scheme
    p = np.asarray(p, dtype=float)
    N = len(p)
    _require_margin(f, p, scheme)
    outer = _stencil(p[None, :], scheme)
    Q = outer.reshape(-1, N)
    for q in Q:
        _require_margin(f, q, inner)
    where = "at an outer stencil point"
    if callable(I):
        structures = [_checked_structure(I(q), N, _STRUCTURE_TOL, where) for q in Q]
    else:
        structures = [_checked_structure(I, N, _STRUCTURE_TOL, where)] * len(Q)
    grads = _gradients(f, Q, inner)
    dc = np.array([-S.T @ grad for S, grad in zip(structures, grads)])
    D = _fd_reduce(dc.reshape(outer.shape), scheme)[0]  # D[i, j] = d_i (d^c f)_j
    a, b = np.array(basis_indices(N, 2)).T
    return FormValue(2, N, D[a, b] - D[b, a])


def laplacian(f: ScalarField, p, scheme: FDScheme | None = None) -> float:
    """Flat Laplacian sum_i d^2 f / dx_i^2 by central second differences."""
    scheme = scheme or FDScheme()
    p = np.asarray(p, dtype=float)
    _require_margin(f, p, scheme)

    def second(h):
        tot = 0.0
        f0 = f(p)
        for i in range(len(p)):
            e = np.zeros(len(p))
            e[i] = h
            if scheme.order == 2:
                tot += (f(p + e) - 2.0 * f0 + f(p - e)) / h**2
            else:
                tot += (
                    -f(p + 2 * e)
                    + 16.0 * f(p + e)
                    - 30.0 * f0
                    + 16.0 * f(p - e)
                    - f(p - 2 * e)
                ) / (12.0 * h**2)
        return tot

    if scheme.richardson:
        k = 4.0 if scheme.order == 2 else 16.0
        return (k * second(scheme.h / 2.0) - second(scheme.h)) / (k - 1.0)
    return second(scheme.h)


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
    A = np.asarray(A)
    N_target, m = A.shape
    if N_target != w.dim:
        raise ValueError("frame matrix rows must match the form's dimension")
    k = w.degree
    if k == 0:
        return FormValue(0, m, w.comps.copy())
    out = np.zeros(len(basis_indices(m, k)), dtype=np.result_type(w.comps, A))
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


def type11_residual(F: FormValue, S, *, structure_tol: float = 1e-6) -> float:
    """Deviation of a 2-form from type (1,1) w.r.t. the complex structure S.

    Returns max over unit tangent pairs of |F(SX,SY) - F(X,Y)|, i.e. the
    spectral norm of S^T M S - M; this is invariant under orthonormal
    frame changes.  Zero iff F has no (2,0)+(0,2) part.
    """
    S = np.asarray(S)
    dev = np.max(np.abs(S @ S + np.eye(S.shape[0])))
    if dev > structure_tol:
        raise StructureError(f"S^2 + Id deviates by {dev:.3e}")
    M = F.as_matrix()
    return float(np.linalg.norm(S.T @ M @ S - M, 2))


# -- metric curvature --------------------------------------------------------------


def christoffel(metric_fn: Callable, p, scheme: FDScheme | None = None) -> np.ndarray:
    """Christoffel symbols Gamma^a_{bc} of a metric callback, by central FD."""
    scheme = scheme or FDScheme(h=1e-4, order=4)
    p = np.asarray(p, dtype=float)
    n = p.size
    g = _check_metric(metric_fn(p))
    ginv = np.linalg.inv(g)
    flat = fd_jacobian(lambda q: np.asarray(metric_fn(q), dtype=float).ravel(), p, scheme)
    dg = flat.reshape(n, n, n)  # dg[a, b, c] = d_c g_{ab}
    # Gamma^a_{bc} = (1/2) g^{ad} (d_b g_{dc} + d_c g_{db} - d_d g_{bc})
    inner = dg.transpose(0, 2, 1) + dg - dg.transpose(2, 0, 1)
    return 0.5 * np.einsum("ad,dbc->abc", ginv, inner)


def riemann_tensor(
    metric_fn: Callable,
    p,
    scheme: FDScheme | None = None,
    inner_scheme: FDScheme | None = None,
) -> np.ndarray:
    """Curvature tensor R^a_{bcd} of a metric callback by nested FD.

    The outer derivative of the Christoffel field uses `scheme`, the
    inner metric derivatives use `inner_scheme`.  Flat metrics in curved
    charts come back as ~1e-8 noise with the defaults.
    """
    scheme = scheme or FDScheme(h=1e-3, order=4)
    inner_scheme = inner_scheme or FDScheme(h=1e-4, order=4)
    p = np.asarray(p, dtype=float)
    n = p.size
    gamma = christoffel(metric_fn, p, inner_scheme)
    dflat = fd_jacobian(
        lambda q: christoffel(metric_fn, q, inner_scheme).ravel(), p, scheme
    )
    dG = dflat.reshape(n, n, n, n)  # dG[a, b, c, e] = d_e Gamma^a_{bc}
    # R^a_{bcd} = d_c Gamma^a_{db} - d_d Gamma^a_{cb} + Gamma^a_{ce} Gamma^e_{db}
    #             - Gamma^a_{de} Gamma^e_{cb}
    t1 = dG.transpose(0, 2, 3, 1)
    t2 = dG.transpose(0, 2, 1, 3)
    t3 = np.einsum("ace,edb->abcd", gamma, gamma)
    t4 = np.einsum("ade,ecb->abcd", gamma, gamma)
    return t1 - t2 + t3 - t4


# -- quadrature ---------------------------------------------------------------------


def surface_integral(
    w: FormField,
    surf: Callable,
    resolution: int = 8,
    *,
    tangent_h: float = 1e-5,
) -> float:
    """Integral of a 2-form field over a parametrized surface [0,1]^2 -> R^N.

    Composite 4-point Gauss-Legendre quadrature on resolution x resolution
    panels; tangents of the parametrization by central differences.
    """
    if w.degree != 2:
        raise ValueError("surface_integral expects a degree-2 form field")
    nodes, wts = np.polynomial.legendre.leggauss(4)
    total = 0.0
    width = 1.0 / resolution
    for ps in range(resolution):
        for pt in range(resolution):
            for ni, s_node in enumerate(nodes):
                s = (ps + 0.5 + 0.5 * s_node) * width
                for nj, t_node in enumerate(nodes):
                    t = (pt + 0.5 + 0.5 * t_node) * width
                    point = np.asarray(surf(s, t), dtype=float)
                    ts = (
                        np.asarray(surf(s + tangent_h, t))
                        - np.asarray(surf(s - tangent_h, t))
                    ) / (2.0 * tangent_h)
                    tt = (
                        np.asarray(surf(s, t + tangent_h))
                        - np.asarray(surf(s, t - tangent_h))
                    ) / (2.0 * tangent_h)
                    weight = wts[ni] * wts[nj] * (0.5 * width) ** 2
                    total += weight * w(point)(ts, tt)
    return total
