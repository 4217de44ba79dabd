"""Flat quaternionic coordinate space with its Kähler triple and circle actions.

Real coordinates pack the complex pairs as
``(Re z_1, Im z_1, ..., Re z_n, Im z_n, Re w_1, Im w_1, ..., Re w_n, Im w_n)``,
so the real dimension is 4n.  This is the wire order used everywhere in the
package.  The complex structures are

* I: multiplication by i on each complex coordinate,
* J: (dz, dw) -> (-conj(dw), conj(dz)),
* K = I J,

and the Kähler forms are ``omega_i(X, Y) = g(S_i X, Y)`` for the flat
Euclidean metric g, giving ``omega2 + i omega3 = sum_i dz_i ^ dw_i``.

Weighted circle actions ``(z_j, w_j) -> (e^{i k_j t} z_j, e^{i l_j t} w_j)``
rotate ``omega2 + i omega3`` by ``e^{i n t}`` with n = k_j + l_j (required
equal for all j); their moment maps and the curvature of the associated
invariant line bundle are computed here.

The functions of a point (``action_vector_field``, ``moment_map``,
``hyperholo_curvature``) take a batch of points (k, 4n) and return one
row per point, each equal to that point alone in a batch of one; any
other shape is a ConfigError naming (k, 4n).  The coordinate packing
``to_complex`` / ``from_complex`` works on any leading shape.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from .errors import ConfigError, StructureError
from .forms import FDScheme, ScalarField, _pair_indices, _points, _read_only, ddc

__all__ = [
    "FlatModel",
    "CircleActionSpec",
    "action_vector_field",
    "action_generator",
    "action_rotation",
    "moment_map",
    "moment_field",
    "hyperholo_curvature",
    "rotation_degree_check",
]


class FlatModel:
    """Flat H^n: constant complex structures I, J, K and the Kähler triple.

    I, J and K are built on first use and are read-only, as are the
    Kähler forms, their transposes.  ``CircleActionSpec.model()`` hands out
    one shared model per n.
    """

    def __init__(self, n: int = 1):
        if isinstance(n, bool) or not (isinstance(n, (int, np.integer)) and n >= 1):
            raise ConfigError(f"quaternionic dimension must be an integer >= 1, got {n!r}")
        self.n = int(n)
        self.dim = 4 * self.n

    # -- coordinate packing --------------------------------------------------

    def z_slots(self, i: int) -> tuple[int, int]:
        """(Re, Im) coordinate indices of z_i (0-based)."""
        return 2 * i, 2 * i + 1

    def w_slots(self, i: int) -> tuple[int, int]:
        return 2 * self.n + 2 * i, 2 * self.n + 2 * i + 1

    def to_complex(self, p) -> tuple[np.ndarray, np.ndarray]:
        """(z, w) of a point, or of each row of an (m, 4n) batch.

        The wire order stores each (Re, Im) pair next to each other, so z
        and w are read-only complex views of p with no copy: they alias
        p, and change with it.  p is copied first only if it is not a
        float array or its last axis is strided.
        """
        p = np.asarray(p, dtype=float)
        if p.strides[-1] != p.itemsize:
            p = np.ascontiguousarray(p)
        c = p.view(complex)
        c.flags.writeable = False
        return c[..., : self.n], c[..., self.n :]

    def from_complex(self, z, w) -> np.ndarray:
        """The real point of (z, w), or of each row of (k, n) batches: the inverse of to_complex."""
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        p = np.empty(z.shape[:-1] + (self.dim,))
        p[..., : 2 * self.n : 2], p[..., 1 : 2 * self.n : 2] = z.real, z.imag
        p[..., 2 * self.n :: 2], p[..., 2 * self.n + 1 :: 2] = w.real, w.imag
        return p

    # -- structures ------------------------------------------------------------

    @cached_property
    def I(self) -> np.ndarray:
        # i (x + iy) = -y + ix on every (Re, Im) pair
        re = np.arange(0, self.dim, 2)
        out = np.zeros((self.dim, self.dim))
        out[re + 1, re], out[re, re + 1] = 1.0, -1.0
        return _read_only(out)

    @cached_property
    def J(self) -> np.ndarray:
        # J(dz, dw) = (-conj(dw), conj(dz))
        zr = np.arange(0, 2 * self.n, 2)
        wr = zr + 2 * self.n
        out = np.zeros((self.dim, self.dim))
        out[wr, zr], out[wr + 1, zr + 1] = 1.0, -1.0
        out[zr, wr], out[zr + 1, wr + 1] = -1.0, 1.0
        return _read_only(out)

    @cached_property
    def K(self) -> np.ndarray:
        return _read_only(self.I @ self.J)

    def structures(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.I, self.J, self.K

    # -- Kähler triple ------------------------------------------------------------

    # each Kähler form as its antisymmetric matrix S^T:
    # omega(X, Y) = g(SX, Y) = X^T S^T Y

    @cached_property
    def omega1(self) -> np.ndarray:
        return self.I.T

    @cached_property
    def omega2(self) -> np.ndarray:
        return self.J.T

    @cached_property
    def omega3(self) -> np.ndarray:
        return self.K.T

    def kahler_triple(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """The three constant Kähler 2-forms in real coordinates, as (dim, dim) matrices."""
        return self.omega1, self.omega2, self.omega3


@lru_cache(maxsize=None)
def _shared_model(n: int) -> FlatModel:
    """The model of H^n, built on first use and shared by every caller at that n."""
    return FlatModel(n)


@dataclass(frozen=True)
class CircleActionSpec:
    """Integer weights of a diagonal circle action (k on z, l on w).

    The rotation degree n = k_j + l_j must be the same for every j so the
    complex symplectic form scales coherently under the action.
    """

    k: tuple
    l: tuple

    def __post_init__(self):
        k = tuple(int(x) for x in self.k)
        l = tuple(int(x) for x in self.l)
        if len(k) != len(l) or not k:
            raise ConfigError(f"k, l must be non-empty and of equal length, got {self.k}, {self.l}")
        if np.any(np.asarray(self.k) != np.asarray(k)) or np.any(
            np.asarray(self.l) != np.asarray(l)
        ):
            raise ConfigError(f"weights must be integers, got {self.k!r}, {self.l!r}")
        object.__setattr__(self, "k", k)
        object.__setattr__(self, "l", l)
        degrees = {ki + li for ki, li in zip(k, l)}
        if len(degrees) != 1:
            raise StructureError(
                f"k_j + l_j must be constant across coordinates, got {sorted(degrees)}"
            )

    @property
    def n(self) -> int:
        """Number of quaternionic coordinates."""
        return len(self.k)

    @property
    def degree(self) -> int:
        """Rotation degree: omega2 + i omega3 scales by e^{i degree t}."""
        return self.k[0] + self.l[0]

    def model(self) -> FlatModel:
        """The flat model of n coordinates, one shared object per n."""
        return _shared_model(self.n)


def _plane_weights(spec: CircleActionSpec) -> np.ndarray:
    """The weight of each real coordinate: k_j on both slots of z_j, l_j on those of w_j, (4n,)."""
    return np.repeat(np.array(spec.k + spec.l, dtype=float), 2)


def action_generator(spec: CircleActionSpec) -> np.ndarray:
    """Matrix A with flow p -> exp(t A) p; X(p) = A p: I with each row scaled by its weight."""
    return _plane_weights(spec)[:, None] * spec.model().I


def action_rotation(spec: CircleActionSpec, theta: float) -> np.ndarray:
    """The finite rotation exp(theta A) = cos(theta w) + sin(theta w) I, w the plane weights."""
    a = theta * _plane_weights(spec)
    return np.diag(np.cos(a)) + np.sin(a)[:, None] * spec.model().I


def action_vector_field(spec: CircleActionSpec, p) -> np.ndarray:
    """X = d/dt at t=0 of the weighted rotation through each point of p (k, 4n), (k, 4n)."""
    return _points(p, 4 * spec.n) @ action_generator(spec).T


def moment_map(spec: CircleActionSpec, p) -> np.ndarray:
    """Moment map mu = -1/2 sum(k|z|^2 + l|w|^2) of the action for omega1 at p (k, 4n), (k,).

    Normalized so mu(0) = 0; satisfies d mu = i_X omega1.  It is the
    weighted sum of squares -1/2 sum_i w_i p_i^2 over the plane weights
    w that the generator reads too, in one three-operand ``np.einsum``.
    Its reduction runs over each row's own coordinates in order, whatever
    the batch's size or memory order, so each row of a batch gives the
    same bits as that point alone (tested on C- and Fortran-ordered and
    column-sliced batches); a BLAS dot, or the two-operand einsum of
    (w p, p), rounds by the layout and does not.
    """
    P = _points(p, 4 * spec.n)
    return -0.5 * np.einsum("ki,i,ki->k", P, _plane_weights(spec), P)


def moment_field(spec: CircleActionSpec) -> ScalarField:
    return ScalarField(lambda p: moment_map(spec, p), dim=4 * spec.n)


def hyperholo_curvature(spec: CircleActionSpec, p, scheme: FDScheme) -> np.ndarray:
    """Curvature of the invariant line bundle attached to the action, at p (k, 4n).

    F = omega1 + dd^c(mu / n) with n the rotation degree (the moment map
    per unit of rotation of omega2 + i omega3); for the trivial action
    F = omega1.  The dd^c term is computed by nested finite differences,
    so this is constant in p only up to scheme error.  Returns the (k, nb)
    components.
    """
    model = spec.model()
    P = _points(p, model.dim)
    deg = spec.degree
    omega1 = model.omega1[_pair_indices(model.dim)]
    if deg == 0:
        return np.tile(omega1, (len(P), 1))
    mu = ScalarField(lambda q: moment_map(spec, q) / deg, dim=model.dim)
    return omega1 + ddc(mu, model.I, P, scheme)


#: the rotation angles at which rotation_degree_check samples the pullback
ROTATION_ANGLES = _read_only(np.linspace(0.1, 2 * np.pi - 0.1, 7))


def rotation_degree_check(spec: CircleActionSpec) -> float:
    """Max deviation of the finite pullback of omega2 + i omega3 from
    e^{i n theta} scaling, over the angles ROTATION_ANGLES.

    The pullback R^T M R is taken on the basis pairs (i, j), i < j, as the
    stacked products R[:, i]^T M R[:, j].
    """
    model = spec.model()
    omega_c = model.omega2 + 1j * model.omega3
    rows, cols = _pair_indices(model.dim)
    worst = 0.0
    for th in ROTATION_ANGLES:
        Rt = action_rotation(spec, float(th)).T
        pulled = (Rt[rows, None, :] @ omega_c @ Rt[cols, :, None])[:, 0, 0]
        expected = np.exp(1j * spec.degree * th) * omega_c[rows, cols]
        worst = max(worst, float(np.max(np.abs(pulled - expected))))
    return worst
