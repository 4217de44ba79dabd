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
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import StructureError
from .forms import FDScheme, FormValue, ScalarField, ddc

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


def _rot_block(sign: float = 1.0) -> np.ndarray:
    return np.array([[0.0, -sign], [sign, 0.0]])


class FlatModel:
    """Flat H^n: constant complex structures I, J, K, metric, Kähler triple."""

    def __init__(self, n: int = 1):
        if n < 1:
            raise ValueError("quaternionic dimension must be >= 1")
        self.n = n
        self.dim = 4 * n

    # -- coordinate packing --------------------------------------------------

    def z_slots(self, i: int) -> tuple[int, int]:
        """(Re, Im) coordinate indices of z_i (0-based)."""
        return 2 * i, 2 * i + 1

    def w_slots(self, i: int) -> tuple[int, int]:
        return 2 * self.n + 2 * i, 2 * self.n + 2 * i + 1

    def to_complex(self, p) -> tuple[np.ndarray, np.ndarray]:
        """(z, w) of a point, or of each row of an (m, 4n) batch."""
        p = np.asarray(p)
        z = p[..., : 2 * self.n : 2] + 1j * p[..., 1 : 2 * self.n : 2]
        w = p[..., 2 * self.n :: 2] + 1j * p[..., 2 * self.n + 1 :: 2]
        return z, w

    def from_complex(self, z, w) -> np.ndarray:
        z = np.atleast_1d(np.asarray(z, dtype=complex))
        w = np.atleast_1d(np.asarray(w, dtype=complex))
        p = np.empty(self.dim)
        p[: 2 * self.n : 2], p[1 : 2 * self.n : 2] = z.real, z.imag
        p[2 * self.n :: 2], p[2 * self.n + 1 :: 2] = w.real, w.imag
        return p

    # -- structures ------------------------------------------------------------

    @cached_property
    def I(self) -> np.ndarray:
        blocks = [_rot_block()] * (2 * self.n)
        out = np.zeros((self.dim, self.dim))
        for b, blk in enumerate(blocks):
            out[2 * b : 2 * b + 2, 2 * b : 2 * b + 2] = blk
        return out

    @cached_property
    def J(self) -> np.ndarray:
        out = np.zeros((self.dim, self.dim))
        for i in range(self.n):
            zr, zi = self.z_slots(i)
            wr, wi = self.w_slots(i)
            # J(dz, dw) = (-conj(dw), conj(dz))
            out[wr, zr] = 1.0
            out[wi, zi] = -1.0
            out[zr, wr] = -1.0
            out[zi, wi] = 1.0
        return out

    @cached_property
    def K(self) -> np.ndarray:
        return self.I @ self.J

    @cached_property
    def metric(self) -> np.ndarray:
        return np.eye(self.dim)

    def structures(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        return self.I, self.J, self.K

    # -- Kähler triple ------------------------------------------------------------

    def _omega_from(self, S: np.ndarray) -> FormValue:
        return FormValue.from_matrix(S.T)  # omega(X,Y) = g(SX,Y) = X^T S^T Y

    @cached_property
    def omega1(self) -> FormValue:
        return self._omega_from(self.I)

    @cached_property
    def omega2(self) -> FormValue:
        return self._omega_from(self.J)

    @cached_property
    def omega3(self) -> FormValue:
        return self._omega_from(self.K)

    def kahler_triple(self) -> tuple[FormValue, FormValue, FormValue]:
        """The three constant Kähler 2-forms in real coordinates."""
        return self.omega1, self.omega2, self.omega3

    # -- complex coordinate covectors -----------------------------------------------

    def dz(self, i: int) -> FormValue:
        zr, zi = self.z_slots(i)
        c = np.zeros(self.dim, dtype=complex)
        c[zr], c[zi] = 1.0, 1.0j
        return FormValue(1, self.dim, c)

    def dw(self, i: int) -> FormValue:
        wr, wi = self.w_slots(i)
        c = np.zeros(self.dim, dtype=complex)
        c[wr], c[wi] = 1.0, 1.0j
        return FormValue(1, self.dim, c)

    def dzbar(self, i: int) -> FormValue:
        return self.dz(i).conjugate()

    def dwbar(self, i: int) -> FormValue:
        return self.dw(i).conjugate()


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
            raise ValueError("weight vectors k, l must be non-empty, equal length")
        if np.any(np.asarray(self.k) != np.asarray(k)) or np.any(
            np.asarray(self.l) != np.asarray(l)
        ):
            raise ValueError("weights must be integers")
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
        return FlatModel(self.n)


def action_generator(spec: CircleActionSpec) -> np.ndarray:
    """Matrix A with flow p -> exp(t A) p; X(p) = A p."""
    model = spec.model()
    A = np.zeros((model.dim, model.dim))
    for i, (ki, li) in enumerate(zip(spec.k, spec.l)):
        zr, zi = model.z_slots(i)
        wr, wi = model.w_slots(i)
        A[zr : zi + 1, zr : zi + 1] = _rot_block(float(ki))
        A[wr : wi + 1, wr : wi + 1] = _rot_block(float(li))
    return A


def action_rotation(spec: CircleActionSpec, theta: float) -> np.ndarray:
    """The finite rotation matrix exp(theta * A) (block-diagonal, exact)."""
    model = spec.model()
    R = np.zeros((model.dim, model.dim))

    def rot(a):
        return np.array([[np.cos(a), -np.sin(a)], [np.sin(a), np.cos(a)]])

    for i, (ki, li) in enumerate(zip(spec.k, spec.l)):
        zr, _ = model.z_slots(i)
        wr, _ = model.w_slots(i)
        R[zr : zr + 2, zr : zr + 2] = rot(ki * theta)
        R[wr : wr + 2, wr : wr + 2] = rot(li * theta)
    return R


def action_vector_field(spec: CircleActionSpec, p) -> np.ndarray:
    """X(p) = d/dt at t=0 of the weighted rotation through p."""
    return action_generator(spec) @ np.asarray(p, dtype=float)


def moment_map(spec: CircleActionSpec, p) -> float | np.ndarray:
    """Moment map of the action for omega1: mu = -1/2 sum(k|z|^2 + l|w|^2).

    Normalized so mu(0) = 0; satisfies d mu = i_X omega1.  Returns a
    float for one point and an (m,) array for an (m, 4n) batch.  The
    weighted sums are reductions over the last axis, not BLAS dot
    products, whose rounding depends on the batch shape; so each row of
    a batch gives the same bits as that point alone.
    """
    model = spec.model()
    z, w = model.to_complex(p)
    k = np.asarray(spec.k, dtype=float)
    l = np.asarray(spec.l, dtype=float)
    mu = -0.5 * ((k * np.abs(z) ** 2).sum(-1) + (l * np.abs(w) ** 2).sum(-1))
    return float(mu) if mu.ndim == 0 else mu


def moment_field(spec: CircleActionSpec) -> ScalarField:
    return ScalarField(lambda p: moment_map(spec, p), dim=4 * spec.n)


def hyperholo_curvature(
    spec: CircleActionSpec, p, scheme: FDScheme | None = None
) -> FormValue:
    """Curvature of the invariant line bundle attached to the action.

    F = omega1 + dd^c(mu / n) with n the rotation degree (the moment map
    per unit of rotation of omega2 + i omega3); for the trivial action
    F = omega1.  The dd^c term is computed by nested finite differences,
    so this is constant in p only up to scheme error.
    """
    model = spec.model()
    deg = spec.degree
    if deg == 0:
        return model.omega1
    mu = ScalarField(lambda q: moment_map(spec, q) / deg, dim=model.dim)
    return model.omega1 + ddc(mu, model.I, p, scheme)


def rotation_degree_check(
    spec: CircleActionSpec, thetas: Sequence[float] | None = None
) -> float:
    """Max deviation of the finite pullback of omega2 + i omega3 from
    e^{i n theta} scaling, over sampled rotation angles."""
    from .forms import pullback

    model = spec.model()
    omega_c = model.omega2 + 1j * model.omega3
    if thetas is None:
        thetas = np.linspace(0.1, 2 * np.pi - 0.1, 7)
    worst = 0.0
    for th in thetas:
        R = action_rotation(spec, float(th))
        pulled = pullback(omega_c, R)
        expected = np.exp(1j * spec.degree * th) * omega_c
        worst = max(worst, float(np.max(np.abs(pulled.comps - expected.comps))))
    return worst
