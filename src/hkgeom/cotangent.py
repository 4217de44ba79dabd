"""The hyperkähler metric on T*CP^1 and its line bundle, in closed form.

Everything is an explicit function of one scalar, u = (1+|b|^2)^2 |v|^2,
through the two real-analytic profiles

    f(u) = (sqrt(1+u) - 1 - log((1 + sqrt(1+u))/2)) / u
    g(u) = -log((1 + sqrt(1+u))/2) / u.

With the fibre pairing (v, v) = u/2 the hyperkähler potential is
h = u f(u)/2, so omega1 = p*omega + dd^c h; the fibre rotation has moment
map mu = -u (u f)'(u); and the curvature of the hyperholomorphic line
bundle is F = omega1 + dd^c mu = p*omega + dd^c k with k = u g(u)/2.

Chart conventions (affine chart b on the base, fibre coordinate v dual
to db): real packing (Re b, Im b, Re v, Im v); base Kähler form
omega = 2 dx^dy / (1+|b|^2)^2 (integral class, Gauss curvature 2).  The
identity (u f(u))' = (sqrt(1+u)-1)/(2u) and the hyperkähler property
J^2 = -Id jointly pin these normalizations; both are verified in the
test suite rather than assumed.

Every function of a point takes a batch: a :class:`CotangentPoint` of k
points (b and v of shape (k,)), and returns one row per point, (k,)
values, (k, 6) form components or (k, 4, 4) matrices, each row equal to
that point alone in a batch of one.  The profiles f, g and (u f)' act
elementwise on arrays of u.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConfigError, MetricError
from .flatspace import _shared_model
from .forms import (
    _OFFSETS,
    FDScheme,
    ScalarField,
    _as_matrices,
    _fd_reduce,
    _points,
    dc_deriv,
    ddc,
)

__all__ = [
    "f_profile",
    "g_profile",
    "uf_prime",
    "fu_identity_residual",
    "SERIES_SWITCH",
    "CotangentPoint",
    "I",
    "OMEGA2",
    "base_form",
    "potential_h",
    "potential_k",
    "bg_moment_map",
    "bg_omega1",
    "bg_curvature",
    "bg_curvature_residual",
    "bg_scaling_residual",
    "bg_contraction_residual",
    "bg_structures",
    "bg_quaternionic_residual",
]

SERIES_SWITCH = 1e-4

#: the (Re b, Im b, Re v, Im v) chart is flat H^1 with (z, w) = (b, v); I and
#: omega2 = Re(db ^ dv) are its constant structure and form, omega2 made
#: contiguous since BLAS may round a product with a transposed view differently
_CHART = _shared_model(1)
I, OMEGA2 = _CHART.I, np.ascontiguousarray(_CHART.omega2)
OMEGA2.flags.writeable = False  # I is read-only already, as FlatModel's structures are


def _u_array(u):
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("profiles are defined for u >= 0")
    return u


def f_profile(u):
    """f(u), with a 4-term series below SERIES_SWITCH to avoid cancellation."""
    u = _u_array(u)
    out = np.empty_like(u)
    small = u < SERIES_SWITCH
    us = u[small]
    out[small] = 0.25 - us / 32.0 + us**2 / 96.0 - 5.0 * us**3 / 1024.0
    ub = u[~small]
    s = np.sqrt(1.0 + ub)
    out[~small] = (s - 1.0 - np.log((1.0 + s) / 2.0)) / ub
    return out


def g_profile(u):
    """g(u) = -log((1+sqrt(1+u))/2)/u, with series fallback near 0."""
    u = _u_array(u)
    out = np.empty_like(u)
    small = u < SERIES_SWITCH
    us = u[small]
    out[small] = -0.25 + 3.0 * us / 32.0 - 5.0 * us**2 / 96.0 + 35.0 * us**3 / 1024.0
    ub = u[~small]
    out[~small] = -np.log((1.0 + np.sqrt(1.0 + ub)) / 2.0) / ub
    return out


def uf_prime(u):
    """(u f(u))' = 1/(2(1+sqrt(1+u))), i.e. (sqrt(1+u)-1)/(2u)."""
    u = _u_array(u)
    return 1.0 / (2.0 * (1.0 + np.sqrt(1.0 + u)))


#: step of fu_identity_residual as a fraction of u, so the stencil stays in u > 0
_FU_STEP_FRACTION = 0.25


def fu_identity_residual(u_grid) -> float:
    """Max |d/du (u f(u)) - (sqrt(1+u)-1)/(2u)| with a 4th-order FD in u.

    The step is min(_FU_STEP_FRACTION * u, 0.05) so the stencil stays in
    u > 0.  One 4-point stencil covers the whole grid, each value with its
    own step; a NaN at any value makes the residual NaN.
    """
    u = np.asarray(u_grid, dtype=float)
    h = np.minimum(_FU_STEP_FRACTION * u, 0.05)
    vals = u_eval(u + np.array(_OFFSETS[4])[:, None] * h)
    target = (np.sqrt(1.0 + u) - 1.0) / (2.0 * u)
    return float(np.max(np.abs(_fd_reduce(vals, 4, h) - target)))


def u_eval(u):
    """u * f(u) (the quantity differentiated in the defining identity)."""
    return u * f_profile(u)


# -- chart --------------------------------------------------------------------------


@dataclass(frozen=True)
class CotangentPoint:
    """k points of T*CP^1 in the affine chart: bases b and fibre covectors v, complex (k,)."""

    b: np.ndarray
    v: np.ndarray

    def __post_init__(self):
        b = np.asarray(self.b, dtype=complex)
        v = np.asarray(self.v, dtype=complex)
        if b.ndim != 1 or b.shape != v.shape:
            raise ConfigError(f"b and v must both have shape (k,), got {b.shape} and {v.shape}")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "v", v)

    @property
    def coords(self) -> np.ndarray:
        """Chart coordinates (k, 4)."""
        return _CHART.from_complex(self.b[:, None], self.v[:, None])

    @classmethod
    def from_coords(cls, q) -> "CotangentPoint":
        """The points at chart coordinates q (k, 4), bit for bit (read-only views of q)."""
        b, v = _CHART.to_complex(_points(q, 4))
        return cls(b=b[:, 0], v=v[:, 0])


def base_form(pt: CotangentPoint) -> np.ndarray:
    """The pulled-back base Kähler form p*omega = 2 dx^dy / (1+|b|^2)^2, components (k, 6).

    The factor is Python float arithmetic on each b: numpy's complex
    ``abs`` and its ``** 2`` round differently from ``abs(complex)`` and
    the C ``pow`` in about a third and 0.1% of cases.
    """
    comps = np.zeros((len(pt.b), 6))
    comps[:, 0] = [2.0 / (1.0 + abs(b) ** 2) ** 2 for b in pt.b.tolist()]
    return comps


# -- potentials and moment map ----------------------------------------------------------


def _paired(pt: CotangentPoint, profile) -> np.ndarray:
    """u profile(u) / 2 at each point, with u = (1+|b|^2)^2 |v|^2, (k,)."""
    u = (1.0 + np.abs(pt.b) ** 2) ** 2 * np.abs(pt.v) ** 2
    return 0.5 * u * profile(u)


def potential_h(pt: CotangentPoint) -> np.ndarray:
    """Hyperkähler potential h = (f(u)v, v) = u f(u) / 2, (k,)."""
    return _paired(pt, f_profile)


def potential_k(pt: CotangentPoint) -> np.ndarray:
    """Curvature potential k = (g(u)v, v) = u g(u) / 2 = h + mu, (k,)."""
    return _paired(pt, g_profile)


def bg_moment_map(pt: CotangentPoint) -> np.ndarray:
    """Moment map of the fibre circle action: mu = -2((uf)'(u) v, v) = -u (uf)'(u), (k,)."""
    return -2.0 * _paired(pt, uf_prime)


def _chart_field(op) -> ScalarField:
    return ScalarField(lambda q: op(CotangentPoint.from_coords(q)), dim=4)


# -- forms on the chart --------------------------------------------------------------------


def bg_omega1(pt: CotangentPoint, scheme: FDScheme) -> np.ndarray:
    """omega1 = p*omega + dd^c h on the chart, components (k, 6)."""
    h = _chart_field(potential_h)
    return base_form(pt) + ddc(h, I, pt.coords, scheme)


def bg_curvature(pt: CotangentPoint, scheme: FDScheme) -> np.ndarray:
    """Line-bundle curvature F = p*omega + dd^c k, components (k, 6)."""
    k = _chart_field(potential_k)
    return base_form(pt) + ddc(k, I, pt.coords, scheme)


def bg_curvature_residual(pt: CotangentPoint, scheme: FDScheme) -> np.ndarray:
    """Max component gap between p*omega + dd^c k and omega1 + dd^c mu, (k,)."""
    mu = _chart_field(bg_moment_map)
    lhs = bg_omega1(pt, scheme) + ddc(mu, I, pt.coords, scheme)
    return np.max(np.abs(lhs - bg_curvature(pt, scheme)), axis=-1)


#: stencil for d/d lambda of h(lambda^{-1} v) at lambda = 1
_LAMBDA_SCHEME = FDScheme(h=1e-5, order=4)


def bg_scaling_residual(pt: CotangentPoint) -> np.ndarray:
    """|mu - d/d lambda h(lambda^{-1} v)|_{lambda=1}| at each point, (k,).

    One potential_h call covers every point's lambda stencil, whose step is fixed.
    """
    order, step = _LAMBDA_SCHEME.order, _LAMBDA_SCHEME.h
    # lambda = 1 + offset * step, laid out (offset, point); v / lambda part
    # by part, as Python divides a complex by a real
    lam = 1.0 + np.array(_OFFSETS[order])[:, None] * step
    v = pt.v.real / lam + 1j * (pt.v.imag / lam)
    b = np.broadcast_to(pt.b, v.shape)
    h_scaled = potential_h(CotangentPoint(b.ravel(), v.ravel())).reshape(v.shape)
    return np.abs(bg_moment_map(pt) - _fd_reduce(h_scaled, order, step))


def bg_contraction_residual(pt: CotangentPoint, scheme: FDScheme) -> np.ndarray:
    """|mu + i_X d^c h| at each point, X the fibre rotation field, (k,).

    d^c h comes from one dc_deriv call.  The pairing with X is a stacked
    (1, 4) @ (4, 1) product, which rounds each row as a dot product of
    that row alone does.
    """
    dch = dc_deriv(_chart_field(potential_h), I, pt.coords, scheme)
    zero = np.zeros(len(pt.v))
    X = np.stack([zero, zero, -pt.v.imag, pt.v.real], axis=-1)  # d/dtheta of v -> e^{i theta} v
    return np.abs(bg_moment_map(pt) + (dch[:, None, :] @ X[:, :, None])[:, 0, 0])


def bg_structures(pt: CotangentPoint, scheme: FDScheme):
    """The triple (I, J, K) reconstructed from omega1 alone.

    g is built from (omega1, I); J from g^{-1} omega2 with omega2 the real
    part of the canonical symplectic form db^dv; K = I J.  J and K are
    (k, 4, 4) stacks, and any bad row raises.
    """
    G = _as_matrices(bg_omega1(pt, scheme), 4) @ I
    G_t = np.swapaxes(G, -1, -2)
    if np.max(np.abs(G - G_t)) > 1e-6:
        raise MetricError("reconstructed metric is not symmetric")
    G = 0.5 * (G + G_t)
    if np.linalg.eigvalsh(G).min() <= 0:
        raise MetricError("reconstructed metric is not positive definite")
    J = -np.linalg.solve(G, np.broadcast_to(OMEGA2, G.shape))
    return I, J, I @ J


def bg_quaternionic_residual(J: np.ndarray) -> np.ndarray:
    """||J^2 + Id||, max-abs over the entries, for each J of (k, 4, 4), (k,)."""
    return np.max(np.abs(J @ J + np.eye(4)), axis=(-2, -1))

