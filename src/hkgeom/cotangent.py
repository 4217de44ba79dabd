"""Hyperkähler metric family on the cotangent bundle of a compact
hermitian symmetric space, realized at desk scale on T*CP^1.

The construction feeds the fibre covector v through two real-analytic
scalar profiles

    f(u) = (sqrt(1+u) - 1 - log((1 + sqrt(1+u))/2)) / u
    g(u) = -log((1 + sqrt(1+u))/2) / u

of the curvature-operator scalar u, giving a potential h = (f(u)v, v)
with omega1 = p*omega + dd^c h hyperkähler, a circle moment map
mu = -2((u f(u))' v, v) for the fibre rotation, and the curvature of
the associated line bundle F = omega1 + dd^c mu = p*omega + dd^c k
with k = (g(u)v, v).

Chart conventions for T*CP^1 (affine chart b on the base, fibre
coordinate v dual to db): real packing (Re b, Im b, Re v, Im v);
base Kähler form omega = 2 dx^dy / (1+|b|^2)^2 (integral class, Gauss
curvature 2); curvature-operator scalar u = (1+|b|^2)^2 |v|^2; dual
pairing (v, v) = u/2.  The identity (u f(u))' = (sqrt(1+u)-1)/(2u) and
the hyperkähler property J^2 = -Id jointly pin these normalizations;
both are verified in the test suite rather than assumed.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import MetricError, ModelError
from .forms import (
    FDScheme,
    FormValue,
    ScalarField,
    dc_deriv,
    ddc,
    type11_residual,
)

__all__ = [
    "f_profile",
    "g_profile",
    "uf_prime",
    "fu_identity_residual",
    "SERIES_SWITCH",
    "CotangentPoint",
    "SymmetricSpaceModel",
    "cp1_model",
    "potential_h",
    "potential_k",
    "bg_moment_map",
    "bg_omega1",
    "bg_curvature",
    "bg_curvature_residual",
    "bg_moment_residuals",
    "bg_hyperkahler_check",
]

SERIES_SWITCH = 1e-4

# Constant complex structure and canonical symplectic matrices on the
# (Re b, Im b, Re v, Im v) chart.
_I4 = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)
# omega2 + i omega3 = db ^ dv on the chart (constant coefficients)
_OMEGA2 = FormValue(2, 4, np.array([0.0, 1.0, 0.0, 0.0, -1.0, 0.0]))
_OMEGA3 = FormValue(2, 4, np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0]))


def _u_scalar(u):
    u = np.asarray(u, dtype=float)
    if np.any(u < 0):
        raise ValueError("profiles are defined for u >= 0")
    return u


def f_profile(u):
    """f(u), with a 4-term series below SERIES_SWITCH to avoid cancellation."""
    u = _u_scalar(u)
    out = np.empty_like(u)
    small = u < SERIES_SWITCH
    us = u[small]
    out[small] = 0.25 - us / 32.0 + us**2 / 96.0 - 5.0 * us**3 / 1024.0
    ub = u[~small]
    s = np.sqrt(1.0 + ub)
    out[~small] = (s - 1.0 - np.log((1.0 + s) / 2.0)) / ub
    return out if out.ndim else float(out)


def g_profile(u):
    """g(u) = -log((1+sqrt(1+u))/2)/u, with series fallback near 0."""
    u = _u_scalar(u)
    out = np.empty_like(u)
    small = u < SERIES_SWITCH
    us = u[small]
    out[small] = -0.25 + 3.0 * us / 32.0 - 5.0 * us**2 / 96.0 + 35.0 * us**3 / 1024.0
    ub = u[~small]
    out[~small] = -np.log((1.0 + np.sqrt(1.0 + ub)) / 2.0) / ub
    return out if out.ndim else float(out)


def uf_prime(u):
    """(u f(u))' = 1/(2(1+sqrt(1+u))), i.e. (sqrt(1+u)-1)/(2u)."""
    u = _u_scalar(u)
    out = np.asarray(1.0 / (2.0 * (1.0 + np.sqrt(1.0 + u))))
    return out if out.ndim else float(out)


def fu_identity_residual(u_grid, h_frac: float = 0.25) -> float:
    """Max |d/du (u f(u)) - (sqrt(1+u)-1)/(2u)| with a 4th-order FD in u.

    The step is min(h_frac * u, 0.05) so the stencil stays in u > 0.
    """
    u_grid = np.asarray(u_grid, dtype=float)
    worst = 0.0
    for u in u_grid:
        h = min(h_frac * u, 0.05)
        fd = (
            -u_eval(u + 2 * h)
            + 8.0 * u_eval(u + h)
            - 8.0 * u_eval(u - h)
            + u_eval(u - 2 * h)
        ) / (12.0 * h)
        target = (np.sqrt(1.0 + u) - 1.0) / (2.0 * u)
        worst = max(worst, abs(fd - target))
    return worst


def u_eval(u):
    """u * f(u) (the quantity differentiated in the defining identity)."""
    return u * f_profile(u)


# -- model --------------------------------------------------------------------------


@dataclass(frozen=True)
class CotangentPoint:
    """A point of T*CP^1 in the affine chart: base b, fibre covector v.

    b and v may also be complex arrays of one shape, which makes the
    point a batch; the chart fields evaluate their stencils that way.
    """

    b: complex
    v: complex

    @property
    def coords(self) -> np.ndarray:
        return np.array([self.b.real, self.b.imag, self.v.real, self.v.imag])

    @classmethod
    def from_coords(cls, q) -> "CotangentPoint":
        """The point at chart coordinates q, or the batch of an (m, 4) array."""
        q = np.asarray(q, dtype=float)
        return cls(b=q[..., 0] + 1j * q[..., 1], v=q[..., 2] + 1j * q[..., 3])


@dataclass(frozen=True)
class SymmetricSpaceModel:
    """Chart data for the cotangent-bundle family.

    fibre_operator returns the hermitian PSD curvature operator on the
    fibre (applied for the covector at the point); fibre_pairing the
    hermitian positive pairing matrix; base_form the pulled-back base
    Kähler form on the real chart.  For a batch point the fibre
    callbacks return stacked matrices, shape (m, d, d).
    """

    base_complex_dim: int
    chart_dim: int
    base_form: Callable[[CotangentPoint], FormValue]
    fibre_operator: Callable[[CotangentPoint], np.ndarray]
    fibre_pairing: Callable[[CotangentPoint], np.ndarray]

    def fibre_covector(self, pt: CotangentPoint) -> np.ndarray:
        return np.asarray(pt.v, dtype=complex)[..., None]

    @property
    def I(self) -> np.ndarray:
        return _I4

    @property
    def omega2(self) -> FormValue:
        return _OMEGA2

    @property
    def omega3(self) -> FormValue:
        return _OMEGA3


def cp1_model() -> SymmetricSpaceModel:
    """T*CP^1 chart model.

    Base form 2 dx^dy/(1+|b|^2)^2; scalar curvature operator
    u = (1+|b|^2)^2 |v|^2; pairing (v,v) = (1+|b|^2)^2 |v|^2 / 2.
    """

    def base_form(pt):
        lam = 2.0 / (1.0 + abs(pt.b) ** 2) ** 2
        return FormValue(2, 4, np.array([lam, 0.0, 0.0, 0.0, 0.0, 0.0]))

    def fibre_operator(pt):
        u = (1.0 + np.abs(pt.b) ** 2) ** 2 * np.abs(pt.v) ** 2
        return np.asarray(u, dtype=complex)[..., None, None]

    def fibre_pairing(pt):
        pairing = 0.5 * (1.0 + np.abs(pt.b) ** 2) ** 2
        return np.asarray(pairing, dtype=complex)[..., None, None]

    return SymmetricSpaceModel(
        base_complex_dim=1,
        chart_dim=4,
        base_form=base_form,
        fibre_operator=fibre_operator,
        fibre_pairing=fibre_pairing,
    )


# -- potentials and moment map ----------------------------------------------------------


def _spectral_apply(model, pt, profile, psd_tol: float = 1e-10):
    """(profile(U) v, v) with U the fibre operator, by eigendecomposition.

    Eigenvalues are clamped at -1e-12; values below -psd_tol raise.  A
    batch point is decomposed with one stacked eigh and gives an (m,)
    array; every matrix of the stack must be hermitian and PSD.  A
    single point is evaluated as a batch of one, because numpy rounds
    some scalar operations (``x ** 2``) differently from array ones.
    """
    batch = np.ndim(pt.b) > 0
    if not batch:
        pt = CotangentPoint(np.reshape(pt.b, 1), np.reshape(pt.v, 1))
    U = model.fibre_operator(pt)
    if np.max(np.abs(U - np.conj(np.swapaxes(U, -1, -2)))) > 1e-12:
        raise ModelError("curvature operator is not hermitian")
    evals, W = np.linalg.eigh(U)
    if evals.min() < -psd_tol:
        raise ModelError(
            f"curvature operator not PSD (min eigenvalue {evals.min():.3e})"
        )
    evals = np.clip(evals, -1e-12, None)
    evals = np.maximum(evals, 0.0)
    v = model.fibre_covector(pt)[..., None]
    Pv = model.fibre_pairing(pt) @ v
    fv = W @ (profile(evals)[..., None] * (np.conj(np.swapaxes(W, -1, -2)) @ v))
    value = np.sum(np.conj(fv) * Pv, axis=(-2, -1)).real
    return value if batch else float(value[0])


def potential_h(model: SymmetricSpaceModel, pt: CotangentPoint) -> float:
    """Hyperkähler potential h = (f(u)v, v)."""
    return _spectral_apply(model, pt, f_profile)


def potential_k(model: SymmetricSpaceModel, pt: CotangentPoint) -> float:
    """Curvature potential k = (g(u)v, v) = h + mu."""
    return _spectral_apply(model, pt, g_profile)


def bg_moment_map(model: SymmetricSpaceModel, pt: CotangentPoint) -> float:
    """Moment map of the fibre circle action: mu = -2((uf(u))' v, v)."""
    return -2.0 * _spectral_apply(model, pt, uf_prime)


def _chart_field(model, op) -> ScalarField:
    return ScalarField(
        lambda q: op(model, CotangentPoint.from_coords(q)),
        dim=model.chart_dim,
        vectorized=True,
    )


# -- forms on the chart --------------------------------------------------------------------


def bg_omega1(
    model: SymmetricSpaceModel, pt: CotangentPoint, scheme: FDScheme | None = None
) -> FormValue:
    """omega1 = p*omega + dd^c h on the chart."""
    scheme = scheme or FDScheme()
    h = _chart_field(model, potential_h)
    return model.base_form(pt) + ddc(h, model.I, pt.coords, scheme)


def bg_curvature(
    model: SymmetricSpaceModel, pt: CotangentPoint, scheme: FDScheme | None = None
) -> FormValue:
    """Line-bundle curvature F = p*omega + dd^c k."""
    scheme = scheme or FDScheme()
    k = _chart_field(model, potential_k)
    return model.base_form(pt) + ddc(k, model.I, pt.coords, scheme)


def bg_curvature_residual(
    model: SymmetricSpaceModel, pt: CotangentPoint, scheme: FDScheme | None = None
) -> float:
    """Max component gap between p*omega + dd^c k and omega1 + dd^c mu."""
    scheme = scheme or FDScheme()
    mu = _chart_field(model, bg_moment_map)
    lhs = bg_omega1(model, pt, scheme) + ddc(mu, model.I, pt.coords, scheme)
    rhs = bg_curvature(model, pt, scheme)
    return float(np.max(np.abs(lhs.comps - rhs.comps)))


def bg_moment_residuals(
    model: SymmetricSpaceModel, pt: CotangentPoint, scheme: FDScheme | None = None
) -> tuple[float, float]:
    """Two independent checks of the moment map value at pt.

    Returns (|mu - d/d lambda h(lambda^{-1} v)|_{lambda=1}|,
             |mu + i_X d^c h|) with X the fibre rotation field.
    """
    scheme = scheme or FDScheme()
    mu = bg_moment_map(model, pt)

    def h_scaled(lam):
        return potential_h(model, CotangentPoint(pt.b, pt.v / lam))

    dl = 1e-5
    dh = (
        -h_scaled(1.0 + 2 * dl)
        + 8.0 * h_scaled(1.0 + dl)
        - 8.0 * h_scaled(1.0 - dl)
        + h_scaled(1.0 - 2 * dl)
    ) / (12.0 * dl)
    res_lambda = abs(mu - dh)

    h = _chart_field(model, potential_h)
    dch = dc_deriv(h, model.I, pt.coords, scheme)
    X = np.array([0.0, 0.0, -pt.v.imag, pt.v.real])  # d/dtheta of v -> e^{i theta} v
    res_ix = abs(mu + complex(dch(X)).real)
    return res_lambda, res_ix


def bg_hyperkahler_check(
    model: SymmetricSpaceModel, pt: CotangentPoint, scheme: FDScheme | None = None
) -> dict:
    """Reconstruct the metric and the full triple; return the residual report.

    g is built from (omega1, I); J from g^{-1} omega2 with omega2 the real
    part of the canonical symplectic form db^dv; K = I J.  Keys:
    'J2' = ||J^2 + Id||, and 'type11_I/J/K' for the curvature F.
    """
    scheme = scheme or FDScheme()
    w1 = bg_omega1(model, pt, scheme)
    G = w1.as_matrix() @ model.I
    if np.max(np.abs(G - G.T)) > 1e-6:
        raise MetricError("reconstructed metric is not symmetric")
    G = 0.5 * (G + G.T)
    if np.linalg.eigvalsh(G).min() <= 0:
        raise MetricError("reconstructed metric is not positive definite")
    J = -np.linalg.solve(G, model.omega2.as_matrix())
    K = model.I @ J
    F = bg_curvature(model, pt, scheme)
    tol = 1e-4  # structure matrices carry FD error; residual reported separately
    return {
        "J2": float(np.max(np.abs(J @ J + np.eye(4)))),
        "type11_I": type11_residual(F, model.I, structure_tol=tol),
        "type11_J": type11_residual(F, J, structure_tol=tol),
        "type11_K": type11_residual(F, K, structure_tol=tol),
    }
