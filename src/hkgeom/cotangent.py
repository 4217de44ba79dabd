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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import MetricError
from .forms import (
    FDScheme,
    FormValue,
    ScalarField,
    _as_matrices,
    dc_deriv,
    ddc,
    fd_gradient,
    type11_residual,
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
    "OMEGA3",
    "base_form",
    "potential_h",
    "potential_k",
    "bg_moment_map",
    "bg_omega1",
    "bg_curvature",
    "bg_curvature_residual",
    "bg_moment_residuals",
    "bg_structures",
    "bg_quaternionic_residual",
    "bg_hyperkahler_check",
]

SERIES_SWITCH = 1e-4

#: the constant complex structure I on the (Re b, Im b, Re v, Im v) chart
I = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)
I.flags.writeable = False
#: omega2 + i omega3 = db ^ dv on the chart (constant coefficients)
OMEGA2 = FormValue(2, 4, np.array([0.0, 1.0, 0.0, 0.0, -1.0, 0.0]))
OMEGA3 = FormValue(2, 4, np.array([0.0, 0.0, 1.0, 1.0, 0.0, 0.0]))


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


#: step of fu_identity_residual as a fraction of u, so the stencil stays in u > 0
_FU_STEP_FRACTION = 0.25


def fu_identity_residual(u_grid) -> float:
    """Max |d/du (u f(u)) - (sqrt(1+u)-1)/(2u)| with a 4th-order FD in u.

    The step is min(_FU_STEP_FRACTION * u, 0.05) so the stencil stays in u > 0.
    """
    u_grid = np.asarray(u_grid, dtype=float)
    worst = 0.0
    for u in u_grid:
        scheme = FDScheme(h=min(_FU_STEP_FRACTION * u, 0.05), order=4)
        fd = fd_gradient(lambda x: u_eval(x[:, 0]), [u], scheme)[0]
        target = (np.sqrt(1.0 + u) - 1.0) / (2.0 * u)
        worst = max(worst, abs(fd - target))
    return worst


def u_eval(u):
    """u * f(u) (the quantity differentiated in the defining identity)."""
    return u * f_profile(u)


# -- chart --------------------------------------------------------------------------


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
        """Chart coordinates (4,) of a point, or (m, 4) of a batch."""
        b, v = np.asarray(self.b), np.asarray(self.v)
        return np.stack([b.real, b.imag, v.real, v.imag], axis=-1)

    @classmethod
    def from_coords(cls, q) -> "CotangentPoint":
        """The point at chart coordinates q, or the batch of an (m, 4) array."""
        q = np.asarray(q, dtype=float)
        return cls(b=q[..., 0] + 1j * q[..., 1], v=q[..., 2] + 1j * q[..., 3])


def base_form(pt: CotangentPoint):
    """The pulled-back base Kähler form p*omega = 2 dx^dy / (1+|b|^2)^2.

    A FormValue at one point; the (m, 6) components at a batch point.
    The factor is Python float arithmetic on each b: numpy's complex
    ``abs`` and its ``** 2`` round differently from ``abs(complex)`` and
    the C ``pow`` in about a third and 0.1% of cases.
    """
    lam = [2.0 / (1.0 + abs(b) ** 2) ** 2 for b in np.ravel(pt.b).tolist()]
    comps = np.zeros(np.shape(pt.b) + (6,))
    comps[..., 0] = np.reshape(lam, np.shape(pt.b))
    return FormValue(2, 4, comps) if comps.ndim == 1 else comps


# -- potentials and moment map ----------------------------------------------------------


def _paired(pt: CotangentPoint, profile):
    """u profile(u) / 2 at pt, with u = (1+|b|^2)^2 |v|^2.

    A batch point gives an (m,) array.  A single point is evaluated as a
    batch of one, because numpy rounds some scalar operations (``x ** 2``)
    differently from array ones, and a batch row must equal its point.
    """
    batch = np.ndim(pt.b) > 0
    b, v = np.atleast_1d(pt.b), np.atleast_1d(pt.v)
    u = (1.0 + np.abs(b) ** 2) ** 2 * np.abs(v) ** 2
    value = 0.5 * u * profile(u)
    return value if batch else float(value[0])


def potential_h(pt: CotangentPoint) -> float:
    """Hyperkähler potential h = (f(u)v, v) = u f(u) / 2."""
    return _paired(pt, f_profile)


def potential_k(pt: CotangentPoint) -> float:
    """Curvature potential k = (g(u)v, v) = u g(u) / 2 = h + mu."""
    return _paired(pt, g_profile)


def bg_moment_map(pt: CotangentPoint) -> float:
    """Moment map of the fibre circle action: mu = -2((uf)'(u) v, v) = -u (uf)'(u)."""
    return -2.0 * _paired(pt, uf_prime)


def _chart_field(op) -> ScalarField:
    return ScalarField(lambda q: op(CotangentPoint.from_coords(q)), dim=4)


# -- forms on the chart --------------------------------------------------------------------


def bg_omega1(pt: CotangentPoint, scheme: FDScheme | None = None):
    """omega1 = p*omega + dd^c h on the chart.

    Here and below, a batch point gives (m, 6) components where one point
    gives a FormValue, and (m,) residuals where it gives a float.
    """
    scheme = scheme or FDScheme()
    h = _chart_field(potential_h)
    return base_form(pt) + ddc(h, I, pt.coords, scheme)


def bg_curvature(pt: CotangentPoint, scheme: FDScheme | None = None):
    """Line-bundle curvature F = p*omega + dd^c k."""
    scheme = scheme or FDScheme()
    k = _chart_field(potential_k)
    return base_form(pt) + ddc(k, I, pt.coords, scheme)


def _comps(form) -> np.ndarray:
    return form.comps if isinstance(form, FormValue) else form


def _per_point(values):
    """A float for one point's value, the array itself for a batch."""
    return float(values) if np.ndim(values) == 0 else values


def bg_curvature_residual(pt: CotangentPoint, scheme: FDScheme | None = None):
    """Max component gap between p*omega + dd^c k and omega1 + dd^c mu."""
    scheme = scheme or FDScheme()
    mu = _chart_field(bg_moment_map)
    lhs = bg_omega1(pt, scheme) + ddc(mu, I, pt.coords, scheme)
    rhs = bg_curvature(pt, scheme)
    return _per_point(np.max(np.abs(_comps(lhs) - _comps(rhs)), axis=-1))


#: stencil for d/d lambda of h(lambda^{-1} v) at lambda = 1
_LAMBDA_SCHEME = FDScheme(h=1e-5, order=4)


def bg_moment_residuals(
    pt: CotangentPoint, scheme: FDScheme | None = None
) -> tuple[float, float]:
    """Two independent checks of the moment map value at pt.

    Returns (|mu - d/d lambda h(lambda^{-1} v)|_{lambda=1}|,
             |mu + i_X d^c h|) with X the fibre rotation field.
    """
    scheme = scheme or FDScheme()
    mu = bg_moment_map(pt)

    def h_scaled(lam):
        # v / lambda part by part, as Python divides a complex by a real
        v = pt.v.real / lam[:, 0] + 1j * (pt.v.imag / lam[:, 0])
        return potential_h(CotangentPoint(np.full(len(lam), pt.b), v))

    dh = fd_gradient(h_scaled, [1.0], _LAMBDA_SCHEME)[0]
    res_lambda = abs(mu - dh)

    h = _chart_field(potential_h)
    dch = dc_deriv(h, I, pt.coords, scheme)
    X = np.array([0.0, 0.0, -pt.v.imag, pt.v.real])  # d/dtheta of v -> e^{i theta} v
    res_ix = abs(mu + complex(dch(X)).real)
    return res_lambda, res_ix


def bg_structures(pt: CotangentPoint, scheme: FDScheme | None = None):
    """The triple (I, J, K) reconstructed from omega1 alone.

    g is built from (omega1, I); J from g^{-1} omega2 with omega2 the real
    part of the canonical symplectic form db^dv; K = I J.  At a batch
    point J and K are (m, 4, 4) stacks, and any bad row raises.
    """
    G = _as_matrices(_comps(bg_omega1(pt, scheme)), 4) @ I
    G_t = np.swapaxes(G, -1, -2)
    if np.max(np.abs(G - G_t)) > 1e-6:
        raise MetricError("reconstructed metric is not symmetric")
    G = 0.5 * (G + G_t)
    if np.linalg.eigvalsh(G).min() <= 0:
        raise MetricError("reconstructed metric is not positive definite")
    J = -np.linalg.solve(G, np.broadcast_to(OMEGA2.as_matrix(), G.shape))
    return I, J, I @ J


def bg_quaternionic_residual(J: np.ndarray):
    """||J^2 + Id||, max-abs over the entries, for J (4, 4) or each of (m, 4, 4)."""
    return _per_point(np.max(np.abs(J @ J + np.eye(4)), axis=(-2, -1)))


def bg_hyperkahler_check(pt: CotangentPoint, scheme: FDScheme | None = None) -> dict:
    """Keys 'J2' = ||J^2 + Id|| and 'type11_I/J/K' for F, with (I, J, K) = bg_structures."""
    _, J, K = bg_structures(pt, scheme)
    F = bg_curvature(pt, scheme)
    tol = 1e-4  # structure matrices carry FD error; residual reported separately
    return {
        "J2": bg_quaternionic_residual(J),
        "type11_I": type11_residual(F, I, structure_tol=tol),
        "type11_J": type11_residual(F, J, structure_tol=tol),
        "type11_K": type11_residual(F, K, structure_tol=tol),
    }
