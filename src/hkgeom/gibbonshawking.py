"""Multi-centre circle-fibred hyperkahler metrics (Gibbons-Hawking form).

The spaces here fibre over R^3 minus a finite set of collinear centres
a_1 < ... < a_{k+1} on the x1-axis.  With V = sum_i w_i / |x - a_i| and a
1-form alpha solving dalpha = *dV, the metric

    g = V (dx1^2 + dx2^2 + dx3^2) + V^{-1} (dtheta + alpha)^2

is hyperkahler with Kahler forms omega_i = V dx_j ^ dx_k + dx_i ^ (dtheta
+ alpha).  The module also carries the lift data of the x1-axis rotation
(the function f), the associated monopole (phi, A) on R^3, and the induced
anti-self-dual connection form Ahat on the total space.

Chart coordinates are ordered (x1, x2, x3, theta); the positive
orientation is the coordinate order, which makes the omega_i self-dual.

Functions of a base point take x of shape (..., 3) and return (...)
values (a float for one point) or (..., 3) covectors; chart fields take
(m, 4) batches.  Each of alpha, A, Ahat and omega_i is one batch formula,
which the one-point functions evaluate on a batch of one.
Dirac-string gauges: "string-down" puts every string on the axis below
its centre (alpha regular above), "string-up" the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .forms import (
    FDScheme,
    FormField,
    FormValue,
    ext_deriv,
    fd_gradient,
    hodge_star,
    interior_product,
    surface_integral,
)

GAUGES = ("string-down", "string-up")

#: cylindrical regularisation: 1-forms built from the azimuthal angle are
#: refused closer to the x1-axis than this
MIN_AXIS_RADIUS = 1e-3

#: scalar evaluations are refused closer to a centre than this
CENTER_MARGIN = 1e-8


@dataclass(frozen=True)
class GHConfig:
    """Centre positions on the x1-axis, lift constant, per-centre weights.

    Unit weights give the standard multi-instanton potential
    V = sum 1/|x - a_i|; the single centre with weight 1/2 is the flat-space
    calibration case V = 1/(2r).
    """

    centers: tuple
    c: float = 0.0
    weights: tuple | None = None

    def __post_init__(self):
        centers = tuple(float(a) for a in self.centers)
        if len(centers) < 1:
            raise ConfigError("need at least one centre")
        if not all(np.isfinite(centers)):
            raise ConfigError("centres must be finite")
        if any(b - a <= 0 for a, b in zip(centers, centers[1:])):
            raise ConfigError("centres must be strictly increasing")
        weights = self.weights
        if weights is None:
            weights = (1.0,) * len(centers)
        weights = tuple(float(w) for w in weights)
        if len(weights) != len(centers):
            raise ConfigError("one weight per centre required")
        if not all(0 < w < np.inf for w in weights):
            raise ConfigError("weights must be finite and positive")
        c = float(self.c)
        if not np.isfinite(c):
            raise ConfigError("c must be finite")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "c", c)

    @property
    def num_centers(self) -> int:
        return len(self.centers)

    @property
    def top(self) -> float:
        return self.centers[-1]

    @property
    def spacings(self) -> tuple:
        return tuple(b - a for a, b in zip(self.centers, self.centers[1:]))

    @property
    def dirac_charges(self) -> tuple:
        """Monopole coefficients w_i (a_top - a_i); the top centre drops out."""
        return tuple(w * (self.top - a) for a, w in zip(self.centers, self.weights))


def flat_calibration_config() -> GHConfig:
    """Single centre of weight 1/2 at the origin: V = 1/(2r), the flat metric."""
    return GHConfig(centers=(0.0,), weights=(0.5,))


@dataclass(frozen=True)
class GHPoint:
    """A chart point: base position x in R^3, fibre angle, Dirac gauge."""

    x: tuple
    theta: float = 0.0
    gauge: str = "string-down"

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        if x.shape != (3,):
            raise ConfigError("base point must be a 3-vector")
        _string_sign(self.gauge)  # validates the gauge
        object.__setattr__(self, "x", tuple(x))
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def chart(self) -> np.ndarray:
        """Coordinates (x1, x2, x3, theta)."""
        return np.array([*self.x, self.theta])

    @property
    def string_sign(self) -> float:
        return _string_sign(self.gauge)


# -- base-space scalars ------------------------------------------------------------


def _offsets(cfg: GHConfig, x) -> np.ndarray:
    """x - a_i for every centre: (..., 3) -> (..., k, 3)."""
    x = np.asarray(x, dtype=float)
    d = np.repeat(x[..., None, :], cfg.num_centers, axis=-2)
    d[..., 0] -= np.asarray(cfg.centers)
    return d


def _distances(cfg: GHConfig, x, margin: float = CENTER_MARGIN) -> np.ndarray:
    """|x - a_i| for every centre: (..., 3) -> (..., k)."""
    r = np.linalg.norm(_offsets(cfg, x), axis=-1)
    if np.any(r <= margin):
        raise DomainError(f"point within {margin:.1e} of a centre")
    return r


def _scalar_or_batch(values):
    """A float for the value at one point, the array itself for a batch."""
    return float(values) if np.ndim(values) == 0 else values


def center_clearance(cfg: GHConfig) -> Callable:
    """Distance-to-centres callback, for use as a field clearance."""

    def clear(x):
        return float(np.linalg.norm(_offsets(cfg, np.asarray(x)[:3]), axis=1).min())

    return clear


def chart_clearance(cfg: GHConfig) -> Callable:
    """Distance to the nearer of the centres and the x1-axis.

    Takes a chart point (x1, x2, x3, theta) or a base point (x1, x2, x3).
    """

    def clear(p):
        p = np.asarray(p, dtype=float)
        rho = float(np.hypot(p[1], p[2]))
        return min(rho, float(np.linalg.norm(_offsets(cfg, p[:3]), axis=1).min()))

    return clear


def gh_potential(cfg: GHConfig, x):
    """V(x) = sum_i w_i / |x - a_i|, for x of shape (..., 3)."""
    r = _distances(cfg, x)
    return _scalar_or_batch(np.sum(np.asarray(cfg.weights) * (1.0 / r), axis=-1))


def potential_gradient(cfg: GHConfig, x) -> np.ndarray:
    """Closed-form grad V = -sum_i w_i (x - a_i) / r_i^3."""
    d = _offsets(cfg, x)
    r = _distances(cfg, x)
    return -np.einsum("i,ij->j", np.asarray(cfg.weights) / r**3, d)


def rotation_lift_f(cfg: GHConfig, x):
    """Hamiltonian-lift function f = sum_i w_i (x1 - a_i)/|x - a_i| + c, x of shape (..., 3).

    On any open axis segment every term is exactly +/- w_i, so f is
    locally constant there; with unit weights, c = 0 and an even number
    of centres it vanishes identically on the middle segment.
    """
    d = _offsets(cfg, x)
    r = _distances(cfg, x)
    return _scalar_or_batch(np.sum(np.asarray(cfg.weights) * (d[..., 0] / r), axis=-1) + cfg.c)


def lift_gradient(cfg: GHConfig, x) -> np.ndarray:
    """Closed-form df: sum_i w_i (e1 / r_i - (x1 - a_i) (x - a_i) / r_i^3)."""
    d = _offsets(cfg, x)
    r = _distances(cfg, x)
    w = np.asarray(cfg.weights)
    out = -np.einsum("i,ij->j", w * d[:, 0] / r**3, d)
    out[0] += float(np.dot(w, 1.0 / r))
    return out


def lift_identity_residual(cfg: GHConfig, x) -> float:
    """Residual of df + i_X (*dV) = 0 for the axis rotation X = x2 d3 - x3 d2.

    Componentwise, i_X(*dV) = (x2 V_2 + x3 V_3, -x2 V_1, -x3 V_1) in the
    basis (dx1, dx2, dx3); the lift gradient is its negative.
    """
    x = np.asarray(x, dtype=float)
    grad_v = potential_gradient(cfg, x)
    ix_star_dv = np.array(
        [
            x[1] * grad_v[1] + x[2] * grad_v[2],
            -x[1] * grad_v[0],
            -x[2] * grad_v[0],
        ]
    )
    return float(np.max(np.abs(lift_gradient(cfg, x) + ix_star_dv)))


def f_segment_values(cfg: GHConfig) -> tuple:
    """Exact constants of f on the k+2 open axis segments, left to right."""
    w = cfg.weights
    vals = []
    for below in range(cfg.num_centers + 1):
        vals.append(float(sum(w[:below]) - sum(w[below:]) + cfg.c))
    return tuple(vals)


def monopole_phi(cfg: GHConfig, x):
    """phi = sum_i w_i (a_top - a_i)/|x - a_i| + c, for x of shape (..., 3).

    The top term drops out.
    """
    r = _distances(cfg, x)
    return _scalar_or_batch(np.sum(np.asarray(cfg.dirac_charges) * (1.0 / r), axis=-1) + cfg.c)


def phi_identity_residual(cfg: GHConfig, x) -> float:
    """|phi - (-x1 V + f + a_top V)|: the two monopole displays differ by the
    gauge shift with constant a_top."""
    x = np.asarray(x, dtype=float)
    v = gh_potential(cfg, x)
    alt = -x[0] * v + rotation_lift_f(cfg, x) + cfg.top * v
    return abs(monopole_phi(cfg, x) - alt)


# -- gauge-dependent 1-forms --------------------------------------------------------


def _azimuth_covector(x) -> np.ndarray:
    """d(azimuth) = (x2 dx3 - x3 dx2)/rho^2: (..., 3) -> covectors (..., 3)."""
    x = np.asarray(x, dtype=float)
    rho2 = x[..., 1] ** 2 + x[..., 2] ** 2
    if np.any(rho2 < MIN_AXIS_RADIUS**2):
        raise DomainError(
            f"point at cylindrical radius {np.sqrt(rho2.min()):.1e} is inside the "
            f"axis regularisation radius {MIN_AXIS_RADIUS:.1e}"
        )
    return np.stack([np.zeros_like(rho2), -x[..., 2] / rho2, x[..., 1] / rho2], axis=-1)


def _string_sign(gauge: str) -> float:
    if gauge not in GAUGES:
        raise ConfigError(f"gauge must be one of {GAUGES}")
    return -1.0 if gauge == "string-down" else 1.0


def _string_potential(cfg: GHConfig, x, charges, gauge: str) -> np.ndarray:
    """sum_i q_i ((x1 - a_i)/r_i + s) d(azimuth): (..., 3) -> covectors (..., 3).

    s is the gauge's string sign.  The charges ``cfg.weights`` give alpha
    and ``cfg.dirac_charges`` give A.
    """
    d = _offsets(cfg, x)
    r = _distances(cfg, x)
    coeff = np.sum(np.asarray(charges) * (d[..., 0] / r + _string_sign(gauge)), axis=-1)
    return coeff[..., None] * _azimuth_covector(x)


def gh_alpha(cfg: GHConfig, pt: GHPoint) -> FormValue:
    """The fibration connection alpha with dalpha = *dV, in pt's gauge."""
    return FormValue(1, 3, _string_potential(cfg, np.array([pt.x]), cfg.weights, pt.gauge)[0])


def alpha_field(cfg: GHConfig, gauge: str = "string-down") -> FormField:
    """alpha as a FormField on R^3: (m, 3) batches -> (m, 3) components."""
    clear = chart_clearance(cfg)
    return FormField(lambda x: _string_potential(cfg, x, cfg.weights, gauge), 1, 3, clearance=clear)


def monopole_A(cfg: GHConfig, pt: GHPoint) -> FormValue:
    """The monopole potential A with dA = *dphi, in pt's gauge."""
    cov = _string_potential(cfg, np.array([pt.x]), cfg.dirac_charges, pt.gauge)
    return FormValue(1, 3, cov[0])


@dataclass(frozen=True)
class MonopoleData:
    """A harmonic scalar and a gauge potential with dA = *dphi.

    Both are batch callbacks on R^3: ``phi`` maps (m, 3) points to (m,)
    values and ``A`` to the (m, 3) components of the 1-form.
    """

    phi: Callable
    A: Callable
    gauge: str = "string-down"

    @classmethod
    def from_config(cls, cfg: GHConfig, gauge: str = "string-down") -> "MonopoleData":
        _string_sign(gauge)  # validates the gauge
        return cls(
            phi=lambda x: monopole_phi(cfg, x),
            A=lambda x: _string_potential(cfg, x, cfg.dirac_charges, gauge),
            gauge=gauge,
        )


# -- metric and Kahler triple -------------------------------------------------------


def gh_metric(cfg: GHConfig, pt: GHPoint) -> np.ndarray:
    """g = V dx.dx + V^{-1} (dtheta + alpha)^2 in chart coordinates."""
    v = gh_potential(cfg, pt.x)
    eta = np.append(gh_alpha(cfg, pt).comps, 1.0)  # dtheta + alpha
    g = np.zeros((4, 4))
    g[:3, :3] = v * np.eye(3)
    g += np.outer(eta, eta) / v
    return g


def _kahler_comps(cfg: GHConfig, p, gauge: str) -> np.ndarray:
    """(omega_1, omega_2, omega_3) at chart points (m, 4), as components (m, 3, 6).

    omega_i = V dx_j ^ dx_k + dx_i ^ (dtheta + alpha), (i, j, k) cyclic, on
    the basis (01, 02, 03, 12, 13, 23).
    """
    x = np.asarray(p, dtype=float)[:, :3]
    v = gh_potential(cfg, x)
    a1, a2, a3 = _string_potential(cfg, x, cfg.weights, gauge).T
    o, l = np.zeros_like(v), np.ones_like(v)
    rows = ((a2, a3, l, v, o, o), (-a1, -v, o, a3, l, o), (v, -a1, o, -a2, o, l))
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def gh_kahler_triple(cfg: GHConfig, pt: GHPoint):
    """(omega_1, omega_2, omega_3): V dx_j^dx_k + dx_i^(dtheta+alpha), cyclic."""
    return tuple(FormValue(2, 4, c) for c in _kahler_comps(cfg, pt.chart[None, :], pt.gauge)[0])


def kahler_field(cfg: GHConfig, i: int, gauge: str = "string-down") -> FormField:
    """omega_i as a chart FormField, (m, 4) batches -> (m, 6) components."""
    if i not in (1, 2, 3):
        raise ConfigError("Kahler index must be 1, 2 or 3")
    return FormField(
        lambda p: _kahler_comps(cfg, p, gauge)[:, i - 1], 2, 4, clearance=chart_clearance(cfg)
    )


# -- the anti-self-dual connection ---------------------------------------------------


def _ahat_comps(cfg: GHConfig, p, gauge: str, gauge_shift: float) -> np.ndarray:
    """Ahat = A - phi V^{-1} (dtheta + alpha) at chart points (m, 4), as components (m, 4)."""
    x = np.asarray(p, dtype=float)[:, :3]
    v = gh_potential(cfg, x)
    ratio = ((monopole_phi(cfg, x) + gauge_shift * v) / v)[:, None]
    alpha = _string_potential(cfg, x, cfg.weights, gauge)
    a_cov = _string_potential(cfg, x, cfg.dirac_charges, gauge) + gauge_shift * alpha
    return np.concatenate([a_cov - ratio * alpha, -ratio], axis=-1)


def connection_Ahat(cfg: GHConfig, pt: GHPoint, gauge_shift: float = 0.0) -> FormValue:
    """Ahat = A - phi V^{-1} (dtheta + alpha) in chart coordinates.

    `gauge_shift` applies the monopole gauge freedom (A, phi) ->
    (A + shift * alpha, phi + shift * V), which changes Ahat by the closed
    form -shift * dtheta and so leaves the curvature unchanged.
    """
    return FormValue(1, 4, _ahat_comps(cfg, pt.chart[None, :], pt.gauge, gauge_shift)[0])


def ahat_field(cfg: GHConfig, gauge: str = "string-down", gauge_shift: float = 0.0) -> FormField:
    """Ahat as a chart FormField, (m, 4) batches -> (m, 4) components."""
    return FormField(
        lambda p: _ahat_comps(cfg, p, gauge, gauge_shift), 1, 4, clearance=chart_clearance(cfg)
    )


def ahat_curvature(
    cfg: GHConfig,
    pt: GHPoint,
    scheme: FDScheme | None = None,
    gauge_shift: float = 0.0,
) -> FormValue:
    """F = d(Ahat) by finite differences in the chart."""
    scheme = scheme or FDScheme(h=1e-4, order=4)
    return ext_deriv(ahat_field(cfg, pt.gauge, gauge_shift), pt.chart, scheme)


def asd_residual(cfg: GHConfig, pt: GHPoint, scheme: FDScheme | None = None) -> float:
    """max-norm of *F + F for F = d(Ahat): zero iff F is anti-self-dual."""
    f = ahat_curvature(cfg, pt, scheme)
    star_f = hodge_star(gh_metric(cfg, pt), 1, f)
    return float(np.max(np.abs((star_f + f).comps)))


def iY_residual(cfg: GHConfig, pt: GHPoint, scheme: FDScheme | None = None) -> float:
    """max-norm of i_Y dAhat - d(phi/V) for the fibre circle Y = d/dtheta."""
    scheme = scheme or FDScheme(h=1e-4, order=4)
    f = ahat_curvature(cfg, pt, scheme)
    contracted = interior_product(np.array([0.0, 0.0, 0.0, 1.0]), f)

    def ratio(p):
        return monopole_phi(cfg, p[..., :3]) / gh_potential(cfg, p[..., :3])

    grad = fd_gradient(ratio, pt.chart, scheme)
    return float(np.max(np.abs(contracted.comps - grad)))


def gauge_transition_jacobian(cfg: GHConfig, x, from_gauge: str, to_gauge: str) -> np.ndarray:
    """Chart Jacobian d(to)/d(from) for the Dirac-gauge change.

    The fibre form dtheta + alpha is globally defined, so switching the
    string convention re-parametrises theta by (s_from - s_to) * W *
    azimuth with W the total weight.  Forms in the `to` chart pull back
    through this Jacobian to the `from` chart.
    """
    jac = np.eye(4)
    total_weight = float(sum(cfg.weights))
    shift = _string_sign(from_gauge) - _string_sign(to_gauge)
    jac[3, :3] = shift * total_weight * _azimuth_covector(x)
    return jac


# -- periods and profiles ------------------------------------------------------------


def sphere_period(cfg: GHConfig, i: int, resolution: int = 16) -> float:
    """Integral of omega_1 over the segment-sphere S_i (1-based, 1 <= i <= k).

    S_i fibres the theta-circles over the axis segment [a_i, a_{i+1}].
    Restricted to it, omega_1 = dx1 ^ dtheta exactly: the tangents carry
    no dx2/dx3 components and alpha annihilates them, so the V- and
    alpha-terms drop out before any evaluation near the axis.
    """
    if not 1 <= i <= cfg.num_centers - 1:
        raise ConfigError(
            f"segment index must be in [1, {cfg.num_centers - 1}], got {i}"
        )
    a_lo, a_hi = cfg.centers[i - 1], cfg.centers[i]
    form = FormValue.from_dict(2, 4, {(0, 3): 1.0}).comps
    restricted = FormField(lambda p: np.broadcast_to(form, (len(p), len(form))), 2, 4)

    def surf(st):
        s, t = st[:, 0], st[:, 1]
        zero = np.zeros_like(s)
        return np.column_stack([a_lo + s * (a_hi - a_lo), zero, zero, 2.0 * np.pi * t])

    return surface_integral(restricted, surf, resolution)


def axis_profiles(cfg: GHConfig, x1_values) -> dict:
    """V, f, phi sampled along the x1-axis (points off the centres)."""
    x1_values = np.asarray(x1_values, dtype=float)
    x = np.stack([x1_values, 0.0 * x1_values, 0.0 * x1_values], axis=-1)
    return {
        "x1": x1_values.copy(),
        "V": gh_potential(cfg, x),
        "f": rotation_lift_f(cfg, x),
        "phi": monopole_phi(cfg, x),
    }
