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
        if any(b - a <= 0 for a, b in zip(centers, centers[1:])):
            raise ConfigError("centres must be strictly increasing")
        weights = self.weights
        if weights is None:
            weights = (1.0,) * len(centers)
        weights = tuple(float(w) for w in weights)
        if len(weights) != len(centers):
            raise ConfigError("one weight per centre required")
        if any(w <= 0 for w in weights):
            raise ConfigError("weights must be positive")
        object.__setattr__(self, "centers", centers)
        object.__setattr__(self, "weights", weights)
        object.__setattr__(self, "c", float(self.c))

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
        if self.gauge not in GAUGES:
            raise ConfigError(f"gauge must be one of {GAUGES}")
        object.__setattr__(self, "x", tuple(x))
        object.__setattr__(self, "theta", float(self.theta))

    @property
    def chart(self) -> np.ndarray:
        """Coordinates (x1, x2, x3, theta)."""
        return np.array([*self.x, self.theta])

    @property
    def string_sign(self) -> float:
        return -1.0 if self.gauge == "string-down" else 1.0


# -- base-space scalars ------------------------------------------------------------


def _offsets(cfg: GHConfig, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    d = np.tile(x, (cfg.num_centers, 1))
    d[:, 0] -= np.asarray(cfg.centers)
    return d


def _distances(cfg: GHConfig, x, margin: float = CENTER_MARGIN) -> np.ndarray:
    r = np.linalg.norm(_offsets(cfg, x), axis=1)
    if r.min() <= margin:
        raise DomainError(f"point within {margin:.1e} of a centre")
    return r


def center_clearance(cfg: GHConfig) -> Callable:
    """Distance-to-centres callback, for use as a field clearance."""

    def clear(x):
        return float(np.linalg.norm(_offsets(cfg, np.asarray(x)[:3]), axis=1).min())

    return clear


def chart_clearance(cfg: GHConfig) -> Callable:
    """Distance to the nearer of the centres and the x1-axis (chart points)."""

    def clear(p):
        p = np.asarray(p, dtype=float)
        rho = float(np.hypot(p[1], p[2]))
        return min(rho, float(np.linalg.norm(_offsets(cfg, p[:3]), axis=1).min()))

    return clear


def gh_potential(cfg: GHConfig, x) -> float:
    """V(x) = sum_i w_i / |x - a_i|."""
    r = _distances(cfg, x)
    return float(np.dot(cfg.weights, 1.0 / r))


def potential_gradient(cfg: GHConfig, x) -> np.ndarray:
    """Closed-form grad V = -sum_i w_i (x - a_i) / r_i^3."""
    d = _offsets(cfg, x)
    r = _distances(cfg, x)
    return -np.einsum("i,ij->j", np.asarray(cfg.weights) / r**3, d)


def rotation_lift_f(cfg: GHConfig, x) -> float:
    """Hamiltonian-lift function f = sum_i w_i (x1 - a_i)/|x - a_i| + c.

    On any open axis segment every term is exactly +/- w_i, so f is
    locally constant there; with unit weights, c = 0 and an even number
    of centres it vanishes identically on the middle segment.
    """
    d = _offsets(cfg, x)
    r = _distances(cfg, x)
    return float(np.dot(cfg.weights, d[:, 0] / r)) + cfg.c


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


def monopole_phi(cfg: GHConfig, x) -> float:
    """phi = sum_i w_i (a_top - a_i)/|x - a_i| + c (the top term drops out)."""
    r = _distances(cfg, x)
    return float(np.dot(cfg.dirac_charges, 1.0 / r)) + cfg.c


def phi_identity_residual(cfg: GHConfig, x) -> float:
    """|phi - (-x1 V + f + a_top V)|: the two monopole displays differ by the
    gauge shift with constant a_top."""
    x = np.asarray(x, dtype=float)
    v = gh_potential(cfg, x)
    alt = -x[0] * v + rotation_lift_f(cfg, x) + cfg.top * v
    return abs(monopole_phi(cfg, x) - alt)


# -- gauge-dependent 1-forms --------------------------------------------------------


def _azimuth_covector(x) -> np.ndarray:
    """d(azimuth) = (x2 dx3 - x3 dx2)/rho^2 as a covector on R^3."""
    x = np.asarray(x, dtype=float)
    rho2 = x[1] ** 2 + x[2] ** 2
    if rho2 < MIN_AXIS_RADIUS**2:
        raise DomainError(
            f"point at cylindrical radius {np.sqrt(rho2):.1e} is inside the "
            f"axis regularisation radius {MIN_AXIS_RADIUS:.1e}"
        )
    return np.array([0.0, -x[2] / rho2, x[1] / rho2])


def _string_potential(cfg: GHConfig, x, charges, sign: float) -> np.ndarray:
    """sum_i q_i ((x1 - a_i)/r_i + sign) d(azimuth), as a covector on R^3."""
    d = _offsets(cfg, x)
    r = _distances(cfg, x)
    coeff = float(np.dot(charges, d[:, 0] / r + sign))
    return coeff * _azimuth_covector(x)


def gh_alpha(cfg: GHConfig, pt: GHPoint) -> FormValue:
    """The fibration connection alpha with dalpha = *dV, in pt's gauge."""
    cov = _string_potential(cfg, pt.x, cfg.weights, pt.string_sign)
    return FormValue(1, 3, cov)


def monopole_A(cfg: GHConfig, pt: GHPoint) -> FormValue:
    """The monopole potential A with dA = *dphi, in pt's gauge."""
    cov = _string_potential(cfg, pt.x, cfg.dirac_charges, pt.string_sign)
    return FormValue(1, 3, cov)


@dataclass(frozen=True)
class MonopoleData:
    """A harmonic scalar and a gauge potential with dA = *dphi."""

    phi: Callable
    A: Callable
    gauge: str = "string-down"

    @classmethod
    def from_config(cls, cfg: GHConfig, gauge: str = "string-down") -> "MonopoleData":
        if gauge not in GAUGES:
            raise ConfigError(f"gauge must be one of {GAUGES}")
        return cls(
            phi=lambda x: monopole_phi(cfg, x),
            A=lambda x: monopole_A(cfg, GHPoint(tuple(np.asarray(x)), 0.0, gauge)),
            gauge=gauge,
        )


# -- metric and Kahler triple -------------------------------------------------------


def _fibre_covector(cfg: GHConfig, pt: GHPoint) -> np.ndarray:
    """(dtheta + alpha) as a covector in chart coordinates."""
    alpha = gh_alpha(cfg, pt).comps
    return np.array([alpha[0], alpha[1], alpha[2], 1.0])


def gh_metric(cfg: GHConfig, pt: GHPoint) -> np.ndarray:
    """g = V dx.dx + V^{-1} (dtheta + alpha)^2 in chart coordinates."""
    v = gh_potential(cfg, pt.x)
    eta = _fibre_covector(cfg, pt)
    g = np.zeros((4, 4))
    g[:3, :3] = v * np.eye(3)
    g += np.outer(eta, eta) / v
    return g


def gh_kahler_triple(cfg: GHConfig, pt: GHPoint):
    """(omega_1, omega_2, omega_3): V dx_j^dx_k + dx_i^(dtheta+alpha), cyclic."""
    v = gh_potential(cfg, pt.x)
    a1, a2, a3, _ = _fibre_covector(cfg, pt)
    w1 = FormValue.from_dict(2, 4, {(1, 2): v, (0, 1): a2, (0, 2): a3, (0, 3): 1.0})
    w2 = FormValue.from_dict(2, 4, {(0, 2): -v, (0, 1): -a1, (1, 2): a3, (1, 3): 1.0})
    w3 = FormValue.from_dict(2, 4, {(0, 1): v, (0, 2): -a1, (1, 2): -a2, (2, 3): 1.0})
    return w1, w2, w3


def kahler_field(cfg: GHConfig, i: int, gauge: str = "string-down") -> FormField:
    """omega_i as a chart FormField (for FD closedness checks)."""
    if i not in (1, 2, 3):
        raise ConfigError("Kahler index must be 1, 2 or 3")

    def fn(p):
        pt = GHPoint(tuple(p[:3]), p[3], gauge)
        return gh_kahler_triple(cfg, pt)[i - 1]

    return FormField(fn, 2, 4, clearance=chart_clearance(cfg))


# -- the anti-self-dual connection ---------------------------------------------------


def connection_Ahat(cfg: GHConfig, pt: GHPoint, gauge_shift: float = 0.0) -> FormValue:
    """Ahat = A - phi V^{-1} (dtheta + alpha) in chart coordinates.

    `gauge_shift` applies the monopole gauge freedom (A, phi) ->
    (A + shift * alpha, phi + shift * V), which changes Ahat by the closed
    form -shift * dtheta and so leaves the curvature unchanged.
    """
    v = gh_potential(cfg, pt.x)
    phi = monopole_phi(cfg, pt.x) + gauge_shift * v
    a_cov = monopole_A(cfg, pt).comps + gauge_shift * gh_alpha(cfg, pt).comps
    eta = _fibre_covector(cfg, pt)
    comps = np.concatenate([a_cov, [0.0]]) - (phi / v) * eta
    return FormValue(1, 4, comps)


def ahat_field(cfg: GHConfig, gauge: str = "string-down", gauge_shift: float = 0.0) -> FormField:
    def fn(p):
        return connection_Ahat(cfg, GHPoint(tuple(p[:3]), p[3], gauge), gauge_shift)

    return FormField(fn, 1, 4, clearance=chart_clearance(cfg))


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
        return monopole_phi(cfg, p[:3]) / gh_potential(cfg, p[:3])

    grad = fd_gradient(ratio, pt.chart, scheme)
    return float(np.max(np.abs(contracted.comps - grad)))


def gauge_transition_jacobian(cfg: GHConfig, x, from_gauge: str, to_gauge: str) -> np.ndarray:
    """Chart Jacobian d(to)/d(from) for the Dirac-gauge change.

    The fibre form dtheta + alpha is globally defined, so switching the
    string convention re-parametrises theta by (s_from - s_to) * W *
    azimuth with W the total weight.  Forms in the `to` chart pull back
    through this Jacobian to the `from` chart.
    """
    if from_gauge not in GAUGES or to_gauge not in GAUGES:
        raise ConfigError(f"gauges must be among {GAUGES}")
    s_from = -1.0 if from_gauge == "string-down" else 1.0
    s_to = -1.0 if to_gauge == "string-down" else 1.0
    jac = np.eye(4)
    total_weight = float(sum(cfg.weights))
    jac[3, :3] = (s_from - s_to) * total_weight * _azimuth_covector(x)
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
    form = FormValue.from_dict(2, 4, {(0, 3): 1.0})
    restricted = FormField(lambda p: form, 2, 4)

    def surf(s, t):
        return np.array([a_lo + s * (a_hi - a_lo), 0.0, 0.0, 2.0 * np.pi * t])

    return surface_integral(restricted, surf, resolution)


def axis_profiles(cfg: GHConfig, x1_values) -> dict:
    """V, f, phi sampled along the x1-axis (points off the centres)."""
    x1_values = np.asarray(x1_values, dtype=float)
    out = {
        "x1": x1_values.copy(),
        "V": np.empty_like(x1_values),
        "f": np.empty_like(x1_values),
        "phi": np.empty_like(x1_values),
    }
    for j, x1 in enumerate(x1_values):
        x = np.array([x1, 0.0, 0.0])
        out["V"][j] = gh_potential(cfg, x)
        out["f"][j] = rotation_lift_f(cfg, x)
        out["phi"][j] = monopole_phi(cfg, x)
    return out
