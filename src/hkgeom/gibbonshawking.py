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

Every function takes a batch: base points x of shape (k, 3) or chart
points p of shape (k, 4), and returns one row per point, (k,) values,
(k, 3) covectors, (k, nb) form components or (k, 4, 4) matrices, each
row equal to that point alone in a batch of one.  Any other shape is a
ConfigError naming (k, 3) or (k, 4).  Each of alpha, A, Ahat and omega_i
is one batch formula (``alpha_field``, ``MonopoleData.A``,
``ahat_field``, ``kahler_field``).  The Dirac gauge is an argument:
"string-down" puts every string on the axis below its centre (alpha
regular above), "string-up" the reverse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConfigError, DomainError
from .forms import (
    FDScheme,
    FormField,
    _points,
    ext_deriv,
    hodge_star,
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


# -- base-space scalars ------------------------------------------------------------


def _offsets(cfg: GHConfig, x) -> np.ndarray:
    """x - a_i for every centre: base points (k, 3) -> (k, centres, 3)."""
    x = _points(x, 3)
    d = np.repeat(x[:, None, :], cfg.num_centers, axis=1)
    d[..., 0] -= np.asarray(cfg.centers)
    return d


def _distances(cfg: GHConfig, x, margin: float = CENTER_MARGIN) -> np.ndarray:
    """|x - a_i| for every centre: (k, 3) -> (k, centres)."""
    r = np.linalg.norm(_offsets(cfg, x), axis=-1)
    if np.any(r <= margin):
        raise DomainError(f"point within {margin:.1e} of a centre")
    return r


def chart_clearance(cfg: GHConfig) -> Callable:
    """Distance (m,) to the nearer of the centres and the x1-axis.

    The callback takes chart points (m, 4) or base points (m, 3).
    """

    def clear(p):
        p = np.asarray(p, dtype=float)
        if p.ndim != 2 or p.shape[1] not in (3, 4):
            raise ConfigError(f"points must have shape (k, 3) or (k, 4), got shape {p.shape}")
        rho = np.hypot(p[:, 1], p[:, 2])
        return np.minimum(rho, np.linalg.norm(_offsets(cfg, p[:, :3]), axis=-1).min(axis=-1))

    return clear


def gh_potential(cfg: GHConfig, x) -> np.ndarray:
    """V(x) = sum_i w_i / |x - a_i| at base points x (k, 3), (k,)."""
    r = _distances(cfg, x)
    return np.sum(np.asarray(cfg.weights) * (1.0 / r), axis=-1)


def potential_gradient(cfg: GHConfig, x) -> np.ndarray:
    """Closed-form grad V = -sum_i w_i (x - a_i) / r_i^3 at base points x (k, 3), (k, 3)."""
    d = _offsets(cfg, x)
    r = _distances(cfg, x)
    return -np.einsum("...i,...ij->...j", np.asarray(cfg.weights) / r**3, d)


def rotation_lift_f(cfg: GHConfig, x) -> np.ndarray:
    """Hamiltonian-lift function f = sum_i w_i (x1 - a_i)/|x - a_i| + c at x (k, 3), (k,).

    On any open axis segment every term is exactly +/- w_i, so f is
    locally constant there; with unit weights, c = 0 and an even number
    of centres it vanishes identically on the middle segment.
    """
    d = _offsets(cfg, x)
    r = _distances(cfg, x)
    return np.sum(np.asarray(cfg.weights) * (d[..., 0] / r), axis=-1) + cfg.c


def lift_gradient(cfg: GHConfig, x) -> np.ndarray:
    """Closed-form df = sum_i w_i (e1 / r_i - (x1 - a_i) (x - a_i) / r_i^3) at x (k, 3), (k, 3).

    The e1 term is a stacked (1, centres) @ (centres, 1) product, which
    rounds each row as ``np.dot`` of that row alone does.
    """
    d = _offsets(cfg, x)
    r = _distances(cfg, x)
    w = np.asarray(cfg.weights)
    out = -np.einsum("...i,...ij->...j", w * d[..., 0] / r**3, d)
    out[:, 0] += ((1.0 / r)[:, None, :] @ w[:, None])[:, 0, 0]
    return out


def lift_identity_residual(cfg: GHConfig, x) -> np.ndarray:
    """Residual of df + i_X (*dV) = 0 for the axis rotation X = x2 d3 - x3 d2, (k,).

    Componentwise, i_X(*dV) = (x2 V_2 + x3 V_3, -x2 V_1, -x3 V_1) in the
    basis (dx1, dx2, dx3); the lift gradient is its negative.
    """
    x = _points(x, 3)
    grad_v = potential_gradient(cfg, x)
    ix_star_dv = np.stack(
        [
            x[:, 1] * grad_v[:, 1] + x[:, 2] * grad_v[:, 2],
            -x[:, 1] * grad_v[:, 0],
            -x[:, 2] * grad_v[:, 0],
        ],
        axis=-1,
    )
    return np.max(np.abs(lift_gradient(cfg, x) + ix_star_dv), axis=-1)


def f_segment_values(cfg: GHConfig) -> tuple:
    """Exact constants of f on the k+2 open axis segments, left to right."""
    w = cfg.weights
    vals = []
    for below in range(cfg.num_centers + 1):
        vals.append(float(sum(w[:below]) - sum(w[below:]) + cfg.c))
    return tuple(vals)


def monopole_phi(cfg: GHConfig, x) -> np.ndarray:
    """phi = sum_i w_i (a_top - a_i)/|x - a_i| + c at base points x (k, 3), (k,).

    The top term drops out.
    """
    r = _distances(cfg, x)
    return np.sum(np.asarray(cfg.dirac_charges) * (1.0 / r), axis=-1) + cfg.c


# -- gauge-dependent 1-forms --------------------------------------------------------


def _azimuth_covector(x) -> np.ndarray:
    """d(azimuth) = (x2 dx3 - x3 dx2)/rho^2: base points (k, 3) -> covectors (k, 3)."""
    x = _points(x, 3)
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
    """sum_i q_i ((x1 - a_i)/r_i + s) d(azimuth): (k, 3) -> covectors (k, 3).

    s is the gauge's string sign.  The charges ``cfg.weights`` give alpha
    and ``cfg.dirac_charges`` give A.
    """
    d = _offsets(cfg, x)
    r = _distances(cfg, x)
    coeff = np.sum(np.asarray(charges) * (d[..., 0] / r + _string_sign(gauge)), axis=-1)
    return coeff[..., None] * _azimuth_covector(x)


def alpha_field(cfg: GHConfig, gauge: str = "string-down") -> FormField:
    """alpha as a FormField on R^3: (m, 3) batches -> (m, 3) components."""
    clear = chart_clearance(cfg)
    return FormField(lambda x: _string_potential(cfg, x, cfg.weights, gauge), 1, 3, clearance=clear)


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


def gh_metric(cfg: GHConfig, p, gauge: str) -> np.ndarray:
    """g = V dx.dx + V^{-1} (dtheta + alpha)^2 at chart points p (k, 4), (k, 4, 4)."""
    x = _points(p, 4)[:, :3]
    v = gh_potential(cfg, x)[:, None, None]
    alpha = alpha_field(cfg, gauge)(x)
    eta = np.concatenate([alpha, np.ones((len(x), 1))], axis=1)  # dtheta + alpha
    g = np.zeros((len(x), 4, 4))
    g[:, :3, :3] = v * np.eye(3)
    g += eta[:, :, None] * eta[:, None, :] / v
    return g


def _kahler_comps(cfg: GHConfig, p, gauge: str) -> np.ndarray:
    """(omega_1, omega_2, omega_3) at chart points (m, 4), as components (m, 3, 6).

    omega_i = V dx_j ^ dx_k + dx_i ^ (dtheta + alpha), (i, j, k) cyclic, on
    the basis (01, 02, 03, 12, 13, 23).
    """
    x = _points(p, 4)[:, :3]
    v = gh_potential(cfg, x)
    a1, a2, a3 = _string_potential(cfg, x, cfg.weights, gauge).T
    o, l = np.zeros_like(v), np.ones_like(v)
    rows = ((a2, a3, l, v, o, o), (-a1, -v, o, a3, l, o), (v, -a1, o, -a2, o, l))
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


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
    x = _points(p, 4)[:, :3]
    v = gh_potential(cfg, x)
    ratio = ((monopole_phi(cfg, x) + gauge_shift * v) / v)[:, None]
    alpha = _string_potential(cfg, x, cfg.weights, gauge)
    a_cov = _string_potential(cfg, x, cfg.dirac_charges, gauge) + gauge_shift * alpha
    return np.concatenate([a_cov - ratio * alpha, -ratio], axis=-1)


def ahat_field(cfg: GHConfig, gauge: str = "string-down", gauge_shift: float = 0.0) -> FormField:
    """Ahat = A - phi V^{-1} (dtheta + alpha) as a chart FormField, (m, 4) -> (m, 4).

    `gauge_shift` applies the monopole gauge freedom (A, phi) ->
    (A + shift * alpha, phi + shift * V), which changes Ahat by the closed
    form -shift * dtheta and so leaves the curvature unchanged.
    """
    return FormField(
        lambda p: _ahat_comps(cfg, p, gauge, gauge_shift), 1, 4, clearance=chart_clearance(cfg)
    )


def ahat_curvature(
    cfg: GHConfig,
    p,
    gauge: str,
    scheme: FDScheme | None = None,
    gauge_shift: float = 0.0,
) -> np.ndarray:
    """F = d(Ahat) at chart points p (k, 4), as components (k, 6), by finite differences."""
    scheme = scheme or FDScheme(h=1e-4, order=4)
    return ext_deriv(ahat_field(cfg, gauge, gauge_shift), p, scheme)


def asd_residual(cfg: GHConfig, p, gauge: str, scheme: FDScheme | None = None) -> np.ndarray:
    """max-norm of *F + F for F = d(Ahat) at chart points p (k, 4), (k,): zero iff F is ASD.

    One ext_deriv call, one metric batch and one hodge_star call.
    """
    f = ahat_curvature(cfg, p, gauge, scheme)
    star = hodge_star(gh_metric(cfg, p, gauge), 1, f, 2)
    return np.max(np.abs(star + f), axis=-1)


# -- periods and profiles ------------------------------------------------------------


#: quadrature panels per side of the sphere_period surface; the relative
#: error on centres (0, 1, 3) is 2.7e-6, 2.1e-9 and 2.7e-12 at 8, 16 and 32
_PERIOD_RESOLUTION = 16


def sphere_period(cfg: GHConfig, i: int) -> float:
    """Integral of omega_1 over a sphere in the class of S_i (1-based, 1 <= i <= k).

    S_i fibres the theta-circles over the axis segment [a_i, a_{i+1}]; its
    period is 2 pi (a_{i+1} - a_i).  On S_i itself omega_1 restricts to
    dx1 ^ dtheta, so V and alpha would never enter.  The surface integrated
    here is (s, t) -> (x1(s), b (0.6 + 0.2 cos 2 pi t), 0.3 b sin 2 pi t,
    2 pi t), with x1 running over the segment and b = sin(pi s): it closes
    on the two centres, where the circle collapses, and its base point
    moves with the fibre angle on an ellipse that does not wind around the
    axis, so it is homologous to S_i.  Every term of omega_1 = V dx2 ^ dx3
    + dx1 ^ (dtheta + alpha) contributes, and only their sum is the period.
    """
    if not 1 <= i <= cfg.num_centers - 1:
        raise ConfigError(
            f"segment index must be in [1, {cfg.num_centers - 1}], got {i}"
        )
    a_lo, a_hi = cfg.centers[i - 1], cfg.centers[i]

    def surf(st):
        s, angle = st[:, 0], 2.0 * np.pi * st[:, 1]
        b = np.sin(np.pi * s)
        x1 = a_lo + s * (a_hi - a_lo)
        x2, x3 = b * (0.6 + 0.2 * np.cos(angle)), 0.3 * b * np.sin(angle)
        return np.column_stack([x1, x2, x3, angle])

    return surface_integral(kahler_field(cfg, 1), surf, _PERIOD_RESOLUTION)


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
