"""Multi-centre circle-fibred hyperkahler metrics (Gibbons-Hawking form).

The spaces here fibre over R^3 minus a finite set of collinear centres
a_1 < ... < a_{k+1} on the x1-axis.  With V = sum_i w_i / |x - a_i| and a
1-form alpha solving dalpha = *dV, the metric

    g = V (dx1^2 + dx2^2 + dx3^2) + V^{-1} (dtheta + alpha)^2

is hyperkahler with Kahler forms omega_i = V dx_j ^ dx_k + dx_i ^ (dtheta
+ alpha).  The module also carries the lift data of the x1-axis rotation
(the function f), the associated monopole (phi, A) on R^3, and the induced
anti-self-dual connection form Ahat on the total space.

The fields are singular only on the x1-axis: at the centres, which lie
on it, and where the azimuth and the Dirac strings are.  So a point's
clearance from every singularity is its distance from the axis,
``chart_clearance``.

Chart coordinates are ordered (x1, x2, x3, theta); the positive
orientation is the coordinate order, which makes the omega_i self-dual.

Every function takes a batch: base points x of shape (k, 3) or chart
points p of shape (k, 4), and returns one row per point, (k,) values,
(k, 3) covectors, (k, nb) form components or (k, 4, 4) matrices, each
row equal to that point alone in a batch of one.  Any other shape is a
ConfigError naming (k, 3) or (k, 4).  Each of alpha, A, Ahat and omega_i
is one batch formula (``alpha_field``, ``monopole_field``,
``ahat_field``, ``kahler_field``).  The potentials are fixed once: every
Dirac string lies on the axis below its centre, so alpha and A are
regular above the top centre, and the monopole (phi, A) is fixed by a_top
in ``GHConfig.dirac_charges``, which gives the top centre charge zero.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import ConfigError, DomainError
from .forms import (
    FDScheme,
    FormField,
    _chunked,
    _pair_indices,
    _points,
    ext_deriv,
    hodge_star,
)

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


def _distances(cfg: GHConfig, x) -> tuple[np.ndarray, np.ndarray]:
    """(x - a_i, |x - a_i|) for every centre: (k, 3) -> (k, centres, 3), (k, centres)."""
    d = np.repeat(_points(x, 3)[:, None, :], cfg.num_centers, axis=1)
    d[..., 0] -= np.asarray(cfg.centers)
    r = np.linalg.norm(d, axis=-1)
    if np.any(r <= CENTER_MARGIN):
        raise DomainError(f"point within {CENTER_MARGIN:.1e} of a centre")
    return d, r


def chart_clearance(p) -> np.ndarray:
    """Distance (m,) from the x1-axis of chart points p (m, 4) or base points p (m, 3).

    Every centre lies on the axis, so no centre is nearer than the axis:
    |x - a_i| >= hypot(x2, x3).  This is the clearance of a point from
    every singularity of the fields here.
    """
    p = np.asarray(p, dtype=float)
    if p.ndim != 2 or p.shape[1] not in (3, 4):
        raise ConfigError(f"points must have shape (k, 3) or (k, 4), got shape {p.shape}")
    return np.hypot(p[:, 1], p[:, 2])


def gh_potential(cfg: GHConfig, x) -> np.ndarray:
    """V(x) = sum_i w_i / |x - a_i| at base points x (k, 3), (k,)."""
    _, r = _distances(cfg, x)
    return np.sum(np.asarray(cfg.weights) * (1.0 / r), axis=-1)


def potential_gradient(cfg: GHConfig, x) -> np.ndarray:
    """Closed-form grad V = -sum_i w_i (x - a_i) / r_i^3 at base points x (k, 3), (k, 3)."""
    d, r = _distances(cfg, x)
    return -np.einsum("...i,...ij->...j", np.asarray(cfg.weights) / r**3, d)


def rotation_lift_f(cfg: GHConfig, x) -> np.ndarray:
    """Hamiltonian-lift function f = sum_i w_i (x1 - a_i)/|x - a_i| + c at x (k, 3), (k,).

    On any open axis segment every term is exactly +/- w_i, so f is
    locally constant there; with unit weights, c = 0 and an even number
    of centres it vanishes identically on the middle segment.
    """
    d, r = _distances(cfg, x)
    return np.sum(np.asarray(cfg.weights) * (d[..., 0] / r), axis=-1) + cfg.c


def lift_gradient(cfg: GHConfig, x) -> np.ndarray:
    """Closed-form df = sum_i w_i (e1 / r_i - (x1 - a_i) (x - a_i) / r_i^3) at x (k, 3), (k, 3).

    The e1 term is a stacked (1, centres) @ (centres, 1) product, which
    rounds each row as ``np.dot`` of that row alone does.
    """
    d, r = _distances(cfg, x)
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
    _, r = _distances(cfg, x)
    return np.sum(np.asarray(cfg.dirac_charges) * (1.0 / r), axis=-1) + cfg.c


# -- the connection 1-forms ---------------------------------------------------------


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


def _string_potential(cfg: GHConfig, x, charges) -> np.ndarray:
    """sum_i q_i ((x1 - a_i)/r_i - 1) d(azimuth): (k, 3) -> covectors (k, 3).

    Each term is regular except on the axis below its centre, where its
    Dirac string lies.  The charges ``cfg.weights`` give alpha and
    ``cfg.dirac_charges`` give A.
    """
    d, r = _distances(cfg, x)
    coeff = np.sum(np.asarray(charges) * (d[..., 0] / r - 1.0), axis=-1)
    return coeff[..., None] * _azimuth_covector(x)


def alpha_field(cfg: GHConfig) -> FormField:
    """alpha as a FormField on R^3: (m, 3) batches -> (m, 3) components."""
    return FormField(
        lambda x: _string_potential(cfg, x, cfg.weights), 1, 3, clearance=chart_clearance
    )


def monopole_field(cfg: GHConfig) -> FormField:
    """A with dA = *d phi (phi = ``monopole_phi``) as a FormField on R^3: (m, 3) -> (m, 3)."""
    return FormField(lambda x: _string_potential(cfg, x, cfg.dirac_charges), 1, 3, chart_clearance)


# -- metric and Kahler triple -------------------------------------------------------


def gh_metric(cfg: GHConfig, p) -> np.ndarray:
    """g = V dx.dx + V^{-1} (dtheta + alpha)^2 at chart points p (k, 4), (k, 4, 4)."""
    x = _points(p, 4)[:, :3]
    v = gh_potential(cfg, x)[:, None, None]
    alpha = _string_potential(cfg, x, cfg.weights)
    eta = np.concatenate([alpha, np.ones((len(x), 1))], axis=1)  # dtheta + alpha
    g = np.zeros((len(x), 4, 4))
    g[:, :3, :3] = v * np.eye(3)
    g += eta[:, :, None] * eta[:, None, :] / v
    return g


def _kahler_comps(cfg: GHConfig, p) -> np.ndarray:
    """(omega_1, omega_2, omega_3) at chart points (m, 4), as components (m, 3, 6).

    omega_i = V dx_j ^ dx_k + dx_i ^ (dtheta + alpha), (i, j, k) cyclic, on
    the basis (01, 02, 03, 12, 13, 23).
    """
    x = _points(p, 4)[:, :3]
    v = gh_potential(cfg, x)
    a1, a2, a3 = _string_potential(cfg, x, cfg.weights).T
    o, l = np.zeros_like(v), np.ones_like(v)
    rows = ((a2, a3, l, v, o, o), (-a1, -v, o, a3, l, o), (v, -a1, o, -a2, o, l))
    return np.stack([np.stack(row, axis=-1) for row in rows], axis=-2)


def kahler_field(cfg: GHConfig, i: int) -> FormField:
    """omega_i as a chart FormField, (m, 4) batches -> (m, 6) components."""
    if i not in (1, 2, 3):
        raise ConfigError("Kahler index must be 1, 2 or 3")
    return FormField(lambda p: _kahler_comps(cfg, p)[:, i - 1], 2, 4, clearance=chart_clearance)


# -- the anti-self-dual connection ---------------------------------------------------


def _ahat_comps(cfg: GHConfig, p) -> np.ndarray:
    """Ahat = A - phi V^{-1} (dtheta + alpha) at chart points (m, 4), as components (m, 4)."""
    x = _points(p, 4)[:, :3]
    ratio = (monopole_phi(cfg, x) / gh_potential(cfg, x))[:, None]
    alpha = _string_potential(cfg, x, cfg.weights)
    a_cov = _string_potential(cfg, x, cfg.dirac_charges)
    return np.concatenate([a_cov - ratio * alpha, -ratio], axis=-1)


def ahat_field(cfg: GHConfig) -> FormField:
    """Ahat = A - phi V^{-1} (dtheta + alpha) as a chart FormField, (m, 4) -> (m, 4)."""
    return FormField(lambda p: _ahat_comps(cfg, p), 1, 4, clearance=chart_clearance)


def ahat_curvature(cfg: GHConfig, p, scheme: FDScheme) -> np.ndarray:
    """F = d(Ahat) at chart points p (k, 4), as components (k, 6), by finite differences."""
    return ext_deriv(ahat_field(cfg), p, scheme)


def asd_residual(cfg: GHConfig, p, scheme: FDScheme) -> np.ndarray:
    """max-norm of *F + F for F = d(Ahat) at chart points p (k, 4), (k,): zero iff F is ASD.

    One ext_deriv call, one metric batch and one hodge_star call.
    """
    f = ahat_curvature(cfg, p, scheme)
    star = hodge_star(gh_metric(cfg, p), 1, f, 2)
    return np.max(np.abs(star + f), axis=-1)


# -- periods and profiles ------------------------------------------------------------


def _unit_gauss(count: int) -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the count-point Gauss-Legendre rule on [0, 1]."""
    nodes, weights = leggauss(count)
    return 0.5 * (nodes + 1.0), 0.5 * weights


#: sphere_period's rule: Gauss-Legendre in s and the trapezoid rule in the
#: periodic fibre angle t, both geometric on this analytic integrand
#: (Trefethen & Weideman, SIAM Rev. 2014): the error falls about 2.5 times
#: per t node and, on the shortest tested segments (0, 0.25, 0.5), 3.7 times
#: per s node, so 32 t and 20 s nodes leave 1e-12 and 1.4e-10.  The surface
#: stays 0.4 sin(pi s_0) off the axis (s_0 the first node): 42 s nodes at most.
_PERIOD_S_RULE = _unit_gauss(20)
_PERIOD_T_NODES = 32


def _period_rule(cfg: GHConfig, i: int, s_rule=_PERIOD_S_RULE, t_nodes=_PERIOD_T_NODES):
    """Points, tangents d/ds and d/dt (m, 4) and weights (m,) of the rule on segment i.

    The surface is sphere_period's, with its tangents in closed form; node
    (j, l) is row j t_nodes + l.
    """
    a_lo, a_hi = cfg.centers[i - 1], cfg.centers[i]
    s_nodes, s_weights = s_rule
    s = np.repeat(s_nodes, t_nodes)
    angle = np.tile(2.0 * np.pi * np.arange(t_nodes) / t_nodes, len(s_nodes))
    b, db = np.sin(np.pi * s), np.pi * np.cos(np.pi * s)
    cos, sin, zero = np.cos(angle), np.sin(angle), np.zeros_like(s)
    across, up = 0.6 + 0.2 * cos, 0.3 * sin
    points = np.column_stack([a_lo + s * (a_hi - a_lo), b * across, b * up, angle])
    ds = np.column_stack([np.full_like(s, a_hi - a_lo), db * across, db * up, zero])
    dt = 2.0 * np.pi * np.column_stack([zero, -0.2 * b * sin, 0.3 * b * cos, np.ones_like(s)])
    return points, ds, dt, np.repeat(s_weights / t_nodes, t_nodes)


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

    The rule (``_period_rule``) is within 1.4e-10 (relative) on the tested
    centre sets.  A centre just past a segment's end puts a singularity next
    to it that more nodes barely help: with centres (0, 1, 1 + g, 3) the
    worst segment reads 4.3e-8, 5.6e-5 and 3.2e-5 at g = 0.1, 0.01 and 0.001
    (2.3e-5 at 40 x 512 nodes), against the gh.periods tolerance of 1e-6.
    """
    if not 1 <= i <= cfg.num_centers - 1:
        raise ConfigError(
            f"segment index must be in [1, {cfg.num_centers - 1}], got {i}"
        )
    points, ds, dt, weights = _period_rule(cfg, i)
    rows, cols = _pair_indices(4)
    comps = _chunked(points, len(rows), kahler_field(cfg, 1))
    pairs = ds[:, rows] * dt[:, cols] - ds[:, cols] * dt[:, rows]
    return float(weights @ np.sum(comps * pairs, axis=1))


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
