"""Linear hyperkahler quotients of H^n by tori.

A triholomorphic linear circle (or torus) action on flat H^n has the
quadratic moment triple nu_i(m)(a) = (1/2) omega_i(G_a m, m).  Solving
nu = (c, 0, 0) and quotienting by the group leaves a hyperkahler space
whose metric and Kahler forms are the flat ones restricted to the
horizontal subspace (orthogonal to the orbit, tangent to the level set).

The module provides the moment map and Newton level-set solver, quotient
frames/forms/structures, the descent of a commuting circle's moment map
and curvature form, the canonical connection of the associated line
bundle, and recovery of multi-centre potential coordinates from a
residual triholomorphic circle.

The standard worked example throughout is the Eguchi-Hanson quotient of
H^2 by the circle with weights (+1,+1) on z and (-1,-1) on w.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    NonFreePointError,
    StructureError,
)
from .flatspace import (
    CircleActionSpec,
    FlatModel,
    action_generator,
    moment_field,
    moment_map,
)
from .forms import (
    FDScheme,
    FormField,
    FormValue,
    _stencil_derivatives,
    _stencil_points,
    ext_deriv,
)

#: speed of the Eguchi-Hanson residual circle that makes the recovered
#: multi-centre potential have unit coefficients.  Measured calibration:
#: at full speed the sampled pairs satisfy V = (1/4) sum_i 1/|x - a_i|
#: (the circle has doubled local weight at its two fixed points, and the
#: fit is quadratic in the speed), so scale 1/4 gives V = sum_i 1/|x - a_i|.
GH_CIRCLE_SCALE = 0.25

_CONDITION_GUARD = 1e8

#: how far a generator may be from antisymmetric, triholomorphic and closed
#: under brackets before LinearAction refuses it
_GENERATOR_TOL = 1e-10
#: Newton tolerance and iteration budget of the level-set solver
_LEVEL_NEWTON_TOL = 1e-12
_LEVEL_MAX_ITER = 40
#: how far the rotator of descended_circle_data, and the residual circle of
#: gh_coordinates, may be from commuting with the action
_ROTATOR_COMMUTE_TOL = 1e-12
_CIRCLE_COMMUTE_TOL = 1e-10

#: Newton tolerance and iteration budget of the chart retraction
_CHART_NEWTON_TOL = 1e-14
_CHART_MAX_ITER = 60
#: stencil for the chart tangents d point / d xi (and the chart gradients)
_CHART_TANGENT_SCHEME = FDScheme(h=1e-4, order=4)
#: outer stencil of the descended and canonical curvature forms
_CURVATURE_SCHEME = FDScheme(h=2e-3, order=4)


@dataclass(frozen=True, eq=False)
class LinearAction:
    """Commuting triholomorphic generators of a torus acting on H^n.

    Each generator must be antisymmetric (a flat Killing field) and
    commute with the three complex structures, and the generators must
    close under brackets; all three are checked at construction.
    """

    generators: tuple

    def __post_init__(self):
        gens = tuple(np.asarray(g, dtype=float) for g in self.generators)
        if not gens:
            raise ConfigError("need at least one generator")
        dim = gens[0].shape[0]
        if dim % 4 != 0 or any(g.shape != (dim, dim) for g in gens):
            raise ConfigError("generators must be square matrices of equal 4n size")
        model = FlatModel(dim // 4)
        structures = model.structures()
        for idx, g in enumerate(gens):
            if np.max(np.abs(g + g.T)) > _GENERATOR_TOL:
                raise StructureError(f"generator {idx} is not metric-antisymmetric")
            for s in structures:
                if np.max(np.abs(s @ g - g @ s)) > _GENERATOR_TOL:
                    raise StructureError(f"generator {idx} is not triholomorphic")
        basis = np.stack([g.ravel() for g in gens], axis=1)
        # one pseudo-inverse fits every bracket [G_a, G_b] against the basis
        brackets = np.array([[(ga @ gb - gb @ ga).ravel() for gb in gens] for ga in gens])
        table = brackets @ np.linalg.pinv(basis).T
        worst = float(np.max(np.abs(table @ basis.T - brackets)))
        if worst > _GENERATOR_TOL:
            raise StructureError(f"generators do not close under bracket ({worst:.2e})")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_model", model)
        # moment_stack[a, i] = S_i G_a: the moment Jacobian rows are its
        # products with m, for one point or a batch
        stack = np.array([[s @ g for s in structures] for g in gens])
        object.__setattr__(self, "_moment_stack", stack)

    @classmethod
    def from_torus_weights(cls, specs) -> "LinearAction":
        return cls(tuple(action_generator(spec) for spec in specs))

    @property
    def model(self) -> FlatModel:
        return self._model

    @property
    def dim_g(self) -> int:
        return len(self.generators)

    @property
    def dim(self) -> int:
        return self.generators[0].shape[0]


@dataclass(frozen=True)
class LevelSpec:
    """Level of the moment triple: coefficients c against the generator
    basis, placed in the omega_1 slot; the complex slots are zero."""

    c: tuple

    def __post_init__(self):
        c = np.atleast_1d(np.asarray(self.c, dtype=float))
        object.__setattr__(self, "c", tuple(float(v) for v in c))

    @property
    def dim_g(self) -> int:
        return len(self.c)

    @property
    def is_integral(self) -> bool:
        return all(abs(v - round(v)) < 1e-12 for v in self.c)

    def target(self) -> np.ndarray:
        out = np.zeros((len(self.c), 3))
        out[:, 0] = self.c
        return out


# -- moment map ---------------------------------------------------------------------


def hk_moment(action: LinearAction, m) -> np.ndarray:
    """nu[a, i] = (1/2) omega_i(G_a m, m); quadratic, vanishing at the origin.

    ``m`` is one point (dim,), giving (dim_g, 3), or a batch (k, dim),
    giving (k, dim_g, 3).  Each entry is a separate (1, dim) @ (dim, 1)
    product of a Jacobian row with m, which BLAS rounds as it rounds
    ``np.dot`` of the two vectors, so a batch row has the bits of that
    point alone; a sum over the last axis would round differently.
    """
    m = np.asarray(m, dtype=float)
    rows = moment_jacobian(action, m)
    return 0.5 * (rows[..., None, :] @ m[..., None, None, :, None])[..., 0, 0]


def moment_jacobian(action: LinearAction, m) -> np.ndarray:
    """d nu at m: rows (a, i) are the covectors (S_i G_a m)^T, i.e. i_{X_a} omega_i.

    Shape (dim_g, 3, dim) for one point, (k, dim_g, 3, dim) for a batch.
    """
    m = np.asarray(m, dtype=float)
    return (action._moment_stack @ m[..., None, None, :, None])[..., 0]


# -- level sets ---------------------------------------------------------------------


def _rank_deficient(sv) -> np.ndarray:
    """Which rows of singular values (..., r), largest first, fail the condition guard."""
    return (sv[..., 0] < 1e-12) | (sv[..., -1] < sv[..., 0] / _CONDITION_GUARD)


@dataclass(frozen=True, eq=False)
class LevelSetPoint:
    """A converged point of nu^{-1}(c, 0, 0) with cached derivative data."""

    point: np.ndarray
    level: LevelSpec
    dnu: np.ndarray
    orbit: np.ndarray
    residual: float
    history: tuple

    @cached_property
    def frame(self) -> np.ndarray:
        """The oriented horizontal frame (see ``horizontal_frame``).

        Quaternionic blocks (v, I v, J v, K v) off the vertical frame: the
        horizontal space is I, J, K-invariant, so no axis choice or
        orientation flip is needed, and the frame is smooth in the point.
        Built on first use and kept, read-only, so every consumer of this
        point (charts, samples, descended data) shares one frame.
        """
        frame = _quaternionic_frame(_vertical_frame([self])[0])
        frame.flags.writeable = False
        return frame

    def __post_init__(self):
        if self.residual > 1e-10:
            raise ConvergenceError(
                f"level residual {self.residual:.2e} exceeds 1e-10"
            )
        if _rank_deficient(np.linalg.svd(self.orbit, compute_uv=False)):
            raise NonFreePointError(
                "orbit directions are linearly dependent: the action is not "
                "free at this point"
            )


def solve_level(
    action: LinearAction, level: LevelSpec, seed
) -> LevelSetPoint | list[LevelSetPoint]:
    """Newton iteration on nu(m) = (c, 0, 0) from one seed (dim,) or a batch (k, dim).

    Returns a LevelSetPoint for one seed and a list of them for a batch.
    Each row iterates until its own residual is below _LEVEL_NEWTON_TOL, so
    a batch row equals that seed solved alone.  A step is the minimum-norm
    solution -V^T diag(1/s) U^T res from one batched SVD of the live rows'
    moment Jacobians, whose singular values also guard the rank: rank
    deficiency along the way raises NonFreePointError, running out the
    budget of _LEVEL_MAX_ITER steps raises ConvergenceError.
    """
    if level.dim_g != action.dim_g:
        raise ConfigError("level dimension does not match the action")
    seeds = np.asarray(seed, dtype=float)
    if seeds.ndim not in (1, 2) or seeds.shape[-1] != action.dim:
        raise ConfigError(f"seed must be a vector of length {action.dim} or a batch of them")
    m = np.atleast_2d(seeds).copy()
    target = level.target().ravel()
    history = [[] for _ in m]
    todo = np.arange(len(m))
    for _ in range(_LEVEL_MAX_ITER + 1):
        res = hk_moment(action, m[todo]).reshape(len(todo), target.size) - target
        norms = np.linalg.norm(res, axis=1)
        for row, norm in zip(todo, norms):
            history[row].append(float(norm))
        live = ~(norms < _LEVEL_NEWTON_TOL)
        todo, res = todo[live], res[live]
        if not todo.size:
            break
        jac = moment_jacobian(action, m[todo]).reshape(len(todo), target.size, action.dim)
        u, sv, vt = np.linalg.svd(jac, full_matrices=False)
        if np.any(_rank_deficient(sv)):
            raise NonFreePointError("moment Jacobian is rank-deficient")
        coef = (u.transpose(0, 2, 1) @ res[:, :, None]) / sv[:, :, None]
        m[todo] -= (vt.transpose(0, 2, 1) @ coef)[:, :, 0]
    else:
        raise ConvergenceError(f"no convergence in {_LEVEL_MAX_ITER} Newton steps")
    dnu = moment_jacobian(action, m)
    orbits = (np.array(action.generators) @ m[:, None, :, None])[..., 0].transpose(0, 2, 1)
    points = [
        LevelSetPoint(
            point=m[row],
            level=level,
            dnu=dnu[row],
            orbit=orbits[row],
            residual=hist[-1],
            history=tuple(hist),
        )
        for row, hist in enumerate(history)
    ]
    return points if seeds.ndim == 2 else points[0]


# -- quotient frames ------------------------------------------------------------------


def _vertical_frame(points) -> np.ndarray:
    """Orthonormal bases (k, dim, 4 dim_g) of the vertical spaces of k level-set points.

    One SVD of each point's stacked [orbit | d nu] columns: its left
    singular vectors span them, and its singular values guard the rank.
    """
    cols = np.array(
        [np.concatenate([p.orbit, p.dnu.reshape(-1, p.point.size).T], axis=1) for p in points]
    )
    u, sv, _ = np.linalg.svd(cols, full_matrices=False)
    if np.any(_rank_deficient(sv)):
        raise NonFreePointError("orbit directions and moment gradients are linearly dependent")
    return u


def _quaternionic_frame(vert: np.ndarray) -> np.ndarray:
    """Horizontal frame (dim, dim - w) of blocks (v, I v, J v, K v) off a vertical frame (dim, w).

    The vertical space, spanned by the orbit directions G_a m and the moment
    gradients S_i G_a m, is the quaternionic span of the orbit, and I, J, K
    are orthogonal, so they preserve its complement, the horizontal space.
    Block j projects the fixed generic seed sin((j + 1) (1, ..., dim)) twice
    off the vertical frame and the earlier blocks and normalises it to v;
    (v, I v, J v, K v) is then orthonormal with omega_1 = e01 + e23 on it, so
    the frame is oriented with no sign fix.  Nothing picks among candidates,
    so the frame is smooth in the vertical frame.  A seed whose projection
    falls below the condition guard raises NonFreePointError.
    """
    dim, width = vert.shape
    structures = FlatModel(dim // 4).structures()
    basis = vert
    for j in range((dim - width) // 4):
        seed = np.sin((j + 1) * np.arange(1.0, dim + 1.0))
        v = seed
        for _ in range(2):
            v = v - basis @ (basis.T @ v)
        norm = np.linalg.norm(v)
        if norm < np.linalg.norm(seed) / _CONDITION_GUARD:
            raise NonFreePointError(f"frame seed {j} is vertical up to the condition guard")
        v = v / norm
        basis = np.column_stack([basis, v] + [s @ v for s in structures])
    return basis[:, width:]


def horizontal_frame(action: LinearAction, lsp: LevelSetPoint) -> np.ndarray:
    """Orthonormal basis of ker(d nu) intersected with the orbit complement.

    That space is the orthogonal complement of the quaternionic span of
    the orbit, so I, J and K preserve it, and the frame is made of blocks
    (v, I v, J v, K v) from fixed seeds (``_quaternionic_frame``).  It is
    oriented by construction (omega_bar_1 = e01 + e23 on every block, so
    omega_i ^ omega_i = +2 vol) and smooth in the point: no pivot or sign
    flip depends on rounding.  It is ``lsp.frame``: built once per
    level-set point, read-only.
    """
    return lsp.frame


def _require_commuting(action: LinearAction, gen: np.ndarray, tol: float, label: str):
    for idx, g in enumerate(action.generators):
        dev = np.max(np.abs(gen @ g - g @ gen))
        if dev > tol:
            raise StructureError(
                f"{label} does not commute with generator {idx} (residual {dev:.2e})"
            )


def descended_circle_data(action: LinearAction, rotator: CircleActionSpec, lsp: LevelSetPoint):
    """Horizontal rotator field (frame coordinates) and restricted moment value.

    The rotator must commute with the action and therefore preserves the
    level set; both facts are checked, not assumed.
    """
    gen = action_generator(rotator)
    if gen.shape[0] != action.dim:
        raise ConfigError("rotator dimension does not match the action")
    _require_commuting(action, gen, _ROTATOR_COMMUTE_TOL, "rotator")
    velocity = gen @ lsp.point
    drift = np.max(np.abs(lsp.dnu.reshape(-1, action.dim) @ velocity))
    if drift > 1e-9:
        raise StructureError(f"rotator does not preserve the level set ({drift:.2e})")
    frame = horizontal_frame(action, lsp)
    x_bar = frame.T @ velocity
    return x_bar, float(moment_map(rotator, lsp.point))


# -- charts and curvature --------------------------------------------------------------


class QuotientChart:
    """Local quotient coordinates by Newton retraction of horizontal moves.

    point(xi) projects m0 + frame.xi back onto the level set.  It takes one
    chart point (k,) or a batch (m, k) and retracts all rows in one
    vectorised Newton solve; each row converges on its own, so a batch row
    equals that point retracted alone.  ``jet`` retracts a batch of chart
    points together with their whole tangent stencil in one such solve.
    The pulled-back Kahler forms, the induced metric (orbit directions
    projected out), the complex structures and the connection form are
    array functions of a jet, so every quantity at the same points shares
    one retraction.  The frame is the level-set point's own (``lsp.frame``).
    """

    def __init__(self, action: LinearAction, lsp: LevelSetPoint):
        self.action = action
        self.lsp = lsp
        self.frame = horizontal_frame(action, lsp)
        self._target = lsp.level.target().ravel()
        self._omega = tuple(w.as_matrix() for w in action.model.kahler_triple())
        self._generators = np.array(action.generators)

    @property
    def dim(self) -> int:
        return self.frame.shape[1]

    def point(self, xi) -> np.ndarray:
        """Retraction of xi, (k,) -> (dim,) or (m, k) -> (m, dim).

        Newton takes the minimum-norm step J^T (J J^T)^{-1} (-res) on every
        row whose level residual is not yet below the tolerance.
        """
        xi = np.asarray(xi, dtype=float)
        rows = np.atleast_2d(xi)
        m = self.lsp.point + (self.frame @ rows[:, :, None])[:, :, 0]
        todo = np.arange(len(m))
        for _ in range(_CHART_MAX_ITER):
            res = hk_moment(self.action, m[todo]).reshape(len(todo), -1) - self._target
            live = ~(np.linalg.norm(res, axis=1) < _CHART_NEWTON_TOL)
            todo, res = todo[live], res[live]
            if not todo.size:
                return m if xi.ndim > 1 else m[0]
            jac = moment_jacobian(self.action, m[todo]).reshape(len(todo), -1, m.shape[1])
            jac_t = jac.transpose(0, 2, 1)
            m[todo] += (jac_t @ np.linalg.solve(jac @ jac_t, -res[:, :, None]))[:, :, 0]
        raise ConvergenceError("chart retraction did not converge")

    def jet(self, xi):
        """(points, tangents, stencil) of chart points xi (k, K), from one ``point`` call.

        points (k, N) retracts xi into H^n, tangents (k, N, K) holds
        d point / d xi, and stencil retracts the stencil of xi, so that
        ``_stencil_derivatives(f(stencil), k, _CHART_TANGENT_SCHEME)`` is the
        chart gradient at each row of any batch function f of the point.
        """
        xi = np.asarray(xi, dtype=float)
        if xi.ndim != 2 or xi.shape[1] != self.dim:
            raise ConfigError(f"jet takes a batch of chart points (k, {self.dim})")
        rows = self.point(np.vstack([xi, _stencil_points(xi, _CHART_TANGENT_SCHEME)]))
        points, stencil = rows[: len(xi)], rows[len(xi) :]
        tangents = _stencil_derivatives(stencil, len(xi), _CHART_TANGENT_SCHEME)
        return points, np.ascontiguousarray(tangents.transpose(0, 2, 1)), stencil

    def omega_bar(self, jet, i: int) -> np.ndarray:
        """omega_i pulled back to the chart at each jet point, as (k, K, K) matrices."""
        _, tangents, _ = jet
        return tangents.transpose(0, 2, 1) @ self._omega[i - 1] @ tangents

    def _orbit_split(self, jet):
        """(coef, T - O coef) for the orbit O = (G_a p): coef = (O^T O)^{-1} O^T T."""
        points, tangents, _ = jet
        orbit_t = (self._generators @ points[:, None, :, None])[..., 0]
        coef = np.linalg.solve(orbit_t @ orbit_t.transpose(0, 2, 1), orbit_t @ tangents)
        return coef, tangents - orbit_t.transpose(0, 2, 1) @ coef

    def metric(self, jet) -> np.ndarray:
        """Quotient metric (k, K, K) at each jet point: the horizontal Gram matrix."""
        _, horizontal = self._orbit_split(jet)
        return horizontal.transpose(0, 2, 1) @ horizontal

    def structure(self, jet, i: int) -> np.ndarray:
        """Quotient complex structure -g^{-1} omega_bar_i (k, K, K) at each jet point."""
        return -np.linalg.solve(self.metric(jet), self.omega_bar(jet, i))

    def theta(self, jet, chi) -> np.ndarray:
        """Canonical connection form chi(orbit part of the tangents), (k, K)."""
        coef, _ = self._orbit_split(jet)
        return np.asarray(chi, dtype=float) @ coef


def moment_descent_residual(
    action: LinearAction,
    rotator: CircleActionSpec,
    lsp: LevelSetPoint,
) -> float:
    """FD check of d mu_bar = i_{X_bar} omega_bar_1 on the quotient chart."""
    chart = QuotientChart(action, lsp)
    x_bar, _ = descended_circle_data(action, rotator, lsp)
    jet = chart.jet(np.zeros((1, chart.dim)))
    grad = _stencil_derivatives(moment_field(rotator)(jet[2]), 1, _CHART_TANGENT_SCHEME)[0]
    covec = x_bar @ chart.omega_bar(jet, 1)[0]
    return float(np.max(np.abs(grad - covec)))


def descended_curvature(
    action: LinearAction,
    rotator: CircleActionSpec,
    lsp: LevelSetPoint,
) -> FormValue:
    """omega_bar_1 + dd^c(mu_bar / degree) on the quotient chart at xi = 0.

    This is the descent of the flat curvature form: the restricted moment
    map is divided by the rotator's rotation degree on the form pencil,
    matching the flat-space normalisation.  d^c(mu_bar / degree) is one
    batch callback taking the structure and gradient from one jet.
    """
    chart = QuotientChart(action, lsp)
    base = FormValue.from_matrix(chart.omega_bar(chart.jet(np.zeros((1, chart.dim))), 1)[0])
    degree = rotator.degree
    if degree == 0:
        return base
    descended_circle_data(action, rotator, lsp)  # validates commuting + level drift
    mu = moment_field(rotator)

    def dc_form(xi):
        jet = chart.jet(xi)
        grad = _stencil_derivatives(mu(jet[2]), len(xi), _CHART_TANGENT_SCHEME) / degree
        s_bar_t = chart.structure(jet, 1).transpose(0, 2, 1)
        return -(s_bar_t @ grad[:, :, None])[:, :, 0]

    dc = FormField(dc_form, degree=1, dim=chart.dim)
    return base + ext_deriv(dc, np.zeros(chart.dim), _CURVATURE_SCHEME)


def canonical_bundle_curvature(
    action: LinearAction,
    chi,
    lsp: LevelSetPoint,
) -> FormValue:
    """Curvature of the canonical connection of the chi-weight line bundle.

    The connection one-form is chi composed with the metric vertical
    projection; its curvature is computed as the exterior derivative of
    the pulled-back connection form along a local horizontal section,
    with the sign fixed so that integer chi reproduces the descended
    curvature form.
    """
    chi = np.atleast_1d(np.asarray(chi, dtype=float))
    if chi.shape != (action.dim_g,):
        raise ConfigError("one weight per generator required")
    if not lsp.level.is_integral:
        warnings.warn("level is not integral: no global line bundle descends")
    chart = QuotientChart(action, lsp)
    if np.all(chi == 0.0):
        return FormValue(2, chart.dim)
    field = FormField(lambda xi: chart.theta(chart.jet(xi), chi), degree=1, dim=chart.dim)
    return -ext_deriv(field, np.zeros(chart.dim), _CURVATURE_SCHEME)


# -- multi-centre coordinates ----------------------------------------------------------


def gh_coordinates(
    action: LinearAction,
    triholo: CircleActionSpec,
    lsp,
    *,
    scale: float = 1.0,
):
    """Coordinates (x, V) of the quotient in multi-centre potential form.

    x is the moment triple of the residual triholomorphic circle and
    V^{-1} the squared length of its horizontal field (the velocity minus
    its vertical part).  `scale` runs the circle at a multiple of the given speed.
    ``lsp`` is one LevelSetPoint, giving (x (3,), V), or a sequence of k of
    them, giving (xs (k, 3), vs (k,)); a batch row equals that point alone.
    """
    gen = scale * action_generator(triholo)
    if gen.shape[0] != action.dim:
        raise ConfigError("circle dimension does not match the action")
    structures = np.array(action.model.structures())
    for s in structures:
        if np.max(np.abs(s @ gen - gen @ s)) > _CIRCLE_COMMUTE_TOL:
            raise StructureError("residual circle is not triholomorphic")
    _require_commuting(action, gen, _CIRCLE_COMMUTE_TOL, "residual circle")
    single = isinstance(lsp, LevelSetPoint)
    points = [lsp] if single else list(lsp)
    m = np.array([p.point for p in points])
    velocity = (gen @ m[:, :, None])[:, :, 0]
    s_velocity = (structures @ velocity[:, None, :, None])[..., 0]
    x = 0.5 * (s_velocity[:, :, None, :] @ m[:, None, :, None])[..., 0, 0]
    vert = _vertical_frame(points)
    horizontal = velocity - (vert @ (vert.transpose(0, 2, 1) @ velocity[:, :, None]))[:, :, 0]
    v_inv = (horizontal[:, None, :] @ horizontal[:, :, None])[:, 0, 0]
    if np.any(v_inv < 1e-12):
        raise DomainError("residual circle fixes a sample point")
    if single:
        return x[0], float(1.0 / v_inv[0])
    return x, 1.0 / v_inv


# -- worked example fixtures -----------------------------------------------------------


def eguchi_hanson_action() -> LinearAction:
    """H^2 circle with weights (+1,+1) on z and (-1,-1) on w."""
    return LinearAction.from_torus_weights(
        [CircleActionSpec(k=(1, 1), l=(-1, -1))]
    )


def eh_rotator() -> CircleActionSpec:
    """The diagonal rotation (z, w) -> e^{i t}(z, w); commutes with the action."""
    return CircleActionSpec(k=(1, 1), l=(1, 1))


def eh_residual_circle() -> CircleActionSpec:
    """Triholomorphic circle surviving the quotient: weights (+1,-1)/(-1,+1)."""
    return CircleActionSpec(k=(1, -1), l=(-1, 1))
