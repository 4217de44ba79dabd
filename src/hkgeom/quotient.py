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
from typing import Callable

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
    interior_product,
    pullback,
)

#: speed of the Eguchi-Hanson residual circle that makes the recovered
#: multi-centre potential have unit coefficients.  Measured calibration:
#: at full speed the sampled pairs satisfy V = (1/4) sum_i 1/|x - a_i|
#: (the circle has doubled local weight at its two fixed points, and the
#: fit is quadratic in the speed), so scale 1/4 gives V = sum_i 1/|x - a_i|.
GH_CIRCLE_SCALE = 0.25

_MGS_CONDITION_GUARD = 1e8

#: Newton tolerance and iteration budget of the chart retraction
_CHART_NEWTON_TOL = 1e-14
_CHART_MAX_ITER = 60
#: stencil for the chart tangents d point / d xi (and the chart gradients)
_CHART_TANGENT_SCHEME = FDScheme(h=1e-4, order=4)


@dataclass(frozen=True, eq=False)
class LinearAction:
    """Commuting triholomorphic generators of a torus acting on H^n.

    Each generator must be antisymmetric (a flat Killing field) and
    commute with the three complex structures; the bracket table is
    computed and closure is enforced at construction.
    """

    generators: tuple
    structure_tol: float = 1e-10

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
            if np.max(np.abs(g + g.T)) > self.structure_tol:
                raise StructureError(f"generator {idx} is not metric-antisymmetric")
            for s in structures:
                if np.max(np.abs(s @ g - g @ s)) > self.structure_tol:
                    raise StructureError(f"generator {idx} is not triholomorphic")
        basis = np.stack([g.ravel() for g in gens], axis=1)
        table = np.zeros((len(gens), len(gens), len(gens)))
        worst = 0.0
        for a, ga in enumerate(gens):
            for b, gb in enumerate(gens):
                bracket = (ga @ gb - gb @ ga).ravel()
                coef, *_ = np.linalg.lstsq(basis, bracket, rcond=None)
                table[a, b] = coef
                worst = max(worst, float(np.max(np.abs(basis @ coef - bracket))))
        if worst > self.structure_tol:
            raise StructureError(f"generators do not close under bracket ({worst:.2e})")
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_model", model)
        object.__setattr__(self, "_structure_constants", table)
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

    @property
    def structure_constants(self) -> np.ndarray:
        return self._structure_constants.copy()


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


def coadjoint_residual(action: LinearAction, level: LevelSpec) -> float:
    """Invariance defect of the level under the coadjoint action: for tori
    the bracket table vanishes and this is exactly zero."""
    table = action.structure_constants
    c = np.asarray(level.c)
    return float(np.max(np.abs(np.tensordot(table, c, axes=([2], [0])))))


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

        Built on first use and kept, read-only, so every consumer of this
        point (charts, samples, descended data, multi-centre coordinates)
        shares one frame.
        """
        vert = _vertical_frame(self)
        dim = self.point.size
        basis = [np.eye(dim)[:, j] for j in range(dim)]
        frame = _mgs_pivoted(basis, dim - vert.shape[1], against=vert)
        omega1 = pullback(FlatModel(dim // 4).omega1, frame).as_matrix()
        if _pfaffian(omega1) < 0.0:
            frame[:, -1] = -frame[:, -1]
        frame.flags.writeable = False
        return frame

    def __post_init__(self):
        if self.residual > 1e-10:
            raise ConvergenceError(
                f"level residual {self.residual:.2e} exceeds 1e-10"
            )
        sv = np.linalg.svd(self.orbit, compute_uv=False)
        if sv[0] < 1e-12 or sv[-1] < sv[0] / _MGS_CONDITION_GUARD:
            raise NonFreePointError(
                "orbit directions are linearly dependent: the action is not "
                "free at this point"
            )


def solve_level(
    action: LinearAction,
    level: LevelSpec,
    seed,
    *,
    tol: float = 1e-12,
    max_iter: int = 40,
) -> LevelSetPoint:
    """Newton iteration on nu(m) = (c, 0, 0) from the seed point.

    Steps are least-squares solutions against the full moment Jacobian;
    rank deficiency along the way raises NonFreePointError, running out
    the iteration budget raises ConvergenceError.
    """
    if level.dim_g != action.dim_g:
        raise ConfigError("level dimension does not match the action")
    m = np.asarray(seed, dtype=float).copy()
    if m.shape != (action.dim,):
        raise ConfigError(f"seed must be a vector of length {action.dim}")
    target = level.target()
    history = []
    for _ in range(max_iter + 1):
        res = hk_moment(action, m) - target
        norm = float(np.linalg.norm(res))
        history.append(norm)
        if norm < tol:
            return LevelSetPoint(
                point=m,
                level=level,
                dnu=moment_jacobian(action, m),
                orbit=np.column_stack([g @ m for g in action.generators]),
                residual=norm,
                history=tuple(history),
            )
        jac = moment_jacobian(action, m).reshape(3 * action.dim_g, action.dim)
        sv = np.linalg.svd(jac, compute_uv=False)
        if sv[0] < 1e-12 or sv[-1] < sv[0] / _MGS_CONDITION_GUARD:
            raise NonFreePointError("moment Jacobian is rank-deficient")
        step, *_ = np.linalg.lstsq(jac, -res.ravel(), rcond=None)
        m = m + step
    raise ConvergenceError(f"no convergence in {max_iter} Newton steps")


# -- quotient frames ------------------------------------------------------------------


def _mgs_pivoted(columns, rank, *, guard=_MGS_CONDITION_GUARD, against=None):
    """Modified Gram-Schmidt with column pivoting.

    Picks `rank` columns (largest remaining norm first), orthonormalises
    them (optionally against a pre-existing orthonormal block), and
    raises NonFreePointError when the pivot norm collapses below the
    condition guard relative to the largest input norm.
    """
    work = np.array(np.column_stack(columns), dtype=float)
    if against is not None:
        work = work - against @ (against.T @ work)
    scale = float(np.max(np.linalg.norm(work, axis=0)))
    if scale == 0.0:
        raise NonFreePointError("all candidate directions vanish")
    out = []
    alive = list(range(work.shape[1]))
    for _ in range(rank):
        norms = np.linalg.norm(work[:, alive], axis=0)
        best = int(np.argmax(norms))
        if norms[best] < scale / guard:
            raise NonFreePointError(
                f"direction set is rank-deficient beyond the 1e{int(np.log10(guard))} guard"
            )
        col = alive.pop(best)
        q = work[:, col] / np.linalg.norm(work[:, col])
        # a second orthogonalisation pass keeps the frame orthonormal to
        # machine precision even for nearly dependent inputs
        if against is not None:
            q = q - against @ (against.T @ q)
        for done in out:
            q = q - done * (done @ q)
        q = q / np.linalg.norm(q)
        out.append(q)
        for other in alive:
            work[:, other] -= q * (q @ work[:, other])
    return np.column_stack(out)


def _vertical_frame(lsp: LevelSetPoint) -> np.ndarray:
    dim_g = lsp.orbit.shape[1]
    cols = [lsp.orbit[:, a] for a in range(dim_g)]
    cols += [lsp.dnu[a, i] for a in range(dim_g) for i in range(3)]
    return _mgs_pivoted(cols, 4 * dim_g)


def vertical_frame(action: LinearAction, lsp: LevelSetPoint) -> np.ndarray:
    """Orthonormal span of the orbit directions and the moment gradients."""
    return _vertical_frame(lsp)


def _pfaffian(m: np.ndarray) -> float:
    n = m.shape[0]
    if n == 0:
        return 1.0
    if n % 2:
        return 0.0
    total = 0.0
    rest = list(range(1, n))
    for pos, j in enumerate(rest):
        sign = -1.0 if pos % 2 else 1.0
        others = rest[:pos] + rest[pos + 1 :]
        total += sign * m[0, j] * _pfaffian(m[np.ix_(others, others)])
    return total


def horizontal_frame(action: LinearAction, lsp: LevelSetPoint) -> np.ndarray:
    """Orthonormal basis of ker(d nu) intersected with the orbit complement.

    The frame is oriented so the restricted Kahler triple satisfies
    omega_i ^ omega_i = +2 vol.  It is ``lsp.frame``: built once per
    level-set point, read-only.
    """
    return lsp.frame


@dataclass(frozen=True, eq=False)
class QuotientSample:
    """Pointwise quotient data: frame, metric, Kahler triple, structures."""

    frame: np.ndarray
    metric: np.ndarray
    omega_bar: tuple
    structures: tuple
    mu_bar: float | None = None

    def __post_init__(self):
        for s in self.structures:
            dev = np.max(np.abs(s @ s + np.eye(s.shape[0])))
            if dev > 1e-8:
                raise StructureError(f"quotient structure fails S^2 = -Id by {dev:.2e}")


def quotient_sample(
    action: LinearAction,
    lsp: LevelSetPoint,
    rotator: CircleActionSpec | None = None,
) -> QuotientSample:
    """Flat metric and Kahler triple restricted to the horizontal frame."""
    frame = horizontal_frame(action, lsp)
    metric = frame.T @ frame
    omega_bar = tuple(pullback(w, frame) for w in action.model.kahler_triple())
    inv = np.linalg.inv(metric)
    structures = tuple(-inv @ w.as_matrix() for w in omega_bar)
    mu_bar = None
    if rotator is not None:
        mu_bar = float(moment_map(rotator, lsp.point))
    return QuotientSample(
        frame=frame,
        metric=metric,
        omega_bar=omega_bar,
        structures=structures,
        mu_bar=mu_bar,
    )


def _require_commuting(action: LinearAction, gen: np.ndarray, tol: float, label: str):
    for idx, g in enumerate(action.generators):
        dev = np.max(np.abs(gen @ g - g @ gen))
        if dev > tol:
            raise StructureError(
                f"{label} does not commute with generator {idx} (residual {dev:.2e})"
            )


def descended_circle_data(
    action: LinearAction,
    rotator: CircleActionSpec,
    lsp: LevelSetPoint,
    *,
    commute_tol: float = 1e-12,
):
    """Horizontal rotator field (frame coordinates) and restricted moment value.

    The rotator must commute with the action and therefore preserves the
    level set; both facts are checked, not assumed.
    """
    gen = action_generator(rotator)
    if gen.shape[0] != action.dim:
        raise ConfigError("rotator dimension does not match the action")
    _require_commuting(action, gen, commute_tol, "rotator")
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
    equals that point retracted alone.  Tangents, pulled-back forms, the
    induced metric (orbit directions projected out), complex structures
    and gradients are finite-difference consumers of that map: the chart
    retracts xi together with its whole stencil in one batch and keeps the
    batch of the last (xi, scheme), so tangents, metric, structure and a
    gradient at the same xi and scheme share one retraction.  The frame is
    the level-set point's own (``lsp.frame``).
    """

    def __init__(self, action: LinearAction, lsp: LevelSetPoint):
        self.action = action
        self.lsp = lsp
        self.frame = horizontal_frame(action, lsp)
        self._target = lsp.level.target().ravel()
        self._triple = action.model.kahler_triple()
        self._last = None  # ((xi bytes, scheme), retracted xi, retracted stencil)

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

    def _retracted(self, xi, scheme: FDScheme = _CHART_TANGENT_SCHEME):
        """(point(xi), point at every stencil point of xi), in one batch."""
        xi = np.asarray(xi, dtype=float)
        key = (xi.tobytes(), scheme)
        if self._last is None or self._last[0] != key:
            rows = self.point(np.vstack([xi, _stencil_points(xi[None, :], scheme)]))
            rows.flags.writeable = False
            self._last = (key, rows[0], rows[1:])
        return self._last[1:]

    def _derivative(self, fn: Callable, xi, scheme: FDScheme) -> np.ndarray:
        """D[i] = d_i fn(point(xi)); fn gets the retracted stencil as one batch."""
        _, stencil = self._retracted(xi, scheme)
        return _stencil_derivatives(fn(stencil), 1, scheme)[0]

    def tangents(self, xi) -> np.ndarray:
        jac = self._derivative(lambda pts: pts, xi, _CHART_TANGENT_SCHEME)
        return np.ascontiguousarray(jac.T)

    def form(self, xi, w: FormValue) -> FormValue:
        return pullback(w, self.tangents(xi))

    def omega_bar(self, xi, i: int) -> FormValue:
        return self.form(xi, self._triple[i - 1])

    def metric(self, xi, tangents=None) -> np.ndarray:
        tang = self.tangents(xi) if tangents is None else tangents
        p, _ = self._retracted(xi)
        orbit = _mgs_pivoted(
            [g @ p for g in self.action.generators], self.action.dim_g
        )
        horiz = tang - orbit @ (orbit.T @ tang)
        return horiz.T @ horiz

    def structure(self, xi, i: int) -> np.ndarray:
        tang = self.tangents(xi)
        matrix = pullback(self._triple[i - 1], tang).as_matrix()
        return -np.linalg.solve(self.metric(xi, tang), matrix)

    def scalar_gradient(self, fn: Callable, xi, scheme: FDScheme) -> np.ndarray:
        """Gradient of fn o point at xi; fn maps the retracted stencil, (m, dim) -> (m,)."""
        return self._derivative(fn, xi, scheme)


def moment_descent_residual(
    action: LinearAction,
    rotator: CircleActionSpec,
    lsp: LevelSetPoint,
    scheme: FDScheme | None = None,
) -> float:
    """FD check of d mu_bar = i_{X_bar} omega_bar_1 on the quotient chart."""
    scheme = scheme or FDScheme(h=1e-4, order=4)
    chart = QuotientChart(action, lsp)
    x_bar, _ = descended_circle_data(action, rotator, lsp)
    grad = chart.scalar_gradient(moment_field(rotator), np.zeros(chart.dim), scheme)
    covec = interior_product(x_bar, chart.omega_bar(np.zeros(chart.dim), 1))
    return float(np.max(np.abs(grad - covec.comps)))


def descended_curvature(
    action: LinearAction,
    rotator: CircleActionSpec,
    lsp: LevelSetPoint,
    scheme: FDScheme | None = None,
) -> FormValue:
    """omega_bar_1 + dd^c(mu_bar / degree) on the quotient chart at xi = 0.

    This is the descent of the flat curvature form: the restricted moment
    map is divided by the rotator's rotation degree on the form pencil,
    matching the flat-space normalisation.
    """
    scheme = scheme or FDScheme(h=2e-3, order=4)
    inner = FDScheme(h=1e-4, order=4)
    chart = QuotientChart(action, lsp)
    base = chart.omega_bar(np.zeros(chart.dim), 1)
    degree = rotator.degree
    if degree == 0:
        return base
    descended_circle_data(action, rotator, lsp)  # validates commuting + level drift
    mu = moment_field(rotator)

    def dc_form(xi):
        s_bar = chart.structure(xi, 1)
        grad = chart.scalar_gradient(mu, xi, inner)
        return -s_bar.T @ (grad / degree)

    dc = FormField(lambda rows: np.array([dc_form(xi) for xi in rows]), degree=1, dim=chart.dim)
    return base + ext_deriv(dc, np.zeros(chart.dim), scheme)


def canonical_bundle_curvature(
    action: LinearAction,
    chi,
    lsp: LevelSetPoint,
    scheme: FDScheme | None = None,
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
    scheme = scheme or FDScheme(h=2e-3, order=4)
    chart = QuotientChart(action, lsp)
    if np.all(chi == 0.0):
        return FormValue(2, chart.dim)

    def theta(xi):
        tang = chart.tangents(xi)
        p, _ = chart._retracted(xi)
        orbit = np.column_stack([g @ p for g in action.generators])
        coef = np.linalg.solve(orbit.T @ orbit, orbit.T @ tang)
        return chi @ coef

    field = FormField(lambda rows: np.array([theta(xi) for xi in rows]), degree=1, dim=chart.dim)
    return -ext_deriv(field, np.zeros(chart.dim), scheme)


# -- multi-centre coordinates ----------------------------------------------------------


def gh_coordinates(
    action: LinearAction,
    triholo: CircleActionSpec,
    lsp: LevelSetPoint,
    *,
    scale: float = 1.0,
    commute_tol: float = 1e-10,
):
    """Coordinates (x, V) of the quotient in multi-centre potential form.

    x is the moment triple of the residual triholomorphic circle and
    V^{-1} the squared length of its horizontal field in the quotient
    metric.  `scale` runs the circle at a multiple of the given speed.
    """
    gen = scale * action_generator(triholo)
    if gen.shape[0] != action.dim:
        raise ConfigError("circle dimension does not match the action")
    structures = action.model.structures()
    for s in structures:
        if np.max(np.abs(s @ gen - gen @ s)) > commute_tol:
            raise StructureError("residual circle is not triholomorphic")
    _require_commuting(action, gen, commute_tol, "residual circle")
    m = lsp.point
    velocity = gen @ m
    x = np.array([0.5 * np.dot(s @ velocity, m) for s in structures])
    frame = lsp.frame
    x_bar = frame.T @ velocity
    v_inv = float(x_bar @ (frame.T @ frame) @ x_bar)
    if v_inv < 1e-12:
        raise DomainError("residual circle fixes this sample point")
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
