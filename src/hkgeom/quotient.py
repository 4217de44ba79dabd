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
    FormValue,
    _chunked,
    _ext_deriv_sum,
    _fd_reduce,
    _form_result,
    _pair_indices,
    _stencil_points,
    _stencil_rows,
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
        # the (dim, 3 dim_g dim) stack W[l, (a, i, j)] = (S_i G_a)[j, l]: the
        # moment Jacobian of any batch of points is the one product m @ W
        stack = np.array([[s @ g for s in structures] for g in gens])
        object.__setattr__(self, "_moment_stack", np.ascontiguousarray(stack.reshape(-1, dim).T))

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
    giving (k, dim_g, 3).  The Jacobian rows come from the one product of
    ``moment_jacobian``; each entry is then a separate (1, dim) @ (dim, 1)
    product of a row with m, which BLAS rounds as it rounds ``np.dot`` of
    the two vectors, so a batch row has the bits of that point alone; a
    sum over the last axis would round differently.
    """
    m = np.asarray(m, dtype=float)
    rows = moment_jacobian(action, m)
    return 0.5 * (rows[..., None, :] @ m[..., None, None, :, None])[..., 0, 0]


def moment_jacobian(action: LinearAction, m) -> np.ndarray:
    """d nu at m: rows (a, i) are the covectors (S_i G_a m)^T, i.e. i_{X_a} omega_i.

    Shape (dim_g, 3, dim) for one point, (k, dim_g, 3, dim) for a batch,
    from one product m @ W with the (dim, 3 dim_g dim) stack W of the
    matrices S_i G_a that ``LinearAction`` builds once, a GEMM for a batch.
    A batch row has the bits of that point alone, and of the products
    S_i G_a m one by one (tested at batch sizes 1 to 1000).
    """
    m = np.asarray(m, dtype=float)
    return (m @ action._moment_stack).reshape(m.shape[:-1] + (action.dim_g, 3, action.dim))


# -- level sets ---------------------------------------------------------------------


def _rank_deficient(sv) -> np.ndarray:
    """Which rows of singular values (..., r), largest first, fail the condition guard."""
    return (sv[..., 0] < 1e-12) | (sv[..., -1] < sv[..., 0] / _CONDITION_GUARD)


@dataclass(frozen=True, eq=False)
class LevelSetPoint:
    """A converged point of nu^{-1}(c, 0, 0) with cached derivative data.

    ``solve_level`` guards the orbit rank of all the points it solves with
    one batched SVD; the vertical frame guards it again when a frame is
    built.
    """

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
        Built on first use, or by the first chart batch that holds this
        point (``_horizontal_frames``), and kept, read-only, so every
        consumer of this point (charts, descended data) shares one frame.
        """
        _horizontal_frames([self])
        return vars(self)["frame"]

    def __post_init__(self):
        if self.residual > 1e-10:
            raise ConvergenceError(
                f"level residual {self.residual:.2e} exceeds 1e-10"
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
    budget of _LEVEL_MAX_ITER steps raises ConvergenceError.  One batched
    SVD of the solved points' orbit directions guards that the action is
    free at each of them.
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
    if np.any(_rank_deficient(np.linalg.svd(orbits, compute_uv=False))):
        raise NonFreePointError(
            "orbit directions are linearly dependent: the action is not free at a solved point"
        )
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
    """Horizontal frames (k, dim, dim - w) of blocks (v, Iv, Jv, Kv) off vertical ones (k, dim, w).

    The vertical space, spanned by the orbit directions G_a m and the moment
    gradients S_i G_a m, is the quaternionic span of the orbit, and I, J, K
    are orthogonal, so they preserve its complement, the horizontal space.
    Block j projects the fixed generic seed sin((j + 1) (1, ..., dim)) twice
    off the vertical frame and the earlier blocks and normalises it to v;
    (v, I v, J v, K v) is then orthonormal with omega_1 = e01 + e23 on it, so
    the frame is oriented with no sign fix.  Nothing picks among candidates,
    so the frame is smooth in the vertical frame.  A seed whose projection
    falls below the condition guard raises NonFreePointError.  Every step
    is a stacked matrix-vector product or a (1, dim) @ (dim, 1) dot per
    frame, so a frame of a batch has the bits of that frame built alone.
    """
    k, dim, width = vert.shape
    structures = np.array(FlatModel(dim // 4).structures())
    basis = vert
    for j in range((dim - width) // 4):
        seed = np.sin((j + 1) * np.arange(1.0, dim + 1.0))
        v = np.broadcast_to(seed, (k, dim))
        for _ in range(2):
            v = v - (basis @ (basis.transpose(0, 2, 1) @ v[:, :, None]))[:, :, 0]
        norm = np.sqrt((v[:, None, :] @ v[:, :, None])[:, 0, 0])
        if np.any(norm < np.linalg.norm(seed) / _CONDITION_GUARD):
            raise NonFreePointError(f"frame seed {j} is vertical up to the condition guard")
        v = v / norm[:, None]
        block = (structures @ v[:, None, :, None])[..., 0].transpose(0, 2, 1)
        basis = np.concatenate([basis, v[:, :, None], block], axis=2)
    return basis[:, :, width:]


def _horizontal_frames(points) -> np.ndarray:
    """The frames (k, dim, K) of level-set points: each point's own ``frame``.

    The points that have not built theirs yet build them together, from
    one ``_vertical_frame`` SVD and one ``_quaternionic_frame`` pass, and
    each keeps its row, read-only, as its cached ``LevelSetPoint.frame``.
    """
    fresh = [p for p in points if "frame" not in vars(p)]
    if fresh:
        frames = _quaternionic_frame(_vertical_frame(fresh))
        frames.flags.writeable = False
        for p, frame in zip(fresh, frames):
            vars(p)["frame"] = frame  # the cache of the cached_property
    return np.array([p.frame for p in points])


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


def _quotient_dim(action: LinearAction) -> int:
    """Dimension K of the quotient: dim minus the 4 dim_g vertical directions."""
    return action.dim - 4 * action.dim_g


def _points(lsp) -> tuple[list, bool]:
    """(points, single): one LevelSetPoint or a sequence of them as a list, and which it was."""
    if isinstance(lsp, LevelSetPoint):
        return [lsp], True
    points = list(lsp)
    if not points:
        raise ConfigError("need at least one level-set point")
    return points, False


def descended_circle_data(action: LinearAction, rotator: CircleActionSpec, lsp):
    """Horizontal rotator field (frame coordinates) and restricted moment value.

    The rotator must commute with the action and therefore preserves the
    level set; both facts are checked, not assumed.  ``lsp`` is one
    LevelSetPoint, giving (x_bar (K,), mu_bar), or a sequence of k of
    them, giving (x_bars (k, K), mu_bars (k,)); a row equals that point
    alone.
    """
    gen = action_generator(rotator)
    if gen.shape[0] != action.dim:
        raise ConfigError("rotator dimension does not match the action")
    _require_commuting(action, gen, _ROTATOR_COMMUTE_TOL, "rotator")
    points, single = _points(lsp)
    m = np.array([p.point for p in points])
    velocity = (gen @ m[:, :, None])[:, :, 0]
    dnu = np.array([p.dnu.reshape(-1, action.dim) for p in points])
    drift = np.max(np.abs(dnu @ velocity[:, :, None]))
    if drift > 1e-9:
        raise StructureError(f"rotator does not preserve the level set ({drift:.2e})")
    x_bar = (_horizontal_frames(points).transpose(0, 2, 1) @ velocity[:, :, None])[:, :, 0]
    mu_bar = moment_map(rotator, m)
    return (x_bar[0], float(mu_bar[0])) if single else (x_bar, mu_bar)


# -- charts and curvature --------------------------------------------------------------


def _chart_derivatives(vals: np.ndarray, count: int, scheme: FDScheme) -> np.ndarray:
    """D[c, j, i] = d_i at chart point j of chart c, (k, count, K, ...).

    ``vals`` (k, offsets count K, ...) holds one value per point of each
    chart's stencil of its count chart points, laid out
    [offset][point][coordinate] as ``_stencil_points`` lays out the
    stencil of one chart's points.
    """
    vals = vals.reshape((len(vals), _stencil_rows(scheme, 1), count, -1) + vals.shape[2:])
    return _fd_reduce(np.moveaxis(vals, 1, 0), scheme.order, scheme.h)


class QuotientChart:
    """Local quotient coordinates at one level-set point, or at k of them at once.

    point(xi) projects m0 + frame.xi back onto the level set.  The chart of
    one LevelSetPoint takes one chart point (K,) or a batch (m, K); the
    chart of a sequence of k points takes (k, m, K), row [c] in the chart
    of point c.  All rows are retracted in one vectorised Newton solve,
    each with its own base point, frame and level, and each converges on
    its own, so a row equals that chart point retracted alone in its own
    chart.  ``jet`` retracts chart points together with their whole tangent
    stencil in one such solve.  The pulled-back Kahler forms, the induced
    metric (orbit directions projected out), the complex structures and
    the connection form are array functions of a jet over any leading
    axes, ``gradient`` differences a function of the point over a jet's
    stencil, and ``exterior_derivative`` takes d of a chart one-form at
    xi = 0 in every chart from one call of it, so every quantity at the
    same points shares one retraction.  The frames are the level-set
    points' own (``lsp.frame``), built in one batch.
    """

    def __init__(self, action: LinearAction, lsp):
        points, single = _points(lsp)
        self.action = action
        self.lsp = lsp
        self._frames = _horizontal_frames(points)
        #: (dim, K) for one point, (k, dim, K) for k
        self.frame = lsp.frame if single else self._frames
        self._base = np.array([p.point for p in points])
        self._targets = np.array([p.level.target().ravel() for p in points])
        self._omega = tuple(w.as_matrix() for w in action.model.kahler_triple())
        self._generators = np.array(action.generators)

    @property
    def dim(self) -> int:
        return self._frames.shape[2]

    def _rows(self, xi, counts) -> tuple[np.ndarray, np.ndarray]:
        """(xi, rows): xi as a float array and as (k, m, K), after checking its shape.

        ``counts`` are the numbers of row axes allowed between the chart
        axis (a chart of k points) and the last axis of length K.
        """
        xi = np.asarray(xi, dtype=float)
        lead = self.frame.shape[:-2]
        rows = xi.ndim - len(lead) - 1
        if rows not in counts or xi.shape[: len(lead)] != lead or xi.shape[-1] != self.dim:
            shapes = " or ".join(str(lead + ("m",) * c + (self.dim,)) for c in counts)
            raise ConfigError(f"chart points must have shape {shapes}, got {xi.shape}")
        return xi, xi.reshape(len(self._base), -1, self.dim)

    def point(self, xi) -> np.ndarray:
        """Retraction of chart points into H^n, (..., K) -> (..., dim).

        xi is (K,) or (m, K) in the chart of one point, (k, K) or
        (k, m, K) in the chart of k.  Newton takes the minimum-norm step
        J^T (J J^T)^{-1} (-res) on every row whose level residual is not
        yet below the tolerance.
        """
        xi, rows = self._rows(xi, (0, 1))
        m = self._base[:, None, :] + (self._frames[:, None] @ rows[..., None])[..., 0]
        m = m.reshape(-1, self.action.dim)
        target = np.repeat(self._targets, rows.shape[1], axis=0)
        todo = np.arange(len(m))
        for _ in range(_CHART_MAX_ITER):
            res = hk_moment(self.action, m[todo]).reshape(len(todo), -1) - target[todo]
            live = ~(np.linalg.norm(res, axis=1) < _CHART_NEWTON_TOL)
            todo, res = todo[live], res[live]
            if not todo.size:
                return m.reshape(xi.shape[:-1] + (self.action.dim,))
            jac = moment_jacobian(self.action, m[todo]).reshape(len(todo), -1, m.shape[1])
            jac_t = jac.transpose(0, 2, 1)
            m[todo] += (jac_t @ np.linalg.solve(jac @ jac_t, -res[:, :, None]))[:, :, 0]
        raise ConvergenceError("chart retraction did not converge")

    def jet(self, xi):
        """(points, tangents, stencil) of chart points xi, from one ``point`` call.

        xi is a batch (m, K) in the chart of one point, (k, m, K) in the
        chart of k.  points (..., m, dim) retracts xi, tangents
        (..., m, dim, K) holds d point / d xi, and stencil (..., 4 m K, dim)
        retracts each chart's tangent stencil of its m points, laid out as
        ``_stencil_points`` lays it out, for ``gradient``.
        """
        xi, rows = self._rows(xi, (1,))
        k, count, K = rows.shape
        N = self.action.dim
        # each chart's stencil rows together, [offset][point][coordinate]
        around = _stencil_points(rows.reshape(-1, K), _CHART_TANGENT_SCHEME)
        around = around.reshape(-1, k, count * K, K).swapaxes(0, 1).reshape(k, -1, K)
        lead = self.frame.shape[:-2]
        out = self.point(np.concatenate([rows, around], axis=1).reshape(lead + (-1, K)))
        out = out.reshape(k, -1, N)
        points, stencil = out[:, :count], out[:, count:]
        tangents = _chart_derivatives(stencil, count, _CHART_TANGENT_SCHEME)
        return (
            points.reshape(xi.shape[:-1] + (N,)),
            np.ascontiguousarray(tangents.swapaxes(-1, -2)).reshape(xi.shape[:-1] + (N, K)),
            stencil.reshape(lead + (-1, N)),
        )

    def gradient(self, jet, fn) -> np.ndarray:
        """Chart gradient (..., m, K) at each jet point of fn, a batch function (r, dim) -> (r,).

        fn gets the stencils of all the jet's charts in one call.
        """
        points, _, stencil = jet
        vals = np.asarray(fn(stencil.reshape(-1, stencil.shape[-1]))).reshape(len(self._base), -1)
        grad = _chart_derivatives(vals, points.shape[-2], _CHART_TANGENT_SCHEME)
        return grad.reshape(points.shape[:-1] + (self.dim,))

    def exterior_derivative(self, form) -> np.ndarray:
        """d of a chart one-form at xi = 0, (nb,) in the chart of one point, (k, nb) in that of k.

        ``form`` takes chart points shaped as ``jet`` takes them and returns
        the one-form's components at each, in the same shape.  It gets the
        _CURVATURE_SCHEME stencil around 0 of every chart in one call, and
        ``forms._ext_deriv_sum`` sums the derivatives as ``ext_deriv`` does.
        """
        K = self.dim
        lead = self.frame.shape[:-2]
        stencil = _stencil_points(np.zeros((1, K)), _CURVATURE_SCHEME)
        vals = np.asarray(form(np.broadcast_to(stencil, lead + stencil.shape)))
        D = _chart_derivatives(vals.reshape(len(self._base), -1, K), 1, _CURVATURE_SCHEME)
        return _ext_deriv_sum(D[:, 0], K, 1).reshape(lead + (-1,))

    def omega_bar(self, jet, i: int) -> np.ndarray:
        """omega_i pulled back to the chart at each jet point, as (..., K, K) matrices."""
        _, tangents, _ = jet
        return tangents.swapaxes(-1, -2) @ self._omega[i - 1] @ tangents

    def _orbit_split(self, jet):
        """(coef, T - O coef) for the orbit O = (G_a p): coef = (O^T O)^{-1} O^T T."""
        points, tangents, _ = jet
        orbit_t = (self._generators @ points[..., None, :, None])[..., 0]
        coef = np.linalg.solve(orbit_t @ orbit_t.swapaxes(-1, -2), orbit_t @ tangents)
        return coef, tangents - orbit_t.swapaxes(-1, -2) @ coef

    def metric(self, jet) -> np.ndarray:
        """Quotient metric (..., K, K) at each jet point: the horizontal Gram matrix."""
        _, horizontal = self._orbit_split(jet)
        return horizontal.swapaxes(-1, -2) @ horizontal

    def structure(self, jet, i: int) -> np.ndarray:
        """Quotient complex structure -g^{-1} omega_bar_i (..., K, K) at each jet point."""
        return -np.linalg.solve(self.metric(jet), self.omega_bar(jet, i))

    def theta(self, jet, chi) -> np.ndarray:
        """Canonical connection form chi(orbit part of the tangents), (..., K)."""
        coef, _ = self._orbit_split(jet)
        return np.asarray(chi, dtype=float) @ coef


def _over_charts(action: LinearAction, lsp, op) -> np.ndarray:
    """op(chart) on the chart of each chunk of the level-set points lsp, concatenated.

    ``lsp`` is one LevelSetPoint or a sequence; op returns one row per
    point of its chart of k.  A chunk holds as many consecutive points as
    keep the rows of their nested curvature stencils (4 K outer points,
    each with its 4 K-point tangent stencil: 272 rows at K = 4) within
    ``forms.MAX_STENCIL_VALUES`` retracted rows, and at least one point,
    so a retraction takes the same memory at any number of points.
    """
    points, _ = _points(lsp)
    K = _quotient_dim(action)
    outer = _stencil_rows(_CURVATURE_SCHEME, K)
    return _chunked(
        np.arange(len(points)),
        outer * (1 + _stencil_rows(_CHART_TANGENT_SCHEME, K)),
        lambda chunk: op(QuotientChart(action, [points[i] for i in chunk])),
    )


def _base_jet(chart: QuotientChart):
    """The jet of every chart of a chart batch at its base point xi = 0."""
    return chart.jet(np.zeros((len(chart.frame), 1, chart.dim)))


def moment_descent_residual(
    action: LinearAction,
    rotator: CircleActionSpec,
    lsp,
):
    """FD check of d mu_bar = i_{X_bar} omega_bar_1 on the quotient chart.

    A float for one LevelSetPoint, a (k,) array for a sequence of k; a row
    equals that point alone.  One jet of every chart per chunk.
    """
    mu = moment_field(rotator)

    def residuals(chart):
        x_bar, _ = descended_circle_data(action, rotator, chart.lsp)
        jet = _base_jet(chart)
        covec = (x_bar[:, None, :] @ chart.omega_bar(jet, 1)[:, 0])[:, 0]
        return np.max(np.abs(chart.gradient(jet, mu)[:, 0] - covec), axis=1)

    out = _over_charts(action, lsp, residuals)
    return float(out[0]) if isinstance(lsp, LevelSetPoint) else out


def quotient_structures(action: LinearAction, lsp) -> np.ndarray:
    """The quotient complex structures (I_bar, J_bar, K_bar) at xi = 0 of the chart.

    (3, K, K) for one LevelSetPoint, (k, 3, K, K) for a sequence of k; a
    row equals that point alone.  One jet of every chart per chunk.
    """

    def structures(chart):
        jet = _base_jet(chart)
        return np.stack([chart.structure(jet, i)[:, 0] for i in (1, 2, 3)], axis=1)

    out = _over_charts(action, lsp, structures)
    return out[0] if isinstance(lsp, LevelSetPoint) else out


def descended_curvature(
    action: LinearAction,
    rotator: CircleActionSpec,
    lsp,
):
    """omega_bar_1 + dd^c(mu_bar / degree) on the quotient chart at xi = 0.

    This is the descent of the flat curvature form: the restricted moment
    map is divided by the rotator's rotation degree on the form pencil,
    matching the flat-space normalisation.  d^c(mu_bar / degree) is one
    chart one-form taking the structure and gradient from one jet, so the
    outer stencils of all the charts of a chunk make one retraction.  A
    FormValue for one LevelSetPoint, (k, nb) components for a sequence of
    k; a row equals that point alone.
    """
    degree = rotator.degree
    if degree != 0:
        descended_circle_data(action, rotator, lsp)  # validates commuting + level drift
    mu = moment_field(rotator)

    def curvature(chart):
        omega = chart.omega_bar(_base_jet(chart), 1)[:, 0]
        base = omega[(slice(None),) + _pair_indices(chart.dim)]
        if degree == 0:
            return base

        def dc_form(xi):
            jet = chart.jet(xi)
            s_bar_t = chart.structure(jet, 1).swapaxes(-1, -2)
            return -(s_bar_t @ (chart.gradient(jet, mu) / degree)[..., None])[..., 0]

        return base + chart.exterior_derivative(dc_form)

    comps = _over_charts(action, lsp, curvature)
    return _form_result(comps, 2, _quotient_dim(action), isinstance(lsp, LevelSetPoint))


def canonical_bundle_curvature(
    action: LinearAction,
    chi,
    lsp,
):
    """Curvature of the canonical connection of the chi-weight line bundle.

    The connection one-form is chi composed with the metric vertical
    projection; its curvature is computed as the exterior derivative of
    the pulled-back connection form along a local horizontal section,
    with the sign fixed so that integer chi reproduces the descended
    curvature form.  A FormValue for one LevelSetPoint, (k, nb)
    components for a sequence of k; a row equals that point alone.  A
    non-integral level warns once per call.
    """
    chi = np.atleast_1d(np.asarray(chi, dtype=float))
    if chi.shape != (action.dim_g,):
        raise ConfigError("one weight per generator required")
    points, single = _points(lsp)
    if not all(p.level.is_integral for p in points):
        warnings.warn("level is not integral: no global line bundle descends")
    K = _quotient_dim(action)
    if np.all(chi == 0.0):
        return _form_result(np.zeros((len(points), K * (K - 1) // 2)), 2, K, single)
    comps = _over_charts(
        action,
        points,
        lambda chart: -chart.exterior_derivative(lambda xi: chart.theta(chart.jet(xi), chi)),
    )
    return _form_result(comps, 2, K, single)


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
    points, single = _points(lsp)
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
