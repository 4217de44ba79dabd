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

Everything past the moment map works on batches.  ``solve_level`` takes
seeds (k, dim) and returns one ``LevelSetPoints``, k points of one action
at one level with their vertical and horizontal frames built once for the
whole batch, by one quaternionic Gram-Schmidt pass seeded with the orbit;
it and the chart retraction share one Newton loop, ``_newton``.  The batch
carries its action, so no function past ``solve_level`` takes one: the
descended and multi-centre functions take the batch, and ``charts`` cuts
it into the chart batches that the chart functions take; all return
arrays with one row per point, each row equal to that point in a batch of
one.  The chart at a level-set point m0 is the graph m0 + F xi + N c over
its horizontal frame F, with N = d nu(m0)^T, so its tangents are
closed-form (implicit function theorem); one stencil step serves every
derivative.
A chart batch retracts its base points and its curvature stencil once,
on first use, so chart functions passed the same list share them.

The worked example ``EGUCHI_HANSON`` is the extended A_1 quiver quotient of
H^2 (``LinearAction.from_quiver``), by weights (+1,+1) on z and (-1,-1) on w.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .dynkin import DynkinGraph, extended_diagram
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
    _shared_model,
    action_generator,
    moment_field,
)
from .forms import (
    FDScheme,
    _chunks,
    _ext_deriv_sum,
    _fd_reduce,
    _pair_indices,
    _points,
    _stencil_points,
    _stencil_rows,
    fd_gradient,
)

_CONDITION_GUARD = 1e8

#: how far a generator may be from antisymmetric, triholomorphic and
#: commuting with the others before LinearAction refuses it
_GENERATOR_TOL = 1e-10
#: Newton tolerance (times max(1, |level|), see ``_newton``) and iteration
#: budget of the level-set solver
_LEVEL_NEWTON_TOL = 1e-12
_LEVEL_MAX_ITER = 40
#: how far the rotator of descended_circle_data, and the residual circle of
#: gh_coordinates, may be from commuting with the action
_ROTATOR_COMMUTE_TOL = 1e-12
_CIRCLE_COMMUTE_TOL = 1e-10
#: how far the rotator may move a level-set point m off the level set, as
#: |d nu(R m)| over max(1, |m|^2): d nu(m) and R m are both linear in m, so
#: the drift's roundoff grows like eps |m|^2
_ROTATOR_DRIFT_TOL = 1e-9

#: Newton tolerance (times max(1, |level|)) and iteration budget of the chart retraction
_CHART_NEWTON_TOL = 1e-14
_CHART_MAX_ITER = 60
#: the chart's one stencil, for d of the curvature forms and the ambient moment-map
#: gradients; a moment map is quadratic, so the order-4 stencil has no truncation
#: error on it and a smaller step would only add roundoff eps |mu| / h
_CHART_SCHEME = FDScheme(h=2e-3, order=4)


@dataclass(frozen=True, eq=False)
class LinearAction:
    """Commuting triholomorphic generators of a torus acting on H^n.

    Each generator must be antisymmetric (a flat Killing field) and
    commute with the three complex structures, and the generators must
    commute with each other; all three are checked at construction.  The
    Newton step of ``solve_level`` (``_newton_step``) rests on the last:
    for commuting generators J J^T = G (x) I_3.  The generators are
    copied into one stack (dim_g, dim, dim), read-only as the moment stack
    is, so an action can be shared.
    """

    generators: np.ndarray

    def __post_init__(self):
        gens = tuple(np.array(g, dtype=float) for g in self.generators)
        if not gens:
            raise ConfigError("need at least one generator")
        dim = gens[0].shape[0]
        if dim % 4 != 0 or any(g.shape != (dim, dim) for g in gens):
            raise ConfigError("generators must be square matrices of equal 4n size")
        model = _shared_model(dim // 4)
        structures = model.structures()
        for idx, g in enumerate(gens):
            if np.max(np.abs(g + g.T)) > _GENERATOR_TOL:
                raise StructureError(f"generator {idx} is not metric-antisymmetric")
            _require_symmetry(g, structures, (), _GENERATOR_TOL, f"generator {idx}")
        for idx, g in enumerate(gens):
            _require_symmetry(g, (), gens[:idx], _GENERATOR_TOL, f"generator {idx}")
        gens = np.array(gens)
        # the (dim, 3 dim_g dim) stack W[l, (a, i, j)] = (S_i G_a)[j, l]: the
        # moment Jacobian of any batch of points is the one product m @ W
        stack = np.array([[s @ g for s in structures] for g in gens])
        stack = np.ascontiguousarray(stack.reshape(-1, dim).T)
        for array in (gens, stack):
            array.flags.writeable = False
        object.__setattr__(self, "generators", gens)
        object.__setattr__(self, "_model", model)
        object.__setattr__(self, "_moment_stack", stack)

    @classmethod
    def from_torus_weights(cls, specs) -> "LinearAction":
        return cls(tuple(action_generator(spec) for spec in specs))

    @classmethod
    def from_quiver(cls, graph: DynkinGraph) -> "LinearAction":
        """The torus of the quiver quotient of an extended diagram whose marks are all 1.

        Edge e = (i, j) is one quaternionic coordinate (z_e, w_e); vertex v's circle turns
        z_e with weight [v = j] - [v = i] and w_e with its negative.  Vertex 0's circle, the
        diagonal one, acts trivially and is dropped.  A mark above 1 raises ConfigError.
        """
        if any(d != 1 for d in graph.marks):
            raise ConfigError(f"quiver {graph.tag} has a mark above 1 (marks {graph.marks})")
        edges, vertices = graph.edges, range(1, graph.num_vertices)
        weights = [[(v == j) - (v == i) for i, j in edges] for v in vertices]
        return cls.from_torus_weights(CircleActionSpec(k=w, l=[-x for x in w]) for w in weights)

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
    """nu[a, i] = (1/2) omega_i(G_a m, m) at m (k, dim), (k, dim_g, 3); quadratic, 0 at 0.

    Any other shape of m is a ConfigError naming (k, dim).  The Jacobian
    rows come from the one product of ``moment_jacobian``; each entry is
    then a separate (1, dim) @ (dim, 1) product of a row with m, which
    BLAS rounds as it rounds ``np.dot`` of the two vectors, so a batch row
    has the bits of that point alone; a sum over the last axis would round
    differently.
    """
    m = _points(m, action.dim)
    rows = moment_jacobian(action, m)
    return 0.5 * (rows[..., None, :] @ m[:, None, None, :, None])[..., 0, 0]


def moment_jacobian(action: LinearAction, m) -> np.ndarray:
    """d nu at m (k, dim): rows (a, i) are the covectors (S_i G_a m)^T, i.e. i_{X_a} omega_i.

    Shape (k, dim_g, 3, dim), from one product m @ W with the (dim, 3 dim_g
    dim) stack W of the matrices S_i G_a that ``LinearAction`` builds
    once, a GEMM for a batch; any other shape of m is a ConfigError.
    A batch row has the bits of that point alone, and of the products
    S_i G_a m one by one (tested at batch sizes 1 to 1000).
    """
    m = _points(m, action.dim)
    return (m @ action._moment_stack).reshape(len(m), action.dim_g, 3, action.dim)


# -- level sets ---------------------------------------------------------------------


def _newton_step(jac, res) -> np.ndarray:
    """Minimum-norm Newton steps -J^T (G^{-1} (x) I_3) res (r, dim) of r rows at once.

    ``jac`` (r, 3 dim_g, dim) holds moment Jacobians with rows (a, i) and
    ``res`` (r, 3 dim_g) their residuals.  For commuting triholomorphic
    generators J J^T = G (x) I_3, where G_ab = <G_a m, G_b m> is the
    orbit Gram matrix: g(S_i X_a, S_j X_b) = delta_ij g(X_a, X_b) +
    eps_ijk omega_k(X_a, X_b), and omega_k(X_a, X_b) is the derivative of
    nu_b along X_a, zero for commuting generators.  G is SPD, and
    ``_gram_solve`` solves it by one elimination vectorised over the rows;
    for a circle that is the one division res / |X|^2.
    """
    r, width, _ = jac.shape
    coef = _gram_solve(_orbit_gram(jac), res.reshape(r, width // 3, 3))
    return -(jac.transpose(0, 2, 1) @ coef.reshape(r, width, 1))[:, :, 0]


def _orbit_gram(jac) -> np.ndarray:
    """Orbit Gram matrices G = X X^T (r, g, g) of the (a, 0) rows X of jac (r, 3 g, dim).

    S_1 is orthogonal, so these are <G_a m, G_b m>.  NonFreePointError if a
    row's G fails the solvers' rank guard.  The eigenvalues of G are the
    squared singular values of the orbit directions, so the guard on them
    is the squared guard on those directions: the largest must reach 1e-24
    and the condition number stay within _CONDITION_GUARD ** 2, 1e16 where
    the directions' own is 1e8.  A NaN fails the guard.
    """
    orbit = jac[:, 0::3]
    gram = orbit @ orbit.transpose(0, 2, 1)
    eigs = np.linalg.eigvalsh(gram)
    top = eigs[:, -1]
    if not np.all((top >= 1e-24) & (eigs[:, 0] >= top / _CONDITION_GUARD**2)):
        raise NonFreePointError("orbit Gram matrix is singular up to the condition guard")
    return gram


def _gram_solve(gram, rhs) -> np.ndarray:
    """G^{-1} rhs for SPD Gram matrices G (..., g, g) and right-hand sides (..., g, c).

    One elimination without pivoting, vectorised over the leading axes;
    for a circle (g = 1) it is the one division rhs / G.  The caller
    guards G's condition: a singular G gives inf or NaN, not an error.
    """
    gram, coef = gram.copy(), rhs.copy()
    g = gram.shape[-1]
    for j in range(g):
        for i in range(j + 1, g):
            factor = gram[..., i, j] / gram[..., j, j]
            gram[..., i, :] -= factor[..., None] * gram[..., j, :]
            coef[..., i, :] -= factor[..., None] * coef[..., j, :]
    for j in reversed(range(g)):
        for i in range(j + 1, g):
            coef[..., j, :] -= gram[..., j, i, None] * coef[..., i, :]
        coef[..., j, :] /= gram[..., j, j, None]
    return coef


def _newton(action: LinearAction, m, target, tol: float, budget: int, step) -> list:
    """Newton iteration on nu = target over the rows of m (r, dim), in place.

    Each row iterates until its own residual norm is below
    tol * max(1, |target|), so a row equals that row solved alone.  The
    stop is relative because nu is quadratic: the residual's roundoff
    grows like eps |m|^2, and |m|^2 grows with the level (on the
    Eguchi-Hanson level set |m|^2 >= 2 c), so an absolute tolerance falls
    below the roundoff floor at large levels.  The live rows ``todo`` take
    the step step(todo, jac, res) from their moment Jacobians jac
    (t, 3 dim_g, dim) and residuals res (t, 3 dim_g); running out the
    budget of steps raises ConvergenceError.  Returns the (rows, residual
    norms) of each evaluation, in order.
    """
    stop = tol * max(1.0, float(np.linalg.norm(target)))
    log = []
    todo = np.arange(len(m))
    for steps in range(budget + 1):
        res = hk_moment(action, m[todo]).reshape(len(todo), -1) - target
        norms = np.linalg.norm(res, axis=1)
        log.append((todo, norms))
        live = ~(norms < stop)
        todo, res = todo[live], res[live]
        if not todo.size:
            return log
        if steps == budget:
            raise ConvergenceError(f"no convergence in {budget} Newton steps")
        jac = moment_jacobian(action, m[todo]).reshape(len(todo), -1, m.shape[1])
        m[todo] += step(todo, jac, res)


@dataclass(frozen=True, eq=False)
class LevelSetPoints:
    """k converged points of nu^{-1}(c, 0, 0) at one level, with their derivative data.

    ``action`` is the action solved for, ``points`` (k, dim), ``dnu``
    (k, dim_g, 3, dim), the vertical frames ``vertical`` (k, dim,
    4 dim_g), the oriented horizontal frames ``frames`` (k, dim, K) and
    ``histories`` (one tuple of residual norms per row).  The frames are
    the blocks of the ``_quaternionic_basis`` that ``solve_level`` builds
    once for the batch: the orbit blocks span the quaternionic span of the
    orbit, and the rest are orthonormal bases of ker(d nu) intersected
    with the orbit complement; both are read-only, so every chart and
    descended datum on these rows shares them.  A slice ``levels[i:j]``
    is the batch of those rows, of the same action and level.
    """

    action: LinearAction
    level: LevelSpec
    points: np.ndarray
    dnu: np.ndarray
    vertical: np.ndarray
    frames: np.ndarray
    histories: tuple

    def __len__(self) -> int:
        return len(self.points)

    def __getitem__(self, rows: slice) -> "LevelSetPoints":
        if not isinstance(rows, slice):
            raise TypeError("a level-set batch is indexed by a slice of rows, levels[i:j]")
        fields = (self.points, self.dnu, self.vertical, self.frames, self.histories)
        return LevelSetPoints(self.action, self.level, *(field[rows] for field in fields))


def solve_level(action: LinearAction, level: LevelSpec, seeds) -> LevelSetPoints:
    """Newton iteration on nu(m) = (c, 0, 0) from a batch of k seeds (k, dim).

    ``_newton`` runs the rows to _LEVEL_NEWTON_TOL (relative to the level)
    within _LEVEL_MAX_ITER steps, each the minimum-norm step
    ``_newton_step``, whose orbit Gram matrices also guard the rank: rank
    deficiency along the way raises NonFreePointError.  The same guard
    (``_orbit_gram``) on the solved points' moment Jacobians checks that
    the action is free at each, and one ``_quaternionic_basis`` of their
    orbits gives the frames of the whole batch.

    Seeds should sit at the level's scale sqrt|c|, as the suites draw
    them: m -> sqrt(c) m carries the level-1 set onto the level-c set.
    From a unit seed at c >> 1 the first minimum-norm step overshoots; at
    c = 150 it reached |m|^2 = 17870, whose moment roundoff eps |m|^2 then
    kept a chart retraction from its stop _CHART_NEWTON_TOL c.
    """
    if level.dim_g != action.dim_g:
        raise ConfigError("level dimension does not match the action")
    seeds = np.asarray(seeds, dtype=float)
    if seeds.ndim != 2 or seeds.shape[1] != action.dim or not len(seeds):
        raise ConfigError(
            f"seeds must have shape (k, {action.dim}) with k >= 1, got {seeds.shape}"
        )
    m = seeds.copy()
    log = _newton(
        action, m, level.target().ravel(), _LEVEL_NEWTON_TOL, _LEVEL_MAX_ITER,
        lambda todo, jac, res: _newton_step(jac, res),
    )
    dnu = moment_jacobian(action, m)
    _orbit_gram(dnu.reshape(len(m), -1, action.dim))  # the action is free at each point
    orbits = (action.generators @ m[:, None, :, None])[..., 0].transpose(0, 2, 1)
    basis = _quaternionic_basis(orbits)
    vertical, frames = (np.ascontiguousarray(b) for b in np.split(basis, [4 * action.dim_g], 2))
    vertical.flags.writeable = frames.flags.writeable = False
    histories = [[] for _ in m]
    for rows, norms in log:
        for row, norm in zip(rows.tolist(), norms.tolist()):
            histories[row].append(norm)
    return LevelSetPoints(action, level, m, dnu, vertical, frames, tuple(map(tuple, histories)))


# -- quotient frames ------------------------------------------------------------------


def _quaternionic_basis(orbits: np.ndarray) -> np.ndarray:
    """Orthonormal bases (k, dim, dim) of blocks (v, Iv, Jv, Kv) from orbits (k, dim, dim_g).

    Block j projects its seed twice off the earlier blocks and normalises
    it to v: the orbit direction G_j m for j < dim_g, then the fixed seed
    sin((j - dim_g + 1) (1, ..., dim)).  The earlier blocks span an I, J,
    K-invariant space, and so does its complement: (v, Iv, Jv, Kv) is
    orthonormal with omega_1 = e01 + e23 on it, so no sign is fixed and the
    basis is smooth in the orbit.  The orbit blocks span the vertical
    space, the quaternionic span of the orbit (it holds the gradients
    S_i G_a m); the rest are the horizontal frames.  A seed whose
    projection is below its length over _CONDITION_GUARD raises
    NonFreePointError.  Every step is a stacked matrix-vector product or a
    (1, dim) @ (dim, 1) dot per row, so a row has the bits of its basis alone.
    """
    k, dim, dim_g = orbits.shape
    structures = np.array(_shared_model(dim // 4).structures())
    basis = np.zeros((k, dim, 0))
    ramp = np.arange(1.0, dim + 1.0)
    fixed = [np.broadcast_to(np.sin(j * ramp), (k, dim)) for j in range(1, dim // 4 - dim_g + 1)]
    for j, seed in enumerate([*orbits.transpose(2, 0, 1), *fixed]):
        v = seed
        for _ in range(2):
            v = v - (basis @ (basis.transpose(0, 2, 1) @ v[:, :, None]))[:, :, 0]
        norm, length = (np.sqrt((u[:, None, :] @ u[:, :, None])[:, 0, 0]) for u in (v, seed))
        if not np.all(norm > length / _CONDITION_GUARD):
            raise NonFreePointError(f"basis seed {j} is in the earlier blocks' span up to the guard")
        v = v / norm[:, None]
        block = (structures @ v[:, None, :, None])[..., 0].transpose(0, 2, 1)
        basis = np.concatenate([basis, v[:, :, None], block], axis=2)
    return basis


def _require_symmetry(gen: np.ndarray, structures, generators, tol: float, label: str):
    """Check that gen has the size of, and commutes with, each matrix given.

    ``structures`` are the three complex structures, for a generator that
    must be triholomorphic, or () for one that need not be; ``generators``
    are the action's generators.  Each commutator is held to ``tol``.
    """
    if any(gen.shape != g.shape for g in (*structures, *generators)):
        raise ConfigError(f"{label} dimension does not match the action")
    for s in structures:
        if np.max(np.abs(s @ gen - gen @ s)) > tol:
            raise StructureError(f"{label} is not triholomorphic")
    for idx, g in enumerate(generators):
        dev = np.max(np.abs(gen @ g - g @ gen))
        if dev > tol:
            raise StructureError(
                f"{label} does not commute with generator {idx} (residual {dev:.2e})"
            )


def _quotient_dim(action: LinearAction) -> int:
    """Dimension K of the quotient: dim minus the 4 dim_g vertical directions."""
    return action.dim - 4 * action.dim_g


def descended_circle_data(rotator: CircleActionSpec, levels: LevelSetPoints) -> np.ndarray:
    """Horizontal rotator fields x_bars (k, K), in frame coordinates.

    The rotator must commute with the batch's action and therefore preserves
    the level set; both facts are checked, not assumed, the second to
    _ROTATOR_DRIFT_TOL max(1, |m|^2) at each point m.  A row equals that
    point in a batch of one.
    """
    action = levels.action
    gen = action_generator(rotator)
    _require_symmetry(gen, (), action.generators, _ROTATOR_COMMUTE_TOL, "rotator")
    m = levels.points
    velocity = (gen @ m[:, :, None])[:, :, 0]
    dnu = levels.dnu.reshape(len(m), -1, action.dim)
    drift = np.max(np.abs(dnu @ velocity[:, :, None]), axis=(1, 2))
    drift = np.max(drift / np.maximum(1.0, np.sum(m * m, axis=1)))
    if not drift <= _ROTATOR_DRIFT_TOL:
        raise StructureError(f"rotator does not preserve the level set ({drift:.2e} relative)")
    return (levels.frames.transpose(0, 2, 1) @ velocity[:, :, None])[:, :, 0]


# -- charts and curvature --------------------------------------------------------------


class QuotientChart:
    """Local quotient coordinates at each of k level-set points at once (a chart batch).

    The chart of point c is the graph point(xi) = m0 + F xi + N c(xi) over
    its horizontal frame F, with N = d nu(m0)^T and c in R^{3 dim_g} solved
    so that the point is on the level set, for chart points (k, m, K), row
    [c] in the chart of point c.  All rows are retracted in one vectorised
    Newton solve, each with its own base point and frames, and each
    converges on its own, so a row equals that chart point retracted alone
    in its own chart.  ``jet`` adds the exact tangents to one such solve.
    The pulled-back Kahler forms, the induced metric (orbit directions
    projected out), the complex structures and the connection form are
    array functions of a jet over any leading axes, ``gradient`` contracts
    an ambient gradient with a jet's tangents, and ``exterior_derivative``
    takes d of a chart one-form at xi = 0 in every chart.  The batch
    retracts two jets, each once, on first use: ``base`` at xi = 0 and
    ``stencil`` at the _CHART_SCHEME stencil around it, so every quantity
    at the same points shares one retraction, whichever function asks for
    it first.  Their arrays are read-only, so no caller can change what the
    next one reads.  The frames are the level-set points' own
    (``levels.frames``), and so is the action (``levels.action``).
    """

    def __init__(self, levels: LevelSetPoints):
        self.action = levels.action
        self.levels = levels
        #: (k, dim, K)
        self.frames = levels.frames
        #: (k, dim, 3 dim_g), N = d nu(m0)^T
        self._normals = levels.dnu.reshape(len(levels), -1, self.action.dim).transpose(0, 2, 1)
        self._target = levels.level.target().ravel()
        self._omega = self.action.model.kahler_triple()

    @property
    def dim(self) -> int:
        return self.frames.shape[2]

    def _check(self, xi) -> np.ndarray:
        """xi as a float array, after checking that it is (k, m, K)."""
        xi = np.asarray(xi, dtype=float)
        if xi.ndim != 3 or xi.shape[0] != len(self.frames) or xi.shape[2] != self.dim:
            raise ConfigError(
                f"chart points must have shape {(len(self.frames), 'm', self.dim)}, got {xi.shape}"
            )
        return xi

    def point(self, xi) -> np.ndarray:
        """Retraction of chart points into H^n, (k, m, K) -> (k, m, dim).

        ``_newton`` moves m = m0 + F xi along N only, to _CHART_NEWTON_TOL
        (relative to the level) within _CHART_MAX_ITER steps: m <- m -
        N (J N)^{-1} res with J = d nu(m) (at m0, J N = G (x) I_3).  A row
        whose orbit Gram matrix fails the condition guard raises
        NonFreePointError.
        """
        xi = self._check(xi)
        m = self.levels.points[:, None, :] + (self.frames[:, None] @ xi[..., None])[..., 0]
        m = m.reshape(-1, self.action.dim)

        def along_normals(todo, jac, res):
            _orbit_gram(jac)  # the rank guard
            normals = self._normals[todo // xi.shape[1]]
            return -(normals @ np.linalg.solve(jac @ normals, res[:, :, None]))[:, :, 0]

        _newton(self.action, m, self._target, _CHART_NEWTON_TOL, _CHART_MAX_ITER, along_normals)
        return m.reshape(xi.shape[:-1] + (self.action.dim,))

    def jet(self, xi):
        """(points, tangents) of chart points xi (k, m, K), from one ``point`` call.

        points (k, m, dim) retracts xi and tangents (k, m, dim, K) holds
        d point / d xi.  Differentiating nu(point) = target along the graph
        gives it exactly (implicit function theorem), with no stencil:
        T = F - N (J N)^{-1} J F at the retracted point.
        """
        points = self.point(xi)
        k, count, dim = points.shape
        jac = moment_jacobian(self.action, points.reshape(-1, dim)).reshape(k, count, -1, dim)
        frames, normals = self.frames[:, None], self._normals[:, None]
        return points, frames - normals @ np.linalg.solve(jac @ normals, jac @ frames)

    def _cached_jet(self, xi):
        """``jet`` of xi with read-only arrays, for the jets every caller shares."""
        jet = self.jet(xi)
        for array in jet:
            array.flags.writeable = False
        return jet

    @cached_property
    def base(self):
        """The jet of every chart at its base point xi = 0, (k, 1, dim) and (k, 1, dim, K)."""
        return self._cached_jet(np.zeros((len(self.frames), 1, self.dim)))

    @cached_property
    def stencil(self):
        """The jet of every chart at the _CHART_SCHEME stencil around xi = 0.

        The stencil's 4 K points are the same in every chart, so one
        ``jet`` call retracts all of them: (k, 4 K, dim) and (k, 4 K, dim, K).
        """
        offsets = _stencil_points(np.zeros((1, self.dim)), _CHART_SCHEME)
        return self._cached_jet(np.broadcast_to(offsets, (len(self.frames),) + offsets.shape))

    def gradient(self, jet, fn) -> np.ndarray:
        """Chart gradient (k, m, K) at each jet point of fn, a batch function (r, dim) -> (r,).

        The ambient ``fd_gradient`` of fn over _CHART_SCHEME at the jet's
        points, whose stencils are closed-form and are not retracted,
        contracted with the jet's tangents.
        """
        points, tangents = jet
        grad = fd_gradient(fn, points.reshape(-1, points.shape[-1]), _CHART_SCHEME)
        return (grad.reshape(points.shape)[..., None, :] @ tangents)[..., 0, :]

    def exterior_derivative(self, form) -> np.ndarray:
        """d of a chart one-form at xi = 0 in every chart, (k, nb).

        ``form`` takes a jet and returns the one-form's components (k, m,
        K) at its m points.  It gets the ``stencil`` jet, so one call
        covers the stencil of every chart, and ``forms._ext_deriv_sum``
        sums the derivatives as ``ext_deriv`` does.
        """
        K = self.dim
        vals = np.asarray(form(self.stencil))
        vals = vals.reshape((len(vals), -1, K) + vals.shape[2:])  # [chart][offset][coordinate]
        D = _fd_reduce(np.moveaxis(vals, 1, 0), _CHART_SCHEME.order, _CHART_SCHEME.h)
        return _ext_deriv_sum(D, K, 1)

    def omega_bar(self, jet, i: int) -> np.ndarray:
        """omega_i pulled back to the chart at each jet point, as (..., K, K) matrices."""
        _, tangents = jet
        return tangents.swapaxes(-1, -2) @ self._omega[i - 1] @ tangents

    def _orbit_split(self, jet):
        """(coef, T - O coef) for the orbit O = (G_a p): coef = (O^T O)^{-1} O^T T.

        Each jet point's orbit Gram matrix O^T O passed the condition guard
        already, in a Newton step of the retraction or in solve_level.
        """
        points, tangents = jet
        orbit_t = (self.action.generators @ points[..., None, :, None])[..., 0]
        coef = _gram_solve(orbit_t @ orbit_t.swapaxes(-1, -2), orbit_t @ tangents)
        return coef, tangents - orbit_t.swapaxes(-1, -2) @ coef

    def metric(self, jet) -> np.ndarray:
        """Quotient metric (..., K, K) at each jet point: the horizontal Gram matrix."""
        _, horizontal = self._orbit_split(jet)
        return horizontal.swapaxes(-1, -2) @ horizontal

    def structure(self, jet, i: int) -> np.ndarray:
        """Quotient complex structure -g^{-1} omega_bar_i (..., K, K) at each jet point."""
        return -np.linalg.solve(self.metric(jet), self.omega_bar(jet, i))

    def structures(self, jet) -> np.ndarray:
        """``structure`` for i = 1, 2, 3 at each jet point, off one metric, (..., 3, K, K)."""
        g = self.metric(jet)
        return np.stack([-np.linalg.solve(g, self.omega_bar(jet, i)) for i in (1, 2, 3)], axis=-3)

    def theta(self, jet, chi) -> np.ndarray:
        """Canonical connection form chi(orbit part of the tangents), (..., K)."""
        coef, _ = self._orbit_split(jet)
        return np.asarray(chi, dtype=float) @ coef


def charts(levels: LevelSetPoints) -> list:
    """The chart batches (``QuotientChart``) of consecutive chunks of the level-set points.

    A chunk holds as many points as keep the rows of their outer curvature
    stencils (4 K retracted points each: the jets' tangents are
    closed-form) within ``forms.MAX_STENCIL_VALUES``, and at least one
    point, so a retraction takes the same memory at any number of points.
    Each chunk reads its rows of ``levels.frames``, and the action of
    ``levels``.  The chart functions below take this list and return one
    row per point; passing one list to several of them retracts each
    batch's base points and stencil once.  A quotient of dimension 0 has no
    chart and raises ConfigError.
    """
    K = _quotient_dim(levels.action)
    if K < 1:
        raise ConfigError(f"the quotient has dimension {K}: it has no chart")
    rows = _chunks(len(levels), _stencil_rows(_CHART_SCHEME, K))
    return [QuotientChart(levels[chunk]) for chunk in rows]


def _over_charts(batches, op) -> np.ndarray:
    """op(chart) on each chart batch, concatenated; op returns one row per point."""
    if not batches:
        raise ConfigError("need at least one chart batch, as quotient.charts makes them")
    return np.concatenate([op(chart) for chart in batches])


def moment_descent_residual(batches, rotator: CircleActionSpec) -> np.ndarray:
    """FD check of d mu_bar = i_{X_bar} omega_bar_1 on the quotient chart, (k,).

    Over the chart batches of ``charts``, at each batch's ``base`` jet.  A
    row equals that point in a batch of one.
    """
    mu = moment_field(rotator)

    def residuals(chart):
        x_bar = descended_circle_data(rotator, chart.levels)
        covec = (x_bar[:, None, :] @ chart.omega_bar(chart.base, 1)[:, 0])[:, 0]
        return np.max(np.abs(chart.gradient(chart.base, mu)[:, 0] - covec), axis=1)

    return _over_charts(batches, residuals)


def quotient_structures(batches) -> np.ndarray:
    """The quotient complex structures (I_bar, J_bar, K_bar) at xi = 0 of each chart, (k, 3, K, K).

    Over the chart batches of ``charts``: ``QuotientChart.structures`` at
    each batch's ``base`` jet.  A row equals that point in a batch of one.
    """
    return _over_charts(batches, lambda chart: chart.structures(chart.base)[:, 0])


def descended_curvature(batches, rotator: CircleActionSpec) -> np.ndarray:
    """omega_bar_1 + dd^c(mu_bar / degree) on the quotient chart at xi = 0, (k, nb).

    This is the descent of the flat curvature form: the restricted moment
    map is divided by the rotator's rotation degree on the form pencil,
    matching the flat-space normalisation.  Over the chart batches of
    ``charts``: omega_bar_1 at each batch's ``base`` jet, and
    d^c(mu_bar / degree) one chart one-form taking the structure and
    gradient from its ``stencil`` jet.  A row equals that point in a batch
    of one.
    """
    degree = rotator.degree
    mu = moment_field(rotator)

    def curvature(chart):
        omega = chart.omega_bar(chart.base, 1)[:, 0]
        base = omega[(slice(None),) + _pair_indices(chart.dim)]
        if degree == 0:
            return base
        descended_circle_data(rotator, chart.levels)  # validates commuting + drift

        def dc_form(jet):
            s_bar_t = chart.structure(jet, 1).swapaxes(-1, -2)
            return -(s_bar_t @ (chart.gradient(jet, mu) / degree)[..., None])[..., 0]

        return base + chart.exterior_derivative(dc_form)

    return _over_charts(batches, curvature)


def canonical_bundle_curvature(batches, chi) -> np.ndarray:
    """Curvature of the canonical connection of the chi-weight line bundle, (k, nb).

    The connection one-form is chi composed with the metric vertical
    projection; its curvature is computed as the exterior derivative of
    the pulled-back connection form along a local horizontal section,
    with the sign fixed so that integer chi reproduces the descended
    curvature form.  Over the chart batches of ``charts``, at each batch's
    ``stencil`` jet.  A row equals that point in a batch of one.  A
    non-integral level warns once per call.
    """
    chi = np.atleast_1d(np.asarray(chi, dtype=float))
    if any(chi.shape != (chart.action.dim_g,) for chart in batches):
        raise ConfigError("one weight per generator required")
    if not all(chart.levels.level.is_integral for chart in batches):
        warnings.warn("level is not integral: no global line bundle descends")
    return _over_charts(
        batches,
        lambda chart: -chart.exterior_derivative(lambda jet: chart.theta(jet, chi)),
    )


# -- multi-centre coordinates ----------------------------------------------------------


def gh_coordinates(triholo: CircleActionSpec, levels: LevelSetPoints, *, scale: float = 1.0):
    """Coordinates (xs (k, 3), vs (k,)) of the quotient in multi-centre potential form.

    x is the moment triple of the residual triholomorphic circle and
    V^{-1} the squared length of its horizontal field (the velocity minus
    its vertical part); the circle must commute with the batch's action.
    `scale` runs the circle at a multiple of the given speed.  A row equals
    that point in a batch of one.
    """
    action = levels.action
    gen = scale * action_generator(triholo)
    structures = np.array(action.model.structures())
    _require_symmetry(gen, structures, action.generators, _CIRCLE_COMMUTE_TOL, "residual circle")
    m = levels.points
    velocity = (gen @ m[:, :, None])[:, :, 0]
    s_velocity = (structures @ velocity[:, None, :, None])[..., 0]
    x = 0.5 * (s_velocity[:, :, None, :] @ m[:, None, :, None])[..., 0, 0]
    vert = levels.vertical
    horizontal = velocity - (vert @ (vert.transpose(0, 2, 1) @ velocity[:, :, None]))[:, :, 0]
    v_inv = (horizontal[:, None, :] @ horizontal[:, :, None])[:, 0, 0]
    if np.any(v_inv < 1e-12):
        raise DomainError("residual circle fixes a sample point")
    return x, 1.0 / v_inv


# -- the worked example ---------------------------------------------------------------


@dataclass(frozen=True)
class QuotientExample:
    """An action, a rotator whose moment map descends, and a residual circle with its speed."""

    action: LinearAction
    rotator: CircleActionSpec
    residual_circle: CircleActionSpec
    circle_scale: float


#: Eguchi-Hanson, built at import and shared (the action's arrays are read-only).
#: The rotator is (z, w) -> e^{i t}(z, w).  The residual circle's speed 1/4 gives
#: the multi-centre potential unit coefficients, a measured calibration: at full
#: speed the samples satisfy V = (1/4) sum_i 1/|x - a_i| (the circle has doubled
#: local weight at its two fixed points, and the fit is quadratic in the speed).
EGUCHI_HANSON = QuotientExample(
    action=LinearAction.from_quiver(extended_diagram("A", 1)),
    rotator=CircleActionSpec(k=(1, 1), l=(1, 1)),
    residual_circle=CircleActionSpec(k=(1, -1), l=(-1, 1)),
    circle_scale=0.25,
)
