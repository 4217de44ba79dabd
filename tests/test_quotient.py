"""Tests for the linear hyperkahler quotient machinery."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import block_diag, expm

from hkgeom.errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    NonFreePointError,
    StructureError,
)
from hkgeom import dynkin, forms, quotient, suites
from hkgeom.flatspace import CircleActionSpec, action_generator, moment_field
from hkgeom.forms import (
    FDScheme,
    fd_gradient,
    fd_jacobian,
    type11_residual,
)
from hkgeom.quotient import (
    EGUCHI_HANSON,
    LevelSetPoints,
    LevelSpec,
    LinearAction,
    QuotientChart,
    canonical_bundle_curvature,
    charts,
    descended_circle_data,
    descended_curvature,
    gh_coordinates,
    hk_moment,
    moment_descent_residual,
    moment_jacobian,
    quotient_structures,
    solve_level,
)

ACTION = EGUCHI_HANSON.action
ROTATOR, CIRCLE, CIRCLE_SCALE = (
    EGUCHI_HANSON.rotator, EGUCHI_HANSON.residual_circle, EGUCHI_HANSON.circle_scale
)
LEVEL = LevelSpec((1.0,))
#: omega_bar_1 on one block (v, Iv, Jv, Kv) of the horizontal frame
_E01_E23 = np.array([[0.0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


def solved(seed_rng, level=LEVEL):
    """A batch of one level-set point."""
    return solve_level(ACTION, level, seed_rng.standard_normal((1, 8)))


def _orbits(action, points):
    """The orbit directions (k, dim, dim_g) of points (k, dim): column a is G_a m."""
    return (action.generators @ points[:, None, :, None])[..., 0].transpose(0, 2, 1)


# -- action validation ----------------------------------------------------------------


def test_action_construction_and_brackets():
    assert ACTION.dim == 8
    assert ACTION.dim_g == 1
    # the generators of a torus commute
    torus = LinearAction.from_torus_weights(
        [CircleActionSpec(k=(1, 0), l=(-1, 0)), CircleActionSpec(k=(0, 1), l=(0, -1))]
    )
    assert torus.dim_g == 2


def test_the_eguchi_hanson_action_is_shared_and_read_only():
    # built once, at import, so no caller may write into the arrays every row shares
    action = EGUCHI_HANSON.action
    assert action is ACTION
    with pytest.raises(dataclasses.FrozenInstanceError):
        EGUCHI_HANSON.action = LinearAction(action.generators)
    for array in (*action.generators, action._moment_stack):
        with pytest.raises(ValueError, match="read-only"):
            array[0, 1] = 1.0
    # a caller's generator is copied, not made read-only under the caller
    gen = action_generator(CircleActionSpec(k=(1, 1), l=(-1, -1)))
    assert LinearAction((gen,)).generators[0] is not gen and gen.flags.writeable
    # the A_1 quiver builds the hand-written circle with weights (1, 1) on z, (-1, -1) on w
    assert action.generators.shape == (1, 8, 8)
    assert action.generators[0].tobytes() == gen.tobytes()


def test_action_rejects_non_skew():
    with pytest.raises(StructureError):
        LinearAction((np.eye(8),))


def test_action_rejects_non_triholomorphic():
    # rotation of the z-plane only: complex-linear but not quaternionic
    gen = np.zeros((4, 4))
    gen[0, 1], gen[1, 0] = -1.0, 1.0
    with pytest.raises(StructureError):
        LinearAction((gen,))


def test_action_rejects_non_closing_brackets():
    diag = action_generator(CircleActionSpec(k=(1, 2), l=(-1, -2)))
    swap = np.kron(np.array([[0.0, -1.0], [1.0, 0.0]]), np.eye(2))
    swap = np.block(
        [[swap, np.zeros((4, 4))], [np.zeros((4, 4)), swap]]
    )
    with pytest.raises(StructureError):
        LinearAction((diag, swap))


def _complex_block(a):
    """The real (2n, 2n) matrix of a complex (n, n) one in the (Re, Im) pair layout."""
    out = np.empty((2 * len(a), 2 * len(a)))
    out[0::2, 0::2], out[0::2, 1::2] = a.real, -a.imag
    out[1::2, 0::2], out[1::2, 1::2] = a.imag, a.real
    return out


def test_action_rejects_non_commuting_generators():
    # SU(2) on H^2 by (z, w) -> (A z, conj(A) w): each generator is a flat
    # triholomorphic Killing field and the three close under brackets, but
    # they do not commute, and J J^T = G (x) I_3 fails for them
    paulis = (
        np.array([[0, 1], [1, 0]]),
        np.array([[0, -1j], [1j, 0]]),
        np.array([[1, 0], [0, -1]]),
    )
    gens = [block_diag(_complex_block(1j * p), _complex_block(np.conj(1j * p))) for p in paulis]
    for gen in gens:
        assert LinearAction((gen,)).dim_g == 1
    with pytest.raises(StructureError, match="does not commute"):
        LinearAction(tuple(gens))
    # every generator is checked on its own before any pair is: a symmetric
    # third generator is reported ahead of the first two failing to commute
    with pytest.raises(StructureError, match="generator 2 is not metric-antisymmetric"):
        LinearAction((*gens[:2], np.eye(8)))


# -- quiver actions ----------------------------------------------------------------------


@pytest.mark.parametrize("k", range(1, 10))
def test_the_a_k_quiver_is_a_k_torus_with_a_four_dimensional_quotient(k):
    action = LinearAction.from_quiver(dynkin.extended_diagram("A", k))
    assert action.dim == 4 * (k + 1) and action.dim_g == k
    seeds = np.random.default_rng(k).standard_normal((2, action.dim))
    (chart,) = charts(solve_level(action, LevelSpec((1.0,) * k), seeds))
    assert chart.dim == 4


@pytest.mark.parametrize(
    "kind, k", [*(("D", k) for k in range(4, 9)), ("E6", None), ("E7", None), ("E8", None)]
)
def test_a_quiver_with_a_mark_above_one_is_refused(kind, k):
    with pytest.raises(ConfigError, match="mark above 1"):
        LinearAction.from_quiver(dynkin.extended_diagram(kind, k))


def test_the_a2_quiver_quotient_carries_the_descended_curvature_and_moment():
    action = LinearAction.from_quiver(dynkin.extended_diagram("A", 2))
    rotator = CircleActionSpec(k=(1, 1, 1), l=(1, 1, 1))
    seeds = np.random.default_rng(0).standard_normal((5, action.dim))
    batches = charts(solve_level(action, LevelSpec((1.0, 0.5)), seeds))
    F = descended_curvature(batches, rotator)
    S = quotient_structures(batches)
    for i in range(3):
        assert np.max(type11_residual(F, S[:, i], structure_tol=1e-4)) < 1e-5
    assert np.max(moment_descent_residual(batches, rotator)) < 1e-7


def test_level_spec():
    lv = LevelSpec((1.0, -2.0))
    assert lv.is_integral
    assert not LevelSpec((0.5,)).is_integral
    assert np.allclose(lv.target(), [[1.0, 0, 0], [-2.0, 0, 0]])


# -- moment map -----------------------------------------------------------------------


def test_moment_vanishes_at_origin():
    assert np.all(hk_moment(ACTION, np.zeros(8)) == 0.0)


def test_moment_hand_value():
    # z = (1, 0), w = (0, 2i): nu_1 = (|w|^2 - |z|^2)/2, complex part i(z.w) = 0
    m = np.array([1.0, 0, 0, 0, 0, 0, 0, 2.0])
    assert np.allclose(hk_moment(ACTION, m), [[1.5, 0.0, 0.0]], atol=1e-14)


def test_moment_exactly_quadratic():
    rng = np.random.default_rng(31)
    for _ in range(20):
        m = rng.standard_normal(8)
        lam = rng.uniform(0.2, 3.0)
        assert np.allclose(
            hk_moment(ACTION, lam * m), lam**2 * hk_moment(ACTION, m), rtol=1e-13
        )


def test_moment_jacobian_is_derivative():
    rng = np.random.default_rng(32)
    scheme = FDScheme(h=1e-4, order=2)  # central FD is exact on quadratics
    for _ in range(10):
        m = rng.standard_normal(8)
        jac = moment_jacobian(ACTION, m)
        for a in range(1):
            for i in range(3):
                fd = np.array(
                    [
                        (
                            hk_moment(ACTION, m + h_e)[a, i]
                            - hk_moment(ACTION, m - h_e)[a, i]
                        )
                        / (2 * scheme.h)
                        for h_e in (scheme.h * np.eye(8))
                    ]
                )
                assert np.max(np.abs(fd - jac[a, i])) < 1e-9


def test_moment_equivariance():
    rng = np.random.default_rng(33)
    gen = ACTION.generators[0]
    for _ in range(5):
        m = rng.standard_normal(8)
        g = expm(rng.uniform(-2, 2) * gen)
        assert np.max(np.abs(hk_moment(ACTION, g @ m) - hk_moment(ACTION, m))) < 1e-8


# -- level-set solving ----------------------------------------------------------------


def test_solver_converges_quadratically():
    rng = np.random.default_rng(34)
    for _ in range(10):
        one = solved(rng)
        hist = one.histories[0]
        assert hist[-1] < 1e-12
        assert len(hist) <= 20
        for r0, r1 in zip(hist, hist[1:]):
            if 1e-8 < r0 < 1e-3:
                assert r1 < 100.0 * r0**2


def test_solver_rejects_origin_at_zero_level():
    with pytest.raises(NonFreePointError):
        solve_level(ACTION, LevelSpec((0.0,)), np.zeros((1, 8)))


def test_solver_returns_immediately_on_level():
    rng = np.random.default_rng(35)
    again = solve_level(ACTION, LEVEL, solved(rng).points)
    assert len(again.histories[0]) == 1


def test_solver_budget_exhaustion(monkeypatch):
    # a budget of one step takes one step, checks its residual and gives up
    rng = np.random.default_rng(36)
    steps, newton_step = [], quotient._newton_step
    monkeypatch.setattr(quotient, "_LEVEL_MAX_ITER", 1)
    monkeypatch.setattr(
        quotient, "_newton_step", lambda jac, res: steps.append(1) or newton_step(jac, res)
    )
    with pytest.raises(ConvergenceError):
        solve_level(ACTION, LEVEL, 50.0 * rng.standard_normal((1, 8)))
    assert len(steps) == 1


def test_solver_validates_shapes():
    with pytest.raises(ConfigError):
        solve_level(ACTION, LevelSpec((1.0, 1.0)), np.ones((1, 8)))
    with pytest.raises(ConfigError):
        solve_level(ACTION, LEVEL, np.ones((1, 5)))
    with pytest.raises(ConfigError):
        solve_level(ACTION, LEVEL, np.ones((3, 5)))
    with pytest.raises(ConfigError):
        solve_level(ACTION, LEVEL, np.ones((2, 3, 8)))


def test_solver_rejects_an_empty_or_one_dimensional_seed_batch():
    # an empty batch fails here, not later in whichever function gets it
    with pytest.raises(ConfigError, match=r"\(k, 8\)"):
        solve_level(ACTION, LEVEL, np.zeros((0, 8)))
    # one seed is a batch of one, (1, 8), not a vector
    with pytest.raises(ConfigError, match=r"\(k, 8\)"):
        solve_level(ACTION, LEVEL, np.ones(8))


# -- quotient samples -----------------------------------------------------------------


def test_frames_are_orthonormal_splittings():
    rng = np.random.default_rng(37)
    one = solved(rng)
    vert, horiz = one.vertical[0], one.frames[0]
    assert vert.shape == (8, 4) and horiz.shape == (8, 4)
    assert np.max(np.abs(vert.T @ vert - np.eye(4))) < 1e-12
    assert np.max(np.abs(horiz.T @ horiz - np.eye(4))) < 1e-12
    assert np.max(np.abs(vert.T @ horiz)) < 1e-12
    # level-set tangency and orbit-orthogonality of the horizontal block
    assert np.max(np.abs(one.dnu[0].reshape(-1, 8) @ horiz)) < 1e-9
    assert np.max(np.abs(_orbits(ACTION, one.points)[0].T @ horiz)) < 1e-10
    # oriented with no sign fix: omega_bar_1 = e01 + e23
    omega1 = horiz.T @ ACTION.model.omega1 @ horiz  # the pullback E^T M E
    assert np.max(np.abs(omega1 - _E01_E23)) < 1e-12


def test_one_ulp_of_vertical_data_moves_the_frame_by_rounding_only():
    # no pivot or sign choice depends on the last bit of the vertical data
    levels = solve_level(ACTION, LEVEL, np.random.default_rng(61).standard_normal((30, 8)))
    orbits = _orbits(ACTION, levels.points)
    assert np.array_equal(quotient._quaternionic_basis(orbits)[:, :, 4:], levels.frames)
    for scale in (1.0 + 2e-16, 1.0 - 2e-16):
        moved = quotient._quaternionic_basis(orbits * scale)[:, :, 4:]
        assert np.max(np.abs(moved - levels.frames)) <= 1e-14


@pytest.mark.parametrize("weights", [(1, 0, 0), (1, 1, 1)])
def test_frames_of_dimension_eight(weights):
    # H^3 by a circle: two quaternionic blocks; (1, 0, 0) makes e_0 vertical
    action = LinearAction.from_torus_weights(
        [CircleActionSpec(k=weights, l=tuple(-w for w in weights))]
    )
    levels = solve_level(action, LEVEL, np.random.default_rng(62).standard_normal((6, 12)))
    assert levels.frames.shape == (6, 12, 8)
    for frame, dnu, orbit in zip(levels.frames, levels.dnu, _orbits(action, levels.points)):
        assert np.max(np.abs(frame.T @ frame - np.eye(8))) < 1e-12
        assert np.max(np.abs(dnu.reshape(-1, 12) @ frame)) < 1e-12
        assert np.max(np.abs(orbit.T @ frame)) < 1e-12
        for s in action.model.structures():
            s_bar = frame.T @ s @ frame
            assert np.max(np.abs(s_bar @ s_bar + np.eye(8))) < 1e-12
        omega1 = frame.T @ action.model.omega1 @ frame
        assert np.max(np.abs(omega1 - np.kron(np.eye(2), _E01_E23))) < 1e-12


def test_vertical_frame_seed_is_not_free():
    # an orbit equal to the first fixed seed leaves that seed nothing off the orbit blocks
    seed = np.sin(np.arange(1.0, 9.0))
    with pytest.raises(NonFreePointError):
        quotient._quaternionic_basis(seed[None, :, None])


def _top_wedge(A, B):
    """The dx0^dx1^dx2^dx3 component of a ^ b for 2-forms on R^4 with matrices A, B:
    the epsilon pairing of their components."""
    return (
        A[0, 1] * B[2, 3] - A[0, 2] * B[1, 3] + A[0, 3] * B[1, 2]
        + A[1, 2] * B[0, 3] - A[1, 3] * B[0, 2] + A[2, 3] * B[0, 1]
    )


def test_quotient_hyperkahler_algebra():
    rng = np.random.default_rng(38)
    for _ in range(6):
        frame = solved(rng).frames[0]
        metric = frame.T @ frame
        omega_bar = [frame.T @ w @ frame for w in ACTION.model.kahler_triple()]
        # the frame is orthonormal, so S_i = -g^{-1} omega_bar_i = -omega_bar_i
        s1, s2, s3 = (-w for w in omega_bar)
        assert np.max(np.abs(s1 @ s2 - s3)) < 1e-8
        assert np.max(np.abs(s2 @ s3 - s1)) < 1e-8
        assert np.max(np.abs(s3 @ s1 - s2)) < 1e-8
        vol = np.sqrt(np.linalg.det(metric))
        for i, wi in enumerate(omega_bar):
            for j, wj in enumerate(omega_bar):
                expect = 2.0 * vol if i == j else 0.0
                assert _top_wedge(wi, wj) == pytest.approx(expect, abs=1e-8)
        assert np.max(np.abs(metric - np.eye(4))) < 1e-10


# -- descended circle -----------------------------------------------------------------


def test_descended_moment_is_restriction():
    rng = np.random.default_rng(39)
    one = solved(rng)
    x_bar = descended_circle_data(ROTATOR, one)
    assert x_bar.shape == (1, 4)
    trivial = CircleActionSpec(k=(0, 0), l=(0, 0))
    assert np.all(descended_circle_data(trivial, one) == 0.0)


def test_descended_moment_equation():
    rng = np.random.default_rng(40)
    for _ in range(3):
        residual = moment_descent_residual(charts(solved(rng)), ROTATOR)
        assert residual.shape == (1,) and residual[0] < 1e-7


def test_rotator_must_commute():
    # the quaternionic swap action commutes with I, J, K but not with a
    # weighted diagonal rotator
    swap = np.kron(np.array([[0.0, -1.0], [1.0, 0.0]]), np.eye(2))
    swap_action = LinearAction(
        (np.block([[swap, np.zeros((4, 4))], [np.zeros((4, 4)), swap]]),)
    )
    rng = np.random.default_rng(41)
    one = solve_level(swap_action, LevelSpec((0.4,)), rng.standard_normal((1, 8)))
    weighted = CircleActionSpec(k=(1, 2), l=(-1, -2))
    with pytest.raises(StructureError):
        descended_circle_data(weighted, one)


@pytest.mark.parametrize("c", [1.0, suites._MAX_QUOTIENT_LEVEL])
def test_rotator_drift_guard_refuses_points_off_the_level_set(c):
    # the rotator turns nu_2 + i nu_3 at twice its speed, so it moves a
    # point with nu_2 = 1e-6 |m|^2 off the level set at about 2e-6 |m|^2,
    # far over the guard's 1e-9 max(1, |m|^2); the solved points pass it
    rng = np.random.default_rng(91)
    levels = solve_level(ACTION, LevelSpec((c,)), rng.standard_normal((6, 8)) * np.sqrt(c))
    descended_circle_data(ROTATOR, levels)
    m = levels.points
    grad = levels.dnu[:, 0, 1]  # d nu_2, with nu_2 = 0 on the level set
    step = 1e-6 * np.sum(m * m, axis=1) / np.sum(grad * grad, axis=1)
    moved = m + step[:, None] * grad
    nu2 = hk_moment(ACTION, moved)[:, 0, 1]
    assert np.allclose(nu2, 1e-6 * np.sum(m * m, axis=1), rtol=1e-3)
    off = dataclasses.replace(levels, points=moved, dnu=moment_jacobian(ACTION, moved))
    with pytest.raises(StructureError, match="rotator does not preserve the level set"):
        descended_circle_data(ROTATOR, off)


# -- charts and curvature -------------------------------------------------------------


def test_chart_anchors_at_base_point():
    rng = np.random.default_rng(42)
    one = solved(rng)
    chart = QuotientChart(one)
    assert chart.dim == 4
    assert np.max(np.abs(chart.point(np.zeros((1, 1, 4)))[0, 0] - one.points[0])) < 1e-12
    jet = chart.jet(np.zeros((1, 1, 4)))
    assert np.max(np.abs(jet[0][0, 0] - one.points[0])) < 1e-12
    assert np.max(np.abs(jet[1][0, 0] - chart.frames[0])) < 1e-8
    assert np.max(np.abs(chart.metric(jet)[0, 0] - np.eye(4))) < 1e-8
    for bad in (np.zeros(4), np.zeros((1, 4))):  # chart points are (k, m, K)
        with pytest.raises(ConfigError):
            chart.jet(bad)


def test_curvature_constructions_agree_on_samples():
    rng = np.random.default_rng(43)
    for _ in range(3):
        one = charts(solved(rng))
        descended = descended_curvature(one, ROTATOR)
        canonical = canonical_bundle_curvature(one, (1.0,))
        assert descended.shape == canonical.shape == (1, 6)
        assert np.max(np.abs(descended - canonical)) < 1e-5


def test_canonical_curvature_type_1_1():
    rng = np.random.default_rng(44)
    one = solved(rng)
    f = canonical_bundle_curvature(charts(one), (1.0,))
    chart = QuotientChart(one)
    jet = chart.jet(np.zeros((1, 1, 4)))
    for i in (1, 2, 3):
        s = chart.structure(jet, i)[:, 0]
        assert type11_residual(f, s, structure_tol=1e-6)[0] < 1e-5


def test_canonical_curvature_trivial_character():
    rng = np.random.default_rng(45)
    f = canonical_bundle_curvature(charts(solved(rng)), (0.0,))
    assert f.shape == (1, 6) and np.all(f == 0.0)


def test_canonical_curvature_flags_nonintegral_level():
    rng = np.random.default_rng(46)
    one = solved(rng, LevelSpec((0.75,)))
    with pytest.warns(UserWarning):
        canonical_bundle_curvature(charts(one), (1.0,))


# -- multi-centre coordinates ---------------------------------------------------------


def test_gh_coordinates_match_two_center_model():
    rng = np.random.default_rng(47)
    nut_plus = np.array([1.0, 0.0, 0.0])
    for _ in range(8):
        one = solved(rng)
        (x,), (v,) = gh_coordinates(CIRCLE, one)
        pred = 1.0 / np.linalg.norm(x - nut_plus) + 1.0 / np.linalg.norm(x + nut_plus)
        assert v / pred == pytest.approx(0.25, rel=1e-9)
        # quarter speed gives the unit-coefficient model with centres at +/- c/4
        (x_s,), (v_s,) = gh_coordinates(CIRCLE, one, scale=CIRCLE_SCALE)
        assert np.allclose(x_s, 0.25 * x, rtol=1e-12)
        pred_s = 1.0 / np.linalg.norm(x_s - nut_plus / 4) + 1.0 / np.linalg.norm(
            x_s + nut_plus / 4
        )
        assert v_s / pred_s == pytest.approx(1.0, rel=1e-9)


def test_gh_coordinates_scale_linearly_with_level():
    rng = np.random.default_rng(48)
    # the fixed points sit at (+/- c, 0, 0): doubled level, doubled centres
    for c in (1.0, 2.0):
        (x,), (v,) = gh_coordinates(CIRCLE, solved(rng, LevelSpec((c,))))
        nut = np.array([c, 0.0, 0.0])
        pred = 1.0 / np.linalg.norm(x - nut) + 1.0 / np.linalg.norm(x + nut)
        assert v / pred == pytest.approx(0.25, rel=1e-9)


def test_gh_coordinates_validation():
    rng = np.random.default_rng(49)
    with pytest.raises(StructureError):
        gh_coordinates(ROTATOR, solved(rng))  # not triholomorphic
    nut = np.zeros((1, 8))
    nut[0, 4] = np.sqrt(2.0)  # z = 0, w = (sqrt(2), 0): a fixed point of Y
    with pytest.raises(DomainError):
        gh_coordinates(CIRCLE, solve_level(ACTION, LEVEL, nut))


def test_circles_on_another_space_are_rejected():
    levels = solved(np.random.default_rng(49))
    on_h3 = CircleActionSpec(k=(1, -1, 0), l=(-1, 1, 0))  # the action is on H^2
    for circle_data in (gh_coordinates, descended_circle_data):
        with pytest.raises(ConfigError, match="dimension does not match the action"):
            circle_data(on_h3, levels)


def test_y_length_positive_away_from_fixed_points():
    rng = np.random.default_rng(50)
    for _ in range(5):
        _, v = gh_coordinates(CIRCLE, solved(rng))
        assert v[0] > 0.0


# -- batched level-set solver and multi-centre coordinates ------------------------------


def _lstsq_newton(m, level, tol=1e-12, max_iter=40):
    """Reference: one seed, least-squares Newton steps against the full Jacobian."""
    history = []
    for _ in range(max_iter + 1):
        res = hk_moment(ACTION, m) - level.target()
        history.append(float(np.linalg.norm(res)))
        if history[-1] < tol:
            return m, history
        jac = moment_jacobian(ACTION, m).reshape(-1, ACTION.dim)
        m = m + np.linalg.lstsq(jac, -res.ravel(), rcond=None)[0]
    raise AssertionError("reference Newton did not converge")


def _alone(action, levels, row):
    """Row ``row`` of a level-set batch solved again alone: a batch of one with its own frames.

    The row is on the level already, so the solve takes no step and keeps its bits.
    """
    return solve_level(action, levels.level, levels.points[row : row + 1])


def test_batch_solve_rows_equal_single_seed_solves():
    seeds = np.random.default_rng(58).standard_normal((16, 8))
    batch = solve_level(ACTION, LEVEL, seeds)
    assert isinstance(batch, LevelSetPoints) and len(batch) == 16
    with pytest.raises(TypeError):
        batch[0]  # a row is the batch of one batch[0:1]
    for row, seed in enumerate(seeds):
        alone = solve_level(ACTION, LEVEL, seeds[row : row + 1])
        for name in ("points", "dnu", "vertical", "frames"):
            assert np.array_equal(getattr(batch, name)[row], getattr(alone, name)[0]), name
        assert batch.histories[row] == alone.histories[0]
        # the Gram step is the least-squares step: same path, rounding apart
        want, history = _lstsq_newton(seed, LEVEL)
        assert len(batch.histories[row]) == len(history)
        assert np.max(np.abs(batch.points[row] - want)) < 1e-13


def test_batch_gh_coordinates_equal_single_calls():
    levels = solve_level(ACTION, LEVEL, np.random.default_rng(59).standard_normal((12, 8)))
    xs, vs = gh_coordinates(CIRCLE, levels, scale=CIRCLE_SCALE)
    assert xs.shape == (12, 3) and vs.shape == (12,)
    for row in range(12):
        one = levels[row : row + 1]
        x, v = gh_coordinates(CIRCLE, one, scale=CIRCLE_SCALE)
        assert np.array_equal(xs[row], x[0]) and vs[row] == v[0]


def test_one_bad_row_fails_the_whole_batch():
    rng = np.random.default_rng(60)
    origin = np.vstack([rng.standard_normal((3, 8)), np.zeros(8)])
    with pytest.raises(NonFreePointError):
        solve_level(ACTION, LevelSpec((0.0,)), origin)
    far = np.vstack([rng.standard_normal((3, 8)), 50.0 * rng.standard_normal(8)])
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(quotient, "_LEVEL_MAX_ITER", 1)
        with pytest.raises(ConvergenceError):
            solve_level(ACTION, LEVEL, far)
    nut = np.zeros(8)
    nut[4] = np.sqrt(2.0)  # a fixed point of the residual circle
    points = solve_level(ACTION, LEVEL, np.vstack([rng.standard_normal((3, 8)), nut]))
    with pytest.raises(DomainError):
        gh_coordinates(CIRCLE, points)


def test_quotient_samplers_batch_their_seeds(monkeypatch):
    # each sampled level costs one solve and one projection, whatever the
    # sample count, and the Newton steps come from the orbit Gram matrix,
    # not lstsq (the two-centre fit's Gauss-Newton steps, lstsq solves by
    # design, are not counted)
    calls = {"solve_level": 0, "gh_coordinates": 0, "lstsq": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("solve_level", "gh_coordinates"):
        monkeypatch.setattr(quotient, name, counted(name, getattr(quotient, name)))
    lstsq, fit = np.linalg.lstsq, suites.fit_two_centers

    def fit_uncounted(xs, vs):
        with monkeypatch.context() as m:
            m.setattr(np.linalg, "lstsq", lstsq)
            return fit(xs, vs)

    monkeypatch.setattr(suites, "fit_two_centers", fit_uncounted)
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", lstsq))
    cfg = suites.RunConfig(suite="quotient", samples=40)
    for check_id, count in (("quotient.gh.potential", 1), ("quotient.gh.separation", 2)):
        calls.update(solve_level=0, gh_coordinates=0)
        assert suites.run_check(cfg, check_id).passed
        assert calls["solve_level"] == count and calls["gh_coordinates"] == count
    report = suites.run_suite(cfg)
    assert all(record.passed for record in report.records)
    assert calls["lstsq"] == 0


# -- batched moment map and chart retraction -------------------------------------------

TORUS = LinearAction.from_torus_weights(
    [CircleActionSpec(k=(1, 0), l=(-1, 0)), CircleActionSpec(k=(0, 1), l=(0, -1))]
)
#: the 2-torus with generators e_1 - e_2 and e_2 - e_3 on H^3, free at levels (1, 2)
TORUS_H3 = LinearAction.from_torus_weights(
    [CircleActionSpec(k=(1, -1, 0), l=(-1, 1, 0)), CircleActionSpec(k=(0, 1, -1), l=(0, -1, 1))]
)
ACTIONS = pytest.mark.parametrize(
    "action", [ACTION, TORUS, TORUS_H3], ids=["circle", "torus", "torus-h3"]
)


def _loop_moment(action, m):
    """Reference: the per-point loop, nu[a, i] = (1/2) (S_i G_a m) . m."""
    nu = np.empty((action.dim_g, 3))
    jac = np.empty((action.dim_g, 3, action.dim))
    for a, gen in enumerate(action.generators):
        for i, s in enumerate(action.model.structures()):
            jac[a, i] = s @ (gen @ m)
            nu[a, i] = 0.5 * np.dot(jac[a, i], m)
    return nu, jac


@pytest.mark.parametrize("action", [ACTION, TORUS], ids=["circle", "torus"])
def test_batched_moment_rows_match_per_point_loop(action):
    rng = np.random.default_rng(51)
    batch = 2.0 * rng.standard_normal((64, action.dim))
    nu, jac = hk_moment(action, batch), moment_jacobian(action, batch)
    assert nu.shape == (64, action.dim_g, 3)
    assert jac.shape == (64, action.dim_g, 3, action.dim)
    for row, m in enumerate(batch):
        want_nu, want_jac = _loop_moment(action, m)
        assert hk_moment(action, m).shape == (action.dim_g, 3)
        assert np.max(np.abs(nu[row] - want_nu)) <= 1e-15
        assert np.max(np.abs(hk_moment(action, m) - want_nu)) <= 1e-15
        assert np.max(np.abs(jac[row] - want_jac)) <= 1e-15


def _broadcast_jacobian(action, m):
    """Reference: one matrix-vector product (S_i G_a) m per row and (a, i)."""
    stack = np.array([[s @ g for s in action.model.structures()] for g in action.generators])
    return (stack @ m[..., None, None, :, None])[..., 0]


@pytest.mark.parametrize("action", [ACTION, TORUS], ids=["circle", "torus"])
@pytest.mark.parametrize("k", [1, 5, 17, 272, 1000])
def test_moment_jacobian_product_equals_broadcast_products(action, k):
    m = 2.0 * np.random.default_rng(72).standard_normal((k, action.dim))
    jac = moment_jacobian(action, m)
    assert np.array_equal(jac, _broadcast_jacobian(action, m))
    assert np.array_equal(jac[k // 2], moment_jacobian(action, m[k // 2]))


def test_chart_batch_retraction_matches_single_rows():
    # row r of a chart batch of k points equals the chart of levels[r:r+1],
    # and each chart point equals that point retracted alone
    rng = np.random.default_rng(52)
    levels = solve_level(ACTION, LEVEL, rng.standard_normal((3, 8)))
    xi = 0.05 * rng.standard_normal((3, 8, 4))
    batch = QuotientChart(levels).point(xi)
    assert batch.shape == (3, 8, 8)
    target = LEVEL.target()
    for row in range(3):
        chart = QuotientChart(levels[row : row + 1])
        assert np.array_equal(batch[row], chart.point(xi[row : row + 1])[0])
        for j in range(8):
            alone = chart.point(xi[row : row + 1, j : j + 1])[0, 0]
            assert np.max(np.abs(batch[row, j] - alone)) < 1e-13
            assert np.linalg.norm(hk_moment(ACTION, batch[row, j]) - target) < 1e-14


def _newton_data(action, k, seed):
    """k random points, their moment Jacobians (k, 3 dim_g, dim) and residuals (k, 3 dim_g)."""
    m = 2.0 * np.random.default_rng(seed).standard_normal((k, action.dim))
    jac = moment_jacobian(action, m).reshape(k, -1, action.dim)
    return m, jac, hk_moment(action, m).reshape(k, -1) - 0.5


def _lstsq_step(jac, res):
    """Reference: the minimum-norm solution of J step = -res, one lstsq per row."""
    return np.array([np.linalg.lstsq(j, -r, rcond=None)[0] for j, r in zip(jac, res)])


@ACTIONS
def test_moment_jacobian_gram_is_orbit_gram_times_identity(action):
    # J J^T = G (x) I_3 at every point, off the level set too, with G the
    # orbit Gram matrix; each entry is a dot of length dim, so the gap is
    # at most dim eps relative (measured 5.1e-16 on H^3 over 200 points)
    m, jac, _ = _newton_data(action, 50, 81)
    orbits = (np.array(action.generators) @ m[:, None, :, None])[..., 0]
    gram = orbits @ orbits.transpose(0, 2, 1)
    width = 3 * action.dim_g
    want = np.einsum("rab,ij->raibj", gram, np.eye(3)).reshape(50, width, width)
    got = jac @ jac.transpose(0, 2, 1)
    gap = np.max(np.abs(got - want), axis=(1, 2)) / np.max(np.abs(got), axis=(1, 2))
    assert np.max(gap) <= action.dim * np.finfo(float).eps


@ACTIONS
def test_newton_step_is_the_minimum_norm_step(action):
    # measured worst 9.1e-15 relative on H^3 over 200 points
    _, jac, res = _newton_data(action, 50, 82)
    step, want = quotient._newton_step(jac, res), _lstsq_step(jac, res)
    gap = np.max(np.abs(step - want), axis=1) / np.max(np.abs(want), axis=1)
    assert np.max(gap) < 1e-13


@pytest.mark.parametrize("bad", [0.0, np.nan], ids=["zero", "nan"])
def test_newton_step_rejects_a_degenerate_row(bad):
    # one row with a zero (or NaN) Jacobian fails the Gram guard of the
    # whole batch with a typed error, not numpy's LinAlgError or a NaN step
    _, jac, res = _newton_data(TORUS_H3, 5, 83)
    jac[3] = bad
    with pytest.raises(NonFreePointError):
        quotient._newton_step(jac, res)


def test_torus_retraction_on_h3_matches_single_rows():
    # the dim_g = 2 path of both solvers: levels and chart points converge,
    # and a chart batch row has the bits of that chart point retracted alone
    rng = np.random.default_rng(84)
    level = LevelSpec((1.0, 2.0))
    levels = solve_level(TORUS_H3, level, rng.standard_normal((3, 12)))
    # both solvers stop relative to the level's norm, sqrt(5) here
    scale = np.linalg.norm(level.target())
    assert all(hist[-1] < quotient._LEVEL_NEWTON_TOL * scale for hist in levels.histories)
    xi = 0.05 * rng.standard_normal((3, 6, 4))
    batch = QuotientChart(levels).point(xi)
    assert batch.shape == (3, 6, 12)
    for row in range(3):
        chart = QuotientChart(levels[row : row + 1])
        for j in range(6):
            alone = chart.point(xi[row : row + 1, j : j + 1])[0, 0]
            assert np.array_equal(batch[row, j], alone)
            residual = np.linalg.norm(hk_moment(TORUS_H3, alone) - level.target())
            assert residual < quotient._CHART_NEWTON_TOL * scale


def test_h3_torus_basis_splits_into_vertical_and_horizontal_frames():
    # dim_g = 2: the two orbit blocks of the Gram-Schmidt pass span the
    # orbit directions and moment gradients (against a Householder QR of
    # them), the horizontal frame is the rest, and omega_bar_1 = e01 + e23
    # on each of the three blocks (measured worst 1.1e-15 over 200 seeds)
    seeds = np.random.default_rng(86).standard_normal((5, 12))
    levels = solve_level(TORUS_H3, LevelSpec((1.0, 2.0)), seeds)
    orbits = _orbits(TORUS_H3, levels.points)
    basis = quotient._quaternionic_basis(orbits)
    assert basis.shape == (5, 12, 12)
    assert np.array_equal(levels.vertical, basis[:, :, :8])
    for full, frame, dnu, orbit in zip(basis, levels.frames, levels.dnu, orbits):
        vert = full[:, :8]
        assert np.max(np.abs(vert.T @ vert - np.eye(8))) < 1e-12
        span = np.linalg.qr(np.column_stack([orbit, dnu.reshape(-1, 12).T]))[0]
        assert np.max(np.abs(vert @ vert.T - span @ span.T)) < 1e-12
        assert np.array_equal(frame, full[:, 8:])
        assert np.max(np.abs(vert.T @ frame)) < 1e-12
        omega1 = full.T @ TORUS_H3.model.omega1 @ full
        assert np.max(np.abs(omega1 - np.kron(np.eye(3), _E01_E23))) < 1e-12


def test_torus_curvature_match_takes_the_level_as_weight():
    # the curvature match with dim_g = 2, outside the suite: on the H^3
    # 2-torus at level (1, 2) the descended form of the rotator
    # (1, 1, 1)/(1, 1, 1) is the canonical curvature of the bundle whose
    # weight is the level, as for a circle (suites._q_match) at the row's
    # tolerance 1e-5 (measured 1.3e-9); the weight (1, 1) misses by 0.37
    rotator = CircleActionSpec(k=(1, 1, 1), l=(1, 1, 1))
    seeds = np.random.default_rng(0).standard_normal((4, 12))
    batches = charts(solve_level(TORUS_H3, LevelSpec((1.0, 2.0)), seeds))
    want = descended_curvature(batches, rotator)
    assert want.shape == (4, 6)
    assert np.max(np.abs(canonical_bundle_curvature(batches, (1.0, 2.0)) - want)) < 1e-5
    assert np.max(np.abs(canonical_bundle_curvature(batches, (1.0, 1.0)) - want)) >= 0.29


def test_newton_solvers_make_no_svd_and_one_solve_per_chart_step(monkeypatch):
    # solve_level's steps and the rank guards of both solvers are the
    # closed-form Gram step and eigvalsh, and the frames are one
    # Gram-Schmidt pass; the chart retraction solves one stacked (J N)
    # system per Newton step, three here (worst residuals 1.4e-2, 3.3e-5,
    # 1.8e-10, then below 1e-14), which shows that the counters see a call
    calls = {"svd": 0, "solve": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    rng = np.random.default_rng(85)
    chart = QuotientChart(solved(rng))
    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name, getattr(np.linalg, name)))
    levels = solve_level(ACTION, LEVEL, rng.standard_normal((6, 8)))
    assert calls == {"svd": 0, "solve": 0}
    chart.point(0.05 * rng.standard_normal((1, 20, 4)))
    assert calls == {"svd": 0, "solve": 3}
    assert levels.frames.shape == (6, 8, 4) and calls == {"svd": 0, "solve": 3}
    gh_coordinates(CIRCLE, levels)
    assert calls == {"svd": 0, "solve": 3}


def test_chart_retraction_budget_exhaustion(monkeypatch):
    # a budget of one step takes one step (one linear solve), checks its
    # residual and gives up
    rng = np.random.default_rng(53)
    chart = QuotientChart(solved(rng))
    steps, solve = [], np.linalg.solve
    monkeypatch.setattr(quotient, "_CHART_MAX_ITER", 1)
    monkeypatch.setattr(np.linalg, "solve", lambda a, b: steps.append(1) or solve(a, b))
    with pytest.raises(ConvergenceError):
        chart.point(np.full((1, 3, 4), 0.1))
    assert len(steps) == 1


def test_chart_retraction_checks_the_residual_after_its_last_step(monkeypatch):
    # one step takes chart points 1e-5 off the base point to a residual of
    # about eps, so a budget of one step converges, as in solve_level
    rng = np.random.default_rng(53)
    chart = QuotientChart(solved(rng))
    monkeypatch.setattr(quotient, "_CHART_MAX_ITER", 1)
    points = chart.point(1e-5 * rng.standard_normal((1, 3, 4)))
    residuals = np.linalg.norm(hk_moment(ACTION, points[0]) - LEVEL.target(), axis=(1, 2))
    assert np.all(residuals < quotient._CHART_NEWTON_TOL)


def test_chart_tangents_equal_fd_of_the_retraction():
    # the jet's tangents are exact (implicit function theorem), so they equal
    # fd_jacobian of point at xi = 0 and off it, on a circle and on the
    # H^3 2-torus; the FD side carries roundoff eps |m| / h and each
    # retracted point's Newton error (tolerance 1e-14) over h = 1e-4:
    # measured worst 4.6e-12 (tangents) and 2.5e-11 (gradients, |mu| up to
    # about 5) over 20 seeds
    torus_rotator = CircleActionSpec(k=(1, 1, 1), l=(1, 1, 1))
    scheme = FDScheme(h=1e-4, order=4)
    for action, level, rotator in (
        (ACTION, LEVEL, ROTATOR),
        (TORUS_H3, LevelSpec((1.0, 2.0)), torus_rotator),
    ):
        rng = np.random.default_rng(54)
        levels = solve_level(action, level, rng.standard_normal((1, action.dim)))
        chart = QuotientChart(levels)
        mu = moment_field(rotator)

        def retract(y):
            return chart.point(y[None])[0]

        for xi in (np.zeros(chart.dim), 2e-3 * rng.standard_normal(chart.dim)):
            points, tangents = jet = chart.jet(xi[None, None, :])
            want = fd_jacobian(retract, xi[None], scheme)[0]
            assert np.max(np.abs(tangents[0, 0] - want)) < 1e-10
            grad = fd_gradient(lambda y: mu(retract(y)), xi[None], scheme)[0]
            assert np.max(np.abs(chart.gradient(jet, mu)[0, 0] - grad)) < 1e-9
            fd_metric = chart.metric((points, want[None, None]))
            assert np.max(np.abs(chart.metric(jet) - fd_metric)) < 1e-10


def test_chart_jet_rows_match_single_rows():
    # every quantity built from a jet is array code over the batch: chart
    # point j of row r of a chart batch has the bits of that chart point
    # taken alone in the chart of levels[r:r+1]
    rng = np.random.default_rng(58)
    levels = solve_level(ACTION, LEVEL, rng.standard_normal((3, 8)))
    chart = QuotientChart(levels)
    mu = moment_field(ROTATOR)
    xi = 0.05 * rng.standard_normal((3, 16, 4))
    jet = chart.jet(xi)
    assert jet[0].shape == (3, 16, 8) and jet[1].shape == (3, 16, 8, 4)
    batch = {
        "metric": chart.metric(jet),
        "structure": np.stack([chart.structure(jet, i) for i in (1, 2, 3)], axis=2),
        "theta": chart.theta(jet, (1.0,)),
        "gradient": chart.gradient(jet, mu),
    }
    for row in range(3):
        one = QuotientChart(levels[row : row + 1])
        for j in range(16):
            alone = one.jet(xi[row : row + 1, j : j + 1])
            assert np.array_equal(jet[0][row, j], alone[0][0, 0])
            assert np.array_equal(jet[1][row, j], alone[1][0, 0])
            assert np.array_equal(batch["metric"][row, j], one.metric(alone)[0, 0])
            structures = np.stack([one.structure(alone, i)[0, 0] for i in (1, 2, 3)])
            assert np.array_equal(batch["structure"][row, j], structures)
            assert np.array_equal(batch["theta"][row, j], one.theta(alone, (1.0,))[0, 0])
            assert np.array_equal(batch["gradient"][row, j], one.gradient(alone, mu)[0, 0])


def test_descended_curvature_retraction_count(monkeypatch):
    # one jet at the base points and one jet of the 4 K = 16 outer dd^c
    # points of each: 1 + 4 K = 17 retracted rows per level-set point, as
    # the tangents and the gradients' stencils are closed-form; a check
    # passes one list of chart batches to both of its chart functions, so
    # each batch retracts its base points and its stencil once at most
    rows = []
    retract = QuotientChart.point

    def counting(self, xi):
        rows.append(np.asarray(xi).reshape(-1, self.dim).shape[0])
        return retract(self, xi)

    monkeypatch.setattr(QuotientChart, "point", counting)
    levels = solve_level(ACTION, LEVEL, np.random.default_rng(55).standard_normal((3, 8)))
    descended_curvature(charts(levels), ROTATOR)
    assert rows == [3, 3 * 16]
    cfg = suites.RunConfig(suite="quotient", samples=40)  # 10 points in one batch
    for check_id, want in (
        ("quotient.curvature.match", [160, 10]),  # canonical (stencil), then descended (base)
        ("quotient.curvature.type11", [10, 160]),  # descended; the structures reuse its base
        ("quotient.moment.descent", [10]),
    ):
        rows.clear()
        assert suites.run_check(cfg, check_id).passed
        assert rows == want, (check_id, rows)


@pytest.mark.parametrize("samples", [40, 400])
def test_each_chart_check_builds_its_frames_once(monkeypatch, samples):
    # a check's level-set batch builds the frames of all its points in one
    # pass, and each chunk of its chart batches reads its rows of them; a
    # bound of 240 rows makes chunks of 15 points (16 retracted rows each),
    # so at 400 samples the 100 points go in 7 chunks
    calls = []
    build = quotient._quaternionic_basis

    def counting(orbits):
        calls.append(len(orbits))
        return build(orbits)

    monkeypatch.setattr(quotient, "_quaternionic_basis", counting)
    monkeypatch.setattr(forms, "MAX_STENCIL_VALUES", 240)
    cfg = suites.RunConfig(suite="quotient", samples=samples)
    for check_id in (
        "quotient.curvature.match",
        "quotient.curvature.type11",
        "quotient.moment.descent",
    ):
        calls.clear()
        assert suites.run_check(cfg, check_id).passed
        assert calls == [samples // 4], (check_id, calls)
    # solve_level builds them, once; a chart and a slice read them, read-only
    calls.clear()
    one = solved(np.random.default_rng(56))
    assert calls == [1]
    assert QuotientChart(one).frames is one.frames
    assert one[0:1].frames.base is one.frames and one[0:1].vertical.base is one.vertical
    assert calls == [1]
    for part in (one, one[0:1]):
        for frames in (part.vertical, part.frames):
            assert frames.flags.c_contiguous and not frames.flags.writeable


@pytest.mark.parametrize(
    "action, level",
    [(ACTION, LEVEL), (TORUS_H3, LevelSpec((1.0, 2.0)))],
    ids=["circle", "torus-h3"],
)
def test_level_set_batch_carries_its_action_into_slices_and_charts(action, level):
    rng = np.random.default_rng(92)
    levels = solve_level(action, level, rng.standard_normal((4, action.dim)))
    assert levels.action is action
    assert levels[1:3].action is levels.action
    batches = charts(levels)
    assert batches and all(
        chart.action is action and chart.levels.action is action for chart in batches
    )


def test_charts_of_a_zero_dimensional_quotient_are_refused():
    # the 2-torus on H^2 leaves a quotient of dimension 0, which has no chart
    seeds = np.random.default_rng(93).standard_normal((2, TORUS.dim))
    levels = solve_level(TORUS, LevelSpec((1.0, 2.0)), seeds)
    with pytest.raises(ConfigError, match="dimension 0"):
        charts(levels)


# -- chart batches ----------------------------------------------------------------------


H3 = LinearAction.from_torus_weights([CircleActionSpec(k=(1, 1, 1), l=(-1, -1, -1))])


@pytest.mark.parametrize("action", [ACTION, H3], ids=["H2", "H3"])
def test_batch_frames_equal_frames_built_alone(action):
    rng = np.random.default_rng(70)
    levels = solve_level(action, LEVEL, rng.standard_normal((6, action.dim)))
    chart = QuotientChart(levels)  # one batched build of six frames
    assert chart.frames.shape == (6, action.dim, action.dim - 4)
    assert not levels.frames.flags.writeable
    for row in range(6):
        alone = _alone(action, levels, row).frames[0]
        assert np.array_equal(chart.frames[row], alone)
        # a slice reads its rows of the batch's frames, read-only
        part = levels[row : row + 1].frames
        assert np.array_equal(part[0], alone) and not part.flags.writeable


def test_batch_curvatures_equal_single_point_calls():
    rng = np.random.default_rng(71)
    levels = solve_level(ACTION, LEVEL, rng.standard_normal((6, 8)))
    rotator = ROTATOR
    batches = charts(levels)
    descended = descended_curvature(batches, rotator)
    canonical = canonical_bundle_curvature(batches, (1.0,))
    descent = moment_descent_residual(batches, rotator)
    structures = quotient_structures(batches)
    x_bars = descended_circle_data(rotator, levels)
    assert descended.shape == canonical.shape == (6, 6)
    assert descent.shape == (6,) and structures.shape == (6, 3, 4, 4)
    for row in range(6):
        alone = _alone(ACTION, levels, row)
        one = charts(alone)
        assert np.array_equal(descended[row], descended_curvature(one, rotator)[0])
        assert np.array_equal(canonical[row], canonical_bundle_curvature(one, (1.0,))[0])
        assert descent[row] == moment_descent_residual(one, rotator)[0]
        assert np.array_equal(structures[row], quotient_structures(one)[0])
        assert np.array_equal(x_bars[row], descended_circle_data(rotator, alone)[0])
    assert np.all(canonical_bundle_curvature(batches, (0.0,)) == 0.0)


_CHART_FUNCTIONS = {
    "canonical": lambda batches: canonical_bundle_curvature(batches, (1.0,)),
    "descended": lambda batches: descended_curvature(batches, ROTATOR),
    "structures": quotient_structures,
}


@pytest.mark.parametrize(
    "first, second",
    [
        ("canonical", "descended"),
        ("descended", "canonical"),
        ("descended", "structures"),
        ("structures", "descended"),
    ],
)
def test_shared_chart_batches_give_the_bits_of_fresh_ones(first, second):
    # the suites pass one list of chart batches to two chart functions, and
    # the first one's jets stay cached on the batches: the second must get
    # the bits it gets on fresh batches, in either order, and the cached
    # jets are read-only, so neither side can change what the other reads
    levels = solve_level(ACTION, LEVEL, np.random.default_rng(76).standard_normal((5, 8)))
    shared = charts(levels)
    for name in (first, second):
        got = _CHART_FUNCTIONS[name](shared)
        assert np.array_equal(got, _CHART_FUNCTIONS[name](charts(levels))), name
    for jet in (shared[0].base, shared[0].stencil):
        for array in jet:
            with pytest.raises(ValueError, match="read-only"):
                array[0, 0] = 0.0


@pytest.mark.parametrize("action", [ACTION, H3, TORUS_H3], ids=["H2", "H3", "torus-H3"])
def test_quotient_structures_solve_equals_three_solves(monkeypatch, action):
    # the three structures off one metric have the bits of the three calls
    # of ``structure``, each of which builds the metric again
    level = LevelSpec((1.0,) * action.dim_g)
    seeds = np.random.default_rng(77).standard_normal((4, action.dim))
    (chart,) = charts(solve_level(action, level, seeds))
    want = np.stack([chart.structure(chart.base, i)[:, 0] for i in (1, 2, 3)], axis=1)
    metrics = []
    metric = QuotientChart.metric

    def counting(self, jet):
        metrics.append(jet)
        return metric(self, jet)

    monkeypatch.setattr(QuotientChart, "metric", counting)
    assert np.array_equal(quotient_structures([chart]), want)
    assert len(metrics) == 1


def test_chart_functions_refuse_an_empty_batch_list():
    for name, fn in _CHART_FUNCTIONS.items():
        with pytest.raises(ConfigError, match="chart batch"):
            fn([])
    with pytest.raises(ConfigError, match="chart batch"):
        moment_descent_residual([], ROTATOR)


def test_chart_batch_anchors_at_its_base_points():
    rng = np.random.default_rng(73)
    levels = solve_level(ACTION, LEVEL, rng.standard_normal((5, 8)))
    chart = QuotientChart(levels)
    assert np.max(np.abs(chart.point(np.zeros((5, 1, 4)))[:, 0] - levels.points)) < 1e-12
    points_, tangents = jet = chart.jet(np.zeros((5, 1, 4)))
    assert points_.shape == (5, 1, 8) and tangents.shape == (5, 1, 8, 4)
    # the tangents are exact: F - N (J N)^{-1} J F with J F zero up to
    # rounding (measured 1.8e-14 and 2.2e-16)
    assert np.max(np.abs(tangents[:, 0] - chart.frames)) < 1e-12
    assert np.max(np.abs(chart.metric(jet) - np.eye(4))) < 1e-12
    for bad in (np.zeros((4, 1, 4)), np.zeros((1, 4)), np.zeros((5, 1, 3))):
        with pytest.raises(ConfigError):
            chart.jet(bad)
    for bad in (np.zeros(4), np.zeros((5, 4))):  # chart points are (k, m, K)
        with pytest.raises(ConfigError):
            chart.point(bad)


def test_chart_batches_go_in_chunks_with_the_same_results(monkeypatch):
    rng = np.random.default_rng(74)
    levels = solve_level(ACTION, LEVEL, rng.standard_normal((6, 8)))
    rotator = ROTATOR

    def results():
        batches = charts(levels)
        return [len(chart.levels) for chart in batches], (
            descended_curvature(batches, rotator),
            canonical_bundle_curvature(batches, (1.0,)),
            moment_descent_residual(batches, rotator),
            quotient_structures(batches),
        )

    sizes, whole = results()
    assert sizes == [6]
    retracted = []
    retract = QuotientChart.point

    def counting(self, xi):
        retracted.append(len(self.frames))
        return retract(self, xi)

    monkeypatch.setattr(QuotientChart, "point", counting)
    # a point's curvature stencil retracts its 16 outer points, so a bound
    # of 32 makes chunks of two (and the gradients' stencils go one point
    # at a time)
    monkeypatch.setattr(forms, "MAX_STENCIL_VALUES", 32)
    sizes, chunked = results()
    assert sizes == [2, 2, 2] and set(retracted) == {2}
    assert len(retracted) == 2 * 3  # a base and a stencil jet per batch
    for want, got in zip(whole, chunked):
        assert np.array_equal(want, got)


def test_chart_batch_memory_stays_flat_as_points_grow():
    # chunks hold up to 256 level-set points (4096 retracted rows at 16
    # per point); the 100 points here go in one and peak near 1.6 MB, and
    # a full chunk peaks near 4.2 MB (traced, at 1,200 and 2,400 samples)
    cfg = suites.RunConfig(suite="quotient", samples=400)
    tracemalloc.start()
    try:
        record = suites.run_check(cfg, "quotient.curvature.type11")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert record.passed
    assert peak <= 4e6


def test_canonical_curvature_warns_once_per_call():
    rng = np.random.default_rng(75)
    levels = solve_level(ACTION, LevelSpec((0.75,)), rng.standard_normal((4, 8)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        canonical_bundle_curvature(charts(levels), (1.0,))
    assert [w.category for w in caught] == [UserWarning]


# -- two-centre fit and the separation check --------------------------------------------


def test_two_center_fit_recovers_a_level_it_is_not_told():
    rng = np.random.default_rng(57)
    for c in (0.7, 3.1):
        xs, vs = suites.gh_samples(EGUCHI_HANSON, c, rng, 12)
        sep, resid = suites.fit_two_centers(xs, vs)
        assert sep == pytest.approx(c / 2.0, rel=1e-9)
        assert resid < 1e-9


@pytest.mark.parametrize("count", [6, 12, 40])
def test_two_center_fit_frees_all_six_coordinates(count, monkeypatch):
    # centres off the x1-axis and off the origin: the axis scan only starts
    # the fit, and Gauss-Newton stops when a step no longer lowers the sum of
    # squares (6 to 9 steps here), well before the step cap
    centres = np.array([[-0.35, 0.1, 0.05], [0.45, -0.05, 0.1]])
    xs = np.random.default_rng(5).standard_normal((count, 3))
    vs = sum(1.0 / np.linalg.norm(xs - a, axis=1) for a in centres)
    steps, lstsq = [], np.linalg.lstsq
    monkeypatch.setattr(np.linalg, "lstsq", lambda *a, **kw: steps.append(1) or lstsq(*a, **kw))
    sep, resid = suites.fit_two_centers(xs, vs)
    assert sep == pytest.approx(np.linalg.norm(centres[1] - centres[0]), rel=1e-12)
    assert resid < 1e-14 and len(steps) < suites._FIT_MAX_STEPS


@pytest.mark.parametrize("seed", range(16))
def test_separation_check_passes_with_one_sample(seed):
    # the six-parameter fit draws at least twelve samples per level
    cfg = suites.RunConfig(suite="quotient", samples=1, seed=seed)
    sep = suites.run_check(cfg, "quotient.gh.separation")
    assert sep.passed, sep.residual


@pytest.mark.parametrize("c", [0.01, 0.5, 2.5, 8.0])
@pytest.mark.parametrize("seed", [42, 126, 192, 278])
def test_separation_check_passes_at_six_samples(seed, c):
    # with only six samples per level these seeds fixed the six centre
    # coordinates exactly and missed by up to 1.03e-2 (tol 1e-4) at every c
    cfg = suites.RunConfig(suite="quotient", samples=6, seed=seed, c=c)
    sep = suites.run_check(cfg, "quotient.gh.separation")
    assert sep.passed, sep.residual
