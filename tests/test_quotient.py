"""Tests for the linear hyperkahler quotient machinery."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from hkgeom.errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    NonFreePointError,
    StructureError,
)
from hkgeom import forms, quotient, suites
from hkgeom.flatspace import CircleActionSpec, action_generator, moment_field, moment_map
from hkgeom.forms import (
    FDScheme,
    ScalarField,
    fd_gradient,
    fd_jacobian,
    pullback,
    type11_residual,
    wedge,
)
from hkgeom.quotient import (
    GH_CIRCLE_SCALE,
    LevelSetPoint,
    LevelSpec,
    LinearAction,
    QuotientChart,
    canonical_bundle_curvature,
    descended_circle_data,
    descended_curvature,
    eguchi_hanson_action,
    eh_residual_circle,
    eh_rotator,
    gh_coordinates,
    hk_moment,
    horizontal_frame,
    moment_descent_residual,
    moment_jacobian,
    quotient_structures,
    solve_level,
)

ACTION = eguchi_hanson_action()
LEVEL = LevelSpec((1.0,))
#: omega_bar_1 on one block (v, Iv, Jv, Kv) of the horizontal frame
_E01_E23 = np.array([[0.0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, 1], [0, 0, -1, 0]])


def solved(seed_rng, level=LEVEL):
    return solve_level(ACTION, level, seed_rng.standard_normal(8))


# -- action validation ----------------------------------------------------------------


def test_action_construction_and_brackets():
    assert ACTION.dim == 8
    assert ACTION.dim_g == 1
    # the generators of a torus commute, so they close under brackets
    torus = LinearAction.from_torus_weights(
        [CircleActionSpec(k=(1, 0), l=(-1, 0)), CircleActionSpec(k=(0, 1), l=(0, -1))]
    )
    assert torus.dim_g == 2


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
        lsp = solved(rng)
        assert lsp.residual < 1e-12
        assert len(lsp.history) <= 20
        hist = lsp.history
        for r0, r1 in zip(hist, hist[1:]):
            if 1e-8 < r0 < 1e-3:
                assert r1 < 100.0 * r0**2


def test_solver_rejects_origin_at_zero_level():
    with pytest.raises(NonFreePointError):
        solve_level(ACTION, LevelSpec((0.0,)), np.zeros(8))


def test_solver_returns_immediately_on_level():
    rng = np.random.default_rng(35)
    lsp = solved(rng)
    again = solve_level(ACTION, LEVEL, lsp.point)
    assert len(again.history) == 1


def test_solver_budget_exhaustion(monkeypatch):
    rng = np.random.default_rng(36)
    monkeypatch.setattr(quotient, "_LEVEL_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        solve_level(ACTION, LEVEL, 50.0 * rng.standard_normal(8))


def test_solver_validates_shapes():
    with pytest.raises(ConfigError):
        solve_level(ACTION, LevelSpec((1.0, 1.0)), np.ones(8))
    with pytest.raises(ConfigError):
        solve_level(ACTION, LEVEL, np.ones(5))
    with pytest.raises(ConfigError):
        solve_level(ACTION, LEVEL, np.ones((3, 5)))
    with pytest.raises(ConfigError):
        solve_level(ACTION, LEVEL, np.ones((2, 3, 8)))


# -- quotient samples -----------------------------------------------------------------


def test_frames_are_orthonormal_splittings():
    rng = np.random.default_rng(37)
    lsp = solved(rng)
    vert = quotient._vertical_frame([lsp])[0]
    horiz = horizontal_frame(ACTION, lsp)
    assert vert.shape == (8, 4) and horiz.shape == (8, 4)
    assert np.max(np.abs(vert.T @ vert - np.eye(4))) < 1e-12
    assert np.max(np.abs(horiz.T @ horiz - np.eye(4))) < 1e-12
    assert np.max(np.abs(vert.T @ horiz)) < 1e-12
    # level-set tangency and orbit-orthogonality of the horizontal block
    assert np.max(np.abs(lsp.dnu.reshape(-1, 8) @ horiz)) < 1e-9
    assert np.max(np.abs(lsp.orbit.T @ horiz)) < 1e-10
    # oriented with no sign fix: omega_bar_1 = e01 + e23
    omega1 = pullback(ACTION.model.omega1, horiz).as_matrix()
    assert np.max(np.abs(omega1 - _E01_E23)) < 1e-12


def test_one_ulp_of_vertical_data_moves_the_frame_by_rounding_only():
    # no pivot or sign choice depends on the last bit of the vertical data
    points = solve_level(ACTION, LEVEL, np.random.default_rng(61).standard_normal((30, 8)))
    for lsp in points:
        for scale in (1.0 + 2e-16, 1.0 - 2e-16):
            moved = dataclasses.replace(lsp, orbit=lsp.orbit * scale, dnu=lsp.dnu * scale)
            assert np.max(np.abs(moved.frame - lsp.frame)) <= 1e-14


@pytest.mark.parametrize("weights", [(1, 0, 0), (1, 1, 1)])
def test_frames_of_dimension_eight(weights):
    # H^3 by a circle: two quaternionic blocks; (1, 0, 0) makes e_0 vertical
    action = LinearAction.from_torus_weights(
        [CircleActionSpec(k=weights, l=tuple(-w for w in weights))]
    )
    for lsp in solve_level(action, LEVEL, np.random.default_rng(62).standard_normal((6, 12))):
        frame = horizontal_frame(action, lsp)
        assert frame.shape == (12, 8)
        assert np.max(np.abs(frame.T @ frame - np.eye(8))) < 1e-12
        assert np.max(np.abs(lsp.dnu.reshape(-1, 12) @ frame)) < 1e-12
        assert np.max(np.abs(lsp.orbit.T @ frame)) < 1e-12
        for s in action.model.structures():
            s_bar = frame.T @ s @ frame
            assert np.max(np.abs(s_bar @ s_bar + np.eye(8))) < 1e-12
        omega1 = pullback(action.model.omega1, frame).as_matrix()
        assert np.max(np.abs(omega1 - np.kron(np.eye(2), _E01_E23))) < 1e-12


def test_vertical_frame_seed_is_not_free():
    lsp = solved(np.random.default_rng(63))
    seed = np.sin(np.arange(1.0, 9.0))
    bad = dataclasses.replace(lsp, orbit=seed[:, None])
    with pytest.raises(NonFreePointError):
        bad.frame


def test_quotient_hyperkahler_algebra():
    rng = np.random.default_rng(38)
    for _ in range(6):
        frame = solved(rng).frame
        metric = frame.T @ frame
        omega_bar = [pullback(w, frame) for w in ACTION.model.kahler_triple()]
        # the frame is orthonormal, so S_i = -g^{-1} omega_bar_i = -omega_bar_i
        s1, s2, s3 = (-w.as_matrix() for w in omega_bar)
        assert np.max(np.abs(s1 @ s2 - s3)) < 1e-8
        assert np.max(np.abs(s2 @ s3 - s1)) < 1e-8
        assert np.max(np.abs(s3 @ s1 - s2)) < 1e-8
        vol = np.sqrt(np.linalg.det(metric))
        for i, wi in enumerate(omega_bar):
            for j, wj in enumerate(omega_bar):
                expect = 2.0 * vol if i == j else 0.0
                assert wedge(wi, wj).comps[0] == pytest.approx(expect, abs=1e-8)
        assert np.max(np.abs(metric - np.eye(4))) < 1e-10


# -- descended circle -----------------------------------------------------------------


def test_descended_moment_is_restriction():
    rng = np.random.default_rng(39)
    lsp = solved(rng)
    x_bar, mu_bar = descended_circle_data(ACTION, eh_rotator(), lsp)
    m = lsp.point
    assert mu_bar == pytest.approx(-0.5 * np.dot(m, m))
    assert mu_bar == pytest.approx(moment_map(eh_rotator(), m))
    assert x_bar.shape == (4,)
    trivial = CircleActionSpec(k=(0, 0), l=(0, 0))
    x0, mu0 = descended_circle_data(ACTION, trivial, lsp)
    assert np.all(x0 == 0.0) and mu0 == 0.0


def test_descended_moment_equation():
    rng = np.random.default_rng(40)
    for _ in range(3):
        lsp = solved(rng)
        assert moment_descent_residual(ACTION, eh_rotator(), lsp) < 1e-7


def test_rotator_must_commute():
    # the quaternionic swap action commutes with I, J, K but not with a
    # weighted diagonal rotator
    swap = np.kron(np.array([[0.0, -1.0], [1.0, 0.0]]), np.eye(2))
    swap_action = LinearAction(
        (np.block([[swap, np.zeros((4, 4))], [np.zeros((4, 4)), swap]]),)
    )
    rng = np.random.default_rng(41)
    lsp = solve_level(swap_action, LevelSpec((0.4,)), rng.standard_normal(8))
    weighted = CircleActionSpec(k=(1, 2), l=(-1, -2))
    with pytest.raises(StructureError):
        descended_circle_data(swap_action, weighted, lsp)


# -- charts and curvature -------------------------------------------------------------


def test_chart_anchors_at_base_point():
    rng = np.random.default_rng(42)
    lsp = solved(rng)
    chart = QuotientChart(ACTION, lsp)
    assert chart.dim == 4
    assert np.max(np.abs(chart.point(np.zeros(4)) - lsp.point)) < 1e-12
    jet = chart.jet(np.zeros((1, 4)))
    assert np.max(np.abs(jet[0][0] - lsp.point)) < 1e-12
    assert np.max(np.abs(jet[1][0] - chart.frame)) < 1e-8
    assert np.max(np.abs(chart.metric(jet)[0] - np.eye(4))) < 1e-8
    with pytest.raises(ConfigError):
        chart.jet(np.zeros(4))  # one point, not a batch


def test_curvature_constructions_agree_on_samples():
    rng = np.random.default_rng(43)
    for _ in range(3):
        lsp = solved(rng)
        descended = descended_curvature(ACTION, eh_rotator(), lsp)
        canonical = canonical_bundle_curvature(ACTION, (1.0,), lsp)
        assert np.max(np.abs((descended - canonical).comps)) < 1e-5


def test_canonical_curvature_type_1_1():
    rng = np.random.default_rng(44)
    lsp = solved(rng)
    f = canonical_bundle_curvature(ACTION, (1.0,), lsp)
    chart = QuotientChart(ACTION, lsp)
    jet = chart.jet(np.zeros((1, 4)))
    for i in (1, 2, 3):
        s = chart.structure(jet, i)[0]
        assert type11_residual(f, s, structure_tol=1e-6) < 1e-5


def test_scaled_moment_map_fails_the_descent_and_curvature_checks(monkeypatch):
    # mu scaled by 1 + 1e-3: d mu_bar leaves i_{X_bar} omega_bar_1, and the
    # descended form leaves the canonical curvature by 1e-3 dd^c mu_bar
    moment = quotient.moment_field

    def scaled(spec):
        field = moment(spec)
        return ScalarField(lambda p: (1.0 + 1e-3) * field.fn(p), dim=field.dim)

    monkeypatch.setattr(quotient, "moment_field", scaled)
    cfg = suites.RunConfig(suite="quotient")
    for check_id in (
        "quotient.moment.descent",
        "quotient.curvature.match",
        "quotient.curvature.type11",
    ):
        rec = suites.run_check(cfg, check_id)
        assert not rec.passed, (check_id, rec.residual)
    # blind spot: omega_bar_1 + s dd^c mu_bar is of type (1,1) for I_bar at
    # every scale s, so the type check sees the scaling only through J_bar
    # and K_bar
    lsp = solved(np.random.default_rng(47))
    chart = QuotientChart(ACTION, lsp)
    jet = chart.jet(np.zeros((1, 4)))
    F = descended_curvature(ACTION, eh_rotator(), lsp)
    assert type11_residual(F, chart.structure(jet, 1)[0], structure_tol=1e-4) < 1e-5
    for i in (2, 3):
        assert type11_residual(F, chart.structure(jet, i)[0], structure_tol=1e-4) > 1e-5


def test_canonical_curvature_trivial_character():
    rng = np.random.default_rng(45)
    lsp = solved(rng)
    f = canonical_bundle_curvature(ACTION, (0.0,), lsp)
    assert np.all(f.comps == 0.0)


def test_canonical_curvature_flags_nonintegral_level():
    rng = np.random.default_rng(46)
    lsp = solve_level(ACTION, LevelSpec((0.75,)), rng.standard_normal(8))
    with pytest.warns(UserWarning):
        canonical_bundle_curvature(ACTION, (1.0,), lsp)


# -- multi-centre coordinates ---------------------------------------------------------


def test_gh_coordinates_match_two_center_model():
    rng = np.random.default_rng(47)
    nut_plus = np.array([1.0, 0.0, 0.0])
    for _ in range(8):
        lsp = solved(rng)
        x, v = gh_coordinates(ACTION, eh_residual_circle(), lsp)
        pred = 1.0 / np.linalg.norm(x - nut_plus) + 1.0 / np.linalg.norm(x + nut_plus)
        assert v / pred == pytest.approx(0.25, rel=1e-9)
        # quarter speed gives the unit-coefficient model with centres at +/- c/4
        x_s, v_s = gh_coordinates(
            ACTION, eh_residual_circle(), lsp, scale=GH_CIRCLE_SCALE
        )
        assert np.allclose(x_s, 0.25 * x, rtol=1e-12)
        pred_s = 1.0 / np.linalg.norm(x_s - nut_plus / 4) + 1.0 / np.linalg.norm(
            x_s + nut_plus / 4
        )
        assert v_s / pred_s == pytest.approx(1.0, rel=1e-9)


def test_gh_coordinates_scale_linearly_with_level():
    rng = np.random.default_rng(48)
    # the fixed points sit at (+/- c, 0, 0): doubled level, doubled centres
    for c in (1.0, 2.0):
        lsp = solve_level(ACTION, LevelSpec((c,)), rng.standard_normal(8))
        x, v = gh_coordinates(ACTION, eh_residual_circle(), lsp)
        nut = np.array([c, 0.0, 0.0])
        pred = 1.0 / np.linalg.norm(x - nut) + 1.0 / np.linalg.norm(x + nut)
        assert v / pred == pytest.approx(0.25, rel=1e-9)


def test_gh_coordinates_validation():
    rng = np.random.default_rng(49)
    lsp = solved(rng)
    with pytest.raises(StructureError):
        gh_coordinates(ACTION, eh_rotator(), lsp)  # not triholomorphic
    nut = np.zeros(8)
    nut[4] = np.sqrt(2.0)  # z = 0, w = (sqrt(2), 0): a fixed point of Y
    nut_lsp = solve_level(ACTION, LEVEL, nut)
    with pytest.raises(DomainError):
        gh_coordinates(ACTION, eh_residual_circle(), nut_lsp)


def test_y_length_positive_away_from_fixed_points():
    rng = np.random.default_rng(50)
    for _ in range(5):
        _, v = gh_coordinates(ACTION, eh_residual_circle(), solved(rng))
        assert v > 0.0


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


def test_batch_solve_rows_equal_single_seed_solves():
    seeds = np.random.default_rng(58).standard_normal((16, 8))
    batch = solve_level(ACTION, LEVEL, seeds)
    assert isinstance(batch, list) and len(batch) == 16
    for seed, lsp in zip(seeds, batch):
        alone = solve_level(ACTION, LEVEL, seed)
        for name in ("point", "dnu", "orbit", "residual", "history"):
            assert np.array_equal(getattr(lsp, name), getattr(alone, name)), name
        # the SVD step is the least-squares step: same path, rounding apart
        want, history = _lstsq_newton(seed, LEVEL)
        assert len(lsp.history) == len(history)
        assert np.max(np.abs(lsp.point - want)) < 1e-13


def test_batch_gh_coordinates_equal_single_calls():
    points = solve_level(ACTION, LEVEL, np.random.default_rng(59).standard_normal((12, 8)))
    xs, vs = gh_coordinates(ACTION, eh_residual_circle(), points, scale=GH_CIRCLE_SCALE)
    assert xs.shape == (12, 3) and vs.shape == (12,)
    for row, lsp in enumerate(points):
        x, v = gh_coordinates(ACTION, eh_residual_circle(), lsp, scale=GH_CIRCLE_SCALE)
        assert isinstance(v, float)
        assert np.array_equal(xs[row], x) and vs[row] == v


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
        gh_coordinates(ACTION, eh_residual_circle(), points)


def test_quotient_samplers_batch_their_seeds(monkeypatch):
    # each sampled level costs one solve and one projection, whatever the
    # sample count, and the Newton steps come from the SVD, not lstsq
    calls = {"solve_level": 0, "gh_coordinates": 0, "lstsq": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    for name in ("solve_level", "gh_coordinates"):
        monkeypatch.setattr(quotient, name, counted(name, getattr(quotient, name)))
    monkeypatch.setattr(np.linalg, "lstsq", counted("lstsq", np.linalg.lstsq))
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
    rng = np.random.default_rng(52)
    lsp = solved(rng)
    chart = QuotientChart(ACTION, lsp)
    xi = 0.05 * rng.standard_normal((24, 4))
    batch = chart.point(xi)
    assert batch.shape == (24, 8)
    target = LEVEL.target()
    for row, x in enumerate(xi):
        assert np.max(np.abs(batch[row] - chart.point(x))) < 1e-13
        assert np.linalg.norm(hk_moment(ACTION, batch[row]) - target) < 1e-14


def test_chart_retraction_budget_exhaustion(monkeypatch):
    rng = np.random.default_rng(53)
    chart = QuotientChart(ACTION, solved(rng))
    monkeypatch.setattr(quotient, "_CHART_MAX_ITER", 1)
    with pytest.raises(ConvergenceError):
        chart.point(np.full((3, 4), 0.1))


def test_shared_stencil_matches_fd_over_batched_point():
    rng = np.random.default_rng(54)
    chart = QuotientChart(ACTION, solved(rng))
    scheme = quotient._CHART_TANGENT_SCHEME
    mu = moment_field(eh_rotator())
    for xi in (np.zeros(4), 1e-3 * rng.standard_normal(4)):
        points, tangents, stencil = jet = chart.jet(xi[None, :])
        want = fd_jacobian(chart.point, xi, scheme)
        assert np.max(np.abs(tangents[0] - want)) < 1e-12
        grad = fd_gradient(lambda y: mu(chart.point(y)), xi, scheme)
        from_jet = chart.gradient(jet, mu)[0]
        assert np.max(np.abs(from_jet - grad)) < 1e-12
        fd_metric = chart.metric((points, want[None], stencil))
        assert np.max(np.abs(chart.metric(jet) - fd_metric)) < 1e-12


def test_chart_jet_rows_match_single_rows():
    # every quantity built from a jet is array code over the batch: a row
    # of a 16-row batch has the bits of that chart point taken alone
    rng = np.random.default_rng(58)
    chart = QuotientChart(ACTION, solved(rng))
    xi = 0.05 * rng.standard_normal((16, 4))
    jet = chart.jet(xi)
    stencil_rows = len(jet[2]) // len(xi)
    assert jet[0].shape == (16, 8) and jet[1].shape == (16, 8, 4)
    batch = {
        "metric": chart.metric(jet),
        "structure": np.stack([chart.structure(jet, i) for i in (1, 2, 3)], axis=1),
        "theta": chart.theta(jet, (1.0,)),
    }
    for row in range(len(xi)):
        alone = chart.jet(xi[row : row + 1])
        assert np.array_equal(jet[0][row], alone[0][0])
        assert np.array_equal(jet[1][row], alone[1][0])
        # stencil rows are laid out [offset][row][coordinate]
        per_row = jet[2].reshape(-1, len(xi), 4, 8)[:, row].reshape(stencil_rows, 8)
        assert np.array_equal(per_row, alone[2])
        assert np.array_equal(batch["metric"][row], chart.metric(alone)[0])
        structures = np.stack([chart.structure(alone, i)[0] for i in (1, 2, 3)])
        assert np.array_equal(batch["structure"][row], structures)
        assert np.array_equal(batch["theta"][row], chart.theta(alone, (1.0,))[0])


def test_descended_curvature_retraction_count(monkeypatch):
    # one jet at the base point (xi and its 16-point tangent stencil) and
    # one jet of all 16 outer dd^c points with their stencils; a check
    # retracts those of all its level-set points in the same few calls
    rows = []
    retract = QuotientChart.point

    def counting(self, xi):
        rows.append(np.asarray(xi).reshape(-1, self.dim).shape[0])
        return retract(self, xi)

    monkeypatch.setattr(QuotientChart, "point", counting)
    lsp = solved(np.random.default_rng(55))
    descended_curvature(ACTION, eh_rotator(), lsp)
    assert len(rows) <= 2
    assert sum(rows) <= 17 + 16 * 17
    cfg = suites.RunConfig(suite="quotient", samples=40)
    for check_id, most in (
        ("quotient.curvature.match", 3),
        ("quotient.curvature.type11", 3),
        ("quotient.moment.descent", 1),
    ):
        rows.clear()
        assert suites.run_check(cfg, check_id).passed
        assert 1 <= len(rows) <= most, (check_id, len(rows))


def test_level_set_point_builds_its_frame_once():
    lsp = solved(np.random.default_rng(56))
    frame = horizontal_frame(ACTION, lsp)
    assert QuotientChart(ACTION, lsp).frame is frame
    assert not frame.flags.writeable


# -- chart batches ----------------------------------------------------------------------


def _fresh(points):
    """Copies of level-set points that have not built their frames yet."""
    return [dataclasses.replace(lsp) for lsp in points]


H3 = LinearAction.from_torus_weights([CircleActionSpec(k=(1, 1, 1), l=(-1, -1, -1))])


@pytest.mark.parametrize("action", [ACTION, H3], ids=["H2", "H3"])
def test_batch_frames_equal_frames_built_alone(action):
    rng = np.random.default_rng(70)
    points = solve_level(action, LEVEL, rng.standard_normal((6, action.dim)))
    chart = QuotientChart(action, points)  # one batched build of six frames
    assert chart.frame.shape == (6, action.dim, action.dim - 4)
    for row, lsp in enumerate(points):
        alone = dataclasses.replace(lsp).frame
        assert np.array_equal(chart.frame[row], alone)
        # each point keeps its row as its own cached, read-only frame
        assert lsp.frame is lsp.frame and not lsp.frame.flags.writeable
        assert np.array_equal(lsp.frame, alone)


def test_batch_curvatures_equal_single_point_calls():
    rng = np.random.default_rng(71)
    points = solve_level(ACTION, LEVEL, rng.standard_normal((6, 8)))
    rotator = eh_rotator()
    descended = descended_curvature(ACTION, rotator, points)
    canonical = canonical_bundle_curvature(ACTION, (1.0,), points)
    descent = moment_descent_residual(ACTION, rotator, points)
    structures = quotient_structures(ACTION, points)
    x_bars, mu_bars = descended_circle_data(ACTION, rotator, points)
    assert descended.shape == canonical.shape == (6, 6)
    assert descent.shape == (6,) and structures.shape == (6, 3, 4, 4)
    for row, lsp in enumerate(_fresh(points)):
        assert np.array_equal(descended[row], descended_curvature(ACTION, rotator, lsp).comps)
        assert np.array_equal(canonical[row], canonical_bundle_curvature(ACTION, (1.0,), lsp).comps)
        assert descent[row] == moment_descent_residual(ACTION, rotator, lsp)
        assert np.array_equal(structures[row], quotient_structures(ACTION, lsp))
        x_bar, mu_bar = descended_circle_data(ACTION, rotator, lsp)
        assert np.array_equal(x_bars[row], x_bar) and mu_bars[row] == mu_bar
    assert np.all(canonical_bundle_curvature(ACTION, (0.0,), points) == 0.0)
    with pytest.raises(ConfigError):
        descended_curvature(ACTION, rotator, [])


def test_chart_batch_anchors_at_its_base_points():
    rng = np.random.default_rng(73)
    points = solve_level(ACTION, LEVEL, rng.standard_normal((5, 8)))
    chart = QuotientChart(ACTION, points)
    base = np.array([lsp.point for lsp in points])
    assert np.max(np.abs(chart.point(np.zeros((5, 4))) - base)) < 1e-12
    points_, tangents, stencil = jet = chart.jet(np.zeros((5, 1, 4)))
    assert points_.shape == (5, 1, 8) and tangents.shape == (5, 1, 8, 4)
    assert stencil.shape == (5, 16, 8)
    assert np.max(np.abs(tangents[:, 0] - chart.frame)) < 1e-8
    assert np.max(np.abs(chart.metric(jet) - np.eye(4))) < 1e-8
    for bad in (np.zeros((4, 1, 4)), np.zeros((1, 4)), np.zeros((5, 1, 3))):
        with pytest.raises(ConfigError):
            chart.jet(bad)
    with pytest.raises(ConfigError):
        chart.point(np.zeros(4))  # one chart point for a chart of five


def test_chart_batches_go_in_chunks_with_the_same_results(monkeypatch):
    rng = np.random.default_rng(74)
    points = solve_level(ACTION, LEVEL, rng.standard_normal((6, 8)))
    rotator = eh_rotator()

    def results():
        return (
            descended_curvature(ACTION, rotator, _fresh(points)),
            canonical_bundle_curvature(ACTION, (1.0,), _fresh(points)),
            moment_descent_residual(ACTION, rotator, _fresh(points)),
            quotient_structures(ACTION, _fresh(points)),
        )

    whole = results()
    charts = []
    retract = QuotientChart.point

    def counting(self, xi):
        charts.append(len(self.frame))
        return retract(self, xi)

    monkeypatch.setattr(QuotientChart, "point", counting)
    # a point's nested curvature stencil retracts 16 outer points with 16
    # tangent points each, 272 rows, so a bound of 544 makes chunks of two
    monkeypatch.setattr(forms, "MAX_STENCIL_VALUES", 544)
    chunked = results()
    assert set(charts) == {2}
    for want, got in zip(whole, chunked):
        assert np.array_equal(want, got)


def test_chart_batch_memory_stays_flat_as_points_grow():
    # 100 level-set points go in chunks of 15 (4096 retracted rows at 272
    # per point): the check peaks near 3 MB, as at 60 points; one chart
    # batch of all 100 would peak near 18 MB
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
    points = solve_level(ACTION, LevelSpec((0.75,)), rng.standard_normal((4, 8)))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        canonical_bundle_curvature(ACTION, (1.0,), points)
    assert [w.category for w in caught] == [UserWarning]


# -- two-centre fit and the separation check --------------------------------------------


def test_two_center_fit_recovers_a_level_it_is_not_told():
    rng = np.random.default_rng(57)
    for c in (0.7, 3.1):
        xs, vs = suites._gh_samples(ACTION, eh_residual_circle(), c, rng, 12)
        sep, resid = suites.fit_two_centers(xs, vs)
        assert sep == pytest.approx(c / 2.0, rel=1e-9)
        assert resid < 1e-9


@pytest.mark.parametrize("seed", range(16))
def test_separation_check_passes_with_one_sample(seed):
    # the six-parameter fit draws at least six samples per level
    cfg = suites.RunConfig(suite="quotient", samples=1, seed=seed)
    sep = suites.run_check(cfg, "quotient.gh.separation")
    assert sep.passed, sep.residual


def test_separation_check_fails_on_a_wrong_potential(monkeypatch):
    # at the doubled level the samples follow centres at +/- c/3, not c/4
    samples = suites._gh_samples

    def wrong_at_doubled_level(action, rotator, level_value, rng, count):
        xs, vs = samples(action, rotator, level_value, rng, count)
        if level_value == 2.0:
            a = np.array([level_value / 3.0, 0.0, 0.0])
            vs = 1.0 / np.linalg.norm(xs - a, axis=1) + 1.0 / np.linalg.norm(xs + a, axis=1)
        return xs, vs

    monkeypatch.setattr(suites, "_gh_samples", wrong_at_doubled_level)
    cfg = suites.RunConfig(suite="quotient", samples=8)
    sep = suites.run_check(cfg, "quotient.gh.separation")
    assert sep.residual > 1e-4 and not sep.passed
