"""Tests for the linear hyperkahler quotient machinery."""

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
from hkgeom import quotient, suites
from hkgeom.flatspace import CircleActionSpec, action_generator, moment_field, moment_map
from hkgeom.forms import (
    FDScheme,
    fd_gradient,
    fd_jacobian,
    type11_residual,
    wedge,
)
from hkgeom.quotient import (
    GH_CIRCLE_SCALE,
    LevelSetPoint,
    LevelSpec,
    LinearAction,
    QuotientChart,
    QuotientSample,
    canonical_bundle_curvature,
    coadjoint_residual,
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
    quotient_sample,
    solve_level,
    vertical_frame,
)

ACTION = eguchi_hanson_action()
LEVEL = LevelSpec((1.0,))


def solved(seed_rng, level=LEVEL):
    return solve_level(ACTION, level, seed_rng.standard_normal(8))


# -- action validation ----------------------------------------------------------------


def test_action_construction_and_brackets():
    assert ACTION.dim == 8
    assert ACTION.dim_g == 1
    assert np.all(ACTION.structure_constants == 0.0)


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
    assert coadjoint_residual(ACTION, LEVEL) == 0.0


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


def test_solver_budget_exhaustion():
    rng = np.random.default_rng(36)
    with pytest.raises(ConvergenceError):
        solve_level(ACTION, LEVEL, 50.0 * rng.standard_normal(8), max_iter=1)


def test_solver_validates_shapes():
    with pytest.raises(ConfigError):
        solve_level(ACTION, LevelSpec((1.0, 1.0)), np.ones(8))
    with pytest.raises(ConfigError):
        solve_level(ACTION, LEVEL, np.ones(5))


# -- quotient samples -----------------------------------------------------------------


def test_frames_are_orthonormal_splittings():
    rng = np.random.default_rng(37)
    lsp = solved(rng)
    vert = vertical_frame(ACTION, lsp)
    horiz = horizontal_frame(ACTION, lsp)
    assert vert.shape == (8, 4) and horiz.shape == (8, 4)
    assert np.max(np.abs(vert.T @ vert - np.eye(4))) < 1e-12
    assert np.max(np.abs(horiz.T @ horiz - np.eye(4))) < 1e-12
    assert np.max(np.abs(vert.T @ horiz)) < 1e-12
    # level-set tangency and orbit-orthogonality of the horizontal block
    assert np.max(np.abs(lsp.dnu.reshape(-1, 8) @ horiz)) < 1e-9
    assert np.max(np.abs(lsp.orbit.T @ horiz)) < 1e-10


def test_quotient_hyperkahler_algebra():
    rng = np.random.default_rng(38)
    for _ in range(6):
        sample = quotient_sample(ACTION, solved(rng))
        s1, s2, s3 = sample.structures
        eye = np.eye(4)
        assert np.max(np.abs(s1 @ s2 - s3)) < 1e-8
        assert np.max(np.abs(s2 @ s3 - s1)) < 1e-8
        assert np.max(np.abs(s3 @ s1 - s2)) < 1e-8
        vol = np.sqrt(np.linalg.det(sample.metric))
        for i, wi in enumerate(sample.omega_bar):
            for j, wj in enumerate(sample.omega_bar):
                expect = 2.0 * vol if i == j else 0.0
                assert wedge(wi, wj).comps[0] == pytest.approx(expect, abs=1e-8)
        assert np.max(np.abs(sample.metric - eye)) < 1e-10


def test_quotient_sample_validates_structures():
    with pytest.raises(StructureError):
        QuotientSample(
            frame=np.eye(4),
            metric=np.eye(4),
            omega_bar=(),
            structures=(np.zeros((4, 4)),),
        )


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
    assert np.max(np.abs(chart.tangents(np.zeros(4)) - chart.frame)) < 1e-8
    assert np.max(np.abs(chart.metric(np.zeros(4)) - np.eye(4))) < 1e-8


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
    for i in (1, 2, 3):
        s = chart.structure(np.zeros(4), i)
        assert type11_residual(f, s, structure_tol=1e-6) < 1e-5


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
        want = fd_jacobian(chart.point, xi, scheme)
        assert np.max(np.abs(chart.tangents(xi) - want)) < 1e-12
        grad = fd_gradient(lambda y: mu(chart.point(y)), xi, scheme)
        assert np.max(np.abs(chart.scalar_gradient(mu, xi, scheme) - grad)) < 1e-12
        assert np.max(np.abs(chart.metric(xi) - chart.metric(xi, want))) < 1e-12


def test_descended_curvature_retraction_count(monkeypatch):
    # one batch (xi and its 16-point tangent stencil) at the base point and
    # at each of the 16 outer dd^c points; the unbatched chart retracted
    # 545 single points
    rows = []
    retract = QuotientChart.point

    def counting(self, xi):
        rows.append(np.atleast_2d(xi).shape[0])
        return retract(self, xi)

    monkeypatch.setattr(QuotientChart, "point", counting)
    lsp = solved(np.random.default_rng(55))
    descended_curvature(ACTION, eh_rotator(), lsp)
    assert len(rows) <= 17
    assert sum(rows) <= 17 * 17


def test_level_set_point_builds_its_frame_once():
    lsp = solved(np.random.default_rng(56))
    frame = horizontal_frame(ACTION, lsp)
    assert QuotientChart(ACTION, lsp).frame is frame
    assert quotient_sample(ACTION, lsp).frame is frame
    assert not frame.flags.writeable


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
