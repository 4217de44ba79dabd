"""Tests for the multi-centre circle-fibred hyperkahler spaces."""

import numpy as np
import pytest

from hkgeom.errors import ConfigError, DomainError
from hkgeom.forms import (
    FDScheme,
    FormField,
    FormValue,
    ScalarField,
    ext_deriv,
    fd_gradient,
    hodge_star,
    interior_product,
    laplacian,
    pullback,
    wedge,
)
from hkgeom.gibbonshawking import (
    GHConfig,
    GHPoint,
    MonopoleData,
    ahat_curvature,
    alpha_field,
    asd_residual,
    axis_profiles,
    center_clearance,
    chart_clearance,
    connection_Ahat,
    f_segment_values,
    gauge_transition_jacobian,
    gh_alpha,
    gh_kahler_triple,
    gh_metric,
    gh_potential,
    iY_residual,
    kahler_field,
    lift_gradient,
    lift_identity_residual,
    monopole_A,
    monopole_phi,
    phi_identity_residual,
    potential_gradient,
    rotation_lift_f,
    sphere_period,
)

TWO = GHConfig(centers=(0.0, 1.0))
THREE = GHConfig(centers=(0.0, 2.0, 3.0))


def sample_points(cfg, count, rng, min_clear=0.4, box=2.5):
    """Random base points with clearance from the centres and the axis."""
    clear = chart_clearance(cfg)
    pts = []
    while len(pts) < count:
        x = rng.uniform(-box, box, size=3)
        x[0] = rng.uniform(cfg.centers[0] - 1.5, cfg.centers[-1] + 1.5)
        if clear(np.array([*x, 0.0])) > min_clear:
            pts.append(x)
    return pts


# -- configuration and domain guards ----------------------------------------------


def test_config_validation():
    with pytest.raises(ConfigError):
        GHConfig(centers=())
    with pytest.raises(ConfigError):
        GHConfig(centers=(1.0, 1.0))
    with pytest.raises(ConfigError):
        GHConfig(centers=(2.0, 1.0))
    with pytest.raises(ConfigError):
        GHConfig(centers=(0.0, 1.0), weights=(1.0,))
    with pytest.raises(ConfigError):
        GHConfig(centers=(0.0,), weights=(-1.0,))
    for bad in (
        {"centers": (0.0, np.nan)},
        {"centers": (0.0, np.inf)},
        {"centers": (0.0,), "weights": (np.inf,)},
        {"centers": (0.0,), "weights": (np.nan,)},
        {"centers": (0.0,), "c": np.nan},
    ):
        with pytest.raises(ConfigError):
            GHConfig(**bad)
    cfg = GHConfig(centers=(0.0, 2.0, 3.0))
    assert cfg.spacings == (2.0, 1.0)
    assert cfg.dirac_charges == (3.0, 1.0, 0.0)


def test_point_validation():
    with pytest.raises(ConfigError):
        GHPoint((0.0, 0.0), 0.0)
    with pytest.raises(ConfigError):
        GHPoint((1.0, 1.0, 0.0), 0.0, gauge="sideways")
    pt = GHPoint((1.0, 1.0, 0.0), 0.25)
    assert pt.string_sign == -1.0
    assert np.allclose(pt.chart, [1.0, 1.0, 0.0, 0.25])


def test_domain_guards():
    with pytest.raises(DomainError):
        gh_potential(TWO, np.array([0.0, 0.0, 0.0]))
    with pytest.raises(DomainError):
        gh_alpha(TWO, GHPoint((0.5, 1e-5, 0.0), 0.0))


# -- potential and connection alpha --------------------------------------------------


def test_potential_single_center_unit_distance():
    cfg = GHConfig(centers=(0.0,))
    assert gh_potential(cfg, np.array([0.0, 0.0, 1.0])) == pytest.approx(1.0)


def test_potential_gradient_and_harmonicity():
    rng = np.random.default_rng(7)
    field = ScalarField(
        lambda x: gh_potential(THREE, x), 3, clearance=center_clearance(THREE)
    )
    scheme = FDScheme(h=1e-3, order=4)
    for x in sample_points(THREE, 8, rng):
        fd = fd_gradient(lambda q: gh_potential(THREE, q), x, scheme)
        assert np.max(np.abs(fd - potential_gradient(THREE, x))) < 1e-8
        assert abs(laplacian(field, x, scheme)) < 1e-6


def test_monopole_phi_harmonic():
    rng = np.random.default_rng(8)
    field = ScalarField(
        lambda x: monopole_phi(THREE, x), 3, clearance=center_clearance(THREE)
    )
    scheme = FDScheme(h=1e-3, order=4)
    for x in sample_points(THREE, 6, rng):
        assert abs(laplacian(field, x, scheme)) < 1e-6


@pytest.mark.parametrize("gauge", ["string-down", "string-up"])
def test_alpha_solves_star_dV(gauge):
    rng = np.random.default_rng(9)
    cfg = TWO
    field = alpha_field(cfg, gauge)
    scheme = FDScheme(h=1e-3, order=4)
    for x in sample_points(cfg, 12, rng):
        dalpha = ext_deriv(field, x, scheme)
        dv = FormValue(1, 3, potential_gradient(cfg, x))
        star_dv = hodge_star(np.eye(3), 1, dv)
        assert np.max(np.abs((dalpha - star_dv).comps)) < 1e-6


def test_monopole_pair_dA_star_dphi():
    rng = np.random.default_rng(10)
    cfg = THREE
    data = MonopoleData.from_config(cfg)
    a_field = FormField(data.A, 1, 3, clearance=chart_clearance(cfg))
    scheme = FDScheme(h=1e-3, order=4)
    for x in sample_points(cfg, 10, rng):
        da = ext_deriv(a_field, x, scheme)
        dphi = FormValue(1, 3, fd_gradient(data.phi, x, scheme))
        star_dphi = hodge_star(np.eye(3), 1, dphi)
        assert np.max(np.abs((da - star_dphi).comps)) < 1e-6


def test_phi_gauge_identity_and_integrality():
    rng = np.random.default_rng(11)
    for x in sample_points(THREE, 10, rng):
        assert phi_identity_residual(THREE, x) < 1e-12
    assert all(q == round(q) for q in THREE.dirac_charges)


# -- rotation lift -------------------------------------------------------------------


def test_lift_gradient_matches_fd():
    rng = np.random.default_rng(12)
    scheme = FDScheme(h=1e-3, order=4)
    for x in sample_points(THREE, 8, rng):
        fd = fd_gradient(lambda q: rotation_lift_f(THREE, q), x, scheme)
        assert np.max(np.abs(fd - lift_gradient(THREE, x))) < 1e-8


def test_lift_identity_closed_form():
    rng = np.random.default_rng(13)
    for x in sample_points(THREE, 10, rng):
        assert lift_identity_residual(THREE, x) < 1e-13


def test_lift_identity_via_forms():
    # df + i_X(*dV) = 0 for the axis rotation X = (0, -x3, x2)
    rng = np.random.default_rng(14)
    for x in sample_points(TWO, 6, rng):
        dv = FormValue(1, 3, potential_gradient(TWO, x))
        star_dv = hodge_star(np.eye(3), 1, dv)
        rot = np.array([0.0, -x[2], x[1]])
        contracted = interior_product(rot, star_dv)
        assert np.max(np.abs(lift_gradient(TWO, x) + contracted.comps)) < 1e-13


def test_lift_constant_on_axis_segments():
    cfg = GHConfig(centers=(0.0, 1.0, 3.0, 4.0))
    expected = f_segment_values(cfg)
    probes = [
        (-2.0, -1.0, 0),
        (0.2, 0.8, 1),
        (1.5, 2.5, 2),
        (3.3, 3.7, 3),
        (4.5, 6.0, 4),
    ]
    for lo, hi, seg in probes:
        for x1 in np.linspace(lo, hi, 5):
            val = rotation_lift_f(cfg, np.array([x1, 0.0, 0.0]))
            assert val == expected[seg]


def test_lift_trivial_above_top_and_middle_zero():
    cfg = GHConfig(centers=(0.0, 1.0, 3.0, 4.0), c=0.25)
    # above the top centre every term is +1
    assert rotation_lift_f(cfg, np.array([9.0, 0.0, 0.0])) == 4.0 + 0.25
    # even number of centres, c = 0: the middle segment is exactly zero
    for count in (2, 4, 6):
        centers = tuple(float(i) for i in range(count))
        mid = (centers[count // 2 - 1] + centers[count // 2]) / 2.0
        even_cfg = GHConfig(centers=centers)
        assert rotation_lift_f(even_cfg, np.array([mid, 0.0, 0.0])) == 0.0
    # odd number of centres: the same segment value is nonzero
    odd_cfg = GHConfig(centers=(0.0, 1.0, 2.0))
    assert rotation_lift_f(odd_cfg, np.array([0.5, 0.0, 0.0])) == -1.0


# -- metric and Kahler triple ---------------------------------------------------------


def test_metric_determinant_and_forms_algebra():
    rng = np.random.default_rng(15)
    for x in sample_points(TWO, 6, rng):
        pt = GHPoint(tuple(x), rng.uniform(0, 2 * np.pi))
        g = gh_metric(TWO, pt)
        v = gh_potential(TWO, x)
        assert np.linalg.det(g) == pytest.approx(v**2, rel=1e-10)
        triple = gh_kahler_triple(TWO, pt)
        for i, wi in enumerate(triple):
            for j, wj in enumerate(triple):
                prod = wedge(wi, wj).comps[0]
                expect = 2.0 * v if i == j else 0.0
                assert prod == pytest.approx(expect, abs=1e-12)
        for wi in triple:
            star = hodge_star(g, 1, wi)
            assert np.max(np.abs((star - wi).comps)) < 1e-10


@pytest.mark.parametrize("i", [1, 2, 3])
def test_kahler_forms_closed(i):
    rng = np.random.default_rng(16 + i)
    scheme = FDScheme(h=1e-3, order=4)
    field = kahler_field(TWO, i)
    for x in sample_points(TWO, 5, rng, min_clear=0.5):
        p = np.array([*x, rng.uniform(0, 2 * np.pi)])
        dw = ext_deriv(field, p, scheme)
        assert np.max(np.abs(dw.comps)) < 1e-6


# -- anti-self-dual connection --------------------------------------------------------


def test_ahat_anti_self_dual():
    rng = np.random.default_rng(21)
    for x in sample_points(TWO, 10, rng, min_clear=0.45):
        pt = GHPoint(tuple(x), rng.uniform(0, 2 * np.pi))
        assert asd_residual(TWO, pt) < 1e-5


def test_ahat_anti_self_dual_three_centers():
    rng = np.random.default_rng(22)
    for x in sample_points(THREE, 4, rng, min_clear=0.5):
        pt = GHPoint(tuple(x), 0.0)
        assert asd_residual(THREE, pt) < 1e-5


def test_iY_contraction_of_curvature():
    rng = np.random.default_rng(23)
    for x in sample_points(TWO, 6, rng, min_clear=0.45):
        pt = GHPoint(tuple(x), rng.uniform(0, 2 * np.pi))
        assert iY_residual(TWO, pt) < 1e-5


def test_gauge_shift_leaves_curvature():
    rng = np.random.default_rng(24)
    for x in sample_points(TWO, 4, rng, min_clear=0.5):
        pt = GHPoint(tuple(x), 0.1)
        f0 = ahat_curvature(TWO, pt)
        f1 = ahat_curvature(TWO, pt, gauge_shift=0.7)
        assert np.max(np.abs((f1 - f0).comps)) < 1e-8


def test_string_gauges_agree_after_transition():
    rng = np.random.default_rng(25)
    for x in sample_points(TWO, 4, rng, min_clear=0.5):
        f_down = ahat_curvature(TWO, GHPoint(tuple(x), 0.2, "string-down"))
        f_up = ahat_curvature(TWO, GHPoint(tuple(x), 0.2, "string-up"))
        jac = gauge_transition_jacobian(TWO, x, "string-down", "string-up")
        moved = pullback(f_up, jac)
        assert np.max(np.abs((moved - f_down).comps)) < 1e-8


def test_ahat_components():
    pt = GHPoint((0.4, 0.8, -0.3), 0.0)
    v = gh_potential(TWO, pt.x)
    phi = monopole_phi(TWO, pt.x)
    ahat = connection_Ahat(TWO, pt)
    assert ahat.comps[3] == pytest.approx(-phi / v)
    expected_x = monopole_A(TWO, pt).comps - (phi / v) * gh_alpha(TWO, pt).comps
    assert np.allclose(ahat.comps[:3], expected_x)


# -- periods and profiles -------------------------------------------------------------


def test_sphere_periods():
    assert sphere_period(TWO, 1) == pytest.approx(2 * np.pi, rel=1e-6)
    assert sphere_period(THREE, 1) == pytest.approx(4 * np.pi, rel=1e-6)
    assert sphere_period(THREE, 2) == pytest.approx(2 * np.pi, rel=1e-6)
    with pytest.raises(ConfigError):
        sphere_period(TWO, 0)
    with pytest.raises(ConfigError):
        sphere_period(TWO, 2)


def test_sphere_period_degenerates_with_segment():
    eps = 1e-4
    tiny = GHConfig(centers=(0.0, eps))
    assert abs(sphere_period(tiny, 1)) < 2 * np.pi * eps * 1.01


def test_axis_profiles():
    xs = np.array([-1.0, 0.5, 4.0])
    prof = axis_profiles(THREE, xs)
    assert set(prof) == {"x1", "V", "f", "phi"}
    assert prof["V"][0] == pytest.approx(1.0 + 1.0 / 3.0 + 0.25)
    with pytest.raises(DomainError):
        axis_profiles(THREE, np.array([2.0]))
