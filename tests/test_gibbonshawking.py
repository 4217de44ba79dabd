"""Tests for the multi-centre circle-fibred hyperkahler spaces."""

import numpy as np
import pytest

from hkgeom.errors import ConfigError, DomainError
from hkgeom.suites import RunConfig, run_check
from hkgeom import gibbonshawking
from hkgeom.forms import (
    FDScheme,
    FormField,
    ScalarField,
    _as_matrices,
    ext_deriv,
    fd_gradient,
    hodge_star,
    laplacian,
)
from hkgeom.gibbonshawking import (
    GHConfig,
    MonopoleData,
    ahat_curvature,
    ahat_field,
    alpha_field,
    asd_residual,
    axis_profiles,
    chart_clearance,
    f_segment_values,
    gh_metric,
    gh_potential,
    kahler_field,
    lift_gradient,
    lift_identity_residual,
    monopole_phi,
    potential_gradient,
    rotation_lift_f,
    sphere_period,
)

TWO = GHConfig(centers=(0.0, 1.0))
THREE = GHConfig(centers=(0.0, 2.0, 3.0))


def sample_points(cfg, count, rng, min_clear=0.4, box=2.5):
    """Random base points (count, 3) with clearance from the centres and the axis."""
    clear = chart_clearance(cfg)
    pts = []
    while len(pts) < count:
        x = rng.uniform(-box, box, size=3)
        x[0] = rng.uniform(cfg.centers[0] - 1.5, cfg.centers[-1] + 1.5)
        if clear(x[None])[0] > min_clear:
            pts.append(x)
    return np.array(pts)


def chart_points(xs, thetas):
    """Chart points (k, 4) from base points (k, 3) and fibre angles (k,)."""
    return np.column_stack([xs, np.broadcast_to(thetas, len(xs))])


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
    # points are (k, 3) base or (k, 4) chart batches; the gauge is checked by name
    with pytest.raises(ConfigError, match=r"\(k, 3\)"):
        gh_potential(TWO, np.array([1.0, 1.0, 0.0]))
    with pytest.raises(ConfigError, match=r"\(k, 4\)"):
        gh_metric(TWO, np.array([[1.0, 1.0, 0.0]]), "string-down")
    with pytest.raises(ConfigError):
        gh_metric(TWO, np.array([[1.0, 1.0, 0.0, 0.25]]), "sideways")
    assert gh_metric(TWO, np.array([[1.0, 1.0, 0.0, 0.25]]), "string-up").shape == (1, 4, 4)


def test_domain_guards():
    with pytest.raises(DomainError):
        gh_potential(TWO, np.array([[0.0, 0.0, 0.0]]))
    with pytest.raises(DomainError):
        alpha_field(TWO)(np.array([[0.5, 1e-5, 0.0]]))


# -- potential and connection alpha --------------------------------------------------


def test_potential_single_center_unit_distance():
    cfg = GHConfig(centers=(0.0,))
    assert gh_potential(cfg, np.array([[0.0, 0.0, 1.0]]))[0] == pytest.approx(1.0)


def test_potential_gradient_and_harmonicity():
    rng = np.random.default_rng(7)
    field = ScalarField(
        lambda x: gh_potential(THREE, x), 3, clearance=chart_clearance(THREE)
    )
    scheme = FDScheme(h=1e-3, order=4)
    xs = sample_points(THREE, 8, rng)
    fd = fd_gradient(lambda q: gh_potential(THREE, q), xs, scheme)
    assert np.max(np.abs(fd - potential_gradient(THREE, xs))) < 1e-8
    assert np.max(np.abs(laplacian(field, xs, scheme))) < 1e-6


def test_monopole_phi_harmonic():
    rng = np.random.default_rng(8)
    field = ScalarField(
        lambda x: monopole_phi(THREE, x), 3, clearance=chart_clearance(THREE)
    )
    scheme = FDScheme(h=1e-3, order=4)
    assert np.max(np.abs(laplacian(field, sample_points(THREE, 6, rng), scheme))) < 1e-6


@pytest.mark.parametrize("gauge", ["string-down", "string-up"])
def test_alpha_solves_star_dV(gauge):
    rng = np.random.default_rng(9)
    cfg = TWO
    field = alpha_field(cfg, gauge)
    scheme = FDScheme(h=1e-3, order=4)
    xs = sample_points(cfg, 12, rng)
    star_dv = hodge_star(np.eye(3), 1, potential_gradient(cfg, xs), 1)
    for dalpha, star in zip(ext_deriv(field, xs, scheme), star_dv):
        assert np.max(np.abs(dalpha - star)) < 1e-6


def test_monopole_pair_dA_star_dphi():
    rng = np.random.default_rng(10)
    cfg = THREE
    data = MonopoleData.from_config(cfg)
    a_field = FormField(data.A, 1, 3, clearance=chart_clearance(cfg))
    scheme = FDScheme(h=1e-3, order=4)
    xs = sample_points(cfg, 10, rng)
    star_dphi = hodge_star(np.eye(3), 1, fd_gradient(data.phi, xs, scheme), 1)
    for da, star in zip(ext_deriv(a_field, xs, scheme), star_dphi):
        assert np.max(np.abs(da - star)) < 1e-6


def test_phi_gauge_identity_and_integrality():
    rng = np.random.default_rng(11)
    xs = sample_points(THREE, 10, rng)
    # the two monopole displays differ by the gauge shift with constant a_top
    v = gh_potential(THREE, xs)
    alt = -xs[:, 0] * v + rotation_lift_f(THREE, xs) + THREE.top * v
    assert np.max(np.abs(monopole_phi(THREE, xs) - alt)) < 1e-12
    assert all(q == round(q) for q in THREE.dirac_charges)


# -- rotation lift -------------------------------------------------------------------


def test_lift_gradient_matches_fd():
    rng = np.random.default_rng(12)
    scheme = FDScheme(h=1e-3, order=4)
    xs = sample_points(THREE, 8, rng)
    fd = fd_gradient(lambda q: rotation_lift_f(THREE, q), xs, scheme)
    assert np.max(np.abs(fd - lift_gradient(THREE, xs))) < 1e-8


def test_lift_identity_closed_form():
    rng = np.random.default_rng(13)
    assert np.max(lift_identity_residual(THREE, sample_points(THREE, 10, rng))) < 1e-13


def test_lift_identity_via_forms():
    # df + i_X(*dV) = 0 for the axis rotation X = (0, -x3, x2)
    rng = np.random.default_rng(14)
    xs = sample_points(TWO, 6, rng)
    star_dv = hodge_star(np.eye(3), 1, potential_gradient(TWO, xs), 1)
    for x, star, df in zip(xs, star_dv, lift_gradient(TWO, xs)):
        rot = np.array([0.0, -x[2], x[1]])
        contracted = rot @ _as_matrices(star, 3)  # i_X of a 2-form with matrix M is X^T M
        assert np.max(np.abs(df + contracted)) < 1e-13


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
        x1 = np.linspace(lo, hi, 5)
        vals = rotation_lift_f(cfg, np.column_stack([x1, 0 * x1, 0 * x1]))
        assert np.all(vals == expected[seg])


def test_lift_trivial_above_top_and_middle_zero():
    cfg = GHConfig(centers=(0.0, 1.0, 3.0, 4.0), c=0.25)
    # above the top centre every term is +1
    assert rotation_lift_f(cfg, np.array([[9.0, 0.0, 0.0]]))[0] == 4.0 + 0.25
    # even number of centres, c = 0: the middle segment is exactly zero
    for count in (2, 4, 6):
        centers = tuple(float(i) for i in range(count))
        mid = (centers[count // 2 - 1] + centers[count // 2]) / 2.0
        even_cfg = GHConfig(centers=centers)
        assert rotation_lift_f(even_cfg, np.array([[mid, 0.0, 0.0]]))[0] == 0.0
    # odd number of centres: the same segment value is nonzero
    odd_cfg = GHConfig(centers=(0.0, 1.0, 2.0))
    assert rotation_lift_f(odd_cfg, np.array([[0.5, 0.0, 0.0]]))[0] == -1.0


# -- metric and Kahler triple ---------------------------------------------------------


def _top_wedge(a, b):
    """The dx0^dx1^dx2^dx3 component of a ^ b for 2-forms on R^4: the epsilon pairing."""
    return a[0] * b[5] - a[1] * b[4] + a[2] * b[3] + a[3] * b[2] - a[4] * b[1] + a[5] * b[0]


def test_metric_determinant_and_forms_algebra():
    rng = np.random.default_rng(15)
    xs = sample_points(TWO, 6, rng)
    p = chart_points(xs, rng.uniform(0, 2 * np.pi, size=len(xs)))
    fields = [kahler_field(TWO, i, "string-down")(p) for i in (1, 2, 3)]
    for g, v, *comps in zip(gh_metric(TWO, p, "string-down"), gh_potential(TWO, xs), *fields):
        assert np.linalg.det(g) == pytest.approx(v**2, rel=1e-10)
        for i, wi in enumerate(comps):
            for j, wj in enumerate(comps):
                prod = _top_wedge(wi, wj)
                expect = 2.0 * v if i == j else 0.0
                assert prod == pytest.approx(expect, abs=1e-12)
        triple = np.array(comps)
        assert np.max(np.abs(hodge_star(g, 1, triple, 2) - triple)) < 1e-10


@pytest.mark.parametrize("i", [1, 2, 3])
def test_kahler_forms_closed(i):
    rng = np.random.default_rng(16 + i)
    scheme = FDScheme(h=1e-3, order=4)
    field = kahler_field(TWO, i)
    xs = sample_points(TWO, 5, rng, min_clear=0.5)
    dw = ext_deriv(field, chart_points(xs, rng.uniform(0, 2 * np.pi, size=len(xs))), scheme)
    assert np.max(np.abs(dw)) < 1e-6


# -- anti-self-dual connection --------------------------------------------------------


def test_ahat_anti_self_dual():
    rng = np.random.default_rng(21)
    xs = sample_points(TWO, 10, rng, min_clear=0.45)
    p = chart_points(xs, rng.uniform(0, 2 * np.pi, size=len(xs)))
    assert np.max(asd_residual(TWO, p, "string-down")) < 1e-5


def test_asd_check_makes_one_hodge_star_call(monkeypatch):
    calls = []

    def counted(g, orientation, comps, degree):
        calls.append(np.shape(comps))
        return hodge_star(g, orientation, comps, degree)

    monkeypatch.setattr(gibbonshawking, "hodge_star", counted)
    record = run_check(RunConfig(suite="gh", samples=60), "gh.connection.asd")
    assert record.passed
    assert calls == [(20, 6)]


def test_ahat_anti_self_dual_three_centers():
    rng = np.random.default_rng(22)
    xs = sample_points(THREE, 4, rng, min_clear=0.5)
    assert np.max(asd_residual(THREE, chart_points(xs, 0.0), "string-down")) < 1e-5


def test_iY_contraction_of_curvature():
    rng = np.random.default_rng(23)
    xs = sample_points(TWO, 6, rng, min_clear=0.45)
    p = chart_points(xs, rng.uniform(0, 2 * np.pi, size=len(xs)))
    # i_Y F = Y^T M for F's matrix M, row by row
    for f, q in zip(ahat_curvature(TWO, p, "string-down"), p):
        contracted = np.array([0.0, 0.0, 0.0, 1.0]) @ _as_matrices(f, 4)
        grad = fd_gradient(
            lambda r: monopole_phi(TWO, r[:, :3]) / gh_potential(TWO, r[:, :3]),
            q[None],
            FDScheme(h=1e-4, order=4),
        )[0]
        assert np.max(np.abs(contracted - grad)) < 1e-5


def test_gauge_shift_leaves_curvature():
    rng = np.random.default_rng(24)
    p = chart_points(sample_points(TWO, 4, rng, min_clear=0.5), 0.1)
    f0 = ahat_curvature(TWO, p, "string-down")
    f1 = ahat_curvature(TWO, p, "string-down", gauge_shift=0.7)
    assert np.max(np.abs(f1 - f0)) < 1e-8


def test_string_gauges_agree_after_transition():
    rng = np.random.default_rng(25)
    xs = sample_points(TWO, 4, rng, min_clear=0.5)
    p = chart_points(xs, 0.2)
    f_down = ahat_curvature(TWO, p, "string-down")
    f_up = ahat_curvature(TWO, p, "string-up")
    # dtheta + alpha is global, so the string-up chart re-parametrises theta by
    # (s_down - s_up) * W * azimuth = -2W * azimuth, W the total weight
    rho2 = xs[:, 1] ** 2 + xs[:, 2] ** 2
    azimuth = np.stack([np.zeros(len(xs)), -xs[:, 2] / rho2, xs[:, 1] / rho2], axis=-1)
    jacs = np.tile(np.eye(4), (len(xs), 1, 1))
    jacs[:, 3, :3] = -2.0 * sum(TWO.weights) * azimuth
    for down, up, jac in zip(f_down, f_up, jacs):
        moved = (jac.T @ _as_matrices(up, 4) @ jac)[np.triu_indices(4, 1)]  # the pullback E^T M E
        assert np.max(np.abs(moved - down)) < 1e-8


def test_ahat_components():
    x = np.array([[0.4, 0.8, -0.3]])
    v, phi = gh_potential(TWO, x)[0], monopole_phi(TWO, x)[0]
    ahat = ahat_field(TWO, "string-down")(chart_points(x, 0.0))[0]
    assert ahat[3] == pytest.approx(-phi / v)
    a_comps = MonopoleData.from_config(TWO, "string-down").A(x)[0]
    expected_x = a_comps - (phi / v) * alpha_field(TWO, "string-down")(x)[0]
    assert np.allclose(ahat[:3], expected_x)


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


# -- one batch convention -----------------------------------------------------------

# weights other than 1 and c != 0 make the products inexact, so a reduction
# whose rounding depends on the batch size would show
_CFG = GHConfig(centers=(0.0, 1.0), weights=(0.7, 1.3), c=0.3)
_K = 5
_X = sample_points(_CFG, _K, np.random.default_rng(60), min_clear=0.45)
_P = chart_points(_X, np.random.default_rng(61).uniform(0, 2 * np.pi, _K))

#: every batched closed form, on rows r of the shared batch (a slice)
_BATCHED = {
    "gh_potential": lambda r: gh_potential(_CFG, _X[r]),
    "potential_gradient": lambda r: potential_gradient(_CFG, _X[r]),
    "rotation_lift_f": lambda r: rotation_lift_f(_CFG, _X[r]),
    "lift_gradient": lambda r: lift_gradient(_CFG, _X[r]),
    "lift_identity_residual": lambda r: lift_identity_residual(_CFG, _X[r]),
    "monopole_phi": lambda r: monopole_phi(_CFG, _X[r]),
    "chart_clearance[base]": lambda r: chart_clearance(_CFG)(_X[r]),
    "chart_clearance[chart]": lambda r: chart_clearance(_CFG)(_P[r]),
    "alpha_field": lambda r: alpha_field(_CFG, "string-up")(_X[r]),
    "MonopoleData.phi": lambda r: MonopoleData.from_config(_CFG).phi(_X[r]),
    "MonopoleData.A": lambda r: MonopoleData.from_config(_CFG, "string-up").A(_X[r]),
    "gh_metric": lambda r: gh_metric(_CFG, _P[r], "string-up"),
    "kahler_field": lambda r: tuple(kahler_field(_CFG, i)(_P[r]) for i in (1, 2, 3)),
    "ahat_field": lambda r: ahat_field(_CFG, "string-up", gauge_shift=0.7)(_P[r]),
    "ahat_curvature": lambda r: ahat_curvature(_CFG, _P[r], "string-down", gauge_shift=0.7),
    "asd_residual": lambda r: asd_residual(_CFG, _P[r], "string-up"),
}


def _leaves(value):
    """The arrays of a result, which may nest tuples."""
    if isinstance(value, tuple):
        return [leaf for part in value for leaf in _leaves(part)]
    return [np.asarray(value)]


@pytest.mark.parametrize("name", sorted(_BATCHED))
def test_batch_row_equals_one_row_batch(name):
    call = _BATCHED[name]
    batch = _leaves(call(slice(None)))
    for r in range(_K):
        alone = _leaves(call(slice(r, r + 1)))
        for whole, one in zip(batch, alone, strict=True):
            assert whole.shape[0] == _K and one.shape[0] == 1
            assert np.array_equal(whole[r : r + 1], one), (name, r)


@pytest.mark.parametrize("name", sorted(_BATCHED))
def test_one_point_is_rejected(name):
    # an integer index hands every function a 1-D point
    with pytest.raises(ConfigError, match=r"shape \(k, [34]\)"):
        _BATCHED[name](0)
