"""Tests for the finite-difference exterior calculus core."""

import numpy as np
import pytest

from hkgeom.errors import DomainError, MetricError, StructureError
from hkgeom.flatspace import CircleActionSpec, FlatModel, moment_field
from hkgeom.forms import (
    FDScheme,
    FormField,
    FormValue,
    ScalarField,
    basis_indices,
    dc_deriv,
    ddc,
    ext_deriv,
    fd_gradient,
    form_metric_norm,
    hodge_star,
    interior_product,
    laplacian,
    pullback,
    surface_integral,
    type11_residual,
    wedge,
)
from hkgeom.twistor import log_hU_field, pack_point, twistor_structure

# Standard complex structure on R^2 = C (z = x + iy) and on R^4 = H
# (z = x0 + i x1, w = x2 + i x3), columns are images of basis vectors.
I2 = np.array([[0.0, -1.0], [1.0, 0.0]])
I4 = np.array(
    [
        [0.0, -1.0, 0.0, 0.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, 0.0, 0.0, -1.0],
        [0.0, 0.0, 1.0, 0.0],
    ]
)
J4 = np.array(
    [
        [0.0, 0.0, -1.0, 0.0],
        [0.0, 0.0, 0.0, 1.0],
        [1.0, 0.0, 0.0, 0.0],
        [0.0, -1.0, 0.0, 0.0],
    ]
)
K4 = I4 @ J4

OMEGA1 = FormValue(2, 4, np.array([1.0, 0, 0, 0, 0, 1.0]))  # dx0^dx1 + dx2^dx3
OMEGA2 = FormValue(2, 4, np.array([0, 1.0, 0, 0, -1.0, 0]))  # dx0^dx2 - dx1^dx3
OMEGA3 = FormValue(2, 4, np.array([0, 0, 1.0, 1.0, 0, 0]))  # dx0^dx3 + dx1^dx2


def test_basis_indices_shape():
    assert basis_indices(4, 2) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert len(basis_indices(6, 3)) == 20
    assert basis_indices(3, 0) == ((),)


def test_formvalue_antisymmetry_random_pairs():
    rng = np.random.default_rng(0)
    w = FormValue(3, 6, rng.standard_normal(len(basis_indices(6, 3))))
    for _ in range(50):
        idx = list(rng.choice(6, size=3, replace=False))
        a, b = rng.choice(3, size=2, replace=False)
        swapped = idx.copy()
        swapped[a], swapped[b] = swapped[b], swapped[a]
        assert w.comp(idx) == -w.comp(swapped)
    assert w.comp((1, 1, 2)) == 0.0


def test_formvalue_evaluation_matches_determinant():
    rng = np.random.default_rng(1)
    w = FormValue(2, 4, rng.standard_normal(6))
    X, Y = rng.standard_normal(4), rng.standard_normal(4)
    direct = sum(
        w.comps[p] * (X[i] * Y[j] - X[j] * Y[i])
        for p, (i, j) in enumerate(basis_indices(4, 2))
    )
    assert np.isclose(w(X, Y), direct)
    assert np.isclose(w(X, Y), -w(Y, X))
    assert np.isclose(w(X, X), 0.0)


def test_wedge_associative_and_graded_commutative():
    rng = np.random.default_rng(2)
    a = FormValue(1, 5, rng.standard_normal(5))
    b = FormValue(1, 5, rng.standard_normal(5))
    c = FormValue(2, 5, rng.standard_normal(10))
    ab = wedge(a, b)
    assert np.allclose(ab.comps, -wedge(b, a).comps)  # odd-odd anticommute
    assert np.allclose(wedge(ab, c).comps, wedge(a, wedge(b, c)).comps)
    assert np.allclose(wedge(a, c).comps, wedge(c, a).comps)  # odd-even commute


def test_interior_product_contracts_first_slot():
    rng = np.random.default_rng(3)
    w = FormValue(3, 5, rng.standard_normal(10))
    X = rng.standard_normal(5)
    Y = rng.standard_normal(5)
    Z = rng.standard_normal(5)
    assert np.isclose(interior_product(X, w)(Y, Z), w(X, Y, Z))


def test_pullback_by_rotation_preserves_evaluation():
    rng = np.random.default_rng(4)
    w = FormValue(2, 4, rng.standard_normal(6))
    A = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    wA = pullback(w, A)
    X, Y = rng.standard_normal(4), rng.standard_normal(4)
    assert np.isclose(wA(X, Y), w(A @ X, A @ Y))


# -- exterior derivative -------------------------------------------------


def test_ext_deriv_of_coordinate_function():
    # d(x1) = dx1 exactly (0-based index 0 here)
    f = FormField(lambda p: FormValue(0, 3, [p[0]]), degree=0, dim=3)
    dw = ext_deriv(f, [0.3, -0.2, 0.9], FDScheme(h=1e-3, order=4))
    assert np.allclose(dw.comps, [1.0, 0.0, 0.0], atol=1e-12)


def test_ext_deriv_of_x1_dx2():
    f = FormField(
        lambda p: FormValue(1, 3, [0.0, p[0], 0.0]), degree=1, dim=3
    )  # x1 dx2
    dw = ext_deriv(f, [0.5, 0.1, -0.4], FDScheme(h=1e-3, order=4))
    assert np.allclose(dw.comps, [1.0, 0.0, 0.0], atol=1e-12)  # dx1^dx2


def test_ext_deriv_closed_gradient_field():
    # dV for V = 1/|x| is exact, hence closed: residual < 1e-7.
    def dV(p):
        r = np.linalg.norm(p)
        return FormValue(1, 3, -p / r**3)

    f = FormField(dV, degree=1, dim=3, clearance=lambda p: np.linalg.norm(p))
    ddV = ext_deriv(f, [1.0, 1.0, 1.0], FDScheme(h=1e-3, order=4))
    assert ddV.norm() < 1e-7


def test_ext_deriv_margin_rejection():
    f = FormField(
        lambda p: FormValue(0, 2, [1.0 / np.linalg.norm(p)]),
        degree=0,
        dim=2,
        clearance=lambda p: np.linalg.norm(p),
    )
    with pytest.raises(DomainError):
        ext_deriv(f, [1e-4, 0.0], FDScheme(h=1e-3, order=4))


def test_d_squared_vanishes_on_smooth_fields():
    # d(dw) residual bounded by scheme error on a non-polynomial field
    def w(p):
        return FormValue(
            1, 3, [np.sin(p[1] * p[2]), np.exp(0.3 * p[0]), np.cos(p[0] + p[1])]
        )

    field = FormField(w, degree=1, dim=3)
    scheme = FDScheme(h=1e-2, order=4)
    dfield = FormField(lambda p: ext_deriv(field, p, scheme), degree=2, dim=3)
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = rng.uniform(-1, 1, size=3)
        assert ext_deriv(dfield, p, scheme).norm() < 1e-6


def test_ext_deriv_second_order_convergence():
    f = FormField(lambda p: FormValue(0, 2, [np.sin(p[0]) * np.exp(p[1])]), 0, 2)
    p = np.array([0.4, -0.3])
    exact = np.array([np.cos(0.4) * np.exp(-0.3), np.sin(0.4) * np.exp(-0.3)])
    err = []
    for h in (1e-2, 5e-3):
        dw = ext_deriv(f, p, FDScheme(h=h, order=2))
        err.append(np.linalg.norm(dw.comps - exact))
    ratio = err[0] / err[1]
    assert 3.0 < ratio < 5.0  # second order: halving h gives ~4x


def test_richardson_improves_accuracy():
    f = FormField(lambda p: FormValue(0, 2, [np.sin(3 * p[0]) * np.cos(2 * p[1])]), 0, 2)
    p = np.array([0.2, 0.7])
    exact = np.array(
        [3 * np.cos(3 * 0.2) * np.cos(2 * 0.7), -2 * np.sin(3 * 0.2) * np.sin(2 * 0.7)]
    )
    plain = ext_deriv(f, p, FDScheme(h=1e-2, order=2))
    rich = ext_deriv(f, p, FDScheme(h=1e-2, order=2, richardson=True))
    assert np.linalg.norm(rich.comps - exact) < np.linalg.norm(plain.comps - exact)


# -- d^c and dd^c ----------------------------------------------------------


def test_dc_of_constant_is_zero():
    f = ScalarField(lambda p: 3.7, dim=2)
    w = dc_deriv(f, I2, [0.1, 0.2])
    assert np.allclose(w.comps, 0.0, atol=1e-12)


def test_ddc_of_z_squared_over_two():
    # dd^c(|z|^2/2) = 2 dx^dy = i dz^dzbar  (symbolic oracle value)
    f = ScalarField(lambda p: 0.5 * (p[0] ** 2 + p[1] ** 2), dim=2)
    F = ddc(f, I2, [0.3, -0.8], FDScheme(h=1e-3, order=4))
    assert np.allclose(F.comps, [2.0], atol=1e-9)


def test_flat_moment_map_curvature_identity():
    # mu = -|w|^2/2 on H: omega1 + dd^c mu = dx0^dx1 - dx2^dx3,
    # i.e. (i/2)(dz^dzbar - dw^dwbar).
    mu = ScalarField(lambda p: -0.5 * (p[2] ** 2 + p[3] ** 2), dim=4)
    rng = np.random.default_rng(6)
    expected = np.array([1.0, 0, 0, 0, 0, -1.0])
    for _ in range(5):
        p = rng.uniform(-1, 1, size=4)
        F = OMEGA1 + ddc(mu, I4, p, FDScheme(h=1e-3, order=4))
        assert np.allclose(F.comps, expected, atol=1e-9)


def test_dc_rejects_non_complex_structure():
    f = ScalarField(lambda p: p[0], dim=2)
    with pytest.raises(StructureError):
        dc_deriv(f, np.eye(2), [0.0, 0.0])


# -- batched dd^c against the nested composition ------------------------------


def _nested_ddc(f, I, p, scheme, inner=None):
    """Reference: ext_deriv of the d^c 1-form field, one point per callback."""
    inner = inner or scheme
    dc = FormField(
        lambda q: dc_deriv(f, I, q, inner), degree=1, dim=f.dim, clearance=f.clearance
    )
    return ext_deriv(dc, p, scheme)


SCHEMES = [
    (FDScheme(h=1e-3, order=4), None),
    (FDScheme(h=1e-2, order=2), None),
    (FDScheme(h=1e-2, order=4, richardson=True), FDScheme(h=1e-3, order=4, richardson=True)),
]


@pytest.mark.parametrize("scheme, inner", SCHEMES)
def test_batched_ddc_equals_nested_constant_structure(scheme, inner):
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        model = FlatModel(n)
        spec = CircleActionSpec(k=(1,) * n, l=(1,) * n)
        p = rng.uniform(-1.5, 1.5, size=4 * n)
        got = ddc(moment_field(spec), model.I, p, scheme, inner)
        want = _nested_ddc(moment_field(spec), model.I, p, scheme, inner)
        assert np.array_equal(got.comps, want.comps)
    # a per-point callback goes through the row-by-row fallback
    f = ScalarField(lambda p: 0.5 * (p[0] ** 2 + p[1] ** 2), dim=4)
    p = rng.uniform(-1.5, 1.5, size=4)
    got = ddc(f, I4, p, scheme, inner)
    assert np.array_equal(got.comps, _nested_ddc(f, I4, p, scheme, inner).comps)


@pytest.mark.parametrize("scheme, inner", SCHEMES)
def test_batched_ddc_equals_nested_point_dependent_structure(scheme, inner):
    rng = np.random.default_rng(12)
    for n in (1, 2):
        model = FlatModel(n)
        zeta = 0.8 * np.exp(1j * rng.uniform(0.0, 2 * np.pi))
        p = pack_point(model, rng.standard_normal(n), rng.standard_normal(n), zeta)
        f, I = log_hU_field(n), twistor_structure(n)
        got = ddc(f, I, p, scheme, inner)
        assert np.array_equal(got.comps, _nested_ddc(f, I, p, scheme, inner).comps)


def test_batched_gradient_equals_pointwise_gradient():
    rng = np.random.default_rng(13)
    f = log_hU_field(2)
    S = twistor_structure(2)
    for scheme, _ in SCHEMES:
        p = pack_point(FlatModel(2), rng.standard_normal(2), rng.standard_normal(2), 0.5j)
        want = -S(p).T @ fd_gradient(f, p, scheme)
        assert np.array_equal(dc_deriv(f, S, p, scheme).comps, want)


def test_ddc_margin_checked_at_outer_points():
    # base clearance 0.101 passes 10h for the outer step (h = 1e-3) and
    # the inner one (h = 1e-2); the outer point 2e-3 closer does not
    a = np.array([0.0, 0.0])
    f = ScalarField(
        lambda p: np.log(np.linalg.norm(p - a)),
        dim=2,
        clearance=lambda p: np.linalg.norm(p - a),
    )
    outer, inner = FDScheme(h=1e-3, order=4), FDScheme(h=1e-2, order=4)
    with pytest.raises(DomainError):
        ddc(f, I2, [0.101, 0.0], outer, inner)
    with pytest.raises(DomainError):
        _nested_ddc(f, I2, [0.101, 0.0], outer, inner)
    ddc(f, I2, [0.103, 0.0], outer, inner)


def test_ddc_structure_checked_at_outer_points():
    # I is a complex structure at the base point only
    p0 = np.array([0.3, -0.2, 0.1, 0.4])

    def I(q):
        return I4 * (1.0 + np.linalg.norm(q - p0))

    f = ScalarField(lambda p: 0.5 * (p[0] ** 2 + p[1] ** 2), dim=4)
    dc_deriv(f, I, p0)
    with pytest.raises(StructureError):
        ddc(f, I, p0, FDScheme(h=1e-3, order=4))


def test_scalar_field_batch_contract():
    pts = np.random.default_rng(14).uniform(-1, 1, size=(7, 3))
    looped = ScalarField(lambda p: float(np.sum(p**2)), dim=3)
    batched = ScalarField(lambda p: np.sum(p**2, axis=-1), dim=3, vectorized=True)
    assert looped(pts).shape == batched(pts).shape == (7,)
    assert np.array_equal(looped(pts), batched(pts))
    assert looped(pts[0]) == batched(pts[0])


# -- Laplacian ----------------------------------------------------------------


def test_laplacian_quadratics():
    f = ScalarField(lambda p: p[0] ** 2, dim=3)
    assert np.isclose(laplacian(f, [0.2, 0.3, 0.4]), 2.0, atol=1e-8)
    g = ScalarField(lambda p: np.dot(p, p), dim=3)
    assert np.isclose(laplacian(g, [0.5, -0.1, 0.2]), 6.0, atol=1e-8)


def test_laplacian_harmonic_kernel():
    a = np.array([0.2, -0.1, 0.05])
    f = ScalarField(
        lambda p: 1.0 / np.linalg.norm(p - a),
        dim=3,
        clearance=lambda p: np.linalg.norm(p - a),
    )
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = a + rng.uniform(0.5, 1.5, size=3) * rng.choice([-1.0, 1.0], size=3)
        assert abs(laplacian(f, p, FDScheme(h=1e-3, order=4))) < 1e-6


# -- Hodge star ----------------------------------------------------------------


def test_hodge_star_euclidean_r3():
    w = FormValue(1, 3, [1.0, 0.0, 0.0])  # dx1
    s = hodge_star(np.eye(3), +1, w)
    expect = FormValue.from_dict(2, 3, {(1, 2): 1.0})  # dx2^dx3
    assert np.allclose(s.comps, expect.comps)


def test_hodge_star_self_dual_triple_r4():
    for w in (OMEGA1, OMEGA2, OMEGA3):
        s = hodge_star(np.eye(4), +1, w)
        assert np.allclose(s.comps, w.comps, atol=1e-14)


def test_hodge_star_double_application_sign():
    rng = np.random.default_rng(8)
    for (N, k) in [(3, 1), (4, 2), (4, 1), (5, 2)]:
        w = FormValue(k, N, rng.standard_normal(len(basis_indices(N, k))))
        A = rng.standard_normal((N, N))
        g = A @ A.T + N * np.eye(N)
        ss = hodge_star(g, +1, hodge_star(g, +1, w))
        sign = (-1) ** (k * (N - k))
        assert np.allclose(ss.comps, sign * w.comps, atol=1e-10)


def test_hodge_star_isometry():
    rng = np.random.default_rng(9)
    for _ in range(10):
        A = rng.standard_normal((4, 4))
        g = A @ A.T + 4 * np.eye(4)
        w = FormValue(2, 4, rng.standard_normal(6))
        assert np.isclose(
            form_metric_norm(g, hodge_star(g, +1, w)),
            form_metric_norm(g, w),
            atol=1e-10,
        )


def test_hodge_star_spherical_gauge_potential():
    # V = 1/(2r) with azimuthal angle about the x1-axis:
    # *dV = d[(1/2)(x1/r) dphi]  (closed-form spherical oracle)
    def alpha(p):
        r = np.linalg.norm(p)
        rho2 = p[1] ** 2 + p[2] ** 2
        coef = 0.5 * p[0] / r
        return FormValue(1, 3, [0.0, -coef * p[2] / rho2, coef * p[1] / rho2])

    def dV(p):
        r = np.linalg.norm(p)
        return FormValue(1, 3, -0.5 * p / r**3)

    field = FormField(
        alpha, degree=1, dim=3, clearance=lambda p: np.hypot(p[1], p[2])
    )
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = rng.uniform(-1.5, 1.5, size=3)
        if np.hypot(p[1], p[2]) < 0.3:
            continue
        da = ext_deriv(field, p, FDScheme(h=1e-4, order=4))
        sdv = hodge_star(np.eye(3), +1, dV(p))
        assert np.allclose(da.comps, sdv.comps, atol=1e-6)


def test_hodge_star_rejects_singular_metric():
    w = FormValue(1, 2, [1.0, 0.0])
    with pytest.raises(MetricError):
        hodge_star(np.diag([1.0, 0.0]), +1, w)


# -- type (1,1) residual ---------------------------------------------------------


def test_type11_omega1_is_11_for_I():
    assert type11_residual(OMEGA1, I4) < 1e-14


def test_type11_omega2_is_20_plus_02_for_I():
    # omega2 is (2,0)+(0,2) for I: residual is 2 (direct flat-basis expansion)
    assert np.isclose(type11_residual(OMEGA2, I4), 2.0)


def test_type11_flat_curvature_all_structures():
    F = FormValue(2, 4, [1.0, 0, 0, 0, 0, -1.0])  # (i/2)(dz dzbar - dw dwbar)
    for S in (I4, J4, K4):
        assert type11_residual(F, S) < 1e-12


def test_type11_invariant_under_frame_rotation():
    rng = np.random.default_rng(11)
    F = FormValue(2, 4, rng.standard_normal(6))
    base = type11_residual(F, I4)
    for _ in range(5):
        Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        Fq = pullback(F, Q)
        Sq = Q.T @ I4 @ Q
        assert np.isclose(type11_residual(Fq, Sq), base, atol=1e-10)


def test_type11_rejects_non_structure():
    with pytest.raises(StructureError):
        type11_residual(OMEGA1, np.eye(4))


# -- surface integration -----------------------------------------------------------


def test_surface_integral_unit_square():
    w = FormField(
        lambda p: FormValue.from_dict(2, 3, {(0, 1): 1.0}), degree=2, dim=3
    )
    val = surface_integral(w, lambda s, t: np.array([s, t, 0.0]), resolution=4)
    assert np.isclose(val, 1.0, atol=1e-12)


def test_surface_integral_unit_sphere_area():
    def area_form(p):
        return FormValue.from_dict(
            2, 3, {(1, 2): p[0], (2, 0): p[1], (0, 1): p[2]}
        )

    def sphere(s, t):
        th, ph = np.pi * s, 2 * np.pi * t
        return np.array([np.cos(th), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph)])

    w = FormField(area_form, degree=2, dim=3)
    val = surface_integral(w, sphere, resolution=8)
    assert np.isclose(val, 4 * np.pi, atol=1e-6)


def test_surface_integral_refinement_converges():
    def warped(s, t):
        return np.array([s + 0.1 * np.sin(np.pi * t), t, 0.2 * s * t])

    w = FormField(
        lambda p: FormValue.from_dict(2, 3, {(0, 1): np.cos(p[0] * p[1])}),
        degree=2,
        dim=3,
    )
    coarse = surface_integral(w, warped, resolution=2)
    fine = surface_integral(w, warped, resolution=8)
    finest = surface_integral(w, warped, resolution=16)
    assert abs(fine - finest) < abs(coarse - finest) + 1e-15
    assert abs(fine - finest) < 1e-9


# -- scheme validation ---------------------------------------------------------------


def test_fdscheme_validation():
    with pytest.raises(ValueError):
        FDScheme(h=-1e-3)
    with pytest.raises(ValueError):
        FDScheme(order=3)
    assert FDScheme(h=1e-3, order=4).radius == pytest.approx(2e-3)
