"""Tests for the finite-difference exterior calculus core."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hkgeom import cotangent
from hkgeom import gibbonshawking as gh
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
    fd_jacobian,
    form_metric_norm,
    hodge_star,
    interior_product,
    laplacian,
    pullback,
    surface_integral,
    type11_residual,
    wedge,
)
from hkgeom.twistor import curvature_FZ_field, log_hU_field, pack_point, twistor_structure

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


def _rows(fn):
    """A batch callback that evaluates the one-point callback fn row by row."""
    return lambda points: np.array([fn(x) for x in points])


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


def _loop_matrix(w):
    """Reference: the degree-2 matrix filled entry by entry."""
    M = np.zeros((w.dim, w.dim), dtype=w.comps.dtype)
    for pos, (i, j) in enumerate(basis_indices(w.dim, 2)):
        M[i, j] = w.comps[pos]
        M[j, i] = -w.comps[pos]
    return M


def test_as_matrix_and_pullback_bitwise_equal_per_pair_evaluation():
    # reference: w(A[:, i], A[:, j]) per pair, each rebuilding the matrix
    rng = np.random.default_rng(6)
    for trial in range(300):
        n, m = rng.integers(2, 15, size=2)
        comps = rng.standard_normal(n * (n - 1) // 2)
        A = rng.standard_normal((n, m))
        if trial % 2:
            comps = comps + 1j * rng.standard_normal(comps.size)
        if trial % 3 == 0:
            A = A + 1j * rng.standard_normal((n, m))
        if trial % 5 == 0:
            A = np.asfortranarray(A)
        w = FormValue(2, n, comps)
        assert np.array_equal(w.as_matrix(), _loop_matrix(w))
        want = np.array(
            [
                np.column_stack([A[:, i], A[:, j]])[:, 0]
                @ _loop_matrix(w)
                @ np.column_stack([A[:, i], A[:, j]])[:, 1]
                for i, j in basis_indices(m, 2)
            ]
        )
        got = pullback(w, A).comps
        assert got.dtype == want.dtype
        assert np.array_equal(got, want)


# -- exterior derivative -------------------------------------------------


def test_ext_deriv_of_coordinate_function():
    # d(x1) = dx1 exactly (0-based index 0 here)
    f = FormField(lambda p: p[:, :1], degree=0, dim=3)
    dw = ext_deriv(f, [0.3, -0.2, 0.9], FDScheme(h=1e-3, order=4))
    assert np.allclose(dw.comps, [1.0, 0.0, 0.0], atol=1e-12)


def test_ext_deriv_of_x1_dx2():
    f = FormField(
        lambda p: np.stack([0.0 * p[:, 0], p[:, 0], 0.0 * p[:, 0]], axis=-1), degree=1, dim=3
    )  # x1 dx2
    dw = ext_deriv(f, [0.5, 0.1, -0.4], FDScheme(h=1e-3, order=4))
    assert np.allclose(dw.comps, [1.0, 0.0, 0.0], atol=1e-12)  # dx1^dx2


def test_ext_deriv_closed_gradient_field():
    # dV for V = 1/|x| is exact, hence closed: residual < 1e-7.
    def dV(p):
        r = np.linalg.norm(p, axis=-1, keepdims=True)
        return -p / r**3

    f = FormField(dV, degree=1, dim=3, clearance=lambda p: np.linalg.norm(p))
    ddV = ext_deriv(f, [1.0, 1.0, 1.0], FDScheme(h=1e-3, order=4))
    assert ddV.norm() < 1e-7


def test_ext_deriv_margin_rejection():
    f = FormField(
        lambda p: 1.0 / np.linalg.norm(p, axis=-1, keepdims=True),
        degree=0,
        dim=2,
        clearance=lambda p: np.linalg.norm(p),
    )
    with pytest.raises(DomainError):
        ext_deriv(f, [1e-4, 0.0], FDScheme(h=1e-3, order=4))


def test_d_squared_vanishes_on_smooth_fields():
    # d(dw) residual bounded by scheme error on a non-polynomial field
    def w(p):
        x0, x1, x2 = p.T
        return np.stack([np.sin(x1 * x2), np.exp(0.3 * x0), np.cos(x0 + x1)], axis=-1)

    field = FormField(w, degree=1, dim=3)
    scheme = FDScheme(h=1e-2, order=4)
    dfield = FormField(_rows(lambda p: ext_deriv(field, p, scheme).comps), degree=2, dim=3)
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = rng.uniform(-1, 1, size=3)
        assert ext_deriv(dfield, p, scheme).norm() < 1e-6


def test_ext_deriv_second_order_convergence():
    f = FormField(lambda p: np.sin(p[:, :1]) * np.exp(p[:, 1:]), 0, 2)
    p = np.array([0.4, -0.3])
    exact = np.array([np.cos(0.4) * np.exp(-0.3), np.sin(0.4) * np.exp(-0.3)])
    err = []
    for h in (1e-2, 5e-3):
        dw = ext_deriv(f, p, FDScheme(h=h, order=2))
        err.append(np.linalg.norm(dw.comps - exact))
    ratio = err[0] / err[1]
    assert 3.0 < ratio < 5.0  # second order: halving h gives ~4x


# -- the single stencil, property-tested on polynomials --------------------------
#
# A central stencil of order 2 differentiates quadratics exactly and one
# of order 4 cubics, so on those maps the error is roundoff alone.  The
# bounds below scale with S, the largest sum of |terms| of the polynomial
# over the stencil, and with the weights' amplification sum|w| / h, where
# sum|w| = 1 for order 2 and (1 + 8 + 8 + 1) / 12 = 1.5 for order 4.

EPS = np.finfo(float).eps
WEIGHT_SUM = {2: 1.0, 4: 1.5}
PROPERTY_SETTINGS = settings(max_examples=40, derandomize=True, deadline=None)


def _contract(T, x, times):
    """T with its last `times` axes contracted against x."""
    for _ in range(times):
        T = T @ x
    return T


def _poly(coefs, x):
    """sum_k coefs[k] . x^k, where coefs[k] has shape (m,) + (d,) * k."""
    return sum(_contract(T, x, k) for k, T in enumerate(coefs))


def _poly_jacobian(coefs, x):
    """Analytic Jacobian of _poly: each slot of each term differentiated in turn."""
    return sum(
        _contract(np.moveaxis(T, slot, 1), x, k - 1)
        for k, T in enumerate(coefs)
        for slot in range(1, k + 1)
    )


def _abs_scale(coefs, p, reach):
    """S: the sum of |terms| bounded over the box |x_i| <= |p_i| + reach."""
    return np.max(_poly([np.abs(T) for T in coefs], np.abs(p) + reach))


@st.composite
def polynomial_maps(draw, degree, dims=(1, 4), outputs=(1, 3)):
    """(coefs, p) for a random polynomial map R^d -> R^m of the given degree."""
    d = draw(st.integers(*dims))
    m = draw(st.integers(*outputs))
    unit = st.floats(-1.0, 1.0)
    coefs = [draw(hnp.arrays(float, (m,) + (d,) * k, elements=unit)) for k in range(degree + 1)]
    return coefs, draw(hnp.arrays(float, (d,), elements=unit))


@pytest.mark.parametrize("order, degree", [(2, 2), (4, 3)])
def test_fd_jacobian_exact_on_polynomials_up_to_roundoff(order, degree):
    # a stencil value is off by at most about (terms + 3) eps S: the
    # summation, the products and the rounding of the point itself
    @PROPERTY_SETTINGS
    @given(polynomial_maps(degree), st.sampled_from((1e-1, 1e-2, 1e-3)))
    def check(case, h):
        coefs, p = case
        scheme = FDScheme(h=h, order=order)
        got = fd_jacobian(_rows(lambda x: _poly(coefs, x)), p, scheme)
        terms = sum(len(p) ** k for k in range(degree + 1))
        scale = _abs_scale(coefs, p, scheme.radius)
        bound = (terms + 3) * EPS * scale * WEIGHT_SUM[order] / h
        assert np.max(np.abs(got - _poly_jacobian(coefs, p))) <= bound

    check()


@pytest.mark.parametrize("degree", [0, 1])
def test_d_squared_vanishes_on_polynomial_forms(degree):
    # d_i d_j and d_j d_i evaluate the form at bit-identical points (each
    # coordinate is moved by one addition), so d(dw) is only the rounding
    # of the weighted sums: about eps (sum|w| / h)^2 S for each of the at
    # most six nested derivatives in a component
    @PROPERTY_SETTINGS
    @given(
        st.integers(3, 4).flatmap(
            lambda dim: polynomial_maps(3, dims=(dim, dim), outputs=(dim**degree,) * 2)
        ),
        st.sampled_from([FDScheme(h=1e-2, order=4), FDScheme(h=1e-1, order=2)]),
    )
    def check(case, scheme):
        coefs, p = case
        dim = len(p)
        w = FormField(_rows(lambda x: _poly(coefs, x)), degree, dim)
        dw = FormField(_rows(lambda x: ext_deriv(w, x, scheme).comps), degree + 1, dim)
        scale = _abs_scale(coefs, p, 2 * scheme.radius)
        bound = 6 * EPS * scale * (WEIGHT_SUM[scheme.order] / scheme.h) ** 2
        assert np.max(np.abs(ext_deriv(dw, p, scheme).comps)) <= bound

    check()


# -- d^c and dd^c ----------------------------------------------------------


def test_dc_of_constant_is_zero():
    f = ScalarField(lambda p: np.full(len(p), 3.7), dim=2)
    w = dc_deriv(f, I2, [0.1, 0.2])
    assert np.allclose(w.comps, 0.0, atol=1e-12)


def test_ddc_of_z_squared_over_two():
    # dd^c(|z|^2/2) = 2 dx^dy = i dz^dzbar  (symbolic oracle value)
    f = ScalarField(lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2), dim=2)
    F = ddc(f, I2, [0.3, -0.8], FDScheme(h=1e-3, order=4))
    assert np.allclose(F.comps, [2.0], atol=1e-9)


def test_flat_moment_map_curvature_identity():
    # mu = -|w|^2/2 on H: omega1 + dd^c mu = dx0^dx1 - dx2^dx3,
    # i.e. (i/2)(dz^dzbar - dw^dwbar).
    mu = ScalarField(lambda p: -0.5 * (p[:, 2] ** 2 + p[:, 3] ** 2), dim=4)
    rng = np.random.default_rng(6)
    expected = np.array([1.0, 0, 0, 0, 0, -1.0])
    for _ in range(5):
        p = rng.uniform(-1, 1, size=4)
        F = OMEGA1 + ddc(mu, I4, p, FDScheme(h=1e-3, order=4))
        assert np.allclose(F.comps, expected, atol=1e-9)


def test_dc_rejects_non_complex_structure():
    f = ScalarField(lambda p: p[:, 0], dim=2)
    with pytest.raises(StructureError):
        dc_deriv(f, np.eye(2), [0.0, 0.0])


# -- batched dd^c against the nested composition ------------------------------


def _nested_ddc(f, I, p, scheme, inner=None):
    """Reference: ext_deriv of the d^c 1-form field, one d^c stencil per outer point."""
    inner = inner or scheme
    dc = FormField(
        _rows(lambda q: dc_deriv(f, I, q, inner).comps), degree=1, dim=f.dim, clearance=f.clearance
    )
    return ext_deriv(dc, p, scheme)


SCHEMES = [
    (FDScheme(h=1e-3, order=4), None),
    (FDScheme(h=1e-2, order=2), None),
    (FDScheme(h=1e-2, order=4), FDScheme(h=1e-3, order=4)),
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
    # a plain callback written for batches
    f = ScalarField(lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2), dim=4)
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
        lambda p: np.log(np.linalg.norm(p - a, axis=-1)),
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

    f = ScalarField(lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2), dim=4)
    dc_deriv(f, I, p0)
    with pytest.raises(StructureError):
        ddc(f, I, p0, FDScheme(h=1e-3, order=4))


def _gh_chart_points(rng, m):
    """(m, 4) chart points of GH_TWO away from its centres and the x1-axis."""
    x1 = rng.uniform(-1.5, 2.5, m)
    rho, phase = rng.uniform(0.3, 1.5, m), rng.uniform(0.0, 2 * np.pi, m)
    return np.column_stack([x1, rho * np.cos(phase), rho * np.sin(phase), phase])


def _twistor_points(rng, m, n):
    """(m, 4n + 2) real twistor coordinates with |zeta| in [0.5, 1.5]."""
    flat = rng.uniform(-1.0, 1.0, (m, 4 * n))
    zeta = rng.uniform(0.5, 1.5, m) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, m))
    return np.column_stack([flat, zeta.real, zeta.imag])


# weights other than 1 make the products inexact, so a reduction whose
# rounding depends on the batch size (a BLAS matmul) would show
GH_TWO = gh.GHConfig(centers=(0.0, 1.0), weights=(0.7, 1.3), c=0.3)

#: name -> (field or batch callable, (m, dim) points) for the library's field factories
FIELD_FACTORIES = {
    "moment_field": lambda rng: (
        moment_field(CircleActionSpec(k=(1, 2), l=(1, 0))),
        rng.uniform(-1.5, 1.5, (17, 8)),
    ),
    "log_hU_field": lambda rng: (log_hU_field(2), _twistor_points(rng, 17, 2)),
    **{
        f"cotangent.{name}": (
            lambda rng, op=op: (cotangent._chart_field(op), rng.uniform(-0.8, 0.8, (17, 4)))
        )
        for name, op in (
            ("h", cotangent.potential_h),
            ("k", cotangent.potential_k),
            ("mu", cotangent.bg_moment_map),
        )
    },
    **{
        f"kahler_field[{i}]": (
            lambda rng, i=i: (gh.kahler_field(GH_TWO, i), _gh_chart_points(rng, 17))
        )
        for i in (1, 2, 3)
    },
    **{
        f"ahat_field[{gauge}]": (
            lambda rng, gauge=gauge: (
                gh.ahat_field(GH_TWO, gauge, gauge_shift=0.7),
                _gh_chart_points(rng, 17),
            )
        )
        for gauge in gh.GAUGES
    },
    "MonopoleData.phi": lambda rng: (
        gh.MonopoleData.from_config(GH_TWO).phi,
        _gh_chart_points(rng, 17)[:, :3],
    ),
    "MonopoleData.A": lambda rng: (
        gh.MonopoleData.from_config(GH_TWO, "string-up").A,
        _gh_chart_points(rng, 17)[:, :3],
    ),
    "curvature_FZ_field": lambda rng: (curvature_FZ_field(2), _twistor_points(rng, 17, 2)),
}


@pytest.mark.parametrize("name", sorted(FIELD_FACTORIES))
def test_field_factories_keep_the_batch_contract(name):
    # every batch row has the bits of that point evaluated alone; a form
    # field on one point gives a FormValue
    field, points = FIELD_FACTORIES[name](np.random.default_rng(14))
    batch = field(points)
    assert len(batch) == len(points)
    for row, p in zip(batch, points):
        alone = field(p)
        if isinstance(field, FormField):
            assert isinstance(alone, FormValue)
            alone = alone.comps
        assert np.array_equal(row, alone)


def test_form_field_rejects_a_batch_of_the_wrong_shape():
    field = FormField(lambda p: p, degree=1, dim=2)
    assert field(np.zeros((3, 2))).shape == (3, 2)
    with pytest.raises(ValueError):
        FormField(lambda p: p, degree=2, dim=4)(np.zeros((3, 4)))


# -- Laplacian ----------------------------------------------------------------


def test_laplacian_quadratics():
    f = ScalarField(lambda p: p[:, 0] ** 2, dim=3)
    assert np.isclose(laplacian(f, [0.2, 0.3, 0.4]), 2.0, atol=1e-8)
    g = ScalarField(lambda p: np.sum(p * p, axis=-1), dim=3)
    assert np.isclose(laplacian(g, [0.5, -0.1, 0.2]), 6.0, atol=1e-8)


def test_laplacian_harmonic_kernel():
    a = np.array([0.2, -0.1, 0.05])
    f = ScalarField(
        lambda p: 1.0 / np.linalg.norm(p - a, axis=-1),
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
        x0, x1, x2 = p.T
        r = np.linalg.norm(p, axis=-1)
        rho2 = x1**2 + x2**2
        coef = 0.5 * x0 / r
        return np.stack([0.0 * r, -coef * x2 / rho2, coef * x1 / rho2], axis=-1)

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
    w = FormField(lambda p: np.tile([1.0, 0.0, 0.0], (len(p), 1)), degree=2, dim=3)  # dx0^dx1
    val = surface_integral(w, lambda st: np.column_stack([st, 0.0 * st[:, 0]]), resolution=4)
    assert np.isclose(val, 1.0, atol=1e-12)


def test_surface_integral_unit_sphere_area():
    def area_form(p):
        # x0 dx1^dx2 + x1 dx2^dx0 + x2 dx0^dx1 on the basis (01, 02, 12)
        return np.stack([p[:, 2], -p[:, 1], p[:, 0]], axis=-1)

    def sphere(st):
        th, ph = np.pi * st[:, 0], 2 * np.pi * st[:, 1]
        return np.column_stack([np.cos(th), np.sin(th) * np.cos(ph), np.sin(th) * np.sin(ph)])

    w = FormField(area_form, degree=2, dim=3)
    val = surface_integral(w, sphere, resolution=8)
    assert np.isclose(val, 4 * np.pi, atol=1e-6)


def test_surface_integral_refinement_converges():
    def warped(st):
        s, t = st.T
        return np.column_stack([s + 0.1 * np.sin(np.pi * t), t, 0.2 * s * t])

    def w_comps(p):  # cos(x0 x1) dx0^dx1
        c = np.cos(p[:, 0] * p[:, 1])
        return np.stack([c, 0.0 * c, 0.0 * c], axis=-1)

    w = FormField(w_comps, degree=2, dim=3)
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
