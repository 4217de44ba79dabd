"""Tests for the finite-difference exterior calculus core."""

import platform
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from hkgeom import cotangent, forms
from hkgeom import gibbonshawking as gh
from hkgeom.errors import ConfigError, DomainError, MetricError, StructureError
from hkgeom.flatspace import (
    ROTATION_ANGLES,
    CircleActionSpec,
    FlatModel,
    action_rotation,
    moment_field,
    moment_map,
    rotation_degree_check,
)
from hkgeom.forms import (
    FDScheme,
    FormField,
    ScalarField,
    _as_matrices,
    basis_indices,
    dc_deriv,
    ddc,
    ext_deriv,
    fd_gradient,
    fd_jacobian,
    hodge_star,
    laplacian,
    type11_residual,
)
from hkgeom.twistor import (
    _DDC_SCHEME,
    curvature_FZ_field,
    log_hU_field,
    pack_point,
    twistor_structure,
)

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

OMEGA1 = np.array([1.0, 0, 0, 0, 0, 1.0])  # dx0^dx1 + dx2^dx3
OMEGA2 = np.array([0, 1.0, 0, 0, -1.0, 0])  # dx0^dx2 - dx1^dx3
OMEGA3 = np.array([0, 0, 1.0, 1.0, 0, 0])  # dx0^dx3 + dx1^dx2


def _rows(fn):
    """A batch callback that evaluates the one-point callback fn row by row."""
    return lambda points: np.array([fn(x) for x in points])


def test_basis_indices_shape():
    assert basis_indices(4, 2) == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert len(basis_indices(6, 3)) == 20
    assert basis_indices(3, 0) == ((),)


def test_pullback_by_rotation_preserves_evaluation():
    # the pullback of a 2-form with matrix M by A is A^T M A, and
    # omega(X, Y) is X^T M Y: so (A^T M A)(X, Y) = M(AX, AY)
    rng = np.random.default_rng(4)
    M = _as_matrices(rng.standard_normal(6), 4)
    A = np.linalg.qr(rng.standard_normal((4, 4)))[0]
    X, Y = rng.standard_normal(4), rng.standard_normal(4)
    assert np.isclose(X @ (A.T @ M @ A) @ Y, (A @ X) @ M @ (A @ Y))


def _loop_matrix(comps, dim):
    """Reference: the degree-2 matrix filled entry by entry."""
    M = np.zeros((dim, dim), dtype=comps.dtype)
    for pos, (i, j) in enumerate(basis_indices(dim, 2)):
        M[i, j] = comps[pos]
        M[j, i] = -comps[pos]
    return M


def test_as_matrix_and_pullback_bitwise_equal_per_pair_evaluation():
    rng = np.random.default_rng(6)
    for trial in range(300):
        n = int(rng.integers(2, 15))
        comps = rng.standard_normal((3, n * (n - 1) // 2))
        if trial % 2:
            comps = comps + 1j * rng.standard_normal(comps.shape)
        got = _as_matrices(comps, n)
        assert got.dtype == comps.dtype
        assert np.array_equal(got, [_loop_matrix(c, n) for c in comps])
    # rotation_degree_check pulls omega2 + i omega3 back by stacked
    # products; reference: R[:, i] @ M @ R[:, j] per pair, M filled entry by entry
    for n in (1, 2, 3):
        for spec in (
            CircleActionSpec(k=(0,) * n, l=(1,) * n),
            CircleActionSpec(k=(1,) * n, l=(1,) * n),
            CircleActionSpec(k=(2,) * n, l=(-1,) * n),
        ):
            m = spec.model()
            omega_c = (m.omega2 + 1j * m.omega3)[np.triu_indices(m.dim, 1)]
            M = _loop_matrix(omega_c, m.dim)
            want = 0.0
            for th in ROTATION_ANGLES:
                R = action_rotation(spec, float(th))
                pulled = np.array([R[:, i] @ M @ R[:, j] for i, j in basis_indices(m.dim, 2)])
                gap = np.abs(pulled - np.exp(1j * spec.degree * th) * omega_c)
                want = max(want, float(np.max(gap)))
            assert rotation_degree_check(spec) == want


# -- exterior derivative -------------------------------------------------


def test_ext_deriv_of_coordinate_function():
    # d(x1) = dx1 exactly (0-based index 0 here)
    f = FormField(lambda p: p[:, :1], degree=0, dim=3)
    dw = ext_deriv(f, [[0.3, -0.2, 0.9]], FDScheme(h=1e-3, order=4))
    assert np.allclose(dw, [[1.0, 0.0, 0.0]], atol=1e-12)


def test_ext_deriv_of_x1_dx2():
    f = FormField(
        lambda p: np.stack([0.0 * p[:, 0], p[:, 0], 0.0 * p[:, 0]], axis=-1), degree=1, dim=3
    )  # x1 dx2
    dw = ext_deriv(f, [[0.5, 0.1, -0.4]], FDScheme(h=1e-3, order=4))
    assert np.allclose(dw, [[1.0, 0.0, 0.0]], atol=1e-12)  # dx1^dx2


def test_ext_deriv_closed_gradient_field():
    # dV for V = 1/|x| is exact, hence closed: residual < 1e-7.
    def dV(p):
        r = np.linalg.norm(p, axis=-1, keepdims=True)
        return -p / r**3

    f = FormField(dV, degree=1, dim=3, clearance=lambda p: np.linalg.norm(p, axis=-1))
    ddV = ext_deriv(f, [[1.0, 1.0, 1.0]], FDScheme(h=1e-3, order=4))
    assert np.linalg.norm(ddV) < 1e-7


def test_ext_deriv_margin_rejection():
    f = FormField(
        lambda p: 1.0 / np.linalg.norm(p, axis=-1, keepdims=True),
        degree=0,
        dim=2,
        clearance=lambda p: np.linalg.norm(p, axis=-1),
    )
    with pytest.raises(DomainError):
        ext_deriv(f, [[1e-4, 0.0]], FDScheme(h=1e-3, order=4))


def test_d_squared_vanishes_on_smooth_fields():
    # d(dw) residual bounded by scheme error on a non-polynomial field
    def w(p):
        x0, x1, x2 = p.T
        return np.stack([np.sin(x1 * x2), np.exp(0.3 * x0), np.cos(x0 + x1)], axis=-1)

    field = FormField(w, degree=1, dim=3)
    scheme = FDScheme(h=1e-2, order=4)
    dfield = FormField(lambda P: ext_deriv(field, P, scheme), degree=2, dim=3)
    rng = np.random.default_rng(5)
    for _ in range(5):
        p = rng.uniform(-1, 1, size=(1, 3))
        assert np.linalg.norm(ext_deriv(dfield, p, scheme)) < 1e-6


def test_ext_deriv_second_order_convergence():
    f = FormField(lambda p: np.sin(p[:, :1]) * np.exp(p[:, 1:]), 0, 2)
    p = np.array([[0.4, -0.3]])
    exact = np.array([np.cos(0.4) * np.exp(-0.3), np.sin(0.4) * np.exp(-0.3)])
    err = []
    for h in (1e-2, 5e-3):
        dw = ext_deriv(f, p, FDScheme(h=h, order=2))
        err.append(np.linalg.norm(dw[0] - exact))
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
        got = fd_jacobian(_rows(lambda x: _poly(coefs, x)), p[None], scheme)[0]
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
        dw = FormField(_rows(lambda x: ext_deriv(w, x[None], scheme)[0]), degree + 1, dim)
        scale = _abs_scale(coefs, p, 2 * scheme.radius)
        bound = 6 * EPS * scale * (WEIGHT_SUM[scheme.order] / scheme.h) ** 2
        assert np.max(np.abs(ext_deriv(dw, p[None], scheme))) <= bound

    check()


# -- d^c and dd^c ----------------------------------------------------------


def test_dc_of_constant_is_zero():
    f = ScalarField(lambda p: np.full(len(p), 3.7), dim=2)
    w = dc_deriv(f, I2, [[0.1, 0.2]], FDScheme(h=1e-3, order=4))
    assert np.allclose(w, 0.0, atol=1e-12)


def test_ddc_of_z_squared_over_two():
    # dd^c(|z|^2/2) = 2 dx^dy = i dz^dzbar  (symbolic oracle value)
    f = ScalarField(lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2), dim=2)
    F = ddc(f, I2, [[0.3, -0.8]], FDScheme(h=1e-3, order=4))
    assert np.allclose(F, [[2.0]], atol=1e-9)


def test_flat_moment_map_curvature_identity():
    # mu = -|w|^2/2 on H: omega1 + dd^c mu = dx0^dx1 - dx2^dx3,
    # i.e. (i/2)(dz^dzbar - dw^dwbar).
    mu = ScalarField(lambda p: -0.5 * (p[:, 2] ** 2 + p[:, 3] ** 2), dim=4)
    rng = np.random.default_rng(6)
    expected = np.array([1.0, 0, 0, 0, 0, -1.0])
    for _ in range(5):
        p = rng.uniform(-1, 1, size=(1, 4))
        F = OMEGA1 + ddc(mu, I4, p, FDScheme(h=1e-3, order=4))
        assert np.allclose(F, expected, atol=1e-9)


def test_dc_rejects_non_complex_structure():
    f = ScalarField(lambda p: p[:, 0], dim=2)
    with pytest.raises(StructureError):
        dc_deriv(f, np.eye(2), [[0.0, 0.0]], FDScheme(h=1e-3, order=4))


# -- batched dd^c against the nested composition ------------------------------


def _nested_ddc(f, I, p, scheme):
    """Reference: ext_deriv of the d^c 1-form field, one d^c stencil per outer point."""
    dc = FormField(
        _rows(lambda q: dc_deriv(f, I, q[None], scheme)[0]),
        degree=1,
        dim=f.dim,
        clearance=f.clearance,
    )
    return ext_deriv(dc, p, scheme)


SCHEMES = [
    pytest.param(FDScheme(h=1e-3, order=4), id="scheme0-None"),
    pytest.param(FDScheme(h=1e-2, order=2), id="scheme1-None"),
]


@pytest.mark.parametrize("scheme", SCHEMES)
def test_batched_ddc_equals_nested_constant_structure(scheme):
    rng = np.random.default_rng(11)
    for n in (1, 2, 3):
        model = FlatModel(n)
        spec = CircleActionSpec(k=(1,) * n, l=(1,) * n)
        p = rng.uniform(-1.5, 1.5, size=(1, 4 * n))
        got = ddc(moment_field(spec), model.I, p, scheme)
        want = _nested_ddc(moment_field(spec), model.I, p, scheme)
        assert np.array_equal(got, want)
    # a plain callback written for batches
    f = ScalarField(lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2), dim=4)
    p = rng.uniform(-1.5, 1.5, size=(1, 4))
    got = ddc(f, I4, p, scheme)
    assert np.array_equal(got, _nested_ddc(f, I4, p, scheme))


@pytest.mark.parametrize("scheme", SCHEMES)
def test_batched_ddc_equals_nested_point_dependent_structure(scheme):
    rng = np.random.default_rng(12)
    for n in (1, 2):
        zeta = 0.8 * np.exp(1j * rng.uniform(0.0, 2 * np.pi, size=1))
        p = pack_point(rng.standard_normal((1, n)), rng.standard_normal((1, n)), zeta)
        f, I = log_hU_field(n), twistor_structure(n)
        got = ddc(f, I, p, scheme)
        assert np.array_equal(got, _nested_ddc(f, I, p, scheme))


def test_batched_gradient_equals_pointwise_gradient():
    rng = np.random.default_rng(13)
    f = log_hU_field(2)
    S = twistor_structure(2)
    for scheme in (FDScheme(h=1e-3, order=4), FDScheme(h=1e-2, order=2)):
        z, w = rng.standard_normal((1, 2)), rng.standard_normal((1, 2))
        p = pack_point(z, w, [0.5j])
        want = -S(p)[0].T @ fd_gradient(f, p, scheme)[0]
        assert np.array_equal(dc_deriv(f, S, p, scheme)[0], want)


def test_ddc_margin_checked_at_outer_points():
    # base clearance 0.101 passes 10h (h = 1e-2); the outer point 2h closer
    # does not, and base clearance 0.121 keeps every outer point clear
    a = np.array([0.0, 0.0])
    f = ScalarField(
        lambda p: np.log(np.linalg.norm(p - a, axis=-1)),
        dim=2,
        clearance=lambda p: np.linalg.norm(p - a, axis=-1),
    )
    scheme = FDScheme(h=1e-2, order=4)
    with pytest.raises(DomainError):
        ddc(f, I2, [[0.101, 0.0]], scheme)
    with pytest.raises(DomainError):
        _nested_ddc(f, I2, [[0.101, 0.0]], scheme)
    ddc(f, I2, [[0.121, 0.0]], scheme)


def test_ddc_structure_checked_at_outer_points():
    # I is a complex structure at the base point only
    p0 = np.array([0.3, -0.2, 0.1, 0.4])

    def I(q):
        return I4 * (1.0 + np.linalg.norm(q - p0, axis=-1))[:, None, None]

    f = ScalarField(lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2), dim=4)
    dc_deriv(f, I, p0[None], FDScheme(h=1e-3, order=4))
    with pytest.raises(StructureError):
        ddc(f, I, p0[None], FDScheme(h=1e-3, order=4))


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
    "ahat_field": lambda rng: (gh.ahat_field(GH_TWO), _gh_chart_points(rng, 17)),
    "monopole_field": lambda rng: (gh.monopole_field(GH_TWO), _gh_chart_points(rng, 17)[:, :3]),
    "curvature_FZ_field": lambda rng: (curvature_FZ_field(2), _twistor_points(rng, 17, 2)),
}


@pytest.mark.parametrize("name", sorted(FIELD_FACTORIES))
def test_field_factories_keep_the_batch_contract(name):
    # every batch row has the bits of that point evaluated alone
    field, points = FIELD_FACTORIES[name](np.random.default_rng(14))
    batch = field(points)
    assert len(batch) == len(points)
    for row, p in zip(batch, points):
        assert np.array_equal(row, field(p[None])[0])


def test_form_field_rejects_a_batch_of_the_wrong_shape():
    field = FormField(lambda p: p, degree=1, dim=2)
    assert field(np.zeros((3, 2))).shape == (3, 2)
    with pytest.raises(ValueError):
        FormField(lambda p: p, degree=2, dim=4)(np.zeros((3, 4)))


# -- batched base points ----------------------------------------------------------
#
# Every operator takes (k, dim) base points, splits them into chunks whose
# stencils return at most MAX_STENCIL_VALUES values, and must give each row
# the bits of that point alone.  Each property runs at the library bound
# and at 64 values, where a chunk is one to five points, so batches cross
# chunk boundaries; the fixed cases below also cross the library bound.

BATCH_SETTINGS = settings(max_examples=10, derandomize=True, deadline=None)
VALUE_BOUNDS = (forms.MAX_STENCIL_VALUES, 64)


def _smooth_field(rng, dim, clearance=None):
    """A non-polynomial ScalarField on R^dim, written with row-wise reductions only."""
    a, b = rng.uniform(0.5, 1.5, dim), rng.uniform(-1.0, 1.0, dim)
    return ScalarField(
        lambda P: np.sin(np.sum(a * P, axis=-1)) + np.sum(b * P * P, axis=-1),
        dim,
        clearance=clearance,
    )


def _smooth_form(rng, dim, degree):
    """A degree-k FormField on R^dim whose component I is sin(a_I x_i + b_I x_j + c_I)."""
    nb = len(basis_indices(dim, degree))
    i, j = rng.integers(0, dim, nb), rng.integers(0, dim, nb)
    a, b, c = rng.uniform(-1.0, 1.0, (3, nb))
    return FormField(lambda P: np.sin(a * P[:, i] + b * P[:, j] + c), degree, dim)


def _rows_equal_alone(op, points):
    """op on the batch has one row per point, and each row has the bits of op on that point."""
    batch = op(points)
    assert len(batch) == len(points)
    for row, p in zip(batch, points):
        assert np.array_equal(row, op(p[None])[0])


def _structure_stack(rng, S, k):
    """k complex structures A S A^-1 for well-conditioned random A, as (k, N, N)."""
    A = np.eye(len(S)) + 0.2 * rng.uniform(-1.0, 1.0, (k, len(S), len(S)))
    return A @ S @ np.linalg.inv(A)


@pytest.mark.parametrize("bound", VALUE_BOUNDS)
def test_batched_d_and_laplacian_rows_equal_each_point_alone(monkeypatch, bound):
    monkeypatch.setattr(forms, "MAX_STENCIL_VALUES", bound)

    @BATCH_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.sampled_from([2, 4]))
    def check(seed, k, order):
        rng = np.random.default_rng(seed)
        scheme = FDScheme(h=1e-2, order=order)
        f = _smooth_field(rng, 4)
        P = rng.uniform(-1.0, 1.0, (k, 4))
        _rows_equal_alone(lambda p: ddc(f, I4, p, scheme), P)
        _rows_equal_alone(lambda p: dc_deriv(f, I4, p, scheme), P)
        _rows_equal_alone(lambda p: laplacian(f, p, scheme), P)
        _rows_equal_alone(lambda p: fd_gradient(f, p, scheme), P)

    check()


@pytest.mark.parametrize("bound", VALUE_BOUNDS)
def test_batched_ddc_rows_equal_each_point_alone_for_a_callable_structure(monkeypatch, bound):
    monkeypatch.setattr(forms, "MAX_STENCIL_VALUES", bound)

    @BATCH_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.sampled_from([1, 2]))
    def check(seed, k, n):
        rng = np.random.default_rng(seed)
        f, I = log_hU_field(n), twistor_structure(n)
        P = _twistor_points(rng, k, n)
        _rows_equal_alone(lambda p: ddc(f, I, p, _DDC_SCHEME), P)
        _rows_equal_alone(lambda p: dc_deriv(f, I, p, FDScheme(h=1e-3, order=4)), P)

    check()


@pytest.mark.parametrize("bound", VALUE_BOUNDS)
@pytest.mark.parametrize("degree", [0, 1, 2])
def test_batched_ext_deriv_rows_equal_each_point_alone(monkeypatch, bound, degree):
    monkeypatch.setattr(forms, "MAX_STENCIL_VALUES", bound)

    @BATCH_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9), st.sampled_from([3, 4, 14]))
    def check(seed, k, dim):
        rng = np.random.default_rng(seed)
        w = _smooth_form(rng, dim, degree)
        P = rng.uniform(-1, 1, (k, dim))
        _rows_equal_alone(lambda p: ext_deriv(w, p, FDScheme(h=1e-3, order=4)), P)

    check()


def test_batched_type11_rows_equal_each_form_alone():
    @BATCH_SETTINGS
    @given(st.integers(0, 2**32 - 1), st.integers(1, 9))
    def check(seed, k):
        rng = np.random.default_rng(seed)
        F = rng.standard_normal((k, 6))
        stack = _structure_stack(rng, I4, k)
        for S in (J4, stack):
            batch = type11_residual(F, S)
            for r in range(k):
                alone = type11_residual(F[r : r + 1], S if S.ndim == 2 else S[r])
                assert np.array_equal(batch[r], alone[0])

    check()


def test_batches_beyond_the_library_chunk_keep_every_row():
    # 130 points of R^3 are two chunks of a 1-form's first-derivative
    # stencils (113 points of 12 rows and 3 values each); 13 points of R^6
    # are two chunks of nested dd^c stencils (12 points of 336 distinct rows
    # each)
    rng = np.random.default_rng(21)
    w = _smooth_form(rng, 3, 1)
    assert 130 > forms.MAX_STENCIL_VALUES // (4 * 3 * 3)
    P = rng.uniform(-1, 1, (130, 3))
    _rows_equal_alone(lambda p: ext_deriv(w, p, FDScheme(h=1e-3, order=4)), P)
    P = _twistor_points(rng, 13, 1)
    assert 13 > forms.MAX_STENCIL_VALUES // (4**2 * 6 * 7 // 2)
    f, I = log_hU_field(1), twistor_structure(1)
    _rows_equal_alone(lambda p: ddc(f, I, p, FDScheme(h=1e-3, order=4)), P)


def test_one_field_call_returns_at_most_the_value_bound():
    calls = []
    f = _smooth_field(np.random.default_rng(22), 4)
    counted = ScalarField(lambda P: calls.append(len(P)) or f.fn(P), 4)
    P = np.random.default_rng(23).uniform(-1, 1, (40, 4))
    ddc(counted, I4, P, FDScheme(h=1e-2, order=4))
    # 160 distinct rows of the 256 nested stencil points per point of R^4
    assert max(calls) <= forms.MAX_STENCIL_VALUES and sum(calls) == 40 * 160
    calls.clear()
    laplacian(counted, P[:1], FDScheme(h=1e-3, order=4))
    assert calls == [1 + 16]  # never less than one base point
    # a form field's row counts its nb components: a 2-form on R^14 has 91,
    # so one point's 56 stencil rows already exceed the bound
    w = _smooth_form(np.random.default_rng(24), 14, 2)
    counted = FormField(lambda P: calls.append(len(P)) or w.fn(P), 2, 14)
    calls.clear()
    ext_deriv(counted, np.zeros((3, 14)), FDScheme(h=1e-3, order=4))
    assert calls == [56, 56, 56]
    # a map's row counts its N outputs: after the first point alone, which
    # fixes N = 14, chunks of 5 points of 56 stencil rows and 14 values each
    values = []
    fd_jacobian(
        lambda P: values.append(P.size) or np.sin(P), np.zeros((10, 14)), FDScheme(h=1e-3, order=4)
    )
    assert values == [14, 5 * 56 * 14, 5 * 56 * 14]


def _every_point_ddc(f, I, P, scheme):
    """dd^c with every nested stencil point evaluated: the inner stencil of each outer point."""
    Q = forms._stencil_points(P, scheme)
    S = I(Q) if callable(I) else I
    vals = f(forms._stencil_points(Q, scheme))
    dc = forms._dc_contract(S, forms._stencil_derivatives(vals, len(Q), scheme))
    D = forms._stencil_derivatives(dc, len(P), scheme)
    a, b = np.triu_indices(f.dim, 1)
    return D[:, a, b] - D[:, b, a]


def _turning_structure(n):
    """cos t I + sin t J at t = 0.3 sum(x) on flat H^n: a point-dependent complex structure."""
    model = FlatModel(n)

    def structure(Q):
        t = 0.3 * np.sum(Q, axis=1)[:, None, None]
        return np.cos(t) * model.I + np.sin(t) * model.J

    return structure


def _no_zero_points(rng, k, dim):
    """(k, dim) points whose coordinates all lie in 0.2 <= |x| <= 1."""
    return rng.uniform(0.2, 1.0, (k, dim)) * rng.choice([-1.0, 1.0], (k, dim))


@pytest.mark.parametrize("k", [1, 5])
@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("n", [1, 3])
def test_ddc_has_the_bits_of_every_nested_point_evaluated(n, order, k):
    rng = np.random.default_rng(25 + n + order + k)
    f = _smooth_field(rng, 4 * n)
    P = _no_zero_points(rng, k, 4 * n)
    scheme = FDScheme(h=1e-2, order=order)
    for I in (FlatModel(n).I, _turning_structure(n)):
        want = _every_point_ddc(f, I, P, scheme)
        assert np.array_equal(ddc(f, I, P, scheme), want)


@pytest.mark.parametrize("k", [1, 5])
def test_twistor_ddc_has_the_bits_of_every_nested_point_evaluated(k):
    rng = np.random.default_rng(26 + k)
    f, I = log_hU_field(3), twistor_structure(3)
    P = _twistor_points(rng, k, 3)
    assert np.all(P != 0.0)
    want = _every_point_ddc(f, I, P, _DDC_SCHEME)
    assert np.array_equal(ddc(f, I, P, _DDC_SCHEME), want)


@pytest.mark.parametrize(
    "dim, scheme, per_point",
    [
        pytest.param(4, FDScheme(h=1e-2, order=2), 40, id="4-scheme0-None"),
        pytest.param(4, FDScheme(h=1e-2, order=4), 160, id="4-scheme1-None"),
        pytest.param(12, FDScheme(h=1e-2, order=4), 1248, id="12-scheme2-None"),
        pytest.param(12, FDScheme(h=1e-1, order=2), 312, id="12-flat"),
        pytest.param(14, _DDC_SCHEME, 1680, id="14-twistor"),
    ],
)
def test_ddc_evaluates_each_distinct_point_once(dim, scheme, per_point):
    rng = np.random.default_rng(27)
    seen = []
    f = _smooth_field(rng, dim)
    counted = ScalarField(lambda Q: seen.append(Q.copy()) or f.fn(Q), dim)
    P = _no_zero_points(rng, 2, dim)
    ddc(counted, np.kron(np.eye(dim // 2), I2), P, scheme)
    rows = np.concatenate(seen)
    O = len(forms._OFFSETS[scheme.order])
    assert per_point == O**2 * dim * (dim + 1) // 2 and len(rows) == 2 * per_point
    # a point that moves two coordinates is never sent twice; one that moves
    # a coordinate by s and then t may round to the bits of t then s, or of
    # the base point
    two = np.sum(rows.reshape(2, per_point, dim) != P[:, None, :], axis=2).ravel() == 2
    assert np.sum(two) == 2 * O**2 * dim * (dim - 1) // 2
    assert len(np.unique(rows[two], axis=0)) == np.sum(two)
    # the same points as the full nested stencil, which repeats each off-diagonal one
    nested = forms._stencil_points(forms._stencil_points(P, scheme), scheme)
    assert np.array_equal(np.unique(rows, axis=0), np.unique(nested, axis=0))


def _nested_table_by_sorting(scheme, dim):
    """The nested-stencil table as a sort of every nested point's key builds it."""
    steps = np.array(forms._OFFSETS[scheme.order]) * scheme.h
    o2, o1, i, j = np.indices((len(steps), len(steps), dim, dim)).reshape(4, -1)
    swap = i > j
    s, t = steps[o1], steps[o2]
    keys = np.stack(
        [np.where(swap, j, i), np.where(swap, t, s), np.where(swap, i, j), np.where(swap, s, t)],
        axis=1,
    )
    distinct, back = np.unique(keys, axis=0, return_inverse=True)
    cols_a, steps_a, cols_b, steps_b = distinct.T
    return cols_a.astype(int), steps_a, cols_b.astype(int), steps_b, back.reshape(-1)


def _ext_deriv_table_by_lookup(dim, degree):
    """The exterior-derivative table as one dict lookup per entry builds it."""
    pos_k = {idx: pos for pos, idx in enumerate(basis_indices(dim, degree))}
    top = basis_indices(dim, degree + 1)
    coords = np.array(top, dtype=int).reshape(len(top), degree + 1)
    rests = np.array(
        [[pos_k[J[:m] + J[m + 1 :]] for m in range(degree + 1)] for J in top], dtype=int
    ).reshape(len(top), degree + 1)
    return coords, rests, (-1.0) ** np.arange(degree + 1)


def _assert_same_table(table, want):
    assert len(table) == len(want)
    for column, expected in zip(table, want):
        assert column.dtype == expected.dtype and column.shape == expected.shape
        assert column.tobytes() == expected.tobytes()
        assert not column.flags.writeable


@pytest.mark.parametrize("order", [2, 4])
@pytest.mark.parametrize("h", [0.1, 2e-3, 1e-3, 1e-5, 2e-2, 0.3])
def test_nested_table_is_the_sorted_table(order, h):
    scheme = FDScheme(h=h, order=order)
    for dim in range(1, 17):
        _assert_same_table(forms._nested_table(scheme, dim), _nested_table_by_sorting(scheme, dim))


@pytest.mark.parametrize("dim", range(1, 15))
def test_ext_deriv_table_is_the_looked_up_table(dim):
    for degree in range(dim + 1):
        _assert_same_table(
            forms._ext_deriv_table(dim, degree), _ext_deriv_table_by_lookup(dim, degree)
        )


def test_one_bad_row_fails_the_whole_batch():
    a = np.zeros(4)
    rng = np.random.default_rng(24)
    f = _smooth_field(rng, 4, clearance=lambda p: np.linalg.norm(p - a, axis=-1))
    w = FormField(lambda P: np.sin(P), 1, 4, clearance=lambda p: np.linalg.norm(p - a, axis=-1))
    P = rng.uniform(0.5, 1.0, (6, 4))
    P[3] = 1e-3  # inside the 10h margin of the singular point a
    scheme = FDScheme(h=1e-3, order=4)
    for op in (
        lambda: ddc(f, I4, P, scheme),
        lambda: dc_deriv(f, I4, P, scheme),
        lambda: laplacian(f, P, scheme),
        lambda: ext_deriv(w, P, scheme),
    ):
        with pytest.raises(DomainError):
            op()
    P[3] = 0.7

    def I(q):  # a complex structure everywhere but near the fourth point
        S = np.broadcast_to(I4, (len(q), 4, 4)).copy()
        S[np.linalg.norm(q - 0.7, axis=-1) < 0.1] *= 2.0
        return S

    with pytest.raises(StructureError):
        ddc(f, I, P, scheme)
    with pytest.raises(StructureError):
        dc_deriv(f, I, P, scheme)
    stack = _structure_stack(rng, I4, 6)
    stack[3] = np.eye(4)
    with pytest.raises(StructureError):
        type11_residual(rng.standard_normal((6, 6)), stack)


#: every operator and field call, on points p
_F4 = ScalarField(lambda P: np.sum(P * P, axis=-1), 4)
_W4 = FormField(lambda P: np.sin(P), 1, 4)
_OPERATORS = {
    "fd_gradient": lambda p: fd_gradient(_F4, p, FDScheme(h=1e-3, order=4)),
    "fd_jacobian": lambda p: fd_jacobian(_W4, p, FDScheme(h=1e-3, order=4)),
    "ext_deriv": lambda p: ext_deriv(_W4, p, FDScheme(h=1e-3, order=4)),
    "dc_deriv": lambda p: dc_deriv(_F4, I4, p, FDScheme(h=1e-3, order=4)),
    "ddc": lambda p: ddc(_F4, I4, p, FDScheme(h=1e-3, order=4)),
    "laplacian": lambda p: laplacian(_F4, p, FDScheme(h=1e-3, order=4)),
    "ScalarField": lambda p: _F4(p),
    "FormField": lambda p: _W4(p),
}


@pytest.mark.parametrize("name", sorted(_OPERATORS))
def test_operators_take_batches_only(name):
    call = _OPERATORS[name]
    assert len(call(np.zeros((2, 4)))) == 2
    with pytest.raises(ConfigError, match=r"shape \((k, 4|k, dim)\), got shape \(4,\)"):
        call(np.zeros(4))
    if name != "fd_gradient" and name != "fd_jacobian":  # they take any dim
        with pytest.raises(ConfigError, match=r"shape \(k, 4\), got shape \(2, 3\)"):
            call(np.zeros((2, 3)))
    with pytest.raises(ConfigError, match=r"at least one point, got shape \(0, 4\)"):
        call(np.zeros((0, 4)))


@pytest.mark.parametrize(
    "call",
    [
        lambda: gh.gh_potential(gh.GHConfig(centers=(0.0, 1.0)), np.zeros((0, 3))),
        lambda: moment_map(CircleActionSpec(k=(1,), l=(1,)), np.zeros((0, 4))),
    ],
    ids=["gh_potential", "moment_map"],
)
def test_closed_forms_reject_an_empty_batch(call):
    with pytest.raises(ConfigError, match="at least one point"):
        call()


def test_type11_residual_takes_batches_only():
    assert type11_residual(OMEGA1[None], I4).shape == (1,)
    with pytest.raises(ConfigError, match=r"shape \(k, 6\), got shape \(6,\)"):
        type11_residual(OMEGA1, I4)


def test_clearance_must_return_one_distance_per_point():
    f = ScalarField(_F4.fn, 4, clearance=lambda P: np.linalg.norm(P))  # one norm for the batch
    with pytest.raises(ValueError, match="clearance callable"):
        laplacian(f, np.ones((3, 4)), FDScheme(h=1e-3, order=4))


def test_structure_callable_must_return_one_matrix_per_point():
    f = _smooth_field(np.random.default_rng(25), 4)
    with pytest.raises(ValueError, match="structure callable"):
        ddc(f, lambda q: I4, np.zeros((1, 4)), FDScheme(h=1e-3, order=4))


@pytest.mark.parametrize("operator", [dc_deriv, ddc])
def test_a_constant_structure_of_the_wrong_shape_is_refused(operator):
    f = _smooth_field(np.random.default_rng(26), 4)
    with pytest.raises(ConfigError, match=r"shape \(4, 4\), got \(6, 6\)"):
        operator(f, np.eye(6), np.zeros((1, 4)), FDScheme(h=1e-3, order=4))


_CHUNK_FAULTS = """\
import resource, sys
sys.path.insert(0, sys.argv[1])
from hkgeom.suites import RunConfig, run_check
cfg = RunConfig(suite="twistor", n=3)
run_check(cfg, "twistor.hermitian.curvature")
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for _ in range(3):
    run_check(cfg, "twistor.hermitian.curvature")
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before)
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="M_TOP_PAD is a glibc option")
def test_chunks_reuse_the_heap_instead_of_faulting_it_in():
    # in a fresh process without the heap pad, the chunks of this check's
    # nested dd^c stencils at dim 14 free their temporaries back to the
    # system and fault them in again, 1,494 page faults over the three runs;
    # the pad keeps them
    src = str(Path(forms.__file__).resolve().parents[1])
    proc = subprocess.run(
        [sys.executable, "-c", _CHUNK_FAULTS, src], capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stderr
    assert int(proc.stdout) < 100


# -- Laplacian ----------------------------------------------------------------


def test_laplacian_quadratics():
    # both stencil orders are exact on a quadratic, leaving roundoff ~eps |f| / h^2
    f = ScalarField(lambda p: p[:, 0] ** 2, dim=3)
    g = ScalarField(lambda p: np.sum(p * p, axis=-1), dim=3)
    for scheme in (FDScheme(h=1e-3, order=4), FDScheme(h=1e-3, order=2)):
        assert np.isclose(laplacian(f, [[0.2, 0.3, 0.4]], scheme)[0], 2.0, atol=1e-8)
        assert np.isclose(laplacian(g, [[0.5, -0.1, 0.2]], scheme)[0], 6.0, atol=1e-8)


def test_laplacian_harmonic_kernel():
    a = np.array([0.2, -0.1, 0.05])
    f = ScalarField(
        lambda p: 1.0 / np.linalg.norm(p - a, axis=-1),
        dim=3,
        clearance=lambda p: np.linalg.norm(p - a, axis=-1),
    )
    rng = np.random.default_rng(7)
    for _ in range(10):
        p = a + rng.uniform(0.5, 1.5, size=3) * rng.choice([-1.0, 1.0], size=3)
        assert abs(laplacian(f, p[None], FDScheme(h=1e-3, order=4))[0]) < 1e-6


# -- Hodge star ----------------------------------------------------------------


def test_hodge_star_euclidean_r3():
    s = hodge_star(np.eye(3), +1, [[1.0, 0.0, 0.0]], 1)  # dx1
    assert np.allclose(s, [[0.0, 0.0, 1.0]])  # dx2^dx3


def test_hodge_star_self_dual_triple_r4():
    triple = np.array([OMEGA1, OMEGA2, OMEGA3])
    assert np.allclose(hodge_star(np.eye(4), +1, triple, 2), triple, atol=1e-14)


def test_hodge_star_double_application_sign():
    rng = np.random.default_rng(8)
    for (N, k) in [(3, 1), (4, 2), (4, 1), (5, 2)]:
        w = rng.standard_normal((1, len(basis_indices(N, k))))
        A = rng.standard_normal((N, N))
        g = A @ A.T + N * np.eye(N)
        ss = hodge_star(g, +1, hodge_star(g, +1, w, k), N - k)
        sign = (-1) ** (k * (N - k))
        assert np.allclose(ss, sign * w, atol=1e-10)


def _norm_2form(g, comps):
    """Metric norm of a 2-form with matrix M: sqrt(tr(M^T G^-1 M G^-1) / 2)."""
    M, Gi = _as_matrices(comps, len(g)), np.linalg.inv(g)
    return np.sqrt(0.5 * np.trace(M.T @ Gi @ M @ Gi))


def test_hodge_star_isometry():
    rng = np.random.default_rng(9)
    for _ in range(10):
        A = rng.standard_normal((4, 4))
        g = A @ A.T + 4 * np.eye(4)
        w = rng.standard_normal(6)
        assert np.isclose(
            _norm_2form(g, hodge_star(g, +1, w[None], 2)[0]),
            _norm_2form(g, w),
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
        return -0.5 * p / r**3

    field = FormField(
        alpha, degree=1, dim=3, clearance=lambda p: np.hypot(p[:, 1], p[:, 2])
    )
    rng = np.random.default_rng(10)
    for _ in range(20):
        p = rng.uniform(-1.5, 1.5, size=3)
        if np.hypot(p[1], p[2]) < 0.3:
            continue
        da = ext_deriv(field, p[None], FDScheme(h=1e-4, order=4))[0]
        sdv = hodge_star(np.eye(3), +1, dV(p)[None], 1)[0]
        assert np.allclose(da, sdv, atol=1e-6)


def test_hodge_star_rejects_singular_metric():
    with pytest.raises(MetricError):
        hodge_star(np.diag([1.0, 0.0]), +1, [[1.0, 0.0]], 1)


def test_hodge_star_rejects_an_asymmetric_metric():
    # off by 1e-6 in one entry: inside numpy's default rtol of 1e-5, but far
    # outside the absolute 1e-12 the check states; eigvalsh alone reads one
    # triangle and would pass it
    g = np.array([[2.0, 1.0 + 1e-6], [1.0, 2.0]])
    with pytest.raises(MetricError, match="not symmetric"):
        hodge_star(g, +1, [[1.0, 0.0]], 1)
    with pytest.raises(MetricError, match="not symmetric"):
        hodge_star(np.array([np.eye(2), g]), +1, np.ones((2, 2)), 1)


def _gh_star_batch(rows):
    cfg = gh.GHConfig(centers=(0.0, 1.0, 3.0))
    rng = np.random.default_rng(30)
    x = rng.uniform(-1.0, 4.0, size=(rows, 3))
    x[:, 1:] += np.sign(x[:, 1:]) * 0.5  # off the axis and the centres
    p = np.column_stack([x, rng.uniform(0.0, 2.0 * np.pi, rows)])
    return gh.gh_metric(cfg, p), rng.standard_normal((rows, 6))


def test_hodge_star_rows_equal_their_one_row_batches():
    g, F = _gh_star_batch(60)
    star = hodge_star(g, 1, F, 2)
    assert star.shape == (60, 6)
    for r in range(60):
        assert np.array_equal(star[r], hodge_star(g[r : r + 1], 1, F[r : r + 1], 2)[0]), r
        assert np.array_equal(star[r], hodge_star(g[r], 1, F[r : r + 1], 2)[0]), r
    # a non-contiguous batch of forms, with one metric for all of them
    wide = np.random.default_rng(31).standard_normal((40, 12))
    strided = wide[:, ::2]
    assert not strided.flags.c_contiguous
    star = hodge_star(g[0], -1, strided, 2)
    for r in range(40):
        assert np.array_equal(star[r], hodge_star(g[0], -1, strided[r : r + 1], 2)[0]), r
    assert np.array_equal(star, hodge_star(g[0], -1, np.ascontiguousarray(strided), 2))


def test_hodge_star_takes_batches_only():
    with pytest.raises(ConfigError, match=r"shape \(k, nb\) = \(k, 6\), got shape \(6,\)"):
        hodge_star(np.eye(4), 1, OMEGA1, 2)
    with pytest.raises(ConfigError, match=r"shape \(k, nb\) = \(k, 4\), got shape \(1, 6\)"):
        hodge_star(np.eye(4), 1, OMEGA1[None], 1)
    with pytest.raises(ConfigError, match="2 forms need 2 metrics, got 3"):
        hodge_star(np.array([np.eye(4)] * 3), 1, np.ones((2, 6)), 2)
    with pytest.raises(ConfigError, match=r"metrics must have shape"):
        hodge_star(np.eye(4)[0], 1, np.ones((2, 4)), 1)


# -- type (1,1) residual ---------------------------------------------------------


def test_type11_omega1_is_11_for_I():
    assert type11_residual(OMEGA1[None], I4)[0] < 1e-14


def test_type11_omega2_is_20_plus_02_for_I():
    # omega2 is (2,0)+(0,2) for I: residual is 2 (direct flat-basis expansion)
    assert np.isclose(type11_residual(OMEGA2[None], I4)[0], 2.0)


def test_type11_flat_curvature_all_structures():
    F = np.array([[1.0, 0, 0, 0, 0, -1.0]])  # (i/2)(dz dzbar - dw dwbar)
    for S in (I4, J4, K4):
        assert type11_residual(F, S)[0] < 1e-12


def test_type11_invariant_under_frame_rotation():
    rng = np.random.default_rng(11)
    F = rng.standard_normal(6)
    base = type11_residual(F[None], I4)[0]
    for _ in range(5):
        Q = np.linalg.qr(rng.standard_normal((4, 4)))[0]
        Fq = (Q.T @ _as_matrices(F, 4) @ Q)[np.triu_indices(4, 1)]  # the pullback Q^T M Q
        Sq = Q.T @ I4 @ Q
        assert np.isclose(type11_residual(Fq[None], Sq)[0], base, atol=1e-10)


def test_type11_rejects_non_structure():
    with pytest.raises(StructureError):
        type11_residual(OMEGA1[None], np.eye(4))


def test_type11_needs_one_structure_per_form():
    assert type11_residual(np.stack([OMEGA1] * 2), np.stack([I4] * 2)).shape == (2,)
    with pytest.raises(ConfigError, match="2 forms need 2 structures, got 3"):
        type11_residual(np.stack([OMEGA1] * 2), np.stack([I4] * 3))
    for bad in (I4[0], I4[None, None]):  # one matrix or one per form, nothing else
        with pytest.raises(ConfigError, match=r"\(N, N\) or \(k, N, N\)"):
            type11_residual(OMEGA1[None], bad)


# -- scheme validation ---------------------------------------------------------------


def test_fdscheme_validation():
    for h in (-1e-3, 0.0, np.inf, np.nan):
        with pytest.raises(ConfigError, match=f"got {h!r}"):
            FDScheme(h=h, order=4)
    with pytest.raises(ConfigError, match="got 3"):
        FDScheme(h=1e-3, order=3)
    assert FDScheme(h=1e-3, order=4).radius == pytest.approx(2e-3)
