"""Tests for flat H^n, its Kähler triple, circle actions and moment maps."""

import numpy as np
import pytest

from hkgeom.errors import StructureError
from hkgeom.flatspace import (
    CircleActionSpec,
    FlatModel,
    action_generator,
    action_rotation,
    action_vector_field,
    hyperholo_curvature,
    moment_field,
    moment_map,
    rotation_degree_check,
)
from hkgeom.forms import (
    FDScheme,
    FormField,
    ScalarField,
    ext_deriv,
    fd_gradient,
    interior_product,
    type11_residual,
    wedge,
)


def test_quaternion_relations():
    for n in (1, 2, 3):
        m = FlatModel(n)
        eye = np.eye(m.dim)
        for S in m.structures():
            assert np.allclose(S @ S, -eye)
        assert np.allclose(m.I @ m.J, m.K)
        assert np.allclose(m.J @ m.K, m.I)
        assert np.allclose(m.K @ m.I, m.J)


def test_kahler_triple_n1_components():
    m = FlatModel(1)
    w1, w2, w3 = m.kahler_triple()
    assert np.allclose(w1.comps, [1, 0, 0, 0, 0, 1])  # dx0^dx1 + dx2^dx3
    assert np.allclose(w2.comps, [0, 1, 0, 0, -1, 0])  # dx0^dx2 - dx1^dx3
    assert np.allclose(w3.comps, [0, 0, 1, 1, 0, 0])  # dx0^dx3 + dx1^dx2


def test_omega_matches_complex_formulas():
    m = FlatModel(2)
    w1, w2, w3 = m.kahler_triple()
    # omega1 = (i/2) sum(dz dzbar + dw dwbar); omega2 + i omega3 = sum dz^dw
    acc1 = None
    acc_c = None
    for i in range(m.n):
        t1 = 0.5j * (
            wedge(m.dz(i), m.dzbar(i)) + wedge(m.dw(i), m.dwbar(i))
        )
        tc = wedge(m.dz(i), m.dw(i))
        acc1 = t1 if acc1 is None else acc1 + t1
        acc_c = tc if acc_c is None else acc_c + tc
    assert np.allclose(acc1.comps, w1.comps, atol=1e-14)
    assert np.allclose(acc_c.comps, (w2 + 1j * w3).comps, atol=1e-14)


def test_omega_complex_on_unit_tangent_pair():
    m = FlatModel(1)
    X = m.from_complex(1.0, 0.0)  # tangent dz = 1
    Y = m.from_complex(0.0, 1.0)  # tangent dw = 1
    val = (m.omega2 + 1j * m.omega3)(X, Y)
    assert np.isclose(val, 1.0)


def test_omega_is_g_compatible_with_structures():
    rng = np.random.default_rng(12)
    m = FlatModel(2)
    for S, w in zip(m.structures(), m.kahler_triple()):
        for _ in range(10):
            X, Y = rng.standard_normal(m.dim), rng.standard_normal(m.dim)
            assert np.isclose(w(X, Y), (S @ X) @ m.metric @ Y, atol=1e-12)


# -- circle actions -----------------------------------------------------------


def test_action_spec_requires_constant_degree():
    with pytest.raises(StructureError):
        CircleActionSpec(k=(1, 0), l=(0, 0))
    spec = CircleActionSpec(k=(1, 0), l=(1, 2))
    assert spec.degree == 2


def test_action_vector_field_examples():
    spec = CircleActionSpec(k=(0,), l=(1,))
    m = spec.model()
    p = m.from_complex(1.0, 1.0)
    X = action_vector_field(spec, p)
    assert np.allclose(X, [0.0, 0.0, 0.0, 1.0])  # (0, i) in complex notation

    spec2 = CircleActionSpec(k=(1,), l=(1,))
    X2 = action_vector_field(spec2, p)
    assert np.allclose(X2, [0.0, 1.0, 0.0, 1.0])  # (i, i)

    trivial = CircleActionSpec(k=(0,), l=(0,))
    assert np.allclose(action_vector_field(trivial, p), 0.0)


def test_action_generator_is_killing_and_omega1_invariant():
    for spec in (
        CircleActionSpec(k=(0, 0), l=(1, 1)),
        CircleActionSpec(k=(1, 1), l=(1, 1)),
        CircleActionSpec(k=(2, 3), l=(1, 0)),
    ):
        A = action_generator(spec)
        assert np.max(np.abs(A + A.T)) < 1e-12  # Killing for the flat metric
        m = spec.model()
        M1 = m.omega1.as_matrix()
        # infinitesimal invariance of omega1: A^T M + M A = 0
        assert np.max(np.abs(A.T @ M1 + M1 @ A)) < 1e-12
        # the action is I-holomorphic
        assert np.max(np.abs(A @ m.I - m.I @ A)) < 1e-12


def test_moment_map_values():
    spec = CircleActionSpec(k=(0,), l=(1,))
    m = spec.model()
    p = m.from_complex(1.5 + 0.5j, 2.0 - 1.0j)
    assert np.isclose(moment_map(spec, p), -0.5 * (2.0**2 + 1.0**2))
    full = CircleActionSpec(k=(1,), l=(1,))
    assert np.isclose(
        moment_map(full, p), -0.5 * (abs(1.5 + 0.5j) ** 2 + abs(2.0 - 1.0j) ** 2)
    )
    trivial = CircleActionSpec(k=(0,), l=(0,))
    assert moment_map(trivial, p) == 0.0
    assert moment_map(spec, np.zeros(4)) == 0.0  # mu(0) = 0 normalization


@pytest.mark.parametrize("n", [1, 2, 3])
def test_moment_map_batch_matches_rows(n):
    rng = np.random.default_rng(20 + n)
    rows = rng.uniform(-1.5, 1.5, size=(200, 4 * n))
    for spec in (
        CircleActionSpec(k=(0,) * n, l=(1,) * n),
        CircleActionSpec(k=(1,) * n, l=(1,) * n),
        CircleActionSpec(k=(2,) * n, l=(-1,) * n),
    ):
        batch = moment_map(spec, rows)
        assert batch.shape == (200,)
        assert np.array_equal(batch, [moment_map(spec, row) for row in rows])
        assert isinstance(moment_map(spec, rows[0]), float)


def test_moment_map_defining_equation():
    # d mu = i_X omega1 at random points, FD residual < 1e-9
    rng = np.random.default_rng(13)
    scheme = FDScheme(h=1e-3, order=4)
    for spec in (
        CircleActionSpec(k=(0, 0), l=(1, 1)),
        CircleActionSpec(k=(1, 1), l=(1, 1)),
        CircleActionSpec(k=(2, -1), l=(-1, 2)),
    ):
        m = spec.model()
        mu = moment_field(spec)
        for _ in range(100):
            p = rng.uniform(-1, 1, size=m.dim)
            dmu = fd_gradient(mu, p, scheme)
            ix = interior_product(action_vector_field(spec, p), m.omega1)
            assert np.max(np.abs(dmu - ix.comps)) < 1e-9


# -- curvature of the associated bundle ------------------------------------------


def test_curvature_weight_01():
    spec = CircleActionSpec(k=(0,), l=(1,))
    rng = np.random.default_rng(14)
    expected = np.array([1.0, 0, 0, 0, 0, -1.0])  # (i/2)(dz dzbar - dw dwbar)
    for _ in range(5):
        p = rng.uniform(-1, 1, size=4)
        F = hyperholo_curvature(spec, p, FDScheme(h=1e-3, order=4))
        assert np.allclose(F.comps, expected, atol=1e-9)


def test_curvature_full_rotation_vanishes():
    # degree-2 full rotation: the associated bundle is flat
    spec = CircleActionSpec(k=(1,), l=(1,))
    rng = np.random.default_rng(15)
    for _ in range(5):
        p = rng.uniform(-1, 1, size=4)
        F = hyperholo_curvature(spec, p, FDScheme(h=1e-3, order=4))
        assert F.norm() < 1e-9


def test_curvature_trivial_action_is_omega1():
    spec = CircleActionSpec(k=(0, 0), l=(0, 0))
    m = spec.model()
    F = hyperholo_curvature(spec, np.ones(m.dim) * 0.3)
    assert np.allclose(F.comps, m.omega1.comps)


def test_curvature_type11_for_all_structures():
    # the (1,1) property w.r.t. I, J and K at random points
    rng = np.random.default_rng(16)
    for spec in (
        CircleActionSpec(k=(0, 0), l=(1, 1)),
        CircleActionSpec(k=(1, 1), l=(1, 1)),
    ):
        m = spec.model()
        for _ in range(20):
            p = rng.uniform(-1, 1, size=m.dim)
            F = hyperholo_curvature(spec, p, FDScheme(h=1e-3, order=4))
            for S in m.structures():
                assert type11_residual(F, S) < 1e-8


def test_curvature_is_closed():
    spec = CircleActionSpec(k=(0,), l=(1,))
    scheme = FDScheme(h=1e-3, order=4)
    field = FormField(
        lambda ps: np.array([hyperholo_curvature(spec, p, scheme).comps for p in ps]),
        degree=2,
        dim=4,
    )
    dF = ext_deriv(field, [0.2, -0.4, 0.5, 0.1], FDScheme(h=1e-2, order=2))
    assert dF.norm() < 1e-5


# -- rotation degree -------------------------------------------------------------


@pytest.mark.parametrize(
    "k,l,deg",
    [((0,), (1,), 1), ((1,), (1,), 2), ((2,), (0,), 2), ((0, 0), (3, 3), 3)],
)
def test_rotation_degree_scaling(k, l, deg):
    spec = CircleActionSpec(k=k, l=l)
    assert spec.degree == deg
    assert rotation_degree_check(spec) < 1e-12


def test_finite_rotation_matches_generator():
    spec = CircleActionSpec(k=(2, -1), l=(0, 3))
    A = action_generator(spec)
    from scipy.linalg import expm

    for th in (0.3, 1.2):
        assert np.allclose(action_rotation(spec, th), expm(th * A), atol=1e-12)
