"""Tests for flat H^n, its Kähler triple, circle actions and moment maps."""

import numpy as np
import pytest
from batch_rows import batch_row_test, one_point_test

from hkgeom.errors import ConfigError, StructureError
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
    type11_residual,
)


def _upper(M):
    """Components of a 2-form's matrix on the basis dx_i^dx_j, i < j, in order."""
    return M[np.triu_indices(len(M), 1)]


def _wedge(a, b):
    """The matrix of the wedge of two 1-forms: a b^T - b a^T."""
    return np.outer(a, b) - np.outer(b, a)


def _dz(m, i):
    c = np.zeros(m.dim, dtype=complex)
    c[list(m.z_slots(i))] = 1.0, 1.0j
    return c


def _dw(m, i):
    c = np.zeros(m.dim, dtype=complex)
    c[list(m.w_slots(i))] = 1.0, 1.0j
    return c


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
    assert np.allclose(_upper(w1), [1, 0, 0, 0, 0, 1])  # dx0^dx1 + dx2^dx3
    assert np.allclose(_upper(w2), [0, 1, 0, 0, -1, 0])  # dx0^dx2 - dx1^dx3
    assert np.allclose(_upper(w3), [0, 0, 1, 1, 0, 0])  # dx0^dx3 + dx1^dx2
    for w in (w1, w2, w3):
        assert w.shape == (4, 4) and np.array_equal(w, -w.T)


def test_omega_matches_complex_formulas():
    m = FlatModel(2)
    w1, w2, w3 = m.kahler_triple()
    # omega1 = (i/2) sum(dz dzbar + dw dwbar); omega2 + i omega3 = sum dz^dw
    acc1 = sum(
        0.5j * (_wedge(_dz(m, i), np.conj(_dz(m, i))) + _wedge(_dw(m, i), np.conj(_dw(m, i))))
        for i in range(m.n)
    )
    acc_c = sum(_wedge(_dz(m, i), _dw(m, i)) for i in range(m.n))
    assert np.allclose(_upper(acc1), _upper(w1), atol=1e-14)
    assert np.allclose(_upper(acc_c), _upper(w2 + 1j * w3), atol=1e-14)


def test_omega_complex_on_unit_tangent_pair():
    m = FlatModel(1)
    X = m.from_complex(1.0, 0.0)  # tangent dz = 1
    Y = m.from_complex(0.0, 1.0)  # tangent dw = 1
    val = X @ (m.omega2 + 1j * m.omega3) @ Y  # omega(X, Y) = X^T M Y
    assert np.isclose(val, 1.0)


def test_to_complex_reads_p_in_place_and_inverts_from_complex():
    m = FlatModel(2)
    p = np.random.default_rng(13).standard_normal((5, 8))
    z, w = m.to_complex(p)
    assert np.shares_memory(z, p) and np.shares_memory(w, p)
    assert not z.flags.writeable and not w.flags.writeable
    assert np.array_equal(z, p[:, 0:4:2] + 1j * p[:, 1:4:2])
    assert np.array_equal(w, p[:, 4::2] + 1j * p[:, 5::2])
    assert np.array_equal(m.from_complex(z, w), p)
    # a strided or integer p is copied first and gives the same values
    wide = np.zeros((5, 16))
    wide[:, ::2] = p
    for q, want in ((wide[:, ::2], p), (np.arange(8), np.arange(8.0))):
        zq, wq = m.to_complex(q)
        assert np.array_equal(m.from_complex(zq, wq), want)


def test_omega_is_g_compatible_with_structures():
    rng = np.random.default_rng(12)
    m = FlatModel(2)
    for S, w in zip(m.structures(), m.kahler_triple()):
        for _ in range(10):
            X, Y = rng.standard_normal(m.dim), rng.standard_normal(m.dim)
            # the flat metric g is the identity: omega(X, Y) = g(SX, Y) = (SX) . Y
            assert np.isclose(X @ w @ Y, (S @ X) @ Y, atol=1e-12)


# -- circle actions -----------------------------------------------------------


def test_one_shared_model_per_n_with_read_only_structures():
    model = CircleActionSpec(k=(1, 0), l=(0, 1)).model()
    assert model is CircleActionSpec(k=(2, 2), l=(1, 1)).model() and model.n == 2
    assert CircleActionSpec(k=(1,), l=(1,)).model().n == 1
    for S in (model.I, model.J, model.K, model.omega1, model.omega2, model.omega3):
        with pytest.raises(ValueError, match="read-only"):
            S[0, 1] = 5.0
    assert np.array_equal(FlatModel(2).K, model.K)
    # every n shares one model, built on first use; FlatModel(n) builds a new one
    for n in range(1, 9):
        shared = CircleActionSpec(k=(1,) * n, l=(0,) * n).model()
        assert shared is CircleActionSpec(k=(2,) * n, l=(-1,) * n).model() and shared.n == n
        assert FlatModel(n) is not shared
        with pytest.raises(ValueError, match="read-only"):
            shared.K[0, 1] = 5.0


def test_action_spec_requires_constant_degree():
    with pytest.raises(StructureError):
        CircleActionSpec(k=(1, 0), l=(0, 0))
    spec = CircleActionSpec(k=(1, 0), l=(1, 2))
    assert spec.degree == 2


def test_bad_dimension_or_weights_are_config_errors():
    for n in (0, 1.5, True):
        with pytest.raises(ConfigError, match=f"got {n}"):
            FlatModel(n)
    with pytest.raises(ConfigError, match="equal length"):
        CircleActionSpec(k=(1,), l=())
    with pytest.raises(ConfigError, match="integers, got"):
        CircleActionSpec(k=(1.5,), l=(1,))


def test_action_vector_field_examples():
    spec = CircleActionSpec(k=(0,), l=(1,))
    m = spec.model()
    p = m.from_complex([[1.0]], [[1.0]])
    X = action_vector_field(spec, p)
    assert np.allclose(X, [[0.0, 0.0, 0.0, 1.0]])  # (0, i) in complex notation

    spec2 = CircleActionSpec(k=(1,), l=(1,))
    X2 = action_vector_field(spec2, p)
    assert np.allclose(X2, [[0.0, 1.0, 0.0, 1.0]])  # (i, i)

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
        M1 = m.omega1
        # infinitesimal invariance of omega1: A^T M + M A = 0
        assert np.max(np.abs(A.T @ M1 + M1 @ A)) < 1e-12
        # the action is I-holomorphic
        assert np.max(np.abs(A @ m.I - m.I @ A)) < 1e-12


def test_moment_map_values():
    spec = CircleActionSpec(k=(0,), l=(1,))
    m = spec.model()
    p = m.from_complex([[1.5 + 0.5j]], [[2.0 - 1.0j]])
    # every square and partial sum here is a dyadic rational, so the values are exact
    assert moment_map(spec, p)[0] == -0.5 * (2.0**2 + 1.0**2) == -2.5
    full = CircleActionSpec(k=(1,), l=(1,))
    assert moment_map(full, p)[0] == -0.5 * (1.5**2 + 0.5**2 + 2.0**2 + 1.0**2) == -3.75
    trivial = CircleActionSpec(k=(0,), l=(0,))
    assert moment_map(trivial, p)[0] == 0.0
    assert moment_map(spec, np.zeros((1, 4)))[0] == 0.0  # mu(0) = 0 normalization


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
        assert np.array_equal(batch, [moment_map(spec, row[None])[0] for row in rows])


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("layout", ["fortran", "column-slice"])
def test_moment_map_rows_keep_their_bits_in_any_layout(n, layout):
    # the weighted sum of squares reduces each row in coordinate order
    # whatever the memory order: a Fortran-ordered batch, or a slice of
    # the columns of a wider array, gives each row the bits of that point
    # alone, as a contiguous copy
    rng = np.random.default_rng(30 + n)
    wide = rng.uniform(-1.5, 1.5, size=(50, 4 * n + 3))
    rows = np.asfortranarray(wide[:, : 4 * n]) if layout == "fortran" else wide[:, 2 : 2 + 4 * n]
    assert not rows.flags.c_contiguous
    for spec in (
        CircleActionSpec(k=(1,) * n, l=(1,) * n),
        CircleActionSpec(k=(2,) * n, l=(-1,) * n),
        CircleActionSpec(k=tuple(range(n)), l=tuple(3 - j for j in range(n))),
    ):
        batch = moment_map(spec, rows)
        for r, row in enumerate(rows):
            assert batch[r] == moment_map(spec, np.ascontiguousarray(row[None]))[0]
            assert batch[r] == moment_map(spec, rows[r : r + 1])[0]


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
        P = rng.uniform(-1, 1, size=(100, m.dim))
        for dmu, X in zip(fd_gradient(mu, P, scheme), action_vector_field(spec, P)):
            ix = X @ m.omega1  # i_X of a 2-form with matrix M is X^T M
            assert np.max(np.abs(dmu - ix)) < 1e-9


# -- curvature of the associated bundle ------------------------------------------


def test_curvature_weight_01():
    spec = CircleActionSpec(k=(0,), l=(1,))
    rng = np.random.default_rng(14)
    expected = np.array([1.0, 0, 0, 0, 0, -1.0])  # (i/2)(dz dzbar - dw dwbar)
    F = hyperholo_curvature(spec, rng.uniform(-1, 1, size=(5, 4)), FDScheme(h=1e-3, order=4))
    assert np.allclose(F, expected, atol=1e-9)


def test_curvature_full_rotation_vanishes():
    # degree-2 full rotation: the associated bundle is flat
    spec = CircleActionSpec(k=(1,), l=(1,))
    rng = np.random.default_rng(15)
    F = hyperholo_curvature(spec, rng.uniform(-1, 1, size=(5, 4)), FDScheme(h=1e-3, order=4))
    assert np.max(np.linalg.norm(F, axis=-1)) < 1e-9


def test_curvature_trivial_action_is_omega1():
    spec = CircleActionSpec(k=(0, 0), l=(0, 0))
    m = spec.model()
    F = hyperholo_curvature(spec, np.full((2, m.dim), 0.3), FDScheme(h=1e-3, order=4))
    assert np.array_equal(F, [_upper(m.omega1)] * 2)


def test_curvature_type11_for_all_structures():
    # the (1,1) property w.r.t. I, J and K at random points
    rng = np.random.default_rng(16)
    for spec in (
        CircleActionSpec(k=(0, 0), l=(1, 1)),
        CircleActionSpec(k=(1, 1), l=(1, 1)),
    ):
        m = spec.model()
        P = rng.uniform(-1, 1, size=(20, m.dim))
        F = hyperholo_curvature(spec, P, FDScheme(h=1e-3, order=4))
        for S in m.structures():
            assert np.max(type11_residual(F, S)) < 1e-8


def test_curvature_is_closed():
    spec = CircleActionSpec(k=(0,), l=(1,))
    scheme = FDScheme(h=1e-3, order=4)
    field = FormField(lambda ps: hyperholo_curvature(spec, ps, scheme), degree=2, dim=4)
    dF = ext_deriv(field, [[0.2, -0.4, 0.5, 0.1]], FDScheme(h=1e-2, order=2))
    assert np.linalg.norm(dF) < 1e-5


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


# -- one batch convention -----------------------------------------------------------

_K = 5
_SPEC = CircleActionSpec(k=(2, -1), l=(-1, 2))
_TRIVIAL = CircleActionSpec(k=(0, 0), l=(0, 0))
_P = np.random.default_rng(60).uniform(-1.5, 1.5, (_K, 8))

#: every batched closed form, on rows r of the shared batch (a slice)
_BATCHED = {
    "action_vector_field": lambda r: action_vector_field(_SPEC, _P[r]),
    "moment_map": lambda r: moment_map(_SPEC, _P[r]),
    "moment_field": lambda r: moment_field(_SPEC)(_P[r]),
    "hyperholo_curvature": lambda r: hyperholo_curvature(_SPEC, _P[r], FDScheme(h=1e-2, order=4)),
    "hyperholo_curvature[trivial]": lambda r: hyperholo_curvature(
        _TRIVIAL, _P[r], FDScheme(h=1e-3, order=4)
    ),
}


test_batch_row_equals_one_row_batch = batch_row_test(_BATCHED, _K)
# an integer index hands every function a 1-D point
test_one_point_is_rejected = one_point_test(_BATCHED, r"shape \(k, 8\)")
