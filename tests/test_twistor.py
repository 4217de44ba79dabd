"""Tests for the flat twistor charts and their line-bundle identities."""

import numpy as np
import pytest
from batch_rows import batch_row_test

from hkgeom.errors import ConfigError, DomainError
from hkgeom.flatspace import CircleActionSpec, FlatModel, hyperholo_curvature
from hkgeom.forms import FDScheme, _as_matrices, _pair_indices, fd_gradient
from hkgeom import twistor
from hkgeom.suites import RunConfig, run_check
from hkgeom.twistor import (
    action_invariance_residual,
    chart_jacobian,
    chart_transition,
    connection_pair_residual,
    connection_residue,
    curvature_FZ,
    curvature_FZ_field,
    fibre_restriction_residual,
    fibre_symplectic,
    fz_closedness_residual,
    hermitian_curvature_residual,
    lifted_action_field,
    log_gUV_sq,
    log_hU,
    log_hU_field,
    log_hV,
    mero_connection,
    pack_point,
    pole_order,
    pole_orders,
    product_to_chart,
    reality_residual,
    residue_match_residual,
    semifree_AU,
    semifree_AV,
    total_dim,
    transition_gUV,
    twistor_structure,
    unpack_point,
    vertical_lift,
)


def _cpair(rng, k, n):
    return rng.standard_normal((k, n)) + 1j * rng.standard_normal((k, n))


def _czeta(rng, k, min_mod=0.3):
    """k values of zeta with min_mod <= |zeta| < 1.5."""
    return rng.uniform(min_mod, 1.5, k) * np.exp(1j * rng.uniform(0.0, 2 * np.pi, k))


def _tangent(rng, k, n):
    """k chart tangents (dv, dxi, dzeta), packed (k, 2n+1)."""
    return _cpair(rng, k, 2 * n + 1)


def _zero_tangent(k, n):
    return np.zeros((k, 2 * n + 1), dtype=complex)


FULL = CircleActionSpec(k=(1,), l=(1,))
SEMI = CircleActionSpec(k=(0,), l=(1,))


# -- charts ---------------------------------------------------------------------


def test_chart_transition_validation():
    v, xi = np.ones((1, 1)), np.ones((1, 1))
    with pytest.raises(ConfigError, match="length 3"):
        chart_transition(v, xi, np.ones(1), np.ones((1, 2)))
    with pytest.raises(ConfigError, match=r"expected shape \(1, 3\)"):
        chart_transition(v, xi, np.ones(1), np.ones((2, 3)))
    with pytest.raises(DomainError):
        chart_transition(v, xi, np.zeros(1), np.ones((1, 3)))


def test_chart_transition_is_exact_involution():
    rng = np.random.default_rng(60)
    v, xi, zeta = _cpair(rng, 20, 2), _cpair(rng, 20, 2), _czeta(rng, 20)
    (vt, xit, zetat), _ = chart_transition(v, xi, zeta, _zero_tangent(20, 2))
    (v2, xi2, zeta2), _ = chart_transition(vt, xit, zetat, _zero_tangent(20, 2))
    assert np.allclose(v2, v, rtol=1e-13, atol=0.0)
    assert np.allclose(xi2, xi, rtol=1e-13, atol=0.0)
    assert np.all(np.abs(zeta2 - zeta) < 1e-13 * np.abs(zeta))


def _chart_to_product(v, xi, zeta):
    """The inverse of product_to_chart: (v - zeta conj(xi), xi + zeta conj(v)) / (1 + |zeta|^2)."""
    zeta = np.asarray(zeta, dtype=complex)[:, None]
    denom = 1.0 + np.abs(zeta) ** 2
    return (v - zeta * np.conj(xi)) / denom, (xi + zeta * np.conj(v)) / denom


def test_product_round_trip():
    rng = np.random.default_rng(61)
    z, w = _cpair(rng, 20, 3), _cpair(rng, 20, 3)
    zeta = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    v, xi = product_to_chart(z, w, zeta)
    z2, w2 = _chart_to_product(v, xi, zeta)
    assert np.max(np.abs(z2 - z)) < 1e-14
    assert np.max(np.abs(w2 - w)) < 1e-14
    # there and back through chart V gives the same answer away from zeta = 0
    far = np.abs(zeta) > 0.3
    there, _ = chart_transition(v[far], xi[far], zeta[far], _zero_tangent(far.sum(), 3))
    back, _ = chart_transition(*there, _zero_tangent(far.sum(), 3))
    z3, w3 = _chart_to_product(*back)
    assert np.max(np.abs(z3 - z[far])) < 1e-12
    assert np.max(np.abs(w3 - w[far])) < 1e-12


def test_pushforward_matches_fd_transition():
    rng = np.random.default_rng(62)
    h = 1e-6
    v, xi, zeta = _cpair(rng, 10, 2), _cpair(rng, 10, 2), _czeta(rng, 10)
    tan = _tangent(rng, 10, 2)
    _, out = chart_transition(v, xi, zeta, tan)

    def moved(sign):
        point, _ = chart_transition(
            v + sign * h * tan[:, :2], xi + sign * h * tan[:, 2:4], zeta + sign * h * tan[:, 4],
            _zero_tangent(10, 2),
        )
        return np.concatenate([point[0], point[1], point[2][:, None]], axis=1)

    assert np.max(np.abs((moved(1) - moved(-1)) / (2 * h) - out)) < 1e-6


# -- fibrewise symplectic pencil ---------------------------------------------------


def test_pencil_endpoint_at_zero():
    rng = np.random.default_rng(63)
    model = FlatModel(2)
    s, t = rng.standard_normal((10, 8)), rng.standard_normal((10, 8))
    expect = [a @ model.omega2 @ b + 1j * (a @ model.omega3 @ b) for a, b in zip(s, t)]
    assert np.allclose(fibre_symplectic(np.zeros(10), s, t), expect)


def test_pencil_hand_values_on_basis_vectors():
    e_z = np.array([[1.0, 0.0, 0.0, 0.0]] * 3)
    e_w = np.array([[0.0, 0.0, 1.0, 0.0]] * 3)
    # omega2(e_z, e_w) = 1, omega1 = omega3 = 0 on this pair: pencil = 1 + zeta^2
    got = fibre_symplectic(np.array([1j, 1.0, 2.0]), e_z, e_w)
    assert got == pytest.approx([0.0, 2.0, 5.0])


def test_pencil_reality_under_antipode():
    rng = np.random.default_rng(64)
    s, t = rng.standard_normal((20, 8)), rng.standard_normal((20, 8))
    zeta = _czeta(rng, 20)
    lhs = np.conj(fibre_symplectic(-1.0 / np.conj(zeta), s, t))
    rhs = fibre_symplectic(zeta, s, t) / zeta**2
    assert np.all(np.abs(lhs - rhs) < 1e-12 * np.maximum(1.0, np.abs(rhs)))


# -- transition function ------------------------------------------------------------


def test_transition_trivial_and_hand_value():
    assert transition_gUV(np.array([[1.0, -2.0]]), np.zeros((1, 2)), [0.7]) == pytest.approx([1.0])
    assert transition_gUV(np.ones((1, 1)), np.ones((1, 1)), [1.0]) == pytest.approx([np.exp(-0.5)])
    with pytest.raises(DomainError):
        transition_gUV(np.ones((1, 1)), np.ones((1, 1)), [0.0])


def test_transition_cocycle():
    rng = np.random.default_rng(65)
    for n in (1, 2, 3):
        v, xi, zeta = _cpair(rng, 20, n), _cpair(rng, 20, n), _czeta(rng, 20)
        (vt, xit, zetat), _ = chart_transition(v, xi, zeta, _zero_tangent(20, n))
        # g_VU in tilde coordinates: exp(+sum_i vt_i xit_i / 2 zetat)
        g_vu = np.exp(np.sum(vt * xit, axis=-1) / (2.0 * zetat))
        prod = transition_gUV(v, xi, zeta) * g_vu
        assert np.max(np.abs(prod - 1.0)) < 1e-12


def test_transition_is_holomorphic():
    rng = np.random.default_rng(66)
    h = 1e-3

    def fd4(ev, coords, step):
        return (
            -ev(coords + 2 * step)
            + 8 * ev(coords + step)
            - 8 * ev(coords - step)
            + ev(coords - 2 * step)
        ) / (12 * h)

    def ev(c):
        # the chart coordinates (v, xi, zeta) of each row of c (k, 3)
        return transition_gUV(c[:, :1], c[:, 1:2], c[:, 2])

    coords = np.concatenate([_cpair(rng, 10, 2), _czeta(rng, 10, 0.5)[:, None]], axis=1)
    worst = np.zeros(10)
    for j in range(3):
        e = np.zeros(3, dtype=complex)
        e[j] = h
        d_dx = fd4(ev, coords, e)
        e[j] = 1j * h
        d_dy = fd4(ev, coords, e)
        # dbar_j = (d/dx_j + i d/dy_j)/2
        worst = np.maximum(worst, np.abs(0.5 * (d_dx + 1j * d_dy)))
    assert np.all(worst < 1e-10)


# -- semi-free connection pair -------------------------------------------------------


def test_connection_pair_identity():
    rng = np.random.default_rng(67)
    for n in (1, 2, 3):
        v, xi, zeta = _cpair(rng, 34, n), _cpair(rng, 34, n), _czeta(rng, 34)
        assert np.all(connection_pair_residual(v, xi, zeta, _tangent(rng, 34, n)) < 1e-12)


def test_connection_pair_zeta_direction():
    rng = np.random.default_rng(68)
    v, xi = _cpair(rng, 10, 2), _cpair(rng, 10, 2)
    tan = _zero_tangent(10, 2)
    tan[:, 4] = 1.0 + 0.5j
    assert np.all(connection_pair_residual(v, xi, _czeta(rng, 10), tan) < 1e-13)


def test_connection_difference_vanishes_along_level_tangent():
    # tv = v, txi = -xi, tzeta = 0 keeps sum(v xi)/2 zeta constant
    rng = np.random.default_rng(69)
    v, xi, zeta = _cpair(rng, 10, 2), _cpair(rng, 10, 2), _czeta(rng, 10)
    tan = np.concatenate([v, -xi, np.zeros((10, 1))], axis=1)
    other, tilde = chart_transition(v, xi, zeta, tan)
    diff = semifree_AV(*other, tilde) - semifree_AU(v, xi, zeta, tan)
    assert np.all(np.abs(diff) < 1e-13)


# -- meromorphic connection ---------------------------------------------------------


def test_mero_connection_pole_guard():
    tan = _zero_tangent(1, 1)
    tan[0, 2] = 1.0
    with pytest.raises(DomainError):
        mero_connection(1, np.ones((1, 1)), np.ones((1, 1)), [0.0], tan)


def test_lifted_field_matches_finite_rotation():
    rng = np.random.default_rng(70)
    h = 1e-3
    for spec in (FULL, SEMI, CircleActionSpec(k=(2, 1), l=(-1, 0))):
        n = spec.n
        z, w, zeta = _cpair(rng, 5, n), _cpair(rng, 5, n), _czeta(rng, 5)
        lift = lifted_action_field(spec, *product_to_chart(z, w, zeta), zeta)

        def at(theta):
            zeta_t = np.exp(1j * spec.degree * theta) * zeta
            v, xi = product_to_chart(
                np.exp(1j * np.asarray(spec.k) * theta) * z,
                np.exp(1j * np.asarray(spec.l) * theta) * w,
                zeta_t,
            )
            return np.concatenate([v, xi, zeta_t[:, None]], axis=1)

        fd = (-at(2 * h) + 8 * at(h) - 8 * at(-h) + at(-2 * h)) / (12 * h)
        assert np.max(np.abs(fd - lift)) < 1e-10


def test_lifted_field_validation():
    with pytest.raises(ConfigError):
        lifted_action_field(CircleActionSpec(k=(1, 1), l=(1, 1)), *np.ones((2, 1, 1)), [0.5])


def test_full_rotation_annihilates_curvature():
    rng = np.random.default_rng(71)
    v, xi, zeta = _cpair(rng, 100, 1), _cpair(rng, 100, 1), _czeta(rng, 100)
    assert np.all(action_invariance_residual(FULL, v, xi, zeta, _tangent(rng, 100, 1)) < 1e-10)


def test_unequal_weights_do_not_annihilate():
    rng = np.random.default_rng(72)
    v, xi, zeta = _cpair(rng, 20, 1), _cpair(rng, 20, 1), _czeta(rng, 20)
    assert np.max(action_invariance_residual(SEMI, v, xi, zeta, _tangent(rng, 20, 1))) > 1e-2


def test_fibre_restriction_matches_pencil():
    rng = np.random.default_rng(73)
    for n in (1, 2):
        z, w, zeta = _cpair(rng, 25, n), _cpair(rng, 25, n), _czeta(rng, 25)
        s, t = rng.standard_normal((25, 4 * n)), rng.standard_normal((25, 4 * n))
        assert np.all(fibre_restriction_residual(z, w, zeta, s, t) < 1e-10)
    with pytest.raises(DomainError):
        fibre_restriction_residual(*np.ones((2, 1, 1)), [0.0], *np.ones((2, 1, 4)))


def test_curvature_is_exterior_derivative_of_connection():
    # dA(S, T) for constant coordinate extensions of S, T equals F_Z, and the
    # weighted logarithmic term drops out
    rng = np.random.default_rng(74)
    h = 1e-4

    def d_conn(n_char, v, xi, zeta, s, t):
        def along(direction, other):
            def phi(eps):
                return mero_connection(
                    n_char,
                    v + eps * direction[:, :2],
                    xi + eps * direction[:, 2:4],
                    zeta + eps * direction[:, 4],
                    other,
                )

            return (-phi(2 * h) + 8 * phi(h) - 8 * phi(-h) + phi(2 * -h)) / (12 * h)

        return along(s, t) - along(t, s)

    v, xi, zeta = _cpair(rng, 10, 2), _cpair(rng, 10, 2), _czeta(rng, 10, 0.5)
    s, t = _tangent(rng, 10, 2), _tangent(rng, 10, 2)
    closed = curvature_FZ(v, xi, zeta, s, t)
    assert closed == pytest.approx(-curvature_FZ(v, xi, zeta, t, s))
    for n_char in (0, 3):
        assert np.all(np.abs(d_conn(n_char, v, xi, zeta, s, t) - closed) < 1e-8)


# -- residues and pole orders ---------------------------------------------------------


def _d_dzeta(k, n):
    """k copies of the chart tangent d/dzeta, packed (k, 2n+1)."""
    tangent = _zero_tangent(k, n)
    tangent[:, -1] = 1.0
    return tangent


def test_connection_residue_on_d_dzeta_is_the_rotation_residue():
    rng = np.random.default_rng(75)
    for n_char in (1, 2, 5):
        res = connection_residue(n_char, _cpair(rng, 3, 2), _cpair(rng, 3, 2), _d_dzeta(3, 2))
        assert np.all(np.abs(res - 2j * np.pi * n_char) < 1e-10)


def test_connection_residue_is_linear_in_dzeta():
    # a fibre tangent (dzeta = 0) gives the fibre residue, the same for every
    # weight; adding d/dzeta adds the rotation residue 2 pi i n
    rng = np.random.default_rng(74)
    v, xi, fibre = _cpair(rng, 3, 2), _cpair(rng, 3, 2), _tangent(rng, 3, 2)
    fibre[:, -1] = 0.0
    base = connection_residue(0, v, xi, fibre)
    for n_char in (1, 2, 5):
        assert np.all(np.abs(connection_residue(n_char, v, xi, fibre) - base) < 1e-12)
        res = connection_residue(n_char, v, xi, fibre + _d_dzeta(3, 2))
        assert np.all(np.abs(res - (base + 2j * np.pi * n_char)) < 1e-10)


def test_fibre_residue_matches_contracted_form():
    rng = np.random.default_rng(76)
    for n in (1, 2, 3):
        z, w = _cpair(rng, 7, n), _cpair(rng, 7, n)
        s = rng.standard_normal((7, 4 * n))
        assert np.all(residue_match_residual(z, w, s) < 1e-10)


def test_pole_order_measurement():
    assert pole_order(lambda zeta: 3.0 + zeta) == 0
    assert pole_order(lambda zeta: 1.0 / zeta + 5.0) == 1
    assert pole_order(lambda zeta: 1.0 / zeta**2 + 1.0 / zeta) == 2
    assert pole_order(lambda zeta: 0.0) == 0


def test_pole_orders_are_simple_at_both_ends():
    rng = np.random.default_rng(77)
    assert pole_orders(2, _cpair(rng, 1, 2), _cpair(rng, 1, 2), _tangent(rng, 1, 2)) == (1, 1)
    with pytest.raises(ConfigError, match="1-row batch"):
        pole_orders(2, _cpair(rng, 2, 2), _cpair(rng, 2, 2), _tangent(rng, 2, 2))


def test_pole_orders_transition_once_at_infinity(monkeypatch):
    # the nodes at infinity go through one chart transition, not one each
    calls = []
    transition = twistor.chart_transition

    def counted(*args):
        calls.append(len(args[0]))
        return transition(*args)

    monkeypatch.setattr(twistor, "chart_transition", counted)
    rng = np.random.default_rng(78)
    pole_orders(2, _cpair(rng, 1, 2), _cpair(rng, 1, 2), _tangent(rng, 1, 2))
    assert calls == [twistor.CONTOUR_NODES]


def test_curvature_closed():
    rng = np.random.default_rng(78)
    z, w = _cpair(rng, 5, 1), _cpair(rng, 5, 1)
    assert np.all(fz_closedness_residual(z, w, _czeta(rng, 5, 0.7)) < 1e-10)
    with pytest.raises(DomainError):
        fz_closedness_residual(z, w, np.full(5, 1e-4))


@pytest.mark.parametrize("n", [1, 2, 3])
def test_curvature_field_is_the_closed_form_on_chart_jacobian_images(n):
    # entry (a, b) of the field is F_Z on the chart images J e_a, J e_b of
    # the coordinate vectors
    rng = np.random.default_rng(80 + n)
    field = curvature_FZ_field(n)
    dim = total_dim(n)
    for _ in range(5):
        z, w, zeta = _cpair(rng, 1, n), _cpair(rng, 1, n), _czeta(rng, 1)
        p = pack_point(z, w, zeta)
        v, xi = product_to_chart(z, w, zeta)
        images = chart_jacobian(p)[0].T  # (dim, 2n+1): the image of e_a per row
        pairs = dim * dim
        closed = curvature_FZ(
            np.repeat(v, pairs, 0), np.repeat(xi, pairs, 0), np.repeat(zeta, pairs),
            np.repeat(images, dim, 0), np.tile(images, (dim, 1)),
        ).reshape(dim, dim)
        assert np.max(np.abs(_as_matrices(field(p)[0], dim) - closed)) < 1e-12


# -- hermitian metric ----------------------------------------------------------------


def test_structure_squares_to_minus_id():
    rng = np.random.default_rng(79)
    structure = twistor_structure(2)
    p = rng.standard_normal((10, total_dim(2)))
    s = structure(p)
    assert np.max(np.abs(s @ s + np.eye(total_dim(2)))) < 1e-12
    jac = chart_jacobian(p)
    assert np.max(np.abs(jac @ s - 1j * jac)) < 1e-12


def _solved_structure(p):
    """The structure from its definition D S = i D, D the chart Jacobian: (A; B) S = (-B; A)."""
    jac = chart_jacobian(p)
    a, b = jac.real, jac.imag
    return np.linalg.solve(np.concatenate([a, b], axis=-2), np.concatenate([-b, a], axis=-2))


@pytest.mark.parametrize("n", [1, 2, 3])
@pytest.mark.parametrize("modulus", [0.0, 1e-3, 0.3, 1.0, 3.0, 1e3])
def test_structure_is_the_solve_of_its_definition(n, modulus):
    rng = np.random.default_rng(78)
    model, dim = FlatModel(n), total_dim(n)
    z, w = _cpair(rng, 10, n), _cpair(rng, 10, n)
    zeta = modulus * np.exp(1j * rng.uniform(0.0, 2 * np.pi, 10))
    p = pack_point(z, w, zeta)
    got, want = twistor_structure(n)(p), _solved_structure(p)
    assert got.shape == (10, dim, dim)
    assert np.max(np.abs(got - want)) <= 1e-13 * np.max(np.abs(want))
    # the flat and fibre blocks do not mix, and the fibre block is i on zeta
    assert np.all(got[:, : model.dim, model.dim :] == 0.0)
    assert np.all(got[:, model.dim :, : model.dim] == 0.0)
    assert np.all(got[:, model.dim :, model.dim :] == [[0.0, -1.0], [1.0, 0.0]])


def test_structure_at_zero_is_flat_I():
    model = FlatModel(2)
    p = pack_point([[0.3 + 1j, -0.2j]], [[1.0, 0.5 - 0.5j]], [0.0])
    s = twistor_structure(2)(p)[0]
    assert np.max(np.abs(s[:8, :8] - model.I)) == 0.0
    assert np.max(np.abs(s[:8, 8:])) == 0.0


def test_pack_unpack_round_trip():
    rng = np.random.default_rng(80)
    p = rng.standard_normal((5, total_dim(2)))
    z, w, zeta = unpack_point(p)
    assert np.max(np.abs(pack_point(z, w, zeta) - p)) == 0.0


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_n_comes_from_the_widths_and_a_width_that_fits_no_n_is_refused(n):
    rng = np.random.default_rng(93 + n)
    p = rng.standard_normal((3, total_dim(n)))
    z, w, zeta = unpack_point(p)
    assert z.shape == w.shape == (3, n) and zeta.shape == (3,)
    assert chart_jacobian(p).shape == (3, 2 * n + 1, total_dim(n))
    # a point of 4n+1 columns, and z and w of different widths
    for bad in (p[:, :-1], np.column_stack([p, p[:, :1]])):
        for unpacking in (unpack_point, chart_jacobian):
            with pytest.raises(ConfigError, match="twistor coordinates have width 4n"):
                unpacking(bad)
    s = rng.standard_normal((3, 4 * n))
    wide = _cpair(rng, 3, n + 1)
    on_widths = (
        pack_point, product_to_chart, reality_residual, hermitian_curvature_residual,
        fz_closedness_residual, lambda z, w, zeta: fibre_restriction_residual(z, w, zeta, s, s),
        lambda z, w, zeta: residue_match_residual(z, w, s),
    )
    for residual in on_widths:
        with pytest.raises(ConfigError, match="z and w must have the same width"):
            residual(z, wide, zeta)
    # real flat tangents of a width that is not 4n, or s and t of two widths
    for width in (4 * n - 1, 4 * n + 1, 4 * n + 2):
        t = rng.standard_normal((3, width))
        with pytest.raises(ConfigError, match="flat tangents have width 4n"):
            fibre_symplectic(zeta, t, t)
        with pytest.raises(ConfigError, match="s and t must have the same width"):
            fibre_symplectic(zeta, s, t)


def test_dbar_display():
    rng = np.random.default_rng(81)
    z, w = _cpair(rng, 20, 1), _cpair(rng, 20, 1)
    zeta = rng.standard_normal(20) + 1j * rng.standard_normal(20)
    tangent = rng.standard_normal((20, total_dim(1)))
    # the (0,1) part of d(log h_U) on real tangents T: (df(T) + i df(ST)) / 2
    p = pack_point(z, w, zeta)
    grad = fd_gradient(log_hU_field(1), p, FDScheme(h=1e-4, order=4))
    ones = np.eye(total_dim(1)) + 1j * twistor_structure(1)(p)
    dbar = 0.5 * np.einsum("ki,kij,kj->k", grad, ones, tangent)
    # displayed: (1/2) sum_i [z_i w_i dconj(zeta) + z_i dconj(z_i) - w_i dconj(w_i)
    #            + conj(zeta) d(z_i w_i)]
    tz, tw, tzeta = unpack_point(tangent)
    tzeta, zeta_c = tzeta[:, None], np.conj(zeta)[:, None]
    displayed = 0.5 * np.sum(
        z * w * np.conj(tzeta) + z * np.conj(tz) - w * np.conj(tw) + zeta_c * (w * tz + z * tw),
        axis=-1,
    )
    assert np.all(np.abs(dbar - displayed) < 1e-9)


def test_hermitian_curvature_matches_flat():
    rng = np.random.default_rng(82)
    z, w = _cpair(rng, 12, 1), _cpair(rng, 12, 1)
    zeta = rng.standard_normal(12) + 1j * rng.standard_normal(12)
    assert np.all(hermitian_curvature_residual(z, w, zeta) < 1e-6)


def test_hermitian_curvature_zeta_zero_slice():
    rng = np.random.default_rng(83)
    z, w = _cpair(rng, 1, 1), _cpair(rng, 1, 1)
    assert hermitian_curvature_residual(z, w, np.zeros(1))[0] < 1e-6


@pytest.mark.parametrize("n", [1, 2, 3])
def test_embedded_reference_is_twice_the_flat_curvature(n):
    # the reference constant form is twice the flat-space curvature of the
    # w-only rotation on the first 4n coordinates, and has no zeta components
    ref = _as_matrices(twistor._embedded_reference(n), total_dim(n))
    assert not ref[4 * n :].any() and not ref[:, 4 * n :].any()
    semi = CircleActionSpec(k=(0,) * n, l=(1,) * n)
    p = np.random.default_rng(83 + n).uniform(-1.0, 1.0, (2, 4 * n))
    flat = hyperholo_curvature(semi, p, FDScheme(h=1e-3, order=4))
    assert np.max(np.abs(flat - ref[: 4 * n, : 4 * n][_pair_indices(4 * n)] / 2)) < 1e-9


def test_reality_identity():
    rng = np.random.default_rng(84)
    for n in (1, 2, 3):
        z, w, zeta = _cpair(rng, 10, n), _cpair(rng, 10, n), _czeta(rng, 10, 0.15)
        assert np.all(reality_residual(z, w, zeta) < 1e-12)
    with pytest.raises(DomainError):
        log_hV(np.ones((1, 1)), np.ones((1, 1)), [0.0])


@pytest.mark.parametrize("n", [1, 2, 3])
def test_log_hU_field_batch_matches_rows(n):
    rng = np.random.default_rng(90 + n)
    rows = rng.standard_normal((200, total_dim(n)))
    field = log_hU_field(n)
    batch = field(rows)
    assert batch.shape == (200,)
    assert np.array_equal(batch, [field(row[None])[0] for row in rows])
    # the field is the closed form on unpacked coordinates
    assert np.array_equal(batch, log_hU(*unpack_point(rows)))


def test_log_h_hand_value():
    # z = 1, w = 2i, zeta = i: 1/2(1 - 4) + Re(-i * 2i) = -3/2 + 2 = 1/2
    assert log_hU(np.array([[1.0]]), np.array([[2.0j]]), np.array([1j])) == pytest.approx([0.5])
    assert log_gUV_sq(np.ones((1, 1)), np.ones((1, 1)), [1.0]) == pytest.approx([-1.0])


def test_vertical_lift_is_chart_differential():
    rng = np.random.default_rng(85)
    h = 1e-6
    model = FlatModel(2)
    z, w = _cpair(rng, 10, 2), _cpair(rng, 10, 2)
    zeta = rng.standard_normal(10) + 1j * rng.standard_normal(10)
    s = rng.standard_normal((10, 8))
    lift = vertical_lift(zeta, s)
    sz, sw = model.to_complex(s)
    plus = np.concatenate(product_to_chart(z + h * sz, w + h * sw, zeta), axis=1)
    minus = np.concatenate(product_to_chart(z - h * sz, w - h * sw, zeta), axis=1)
    assert np.max(np.abs((plus - minus) / (2 * h) - lift[:, :4])) < 1e-9
    assert np.all(lift[:, 4] == 0.0)


# -- one batch convention ------------------------------------------------------------

_K, _N = 5, 2
_RNG = np.random.default_rng(86)
_V, _XI, _Z, _W = (_cpair(_RNG, _K, _N) for _ in range(4))
_ZETA = _czeta(_RNG, _K, 0.7)
_S, _T = _tangent(_RNG, _K, _N), _tangent(_RNG, _K, _N)
_MS, _MT = _RNG.standard_normal((_K, 4 * _N)), _RNG.standard_normal((_K, 4 * _N))
_P = pack_point(_Z, _W, _ZETA)
_ROTATION = CircleActionSpec(k=(1, 2), l=(1, 0))

#: every batched closed form, on rows r of the shared batch (a slice)
_BATCHED = {
    "chart_transition": lambda r: chart_transition(_V[r], _XI[r], _ZETA[r], _S[r]),
    "product_to_chart": lambda r: product_to_chart(_Z[r], _W[r], _ZETA[r]),
    "vertical_lift": lambda r: vertical_lift(_ZETA[r], _MS[r]),
    "fibre_symplectic": lambda r: fibre_symplectic(_ZETA[r], _MS[r], _MT[r]),
    "transition_gUV": lambda r: transition_gUV(_V[r], _XI[r], _ZETA[r]),
    "log_gUV_sq": lambda r: log_gUV_sq(_V[r], _XI[r], _ZETA[r]),
    "semifree_AU": lambda r: semifree_AU(_V[r], _XI[r], _ZETA[r], _S[r]),
    "semifree_AV": lambda r: semifree_AV(_V[r], _XI[r], _ZETA[r], _S[r]),
    "overlap_potential_d": lambda r: twistor.overlap_potential_d(_V[r], _XI[r], _ZETA[r], _S[r]),
    "connection_pair_residual": lambda r: connection_pair_residual(_V[r], _XI[r], _ZETA[r], _S[r]),
    "mero_connection": lambda r: mero_connection(3, _V[r], _XI[r], _ZETA[r], _S[r]),
    "fz_coefficients": lambda r: twistor.fz_coefficients(_V[r], _XI[r], _ZETA[r]),
    "curvature_FZ": lambda r: curvature_FZ(_V[r], _XI[r], _ZETA[r], _S[r], _T[r]),
    "lifted_action_field": lambda r: lifted_action_field(_ROTATION, _V[r], _XI[r], _ZETA[r]),
    "action_invariance_residual": lambda r: action_invariance_residual(
        _ROTATION, _V[r], _XI[r], _ZETA[r], _S[r]
    ),
    "fibre_restriction_residual": lambda r: fibre_restriction_residual(
        _Z[r], _W[r], _ZETA[r], _MS[r], _MT[r]
    ),
    "connection_residue[dzeta]": lambda r: connection_residue(
        2, _V[r], _XI[r], _d_dzeta(_K, _N)[r]
    ),
    "connection_residue[fibre]": lambda r: connection_residue(
        2, _V[r], _XI[r], vertical_lift(_ZETA[r], _MS[r])
    ),
    "residue_match_residual": lambda r: residue_match_residual(_Z[r], _W[r], _MS[r]),
    "log_hU": lambda r: log_hU(_Z[r], _W[r], _ZETA[r]),
    "log_hV": lambda r: log_hV(_Z[r], _W[r], _ZETA[r]),
    "reality_residual": lambda r: reality_residual(_Z[r], _W[r], _ZETA[r]),
    "pack_point": lambda r: pack_point(_Z[r], _W[r], _ZETA[r]),
    "unpack_point": lambda r: unpack_point(_P[r]),
    "chart_jacobian": lambda r: chart_jacobian(_P[r]),
    "twistor_structure": lambda r: twistor_structure(_N)(_P[r]),
    "hermitian_curvature_residual": lambda r: hermitian_curvature_residual(
        _Z[r], _W[r], _ZETA[r]
    ),
    "fz_closedness_residual": lambda r: fz_closedness_residual(_Z[r], _W[r], _ZETA[r]),
}


test_batch_row_equals_one_row_batch = batch_row_test(_BATCHED, _K)


@pytest.mark.parametrize("check_id", ["twistor.rotation.invariance", "twistor.fibre.restriction"])
def test_curvature_checks_build_one_coefficient_batch(check_id, monkeypatch):
    calls = []
    coefficients = twistor.fz_coefficients

    def counted(v, xi, zeta):
        calls.append(len(v))
        return coefficients(v, xi, zeta)

    monkeypatch.setattr(twistor, "fz_coefficients", counted)
    cfg = RunConfig(suite="twistor")
    assert run_check(cfg, check_id).passed
    assert calls == [cfg.samples]


# -- tangent lengths -------------------------------------------------------------

_V2, _XI2, _ZETA1 = np.array([[1.0, 2.0]]), np.array([[0.5, -1.0]]), np.array([0.8 + 0.3j])
_GOOD = np.ones((1, 5))
_SHORT = np.ones((1, 3))

#: every closed form that takes a chart tangent, called at n = 2
_TANGENT_CALLS = {
    "curvature_FZ[s]": lambda t: curvature_FZ(_V2, _XI2, _ZETA1, t, _GOOD),
    "curvature_FZ[t]": lambda t: curvature_FZ(_V2, _XI2, _ZETA1, _GOOD, t),
    "action_invariance_residual": lambda t: action_invariance_residual(
        CircleActionSpec(k=(1, 1), l=(1, 1)), _V2, _XI2, _ZETA1, t
    ),
    "mero_connection": lambda t: mero_connection(1, _V2, _XI2, _ZETA1, t),
    "overlap_potential_d": lambda t: twistor.overlap_potential_d(_V2, _XI2, _ZETA1, t),
    "semifree_AU": lambda t: semifree_AU(_V2, _XI2, _ZETA1, t),
    "semifree_AV": lambda t: semifree_AV(_V2, _XI2, _ZETA1, t),
    "connection_pair_residual": lambda t: connection_pair_residual(_V2, _XI2, _ZETA1, t),
    "chart_transition": lambda t: chart_transition(_V2, _XI2, _ZETA1, t),
    "connection_residue": lambda t: connection_residue(2, _V2, _XI2, t),
    "pole_orders": lambda t: pole_orders(2, _V2, _XI2, t),
}


@pytest.mark.parametrize("name", sorted(_TANGENT_CALLS))
def test_tangent_length_must_match_n(name):
    call = _TANGENT_CALLS[name]
    call(_GOOD)
    with pytest.raises(ConfigError, match="length 5"):
        call(_SHORT)
