"""Tests for the flat twistor charts and their line-bundle identities."""

import numpy as np
import pytest

from hkgeom.errors import ConfigError, DomainError, StructureError
from hkgeom.flatspace import CircleActionSpec, FlatModel, hyperholo_curvature
from hkgeom import twistor
from hkgeom.forms import FDScheme
from hkgeom.suites import RunConfig, run_check
from hkgeom.twistor import (
    ChartPoint,
    MeroConnectionReport,
    action_invariance_residual,
    chart_jacobian,
    chart_to_product,
    connection_pair_residual,
    connection_report,
    curvature_FZ,
    curvature_FZ_field,
    dbar_display_residual,
    fibre_restriction_residual,
    fibre_symplectic,
    flat_reference_curvature,
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
    product_to_chart,
    reality_residual,
    residue_match_residual,
    rotation_residue,
    semifree_AU,
    total_dim,
    transition_gUV,
    transition_gVU,
    transition_pushforward,
    twistor_structure,
    unpack_point,
    vertical_lift,
)


def _cpair(rng, n):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _czeta(rng, min_mod=0.3):
    while True:
        zeta = complex(*rng.standard_normal(2))
        if abs(zeta) >= min_mod:
            return zeta


def _tangent(rng, n):
    return _cpair(rng, n), _cpair(rng, n), complex(*rng.standard_normal(2))


FULL = CircleActionSpec(k=(1,), l=(1,))
SEMI = CircleActionSpec(k=(0,), l=(1,))


# -- charts ---------------------------------------------------------------------


def test_chart_point_validation():
    with pytest.raises(ConfigError):
        ChartPoint([1.0], [1.0, 2.0], 1.0)
    with pytest.raises(ConfigError):
        ChartPoint([1.0], [1.0], 1.0, chart="W")
    with pytest.raises(DomainError):
        ChartPoint([1.0], [1.0], 0.0).other()


def test_chart_transition_is_exact_involution():
    rng = np.random.default_rng(60)
    for _ in range(20):
        pt = ChartPoint(_cpair(rng, 2), _cpair(rng, 2), _czeta(rng))
        back = pt.other().other()
        assert back.chart == "U"
        assert np.allclose(back.v, pt.v, rtol=1e-13, atol=0.0)
        assert np.allclose(back.xi, pt.xi, rtol=1e-13, atol=0.0)
        assert abs(back.zeta - pt.zeta) < 1e-13 * abs(pt.zeta)


def test_product_round_trip():
    rng = np.random.default_rng(61)
    for _ in range(20):
        z, w = _cpair(rng, 3), _cpair(rng, 3)
        zeta = complex(*rng.standard_normal(2))
        pt = product_to_chart(z, w, zeta)
        z2, w2 = chart_to_product(pt)
        assert np.max(np.abs(z2 - z)) < 1e-14
        assert np.max(np.abs(w2 - w)) < 1e-14
        # V-chart routing gives the same answer away from zeta = 0
        if abs(zeta) > 0.3:
            z3, w3 = chart_to_product(pt.other())
            assert np.max(np.abs(z3 - z)) < 1e-12
            assert np.max(np.abs(w3 - w)) < 1e-12


def test_pushforward_matches_fd_transition():
    rng = np.random.default_rng(62)
    h = 1e-6
    for _ in range(10):
        pt = ChartPoint(_cpair(rng, 2), _cpair(rng, 2), _czeta(rng))
        tan = _tangent(rng, 2)
        other, out = transition_pushforward(pt, tan)
        plus = ChartPoint(
            pt.v + h * tan[0], pt.xi + h * tan[1], pt.zeta + h * tan[2]
        ).other()
        minus = ChartPoint(
            pt.v - h * tan[0], pt.xi - h * tan[1], pt.zeta - h * tan[2]
        ).other()
        assert np.max(np.abs((plus.v - minus.v) / (2 * h) - out[0])) < 1e-6
        assert np.max(np.abs((plus.xi - minus.xi) / (2 * h) - out[1])) < 1e-6
        assert abs((plus.zeta - minus.zeta) / (2 * h) - out[2]) < 1e-6


# -- fibrewise symplectic pencil ---------------------------------------------------


def test_pencil_endpoint_at_zero():
    rng = np.random.default_rng(63)
    model = FlatModel(2)
    for _ in range(10):
        s, t = rng.standard_normal(8), rng.standard_normal(8)
        expect = model.omega2(s, t) + 1j * model.omega3(s, t)
        assert fibre_symplectic(model, 0.0, s, t) == pytest.approx(expect)


def test_pencil_hand_values_on_basis_vectors():
    model = FlatModel(1)
    e_z = np.array([1.0, 0.0, 0.0, 0.0])
    e_w = np.array([0.0, 0.0, 1.0, 0.0])
    # omega2(e_z, e_w) = 1, omega1 = omega3 = 0 on this pair: pencil = 1 + zeta^2
    assert fibre_symplectic(model, 1j, e_z, e_w) == pytest.approx(0.0)
    assert fibre_symplectic(model, 1.0, e_z, e_w) == pytest.approx(2.0)
    assert fibre_symplectic(model, 2.0, e_z, e_w) == pytest.approx(5.0)


def test_pencil_reality_under_antipode():
    rng = np.random.default_rng(64)
    model = FlatModel(2)
    for _ in range(20):
        s, t = rng.standard_normal(8), rng.standard_normal(8)
        zeta = _czeta(rng)
        lhs = np.conj(fibre_symplectic(model, -1.0 / np.conj(zeta), s, t))
        rhs = fibre_symplectic(model, zeta, s, t) / zeta**2
        assert abs(lhs - rhs) < 1e-12 * max(1.0, abs(rhs))


# -- transition function ------------------------------------------------------------


def test_transition_trivial_and_hand_value():
    assert transition_gUV([1.0, -2.0], [0.0, 0.0], 0.7) == pytest.approx(1.0)
    assert transition_gUV([1.0], [1.0], 1.0) == pytest.approx(np.exp(-0.5))
    with pytest.raises(DomainError):
        transition_gUV([1.0], [1.0], 0.0)
    with pytest.raises(DomainError):
        transition_gVU([1.0], [1.0], 0.0)


def test_transition_cocycle():
    rng = np.random.default_rng(65)
    for n in (1, 2, 3):
        for _ in range(20):
            pt = ChartPoint(_cpair(rng, n), _cpair(rng, n), _czeta(rng))
            other = pt.other()
            prod = transition_gUV(pt.v, pt.xi, pt.zeta) * transition_gVU(
                other.v, other.xi, other.zeta
            )
            assert abs(prod - 1.0) < 1e-12


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

    def cr_residual(pt):
        coords = np.concatenate([pt.v, pt.xi, [pt.zeta]])

        def ev(c):
            return transition_gUV(c[:1], c[1:2], complex(c[2]))

        worst = 0.0
        for j in range(len(coords)):
            e = np.zeros(len(coords), dtype=complex)
            e[j] = h
            d_dx = fd4(ev, coords, e)
            e[j] = 1j * h
            d_dy = fd4(ev, coords, e)
            # dbar_j = (d/dx_j + i d/dy_j)/2
            worst = max(worst, abs(0.5 * (d_dx + 1j * d_dy)))
        return worst

    for _ in range(10):
        pt = ChartPoint(_cpair(rng, 1), _cpair(rng, 1), _czeta(rng, 0.5))
        assert cr_residual(pt) < 1e-10


# -- semi-free connection pair -------------------------------------------------------


def test_connection_pair_identity():
    rng = np.random.default_rng(67)
    for n in (1, 2, 3):
        for _ in range(34):
            v, xi = _cpair(rng, n), _cpair(rng, n)
            zeta = _czeta(rng)
            assert connection_pair_residual(v, xi, zeta, _tangent(rng, n)) < 1e-12


def test_connection_pair_zeta_direction():
    rng = np.random.default_rng(68)
    for _ in range(10):
        v, xi = _cpair(rng, 2), _cpair(rng, 2)
        tan = (np.zeros(2, dtype=complex), np.zeros(2, dtype=complex), 1.0 + 0.5j)
        assert connection_pair_residual(v, xi, _czeta(rng), tan) < 1e-13


def test_connection_difference_vanishes_along_level_tangent():
    # tv = v, txi = -xi, tzeta = 0 keeps sum(v xi)/2 zeta constant
    rng = np.random.default_rng(69)
    for _ in range(10):
        v, xi = _cpair(rng, 2), _cpair(rng, 2)
        zeta = _czeta(rng)
        tan = (v, -xi, 0.0j)
        pt = ChartPoint(v, xi, zeta)
        other, tilde = transition_pushforward(pt, tan)
        from hkgeom.twistor import semifree_AV

        diff = semifree_AV(other.v, other.xi, other.zeta, tilde) - semifree_AU(
            v, xi, zeta, tan
        )
        assert abs(diff) < 1e-13


# -- meromorphic connection ---------------------------------------------------------


def test_mero_connection_pole_guard():
    with pytest.raises(DomainError):
        mero_connection(1, [1.0], [1.0], 0.0, ([0j], [0j], 1.0))


def test_lifted_field_matches_finite_rotation():
    rng = np.random.default_rng(70)
    h = 1e-3
    for spec in (FULL, SEMI, CircleActionSpec(k=(2, 1), l=(-1, 0))):
        n = spec.n
        model = FlatModel(n)
        for _ in range(5):
            z, w = _cpair(rng, n), _cpair(rng, n)
            zeta = _czeta(rng)
            pt = product_to_chart(z, w, zeta)
            lift = lifted_action_field(spec, pt)

            def at(theta):
                k = np.asarray(spec.k)
                l = np.asarray(spec.l)
                return product_to_chart(
                    np.exp(1j * k * theta) * z,
                    np.exp(1j * l * theta) * w,
                    np.exp(1j * spec.degree * theta) * zeta,
                )

            plus, minus = at(h), at(-h)
            plus2, minus2 = at(2 * h), at(-2 * h)
            for got, a, b, a2, b2 in (
                (lift[0], plus.v, minus.v, plus2.v, minus2.v),
                (lift[1], plus.xi, minus.xi, plus2.xi, minus2.xi),
                (lift[2], plus.zeta, minus.zeta, plus2.zeta, minus2.zeta),
            ):
                fd = (-a2 + 8 * a - 8 * b + b2) / (12 * h)
                assert np.max(np.abs(fd - got)) < 1e-10


def test_lifted_field_validation():
    pt = ChartPoint([1.0], [1.0], 0.5)
    with pytest.raises(ConfigError):
        lifted_action_field(CircleActionSpec(k=(1, 1), l=(1, 1)), pt)
    with pytest.raises(ConfigError):
        lifted_action_field(FULL, pt.other())


def test_full_rotation_annihilates_curvature():
    rng = np.random.default_rng(71)
    for _ in range(100):
        pt = ChartPoint(_cpair(rng, 1), _cpair(rng, 1), _czeta(rng))
        assert action_invariance_residual(FULL, pt, _tangent(rng, 1)) < 1e-10


def test_unequal_weights_do_not_annihilate():
    rng = np.random.default_rng(72)
    worst = 0.0
    for _ in range(20):
        pt = ChartPoint(_cpair(rng, 1), _cpair(rng, 1), _czeta(rng))
        worst = max(worst, action_invariance_residual(SEMI, pt, _tangent(rng, 1)))
    assert worst > 1e-2


def test_fibre_restriction_matches_pencil():
    rng = np.random.default_rng(73)
    for _ in range(50):
        n = int(rng.integers(1, 3))
        z, w = _cpair(rng, n), _cpair(rng, n)
        zeta = _czeta(rng)
        s, t = rng.standard_normal(4 * n), rng.standard_normal(4 * n)
        assert fibre_restriction_residual(z, w, zeta, s, t) < 1e-10
    with pytest.raises(DomainError):
        fibre_restriction_residual([1.0], [1.0], 0.0, np.ones(4), np.ones(4))


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
                    v + eps * direction[0],
                    xi + eps * direction[1],
                    zeta + eps * direction[2],
                    other,
                )

            return (-phi(2 * h) + 8 * phi(h) - 8 * phi(-h) + phi(2 * -h)) / (12 * h)

        return along(s, t) - along(t, s)

    for _ in range(10):
        v, xi, zeta = _cpair(rng, 2), _cpair(rng, 2), _czeta(rng, 0.5)
        s, t = _tangent(rng, 2), _tangent(rng, 2)
        closed = curvature_FZ(v, xi, zeta, s, t)
        assert closed == pytest.approx(-curvature_FZ(v, xi, zeta, t, s))
        for n_char in (0, 3):
            assert abs(d_conn(n_char, v, xi, zeta, s, t) - closed) < 1e-8


# -- residues and pole orders ---------------------------------------------------------


def test_rotation_residue_verbatim():
    rng = np.random.default_rng(75)
    for n_char in (1, 2, 5):
        v, xi = _cpair(rng, 2), _cpair(rng, 2)
        res = rotation_residue(n_char, v, xi)
        assert abs(res - 2j * np.pi * n_char) < 1e-10


def test_fibre_residue_matches_contracted_form():
    rng = np.random.default_rng(76)
    for _ in range(20):
        n = int(rng.integers(1, 4))
        z, w = _cpair(rng, n), _cpair(rng, n)
        s = rng.standard_normal(4 * n)
        assert residue_match_residual(z, w, s) < 1e-10


def test_pole_order_measurement():
    assert pole_order(lambda zeta: 3.0 + zeta) == 0
    assert pole_order(lambda zeta: 1.0 / zeta + 5.0) == 1
    assert pole_order(lambda zeta: 1.0 / zeta**2 + 1.0 / zeta) == 2
    assert pole_order(lambda zeta: 0.0) == 0


def test_connection_report_simple_poles():
    rng = np.random.default_rng(77)
    rep = connection_report(2, _cpair(rng, 2), _cpair(rng, 2), _tangent(rng, 2))
    assert rep.pole_order_zero == 1
    assert rep.pole_order_infinity == 1
    assert abs(rep.rotation_residue - 4j * np.pi) < 1e-10
    with pytest.raises(StructureError):
        MeroConnectionReport(1, 2, 1, 0.0j)


def test_curvature_closed():
    rng = np.random.default_rng(78)
    for _ in range(5):
        z, w = _cpair(rng, 1), _cpair(rng, 1)
        zeta = _czeta(rng, 0.7)
        assert fz_closedness_residual(1, z, w, zeta) < 1e-10
    with pytest.raises(DomainError):
        fz_closedness_residual(1, z, w, 1e-4)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_curvature_field_is_the_closed_form_on_chart_jacobian_images(n):
    # entry (a, b) of the field is F_Z on the chart images J e_a, J e_b of
    # the coordinate vectors
    rng = np.random.default_rng(80 + n)
    model = FlatModel(n)
    field = curvature_FZ_field(n)
    for _ in range(5):
        z, w, zeta = _cpair(rng, n), _cpair(rng, n), _czeta(rng)
        p = pack_point(model, z, w, zeta)
        pt = product_to_chart(z, w, zeta)
        images = [(c[:n], c[n : 2 * n], c[2 * n]) for c in chart_jacobian(model, p).T]
        closed = np.array(
            [[curvature_FZ(pt.v, pt.xi, pt.zeta, s, t) for t in images] for s in images]
        )
        assert np.max(np.abs(field(p).as_matrix() - closed)) < 1e-12


def test_doubled_dzeta_term_fails_closedness_and_invariance(monkeypatch):
    coefficients = twistor.fz_coefficients

    def doubled(v, xi, zeta):
        C = coefficients(v, xi, zeta)
        C[..., -1, :] *= 2.0  # the dzeta row and column hold the dzeta ^ b term alone
        C[..., :, -1] *= 2.0
        return C

    monkeypatch.setattr(twistor, "fz_coefficients", doubled)
    cfg = RunConfig(suite="twistor")
    for check_id in ("twistor.closedness", "twistor.rotation.invariance"):
        rec = run_check(cfg, check_id)
        assert not rec.passed, (check_id, rec.residual)


# -- hermitian metric ----------------------------------------------------------------


def test_structure_squares_to_minus_id():
    rng = np.random.default_rng(79)
    structure = twistor_structure(2)
    for _ in range(10):
        p = rng.standard_normal(total_dim(2))
        s = structure(p)
        assert np.max(np.abs(s @ s + np.eye(total_dim(2)))) < 1e-12
        jac = chart_jacobian(FlatModel(2), p)
        assert np.max(np.abs(jac @ s - 1j * jac)) < 1e-12


def test_structure_at_zero_is_flat_I():
    model = FlatModel(2)
    p = pack_point(model, [0.3 + 1j, -0.2j], [1.0, 0.5 - 0.5j], 0.0)
    s = twistor_structure(2)(p)
    assert np.max(np.abs(s[:8, :8] - model.I)) == 0.0
    assert np.max(np.abs(s[:8, 8:])) == 0.0


def test_pack_unpack_round_trip():
    model = FlatModel(2)
    rng = np.random.default_rng(80)
    p = rng.standard_normal(total_dim(2))
    z, w, zeta = unpack_point(model, p)
    assert np.max(np.abs(pack_point(model, z, w, zeta) - p)) == 0.0


def test_dbar_display():
    rng = np.random.default_rng(81)
    for _ in range(20):
        z, w = _cpair(rng, 1), _cpair(rng, 1)
        zeta = complex(*rng.standard_normal(2))
        tangent = rng.standard_normal(total_dim(1))
        assert dbar_display_residual(1, z, w, zeta, tangent) < 1e-9


def test_hermitian_curvature_matches_flat():
    rng = np.random.default_rng(82)
    for _ in range(12):
        z, w = _cpair(rng, 1), _cpair(rng, 1)
        zeta = complex(*rng.standard_normal(2))
        assert hermitian_curvature_residual(1, z, w, zeta) < 1e-6


def test_hermitian_curvature_zeta_zero_slice():
    rng = np.random.default_rng(83)
    z, w = _cpair(rng, 1), _cpair(rng, 1)
    assert hermitian_curvature_residual(1, z, w, 0.0) < 1e-6
    # the reference constant form is the flat-space curvature of the same action
    flat = hyperholo_curvature(SEMI, np.array([0.3, -0.2, 0.8, 0.1]))
    assert np.max(np.abs(flat.comps - flat_reference_curvature(1).comps)) < 1e-9


def test_reality_identity():
    rng = np.random.default_rng(84)
    for _ in range(30):
        n = int(rng.integers(1, 4))
        z, w = _cpair(rng, n), _cpair(rng, n)
        zeta = _czeta(rng, 0.15)
        assert reality_residual(z, w, zeta) < 1e-12
    with pytest.raises(DomainError):
        log_hV([1.0], [1.0], 0.0)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_log_hU_field_batch_matches_rows(n):
    rng = np.random.default_rng(90 + n)
    rows = rng.standard_normal((200, total_dim(n)))
    field = log_hU_field(n)
    batch = field(rows)
    assert batch.shape == (200,)
    assert np.array_equal(batch, [field(row) for row in rows])
    assert np.ndim(field(rows[0])) == 0
    # the field is the per-point formula on unpacked coordinates
    assert np.array_equal(batch, [log_hU(*unpack_point(FlatModel(n), r)) for r in rows])


def test_log_h_hand_value():
    # z = 1, w = 2i, zeta = i: 1/2(1 - 4) + Re(-i * 2i) = -3/2 + 2 = 1/2
    assert log_hU([1.0], [2.0j], 1j) == pytest.approx(0.5)
    assert log_gUV_sq([1.0], [1.0], 1.0) == pytest.approx(-1.0)


def test_vertical_lift_is_chart_differential():
    rng = np.random.default_rng(85)
    h = 1e-6
    for _ in range(10):
        z, w = _cpair(rng, 2), _cpair(rng, 2)
        zeta = complex(*rng.standard_normal(2))
        model = FlatModel(2)
        s = rng.standard_normal(8)
        tv, txi, tzeta = vertical_lift(z, w, zeta, s)
        sz, sw = model.to_complex(s)
        plus = product_to_chart(z + h * sz, w + h * sw, zeta)
        minus = product_to_chart(z - h * sz, w - h * sw, zeta)
        assert np.max(np.abs((plus.v - minus.v) / (2 * h) - tv)) < 1e-9
        assert np.max(np.abs((plus.xi - minus.xi) / (2 * h) - txi)) < 1e-9
        assert tzeta == 0.0


# -- tangent lengths -------------------------------------------------------------

_V2, _XI2, _ZETA = np.array([1.0, 2.0]), np.array([0.5, -1.0]), 0.8 + 0.3j
_GOOD = (np.ones(2), np.ones(2), 0.5)
_SHORT = (np.ones(1), np.ones(1), 0.5)

#: every closed form that takes a chart tangent, called at n = 2
_TANGENT_CALLS = {
    "curvature_FZ[s]": lambda t: curvature_FZ(_V2, _XI2, _ZETA, t, _GOOD),
    "curvature_FZ[t]": lambda t: curvature_FZ(_V2, _XI2, _ZETA, _GOOD, t),
    "action_invariance_residual": lambda t: action_invariance_residual(
        CircleActionSpec(k=(1, 1), l=(1, 1)), ChartPoint(_V2, _XI2, _ZETA), t
    ),
    "mero_connection": lambda t: mero_connection(1, _V2, _XI2, _ZETA, t),
    "overlap_potential_d": lambda t: twistor.overlap_potential_d(_V2, _XI2, _ZETA, t),
    "semifree_AU": lambda t: semifree_AU(_V2, _XI2, _ZETA, t),
    "semifree_AV": lambda t: twistor.semifree_AV(_V2, _XI2, _ZETA, t),
    "connection_pair_residual": lambda t: connection_pair_residual(_V2, _XI2, _ZETA, t),
    "transition_pushforward": lambda t: transition_pushforward(ChartPoint(_V2, _XI2, _ZETA), t),
}


@pytest.mark.parametrize("name", sorted(_TANGENT_CALLS))
def test_tangent_length_must_match_n(name):
    call = _TANGENT_CALLS[name]
    call(_GOOD)
    with pytest.raises(ConfigError, match="length 2"):
        call(_SHORT)
