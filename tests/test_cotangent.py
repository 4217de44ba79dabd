"""Tests for the cotangent-bundle hyperkähler family on T*CP^1."""

import numpy as np
import pytest
from batch_rows import batch_row_test, one_point_test

from hkgeom.cotangent import (
    I,
    CotangentPoint,
    base_form,
    bg_curvature,
    bg_contraction_residual,
    bg_curvature_residual,
    bg_moment_map,
    bg_omega1,
    bg_scaling_residual,
    f_profile,
    fu_identity_residual,
    g_profile,
    potential_h,
    potential_k,
    uf_prime,
)
from hkgeom import cotangent
from hkgeom.forms import (
    FDScheme,
    FormField,
    _as_matrices,
    dc_deriv,
    ext_deriv,
    fd_gradient,
    type11_residual,
)
from hkgeom.suites import RunConfig, run_check


def _random_points(rng, count, b_max=0.8, v_max=0.8):
    """One batch of count points, drawn (Re b, Im b, Re v, Im v) point by point."""
    bound = np.array([b_max, b_max, v_max, v_max])
    x = rng.uniform(-bound, bound, (count, 4))
    b, v = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]
    return CotangentPoint(b, np.where(np.abs(v) < 0.05, v + (0.1 + 0.1j), v))


def _one(b, v):
    """The batch of the one point (b, v)."""
    return CotangentPoint([b], [v])


#: the stencil of every d^c and dd^c below that does not pick its own
_SCHEME = FDScheme(h=1e-3, order=4)


# -- scalar profiles ------------------------------------------------------------


def test_profile_limits_at_zero():
    assert np.isclose(f_profile(1e-12), 0.25, atol=1e-12)
    assert np.isclose(g_profile(1e-12), -0.25, atol=1e-12)
    assert np.isclose(uf_prime(0.0), 0.25)


def test_profiles_against_mpmath_oracle():
    import mpmath

    mpmath.mp.dps = 40

    def f_mp(u):
        u = mpmath.mpf(u)
        s = mpmath.sqrt(1 + u)
        return float((s - 1 - mpmath.log((1 + s) / 2)) / u)

    def g_mp(u):
        u = mpmath.mpf(u)
        return float(-mpmath.log((1 + mpmath.sqrt(1 + u)) / 2) / u)

    for u in (1e-9, 5e-5, 9.9e-5, 1.1e-4, 1e-3, 0.1, 1.0, 10.0):
        assert np.isclose(f_profile(u), f_mp(u), rtol=1e-10, atol=1e-13)
        assert np.isclose(g_profile(u), g_mp(u), rtol=1e-10, atol=1e-13)


def test_series_closed_form_continuity_at_switch():
    # evaluate both branches at the same u just below the switch point
    from hkgeom.cotangent import SERIES_SWITCH

    u = 0.999 * SERIES_SWITCH
    s = np.sqrt(1.0 + u)
    f_closed = (s - 1.0 - np.log((1.0 + s) / 2.0)) / u
    g_closed = -np.log((1.0 + s) / 2.0) / u
    assert abs(f_profile(u) - f_closed) < 1e-9
    assert abs(g_profile(u) - g_closed) < 1e-9


def test_fu_identity_residual_log_grid():
    grid = np.logspace(-3, 1, 200)
    assert fu_identity_residual(grid) < 1e-7


def test_fu_identity_residual_equals_one_gradient_per_value():
    # reference: one fd_gradient stencil per grid value, each with its own step
    grid = np.logspace(-3, 1, 200)
    gaps = []
    for u in grid:
        scheme = FDScheme(h=min(0.25 * u, 0.05), order=4)
        fd = fd_gradient(lambda x: cotangent.u_eval(x[:, 0]), [[u]], scheme)[0, 0]
        gaps.append(abs(fd - (np.sqrt(1.0 + u) - 1.0) / (2.0 * u)))
    assert fu_identity_residual(grid) == max(gaps)


def test_fu_identity_fails_on_a_nan_value(monkeypatch):
    # a NaN late in the grid: a running builtin max would drop it
    u_eval = cotangent.u_eval
    monkeypatch.setattr(cotangent, "u_eval", lambda u: np.where(u > 5.0, np.nan, u_eval(u)))
    assert np.isnan(fu_identity_residual(np.logspace(-3, 1, 200)))
    record = run_check(RunConfig(suite="cotangent"), "bg.profile.identity")
    assert not record.passed and record.residual is None


def test_uf_prime_closed_forms_agree():
    u = np.logspace(-3, 1, 50)
    assert np.allclose(uf_prime(u), (np.sqrt(1 + u) - 1) / (2 * u), atol=1e-14)


# -- potentials -----------------------------------------------------------------


def test_potential_vanishes_at_zero_covector():
    pt = _one(0.3 + 0.1j, 0.0)
    assert potential_h(pt)[0] == 0.0
    assert potential_k(pt)[0] == 0.0
    assert bg_moment_map(pt)[0] == 0.0


def test_potential_scalar_reduction():
    # CP^1: h = f(u) * u/2 with u = (1+|b|^2)^2 |v|^2
    pt = _random_points(np.random.default_rng(17), 10)
    u = (1 + abs(pt.b) ** 2) ** 2 * abs(pt.v) ** 2
    assert np.allclose(potential_h(pt), f_profile(u) * u / 2, atol=1e-13)
    assert np.allclose(potential_k(pt), g_profile(u) * u / 2, atol=1e-13)
    assert np.allclose(bg_moment_map(pt), -uf_prime(u) * u, atol=1e-13)


def test_potential_homogeneity():
    pt = _one(0.2 - 0.4j, 0.3 + 0.5j)
    scaled = CotangentPoint(pt.b, 2.0 * pt.v)
    u = (1 + abs(pt.b) ** 2) ** 2 * abs(pt.v) ** 2
    assert np.allclose(potential_h(scaled), f_profile(4 * u) * 4 * u / 2, atol=1e-12)


def test_moment_map_scaling_identity():
    # mu(lambda v) recomputed in closed form matches the u -> lambda^2 u formula
    pt = _one(0.5 + 0.2j, 0.4 - 0.1j)
    u = (1 + abs(pt.b) ** 2) ** 2 * abs(pt.v) ** 2
    for lam in (0.5, 2.0, 3.0):
        scaled = CotangentPoint(pt.b, lam * pt.v)
        expected = -2.0 * uf_prime(lam**2 * u) * (lam**2 * u / 2)
        assert np.allclose(bg_moment_map(scaled), expected, atol=1e-9)


def test_circle_invariance_exact():
    pt = _one(0.1 + 0.7j, 0.3 - 0.2j)
    h0, mu0 = potential_h(pt)[0], bg_moment_map(pt)[0]
    for th in (0.7, 2.1, 4.4):
        rpt = CotangentPoint(pt.b, np.exp(1j * th) * pt.v)
        assert abs(potential_h(rpt)[0] - h0) < 1e-12
        assert abs(bg_moment_map(rpt)[0] - mu0) < 1e-12


@pytest.mark.parametrize("profile", [potential_h, potential_k, bg_moment_map])
def test_profile_fields_batch_match_rows(profile):
    rng = np.random.default_rng(31)
    rows = rng.uniform(-0.8, 0.8, size=(200, 4))
    batch = profile(CotangentPoint.from_coords(rows))
    assert batch.shape == (200,)
    single = np.array([profile(CotangentPoint.from_coords(q[None]))[0] for q in rows])
    assert np.array_equal(batch, single)


# -- moment-map consistency -------------------------------------------------------


def test_moment_map_residuals():
    pts = _random_points(np.random.default_rng(18), 10)
    res_lambda, res_ix = bg_scaling_residual(pts), bg_contraction_residual(pts, _SCHEME)
    assert res_lambda.shape == res_ix.shape == (10,)
    assert np.all(res_lambda < 1e-7)
    assert np.all(res_ix < 1e-6)


# -- forms ------------------------------------------------------------------------


def test_omega1_restricts_to_base_form_on_zero_section():
    E = np.zeros((4, 2))
    E[0, 0] = E[1, 1] = 1.0  # base directions
    for b in (0.0, 0.4 - 0.2j, -0.6 + 0.3j):
        pt = _one(b, 0.0)
        # the pullback of a 2-form with matrix M to the frame E is E^T M E
        restricted = E.T @ _as_matrices(bg_omega1(pt, _SCHEME)[0], 4) @ E
        base = E.T @ _as_matrices(base_form(pt)[0], 4) @ E
        assert np.allclose(restricted, base, atol=1e-8)


def test_omega1_closed_and_nondegenerate():
    inner = FDScheme(h=1e-3, order=4)
    field = FormField(
        lambda ps: bg_omega1(CotangentPoint.from_coords(ps), inner), degree=2, dim=4
    )
    pts = _random_points(np.random.default_rng(19), 3, b_max=0.6, v_max=0.5)
    dw = ext_deriv(field, pts.coords, FDScheme(h=1e-2, order=4))
    assert np.max(np.linalg.norm(dw, axis=-1)) < 1e-6
    # nondegeneracy via the Pfaffian of the component matrix
    for M in _as_matrices(bg_omega1(pts, inner), 4):
        pf = M[0, 1] * M[2, 3] - M[0, 2] * M[1, 3] + M[0, 3] * M[1, 2]
        assert abs(pf) > 0.05


def test_curvature_two_expressions_agree():
    pts = _random_points(np.random.default_rng(20), 10)
    assert np.all(bg_curvature_residual(pts, _SCHEME) < 1e-5)


def test_curvature_restricts_to_base_form_on_zero_section():
    E = np.zeros((4, 2))
    E[0, 0] = E[1, 1] = 1.0
    pt = _one(0.25 + 0.5j, 0.0)
    # the pullback of a 2-form with matrix M to the frame E is E^T M E
    F = E.T @ _as_matrices(bg_curvature(pt, _SCHEME)[0], 4) @ E
    base = E.T @ _as_matrices(base_form(pt)[0], 4) @ E
    assert np.allclose(F, base, atol=1e-8)


def test_curvature_closed():
    inner = FDScheme(h=1e-3, order=4)
    field = FormField(
        lambda ps: bg_curvature(CotangentPoint.from_coords(ps), inner), degree=2, dim=4
    )
    pt = _one(0.3 + 0.1j, 0.4 - 0.3j)
    dF = ext_deriv(field, pt.coords, FDScheme(h=1e-2, order=4))
    assert np.linalg.norm(dF) < 1e-6


def _type11_residuals(pt):
    """F's (1,1) residual for each of (I, J, K) = bg_structures, as bg.curvature.type11 takes it."""
    structures, F = cotangent.bg_structures(pt, _SCHEME), bg_curvature(pt, _SCHEME)
    return tuple(type11_residual(F, S, structure_tol=1e-4) for S in structures)


def test_hyperkahler_check_near_zero_section():
    pt = _random_points(np.random.default_rng(21), 8, b_max=0.7, v_max=0.5)
    residuals = (cotangent.bg_quaternionic_residual(cotangent.bg_structures(pt, _SCHEME)[1]),)
    residuals += _type11_residuals(pt)
    for name, res in zip(("J2", "type11_I", "type11_J", "type11_K"), residuals, strict=True):
        assert res.shape == (8,) and np.all(res < 1e-6), name


def test_curvature_type11_for_I_exact_on_zero_section():
    # at v=0 the curvature is the base form, which is (1,1) for I
    from hkgeom.forms import type11_residual

    F = bg_curvature(_one(0.2 + 0.6j, 0.0), _SCHEME)
    assert type11_residual(F, I)[0] < 1e-9


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reconstruction_checks_pin_the_pairing_normalisation(monkeypatch, seed):
    # twice the profiles is h, k and mu at twice the pairing (v, v) = u/2;
    # the checks linear in the potentials cannot see that, these two must
    # (bg.curvature.type11 through the J it reconstructs from omega1)
    for name in ("f_profile", "g_profile", "uf_prime"):
        profile = getattr(cotangent, name)
        monkeypatch.setattr(cotangent, name, lambda u, profile=profile: 2.0 * profile(u))
    cfg = RunConfig(suite="cotangent", seed=seed)
    for check_id in ("bg.structure.quaternionic", "bg.curvature.type11"):
        rec = run_check(cfg, check_id)
        assert not rec.passed, (check_id, rec.residual)


def test_quaternionic_check_builds_no_curvature(monkeypatch):
    def no_curvature(pt, scheme=None):
        raise AssertionError("bg.structure.quaternionic reads J alone")

    monkeypatch.setattr(cotangent, "bg_curvature", no_curvature)
    assert run_check(RunConfig(suite="cotangent"), "bg.structure.quaternionic").passed


# -- one batch convention -----------------------------------------------------------

_K = 5
_PTS = _random_points(np.random.default_rng(60), _K)
_J = cotangent.bg_structures(_PTS, _SCHEME)[1]


def _rows(r):
    """Rows r of the shared batch; an integer r gives 0-d b and v."""
    return CotangentPoint(_PTS.b[r], _PTS.v[r])


#: every batched closed form, on rows r of the shared batch (a slice)
_BATCHED = {
    "coords": lambda r: _rows(r).coords,
    "from_coords": lambda r: CotangentPoint.from_coords(_PTS.coords[r]).coords,
    "base_form": lambda r: base_form(_rows(r)),
    "potential_h": lambda r: potential_h(_rows(r)),
    "potential_k": lambda r: potential_k(_rows(r)),
    "bg_moment_map": lambda r: bg_moment_map(_rows(r)),
    "bg_omega1": lambda r: bg_omega1(_rows(r), _SCHEME),
    "bg_curvature": lambda r: bg_curvature(_rows(r), _SCHEME),
    "bg_curvature_residual": lambda r: bg_curvature_residual(_rows(r), _SCHEME),
    "bg_scaling_residual": lambda r: bg_scaling_residual(_rows(r)),
    "bg_contraction_residual": lambda r: bg_contraction_residual(_rows(r), _SCHEME),
    "bg_structures": lambda r: cotangent.bg_structures(_rows(r), _SCHEME)[1:],  # I is one constant
    "bg_quaternionic_residual": lambda r: cotangent.bg_quaternionic_residual(_J[r]),
    "type11_residual": lambda r: _type11_residuals(_rows(r)),
}


test_batch_row_equals_one_row_batch = batch_row_test(_BATCHED, _K)
# an integer index gives one point, 0-d b and v or 1-D coordinates
test_one_point_is_rejected = one_point_test(
    {name: call for name, call in _BATCHED.items() if name != "bg_quaternionic_residual"},
    r"shape \(k,( 4)?\)",
)


def test_from_coords_round_trips_the_bits():
    # -0.0 entries: q0 + 1j * q1 would turn each into +0.0
    q = np.array([[-0.0, 0.5, -0.0, -0.0], [0.3, -0.0, 0.0, -0.2]])
    back = CotangentPoint.from_coords(q).coords
    assert back.tobytes() == q.tobytes()


def test_chart_constants_are_the_flat_structures():
    # I multiplies b and v by i; omega2 = Re(db ^ dv) = dx0^dx2 - dx1^dx3
    assert np.array_equal(I, [[0, -1, 0, 0], [1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]])
    assert np.array_equal(cotangent.OMEGA2, _as_matrices(np.array([0, 1.0, 0, 0, -1.0, 0]), 4))
    for M in (I, cotangent.OMEGA2):
        assert M.flags.c_contiguous and not M.flags.writeable


def test_moment_residuals_equal_the_per_point_stencil_and_dot():
    # reference: one lambda gradient and one 1-form evaluation dch . X per point
    got = bg_scaling_residual(_PTS), bg_contraction_residual(_PTS, _SCHEME)
    for r, (b, v) in enumerate(zip(_PTS.b, _PTS.v)):
        one = _rows(slice(r, r + 1))
        mu = bg_moment_map(one)[0]

        def h_scaled(lam):
            scaled = v.real / lam[:, 0] + 1j * (v.imag / lam[:, 0])
            return potential_h(CotangentPoint(np.full(len(lam), b), scaled))

        dh = fd_gradient(h_scaled, [[1.0]], FDScheme(h=1e-5, order=4))[0, 0]
        dch = dc_deriv(cotangent._chart_field(potential_h), I, one.coords, _SCHEME)[0]
        ix = dch @ np.array([0.0, 0.0, -v.imag, v.real])
        assert got[0][r] == abs(mu - dh) and got[1][r] == abs(mu + ix), r
