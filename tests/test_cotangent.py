"""Tests for the cotangent-bundle hyperkähler family on T*CP^1."""

import numpy as np
import pytest

from hkgeom.cotangent import (
    I,
    CotangentPoint,
    base_form,
    bg_curvature,
    bg_curvature_residual,
    bg_hyperkahler_check,
    bg_moment_map,
    bg_moment_residuals,
    bg_omega1,
    f_profile,
    fu_identity_residual,
    g_profile,
    potential_h,
    potential_k,
    uf_prime,
)
from hkgeom import cotangent
from hkgeom.forms import FDScheme, FormField, FormValue, ext_deriv, pullback
from hkgeom.suites import RunConfig, run_check


def _random_points(rng, count, b_max=0.8, v_max=0.8):
    pts = []
    for _ in range(count):
        b = complex(*rng.uniform(-b_max, b_max, 2))
        v = complex(*rng.uniform(-v_max, v_max, 2))
        if abs(v) < 0.05:
            v += 0.1 + 0.1j
        pts.append(CotangentPoint(b, v))
    return pts


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


def test_uf_prime_closed_forms_agree():
    u = np.logspace(-3, 1, 50)
    assert np.allclose(uf_prime(u), (np.sqrt(1 + u) - 1) / (2 * u), atol=1e-14)


# -- potentials -----------------------------------------------------------------


def test_potential_vanishes_at_zero_covector():
    pt = CotangentPoint(0.3 + 0.1j, 0.0)
    assert potential_h(pt) == 0.0
    assert potential_k(pt) == 0.0
    assert bg_moment_map(pt) == 0.0


def test_potential_scalar_reduction():
    # CP^1: h = f(u) * u/2 with u = (1+|b|^2)^2 |v|^2
    rng = np.random.default_rng(17)
    for pt in _random_points(rng, 10):
        u = (1 + abs(pt.b) ** 2) ** 2 * abs(pt.v) ** 2
        assert np.isclose(potential_h(pt), f_profile(u) * u / 2, atol=1e-13)
        assert np.isclose(potential_k(pt), g_profile(u) * u / 2, atol=1e-13)
        assert np.isclose(
            bg_moment_map(pt), -uf_prime(u) * u, atol=1e-13
        )


def test_potential_homogeneity():
    pt = CotangentPoint(0.2 - 0.4j, 0.3 + 0.5j)
    scaled = CotangentPoint(pt.b, 2.0 * pt.v)
    u = (1 + abs(pt.b) ** 2) ** 2 * abs(pt.v) ** 2
    assert np.isclose(
        potential_h(scaled), f_profile(4 * u) * 4 * u / 2, atol=1e-12
    )


def test_moment_map_scaling_identity():
    # mu(lambda v) recomputed in closed form matches the u -> lambda^2 u formula
    pt = CotangentPoint(0.5 + 0.2j, 0.4 - 0.1j)
    u = (1 + abs(pt.b) ** 2) ** 2 * abs(pt.v) ** 2
    for lam in (0.5, 2.0, 3.0):
        scaled = CotangentPoint(pt.b, lam * pt.v)
        expected = -2.0 * uf_prime(lam**2 * u) * (lam**2 * u / 2)
        assert np.isclose(bg_moment_map(scaled), expected, atol=1e-9)


def test_circle_invariance_exact():
    pt = CotangentPoint(0.1 + 0.7j, 0.3 - 0.2j)
    h0, mu0 = potential_h(pt), bg_moment_map(pt)
    for th in (0.7, 2.1, 4.4):
        rpt = CotangentPoint(pt.b, np.exp(1j * th) * pt.v)
        assert abs(potential_h(rpt) - h0) < 1e-12
        assert abs(bg_moment_map(rpt) - mu0) < 1e-12


@pytest.mark.parametrize("profile", [potential_h, potential_k, bg_moment_map])
def test_profile_fields_batch_match_rows(profile):
    rng = np.random.default_rng(31)
    rows = rng.uniform(-0.8, 0.8, size=(200, 4))
    batch = profile(CotangentPoint.from_coords(rows))
    assert batch.shape == (200,)
    single = np.array([profile(CotangentPoint.from_coords(q)) for q in rows])
    assert np.max(np.abs(batch - single) / np.abs(single)) <= 1e-15
    assert isinstance(profile(CotangentPoint.from_coords(rows[0])), float)


# -- moment-map consistency -------------------------------------------------------


def test_moment_map_residuals():
    rng = np.random.default_rng(18)
    for pt in _random_points(rng, 10):
        res_lambda, res_ix = bg_moment_residuals(pt)
        assert res_lambda < 1e-7
        assert res_ix < 1e-6


# -- forms ------------------------------------------------------------------------


def test_omega1_restricts_to_base_form_on_zero_section():
    E = np.zeros((4, 2))
    E[0, 0] = E[1, 1] = 1.0  # base directions
    for b in (0.0, 0.4 - 0.2j, -0.6 + 0.3j):
        pt = CotangentPoint(b, 0.0)
        w1 = bg_omega1(pt)
        restricted = pullback(w1, E)
        base = pullback(base_form(pt), E)
        assert np.allclose(restricted.comps, base.comps, atol=1e-8)


def test_omega1_closed_and_nondegenerate():
    inner = FDScheme(h=1e-3, order=4)
    field = FormField(
        lambda p: bg_omega1(CotangentPoint.from_coords(p), inner),
        degree=2,
        dim=4,
    )
    rng = np.random.default_rng(19)
    for pt in _random_points(rng, 3, b_max=0.6, v_max=0.5):
        dw = ext_deriv(field, pt.coords, FDScheme(h=1e-2, order=4))
        assert dw.norm() < 1e-6
        w1 = bg_omega1(pt, inner)
        # nondegeneracy via the Pfaffian of the component matrix
        M = w1.as_matrix()
        pf = M[0, 1] * M[2, 3] - M[0, 2] * M[1, 3] + M[0, 3] * M[1, 2]
        assert abs(pf) > 0.05


def test_curvature_two_expressions_agree():
    rng = np.random.default_rng(20)
    for pt in _random_points(rng, 10):
        assert bg_curvature_residual(pt) < 1e-5


def test_curvature_restricts_to_base_form_on_zero_section():
    E = np.zeros((4, 2))
    E[0, 0] = E[1, 1] = 1.0
    pt = CotangentPoint(0.25 + 0.5j, 0.0)
    F = bg_curvature(pt)
    base = pullback(base_form(pt), E)
    assert np.allclose(pullback(F, E).comps, base.comps, atol=1e-8)


def test_curvature_closed():
    inner = FDScheme(h=1e-3, order=4)
    field = FormField(
        lambda p: bg_curvature(CotangentPoint.from_coords(p), inner),
        degree=2,
        dim=4,
    )
    pt = CotangentPoint(0.3 + 0.1j, 0.4 - 0.3j)
    dF = ext_deriv(field, pt.coords, FDScheme(h=1e-2, order=4))
    assert dF.norm() < 1e-6


def test_hyperkahler_check_near_zero_section():
    rng = np.random.default_rng(21)
    for pt in _random_points(rng, 8, b_max=0.7, v_max=0.5):
        rep = bg_hyperkahler_check(pt)
        assert rep["J2"] < 1e-6
        for key in ("type11_I", "type11_J", "type11_K"):
            assert rep[key] < 1e-6


def test_curvature_type11_for_I_exact_on_zero_section():
    # at v=0 the curvature is the base form, which is (1,1) for I
    from hkgeom.forms import type11_residual

    pt = CotangentPoint(0.2 + 0.6j, 0.0)
    F = bg_curvature(pt)
    assert type11_residual(F, I) < 1e-9


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
