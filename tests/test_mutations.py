"""Mutation tests: a deliberate defect in the library must turn its check to FAIL.

A residual that a slip forces to 0, such as a broadcast that pairs every
row with itself, would otherwise pass silently.  Each test monkeypatches
one defect into a closed form, first confirming that the check passes
without it, and asserts that the check then fails at the default
configuration.
"""

import numpy as np
import pytest

from hkgeom import cotangent, flatspace, quotient, suites, twistor
from hkgeom import gibbonshawking as gh
from hkgeom.forms import ScalarField, type11_residual
from hkgeom.suites import RunConfig, run_check


def _negated(fn):
    return lambda *args, **kwargs: -fn(*args, **kwargs)


def _scaled_pencil(fn):
    return lambda *args: 1.5 * fn(*args)


def _without(fn):
    return lambda *args: 0.0 * fn(*args)


def _halved(fn):
    return lambda *args: 0.5 * fn(*args)


def _double_pole(fn):
    def mutated(n_char, v, xi, zeta, tangent):
        return fn(n_char, v, xi, zeta, tangent) + 1.0 / zeta**2

    return mutated


#: check id -> (the twistor function the defect replaces, the defect)
TWISTOR_MUTATIONS = {
    # the overlap term of A_V - A_U = -d(v xi / 2 zeta) with its sign flipped
    "twistor.pair.exact": ("overlap_potential_d", _negated),
    "twistor.fibre.restriction": ("fibre_symplectic", _scaled_pencil),
    # i_X(omega2 + i omega3) is linear in X, so X -> -X flips the sign of
    # the expected residue
    "twistor.residue.fibre": ("action_vector_field", _negated),
    # log h_V - log h_U without its log |g_UV|^2 term
    "twistor.reality": ("log_gUV_sq", _without),
    "twistor.pole.orders": ("mero_connection", _double_pole),
    # the reference once the flat curvature instead of twice (1.0, tol 1e-6)
    "twistor.hermitian.curvature": ("_embedded_reference", _halved),
}


@pytest.mark.parametrize("check_id", sorted(TWISTOR_MUTATIONS))
def test_twistor_mutation_fails(check_id, monkeypatch):
    cfg = RunConfig(suite="twistor")
    assert run_check(cfg, check_id).passed
    name, mutate = TWISTOR_MUTATIONS[check_id]
    monkeypatch.setattr(twistor, name, mutate(getattr(twistor, name)))
    rec = run_check(cfg, check_id)
    assert not rec.passed, (check_id, rec.residual)


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


def test_shifted_fibre_weight_fails_the_rotation_residue(monkeypatch):
    # the connection of weight n + 1 has residue 2 pi i (n + 1): off by 2 pi
    # (6.28, tol 1e-10)
    cfg = RunConfig(suite="twistor")
    assert run_check(cfg, "twistor.residue.rotation").passed
    connection = twistor.mero_connection
    monkeypatch.setattr(
        twistor, "mero_connection", lambda n_char, *args: connection(n_char + 1, *args)
    )
    rec = run_check(cfg, "twistor.residue.rotation")
    assert not rec.passed and rec.residual > 6.0, rec.to_dict()


# -- flat ---------------------------------------------------------------------------


def test_reversed_rotation_fails_the_rotation_degree(monkeypatch):
    # exp(-theta A) scales omega2 + i omega3 by e^{-i n theta}, off from
    # e^{i n theta} by 2|sin(n theta)| (1.79 at the default angles, tol 1e-12)
    cfg = RunConfig(suite="flat")
    assert run_check(cfg, "flat.rotation.degree").passed
    rotation = flatspace.action_rotation
    monkeypatch.setattr(flatspace, "action_rotation", lambda spec, theta: rotation(spec, -theta))
    rec = run_check(cfg, "flat.rotation.degree")
    assert not rec.passed and rec.residual > 1.0, rec.to_dict()


def test_halved_ddc_fails_the_calibration(monkeypatch):
    # dd^c = i ddbar instead of 2i ddbar: dd^c(|z|^2 / 2) reads 1 dx0^dx1
    # against the reference 2 dx0^dx1 (1.0, tol 1e-8)
    cfg = RunConfig(suite="flat")
    assert run_check(cfg, "flat.ddc.calibration").passed
    ddc = suites.ddc
    monkeypatch.setattr(suites, "ddc", lambda *args: 0.5 * ddc(*args))
    rec = run_check(cfg, "flat.ddc.calibration")
    assert not rec.passed and rec.residual > 0.5, rec.to_dict()


def test_scaled_moment_map_fails_the_full_rotation(monkeypatch):
    # omega1 + dd^c(mu / 2) with mu times 1.001 leaves 1e-3 omega1 (1.0e-3,
    # tol 1e-9)
    cfg = RunConfig(suite="flat")
    assert run_check(cfg, "flat.full-rotation.trivial").passed
    moment = flatspace.moment_map
    monkeypatch.setattr(flatspace, "moment_map", lambda spec, p: 1.001 * moment(spec, p))
    rec = run_check(cfg, "flat.full-rotation.trivial")
    assert not rec.passed and rec.residual > 5e-4, rec.to_dict()


# -- Gibbons-Hawking ------------------------------------------------------------------


def _double_potential(monkeypatch):
    potential = gh.gh_potential
    monkeypatch.setattr(gh, "gh_potential", lambda cfg, x: 2.0 * potential(cfg, x))


def _negate_alpha(monkeypatch):
    # alpha and A share _string_potential; gh.periods reads only alpha
    string = gh._string_potential
    monkeypatch.setattr(gh, "_string_potential", lambda *args: -string(*args))


@pytest.mark.parametrize("mutate", [_double_potential, _negate_alpha])
def test_gh_periods_fail_when_v_or_alpha_is_wrong(monkeypatch, mutate):
    # the period surface leaves the axis, so omega_1 enters with its V and alpha
    # terms: V -> 2V is off by 2.3e-3 and alpha -> -alpha by 4.6e-3 (relative)
    mutate(monkeypatch)
    rec = run_check(RunConfig(suite="gh", centers=(0.0, 1.0, 3.0)), "gh.periods")
    assert not rec.passed and rec.residual > 1e-3, rec.to_dict()


def _flip_star(monkeypatch):
    # the opposite orientation of R^3: *e = -(the star of e)
    star = suites.hodge_star
    monkeypatch.setattr(suites, "hodge_star", lambda g, o, comps, k: star(g, -o, comps, k))


@pytest.mark.parametrize("mutate", [_flip_star, _negate_alpha])
@pytest.mark.parametrize("check_id", ["gh.monopole.alpha", "gh.monopole.pair"])
def test_monopole_rows_fail_on_a_flipped_star_or_string_potential(check_id, mutate, monkeypatch):
    # either defect gives d alpha = -*dV and dA = -*d phi: 1.94 (alpha) and
    # 0.95 (pair) at seed 0, tol 1e-6
    cfg = RunConfig(suite="gh")
    assert run_check(cfg, check_id).passed
    mutate(monkeypatch)
    rec = run_check(cfg, check_id)
    assert not rec.passed and rec.residual > 1e-2, (check_id, rec.residual)


def _first_row_everywhere(fn):
    """A batch slip: every row gets the value of the first."""
    return lambda cfg, x: np.broadcast_to(fn(cfg, x[:1]), np.shape(x))


def _rows_reversed(fn):
    """A batch slip: the rows come back in reverse order."""
    return lambda cfg, x: fn(cfg, x)[::-1]


#: check id -> (the gibbonshawking function the defect replaces, the defect)
GH_MUTATIONS = {
    # phi -> -phi in Ahat = A - phi V^-1 (dtheta + alpha): dA = *d phi no
    # longer pairs with phi, and F gains a self-dual part (0.98 at seed 0, tol 1e-5)
    "gh.connection.asd": ("monopole_phi", lambda fn: lambda cfg, x: -fn(cfg, x)),
    # grad V of the first sample paired with every sample's df (4.5, tol 1e-10)
    "gh.lift.identity": ("potential_gradient", _first_row_everywhere),
    # f of the mirrored segment: the outer segments trade -2 and +2 (4.0, tol 0)
    "gh.lift.segments": ("rotation_lift_f", _rows_reversed),
}


@pytest.mark.parametrize("check_id", sorted(GH_MUTATIONS))
def test_gh_mutation_fails(check_id, monkeypatch):
    cfg = RunConfig(suite="gh")
    assert run_check(cfg, check_id).passed
    name, mutate = GH_MUTATIONS[check_id]
    monkeypatch.setattr(gh, name, mutate(getattr(gh, name)))
    rec = run_check(cfg, check_id)
    assert not rec.passed and rec.residual > 0.5, (check_id, rec.residual)


def test_non_harmonic_potential_fails_the_laplacian(monkeypatch):
    # V + 1e-3 |x|^2 has Laplacian 6e-3 everywhere (tol 1e-6)
    cfg = RunConfig(suite="gh")
    assert run_check(cfg, "gh.harmonic").passed
    potential = gh.gh_potential
    monkeypatch.setattr(
        gh, "gh_potential", lambda ghc, x: potential(ghc, x) + 1e-3 * np.sum(x * x, axis=-1)
    )
    rec = run_check(cfg, "gh.harmonic")
    assert not rec.passed and rec.residual > 5e-3, rec.to_dict()


def test_shifted_segment_values_fail_the_middle_segment(monkeypatch):
    # every segment constant off by 1e-3, the middle gap too (1e-3, tol 0)
    cfg = RunConfig(suite="gh")
    assert run_check(cfg, "gh.lift.middle-segment").passed
    values = gh.f_segment_values
    monkeypatch.setattr(gh, "f_segment_values", lambda ghc: tuple(v + 1e-3 for v in values(ghc)))
    rec = run_check(cfg, "gh.lift.middle-segment")
    assert not rec.passed and rec.residual > 5e-4, rec.to_dict()


# -- cotangent ------------------------------------------------------------------------


@pytest.mark.parametrize(
    "check_id, tol", [("bg.moment.scaling", 1e-7), ("bg.moment.contraction", 1e-6)]
)
def test_moment_map_scaled_alone_fails_the_moment_checks(check_id, tol, monkeypatch):
    # both checks are linear in the potentials, so a joint rescaling of h
    # and mu is invisible; mu alone times 1 + 1e-3 is off by 4.1e-4
    # (scaling) and 3.6e-4 (contraction) at seed 0
    cfg = RunConfig(suite="cotangent")
    assert run_check(cfg, check_id).passed
    moment = cotangent.bg_moment_map
    monkeypatch.setattr(cotangent, "bg_moment_map", lambda pt: (1.0 + 1e-3) * moment(pt))
    rec = run_check(cfg, check_id)
    assert rec.tolerance == tol and not rec.passed and rec.residual > 1e-4, rec.to_dict()


def test_scaled_f_profile_fails_the_profile_identity(monkeypatch):
    # (u f)' against its closed form with f times 1 + 1e-3: off by 2.5e-4 at
    # seed 0, tol 1e-7
    cfg = RunConfig(suite="cotangent")
    assert run_check(cfg, "bg.profile.identity").passed
    profile = cotangent.f_profile
    monkeypatch.setattr(cotangent, "f_profile", lambda u: (1.0 + 1e-3) * profile(u))
    rec = run_check(cfg, "bg.profile.identity")
    assert not rec.passed and rec.residual > 1e-4, rec.to_dict()


# -- quotient -------------------------------------------------------------------------


def test_scaled_moment_map_fails_the_descent_and_curvature_checks(monkeypatch):
    # mu scaled by 1 + 1e-3: d mu_bar leaves i_{X_bar} omega_bar_1, and the
    # descended form leaves the canonical curvature by 1e-3 dd^c mu_bar
    moment = quotient.moment_field

    def scaled(spec):
        field = moment(spec)
        return ScalarField(lambda p: (1.0 + 1e-3) * field.fn(p), dim=field.dim)

    monkeypatch.setattr(quotient, "moment_field", scaled)
    cfg = RunConfig(suite="quotient")
    for check_id in (
        "quotient.moment.descent",
        "quotient.curvature.match",
        "quotient.curvature.type11",
    ):
        rec = run_check(cfg, check_id)
        assert not rec.passed, (check_id, rec.residual)
    # blind spot: omega_bar_1 + s dd^c mu_bar is of type (1,1) for I_bar at
    # every scale s, so the type check sees the scaling only through J_bar
    # and K_bar
    action = quotient.eguchi_hanson_action()
    one = quotient.solve_level(
        action, quotient.LevelSpec((1.0,)), np.random.default_rng(47).standard_normal((1, 8))
    )
    chart = quotient.QuotientChart(action, one)
    jet = chart.jet(np.zeros((1, 1, 4)))
    F = quotient.descended_curvature(action, quotient.eh_rotator(), one)
    assert type11_residual(F, chart.structure(jet, 1)[:, 0], structure_tol=1e-4)[0] < 1e-5
    for i in (2, 3):
        assert type11_residual(F, chart.structure(jet, i)[:, 0], structure_tol=1e-4)[0] > 1e-5


def test_wrong_circle_scale_fails_the_gh_potential(monkeypatch):
    # the residual circle read at speed 0.3 instead of 1/4 rescales V and x
    # away from the two-centre potential at +/- c/4 (0.42 at seed 0, tol 1e-5)
    cfg = RunConfig(suite="quotient")
    assert run_check(cfg, "quotient.gh.potential").passed
    monkeypatch.setattr(quotient, "GH_CIRCLE_SCALE", 0.3)
    rec = run_check(cfg, "quotient.gh.potential")
    assert not rec.passed and rec.residual > 0.1, rec.to_dict()


def test_separation_check_fails_on_a_wrong_potential(monkeypatch):
    # at the doubled level the samples follow centres at +/- c/3, not c/4
    samples = suites._gh_samples

    def wrong_at_doubled_level(action, rotator, level_value, rng, count):
        xs, vs = samples(action, rotator, level_value, rng, count)
        if level_value == 2.0:
            a = np.array([level_value / 3.0, 0.0, 0.0])
            vs = 1.0 / np.linalg.norm(xs - a, axis=1) + 1.0 / np.linalg.norm(xs + a, axis=1)
        return xs, vs

    monkeypatch.setattr(suites, "_gh_samples", wrong_at_doubled_level)
    cfg = RunConfig(suite="quotient", samples=8)
    sep = run_check(cfg, "quotient.gh.separation")
    assert sep.residual > 1e-4 and not sep.passed
