"""Mutation tests: a deliberate defect in the library must turn its check to FAIL.

A residual that a slip forces to 0, such as a broadcast that pairs every
row with itself, would otherwise pass silently.  Each test monkeypatches
one defect into a closed form, first confirming that the check passes
without it, and asserts that the check then fails at the default
configuration.
"""

import dataclasses

import numpy as np
import pytest

from hkgeom import cotangent, dynkin, flatspace, quotient, suites, twistor
from hkgeom import gibbonshawking as gh
from hkgeom.forms import ScalarField, type11_residual
from hkgeom.suites import RunConfig, run_check, run_suite


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


def _at_conjugate_zeta(factory):
    """The structure factory evaluated at conj(zeta): Im zeta, the last coordinate, negated."""

    def mutated(n):
        structure = factory(n)
        return lambda p: structure(p * np.r_[np.ones(4 * n + 1), -1.0])

    return mutated


@pytest.mark.parametrize("n", [1, 2, 3])
def test_structure_at_conjugate_zeta_fails_the_hermitian_curvature(n, monkeypatch):
    # I_{conj zeta} still squares to -Id, so only the residual can catch it:
    # dd^c log h_U is then off the reference by O(1) (5.6, 8.2 and 6.3 at
    # n = 1, 2, 3, tol 1e-6)
    cfg = RunConfig(suite="twistor", n=n)
    assert run_check(cfg, "twistor.hermitian.curvature").passed
    monkeypatch.setattr(twistor, "twistor_structure", _at_conjugate_zeta(twistor.twistor_structure))
    rec = run_check(cfg, "twistor.hermitian.curvature")
    assert not rec.passed and rec.residual > 1.0, rec.to_dict()


def test_double_pole_at_zero_is_a_residual(monkeypatch):
    # an added 1/zeta^2 raises the order at zeta = 0 to 2 and leaves the
    # simple pole at infinity (it is zetat^2 there), so the row reads
    # |2 - 1| + |1 - 1| = 1 and raises nothing
    cfg = RunConfig(suite="twistor")
    monkeypatch.setattr(twistor, "mero_connection", _double_pole(twistor.mero_connection))
    rec = run_check(cfg, "twistor.pole.orders")
    assert not rec.passed and rec.residual == 1.0, rec.to_dict()


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


@pytest.mark.parametrize(
    "check_id, residual",
    [("flat.curvature.type11.semifree", 2e-3), ("flat.curvature.type11.full", 1e-3)],
)
def test_non_invariant_moment_map_fails_the_type11_rows(check_id, residual, monkeypatch):
    # mu + 1e-3 x0^2: dd^c x0^2 is of type (1,1) for I but not for J or K,
    # off by 1e-3 / deg (2.0e-3 semifree, 1.0e-3 full, tol 1e-8)
    cfg = RunConfig(suite="flat")
    assert run_check(cfg, check_id).passed
    moment = flatspace.moment_map
    monkeypatch.setattr(
        flatspace, "moment_map", lambda spec, p: moment(spec, p) + 1e-3 * p[:, 0] ** 2
    )
    rec = run_check(cfg, check_id)
    assert not rec.passed and rec.residual > 0.5 * residual, rec.to_dict()


@pytest.mark.parametrize(
    "check_id, residual",
    [
        ("flat.curvature.type11.semifree", 1.0),
        ("flat.curvature.type11.full", 0.5),
        ("flat.full-rotation.trivial", 0.5),
        ("flat.rotation.degree", 2.0),
    ],
)
def test_an_off_pair_plane_weight_fails_the_flat_rows(check_id, residual, monkeypatch):
    # the moment map and the generator read one plane-weight table, so a
    # wrong table must still show: one more unit on the Im z_1 slot alone
    # (w[1] += 1) gives the two slots of a complex plane different weights,
    # the generator is no longer complex linear and mu gains -p_1^2 / 2.
    # At seed 0 that reads 1.0 and 0.5 on the type rows (tol 1e-8), 0.5 on
    # the full rotation (tol 1e-9) and 2.0 on the rotation degree (tol 1e-12)
    cfg = RunConfig(suite="flat")
    assert run_check(cfg, check_id).passed
    weights = flatspace._plane_weights

    def off_pair(spec):
        w = weights(spec)
        w[1] += 1.0
        return w

    monkeypatch.setattr(flatspace, "_plane_weights", off_pair)
    rec = run_check(cfg, check_id)
    assert not rec.passed and rec.residual > 0.5 * residual, rec.to_dict()


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


@pytest.mark.parametrize("check_id", ["bg.curvature.agreement", "bg.curvature.type11"])
def test_scaled_g_profile_fails_the_curvature_rows(check_id, monkeypatch):
    # k = u g / 2 with g times 1.01: dd^c k leaves omega1 + dd^c mu by 1.4e-2
    # (agreement, tol 1e-5) and is no longer of type (1,1), 1.5e-2 (tol
    # 1e-6), at seed 0; the structures come from h, so the type row reads a
    # residual and not a StructureError
    cfg = RunConfig(suite="cotangent")
    assert run_check(cfg, check_id).passed
    profile = cotangent.g_profile
    monkeypatch.setattr(cotangent, "g_profile", lambda u: 1.01 * profile(u))
    rec = run_check(cfg, check_id)
    assert not rec.passed and rec.residual > 1e-3, rec.to_dict()


def test_scaled_f_profile_fails_the_quaternionic_structure(monkeypatch):
    # h = u f / 2 with f times 1.01 moves the metric g from (omega1, I) off
    # omega2, so J = -g^{-1} omega2 misses J^2 = -Id by 1.3e-2 at seed 0
    # (tol 1e-6)
    cfg = RunConfig(suite="cotangent")
    assert run_check(cfg, "bg.structure.quaternionic").passed
    profile = cotangent.f_profile
    monkeypatch.setattr(cotangent, "f_profile", lambda u: 1.01 * profile(u))
    rec = run_check(cfg, "bg.structure.quaternionic")
    assert not rec.passed and rec.residual > 1e-3, rec.to_dict()


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
    action = quotient.EGUCHI_HANSON.action
    one = quotient.solve_level(
        action, quotient.LevelSpec((1.0,)), np.random.default_rng(47).standard_normal((1, 8))
    )
    (chart,) = quotient.charts(one)
    jet = chart.base
    F = quotient.descended_curvature([chart], quotient.EGUCHI_HANSON.rotator)
    assert type11_residual(F, chart.structure(jet, 1)[:, 0], structure_tol=1e-4)[0] < 1e-5
    for i in (2, 3):
        assert type11_residual(F, chart.structure(jet, i)[:, 0], structure_tol=1e-4)[0] > 1e-5


def _circle_scale_03():
    """The Eguchi-Hanson example with its residual circle at speed 0.3 instead of 1/4."""
    return dataclasses.replace(quotient.EGUCHI_HANSON, circle_scale=0.3)


def test_wrong_circle_scale_fails_the_gh_potential(monkeypatch):
    # the residual circle read at speed 0.3 instead of 1/4 rescales V and x
    # away from the two-centre potential at +/- c/4 (0.42 at seed 0, tol 1e-5)
    cfg = RunConfig(suite="quotient")
    assert run_check(cfg, "quotient.gh.potential").passed
    monkeypatch.setattr(quotient, "EGUCHI_HANSON", _circle_scale_03())
    rec = run_check(cfg, "quotient.gh.potential")
    assert not rec.passed and rec.residual > 0.1, rec.to_dict()


def test_separation_check_fails_on_a_wrong_potential(monkeypatch):
    # at the doubled level the samples follow centres at +/- c/3, not c/4
    samples = suites.gh_samples

    def wrong_at_doubled_level(example, level_value, rng, count):
        xs, vs = samples(example, level_value, rng, count)
        if level_value == 2.0:
            a = np.array([level_value / 3.0, 0.0, 0.0])
            vs = 1.0 / np.linalg.norm(xs - a, axis=1) + 1.0 / np.linalg.norm(xs + a, axis=1)
        return xs, vs

    monkeypatch.setattr(suites, "gh_samples", wrong_at_doubled_level)
    cfg = RunConfig(suite="quotient", samples=8)
    sep = run_check(cfg, "quotient.gh.separation")
    assert sep.residual > 1e-4 and not sep.passed


# -- Dynkin / McKay -----------------------------------------------------------------


def _odd_cycle_signed(fn):
    # an odd cycle answered with the all-(+1) assignment instead of None
    return lambda graph: fn(graph) or (1,) * graph.num_vertices


def _first_sign_flipped(fn):
    # c_0 flipped, so c_0 c_j = +1 on every edge at vertex 0
    def mutated(graph):
        signs = fn(graph)
        return None if signs is None else (-signs[0],) + signs[1:]

    return mutated


def _marks_doubled(fn):
    # a null vector of the Cartan matrix that is not the minimal one
    return lambda *args: tuple(2 * d for d in fn(*args))


#: check id -> (the dynkin function the defect replaces, the defect); each
#: row has tolerance 0, so any miscount fails it
DYNKIN_MUTATIONS = {
    # the even k (odd cycles) come out signable: residual 4, k = 2, 4, 6, 8
    "dynkin.signs.a-series": ("dynkin_signs", _odd_cycle_signed),
    # all eight diagrams violate an edge: residual 8
    "dynkin.signs.de-series": ("dynkin_signs", _first_sign_flipped),
    # sum d_i^2 = 4 |Gamma|: residual 360, at E8
    "dynkin.mckay.order": ("mckay_dims", _marks_doubled),
    # one orientation per edge instead of both: dimension 2, not 4
    "dynkin.quiver.a1": ("quiver_dim", _halved),
}


def test_mutations_fail_after_an_unpatched_run(monkeypatch):
    # the diagrams, their marks and the Eguchi-Hanson action are built once,
    # at import, and shared; a defect patched in after an unpatched run of
    # the whole suite must still reach every row it breaks
    for suite in ("dynkin", "quotient"):
        assert run_suite(RunConfig(suite=suite)).summary["failed"] == 0
    for check_id, (name, mutate) in DYNKIN_MUTATIONS.items():
        with monkeypatch.context() as patch:
            patch.setattr(dynkin, name, mutate(getattr(dynkin, name)))
            assert not run_check(RunConfig(suite="dynkin"), check_id).passed, check_id
    with monkeypatch.context() as patch:
        patch.setattr(quotient, "EGUCHI_HANSON", _circle_scale_03())
        assert not run_check(RunConfig(suite="quotient"), "quotient.gh.potential").passed
    moment = quotient.moment_field

    def scaled(spec):
        return ScalarField(lambda p: 1.001 * moment(spec).fn(p), dim=4 * spec.n)

    monkeypatch.setattr(quotient, "moment_field", scaled)
    for check_id in ("quotient.moment.descent", "quotient.curvature.match"):
        assert not run_check(RunConfig(suite="quotient"), check_id).passed, check_id


@pytest.mark.parametrize("check_id", sorted(DYNKIN_MUTATIONS))
def test_dynkin_mutation_fails(check_id, monkeypatch):
    cfg = RunConfig(suite="dynkin")
    assert run_check(cfg, check_id).passed
    name, mutate = DYNKIN_MUTATIONS[check_id]
    monkeypatch.setattr(dynkin, name, mutate(getattr(dynkin, name)))
    rec = run_check(cfg, check_id)
    assert not rec.passed and rec.residual > 0, (check_id, rec.to_dict())


def test_a_quiver_action_without_the_repeated_edge_fails_the_a1_row(monkeypatch):
    # one copy of the double A_1 edge: H^1 instead of H^2, complex dimension 2, not 4
    cfg = RunConfig(suite="dynkin")
    assert run_check(cfg, "dynkin.quiver.a1").passed
    build = quotient.LinearAction.from_quiver

    def single_edged(graph):
        return build(dataclasses.replace(graph, edges=tuple(dict.fromkeys(graph.edges))))

    monkeypatch.setattr(quotient.LinearAction, "from_quiver", single_edged)
    assert quotient.LinearAction.from_quiver(dynkin.extended_diagram("A", 1)).dim == 4
    rec = run_check(cfg, "dynkin.quiver.a1")
    assert not rec.passed and rec.residual == 2.0, rec.to_dict()
