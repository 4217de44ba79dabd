"""Mutation tests: a deliberate defect in the library must turn its check to FAIL.

A residual that a slip forces to 0, such as a broadcast that pairs every
row with itself, would otherwise pass silently.  Each test monkeypatches
one defect into a closed form, first confirming that the check passes
without it, and asserts that the check then fails at the default
configuration.
"""

import pytest

from hkgeom import twistor
from hkgeom.suites import RunConfig, run_check


def _negated(fn):
    return lambda *args, **kwargs: -fn(*args, **kwargs)


def _scaled_pencil(fn):
    return lambda *args: 1.5 * fn(*args)


def _without(fn):
    return lambda *args: 0.0 * fn(*args)


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
