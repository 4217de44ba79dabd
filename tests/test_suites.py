"""The check table: fixed ids and order, and checks that run independently."""

import pytest

from hkgeom import suites
from hkgeom.errors import ConfigError
from hkgeom.suites import CHECKS, RunConfig, run_check, run_suite

#: the ids of ``verify all`` at the default configuration, in report order
DEFAULT_IDS = (
    "flat.curvature.type11.semifree",
    "flat.curvature.type11.full",
    "flat.full-rotation.trivial",
    "flat.rotation.degree",
    "flat.ddc.calibration",
    "bg.profile.identity",
    "bg.moment.scaling",
    "bg.moment.contraction",
    "bg.curvature.agreement",
    "bg.structure.quaternionic",
    "bg.curvature.type11",
    "gh.monopole.alpha",
    "gh.monopole.pair",
    "gh.harmonic",
    "gh.connection.asd",
    "gh.periods",
    "gh.lift.identity",
    "gh.lift.segments",
    "gh.lift.middle-segment",
    "quotient.curvature.match",
    "quotient.curvature.type11",
    "quotient.moment.descent",
    "quotient.gh.potential",
    "quotient.gh.separation",
    "twistor.pair.exact",
    "twistor.rotation.invariance",
    "twistor.fibre.restriction",
    "twistor.residue.fibre",
    "twistor.residue.rotation",
    "twistor.pole.orders",
    "twistor.hermitian.curvature",
    "twistor.reality",
    "twistor.closedness",
    "dynkin.signs.a-series",
    "dynkin.signs.de-series",
    "dynkin.mckay.order",
    "dynkin.quiver.a1",
)


def test_default_configuration_runs_the_pinned_ids_in_order():
    cfg = RunConfig()
    assert tuple(c.id for c in suites._rows(cfg, suites.SUITE_NAMES)) == DEFAULT_IDS
    assert tuple(c.id for c in CHECKS) == DEFAULT_IDS  # every row applies by default


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_run_check_equals_the_suite_record(seed):
    # each check seeds its own generator, so running it alone draws the
    # same samples as running it after every check before it
    cfg = RunConfig(seed=seed, samples=4)
    report = run_suite(cfg)
    assert tuple(r.check_id for r in report.records) == DEFAULT_IDS
    for rec in report.records:
        alone = run_check(cfg, rec.check_id)
        assert alone.to_dict() == rec.to_dict(), rec.check_id


def test_conditional_rows_follow_the_configuration():
    ids = [c.id for c in suites._rows(RunConfig(suite="gh", centers=(0.0,)), ("gh",))]
    assert "gh.periods" not in ids and "gh.lift.middle-segment" not in ids
    ids = [c.id for c in suites._rows(RunConfig(suite="gh", centers=(0, 1, 3)), ("gh",))]
    assert "gh.periods" in ids and "gh.lift.middle-segment" not in ids
    ids = [c.id for c in suites._rows(RunConfig(suite="gh", c=0.5), ("gh",))]
    assert "gh.periods" in ids and "gh.lift.middle-segment" not in ids


def test_run_check_rejects_a_check_the_configuration_does_not_run():
    with pytest.raises(ConfigError, match="no check"):
        run_check(RunConfig(), "flat.no-such-check")
    with pytest.raises(ConfigError, match="no check"):
        run_check(RunConfig(suite="flat"), "dynkin.quiver.a1")
    with pytest.raises(ConfigError, match="no check"):
        run_check(RunConfig(suite="gh", centers=(0.0,)), "gh.periods")


def test_check_seeds_differ_by_id_and_seed():
    cfg = RunConfig()
    a = suites._check_rng(cfg, "flat.ddc.calibration").random(4)
    b = suites._check_rng(cfg, "flat.curvature.type11.full").random(4)
    c = suites._check_rng(RunConfig(seed=1), "flat.ddc.calibration").random(4)
    again = suites._check_rng(cfg, "flat.ddc.calibration").random(4)
    assert (a == again).all()
    assert not (a == b).any() and not (a == c).any()
