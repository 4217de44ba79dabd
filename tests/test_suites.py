"""The check table: fixed ids and order, and checks that run independently."""

import tracemalloc
import warnings

import numpy as np
import pytest

from hkgeom import gibbonshawking as gh
from hkgeom import quotient as qt
from hkgeom import suites
from hkgeom.cli import main
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


@pytest.mark.parametrize(
    "field, value",
    [("samples", 2.5), ("n", 2.0), ("seed", 1.5), ("nodes", 16.5), ("samples", "20"), ("n", True)],
)
def test_run_config_rejects_non_integer_counts(field, value):
    # these reached the checks and raised TypeError mid-run; a ConfigError exits 2
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        RunConfig(**{field: value})
    # a numpy integer is an integer, stored as int so the report stays JSON
    cfg = RunConfig(**{field: np.int64(8)})
    assert type(getattr(cfg, field)) is int and cfg == RunConfig(**{field: 8})


def test_check_seeds_differ_by_id_and_seed():
    cfg = RunConfig()
    a = suites._check_rng(cfg, "flat.ddc.calibration").random(4)
    b = suites._check_rng(cfg, "flat.curvature.type11.full").random(4)
    c = suites._check_rng(RunConfig(seed=1), "flat.ddc.calibration").random(4)
    again = suites._check_rng(cfg, "flat.ddc.calibration").random(4)
    assert (a == again).all()
    assert not (a == b).any() and not (a == c).any()


@pytest.mark.parametrize("c", [0.5, 2.0, 3.0])
def test_quotient_curvature_match_holds_away_from_level_one(c):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a non-integral level warns that no global bundle descends
        rec = run_check(RunConfig(suite="quotient", c=c), "quotient.curvature.match")
    assert rec.passed, rec.to_dict()


def test_weight_one_curvature_is_the_descended_form_over_the_level():
    # the factor the check's weight c accounts for: F_can(1) = F / c at level c = 2
    action, rotator = qt.eguchi_hanson_action(), qt.eh_rotator()
    one = qt.solve_level(action, qt.LevelSpec((2.0,)), np.random.default_rng(0).standard_normal((1, 8)))
    weight_one = qt.canonical_bundle_curvature(action, (1.0,), one)
    descended = qt.descended_curvature(action, rotator, one)
    assert np.max(np.abs(2.0 * weight_one - descended)) < 1e-7
    assert np.max(np.abs(weight_one - descended)) > 0.1


def test_verify_quotient_at_level_two_exits_zero(tmp_path):
    assert main(["verify", "quotient", "--c", "2", "--out", str(tmp_path / "r.json")]) == 0


@pytest.mark.parametrize("seed", range(4))
def test_separation_fit_stays_conditioned_at_the_level_floor(seed):
    # seeds at the level's scale sqrt(c): the worst of these four is 2.7e-11,
    # against 3.6e-10 with unit-scale seeds
    cfg = RunConfig(suite="quotient", c=suites._MIN_QUOTIENT_LEVEL, seed=seed)
    rec = run_check(cfg, "quotient.gh.separation")
    assert rec.passed and rec.residual < 1e-9, rec.to_dict()


def test_gh_points_keep_the_draw_stream():
    ghc = gh.GHConfig(centers=(0.0, 1.0))
    pts = suites._gh_points(ghc, 6, np.random.default_rng(3))
    rng, clear, want = np.random.default_rng(3), gh.chart_clearance(ghc), []
    while len(want) < 6:  # the rejection loop, one draw at a time
        x = rng.uniform(-2.5, 2.5, size=3)
        x[0] = rng.uniform(-1.5, 2.5)
        if clear(x[None])[0] > 0.4:
            want.append(x)
    assert pts.shape == (6, 3) and np.array_equal(pts, np.array(want))


def test_gh_sampling_gives_up_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(suites.gh, "chart_clearance", lambda cfg: lambda p: np.zeros(len(p)))
    rec = run_check(RunConfig(suite="gh"), "gh.monopole.alpha")
    assert not rec.passed and rec.residual is None
    assert rec.detail.startswith("SamplingError: no point with clearance above 0.4")


@pytest.mark.parametrize(
    "suite, check_id",
    [
        ("flat", "flat.curvature.type11.full"),
        ("twistor", "twistor.hermitian.curvature"),
        ("twistor", "twistor.closedness"),
    ],
)
def test_dense_checks_stay_within_their_memory_bound(suite, check_id):
    # at n = 3 one nested dd^c stencil is 2,304 (flat) or 3,136 (twistor)
    # rows, and one point's F_Z stencil returns 56 x 91 values, so the
    # chunk bound keeps each peak near 1 MB or below; all samples' stencils
    # in one field call would peak at about 12, 5 and 1.9 MB
    cfg = RunConfig(suite=suite, n=3)
    run_check(cfg, check_id)  # builds the cached index tables first
    tracemalloc.start()
    try:
        run_check(cfg, check_id)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 3e6
