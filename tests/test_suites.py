"""The check table: fixed ids and order, and checks that run independently."""

import dataclasses
import tracemalloc
import warnings

import numpy as np
import pytest

from hkgeom import gibbonshawking as gh
from hkgeom import quotient as qt
from hkgeom import suites
from hkgeom.cli import main
from hkgeom.errors import ConfigError, SamplingError
from hkgeom.forms import FDScheme
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
    [("samples", 2.5), ("n", 2.0), ("seed", 1.5), ("samples", "20"), ("n", True)],
)
def test_run_config_rejects_non_integer_counts(field, value):
    # these reached the checks and raised TypeError mid-run; a ConfigError exits 2
    with pytest.raises(ConfigError, match=f"{field} must be an integer"):
        RunConfig(**{field: value})
    # a numpy integer is an integer, stored as int so the report stays JSON
    cfg = RunConfig(**{field: np.int64(8)})
    assert type(getattr(cfg, field)) is int and cfg == RunConfig(**{field: 8})


def test_report_params_hold_every_field_but_suite_and_seed():
    params = RunConfig(centers=(0, 1, 3)).params_dict()
    names = {f.name for f in dataclasses.fields(RunConfig)}
    assert set(params) == names - {"suite", "seed"}
    assert params["centers"] == [0.0, 1.0, 3.0]


def test_a_stencil_has_no_implicit_step():
    with pytest.raises(TypeError):
        FDScheme()
    with pytest.raises(TypeError):
        FDScheme(h=1e-3)


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
    action, rotator = qt.EGUCHI_HANSON.action, qt.EGUCHI_HANSON.rotator
    one = qt.solve_level(action, qt.LevelSpec((2.0,)), np.random.default_rng(0).standard_normal((1, 8)))
    batches = qt.charts(one)
    weight_one = qt.canonical_bundle_curvature(batches, (1.0,))
    descended = qt.descended_curvature(batches, rotator)
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


@pytest.mark.parametrize("c, seed", [(15.0, 1), (30.0, 13)])
def test_quotient_suite_passes_above_level_one(c, seed):
    # both Newton stops scale with the level: with the chart's absolute 1e-14
    # the retraction stalled on the moment map's roundoff, eps |m|^2 ~ eps c,
    # and these two raised ConvergenceError in 1 and 3 rows
    report = run_suite(RunConfig(suite="quotient", c=c, seed=seed))
    assert report.all_passed, [r.to_dict() for r in report.records if not r.passed]


def test_quotient_level_ceiling_passes_and_a_level_above_it_exits_two(tmp_path, capsys):
    ceiling = suites._MAX_QUOTIENT_LEVEL
    for seed in range(4):
        report = run_suite(RunConfig(suite="quotient", c=ceiling, seed=seed))
        assert report.all_passed, [r.to_dict() for r in report.records if not r.passed]
    above = float(np.nextafter(ceiling, np.inf))
    with pytest.raises(ConfigError, match="quotient level c must be at most"):
        RunConfig(suite="quotient", c=above)
    # the gh constant's own ceiling is lower, so it refuses that c first on all
    assert suites._MAX_GH_C < ceiling
    for suite in ("gh", "all"):
        with pytest.raises(ConfigError, match="gh constant c must be at most"):
            RunConfig(suite=suite, c=above)
    out = tmp_path / "r.json"
    assert main(["verify", "quotient", "--c", repr(above), "--out", str(out)]) == 2
    assert "at most" in capsys.readouterr().err and not out.exists()


def test_gh_points_are_count_points_in_the_box_clear_of_the_axis():
    box = suites._GH_BOX
    for centers in ((0.0, 1.0), (0.0, 1.0, 3.0), (-1.0, 0.5, 2.0, 2.3)):
        ghc = gh.GHConfig(centers=centers)
        for count in (1, 6, 20, 200):
            for seed in range(5):
                pts = suites._gh_points(ghc, count, np.random.default_rng(seed))
                assert pts.shape == (count, 3), (centers, count, seed)
                assert np.all((centers[0] - 1.5 <= pts[:, 0]) & (pts[:, 0] < centers[-1] + 1.5))
                assert np.all((-box <= pts[:, 1:]) & (pts[:, 1:] < box))
                assert np.all(gh.chart_clearance(pts) > suites._GH_MIN_CLEARANCE)


def test_gh_points_redraw_only_the_rejected_rows(monkeypatch):
    # a clearance that rejects half the box: every row must still come out accepted
    monkeypatch.setattr(suites.gh, "chart_clearance", lambda p: (p[:, 1] > 0).astype(float))
    for seed in range(5):
        pts = suites._gh_points(gh.GHConfig(centers=(0.0, 1.0)), 30, np.random.default_rng(seed))
        assert pts.shape == (30, 3) and np.all(pts[:, 1] > 0), seed


def test_gh_points_give_up_after_the_round_budget(monkeypatch):
    monkeypatch.setattr(suites.gh, "chart_clearance", lambda p: np.zeros(len(p)))
    budget = f"in {suites._GH_MAX_ROUNDS} rounds of draws"
    with pytest.raises(SamplingError, match=budget):
        suites._gh_points(gh.GHConfig(centers=(0.0, 1.0)), 5, np.random.default_rng(0))


def test_gh_sampling_gives_up_instead_of_hanging(monkeypatch):
    monkeypatch.setattr(suites.gh, "chart_clearance", lambda p: np.zeros(len(p)))
    rec = run_check(RunConfig(suite="gh"), "gh.monopole.alpha")
    assert not rec.passed and rec.residual is None
    assert rec.detail == "SamplingError: no point with clearance above 0.4 in 20 rounds of draws"


@pytest.mark.parametrize("n", [1, 2, 3])
def test_twistor_samples_have_their_shapes_and_fibre_annulus(n):
    for count in (1, 20):
        for mods in ((0.3, 1.5), (0.7, 1.3)):
            for seed in range(5):
                rng = np.random.default_rng(seed)
                z, w, zeta = suites._twistor_samples(RunConfig(n=n), rng, count, *mods)
                assert z.shape == w.shape == (count, n) and zeta.shape == (count,)
                assert z.dtype == w.dtype == zeta.dtype == complex
                assert np.all((mods[0] < np.abs(zeta)) & (np.abs(zeta) < mods[1])), (mods, seed)


@pytest.mark.parametrize(
    "scheme, per_point",
    [(suites._FLAT_SCHEME, 312), (FDScheme(h=1e-2, order=4), 1248)],
    ids=["order-2", "order-4-override"],
)
def test_flat_stencil_field_rows(monkeypatch, scheme, per_point):
    # the flat fields are quadratic, so the suite's order-2 nested stencil
    # (312 distinct rows per point at dim 12) is exact; the row reads its
    # stencil from _FLAT_SCHEME, so an order-4 one there costs 1,248 rows
    rows = []
    moment_map = suites.fs.moment_map
    monkeypatch.setattr(
        suites.fs, "moment_map", lambda spec, p: rows.append(len(p)) or moment_map(spec, p)
    )
    monkeypatch.setattr(suites, "_FLAT_SCHEME", scheme)
    cfg = RunConfig(suite="flat", n=3)
    assert run_check(cfg, "flat.curvature.type11.full").passed
    assert sum(rows) == cfg.samples * per_point == 20 * per_point


@pytest.mark.parametrize(
    "suite, check_id",
    [
        ("flat", "flat.curvature.type11.full"),
        ("twistor", "twistor.hermitian.curvature"),
        ("twistor", "twistor.closedness"),
    ],
)
def test_dense_checks_stay_within_their_memory_bound(suite, check_id):
    # at n = 3 one nested dd^c stencil has 312 distinct rows (flat, order 2,
    # 13 points to a chunk) or 1,680 (twistor, two points), and one point's
    # F_Z stencil returns 56 x 91 values, so the chunk bound keeps each peak
    # near 1 MB or below (measured 0.73, 1.06 and 0.39 MB); all samples'
    # stencils in one field call would peak at about 1.1, 2.3 and 1.8 MB
    cfg = RunConfig(suite=suite, n=3)
    run_check(cfg, check_id)  # builds the cached index tables first
    tracemalloc.start()
    try:
        run_check(cfg, check_id)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5e6
