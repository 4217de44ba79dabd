"""Command-line layer: report schema, determinism, exit codes, CSV output."""

import dataclasses
import json
import re

import numpy as np
import pytest

from hkgeom import cli
from hkgeom import quotient as qt
from hkgeom.cli import main, parse_centers, parse_weights, read_config_file
from hkgeom.errors import ConfigError, DomainError
from hkgeom.report import CheckRecord, Report, format_sci
from hkgeom import suites
from hkgeom.suites import RunConfig, run_check, run_suite


def run(args):
    return main(list(args))


# -- report objects -------------------------------------------------------------------


def _record(cid, passed=True, residual=1e-12):
    return CheckRecord(cid, "x = y", residual, 1e-6, passed)


def test_report_summary_and_exit_code():
    rep = Report("flat", 0, {}, [_record("a"), _record("b", passed=False)])
    assert rep.summary == {"total": 2, "passed": 1, "failed": 1}
    assert not rep.all_passed
    assert rep.exit_code == 1
    assert Report("flat", 0, {}, [_record("a")]).exit_code == 0


def test_report_rejects_duplicate_ids():
    with pytest.raises(ValueError, match="duplicate"):
        Report("flat", 0, {}, [_record("a"), _record("a")])


def test_report_json_shape():
    rep = Report("flat", 3, {"samples": 2}, [_record("a")])
    doc = json.loads(rep.to_json())
    assert doc["schema"] == 3
    assert doc["suite"] == "flat"
    assert doc["seed"] == 3
    assert doc["params"] == {"samples": 2}
    (rec,) = doc["checks"]
    assert set(rec) == {"id", "anchor", "residual", "tolerance", "passed"}
    assert rec["anchor"] == "x = y"


def test_report_json_excludes_timings_by_default():
    rec = CheckRecord("a", "x", 0.0, 1.0, True, wall_time=0.25)
    rep = Report("flat", 0, {}, [rec])
    assert "wall_time" not in json.loads(rep.to_json())["checks"][0]
    timed = json.loads(rep.to_json(include_timings=True))["checks"][0]
    assert timed["wall_time"] == 0.25


def test_failed_check_serialises_error_detail():
    rec = CheckRecord("a", "x", None, 1.0, False, detail="DomainError: boom")
    doc = json.loads(Report("flat", 0, {}, [rec]).to_json())
    assert doc["checks"][0]["residual"] is None
    assert "boom" in doc["checks"][0]["detail"]


def test_format_sci_is_lossless():
    values = [1.0, np.pi, 2.0 / 3.0, 1.2345678901234567e-11]
    for v in values:
        assert float(format_sci(v)) == v


# -- run configuration ----------------------------------------------------------------


def test_run_config_validation():
    with pytest.raises(ConfigError):
        RunConfig(suite="nope")
    with pytest.raises(ConfigError):
        RunConfig(samples=0)
    assert RunConfig(suite="bg").suite == "cotangent"


@pytest.mark.parametrize(
    "bad",
    [
        {"seed": -1},
        {"c": float("nan")},
        {"c": float("-inf")},
        {"c": "1"},
        {"c": True},
        {"c": None},
        {"centers": ("a", 1)},
        {"centers": 1.0},
        {"c": np.float64("nan")},
    ],
)
def test_run_config_rejects_non_finite_and_negative_values(bad):
    with pytest.raises(ConfigError):
        RunConfig(suite="flat", **bad)


def test_run_config_numpy_numbers_round_trip_through_the_report():
    # numpy scalars are stored as the Python numbers they hold, so the JSON
    # report can write them; a Python int c stays an int
    cfg = RunConfig(suite="dynkin", c=np.float32(0.1), n=np.int64(3), samples=np.int32(4))
    assert [type(getattr(cfg, f)) for f in ("c", "n", "samples")] == [float, int, int]
    params = json.loads(run_suite(cfg).to_json())["params"]
    assert params["c"] == float(np.float32(0.1)) and params["n"] == 3 and params["samples"] == 4
    assert json.loads(run_suite(RunConfig(suite="dynkin", c=1)).to_json())["params"]["c"] == 1
    assert RunConfig(suite="dynkin", **params) == cfg


def test_run_config_validates_centres_only_when_gh_runs():
    for suite in ("gh", "all"):
        for centers in ((1.0, 0.0), (0.0, float("nan")), (0.0, float("inf")), ()):
            with pytest.raises(ConfigError):
                RunConfig(suite=suite, centers=centers)
    assert RunConfig(suite="flat", centers=(1.0, 0.0)).centers == (1.0, 0.0)


def test_quotient_level_rejects_negative_c_when_the_quotient_suite_runs():
    for suite in ("quotient", "all"):
        with pytest.raises(ConfigError, match="quotient level"):
            RunConfig(suite=suite, c=-2.0)
    assert RunConfig(suite="gh", c=-2.0).c == -2.0  # the gh axis constant may be negative
    assert RunConfig(suite="quotient", c=0.0).level == 1.0  # c = 0 keeps meaning the default level
    assert RunConfig(suite="quotient", c=2.5).level == 2.5
    with pytest.raises(ConfigError, match="quotient level"):
        RunConfig(suite="gh", c=-2.0).level


def test_run_config_rejects_levels_and_gaps_below_the_resolution_floors():
    # below 1e-3 the separation fit resolves c/2 only to rounding; centres
    # closer than 1e-6 leave the segment check no point clear of them
    for c in (5e-324, 1e-169, 1e-5, 9.99e-4):
        with pytest.raises(ConfigError, match="quotient level"):
            RunConfig(suite="quotient", c=c)
    assert RunConfig(suite="quotient", c=1e-3).level == 1e-3
    assert RunConfig(suite="gh", c=1e-5).c == 1e-5  # a small axis constant is fine
    for centers in ((0.0, 1e-7), (-1.0, 0.0, 5e-324)):
        with pytest.raises(ConfigError, match="adjacent centres"):
            RunConfig(suite="gh", centers=centers)
    assert RunConfig(suite="gh", centers=(0.0, 1e-6)).centers == (0.0, 1e-6)


def test_check_propagates_programming_errors(monkeypatch):
    def broken(graph):
        raise TypeError("unsupported operand")

    monkeypatch.setattr(suites.dk, "quiver_dim", broken)
    with pytest.raises(TypeError, match="unsupported operand"):
        run_check(RunConfig(suite="dynkin"), "dynkin.quiver.a1")


def test_check_records_package_errors_as_failures(monkeypatch):
    def off_domain(graph):
        raise DomainError("clearance below 10h")

    monkeypatch.setattr(suites.dk, "quiver_dim", off_domain)
    rec = run_check(RunConfig(suite="dynkin"), "dynkin.quiver.a1")
    assert not rec.passed
    assert rec.residual is None
    assert rec.detail == "DomainError: clearance below 10h"


def test_verify_records_a_nan_residual_as_a_failure(monkeypatch, tmp_path):
    monkeypatch.setattr(suites.dk, "quiver_dim", lambda graph: float("nan"))
    out = tmp_path / "r.json"
    assert run(["verify", "dynkin", "--out", str(out)]) == 1
    doc = json.loads(out.read_text(encoding="utf-8"))
    (rec,) = [r for r in doc["checks"] if r["id"] == "dynkin.quiver.a1"]
    assert rec["residual"] is None and not rec["passed"]
    assert rec["detail"] == "non-finite residual nan"


def test_a_nan_in_a_later_sample_fails_the_check(monkeypatch):
    order = suites.dk.gamma_order

    def nan_for_e8(kind, k=None):  # E8 is the last diagram the check sums
        return float("nan") if kind == "E8" else order(kind, k)

    monkeypatch.setattr(suites.dk, "gamma_order", nan_for_e8)
    rec = run_check(RunConfig(suite="dynkin"), "dynkin.mckay.order")
    assert not rec.passed and rec.residual is None
    assert rec.detail == "non-finite residual nan"


def test_check_takes_detail_from_the_residual_functional(monkeypatch):
    def exact(ghc, i):
        return 2.0 * np.pi * ghc.spacings[i - 1]

    monkeypatch.setattr(suites.gh, "sphere_period", exact)
    rec = run_check(RunConfig(suite="gh", centers=(0, 1, 3)), "gh.periods")
    assert rec.passed and rec.residual == 0.0
    assert rec.detail == "periods: 6.28318530718, 12.5663706144"


def test_gh_period_failure_is_recorded_not_raised(monkeypatch):
    def off_domain(cfg, i):
        raise DomainError("segment sphere meets a centre")

    monkeypatch.setattr(suites.gh, "sphere_period", off_domain)
    periods = run_check(RunConfig(suite="gh", samples=4), "gh.periods")
    assert not periods.passed and periods.residual is None
    assert periods.detail == "DomainError: segment sphere meets a centre"


def test_run_suite_unique_ids_across_all():
    rep = run_suite(RunConfig(suite="all", samples=2, seed=0))
    ids = [r.check_id for r in rep.records]
    assert len(ids) == len(set(ids))
    assert rep.summary["total"] == len(ids)


def test_parse_centers():
    assert parse_centers("0,1,3") == (0.0, 1.0, 3.0)
    assert parse_centers(" 0.5 , 2 ") == (0.5, 2.0)
    for bad in ("", "0,x", "nan", "0,inf", "-inf,0"):
        with pytest.raises(ConfigError):
            parse_centers(bad)


def test_parse_weights():
    assert parse_weights("0.5, 2") == (0.5, 2.0)
    for bad in ("x", "nan", "1,inf"):
        with pytest.raises(ConfigError):
            parse_weights(bad)


def test_config_file_parsing(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(
        "# defaults\nsamples = 7\nseed=3\ntimings = true\nsuite = dynkin\n",
        encoding="utf-8",
    )
    values = read_config_file(str(path), "verify")
    assert values == {"samples": 7, "seed": 3, "timings": True, "suite": "dynkin"}
    bad = tmp_path / "bad.cfg"
    bad.write_text("nonsense-line\n", encoding="utf-8")
    with pytest.raises(ConfigError, match="key = value"):
        read_config_file(str(bad), "verify")


# -- verify subcommand ----------------------------------------------------------------


def test_verify_writes_schema_three_report(tmp_path):
    out = tmp_path / "report.json"
    rc = run(["verify", "dynkin", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["schema"] == 3
    assert doc["summary"]["failed"] == 0
    assert doc["summary"]["total"] == len(doc["checks"]) > 0
    assert all(r["passed"] for r in doc["checks"])


def test_verify_stdout_report(capsys):
    rc = run(["verify", "dynkin"])
    assert rc == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["schema"] == 3


def test_verify_byte_identical_under_fixed_seed(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "flat", "--samples", "3", "--seed", "5"]
    assert run([*args, "--out", str(a)]) == 0
    assert run([*args, "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_verify_seed_changes_report(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(["verify", "flat", "--samples", "3", "--seed", "5", "--out", str(a)])
    run(["verify", "flat", "--samples", "3", "--seed", "6", "--out", str(b)])
    assert a.read_bytes() != b.read_bytes()


def test_verify_exit_one_on_numerical_failure(tmp_path, monkeypatch):
    monkeypatch.setattr(suites.fs, "rotation_degree_check", lambda spec: 1.0)
    out = tmp_path / "r.json"
    rc = run(["verify", "flat", "--samples", "2", "--out", str(out)])
    assert rc == 1
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["summary"]["failed"] == 1
    assert [r["id"] for r in doc["checks"] if not r["passed"]] == ["flat.rotation.degree"]


def test_verify_unknown_suite_is_usage_error():
    assert run(["verify", "nope"]) == 2


@pytest.mark.parametrize(
    "args",
    [
        ["verify", "flat", "--seed", "-1"],
        ["verify", "gh", "--centers", "nan"],
        ["verify", "gh", "--centers", "0,inf"],
        ["verify", "gh", "--c", "nan"],
        ["verify", "all", "--centers", "1,0"],
        ["verify", "quotient", "--c", "-2"],
        ["verify", "all", "--c", "-2"],
        ["verify", "quotient", "--c", "1e-5"],
        ["verify", "quotient", "--c", "3001"],
        ["verify", "gh", "--centers", "0,1e-9"],
        ["verify", "gh", "--c", "-20000"],
        ["verify", "gh", "--c", "1000.0000001"],
    ],
)
def test_verify_bad_configuration_exits_two_before_any_check(args, monkeypatch, capsys):
    def no_check_may_run(cfg, check):
        raise AssertionError(f"{check.id} ran under a bad configuration")

    monkeypatch.setattr(suites, "_run", no_check_may_run)
    assert run(args) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_verify_leaves_unset_values_to_run_config(monkeypatch):
    seen = []

    def capture(cfg):
        seen.append(cfg)
        return Report(suite=cfg.suite, seed=cfg.seed)

    monkeypatch.setattr(cli, "run_suite", capture)
    assert run(["verify", "flat"]) == 0
    assert seen == [RunConfig(suite="flat")]


def test_verify_rejects_unknown_config_key(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("bogus = 1\n", encoding="utf-8")
    assert run(["verify", "flat", "--config", str(cfg)]) == 2


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(RunConfig)])
def test_every_run_config_field_is_a_verify_flag_and_config_key(name, tmp_path, capsys):
    assert run(["verify", "--help"]) == 0
    assert re.search(rf"--{name}\b", capsys.readouterr().out)
    conf = tmp_path / "v.cfg"
    conf.write_text(f"{name} = 1\n", encoding="utf-8")
    assert name in read_config_file(str(conf), "verify")


@pytest.mark.parametrize(
    "command, key",
    [
        ("verify", "weights"),
        *(("profiles", key) for key in ("n", "timings")),
    ],
)
def test_a_config_key_the_subcommand_does_not_read_exits_two(command, key, tmp_path, capsys):
    conf, out = tmp_path / "c.cfg", tmp_path / "out"
    conf.write_text(f"{key} = 1\n", encoding="utf-8")
    args = [command, "dynkin"] if command == "verify" else [command]
    assert run([*args, "--config", str(conf), "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and f"{command} does not read key {key!r}" in err
    assert not out.exists()


@pytest.mark.parametrize("name", ["tol", "h", "order", "nodes"])
@pytest.mark.parametrize(
    "command, how", [("verify", "flag"), ("verify", "key"), ("profiles", "key")]
)
def test_a_stencil_contour_or_tolerance_override_exits_two(command, how, name, tmp_path, capsys):
    # each check fixes its own stencil, contour and tolerance, so no flag or
    # key sets one; --h is not taken as a prefix of --help
    conf, out = tmp_path / "c.cfg", tmp_path / "out"
    conf.write_text(f"{name} = 1\n", encoding="utf-8")
    given = ["--config", str(conf)] if how == "key" else [f"--{name}", "1"]
    assert run([command, *given, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert re.search(f"unknown key '{name}'" if how == "key" else f"arguments: --{name}\\b", err)
    assert not out.exists()


def test_verify_positional_and_flag_suites_must_agree(tmp_path, capsys):
    out = tmp_path / "r.json"
    assert run(["verify", "gh", "--suite", "dynkin", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: suite 'gh' and --suite 'dynkin' differ\n"
    assert not out.exists()
    assert run(["verify", "dynkin", "--suite", "dynkin", "--out", str(out)]) == 0
    # an alias names the same suite as its target
    assert run(["verify", "bg", "--suite", "cotangent", "--samples", "2", "--out", str(out)]) == 0
    assert json.loads(out.read_text(encoding="utf-8"))["suite"] == "cotangent"


def test_verify_takes_a_negative_centre_list_after_a_space(tmp_path):
    # argparse reads "-1,0.5" after a space as an option on every Python
    # version; the CLI hands it on as --centers=-1,0.5
    spaced, joined = tmp_path / "s.json", tmp_path / "j.json"
    args = ["verify", "gh", "--c", "0.7", "--samples", "2"]
    assert run([*args, "--centers", "-1,0.5,2,2.3", "--out", str(spaced)]) == 0
    assert run([*args, "--centers=-1,0.5,2,2.3", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    assert json.loads(spaced.read_text(encoding="utf-8"))["params"]["centers"] == [-1, 0.5, 2, 2.3]


def test_profiles_takes_negative_lists_after_a_space(tmp_path, capsys):
    spaced, joined = tmp_path / "s.csv", tmp_path / "j.csv"
    args = ["profiles", "--weights", "0.5,2", "--samples", "20"]
    assert run([*args, "--centers", "-.5,1", "--out", str(spaced)]) == 0
    assert run([*args, "--centers=-.5,1", "--out", str(joined)]) == 0
    assert spaced.read_bytes() == joined.read_bytes()
    # a negative weight reaches GHConfig, which rejects it
    assert run(["profiles", "--weights", "-1,2", "--out", str(spaced)]) == 2
    assert capsys.readouterr().err == "error: weights must be finite and positive\n"


def test_verify_flags_override_config_file(tmp_path):
    cfg = tmp_path / "c.cfg"
    cfg.write_text("samples = 3\nseed = 7\nsuite = dynkin\n", encoding="utf-8")
    out = tmp_path / "r.json"
    rc = run(
        ["verify", "--config", str(cfg), "--seed", "9", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert doc["suite"] == "dynkin"
    assert doc["seed"] == 9
    assert doc["params"]["samples"] == 3


def test_verify_config_file_sets_out_and_timings(tmp_path):
    out = tmp_path / "r.json"
    cfg = tmp_path / "c.cfg"
    cfg.write_text(f"out = {out}\ntimings = true\n", encoding="utf-8")
    assert run(["verify", "dynkin", "--config", str(cfg)]) == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert all("wall_time" in r for r in doc["checks"])


def test_verify_gh_reports_expected_periods(tmp_path):
    out = tmp_path / "gh.json"
    rc = run(
        [
            "verify",
            "gh",
            "--centers",
            "0,1,3",
            "--c",
            "0",
            "--samples",
            "4",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    (periods,) = [r for r in doc["checks"] if r["id"] == "gh.periods"]
    values = [float(v) for v in periods["detail"].split(":")[1].split(",")]
    # sphere_period's 20 x 32 node rule is within 1e-12 (relative) on these centres
    assert values == pytest.approx([2 * np.pi, 4 * np.pi], rel=1e-8)


def test_verify_gh_passes_at_its_c_ceiling(tmp_path):
    # on this draw, differentiating phi's constant c would add roundoff eps |c| / h^2
    # to gh.harmonic and read 1.01e-6 against its 1e-6
    assert suites._MAX_GH_C == 1000.0
    out = str(tmp_path / "gh.json")
    assert run(["verify", "gh", "--c", "1000", "--seed", "41", "--out", out]) == 0


def test_verify_gh_middle_segment_note(tmp_path):
    out = tmp_path / "gh.json"
    rc = run(
        ["verify", "gh", "--centers", "0,1", "--samples", "3", "--out", str(out)]
    )
    assert rc == 0
    doc = json.loads(out.read_text(encoding="utf-8"))
    (middle,) = [r for r in doc["checks"] if r["id"] == "gh.lift.middle-segment"]
    assert middle["passed"]
    assert middle["residual"] == 0.0
    assert "gap" in middle["detail"]


def test_verify_timings_flag_embeds_wall_time(tmp_path):
    out = tmp_path / "r.json"
    run(["verify", "dynkin", "--timings", "--out", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert all("wall_time" in r for r in doc["checks"])
    run(["verify", "dynkin", "--out", str(out)])
    doc = json.loads(out.read_text(encoding="utf-8"))
    assert all("wall_time" not in r for r in doc["checks"])


# -- signs subcommand -----------------------------------------------------------------


def test_signs_a4_has_no_solution(capsys):
    assert run(["signs", "--diagram", "A4"]) == 0
    out = capsys.readouterr().out
    assert "NONE (odd cycle)" in out
    assert out.startswith("A4")


def test_signs_a5_alternates(capsys):
    assert run(["signs", "--diagram", "A5"]) == 0
    out = capsys.readouterr().out.strip()
    values = [int(tok) for tok in out.split(":")[1].split()]
    assert len(values) == 6
    for i in range(6):
        assert values[i] * values[(i + 1) % 6] == -1


def test_signs_e_series(capsys):
    for label, size in (("E6", 7), ("E7", 8), ("E8", 9)):
        assert run(["signs", "--diagram", label]) == 0
        values = [int(t) for t in capsys.readouterr().out.split(":")[1].split()]
        assert len(values) == size
        assert set(values) <= {1, -1}


def test_signs_bad_label():
    assert run(["signs", "--diagram", "Q9"]) == 2
    assert run(["signs", "--diagram", "Ax"]) == 2


# -- profiles subcommand --------------------------------------------------------------


def _read_csv(path):
    return np.genfromtxt(path, delimiter=",", names=True)


def test_profiles_gh_axis_columns(tmp_path):
    out = tmp_path / "p.csv"
    rc = run(
        [
            "profiles",
            "--suite",
            "gh",
            "--centers",
            "0,1",
            "--samples",
            "400",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == "x1,V,f,phi"
    data = _read_csv(out)
    assert len(data) == 400
    assert np.all(data["V"] > 0)


def test_profiles_two_center_f_jumps(tmp_path):
    out = tmp_path / "p.csv"
    run(
        [
            "profiles",
            "--suite",
            "gh",
            "--centers",
            "0,1",
            "--samples",
            "500",
            "--out",
            str(out),
        ]
    )
    data = _read_csv(out)
    x1, f = data["x1"], data["f"]
    levels = []
    for lo, hi in ((-np.inf, 0.0), (0.0, 1.0), (1.0, np.inf)):
        mask = (x1 > lo + 0.05) & (x1 < hi - 0.05)
        segment = f[mask]
        assert np.ptp(segment) == 0.0
        levels.append(segment[0])
    assert levels == [-2.0, 0.0, 2.0]
    jumps = np.diff(levels)
    assert list(jumps) == [2.0, 2.0]


def test_profiles_flat_calibration(tmp_path):
    out = tmp_path / "p.csv"
    rc = run(
        [
            "profiles",
            "--suite",
            "gh",
            "--centers",
            "0",
            "--weights",
            "0.5",
            "--samples",
            "200",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    data = _read_csv(out)
    r = np.abs(data["x1"])
    assert np.max(np.abs(data["V"] - 1.0 / (2.0 * r))) < 1e-12


def test_profiles_empty_centers_is_usage_error(tmp_path):
    rc = run(
        [
            "profiles",
            "--suite",
            "gh",
            "--centers",
            "",
            "--out",
            str(tmp_path / "p.csv"),
        ]
    )
    assert rc == 2


def test_profiles_quotient_scatter(tmp_path):
    out = tmp_path / "q.csv"
    rc = run(
        [
            "profiles",
            "--suite",
            "quotient",
            "--c",
            "1",
            "--samples",
            "10",
            "--seed",
            "4",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    header = out.read_text(encoding="utf-8").splitlines()[0]
    assert header == "x1,x2,x3,r1,r2,V"
    data = _read_csv(out)
    assert len(data) == 10
    predicted = 1.0 / data["r1"] + 1.0 / data["r2"]
    assert np.max(np.abs(data["V"] - predicted)) < 1e-10


def test_profiles_quotient_rows_are_the_public_sampler_and_centres(tmp_path):
    out = tmp_path / "q.csv"
    args = ["--c", "2.5", "--samples", "7", "--seed", "3", "--out", str(out)]
    assert run(["profiles", "--suite", "quotient", *args]) == 0
    level = RunConfig(suite="quotient", c=2.5).level
    xs, vs = suites.gh_samples(qt.EGUCHI_HANSON, level, np.random.default_rng(3), 7)
    centres = [np.array([a, 0.0, 0.0]) for a in suites.eh_centers(level).centers]
    r = [[np.linalg.norm(x - a) for a in centres] for x in xs]
    assert np.array_equal(np.loadtxt(out, delimiter=",", skiprows=1), np.column_stack([xs, r, vs]))


def test_profiles_quotient_rejects_a_negative_level(tmp_path):
    out = tmp_path / "q.csv"
    assert run(["profiles", "--suite", "quotient", "--c", "-2", "--out", str(out)]) == 2
    assert not out.exists()


def test_profiles_quotient_rejects_a_negative_seed(tmp_path, capsys):
    out = tmp_path / "q.csv"
    assert run(["profiles", "--suite", "quotient", "--seed", "-1", "--out", str(out)]) == 2
    assert capsys.readouterr().err == "error: seed must be nonnegative\n"
    assert not out.exists()


def test_profiles_quotient_zero_c_is_the_default_level(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["profiles", "--suite", "quotient", "--samples", "3"]
    assert run([*args, "--c", "0", "--out", str(a)]) == 0
    assert run([*args, "--c", "1", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_profiles_reads_the_suite_from_the_config_file(tmp_path):
    # precedence: --suite, then the file's suite key, then gh
    conf, out = tmp_path / "p.conf", tmp_path / "p.csv"
    conf.write_text("suite = quotient\nsamples = 3\n", encoding="utf-8")
    assert run(["profiles", "--config", str(conf), "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("x1,x2,x3,r1,r2,V\n")
    assert run(["profiles", "--config", str(conf), "--suite", "gh", "--out", str(out)]) == 0
    assert out.read_text(encoding="utf-8").startswith("x1,V,f,phi\n")


def test_profiles_rejects_a_config_file_suite_without_profiles(tmp_path, capsys):
    conf, out = tmp_path / "p.conf", tmp_path / "p.csv"
    conf.write_text("suite = flat\n", encoding="utf-8")
    assert run(["profiles", "--config", str(conf), "--out", str(out)]) == 2
    assert "profiles suite must be one of" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, conf, err",
    [
        (
            ["--suite", "quotient", "--samples", "5", "--centers", "0,5", "--weights", "1,2"],
            "",
            "quotient does not read 'centers', 'weights'",
        ),
        (["--suite", "gh", "--seed", "7"], "", "gh does not read 'seed'"),
        ([], "suite = quotient\ncenters = 0,5\n", "quotient does not read 'centers'"),
        ([], "seed = 7\n", "gh does not read 'seed'"),
    ],
)
def test_profiles_rejects_a_value_its_suite_does_not_read(flags, conf, err, tmp_path, capsys):
    # a flag or a config-file key alike
    path, out = tmp_path / "p.conf", tmp_path / "p.csv"
    path.write_text(conf, encoding="utf-8")
    assert run(["profiles", "--config", str(path), *flags, "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"error: profiles --suite {err}\n"
    assert not out.exists()


def test_profiles_csv_full_precision(tmp_path):
    out = tmp_path / "p.csv"
    run(
        [
            "profiles",
            "--suite",
            "gh",
            "--centers",
            "0,1",
            "--samples",
            "50",
            "--out",
            str(out),
        ]
    )
    line = out.read_text(encoding="utf-8").splitlines()[1]
    first = line.split(",")[0]
    mantissa = first.split("e")[0]
    digits = mantissa.replace("-", "").replace(".", "")
    assert len(digits) == 17


# -- help and dispatch ----------------------------------------------------------------


def test_missing_subcommand_is_usage_error():
    assert run([]) == 2


def test_help_exits_zero():
    assert run(["--help"]) == 0
