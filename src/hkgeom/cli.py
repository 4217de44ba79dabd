"""Command-line front end: verification suites, sign solver, profile data.

Subcommands
-----------
``verify``    run a named check suite and write the JSON report
              (stdout, or ``--out``); per-check lines go to stderr.
``signs``     solve the +/-1 edge-colouring problem on an extended
              A/D/E diagram and print the assignment or its obstruction.
``profiles``  emit CSV series: axis profiles (x1, V, f, phi) of a
              multi-centre configuration, or an (x, V) scatter from the
              quotient construction for fitting against the
              multi-centre potential.

Exit codes: 0 all checks pass, 1 any check failed (failures are
recorded in the report, never raised), 2 configuration errors.  A fixed
seed reproduces the JSON report byte for byte; wall-clock timings are
only embedded with ``--timings``.

Defaults may also come from a config file (``--config``): flat UTF-8
``key = value`` lines, ``#`` comments; command-line flags win.
"""

from __future__ import annotations

import argparse
import dataclasses
import sys

import numpy as np

from . import gibbonshawking as gh
from . import quotient as qt
from .dynkin import dynkin_signs, extended_diagram
from .errors import ConfigError, HkgeomError
from .report import write_csv, write_json
from .suites import (
    SUITE_ALIASES,
    SUITE_NAMES,
    RunConfig,
    _eh_centers,
    _gh_samples,
    _quotient_level,
    run_suite,
)

_SUITE_CHOICES = (*SUITE_NAMES, *SUITE_ALIASES, "all")
_PROFILE_SUITES = ("gh", "quotient")

#: the RunConfig fields that a verify flag or config-file key may set
_RUN_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig))

_CONFIG_KEYS = {
    "suite": str,
    "n": int,
    "samples": int,
    "seed": int,
    "tol": float,
    "h": float,
    "order": int,
    "centers": str,
    "c": float,
    "nodes": int,
    "out": str,
    "timings": bool,
    "weights": str,
}


# -- option parsing -------------------------------------------------------------------


def _parse_floats(text: str, what: str) -> tuple:
    items = [s for s in (part.strip() for part in str(text).split(",")) if s]
    try:
        values = tuple(float(s) for s in items)
    except ValueError as exc:
        raise ConfigError(f"bad {what} list {text!r}: {exc}") from None
    if not all(np.isfinite(values)):
        raise ConfigError(f"bad {what} list {text!r}: values must be finite")
    return values


def parse_centers(text: str):
    """Comma-separated finite centre coordinates; must be nonempty."""
    centers = _parse_floats(text, "centre")
    if not centers:
        raise ConfigError("empty centre list")
    return centers


def parse_weights(text: str):
    """Comma-separated finite per-centre weights."""
    return _parse_floats(text, "weight")


def _parse_bool(text: str) -> bool:
    lowered = str(text).strip().lower()
    if lowered in ("1", "true", "yes", "on"):
        return True
    if lowered in ("0", "false", "no", "off"):
        return False
    raise ConfigError(f"bad boolean {text!r}")


def read_config_file(path: str) -> dict:
    """Flat ``key = value`` UTF-8 text; unknown keys are errors."""
    out = {}
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise ConfigError(f"cannot read config file: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key = value")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _CONFIG_KEYS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        kind = _CONFIG_KEYS[key]
        try:
            out[key] = _parse_bool(value) if kind is bool else kind(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return out


def _merge(args, file_values: dict, key: str, default):
    flag = getattr(args, key, None)
    if flag is not None:
        return flag
    if key in file_values:
        return file_values[key]
    return default


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkgeom",
        description="Numerical verification suites for hyperkahler identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    verify = sub.add_parser("verify", help="run a check suite, write a JSON report")
    verify.add_argument("suite_pos", nargs="?", metavar="SUITE", choices=_SUITE_CHOICES)
    verify.add_argument("--suite", choices=_SUITE_CHOICES)
    verify.add_argument("--config", help="key = value defaults file")
    verify.add_argument("--n", type=int, help="quaternionic dimension of the model")
    verify.add_argument("--samples", type=int, help="random sample count per check")
    verify.add_argument("--seed", type=int, help="RNG seed (fixes the report bytes)")
    verify.add_argument("--tol", type=float, help="override every check tolerance")
    verify.add_argument(
        "--h", type=float,
        help="finite-difference step override for the flat, cotangent and gh stencils; "
        "the quotient and twistor stencils keep their fixed steps",
    )
    verify.add_argument(
        "--order", type=int, choices=(2, 4),
        help="FD stencil order override, for the same stencils as --h",
    )
    verify.add_argument("--centers", help="comma-separated centre coordinates")
    verify.add_argument("--c", type=float, help="axis constant / quotient level")
    verify.add_argument("--nodes", type=int, help="contour quadrature node count")
    verify.add_argument("--out", help="JSON report path (default: stdout)")
    verify.add_argument(
        "--timings", action="store_true", default=None,
        help="embed wall-clock times (report no longer byte-reproducible)",
    )

    signs = sub.add_parser("signs", help="edge sign assignment on an extended diagram")
    signs.add_argument(
        "--diagram", required=True, help="diagram label: A4, D5, E6, E7, E8"
    )

    profiles = sub.add_parser("profiles", help="emit CSV profile data")
    profiles.add_argument("--suite", choices=_PROFILE_SUITES, help="default: gh")
    profiles.add_argument("--config", help="key = value defaults file")
    profiles.add_argument("--centers", help="comma-separated centre coordinates")
    profiles.add_argument("--weights", help="comma-separated per-centre weights")
    profiles.add_argument("--c", type=float, help="axis constant / quotient level")
    profiles.add_argument("--samples", type=int, help="number of output rows")
    profiles.add_argument("--seed", type=int, help="RNG seed for scatter sampling")
    profiles.add_argument("--out", help="CSV path (default: profiles.csv)")
    return parser


# -- subcommands ----------------------------------------------------------------------


def _cmd_verify(args) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    given = {}  # only what a flag or the file set; RunConfig holds the defaults
    for key in _RUN_FIELDS:
        value = _merge(args, file_values, key, None)
        if value is not None:
            given[key] = value
    if args.suite_pos:
        given["suite"] = args.suite_pos
    if "centers" in given:
        given["centers"] = parse_centers(given["centers"])
    report = run_suite(RunConfig(**given))
    for line in report.lines():
        print(line, file=sys.stderr)
    summary = report.summary
    print(
        f"{summary['passed']}/{summary['total']} checks passed", file=sys.stderr
    )
    timings = _merge(args, file_values, "timings", False)
    write_json(report, _merge(args, file_values, "out", None), include_timings=timings)
    return report.exit_code


def _parse_diagram(label: str):
    label = str(label).strip().upper()
    if label in ("E6", "E7", "E8"):
        return extended_diagram(label)
    if len(label) >= 2 and label[0] in ("A", "D"):
        try:
            k = int(label[1:])
        except ValueError:
            raise ConfigError(f"bad diagram label {label!r}") from None
        return extended_diagram(label[0], k)
    raise ConfigError(f"bad diagram label {label!r}")


def _cmd_signs(args) -> int:
    graph = _parse_diagram(args.diagram)
    signs = dynkin_signs(graph)
    if signs is None:
        print(f"{graph.tag}: NONE (odd cycle)")
        return 0
    print(graph.tag + ": " + " ".join("%+d" % c for c in signs))
    return 0


def _axis_grid(ghc: gh.GHConfig, samples: int) -> np.ndarray:
    """Axis sample points padded past the outer centres, off every centre."""
    lo = ghc.centers[0] - 1.5
    hi = ghc.centers[-1] + 1.5
    grid = np.linspace(lo, hi, samples)
    for a in ghc.centers:
        near = np.abs(grid - a) < 1e-3
        grid[near] += 2e-3
    return grid


def _cmd_profiles(args) -> int:
    file_values = read_config_file(args.config) if args.config else {}
    suite = _merge(args, file_values, "suite", "gh")
    if suite not in _PROFILE_SUITES:
        raise ConfigError(f"profiles suite must be one of {_PROFILE_SUITES}, got {suite!r}")
    samples = int(_merge(args, file_values, "samples", 200))
    out = _merge(args, file_values, "out", "profiles.csv")
    c = float(_merge(args, file_values, "c", 0.0))
    if samples < 2:
        raise ConfigError("need at least two samples")
    if suite == "gh":
        centers = parse_centers(_merge(args, file_values, "centers", "0,1"))
        weights = _merge(args, file_values, "weights", None)
        ghc = gh.GHConfig(
            centers=centers,
            c=c,
            weights=parse_weights(weights) if weights else None,
        )
        data = gh.axis_profiles(ghc, _axis_grid(ghc, samples))
        rows = zip(data["x1"], data["V"], data["f"], data["phi"])
        write_csv(out, ("x1", "V", "f", "phi"), rows)
        return 0
    cfg = RunConfig(suite="quotient", seed=_merge(args, file_values, "seed", 0), c=c)
    level_value = _quotient_level(cfg.c)
    rng = np.random.default_rng(cfg.seed)
    xs, vs = _gh_samples(
        qt.eguchi_hanson_action(), qt.eh_residual_circle(), level_value, rng, samples
    )
    centers = [np.array([a, 0.0, 0.0]) for a in _eh_centers(level_value).centers]
    rows = []
    for x, v in zip(xs, vs):
        r1, r2 = (float(np.linalg.norm(x - a)) for a in centers)
        rows.append((x[0], x[1], x[2], r1, r2, v))
    write_csv(out, ("x1", "x2", "x3", "r1", "r2", "V"), rows)
    return 0


# -- entry point ----------------------------------------------------------------------


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        if args.command == "verify":
            return _cmd_verify(args)
        if args.command == "signs":
            return _cmd_signs(args)
        return _cmd_profiles(args)
    except HkgeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
