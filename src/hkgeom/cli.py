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

Each value is a row of :data:`OPTIONS`: a flag and a ``--config`` key (UTF-8
``key = value`` lines, ``#`` comments).  A flag wins over the file, the
file over the default.  ``verify`` reads the :class:`RunConfig` fields
(suite, n, samples, seed, centers, c), out and timings; ``profiles`` reads
suite and out, its gh suite centers, weights, c and samples, and its
quotient suite c, samples and seed.  No value sets a check's stencil,
contour or tolerance: each is fixed in the check's row in
:mod:`hkgeom.suites`, or for some rows (the README lists them) in a
constant of the library module the row calls.  A flag or file key that the subcommand or profiles
suite does not read is an error, and a flag is spelled in full.  ``--c 0``
means quotient level 1.  A negative list may follow its flag after a space.
"""

from __future__ import annotations

import argparse
import dataclasses
import re
import sys
from typing import Callable, NamedTuple

import numpy as np

from . import gibbonshawking as gh
from . import quotient as qt
from .dynkin import dynkin_signs, extended_diagram
from .errors import ConfigError, HkgeomError
from .report import write_csv, write_json
from .suites import SUITE_ALIASES, SUITE_NAMES, RunConfig, eh_centers, gh_samples, run_suite
from .suites import suite_name

#: the values each profiles suite reads, besides suite and out
_PROFILE_SUITES = {
    "gh": ("centers", "weights", "c", "samples"),
    "quotient": ("c", "samples", "seed"),
}
#: the RunConfig fields, each a verify flag and config-file key
_RUN_FIELDS = tuple(f.name for f in dataclasses.fields(RunConfig))


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


class Option(NamedTuple):
    """A value that ``--name`` or a config-file ``name = ...`` line sets."""

    name: str
    parse: Callable[[str], object]
    commands: tuple  # the subcommands that read it
    help: str


#: every option of verify and profiles: their flags, config keys and merge come from here
OPTIONS = (
    Option("suite", str, ("verify", "profiles"), "the suite to run or to profile"),
    Option("n", int, ("verify",), "quaternionic dimension of the model"),
    Option("samples", int, ("verify", "profiles"), "samples per check, or CSV rows"),
    Option("seed", int, ("verify", "profiles"), "RNG seed"),
    Option("centers", parse_centers, ("verify", "profiles"), "comma-separated centre coordinates"),
    Option("weights", parse_weights, ("profiles",), "comma-separated per-centre weights"),
    Option("c", float, ("verify", "profiles"), "axis constant / quotient level (0 means level 1)"),
    Option("out", str, ("verify", "profiles"), "path; default stdout (JSON) or profiles.csv (CSV)"),
    Option("timings", _parse_bool, ("verify",), "embed wall-clock times (not byte-reproducible)"),
)
_OPTIONS = {opt.name: opt for opt in OPTIONS}


def read_config_file(path: str, command: str) -> dict:
    """Flat ``key = value`` UTF-8 text, parsed; a key ``command`` does not read is an error."""
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
        if key not in _OPTIONS:
            raise ConfigError(f"{path}:{lineno}: unknown key {key!r}")
        if command not in _OPTIONS[key].commands:
            raise ConfigError(f"{path}:{lineno}: {command} does not read key {key!r}")
        try:
            out[key] = _OPTIONS[key].parse(value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: {exc}") from None
    return out


def _given(args) -> dict:
    """Each value set by a flag, else by a config-file key."""
    values = read_config_file(args.config, args.command) if args.config else {}
    flags = {k: v for k, v in vars(args).items() if k in _OPTIONS and v is not None}
    return {**values, **flags}


def _join_dashed_values(argv) -> list:
    """``--flag -1,0.5`` as ``--flag=-1,0.5``; after a space argparse takes it for an option."""
    value_flags = {f"--{opt.name}" for opt in OPTIONS if opt.parse is not _parse_bool}
    out = []
    for token in sys.argv[1:] if argv is None else argv:
        if out and out[-1] in value_flags and re.match(r"-\.?\d", token):
            out[-1] += "=" + token
        else:
            out.append(token)
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hkgeom",
        description="Numerical verification suites for hyperkahler identities.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # a flag is spelled in full: a prefix would let --h mean --help
    verify = sub.add_parser(
        "verify", help="run a check suite, write a JSON report", allow_abbrev=False
    )
    suites = ", ".join((*SUITE_NAMES, *SUITE_ALIASES, "all"))
    verify.add_argument("suite_pos", nargs="?", metavar="SUITE", help=f"{suites} (default all)")
    signs = sub.add_parser("signs", help="edge sign assignment on an extended diagram")
    signs.add_argument("--diagram", required=True, help="diagram label: A4, D5, E6, E7, E8")
    profiles = sub.add_parser(
        "profiles",
        help="emit CSV profile data",
        description="CSV of axis profiles (--suite gh, the default) "
        "or of a quotient (x, V) scatter (--suite quotient).",
        allow_abbrev=False,
    )
    for name, command in (("verify", verify), ("profiles", profiles)):
        command.add_argument("--config", help="key = value defaults file")
        for opt in (opt for opt in OPTIONS if name in opt.commands):
            switch = opt.parse is _parse_bool
            kind = dict(action="store_true", default=None) if switch else dict(type=opt.parse)
            command.add_argument(f"--{opt.name}", help=opt.help, **kind)
    return parser


# -- subcommands ----------------------------------------------------------------------


def _cmd_verify(args) -> int:
    pos, flag = args.suite_pos, args.suite
    if pos and flag and suite_name(pos) != suite_name(flag):
        raise ConfigError(f"suite {pos!r} and --suite {flag!r} differ")
    args.suite = flag or pos
    values = {"out": None, "timings": False, **_given(args)}  # RunConfig has the rest
    report = run_suite(RunConfig(**{k: values[k] for k in _RUN_FIELDS if k in values}))
    for line in report.lines():
        print(line, file=sys.stderr)
    print("{passed}/{total} checks passed".format(**report.summary), file=sys.stderr)
    write_json(report, values["out"], include_timings=values["timings"])
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
    grid = np.linspace(ghc.centers[0] - 1.5, ghc.centers[-1] + 1.5, samples)
    for a in ghc.centers:
        near = np.abs(grid - a) < 1e-3
        grid[near] += 2e-3
    return grid


def _cmd_profiles(args) -> int:
    given = _given(args)
    values = dict(suite="gh", centers=(0.0, 1.0), c=0.0, samples=200, seed=0, out="profiles.csv")
    values.update(given)
    suite, samples, out = values["suite"], values["samples"], values["out"]
    if suite not in _PROFILE_SUITES:
        raise ConfigError(f"profiles suite must be one of {tuple(_PROFILE_SUITES)}, got {suite!r}")
    ignored = sorted(set(given) - {"suite", "out", *_PROFILE_SUITES[suite]})
    if ignored:
        raise ConfigError(f"profiles --suite {suite} does not read {', '.join(map(repr, ignored))}")
    if samples < 2:
        raise ConfigError("need at least two samples")
    if suite == "gh":
        weights = values.get("weights") or None
        ghc = gh.GHConfig(centers=values["centers"], c=values["c"], weights=weights)
        data = gh.axis_profiles(ghc, _axis_grid(ghc, samples))
        rows = zip(data["x1"], data["V"], data["f"], data["phi"])
        write_csv(out, ("x1", "V", "f", "phi"), rows)
        return 0
    cfg = RunConfig(suite="quotient", seed=values["seed"], c=values["c"])
    rng = np.random.default_rng(cfg.seed)
    xs, vs = gh_samples(qt.EGUCHI_HANSON, cfg.level, rng, samples)
    centers = [np.array([a, 0.0, 0.0]) for a in eh_centers(cfg.level).centers]
    # one norm per row: a batched norm changes the last digits of r1 and r2
    rows = [(*x, *(float(np.linalg.norm(x - a)) for a in centers), v) for x, v in zip(xs, vs)]
    write_csv(out, ("x1", "x2", "x3", "r1", "r2", "V"), rows)
    return 0


# -- entry point ----------------------------------------------------------------------


def main(argv=None) -> int:
    try:  # parse_centers and parse_weights raise ConfigError inside parse_args
        args = build_parser().parse_args(_join_dashed_values(argv))
        commands = {"verify": _cmd_verify, "signs": _cmd_signs, "profiles": _cmd_profiles}
        return commands[args.command](args)
    except SystemExit as exc:
        return int(exc.code or 0)
    except HkgeomError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
