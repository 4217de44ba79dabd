"""Machine-readable verification reports.

A run produces one :class:`Report`: an ordered list of named checks, each
carrying the formula it tests (as a plain string, so logs are
self-documenting), the measured residual, the tolerance it was held to,
and the verdict.  Serialisation is deterministic — fixed key order, no
timestamps unless explicitly requested — so a fixed seed yields a
byte-identical JSON file.  CSV output keeps 17 significant digits, enough
to round-trip IEEE doubles losslessly.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field

SCHEMA_VERSION = 2

# 17 significant digits: lossless for binary64.
_SCI = "%.16e"


def format_sci(value) -> str:
    """Full-precision scientific notation for a float-like value."""
    return _SCI % float(value)


# -- per-check records ----------------------------------------------------------------


@dataclass(frozen=True)
class CheckRecord:
    """Outcome of one named residual check.

    ``residual`` is None when the check aborted with an exception; the
    exception text then lands in ``detail`` and the check counts as
    failed.
    """

    check_id: str
    anchor: str
    residual: float | None
    tolerance: float
    passed: bool
    detail: str = ""
    wall_time: float | None = None

    def to_dict(self, include_timings: bool = False) -> dict:
        out = {
            "id": self.check_id,
            "anchor": self.anchor,
            "residual": self.residual,
            "tolerance": self.tolerance,
            "passed": self.passed,
        }
        if self.detail:
            out["detail"] = self.detail
        if include_timings and self.wall_time is not None:
            out["wall_time"] = self.wall_time
        return out

    def line(self) -> str:
        verdict = "PASS" if self.passed else "FAIL"
        if self.residual is None:
            body = f"error: {self.detail}"
        else:
            body = f"residual={self.residual:.3e} tol={self.tolerance:.1e}"
        return f"{verdict} {self.check_id}: {body}"


# -- assembled report -----------------------------------------------------------------


@dataclass
class Report:
    """Deterministically ordered collection of check records."""

    suite: str
    seed: int
    params: dict = field(default_factory=dict)
    records: list = field(default_factory=list)

    def __post_init__(self):
        ids = [r.check_id for r in self.records]
        if len(set(ids)) != len(ids):
            seen, dupes = set(), set()
            for cid in ids:
                (dupes if cid in seen else seen).add(cid)
            raise ValueError(f"duplicate check ids: {sorted(dupes)}")

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    @property
    def exit_code(self) -> int:
        return 0 if self.all_passed else 1

    @property
    def summary(self) -> dict:
        passed = sum(1 for r in self.records if r.passed)
        return {
            "total": len(self.records),
            "passed": passed,
            "failed": len(self.records) - passed,
        }

    def to_dict(self, include_timings: bool = False) -> dict:
        return {
            "schema": SCHEMA_VERSION,
            "suite": self.suite,
            "seed": self.seed,
            "params": dict(sorted(self.params.items())),
            "summary": self.summary,
            "checks": [r.to_dict(include_timings) for r in self.records],
        }

    def to_json(self, include_timings: bool = False) -> str:
        return (
            json.dumps(
                self.to_dict(include_timings),
                indent=2,
                ensure_ascii=True,
                allow_nan=False,
            )
            + "\n"
        )

    def lines(self):
        return [r.line() for r in self.records]


def write_json(report: Report, path=None, include_timings: bool = False):
    """Write the JSON report to ``path``, or to stdout when path is None."""
    text = report.to_json(include_timings)
    if path is None:
        sys.stdout.write(text)
    else:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)


# -- CSV series -----------------------------------------------------------------------


def write_csv(path, header, rows):
    """Write numeric rows at full precision under a plain-text header."""
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(format_sci(v) for v in row) + "\n")
