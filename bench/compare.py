"""Compare benchmark results of two commits, metric by metric and workload by workload.

Usage, from the repository root::

    python3 bench/compare.py --base base/*.json --change change/*.json

Each file is one run written by ``bench/run.py`` to ``bench/results/``.
Runs are paired by workload, trace flag and base seed.  The comparison is
refused (exit 2) when the two sides ran on different machines or
toolchains, or on different seed lists.

For every end-to-end metric the table gives each side's median and
quartiles, the share of pairs the change won, and a verdict against the
bound in ``BENCHMARK.json``: ``regression`` when the change's median is
worse by more than the bound; ``unresolved`` when the base's own spread
is wider than the bound and the runs overlap; ``gain`` when the change
wins at least nine pairs in ten and the medians differ by more than the
base's spread; ``same`` otherwise.  Per-layer metrics have no bound and
get no verdict.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from run import quartiles

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: environment fields that must match for two runs to be compared
IDENTITY = ("machine", "python", "numpy", "scipy", "blas", "blas_threads")


class Refused(Exception):
    pass


def _load(paths):
    runs = {}
    for path in paths:
        data = json.loads(Path(path).read_text(encoding="utf-8"))
        if not data.get("correct"):
            raise Refused(f"{path}: run failed its output gate")
        key = (data["workload"], data["trace"], data["base_seed"])
        if key in runs:
            raise Refused(f"{path}: second run of {key}")
        runs[key] = data
    return runs


def _identity(run) -> dict:
    return {field: run["environment"][field] for field in IDENTITY}


def _check_pairing(base, change):
    identities = {json.dumps(_identity(r), sort_keys=True) for r in (*base.values(), *change.values())}
    if len(identities) != 1:
        raise Refused("runs come from different machines or toolchains:\n" + "\n".join(identities))
    if set(base) != set(change):
        missing = sorted(set(base) ^ set(change))
        raise Refused(f"the two sides ran different workloads or seeds: {missing}")
    for key in base:
        a, b = base[key]["environment"]["seeds"], change[key]["environment"]["seeds"]
        if key[1] == 0:  # an untraced run ends with a rerun of its first seed
            a, b = a[:-1], b[:-1]
        n = min(len(a), len(b))
        if a[:n] != b[:n]:
            raise Refused(f"{key}: seed lists differ: {a} vs {b}")


def _verdict(spec, base_vals, change_vals, wins, pairs):
    if spec.get("bound") is None:
        return ""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    bq1, bmed, bq3 = quartiles(base_vals)
    _, cmed, _ = quartiles(change_vals)
    worse = sign * (cmed - bmed) / abs(bmed)
    if worse > spec["bound"]:
        return "regression"
    base_iqr = (bq3 - bq1) / abs(bmed)
    separated = all(sign * c < sign * b for c in change_vals for b in base_vals)
    if base_iqr > spec["bound"] and not separated:
        return "unresolved"
    if wins >= 0.9 * pairs and abs(cmed - bmed) > bq3 - bq1:
        return "gain"
    return "same"


def compare(base, change, out=sys.stdout) -> int:
    _check_pairing(base, change)
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    metrics = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    regressions = 0
    for workload, trace in sorted({(w, t) for w, t, _ in base}):
        keys = sorted(k for k in base if k[:2] == (workload, trace))
        out.write(f"\n{workload} (trace {trace}, {len(keys)} pairs)\n")
        names = base[keys[0]]["metrics"]
        for name in names:
            m = metrics.get(name, {"better": "lower"})
            sign = 1.0 if m["better"] == "lower" else -1.0
            bv = [base[k]["metrics"][name]["value"] for k in keys]
            cv = [change[k]["metrics"][name]["value"] for k in keys]
            wins = sum(sign * c < sign * b for b, c in zip(bv, cv))
            verdict = _verdict(m, bv, cv, wins, len(keys))
            regressions += verdict == "regression"
            bq = quartiles(bv)
            cq = quartiles(cv)
            out.write(
                f"  {name:34s} base {bq[1]:12.6g} [{bq[0]:.6g}, {bq[2]:.6g}]"
                f"  change {cq[1]:12.6g} [{cq[0]:.6g}, {cq[2]:.6g}]"
                f"  wins {wins}/{len(keys)}  {verdict}\n"
            )
    return 1 if regressions else 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", nargs="+", required=True)
    parser.add_argument("--change", nargs="+", required=True)
    args = parser.parse_args(argv)
    try:
        return compare(_load(args.base), _load(args.change))
    except Refused as exc:
        print(f"refused: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
