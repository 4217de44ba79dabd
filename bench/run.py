"""hkgeom benchmark: end-to-end timings and per-layer traced counts.

Usage, from the repository root::

    python3 bench/run.py --workload verify-all --seed 0 --seconds 20 --trace 0

The package is imported from ``src/`` next to this directory; nothing is
installed.  Iteration i of a run uses seed ``--seed + i``, so two commits
run the same list of inputs.  One iteration is ``run_suite`` on each of
the workload's configurations followed by ``Report.to_json``.

``--trace 0`` measures the end-to-end metrics with tracing off.  Times
are in ref units: multiples of a fixed reference task that a speed probe
runs in slices during the iteration (see ``SpeedProbe``).  ``--trace 1``
alternates untraced and traced iterations on the same seed and reports
the per-layer metrics plus the tracing overhead.  Every iteration passes
an output gate before it counts; a run writes its results, with the
machine and seed list, to ``bench/results/``, and the last line on stdout
is one JSON object with the metrics.

The benchmark starts no threads.  Set-up and first-run times are measured
in fresh interpreters started one at a time before the timed loop, because
an import can only be timed in a fresh process.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
RESULTS_DIR = BENCH_DIR / "results"

#: warm iterations a run makes even when --seconds is already used up
MIN_WARM = 3
#: fresh interpreters per run, started one after another; each gives one
#: set-up sample, and the first FIRST_RUNS of them one first-run sample
FRESH_PROCESSES = 5
FIRST_RUNS = 2
#: longest a fresh interpreter may take before the run is abandoned
FRESH_TIMEOUT_S = 60


# -- workloads ------------------------------------------------------------------------

_FLAT_IDS = (
    "flat.curvature.type11.semifree",
    "flat.curvature.type11.full",
    "flat.full-rotation.trivial",
    "flat.rotation.degree",
    "flat.ddc.calibration",
)
_COTANGENT_IDS = (
    "bg.profile.identity",
    "bg.moment.scaling",
    "bg.moment.contraction",
    "bg.curvature.agreement",
    "bg.structure.quaternionic",
    "bg.curvature.type11",
)
_GH_IDS = (
    "gh.monopole.alpha",
    "gh.monopole.pair",
    "gh.harmonic",
    "gh.connection.asd",
    "gh.periods",
    "gh.lift.identity",
    "gh.lift.segments",
    "gh.lift.middle-segment",
)
_QUOTIENT_IDS = (
    "quotient.curvature.match",
    "quotient.curvature.type11",
    "quotient.moment.descent",
    "quotient.gh.potential",
    "quotient.gh.separation",
)
_TWISTOR_IDS = (
    "twistor.pair.exact",
    "twistor.rotation.invariance",
    "twistor.fibre.restriction",
    "twistor.residue.fibre",
    "twistor.residue.rotation",
    "twistor.pole.orders",
    "twistor.hermitian.curvature",
    "twistor.reality",
    "twistor.closedness",
)
_DYNKIN_IDS = (
    "dynkin.signs.a-series",
    "dynkin.signs.de-series",
    "dynkin.mckay.order",
    "dynkin.quiver.a1",
)


@dataclass(frozen=True)
class Workload:
    """RunConfig overrides run in order, and the check ids they must report."""

    configs: tuple
    check_ids: tuple


WORKLOADS = {
    # The CLI default (`hkgeom verify all`): every layer has a share of it.
    "verify-all": Workload(
        configs=({},),
        check_ids=_FLAT_IDS
        + _COTANGENT_IDS
        + _GH_IDS
        + _QUOTIENT_IDS
        + _TWISTOR_IDS
        + _DYNKIN_IDS,
    ),
    # Bound by nested dd^c stencils at dimension 12 and 14.  The flat suite
    # has a constant I, the twistor hermitian check a point-dependent one.
    # flat.full-rotation.trivial already fails at n=3 for some seeds; it
    # stays, so a roundoff regression shows in pass_share.
    "dense-forms": Workload(
        configs=({"suite": "flat", "n": 3}, {"suite": "twistor", "n": 3}),
        check_ids=_FLAT_IDS + _TWISTOR_IDS,
    ),
    # Newton retraction on the quotient chart: few stencils, each callback
    # expensive -- the opposite of dense-forms.
    "quotient-newton": Workload(
        configs=({"suite": "quotient", "samples": 40},),
        check_ids=_QUOTIENT_IDS,
    ),
}


# -- one iteration and its output gate --------------------------------------------------


@dataclass
class Iteration:
    """One timed iteration.  Times exclude the speed probe's slices."""

    seed: int
    wall_s: float
    cpu_s: float
    text: str
    records: list
    traced: bool = False
    error: str | None = None
    wall_ref: float | None = None
    cpu_ref: float | None = None
    layers: dict | None = None
    counts: dict | None = None


def _cpu_clock() -> float:
    """CPU seconds of this process and its waited-for children."""
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


# -- machine-speed probe ------------------------------------------------------------

#: reference-task rounds in one "ref" unit: about 36 ms on the shared
#: 2-core x86-64 host the baseline in README.md was measured on
REF_ROUNDS = 10_000
#: wall seconds between probe slices, and reference rounds in each slice
PROBE_INTERVAL_S = 0.1
PROBE_ROUNDS = 400


class _Cell:
    __slots__ = ("key", "pair", "box")

    def __init__(self, key, pair, box):
        self.key = key
        self.pair = pair
        self.box = box


def reference_task(rounds: int) -> float:
    """Fixed work in the library's mix: small objects and tiny numpy arrays.

    It never calls hkgeom, so no change to the library changes its cost.
    Allocation-heavy work was chosen because its time follows the host's
    speed drift almost one for one: over 104 flat-suite iterations on a
    shared 2-core x86-64 host, log iteration time against log slice time
    had slope 0.95 and correlation 0.89, where 6x6 solves reached 0.44.
    """
    import numpy as np

    acc = 0.0
    for k in range(rounds):
        cell = _Cell(k, (k, k + 1), [0.5 * k])
        acc += cell.pair[1] + cell.box[0]
        e = np.zeros(8)
        e[k % 8] = 1.0
        acc += float(e.sum())
    return acc


class SpeedProbe:
    """Runs a slice of the reference task every PROBE_INTERVAL_S while active.

    The speed of a shared host drifts by a third within seconds to
    minutes, so raw times of one commit spread more between runs than the
    changes they should detect.  The slices run inside the timed work,
    from a SIGALRM handler between bytecodes of the main thread, and see
    the machine at the speed the work around them saw.  A cost in ref
    units is the time outside the slices over the median slice's time,
    scaled to REF_ROUNDS rounds.  The garbage collector is paused during
    a slice, so a collection of the library's heap never lands in one.
    """

    def __init__(self):
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self._previous = None

    def _slice(self, signum=None, frame=None):
        collecting = gc.isenabled()
        gc.disable()
        try:
            wall0, cpu0 = time.perf_counter(), time.process_time()
            reference_task(PROBE_ROUNDS)
            self.walls.append(time.perf_counter() - wall0)
            self.cpus.append(time.process_time() - cpu0)
        finally:
            if collecting:
                gc.enable()

    def __enter__(self):
        self._previous = signal.signal(signal.SIGALRM, self._slice)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, self._previous)
        if not self.walls:  # shorter than one interval
            self._slice()
        return False

    @property
    def wall_s(self) -> float:
        return sum(self.walls)

    @property
    def cpu_s(self) -> float:
        return sum(self.cpus)

    def in_ref(self, wall_s: float, cpu_s: float) -> tuple[float, float]:
        """Wall and CPU seconds outside the slices, in ref units."""
        scale = REF_ROUNDS / PROBE_ROUNDS
        return (wall_s / (statistics.median(self.walls) * scale),
                cpu_s / (statistics.median(self.cpus) * scale))


def run_iteration(hk, workload: Workload, seed: int, probe: bool = True) -> Iteration:
    """Run the workload once at ``seed``; time it and keep its JSON reports.

    With ``probe`` the iteration runs under the speed probe and also gets
    its cost in ref units.  An exception is kept as the iteration's
    error, which fails its gate.
    """
    speed = SpeedProbe()
    texts, records, error = [], [], None
    wall0, cpu0 = time.perf_counter(), _cpu_clock()
    with speed if probe else contextlib.nullcontext():
        try:
            for overrides in workload.configs:
                report = hk.run_suite(hk.RunConfig(seed=seed, **overrides))
                texts.append(report.to_json())
                records.extend(report.records)
        except Exception:  # reported through the gate, never timed
            error = traceback.format_exc()
    wall = time.perf_counter() - wall0 - speed.wall_s
    cpu = _cpu_clock() - cpu0 - speed.cpu_s
    it = Iteration(seed, wall, cpu, "".join(texts), records, error=error)
    if probe:
        it.wall_ref, it.cpu_ref = speed.in_ref(wall, cpu)
    return it


def gate(workload: Workload, it: Iteration) -> str | None:
    """Why the iteration's output is wrong, or None when it passes."""
    if it.error:
        return f"raised: {it.error}"
    ids = tuple(r.check_id for r in it.records)
    if ids != workload.check_ids:
        return f"check ids differ from the expected {len(workload.check_ids)}: {ids}"
    for r in it.records:
        if r.residual is None:
            if r.passed or not r.detail:
                return f"{r.check_id}: errored check without error text or marked passed"
        elif not math.isfinite(r.residual):
            return f"{r.check_id}: residual {r.residual!r} is not finite"
        elif r.passed != (r.residual <= r.tolerance):
            return f"{r.check_id}: verdict disagrees with residual and tolerance"
    return None


def _failed_ids(it: Iteration) -> list:
    return [r.check_id for r in it.records if not r.passed]


# -- environment ----------------------------------------------------------------------


def _git_commit(root: Path) -> str | None:
    head = root / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = root / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = root / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def _source_digest(src: Path) -> str:
    digest = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        digest.update(str(path.relative_to(src)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def environment(np, scipy, seeds) -> dict:
    """Machine, toolchain and input identity; compare.py pairs only equal ones."""
    try:
        blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    except TypeError:  # numpy before 1.26 prints its config and returns None
        blas = {}
    return {
        "machine": {
            "node": platform.node(),
            "arch": platform.machine(),
            "system": f"{platform.system()} {platform.release()}",
            "nproc": os.cpu_count(),
            "usable_cpus": len(os.sched_getaffinity(0))
            if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        },
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": {
            var: os.environ.get(var)
            for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")
        },
        "git_commit": _git_commit(ROOT),
        "source_sha256": _source_digest(SRC),
        "seeds": list(seeds),
    }


# -- set-up ---------------------------------------------------------------------------


_FRESH_CODE = """\
import json, sys
sys.path.insert(0, sys.argv[1])
import hkgeom, hkgeom.cli
print("ready", flush=True)
if sys.argv[4] == "-":
    sys.exit(0)
sys.path.insert(0, sys.argv[2])
import run
workload = run.WORKLOADS[sys.argv[3]]
it = run.run_iteration(hkgeom, workload, int(sys.argv[4]))
print(json.dumps({"wall_s": it.wall_s, "wall_ref": it.wall_ref, "gate": run.gate(workload, it),
                  "text": it.text}))
"""


@dataclass
class FreshRun:
    """One fresh interpreter: start to ready (imports done), then its first iteration."""

    ready_s: float
    wall_s: float | None = None
    wall_ref: float | None = None
    gate: str | None = None
    text: str | None = None


def fresh_run(workload_name: str, seed: int | None) -> FreshRun:
    """Start an interpreter that imports the CLI and reports ready.

    With a seed it then runs one iteration at that seed; without one it exits.
    """
    arg = "-" if seed is None else str(seed)
    argv = [sys.executable, "-c", _FRESH_CODE, str(SRC), str(BENCH_DIR), workload_name, arg]
    t0 = time.perf_counter()
    with subprocess.Popen(argv, cwd=ROOT, stdout=subprocess.PIPE, text=True) as proc:
        try:
            first = proc.stdout.readline()
            ready_s = time.perf_counter() - t0
            rest, _ = proc.communicate(timeout=FRESH_TIMEOUT_S)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
    if proc.returncode != 0 or first.strip() != "ready":
        raise RuntimeError(f"fresh interpreter exited with {proc.returncode}")
    if seed is None:
        return FreshRun(ready_s)
    out = json.loads(rest)
    return FreshRun(ready_s, out["wall_s"], out["wall_ref"], out["gate"], out["text"])


def import_library():
    sys.path.insert(0, str(SRC))
    import numpy as np
    import scipy

    import hkgeom

    if not Path(hkgeom.__file__).resolve().is_relative_to(SRC.resolve()):
        raise ImportError(f"hkgeom imported from {hkgeom.__file__}, not {SRC}")
    return hkgeom, np, scipy


# -- metrics --------------------------------------------------------------------------


def quartiles(values) -> tuple:
    """(q1, median, q3) as ``statistics.quantiles(values, n=4)`` gives them."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4)
    return q1, med, q3


def _share(num: int, base: int) -> float:
    return num / base if base else 0.0


def layer_metrics(tr, report_bytes: int) -> dict:
    """Per-layer metrics of one traced iteration: name -> (value, unit)."""
    calls = tr.calls
    ddc = calls("forms.ddc")
    retractions = calls("quotient.QuotientChart.point")
    suite = {name: tr.total(f"suites.suite_{name}") for name in
             ("flat", "cotangent", "gh", "quotient", "twistor", "dynkin")}
    profile = ("cotangent.potential_h", "cotangent.potential_k", "cotangent.bg_moment_map")
    gh_fields = tuple(f"gibbonshawking.{n}" for n in (
        "gh_potential", "potential_gradient", "monopole_phi", "gh_alpha",
        "monopole_A", "connection_Ahat", "gh_metric", "rotation_lift_f", "lift_gradient",
    ))
    out = {
        "forms.field_evals": (
            calls("forms.ScalarField.__call__") + calls("forms.FormField.__call__"), "count"),
        "forms.partial_derivative.calls": (calls("forms.partial_derivative"), "count"),
        "forms.ddc.calls": (ddc, "count"),
        "forms.ext_deriv.calls": (calls("forms.ext_deriv"), "count"),
        "forms.evals_per_ddc": (
            _share(tr.nested[("forms.ddc", "forms.ScalarField.__call__")], ddc), "evals/ddc"),
        "forms.stencil.self_s": (tr.self_time(layer="forms.stencil"), "s"),
        "forms.algebra.self_s": (tr.self_time(layer="forms.algebra"), "s"),
        "forms.field.self_s": (tr.self_time(layer="forms.field"), "s"),
        "forms.surface_integral.s": (tr.total("forms.surface_integral"), "s"),
        "flatspace.moment_map.calls": (calls("flatspace.moment_map"), "count"),
        "flatspace.moment_map.self_s": (tr.self_time(names=("flatspace.moment_map",)), "s"),
        "flatspace.self_s": (tr.self_time(layer="flatspace"), "s"),
        "cotangent.profile.calls": (sum(calls(n) for n in profile), "count"),
        "cotangent.profile.self_s": (tr.self_time(names=profile), "s"),
        "cotangent.self_s": (tr.self_time(layer="cotangent"), "s"),
        "gibbonshawking.field.calls": (sum(calls(n) for n in gh_fields), "count"),
        "gibbonshawking.self_s": (tr.self_time(layer="gibbonshawking"), "s"),
        "quotient.solve_level.calls": (calls("quotient.solve_level"), "count"),
        "quotient.chart_builds": (calls("quotient.QuotientChart.__init__"), "count"),
        "quotient.horizontal_frame.calls": (calls("quotient.horizontal_frame"), "count"),
        "quotient.retractions": (retractions, "count"),
        "quotient.newton_evals": (calls("quotient.hk_moment"), "count"),
        "quotient.newton_per_retraction": (
            _share(tr.nested[("quotient.QuotientChart.point", "quotient.hk_moment")],
                   retractions), "evals/retraction"),
        "quotient.retraction.self_s": (
            tr.self_time(names=("quotient.QuotientChart.point",)), "s"),
        "quotient.self_s": (tr.self_time(layer="quotient"), "s"),
        "twistor.structure.calls": (calls("twistor.structure"), "count"),
        "twistor.log_hU.calls": (calls("twistor.log_hU"), "count"),
        "twistor.self_s": (tr.self_time(layer="twistor"), "s"),
        "suites.self_s": (tr.self_time(layer="suites"), "s"),
        "report.to_json.s": (tr.total("report.Report.to_json"), "s"),
        "report.bytes": (report_bytes, "bytes"),
        "linalg.eigh.calls": (calls("linalg.eigh"), "count"),
        "linalg.lstsq.calls": (calls("linalg.lstsq"), "count"),
        "linalg.svd.calls": (calls("linalg.svd"), "count"),
        "linalg.solve.calls": (calls("linalg.solve"), "count"),
        "linalg.self_s": (tr.self_time(layer="linalg"), "s"),
        "trace.spans": (sum(tr.count), "count"),
    }
    for name, seconds in suite.items():
        out[f"suites.{name}.s"] = (seconds, "s")
    return out


# -- the run --------------------------------------------------------------------------


def _measure_loop(run_one, seconds: float, min_iterations: int) -> None:
    start = time.perf_counter()
    i = 0
    while i < min_iterations or time.perf_counter() - start < seconds:
        run_one(i)
        i += 1


def run_untraced(hk, workload, base_seed, seconds, log):
    """Cold iteration, warm ones until ``seconds`` are used, then the first seed again.

    The last iteration reruns the cold one's seed, so its report must
    match byte for byte; it counts as a warm sample.
    """
    iterations = []

    def one(seed):
        it = run_iteration(hk, workload, seed)
        iterations.append(it)
        log(f"seed {it.seed}: {it.wall_s:.3f} s, failed checks {_failed_ids(it)}")

    _measure_loop(lambda i: one(base_seed + i), seconds, MIN_WARM)
    one(base_seed)
    return iterations


def run_traced(hk, workload, base_seed, seconds, tr, log):
    """Untraced then traced iteration per seed; per-layer metrics per traced one."""
    pairs = []

    def one(i):
        seed = base_seed + i
        plain = run_iteration(hk, workload, seed, probe=False)
        tr.reset()
        tr.install()
        tr.record_spans(i == 0)
        try:
            traced = run_iteration(hk, workload, seed, probe=False)
            traced.traced = True
        finally:
            tr.record_spans(False)
            tr.uninstall()
        traced.layers = layer_metrics(tr, len(traced.text.encode()))
        traced.counts = tr.counts()
        pairs.append((plain, traced))
        log(f"seed {seed}: untraced {plain.wall_s:.3f} s, traced {traced.wall_s:.3f} s")

    _measure_loop(one, seconds, 1)
    return pairs


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    def log(msg):
        print(f"[{args.workload}] {msg}", file=sys.stderr, flush=True)

    if not (SRC / "hkgeom" / "__init__.py").is_file():
        log(f"no hkgeom sources under {SRC}")
        return 2
    workload = WORKLOADS[args.workload]
    if args.trace:
        import tracer as tracing

        hk, np, scipy = import_library()
        tr = tracing.Tracer()
        pairs = run_traced(hk, workload, args.seed, args.seconds, tr, log)
        return finish_traced(args, workload, pairs, tr, np, scipy, log)
    fresh = [
        fresh_run(args.workload, args.seed if k < FIRST_RUNS else None)
        for k in range(FRESH_PROCESSES)
    ]
    hk, np, scipy = import_library()
    iterations = run_untraced(hk, workload, args.seed, args.seconds, log)
    return finish_untraced(args, workload, fresh, iterations, np, scipy, log)


def _gate_all(workload, iterations, same_seed_pairs):
    """Gate every iteration; each same-seed pair must give identical bytes.

    Returns the error messages and the number of iterations that failed.
    """
    errors, failed = [], set()
    for it in iterations:
        why = gate(workload, it)
        if why:
            errors.append(f"seed {it.seed}{' traced' if it.traced else ''}: {why}")
            failed.add(id(it))
    for a, b in same_seed_pairs:
        if a.text != b.text:
            errors.append(f"seed {a.seed}: two runs in one process gave different JSON")
            failed.add(id(b))
    return errors, len(failed)


def _verdicts(iterations) -> dict:
    out = {}
    for it in iterations:
        for r in it.records:
            slot = out.setdefault(r.check_id, {"pass": 0, "fail": 0, "failed_seeds": []})
            if r.passed:
                slot["pass"] += 1
            else:
                slot["fail"] += 1
                slot["failed_seeds"].append(it.seed)
    return out


def finish_untraced(args, workload, fresh, iterations, np, scipy, log) -> int:
    cold, rerun = iterations[0], iterations[-1]
    errors, failed = _gate_all(workload, iterations, [(cold, rerun)])
    first_runs = fresh[:FIRST_RUNS]
    for k, f in enumerate(first_runs):
        if f.gate or f.text != cold.text:
            errors.append(f"fresh interpreter {k}: {f.gate or 'JSON differs from this process'}")
            failed += 1
    good = [it for it in iterations[:-1] if gate(workload, it) is None]
    warm = [it for it in iterations[1:] if gate(workload, it) is None]
    checks = sum(len(it.records) for it in good)
    passed = sum(sum(r.passed for r in it.records) for it in good)
    metrics, extra = {}, {}
    if not errors:
        q1, run_ref, q3 = quartiles([it.wall_ref for it in warm])
        q1_s, run_s, q3_s = quartiles([it.wall_s for it in warm])
        firsts = first_runs + [cold]
        extra = {
            "run_ref": {"q1": q1, "median": run_ref, "q3": q3, "n": len(warm)},
            "wall_seconds": {
                "run_s": {"q1": q1_s, "median": run_s, "q3": q3_s, "n": len(warm)},
                "first_run_s": statistics.median(f.wall_s for f in firsts),
                "cpu_s": statistics.median(it.cpu_s for it in warm),
            },
        }
        metrics = {
            "setup_s": (statistics.median(f.ready_s for f in fresh), "s"),
            "first_run_ref": (statistics.median(f.wall_ref for f in firsts), "ref"),
            "run_ref": (run_ref, "ref"),
            "cpu_ref": (statistics.median(it.cpu_ref for it in warm), "ref"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
            "pass_share": (passed / checks, "share"),
        }
    seeds = [it.seed for it in iterations]
    record = {
        "fresh_processes": [
            {"ready_s": f.ready_s, "first_run_s": f.wall_s, "first_run_ref": f.wall_ref}
            for f in fresh
        ],
        "iterations": [
            {"seed": it.seed, "wall_s": it.wall_s, "cpu_s": it.cpu_s,
             "wall_ref": it.wall_ref, "cpu_ref": it.cpu_ref,
             "cold": i == 0, "failed_checks": _failed_ids(it)}
            for i, it in enumerate(iterations)
        ],
        "verdicts": _verdicts(good),
        **extra,
    }
    attempted = len(iterations) + len(first_runs)
    return emit(args, seeds, errors, (attempted, failed), metrics, record, np, scipy, log)


def finish_traced(args, workload, pairs, tr, np, scipy, log) -> int:
    flat = [it for pair in pairs for it in pair]
    errors, failed = _gate_all(workload, flat, pairs)
    metrics, extra = {}, {}
    if not errors:
        names = pairs[0][1].layers
        metrics = {
            name: (statistics.median(t.layers[name][0] for _, t in pairs), unit)
            for name, (_, unit) in names.items()
        }
        # The first untraced iteration is the cold one; leave its pair out
        # of the overhead when there is another.
        timed = pairs[1:] or pairs
        overhead = (statistics.median(t.wall_s for _, t in timed)
                    - statistics.median(p.wall_s for p, _ in timed))
        metrics["trace.overhead_s"] = (overhead, "s")
        extra = {"counts": {str(t.seed): t.counts for _, t in pairs}}
        RESULTS_DIR.mkdir(exist_ok=True)
        span_file = RESULTS_DIR / f"spans-{args.workload}.csv.gz"
        written = tr.write_spans(span_file)
        extra["span_file"] = {"path": str(span_file.relative_to(ROOT)), "spans": written,
                              "seed": pairs[0][1].seed}
    seeds = [p.seed for p, _ in pairs]
    record = {
        "iterations": [
            {"seed": p.seed, "untraced_wall_s": p.wall_s, "traced_wall_s": t.wall_s,
             "failed_checks": _failed_ids(p)}
            for p, t in pairs
        ],
        "verdicts": _verdicts([p for p, _ in pairs]),
        **extra,
    }
    return emit(args, seeds, errors, (len(flat), failed), metrics, record, np, scipy, log)


def emit(args, seeds, errors, tally, metrics, record, np, scipy, log) -> int:
    """Write the results file and print the metrics; the JSON line comes last."""
    for err in errors:
        log(f"gate: {err}")
    attempted, failed = tally
    result = {
        "correct": not errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    RESULTS_DIR.mkdir(exist_ok=True)
    out = RESULTS_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    full = {
        "workload": args.workload,
        "trace": args.trace,
        "seconds": args.seconds,
        "base_seed": args.seed,
        "environment": environment(np, scipy, seeds),
        "errors": errors,
        **record,
        **result,
    }
    out.write_text(json.dumps(full, indent=1) + "\n", encoding="utf-8")
    for name, (value, unit) in metrics.items():
        print(f"{name:34s} {value:>14.6g} {unit}")
    if "run_ref" in record:
        q, w = record["run_ref"], record["wall_seconds"]
        print(f"run_ref quartiles: {q['q1']:.4f} / {q['median']:.4f} / {q['q3']:.4f}, n={q['n']}")
        print(f"wall seconds: run_s {w['run_s']['median']:.4f}, first_run_s "
              f"{w['first_run_s']:.4f}, cpu_s {w['cpu_s']:.4f}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
