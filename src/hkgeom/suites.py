"""Named verification checks over the library's analytic identities.

Every check is one row of :data:`CHECKS`: a stable id, the identity under
test written out as a formula string (its anchor), the tolerance it is
held to, and a residual function ``residual(rng, cfg)``.  :func:`run_check`
runs one row and :func:`run_suite` runs every row a :class:`RunConfig`
selects, in table order, into a :class:`Report`.

Each row draws its samples from its own generator, seeded by the run seed
and a CRC-32 of the check id, so a check's samples do not depend on which
checks run before it, and a fixed :class:`RunConfig` reproduces its report
byte for byte.  Residuals reach the library through its module attributes
(``fs.``, ``ct.``, ``gh.``, ``qt.``, ``tw.``, ``dk.``) when they run, so a
tool that rebinds those attributes (the benchmark's tracer) sees every call.

Suite names: ``flat``, ``cotangent`` (alias ``bg``, the prefix of its
ids), ``gh``, ``quotient``, ``twistor``, ``dynkin``, and ``all``.
"""

from __future__ import annotations

import dataclasses
import math
import time
import zlib
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.random import Generator, SeedSequence, default_rng

from . import cotangent as ct
from . import dynkin as dk
from . import flatspace as fs
from . import gibbonshawking as gh
from . import quotient as qt
from . import twistor as tw
from .errors import ConfigError, HkgeomError, SamplingError
from .forms import (
    FDScheme,
    ScalarField,
    ddc,
    ext_deriv,
    fd_gradient,
    hodge_star,
    laplacian,
    type11_residual,
)
from .report import CheckRecord, Report

SUITE_NAMES = ("flat", "cotangent", "gh", "quotient", "twistor", "dynkin")
SUITE_ALIASES = {"bg": "cotangent"}


def suite_name(name: str) -> str:
    """The suite that a name or alias means, or "all"; an unknown name is a ConfigError."""
    resolved = SUITE_ALIASES.get(name, name)
    if resolved != "all" and resolved not in SUITE_NAMES:
        raise ConfigError(f"unknown suite {name!r}")
    return resolved


#: least gap between adjacent centres: gh.lift.segments samples each axis
#: segment from 5% to 95% of its length, so this keeps its points 5e-8,
#: five times the potential's CENTER_MARGIN, away from either centre
_MIN_CENTER_GAP = 100 * gh.CENTER_MARGIN
#: least positive quotient level.  quotient.gh.separation fits the centre
#: separation c/2 from level-set samples seeded at the level's own scale
#: sqrt(c); its worst residual over seeds 0-7 at 20 samples is 7.8e-11 at
#: c = 1e-3, 3.9e-10 at 1e-4 and 9.7e-9 at 1e-5 (3.8e-10, 3.9e-9 and 6.3e-8
#: at 1 sample), against the tolerance 1e-4.  It still grows as c falls, and
#: the Newton stops (tol max(1, c): absolute below level 1) and the 1e-12
#: floor of gh_coordinates on 1/V do not shrink with c, so the floor stays.
_MIN_QUOTIENT_LEVEL = 1e-3
#: greatest quotient level.  The Newton stops and descended_circle_data's
#: drift guard scale with the level (tol max(1, |m|^2), |m|^2 >= 2 c), so what
#: limits c is the roundoff of the chart rows' nested stencils, which grows
#: like eps c / h^2.  Over seeds 0-399 at 20 samples and 0-199 at 60, the
#: worst chart-row residual is 0.13 of its tolerance at c = 3e3, 0.39 at 1e4
#: and 0.75 at 2e4; at 3e4 quotient.curvature.type11 FAILs seed 361 (20
#: samples) and seed 147 (60 samples) at 1.5 and 1.6 times its tolerance,
#: and at 1e5 it or quotient.curvature.match FAILs over half the seeds.  The
#: ceiling is a decade below the lowest level that FAILs.  At 3e3 seeds
#: 0-399 also pass at 1, 3, 4, 8 and 80 samples.
_MAX_QUOTIENT_LEVEL = 3e3
#: greatest |c| of the gh suite.  gh.harmonic and gh.monopole.pair
#: differentiate phi = ... + c with c = 0: a constant is exactly harmonic
#: with zero gradient, but left in it adds roundoff eps |c| / h^2, and
#: gh.harmonic read 3.6e-6 against its 1e-6 at c = 3000.  c still enters
#: Ahat as phi/V, and so the roundoff of gh.connection.asd: over seeds 0-99
#: on the three centre sets of the seed sweep its worst residual is 0.029
#: of its tolerance at |c| = 1e3 and 0.30 at 1e4, and at 1e6 it FAILs 4 of
#: 60 draws.  The ceiling keeps a tenfold margin.
_MAX_GH_C = 1e3


# -- run configuration ----------------------------------------------------------------


def _is_real(value) -> bool:
    """Whether value is a real number: an int or float (numpy's too), not a bool."""
    return not isinstance(value, bool) and isinstance(value, (int, float, np.integer, np.floating))


@dataclass(frozen=True)
class RunConfig:
    """The geometry and the sampling of a suite run; fixed seed means fixed report.

    Each check's tolerance is fixed in its own row, next to the error model
    it comes from, and its stencil or contour in that row or, for some rows
    (the README lists them), in a constant of the library module the row
    calls; no field here changes any of them.
    Bad values raise :class:`ConfigError` here, before any check runs.
    """

    suite: str = "all"
    n: int = 2
    samples: int = 20
    seed: int = 0
    centers: tuple = (0.0, 1.0)
    c: float = 0.0

    def __post_init__(self):
        name = suite_name(self.suite)
        object.__setattr__(self, "suite", name)
        if not np.iterable(self.centers) or not all(map(_is_real, self.centers)):
            raise ConfigError(f"centers must be a sequence of real numbers, got {self.centers!r}")
        object.__setattr__(self, "centers", tuple(float(a) for a in self.centers))
        if not _is_real(self.c):
            raise ConfigError(f"c must be a real number, got {self.c!r}")
        if isinstance(self.c, np.generic):  # the JSON report takes Python numbers only
            object.__setattr__(self, "c", self.c.item())
        for field in ("n", "samples", "seed"):
            value = getattr(self, field)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ConfigError(f"{field} must be an integer, got {value!r}")
            object.__setattr__(self, field, int(value))
        if self.n < 1:
            raise ConfigError("n must be a positive integer")
        if self.samples < 1:
            raise ConfigError("samples must be a positive integer")
        if self.seed < 0:
            raise ConfigError("seed must be nonnegative")
        if not math.isfinite(self.c):
            raise ConfigError("c must be finite")
        if name in ("all", "gh"):
            gh.GHConfig(centers=self.centers, c=self.c)
            if abs(self.c) > _MAX_GH_C:
                raise ConfigError(
                    f"the gh constant c must be at most {_MAX_GH_C:g} in size, got {self.c}"
                )
            if any(b - a < _MIN_CENTER_GAP for a, b in zip(self.centers, self.centers[1:])):
                raise ConfigError(f"adjacent centres must be at least {_MIN_CENTER_GAP:g} apart")
        if name in ("all", "quotient"):
            self.level  # raises ConfigError unless c gives a quotient level

    @property
    def level(self) -> float:
        """The quotient level that c configures.

        c = 0 means the default level 1, since 0 is also the gh suite's
        default axis constant; a negative level, a positive one below
        _MIN_QUOTIENT_LEVEL, or one above _MAX_QUOTIENT_LEVEL, is a
        configuration error.
        """
        if self.c < 0:
            raise ConfigError(f"the quotient level c must be nonnegative, got {self.c}")
        if 0 < self.c < _MIN_QUOTIENT_LEVEL:
            raise ConfigError(
                f"the quotient level c must be 0 (level 1) or at least {_MIN_QUOTIENT_LEVEL:g}, "
                f"got {self.c}"
            )
        if self.c > _MAX_QUOTIENT_LEVEL:
            raise ConfigError(
                f"the quotient level c must be at most {_MAX_QUOTIENT_LEVEL:g}, got {self.c}"
            )
        return self.c if self.c > 0 else 1.0

    def params_dict(self) -> dict:
        """Every field but ``suite`` and ``seed``, which the report holds itself."""
        params = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        del params["suite"], params["seed"]
        return {**params, "centers": list(self.centers)}


# -- the check row and how one runs ---------------------------------------------------


@dataclass(frozen=True)
class Check:
    """One named identity held to a tolerance.

    ``residual(rng, cfg)`` returns its samples' residuals, or (residuals,
    detail) to give the record a detail text; the record holds the worst.
    ``when(cfg)``, if given, says whether the check applies at all.
    """

    id: str
    anchor: str
    tol: float
    residual: Callable
    when: Callable | None = None

    @property
    def suite(self) -> str:
        prefix = self.id.split(".", 1)[0]
        return SUITE_ALIASES.get(prefix, prefix)


#: exceptions a residual may raise on bad numerics rather than bad code
_NUMERICAL_ERRORS = (HkgeomError, np.linalg.LinAlgError, FloatingPointError)


def _check_rng(cfg: RunConfig, check_id: str) -> Generator:
    """The check's own generator: the run seed spawned by a CRC-32 of its id.

    Python's ``hash`` of a string is salted per process, so it cannot key
    a reproducible stream.
    """
    key = (zlib.crc32(check_id.encode()),)
    return default_rng(SeedSequence(cfg.seed, spawn_key=key))


def _run(cfg: RunConfig, check: Check) -> CheckRecord:
    """Run one row; numerical failures count as FAIL.

    A package error, a singular linear solve, a floating-point trap or a
    NaN or infinite residual is recorded with residual None; any other
    exception is a programming error and propagates.
    """
    rng = _check_rng(cfg, check.id)
    detail = ""
    start = time.perf_counter()
    try:
        out = check.residual(rng, cfg)
        if isinstance(out, tuple):
            out, detail = out
        residual = _worst(out)
    except _NUMERICAL_ERRORS as exc:  # recorded, not raised: exit code 1 via the report
        wall = time.perf_counter() - start
        note = f"{type(exc).__name__}: {exc}"
        return CheckRecord(check.id, check.anchor, None, check.tol, False, note, wall)
    wall = time.perf_counter() - start
    if not math.isfinite(residual):  # JSON has no NaN or inf; the detail names it
        note = f"non-finite residual {residual}"
        return CheckRecord(check.id, check.anchor, None, check.tol, False, note, wall)
    passed = bool(residual <= check.tol)
    return CheckRecord(check.id, check.anchor, residual, check.tol, passed, detail, wall)


def _worst(residuals) -> float:
    """The largest entry of the array ``residuals``, or NaN if any of them is NaN.

    The builtin ``max`` keeps its running value whenever a comparison with
    NaN is false, so it would drop a NaN sample that is not the first.
    """
    return float(np.max(np.asarray(residuals, dtype=float)))


# -- flat model -----------------------------------------------------------------------


#: Every flat field here is quadratic (mu / deg, and |z|^2 / 2 in the
#: calibration row), and the 2nd-order central difference is exact on a
#: quadratic, so the nested stencil leaves no truncation error.  Its
#: error is roundoff alone: each level's weights (1, -1) / 2h have |w|
#: summing to 1/h, giving about (1/h)^2 eps max|mu|.  With max|mu| up
#: to ~7 at n = 3 that is ~1.6e-13 at h = 0.1, far under the 1e-8 and
#: 1e-9 bounds, and a quarter of the field rows of a 4th-order stencil.
_FLAT_SCHEME = FDScheme(h=1e-1, order=2)


def _rotation(cfg: RunConfig, k: int) -> fs.CircleActionSpec:
    """Weights (k, 1) on every factor: k = 0 semi-free, k = 1 the full rotation."""
    return fs.CircleActionSpec(k=(k,) * cfg.n, l=(1,) * cfg.n)


def _flat_points(cfg: RunConfig, rng, count) -> np.ndarray:
    """(count, 4n) points uniform in the cube (-1.5, 1.5)^4n."""
    return rng.uniform(-1.5, 1.5, size=(count, 4 * cfg.n))


def _flat_type11(rng, cfg: RunConfig, k: int) -> list:
    spec = _rotation(cfg, k)
    structures = spec.model().structures()
    curvatures = fs.hyperholo_curvature(spec, _flat_points(cfg, rng, cfg.samples), _FLAT_SCHEME)
    return [type11_residual(curvatures, S) for S in structures]


def _flat_full_norm(rng, cfg: RunConfig) -> np.ndarray:
    points = _flat_points(cfg, rng, cfg.samples)
    return np.abs(fs.hyperholo_curvature(_rotation(cfg, 1), points, _FLAT_SCHEME))


def _flat_calibration(rng, cfg: RunConfig) -> np.ndarray:
    f = ScalarField(lambda p: 0.5 * (p[:, 0] ** 2 + p[:, 1] ** 2), dim=4)
    expected = np.array([2.0, 0.0, 0.0, 0.0, 0.0, 0.0])  # 2 dx0^dx1
    got = ddc(f, fs._shared_model(1).I, rng.uniform(-1.5, 1.5, size=(5, 4)), _FLAT_SCHEME)
    return np.abs(got - expected)


# -- cotangent model ------------------------------------------------------------------


def _cotangent_points(rng, count) -> ct.CotangentPoint:
    """One batch point of count samples, b and v uniform in [-0.8, 0.8]^2, v kept off zero."""
    x = rng.uniform(-0.8, 0.8, size=(count, 4))
    b, v = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]
    return ct.CotangentPoint(b, np.where(np.abs(v) < 0.05, v + (0.1 + 0.1j), v))


#: The cotangent potentials are not polynomial, so these stencils trade
#: truncation (~h^4) against roundoff (~eps / h^2 nested, eps / h for
#: d^c).  bg.curvature.type11 (and bg.structure.quaternionic, from the
#: same omega1) is best at h = 1e-3 to 2e-3 and reaches 1.1e-5 at
#: h = 2e-2; bg.moment.contraction is best at h <= 1e-3.
_BG_SCHEME = FDScheme(h=1e-3, order=4)
#: dd^c(h + mu - k) = 0 is linear in the stencil, so its truncation
#: cancels between the two sides and roundoff, ~(1.5/h)^2 eps |k|, is
#: all that is left: the larger step makes the residual smaller.
_BG_AGREEMENT_SCHEME = FDScheme(h=2e-2, order=4)


def _bg_agreement(rng, cfg: RunConfig) -> np.ndarray:
    pts = _cotangent_points(rng, cfg.samples)
    return ct.bg_curvature_residual(pts, _BG_AGREEMENT_SCHEME)


def _bg_quaternionic(rng, cfg: RunConfig) -> np.ndarray:
    """||J^2 + Id|| at samples // 4 points (>= 2); builds no curvature."""
    pts = _cotangent_points(rng, max(2, cfg.samples // 4))
    return ct.bg_quaternionic_residual(ct.bg_structures(pts, _BG_SCHEME)[1])


def _bg_type11(rng, cfg: RunConfig) -> list:
    pts = _cotangent_points(rng, max(2, cfg.samples // 4))
    structures, F = ct.bg_structures(pts, _BG_SCHEME), ct.bg_curvature(pts, _BG_SCHEME)
    # J and K carry FD error; bg.structure.quaternionic reports it as its own residual
    return [type11_residual(F, S, structure_tol=1e-4) for S in structures]


# -- Gibbons-Hawking ------------------------------------------------------------------


#: least distance of a sampled base point from the x1-axis, which holds the
#: centres, and the half-width of the (x2, x3) box it is drawn from: about
#: 2% of the box, pi 0.4^2 / 5^2, is rejected
_GH_MIN_CLEARANCE = 0.4
_GH_BOX = 2.5
#: rounds of redraws after which _gh_points gives up; a row is rejected in
#: all of them with probability about 0.02^20 = 1e-34
_GH_MAX_ROUNDS = 20


def _gh_points(ghc, count, rng) -> np.ndarray:
    """(count, 3) base points with clearance above _GH_MIN_CLEARANCE, by rejection.

    The points are uniform in the box that runs in x1 from 1.5 before the
    first centre to 1.5 past the last, and in x2 and x3 over (-_GH_BOX,
    _GH_BOX).  Each round redraws the rows still too near the axis.
    Raises :class:`SamplingError` after _GH_MAX_ROUNDS rounds, so a
    clearance that admits no point fails instead of hanging.
    """
    low = np.array([ghc.centers[0] - 1.5, -_GH_BOX, -_GH_BOX])
    high = np.array([ghc.centers[-1] + 1.5, _GH_BOX, _GH_BOX])
    x = rng.uniform(low, high, size=(count, 3))
    for _ in range(_GH_MAX_ROUNDS):
        near = gh.chart_clearance(x) <= _GH_MIN_CLEARANCE
        if not near.any():
            return x
        x[near] = rng.uniform(low, high, size=(np.count_nonzero(near), 3))
    raise SamplingError(
        f"no point with clearance above {_GH_MIN_CLEARANCE} in {_GH_MAX_ROUNDS} rounds of draws"
    )


def _gh_config(cfg: RunConfig):
    return gh.GHConfig(centers=cfg.centers, c=cfg.c)


#: the gh fields are not polynomial either, so this order-4 stencil too trades
#: truncation (~h^4) against roundoff (~eps / h^2 nested); every sample keeps
#: _GH_MIN_CLEARANCE from the x1-axis, which holds every singularity of the fields
_GH_SCHEME = FDScheme(h=1e-3, order=4)


def _star_gaps(da: np.ndarray, grads: np.ndarray) -> np.ndarray:
    """max |dA - *d phi| on R^3 per row, for d phi given by its gradients (k, 3).

    The Euclidean star of 1-forms is linear with one entry of +-1 per
    column, so taking it as the matrix of its values on the basis is exact.
    """
    star = hodge_star(np.eye(3), 1, np.eye(3), 1)
    return np.max(np.abs(da - grads @ star), axis=1)


def _gh_alpha(rng, cfg: RunConfig) -> np.ndarray:
    ghc = _gh_config(cfg)
    xs = _gh_points(ghc, cfg.samples, rng)
    grads = gh.potential_gradient(ghc, xs)
    return _star_gaps(ext_deriv(gh.alpha_field(ghc), xs, _GH_SCHEME), grads)


def _gh_pair(rng, cfg: RunConfig) -> np.ndarray:
    ghc = gh.GHConfig(centers=cfg.centers)  # without c: see _MAX_GH_C
    xs = _gh_points(ghc, cfg.samples, rng)
    da = ext_deriv(gh.monopole_field(ghc), xs, _GH_SCHEME)
    return _star_gaps(da, fd_gradient(lambda x: gh.monopole_phi(ghc, x), xs, _GH_SCHEME))


def _gh_harmonic(rng, cfg: RunConfig) -> np.ndarray:
    ghc = gh.GHConfig(centers=cfg.centers)  # without c: see _MAX_GH_C
    fields = (
        ScalarField(lambda x: gh.gh_potential(ghc, x), 3, clearance=gh.chart_clearance),
        ScalarField(lambda x: gh.monopole_phi(ghc, x), 3, clearance=gh.chart_clearance),
    )
    xs = _gh_points(ghc, cfg.samples, rng)
    return np.abs([laplacian(f, xs, _GH_SCHEME) for f in fields])


def _gh_asd(rng, cfg: RunConfig) -> np.ndarray:
    ghc = _gh_config(cfg)
    xs = _gh_points(ghc, max(2, cfg.samples // 3), rng)
    chart = np.column_stack([xs, rng.uniform(0.0, 2 * np.pi, size=len(xs))])
    return gh.asd_residual(ghc, chart, _GH_SCHEME)


def _gh_periods(rng, cfg: RunConfig):
    ghc = _gh_config(cfg)
    measured = [gh.sphere_period(ghc, i) for i in range(1, ghc.num_centers)]
    gaps = [abs(m - 2.0 * np.pi * s) / (2.0 * np.pi * s) for m, s in zip(measured, ghc.spacings)]
    return gaps, "periods: " + ", ".join("%.12g" % v for v in measured)


def _gh_lift(rng, cfg: RunConfig) -> np.ndarray:
    ghc = _gh_config(cfg)
    return gh.lift_identity_residual(ghc, _gh_points(ghc, cfg.samples, rng))


def _gh_segments(rng, cfg: RunConfig) -> np.ndarray:
    """Four axis points per open segment, 5% to 95% of the way along it, segment by segment."""
    ghc = _gh_config(cfg)
    edges = np.array([ghc.centers[0] - 1.5, *ghc.centers, ghc.centers[-1] + 1.5])
    lo, hi = edges[:-1, None], edges[1:, None]
    x1 = lo + rng.uniform(0.05, 0.95, size=(len(lo), 4)) * (hi - lo)
    x = np.column_stack([x1.ravel(), np.zeros((x1.size, 2))])
    f = gh.rotation_lift_f(ghc, x).reshape(x1.shape)
    return np.abs(f - np.array(gh.f_segment_values(ghc))[:, None])


def _even_unit_centers(cfg: RunConfig) -> bool:
    """2m centres (all of unit weight in a RunConfig) and c = 0."""
    return len(cfg.centers) % 2 == 0 and cfg.c == 0.0


# -- quotient -------------------------------------------------------------------------


def eh_centers(level_value: float) -> gh.GHConfig:
    """The quarter-speed two-centre potential at level c: unit centres at x1 = +/- c/4."""
    return gh.GHConfig(centers=(-level_value / 4.0, level_value / 4.0))


#: points of the axis scan that starts the two-centre fit
_FIT_SCAN_POINTS = 256
#: most Gauss-Newton steps of the two-centre fit; on level-set samples at
#: levels 1e-3 to 40 it stops after 3 to 9
_FIT_MAX_STEPS = 50


def fit_two_centers(xs, vs):
    """Least-squares fit of V = 1/|x-a1| + 1/|x-a2| to (x, V) samples.

    Returns (|a2 - a1|, norm of the relative residuals model/V - 1 at the
    fit).  ``xs`` is (m, 3), ``vs`` (m,).

    The fit matches 1/V, the model's r1 r2 / (r1 + r2) with r_i = |x - a_i|,
    which moves by at most |da| when a centre moves by da.  Residuals of V
    itself, even relative ones, blow up at a sample close to a centre: a
    sample 3e-4 from a centre cuts a notch that narrow into the cost, and
    a fit of model/V - 1 stopped in a local minimum with the separation
    1e-3 (relative) off.

    The start uses the samples alone.  The fit has local minima, so it
    first scans centres (-a, 0, 0), (a, 0, 0) for a on a grid up to twice
    the largest |x| and starts from the grid point of least cost.
    Gauss-Newton steps on the six centre coordinates follow, each the
    least-squares solution of the linearised residuals; the first step
    that does not lower the sum of squares ends the fit, which keeps the
    best centres found.
    """
    xs = np.asarray(xs, dtype=float)
    inverse = 1.0 / np.asarray(vs, dtype=float)

    def reduced(r1, r2):
        return r1 * r2 / (r1 + r2) - inverse

    rho2 = xs[:, 1] ** 2 + xs[:, 2] ** 2  # squared distances from the x1-axis
    step = 2.0 * np.max(np.linalg.norm(xs, axis=1)) / _FIT_SCAN_POINTS
    a = step * np.arange(1, _FIT_SCAN_POINTS + 1)[:, None]
    r1 = np.sqrt((xs[:, 0] + a) ** 2 + rho2)
    r2 = np.sqrt((xs[:, 0] - a) ** 2 + rho2)
    half = a[np.argmin(np.sum(reduced(r1, r2) ** 2, axis=1)), 0]

    def linearised(centres):
        """Residuals, their (m, 6) Jacobian in the centre coordinates, and r_i (m, 2)."""
        offsets = xs[:, None, :] - centres  # x - a1, x - a2
        r = np.linalg.norm(offsets, axis=2)
        # d/da_i of r1 r2 / (r1 + r2) is -r_j^2 / ((r1 + r2)^2 r_i) (x - a_i), j the other centre
        weight = -r[:, ::-1] ** 2 / (r.sum(axis=1, keepdims=True) ** 2 * r)
        return reduced(r[:, 0], r[:, 1]), (weight[:, :, None] * offsets).reshape(-1, 6), r

    centres = np.array([[-half, 0.0, 0.0], [half, 0.0, 0.0]])
    res, jac, r = linearised(centres)
    for _ in range(_FIT_MAX_STEPS):
        trial = centres + np.linalg.lstsq(jac, -res, rcond=None)[0].reshape(2, 3)
        trial_res, trial_jac, trial_r = linearised(trial)
        if not trial_res @ trial_res < res @ res:
            break
        centres, res, jac, r = trial, trial_res, trial_jac, trial_r
    fit = np.linalg.norm((1.0 / r[:, 0] + 1.0 / r[:, 1]) * inverse - 1.0)
    return float(np.linalg.norm(centres[1] - centres[0])), float(fit)


def gh_samples(example, level_value, rng, count):
    """(xs, vs) of count level-set points of a quotient example, solved and projected as one batch.

    The seeds are standard normal draws times sqrt(c), the homothety that
    carries the level-1 set onto the level-c set, so the samples sit at the
    scale of the centres +/- c/4 at every level.
    """
    seeds = rng.standard_normal((count, example.action.dim)) * np.sqrt(level_value)
    points = qt.solve_level(example.action, qt.LevelSpec((level_value,)), seeds)
    return qt.gh_coordinates(example.residual_circle, points, scale=example.circle_scale)


def _level_points(action, rng, cfg: RunConfig):
    """samples // 4 (at least 2) points of the level set at the configured level.

    Above level 1 the standard normal seeds are scaled by sqrt(c), as in
    ``gh_samples``: the minimum-norm Newton step from a unit seed to a
    level c >> 1 overshoots, and at c = 150 left a point with |m|^2 = 17870
    whose moment roundoff, eps |m|^2, kept the chart retraction from its
    stop 1e-14 c.  Up to level 1 the seeds are unscaled.
    """
    count = max(2, cfg.samples // 4)
    seeds = rng.standard_normal((count, action.dim)) * np.sqrt(max(1.0, cfg.level))
    return qt.solve_level(action, qt.LevelSpec((cfg.level,)), seeds)


def _level_charts(rng, cfg: RunConfig) -> list:
    """The Eguchi-Hanson chart batches of ``_level_points``, shared by a row's chart functions."""
    return qt.charts(_level_points(qt.EGUCHI_HANSON.action, rng, cfg))


def _q_match(rng, cfg: RunConfig) -> np.ndarray:
    """Canonical curvature of the weight-c bundle against the descended form, at level c.

    The weight is the level c, not 1.  The map m -> sqrt(c) m carries the
    level-1 set onto the level-c set and scales the flat metric by c, so
    the quotient at level c is the level-1 quotient with metric and
    Kahler forms times c: [omega-bar_c] = c [omega-bar_1].  By
    Duistermaat-Heckman, the class of the curvature of the canonical
    (weight-1) connection of the circle bundle over the level-c quotient
    is d[omega-bar_c]/dc = [omega-bar_1] = [omega-bar_c] / c.  The
    descended form omega-bar_1 + dd^c(mu-bar / deg) is in the class
    [omega-bar_c], since the dd^c term is exact, so it is c times the
    weight-1 curvature.  Both sides are local and the homothety carries
    each to its level-1 self (the connection, an orthogonal projection,
    is scale invariant; omega-bar and mu-bar scale by c), so the factor
    holds pointwise.  The weight-c curvature is c times the weight-1
    one, since the connection form is linear in the weight; at c = 1
    this is the weight-1 bundle.
    """
    batches = _level_charts(rng, cfg)
    got = qt.canonical_bundle_curvature(batches, (cfg.level,))
    want = qt.descended_curvature(batches, qt.EGUCHI_HANSON.rotator)
    return np.abs(got - want)


def _q_type11(rng, cfg: RunConfig) -> np.ndarray:
    """Type-(1,1) residuals of the descended form against I_bar, J_bar and K_bar."""
    batches = _level_charts(rng, cfg)
    F = qt.descended_curvature(batches, qt.EGUCHI_HANSON.rotator)
    S = qt.quotient_structures(batches)
    return type11_residual(
        np.repeat(F, 3, axis=0), S.reshape((-1,) + S.shape[2:]), structure_tol=1e-4
    )


def _q_descent(rng, cfg: RunConfig) -> np.ndarray:
    batches = _level_charts(rng, cfg)
    return qt.moment_descent_residual(batches, qt.EGUCHI_HANSON.rotator)


def _q_gh_potential(rng, cfg: RunConfig) -> np.ndarray:
    xs, vs = gh_samples(qt.EGUCHI_HANSON, cfg.level, rng, cfg.samples)
    predicted = gh.gh_potential(eh_centers(cfg.level), xs)
    return np.abs(vs - predicted) / predicted


def _q_separation(rng, cfg: RunConfig) -> float:
    example = qt.EGUCHI_HANSON
    seps = []
    for value in (cfg.level, 2.0 * cfg.level):
        # the fit has six parameters: six samples fix them exactly, with no
        # redundancy to average out a poorly placed sample, so it takes twice that
        xs, vs = gh_samples(example, value, rng, max(12, cfg.samples))
        seps.append(fit_two_centers(xs, vs)[0])
    return abs(seps[1] - 2.0 * seps[0]) / seps[1]


# -- twistor --------------------------------------------------------------------------


def _twistor_samples(cfg: RunConfig, rng, count, min_mod=0.3, max_mod=1.5):
    """(z, w, zeta) of count samples as arrays (count, n), (count, n), (count,).

    z and w are standard complex normals; |zeta| is uniform on (min_mod,
    max_mod) and arg zeta on (0, 2 pi).
    """
    z, w = _complex_normals(rng, 2, count, cfg.n)
    mod, arg = rng.uniform((min_mod, 0.0), (max_mod, 2 * np.pi), size=(count, 2)).T
    return z, w, mod * np.exp(1j * arg)


def _complex_normals(rng, *shape) -> np.ndarray:
    """Standard complex normals of the given shape, Re and Im each one block of the last axis."""
    a = rng.standard_normal((*shape[:-1], 2, shape[-1]))
    return a[..., 0, :] + 1j * a[..., 1, :]


def _tw_pair(rng, cfg: RunConfig) -> np.ndarray:
    z, w, zeta = _twistor_samples(cfg, rng, cfg.samples)
    v, xi = tw.product_to_chart(z, w, zeta)
    tangents = _complex_normals(rng, cfg.samples, 2 * cfg.n + 1)
    return tw.connection_pair_residual(v, xi, zeta, tangents)


def _tw_invariance(rng, cfg: RunConfig) -> np.ndarray:
    z, w, zeta = _twistor_samples(cfg, rng, cfg.samples)
    v, xi = tw.product_to_chart(z, w, zeta)
    tangents = _complex_normals(rng, cfg.samples, 2 * cfg.n + 1)
    return tw.action_invariance_residual(_rotation(cfg, 1), v, xi, zeta, tangents)


def _tw_restriction(rng, cfg: RunConfig) -> np.ndarray:
    samples = _twistor_samples(cfg, rng, cfg.samples)
    s, t = np.split(rng.standard_normal((cfg.samples, 8 * cfg.n)), 2, axis=1)
    return tw.fibre_restriction_residual(*samples, s, t)


def _tw_residue(rng, cfg: RunConfig) -> np.ndarray:
    count = max(2, cfg.samples // 2)
    z, w, _ = _twistor_samples(cfg, rng, count)
    m_tangents = rng.standard_normal((count, 4 * cfg.n))
    return tw.residue_match_residual(z, w, m_tangents)


def _tw_rotation_residue(rng, cfg: RunConfig) -> list:
    d_zeta = np.zeros((1, 2 * cfg.n + 1), dtype=complex)
    d_zeta[:, -1] = 1.0
    gaps = []
    for n_char in (1, 2, 5):
        got = tw.connection_residue(n_char, *_complex_normals(rng, 2, 1, cfg.n), d_zeta)
        gaps.append(np.abs(got - 2j * np.pi * n_char))
    return gaps


def _tw_pole_orders(rng, cfg: RunConfig) -> float:
    v, xi = _complex_normals(rng, 2, 1, cfg.n)
    zero, infinity = tw.pole_orders(2, v, xi, _complex_normals(rng, 1, 2 * cfg.n + 1))
    return abs(zero - 1) + abs(infinity - 1)


def _tw_hermitian(rng, cfg: RunConfig) -> np.ndarray:
    samples = _twistor_samples(cfg, rng, max(2, cfg.samples // 4))
    return tw.hermitian_curvature_residual(*samples)


def _tw_reality(rng, cfg: RunConfig) -> np.ndarray:
    return tw.reality_residual(*_twistor_samples(cfg, rng, cfg.samples))


def _tw_closedness(rng, cfg: RunConfig) -> np.ndarray:
    count = max(2, cfg.samples // 4)
    samples = _twistor_samples(cfg, rng, count, min_mod=0.7, max_mod=1.3)
    return tw.fz_closedness_residual(*samples)


# -- Dynkin / McKay -------------------------------------------------------------------


def _edge_violations(graph, signs) -> int:
    return sum(1 for i, j in graph.edges if signs[i] * signs[j] != -1)


def _dk_a_series(rng, cfg: RunConfig) -> float:
    bad = 0
    for k in range(1, 10):
        graph = dk.extended_diagram("A", k)
        signs = dk.dynkin_signs(graph)
        if k % 2 == 1:
            if signs is None or _edge_violations(graph, signs):
                bad += 1
        elif signs is not None:
            bad += 1
    return float(bad)


def _dk_de_series(rng, cfg: RunConfig) -> float:
    bad = 0
    for kind, k in [("D", k) for k in range(4, 9)] + [("E6", None), ("E7", None), ("E8", None)]:
        graph = dk.extended_diagram(kind, k)
        signs = dk.dynkin_signs(graph)
        if signs is None or _edge_violations(graph, signs):
            bad += 1
    return float(bad)


#: diagrams whose McKay marks are summed: both parities of A_k and D_k, and E6-E8
_MCKAY_DIAGRAMS = (
    *(("A", k) for k in (1, 2, 4, 5)),
    *(("D", k) for k in (4, 6, 7, 8)),
    *((label, None) for label in ("E6", "E7", "E8")),
)


def _dk_mckay(rng, cfg: RunConfig) -> list:
    return [
        abs(sum(d * d for d in dk.mckay_dims(kind, k)) - dk.gamma_order(kind, k))
        for kind, k in _MCKAY_DIAGRAMS
    ]


def _dk_quiver_a1(rng, cfg: RunConfig) -> float:
    """The A_1 quiver dimension, counted by ``dk.quiver_dim`` and by the action that
    ``qt.LinearAction.from_quiver`` builds (complex dimension dim / 2)."""
    graph = dk.extended_diagram("A", 1)
    action = qt.LinearAction.from_quiver(graph)
    return float(abs(dk.quiver_dim(graph) - 4) + abs(action.dim // 2 - 4))


# -- the table ------------------------------------------------------------------------


_TYPE11_ANCHOR = "F = omega1 + dd^c(mu/deg) satisfies S^T F S = F for S in {I, J, K}; weights "
_MIDDLE_GAP_NOTE = (
    "zero segment is entry k/2 of the (k+1)-long segment-value tuple, i.e. the open gap "
    "between centres k/2 and k/2+1; one-based gap numbering names it gap k/2, not k/2+1"
)

#: every check in report order: suites in SUITE_NAMES order, rows within a suite
CHECKS = (
    Check(
        "flat.curvature.type11.semifree", _TYPE11_ANCHOR + "(0,1)", 1e-8,
        lambda rng, cfg: _flat_type11(rng, cfg, 0),
    ),
    Check(
        "flat.curvature.type11.full", _TYPE11_ANCHOR + "(1,1)", 1e-8,
        lambda rng, cfg: _flat_type11(rng, cfg, 1),
    ),
    Check(
        "flat.full-rotation.trivial", "omega1 + dd^c(mu/2) = 0 for the weight-(1,1) rotation",
        1e-9, _flat_full_norm,
    ),
    Check(
        "flat.rotation.degree",
        "pullback of omega2 + i omega3 under the angle-theta rotation "
        "equals e^{i n theta} (omega2 + i omega3)",
        1e-12,
        lambda rng, cfg: [fs.rotation_degree_check(_rotation(cfg, k)) for k in (0, 1)],
    ),
    Check(
        "flat.ddc.calibration", "dd^c(|z|^2 / 2) = 2 dx ^ dy in one flat plane", 1e-8,
        _flat_calibration,
    ),
    Check(
        "bg.profile.identity", "(u f(u))' = (sqrt(1+u) - 1) / (2u)", 1e-7,
        lambda rng, cfg: ct.fu_identity_residual(np.logspace(-3, 1, 200)),
    ),
    Check(
        "bg.moment.scaling", "mu(v) = d/d lambda h(lambda^{-1} v) at lambda = 1", 1e-7,
        lambda rng, cfg: ct.bg_scaling_residual(_cotangent_points(rng, cfg.samples)),
    ),
    Check(
        "bg.moment.contraction", "mu = -i_X d^c h for the fibre rotation field X", 1e-6,
        lambda rng, cfg: ct.bg_contraction_residual(
            _cotangent_points(rng, cfg.samples), _BG_SCHEME
        ),
    ),
    Check("bg.curvature.agreement", "omega1 + dd^c mu = p*omega + dd^c k", 1e-5, _bg_agreement),
    Check(
        "bg.structure.quaternionic", "J^2 = -Id for J = -g^{-1} omega2 with g from (omega1, I)",
        1e-6, _bg_quaternionic,
    ),
    Check(
        "bg.curvature.type11", "F = p*omega + dd^c k is type (1,1) for I, J and K", 1e-6,
        _bg_type11,
    ),
    Check("gh.monopole.alpha", "d alpha = *dV", 1e-6, _gh_alpha),
    Check("gh.monopole.pair", "dA = *d phi", 1e-6, _gh_pair),
    Check("gh.harmonic", "Delta V = 0 and Delta phi = 0 away from the centres", 1e-6, _gh_harmonic),
    Check("gh.connection.asd", "*_4 dA-hat = -dA-hat (anti-self-dual curvature)", 1e-5, _gh_asd),
    Check(
        "gh.periods", "integral of omega1 over the segment sphere S_i = 2 pi (a_{i+1} - a_i)",
        1e-6, _gh_periods, when=lambda cfg: len(cfg.centers) >= 2,
    ),
    Check(
        "gh.lift.identity", "df = -i_X(*dV) for the axis rotation X = x2 d3 - x3 d2", 1e-10,
        _gh_lift,
    ),
    Check("gh.lift.segments", "f is exactly constant on each open axis segment", 0.0, _gh_segments),
    Check(
        "gh.lift.middle-segment", "with 2m unit centres and c = 0, f = 0 on the middle gap", 0.0,
        lambda rng, cfg: (
            abs(gh.f_segment_values(_gh_config(cfg))[len(cfg.centers) // 2]), _MIDDLE_GAP_NOTE
        ),
        when=_even_unit_centers,
    ),
    Check(
        "quotient.curvature.match",
        "curvature of the canonical quotient connection = omega-bar_1 + dd^c(mu-bar / deg)",
        1e-5, _q_match,
    ),
    Check(
        "quotient.curvature.type11", "descended curvature is type (1,1) for I-bar, J-bar, K-bar",
        1e-5, _q_type11,
    ),
    Check(
        "quotient.moment.descent", "d mu-bar = i_{X-bar} omega-bar_1 on the quotient chart",
        1e-7, _q_descent,
    ),
    Check(
        "quotient.gh.potential",
        "V = 1/|x - a_1| + 1/|x - a_2| for the quarter-speed residual circle", 1e-5,
        _q_gh_potential,
    ),
    Check(
        "quotient.gh.separation", "fitted centre separation |a_2 - a_1| is linear in the level c",
        1e-4, _q_separation,
    ),
    Check("twistor.pair.exact", "A_V - A_U = -d(v.xi / 2 zeta)", 1e-12, _tw_pair),
    Check(
        "twistor.rotation.invariance", "i_V F_Z = 0 for the lifted weight-(1,1) rotation",
        1e-10, _tw_invariance,
    ),
    Check(
        "twistor.fibre.restriction",
        "F_Z on a fibre = -2i [ (omega2 + i omega3)/(2i zeta) + omega1 "
        "+ zeta (omega2 - i omega3)/(2i) ]",
        1e-10, _tw_restriction,
    ),
    Check(
        "twistor.residue.fibre", "res_{zeta=0} A along the fibre = -i_X(omega2 + i omega3) / 2i",
        1e-10, _tw_residue,
    ),
    Check(
        "twistor.residue.rotation",
        "(1 / 2 pi i) contour integral of A around zeta = 0 equals 2 pi i n", 1e-10,
        _tw_rotation_residue,
    ),
    Check(
        "twistor.pole.orders",
        "the meromorphic connection has simple poles at zeta = 0 and infinity", 0.0,
        _tw_pole_orders,
    ),
    Check(
        "twistor.hermitian.curvature",
        "dd^{c_Z} log h_U = 2 (sum_z dx^dy - sum_w dx^dy) at every zeta", 1e-6, _tw_hermitian,
    ),
    Check("twistor.reality", "log h_V after the antipodal flip = -log h_U", 1e-12, _tw_reality),
    Check("twistor.closedness", "dF_Z = 0", 1e-10, _tw_closedness),
    Check(
        "dynkin.signs.a-series",
        "c_i c_j = -1 is solvable on the extended A_k cycle iff k is odd", 0.0, _dk_a_series,
    ),
    Check(
        "dynkin.signs.de-series",
        "c_i c_j = -1 is always solvable on extended D_k (4..8), E6, E7, E8", 0.0,
        _dk_de_series,
    ),
    Check("dynkin.mckay.order", "sum of d_i^2 over the marks equals |Gamma|", 0.0, _dk_mckay),
    Check(
        "dynkin.quiver.a1", "the extended A_1 quiver space has complex dimension 4", 0.0,
        _dk_quiver_a1,
    ),
)


# -- running rows ---------------------------------------------------------------------


def _rows(cfg: RunConfig, names) -> list:
    """The rows of the named suites that apply to ``cfg``, in table order."""
    return [c for c in CHECKS if c.suite in names and (c.when is None or c.when(cfg))]


def _suite_names(cfg: RunConfig) -> tuple:
    return SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)


def run_check(cfg: RunConfig, check_id: str) -> CheckRecord:
    """Run the check ``check_id``, one of the rows ``cfg`` selects.

    The record equals that check's record in ``run_suite(cfg)``.
    """
    for check in _rows(cfg, _suite_names(cfg)):
        if check.id == check_id:
            return _run(cfg, check)
    raise ConfigError(f"no check {check_id!r} runs in suite {cfg.suite!r} with this configuration")


def suite_flat(cfg: RunConfig) -> list:
    return [_run(cfg, c) for c in _rows(cfg, ("flat",))]


def suite_cotangent(cfg: RunConfig) -> list:
    return [_run(cfg, c) for c in _rows(cfg, ("cotangent",))]


def suite_gh(cfg: RunConfig) -> list:
    return [_run(cfg, c) for c in _rows(cfg, ("gh",))]


def suite_quotient(cfg: RunConfig) -> list:
    return [_run(cfg, c) for c in _rows(cfg, ("quotient",))]


def suite_twistor(cfg: RunConfig) -> list:
    return [_run(cfg, c) for c in _rows(cfg, ("twistor",))]


def suite_dynkin(cfg: RunConfig) -> list:
    return [_run(cfg, c) for c in _rows(cfg, ("dynkin",))]


# The per-suite entry points stay separate functions, so each suite's run
# time is one span for a tracer that wraps the module's functions.
_SUITE_BUILDERS = {
    "flat": suite_flat,
    "cotangent": suite_cotangent,
    "gh": suite_gh,
    "quotient": suite_quotient,
    "twistor": suite_twistor,
    "dynkin": suite_dynkin,
}


def run_suite(cfg: RunConfig) -> Report:
    """Execute the configured suite(s) and assemble the report."""
    records = []
    for name in _suite_names(cfg):
        records.extend(_SUITE_BUILDERS[name](cfg))
    return Report(
        suite=cfg.suite, seed=cfg.seed, params=cfg.params_dict(), records=records
    )
