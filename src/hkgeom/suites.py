"""Named verification suites over the library's analytic identities.

Each suite turns one module's invariants into :class:`CheckRecord` rows:
a stable check id, the identity under test written out as a formula
string, the measured residual, and the tolerance it is held to.  All
sampling is driven by one seeded generator consumed in a fixed order, so
a fixed :class:`RunConfig` reproduces its report byte for byte.

Suite names: ``flat``, ``cotangent`` (alias ``bg``), ``gh``,
``quotient``, ``twistor``, ``dynkin``, and ``all``.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np
from scipy.optimize import least_squares, minimize_scalar

from . import cotangent as ct
from . import dynkin as dk
from . import flatspace as fs
from . import gibbonshawking as gh
from . import quotient as qt
from . import twistor as tw
from .errors import ConfigError, HkgeomError
from .forms import (
    FDScheme,
    FormField,
    FormValue,
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


# -- run configuration ----------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Everything a suite run depends on; fixed seed means fixed report."""

    suite: str = "all"
    n: int = 2
    samples: int = 20
    seed: int = 0
    tol: float | None = None
    h: float | None = None
    order: int | None = None
    centers: tuple = (0.0, 1.0)
    c: float = 0.0
    nodes: int = tw.CONTOUR_NODES
    out: str | None = None
    timings: bool = False

    def __post_init__(self):
        name = SUITE_ALIASES.get(self.suite, self.suite)
        if name != "all" and name not in SUITE_NAMES:
            raise ConfigError(f"unknown suite {self.suite!r}")
        object.__setattr__(self, "suite", name)
        object.__setattr__(self, "centers", tuple(float(a) for a in self.centers))
        if self.n < 1:
            raise ConfigError("n must be a positive integer")
        if self.samples < 1:
            raise ConfigError("samples must be a positive integer")
        if self.tol is not None and self.tol < 0:
            raise ConfigError("tol must be nonnegative")
        if self.h is not None and self.h <= 0:
            raise ConfigError("h must be positive")
        if self.order is not None and self.order not in (2, 4):
            raise ConfigError("order must be 2 or 4")
        if self.nodes < 8:
            raise ConfigError("need at least 8 contour nodes")

    def scheme(self, default: FDScheme) -> FDScheme:
        """The configured FD scheme, falling back per-field to ``default``."""
        return FDScheme(
            h=self.h if self.h is not None else default.h,
            order=self.order if self.order is not None else default.order,
        )

    def params_dict(self) -> dict:
        return {
            "n": self.n,
            "samples": self.samples,
            "tol": self.tol,
            "h": self.h,
            "order": self.order,
            "centers": list(self.centers),
            "c": self.c,
            "nodes": self.nodes,
        }


#: exceptions a residual may raise on bad numerics rather than bad code
_NUMERICAL_ERRORS = (HkgeomError, np.linalg.LinAlgError, FloatingPointError)


def _check(cfg: RunConfig, check_id, anchor, tol, fn, detail="") -> CheckRecord:
    """Run one residual functional; numerical failures count as FAIL.

    ``fn`` returns the residual, or (residual, detail) when the detail
    text comes from the same computation.  A package error, a singular
    linear solve or a floating-point trap is recorded with residual None;
    any other exception is a programming error and propagates.
    """
    tolerance = cfg.tol if cfg.tol is not None else tol
    start = time.perf_counter()
    try:
        out = fn()
        if isinstance(out, tuple):
            out, detail = out
        residual = float(out)
    except _NUMERICAL_ERRORS as exc:  # recorded, not raised: exit code 1 via the report
        wall = time.perf_counter() - start
        note = f"{type(exc).__name__}: {exc}"
        return CheckRecord(check_id, anchor, None, tolerance, False, note, wall)
    wall = time.perf_counter() - start
    passed = bool(residual <= tolerance)
    return CheckRecord(check_id, anchor, residual, tolerance, passed, detail, wall)


# -- flat model -----------------------------------------------------------------------


def _flat_points(cfg: RunConfig, rng, count):
    return [rng.uniform(-1.5, 1.5, size=4 * cfg.n) for _ in range(count)]


def suite_flat(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    model = fs.FlatModel(cfg.n)
    semi = fs.CircleActionSpec(k=(0,) * cfg.n, l=(1,) * cfg.n)
    full = fs.CircleActionSpec(k=(1,) * cfg.n, l=(1,) * cfg.n)
    # Every flat field here is quadratic, so the nested 4th-order dd^c
    # stencil has no truncation error and its error is roundoff alone:
    # each level's weights (1, 8, 8, 1) / 12h sum to 1.5/h, giving about
    # (1.5/h)^2 eps max|mu| = 2.25 eps max|mu| / h^2.  With max|mu| up
    # to ~7 at n = 3 that is ~3e-9 at h = 1e-3, over the 1e-9 bound of
    # flat.full-rotation.trivial, and ~3e-11 at h = 1e-2.
    scheme = cfg.scheme(FDScheme(h=1e-2, order=4))
    structures = model.structures()

    def type11_worst(spec):
        pts = _flat_points(cfg, rng, cfg.samples)
        worst = 0.0
        for p in pts:
            F = fs.hyperholo_curvature(spec, p, scheme)
            worst = max(worst, max(type11_residual(F, S) for S in structures))
        return worst

    def full_norm():
        worst = 0.0
        for p in _flat_points(cfg, rng, cfg.samples):
            F = fs.hyperholo_curvature(full, p, scheme)
            worst = max(worst, float(np.max(np.abs(F.comps))))
        return worst

    def calibration():
        flat1 = fs.FlatModel(1)
        f = ScalarField(lambda p: 0.5 * (p[0] ** 2 + p[1] ** 2), dim=4)
        expected = FormValue.from_dict(2, 4, {(0, 1): 2.0})
        worst = 0.0
        for _ in range(5):
            p = rng.uniform(-1.5, 1.5, size=4)
            got = ddc(f, flat1.I, p, scheme)
            worst = max(worst, float(np.max(np.abs((got - expected).comps))))
        return worst

    return [
        _check(
            cfg,
            "flat.curvature.type11.semifree",
            "F = omega1 + dd^c(mu/deg) satisfies S^T F S = F for S in {I, J, K}; "
            "weights (0,1)",
            1e-8,
            lambda: type11_worst(semi),
        ),
        _check(
            cfg,
            "flat.curvature.type11.full",
            "F = omega1 + dd^c(mu/deg) satisfies S^T F S = F for S in {I, J, K}; "
            "weights (1,1)",
            1e-8,
            lambda: type11_worst(full),
        ),
        _check(
            cfg,
            "flat.full-rotation.trivial",
            "omega1 + dd^c(mu/2) = 0 for the weight-(1,1) rotation",
            1e-9,
            full_norm,
        ),
        _check(
            cfg,
            "flat.rotation.degree",
            "pullback of omega2 + i omega3 under the angle-theta rotation "
            "equals e^{i n theta} (omega2 + i omega3)",
            1e-12,
            lambda: max(fs.rotation_degree_check(semi), fs.rotation_degree_check(full)),
        ),
        _check(
            cfg,
            "flat.ddc.calibration",
            "dd^c(|z|^2 / 2) = 2 dx ^ dy in one flat plane",
            1e-8,
            calibration,
        ),
    ]


# -- cotangent model ------------------------------------------------------------------


def _cotangent_points(rng, count, b_max=0.8, v_max=0.8):
    pts = []
    for _ in range(count):
        b = complex(*rng.uniform(-b_max, b_max, 2))
        v = complex(*rng.uniform(-v_max, v_max, 2))
        if abs(v) < 0.05:
            v += 0.1 + 0.1j
        pts.append(ct.CotangentPoint(b, v))
    return pts


def suite_cotangent(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    model = ct.cp1_model()
    scheme = cfg.scheme(FDScheme(h=1e-3, order=4))
    pts = _cotangent_points(rng, cfg.samples)
    grid = np.logspace(-3, 1, 200)

    def moment_worst(index):
        return max(ct.bg_moment_residuals(model, pt, scheme)[index] for pt in pts)

    def reconstruction_worst(key_filter):
        count = max(2, cfg.samples // 4)
        worst = 0.0
        for pt in pts[:count]:
            out = ct.bg_hyperkahler_check(model, pt, scheme)
            worst = max(worst, max(v for k, v in out.items() if key_filter(k)))
        return worst

    return [
        _check(
            cfg,
            "bg.profile.identity",
            "(u f(u))' = (sqrt(1+u) - 1) / (2u)",
            1e-7,
            lambda: ct.fu_identity_residual(grid),
        ),
        _check(
            cfg,
            "bg.moment.scaling",
            "mu(v) = d/d lambda h(lambda^{-1} v) at lambda = 1",
            1e-7,
            lambda: moment_worst(0),
        ),
        _check(
            cfg,
            "bg.moment.contraction",
            "mu = -i_X d^c h for the fibre rotation field X",
            1e-6,
            lambda: moment_worst(1),
        ),
        _check(
            cfg,
            "bg.curvature.agreement",
            "omega1 + dd^c mu = p*omega + dd^c k",
            1e-5,
            lambda: max(ct.bg_curvature_residual(model, pt, scheme) for pt in pts),
        ),
        _check(
            cfg,
            "bg.structure.quaternionic",
            "J^2 = -Id for J = -g^{-1} omega2 with g from (omega1, I)",
            1e-6,
            lambda: reconstruction_worst(lambda k: k == "J2"),
        ),
        _check(
            cfg,
            "bg.curvature.type11",
            "F = p*omega + dd^c k is type (1,1) for I, J and K",
            1e-6,
            lambda: reconstruction_worst(lambda k: k.startswith("type11")),
        ),
    ]


# -- Gibbons-Hawking ------------------------------------------------------------------


def _gh_points(ghc, count, rng, min_clear=0.4, box=2.5):
    clear = gh.chart_clearance(ghc)
    pts = []
    while len(pts) < count:
        x = rng.uniform(-box, box, size=3)
        x[0] = rng.uniform(ghc.centers[0] - 1.5, ghc.centers[-1] + 1.5)
        if clear(np.array([*x, 0.0])) > min_clear:
            pts.append(x)
    return pts


def suite_gh(cfg: RunConfig):
    if len(cfg.centers) < 1:
        raise ConfigError("gh suite needs at least one centre")
    rng = np.random.default_rng(cfg.seed)
    ghc = gh.GHConfig(centers=cfg.centers, c=cfg.c)
    scheme = cfg.scheme(FDScheme(h=1e-3, order=4))
    pts = _gh_points(ghc, cfg.samples, rng)

    def clearance(x):
        return gh.chart_clearance(ghc)(np.array([*x, 0.0]))

    def alpha_residual():
        field = FormField(
            lambda x: gh.gh_alpha(ghc, gh.GHPoint(tuple(x), 0.0, "string-down")),
            1,
            3,
            clearance=clearance,
        )
        worst = 0.0
        for x in pts:
            dalpha = ext_deriv(field, x, scheme)
            dv = FormValue(1, 3, gh.potential_gradient(ghc, x))
            worst = max(
                worst, float(np.max(np.abs((dalpha - hodge_star(np.eye(3), 1, dv)).comps)))
            )
        return worst

    def pair_residual():
        data = gh.MonopoleData.from_config(ghc)
        field = FormField(lambda x: data.A(x), 1, 3, clearance=clearance)
        worst = 0.0
        for x in pts:
            da = ext_deriv(field, x, scheme)
            dphi = FormValue(1, 3, fd_gradient(data.phi, x, scheme))
            worst = max(
                worst, float(np.max(np.abs((da - hodge_star(np.eye(3), 1, dphi)).comps)))
            )
        return worst

    def harmonic_residual():
        v_field = ScalarField(lambda x: gh.gh_potential(ghc, x), 3, clearance=clearance)
        p_field = ScalarField(lambda x: gh.monopole_phi(ghc, x), 3, clearance=clearance)
        worst = 0.0
        for x in pts:
            worst = max(
                worst,
                abs(laplacian(v_field, x, scheme)),
                abs(laplacian(p_field, x, scheme)),
            )
        return worst

    def asd_worst():
        count = max(2, cfg.samples // 3)
        worst = 0.0
        for x in pts[:count]:
            pt = gh.GHPoint(tuple(x), rng.uniform(0.0, 2 * np.pi))
            worst = max(worst, gh.asd_residual(ghc, pt, scheme))
        return worst

    def period_data():
        measured = [gh.sphere_period(ghc, i) for i in range(1, ghc.num_centers)]
        worst = max(
            abs(m - 2.0 * np.pi * s) / (2.0 * np.pi * s)
            for m, s in zip(measured, ghc.spacings)
        )
        return worst, "periods: " + ", ".join("%.12g" % v for v in measured)

    def segment_constancy():
        vals = gh.f_segment_values(ghc)
        edges = (ghc.centers[0] - 1.5, *ghc.centers, ghc.centers[-1] + 1.5)
        worst = 0.0
        for j, expected in enumerate(vals):
            lo, hi = edges[j], edges[j + 1]
            for t in rng.uniform(0.05, 0.95, size=4):
                x = np.array([lo + t * (hi - lo), 0.0, 0.0])
                worst = max(worst, abs(gh.rotation_lift_f(ghc, x) - expected))
        return worst

    records = [
        _check(cfg, "gh.monopole.alpha", "d alpha = *dV", 1e-6, alpha_residual),
        _check(cfg, "gh.monopole.pair", "dA = *d phi", 1e-6, pair_residual),
        _check(
            cfg,
            "gh.harmonic",
            "Delta V = 0 and Delta phi = 0 away from the centres",
            1e-6,
            harmonic_residual,
        ),
        _check(
            cfg,
            "gh.connection.asd",
            "*_4 dA-hat = -dA-hat (anti-self-dual curvature)",
            1e-5,
            asd_worst,
        ),
    ]
    if ghc.num_centers >= 2:
        records.append(
            _check(
                cfg,
                "gh.periods",
                "integral of omega1 over the segment sphere S_i = 2 pi (a_{i+1} - a_i)",
                1e-6,
                period_data,
            )
        )
    records.append(
        _check(
            cfg,
            "gh.lift.identity",
            "df = -i_X(*dV) for the axis rotation X = x2 d3 - x3 d2",
            1e-10,
            lambda: max(gh.lift_identity_residual(ghc, x) for x in pts),
        )
    )
    records.append(
        _check(
            cfg,
            "gh.lift.segments",
            "f is exactly constant on each open axis segment",
            0.0,
            segment_constancy,
        )
    )
    k = ghc.num_centers
    if k % 2 == 0 and ghc.c == 0.0 and all(w == 1.0 for w in ghc.weights):
        records.append(
            _check(
                cfg,
                "gh.lift.middle-segment",
                "with 2m unit centres and c = 0, f = 0 on the middle gap",
                0.0,
                lambda: abs(gh.f_segment_values(ghc)[k // 2]),
                detail=(
                    "zero segment is entry k/2 of the (k+1)-long segment-value "
                    "tuple, i.e. the open gap between centres k/2 and k/2+1; "
                    "one-based gap numbering names it gap k/2, not k/2+1"
                ),
            )
        )
    return records


# -- quotient -------------------------------------------------------------------------


def _quotient_level(c: float) -> float:
    """The quotient level for a configured c; c <= 0 means the default 1."""
    return c if c > 0 else 1.0


def _eh_centers(level_value: float) -> np.ndarray:
    """Centres (+/- c/4, 0, 0) of the quarter-speed two-centre potential at level c."""
    return np.array([[-level_value / 4.0, 0.0, 0.0], [level_value / 4.0, 0.0, 0.0]])


#: points of the axis scan that starts the two-centre fit
_FIT_SCAN_POINTS = 256


def fit_two_centers(xs, vs):
    """Least-squares fit of V = 1/|x-a1| + 1/|x-a2| to (x, V) samples.

    Returns (|a2 - a1|, norm of the relative residuals model/V - 1);
    relative residuals keep the samples closest to a centre, where V is
    largest, from dominating the fit.  ``xs`` is (m, 3), ``vs`` (m,).

    The start uses the samples alone.  The fit has local minima, so it
    first scans centres (-a, 0, 0), (a, 0, 0) for a on a grid up to twice
    the largest |x|, refines every local minimum of the scan in a, and
    starts the free six-parameter fit from the best of them.
    """
    xs = np.asarray(xs, dtype=float)
    vs = np.asarray(vs, dtype=float)

    def residuals(params):
        a1, a2 = params[:3], params[3:]
        model = 1.0 / np.linalg.norm(xs - a1, axis=1) + 1.0 / np.linalg.norm(xs - a2, axis=1)
        return model / vs - 1.0

    rho2 = xs[:, 1] ** 2 + xs[:, 2] ** 2  # squared distances from the x1-axis

    def axis_cost(a):
        """Sum of squared residuals for centres (-a, 0, 0), (a, 0, 0), per entry of a."""
        a = np.asarray(a, dtype=float)[..., None]
        model = 1.0 / np.sqrt((xs[:, 0] + a) ** 2 + rho2) + 1.0 / np.sqrt(
            (xs[:, 0] - a) ** 2 + rho2
        )
        return np.sum((model / vs - 1.0) ** 2, axis=-1)

    step = 2.0 * np.max(np.linalg.norm(xs, axis=1)) / _FIT_SCAN_POINTS
    grid = step * np.arange(1, _FIT_SCAN_POINTS + 1)
    cost = axis_cost(grid)
    padded = np.concatenate([[np.inf], cost, [np.inf]])
    minima = np.flatnonzero((cost <= padded[:-2]) & (cost <= padded[2:]))
    refined = [
        minimize_scalar(
            axis_cost,
            bounds=(grid[i] - step if i else 0.5 * step, grid[i] + step),
            method="bounded",
            options={"xatol": 1e-12},
        )
        for i in minima
    ]
    half = min(refined, key=lambda r: r.fun).x
    start = np.array([-half, 0.0, 0.0, half, 0.0, 0.0])
    fit = least_squares(residuals, start, xtol=1e-15, ftol=1e-15)
    separation = float(np.linalg.norm(fit.x[3:] - fit.x[:3]))
    return separation, float(np.linalg.norm(fit.fun))


def _gh_samples(action, rotator, level_value, rng, count):
    level = qt.LevelSpec((level_value,))
    xs, vs = [], []
    for _ in range(count):
        lsp = qt.solve_level(action, level, rng.standard_normal(8))
        x, v = qt.gh_coordinates(action, rotator, lsp, scale=qt.GH_CIRCLE_SCALE)
        xs.append(x)
        vs.append(v)
    return np.array(xs), np.array(vs)


def suite_quotient(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    action = qt.eguchi_hanson_action()
    rotator = qt.eh_rotator()
    residual_circle = qt.eh_residual_circle()
    level_value = _quotient_level(cfg.c)
    level = qt.LevelSpec((level_value,))
    count = max(2, cfg.samples // 4)
    lsps = [
        qt.solve_level(action, level, rng.standard_normal(8)) for _ in range(count)
    ]

    def curvature_match():
        worst = 0.0
        for lsp in lsps:
            got = qt.canonical_bundle_curvature(action, (1.0,), lsp)
            want = qt.descended_curvature(action, rotator, lsp)
            worst = max(worst, float(np.max(np.abs((got - want).comps))))
        return worst

    def curvature_type11():
        worst = 0.0
        for lsp in lsps:
            chart = qt.QuotientChart(action, lsp)
            F = qt.descended_curvature(action, rotator, lsp)
            for i in (1, 2, 3):
                S = chart.structure(np.zeros(chart.dim), i)
                worst = max(worst, type11_residual(F, S, structure_tol=1e-4))
        return worst

    def gh_potential_residual():
        xs, vs = _gh_samples(action, residual_circle, level_value, rng, cfg.samples)
        predicted = sum(1.0 / np.linalg.norm(xs - a, axis=1) for a in _eh_centers(level_value))
        return float(np.max(np.abs(vs - predicted) / predicted))

    def separation_scaling():
        seps = []
        for value in (level_value, 2.0 * level_value):
            xs, vs = _gh_samples(action, residual_circle, value, rng, cfg.samples)
            sep, _ = fit_two_centers(xs, vs)
            seps.append(sep)
        return abs(seps[1] - 2.0 * seps[0]) / seps[1]

    return [
        _check(
            cfg,
            "quotient.curvature.match",
            "curvature of the canonical quotient connection = "
            "omega-bar_1 + dd^c(mu-bar / deg)",
            1e-5,
            curvature_match,
        ),
        _check(
            cfg,
            "quotient.curvature.type11",
            "descended curvature is type (1,1) for I-bar, J-bar, K-bar",
            1e-5,
            curvature_type11,
        ),
        _check(
            cfg,
            "quotient.moment.descent",
            "d mu-bar = i_{X-bar} omega-bar_1 on the quotient chart",
            1e-7,
            lambda: max(
                qt.moment_descent_residual(action, rotator, lsp) for lsp in lsps
            ),
        ),
        _check(
            cfg,
            "quotient.gh.potential",
            "V = 1/|x - a_1| + 1/|x - a_2| for the quarter-speed residual circle",
            1e-5,
            gh_potential_residual,
        ),
        _check(
            cfg,
            "quotient.gh.separation",
            "fitted centre separation |a_2 - a_1| is linear in the level c",
            1e-4,
            separation_scaling,
        ),
    ]


# -- twistor --------------------------------------------------------------------------


def _twistor_samples(cfg: RunConfig, rng, count, min_mod=0.3, max_mod=1.5):
    out = []
    for _ in range(count):
        z = rng.standard_normal(cfg.n) + 1j * rng.standard_normal(cfg.n)
        w = rng.standard_normal(cfg.n) + 1j * rng.standard_normal(cfg.n)
        mod = rng.uniform(min_mod, max_mod)
        arg = rng.uniform(0.0, 2 * np.pi)
        out.append((z, w, mod * np.exp(1j * arg)))
    return out


def suite_twistor(cfg: RunConfig):
    rng = np.random.default_rng(cfg.seed)
    n = cfg.n
    full = fs.CircleActionSpec(k=(1,) * n, l=(1,) * n)
    samples = _twistor_samples(cfg, rng, cfg.samples)

    def ctangent():
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def chart_tangent():
        return (ctangent(), ctangent(), complex(*rng.standard_normal(2)))

    def pair_identity():
        worst = 0.0
        for z, w, zeta in samples:
            pt = tw.product_to_chart(z, w, zeta)
            worst = max(
                worst,
                tw.connection_pair_residual(pt.v, pt.xi, pt.zeta, chart_tangent()),
            )
        return worst

    def invariance():
        worst = 0.0
        for z, w, zeta in samples:
            pt = tw.product_to_chart(z, w, zeta)
            worst = max(
                worst, tw.action_invariance_residual(full, pt, chart_tangent())
            )
        return worst

    def restriction():
        worst = 0.0
        for z, w, zeta in samples:
            s = rng.standard_normal(4 * n)
            t = rng.standard_normal(4 * n)
            worst = max(worst, tw.fibre_restriction_residual(z, w, zeta, s, t))
        return worst

    def residue():
        worst = 0.0
        count = max(2, cfg.samples // 2)
        for z, w, _ in samples[:count]:
            m_tan = rng.standard_normal(4 * n)
            worst = max(
                worst, tw.residue_match_residual(z, w, m_tan, nodes=cfg.nodes)
            )
        return worst

    def rotation_residue():
        worst = 0.0
        for n_char in (1, 2, 5):
            got = tw.rotation_residue(
                n_char, ctangent(), ctangent(), nodes=cfg.nodes
            )
            worst = max(worst, abs(got - 2j * np.pi * n_char))
        return worst

    def hermitian():
        worst = 0.0
        count = max(2, cfg.samples // 4)
        for z, w, zeta in samples[:count]:
            worst = max(worst, tw.hermitian_curvature_residual(n, z, w, zeta))
        return worst

    def reality():
        worst = 0.0
        for z, w, zeta in samples:
            worst = max(worst, tw.reality_residual(z, w, zeta))
        return worst

    def pole_orders():
        report = tw.connection_report(
            2, ctangent(), ctangent(), chart_tangent(), nodes=cfg.nodes
        )
        return abs(report.pole_order_zero - 1) + abs(report.pole_order_infinity - 1)

    def closedness():
        worst = 0.0
        count = max(2, cfg.samples // 4)
        for z, w, zeta in _twistor_samples(cfg, rng, count, min_mod=0.7, max_mod=1.3):
            worst = max(worst, tw.fz_closedness_residual(n, z, w, zeta))
        return worst

    return [
        _check(
            cfg,
            "twistor.pair.exact",
            "A_V - A_U = -d(v.xi / 2 zeta)",
            1e-12,
            pair_identity,
        ),
        _check(
            cfg,
            "twistor.rotation.invariance",
            "i_V F_Z = 0 for the lifted weight-(1,1) rotation",
            1e-10,
            invariance,
        ),
        _check(
            cfg,
            "twistor.fibre.restriction",
            "F_Z on a fibre = -2i [ (omega2 + i omega3)/(2i zeta) + omega1 "
            "+ zeta (omega2 - i omega3)/(2i) ]",
            1e-10,
            restriction,
        ),
        _check(
            cfg,
            "twistor.residue.fibre",
            "res_{zeta=0} A along the fibre = -i_X(omega2 + i omega3) / 2i",
            1e-10,
            residue,
        ),
        _check(
            cfg,
            "twistor.residue.rotation",
            "(1 / 2 pi i) contour integral of A around zeta = 0 equals 2 pi i n",
            1e-10,
            rotation_residue,
        ),
        _check(
            cfg,
            "twistor.pole.orders",
            "the meromorphic connection has simple poles at zeta = 0 and infinity",
            0.0,
            pole_orders,
        ),
        _check(
            cfg,
            "twistor.hermitian.curvature",
            "dd^{c_Z} log h_U = 2 (sum_z dx^dy - sum_w dx^dy) at every zeta",
            1e-6,
            hermitian,
        ),
        _check(
            cfg,
            "twistor.reality",
            "log h_V after the antipodal flip = -log h_U",
            1e-12,
            reality,
        ),
        _check(cfg, "twistor.closedness", "dF_Z = 0", 1e-10, closedness),
    ]


# -- Dynkin / McKay -------------------------------------------------------------------


def _edge_violations(graph, signs) -> int:
    return sum(1 for i, j in graph.edges if signs[i] * signs[j] != -1)


def suite_dynkin(cfg: RunConfig):
    def a_series():
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

    def de_series():
        bad = 0
        for kind, k in [("D", 4), ("D", 5), ("D", 6), ("D", 7), ("D", 8)] + [
            ("E6", None),
            ("E7", None),
            ("E8", None),
        ]:
            graph = dk.extended_diagram(kind, k)
            signs = dk.dynkin_signs(graph)
            if signs is None or _edge_violations(graph, signs):
                bad += 1
        return float(bad)

    def mckay():
        worst = 0
        for kind, k in [("A", 1), ("A", 4), ("D", 4), ("D", 7)] + [
            ("E6", None),
            ("E7", None),
            ("E8", None),
        ]:
            marks = dk.mckay_dims(kind, k)
            worst = max(worst, abs(sum(d * d for d in marks) - dk.gamma_order(kind, k)))
        return float(worst)

    return [
        _check(
            cfg,
            "dynkin.signs.a-series",
            "c_i c_j = -1 is solvable on the extended A_k cycle iff k is odd",
            0.0,
            a_series,
        ),
        _check(
            cfg,
            "dynkin.signs.de-series",
            "c_i c_j = -1 is always solvable on extended D_k (4..8), E6, E7, E8",
            0.0,
            de_series,
        ),
        _check(
            cfg,
            "dynkin.mckay.order",
            "sum of d_i^2 over the marks equals |Gamma|",
            0.0,
            mckay,
        ),
        _check(
            cfg,
            "dynkin.quiver.a1",
            "the extended A_1 quiver space has complex dimension 4",
            0.0,
            lambda: float(abs(dk.quiver_dim(dk.extended_diagram("A", 1)) - 4)),
        ),
    ]


# -- assembly -------------------------------------------------------------------------


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
    names = SUITE_NAMES if cfg.suite == "all" else (cfg.suite,)
    records = []
    for name in names:
        records.extend(_SUITE_BUILDERS[name](cfg))
    return Report(
        suite=cfg.suite, seed=cfg.seed, params=cfg.params_dict(), records=records
    )
