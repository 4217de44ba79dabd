"""Acceptance gate: one test per advertised guarantee, one verdict line each.

Every test prints exactly one ``[criterion NN] PASS/FAIL`` line with the
measured number next to its bound, then asserts.  Tolerances and sample
counts are part of the contract; do not loosen them here.

Most criteria read the records of the suite checks that define them
(``hkgeom.suites.CHECKS``), run at a configuration with at least the
criterion's sample count.  Criteria 5, 7 and 9 keep their own loops: no
run configuration expresses the near-zero-section domain, the wider axis
edges with a four-centre set, or the fit residual.
"""

import math

import numpy as np

from hkgeom import suites
from hkgeom.cotangent import (
    CotangentPoint,
    bg_curvature,
    bg_quaternionic_residual,
    bg_structures,
)
from hkgeom.forms import FDScheme, type11_residual
from hkgeom.gibbonshawking import GHConfig, f_segment_values, rotation_lift_f
from hkgeom.quotient import EGUCHI_HANSON
from hkgeom.suites import RunConfig, fit_two_centers, run_check


def _residuals(*check_ids, **config):
    """Residual of each named check under RunConfig(**config); an errored check reads inf."""
    cfg = RunConfig(**config)
    out = []
    for check_id in check_ids:
        rec = run_check(cfg, check_id)
        out.append(math.inf if rec.residual is None else rec.residual)
    return out


def _verdict(num: int, label: str, value: float, bound: float):
    ok = value < bound
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: "
          f"max residual {value:.3e} vs bound {bound:.0e}")
    assert ok


def _exact(num: int, label: str, violations):
    ok = violations == 0
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: "
          f"{violations:g} violations")
    assert ok


def _bounded(num: int, label: str, parts):
    """One verdict over (name, value, bound) parts; every value must sit below its bound."""
    ok = all(value < bound for _, value, bound in parts)
    body = ", ".join(f"{name} {value:.3e} vs {bound:.0e}" for name, value, bound in parts)
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: {body}")
    assert ok


# -- 1: invariant curvature is (1,1) for the whole structure sphere --------------------


def test_criterion_01_type11_for_both_weightings():
    worst = max(_residuals("flat.curvature.type11.semifree", "flat.curvature.type11.full",
                           suite="flat", n=2, samples=100))
    _verdict(1, "weights (0,1) and (1,1): S^T F S = F for S in {I, J, K}", worst, 1e-8)


# -- 2: the full rotation carries the trivial bundle -----------------------------------


def test_criterion_02_full_rotation_curvature_vanishes():
    (worst,) = _residuals("flat.full-rotation.trivial", suite="flat", n=2, samples=100)
    _verdict(2, "F = 0 identically for the weight-(1,1) rotation", worst, 1e-9)


# -- 3: the radial profile solves its defining identity --------------------------------


def test_criterion_03_profile_identity_on_log_grid():
    (worst,) = _residuals("bg.profile.identity", suite="cotangent")
    _verdict(3, "(u f(u))' = (sqrt(1+u) - 1)/(2u) on 200 log-spaced u", worst, 1e-7)


# -- 4: moment map of the fibre rotation, two ways, and one curvature ------------------


def test_criterion_04_moment_map_and_curvature_agreement():
    scale, contract, curv = _residuals(
        "bg.moment.scaling", "bg.moment.contraction", "bg.curvature.agreement",
        suite="cotangent", samples=50,
    )
    _bounded(4, "moment map two ways and curvature agreement",
             [("scaling", scale, 1e-7), ("contraction", contract, 1e-6),
              ("curvature", curv, 1e-5)])


# -- 5: reconstructed quaternionic triple near the zero section ------------------------


def test_criterion_05_reconstruction_near_zero_section():
    rng = np.random.default_rng(105)
    scheme = FDScheme(h=1e-3, order=4)
    # the suite's draw (b in [-0.8, 0.8]^2, v kept off zero) with v in [-0.3, 0.3]^2
    bound = np.array([0.8, 0.8, 0.3, 0.3])
    x = rng.uniform(-bound, bound, size=(8, 4))
    b, v = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]
    pts = CotangentPoint(b, np.where(np.abs(v) < 0.05, v + (0.1 + 0.1j), v))
    structures, F = bg_structures(pts, scheme), bg_curvature(pts, scheme)
    residuals = [bg_quaternionic_residual(structures[1])]
    residuals += [type11_residual(F, S, structure_tol=1e-4) for S in structures]
    worst = float(np.max(residuals))
    _verdict(5, "||J^2 + Id|| and (1,1) for I, J, K near the zero section",
             worst, 1e-6)


# -- 6: multi-centre monopole system --------------------------------------------------


def test_criterion_06_gh_monopole_system():
    ids = ("gh.monopole.alpha", "gh.monopole.pair", "gh.harmonic", "gh.connection.asd",
           "gh.periods")
    worst = np.max([_residuals(*ids, suite="gh", samples=12, centers=centers)
                    for centers in ((0.0, 1.0), (0.0, 1.0, 3.0))], axis=0)
    _bounded(6, "monopole system on {0,1} and {0,1,3}",
             [("d-pairs", max(worst[0], worst[1]), 1e-6), ("harmonic", worst[2], 1e-6),
              ("anti-self-dual", worst[3], 1e-5), ("periods (rel)", worst[4], 1e-6)])


# -- 7: the lift function is piecewise exactly constant on the axis --------------------


def test_criterion_07_lift_exact_segment_constancy():
    rng = np.random.default_rng(107)
    violations = 0
    for centers in ((0.0, 1.0), (0.0, 1.0, 3.0), (-1.0, 0.0, 1.0, 2.0)):
        cfg = GHConfig(centers=centers)
        values = f_segment_values(cfg)
        edges = (cfg.centers[0] - 2.0, *cfg.centers, cfg.centers[-1] + 2.0)
        for j, expected in enumerate(values):
            lo, hi = edges[j], edges[j + 1]
            x1 = lo + rng.uniform(0.02, 0.98, size=6) * (hi - lo)
            f = rotation_lift_f(cfg, np.column_stack([x1, 0 * x1, 0 * x1]))
            violations += int(np.sum(f != expected))
        if cfg.num_centers % 2 == 0:
            mid = values[cfg.num_centers // 2]
            if mid != 0.0:
                violations += 1
    print("[criterion 07] note: with 2m centres and c = 0 the vanishing "
          "value is segment-tuple entry m (the open gap between centres m "
          "and m+1); 1-based gap numbering names it gap m, not m+1")
    _exact(7, "f exactly constant per open segment; middle value 0 for 2m "
              "centres with c = 0", violations)


# -- 8: quotient fixture curvature, two constructions ----------------------------------


def test_criterion_08_quotient_curvature_match_and_type11():
    worst = max(_residuals("quotient.curvature.match", "quotient.curvature.type11",
                           suite="quotient", samples=120))
    _verdict(8, "canonical-connection curvature = omega-bar_1 + dd^c(mu-bar/deg), "
                "descended curvature type (1,1), 30 samples", worst, 1e-5)


# -- 9: the quotient is the two-centre geometry ----------------------------------------


def test_criterion_09_gh_model_recovery():
    rng = np.random.default_rng(109)
    seps = []
    worst_fit = 0.0
    for c in (1.0, 2.0):
        xs, vs = suites.gh_samples(EGUCHI_HANSON, c, rng, 40)
        sep, resid = fit_two_centers(xs, vs)
        seps.append(sep)
        worst_fit = max(worst_fit, resid)
    linearity = abs(seps[1] - 2.0 * seps[0]) / seps[1]
    _bounded(9, "V = sum 1/|x - a_i| recovery",
             [("least-squares residual", worst_fit, 1e-5),
              ("separation linearity (rel)", linearity, 1e-4)])


# -- 10: sign assignments on the extended diagrams -------------------------------------


def test_criterion_10_diagram_sign_solvability():
    violations = sum(_residuals("dynkin.signs.a-series", "dynkin.signs.de-series",
                                suite="dynkin"))
    _exact(10, "signs solvable on extended A_k iff k odd, always on D/E, "
               "with c_i c_j = -1 exactly", violations)


# -- 11: twistor-family identities ------------------------------------------------------


def test_criterion_11_twistor_identities():
    pair, inv, restrict, residue, rotation, hermitian = _residuals(
        "twistor.pair.exact", "twistor.rotation.invariance", "twistor.fibre.restriction",
        "twistor.residue.fibre", "twistor.residue.rotation", "twistor.hermitian.curvature",
        suite="twistor", n=2, samples=32,
    )
    _bounded(11, "twistor identities",
             [("pair", pair, 1e-12), ("invariance", inv, 1e-10),
              ("restriction", restrict, 1e-10), ("residues", max(residue, rotation), 1e-10),
              ("curvature of log h_U", hermitian, 1e-6)])


# -- 12: representation dimensions against the group orders ----------------------------


def test_criterion_12_mckay_marks_and_quiver_dimension():
    violations = sum(_residuals("dynkin.mckay.order", "dynkin.quiver.a1", suite="dynkin"))
    _exact(12, "sum d_i^2 = |Gamma| on every diagram and quiver dim(A_1) = 4",
           violations)
