"""Acceptance gate: one test per advertised guarantee, one verdict line each.

Every test prints exactly one ``[criterion NN] PASS/FAIL`` line with the
measured number next to its bound, then asserts.  Tolerances and sample
counts are part of the contract; do not loosen them here.
"""

import numpy as np

from hkgeom.cotangent import (
    CotangentPoint,
    bg_curvature_residual,
    bg_hyperkahler_check,
    bg_moment_residuals,
    cp1_model,
    fu_identity_residual,
)
from hkgeom.dynkin import (
    dynkin_signs,
    extended_diagram,
    gamma_order,
    mckay_dims,
    quiver_dim,
)
from hkgeom.flatspace import CircleActionSpec, FlatModel, hyperholo_curvature
from hkgeom.forms import (
    FDScheme,
    FormField,
    FormValue,
    ScalarField,
    ext_deriv,
    fd_gradient,
    hodge_star,
    laplacian,
    type11_residual,
)
from hkgeom.gibbonshawking import (
    GHConfig,
    GHPoint,
    MonopoleData,
    asd_residual,
    chart_clearance,
    f_segment_values,
    gh_alpha,
    gh_potential,
    potential_gradient,
    rotation_lift_f,
    sphere_period,
)
from hkgeom.quotient import (
    GH_CIRCLE_SCALE,
    LevelSpec,
    QuotientChart,
    canonical_bundle_curvature,
    descended_curvature,
    eguchi_hanson_action,
    eh_residual_circle,
    eh_rotator,
    gh_coordinates,
    solve_level,
)
from hkgeom.suites import fit_two_centers
from hkgeom.twistor import (
    action_invariance_residual,
    connection_pair_residual,
    fibre_restriction_residual,
    hermitian_curvature_residual,
    product_to_chart,
    residue_match_residual,
    rotation_residue,
)

SCHEME = FDScheme(h=1e-3, order=4)


def _verdict(num: int, label: str, value: float, bound: float):
    ok = value < bound
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: "
          f"max residual {value:.3e} vs bound {bound:.0e}")
    assert ok


def _exact(num: int, label: str, violations: int):
    ok = violations == 0
    print(f"[criterion {num:02d}] {'PASS' if ok else 'FAIL'} {label}: "
          f"{violations} violations")
    assert ok


def _flat_points(rng, count, n=2):
    return [rng.uniform(-1.5, 1.5, size=4 * n) for _ in range(count)]


def _cotangent_points(rng, count, v_max=0.8):
    pts = []
    for _ in range(count):
        b = complex(*rng.uniform(-0.8, 0.8, 2))
        v = complex(*rng.uniform(-v_max, v_max, 2))
        if abs(v) < 0.05:
            v += 0.1 + 0.1j
        pts.append(CotangentPoint(b, v))
    return pts


def _gh_points(cfg, count, rng, min_clear=0.4):
    clear = chart_clearance(cfg)
    pts = []
    while len(pts) < count:
        x = rng.uniform(-2.5, 2.5, size=3)
        x[0] = rng.uniform(cfg.centers[0] - 1.5, cfg.centers[-1] + 1.5)
        if clear(np.array([*x, 0.0])) > min_clear:
            pts.append(x)
    return pts


# -- 1: invariant curvature is (1,1) for the whole structure sphere --------------------


def test_criterion_01_type11_for_both_weightings():
    rng = np.random.default_rng(101)
    model = FlatModel(2)
    structures = model.structures()
    worst = 0.0
    for spec in (
        CircleActionSpec(k=(0, 0), l=(1, 1)),
        CircleActionSpec(k=(1, 1), l=(1, 1)),
    ):
        for p in _flat_points(rng, 100):
            F = hyperholo_curvature(spec, p, SCHEME)
            worst = max(worst, max(type11_residual(F, S) for S in structures))
    _verdict(1, "weights (0,1) and (1,1): S^T F S = F for S in {I, J, K}", worst, 1e-8)


# -- 2: the full rotation carries the trivial bundle -----------------------------------


def test_criterion_02_full_rotation_curvature_vanishes():
    rng = np.random.default_rng(102)
    spec = CircleActionSpec(k=(1, 1), l=(1, 1))
    worst = 0.0
    for p in _flat_points(rng, 50):
        F = hyperholo_curvature(spec, p, SCHEME)
        worst = max(worst, float(np.max(np.abs(F.comps))))
    _verdict(2, "F = 0 identically for the weight-(1,1) rotation", worst, 1e-9)


# -- 3: the radial profile solves its defining identity --------------------------------


def test_criterion_03_profile_identity_on_log_grid():
    grid = np.logspace(-3, 1, 200)
    worst = fu_identity_residual(grid)
    _verdict(3, "(u f(u))' = (sqrt(1+u) - 1)/(2u) on 200 log-spaced u", worst, 1e-7)


# -- 4: moment map of the fibre rotation, two ways, and one curvature ------------------


def test_criterion_04_moment_map_and_curvature_agreement():
    rng = np.random.default_rng(104)
    model = cp1_model()
    pts = _cotangent_points(rng, 50)
    worst_scale = 0.0
    worst_contract = 0.0
    for pt in pts:
        res_lambda, res_ix = bg_moment_residuals(model, pt, SCHEME)
        worst_scale = max(worst_scale, res_lambda)
        worst_contract = max(worst_contract, res_ix)
    worst_curv = max(bg_curvature_residual(model, pt, SCHEME) for pt in pts[:10])
    ok = worst_scale < 1e-7 and worst_contract < 1e-6 and worst_curv < 1e-5
    print(f"[criterion 04] {'PASS' if ok else 'FAIL'} moment map two ways and "
          f"curvature agreement: scaling {worst_scale:.3e} vs 1e-07, "
          f"contraction {worst_contract:.3e} vs 1e-06, "
          f"curvature {worst_curv:.3e} vs 1e-05")
    assert ok


# -- 5: reconstructed quaternionic triple near the zero section ------------------------


def test_criterion_05_reconstruction_near_zero_section():
    rng = np.random.default_rng(105)
    model = cp1_model()
    worst_j2 = 0.0
    worst_type11 = 0.0
    for pt in _cotangent_points(rng, 8, v_max=0.3):
        out = bg_hyperkahler_check(model, pt, SCHEME)
        worst_j2 = max(worst_j2, out["J2"])
        worst_type11 = max(
            worst_type11, out["type11_I"], out["type11_J"], out["type11_K"]
        )
    worst = max(worst_j2, worst_type11)
    _verdict(5, "||J^2 + Id|| and (1,1) for I, J, K near the zero section",
             worst, 1e-6)


# -- 6: multi-centre monopole system --------------------------------------------------


def test_criterion_06_gh_monopole_system():
    rng = np.random.default_rng(106)
    worst_pairs = 0.0
    worst_harm = 0.0
    worst_asd = 0.0
    worst_period = 0.0
    for centers in ((0.0, 1.0), (0.0, 1.0, 3.0)):
        cfg = GHConfig(centers=centers)
        clear = lambda x: chart_clearance(cfg)(np.array([*x, 0.0]))
        pts = _gh_points(cfg, 8, rng)
        alpha = FormField(
            lambda x: gh_alpha(cfg, GHPoint(tuple(x), 0.0, "string-down")),
            1, 3, clearance=clear,
        )
        data = MonopoleData.from_config(cfg)
        a_field = FormField(lambda x: data.A(x), 1, 3, clearance=clear)
        v_field = ScalarField(lambda x: gh_potential(cfg, x), 3, clearance=clear)
        phi_field = ScalarField(data.phi, 3, clearance=clear)
        for x in pts:
            dalpha = ext_deriv(alpha, x, SCHEME)
            star_dv = hodge_star(
                np.eye(3), 1, FormValue(1, 3, potential_gradient(cfg, x))
            )
            worst_pairs = max(
                worst_pairs, float(np.max(np.abs((dalpha - star_dv).comps)))
            )
            da = ext_deriv(a_field, x, SCHEME)
            star_dphi = hodge_star(
                np.eye(3), 1, FormValue(1, 3, fd_gradient(data.phi, x, SCHEME))
            )
            worst_pairs = max(
                worst_pairs, float(np.max(np.abs((da - star_dphi).comps)))
            )
            worst_harm = max(
                worst_harm,
                abs(laplacian(v_field, x, SCHEME)),
                abs(laplacian(phi_field, x, SCHEME)),
            )
        for x in pts[:4]:
            pt4 = GHPoint(tuple(x), rng.uniform(0.0, 2 * np.pi))
            worst_asd = max(worst_asd, asd_residual(cfg, pt4, SCHEME))
        for i in range(1, cfg.num_centers):
            expected = 2.0 * np.pi * cfg.spacings[i - 1]
            worst_period = max(
                worst_period, abs(sphere_period(cfg, i) - expected) / expected
            )
    ok = (worst_pairs < 1e-6 and worst_harm < 1e-6 and worst_asd < 1e-5
          and worst_period < 1e-6)
    print(f"[criterion 06] {'PASS' if ok else 'FAIL'} monopole system on "
          f"{{0,1}} and {{0,1,3}}: d-pairs {worst_pairs:.3e} vs 1e-06, "
          f"harmonic {worst_harm:.3e} vs 1e-06, anti-self-dual "
          f"{worst_asd:.3e} vs 1e-05, periods {worst_period:.3e} rel vs 1e-06")
    assert ok


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
            for t in rng.uniform(0.02, 0.98, size=6):
                x = np.array([lo + t * (hi - lo), 0.0, 0.0])
                if rotation_lift_f(cfg, x) != expected:
                    violations += 1
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
    rng = np.random.default_rng(108)
    action = eguchi_hanson_action()
    rotator = eh_rotator()
    level = LevelSpec((1.0,))
    worst_match = 0.0
    worst_type11 = 0.0
    for _ in range(30):
        lsp = solve_level(action, level, rng.standard_normal(8))
        canonical = canonical_bundle_curvature(action, (1.0,), lsp)
        descended = descended_curvature(action, rotator, lsp)
        worst_match = max(
            worst_match, float(np.max(np.abs((canonical - descended).comps)))
        )
        chart = QuotientChart(action, lsp)
        for i in (1, 2, 3):
            S = chart.structure(np.zeros(chart.dim), i)
            worst_type11 = max(
                worst_type11, type11_residual(canonical, S, structure_tol=1e-4)
            )
    worst = max(worst_match, worst_type11)
    _verdict(8, "canonical-connection curvature = omega-bar_1 + dd^c(mu-bar/deg), "
                "type (1,1), 30 samples", worst, 1e-5)


# -- 9: the quotient is the two-centre geometry ----------------------------------------


def test_criterion_09_gh_model_recovery():
    rng = np.random.default_rng(109)
    action = eguchi_hanson_action()
    circle = eh_residual_circle()

    def samples(level_value, count=40):
        level = LevelSpec((level_value,))
        xs, vs = [], []
        for _ in range(count):
            lsp = solve_level(action, level, rng.standard_normal(8))
            x, v = gh_coordinates(action, circle, lsp, scale=GH_CIRCLE_SCALE)
            xs.append(x)
            vs.append(v)
        return np.array(xs), np.array(vs)

    seps = []
    worst_fit = 0.0
    for c in (1.0, 2.0):
        xs, vs = samples(c)
        sep, resid = fit_two_centers(xs, vs)
        seps.append(sep)
        worst_fit = max(worst_fit, resid)
    linearity = abs(seps[1] - 2.0 * seps[0]) / seps[1]
    ok = worst_fit < 1e-5 and linearity < 1e-4
    print(f"[criterion 09] {'PASS' if ok else 'FAIL'} V = sum 1/|x - a_i| "
          f"recovery: least-squares residual {worst_fit:.3e} vs 1e-05, "
          f"separation linearity {linearity:.3e} rel vs 1e-04")
    assert ok


# -- 10: sign assignments on the extended diagrams -------------------------------------


def test_criterion_10_diagram_sign_solvability():
    violations = 0
    for k in range(1, 10):
        graph = extended_diagram("A", k)
        signs = dynkin_signs(graph)
        if k % 2 == 1:
            if signs is None:
                violations += 1
            else:
                violations += sum(
                    1 for i, j in graph.edges if signs[i] * signs[j] != -1
                )
        elif signs is not None:
            violations += 1
    for kind, k in (("D", 4), ("D", 5), ("D", 6), ("D", 7), ("D", 8),
                    ("E6", None), ("E7", None), ("E8", None)):
        graph = extended_diagram(kind, k)
        signs = dynkin_signs(graph)
        if signs is None:
            violations += 1
        else:
            violations += sum(
                1 for i, j in graph.edges if signs[i] * signs[j] != -1
            )
    _exact(10, "signs solvable on extended A_k iff k odd, always on D/E, "
               "with c_i c_j = -1 exactly", violations)


# -- 11: twistor-family identities ------------------------------------------------------


def test_criterion_11_twistor_identities():
    rng = np.random.default_rng(111)
    n = 2
    full = CircleActionSpec(k=(1, 1), l=(1, 1))

    def cpair():
        return rng.standard_normal(n) + 1j * rng.standard_normal(n)

    def czeta():
        return complex(rng.uniform(0.3, 1.4) * np.exp(1j * rng.uniform(0, 2 * np.pi)))

    worst_pair = 0.0
    worst_inv = 0.0
    worst_restrict = 0.0
    worst_residue = 0.0
    for _ in range(30):
        z, w, zeta = cpair(), cpair(), czeta()
        pt = product_to_chart(z, w, zeta)
        tan = (cpair(), cpair(), complex(*rng.standard_normal(2)))
        worst_pair = max(
            worst_pair, connection_pair_residual(pt.v, pt.xi, pt.zeta, tan)
        )
        worst_inv = max(worst_inv, action_invariance_residual(full, pt, tan))
        worst_restrict = max(
            worst_restrict,
            fibre_restriction_residual(
                z, w, zeta, rng.standard_normal(4 * n), rng.standard_normal(4 * n)
            ),
        )
    for n_char in (1, 2, 5):
        got = rotation_residue(n_char, cpair(), cpair())
        worst_residue = max(worst_residue, abs(got - 2j * np.pi * n_char))
    for _ in range(10):
        worst_residue = max(
            worst_residue,
            residue_match_residual(cpair(), cpair(), rng.standard_normal(4 * n)),
        )
    worst_hermitian = 0.0
    for _ in range(8):
        worst_hermitian = max(
            worst_hermitian,
            hermitian_curvature_residual(n, cpair(), cpair(), czeta()),
        )
    ok = (worst_pair < 1e-12 and worst_inv < 1e-10 and worst_restrict < 1e-10
          and worst_residue < 1e-10 and worst_hermitian < 1e-6)
    print(f"[criterion 11] {'PASS' if ok else 'FAIL'} twistor identities: "
          f"pair {worst_pair:.3e} vs 1e-12, invariance {worst_inv:.3e} vs "
          f"1e-10, restriction {worst_restrict:.3e} vs 1e-10, residues "
          f"{worst_residue:.3e} vs 1e-10, curvature of log h_U "
          f"{worst_hermitian:.3e} vs 1e-06")
    assert ok


# -- 12: representation dimensions against the group orders ----------------------------


def test_criterion_12_mckay_marks_and_quiver_dimension():
    violations = 0
    for kind, k in (("A", 1), ("A", 2), ("A", 5), ("D", 4), ("D", 6), ("D", 8),
                    ("E6", None), ("E7", None), ("E8", None)):
        marks = mckay_dims(kind, k)
        if sum(d * d for d in marks) != gamma_order(kind, k):
            violations += 1
    if quiver_dim(extended_diagram("A", 1)) != 4:
        violations += 1
    _exact(12, "sum d_i^2 = |Gamma| on every diagram and quiver dim(A_1) = 4",
           violations)
