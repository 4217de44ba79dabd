"""Eguchi-Hanson as a hyperkahler quotient, and its multi-centre shadow.

One circle acting on H^2 with weights (1,1)/(-1,-1), a Newton solve onto
the moment-map level set nu = (c, 0, 0), and orthonormal frames for the
vertical/horizontal split give a working chart on the 4-dimensional
quotient.  The script verifies the canonical connection's curvature
against omega-bar_1 + dd^c(mu-bar/deg), then runs the residual
triholomorphic circle to produce (x, V) samples and fits them to the
two-centre potential V = 1/|x - a_1| + 1/|x - a_2|.
"""

import numpy as np

from hkgeom.quotient import (
    GH_CIRCLE_SCALE,
    LevelSpec,
    canonical_bundle_curvature,
    descended_curvature,
    eguchi_hanson_action,
    eh_residual_circle,
    eh_rotator,
    gh_coordinates,
    quotient_structures,
    solve_level,
)
from hkgeom.suites import fit_two_centers

rng = np.random.default_rng(5)
action = eguchi_hanson_action()
level = LevelSpec((1.0,))
print("circle weights (1,1)/(-1,-1) on H^2, level c = 1")

# a batch of one level-set point; every quotient function takes a batch
one = solve_level(action, level, rng.standard_normal((1, 8)))
print("Newton solve:", len(one.histories[0]) - 1, "steps, final residual",
      f"{one.histories[0][-1]:.2e}")

frame = one.frames[0]
print("horizontal metric identity gap:",
      f"{np.max(np.abs(frame.T @ frame - np.eye(4))):.2e}")

# -- curvature of the canonical connection ----------------------------------------------

canonical = canonical_bundle_curvature(action, (1.0,), one)
descended = descended_curvature(action, eh_rotator(), one)
print("\n|canonical-connection curvature - (omega-bar_1 + dd^c(mu-bar/2))| =",
      f"{np.max(np.abs(canonical - descended)):.3e}")

s1 = quotient_structures(action, one)[0, 0]
print("chart structure check  max|S1^2 + Id| =",
      f"{np.max(np.abs(s1 @ s1 + np.eye(4))):.2e}")

# -- the residual circle sees a two-centre geometry -------------------------------------

points = solve_level(action, level, rng.standard_normal((25, 8)))
xs, vs = gh_coordinates(action, eh_residual_circle(), points, scale=GH_CIRCLE_SCALE)

sep, resid = fit_two_centers(xs, vs)
print("\ntwo-centre fit of 25 (x, V) samples at quarter speed:")
print("  least-squares residual:", f"{resid:.3e}")
print("  fitted centre separation:", sep, " (expected c/2 = 0.5)")

for scale_level in (2.0,):
    points = solve_level(action, LevelSpec((scale_level,)), rng.standard_normal((25, 8)))
    xs2, vs2 = gh_coordinates(action, eh_residual_circle(), points, scale=GH_CIRCLE_SCALE)
    sep2, _ = fit_two_centers(xs2, vs2)
    print(f"  at level c = {scale_level}: separation {sep2}  (linear in c)")
