"""Multi-centre gravitational instantons: potential, monopoles, periods.

A positive harmonic V on R^3 with *dV = d alpha determines a
4-dimensional hyperkahler metric V dx^2 + V^{-1} (dtheta + alpha)^2.
This script assembles the two-centre example, checks the monopole pair
(phi, A) with dA = *d phi, integrates omega1 over the segment sphere,
and tabulates the exact values of the rotation-lift function f on the
axis segments.
"""

import numpy as np

from hkgeom.forms import FDScheme, FormValue, ext_deriv, hodge_star
from hkgeom.gibbonshawking import (
    GHConfig,
    GHPoint,
    MonopoleData,
    alpha_field,
    asd_residual,
    chart_clearance,
    f_segment_values,
    gh_metric,
    gh_potential,
    potential_gradient,
    sphere_period,
)

rng = np.random.default_rng(23)
cfg = GHConfig(centers=(0.0, 1.0))
scheme = FDScheme(h=1e-3, order=4)
print("two centres at x1 = 0 and 1, unit weights, c = 0")

x = np.array([0.4, 0.7, -0.3])
print("V(x) =", gh_potential(cfg, x), " at x =", x)
print("metric determinant at a sample 4-point:",
      np.linalg.det(gh_metric(cfg, GHPoint(tuple(x), 0.3))))

# -- d alpha = *dV and the monopole pair -------------------------------------------------


clear = chart_clearance(cfg)
alpha = alpha_field(cfg)  # takes (m, 3) batches of base points, as every stencil does
data = MonopoleData.from_config(cfg)
worst = 0.0
for _ in range(8):
    y = rng.uniform(-1.5, 2.0, size=3)
    if clear(y) < 0.4:
        continue
    dalpha = ext_deriv(alpha, y, scheme)
    star_dv = hodge_star(np.eye(3), 1, FormValue(1, 3, potential_gradient(cfg, y)))
    worst = max(worst, float(np.max(np.abs((dalpha - star_dv).comps))))
print("\nmax |d alpha - *dV| over random points:", f"{worst:.3e}")
print("phi(x) =", data.phi(x), " (harmonic, paired with A by dA = *d phi)")

pt4 = GHPoint(tuple(x), 1.1)
print("anti-self-duality of the connection curvature:",
      f"{asd_residual(cfg, pt4, scheme):.3e}")

# -- periods over segment spheres --------------------------------------------------------

print("\nintegral of omega1 over a sphere homologous to the segment sphere:")
print("  measured:", sphere_period(cfg, 1), "  expected 2 pi (a2 - a1) =",
      2 * np.pi * cfg.spacings[0])

# -- the lift function is locally constant on the axis -----------------------------------

print("\nexact f values on the axis segments (left to right):",
      f_segment_values(cfg))
print("the middle value vanishes: an even number of unit centres with c = 0")
