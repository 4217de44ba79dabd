"""Multi-centre gravitational instantons: potential, monopoles, periods.

A positive harmonic V on R^3 with *dV = d alpha determines a
4-dimensional hyperkahler metric V dx^2 + V^{-1} (dtheta + alpha)^2.
This script assembles the two-centre example, checks the monopole pair
(phi, A) with dA = *d phi, integrates omega1 over the segment sphere,
and tabulates the exact values of the rotation-lift function f on the
axis segments.
"""

import numpy as np

from hkgeom.forms import FDScheme, ext_deriv, fd_gradient, hodge_star
from hkgeom.gibbonshawking import (
    GHConfig,
    alpha_field,
    asd_residual,
    chart_clearance,
    f_segment_values,
    gh_metric,
    gh_potential,
    monopole_field,
    monopole_phi,
    potential_gradient,
    sphere_period,
)

rng = np.random.default_rng(23)
cfg = GHConfig(centers=(0.0, 1.0))
scheme = FDScheme(h=1e-3, order=4)
print("two centres at x1 = 0 and 1, unit weights, c = 0")

# every function takes a batch: base points (k, 3), chart points (k, 4)
x = np.array([[0.4, 0.7, -0.3]])
print("V(x) =", gh_potential(cfg, x)[0], " at x =", x[0])
print("metric determinant at a sample 4-point:",
      np.linalg.det(gh_metric(cfg, np.array([[*x[0], 0.3]]))[0]))

# -- d alpha = *dV and the monopole pair -------------------------------------------------


alpha = alpha_field(cfg)  # takes (m, 3) batches of base points, as every stencil does
ys = rng.uniform(-1.5, 2.0, size=(8, 3))
ys = ys[chart_clearance(ys) >= 0.4]
# one Hodge star for the batch: the rows of dV are the (k, 3) components of k 1-forms
star_dv = hodge_star(np.eye(3), 1, potential_gradient(cfg, ys), 1)
worst = float(np.max(np.abs(ext_deriv(alpha, ys, scheme) - star_dv)))
print("\nmax |d alpha - *dV| over random points:", f"{worst:.3e}")
print("phi(x) =", monopole_phi(cfg, x)[0], " (harmonic, paired with A by dA = *d phi)")
star_dphi = hodge_star(np.eye(3), 1, fd_gradient(lambda y: monopole_phi(cfg, y), ys, scheme), 1)
worst = float(np.max(np.abs(ext_deriv(monopole_field(cfg), ys, scheme) - star_dphi)))
print("max |dA - *d phi| over the same points:", f"{worst:.3e}")

chart = np.array([[*x[0], 1.1]])
print("anti-self-duality of the connection curvature:",
      f"{asd_residual(cfg, chart, scheme)[0]:.3e}")

# -- periods over segment spheres --------------------------------------------------------

print("\nintegral of omega1 over a sphere homologous to the segment sphere:")
print("  measured:", sphere_period(cfg, 1), "  expected 2 pi (a2 - a1) =",
      2 * np.pi * cfg.spacings[0])

# -- the lift function is locally constant on the axis -----------------------------------

print("\nexact f values on the axis segments (left to right):",
      f_segment_values(cfg))
print("the middle value vanishes: an even number of unit centres with c = 0")
