"""The cotangent bundle of the 2-sphere: radial profiles and moment map.

`hkgeom.cotangent` builds the complete hyperkahler metric on T*CP^1 in
closed form from a single radial profile f(u).  This script checks the profile against
its defining identity, evaluates the potentials h and k, verifies the
fibre-rotation moment map two independent ways, and compares the two
expressions for the line-bundle curvature.
"""

import numpy as np

from hkgeom.cotangent import (
    CotangentPoint,
    bg_curvature,
    bg_contraction_residual,
    bg_curvature_residual,
    bg_moment_map,
    bg_quaternionic_residual,
    bg_scaling_residual,
    bg_structures,
    fu_identity_residual,
    potential_h,
    potential_k,
)
from hkgeom.forms import FDScheme, type11_residual

rng = np.random.default_rng(11)
scheme = FDScheme(h=1e-3, order=4)

# -- the radial profile solves (u f(u))' = (sqrt(1+u) - 1) / (2u) -----------------------

grid = np.logspace(-3, 1, 200)
print("radial profile identity on 200 log-spaced u in [1e-3, 10]:")
print("  max |(u f)' - (sqrt(1+u)-1)/(2u)| =", f"{fu_identity_residual(grid):.3e}")

# -- potentials and the moment map ------------------------------------------------------

# every function takes a batch of points: b and v of shape (k,)
pt = CotangentPoint([0.3 - 0.2j], [0.4 + 0.5j])
print("\nat (b, v) =", (pt.b[0], pt.v[0]))
print("  h =", potential_h(pt)[0])
print("  k =", potential_k(pt)[0])
print("  mu =", bg_moment_map(pt)[0])

x = rng.uniform(-0.8, 0.8, size=(25, 4))
b, v = x[:, 0] + 1j * x[:, 1], x[:, 2] + 1j * x[:, 3]
pts = CotangentPoint(b, np.where(np.abs(v) < 0.05, v + (0.1 + 0.1j), v))
print("\nmoment map two ways, 25 random points:")
print("  vs scaling derivative of h:  ", f"{bg_scaling_residual(pts).max():.3e}")
print("  vs -i_X d^c h:               ", f"{bg_contraction_residual(pts, scheme).max():.3e}")

# -- two expressions for the curvature ---------------------------------------------------

first = CotangentPoint(pts.b[:8], pts.v[:8])
worst = bg_curvature_residual(first, scheme).max()
print("\n|omega1 + dd^c mu - (p*omega + dd^c k)| worst over 8 points:",
      f"{worst:.3e}")

one = CotangentPoint(pts.b[:1], pts.v[:1])
structures, F = bg_structures(one, scheme), bg_curvature(one, scheme)
print("\nreconstructed triple at one point:")
print(f"  ||J^2 + Id||: {bg_quaternionic_residual(structures[1])[0]:.3e}")
for name, S in zip("IJK", structures):
    # the reconstructed J and K carry FD error, so their structure check is loose
    print(f"  F of type (1,1) for {name}: {type11_residual(F, S, structure_tol=1e-4)[0]:.3e}")
