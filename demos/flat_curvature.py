"""Flat quaternionic space: circle weights, moment maps, invariant curvature.

Walks the basic objects of `hkgeom.flatspace` on H^2 = C^4: the three
complex structures, a weighted circle action, its hyperkahler moment
map, and the curvature form F = omega1 + dd^c(mu / deg) attached to the
action.  The punchline is numerical: F is type (1,1) for *every*
structure in the quaternionic family, and the equal-weight rotation
carries F = 0 identically.
"""

import numpy as np

from hkgeom.flatspace import (
    CircleActionSpec,
    FlatModel,
    action_vector_field,
    hyperholo_curvature,
    moment_map,
    rotation_degree_check,
)
from hkgeom.forms import FDScheme, type11_residual

rng = np.random.default_rng(7)
model = FlatModel(2)
# mu / deg is quadratic, so the 2nd-order stencil is exact on it and only
# roundoff, about eps max|mu| / h^2, is left: the large step is the accurate one
scheme = FDScheme(h=1e-1, order=2)

print("model: H^2 as R^8, packing (Re z, Im z | Re w, Im w)")
I, J, K = model.structures()
print("quaternion check  max|IJ - K| =", np.max(np.abs(I @ J - K)))

# -- a weighted circle action and its moment map --------------------------------------

semi = CircleActionSpec(k=(0, 0), l=(1, 1))
full = CircleActionSpec(k=(1, 1), l=(1, 1))
print("\nsemifree weights (0,1): rotation degree n =", semi.degree)
print("full rotation   (1,1): rotation degree n =", full.degree)
print("degree scaling of omega2 + i omega3, max dev:",
      max(rotation_degree_check(semi), rotation_degree_check(full)))

# every function of a point takes a batch (k, 8) and returns one row per point
p = rng.uniform(-1.5, 1.5, size=(1, 8))
print("\nsample point p =", np.round(p[0], 3))
print("mu_semifree(p) =", moment_map(semi, p)[0])
print("X(p) w-block (z-block is fixed at weight 0):",
      np.round(action_vector_field(semi, p)[0, 4:], 4))

# -- the curvature form is (1,1) for the whole 2-sphere of structures -------------------

print("\ntype-(1,1) residuals of F = omega1 + dd^c(mu/deg), 20 random points")
for spec, name in ((semi, "weights (0,1)"), (full, "weights (1,1)")):
    F = hyperholo_curvature(spec, rng.uniform(-1.5, 1.5, size=(20, 8)), scheme)
    worst = max(type11_residual(F, S).max() for S in (I, J, K))
    print(f"  {name}: worst residual {worst:.3e}")

# -- the equal-weight rotation carries the trivial bundle ------------------------------

F = hyperholo_curvature(full, rng.uniform(-1.5, 1.5, size=(20, 8)), scheme)
print(f"\nfull rotation: max |F| over 20 points = {np.max(np.abs(F)):.3e}  (expected 0)")
