"""The twistor family over flat quaternionic space, in coordinates.

Two charts (v, xi, zeta) and (v/zeta, xi/zeta, 1/zeta) cover M x S^2
minus the poles; the transition e^{-v.xi/2 zeta} glues a holomorphic
line bundle.  This script evaluates the chart transition, the exact
difference A_V - A_U = -d(v.xi/2 zeta), the meromorphic connection with
its simple poles and residues, and the hermitian metric log h_U whose
dd^{c_Z} reproduces the flat curvature form on every fibre.

Every closed form takes a batch of points, v and xi of shape (k, n) and
zeta of shape (k,), with chart tangents packed as (k, 2n+1) in the order
(dv, dxi, dzeta); this script evaluates batches of one point.
"""

import numpy as np

from hkgeom.twistor import (
    connection_pair_residual,
    connection_residue,
    fibre_restriction_residual,
    hermitian_curvature_residual,
    log_hU,
    pole_orders,
    product_to_chart,
    reality_residual,
    transition_gUV,
)

rng = np.random.default_rng(13)
n = 2


def cpair():
    """One point's n complex coordinates, a (1, n) batch."""
    return rng.standard_normal((1, n)) + 1j * rng.standard_normal((1, n))


z, w = cpair(), cpair()
zeta = np.array([0.6 + 0.3j])
v, xi = product_to_chart(z, w, zeta)
print("chart point v =", np.round(v[0], 4))
print("          xi =", np.round(xi[0], 4))
print("transition g_UV =", transition_gUV(v, xi, zeta)[0])

# -- the two one-forms differ by an exact term -------------------------------------------

tan = np.concatenate([cpair(), cpair(), [[complex(*rng.standard_normal(2))]]], axis=1)
print("\n|A_V - A_U + d(v.xi/2 zeta)| =",
      f"{connection_pair_residual(v, xi, zeta, tan)[0]:.3e}")

# -- meromorphic connection: poles and residues ------------------------------------------

v0, xi0 = cpair(), cpair()
zero, infinity = pole_orders(2, v0, xi0, tan)
print("\ninvariant connection for character n = 2:")
print("  pole order at zeta = 0:       ", zero)
print("  pole order at zeta = infinity:", infinity)
d_zeta = np.zeros((1, 2 * n + 1), dtype=complex)
d_zeta[0, -1] = 1.0
print("  rotation residue:", connection_residue(2, v0, xi0, d_zeta)[0], " (expected 4 pi i)")
for n_char in (1, 3):
    got = connection_residue(n_char, cpair(), cpair(), d_zeta)[0]
    print(f"  n = {n_char}: residue {got}  vs 2 pi i n = {2j * np.pi * n_char}")

# -- fibrewise data -----------------------------------------------------------------------

worst = max(
    fibre_restriction_residual(
        cpair(), cpair(), [rng.uniform(0.4, 1.3)],
        rng.standard_normal((1, 4 * n)), rng.standard_normal((1, 4 * n)),
    )[0]
    for _ in range(10)
)
print("\nfibre restriction of F_Z vs the structure pencil, worst of 10:",
      f"{worst:.3e}")

print("log h_U at the sample point:", log_hU(z, w, zeta)[0])
print("antipodal reality of the metric pair:",
      f"{reality_residual(z, w, zeta)[0]:.3e}")
print("dd^{c_Z} log h_U vs twice the flat curvature:",
      f"{hermitian_curvature_residual(z, w, zeta)[0]:.3e}")
