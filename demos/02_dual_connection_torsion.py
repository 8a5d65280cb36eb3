"""The compatible connection and its torsion.

An immersed surface with invertible shape operator carries a connection
compatible with its third fundamental form.  In a constant-curvature ambient
space the torsion vanishes (the connection is the Levi-Civita connection of
the third form); in a pinched ambient space the torsion is nonzero but obeys
the closed-form bound computed from the sectional extremes.
"""

import numpy as np

from efimov_lab import gallery
from efimov_lab.ambient import sectional_range
from efimov_lab.connection import dual_codazzi_residual, torsion_bound_tau0

print("space forms: torsion and dual-Codazzi residual")
for name in ("sphere2", "saddle", "clifford_torus"):
    data = gallery.build_example(name).data
    mid = 0.5 * (np.asarray(data.patch.box.lo) + np.asarray(data.patch.box.hi))
    print(f"  {name:16s} |tau| = {data.torsion_norm(mid):.2e}   "
          f"dual Codazzi = {dual_codazzi_residual(data, mid):.2e}")

print("\npinched ambient (slab metric, lambda = 1): the hyperbolic slice")
case = gallery.build_example("hyperbolic_slice", **{"lambda": 1.0})
data = case.data
for y in (0.1, 0.25, 0.4):
    q = np.array([0.0, y])
    fd = data.fundamental(q)
    k_m, k_max = sectional_range(case.metric, fd.point)
    bound = torsion_bound_tau0(k_m, k_max, -1.0)
    print(f"  y = {y:4.2f}: |tau| = {data.torsion_norm(q):.6f}  "
          f"<=  bound {bound:.6f}   (ambient extremes [{k_m:+.4f}, {k_max:+.4f}])")
