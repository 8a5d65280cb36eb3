"""Virtual third fundamental form of a hyperbolic Monge-Ampere system.

A symmetric endomorphism field H with det H = -b < 0 plays the role of a
shape operator: III = sigma(H., H.) carries a compatible connection whose
curvature is -K_sigma/b and whose torsion norm is ||tau||_sigma/b whenever
(H, b, tau) solves the system det H = -b, d^sigma H = tau (x) area form.
"""

import numpy as np

from efimov_lab import gallery

sigma = gallery.hyperbolic_plane_polar(r_min=0.4, r_max=3.0)

print("constructed solution (tau defined from H):")
h = gallery.random_monge_ampere_field(sigma, seed=5)


def tau(q):
    return gallery.dnabla_h(sigma, h, q) / np.sqrt(np.linalg.det(sigma.matrix(q)))


data, rep = gallery.virtual_third_form(sigma, h, lambda q: 1.0, tau)
for key, val in sorted(rep.items()):
    print(f"  {key:38s} {val}")

print("\nidentity-magnitude H = diag(1, -1) in the orthonormal frame:")
from efimov_lab.connection import orthonormal_frame


def h_diag(q):
    g = sigma.matrix(q)
    f = orthonormal_frame(g)
    frame = np.column_stack([f[0], f[1]])
    return frame @ np.diag([1.0, -1.0]) @ np.linalg.inv(frame)


data, rep = gallery.virtual_third_form(sigma, h_diag, lambda q: 1.0,
                                       lambda q: np.zeros(2))
print(f"  K~ identity residual     {rep['ktilde_identity_residual']:.2e} "
      "(holds for any H)")
print(f"  system residual          {rep['dnabla_residual']:.2e} "
      "(this H does not solve the system, and the report says so)")
