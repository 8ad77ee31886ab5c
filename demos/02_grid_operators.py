"""The discrete first-order operator D on a uniform grid: its vector-
calculus split, the identity D^2 = -lap, and a small convergence study."""

import math

import numpy as np

from biquat import (BQField, Biquaternion, ClosedFormFamily, Grid3, laplacian,
                    nabla, nabla_alpha, reciprocal_alpha, reflect_x3)

grid = Grid3.box(1.0, 2.0, 17)
print(f"grid {grid.shape}, spacing {grid.spacing[0]:.4f}")

print("\n== D on simple fields ==")
f_lin = BQField.from_scalar(grid, lambda x1, x2, x3: x1)
print("D(x1 e0) = e1 exactly:", (nabla(f_lin) - BQField.constant(grid, Biquaternion(0, 1, 0, 0))).linf())
f_vec = BQField.from_vector(grid, lambda *x: x[0], lambda *x: x[1], lambda *x: x[2])
print("D(x_vec) = -3 e0 (minus the divergence):",
      (nabla(f_vec) - BQField.constant(grid, Biquaternion(-3, 0, 0, 0))).linf())

print("\n== D applied twice vs the Laplacian ==")
errs = {}
for n in (17, 33):
    g = Grid3.box(1.0, 2.0, n)
    f = BQField.from_components(g,
                                lambda a, b, c: np.exp(1j * (a + b)),
                                lambda a, b, c: np.sin(a + 2 * c),
                                lambda a, b, c: np.cos(b) * np.sin(c),
                                lambda a, b, c: np.exp(1j * (a - b + c)))
    errs[n] = (nabla(nabla(f)) + laplacian(f)).linf()
    print(f"  n={n:3d}: ||D^2 f + lap f||_inf = {errs[n]:.3e}")
print(f"  observed order: {math.log(errs[17] / errs[33], 2):.2f}")

print("\n== a closed-form null solution of D f + f alpha = 0 ==")
alpha = reciprocal_alpha((0.0, 0.0, 0.0))  # components 1/x_k
family = ClosedFormFamily(alpha)
for n in (17, 33):
    g = Grid3.box(1.0, 2.0, n)
    f0 = BQField.from_scalar(g, family.f_values(g, 0))  # 1/(x1 x2 x3)
    rel = nabla_alpha(f0, alpha).linf() / f0.linf()
    print(f"  n={n:3d}: relative residual {rel:.3e}")

print("\n== reflection in the x3 = 0 plane ==")
gsym = Grid3.box((1, 1, -0.5), (2, 2, 0.5), 9)
f = BQField.from_scalar(gsym, lambda x1, x2, x3: x3)
print("reflect(x3 e0) = -x3 e0:", (reflect_x3(f) + f).linf())
print("reflect twice is the identity:", (reflect_x3(reflect_x3(f)) - f).linf())
