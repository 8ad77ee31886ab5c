"""Force-free fields, slowly varying media, and the static system: all
three reduce to the same first-order quaternionic equation."""

import numpy as np

from biquat import (BQField, ClosedFormFamily, Grid3, MediumFields,
                    circular_wave, diagonalize_em, forcefree_split, laplacian,
                    medium_alpha, nabla, reciprocal_alpha,
                    static_maxwell_residual, undiagonalize_em)

grid = Grid3.box(1.0, 2.0, 17)
nu = 1.5

print("== force-free (Beltrami) fields ==")
b = circular_wave(grid, nu, -1)
res = nabla(b) + nu * b
print(f"(D + nu) B residual for the classic fixture: {res.linf():.3e}")
split = forcefree_split(b, nu)                 # a RightSplit keyed ±1
res, scale = split.identity_residual()
print(f"P_1^± split identity defect: {res.linf() / scale:.1e}")
print(f"parts recombine: {(split.recombined() - b).linf():.1e}")

print("\n== slowly varying media ==")
wave = circular_wave(grid, nu, -1)
e, h = wave, 1j * wave
phi, psi = diagonalize_em(e, h)
print(f"diagonal fields: |phi| = {phi.linf():.1e} (empty), "
      f"(D + nu) psi residual = {(nabla(psi) + nu * psi).linf():.3e}")
print(f"Helmholtz (lap + nu^2) psi residual = {(laplacian(psi) + nu**2 * psi).linf():.3e}")
e2, h2 = undiagonalize_em(phi, psi)
print(f"round trip restores the pair: {(e2 - e).linf():.1e}")

print("\n== static system with a separable permittivity ==")
med = MediumFields(
    eps=lambda x1, x2, x3: (x1 * x2 * x3) ** 2, mu=1.0,
    separable_eps=tuple((lambda x: x ** 2, lambda x: 2.0 * x) for _ in range(3)))
avec = medium_alpha(med, grid, "eps")
print("closed-form coefficient vector at a node:", avec.data[1:, 4, 4, 4].real)

alpha = reciprocal_alpha((0.0, 0.0, 0.0))   # equals grad(sqrt eps)/sqrt(eps)
family = ClosedFormFamily(alpha)
e_static = BQField.from_vector(grid, family.f_values(grid, 1),
                               family.f_values(grid, 2), family.f_values(grid, 3))
res = static_maxwell_residual(e_static, med, which="E")
print(f"sourceless static residual of the manufactured field: "
      f"{res.linf() / e_static.linf():.3e}")

rng = np.random.default_rng(1)
e_any = BQField.from_vector(grid, *(np.cos(k * grid.mesh()[0]) for k in (1, 2, 3)))
bare = static_maxwell_residual(e_any, MediumFields(eps=2.0, mu=1.0), which="E")
rho = -np.sqrt(2.0) * bare.scalar
fixed = static_maxwell_residual(e_any, MediumFields(eps=2.0, mu=1.0), which="E", rho=rho)
print(f"manufactured charge density cancels the scalar slot: "
      f"{np.nanmax(np.abs(np.nan_to_num(fixed.scalar, nan=0.0))):.1e}")
