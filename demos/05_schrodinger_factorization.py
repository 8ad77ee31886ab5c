"""The core machinery: the quaternionic Riccati balance, factorization of
-lap + v into first-order factors, closed-form solution families, a right
inverse from four Dirichlet solves diagonalized axis by axis, and the
axial quaternionic potentials."""

import numpy as np

from biquat import (AxialAlpha, AxialOperators, BQField, ClosedFormFamily, E1,
                    GradientAlpha, Grid3, SeparableAlpha, build_solution,
                    c_map, factorization_residual, j_map, nabla_alpha,
                    pi_map, potentials, q_map, reciprocal_alpha,
                    riccati_residual, right_inverse, zero_divisor_reduction)

grid = Grid3.box(1.0, 2.0, 17)
alpha = reciprocal_alpha((0.0, 0.0, 0.0))  # components 1/x_k

print("== the Riccati balance D(alpha) + alpha^2 = -v ==")
print(f"reciprocal family balances v = 0: {riccati_residual(alpha, 0.0, grid).linf():.1e}")
galf = GradientAlpha(lambda a, b, c: np.exp(a) * np.cos(b),
                     grad_phi=(lambda a, b, c: np.exp(a) * np.cos(b),
                               lambda a, b, c: -np.exp(a) * np.sin(b), 0.0),
                     lap_phi=0.0)
v = galf.schrodinger_potential(grid)
print(f"any gradient alpha balances v = lap(phi)/phi: "
      f"{riccati_residual(galf, v, grid).linf():.1e}")

print("\n== factorization of the scalar operator ==")
res, scale = factorization_residual(SeparableAlpha((1.3j, 0, 0)),
                                    lambda a, b, c: a * b + c ** 2, -1.69, grid)
print(f"constant alpha on a quadratic: exact, {res.linf() / scale:.1e}")
res, scale = factorization_residual(alpha, lambda a, b, c: np.cos(a + b), 0.0, grid)
print(f"reciprocal alpha on a smooth function: O(h^2), {res.linf() / scale:.2e}")

print("\n== the four diagonal potentials ==")
pots = potentials(alpha, grid)
x1, x2, x3 = grid.mesh()
print(f"v_0 = 0 identically: {np.nanmax(np.abs(pots.v[0])):.1e}")
print(f"v_1 = 2(1/x2^2 + 1/x3^2): "
      f"{np.nanmax(np.abs(pots.v[1] - 2*(1/x2**2 + 1/x3**2))):.1e}")
print(f"v_k + w_k + 2 alpha^2 = 0: {pots.pairing_defect():.1e}")

print("\n== closed-form solutions from antiderivatives ==")
family = ClosedFormFamily(alpha)
res, scale = family.equation_residual_analytic(grid, (1.0, 0.5, -0.25, 0.75j))
print(f"combination solves the first-order equation: {res.linf() / scale:.1e}")
res, scale = family.schrodinger_residual_analytic(grid, 1, "v")
print(f"reciprocal phi_1 solves (-lap + v_1) phi = 0: {np.nanmax(np.abs(res)) / scale:.1e}")

print("\n== building solutions from harmonic data ==")
f = build_solution(BQField.from_scalar(grid, lambda a, b, c: a), alpha)
print(f"(D - M^alpha)(x1 e0) residual: {nabla_alpha(f, alpha).linf():.2e}")

print("\n== a right inverse from four per-axis diagonalized Dirichlet solves ==")
rhs = BQField.from_scalar(grid, lambda a, b, c:
                          np.sin(np.pi * (a - 1)) * np.sin(np.pi * (b - 1))
                          * np.sin(np.pi * (c - 1)))
alf_const = SeparableAlpha((1j, 0, 0))
out = right_inverse(rhs, alf_const)
res = nabla_alpha(out.field, alf_const) - rhs
print(f"(D + M^alpha) T f = f to {res.linf() / rhs.linf():.2e} "
      f"(solver residual {out.solver_residual:.1e})")

print("\n== axial alpha: quaternionic potentials ==")
alf = AxialAlpha(lambda a, b, c: b + 0j, grad_a1=(0.0, 1.0, 0.0))  # D a1 = e2
ops = AxialOperators(alf, grid)  # A, B and their combinations for this alpha
u = BQField.from_components(grid, lambda a, b, c: np.sin(a + b), 1.0,
                            lambda a, b, c: np.cos(c), 0.0)
# C, J, Q^± and Pi are pointwise maps that do not depend on alpha
print(f"JC is right multiplication by i e1: "
      f"{(j_map(c_map(u)) - u * (1j * E1)).linf():.1e}")
print(f"Q^+ u + Q^- u = u: {(q_map(u, 1) + q_map(u, -1) - u).linf():.1e}")
print(f"Q^± split reproduces (A + BC)u: {ops.split_identity_residual(u):.1e}")
print(f"Pi is an involution: {(pi_map(pi_map(u)) - u).linf():.1e}")
rep = zero_divisor_reduction(alf, grid)
print(f"zero-divisor reduction case: {rep.case!r} "
      f"(scalar equation unknown {rep.unknown!r})")
