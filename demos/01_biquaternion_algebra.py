"""Tour of the complex-quaternion algebra: products, conjugations,
zero divisors, and the projector families built from them."""

import numpy as np

from biquat import (Biquaternion, E0, E1, E2, E3, is_zero_divisor,
                    right_projector, split_projectors, vec_square)

print("== multiplication table ==")
print("e1*e2 =", E1 * E2)
print("e2*e1 =", E2 * E1)
print("e1*e1 =", E1 * E1)

print("\n== the complex unit commutes with the basis ==")
q = Biquaternion(1, 2, 3, 4)
print("(i q) e2 == i (q e2):", ((1j * q) * E2).isclose(1j * (q * E2)))

print("\n== conjugations ==")
print("q          =", q)
print("conj q     =", q.conj())
print("involution 1:", q.involution(1), " (flips the e2 and e3 slots)")

print("\n== zero divisors ==")
zd = E0 + 1j * E3
print("q = 1 + i e3:   q*q =", zd * zd, " = 2*q0*q ->", is_zero_divisor(zd))
print("e1 is invertible ->", is_zero_divisor(E1), "(not a zero divisor)")
beta = Biquaternion.vector(-1j, -2.0, 0.0)
print("beta = -(i e1 + 2 e2): beta^2 =", vec_square(beta))

print("\n== right projectors P_k^± ==")
plus = q * right_projector(1, +1)
minus = q * right_projector(1, -1)
print("P_1^+ q + P_1^- q == q:", (plus + minus).isclose(q))
print("P_1^+ e0 =", E0 * right_projector(1, +1))

print("\n== the lam/beta splitting pair ==")
pair = split_projectors(beta)
print("lam =", pair.lam, " (principal square root of beta^2)")
print("S^+ multiplier:", pair.plus)
print("S^+ + S^- == 1:", (pair.plus + pair.minus).isclose(E0))
print("S^+ S^- == 0:", (pair.plus * pair.minus).abs_max() < 1e-14)
print("S^± are conjugate zero divisors:",
      is_zero_divisor(pair.plus) and pair.plus.conj().isclose(pair.minus))

print("\nbeta with beta^2 = 0 cannot be split:")
try:
    split_projectors(Biquaternion.vector(-1j, -1.0, 0.0))
except ValueError as err:
    print("  ->", err)
