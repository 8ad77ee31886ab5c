"""Carrying first-order spinor operators to quaternionic form: the
constant-matrix transform, the intertwining identity for scalar, electric
and pseudoscalar potentials, and the four-way splitting for the
pseudoscalar one: S^± then the force-free P_1^± split, one RightSplit."""

import numpy as np

from biquat import (BQField, Biquaternion, DiracParams, Grid3,
                    SpinorField, apply_dirac, bq_to_spinor, equivalent_alpha,
                    free_plane_wave, intertwining_residual,
                    manufactured_split_solution, nabla, nabla_alpha,
                    pseudoscalar_split, spinor_to_bq)

grid = Grid3.box((1.0, 1.0, -0.5), (2.0, 2.0, 0.5), 17)  # symmetric in x3

print("== the transform pair ==")
rng = np.random.default_rng(0)
phi = SpinorField(grid, rng.normal(size=(4, *grid.shape))
                  + 1j * rng.normal(size=(4, *grid.shape)))
roundtrip = (bq_to_spinor(spinor_to_bq(phi)) - phi).linf() / phi.linf()
print(f"inverse(forward(Phi)) == Phi to {roundtrip:.1e}")

print("\n== intertwining: spinor operator vs right multiplication ==")
pot = lambda x1, x2, x3: np.cos(x1) + 0.5 * x3
for kind in ("scalar", "electric", "pseudoscalar"):
    params = DiracParams(omega=0.7, m=1.3, kind=kind, phi=pot)
    res, scale = intertwining_residual(phi, params)
    print(f"  {kind:12s}: relative residual {res.linf() / scale:.1e}")

print("\n== equivalent alpha for omega=1, m=2 ==")
p = DiracParams(omega=1.0, m=2.0, kind="scalar", phi=None)
af = equivalent_alpha(p, grid)
print("  components at a node:", af.data[:, 3, 3, 3])

print("\n== a free plane wave and its transform ==")
wave, params = free_plane_wave(grid, (1.0, -0.5, 0.7), 1.3)
res_spinor = apply_dirac(wave, params).linf() / wave.linf()
f = spinor_to_bq(wave)
res_quat = nabla_alpha(f, equivalent_alpha(params, grid)).linf() / f.linf()
print(f"  spinor-side residual {res_spinor:.2e}, quaternion-side {res_quat:.2e}")

print("\n== pseudoscalar case: splitting into four diagonal pieces ==")
nu = 0.4 - 0.2j
beta = Biquaternion.vector(-0.7j, -1.3, 0.0)
fman = manufactured_split_solution(grid, nu, beta)
full = (nabla(fman) + nu * fman + fman * beta).linf() / fman.linf()
print(f"  manufactured solution residual {full:.2e}")
split = pseudoscalar_split(fman, nu, beta)   # a RightSplit keyed (a, b)
print(f"  recombination defect {(split.recombined() - fman).linf() / fman.linf():.1e}")
for key in split.factors:
    r = split.part_residual(key).linf() / fman.linf()
    print(f"  part {key}: diagonal-equation residual {r:.2e}")
# the operator identity behind the split holds for any field, here a random one
res, scale = pseudoscalar_split(spinor_to_bq(phi), nu, beta).identity_residual()
print(f"  (D + nu + M^beta) f = sum of the part operators, defect {res.linf() / scale:.1e}")
