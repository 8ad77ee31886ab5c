"""Biquaternion calculus on uniform 3-D grids.

Arithmetic of complex quaternions, finite-difference realizations of the
first-order operator D = e1 d1 + e2 d2 + e3 d3 and its perturbations
D + M^alpha, the C^4 <-> H(C) Dirac bridge, Maxwell/force-free reductions,
and the factorization of the Schrodinger operator with its solution
machinery.  ``biquat.harness`` runs the named verification suites; the
``verify`` console script is a thin wrapper around it.
"""

from .algebra import (BASIS, E0, E1, E2, E3, Biquaternion, ProjectorPair,
                      is_zero_divisor, qmul, right_projector, split_projectors,
                      vec_square)
from .alpha import (AlphaSpec, AxialAlpha, GradientAlpha, SeparableAlpha,
                    reciprocal_alpha)
from .dirac import (DiracParams, SpinorField, apply_dirac, bq_to_spinor,
                    equivalent_alpha, free_plane_wave, intertwining_residual,
                    manufactured_split_solution, pseudoscalar_split,
                    spinor_to_bq)
from .factorization import (AxialOperators, ClosedFormFamily, PotentialSet,
                            ReductionReport, RightInverseResult,
                            build_solution, c_map, factorization_residual,
                            j_map, pi_map, potentials, q_map,
                            riccati_residual, right_inverse,
                            zero_divisor_reduction)
from .grid import (BQField, Grid3, Norms, RightSplit, l2, laplacian,
                   laplacian_wide, linf, nabla, nabla_alpha, norms,
                   partial_deriv, reflect_x3, sample)
from .physics import (MediumFields, circular_wave, diagonalize_em,
                      forcefree_split, medium_alpha, static_maxwell_residual,
                      undiagonalize_em)

__version__ = "0.1.0"
