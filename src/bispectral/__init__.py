"""Numerical and exact verification toolkit for the hyperbolic Sutherland
wave function and its dual difference operators.

Layers:

* ``cgamma`` / ``symfun`` -- log-gamma kernel and elementary symmetric
  functions.
* ``wavefn``  -- nested Mellin-Barnes evaluation of Phi / Psi.
* ``sutherland_ops`` -- differential Hamiltonians applied to the wave function.
* ``dual_ops`` -- difference operators in the spectral variables (sums over
  0-based index subsets), gauges, measure weights.
* ``macdonald`` -- the q,t-difference parents and their tau -> 0 limit.
* ``identities`` -- exact verification of the subset-sum recurrences and
  residue relations, on plain integers.
* ``legendre`` -- the independent n = 2 closed-form oracle.
* ``cli`` -- batch verification runs with NDJSON reports.
"""

from .cgamma import GammaPoleError, gamma_log_sum, log_gamma
from .symfun import elementary_symmetric
from .wavefn import (CoincidentCoordinatesError, ConvergenceWindowError,
                     InfeasibleContourError, PositionPoint, QuadratureSpec,
                     SpectralPoint, TailNotConvergedError, default_contour,
                     eval_phi, eval_phi_many, eval_psi, kernel_K, measure_mu,
                     sinh_prefactor, validate_contour)
from .sutherland_ops import (EigenResidual, apply_H1, apply_H2,
                             apply_reduced_HS, prefactor_log_derivatives)
from .dual_ops import (apply_dual_hamiltonian, apply_dual_operator,
                       dual_coefficient, gauge_function, gauge_relation_residual,
                       gauge_shift_residual, measure_shift_residual,
                       measure_weight)
from .macdonald import (LaurentPolynomial, MacdonaldParams, TorusPoint,
                        apply_macdonald, qpochhammer, tau_limit_check,
                        verify_gauge_equivalence, weight_and_gauge,
                        weight_limit_check, weight_shift_residual)
from .identities import (binomial_limit_check, residue_check,
                         substitution_check, substitution_map, sum_S,
                         verify_lemma1)
from .legendre import (HypergeometricError, LegendreArgs, closed_form_phi2,
                       dual_system_residuals, hyp2f1, legendre_P,
                       recurrence_check)

__version__ = "0.1.0"
