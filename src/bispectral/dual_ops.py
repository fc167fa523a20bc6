"""Dual difference operators in the spectral variables.

These act by lambda_i -> lambda_i + 2 shifts with rational coefficients.
Three coefficient variants appear:

* ``H_g``    -- (-1)^{r(n-1)} prod (l_i - l_j + 2 - 2g)/(l_i - l_j); the
  operators whose eigenvalues on the wave function are the elementary
  symmetric functions e_r(e^{2x}).
* ``D_g``    -- prod (l_i - l_j + 2g)/(l_i - l_j).
* ``D_1mg``  -- prod (l_i - l_j + 2 - 2g)/(l_i - l_j); H_g is exactly
  (-1)^{r(n-1)} times this one.

Applying a shift to the Mellin-Barnes integral requires moving the
integration contours so they keep separating the shifted pole lattices;
``apply_dual_hamiltonian`` re-runs the full integral at shifted lambda on the
shifted contour (no surrogate continuation).  The gauge function and the
measure weights tie the D and H variants together and degenerate to the
Sklyanin measure at g = 1/2.
"""

from __future__ import annotations

import cmath
from itertools import permutations
from typing import Callable, Literal

from .cgamma import gamma_log_sum
from .symfun import SubsetIndex, elementary_symmetric, subsets
from .sutherland_ops import EigenResidual
from .wavefn import (InfeasibleContourError, QuadratureSpec, as_position,
                     as_spectral, default_contour, eval_phi, measure_mu)

__all__ = [
    "DualWeightKind",
    "dual_coefficient",
    "apply_dual_operator",
    "apply_dual_hamiltonian",
    "gauge_function",
    "measure_weight",
    "gauge_relation_residual",
    "gauge_shift_residual",
    "measure_shift_residual",
]

DualWeightKind = Literal["mu_g", "mu_1mg", "sklyanin"]
_VARIANTS = ("H_g", "D_g", "D_1mg")
_EPS_FLOOR = 1e-300


def _shifted(lam: tuple[complex, ...], subset: SubsetIndex) -> tuple[complex, ...]:
    """lambda + 2 * (indicator of the subset)."""
    inside = set(subset.members)
    return tuple(v + 2.0 if i + 1 in inside else v for i, v in enumerate(lam))


def dual_coefficient(r_subset: SubsetIndex, lam, g: float,
                     variant: str = "H_g") -> complex:
    """Rational shift coefficient of the given subset, sign included for H_g."""
    if variant not in _VARIANTS:
        raise ValueError(f"variant must be one of {_VARIANTS}, got {variant!r}")
    lam = as_spectral(lam).values
    n = len(lam)
    if r_subset.n != n:
        raise ValueError("subset ambient size does not match lambda")
    numer_shift = 2.0 * g if variant == "D_g" else 2.0 - 2.0 * g
    coef = 1.0 + 0.0j
    for i in r_subset.members:
        for j in r_subset.complement():
            diff = lam[i - 1] - lam[j - 1]
            coef *= (diff + numer_shift) / diff
    if variant == "H_g":
        coef *= (-1.0) ** (r_subset.r * (n - 1))
    return coef


def apply_dual_operator(r: int, lam, g: float, f: Callable, variant: str = "H_g") -> complex:
    """Apply the order-r difference operator to a black-box function of lambda.

    Used for operator-algebra probes (gauge relations, commutativity) where f
    is entire, so no contour bookkeeping is involved.
    """
    lam = as_spectral(lam)
    total = 0.0 + 0.0j
    for sub in subsets(lam.n, r):
        total += dual_coefficient(sub, lam, g, variant) * f(_shifted(lam.values, sub))
    return total


def apply_dual_hamiltonian(r: int, lam, x, g: float,
                           quad: QuadratureSpec | None = None) -> EigenResidual:
    """Order-r dual Hamiltonian on Phi versus its e_r(e^{2x}) eigenvalue.

    Each shifted term re-evaluates the Mellin-Barnes integral with all
    contour levels at Re = 1, which separates the shifted pole lattices
    exactly when g > 1.  The sinh prefactor is lambda-independent, so the
    statement on Psi is equivalent to the same relation on Phi; Phi is what
    is tested.  The operator is the H_g variant; D_1mg would multiply both
    sides by the same sign (-1)^{r(n-1)} and give the same residual.
    """
    lam = as_spectral(lam)
    x = as_position(x)
    n = lam.n
    if not (1 <= r <= n):
        raise ValueError(f"need 1 <= r <= n={n}, got r={r}")
    if g <= 1.0:
        raise InfeasibleContourError(
            f"dual Hamiltonians need g > 1: the shifted-contour window "
            f"(-g+2, g) is empty for g = {g}")
    # every subset shifts at least one variable, so all share the Re = 1 contour; the
    # shifts are real and both contours have c1 = c2, so all share one n = 3 lattice
    contour, lattice = default_contour(n, g, (2,) * n), {}
    total = 0.0 + 0.0j
    for sub in subsets(n, r):
        coef = dual_coefficient(sub, lam, g)
        total += coef * eval_phi(_shifted(lam.values, sub), x, g, contour=contour, quad=quad,
                                 lattice=lattice)
    phi = eval_phi(lam, x, g, quad=quad, lattice=lattice)
    eig = elementary_symmetric(r, [cmath.exp(2.0 * xi) for xi in x.values])
    return EigenResidual.build(total, eig * phi)


def gauge_function(lam, g: float) -> complex:
    """Log of prod_{p != q} Gamma((l_p - l_q + 2 - 2g)/2)."""
    lam = as_spectral(lam).values
    args = []
    for p in range(len(lam)):
        for q in range(len(lam)):
            if p != q:
                args.append((lam[p] - lam[q] + 2.0 - 2.0 * g) / 2.0)
    return gamma_log_sum(args, ())


def gauge_shift_residual(lam, i: int, g: float) -> float:
    """Relative residual of the gauge shift law under lambda_i -> lambda_i + 2, i 0-based.

    Predicted ratio: (-1)^{n-1} prod_{j != i} (l_i - l_j + 2 - 2g) / (l_i - l_j + 2g).
    """
    lam = as_spectral(lam).values
    n = len(lam)
    ratio = cmath.exp(gauge_function(_shifted(lam, SubsetIndex((i + 1,), n)), g)
                      - gauge_function(lam, g))
    predicted = (-1.0) ** (n - 1)
    for j in range(n):
        if j != i:
            predicted *= (lam[i] - lam[j] - 2.0 * g + 2.0) / (lam[i] - lam[j] + 2.0 * g)
    return abs(ratio - predicted) / abs(predicted)


def measure_weight(lam, g: float, kind: DualWeightKind) -> complex:
    """Log of the requested dual measure weight (inverse-gamma products).

    mu_1mg is the wave function's within-level measure ``measure_mu`` at g,
    mu_g the same measure at 1 - g; sklyanin is prod_{j != k} 1/G(l_j - l_k).
    """
    lam = as_spectral(lam).values
    if kind == "mu_1mg":
        return measure_mu(lam, g)
    if kind == "mu_g":
        return measure_mu(lam, 1.0 - g)
    if kind != "sklyanin":
        raise ValueError(f"unknown weight kind {kind!r}")
    return gamma_log_sum((), [a - b for a, b in permutations(lam, 2)])


def measure_shift_residual(lam, i: int, g: float, kind: DualWeightKind) -> float:
    """Relative residual of the mu_g / mu_1mg shift law under lambda_i -> lambda_i + 2.

    Predicted ratio for mu_g, i 0-based and d = l_i - l_j:
    prod_{j != i} (d + 2)/d * (d + 2g)/(d + 2 - 2g); mu_1mg inverts the last quotient.
    """
    if kind not in ("mu_g", "mu_1mg"):
        raise ValueError(f"shift law is stated for mu_g and mu_1mg, got {kind!r}")
    lam = as_spectral(lam).values
    n = len(lam)
    ratio = cmath.exp(measure_weight(_shifted(lam, SubsetIndex((i + 1,), n)), g, kind)
                      - measure_weight(lam, g, kind))
    predicted = 1.0 + 0.0j
    for j in range(n):
        if j != i:
            d = lam[i] - lam[j]
            up, down = d + 2.0 * g, d + 2.0 - 2.0 * g
            predicted *= (d + 2.0) / d
            predicted *= up / down if kind == "mu_g" else down / up
    return abs(ratio - predicted) / abs(predicted)


def gauge_relation_residual(r: int, lam, g: float, f: Callable) -> float:
    """Residual of D_r^{(g)} (gauge * f) = gauge * (H_r^{(g)} f) at lambda.

    Both sides are divided by gauge(lambda), so only gauge ratios are
    exponentiated and the probe stays well-scaled for any coupling.
    """
    lam = as_spectral(lam)
    base_log = gauge_function(lam, g)
    lhs = 0.0 + 0.0j
    for sub in subsets(lam.n, r):
        shifted = _shifted(lam.values, sub)
        ratio = cmath.exp(gauge_function(shifted, g) - base_log)
        lhs += dual_coefficient(sub, lam, g, "D_g") * ratio * f(shifted)
    rhs = apply_dual_operator(r, lam, g, f, "H_g")
    return abs(lhs - rhs) / max(abs(rhs), abs(lhs), _EPS_FLOOR)
