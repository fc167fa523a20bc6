"""Dual difference operators in the spectral variables.

These act by lambda_i -> lambda_i + 2 shifts with rational coefficients, one
term per r-subset of the indices: a sorted tuple of 0-based members, summed in
the lexicographic order of ``itertools.combinations(range(n), r)``.  Two
coefficient products appear:

* ``H_g``  -- (-1)^{r(n-1)} prod (l_i - l_j + 2 - 2g)/(l_i - l_j); the
  operators whose eigenvalues on the wave function are the elementary
  symmetric functions e_r(e^{2x}).  Without the sign this is the D_{1-g}
  form, so D_{1-g} = (-1)^{r(n-1)} H_g has the same eigenfunctions.
* ``D_g``  -- prod (l_i - l_j + 2g)/(l_i - l_j), which the gauge function
  conjugates into H_g.

``apply_dual_operator`` applies H_g to any function of lambda.  Applying a
shift to the Mellin-Barnes integral requires moving the integration contours
so they keep separating the shifted pole lattices; ``apply_dual_hamiltonian``
applies H_g to Phi, re-running the full integral at shifted lambda on the
shifted contour (no surrogate continuation).  The gauge function and the
measure weights tie D_g and H_g together and degenerate to the Sklyanin
measure at g = 1/2.
"""

from __future__ import annotations

import cmath
from itertools import combinations, permutations
from typing import Callable, Literal

import numpy as np

from .cgamma import GammaPoleError, log_gamma
from .symfun import elementary_symmetric
from .sutherland_ops import _EPS_FLOOR, EigenResidual
from .wavefn import (QuadratureSpec, as_position, as_spectral, default_contour, eval_phi,
                     measure_mu)

__all__ = [
    "DualWeightKind",
    "dual_coefficient",
    "apply_dual_operator",
    "apply_dual_hamiltonian",
    "dual_eigen_residual",
    "gauge_function",
    "measure_weight",
    "gauge_relation_residual",
    "gauge_shift_residual",
    "measure_shift_residual",
]

DualWeightKind = Literal["mu_g", "mu_1mg", "sklyanin"]


def _check_members(members: tuple[int, ...], n: int) -> None:
    if list(members) != sorted(set(members)) or any(not 0 <= i < n for i in members):
        raise ValueError(f"subset members must be sorted, distinct and in 0..{n - 1}, "
                         f"got {members}")


def _shifted(lam: tuple[complex, ...], members: tuple[int, ...]) -> tuple[complex, ...]:
    """lambda + 2 * (indicator of the 0-based members)."""
    _check_members(members, len(lam))
    return tuple(v + 2.0 if i in members else v for i, v in enumerate(lam))


def _coefficient_product(members: tuple[int, ...], lam: tuple[complex, ...],
                         shift: complex) -> complex:
    """prod over members i and the other indices j of (l_i - l_j + shift)/(l_i - l_j)."""
    coef = 1.0 + 0.0j
    for i in members:
        for j in range(len(lam)):
            if j not in members:
                diff = lam[i] - lam[j]
                coef *= (diff + shift) / diff
    return coef


def dual_coefficient(members: tuple[int, ...], lam, g: float) -> complex:
    """H_g's rational shift coefficient of the 0-based subset members, sign included."""
    lam = as_spectral(lam).values
    n = len(lam)
    _check_members(members, n)
    return (_coefficient_product(members, lam, 2.0 - 2.0 * g)
            * (-1.0) ** (len(members) * (n - 1)))


def apply_dual_operator(r: int, lam, g: float, f: Callable) -> complex:
    """Apply the order-r dual Hamiltonian H_g to a black-box function of lambda.

    For f entire (gauge relations, commutativity probes) no contour bookkeeping
    is involved; ``apply_dual_hamiltonian`` passes Phi on the shifted contour.
    """
    lam = as_spectral(lam)
    if not (0 <= r <= lam.n):
        raise ValueError(f"need 0 <= r <= n={lam.n}, got r={r}")
    total = 0.0 + 0.0j
    for members in combinations(range(lam.n), r):
        total += dual_coefficient(members, lam, g) * f(_shifted(lam.values, members))
    return total


def apply_dual_hamiltonian(r: int, lam, x, g: float,
                           quad: QuadratureSpec | None = None) -> EigenResidual:
    """Order-r dual Hamiltonian on Phi versus its e_r(e^{2x}) eigenvalue.

    Each shifted term re-evaluates the Mellin-Barnes integral with all
    contour levels at Re = 1, which separates the shifted pole lattices
    exactly when g > 1; ``default_contour`` refuses any other g before any
    evaluation.  The sinh prefactor is lambda-independent, so the
    statement on Psi is equivalent to the same relation on Phi; Phi is what
    is tested.  D_{1-g} would multiply both sides by the same sign
    (-1)^{r(n-1)} and give the same residual.
    """
    lam = as_spectral(lam)
    x = as_position(x)
    n = lam.n
    if not (1 <= r <= n):
        raise ValueError(f"need 1 <= r <= n={n}, got r={r}")
    # every subset shifts at least one variable, so all share the Re = 1 contour; the
    # shifts are real and both contours have c1 = c2, so all share one lattice: the kernel
    # columns (a shifted lambda_k's is its unshifted one's read back by K(-d) = K(d)) and,
    # for n = 3, the offset envelope and moments
    contour, lattice = default_contour(n, g, shifted=True), {}
    phi = eval_phi(lam, x, g, quad=quad, lattice=lattice)
    return dual_eigen_residual(r, lam, x.values, g, lambda s: eval_phi(
        s, x, g, contour=contour, quad=quad, lattice=lattice), phi)


def dual_eigen_residual(r: int, lam, x, g: float, f: Callable, base: complex) -> EigenResidual:
    """The dual eigen-relation H_r f = e_r(e^{2x}) f, with base = f(lambda) evaluated as the
    caller likes; its relative residual is the same at x + c for every c.  An e_r(e^{2x})
    outside the normal double range raises OverflowError."""
    total = apply_dual_operator(r, lam, g, f)
    eig = elementary_symmetric(r, [cmath.exp(2.0 * xi) for xi in x])
    if not _EPS_FLOOR < abs(eig) < cmath.inf:
        raise OverflowError(f"e_{r}(e^(2x)) = {abs(eig):.3g} is out of range at x = {tuple(x)}")
    return EigenResidual.build(total, eig * base)


def gauge_function(lam, g: float) -> complex:
    """Log of prod_{p != q} Gamma((l_p - l_q + 2 - 2g)/2)."""
    lam = as_spectral(lam).values
    args = []
    for p in range(len(lam)):
        for q in range(len(lam)):
            if p != q:
                args.append((lam[p] - lam[q] + 2.0 - 2.0 * g) / 2.0)
    return complex(np.sum(log_gamma(args)))


def gauge_shift_residual(lam, i: int, g: float) -> float:
    """Relative residual of the gauge shift law under lambda_i -> lambda_i + 2, i 0-based.

    Predicted ratio: (-1)^{n-1} prod_{j != i} (l_i - l_j + 2 - 2g) / (l_i - l_j + 2g).
    """
    lam = as_spectral(lam).values
    n = len(lam)
    ratio = cmath.exp(gauge_function(_shifted(lam, (i,)), g)
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
    try:
        return -complex(np.sum(log_gamma([a - b for a, b in permutations(lam, 2)])))
    except GammaPoleError:  # a factor 1/G on its pole: the weight is zero, as in measure_mu
        return complex(-cmath.inf)


def measure_shift_residual(lam, i: int, g: float, kind: DualWeightKind) -> float:
    """Relative residual of the mu_g / mu_1mg shift law under lambda_i -> lambda_i + 2.

    Predicted ratio for mu_g, i 0-based and d = l_i - l_j:
    prod_{j != i} (d + 2)/d * (d + 2g)/(d + 2 - 2g); mu_1mg inverts the last quotient.
    """
    if kind not in ("mu_g", "mu_1mg"):
        raise ValueError(f"shift law is stated for mu_g and mu_1mg, got {kind!r}")
    lam = as_spectral(lam).values
    n = len(lam)
    ratio = cmath.exp(measure_weight(_shifted(lam, (i,)), g, kind)
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
    for members in combinations(range(lam.n), r):
        shifted = _shifted(lam.values, members)
        ratio = cmath.exp(gauge_function(shifted, g) - base_log)
        lhs += _coefficient_product(members, lam.values, 2.0 * g) * ratio * f(shifted)
    rhs = apply_dual_operator(r, lam, g, f)
    return abs(lhs - rhs) / max(abs(rhs), abs(lhs), _EPS_FLOOR)
