"""Sutherland Hamiltonians applied to the wave function.

H1 (total momentum) and H2 (the sinh^-2 pair-interaction Hamiltonian) act on
the full wave function Psi = prefactor * Phi; the reduced operators HS1, HS2
act on Phi directly.  All coordinate derivatives of Phi are exact
(differentiation under the integral sign, see wavefn); the prefactor
derivatives are closed-form coth/sinh expressions.  Each application returns
an EigenResidual comparing against the known eigenvalue, with the round-off
floor of that comparison.  Every operator takes ``eval_phi_many``'s lattice
dict as its fourth argument, positional or keyword, so the checks of one run
can share the gamma tables and values their evaluations build.

Eigenvalues: H1 -> sum(lam), H2 -> -sum(lam^2) on Psi; HS1 -> sum(lam) and
HS2 -> sum(lam^2) on Phi.  The HS2 eigenvalue follows from the exact
conjugation -W^{-1} H2 W = HS2 (the constant coupling term of HS2 cancels
the conjugation constant identically); it is validated against H2 in the
test suite at n = 1, 2 before being relied on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .wavefn import PositionPoint, SpectralPoint, eval_phi_many, sinh_prefactor

__all__ = [
    "EigenResidual",
    "apply_H1",
    "apply_H2",
    "apply_reduced_HS",
    "prefactor_log_derivatives",
]

_EPS_FLOOR = 1e-300
# a sum's round-off is at most about eps sum|term| (Higham, Accuracy and Stability of
# Numerical Algorithms, 2nd ed., 2002, sec. 4.2); the terms reach down to Phi's quadrature
# nodes at n = 2 (eval_phi_many's sizes).  Over 32 points (n = 2, 3; g = 1.5, 20; two
# coordinates 1e-1 ... 1e-8 apart) residual / (eps sum|term| / |expected|) read at most 3.7,
# and 13 for n = 3 HS2, whose nodes are not counted: c = 16 bounds them all
_SUM_FLOOR = 16.0 * 2.0 ** -53


@dataclass(frozen=True)
class EigenResidual:
    """Operator application vs eigenvalue * eigenfunction.  floor is the relative residual's
    round-off, _SUM_FLOOR sum|term| / |expected| over the terms of value, down to the
    quadrature nodes eval_phi_many's sizes count (0: not formed)."""

    value: complex
    expected: complex
    relative_residual: float
    floor: float = 0.0

    @classmethod
    def build(cls, value: complex, expected: complex, size: float = 0.0) -> "EigenResidual":
        scale = max(abs(expected), _EPS_FLOOR)
        return cls(value=value, expected=expected, relative_residual=abs(value - expected) / scale,
                   floor=_SUM_FLOOR * size / scale)


def prefactor_log_derivatives(x, g: float, i: int) -> tuple[float, float]:
    """(d_i log W, d_i^2 log W) for W = prod_{j<k} sinh^g |x_j - x_k|.

    d_i log W = g * sum_{j != i} coth(x_i - x_j); the sign of each term comes
    from d/dx_i log sinh|x_i - x_j|.  x is read as a PositionPoint, which refuses
    coincident coordinates: they are not regularised.
    """
    x = PositionPoint(x)
    first = 0.0
    second = 0.0
    for j in range(len(x)):
        if j == i:
            continue
        d = x[i] - x[j]
        first += g / math.tanh(d)
        second -= g / math.sinh(d) ** 2
    return first, second


def _jet(lam, x, g: float, order: int, lattice: dict | None) -> tuple[tuple, tuple]:
    """(Phi, [d_i Phi], [d_i^2 Phi]) from one quadrature pass, and the same of the sizes
    eval_phi_many reports for them; the second derivatives only for order 2, else []."""
    n = len(lam)
    derivs = [(0,) * n] + [tuple(o if j == i else 0 for j in range(n))
                           for o in range(1, order + 1) for i in range(n)]
    sizes: list = []
    vals = eval_phi_many(lam, x, g, derivs, lattice=lattice, sizes=sizes)
    return (vals[0], vals[1:n + 1], vals[n + 1:]), (sizes[0], sizes[1:n + 1], sizes[n + 1:])


def apply_H1(lam, x, g: float, lattice: dict | None = None) -> EigenResidual:
    """(sum_i d/dx_i) Psi compared with (sum_p lam_p) Psi."""
    lam, x = SpectralPoint(lam), PositionPoint(x)
    (phi, grad, _), (s_phi, s_grad, _) = _jet(lam, x, g, 1, lattice)
    w = sinh_prefactor(x, g)
    firsts = [prefactor_log_derivatives(x, g, i)[0] for i in range(len(lam))]
    value = w * (sum(firsts) * phi + sum(grad))
    expected = sum(lam) * w * phi
    size = abs(w) * (sum(map(abs, firsts)) * s_phi + sum(s_grad))
    return EigenResidual.build(value, expected, size)


def apply_H2(lam, x, g: float, lattice: dict | None = None) -> EigenResidual:
    """Pair-interaction Hamiltonian on Psi compared with -(sum lam^2) Psi."""
    lam, x = SpectralPoint(lam), PositionPoint(x)
    n = len(lam)
    (phi, grad, grad2), (s_phi, s_grad, s_grad2) = _jet(lam, x, g, 2, lattice)
    w = sinh_prefactor(x, g)

    lap_psi, size = 0.0 + 0.0j, 0.0
    for i in range(n):
        a, a_prime = prefactor_log_derivatives(x, g, i)
        lap_psi += w * ((a * a + a_prime) * phi + 2.0 * a * grad[i] + grad2[i])
        size += (a * a - a_prime) * s_phi + 2.0 * abs(a) * s_grad[i] + s_grad2[i]
    potential = 0.0
    for i in range(n):
        for j in range(n):
            if i != j:
                potential += g * (g - 1.0) / math.sinh(x[i] - x[j]) ** 2
    value = -lap_psi + potential * w * phi
    expected = -sum(v * v for v in lam) * w * phi
    return EigenResidual.build(value, expected, abs(w) * (size + abs(potential) * s_phi))


def apply_reduced_HS(lam, x, g: float, lattice: dict | None = None,
                     order: int = 1) -> EigenResidual:
    """Reduced Hamiltonian HS1 or HS2 on Phi (no prefactor)."""
    if order not in (1, 2):
        raise ValueError(f"order must be 1 or 2, got {order}")
    lam, x = SpectralPoint(lam), PositionPoint(x)
    n = len(lam)
    (phi, grad, grad2), (s_phi, s_grad, s_grad2) = _jet(lam, x, g, order, lattice)
    if order == 1:
        return EigenResidual.build(sum(grad), sum(lam) * phi, sum(s_grad))
    k = g * g * n * (n * n - 1) / 3.0
    value, size = sum(grad2) + k * phi, sum(s_grad2) + abs(k) * s_phi
    for i in range(n):
        for j in range(i + 1, n):
            cth = 1.0 / math.tanh(x[i] - x[j])
            value += 2.0 * g * cth * (grad[i] - grad[j])
            size += 2.0 * g * abs(cth) * (s_grad[i] + s_grad[j])
    expected = sum(v * v for v in lam) * phi
    return EigenResidual.build(value, expected, size)
