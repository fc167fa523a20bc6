"""Closed-form n = 2 wave function via Legendre functions of the first kind.

The two-particle wave function factors into a centre-of-mass exponential and
a function of the separation expressible through P^mu_nu(cosh x) with
mu = 1/2 - g and nu = lam/2 - 1/2.  This module provides an independent
evaluator for it (hypergeometric series route) together with the three-term
recurrence in the degree that drives the n = 2 dual difference equations.

Domain: separations with cosh(x1 - x2) < 3 or so, keeping the series
argument (1 - z)/2 inside |w| < 0.95; no connection formulas are attempted.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

from .cgamma import gamma_log_sum, log_gamma
from .dual_ops import apply_dual_operator
from .sutherland_ops import EigenResidual
from .symfun import elementary_symmetric

__all__ = [
    "LegendreArgs",
    "HypergeometricError",
    "hyp2f1",
    "legendre_P",
    "closed_form_phi2",
    "recurrence_check",
    "dual_system_residuals",
]

_SERIES_TOL = 1e-14
_MAX_TERMS = 4000
# refuse a sum whose round-off u max|term| / |sum| exceeds this (10x below oracle.spread)
_ROUNDOFF, _CANCELLATION_TOL = 2.0 ** -53, 1e-7


class HypergeometricError(ArithmeticError):
    """Series argument outside the convergence disk, or a parameter pole."""


@dataclass(frozen=True)
class LegendreArgs:
    """Order mu = 1/2 - g, degree nu = lam/2 - 1/2, argument z = cosh x > 1."""

    mu: complex
    nu: complex
    z: float

    def __post_init__(self):
        if not self.z > 1.0:
            raise ValueError(f"argument must satisfy z > 1, got {self.z}")
        if abs((1.0 - self.z) / 2.0) >= 0.95:
            raise ValueError(
                f"z = {self.z} puts the series argument outside |w| < 0.95")


def _near_nonpositive_int(c: complex, tol: float = 1e-12) -> bool:
    k = round(c.real)
    return k <= 0 and abs(c - k) <= tol


def hyp2f1(a: complex, b: complex, c: complex, w: complex) -> complex:
    """Gauss hypergeometric series, |w| < 0.95, truncated with a certified tail.

    Terms follow t_{k+1} = t_k (a+k)(b+k) w / ((c+k)(k+1)); summation stops
    once a geometric bound on the remaining tail drops below 1e-14 relative to
    the running sum.  Terminating (polynomial) cases stop exactly.  A sum that
    cancels so far that u max|term| / |sum| > 1e-7 (u = 2^-53) is refused.
    """
    a, b, c, w = complex(a), complex(b), complex(c), complex(w)
    if _near_nonpositive_int(c):
        raise HypergeometricError(f"lower parameter c = {c} is a non-positive integer")
    if abs(w) >= 0.95:
        raise HypergeometricError(f"|w| = {abs(w):.3f} >= 0.95: series not convergent enough")
    total = term = 1.0 + 0.0j
    peak = 1.0
    for k in range(_MAX_TERMS):
        term *= (a + k) * (b + k) * w / ((c + k) * (k + 1))
        total += term
        peak = max(peak, abs(term))
        # geometric tail bound: once k dominates the parameters the step ratio
        # is below rho < 1 and the tail is |term| * rho / (1 - rho); a
        # terminating series stops at its first zero term
        kk = k + 1.0
        denom = (kk - abs(c)) * (kk + 1.0)
        rho = abs(w) * (kk + abs(a)) * (kk + abs(b)) / denom if denom > 0 else 1.0
        if term == 0 or (rho < 1.0 and abs(term) * rho / (1.0 - rho) <= _SERIES_TOL * abs(total)):
            break
    else:
        raise HypergeometricError(f"series did not converge within {_MAX_TERMS} terms")
    if _ROUNDOFF * peak > _CANCELLATION_TOL * abs(total):
        raise HypergeometricError(f"series cancels: max|term| / |sum| = {peak / abs(total):.3g}")
    return total


def legendre_P(args: LegendreArgs) -> complex:
    """Legendre function of the first kind for real z > 1, principal branch.

    P^mu_nu(z) = ((z+1)/(z-1))^{mu/2} / Gamma(1-mu) * 2F1(-nu, nu+1; 1-mu; (1-z)/2).
    """
    mu, nu, z = args.mu, args.nu, args.z
    if _near_nonpositive_int(1.0 - mu):
        raise HypergeometricError(f"1 - mu = {1.0 - mu} is a non-positive integer")
    w = (1.0 - z) / 2.0
    front = cmath.exp(0.5 * mu * cmath.log((z + 1.0) / (z - 1.0)) - log_gamma(1.0 - mu))
    return front * hyp2f1(-nu, nu + 1.0, 1.0 - mu, w)


def closed_form_phi2(lam1: complex, lam2: complex, x1: float, x2: float,
                     g: float) -> complex:
    """Explicit two-particle wave function, defined up to one global constant.

    sinh^{1/2-g}(x1-x2) * e^{(l1+l2)(x1+x2)/2}
      * Gamma(g - d) Gamma(g + d) * P^{1/2-g}_{d - 1/2}(cosh(x1-x2)),
    with d = (l1 - l2)/2.  Requires x1 > x2 to fix the branch of the
    fractional sinh power.
    """
    if not x1 > x2:
        raise ValueError(f"need x1 > x2 to fix orientation, got {x1} <= {x2}")
    lam1, lam2 = complex(lam1), complex(lam2)
    d = (lam1 - lam2) / 2.0
    sep = x1 - x2
    mu = 0.5 - g
    p_val = legendre_P(LegendreArgs(mu=mu, nu=d - 0.5, z=math.cosh(sep)))
    gammas = cmath.exp(gamma_log_sum([g - d, g + d], ()))
    return (math.sinh(sep) ** mu
            * cmath.exp((lam1 + lam2) * (x1 + x2) / 2.0)
            * gammas * p_val)


def recurrence_check(lam: complex, x: float, g: float) -> float:
    """Residual of the degree recurrence driving the dual difference equation.

    (1/lam) [ (lam + 2g) P_{nu+1} + (lam - 2g) P_{nu-1} ] = (e^x + e^{-x}) P_nu
    with order mu = 1/2 - g and degree nu = lam/2 - 1/2 at z = cosh x.
    """
    lam = complex(lam)
    if abs(lam) < 1e-12:
        raise ValueError("recurrence needs lam != 0")
    mu = 0.5 - g
    z = math.cosh(x)
    nu = lam / 2.0 - 0.5
    p0 = legendre_P(LegendreArgs(mu=mu, nu=nu, z=z))
    p_up = legendre_P(LegendreArgs(mu=mu, nu=nu + 1.0, z=z))
    p_dn = legendre_P(LegendreArgs(mu=mu, nu=nu - 1.0, z=z))
    lhs = ((lam + 2.0 * g) * p_up + (lam - 2.0 * g) * p_dn) / lam
    return EigenResidual.build(lhs, 2.0 * z * p0).relative_residual


def dual_system_residuals(lam1: complex, lam2: complex, x1: float, x2: float,
                          g: float) -> tuple[float, float]:
    """Residuals of the n = 2 dual difference equations on the closed form.

    ``dual_ops``' H_r applied to the closed form against e_r(e^{2x}) times it,
    r = 1, 2: H_1 = -1/(l1-l2) [ (l1-l2+2-2g) T_{l1} + (l1-l2-2+2g) T_{l2} ]
    and H_2 = T_{l1} T_{l2}.
    """
    lam = (complex(lam1), complex(lam2))

    def phi(lam):
        return closed_form_phi2(*lam, x1, x2, g)

    base, y = phi(lam), [math.exp(2.0 * x1), math.exp(2.0 * x2)]
    return tuple(EigenResidual.build(apply_dual_operator(r, lam, g, phi),
                                     elementary_symmetric(r, y) * base).relative_residual
                 for r in (1, 2))
