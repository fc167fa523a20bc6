"""q,t-Macdonald difference operators, their weights, and the tau -> 0 limit.

The operators act on functions of n nonzero complex coordinates by q^2 dilations of
r-element coordinate subsets with rational coefficients, the terms of
``symfun.subset_terms`` that the dual operators share.  The operator and weight of the
pair (q, q/t) are those of (q, t) evaluated at ``MacdonaldParams(q, q / t)``.  The
weights are one ratio of q-Pochhammer products with two parameters (a, b): the
scalar-product weight is (a, b) = (1, t^2), and the gauge function relating the
parameter pairs (q, t) and (q, q/t) is (a, b) = (q, q^2/t^2).

With q = e^{pi i tau}, t = q^g and tau -> 0 the first operator degenerates
into the reduced Sutherland Hamiltonians; ``tau_limit_check`` reads their
action on polynomial test functions off exact Taylor coefficients in tau, and
``weight_limit_check`` verifies the limiting weight against its defining
differential equation.  The operators take any finite nonzero q, and
``qpochhammer`` refuses |q| >= 1 for the weights.
"""

from __future__ import annotations

import cmath
import math
import sys
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .sutherland_ops import _EPS_FLOOR
from .symfun import subset_terms
from .wavefn import _Point

__all__ = [
    "MacdonaldParams",
    "TorusPoint",
    "LaurentPolynomial",
    "qpochhammer",
    "apply_macdonald",
    "weight_and_gauge",
    "weight_shift_residual",
    "verify_gauge_equivalence",
    "tau_limit_check",
    "TauFitResult",
    "weight_limit_check",
]

# q-Pochhammer products stop once |z| |qsq|^N drops below this
_TRUNC_TOL = 1e-16
# the tau fit (tau_limit_check): N nodes on |sigma| = min(radius, kappa / type of v), and
# its round-off, 2 eps per value (measured)
_TAU_NODES, _TAU_RADIUS, _TAU_KAPPA, _TAU_FLOOR = 32, 0.05, 3.0, 2.0 ** -51


@dataclass(frozen=True)
class MacdonaldParams:
    """Finite nonzero (q, t).  ``qpochhammer`` refuses |q| >= 1."""

    q: complex
    t: complex

    def __post_init__(self):
        if not (cmath.isfinite(self.q) and cmath.isfinite(self.t)):
            raise ValueError(f"q and t must be finite, got q = {self.q}, t = {self.t}")
        if self.q == 0 or self.t == 0:
            raise ValueError("q and t must be nonzero")

    @property
    def qsq(self) -> complex:
        return self.q * self.q


class TorusPoint(_Point):
    """n finite nonzero complex coordinates, pairwise distinct: the coefficients divide by
    their differences, so only equal coordinates are refused."""

    __slots__ = ()
    _noun, _tol = "torus point", 0.0

    def __new__(cls, values):
        point = super().__new__(cls, values)
        if 0 in point:
            raise ValueError(f"torus point {point}: every value must be nonzero")
        return point


def qpochhammer(z: complex, qsq: complex) -> complex:
    """(z; qsq)_infinity = prod_{i >= 0} (1 - z qsq^i), truncated.

    Truncates once |z| |qsq|^N < 1e-16, which bounds the neglected log
    tail by ~ 1e-16 / (1 - |qsq|).  Refuses non-finite input and |qsq| >= 1.
    """
    aq = abs(qsq)
    if not (cmath.isfinite(z) and aq < 1.0):
        raise ValueError(f"q-Pochhammer needs a finite z and |qsq| < 1, got z = {z}, qsq = {qsq}")
    if z == 0:
        return 1.0 + 0.0j
    n_terms = max(1, int(math.ceil(
        (math.log(_TRUNC_TOL) - math.log(max(abs(z), 1.0))) / math.log(aq))) + 1) if aq > 0 else 1
    out = 1.0 + 0.0j
    zq = complex(z)
    for _ in range(n_terms):
        out *= (1.0 - zq)
        zq *= qsq
    return out


def apply_macdonald(r: int, params: MacdonaldParams, point, f: Callable) -> complex:
    """Order-r Macdonald operator applied to a black-box function at the point.

    Coefficients (t z_i - t^{-1} z_j)/(z_i - z_j); subsets of r coordinates
    are scaled by q^2.  M_r(.|q, q/t) is this at ``MacdonaldParams(q, q / t)``.
    """
    ca, cb, qsq = params.t, 1.0 / params.t, params.qsq
    total = 0.0 + 0.0j
    for coef, shifted in subset_terms(r, TorusPoint(point),
                                      lambda a, b: (ca * a - cb * b) / (a - b), lambda v: v * qsq):
        total += coef * f(shifted)
    return total


def weight_and_gauge(params: MacdonaldParams, point, a: complex, b: complex) -> complex:
    """prod_{j != k} (a z_j/z_k; q^2)_inf / (b z_j/z_k; q^2)_inf at the point.

    (a, b) = (1, t^2) is the scalar-product weight of (q, t), and the same pair
    at ``MacdonaldParams(q, q / t)`` that of (q, q/t); (a, b) = (q, q^2/t^2) is
    the gauge function between (q, t) and (q, q/t).
    """
    z, qsq = TorusPoint(point), params.qsq
    out = 1.0 + 0.0j
    for w in [zj / zk for j, zj in enumerate(z) for k, zk in enumerate(z) if j != k]:
        out *= qpochhammer(a * w, qsq) / qpochhammer(b * w, qsq)
    return out


def weight_shift_residual(params: MacdonaldParams, point, i: int, a: complex,
                          b: complex) -> float:
    """Relative residual of the weight's shift law under z_i -> q^2 z_i, i 0-based.

    Predicted ratio for the pair (a, b):
    prod_{j != i} (z_i - a q^{-2} z_j)(b z_i - z_j) / ((a z_i - z_j)(z_i - b q^{-2} z_j)).
    """
    z, qsq = TorusPoint(point), params.qsq
    if not 0 <= i < len(z):
        raise ValueError(f"coordinate index must be in 0..{len(z) - 1}, got {i}")
    shifted = tuple(v * qsq if k == i else v for k, v in enumerate(z))
    ratio = weight_and_gauge(params, shifted, a, b) / weight_and_gauge(params, z, a, b)
    predicted = 1.0 + 0.0j
    for j in range(len(z)):
        if j != i:
            predicted *= ((z[i] - a / qsq * z[j]) * (b * z[i] - z[j])
                          / ((a * z[i] - z[j]) * (z[i] - b / qsq * z[j])))
    return abs(ratio - predicted) / abs(predicted)


def verify_gauge_equivalence(r: int, params: MacdonaldParams, point, f: Callable) -> float:
    """Residual of M_r(.|q,t)(gauge * f) = gauge * M_r(.|q,q/t)(f) at the point."""
    point = TorusPoint(point)
    a, b = params.q, (params.q / params.t) ** 2

    def gauged(z):
        return weight_and_gauge(params, z, a, b) * f(z)

    lhs = apply_macdonald(r, params, point, gauged)
    rhs = (weight_and_gauge(params, point, a, b)
           * apply_macdonald(r, MacdonaldParams(params.q, params.q / params.t), point, f))
    return abs(lhs - rhs) / max(abs(lhs), abs(rhs), _EPS_FLOOR)


class LaurentPolynomial:
    """Sparse Laurent polynomial in n variables; exact under coordinate scaling.

    Monomials map exponent tuples to complex coefficients.  Supports
    evaluation and the Euler-type derivative z_i d/dz_i, which is all the
    tau-limit checks need.
    """

    def __init__(self, n: int, terms: dict[tuple[int, ...], complex]):
        self.n = n
        self.terms = {tuple(k): complex(v) for k, v in terms.items() if v != 0}
        if any(len(expo) != n for expo in self.terms):
            raise ValueError(f"every exponent tuple needs length n = {n}, got {list(self.terms)}")

    @classmethod
    def random(cls, n: int, rng: np.random.Generator, max_degree: int = 4,
               n_terms: int = 4) -> "LaurentPolynomial":
        terms: dict[tuple[int, ...], complex] = {}
        while len(terms) < n_terms:
            expo = tuple(int(rng.integers(-max_degree, max_degree + 1)) for _ in range(n))
            terms[expo] = complex(rng.standard_normal(), rng.standard_normal())
        return cls(n, terms)

    def __call__(self, z: Sequence[complex]) -> complex:
        if len(z) != self.n:
            raise ValueError(f"a polynomial in n = {self.n} variables, "
                             f"called at {len(z)} coordinates")
        total = 0.0 + 0.0j
        for expo, coef in self.terms.items():
            mono = coef
            for zi, ei in zip(z, expo):
                mono *= complex(zi) ** ei
            total += mono
        return total

    def euler_derivative(self, i: int) -> "LaurentPolynomial":
        """z_i d/dz_i as a Laurent polynomial."""
        return LaurentPolynomial(
            self.n, {expo: coef * expo[i] for expo, coef in self.terms.items()})


@dataclass(frozen=True)
class TauFitResult:
    hs1_fitted: complex
    hs1_analytic: complex
    hs2_fitted: complex
    hs2_analytic: complex
    floor: float = 0.0

    @property
    def hs1_error(self) -> float:
        return abs(self.hs1_fitted - self.hs1_analytic) / max(abs(self.hs1_analytic), 1.0)

    @property
    def hs2_error(self) -> float:
        return abs(self.hs2_fitted - self.hs2_analytic) / max(abs(self.hs2_analytic), 1.0)

    @property
    def error(self) -> float:
        return float(np.max([self.hs1_error, self.hs2_error]))


def _reduced_action(f: LaurentPolynomial, z: Sequence[complex], g: float) -> tuple[complex, complex]:
    """Analytic (HS1 f, HS2 f) at z for a Laurent polynomial f."""
    n = f.n
    euler = [f.euler_derivative(i) for i in range(n)]
    hs1 = 2.0 * sum(d(z) for d in euler)
    hs2 = sum(d.euler_derivative(i)(z) for i, d in enumerate(euler))
    for i in range(n):
        for j in range(i + 1, n):
            hs2 += g * (z[i] + z[j]) / (z[i] - z[j]) * (euler[i](z) - euler[j](z))
    hs2 += g * g * n * (n * n - 1) / 12.0 * f(z)
    return hs1, 4.0 * hs2


def tau_limit_check(x_point: Sequence[float], g: float, f: LaurentPolynomial) -> TauFitResult:
    """Taylor coefficients of M_1 in tau against the reduced Hamiltonians.

    With tau = i*sigma, q = e^{-pi sigma} and t = e^{-pi g sigma} = q^g, v(sigma) =
    M_1 f - n f is entire in sigma, of exponential type T = pi ((n - 1) g + 2 max|exponent
    of f|), and equals -pi sigma HS1 f + (pi sigma)^2/2 HS2 f + O(sigma^3).  The trapezoid
    rule on |sigma| = rho = min(0.05, 3 / T) with 32 nodes gives its Taylor
    coefficients c_k = mean(v / sigma^k) up to aliasing of c_{k+32}, below
    (T rho)^32 / 32! ~ 1e-20 (Trefethen & Weideman, SIAM Rev. 56 (2014)).  Each v
    carries round-off of about 2 eps max|M_1 f|, which c_k divides by rho^k: the result's
    floor is the larger k 2 eps max|M_1 f| / ((pi rho)^k max(|HS_k f|, 1)).  Half the nodes
    have |q| > 1, which the operator accepts.  A rho so small (g past about 1e150) that the
    quotients v / sigma^2 would leave the double range raises OverflowError instead.
    """
    z = tuple(cmath.exp(2.0 * xi) for xi in x_point)
    n = len(z)
    hs1, hs2 = _reduced_action(f, z, g)
    degree = max((abs(e) for expo in f.terms for e in expo), default=0)
    exp_type = math.pi * ((n - 1) * g + 2 * degree)
    rho = _TAU_KAPPA / exp_type if exp_type * _TAU_RADIUS > _TAU_KAPPA else _TAU_RADIUS
    if not exp_type < math.inf:
        raise OverflowError(f"the tau fit's exponential type is out of range at g = {g:.3g}")
    sigmas = rho * np.exp(2j * np.pi * np.arange(_TAU_NODES) / _TAU_NODES)
    base = n * f(z)
    # t = e^{-pi g sigma}, not q^g, which carries g times q's rounding
    totals = [apply_macdonald(1, MacdonaldParams(cmath.exp(-math.pi * s),
                                                 cmath.exp(-math.pi * g * s)), z, f)
              for s in sigmas]
    values = np.array(totals) - base
    # the sum of c_2's quotients stays finite only while N max|v| < DBL_MAX rho^2
    if not _TAU_NODES * float(np.max(np.abs(values))) < sys.float_info.max * rho * rho:
        raise OverflowError(f"the tau fit's quotients v / sigma^2 on |sigma| = {rho:.3g} "
                            f"(exponential type {exp_type:.3g}) are out of range")
    c1, c2 = np.mean(values / sigmas), np.mean(values / sigmas ** 2)
    noise = _TAU_FLOOR * float(np.max(np.abs(totals))) / (math.pi * rho)
    floor = max(noise / max(abs(hs1), 1.0), 2.0 * noise / (math.pi * rho) / max(abs(hs2), 1.0))
    return TauFitResult(hs1_fitted=complex(-c1 / math.pi), hs1_analytic=hs1, floor=floor,
                        hs2_fitted=complex(2.0 * c2 / math.pi ** 2), hs2_analytic=hs2)


def weight_limit_check(x_point: Sequence[float], g: float) -> float:
    """Residual of the limiting-weight equation z_i d_i log Delta = g sum (z_i+z_j)/(z_i-z_j).

    Delta_g = prod_{j<k} sinh^{2g}|x_j - x_k| in the coordinates z_i = e^{2 x_i};
    the left side is its closed-form logarithmic derivative.
    """
    x = [float(v) for v in x_point]
    n = len(x)
    z = [math.exp(2.0 * xi) for xi in x]
    gaps = []
    for i in range(n):
        lhs = sum(g / math.tanh(x[i] - x[j]) for j in range(n) if j != i)
        rhs = sum(g * (z[i] + z[j]) / (z[i] - z[j]) for j in range(n) if j != i)
        gaps.append(abs(lhs - rhs) / max(abs(rhs), 1.0))
    return float(np.max(gaps, initial=0.0))
