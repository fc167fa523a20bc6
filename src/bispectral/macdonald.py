"""q,t-Macdonald difference operators, their weights, and the tau -> 0 limit.

The operators act on functions of n nonzero complex coordinates by q^2
dilations of r-element coordinate subsets with rational coefficients.  The
weights are ratios of q-Pochhammer products; setting (a, b) in the generic
two-parameter weight recovers the scalar-product weight (a=1, b=t^2) and the
gauge function relating the parameter pairs (q, t) and (q, q/t).

With q = e^{pi i tau}, t = q^g and tau -> 0 the first operator degenerates
into the reduced Sutherland Hamiltonians; ``tau_limit_check`` recovers their
action on polynomial test functions by Richardson extrapolation, and
``weight_limit_check`` verifies the limiting weight against its defining
differential equation.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from itertools import combinations
from typing import Callable, Literal, Sequence

import numpy as np

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

MacdonaldMode = Literal["z_space_t", "dual_t", "dual_qt_inv"]
WeightKind = Literal["delta_qt", "phi_ab", "phi_gauge", "delta_dual_qt", "delta_dual_qt_inv"]
_EPS_FLOOR = 1e-300
# q-Pochhammer products stop once |z| |qsq|^N drops below this
_TRUNC_TOL = 1e-16
# tau = i*sigma samples of the small-tau fit: four powers, four unknowns
_TAU_SIGMAS = (0.004, 0.002, 0.001, 0.0005)


@dataclass(frozen=True)
class MacdonaldParams:
    """Parameter pair (q, t) with |q| < 1; optionally linked by t = q^g."""

    q: complex
    t: complex
    g: float | None = None

    def __post_init__(self):
        if self.q == 0 or self.t == 0:
            raise ValueError("q and t must be nonzero")
        if abs(self.q) >= 1.0:
            raise ValueError(f"|q| must be < 1 for convergent weights, got {abs(self.q)}")

    @classmethod
    def from_coupling(cls, q: complex, g: float) -> "MacdonaldParams":
        return cls(q=complex(q), t=complex(q) ** g, g=g)

    @property
    def qsq(self) -> complex:
        return self.q * self.q


@dataclass(frozen=True)
class TorusPoint:
    """n nonzero coordinates, pairwise distinct (operator coefficients divide by differences)."""

    values: tuple[complex, ...]

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if any(v == 0 for v in vals):
            raise ValueError("coordinates must be nonzero")
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if vals[i] == vals[j]:
                    raise ValueError(f"coordinates {i} and {j} coincide")

    @property
    def n(self) -> int:
        return len(self.values)


def _as_point(z) -> TorusPoint:
    return z if isinstance(z, TorusPoint) else TorusPoint(tuple(complex(v) for v in z))


def qpochhammer(z: complex, qsq: complex) -> complex:
    """(z; qsq)_infinity = prod_{i >= 0} (1 - z qsq^i), truncated.

    Truncates once |z| |qsq|^N < 1e-16, which bounds the neglected log
    tail by ~ 1e-16 / (1 - |qsq|).
    """
    aq = abs(qsq)
    if aq >= 1.0:
        raise ValueError(f"q-Pochhammer diverges for |qsq| = {aq} >= 1")
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


def _subset_shift(z: Sequence[complex], members: Sequence[int], factor: complex) -> tuple:
    out = list(z)
    for i in members:
        out[i] *= factor
    return tuple(out)


def apply_macdonald(r: int, params: MacdonaldParams, mode: MacdonaldMode,
                    point, f: Callable) -> complex:
    """Order-r Macdonald operator applied to a black-box function at the point.

    Coefficients: (t z_i - t^{-1} z_j)/(z_i - z_j) in modes z_space_t and
    dual_t, (q t^{-1} z_i - q^{-1} t z_j)/(z_i - z_j) in mode dual_qt_inv;
    subsets of r coordinates are scaled by q^2.
    """
    point = _as_point(point)
    z = point.values
    n = point.n
    if not (0 <= r <= n):
        raise ValueError(f"need 0 <= r <= n={n}, got r={r}")
    q, t = params.q, params.t
    if mode in ("z_space_t", "dual_t"):
        ca, cb = t, 1.0 / t
    elif mode == "dual_qt_inv":
        ca, cb = q / t, t / q
    else:
        raise ValueError(f"unknown mode {mode!r}")
    total = 0.0 + 0.0j
    for members in combinations(range(n), r):
        inside = set(members)
        coef = 1.0 + 0.0j
        for i in members:
            for j in range(n):
                if j not in inside:
                    coef *= (ca * z[i] - cb * z[j]) / (z[i] - z[j])
        total += coef * f(_subset_shift(z, members, params.qsq))
    return total


def _pair_ratio_product(point: TorusPoint, a: complex, b: complex, qsq: complex) -> complex:
    z = point.values
    out = 1.0 + 0.0j
    for j in range(point.n):
        for k in range(point.n):
            if j != k:
                w = z[j] / z[k]
                out *= qpochhammer(a * w, qsq) / qpochhammer(b * w, qsq)
    return out


def _weight_pair(kind: WeightKind, params: MacdonaldParams,
                 a: complex | None, b: complex | None) -> tuple[complex, complex]:
    """The (a, b) pair of the two-parameter weight that the kind names."""
    q, t = params.q, params.t
    if kind == "phi_ab":
        if a is None or b is None:
            raise ValueError("phi_ab requires explicit a and b")
        return complex(a), complex(b)
    if kind in ("delta_qt", "delta_dual_qt"):
        return 1.0 + 0.0j, t * t
    if kind == "phi_gauge":
        return q, (q / t) ** 2
    if kind == "delta_dual_qt_inv":
        return 1.0 + 0.0j, (q / t) ** 2
    raise ValueError(f"unknown weight kind {kind!r}")


def weight_and_gauge(kind: WeightKind, params: MacdonaldParams, point,
                     a: complex | None = None, b: complex | None = None) -> complex:
    """Evaluate one of the q-Pochhammer weight/gauge functions at the point.

    * delta_qt           -- weight with (a, b) = (1, t^2)
    * phi_ab             -- generic two-parameter function (a, b required)
    * phi_gauge          -- gauge between (q, t) and (q, q/t): (a, b) = (q, q^2/t^2)
    * delta_dual_qt      -- same as delta_qt, evaluated in the dual variables
    * delta_dual_qt_inv  -- weight of the pair (q, q/t): (a, b) = (1, q^2/t^2)
    """
    pa, pb = _weight_pair(kind, params, a, b)
    return _pair_ratio_product(_as_point(point), pa, pb, params.qsq)


def weight_shift_residual(kind: WeightKind, params: MacdonaldParams, point, i: int,
                          a: complex | None = None, b: complex | None = None) -> float:
    """Relative residual of the weight's shift law under z_i -> q^2 z_i, i 0-based.

    Predicted ratio for the pair (a, b):
    prod_{j != i} (z_i - a q^{-2} z_j)(b z_i - z_j) / ((a z_i - z_j)(z_i - b q^{-2} z_j)).
    """
    point = _as_point(point)
    pa, pb = _weight_pair(kind, params, a, b)
    z, qsq = point.values, params.qsq
    ratio = (weight_and_gauge(kind, params, _subset_shift(z, (i,), qsq), a, b)
             / weight_and_gauge(kind, params, point, a, b))
    predicted = 1.0 + 0.0j
    for j in range(point.n):
        if j != i:
            predicted *= ((z[i] - pa / qsq * z[j]) * (pb * z[i] - z[j])
                          / ((pa * z[i] - z[j]) * (z[i] - pb / qsq * z[j])))
    return abs(ratio - predicted) / abs(predicted)


def verify_gauge_equivalence(r: int, params: MacdonaldParams, point, f: Callable) -> float:
    """Residual of M_r(.|q,t)(gauge * f) = gauge * M_r(.|q,q/t)(f) at the point."""
    point = _as_point(point)

    def gauged(z):
        return weight_and_gauge("phi_gauge", params, z) * f(z)

    lhs = apply_macdonald(r, params, "z_space_t", point, gauged)
    rhs = (weight_and_gauge("phi_gauge", params, point)
           * apply_macdonald(r, params, "dual_qt_inv", point, f))
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

    @classmethod
    def random(cls, n: int, rng: np.random.Generator, max_degree: int = 4,
               n_terms: int = 4) -> "LaurentPolynomial":
        terms: dict[tuple[int, ...], complex] = {}
        while len(terms) < n_terms:
            expo = tuple(int(rng.integers(-max_degree, max_degree + 1)) for _ in range(n))
            terms[expo] = complex(rng.standard_normal(), rng.standard_normal())
        return cls(n, terms)

    def __call__(self, z: Sequence[complex]) -> complex:
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

    @property
    def hs1_error(self) -> float:
        return abs(self.hs1_fitted - self.hs1_analytic) / max(abs(self.hs1_analytic), 1.0)

    @property
    def hs2_error(self) -> float:
        return abs(self.hs2_fitted - self.hs2_analytic) / max(abs(self.hs2_analytic), 1.0)

    @property
    def error(self) -> float:
        return max(self.hs1_error, self.hs2_error)


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
    """Fit the small-tau expansion of M_1 against the reduced Hamiltonians.

    tau = i*sigma with real sigma > 0 keeps q = e^{pi i tau} in (0, 1), so all
    operator coefficients stay real and the Richardson solve is
    well-conditioned.  M_1 f - n f is modelled as
    pi*i*tau * HS1 f - (pi*tau)^2/2 * HS2 f + O(tau^3); the four sigma values
    0.004, 0.002, 0.001, 0.0005 fit the two leading coefficients plus two
    spillover powers exactly (a square 4 x 4 solve).
    """
    z = tuple(cmath.exp(2.0 * xi) for xi in x_point)
    n = len(z)
    hs1, hs2 = _reduced_action(f, z, g)
    rows, rhs = [], []
    for sigma in _TAU_SIGMAS:
        q = math.exp(-math.pi * sigma)
        params = MacdonaldParams.from_coupling(q, g)
        value = apply_macdonald(1, params, "z_space_t", z, f) - n * f(z)
        rows.append([-math.pi * sigma, (math.pi * sigma) ** 2 / 2.0, sigma ** 3, sigma ** 4])
        rhs.append(value)
    sol = np.linalg.solve(np.asarray(rows, dtype=complex), np.asarray(rhs, dtype=complex))
    return TauFitResult(hs1_fitted=complex(sol[0]), hs1_analytic=hs1,
                        hs2_fitted=complex(sol[1]), hs2_analytic=hs2)


def weight_limit_check(x_point: Sequence[float], g: float) -> float:
    """Residual of the limiting-weight equation z_i d_i log Delta = g sum (z_i+z_j)/(z_i-z_j).

    Delta_g = prod_{j<k} sinh^{2g}|x_j - x_k| in the coordinates z_i = e^{2 x_i};
    the left side is its closed-form logarithmic derivative.
    """
    x = [float(v) for v in x_point]
    n = len(x)
    z = [math.exp(2.0 * xi) for xi in x]
    worst = 0.0
    for i in range(n):
        lhs = sum(g / math.tanh(x[i] - x[j]) for j in range(n) if j != i)
        rhs = sum(g * (z[i] + z[j]) / (z[i] - z[j]) for j in range(n) if j != i)
        worst = max(worst, abs(lhs - rhs) / max(abs(rhs), 1.0))
    return worst
