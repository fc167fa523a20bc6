"""Dual difference operators in the spectral variables.

These act by lambda_i -> lambda_i + 2 shifts with rational coefficients, one
term per r-subset of the indices, as ``symfun.subset_terms`` yields them.  Two
pair coefficients appear, each (l_i - l_j + s)/(l_i - l_j) for its own shift s:

* ``H_g``  -- s = 2 - 2g, with the sign (-1)^{r(n-1)} on every term; the
  operators whose eigenvalues on the wave function are the elementary
  symmetric functions e_r(e^{2x}).  Without the sign this is the D_{1-g}
  form, so D_{1-g} = (-1)^{r(n-1)} H_g has the same eigenfunctions.
* ``D_g``  -- s = 2g, which the gauge function conjugates into H_g.  It is
  not written as H at 1 - g: 2 - 2(1 - g) is not 2g bit for bit.

``apply_dual_operator`` applies H_g to any function of lambda.  Applying a
shift to the Mellin-Barnes integral requires moving the integration contours
so they keep separating the shifted pole lattices; ``apply_dual_hamiltonian``
applies H_g to Phi, re-running the full integral at shifted lambda on the
line Re = 1 (no surrogate continuation).  The gauge function and the
measure weights tie D_g and H_g together and degenerate to the Sklyanin
measure at g = 1/2.
"""

from __future__ import annotations

import cmath
from typing import Callable, Literal

import numpy as np

from .cgamma import _is_pole, log_gamma
from .symfun import elementary_symmetric, subset_terms
from .sutherland_ops import _EPS_FLOOR, EigenResidual
from .wavefn import PositionPoint, SpectralPoint, eval_phi, measure_mu, validate_contour

__all__ = [
    "DualWeightKind",
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

# a shift law's residual carries round-off of c eps max|log W| over its weights W and their
# shifts: c read 0.7-8.3 over 1 440 checks of 10 draws (n = 3, g = 1.5 ... 1e4), median 2,
# 99th percentile about 4
_SHIFT_FLOOR = 4.0 * 2.0 ** -53


def _terms(r: int, z, shift: float):
    """The subset terms of H_g (shift 2 - 2g, unsigned) or D_g (2g) at the point z."""
    return subset_terms(r, z, lambda a, b: (a - b + shift) / (a - b), lambda v: v + 2.0)


def apply_dual_operator(r: int, lam, g: float, f: Callable) -> complex:
    """Apply the order-r dual Hamiltonian H_g to a black-box function of lambda.

    For f entire (gauge relations, commutativity probes) no contour bookkeeping
    is involved; ``apply_dual_hamiltonian`` passes Phi on the line Re = 1.
    """
    lam = SpectralPoint(lam)
    sign = (-1.0) ** (r * (len(lam) - 1))
    total = 0.0 + 0.0j
    for coef, shifted in _terms(r, lam, 2.0 - 2.0 * g):
        total += coef * sign * f(shifted)
    return total


def apply_dual_hamiltonian(r: int, lam, x, g: float, *,
                           lattice: dict | None = None) -> EigenResidual:
    """Order-r dual Hamiltonian on Phi versus its e_r(e^{2x}) eigenvalue.

    Each shifted term re-evaluates the Mellin-Barnes integral with every level on the line
    Re = 1, which at Re lambda = 0 separates the shifted pole lattices exactly when g > 1;
    ``validate_contour`` refuses it otherwise, before any evaluation, except at n = 1,
    which has no level.  The sinh prefactor is lambda-independent, so the statement on Psi
    is equivalent to the same relation on Phi; Phi is what is tested.  D_{1-g} would
    multiply both sides by the same sign (-1)^{r(n-1)} and give the same residual.  lattice
    is ``eval_phi_many``'s: the base and every shifted evaluation use it (None: a fresh one
    for this call).  The floor counts every evaluation's terms (``eval_phi_many``'s sizes).
    """
    lam, x = SpectralPoint(lam), PositionPoint(x)
    n = len(lam)
    if not (1 <= r <= n):
        raise ValueError(f"need 1 <= r <= n={n}, got r={r}")
    # every subset shifts at least one variable, so all share the line Re = 1; the shifts
    # are real, so all share one lattice with the base point: the kernel columns (a shifted
    # lambda_k's is its unshifted one's read back by K(-d) = K(d)) and, for n = 3, the
    # offset envelope and moments, which no line moves; a refused line is named up front
    weights = []
    for coef, shifted in _terms(r, lam, 2.0 - 2.0 * g):
        validate_contour(1.0, shifted, g)
        weights.append(abs(coef))
    lattice, sizes = {} if lattice is None else lattice, []

    def phi(point, contour=0.0):
        return eval_phi(point, x, g, contour=contour, lattice=lattice, sizes=sizes)

    base = phi(lam)
    res = dual_eigen_residual(r, lam, x, g, lambda s: phi(s, 1.0), base)
    # each side's terms: the shifted values' nodes times |coef|, and e_r times the base's
    size = np.dot(weights, sizes[1:]) + abs(res.expected) / max(abs(base), _EPS_FLOOR) * sizes[0]
    return EigenResidual.build(res.value, res.expected, size)


def dual_eigen_residual(r: int, lam, x, g: float, f: Callable, base: complex) -> EigenResidual:
    """The dual eigen-relation H_r f = e_r(e^{2x}) f, with base = f(lambda) evaluated as the
    caller likes; its relative residual is the same at x + c for every c.  An e_r(e^{2x})
    outside the normal double range raises OverflowError before f is called."""
    try:
        eig = elementary_symmetric(r, [cmath.exp(2.0 * xi) for xi in x])
    except OverflowError:  # an e^{2 x_i} past the double range
        eig = cmath.inf
    if not _EPS_FLOOR < abs(eig) < cmath.inf:
        raise OverflowError(f"e_{r}(e^(2x)) = {abs(eig):.3g} is out of range at x = {tuple(x)}")
    return EigenResidual.build(apply_dual_operator(r, lam, g, f), eig * base)


def _points(lam) -> np.ndarray:
    """lam as a complex array of points along its last axis, shape (..., n): one point or a
    stack of them, each of which SpectralPoint checks."""
    arr = np.asarray(lam, dtype=complex)
    if arr.ndim == 0:
        raise ValueError(f"a spectral point is an axis of n values, got {lam!r}")
    for point in arr.reshape(-1, arr.shape[-1]).tolist() if arr.size else ():
        SpectralPoint(point)
    return arr


def _off_diagonal(n: int) -> tuple[np.ndarray, np.ndarray]:
    """The index pairs p != q, p outer and q inner: the order of permutations(range(n), 2)."""
    return np.nonzero(~np.eye(n, dtype=bool))


def _shift_each(lam: np.ndarray, i: np.ndarray) -> np.ndarray:
    """Each point of lam with its lambda_i + 2, i 0-based, one index per point."""
    n = lam.shape[-1]
    if i.dtype.kind not in "iu" or np.any((i < 0) | (i >= n)):
        raise ValueError(f"shift indices must be integers in 0..{n - 1}, got {i.tolist()}")
    return np.where(np.arange(n) == i[..., None], lam + 2.0, lam)


def _shift_law_residual(lam, i, log_weight: Callable, predicted: Callable):
    """(|ratio - predicted| / |predicted|, floor) of a shift law under lambda_i -> lambda_i + 2.

    lam is one point or a stack, shape (..., n), and i one 0-based index per point or one
    for all.  log_weight maps a stack of points to their log weights in one call, made
    once on every point and its shift; predicted(point, i) is the law's ratio at one point,
    in Python arithmetic, as is the rest: one residual per point.  The floor is
    _SHIFT_FLOOR max|log W| over the finite log weights, one for the stack.
    """
    lam = _points(lam)
    i = np.broadcast_to(i, lam.shape[:-1])
    logs = log_weight(np.stack([_shift_each(lam, i), lam]))
    floor = _SHIFT_FLOOR * float(np.max(np.abs(logs), where=np.isfinite(logs), initial=0.0))
    shifted, base = logs
    out = []
    for point, k, up, down in zip(lam.reshape(-1, lam.shape[-1]).tolist(), i.ravel().tolist(),
                                  np.ravel(shifted).tolist(), np.ravel(base).tolist()):
        want = predicted(point, k)
        out.append(abs(cmath.exp(up - down) - want) / abs(want))
    return np.reshape(out, i.shape)[()], floor


def gauge_function(lam, g: float):
    """Log of prod_{p != q} Gamma((l_p - l_q + 2 - 2g)/2) at each point of lam, shape (..., n).

    A complex for one point, an array over the leading axes for a stack; one log_gamma
    call either way, and a gamma pole raises GammaPoleError.
    """
    lam = _points(lam)
    p, q = _off_diagonal(lam.shape[-1])
    return np.sum(log_gamma((lam[..., p] - lam[..., q] + 2.0 - 2.0 * g) / 2.0), axis=-1)[()]


def gauge_shift_residual(lam, i, g: float):
    """(residual, floor) of the gauge shift law under lambda_i -> lambda_i + 2, i 0-based.

    Predicted ratio: (-1)^{n-1} prod_{j != i} (l_i - l_j + 2 - 2g) / (l_i - l_j + 2g).  lam
    is one point or a stack of them, shape (..., n), and i one index per point or one for
    all: one relative residual per point and one round-off floor, from one gauge_function
    call on the points and their shifts.
    """
    def predicted(point, i):
        ratio = (-1.0) ** (len(point) - 1)
        for j, other in enumerate(point):
            if j != i:
                ratio *= (point[i] - other - 2.0 * g + 2.0) / (point[i] - other + 2.0 * g)
        return ratio

    return _shift_law_residual(lam, i, lambda stack: gauge_function(stack, g), predicted)


def measure_weight(lam, g: float, kind: DualWeightKind):
    """Log of the requested dual measure weight (inverse-gamma products) at each point of lam.

    mu_1mg is the wave function's within-level measure ``measure_mu`` at g,
    mu_g the same measure at 1 - g; sklyanin is prod_{j != k} 1/G(l_j - l_k).  lam is one
    point or a stack, shape (..., n), as for gauge_function; a point where a factor 1/G sits
    on its pole has weight zero, -inf in its own entry, as in measure_mu.
    """
    lam = _points(lam)
    if kind == "mu_1mg":
        return measure_mu(lam, g)
    if kind == "mu_g":
        return measure_mu(lam, 1.0 - g)
    if kind != "sklyanin":
        raise ValueError(f"unknown weight kind {kind!r}")
    p, q = _off_diagonal(lam.shape[-1])
    d = lam[..., p] - lam[..., q]
    ok = ~np.any(_is_pole(d), axis=-1)
    out = np.full(ok.shape, -np.inf, dtype=complex)
    out[ok] = -np.sum(log_gamma(d[ok]), axis=-1)
    return out[()]


def measure_shift_residual(lam, i, g: float, kind: DualWeightKind):
    """(residual, floor) of the mu_g / mu_1mg shift law under lambda_i -> lambda_i + 2.

    Predicted ratio for mu_g, i 0-based and d = l_i - l_j:
    prod_{j != i} (d + 2)/d * (d + 2g)/(d + 2 - 2g); mu_1mg inverts the last quotient.  lam
    and i are stacked as for gauge_shift_residual, with one measure_weight call.
    """
    if kind not in ("mu_g", "mu_1mg"):
        raise ValueError(f"shift law is stated for mu_g and mu_1mg, got {kind!r}")

    def predicted(point, i):
        ratio = 1.0 + 0.0j
        for j, other in enumerate(point):
            if j != i:
                d = point[i] - other
                up, down = d + 2.0 * g, d + 2.0 - 2.0 * g
                ratio *= (d + 2.0) / d
                ratio *= up / down if kind == "mu_g" else down / up
        return ratio

    return _shift_law_residual(lam, i, lambda stack: measure_weight(stack, g, kind), predicted)


def gauge_relation_residual(r: int, lam, g: float, f):
    """Residual of D_r^{(g)} (gauge * f) = gauge * (H_r^{(g)} f) at each point of lam.

    Both sides are divided by gauge(lambda), so only gauge ratios are
    exponentiated and the probe stays well-scaled for any coupling.  lam is one
    point or a stack, shape (..., n), and f a function of one point or an array of
    them over the leading axes, one per point: one residual per point, from one
    gauge_function call on the points and all their shifts.
    """
    lam = _points(lam)
    points = lam.reshape(-1, lam.shape[-1]).tolist()
    terms = [list(_terms(r, point, 2.0 * g)) for point in points]
    logs = gauge_function([[point] + [shifted for _, shifted in point_terms]
                           for point, point_terms in zip(points, terms)], g)
    probes = np.broadcast_to(np.asarray(f, dtype=object), lam.shape[:-1])
    out = []
    for point, point_terms, (base_log, *shifted_logs), probe in zip(
            points, terms, logs.tolist(), probes.ravel()):
        lhs = 0.0 + 0.0j
        for (coef, shifted), log in zip(point_terms, shifted_logs):
            lhs += coef * cmath.exp(log - base_log) * probe(shifted)
        rhs = apply_dual_operator(r, point, g, probe)
        out.append(abs(lhs - rhs) / max(abs(rhs), abs(lhs), _EPS_FLOOR))
    return np.reshape(out, probes.shape)[()]
