"""Nested Mellin-Barnes evaluation of the hyperbolic Sutherland wave function.

The wave function Phi is an iterated contour integral over vertical lines in
the complex plane: level m carries m integration variables, the integrand is
a ratio of gamma-function products (a kernel coupling adjacent levels over an
inverse-gamma measure within a level) times an exponential in the
coordinates, and the recursion bottoms out at a single exponential e^{l x}.

Evaluation uses truncated trapezoid quadrature on each vertical line.  The
gamma factors decay super-polynomially along the contours, so the trapezoid
rule is spectrally accurate; the truncation width is expanded adaptively
until the integrand magnitude at the boundary falls below ``tail_tol`` times
the observed maximum.  Derivatives in the coordinates are exact: they only
multiply the integrand by linear forms in the integration variables.

Supported sizes are n = 1, 2, 3 (the nested grid grows like
grid^(n(n-1)/2)).  No 2*pi normalisation is applied anywhere; every check
built on top of this module is a ratio or eigenvalue test.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cgamma import _is_pole, log_gamma

__all__ = [
    "SpectralPoint",
    "PositionPoint",
    "QuadratureSpec",
    "InfeasibleContourError",
    "TailNotConvergedError",
    "CoincidentCoordinatesError",
    "ConvergenceWindowError",
    "kernel_K",
    "measure_mu",
    "default_contour",
    "validate_contour",
    "eval_phi",
    "eval_phi_many",
    "eval_psi",
    "sinh_prefactor",
]


class InfeasibleContourError(ValueError):
    """No vertical line separates the ascending and descending pole lattices."""


class TailNotConvergedError(ArithmeticError):
    """Truncation boundary magnitude stayed above tail_tol * max(integrand)."""


class CoincidentCoordinatesError(ValueError):
    """Two coordinates coincide (the sinh prefactor vanishes there)."""


class ConvergenceWindowError(ValueError):
    """A coordinate separation exceeds the window the quadrature can resolve."""


_DISTINCT_TOL = 1e-12
# the convergence window: the exponential factor grows like e^{|t| max|x_i - x_j|}
# against the gamma decay, so separations are capped instead of returning garbage
_MAX_SEPARATION = 1.0
# hard cap on every truncation half-width, at the start and while growing; the n = 3
# level-1 line, which must reach past every outer node, is capped this far past the outer one
_MAX_HALF_WIDTH = 120.0


@dataclass(frozen=True)
class SpectralPoint:
    """Tuple of n finite spectral parameters, pairwise distinct.

    Nominally purely imaginary; a small real part (or the +2 shifts produced
    by the dual difference operators) is admitted as long as a separating
    contour exists, which ``validate_contour`` checks.
    """

    values: tuple[complex, ...]

    def __post_init__(self):
        vals = tuple(complex(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not all(map(cmath.isfinite, vals)):
            raise ValueError(f"spectral parameters must be finite, got {vals}")
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                if abs(vals[i] - vals[j]) <= _DISTINCT_TOL:
                    raise ValueError(f"spectral parameters {i} and {j} coincide")

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class PositionPoint:
    """Tuple of n finite real coordinates, pairwise distinct, no two further
    apart than the convergence window _MAX_SEPARATION."""

    values: tuple[float, ...]

    def __post_init__(self):
        vals = tuple(float(v) for v in self.values)
        object.__setattr__(self, "values", vals)
        if not all(map(math.isfinite, vals)):
            raise ValueError(f"coordinates must be finite, got {vals}")
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                sep = abs(vals[i] - vals[j])
                if sep <= _DISTINCT_TOL:
                    raise CoincidentCoordinatesError(
                        f"coordinates {i} and {j} coincide at {vals[i]}")
                if sep > _MAX_SEPARATION:
                    raise ConvergenceWindowError(
                        f"|x_{i} - x_{j}| = {sep} exceeds the convergence "
                        f"window {_MAX_SEPARATION}")

    @property
    def n(self) -> int:
        return len(self.values)


@dataclass(frozen=True)
class QuadratureSpec:
    """Trapezoid discretisation of one vertical line.

    step is the node spacing along the imaginary axis (must be <= 0.25).
    The truncation half-width is not set: it expands adaptively until the
    boundary magnitude is below tail_tol times the running maximum, up to
    the hard cap _MAX_HALF_WIDTH = 120.
    """

    step: float = 0.1
    tail_tol: float = 1e-13

    def __post_init__(self):
        if not (0.0 < self.step <= 0.25):
            raise ValueError(f"step must be in (0, 0.25], got {self.step}")
        if not (0.0 < self.tail_tol < 1e-3):
            raise ValueError(f"tail_tol must be in (0, 1e-3), got {self.tail_tol}")


def as_spectral(lam) -> SpectralPoint:
    if isinstance(lam, SpectralPoint):
        return lam
    return SpectralPoint(values=tuple(complex(v) for v in lam))


def as_position(x) -> PositionPoint:
    if isinstance(x, PositionPoint):
        return x
    return PositionPoint(values=tuple(float(v) for v in x))


# ---------------------------------------------------------------------------
# kernel, measure, contours


def _log_kernel(gam: np.ndarray, pts: np.ndarray, g: float) -> np.ndarray:
    """log G((gam_i - p_j + g)/2) G((p_j - gam_i + g)/2) for every gam_i and p_j.

    Rows follow gam (the lower level), columns follow pts (the level above); both
    arguments go to one log_gamma call, and a gamma pole raises GammaPoleError.  This is
    kernel_K's form: the quadrature's kernels come from _grid_kernel.
    """
    d = gam[:, None] - pts[None, :]
    lg = log_gamma(np.stack([(d + g) / 2, (g - d) / 2]))
    return lg[0] + lg[1]


def _kernel_terms(a, y, g):
    """The log_gamma arguments of log K at d = a + 1j*y, and the map from their values to it.

    One argument per node at a = 0, where (g - d)/2 is conj((d + g)/2) bit for bit, and at
    a = 1, where A = (d + g)/2 = Q and B = (g - d)/2 = conj(Q) - 1 with Re Q = (g + 1)/2 >= 1,
    so by Gamma(z + 1) = z Gamma(z) log K = 2 Re log G(Q) - log(conj(Q) - 1) mod 2 pi i (the
    kernel enters through exp and its real part only) and Q never reflects.  Both
    arguments at any other a.
    """
    d = a + 1j * y
    if a == 0.0:
        return (d + g) / 2, lambda lg: lg + np.conj(lg)
    if a == 1.0:
        q = (g + 1) / 2 + 0.5j * y
        return q, lambda lg: 2 * lg.real - np.log(np.conj(q) - 1)
    return np.stack([(d + g) / 2, (g - d) / 2]), lambda lg: lg[0] + lg[1]


def _grid_kernel(cols, step, m, g, lattice):
    """log K at d = a + 1j*(step*k - delta), k = -m..m, one column per (a, delta) in cols.

    Every kernel value on a quadrature grid is built here.  K(-d) = K(d) and K(conj d) =
    conj K(d) map (a, delta) to (-a, -delta) and to (a, -delta), each with k -> -k, so a
    column is built at a, delta >= 0 and read back reversed, conjugated or both; at
    delta = 0 it is built on k >= 0 and its k < 0 are their conjugates.  It is kept in the
    lattice dict under ("column", a, delta, step, g), all it depends on, on the widest
    k-range asked for so far: each node's bits depend on k alone, so a narrower range is a
    slice and a wider one adds only its new edge nodes.  The new nodes of every column go
    to one log_gamma call, on the arguments of _kernel_terms.
    """
    reads, new = [], {}
    for a, delta in cols:
        rev = a < 0
        if rev:
            a, delta = -a, -delta
        conj = delta < 0
        if conj:
            delta, rev = -delta, not rev
        key = ("column", a, delta, step, g)
        have = lattice[key].size // 2 if key in lattice else -1
        if have < m and key not in new:
            k = np.arange(-m, m + 1)
            new[key] = k[(np.abs(k) if delta else k) > have]
        reads.append((key, rev, conj))
    if new:
        terms = [_kernel_terms(key[1], step * k - key[2], g) for key, k in new.items()]
        lg = log_gamma(np.concatenate([z.ravel() for z, _ in terms]))
        end = 0
        for (key, k), (z, value) in zip(new.items(), terms):
            f = value(lg[end:end + z.size].reshape(z.shape))
            end += z.size
            held = lattice.get(key, f[:0])
            lattice[key] = np.concatenate([f[k < 0], held, f[k >= 0]] if key[2] else
                                          [np.conj(f[k > 0][::-1]), held, f])
    out = np.empty((2 * m + 1, len(reads)), dtype=complex)
    for j, (key, rev, conj) in enumerate(reads):
        held = lattice[key]
        col = held[held.size // 2 - m:held.size // 2 + m + 1][::-1 if rev else 1]
        out[:, j] = np.conj(col) if conj else col
    return out


def _log_measure(d: np.ndarray, g: float) -> np.ndarray:
    """-log[G(d/2) G(-d/2) G(d/2 + g) G(g - d/2)] for each difference d.

    The four factors are the measure's pair (r, s) and (s, r) together.  An
    argument on a gamma pole is a zero of the measure: the entry is -inf.  When
    every d is purely imaginary (the n = 3 outer offsets), -d/2 and g - d/2 are
    the conjugates of d/2 and d/2 + g, so log_gamma runs on those two rows only.
    """
    h = np.asarray(d, dtype=complex) / 2.0
    mirror = not np.any(h.real)
    args = np.stack([h, h + g] if mirror else [h, -h, h + g, -h + g])
    ok = ~np.any(_is_pole(args), axis=0)
    out = np.full(h.shape, -np.inf, dtype=complex)
    lg = log_gamma(args[:, ok])
    # same summation order as the direct four-row sum
    out[ok] = (-(lg[0] + np.conj(lg[0]) + lg[1] + np.conj(lg[1])) if mirror
               else -lg.sum(axis=0))
    return out


def kernel_K(lam, nu, g: float) -> complex:
    """Log of the inter-level kernel: prod_{j,k} G((nu_j-lam_k+g)/2) G((lam_k-nu_j+g)/2).

    lam has n entries, nu has n-1; the n=1 case (empty nu) gives log 1 = 0.
    Coincident entries are fine here (only the measure vanishes there).
    """
    return complex(np.sum(_log_kernel(np.asarray(nu, dtype=complex),
                                      np.asarray(lam, dtype=complex), g)))


def measure_mu(nu, g: float) -> complex:
    """Log of the within-level measure: prod_{r != s} 1/[G((nu_r-nu_s)/2) G((nu_r-nu_s)/2 + g)].

    Coincident nu entries make an inverse gamma of a pole, i.e. a zero
    factor: the returned log has real part -inf and exp() of it is 0.
    """
    nu = np.asarray(nu, dtype=complex)
    r, s = np.triu_indices(nu.size, 1)
    return complex(np.sum(_log_measure(nu[r] - nu[s], g)))


def validate_contour(contour: tuple[float, ...], lam, g: float) -> float:
    """Check pole separation for every adjacent pair of levels.

    The lattices attached to an upper variable with real part d are
    d + g + 2k (ascending) and d - g - 2k (descending), k >= 0; the line
    Re = c separates them iff its margin g - |c - d| is positive for every d.
    Returns the smallest margin over all levels (g when there are none);
    raises InfeasibleContourError unless it is > 0, so a NaN is refused too.
    """
    lam = as_spectral(lam)
    n = lam.n
    if len(contour) != n - 1:
        raise ValueError(f"contour has {len(contour)} levels, need {n - 1}")
    top_re = [v.real for v in lam.values]
    # each level's line against the real parts of the level above it
    uppers = [[c] for c in contour[1:]] + [top_re]
    margin = min((g - abs(c - d) for c, upper in zip(contour, uppers) for d in upper),
                 default=g)
    if not margin > 0.0:
        raise InfeasibleContourError(
            f"contour {contour} does not separate the pole lattices "
            f"for Re(lambda) = {top_re}, g = {g} (margin {margin:.3g})")
    return margin


def default_contour(n: int, g: float, shifted: bool = False) -> tuple[float, ...]:
    """Pole-separating contour for a base point with Re(lambda) ~ 0.

    A contour is the tuple of the n - 1 level real parts: entry i is the
    common real part of the i + 1 variables at level i + 1.  Unshifted
    evaluation integrates along the imaginary axes.  When some top-level
    variables carry a +2 shift (shifted=True), all levels move to Re = 1,
    which lies in the admissible window (-g+2, g) exactly when g > 1.
    """
    if g <= 0:
        raise ValueError("coupling g must be positive")
    if not shifted:
        return (0.0,) * (n - 1)
    if g <= 1.0:
        raise InfeasibleContourError(
            f"shifted pole lattices admit no separating line for g = {g}: "
            f"the window (-g+2, g) = ({2 - g:.3g}, {g:.3g}) is empty")
    return (1.0,) * (n - 1)


# ---------------------------------------------------------------------------
# quadrature engine


def _grid(center: float, half_width: float, step: float) -> tuple[np.ndarray, np.ndarray]:
    m = int(math.ceil(half_width / step))
    t = center + step * np.arange(-m, m + 1)
    w = np.full(t.shape, step)
    w[0] = w[-1] = 0.5 * step
    return t, w


def _tail_ok(logmag: np.ndarray, log_tol: float) -> bool:
    peak = float(np.max(logmag))
    if not np.isfinite(peak):
        return False
    edge = max(float(logmag[0]), float(logmag[-1]))
    return edge <= peak + log_tol


def _initial_half_width(im_spread: float, rate: float, tail_tol: float) -> float:
    """Where a tail decaying like e^{-rate |t|} past im_spread should pass, capped."""
    return min(im_spread + (-math.log(tail_tol) + 5.0) / rate, _MAX_HALF_WIDTH)


def _quantities_n1(lam, x, derivs):
    l1, x1 = lam[0], x[0]
    base = np.exp(l1 * x1)
    return [l1 ** d[0] * base for d in derivs]


def _level2(log_kernel, x1, x2, c, center, T, cap, quad, m_max):
    """Grow the level-1 line Re = c by 1.5x up to cap until its tail passes.

    log_kernel(gam) returns (env, lgK): env[i] is the largest Re log K(gam_i, p)
    over the upper points p, and lgK is what the caller contracts.  The one
    envelope |w e^{gam (x1-x2)}| |gam|^m_max e^{2 env} bounds every moment and
    pair.  Returns gam, w e^{gam (x1-x2)}, lgK and T of the grid that passed.
    """
    log_tol = math.log(quad.tail_tol)
    while True:
        t, w = _grid(center, T, quad.step)
        gam = c + 1j * t
        env, lgK = log_kernel(gam)
        base = w * np.exp(gam * (x1 - x2))
        with np.errstate(divide="ignore"):
            profile = (np.log(np.abs(base))
                       + m_max * np.log(np.abs(gam) + 1e-300)
                       + 2.0 * env)
        if _tail_ok(profile, log_tol):
            return gam, base, lgK, T
        if T >= cap:
            raise TailNotConvergedError(
                f"level-1 integrand tail above tail_tol at half-width {T:.1f}")
        T = min(1.5 * T, cap)


def _offset_kernel(dc, step, M, g, lattice):
    """log_kernel for _level2 against an M-node outer grid of the same step and centre.

    Level-1 node i and outer node p differ by dc + 1j*step*(k_i - k_p), with k the integer
    grid index counted from the centre, so log K(gam_i, nu_p) is f(k_i - k_p): the
    _grid_kernel column at (dc, 0) on the N + 3M - 3 offsets |j| <= N//2 + 3(M//2) that
    _lattice_moments reaches.  Node i's envelope is the largest Re f over its M offsets
    k_i - k_p, a sliding-window maximum, kept in the lattice dict under every scalar it
    depends on.
    """
    def log_kernel(gam):
        reach = gam.size // 2 + 3 * (M // 2)
        f = _grid_kernel([(dc, 0.0)], step, reach, g, lattice)[:, 0]
        key = ("envelope", dc, step, g, M, reach)
        if key not in lattice:
            lattice[key] = sliding_window_view(f.real[M - 1:f.size - M + 1], M).max(axis=1)
        return lattice[key], f
    return log_kernel


def _lattice_moments(f, step, dx, M, m_max):
    """G_l(d) = sum_j step e^{u_j dx} (-u_j)^l F(j) F(j + d), u_j = 1j*step*j, at d = 1-M..M-1.

    F = e^f on the offsets of _offset_kernel; |j| <= N//2 + M//2 is the union
    of the level-1 grid's per-p windows.  The level-2 moments are C_m[p, q] =
    e^{gam_p dx} _moment(G(p - q), gam_p, 0, m).  No FFT: G_l's entries near
    |d| = M - 1 are some 40 orders below its peak, and the measure grows there.
    """
    F = np.exp(f)
    J = F.size // 2 - (M - 1)
    u = 1j * step * np.arange(-J, J + 1)
    v = step * np.exp(u * dx) * F[M - 1:F.size - M + 1]
    # np.correlate conjugates its second argument
    return [np.correlate(F, np.conj(v * (-u) ** l), "valid") for l in range(m_max + 1)]


def _moment(C, S, d1, d2):
    """sum_i (...) gam^d1 (S - gam)^d2, binomially expanded over the moments C[m]."""
    return sum(math.comb(d2, j) * (-1.0) ** (d2 - j) * S ** j * C[d1 + d2 - j]
               for j in range(d2 + 1))


def _quantities_n2(lam, x, g, contour, quad, derivs, lattice):
    """Phi_2 is the n = 3 inner contraction at the single pair (l1, l2): its integrand is
    e^{(l1+l2) x2} e^{gam (x1-x2)} K(gam, l1) K(gam, l2).  On the grid gam = c + 1j*(centre
    + step*k) the two kernel columns are _grid_kernel's at (c - Re l_j, +-delta), delta =
    (Im l1 - Im l2)/2, so at c - Re l2 = +-(c - Re l1) (every default contour) they are one
    column read back twice.  The calls of one check at other x or at real shifts of lambda
    share it through lattice, and each still grows its own grid and tail test."""
    l1, l2 = lam
    x1, x2 = x
    c = contour[0]
    center = 0.5 * (l1.imag + l2.imag)
    delta = 0.5 * (l1.imag - l2.imag)
    rate = max(math.pi - abs(x1 - x2), 0.5)
    im_spread = max(abs(l1.imag - center), abs(l2.imag - center))
    T = _initial_half_width(im_spread, rate, quad.tail_tol)
    m_max = max(d1 + d2 for d1, d2 in derivs)

    def log_kernel(gam):
        lgK = _grid_kernel([(c - l1.real, delta), (c - l2.real, -delta)], quad.step,
                           gam.size // 2, g, lattice)
        return lgK.real.max(axis=1), lgK
    gam, base, lgK, _ = _level2(log_kernel, x1, x2, c, center, T, _MAX_HALF_WIDTH, quad, m_max)
    A = np.exp(lgK)
    C = [(A * (base * gam ** m)[:, None]).T @ A for m in range(m_max + 1)]
    lam_sum = l1 + l2
    scale = np.exp(lam_sum * x2)
    return [complex(scale * _moment(C, lam_sum, d1, d2)[0, 1]) for d1, d2 in derivs]


def _outer_entries(nu, gam, a, b, H, lam_sum, p, q, d):
    """O[p, q] = (lam_sum - S)^d3 _moment(C, S, d1, d2) at index arrays p, q.

    S = nu_p + nu_q and C_k[p, q] = a_p b_q _moment(H(p - q), gam_p, 0, k): the per-node
    factors a, b times the level-2 moments, read off the Toeplitz offsets H_l.
    """
    H_pq = [H_l[p - q + nu.size - 1] for H_l in H]
    C = [a[p] * b[q] * _moment(H_pq, gam[p], 0, k) for k in range(d[0] + d[1] + 1)]
    return (lam_sum - nu[p] - nu[q]) ** d[2] * _moment(C, nu[p] + nu[q], d[0], d[1])


def _outer_values(outer, derivs, tail_tol):
    """Each derivative's sum of _outer_entries(*outer) over all (p, q), or None if a tail fails.

    Y[i][l] = sum_q H_l(p - q) b_q nu_q^i are direct Toeplitz mat-vecs, and expanding
    S^s = (nu_p + nu_q)^s over them gives Z[s][k] = sum_{p,q} S^s C_k[p, q], with C_k as
    in _outer_entries.  A tail passes if each edge |O| <= tail_tol
    max|O| < inf; rows and columns 0, M // 2, M - 1 bound max|O| from below (not the
    diagonal: mu(0) = 0), and only when that bound fails is the full M x M |O| taken.
    """
    nu, gam, a, b, H, lam_sum = outer
    top = max(map(sum, derivs))
    Y = [[np.convolve(H_l, b * nu ** i, "valid") for H_l in H] for i in range(top + 1)]
    Z = [[sum(math.comb(s, i) * np.dot(a * nu ** (s - i), _moment(Y[i], gam, 0, k))
              for i in range(s + 1)) for k in range(len(H))] for s in range(top + 1)]
    values = [complex(sum(math.comb(d3, e) * (-1) ** e * lam_sum ** (d3 - e)
                          * math.comb(d2, j) * (-1) ** (d2 - j) * Z[e + j][d1 + d2 - j]
                          for e in range(d3 + 1) for j in range(d2 + 1)))
              for d1, d2, d3 in derivs]
    idx = np.arange(nu.size)
    ends = np.array([[0], [nu.size // 2], [nu.size - 1]])
    for d in derivs:
        mag = np.abs([_outer_entries(*outer, ends, idx, d), _outer_entries(*outer, idx, ends, d)])
        edge, peak = mag[:, ::2].max(), mag.max()
        if np.isfinite(peak) and not edge < peak * tail_tol:
            peak = np.abs(_outer_entries(*outer, idx[:, None], idx, d)).max()
        if not (0.0 < peak < np.inf and edge <= peak * tail_tol):
            return None
    return values if np.isfinite(values).all() else None


def _quantities_n3(lam, x, g, contour, quad, derivs, lattice):
    """The outer kernel column of lambda_k is _grid_kernel's at (c2 - Re lambda_k,
    Im lambda_k - centre), and the offset kernel f its column at (c1 - c2, 0).  lattice
    keeps the columns, f's envelope and H_l = mu G_l under every scalar they depend on:
    f, its envelope and H_l do not depend on lambda, and a real shift of lambda moves no
    column's key, or moves it to the one of -a.  So calls at real shifts of lambda share
    them, and each call still grows its own grids and runs its own tail tests."""
    l1, l2, l3 = lam
    x1, x2, x3 = x
    c1, c2 = contour
    center = (l1.imag + l2.imag + l3.imag) / 3.0
    lam_sum = l1 + l2 + l3
    im_spread = max(abs(v.imag - center) for v in lam)
    rate_in = max(math.pi - abs(x1 - x2), 0.5)
    rate_out = 1.2  # net outer decay: kernel beats the inverse-gamma measure growth
    T_out = _initial_half_width(im_spread, rate_out, quad.tail_tol)
    T_in = T_out + _initial_half_width(0.0, rate_in, quad.tail_tol)
    m_max = max(d[0] + d[1] for d in derivs)

    while True:
        t_out, w_out = _grid(center, T_out, quad.step)
        nu = c2 + 1j * t_out
        M = nu.size

        # inner contraction: phi at level 2 as 2M - 1 Toeplitz offsets
        _, _, f, T_in = _level2(_offset_kernel(c1 - c2, quad.step, M, g, lattice), x1, x2,
                                c1, center, T_in, _MAX_HALF_WIDTH + T_out, quad, m_max)

        # outer weight: a, b per node; the measure, which overflows alone, meets G_l in logs
        lgK = _grid_kernel([(c2 - v.real, v.imag - center) for v in lam], quad.step, M // 2,
                           g, lattice)
        u = np.sum(lgK, axis=1) + nu * (x2 - x3) + np.log(w_out) + lam_sum * x3 / 2
        gam = nu + (c1 - c2)
        key = ("moments", c1 - c2, quad.step, g, M, f.size // 2, x1 - x2, m_max)
        if key not in lattice:
            log_mu = _log_measure(1j * quad.step * np.arange(M), g)  # even in the offset
            log_mu_off = np.concatenate([log_mu[:0:-1], log_mu])
            G = _lattice_moments(f, quad.step, x1 - x2, M, m_max)
            lattice[key] = [np.exp(log_mu_off + np.log(G_l)) for G_l in G]
        H = lattice[key]
        outer = (nu, gam, np.exp(u + gam * (x1 - x2)), np.exp(u), H, lam_sum)
        values = _outer_values(outer, derivs, quad.tail_tol)
        if values is not None:
            return values
        if T_out >= _MAX_HALF_WIDTH:
            raise TailNotConvergedError(
                f"n=3 outer integrand tail above tail_tol at half-width {T_out:.1f}")
        grow = min(1.4 * T_out, _MAX_HALF_WIDTH) - T_out
        T_out += grow
        T_in += grow


def eval_phi_many(lam, x, g: float, derivs, contour: tuple[float, ...] | None = None,
                  quad: QuadratureSpec | None = None, *,
                  lattice: dict | None = None) -> list[complex]:
    """Evaluate several coordinate derivatives of Phi in one quadrature pass.

    derivs is a list of per-coordinate derivative-order tuples (total order
    <= 2 each); the value of Phi itself is the all-zero tuple.  All
    quantities share the same grid, so ratios between them carry no
    discretisation noise beyond the integrand factors themselves.  n must be
    1, 2 or 3 and derivs must not be empty, or ValueError is raised, the same
    at every n.  A lattice dict shared between the calls of one check reuses
    what they have in common: the kernel columns, which depend on the contour
    and lambda only through c - Re lambda_k and Im lambda_k minus the grid
    centre, and for n = 3 the lambda-independent envelope and moments.  So
    calls at real shifts of lambda or at other x share them (None: a fresh
    one; n = 1 ignores it).  Keep a dict for one check: it holds every array
    built.
    """
    lam = as_spectral(lam)
    x = as_position(x)
    n = lam.n
    if not 1 <= n <= 3:
        raise ValueError(f"wave-function evaluation supports n = 1, 2, 3, got n = {n}")
    if x.n != n:
        raise ValueError(f"lambda has {n} entries but x has {x.n}")
    derivs = [tuple(int(o) for o in d) for d in derivs]
    if not derivs:
        raise ValueError("derivs is empty: ask for at least one derivative multi-index")
    for d in derivs:
        if len(d) != n or any(o < 0 for o in d) or sum(d) > 2:
            raise ValueError(f"bad derivative multi-index {d}")
    quad = quad or QuadratureSpec()
    contour = contour or default_contour(n, g)
    validate_contour(contour, lam, g)
    if n == 1:
        return _quantities_n1(lam.values, x.values, derivs)
    lattice = {} if lattice is None else lattice
    if n == 2:
        return _quantities_n2(lam.values, x.values, g, contour, quad, derivs, lattice)
    return _quantities_n3(lam.values, x.values, g, contour, quad, derivs, lattice)


def eval_phi(lam, x, g: float, contour: tuple[float, ...] | None = None,
             quad: QuadratureSpec | None = None, *, lattice: dict | None = None) -> complex:
    """The Mellin-Barnes wave function Phi (no prefactor, no normalisation)."""
    n = as_spectral(lam).n
    return eval_phi_many(lam, x, g, [(0,) * n], contour, quad, lattice=lattice)[0]


def sinh_prefactor(x, g: float) -> float:
    """prod_{j<k} sinh^g |x_j - x_k| (real power; g need not be an integer)."""
    x = as_position(x)
    out = 1.0
    for j in range(x.n):
        for k in range(j + 1, x.n):
            out *= math.sinh(abs(x.values[j] - x.values[k])) ** g
    return out


def eval_psi(lam, x, g: float, quad: QuadratureSpec | None = None) -> complex:
    """Full wave function Psi = prefactor * Phi."""
    return sinh_prefactor(x, g) * eval_phi(lam, x, g, quad=quad)
