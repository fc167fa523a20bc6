"""Nested Mellin-Barnes evaluation of the hyperbolic Sutherland wave function.

The wave function Phi is an iterated contour integral, every level on one vertical
line Re = c (the contour): level m carries m integration variables, the integrand is
a ratio of gamma-function products (a kernel coupling adjacent levels over an
inverse-gamma measure within a level) times an exponential in the
coordinates, and the recursion bottoms out at a single exponential e^{l x}.

Evaluation uses truncated trapezoid quadrature on each vertical line.  The
gamma factors decay super-polynomially along the contours, so the trapezoid
rule is spectrally accurate; the truncation width is expanded adaptively
until the integrand magnitude at the boundary falls below the constant
``_TAIL_TOL`` = 1e-13 times the observed maximum.  The step comes from the
integrand too: its nearest pole lies ``validate_contour``'s margin a off the
contour, and the trapezoid error on a strip of half-width a decays like
exp(-2 pi a / h) (Trefethen & Weideman, SIAM Rev. 56 (2014)), so every level
takes h = min(``_STEP``, 2 pi a / ln(1/_TAIL_TOL)): the constant step 0.1
wherever a >= 0.48, less nearer a pole.  A node budget of ``_MAX_NODES`` per
level, the line of half-width 120 at step 0.1, bounds the work: a grid whose
start would exceed it raises ``GridBudgetError`` before any work, and no grid
grows past it.  Derivatives in the coordinates are exact: they only multiply
the integrand by linear forms in the integration variables.

Supported sizes are n = 1, 2, 3 (the nested grid grows like
grid^(n(n-1)/2)).  No 2*pi normalisation is applied anywhere; every check
built on top of this module is a ratio or eigenvalue test.
"""

from __future__ import annotations

import cmath
import math

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .cgamma import _is_pole, log_gamma

__all__ = [
    "SpectralPoint",
    "PositionPoint",
    "InfeasibleContourError",
    "TailNotConvergedError",
    "GridBudgetError",
    "CoincidentCoordinatesError",
    "ConvergenceWindowError",
    "kernel_K",
    "measure_mu",
    "validate_contour",
    "eval_phi",
    "eval_phi_many",
    "eval_psi",
    "sinh_prefactor",
]


class InfeasibleContourError(ValueError):
    """No vertical line separates the ascending and descending pole lattices."""


class TailNotConvergedError(ArithmeticError):
    """Truncation boundary magnitude stayed above _TAIL_TOL * max(integrand)."""


class GridBudgetError(ArithmeticError):
    """The pole margin asks for a step whose grid would exceed the node budget."""


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
# the truncation boundary passes once its magnitude is at most this times the peak
_TAIL_TOL = 1e-13
# the trapezoid step of every level, unless the pole margin asks for less (_STEP_PER_MARGIN)
_STEP = 0.1
# the trapezoid error on a strip of half-width a decays like exp(-2 pi a / h), so the step
# 2 pi a / ln(1/_TAIL_TOL) per unit of pole margin a brings it to _TAIL_TOL times the
# integrand's size on the strip, which exceeds |Phi|: at margin 0.25 (g = 1.25, shifted
# contour) n = 3 values differ from finer steps by up to 1.07e-12 relative
_STEP_PER_MARGIN = 2.0 * math.pi / -math.log(_TAIL_TOL)
# The n = 3 outer start.  By Stirling (DLMF 5.11.9: |G(x + iy)| ~ sqrt(2 pi) |y|^(x - 1/2)
# e^(-pi |y| / 2)) the outer integrand's slowest edge, one nu at distance T from the centre
# and the other near it, falls like (T/2)^p e^(-pi T) with p = 2g - 2 + m: the three kernel
# pairs of that nu give (T/2)^(3g - 3) e^(-3 pi T / 2), the inverse-gamma measure
# (T/2)^(2 - 2g) e^(pi T), the oscillating level-1 integral (T/2)^(g - 1) e^(-pi T / 2) from
# its end points, and the derivatives' powers of nu and gam T^m, m their largest total
# order.  The line starts where pi T - p ln(T/2) = ln(1/_TAIL_TOL) + _OUTER_SLACK, past the
# spread of lambda.  The slack holds the constants the asymptotics leave out and is
# measured: over 280 evaluations at g from 1.1 to 8, |Im lambda| up to 8 and all x, each
# outer tail passed on its first grid, the closest by 0.9 in T, and so did 352 more drawn
# apart from them, up to g = 10 and |Im lambda| = 10 (closest 0.4).  The 1.4x regrow is
# its guard.
_OUTER_SLACK = 12.0
# the node budget of one level: the line of half-width _MAX_HALF_WIDTH at step _STEP (the
# n = 3 level-1 line may take it once more past the outer one, as it does the cap)
_MAX_NODES = 2401
# the bound on |Re sum lambda| max|x_i|, Phi's log scale: past +710 values overflow, past -650
# they turn subnormal; residuals held to 640 (n = 2, 3, g 1.25..3, |Im lambda| <= 30, 8)
_MAX_SCALE = 600.0


class _Point(tuple):
    """A tuple of finite values, no two within _tol, nor further apart than _window: the
    one rule of every kind of point.  A point of the class itself is returned unchanged, and
    a point hashes and compares as its plain tuple does."""

    __slots__ = ()
    _convert, _tol, _window, _coincide = complex, _DISTINCT_TOL, math.inf, ValueError

    def __new__(cls, values):
        if isinstance(values, cls):
            return values
        vals = tuple(map(cls._convert, values))
        if not all(map(cmath.isfinite, vals)):
            raise ValueError(f"{cls._noun} {vals}: every value must be finite")
        for i in range(len(vals)):
            for j in range(i + 1, len(vals)):
                sep = abs(vals[i] - vals[j])
                if sep <= cls._tol:
                    raise cls._coincide(f"{cls._noun} {vals}: values {i} and {j} coincide")
                if sep > cls._window:
                    raise ConvergenceWindowError(f"|x_{i} - x_{j}| = {sep} exceeds the "
                                                 f"convergence window {cls._window}")
        return super().__new__(cls, vals)


class SpectralPoint(_Point):
    """n finite complex spectral parameters, pairwise distinct.

    Nominally purely imaginary; a small real part (or the +2 shifts produced
    by the dual difference operators) is admitted as long as the evaluation's
    line Re = c separates the pole lattices, which ``validate_contour`` checks.
    """

    __slots__ = ()
    _noun = "spectral point"


class PositionPoint(_Point):
    """n finite real coordinates, pairwise distinct, no two further apart than the
    convergence window _MAX_SEPARATION."""

    __slots__ = ()
    _convert, _noun, _window = float, "coordinates", _MAX_SEPARATION
    _coincide = CoincidentCoordinatesError


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
    factor: the returned log has real part -inf and exp() of it is 0.  nu may
    stack points along its leading axes, shape (..., n): then the result is an
    array over them, from one log_gamma call.
    """
    nu = np.asarray(nu, dtype=complex)
    r, s = np.triu_indices(nu.shape[-1], 1)
    return np.sum(_log_measure(nu[..., r] - nu[..., s], g), axis=-1)[()]


def validate_contour(c: float, lam, g: float) -> float:
    """The pole margin of the line Re = c on which every level lies.

    The lattices attached to an upper variable with real part d are d + g + 2k (ascending)
    and d - g - 2k (descending), k >= 0; the line Re = c separates them iff its margin
    g - |c - d| is positive.  A lower level sits on the line itself (margin g), so the
    margin is g - max_k |c - Re lambda_k|, or g at n = 1, which has no level.  Raises
    InfeasibleContourError unless it is > 0, so a NaN is refused too; a coupling g <= 0
    is a bad input at every n, ValueError.
    """
    if g <= 0:
        raise ValueError("coupling g must be positive")
    lam = SpectralPoint(lam)
    top_re = [v.real for v in lam]
    margin = g - max(abs(c - d) for d in top_re) if len(lam) > 1 else g
    if not margin > 0.0:
        raise InfeasibleContourError(
            f"the line Re = {c} does not separate the pole lattices "
            f"for Re(lambda) = {top_re}, g = {g} (margin {margin:.3g})")
    return margin


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
    # a difference: past |peak| ~ 1e17 the sum peak + log_tol rounds to peak, so a
    # profile whose nodes all round to one value would pass
    return edge - peak <= log_tol


def _level_cap(step: float) -> float:
    """The widest half-width of one level at this step: _MAX_HALF_WIDTH, or the node budget."""
    return min(_MAX_HALF_WIDTH, step * (_MAX_NODES // 2))


def _exp_reach(rate: float) -> float:
    """How far past its peak a tail decaying like e^{-rate |t|} falls below _TAIL_TOL, with room."""
    return (-math.log(_TAIL_TOL) + 5.0) / rate


def _outer_reach(g: float, m: int) -> float:
    """The n = 3 outer start past the spread of lambda, from its Stirling tail (_OUTER_SLACK)."""
    p = 2.0 * g - 2.0 + m
    rhs = -math.log(_TAIL_TOL) + _OUTER_SLACK
    T = rhs / math.pi
    for _ in range(20):  # the map's slope p / (pi T) stays below 1/4: these reach the root
        T = (rhs + p * math.log(T / 2.0)) / math.pi
    return T


def _initial_half_width(im_spread: float, reach: float, step: float) -> float:
    """im_spread + reach, where the tail should pass, capped at _MAX_HALF_WIDTH; a start
    whose grid exceeds the node budget is refused here, before any work."""
    T = min(im_spread + reach, _MAX_HALF_WIDTH)
    if T > _level_cap(step):
        raise GridBudgetError(
            f"half-width {T:.1f} at step {step:.3g} needs {2 * math.ceil(T / step) + 1} "
            f"nodes on one level, above the budget of {_MAX_NODES}")
    return T


def _quantities_n1(lam, x, derivs):
    l1, x1 = lam[0], x[0]
    base = np.exp(l1 * x1)
    return [l1 ** d[0] * base for d in derivs]


def _level2(log_kernel, x1, x2, c, center, T, cap, step, m_max):
    """Grow the level-1 line Re = c by 1.5x up to cap until its tail passes.

    log_kernel(gam) returns (env, lgK): env[i] is the largest Re log K(gam_i, p)
    over the upper points p, and lgK is what the caller contracts.  The one
    envelope |w e^{gam (x1-x2)}| |gam|^m_max e^{2 env} bounds every moment and
    pair.  Returns gam, w e^{gam (x1-x2)}, lgK and T of the grid that passed.
    """
    log_tol = math.log(_TAIL_TOL)
    while True:
        t, w = _grid(center, T, step)
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
                f"level-1 integrand tail above {_TAIL_TOL:g} of its peak "
                f"at half-width {T:.1f}")
        T = min(1.5 * T, cap)


def _offset_kernel(step, M, g, lattice):
    """log_kernel for _level2 against an M-node outer grid of the same line, step and centre.

    Level-1 node i and outer node p differ by 1j*step*(k_i - k_p), with k the integer
    grid index counted from the centre, so log K(gam_i, nu_p) is f(k_i - k_p): the
    _grid_kernel column at (0, 0) on the N + 3M - 3 offsets |j| <= N//2 + 3(M//2) that
    _lattice_moments reaches.  Node i's envelope is the largest Re f over its M offsets
    k_i - k_p, a sliding-window maximum, kept in the lattice dict under every scalar it
    depends on.
    """
    def log_kernel(gam):
        reach = gam.size // 2 + 3 * (M // 2)
        f = _grid_kernel([(0.0, 0.0)], step, reach, g, lattice)[:, 0]
        key = ("envelope", step, g, M, reach)
        if key not in lattice:
            lattice[key] = sliding_window_view(f.real[M - 1:f.size - M + 1], M).max(axis=1)
        return lattice[key], f
    return log_kernel


def _lattice_moments(f, step, dx, M, m_max):
    """G_l(d) = sum_j step e^{u_j dx} (-u_j)^l F(j) F(j + d), u_j = 1j*step*j, at d = 1-M..M-1.

    F = e^f on the offsets of _offset_kernel; |j| <= N//2 + M//2 is the union
    of the level-1 grid's per-p windows.  The level-2 moments are C_m[p, q] =
    e^{nu_p dx} _moment(G(p - q), nu_p, 0, m).  No FFT: G_l's entries near
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


def _quantities_n2(lam, x, g, c, step, derivs, lattice):
    """Phi_2 is the n = 3 inner contraction at the single pair (l1, l2): its integrand is
    e^{(l1+l2) x2} e^{gam (x1-x2)} K(gam, l1) K(gam, l2).  On the grid gam = c + 1j*(centre
    + step*k) the two kernel columns are _grid_kernel's at (c - Re l_j, +-delta), delta =
    (Im l1 - Im l2)/2, so at c - Re l2 = +-(c - Re l1) (c = 0 and 1 at Re lambda = 0 and its
    +2 shifts) they are one column read back twice.  The calls at one point, and at other x
    or real shifts of lambda, share it through lattice, and each grows its own grid.
    Returns the values and eval_phi_many's sizes of them: |each term| of the node sums
    and of _moment's expansion."""
    l1, l2 = lam
    x1, x2 = x
    center = 0.5 * (l1.imag + l2.imag)
    delta = 0.5 * (l1.imag - l2.imag)
    rate = max(math.pi - abs(x1 - x2), 0.5)
    im_spread = max(abs(l1.imag - center), abs(l2.imag - center))
    T = _initial_half_width(im_spread, _exp_reach(rate), step)
    m_max = max(d1 + d2 for d1, d2 in derivs)

    def log_kernel(gam):
        lgK = _grid_kernel([(c - l1.real, delta), (c - l2.real, -delta)], step,
                           gam.size // 2, g, lattice)
        return lgK.real.max(axis=1), lgK
    gam, base, lgK, _ = _level2(log_kernel, x1, x2, c, center, T, _level_cap(step), step,
                                m_max)
    A = np.exp(lgK)
    C = [(A * (base * gam ** m)[:, None]).T @ A for m in range(m_max + 1)]
    lam_sum = l1 + l2
    scale = np.exp(lam_sum * x2)
    node = np.abs(A[:, 0] * base * A[:, 1])
    M = [float(node @ np.abs(gam) ** m) for m in range(m_max + 1)]
    return ([complex(scale * _moment(C, lam_sum, d1, d2)[0, 1]) for d1, d2 in derivs],
            [abs(scale) * sum(math.comb(d2, j) * abs(lam_sum) ** j * M[d1 + d2 - j]
                              for j in range(d2 + 1)) for d1, d2 in derivs])


def _outer_entries(nu, a, b, H, lam_sum, p, q, d):
    """O[p, q] = (lam_sum - S)^d3 _moment(C, S, d1, d2) at index arrays p, q.

    S = nu_p + nu_q and C_k[p, q] = a_p b_q _moment(H(p - q), nu_p, 0, k): the per-node
    factors a, b times the level-2 moments, read off the Toeplitz offsets H_l.  b_q meets
    H first, as in the sums: a_p b_q alone underflows where Phi nears the double range's
    foot, and a tail of zeros would pass any test.
    """
    H_pq = [H_l[p - q + nu.size - 1] for H_l in H]
    C = [a[p] * (b[q] * _moment(H_pq, nu[p], 0, k)) for k in range(d[0] + d[1] + 1)]
    return (lam_sum - nu[p] - nu[q]) ** d[2] * _moment(C, nu[p] + nu[q], d[0], d[1])


def _outer_values(outer, derivs):
    """Each derivative's sum of _outer_entries(*outer) over all (p, q), or None if a tail fails.

    Y[i][l] = sum_q H_l(p - q) b_q nu_q^i are direct Toeplitz mat-vecs, and expanding
    S^s = (nu_p + nu_q)^s over them gives Z[s][k] = sum_{p,q} S^s C_k[p, q], with C_k as
    in _outer_entries.  A tail passes if each edge |O| <= _TAIL_TOL
    max|O| < inf; rows and columns 0, M // 2, M - 1 bound max|O| from below (not the
    diagonal: mu(0) = 0), and only when that bound fails is the full M x M |O| taken.
    """
    nu, a, b, H, lam_sum = outer
    top = max(map(sum, derivs))
    Y = [[np.convolve(H_l, b * nu ** i, "valid") for H_l in H] for i in range(top + 1)]
    Z = [[sum(math.comb(s, i) * np.dot(a * nu ** (s - i), _moment(Y[i], nu, 0, k))
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
        if np.isfinite(peak) and not edge < peak * _TAIL_TOL:
            peak = np.abs(_outer_entries(*outer, idx[:, None], idx, d)).max()
        if not (0.0 < peak < np.inf and edge <= peak * _TAIL_TOL):
            return None
    return values if np.isfinite(values).all() else None


def _quantities_n3(lam, x, g, c, step, derivs, lattice):
    """Both levels lie on Re = c.  The outer kernel column of lambda_k is _grid_kernel's at
    (c - Re lambda_k, Im lambda_k - centre), and the offset kernel f between the levels its
    column at (0, 0).  lattice keeps the columns, f's envelope and H_l = mu G_l under every
    scalar they depend on: f, its envelope and H_l depend on neither lambda nor c, and a
    real shift of lambda moves no column's key, or moves it to the one of -a.  So calls at
    real shifts of lambda share them, and each call still grows its own grids."""
    l1, l2, l3 = lam
    x1, x2, x3 = x
    center = (l1.imag + l2.imag + l3.imag) / 3.0
    lam_sum = l1 + l2 + l3
    im_spread = max(abs(v.imag - center) for v in lam)
    rate_in = max(math.pi - abs(x1 - x2), 0.5)
    cap = _level_cap(step)
    T_out = _initial_half_width(im_spread, _outer_reach(g, max(map(sum, derivs))), step)
    T_in = T_out + _initial_half_width(0.0, _exp_reach(rate_in), step)
    m_max = max(d[0] + d[1] for d in derivs)

    while True:
        t_out, w_out = _grid(center, T_out, step)
        nu = c + 1j * t_out
        M = nu.size

        # inner contraction: phi at level 2 as 2M - 1 Toeplitz offsets
        _, _, f, T_in = _level2(_offset_kernel(step, M, g, lattice), x1, x2,
                                c, center, T_in, cap + T_out, step, m_max)

        # outer weight: a, b per node; the measure, which overflows alone, meets G_l in logs
        lgK = _grid_kernel([(c - v.real, v.imag - center) for v in lam], step, M // 2,
                           g, lattice)
        u = np.sum(lgK, axis=1) + nu * (x2 - x3) + np.log(w_out) + lam_sum * x3 / 2
        key = ("moments", step, g, M, f.size // 2, x1 - x2, m_max)
        if key not in lattice:
            log_mu = _log_measure(1j * step * np.arange(M), g)  # even in the offset
            log_mu_off = np.concatenate([log_mu[:0:-1], log_mu])
            G = _lattice_moments(f, step, x1 - x2, M, m_max)
            lattice[key] = [np.exp(log_mu_off + np.log(G_l)) for G_l in G]
        H = lattice[key]
        outer = (nu, np.exp(u + nu * (x1 - x2)), np.exp(u), H, lam_sum)
        values = _outer_values(outer, derivs)
        if values is not None:
            return values
        if T_out >= cap:
            raise TailNotConvergedError(
                f"n=3 outer integrand tail above {_TAIL_TOL:g} of its peak "
                f"at half-width {T_out:.1f}")
        grow = min(1.4 * T_out, cap) - T_out
        T_out += grow
        T_in += grow


def eval_phi_many(lam, x, g: float, derivs, contour: float = 0.0, *,
                  lattice: dict | None = None, sizes: list | None = None) -> list[complex]:
    """Evaluate several coordinate derivatives of Phi in one quadrature pass.

    derivs is a list of per-coordinate derivative-order tuples (total order
    <= 2 each); the value of Phi itself is the all-zero tuple.  All
    quantities share the same grid, so ratios between them carry no
    discretisation noise beyond the integrand factors themselves.  contour is
    the real part c of the line on which every level lies; validate_contour
    refuses a line that does not separate the pole lattices.  n must be
    1, 2 or 3, derivs must not be empty and g must be positive, or ValueError
    is raised, the same at every n; |Re sum lambda| max|x_i| above _MAX_SCALE
    raises OverflowError before any quadrature.  A lattice dict shared between
    calls reuses what they have in common: the kernel columns, which depend on
    c and lambda only through c - Re lambda_k and Im lambda_k minus the grid
    centre, and for n = 3 the lambda- and c-independent envelope and moments.  So
    calls at real shifts of lambda or at other x share them (None: a fresh
    one).  It also keeps each call's values and sizes under its full key ("values",
    lambda, x, g, c, the step taken, derivs), so a repeated call makes no quadrature
    pass and returns a fresh list, equal bit for bit; a refused call stores nothing and
    raises again.  Every entry is a pure function of its key, so sharing moves no value
    and one dict serves every point of a run; it holds every array built, so keep it
    for one run.  A sizes list receives, per value, the sum of |term| over the terms
    that value sums, whose round-off is at most a few eps times it: at n = 2 the
    quadrature nodes, which cancel where Im(lambda_1 - lambda_2) is wide; at n = 1 and
    n = 3 |value|.
    """
    lam, x = SpectralPoint(lam), PositionPoint(x)
    n = len(lam)
    if not 1 <= n <= 3:
        raise ValueError(f"wave-function evaluation supports n = 1, 2, 3, got n = {n}")
    if len(x) != n:
        raise ValueError(f"lambda has {n} entries but x has {len(x)}")
    derivs = [tuple(int(o) for o in d) for d in derivs]
    if not derivs:
        raise ValueError("derivs is empty: ask for at least one derivative multi-index")
    for d in derivs:
        if len(d) != n or any(o < 0 for o in d) or sum(d) > 2:
            raise ValueError(f"bad derivative multi-index {d}")
    if (scale := abs(sum(v.real for v in lam)) * max(map(abs, x))) > _MAX_SCALE:
        raise OverflowError(f"Phi's scale e^(Re(sum lambda) x) is out of range: "
                            f"|Re sum lambda| max|x| = {scale:.4g} > {_MAX_SCALE:g}")
    margin = validate_contour(contour, lam, g)
    args = (lam, x, g, contour, min(_STEP, _STEP_PER_MARGIN * margin), derivs)
    lattice = {} if lattice is None else lattice
    key = ("values", *args[:-1], tuple(derivs))
    if key not in lattice:
        if n == 2:
            lattice[key] = _quantities_n2(*args, lattice)
        else:
            values = (_quantities_n1(lam, x, derivs) if n == 1 else
                      _quantities_n3(*args, lattice))
            lattice[key] = values, list(map(abs, values))
    values, held = lattice[key]
    if sizes is not None:
        sizes.extend(held)
    return list(values)


def eval_phi(lam, x, g: float, contour: float = 0.0, *, lattice: dict | None = None,
             sizes: list | None = None) -> complex:
    """The Mellin-Barnes wave function Phi (no prefactor, no normalisation)."""
    lam = SpectralPoint(lam)
    return eval_phi_many(lam, x, g, [(0,) * len(lam)], contour, lattice=lattice,
                         sizes=sizes)[0]


def sinh_prefactor(x, g: float) -> float:
    """prod_{j<k} sinh^g |x_j - x_k| (real power; g need not be an integer)."""
    x = PositionPoint(x)
    out = 1.0
    for j in range(len(x)):
        for k in range(j + 1, len(x)):
            out *= math.sinh(abs(x[j] - x[k])) ** g
    return out


def eval_psi(lam, x, g: float) -> complex:
    """Full wave function Psi = prefactor * Phi."""
    return sinh_prefactor(x, g) * eval_phi(lam, x, g)
