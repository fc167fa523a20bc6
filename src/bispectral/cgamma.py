"""Complex log-gamma kernel.

Everything in this package that touches a gamma function goes through
``log_gamma``.  Products of many gamma factors are summed in log space and
exponentiated once by the caller, so magnitudes far beyond double-precision
range never appear in intermediate arithmetic.

The core is a Lanczos rational approximation (g = 607/128, 15 terms) valid
for Re z >= 0.5, in real arithmetic: with X = Re z + k - 1 and
D = 1/(X^2 + (Im z)^2), each term c_k/(z - 1 + k) is c_k (X - i Im z) D, so
the sum takes two real row sums over blocks of 2048 x 14 instead of 14 complex
divisions, and each log is log|w| + i atan2(Im w, Re w).  The row sums use
np.einsum, not BLAS: a gemv's last bits depend on where a row sits, and the
callers' conjugate pairing needs log_gamma(conj z) == conj(log_gamma(z)) and
every element independent of its position, bit for bit.  The reflection
formula, log pi - log sin(pi z) - log Gamma(1 - z), and the pole test run
only on the arguments with Re z < 0.5 (every pole has Re z <= 1e-14).  Past
|z| of about 1e154, X^2 + (Im z)^2 overflows to inf and D to 0, which is the
sums' limit there (each term is below 1e-150 of c0), so that overflow is
expected and raises no warning.  Against
mpmath's loggamma the error is within 1e-12 max(1, |log Gamma(z)|) on
Re z in {-7.3, -2.5, -0.7, 0.125, 0.3, 0.75, 1.5} with |Im z| <= 300, which
covers the n = 3 offsets (|Im z| up to about 66 at the default quadrature, a
few hundred at the half-width cap).  The imaginary part is continuous along
vertical lines Re z = const > 0 (no branch jumps on integration contours).
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["GammaPoleError", "log_gamma"]


class GammaPoleError(ArithmeticError):
    """Raised when a gamma argument sits on (or within 1e-14 of) a pole."""


# Lanczos coefficients for g = 607/128, 15 terms (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = np.array([
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
])
_HALF_LOG_2PI = 0.5 * math.log(2.0 * math.pi)
_LOG_PI = math.log(math.pi)
_POLE_TOL = 1e-14
_LANCZOS_K = np.arange(len(_LANCZOS_C) - 1, dtype=float)
_BLOCK = 2048


def _is_pole(z: np.ndarray) -> np.ndarray:
    """True where z is within _POLE_TOL of a non-positive integer."""
    near_int = np.round(z.real)
    return ((np.abs(z.real - near_int) <= _POLE_TOL) & (np.abs(z.imag) <= _POLE_TOL)
            & (near_int <= 0))


@np.errstate(over="ignore")  # past |z| ~ 1e154 a square is inf and D = 1/inf = 0: the limit
def _lanczos_sums(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    # sum c_k X D and sum c_k D over k >= 1, with X = x + k - 1 and D = 1/(X^2 + y^2),
    # on blocks of _BLOCK rows filled in place; einsum, not BLAS, so that every row's
    # sum has the same last bits wherever the row sits in the array
    y2 = y * y
    sums = np.empty((2, x.size))
    buf = np.empty((2, min(x.size, _BLOCK), _LANCZOS_K.size))
    for lo in range(0, x.size, _BLOCK):
        rows = slice(lo, lo + _BLOCK)
        XD, D = block = buf[:, :min(_BLOCK, x.size - lo)]
        np.add(x[rows, None], _LANCZOS_K, out=XD)
        np.multiply(XD, XD, out=D)
        D += y2[rows, None]
        np.divide(1.0, D, out=D)
        XD *= D
        np.einsum("aij,j->ai", block, _LANCZOS_C[1:], out=sums[:, rows])
    return sums


def _loggamma_right(z: np.ndarray) -> np.ndarray:
    # Lanczos core on a 1-D array; valid for Re z >= 0.5.  Each term c_k/(z - 1 + k)
    # is c_k (X - iy) D, so s = c0 + sum c_k X D - iy sum c_k D in real arithmetic.
    x, y = z.real, z.imag
    s_re, s_im = _lanczos_sums(x, y)
    s_re += _LANCZOS_C[0]
    s_im *= -y
    # log w = log|w| + i atan2(Im w, Re w), for t = z + g - 1/2 and for s
    t = x + (_LANCZOS_G - 0.5)
    log_t = np.log(np.hypot(t, y))
    arg_t = np.arctan2(y, t)
    xh = x - 0.5
    out = np.empty(z.shape, dtype=complex)
    out.real = (_HALF_LOG_2PI + (xh * log_t - y * arg_t) - t + np.log(np.hypot(s_re, s_im)))
    out.imag = (xh * arg_t + y * log_t) - y + np.arctan2(s_im, s_re)
    return out


def _log_sin_pi(z: np.ndarray) -> np.ndarray:
    # log sin(pi z) without overflow for large |Im z|:
    # sin(pi z) = e^{-i pi z} (e^{2 i pi z} - 1) / (2i), reduced through log1p.
    flip = z.imag < 0.0
    zf = np.where(flip, np.conj(z), z)
    w = np.exp(2j * np.pi * zf)
    val = -1j * np.pi * zf + 1j * np.pi - np.log(2j) + np.log1p(-w)
    return np.where(flip, np.conj(val), val)


def log_gamma(z):
    """Principal branch of log Gamma(z) for complex z (scalar or array).

    Raises GammaPoleError when any argument is within 1e-14 of a
    non-positive integer.
    """
    arr = np.asarray(z, dtype=complex)
    flat = arr.ravel()
    refl = flat.real < 0.5
    left = flat[refl]
    if left.size and np.any(_is_pole(left)):
        raise GammaPoleError(f"log_gamma argument {left[_is_pole(left)][0]} is at a gamma pole")
    if not left.size:
        out = _loggamma_right(flat)
    else:
        # evaluate the core only at safe arguments; reflected entries use 1-z
        right = flat.copy()
        right[refl] = 1.0 - left
        out = _loggamma_right(right)
        out[refl] = _LOG_PI - _log_sin_pi(left) - out[refl]
    if arr.ndim == 0:
        return complex(out[0])
    return out.reshape(arr.shape)
