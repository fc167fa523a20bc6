"""Exact verification of the rational-function identities behind the dual
spectral problem.

The checks run in exact arithmetic in the prime field F_p, p = 2^31 - 1.  The
central objects are the subset sums S'_r / S~'_r whose recurrence

    S'_r(u, v) = S~'_{r-1}(v, u) + S~'_r(v, u)

generalises Pascal's rule for binomial coefficients (which it becomes at
alpha = 0).  Identity testing is randomised Schwartz-Zippel style: a nonzero
difference of two rational functions, its denominators cleared to degree d,
vanishes at a uniform point of F_p with probability at most d/p.  A check
draws all its points uniformly in F_p from its seed in one call, on
``random.Random``'s byte stream (the same points under any numpy), and holds
them as int64 arrays with a leading trial axis for ``_subset_sums``.  Residues
are taken term by term at the collision itself rather than as numeric limits.
Each check returns None when it holds, and otherwise its first disagreement as
a reproducible, JSON-ready witness of residues that names the modulus.
``sum_S`` is the definitional sum in ``Fraction``s, the reference the engine
is tested against.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from functools import cache
from itertools import combinations
from typing import Callable, Sequence

import numpy as np

__all__ = [
    "sum_S",
    "substitution_map",
    "verify_lemma1",
    "residue_check",
    "binomial_limit_check",
    "substitution_check",
]

_FORMS = ("primed_S", "primed_Stilde", "unprimed_S", "unprimed_Stilde")
# the prime modulus of every check, and 1/2 mod it
_P = 2 ** 31 - 1
_HALF = (_P + 1) // 2
# sizes n = 1.._BINOMIAL_N_MAX of the alpha = 0 degeneration check
_BINOMIAL_N_MAX = 10
# the sizes of the family `cli` runs: Lemma 1 at n = 1.._LEMMA1_FAMILY_N_MAX, the residue
# relations at n = 2.._RESIDUE_FAMILY_N_MAX
_LEMMA1_FAMILY_N_MAX = 5
_RESIDUE_FAMILY_N_MAX = 4
# the seeded random points of every verify_lemma1 call
_LEMMA1_TRIALS = 100
# the largest n that verify_lemma1 takes
_LEMMA1_N_MAX = 6


# ---------------------------------------------------------------------------
# the subset sums


def sum_S(r: int, u: Sequence, v: Sequence, alpha, form: str = "primed_S") -> Fraction:
    """Subset sum S'_r, S~'_r or their pre-substitution forms, exactly, by definition.

    The sum over the r-subsets S of the base values b (u, or v for the tilde
    forms) of prod_{i in S, j not in S} (b_i - b_j + s)/(b_i - b_j), s = alpha for
    the tilde forms and -alpha otherwise, times each member's cross factors
    against the other side: (d + alpha)/d for the primed forms and
    (d + g)/(d + 2 - g) for the unprimed ones, d = u_i - v_a.  The coupling
    enters through alpha = 2g - 2, i.e. g = alpha/2 + 1, matching
    ``substitution_map``.  u has n entries and v has n - 1; entries and alpha are
    ints or Fractions, and the result is a reduced Fraction.
    """
    if form not in _FORMS:
        raise ValueError(f"form must be one of {_FORMS}, got {form!r}")
    if len(v) != len(u) - 1:
        raise ValueError(f"need len(v) = len(u) - 1, got {len(u)} and {len(v)}")
    if r < 0:
        raise ValueError(f"negative subset order r={r}")
    primed = form.startswith("primed")
    tilde = form.endswith("Stilde")
    u, v, alpha = [Fraction(x) for x in u], [Fraction(x) for x in v], Fraction(alpha)
    base, other = (v, u) if tilde else (u, v)
    shift = alpha if tilde else -alpha
    g = alpha / 2 + 1

    def ratio(num: Fraction, den: Fraction) -> Fraction:
        if not den:
            raise ZeroDivisionError("a denominator factor of the subset sum vanishes")
        return num / den

    total = Fraction(0)
    for members in combinations(range(len(base)), r):
        term = Fraction(1)
        for i in members:
            for j in range(len(base)):
                if j not in members:
                    term *= ratio(base[i] - base[j] + shift, base[i] - base[j])
            for c in other:
                d = c - base[i] if tilde else base[i] - c
                term *= ratio(d + alpha, d) if primed else ratio(d + g, d + 2 - g)
        total += term
    return total


def _product(factors: np.ndarray) -> np.ndarray:
    """Product mod p of residues along the first axis (1 where it is empty), by a
    pairwise tree in place: each step multiplies two residues, below 2^62, and
    reduces.  ``factors`` is overwritten."""
    size = len(factors)
    while size > 1:
        half = size // 2
        head = factors[:half]
        np.multiply(head, factors[half:2 * half], out=head)
        np.remainder(head, _P, out=head)
        if size % 2:
            factors[half] = factors[size - 1]
        size -= half
    return factors[0] if size else np.ones(factors.shape[1:], np.int64)


@cache
def _layout(m: int) -> tuple[np.ndarray, ...]:
    """Where each of the 2^m subsets of m base values gathers its factors from.

    Returns (lo, hi, index, bits, sizes).  (lo[q], hi[q]) is pair q, lo < hi.
    index[f, k] is the row of factor f of subset k in a table of 2 entries per
    element a, at 2a + its bit (0 out, 1 in), then 3 per pair q, at 2m + 3q +
    (0 hi alone in, 1 lo alone in, 2 both or neither).  bits[k, a] is element
    a's membership in subset k, and sizes[k] is the number of members of subset k.
    """
    masks = np.arange(2 ** m)[:, None]
    lo, hi = np.nonzero(np.arange(m)[:, None] < np.arange(m))
    bits, lo_bits = masks >> np.arange(m) & 1, masks >> lo & 1
    state = np.where(lo_bits == masks >> hi & 1, 2, lo_bits)
    index = np.concatenate((2 * np.arange(m) + bits, 2 * m + 3 * np.arange(len(lo)) + state),
                           axis=1)
    # the narrowest types that hold them keep the cached m = 10 layout under 80 kB
    tables = (lo, hi, np.ascontiguousarray(index.T, np.min_scalar_type(index.max(initial=0))),
              bits.astype(bool), bits.sum(axis=1))
    for table in tables:
        table.flags.writeable = False
    return tables


def _subset_sums(u, v, alpha, form: str,
                 residue: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """Every order of ``sum_S`` at every point of a batch, in F_p.

    u is (T, n), v is (T, n - 1) and alpha is (T,), integers read mod p.  Returns
    int64 residues (totals, common) of shapes (T, n + 1) and (T,):
    totals[t, r] / common[t] is the order-r sum at point t, an order with no
    subsets holding 0.  common is the product of every factor-table denominator,
    and a term enters totals as its numerators times the denominators of the
    factors it leaves unused, so no term is divided.  The 2^m subsets of the m
    base values are bit masks, and a subset's term is the product of one
    gathered factor per element (its cross numerator when in, its cross
    denominator when out) and one per pair (a, b), a > b, chosen by the pair's
    two bits.  A denominator factor that is 0 mod p raises ZeroDivisionError.

    With ``residue`` set, each point may have one cross factor whose
    denominator vanishes (a collision u_i = v_a), and the sums are the residue
    there in the u_i variable: that factor contributes its numerator alone, and
    a term without its element contributes 0.
    """
    primed = form.startswith("primed")
    tilde = form.endswith("Stilde")
    # value axis first, points last
    u, v, alpha = (np.asarray(x, np.int64).T % _P for x in (u, v, alpha))
    base, other = (v, u) if tilde else (u, v)
    m, points = base.shape
    lo, hi, index, bits, sizes = _layout(m)
    table = np.empty((2 * m + 3 * len(lo), points), np.int64)

    # the cross factors of each value of the other side against each base value;
    # the unprimed forms couple through g = alpha/2 + 1
    diff = other[:, None] - base if tilde else base - other[:, None]
    if primed:
        num, den = diff + alpha, diff % _P
    else:
        g = (alpha * _HALF + 1) % _P
        num, den = diff + g, (diff + 2 - g) % _P
    pole = den == 0
    if residue:
        if (pole.sum(axis=(0, 1)) > 1).any():
            raise ZeroDivisionError("more than one cross factor has a pole mod p")
        den[pole] = 1
    elif pole.any():
        raise ZeroDivisionError("a cross factor's denominator is 0 mod p")
    table[:2 * m] = _product(np.stack((den, num % _P), axis=2)).reshape(-1, points)

    # pair (a, b), a > b, with d = b_a - b_b and shift s: its factors are
    # (d + s)/d, used with a in and b out, and (s - d)/(-d), used with b in and a
    # out; a term takes the one it uses times the other's denominator, or -d^2
    d = (base[hi] - base[lo]) % _P
    if not d.all():
        raise ZeroDivisionError("two base values coincide mod p")
    square, shifted = d * d % _P, d * ((alpha if tilde else -alpha) % _P) % _P
    table[2 * m::3] = (2 * _P - square - shifted) % _P
    table[2 * m + 1::3] = (shifted - square) % _P
    table[2 * m + 2::3] = _P - square

    terms = _product(table[index])
    # the empty subset takes every denominator and no numerator: its term is common
    common = terms[0].copy()
    if residue:
        terms *= bits @ pole.any(axis=0)
    # each sum below 2^m * 2^31 before it is reduced
    orders = np.arange(len(u) + 1)[:, None] == sizes
    return (orders @ terms % _P).T, common


def _quotient(num, den) -> int:
    """num / den in F_p, as a Python int."""
    return int(num) * pow(int(den), -1, _P) % _P


def substitution_map(lam: Sequence, nu: Sequence, g) -> tuple[list, list, object]:
    """Affine change of variables u_i = lam_i + 2 - g, v_a = nu_a, alpha = 2g - 2.

    Exact on ints and Fractions; given integer arrays (one per coordinate), it
    maps a batch of points, whose result the caller reduces mod p.
    """
    return [x + 2 - g for x in lam], list(nu), 2 * g - 2


# ---------------------------------------------------------------------------
# randomized identity checks


def _draw(rng: random.Random, rows: int, cols: int,
          distinct: Callable[[np.ndarray], np.ndarray]) -> np.ndarray:
    """A rows x cols array of residues drawn uniformly from F_p on rng's byte stream.

    Each value takes 31 bits; a row holding p itself, or whose ``distinct``
    values repeat a residue, is drawn again, so no denominator of a check's
    point is 0 mod p.
    """
    out = np.empty((rows, cols), np.int64)
    todo = np.arange(rows)
    while todo.size:
        raw = np.frombuffer(rng.randbytes(4 * todo.size * cols), dtype="<u4")
        drawn = (raw >> 1).astype(np.int64).reshape(todo.size, cols)
        keys = np.sort(distinct(drawn), axis=1)
        redraw = (drawn == _P).any(axis=1) | (keys[:, 1:] == keys[:, :-1]).any(axis=1)
        out[todo[~redraw]] = drawn[~redraw]
        todo = todo[redraw]
    return out


def verify_lemma1(n: int, seed: int = 0) -> dict[int, dict | None]:
    """Exact check of S'_r(u, v) = S~'_{r-1}(v, u) + S~'_r(v, u) at random points.

    One batch of seeded points serves every order r = 1..n: one engine call per
    side gives every order at every point.  Returns {r: None or the first point
    where the two sides of order r differ, with both}.
    """
    if not (1 <= n <= _LEMMA1_N_MAX):
        raise ValueError(f"need 1 <= n <= {_LEMMA1_N_MAX}, got n={n}")
    points = _draw(random.Random(seed), _LEMMA1_TRIALS, 2 * n, lambda x: x[:, :-1])
    u, v, alpha = points[:, :n], points[:, n:-1], points[:, -1]
    s, s_common = _subset_sums(u, v, alpha, "primed_S")
    st, st_common = _subset_sums(u, v, alpha, "primed_Stilde")
    # orders r = 1..n along the last axis
    lhs, rhs = s[:, 1:], (st[:, :-1] + st[:, 1:]) % _P
    holds = lhs * st_common[:, None] % _P == rhs * s_common[:, None] % _P
    witnesses: dict[int, dict | None] = dict.fromkeys(range(1, n + 1))
    for r in witnesses:
        if not holds[:, r - 1].all():
            t = int(np.argmin(holds[:, r - 1]))
            witnesses[r] = {"n": n, "r": r, "u": u[t].tolist(), "v": v[t].tolist(),
                            "alpha": int(alpha[t]), "modulus": _P,
                            "lhs": _quotient(lhs[t, r - 1], s_common[t]),
                            "rhs": _quotient(rhs[t, r - 1], st_common[t])}
    return witnesses


def residue_check(n: int, seed: int = 0) -> dict[int, dict | None]:
    """Exact residue relations at the collision v_{n-1} = u_n, every order r = 1..n.

    Substitutes v_{n-1} = u_n and takes the residue at the collision in the u_n
    variable term by term: only the cross factor
    (u_n - v_{n-1} + alpha)/(u_n - v_{n-1}) has a pole there, so a term's
    residue is alpha times its other factors, and a term without that factor
    has none.  Both the S' and the S~' relations are compared with
    alpha * E_n(u_n) * (order r-1 sum on the reduced variable sets), where
    E_n(w) = prod_{i<n} (w - u_i - alpha)/(w - u_i) prod_{a<n-1} (w - v_a + alpha)/(w - v_a).
    One seeded point and one engine call per sum serve every order.  Returns
    {r: None, or the point with each failed side ("s_side", "stilde_side") and
    its residue and prediction}.
    """
    if n < 2:
        raise ValueError("residue relations need n >= 2")
    point = _draw(random.Random(seed), 1, 2 * n - 1, lambda x: x[:, :-1])
    u, v_rest, alpha = point[:, :n], point[:, n:-1], point[:, -1]
    v_hit = np.concatenate((v_rest, u[:, -1:]), axis=1)
    # alpha E_n(u_n) as one (numerator, denominator) pair of Python integers
    w, a = int(u[0, -1]), int(alpha[0])
    factors = [(w - c - s, w - c)
               for s, cs in ((a, u[0, :-1].tolist()), (-a, v_rest[0].tolist())) for c in cs]
    weight = (a * math.prod(f for f, _ in factors), math.prod(d for _, d in factors))

    failed: dict[int, dict] = {r: {} for r in range(1, n + 1)}
    for side, form in (("s_side", "primed_S"), ("stilde_side", "primed_Stilde")):
        residues, common = (x[0].tolist() for x in _subset_sums(u, v_hit, alpha, form,
                                                                residue=True))
        reduced, reduced_common = (x[0].tolist() for x in _subset_sums(u[:, :-1], v_rest,
                                                                       alpha, form))
        for r in failed:
            res = (residues[r], common)
            want = (weight[0] * reduced[r - 1], weight[1] * reduced_common)
            if (res[0] * want[1] - want[0] * res[1]) % _P:
                failed[r][side] = {"residue": _quotient(*res), "predicted": _quotient(*want)}
    return {r: {"n": n, "r": r, "u": u[0].tolist(), "v": v_hit[0].tolist(), "alpha": a,
                "modulus": _P, **sides} if sides else None
            for r, sides in failed.items()}


def binomial_limit_check(seed: int = 0) -> dict | None:
    """At alpha = 0 the subset sums are binomial coefficients and obey Pascal's rule.

    One seeded row of distinct values per n = 1.._BINOMIAL_N_MAX, of which u and v
    take the first 2n - 1.  Returns None, or the first (n, r, u, v) where one of
    the three fails, with S'_r and S~'_r there.
    """
    points = _draw(random.Random(seed), _BINOMIAL_N_MAX, 2 * _BINOMIAL_N_MAX - 1, lambda x: x)
    zero = np.zeros(1, np.int64)
    for n in range(1, _BINOMIAL_N_MAX + 1):
        u, v = points[n - 1:n, :n], points[n - 1:n, n:2 * n - 1]
        s, s_common = (x[0].tolist() for x in _subset_sums(u, v, zero, "primed_S"))
        st, st_common = (x[0].tolist() for x in _subset_sums(u, v, zero, "primed_Stilde"))
        for r in range(0, n + 1):
            pascal = (st[r - 1] if r else 0) + st[r]
            if (s[r] - math.comb(n, r) * s_common) % _P or \
                    (st[r] - math.comb(n - 1, r) * st_common) % _P or \
                    (pascal * s_common - s[r] * st_common) % _P:
                return {"n": n, "r": r, "u": u[0].tolist(), "v": v[0].tolist(),
                        "modulus": _P, "S": _quotient(s[r], s_common),
                        "Stilde": _quotient(st[r], st_common)}
    return None


def _substituted(points: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """u, v and alpha of the rows (lam_1, lam_2, lam_3, nu_1, nu_2, g) by
    ``substitution_map``, mod p."""
    u, v, alpha = substitution_map(points[:, :3].T, points[:, 3:5].T, points[:, 5])
    return np.stack(u, axis=1) % _P, np.stack(v, axis=1), alpha % _P


def substitution_check(seed: int = 0) -> dict | None:
    """Both subset-sum forms agree before and after ``substitution_map``.

    Ten random points (lam, nu, g) with n = 3, orders r = 1..3.  Returns None,
    or the first point, order and form where they differ, with both values.
    """
    points = _draw(random.Random(seed), 10, 6,
                   lambda x: np.concatenate(_substituted(x)[:2], axis=1))
    lam, nu = points[:, :3], points[:, 3:5]
    u, v, alpha = _substituted(points)
    forms = ("_S", "_Stilde")
    sides = [(_subset_sums(lam, nu, alpha, "unprimed" + form),
              _subset_sums(u, v, alpha, "primed" + form)) for form in forms]
    # (point, order r = 1..3, form)
    holds = np.stack([before[:, 1:] * after_common[:, None] % _P
                      == after[:, 1:] * before_common[:, None] % _P
                      for (before, before_common), (after, after_common) in sides], axis=2)
    if holds.all():
        return None
    t, r, f = np.argwhere(~holds)[0]
    (before, before_common), (after, after_common) = sides[f]
    return {"lam": lam[t].tolist(), "nu": nu[t].tolist(), "g": int(points[t, 5]),
            "r": int(r) + 1, "form": forms[f][1:], "modulus": _P,
            "unprimed": _quotient(before[t, r + 1], before_common[t]),
            "primed": _quotient(after[t, r + 1], after_common[t])}
