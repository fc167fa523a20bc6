"""Exact verification of the rational-function identities behind the dual
spectral problem.

Everything here is exact.  Points are rationals (ints or
``fractions.Fraction``); each call scales them by one common integer, so the
subset sums run on plain Python integers as unreduced (numerator,
denominator) pairs, and residues are taken term by term at the collision
itself rather than as numeric limits.  The central objects are the subset
sums S'_r / S~'_r whose recurrence

    S'_r(u, v) = S~'_{r-1}(v, u) + S~'_r(v, u)

generalises Pascal's rule for binomial coefficients (which it becomes at
alpha = 0).  Identity testing is randomised Schwartz-Zippel style: the
difference of two fixed rational functions that agrees at many random
integer points is zero with overwhelming probability.  Each check returns
None when it holds, and otherwise its first disagreement as a reproducible,
JSON-ready witness point.
"""

from __future__ import annotations

import math
import random
from fractions import Fraction
from itertools import combinations
from typing import Sequence

__all__ = [
    "sum_S",
    "substitution_map",
    "verify_lemma1",
    "residue_check",
    "binomial_limit_check",
    "substitution_check",
]

_FORMS = ("primed_S", "primed_Stilde", "unprimed_S", "unprimed_Stilde")
_BOX = 10 ** 6
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


def _clear_denominators(u: Sequence, v: Sequence, alpha):
    """Integers D*u, D*v, D*alpha and the scale D = 2 lcm of their denominators.

    Every factor of a subset sum is a ratio of linear forms homogeneous in
    (u, v, alpha, 1), so scaling all four by D leaves it unchanged; the factor
    2 keeps D*g = D*alpha/2 + D integral for the unprimed forms.
    """
    values = (*u, *v, alpha)
    scale = 2 * math.lcm(*(x.denominator for x in values))
    ints = [x.numerator * (scale // x.denominator) for x in values]
    return ints[:len(u)], ints[len(u):-1], ints[-1], scale


def _subset_sum(r: int, u: Sequence, v: Sequence, alpha, form: str,
                residue: bool = False) -> tuple[int, int]:
    """``sum_S`` as an unreduced integer pair (numerator, denominator).

    With ``residue`` set, at most one cross factor may have a vanishing
    denominator (a collision u_i = v_a), and the pair is the residue there in
    the u_i variable: that factor contributes its numerator divided by the
    scale, and a term without it contributes 0.
    """
    if form not in _FORMS:
        raise ValueError(f"form must be one of {_FORMS}, got {form!r}")
    n = len(u)
    if len(v) != n - 1:
        raise ValueError(f"need len(v) = len(u) - 1, got {len(u)} and {len(v)}")
    if r < 0:
        raise ValueError(f"negative subset order r={r}")
    primed = form.startswith("primed")
    tilde = form.endswith("Stilde")
    u, v, alpha, scale = _clear_denominators(u, v, alpha)
    base = v if tilde else u
    other = u if tilde else v
    if r > len(base):
        # subsets of that cardinality do not exist; the empty sum is 0
        return 0, 1

    # factor tables as (num, den) pairs, each entry computed once; for the
    # unprimed forms the coupling enters through D*g = D*alpha/2 + D
    m = len(base)
    pair_shift = alpha if tilde else -alpha
    pair = [[(1, 1)] * m for _ in range(m)]
    for a in range(m):
        for b in range(m):
            if a != b:
                diff = base[a] - base[b]
                if diff == 0:
                    raise ZeroDivisionError(f"factor (base_{a}-base_{b}) vanishes")
                pair[a][b] = (diff + pair_shift, diff)
    g = alpha // 2 + scale
    cross = [[1, 1] for _ in range(m)]
    pole = None
    for a in range(m):
        for c in range(len(other)):
            diff = other[c] - base[a] if tilde else base[a] - other[c]
            num, den = (diff + alpha, diff) if primed else (diff + g, diff + 2 * scale - g)
            if den == 0:
                if not residue or pole is not None:
                    raise ZeroDivisionError(f"factor (u-v)[{a},{c}] vanishes")
                pole, den = a, scale
            cross[a][0] *= num
            cross[a][1] *= den

    # one common denominator, the product of every table denominator
    common = math.prod(den for row in pair for _, den in row)
    common *= math.prod(den for _, den in cross)
    total = 0
    for members in combinations(range(m), r):
        if residue and pole not in members:
            continue
        num, den = 1, 1
        for a in members:
            num, den = num * cross[a][0], den * cross[a][1]
            row = pair[a]
            for b in range(m):
                if b not in members:
                    num, den = num * row[b][0], den * row[b][1]
        total += num * (common // den)
    return total, common


def sum_S(r: int, u: Sequence, v: Sequence, alpha, form: str = "primed_S") -> Fraction:
    """Subset sum S'_r, S~'_r or their pre-substitution forms, exactly.

    u has n entries and v has n - 1; entries and alpha are ints or Fractions,
    and the result is a reduced Fraction.  For the unprimed forms the
    coupling enters through alpha = 2g - 2, i.e. g = alpha/2 + 1, matching
    ``substitution_map``.
    """
    return Fraction(*_subset_sum(r, u, v, alpha, form))


def _add(p: tuple[int, int], q: tuple[int, int]) -> tuple[int, int]:
    return p[0] * q[1] + q[0] * p[1], p[1] * q[1]


def _equal(p: tuple[int, int], q: tuple[int, int]) -> bool:
    return p[0] * q[1] == q[0] * p[1]


def substitution_map(lam: Sequence, nu: Sequence, g) -> tuple[list[Fraction], list[Fraction], Fraction]:
    """Affine change of variables u_i = lam_i + 2 - g, v_a = nu_a, alpha = 2g - 2."""
    g = Fraction(g)
    u = [Fraction(l) + 2 - g for l in lam]
    v = [Fraction(x) for x in nu]
    return u, v, 2 * g - 2


# ---------------------------------------------------------------------------
# randomized identity checks


def _distinct_integers(rng: random.Random, count: int) -> list[int]:
    seen: set[int] = set()
    while len(seen) < count:
        seen.add(rng.randint(-_BOX, _BOX))
    return sorted(seen)


def _strs(values) -> list[str]:
    return [str(x) for x in values]


def verify_lemma1(n: int, r: int, seed: int = 0) -> dict | None:
    """Exact check of S'_r(u, v) = S~'_{r-1}(v, u) + S~'_r(v, u) at random points.

    Returns None, or the first point where the two sides differ, with both.
    """
    if not (1 <= r <= n <= _LEMMA1_N_MAX):
        raise ValueError(f"need 1 <= r <= n <= {_LEMMA1_N_MAX}, got n={n}, r={r}")
    rng = random.Random(seed)
    for _ in range(_LEMMA1_TRIALS):
        vals = _distinct_integers(rng, 2 * n - 1)
        rng.shuffle(vals)
        u, v = vals[:n], vals[n:]
        alpha = rng.randint(-_BOX, _BOX)
        lhs = _subset_sum(r, u, v, alpha, "primed_S")
        rhs = _add(_subset_sum(r - 1, u, v, alpha, "primed_Stilde"),
                   _subset_sum(r, u, v, alpha, "primed_Stilde"))
        if not _equal(lhs, rhs):
            return {"n": n, "r": r, "u": _strs(u), "v": _strs(v), "alpha": str(alpha),
                    "lhs": str(Fraction(*lhs)), "rhs": str(Fraction(*rhs))}
    return None


def _E_n(w, u: Sequence, v: Sequence, alpha) -> Fraction:
    out = Fraction(1)
    for ui in u:
        out *= Fraction(w - ui - alpha, w - ui)
    for va in v:
        out *= Fraction(w - va + alpha, w - va)
    return out


def residue_check(n: int, r: int, seed: int = 0) -> dict | None:
    """Exact residue relations at the collision v_{n-1} = u_n.

    Substitutes v_{n-1} = u_n exactly and takes the residue at the collision
    in the u_n variable term by term: only the cross factor
    (u_n - v_{n-1} + alpha)/(u_n - v_{n-1}) has a pole there, so a term's
    residue is alpha times its other factors, and a term without that factor
    has none.  Both the S' and the S~' relations are compared with
    alpha * E_n(u_n) * (order r-1 sum on the reduced variable sets).
    Returns None, or the point with each failed side ("s_side", "stilde_side")
    and its residue and prediction.
    """
    if n < 2:
        raise ValueError("residue relations need n >= 2")
    if not (1 <= r <= n):
        raise ValueError(f"need 1 <= r <= n, got r={r}")
    rng = random.Random(seed)
    vals = _distinct_integers(rng, 2 * n - 2)
    rng.shuffle(vals)
    u = vals[:n]
    v_rest = vals[n:]
    alpha = rng.randint(-_BOX, _BOX)
    v_hit = v_rest + [u[-1]]
    weight = alpha * _E_n(u[-1], u[:-1], v_rest, alpha)

    failed = {}
    for side, form in (("s_side", "primed_S"), ("stilde_side", "primed_Stilde")):
        res = Fraction(*_subset_sum(r, u, v_hit, alpha, form, residue=True))
        want = weight * sum_S(r - 1, u[:-1], v_rest, alpha, form)
        if res != want:
            failed[side] = {"residue": str(res), "predicted": str(want)}
    if not failed:
        return None
    return {"n": n, "r": r, "u": _strs(u), "v": _strs(v_hit), "alpha": str(alpha), **failed}


def binomial_limit_check(seed: int = 0) -> dict | None:
    """At alpha = 0 the subset sums are binomial coefficients and obey Pascal's rule.

    Returns None, or the first (n, r, u, v) where one of the three fails, with
    S'_r and S~'_r there.
    """
    rng = random.Random(seed)
    for n in range(1, _BINOMIAL_N_MAX + 1):
        # small operands: the value is integral here, only distinctness matters
        seen: set[int] = set()
        while len(seen) < 2 * n - 1:
            seen.add(rng.randint(-500, 500))
        vals = list(seen)
        u, v = vals[:n], vals[n:]
        for r in range(0, n + 1):
            s = _subset_sum(r, u, v, 0, "primed_S")
            st = _subset_sum(r, u, v, 0, "primed_Stilde")
            prev = _subset_sum(r - 1, u, v, 0, "primed_Stilde") if r else (0, 1)
            if not (_equal(s, (math.comb(n, r), 1)) and _equal(st, (math.comb(n - 1, r), 1))
                    and _equal(_add(prev, st), s)):
                return {"n": n, "r": r, "u": _strs(u), "v": _strs(v),
                        "S": str(Fraction(*s)), "Stilde": str(Fraction(*st))}
    return None


def substitution_check(seed: int = 0) -> dict | None:
    """Both subset-sum forms agree before and after ``substitution_map``.

    Ten random rational points (lam, nu, g) with n = 3, orders r = 1..3.
    Returns None, or the first point, order and form where they differ, with
    both values.
    """
    rng = random.Random(seed)
    for _ in range(10):
        seen: set[int] = set()
        while len(seen) < 5:
            seen.add(rng.randint(-_BOX, _BOX))
        vals = list(seen)
        g = Fraction(rng.randint(-100, 100), rng.randint(1, 100) * 2 + 1)
        lam, nu = vals[:3], vals[3:]
        u, v, alpha = substitution_map(lam, nu, g)
        for r in range(1, 4):
            for form in ("_S", "_Stilde"):
                before = _subset_sum(r, lam, nu, alpha, "unprimed" + form)
                after = _subset_sum(r, u, v, alpha, "primed" + form)
                if not _equal(before, after):
                    return {"lam": _strs(lam), "nu": _strs(nu), "g": str(g), "r": r,
                            "form": form[1:], "unprimed": str(Fraction(*before)),
                            "primed": str(Fraction(*after))}
    return None
