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


def _subset_orders(u: Sequence, v: Sequence, alpha, form: str,
                   residue: bool = False) -> tuple[list[int], int]:
    """Every order of ``sum_S`` at once, over one common denominator.

    Returns (totals, common): totals[r] / common is the order-r sum for
    r = 0..len(u), an order with no subsets holding 0.  common is the product
    of every factor-table denominator, and a term enters totals as its
    numerator times the complement of its denominator within common, so no
    term is divided.  The subsets are enumerated once for all orders, deciding
    element 0, 1, ... in or out in turn: a term extends its prefix's product by
    one factor, the product of what the new element and the decided ones
    contribute to it.

    With ``residue`` set, at most one cross factor may have a vanishing
    denominator (a collision u_i = v_a), and the sums are the residue there in
    the u_i variable: that factor contributes its numerator divided by the
    scale, and a term without it contributes 0 (its element is never out).
    """
    if form not in _FORMS:
        raise ValueError(f"form must be one of {_FORMS}, got {form!r}")
    n = len(u)
    if len(v) != n - 1:
        raise ValueError(f"need len(v) = len(u) - 1, got {len(u)} and {len(v)}")
    primed = form.startswith("primed")
    tilde = form.endswith("Stilde")
    u, v, alpha, scale = _clear_denominators(u, v, alpha)
    base = v if tilde else u
    other = u if tilde else v

    # the cross factors, one (numerator, denominator) per element of base; for
    # the unprimed forms the coupling enters through D*g = D*alpha/2 + D
    m = len(base)
    g = alpha // 2 + scale
    cross_num, cross_den = [1] * m, [1] * m
    pole = None
    for a in range(m):
        for c in range(len(other)):
            diff = other[c] - base[a] if tilde else base[a] - other[c]
            num, den = (diff + alpha, diff) if primed else (diff + g, diff + 2 * scale - g)
            if den == 0:
                if not residue or pole is not None:
                    raise ZeroDivisionError(f"factor (u-v)[{a},{c}] vanishes")
                pole, den = a, scale
            cross_num[a] *= num
            cross_den[a] *= den

    # terms[k] is the product of a decided prefix, element b in where bit b of k
    # is set; in residue mode the pole element is always in and takes no bit
    shift = alpha if tilde else -alpha
    common = math.prod(cross_den)
    terms = [1]
    for a in range(m):
        # the factor that deciding a adds, for each membership k of elements < a
        ins, outs = [cross_num[a]], [cross_den[a]]
        for b in range(a):
            d = base[a] - base[b]
            if d == 0:
                raise ZeroDivisionError(f"factor (base_{a}-base_{b}) vanishes")
            # the pair's factors are (d + shift)/d, used with a in and b out, and
            # (shift - d)/(-d), used with b in and a out; each unused one puts its
            # denominator into the complement
            a_only, b_only, unused = -(d + shift) * d, (shift - d) * d, -d * d
            common *= unused
            if b == pole:
                ins, outs = [f * unused for f in ins], [f * b_only for f in outs]
            else:
                ins = [f * a_only for f in ins] + [f * unused for f in ins]
                outs = [f * unused for f in outs] + [f * b_only for f in outs]
        grown = [t * f for t, f in zip(terms, ins)]
        terms = grown if a == pole else [t * f for t, f in zip(terms, outs)] + grown

    totals = [0] * (n + 1)
    if residue and pole is None:
        # no factor has a pole there, so no term has a residue
        return totals, common
    first = int(pole is not None)
    for k, t in enumerate(terms):
        totals[first + k.bit_count()] += t
    return totals, common


def sum_S(r: int, u: Sequence, v: Sequence, alpha, form: str = "primed_S") -> Fraction:
    """Subset sum S'_r, S~'_r or their pre-substitution forms, exactly.

    u has n entries and v has n - 1; entries and alpha are ints or Fractions,
    and the result is a reduced Fraction.  For the unprimed forms the
    coupling enters through alpha = 2g - 2, i.e. g = alpha/2 + 1, matching
    ``substitution_map``.
    """
    if r < 0:
        raise ValueError(f"negative subset order r={r}")
    totals, common = _subset_orders(u, v, alpha, form)
    return Fraction(totals[r], common) if r < len(totals) else Fraction(0)


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


def verify_lemma1(n: int, seed: int = 0) -> dict[int, dict | None]:
    """Exact check of S'_r(u, v) = S~'_{r-1}(v, u) + S~'_r(v, u) at random points.

    One pass over the seeded points serves every order r = 1..n: each point
    enumerates its subsets once per side.  Returns {r: None or the first point
    where the two sides of order r differ, with both}.
    """
    if not (1 <= n <= _LEMMA1_N_MAX):
        raise ValueError(f"need 1 <= n <= {_LEMMA1_N_MAX}, got n={n}")
    rng = random.Random(seed)
    witnesses: dict[int, dict | None] = dict.fromkeys(range(1, n + 1))
    for _ in range(_LEMMA1_TRIALS):
        vals = _distinct_integers(rng, 2 * n - 1)
        rng.shuffle(vals)
        u, v = vals[:n], vals[n:]
        alpha = rng.randint(-_BOX, _BOX)
        s, s_common = _subset_orders(u, v, alpha, "primed_S")
        st, st_common = _subset_orders(u, v, alpha, "primed_Stilde")
        for r in range(1, n + 1):
            lhs, rhs = (s[r], s_common), (st[r - 1] + st[r], st_common)
            if witnesses[r] is None and not _equal(lhs, rhs):
                witnesses[r] = {"n": n, "r": r, "u": _strs(u), "v": _strs(v),
                                "alpha": str(alpha), "lhs": str(Fraction(*lhs)),
                                "rhs": str(Fraction(*rhs))}
    return witnesses


def residue_check(n: int, seed: int = 0) -> dict[int, dict | None]:
    """Exact residue relations at the collision v_{n-1} = u_n, every order r = 1..n.

    Substitutes v_{n-1} = u_n exactly and takes the residue at the collision
    in the u_n variable term by term: only the cross factor
    (u_n - v_{n-1} + alpha)/(u_n - v_{n-1}) has a pole there, so a term's
    residue is alpha times its other factors, and a term without that factor
    has none.  Both the S' and the S~' relations are compared with
    alpha * E_n(u_n) * (order r-1 sum on the reduced variable sets), where
    E_n(w) = prod_{i<n} (w - u_i - alpha)/(w - u_i) prod_{a<n-1} (w - v_a + alpha)/(w - v_a).
    One seeded point and one enumeration per sum serve every order.  Returns
    {r: None, or the point with each failed side ("s_side", "stilde_side") and
    its residue and prediction}.
    """
    if n < 2:
        raise ValueError("residue relations need n >= 2")
    rng = random.Random(seed)
    vals = _distinct_integers(rng, 2 * n - 2)
    rng.shuffle(vals)
    u = vals[:n]
    v_rest = vals[n:]
    alpha = rng.randint(-_BOX, _BOX)
    v_hit = v_rest + [u[-1]]
    weight = alpha * math.prod(Fraction(u[-1] - c - s, u[-1] - c)
                               for s, cs in ((alpha, u[:-1]), (-alpha, v_rest)) for c in cs)

    failed: dict[int, dict] = {r: {} for r in range(1, n + 1)}
    for side, form in (("s_side", "primed_S"), ("stilde_side", "primed_Stilde")):
        residues, common = _subset_orders(u, v_hit, alpha, form, residue=True)
        reduced, reduced_common = _subset_orders(u[:-1], v_rest, alpha, form)
        for r in failed:
            res = Fraction(residues[r], common)
            want = weight * Fraction(reduced[r - 1], reduced_common)
            if res != want:
                failed[r][side] = {"residue": str(res), "predicted": str(want)}
    return {r: {"n": n, "r": r, "u": _strs(u), "v": _strs(v_hit), "alpha": str(alpha),
                **sides} if sides else None for r, sides in failed.items()}


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
        s_orders, s_common = _subset_orders(u, v, 0, "primed_S")
        st_orders, st_common = _subset_orders(u, v, 0, "primed_Stilde")
        for r in range(0, n + 1):
            s, st = (s_orders[r], s_common), (st_orders[r], st_common)
            pascal = ((st_orders[r - 1] if r else 0) + st_orders[r], st_common)
            if not (_equal(s, (math.comb(n, r), 1)) and _equal(st, (math.comb(n - 1, r), 1))
                    and _equal(pascal, s)):
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
        sums = {form: (_subset_orders(lam, nu, alpha, "unprimed" + form),
                       _subset_orders(u, v, alpha, "primed" + form))
                for form in ("_S", "_Stilde")}
        for r in range(1, 4):
            for form, ((unprimed, unprimed_common), (primed, primed_common)) in sums.items():
                before, after = (unprimed[r], unprimed_common), (primed[r], primed_common)
                if not _equal(before, after):
                    return {"lam": _strs(lam), "nu": _strs(nu), "g": str(g), "r": r,
                            "form": form[1:], "unprimed": str(Fraction(*before)),
                            "primed": str(Fraction(*after))}
    return None
