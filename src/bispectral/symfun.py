"""Elementary symmetric functions and the terms of the r-subset difference operators.

The dual operators' eigenvalues are e_r(e^{2x}).  Macdonald's M_r and the dual H_g
and D_g are one formula, a sum over r-subsets S of prod_{i in S, j not in S}
pair(z_i, z_j) times f at z shifted on S, whose terms ``subset_terms`` yields in
the lexicographic order of ``itertools.combinations(range(n), r)``: every operator
sum is bit-for-bit reproducible.
"""

from __future__ import annotations

from itertools import combinations
from typing import Callable, Iterator, Sequence

__all__ = ["elementary_symmetric", "subset_terms"]


def elementary_symmetric(r: int, y: Sequence[complex]) -> complex:
    """r-th elementary symmetric function of the values y; e_0 = 1."""
    n = len(y)
    if r < 0 or r > n:
        raise ValueError(f"need 0 <= r <= len(y)={n}, got r={r}")
    if r == 0:
        return 1.0 + 0.0j
    # Newton's triangle recurrence: stable, O(n*r), no subset blow-up.
    row = [0.0 + 0.0j] * (r + 1)
    row[0] = 1.0 + 0.0j
    for value in y:
        for k in range(r, 0, -1):
            row[k] = row[k] + complex(value) * row[k - 1]
    return row[r]


def subset_terms(r: int, z: Sequence[complex], pair: Callable,
                 shift: Callable) -> Iterator[tuple[complex, tuple]]:
    """(coefficient, shifted point) of each r-subset S of z's indices, in lexicographic order:
    the product of pair(z_i, z_j) over i in S and j outside S, i outer and j inner, both
    ascending (1 for S empty or full), and z with shift applied to the members of S.  An r
    outside 0..n raises ValueError before any term is yielded."""
    n = len(z)
    if not 0 <= r <= n:
        raise ValueError(f"need 0 <= r <= n={n}, got r={r}")
    for members in combinations(range(n), r):
        coef = 1.0 + 0.0j
        for i in members:
            for j in range(n):
                if j not in members:
                    coef *= pair(z[i], z[j])
        yield coef, tuple(shift(v) if k in members else v for k, v in enumerate(z))
