"""Elementary symmetric functions.

The dual operators' eigenvalues are e_r(e^{2x}); the operators themselves sum
over 0-based r-subsets from ``itertools.combinations(range(n), r)``, whose
lexicographic order keeps operator sums bit-for-bit reproducible.
"""

from __future__ import annotations

from typing import Sequence

__all__ = ["elementary_symmetric"]


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
