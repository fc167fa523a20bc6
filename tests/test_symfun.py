"""Elementary symmetric functions."""

import numpy as np
import pytest

from bispectral.symfun import elementary_symmetric


def test_e1_two_variables():
    assert elementary_symmetric(1, [3.0, 5.0]) == pytest.approx(8.0)


def test_e2_direct_expansion():
    assert elementary_symmetric(2, [1.0, 2.0, 3.0]) == pytest.approx(11.0)


def test_e0_is_one():
    assert elementary_symmetric(0, [2.0, 9.0, -1.0]) == 1.0


def test_recursion_splits_last_variable():
    # e_r(z_1..z_n) = z_n e_{r-1}(z_1..z_{n-1}) + e_r(z_1..z_{n-1})
    rng = np.random.default_rng(5)
    for n in (2, 4, 6):
        z = [complex(a, b) for a, b in rng.standard_normal((n, 2))]
        for r in range(1, n):
            whole = elementary_symmetric(r, z)
            split = (z[-1] * elementary_symmetric(r - 1, z[:-1])
                     + elementary_symmetric(r, z[:-1]))
            assert whole == pytest.approx(split, rel=1e-12)
        # top order: e_n picks up only the z_n e_{n-1} term
        assert elementary_symmetric(n, z) == pytest.approx(
            z[-1] * elementary_symmetric(n - 1, z[:-1]), rel=1e-12)


def test_generating_function():
    # prod(1 + s y_i) = sum_r e_r(y) s^r
    rng = np.random.default_rng(6)
    for n in range(1, 9):
        y = [complex(a, b) for a, b in rng.standard_normal((n, 2))]
        s = complex(*rng.standard_normal(2))
        lhs = np.prod([1 + s * yi for yi in y])
        rhs = sum(elementary_symmetric(r, y) * s ** r for r in range(n + 1))
        assert lhs == pytest.approx(rhs, rel=1e-12)


@pytest.mark.parametrize("r", [-1, 4])
def test_elementary_range_error(r):
    with pytest.raises(ValueError):
        elementary_symmetric(r, [1.0, 2.0, 3.0])

