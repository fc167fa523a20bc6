"""Elementary symmetric functions, and the subset terms every difference operator sums."""

import cmath
from itertools import combinations

import numpy as np
import pytest

from bispectral.dual_ops import apply_dual_operator, gauge_function, gauge_relation_residual
from bispectral.macdonald import LaurentPolynomial, MacdonaldParams, apply_macdonald
from bispectral.sutherland_ops import _EPS_FLOOR
from bispectral.symfun import elementary_symmetric, subset_terms


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



class TestSubsetTerms:
    """subset_terms: one (coefficient, shifted point) per r-subset, in a fixed order."""

    def test_lexicographic_subsets_and_ascending_pairs(self):
        # z_k = k: the shifted entries name the members, the pair calls their order
        calls = []
        terms = list(subset_terms(2, (0, 1, 2, 3), lambda a, b: calls.append((a, b)) or 1.0,
                                  lambda v: v + 10))
        assert [tuple(k for k, v in enumerate(point) if v >= 10) for _, point in terms] == \
            list(combinations(range(4), 2))
        assert calls == [(i, j) for s in combinations(range(4), 2)
                         for i in s for j in range(4) if j not in s]

    def test_n1_coefficient_is_one(self):
        assert list(subset_terms(1, (0.3j,), lambda a, b: 5.0, lambda v: v * 2)) == \
            [(1.0, (0.6j,))]

    def test_full_subset_is_a_pure_shift(self):
        # the empty complement leaves the empty product: exactly 1, whatever the pair
        [(coef, point)] = subset_terms(3, (1.0, 2.0, 3.0), lambda a, b: 7.0, lambda v: -v)
        assert coef == 1.0 and point == (-1.0, -2.0, -3.0)
        [(coef, point)] = subset_terms(0, (1.0, 2.0), lambda a, b: 7.0, lambda v: -v)
        assert coef == 1.0 and point == (1.0, 2.0)

    @pytest.mark.parametrize("r", [-1, 4])
    def test_order_outside_range_refused(self, r):
        with pytest.raises(ValueError, match="0 <= r <= n=3"):
            list(subset_terms(r, (1.0, 2.0, 3.0), lambda a, b: 1.0, lambda v: v))


# The three subset-sum operators as they were written before they shared subset_terms,
# kept as references: each operator must equal its loop bit for bit.

def _macdonald_loop(r, params, z, f):
    n = len(z)
    ca, cb = params.t, 1.0 / params.t
    total = 0.0 + 0.0j
    for members in combinations(range(n), r):
        inside = set(members)
        coef = 1.0 + 0.0j
        for i in members:
            for j in range(n):
                if j not in inside:
                    coef *= (ca * z[i] - cb * z[j]) / (z[i] - z[j])
        out = list(z)
        for i in members:
            out[i] *= params.qsq
        total += coef * f(tuple(out))
    return total


def _shifted(lam, members):
    return tuple(v + 2.0 if i in members else v for i, v in enumerate(lam))


def _coefficient_product(members, lam, shift):
    coef = 1.0 + 0.0j
    for i in members:
        for j in range(len(lam)):
            if j not in members:
                diff = lam[i] - lam[j]
                coef *= (diff + shift) / diff
    return coef


def _dual_loop(r, lam, g, f):
    n = len(lam)
    total = 0.0 + 0.0j
    for members in combinations(range(n), r):
        sign = (-1.0) ** (len(members) * (n - 1))
        coef = _coefficient_product(members, lam, 2.0 - 2.0 * g) * sign
        total += coef * f(_shifted(lam, members))
    return total


def _gauge_loop(r, lam, g, f):
    n = len(lam)
    subsets = list(combinations(range(n), r))
    members = np.array([[j in s for j in range(n)] for s in subsets], dtype=bool).reshape(-1, n)
    point = np.asarray(lam)[None, :]
    base_log, *shifted_logs = gauge_function(
        np.concatenate([point, np.where(members, point + 2.0, point)]), g).tolist()
    lhs = 0.0 + 0.0j
    for subset, log in zip(subsets, shifted_logs):
        lhs += (_coefficient_product(subset, lam, 2.0 * g) * cmath.exp(log - base_log)
                * f(_shifted(lam, subset)))
    rhs = _dual_loop(r, lam, g, f)
    return abs(lhs - rhs) / max(abs(rhs), abs(lhs), _EPS_FLOOR)


def _bits(value):
    return np.asarray(value, dtype=complex).tobytes()


def _exp_probe(rng, n):
    coeffs = [complex(*rng.uniform(-0.5, 0.5, 2)) for _ in range(n)]
    return lambda lam: cmath.exp(sum(c * v for c, v in zip(coeffs, lam)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
class TestOperatorsEqualTheirLoops:
    def test_macdonald(self, n):
        rng = np.random.default_rng(30 + n)
        params = MacdonaldParams(q=0.3 + 0.1j, t=0.7 - 0.2j)
        for r in range(n + 1):
            z = tuple(complex(*rng.uniform(0.6, 1.8, 2)) for _ in range(n))
            f = LaurentPolynomial.random(n, rng)
            want = _macdonald_loop(r, params, z, f)
            assert _bits(apply_macdonald(r, params, z, f)) == _bits(want)

    def test_dual_operator(self, n):
        rng = np.random.default_rng(40 + n)
        for r in range(n + 1):
            lam = tuple(complex(*rng.uniform(-2.0, 2.0, 2)) for _ in range(n))
            f, g = _exp_probe(rng, n), float(rng.uniform(0.2, 3.0))
            assert _bits(apply_dual_operator(r, lam, g, f)) == _bits(_dual_loop(r, lam, g, f))

    def test_gauge_relation(self, n):
        rng = np.random.default_rng(50 + n)
        for r in range(n + 1):
            lam = tuple(complex(*rng.uniform(-1.0, 1.0, 2)) for _ in range(n))
            f, g = _exp_probe(rng, n), float(rng.uniform(0.2, 3.0))
            assert _bits(gauge_relation_residual(r, lam, g, f)) == _bits(_gauge_loop(r, lam, g, f))
