"""Dual difference operators: coefficients, gauge function, measures, and the
difference-operator eigenrelations on the wave function."""

import cmath
import math
from itertools import combinations

import numpy as np
import pytest

from bispectral import wavefn
from bispectral.dual_ops import (_shifted, apply_dual_hamiltonian, apply_dual_operator,
                                 dual_coefficient, gauge_function,
                                 gauge_relation_residual, gauge_shift_residual,
                                 measure_shift_residual, measure_weight)
from bispectral.symfun import elementary_symmetric
from bispectral.wavefn import InfeasibleContourError, default_contour, eval_phi
from bispectral.cgamma import log_gamma

LAM2 = (0.7j, -0.3j)
X2 = (0.4, -0.2)
LAM3 = (0.9j, 0.1j, -0.6j)
X3 = (0.45, 0.0, -0.4)


def rand_lambda(rng, n, spread=2.0):
    return tuple(complex(rng.uniform(-1, 1), rng.uniform(-spread, spread))
                 for _ in range(n))


def exp_probe(rng, n):
    coeffs = [complex(rng.uniform(-0.5, 0.5), rng.uniform(-0.5, 0.5)) for _ in range(n)]
    return lambda lam: cmath.exp(sum(c * v for c, v in zip(coeffs, lam)))


class TestCoefficients:
    def test_n1_r1_is_one(self):
        assert dual_coefficient((0,), (0.3j,), 1.5) == pytest.approx(1.0)

    def test_full_subset_collapses_to_pure_shift(self):
        # n = 2, r = 2: empty complement, sign (+1) only, so the order-2
        # operator is the plain double shift
        assert dual_coefficient((0, 1), LAM2, 1.5) == 1.0

    # H_g's 0-based members must be sorted, distinct and inside 0..n-1
    @pytest.mark.parametrize("members", [
        pytest.param((1, 0), id="members1-H_g"), pytest.param((0, 0), id="members2-H_g"),
        pytest.param((-1,), id="members3-H_g"), pytest.param((2,), id="members4-H_g")])
    def test_unknown_variant(self, members):
        with pytest.raises(ValueError):
            dual_coefficient(members, LAM2, 1.5)
        with pytest.raises(ValueError):
            _shifted(LAM2, members)


class TestOperatorAlgebra:
    def test_commutativity_probe(self):
        rng = np.random.default_rng(4)
        for n in (2, 3):
            lam = rand_lambda(rng, n)
            f = exp_probe(rng, n)
            for r in range(1, n + 1):
                for s in range(r + 1, n + 1):
                    ab = apply_dual_operator(
                        r, lam, 1.4, lambda l: apply_dual_operator(s, l, 1.4, f))
                    ba = apply_dual_operator(
                        s, lam, 1.4, lambda l: apply_dual_operator(r, l, 1.4, f))
                    assert abs(ab - ba) / max(abs(ab), 1e-300) <= 1e-10


class TestGauge:
    def test_n1_empty_product(self):
        assert gauge_function((0.5j,), 1.5) == 0.0

    def test_shift_law(self):
        rng = np.random.default_rng(5)
        n, g = 3, 1.8
        for _ in range(10):
            lam = rand_lambda(rng, n)
            i = int(rng.integers(0, n))
            shifted = tuple(v + 2.0 if k == i else v for k, v in enumerate(lam))
            ratio = cmath.exp(gauge_function(shifted, g) - gauge_function(lam, g))
            predicted = (-1.0) ** (n - 1)
            for j in range(n):
                if j != i:
                    predicted *= (lam[i] - lam[j] - 2 * g + 2) / (lam[i] - lam[j] + 2 * g)
            assert ratio == pytest.approx(predicted, rel=1e-12)

    @pytest.mark.parametrize("g", [0.5, 0.8, 1.8])
    def test_shift_residual_predicate(self, g):
        rng = np.random.default_rng(15)
        for _ in range(10):
            lam = rand_lambda(rng, 3)
            assert gauge_shift_residual(lam, int(rng.integers(0, 3)), g) <= 1e-12
        # i is 0-based: -1 is refused, not wrapped round to the last entry
        for i in (-1, 3):
            with pytest.raises(ValueError):
                gauge_shift_residual(LAM3, i, g)

    def test_shift_residual_sees_a_wrong_gauge(self, monkeypatch):
        import bispectral.dual_ops as dual_ops
        exact = dual_ops.gauge_function
        monkeypatch.setattr(dual_ops, "gauge_function",
                            lambda lam, g: exact(lam, g) + 1e-6 * lam[0])
        assert gauge_shift_residual(rand_lambda(np.random.default_rng(16), 3), 0, 1.5) > 1e-7

    def test_gauge_relation_on_probes(self):
        rng = np.random.default_rng(6)
        for n in (2, 3):
            for r in range(1, n + 1):
                lam = rand_lambda(rng, n)
                residual = gauge_relation_residual(r, lam, 1.6, exp_probe(rng, n))
                assert residual <= 1e-10


class TestMeasures:
    @pytest.mark.parametrize("kind", ["mu_g", "mu_1mg"])
    def test_difference_equation(self, kind):
        rng = np.random.default_rng(7)
        n, g = 3, 1.35
        for _ in range(10):
            lam = rand_lambda(rng, n)
            i = int(rng.integers(0, n))
            shifted = tuple(v + 2.0 if k == i else v for k, v in enumerate(lam))
            ratio = cmath.exp(measure_weight(shifted, g, kind)
                              - measure_weight(lam, g, kind))
            predicted = 1.0 + 0.0j
            for j in range(n):
                if j != i:
                    d = lam[i] - lam[j]
                    predicted *= (d + 2) / d
                    if kind == "mu_g":
                        predicted *= (d + 2 * g) / (d + 2 - 2 * g)
                    else:
                        predicted *= (d + 2 - 2 * g) / (d + 2 * g)
            assert ratio == pytest.approx(predicted, rel=1e-11)

    @pytest.mark.parametrize("kind", ["mu_g", "mu_1mg"])
    def test_shift_residual_predicate(self, kind):
        rng = np.random.default_rng(17)
        for _ in range(10):
            lam = rand_lambda(rng, 3)
            assert measure_shift_residual(lam, int(rng.integers(0, 3)), 1.35, kind) <= 1e-11
        for i in (-1, 3):
            with pytest.raises(ValueError):
                measure_shift_residual(LAM3, i, 1.35, kind)

    def test_shift_residual_needs_a_stated_law(self):
        with pytest.raises(ValueError):
            measure_shift_residual(LAM2, 0, 1.5, "sklyanin")

    def test_sklyanin_proportionality_at_half(self):
        rng = np.random.default_rng(8)
        for kind in ("mu_g", "mu_1mg"):
            ratios = []
            for _ in range(20):
                lam = tuple(complex(0.0, float(v))
                            for v in np.sort(rng.uniform(-2, 2, size=3))[::-1])
                ratios.append(cmath.exp(measure_weight(lam, 0.5, kind)
                                        - measure_weight(lam, 0.5, "sklyanin")))
            arr = np.asarray(ratios)
            assert np.max(np.abs(arr - arr.mean())) / abs(arr.mean()) <= 1e-11
            # duplication formula fixes the constant: 2^(-n(n-1)) pi^(-n(n-1)/2)
            assert arr.mean() == pytest.approx(2.0 ** -6 * math.pi ** -3, rel=1e-12)

    def test_single_entry_empty_products(self):
        for kind in ("mu_g", "mu_1mg", "sklyanin"):
            assert measure_weight((0.4j,), 1.5, kind) == 0.0

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            measure_weight(LAM2, 1.5, "nope")


class TestDualHamiltonian:
    def test_n1_exact(self):
        res = apply_dual_hamiltonian(1, (0.5j,), (0.4,), 1.5)
        assert res.relative_residual <= 1e-14

    @pytest.mark.parametrize("r", [1, 2])
    def test_n2_eigenrelation(self, r):
        res = apply_dual_hamiltonian(r, LAM2, X2, 1.5)
        assert res.relative_residual <= 1e-5

    def test_infeasible_at_g_one(self):
        with pytest.raises(InfeasibleContourError):
            apply_dual_hamiltonian(1, LAM2, X2, 1.0)

    @pytest.mark.parametrize("r", [-1, 0, 3])
    def test_r_range(self, r):
        with pytest.raises(ValueError):
            apply_dual_hamiltonian(r, LAM2, X2, 1.5)
        # the bare operator admits r = 0, the identity
        if r == 0:
            assert apply_dual_operator(0, LAM2, 1.5, sum) == pytest.approx(sum(LAM2))
        else:
            with pytest.raises(ValueError):
                apply_dual_operator(r, LAM2, 1.5, sum)


class TestSharedLattice:
    """One dual check shares one lattice between all its evaluations."""

    @pytest.mark.parametrize("lam, x, r", [(LAM3, X3, 1), (LAM3, X3, 2), (LAM3, X3, 3),
                                           (LAM2, X2, 1), (LAM2, X2, 2)])
    @pytest.mark.parametrize("g", [1.25, 1.5, 2.0])
    def test_equals_separate_evaluations(self, lam, x, r, g):
        # the operator written out with one fresh eval_phi per point
        n = len(lam)
        contour = default_contour(n, g, shifted=True)
        total = 0.0 + 0.0j
        for members in combinations(range(n), r):
            total += dual_coefficient(members, lam, g) * eval_phi(_shifted(lam, members), x,
                                                                   g, contour=contour)
        eig = elementary_symmetric(r, [cmath.exp(2.0 * xi) for xi in x])
        res = apply_dual_hamiltonian(r, lam, x, g)
        assert res.value == total
        assert res.expected == eig * eval_phi(lam, x, g)

    def test_log_gamma_work(self, monkeypatch):
        # one offset kernel and one measure for all four points, on half the offsets
        elems, original = [], wavefn.log_gamma

        def counting(z):
            elems.append(np.size(z))
            return original(z)

        monkeypatch.setattr(wavefn, "log_gamma", counting)
        apply_dual_hamiltonian(1, LAM3, X3, 1.5)
        assert 0 < sum(elems) < 30_000


class TestLevelReduction:
    def test_order_one_splits_across_levels_n2(self):
        # H_1 Phi at level 2 = e^{2 x2} * (inner integral of order 0)
        #                    + (inner integral with the level-1 operator applied)
        # Both sides evaluated independently: LHS by shifted-contour sums,
        # RHS by direct quadrature on the unshifted line.
        g = 1.5
        l1, l2 = LAM2
        x1, x2 = X2
        lhs = apply_dual_hamiltonian(1, LAM2, X2, g).value

        step, T = 0.1, 36.0
        t = np.arange(-T, T + step / 2, step)
        nu = 1j * t
        w = np.full(t.shape, step)
        w[0] = w[-1] = step / 2
        lg = (log_gamma((nu - l1 + g) / 2) + log_gamma((l1 - nu + g) / 2)
              + log_gamma((nu - l2 + g) / 2) + log_gamma((l2 - nu + g) / 2))
        kernel_exp = np.exp(lg + (l1 + l2 - nu) * x2)
        order0 = np.sum(w * kernel_exp * np.exp(nu * x1))
        order1 = np.sum(w * kernel_exp * np.exp((nu + 2.0) * x1))
        rhs = math.exp(2 * x2) * order0 + order1
        assert abs(lhs - rhs) / abs(rhs) <= 1e-5
