"""q,t-difference operators: weights, gauge equivalence, commutativity, and
the degeneration to the reduced Sutherland Hamiltonians."""

import cmath
import math
from itertools import combinations

import numpy as np
import pytest

from bispectral import macdonald
from bispectral.cli import _DEFAULT_TOLS
from bispectral.macdonald import (LaurentPolynomial, MacdonaldParams, TorusPoint,
                                  apply_macdonald, qpochhammer, tau_limit_check,
                                  verify_gauge_equivalence, weight_and_gauge,
                                  weight_limit_check, weight_shift_residual)


def rand_point(rng, n):
    return TorusPoint(tuple(complex(rng.uniform(0.6, 1.8), rng.uniform(-0.6, 0.6))
                            for _ in range(n)))


class TestQPochhammer:
    def test_zero_argument(self):
        assert qpochhammer(0.0, 0.25) == 1.0

    def test_frozen_reference(self):
        # (q^2; q^2)_inf at q = 0.5
        assert qpochhammer(0.25, 0.25) == pytest.approx(0.68853753712033971546, rel=1e-13)

    def test_functional_equation(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            z = complex(rng.uniform(-2, 2), rng.uniform(-2, 2))
            qsq = complex(rng.uniform(0.05, 0.6), rng.uniform(-0.2, 0.2))
            lhs = qpochhammer(z, qsq)
            rhs = (1 - z) * qpochhammer(z * qsq, qsq)
            assert lhs == pytest.approx(rhs, rel=1e-12)

    def test_divergence_error(self):
        with pytest.raises(ValueError):
            qpochhammer(0.5, 1.01)

    @pytest.mark.parametrize("z, qsq", [
        (0.5, math.nan), (math.inf, 0.25), (complex(0.5, math.nan), 0.25),
        (0.5, complex(0.1, -math.inf))])
    def test_non_finite_refused(self, z, qsq):
        # abs(nan) >= 1 is False, so a divergence test alone lets a NaN qsq
        # through to a one-factor product; an infinite z overflows the term count
        with pytest.raises(ValueError, match="finite"):
            qpochhammer(z, qsq)


class TestParams:
    def test_validation(self):
        # |q| >= 1 is a valid operator parameter; the weights refuse it
        params = MacdonaldParams(q=1.2, t=0.5)
        with pytest.raises(ValueError, match=r"\|qsq\| < 1"):
            weight_and_gauge(params, (1.1, 0.8), 1.0, params.t ** 2)
        with pytest.raises(ValueError):
            MacdonaldParams(q=0.5, t=0.0)

    @pytest.mark.parametrize("q, t", [
        (math.nan, 0.5), (0.5, math.inf), (complex(0.3, math.nan), 0.5),
        (0.5, complex(-math.inf, 0.0))])
    def test_non_finite_refused(self, q, t):
        # a NaN q would reach the operators and weights as NaN arithmetic
        with pytest.raises(ValueError, match="finite"):
            MacdonaldParams(q=q, t=t)


class TestOperators:
    def test_full_subset_is_pure_shift(self):
        # r = n: the coefficient product is empty, M_n f(z) = f(q^2 z)
        rng = np.random.default_rng(2)
        params = MacdonaldParams(q=0.4, t=0.8)
        z = rand_point(rng, 2)
        f = LaurentPolynomial.random(2, rng)
        got = apply_macdonald(2, params, z, f)
        expected = f(tuple(v * params.qsq for v in z))
        assert got == pytest.approx(expected, rel=1e-13)

    def test_constant_function_at_t_one(self):
        # t = 1 collapses every coefficient to 1, so M_1 1 = n
        params = MacdonaldParams(q=0.3, t=1.0)
        got = apply_macdonald(1, params, (1.3, 0.7 + 0.2j), lambda z: 1.0)
        assert got == pytest.approx(2.0, rel=1e-14)

    @pytest.mark.parametrize("n", [2, 3])
    def test_dual_pair_is_the_parameter_map(self, n):
        # M_r(.|q, q/t) at MacdonaldParams(q, q / t) against its coefficient
        # (q t^-1 z_i - q^-1 t z_j)/(z_i - z_j) written out
        rng = np.random.default_rng(20 + n)
        params = MacdonaldParams(q=0.3, t=0.7)
        q, t = params.q, params.t
        z = rand_point(rng, n)
        f = LaurentPolynomial.random(n, rng)
        for r in range(n + 1):
            expected = 0.0 + 0.0j
            for members in combinations(range(n), r):
                coef = 1.0 + 0.0j
                for i in members:
                    for j in range(n):
                        if j not in members:
                            coef *= (q / t * z[i] - t / q * z[j]) / (z[i] - z[j])
                expected += coef * f(tuple(v * q * q if k in members else v
                                           for k, v in enumerate(z)))
            got = apply_macdonald(r, MacdonaldParams(q, q / t), z, f)
            assert abs(got - expected) <= 1e-13 * abs(expected)

    def test_coincident_coordinates_rejected(self):
        with pytest.raises(ValueError):
            TorusPoint((1.0, 1.0))

    @pytest.mark.parametrize("z", [(math.nan, 1.0), (1.0, complex(0.5, math.inf))])
    def test_non_finite_coordinates_refused(self, z):
        with pytest.raises(ValueError, match="finite"):
            TorusPoint(z)
        with pytest.raises(ValueError, match="finite"):
            apply_macdonald(1, MacdonaldParams(q=0.3, t=0.7), z, lambda w: 1.0)

    def test_commutativity_on_laurent_polynomials(self):
        rng = np.random.default_rng(3)
        params = MacdonaldParams(q=0.3, t=0.7)
        for n in (2, 3):
            z = rand_point(rng, n)
            f = LaurentPolynomial.random(n, rng)
            for r in range(1, n + 1):
                for s in range(r + 1, n + 1):
                    ab = apply_macdonald(r, params, z,
                                         lambda zz: apply_macdonald(s, params, zz, f))
                    ba = apply_macdonald(s, params, z,
                                         lambda zz: apply_macdonald(r, params, zz, f))
                    assert abs(ab - ba) / max(abs(ab), abs(ba), 1.0) <= 1e-10

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        params = MacdonaldParams(q=0.3, t=0.7)
        z = rand_point(rng, 3)
        f = LaurentPolynomial.random(3, rng)
        zs = z
        perm = (zs[2], zs[0], zs[1])
        f_perm = lambda zz: f((zz[1], zz[2], zz[0]))
        a = apply_macdonald(1, params, zs, f)
        b = apply_macdonald(1, params, perm, f_perm)
        assert a == pytest.approx(b, rel=1e-12)


class TestWeights:
    def test_phi_ab_shift_law(self):
        rng = np.random.default_rng(5)
        params = MacdonaldParams(q=0.35, t=0.6)
        a, b = 0.4 + 0.1j, 1.7 - 0.2j
        for _ in range(10):
            z = rand_point(rng, 3)
            i = int(rng.integers(0, 3))
            zs = list(z)
            zs[i] *= params.qsq
            ratio = (weight_and_gauge(params, tuple(zs), a, b)
                     / weight_and_gauge(params, z, a, b))
            predicted = 1.0 + 0.0j
            for j in range(3):
                if j != i:
                    predicted *= ((z[i] - a / params.qsq * z[j]) * (b * z[i] - z[j])
                                  / ((a * z[i] - z[j]) * (z[i] - b / params.qsq * z[j])))
            assert ratio == pytest.approx(predicted, rel=1e-10)

    def test_delta_is_phi_one_tsquared(self):
        # the weight is the q-Pochhammer product prod_{j != k} (z_j/z_k; q^2) /
        # (t^2 z_j/z_k; q^2), and the weight of the pair (q, q/t) the same at
        # MacdonaldParams(q, q / t), whose q^2 is the same
        rng = np.random.default_rng(6)
        params = MacdonaldParams(q=0.35, t=0.6)
        q, t = params.q, params.t
        z = rand_point(rng, 3)
        for at in (params, MacdonaldParams(q, q / t)):
            direct = 1.0
            for j, k in ((j, k) for j in range(3) for k in range(3) if j != k):
                w = z[j] / z[k]
                direct *= qpochhammer(w, q * q) / qpochhammer(at.t ** 2 * w, q * q)
            assert weight_and_gauge(at, z, 1.0, at.t ** 2) == pytest.approx(direct, rel=1e-14)

    def test_delta_shift_law(self):
        # ratio (q z_i - q^{-1} z_j)(t z_i - t^{-1} z_j) /
        #       ((z_i - z_j)(q t^{-1} z_i - q^{-1} t z_j))
        rng = np.random.default_rng(7)
        params = MacdonaldParams(q=0.35, t=0.6)
        q, t = params.q, params.t
        for _ in range(10):
            z = rand_point(rng, 3)
            i = int(rng.integers(0, 3))
            zs = list(z)
            zs[i] *= params.qsq
            ratio = (weight_and_gauge(params, tuple(zs), 1.0, t * t)
                     / weight_and_gauge(params, z, 1.0, t * t))
            predicted = 1.0 + 0.0j
            for j in range(3):
                if j != i:
                    predicted *= ((q * z[i] - z[j] / q) * (t * z[i] - z[j] / t)
                                  / ((z[i] - z[j]) * (q / t * z[i] - t / q * z[j])))
            assert ratio == pytest.approx(predicted, rel=1e-10)

    def test_dual_weight_shift_laws(self):
        # the weight (a, b) = (1, q^2/t^2) of the pair (q, q/t), against the
        # weight's law at (q, t) with its second factor inverted
        rng = np.random.default_rng(8)
        params = MacdonaldParams(q=0.35, t=0.6)
        dual = MacdonaldParams(params.q, params.q / params.t)
        q, t = params.q, params.t
        for _ in range(5):
            z = rand_point(rng, 3)
            i = int(rng.integers(0, 3))
            zs = list(z)
            zs[i] *= params.qsq
            ratio = (weight_and_gauge(dual, tuple(zs), 1.0, dual.t ** 2)
                     / weight_and_gauge(dual, z, 1.0, dual.t ** 2))
            predicted = 1.0 + 0.0j
            for j in range(3):
                if j != i:
                    first = (q * z[i] - z[j] / q) / (z[i] - z[j])
                    second = (t * z[i] - z[j] / t) / (q / t * z[i] - t / q * z[j])
                    predicted *= first / second
            assert ratio == pytest.approx(predicted, rel=1e-10)

    @pytest.mark.parametrize("kind", ["delta_qt", "phi_gauge", "phi_ab"])
    def test_shift_residual_predicate(self, kind):
        # the three (a, b) pairs the package uses: the scalar-product weight, the
        # gauge function, and the generic pair of check-macdonald
        rng = np.random.default_rng(10)
        params = MacdonaldParams(q=0.35, t=0.6)
        q, t = params.q, params.t
        a, b = {"delta_qt": (1.0, t * t), "phi_gauge": (q, (q / t) ** 2),
                "phi_ab": (0.4 + 0.1j, 1.7 - 0.2j)}[kind]
        for _ in range(5):
            z = rand_point(rng, 3)
            i = int(rng.integers(0, 3))
            assert weight_shift_residual(params, z, i, a, b) <= 1e-10
        # the index is 0-based and must name a coordinate
        z = (1.1 + 0.2j, 0.8 - 0.1j, 1.5 + 0.3j)
        for i in (-1, 3):
            with pytest.raises(ValueError):
                weight_shift_residual(params, z, i, a, b)

    def test_shift_residual_sees_a_wrong_weight(self, monkeypatch):
        import bispectral.macdonald as macdonald
        exact = macdonald.weight_and_gauge
        monkeypatch.setattr(macdonald, "weight_and_gauge",
                            lambda params, point, a, b: exact(params, point, a, b + 0.01))
        z = rand_point(np.random.default_rng(11), 3)
        params = MacdonaldParams(q=0.35, t=0.6)
        assert weight_shift_residual(params, z, 0, 0.4, 1.7) > 1e-4


class TestGaugeEquivalence:
    def test_t_equals_q_degenerate(self):
        rng = np.random.default_rng(9)
        params = MacdonaldParams(q=0.4, t=0.4)
        z = rand_point(rng, 2)
        f = LaurentPolynomial.random(2, rng)
        assert verify_gauge_equivalence(1, params, z, f) <= 1e-12

    @pytest.mark.parametrize("n,r", [(2, 1), (2, 2), (3, 1), (3, 2), (3, 3)])
    def test_random_laurent_functions(self, n, r):
        rng = np.random.default_rng(100 + 10 * n + r)
        params = MacdonaldParams(q=0.3, t=0.7)
        for _ in range(5):
            z = rand_point(rng, n)
            f = LaurentPolynomial.random(n, rng)
            assert verify_gauge_equivalence(r, params, z, f) <= 1e-10


class TestLaurentPolynomial:
    @pytest.mark.parametrize("expo", [(1, 2), (1, 2, 0, 1), ()])
    def test_exponent_length_must_be_n(self, expo):
        # evaluation would zip the tuple against z and drop what does not pair,
        # and euler_derivative would index past the end of a short one
        with pytest.raises(ValueError, match="length n = 3"):
            LaurentPolynomial(3, {expo: 1.0})

    @pytest.mark.parametrize("z", [(2, 3, 5), (2,)])
    def test_call_at_wrong_length_refused(self, z):
        # zip would drop the extra coordinate and read 6 at (2, 3, 5); and the
        # tau check at a point of that size is refused, not a failed check
        f = LaurentPolynomial(2, {(1, 1): 1})
        with pytest.raises(ValueError, match="n = 2 variables"):
            f(z)
        with pytest.raises(ValueError, match="n = 2 variables"):
            tau_limit_check((0.4, -0.2, 0.1)[:len(z)], 1.5, f)
        assert f((2, 3)) == 6


class TestTauLimit:
    def test_constant_function_recovers_coupling_constant(self):
        # f == 1: HS1 f = 0 and HS2 f = g^2 n (n^2 - 1)/3
        n, g = 2, 1.5
        fit = tau_limit_check((0.4, -0.2), g, LaurentPolynomial(n, {(0, 0): 1.0}))
        assert fit.hs1_analytic == 0.0
        assert fit.hs2_analytic == pytest.approx(g * g * n * (n * n - 1) / 3.0)
        assert fit.hs1_error <= 1e-12
        assert fit.hs2_error <= 1e-12

    def test_single_variable_exact_expansion(self):
        # n = 1: M_1 f = f(q^2 z), expansion matches the Euler operator exactly
        fit = tau_limit_check((0.3,), 1.2, LaurentPolynomial(1, {(1,): 1.0}))
        assert fit.hs1_error <= 1e-12
        assert fit.hs2_error <= 1e-12

    def test_mixed_monomial(self):
        fit = tau_limit_check((0.4, -0.2), 1.5, LaurentPolynomial(2, {(1, 2): 1.0}))
        assert fit.hs1_error <= 1e-12
        assert fit.hs2_error <= 1e-12

    def test_circle_recovers_sigma_coefficients(self):
        # n = 1: M_1 f - f = sum_k c_k (e^{-2 pi k sigma} - 1) z^k, whose sigma
        # and sigma^2 coefficients give HS1 f = sum 2k c_k z^k and
        # HS2 f = sum 4k^2 c_k z^k, whatever g is
        terms = {(-3,): 0.7 - 0.2j, (1,): 1.0, (4,): -0.5j}
        z = cmath.exp(2.0 * 0.3)
        fit = tau_limit_check((0.3,), 2.0, LaurentPolynomial(1, terms))
        hs1 = sum(2 * k * c * z ** k for (k,), c in terms.items())
        hs2 = sum(4 * k * k * c * z ** k for (k,), c in terms.items())
        assert abs(fit.hs1_fitted - hs1) <= 1e-12 * abs(hs1)
        assert abs(fit.hs2_fitted - hs2) <= 1e-12 * abs(hs2)

    @pytest.mark.parametrize("g, rho", [(1.5, 0.05), (30.0, 3.0 / (60.0 * math.pi))])
    def test_radius_follows_the_exponential_type(self, monkeypatch, g, rho):
        # |sigma| = min(0.05, 3 / T), T = pi ((n - 1) g + 2 max|exponent|) = 60 pi at g = 30
        radii, apply = [], macdonald.apply_macdonald

        def spy(r, params, z, f):
            radii.append(abs(cmath.log(params.q)) / math.pi)
            return apply(r, params, z, f)

        monkeypatch.setattr(macdonald, "apply_macdonald", spy)
        fit = tau_limit_check((0.5, 0.1, -0.4), g, LaurentPolynomial(3, {(0, 0, 0): 1.0}))
        assert radii == pytest.approx([rho] * 32, rel=1e-12) and fit.error <= 1e-11

    def test_unresolvable_floor_is_refused(self):
        # at g = 1e4 the radius 3 / T leaves a round-off floor of 1e-10, ten times the tenth
        # of the gate that cli refuses: HS1 f = 0 here, so c_1's round-off over rho is all
        # of the hs1 error; at g = 1.5 the same fit resolves its gate
        tenth = _DEFAULT_TOLS["macdonald.tau"] / 10.0
        f = LaurentPolynomial(2, {(1, -1): 1.0})
        assert tau_limit_check((0.4, -0.2), 1e4, f).floor > tenth
        fit = tau_limit_check((0.4, -0.2), 1.5, f)
        assert fit.floor <= tenth and fit.error <= 1e-11

    @pytest.mark.parametrize("g", [1e16, 1e100])
    def test_floor_grows_with_the_coupling(self, g):
        # the hs1 floor grows like g: finite, never NaN, and refused by cli from g of 100
        floor = tau_limit_check((0.4, -0.2), g, LaurentPolynomial(2, {(1, -1): 1.0})).floor
        assert 1.0 < floor < math.inf

    @pytest.mark.parametrize("g", [1e170, 1e300, 1.7e308])
    def test_out_of_range_fit_is_refused(self, g):
        # a radius past the double range refuses before c_2's quotients overflow or divide
        # by zero (warnings are errors in this suite)
        with pytest.raises(OverflowError, match="out of range"):
            tau_limit_check((0.5, 0.1, -0.4), g, LaurentPolynomial(3, {(0, 0, 0): 1.0}))

    def test_error_propagates_nan(self):
        fit = macdonald.TauFitResult(1.0, 1.0, complex(math.nan), 1.0)
        assert math.isnan(fit.error)


class TestWeightLimit:
    def test_single_variable_trivial(self):
        assert weight_limit_check((0.7,), 1.5) == 0.0

    def test_nan_coordinate_is_nan(self):
        assert math.isnan(weight_limit_check((0.4, math.nan), 1.5))

    def test_n2_reference(self):
        assert weight_limit_check((0.4, -0.2), 1.5) <= 1e-10

    def test_n3_random(self):
        rng = np.random.default_rng(10)
        for _ in range(5):
            x = np.sort(rng.uniform(-1.0, 1.0, size=3))[::-1]
            if min(abs(np.diff(x))) < 0.1:
                continue
            assert weight_limit_check(tuple(x), float(rng.uniform(0.5, 2.5))) <= 1e-10
