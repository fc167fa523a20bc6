"""Dual difference operators: coefficients, gauge function, measures, and the
difference-operator eigenrelations on the wave function."""

import cmath
import math

import numpy as np
import pytest

from bispectral import dual_ops, wavefn
from bispectral.dual_ops import (_terms, apply_dual_hamiltonian,
                                 apply_dual_operator, dual_eigen_residual, gauge_function,
                                 gauge_relation_residual, gauge_shift_residual,
                                 measure_shift_residual, measure_weight)
from bispectral.symfun import elementary_symmetric
from bispectral.wavefn import InfeasibleContourError, eval_phi
from bispectral.cgamma import GammaPoleError, log_gamma
from bispectral.cli import _DEFAULT_TOLS, RunConfig, run

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


def h_terms(r, lam, g):
    """H_g's (coefficient, shifted point) per subset, its sign (-1)^{r(n-1)} included."""
    sign = (-1.0) ** (r * (len(lam) - 1))
    return [(coef * sign, point) for coef, point in _terms(r, lam, 2.0 - 2.0 * g)]


class TestCoefficients:
    def test_n1_r1_is_one(self):
        # no pair outside the subset: the empty product, and the sign (-1)^0
        assert h_terms(1, (0.3j,), 1.5) == [(1.0, (2.0 + 0.3j,))]

    def test_full_subset_collapses_to_pure_shift(self):
        # n = 2, r = 2: empty complement, sign (+1) only, so the order-2
        # operator is the plain double shift
        assert h_terms(2, LAM2, 1.5) == [(1.0, (2.0 + 0.7j, 2.0 - 0.3j))]


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

    def test_closed_form_at_half(self):
        # the factors G(1/2 +- 5i) at g = 1/2, d = 10i: |G(1/2 + iy)|^2 = pi / cosh(pi y)
        got = gauge_function((10j, 0.0), 0.5)
        assert got == pytest.approx(math.log(math.pi / math.cosh(5 * math.pi)), rel=1e-13)

    def test_functional_equation_through_a_reflection(self):
        # at g = 1/4 the factors are G(5/4) G(1/4); lambda_1 + 2 makes them G(9/4) G(-3/4),
        # a ratio of (5/4) / (-3/4) by G(z + 1) = z G(z), one side reflected
        ratio = cmath.exp(gauge_function((3.0, 0.0), 0.25) - gauge_function((1.0, 0.0), 0.25))
        assert ratio == pytest.approx(-5.0 / 3.0, rel=1e-13)

    def test_pole_raises(self):
        # (l_1 - l_2 + 2 - 2g)/2 = 0: a gamma factor of the gauge sits on its pole
        with pytest.raises(GammaPoleError):
            gauge_function((1.0, 0.0), 1.5)

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
            assert gauge_shift_residual(lam, int(rng.integers(0, 3)), g)[0] <= 1e-12
        # i is 0-based: -1 is refused, not wrapped round to the last entry
        for i in (-1, 3):
            with pytest.raises(ValueError):
                gauge_shift_residual(LAM3, i, g)

    def test_shift_residual_sees_a_wrong_gauge(self, monkeypatch):
        # the planted error is per point, as gauge_function is: lam stacks points (..., n)
        import bispectral.dual_ops as dual_ops
        exact = dual_ops.gauge_function
        monkeypatch.setattr(dual_ops, "gauge_function",
                            lambda lam, g: exact(lam, g) + 1e-6 * np.asarray(lam)[..., 0])
        rng = np.random.default_rng(16)
        assert gauge_shift_residual(rand_lambda(rng, 3), 0, 1.5)[0] > 1e-7
        # shifting lambda_0 moves the planted term, so every row of a stack sees it
        stack = [rand_lambda(rng, 3) for _ in range(4)]
        assert np.all(gauge_shift_residual(stack, 0, 1.5)[0] > 1e-7)

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
            assert measure_shift_residual(lam, int(rng.integers(0, 3)), 1.35, kind)[0] <= 1e-11
        for i in (-1, 3):
            with pytest.raises(ValueError):
                measure_shift_residual(LAM3, i, 1.35, kind)

    @pytest.mark.parametrize("law, gate", [
        (lambda lam, g: measure_shift_residual(lam, 0, g, "mu_g"), "measures.diffeq"),
        (lambda lam, g: measure_shift_residual(lam, 0, g, "mu_1mg"), "measures.diffeq"),
        (lambda lam, g: gauge_shift_residual(lam, 0, g), "gauge.shift")],
        ids=["mu_g", "mu_1mg", "gauge"])
    def test_round_off_floor_is_refused(self, law, gate):
        # 4 eps max|log W|: 1.6e-11 at g = 1000, past the tenth of either gate that cli
        # refuses, and 3.4e-14 at g = 10, where the residual passes
        tenth = _DEFAULT_TOLS[gate] / 10.0
        assert law(LAM3, 1000.0)[1] > tenth
        residual, floor = law(LAM3, 10.0)
        assert floor <= tenth and residual <= 1e-12

    def test_zero_weight_adds_no_floor(self):
        # a weight zero (log -inf) at a gamma pole is no round-off: the NaN ratio is reported
        residual, floor = measure_shift_residual((0.0, 2.0, 5j), 2, 1.5, "mu_1mg")
        assert np.isnan(residual) and floor == 0.0

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

    def test_sklyanin_pole_is_a_zero(self):
        # lambda that differ by 2: the factor 1/G(-2) vanishes, and so does the weight
        value = measure_weight((2.0 + 1.3j, 1.3j), 1.5, "sklyanin")
        assert value.real == -math.inf and cmath.exp(value) == 0.0

    def test_sklyanin_stays_in_log_space(self):
        # 1/|G(iy)|^2 = y sinh(pi y) / pi is about e^946 at y = 300, past double range
        y = 300.0
        value = measure_weight((1j * y, 0.0), 1.5, "sklyanin")
        want = math.log(y / (2 * math.pi)) + math.pi * y + math.log1p(-math.exp(-2 * math.pi * y))
        assert value.real == pytest.approx(want, rel=1e-13) and want > 700
        assert abs(value.imag) <= 1e-12

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            measure_weight(LAM2, 1.5, "nope")


class TestStacks:
    """Each gauge and measure function takes one point or a stack of them, shape (..., n),
    and gives every point of a stack its single-point value, bit for bit."""

    G = 1.35
    # lambda_1 - lambda_2 = 2: the Sklyanin factor 1/G(-2) and the measure's 1/G(-1) sit on
    # their poles, and a shift of lambda_3 keeps them there
    POLE = (2.0 + 1.3j, 1.3j, -0.5j)

    @staticmethod
    def points(count=6, seed=21):
        rng = np.random.default_rng(seed)
        return [rand_lambda(rng, 3) for _ in range(count)]

    @staticmethod
    def bits(values):
        return np.asarray(values).ravel().tobytes()

    def test_gauge_function(self):
        points = self.points() + [self.POLE]
        stacked = gauge_function(np.reshape(points[:6], (2, 3, 3)), self.G)
        assert stacked.shape == (2, 3)
        assert self.bits(stacked) == self.bits([gauge_function(p, self.G) for p in points[:6]])
        assert gauge_function(points, self.G).shape == (7,)
        assert np.ndim(gauge_function(points[0], self.G)) == 0

    @pytest.mark.parametrize("kind", ["mu_g", "mu_1mg", "sklyanin"])
    def test_measure_weight(self, kind):
        points = self.points()[:5] + [self.POLE]
        stacked = measure_weight(np.reshape(points, (2, 3, 3)), self.G, kind)
        single = [measure_weight(p, self.G, kind) for p in points]
        assert stacked.shape == (2, 3) and self.bits(stacked) == self.bits(single)
        # the pole is a zero of the weight in its own row only
        assert stacked[1, 2].real == -math.inf and np.isfinite(stacked.ravel()[:5]).all()

    def test_gauge_shift_residual(self):
        points = self.points()
        shifts = [0, 2, 1, 1, 0, 2]
        stacked, floor = gauge_shift_residual(np.reshape(points, (2, 3, 3)),
                                              np.reshape(shifts, (2, 3)), self.G)
        single = [gauge_shift_residual(p, i, self.G) for p, i in zip(points, shifts)]
        assert stacked.shape == (2, 3) and self.bits(stacked) == self.bits(
            [residual for residual, _ in single])
        # a stack's floor is the largest of its points'
        assert floor == max(point_floor for _, point_floor in single)
        # one index for every point
        assert self.bits(gauge_shift_residual(points, 1, self.G)[0]) == self.bits(
            [gauge_shift_residual(p, 1, self.G)[0] for p in points])

    @pytest.mark.parametrize("kind", ["mu_g", "mu_1mg"])
    def test_measure_shift_residual(self, kind):
        # the pole row is -inf on both sides of its shift: a NaN draw, in its own row only
        points, shifts = self.points()[:5] + [self.POLE], [0, 2, 1, 1, 0, 2]
        stacked, floor = measure_shift_residual(points, shifts, self.G, kind)
        single = [measure_shift_residual(p, i, self.G, kind) for p, i in zip(points, shifts)]
        assert self.bits(stacked) == self.bits([residual for residual, _ in single])
        assert floor == max(point_floor for _, point_floor in single)
        assert math.isnan(stacked[5]) and (stacked[:5] <= 1e-11).all()

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_gauge_relation_residual(self, r):
        # one probe per point; the last returns NaN, a NaN draw in its own row only
        rng = np.random.default_rng(22)
        points = self.points()
        probes = [exp_probe(rng, 3) for _ in points[:5]] + [lambda lam: math.nan]
        stacked = gauge_relation_residual(r, np.reshape(points, (3, 2, 3)),
                                          self.G, np.reshape(probes, (3, 2)))
        single = [gauge_relation_residual(r, p, self.G, f) for p, f in zip(points, probes)]
        assert stacked.shape == (3, 2) and self.bits(stacked) == self.bits(single)
        assert math.isnan(stacked[2, 1]) and (stacked.ravel()[:5] <= 1e-10).all()
        # one probe for every point
        f = probes[0]
        assert self.bits(gauge_relation_residual(r, points, self.G, f)) == self.bits(
            [gauge_relation_residual(r, p, self.G, f) for p in points])

    def test_a_bad_point_refuses_the_stack(self):
        points = self.points(3)
        for bad in ((0.1j, 0.1j, 0.5j), (0.1j, math.nan, 0.5j)):
            with pytest.raises(ValueError, match="spectral point"):
                gauge_function(points + [bad], self.G)
        with pytest.raises(GammaPoleError):  # a gauge pole, as for one point
            gauge_function(points + [(1.0, 0.0, 0.4j)], 1.5)


class TestDualHamiltonian:
    def test_n1_exact(self):
        res = apply_dual_hamiltonian(1, (0.5j,), (0.4,), 1.5)
        assert res.relative_residual <= 1e-14

    @pytest.mark.parametrize("r", [1, 2])
    def test_n2_eigenrelation(self, r):
        res = apply_dual_hamiltonian(r, LAM2, X2, 1.5)
        assert res.relative_residual <= 1e-5

    def test_eigenvalue_out_of_range_is_refused_first(self):
        # e^{2 x_1} = e^711 is past the double range: OverflowError names e_r and x, and f
        # is never called
        def f(lam):
            raise AssertionError("f was called")

        message = r"e_1\(e\^\(2x\)\) = inf is out of range at x = \(355.5, 355.1\)"
        with pytest.raises(OverflowError, match=message):
            dual_eigen_residual(1, LAM2, (355.5, 355.1), 3.0, f, 1.0)

    def test_infeasible_at_g_one(self):
        with pytest.raises(InfeasibleContourError):
            apply_dual_hamiltonian(1, LAM2, X2, 1.0)

    @pytest.mark.parametrize("r", [1, 2, 3])
    def test_shifted_lines_are_refused_before_any_evaluation(self, monkeypatch, r):
        # every shifted point's line Re = 1 is checked first: at g = 0.05 the base grid
        # alone would exceed the node budget, and a coupling g <= 0 is a bad input
        def evaluated(*args, **kwargs):
            raise AssertionError("Phi was evaluated")

        monkeypatch.setattr(dual_ops, "eval_phi", evaluated)
        with pytest.raises(InfeasibleContourError, match="Re = 1.0"):
            apply_dual_hamiltonian(r, LAM3, X3, 0.05)
        with pytest.raises(ValueError, match="coupling"):
            apply_dual_hamiltonian(r, LAM3, X3, -1.0)

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


class TestTranslationCovariance:
    """Under x -> x + c both sides of H_r Phi = e_r(e^{2x}) Phi scale by e^{c (sum lambda
    + 2r)}, so check-dual's relative residual, and what it can catch, must not move."""

    @staticmethod
    def residuals(lam, x, c):
        status, reports = run("check-dual", RunConfig(n=len(lam), lam=lam,
                                                      x=tuple(v + c for v in x)))
        return status, [rep.residual for rep in reports]

    @pytest.mark.parametrize("lam, x, shifts", [(LAM2, X2, (-20.0, -10.0, 10.0, 20.0)),
                                                (LAM3, X3, (-50.0, 20.0, 50.0))])
    def test_passes_at_every_translate(self, lam, x, shifts):
        _, at_zero = self.residuals(lam, x, 0.0)
        for c in shifts:
            status, got = self.residuals(lam, x, c)
            assert status == 0
            assert all(want / 10 <= res <= 10 * want for res, want in zip(got, at_zero)), c

    @pytest.mark.parametrize("c", [0.0, -10.0])
    def test_planted_error_fails_at_every_translate(self, monkeypatch, c):
        # a relative error of 1e-6 in every shifted Phi: |e_r| times the relative
        # residual would read 6e-15 at c = -10, and pass
        original = dual_ops.eval_phi

        def planted(lam, x, g, contour=0.0, **kw):
            value = original(lam, x, g, contour=contour, **kw)
            return value * (1.0 + 1e-6) if contour == 1.0 else value

        monkeypatch.setattr(dual_ops, "eval_phi", planted)
        status, got = self.residuals(LAM2, X2, c)
        assert status == 1 and all(res == pytest.approx(1e-6, rel=0.01) for res in got)


class TestPoleMarginStep:
    """At g = 1.25 the shifted contour's pole margin is 0.25, and the step comes from it."""

    @pytest.mark.parametrize("lam, x", [
        # 2.8e-4 and 4.8e-5 at a fixed step of 0.1
        ((7.695151646287584j, -0.9764293593214255j), (0.2295715018233246, -0.5737897075334575)),
        ((-8.58520794721395j, 7.28106965621344j), (0.3486071732764114, -0.4878599637133398))])
    def test_n2_reproducers(self, lam, x):
        _, (rep,) = run("check-dual", RunConfig(n=2, g=1.25, lam=lam, x=x, r=1))
        assert rep.residual <= 1e-9

    def test_n3_benchmark_point(self):
        # the g = 1.25 point of the n3_default benchmark's seed-7 core: 1.05e-5 at a fixed
        # step of 0.1
        lam = (0.7382293670965696j, 0.03836414425964177j, -0.7400723008303022j)
        x = (0.46521851633961503, -0.006352431620322105, -0.4234048721657246)
        _, reports = run("check-dual", RunConfig(n=3, g=1.25, lam=lam, x=x))
        assert len(reports) == 3 and all(rep.residual <= 1e-9 for rep in reports)

    def test_step_is_the_margin_rule(self, monkeypatch):
        # h = min(step, 2 pi a / ln(1/_TAIL_TOL)): 0.0525 on the shifted contour at
        # g = 1.25, and the configured 0.1 on the unshifted one, where a = g
        steps, grid = [], wavefn._grid
        monkeypatch.setattr(wavefn, "_grid", lambda c, T, h: steps.append(h) or grid(c, T, h))
        apply_dual_hamiltonian(1, LAM2, X2, 1.25)
        rule = 2 * math.pi * 0.25 / math.log(1e13)
        assert sorted(set(steps)) == pytest.approx([rule, 0.1], rel=1e-15)


class TestSharedLattice:
    """One dual check shares one lattice between all its evaluations."""

    @pytest.mark.parametrize("lam, x, r", [(LAM3, X3, 1), (LAM3, X3, 2), (LAM3, X3, 3),
                                           (LAM2, X2, 1), (LAM2, X2, 2)])
    @pytest.mark.parametrize("g", [1.25, 1.5, 2.0])
    def test_equals_separate_evaluations(self, lam, x, r, g):
        # the operator written out with one fresh eval_phi per point
        total = 0.0 + 0.0j
        for coef, shifted in h_terms(r, lam, g):
            total += coef * eval_phi(shifted, x, g, contour=1.0)
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
