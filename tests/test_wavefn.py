"""Mellin-Barnes evaluation: kernel/measure values, contours, quadrature
invariants, exact derivatives."""

import cmath
import math

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bispectral.cgamma import GammaPoleError
from bispectral.wavefn import (CoincidentCoordinatesError, ContourSpec,
                               ConvergenceWindowError, InfeasibleContourError,
                               PositionPoint, QuadratureSpec, SpectralPoint,
                               TailNotConvergedError, default_contour,
                               eval_phi, eval_phi_derivative, eval_phi_many,
                               eval_psi, kernel_K, measure_mu, sinh_prefactor,
                               validate_contour)

LAM2 = (0.7j, -0.3j)
X2 = (0.4, -0.2)
G = 1.5


@st.composite
def n2_points(draw):
    """(lambda, x, g) over the n = 2 domain: Im lambda in [-10, 10] at least
    0.3 apart, x1 - x2 in [0.2, 0.95]."""
    im = draw(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2)
              .filter(lambda v: abs(v[0] - v[1]) >= 0.3))
    sep = draw(st.floats(0.2, 0.95))
    centre = draw(st.floats(-0.3, 0.3))
    g = draw(st.sampled_from((0.5, 1.25, 1.5, 2.0, 3.0)))
    return (1j * im[0], 1j * im[1]), (centre + sep / 2, centre - sep / 2), g


n2_property = settings(derandomize=True, max_examples=40, deadline=None)


class TestKernelAndMeasure:
    def test_kernel_degenerate_n1(self):
        assert kernel_K([0.5j], [], 2.0) == 0.0

    def test_kernel_trivial_zero(self):
        # lam = (0,0), nu = 0, g = 2: all four gamma arguments equal 1
        assert kernel_K([0.0, 0.0], [0.0], 2.0) == pytest.approx(0.0, abs=1e-13)

    def test_kernel_frozen_reference(self):
        got = kernel_K(LAM2, [0.2j], 1.5)
        assert got == pytest.approx(complex(0.50740506608382789081, 0.0), rel=1e-12)

    def test_measure_empty(self):
        assert measure_mu([0.3j], 1.0) == 0.0

    def test_measure_frozen_reference(self):
        got = measure_mu([1j, -1j], 2.0)
        assert got == pytest.approx(complex(1.9105456166474800461, 0.0), rel=1e-12)

    def test_measure_zero_marker_at_coincidence(self):
        # also at nu_1 - nu_2 = -2, which puts G(-1) in the denominator
        for nu in ([0.4j, 0.4j], [0.0, 2.0]):
            value = measure_mu(nu, 1.5)
            assert value.real == float("-inf")
            assert cmath.exp(value) == 0.0

    def test_kernel_pole_raises(self):
        # (nu - lam + g) / 2 = 0
        with pytest.raises(GammaPoleError):
            kernel_K([1.5], [0.0], 1.5)


class TestContours:
    def test_unshifted_at_zero_any_g(self):
        contour = default_contour(3, 0.8)
        assert contour.level_re == (0.0, 0.0)

    def test_shifted_moves_to_one(self):
        contour = default_contour(2, 1.5, (2, 0))
        assert contour.level_re == (1.0,)
        # 1 sits inside both windows: (-g+2, g) = (0.5, 1.5) and (-g, g)
        assert validate_contour(contour, (0.7j + 2.0, -0.3j), 1.5) > 0

    def test_shift_infeasible_at_g_one(self):
        with pytest.raises(InfeasibleContourError):
            default_contour(2, 1.0, (0, 2))

    def test_validate_rejects_wrong_level_count(self):
        with pytest.raises(ValueError):
            validate_contour(ContourSpec(level_re=(0.0,)), (0.1j, 0.9j, -0.8j), 1.5)

    def test_validate_rejects_pole_crossing(self):
        # contour at 0 cannot separate lattices once lambda is shifted by +2 at g=1.5
        bad = ContourSpec(level_re=(0.0,))
        with pytest.raises(InfeasibleContourError):
            validate_contour(bad, (2.0 + 0.7j, -0.3j), 1.5)


class TestPoints:
    def test_coincident_positions_raise(self):
        with pytest.raises(CoincidentCoordinatesError):
            PositionPoint((0.4, 0.4))

    def test_window_enforced(self):
        with pytest.raises(ConvergenceWindowError):
            PositionPoint((1.4, -1.4))
        # configurable window admits the same pair
        assert PositionPoint((1.4, -1.4), max_separation=3.0).n == 2

    def test_spectral_distinct(self):
        with pytest.raises(ValueError):
            SpectralPoint((0.5j, 0.5j))


class TestQuadratureSpec:
    def test_step_bound(self):
        with pytest.raises(ValueError):
            QuadratureSpec(step=0.3)

    def test_tail_tol_bound(self):
        with pytest.raises(ValueError):
            QuadratureSpec(tail_tol=1.0)

    def test_fixed_half_width_within_cap(self):
        assert QuadratureSpec(half_width=120.0).half_width == 120.0
        with pytest.raises(ValueError, match="half_width"):
            QuadratureSpec(half_width=120.5)


class TestEvalPhi:
    def test_n1_exponential(self):
        lam, x = 0.37j, 0.81
        assert eval_phi([lam], [x], 1.2) == pytest.approx(cmath.exp(lam * x), rel=1e-15)

    @n2_property
    @given(n2_points())
    @example((LAM2, X2, G))
    def test_lambda_swap_symmetry(self, point):
        lam, x, g = point
        a = eval_phi(lam, x, g)
        b = eval_phi((lam[1], lam[0]), x, g)
        assert a == pytest.approx(b, rel=1e-12)

    def test_lambda_permutation_n3(self):
        lam = (0.9j, 0.1j, -0.6j)
        x = (0.45, 0.0, -0.4)
        quad = QuadratureSpec(step=0.15, tail_tol=1e-10)
        a = eval_phi(lam, x, G, quad=quad)
        b = eval_phi((lam[2], lam[0], lam[1]), x, G, quad=quad)
        assert a == pytest.approx(b, rel=1e-12)

    @n2_property
    @given(n2_points(), st.floats(-0.5, 0.5))
    @example((LAM2, X2, G), 0.21)
    def test_translation_covariance_n2(self, point, c):
        lam, x, g = point
        base = eval_phi(lam, x, g)
        moved = eval_phi(lam, tuple(v + c for v in x), g)
        assert moved == pytest.approx(cmath.exp(c * sum(lam)) * base, rel=1e-10)

    def test_translation_covariance_n3(self):
        lam = (0.9j, 0.1j, -0.6j)
        x = (0.45, 0.0, -0.4)
        c = -0.13
        quad = QuadratureSpec(step=0.125, tail_tol=1e-12)
        base = eval_phi(lam, x, G, quad=quad)
        moved = eval_phi(lam, tuple(v + c for v in x), G, quad=quad)
        assert moved == pytest.approx(cmath.exp(c * sum(lam)) * base, rel=1e-8)

    @n2_property
    @given(n2_points())
    @example((LAM2, X2, G))
    def test_conjugation(self, point):
        # imaginary lambda, real x: conj(Phi(lam)) = Phi(-lam)
        lam, x, g = point
        base = eval_phi(lam, x, g)
        negated = eval_phi(tuple(-v for v in lam), x, g)
        assert base.conjugate() == pytest.approx(negated, rel=1e-12)

    def test_x_permutation_observational(self):
        # x-permutation symmetry is presumptive, not an asserted invariant:
        # record the observed defect, require only that both evaluations ran
        a = eval_phi(LAM2, X2, G)
        b = eval_phi(LAM2, (X2[1], X2[0]), G)
        defect = abs(a - b) / abs(a)
        print(f"observed x-swap defect: {defect:.3e}")
        assert math.isfinite(defect)

    def test_quadrature_convergence(self):
        coarse = eval_phi(LAM2, X2, G, quad=QuadratureSpec(step=0.1, half_width=30.0))
        fine = eval_phi(LAM2, X2, G, quad=QuadratureSpec(step=0.05, half_width=60.0))
        assert abs(fine - coarse) / abs(fine) <= 10 * 1e-13

    def test_tail_not_converged(self):
        with pytest.raises(TailNotConvergedError):
            eval_phi(LAM2, X2, G, quad=QuadratureSpec(step=0.1, half_width=3.0))

    def test_n4_rejected(self):
        with pytest.raises(ValueError):
            eval_phi((1j, 2j, 3j, 4j), (0.3, 0.2, 0.1, 0.0), G)

    def test_wide_window_opt_in(self):
        point = PositionPoint((0.9, -0.9), max_separation=2.0)
        value = eval_phi(LAM2, point, G)
        assert value == value and abs(value) > 0


class TestDerivatives:
    def test_n1_derivative(self):
        lam, x = 0.9j, 0.5
        got = eval_phi_derivative([lam], [x], G, (1,))
        assert got == pytest.approx(lam * cmath.exp(lam * x), rel=1e-15)

    def test_gradient_sums_to_total_momentum(self):
        # sum_i d_i Phi = (sum lam) Phi
        vals = eval_phi_many(LAM2, X2, G, [(0, 0), (1, 0), (0, 1)])
        phi, d1, d2 = vals
        assert d1 + d2 == pytest.approx(sum(LAM2) * phi, rel=1e-12)

    def test_second_derivative_vs_finite_differences(self):
        h = 0.02

        def phi_at(x1):
            return eval_phi(LAM2, (x1, X2[1]), G)

        # 5-point central second difference, O(h^4)
        stencil = (-phi_at(X2[0] + 2 * h) + 16 * phi_at(X2[0] + h) - 30 * phi_at(X2[0])
                   + 16 * phi_at(X2[0] - h) - phi_at(X2[0] - 2 * h)) / (12 * h * h)
        exact = eval_phi_derivative(LAM2, X2, G, (2, 0))
        assert abs(stencil - exact) / abs(exact) <= 1e-6

    def test_mixed_derivative_supported(self):
        got = eval_phi_derivative(LAM2, X2, G, (1, 1))
        assert got == got  # finite

    def test_order_cap(self):
        with pytest.raises(ValueError):
            eval_phi_derivative(LAM2, X2, G, (2, 1))


class TestPsi:
    def test_n1_prefactor_empty(self):
        lam, x = 0.4j, 0.3
        assert eval_psi([lam], [x], G) == pytest.approx(eval_phi([lam], [x], G), rel=1e-15)

    def test_prefactor_value(self):
        assert sinh_prefactor((0.5, -0.5), 2.0) == pytest.approx(math.sinh(1.0) ** 2, rel=1e-14)

    def test_psi_is_prefactor_times_phi(self):
        psi = eval_psi(LAM2, X2, G)
        assert psi == pytest.approx(sinh_prefactor(X2, G) * eval_phi(LAM2, X2, G), rel=1e-14)
