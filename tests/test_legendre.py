"""Closed-form n = 2 oracle: hypergeometric series, Legendre function,
recurrence, and agreement with the contour-integral evaluator."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bispectral.cli import main
from bispectral.legendre import (HypergeometricError, LegendreArgs,
                                 closed_form_phi2, dual_system_residuals,
                                 hyp2f1, legendre_P, recurrence_check)
from bispectral.wavefn import ConvergenceWindowError, eval_phi


@st.composite
def window_edge_points(draw, separations):
    """(lambda, x, g) at n = 2 with x = (s/2, -s/2), so x1 - x2 is exactly a
    drawn separation s; Im lambda in [-10, 10] at least 0.3 apart."""
    im = draw(st.lists(st.floats(-10.0, 10.0), min_size=2, max_size=2)
              .filter(lambda v: abs(v[0] - v[1]) >= 0.3))
    sep = draw(separations)
    g = draw(st.sampled_from((1.25, 1.5, 3.0)))
    return (1j * im[0], 1j * im[1]), (sep / 2, -sep / 2), g


window_edge_property = settings(derandomize=True, max_examples=9, deadline=None)


class TestHyp2F1:
    def test_at_zero(self):
        assert hyp2f1(0.3 + 0.7j, -1.2, 0.9, 0.0) == 1.0

    def test_log_identity(self):
        # 2F1(1,1;2;w) = -log(1-w)/w
        w = 0.3
        assert hyp2f1(1, 1, 2, w) == pytest.approx(-math.log(1 - w) / w, rel=1e-13)
        assert hyp2f1(1, 1, 2, w) == pytest.approx(1.1889164797957745964, rel=1e-13)

    def test_frozen_reference(self):
        got = hyp2f1(0.3 + 0.7j, -1.2 + 0.1j, 0.9 - 0.4j, 0.35 + 0.2j)
        assert got == pytest.approx(
            complex(1.1501964628133196783, -0.33445512907530302507), rel=1e-13)

    def test_terminating_polynomial_case(self):
        # a = -2 terminates: 2F1(-2, b; c; w) = 1 - 2bw/c + b(b+1)w^2/(c(c+1))
        b, c, w = 1.3, 0.8, 0.6
        expected = 1 - 2 * b * w / c + b * (b + 1) * w * w / (c * (c + 1))
        assert hyp2f1(-2, b, c, w) == pytest.approx(expected, rel=1e-14)

    def test_disk_boundary_rejected(self):
        with pytest.raises(HypergeometricError):
            hyp2f1(0.5, 0.5, 1.5, 0.96)

    def test_lower_parameter_pole(self):
        with pytest.raises(HypergeometricError):
            hyp2f1(0.5, 0.5, -1.0, 0.3)

    def test_cancellation_is_refused(self):
        # at lambda = +-30i the series cancels about ten digits: refused (exit
        # 3), where it used to FAIL the 1e-6 spread; +-20i still passes
        assert main(["compare-oracle", "--lambda", "0:30,0:-30"]) == 3
        assert main(["compare-oracle", "--lambda", "0:20,0:-20"]) == 0

    def test_kept_values_match_mpmath(self):
        # the oracle's series at d = (l1 - l2)/2, |Im d| <= 32, separations 0.2..1:
        # every value not refused is within oracle.spread (1e-6) of mpmath
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(9)
        kept, refused = 0, 0
        for _ in range(200):
            d = 1j * rng.uniform(-32.0, 32.0)
            g = float(rng.choice([0.5, 1.25, 1.5, 2.0, 3.0]))
            a, b, c = 0.5 - d, 0.5 + d, 0.5 + g
            w = (1.0 - math.cosh(rng.uniform(0.2, 1.0))) / 2.0
            try:
                value = hyp2f1(a, b, c, w)
            except HypergeometricError:
                refused += 1
                continue
            kept += 1
            with mpmath.workdps(40):
                want = complex(mpmath.hyp2f1(a, b, c, w))
            assert abs(value - want) <= 1e-6 * abs(want)
        assert kept > 100 and refused > 0


class TestLegendreP:
    def test_constant(self):
        assert legendre_P(LegendreArgs(mu=0.0, nu=0.0, z=1.7)) == pytest.approx(1.0, rel=1e-14)

    def test_linear(self):
        z = 1.9
        assert legendre_P(LegendreArgs(mu=0.0, nu=1.0, z=z)) == pytest.approx(z, rel=1e-13)

    def test_quadratic_polynomial(self):
        z = 1.4
        assert legendre_P(LegendreArgs(mu=0.0, nu=2.0, z=z)) == pytest.approx(
            (3 * z * z - 1) / 2, rel=1e-12)

    def test_frozen_reference(self):
        # mu = -1/2 (g = 1), nu = -1/2 + 0.35i, z = cosh(0.6)
        got = legendre_P(LegendreArgs(mu=-0.5, nu=complex(-0.5, 0.35), z=math.cosh(0.6)))
        assert got == pytest.approx(complex(0.59558389883795873551, 0.0), rel=1e-12, abs=1e-12)

    def test_degree_reflection_symmetry(self):
        # P^mu_nu = P^mu_{-nu-1}
        args_a = LegendreArgs(mu=-1.0, nu=complex(0.2, 0.9), z=1.5)
        args_b = LegendreArgs(mu=-1.0, nu=-args_a.nu - 1.0, z=1.5)
        assert legendre_P(args_a) == pytest.approx(legendre_P(args_b), rel=1e-13)

    def test_domain_validation(self):
        with pytest.raises(ValueError):
            LegendreArgs(mu=0.0, nu=0.0, z=0.9)
        with pytest.raises(ValueError):
            LegendreArgs(mu=0.0, nu=0.0, z=4.0)  # series argument out of reach


class TestClosedForm:
    def test_orientation_required(self):
        with pytest.raises(ValueError):
            closed_form_phi2(0.7j, -0.3j, -0.2, 0.4, 1.5)

    def test_lambda_swap_symmetry(self):
        a = closed_form_phi2(0.7j, -0.3j, 0.4, -0.2, 1.5)
        b = closed_form_phi2(-0.3j, 0.7j, 0.4, -0.2, 1.5)
        assert a == pytest.approx(b, rel=1e-12)

    def test_coincident_spectral_smoke(self):
        value = closed_form_phi2(0.4j, 0.4j, 0.3, -0.3, 1.5)
        assert np.isfinite(value.real) and np.isfinite(value.imag)

    def test_ratio_to_contour_integral_is_x_independent(self):
        g = 1.5
        l1, l2 = 0.7j, -0.3j
        ratios = []
        for x1, x2 in [(0.4, -0.2), (0.55, 0.1), (0.3, -0.5), (0.15, -0.15)]:
            mb = eval_phi((l1, l2), (x1, x2), g)
            cf = closed_form_phi2(l1, l2, x1, x2, g)
            ratios.append(mb / cf)
        arr = np.asarray(ratios)
        assert np.max(np.abs(arr - arr.mean())) / abs(arr.mean()) <= 1e-8


class TestWindowEdge:
    """Refuse, never garbage: up to the convergence window |x1 - x2| <= 1 the
    contour integral is as good as in the middle of it, and past it the
    evaluation is refused."""

    @window_edge_property
    @given(window_edge_points(st.floats(0.9, 1.0)))
    def test_ratio_holds_up_to_the_edge(self, point):
        (l1, l2), (x1, x2), g = point
        edge = eval_phi((l1, l2), (x1, x2), g) / closed_form_phi2(l1, l2, x1, x2, g)
        inner = eval_phi((l1, l2), (0.25, -0.25), g) / closed_form_phi2(l1, l2, 0.25, -0.25, g)
        assert abs(edge / inner - 1) <= 1e-12

    @window_edge_property
    @given(window_edge_points(st.floats(1.0, 1.5, exclude_min=True)))
    def test_past_the_edge_is_refused(self, point):
        lam, (x1, x2), g = point
        with pytest.raises(ConvergenceWindowError):
            eval_phi(lam, (x1, x2), g)
        assert main(["check-dual", "--x", f"{x1!r},{x2!r}", "--g", repr(g)]) == 3


class TestRecurrence:
    def test_polynomial_case(self):
        # g = 1/2 is order zero; odd integer lam gives Legendre polynomials
        for lam in (3.0, 5.0, 7.0):
            assert recurrence_check(lam, 0.8, 0.5) <= 1e-12

    def test_reference_point(self):
        assert recurrence_check(0.8j, 0.5, 1.5) <= 1e-10

    def test_stability_over_degree(self):
        rng = np.random.default_rng(12)
        for _ in range(20):
            lam = complex(rng.uniform(-0.4, 0.4), rng.uniform(-5, 5))
            if abs(lam) < 0.2:
                continue
            x = float(rng.uniform(0.1, 1.5))
            g = float(rng.choice([0.5, 1.5, 2.0]))
            assert recurrence_check(lam, x, g) <= 1e-10

    def test_zero_lambda_rejected(self):
        with pytest.raises(ValueError):
            recurrence_check(0.0, 0.5, 1.5)


class TestDualSystem:
    @pytest.mark.parametrize("g", [1.25, 1.5, 2.0])
    def test_both_operators(self, g):
        r1, r2 = dual_system_residuals(0.7j, -0.3j, 0.4, -0.2, g)
        assert r1 <= 1e-9
        assert r2 <= 1e-9

    def test_generic_complex_spectral_points(self):
        r1, r2 = dual_system_residuals(0.2 + 0.9j, -0.1 - 0.4j, 0.5, -0.1, 1.75)
        assert r1 <= 1e-9 and r2 <= 1e-9
