"""Differential Hamiltonians on the wave function: eigen-residuals and the
closed-form prefactor derivatives."""

import cmath
import math

import numpy as np
import pytest

from bispectral import wavefn
from bispectral.cli import RunConfig
from bispectral.sutherland_ops import (apply_H1, apply_H2, apply_reduced_HS,
                                       prefactor_log_derivatives)
from bispectral.wavefn import eval_phi, eval_psi, sinh_prefactor

LAM2 = (0.7j, -0.3j)
X2 = (0.4, -0.2)
G = 1.5


class TestH1:
    def test_n1_exact(self):
        res = apply_H1([0.8j], [0.3], 1.1)
        assert res.relative_residual <= 1e-15

    def test_n2_reference_point(self):
        res = apply_H1(LAM2, X2, G)
        assert res.relative_residual <= 1e-7

    def test_translation_invariance_of_residual(self):
        base = apply_H1(LAM2, X2, G).relative_residual
        moved = apply_H1(LAM2, tuple(v + 0.15 for v in X2), G).relative_residual
        assert abs(base - moved) <= 1e-9

    def test_lambda_permutation_invariance(self):
        a = apply_H1(LAM2, X2, G).relative_residual
        b = apply_H1((LAM2[1], LAM2[0]), X2, G).relative_residual
        assert abs(a - b) <= 1e-12


class TestH2:
    def test_n1_exact(self):
        res = apply_H2([0.8j], [0.3], 1.1)
        assert res.relative_residual <= 1e-15

    def test_n2_reference_point(self):
        res = apply_H2(LAM2, X2, G)
        assert res.relative_residual <= 1e-5

    def test_residual_decreases_with_refinement(self, monkeypatch):
        with monkeypatch.context() as patch:
            patch.setattr(wavefn, "_TAIL_TOL", 1e-7)
            patch.setattr(wavefn, "_STEP", 0.22)
            loose = apply_H2(LAM2, X2, G)
        tight = apply_H2(LAM2, X2, G)
        assert tight.relative_residual <= loose.relative_residual + 1e-13

    @pytest.mark.parametrize("g", [0.3, 0.8])
    def test_small_coupling(self, g):
        # the differential side holds for any g > 0, below the dual threshold;
        # at small g the pole gap shrinks, so the discretisation floor rises
        assert apply_H2(LAM2, X2, g).relative_residual <= 1e-6

    def test_large_imaginary_spectral_parameters(self):
        # adaptive truncation must follow the lambda cluster outward
        assert apply_H2((3.5j, -2.2j), X2, G).relative_residual <= 1e-10

    def test_matches_reduced_form_on_phi(self):
        # -H2 psi / psi must equal HS2 phi / phi: the conjugation by the
        # prefactor has no leftover constant (validates the HS2 eigenvalue)
        psi = eval_psi(LAM2, X2, G)
        phi = eval_phi(LAM2, X2, G)
        h2 = apply_H2(LAM2, X2, G)
        hs2 = apply_reduced_HS(LAM2, X2, G, order=2)
        assert -h2.value / psi == pytest.approx(hs2.value / phi, rel=1e-12)


class TestReducedHS:
    def test_hs1_n2(self):
        res = apply_reduced_HS(LAM2, X2, G, order=1)
        assert res.relative_residual <= 1e-7
        assert res.expected == pytest.approx(sum(LAM2) * eval_phi(LAM2, X2, G), rel=1e-12)

    def test_hs2_n1_eigenvalue(self):
        # constant term vanishes at n = 1: HS2 phi = lam^2 phi
        lam, x = 0.9j, 0.4
        res = apply_reduced_HS([lam], [x], G, order=2)
        assert res.relative_residual <= 1e-14
        assert res.expected == pytest.approx(lam ** 2 * cmath.exp(lam * x), rel=1e-14)

    def test_hs2_eigenfunction_property_over_grid(self):
        # HS2 phi / phi constant over an x grid
        ratios = []
        for x1 in (0.25, 0.4, 0.55):
            for x2 in (-0.3, -0.1):
                res = apply_reduced_HS(LAM2, (x1, x2), G, order=2)
                phi = eval_phi(LAM2, (x1, x2), G)
                ratios.append(res.value / phi)
        ratios = np.asarray(ratios)
        spread = np.max(np.abs(ratios - ratios.mean())) / abs(ratios.mean())
        assert spread <= 1e-5

    def test_hs2_eigenvalue_is_sum_of_squares(self):
        # validated against apply_H2 (see test_matches_reduced_form_on_phi):
        # the HS2 eigenvalue on phi is sum(lam^2), with no 2 g^2 offset
        res = apply_reduced_HS(LAM2, X2, G, order=2)
        assert res.relative_residual <= 1e-5
        eig = res.value / eval_phi(LAM2, X2, G)
        assert eig == pytest.approx(sum(v * v for v in LAM2), rel=1e-9)
        assert abs(eig - (sum(v * v for v in LAM2) + 2 * G * G)) > 1.0

    def test_order_validation(self):
        with pytest.raises(ValueError):
            apply_reduced_HS(LAM2, X2, G, order=3)


class TestPrefactorDerivatives:
    def test_closed_form_matches_finite_differences(self):
        rng = np.random.default_rng(8)
        for _ in range(5):
            x = np.sort(rng.uniform(-0.5, 0.5, size=3))[::-1]
            x = tuple(float(v) for v in x)
            if min(abs(x[i] - x[j]) for i in range(3) for j in range(i + 1, 3)) < 0.1:
                continue
            g = float(rng.uniform(0.7, 2.5))
            h = 1e-5
            for i in range(3):
                first, second = prefactor_log_derivatives(x, g, i)
                up = list(x); up[i] += h
                dn = list(x); dn[i] -= h
                fd1 = (math.log(sinh_prefactor(up, g)) - math.log(sinh_prefactor(dn, g))) / (2 * h)
                fd2 = (math.log(sinh_prefactor(up, g)) - 2 * math.log(sinh_prefactor(x, g))
                       + math.log(sinh_prefactor(dn, g))) / (h * h)
                assert abs(fd1 - first) <= 1e-9 * max(1.0, abs(first))
                assert abs(fd2 - second) <= 1e-4 * max(1.0, abs(second))

    def test_total_gradient_annihilates_prefactor(self):
        x = (0.45, 0.05, -0.35)
        total = sum(prefactor_log_derivatives(x, 1.3, i)[0] for i in range(3))
        assert total == pytest.approx(0.0, abs=1e-12)


OPERATORS = {"h1": apply_H1, "h2": apply_H2,
             "hs1": lambda lam, x, g: apply_reduced_HS(lam, x, g, order=1),
             "hs2": lambda lam, x, g: apply_reduced_HS(lam, x, g, order=2)}


class TestRoundOffFloor:
    @pytest.mark.parametrize("g", [1.5, 20.0])
    @pytest.mark.parametrize("sep", [1e-1, 1e-3, 1e-5, 1e-7])
    @pytest.mark.parametrize("lam, far", [(LAM2, ()), ((0.9j, 0.1j, -0.6j), (-0.4,))],
                             ids=["n2", "n3"])
    def test_floor_bounds_the_residual(self, lam, far, sep, g):
        # half of the 32 points that set _SUM_FLOOR = 16 eps: there residual / (eps
        # sum|term| / |expected|) read at most 13 (n = 3 HS2) and 3.7 (the others)
        x = (0.3 + sep / 2, 0.3 - sep / 2) + far
        for name, op in OPERATORS.items():
            res = op(lam, x, g)
            assert res.relative_residual <= res.floor, name

    def test_floor_follows_the_cancellation(self):
        # 1e-6 apart H2's terms cancel by 1.5e13, HS2's by 2e6: H2's floor passes a tenth
        # of its 1e-5 gate, HS2's (residual 1.1e-9) stays below it
        x = (0.3000005, 0.2999995)
        assert apply_H2(LAM2, x, G).floor > 1e-6
        assert apply_reduced_HS(LAM2, x, G, order=2).floor < 1e-7

    def test_well_separated_floors_are_small(self):
        # the points of `all`: factors below 100
        for lam, x in ((LAM2, X2), ((0.9j, 0.1j, -0.6j), (0.45, 0.0, -0.4))):
            for name, op in OPERATORS.items():
                assert op(lam, x, G).floor <= 1e-12, name


class TestBenchmarkBridge:
    """The benchmark's workloads.execute calls op(lam, x, g, RunConfig().quad()): the fourth
    argument is the lattice, and None gives a fresh one."""

    def test_quad_is_none(self):
        assert RunConfig().quad() is None

    @pytest.mark.parametrize("lam, x", [(LAM2, X2), ((0.9j, 0.1j, -0.6j), (0.45, 0.0, -0.4))],
                             ids=["n2", "n3"])
    def test_execute_call_is_the_plain_call(self, lam, x):
        for op, kw in ((apply_H1, {}), (apply_H2, {}), (apply_reduced_HS, {"order": 1}),
                       (apply_reduced_HS, {"order": 2})):
            got, want = op(lam, x, G, RunConfig().quad(), **kw), op(lam, x, G, **kw)
            assert (got.relative_residual, got.floor) == (want.relative_residual, want.floor)
