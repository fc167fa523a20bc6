"""Mellin-Barnes evaluation: kernel/measure values, contours, quadrature
invariants, exact derivatives."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bispectral import wavefn
from bispectral.cgamma import GammaPoleError
from bispectral.wavefn import (_grid, _lattice_moments, _log_kernel, _log_measure,
                               _offset_kernel, CoincidentCoordinatesError, ContourSpec,
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

LAM3 = (0.9j, 0.1j, -0.6j)
X3 = (0.45, 0.0, -0.4)
# the seven derivatives of one second-order Sutherland jet
D7 = [(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (2, 0, 0), (0, 2, 0), (0, 0, 2)]


@st.composite
def n3_points(draw):
    """(lambda, x, g) jittered around (LAM3, X3) as in the n3_default
    benchmark: Im lambda +-0.1 each plus a common +-0.3, x +-0.04 each plus a
    common +-0.2, g in {1.25, 1.5, 2}."""
    shift = draw(st.floats(-0.3, 0.3))
    lam = tuple(1j * (v.imag + shift + draw(st.floats(-0.1, 0.1))) for v in LAM3)
    shift = draw(st.floats(-0.2, 0.2))
    x = tuple(v + shift + draw(st.floats(-0.04, 0.04)) for v in X3)
    return lam, x, draw(st.sampled_from((1.25, 1.5, 2.0)))


# one default n = 3 evaluation takes about 0.06 s: seven drawn points plus the
# explicit one
n3_property = settings(derandomize=True, max_examples=7, deadline=None)


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
        # the same pole on the offset lattice: level-1 line g = 1.5 left of the outer one
        with pytest.raises(GammaPoleError):
            _offset_kernel(-1.5, 0.1, 3, 1.5, {})(np.zeros(5))

    @pytest.mark.parametrize("c1, c2", [(0.0, 0.0), (1.0, 1.0), (0.3, -0.2)])
    @pytest.mark.parametrize("t_in, t_out", [(3.0, 2.0), (1.2, 2.5)])
    def test_lattice_kernel_matches_direct(self, c1, c2, t_in, t_out):
        # the n = 3 moments C_0..C_2 by lattice correlation, against the sum over
        # level-1 nodes gam = gam_p + 1j*h*j, |j| <= N//2 + M//2, of
        # h e^{gam dx} gam^m K(gam, nu_p) K(gam, nu_q), each K from _log_kernel
        validate_contour(ContourSpec(level_re=(c1, c2)), (0.9j, 0.1j, -0.6j), G)
        h, dx = 0.1, 0.45
        gam = c1 + 1j * _grid(0.13, t_in, h)[0]
        t = _grid(0.13, t_out, h)[0]
        N, M = gam.size, t.size
        assert N != M
        env, f = _offset_kernel(c1 - c2, h, M, G, {})(gam)
        direct_env = _log_kernel(gam, c2 + 1j * t, G).real.max(axis=1)
        assert np.max(np.abs(env - direct_env)) <= 1e-12
        # C_m[p, q] = e^{gam_p dx} sum_l binom(m, l) gam_p^(m-l) G_l(p - q), from
        # the 2M - 1 offsets G_l(d) = sum_j ... (-u_j)^l ... at index d + M - 1
        G_off = _lattice_moments(f, h, dx, M, 2)
        assert [g_l.size for g_l in G_off] == [2 * M - 1] * 3
        gam_p = (c1 + 1j * t)[:, None]
        offset = np.arange(M)[:, None] - np.arange(M)[None, :] + M - 1
        got = [np.exp(gam_p * dx) * sum(math.comb(m, l) * gam_p ** (m - l) * (-1) ** l
                                        * G_off[l][offset] for l in range(m + 1))
               for m in range(3)]

        # every level-1 node any p reaches: k in [-(N//2 + 2(M//2)), N//2 + 2(M//2)]
        reach = N // 2 + 2 * (M // 2)
        k = np.arange(-reach, reach + 1)
        node = c1 + 1j * (0.13 + h * k)
        K = np.exp(_log_kernel(node, c2 + 1j * t, G))
        window = np.abs(k[:, None] - (np.arange(M) - M // 2)[None, :]) <= N // 2 + M // 2
        for m in range(3):
            want = (K * window * (h * np.exp(node * dx) * node ** m)[:, None]).T @ K
            assert np.max(np.abs(got[m] - want) / np.abs(want)) <= 1e-9

    @pytest.mark.parametrize("dc", [0.0, 0.5, -0.3, 1.0])
    @pytest.mark.parametrize("g", [0.7, 1.25, 1.5, 2.0])
    def test_offset_kernel_mirror_is_exact(self, dc, g):
        # f on j < 0 is conj f(-j), against log_gamma on every offset
        h, M = 0.1, 41
        env, f = _offset_kernel(dc, h, M, g, {})(np.zeros(61))
        d = dc + 1j * h * np.arange(-(f.size // 2), f.size // 2 + 1)
        direct = wavefn.log_gamma((d + g) / 2) + wavefn.log_gamma((g - d) / 2)
        assert np.array_equal(f, direct)
        windows = np.lib.stride_tricks.sliding_window_view(direct.real, M)[M - 1:-(M - 1)]
        assert np.array_equal(env, windows.max(axis=1))

    @pytest.mark.parametrize("g", [0.7, 1.25, 1.5, 2.0])
    def test_measure_mirror_is_exact(self, g):
        # the outer measure on offsets 0..M - 1, mirrored evenly, against all 2M - 1
        h, M = 0.1, 599
        half = _log_measure(1j * h * np.arange(M), g)
        direct = _log_measure(1j * h * np.arange(-(M - 1), M), g)
        assert np.array_equal(np.concatenate([half[:0:-1], half]), direct)

    @pytest.mark.parametrize("g", [1.25, 1.5, 2.0])
    def test_lattice_holds_the_direct_arrays(self, g):
        # what a shared lattice returns: f and H_l = mu G_l built on every offset
        lattice = {}
        eval_phi(LAM3, X3, g, lattice=lattice)
        (kernel_key, (_, f)), (key, H) = lattice.items()
        assert kernel_key == key[:5] and f.size // 2 == key[4]
        h, M = key[1], key[3]
        d = 1j * h * np.arange(-(f.size // 2), f.size // 2 + 1)
        assert np.array_equal(f, wavefn.log_gamma((d + g) / 2) + wavefn.log_gamma((g - d) / 2))
        log_mu = _log_measure(1j * h * np.arange(-(M - 1), M), g)
        G = _lattice_moments(f, h, X3[0] - X3[1], M, 0)
        assert all(np.array_equal(H_l, np.exp(log_mu + np.log(G_l))) for H_l, G_l in zip(H, G))

    def test_lattice_misses_on_other_grids(self):
        # a wider Im spread gives another outer M: the second call builds its own
        wide = (1.9j, 0.1j, -1.6j)
        lattice = {}
        shared = [eval_phi(lam, X3, G, lattice=lattice) for lam in (LAM3, wide)]
        assert shared == [eval_phi(LAM3, X3, G), eval_phi(wide, X3, G)]
        assert len({key[3] for key in lattice}) == 2 and len(lattice) == 4

    def test_n3_kernel_work_is_linear_in_the_grids(self, monkeypatch):
        # log_gamma runs on the grid offsets, not on every (level-1, outer) pair
        elems, log_gamma = [], wavefn.log_gamma

        def counting(z):
            elems.append(np.size(z))
            return log_gamma(z)

        monkeypatch.setattr(wavefn, "log_gamma", counting)
        eval_phi((0.9j, 0.1j, -0.6j), (0.45, 0.0, -0.4), 1.5)
        assert 0 < sum(elems) < 20_000

    def test_n3_pass_builds_no_outer_square(self):
        # one default 7-derivative pass at the `all` n = 3 point (M = 599 outer
        # nodes): a single M x M complex array would be 5.7 MB
        tracemalloc.start()
        try:
            eval_phi_many(LAM3, X3, G, D7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 4_000_000


def _spy_outer(monkeypatch):
    """Record the factors and values of every n = 3 outer pass that passes its tail."""
    passes, outer_values = [], wavefn._outer_values

    def spy(outer, derivs, tail_tol):
        values = outer_values(outer, derivs, tail_tol)
        if values is not None:
            passes.append((outer, values))
        return values

    monkeypatch.setattr(wavefn, "_outer_values", spy)
    return passes


def _no_middle_certificate(monkeypatch):
    """Zero the sampled middle row and column, so the tail test takes the full M x M peak."""
    full, entries = [], wavefn._outer_entries

    def patched(*args):
        O = entries(*args)
        if O.shape[0] == 3:  # rows or columns 0, M // 2, M - 1
            O[1] = 0.0
        else:
            full.append(O.shape)
        return O

    monkeypatch.setattr(wavefn, "_outer_entries", patched)
    return full


class TestOuterSum:
    @pytest.mark.parametrize("shift, quad", [
        ((0, 0, 0), None), ((2, 0, 0), None),
        ((0, 0, 0), QuadratureSpec(step=0.25, half_width=119.0))])
    @pytest.mark.parametrize("g", [1.25, 1.5, 2.0])
    def test_factored_sums_match_entrywise(self, monkeypatch, shift, quad, g):
        # the Toeplitz mat-vec sums against the sum of every M x M entry, in row
        # blocks; half_width 119 reaches offsets where mu alone overflows
        lam = tuple(v + s for v, s in zip(LAM3, shift))
        passes = _spy_outer(monkeypatch)
        eval_phi_many(lam, X3, g, D7, default_contour(3, g, shift), quad)
        (outer, values), = passes
        idx = np.arange(outer[0].size)
        for d, value in zip(D7, values):
            blocks = [wavefn._outer_entries(*outer, idx[i:i + 64, None], idx, d)
                      for i in range(0, idx.size, 64)]
            total = sum(block.sum() for block in blocks)
            scale = sum(np.abs(block).sum() for block in blocks)
            assert np.isfinite(value) and abs(value - total) <= 1e-12 * scale

    @pytest.mark.parametrize("g, quad", [
        (1.25, None), (1.5, None), (2.0, None),
        # the first grid fails its tail and grows once: M = 103, then 143
        (8.0, QuadratureSpec(step=0.25, tail_tol=1e-4))])
    def test_full_peak_fallback_agrees(self, monkeypatch, g, quad):
        want = eval_phi_many(LAM3, X3, g, D7, quad=quad)
        full = _no_middle_certificate(monkeypatch)
        assert eval_phi_many(LAM3, X3, g, D7, quad=quad) == want
        assert len(full) >= len(D7)

    def test_full_peak_fallback_still_refuses(self, monkeypatch):
        quad = QuadratureSpec(half_width=8.0)
        with pytest.raises(TailNotConvergedError):
            eval_phi_many(LAM3, X3, G, D7, quad=quad)
        full = _no_middle_certificate(monkeypatch)
        with pytest.raises(TailNotConvergedError):
            eval_phi_many(LAM3, X3, G, D7, quad=quad)
        assert full

    @pytest.mark.filterwarnings("ignore:invalid value encountered in exp:RuntimeWarning")
    def test_nan_measure_is_refused(self, monkeypatch):
        # a NaN peak compares False with any bound: the tail test must refuse
        # it rather than return the NaN as the value
        log_measure = wavefn._log_measure

        def planted(d, g):
            out = log_measure(d, g)
            out[-1] = np.nan  # the widest offset; out[0] is offset 0, where mu = 0
            return out

        monkeypatch.setattr(wavefn, "_log_measure", planted)
        with pytest.raises(TailNotConvergedError):
            eval_phi(LAM3, X3, G)


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

    @n3_property
    @given(n3_points(), st.permutations(range(3)))
    @example((LAM3, X3, G), (2, 0, 1))
    def test_lambda_permutation_n3(self, point, order):
        lam, x, g = point
        a = eval_phi(lam, x, g)
        b = eval_phi(tuple(lam[i] for i in order), x, g)
        assert a == pytest.approx(b, rel=1e-12)

    @n2_property
    @given(n2_points(), st.floats(-0.5, 0.5))
    @example((LAM2, X2, G), 0.21)
    def test_translation_covariance_n2(self, point, c):
        lam, x, g = point
        base = eval_phi(lam, x, g)
        moved = eval_phi(lam, tuple(v + c for v in x), g)
        assert moved == pytest.approx(cmath.exp(c * sum(lam)) * base, rel=1e-10)

    @n3_property
    @given(n3_points(), st.floats(-0.5, 0.5))
    @example((LAM3, X3, G), -0.13)
    def test_translation_covariance_n3(self, point, c):
        lam, x, g = point
        base = eval_phi(lam, x, g)
        moved = eval_phi(lam, tuple(v + c for v in x), g)
        assert moved == pytest.approx(cmath.exp(c * sum(lam)) * base, rel=1e-10)

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
