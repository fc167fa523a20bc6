"""Mellin-Barnes evaluation: kernel/measure values, contours, quadrature
invariants, exact derivatives."""

import cmath
import math
import re
import tracemalloc
from collections import Counter
from itertools import combinations

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from bispectral import sutherland_ops, wavefn
from bispectral.cli import RunConfig, run
from bispectral.cgamma import GammaPoleError
from bispectral.dual_ops import gauge_function, measure_weight
from bispectral.macdonald import TorusPoint
from bispectral.sutherland_ops import apply_reduced_HS
from bispectral.wavefn import (_grid, _grid_kernel, _lattice_moments, _log_kernel,
                               _log_measure, _offset_kernel,
                               CoincidentCoordinatesError,
                               ConvergenceWindowError, InfeasibleContourError,
                               PositionPoint, SpectralPoint,
                               TailNotConvergedError, eval_phi, eval_phi_many, eval_psi, kernel_K,
                               measure_mu, sinh_prefactor, validate_contour)

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


def _count_log_gamma(monkeypatch):
    """Record the argument count of every log_gamma call wavefn makes."""
    elems, log_gamma = [], wavefn.log_gamma

    def counting(z):
        elems.append(np.size(z))
        return log_gamma(z)

    monkeypatch.setattr(wavefn, "log_gamma", counting)
    return elems


def _kinds(lattice):
    """How many lattice entries of each kind (the first item of the key) there are."""
    return dict(Counter(key[0] for key in lattice))


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
        # the pole on the grid kernel's one-argument path at a = 0: (0 - 2) / 2 = -1
        with pytest.raises(GammaPoleError):
            _grid_kernel([(0.0, 0.0)], 1.0, 2, -2.0, {})
        # the same pole on the offset lattice, at offset 0
        with pytest.raises(GammaPoleError):
            _offset_kernel(0.1, 3, -2.0, {})(np.zeros(5))

    @pytest.mark.parametrize("pts, c, built", [
        (np.array([0.75j, -0.25j]), 0.0, 1),  # n = 2 unshifted: a = 0 at +-delta, one column
        # Re = 1 grid against lambda with real parts 2 and 0: a = -1 or 1
        (np.array([2 + 0.9j, 0.1j, 2 - 0.6j]), 1.0, 3),
        (np.array([1 + 0.9j, 2 + 0.1j, -0.6j]), 1.0, 3),
        (np.array([], dtype=complex), 0.0, 0),
    ], ids=["pair", "shifted", "mixed", "empty"])
    def test_kernel_pairing_is_exact(self, monkeypatch, pts, c, built):
        # the grid kernel of gam = c + 1j*(0.25 + 0.1k) against pts, column by column against
        # the two-argument form on the same d: bit for bit at a = 0, where it is lg + conj(lg)
        # of one argument per node, within 1e-13 at a = +-1; one log_gamma call for all
        m = 120
        k = np.arange(-m, m + 1)
        cols = [(c - p.real, p.imag - 0.25) for p in pts]
        elems = _count_log_gamma(monkeypatch)
        got = _grid_kernel(cols, 0.1, m, G, {})
        assert got.shape == (k.size, pts.size)
        assert elems == ([built * k.size] if built else [])
        for col, (a, delta) in zip(got.T, cols):
            want = _log_kernel(a + 1j * (0.1 * k - delta), np.zeros(1), G)[:, 0]
            assert (np.array_equal(col, want) if a == 0.0
                    else np.max(np.abs(np.expm1(col - want))) <= 1e-13)

    @pytest.mark.parametrize("g", [0.7, 1.5, 2.0])
    @pytest.mark.parametrize("d", [
        1j * 0.1 * np.arange(-40, 41),      # includes 0: a zero of the measure
        0.3 + 1j * 0.1 * np.arange(-40, 41),
        np.array([2.0, 0.5j, -1j]),          # one nonzero real part: the direct path
    ], ids=["imaginary", "shifted", "one-real"])
    def test_measure_pairing_is_exact(self, monkeypatch, d, g):
        # purely imaginary differences: log_gamma on two rows of the four
        h = d / 2
        args = np.stack([h, -h, h + g, -h + g])
        ok = ~np.any(wavefn._is_pole(args), axis=0)
        want = np.full(h.shape, -np.inf, dtype=complex)
        want[ok] = -wavefn.log_gamma(args[:, ok]).sum(axis=0)
        elems = _count_log_gamma(monkeypatch)
        got = _log_measure(d, g)
        assert np.array_equal(got, want)
        assert np.array_equal(np.isneginf(got.real), ~ok)
        assert elems == [(4 if np.any(d.real) else 2) * ok.sum()]

    # both levels on the line Re = c; the ids name the level-1 and outer lines
    @pytest.mark.parametrize("c", [0.0, 1.0], ids=["0.0-0.0", "1.0-1.0"])
    @pytest.mark.parametrize("t_in, t_out", [(3.0, 2.0), (1.2, 2.5)])
    def test_lattice_kernel_matches_direct(self, c, t_in, t_out):
        # the n = 3 moments C_0..C_2 by lattice correlation, against the sum over
        # level-1 nodes gam = nu_p + 1j*h*j, |j| <= N//2 + M//2, of
        # h e^{gam dx} gam^m K(gam, nu_p) K(gam, nu_q), each K from _log_kernel
        validate_contour(c, (0.9j, 0.1j, -0.6j), G)
        h, dx = 0.1, 0.45
        gam = c + 1j * _grid(0.13, t_in, h)[0]
        t = _grid(0.13, t_out, h)[0]
        N, M = gam.size, t.size
        assert N != M
        env, f = _offset_kernel(h, M, G, {})(gam)
        direct_env = _log_kernel(gam, c + 1j * t, G).real.max(axis=1)
        assert np.max(np.abs(env - direct_env)) <= 1e-12
        # C_m[p, q] = e^{gam_p dx} sum_l binom(m, l) gam_p^(m-l) G_l(p - q), from
        # the 2M - 1 offsets G_l(d) = sum_j ... (-u_j)^l ... at index d + M - 1
        G_off = _lattice_moments(f, h, dx, M, 2)
        assert [g_l.size for g_l in G_off] == [2 * M - 1] * 3
        gam_p = (c + 1j * t)[:, None]
        offset = np.arange(M)[:, None] - np.arange(M)[None, :] + M - 1
        got = [np.exp(gam_p * dx) * sum(math.comb(m, l) * gam_p ** (m - l) * (-1) ** l
                                        * G_off[l][offset] for l in range(m + 1))
               for m in range(3)]

        # every level-1 node any p reaches: k in [-(N//2 + 2(M//2)), N//2 + 2(M//2)]
        reach = N // 2 + 2 * (M // 2)
        k = np.arange(-reach, reach + 1)
        node = c + 1j * (0.13 + h * k)
        K = np.exp(_log_kernel(node, c + 1j * t, G))
        window = np.abs(k[:, None] - (np.arange(M) - M // 2)[None, :]) <= N // 2 + M // 2
        for m in range(3):
            want = (K * window * (h * np.exp(node * dx) * node ** m)[:, None]).T @ K
            assert np.max(np.abs(got[m] - want) / np.abs(want)) <= 1e-9

    @pytest.mark.parametrize("dc", [0.0, 0.5, -0.3, 1.0])
    @pytest.mark.parametrize("g", [0.7, 1.25, 1.5, 2.0])
    def test_offset_kernel_mirror_is_exact(self, dc, g):
        # the kernel column at real offset dc (the offset kernel's at dc = 0): f on j < 0
        # is conj f(-j), against log_gamma on both arguments at every offset
        h, M = 0.1, 41
        env, f_off = _offset_kernel(h, M, g, {})(np.zeros(61))
        mid = f_off.size // 2
        f = _grid_kernel([(dc, 0.0)], h, mid, g, {})[:, 0]
        assert dc != 0.0 or np.array_equal(f, f_off)
        d = dc + 1j * h * np.arange(-mid, mid + 1)
        direct = wavefn.log_gamma((d + g) / 2) + wavefn.log_gamma((g - d) / 2)
        if abs(dc) == 1.0:
            # the Gamma(z + 1) = z Gamma(z) form: equal mod 2 pi i, to round-off
            assert np.max(np.abs(np.expm1(f - direct))) <= 1e-13
        else:
            assert np.array_equal(f.real, direct.real)
            # at dc = 0, f(0) = lg + conj(lg) is exactly real; the direct sum keeps the
            # reflection's round-off in Im (2.2e-16 at g < 1)
            same = np.arange(f.size) != mid if dc == 0.0 else slice(None)
            assert np.array_equal(f.imag[same], direct.imag[same])
            assert dc != 0.0 or f[mid].imag == 0.0
        windows = np.lib.stride_tricks.sliding_window_view(f_off.real, M)[M - 1:-(M - 1)]
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
        # what a shared lattice returns: f, its envelope and H_l = mu G_l built on every
        # offset, each found by its tag
        lattice = {}
        eval_phi(LAM3, X3, g, lattice=lattice)
        (key, H), = ((k, v) for k, v in lattice.items() if k[0] == "moments")
        _, h, _, M, reach = key[:5]
        f = lattice[("column", 0.0, 0.0, h, g)]
        assert f.size // 2 == reach
        d = 1j * h * np.arange(-reach, reach + 1)
        assert np.array_equal(f, wavefn.log_gamma((d + g) / 2) + wavefn.log_gamma((g - d) / 2))
        env = lattice[("envelope", h, g, M, reach)]
        windows = np.lib.stride_tricks.sliding_window_view(f.real, M)[M - 1:-(M - 1)]
        assert np.array_equal(env, windows.max(axis=1))
        log_mu = _log_measure(1j * h * np.arange(-(M - 1), M), g)
        G = _lattice_moments(f, h, X3[0] - X3[1], M, 0)
        assert all(np.array_equal(H_l, np.exp(log_mu + np.log(G_l))) for H_l, G_l in zip(H, G))

    def test_lattice_misses_on_other_grids(self):
        # a wider Im spread gives another outer M: the second call builds its own envelope
        # and moments, and adds the new edge nodes to the offset column it shares
        wide = (1.9j, 0.1j, -1.6j)
        lattice = {}
        shared = [eval_phi(lam, X3, G, lattice=lattice) for lam in (LAM3, wide)]
        assert shared == [eval_phi(LAM3, X3, G), eval_phi(wide, X3, G)]
        moments = [key for key in lattice if key[0] == "moments"]
        assert len({key[3] for key in moments}) == 2 and len(moments) == 2
        assert len([key for key in lattice if key[0] == "envelope"]) == 2
        # the offset column and one column per lambda_k of each point, and each call's values
        assert _kinds(lattice) == {"column": 7, "envelope": 2, "moments": 2, "values": 2}

    @pytest.mark.parametrize("r, distinct", [(1, 9), (2, 9), (3, 6)])
    def test_dual_check_shares_outer_columns(self, monkeypatch, r, distinct):
        # r = 1, 2 ask for 12 outer columns (a_k, delta_k), 9 of them distinct, and r = 3 for
        # 6.  The column of lambda_k at a = -1 (shifted) is the one at a = 1 (not shifted)
        # read back by K(-d) = K(d), so each check holds 3 columns on the Re = 1 grid and 3
        # on the Re = 0 one, plus the offset column, and makes 3 097 log_gamma arguments.
        # Every value is the unshared one bit for bit.
        points = [tuple(v + 2.0 if i in s else v for i, v in enumerate(LAM3))
                  for s in combinations(range(3), r)]
        unshared = [eval_phi(lam, X3, G, 1.0) for lam in points] + [eval_phi(LAM3, X3, G)]
        asked, grid_kernel = set(), wavefn._grid_kernel

        def spy(cols, *args):
            if len(cols) == 3:
                asked.update(cols)
            return grid_kernel(cols, *args)
        monkeypatch.setattr(wavefn, "_grid_kernel", spy)
        elems = _count_log_gamma(monkeypatch)
        lattice = {}
        shared = [eval_phi(lam, X3, G, 1.0, lattice=lattice) for lam in points]
        shared.append(eval_phi(LAM3, X3, G, lattice=lattice))
        assert len(asked) == distinct
        assert len([key for key in lattice if key[0] == "column"]) == 7
        assert sum(elems) == 3_097
        assert shared == unshared

    def test_n3_kernel_work_is_linear_in_the_grids(self, monkeypatch):
        # log_gamma runs on the grid offsets, not on every (level-1, outer) pair: 2 206
        # arguments at the `all` n = 3 point, where the full kernel matrix takes about 330 000
        elems = _count_log_gamma(monkeypatch)
        eval_phi((0.9j, 0.1j, -0.6j), (0.45, 0.0, -0.4), 1.5)
        assert sum(elems) == 2_206

    def test_n3_pass_builds_no_outer_square(self):
        # one default 7-derivative pass at the `all` n = 3 point (M = 323 outer
        # nodes): a single M x M complex array would be 1.7 MB
        tracemalloc.start()
        try:
            eval_phi_many(LAM3, X3, G, D7)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000


class TestPairKernel:
    """The n = 2 pair kernel: one log_gamma argument per node, columns read back and shared."""

    @pytest.mark.parametrize("g", [1.01, 1.25, 1.5, 2.0, 3.0])
    @pytest.mark.parametrize("a", [0.0, 1.0, -1.0])
    @pytest.mark.parametrize("delta", [0.37, -4.05])
    def test_one_argument_column_matches_two(self, monkeypatch, g, a, delta):
        # against _log_kernel's column over |Im d| <= 60; at a = 0 that is its own pairing
        m = int((60.0 - abs(delta)) / 0.1)
        want = _log_kernel(a + 1j * (0.1 * np.arange(-m, m + 1) - delta), np.zeros(1), g)[:, 0]
        elems = _count_log_gamma(monkeypatch)
        got = _grid_kernel([(a, delta)], 0.1, m, g, {})[:, 0]
        assert elems == [2 * m + 1]
        assert np.max(np.abs(np.expm1(got - want))) <= 1e-13
        assert a != 0.0 or np.array_equal(got, want)

    @pytest.mark.parametrize("g", [1.01, 1.5, 3.0])
    @pytest.mark.parametrize("a", [1.0, -1.0])
    def test_one_argument_column_matches_mpmath(self, g, a):
        mpmath = pytest.importorskip("mpmath")
        m, delta = 600, 0.37
        col = _grid_kernel([(a, delta)], 0.1, m, g, {})[:, 0]
        with mpmath.workdps(30):
            for k in (-600, -377, -150, -4, 0, 3, 50, 222, 600):
                d = complex(a, 0.1 * k - delta)
                d = mpmath.mpc(d.real, d.imag)
                ref = mpmath.loggamma((d + g) / 2) + mpmath.loggamma((g - d) / 2)
                err = mpmath.expm1(mpmath.mpc(col[k + m].real, col[k + m].imag) - ref)
                assert abs(complex(err)) <= 3e-14

    @pytest.mark.parametrize("a", [0.0, 1.0, 0.3])
    def test_mirror_identities_are_exact(self, a):
        # K(conj d) = conj K(d) and K(-d) = K(d) on the direct two-argument columns, bit for
        # bit: column 1 at a1 = a0 is conj(column 0) reversed, at a1 = -a0 column 0 reversed
        y = 0.1 * np.arange(-300, 301)

        def column(a, delta):
            return _log_kernel(a + 1j * (y - delta), np.zeros(1), G)[:, 0]
        assert np.array_equal(column(a, -0.37), np.conj(column(a, 0.37)[::-1]))
        assert np.array_equal(column(-a, -0.37), column(a, 0.37)[::-1])

    @pytest.mark.parametrize("lam, c, per_node", [
        (LAM2, 0.0, 1),                        # a1 = a0 = 0: unshifted
        ((2 + 0.7j, 2 - 0.3j), 1.0, 1),        # a1 = a0 = -1: the r = 2 shift
        ((2 + 0.7j, -0.3j), 1.0, 1),           # a1 = -a0 = 1: an r = 1 shift
        ((0.25 + 0.7j, -0.3j), 0.125, 2),      # a1 = -a0 = 0.125: two arguments, mirrored
        ((0.2 + 0.7j, -0.3j), 0.0, 3),         # Re l1 != Re l2, a1 != -a0: both direct
    ], ids=["unshifted", "r2", "r1", "mirror-two-args", "fallback"])
    def test_pair_kernel_matches_direct(self, monkeypatch, lam, c, per_node):
        # the two columns _quantities_n2 asks for, at (c - Re l_j, +-delta)
        validate_contour(c, lam, G)
        gam = c + 1j * _grid(0.5 * (lam[0].imag + lam[1].imag), 15.0, 0.1)[0]
        want = _log_kernel(gam, np.array(lam), G)
        delta = 0.5 * (lam[0].imag - lam[1].imag)
        cols = [(c - lam[0].real, delta), (c - lam[1].real, -delta)]
        elems = _count_log_gamma(monkeypatch)
        got = _grid_kernel(cols, 0.1, gam.size // 2, G, {})
        assert elems == [per_node * gam.size]
        assert np.max(np.abs(np.expm1(got - want))) <= 1e-13

    @pytest.mark.parametrize("lam, contour", [
        (LAM2, 0.0), ((2 + 0.7j, -0.3j), 1.0), ((2 + 0.7j, 2 - 0.3j), 1.0)],
        ids=["unshifted", "r1", "r2"])
    def test_one_argument_per_node(self, monkeypatch, lam, contour):
        # one argument per node of the widest grid _level2 builds: a growth step adds only
        # its new edge nodes
        nodes, grid = [], wavefn._grid

        def spy(*args):
            t, w = grid(*args)
            nodes.append(t.size)
            return t, w
        monkeypatch.setattr(wavefn, "_grid", spy)
        elems = _count_log_gamma(monkeypatch)
        eval_phi(lam, X2, G, contour)
        assert sum(elems) == max(nodes) > 0

    def test_contours_agree_through_every_path(self):
        # Phi does not depend on the separating line: a1 = -a0 with two arguments, the
        # Re lambda_1 != Re lambda_2 fallback and a1 = a0 away from 0 and +-1
        lam = (0.2 + 0.7j, -0.3j)
        base = eval_phi(lam, X2, G, 0.1)
        for c in (0.0, 0.05, 0.3):
            assert eval_phi(lam, X2, G, c) == pytest.approx(base, rel=1e-12)
        assert eval_phi(LAM2, X2, G, 0.3) == pytest.approx(eval_phi(LAM2, X2, G), rel=1e-12)

    def test_shifted_pair_shares_one_column(self, monkeypatch):
        # r = 1's two shifted evaluations: K(-d) = K(d) and K(conj d) = conj K(d) put all
        # four of their columns on one lattice entry, so the second calls no log_gamma
        lattice = {}
        elems = _count_log_gamma(monkeypatch)
        eval_phi((2 + 0.7j, -0.3j), X2, G, 1.0, lattice=lattice)
        first = len(elems)
        eval_phi((0.7j, 2 - 0.3j), X2, G, 1.0, lattice=lattice)
        assert first > 0 and len(elems) == first
        assert _kinds(lattice) == {"column": 1, "values": 2}

    @pytest.mark.parametrize("a", [0.0, 1.0, 0.5, -1.0])
    @pytest.mark.parametrize("delta", [0.0, 0.37, -0.37])
    def test_extended_columns_are_bit_identical(self, monkeypatch, a, delta):
        # a held column asked for a wider k-range builds its new edge nodes only: narrow
        # first, then wider, then narrower again, every read is the wide-first column's
        # slice, and each node is built once (at delta = 0 its k >= 0 half)
        wide = _grid_kernel([(a, delta)], 0.1, 300, G, {})
        elems = _count_log_gamma(monkeypatch)
        lattice = {}
        for m in (40, 41, 170, 120, 300):
            got = _grid_kernel([(a, delta)], 0.1, m, G, lattice)
            assert np.array_equal(got, wide[300 - m:301 + m])
        assert len(elems) == 4
        assert sum(elems) == (2 if a == 0.5 else 1) * (301 if delta == 0.0 else 601)

    @pytest.mark.parametrize("order", [1, -1], ids=["narrow-first", "wide-first"])
    def test_shared_columns_are_bit_identical(self, order):
        # the compare-oracle grid: one lambda at several x.  A wider grid adds the new edge
        # nodes to the column and a narrower one slices it; either way each value is the
        # unshared one
        xs = [(0.1, -0.1), (0.35, -0.35), (0.5, -0.5)][::order]
        lattice = {}
        shared = [eval_phi(LAM2, x, G, lattice=lattice) for x in xs]
        assert shared == [eval_phi(LAM2, x, G) for x in xs]
        assert _kinds(lattice) == {"column": 1, "values": 3}


def _spy_outer(monkeypatch):
    """Record the factors and values of every n = 3 outer pass that passes its tail."""
    passes, outer_values = [], wavefn._outer_values

    def spy(outer, derivs):
        values = outer_values(outer, derivs)
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
    # quad: the wavefn constants a case sets (None: the defaults)
    @pytest.mark.parametrize("shift, quad", [
        ((0, 0, 0), None), ((2, 0, 0), None),
        # started at outer half-width 119 (M = 953), where mu alone overflows
        ((0, 0, 0), {"_STEP": 0.25, "_initial_half_width": lambda *args: 119.0})])
    @pytest.mark.parametrize("g", [1.25, 1.5, 2.0])
    def test_factored_sums_match_entrywise(self, monkeypatch, shift, quad, g):
        # the Toeplitz mat-vec sums against the sum of every M x M entry, in row
        # blocks
        lam = tuple(v + s for v, s in zip(LAM3, shift))
        for name, value in (quad or {}).items():
            monkeypatch.setattr(wavefn, name, value)
        passes = _spy_outer(monkeypatch)
        eval_phi_many(lam, X3, g, D7, float(any(shift)))
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
        # at a tail of 1e-4 the first grid fails it and grows once: M = 103, then 143
        (8.0, {"_STEP": 0.25, "_TAIL_TOL": 1e-4})])
    def test_full_peak_fallback_agrees(self, monkeypatch, g, quad):
        for name, value in (quad or {}).items():
            monkeypatch.setattr(wavefn, name, value)
        want = eval_phi_many(LAM3, X3, g, D7)
        full = _no_middle_certificate(monkeypatch)
        assert eval_phi_many(LAM3, X3, g, D7) == want
        assert len(full) >= len(D7)

    def test_full_peak_fallback_still_refuses(self, monkeypatch):
        # a cap of 13 stops the outer line short of its tail (it passes at 14) and
        # leaves the level-1 line its whole start, 13.0 beyond the outer one
        monkeypatch.setattr(wavefn, "_MAX_HALF_WIDTH", 13.0)
        with pytest.raises(TailNotConvergedError, match="outer .* half-width 13.0"):
            eval_phi_many(LAM3, X3, G, D7)
        full = _no_middle_certificate(monkeypatch)
        with pytest.raises(TailNotConvergedError, match="outer .* half-width 13.0"):
            eval_phi_many(LAM3, X3, G, D7)
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

    @pytest.mark.parametrize("lam, refused", [
        ((0.1 + 100.0j, -0.2 - 20.0j, 0.3 - 80.0j), False),
        ((0.1 + 123.0j, -0.2 - 40.0j, 0.3 - 100.0j), True)], ids=["spread-100", "spread-129"])
    def test_tail_is_not_read_off_underflow(self, lam, refused):
        # Phi near 1e-250: the per-node factors a_p, b_q reach e^-577 each, so a_p b_q
        # underflows to 0 at the edges while b_q H(p - q) does not.  Taken as a_p b_q
        # first, the edges read 0 and passed; at spread 129, a lambda past the capped outer
        # line, the value was then 10 % off (HS2 read 0.10), and now the tail refuses
        x = (0.3, 0.0, -0.4)
        if refused:
            with pytest.raises(TailNotConvergedError, match="outer"):
                eval_phi(lam, x, 2.2)
        else:
            assert apply_reduced_HS(lam, x, 2.2, order=2).relative_residual <= 1e-10


# the n = 3 point of `all` and the three points of the n3_default benchmark's seed-7 core
N3_CORE = [
    (1.5, LAM3, X3),
    (1.5, (0.6189870563072689j, -0.2413476398049629j, -0.8403714999737861j),
     (0.6071322975461101, 0.1643371400891377, -0.20434010507265107)),
    (2.0, (0.8678380320872037j, 0.02937938614193797j, -0.7333464484132654j),
     (0.5442511777048221, 0.06041684871761521, -0.3053458817014383)),
    (1.25, (0.7382293670965696j, 0.03836414425964177j, -0.7400723008303022j),
     (0.46521851633961503, -0.006352431620322105, -0.4234048721657246)),
]


class TestOuterStart:
    @pytest.mark.parametrize("g, lam, x", N3_CORE)
    def test_narrow_start_loses_nothing(self, monkeypatch, g, lam, x):
        # a Sutherland jet and the seven shifted points of a dual check r = 1..3: each
        # passes its outer tail on the first grid, and its values are those of a start at
        # rate 1.2, about twice as wide, to round-off.  Where the step stays 0.1 they match
        # step 0.05 to 1e-12; at g = 1.25 the shifted step is the margin rule's 0.0525,
        # whose own error against step 0.05 is about 1e-12, so the wide start at the same
        # step is the reference there
        evals = [(lam, D7, 0.0)] + [
            (tuple(v + 2.0 if i in s else v for i, v in enumerate(lam)), D7[:1], 1.0)
            for r in (1, 2, 3) for s in combinations(range(3), r)]
        calls, outer_values = [], wavefn._outer_values
        monkeypatch.setattr(wavefn, "_outer_values",
                            lambda *args: calls.append(1) or outer_values(*args))
        values = [np.array(eval_phi_many(p, x, g, d, c)) for p, d, c in evals]
        assert len(calls) == len(evals)
        monkeypatch.setattr(wavefn, "_outer_reach", lambda g, m: wavefn._exp_reach(1.2))
        wide = [np.array(eval_phi_many(p, x, g, d, c)) for p, d, c in evals]
        monkeypatch.setattr(wavefn, "_STEP", 0.05)
        for (p, d, c), got, want in zip(evals, values, wide):
            assert np.all(np.abs(got - want) <= 1e-13 * np.abs(want))
            if c == 0.0 or g - 1.0 >= 0.48:
                ref = np.array(eval_phi_many(p, x, g, d, c))
                assert np.all(np.abs(got - ref) <= 1e-12 * np.abs(ref))

    @pytest.mark.parametrize("g, lam, x", [
        (1.1, (3.1j, -0.4j, -2.2j), (0.5, -0.1, -0.45)),
        (3.0, (0.2j, 4.5j, -1.3j), (0.3, 0.05, -0.6)),
        (8.0, (1.2j, -0.9j, 0.1j), (0.45, 0.4, -0.5)),
        (8.0, (-6.5j, 2.0j, 7.5j), (0.1, -0.2, -0.35))])
    def test_start_grows_with_g(self, monkeypatch, g, lam, x):
        # the Stirling power p = 2g - 2 + m moves the start out with g (13.5 to 15 past
        # the spread at g = 1.1, 24.5 to 26.5 at g = 8): a jet and a shifted point each
        # pass their outer tail on the first grid
        calls, outer_values = [], wavefn._outer_values
        monkeypatch.setattr(wavefn, "_outer_values",
                            lambda *args: calls.append(1) or outer_values(*args))
        eval_phi_many(lam, x, g, D7)
        eval_phi((lam[0] + 2.0,) + lam[1:], x, g, 1.0)
        assert len(calls) == 2


class TestNodeBudget:
    def test_budget_is_the_widest_default_line(self):
        assert wavefn._MAX_NODES == wavefn._grid(0.0, wavefn._MAX_HALF_WIDTH, 0.1)[0].size
        assert wavefn._level_cap(0.1) == wavefn._MAX_HALF_WIDTH

    @pytest.mark.parametrize("margin", [1e-2, 1e-4, 1e-6])
    @pytest.mark.parametrize("lam, x", [(LAM2, X2), (LAM3, X3)], ids=["n2", "n3"])
    def test_small_margin_is_refused_before_any_work(self, monkeypatch, lam, x, margin):
        elems = _count_log_gamma(monkeypatch)
        monkeypatch.setattr(wavefn, "_grid", lambda *args: pytest.fail("a grid was built"))
        shifted = (lam[0] + 2.0,) + lam[1:]
        with pytest.raises(wavefn.GridBudgetError, match="above the budget of 2401"):
            eval_phi(shifted, x, 1.0 + margin, 1.0)
        assert not elems

    @pytest.mark.parametrize("lam, x", [(LAM2, X2), (LAM3, X3)], ids=["n2", "n3"])
    def test_fine_step_refuses_the_point(self, monkeypatch, lam, x):
        # step 0.01 caps a level at half-width 12, short of these starts: GridBudgetError,
        # as for a small margin, before any work
        elems = _count_log_gamma(monkeypatch)
        monkeypatch.setattr(wavefn, "_STEP", 0.01)
        with pytest.raises(wavefn.GridBudgetError, match="above the budget of 2401"):
            eval_phi(lam, x, G)
        assert not elems

    @pytest.mark.parametrize("lam, x, cap", [(LAM2, X2, 10.0), (LAM3, X3, 13.0)],
                             ids=["n2", "n3"])
    def test_growth_stops_at_the_budget(self, monkeypatch, lam, x, cap):
        # lines started at half-width 3 fall short of their tails; a budget of 201 nodes
        # (half-width 10 at step 0.1) stops the level-1 line's growth there, for n = 3 10
        # past the outer line
        monkeypatch.setattr(wavefn, "_initial_half_width", lambda *args: 3.0)
        monkeypatch.setattr(wavefn, "_MAX_NODES", 201)
        sizes, grid = [], wavefn._grid
        monkeypatch.setattr(wavefn, "_grid",
                            lambda c, T, h: sizes.append(grid(c, T, h)[0].size) or grid(c, T, h))
        with pytest.raises(TailNotConvergedError, match=f"level-1 .* half-width {cap}"):
            eval_phi(lam, x, G)
        assert len(sizes) > 1 and sizes[-1] == 2 * round(cap / 0.1) + 1


class TestContours:
    def test_unshifted_at_zero_any_g(self):
        # the line Re = 0 has margin g at Re lambda = 0, whatever g
        assert validate_contour(0.0, LAM3, 0.8) == 0.8
        assert eval_phi(LAM3, X3, 0.8) == eval_phi(LAM3, X3, 0.8, 0.0)

    def test_shifted_moves_to_one(self):
        # 1 sits inside both windows: (-g+2, g) = (0.5, 1.5) and (-g, g)
        assert validate_contour(1.0, (0.7j + 2.0, -0.3j), 1.5) == 0.5

    def test_shift_infeasible_at_g_one(self):
        with pytest.raises(InfeasibleContourError, match=r"Re = 1.0 .* \(margin 0\)"):
            validate_contour(1.0, (0.7j + 2.0, -0.3j), 1.0)

    @pytest.mark.parametrize("g", [0.5, 1.0])
    def test_n1_has_no_level_to_refuse(self, g):
        assert validate_contour(1.0, (2.0 + 0.5j,), g) == g
        assert eval_phi((2.0 + 0.5j,), (0.4,), g, 1.0) == cmath.exp((2.0 + 0.5j) * 0.4)

    def test_coupling_must_be_positive(self):
        # refused as a bad input (ValueError), before any line is tried, at every n
        for lam, x in (((0.5j,), (0.4,)), (LAM2, X2), (LAM3, X3)):
            with pytest.raises(ValueError, match="coupling"):
                eval_phi(lam, x, -1.0)
            with pytest.raises(ValueError, match="coupling") as refused:
                validate_contour(1.0, lam, 0.0)
            assert not isinstance(refused.value, InfeasibleContourError)

    @pytest.mark.parametrize("contour, lam, g", [
        # the line Re = 0 cannot separate lattices once lambda is shifted by +2 at g=1.5
        (0.0, (2.0 + 0.7j, -0.3j), 1.5),
        # a NaN margin is not a positive one, with or without levels
        (math.nan, (2.0 + 0.7j, -0.3j), 1.5), (1.0, (2.0 + 0.7j, -0.3j), math.nan),
        (0.0, (0.5j,), math.nan)],
        ids=["contour0-lam0-1.5", "contour1-lam1-1.5", "contour2-lam2-nan", "contour3-lam3-nan"])
    def test_validate_rejects_pole_crossing(self, contour, lam, g):
        with pytest.raises(InfeasibleContourError):
            validate_contour(contour, lam, g)

    @pytest.mark.parametrize("c", [-0.3, 0.4])
    @pytest.mark.parametrize("lam, x", [(LAM2, X2), (LAM3, X3)], ids=["n2", "n3"])
    def test_off_integer_lines_agree(self, lam, x, c):
        # Phi does not depend on the separating line: off 0 and 1 every kernel column takes
        # _kernel_terms' two-argument form
        want = eval_phi(lam, x, G)
        assert abs(eval_phi(lam, x, G, c) - want) <= 1e-12 * abs(want)


class TestPoints:
    def test_coincident_positions_raise(self):
        with pytest.raises(CoincidentCoordinatesError):
            PositionPoint((0.4, 0.4))

    def test_window_enforced(self):
        with pytest.raises(ConvergenceWindowError):
            PositionPoint((1.4, -1.4))
        # the window is closed: a separation of exactly 1.0 is admitted
        assert len(PositionPoint((0.5, -0.5))) == 2

    def test_spectral_distinct(self):
        with pytest.raises(ValueError):
            SpectralPoint((0.5j, 0.5j))

    # one rule for every shape of point: each kind of point, and a stack of them through
    # the dual weights, refuses a value that is not finite or two that coincide
    MAKERS = {"spectral": SpectralPoint, "position": PositionPoint, "torus": TorusPoint,
              "gauge-stack": lambda v: gauge_function([(0.3j, -0.2j), v], G),
              "measure-stack": lambda v: measure_weight([(0.3j, -0.2j), v], G, "mu_g")}

    @pytest.mark.parametrize("values, phrase", [
        ((math.nan, 0.5), "finite"), ((math.inf, 0.5), "finite"), ((0.5, -math.inf), "finite"),
        ((0.5, 0.5), "coincide")], ids=["nan", "inf", "-inf", "coincide"])
    @pytest.mark.parametrize("make", MAKERS)
    def test_one_rule(self, make, values, phrase):
        with pytest.raises(ValueError, match=phrase) as info:
            self.MAKERS[make](values)
        coincident = make == "position" and phrase == "coincide"
        assert info.type is (CoincidentCoordinatesError if coincident else ValueError)

    def test_window_phrase(self):
        # only a position has a window, closed at 1.0: every kind takes that separation
        with pytest.raises(ConvergenceWindowError, match="convergence window"):
            PositionPoint((0.5, -0.5000001))
        for make in ("spectral", "position", "torus"):
            assert self.MAKERS[make]((0.5, -0.5)) == (0.5, -0.5)

    @pytest.mark.parametrize("shape", [(4, 0), (2, 1)])
    def test_stacks_of_short_points(self, shape):
        # points of no pair: every weight is an empty sum
        stack = np.full(shape, 0.5j)
        for got in [gauge_function(stack, G)] + [measure_weight(stack, G, kind)
                                                 for kind in ("mu_g", "mu_1mg", "sklyanin")]:
            assert got.shape == shape[:1] and np.all(got == 0)

    def test_a_point_is_its_tuple(self):
        p = SpectralPoint((0.5j,))
        assert SpectralPoint(p) is p and isinstance(p, tuple)
        assert p == (0.5j,) and hash(p) == hash((0.5j,))
        x = PositionPoint((0.4,))
        assert PositionPoint(x) is x and TorusPoint(p) == p and not isinstance(p, PositionPoint)

    @pytest.mark.parametrize("lam, x", [(LAM2, X2), (LAM3, X3)], ids=["n2", "n3"])
    def test_memo_key_ignores_the_form(self, monkeypatch, lam, x):
        # a point and its plain tuple share the ("values", ...) entry of one lattice
        lattice, derivs = {}, [(0,) * len(lam)]
        passes = _count_passes(monkeypatch)
        first = eval_phi_many(SpectralPoint(lam), PositionPoint(x), G, derivs, lattice=lattice)
        again = eval_phi_many(lam, x, G, derivs, lattice=lattice)
        assert passes == [len(lam)] and _bits(again) == _bits(first)

    @pytest.mark.parametrize("lam, x", [
        ((math.nan,), (0.4,)), ((0.5j,), (math.inf,)),
        ((complex(0.0, math.nan), -0.3j), (0.4, -0.2)),
        ((complex(math.inf, 0.0),), (0.4,)), ((0.7j, -0.3j), (0.4, -math.inf))])
    def test_non_finite_refused(self, lam, x):
        with pytest.raises(ValueError, match="finite"):
            eval_phi(lam, x, G)


class TestTruncationCap:
    @pytest.mark.parametrize("lam, x", [(LAM2, X2), (LAM3, X3)], ids=["n2", "n3"])
    def test_start_within_cap(self, monkeypatch, lam, x):
        # a tail tolerance no grid can reach starts every line at its cap and
        # refuses there, before exp or log of an out-of-range number can warn
        monkeypatch.setattr(wavefn, "_TAIL_TOL", 1e-300)
        widths, grid = [], wavefn._grid
        monkeypatch.setattr(wavefn, "_grid",
                            lambda c, T, step: widths.append(T) or grid(c, T, step))
        # the n = 3 level-1 line reaches the cap past the outer half-width
        cap = wavefn._MAX_HALF_WIDTH * (len(lam) - 1)
        with pytest.raises(TailNotConvergedError, match=f"half-width {cap:.1f}"):
            eval_phi(lam, x, G)
        assert widths[0] == wavefn._MAX_HALF_WIDTH and max(widths) == cap


class TestEvalPhi:
    @pytest.mark.parametrize("lam, x, g, low, high", [
        ((0.5j,), (0.4,), G, 1.0, 1.0), (LAM3, X3, G, 1.0, 1.0), (LAM2, X2, G, 1.0, 10.0),
        # Im(lambda_1 - lambda_2) = 81: the nodes cancel by 5e7 ... 2e8
        ((0j, 81j), (0.0, 1.0), 10.0, 1e7, 1e9)], ids=["n1", "n3", "n2", "n2-wide"])
    def test_sizes_count_the_terms(self, lam, x, g, low, high):
        # a sizes list gets sum|term| per value: the nodes at n = 2, |value| at n = 1 and 3,
        # and moves no value
        n = len(lam)
        derivs = [(0,) * n] + [tuple(o if j == 0 else 0 for j in range(n)) for o in (1, 2)]
        sizes = []
        values = eval_phi_many(lam, x, g, derivs, sizes=sizes)
        assert values == eval_phi_many(lam, x, g, derivs) and len(sizes) == len(derivs)
        for value, size in zip(values, sizes):
            assert low * (1 - 1e-12) <= size / abs(value) <= high

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

    def test_quadrature_convergence(self, monkeypatch):
        # half the step on twice the width moves the value by round-off only
        monkeypatch.setattr(wavefn, "_initial_half_width", lambda *args: 30.0)
        coarse = eval_phi(LAM2, X2, G)
        monkeypatch.setattr(wavefn, "_initial_half_width", lambda *args: 60.0)
        monkeypatch.setattr(wavefn, "_STEP", 0.05)
        fine = eval_phi(LAM2, X2, G)
        assert abs(fine - coarse) / abs(fine) <= 10 * 1e-13

    def test_tail_not_converged(self, monkeypatch):
        monkeypatch.setattr(wavefn, "_MAX_HALF_WIDTH", 3.0)
        with pytest.raises(TailNotConvergedError, match="half-width 3.0"):
            eval_phi(LAM2, X2, G)

    def test_n4_rejected(self):
        with pytest.raises(ValueError):
            eval_phi((1j, 2j, 3j, 4j), (0.3, 0.2, 0.1, 0.0), G)

    def test_no_levels_rejected(self):
        with pytest.raises(ValueError, match="supports n = 1, 2, 3, got n = 0"):
            eval_phi_many((), (), G, [()])

    @pytest.mark.parametrize("lam, x", [((0.5j,), (0.4,)), (LAM2, X2), (LAM3, X3)],
                             ids=["n1", "n2", "n3"])
    def test_empty_derivs_rejected_at_every_n(self, lam, x):
        with pytest.raises(ValueError, match="derivs is empty"):
            eval_phi_many(lam, x, G, [])


def _count_passes(monkeypatch):
    """Record the n of every quadrature pass, one per _quantities_n1 / _n2 / _n3 call."""
    passes = []
    for n in (1, 2, 3):
        quantities = getattr(wavefn, f"_quantities_n{n}")

        def counting(*args, n=n, quantities=quantities):
            passes.append(n)
            return quantities(*args)
        monkeypatch.setattr(wavefn, f"_quantities_n{n}", counting)
    return passes


def _bits(values) -> bytes:
    return np.asarray(values, dtype=complex).tobytes()


class TestValueMemo:
    """A lattice keeps each call's values and sizes under the call's full key."""

    CALL = dict(lam=LAM2, x=X2, g=G, derivs=[(0, 0), (1, 0), (0, 2)])

    @pytest.mark.parametrize("lam, x, derivs", [
        ((0.5j,), (0.4,), [(0,), (1,), (2,)]), (LAM2, X2, CALL["derivs"]), (LAM3, X3, D7)],
        ids=["n1", "n2", "n3"])
    def test_repeat_makes_no_pass(self, monkeypatch, lam, x, derivs):
        lattice, sizes = {}, [[], []]
        first = eval_phi_many(lam, x, G, derivs, lattice=lattice)
        passes = _count_passes(monkeypatch)
        again = eval_phi_many(lam, x, G, derivs, lattice=lattice, sizes=sizes[0])
        assert passes == []
        assert _bits(again) == _bits(first)
        # and both are a call's without a lattice, which takes the memo path with a fresh one
        bare = eval_phi_many(lam, x, G, derivs, sizes=sizes[1])
        assert passes == [len(lam)]
        assert _bits(bare) == _bits(first) and _bits(sizes[1]) == _bits(sizes[0])
        # the first call asked for no sizes, yet its entry holds them: |value| at n = 1 and
        # 3, and at n = 2 the nodes, whose sum of |term| exceeds it
        magnitudes = list(map(abs, first))
        if len(lam) == 2:
            assert all(size > m for size, m in zip(sizes[0], magnitudes))
        else:
            assert sizes[0] == magnitudes

    @pytest.mark.parametrize("change", [
        {"contour": 0.1}, {"step": 0.09}, {"derivs": [(0, 0), (1, 0), (0, 1)]},
        {"derivs": [(1, 0), (0, 0), (0, 2)]}, {"x": (0.4, -0.25)}, {"g": 1.6}],
        ids=["contour", "step", "derivs-order", "derivs-permuted", "x", "g"])
    def test_other_calls_miss(self, monkeypatch, change):
        # at margin 1.4 or more every step taken is _STEP, so only the changed key moves
        lattice = {}
        eval_phi_many(**self.CALL, lattice=lattice)
        change = dict(change)
        if "step" in change:
            monkeypatch.setattr(wavefn, "_STEP", change.pop("step"))
        passes = _count_passes(monkeypatch)
        got = eval_phi_many(**dict(self.CALL, **change), lattice=lattice)
        assert passes == [2] and _kinds(lattice)["values"] == 2
        assert _bits(got) == _bits(eval_phi_many(**dict(self.CALL, **change)))

    @pytest.mark.parametrize("call, error", [
        (dict(lam=LAM2, x=X2, g=G, contour=1.6), InfeasibleContourError),
        (dict(lam=(2.0 + 0.7j, -0.3j), x=X2, g=1.0001, contour=1.0), wavefn.GridBudgetError),
        (dict(lam=(2.0 + 0.9j, 0.1j, -0.6j), x=X3, g=1.0001, contour=1.0),
         wavefn.GridBudgetError),
        (dict(lam=(700.0 + 0.5j,), x=(1.0,), g=G), OverflowError)],
        ids=["infeasible", "budget-n2", "budget-n3", "scale-n1"])
    def test_refused_call_stores_nothing(self, call, error):
        lattice = {}
        for _ in range(3):
            with pytest.raises(error) as refused:
                eval_phi(**call, lattice=lattice)
        assert lattice == {}
        # a call without a lattice is refused alike
        with pytest.raises(error, match=re.escape(str(refused.value))):
            eval_phi(**call)

    def test_returned_lists_are_fresh(self):
        lattice, sizes = {}, []
        first = eval_phi_many(**self.CALL, lattice=lattice, sizes=sizes)
        want, want_sizes = list(first), list(sizes)
        first[0] = 0j
        first.append(1j)
        sizes[0] = -1.0
        sizes = []
        assert eval_phi_many(**self.CALL, lattice=lattice, sizes=sizes) == want
        assert sizes == want_sizes

    def test_all_makes_41_passes(self, monkeypatch):
        # `all --seed 7` makes 48 eval_phi_many calls, and 7 repeat an earlier one: at n = 2
        # and at n = 3 hs1 asks for h1's jet and hs2 for h2's, and each dual order r > 1 for
        # the base Phi of r = 1
        calls, passes = [], _count_passes(monkeypatch)
        for module in (wavefn, sutherland_ops):
            def counting(*args, many=module.eval_phi_many, **kwargs):
                calls.append(args)
                return many(*args, **kwargs)
            monkeypatch.setattr(module, "eval_phi_many", counting)
        status, _ = run("all", RunConfig(seed=7))
        assert status == 0 and len(calls) == 48 and len(passes) == 41


class TestDerivatives:
    def test_n1_derivative(self):
        lam, x = 0.9j, 0.5
        got = eval_phi_many([lam], [x], G, [(1,)])[0]
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
        exact = eval_phi_many(LAM2, X2, G, [(2, 0)])[0]
        assert abs(stencil - exact) / abs(exact) <= 1e-6

    def test_mixed_derivative_supported(self):
        got = eval_phi_many(LAM2, X2, G, [(1, 1)])[0]
        assert got == got  # finite

    def test_order_cap(self):
        with pytest.raises(ValueError):
            eval_phi_many(LAM2, X2, G, [(2, 1)])


class TestPsi:
    def test_n1_prefactor_empty(self):
        lam, x = 0.4j, 0.3
        assert eval_psi([lam], [x], G) == pytest.approx(eval_phi([lam], [x], G), rel=1e-15)

    def test_prefactor_value(self):
        assert sinh_prefactor((0.5, -0.5), 2.0) == pytest.approx(math.sinh(1.0) ** 2, rel=1e-14)

    def test_psi_is_prefactor_times_phi(self):
        psi = eval_psi(LAM2, X2, G)
        assert psi == pytest.approx(sinh_prefactor(X2, G) * eval_phi(LAM2, X2, G), rel=1e-14)
