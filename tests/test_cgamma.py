"""Log-gamma kernel: frozen references, reflection/duplication, pole handling."""

import cmath
import math
import tracemalloc

import numpy as np
import pytest

from bispectral.cgamma import (_LOG_PI, GammaPoleError, _log_sin_pi, _loggamma_right,
                               log_gamma)

# arbitrary-precision references (40-digit offline run), frozen
LOGGAMMA_REFS = {
    (2.0, 3.0): complex(-2.0928517530927333496, 2.3023965434668676262),
    (0.5, 0.0): complex(0.57236494292470008707, 0.0),
    (10.0, 10.0): complex(8.2361317504487178437, 23.94870341378203736),
    (0.1, -20.0): complex(-31.695265907346562615, -39.284410010649361162),
    (25.0, -40.0): complex(29.849018814915747033, -138.94757254800082995),
}
REFLECTED_REF = ((-3.3, 4.2), complex(-11.551949078496752822, -5.6749612549249327848))


def test_gamma_one_is_zero():
    assert log_gamma(1.0) == pytest.approx(0.0, abs=1e-14)


def test_gamma_half():
    assert log_gamma(0.5) == pytest.approx(0.5 * math.log(math.pi), abs=1e-14)


@pytest.mark.parametrize("z,expected", sorted(LOGGAMMA_REFS.items()))
def test_frozen_references_right_half_plane(z, expected):
    got = log_gamma(complex(*z))
    assert got == pytest.approx(expected, rel=1e-12)


def test_frozen_reference_reflected():
    # branch-insensitive comparison in the reflection region
    z, expected = REFLECTED_REF
    got = log_gamma(complex(*z))
    assert cmath.exp(got - expected) == pytest.approx(1.0, rel=1e-12)


def test_reflection_consistency():
    # log G(z) + log G(1-z) == log(pi / sin(pi z)) mod 2 pi i
    rng = np.random.default_rng(42)
    count = 0
    while count < 1000:
        z = complex(rng.uniform(-5, 5), rng.uniform(-20, 20))
        if min(abs(z - k) for k in range(-6, 7)) < 0.05:
            continue
        count += 1
        lhs = cmath.exp(log_gamma(z) + log_gamma(1.0 - z))
        rhs = math.pi / cmath.sin(math.pi * z)
        assert abs(lhs - rhs) <= 1e-11 * abs(rhs), f"z={z}"


def test_duplication_formula():
    # G(2z) = 2^(2z-1) pi^(-1/2) G(z) G(z+1/2)
    rng = np.random.default_rng(43)
    count = 0
    while count < 1000:
        z = complex(rng.uniform(-5, 5), rng.uniform(-20, 20))
        bad = [k / 2.0 for k in range(-22, 1)]
        if min(abs(z - b) for b in bad) < 0.05 or min(abs(2 * z - k) for k in range(-12, 1)) < 0.05:
            continue
        count += 1
        diff = log_gamma(2 * z) - ((2 * z - 1) * math.log(2.0) - 0.5 * math.log(math.pi)
                                   + log_gamma(z) + log_gamma(z + 0.5))
        assert cmath.exp(diff) == pytest.approx(1.0, rel=1e-11), f"z={z}"


@pytest.mark.parametrize("sigma", [0.3, 1.0, 1.7])
def test_vertical_decay_monotone(sigma):
    ts = np.arange(2.0, 40.0, 0.5)
    mags = log_gamma(sigma + 1j * ts).real
    assert np.all(np.diff(mags) < 0)


def test_vertical_line_imag_continuity():
    # no branch jumps along Re z = const > 0 (both core and reflected paths)
    for sigma in (0.3, 0.7, 2.4):
        ts = np.arange(-12.0, 12.0, 0.01)
        vals = log_gamma(sigma + 1j * ts)
        assert np.max(np.abs(np.diff(vals.imag))) < 0.5


@pytest.mark.parametrize("z", [0.0, -1.0, -7.0, -3.0 + 5e-15j])
def test_pole_raises(z):
    with pytest.raises(GammaPoleError):
        log_gamma(z)


def test_pole_among_right_half_arguments_raises():
    with pytest.raises(GammaPoleError):
        log_gamma(np.array([1.5 + 2j, 0.75, -2.0 + 1e-15j, 7.0 - 40j]))


def test_array_matches_scalar():
    zs = np.array([0.3 + 2j, 1.5 - 0.7j, -2.2 + 0.4j, 6.0 + 0j])
    vec = log_gamma(zs)
    for z, v in zip(zs, vec):
        assert complex(v) == log_gamma(complex(z))


def test_shape_is_kept():
    z = np.array([[0.3 + 2j, 1.5 - 0.7j, 2.5], [-2.2 + 0.4j, 6.0 + 0j, 0.75 + 9j]])
    got = log_gamma(z)
    assert got.shape == (2, 3)
    assert np.array_equal(got.ravel(), log_gamma(z.ravel()))


@pytest.mark.parametrize("n", [*range(1, 41), 700, 2049, 5000])
def test_position_independent(n):
    # the Lanczos core works on blocks of 2048 rows; every element must come out
    # with the same bits wherever it sits, on both sides of Re z = 1/2
    rng = np.random.default_rng(n)
    z = rng.uniform(-3.0, 4.0, n) + 1j * rng.uniform(-70.0, 70.0, n)
    got = log_gamma(z)
    assert all(np.array_equal(got[i:i + 1], log_gamma(z[i:i + 1])) for i in range(n))


@pytest.mark.parametrize("lo, hi", [(0.5, 4.0), (-7.5, 0.49), (-3.0, 4.0)],
                         ids=["right", "reflected", "mixed"])
def test_conjugate_symmetry_is_exact(lo, hi):
    # _grid_kernel and _log_measure take the second factor of a conjugate pair
    # as the conjugate of the first, so this must hold bit for bit
    rng = np.random.default_rng(17)
    z = rng.uniform(lo, hi, 3000) + 1j * rng.uniform(-300.0, 300.0, 3000)
    z[:40] = rng.uniform(lo, hi, 40) + 1j * rng.uniform(-1.0, 1.0, 40)
    assert np.array_equal(log_gamma(np.conj(z)), np.conj(log_gamma(z)))


def test_outer_kernel_call_stays_small():
    # the n = 3 outer kernel at the half-width cap: 2401 nodes x 3 lambda x 2
    # arguments in one call; the core's blocks keep the working set bounded
    nu = 1j * 0.1 * np.arange(-1200, 1201)
    d = nu[:, None] - np.array([0.9j, 0.1j, -0.6j])[None, :]
    args = np.stack([(d + 1.5) / 2, (1.5 - d) / 2])
    assert args.size == 14_406
    tracemalloc.start()
    try:
        log_gamma(args)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2_000_000


@pytest.mark.parametrize("z", [
    np.array([0.5, 1.25 + 3j, 7.0 - 40j, 0.75 + 0.1j]),         # nothing reflects
    np.array([0.4999, -2.2 + 0.4j, 0.125 - 66j, -7.3 + 300j]),  # everything reflects
    np.array([0.3 + 2j, 1.5 - 0.7j, -2.2 + 0.4j, 6.0 + 0j, -0.7 - 12j, 0.5 + 1e-3j]),
    np.array([], dtype=complex),
], ids=["right", "left", "mixed", "empty"])
def test_reflection_on_the_subset_is_exact(z):
    # the reflection taken only where Re z < 0.5, against the formula
    # evaluated on every element and selected by np.where
    refl = z.real < 0.5
    lg = _loggamma_right(np.where(refl, 1.0 - z, z))
    everywhere = np.where(refl, _LOG_PI - _log_sin_pi(z) - lg, lg)
    assert np.array_equal(log_gamma(z), everywhere)


def test_matches_mpmath_on_the_reached_domain():
    # the n = 3 offsets reach |Im z| ~ 66 by default and a few hundred at the
    # half-width cap; both sides of the reflection line Re z = 0.5
    mpmath = pytest.importorskip("mpmath")
    ims = np.concatenate([[0.0], np.geomspace(0.01, 300.0, 40)])
    ims = np.concatenate([-ims[::-1], ims])
    res = np.array([-7.3, -2.5, -0.7, 0.125, 0.3, 0.75, 1.5])
    z = (res[:, None] + 1j * ims[None, :]).ravel()
    got = log_gamma(z)
    for zz, value in zip(z, got):
        ref = complex(mpmath.loggamma(mpmath.mpc(zz.real, zz.imag)))
        assert abs(value - ref) <= 1e-12 * max(1.0, abs(ref)), f"z={zz}"


def test_huge_argument_is_scaled_not_overflowed():
    # (Im z)^2 overflows past |Im z| ~ 1.34e154, and (Re z)^2 past Re z ~ 1.34e154;
    # the suite turns numpy's overflow warning into an error, so this fails if the
    # square is taken there.  The ordinary arguments beside them keep their bits, and
    # conjugates pair exactly.
    mpmath = pytest.importorskip("mpmath")
    huge = np.array([1 + 2e154j, 1 - 2e154j, 0.75 + 1e200j, 5 + 1e300j, 2 + 1.0000001e150j,
                     1e200 + 1j, 2e154 - 3e154j])
    plain = np.array([0.3 + 2j, 1.5 - 0.7j, 6.0 + 0j, 0.75 + 66j])
    got = log_gamma(np.concatenate([huge, plain]))
    assert np.array_equal(got[huge.size:], log_gamma(plain))
    assert np.array_equal(log_gamma(np.conj(huge)), np.conj(got[:huge.size]))
    for zz, value in zip(huge, got):
        ref = complex(mpmath.loggamma(mpmath.mpc(zz.real, zz.imag)))
        assert abs(value - ref) <= 1e-15 * abs(ref), f"z={zz}"

