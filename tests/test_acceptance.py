"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; every tolerance below is pinned to its stated value.
"""

import cmath
import time

import numpy as np
import pytest

from bispectral.dual_ops import apply_dual_hamiltonian, measure_weight
from bispectral.identities import (binomial_limit_check, residue_check,
                                   verify_lemma1)
from bispectral.legendre import (closed_form_phi2, dual_system_residuals,
                                 recurrence_check)
from bispectral.macdonald import (LaurentPolynomial, MacdonaldParams, TorusPoint,
                                  apply_macdonald, tau_limit_check,
                                  verify_gauge_equivalence, weight_and_gauge,
                                  weight_limit_check)
from bispectral.sutherland_ops import apply_H1, apply_H2
from bispectral.symfun import elementary_symmetric
from bispectral.wavefn import (InfeasibleContourError, QuadratureSpec, eval_phi)

QUAD_N3 = QuadratureSpec(step=0.15, tail_tol=1e-10)


def report(criterion: str, passed: bool, detail: str):
    print(f"[acceptance] {criterion}: {'PASS' if passed else 'FAIL'} ({detail})")
    assert passed, f"{criterion}: {detail}"


def random_spectral(rng, n, min_sep=0.35, min_power_sums=0.3):
    while True:
        lam = tuple(complex(0.0, float(v)) for v in rng.uniform(-1.2, 1.2, size=n))
        seps = [abs(lam[i] - lam[j]) for i in range(n) for j in range(i + 1, n)]
        if seps and min(seps) < min_sep:
            continue
        if abs(sum(lam)) < min_power_sums or abs(sum(v * v for v in lam)) < min_power_sums:
            continue
        return lam


def random_positions(rng, n, max_sep=0.95, min_sep=0.25):
    while True:
        x = tuple(float(v) for v in np.sort(rng.uniform(-0.5, 0.5, size=n))[::-1])
        seps = [abs(x[i] - x[j]) for i in range(n) for j in range(i + 1, n)]
        if seps and (min(seps) < min_sep or max(seps) > max_sep):
            continue
        return x


def test_criterion_01_appendix_identity():
    # exact equality at 100 random rational points for every 1 <= r <= n <= 5
    started = time.time()
    failures = []
    for n in range(1, 6):
        for r in range(1, n + 1):
            rep = verify_lemma1(n, r, trials=100, seed=1000 + 10 * n + r)
            if not rep.passed:
                failures.append((n, r, rep.witness))
    elapsed = time.time() - started
    report("criterion 01 appendix identity",
           not failures and elapsed < 30.0,
           f"exact, all n<=5, {elapsed:.1f}s" if not failures else f"witness {failures[0]}")


def test_criterion_02_residue_relations():
    started = time.time()
    failures = [(n, r) for n in range(2, 5) for r in range(1, n + 1)
                if not residue_check(n, r, seed=2000 + 10 * n + r).passed]
    elapsed = time.time() - started
    report("criterion 02 residue relations",
           not failures and elapsed < 60.0,
           f"exact term-by-term residues, n<=4, {elapsed:.1f}s" if not failures else str(failures))


def test_criterion_03_binomial_degeneration():
    started = time.time()
    passed = binomial_limit_check(seed=3)
    elapsed = time.time() - started
    report("criterion 03 binomial degeneration",
           passed and elapsed < 1.0, f"exact, n<=10, {elapsed:.2f}s")


@pytest.mark.parametrize("g", [1.25, 1.5, 2.0])
def test_criterion_04_oracle_agreement(g):
    started = time.time()
    l1, l2 = 0.7j, -0.3j
    ratios = []
    for sep in np.linspace(0.2, 1.0, 5):
        for center in np.linspace(-0.3, 0.3, 5):
            x1, x2 = float(center + sep / 2), float(center - sep / 2)
            mb = eval_phi((l1, l2), (x1, x2), g)
            cf = closed_form_phi2(l1, l2, x1, x2, g)
            ratios.append(mb / cf)
    arr = np.asarray(ratios)
    spread = float(np.max(np.abs(arr - arr.mean())) / abs(arr.mean()))
    elapsed = time.time() - started
    report(f"criterion 04 oracle agreement g={g}",
           spread <= 1e-6 and elapsed < 60.0,
           f"ratio spread {spread:.2e} over 5x5 grid, {elapsed:.1f}s")


def test_criterion_05_differential_side_n2():
    rng = np.random.default_rng(505)
    worst_h1 = worst_h2 = 0.0
    for _ in range(5):
        lam = random_spectral(rng, 2)
        x = random_positions(rng, 2)
        worst_h1 = max(worst_h1, apply_H1(lam, x, 1.5).relative_residual)
        worst_h2 = max(worst_h2, apply_H2(lam, x, 1.5).relative_residual)
    report("criterion 05 differential side n=2",
           worst_h1 <= 1e-7 and worst_h2 <= 1e-5,
           f"H1 {worst_h1:.2e} (<=1e-7), H2 {worst_h2:.2e} (<=1e-5), 5 points")


def test_criterion_05_differential_side_n3():
    started = time.time()
    rng = np.random.default_rng(515)
    worst = 0.0
    for _ in range(5):
        lam = random_spectral(rng, 3)
        x = random_positions(rng, 3)
        worst = max(worst, apply_H1(lam, x, 1.5, QUAD_N3).relative_residual,
                    apply_H2(lam, x, 1.5, QUAD_N3).relative_residual)
    elapsed = time.time() - started
    report("criterion 05 differential side n=3",
           worst <= 1e-3 and elapsed < 600.0,
           f"worst residual {worst:.2e} (<=1e-3), 5 points, {elapsed:.0f}s")


def dual_metric(r, lam, x, g, quad=None):
    res = apply_dual_hamiltonian(r, lam, x, g, quad)
    e_r = elementary_symmetric(r, [cmath.exp(2.0 * xi) for xi in x])
    return res.relative_residual * abs(e_r)


def test_criterion_06_dual_side_n1():
    res = apply_dual_hamiltonian(1, (0.5j,), (0.4,), 1.5)
    metric = res.relative_residual * abs(cmath.exp(0.8))
    report("criterion 06 dual side n=1", metric <= 1e-14,
           f"exact exponential case, residual {metric:.1e}")


@pytest.mark.parametrize("g", [1.25, 2.0, 2.5])
def test_criterion_06_dual_side_n2(g):
    lam, x = (0.7j, -0.3j), (0.4, -0.2)
    worst = max(dual_metric(r, lam, x, g) for r in (1, 2))
    report(f"criterion 06 dual side n=2 g={g}", worst <= 1e-5,
           f"worst |H_r phi/phi - e_r| = {worst:.2e} (<=1e-5)")


def test_criterion_06_dual_side_n3():
    started = time.time()
    lam = (0.9j, 0.1j, -0.6j)
    x = (0.45, 0.0, -0.4)
    worst = max(dual_metric(r, lam, x, 1.5, QUAD_N3) for r in (1, 2, 3))
    elapsed = time.time() - started
    report("criterion 06 dual side n=3",
           worst <= 1e-3 and elapsed < 1200.0,
           f"worst residual {worst:.2e} (<=1e-3), {elapsed:.0f}s")


def test_criterion_07_infeasibility_guard():
    raised = False
    try:
        apply_dual_hamiltonian(1, (0.7j, -0.3j), (0.4, -0.2), 1.0)
    except InfeasibleContourError:
        raised = True
    report("criterion 07 infeasibility guard", raised,
           "g = 1.0 raises the infeasible-contour error")


def test_criterion_08_macdonald_layer():
    started = time.time()
    rng = np.random.default_rng(808)
    params = MacdonaldParams(q=0.3, t=0.7)
    q, t = params.q, params.t

    # gauge equivalence, 20 random Laurent test functions
    worst_gauge = 0.0
    for k in range(20):
        n = 2 + (k % 2)
        z = TorusPoint(tuple(complex(rng.uniform(0.6, 1.8), rng.uniform(-0.6, 0.6))
                             for _ in range(n)))
        f = LaurentPolynomial.random(n, rng)
        r = 1 + (k % n)
        worst_gauge = max(worst_gauge, verify_gauge_equivalence(r, params, z, f))

    # commutativity
    worst_comm = 0.0
    for n in (2, 3):
        z = TorusPoint(tuple(complex(rng.uniform(0.6, 1.8), rng.uniform(-0.6, 0.6))
                             for _ in range(n)))
        f = LaurentPolynomial.random(n, rng)
        for r in range(1, n + 1):
            for s in range(r + 1, n + 1):
                ab = apply_macdonald(r, params, z,
                                     lambda zz: apply_macdonald(s, params, zz, f))
                ba = apply_macdonald(s, params, z,
                                     lambda zz: apply_macdonald(r, params, zz, f))
                worst_comm = max(worst_comm, abs(ab - ba) / max(abs(ab), abs(ba), 1.0))

    # pointwise weight shift laws: generic (a,b), the scalar-product weights
    # of the pairs (q, t) and (q, q/t), and the two dual measure difference
    # equations
    dual = MacdonaldParams(q, q / t)
    worst_shift = 0.0
    for _ in range(10):
        z = tuple(complex(rng.uniform(0.6, 1.8), rng.uniform(-0.6, 0.6)) for _ in range(3))
        i = int(rng.integers(0, 3))
        zs = list(z)
        zs[i] *= params.qsq
        for kind, at, pa, pb in (("phi_ab", params, 0.4 + 0.1j, 1.7 - 0.2j),
                                 ("delta_qt", params, 1.0 + 0.0j, t * t),
                                 ("delta_qt", dual, 1.0 + 0.0j, (q / t) ** 2)):
            kwargs = {"a": pa, "b": pb} if kind == "phi_ab" else {}
            ratio = (weight_and_gauge(kind, at, tuple(zs), **kwargs)
                     / weight_and_gauge(kind, at, z, **kwargs))
            predicted = 1.0 + 0.0j
            for j in range(3):
                if j != i:
                    predicted *= ((z[i] - pa / params.qsq * z[j]) * (pb * z[i] - z[j])
                                  / ((pa * z[i] - z[j]) * (z[i] - pb / params.qsq * z[j])))
            worst_shift = max(worst_shift, abs(ratio - predicted) / abs(predicted))

    g = 1.6
    for kind in ("mu_g", "mu_1mg"):
        for _ in range(10):
            lam = tuple(complex(rng.uniform(-1, 1), rng.uniform(-2, 2)) for _ in range(3))
            i = int(rng.integers(0, 3))
            shifted = tuple(v + 2.0 if k == i else v for k, v in enumerate(lam))
            ratio = cmath.exp(measure_weight(shifted, g, kind)
                              - measure_weight(lam, g, kind))
            predicted = 1.0 + 0.0j
            for j in range(3):
                if j != i:
                    d = lam[i] - lam[j]
                    predicted *= (d + 2) / d
                    if kind == "mu_g":
                        predicted *= (d + 2 * g) / (d + 2 - 2 * g)
                    else:
                        predicted *= (d + 2 - 2 * g) / (d + 2 * g)
            worst_shift = max(worst_shift, abs(ratio - predicted) / abs(predicted))

    elapsed = time.time() - started
    report("criterion 08 macdonald layer",
           worst_gauge <= 1e-10 and worst_comm <= 1e-10
           and worst_shift <= 1e-11 and elapsed < 120.0,
           f"gauge {worst_gauge:.1e} (<=1e-10), commutator {worst_comm:.1e} (<=1e-10), "
           f"shift laws {worst_shift:.1e} (<=1e-11), {elapsed:.0f}s")


def test_criterion_09_tau_degeneration():
    started = time.time()
    rng = np.random.default_rng(909)
    worst_fit = 0.0
    for n, x_pt in ((2, (0.4, -0.2)), (3, (0.5, 0.1, -0.4))):
        for f in (LaurentPolynomial(n, {(0,) * n: 1.0}),
                  LaurentPolynomial.random(n, rng, max_degree=3, n_terms=3)):
            fit = tau_limit_check(x_pt, 1.5, f)
            worst_fit = max(worst_fit, fit.hs1_error, fit.hs2_error)
    worst_ode = max(weight_limit_check((0.4, -0.2), 1.5),
                    weight_limit_check((0.7, 0.1, -0.5), 2.0))
    elapsed = time.time() - started
    report("criterion 09 tau degeneration",
           worst_fit <= 1e-4 and worst_ode <= 1e-10 and elapsed < 60.0,
           f"fit {worst_fit:.1e} (<=1e-4), weight ODE {worst_ode:.1e} (<=1e-10), {elapsed:.0f}s")


def test_criterion_10_sklyanin_proportionality():
    rng = np.random.default_rng(1010)
    worst = 0.0
    for kind in ("mu_g", "mu_1mg"):
        ratios = []
        for _ in range(20):
            lam = tuple(complex(0.0, float(v))
                        for v in np.sort(rng.uniform(-2, 2, size=3))[::-1])
            ratios.append(cmath.exp(measure_weight(lam, 0.5, kind)
                                    - measure_weight(lam, 0.5, "sklyanin")))
        arr = np.asarray(ratios)
        worst = max(worst, float(np.max(np.abs(arr - arr.mean())) / abs(arr.mean())))
    report("criterion 10 sklyanin proportionality", worst <= 1e-11,
           f"ratio spread {worst:.1e} (<=1e-11), 20 tuples per weight")


def test_criterion_11_legendre_recurrence_and_dual_system():
    rng = np.random.default_rng(1111)
    worst_rec = 0.0
    for g in (0.5, 1.5, 2.0):
        for _ in range(15):
            lam = complex(rng.uniform(-0.4, 0.4), rng.uniform(-5.0, 5.0))
            if abs(lam) < 0.2:
                lam += 0.5
            x = float(rng.uniform(0.1, 1.5))
            worst_rec = max(worst_rec, recurrence_check(lam, x, g))
    worst_sys = 0.0
    for g in (1.25, 1.5, 2.0):
        r1, r2 = dual_system_residuals(0.7j, -0.3j, 0.4, -0.2, g)
        worst_sys = max(worst_sys, r1, r2)
    report("criterion 11 legendre recurrence + dual system",
           worst_rec <= 1e-10 and worst_sys <= 1e-9,
           f"recurrence {worst_rec:.1e} (<=1e-10), dual system {worst_sys:.1e} (<=1e-9)")
