"""Exact rational-identity layer: subset sums, the Pascal-type recurrence,
residue relations, and the integer engine they run on."""

import math
import random
from fractions import Fraction
from itertools import combinations

import pytest

from bispectral import identities
from bispectral.identities import (binomial_limit_check, residue_check,
                                   substitution_check, substitution_map, sum_S,
                                   verify_lemma1)


def brute_force_S_primed(r, u, v, alpha, tilde=False):
    """Independent direct-summation oracle (no ratio tables, no shortcuts):
    S'_r(u, v), or S~'_r(v, u) with ``tilde``.  Works on Fractions and on
    sympy expressions alike."""
    base, other = (v, u) if tilde else (u, v)
    total = 0
    for subset in combinations(range(len(base)), r):
        term = 1
        for i in subset:
            for j in range(len(base)):
                if j not in subset:
                    d = base[i] - base[j]
                    term *= (d + alpha) / d if tilde else (d - alpha) / d
            for c in range(len(other)):
                d = other[c] - base[i] if tilde else base[i] - other[c]
                term *= (d + alpha) / d
        total += term
    return total


def plant(monkeypatch, wrong):
    """Route the identity checks through ``_subset_sum`` with ``wrong(result,
    r, form, residue)`` applied to every integer pair it returns."""
    subset_sum = identities._subset_sum

    def planted(r, u, v, alpha, form, residue=False):
        return wrong(subset_sum(r, u, v, alpha, form, residue), r, form, residue)

    monkeypatch.setattr(identities, "_subset_sum", planted)


def rand_distinct(rnd, count, box=10 ** 6):
    seen = set()
    while len(seen) < count:
        seen.add(rnd.randint(-box, box))
    out = [Fraction(s) for s in seen]
    rnd.shuffle(out)
    return out


class TestSumS:
    def test_alpha_zero_counts_subsets(self):
        rnd = random.Random(0)
        for n in (1, 3, 5):
            vals = rand_distinct(rnd, 2 * n - 1)
            u, v = vals[:n], vals[n:]
            for r in range(n + 1):
                assert sum_S(r, u, v, Fraction(0), "primed_S") == math.comb(n, r)

    def test_top_order_closed_form(self):
        # S'_n(u, v) = S~'_{n-1}(v, u) = prod (u_i - v_a + alpha)/(u_i - v_a)
        rnd = random.Random(1)
        n = 4
        vals = rand_distinct(rnd, 2 * n - 1)
        u, v = vals[:n], vals[n:]
        alpha = Fraction(rnd.randint(-10 ** 6, 10 ** 6))
        product = Fraction(1)
        for ui in u:
            for va in v:
                product *= (ui - va + alpha) / (ui - va)
        assert sum_S(n, u, v, alpha, "primed_S") == product
        assert sum_S(n - 1, u, v, alpha, "primed_Stilde") == product

    def test_against_brute_force_oracle(self):
        rnd = random.Random(2)
        for _ in range(10):
            n = 3
            vals = rand_distinct(rnd, 2 * n - 1)
            u, v = vals[:n], vals[n:]
            alpha = Fraction(rnd.randint(-10 ** 6, 10 ** 6))
            expected = brute_force_S_primed(2, u, v, alpha)
            assert sum_S(2, u, v, alpha, "primed_S") == expected
            # plain ints give the same reduced Fraction, never a float
            got = sum_S(2, [int(x) for x in u], [int(x) for x in v], int(alpha), "primed_S")
            assert type(got) is Fraction and got == expected
            assert (sum_S(1, u, v, alpha, "primed_Stilde")
                    == brute_force_S_primed(1, u, v, alpha, tilde=True))

    def test_symmetry_under_permutations(self):
        rnd = random.Random(3)
        n = 3
        vals = rand_distinct(rnd, 2 * n - 1)
        u, v = vals[:n], vals[n:]
        alpha = Fraction(rnd.randint(-10 ** 6, 10 ** 6))
        base = sum_S(2, u, v, alpha, "primed_S")
        assert sum_S(2, [u[2], u[0], u[1]], v, alpha, "primed_S") == base
        assert sum_S(2, u, [v[1], v[0]], alpha, "primed_S") == base

    def test_degree_zero_scaling(self):
        rnd = random.Random(4)
        n = 3
        vals = rand_distinct(rnd, 2 * n - 1)
        u, v = vals[:n], vals[n:]
        alpha = Fraction(rnd.randint(-10 ** 6, 10 ** 6))
        c = Fraction(7, 3)
        base = sum_S(2, u, v, alpha, "primed_S")
        scaled = sum_S(2, [c * x for x in u], [c * x for x in v], c * alpha, "primed_S")
        assert scaled == base

    def test_vanishing_factor_named(self):
        with pytest.raises(ZeroDivisionError, match="factor"):
            sum_S(1, [Fraction(1), Fraction(1)], [Fraction(5)], Fraction(3), "primed_S")

    def test_form_validation(self):
        with pytest.raises(ValueError):
            sum_S(1, [Fraction(1)], [], Fraction(0), "mystery")

    def test_size_validation(self):
        with pytest.raises(ValueError):
            sum_S(1, [Fraction(1), Fraction(2)], [], Fraction(0), "primed_S")


class TestLemma1:
    def test_degenerate_n1(self):
        # S'_1 = 1 with S~'_0 = 1 and S~'_1 = 0 (empty v set)
        rep = verify_lemma1(1, 1, trials=3, seed=0)
        assert rep.passed
        assert sum_S(1, [Fraction(5)], [], Fraction(3), "primed_S") == 1
        assert sum_S(0, [Fraction(5)], [], Fraction(3), "primed_Stilde") == 1
        assert sum_S(1, [Fraction(5)], [], Fraction(3), "primed_Stilde") == 0

    def test_n2_r1_direct(self):
        rnd = random.Random(5)
        vals = rand_distinct(rnd, 3)
        u, v = vals[:2], vals[2:]
        alpha = Fraction(rnd.randint(-10 ** 6, 10 ** 6))
        lhs = sum_S(1, u, v, alpha, "primed_S")
        rhs = sum_S(0, u, v, alpha, "primed_Stilde") + sum_S(1, u, v, alpha, "primed_Stilde")
        assert lhs == rhs

    def test_n5_r3_hundred_trials(self):
        rep = verify_lemma1(5, 3, trials=100, seed=9)
        assert rep.passed and rep.witness is None

    def test_range_validation(self):
        with pytest.raises(ValueError):
            verify_lemma1(7, 1)

    @pytest.mark.parametrize("n, r", [(2, 1), (3, 2), (4, 4), (5, 3)])
    def test_planted_error_gives_witness(self, monkeypatch, n, r):
        # S~'_r off by exactly 1: the check fails, and its witness shows it
        plant(monkeypatch, lambda p, r_, form, residue:
              (p[0] + p[1], p[1]) if form == "primed_Stilde" and r_ == r else p)
        rep = verify_lemma1(n, r, trials=5, seed=11)
        assert not rep.passed
        w = rep.witness
        lhs, rhs = Fraction(w["lhs"]), Fraction(w["rhs"])
        assert rhs - lhs == 1
        u, v = [Fraction(x) for x in w["u"]], [Fraction(x) for x in w["v"]]
        assert lhs == brute_force_S_primed(r, u, v, Fraction(w["alpha"]))


class TestResidues:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_orders(self, n):
        for r in range(1, n + 1):
            rep = residue_check(n, r, seed=31 * n + r)
            assert rep.passed, (n, r, rep)

    def test_alpha_zero_residue_vanishes(self):
        # at alpha = 0 the sums have no pole at the collision at all
        u, v = [Fraction(3), Fraction(11)], [Fraction(11)]
        for form in ("primed_S", "primed_Stilde"):
            assert identities._subset_sum(1, u, v, 0, form, residue=True)[0] == 0

    @pytest.mark.parametrize("n, r", [(2, 1), (3, 1), (3, 2)])
    def test_residue_matches_symbolic(self, n, r):
        # residue in u_n at u_n = v_{n-1}, from sympy on the direct sum
        sympy = pytest.importorskip("sympy")
        rnd = random.Random(40 + 10 * n + r)
        vals = rand_distinct(rnd, 2 * n - 2)
        alpha = Fraction(rnd.randint(-100, 100), 7)
        u, v = vals[:n], vals[n:] + [vals[n - 1]]
        x = sympy.Symbol("x")
        u_sym = [sympy.Rational(str(c)) for c in u[:-1]] + [x]
        v_sym = [sympy.Rational(str(c)) for c in v]
        a_sym = sympy.Rational(str(alpha))
        for tilde, form in ((False, "primed_S"), (True, "primed_Stilde")):
            expr = brute_force_S_primed(r, u_sym, v_sym, a_sym, tilde=tilde)
            want = sympy.cancel((x - v_sym[-1]) * expr).subs(x, v_sym[-1])
            got = Fraction(*identities._subset_sum(r, u, v, alpha, form, residue=True))
            assert got == Fraction(str(want)), form

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("form, flipped, kept", [
        ("primed_S", "s_side", "stilde_side"),
        ("primed_Stilde", "stilde_side", "s_side")])
    def test_planted_residue_error_flips_one_side(self, monkeypatch, n, r,
                                                  form, flipped, kept):
        plant(monkeypatch, lambda p, r_, form_, residue:
              (p[0] + p[1], p[1]) if residue and form_ == form else p)
        rep = residue_check(n, r, seed=31 * n + r)
        assert not rep.passed
        assert not getattr(rep, flipped) and getattr(rep, kept)

    def test_n_range(self):
        with pytest.raises(ValueError):
            residue_check(1, 1)


class TestBinomialDegeneration:
    def test_up_to_ten(self):
        assert identities._BINOMIAL_N_MAX == 10
        assert binomial_limit_check()


class TestSubstitution:
    def test_g_one_gives_alpha_zero(self):
        u, v, alpha = substitution_map([Fraction(2), Fraction(5)], [Fraction(1)], 1)
        assert alpha == 0
        assert u == [Fraction(3), Fraction(6)]

    def test_g_three_halves_gives_alpha_one(self):
        _, _, alpha = substitution_map([Fraction(0)], [], Fraction(3, 2))
        assert alpha == 1

    def test_round_trip(self):
        rnd = random.Random(6)
        for _ in range(5):
            vals = rand_distinct(rnd, 5)
            lam, nu = vals[:3], vals[3:]
            g = Fraction(rnd.randint(-50, 50), 2 * rnd.randint(1, 40) + 1)
            u, v, alpha = substitution_map(lam, nu, g)
            for r in range(4):
                assert (sum_S(r, lam, nu, alpha, "unprimed_S")
                        == sum_S(r, u, v, alpha, "primed_S"))
                assert (sum_S(r, lam, nu, alpha, "unprimed_Stilde")
                        == sum_S(r, u, v, alpha, "primed_Stilde"))

    def test_check_passes_and_catches_a_planted_error(self, monkeypatch):
        assert all(substitution_check(seed) for seed in (0, 7, 1009))
        plant(monkeypatch, lambda p, r, form, residue:
              (p[0] + p[1], p[1]) if form == "unprimed_S" and r == 2 else p)
        assert not substitution_check(7)


class TestWork:
    def test_exact_batteries_run_no_gcd(self, monkeypatch):
        # Fraction arithmetic reduces by math.gcd after every operation; the
        # integer engine reduces only a witness or a returned value
        calls, gcd = [0], math.gcd

        def counting(*args):
            calls[0] += 1
            return gcd(*args)

        monkeypatch.setattr(math, "gcd", counting)
        assert verify_lemma1(5, 3, trials=20, seed=7).passed
        lemma1, calls[0] = calls[0], 0
        assert binomial_limit_check(seed=7)
        assert lemma1 <= 10 and calls[0] <= 10, (lemma1, calls[0])

