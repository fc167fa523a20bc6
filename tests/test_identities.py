"""Exact rational-identity layer: subset sums, the Pascal-type recurrence,
residue relations, and the integer engine they run on."""

import math
import random
from fractions import Fraction
from itertools import combinations, permutations

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
    """Route the identity checks through ``_subset_orders`` with the sum of each
    order r where ``wrong(r, form, residue)`` holds off by exactly 1: its
    numerator gains the common denominator."""
    subset_orders = identities._subset_orders

    def planted(u, v, alpha, form, residue=False):
        totals, common = subset_orders(u, v, alpha, form, residue)
        return [t + common if wrong(r, form, residue) else t
                for r, t in enumerate(totals)], common

    monkeypatch.setattr(identities, "_subset_orders", planted)


def table_common(u, v, alpha, form):
    """The product of every factor-table denominator on the scaled integers,
    from the factors' definitions; a vanishing cross denominator (the residue's
    pole) counts as the scale."""
    u, v, alpha, scale = identities._clear_denominators(u, v, alpha)
    base, other = (v, u) if form.endswith("Stilde") else (u, v)
    common = math.prod(a - b for a, b in permutations(base, 2))
    for a in base:
        for c in other:
            diff = c - a if form.endswith("Stilde") else a - c
            den = diff if form.startswith("primed") else diff + scale - alpha // 2
            common *= den or scale
    return common


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

    def test_order_validation(self):
        # a negative order is refused; one past every subset size is the empty sum
        u, v = [Fraction(1), Fraction(2)], [Fraction(5)]
        with pytest.raises(ValueError, match="negative"):
            sum_S(-1, u, v, Fraction(3), "primed_S")
        assert sum_S(3, u, v, Fraction(3), "primed_S") == 0


class TestSubsetOrders:
    @pytest.mark.parametrize("n", range(1, 7))
    def test_every_order_against_brute_force(self, n):
        # each order r = 0..n of one enumeration is the direct sum, over the
        # product of every table denominator, so its numerator is fixed too
        rnd = random.Random(60 + n)
        for _ in range(3):
            vals = rand_distinct(rnd, 2 * n - 1)
            vals = [x / rnd.choice((1, 2, 7)) for x in vals]
            u, v = vals[:n], vals[n:]
            alpha = Fraction(rnd.randint(-10 ** 6, 10 ** 6), rnd.choice((1, 3)))
            for tilde, form in ((False, "primed_S"), (True, "primed_Stilde")):
                totals, common = identities._subset_orders(u, v, alpha, form)
                assert len(totals) == n + 1
                assert common == table_common(u, v, alpha, form)
                for r, total in enumerate(totals):
                    want = brute_force_S_primed(r, u, v, alpha, tilde=tilde)
                    assert Fraction(total, common) == want, (form, r)

    @pytest.mark.parametrize("n", [2, 3])
    def test_every_residue_order_matches_symbolic(self, n):
        # the residue in u_n at its collision with v of every order, from sympy on
        # the direct sum, with the colliding v first
        sympy = pytest.importorskip("sympy")
        rnd = random.Random(70 + n)
        vals = rand_distinct(rnd, 2 * n - 2)
        alpha = Fraction(rnd.randint(-100, 100), 7)
        u, v = vals[:n], vals[n:] + [vals[n - 1]]
        v = v[::-1]
        x = sympy.Symbol("x")
        u_sym = [sympy.Rational(str(c)) for c in u[:-1]] + [x]
        v_sym = [sympy.Rational(str(c)) for c in v]
        a_sym, hit = sympy.Rational(str(alpha)), sympy.Rational(str(u[-1]))
        for tilde, form in ((False, "primed_S"), (True, "primed_Stilde")):
            totals, common = identities._subset_orders(u, v, alpha, form, residue=True)
            assert common == table_common(u, v, alpha, form)
            for r, total in enumerate(totals):
                expr = brute_force_S_primed(r, u_sym, v_sym, a_sym, tilde=tilde)
                want = sympy.cancel((x - hit) * expr).subs(x, hit)
                assert Fraction(total, common) == Fraction(str(want)), (form, r)

    def test_unprimed_orders_match_primed(self):
        # every order of both unprimed forms equals the primed one through
        # substitution_map, over the unprimed tables' own denominator
        rnd = random.Random(80)
        for n in (1, 2, 4):
            vals = rand_distinct(rnd, 2 * n - 1)
            lam, nu = vals[:n], vals[n:]
            g = Fraction(rnd.randint(-50, 50), 2 * rnd.randint(1, 40) + 1)
            u, v, alpha = substitution_map(lam, nu, g)
            for form in ("_S", "_Stilde"):
                before, before_common = identities._subset_orders(
                    lam, nu, alpha, "unprimed" + form)
                after, after_common = identities._subset_orders(u, v, alpha, "primed" + form)
                assert before_common == table_common(lam, nu, alpha, "unprimed" + form)
                assert [Fraction(t, before_common) for t in before] == \
                    [Fraction(t, after_common) for t in after]


class TestLemma1:
    def test_degenerate_n1(self):
        # S'_1 = 1 with S~'_0 = 1 and S~'_1 = 0 (empty v set)
        assert verify_lemma1(1, seed=0) == {1: None}
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
        assert identities._LEMMA1_TRIALS == 100
        assert verify_lemma1(5, seed=9)[3] is None

    @pytest.mark.parametrize("r", range(1, 7))
    def test_n6_every_order(self, r):
        # the largest n verify_lemma1 takes, one past the check family's sizes
        assert identities._LEMMA1_N_MAX == 6
        assert verify_lemma1(6, seed=7)[r] is None

    def test_range_validation(self):
        for n in (0, 7):
            with pytest.raises(ValueError):
                verify_lemma1(n)

    def test_one_pass_answers_every_order(self, monkeypatch):
        # one enumeration per side and point answers all five orders
        calls, subset_orders = [0], identities._subset_orders

        def counting(*args, **kw):
            calls[0] += 1
            return subset_orders(*args, **kw)

        monkeypatch.setattr(identities, "_subset_orders", counting)
        assert verify_lemma1(5, seed=7) == dict.fromkeys(range(1, 6))
        assert calls[0] == 2 * identities._LEMMA1_TRIALS

    @pytest.mark.parametrize("n, r", [(2, 1), (3, 2), (4, 4), (5, 3)])
    def test_planted_error_gives_witness(self, monkeypatch, n, r):
        # S~'_r off by exactly 1: the checks of orders r and r + 1 fail, the others
        # pass, and the witness of order r shows it
        plant(monkeypatch, lambda r_, form, residue: form == "primed_Stilde" and r_ == r)
        witnesses = verify_lemma1(n, seed=11)
        assert {k for k, w in witnesses.items() if w} == {r, r + 1} & set(range(1, n + 1))
        w = witnesses[r]
        assert w["n"] == n and w["r"] == r
        lhs, rhs = Fraction(w["lhs"]), Fraction(w["rhs"])
        assert rhs - lhs == 1
        u, v = [Fraction(x) for x in w["u"]], [Fraction(x) for x in w["v"]]
        assert lhs == brute_force_S_primed(r, u, v, Fraction(w["alpha"]))


class TestResidues:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_all_orders(self, n):
        for r in range(1, n + 1):
            witness = residue_check(n, seed=31 * n + r)[r]
            assert witness is None, (n, r, witness)

    def test_alpha_zero_residue_vanishes(self):
        # at alpha = 0 the sums have no pole at the collision at all
        u, v = [Fraction(3), Fraction(11)], [Fraction(11)]
        for form in ("primed_S", "primed_Stilde"):
            totals, _ = identities._subset_orders(u, v, 0, form, residue=True)
            assert totals == [0, 0, 0]

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
            totals, common = identities._subset_orders(u, v, alpha, form, residue=True)
            got = Fraction(totals[r], common)
            assert got == Fraction(str(want)), form

    @pytest.mark.parametrize("n", [2, 3, 4])
    @pytest.mark.parametrize("r", [1, 2])
    @pytest.mark.parametrize("form, flipped, kept", [
        ("primed_S", "s_side", "stilde_side"),
        ("primed_Stilde", "stilde_side", "s_side")])
    def test_planted_residue_error_flips_one_side(self, monkeypatch, n, r,
                                                  form, flipped, kept):
        # the residue off by exactly 1: the witness names the point and the one
        # failed side, whose residue is the prediction plus 1
        plant(monkeypatch, lambda r_, form_, residue: residue and form_ == form and r_ == r)
        witnesses = residue_check(n, seed=31 * n + r)
        w = witnesses[r]
        assert [order for order, wit in witnesses.items() if wit is not None] == [r]
        assert flipped in w and kept not in w
        assert Fraction(w[flipped]["residue"]) - Fraction(w[flipped]["predicted"]) == 1
        u, v = [Fraction(x) for x in w["u"]], [Fraction(x) for x in w["v"]]
        assert (len(u), len(v), w["r"]) == (n, n - 1, r) and v[-1] == u[-1]

    def test_n_range(self):
        with pytest.raises(ValueError):
            residue_check(1)


class TestBinomialDegeneration:
    def test_up_to_ten(self):
        assert identities._BINOMIAL_N_MAX == 10
        assert binomial_limit_check() is None

    def test_planted_error_gives_witness(self, monkeypatch):
        # S~'_2 off by exactly 1 at alpha = 0: the first failure is n = 2, r = 2,
        # where S~'_2 of one v is the empty sum 0, so it reads 1
        plant(monkeypatch, lambda r, form, residue: form == "primed_Stilde" and r == 2)
        w = binomial_limit_check(seed=7)
        assert (w["n"], w["r"], w["S"], w["Stilde"]) == (2, 2, "1", "1")
        u, v = [Fraction(x) for x in w["u"]], [Fraction(x) for x in w["v"]]
        assert len(u) == 2 and sum_S(2, u, v, Fraction(0), "primed_S") == 1


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
        assert all(substitution_check(seed) is None for seed in (0, 7, 1009))
        plant(monkeypatch, lambda r, form, residue: form == "unprimed_S" and r == 2)
        w = substitution_check(7)
        assert (w["r"], w["form"]) == (2, "S")
        assert Fraction(w["unprimed"]) - Fraction(w["primed"]) == 1
        # the primed side is the true value at the witness point
        u, v, alpha = substitution_map([Fraction(x) for x in w["lam"]],
                                       [Fraction(x) for x in w["nu"]], Fraction(w["g"]))
        assert sum_S(2, u, v, alpha, "primed_S") == Fraction(w["primed"])


class TestWork:
    def test_exact_batteries_run_no_gcd(self, monkeypatch):
        # Fraction arithmetic reduces by math.gcd after every operation; the
        # integer engine reduces only a witness or a returned value
        calls, gcd = [0], math.gcd

        def counting(*args):
            calls[0] += 1
            return gcd(*args)

        monkeypatch.setattr(math, "gcd", counting)
        monkeypatch.setattr(identities, "_LEMMA1_TRIALS", 20)
        assert verify_lemma1(5, seed=7) == dict.fromkeys(range(1, 6))
        lemma1, calls[0] = calls[0], 0
        assert binomial_limit_check(seed=7) is None
        assert lemma1 <= 10 and calls[0] <= 10, (lemma1, calls[0])

