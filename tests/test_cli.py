"""Command-line front end: report shape, determinism, exit-status contract."""

import json
import math
import random
import sys
from dataclasses import fields
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "perfbench"))

from bispectral import cli, identities, macdonald, sutherland_ops, wavefn  # noqa: E402
from bispectral.cli import (_DEFAULT_TOLS, EXACT, VALUE, RunConfig, checks,  # noqa: E402
                            format_complex, main, parse_complex, run)
from bispectral.dual_ops import apply_dual_hamiltonian  # noqa: E402
from bispectral.macdonald import LaurentPolynomial, MacdonaldParams, TorusPoint  # noqa: E402
from bispectral.sutherland_ops import apply_H1, apply_H2, apply_reduced_HS  # noqa: E402
from workloads import report_digest  # noqa: E402


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reports_of(stdout):
    return [json.loads(line) for line in stdout.strip().splitlines()]


def reaches_n2(rep):
    return rep.check_id.startswith("oracle.") or ".n2." in rep.check_id


def shrink_identities(monkeypatch, n_max, trials):
    # the identity family at n <= n_max (residues at n <= min(n_max, 4)) on `trials`
    # points per Lemma 1 check: the same checks at a smaller size, for speed
    monkeypatch.setattr(identities, "_LEMMA1_FAMILY_N_MAX", n_max)
    monkeypatch.setattr(identities, "_RESIDUE_FAMILY_N_MAX", min(n_max, 4))
    monkeypatch.setattr(identities, "_LEMMA1_TRIALS", trials)


def true_side(family, w):
    """Whether the unplanted side of an identity witness is sum_S at its residues
    mod its modulus (a planted side is off by 1 there)."""
    p = w["modulus"]

    def mod(x):
        return x.numerator * pow(x.denominator, -1, p) % p

    if family == "lemma1":
        return w["lhs"] == mod(identities.sum_S(w["r"], w["u"], w["v"], w["alpha"]))
    if family == "residue":
        u, v, alpha, r = w["u"], w["v"], w["alpha"], w["r"]
        weight = alpha * math.prod(Fraction(u[-1] - c - s, u[-1] - c)
                                   for s, cs in ((alpha, u[:-1]), (-alpha, v[:-1])) for c in cs)
        return all(side["predicted"] == mod(weight * identities.sum_S(
            r - 1, u[:-1], v[:-1], alpha, "primed" + form))
                   for form, side in (("_S", w.get("s_side")), ("_Stilde", w.get("stilde_side")))
                   if side)
    if family == "binomial":
        return w["S"] == mod(identities.sum_S(w["r"], w["u"], w["v"], 0) + 1)
    u, v, alpha = identities.substitution_map(w["lam"], w["nu"], w["g"])
    return w["primed"] == mod(identities.sum_S(w["r"], u, v, alpha, "primed_" + w["form"]))


def strict_json(line):
    def refuse(name):
        raise ValueError(f"{name} is not strict JSON")
    return json.loads(line, parse_constant=refuse)


def strip_wall_time(stdout):
    out = []
    for rep in reports_of(stdout):
        rep.pop("wall_time")
        out.append(json.dumps(rep, sort_keys=True))
    return "\n".join(out)


class TestComplexCodec:
    def test_parse(self):
        assert parse_complex("0:0.7") == 0.7j
        assert parse_complex("-1.5:2") == complex(-1.5, 2.0)

    def test_parse_error(self):
        with pytest.raises(ValueError):
            parse_complex("1+2j")

    def test_round_trip(self):
        z = complex(0.1, -2.25)
        assert parse_complex(format_complex(z)) == z


class TestRunConfig:
    def test_size_consistency(self):
        with pytest.raises(ValueError):
            RunConfig(n=3, lam=(1j, 2j), x=(0.1, 0.2))

    def test_tolerance_lookup(self):
        # the gates are constants: tol reads _DEFAULT_TOLS whatever the config
        config = RunConfig(g=2.0, seed=3)
        assert config.tol("dual") == 1e-7
        assert config.tol("oracle.spread") == 1e-6
        assert all(config.tol(key) == tol for key, tol in _DEFAULT_TOLS.items())

    def test_every_field_is_one_flag(self):
        # RunConfig's fields and the parser's flags correspond one to one
        flags = {action.dest for action in cli._build_parser()._actions}
        assert flags - {"help", "command", "config"} == {f.name for f in fields(RunConfig)}


class TestExitStatus:
    def test_pass_is_zero(self, capsys, monkeypatch):
        shrink_identities(monkeypatch, 3, 5)
        code, out, _ = run_main(capsys, ["check-identities", "--seed", "3"])
        assert code == 0
        assert all(rep["status"] == "pass" for rep in reports_of(out))

    def test_failure_is_one(self, capsys, monkeypatch):
        # force a failure with an unreachable gate, on a check that reports no round-off
        # floor: one that does is refused there instead (test_a_tighter_gate_moves_its_refusal)
        monkeypatch.setitem(cli._DEFAULT_TOLS, "gauge.relation", 1e-30)
        code, out, _ = run_main(capsys, ["check-gauge"])
        assert code == 1
        assert any(rep["status"] == "fail" for rep in reports_of(out))

    def test_planted_tau_error_is_one(self, monkeypatch):
        # a 1e-8 relative error in the reduced action fails macdonald.tau
        reduced = macdonald._reduced_action
        monkeypatch.setattr(macdonald, "_reduced_action", lambda f, z, g: tuple(
            (1.0 + 1e-8) * v for v in reduced(f, z, g)))
        code, reports = run("check-macdonald", RunConfig())
        assert code == 1
        assert [rep.check_id for rep in reports if rep.status == "fail"] == ["macdonald.tau"]

    def test_nan_residual_is_one(self):
        # a NaN draw makes the worst-of residual NaN, and a NaN fails its gate; the
        # report and its witness write it as the string "nan", so the line is strict JSON
        check = ("probe", {}, "dual", cli._worst(lambda v: v, [(1e-15,), (math.nan,)]))
        rep = cli._report(RunConfig(), check)
        assert math.isnan(rep.residual) and rep.status == "fail"
        payload = strict_json(rep.to_json())
        assert payload["residual"] == payload["witness"]["residual"] == "nan"

    def test_non_finite_floats_are_strings(self):
        rep = cli.CheckReport("probe", {"x": [math.inf, 0.5]}, "fail", residual=-math.inf)
        payload = strict_json(rep.to_json())
        assert payload["residual"] == "-inf" and payload["inputs"]["x"] == ["inf", 0.5]

    def test_nan_draw_of_a_stack_is_nan(self):
        # _worst reduces a stacked draw's residuals too: the second point sits on a
        # measure pole on both sides of its shift, and its NaN is the worst
        lams = [(0.3j, -0.4j, 1.1j), (2.0 + 1.3j, 1.3j, -0.5j)]
        check = ("probe", {}, "measures.diffeq",
                 cli._worst(cli.measure_shift_residual, [(lams, [0, 2], 1.35, "mu_g")]))
        rep = cli._report(RunConfig(), check)
        assert math.isnan(rep.residual) and rep.status == "fail"

    def test_nan_commutator_is_nan(self):
        f = LaurentPolynomial(2, {(1, 0): math.nan})
        assert math.isnan(cli._commutator_residual(
            MacdonaldParams(0.3, 0.7), TorusPoint((1.1, 0.8)), f))

    def test_nan_dual_system_fails(self, monkeypatch):
        monkeypatch.setattr(cli, "dual_system_residuals", lambda *args: (1e-15, math.nan))
        _, reports = run("check-legendre", RunConfig())
        (rep,) = [rep for rep in reports if rep.check_id == "legendre.dual_system"]
        assert math.isnan(rep.residual) and rep.status == "fail"

    @pytest.mark.parametrize("family, wrong, point", [
        ("lemma1", lambda alpha, form, residue: form == "primed_Stilde" and alpha.all(),
         {"u", "v", "alpha"}),
        ("residue", lambda alpha, form, residue: residue, {"u", "v", "alpha"}),
        ("binomial", lambda alpha, form, residue: not alpha.any(), {"n", "r", "u", "v"}),
        ("substitution", lambda alpha, form, residue: form.startswith("unprimed"),
         {"lam", "nu", "g", "r"})])
    def test_planted_exact_error_is_one(self, capsys, monkeypatch, family, wrong, point):
        # every order of every subset sum of the planted kind off by exactly 1 (its
        # numerator gains the common denominator): the family's checks fail, and
        # each witness names the point where its identity failed, in residues mod
        # its modulus, where sum_S gives the true side
        subset_sums = identities._subset_sums

        def planted(u, v, alpha, form, residue=False):
            totals, common = subset_sums(u, v, alpha, form, residue)
            if wrong(np.asarray(alpha), form, residue):
                totals = (totals + common[:, None]) % identities._P
            return totals, common

        monkeypatch.setattr(identities, "_subset_sums", planted)
        shrink_identities(monkeypatch, 3, 3)
        code, out, _ = run_main(capsys, ["check-identities"])
        assert code == 1
        failed = [rep for rep in reports_of(out)
                  if rep["check_id"].startswith(f"identities.{family}")]
        assert failed and all(rep["status"] == "fail" and not rep["exact_pass"]
                              and point | {"modulus"} <= set(rep["witness"]) for rep in failed)
        for rep in failed:
            assert true_side(family, rep["witness"])

    @pytest.mark.parametrize("command", ["check-sutherland", "check-dual"])
    @pytest.mark.parametrize("im", ["1e18", "1e300"])
    def test_unresolvable_spectral_parameter_is_three(self, capsys, command, im):
        # every grid node rounds to the same value there, so the integrand is flat:
        # its tail cannot pass, and no residual is reported
        code, out, err = run_main(capsys, [command, "--lambda", f"0:{im},0:-0.3"])
        assert code == 3 and not out
        assert "infeasible" in err

    @pytest.mark.parametrize("margin", [1e-1, 1e-2, 1e-3, 1e-4, 1e-5, 1e-6])
    @pytest.mark.parametrize("n", ["2", "3"])
    def test_small_pole_margin_passes_or_is_three(self, capsys, monkeypatch, n, margin):
        # g = 1 + margin puts the shifted contour margin off its poles, and the step
        # follows it down; a grid over the node budget (a level-1 line may take it twice)
        # is refused before it is built, so no call here builds one, and the budget bounds
        # each call's work
        grid = wavefn._grid

        def guarded(center, half_width, step):
            assert 2 * math.ceil(half_width / step) + 1 < 2 * wavefn._MAX_NODES
            return grid(center, half_width, step)
        monkeypatch.setattr(wavefn, "_grid", guarded)
        code, out, err = run_main(capsys, ["check-dual", "--n", n, "--g", repr(1.0 + margin)])
        assert code == 0 or code == 3 and not out and "above the budget" in err

    @pytest.mark.parametrize("argv", [
        # Phi's scale e^(Re(sum lambda) x) past the double range, refused before any
        # quadrature: unrefused, these overflow in cmath.exp, give a NaN residual, pass on
        # underflowed values, fail an n = 3 tail test amid numpy overflow warnings, and
        # print -inf:nan as a value
        ["check-dual", "--x", "400,399.6"],
        ["check-dual", "--x", "300,299.6"],
        ["check-dual", "--x=-400,-400.6"],
        ["check-dual", "--n", "3", "--x=150,149.8,149.6"],
        ["eval-phi", "--lambda", "0.5:0.7,0:-0.3", "--x", "1500,1499.6"],
        # every Phi in range, but e_r(e^{2x}) not: an e^{2x_i} past cmath.exp's range, an
        # e_r below the normal range and an e_3 product that overflows to inf
        ["check-dual", "--lambda=-0.5:0.7,-0.5:-0.3", "--x", "355.5,355.1", "--g", "3",
         "--r", "1"],
        ["check-dual", "--lambda=-0.5:0.7,-0.5:-0.3", "--x=-355,-355.4", "--g", "3",
         "--r", "1"],
        ["check-dual", "--lambda=-1:0.9,-1:0.1,-1:-0.6", "--x", "120.45,120,119.6",
         "--g", "3", "--r", "3"],
    ])
    def test_scale_out_of_range_is_three(self, capsys, argv):
        code, out, err = run_main(capsys, argv)
        assert code == 3 and not out
        assert err.startswith("infeasible: ") and "range" in err

    def test_eigenvalue_overflow_names_e_r_and_x(self, capsys):
        # e^{2 x_1} = e^711 overflows in cmath.exp; the refusal names e_r and x, as the
        # refusal of an e_r below the normal range does
        code, out, err = run_main(capsys, ["check-dual", "--lambda=-0.5:0.7,-0.5:-0.3",
                                           "--x", "355.5,355.1", "--g", "3", "--r", "1"])
        assert code == 3 and not out
        assert err == "infeasible: e_1(e^(2x)) = inf is out of range at x = (355.5, 355.1)\n"

    @pytest.mark.parametrize("argv", [
        ["check-dual", "--n", "3", "--x=20,19.8,19.6"],
        ["check-sutherland", "--lambda", "0.5:0.7,0:-0.3", "--x", "800,799.6"]])
    def test_large_coordinates_in_range_pass(self, capsys, argv):
        code, out, _ = run_main(capsys, argv)
        assert code == 0 and all(rep["status"] == "pass" for rep in reports_of(out))

    def test_config_error_is_two(self, capsys):
        code, _, err = run_main(capsys, ["check-dual", "--lambda", "whoops"])
        assert code == 2
        assert "config error" in err

    def test_unknown_config_key_is_two(self, capsys, tmp_path):
        # a config that sets a fixed half-width, a tail tolerance, a gate, the step, the
        # Lemma 1 trials or the identity sizes is an old one, and "lam" is no second
        # spelling of "lambda" (it would skip the re:im parser): each fails loudly and
        # prints no report
        for key, value in (("coupling", 2.0), ("half_width", 8.0), ("tail_tol", 1e-13),
                           ("tolerances", {"dual": 1.0}), ("step", 0.1), ("trials", 100),
                           ("n_max", 5), ("lam", [0.7, -0.3])):
            bad = tmp_path / "conf.json"
            bad.write_text(json.dumps({"g": 1.5, key: value}))
            code, out, err = run_main(capsys, ["check-dual", "--config", str(bad)])
            assert code == 2 and not out
            assert f"unknown config keys: ['{key}']" in err

    def test_infeasible_domain_is_three(self, capsys):
        # the shifted terms' line Re = 1 has margin g - 1 <= 0: refused, naming the line
        # and its margin, with no report
        for g, margin in (("1.0", "0"), ("0.5", "-0.5")):
            code, out, err = run_main(capsys, ["check-dual", "--g", g])
            assert code == 3 and not out
            assert "infeasible: the line Re = 1.0 " in err and f"(margin {margin})" in err

    @pytest.mark.parametrize("g", ["0.5", "1.0"])
    def test_n1_dual_runs_at_every_g(self, capsys, g):
        # n = 1 has no contour level: H_1 e^{lambda x} = e^{2x} e^{lambda x} at every g,
        # while n = 2 at g = 1 still has no separating line
        code, out, _ = run_main(capsys, ["check-dual", "--n", "1", "--g", g])
        assert code == 0 and all(rep["residual"] <= 1e-14 for rep in reports_of(out))
        assert run_main(capsys, ["check-dual", "--n", "2", "--g", "1.0"])[0] == 3

    @pytest.mark.parametrize("g", ["15", "20", "30"])
    def test_tau_resolves_large_coupling(self, capsys, g):
        # the radius shrinks with the exponential type of the fitted function, so these
        # correct operators pass; at the fixed radius 0.05 they read 2.9e-10 ... 0.13
        code, out, _ = run_main(capsys, ["check-macdonald", "--g", g])
        assert code == 0 and all(rep["status"] == "pass" for rep in reports_of(out))

    @pytest.mark.parametrize("command", ["check-measures", "check-gauge"])
    def test_shift_law_floor_past_the_gate_is_three(self, capsys, command):
        # at g = 1000 the log weights reach 3.5e4, whose round-off alone nears the gates;
        # at g = 10 the same draws pass
        code, out, err = run_main(capsys, [command, "--g", "1000"])
        assert code == 3 and not out and "round-off floor" in err
        code, out, _ = run_main(capsys, [command, "--g", "10"])
        assert code == 0 and all(rep["status"] == "pass" for rep in reports_of(out))

    def test_tau_floor_past_the_gate_is_three(self, capsys):
        code, out, err = run_main(capsys, ["check-macdonald", "--g", "100"])
        assert code == 3 and not out and "floor" in err

    @pytest.mark.parametrize("argv, check_id", [
        (["check-sutherland", "--x", "0.3000005,0.2999995"], "sutherland.n2.h1"),
        (["check-sutherland", "--g", "20", "--x", "0.30005,0.29995"], "sutherland.n2.h2")])
    def test_sutherland_floor_past_the_gate_is_three(self, capsys, argv, check_id):
        # two coordinates 1e-6 and 1e-4 apart: H2's terms cancel by factors of 1.5e13 and
        # 2.8e11, and it read 1.06e-3 and 8.05e-5 on correct values.  At 1e-6 H1, which
        # runs first, is refused already (its factor 7.5e6 gives a floor of 1.3e-8 past
        # 1e-8); at 1e-3 apart every check runs
        code, out, err = run_main(capsys, argv)
        assert code == 3 and not out
        assert f"infeasible: {check_id}" in err and "round-off floor" in err
        code, out, _ = run_main(capsys, ["check-sutherland", "--x", "0.3005,0.2995"])
        assert code == 0 and all(rep["status"] == "pass" for rep in reports_of(out))

    @pytest.mark.parametrize("argv, key, tighter", [
        # floors 2.8e-8, 3.7e-14 and 8.9e-12 against residuals 7.3e-10, 2.5e-14 and 1.1e-12
        (["check-sutherland", "--x", "0.3005,0.2995"], "sutherland.h2", 1e-7),
        (["check-gauge", "--g", "10"], "gauge.shift", 1e-13),
        (["check-macdonald", "--g", "30"], "macdonald.tau", 1e-11)])
    def test_a_tighter_gate_moves_its_refusal(self, capsys, monkeypatch, argv, key, tighter):
        # the library returns each floor and _report alone holds it against the gate, so
        # one tighter gate refuses where its floor passes a tenth of it, with no other edit,
        # though each residual would pass it; the other gates are untouched
        assert run_main(capsys, argv)[0] == 0
        monkeypatch.setitem(cli._DEFAULT_TOLS, key, tighter)
        code, out, err = run_main(capsys, argv)
        assert code == 3 and not out and "round-off floor" in err
        assert f"> {tighter / 10.0:.3g}" in err
        assert run_main(capsys, ["check-measures", "--g", "10"])[0] == 0

    def test_dual_floor_past_the_gate_is_three(self, capsys):
        # Im(lambda_1 - lambda_2) = 81 at g = 10: Phi's quadrature nodes cancel by 2e8, and
        # r = 2 read 1.6e-7 on correct values; at 40 apart both orders run
        code, out, err = run_main(capsys, ["check-dual", "--g", "10", "--lambda", "0:0,0:81",
                                           "--x", "0,1"])
        assert code == 3 and not out and "infeasible: dual.n2.r1: round-off floor" in err
        code, out, _ = run_main(capsys, ["check-dual", "--g", "10", "--lambda", "0:0,0:40",
                                         "--x", "0.5,-0.5"])
        assert code == 0 and all(rep["status"] == "pass" for rep in reports_of(out))

    @pytest.mark.parametrize("argv", [["check-dual", "--g", "0.01"],
                                      ["check-dual", "--n", "3", "--g", "0.05"]])
    def test_dual_refusal_names_the_shifted_line(self, capsys, argv):
        # the shifted points' line is checked before the base point's grid, whose node
        # budget these couplings also exceed
        code, out, err = run_main(capsys, argv)
        assert code == 3 and not out and "infeasible: the line Re = 1.0 " in err

    def test_coincident_coordinates_is_three(self, capsys):
        code, _, err = run_main(capsys, ["eval-phi", "--x", "0.4,0.4"])
        assert code == 3

    def test_window_violation_is_three(self, capsys):
        code, _, err = run_main(capsys, ["eval-phi", "--x", "1.6,-1.6"])
        assert code == 3

    def test_non_number_in_config_file_is_two(self, capsys, tmp_path):
        bad = tmp_path / "conf.json"
        bad.write_text(json.dumps({"g": "abc"}))
        code, _, err = run_main(capsys, ["check-dual", "--config", str(bad)])
        assert code == 2
        assert "config error: g " in err

    @pytest.mark.parametrize("argv, name", [
        (["check-dual", "--g", "nan"], "g"),
        (["check-dual", "--x", "nan,0.1"], "x"),
        (["eval-phi", "--lambda", "0:nan,0:-0.3"], "lambda"),
        (["check-dual", "--g", "inf"], "g"),
        (["check-dual", "--x", "0.4,-inf"], "x"),
        # values that would make a check vacuous
        (["compare-oracle", "--grid", "1"], "grid"),
        (["compare-oracle", "--grid", "0"], "grid"),
        # a non-finite real part, as well as an imaginary one
        (["eval-phi", "--lambda", "inf:0.7,0:-0.3"], "lambda"),
        # eval_phi refuses it for check-dual as for check-sutherland
        (["check-dual", "--g", "-1"], "coupling"),
        # sizes and seeds the checks would refuse only after running others
        (["all", "--n", "0"], "n"),
        (["all", "--seed", "-1"], "seed"),
        (["check-identities", "--seed", "-1"], "seed"),
        # a dual order outside 1..n, whatever the command
        (["all", "--r", "0"], "r"),
        (["all", "--r", "3"], "r"),
        (["check-sutherland", "--r", "5"], "r"),
        (["check-identities", "--r", "9"], "r"),
        (["check-dual", "--n", "3", "--r", "4"], "r"),
    ])
    def test_invalid_value_is_two(self, capsys, argv, name):
        code, out, err = run_main(capsys, argv)
        assert code == 2 and not out
        assert f"config error: {name} " in err

    @pytest.mark.parametrize("argv", [
        ["all", "--r", "0"], ["all", "--r", "3"], ["check-sutherland", "--r", "5"],
        ["check-identities", "--r", "9"]])
    def test_order_out_of_range_runs_no_check(self, capsys, monkeypatch, argv):
        # RunConfig refuses the order before any family runs: a check that ran,
        # the Lemma 1 pass included, would exit 4 here
        def ran(*args, **kw):
            raise RuntimeError("a check ran")

        monkeypatch.setattr(cli, "_report", ran)
        monkeypatch.setattr(cli, "verify_lemma1", ran)
        code, out, err = run_main(capsys, argv)
        assert code == 2 and not out
        assert "config error: r must be in 1..2, got " in err

    def test_internal_error_is_four(self, capsys, monkeypatch):
        # an exception that is neither a domain nor a config error, inside a check
        def fault():
            raise RuntimeError("broken check")

        def broken(config, lattice):
            return [("gauge.broken", {}, EXACT, fault)]

        registry = tuple((name, broken if name == "check-gauge" else family)
                         for name, family in cli.REGISTRY)
        monkeypatch.setattr(cli, "REGISTRY", registry)
        code, out, err = run_main(capsys, ["check-gauge"])
        assert code == 4 and not out
        assert "RuntimeError: broken check" in err

    def test_no_levels_is_two(self, capsys, tmp_path):
        path = tmp_path / "n0.json"
        path.write_text(json.dumps({"n": 0, "lambda": [], "x": []}))
        code, _, err = run_main(capsys, ["eval-phi", "--config", str(path)])
        assert code == 2 and "got n = 0" in err

    def test_missing_config_file_is_two(self, capsys):
        code, _, err = run_main(capsys, ["eval-phi", "--config", "/nonexistent.json"])
        assert code == 2

    def test_bad_flag_is_two(self, capsys):
        # a fixed half-width, a tail tolerance, the step, the Lemma 1 trials and the
        # identity sizes are not settings
        for flag in (["--not-a-flag"], ["--half-width", "8"], ["--tail-tol", "1e-4"],
                     ["--step", "0.1"], ["--trials", "100"], ["--n-max", "5"]):
            with pytest.raises(SystemExit) as excinfo:
                main(["check-dual", *flag])
            assert excinfo.value.code == 2
            assert not capsys.readouterr().out

    def test_unknown_tolerance_key_is_two(self, capsys):
        # every gate is a constant, so no tolerance key can be set from the command
        # line: the override fails loudly, names what it refused and prints no report
        with pytest.raises(SystemExit) as excinfo:
            main(["check-dual", "--tolerance", "dual.n2=1e-30"])
        assert excinfo.value.code == 2
        out, err = capsys.readouterr()
        assert not out
        assert "dual.n2" in err


class TestReports:
    def test_ndjson_shape(self, capsys):
        _, out, _ = run_main(capsys, ["check-sutherland"])
        reps = reports_of(out)
        assert len(reps) == 4
        for rep in reps:
            assert {"check_id", "inputs", "status", "residual",
                    "exact_pass", "wall_time"} <= set(rep)
            assert rep["inputs"]["g"] == 1.5

    def test_eval_phi_reports_value(self, capsys):
        code, out, _ = run_main(capsys, ["eval-phi"])
        assert code == 0
        (rep,) = reports_of(out)
        value = parse_complex(rep["value"])
        assert abs(value) > 0

    def test_failure_carries_witness(self, capsys, monkeypatch):
        monkeypatch.setitem(cli._DEFAULT_TOLS, "gauge.relation", 1e-30)
        _, out, _ = run_main(capsys, ["check-gauge"])
        failed = [rep for rep in reports_of(out) if rep["status"] == "fail"]
        assert failed and all("witness" in rep for rep in failed)
        assert failed[0]["witness"]["tolerance"] == 1e-30

    @pytest.mark.parametrize("command, config, want", [
        ("all", RunConfig(seed=7),
         "fad49cb78b7c49b21235fe16b86c6e3285ffe0667d6f291012fadb0a7bc87980"),
        ("all", RunConfig(seed=1),
         "592d6ace2fe9054ca2fc786d2003e7d79e5d692542a76668188561312dedd531"),
        ("all", RunConfig(seed=1009),
         "715ce7f993adb09e4d1fc02e523ee17cfcbd40615ecc932531eb0b0cc9e489eb")],
        ids=["all-seed-7", "all-seed-1", "all-seed-1009"])
    def test_report_digest(self, command, config, want):
        # sha256 of the NDJSON reports without wall_time, one per line: the
        # byte-determinism contract of each run
        _, reports = run(command, config)
        assert report_digest(reports) == want

    def test_non_n2_digest(self):
        # the reports of `all --seed 7` that no n = 2 evaluation reaches (the
        # n = 3, exact, gamma-product, Macdonald and Legendre families): work on
        # the n = 2 kernel leaves these bytes as they are
        _, reports = run("all", RunConfig(seed=7))
        rest = [rep for rep in reports if not reaches_n2(rep)]
        assert len(rest) == 48
        assert report_digest(rest) == (
            "07c3ed1454591c0023194efc27c46b0492c34a9ea855d840dc6c5051f03f1949")

    def test_n2_digest(self):
        # the seven oracle and n = 2 reports of `all --seed 7`: work on the n = 3
        # kernels leaves these bytes as they are
        _, reports = run("all", RunConfig(seed=7))
        n2 = [rep for rep in reports if reaches_n2(rep)]
        assert len(n2) == 7
        assert report_digest(n2) == (
            "d0576bae0c59cb5c4099b939a3a3dc5e71d0ed61db97a10d71a16eedca8048d1")

    def test_legendre_dual_system_digest(self):
        # the closed-form dual check, pinned on its own: it forms its relation through
        # dual_ops.dual_eigen_residual, as the dual.* checks do
        _, reports = run("all", RunConfig(seed=7))
        (rep,) = [rep for rep in reports if rep.check_id == "legendre.dual_system"]
        assert report_digest([rep]) == (
            "1ec34586b164f37cee8b64d88ba1fb02cccf3f86df1ec3e42bf8acd42133bea8")

    def test_oracle_shares_columns_bit_identically(self, monkeypatch):
        # compare-oracle passes one lattice dict to its grid; without it every
        # evaluation builds its own columns, and the ratios are the same bits
        config = RunConfig(n=2, grid=3)
        _, shared = run("compare-oracle", config)
        eval_phi = cli.eval_phi
        monkeypatch.setattr(cli, "eval_phi",
                            lambda *args, lattice, **kw: eval_phi(*args, **kw))
        _, alone = run("compare-oracle", config)
        assert report_digest(shared) == report_digest(alone)

    def test_determinism_excluding_wall_time(self, capsys):
        argv = ["check-measures", "--seed", "11"]
        _, out1, _ = run_main(capsys, argv)
        _, out2, _ = run_main(capsys, argv)
        assert strip_wall_time(out1) == strip_wall_time(out2)

    def test_determinism_under_thread_cap(self, capsys, monkeypatch):
        # every check runs on one thread: a BISPECTRAL_THREADS left in the
        # environment (perfbench/run.py still exports it) changes no report
        for argv in (["check-sutherland"], ["check-macdonald", "--seed", "2"]):
            monkeypatch.delenv("BISPECTRAL_THREADS", raising=False)
            _, out1, _ = run_main(capsys, argv)
            monkeypatch.setenv("BISPECTRAL_THREADS", "4")
            _, out2, _ = run_main(capsys, argv)
            assert strip_wall_time(out1) == strip_wall_time(out2)


class TestCommandCoverage:
    @pytest.mark.parametrize("argv", [
        ["eval-psi"],
        ["check-dual", "--n", "1", "--r", "1"],
        ["check-gauge", "--seed", "2"],
        ["check-measures", "--seed", "2"],
        ["check-macdonald", "--seed", "2"],
        ["compare-oracle", "--grid", "3"],
        ["check-legendre"],
    ])
    def test_command_passes(self, capsys, argv):
        code, out, _ = run_main(capsys, argv)
        assert code == 0
        assert all(rep["status"] == "pass" for rep in reports_of(out))

    def test_all_runs_everything(self, capsys, monkeypatch):
        shrink_identities(monkeypatch, 4, 20)
        code, out, _ = run_main(capsys, ["all"])
        assert code == 0
        ids = {rep["check_id"] for rep in reports_of(out)}
        # one representative per family, including the n = 3 leg
        for probe in ("identities.lemma1.n4r2", "oracle.ratio_spread",
                      "sutherland.n2.h2", "sutherland.n3.h2", "dual.n2.r1",
                      "dual.n3.r3", "gauge.relation.r2", "measures.sklyanin.mu_g",
                      "macdonald.tau", "legendre.recurrence"):
            assert probe in ids, probe

    def test_gauge_uses_the_given_coupling(self, capsys):
        code, out, _ = run_main(capsys, ["check-gauge", "--g", "0.8"])
        assert code == 0
        reps = reports_of(out)
        assert len(reps) == 4
        assert all(rep["inputs"]["g"] == 0.8 and rep["status"] == "pass" for rep in reps)


class TestRegistry:
    def test_every_tolerance_key_is_used(self):
        # `all` builds its n = 2 families at the default config and its n = 3
        # legs at the documented n = 3 config
        kinds = {kind for _, _, kind, _ in checks("all", RunConfig())}
        assert kinds - {EXACT, VALUE} == set(_DEFAULT_TOLS)

    def test_each_command_runs_a_part_of_all(self):
        config = RunConfig()
        ids = [check[0] for check in checks("all", config)]
        for command in ("check-identities", "compare-oracle", "check-sutherland",
                        "check-dual", "check-gauge", "check-measures",
                        "check-macdonald", "check-legendre"):
            own = [check[0] for check in checks(command, config)]
            assert own and set(own) <= set(ids), command
        assert len(ids) == len(set(ids))


class TestConfigSources:
    def test_file_plus_flag_override(self, capsys, tmp_path):
        conf = tmp_path / "conf.json"
        conf.write_text(json.dumps({
            "g": 2.0,
            "lambda": ["0:0.7", "0:-0.3"],
            "x": [0.4, -0.2],
            "seed": 5,
        }))
        _, out, _ = run_main(capsys, ["eval-phi", "--config", str(conf)])
        (rep,) = reports_of(out)
        assert rep["inputs"]["g"] == 2.0

        _, out2, _ = run_main(capsys, ["eval-phi", "--config", str(conf), "--g", "1.25"])
        (rep2,) = reports_of(out2)
        assert rep2["inputs"]["g"] == 1.25

    @pytest.mark.parametrize("n, from_file", [(1, False), (1, True), (3, False), (3, True)])
    def test_per_n_default_point(self, capsys, tmp_path, n, from_file):
        # an n of 1 or 3 without lambda and x runs at that size's default
        # point, whether the n comes from a flag or from the config file
        if from_file:
            conf = tmp_path / "conf.json"
            conf.write_text(json.dumps({"n": n}))
            argv = ["check-sutherland", "--config", str(conf)]
        else:
            argv = ["check-sutherland", "--n", str(n)]
        code, out, err = run_main(capsys, argv)
        assert code == 0, err
        reps = reports_of(out)
        assert len(reps) == 4
        lam, x = cli._POINT_DEFAULTS[n]
        assert all(rep["inputs"]["lambda"] == [format_complex(v) for v in lam]
                   and rep["inputs"]["x"] == list(x) for rep in reps)

    def test_run_api(self):
        status, reports = run("check-identities", RunConfig(seed=1))
        assert status == 0
        assert all(rep.status == "pass" for rep in reports)

    def test_lemma1_pass_is_shared_within_one_run_only(self, monkeypatch):
        # the Lemma 1 checks of one n share one pass, and the next run makes its
        # own: two runs call the subset-sum engine equally often, and report the
        # same checks with the same inputs in the same order
        calls, subset_sums = [0], identities._subset_sums

        def counting(*args, **kw):
            calls[0] += 1
            return subset_sums(*args, **kw)

        monkeypatch.setattr(identities, "_subset_sums", counting)
        counts, lemma1 = [], []
        for _ in range(2):
            calls[0] = 0
            status, reports = run("check-identities", RunConfig())
            assert status == 0
            counts.append(calls[0])
            lemma1.append([(rep.check_id, rep.inputs) for rep in reports
                           if rep.check_id.startswith("identities.lemma1.")])
        assert counts[0] == counts[1] > 0
        want = [(f"identities.lemma1.n{n}r{r}", {"n": n, "r": r, "trials": 100, "seed": 7})
                for n in range(1, 6) for r in range(1, n + 1)]
        assert lemma1[0] == lemma1[1] == want

    def test_point_tables_are_shared_within_one_run_only(self, monkeypatch):
        # every evaluation of one `all` gets one lattice dict, made by the run, which
        # builds each distinct n = 3 moments key once (the four Sutherland checks ask
        # for two, the three dual checks for one); the next run gets a new dict and
        # builds them again
        built, moments, lattices = [], wavefn._lattice_moments, []

        def counting(f, step, dx, M, m_max):
            built.append((f.size, step, dx, M, m_max))
            return moments(f, step, dx, M, m_max)

        monkeypatch.setattr(wavefn, "_lattice_moments", counting)
        for module in (wavefn, sutherland_ops):
            def recording(*args, many=module.eval_phi_many, **kwargs):
                lattices.append(kwargs["lattice"])
                return many(*args, **kwargs)
            monkeypatch.setattr(module, "eval_phi_many", recording)
        for _ in range(2):
            calls = len(lattices)
            run("all", RunConfig())
            lattice = lattices[calls]
            assert all(held is lattice for held in lattices[calls:])
            assert sum(key[0] == "moments" for key in lattice) == 3
        assert lattices[0] is not lattice
        assert len(set(built[:3])) == 3 and built == built[:3] * 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_shared_lattice_moves_no_residual(self, n):
        # check-sutherland and check-dual each share one lattice over their checks; each
        # residual is the one its operator gives called alone, with no lattice
        lam, x = cli._POINT_DEFAULTS.get(n, (RunConfig().lam, RunConfig().x))
        config = RunConfig(n=n, lam=lam, x=x)
        _, sutherland = run("check-sutherland", config)
        _, dual = run("check-dual", config)
        alone = [apply_H1(lam, x, config.g), apply_H2(lam, x, config.g),
                 apply_reduced_HS(lam, x, config.g, order=1),
                 apply_reduced_HS(lam, x, config.g, order=2)]
        alone += [apply_dual_hamiltonian(r, lam, x, config.g) for r in range(1, n + 1)]
        assert [rep.residual for rep in sutherland + dual] == [
            res.relative_residual for res in alone]

    def test_residue_pass_is_shared_per_n(self, monkeypatch):
        # one residue_check pass per n answers its r = 1..n checks: the residue and the
        # reduced sum of both forms, 4 engine calls for each of n = 2, 3, 4 (36 when
        # each of the 9 checks made its own)
        calls, subset_sums = [0], identities._subset_sums

        def counting(*args, **kw):
            calls[0] += 1
            return subset_sums(*args, **kw)

        monkeypatch.setattr(identities, "_subset_sums", counting)
        config = RunConfig()
        residue = [check for check in checks("check-identities", config)
                   if check[0].startswith("identities.residue.")]
        reports = [cli._report(config, check) for check in residue]
        assert len(reports) == 9 and all(rep.status == "pass" for rep in reports)
        assert calls[0] == 12

    def test_run_rejects_unknown_command(self):
        with pytest.raises(ValueError):
            run("explode", RunConfig())


class TestGapOneRatchet:
    """A relative error of +-eps planted in every value the n = 2 and n = 3 quadratures
    return (one seeded sign per value, in pass order; the n = 2 node sizes pass through)
    fails exactly these checks of `all --seed 7`.  A repeated call reads its first pass
    from the run's lattice, so the checks that share a pass share its planted value.  A
    later change may grow a set; shrinking one loosens a check."""

    N2 = ["dual.n2.r1", "dual.n2.r2", "oracle.ratio_spread",
          "sutherland.n2.h1", "sutherland.n2.h2", "sutherland.n2.hs1", "sutherland.n2.hs2"]

    @pytest.mark.parametrize("eps, want", [
        (1e-8, []),
        (1e-6, N2),
        (1e-5, N2 + ["dual.n3.r1", "dual.n3.r2", "dual.n3.r3"])])
    def test_failing_set(self, monkeypatch, eps, want):
        signs = random.Random(0)

        def plant(values):
            return [v * (1.0 + signs.choice((-1, 1)) * eps) for v in values]

        n2, n3 = wavefn._quantities_n2, wavefn._quantities_n3

        def planted_n2(*args):
            values, sizes = n2(*args)
            return plant(values), sizes

        monkeypatch.setattr(wavefn, "_quantities_n2", planted_n2)
        monkeypatch.setattr(wavefn, "_quantities_n3", lambda *args: plant(n3(*args)))
        _, reports = run("all", RunConfig(seed=7))
        assert sorted(rep.check_id for rep in reports if rep.status == "fail") == sorted(want)
