"""Command-line front end: report shape, determinism, exit-status contract."""

import hashlib
import json
import math
from dataclasses import fields

import pytest

from bispectral import cli, macdonald
from bispectral.cli import (_DEFAULT_TOLS, EXACT, VALUE, RunConfig, checks,
                            format_complex, main, parse_complex, run)
from bispectral.macdonald import LaurentPolynomial, MacdonaldParams, TorusPoint


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reports_of(stdout):
    return [json.loads(line) for line in stdout.strip().splitlines()]


def report_digest(reports):
    lines = []
    for rep in reports:
        payload = json.loads(rep.to_json())
        payload.pop("wall_time")
        lines.append(json.dumps(payload, sort_keys=True))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def reaches_n2(rep):
    return rep.check_id.startswith("oracle.") or ".n2." in rep.check_id


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
        assert config.tol("dual") == 1e-5
        assert config.tol("oracle.spread") == 1e-6
        assert all(config.tol(key) == tol for key, tol in _DEFAULT_TOLS.items())

    def test_every_field_is_one_flag(self):
        # RunConfig's fields and the parser's flags correspond one to one
        flags = {action.dest for action in cli._build_parser()._actions}
        assert flags - {"help", "command", "config"} == {f.name for f in fields(RunConfig)}


class TestExitStatus:
    def test_pass_is_zero(self, capsys):
        code, out, _ = run_main(capsys, ["check-identities", "--n-max", "3",
                                         "--trials", "5", "--seed", "3"])
        assert code == 0
        assert all(rep["status"] == "pass" for rep in reports_of(out))

    def test_failure_is_one(self, capsys, monkeypatch):
        # force a failure with an unreachable gate
        monkeypatch.setitem(cli._DEFAULT_TOLS, "dual", 1e-30)
        code, out, _ = run_main(capsys, ["check-dual"])
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
        # a NaN draw makes the worst-of residual NaN, and a NaN fails its gate
        check = ("probe", {}, "dual", cli._worst(lambda v: v, [(1e-15,), (math.nan,)]))
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

    def test_config_error_is_two(self, capsys):
        code, _, err = run_main(capsys, ["check-dual", "--lambda", "whoops"])
        assert code == 2
        assert "config error" in err

    def test_unknown_config_key_is_two(self, capsys, tmp_path):
        # a config that sets a fixed half-width or a gate is an old one: it fails
        # loudly and prints no report
        for key, value in (("coupling", 2.0), ("half_width", 8.0),
                           ("tolerances", {"dual": 1.0})):
            bad = tmp_path / "conf.json"
            bad.write_text(json.dumps({"g": 1.5, key: value}))
            code, out, err = run_main(capsys, ["check-dual", "--config", str(bad)])
            assert code == 2 and not out
            assert f"unknown config keys: ['{key}']" in err

    def test_infeasible_domain_is_three(self, capsys):
        for g in ("1.0", "0.5"):
            code, _, err = run_main(capsys, ["check-dual", "--g", g])
            assert code == 3
            assert "infeasible" in err

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
        # values that would make a check vacuous
        (["check-identities", "--trials", "0"], "trials"),
        (["check-identities", "--trials", "-3"], "trials"),
        (["compare-oracle", "--grid", "1"], "grid"),
        (["compare-oracle", "--grid", "0"], "grid"),
        (["check-identities", "--n-max", "0"], "n_max"),
        # default_contour refuses it for check-dual as for check-sutherland
        (["check-dual", "--g", "-1"], "coupling"),
    ])
    def test_invalid_value_is_two(self, capsys, argv, name):
        code, _, err = run_main(capsys, argv)
        assert code == 2
        assert f"config error: {name} " in err

    def test_internal_error_is_four(self, capsys, monkeypatch):
        # an exception that is neither a domain nor a config error, inside a check
        def fault():
            raise RuntimeError("broken check")

        def broken(config):
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
        # a fixed half-width is not a setting
        for flag in (["--not-a-flag"], ["--half-width", "8"]):
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
        monkeypatch.setitem(cli._DEFAULT_TOLS, "dual", 1e-30)
        _, out, _ = run_main(capsys, ["check-dual"])
        failed = [rep for rep in reports_of(out) if rep["status"] == "fail"]
        assert failed and all("witness" in rep for rep in failed)
        assert failed[0]["witness"]["tolerance"] == 1e-30

    @pytest.mark.parametrize("command, config, want", [
        ("all", RunConfig(seed=7),
         "0cf7b0919b489e9565a07ea2922b809aa8bc9dd9a44d6f5676c06797c152ddd3"),
        ("all", RunConfig(seed=1),
         "63637a93e3df26473f9f44731bfe7557c14b8d22ca086d1dbb250bec9cf39171"),
        ("all", RunConfig(seed=1009),
         "5d452ed25b0a33057a8ace3de8d13210a84e2618fffd0187091b1e81cd065e48"),
        ("check-identities", RunConfig(n_max=6, seed=7),
         "c9ce130a9ab1e645f2066929ce978a7e921de2957b3a9e077396a37b7cd9a9f7")],
        ids=["all-seed-7", "all-seed-1", "all-seed-1009", "identities-n-max-6"])
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
            "f34af553743ee8a62b1a2ed515aae89cf5caf457983d16eb37544688f295f3de")

    def test_n2_digest(self):
        # the seven oracle and n = 2 reports of `all --seed 7`: work on the n = 3
        # kernels leaves these bytes as they are
        _, reports = run("all", RunConfig(seed=7))
        n2 = [rep for rep in reports if reaches_n2(rep)]
        assert len(n2) == 7
        assert report_digest(n2) == (
            "55463f51db7068a1d798a82c7e5a1abd4d37bf1f1ccfcf29f3eadd2d8741d623")

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

    def test_all_runs_everything(self, capsys):
        code, out, _ = run_main(capsys, ["all", "--trials", "20", "--n-max", "4"])
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
        config = RunConfig(n_max=3, trials=2)
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
        status, reports = run("check-identities",
                              RunConfig(n_max=2, trials=5, seed=1))
        assert status == 0
        assert all(rep.status == "pass" for rep in reports)

    def test_run_rejects_unknown_command(self):
        with pytest.raises(ValueError):
            run("explode", RunConfig())
