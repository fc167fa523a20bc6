"""Command-line front end: report shape, determinism, exit-status contract."""

import hashlib
import json

import pytest

from bispectral import cli
from bispectral.cli import (_DEFAULT_TOLS, EXACT, VALUE, RunConfig, checks,
                            format_complex, main, parse_complex, run)


def run_main(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def reports_of(stdout):
    return [json.loads(line) for line in stdout.strip().splitlines()]


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

    def test_tolerances_positive(self):
        with pytest.raises(ValueError):
            RunConfig(tolerances={"dual": -1.0})

    def test_tolerance_lookup(self):
        config = RunConfig(tolerances={"dual": 2e-4})
        assert config.tol("dual") == 2e-4
        assert config.tol("oracle.spread") == 1e-6


class TestExitStatus:
    def test_pass_is_zero(self, capsys):
        code, out, _ = run_main(capsys, ["check-identities", "--n-max", "3",
                                         "--trials", "5", "--seed", "3"])
        assert code == 0
        assert all(rep["status"] == "pass" for rep in reports_of(out))

    def test_failure_is_one(self, capsys):
        # force a failure with an unreachable tolerance
        code, out, _ = run_main(capsys, ["check-dual", "--tolerance", "dual=1e-30"])
        assert code == 1
        assert any(rep["status"] == "fail" for rep in reports_of(out))

    def test_config_error_is_two(self, capsys):
        code, _, err = run_main(capsys, ["check-dual", "--lambda", "whoops"])
        assert code == 2
        assert "config error" in err

    def test_unknown_config_key_is_two(self, capsys, tmp_path):
        bad = tmp_path / "conf.json"
        bad.write_text(json.dumps({"coupling": 2.0}))
        code, _, err = run_main(capsys, ["check-dual", "--config", str(bad)])
        assert code == 2

    def test_infeasible_domain_is_three(self, capsys):
        code, _, err = run_main(capsys, ["check-dual", "--g", "1.0"])
        assert code == 3
        assert "infeasible" in err

    def test_coincident_coordinates_is_three(self, capsys):
        code, _, err = run_main(capsys, ["eval-phi", "--x", "0.4,0.4"])
        assert code == 3

    def test_window_violation_is_three(self, capsys):
        code, _, err = run_main(capsys, ["eval-phi", "--x", "1.6,-1.6"])
        assert code == 3

    def test_unknown_tolerance_key_is_two(self, capsys):
        code, out, err = run_main(capsys, ["check-dual", "--tolerance", "dual.n2=1e-30"])
        assert code == 2 and not out
        assert "dual.n2" in err

    def test_non_number_in_config_file_is_two(self, capsys, tmp_path):
        bad = tmp_path / "conf.json"
        bad.write_text(json.dumps({"g": "abc"}))
        code, _, err = run_main(capsys, ["check-dual", "--config", str(bad)])
        assert code == 2
        assert "config error: g " in err

    @pytest.mark.parametrize("argv, name", [
        (["check-dual", "--g", "nan"], "g"),
        (["check-dual", "--x", "nan,0.1"], "x"),
        (["eval-phi", "--tolerance", "dual=inf"], "tolerances"),
        # values that would make a check vacuous or a grid unbounded
        (["check-identities", "--trials", "0"], "trials"),
        (["check-identities", "--trials", "-3"], "trials"),
        (["compare-oracle", "--grid", "1"], "grid"),
        (["compare-oracle", "--grid", "0"], "grid"),
        (["check-identities", "--n-max", "0"], "n_max"),
        (["check-sutherland", "--n", "3", "--half-width", "1000"], "half_width"),
        (["eval-phi", "--half-width", "1e300"], "half_width"),
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

    def test_missing_config_file_is_two(self, capsys):
        code, _, err = run_main(capsys, ["eval-phi", "--config", "/nonexistent.json"])
        assert code == 2

    def test_bad_flag_is_two(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["check-dual", "--not-a-flag"])
        assert excinfo.value.code == 2
        capsys.readouterr()


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

    def test_failure_carries_witness(self, capsys):
        _, out, _ = run_main(capsys, ["check-dual", "--tolerance", "dual=1e-30"])
        failed = [rep for rep in reports_of(out) if rep["status"] == "fail"]
        assert failed and all("witness" in rep for rep in failed)
        assert failed[0]["witness"]["tolerance"] == 1e-30

    def test_all_seed_7_digest(self):
        # sha256 of the NDJSON reports without wall_time, one per line: the
        # byte-determinism contract of `bispectral all --seed 7`
        _, reports = run("all", RunConfig(seed=7))
        lines = []
        for rep in reports:
            payload = json.loads(rep.to_json())
            payload.pop("wall_time")
            lines.append(json.dumps(payload, sort_keys=True))
        digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
        assert digest == "e3fb126c820252c302fecf8864f09f1e25e0bd562e605f3d1d945362a9f1bc6f"

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
