"""Command line checks: argument parsing, config merging, output
emission, and exit codes."""

import contextlib
import io
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bielastic
import bielastic.cli as cli
from bielastic.cli import main, parse_coefficient, parse_levels, \
    parse_tau_range


class TestParsers:
    def test_levels_range(self):
        assert parse_levels("1-3") == (1, 2, 3)

    def test_levels_list(self):
        assert parse_levels("1,2,4") == (1, 2, 4)
        assert parse_levels("2") == (2,)

    def test_tau_range(self):
        assert parse_tau_range("0.25:9.5") == (0.25, 9.5)

    def test_coefficient_constant(self):
        c = parse_coefficient("2.5")
        assert c(0.1, 0.9) == pytest.approx(2.5)

    def test_coefficient_expression(self):
        c = parse_coefficient("4 + x1 - x2")
        assert c(0.3, 0.1) == pytest.approx(4.2)


class TestRunExampleCommand:
    def test_table_output(self, capsys):
        assert main(["run-example", "3", "--level", "1"]) == 0
        out = capsys.readouterr().out
        assert "lambda_1" in out
        assert "example3" in out

    def test_csv_output(self, capsys):
        assert main(["run-example", "3", "--level", "1",
                     "--format", "csv"]) == 0
        out = capsys.readouterr().out
        assert out.startswith(
            "level,h,dofs,branch,value_re,value_im,order,residual,seconds"
        )
        assert len(out.strip().split("\n")) == 1 + 6

    def test_json_output(self, capsys):
        assert main(["run-example", "3", "--level", "1",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["meta"]["example"] == 3

    def test_unknown_example_exits_2(self, capsys):
        assert main(["run-example", "12", "--level", "1"]) == 2
        assert "error:" in capsys.readouterr().err

    def test_alpha_with_b3_exits_2(self, capsys):
        assert main(["run-example", "3", "--level", "1",
                     "--alpha", "0.5"]) == 2
        assert "morley" in capsys.readouterr().err

    def test_method_on_source_example_exits_2(self, capsys):
        assert main(["run-example", "1", "--level", "1",
                     "--method", "secant"]) == 2
        assert "transmission" in capsys.readouterr().err

    def test_level_cap_exits_2(self, capsys):
        assert main(["run-example", "3", "--levels", "1-5"]) == 2
        assert "cap" in capsys.readouterr().err

    def test_bad_levels_text_exits_2(self, capsys):
        assert main(["run-example", "3", "--levels", "abc"]) == 2
        assert "error:" in capsys.readouterr().err

    @pytest.mark.parametrize("source", ["flag", "config"])
    @pytest.mark.parametrize("levels", ["1-1000000000000", "1-30000000"])
    def test_huge_level_range_exits_2(self, tmp_path, source, levels):
        # the 2 GB address-space limit bounds the memory that a range
        # expanded before the cap check would take
        args = ["run-example", "3", "--format", "csv"]
        if source == "flag":
            args += ["--levels", levels]
        else:
            cfg = tmp_path / "cfg.json"
            cfg.write_text(json.dumps({"levels": levels}))
            args += ["--config", str(cfg)]
        proc = run_cli(*args, address_space=2 * 1024**3)
        assert proc.returncode == 2
        assert proc.stderr == (
            f"error: level {levels.split('-')[1]} exceeds the cap 4; "
            "pass big=True (--big) to allow level 5\n")

    def test_config_levels_list(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"levels": [2, 1]}))
        assert main(["run-example", "3", "--config", str(cfg),
                     "--format", "csv"]) == 0
        rows = capsys.readouterr().out.strip().split("\n")[1:]
        assert sorted({row.split(",")[0] for row in rows}) == ["1", "2"]

    @pytest.mark.parametrize("big, err", [
        (False, "error: level 5 exceeds the cap 4; "
                "pass big=True (--big) to allow level 5\n"),
        (True, "error: level 6 exceeds the cap 5\n"),
    ])
    def test_config_levels_list_over_cap_exits_2(self, tmp_path, capsys,
                                                 big, err):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"levels": [1, 6 if big else 5]}))
        argv = ["run-example", "3", "--config", str(cfg)]
        assert main(argv + ["--big"] * big) == 2
        assert capsys.readouterr().err == err

    @pytest.mark.parametrize("levels", [[1, "2"], [1, 2.0], [True], "1.5",
                                        {"lo": 1}])
    def test_config_levels_other_values_exit_2(self, tmp_path, capsys,
                                               levels):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"levels": levels}))
        assert main(["run-example", "3", "--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert err == (
            'error: levels must be a range "1-3", a comma list "1,2,4" or '
            f"a list of integers, got {levels!r}\n")

    def test_companion_over_cap_exits_2(self, capsys):
        assert main(["run-example", "9", "--levels", "5", "--big"]) == 2
        assert "companion dimension" in capsys.readouterr().err

    @pytest.mark.parametrize("number, k", [(9, "-1"), (9, "0"), (3, "0")])
    def test_k_below_one_exits_2(self, capsys, number, k):
        assert main(["run-example", str(number), "--levels", "2",
                     "--k", k]) == 2
        err = capsys.readouterr().err
        assert err == f"error: k must be at least 1, got {k}\n"

    @pytest.mark.parametrize("tau_range", ["5:1", "3:3", "nan:3", "1:inf"])
    def test_bad_tau_range_exits_2(self, tau_range):
        proc = run_cli("run-example", "6", "--levels", "1",
                       "--tau-range", tau_range)
        assert proc.returncode == 2
        assert proc.stderr.startswith("error: tau range needs finite ends")
        assert len(proc.stderr.strip().splitlines()) == 1

    def test_scan_without_roots_prints_the_header(self):
        proc = run_cli("run-example", "6", "--levels", "1",
                       "--tau-range", "0.25:1")
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[-1].split() == [
            "quantity", "L1", "(h=0.5)", "Ord"]
        assert "no transmission eigenvalue bracketed" in proc.stderr
        assert "Traceback" not in proc.stderr

    def test_each_level_reports_its_warnings(self):
        proc = run_cli("run-example", "6", "--levels", "1-2",
                       "--tau-range", "0.25:1", "--format", "json")
        assert proc.returncode == 0
        message = "no transmission eigenvalue bracketed in the scan range"
        assert proc.stderr.splitlines() == [
            f"warning: level {level}: {message}" for level in (1, 2)]
        assert json.loads(proc.stdout)["meta"]["warnings"] == [
            {"level": level, "message": message} for level in (1, 2)]

    @pytest.mark.parametrize("tau_range", ["-5:3", "-3:-5"])
    def test_negative_tau_range_reads_like_the_equals_form(self, tau_range):
        spaced = run_cli("run-example", "6", "--levels", "1",
                         "--tau-range", tau_range)
        joined = run_cli("run-example", "6", "--levels", "1",
                         f"--tau-range={tau_range}")
        assert "expected one argument" not in spaced.stderr
        assert spaced.returncode == joined.returncode
        assert spaced.stdout == joined.stdout
        assert spaced.stderr == joined.stderr

    def test_both_level_flags_rejected_by_parser(self):
        with pytest.raises(SystemExit) as err:
            main(["run-example", "3", "--level", "1", "--levels", "1-2"])
        assert err.value.code == 2


class TestOutputTargets:
    def test_directory_emission(self, tmp_path, capsys):
        target = tmp_path / "run"
        assert main(["run-example", "3", "--levels", "1-2",
                     "--out", str(target)]) == 0
        capsys.readouterr()
        names = {p.name for p in target.iterdir()}
        assert "report.csv" in names and "report.json" in names
        assert any(n.endswith(".dat") for n in names)
        csv_text = (target / "report.csv").read_text()
        assert csv_text.startswith("level,h,dofs,branch")
        json.loads((target / "report.json").read_text())

    def test_single_csv_file(self, tmp_path, capsys):
        target = tmp_path / "out.csv"
        assert main(["run-example", "3", "--level", "1",
                     "--out", str(target)]) == 0
        capsys.readouterr()
        assert target.read_text().startswith("level,h,dofs,branch")
        assert not (tmp_path / "report.json").exists()

    def test_single_json_file(self, tmp_path, capsys):
        target = tmp_path / "out.json"
        assert main(["run-example", "3", "--level", "1",
                     "--out", str(target)]) == 0
        capsys.readouterr()
        payload = json.loads(target.read_text())
        assert payload["meta"]["example"] == 3


class TestConfig:
    def test_config_supplies_missing_options(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": 1, "format": "csv"}))
        assert main(["run-example", "3", "--config", str(cfg)]) == 0
        out = capsys.readouterr().out
        assert out.startswith("level,h,dofs,branch")

    def test_cli_wins_over_config(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": 1, "format": "csv"}))
        assert main(["run-example", "3", "--config", str(cfg),
                     "--format", "json"]) == 0
        json.loads(capsys.readouterr().out)

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": 1, "beta": "1"}))
        assert main(["run-example", "3", "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    @pytest.mark.parametrize("command, key", [
        ("solve-source", "rho0"), ("solve-tep", "f1"),
    ])
    def test_option_of_another_command_is_unknown(self, tmp_path, capsys,
                                                  command, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({key: "1"}))
        assert main([command, "--config", str(cfg)]) == 2
        assert "unknown config key" in capsys.readouterr().err

    def test_config_must_be_object_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("[1, 2]")
        assert main(["run-example", "3", "--config", str(cfg)]) == 2
        assert "object" in capsys.readouterr().err

    def test_missing_config_file_exits_2(self, tmp_path, capsys):
        assert main(["run-example", "3",
                     "--config", str(tmp_path / "nope.json")]) == 2
        assert "error:" in capsys.readouterr().err

    def test_malformed_config_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["run-example", "3", "--config", str(cfg)]) == 2
        assert "error:" in capsys.readouterr().err

    def test_level_conflict_across_config_and_cli_exits_2(
        self, tmp_path, capsys
    ):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"level": 1}))
        assert main(["run-example", "3", "--config", str(cfg),
                     "--levels", "1-2"]) == 2
        assert "not both" in capsys.readouterr().err

    def test_dashed_config_keys_normalize(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "domain": "unit-square", "level": 1, "lam": 0.25, "mu": 0.25,
            "rho0": "0.05", "rho1": "3", "k": 2, "tau-range": "0.25:20",
        }))
        assert main(["solve-tep", "--config", str(cfg)]) == 0
        assert "lambda_1" in capsys.readouterr().out


class TestSolveCommands:
    def test_solve_source_expression_loads(self, capsys):
        assert main([
            "solve-source", "--domain", "unit-square", "--level", "1",
            "--lam", "0.25", "--mu", "0.0625",
            "--f1", "sin(pi*x1)*sin(pi*x2)", "--f2", "0",
        ]) == 0
        out = capsys.readouterr().out
        assert "quantity" in out and "l2" in out

    @pytest.mark.parametrize("argv, example", [
        (["solve-source", "--lam", "0.25", "--mu", "0.0625",
          "--f1", "sin(pi*x1)", "--f2", "x1*x2"],
         bielastic.ExampleDef(
             None, "source", "unit-square", 0.25, 0.0625, 0, beta=1.0,
             loads=(bielastic.Coefficient.expression("sin(pi*x1)"),
                    bielastic.Coefficient.expression("x1*x2")))),
        (["solve-bielastic", "--lam", "0.25", "--mu", "0.0625",
          "--beta", "2 + x1"],
         bielastic.ExampleDef(
             None, "bielastic", "unit-square", 0.25, 0.0625, 0,
             beta=bielastic.Coefficient.expression("2 + x1"))),
        (["solve-tep", "--lam", "0.25", "--mu", "0.25", "--rho0", "0.05",
          "--rho1", "3", "--method", "quadratic"],
         bielastic.ExampleDef(
             None, "tep", "unit-square", 0.25, 0.25, 0, rho0=0.05,
             rho1=3.0, method="quadratic", branches=10)),
    ], ids=["source", "bielastic", "tep"])
    def test_json_matches_the_library_run(self, capsys, argv, example):
        def drop_seconds(payload):
            for row in payload["rows"]:
                del row["seconds"]
            return payload

        assert main([*argv, "--domain", "unit-square", "--level", "1",
                     "--format", "json"]) == 0
        got = json.loads(capsys.readouterr().out)
        want = json.loads(
            bielastic.run_example(example, levels=(1,)).to_json())
        assert drop_seconds(got) == drop_seconds(want)

    def test_solve_source_requires_loads(self, capsys):
        assert main([
            "solve-source", "--domain", "unit-square", "--level", "1",
            "--lam", "0.25", "--mu", "0.0625",
        ]) == 2
        assert "--f1" in capsys.readouterr().err

    def test_solve_source_requires_domain(self, capsys):
        assert main([
            "solve-source", "--level", "1", "--lam", "0.25",
            "--mu", "0.0625", "--f1", "1", "--f2", "0",
        ]) == 2
        assert "--domain" in capsys.readouterr().err

    def test_solve_bielastic_minimal(self, capsys):
        assert main([
            "solve-bielastic", "--domain", "unit-square", "--level", "1",
            "--lam", "0.25", "--mu", "0.0625", "--k", "3",
        ]) == 0
        assert "lambda_1" in capsys.readouterr().out

    def test_solve_bielastic_weighted(self, capsys):
        assert main([
            "solve-bielastic", "--domain", "unit-square", "--level", "1",
            "--lam", "0.25", "--mu", "0.0625", "--k", "2",
            "--beta", "8 + x1 - x2",
        ]) == 0
        assert "lambda_1" in capsys.readouterr().out

    def test_solve_tep_secant(self, capsys):
        assert main([
            "solve-tep", "--domain", "unit-square", "--level", "1",
            "--lam", "0.25", "--mu", "0.25", "--rho0", "0.05",
            "--rho1", "3", "--k", "2",
        ]) == 0
        assert "lambda_1" in capsys.readouterr().out

    def test_solve_tep_quadratic(self, capsys):
        assert main([
            "solve-tep", "--domain", "unit-square", "--level", "1",
            "--lam", "0.25", "--mu", "0.25", "--rho0", "0.05",
            "--rho1", "3", "--k", "4", "--method", "quadratic",
        ]) == 0
        assert "lambda_1" in capsys.readouterr().out

    def test_solve_tep_tau_range_needs_the_secant_method(self, capsys):
        assert main([
            "solve-tep", "--domain", "unit-square", "--level", "1",
            "--lam", "0.25", "--mu", "0.25", "--rho0", "0.05",
            "--rho1", "3", "--method", "quadratic", "--tau-range", "1:2",
        ]) == 2
        err = capsys.readouterr().err
        assert err == "error: tau_range applies only to the secant method\n"

    @pytest.mark.parametrize("method", ["secant", "quadratic"])
    def test_solve_tep_k_below_one_exits_2(self, capsys, method):
        assert main([
            "solve-tep", "--domain", "unit-square", "--level", "1",
            "--lam", "0.25", "--mu", "0.25", "--rho0", "0.05",
            "--rho1", "3", "--k", "-2", "--method", method,
        ]) == 2
        assert "k must be at least 1" in capsys.readouterr().err

    def test_solve_bielastic_k_below_one_exits_2(self, capsys):
        assert main([
            "solve-bielastic", "--domain", "unit-square", "--level", "1",
            "--lam", "0.25", "--mu", "0.0625", "--k", "0",
        ]) == 2
        assert "k must be at least 1" in capsys.readouterr().err

    def test_solve_tep_invalid_densities_exit_2(self, capsys):
        assert main([
            "solve-tep", "--domain", "unit-square", "--level", "1",
            "--lam", "0.25", "--mu", "0.25", "--rho0", "0.5",
            "--rho1", "0.9", "--k", "2",
        ]) == 2
        assert "ordering" in capsys.readouterr().err

    @pytest.mark.parametrize("command, lam, mu", [
        ("solve-bielastic", "-0.5", "0.25"),
        ("solve-bielastic", "-1", "0"),
        ("solve-source", "-0.5", "0.25"),
        ("solve-bielastic", "nan", "0.25"),
        ("solve-bielastic", "0.25", "inf"),
        ("solve-tep", "0.25", "0"),
    ])
    def test_degenerate_lame_parameters_exit_2(self, capsys, command, lam,
                                               mu):
        extra = {
            "solve-source": ["--f1", "1", "--f2", "0"],
            "solve-bielastic": [],
            "solve-tep": ["--rho0", "0.05", "--rho1", "3"],
        }[command]
        assert main([
            command, "--domain", "unit-square", "--level", "2",
            "--lam", lam, "--mu", mu, *extra,
        ]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: Lame parameters need")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["solve-bielastic", "--beta", "-1"],
         "weight must be positive on the domain; its minimum is -1"),
        (["solve-bielastic", "--beta", "-1", "--element", "morley"],
         "weight must be positive on the domain; its minimum is -1"),
        (["solve-source", "--f1", "1", "--f2", "0", "--beta", "0"],
         "weight must be positive on the domain; its minimum is 0"),
        (["solve-tep", "--rho0", "-1", "--rho1", "3"],
         "density rho0 must be positive on the domain; its minimum is -1"),
        (["solve-tep", "--rho0", "-1", "--rho1", "3", "--element", "morley"],
         "density rho0 must be positive on the domain; its minimum is -1"),
        (["solve-bielastic", "--k", "2", "--beta", "1e308*x1*x1+1"],
         "assembled form is not finite on the domain"),
        (["solve-source", "--f1", "1", "--f2", "0", "--beta", "1e-300"],
         "error norm is not finite on the domain"),
    ])
    def test_inadmissible_weights_exit_2(self, capsys, argv, message):
        """A weight or density that is not positive, a finite weight whose
        form overflows, or one so small that the solution's norms overflow,
        ends with one line naming it."""
        command, *extra = argv
        assert main([
            command, "--domain", "unit-square", "--level", "1",
            "--lam", "0.25", "--mu", "0.0625", *extra,
        ]) == 2
        assert capsys.readouterr().err == f"error: {message}\n"


class TestDumpMesh:
    def test_stdout(self, capsys):
        assert main(["dump-mesh", "--domain", "right-triangle",
                     "--level", "1"]) == 0
        out = capsys.readouterr().out
        assert out.startswith("vertices 6")
        assert "triangles 4" in out

    def test_file_output(self, tmp_path, capsys):
        target = tmp_path / "mesh.txt"
        assert main(["dump-mesh", "--domain", "unit-square", "--level", "2",
                     "--out", str(target)]) == 0
        capsys.readouterr()
        assert target.read_text().startswith("vertices")

    def test_requires_domain_and_level(self, capsys):
        assert main(["dump-mesh", "--level", "1"]) == 2
        assert main(["dump-mesh", "--domain", "unit-square"]) == 2
        capsys.readouterr()

    def test_level_is_one_based(self, capsys):
        assert main(["dump-mesh", "--domain", "unit-square",
                     "--level", "0"]) == 2
        assert "1-based" in capsys.readouterr().err
        assert main(["dump-mesh", "--domain", "unit-square",
                     "--level", "10"]) == 2
        assert capsys.readouterr().err == (
            "error: levels are 1-based, from 1 to 9\n")


class TestSelfTestCommand:
    def test_passes(self, capsys):
        assert main(["self-test"]) == 0
        out = capsys.readouterr().out
        assert "ok" in out and "FAIL" not in out

    def test_failure_exits_4(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "self_test", lambda stream=None: False)
        assert main(["self-test"]) == 4


class TestSolverFailures:
    def test_load_orthogonal_to_the_space_exits_0(self, capsys):
        assert main([
            "solve-source", "--domain", "right-triangle", "--level", "1",
            "--lam", "0.25", "--mu", "0.0625", "--f1", "1", "--f2", "0",
        ]) == 0

    def test_runtime_error_exits_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise RuntimeError("factorization failed")
        monkeypatch.setattr(cli, "run_example", boom)
        assert main(["run-example", "3", "--level", "1"]) == 3
        assert "solver failure" in capsys.readouterr().err

    def test_linalg_error_exits_3(self, capsys, monkeypatch):
        def boom(*args, **kwargs):
            raise np.linalg.LinAlgError("singular")
        monkeypatch.setattr(bielastic.harness, "TepBlocks", boom)
        assert main([
            "solve-tep", "--domain", "unit-square", "--level", "1",
            "--lam", "0.25", "--mu", "0.25", "--rho0", "0.05",
            "--rho1", "3",
        ]) == 3
        assert "solver failure" in capsys.readouterr().err


def run_cli(*args, address_space=None):
    """The CLI in a fresh interpreter, so stderr holds everything a user
    would see, warnings and tracebacks included; ``address_space`` caps
    its virtual memory in bytes."""
    src = str(Path(bielastic.__file__).resolve().parents[1])
    path = os.environ.get("PYTHONPATH")
    env = dict(os.environ,
               PYTHONPATH=src if not path else src + os.pathsep + path)
    limit = None
    if address_space is not None:
        def limit():
            resource.setrlimit(resource.RLIMIT_AS,
                               (address_space, address_space))
    return subprocess.run(
        [sys.executable, "-m", "bielastic.cli", *args],
        capture_output=True, text=True, env=env, timeout=300,
        preexec_fn=limit,
    )


class TestCoefficientErrors:
    """Expressions that cannot be evaluated, or give non-finite values on
    the domain, are specification errors: exit 2 with one stderr line."""

    EIG = ["solve-bielastic", "--domain", "unit-square", "--level", "1",
           "--lam", "0.25", "--mu", "0.0625", "--k", "2"]

    @pytest.mark.parametrize(
        "beta", ["1/0", "0*x1/(x1-x1)", "2**1100", "x1 +", "x1 + (-1)**0.5"]
    )
    def test_bad_weight_exits_2(self, beta):
        proc = run_cli(*self.EIG, "--beta", beta)
        assert proc.returncode == 2
        lines = proc.stderr.strip().splitlines()
        assert len(lines) == 1 and lines[0].startswith("error:")
        assert "Traceback" not in proc.stderr

    def test_non_finite_load_exits_2(self, capsys):
        assert main([
            "solve-source", "--domain", "unit-square", "--level", "1",
            "--lam", "0.25", "--mu", "0.0625",
            "--f1", "1/(x1-x1)", "--f2", "0",
        ]) == 2
        assert "load is not finite" in capsys.readouterr().err

    def test_non_finite_density_exits_2(self, capsys):
        assert main([
            "solve-tep", "--domain", "unit-square", "--level", "1",
            "--lam", "0.25", "--mu", "0.25", "--rho0", "0.05",
            "--rho1", "3 + 0*x1/(x1-x1)", "--k", "2",
        ]) == 2
        assert "not finite" in capsys.readouterr().err


# level strings that select level 1 or are rejected, so no draw runs a
# finer mesh
LEVEL_TEXT = st.just("1") | st.sampled_from(
    ["1-1", "1,1", "0", "0-1", "1-0", "-1", "5", "6", "x", "", "1,"]
)
K_TEXT = st.sampled_from([str(k) for k in range(-3, 41)] + ["x", "2.5"])
TAU_END = st.sampled_from(["nan", "inf", "-inf", "", "x"]) | st.floats(
    -20.0, 60.0).map(repr) | st.floats(0.0, 30.0).map(repr)
TAU_TEXT = st.tuples(TAU_END, TAU_END).map(":".join) | st.sampled_from(
    ["3", "1:2:3", ":"]
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(number=st.sampled_from(["6", "9"]), levels=LEVEL_TEXT,
       k=st.none() | K_TEXT, tau_range=st.none() | TAU_TEXT)
def test_run_example_exit_code_contract(number, levels, k, tau_range):
    """Every input ends in a documented exit code, never a traceback."""
    argv = ["run-example", number, f"--levels={levels}"]
    if k is not None:
        argv.append(f"--k={k}")
    if tau_range is not None:
        argv.append(f"--tau-range={tau_range}")
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:  # argparse rejects the text
            code = exc.code
    assert code in (0, 2, 3, 4)
    assert "Traceback" not in err.getvalue()

