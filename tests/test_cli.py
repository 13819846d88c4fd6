import argparse
import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import zetalab
from zetalab import cli
from zetalab import zero_analysis as za
from zetalab.cli import _build_parser, main
from zetalab.config import AuditConfig, dump_config
from zetalab.errors import ZetaLabError

GOLDEN_DEFAULT = Path(__file__).parent / "data" / "audit_default.json"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestEval:
    def test_fermi_integral_at_half(self, capsys):
        code, out, _ = run(capsys, "eval", "F", "0.5", "0.0")
        assert code == 0
        assert "1.07215" in out

    def test_eta_at_one(self, capsys):
        code, out, _ = run(capsys, "eval", "eta", "1.0", "0.0")
        assert code == 0
        assert "0.693147" in out

    def test_zeta_at_first_zero(self, capsys):
        code, out, _ = run(capsys, "eval", "zeta", "0.5", "14.134725")
        assert code == 0
        modulus = float(out.split("modulus = ")[1].splitlines()[0])
        assert modulus < 1e-5

    @pytest.mark.parametrize("function", ["F", "F_shifted"])
    def test_unresolved_modulus_printed_as_a_bound(self, capsys, function):
        # at Im 400 the integral is ~1.6e-13 against an error estimate of ~1e-10
        code, out, _ = run(capsys, "eval", function, "0.5", "400")
        assert code == 0
        err = out.split("abs_error <= ")[1].split()[0]
        assert f"modulus < {err} (unresolved)" in out
        _, out, _ = run(capsys, "eval", function, "0.5", "2")
        assert "modulus = " in out and "unresolved" not in out

    def test_eta_and_zeta_bounds_hold(self, capsys):
        # the bounds were a fixed 1e-13 (eta) and 1e-12 (zeta): zeta at
        # 0.999 + 90.647i errs by 1.5e-11, since 1 - 2^(1-s) = 6.9e-4 there
        # divides eta's error, and eta at 0.0731 + 96.515i by 2.0e-13
        mpmath = pytest.importorskip("mpmath")
        from zetalab import special_functions as sf

        rng = np.random.default_rng(2017)
        points = [complex(0.999, 2.0 * math.pi * k / math.log(2.0)) for k in range(1, 11)]
        points += [complex(0.0731, 96.515), complex(0.0548, 219.34)]
        points += [complex(r, i) for r, i in zip(rng.uniform(0.01, 0.999, 20),
                                                 rng.uniform(0.0, 220.0, 20))]
        # above Im 220, up to where eval eta answers (it refuses past 402
        # terms, from Im ~ 424.5 at Re 0.05)
        points += [complex(r, i) for r, i in zip(rng.uniform(0.05, 1.0, 20),
                                                 rng.uniform(226.0, 427.0, 20))]
        # next to the pole at 1, where 1 - 2^(1-s) rounds: at 0.99999999 the
        # error was 0.34 against a printed bound of 1.4e-4
        points += [complex(1.0 - 10.0**-k, i) for k in range(1, 16)
                   for i in (0.0, 1e-3, 1.0, 2.0 * math.pi / math.log(2.0),
                             6.0 * math.pi / math.log(2.0))]
        with mpmath.workdps(30):
            for s in points:
                for function, ref in (("eta", mpmath.altzeta), ("zeta", mpmath.zeta)):
                    code, out, _ = run(capsys, "eval", function, repr(s.real), repr(s.imag))
                    assert code == 0
                    bound = float(out.split("abs_error <= ")[1].split()[0])
                    value = getattr(sf, function)(s)
                    assert abs(value - complex(ref(s))) <= bound, (function, s)

    def test_unknown_function_is_usage_error(self, capsys):
        code, _, _ = run(capsys, "eval", "bogus", "0.5", "0.0")
        assert code == 3

    def test_numerical_error_exit(self, capsys):
        code, _, err = run(capsys, "eval", "zeta", "1.5", "0.0")
        assert code == 2
        assert "error" in err.lower()

    @pytest.mark.parametrize("argv", [("eval", "eta", "0.5", "500"),
                                      ("eval", "gamma", "171.7", "0")])
    def test_overflow_exit_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "error" in err.lower()

    def test_zeta_within_its_bound_of_zero_is_unresolved(self, capsys):
        # at 1 - 2^-52 the factor's rounding error exceeds |zeta|
        code, out, _ = run(capsys, "eval", "zeta", repr(1.0 - 2.0**-52), "0")
        assert code == 0
        err = out.split("abs_error <= ")[1].split()[0]
        assert f"modulus < {err} (unresolved)" in out

    def test_eta_within_its_bound_of_zero_is_unresolved(self, capsys):
        # |eta| is ~1.9e-15 at the first zero, under the printed 1e-12
        code, out, _ = run(capsys, "eval", "eta", "0.5", "14.134725141734693")
        assert code == 0
        assert "modulus < 1.000e-12 (unresolved)" in out
        assert "abs_error <= 1.000e-12" in out
        _, out, _ = run(capsys, "eval", "eta", "0.5", "14.0")
        assert "modulus = " in out and "unresolved" not in out

    # eta's term count once came from gamma, so these exited 2 where gamma
    # overflows: the reflection's sin(pi s) at 0.3 + 300i, Gamma(1e300)
    @pytest.mark.parametrize("re, im", [("0.3", "300"), ("1e300", "0")])
    def test_eta_past_gammas_limits(self, capsys, re, im):
        mpmath = pytest.importorskip("mpmath")
        from zetalab import special_functions as sf

        code, out, _ = run(capsys, "eval", "eta", re, im)
        assert code == 0
        bound = float(out.split("abs_error <= ")[1].split()[0])
        s = complex(float(re), float(im))
        with mpmath.workdps(30):
            ref = complex(mpmath.altzeta(mpmath.mpc(s.real, s.imag)))
        assert bound == pytest.approx(1e-12 * max(abs(ref), 1.0), rel=1e-3)
        assert abs(sf.eta(s) - ref) <= bound

    # eta is entire: within gamma's pole radius of 0 these exited 2 with
    # "gamma pole at 0"
    @pytest.mark.parametrize("function, re, value", [("eta", "1e-13", "0.5"),
                                                     ("eta", "1e-320", "0.5"),
                                                     ("zeta", "1e-13", "-0.5")])
    def test_next_to_zero(self, capsys, function, re, value):
        code, out, _ = run(capsys, "eval", function, re, "0")
        assert code == 0
        assert out.splitlines()[0] == f"value = {value} + 0i"

    # argparse took a negative coordinate in scientific notation for an
    # option: "the following arguments are required", exit 3
    @pytest.mark.parametrize("argv, line", [
        ("eval gamma -1e-3 0", "value = -1000.57820563 + 0i"),
        ("eval eta 0.5 -1e1", "value = -0.0981715533486 - 1.33391819185i"),
        ("map 0.3 -4e-1 0.9", "H      = 0.5"),
    ])
    def test_negative_coordinate_in_scientific_notation(self, capsys, argv, line):
        code, out, _ = run(capsys, *argv.split())
        assert code == 0
        assert line in out.splitlines()

    def test_negative_flag_value_meets_its_range_check(self, capsys):
        code, out, err = run(capsys, "bounds", "--lo", "-1e-3")
        assert (code, out) == (3, "") and "--lo: -1e-3 must lie in (0, 1]" in err


class TestBounds:
    def test_grid_rows(self, capsys):
        code, out, _ = run(capsys, "bounds", "--lo", "0.5", "--hi", "1.0", "--step", "0.1")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "alpha,m,m_star,m_star_d1,m_star_d2"
        first = lines[1].split(",")
        last = lines[-1].split(",")
        assert float(first[2]) == pytest.approx(1.07215, abs=1e-4)
        assert float(last[2]) == pytest.approx(math.log(2.0), abs=1e-6)
        assert float(first[1]) == pytest.approx(1.36788, abs=1e-4)

    def test_m_star_column_decreasing(self, capsys):
        _, out, _ = run(capsys, "bounds", "--lo", "0.5", "--hi", "1.0", "--step", "0.05")
        vals = [float(l.split(",")[2]) for l in out.strip().splitlines()[1:]]
        assert all(b < a for a, b in zip(vals, vals[1:]))

    def test_ten_significant_digits(self, capsys):
        _, out, _ = run(capsys, "bounds", "--lo", "0.5", "--hi", "0.5", "--step", "1.0")
        cell = out.strip().splitlines()[1].split(",")[2]
        digits = cell.replace(".", "").replace("-", "").lstrip("0")
        assert len(digits) >= 10

    def test_bad_grid(self, capsys):
        code, _, _ = run(capsys, "bounds", "--lo", "0.0", "--hi", "1.0", "--step", "0.1")
        assert code == 3

    def test_reversed_grid_is_usage_error(self, capsys):
        code, out, err = run(capsys, "bounds", "--lo", "0.9", "--hi", "0.5")
        assert (code, out) == (3, "") and "--lo <= --hi" in err

    def test_step_below_the_spacing_at_hi_is_usage_error(self, capsys, monkeypatch):
        # lo + k * step never passed lo: 1e-300 printed the row 0.5 practically
        # forever, 1e-320 ended in a bare OverflowError from floor(inf)
        from zetalab import quadrature as quad

        monkeypatch.setattr(quad, "m_star", None)  # no row may be computed
        # 1e-15 passed the float-spacing rule this replaced, for 5e14 rows
        for step in ("1e-320", "1e-300", repr(math.ulp(1.0) / 2), "1e-15"):
            code, out, err = run(capsys, "bounds", "--lo", "0.5", "--hi", "1", "--step", step)
            assert (code, out) == (3, "") and "--step" in err
        monkeypatch.undo()
        code, out, _ = run(capsys, "bounds", "--lo", "0.5", "--hi", "0.5", "--step", "1e-320")
        assert code == 0 and len(out.strip().splitlines()) == 2

    def test_row_limit_checked_before_any_row(self, capsys, monkeypatch):
        from zetalab import quadrature as quad

        monkeypatch.setattr(cli, "BOUNDS_MAX_ROWS", 3)
        code, out, _ = run(capsys, "bounds", "--lo", "0.8", "--hi", "1", "--step", "0.1")
        assert code == 0 and len(out.strip().splitlines()) == 1 + 3
        monkeypatch.setattr(quad, "m_star", None)  # no row may be computed
        code, out, err = run(capsys, "bounds", "--lo", "0.7", "--hi", "1", "--step", "0.1")
        assert (code, out) == (3, "") and "more than 3 rows" in err

    def test_rows_on_the_grid(self, capsys, monkeypatch):
        # lo + k*step, not a running sum, and the end point is hi itself
        from zetalab import quadrature as quad

        alphas = []
        m_bound = quad.m_bound
        monkeypatch.setattr(quad, "m_bound", lambda a: alphas.append(a) or m_bound(a))
        code, _, _ = run(capsys, "bounds", "--lo", "0.7", "--hi", "1.0", "--step", "0.1")
        assert code == 0
        assert alphas == [0.7, 0.7 + 0.1, 0.7 + 2 * 0.1, 1.0]


class TestMap:
    def test_roundtrip_report(self, capsys):
        code, out, _ = run(capsys, "map", "0.3", "0.4", "0.9")
        assert code == 0
        assert "roundtrip" in out
        rt = float(out.split("= ")[-1])
        assert rt < 1e-10


class TestZeros:
    def test_tau_sixteen(self, capsys):
        code, out, _ = run(capsys, "zeros", "--tau", "16")
        assert code == 0
        assert "zeros up to tau = 16: 1" in out
        assert "14.1347" in out

    def test_zero_tol_wider_than_the_strip(self, capsys):
        # the certificate square of half-width 1 about Re(s) = 1/2 used to
        # leave the strip and exit 2
        code, out, _ = run(capsys, "zeros", "--tau", "16", "--zero-tol", "1")
        assert code == 0
        beta = float(out.split("beta = ")[1].split()[0])
        assert abs(beta - 14.134725141734693) < 1.0

    def test_zero_tol_above_the_zero_gap(self, capsys):
        # the polish of a count-1 interval 16 tall used to print the local
        # minimum of |eta| at 9.0415637025 as a zero
        code, out, _ = run(capsys, "zeros", "--tau", "16", "--zero-tol", "20")
        assert code == 0
        assert "beta = 14.1347251417" in out

    def test_tau_ten_empty(self, capsys):
        code, out, _ = run(capsys, "zeros", "--tau", "10")
        assert code == 0
        assert "zeros up to tau = 10: 0" in out

    def test_tau_defaults_to_fifty(self, capsys):
        code, out, _ = run(capsys, "zeros")
        assert code == 0
        assert out.splitlines()[0] == "zeros up to tau = 50: 10"
        assert run(capsys, "zeros", "--tau", "50")[1] == out


class TestJensen:
    def test_default_run(self, capsys):
        code, out, _ = run(capsys, "jensen", "--samples", "128")
        assert code == 0
        diff = float(out.split("|lhs - rhs|")[1].split("=")[1])
        assert diff < 1e-3

    def test_samples_default_to_384(self, capsys):
        _, default, _ = run(capsys, "jensen")
        _, from_flag, _ = run(capsys, "jensen", "--samples", "384")
        _, other, _ = run(capsys, "jensen", "--samples", "128")
        assert default == from_flag != other

    def test_sample_limit_checked_before_any_sample(self, capsys, monkeypatch):
        # --samples 1000000000 would run one quadrature a sample for days
        from zetalab import strip_map as smap

        def no_sample(*args):
            raise AssertionError("a circle sample was computed")

        monkeypatch.setattr(smap, "f_on_disk", no_sample)
        code, out, err = run(capsys, "jensen", "--samples", str(za.JENSEN_MAX_SAMPLES + 1))
        assert (code, out) == (3, "") and "--samples" in err and "<= 1000000" in err


class TestRouche:
    def test_completes_below_first_zero(self, capsys):
        code, out, _ = run(capsys, "rouche", "--tau", "10")
        assert code == 0
        assert "min_margin" in out
        margin = float(out.split("min_margin = ")[1].split(" ")[0])
        assert margin >= -1e-12

    def test_epsilon_from_config(self, capsys, tmp_path):
        path = tmp_path / "rouche.cfg"
        path.write_text("rouche_epsilon=0.2\n")
        code, out, _ = run(capsys, "--config", str(path), "rouche", "--tau", "10")
        assert code == 0
        assert "epsilon = 0.2" in out

    def test_flags_default_to_the_config(self, capsys, tmp_path, monkeypatch):
        # --tau was required, so a config file's rouche_tau never reached the scan
        from zetalab import zero_analysis as za

        calls = []

        def scan(*args):
            calls.append(args)
            raise ZetaLabError("scan not run")

        monkeypatch.setattr(za, "rouche_scan", scan)
        path = tmp_path / "tau.cfg"
        path.write_text("rouche_tau=18\nrouche_nu=0.02\n")
        for argv in (["rouche"], ["--config", str(path), "rouche"],
                     ["--config", str(path), "rouche", "--tau", "16", "--epsilon", "0.2"]):
            assert run(capsys, *argv)[0] == 2
        assert calls == [(16.0, 0.1, 0.01), (18.0, 0.1, 0.02), (16.0, 0.2, 0.02)]

    @pytest.mark.parametrize("flag", [("--epsilon", "1e-308")])
    def test_overflowing_comparison_function_exit_two(self, capsys, flag):
        # g = lam*(epsilon + omega) overflowed to inf, the margin read nan and
        # the scan printed min_margin = nan with three RuntimeWarnings, exit 0
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "rouche", "--tau", "10", *flag)
        assert (code, out) == (2, "")
        assert "numerical error" in err and "is not finite at omega" in err
        assert "lam = " in err and "epsilon = " in err

    def test_overflowing_lam_exit_two(self, capsys):
        # lam = (M*(1/2) + nu)/epsilon reads inf: the refusal names epsilon and
        # nu, the inputs lam is worked out of, not lam, which nothing sets
        code, out, err = run(capsys, "rouche", "--tau", "10", "--nu", "1e308")
        assert (code, out) == (2, "")
        assert "numerical error: lam = (M*(1/2) + nu)/(theta_abs*epsilon) is not positive" in err
        assert "epsilon = 0.1, nu = 1e+308" in err


class TestAudit:
    def test_missing_config_exit_three(self, capsys):
        code, _, err = run(capsys, "--config", "/does/not/exist.cfg", "audit")
        assert code == 3
        assert "not found" in err

    def test_audit_with_config_file(self, capsys, tmp_path):
        # every claim fixes its own tolerances and sample counts, and --tol
        # is no audit input, so the report is the golden one byte for byte,
        # digest included (EQ43, EQ17D and EQ19B once read the quadrature,
        # zero search and jensen settings, and the digest hashed all three)
        path = tmp_path / "default.cfg"
        path.write_text(dump_config(AuditConfig()))
        out_path = tmp_path / "report.json"
        code, _, err = run(
            capsys, "--tol", "1e-12", "--config", str(path), "audit", "--out", str(out_path)
        )
        assert code == 0
        assert out_path.read_text() == GOLDEN_DEFAULT.read_text(encoding="ascii") + "\n"
        doc = json.loads(out_path.read_text())
        assert doc["totals"]["NOT_NUMERIC"] == 4
        assert doc["totals"]["PASS"] >= 25
        assert doc["config_digest"] == AuditConfig().digest()
        assert "PASS" in err

    def test_failing_claim_exit_one(self, capsys, tmp_path, monkeypatch):
        # EQ25A compares strictly, so a zero tolerance fails it; the report
        # is still written, and each FAIL is listed on stderr
        from dataclasses import replace

        record, fn, note = cli.claim_audit._CLAIMS["EQ25A"]
        tight = replace(record, tolerance=0.0)
        monkeypatch.setattr(cli.claim_audit, "_CLAIMS", {"EQ25A": (tight, fn, note)})
        out_path = tmp_path / "report.json"
        code, out, err = run(capsys, "audit", "--out", str(out_path))
        assert (code, out) == (1, "")
        assert json.loads(out_path.read_text())["totals"] == {"FAIL": 1}
        assert "  FAIL         1\n" in err
        assert "  FAIL EQ25A: phi(0,b) vs arctan closed form, Im exactly 0\n" in err

    def test_report_to_stdout_without_out(self, capsys, monkeypatch):
        # without --out the report is stdout, and the digest and totals stderr
        claim = cli.claim_audit.ClaimRecord("EQ1", "ref", "claim", "equality", 0.0,
                                            "PASS", 1.0, "note")
        report = cli.claim_audit.AuditReport((claim,), AuditConfig().digest(), {"PASS": 1})
        monkeypatch.setattr(cli.claim_audit, "run_audit", lambda cfg: report)
        code, out, err = run(capsys, "audit")
        assert (code, out) == (0, cli.claim_audit.report_to_json(report) + "\n")
        assert f"config digest: {report.config_digest[:16]}..." in err
        assert "  PASS         1\n" in err and "  FAIL         0\n" in err

    def test_csv_format_lines(self, capsys, tmp_path):
        path = tmp_path / "default.cfg"
        path.write_text(dump_config(AuditConfig()))
        out_path = tmp_path / "report.jsonl"
        code, _, _ = run(capsys, "--config", str(path), "--format", "csv", "audit",
                         "--out", str(out_path))
        assert code == 0
        lines = out_path.read_text().strip().splitlines()
        golden = json.loads(GOLDEN_DEFAULT.read_text(encoding="ascii"))
        # the format is no audit input: the doc's digest and the doc's claims
        assert json.loads(lines[0]) == {"config_digest": golden["config_digest"]}
        assert golden["config_digest"] == AuditConfig().digest()
        records = [json.loads(l) for l in lines[1:]]
        assert {r.pop("id"): r for r in records} == golden["claims"]


class TestUsageErrors:
    # pole_tol and grid_re_n are not config keys (grid_re_n names a value
    # fixed in the code, pole_tol one that no longer exists)
    # eval_budget is a constant too; seed=-1 crashed the audit's generators,
    # and a zero_tol below 1e-9 made the zero search fail on a single zero;
    # n_samples and boundary_density are constants now (claim_audit.SWEEP_SAMPLES
    # and zero_analysis.SAMPLES_PER_UNIT), so each is an unknown key, as is
    # rouche_theta_abs: lam is (M*(1/2) + nu)/epsilon;
    # the file holds the audit's inputs only, so quad_tol, zero_tol, tau_max,
    # jensen_samples and output_format, which only flags set, are unknown keys
    @pytest.mark.parametrize("line", ["quad_tol=abc", "seed=1.5", "quad_tol=-1",
                                      "pole_tol=1e-3", "grid_re_n=7", "eval_budget=1000000",
                                      "seed=-1", "zero_tol=1e-10", "n_samples=0",
                                      "n_samples=-1", "boundary_density=0",
                                      "boundary_density=-3", "rouche_theta_abs=1.0",
                                      "quad_tol=1e-6", "zero_tol=1e-4", "tau_max=50.0",
                                      "jensen_samples=384", "output_format='doc'",
                                      "rouche_tau=nan", "rouche_nu=0"])
    def test_malformed_config_value_exit_three(self, capsys, tmp_path, line):
        path = tmp_path / "bad.cfg"
        path.write_text(f"# comment\n{line}\n")
        code, _, err = run(capsys, "--config", str(path), "zeros", "--tau", "10")
        assert code == 3
        assert f"{path}:2" in err

    def test_config_line_without_equals_exit_three(self, capsys, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("seed=7\nrouche_tau 16\n")
        code, out, err = run(capsys, "--config", str(path), "zeros", "--tau", "10")
        assert (code, out) == (3, "")
        assert f"{path}:2: expected key=value, got 'rouche_tau 16'" in err

    # each was a bare traceback with exit 1, the audit's FAIL code: a config
    # that is a directory or not text, and an --out that is a directory or
    # lies in a missing one (those two after the whole audit had run); the
    # audit must not run for them, and no file is created
    @pytest.mark.parametrize("flag, name", [("--config", "."), ("--config", "binary.cfg"),
                                            ("--out", "."), ("--out", "no/r.json"),
                                            ("--out", "binary.cfg/r.json")])
    def test_unreadable_config_or_unwritable_out_exit_three(self, capsys, tmp_path,
                                                             monkeypatch, flag, name):
        monkeypatch.setattr(cli.claim_audit, "run_audit", lambda cfg: pytest.fail("the audit ran"))
        (tmp_path / "binary.cfg").write_bytes(b"\xff\n")
        path = str(tmp_path / name)
        argv = [flag, path, "audit"] if flag == "--config" else ["audit", flag, path]
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert err.startswith("error: cannot ") and path in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["binary.cfg"]

    def test_report_write_failing_after_the_audit_exits_three(self, capsys, tmp_path, monkeypatch):
        claim = cli.claim_audit.ClaimRecord("EQ1", "ref", "claim", "equality", 0.0,
                                            "PASS", 1.0, "note")
        report = cli.claim_audit.AuditReport((claim,), AuditConfig().digest(), {"PASS": 1})
        monkeypatch.setattr(cli.claim_audit, "run_audit", lambda cfg: report)

        def refuse(self, data):  # as a file without write permission does
            raise PermissionError(13, "Permission denied")

        monkeypatch.setattr(cli.Path, "write_text", refuse)
        path = str(tmp_path / "r.json")
        code, out, err = run(capsys, "audit", "--out", path)
        assert (code, out) == (3, "")
        assert err == f"error: cannot write report {path}: Permission denied\n"

    @pytest.mark.parametrize("argv, message", [
        (("jensen", "--samples", "100.5"), "invalid int value"),
        (("--format", "xml", "audit"), "invalid choice"),
        (("rouche", "--lam", "10"), "unrecognized arguments: --lam 10"),  # lam has no flag
    ])
    def test_malformed_setting_flag_exit_three(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (3, "")
        assert "argument" in err and message in err  # rejected by the parser

    @pytest.mark.parametrize("flags", [("--seed", "-1", "audit"),
                                       ("--tol", "nan", "eval", "F", "0.5", "0.0"),
                                       ("zeros", "--tau", "16", "--zero-tol", "1e-10")])
    def test_out_of_range_flag_exit_three(self, capsys, flags):
        code, _, err = run(capsys, *flags)
        assert code == 3
        assert "must be" in err

    @pytest.mark.parametrize("argv", [("zeros", "--tau", "-1"),
                                      ("zeros", "--tau", "16", "--zero-tol", "nan")])
    def test_out_of_range_command_flag_exit_three(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "must be positive" in err

    @pytest.mark.parametrize("argv", [("jensen", "--radius", "0"),
                                      ("jensen", "--b", "2"),
                                      ("map", "0.3", "0.4", "2"),
                                      ("bounds", "--step", "nan"),
                                      ("jensen", "--samples", "4"),
                                      ("--tol", "0", "eval", "F", "0.5", "0.0")])
    def test_out_of_range_operation_flag_exit_three(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 3
        assert "argument" in err and "must" in err  # rejected by the parser

    @pytest.mark.parametrize("argv", [("zeros", "--tau", "inf"),
                                      ("rouche", "--tau", "inf"),
                                      ("bounds", "--step", "inf"),
                                      ("rouche", "--tau", "10", "--nu", "inf"),
                                      ("--tol", "inf", "eval", "F", "0.5", "1")])
    def test_infinite_flag_exit_three(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert code == 3
        assert out == "" and "must be positive and finite" in err

    @pytest.mark.parametrize("argv", [("rouche", "--tau", "1e300"),
                                      ("zeros", "--tau", "1e300")])
    def test_oversized_height_exit_two(self, capsys, argv):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert "numerical error" in err


class TestNoTraceback:
    # ROADMAP: no input ends in a traceback, and no exit code but the audit's
    # FAIL verdicts is 1.  The first three ended in a bare ValueError from the
    # quadrature's mesh (exit 1); zeta at 1 - 2^-53 in a ZeroDivisionError,
    # gamma at 0.5 + 455i printed modulus = 0 (exit 0), map past the float
    # range in a bare OverflowError from abs (exit 1), and zeros next to
    # zeta's pole printed two RuntimeWarnings before exit 2
    @pytest.mark.parametrize("argv", ["eval F 1e-320 0", "eval F 0.001 0",
                                      "bounds --lo 0.001 --hi 0.001", "eval F 0.5 1e300", "eval zeta 0.5 1e300",
                                      "eval zeta 1e-320 5", "eval gamma 1e-320 0",
                                      "zeros --tau 1e300", "zeros --tau 5e-324", "rouche --tau 1e300",
                                      "eval gamma 1e308 1e308", "eval eta 1e308 1e308",
                                      "eval zeta 0.9999999999999999 0", "eval gamma 0.5 455",
                                      "map 1.7e308 1.7e308 0.5", "map -1.7e308 1e308 0.5"])
    def test_edge_input_exits_two_or_three(self, capsys, argv):
        code, _, err = run(capsys, *argv.split())
        assert code in (2, 3)
        assert "error" in err

    # eval F 0.01 3 answered with an error of 0.05 at tol 1e-8
    @pytest.mark.parametrize("argv", ["eval F 0.001 0", "bounds --lo 0.001 --hi 0.001",
                                      "eval F 0.01 3"])
    def test_small_real_part_misses_the_head_rule(self, capsys, argv):
        code, _, err = run(capsys, *argv.split())
        assert code == 2
        assert "above tol/10" in err


def test_every_config_field_has_a_flag():
    # a setting only tests change has no flag, and belongs in a constant
    parsers, dests = [_build_parser()], set()
    while parsers:
        for action in parsers.pop()._actions:
            if isinstance(action, argparse._SubParsersAction):
                parsers.extend(action.choices.values())
            elif action.option_strings:
                dests.add(action.dest)
    assert {f.name for f in fields(AuditConfig)} - dests == set()
    # a new flag must show up here
    assert dests - {f.name for f in fields(AuditConfig)} == {
        "help", "config", "lo", "hi", "step", "b", "radius", "out",
        "tol", "format", "tau", "zero_tol", "samples",
    }


def test_closed_stdout_exits_141_without_traceback():
    # a reader that stops early ended the CLI in a BrokenPipeError traceback
    # and exit 1, the audit's FAIL code; 141 is what a shell reports for a
    # process ended by SIGPIPE
    env = dict(os.environ, PYTHONPATH=str(Path(zetalab.__file__).parents[1]))
    proc = subprocess.Popen([sys.executable, "-m", "zetalab.cli", "bounds", "--step", "1e-4"],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env)
    try:
        assert proc.stdout.readline() == b"alpha,m,m_star,m_star_d1,m_star_d2\n"
        proc.stdout.readline()
        proc.stdout.close()  # 5,000 rows: the rest is written into a closed pipe
        err = proc.stderr.read()
        assert (proc.wait(timeout=60), err) == (141, b"")
    finally:
        proc.kill()
        proc.stderr.close()


class TestDeterminism:
    def test_same_flags_same_output(self, capsys):
        _, out1, _ = run(capsys, "eval", "F", "0.6", "2.0")
        _, out2, _ = run(capsys, "eval", "F", "0.6", "2.0")
        assert out1 == out2
