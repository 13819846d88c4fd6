import ast
import inspect
import json
import math
import textwrap
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from zetalab import claim_audit
from zetalab.claim_audit import (
    FLAGGED_CLAIMS,
    list_claims,
    report_to_json,
    report_to_lines,
    run_audit,
)
from zetalab.config import AuditConfig

# the default-config report, the one `zetalab audit` ships; a refactor must
# keep it byte for byte, and a deliberate change regenerates it with each
# changed line explained in CHANGES.md
GOLDEN_DEFAULT = Path(__file__).parent / "data" / "audit_default.json"


@pytest.fixture
def default_report(default_audit):
    (report, _), _ = default_audit
    return report


class TestRegistry:
    def test_expected_ids_present(self):
        ids = {c.id for c in list_claims()}
        expected = {
            "EQ13A", "EQ15A", "EQ15B", "EQ8A", "EQ16", "EQ26A", "EQ28B",
            "EQ33B", "EQ42B", "RVM30", "P4A", "EQ32",
        }
        assert expected <= ids

    def test_size(self):
        assert len(list_claims()) >= 30

    def test_unexecuted_verdicts(self):
        assert all(c.verdict == "SKIPPED" for c in list_claims())

    def test_deterministic(self):
        assert list_claims() == list_claims()

    def test_flag_list_exact(self):
        assert FLAGGED_CLAIMS == {"EQ32", "EQ34G-DELTA", "EQ34J", "EQ34K"}
        flagged_in_registry = {c.id for c in list_claims() if c.check_kind == "flagged"}
        assert flagged_in_registry == FLAGGED_CLAIMS

    def test_ids_unique(self):
        ids = [c.id for c in list_claims()]
        assert len(ids) == len(set(ids))

    def test_ordered_by_id(self):
        ids = [c.id for c in list_claims()]
        assert ids == sorted(ids)

    def test_kinds_and_tolerances(self):
        kinds = {"equality", "inequality", "limit", "monotonicity", "count", "flagged"}
        for c in list_claims():
            assert c.check_kind in kinds, c.id
            assert isinstance(c.tolerance, float) and 0.0 <= c.tolerance < math.inf, c.id

    def test_checks_take_ctx_tol_rng(self):
        # the declaration is the only source of a claim's id, tolerance and
        # generator: no check takes the config or names its own id
        for cid, (record, fn, _) in claim_audit._CLAIMS.items():
            want = ["ctx"] if record.check_kind == "flagged" else ["ctx", "tol", "rng"]
            assert list(inspect.signature(fn).parameters) == want, cid
            strings = {n.value for n in ast.walk(_body(fn)) if isinstance(n, ast.Constant)}
            assert cid not in strings, cid

    def test_no_check_repeats_its_tolerance(self):
        # a literal equal to the declared tolerance, in a comparison or bound
        # to a name, is a second copy the report does not show; a threshold
        # that is not the tolerance (EQ13B's 1e-10, P2A's 1e-3 spacing) may stay
        repeats = set()
        for cid, (record, fn, _) in claim_audit._CLAIMS.items():
            if record.tolerance == 0.0:
                continue  # a sign test
            for node in ast.walk(_body(fn)):
                if isinstance(node, ast.Compare) or (
                        isinstance(node, ast.Assign) and isinstance(node.value, ast.Constant)):
                    if any(_is_number(n, record.tolerance) for n in ast.walk(node)):
                        repeats.add(cid)
        assert sorted(repeats) == []

    @pytest.mark.parametrize("cid", ["EQ7", "EQ25A"])
    def test_verdict_follows_the_declared_tolerance(self, cid, monkeypatch):
        # each compares strictly, so a tolerance at the observed value fails
        record, fn, note = claim_audit._CLAIMS[cid]
        monkeypatch.setattr(claim_audit, "_CLAIMS", {cid: (record, fn, note)})
        [declared] = run_audit().claims
        assert declared.verdict == "PASS"
        tight = replace(record, tolerance=declared.observed)
        monkeypatch.setattr(claim_audit, "_CLAIMS", {cid: (tight, fn, note)})
        [got] = run_audit().claims
        assert (got.verdict, got.observed, got.tolerance) == ("FAIL", declared.observed,
                                                              declared.observed)


def _body(fn) -> ast.Module:
    """The statements of fn, without its decorators."""
    tree = ast.parse(textwrap.dedent(inspect.getsource(fn)))
    return ast.Module(body=tree.body[0].body, type_ignores=[])


def _is_number(node, value) -> bool:
    return (isinstance(node, ast.Constant) and type(node.value) in (int, float)
            and node.value == value)


class TestRunAudit:
    def test_verdict_totals(self, default_report):
        assert default_report.totals.get("NOT_NUMERIC", 0) == 4
        assert default_report.totals.get("PASS", 0) >= 25
        assert default_report.totals.get("FAIL", 0) == 0

    def test_eq13a_observed(self, default_report):
        rec = next(c for c in default_report.claims if c.id == "EQ13A")
        assert rec.verdict == "PASS"
        assert abs(rec.observed - 1.07215) < 1e-4

    def test_eq32_not_numeric(self, default_report):
        rec = next(c for c in default_report.claims if c.id == "EQ32")
        assert rec.verdict == "NOT_NUMERIC"
        assert "Dirac" in rec.note or "delta" in rec.note.lower()

    def test_flagged_never_pass_or_fail(self, default_report):
        for c in default_report.claims:
            if c.id in FLAGGED_CLAIMS:
                assert c.verdict == "NOT_NUMERIC"
            else:
                assert c.verdict in ("PASS", "FAIL", "SKIPPED")

    def test_rvm30_claim(self, default_report):
        rec = next(c for c in default_report.claims if c.id == "RVM30")
        assert rec.verdict == "PASS"
        assert rec.observed == 3

    def test_every_claim_once(self, default_report):
        ids = [c.id for c in default_report.claims]
        assert len(ids) == len(set(ids)) == len(list_claims())

    def test_config_digest_attached(self, default_report):
        assert default_report.config_digest == AuditConfig().digest()


    def test_failing_scan_runs_once(self, monkeypatch):
        # a cached_property caches no exception, so each of the four claims
        # reading the scan ran a failing one again: 4 scans at rouche_tau=22
        from zetalab import zero_analysis

        calls = []

        def spy(*args):
            calls.append(args)
            return rouche_scan(*args)

        rouche_scan = zero_analysis.rouche_scan
        readers = ("EQ43", "EQ45", "EQ46A", "EQ50C")
        monkeypatch.setattr(claim_audit, "_CLAIMS", {cid: claim_audit._CLAIMS[cid]
                                                     for cid in readers})
        monkeypatch.setattr(zero_analysis, "rouche_scan", spy)
        report = run_audit(AuditConfig(rouche_tau=22.0))
        assert calls == [(22.0, 0.1, 0.01)]
        notes = {c.note for c in report.claims}
        assert [c.verdict for c in report.claims] == ["FAIL"] * 4 and len(notes) == 1
        assert notes.pop().startswith("error: ")


    def test_infrastructure_failure_is_skipped(self, monkeypatch):
        # the quadrature budget and a winding count's sample budget give
        # SKIPPED with the reason, and the audit goes on to the next claim
        from zetalab import quadrature, zero_analysis

        big = zero_analysis.RectangleRegion(-1e4, 1e4, -1e4, 1e4)
        checks = {
            "BUDGET": lambda ctx, tol, rng: (quadrature.fermi_mellin(0.05 + 100j, 1e-13), 0, ""),
            "WINDING": lambda ctx, tol, rng: (zero_analysis.winding_count(lambda q: q, big), 0, ""),
            "EQ25A": claim_audit._CLAIMS["EQ25A"][1],
        }
        record = claim_audit._CLAIMS["EQ25A"][0]
        monkeypatch.setattr(claim_audit, "_CLAIMS", {
            cid: (replace(record, id=cid), fn, "") for cid, fn in checks.items()})
        report = run_audit()
        assert [(c.id, c.verdict) for c in report.claims] == [
            ("BUDGET", "SKIPPED"), ("EQ25A", "PASS"), ("WINDING", "SKIPPED")]
        assert report.totals == {"SKIPPED": 2, "PASS": 1}
        budget, _, winding = report.claims
        assert budget.note.startswith("infrastructure: quadrature budget 1000000 exhausted")
        assert winding.note.startswith("infrastructure: the initial boundary of")
        assert budget.observed is winding.observed is None

    def test_observed_of_another_type_is_written_as_its_repr(self, monkeypatch):
        # a tuple is neither a number nor a string: the report holds its repr
        record = claim_audit._CLAIMS["EQ25A"][0]
        monkeypatch.setattr(claim_audit, "_CLAIMS", {
            "PAIR": (replace(record, id="PAIR"), lambda ctx, tol, rng: (True, (1, 2.5), ""), "")})
        [claim] = json.loads(report_to_json(run_audit()))["claims"].values()
        assert claim["observed"] == "(1, 2.5)"


class TestDeterminism:
    def test_two_runs_byte_identical(self, default_audit):
        (first, again), _ = default_audit
        assert report_to_json(again) == report_to_json(first)

    def test_claims_independent_of_the_operation_settings(self, default_report, monkeypatch,
                                                          tmp_path):
        # every claim fixes its own tolerances and sample counts (EQ43, EQ17D
        # and EQ19B once read quad_tol, zero_tol and jensen_samples), and the
        # settings of the other commands are flags that never reach the audit:
        # with --tol and --format set, the audit still runs on the default
        # config, whose claims are the shipped report's
        from zetalab import cli

        seen = []

        def spy(config):
            seen.append(config)
            return default_report

        monkeypatch.setattr(cli.claim_audit, "run_audit", spy)
        out_path = tmp_path / "report.csv"
        assert cli.main(["--tol", "1e-12", "--format", "csv", "audit",
                         "--out", str(out_path)]) == 0
        assert seen == [AuditConfig()]
        assert out_path.read_text().splitlines() == report_to_lines(default_report)

    def test_default_report_matches_golden(self, default_report):
        assert report_to_json(default_report) == GOLDEN_DEFAULT.read_text(encoding="ascii")

    def test_doc_keyed_by_id(self, default_report):
        doc = json.loads(report_to_json(default_report))
        assert set(doc) == {"claims", "config_digest", "totals"}
        assert "EQ13A" in doc["claims"]

    def test_line_records(self, default_report):
        lines = report_to_lines(default_report)
        assert json.loads(lines[0])["config_digest"] == AuditConfig().digest()
        parsed = [json.loads(l) for l in lines[1:]]
        assert [p["id"] for p in parsed] == sorted(p["id"] for p in parsed)


class TestConfig:
    def test_digest_changes_with_seed(self):
        a = AuditConfig(seed=1)
        b = AuditConfig(seed=2)
        assert a.digest() != b.digest()

    def test_validation(self):
        # the settings of the other commands are range-checked by their flags
        # (tests/test_cli.py, TestUsageErrors)
        from zetalab.errors import DomainError

        with pytest.raises(DomainError):
            AuditConfig(seed=-1)  # np.random.default_rng rejects a negative seed
        for name in ("rouche_tau", "rouche_epsilon", "rouche_nu"):
            with pytest.raises(DomainError):
                AuditConfig(**{name: 0.0})
            with pytest.raises(DomainError):
                AuditConfig(**{name: float("nan")})
            with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
                AuditConfig(**{name: float("inf")})

    # a wrong type used to surface late: seed=1.5 as a bare TypeError from
    # NumPy's generator in run_audit, and a string as a bare TypeError from
    # the range check
    def test_seed_must_be_an_integer(self):
        from zetalab.errors import DomainError

        with pytest.raises(DomainError, match="seed must be an integer"):
            run_audit(AuditConfig(seed=1.5))
        for value in (100.5, 384.0, "384", True):
            with pytest.raises(DomainError, match="seed must be an integer"):
                AuditConfig(seed=value)
        assert AuditConfig(seed=np.int64(20201219)) == AuditConfig()

    def test_float_fields_must_be_real_numbers(self):
        from zetalab.errors import DomainError

        for name in ("rouche_tau", "rouche_epsilon", "rouche_nu"):
            for value in ("1e-8", True, 1e-8 + 0j):
                with pytest.raises(DomainError, match=f"{name} must be a real number"):
                    AuditConfig(**{name: value})

    def test_jensen_samples_must_be_an_integer(self, capsys):
        # jensen_samples is the jensen --samples flag now, not a config field:
        # the flag takes integers only, and the key is unknown in a config file
        from zetalab.cli import main

        for value in ("100.5", "384.0", "True"):
            assert main(["jensen", "--samples", value]) == 3
            assert "invalid int value" in capsys.readouterr().err
        assert "jensen_samples" not in {f.name for f in fields(AuditConfig)}

    def test_equal_configs_have_equal_digests(self):
        # each numeric field is stored as its declared type, so an int or a
        # Fraction for a float field dumps as the float ("tau_max=50" differed)
        from fractions import Fraction

        default = AuditConfig()
        for cfg in (AuditConfig(rouche_tau=16), AuditConfig(rouche_tau=Fraction(16)),
                    AuditConfig(seed=np.int64(20201219))):
            assert cfg == default and cfg.digest() == default.digest()
        # the four audit inputs, in field order, and nothing else
        assert default.digest().startswith("14c26d1a6a6afe2d")
        with pytest.raises(Exception, match="rouche_tau must be positive and finite"):
            AuditConfig(rouche_tau=10**400)  # past the float range

    def test_seed_too_long_to_write_out_refused(self):
        # the digest's dump_config raised a bare ValueError: Python writes no
        # int of more than 4,300 digits in decimal
        from zetalab.errors import DomainError

        with pytest.raises(DomainError, match="seed has too many digits"):
            AuditConfig(seed=10**5000)
        assert AuditConfig(seed=10**4000).digest() != AuditConfig().digest()

    def test_config_imports_no_numerics(self):
        # the config holds values only: of the package it imports errors
        # alone, so no value it holds can be derived from a numerical module
        import zetalab.config

        imported = set()
        for node in ast.walk(ast.parse(Path(zetalab.config.__file__).read_text())):
            if isinstance(node, ast.Import):
                imported |= {a.name.split(".")[1] if "." in a.name else a.name
                             for a in node.names if a.name.split(".")[0] == "zetalab"}
            elif isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == "zetalab"):
                path = node.module.split(".")[0 if node.level else 1:] if node.module else []
                imported |= {path[0]} if path else {a.name for a in node.names}
        assert imported == {"errors"}

    def test_scan_arguments_are_the_rouche_fields(self):
        import inspect

        from zetalab import zero_analysis as za

        # the scan takes the rouche_* fields, named as they are, and works
        # lam out of epsilon and nu itself: no argument overrides it
        rouche = [f.name for f in fields(AuditConfig) if f.name.startswith("rouche_")]
        assert ["rouche_" + p for p in inspect.signature(za.rouche_scan).parameters] == rouche
        assert not hasattr(AuditConfig, "rouche_options")

    def test_option_inventory(self):
        # a new setting must show up here; one value in use belongs in a constant
        import inspect

        from zetalab import quadrature as quad, strip_map as smap, zero_analysis as za

        def params(fn):
            return list(inspect.signature(fn).parameters)

        assert [f.name for f in fields(AuditConfig)] == [
            "seed", "rouche_tau", "rouche_epsilon", "rouche_nu",
        ]
        assert params(za.rouche_scan) == ["tau", "epsilon", "nu"]
        assert params(za.winding_count) == ["fn", "rect"]
        assert params(quad.fermi_mellin) == ["s", "tol"]
        assert params(quad.f_shifted) == ["omega", "tol"]
        assert params(quad.m_star) == ["alpha", "tol"]
        assert params(quad.m_star_derivative) == ["alpha", "order", "tol"]
        assert params(smap.g_of_b) == ["b", "tol"]
        assert params(smap.f_on_disk) == ["z", "b", "tol"]
        assert params(za.triangle_equality_condition) == ["w", "v"]
        assert params(za.lambda_choice) == ["theta_abs", "epsilon", "nu"]
        assert params(za.blaschke_L) == ["omega", "zeros"]

    def test_traced_functions_stay_plain(self):
        # perfbench's tracer wraps the plain functions in each layer's __all__
        # and reads these by name; a functools.cache (or any other wrapper
        # object) would hide one from it
        import importlib
        import inspect

        traced = {
            "quadrature": ["fermi_mellin", "m_star_derivative"],
            "special_functions": ["eta", "gamma", "gamma_abs_product"],
            "zero_analysis": ["winding_count", "critical_line_zeros", "rouche_scan", "blaschke_L"],
            "claim_audit": ["run_audit"],
            "cli": ["main"],
        }
        for layer, names in traced.items():
            mod = importlib.import_module(f"zetalab.{layer}")
            for name in names:
                fn = getattr(mod, name)
                assert name in mod.__all__
                assert inspect.isfunction(fn) and fn.__module__ == mod.__name__, f"{layer}.{name}"

    def test_roundtrip_file(self, tmp_path):
        from zetalab.config import dump_config, load_config

        cfg = AuditConfig(seed=99, rouche_nu=0.02)
        path = tmp_path / "audit.cfg"
        path.write_text(dump_config(cfg))
        assert load_config(path) == cfg

    def test_unknown_key_rejected(self, tmp_path):
        from zetalab.errors import DomainError

        path = tmp_path / "bad.cfg"
        path.write_text("not_a_key=1\n")
        with pytest.raises(DomainError):
            from zetalab.config import load_config

            load_config(path)
