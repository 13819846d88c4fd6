import json
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

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


class TestDeterminism:
    def test_two_runs_byte_identical(self, default_audit):
        (first, again), _ = default_audit
        assert report_to_json(again) == report_to_json(first)

    def test_claims_independent_of_the_operation_settings(self, default_report):
        # every claim fixes its own tolerances and sample counts, so the
        # settings of the eval, bounds, zeros and jensen commands leave every
        # claim record unchanged, observed values and notes included (EQ43,
        # EQ17D and EQ19B once read quad_tol, zero_tol and jensen_samples)
        other = run_audit(AuditConfig(quad_tol=1e-12, zero_tol=1e-8, jensen_samples=128,
                                      tau_max=10.0))
        assert other.claims == default_report.claims

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
        from zetalab.errors import DomainError

        with pytest.raises(DomainError):
            AuditConfig(quad_tol=0.0)
        with pytest.raises(DomainError):
            AuditConfig(seed=-1)  # np.random.default_rng rejects a negative seed
        with pytest.raises(DomainError, match="1e-09"):
            AuditConfig(zero_tol=1e-10)  # below the minimum cell height of the zero search
        with pytest.raises(DomainError):
            AuditConfig(output_format="xml")
        with pytest.raises(DomainError):
            AuditConfig(jensen_samples=4)
        for name in ("tau_max", "rouche_tau", "rouche_epsilon", "rouche_nu"):
            with pytest.raises(DomainError):
                AuditConfig(**{name: float("nan")})
        for name in ("quad_tol", "zero_tol", "tau_max", "rouche_tau", "rouche_epsilon",
                     "rouche_nu"):
            with pytest.raises(DomainError, match=f"{name} must be positive and finite"):
                AuditConfig(**{name: float("inf")})

    # a wrong type used to surface late: seed=1.5 as a bare TypeError from
    # NumPy's generator in run_audit, quad_tol="1e-8" as a bare TypeError from
    # the range check, and jensen_samples=100.5 as a FAIL verdict on EQ19B
    def test_seed_must_be_an_integer(self):
        from zetalab.errors import DomainError

        with pytest.raises(DomainError, match="seed must be an integer"):
            run_audit(AuditConfig(seed=1.5))

    def test_float_fields_must_be_real_numbers(self):
        from zetalab.errors import DomainError

        for name in ("quad_tol", "zero_tol", "tau_max", "rouche_tau", "rouche_epsilon",
                     "rouche_nu"):
            for value in ("1e-8", True, 1e-8 + 0j):
                with pytest.raises(DomainError, match=f"{name} must be a real number"):
                    AuditConfig(**{name: value})

    def test_jensen_samples_must_be_an_integer(self):
        from zetalab.errors import DomainError

        for value in (100.5, 384.0, "384", True):
            with pytest.raises(DomainError, match="jensen_samples must be an integer"):
                AuditConfig(jensen_samples=value)
        assert AuditConfig(jensen_samples=np.int64(384)) == AuditConfig()

    def test_equal_configs_have_equal_digests(self):
        # each numeric field is stored as its declared type, so an int or a
        # Fraction for a float field dumps as the float ("tau_max=50" differed)
        from fractions import Fraction

        default = AuditConfig()
        for cfg in (AuditConfig(tau_max=50), AuditConfig(rouche_tau=Fraction(16)),
                    AuditConfig(jensen_samples=np.int64(384)), AuditConfig(seed=np.int64(20201219))):
            assert cfg == default and cfg.digest() == default.digest()
        assert default.digest().startswith("5b9664d7")
        with pytest.raises(Exception, match="tau_max must be positive and finite"):
            AuditConfig(tau_max=10**400)  # past the float range

    def test_rouche_options_are_the_scan_arguments(self):
        import inspect

        from zetalab import zero_analysis as za

        cfg = AuditConfig()
        options = cfg.rouche_options()
        assert set(options) == set(inspect.signature(za.rouche_scan).parameters)
        assert options["lam"] == za.lambda_choice(1.0, 0.1, 0.01)
        assert (options["tau"], options["epsilon"]) == (16.0, 0.1)
        assert cfg.rouche_options(2.5)["lam"] == 2.5
        # the scan takes no quadrature tolerance from the config
        assert AuditConfig(quad_tol=1e-12).rouche_options() == options
        assert AuditConfig(quad_tol=1e-3).rouche_options() == options

    def test_option_inventory(self):
        # a new setting must show up here; one value in use belongs in a constant
        import inspect

        from zetalab import quadrature as quad, strip_map as smap, zero_analysis as za

        def params(fn):
            return list(inspect.signature(fn).parameters)

        assert {f.name for f in fields(AuditConfig)} == {
            "quad_tol", "zero_tol", "tau_max", "seed", "output_format", "jensen_samples",
            "rouche_tau", "rouche_epsilon", "rouche_nu",
        }
        assert params(za.rouche_scan) == ["tau", "lam", "epsilon"]
        assert params(za.winding_count) == ["fn", "rect"]
        assert params(quad.fermi_mellin) == ["s", "tol"]
        assert params(quad.f_shifted) == ["omega", "tol"]
        assert params(quad.m_star) == ["alpha", "tol"]
        assert params(quad.m_star_derivative) == ["alpha", "order", "tol"]
        assert params(quad.g_of_b) == ["b", "tol"]
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

        cfg = AuditConfig(seed=99, quad_tol=1e-6)
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
