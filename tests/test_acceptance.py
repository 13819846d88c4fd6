"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines; every tolerance and time limit is pinned here.
"""

import json
import math
import time
from pathlib import Path

import numpy as np

import zetalab.claim_audit as audit
import zetalab.quadrature as quad
import zetalab.special_functions as sf
import zetalab.strip_map as smap
import zetalab.zero_analysis as za

from oracles import (
    ZERO_ORDINATES,
    functional_equation_residual,
    poly_circle_max,
    poly_from_roots,
    random_poly_corpus,
)


def _criterion(n, description, ok, elapsed, limit, detail=""):
    status = "PASS" if ok else "FAIL"
    print(f"[criterion {n:02d}] {status} ({elapsed:.2f}s / limit {limit:.0f}s) {description} {detail}")
    assert ok, f"criterion {n} failed: {description} {detail}"
    assert elapsed < limit, f"criterion {n} exceeded {limit}s (took {elapsed:.1f}s)"


def test_criterion_01_m_star_half():
    t0 = time.time()
    v = quad.m_star(0.5, 1e-8)
    _criterion(1, "M*(1/2) = 1.07215 within 1e-4", abs(v - 1.07215) < 1e-4,
               time.time() - t0, 1.0, f"got {v:.8f}")


def test_criterion_02_m_star_one():
    t0 = time.time()
    v = quad.m_star(1.0, 1e-12)
    _criterion(2, "M*(1) = log 2 within 1e-10", abs(v - math.log(2.0)) < 1e-10,
               time.time() - t0, 1.0, f"got {v:.12f}")


def test_criterion_03_derivative_anchors():
    t0 = time.time()
    d_half = quad.m_star_derivative(0.5, 1, 1e-9)
    t1 = time.time() - t0
    t0b = time.time()
    d_one = quad.m_star_derivative(1.0, 1, 1e-9)
    t2 = time.time() - t0b
    ok = abs(d_half - (-1.76259)) < 1e-4 and abs(d_one - (-0.240227)) < 1e-6
    _criterion(3, "dM*/dalpha anchors at 1/2 and 1", ok and t1 < 1.0 and t2 < 1.0,
               t1 + t2, 2.0, f"got {d_half:.6f}, {d_one:.7f}")


def test_criterion_04_m_bound_half():
    t0 = time.time()
    v = quad.m_bound(0.5)
    _criterion(4, "M(1/2) = 1 + 1/e within 1e-10",
               abs(v - (1.0 + math.exp(-1.0))) < 1e-10,
               time.time() - t0, 1.0, f"got {v:.12f}")


def test_criterion_05_product_identity_grid():
    t0 = time.time()
    worst = 0.0
    for re in np.linspace(0.45, 0.95, 7):
        for im in np.linspace(0.0, 30.0, 7):
            s = complex(re, im)
            f = quad.fermi_mellin(s, 1e-9).value
            worst = max(worst, abs(f - sf.gamma(s) * sf.eta(s)))
    _criterion(5, "|F - gamma*eta| < 1e-8 on 7x7 grid", worst < 1e-8,
               time.time() - t0, 30.0, f"max {worst:.2e}")


def test_criterion_06_bound_chain_random():
    t0 = time.time()
    rng = np.random.default_rng(2020)
    cap = quad.m_star(0.5, 1e-9)
    worst_a = -math.inf
    worst_b = -math.inf
    for _ in range(1000):
        s = complex(rng.uniform(0.5, 1.0), rng.uniform(-50.0, 50.0))
        f_abs = abs(quad.fermi_mellin(s, 1e-7).value)
        ms = quad.m_star(s.real, 1e-7)
        worst_a = max(worst_a, f_abs - ms)
        worst_b = max(worst_b, ms - cap)
    ok = worst_a <= 1e-6 and worst_b <= 1e-6
    _criterion(6, "|F| <= M*(Re s) <= M*(1/2) on 1000 random points", ok,
               time.time() - t0, 120.0, f"max gaps {worst_a:.2e}, {worst_b:.2e}")


def test_criterion_07_convexity_and_decrease():
    t0 = time.time()
    rng = np.random.default_rng(2021)
    ok = True
    for _ in range(100):
        a1, a2 = sorted(rng.uniform(0.5, 1.0, 2))
        if a2 - a1 < 1e-3:
            continue
        t = float(rng.uniform(0.0, 1.0))
        mid = t * a1 + (1.0 - t) * a2
        lhs = quad.m_star(float(mid), 1e-9)
        rhs = t * quad.m_star(float(a1), 1e-9) + (1.0 - t) * quad.m_star(float(a2), 1e-9)
        ok = ok and lhs <= rhs + 1e-8
    vals = [quad.m_star(float(a), 1e-9) for a in np.linspace(0.5, 1.0, 50)]
    ok = ok and all(b - a < 1e-8 for a, b in zip(vals, vals[1:]))
    strictly = all(b - a < 0 for a, b in zip(vals, vals[1:]))
    _criterion(7, "convexity chords and 50-point decrease", ok and strictly,
               time.time() - t0, 60.0)


def test_criterion_08_conformal_map_suite():
    t0 = time.time()
    rng = np.random.default_rng(2022)
    ok = True
    worst_rt = 0.0
    worst_h = 0.0
    count = 0
    while count < 10**4:
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) >= 0.999:
            continue
        count += 1
        b = float(rng.uniform(0.001, 0.999))
        w = smap.phi(z, b)
        ok = ok and (0.0 < w.real < 0.5)
        worst_rt = max(worst_rt, abs(smap.phi_inverse(w, b) - z))
        t = smap.theta(z, b)
        worst_rt = max(worst_rt, abs(smap.theta_inverse(t, b) - z))
        worst_h = max(worst_h, abs(smap.disk_modulus_H(t, b) - abs(smap.theta_inverse(t, b))))
    centre = abs(smap.phi(0j, 1.0 - 1e-5))
    ok = ok and worst_rt < 1e-10 and worst_h < 1e-12 and centre < 1e-5
    _criterion(8, "conformal-map suite (range, round trips, H, centre limit)", ok,
               time.time() - t0, 30.0,
               f"rt {worst_rt:.1e}, H {worst_h:.1e}, centre {centre:.1e}")


def test_criterion_09_zero_location_and_count():
    t0 = time.time()
    zeros = za.critical_line_zeros(30.0, 1e-4)
    ok = len(zeros) == 3
    for got, ref in zip(zeros.betas, ZERO_ORDINATES):
        ok = ok and abs(got - ref) < 1e-3
    count = za.winding_count(
        lambda s: sf.eta(s), za.RectangleRegion(0.1, 0.9, 0.0, 50.0)
    )
    estimate = za.riemann_von_mangoldt(50.0)
    ok = ok and count == 10 and abs(count - estimate) < 1.5
    _criterion(9, "3 zeros below 30 (1e-3), count 10 below 50 vs formula", ok,
               time.time() - t0, 300.0,
               f"zeros {[round(b, 5) for b in zeros.betas]}, count {count}, est {estimate:.2f}")


def test_criterion_10_jensen_suite():
    t0 = time.time()
    corpus = random_poly_corpus(np.random.default_rng(2023), 100)
    worst = 0.0
    for roots in corpus:
        lhs, rhs = za.jensen_check(poly_from_roots(roots), list(roots), 1.0, 512)
        worst = max(worst, abs(lhs - rhs))
    fn = lambda z: smap.f_on_disk(z, 0.9, 1e-8)
    lhs, rhs = za.jensen_check(fn, [], 0.95, 384)
    zero_free_gap = abs(lhs - rhs)
    ok = worst < 1e-8 and zero_free_gap < 1e-4
    _criterion(10, "Jensen identity on polynomials and zero-free composed integral",
               ok, time.time() - t0, 120.0,
               f"poly max {worst:.1e}, zero-free {zero_free_gap:.1e}")


def test_criterion_11_titchmarsh_soundness():
    t0 = time.time()
    corpus = random_poly_corpus(np.random.default_rng(2023), 100)
    ok = True
    for roots in corpus:
        f0 = abs(poly_from_roots(roots)(0j))
        big_m = max(poly_circle_max(roots), f0)
        for delta in (0.5, 0.7, 0.9):
            count = sum(1 for r in roots if abs(r) <= delta)
            ok = ok and count <= za.titchmarsh_zero_bound(big_m, f0, delta)
            if za.titchmarsh_zero_free(big_m, f0, delta):
                ok = ok and count == 0
    _criterion(11, "zero-count bound and zero-free predicate sound on corpus", ok,
               time.time() - t0, 60.0)


def test_criterion_12_blaschke_unimodularity():
    t0 = time.time()
    rng = np.random.default_rng(2024)
    betas = list(ZERO_ORDINATES)
    worst = 0.0
    count = 0
    while count < 10**4:
        omega = complex(rng.uniform(0.0, 0.5), rng.uniform(0.0, 30.0))
        n = int(rng.integers(0, len(betas) + 1))
        subset = betas[:n]
        if subset and min(abs(omega - 1j * b) for b in subset) < 2e-3:
            continue
        count += 1
        worst = max(worst, abs(abs(za.blaschke_L(omega, subset)) - 1.0))
    _criterion(12, "|L(omega)| = 1 within 1e-12 on 10^4 pairs", worst < 1e-12,
               time.time() - t0, 60.0, f"max deviation {worst:.1e}")


def test_criterion_13_rouche_scan_k16():
    t0 = time.time()
    scan = za.rouche_scan(16.0, epsilon=0.1, nu=0.01)
    ok = scan.min_margin >= -1e-12 and scan.min_f_abs > 0.0
    _criterion(13, "K(16) scan completes, margin >= -1e-12, boundary nonvanishing",
               ok, time.time() - t0, 300.0,
               f"margin {scan.min_margin:.2e}, min|f| {scan.min_f_abs:.2e}")


def test_criterion_14_functional_equation_grid():
    t0 = time.time()
    worst = 0.0
    for a in np.linspace(0.2, 0.8, 7):
        for b in np.linspace(0.0, 30.0, 7):
            worst = max(worst, functional_equation_residual(complex(a, b)))
    _criterion(14, "functional-equation residual < 1e-7 on the grid", worst < 1e-7,
               time.time() - t0, 60.0, f"max {worst:.1e}")


def test_criterion_15_full_audit(default_audit):
    (report1, report2), elapsed = default_audit
    ok = (
        report1.totals.get("PASS", 0) >= 25
        and report1.totals.get("NOT_NUMERIC", 0) == 4
        and report1.totals.get("SKIPPED", 0) == 0
        and audit.report_to_json(report1) == audit.report_to_json(report2)
    )
    _criterion(15, "full audit: >=25 PASS, 4 NOT_NUMERIC, 0 SKIPPED, deterministic",
               ok, elapsed, 900.0, f"totals {report1.totals}")


# The benchmark's stored default-config report, which it checks each audit
# run against: same verdict, observed numbers within 1e-12 relative, and
# every other field equal.
BENCHMARK_AUDIT_REF = Path(__file__).parents[1] / "perfbench" / "ref" / "audit_default.json"


def _observed_match(got, want) -> bool:
    if isinstance(want, list):
        return (isinstance(got, list) and len(got) == len(want)
                and all(_observed_match(g, w) for g, w in zip(got, want)))
    if isinstance(want, (int, float)) and not isinstance(want, bool):
        return (isinstance(got, (int, float)) and not isinstance(got, bool)
                and abs(got - want) <= 1e-12 * abs(want))
    return got == want


def test_default_audit_matches_benchmark_reference(default_audit):
    (report, _), _ = default_audit
    got = json.loads(audit.report_to_json(report))["claims"]
    ref = json.loads(BENCHMARK_AUDIT_REF.read_text())["claims"]
    assert sorted(got) == sorted(ref)
    for cid, want in ref.items():
        have = got[cid]
        assert have["verdict"] == want["verdict"], cid
        assert _observed_match(have["observed"], want["observed"]), (cid, have["observed"])
        assert {k: v for k, v in have.items() if k != "observed"} == \
            {k: v for k, v in want.items() if k != "observed"}, cid
