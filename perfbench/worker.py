"""One benchmark workload, measured in a fresh process.

Run from the root of a zetalab checkout (``run.py`` starts it):

    python3 perfbench/worker.py --workload W --seed N --seconds S --trace 0|1 \
        --ref REF --out-dir DIR [--setup-only]

The process imports zetalab from ``src/`` of the current directory, builds
the workload's inputs and makes the warm-up calls; that interval is
``setup_s``.  With ``--setup-only`` it prints ``{"setup_s": ...}`` and exits.
Otherwise it runs closed-loop passes (one client, no threads) until
``--seconds`` have been measured, checks every output against the stored
reference, and prints one JSON line with the raw results.

With ``--trace 1`` untraced and traced passes alternate (see tracer.py);
the difference of their median pass times is the tracing overhead.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import os
import resource
import statistics
import sys
import time
from array import array
from dataclasses import dataclass
from pathlib import Path

import workloads as wl

clock = time.perf_counter


def quantile(values, q: float) -> float:
    """Linear-interpolated quantile of a non-empty sample, q in [0, 1]."""
    v = sorted(values)
    pos = q * (len(v) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(v) - 1)
    return v[lo] + (v[hi] - v[lo]) * (pos - lo)


def tail_quantile(values) -> dict | None:
    """The highest quantile with at least ten samples beyond it, or None."""
    n = len(values)
    if n < 11:
        return None
    q = math.floor(1000.0 * (1.0 - 10.0 / n)) / 1000.0
    return {"q": q, "value": quantile(values, q), "n": n}


@dataclass
class PassResult:
    wall: float
    latencies: array            # seconds ('d'), calls with an in-contract outcome
    attempted: int
    failed: int                 # every failure makes the run incorrect
    max_ratio: float            # largest |output - reference| / tolerance
    outcomes: dict[str, int]    # "kind:outcome" -> count


# -- the three workloads ------------------------------------------------------

class AuditDefault:
    """``zetalab audit --out FILE`` through cli.main with the default config."""

    def __init__(self, zl, seed: int, ref_path: Path, out_dir: Path):
        self.cli = zl.cli
        self.out = out_dir / f"audit-report-{os.getpid()}.json"
        self.ref_path = ref_path

    def load_reference(self):
        self.ref_bytes = self.ref_path.read_bytes()

    def run_pass(self) -> PassResult:
        self.out.unlink(missing_ok=True)
        err = io.StringIO()
        t = clock()
        try:
            with contextlib.redirect_stderr(err):
                code = self.cli.main(["audit", "--out", str(self.out)])
        except Exception as exc:          # a bare exception fails every claim
            wall = clock() - t
            n = len(json.loads(self.ref_bytes)["claims"])
            return PassResult(wall, array("d"), n, n, math.inf,
                              {f"audit:bare_exception:{type(exc).__name__}": n})
        wall = clock() - t
        report = self.out.read_bytes() if self.out.exists() else b""
        attempted, failed, ratio = wl.check_audit(report, self.ref_bytes)
        if code != 0:
            failed = attempted
        outcomes = {"claim:ok": attempted - failed}
        if failed:
            outcomes[f"claim:wrong:exit{code}"] = failed
        outcomes["report:bytes_identical" if report == self.ref_bytes
                 else "report:bytes_differ"] = 1
        return PassResult(wall, array("d", [wall] if not failed else []), attempted, failed,
                          ratio, outcomes)

    def close(self):
        self.out.unlink(missing_ok=True)


class ZerosT100:
    """``critical_line_zeros(100, 1e-4)``: the 29 zeros up to height 100."""

    def __init__(self, zl, seed: int, ref_path: Path, out_dir: Path):
        self.za = zl.zero_analysis
        self.ref_path = ref_path

    def load_reference(self):
        self.ref = json.loads(self.ref_path.read_text())["betas"]

    def run_pass(self) -> PassResult:
        t = clock()
        try:
            zeros = self.za.critical_line_zeros(wl.ZEROS_TAU, wl.ZEROS_TOL)
        except Exception as exc:
            wall = clock() - t
            n = len(self.ref)
            return PassResult(wall, array("d"), n, n, math.inf,
                              {f"zero:{type(exc).__name__}": n})
        wall = clock() - t
        attempted, failed, ratio = wl.check_zeros(list(zeros.betas), self.ref)
        outcomes = {"zero:ok": attempted - failed}
        if failed:
            outcomes["zero:wrong"] = failed
        return PassResult(wall, array("d", [wall] if not failed else []), attempted, failed,
                          ratio, outcomes)

    def close(self):
        pass


class PointsMixed:
    """A seeded stream of single-point calls; nothing is shared between calls."""

    def __init__(self, zl, seed: int, ref_path: Path, out_dir: Path):
        self.ops = wl.make_points(seed)
        self.defect_ops = wl.make_defect_probes(seed)
        self.seed = seed
        self.ref_path = ref_path
        self.zetalab_error = zl.errors.ZetaLabError
        self.calls = [_bind_call(op, zl) for op in self.ops]
        self.defect_calls = [_bind_call(op, zl) for op in self.defect_ops]
        self.kind_latencies: dict[str, array] = {}   # over all passes, 8 bytes a call

    def load_reference(self):
        doc = json.loads(self.ref_path.read_text())
        if doc["inputs_sha256"] != wl.inputs_digest(self.ops + self.defect_ops):
            raise SystemExit(f"reference {self.ref_path} does not match the inputs of seed {self.seed}")
        self.refs = doc["refs"]
        self.defect_refs = doc["defect_refs"]

    def _call(self, call):
        """(latency, value, error outcome or None, known defect) of one call."""
        t = clock()
        try:
            value = call()
        except self.zetalab_error as exc:
            return clock() - t, None, "zetalab_error:" + type(exc).__name__, False
        except Exception as exc:
            dt = clock() - t
            where = wl.raising_frame(exc).f_code.co_name
            return (dt, None, f"bare_exception:{type(exc).__name__}@{where}",
                    wl.known_probe_defect(exc))
        return clock() - t, value, None, False

    def run_pass(self) -> PassResult:
        t_pass = clock()
        results = [self._call(call) for call in self.calls]
        wall = clock() - t_pass

        latencies, outcomes = array("d"), {}
        failed = 0
        max_ratio = 0.0
        for op, ref, (dt, value, error, _) in zip(self.ops, self.refs, results):
            outcome = error
            if error is None:
                outcome, ratio = wl.check_point(op, value, ref)
                max_ratio = max(max_ratio, ratio)
            if outcome == "ok" or (op["kind"] == wl.PROBE_KIND
                                   and outcome.startswith("zetalab_error")):
                latencies.append(dt)
                self.kind_latencies.setdefault(op["kind"], array("d")).append(dt)
            else:
                failed += 1
            key = f"{op['kind']}:{outcome}"
            outcomes[key] = outcomes.get(key, 0) + 1
        return PassResult(wall, latencies, len(self.ops), failed, max_ratio, outcomes)

    def defect_check(self) -> dict:
        """Each defect probe once, untimed: the known defects stay visible.

        A probe may return a value within tolerance, raise a ZetaLabError or
        raise one of KNOWN_PROBE_DEFECTS; anything else is ``unexpected`` and
        makes the run incorrect.
        """
        outcomes, unexpected = {}, 0
        for op, ref, call in zip(self.defect_ops, self.defect_refs, self.defect_calls):
            _, value, outcome, known_defect = self._call(call)
            if outcome is None:
                outcome, _ = wl.check_point(op, value, ref)
            unexpected += not (outcome == "ok" or outcome.startswith("zetalab_error")
                               or known_defect)
            outcomes[outcome] = outcomes.get(outcome, 0) + 1
        return {"probes": len(self.defect_ops), "im_range": [wl.PROBE_IM_MAX, wl.DEFECT_IM_MAX],
                "outcomes": dict(sorted(outcomes.items())), "unexpected": unexpected}

    def close(self):
        pass


def _bind_call(op: dict, zl):
    """A no-argument call for one operation.

    Module attributes are looked up at call time, so traced passes go
    through the tracer's wrappers.
    """
    sf, quad, smap = zl.special_functions, zl.quadrature, zl.strip_map
    kind = op["kind"]
    if kind == "fermi_mellin":
        s, tol = wl.as_complex(op["s"]), op["tol"]
        return lambda: quad.fermi_mellin(s, tol).value
    if kind in ("eta", "eta_probe", "defect_probe", "zeta", "gamma"):
        s = wl.as_complex(op["s"])
        fn_name = "eta" if kind.endswith("_probe") else kind
        return lambda: getattr(sf, fn_name)(s)
    if kind == "m_star_derivative":
        alpha, order, tol = op["alpha"], op["order"], op["tol"]
        return lambda: quad.m_star_derivative(alpha, order, tol)
    z, b = wl.as_complex(op["z"]), op["b"]
    if kind == "phi_roundtrip":
        def roundtrip():
            omega = smap.phi(z, b)
            return omega, smap.phi_inverse(omega, b)
        return roundtrip
    if kind == "f_on_disk":
        tol = op["tol"]
        return lambda: smap.f_on_disk(z, b, tol)
    raise ValueError(f"unknown operation kind {kind!r}")


WORKLOAD_CLASSES = {
    "audit-default": AuditDefault,
    "zeros-t100": ZerosT100,
    "points-mixed": PointsMixed,
}


def warm_up(zl) -> None:
    """Fill the lazy caches: the cached M*(1/2) and the eta weights."""
    zl.zero_analysis.lambda_choice(1.0, 0.1, 0.01)
    for t in range(0, 101, 5):
        zl.special_functions.eta(complex(0.5, t))


# -- measurement ----------------------------------------------------------------

def run_passes(workload, seconds: float, tracer=None, zetalab=None):
    """Closed loop: passes back to back until `seconds` have elapsed.

    With a tracer, passes alternate untraced and traced, so that both halves
    sample the same stretch of time on a machine whose speed drifts.
    Returns (untraced passes, traced passes, span ranges, counter deltas).
    """
    untraced, traced, spans, counters = [], [], [], []
    start = clock()
    while not untraced or (tracer and not traced) or clock() - start < seconds:
        gc.collect()                    # each pass starts from the same heap state
        if tracer is None or len(traced) == len(untraced):
            untraced.append(workload.run_pass())
            continue
        before, lo = tracer.snapshot(), tracer.mark()
        tracer.install(zetalab)
        try:
            traced.append(workload.run_pass())
        finally:
            tracer.uninstall()
        spans.append((lo, tracer.mark()))
        counters.append(counter_delta(before, tracer.snapshot()))
    return untraced, traced, spans, counters


def summarize(passes: list[PassResult]) -> dict:
    walls = [p.wall for p in passes]
    lats = array("d")
    for p in passes:
        lats.extend(p.latencies)
    outcomes: dict[str, int] = {}
    for p in passes:
        for k, v in p.outcomes.items():
            outcomes[k] = outcomes.get(k, 0) + v
    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    return {
        "passes": len(passes),
        "wall_s": statistics.median(walls),
        "wall_samples_s": walls,
        "wall_tail_s": tail_quantile(walls),
        "op_samples": len(lats),
        "op_p50_us": 1e6 * quantile(lats, 0.50) if lats else math.inf,
        "op_p99_us": 1e6 * quantile(lats, 0.99) if lats else math.inf,
        "op_tail_s": tail_quantile(lats),
        "attempted": attempted,
        "failed": failed,
        "fail_frac": failed / attempted,
        "max_err_ratio": max(p.max_ratio for p in passes),
        "outcomes": dict(sorted(outcomes.items())),
    }


def traced_metrics(tracer, traced: list[PassResult], spans: list[tuple[int, int]],
                   counters: list[dict], untraced_wall: float) -> dict:
    """Per-layer metrics per pass: counters from the first traced pass, self
    times as the median over traced passes."""
    selfs = [tracer.self_times(lo, hi) for lo, hi in spans]

    def self_s(qual: str) -> float:
        return statistics.median(s[qual] for s in selfs)

    def layer_self(layer: str) -> float:
        return statistics.median(
            sum(v for q, v in s.items() if q.startswith(layer + ".")) for s in selfs)

    c = counters[0]
    calls, counts = c["calls"], c["counts"]
    fm_calls = calls["quadrature.fermi_mellin"]
    evals = counts.get("integrand_evals", 0)
    fn_evals = counts.get("winding_fn_evals", 0)
    initial = counts.get("winding_initial_samples", 0)
    zeros_found = counts.get("zeros_found", 0)
    traced_wall = statistics.median(p.wall for p in traced)
    m = {
        "quadrature.self_s": layer_self("quadrature"),
        "quadrature.fermi_mellin.calls": fm_calls,
        "quadrature.fermi_mellin.self_s": self_s("quadrature.fermi_mellin"),
        "quadrature.integrand_evals": evals,
        "quadrature.evals_per_call": evals / fm_calls if fm_calls else 0.0,
        "quadrature.m_star_derivative.self_s": self_s("quadrature.m_star_derivative"),
        "quadrature.budget_exhausted": sum(
            v for k, v in c["exceptions"].items()
            if k.startswith("quadrature.") and k.endswith(":ToleranceNotMet")),
        "special_functions.self_s": layer_self("special_functions"),
        "special_functions.eta.calls": calls["special_functions.eta"],
        "special_functions.eta.self_s": self_s("special_functions.eta"),
        "special_functions.gamma.calls": calls["special_functions.gamma"],
        "special_functions.gamma.self_s": self_s("special_functions.gamma"),
        "special_functions.gamma_abs_product.self_s": self_s("special_functions.gamma_abs_product"),
        "zero_analysis.self_s": layer_self("zero_analysis"),
        "zero_analysis.winding_count.calls": calls["zero_analysis.winding_count"],
        "zero_analysis.winding_count.self_s": self_s("zero_analysis.winding_count"),
        "zero_analysis.winding.fn_evals": fn_evals,
        "zero_analysis.winding.refine_evals": fn_evals - initial,
        "zero_analysis.winding.useful_ratio": initial / fn_evals if fn_evals else 0.0,
        "zero_analysis.eta_calls_per_zero":
            counts.get("eta_in_zeros", 0) / zeros_found if zeros_found else 0.0,
        "zero_analysis.rouche_scan.self_s": self_s("zero_analysis.rouche_scan"),
        "zero_analysis.blaschke_L.calls": calls["zero_analysis.blaschke_L"],
        "strip_map.calls": sum(v for k, v in calls.items() if k.startswith("strip_map.")),
        "strip_map.self_s": layer_self("strip_map"),
        "claim_audit.self_s": layer_self("claim_audit"),
        "claim_audit.run_audit.self_s": self_s("claim_audit.run_audit"),
        "claim_audit.claims": counts.get("claims", 0),
        "cli.self_s": layer_self("cli"),
        "cli.main.self_s": self_s("cli.main"),
        "trace.wall_s": traced_wall,
        "trace.overhead_s": traced_wall - untraced_wall,
    }
    return m


def counter_delta(before: dict, after: dict) -> dict:
    return {group: {k: v - before[group].get(k, 0) for k, v in after[group].items()}
            for group in after}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--ref", type=Path, required=True)
    ap.add_argument("--out-dir", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    src = Path.cwd() / "src"
    t0 = clock()
    sys.path.insert(0, str(src))
    import zetalab
    from zetalab import (claim_audit, cli, errors, quadrature, special_functions,  # noqa: F401
                         strip_map, zero_analysis)
    if not Path(zetalab.__file__).resolve().is_relative_to(src.resolve()):
        print(f"zetalab imported from {zetalab.__file__}, not from {src}", file=sys.stderr)
        return 2
    workload = WORKLOAD_CLASSES[args.workload](zetalab, args.seed, args.ref, args.out_dir)
    warm_up(zetalab)
    setup_s = clock() - t0
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    import numpy
    workload.load_reference()
    result = {
        "workload": args.workload,
        "seed": args.seed,
        "setup_s": setup_s,
        "provenance": {
            "nproc": os.cpu_count(),
            "cpus_usable": len(os.sched_getaffinity(0)),
            "python": sys.version.split()[0],
            "numpy": numpy.__version__,
        },
    }
    try:
        if not args.trace:
            passes, _, _, _ = run_passes(workload, args.seconds)
            # Read before summarize() builds its sorted copies of the samples.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
            result.update(summarize(passes))
            if isinstance(workload, PointsMixed):
                result["op_p50_us_by_kind"] = {k: 1e6 * statistics.median(v) for k, v
                                               in sorted(workload.kind_latencies.items())}
            result["peak_rss_mb"] = peak_rss_mb
        else:
            from tracer import Tracer

            tracer = Tracer()
            untraced, traced, spans, counters = run_passes(
                workload, args.seconds, tracer, zetalab)
            # Timings from the untraced passes; outcomes from every pass.
            result.update(summarize(untraced))
            every = summarize(untraced + traced)
            for key in ("attempted", "failed", "fail_frac", "max_err_ratio", "outcomes"):
                result[key] = every[key]
            result["traced_passes"] = len(traced)
            result["counters_repeat"] = all(c == counters[0] for c in counters)
            result["counters"] = counters[0]
            result["per_layer"] = traced_metrics(
                tracer, traced, spans, counters, statistics.median(p.wall for p in untraced))
            result["spans"] = tracer.dump(args.out_dir / f"spans-{args.workload}.bin")
        if isinstance(workload, PointsMixed):
            result["known_defects"] = workload.defect_check()
    finally:
        workload.close()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
