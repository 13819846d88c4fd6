"""Layered benchmark for zetalab.

Run from the root of a zetalab checkout:

    python3 perfbench/run.py --workload {audit-default|zeros-t100|points-mixed} \
        --seed N --seconds S --trace {0|1}

Each run builds (or reuses) the reference data for its seed, times the
set-up in fresh processes, then runs the workload in a fresh worker process
(worker.py) so that peak memory and the lazy caches belong to that workload.
The next-to-last line of standard output is a JSON object with every detail
(all end-to-end metrics of the workload with their units, the failure
histogram by operation kind and exception type, counters, provenance); the
last line is the summary

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

with the end-to-end metrics for ``--trace 0`` and the per-layer metrics for
``--trace 1``.  The full record is also written to perfbench/.out/.  The exit
code is 0 only when every output matched its reference.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import workloads as wl  # noqa: E402

SETUP_SAMPLES = 7           # set-up is timed in this many fresh processes
TIME_LIMIT_S = 170.0        # the whole run, reference generation included


class RunError(Exception):
    pass


def _python(args: list[str], deadline: float) -> str:
    """Run a Python child from the checkout root; return its last stdout line."""
    # One thread per process: NumPy's BLAS pool would only add idle threads
    # (zetalab's dot products are far too short to split) and start-up time.
    env = dict(os.environ, PYTHONHASHSEED="0", OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    try:
        proc = subprocess.run([sys.executable, *args], stdout=subprocess.PIPE, env=env,
                              text=True, timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired as exc:   # run() kills and reaps the child
        raise RunError(f"{args[0]} did not finish in time") from exc
    if proc.returncode != 0:
        raise RunError(f"{args[0]} exited with code {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    return lines[-1] if lines else ""


def _reference(workload: str, seed: int, deadline: float) -> Path:
    if workload == "audit-default":
        return HERE / "ref" / "audit_default.json"
    if workload == "zeros-t100":
        return HERE / "ref" / "zeros_t100.json"
    path = HERE / ".cache" / f"points-mixed-seed{seed}.json"
    if not path.exists():
        _python([str(HERE / "reference.py"), "points", "--seed", str(seed),
                 "--out", str(path)], deadline)
    return path


def _finite(x):
    return x if isinstance(x, (int, float)) and math.isfinite(x) else None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=wl.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + TIME_LIMIT_S

    root = Path.cwd()
    if not (root / "src" / "zetalab" / "__init__.py").is_file():
        print(f"no zetalab sources under {root / 'src'}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    out_dir = HERE / ".out"
    out_dir.mkdir(exist_ok=True)

    try:
        # Byte-compile first, so no set-up sample pays for compilation.
        _python(["-m", "compileall", "-q", str(root / "src"), str(HERE)], deadline)
        ref = _reference(args.workload, args.seed, deadline)
        common = [str(HERE / "worker.py"), "--workload", args.workload,
                  "--seed", str(args.seed), "--ref", str(ref), "--out-dir", str(out_dir)]
        # The first set-up is untimed: it brings NumPy and zetalab into the file cache.
        setups = [json.loads(_python([*common, "--seconds", "0", "--setup-only"], deadline))
                  ["setup_s"] for _ in range(SETUP_SAMPLES)][1:]
        result = json.loads(_python([*common, "--seconds", str(args.seconds),
                                     "--trace", str(args.trace)], deadline))
    except RunError as exc:
        print(f"benchmark run failed: {exc}", file=sys.stderr)
        return 2

    setups.append(result["setup_s"])
    result["setup_samples_s"] = setups
    result["setup_s"] = statistics.median(setups)
    result["run_seconds"] = args.seconds
    # Every failed operation makes a run incorrect; so does an unexpected
    # outcome of the defect check, and, in a traced run, exact counters that
    # differ between passes.
    result["correct"] = (result["failed"] == 0
                         and result.get("known_defects", {}).get("unexpected", 0) == 0
                         and result.get("counters_repeat", True))
    # Metric names and units come from BENCHMARK.json, the one list of them.
    spec = json.loads((root / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    result["metrics_by_name"] = {
        **{k: {"value": _finite(result[k]), "unit": u} for k, u in end_to_end.items()
           if k in result},
        "fail_frac": {"value": result["fail_frac"], "unit": "ratio"},
        "max_err_ratio": {"value": _finite(result["max_err_ratio"]), "unit": "ratio"},
    }
    values = result["per_layer"] if args.trace else result
    metrics = {m["name"]: {"value": _finite(values[m["name"]]), "unit": m["unit"]}
               for m in spec["per_layer" if args.trace else "end_to_end"]}
    text = json.dumps(result, sort_keys=True, default=str)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(text + "\n")
    print(text)
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": metrics}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
