"""Reference data for the benchmark, computed outside any timed process.

Run from the root of a zetalab checkout:

    python3 perfbench/reference.py points --seed N --out FILE
        mpmath values for every points-mixed input of seed N: altzeta, zeta,
        gamma, gamma*altzeta (the Fermi-Mellin integral), its alpha
        derivatives by mpmath.diff, and the disk-to-strip map phi evaluated
        in multiprecision; and altzeta for the seed's defect-check probes.  run.py calls this once per seed and caches FILE.
    python3 perfbench/reference.py zeros --out perfbench/ref/zeros_t100.json
        mpmath.zetazero ordinates of every zero up to height 100.
    python3 perfbench/reference.py audit --out perfbench/ref/audit_default.json
        the report bytes of ``zetalab audit`` with the default config, from
        src/ of the current directory; stored once as the regression gate
        for verdicts and observed values.

Deterministic: the same seed and code give byte-identical files.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import workloads as wl

DPS = 20


def _pair(x) -> list[float]:
    x = complex(x)
    return [x.real, x.imag]


def _points(seed: int) -> dict:
    import mpmath as mp

    mp.mp.dps = DPS

    def fermi(s):
        return mp.gamma(s) * mp.altzeta(s)

    def phi(z, b):
        theta = (z - b * 1j) / (1 + z * b * 1j)
        w = mp.log((1 + theta) / (1 - theta))
        return mp.mpf(1) / 4 + w.imag / (2 * mp.pi) - 1j * w.real / (2 * mp.pi)

    def mpc(pair):
        return mp.mpc(pair[0], pair[1])

    def ref(op: dict) -> dict:
        kind = op["kind"]
        if kind == "fermi_mellin":
            return {"value": _pair(fermi(mpc(op["s"])))}
        if kind in ("eta", "eta_probe", "defect_probe"):
            return {"value": _pair(mp.altzeta(mpc(op["s"])))}
        if kind == "zeta":
            return {"value": _pair(mp.zeta(mpc(op["s"])))}
        if kind == "gamma":
            return {"value": _pair(mp.gamma(mpc(op["s"])))}
        if kind == "m_star_derivative":
            d = mp.diff(fermi, mp.mpf(op["alpha"]), op["order"])
            return {"value": [float(d), 0.0]}
        if kind == "phi_roundtrip":
            return {"phi": _pair(phi(mpc(op["z"]), mp.mpf(op["b"])))}
        if kind == "f_on_disk":
            omega = phi(mpc(op["z"]), mp.mpf(op["b"]))
            return {"value": _pair(fermi(omega + mp.mpf(1) / 2))}
        raise ValueError(f"no reference for operation kind {kind!r}")

    ops, defect_ops = wl.make_points(seed), wl.make_defect_probes(seed)
    return {"seed": seed, "inputs_sha256": wl.inputs_digest(ops + defect_ops),
            "mpmath_dps": DPS, "refs": [ref(op) for op in ops],
            "defect_refs": [ref(op) for op in defect_ops]}


def _zeros() -> dict:
    import mpmath as mp

    mp.mp.dps = DPS
    betas = []
    k = 1
    while True:
        beta = float(mp.zetazero(k).imag)
        if beta > wl.ZEROS_TAU:
            break
        betas.append(beta)
        k += 1
    return {"tau": wl.ZEROS_TAU, "source": f"mpmath.zetazero(1..{k - 1}), dps {DPS}",
            "betas": betas}


def _audit(out: Path) -> None:
    sys.path.insert(0, str(Path.cwd() / "src"))
    from zetalab import cli

    code = cli.main(["audit", "--out", str(out)])
    if code != 0:
        raise SystemExit(f"audit exited with {code}; not storing it as the reference")


def _write_json(doc: dict, out: Path) -> None:
    tmp = out.with_name(out.name + f".tmp{os.getpid()}")
    tmp.write_text(json.dumps(doc, indent=1) + "\n")
    tmp.replace(out)                    # readers never see a partial file


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("what", choices=("points", "zeros", "audit"))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args(argv)
    args.out.parent.mkdir(parents=True, exist_ok=True)
    if args.what == "points":
        _write_json(_points(args.seed), args.out)
    elif args.what == "zeros":
        _write_json(_zeros(), args.out)
    else:
        _audit(args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
