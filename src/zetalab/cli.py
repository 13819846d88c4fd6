"""Batch command-line surface.

Subcommands: eval, bounds, map, zeros, jensen, rouche, audit.  Complex
arguments are passed as two positional reals (re, im).  Exit codes:
0 success, 1 FAIL verdicts present in an audit, 2 numerical error,
3 usage error (including a missing or malformed config file and an
out-of-range config value or flag; a point outside the domain is exit 2),
141 stdout closed by its reader (as for a process ended by SIGPIPE).
The config file holds the audit's inputs and applies to every subcommand; a
flag whose dest is a config field overrides it.  Other settings are flags.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import fields, replace
from pathlib import Path
from typing import Callable

from . import claim_audit, quadrature as quad, special_functions as sf
from . import strip_map as smap, zero_analysis as za
from .config import AuditConfig, load_config
from .errors import ZetaLabError

__all__ = ["main", "AuditConfig"]

USAGE_EXIT = 3
NUMERIC_EXIT = 2
BROKEN_PIPE_EXIT = 141  # 128 + SIGPIPE, as a shell reports `yes | head`
# The most rows bounds prints: one per 1e-6 of alpha over (0, 1], about
# 4 minutes at 0.26 ms a row (tol 1e-8, 2-CPU Xeon)
BOUNDS_MAX_ROWS = 10**6
# The most circle samples jensen takes: one f_on_disk quadrature each, about
# 3 minutes at 0.18 ms a sample (tol 1e-8, 2-CPU Xeon)
JENSEN_MAX_SAMPLES = 10**6
# The accuracy of special_functions.eta, relative to max(|eta|, 1): absolute
# near a zero.  Against mpmath.altzeta the largest error seen is 0.85 of it,
# near 0.34 + 415i, over 2,000 seeded points with Re(s) in (0, 1) and Im(s)
# up to 428, where eta answers; 3,952 more such points reached 0.60.
ETA_REL_TOL = 1e-12


class _CliExit(Exception):
    def __init__(self, code: int, message: str = ""):
        super().__init__(message)
        self.code = code


class _Parser(argparse.ArgumentParser):
    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        # argparse's own pattern takes -1e-3 for an option; no option looks like a number
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")

    def error(self, message):  # argparse default exits 2; the contract wants 3
        self.print_usage(sys.stderr)
        raise _CliExit(USAGE_EXIT, f"error: {message}")


def _number_where(kind: type, ok: Callable, requirement: str) -> Callable[[str], object]:
    """An argparse type: an int or float that ok accepts, else a usage error (NaN fails all)."""

    def parse(text: str):
        value = kind(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text} {requirement}")
        return value

    parse.__name__ = kind.__name__  # argparse names the type in "invalid float value"
    return parse


_positive = _number_where(float, lambda v: 0.0 < v < math.inf, "must be positive and finite")
_unit_open = _number_where(float, lambda v: 0.0 < v < 1.0, "must lie in (0, 1)")
_alpha = _number_where(float, lambda v: 0.0 < v <= 1.0, "must lie in (0, 1]")
_zero_tol = _number_where(float, lambda v: za.MIN_ZERO_TOL <= v < math.inf,
                          f"must be positive and finite, and >= {za.MIN_ZERO_TOL:g}")
_samples = _number_where(int, lambda v: 8 <= v <= JENSEN_MAX_SAMPLES,
                         f"must be >= 8 and <= {JENSEN_MAX_SAMPLES}")


def _build_parser() -> _Parser:
    parser = _Parser(prog="zetalab", description=__doc__)
    parser.add_argument("--tol", type=_positive, default=1e-8,
                        help="quadrature tolerance of eval, bounds and jensen (the audit fixes its own)")
    parser.add_argument("--format", choices=("csv", "doc"), default="doc", help="audit report format")
    parser.add_argument("--config", type=str, default=None, help="key=value config file")
    parser.add_argument("--seed", type=int, default=None, help="seed for randomized sweeps")
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a function at a complex point")
    p_eval.add_argument("function", choices=("zeta", "eta", "gamma", "F", "F_shifted"))
    p_eval.add_argument("re", type=float)
    p_eval.add_argument("im", type=float)

    p_bounds = sub.add_parser("bounds", help="CSV table of bound values over an alpha grid")
    p_bounds.add_argument("--lo", type=_alpha, default=0.5)
    p_bounds.add_argument("--hi", type=_alpha, default=1.0)
    p_bounds.add_argument("--step", type=_positive, default=0.1)

    p_map = sub.add_parser("map", help="disk-to-strip map diagnostics at one point")
    p_map.add_argument("re", type=float)
    p_map.add_argument("im", type=float)
    p_map.add_argument("b", type=_unit_open)

    p_zeros = sub.add_parser("zeros", help="critical-line zeros up to a height")
    p_zeros.add_argument("--tau", type=_positive, default=50.0, help="height")
    p_zeros.add_argument("--zero-tol", type=_zero_tol, default=1e-4)

    p_jensen = sub.add_parser("jensen", help="zero-free disk identity for the composed integral")
    p_jensen.add_argument("--b", type=_unit_open, default=0.9)
    p_jensen.add_argument("--radius", type=_unit_open, default=0.95)
    p_jensen.add_argument("--samples", type=_samples, default=384, help="circle samples")

    p_rouche = sub.add_parser("rouche", help="triangle-margin scan over the K(tau) boundary")
    p_rouche.add_argument("--tau", dest="rouche_tau", type=float, required=True)
    p_rouche.add_argument("--lam", type=_positive, default=None)
    p_rouche.add_argument("--epsilon", dest="rouche_epsilon", type=float)
    p_rouche.add_argument("--nu", dest="rouche_nu", type=float)

    p_audit = sub.add_parser("audit", help="run the full claim audit")
    p_audit.add_argument("--out", type=str, default=None, help="report file (default stdout)")

    return parser


def _resolve_config(args) -> AuditConfig:
    """The config file (or the defaults) with every flag named after a field set.

    A missing or malformed config file and an out-of-domain value are usage errors.
    """
    path = None if args.config is None else Path(args.config)
    if path is not None and not path.exists():
        raise _CliExit(USAGE_EXIT, f"error: config file not found: {path}")
    flags = {f.name: getattr(args, f.name, None) for f in fields(AuditConfig)}
    try:
        cfg = AuditConfig() if path is None else load_config(path)
        return replace(cfg, **{key: value for key, value in flags.items() if value is not None})
    except ZetaLabError as exc:
        raise _CliExit(USAGE_EXIT, f"error: {exc}") from None


def _fmt(x: float) -> str:
    return f"{x:.12g}"


def _cmd_eval(args, cfg: AuditConfig) -> int:
    s = complex(args.re, args.im)
    resolved = True
    if args.function in ("F", "F_shifted"):
        integral = quad.fermi_mellin if args.function == "F" else quad.f_shifted
        est = integral(s, args.tol)
        value, err, resolved = est.value, est.abs_error, est.resolved
    elif args.function == "gamma":
        value = sf.gamma(s)
        err = abs(value) * 1e-12
    elif args.function == "eta":
        value = sf.eta(s)
        err = ETA_REL_TOL * max(abs(value), 1.0)
    else:
        # zeta = eta/(1 - 2^(1-s)) carries eta's error divided by the factor,
        # which is small near Re(s) = 1, and the factor's own rounding, at
        # most 4u |2^(1-s)| for u = 2^-53, relative to the factor
        value = sf.zeta(s)
        power = 2.0 ** (1.0 - s)
        factor = abs(1.0 - power)
        err = (ETA_REL_TOL * max(abs(value) * factor, 1.0) / factor
               + abs(value) * 4.0 * 2.0**-53 * abs(power) / factor)
        resolved = abs(value) > err
    print(f"value = {_fmt(value.real)} {'+' if value.imag >= 0 else '-'} {_fmt(abs(value.imag))}i")
    print(f"modulus = {_fmt(abs(value))}" if resolved else f"modulus < {err:.3e} (unresolved)")
    print(f"abs_error <= {err:.3e}")
    return 0


def _cmd_bounds(args, cfg: AuditConfig) -> int:
    lo, hi, step = args.lo, args.hi, args.step
    if lo > hi:
        raise _CliExit(USAGE_EXIT, "error: bounds grid needs --lo <= --hi")
    steps = (hi - lo) / step + 1e-9  # a float, so a step of 1e-320 gives inf
    if steps >= BOUNDS_MAX_ROWS:
        raise _CliExit(USAGE_EXIT, f"error: --step {step!r} gives more than {BOUNDS_MAX_ROWS} rows")
    print("alpha,m,m_star,m_star_d1,m_star_d2")
    for i in range(math.floor(steps) + 1):
        a = lo + i * step
        if a >= hi - 1e-9 * step:  # hi on the grid to 1e-9 of a step: the last row is hi
            a = hi
        row = (a, quad.m_bound(a), quad.m_star(a, args.tol),
               *(quad.m_star_derivative(a, k, args.tol) for k in (1, 2)))
        print(",".join(_fmt(x) for x in row))
    return 0


def _cmd_map(args, cfg: AuditConfig) -> int:
    z = complex(args.re, args.im)
    t = smap.theta(z, args.b)
    omega = smap.phi(z, args.b)
    back = smap.phi_inverse(omega, args.b)
    print(f"theta  = {t}")
    print(f"omega  = {omega}")
    print(f"H      = {_fmt(smap.disk_modulus_H(t, args.b))}")
    print(f"roundtrip |phi_inverse(phi(z)) - z| = {abs(back - z):.3e}")
    return 0


def _cmd_zeros(args, cfg: AuditConfig) -> int:
    tau = args.tau
    zeros = za.critical_line_zeros(tau, args.zero_tol)
    print(f"zeros up to tau = {_fmt(tau)}: {len(zeros)}")
    for beta in zeros:
        print(f"  beta = {_fmt(beta)}")
    if tau >= 2.0 * math.pi * math.e:
        est = za.riemann_von_mangoldt(tau)
        print(f"counting-formula estimate = {_fmt(est)} (|count - estimate| = {abs(len(zeros) - est):.3f})")
    return 0


def _cmd_jensen(args, cfg: AuditConfig) -> int:
    fn = lambda z: smap.f_on_disk(z, args.b, args.tol)
    lhs, rhs = za.jensen_check(fn, [], args.radius, args.samples)
    print(f"lhs (log|f(0)|)        = {_fmt(lhs)}")
    print(f"rhs (circle average)   = {_fmt(rhs)}")
    print(f"|lhs - rhs|            = {abs(lhs - rhs):.3e}")
    return 0


def _cmd_rouche(args, cfg: AuditConfig) -> int:
    result = za.rouche_scan(**cfg.rouche_options(args.lam))
    print(f"tau (after genericity shift) = {_fmt(result.tau)}")
    print(f"lambda = {_fmt(result.lam)}, epsilon = {_fmt(result.epsilon)}")
    print(f"neutralized zeros = {[round(b, 6) for b in result.zeros]}")
    print(f"boundary samples = {result.boundary_samples}")
    print(f"min_margin = {result.min_margin:.6e} at omega = {result.argmin_omega}")
    print(f"min |f| away from zeros = {result.min_f_abs:.6e} at omega = {result.argmin_f_omega}")
    return 0


def _cmd_audit(args, cfg: AuditConfig) -> int:
    report = claim_audit.run_audit(cfg)
    if args.format == "csv":
        payload = "\n".join(claim_audit.report_to_lines(report)) + "\n"
    else:
        payload = claim_audit.report_to_json(report) + "\n"
    if args.out:
        Path(args.out).write_text(payload)
    else:
        sys.stdout.write(payload)
    print(f"\nconfig digest: {report.config_digest[:16]}...", file=sys.stderr)
    print("verdict totals:", file=sys.stderr)
    for verdict in ("PASS", "FAIL", "NOT_NUMERIC", "SKIPPED"):
        print(f"  {verdict:<12} {report.totals.get(verdict, 0)}", file=sys.stderr)
    for r in report.claims:
        if r.verdict == "FAIL":
            print(f"  FAIL {r.id}: {r.note}", file=sys.stderr)
    return 1 if report.totals.get("FAIL", 0) else 0


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        cfg = _resolve_config(args)
        handler = {
            "eval": _cmd_eval,
            "bounds": _cmd_bounds,
            "map": _cmd_map,
            "zeros": _cmd_zeros,
            "jensen": _cmd_jensen,
            "rouche": _cmd_rouche,
            "audit": _cmd_audit,
        }[args.command]
        code = handler(args, cfg)
        sys.stdout.flush()  # so that a closed stdout shows here, not at interpreter exit
        return code
    except BrokenPipeError:  # zetalab bounds | head: the interpreter's last flush goes to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return BROKEN_PIPE_EXIT
    except _CliExit as exc:
        if str(exc):
            print(str(exc), file=sys.stderr)
        return exc.code
    except ZetaLabError as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return NUMERIC_EXIT


if __name__ == "__main__":
    sys.exit(main())
