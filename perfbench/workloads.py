"""Seeded inputs and correctness checks for the three benchmark workloads.

Standard library only: the reference generator (which imports mpmath) and the
timed worker (which imports zetalab) both build the ``points-mixed`` stream
from this module, so the two always see the same inputs for a seed.

Outcome classes for one operation:

* ``ok``             -- a value within the operation's stated tolerance;
* ``zetalab_error``  -- a ``ZetaLabError``; in contract only for height probes;
* ``bare_exception`` -- any other exception; always a failure;
* ``wrong``          -- a value outside its stated tolerance; always a failure.

No operation of a timed pass is expected to fail.  The known defects above
the heights the timed probes reach are shown by a separate, untimed defect
check (``make_defect_probes``, ``KNOWN_PROBE_DEFECTS``).
"""

from __future__ import annotations

import hashlib
import json
import math
import random

WORKLOADS = ("audit-default", "zeros-t100", "points-mixed")

ZEROS_TAU = 100.0
ZEROS_TOL = 1e-4
AUDIT_REL_TOL = 1e-12

# Operations per points-mixed pass, by kind.  Exact counts (not sampled
# fractions) keep the latency percentiles from jumping between kinds when the
# seed changes.  The calls below ~100 us (phi, gamma, eta, zeta, probes) are
# 39% of a pass and the f_on_disk and m_star_derivative calls (~150-450 us)
# the next 28%, so the median latency falls near the middle of that dense
# band, not at its lower edge, where it would follow the cheap calls' tail.
POINT_MIX = (
    ("fermi_mellin", 900),
    ("eta", 200),
    ("zeta", 200),
    ("gamma", 200),
    ("m_star_derivative", 300),
    ("phi_roundtrip", 300),
    ("f_on_disk", 450),
    ("eta_probe", 150),
)

# The one kind whose contract is "an answer within tolerance, or a
# ZetaLabError": eta above the heights the package documents.  Timed probes
# stay below PROBE_IM_MAX, under the heights where the known defects start.
PROBE_KIND = "eta_probe"
PROBE_IM_MAX = 220.0

# The untimed defect check: DEFECT_PROBES eta calls per run at
# Im in [PROBE_IM_MAX, DEFECT_IM_MAX], each made once after the timed passes.
DEFECT_PROBES = 60
DEFECT_IM_MAX = 600.0

# The bare exceptions eta raises above PROBE_IM_MAX today, as (exception
# type, the zetalab.special_functions function whose own frame raises it).
# Each is a known defect: shown in the defect check's histogram, not a broken
# contract.  Any other bare exception, or a wrong value, is.
KNOWN_PROBE_DEFECTS = {
    # sin(pi s) in gamma's reflection branch (Re(s) < 1/2), Im(s) > ~226
    ("OverflowError", "gamma"),
    # (3 + sqrt 8)**n for the n > ~402 terms eta asks for at Im(s) ~ 430-475
    ("OverflowError", "_cvz_weights"),
    # log(|Gamma(s)|) of an underflowed 0 while choosing the term count, Im(s) > ~450
    ("ValueError", "_eta_terms"),
}

ETA_REL_TOL = 1e-12    # relative to max(|eta|, 1): absolute near a zero
# The bound `zetalab eval gamma` reports.  The gamma docstring's "~1e-13" is
# approximate: the Lanczos error reaches 1.03e-13 on this stream.
GAMMA_REL_TOL = 1e-12
MAP_ABS_TOL = 1e-12    # phi value and |phi_inverse(phi(z)) - z|


def _lin(u: float, lo: float, hi: float) -> float:
    return lo + (hi - lo) * u


def _log(u: float, lo: float, hi: float) -> float:
    return 10.0 ** _lin(u, math.log10(lo), math.log10(hi))


def _disk(ur: float, ua: float, radius: float = 0.95) -> list[float]:
    """Uniform in the disk |z| <= radius."""
    r, a = radius * math.sqrt(ur), 2.0 * math.pi * ua
    return [r * math.cos(a), r * math.sin(a)]


# kind -> (number of random coordinates, builder from coordinates in [0, 1))
_OPS = {
    "fermi_mellin": (3, lambda u: {"s": [_lin(u[0], 0.05, 1.0), _lin(u[1], 0.0, 100.0)],
                                   "tol": _log(u[2], 1e-12, 1e-8)}),
    "eta": (2, lambda u: {"s": [_lin(u[0], 0.05, 0.95), _lin(u[1], 0.0, 100.0)]}),
    "zeta": (2, lambda u: {"s": [_lin(u[0], 0.05, 0.95), _lin(u[1], 0.0, 100.0)]}),
    "gamma": (2, lambda u: {"s": [_lin(u[0], 0.05, 0.95), _lin(u[1], 0.0, 100.0)]}),
    "m_star_derivative": (3, lambda u: {"alpha": _lin(u[0], 0.2, 1.0),
                                        "order": 1 if u[1] < 0.5 else 2,
                                        "tol": _log(u[2], 1e-12, 1e-8)}),
    "phi_roundtrip": (3, lambda u: {"z": _disk(u[0], u[1]), "b": _lin(u[2], 0.05, 0.95)}),
    "f_on_disk": (4, lambda u: {"z": _disk(u[0], u[1]), "b": _lin(u[2], 0.05, 0.95),
                                "tol": _log(u[3], 1e-10, 1e-8)}),
    "eta_probe": (2, lambda u: {"s": [_lin(u[0], 0.05, 0.95), _lin(u[1], 100.0, PROBE_IM_MAX)]}),
    "defect_probe": (2, lambda u: {"s": [_lin(u[0], 0.05, 0.95),
                                         _lin(u[1], PROBE_IM_MAX, DEFECT_IM_MAX)]}),
}


def _strata(rng: random.Random, n: int) -> list[float]:
    """One uniform draw from each of n equal strata of [0, 1), in random order."""
    u = [(i + rng.random()) / n for i in range(n)]
    rng.shuffle(u)
    return u


def make_points(seed: int) -> list[dict]:
    """The points-mixed stream for a seed: one dict per single-point call.

    Every coordinate of every kind is Latin-hypercube sampled (stratified),
    so the spread of costs within a pass is nearly the same for every seed
    while the points themselves differ.
    """
    rng = random.Random(seed)
    ops = []
    for kind, count in POINT_MIX:
        dims, build = _OPS[kind]
        coords = [_strata(rng, count) for _ in range(dims)]
        ops.extend({"kind": kind, **build(u)} for u in zip(*coords))
    rng.shuffle(ops)
    return ops


def make_defect_probes(seed: int) -> list[dict]:
    """The defect check's eta calls for a seed, stratified like make_points."""
    rng = random.Random(f"defect-probes-{seed}")
    dims, build = _OPS["defect_probe"]
    coords = [_strata(rng, DEFECT_PROBES) for _ in range(dims)]
    return [{"kind": "defect_probe", **build(u)} for u in zip(*coords)]


def inputs_digest(ops: list[dict]) -> str:
    """Identifies a stream, so a stored reference is never matched to other inputs."""
    return hashlib.sha256(json.dumps(ops, sort_keys=True).encode()).hexdigest()


def raising_frame(exc: BaseException):
    """The innermost Python frame of exc's traceback: where it was raised."""
    tb = exc.__traceback__
    while tb.tb_next is not None:
        tb = tb.tb_next
    return tb.tb_frame


def known_probe_defect(exc: BaseException) -> bool:
    """Whether a bare exception comes from one of KNOWN_PROBE_DEFECTS.

    The gamma overflow counts only when its frame took the reflection
    branch, Re(s) < 1/2.
    """
    frame = raising_frame(exc)
    function = frame.f_code.co_name
    if frame.f_globals.get("__name__") != "zetalab.special_functions":
        return False
    if (type(exc).__name__, function) not in KNOWN_PROBE_DEFECTS:
        return False
    return function != "gamma" or frame.f_locals["s"].real < 0.5


def as_complex(pair) -> complex:
    return complex(pair[0], pair[1])


def check_point(op: dict, value, ref: dict) -> tuple[str, float]:
    """Classify a returned value against its reference: ("ok"|"wrong", err/tol)."""
    kind = op["kind"]
    if kind == "phi_roundtrip":
        omega, back = value
        ratio = max(abs(omega - as_complex(ref["phi"])),
                    abs(back - as_complex(op["z"]))) / MAP_ABS_TOL
    else:
        want = as_complex(ref["value"])
        err = abs(complex(value) - want)
        if kind in ("fermi_mellin", "m_star_derivative", "f_on_disk"):
            tol = op["tol"]
        elif kind == "gamma":
            tol = GAMMA_REL_TOL * abs(want)
        else:
            tol = ETA_REL_TOL * max(abs(want), 1.0)
        ratio = err / tol
    return ("ok" if ratio <= 1.0 else "wrong"), ratio


def check_zeros(betas, ref_betas) -> tuple[int, int, float]:
    """(attempted, failed, max |beta - ref| / zero_tol) for one zero list.

    Each expected zero is an operation; a missing zero, an extra zero or a
    zero outside zero_tol of its reference fails.  Zeros are matched by rank,
    which is exact when both lists are complete and sorted.
    """
    betas = sorted(betas)
    failed = abs(len(betas) - len(ref_betas))
    worst = 0.0
    for got, want in zip(betas, ref_betas):
        ratio = abs(got - want) / ZEROS_TOL
        worst = max(worst, ratio)
        failed += ratio > 1.0
    return len(ref_betas), failed, worst


def _value_ratio(got, want) -> float:
    """|got - want| / (AUDIT_REL_TOL |want|) for numbers and number pairs, else 0 or inf."""
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return max((_value_ratio(g, w) for g, w in zip(got, want)), default=0.0)
    numeric = (int, float)
    if (isinstance(want, numeric) and isinstance(got, numeric)
            and not isinstance(want, bool) and not isinstance(got, bool)):
        err = abs(got - want)
        if err == 0.0:
            return 0.0
        return err / (AUDIT_REL_TOL * abs(want)) if want else math.inf
    return 0.0 if got == want else math.inf


def check_audit(report_bytes: bytes, ref_bytes: bytes) -> tuple[int, int, float]:
    """(attempted, failed, max observed-value error ratio) for one audit report.

    Each reference claim is an operation.  It fails if it is missing, if its
    verdict differs, or if its observed value is more than AUDIT_REL_TOL
    (relative) from the reference report.
    """
    ref = json.loads(ref_bytes)["claims"]
    try:
        got = json.loads(report_bytes)["claims"]
    except (ValueError, KeyError):
        return len(ref), len(ref), math.inf
    failed = 0
    worst = 0.0
    for cid, want in ref.items():
        have = got.get(cid)
        if have is None or have["verdict"] != want["verdict"]:
            failed += 1
            continue
        ratio = _value_ratio(have["observed"], want["observed"])
        worst = max(worst, ratio)
        failed += ratio > 1.0
    extra = len(set(got) - set(ref))
    return len(ref) + extra, failed + extra, worst

