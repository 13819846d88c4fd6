"""Registry binding each numbered numerical claim to an executable check.

A claim is declared at its check, with the ``_claim`` decorator::

    @_claim("EQ13A", "anchor value", "M*(1/2) = 1.07215 to 1e-4", "equality", 1e-4)
    def _check_eq13a(ctx, tol, rng):
        v = quad.m_star_half()
        return abs(v - V_M_STAR_HALF) < tol, v, "M*(1/2) vs printed 1.07215"

The arguments are the id, the paper reference, a human description, the
check kind and the tolerance.  The audit calls the check with the shared
``_Context``, that tolerance and the claim's own generator; the check
applies the tolerance as its slack and returns (passed, observed, note).
Each claim produces one of four verdicts:

* PASS / FAIL    -- the check ran and the assertion held / did not hold;
* NOT_NUMERIC    -- the claim is declared with check kind "flagged": an
  expression with no finite numerical reading (a Dirac-delta derivative and
  the three inequalities quoting it).  It is never checked; its declaration
  carries the explanatory note, and its function only returns a value to
  report in its place, or None;
* SKIPPED        -- infrastructure gave out (quadrature budget, phase
  tracking); the reason is recorded and the audit continues.

The audit treats the source material as a set of testable assertions about
computable quantities; proof-logical steps are out of scope by design, and a
PASS total says nothing about any headline claim.

Each check draws randomness from the generator it is passed, seeded by
(config seed, claim id), so the report body is byte-identical across runs
with the same config digest regardless of execution order.  Every claim
fixes its own tolerance and sample counts: the body reads each config field,
the seed and rouche_tau, rouche_epsilon and rouche_nu, and no CLI setting.
"""

from __future__ import annotations

import cmath
import hashlib
import itertools
import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import cached_property
from typing import Callable, Optional

import numpy as np

from . import quadrature as quad
from . import special_functions as sf
from . import strip_map as smap
from . import zero_analysis as za
from .config import AuditConfig
from .errors import NonConvergence, ToleranceNotMet, ZetaLabError

__all__ = [
    "ClaimRecord",
    "AuditReport",
    "FLAGGED_CLAIMS",
    "list_claims",
    "run_audit",
    "report_to_doc",
    "report_to_json",
    "report_to_lines",
]

# Printed anchor values (5-6 significant digits) and their exact counterparts.
V_M_STAR_HALF = 1.07215
V_M_STAR_ONE = 0.69315
V_M_HALF = 1.36788
V_D1_HALF = -1.76259
V_D1_ONE = -0.240227

# Random points of the upper sweep (EQ8B, EQ9, EQ16); EQ6 draws half as many.
SWEEP_SAMPLES = 1000


@dataclass(frozen=True)
class ClaimRecord:
    id: str
    paper_ref: str
    description: str
    check_kind: str  # equality | inequality | limit | monotonicity | count | flagged
    tolerance: float
    verdict: str = "SKIPPED"  # PASS | FAIL | NOT_NUMERIC | SKIPPED
    observed: Optional[object] = None
    note: str = ""


@dataclass(frozen=True)
class AuditReport:
    claims: tuple[ClaimRecord, ...]
    config_digest: str
    totals: dict[str, int] = field(default_factory=dict)


class _Context:
    """Shared inputs, each computed on first use and reused across claims."""

    def __init__(self, cfg: AuditConfig):
        self.cfg = cfg

    @cached_property
    def m_star_one(self) -> float:
        return quad.m_star(1.0, 1e-10)

    @cached_property
    def zeros30(self) -> za.CriticalZeroList:
        return za.critical_line_zeros(30.0)

    @cached_property
    def _scan16(self) -> za.RoucheScanResult | ZetaLabError:
        cfg = self.cfg
        try:
            return za.rouche_scan(cfg.rouche_tau, cfg.rouche_epsilon, cfg.rouche_nu)
        except ZetaLabError as exc:  # a cached_property caches no exception: keep it as the value
            return exc

    @property
    def scan16(self) -> za.RoucheScanResult:
        if isinstance(self._scan16, ZetaLabError):
            raise self._scan16
        return self._scan16

    @cached_property
    def upper_sweep(self):
        """Random points of [1/2, 1] x [0, 50] with |F|, M*(alpha) at each."""
        rng = _claim_rng(self.cfg.seed, "UPPER-SWEEP")
        re = rng.uniform(0.5, 1.0, SWEEP_SAMPLES)
        im = rng.uniform(0.0, 50.0, SWEEP_SAMPLES)
        f_abs = np.empty(SWEEP_SAMPLES)
        ms = np.empty(SWEEP_SAMPLES)
        for k in range(SWEEP_SAMPLES):
            s = complex(re[k], im[k])
            f_abs[k] = abs(quad.fermi_mellin(s, 1e-7).value)
            ms[k] = quad.m_star(re[k], 1e-7)
        return re, im, f_abs, ms

    @cached_property
    def poly_corpus(self):
        """100 random polynomials with roots in 0.05 <= |z| <= 0.9, as
        (roots, |f(0)|, M) with M the larger of |f(0)| and max |f| on |z| = 1."""
        rng = _claim_rng(self.cfg.seed, "POLY-CORPUS")
        corpus = []
        while len(corpus) < 100:
            deg = int(rng.integers(1, 5))
            roots = []
            while len(roots) < deg:
                z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
                if 0.05 <= abs(z) <= 0.9:
                    roots.append(z)
            f0 = abs(_poly_fn(roots)(0.0 + 0.0j))
            corpus.append((tuple(roots), f0, max(_poly_circle_max(roots), f0)))
        return corpus


def _claim_rng(seed: int, claim_id: str) -> np.random.Generator:
    tag = int.from_bytes(hashlib.sha256(claim_id.encode()).digest()[:8], "big")
    return np.random.default_rng([seed, tag])


def _disk_draws(rng: np.random.Generator, radius: float, draws: int):
    """(z, b) pairs: z uniform on [-1, 1]^2, kept if |z| < radius, then b uniform
    on [0.01, 0.99].  Stops after `draws` draws of z."""
    for _ in range(draws):
        z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(z) < radius:
            yield z, float(rng.uniform(0.01, 0.99))


def _poly_fn(roots):
    def fn(z: complex) -> complex:
        acc = 1.0 + 0.0j
        for r in roots:
            acc *= z - r
        return acc

    return fn


def _poly_circle_max(roots) -> float:
    fn = _poly_fn(roots)
    return max(abs(fn(cmath.exp(2j * math.pi * k / 1024))) for k in range(1024))


# id -> (unexecuted record, check or observer, note of a flagged claim)
_CLAIMS: dict[str, tuple[ClaimRecord, Callable, str]] = {}


def _claim(id: str, paper_ref: str, description: str, check_kind: str, tolerance: float,
           note: str = ""):
    """Register the decorated function for one claim.

    check_kind is one of equality | inequality | limit | monotonicity | count
    | flagged.  A check takes (ctx, tol, rng): tol is this tolerance, which it
    applies, and rng the claim's generator.  It returns (passed, observed, note).
    A flagged claim is never checked: its observer takes (ctx) and returns the
    value to report (or None), and the record carries the declared note.
    """
    def register(fn):
        _CLAIMS[id] = (ClaimRecord(id, paper_ref, description, check_kind, tolerance), fn, note)
        return fn

    return register


def _unobserved(ctx):
    """Observer of a flagged claim with no finite value to report."""
    return None


_INHERITS_DELTA = "inherits the Dirac-delta factor of the G expansion; no finite numerical reading"


# ---------------------------------------------------------------------------
# The claims.  Each check returns (passed, observed, note).
# ---------------------------------------------------------------------------

@_claim("EQ3", "gamma modulus product",
        "truncated product formula matches |gamma| and stays positive", "equality", 1e-6)
def _check_eq3(ctx, tol, rng):
    worst = 0.0
    for alpha in np.linspace(0.1, 0.9, 5):
        for beta in np.linspace(0.0, 10.0, 5):
            prod = sf.gamma_abs_product(float(alpha), float(beta), 10**6)
            direct = abs(sf.gamma(complex(alpha, beta)))
            worst = max(worst, abs(prod - direct))
            if prod <= 0.0:
                return False, prod, "product not strictly positive"
    return worst < tol, worst, "max |product - |gamma|| over 5x5 grid, n = 1e6"


@_claim("EQ4", "integral equals gamma*eta",
        "Mellin integral reproduces the product of gamma and eta on a strip grid",
        "equality", 1e-8)
def _check_eq4(ctx, tol, rng):
    worst = 0.0
    for re in np.linspace(0.45, 0.95, 7):
        for im in np.linspace(0.0, 30.0, 7):
            s = complex(re, im)
            f = quad.fermi_mellin(s, 1e-9).value
            worst = max(worst, abs(f - sf.gamma(s) * sf.eta(s)))
    return worst < tol, worst, "max |F - gamma*eta| over the strip grid"


@_claim("EQ6", "integral bounded",
        "|F(s)| bounded by the closed-form M(Re s) on the open strip", "inequality", 1e-6)
def _check_eq6(ctx, tol, rng):
    worst = -math.inf
    for _ in range(SWEEP_SAMPLES // 2):
        s = complex(rng.uniform(0.05, 0.95), rng.uniform(-50.0, 50.0))
        f_abs = abs(quad.fermi_mellin(s, 1e-6).value)
        worst = max(worst, f_abs - quad.m_bound(s.real))
    return worst < tol, worst, "max |F(s)| - M(Re s), full open strip"


@_claim("EQ7", "closed-form bound",
        "M(alpha) = 1/(2 alpha) + 1/e evaluates exactly", "equality", 1e-12)
def _check_eq7(ctx, tol, rng):
    diffs = [
        abs(quad.m_bound(0.5) - (1.0 + math.exp(-1.0))),
        abs(quad.m_bound(1.0) - (0.5 + math.exp(-1.0))),
        abs(quad.m_bound(0.25) - (2.0 + math.exp(-1.0))),
    ]
    return max(diffs) < tol, max(diffs), "closed form 1/(2 alpha) + 1/e"


@_claim("EQ8A", "bound value at 1/2", "M(1/2) = 1 + 1/e = 1.36788", "equality", 1e-4)
def _check_eq8a(ctx, tol, rng):
    v = quad.m_bound(0.5)
    return abs(v - V_M_HALF) < tol, v, "M(1/2) vs printed 1.36788"


@_claim("EQ8B", "sharper bound",
        "|F(s)| never exceeds F(1/2) on the upper half strip (sampled)", "inequality", 1e-6)
def _check_eq8b(ctx, tol, rng):
    re, im, f_abs, _ = ctx.upper_sweep
    cap = quad.m_star_half()
    k = int(np.argmax(f_abs))
    ok = bool(np.all(f_abs <= cap + tol))
    note = f"sampled max |F| at s = {re[k]:.4f}+{im[k]:.4f}i"
    return ok, float(f_abs[k]), note


@_claim("EQ8C", "positivity", "F(1/2) > 0", "inequality", 0.0)
def _check_eq8c(ctx, tol, rng):
    v = quad.m_star_half()
    return v > 0.0, v, "F(1/2) strictly positive"


@_claim("EQ9", "bound chain",
        "|F| <= M*(Re s) <= M*(1/2) <= M(1/2) on the sampled upper half strip", "inequality", 1e-6)
def _check_eq9(ctx, tol, rng):
    _, _, f_abs, ms = ctx.upper_sweep
    cap = quad.m_star_half()
    ok = (
        bool(np.all(f_abs <= ms + tol))
        and bool(np.all(ms <= cap + tol))
        and cap <= quad.m_bound(0.5) + tol
    )
    worst = float(np.max(f_abs - ms))
    return ok, worst, "chain |F| <= M*(alpha) <= M*(1/2) <= M(1/2) on the sweep"


@_claim("EQ10B", "bound tightening", "M*(1/2) < M(1/2)", "inequality", 0.0)
def _check_eq10b(ctx, tol, rng):
    gap = quad.m_bound(0.5) - quad.m_star_half()
    return gap > 0.0, gap, "M(1/2) - M*(1/2)"


@_claim("EQ10C", "first derivative negative", "dM*/dalpha < 0 on [1/2, 1]", "inequality", 0.0)
def _check_eq10c(ctx, tol, rng):
    vals = [quad.m_star_derivative(a, 1, 1e-8) for a in np.linspace(0.5, 1.0, 11)]
    return max(vals) < 0.0, max(vals), "max dM*/dalpha on [1/2, 1]"


@_claim("EQ10D", "second derivative positive", "d2M*/dalpha2 > 0 on [1/2, 1]", "inequality", 0.0)
def _check_eq10d(ctx, tol, rng):
    vals = [quad.m_star_derivative(a, 2, 1e-8) for a in np.linspace(0.5, 1.0, 11)]
    return min(vals) > 0.0, min(vals), "min d2M*/dalpha2 on [1/2, 1]"


@_claim("EQ11B", "convexity chord",
        "M* lies below its endpoint chords on [1/2, 1]", "inequality", 1e-8)
def _check_eq11b(ctx, tol, rng):
    worst = -math.inf
    for t in np.linspace(0.0, 1.0, 25):
        alpha = t * 0.5 + (1.0 - t) * 1.0
        lhs = quad.m_star(float(alpha), 1e-9)
        rhs = t * quad.m_star_half() + (1.0 - t) * ctx.m_star_one
        worst = max(worst, lhs - rhs)
    return worst < tol, worst, "max M*(alpha) - chord over endpoint chords"


@_claim("EQ12A", "endpoint comparison", "M*(1/2) > M*(1)", "inequality", 0.0)
def _check_eq12a(ctx, tol, rng):
    gap = quad.m_star_half() - ctx.m_star_one
    return gap > 0.0, gap, "M*(1/2) - M*(1)"


@_claim("EQ12B", "strict decrease",
        "M* strictly decreasing on a 50-point grid of [1/2, 1]", "monotonicity", 0.0)
def _check_eq12b(ctx, tol, rng):
    grid = np.linspace(0.5, 1.0, 50)
    vals = [quad.m_star(float(a), 1e-9) for a in grid]
    diffs = np.diff(vals)
    return bool(np.all(diffs < 0.0)), float(np.max(diffs)), "max consecutive difference on 50-grid"


@_claim("EQ13A", "anchor value", "M*(1/2) = 1.07215 to 1e-4", "equality", 1e-4)
def _check_eq13a(ctx, tol, rng):
    v = quad.m_star_half()
    return abs(v - V_M_STAR_HALF) < tol, v, "M*(1/2) vs printed 1.07215"


@_claim("EQ13B", "anchor value", "M*(1) = log 2 = 0.69315", "equality", 1e-4)
def _check_eq13b(ctx, tol, rng):
    v = ctx.m_star_one
    # the printed value meets tol; the closed form log 2 is met to quadrature accuracy
    ok = abs(v - V_M_STAR_ONE) < tol and abs(v - math.log(2.0)) < 1e-10
    return ok, v, "M*(1) vs log 2 (exact to 1e-10, printed to 1e-4)"


@_claim("EQ14", "chord cap", "endpoint chords stay below M*(1/2)", "inequality", 1e-8)
def _check_eq14(ctx, tol, rng):
    worst = -math.inf
    for t in np.linspace(0.0, 1.0, 25):
        rhs = t * quad.m_star_half() + (1.0 - t) * ctx.m_star_one
        worst = max(worst, rhs - quad.m_star_half())
    return worst < tol, worst, "chord right-hand side never exceeds M*(1/2)"


@_claim("EQ15A", "derivative anchor", "dM*/dalpha(1/2) = -1.76259 to 1e-4", "equality", 1e-4)
def _check_eq15a(ctx, tol, rng):
    v = quad.m_star_derivative(0.5, 1, 1e-9)
    return abs(v - V_D1_HALF) < tol, v, "dM*/dalpha at 1/2 vs printed -1.76259"


@_claim("EQ15B", "derivative anchor",
        "dM*/dalpha(1) = -(1/2)(log 2)^2 = -0.240227", "equality", 1e-6)
def _check_eq15b(ctx, tol, rng):
    v = quad.m_star_derivative(1.0, 1, 1e-9)
    exact = -0.5 * math.log(2.0) ** 2
    # the printed value meets tol; the closed form is met to quadrature accuracy
    ok = abs(v - V_D1_ONE) < tol and abs(v - exact) < 1e-8
    return ok, v, "dM*/dalpha at 1 vs -(1/2)(log 2)^2"


@_claim("EQ16", "supremum transfer",
        "|F(s)| <= M*(1/2) on the sampled upper half strip", "inequality", 1e-6)
def _check_eq16(ctx, tol, rng):
    _, _, f_abs, _ = ctx.upper_sweep
    cap = quad.m_star_half()
    worst = float(np.max(f_abs)) - cap
    return worst < tol, worst, "max |F| - M*(1/2) over the sweep"


@_claim("EQ17B", "denominator nonvanishing",
        "(1 - 2^(1-s)) gamma(s) bounded away from zero on the strip grid", "inequality", 0.0)
def _check_eq17b(ctx, tol, rng):
    lo = math.inf
    for re in np.linspace(0.1, 0.9, 7):
        for im in np.linspace(0.0, 30.0, 7):
            s = complex(re, im)
            lo = min(lo, abs((1.0 - 2.0 ** (1.0 - s)) * sf.gamma(s)))
    return lo > 0.0, lo, "min |(1 - 2^(1-s)) gamma(s)| on the strip grid"


@_claim("EQ17D", "zero equivalence",
        "zeta and the Mellin integral share zeros (sampled + located zeros)", "equality", 1e-8)
def _check_eq17d(ctx, tol, rng):
    # At polished zeros both indicators fire; at random points neither does.
    worst_zero = 0.0
    for beta in ctx.zeros30.betas[:3]:
        s = complex(0.5, beta)
        z_abs = abs(sf.zeta(s))
        est = quad.fermi_mellin(s, 1e-12)
        scale = abs(sf.gamma(s) * (1.0 - 2.0 ** (1.0 - s)))
        worst_zero = max(worst_zero, z_abs)
        if z_abs >= tol:
            return False, z_abs, f"|zeta| not small at located zero {beta}"
        if abs(est.value) - est.abs_error > tol * scale:
            return False, abs(est.value), f"|F| not small at located zero {beta}"
    for _ in range(200):
        s = complex(rng.uniform(0.15, 0.85), rng.uniform(0.0, 12.0))
        z_abs = abs(sf.zeta(s))
        f_abs = abs(quad.fermi_mellin(s, 1e-9).value)
        scale = abs(sf.gamma(s) * (1.0 - 2.0 ** (1.0 - s)))
        # an absolute floor: where scale is tiny, tol*scale sinks below F's quadrature error
        if (z_abs < tol) != (f_abs < tol * scale + 1e-12):
            return False, complex(s), "zero indicators disagree at a random point"
    return True, worst_zero, "max |zeta| across the three located zeros"


@_claim("RVM30", "zero-count comparison",
        "argument-principle count at height 30 matches the counting formula", "count", 1.5)
def _check_rvm30(ctx, tol, rng):
    rect = za.RectangleRegion(0.1, 0.9, 0.0, 30.0)
    count = za.winding_count(sf.eta, rect)
    estimate = za.riemann_von_mangoldt(30.0)
    ok = count == 3 and abs(count - estimate) < tol
    return ok, count, f"winding count vs closed-form estimate {estimate:.3f}"


@_claim("EQ19A", "disk zero-count identity",
        "Jensen identity exact on the random polynomial corpus", "equality", 1e-8)
def _check_eq19a(ctx, tol, rng):
    worst = 0.0
    for roots, _, _ in ctx.poly_corpus:
        lhs, rhs = za.jensen_check(_poly_fn(roots), list(roots), 1.0, 512)
        worst = max(worst, abs(lhs - rhs))
    return worst < tol, worst, "max |lhs - rhs| over 100 random polynomials"


@_claim("EQ19B", "zero-free disk identity",
        "circle average equals log|f(0)| for the composed integral", "equality", 1e-4)
def _check_eq19b(ctx, tol, rng):
    fn = lambda z: smap.f_on_disk(z, 0.9, 1e-8)
    lhs, rhs = za.jensen_check(fn, [], 0.95, 384)
    return abs(lhs - rhs) < tol, abs(lhs - rhs), "zero-free disk identity for the composed integral"


@_claim("EQ20A", "zero-count bound",
        "disk zero count never exceeds log(M/|f(0)|)/log(1/delta)", "inequality", 0.0)
def _check_eq20a(ctx, tol, rng):
    worst = -math.inf
    for roots, f0, big_m in ctx.poly_corpus:
        for delta in (0.5, 0.7, 0.9):
            bound = za.titchmarsh_zero_bound(big_m, f0, delta)
            count = sum(1 for r in roots if abs(r) <= delta)
            worst = max(worst, count - bound)
    return worst <= 0.0, worst, "max (actual count - bound) over corpus x delta"


@_claim("EQ20D", "zero-free predicate",
        "delta*M < |f(0)| implies an empty delta-subdisk", "inequality", 0.0)
def _check_eq20d(ctx, tol, rng):
    for roots, f0, big_m in ctx.poly_corpus:
        for delta in (0.5, 0.7, 0.9):
            if za.titchmarsh_zero_free(big_m, f0, delta):
                if any(abs(r) <= delta for r in roots):
                    return False, complex(roots[0]), "zero-free predicate violated"
    return True, None, "predicate delta*M < |f(0)| never contradicted by an actual zero"


@_claim("EQ20F", "predicate arithmetic",
        "delta < |f(0)|/M <= 1 whenever the predicate holds", "inequality", 0.0)
def _check_eq20f(ctx, tol, rng):
    for _, f0, big_m in ctx.poly_corpus:
        for delta in (0.5, 0.7, 0.9):
            if za.titchmarsh_zero_free(big_m, f0, delta):
                if not (delta < f0 / big_m <= 1.0):
                    return False, f0 / big_m, "ratio outside (delta, 1]"
    return True, None, "delta < |f(0)|/M <= 1 whenever the predicate holds"


@_claim("EQ25A", "map centre", "phi(0,b) = 1/4 - arctan(b)/pi, purely real", "equality", 1e-14)
def _check_eq25a(ctx, tol, rng):
    worst = 0.0
    for b in np.linspace(0.05, 0.95, 21):
        w = smap.phi(0.0 + 0.0j, float(b))
        worst = max(worst, abs(w.real - smap.omega0(float(b))), abs(w.imag))
    return worst < tol, worst, "phi(0,b) vs arctan closed form, Im exactly 0"


@_claim("EQ25B", "centre limit", "phi(0,b) -> 0 as b -> 1", "limit", 1e-5)
def _check_eq25b(ctx, tol, rng):
    w = smap.phi(0.0 + 0.0j, 1.0 - 1e-6)
    return abs(w) < tol, abs(w), "|phi(0, 1-1e-6)|"


@_claim("EQ26A", "strip range",
        "Re(phi) stays in (0, 1/2) on random disk samples", "inequality", 0.0)
def _check_eq26a(ctx, tol, rng):
    im_lo, im_hi = math.inf, -math.inf
    for z, b in _disk_draws(rng, 1.0, 10**4):
        w = smap.phi(z, b)
        im_lo, im_hi = min(im_lo, w.imag), max(im_hi, w.imag)
        if not 0.0 < w.real < 0.5:
            return False, complex(w), "Re(phi) escaped (0, 1/2)"
    # Im(phi) takes both signs over the disk; the empirical range is reported,
    # not asserted.
    note = f"Re in (0, 1/2) on all samples; empirical Im range [{im_lo:.3f}, {im_hi:.3f}]"
    return True, None, note


@_claim("EQ26B", "argument range",
        "Arg[(1+theta)/(1-theta)] stays in (-pi/2, pi/2)", "inequality", 0.0)
def _check_eq26b(ctx, tol, rng):
    worst = 0.0
    for z, b in _disk_draws(rng, 1.0, 10**4):
        t = smap.theta(z, b)
        arg = cmath.phase((1.0 + t) / (1.0 - t))
        worst = max(worst, abs(arg))
        if not -math.pi / 2 < arg < math.pi / 2:
            return False, arg, "Arg left (-pi/2, pi/2)"
    return True, worst, "max |Arg[(1+theta)/(1-theta)]| observed"


@_claim("EQ28A", "centre value limit",
        "composed integral at the centre approaches M*(1/2) as b -> 1", "limit", 1e-4)
def _check_eq28a(ctx, tol, rng):
    v = smap.f_on_disk(0.0 + 0.0j, 1.0 - 1e-6, 1e-9)
    return abs(v - quad.m_star_half()) < tol, v, "composed integral at the centre, b -> 1"


@_claim("EQ28B", "disk bound",
        "|composed integral| <= M*(1/2) on random (z, b)", "inequality", 1e-3)
def _check_eq28b(ctx, tol, rng):
    cap = quad.m_star_half()
    worst = -math.inf
    for z, b in itertools.islice(_disk_draws(rng, 0.999, 10**4), 500):
        v = abs(smap.f_on_disk(z, b, 1e-7))
        worst = max(worst, v - cap)
    return worst < tol, worst, "max |F_on_disk| - M*(1/2) over 500 samples"


@_claim("EQ30C", "G bounded", "G(b) <= M*(1/2) for all b", "inequality", 1e-8)
def _check_eq30c(ctx, tol, rng):
    cap = quad.m_star_half()
    worst = -math.inf
    for b in np.linspace(0.05, 0.999, 21):
        worst = max(worst, smap.g_of_b(float(b), 1e-9) - cap)
    return worst < tol, worst, "max G(b) - M*(1/2)"


@_claim("EQ31", "G increasing",
        "G strictly increasing on (0, 1) via the arctangent route", "monotonicity", 0.0)
def _check_eq31(ctx, tol, rng):
    grid = np.linspace(0.01, 0.99, 50)
    vals = [smap.g_of_b(float(b), 1e-9) for b in grid]
    diffs = np.diff(vals)
    return bool(np.all(diffs > 0.0)), float(np.min(diffs)), "min consecutive increase of G on 50-grid"


_claim("EQ32", "derivative via Dirac delta",
       "d omega0/db written with a Dirac delta factor", "flagged", 0.0,
       note="no finite numerical reading: the expression evaluates a Dirac delta at an interior "
            "complex point; the artifact uses the elementary closed form "
            "omega0'(b) = -1/(pi (1+b^2)) instead")(_unobserved)


@_claim("EQ33A", "gauge existence",
        "for each delta < 1 some b has G(b) > delta * M*(1/2)", "limit", 0.0)
def _check_eq33a(ctx, tol, rng):
    cap = quad.m_star_half()
    found = {}
    for delta in (0.5, 0.9, 0.99):
        b = None
        for k in range(1, 40):
            cand = 1.0 - 2.0 ** (-k)
            if smap.g_of_b(cand, 1e-9) > delta * cap:
                b = cand
                break
        if b is None:
            return False, delta, f"no b found with G(b) > {delta}*M*(1/2)"
        found[delta] = b
    return True, found[0.99], "b(0.99); existence for delta in {0.5, 0.9, 0.99}"


@_claim("EQ33B", "G limit", "G(b)/M*(1/2) -> 1 as b -> 1", "limit", 1e-4)
def _check_eq33b(ctx, tol, rng):
    ratio = smap.g_of_b(1.0 - 1e-6, 1e-10) / quad.m_star_half()
    return abs(ratio - 1.0) < tol, ratio, "G(b)/M*(1/2) at b = 1 - 1e-6"


@_claim("EQ34G-DELTA", "Taylor coefficient via Dirac delta",
        "first-order G expansion quoting Delta(-i) = 4.66920", "flagged", 0.0,
        note="no finite numerical reading: Delta(-i) is not a number; a finite-difference "
             "dG/db near b = 1 is reported in the observed payload instead")
def _observe_eq34g_delta(ctx):
    """Central-difference slope of G just below b = 1."""
    h = 1e-4
    b = 0.999
    return (smap.g_of_b(b + h, 1e-10) - smap.g_of_b(b - h, 1e-10)) / (2.0 * h)


@_claim("EQ34H", "disk modulus closed form",
        "H(theta; b) equals |theta_inverse| exactly", "equality", 1e-12)
def _check_eq34h(ctx, tol, rng):
    worst = 0.0
    for t, b in _disk_draws(rng, 1.0, 10**4):
        worst = max(worst, abs(smap.disk_modulus_H(t, b) - abs(smap.theta_inverse(t, b))))
    return worst < tol, worst, "max |H(t;b) - |theta_inverse(t,b)||"


@_claim("EQ34I", "map inversion",
        "phi_inverse inverts phi to 1e-10 on random samples", "equality", 1e-10)
def _check_eq34i(ctx, tol, rng):
    worst = 0.0
    for z, b in _disk_draws(rng, 0.999, 10**4):
        w = smap.phi(z, b)
        worst = max(worst, abs(smap.phi_inverse(w, b) - z))
    return worst < tol, worst, "max inversion error phi_inverse(phi(z,b)) - z"


_claim("EQ34J", "expansion comparison",
       "inequality comparing two Taylor expansions, one quoting Delta(-i)", "flagged", 0.0,
       note=_INHERITS_DELTA)(_unobserved)
_claim("EQ34K", "contradiction inequality",
       "final inequality quoting Delta(-i) = 4.66920", "flagged", 0.0,
       note=_INHERITS_DELTA)(_unobserved)


@_claim("EQ42B", "unit-modulus product",
        "conjugate-ratio product has modulus 1 away from its poles", "equality", 1e-12)
def _check_eq42b(ctx, tol, rng):
    betas = list(ctx.zeros30.betas)
    drawn = []  # (omega, number of zeros) pairs
    while len(drawn) < 10**4:
        omega = complex(rng.uniform(0.0, 0.5), rng.uniform(0.0, 30.0))
        n = int(rng.integers(0, len(betas) + 1))
        subset = betas[:n]
        if subset and min(abs(omega - 1j * b) for b in subset) < 2e-3:
            continue
        drawn.append((omega, n))
    worst = 0.0
    for n in range(len(betas) + 1):  # one call per zero list, on the array route rouche_scan uses
        L = za.blaschke_L(np.array([w for w, m in drawn if m == n], dtype=complex), betas[:n])
        worst = max(worst, float(np.abs(np.hypot(L.real, L.imag) - 1.0).max(initial=0.0)))
    return worst < tol, worst, "max | |L| - 1 | over random (omega, zero-list) pairs"


@_claim("EQ43", "boundary nonvanishing",
        "|f| positive on the scan boundary away from neutralized zeros", "inequality", 0.0)
def _check_eq43(ctx, tol, rng):
    scan = ctx.scan16
    ok = scan.min_f_abs > 0.0
    note = f"min |f| away from neutralized zeros, at omega = {scan.argmin_f_omega}"
    return ok, scan.min_f_abs, note


@_claim("EQ45", "comparison function nonvanishing",
        "g = lam*(eps+omega) has no zeros on or inside K(tau)", "count", 0.0)
def _check_eq45(ctx, tol, rng):
    scan = ctx.scan16
    g = lambda w: scan.lam * (scan.epsilon + w)
    rect = za.RectangleRegion(0.0, 0.5, 0.0, scan.tau)
    wind = za.winding_count(g, rect)
    # Re(eps + omega) > 0 holds identically on the closed half strip.
    return wind == 0, wind, "winding of g over K(tau); Re(eps+omega) > 0 throughout"


@_claim("EQ46A", "triangle margin",
        "min |f|+|g|-|f+g| >= -1e-12 over the scanned boundary", "inequality", 1e-12)
def _check_eq46a(ctx, tol, rng):
    scan = ctx.scan16
    return scan.min_margin >= -tol, scan.min_margin, (
        f"min triangle margin at omega = {scan.argmin_omega}"
    )


@_claim("EQ50C", "contradiction arithmetic",
        "(M*+nu)|eps+omega|/eps exceeds M*(1/2) on the boundary", "inequality", 0.0)
def _check_eq50c(ctx, tol, rng):
    cap = quad.m_star_half()
    nu, eps = ctx.cfg.rouche_nu, ctx.cfg.rouche_epsilon
    # the scan's own samples of K(tau), at the shifted tau
    w = za._boundary_points(za.RectangleRegion(0.0, 0.5, 0.0, ctx.scan16.tau))
    worst = float(((cap + nu) * np.hypot(w.real + eps, w.imag) / eps - cap).min())
    return worst > 0.0, worst, "min (M*+nu)*|eps+omega|/eps - M*(1/2) on the boundary"


@_claim("P1A", "bound chain proof",
        "integral bound M*(alpha) stays below the closed form M(alpha)", "inequality", 0.0)
def _check_p1a(ctx, tol, rng):
    worst = -math.inf
    for alpha in np.linspace(0.05, 0.95, 19):
        worst = max(worst, quad.m_star(float(alpha), 1e-8) - quad.m_bound(float(alpha)))
    return worst < 0.0, worst, "max M*(alpha) - M(alpha) on (0,1): integral below closed bound"


@_claim("P2A", "convexity lemma",
        "chord inequality on random triples in [1/2, 1]", "inequality", 1e-8)
def _check_p2a(ctx, tol, rng):
    worst = -math.inf
    for _ in range(100):
        a1, a2 = sorted(rng.uniform(0.5, 1.0, 2))
        if a2 - a1 < 1e-3:  # a near-degenerate triple tests nothing
            continue
        t = float(rng.uniform(0.0, 1.0))
        mid = t * a1 + (1.0 - t) * a2
        lhs = quad.m_star(float(mid), 1e-9)
        rhs = t * quad.m_star(float(a1), 1e-9) + (1.0 - t) * quad.m_star(float(a2), 1e-9)
        worst = max(worst, lhs - rhs)
    return worst < tol, worst, "max chord violation over random triples"


@_claim("P4A", "triangle equality condition",
        "equality in the triangle bound forces a real ratio (sign gap noted)", "equality", 1e-9)
def _check_p4a(ctx, tol, rng):
    # tol is the 1e-9 that triangle_equality_condition applies; it has no tolerance argument
    if not za.triangle_equality_condition(2.0 + 2.0j, 1.0 + 1.0j):
        return False, None, "collinear positive-ratio case failed"
    if za.triangle_equality_condition(1j, 1.0 + 0.0j):
        return False, None, "orthogonal case should not satisfy equality"
    if za.triangle_equality_condition(-1.0 + 0.0j, 1.0 + 0.0j):
        return False, None, "w = -v is collinear but must fail the equality"
    worst = 0.0
    for _ in range(50):
        v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
        if abs(v) < 0.1:
            continue
        w = float(rng.uniform(0.1, 3.0)) * v
        if not za.triangle_equality_condition(w, v):
            return False, complex(w), "positive multiple failed the equality"
        cross = abs(w.real * v.imag - v.real * w.imag)
        worst = max(worst, cross / (abs(w) * abs(v)))
    note = (
        "equality also requires a nonnegative ratio: w = -v is collinear yet fails; "
        "max normalised cross term {:.2e}".format(worst)
    )
    return True, worst, note


FLAGGED_CLAIMS = frozenset(
    cid for cid, (record, _, _) in _CLAIMS.items() if record.check_kind == "flagged"
)


def list_claims() -> list[ClaimRecord]:
    """The full registry, unexecuted (verdict SKIPPED), ordered by id."""
    return [_CLAIMS[cid][0] for cid in sorted(_CLAIMS)]


def run_audit(config: AuditConfig | None = None) -> AuditReport:
    """Execute every registered check and assemble the report.

    Check failures become FAIL verdicts; budget/refinement exhaustion becomes
    SKIPPED with the reason; flagged claims are never checked, only observed,
    and an observer that raises gives the same SKIPPED or FAIL as a check.
    """
    cfg = config or AuditConfig()
    ctx = _Context(cfg)
    records: list[ClaimRecord] = []
    for cid in sorted(_CLAIMS):
        base, fn, flag_note = _CLAIMS[cid]
        try:
            if base.check_kind == "flagged":
                outcome = dict(verdict="NOT_NUMERIC", observed=fn(ctx), note=flag_note)
            else:
                passed, observed, note = fn(ctx, base.tolerance, _claim_rng(cfg.seed, cid))
                outcome = dict(verdict="PASS" if passed else "FAIL", observed=observed, note=note)
        except (ToleranceNotMet, NonConvergence) as exc:
            outcome = dict(verdict="SKIPPED", note=f"infrastructure: {exc}")
        except ZetaLabError as exc:
            outcome = dict(verdict="FAIL", note=f"error: {exc}")
        records.append(replace(base, **outcome))
    totals = dict(Counter(r.verdict for r in records))
    return AuditReport(tuple(records), cfg.digest(), totals)


def _observed_jsonable(observed):
    if observed is None:
        return None
    if isinstance(observed, complex):
        return [observed.real, observed.imag]
    if isinstance(observed, (np.floating, np.integer)):
        return observed.item()
    if isinstance(observed, (int, float, str)):
        return observed
    return repr(observed)


def report_to_doc(report: AuditReport) -> dict:
    """Single structured document; claim records keyed by id."""
    return {
        "config_digest": report.config_digest,
        "totals": dict(sorted(report.totals.items())),
        "claims": {
            r.id: {
                "paper_ref": r.paper_ref,
                "description": r.description,
                "check_kind": r.check_kind,
                "tolerance": r.tolerance,
                "verdict": r.verdict,
                "observed": _observed_jsonable(r.observed),
                "note": r.note,
            }
            for r in report.claims
        },
    }


def report_to_json(report: AuditReport) -> str:
    return json.dumps(report_to_doc(report), indent=2, sort_keys=True)


def report_to_lines(report: AuditReport) -> list[str]:
    """Line-delimited records: one JSON object per claim, ordered by id."""
    doc = report_to_doc(report)
    lines = [json.dumps({"config_digest": report.config_digest}, sort_keys=True)]
    for cid in sorted(doc["claims"]):
        lines.append(json.dumps({"id": cid, **doc["claims"][cid]}, sort_keys=True))
    return lines
