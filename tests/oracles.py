"""Independent oracles used to freeze expected values.

These deliberately avoid the implementation paths they check: the eta oracle
is a plain Euler transform (not the production acceleration scheme), the
derivative oracle is a central finite difference, the functional-equation
residual checks zeta at s against eta at 1 - s, the polynomial helpers
evaluate root products directly, and the zero-search helpers split and polish
one interval at a time with scalar eta calls.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

from zetalab.errors import NonConvergence
from zetalab.special_functions import ensure_strip, eta, gamma, zeta


def eta_euler_transform(s: complex, terms: int = 30) -> complex:
    """Euler transform of the alternating series sum (-1)^k (k+1)^(-s).

    Sums forward differences of the head of the sequence against powers of
    1/2; 30 terms give ~1e-9 at s = 1/2.
    """
    k = np.arange(terms, dtype=float)
    d = (k + 1.0) ** (-complex(s))
    total = 0.0 + 0.0j
    for j in range(terms):
        total += d[0] / 2.0 ** (j + 1)
        d = d[:-1] - d[1:]
    return complex(total)


def functional_equation_residual(s) -> float:
    """|zeta(1-s) - Gamma(s) * 2/(2 pi)**s * cos(pi s/2) * zeta(s)|.

    zeta(1-s) is computed through the alternating series at 1-s (which stays
    inside the strip whenever s does), keeping the two sides on independent
    evaluation routes.
    """
    s = ensure_strip(s)
    zeta_reflected = eta(1.0 - s) / (1.0 - 2.0 ** s)
    rhs = gamma(s) * (2.0 / (2.0 * math.pi) ** s) * cmath.cos(math.pi * s / 2.0) * zeta(s)
    return abs(zeta_reflected - rhs)


def eta_line_abs(y: float) -> float:
    """|eta(1/2 + i y)| from one scalar eta call."""
    return abs(eta(complex(0.5, y)))


def safe_level(lo: float, hi: float) -> tuple[float, complex]:
    """A split height y strictly inside (lo, hi) with |eta| clear of zero, and eta(1/2 + i y).

    The serial split search, one scalar eta call per nudge: the reference
    for the zero search's batched one.  The acceptance threshold scales with
    the cell height so that subdivision keeps working arbitrarily close to a
    zero; the nudge sequence is deterministic.
    """
    mid = 0.5 * (lo + hi)
    step = 0.093 * (hi - lo)
    thr = min(1e-3, 0.02 * (hi - lo))
    for j in range(12):
        y = mid + j * step
        if y < hi and abs(value := eta(complex(0.5, y))) > thr:
            return y, value
    raise NonConvergence("could not find a zero-free split level")


def golden_min(f, lo: float, hi: float) -> float:
    """Serial golden-section minimiser for a unimodal |analytic| profile: the
    reference for the zero search's lockstep polish."""
    inv_phi = (math.sqrt(5.0) - 1.0) / 2.0
    a, b = lo, hi
    c = b - inv_phi * (b - a)
    d = a + inv_phi * (b - a)
    fc, fd = f(c), f(d)
    for _ in range(80):
        if fc < fd:
            b, d, fd = d, c, fc
            c = b - inv_phi * (b - a)
            fc = f(c)
        else:
            a, c, fc = c, d, fd
            d = a + inv_phi * (b - a)
            fd = f(d)
        if b - a < 1e-12:
            break
    return 0.5 * (a + b)


def central_difference(fn, x: float, h: float = 1e-5) -> float:
    return (fn(x + h) - fn(x - h)) / (2.0 * h)


def poly_from_roots(roots):
    def fn(z):
        acc = 1.0 + 0.0j
        for r in roots:
            acc *= z - r
        return acc

    return fn


def poly_circle_max(roots, radius: float = 1.0, n: int = 2048) -> float:
    fn = poly_from_roots(roots)
    return max(abs(fn(radius * cmath.exp(2j * math.pi * k / n))) for k in range(n))


def random_poly_corpus(rng: np.random.Generator, size: int = 100):
    """Random polynomials with all roots in 0.05 <= |z| <= 0.9."""
    corpus = []
    while len(corpus) < size:
        deg = int(rng.integers(1, 5))
        roots = []
        while len(roots) < deg:
            z = complex(rng.uniform(-0.9, 0.9), rng.uniform(-0.9, 0.9))
            if 0.05 <= abs(z) <= 0.9:
                roots.append(z)
        corpus.append(tuple(roots))
    return corpus


# First three critical-line zero ordinates, frozen from the rectangle
# bisection + golden-section oracle in this suite (cross-checked against
# |eta(1/2 + i beta)| < 1e-9 below and the counting formula at T = 30).
ZERO_ORDINATES = (14.134725141734693, 21.022039638771555, 25.010857580145688)
