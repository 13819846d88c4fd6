"""Independent oracles used to freeze expected values.

These deliberately avoid the implementation paths they check: the eta oracle
is a plain Euler transform (not the production acceleration scheme), the
derivative oracle is a central finite difference, the functional-equation
residual checks zeta at s against eta at 1 - s, and the polynomial helpers
evaluate root products directly.
"""

from __future__ import annotations

import cmath
import math

import numpy as np

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
