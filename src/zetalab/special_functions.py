"""Gamma, Dirichlet eta and zeta on the critical strip.

The three functions are tied together by two identities that the rest of the
package leans on:

* ``eta(s) = (1 - 2**(1-s)) * zeta(s)``, convergent for Re(s) > 0, which makes
  the alternating series the working continuation of zeta on the strip;
* ``|Gamma(a+ib)| = Gamma(a) * sqrt(prod_n 1/(1 + b^2/(n+a)^2))``, an infinite
  product over the real-axis value that provides an independent route to the
  gamma modulus.

Gamma itself uses a 15-term Lanczos rational approximation (g = 607/128) with
the reflection formula for Re(s) < 1/2; relative accuracy is ~1e-13 on the
region exercised here (Re in (0,2), |Im| <= 100).

Eta uses the Cohen / Rodriguez Villegas / Zagier acceleration of the
alternating series.  For ``a_k = (k+1)**(-s)`` the scheme's error after n
terms is bounded by ``(3+sqrt(8))**(-n) * Gamma(sigma)/|Gamma(s)|`` (the terms
are moments of the complex measure (log 1/x)**(s-1)/Gamma(s) dx on [0,1]), so
the term count is chosen per call from that bound.  The bound degrades like
exp(pi*|t|/2), which keeps n modest for |Im(s)| <= 100; accuracy is guaranteed
to 1e-12 for Re(s) >= 0.4 and is best-effort (with the same adaptive n) below.
The count makes no gamma call: log Gamma(sigma) - log|Gamma(s)| is formed as
one difference, shifted by eight and closed by Stirling's series (DLMF
5.11.1), in plain float arithmetic for a scalar.  It is finite at every s with
Re(s) > 0, so eta is refused only where the count passes 402 terms and the
series weights overflow, not where gamma overflows or its reflection does.

eta also takes an ndarray and evaluates it in one batch, each entry equal to
the scalar call bit for bit.  The term counts come from the same formula over
the array; each point gets its own row of exponents -s log k, all rows go
through one np.exp, and each row is dotted with its own weights, the scalar
route's exp(-s log k) @ w.  For Im(s) <= 220 both routes err by at most about
2e-13 * max(|eta|, 1) against mpmath.altzeta.  The input type selects the
route, and the scalar one stays for its cost: a batch takes about 6-10 us a
point from 29 to 3,944 points against 10-18 us per scalar call in the same
runs, but a one-point batch 54-83 us (Re 1/2, Im 14-200, 2-CPU Xeon).
_theta, the Riemann-Siegel theta from the same shifted Stirling series, gives
zero_analysis its zero count and the phase of Hardy's Z.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers
import sys

import numpy as np

from .errors import DomainError, PoleError

__all__ = [
    "ensure_finite",
    "ensure_real",
    "ensure_strip",
    "gamma",
    "gamma_abs_product",
    "eta",
    "zeta",
]

_POLE_TOL = 1e-12


def ensure_finite(s) -> complex:
    """Coerce to complex and reject NaN/Inf in either part."""
    s = complex(s)
    if not (math.isfinite(s.real) and math.isfinite(s.imag)):
        raise DomainError(f"non-finite complex value {s!r}")
    return s


def finite_abs(z: complex) -> float:
    """abs(z) bit for bit; DomainError where z or |z| is not finite.

    Python's abs of a finite complex raises a bare OverflowError once |z|
    passes the float range, as at 1.7e308 + 1.7e308i.
    """
    try:
        r = abs(z)
    except OverflowError:
        r = math.inf
    if not r < math.inf:  # NaN fails too
        raise DomainError(f"|{z!r}| is not finite")
    return r


def ensure_real(x) -> float:
    """x as a float; a complex or other non-real argument raises DomainError."""
    if not isinstance(x, numbers.Real):
        raise DomainError(f"expected a real argument, got {x!r}")
    return float(x)


def ensure_strip(s) -> complex:
    """Validate 0 < Re(s) < 1 (the open critical strip)."""
    s = ensure_finite(s)
    if not 0.0 < s.real < 1.0:
        raise DomainError(f"Re(s) = {s.real} outside the critical strip")
    return s


# Lanczos coefficients, g = 607/128, N = 15 (Godfrey's set).
_LANCZOS_G = 607.0 / 128.0
_LANCZOS_C = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)
_SQRT_TWO_PI = math.sqrt(2.0 * math.pi)


def gamma(s) -> complex:
    """Complex Gamma via Lanczos, reflection formula for Re(s) < 1/2.

    Where the Lanczos power t**(z + 1/2) overflows (from Re(s) ~ 142.6 on
    the real axis) it is formed together with exp(-t) as
    exp((z + 1/2) log t - t), which reaches Re(s) ~ 171.6 and, through the
    reflection, Re(s) ~ -170.6.  Raises PoleError within 1e-12 of a
    non-positive integer, and DomainError for Re(s) < 1/2 above
    |Im(s)| ~ 226, where sin(pi s) overflows, wherever the result or its
    modulus is not finite, however large the finite s, and where |Gamma(s)|
    is below the smallest normal double (from |Im(s)| ~ 451.6 at Re(s) =
    1/2): Gamma has no zeros, so such a value has underflowed.
    """
    s = ensure_finite(s)
    n = round(s.real)
    if n <= 0 and abs(s - n) < _POLE_TOL:
        raise PoleError(f"gamma pole at {n} (argument {s!r})")
    if s.real < 0.5:
        # Gamma(s) Gamma(1-s) = pi / sin(pi s)
        try:
            sin_ps = cmath.sin(math.pi * s)
        except (OverflowError, ValueError):  # ValueError once pi * Re(s) overflows
            raise DomainError(f"sin(pi s) overflows in the reflection at s = {s!r}") from None
        value = math.pi / (sin_ps * gamma(1.0 - s))
    else:
        z = s - 1.0
        acc = _LANCZOS_C[0]
        for k in range(1, len(_LANCZOS_C)):
            acc += _LANCZOS_C[k] / (z + k)
        t = z + _LANCZOS_G + 0.5
        try:
            value = _SQRT_TWO_PI * t ** (z + 0.5) * cmath.exp(-t) * acc
        except (OverflowError, ZeroDivisionError):  # the power's cos/sin of an infinity
            value = complex(math.inf)
        if not cmath.isfinite(value):  # t ** (z + 0.5) overflows before exp(-t) scales it
            try:
                value = _SQRT_TWO_PI * cmath.exp((z + 0.5) * cmath.log(t) - t) * acc
            except (OverflowError, ValueError):  # ValueError: an exponent past the float range
                value = complex(math.inf)
    modulus = math.hypot(value.real, value.imag)
    if not math.isfinite(modulus):  # abs(value) would overflow
        raise DomainError(f"Gamma(s) is not finite in double precision at s = {s!r}")
    if modulus < sys.float_info.min:
        raise DomainError(f"|Gamma(s)| underflows the smallest normal double at s = {s!r}")
    return value


def gamma_abs_product(alpha: float, beta: float, n_terms: int) -> float:
    """Truncated product formula for |Gamma(alpha + i beta)|, alpha in (0,1).

    Every factor 1/(1 + beta^2/(n+alpha)^2) is <= 1, so truncations decrease
    monotonically in n_terms toward the true modulus.  Accumulated in log
    space (log1p) to avoid underflow for large beta, which must be finite.
    The n_terms factors are formed in place in one float buffer, 8 bytes per
    term (8 MB at n_terms = 10**6).  Where the product is not a normal float
    (beta^2/alpha^2 or Gamma(alpha) past the float range, or a modulus below
    sys.float_info.min, as at alpha = 1e-320 or beta = 1e300), DomainError.
    """
    alpha, beta = ensure_real(alpha), ensure_real(beta)
    if not (0.0 < alpha < 1.0 and math.isfinite(beta)):
        raise DomainError(f"need alpha in (0,1) and a finite beta, got {alpha}, {beta}")
    if not (isinstance(n_terms, (int, np.integer)) and n_terms >= 1):
        raise DomainError(f"n_terms must be an integer >= 1, got {n_terms!r}")
    v = np.arange(n_terms, dtype=float)
    v += alpha
    np.square(v, out=v)
    with np.errstate(all="ignore"):  # an overflow or 0/0 leaves a product the check refuses
        np.divide(beta * beta, v, out=v)
    np.log1p(v, out=v)
    log_prod = -v.sum()
    try:
        value = math.gamma(alpha) * math.exp(0.5 * log_prod)
    except OverflowError:  # Gamma(alpha) for alpha below about 5.6e-309
        value = math.nan
    if not sys.float_info.min <= value < math.inf:  # NaN fails too
        raise DomainError(f"|Gamma({alpha} + {beta}i)| over {n_terms} terms"
                          f" is not a normal float: {value}")
    return value


_LOG_CVZ = math.log(3.0 + math.sqrt(8.0))
_LOG_INV_TOL = math.log(1.0 / 1e-13)
_LOG_PI = math.log(math.pi)


@functools.cache
def _cvz_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients c_k/d of the alternating-series acceleration, stored as
    complex so no product casts them, and the logarithms of the term indices
    1..n they weight, cached per n.
    """
    d = (3.0 + math.sqrt(8.0)) ** n
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    out = np.empty(n)
    for k in range(n):
        c = b - c
        out[k] = c
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return (out / d).astype(complex), np.log(np.arange(1, n + 1, dtype=float))


# Past this ratio t/a, log|a + it| - log(a) is log(t) - log(a) to rounding.
_HUGE_RATIO = 1e150
# (3 + sqrt 8)^n, the weights' scale, overflows past n = 402.
_MAX_TERMS = 402


def _no_term_count(s) -> DomainError:
    return DomainError(f"no term count can be chosen at s = {complex(s)!r}: eta needs more "
                       f"than {_MAX_TERMS} terms, past which the series weights overflow")


def _stirling_tail(w):
    """The three correction terms of Stirling's series for log Gamma(z) (DLMF 5.11.1),
    at w = 1/z a float, a complex or an array."""
    w2 = w * w
    return w * (1.0 / 12.0 - w2 * (1.0 / 360.0 - w2 / 1260.0))


def _theta(t):
    """Riemann-Siegel theta(t) = Im log Gamma(1/4 + it/2) - (t/2) log pi, t a float or an array.

    Shifted by eight, Im log Gamma(s) = Im log Gamma(s + 8) - (arg s + ...
    + arg(s + 7)), each principal arg continuous in t since Re(s + j) > 0,
    and Stirling's series with three correction terms at z = s + 8 errs by
    under 1/(1680 |z|^7) < 3e-10 (DLMF 5.11.1).
    """
    t = np.asarray(t, dtype=float)
    s = 0.25 + 0.5j * t
    arg = sum(np.angle(s + j) for j in range(8))
    z = s + 8.0
    x, y = z.real, z.imag
    im = (x - 0.5) * np.angle(z) + y * np.log(np.abs(z)) - y + _stirling_tail(1.0 / z).imag - arg
    return im - 0.5 * t * _LOG_PI


def _eta_terms(s: complex) -> int:
    """Term count of scalar eta at s, Re(s) > 0, in plain float arithmetic.

    The error after n terms is at most (3+sqrt 8)^(-n) * exp(R), with
    R = log Gamma(sigma) - log|Gamma(s)|; n is max(12, ceil(need) + 4) for
    the need that brings the bound to 1e-13.  R is formed as one difference,
    not as two logarithms subtracted (at sigma = 1e15 that loses every
    digit).  Shifted by eight, R is the sum over j < 8 of log|sigma + j + it|
    - log(sigma + j) plus Stirling's difference at x = sigma + 8,
    -(x - 1/2) log|z/x| + t arg z - (Re S(z) - S(x)) for z = x + it, with S
    the three-term series _stirling_tail (DLMF 5.11.1).  R is exactly 0 at
    t = 0 and finite at every finite s with Re(s) > 0.
    """
    sigma, t = s.real, abs(s.imag)
    log_ratio = 0.0
    for j in range(9):  # j < 8 for the shift; j = 8 leaves a = x and log|z/x|
        a = sigma + j
        r = t / a
        log_za = 0.5 * math.log1p(r * r) if r < _HUGE_RATIO else math.log(t) - math.log(a)
        log_ratio += log_za
    # log|z/x| entered the sum once; Stirling's difference takes it -(x - 1/2) times
    series = _stirling_tail(1.0 / complex(a, t)).real - _stirling_tail(1.0 / a)
    need = (log_ratio - (a + 0.5) * log_za + t * math.atan(r) - series + _LOG_INV_TOL) / _LOG_CVZ
    if not need <= _MAX_TERMS - 4:  # also NaN and inf
        raise _no_term_count(s)
    return max(12, math.ceil(need) + 4)


def _eta_array_terms(s: np.ndarray) -> np.ndarray:
    """Term count of every point of a flat array, by _eta_terms' formula in NumPy."""
    sigma, t = s.real, np.abs(s.imag)
    a = sigma + np.arange(9.0)[:, None]  # row j is sigma + j; row 8 is x
    with np.errstate(all="ignore"):  # (t/a)^2 overflows where r is huge, and log(0) there
        r = t / a
        log_za = 0.5 * np.log1p(r * r)
        huge = r >= _HUGE_RATIO
        if huge.any():
            log_za = np.where(huge, np.log(t) - np.log(a), log_za)
        x, r, log_zx = a[8], r[8], log_za[8]
        series = _stirling_tail(1.0 / (x + 1j * t)).real - _stirling_tail(1.0 / x)
        need = (log_za.sum(axis=0) - (x + 0.5) * log_zx + t * np.arctan(r) - series
                + _LOG_INV_TOL) / _LOG_CVZ
    bad = ~(need <= _MAX_TERMS - 4)
    if bad.any():
        raise _no_term_count(s[bad][0])
    return np.maximum(12.0, np.ceil(need) + 4.0)


# Points per exponent block, so a block holds at most 2048 x 402 complex terms (13 MB).
_BLOCK_POINTS = 2048


def _eta_rows(s: np.ndarray, n: np.ndarray) -> list[complex]:
    """eta at the points s, Re(s) > 0, with term counts n, by the scalar route's kernel.

    Point i gets its own exponent row -s_i log k, k <= n_i, all rows go
    through one np.exp, and each row is dotted with its own weights by the
    BLAS dot that the scalar route's exp(-s log k) @ w calls, so every entry
    keeps the scalar value's bits (one matrix product per term count rounds
    differently).  The log k of the longest row serve every row, as np.log
    gives prefix-equal arrays for every count up to 402.
    """
    ends = np.cumsum(n)
    starts = ends - n
    log_k = _cvz_weights(int(n.max()))[1]
    terms = np.exp(np.repeat(-s, n) * log_k[np.arange(ends[-1]) - np.repeat(starts, n)])
    return [terms[a:b].dot(_cvz_weights(m)[0])
            for a, b, m in zip(starts.tolist(), ends.tolist(), n.tolist())]


def _eta_array(s: np.ndarray) -> np.ndarray:
    flat = np.asarray(s, dtype=complex).ravel()
    bad = ~(np.isfinite(flat) & (flat.real > 0.0))
    if bad.any():
        raise DomainError(f"eta requires finite s with Re(s) > 0, got {complex(flat[bad][0])!r}")
    n = _eta_array_terms(flat).astype(int)
    out = [v for i in range(0, flat.size, _BLOCK_POINTS)
           for v in _eta_rows(flat[i:i + _BLOCK_POINTS], n[i:i + _BLOCK_POINTS])]
    return np.array(out, dtype=complex).reshape(np.shape(s))


def eta(s):
    """Dirichlet eta via accelerated alternating series, Re(s) > 0.

    A scalar gives a complex; an ndarray gives a complex array of its shape,
    with every entry required finite with Re > 0 (DomainError otherwise) and
    equal to the scalar call at that entry bit for bit.  Both routes take the
    same term counts and the same kernel, from no gamma call, and raise
    DomainError only where a count passes 402 terms and the series weights
    overflow: past |Im(s)| ~ 428 at Re(s) = 1/2 and ~ 423 at Re(s) = 0.01.
    So eta(1e300) answers although gamma overflows from Re(s) ~ 171.6, and for
    Re(s) < 1/2 eta answers above Im(s) ~ 226, where gamma's reflection
    overflows (within 0.80 of its 1e-12 bound against mpmath.altzeta over
    200 seeded points with Re(s) in (0, 1/2), Im(s) in (226, 420)).  Near
    s = 0 the count needs no special case: eta(1e-320) is 1/2 to rounding.
    """
    if isinstance(s, np.ndarray):
        return _eta_array(s)
    s = ensure_finite(s)
    if s.real <= 0.0:
        raise DomainError(f"eta requires Re(s) > 0, got {s.real}")
    w, log_k = _cvz_weights(_eta_terms(s))
    return complex(np.exp(-s * log_k) @ w)


def zeta(s) -> complex:
    """zeta(s) = eta(s) / (1 - 2**(1-s)) on the open critical strip.

    The factor 1 - 2**(1-s) never vanishes for 0 < Re(s) < 1, but next to
    the pole at 1 it rounds to 0 (at s = 1 - 2**-53), where PoleError is raised.
    """
    s = ensure_strip(s)
    factor = 1.0 - 2.0 ** (1.0 - s)
    if factor == 0.0:
        raise PoleError(f"zeta pole at 1: 1 - 2**(1-s) rounds to 0 at s = {s!r}")
    return eta(s) / factor
