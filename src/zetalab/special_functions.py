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

eta also takes an ndarray and evaluates it in one batch.  The term counts
come from the same bound and the same rule, with log|Gamma(s)| the real part
of _loggamma, Stirling's series over an array, instead of a gamma call per
point (the imaginary part is zero_analysis' theta), and the points are
grouped by term count, each group one exp(-s log k) @ w, the scalar route's
kernel.  For Im(s) <= 220 the batch errs by at most about
2e-13 * max(|eta|, 1) against mpmath.altzeta.  The input type selects the
route: a one-point batch equals the scalar value bit for bit but costs
48-53 us against 8-12 us per scalar call (Re 1/2, Im 14-200, 2-CPU Xeon),
and a multi-point batch differs in the last bits (up to 2.5e-15 relative),
so only counts and signs use it: winding counts and the zero search's phase
track and signs of Hardy's Z.
"""

from __future__ import annotations

import cmath
import functools
import math
import numbers

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
    |Im(s)| ~ 226, where sin(pi s) overflows, and wherever the result or
    its modulus is not finite, however large the finite s.
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
    if not math.isfinite(math.hypot(value.real, value.imag)):  # abs(value) would overflow
        raise DomainError(f"Gamma(s) is not finite in double precision at s = {s!r}")
    return value


def gamma_abs_product(alpha: float, beta: float, n_terms: int) -> float:
    """Truncated product formula for |Gamma(alpha + i beta)|, alpha in (0,1).

    Every factor 1/(1 + beta^2/(n+alpha)^2) is <= 1, so truncations decrease
    monotonically in n_terms toward the true modulus.  Accumulated in log
    space (log1p) to avoid underflow for large beta, which must be finite.
    """
    alpha, beta = ensure_real(alpha), ensure_real(beta)
    if not (0.0 < alpha < 1.0 and math.isfinite(beta)):
        raise DomainError(f"need alpha in (0,1) and a finite beta, got {alpha}, {beta}")
    if not (isinstance(n_terms, (int, np.integer)) and n_terms >= 1):
        raise DomainError(f"n_terms must be an integer >= 1, got {n_terms!r}")
    n = np.arange(n_terms, dtype=float)
    log_prod = -np.log1p(beta * beta / (n + alpha) ** 2).sum()
    return math.gamma(alpha) * math.exp(0.5 * log_prod)


_LOG_CVZ = math.log(3.0 + math.sqrt(8.0))
_LOG_INV_TOL = math.log(1.0 / 1e-13)
_HALF_LOG_TWO_PI = 0.5 * math.log(2.0 * math.pi)


@functools.cache
def _cvz_weights(n: int) -> tuple[np.ndarray, np.ndarray]:
    """Coefficients c_k/d of the alternating-series acceleration and the
    logarithms of the term indices 1..n they weight, cached per n.
    """
    try:
        d = (3.0 + math.sqrt(8.0)) ** n
    except OverflowError:
        raise DomainError(f"eta needs {n} terms; the weights overflow past 402") from None
    d = 0.5 * (d + 1.0 / d)
    b = -1.0
    c = -d
    out = np.empty(n)
    for k in range(n):
        c = b - c
        out[k] = c
        b *= (k + n) * (k - n) / ((k + 0.5) * (k + 1.0))
    return out / d, np.log(np.arange(1, n + 1, dtype=float))


def _term_count(log_ratio):
    """Series terms for log_ratio = log(Gamma(sigma)/|Gamma(s)|), a float or an array.

    The error after n terms is at most (3+sqrt 8)^(-n) * Gamma(sigma)/|Gamma(s)|;
    n is max(12, ceil(need) + 4) for the need that brings the bound to 1e-13.
    """
    need = (log_ratio + _LOG_INV_TOL) / _LOG_CVZ
    return np.maximum(12.0, np.ceil(need) + 4.0)


def _eta_terms(s: complex) -> int:
    """Term count of scalar eta at s, log|Gamma(s)| from one gamma call.

    Within gamma's pole radius of 0 that call is Gamma(1+s), with
    log|Gamma(s)| = log|Gamma(1+s)| - log|s| (1/|s| itself overflows near
    s = 1e-320).
    """
    if math.hypot(s.real, s.imag) < _POLE_TOL:  # abs(s) overflows near |s| = 1.8e308
        log_gamma_abs = math.log(abs(gamma(1.0 + s))) - math.log(abs(s))
    else:
        gamma_abs = abs(gamma(s))
        if gamma_abs == 0.0:
            raise DomainError(f"|Gamma(s)| underflows at s = {s!r}; no term count can be chosen")
        log_gamma_abs = math.log(gamma_abs)
    return int(_term_count(math.lgamma(s.real) - log_gamma_abs))


def _loggamma(s: np.ndarray) -> np.ndarray:
    """log Gamma(s) for an array with Re(s) > 0, continuous in Im(s), without calling gamma.

    Points with Re(s) < 8 are shifted by eight, log Gamma(s) = log Gamma(s+8)
    - log|s (s+1) ... (s+7)| - i (arg s + ... + arg(s+7)), each principal arg
    continuous in Im(s) since Re(s+j) > 0; Stirling's series with three
    correction terms then errs by under 1/(1680 |s|^7) < 3e-10 (DLMF 5.11.1).
    """
    shifted = s.real < 8.0
    prod, arg = s.copy(), np.angle(s)
    with np.errstate(over="ignore", invalid="ignore"):  # |Im s| > 1e38: no term count
        for j in range(1, 8):
            prod *= s + j
            arg += np.angle(s + j)
    z = np.where(shifted, s + 8.0, s)
    x, y = z.real, z.imag
    log_abs, angle = np.log(np.abs(z)), np.angle(z)
    w = 1.0 / z
    w2 = w * w
    series = w * (1.0 / 12.0 - w2 * (1.0 / 360.0 - w2 / 1260.0))
    re = ((x - 0.5) * log_abs - y * angle - x + _HALF_LOG_TWO_PI
          + series.real - np.where(shifted, np.log(np.abs(prod)), 0.0))
    im = (x - 0.5) * angle + y * log_abs - y + series.imag - np.where(shifted, arg, 0.0)
    return re + 1j * im


def _eta_array_terms(s: np.ndarray) -> np.ndarray:
    """Term count of every point of a flat array, by the scalar route's rule."""
    try:
        log_gamma_sigma = np.array([math.lgamma(x) for x in s.real.tolist()])
    except OverflowError:
        raise DomainError(f"Gamma(Re s) overflows at some Re(s) up to {s.real.max()}") from None
    n = _term_count(log_gamma_sigma - _loggamma(s).real)
    if not np.isfinite(n).all():
        bad = s[~np.isfinite(n)][0]
        raise DomainError(f"no term count can be chosen at s = {complex(bad)!r}")
    return n


def _eta_array(s: np.ndarray) -> np.ndarray:
    flat = np.asarray(s, dtype=complex).ravel()
    bad = ~(np.isfinite(flat) & (flat.real > 0.0))
    if bad.any():
        raise DomainError(f"eta requires finite s with Re(s) > 0, got {complex(flat[bad][0])!r}")
    n = _eta_array_terms(flat)
    out = np.empty_like(flat)
    for m in np.unique(n):
        sel = n == m
        w, log_k = _cvz_weights(int(m))
        out[sel] = np.exp(np.outer(-flat[sel], log_k)) @ w
    return out.reshape(np.shape(s))


def eta(s):
    """Dirichlet eta via accelerated alternating series, Re(s) > 0.

    A scalar gives a complex; an ndarray gives a complex array of its shape,
    with every entry required finite with Re > 0 (DomainError otherwise).
    The scalar route raises DomainError past |Im(s)| ~ 428 at Re(s) = 1/2,
    where the series weights overflow or |Gamma(s)| underflows, past gamma's
    limit (Re(s) ~ 171.6 on the real axis), and for Re(s) < 1/2 past
    |Im(s)| ~ 226, where the reflection's sin(pi s) overflows; the array
    route raises only where the weights overflow, and answers there (within
    0.67 of its 1e-12 bound against mpmath.altzeta over 160 seeded points
    with Re(s) in (0, 1/2), Im(s) in (226, 428)).  Near s = 0, inside
    gamma's pole radius, the scalar term count reads Gamma(1+s)/s, so
    eta(1e-320) = 1/2 as the array route gives it.
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

    The factor 1 - 2**(1-s) never vanishes for 0 < Re(s) < 1, so no pole
    handling is needed beyond eta's own domain check.
    """
    s = ensure_strip(s)
    return eta(s) / (1.0 - 2.0 ** (1.0 - s))
