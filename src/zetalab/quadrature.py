"""Adaptive quadrature for the Fermi-Dirac Mellin integral and its bounds.

The central object is ``F(s) = integral_0^inf x**(s-1)/(e**x + 1) dx`` on the
critical strip (the Mellin transform of the Fermi function), together with

* ``M(alpha)  = 1/(2 alpha) + 1/e``           -- closed-form modulus bound,
* ``M*(alpha) = F(alpha)`` for real alpha     -- the sharper integral bound, and
* its first two derivatives (log-weighted integrands).

Scheme: the integrand is singular like x**(alpha-1) at 0 and decays like
e**(-x).  The integral is split three ways:

* head [0, h]: bounded analytically using |1/(e**x+1)| <= 1/2 and the exact
  incomplete-gamma form of integral x**(alpha-1) |log x|**k dx; h >= 1e-300
  is chosen so the head is below tol/10 and its bound is added to the
  reported error.  Where no such h exists, at small Re(s) (for F below
  about 0.034 at tol 1e-8 and 0.047 at tol 1e-12), ToleranceNotMet is raised
  before the mesh is built;
* body [h, X]: geometric panels (ratio capped so that the oscillation of
  x**(i Im s) = e**(i Im s log x) is a few radians per panel), each integrated
  with a 15-point Gauss-Kronrod rule and refined adaptively, worst panels
  first, until the summed |K15-G7| estimate meets the tolerance;
* tail [X, inf): discarded, with X = max(40, -log(tol/10)) so that the
  e**(-x) majorant keeps it below tol/10 (log-weighted variants enlarge X).

All evaluations are vectorised over panels, in passes of at most 256 panels
(_CHUNK_PANELS), so a call's working set stays near 2 MiB whatever its
evaluation count.  EVAL_BUDGET = 10**6 integrand evaluations are allowed per
call: a mesh or a refinement sweep that would exceed them raises
ToleranceNotMet before the integrand sees it.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, ToleranceNotMet
from .special_functions import ensure_finite, ensure_real

__all__ = [
    "EVAL_BUDGET",
    "QuadratureEstimate",
    "fermi_mellin",
    "f_shifted",
    "m_bound",
    "m_star",
    "m_star_half",
    "m_star_derivative",
]

EVAL_BUDGET = 10**6


@dataclass(frozen=True)
class QuadratureEstimate:
    """Integral value with an absolute-error estimate and evaluation count."""

    value: complex
    abs_error: float
    n_evals: int

    @property
    def resolved(self) -> bool:
        """True iff the value stands above its error estimate, |value| > abs_error."""
        return abs(self.value) > self.abs_error


# 15-point Kronrod nodes/weights with the embedded 7-point Gauss rule.
_GK_X = np.array(
    [
        -0.991455371120812639206854697526329,
        -0.949107912342758524526189684047851,
        -0.864864423359769072789712788640926,
        -0.741531185599394439863864773280788,
        -0.586087235467691130294144838258730,
        -0.405845151377397166906606412076961,
        -0.207784955007898467600689403773245,
        0.0,
        0.207784955007898467600689403773245,
        0.405845151377397166906606412076961,
        0.586087235467691130294144838258730,
        0.741531185599394439863864773280788,
        0.864864423359769072789712788640926,
        0.949107912342758524526189684047851,
        0.991455371120812639206854697526329,
    ]
)
_GK_WK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
        0.209482141084727828012999174891714,
        0.204432940075298892414161999234649,
        0.190350578064785409913256402421014,
        0.169004726639267902826583426598550,
        0.140653259715525918745189590510238,
        0.104790010322250183839876322541518,
        0.063092092629978553290700663189204,
        0.022935322010529224963732008058970,
    ]
)
_G_W = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
        0.417959183673469387755102040816327,
        0.381830050505118944950369775488975,
        0.279705391489276667901467771423780,
        0.129484966168869693270611432679082,
    ]
)


# Panels per array pass of _integrate.  256 x 15 complex values are 60 KiB,
# under the 64 KiB at which glibc's free() checks whether to trim the heap
# top, so a pass's temporaries are reused from the heap without returning
# pages that the next pass faults in again.  Over the 900 fermi_mellin calls
# of a points-mixed pass in a fresh process (2-CPU Xeon, glibc 2.36), 256
# panels took 0.9-2.3k minor page faults and 512 panels (120 KiB
# temporaries) 61-134k, against 33k for one array per round, whenever no
# block above 128 KiB had been freed before; 128 panels made no fewer
# faults (1.0-1.4k) in twice the passes.
_CHUNK_PANELS = 256
# Rounding floor of the adaptive loop, relative to the summed |panel values|.
_FLOOR_EPS = 64.0 * np.finfo(float).eps


def _integrate(f, mesh: np.ndarray, tol: float):
    """Globally adaptive GK15 over an initial mesh: (value, error estimate, evaluations).

    The mesh is the first sweep.  Every later sweep splits each panel whose
    error exceeds its fair share and evaluates only the halves; it stops
    when the summed estimate is below 0.8 tol (the rest of tol is left to
    the head and tail bounds) or the rounding floor, whichever is larger.
    Panels are evaluated here only, _CHUNK_PANELS at a time, and a panel's
    sums are the same whatever pass it falls in; a pass's values y are freed
    before the next (held over, they made 1,000 panels 16% slower on the
    host above).  Evaluations are counted here, 15 a panel; ToleranceNotMet,
    naming tol, is raised before a refinement sweep that would take them
    past EVAL_BUDGET.
    """
    target = 0.8 * tol
    a, b = mesh[:-1], mesh[1:]
    vals = errs = mesh[:0]  # the sums of the kept panels, the first len(vals) of a
    n_evals, total_err = 0, math.inf
    while True:
        n_evals += len(_GK_X) * (len(a) - len(vals))
        if n_evals > EVAL_BUDGET:  # never on the mesh, which _log_moment checks first
            raise ToleranceNotMet(f"quadrature budget {EVAL_BUDGET} exhausted (error"
                                  f" {total_err:.3e} > 0.8 tol, tol = {tol:.3e})")
        val_parts, err_parts = [vals], [errs]
        for i in range(len(vals), len(a), _CHUNK_PANELS):
            pa, pb = a[i : i + _CHUNK_PANELS], b[i : i + _CHUNK_PANELS]
            mid, half = 0.5 * (pa + pb), 0.5 * (pb - pa)
            y = f((mid[:, None] + half[:, None] * _GK_X[None, :]).ravel()).reshape(len(mid), len(_GK_X))
            k15 = (y * _GK_WK).sum(axis=1) * half
            val_parts.append(k15)
            err_parts.append(np.abs(k15 - (y[:, 1::2] * _G_W).sum(axis=1) * half))
            del y
        vals, errs = np.concatenate(val_parts), np.concatenate(err_parts)
        total_err = errs.sum()
        if total_err <= target or total_err <= _FLOOR_EPS * max(1.0, np.abs(vals).sum()):
            return vals.sum(), float(total_err), n_evals
        split = errs > target / (2.0 * len(a))
        if not split.any():
            split[np.argmax(errs)] = True
        keep = ~split
        left, right = a[split], b[split]
        mid = 0.5 * (left + right)
        a = np.concatenate([a[keep], left, mid])
        b = np.concatenate([b[keep], mid, right])
        vals, errs = vals[keep], errs[keep]


def _head_bound(alpha: float, k: int, t: float) -> float:
    """Bound on integral_0^h x**(alpha-1) |log x|**k / (e**x+1) dx, t = alpha*log(1/h).

    Uses |1/(e**x+1)| <= 1/2 and the exact Gamma(k+1, t) for k = 0, 1, 2.
    """
    if k == 0:
        inc = math.exp(-t)
    elif k == 1:
        inc = math.exp(-t) * (1.0 + t)
    else:
        inc = math.exp(-t) * (2.0 + 2.0 * t + t * t)
    scale = 2.0 * alpha ** (k + 1)
    return inc / scale if scale else math.inf  # alpha**(k+1) underflows at tiny alpha


def _head_cut(alpha: float, k: int, tol: float):
    """Pick h (as alpha*log(1/h)) so the head bound is <= tol/10, h >= 1e-300.

    Where h = 1e-300 leaves the head above tol/10, that h and its bound are
    returned, and _log_moment raises.
    """
    t_cap = 300.0 * math.log(10.0) * alpha
    t = min(max(2.0 * (k + 1), 1.0), t_cap)
    while _head_bound(alpha, k, t) > tol / 10.0 and t < t_cap:
        t = min(t * 1.5, t_cap)
    h = math.exp(-t / alpha)
    return h, _head_bound(alpha, k, t)


def _tail_cut(k: int, tol: float):
    """Pick X so integral_X^inf x**(alpha-1) log(x)**k e**(-x) dx <= tol/10."""
    x = max(40.0, -math.log(tol / 10.0))
    while 2.0 * max(1.0, math.log(x)) ** k * math.exp(-x) > tol / 10.0:
        x *= 1.25
    return x, 2.0 * max(1.0, math.log(x)) ** k * math.exp(-x)


def _mesh_ratio(beta: float) -> float:
    """Panel ratio of the geometric mesh: a few radians of x**(i beta) per panel."""
    return min(4.0, math.exp(3.0 / max(1.0, abs(beta))))


def _mesh_panels(h: float, x_max: float, beta: float) -> float:
    """Panels of the buffer _mesh(h, x_max, beta) fills, from two logarithms.

    Each run's length is estimated from the logarithms, plus two steps that
    cover the rounding of the products, so the buffer holds a few panels
    more than the mesh; a ratio that rounds to 1 never reaches x_max and
    gives infinity.
    """
    log_r = math.log(_mesh_ratio(beta))
    if log_r == 0.0:
        return math.inf
    return math.ceil(-math.log(h) / log_r) + math.ceil(math.log(x_max) / log_r) + 4


def _mesh(h: float, x_max: float, beta: float) -> np.ndarray:
    """Geometric mesh from h to x_max, a few radians of x**(i beta) per panel.

    h, h*r, h*r*r, ... up to 1, then 1, r, r*r, ... up to x_max, multiplied
    in sequence, with the first point of each run at or past its stop set
    to the stop; needs h < 1 < x_max and a ratio above 1.
    """
    ratio = _mesh_ratio(beta)
    pts = np.full(_mesh_panels(h, x_max, beta) + 1, ratio)
    pts[0] = h
    np.multiply.accumulate(pts, out=pts)
    one = int(pts.searchsorted(1.0))
    pts[one] = 1.0
    pts[one + 1 :] = ratio
    tail = pts[one:]
    np.multiply.accumulate(tail, out=tail)
    end = one + int(tail.searchsorted(x_max))
    pts[end] = x_max
    return pts[: end + 1]


def _log_moment(s, k: int, tol: float) -> QuadratureEstimate:
    """integral_0^inf x**(s-1) log(x)**k / (e**x+1) dx for 0 < Re(s) <= 1, k in {0, 1, 2}.

    The one integration route behind fermi_mellin (k = 0) and
    m_star_derivative (k = 1, 2, real s).  abs_error includes the discarded
    head and tail bounds on top of the adaptive rule's own estimate.
    """
    s = ensure_finite(s)
    if not 0.0 < s.real <= 1.0:
        raise DomainError(f"Re(s) = {s.real} outside (0, 1]")
    if not (tol := ensure_real(tol)) > 0.0:  # also rejects NaN
        raise DomainError("tol must be positive")
    alpha, beta = s.real, s.imag
    h, head = _head_cut(alpha, k, tol)
    if head > tol / 10.0:
        raise ToleranceNotMet(
            f"Re(s) = {alpha}: the head bound {head:.3e} at h = {h:.3e} stays above"
            f" tol/10, tol = {tol:.3e}"
        )
    x_max, tail = _tail_cut(k, tol)
    exponent = s - 1.0

    if k:
        def integrand(x):
            return x ** (alpha - 1.0) * np.log(x) ** k / (np.exp(x) + 1.0)
    elif beta == 0.0:
        def integrand(x):
            return x ** (alpha - 1.0) / (np.exp(x) + 1.0)
    else:
        def integrand(x):
            return np.exp(exponent * np.log(x)) / (np.exp(x) + 1.0)

    panels = _mesh_panels(h, x_max, beta)
    if panels * len(_GK_X) > EVAL_BUDGET:  # checked before the mesh is allocated
        raise ToleranceNotMet(
            f"budget {EVAL_BUDGET} below the {panels * len(_GK_X):.4g} evaluations of the mesh"
        )
    value, err, n_evals = _integrate(integrand, _mesh(h, x_max, beta), tol)
    return QuadratureEstimate(complex(value), err + head + tail, n_evals)


def fermi_mellin(s, tol: float = 1e-8) -> QuadratureEstimate:
    """F(s) = integral_0^inf x**(s-1)/(e**x+1) dx for 0 < Re(s) <= 1.

    The closed right edge Re(s) = 1 is admitted (F(1) = log 2); the rest of
    the strip boundary is not.  abs_error includes the discarded head and
    tail bounds on top of the adaptive rule's own estimate.
    """
    return _log_moment(s, 0, tol)


def f_shifted(omega, tol: float = 1e-8) -> QuadratureEstimate:
    """Shifted integral F_omega(omega) = F(omega + 1/2), Re(omega) in [0, 1/2].

    Identical to fermi_mellin after the change of variable s = omega + 1/2;
    the half-strip domain maps onto the closed upper half of the strip.
    """
    omega = ensure_finite(omega)
    if not 0.0 <= omega.real <= 0.5:
        raise DomainError(f"Re(omega) = {omega.real} outside [0, 1/2]")
    return fermi_mellin(omega + 0.5, tol)


def m_bound(alpha: float) -> float:
    """Closed-form bound M(alpha) = 1/(2 alpha) + 1/e on |F|, alpha in (0, 1].

    Below alpha of about 2.8e-309 the bound passes the float range and
    DomainError is raised.
    """
    alpha = ensure_real(alpha)
    if not 0.0 < alpha <= 1.0:
        raise DomainError(f"alpha = {alpha} outside (0, 1]")
    if (bound := 1.0 / (2.0 * alpha) + math.exp(-1.0)) == math.inf:
        raise DomainError(f"M({alpha}) = 1/(2 alpha) + 1/e is past the float range")
    return bound


def m_star(alpha: float, tol: float = 1e-8) -> float:
    """Integral bound M*(alpha) = F(alpha) for real alpha in (0, 1]."""
    return fermi_mellin(ensure_real(alpha), tol).value.real


@functools.cache
def m_star_half() -> float:
    """M*(1/2) to 1e-10, computed once: the cap of the audit and the boundary-scan scale."""
    return m_star(0.5, 1e-10)


def m_star_derivative(alpha: float, order: int, tol: float = 1e-8) -> float:
    """d^k M*/d alpha^k as the log-weighted integral, k = order in {1, 2}.

    Negative for order 1 and positive for order 2 on [1/2, 1]; the evaluation
    itself is valid on all of (0, 1].
    """
    if not (np.ndim(order) == 0 and order in (1, 2)):  # an array has no one truth value
        raise DomainError("order must be 1 or 2")
    return _log_moment(ensure_real(alpha), order, tol).value.real

