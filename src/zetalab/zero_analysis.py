"""Zero counting and location on the critical strip.

Counting is done with a numerical argument principle: the change of arg of
an analytic function along a path is followed continuously, with adaptive
midpoint insertion whenever a single step turns the phase by more than
pi/2.  The function takes a 1-D complex array of path points and returns
their values: the initial path is one call, and each refinement round
evaluates all its midpoints in one more.  Along a rectangle boundary the
change is 2 pi times the number of enclosed zeros (winding_count).

Critical-line zeros are located by bisection of the line itself
(critical_line_zeros).  N(tau) = theta(tau)/pi + 1 + S(tau) counts the zeros
of zeta in the whole strip below tau once, pi S(tau) the change of arg zeta
along the segment from 2 + i tau to 1/2 + i tau, and theta is
special_functions' Stirling series for it, which Hardy's Z uses too.
N sign changes of Z on a grid a quarter of the mean zero gap apart put every
zero on the line, simple and alone between two samples.  The line is then
split level by level, eta and Z at a level's split heights in one array call
(one more per nudge round where a height lies too near a zero), and each
interval is counted by the sign changes of Z.  Each zero is polished by
golden-section on |eta| in its interval, once that is no taller than
zero_tol or the grid step, every zero in lockstep with one array eta call per
round, and certified by a sign change of Z across a bracket of half-width
zero_tol about it.  So the search makes no scalar eta call.

The boundary scan machinery for the Rouche-style check assembles
``f = F_omega * L`` (the shifted Fermi integral times a product of
conjugate-ratio factors of unit modulus, one per located zero) against
``g = lam * (eps + omega)``, with lam = (M*(1/2) + nu)/eps worked out from
eps and nu, samples the boundary of the truncated half-strip rectangle
K(tau), and reports the minimum triangle-inequality margin |f| + |g| - |f + g|
and where it occurs.  f is computed one way at every sample: an F_omega
quadrature times L, where L is blaschke_L, the same function the audit
certifies as unimodular, called once on the whole boundary array.  All of
the scan is computed over that array at once, except the F_omega
quadrature, which runs sample by sample.
"""

from __future__ import annotations

import bisect
import cmath
import math
from dataclasses import dataclass, fields
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BoundaryZeroError,
    DomainError,
    MultiplicityAmbiguity,
    NonConvergence,
    PoleProximity,
    ZeroAtCenter,
)
from .quadrature import f_shifted, m_star_half
from .special_functions import _theta, ensure_complex_array, ensure_finite, ensure_real, eta, finite_abs

__all__ = [
    "RectangleRegion",
    "CriticalZeroList",
    "RoucheScanResult",
    "winding_count",
    "critical_line_zeros",
    "riemann_von_mangoldt",
    "jensen_check",
    "titchmarsh_zero_bound",
    "titchmarsh_zero_free",
    "blaschke_L",
    "rouche_scan",
    "lambda_choice",
    "triangle_equality_condition",
]

_HALF_PI = 0.5 * math.pi
_TWO_PI = 2.0 * math.pi
_TWO_PI_E = 2.0 * math.pi * math.e

# The clearance the boundary scan keeps between tau and every zero height,
# and the radius around a neutralized zero i*b_j inside which it waives its
# resolution check.
EXCLUSION_TOL = 1e-2
# Smallest cell height critical_line_zeros splits down to, so the least zero_tol.
MIN_ZERO_TOL = 1e-9
# How winding_count and rouche_scan sample a boundary: samples per unit of side
# length, and the most one count or one scan takes.  Both are read at call time.
SAMPLES_PER_UNIT = 64
MAX_BOUNDARY_SAMPLES = 500_000
# Steps of the segment from 2 + i tau to 1/2 + i tau on which the zero count
# follows arg zeta; not divisible by 3, so no sample falls on Re(s) = 1.
SEGMENT_STEPS = 97
# The grid of heights critical_line_zeros samples Hardy's Z on: this fraction
# of the mean zero gap 2 pi/log(tau/2 pi) at tau apart, never above 1, and
# halved at most this many times while its sign changes fall short of the
# root count.
Z_GRID_GAP_FRACTION = 0.25
Z_GRID_DOUBLINGS = 4
# The most circle samples jensen_check takes, one fn call each: about 3
# minutes at 0.18 ms a sample with f_on_disk at tol 1e-8 (2-CPU Xeon)
JENSEN_MAX_SAMPLES = 10**6

AnalyticFn = Callable[[complex], complex]


@dataclass(frozen=True)
class RectangleRegion:
    """Axis-aligned rectangle in the complex plane, each bound stored as a float."""

    re_min: float
    re_max: float
    im_min: float
    im_max: float

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, ensure_real(getattr(self, f.name)))
        if not all(math.isfinite(getattr(self, f.name)) for f in fields(self)):
            raise DomainError(f"non-finite rectangle {self!r}")
        if not (self.re_min < self.re_max and self.im_min < self.im_max):
            raise DomainError(f"degenerate rectangle {self!r}")

    @property
    def corners(self) -> tuple[complex, complex, complex, complex]:
        return (
            complex(self.re_min, self.im_min),
            complex(self.re_max, self.im_min),
            complex(self.re_max, self.im_max),
            complex(self.re_min, self.im_max),
        )


@dataclass(frozen=True)
class CriticalZeroList:
    """Ordered imaginary parts of critical-line zeros up to height tau.

    betas is stored as a tuple of floats and tau as a float, whatever
    sequence and reals they are given as, so the record hashes and equals
    the one built from the same heights; betas that is not a sequence (a
    scalar, a 0-d array, None) raises DomainError.
    """

    betas: tuple[float, ...]
    tau: float

    def __post_init__(self):
        *betas, tau = _positive_finite("zero heights and tau", *_zero_list(self.betas), self.tau)
        object.__setattr__(self, "betas", tuple(betas))
        object.__setattr__(self, "tau", tau)
        if any(b2 <= b1 for b1, b2 in zip(self.betas, self.betas[1:])):
            raise DomainError("zero heights must be strictly increasing")
        if any(b > self.tau for b in self.betas):
            raise DomainError("zero height above tau")

    def __iter__(self):
        return iter(self.betas)

    def __len__(self):
        return len(self.betas)


@dataclass(frozen=True)
class RoucheScanResult:
    """Minimum triangle-inequality margin over a sampled rectangle boundary."""

    tau: float
    lam: float
    epsilon: float
    min_margin: float
    argmin_omega: complex
    boundary_samples: int
    min_f_abs: float
    argmin_f_omega: complex
    zeros: tuple[float, ...]


def _positive_finite(what: str, *values) -> tuple[float, ...]:
    floats = tuple(map(ensure_real, values))
    if not all(0.0 < v < math.inf for v in floats):  # also rejects NaN
        raise DomainError(f"{what} must be positive and finite")
    return floats


def _zero_list(zeros) -> tuple:
    """The entries of a zero list; DomainError where zeros is not a sequence."""
    try:
        entries = iter(zeros)
    except TypeError:  # a scalar, a 0-d array or None
        raise DomainError(f"expected a sequence of zeros, got {type(zeros).__name__}") from None
    return tuple(entries)


def _side_samples(rect: RectangleRegion) -> tuple[float, float]:
    """Samples per side (horizontal, vertical): max(8, ceil(SAMPLES_PER_UNIT * length)) or inf."""
    return tuple(max(8, math.ceil(n)) if n < math.inf else n for n in
                 (SAMPLES_PER_UNIT * (rect.re_max - rect.re_min),
                  SAMPLES_PER_UNIT * (rect.im_max - rect.im_min)))


def _boundary_size(rect: RectangleRegion) -> float:
    """Number of samples _boundary_points(rect) returns."""
    return 2 * sum(_side_samples(rect))


def _boundary_points(rect: RectangleRegion) -> np.ndarray:
    """Counterclockwise boundary samples, max(8, ceil(SAMPLES_PER_UNIT * length)) per side."""
    n_h, n_v = _side_samples(rect)
    corners = rect.corners
    return np.concatenate([
        a + (b - a) * (np.arange(n) / n)
        for a, b, n in zip(corners, corners[1:] + corners[:1], (n_h, n_v, n_h, n_v))
    ])


def _track_phase(fn: Callable[[np.ndarray], np.ndarray], points: np.ndarray,
                 closed: bool) -> tuple[float, float]:
    """arg fn at points[0], and the change of arg fn along the polygon through points.

    The polygon runs through the points in order, and back to the first if
    closed.  A step turns by the difference of the args at its ends, wrapped
    into [-pi, pi): no arg overflows, even next to the float limit.  fn is
    called, steps refined and the evaluation budget and the 1e-12 floor
    enforced as winding_count describes.
    """
    evals = 0

    def values(p: np.ndarray) -> np.ndarray:
        nonlocal evals
        evals += p.size
        if evals > MAX_BOUNDARY_SAMPLES:
            raise NonConvergence(f"boundary refinement budget {MAX_BOUNDARY_SAMPLES} exhausted")
        v = ensure_complex_array(fn(p))
        if v.shape != p.shape:
            raise DomainError(f"fn returned shape {v.shape} for points of shape {p.shape}")
        bad = ~np.isfinite(v)
        if bad.any():
            j = int(np.argmax(bad))
            raise DomainError(f"fn({complex(p[j])}) = {complex(v[j])} is not finite")
        small = np.abs(v) < 1e-12
        if small.any():
            j = int(np.argmax(small))
            raise BoundaryZeroError(
                f"|fn({complex(p[j])})| = {abs(v[j]):.3e} below boundary minimum 1e-12"
            )
        return v

    # each step runs from (p1, a1) to (p2, a2), a the arg of fn
    p, a = points, np.angle(values(points))
    if closed:
        p, a = np.append(p, p[0]), np.append(a, a[0])
    p1, a1, p2, a2 = p[:-1], a[:-1], p[1:], a[1:]
    total = 0.0
    for depth in range(49):
        d = np.remainder(a2 - a1 + np.pi, _TWO_PI) - np.pi
        settled = np.abs(d) <= _HALF_PI
        total += float(d[settled].sum())
        if settled.all():
            break
        if depth == 48:
            raise NonConvergence("phase step did not settle below pi/2")
        split = ~settled
        p1, a1, p2, a2 = p1[split], a1[split], p2[split], a2[split]
        pm = 0.5 * (p1 + p2)
        am = np.angle(values(pm))
        p1, a1 = np.concatenate((p1, pm)), np.concatenate((a1, am))
        p2, a2 = np.concatenate((pm, p2)), np.concatenate((am, a2))
    return float(a[0]), total


def _nearest_integer(x: float, what: str) -> int:
    """round(x), or NonConvergence if x is more than 1/4 from every integer."""
    nearest = round(x)
    if abs(x - nearest) > 0.25:
        raise NonConvergence(f"phase tracking leaked: {what} = {x}")
    return int(nearest)


def winding_count(fn: Callable[[np.ndarray], np.ndarray], rect: RectangleRegion) -> int:
    """Winding number of fn along the rectangle boundary (counterclockwise).

    For fn analytic without poles this equals the number of zeros inside.
    fn takes a 1-D complex ndarray of points and returns their values as an
    array of the same shape; it is called once with the whole initial
    boundary, SAMPLES_PER_UNIT = 64 samples per unit of side length (at least
    8 per side), and once per refinement round.  Each round bisects every
    step whose phase turns by more than pi/2 and evaluates all the midpoints
    together, for at most 48 rounds.  A result that is not numbers or whose
    shape is not its argument's, or a value that is not finite, raises
    DomainError (naming the first such point); a value below 1e-12 in
    modulus raises BoundaryZeroError naming its point, and a batch that
    would take the evaluations past MAX_BOUNDARY_SAMPLES = 500,000 raises
    NonConvergence before fn sees it (the initial boundary before it is
    built).
    """
    if _boundary_size(rect) > MAX_BOUNDARY_SAMPLES:
        raise NonConvergence(f"the initial boundary of {rect!r} exceeds the evaluation budget")
    return _nearest_integer(_track_phase(fn, _boundary_points(rect), closed=True)[1] / _TWO_PI,
                            "turns")


def _zero_count(tau: float) -> int:
    """N(tau), the zeros of zeta in 0 < Re(s) < 1, 0 < Im(s) < tau, with multiplicity.

    N(tau) = theta(tau)/pi + 1 + S(tau) (Backlund; Edwards, Riemann's Zeta
    Function (1974), 6.5-6.6) holds at every height tau that is not a zero
    ordinate.  pi S(tau) = arg zeta(1/2 + i tau), followed continuously along
    the segment from 2 + i tau, where |zeta - 1| <= pi^2/6 - 1 < 1 makes the
    principal arg the start, down to 1/2 + i tau: the segment is
    SEGMENT_STEPS = 97 steps refined as winding_count refines its boundary,
    and _track_phase returns that start arg and the change.  zeta is tracked
    rather than eta, which vanishes at 1 + 2 pi i k/log 2; as 3 does not
    divide 97, no sample falls on Re(s) = 1.  Next to the pole (tau = 1e-310)
    a midpoint rounds onto that line, where zeta is not finite: DomainError.
    """
    sigma = np.linspace(2.0, 0.5, SEGMENT_STEPS + 1)

    def zeta(s: np.ndarray) -> np.ndarray:
        with np.errstate(over="ignore", invalid="ignore"):  # _track_phase refuses inf and NaN
            return eta(s) / (1.0 - 2.0 ** (1.0 - s))

    start, change = _track_phase(zeta, sigma + 1j * tau, closed=False)
    return _nearest_integer(_theta(tau) / math.pi + 1.0 + (start + change) / math.pi, f"N({tau})")


def _modulus(v: np.ndarray) -> np.ndarray:
    """|v| elementwise, rounded as Python's abs (np.abs differs in the last bit)."""
    return np.hypot(v.real, v.imag)


def _split_heights(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A split height y strictly inside each (lo, hi) with |eta| clear of zero, and eta(1/2 + i y).

    Each interval tries mid + j * 0.093 (hi - lo), j = 0..5, the heights below
    hi, and takes the first where |eta| exceeds min(1e-3, 0.02 (hi - lo)): the
    threshold scales with the cell height so that subdivision keeps working
    arbitrarily close to a zero.  Round j is one array eta call on the
    intervals still without a height; NonConvergence names the first
    interval left without one.
    """
    mid, width = 0.5 * (lo + hi), hi - lo
    step, threshold = 0.093 * width, np.minimum(1e-3, 0.02 * width)
    heights, values = np.empty_like(lo), np.empty(lo.shape, dtype=complex)
    pending = np.ones(lo.shape, dtype=bool)
    for j in range(6):
        y = mid + j * step
        trial = np.flatnonzero(pending)
        v = eta(0.5 + 1j * y[trial])
        clear = _modulus(v) > threshold[trial]
        found = trial[clear]
        heights[found], values[found] = y[found], v[clear]
        pending[found] = False
        if not pending.any():
            return heights, values
    k = int(np.argmax(pending))
    raise NonConvergence(f"could not find a zero-free split level in [{lo[k]}, {hi[k]}]")


def _hardy_z(heights: np.ndarray, eta_values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hardy's Z(y) = e^(i theta(y)) eta(1/2 + i y)/(1 - 2^(1/2 - i y)) from eta_values,
    and whether each Z is real to working accuracy.

    Z is real for real y and has the sign of zeta(1/2) = -1.46 at y = 0.  The
    computed product keeps an imaginary part of rounding size; one not below
    a tenth of the real part (or a NaN) leaves the sign in doubt.
    """
    z = np.exp(1j * _theta(heights)) * eta_values / (1.0 - 2.0 ** (0.5 - 1j * heights))
    return z.real, np.abs(z.imag) < 0.1 * np.abs(z.real)


def _z_negative(heights: np.ndarray, eta_values: np.ndarray) -> list[bool]:
    """Whether Hardy's Z is negative at each height; NonConvergence if any sign is in doubt."""
    z, real = _hardy_z(heights, eta_values)
    if not real.all():
        raise NonConvergence(f"Z({heights[np.argmin(real)]}) is not real to working accuracy")
    return (z < 0.0).tolist()


def _z_grid(tau: float, n: int) -> tuple[list[float], list[bool]]:
    """Heights tau*k/n, k = 0..n, and whether Hardy's Z is negative at each.

    One array eta call gives the values.  A sample whose Z is in doubt is
    dropped, which merges its two neighbouring intervals; Z(0) in doubt raises.
    """
    heights = np.linspace(0.0, tau, n + 1)
    z, real = _hardy_z(heights, eta(0.5 + 1j * heights))
    if not real[0]:
        raise NonConvergence("Z(0.0) is not real to working accuracy")
    return heights[real].tolist(), (z[real] < 0.0).tolist()


def _sign_changes(negative: list[bool]) -> int:
    """Sign changes along a sequence of signs, each given as "is negative"."""
    return sum(a != b for a, b in zip(negative, negative[1:]))


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _golden_minima(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Golden-section minimisers of |eta(1/2 + i y)| over the cells [lo, hi], in lockstep.

    Each cell is searched as by a serial golden-section minimiser of a
    unimodal profile: at most 80 steps, ending once its bracket is narrower
    than 1e-12.  The first round evaluates both interior points of every
    cell, and each later round the one new point of every cell still
    running, in one array eta call.
    """
    a, b = lo.copy(), hi.copy()
    c = b - _INV_PHI * (b - a)
    d = a + _INV_PHI * (b - a)
    fc, fd = np.split(_modulus(eta(0.5 + 1j * np.concatenate((c, d)))), 2)
    running = np.arange(a.size)
    for _ in range(80):
        if not running.size:
            break
        lower = fc[running] < fd[running]
        left, right = running[lower], running[~lower]
        b[left], d[left], fd[left] = d[left], c[left], fc[left]
        c[left] = b[left] - _INV_PHI * (b[left] - a[left])
        a[right], c[right], fc[right] = c[right], d[right], fd[right]
        d[right] = a[right] + _INV_PHI * (b[right] - a[right])
        f = _modulus(eta(0.5 + 1j * np.concatenate((c[left], d[right]))))
        fc[left], fd[right] = f[:left.size], f[left.size:]
        running = running[b[running] - a[running] >= 1e-12]
    return 0.5 * (a + b)


def critical_line_zeros(tau: float, zero_tol: float = 1e-4) -> CriticalZeroList:
    """Locate all zeta zeros with 0 < Im(s) <= tau by bisection of the critical line.

    N, the number of zeros in the whole strip 0 < Re(s) < 1 below tau, comes
    from one segment count, N(tau) = theta(tau)/pi + 1 + S(tau) (see
    _zero_count).  Hardy's Z is then sampled at Z(0) and on a grid over
    (0, tau] spaced Z_GRID_GAP_FRACTION = 1/4 of the mean zero gap
    2 pi/log(tau/2 pi), never above 1.  If the grid shows C == N sign
    changes, every zero is simple, on the critical line and alone in its own
    sign-change interval; if C < N the grid is doubled, at most
    Z_GRID_DOUBLINGS = 4 times, and a C that still differs from N raises
    NonConvergence.  The line [0, tau] is then bisected level by level, at
    heights from _split_heights, eta and Z at a level's heights in one array
    call per nudge round (in practice one), by one rule: the lower interval
    holds the sign changes of Z over its bottom, the grid samples inside it
    and the split height, and the upper interval the rest of its parent's
    count.  Each interval of count 1 no taller than zero_tol and the grid
    step is polished by golden-section on |eta| along the line, giving beta
    (a taller one can hold other minima of |eta|); the polish runs every
    such interval in lockstep, one array eta call per round.  A grid sample
    whose Z is in doubt is dropped; a doubt at Z(0), a split height or a
    bracket end raises NonConvergence.

    The certificate: the brackets [beta - zero_tol, beta + zero_tol], cut to
    [0, tau], must be pairwise disjoint (MultiplicityAmbiguity naming both
    betas otherwise), and Z must change sign across each, all endpoints
    evaluated in one array eta call (MultiplicityAmbiguity naming the
    bracket otherwise).  N disjoint brackets that each hold a zero account
    for all N zeros, so a wrong sign anywhere raises instead of moving a
    zero.
    """
    (tau,) = _positive_finite("tau", tau)
    if not (zero_tol := ensure_real(zero_tol)) >= MIN_ZERO_TOL:  # also rejects NaN
        raise DomainError(f"zero_tol = {zero_tol} below the minimum cell height {MIN_ZERO_TOL:g}")
    n_zeros = _zero_count(tau)
    spacing = min(1.0, Z_GRID_GAP_FRACTION * _TWO_PI / math.log(max(tau / _TWO_PI, math.e)))
    n_grid = math.ceil(tau / spacing)
    for _ in range(Z_GRID_DOUBLINGS + 1):
        grid, negative = _z_grid(tau, n_grid)
        changes = _sign_changes(negative)
        if changes >= n_zeros:
            break
        n_grid *= 2
    if changes != n_zeros:
        raise NonConvergence(
            f"Hardy's Z changes sign {changes} times on [0, {tau}], where {n_zeros} zeros are counted"
        )

    cells: list[tuple[float, float]] = []  # the count-1 cells to polish
    cell = min(zero_tol, tau / n_grid)
    min_height = max(cell / 8.0, MIN_ZERO_TOL)
    level = [(0.0, tau, n_zeros, negative[0])]  # (lo, hi, zero count, Z(lo) < 0)
    while True:
        splits = []  # (lo, hi, zero count, Z(lo) < 0) of each interval to split
        for lo, hi, count, negative_lo in level:
            if count == 1 and hi - lo <= cell:
                cells.append((lo, hi))
            elif count > 0 and hi - lo <= min_height:
                raise MultiplicityAmbiguity(
                    f"interval [{lo}, {hi}] reports {count} zeros at minimum height")
            elif count > 0:
                splits.append((lo, hi, count, negative_lo))
        if not splits:
            break
        los, his, *_ = map(np.array, zip(*splits))
        mids, eta_mids = _split_heights(los, his)
        level = []
        for (lo, hi, count, negative_lo), mid, negative_mid in zip(
                splits, mids.tolist(), _z_negative(mids, eta_mids)):
            inner = negative[bisect.bisect_right(grid, lo):bisect.bisect_left(grid, mid)]
            count_lo = _sign_changes([negative_lo, *inner, negative_mid])
            level += [(lo, mid, count_lo, negative_lo), (mid, hi, count - count_lo, negative_mid)]

    betas = sorted(_golden_minima(*np.array(cells).reshape(-1, 2).T).tolist())
    for b1, b2 in zip(betas, betas[1:]):
        if b2 - b1 <= 2.0 * zero_tol:
            raise MultiplicityAmbiguity(
                f"brackets of half-width {zero_tol} around beta = {b1} and beta = {b2} overlap"
            )
    b = np.array(betas)
    ends = np.column_stack((np.maximum(b - zero_tol, 0.0), np.minimum(b + zero_tol, tau))).ravel()
    end_negative = _z_negative(ends, eta(0.5 + 1j * ends))
    for k, beta in enumerate(betas):
        if end_negative[2 * k] == end_negative[2 * k + 1]:
            raise MultiplicityAmbiguity(
                f"Hardy's Z does not change sign across [{ends[2 * k]}, {ends[2 * k + 1]}]"
                f" around beta = {beta}"
            )
    return CriticalZeroList(tuple(betas), tau)


def riemann_von_mangoldt(T: float) -> float:
    """Zero-count estimate (T/2pi) log(T/(2 pi e)) + 7/8 for T >= 2 pi e.

    The oscillating argument term and the O(1/T) remainder are dropped; the
    estimate is accurate to well under 1.5 at the heights used here.  From T
    of about 1.6e306 the estimate passes the float range and DomainError is
    raised.
    """
    if not _TWO_PI_E <= (T := ensure_real(T)) < math.inf:  # also rejects NaN
        raise DomainError(f"T = {T} outside [2*pi*e, inf), 2*pi*e = {_TWO_PI_E:.6f}")
    if (estimate := (T / _TWO_PI) * math.log(T / _TWO_PI_E) + 7.0 / 8.0) == math.inf:
        raise DomainError(f"the zero-count estimate at T = {T} is past the float range")
    return estimate


def jensen_check(
    fn: AnalyticFn, zeros: Sequence[complex], R: float, samples: int = 512
) -> tuple[float, float]:
    """Both sides of the disk zero-count identity for fn on |z| <= R.

    lhs = log|fn(0)| + sum log(R/|z_i|) over the provided interior zeros;
    rhs = circle average of log|fn| (trapezoid over equispaced angles, which
    converges geometrically for analytic fn with no zeros on the circle).
    |fn(0)| < 1e-12 raises ZeroAtCenter, and a zero within 1e-9 of the
    circle raises BoundaryZeroError, as does a circle sample with |fn| below
    1e-300, naming the sample.  A zeros that is not a sequence, an fn(0),
    sample or listed zero that is not a finite number, a modulus past the
    float range, and a listed zero at the centre (where log(R/|z|) is
    infinite), raise DomainError.  R must be
    positive and finite, and samples an integer from 8 to
    JENSEN_MAX_SAMPLES = 10**6, checked before fn is called.
    """
    (R,) = _positive_finite("R", R)
    if not (isinstance(samples, (int, np.integer)) and 8 <= samples <= JENSEN_MAX_SAMPLES):
        raise DomainError(f"samples must be an integer from 8 to {JENSEN_MAX_SAMPLES}")
    f0_abs = finite_abs(ensure_finite(fn(0.0 + 0.0j)))
    if f0_abs < 1e-12:
        raise ZeroAtCenter(f"|fn(0)| = {f0_abs:.3e} below 1.0e-12")
    lhs = math.log(f0_abs)
    for z in _zero_list(zeros):
        r = finite_abs(ensure_finite(z))
        if abs(r - R) < 1e-9:
            raise BoundaryZeroError(f"zero {z} lies on the circle |z| = {R}")
        if r > R:
            raise DomainError(f"zero {z} outside the disk of radius {R}")
        if r == 0.0 or R / r == math.inf:
            raise DomainError(f"zero {z} at the centre, where log(R/|z|) is infinite")
        lhs += math.log(R / r)
    acc = 0.0
    for k in range(samples):
        zk = R * cmath.exp(2j * math.pi * k / samples)
        fk_abs = finite_abs(ensure_finite(fn(zk)))
        if fk_abs < 1e-300:
            raise BoundaryZeroError(f"|fn({zk})| = {fk_abs:.3e} below 1e-300 on the circle")
        acc += math.log(fk_abs)
    return lhs, acc / samples


def _titchmarsh_args(M: float, f0_abs: float, delta: float) -> tuple[float, float, float]:
    if not 0.0 < (delta := ensure_real(delta)) < 1.0:
        raise DomainError(f"delta = {delta} outside (0,1)")
    M, f0_abs = ensure_real(M), ensure_real(f0_abs)
    if not 0.0 < f0_abs <= M < math.inf:
        raise DomainError(f"need 0 < |f(0)| <= M < inf, got |f(0)| = {f0_abs}, M = {M}")
    return M, f0_abs, delta


def titchmarsh_zero_bound(M: float, f0_abs: float, delta: float) -> float:
    """Upper bound log(M/|f(0)|) / log(1/delta) on zeros in the delta-subdisk.

    log(M/|f(0)|) is taken as log M - log|f(0)|, which stays finite where the
    quotient M/|f(0)| passes the float range.
    """
    M, f0_abs, delta = _titchmarsh_args(M, f0_abs, delta)
    return (math.log(M) - math.log(f0_abs)) / math.log(1.0 / delta)


def titchmarsh_zero_free(M: float, f0_abs: float, delta: float) -> bool:
    """True iff delta*M < |f(0)|, which forces the bound below 1 (no zeros)."""
    M, f0_abs, delta = _titchmarsh_args(M, f0_abs, delta)
    return delta * M < f0_abs


def blaschke_L(omega, zeros):
    """Product of conjugate-ratio factors (conj(omega)+i b_j)/(omega-i b_j).

    Numerator and denominator of each factor are complex conjugates (the
    heights b_j are real, and fl(b_j - y) = -fl(y - b_j)), so the product
    has modulus 1 to rounding, however close omega comes to a pole i*b_j.
    A scalar omega (a 0-d array too) gives a complex; an omega with ndim > 0
    (an ndarray, a list or a tuple) gives a complex array of its shape, each
    entry the value the scalar call gives, bit for bit.  An empty zero list
    gives ones.  An omega at a pole itself, where a factor is 0/0, raises
    PoleProximity; an omega that is not numbers or not finite, a zero list
    that is not a sequence or holds a height that is not a finite real, and
    a product that is not finite (an overflow in a factor, as at -1.7e308 -
    1.7e308i) raise DomainError.
    """
    w = ensure_complex_array(omega)
    betas = np.asarray([ensure_real(b) for b in _zero_list(zeros)], dtype=float)
    if not (np.isfinite(w).all() and np.isfinite(betas).all()):
        raise DomainError(f"blaschke_L requires finite omega and zero heights, got {omega!r}")
    den = w[..., None] - 1j * betas
    at_pole = np.nonzero(den == 0)[-1]
    if at_pole.size:
        raise PoleProximity(f"omega at the pole i*{betas[at_pole[0]]}, where a factor is 0/0")
    with np.errstate(all="ignore"):
        value = ((w.conj()[..., None] + 1j * betas) / den).prod(axis=-1)
    if not np.isfinite(value).all():
        raise DomainError(f"blaschke_L is not finite at omega = {omega!r}")
    return value if w.ndim else complex(value)


def lambda_choice(theta_abs: float, epsilon: float, nu: float) -> float:
    """Scale factor (M*(1/2) + nu) / (theta_abs * epsilon) for the boundary scan.

    Exceeds M*(1/2) / (theta_abs * r) for every boundary point with
    r = |eps + omega| >= eps, since nu > 0.  M*(1/2) is m_star_half(),
    computed once per process.  The scan's g = lam*(eps + omega) has no
    theta_abs in it, so theta_abs only rescales lam; rouche_scan (so the
    audit and the rouche command) takes theta_abs = 1, the lam whose bound
    EQ50C checks.  A lam that is not positive and finite in floats
    (nu = 1e308, or epsilon = 1e-320) raises DomainError.
    """
    theta_abs, epsilon, nu = _positive_finite("theta_abs, epsilon and nu", theta_abs, epsilon, nu)
    den = theta_abs * epsilon  # 0.0 where the product underflows
    lam = (m_star_half() + nu) / den if den else math.inf
    if not 0.0 < lam < math.inf:
        raise DomainError(f"lam = (M*(1/2) + nu)/(theta_abs*epsilon) is not positive and finite"
                          f" at theta_abs = {theta_abs}, epsilon = {epsilon}, nu = {nu}")
    return lam


def triangle_equality_condition(w, v) -> bool:
    """True iff |w| + |v| - |w + v| < 1e-9 (near-equality in the triangle bound).

    A modulus past the float range, of w, v or w + v, raises DomainError.
    """
    w = ensure_finite(w)
    v = ensure_finite(v)
    return finite_abs(w) + finite_abs(v) - finite_abs(w + v) < 1e-9


def _f_omega_estimate(omega: complex):
    """F_omega at tol 1e-10, again at 1e-13 where |value| < 50 * abs_error."""
    est = f_shifted(omega, 1e-10)
    if abs(est.value) < 50.0 * est.abs_error:
        est = f_shifted(omega, 1e-13)
    return est


def rouche_scan(tau: float, epsilon: float, nu: float) -> RoucheScanResult:
    """Sample |f| + |g| - |f+g| over the boundary of K(tau).

    K(tau) is the rectangle Re(omega) in [0, 1/2], Im(omega) in [0, tau],
    sampled as winding_count samples its rectangles (SAMPLES_PER_UNIT);
    f = F_omega * L and g = lam * (epsilon + omega), where the result's lam is
    lambda_choice(1, epsilon, nu).  L is built over the zeros the scan locates
    itself, critical_line_zeros(tau + 6*EXCLUSION_TOL) at its default
    zero_tol, that lie below the final tau: no caller can neutralize a height
    that is not a zero.  If a zero height falls within EXCLUSION_TOL = 1e-2 of
    tau, tau is shifted up by 5*EXCLUSION_TOL (repeatedly if needed) so the
    top edge stays clear.  Every sample's f is its F_omega estimate times L: a
    quadrature at tol 1e-10, repeated at 1e-13 where |value| < 50 * abs_error
    (_f_omega_estimate).  Outside EXCLUSION_TOL of every neutralized zero that
    estimate must be resolved (|value| > abs_error): one that is not raises
    BoundaryZeroError, since a zero on the contour cannot be excluded
    there.  Within it, where F_omega decays linearly toward the zero, the
    check is waived and the sample is left out of min_f_abs.  |L| = 1, so f is
    resolved wherever F_omega is.

    Two facts limit where this holds.  |F_omega| on the left edge decays like
    e^(-pi Im/2) (the gamma-modulus factor) and sinks under the quadrature's
    rounding floor near Im ~ 21, so the scan raises for tau above that.  And
    the right edge carries genuine zeros of F_omega at Im = 2 pi k / log 2
    (the alternating-series prefactor 1 - 2^(1-s) vanishes there, at
    Re(s) = 1), which no neutralizer covers; a sample close enough to one to
    be unresolved raises.  A margin below -1e-10 raises NonConvergence.

    L is one blaschke_L call over the whole boundary, made before any
    quadrature, so a sample at a neutralized zero height raises
    PoleProximity first.  Each estimate is checked as soon as it is known,
    so the first unresolved sample in boundary order is named; the minima
    report first occurrences.  A K(tau) that needs more than
    MAX_BOUNDARY_SAMPLES samples raises DomainError before the zeros are
    located, as does a lam that is not positive and finite, and a g or |g|
    that overflows at a sample raises DomainError before any quadrature.
    """
    tau, epsilon, nu = _positive_finite("tau, epsilon and nu", tau, epsilon, nu)
    lam = lambda_choice(1.0, epsilon, nu)
    n = _boundary_size(RectangleRegion(0.0, 0.5, 0.0, tau))
    if n > MAX_BOUNDARY_SAMPLES:
        raise DomainError(f"K({tau}) needs {n:.4g} samples, above {MAX_BOUNDARY_SAMPLES}")
    betas = critical_line_zeros(tau + 6.0 * EXCLUSION_TOL).betas
    while any(abs(b - tau) < EXCLUSION_TOL for b in betas):
        tau += 5.0 * EXCLUSION_TOL
    betas = [b for b in betas if b <= tau]

    samples = _boundary_points(RectangleRegion(0.0, 0.5, 0.0, tau))
    with np.errstate(over="ignore", invalid="ignore"):
        g = lam * (epsilon + samples)
        g_abs = _modulus(g)
    finite = np.isfinite(g_abs)
    if not finite.all():
        omega = complex(samples[np.argmin(finite)])
        raise DomainError(f"g = lam*(epsilon + omega) is not finite at omega = {omega}"
                          f" (lam = {lam:g}, epsilon = {epsilon:g})")
    # near a neutralized zero |f| legitimately decays linearly toward it, so
    # the resolution check is waived there
    near = (_modulus(samples[:, None] - 1j * np.asarray(betas, dtype=float))
            < EXCLUSION_TOL).any(axis=1)
    f = blaschke_L(samples, betas)  # L, multiplied by F_omega sample by sample
    for i, L in enumerate(f.tolist()):
        est = _f_omega_estimate(samples[i])
        if not near[i] and not est.resolved:
            raise BoundaryZeroError(
                f"|F_omega({complex(samples[i])})| = {abs(est.value):.3e}"
                f" within its error bound {est.abs_error:.3e}"
            )
        f[i] = est.value * L
    margin = _modulus(f) + g_abs - _modulus(f + g)
    f_abs = np.where(near, math.inf, _modulus(f))
    k, m = int(np.argmin(margin)), int(np.argmin(f_abs))  # first occurrences
    if margin[k] < -1e-10:
        raise NonConvergence(f"triangle margin {margin[k]:.3e} below -1e-10; numerical breakdown")
    return RoucheScanResult(
        tau=tau, lam=lam, epsilon=epsilon, min_margin=float(margin[k]),
        argmin_omega=complex(samples[k]), boundary_samples=samples.size,
        min_f_abs=float(f_abs[m]), argmin_f_omega=complex(samples[m]), zeros=tuple(betas),
    )
