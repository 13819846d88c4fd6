"""Conformal transport between the unit disk and the shifted half strip.

``theta(z, b) = (z - bi)/(1 + z b i)`` is a Moebius self-map of the open unit
disk for 0 < b < 1.  Composing it with the Cayley-type log map gives

    phi(z, b) = 1/4 - (i / 2 pi) Log[(1 + theta)/(1 - theta)]

whose real part lands in (0, 1/2): the quotient (1+theta)/(1-theta) has
positive real part whenever |theta| < 1, so the principal Arg stays inside
(-pi/2, pi/2) and the principal branch is continuous on the whole domain.

phi_inverse solves the log map for theta via psi = exp(2 pi i (omega - 1/4)),
theta = (psi - 1)/(psi + 1), then undoes the Moebius factor.  disk_modulus_H
is the closed form for |theta_inverse(t, b)| used by the boundary analysis.
The disk centre lands on omega0(b) = phi(0, b) = 1/4 - arctan(b)/pi, where
the composed integral is G(b) = M*(omega0(b) + 1/2).
"""

from __future__ import annotations

import cmath
import math

from .errors import DomainError
from .quadrature import f_shifted, m_star
from .special_functions import ensure_finite, ensure_real, finite_abs

__all__ = [
    "ensure_disk",
    "ensure_map_param",
    "theta",
    "theta_inverse",
    "phi",
    "phi_inverse",
    "disk_modulus_H",
    "f_on_disk",
    "omega0",
    "omega0_prime",
    "g_of_b",
]

_TWO_PI = 2.0 * math.pi


def ensure_disk(z) -> complex:
    """Validate |z| < 1 (open unit disk)."""
    z = ensure_finite(z)
    if (r := finite_abs(z)) >= 1.0:
        raise DomainError(f"|z| = {r} not inside the open unit disk")
    return z


def ensure_map_param(b: float) -> float:
    """Validate the map parameter 0 < b < 1."""
    b = ensure_real(b)
    if not 0.0 < b < 1.0:
        raise DomainError(f"map parameter b = {b} outside (0, 1)")
    return b


def theta(z, b: float) -> complex:
    """Disk self-map (z - bi)/(1 + z b i); |theta| < 1 whenever |z| < 1."""
    z = ensure_disk(z)
    b = ensure_map_param(b)
    return (z - b * 1j) / (1.0 + z * b * 1j)


def theta_inverse(t, b: float) -> complex:
    """Algebraic inverse of theta: (t + bi)/(1 - t b i)."""
    t = ensure_disk(t)
    b = ensure_map_param(b)
    return (t + b * 1j) / (1.0 - t * b * 1j)


def phi(z, b: float) -> complex:
    """Map the open disk into the half strip Re(omega) in (0, 1/2)."""
    t = theta(z, b)
    w = cmath.log((1.0 + t) / (1.0 - t))
    return complex(0.25 + w.imag / _TWO_PI, -w.real / _TWO_PI)


def phi_inverse(omega, b: float) -> complex:
    """Inverse map for Re(omega) in (0, 1/2) strict; boundary points rejected.

    psi = exp(2 pi i (omega - 1/4)) keeps Re(psi) > 0 on the open strip, so
    theta = (psi - 1)/(psi + 1) is well-defined with |theta| < 1.  In floats
    |theta| rounds to 1 from |Im(omega)| of about 5.5, and psi overflows below
    Im(omega) of about -113: both raise DomainError naming omega.
    """
    omega = ensure_finite(omega)
    if not 0.0 < omega.real < 0.5:
        raise DomainError(
            f"Re(omega) = {omega.real} outside the open interval (0, 1/2)"
        )
    try:
        psi = cmath.exp(_TWO_PI * 1j * (omega - 0.25))
        t = (psi - 1.0) / (psi + 1.0)
    except OverflowError:  # psi past the float range, where theta tends to 1
        t = 1.0
    if abs(t) >= 1.0:
        raise DomainError(f"omega = {omega} is too far from the real axis:"
                          " theta rounds onto the unit circle")
    return theta_inverse(t, b)


def disk_modulus_H(t, b: float) -> float:
    """|theta_inverse(t, b)| in closed form.

    H(t; b) = sqrt[(b^2 + |t|^2 + 2 b Im t) / (1 + b^2 |t|^2 + 2 b Im t)],
    always < 1 on the open disk.  Numerator and denominator are grouped as
    sums of squares (Re t)^2 + (b + Im t)^2 and (b Re t)^2 + (1 + b Im t)^2,
    which are the same polynomials without the boundary-adjacent cancellation.
    """
    t = ensure_disk(t)
    b = ensure_map_param(b)
    num = t.real * t.real + (b + t.imag) ** 2
    den = (b * t.real) ** 2 + (1.0 + b * t.imag) ** 2
    return math.sqrt(num / den)


def f_on_disk(z, b: float, tol: float = 1e-8) -> complex:
    """The shifted integral composed with the map: F_omega(phi(z, b))."""
    return complex(f_shifted(phi(z, b), tol).value)


def omega0(b: float) -> float:
    """Real strip coordinate of the disk centre, phi(0, b): 1/4 - arctan(b)/pi.

    Equals 1/4 + Arg[(1-bi)/(1+bi)]/(2 pi); the arctangent closed form is
    used because Arg[(1-bi)/(1+bi)] = -2 arctan(b) for b in (0, 1).
    """
    return 0.25 - math.atan(ensure_map_param(b)) / math.pi


def omega0_prime(b: float) -> float:
    """Elementary derivative of omega0: -1/(pi (1 + b^2))."""
    b = ensure_map_param(b)
    return -1.0 / (math.pi * (1.0 + b * b))


def g_of_b(b: float, tol: float = 1e-8) -> float:
    """G(b) = M*(omega0(b) + 1/2), strictly increasing on (0, 1) toward M*(1/2) as
    b -> 1, because omega0 decreases to 0 and M* is strictly decreasing."""
    return m_star(omega0(b) + 0.5, tol)
