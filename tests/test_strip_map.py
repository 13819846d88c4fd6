import cmath
import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab.errors import DomainError
from zetalab.quadrature import m_star
from zetalab.strip_map import (
    disk_modulus_H,
    f_on_disk,
    g_of_b,
    omega0,
    phi,
    phi_inverse,
    theta,
    theta_inverse,
)

disk_points = st.builds(
    complex, st.floats(-0.999, 0.999), st.floats(-0.999, 0.999)
).filter(lambda z: abs(z) < 0.999)
params = st.floats(0.001, 0.999)


class TestTheta:
    def test_zero_of_numerator(self):
        assert abs(theta(0.5j, 0.5)) < 1e-15

    def test_at_origin(self):
        assert theta(0j, 0.5) == pytest.approx(-0.5j, abs=1e-15)

    def test_self_map(self):
        assert abs(theta(0.3 + 0.4j, 0.9)) < 1.0

    @settings(max_examples=300, deadline=None)
    @given(z=disk_points, b=params)
    def test_self_map_property(self, z, b):
        assert abs(theta(z, b)) < 1.0

    def test_domain(self):
        with pytest.raises(DomainError):
            theta(1.0 + 0j, 0.5)
        with pytest.raises(DomainError):
            theta(0.2j, 1.0)

    def test_complex_parameter_rejected(self):
        with pytest.raises(DomainError, match="real argument"):  # raised TypeError
            theta(0.1, 0.5 + 0j)


class TestThetaInverse:
    def test_zero_maps_to_bi(self):
        assert theta_inverse(0j, 0.7) == pytest.approx(0.7j, abs=1e-15)

    def test_known_pair(self):
        assert abs(theta_inverse(-0.5j, 0.5)) < 1e-15

    @settings(max_examples=300, deadline=None)
    @given(z=disk_points, b=params)
    def test_round_trip(self, z, b):
        assert abs(theta_inverse(theta(z, b), b) - z) < 1e-12


class TestPhi:
    def test_center_closed_form(self):
        for b in np.linspace(0.05, 0.95, 19):
            w = phi(0j, float(b))
            assert w.real == pytest.approx(omega0(float(b)), abs=1e-15)
            assert abs(w.imag) < 1e-15

    def test_center_limit_b_to_one(self):
        w = phi(0j, 1.0 - 1e-6)
        assert abs(w.real) < 1e-6

    def test_center_limit_b_to_zero(self):
        w = phi(0j, 1e-9)
        assert w.real == pytest.approx(0.25, abs=1e-9)
        assert abs(w.imag) < 1e-12

    def test_range(self):
        rng = np.random.default_rng(41)
        count = 0
        while count < 10**4:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(z) >= 1.0:
                continue
            count += 1
            w = phi(z, float(rng.uniform(0.001, 0.999)))
            assert 0.0 < w.real < 0.5

    def test_argument_range(self):
        rng = np.random.default_rng(43)
        for _ in range(2000):
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(z) >= 1.0:
                continue
            t = theta(z, float(rng.uniform(0.001, 0.999)))
            assert abs(cmath.phase((1.0 + t) / (1.0 - t))) < math.pi / 2.0


class TestPhiInverse:
    @settings(max_examples=200, deadline=None)
    @given(z=disk_points, b=params)
    def test_round_trip_from_disk(self, z, b):
        assert abs(phi_inverse(phi(z, b), b) - z) < 1e-10

    def test_round_trip_from_strip(self):
        rng = np.random.default_rng(47)
        for _ in range(500):
            w = complex(rng.uniform(1e-3, 0.5 - 1e-3), rng.uniform(-2.0, 2.0))
            b = float(rng.uniform(0.01, 0.99))
            assert abs(phi(phi_inverse(w, b), b) - w) < 1e-10

    def test_center_inverse(self):
        b = 1e-6
        z = phi_inverse(0.25 + 0j, b)
        assert abs(z) < 1e-5

    def test_boundary_approach(self):
        for re in (1e-3, 1e-5, 1e-7):
            z = phi_inverse(complex(re, 0.3), 0.5)
            assert abs(z) < 1.0
        assert abs(phi_inverse(complex(1e-7, 0.3), 0.5)) > abs(
            phi_inverse(complex(1e-3, 0.3), 0.5)
        )

    def test_boundary_rejected(self):
        with pytest.raises(DomainError):
            phi_inverse(0.0 + 1j, 0.5)
        with pytest.raises(DomainError):
            phi_inverse(0.5 + 1j, 0.5)

    # exp overflowed to a bare OverflowError below Im -113; above Im 6 the
    # error named |theta| = 1.0, which the caller never passed
    @pytest.mark.parametrize("omega", [0.25 - 120j, 0.25 - 7j, 0.25 + 7j, 0.25 + 400j])
    def test_far_from_the_real_axis_names_omega(self, omega):
        with pytest.raises(DomainError, match=re.escape(f"omega = {omega}")):
            phi_inverse(omega, 0.5)


class TestDiskModulus:
    def test_at_zero(self):
        assert disk_modulus_H(0j, 0.7) == pytest.approx(0.7, abs=1e-15)

    @settings(max_examples=300, deadline=None)
    @given(t=disk_points, b=params)
    def test_matches_direct_modulus(self, t, b):
        assert abs(disk_modulus_H(t, b) - abs(theta_inverse(t, b))) < 1e-12

    @settings(max_examples=300, deadline=None)
    @given(t=disk_points, b=params)
    def test_stays_inside_disk(self, t, b):
        assert disk_modulus_H(t, b) < 1.0


class TestFOnDisk:
    def test_center_limit(self):
        v = f_on_disk(0j, 1.0 - 1e-6, 1e-9)
        assert abs(v - m_star(0.5, 1e-9)) < 1e-4

    def test_center_mid_b(self):
        v = f_on_disk(0j, 0.5, 1e-9)
        assert v.real == pytest.approx(m_star(omega0(0.5) + 0.5, 1e-9), abs=1e-8)
        assert abs(v.imag) < 1e-9

    def test_bounded_by_m_star_half(self):
        rng = np.random.default_rng(53)
        cap = m_star(0.5, 1e-9) + 1e-3
        count = 0
        while count < 200:
            z = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(z) >= 0.999:
                continue
            count += 1
            assert abs(f_on_disk(z, float(rng.uniform(0.01, 0.99)), 1e-7)) <= cap


class TestGaugeExistence:
    """For each delta < 1 a b(delta) with delta * M*(1/2) < G(b) exists."""

    @pytest.mark.parametrize("delta", [0.5, 0.9, 0.99])
    def test_bisection_finds_b(self, delta):
        cap = m_star(0.5, 1e-9)
        b = None
        for k in range(1, 40):
            cand = 1.0 - 2.0 ** (-k)
            if g_of_b(cand, 1e-9) > delta * cap:
                b = cand
                break
        assert b is not None and 0.0 < b < 1.0
