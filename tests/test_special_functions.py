import cmath
import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import quadrature, special_functions, strip_map, zero_analysis
from zetalab.errors import DomainError, PoleError, ZetaLabError
from zetalab.special_functions import (
    ensure_finite,
    ensure_real,
    ensure_strip,
    eta,
    gamma,
    gamma_abs_product,
    zeta,
)

from oracles import ZERO_ORDINATES, eta_euler_transform, functional_equation_residual

SQRT_PI = math.sqrt(math.pi)


class TestValidation:
    def test_rejects_nan(self):
        with pytest.raises(DomainError):
            ensure_finite(complex(float("nan"), 0.0))

    def test_rejects_inf(self):
        with pytest.raises(DomainError):
            ensure_finite(complex(0.0, float("inf")))

    @pytest.mark.parametrize("re", [0.0, 1.0, -0.2, 1.3])
    def test_strip_rejects_outside(self, re):
        with pytest.raises(DomainError):
            ensure_strip(complex(re, 1.0))


class TestGamma:
    def test_half(self):
        assert abs(gamma(0.5) - SQRT_PI) < 1e-13

    def test_one(self):
        assert abs(gamma(1.0) - 1.0) < 1e-13

    def test_recurrence(self):
        # Gamma(s+1) = s Gamma(s) across the strip, both sides independent.
        for s in [0.3 + 2j, 0.5 + 14j, 0.9 + 40j, 0.1 + 0.5j]:
            lhs = gamma(s + 1.0)
            rhs = s * gamma(s)
            assert abs(lhs - rhs) / abs(rhs) < 1e-12

    def test_reflection_consistency(self):
        for s in [0.25 + 3j, 0.4 + 11j]:
            prod = gamma(s) * gamma(1.0 - s)
            assert abs(prod - math.pi / cmath.sin(math.pi * s)) / abs(prod) < 1e-12

    def test_cross_check_against_product_formula(self):
        s = 0.5 + 14j
        assert abs(abs(gamma(s)) - gamma_abs_product(0.5, 14.0, 10**6)) < 1e-8

    def test_finite_up_to_the_overflow(self):
        # every representable Lanczos value is returned, up to Re(s) = 142.5
        for x in (100.5, 130.0, 141.9, 142.5):
            assert gamma(x).real == pytest.approx(math.gamma(x), rel=1e-14)

    @pytest.mark.parametrize("n", [0, -1, -2, -7])
    def test_pole_error(self, n):
        with pytest.raises(PoleError):
            gamma(complex(n, 0.0))
        with pytest.raises(PoleError):
            gamma(complex(n, 1e-13))

    def test_near_pole_but_outside_tolerance_is_fine(self):
        assert math.isfinite(abs(gamma(-1.0 + 1e-6)))

    def test_underflow_is_domain_error(self):
        # |Gamma| is subnormal from Im ~ 451.6 at Re 1/2 and rounds to 0j
        # from Im ~ 454.9, where gamma returned 0j for a modulus of 1.0e-310
        with pytest.raises(DomainError, match="underflows"):
            gamma(0.5 + 455j)
        with pytest.raises(DomainError, match="underflows"):
            gamma(0.5 - 452j)

    def test_answers_short_of_the_underflow(self):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex(mpmath.gamma(mpmath.mpc(0.5, 440)))
        assert abs(gamma(0.5 + 440j) - ref) <= 1e-12 * abs(ref)


class TestGammaAbsProduct:
    def test_beta_zero_every_factor_one(self):
        for n in (1, 10, 1000):
            assert gamma_abs_product(0.5, 0.0, n) == pytest.approx(SQRT_PI, abs=1e-14)

    def test_agrees_with_direct_gamma(self):
        assert gamma_abs_product(0.5, 1.0, 10**6) == pytest.approx(
            abs(gamma(0.5 + 1j)), abs=1e-6
        )

    def test_strictly_positive_at_beta_ten(self):
        assert gamma_abs_product(0.5, 10.0, 10**6) > 0.0

    def test_monotone_decreasing_in_terms(self):
        vals = [gamma_abs_product(0.3, 5.0, n) for n in (10, 100, 1000, 10**4, 10**5)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_grid_convergence_to_gamma_modulus(self):
        for alpha in np.linspace(0.1, 0.9, 5):
            for beta in np.linspace(0.0, 10.0, 5):
                prod = gamma_abs_product(float(alpha), float(beta), 10**6)
                assert prod == pytest.approx(abs(gamma(complex(alpha, beta))), abs=1e-6)

    def test_one_buffer_matches_the_array_expression(self):
        # the factors are formed in place in one buffer; the value must equal,
        # bit for bit, that of a fresh array per operation
        rng = np.random.default_rng(27)
        for n in (1, 2, 17, 1000, 65_537, 10**6):
            for alpha, beta in zip(rng.uniform(1e-3, 0.999, 4), rng.uniform(-300.0, 300.0, 4)):
                alpha, beta = float(alpha), float(beta)
                k = np.arange(n, dtype=float)
                log_prod = -np.log1p(beta * beta / (k + alpha) ** 2).sum()
                want = math.gamma(alpha) * math.exp(0.5 * log_prod)
                assert gamma_abs_product(alpha, beta, n).hex() == want.hex(), (alpha, beta, n)

    def test_working_set_is_one_buffer(self):
        # a fresh array per operation peaked at 22.9 MiB
        tracemalloc.start()
        try:
            gamma_abs_product(0.5, 5.0, 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10 * 2**20

    def test_domain(self):
        with pytest.raises(DomainError):
            gamma_abs_product(1.0, 1.0, 10)
        # 10.5 summed 11 terms, NaN raised ValueError, True summed one term
        for n_terms in (0, math.nan, 10.5, True):
            with pytest.raises(DomainError, match="n_terms"):
                gamma_abs_product(0.5, 1.0, n_terms)
        for beta in (math.nan, math.inf):
            with pytest.raises(DomainError, match="beta"):
                gamma_abs_product(0.5, beta, 10)

    @pytest.mark.parametrize("n_terms", [10**20, 10**7 + 1, -10**5000],
                             ids=["1e20", "limit+1", "-1e5000"])
    def test_term_count_past_the_buffer_refused(self, n_terms):
        # 10**20 raised a bare ValueError from np.arange, 10**7 + 1 took an
        # 80 MB buffer (10**10 asks for 74.5 GiB), and the refusal of
        # -10**5000 raised ValueError writing out the int
        assert special_functions.MAX_PRODUCT_TERMS == 10**7
        tracemalloc.start()
        try:
            with pytest.raises(DomainError, match="^n_terms must be an integer from 1 to 10000000$"):
                gamma_abs_product(0.5, 1.0, n_terms)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    # a divide-by-zero warning, then a bare OverflowError from math.gamma; the
    # other two returned 0.0, an underflowed modulus shown as a value
    @pytest.mark.parametrize("alpha, beta", [(1e-320, 5.0), (1e-170, 5.0), (0.5, 1e300)])
    def test_product_outside_the_float_range(self, alpha, beta):
        with pytest.raises(DomainError, match=re.escape(f"|Gamma({alpha} + {beta}i)|")):
            gamma_abs_product(alpha, beta, 10)

    def test_complex_alpha_rejected(self):
        with pytest.raises(DomainError, match="real argument"):  # raised TypeError
            gamma_abs_product(0.5 + 0j, 1.0, 10)


class TestEta:
    def test_alternating_harmonic(self):
        assert eta(1.0) == pytest.approx(math.log(2.0), abs=1e-13)

    def test_half_against_euler_transform_oracle(self):
        oracle = eta_euler_transform(0.5, 30)
        assert abs(eta(0.5) - oracle) < 1e-8
        assert eta(0.5).real == pytest.approx(0.6048986434, abs=1e-9)

    def test_vanishes_at_first_zero(self):
        assert abs(eta(complex(0.5, 14.134725))) < 1e-6

    def test_oracle_agreement_across_strip(self):
        for s in [0.4 + 3j, 0.7 + 10j, 0.95 + 1j, 0.5 + 25j]:
            assert abs(eta(s) - eta_euler_transform(s, 60)) < 1e-7

    def test_schwarz_reflection(self):
        rng = np.random.default_rng(71)
        for _ in range(100):
            s = complex(rng.uniform(0.05, 0.95), rng.uniform(0.0, 40.0))
            assert abs(eta(s.conjugate()) - eta(s).conjugate()) < 1e-12

    def test_domain(self):
        with pytest.raises(DomainError):
            eta(0.0 + 3j)
        with pytest.raises(DomainError):
            eta(-0.5)

    # Past the double-precision limits: gamma's reflection overflows, the
    # series weights overflow (n > 402 terms), and from Re(s) ~ 171.6 Gamma
    # itself overflows; at 171.64 + 0.15i both parts are finite but the
    # modulus is not (a bare OverflowError from abs)
    @pytest.mark.parametrize("fn, s", [(gamma, 0.3 + 300j), (eta, 0.5 + 440j),
                                       (eta, 0.5 + 500j), (gamma, 171.7),
                                       (gamma, 171.64 + 0.15j)])
    def test_height_limit_is_domain_error(self, fn, s):
        with pytest.raises(DomainError):
            fn(s)

    # eta's term count once came from gamma and raised where gamma does:
    # the reflection's sin(pi s) past Im ~ 226 for Re(s) < 1/2, Gamma(s)
    # itself from Re(s) ~ 171.6, and (array route) lgamma(Re s) past 2.5e305
    @pytest.mark.parametrize("s", [0.3 + 300j, 171.64 + 0.15j, 1e300, 1e306])
    def test_answers_past_gammas_limits(self, s):
        mpmath = pytest.importorskip("mpmath")
        s = complex(s)
        with mpmath.workdps(30):
            ref = complex(mpmath.altzeta(mpmath.mpc(s.real, s.imag)))
        got = eta(s)
        assert abs(got - ref) <= 1e-12 * max(abs(ref), 1.0)
        assert got == eta(np.array([s]))[0]

    def test_answers_below_half_above_im_226(self):
        # the scalar route refused all of these; the weights overflow from
        # Im ~ 423 at Re(s) = 0.01 and ~ 428 at Re(s) = 1/2
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(2424)
        points = rng.uniform(0.05, 0.5, 64) + 1j * rng.uniform(226.0, 420.0, 64)
        with mpmath.workdps(30):
            for s in points.tolist():
                ref = complex(mpmath.altzeta(mpmath.mpc(s.real, s.imag)))
                assert abs(eta(s) - ref) <= 1e-12 * max(abs(ref), 1.0), s

    # from |Im(s)| ~ 1.1e308 the term count's t * arg z overflows
    @pytest.mark.parametrize("s", [0.5 + 1.7e308j, 0.5 - 1.7e308j, 1e308 + 1.7e308j])
    def test_height_past_the_term_count_is_domain_error(self, s):
        with pytest.raises(DomainError, match="no term count"):
            eta(s)

    # where the Lanczos power t**(z + 1/2) alone overflows, Re(s) 142.6-171.6
    # and, through the reflection, below -141.6
    @pytest.mark.parametrize("fn, s", [(gamma, 142.6), (gamma, 143.0), (gamma, 150.0),
                                       (gamma, 160.0), (gamma, 171.5), (gamma, -141.7),
                                       (gamma, -150.5), (gamma, -160.3), (gamma, 150 + 20j),
                                       (eta, 142.6), (eta, 143.0)])
    def test_past_the_lanczos_power_overflow(self, fn, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex((mpmath.gamma if fn is gamma else mpmath.altzeta)(s))
        assert abs(fn(s) - ref) <= 1e-12 * abs(ref)

    # eta is entire; the scalar term count once read Gamma(s) and raised
    # "gamma pole at 0" within 1e-12 of s = 0
    @pytest.mark.parametrize("s", [1e-13, 1e-320, 5e-324, 1e-13 + 5e-13j, 1e-13 - 5e-13j,
                                   1e-300 + 5e-13j])
    def test_inside_gammas_pole_radius_of_zero(self, s):
        mpmath = pytest.importorskip("mpmath")
        with mpmath.workdps(30):
            ref = complex(mpmath.altzeta(mpmath.mpc(s.real, s.imag)))
        got = eta(s)
        assert abs(got - ref) <= 1e-12 * max(abs(ref), 1.0)
        assert got == eta(np.array([complex(s)]))[0]

    def test_no_gamma_call(self, monkeypatch):
        def refuse(s):
            raise AssertionError(f"gamma({s!r}) called")

        monkeypatch.setattr(special_functions, "gamma", refuse)
        eta(0.5 + 77.3j)
        eta(np.array([0.5 + 77.3j, 0.3 + 300j]))

    def test_scalar_route_equals_one_point_batch(self):
        rng = np.random.default_rng(5000)
        s = rng.uniform(0.01, 5.0, 1000) + 1j * rng.uniform(0.0, 220.0, 1000)
        for z in s.tolist():
            assert eta(z) == eta(np.array([z]))[0]


class TestEtaArray:
    @staticmethod
    def _points():
        rng = np.random.default_rng(20001)
        return rng.uniform(0.05, 0.95, 300) + 1j * rng.uniform(0.0, 220.0, 300)

    def test_against_mpmath(self):
        mpmath = pytest.importorskip("mpmath")
        s = self._points()
        got = eta(s)
        with mpmath.workdps(30):
            ref = np.array([complex(mpmath.altzeta(mpmath.mpc(z.real, z.imag))) for z in s])
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(np.abs(ref), 1.0))

    @pytest.mark.parametrize("shape", [(1,), (2,), (29,), (700,), (3, 4)],
                             ids=lambda shape: "x".join(map(str, shape)))
    def test_every_point_equals_the_scalar_route(self, shape):
        # Re in (0.05, 1] with |Im| <= 420, and the critical line up to Im
        # 427.5 (the count passes 402 terms from Im 427.8 there), half each
        rng = np.random.default_rng(2500 + math.prod(shape))
        size = math.prod(shape)
        strip = 1.0 - rng.uniform(0.0, 0.95, size) + 1j * rng.uniform(-420.0, 420.0, size)
        line = 0.5 + 1j * rng.uniform(0.0, 427.5, size)
        s = np.where(np.arange(size) % 2 == 0, strip, line).reshape(shape)
        got = eta(s)
        assert got.shape == shape
        for z, value in zip(s.ravel().tolist(), got.ravel()):
            assert value.tobytes() == np.complex128(eta(z)).tobytes()

    def test_term_counts_match_scalar_route(self):
        s = self._points()
        scalar = [special_functions._eta_terms(complex(z)) for z in s]
        assert special_functions._eta_array_terms(s).tolist() == scalar

    @pytest.mark.parametrize("shape", [(0,), (1,), (7,), (3, 4), ()])
    def test_shape_preserved(self, shape):
        s = np.full(shape, 0.5 + 14.0j)
        out = eta(s)
        assert isinstance(out, np.ndarray) and out.shape == shape
        assert out.dtype == complex

    # non-finite, Re <= 0, and heights where no term count exists
    @pytest.mark.parametrize("bad", [math.nan, complex(0.5, math.inf), math.inf, 0.0, -0.3 + 2.0j,
                                     0.5 + 500.0j, 0.5 + 1e300j])
    def test_invalid_entry_is_domain_error(self, bad):
        s = np.array([0.5 + 3.0j, bad, 0.7 + 1.0j], dtype=complex)
        with pytest.raises(DomainError):
            eta(s)

    # the log Gamma of the term count overflowed outside its np.errstate
    # block, so NumPy warned "overflow/invalid value encountered in multiply"
    # before the DomainError
    @pytest.mark.parametrize("bad", [0.5 + 1e308j, 0.5 - 1e308j, 0.5 + 1.7e308j, 0.5 + 1e39j])
    def test_height_past_the_term_count_raises_without_warning(self, bad):
        import warnings

        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DomainError, match="no term count"):
                eta(np.array([bad]))

    def test_scalar_route_unchanged_for_scalars(self):
        assert isinstance(eta(np.complex128(0.5 + 14.0j)), complex)
        assert isinstance(eta(0.5 + 14.0j), complex)


class TestTermCounts:
    """The term counts keep the bits of the rule they replaced, which read
    |Gamma(s)| from a Lanczos gamma call, Gamma(1+s)/s within 1e-12 of
    s = 0, and Gamma(sigma) from math.lgamma."""

    @staticmethod
    def _lanczos_rule(s: complex) -> int:
        if math.hypot(s.real, s.imag) < 1e-12:
            log_gamma_abs = math.log(abs(gamma(1.0 + s))) - math.log(abs(s))
        else:
            log_gamma_abs = math.log(abs(gamma(s)))
        need = ((math.lgamma(s.real) - log_gamma_abs + math.log(1.0 / 1e-13))
                / math.log(3.0 + math.sqrt(8.0)))
        return max(12, math.ceil(need) + 4)

    def _assert_rule_kept(self, points):
        points = np.asarray(points, dtype=complex)
        want = np.array([self._lanczos_rule(s) for s in points.tolist()])
        served = want <= 402  # the weights overflow past 402 terms
        want_served = want[served].tolist()
        assert [special_functions._eta_terms(s) for s in points[served].tolist()] == want_served
        assert special_functions._eta_array_terms(points[served]).tolist() == want_served
        for s in points[~served].tolist():
            with pytest.raises(DomainError, match="no term count"):
                special_functions._eta_terms(s)

    def test_seeded_points(self):
        rng = np.random.default_rng(2400)
        strip = 1.0 - rng.uniform(0.0, 0.95, 100_000) + 1j * rng.uniform(-226.0, 226.0, 100_000)
        line = 0.5 + 1j * rng.uniform(0.0, 428.0, 20_000)
        self._assert_rule_kept(np.concatenate([strip, line]))

    def test_every_point_of_the_zero_search(self, monkeypatch):
        seen = []

        def recorded_eta(s):
            seen.extend(np.ravel(s).tolist())
            return eta(s)

        monkeypatch.setattr(zero_analysis, "eta", recorded_eta)
        assert len(zero_analysis.critical_line_zeros(100.0, 1e-4)) == 29
        assert len(seen) > 1_900
        self._assert_rule_kept(seen)


class TestZeta:
    def test_half(self):
        # eta(1/2)/(1 - sqrt 2), components from the Euler-transform oracle
        oracle = eta_euler_transform(0.5, 40).real / (1.0 - math.sqrt(2.0))
        assert zeta(0.5).real == pytest.approx(oracle, abs=1e-8)
        assert zeta(0.5).real == pytest.approx(-1.4603545088, abs=1e-9)

    def test_shared_zero_with_eta(self):
        assert abs(zeta(complex(0.5, 14.134725))) < 1e-5

    def test_real_on_real_axis(self):
        assert abs(zeta(0.75).imag) < 1e-12

    def test_strip_only(self):
        with pytest.raises(DomainError):
            zeta(1.5)
        with pytest.raises(DomainError):
            zeta(complex(1.0, 2.0))

    def test_pole_error_where_the_factor_rounds_to_zero(self):
        # 1 - 2^(1-s) is 0 in floats at 1 - 2^-53: a bare ZeroDivisionError
        with pytest.raises(PoleError, match="pole at 1"):
            zeta(1.0 - 2.0**-53)
        assert math.isfinite(abs(zeta(1.0 - 2.0**-52)))


class TestFunctionalEquation:
    def test_symmetric_point(self):
        assert functional_equation_residual(0.5) < 1e-10

    def test_upper_point(self):
        assert functional_equation_residual(0.7 + 3j) < 1e-8

    def test_lower_half_strip(self):
        assert functional_equation_residual(0.3 + 20j) < 1e-7

    def test_grid(self):
        for a in np.linspace(0.2, 0.8, 7):
            for b in np.linspace(0.0, 30.0, 7):
                assert functional_equation_residual(complex(a, b)) < 1e-7


class TestZeroEquivalence:
    """zeta and F = gamma*eta share zeros: indicators agree everywhere."""

    def test_at_known_zeros(self):
        for beta in ZERO_ORDINATES:
            s = complex(0.5, beta)
            assert abs(zeta(s)) < 1e-10
            scale = abs(gamma(s) * (1.0 - 2.0 ** (1.0 - s)))
            assert abs(gamma(s) * eta(s)) < 1e-10 * scale * 2.0

    def test_at_random_nonzeros(self):
        rng = np.random.default_rng(13)
        for _ in range(10**4):
            s = complex(rng.uniform(0.1, 0.9), rng.uniform(0.0, 30.0))
            scale = abs(gamma(s) * (1.0 - 2.0 ** (1.0 - s)))
            zeta_small = abs(zeta(s)) < 1e-10
            f_small = abs(gamma(s) * eta(s)) < 1e-10 * scale
            assert zeta_small == f_small == False  # noqa: E712


@settings(max_examples=200, deadline=None)
@given(
    re=st.floats(0.05, 0.95),
    im=st.floats(-40.0, 40.0),
)
def test_eta_conjugation_property(re, im):
    s = complex(re, im)
    assert abs(eta(s.conjugate()) - eta(s).conjugate()) < 1e-12


# every finite s gets a value or a ZetaLabError: the Lanczos power and the
# reflection's sin(pi s) once ended in a bare ZeroDivisionError or ValueError
# far from the strip
_SWEEP_PARTS = sorted({sign * m for m in (0.0, 1e-320, 1e-300, 1e-200, 1e-100, 1e-13, 1e-12,
                                          0.1, 1.0 - 2.0**-53, 1.0, 10.0, 100.0, 455.0, 1e3,
                                          1e10, 1e100, 1e200, 1e300, 1e307, 1e308, 1.7e308)
                        for sign in (1, -1)})


# and two for eta's term count: cmath.phase(8.5 - 5e-324j) raises
# OverflowError on its underflow, and t / Re(s) overflows at 5e-324 + 1e-13i
_SWEEP_POINTS = [complex(re, im) for re in _SWEEP_PARTS for im in _SWEEP_PARTS] + [
    0.5 - 5e-324j, 5e-324 + 1e-13j]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("fn", [gamma, eta, lambda s: eta(np.array([s])), zeta],
                         ids=["gamma", "eta", "eta_array", "zeta"])
def test_no_bare_exception_at_any_finite_point(fn):
    for s in _SWEEP_POINTS:
        try:
            fn(s)
        except ZetaLabError:
            pass


# every other public point function, at the same points and with a
# RuntimeWarning an error: the maps and jensen_check took Python's abs, which
# raises OverflowError past the float range; phi_inverse's exp overflowed;
# gamma_abs_product and blaschke_L returned 0.0 or NaN with warnings; m_bound,
# riemann_von_mangoldt and titchmarsh_zero_bound returned inf, and the winding
# count's phase step overflowed next to the float limit
_POINT_FUNCTIONS = {
    "theta": lambda s: strip_map.theta(s, 0.5),
    "theta_inverse": lambda s: strip_map.theta_inverse(s, 0.5),
    "phi": lambda s: strip_map.phi(s, 0.5),
    "phi_inverse": lambda s: strip_map.phi_inverse(s, 0.5),
    "disk_modulus_H": lambda s: strip_map.disk_modulus_H(s, 0.5),
    "blaschke_L": lambda s: zero_analysis.blaschke_L(s, [14.13, 21.02]),
    "blaschke_L_array": lambda s: zero_analysis.blaschke_L(np.array([s]), [14.13, 21.02])[0],
    "triangle_equality_condition": lambda s: zero_analysis.triangle_equality_condition(s, s),
    "gamma_abs_product": lambda s: gamma_abs_product(s.real, s.imag, 10),
    "lambda_choice": lambda s: zero_analysis.lambda_choice(1.0, s.real, s.imag),
    "jensen_check": lambda s: zero_analysis.jensen_check(lambda z: z - 0.5, [s], 1.0, 8),
    "omega0": lambda s: strip_map.omega0(s.real),
    "omega0_prime": lambda s: strip_map.omega0_prime(s.real),
    "m_bound": lambda s: quadrature.m_bound(s.real),
    "riemann_von_mangoldt": lambda s: zero_analysis.riemann_von_mangoldt(s.real),
    "titchmarsh_zero_bound": lambda s: zero_analysis.titchmarsh_zero_bound(
        abs(s.real) + abs(s.imag), abs(s.imag), 0.5),
    "titchmarsh_zero_free": lambda s: zero_analysis.titchmarsh_zero_free(
        abs(s.real) + abs(s.imag), abs(s.imag), 0.5),
    "winding_count": lambda s: zero_analysis.winding_count(
        lambda q: q - s, zero_analysis.RectangleRegion(-1.0, 1.0, -1.0, 1.0)),
}
# these return a number that must then be finite
_FINITE_RESULT = {"blaschke_L", "blaschke_L_array", "gamma_abs_product", "lambda_choice",
                  "omega0", "omega0_prime", "m_bound", "riemann_von_mangoldt",
                  "titchmarsh_zero_bound"}


@pytest.mark.filterwarnings("error::RuntimeWarning")
@pytest.mark.parametrize("name", list(_POINT_FUNCTIONS))
def test_every_point_function_answers_or_refuses(name):
    for s in _SWEEP_POINTS:
        try:
            value = _POINT_FUNCTIONS[name](s)
        except ZetaLabError:
            continue
        if name in _FINITE_RESULT:
            assert cmath.isfinite(value), (s, value)


# a Python int past the float range: float() and complex() raised a bare
# OverflowError ("int too large to convert to float") in each of these
_PAST_FLOAT_RANGE = {
    "m_bound": quadrature.m_bound,
    "theta": lambda x: strip_map.theta(0.1, x),
    "omega0": strip_map.omega0,
    "eta": eta,
    "zeta": zeta,
    "gamma": gamma,
    "fermi_mellin_tol": lambda x: quadrature.fermi_mellin(0.5, x),
    "critical_line_zeros": zero_analysis.critical_line_zeros,
    "RectangleRegion": lambda x: zero_analysis.RectangleRegion(-1.0, 1.0, -1.0, x),
    "lambda_choice": lambda x: zero_analysis.lambda_choice(1.0, 0.1, x),
}


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call, x", [
    *[pytest.param(_PAST_FLOAT_RANGE[name], sign * 10**400, id=f"{name}[{sign:+}e400]")
      for name in _PAST_FLOAT_RANGE for sign in (1, -1)],
    # str() of an int over 4,300 digits raises ValueError, so the refusal
    # must not print the number
    pytest.param(ensure_real, 10**5000, id="ensure_real[5000 digits]"),
])
def test_int_past_the_float_range_refused(call, x):
    with pytest.raises(DomainError, match="int argument past the float range"):
        call(x)


_RECT = zero_analysis.RectangleRegion(0.1, 0.9, 1.0, 2.0)


# each input that is not a number ended in a bare TypeError, ValueError or
# OverflowError, or got an answer because complex() parses strings, while
# ensure_real refused the same string
@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("call", [
    pytest.param(lambda: eta(None), id="eta(None)"),
    pytest.param(lambda: gamma([0.5]), id="gamma([0.5])"),
    pytest.param(lambda: quadrature.fermi_mellin(np.array([0.5, 0.6])), id="fermi_mellin(array)"),
    pytest.param(lambda: strip_map.theta(None, 0.5), id="theta(None)"),
    pytest.param(lambda: zero_analysis.triangle_equality_condition(None, 1.0), id="triangle(None)"),
    pytest.param(lambda: zero_analysis.jensen_check(lambda z: None, [], 1.0, 8), id="jensen(fn None)"),
    pytest.param(lambda: eta("0.5"), id="eta(str)"),
    pytest.param(lambda: gamma("0.5"), id="gamma(str)"),
    pytest.param(lambda: eta(np.array(["0.5"])), id="eta(str array)"),
    pytest.param(lambda: zero_analysis.blaschke_L("0.1", [1.0]), id="blaschke_L(str)"),
    pytest.param(lambda: eta(np.array([10**400], dtype=object)), id="eta(object int array)"),
    pytest.param(lambda: zero_analysis.blaschke_L(10**400, [1.0]), id="blaschke_L(1e400)"),
    pytest.param(lambda: quadrature.m_star_derivative(0.5, np.array([1, 2])), id="m_star_derivative(order array)"),
    pytest.param(lambda: zero_analysis.winding_count(lambda p: "x", _RECT), id="winding_count(fn str)"),
    pytest.param(lambda: zero_analysis.jensen_check(lambda z: "x", [], 1.0, 8), id="jensen(fn str)"),
])
def test_non_number_refused(call):
    with pytest.raises(DomainError):
        call()
