import ast
import inspect
import math
import random
import textwrap
import tracemalloc

import numpy as np
import pytest

from zetalab import quadrature
from zetalab.errors import DomainError, ToleranceNotMet
from zetalab.quadrature import (
    f_shifted,
    fermi_mellin,
    m_bound,
    m_star,
    m_star_derivative,
)
from zetalab.special_functions import eta, gamma
from zetalab.strip_map import g_of_b, omega0, omega0_prime

from oracles import central_difference

M_STAR_HALF_PRINTED = 1.07215
M_STAR_ONE = math.log(2.0)
M_HALF_PRINTED = 1.36788


class TestFermiMellin:
    def test_at_half(self):
        est = fermi_mellin(0.5, 1e-8)
        assert est.value.real == pytest.approx(M_STAR_HALF_PRINTED, abs=1e-4)
        assert abs(est.value.imag) < 1e-12

    def test_at_one_boundary_permitted(self):
        est = fermi_mellin(1.0, 1e-12)
        assert est.value.real == pytest.approx(M_STAR_ONE, abs=1e-10)

    def test_product_route_oracle(self):
        s = 0.75 + 5j
        est = fermi_mellin(s, 1e-9)
        assert abs(est.value - gamma(s) * eta(s)) < 1e-8

    def test_product_route_across_strip(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            s = complex(rng.uniform(0.15, 0.95), rng.uniform(0.0, 30.0))
            est = fermi_mellin(s, 1e-9)
            assert abs(est.value - gamma(s) * eta(s)) < 1e-8

    def test_error_estimate_is_upper_bound_statistically(self):
        # Tightening the tolerance moves the value by less than 2x the
        # reported error of the looser run.
        rng = np.random.default_rng(17)
        for _ in range(20):
            s = complex(rng.uniform(0.2, 0.95), rng.uniform(0.0, 20.0))
            loose = fermi_mellin(s, 1e-6)
            tight = fermi_mellin(s, 1e-10)
            assert abs(loose.value - tight.value) < 2.0 * loose.abs_error + 1e-12

    def test_counts_evaluations(self):
        est = fermi_mellin(0.5, 1e-8)
        assert est.n_evals > 0 and est.n_evals % 15 == 0

    def test_count_is_the_points_seen(self, monkeypatch):
        # n_evals is formed in _integrate alone: it equals the points the
        # integrand saw, and a refused call showed it at most EVAL_BUDGET
        calls = _counting_integrate(monkeypatch)
        for s, tol in [(0.5, 1e-8), (0.3 + 20j, 1e-10), (0.05 + 95j, 1e-8), (1.0, 1e-13)]:
            est = fermi_mellin(s, tol)
            assert calls[-1] == [est.n_evals, est.n_evals]
        for alpha, k, tol in [(0.6, 1, 1e-8), (0.6, 2, 1e-12), (0.1, 1, 1e-6)]:
            m_star_derivative(alpha, k, tol)
            seen, n_evals = calls[-1]
            assert seen == n_evals > 0
        with pytest.raises(ToleranceNotMet, match="^quadrature budget 1000000 exhausted"):
            fermi_mellin(0.05 + 100j, 1e-13)
        seen, n_evals = calls[-1]
        assert 0 < seen <= quadrature.EVAL_BUDGET and n_evals is None

    def test_mesh_matches_sequential_loop(self):
        # the panel mesh is built with np.multiply.accumulate; it must equal,
        # bit for bit, the plain loop that multiplies by the ratio one step at
        # a time
        def loop_mesh(h, x_max, beta):
            ratio = min(4.0, math.exp(3.0 / max(1.0, abs(beta))))
            pts = [h]
            while pts[-1] < 1.0:
                pts.append(min(1.0, pts[-1] * ratio))
            while pts[-1] < x_max:
                pts.append(min(x_max, pts[-1] * ratio))
            return np.array(pts)

        rng = random.Random(20201219)
        cases = [(0.25, 40.0, 0.0), (0.999, 1.001, 0.0), (1e-300, 1e3, 2.5e3)]
        for _ in range(300):
            alpha, k = rng.uniform(0.02, 1.0), rng.choice((0, 1, 2))
            tol = 10.0 ** rng.uniform(-13.0, -4.0)
            h, _ = quadrature._head_cut(alpha, k, tol)
            x_max, _ = quadrature._tail_cut(k, tol)
            cases.append((h, x_max, rng.choice((0.0, rng.uniform(-120.0, 120.0)))))
        for h, x_max, beta in cases:
            mesh = quadrature._mesh(h, x_max, beta)
            ref = loop_mesh(h, x_max, beta)
            assert mesh.shape == ref.shape and np.array_equal(mesh, ref), (h, x_max, beta)

    def test_error_reporting_honest_at_small_alpha(self):
        # near the left strip edge the head cut saturates at h = 1e-300; the
        # reported error must still cover the true deviation from the product
        # route.  At alpha = 0.03 the head bound there is 1.7e-8, so tol 1e-8
        # cannot be met and raises, while tol 1e-6 is met
        for alpha, tol in ((0.05, 1e-8), (0.03, 1e-6)):
            est = fermi_mellin(alpha, tol)
            truth = (gamma(alpha) * eta(alpha)).real
            assert abs(est.value.real - truth) <= max(est.abs_error, tol)
        with pytest.raises(ToleranceNotMet, match="above tol/10"):
            fermi_mellin(0.03, 1e-8)

    @pytest.mark.parametrize("alpha, k", [(0.001, 0), (0.003, 0), (0.01, 0), (0.003, 1),
                                          (0.003, 2), (1e-320, 0), (1e-320, 1)])
    def test_head_above_tol_raises_before_the_mesh(self, alpha, k, monkeypatch):
        # alpha = 0.001 (k = 0) and 1e-320 crashed in _mesh_panels' log(0);
        # 0.003 returned an error of 21 and 0.01 one of 0.05 at tol 1e-8
        for name in ("_mesh_panels", "_mesh"):
            monkeypatch.setattr(quadrature, name, None)
        integral = fermi_mellin if k == 0 else lambda a, tol: m_star_derivative(a, k, tol)
        with pytest.raises(ToleranceNotMet, match=f"Re\\(s\\) = {alpha}: the head bound"):
            integral(alpha, 1e-8)

    def test_budget_exhaustion(self):
        # high enough that the initial mesh alone exceeds EVAL_BUDGET
        with pytest.raises(ToleranceNotMet):
            fermi_mellin(0.5 + 5000j)

    def test_budget_exhausted_while_refining(self):
        # the mesh fits the budget and the refinement outgrows it; the message
        # names the tol passed, not the 0.8 tol the adaptive rule aims at
        with pytest.raises(ToleranceNotMet,
                           match=r"^quadrature budget 1000000 exhausted .* tol = 1\.000e-13\)$"):
            fermi_mellin(0.05 + 100j, 1e-13)

    def test_budget_checked_before_each_sweep(self, monkeypatch):
        # the budget was checked after each sweep, so this call evaluated
        # 1,565,055 points before it raised
        seen = []
        integrate = quadrature._integrate

        def spied(f, mesh, tol):
            return integrate(lambda x: seen.append(x.size) or f(x), mesh, tol)

        monkeypatch.setattr(quadrature, "_integrate", spied)
        with pytest.raises(ToleranceNotMet, match="^quadrature budget 1000000 exhausted"):
            fermi_mellin(0.1 + 120j, 1e-13)
        assert 0 < sum(seen) <= quadrature.EVAL_BUDGET

    @pytest.mark.parametrize("s", [0.5 + 1e5j, 0.5 + 1e17j])
    def test_budget_checked_before_mesh(self, s):
        # 1.6 M panels at Im 1e5; at Im 1e17 the panel ratio rounds to 1
        tracemalloc.start()
        try:
            with pytest.raises(ToleranceNotMet):
                fermi_mellin(s, 1e-8)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1_000_000

    def test_mesh_panels_bound_the_mesh(self):
        # the budget is checked against the buffer _mesh fills, which holds
        # at least the mesh's panels and at most a few more
        rng = random.Random(70)
        for _ in range(200):
            alpha, k = rng.uniform(0.02, 1.0), rng.choice((0, 1, 2))
            tol = 10.0 ** rng.uniform(-13.0, -4.0)
            h, _ = quadrature._head_cut(alpha, k, tol)
            x_max, _ = quadrature._tail_cut(k, tol)
            beta = rng.choice((0.0, rng.uniform(-4500.0, 4500.0)))
            panels = len(quadrature._mesh(h, x_max, beta)) - 1
            assert panels <= quadrature._mesh_panels(h, x_max, beta) <= panels + 4

    def test_domain(self):
        with pytest.raises(DomainError):
            fermi_mellin(1.2)
        with pytest.raises(DomainError):
            fermi_mellin(0.0)
        with pytest.raises(DomainError):
            fermi_mellin(0.5, -1e-8)

    def test_complex_tol_rejected(self):
        with pytest.raises(DomainError, match="real argument"):  # raised TypeError
            fermi_mellin(0.5, 1e-8 + 0j)


def _counting_integrate(monkeypatch):
    """Spy on _integrate: one [points the integrand saw, n_evals returned] per
    call, with None for the count of a call that raised."""
    calls = []
    integrate = quadrature._integrate

    def spied(f, mesh, tol):
        calls.append([0, None])

        def counted(x):
            calls[-1][0] += x.size
            return f(x)

        value, err, n_evals = integrate(counted, mesh, tol)
        calls[-1][1] = n_evals
        return value, err, n_evals

    monkeypatch.setattr(quadrature, "_integrate", spied)
    return calls


def _integrand_of(s, k, monkeypatch):
    """The integrand _log_moment builds for s and k, taken from its _integrate call."""
    seen = []

    def record(f, mesh, tol):
        seen.append(f)
        return 0.0, 0.0, 0

    with monkeypatch.context() as m:
        m.setattr(quadrature, "_integrate", record)
        quadrature._log_moment(s, k, 1e-8)
    return seen[0]


class TestChunkedBatch:
    # complex k = 0 (fermi_mellin), real k = 0 (m_star, g_of_b), k = 1 and 2
    # (m_star_derivative); f_on_disk reaches the complex one through f_shifted
    KINDS = [(0.3 + 20.0j, 0), (0.05 + 95.0j, 0), (0.7, 0), (0.6, 1), (0.6, 2)]

    @pytest.mark.parametrize("s, k", KINDS)
    @pytest.mark.parametrize("panels", [1, 255, 256, 257, 513, 5000])
    def test_chunks_equal_one_pass(self, s, k, panels, monkeypatch):
        f = _integrand_of(s, k, monkeypatch)
        rng = np.random.default_rng(panels)
        a = np.sort(rng.uniform(1e-6, 40.0, panels))
        b = a + rng.uniform(1e-9, 0.5, panels)
        chunked = quadrature._gk_batch(f, a, b)
        monkeypatch.setattr(quadrature, "_CHUNK_PANELS", 10 * panels)
        whole = quadrature._gk_batch(f, a, b)
        for got, want in zip(chunked, whole):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()

    def test_one_pass_path_and_no_second_count(self):
        # a batch of any size runs one loop of passes, with no fork for a
        # batch that fits one pass, and returns no evaluation count
        tree = ast.parse(inspect.getsource(quadrature))
        names = {n.name for n in ast.walk(tree) if isinstance(n, ast.FunctionDef)}
        assert "_gk_chunk" not in names
        batch = ast.parse(textwrap.dedent(inspect.getsource(quadrature._gk_batch)))
        assert [n for n in ast.walk(batch) if isinstance(n, (ast.If, ast.IfExp))] == []

    def test_working_set_bounded(self):
        # the costliest call of the benchmark's streams, 456,555 evaluations;
        # evaluated in one array its temporaries peaked at 14.3 MiB
        fermi_mellin(0.05 + 100j, 1e-12)
        tracemalloc.start()
        try:
            est = fermi_mellin(0.05 + 100j, 1e-12)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert est.n_evals > 400_000
        assert peak < 4 * 2**20


class TestFShifted:
    def test_matches_unshifted_by_construction(self):
        for omega in [0.0 + 0j, 0.25 + 10j, 0.5 + 3j]:
            a = f_shifted(omega, 1e-9)
            b = fermi_mellin(omega + 0.5, 1e-9)
            assert a.value == b.value

    def test_at_zero(self):
        assert f_shifted(0.0, 1e-8).value.real == pytest.approx(
            M_STAR_HALF_PRINTED, abs=1e-4
        )

    def test_at_half(self):
        assert f_shifted(0.5, 1e-10).value.real == pytest.approx(M_STAR_ONE, abs=1e-9)

    def test_product_oracle(self):
        omega = 0.25 + 10j
        s = 0.75 + 10j
        assert abs(f_shifted(omega, 1e-9).value - gamma(s) * eta(s)) < 1e-8

    def test_domain(self):
        with pytest.raises(DomainError):
            f_shifted(-0.01)
        with pytest.raises(DomainError):
            f_shifted(0.51)


class TestMBound:
    def test_at_half(self):
        assert m_bound(0.5) == pytest.approx(1.0 + math.exp(-1.0), abs=1e-14)
        assert m_bound(0.5) == pytest.approx(M_HALF_PRINTED, abs=1e-4)

    def test_diverges_at_zero(self):
        assert m_bound(1e-9) > 1e8

    def test_past_the_float_range_refused(self):
        # 1/(2 alpha) overflowed to inf, neither an answer nor a refusal
        assert m_bound(2.8e-309) == pytest.approx(1.0 / 5.6e-309)
        for alpha in (2.7e-309, 1e-320, 5e-324):
            with pytest.raises(DomainError, match="float range"):
                m_bound(alpha)

    def test_at_one(self):
        assert m_bound(1.0) == pytest.approx(0.8678794411714423, abs=1e-12)

    def test_domain(self):
        with pytest.raises(DomainError):
            m_bound(0.0)
        for alpha in (1.1, 0.5 + 0j):  # a complex alpha raised TypeError
            with pytest.raises(DomainError):
                m_bound(alpha)


class TestMStar:
    def test_anchor_half(self):
        assert m_star(0.5, 1e-8) == pytest.approx(M_STAR_HALF_PRINTED, abs=1e-4)

    def test_anchor_one(self):
        assert m_star(1.0, 1e-12) == pytest.approx(M_STAR_ONE, abs=1e-10)

    def test_between_anchors(self):
        v = m_star(0.75, 1e-9)
        assert M_STAR_ONE < v < m_star(0.5, 1e-9)

    def test_monotone_decreasing_grid(self):
        vals = [m_star(float(a), 1e-9) for a in np.linspace(0.5, 1.0, 50)]
        assert all(b - a < 0.0 for a, b in zip(vals, vals[1:]))

    def test_convexity_random_chords(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            a1, a2 = sorted(rng.uniform(0.5, 1.0, 2))
            if a2 - a1 < 1e-3:
                continue
            t = float(rng.uniform(0.0, 1.0))
            mid = t * a1 + (1.0 - t) * a2
            lhs = m_star(float(mid), 1e-9)
            rhs = t * m_star(float(a1), 1e-9) + (1.0 - t) * m_star(float(a2), 1e-9)
            assert lhs <= rhs + 1e-8

    def test_complex_alpha_rejected(self):
        # a check that survives python -O, unlike an assert
        for alpha in (0.5 + 1.0j, 0.5 + 0j):  # 0.5 + 0j returned F(1/2)
            with pytest.raises(DomainError):
                m_star(alpha, 1e-8)


class TestMStarDerivative:
    def test_anchor_half(self):
        assert m_star_derivative(0.5, 1, 1e-9) == pytest.approx(-1.76259, abs=1e-4)

    def test_anchor_one_closed_form(self):
        v = m_star_derivative(1.0, 1, 1e-9)
        assert v == pytest.approx(-0.5 * math.log(2.0) ** 2, abs=1e-8)
        assert v == pytest.approx(-0.240227, abs=1e-6)

    def test_finite_difference_oracle(self):
        fd = central_difference(lambda a: m_star(a, 1e-12), 0.5, 1e-5)
        assert m_star_derivative(0.5, 1, 1e-9) == pytest.approx(fd, abs=1e-5)

    def test_second_derivative_positive(self):
        for a in np.linspace(0.5, 1.0, 11):
            assert m_star_derivative(float(a), 2, 1e-8) > 0.0

    def test_second_derivative_fd_oracle(self):
        h = 1e-4
        fd = (
            m_star(0.75 + h, 1e-12) - 2.0 * m_star(0.75, 1e-12) + m_star(0.75 - h, 1e-12)
        ) / (h * h)
        assert m_star_derivative(0.75, 2, 1e-10) == pytest.approx(fd, abs=1e-4)

    def test_tail_cut_past_forty(self):
        # at k = 2 and tol 1e-15 the e**(-x) majorant at x = 40 is above
        # tol/10, so the tail cut moves out; the value meets tol against the
        # second derivative of Gamma(a) eta(a) at the same float alpha
        mpmath = pytest.importorskip("mpmath")
        assert quadrature._tail_cut(2, 1e-15)[0] > 40.0
        with mpmath.workdps(30):
            ref = mpmath.diff(lambda a: mpmath.gamma(a) * mpmath.altzeta(a), mpmath.mpf(0.7), 2)
        assert abs(m_star_derivative(0.7, 2, 1e-15) - float(ref)) <= 1e-15

    def test_order_validation(self):
        with pytest.raises(DomainError):
            m_star_derivative(0.75, 3, 1e-8)

    def test_domain_validation(self):
        for alpha, tol in ((0.0, 1e-8), (1.5, 1e-8), (0.75, 0.0), (0.75, math.nan),
                           (0.5 + 1j, 1e-8)):  # a complex alpha raised TypeError
            with pytest.raises(DomainError):
                m_star_derivative(alpha, 1, tol)


class TestBoundChain:
    def test_lemma_bound_full_strip(self):
        rng = np.random.default_rng(31)
        for _ in range(200):
            s = complex(rng.uniform(0.05, 0.95), rng.uniform(-50.0, 50.0))
            f_abs = abs(fermi_mellin(s, 1e-6).value)
            assert f_abs <= m_bound(s.real) + 1e-6

    def test_chain_upper_half(self):
        rng = np.random.default_rng(37)
        cap = m_star(0.5, 1e-9)
        for _ in range(200):
            s = complex(rng.uniform(0.5, 1.0), rng.uniform(-50.0, 50.0))
            f_abs = abs(fermi_mellin(s, 1e-7).value)
            ms = m_star(s.real, 1e-7)
            assert f_abs <= ms + 1e-6
            assert ms <= cap + 1e-6
        assert cap <= m_bound(0.5) + 1e-6


class TestGOfB:
    def test_limit_toward_one(self):
        assert g_of_b(1.0 - 1e-6, 1e-9) == pytest.approx(
            m_star(0.5, 1e-9), abs=1e-4
        )

    def test_arctan_route(self):
        # omega0(tan(pi/8)) = 1/8, so G = M*(5/8)
        b = math.tan(math.pi / 8.0)
        assert omega0(b) == pytest.approx(0.125, abs=1e-14)
        assert g_of_b(b, 1e-10) == pytest.approx(m_star(0.625, 1e-10), abs=1e-9)

    def test_limit_toward_zero(self):
        assert g_of_b(1e-9, 1e-9) == pytest.approx(m_star(0.75, 1e-9), abs=1e-7)

    def test_increasing_grid(self):
        vals = [g_of_b(float(b), 1e-9) for b in np.linspace(0.01, 0.99, 50)]
        assert all(b - a > 0.0 for a, b in zip(vals, vals[1:]))

    def test_omega0_prime(self):
        fd = central_difference(omega0, 0.6, 1e-7)
        assert omega0_prime(0.6) == pytest.approx(fd, abs=1e-9)
        assert omega0_prime(0.6) < 0.0

    def test_domain(self):
        with pytest.raises(DomainError):
            g_of_b(0.0)
        with pytest.raises(DomainError):
            g_of_b(1.0)
        for fn in (g_of_b, omega0, omega0_prime):  # a complex b raised TypeError
            with pytest.raises(DomainError):
                fn(0.5 + 0j)
