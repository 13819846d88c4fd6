import ast
import cmath
import inspect
import math
import re
import textwrap
from collections import Counter

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetalab import special_functions, zero_analysis
from zetalab.errors import (
    BoundaryZeroError,
    DomainError,
    MultiplicityAmbiguity,
    NonConvergence,
    PoleProximity,
    ZeroAtCenter,
)
from zetalab.quadrature import f_shifted, m_star
from zetalab.special_functions import eta
from zetalab.strip_map import f_on_disk, g_of_b
from zetalab.zero_analysis import (
    CriticalZeroList,
    RectangleRegion,
    blaschke_L,
    critical_line_zeros,
    jensen_check,
    lambda_choice,
    riemann_von_mangoldt,
    rouche_scan,
    titchmarsh_zero_bound,
    titchmarsh_zero_free,
    triangle_equality_condition,
    winding_count,
)

from oracles import (
    ZERO_ORDINATES,
    eta_line_abs,
    golden_min,
    poly_circle_max,
    poly_from_roots,
    random_poly_corpus,
    safe_level,
)

UNIT_RECT = RectangleRegion(-1.0, 1.0, -1.0, 1.0)


class TestWindingCount:
    def test_single_linear_factor(self):
        assert winding_count(lambda z: z - 0.2, UNIT_RECT) == 1

    def test_zero_outside(self):
        assert winding_count(lambda z: z - 2.0, UNIT_RECT) == 0

    def test_double(self):
        assert winding_count(lambda z: (z - 0.2) * (z + 0.5j), UNIT_RECT) == 2

    @pytest.mark.parametrize("fn, count", [
        (lambda z: z - complex(-1.7e308, -1.7e308), 0),
        (lambda z: z - complex(1.7e308, 1.7e308), 0),
        (lambda z: z - complex(-1.7e308, 1e308), 0),
        (lambda z: (z - 0.3) * 1.2e308, 1),
        (lambda z: (z + 0.5 + 0.5j) * 1e308, 1),
        (lambda z: 1.5e308 * np.exp(20.0 * (z - 1.0)), 0),
        (lambda z: 1.5e308 * np.exp(150.0 * (z - 1.0)), 0),
        (lambda z: 1.7e308 * np.exp(150.0 * (z - 1.0)), 0),
    ], ids=["shift-lower-left", "shift-upper-right", "shift-left", "linear-1.2e308",
            "linear-1e308", "exp20-1.5e308", "exp150-1.5e308", "exp150-1.7e308"])
    def test_values_near_the_float_limit(self, fn, count):
        # the phase step v2/v1 overflowed in NumPy's complex division: a NaN
        # step refined to the sample budget and raised NonConvergence, and a
        # quotient that came out 0 settled as no turn (-9 for the second exp)
        assert winding_count(fn, UNIT_RECT) == count

    def test_multiplicity(self):
        assert winding_count(lambda z: (z - 0.1) ** 3, UNIT_RECT) == 3

    def test_eta_strip_to_thirty(self):
        rect = RectangleRegion(0.1, 0.9, 0.0, 30.0)
        assert winding_count(lambda s: eta(s), rect) == 3

    def test_eta_thin_rectangle_first_zero(self):
        rect = RectangleRegion(0.1, 0.9, 13.0, 15.0)
        assert winding_count(lambda s: eta(s), rect) == 1

    def test_eta_below_first_zero(self):
        rect = RectangleRegion(0.1, 0.9, 0.0, 10.0)
        assert winding_count(lambda s: eta(s), rect) == 0

    def test_boundary_zero_error(self):
        with pytest.raises(BoundaryZeroError):
            winding_count(lambda z: z - 1.0, UNIT_RECT)

    def test_refinement_budget_exhaustion(self, monkeypatch):
        from zetalab.errors import NonConvergence

        monkeypatch.setattr(zero_analysis, "MAX_BOUNDARY_SAMPLES", 10)
        with pytest.raises(NonConvergence):
            winding_count(lambda z: z - 0.2, UNIT_RECT)

    def test_phase_step_that_never_settles(self):
        # a jump of pi at Re z = 0 stays a jump however finely the top and
        # bottom edges are split: the first call and 48 halving rounds
        sizes = []

        def step(z):
            sizes.append(z.size)
            return np.where(z.real > 0, 1 + 0j, -1 + 0j)

        with pytest.raises(NonConvergence, match="phase step did not settle below pi/2"):
            winding_count(step, UNIT_RECT)
        assert (len(sizes), sum(sizes)) == (49, 608)

    def test_degenerate_rectangle(self):
        with pytest.raises(DomainError):
            RectangleRegion(0.0, 0.0, 0.0, 1.0)

    @pytest.mark.parametrize("bounds", [(0.0, 1.0, 0.0, math.inf), (-math.inf, 1.0, 0.0, 1.0),
                                        (0.0, 1.0, math.nan, 1.0)])
    def test_non_finite_rectangle(self, bounds):
        with pytest.raises(DomainError, match="non-finite"):
            RectangleRegion(*bounds)

    def test_complex_bound_rejected(self):
        with pytest.raises(DomainError, match="real argument"):  # raised TypeError
            RectangleRegion(0.0, 1.0 + 0j, 0.0, 1.0)

    def test_short_result_raises(self):
        # one value fewer than points misaligned the phase steps and gave a count
        with pytest.raises(DomainError, match=re.escape("shape (511,) for points of shape (512,)")):
            winding_count(lambda z: (z - 0.2)[:-1], UNIT_RECT)

    def test_scalar_result_raises(self):
        # ended in a bare IndexError
        with pytest.raises(DomainError, match="shape"):
            winding_count(lambda z: 1.0 + 0j, UNIT_RECT)

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_non_finite_value_names_its_point(self, bad):
        # spent the 500,000-evaluation budget, then raised NonConvergence
        point = complex(zero_analysis._boundary_points(UNIT_RECT)[5])
        seen = []

        def fn(z):
            seen.append(z.size)
            return np.where(z == point, bad, z - 0.2)

        with pytest.raises(DomainError, match=re.escape(f"fn({point}) = ")):
            winding_count(fn, UNIT_RECT)
        assert seen == [512]

    @pytest.mark.parametrize("height", [1e300, 1e308])
    def test_initial_boundary_checked_before_it_is_built(self, height):
        # the count comes from the side lengths; fn never sees a point
        seen = []
        rect = RectangleRegion(0.0, 1.0, 0.0, height)
        with pytest.raises(NonConvergence, match="budget"):
            winding_count(lambda z: seen.append(z.size) or z, rect)
        assert seen == []

    def test_phase_step_is_one_formula(self):
        # a step turns by the wrapped difference of the args at its ends, one
        # formula up to the float limit; the quotient v2/v1 it replaced
        # overflowed there, and needed np.errstate and a fallback formula
        tree = ast.parse(textwrap.dedent(inspect.getsource(zero_analysis._track_phase)))
        divisions = [n for n in ast.walk(tree) if isinstance(getattr(n, "op", None), ast.Div)]
        errstates = [n for n in ast.walk(tree)
                     if getattr(n, "attr", getattr(n, "id", None)) == "errstate"]
        assert divisions == [] and errstates == []


def _recorded_batches(monkeypatch):
    """The point batches each _track_phase call hands its fn, in call order."""
    batches = []
    track_phase = zero_analysis._track_phase

    def recording(fn, points, closed):
        batches.append([])
        return track_phase(lambda p: batches[-1].append(p.copy()) or fn(p), points, closed)

    monkeypatch.setattr(zero_analysis, "_track_phase", recording)
    return batches


def _vertical_step_midpoints(rect):
    """Midpoints of the boundary steps on the two vertical sides of rect."""
    points = zero_analysis._boundary_points(rect)
    ends = np.append(points, points[0])
    mid = 0.5 * (ends[:-1] + ends[1:])
    return mid[ends[:-1].real == ends[1:].real]


class TestPhaseTrackerWork:
    # the points the tracker evaluates on every contour the audit, the zero
    # search and the refining unit-square cases walk, as recorded when each
    # step's turn was the arg of the quotient v2/v1: equal, not bounded
    @pytest.mark.parametrize("tau, count", [(16.06, 1), (30.0, 3), (100.0, 29), (300.0, 138),
                                            (420.0, 215)])
    def test_segment(self, tau, count, monkeypatch):
        batches = _recorded_batches(monkeypatch)
        assert zero_analysis._zero_count(tau) == count
        sigma = np.linspace(2.0, 0.5, zero_analysis.SEGMENT_STEPS + 1)
        [[points]] = batches
        assert np.array_equal(points, sigma + 1j * tau)

    @pytest.mark.parametrize("contour", ["RVM30", "EQ45", "cube", "exp150"])
    def test_rectangle(self, contour, monkeypatch):
        lam = lambda_choice(1.0, 0.1, 0.01)
        fn, rect, count, sizes = {
            "RVM30": (eta, RectangleRegion(0.1, 0.9, 0.0, 30.0), 3, [3_944]),
            # K(tau) at the default scan's tau = 16 and g = lam (eps + omega)
            "EQ45": (lambda w: lam * (0.1 + w), RectangleRegion(0.0, 0.5, 0.0, 16.0), 0, [2_112]),
            "cube": (lambda z: (z - 0.1) ** 3, UNIT_RECT, 3, [512]),
            "exp150": (lambda z: 1.5e308 * np.exp(150.0 * (z - 1.0)), UNIT_RECT, 0, [512, 256]),
        }[contour]
        batches = _recorded_batches(monkeypatch)
        assert winding_count(fn, rect) == count
        [calls] = batches
        assert [p.size for p in calls] == sizes
        assert np.array_equal(calls[0], zero_analysis._boundary_points(rect))
        if contour == "exp150":
            # arg turns by 150 * 2/128 = 2.3 per step on the vertical sides
            # and by 0 on the others: one round bisects exactly those steps
            assert np.array_equal(np.sort_complex(calls[1]),
                                  np.sort_complex(_vertical_step_midpoints(rect)))

    @pytest.mark.parametrize("tau, count, points", [(16.06, 1, 176), (30.0, 3, 309),
                                                    (100.0, 29, 1_985), (300.0, 138, 8_809),
                                                    (420.0, 215, 13_513)])
    def test_zero_search_eta_points(self, tau, count, points, monkeypatch):
        seen = []
        monkeypatch.setattr(zero_analysis, "eta", lambda s: seen.append(np.size(s)) or eta(s))
        assert len(critical_line_zeros(tau)) == count and sum(seen) == points


def _recursive_winding(fn, rect):
    """Point-by-point winding count with depth-first refinement, the reference
    for the batched breadth-first version; returns (count, evaluations)."""
    evals = 0

    def value(p):
        nonlocal evals
        evals += 1
        return complex(fn(p))

    def phase_delta(p1, v1, p2, v2, depth):
        d = cmath.phase(v2 / v1)
        if abs(d) <= math.pi / 2:
            return d
        assert depth < 48
        pm = 0.5 * (p1 + p2)
        vm = value(pm)
        return phase_delta(p1, v1, pm, vm, depth + 1) + phase_delta(pm, vm, p2, v2, depth + 1)

    pts = zero_analysis._boundary_points(rect)
    vals = [value(p) for p in pts]
    total = sum(
        phase_delta(pts[k], vals[k], pts[(k + 1) % len(pts)], vals[(k + 1) % len(pts)], 0)
        for k in range(len(pts))
    )
    return round(total / (2.0 * math.pi)), evals


THIN_RECT = RectangleRegion(-1.0, 1.0, -0.1, 0.1)


class TestBatchedWindingCount:
    # each function turns its phase by more than pi/2 between some initial samples
    CASES = [
        (lambda z: z**200, UNIT_RECT, 200),
        (lambda z: np.exp(120j * z), THIN_RECT, 0),
        (lambda z: (z - (0.999 + 0.3j)) * (z - (0.2 - 0.9995j)) * (z - 1.002j), UNIT_RECT, 2),
        (lambda z: np.exp(80j * z) * (z - 0.5) ** 3, THIN_RECT, 3),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_matches_recursive_refinement(self, case):
        fn, rect, expected = self.CASES[case]
        batches = []

        def batched(z):
            batches.append(z.size)
            return fn(z)

        count, evals = _recursive_winding(fn, rect)
        assert len(batches) == 0
        assert winding_count(batched, rect) == count == expected
        initial = len(zero_analysis._boundary_points(rect))
        assert evals > initial  # the initial steps do exceed pi/2
        assert sum(batches) == evals and batches[0] == initial

    def test_eta_rectangles_match_recursive_refinement(self):
        for rect in (RectangleRegion(0.1, 0.9, 13.0, 15.0), RectangleRegion(0.1, 0.9, 0.0, 30.0)):
            count, evals = _recursive_winding(eta, rect)
            seen = []
            assert winding_count(lambda s: seen.append(s.size) or eta(s), rect) == count
            assert sum(seen) == evals

    def test_budget_checked_before_each_batch(self, monkeypatch):
        fn = self.CASES[0][0]
        initial = len(zero_analysis._boundary_points(UNIT_RECT))
        for budget in (initial - 1, initial, initial + 1):
            monkeypatch.setattr(zero_analysis, "MAX_BOUNDARY_SAMPLES", budget)
            seen = []
            with pytest.raises(NonConvergence, match="budget"):
                winding_count(lambda z: seen.append(z.size) or fn(z), UNIT_RECT)
            assert sum(seen) <= budget
            assert seen == ([] if budget < initial else [initial])

    def test_boundary_zero_names_point(self):
        with pytest.raises(BoundaryZeroError, match=r"\|fn\(\(1\+0j\)\)\| = 0\.000e\+00"):
            winding_count(lambda z: z - 1.0, UNIT_RECT)
        # a zero met only by a refinement midpoint is named as well
        zero = complex(-1.0 + 1.0 / 128.0, -0.1)
        assert zero not in zero_analysis._boundary_points(THIN_RECT)
        with pytest.raises(BoundaryZeroError, match=re.escape(f"|fn({zero})| = 0.000e+00")):
            winding_count(lambda z: z - zero, THIN_RECT)


def _list_boundary_points(rect, per_unit):
    """The boundary as a list, one generator step per sample: the reference
    for the array construction."""
    corners = rect.corners
    pts = []
    for a, b in zip(corners, corners[1:] + corners[:1]):
        n = max(8, int(math.ceil(per_unit * abs(b - a))))
        pts.extend(a + (b - a) * (k / n) for k in range(n))
    return pts


class TestBoundaryPoints:
    def test_matches_list_construction(self, monkeypatch):
        rng = np.random.default_rng(808)
        rects = [
            (RectangleRegion(0.1, 0.9, 0.0, 100.0), 64.0),
            (RectangleRegion(0.0, 0.5, 0.0, 16.0), 24.0),
            (RectangleRegion(0.0, 0.5, 0.0, 16.0), 64.0),
        ]
        for height in (1e-3, 1e-6, 1e-9):
            lo = rng.uniform(0.0, 50.0)
            rects.append((RectangleRegion(0.1, 0.9, lo, lo + height), 64.0))
            rects.append((RectangleRegion(0.5 - height, 0.5 + height, lo, lo + height), 64.0))
        for _ in range(40):
            re_lo, im_lo = rng.uniform(-2.0, 2.0, 2)
            re_w, im_w = 10.0 ** rng.uniform(-9.0, 2.0, 2)
            rect = RectangleRegion(re_lo, re_lo + re_w, im_lo, im_lo + im_w)
            rects.append((rect, float(rng.choice([8.0, 24.0, 64.0]))))
        for rect, per_unit in rects:
            monkeypatch.setattr(zero_analysis, "SAMPLES_PER_UNIT", per_unit)
            got = zero_analysis._boundary_points(rect)
            ref = np.array(_list_boundary_points(rect, per_unit))
            assert got.dtype == complex and got.tobytes() == ref.tobytes(), (rect, per_unit)


class TestCriticalLineZeros:
    BETAS_30 = (14.134725141734586, 21.022039638771716, 25.010857580145498)

    def test_up_to_twenty(self):
        zeros = critical_line_zeros(20.0, 1e-4)
        assert len(zeros) == 1
        assert zeros.betas[0] == pytest.approx(ZERO_ORDINATES[0], abs=1e-3)

    def test_up_to_thirty(self):
        zeros = critical_line_zeros(30.0, 1e-4)
        assert len(zeros) == 3
        for got, ref in zip(zeros.betas, ZERO_ORDINATES):
            assert got == pytest.approx(ref, abs=1e-3)
        for beta in zeros:
            assert abs(eta(complex(0.5, beta))) < 1e-5

    def test_below_first_zero_empty(self):
        assert critical_line_zeros(10.0, 1e-4).betas == ()

    def test_nan_rejected(self):
        with pytest.raises(DomainError):
            critical_line_zeros(math.nan, 1e-4)
        with pytest.raises(DomainError):
            critical_line_zeros(16.0, math.nan)

    def test_zero_tol_floor(self):
        # cells stop splitting at 1e-9, so a finer zero_tol used to report a
        # single zero as a multiplicity failure
        with pytest.raises(DomainError, match="1e-09"):
            critical_line_zeros(16.0, 1e-10)

    def test_one_child_counted_per_split(self, monkeypatch):
        # every split counts its lower child by the sign changes of Hardy's Z
        # and the root comes from one segment count, so tau = 30 evaluates eta
        # at 309 points, where the root, isolating and certificate winding
        # counts took 4,609, a winding count of the lower child of each cell
        # of two or more zeros 7,667, one per split 17,046 and counting both
        # children 29,872; the located zeros are those of counting both, bit
        # for bit
        calls = 0

        def counted_eta(s):
            nonlocal calls
            calls += np.size(s)
            return eta(s)

        monkeypatch.setattr(zero_analysis, "eta", counted_eta)
        zeros = critical_line_zeros(30.0, 1e-4)
        assert calls <= 309
        assert zeros.betas == self.BETAS_30

    def test_complex_tau_rejected(self):
        with pytest.raises(DomainError, match="real argument"):  # raised TypeError
            critical_line_zeros(30.0 + 0j)
        with pytest.raises(DomainError, match="real argument"):
            critical_line_zeros(30.0, 1e-4 + 0j)

    def test_bracket_without_sign_change_raises(self, monkeypatch):
        # Z flipped at the top of the first zero's bracket only: the search
        # still locates the zero, and the certificate then sees no sign change
        # across its bracket and raises rather than returning it
        beta = self.BETAS_30[0]
        _patch_hardy_z(monkeypatch, flip=lambda y: y == beta + 1e-4)
        bracket = re.escape(f"not change sign across [{beta - 1e-4}, {beta + 1e-4}]")
        with pytest.raises(MultiplicityAmbiguity, match=bracket):
            critical_line_zeros(30.0, 1e-4)

    @pytest.mark.parametrize("zero_tol", [0.5, 1.0])
    def test_bracket_wider_than_the_strip(self, zero_tol):
        # the certificate used to be a square of half-width zero_tol about
        # Re(s) = 1/2, which left the strip from zero_tol = 0.5 on
        mpmath = pytest.importorskip("mpmath")
        zeros = critical_line_zeros(16.0, zero_tol)
        assert len(zeros) == 1
        assert abs(zeros.betas[0] - float(mpmath.zetazero(1).imag)) < zero_tol

    def test_overlapping_brackets_raise(self):
        # brackets of half-width 2 about the zeros at 21.02 and 25.01 overlap
        with pytest.raises(MultiplicityAmbiguity,
                           match=r"beta = 21\.022\d* and beta = 25\.010\d* overlap"):
            critical_line_zeros(40.0, 2.0)

    @pytest.mark.parametrize("zero_tol", [3.0, 5.0, 8.0, 20.0, 100.0])
    def test_zero_tol_above_the_grid_step(self, zero_tol):
        # an interval up to zero_tol tall used to be polished, and |eta| has
        # more than one local minimum on [0, 16]: zero_tol = 20 returned
        # 9.0416, where |eta| = 0.61; the polish now waits for the grid step
        mpmath = pytest.importorskip("mpmath")
        zeros = critical_line_zeros(16.0, zero_tol)
        assert zeros.betas == (14.134725141734645,)
        assert abs(zeros.betas[0] - float(mpmath.zetazero(1).imag)) < 1e-9

    @pytest.mark.parametrize("tau", [14.134725141734645, 21.02203963877163])
    def test_tau_at_a_zero_raises(self, tau):
        # zeta(1/2 + i tau) is below 1e-12 in modulus at the end of the
        # segment, so N(tau) is not defined there
        with pytest.raises(BoundaryZeroError, match=re.escape(f"(0.5+{tau}j)")):
            critical_line_zeros(tau, 1e-4)

    def test_invariants_enforced(self):
        for betas, tau in [((2.0, 1.0), 10.0), ((-1.0,), 10.0), ((11.0,), 10.0),
                           ((math.nan,), 10.0), ((1.0,), math.nan)]:
            with pytest.raises(DomainError):
                CriticalZeroList(betas, tau)

    def test_betas_stored_as_a_tuple(self):
        # a list was stored as given: the frozen record did not hash, and it
        # was unequal to the same heights given as a tuple
        zeros = CriticalZeroList([1.0], 2.0)
        assert zeros.betas == (1.0,) and zeros == CriticalZeroList((1.0,), 2.0)
        assert hash(zeros) == hash(CriticalZeroList((1.0,), 2.0))


def _patch_hardy_z(monkeypatch, flip=lambda y: False, doubt=lambda y: False):
    """Make zero_analysis._hardy_z negate Z at the heights where flip holds and
    leave it in doubt (not real) at the heights where doubt holds."""
    hardy_z = zero_analysis._hardy_z

    def patched(heights, eta_values):
        z, real = hardy_z(heights, eta_values)
        return np.where(flip(heights), -z, z), real & np.logical_not(doubt(heights))

    monkeypatch.setattr(zero_analysis, "_hardy_z", patched)


def _counted_bisection(tau, zero_tol):
    """critical_line_zeros with every split decided by a winding count of the
    lower child, and each interval split and polished on its own by scalar eta
    calls: the reference for the Hardy-Z sign splits, the batched split search
    and the lockstep polish; returns the sorted betas before certification."""
    count = lambda lo, hi: winding_count(eta, RectangleRegion(0.5 - 0.4, 0.5 + 0.4, lo, hi))
    betas = []
    stack = [(0.0, float(tau), count(0.0, float(tau)), True)]
    while stack:
        lo, hi, n, measured = stack.pop()
        if n == 0:
            continue
        if n == 1 and hi - lo <= zero_tol:
            assert measured or count(lo, hi) == 1
            betas.append(golden_min(eta_line_abs, lo, hi))
            continue
        mid = safe_level(lo, hi)[0]
        n_lo = count(lo, mid)
        assert 0 <= n_lo <= n
        stack += [(lo, mid, n_lo, True), (mid, hi, n - n_lo, False)]
    return tuple(sorted(betas))


class TestHardyZSplits:
    @pytest.mark.parametrize("tau, zero_tol", [(20.0, 1e-4), (30.0, 1e-4), (50.0, 1e-3),
                                               (100.0, 1e-4), (100.0, 1e-6), (100.0, 1e-8)])
    def test_betas_equal_counted_bisection(self, tau, zero_tol):
        assert critical_line_zeros(tau, zero_tol).betas == _counted_bisection(tau, zero_tol)

    def test_flipped_sign_raises_rather_than_moving_a_zero(self, monkeypatch):
        # flipping Z everywhere would leave every sign change in place, so
        # flip it above the root's bottom only: the grid then shows a change
        # between Z(0) and its first sample that no zero accounts for
        _patch_hardy_z(monkeypatch, flip=lambda y: y > 0.0)
        with pytest.raises(NonConvergence, match="changes sign 2 times .* where 1 zeros"):
            critical_line_zeros(20.0, 1e-4)

    def _recorded(self, monkeypatch):
        """Record the sample counts of the Z grids and the winding-count rectangles."""
        grids, counts = [], []
        z_grid, count = zero_analysis._z_grid, zero_analysis.winding_count
        monkeypatch.setattr(zero_analysis, "_z_grid",
                            lambda tau, n: grids.append(n) or z_grid(tau, n))
        monkeypatch.setattr(zero_analysis, "winding_count",
                            lambda fn, rect: counts.append(rect) or count(fn, rect))
        return grids, counts

    def test_sign_changes_short_of_the_root_count_raise(self, monkeypatch):
        # Z flipped above 25.011 hides the sign change of the zero at 25.0109,
        # one of the three the segment counts below tau = 30: every doubling of
        # the grid still shows two, and no winding count stands in for the third
        _patch_hardy_z(monkeypatch, flip=lambda y: y > 25.011)
        grids, counts = self._recorded(monkeypatch)
        with pytest.raises(NonConvergence, match=r"changes sign 2 times on \[0, 30.0\], where 3"):
            critical_line_zeros(30.0, 1e-4)
        assert grids == [30 * 2**k for k in range(zero_analysis.Z_GRID_DOUBLINGS + 1)]
        assert counts == []  # the root count is the segment's

    @pytest.mark.parametrize("heights, grids", [([14.0], [30]),
                                                ([21.0, 22.0, 23.0, 24.0, 25.0], [30, 60])])
    def test_sample_not_real_is_dropped(self, monkeypatch, heights, grids):
        # eta turned a quarter turn at a grid height makes Z there imaginary;
        # the sample is dropped, merging its two intervals.  Dropping 14 leaves
        # the zero at 14.13 alone in (13, 15); dropping 21-25 puts the zeros at
        # 21.02 and 25.01 in (20, 26) with no sign change between, and the
        # doubled grid separates them again
        def turned_eta(s):
            value = eta(s)
            if isinstance(s, np.ndarray):
                value[(s.real == 0.5) & np.isin(s.imag, heights)] *= 1j
            return value

        monkeypatch.setattr(zero_analysis, "eta", turned_eta)
        grid, _ = zero_analysis._z_grid(30.0, 30)
        assert len(grid) == 31 - len(heights) and not set(heights) & set(grid)
        seen, _ = self._recorded(monkeypatch)
        assert critical_line_zeros(30.0, 1e-4).betas == TestCriticalLineZeros.BETAS_30
        assert seen == grids

    def test_work_at_tau_100(self, monkeypatch):
        points, scalar_calls, array_calls, counts, z_calls, gamma_calls = 0, 0, 0, 0, 0, 0

        def counted_eta(s):
            nonlocal points, scalar_calls, array_calls
            points += np.size(s)
            scalar_calls += not isinstance(s, np.ndarray)
            array_calls += isinstance(s, np.ndarray)
            return eta(s)

        def counted_winding(fn, rect):
            nonlocal counts
            counts += 1
            return winding_count(fn, rect)

        def counted_hardy_z(heights, eta_values):
            nonlocal z_calls
            z_calls += 1
            return hardy_z(heights, eta_values)

        def counted_gamma(s):
            nonlocal gamma_calls
            gamma_calls += 1
            return gamma(s)

        hardy_z, gamma = zero_analysis._hardy_z, special_functions.gamma
        monkeypatch.setattr(zero_analysis, "eta", counted_eta)
        monkeypatch.setattr(zero_analysis, "winding_count", counted_winding)
        monkeypatch.setattr(zero_analysis, "_hardy_z", counted_hardy_z)
        monkeypatch.setattr(special_functions, "gamma", counted_gamma)
        assert len(critical_line_zeros(100.0, 1e-4)) == 29
        # no winding count: the root count was one of 12,904 points, and with
        # 29 isolating cells and 29 certificates 19,187 points in 59 counts; a
        # winding count of the lower child of each cell of two or more zeros
        # took 52,130 points in 89 counts, and one per split 110,589 in 506
        assert points <= 1_985 and counts == 0
        # every split level and every polish round is one array call: 69
        # calls, where one scalar call per split height and per golden-section
        # point made 1,651 scalar calls beside 3 array calls
        assert scalar_calls == 0 and array_calls <= 69
        # Z at 698 heights in one call for the grid, one per split level and
        # one for the bracket ends, where one call per height took 698; no
        # gamma call is left: the phase of Gamma(1/4 + i y/2) in Z took 3,048
        # with the reflection, and the scalar eta calls' term counts 1,651
        assert z_calls <= 23 and gamma_calls == 0

    def test_split_heights_equal_the_serial_search(self):
        # the second interval is centred on the zero at 14.1347, so its
        # midpoint is refused and the next round takes a nudged height
        zero = ZERO_ORDINATES[0]
        lo, hi = np.array([14.0, zero - 0.1, 20.0]), np.array([14.2, zero + 0.1, 23.0])
        heights, values = zero_analysis._split_heights(lo, hi)
        serial = [safe_level(a, b) for a, b in zip(lo.tolist(), hi.tolist())]
        assert heights.tolist() == [y for y, _ in serial]
        assert values.tolist() == [v for _, v in serial]
        assert (heights == 0.5 * (lo + hi)).tolist() == [True, False, True]

    def test_no_split_level_names_the_interval(self, monkeypatch):
        # eta vanishing above 20 leaves no nudge of the second interval clear
        # of zero; the first still takes its midpoint
        def vanishing_eta(s):
            return np.where(s.imag > 20.0, 0.0, eta(s))

        monkeypatch.setattr(zero_analysis, "eta", vanishing_eta)
        with pytest.raises(NonConvergence, match=re.escape(
                "could not find a zero-free split level in [20.0, 23.0]")):
            zero_analysis._split_heights(np.array([14.0, 20.0]), np.array([14.2, 23.0]))

    def test_six_heights_below_hi(self, monkeypatch):
        # mid + j * 0.093 (hi - lo) is below hi for j = 0..5 only: an interval
        # where eta vanishes everywhere is tried at those six heights, once each
        heights = []

        def vanishing_eta(s):
            heights.extend(s.imag.tolist())
            return np.zeros_like(s)

        monkeypatch.setattr(zero_analysis, "eta", vanishing_eta)
        with pytest.raises(NonConvergence):
            zero_analysis._split_heights(np.array([20.0]), np.array([23.0]))
        assert heights == [21.5 + j * (0.093 * 3.0) for j in range(6)]
        assert max(heights) < 23.0 < 21.5 + 6 * (0.093 * 3.0)

    def test_sign_matches_mpmath_siegelz(self):
        mpmath = pytest.importorskip("mpmath")
        heights = np.array([0.0, *np.random.default_rng(1101).uniform(0.0, 420.0, 80)])
        ref = np.array([float(mpmath.siegelz(y)) for y in heights])
        z, real = zero_analysis._hardy_z(heights, eta(0.5 + 1j * heights))
        checked = np.abs(ref) > 1e-10
        assert checked.sum() > 75 and real[checked].all()
        assert ((z < 0.0) == (ref < 0.0))[checked].all()
        assert z[checked] == pytest.approx(ref[checked], rel=1e-6, abs=1e-11)

    def test_imaginary_z_raises(self):
        # eta turned a quarter turn makes Z purely imaginary, and a NaN has no
        # sign either: each is in doubt, and a needed sign in doubt raises
        value = eta(complex(0.5, 14.0))
        heights, values = np.full(3, 14.0), np.array([value, 1j * value, complex(math.nan, 0.0)])
        assert zero_analysis._hardy_z(heights, values)[1].tolist() == [True, False, False]
        for k in (1, 2):
            with pytest.raises(NonConvergence, match=re.escape("Z(14.0) is not real")):
                zero_analysis._z_negative(heights[[0, k]], values[[0, k]])

    @pytest.mark.parametrize("height", [0.0, 15.0, TestCriticalLineZeros.BETAS_30[0] + 1e-4])
    def test_z_in_doubt_raises(self, monkeypatch, height):
        # Z(0), the first split height and a bracket end are each needed:
        # a doubt there raises, where a doubtful grid sample is dropped
        _patch_hardy_z(monkeypatch, doubt=lambda y: y == height)
        with pytest.raises(NonConvergence, match=re.escape(f"Z({height}) is not real")):
            critical_line_zeros(30.0, 1e-4)


class TestZeroCount:
    """N(T) = theta(T)/pi + 1 + S(T), the root count of critical_line_zeros."""

    def test_theta_matches_mpmath_siegeltheta(self):
        mpmath = pytest.importorskip("mpmath")
        t = np.array([0.0, 1e-3, *np.random.default_rng(1401).uniform(0.0, 430.0, 100)])
        ref = np.array([float(mpmath.siegeltheta(x)) for x in t])
        # Stirling's bound at the shifted point, 1/(1680 * 8.25^7) < 3e-10,
        # plus rounding, with |theta| up to ~ 680
        assert np.all(np.abs(zero_analysis._theta(t) - ref) < 3e-10 + 1e-15 * np.abs(ref))

    def test_matches_mpmath_nzeros(self):
        # seeded heights, some below the first zero, and every height
        # 2 pi k/log 2, where eta vanishes at 1 + i T on the segment
        mpmath = pytest.importorskip("mpmath")
        heights = [0.01, 0.5, 1.0, 5.0, 14.13,
                   *np.random.default_rng(1402).uniform(0.0, 427.0, 40).tolist(),
                   *(2.0 * math.pi * k / math.log(2.0) for k in range(1, 48))]
        for height in heights:
            assert zero_analysis._zero_count(height) == int(mpmath.nzeros(height)), height

    @pytest.mark.parametrize("height", [30.0, 50.0, 100.0])
    def test_matches_winding_count(self, height):
        rect = RectangleRegion(0.1, 0.9, 0.0, height)
        assert zero_analysis._zero_count(height) == winding_count(eta, rect)

    def test_segment_shares_the_sample_budget(self, monkeypatch):
        # tau = 10 takes the 98 initial samples and no refinement
        seen = []
        monkeypatch.setattr(zero_analysis, "eta", lambda s: seen.append(s.size) or eta(s))
        monkeypatch.setattr(zero_analysis, "MAX_BOUNDARY_SAMPLES", 98)
        assert zero_analysis._zero_count(10.0) == 0 and seen == [98]
        monkeypatch.setattr(zero_analysis, "MAX_BOUNDARY_SAMPLES", 97)
        with pytest.raises(NonConvergence, match="budget"):
            zero_analysis._zero_count(10.0)
        assert seen == [98]

    def test_leaked_phase_raises(self, monkeypatch):
        # theta off by pi/2 puts N halfway between two integers
        theta = zero_analysis._theta
        monkeypatch.setattr(zero_analysis, "_theta", lambda t: theta(t) + math.pi / 2)
        with pytest.raises(NonConvergence, match=re.escape("phase tracking leaked: N(20.0) = 1.5")):
            critical_line_zeros(20.0)

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("tau, refused", [(5e-324, True), (1e-310, True), (1e-308, False),
                                              (1e-300, False)])
    def test_next_to_the_pole(self, tau, refused):
        # at the two subnormal heights a refinement midpoint rounds onto
        # Re(s) = 1, where zeta's quotient warned of overflow before refusing
        if refused:
            with pytest.raises(DomainError, match="is not finite"):
                critical_line_zeros(tau)
        else:
            assert critical_line_zeros(tau).betas == ()


class TestRiemannVonMangoldt:
    def test_at_thirty(self):
        assert riemann_von_mangoldt(30.0) == pytest.approx(3.5647, abs=1e-3)

    def test_at_fifty_vs_actual_count(self):
        est = riemann_von_mangoldt(50.0)
        assert abs(10 - est) < 1.5

    @pytest.mark.parametrize("height", [30.0, 40.0, 50.0])
    def test_matches_winding_count(self, height):
        rect = RectangleRegion(0.1, 0.9, 0.0, height)
        count = winding_count(lambda s: eta(s), rect)
        assert abs(count - riemann_von_mangoldt(height)) < 1.5

    def test_within_one_and_a_half_of_the_count(self):
        # the docstring's claim, against the segment count; the largest gap
        # below 427 is about 1.10, just above the zero at T = 415.455
        heights = np.random.default_rng(1403).uniform(2.0 * math.pi * math.e, 427.0, 60)
        for height in heights.tolist():
            gap = zero_analysis._zero_count(height) - riemann_von_mangoldt(height)
            assert abs(gap) < 1.5, height

    def test_boundary_value(self):
        assert riemann_von_mangoldt(2.0 * math.pi * math.e) == pytest.approx(
            0.875, abs=1e-12
        )

    def test_domain(self):
        for T in (10.0, math.nan, math.inf):
            with pytest.raises(DomainError):
                riemann_von_mangoldt(T)

    def test_past_the_float_range_refused(self):
        # the estimate overflowed to inf from T of about 1.6e306
        assert riemann_von_mangoldt(1.6e306) < math.inf
        for T in (1.7e306, 1e307, 1.7e308):
            with pytest.raises(DomainError, match="float range"):
                riemann_von_mangoldt(T)

    def test_complex_height_rejected(self):
        with pytest.raises(DomainError, match="real argument"):  # raised TypeError
            riemann_von_mangoldt(30.0 + 0j)


class TestJensen:
    def test_single_linear_factor(self):
        lhs, rhs = jensen_check(lambda z: z - 0.5, [0.5], 1.0, 512)
        assert abs(lhs) < 1e-12
        assert abs(rhs) < 1e-8

    def test_two_factors(self):
        roots = [0.3, -0.4j]
        lhs, rhs = jensen_check(poly_from_roots(roots), roots, 1.0, 512)
        assert abs(lhs - rhs) < 1e-8

    def test_random_polynomial_corpus(self):
        corpus = random_poly_corpus(np.random.default_rng(61), 100)
        for roots in corpus:
            lhs, rhs = jensen_check(poly_from_roots(roots), list(roots), 1.0, 512)
            assert abs(lhs - rhs) < 1e-8

    def test_zero_free_composed_integral(self):
        fn = lambda z: f_on_disk(z, 0.9, 1e-8)
        lhs, rhs = jensen_check(fn, [], 0.95, 384)
        assert abs(lhs - rhs) < 1e-4

    def test_zero_at_center(self):
        with pytest.raises(ZeroAtCenter):
            jensen_check(lambda z: z, [0.0], 1.0, 64)

    def test_zero_on_circle(self):
        with pytest.raises(BoundaryZeroError):
            jensen_check(lambda z: z - 1.0, [1.0 + 0j], 1.0, 64)

    def test_zero_at_circle_sample_names_it(self):
        # no zero passed in, so only the sample itself can catch it
        with pytest.raises(BoundaryZeroError, match=re.escape("|fn((1+0j))| = 0.000e+00")):
            jensen_check(lambda z: z - 1.0, [], 1.0, 8)

    # the last two have finite values whose modulus passes the float range,
    # where abs raised a bare OverflowError
    @pytest.mark.parametrize("fn", [lambda z: math.nan, lambda z: complex(1.0, math.inf),
                                    lambda z: 1.0 if z == 0 else math.nan,
                                    lambda z: 1.7e308 + 1.7e308j,
                                    lambda z: 1.0 if z == 0 else 1.7e308 + 1.7e308j])
    def test_non_finite_value_rejected(self, fn):
        with pytest.raises(DomainError):
            jensen_check(fn, [], 1.0, 8)

    @pytest.mark.parametrize("zero", [0.0, 1e-320j])
    def test_listed_zero_at_the_centre_rejected(self, zero):
        # log(R/|z|) divided by zero (ZeroDivisionError) or read inf
        with pytest.raises(DomainError, match="at the centre"):
            jensen_check(lambda z: z - 0.5, [zero], 1.0, 8)

    def test_zero_outside_disk_rejected(self):
        with pytest.raises(DomainError):
            jensen_check(lambda z: z - 2.0, [2.0 + 0j], 1.0, 64)

    def test_nan_radius_rejected(self):
        with pytest.raises(DomainError):
            jensen_check(lambda z: z - 2.0, [], math.nan, 64)

    @pytest.mark.parametrize("samples", [10**6 + 1, 10**20, 10**5000, -10**5000],
                             ids=["limit+1", "1e20", "1e5000", "-1e5000"])
    def test_sample_limit_checked_before_fn(self, samples):
        # 10**20 samples ran one fn call each for more than five minutes, and
        # the refusal of -10**5000 raised ValueError writing out the int
        limit = zero_analysis.JENSEN_MAX_SAMPLES
        assert limit == 10**6

        def fn(z):
            raise AssertionError(f"fn called at {z}")

        with pytest.raises(DomainError, match=f"^samples must be an integer from 8 to {limit}$"):
            jensen_check(fn, [], 0.5, samples)

    def test_infinite_radius_and_fractional_samples_rejected(self):
        with pytest.raises(DomainError):
            jensen_check(lambda z: z - 2.0, [], math.inf, 8)
        with pytest.raises(DomainError, match="integer"):
            jensen_check(lambda z: z - 2.0, [], 0.5, 8.5)


class TestTitchmarsh:
    def test_equal_modulus_no_zeros(self):
        assert titchmarsh_zero_bound(1.0, 1.0, 0.5) == 0.0

    def test_worked_example(self):
        bound = titchmarsh_zero_bound(1.25, 0.25, 0.6)
        assert bound == pytest.approx(3.150660103087123, abs=1e-12)
        roots = [0.5, -0.5]
        count = sum(1 for r in roots if abs(r) <= 0.6)
        assert count == 2 <= bound

    def test_soundness_on_corpus(self):
        corpus = random_poly_corpus(np.random.default_rng(67), 100)
        for roots in corpus:
            f0 = abs(poly_from_roots(roots)(0j))
            big_m = max(poly_circle_max(roots), f0)
            for delta in (0.5, 0.7, 0.9):
                bound = titchmarsh_zero_bound(big_m, f0, delta)
                assert sum(1 for r in roots if abs(r) <= delta) <= bound

    def test_zero_free_predicate_soundness(self):
        corpus = random_poly_corpus(np.random.default_rng(67), 100)
        for roots in corpus:
            f0 = abs(poly_from_roots(roots)(0j))
            big_m = max(poly_circle_max(roots), f0)
            for delta in (0.5, 0.7, 0.9):
                if titchmarsh_zero_free(big_m, f0, delta):
                    assert not any(abs(r) <= delta for r in roots)
                    assert delta < f0 / big_m <= 1.0

    def test_gauge_predicate(self):
        # delta chosen below G(b)/M*(1/2) makes the zero-free predicate true.
        cap = m_star(0.5, 1e-9)
        b = 0.99
        g_val = g_of_b(b, 1e-9)
        delta = 0.9 * g_val / cap
        assert titchmarsh_zero_free(cap, g_val, delta)

    def test_domain(self):
        # both functions share one argument check
        for fn in (titchmarsh_zero_bound, titchmarsh_zero_free):
            for args in [(1.0, 2.0, 0.5),  # f0 > M
                         (1.0, 0.5, 1.0), (1.0, 0.0, 0.5), (math.inf, 0.5, 0.5)]:
                with pytest.raises(DomainError):
                    fn(*args)

    def test_complex_bound_rejected(self):
        with pytest.raises(DomainError, match="real argument"):  # raised TypeError
            titchmarsh_zero_bound(2.0 + 0j, 1.0, 0.5)

    def test_one_formula(self):
        # log M - log|f(0)| everywhere, not log(M/|f(0)|) with a fallback for
        # an overflowing quotient; at (1.5, 0.1) the two differ in the last bit
        for big_m, f0, delta in [(1.25, 0.25, 0.6), (1.5, 0.1, 0.9)]:
            expected = (math.log(big_m) - math.log(f0)) / math.log(1.0 / delta)
            assert titchmarsh_zero_bound(big_m, f0, delta) == expected

    @pytest.mark.parametrize("big_m, f0", [(1.0 + 1e-320, 1e-320), (1e308, 1e-300)])
    def test_ratio_past_the_float_range(self, big_m, f0):
        # M/|f(0)| overflowed, and the bound was inf
        expected = (math.log(big_m) - math.log(f0)) / math.log(2.0)
        assert titchmarsh_zero_bound(big_m, f0, 0.5) == pytest.approx(expected, rel=1e-15)
        assert 1000.0 < expected < math.inf


class TestBlaschke:
    def test_empty_product(self):
        assert blaschke_L(0.3 + 0.2j, []) == 1.0 + 0j

    def test_array_equals_scalar_calls(self):
        rng = np.random.default_rng(8080)
        omega = rng.uniform(0.0, 0.5, 2000) + 1j * rng.uniform(0.0, 40.0, 2000)
        for n in range(len(ZERO_ORDINATES) + 1):
            betas = list(ZERO_ORDINATES[:n])
            keep = np.array([min((abs(w - 1j * b) for b in betas), default=1.0) >= 2e-3
                             for w in omega.tolist()])
            points = omega[keep]
            got = blaschke_L(points, betas)
            assert isinstance(got, np.ndarray) and got.shape == points.shape
            assert got.tolist() == [blaschke_L(w, betas) for w in points.tolist()]
        grid = omega[:6].reshape(2, 3)
        assert blaschke_L(grid, [40.5]).shape == (2, 3)

    @pytest.mark.parametrize("omega", [(0.1 + 1j, 0.2 + 2j), [0.1 + 1j, 0.2 + 2j]])
    def test_sequence_gives_an_array(self, omega):
        # a tuple or a list was computed as an array, then complex() of the
        # result raised a bare TypeError
        got = blaschke_L(omega, [14.1])
        assert isinstance(got, np.ndarray) and got.shape == (2,)
        assert got.tolist() == [blaschke_L(w, [14.1]) for w in omega]

    def test_array_with_empty_zero_list_gives_ones(self):
        omega = np.array([0.1 + 1j, 0.4 + 25j, 0.0])
        got = blaschke_L(omega, [])
        assert got.dtype == complex and got.tolist() == [1.0, 1.0, 1.0]

    def test_array_pole_proximity(self):
        # only a pole itself, where a factor is 0/0, raises; 1e-5 away the
        # product is unimodular to rounding
        omega = np.array([0.2 + 3j, 0.1 + 20j, 1j * ZERO_ORDINATES[1]])
        with pytest.raises(PoleProximity, match=f"pole i\\*{ZERO_ORDINATES[1]}"):
            blaschke_L(omega, ZERO_ORDINATES)
        assert np.abs(np.abs(blaschke_L(omega + 1e-5, ZERO_ORDINATES)) - 1.0).max() <= 1e-15
        with pytest.raises(DomainError):
            blaschke_L(np.array([0.2 + 3j, complex(math.nan, 1.0)]), ZERO_ORDINATES)

    @pytest.mark.parametrize("zeros", [[math.nan], [math.inf]])
    def test_non_finite_zero_height(self, zeros):
        with pytest.raises(DomainError):
            blaschke_L(0.1 + 1j, zeros)

    def test_complex_zero_height(self):  # raised TypeError
        with pytest.raises(DomainError, match="real argument"):
            blaschke_L(0.1 + 1j, [1 + 1j])

    @pytest.mark.parametrize("omega", [-1.7e308 - 1.7e308j, np.array([-1.7e308 - 1.7e308j])])
    def test_overflowing_product(self, omega):  # returned nan+nanj with two warnings
        with pytest.raises(DomainError, match="not finite"):
            blaschke_L(omega, [14.13, 21.02])

    def test_single_factor_unimodular(self):
        assert abs(abs(blaschke_L(0.3 + 0.2j, [14.1347])) - 1.0) < 1e-12

    def test_three_factors(self):
        v = blaschke_L(0.1 + 14.1j, list(ZERO_ORDINATES))
        assert abs(abs(v) - 1.0) < 1e-12

    def test_pole_proximity(self):
        with pytest.raises(PoleProximity):
            blaschke_L(14.1347j, [14.1347])
        for omega in (1e-5 + 14.1347j, 14.13471j, 14.13469j):
            assert abs(abs(blaschke_L(omega, [14.1347])) - 1.0) <= 1e-15

    def test_unimodular_near_its_poles(self):
        # numerator and denominator of a factor are exact conjugates however
        # close omega comes to its pole, so no radius around a pole is refused
        rng = np.random.default_rng(2024)
        for b in ZERO_ORDINATES:
            dist = 10.0 ** rng.uniform(-14.0, -3.0, 2000)
            angle = rng.uniform(-0.5 * math.pi, 0.5 * math.pi, 2000)  # Re(omega) >= 0
            L = blaschke_L(1j * b + dist * np.exp(1j * angle), ZERO_ORDINATES)
            assert np.abs(np.abs(L) - 1.0).max() <= 1e-15

    def test_random_sweep(self):
        rng = np.random.default_rng(73)
        betas = list(ZERO_ORDINATES)
        count = 0
        while count < 1000:
            omega = complex(rng.uniform(0, 0.5), rng.uniform(0, 30.0))
            n = int(rng.integers(0, 4))
            subset = betas[:n]
            if subset and min(abs(omega - 1j * b) for b in subset) < 2e-3:
                continue
            count += 1
            assert abs(abs(blaschke_L(omega, subset)) - 1.0) < 1e-12


@settings(max_examples=500, deadline=None)
@given(
    re=st.floats(0.0, 0.5),
    im=st.floats(0.0, 40.0),
)
def test_blaschke_unimodular_property(re, im):
    omega = complex(re, im)
    betas = [14.134725141734693, 21.022039638771555]
    if min(abs(omega - 1j * b) for b in betas) < 2e-3:
        return
    assert abs(abs(blaschke_L(omega, betas)) - 1.0) < 1e-12


class TestLambdaChoice:
    def test_worked_example(self):
        assert lambda_choice(1.0, 0.1, 0.01) == pytest.approx(10.8215, abs=1e-3)

    def test_nu_limit(self):
        assert lambda_choice(1.0, 1.0, 1e-12) == pytest.approx(1.07215, abs=1e-4)

    def test_epsilon_homogeneity(self):
        assert lambda_choice(1.0, 0.2, 0.01) == pytest.approx(
            lambda_choice(1.0, 0.1, 0.01) / 2.0, abs=1e-12
        )

    def test_domain(self):
        with pytest.raises(DomainError):
            lambda_choice(0.0, 0.1, 0.01)
        with pytest.raises(DomainError):
            lambda_choice(1.0, -0.1, 0.01)
        for args in [(math.nan, 0.1, 0.01), (1.0, math.nan, 0.01), (1.0, 0.1, math.nan),
                     (math.inf, 0.1, 0.01)]:  # an infinite theta_abs gave lam = 0
            with pytest.raises(DomainError):
                lambda_choice(*args)

    # lam = inf, lam = 0.0 and a ZeroDivisionError from theta_abs*epsilon underflowing
    @pytest.mark.parametrize("args", [(1.0, 1e-320, 1.0), (1.0, 0.1, 1e308),
                                      (1e300, 1e300, 0.01), (1e-200, 1e-200, 0.01)])
    def test_lam_past_the_float_range(self, args):
        with pytest.raises(DomainError, match="lam .* is not positive and finite"):
            lambda_choice(*args)


class TestTriangleEquality:
    def test_collinear_positive(self):
        assert triangle_equality_condition(2.0 + 2.0j, 1.0 + 1.0j)

    def test_orthogonal(self):
        assert not triangle_equality_condition(1j, 1.0 + 0j)

    # |w| raised a bare OverflowError; |w + v| read inf and the answer was True
    @pytest.mark.parametrize("w, v", [(1.7e308 + 1.7e308j, 1.0), (1e308, 1e308)])
    def test_modulus_past_the_float_range(self, w, v):
        with pytest.raises(DomainError, match="is not finite"):
            triangle_equality_condition(w, v)

    def test_antiparallel_fails(self):
        # w = -v is collinear with a real ratio yet equality does not hold:
        # the ratio must be nonnegative.
        assert not triangle_equality_condition(-1.0 + 0j, 1.0 + 0j)

    def test_cross_term_vanishes_when_true(self):
        rng = np.random.default_rng(79)
        for _ in range(50):
            v = complex(rng.uniform(-1, 1), rng.uniform(-1, 1))
            if abs(v) < 0.1:
                continue
            w = float(rng.uniform(0.1, 3.0)) * v
            assert triangle_equality_condition(w, v)
            cross = abs(w.real * v.imag - v.real * w.imag)
            assert cross < 1e-9 * abs(w) * abs(v) + 1e-15


class TestRoucheScan:
    def test_no_zeros_below_ten(self):
        scan = rouche_scan(10.0, epsilon=0.1, nu=0.01)
        assert scan.min_margin >= -1e-12
        assert scan.min_f_abs > 0.0
        assert scan.zeros == ()
        # with no zero to neutralize f(0) and g(0) are positive reals, so the
        # margin is exactly 0 at omega = 0
        assert (scan.min_margin, scan.argmin_omega) == (0.0, 0j)

    def test_k16_with_first_zero(self):
        scan = rouche_scan(16.0, epsilon=0.1, nu=0.01)
        # lam is worked out from epsilon and nu, bit for bit
        assert scan.lam == lambda_choice(1.0, 0.1, 0.01)
        assert scan.min_margin >= -1e-12
        assert scan.min_f_abs > 0.0
        assert scan.boundary_samples > 2000
        assert scan.zeros == _located_zeros(16.0)
        assert scan.zeros == pytest.approx((ZERO_ORDINATES[0],), abs=1e-9)

    def test_genericity_shift(self, monkeypatch):
        # tau placed exactly on a zero height must be shifted upward.
        monkeypatch.setattr(zero_analysis, "SAMPLES_PER_UNIT", 16)
        scan = rouche_scan(ZERO_ORDINATES[0], epsilon=0.1, nu=0.01)
        assert scan.tau > ZERO_ORDINATES[0] + 1e-2 / 2
        assert scan.min_margin >= -1e-12

    def test_two_neutralized_zeros(self, monkeypatch):
        # above the second zero the left-edge |F_omega| ~ e^(-pi Im/2) sinks
        # under its own quadrature error bound near Im 21, so no scan over
        # both zeros can exclude a boundary zero: it must raise, naming the
        # first unresolved sample as the per-sample loop does.  The two-zero
        # arithmetic is checked at tau = 16 in TestRoucheScanMatchesPerSampleLoop.
        lam = lambda_choice(1.0, 0.1, 0.01)
        zeros = _located_zeros(22.0)
        assert zeros == pytest.approx(ZERO_ORDINATES[:2], abs=1e-9)
        with pytest.raises(BoundaryZeroError, match="within its error bound") as ref:
            _per_sample_scan(22.0, lam, 0.1, zeros=zeros, density=32)
        monkeypatch.setattr(zero_analysis, "SAMPLES_PER_UNIT", 32)
        with pytest.raises(BoundaryZeroError) as got:
            rouche_scan(22.0, epsilon=0.1, nu=0.01)
        assert str(got.value) == str(ref.value)
        assert str(got.value) == ("|F_omega(21.15625j)| = 3.100e-15"
                                  " within its error bound 3.370e-15")

    def test_answers_where_f_is_small_but_resolved(self, monkeypatch):
        # the corner 0.5 + 18i lies 0.13 from F's zero at s = 1 + 18.13i
        # (1 - 2^(1-s) vanishes there): |f| = 9.3e-13, yet every estimate
        # stands above its error bound, so no boundary zero is possible there
        monkeypatch.setattr(zero_analysis, "SAMPLES_PER_UNIT", 16)
        scan = rouche_scan(18.0, epsilon=0.1, nu=0.01)
        assert 0.0 < scan.min_f_abs < 1e-12
        assert scan.min_margin >= -1e-12

    def test_margin_nonnegative_everywhere(self, monkeypatch):
        monkeypatch.setattr(zero_analysis, "SAMPLES_PER_UNIT", 32)
        scan = rouche_scan(10.0, epsilon=0.25, nu=0.2)
        assert scan.lam == lambda_choice(1.0, 0.25, 0.2)
        assert scan.min_margin >= -1e-12
        assert (scan.min_margin, scan.argmin_omega) == (0.0, 0j)  # f(0), g(0) > 0

    def test_domain(self):
        for tau, epsilon, nu in [(0.0, 0.1, 0.01), (10.0, -0.1, 0.01), (10.0, 0.1, -0.01),
                                 (math.nan, 0.1, 0.01), (10.0, math.nan, 0.01),
                                 (10.0, 0.1, math.nan), (math.inf, 0.1, 0.01),
                                 (10.0, math.inf, 0.01), (10.0, 0.1, math.inf)]:
            with pytest.raises(DomainError, match="tau, epsilon and nu must be positive"):
                rouche_scan(tau, epsilon=epsilon, nu=nu)
        # lam = (M*(1/2) + nu)/epsilon past the float range, and g = lam*(epsilon
        # + omega) past it on K(10) though lam is finite
        with pytest.raises(DomainError, match=re.escape("lam = (M*(1/2) + nu)")):
            rouche_scan(10.0, epsilon=0.1, nu=1e308)
        with pytest.raises(DomainError, match=re.escape("g = lam*(epsilon + omega) is not finite")):
            rouche_scan(10.0, epsilon=1e-308, nu=0.01)

    def test_sample_budget_checked_before_the_zeros(self, monkeypatch):
        # K(tau) takes 2 * (32 + ceil(64 tau)) samples: 500,000 up to tau = 3905.75
        monkeypatch.setattr(zero_analysis, "critical_line_zeros", None)
        for tau in (3906.0, 1e300):
            with pytest.raises(DomainError, match="500000"):
                rouche_scan(tau, epsilon=0.1, nu=0.01)
        assert zero_analysis._boundary_size(RectangleRegion(0.0, 0.5, 0.0, 3905.75)) == 500_000

    @pytest.mark.parametrize("tau", [16.0, ZERO_ORDINATES[0]])
    def test_neutralizes_exactly_the_located_zeros(self, tau, monkeypatch):
        # the scan locates its zeros above tau with the default zero_tol and
        # neutralizes those below its final tau, shifted or not
        monkeypatch.setattr(zero_analysis, "SAMPLES_PER_UNIT", 8)
        calls = []

        def spy(*args, **kwargs):
            calls.append((args, kwargs))
            return critical_line_zeros(*args, **kwargs)

        monkeypatch.setattr(zero_analysis, "critical_line_zeros", spy)
        scan = rouche_scan(tau, epsilon=0.1, nu=0.01)
        assert calls == [((tau + 6.0 * zero_analysis.EXCLUSION_TOL,), {})]
        located = _located_zeros(tau)
        assert scan.zeros == tuple(b for b in located if b <= scan.tau)
        assert scan.zeros == pytest.approx((ZERO_ORDINATES[0],), abs=1e-9)

    def test_sample_at_a_neutralized_height_raises_before_any_quadrature(self, monkeypatch):
        # at 8 samples per unit the left edge of K(16) holds the sample 12j
        # exactly, where a factor of L is 0/0
        monkeypatch.setattr(zero_analysis, "SAMPLES_PER_UNIT", 8)
        assert 12j in zero_analysis._boundary_points(RectangleRegion(0.0, 0.5, 0.0, 16.0))
        monkeypatch.setattr(zero_analysis, "critical_line_zeros",
                            lambda tau: CriticalZeroList((12.0,), tau))
        monkeypatch.setattr(zero_analysis, "f_shifted", None)
        with pytest.raises(PoleProximity, match=re.escape("pole i*12.0")):
            rouche_scan(16.0, epsilon=0.1, nu=0.01)

    def test_f_shifted_once_per_sample_plus_tighter_passes(self, monkeypatch):
        # every sample takes the same route, so no quadrature runs off the
        # boundary: 2,112 first passes at tol 1e-10 and 31 tighter ones at
        # 1e-13 at tau = 16
        calls = []

        def spy(omega, tol):
            calls.append((omega, tol))
            return f_shifted(omega, tol)

        monkeypatch.setattr(zero_analysis, "f_shifted", spy)
        scan = rouche_scan(16.0, epsilon=0.1, nu=0.01)
        samples = zero_analysis._boundary_points(RectangleRegion(0.0, 0.5, 0.0, scan.tau))
        assert [w for w, tol in calls if tol == 1e-10] == samples.tolist()
        for k, (omega, tol) in enumerate(calls):
            if tol != 1e-10:  # a tighter pass right after its sample's first
                assert tol == 1e-13 and calls[k - 1] == (omega, 1e-10)
        assert scan.boundary_samples == 2112
        assert Counter(tol for _, tol in calls) == {1e-10: 2112, 1e-13: 31}


def _located_zeros(tau):
    """The zeros rouche_scan(tau, ...) locates: critical_line_zeros above tau."""
    return critical_line_zeros(tau + 6.0 * zero_analysis.EXCLUSION_TOL).betas


def _per_sample_scan(tau, lam, epsilon, *, zeros, density):
    """rouche_scan as a loop over samples, each f its F_omega estimate times
    one scalar blaschke_L call: the reference for the array version.  The
    estimate is f_shifted at tol 1e-10, again at 1e-13 where the value is
    below 50 times its error bound."""
    exclusion_tol = zero_analysis.EXCLUSION_TOL
    betas = [float(b) for b in zeros]
    while any(abs(b - tau) < exclusion_tol for b in betas):
        tau += 5.0 * exclusion_tol
    betas = [b for b in betas if b <= tau]

    samples = _list_boundary_points(RectangleRegion(0.0, 0.5, 0.0, tau), density)
    min_margin, argmin_omega = math.inf, samples[0]
    min_f_abs, argmin_f = math.inf, samples[0]
    for omega in samples:
        near = any(abs(omega - 1j * b) < exclusion_tol for b in betas)
        est = f_shifted(omega, 1e-10)
        if abs(est.value) < 50.0 * est.abs_error:
            est = f_shifted(omega, 1e-13)
        if not near and not est.resolved:
            raise BoundaryZeroError(
                f"|F_omega({omega})| = {abs(est.value):.3e}"
                f" within its error bound {est.abs_error:.3e}"
            )
        fv = est.value * blaschke_L(omega, betas)
        gv = lam * (epsilon + omega)
        margin = abs(fv) + abs(gv) - abs(fv + gv)
        if margin < min_margin:
            min_margin, argmin_omega = margin, omega
        if not near and abs(fv) < min_f_abs:
            min_f_abs, argmin_f = abs(fv), omega
    return zero_analysis.RoucheScanResult(
        tau=float(tau), lam=float(lam), epsilon=float(epsilon), min_margin=float(min_margin),
        argmin_omega=argmin_omega, boundary_samples=len(samples), min_f_abs=float(min_f_abs),
        argmin_f_omega=argmin_f, zeros=tuple(betas),
    )


class TestRoucheScanMatchesPerSampleLoop:
    LAM = lambda_choice(1.0, 0.1, 0.01)
    # ((tau, epsilon, nu), injected heights or None for the located zeros,
    # samples per unit); at density 37 one sample lies within 1e-3 of the first zero and
    # one within 1e-3 of 8.0005 (test_density_37_samples_next_to_each_height).
    # That height is not a zero, so only a stand-in for critical_line_zeros
    # can inject it: it is there for the two-height arithmetic of L, which no
    # tau above the second zero can check, since the scan raises there
    # (test_two_neutralized_zeros)
    CASES = [
        ((10.0, 0.1, 0.01), None, 8),
        ((16.0, 0.1, 0.01), None, 37),
        ((16.0, 0.1, 0.01), (8.0005, ZERO_ORDINATES[0]), 37),
        ((ZERO_ORDINATES[0], 0.1, 0.01), None, 16),
    ]

    @pytest.mark.parametrize("case", range(len(CASES)))
    def test_every_field_equal(self, case, monkeypatch):
        (tau, epsilon, nu), injected, density = self.CASES[case]
        zeros = _located_zeros(tau) if injected is None else injected
        ref = _per_sample_scan(tau, lambda_choice(1.0, epsilon, nu), epsilon,
                               zeros=zeros, density=density)
        monkeypatch.setattr(zero_analysis, "SAMPLES_PER_UNIT", density)
        if injected is not None:
            monkeypatch.setattr(zero_analysis, "critical_line_zeros",
                                lambda tau: CriticalZeroList(injected, tau))
        assert rouche_scan(tau, epsilon=epsilon, nu=nu) == ref

    def test_density_37_samples_next_to_each_height(self):
        samples = _list_boundary_points(RectangleRegion(0.0, 0.5, 0.0, 16.0), 37)
        for b in (8.0005, ZERO_ORDINATES[0]):
            assert min(abs(w - 1j * b) for w in samples) < 1e-3

    def test_array_arithmetic_rounds_as_python_scalars(self):
        # np.abs differs from Python's abs in the last bit on many values
        rng = np.random.default_rng(4242)
        parts = rng.normal(size=(4, 20_000)) * 10.0 ** rng.uniform(-12, 3, (4, 20_000))
        for v in (parts[0] + 1j * parts[1], parts[2] + 1j * parts[3]):
            assert np.array_equal(zero_analysis._modulus(v), [abs(x) for x in v.tolist()])

    def test_floor_violation_names_the_same_first_sample(self, monkeypatch):
        # F_omega vanishes on the right edge at Im = 2 pi k / log 2; with tau
        # at k = 2 the k = 1 zero is the right edge's midpoint sample and the
        # k = 2 zero its top corner, both unresolved: the first is named
        tau = 4.0 * math.pi / math.log(2.0)
        with pytest.raises(BoundaryZeroError, match=re.escape(f"(0.5+{tau / 2}j)")) as ref:
            _per_sample_scan(tau, self.LAM, 0.1, zeros=_located_zeros(tau), density=8)
        monkeypatch.setattr(zero_analysis, "SAMPLES_PER_UNIT", 8)
        with pytest.raises(BoundaryZeroError) as got:
            rouche_scan(tau, epsilon=0.1, nu=0.01)
        assert str(got.value) == str(ref.value)


class TestZeroCountTransfer:
    def test_g_has_no_zeros_in_k16(self):
        lam = lambda_choice(1.0, 0.1, 0.01)
        rect = RectangleRegion(0.0, 0.5, 0.0, 16.0)
        assert winding_count(lambda w: lam * (0.1 + w), rect) == 0
