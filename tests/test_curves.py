import tracemalloc

import numpy as np
import pytest

from hitchsov import curves
from hitchsov.curves import (build_curve, continue_y, route_path,
                             integrate_monomials, period_matrix, abel_map,
                             lattice_reduce)
from hitchsov.theta import jacobi_inversion_check
from hitchsov.errors import (DegreeError, DuplicateBranchPoint,
                             BranchProximity, ContinuationAmbiguity,
                             CycleDegenerate)

from conftest import disc_curves, make_curve
import continuation_oracle as oracle
import contour_oracle
import mp_chain_oracle

npoly = np.polynomial.polynomial


def loop_around(center, radius, n=64):
    ang = np.linspace(0.0, 2 * np.pi, n + 1)
    return center + radius * np.exp(1j * ang)


def bisection_continue(curve, a, b, y0, depth=0):
    """Continuation by recursive step halving, one scalar sheet choice per
    point: the reference for the array continuation."""
    y1 = oracle.sheet_step(curve, b, y0)
    if abs(y1 - y0) <= 0.1 * max(abs(y0), abs(y1)) or depth >= 48:
        return y1
    mid = 0.5 * (a + b)
    if curve.nearest_branch_distance(mid) < curve.exclusion_radius:
        raise BranchProximity(f"continuation forced through x={mid} near a branch point")
    ym = bisection_continue(curve, a, mid, y0, depth + 1)
    return bisection_continue(curve, mid, b, ym, depth + 1)


@pytest.fixture(scope="module")
def curve_pentagon():
    """The regular pentagon of radius 1.5 turned by 0.3 rad."""
    return make_curve(1.5 * np.exp(2j * np.pi * np.arange(5) / 5 + 0.3j))


@pytest.fixture(scope="module")
def curve_g3():
    """A genus-3 curve with branch points 0..5 and 6.5."""
    return make_curve([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.5])


class TestValidation:
    def test_even_degree_rejected(self):
        with pytest.raises(DegreeError):
            build_curve(npoly.polyfromroots([1, 2, 3, 4]))

    def test_zero_leading_coefficient(self):
        with pytest.raises(DegreeError, match="leading coefficient"):
            build_curve([1, 0, 0, 0, 0, 0])

    def test_degree_three_rejected(self):
        with pytest.raises(DegreeError, match=">= 5, got 3"):
            build_curve(npoly.polyfromroots([1, 2, 3]))

    def test_duplicate_branch_points(self):
        with pytest.raises(DuplicateBranchPoint):
            build_curve(npoly.polyfromroots([1, 1, 2, 3, 4]))

    @pytest.mark.parametrize("coeffs", [[0, 0, 0, 0, 0, 1],
                                        [0, 0, 0, -1, 0, 1]])
    def test_exactly_repeated_roots(self, coeffs):
        """y^2 = x^5 and y^2 = x^3 (x^2 - 1): P' vanishes exactly at the
        repeated root, which the Newton polish leaves out."""
        with pytest.raises(DuplicateBranchPoint):
            build_curve(coeffs)

    def test_triple_root_rejected(self):
        with pytest.raises(DuplicateBranchPoint):
            build_curve(npoly.polyfromroots([1, 1, 1, 2, 3]))

    def test_complex_double_root_rejected(self):
        z = 0.3 + 0.7j
        with pytest.raises(DuplicateBranchPoint):
            build_curve(npoly.polyfromroots([z, z, -1, 1.5, 2j]))

    def test_resolved_close_pair_builds(self):
        cv = build_curve(npoly.polyfromroots([1, 1.0001, 2, 3, 4]))
        assert abs(cv.min_separation - 1e-4) < 1e-10

    def test_nonmonic_normalized(self):
        cv = build_curve(3.0 * npoly.polyfromroots([1, 2, 3, 4, 5]))
        assert abs(cv.coeffs[-1] - 1.0) < 1e-14


class TestContinuation:
    def test_single_branch_loop_flips_sheet(self, curve15):
        path = loop_around(1.0, 0.4)
        y0 = np.sqrt(complex(curve15.p(path[0])))
        y1 = continue_y(curve15, path, y0)[-1]
        assert abs(y1 + y0) < 1e-8 * abs(y0)

    def test_double_branch_loop_preserves_sheet(self, curve15):
        path = loop_around(1.5, 0.8)   # encircles 1 and 2
        y0 = np.sqrt(complex(curve15.p(path[0])))
        y1 = continue_y(curve15, path, y0)[-1]
        assert abs(y1 - y0) < 1e-8 * abs(y0)

    def test_empty_loop_identity(self, curve15):
        path = loop_around(1.5 + 2.0j, 0.3)
        y0 = np.sqrt(complex(curve15.p(path[0])))
        y1 = continue_y(curve15, path, y0)[-1]
        assert abs(y1 - y0) < 1e-8 * abs(y0)

    def test_branch_proximity_raises(self, curve15):
        path = np.array([0.0, 1.0 + curve15.exclusion_radius * 0.1])
        y0 = np.sqrt(complex(curve15.p(0.0)))
        with pytest.raises(BranchProximity):
            continue_y(curve15, path, y0)


    @pytest.mark.parametrize("name", ["curve15", "curve_c"])
    def test_nodes_match_bisection(self, name, request):
        curve = request.getfixturevalue(name)
        x_start, y_start = oracle._chart_exit(curve, curves._chart_radius(curve))
        e = curve.branch_points[0]
        arc = curves.route_path(curve, e - 0.5, e + 0.5)
        assert len(arc) > 2  # detours round e on a circular arc
        nodes = np.polynomial.legendre.leggauss(10)[0]
        gl = 0.5 * (x_start + 0.3j) + 0.5 * (0.3j - x_start) * nodes
        y_arc = np.sqrt(complex(curve.p(arc[0])))
        for a, xs, y0 in [(arc[0], arc[1:], y_arc), (arc[0], arc[1:], -y_arc),
                          (x_start, np.r_[gl, 0.3j], y_start),
                          (1.0 + 0.4, loop_around(1.0, 0.4)[1:],
                           np.sqrt(complex(curve.p(1.4))))]:
            ref, yp, prev = [], y0, a
            for x in xs:
                yp = bisection_continue(curve, prev, x, yp)
                ref.append(yp)
                prev = x
            ref = np.array(ref)
            ys = continue_y(curve, np.r_[a, xs], y0)[1:]
            assert np.all(np.abs(ys - ref) < np.abs(ys + ref))
            assert np.all(np.abs(ys - ref) <= 1e-12 * np.abs(ref))

    def test_midpoint_near_branch_point_raises(self, curve15):
        # the waypoints clear the branch point 3; the segment between
        # them passes through it
        d = 20 * curve15.exclusion_radius
        y0 = np.sqrt(complex(curve15.p(3.0 - d)))
        with pytest.raises(BranchProximity, match="forced through"):
            continue_y(curve15, [3.0 - d, 3.0 + d], y0)


class TestChartExit:
    @pytest.mark.parametrize("name", ["curve15", "curve_c"])
    def test_start_on_curve_and_series_sheet(self, name, request):
        curve = request.getfixturevalue(name)
        z0 = curves._chart_radius(curve)
        x, y = oracle._chart_exit(curve, z0)
        assert abs(x - z0 ** -2.0) <= 1e-15 * abs(x)
        px = curve.p(x)
        assert abs(y * y - px) <= 1e-10 * abs(px)
        # the series sheet: y z^(2g+1) = sqrt(Q(z^2)) continued from
        # sqrt(Q(0)) = 1 along the ray u in [0, z0^2]
        q = curve.coeffs[::-1]
        s = 1.0 + 0j
        for u in np.linspace(0.0, z0 ** 2, 201)[1:]:
            r = np.sqrt(complex(npoly.polyval(u, q)))
            s = r if abs(r - s) <= abs(r + s) else -r
        ref = z0 ** -(2 * curve.genus + 1) * s
        assert abs(y - ref) <= 1e-12 * abs(ref)


class TestRouting:
    def test_route_keeps_clearance(self, curve15):
        wp = route_path(curve15, 0.0, 6.0)
        for x in wp:
            assert curve15.nearest_branch_distance(x) \
                > 0.99 * curve15.exclusion_radius
        assert abs(wp[0] - 0.0) < 1e-12 and abs(wp[-1] - 6.0) < 1e-12

    def test_direct_route_untouched(self, curve15):
        wp = route_path(curve15, 10.0 + 5.0j, 12.0 + 5.0j)
        assert len(wp) == 2


class TestPeriods:
    def test_tau_symmetric_positive(self, curve15, theta15):
        tau = theta15.tau
        assert np.abs(tau - tau.T).max() < 1e-6
        ev = np.linalg.eigvalsh(tau.imag)
        assert ev.min() > 0

    def test_tau_complex_branch_curve(self, curve_c):
        td = period_matrix(curve_c)
        assert np.abs(td.tau - td.tau.T).max() < 1e-6
        assert np.linalg.eigvalsh(td.tau.imag).min() > 0

    def test_quadrature_consistency(self, curve15):
        # same open path integrated directly and split in two
        y0 = np.sqrt(complex(curve15.p(-2.0)))
        whole = integrate_monomials(curve15, [-2.0, -2.0 + 1.5j], y0)[0]
        half, y_mid = integrate_monomials(
            curve15, [-2.0, -2.0 + 0.75j], y0)
        rest = integrate_monomials(
            curve15, [-2.0 + 0.75j, -2.0 + 1.5j], y_mid)[0]
        assert np.abs(whole - (half + rest)).max() < 1e-9

    @staticmethod
    def noisy_panel(where):
        """Panel callback for the integral of 1 over [a, b], whose K21 and
        G10 sums O(1) noise parts on the panels that where(a, b) selects."""
        rng = np.random.default_rng(0)

        def panel(a, b, start):
            noise = where(a, b) * rng.standard_normal(len(a))
            return np.stack((b - a, b - a + noise), axis=1)[:, :, None], start
        return panel

    def test_quadrature_cap_raises(self):
        # noise on the panels that hold x = 0.3 keeps one pair of halves
        # active on every level, down to the depth cap
        panel = self.noisy_panel(lambda a, b: (a.real <= 0.3) & (0.3 <= b.real))
        with pytest.raises(CycleDegenerate, match=(
                r"depth 24 with 2 active panels: worst \|fine - coarse\| "
                r"\S+ against \|fine\| \S+$")):
            curves._adaptive_gl(panel, [0.0], [1.0], [1.0], tol=1e-10)

    def test_panel_cap_raises(self):
        # noise everywhere doubles the active panels on every level
        panel = self.noisy_panel(lambda a, b: np.ones(len(a)))
        with pytest.raises(CycleDegenerate, match=(
                r"depth 12 with 4096 active panels \(splitting 4096 would "
                r"pass the cap of 4096\)")):
            curves._adaptive_gl(panel, [0.0], [1.0], [1.0], tol=1e-10)

    def test_zero_tolerance_converges_at_ulp_floor(self, curve15):
        y0 = np.sqrt(complex(curve15.p(-2.0)))
        way = [-2.0, -2.0 + 1.5j]
        exact, y_end = integrate_monomials(curve15, way, y0, tol=0.0)
        ref, y_ref = integrate_monomials(curve15, way, y0)
        assert np.abs(exact - ref).max() <= 1e-12 * np.abs(ref).max()
        assert y_end == y_ref

    def test_period_matrix_peak_memory(self, curve15):
        tracemalloc.start()
        try:
            period_matrix(curve15)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20


class TestGaussKronrod:
    def test_gauss_part_is_leggauss(self):
        nodes, weights = np.polynomial.legendre.leggauss(10)
        gauss = curves._GK_WEIGHTS[1] != 0
        assert gauss.sum() == 10
        assert np.abs(curves._GK_NODES[gauss] - nodes).max() <= 1e-15
        assert np.abs(curves._GK_WEIGHTS[1, gauss] - weights).max() <= 1e-15

    def test_exact_degrees(self):
        # K21 integrates x^k on [-1, 1] exactly for k <= 31, G10 for k <= 19
        k = np.arange(34)
        exact = (1 - (-1.0) ** (k + 1)) / (k + 1)
        err = np.abs(curves._GK_WEIGHTS @ curves._GK_NODES[:, None] ** k
                     - exact)
        assert err[0, :32].max() <= 1e-15 and err[1, :20].max() <= 1e-15
        assert err[0, 32] > 1e-13 and err[1, 20] > 1e-7

    def test_seven_point_pair(self):
        # G3 is Gauss-Legendre on 3 nodes; K7 integrates x^k on [-1, 1]
        # exactly for k <= 11, G3 for k <= 5, and neither beyond
        nodes, weights = np.polynomial.legendre.leggauss(3)
        gauss = curves._GK7_WEIGHTS[1] != 0
        assert gauss.sum() == 3 and len(curves._GK7_NODES) == 7
        assert np.abs(curves._GK7_NODES[gauss] - nodes).max() <= 1e-15
        assert np.abs(curves._GK7_WEIGHTS[1, gauss] - weights).max() <= 1e-15
        k = np.arange(14)
        exact = (1 - (-1.0) ** (k + 1)) / (k + 1)
        err = np.abs(curves._GK7_WEIGHTS @ curves._GK7_NODES[:, None] ** k
                     - exact)
        assert err[0, :12].max() <= 1e-15 and err[1, :6].max() <= 1e-15
        assert err[0, 12] > 1e-5 and err[1, 6] > 1e-3


class TestTauPostconditions:
    def test_asymmetric_tau_rejected(self):
        pb = np.array([[1j, 0.1], [0.0, 1j]])
        with pytest.raises(CycleDegenerate, match="not symmetric"):
            curves._normalized_tau(np.eye(2), pb)

    def test_indefinite_imaginary_part_rejected(self):
        # no orientation makes Im tau positive definite
        with pytest.raises(CycleDegenerate, match="positive definite"):
            curves._normalized_tau(np.eye(2), np.diag([1j, -1j]))

    def test_negative_definite_flipped(self):
        tau, norm = curves._normalized_tau(2 * np.eye(2), np.diag([-2j, -4j]))
        np.testing.assert_array_equal(tau, np.diag([1j, 2j]))
        np.testing.assert_array_equal(norm, 0.5 * np.eye(2))

    def test_fixture_taus_pass(self, theta15, curve_c):
        for tau in (theta15.tau, period_matrix(curve_c).tau):
            out, _ = curves._normalized_tau(np.eye(2), tau)
            np.testing.assert_array_equal(out, tau)


def chain_periods(curve):
    """The raw chain periods, on the chain and others that period_matrix
    passes."""
    chain = curves._branch_chain(curve)
    others = np.array([np.delete(chain, j) for j in range(len(chain))])
    return curves._chain_periods(curve, chain, others)


def raw_tau_asymmetry(periods):
    """|tau - tau^T| / |tau| (max norms) of the periods (a | b) before
    symmetrisation."""
    g = periods.shape[0]
    tau = np.linalg.solve(periods[:, :g], periods[:, g:])
    return np.abs(tau - tau.T).max() / np.abs(tau).max()


def assert_columns_match(got, ref):
    """Each column of got is +- the same column of ref to 1e-12."""
    for col, ref_col in zip(got.T, ref.T):
        gap = min(np.abs(col - ref_col).max(), np.abs(col + ref_col).max())
        assert gap <= 1e-12 * np.abs(ref_col).max()


# branch points of genus-2 curves on which no ellipse basis is found: one
# cycle has no separating ellipse, or the trapezoid hits its cap.  The last
# two put three branch points in a column, whose computed real parts differ
# only by roundoff.
REJECTED_BY_ELLIPSES = [
    ([-0.476567 - 0.000646j, -1.042115 - 1.327473j, -0.638784 + 1.443221j,
      1.563612 + 0.240472j, -1.358829 + 0.88239j], "no valid contour"),
    ([-0.106884 + 1.554158j, 0.64305 + 0.091728j, 0.901846 + 0.954729j,
      -0.500549 - 1.338299j, 1.21431 - 0.812382j], "32768 samples"),
    ([0.0, 1j, 2j, 3j, 4j], "no valid contour"),
    ([0.0, 1.0, 1 + 1j, 1 - 1j, 2.0], "no valid contour"),
]


class TestChainPeriods:
    """The cycles on the branch-point chain against the ellipses they
    replaced (``contour_oracle``), where those exist."""

    @pytest.mark.parametrize("name", ["curve15", "curve_c", "curve_pentagon",
                                      "curve_g3"])
    def test_fixture_columns_match_oracle(self, name, request):
        curve = request.getfixturevalue(name)
        periods = chain_periods(curve)
        assert_columns_match(periods, contour_oracle.periods(curve))
        assert raw_tau_asymmetry(periods) < 1e-12

    def test_sample_columns_match_oracle(self):
        checked = 0
        for genus, seeds in [(2, [[7, i] for i in range(16)]),
                             (3, [[7, 1000 + i] for i in range(8)])]:
            for curve in disc_curves(seeds, genus):
                periods = chain_periods(curve)
                assert raw_tau_asymmetry(periods) < 1e-12
                try:
                    ref = contour_oracle.periods(curve)
                except CycleDegenerate:
                    continue
                assert_columns_match(periods, ref)
                checked += 1
        assert checked >= 16

    @pytest.mark.parametrize("points, oracle_error", REJECTED_BY_ELLIPSES)
    def test_curves_the_ellipses_reject(self, points, oracle_error):
        curve = make_curve(points)
        with pytest.raises(CycleDegenerate, match=oracle_error):
            contour_oracle.periods(curve)
        assert raw_tau_asymmetry(chain_periods(curve)) < 1e-12
        td = period_matrix(curve)
        assert np.linalg.eigvalsh(td.tau.imag).min() > 0
        rng = np.random.default_rng(5)

        def pick():
            xs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            return [curve.point(x, rng.choice([-1, 1]) * np.sqrt(curve.p(x)))
                    for x in xs]
        for _ in range(3):
            report = jacobi_inversion_check(curve, td, pick(), pick())
            assert report["error"] < 1e-10
            assert report["route_gap"] < 1e-10

    def test_near_pass_tau_matches_mpmath(self):
        # the edge from 0 to 0.01 + 20i passes 0.007 from the branch point
        # 0.012 + 10i: the half-edge panels resolve 1/y there
        curve = make_curve([0.0, 0.01 + 20j, 0.012 + 10j, 5.0, 10.0])
        ref = mp_chain_oracle.tau(curve, dps=30)
        tau = period_matrix(curve).tau
        assert np.abs(tau - ref).max() < 1e-14 * np.abs(ref).max()

    def test_steeper_pass_raises_in_bank_values(self):
        # the midpoint of the edge from 0 to 1e-3 + 20i lies 7e-4 from
        # 1.2e-3 + 10i, inside the exclusion radius of 5e-3, so the bank
        # values cannot continue y from it
        curve = make_curve([0.0, 1e-3 + 20j, 1.2e-3 + 10j, 5.0, 10.0])
        with pytest.raises(BranchProximity,
                           match="continuation forced through") as info:
            period_matrix(curve)
        assert "_bank_values" in {entry.name for entry in info.traceback}



def random_abel_paths(curve, n, seed):
    """n routed paths from the chart exit of the Abel map to x drawn as
    2 x standard complex normals, with y at the chart exit."""
    x0, y0 = oracle._chart_exit(curve, curves._chart_radius(curve))
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = 2 * (rng.standard_normal() + 1j * rng.standard_normal())
        yield curves.route_path(curve, x0, x), y0


class TestSheetRoot:
    """+-sqrt(P(x)) on the continued sheet (``curves._sheet_root``): the
    sign certified against y(a) where rho = |x - a| sum_k 1 / |a - e_k|
    <= 1, and the product rule of ``_sheet_ratio`` elsewhere."""

    @staticmethod
    def product_rule(curve, a, ya, x):
        """The sign nearest ya times the exact segment ratio."""
        s = np.sqrt(curve.p(x))
        pred = ya * curves._sheet_ratio(curve, a, x)
        return np.where((s * pred.conj()).real >= 0, s, -s)

    @staticmethod
    def reach(curve, a):
        """The |x - a| at which rho reaches 1."""
        return 1 / (1 / np.abs(a[..., None] - curve.branch_points)).sum(-1)

    @staticmethod
    def counted_ratio(monkeypatch):
        """Record the size of x at every _sheet_ratio call."""
        sizes, real = [], curves._sheet_ratio

        def counted(curve, a, x):
            sizes.append(np.size(x))
            return real(curve, a, x)
        monkeypatch.setattr(curves, "_sheet_ratio", counted)
        return sizes

    def segments(self, curve, rng, rho, n=64, m=22):
        """n starts a, shape (n, 1), and m points x about each at rho up
        to the given value, in all directions."""
        a = 2 * (rng.standard_normal((n, 1)) + 1j * rng.standard_normal((n, 1)))
        ya = np.sqrt(curve.p(a)) * rng.choice([-1.0, 1.0], a.shape)
        x = a + rho * self.reach(curve, a) * rng.random((n, m)) \
            * np.exp(2j * np.pi * rng.random((n, m)))
        return a, ya, x

    @pytest.mark.parametrize("name", ["curve15", "curve_c", "curve_g3"])
    def test_certified_sign_is_the_product_rule(self, name, request,
                                                monkeypatch):
        curve = request.getfixturevalue(name)
        a, ya, x = self.segments(curve, np.random.default_rng(35), 0.99)
        ref = self.product_rule(curve, a, ya, x)
        sizes = self.counted_ratio(monkeypatch)
        assert np.array_equal(curves._sheet_root(curve, a, ya, x), ref)
        assert sizes == []

    def test_swing_round_a_branch_point_takes_the_product(self, curve15,
                                                          monkeypatch):
        """From 1 + 0.1i to 0.98 - 0.1i y turns by 96 degrees round the
        branch point 1, so the root nearest y(a) lies on the other sheet:
        only the product rule reaches the continued one."""
        a, b = np.array([1 + 0.1j]), np.array([0.98 - 0.1j])
        ya = np.sqrt(curve15.p(a))
        assert abs(np.angle(curves._sheet_ratio(curve15, a, b))) > np.pi / 2
        _, xs = curves._panel_nodes(a, b, curves._GK_NODES)
        ref = self.product_rule(curve15, a[:, None], ya[:, None], xs)
        sizes = self.counted_ratio(monkeypatch)
        got = curves._sheet_root(curve15, a[:, None], ya[:, None], xs)
        assert np.array_equal(got, ref)
        assert (got[0, -1] * ya.conj()).real < 0
        assert len(sizes) == 1 and 0 < sizes[0] < xs.size

    @pytest.mark.parametrize("rho, calls", [(1 - 1e-9, []), (1 + 1e-9, [1])])
    def test_fallback_starts_past_rho_one(self, curve_c, monkeypatch, rho,
                                          calls):
        a = np.array([0.3 + 0.2j])
        x = a + rho * self.reach(curve_c, a) * np.exp(0.7j)
        ya = np.sqrt(curve_c.p(a))
        ref = self.product_rule(curve_c, a, ya, x)
        sizes = self.counted_ratio(monkeypatch)
        assert np.array_equal(curves._sheet_root(curve_c, a, ya, x), ref)
        assert sizes == calls

    def test_temporaries_have_the_size_of_x(self, curve_c):
        # an angle-check block of 384 panels, 7 nodes and the end each:
        # the sum over the branch points is taken at a, so no
        # (..., 2g + 1) stack of the nodes
        a, ya, x = self.segments(curve_c, np.random.default_rng(36), 0.5,
                                 n=384, m=8)
        tracemalloc.start()
        try:
            curves._sheet_root(curve_c, a, ya, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * x.nbytes


class TestExactSheets:
    """The product rule and the level-synchronous driver against the
    nearest-value tracking and depth-first recursion they replaced."""

    @pytest.mark.parametrize("name", ["curve15", "curve_c", "curve_pentagon",
                                      "curve_g3"])
    def test_abel_paths_match_oracle(self, name, request):
        curve = request.getfixturevalue(name)
        for way, y0 in random_abel_paths(curve, 100, 11):
            got, y_end = integrate_monomials(curve, way, y0)
            try:
                ref, y_ref = oracle.integrate_monomials(curve, way, y0)
            except CycleDegenerate:  # the tol / 2^depth rule reached roundoff
                ref, y_ref = oracle.integrate_monomials(curve, way, y0, tol=1e-8)
            assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()
            assert abs(y_end - y_ref) <= 1e-11 * abs(y_ref)

    @pytest.mark.parametrize("x", [-1.7321348424395848 - 0.08369619281702581j,
                                   -0.8080393437699549 - 0.07275141810160798j])
    def test_g3_reproducers_converge(self, curve_g3, x):
        # Abel paths that pass close to the branch points 0 and 1
        x0, y0 = oracle._chart_exit(curve_g3, curves._chart_radius(curve_g3))
        way = route_path(curve_g3, x0, x)
        with pytest.raises(CycleDegenerate, match="depth 24"):
            oracle.integrate_monomials(curve_g3, way, y0)
        got, y_end = integrate_monomials(curve_g3, way, y0)
        ref, y_ref = oracle.integrate_monomials(curve_g3, way, y0, tol=1e-8)
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()
        assert abs(y_end - y_ref) <= 1e-11 * abs(y_ref)

    @pytest.mark.parametrize("name", ["curve15", "curve_c", "curve_g3"])
    def test_sheet_ratio_is_the_stacked_product(self, name, request):
        """The running product over the branch points equals the product
        over a stacked (..., 2g + 1) array of the factors, to a few ulps a
        factor: numpy's reduction multiplies in another order."""
        curve = request.getfixturevalue(name)
        rng = np.random.default_rng(6)
        a = rng.standard_normal((7, 1)) + 1j * rng.standard_normal((7, 1))
        x = a + 0.1 * (rng.standard_normal((7, 22))
                       + 1j * rng.standard_normal((7, 22)))
        e = curve.branch_points
        ref = np.sqrt((x[..., None] - e) / (a[..., None] - e)).prod(axis=-1)
        np.testing.assert_allclose(curves._sheet_ratio(curve, a, x), ref,
                                   rtol=4 * len(e) * np.finfo(float).eps)
        # no (..., 2g + 1) stack: the temporaries have the size of x
        tracemalloc.start()
        try:
            curves._sheet_ratio(curve, a, x)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 5 * x.nbytes

    def test_binomials_follow_pascal(self):
        for n in range(13):
            table = curves._binomials(n)
            assert table.shape == (n + 1, n + 1)
            assert (table[0] == 1).all() and (table[1:, 0] == 0).all()
            # C(j, k) = C(j - 1, k - 1) + C(j - 1, k)
            np.testing.assert_array_equal(
                table[1:, 1:], table[:-1, :-1] + table[1:, :-1])

    def test_path_through_branch_point_raises(self, curve15):
        y0 = np.sqrt(complex(curve15.p(2.5)))
        with pytest.raises(BranchProximity, match=r"forced through x=\(2\.99"):
            integrate_monomials(curve15, [2.5, 3.5], y0)

    def test_off_curve_start_raises(self, curve15):
        y0 = np.sqrt(complex(curve15.p(0.5)))
        with pytest.raises(ContinuationAmbiguity, match="does not lie"):
            continue_y(curve15, [0.5, 0.5 + 1j], 2 * y0)

    def test_abel_map_batches_levels(self, curve15, theta15, monkeypatch):
        # the 2g points of both divisors of an inversion check share one
        # quadrature call
        calls = []
        real = curves._adaptive_gl

        def counted(panel, a, b, start, tol):
            calls.append(len(a))
            return real(panel, a, b, start, tol)

        monkeypatch.setattr(curves, "_adaptive_gl", counted)
        pts = [curve15.point(0.4 + 0.3j), curve15.point(3.3 + 0.05j)]
        refs = [curve15.point(0.2 - 0.7j), curve15.point(1.3 + 0.9j)]
        jacobi_inversion_check(curve15, theta15, pts, refs)
        assert calls == [4]


class TestAbel:
    def test_lattice_reduce_small(self, theta15):
        g = theta15.tau.shape[0]
        rng = np.random.default_rng(1)
        v = 0.1 * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
        shift = np.array([2.0, -1.0]) + theta15.tau @ np.array([1.0, 3.0])
        red = lattice_reduce(theta15, v + shift)
        assert np.abs(red - v).max() < 1e-8

    def test_lattice_reduce_rows(self, theta15, curve_c):
        """An (m, g) array reduces, in one solve, to its rows' one-row
        results."""
        rng = np.random.default_rng(2)
        for td in (theta15, period_matrix(curve_c)):
            g = td.tau.shape[0]
            vs = (rng.uniform(-3, 3, (6, g))
                  + rng.uniform(-3, 3, (6, g)) @ td.tau.T)
            red = lattice_reduce(td, vs)
            assert red.shape == (6, g)
            np.testing.assert_array_equal(
                red, np.array([lattice_reduce(td, v) for v in vs]))

    def test_abel_odd_jets_only(self, curve15, theta15):
        # expansion of A(z) about infinity is odd in the local coordinate
        assert theta15.series.shape == (2, curves.SERIES_TERMS + 1)
        assert np.abs(theta15.series[:, 0::2]).max() < 1e-10

    @pytest.mark.parametrize("name", ["curve15", "curve_c", "curve_pentagon",
                                      "curve_g3"])
    def test_matches_chart_exit_oracle(self, name, request):
        curve = request.getfixturevalue(name)
        td = period_matrix(curve)
        rng = np.random.default_rng(21)
        for _ in range(200):
            x = 2 * (rng.standard_normal() + 1j * rng.standard_normal())
            p = curve.point(x, rng.choice([-1, 1]) * np.sqrt(curve.p(x)))
            gap = lattice_reduce(td, abel_map(curve, td, p)
                                 - oracle.abel_map(curve, td, p))
            assert np.abs(gap).max() <= 1e-12

    @pytest.mark.parametrize("name", ["curve15", "curve_c", "curve_pentagon",
                                      "curve_g3"])
    def test_at_and_near_branch_points(self, name, request):
        # A(e_k) exactly at e_k, where the chart-exit map raised
        # BranchProximity; just off it, A(e_k) + N e_k^j 2 d / y to O(d)
        curve = request.getfixturevalue(name)
        td = period_matrix(curve)
        m, n = curves._chain_characteristics(curve.genus)
        for e, mk, nk in zip(curves._branch_chain(curve), m, n):
            half = 0.5 * (mk + td.tau @ nk)
            np.testing.assert_array_equal(
                abel_map(curve, td, curve.point(e)), half)
            lead = td.normalization @ e ** np.arange(curve.genus)
            for d in (1e-4, 1e-7, 1e-10):
                x = e + d * (0.6 + 0.8j)
                y = np.sqrt(complex(curve.p(x)))
                for yy in (y, -y):
                    a = abel_map(curve, td, curve.point(x, yy))
                    slope = (a - half) * yy / (2 * (x - e))
                    assert np.abs(slope - lead).max() \
                        <= 1e-3 * np.abs(lead).max()

    def test_off_curve_target_raises(self, curve15, theta15):
        x = 0.7 + 0.4j
        y = np.sqrt(complex(curve15.p(x)))
        with pytest.raises(ContinuationAmbiguity, match="does not lie"):
            abel_map(curve15, theta15, curves.CurvePoint(x, 1.01 * y))

    def test_abel_sheet_antisymmetry(self, curve15, theta15):
        x = 0.7 + 0.4j
        y = np.sqrt(complex(curve15.p(x)))
        ap = abel_map(curve15, theta15, curve15.point(x, y))
        am = abel_map(curve15, theta15, curve15.point(x, -y))
        assert np.abs(lattice_reduce(theta15, ap + am)).max() < 1e-7
