import tracemalloc

import numpy as np
import pytest

from hitchsov import curves
from hitchsov.curves import (build_curve, continue_y, route_path,
                             integrate_monomials, period_matrix, abel_map,
                             lattice_reduce)
from hitchsov.theta import jacobi_inversion_check, riemann_constants
from hitchsov.errors import (DegreeError, DuplicateBranchPoint,
                             BranchProximity, ContinuationAmbiguity,
                             CycleDegenerate)

from conftest import make_curve
import continuation_oracle as oracle
import contour_oracle

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

    def test_degree_three_needs_flag(self):
        with pytest.raises(DegreeError):
            build_curve(npoly.polyfromroots([1, 2, 3]))
        cv = build_curve(npoly.polyfromroots([1, 2, 3]), genus_one_ok=True)
        assert cv.genus == 1

    def test_duplicate_branch_points(self):
        with pytest.raises(DuplicateBranchPoint):
            build_curve(npoly.polyfromroots([1, 1, 2, 3, 4]))

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
        x_start, y_start = curves._chart_exit(curve, curves._chart_radius(curve))
        e = curve.branch_points[0]
        arc = curves.route_path(curve, e - 0.5, e + 0.5)
        assert len(arc) > 2  # detours round e on a circular arc
        gl = 0.5 * (x_start + 0.3j) + 0.5 * (0.3j - x_start) * curves._GL_NODES
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
        x, y = curves._chart_exit(curve, z0)
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
        """Panel callback for the integral of 1 over [a, b], with O(1)
        noise added on the panels that where(a, b) selects."""
        rng = np.random.default_rng(0)

        def panel(a, b, start):
            noise = where(a, b) * rng.standard_normal(len(a))
            return (b - a + noise)[:, None], start
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


def disc_curves(seeds, genus):
    """Curves with 2 genus + 1 branch points uniform in the disc |x| <= 2,
    pairwise at least 0.5 apart (by rejection), one per seed."""
    for seed in seeds:
        rng = np.random.default_rng(seed)
        pts = []
        while len(pts) < 2 * genus + 1:
            x = 2.0 * np.sqrt(rng.random()) * np.exp(2j * np.pi * rng.random())
            if all(abs(x - q) >= 0.5 for q in pts):
                pts.append(x)
        yield make_curve(pts)


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
        periods = curves._chain_periods(curve)
        assert_columns_match(periods, contour_oracle.periods(curve))
        assert raw_tau_asymmetry(periods) < 1e-12

    def test_sample_columns_match_oracle(self):
        checked = 0
        for genus, seeds in [(2, [[7, i] for i in range(16)]),
                             (3, [[7, 1000 + i] for i in range(8)])]:
            for curve in disc_curves(seeds, genus):
                periods = curves._chain_periods(curve)
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
        assert raw_tau_asymmetry(curves._chain_periods(curve)) < 1e-12
        td = period_matrix(curve)
        assert np.linalg.eigvalsh(td.tau.imag).min() > 0
        riemann_constants(curve, td)
        rng = np.random.default_rng(5)

        def pick():
            xs = rng.standard_normal(2) + 1j * rng.standard_normal(2)
            return [curve.point(x, rng.choice([-1, 1]) * np.sqrt(curve.p(x)))
                    for x in xs]
        for _ in range(3):
            report = jacobi_inversion_check(curve, td, pick(), pick())
            assert report["error"] < 1e-10
            assert report["route_gap"] < 1e-10

    def test_gauss_chebyshev_cap_names_edge(self):
        # the edge from 0 to 0.01 + 20i passes 0.007 from the branch point
        # 0.012 + 10i, so 2^14 nodes do not resolve 1/y on it
        curve = make_curve([0.0, 0.01 + 20j, 0.012 + 10j, 5.0, 10.0])
        with pytest.raises(CycleDegenerate, match=(
                r"Gauss-Chebyshev on the edge \[0\+0j, 0\.01\+20j\] not "
                r"converged at 16384 nodes \(last difference \S+\)")):
            period_matrix(curve)



def random_abel_paths(curve, n, seed):
    """n routed paths from the chart exit of the Abel map to x drawn as
    2 x standard complex normals, with y at the chart exit."""
    x0, y0 = curves._chart_exit(curve, curves._chart_radius(curve))
    rng = np.random.default_rng(seed)
    for _ in range(n):
        x = 2 * (rng.standard_normal() + 1j * rng.standard_normal())
        yield curves.route_path(curve, x0, x), y0


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
        x0, y0 = curves._chart_exit(curve_g3, curves._chart_radius(curve_g3))
        way = route_path(curve_g3, x0, x)
        with pytest.raises(CycleDegenerate, match="depth 24"):
            oracle.integrate_monomials(curve_g3, way, y0)
        got, y_end = integrate_monomials(curve_g3, way, y0)
        ref, y_ref = oracle.integrate_monomials(curve_g3, way, y0, tol=1e-8)
        assert np.abs(got - ref).max() <= 1e-11 * np.abs(ref).max()
        assert abs(y_end - y_ref) <= 1e-11 * abs(y_ref)

    def test_path_through_branch_point_raises(self, curve15):
        y0 = np.sqrt(complex(curve15.p(2.5)))
        with pytest.raises(BranchProximity, match=r"forced through x=\(2\.99"):
            integrate_monomials(curve15, [2.5, 3.5], y0)

    def test_off_curve_start_raises(self, curve15):
        y0 = np.sqrt(complex(curve15.p(0.5)))
        with pytest.raises(ContinuationAmbiguity, match="does not lie"):
            continue_y(curve15, [0.5, 0.5 + 1j], 2 * y0)

    def test_abel_map_batches_levels(self, curve15, theta15, monkeypatch):
        calls = []
        panels = curves._monomial_panels

        def counted(curve, a, b, ya):
            calls.append((a.copy(), b.copy()))
            return panels(curve, a, b, ya)

        monkeypatch.setattr(curves, "_monomial_panels", counted)
        x = 3.3 + 0.05j                      # passes close to 3
        abel_map(curve15, theta15, curve15.point(x))
        x0, _ = curves._chart_exit(curve15, curves._chart_radius(curve15))
        way = route_path(curve15, x0, x)
        seg_a, seg_b = calls[0]              # every waypoint segment at once
        np.testing.assert_array_equal(seg_a, way[:-1])
        # a panel's depth: log2 of its segment's length over its own
        depth = 0
        for a, b in calls[1:]:
            mid = 0.5 * (a + b)
            on = np.abs(np.abs(mid[:, None] - seg_a) + np.abs(mid[:, None] - seg_b)
                        - np.abs(seg_b - seg_a)).argmin(axis=1)
            ratio = np.abs(seg_b - seg_a)[on] / np.abs(b - a)
            depth = max(depth, int(np.rint(np.log2(ratio)).max()))
        assert depth >= 5
        assert len(calls) <= 2 * (depth + 1)


class TestAbel:
    def test_lattice_reduce_small(self, theta15):
        g = theta15.tau.shape[0]
        rng = np.random.default_rng(1)
        v = 0.1 * (rng.standard_normal(g) + 1j * rng.standard_normal(g))
        shift = np.array([2.0, -1.0]) + theta15.tau @ np.array([1.0, 3.0])
        red = lattice_reduce(theta15, v + shift)
        assert np.abs(red - v).max() < 1e-8

    def test_differential_series_length_capped(self, curve15, theta15):
        w = curves.differential_series(curve15, theta15.normalization,
                                       curves.SERIES_TERMS)
        assert w.shape == (2, curves.SERIES_TERMS)
        with pytest.raises(ValueError, match="SERIES_TERMS"):
            curves.differential_series(curve15, theta15.normalization,
                                       curves.SERIES_TERMS + 1)

    def test_abel_odd_jets_only(self, curve15, theta15):
        jets = curves.differential_series(curve15, theta15.normalization, 6)
        # expansion of A(z) about infinity is odd in the local coordinate
        assert np.abs(jets[:, 1::2]).max() < 1e-10

    def test_abel_sheet_antisymmetry(self, curve15, theta15):
        x = 0.7 + 0.4j
        y = np.sqrt(complex(curve15.p(x)))
        ap = abel_map(curve15, theta15, curve15.point(x, y))
        am = abel_map(curve15, theta15, curve15.point(x, -y))
        assert np.abs(lattice_reduce(theta15, ap + am)).max() < 1e-7
