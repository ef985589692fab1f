import itertools
import math
from math import factorial

import mpmath
import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from conftest import disc_curves, make_curve
from hitchsov import curves, theta
from hitchsov.curves import (abel_map, build_curve, lattice_reduce,
                             period_matrix)
from hitchsov.errors import (TruncationOverflow, ThetaDivisor,
                             ResidueUnstable)
import half_period_oracle
from hitchsov.theta import (riemann_theta, theta_deriv_table,
                            riemann_constants, sigma_series, sigma_contour,
                            jacobi_inversion_check)


def q_series_theta(z, tau):
    """Genus-1 oracle: theta = sum_(|n| <= 60) q^(n^2) e^(2 pi i n z)."""
    q = np.exp(np.pi * 1j * complex(np.asarray(tau).ravel()[0]))
    n = np.arange(-60, 61)
    zz = complex(np.asarray(z).ravel()[0])
    return np.sum(q ** (n ** 2) * np.exp(2j * np.pi * n * zz))


def random_tau(g, rng):
    a = rng.standard_normal((g, g))
    re = 0.3 * (a + a.T) / 2
    b = rng.standard_normal((g, g))
    im = b @ b.T / g + np.eye(g)
    return re + 1j * im


class TestLatticeSum:
    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_quasi_periodicity(self, g):
        rng = np.random.default_rng(g)
        tau = random_tau(g, rng)
        z = rng.standard_normal(g) + 1j * rng.standard_normal(g)
        m = rng.integers(-2, 3, size=g).astype(float)
        n = rng.integers(-2, 3, size=g).astype(float)
        t0 = riemann_theta(z, tau)
        t1 = riemann_theta(z + m + tau @ n, tau)
        fac = np.exp(-1j * np.pi * n @ tau @ n - 2j * np.pi * n @ z)
        assert abs(t1 - fac * t0) < 1e-10 * abs(fac * t0)

    def test_evenness(self):
        rng = np.random.default_rng(7)
        tau = random_tau(2, rng)
        z = rng.standard_normal(2) + 1j * rng.standard_normal(2)
        assert abs(riemann_theta(z, tau) - riemann_theta(-z, tau)) \
            < 1e-12 * abs(riemann_theta(z, tau))

    def test_g1_q_series(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            tau = np.array([[rng.uniform(-0.4, 0.4)
                             + 1j * rng.uniform(0.8, 2.0)]])
            z = np.array([rng.standard_normal()
                          + 0.3j * rng.standard_normal()])
            a = riemann_theta(z, tau)
            b = q_series_theta(z, tau)
            assert abs(a - b) < 1e-12 * (1 + abs(a))

    def test_derivative_fd(self):
        rng = np.random.default_rng(5)
        tau = random_tau(2, rng)
        z = rng.standard_normal(2) + 0.2j * rng.standard_normal(2)
        tab = theta_deriv_table(z, tau, 1)
        h = 1e-6
        for k in range(2):
            e = np.zeros(2)
            e[k] = h
            fd = (riemann_theta(z + e, tau)
                  - riemann_theta(z - e, tau)) / (2 * h)
            key = tuple(int(i == k) for i in range(2))
            assert abs(tab[key] - fd) < 1e-6 * (1 + abs(fd))

    def test_truncation_overflow(self):
        """The bound is met on the grid, first at an R beyond 60 rho."""
        tau = np.array([[1e-5j]])
        rs, rho, bound = grid_bound(tau, np.array([[0.3]]), 0)
        assert (bound <= 1e-18).any()
        assert rs[np.argmax(bound <= 1e-18)] > 60.0 * rho
        with pytest.raises(TruncationOverflow, match=r"^no radius up to 60\.0 "
                           r"meets the 1e-18 bound of order 0$"):
            riemann_theta(np.array([0.3]), tau)

    def test_truncation_overflow_at_no_radius(self):
        """A centre norm of 1e40 at order 2g: no R of the grid meets the
        bound, and the message names the grid's last R / rho."""
        tau = np.array([[1.0j, 0.2], [0.2, 1.5j]])
        zs = np.array([[0.1 + 1e40j, 0.2]])
        _, _, bound = grid_bound(tau, zs, 4)
        assert not (bound <= 1e-18).any()
        message = r"^no radius up to 10\.9 meets the 1e-18 bound of order 4$"
        with pytest.raises(TruncationOverflow, match=message):
            grid_radius(tau, zs, 4)
        with pytest.raises(TruncationOverflow, match=message):
            theta._lattice_points(tau, zs, 4)

    def test_overflowing_terms_raise(self):
        # the peak term at 0.3 +- 20i is about e^(400 pi), past double
        # precision; at 15i it is about e^(225 pi) and the sum is finite
        tau = np.array([[1j]])
        for z in (0.3 + 20j, 0.3 - 20j):
            with pytest.raises(TruncationOverflow, match=r"\(0,\) at z"):
                riemann_theta(np.array([z]), tau)
        z = 0.3 + 15j
        ref = complex(mpmath.jtheta(3, mpmath.pi * z, mpmath.exp(-mpmath.pi)))
        got = riemann_theta(np.array([z]), tau)
        assert abs(got - ref) < 1e-12 * abs(ref)


def lattice_radius(tau, zs, order):
    """The lattice radius R / rho of ``theta._lattice_points`` for the rows
    zs, by a scalar walk over R in steps of 0.1 with mpmath's incomplete
    gamma: the reference for the bisection of ``theta._radius``."""
    y = tau.imag
    g = y.shape[0]
    lam_min = float(np.linalg.eigvalsh(y).min())
    rho = math.sqrt(math.pi * lam_min)
    c = max(math.hypot(*row) for row in np.linalg.solve(y, np.imag(zs).T).T)
    start = rho / 2 + math.sqrt(g + order)
    for step in range(160):
        r = start + step * 0.1
        bound = (2 * math.pi) ** order * g / 2 * (2 / rho) ** g * sum(
            math.comb(order, i) * rho ** -i * c ** (order - i)
            * mpmath.gammainc((g + i) / 2, (r - rho / 2) ** 2)
            for i in range(order + 1))
        if bound <= 1e-18:
            assert r <= 60.0 * rho
            return r / rho
    raise AssertionError("no radius meets the bound")


def grid_upper_gammas(n, x):
    """Gamma(m/2, x) for m = 1..n (rows) at every x of an array, by the
    recursion of ``theta._upper_gammas``."""
    rows = [np.sqrt(np.pi) * np.array([*map(math.erfc, np.sqrt(x).tolist())]),
            np.exp(-x)]
    for m in range(1, n - 1):
        rows.append(m / 2 * rows[-2] + x ** (m / 2) * rows[1])
    return np.array(rows[:n])


def grid_bound(tau, zs, order):
    """The radii R_j = rho/2 + sqrt(g + N) + 0.1 j, j < 160, rho, and the
    bound of ``theta._lattice_points`` at every R_j, in one array pass."""
    y = np.ascontiguousarray(tau.imag)
    g = y.shape[0]
    centers = -np.linalg.solve(y, np.imag(zs).T).T
    rho = np.sqrt(np.pi * np.linalg.eigvalsh(y).min())
    rs = rho / 2 + np.sqrt(g + order) + np.arange(0.0, 16.0, 0.1)
    i, c = np.arange(order + 1)[:, None], np.linalg.norm(centers, axis=1).max()
    binomials = np.array([math.comb(order, k) for k in range(order + 1)])
    bound = (2 * np.pi) ** order * g / 2 * (2 / rho) ** g * np.sum(
        binomials[:, None] * rho ** -i * c ** (order - i)
        * grid_upper_gammas(g + order, (rs - rho / 2) ** 2)[g - 1:], axis=0)
    return rs, rho, bound


def grid_radius(tau, zs, order):
    """The lattice radius by the bound on the whole grid: the first R_j
    that meets it, if R_j <= 60 rho; the oracle for the bisection."""
    rs, rho, bound = grid_bound(tau, zs, order)
    met = (bound <= 1e-18) & (rs <= 60.0 * rho)
    if not met.any():
        raise TruncationOverflow(f"no radius up to {min(60, rs[-1] / rho):.1f} "
                                 f"meets the 1e-18 bound of order {order}")
    return rs[met.argmax()] / rho


def product_lattice(tau, z, radius):
    """The one-centre lattice of the given radius built point by point with
    itertools.product: the reference for the array builder."""
    y = np.ascontiguousarray(tau.imag)
    center = -np.linalg.solve(y, np.imag(z))
    lam_min = np.linalg.eigvalsh(y).min()
    ranges = [range(int(np.floor(c - radius)), int(np.ceil(c + radius)) + 1)
              for c in center]
    pts = np.array(list(itertools.product(*ranges)), dtype=float)
    d = pts - center
    keep = np.einsum('ij,jk,ik->i', d, y, d) <= lam_min * radius ** 2
    return pts[keep] if keep.any() else pts


def spread_rows(tau, rng, m, spread):
    """m arguments whose lattice centres -Y^-1 Im z lie up to `spread`
    apart in each coordinate."""
    g = tau.shape[0]
    centres = rng.uniform(-spread / 2, spread / 2, (m, g))
    return rng.standard_normal((m, g)) - 1j * centres @ tau.imag


# The inversion workload's pool curves (bench/workloads.py) and the genus-3
# fixture; and for one argument row on each, the lattice radius R / rho and
# point count of ``theta._lattice_points`` at orders 0, 1, 4 and 6, as the
# search gave them with scipy's gamma * gammaincc in the bound.
LATTICE_CURVES = {
    "real": [1.0, 2.0, 3.0, 4.0, 5.0],
    "complex": [0.0, 1.0, -1.2, 2.0 + 0.5j, -0.3 - 1.1j],
    "pentagon": 1.5 * np.exp(2j * np.pi * np.arange(5) / 5 + 0.3j),
    "g3": [0, 1, 2, 3, 4, 5, 6.5],
}
PINNED_LATTICES = {
    "real": [(5.204560327888788, 51), (5.4341021567152925, 59),
             (5.952236037340231, 66), (6.298124268536826, 73)],
    "complex": [(5.680697738865487, 57), (5.9334709526612555, 61),
                (6.58357307209232, 75), (6.964467832148366, 86)],
    "pentagon": [(6.6913842008613305, 69), (6.895295681122095, 74),
                 (7.660477884709557, 91), (8.202405315109578, 103)],
    "g3": [(5.588561179018343, 291), (5.79109617133025, 323),
           (6.430374960454735, 430), (6.77372831743444, 526)],
}


class TestUpperGamma:
    def test_matches_mpmath(self):
        """Gamma(a, x) for every a = (g + i) / 2 the radius search uses
        (genus 1 to 3, orders up to 2g) at every x of its grid, against
        mpmath's incomplete gamma, to 1e-12 relative."""
        x = np.unique(np.concatenate([
            (np.sqrt(n) + np.arange(0.0, 16.0, 0.1)) ** 2
            for n in range(1, 10)]))
        got = np.array([theta._upper_gammas(9, v) for v in x.tolist()]).T
        assert got.shape == (9, len(x))
        for m, row in enumerate(got, start=1):
            ref = np.array([float(mpmath.gammainc(m / 2, v)) for v in x])
            assert np.all(np.abs(row - ref) <= 1e-12 * ref)

    def test_first_rows(self):
        for x in (0.5, 3.0, 40.0):
            assert len(theta._upper_gammas(1, x)) == 1
            assert theta._upper_gammas(2, x)[1] == math.exp(-x)


class TestRadiusSearch:
    @staticmethod
    def cases():
        """(tau, rows, order): random tau of genus 1 to 3 and the period
        matrices of LATTICE_CURVES, at every order 0..2g + 2, with one
        reduced row and with 4 rows up to 12 apart."""
        rng = np.random.default_rng(17)
        taus = [random_tau(g, rng) for g in (1, 2, 3) for _ in range(4)]
        taus += [period_matrix(make_curve(roots)).tau
                 for roots in LATTICE_CURVES.values()]
        for tau in taus:
            g = tau.shape[0]
            for order in range(2 * g + 3):
                yield tau, spread_rows(tau, rng, 1, 1.0), order
                yield tau, spread_rows(tau, rng, 4, 12.0), order

    def test_bisection_is_the_grid_search(self, monkeypatch):
        """The bisection returns the grid search's radius, to the bit, and
        the lattice is built at it."""
        found = []
        real = theta._radius

        def recorded(*args):
            found.append(real(*args))
            return found[-1]

        monkeypatch.setattr(theta, "_radius", recorded)
        checked = 0
        for tau, zs, order in self.cases():
            pts = theta._lattice_points(tau, zs, order)
            assert found[-1] == grid_radius(tau, zs, order)
            if len(zs) == 1:
                np.testing.assert_array_equal(
                    pts, product_lattice(tau, zs[0], found[-1]))
            checked += 1
        assert checked >= 200


class TestBatchedTheta:
    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("spread", [1.0, 12.0])
    def test_matches_scalar_sums(self, g, spread):
        # centres 12 apart lie outside each other's lattice radius, so the
        # batch needs every row's ellipsoid, not one shared one
        rng = np.random.default_rng(10 * g + int(spread))
        tau = random_tau(g, rng)
        zs = spread_rows(tau, rng, 5, spread)
        pts, terms = theta._lattice_terms(zs, tau, 1)
        th, grad = terms.sum(axis=1), 2j * np.pi * (terms @ pts)
        assert th.shape == (5,) and grad.shape == (5, g)
        for z, t, gr in zip(zs, th, grad):
            ref = riemann_theta(z, tau)
            assert abs(t - ref) <= 1e-12 * abs(ref)
            ref_grad = np.array([riemann_theta(z, tau, deriv=tuple(
                int(s == u) for u in range(g))) for s in range(g)])
            assert np.abs(gr - ref_grad).max() \
                <= 1e-12 * np.abs(ref_grad).max()

    @pytest.mark.parametrize("g", [1, 2, 3])
    def test_one_row_lattice_is_the_product_lattice(self, g):
        rng = np.random.default_rng(40 + g)
        for _ in range(4):
            tau = random_tau(g, rng)
            z = spread_rows(tau, rng, 1, 4.0)
            for order in (0, 1, 2 * g):
                np.testing.assert_array_equal(
                    theta._lattice_points(tau, z, order),
                    product_lattice(tau, z[0], lattice_radius(tau, z, order)))

    def test_rows_share_the_union_lattice(self):
        """Every row's ellipsoid at the radius of the largest centre."""
        rng = np.random.default_rng(2)
        tau = random_tau(2, rng)
        zs = spread_rows(tau, rng, 3, 12.0)
        for order in (0, 4):
            radius = lattice_radius(tau, zs, order)
            union = {tuple(p) for p in theta._lattice_points(tau, zs, order)}
            own = [{tuple(p) for p in product_lattice(tau, z, radius)}
                   for z in zs]
            assert union == set().union(*own)

    def test_jacobi_inversion_lattice_count(self, curve15, theta15,
                                            monkeypatch):
        """One series lattice for the reference, the target and the
        scale row 0, and one for the contour circle: every sigma_j of both
        divisors from the same two."""
        builds = []
        real = theta._lattice_points

        def counted(tau, zs, *args):
            builds.append(len(zs))
            return real(tau, zs, *args)

        monkeypatch.setattr(theta, "_lattice_points", counted)
        pts = [curve15.point(0.4 + 0.3j), curve15.point(-1.1 - 0.2j)]
        refs = [curve15.point(0.2 - 0.7j), curve15.point(1.3 + 0.9j)]
        jacobi_inversion_check(curve15, theta15, pts, refs)
        assert builds == [3, 128]


class TestRiemannConstants:
    def test_vanishing_on_divisors(self, curve15, theta15):
        from hitchsov.curves import abel_map
        rng = np.random.default_rng(12)
        k = theta15.riemann_constants
        assert k is not None
        # theta(A(p) + K) = 0 for any single point (degree g-1 = 1)
        for _ in range(3):
            x = rng.standard_normal() + 1j * rng.standard_normal()
            y = np.sqrt(complex(curve15.p(x)))
            a = abel_map(curve15, theta15, curve15.point(x, y))
            val = abs(riemann_theta(a + k, theta15.tau))
            generic = abs(riemann_theta(
                a + k + 0.31 + 0.17j * np.ones(2), theta15.tau))
            assert val < 1e-8 * (1 + generic)

    def test_closed_form_is_the_search(self):
        """K is bit for bit the half-period the search picks, on the four
        fixtures and 45 disc-sample curves, and rng changes nothing."""
        fixtures = [[1, 2, 3, 4, 5], [0.0, 1.0, -1.2, 2.0 + 0.5j, -0.3 - 1.1j],
                    1.5 * np.exp(2j * np.pi * np.arange(5) / 5 + 0.3j),
                    [0, 1, 2, 3, 4, 5, 6.5]]
        samples = itertools.chain(
            map(make_curve, fixtures),
            disc_curves([[7, i] for i in range(30)], 2),
            disc_curves([[7, 1000 + i] for i in range(15)], 3))
        checked = 0
        for curve in samples:
            td = period_matrix(curve)
            k = riemann_constants(curve, td)
            assert td.riemann_constants is k
            np.testing.assert_array_equal(
                k, half_period_oracle.riemann_constants(curve, td))
            np.testing.assert_array_equal(
                k, riemann_constants(curve, td, rng=np.random.default_rng(3)))
            checked += 1
        assert checked == 49


class TestSigma:
    def test_routes_agree(self, curve15, theta15):
        from hitchsov.curves import abel_map
        pts = [curve15.point(0.4 + 0.3j,
                             np.sqrt(complex(curve15.p(0.4 + 0.3j)))),
               curve15.point(-1.1 - 0.2j,
                             -np.sqrt(complex(curve15.p(-1.1 - 0.2j))))]
        phi = sum(abel_map(curve15, theta15, p) for p in pts)
        for k in (1, 2):
            a = sigma_series(curve15, theta15, phi, k)
            b = sigma_contour(curve15, theta15, phi, k)
            assert a.shape == b.shape == (k,)
            assert np.all(np.abs(a - b) < 1e-6 * (1 + np.abs(a)))

    def test_routes_on_fresh_period_data(self, curve_c):
        """period_matrix stores K with tau, so both routes run on its
        result as it comes."""
        td = period_matrix(curve_c)
        pts = [curve_c.point(0.4 + 0.3j), curve_c.point(-1.1 - 0.2j)]
        phi = abel_map(curve_c, td, pts).sum(axis=0)
        a = sigma_series(curve_c, td, phi, 2)
        b = sigma_contour(curve_c, td, phi, 2)
        assert np.all(np.abs(a - b) < 1e-6 * (1 + np.abs(a)))

    def test_constant_is_configuration_independent(self, curve15, theta15):
        rng = np.random.default_rng(8)
        consts = []
        for _ in range(2):
            pts = []
            for _ in range(curve15.genus):
                x = rng.standard_normal() + 1j * rng.standard_normal()
                y = np.sqrt(complex(curve15.p(x)))
                pts.append(curve15.point(x, y))
            phi = sum(abel_map(curve15, theta15, p) for p in pts)
            truth = [sum(p.x ** j for p in pts) for j in (1, 2)]
            consts.append(truth - sigma_series(curve15, theta15, phi, 2))
        assert np.all(np.abs(consts[0] - consts[1])
                      < 1e-5 * (1 + np.abs(consts[0])))

    def test_jacobi_inversion(self, curve15, theta15):
        rng = np.random.default_rng(30)
        def pick():
            pts = []
            for _ in range(curve15.genus):
                x = rng.standard_normal() + 1j * rng.standard_normal()
                y = np.sqrt(complex(curve15.p(x)))
                if rng.random() < 0.5:
                    y = -y
                pts.append(curve15.point(x, y))
            return pts
        report = jacobi_inversion_check(curve15, theta15, pick(), pick())
        assert report["route_gap"] < 1e-6
        assert report["error"] < 1e-5

    def test_theta_divisor(self, curve15, theta15):
        # theta(A(P) - K) = 0 by Riemann vanishing (K is a half-period):
        # theta(v0 + A(z)) vanishes at z = 0, inside every circle
        x = 0.4 + 0.3j
        phi = -abel_map(curve15, theta15,
                        curve15.point(x, np.sqrt(complex(curve15.p(x)))))
        with pytest.raises(ThetaDivisor, match=(
                r"^\|theta\(-phi-K\)\|/\|theta\(0\)\| = \S+ below 1e-10 "
                r"at row 0 of phi$")):
            sigma_series(curve15, theta15, phi, 1)
        with pytest.raises(ThetaDivisor, match=(
                r"in or near the circle of radius \S+ at 128 samples$")):
            sigma_contour(curve15, theta15, phi, 1)

    def test_residue_unstable(self, curve15, theta15, monkeypatch):
        # noise in the gradient keeps the sums apart at every sample count
        real = theta._theta_and_gradient
        rng = np.random.default_rng(0)

        def noisy(v0, shifts, tau):
            th, grad = real(v0, shifts, tau)
            return th, grad * (1 + 1e-3 * rng.standard_normal(grad.shape))

        monkeypatch.setattr(theta, "_theta_and_gradient", noisy)
        pts = [curve15.point(0.4 + 0.3j), curve15.point(-1.1 - 0.2j)]
        phi = sum(abel_map(curve15, theta15, p) for p in pts)
        with pytest.raises(ResidueUnstable, match=(
                r"sample doubling on the circle of radius \S+ at 1024 "
                r"samples")):
            sigma_contour(curve15, theta15, phi, 1)

    def test_few_samples_double(self, curve15, theta15, monkeypatch):
        # 4 samples do not resolve the residue; the doubling gets there
        pts = [curve15.point(0.4 + 0.3j), curve15.point(-1.1 - 0.2j)]
        phi = sum(abel_map(curve15, theta15, p) for p in pts)
        monkeypatch.setattr(theta, "_CONTOUR_SAMPLES", 2)
        few = sigma_contour(curve15, theta15, phi, 1)
        ref = sigma_series(curve15, theta15, phi, 1)
        assert np.abs(few - ref).max() <= 1e-6 * np.abs(ref).max()

    def test_contour_evaluates_circle_once(self, curve15, theta15,
                                           monkeypatch):
        """theta and its gradient are summed once, on the 2 _CONTOUR_SAMPLES
        circle; the _CONTOUR_SAMPLES sum reads every other sample of it."""
        rows = []
        real = theta._theta_and_gradient

        def counted(v0, shifts, tau):
            rows.append(len(shifts))
            return real(v0, shifts, tau)

        monkeypatch.setattr(theta, "_theta_and_gradient", counted)
        pts = [curve15.point(0.4 + 0.3j), curve15.point(-1.1 - 0.2j)]
        phi = sum(abel_map(curve15, theta15, p) for p in pts)
        monkeypatch.setattr(theta, "_CONTOUR_SAMPLES", 32)
        sigma_contour(curve15, theta15, phi, 1)
        assert rows == [64]


# Periods jobs whose circle of half the chart radius encloses a zero of
# theta(v0 + A(z)): (branch points' polynomial, phi, k, theta batch sizes).
# 3/101 passed its own doubling test there with sigma_1 off by 1.0e3;
# 1/454 failed it; 3/316 also doubles its samples on the smaller circle.
CONTOUR_ZEROS = {
    "seed 3 job 101": (
        [0.01273902663905968 + 0.6825310663974881j,
         -0.35432495682680765 + 2.5159905897691965j,
         1.042289766557607 + 1.1583787687588674j,
         -0.9537663003657553 - 3.1627984332213748j,
         -1.6177593615927117 + 1.1348144801777809j, 1.0],
        [0.5358455907007259 - 0.5911065807237171j,
         -0.20121399404973264 - 0.2770614687660613j], 1, [128, 128]),
    "seed 1 job 454": (
        [1.726804515986251 - 0.7296824183353147j,
         5.079995173893922 + 2.210637777732357j,
         8.529559736235184 + 2.9773712010972915j,
         4.852824622119104 + 1.8305332296967565j,
         2.8036975638357804 + 1.7969241954037924j, 1.0],
        [0.2898789981660891 + 0.06373750844327034j,
         -0.17789313143748278 - 0.5894640220826605j], 2, [128, 128]),
    "seed 3 job 316": (
        [1.3790684447040475 - 0.7822495599401138j,
         -4.520791663790582 + 0.4737990833315455j,
         0.8405044116343432 - 1.8990227611612418j,
         0.9319450503859579 + 3.57623365750654j,
         -2.1618665253137817 - 1.2825128535407344j, 1.0],
        [0.3529548016850477 - 0.2814976451113372j,
         0.22106064730027924 - 0.16271999567121606j], 2, [128, 128, 256]),
}


class TestContourGuard:
    @pytest.mark.parametrize("job", sorted(CONTOUR_ZEROS))
    def test_zero_inside_half_radius(self, job, monkeypatch):
        coeffs, phi, k, batches = CONTOUR_ZEROS[job]
        curve = build_curve(coeffs)
        td = period_matrix(curve)
        rows = []
        real = theta._theta_and_gradient

        def counted(v0, shifts, tau):
            rows.append(len(shifts))
            return real(v0, shifts, tau)

        monkeypatch.setattr(theta, "_theta_and_gradient", counted)
        series = sigma_series(curve, td, phi, k)
        contour = sigma_contour(curve, td, phi, k)
        assert abs(series[-1] - contour[-1]) < 1e-6  # the strict gate
        assert np.all(np.abs(contour - series) <= 1e-12 * np.abs(series))
        assert rows == batches  # the first circle was halved


def power_sum(coeffs, radius, nn):
    """sum_l coeffs[:, l] z^l at the nn samples z of the circle of the given
    radius, by a table of powers: the reference for ``theta._on_circle``."""
    zs = radius * np.exp(2j * np.pi * np.arange(nn) / nn)
    return (zs[:, None] ** np.arange(coeffs.shape[1])) @ coeffs.T


def contour_circle(curve, td, phi, radius, nn=128):
    """v0 and the Abel-series shifts at the nn samples of sigma_contour's
    circle of the given radius."""
    v0 = lattice_reduce(td, -np.asarray(phi, dtype=complex)
                        - td.riemann_constants)
    return v0, power_sum(td.series, radius, nn)


def assert_circle_is_lattice_sum(curve, td, phi):
    """theta and its gradient from base terms and phases agree with the
    termwise exponentials of _lattice_terms at every sample of the first
    circle and of its two halvings, within 1e-13 of the largest sample."""
    for halvings in range(3):
        radius = 0.5 ** (halvings + 1) * curves._chart_radius(curve)
        v0, shifts = contour_circle(curve, td, phi, radius)
        th, grad = theta._theta_and_gradient(v0, shifts, td.tau)
        pts, terms = theta._lattice_terms(v0 + shifts, td.tau, 1)
        ref, ref_grad = terms.sum(axis=1), 2j * np.pi * (terms @ pts)
        assert np.abs(th - ref).max() <= 1e-13 * np.abs(ref).max()
        assert np.abs(grad - ref_grad).max() \
            <= 1e-13 * np.abs(ref_grad).max()


class TestCircleTerms:
    @pytest.mark.parametrize("name", ["curve15", "curve_c", "curve_g3"])
    def test_matches_lattice_terms(self, name, period_data):
        curve, td = period_data[name]
        g = curve.genus
        rng = np.random.default_rng(5)
        for _ in range(3):
            assert_circle_is_lattice_sum(
                curve, td, rng.uniform(0, 1, g) + td.tau @ rng.uniform(0, 1, g))

    @pytest.mark.parametrize("job", sorted(CONTOUR_ZEROS))
    def test_matches_near_contour_zeros(self, job):
        coeffs, phi, _, _ = CONTOUR_ZEROS[job]
        curve = build_curve(coeffs)
        assert_circle_is_lattice_sum(curve, period_matrix(curve), phi)


class TestCircleFFT:
    @pytest.mark.parametrize("name", ["curve15", "curve_c", "curve_g3"])
    def test_on_circle_is_the_power_sum(self, name, period_data):
        """The Abel series and its derivative at the samples of the first
        circle and its two halvings, by the fold and one inverse FFT, within
        1e-14 of the largest value of the power table's sums; 97 terms fold
        onto 4 and 64 samples and are padded to 128 and 256."""
        curve, td = period_data[name]
        a = td.series
        w = a[:, 1:] * np.arange(1, curves.SERIES_TERMS + 1)
        for halvings in range(3):
            radius = 0.5 ** (halvings + 1) * curves._chart_radius(curve)
            for coeffs in (a, w):
                scaled = coeffs * radius ** np.arange(coeffs.shape[1])
                for nn in (4, 64, 128, 256):
                    ref = power_sum(coeffs, radius, nn)
                    got = theta._on_circle(scaled, nn)
                    assert got.shape == ref.shape == (nn, curve.genus)
                    assert np.abs(got - ref).max() <= 1e-14 * np.abs(ref).max()

    @pytest.mark.parametrize("n", [2, 4, 8, 128])
    def test_residues_are_the_mean(self, n):
        """r_j = mean of dlog z^(1 - 2j) on every other one of the n
        samples and on all of them, for j <= 3: at n = 2 the FFT indices
        2j - 1 wrap modulo the lengths 1 and 2 of dlog[::2] and dlog."""
        rng = np.random.default_rng(n)
        dlog = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        radius = 0.3
        zs = radius * np.exp(2j * np.pi * np.arange(n) / n)
        half, full = theta._residues(dlog, radius, 3)
        assert half.shape == full.shape == (3,)
        for j in range(1, 4):
            terms = dlog * zs ** (1 - 2 * j)
            for got, ref in ((half[j - 1], terms[::2]), (full[j - 1], terms)):
                assert abs(got - ref.mean()) <= 1e-14 * np.abs(ref).max()


def _smul(a, b, n):
    out = npoly.polymul(a, b)[:n]
    if len(out) < n:
        out = np.pad(out, (0, n - len(out)))
    return out.astype(complex)


def _slog(f, n):
    """Series ln(f) with f[0] != 0, by integrating f'/f."""
    f = np.asarray(f, dtype=complex)
    inv = np.zeros(n, dtype=complex)
    inv[0] = 1.0 / f[0]
    for m in range(1, n):
        acc = sum(f[j] * inv[m - j]
                  for j in range(1, min(m, len(f) - 1) + 1))
        inv[m] = -acc / f[0]
    quot = _smul(npoly.polyder(f), inv, n)
    out = np.zeros(n, dtype=complex)
    out[0] = np.log(f[0])
    out[1:] = quot[:n - 1] / np.arange(1, n)
    return out


def taylor_sigma_series(curve, theta_data, phi, k):
    """sigma_k(phi) with const 0 from the derivative table of theta at v0
    and the powers of the Abel series: theta(v0 + A(z)) = sum_j D^j theta
    / j! A(z)^j.  The reference for the per-lattice-point exp-series."""
    tau = theta_data.tau
    g = tau.shape[0]
    n = 2 * k + 1
    kvec = theta_data.riemann_constants
    v0 = lattice_reduce(theta_data, -np.asarray(phi, dtype=complex) - kvec)
    a = theta_data.series
    table = theta_deriv_table(v0, tau, 2 * k)
    comp = np.zeros(n, dtype=complex)
    powers = {}
    for s in range(g):
        pw = [np.zeros(n, dtype=complex) for _ in range(2 * k + 1)]
        pw[0][0] = 1.0
        for e in range(1, 2 * k + 1):
            pw[e] = _smul(pw[e - 1], a[s, :n], n)
        powers[s] = pw
    for j, val in table.items():
        term = np.zeros(n, dtype=complex)
        term[0] = 1.0
        fact = 1.0
        for s, order in enumerate(j):
            term = _smul(term, powers[s][order], n)
            fact *= factorial(order)
        comp = comp + (val / fact) * term
    return -2 * k * _slog(comp, n)[2 * k]


@pytest.fixture(scope="module")
def period_data(curve15, theta15, curve_c):
    """Curve and period data by name: the two genus-2 fixtures and the
    genus-3 curve with branch points 0..5 and 6.5."""
    data = {"curve15": (curve15, theta15)}
    for name, curve in [("curve_c", curve_c),
                        ("curve_g3", make_curve([0, 1, 2, 3, 4, 5, 6.5]))]:
        data[name] = (curve, period_matrix(curve))
    return data


class TestSeriesAtInfinity:
    @pytest.mark.parametrize("name", ["curve15", "curve_c", "curve_g3"])
    def test_sigma_series_matches_taylor_table(self, name, period_data):
        curve, td = period_data[name]
        g = curve.genus
        rng = np.random.default_rng(3)
        for _ in range(3):
            phi = rng.uniform(0, 1, g) + td.tau @ rng.uniform(0, 1, g)
            for k in range(1, g + 1):
                got = sigma_series(curve, td, phi, k)
                assert got.shape == (k,)
                for j in range(1, k + 1):
                    ref = taylor_sigma_series(curve, td, phi, j)
                    assert abs(got[j - 1] - ref) <= 1e-12 * abs(ref)

    @pytest.mark.parametrize("name", ["curve15", "curve_c", "curve_g3"])
    def test_rows_of_phi_are_one_row_calls(self, name, period_data):
        """phi of shape (3, g) gives the three one-row results, from one
        lattice that holds all three rows."""
        curve, td = period_data[name]
        g = curve.genus
        rng = np.random.default_rng(4)
        phis = rng.uniform(0, 1, (3, g)) + rng.uniform(0, 1, (3, g)) @ td.tau.T
        got = sigma_series(curve, td, phis, g)
        assert got.shape == (3, g)
        for row, phi in zip(got, phis):
            ref = sigma_series(curve, td, phi, g)
            assert np.all(np.abs(row - ref) <= 1e-12 * np.abs(ref))

    def test_divisor_row_of_a_batch(self, curve15, theta15):
        # the middle row is the theta-divisor point of test_theta_divisor
        x = 0.4 + 0.3j
        on = -abel_map(curve15, theta15,
                       curve15.point(x, np.sqrt(complex(curve15.p(x)))))
        phis = np.array([[0.3 + 0.1j, -0.2 + 0.4j], on, [0.1j, 0.5]])
        with pytest.raises(ThetaDivisor, match=r"at row 1 of phi$"):
            sigma_series(curve15, theta15, phis, 2)

    def test_contour_stable_at_large_sigma(self, period_data):
        """|sigma_3| is about 6e6 here, and sample doubling moves it by
        7e-5 (1e-11 relative): the stability test scales with |sigma_j|.
        phi is the ellipse-basis reproducer (0.544 - 0.121i, -0.219 - 0.346i,
        -0.326 + 0.452i) carried to the chain basis, N_chain N_ellipse^-1
        phi, so it names the same divisor."""
        curve, td = period_data["curve_g3"]
        phi = np.array([-0.871632 - 0.115301j, -0.584472 - 0.421544j,
                        -0.035001 + 0.162805j])
        series = sigma_series(curve, td, phi, 3)
        contour = sigma_contour(curve, td, phi, 3)
        assert abs(series[2]) > 1e6
        assert np.all(np.abs(contour - series) <= 1e-12 * np.abs(series))

    def test_series_built_once_per_curve(self, monkeypatch):
        builds = []
        real = curves._series_invsqrt

        def counted(*args):
            builds.append(args[1])
            return real(*args)

        monkeypatch.setattr(curves, "_series_invsqrt", counted)
        curve = make_curve([1.0, 2.0, 3.0, 4.0, 5.0])
        td = period_matrix(curve)
        pts = [curve.point(0.4 + 0.3j), curve.point(-1.1 - 0.2j)]
        refs = [curve.point(0.2 - 0.7j), curve.point(1.3 + 0.9j)]
        jacobi_inversion_check(curve, td, pts, refs)
        assert builds == [curves.SERIES_TERMS // 2 + 2]


class TestPeriodData:
    @pytest.mark.parametrize("name", ["curve15", "curve_g3"])
    def test_inversion_reads_only_period_data(self, name, period_data,
                                              monkeypatch):
        """Jacobi inversion rebuilds no chain, characteristic or series at
        infinity: period_matrix stored them."""
        curve, td = period_data[name]

        def rebuilt(*args):
            raise AssertionError("per-curve data rebuilt after period_matrix")

        for fn in ("_branch_chain", "_series_at_infinity",
                   "_chain_characteristics"):
            monkeypatch.setattr(curves, fn, rebuilt)
        rng = np.random.default_rng(31)
        xs = rng.standard_normal((2, curve.genus)) \
            + 1j * rng.standard_normal((2, curve.genus))
        pts, refs = ([curve.point(x) for x in row] for row in xs)
        report = jacobi_inversion_check(curve, td, pts, refs)
        assert report["error"] < 1e-5 and report["route_gap"] < 1e-6

    def test_arrays_are_read_only(self):
        td = period_matrix(make_curve(LATTICE_CURVES["pentagon"]))
        for name, value in vars(td).items():
            assert isinstance(value, np.ndarray), name
            with pytest.raises(ValueError, match="read-only"):
                value[(0,) * value.ndim] = 1

    def test_sigma_series_length_capped(self, curve15, theta15):
        """sigma_series reads the stored Abel series to order 2k: a k past
        SERIES_TERMS // 2 raises."""
        with pytest.raises(ValueError, match="SERIES_TERMS"):
            sigma_series(curve15, theta15, np.array([0.1, 0.2j]),
                         curves.SERIES_TERMS // 2 + 1)

    def test_curve_gains_no_state(self):
        """period_matrix and Jacobi inversion leave the curve's attributes
        as build_curve made them: the per-curve arrays live on ThetaData."""
        curve = make_curve([1.0, 2.0, 3.0, 4.0, 5.0])
        before = dict(vars(curve))
        td = period_matrix(curve)
        pts = [curve.point(0.4 + 0.3j), curve.point(-1.1 - 0.2j)]
        refs = [curve.point(0.2 - 0.7j), curve.point(1.3 + 0.9j)]
        jacobi_inversion_check(curve, td, pts, refs)
        assert vars(curve).keys() == before.keys()
        assert all(vars(curve)[name] is value
                   for name, value in before.items())


class TestTruncationBound:
    @pytest.mark.parametrize("name", ["curve15", "curve_c", "curve_g3"])
    def test_tail_beyond_radius(self, name, period_data):
        """Brute force, without the bound's constants: on a box 8 units
        wider than the lattice, the terms times (2 pi |n|)^N outside it sum
        to at most 1e-18 of the peak term, for N = 0, 1 and 2g, at reduced
        arguments and at one shifted by tau m."""
        curve, td = period_data[name]
        g = curve.genus
        rng = np.random.default_rng(9)
        zs = [lattice_reduce(td, rng.uniform(-1, 1, g)
                             + td.tau @ rng.uniform(-1, 1, g))
              for _ in range(3)]
        zs.append(zs[0] + td.tau @ np.arange(2, 2 - g, -1))
        y = td.tau.imag
        for z in zs:
            for order in (0, 1, 2 * g):
                pts = theta._lattice_points(td.tau, z[None, :], order)
                lo = pts.min(axis=0).astype(int) - 8
                hi = pts.max(axis=0).astype(int) + 8
                box = np.indices(hi - lo + 1).reshape(g, -1).T + lo
                # log |exp(pi i n.tau.n + 2 pi i n.z)|
                log_terms = -np.pi * np.einsum('ij,jk,ik->i', box, y, box) \
                    - 2 * np.pi * box @ z.imag
                inside = {tuple(p) for p in pts.astype(int)}
                tail = np.array([tuple(p) not in inside for p in box])
                assert tail.sum() > 0 and len(box) - tail.sum() == len(pts)
                weights = np.exp(log_terms - log_terms.max()) * (
                    2 * np.pi * np.linalg.norm(box, axis=1)) ** order
                assert weights[tail].sum() <= 1e-18

    @pytest.mark.parametrize("name", sorted(LATTICE_CURVES))
    def test_pinned_radius_and_count(self, name):
        """The one-row lattice at orders 0, 1, 4 and 6 is the product
        lattice at the pinned radius, with the pinned count, and mpmath's
        radius walk finds that radius too."""
        curve = make_curve(LATTICE_CURVES[name])
        td = period_matrix(curve)
        g = curve.genus
        rng = np.random.default_rng(5)
        z = (rng.uniform(-1, 1, g) + td.tau @ rng.uniform(-1, 1, g))[None, :]
        for order, (radius, count) in zip((0, 1, 4, 6),
                                          PINNED_LATTICES[name]):
            pts = theta._lattice_points(td.tau, z, order)
            assert len(pts) == count
            np.testing.assert_array_equal(
                pts, product_lattice(td.tau, z[0], radius))
            assert lattice_radius(td.tau, z, order) == pytest.approx(
                radius, rel=1e-12)

    @pytest.mark.parametrize("name", ["curve15", "curve_c", "curve_g3"])
    def test_sigma_series_matches_a_wider_lattice(self, name, period_data,
                                                  monkeypatch):
        """sigma_series on the lattice's bounding box widened by 2 units on
        every side, every point summed, agrees to 1e-12 max(1, |sigma|)."""
        curve, td = period_data[name]
        g = curve.genus
        rng = np.random.default_rng(11)
        phis = rng.uniform(0, 1, (3, g)) + rng.uniform(0, 1, (3, g)) @ td.tau.T
        got = sigma_series(curve, td, phis, g)
        real = theta._lattice_points

        def wider(tau, zs, order):
            pts = real(tau, zs, order)
            lo = pts.min(axis=0).astype(int) - 2
            hi = pts.max(axis=0).astype(int) + 2
            return (np.indices(hi - lo + 1).reshape(g, -1).T + lo).astype(float)

        monkeypatch.setattr(theta, "_lattice_points", wider)
        ref = sigma_series(curve, td, phis, g)
        assert np.all(np.abs(got - ref) <= 1e-12 * np.maximum(1, np.abs(ref)))
