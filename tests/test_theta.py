import itertools
from math import factorial

import numpy as np
import numpy.polynomial.polynomial as npoly
import pytest

from conftest import make_curve
from hitchsov import curves, theta
from hitchsov.curves import abel_map, abel_series, lattice_reduce, period_matrix
from hitchsov.errors import (TruncationOverflow, ThetaDivisor,
                             ResidueUnstable)
from hitchsov.theta import (riemann_theta, theta_deriv_table, q_series_theta,
                            riemann_constants, sigma_series, sigma_contour,
                            jacobi_inversion_check)


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
        tau = np.array([[1e-5j]])
        with pytest.raises(TruncationOverflow):
            riemann_theta(np.array([0.3]), tau)


def product_lattice(tau, z, extra_radius):
    """The one-centre lattice built point by point with itertools.product:
    the reference for the array builder."""
    y = np.ascontiguousarray(tau.imag)
    center = -np.linalg.solve(y, np.imag(z))
    lam_min = np.linalg.eigvalsh(y).min()
    radius = np.sqrt(-np.log(1e-18) / (np.pi * lam_min)) + extra_radius
    assert radius <= 60.0
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


class TestBatchedTheta:
    @pytest.mark.parametrize("g", [1, 2, 3])
    @pytest.mark.parametrize("spread", [1.0, 12.0])
    def test_matches_scalar_sums(self, g, spread):
        # centres 12 apart lie outside each other's lattice radius, so the
        # batch needs every row's ellipsoid, not one shared one
        rng = np.random.default_rng(10 * g + int(spread))
        tau = random_tau(g, rng)
        zs = spread_rows(tau, rng, 5, spread)
        th, grad = theta._theta_and_gradient(zs, tau)
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
            for extra in (3.0, 5.0, 7.0):
                np.testing.assert_array_equal(
                    theta._lattice_points(tau, z, extra),
                    product_lattice(tau, z[0], extra))

    def test_rows_share_the_union_lattice(self):
        rng = np.random.default_rng(2)
        tau = random_tau(2, rng)
        zs = spread_rows(tau, rng, 3, 12.0)
        union = {tuple(p) for p in theta._lattice_points(tau, zs, 3.0)}
        own = [{tuple(p) for p in product_lattice(tau, z, 3.0)}
               for z in zs]
        assert union == set().union(*own)

    def test_jacobi_inversion_lattice_count(self, curve15, theta15,
                                            monkeypatch):
        """One lattice per sigma_series call (reference and target) and
        one for the contour circle: every sigma_j from the same three."""
        builds = []
        real = theta._lattice_terms

        def counted(zs, *args):
            builds.append(len(zs))
            return real(zs, *args)

        monkeypatch.setattr(theta, "_lattice_terms", counted)
        pts = [curve15.point(0.4 + 0.3j), curve15.point(-1.1 - 0.2j)]
        refs = [curve15.point(0.2 - 0.7j), curve15.point(1.3 + 0.9j)]
        jacobi_inversion_check(curve15, theta15, pts, refs)
        assert builds == [2, 2, 128]


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
        # theta(A(P) - K) = 0 by Riemann vanishing (K is a half-period)
        x = 0.4 + 0.3j
        phi = -abel_map(curve15, theta15,
                        curve15.point(x, np.sqrt(complex(curve15.p(x)))))
        with pytest.raises(ThetaDivisor):
            sigma_series(curve15, theta15, phi, 1)

    def test_residue_unstable(self, curve15, theta15):
        pts = [curve15.point(0.4 + 0.3j), curve15.point(-1.1 - 0.2j)]
        phi = sum(abel_map(curve15, theta15, p) for p in pts)
        with pytest.raises(ResidueUnstable, match="sample doubling"):
            sigma_contour(curve15, theta15, phi, 1, nsamples=2)

    def test_contour_evaluates_circle_once(self, curve15, theta15,
                                           monkeypatch):
        """theta and its gradient are summed once, on the 2 nsamples
        circle; the nsamples sum reads every other sample of it."""
        rows = []
        real = theta._theta_and_gradient

        def counted(zs, tau):
            rows.append(len(zs))
            return real(zs, tau)

        monkeypatch.setattr(theta, "_theta_and_gradient", counted)
        pts = [curve15.point(0.4 + 0.3j), curve15.point(-1.1 - 0.2j)]
        phi = sum(abel_map(curve15, theta15, p) for p in pts)
        sigma_contour(curve15, theta15, phi, 1, nsamples=32)
        assert rows == [64]


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
    a = abel_series(curve, theta_data, 2 * k)
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
        td = period_matrix(curve)
        riemann_constants(curve, td, rng=np.random.default_rng(0))
        data[name] = (curve, td)
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
        riemann_constants(curve, td)
        pts = [curve.point(0.4 + 0.3j), curve.point(-1.1 - 0.2j)]
        refs = [curve.point(0.2 - 0.7j), curve.point(1.3 + 0.9j)]
        jacobi_inversion_check(curve, td, pts, refs)
        assert builds == [curves.SERIES_TERMS // 2 + 2]
