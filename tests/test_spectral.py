import re
import warnings

import numpy as np
import pytest

from hitchsov import spectral
from hitchsov.errors import RankError, ConditioningWarning
from hitchsov.spectral import (resolve_type, coefficient_layout,
                               SpectralPoint, eval_R, lambda_poly,
                               lambda_roots)

from conftest import make_curve

npoly = np.polynomial.polynomial

FAMILIES = ["GL", "SL", "SO_odd", "SP", "SO_even"]


def dim_of(family, n):
    return {"GL": n * n, "SL": n * n - 1,
            "SO_odd": n * (2 * n + 1), "SP": n * (2 * n + 1),
            "SO_even": n * (2 * n - 1)}[family]


class TestResolveType:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("rank", [1, 2, 3, 4])
    def test_kostant_identity(self, family, rank):
        if rank < 2 and family != "GL":
            pytest.skip("trivial or abelian at rank 1")
        spec = resolve_type(family, rank)
        assert sum(2 * d - 1 for d in spec.deltas) == dim_of(family, rank)
        assert spec.dim == dim_of(family, rank)

    def test_degrees(self):
        assert resolve_type("GL", 3).deltas == (1, 2, 3)
        assert resolve_type("SL", 3).deltas == (2, 3)
        assert resolve_type("SO_odd", 2).deltas == (2, 4)
        assert resolve_type("SP", 2).deltas == (2, 4)
        sp = resolve_type("SO_even", 3)
        assert sp.deltas == (2, 4, 3)
        assert sp.square_last

    def test_bad_family(self):
        with pytest.raises(RankError):
            resolve_type("E8", 1)
        with pytest.raises(RankError):
            resolve_type("GL", 0)


class TestLayout:
    @pytest.mark.parametrize("family", FAMILIES)
    @pytest.mark.parametrize("genus", [2, 3])
    def test_total_count(self, family, genus):
        rank = 2
        curve = make_curve(range(1, 2 * genus + 2))
        layout = coefficient_layout(resolve_type(family, rank), curve)
        expect = dim_of(family, rank) * (genus - 1)
        if family == "GL":
            expect += 1
        assert layout.h == expect

    def test_block_sizes(self):
        curve = make_curve([1, 2, 3, 4, 5])   # g = 2
        layout = coefficient_layout(resolve_type("SP", 2), curve)
        # x-block delta(g-1)+1, y-block (delta-1)(g-1)-1 clipped at 0
        assert tuple(layout.x_sizes) == (3, 5)
        assert tuple(layout.y_sizes) == (0, 2)


class TestEvalR:
    @pytest.mark.parametrize("family", FAMILIES)
    def test_derivatives_match_fd(self, family, curve_c):
        rng = np.random.default_rng(11)
        layout = coefficient_layout(resolve_type(family, 2), curve_c)
        ham = rng.standard_normal(layout.h) \
            + 1j * rng.standard_normal(layout.h)
        x = 0.3 + 0.2j
        y = np.sqrt(complex(curve_c.p(x)))
        lam = 0.7 - 0.4j
        ev = eval_R(layout, curve_c, ham, SpectralPoint(x, y, lam))
        h = 1e-6
        fd_lam = (eval_R(layout, curve_c, ham,
                         SpectralPoint(x, y, lam + h)).value
                  - eval_R(layout, curve_c, ham,
                           SpectralPoint(x, y, lam - h)).value) / (2 * h)
        assert abs(ev.d_lambda - fd_lam) < 1e-6 * (1 + abs(fd_lam))
        # on-curve x-derivative, y moving along the sheet
        def at_x(xx):
            yy = np.sqrt(complex(curve_c.p(xx)))
            if abs(yy - y) > abs(yy + y):
                yy = -yy
            return eval_R(layout, curve_c, ham,
                          SpectralPoint(xx, yy, lam)).value
        fd_x = (at_x(x + h) - at_x(x - h)) / (2 * h)
        assert abs(ev.d_x - fd_x) < 1e-5 * (1 + abs(fd_x))
        # gradient in H by linearity (quadratic last block handled too)
        g_fd = np.empty(layout.h, dtype=complex)
        for k in range(layout.h):
            e = np.zeros(layout.h)
            e[k] = h
            g_fd[k] = (eval_R(layout, curve_c, ham + e,
                              SpectralPoint(x, y, lam)).value
                       - eval_R(layout, curve_c, ham - e,
                                SpectralPoint(x, y, lam)).value) / (2 * h)
        assert np.abs(ev.grad_h - g_fd).max() < 1e-6 * (1 + np.abs(g_fd).max())

    @pytest.mark.parametrize("family", FAMILIES)
    def test_roots_satisfy_r(self, family, curve_c):
        rng = np.random.default_rng(4)
        layout = coefficient_layout(resolve_type(family, 2), curve_c)
        ham = rng.standard_normal(layout.h) \
            + 1j * rng.standard_normal(layout.h)
        x = -0.4 + 0.6j
        y = np.sqrt(complex(curve_c.p(x)))
        roots = lambda_roots(layout, curve_c, ham, x, y)
        assert len(roots) == layout.spec.d
        scale = (1 + np.abs(roots).max()) ** layout.spec.d
        for lam in roots:
            val = eval_R(layout, curve_c, ham,
                         SpectralPoint(x, y, lam)).value
            assert abs(val) < 1e-8 * scale

    def test_double_fiber_root_warns(self, curve_c):
        """R = (lambda - a)^2 for GL(2): the double root must be flagged."""
        a = 1.3 + 0.4j
        layout = coefficient_layout(resolve_type("GL", 2), curve_c)
        ham = np.zeros(layout.h, dtype=complex)
        ham[0], ham[2] = -2 * a, a * a
        x = -0.4 + 0.6j
        y = np.sqrt(complex(curve_c.p(x)))
        with pytest.warns(ConditioningWarning):
            roots = lambda_roots(layout, curve_c, ham, x, y)
        assert np.abs(roots - a).max() < 1e-6

    def test_distinct_fiber_roots_do_not_warn(self, curve_c):
        a, b = 1.3 + 0.4j, 1.3 + 0.4001j
        layout = coefficient_layout(resolve_type("GL", 2), curve_c)
        ham = np.zeros(layout.h, dtype=complex)
        ham[0], ham[2] = -(a + b), a * b
        x = -0.4 + 0.6j
        y = np.sqrt(complex(curve_c.p(x)))
        with warnings.catch_warnings():
            warnings.simplefilter("error", ConditioningWarning)
            roots = lambda_roots(layout, curve_c, ham, x, y)
        assert abs(abs(roots[0] - roots[1]) - 1e-4) < 1e-10

    def test_so_odd_parity(self, curve_c):
        """R is odd in lambda for the odd orthogonal family."""
        rng = np.random.default_rng(9)
        layout = coefficient_layout(resolve_type("SO_odd", 2), curve_c)
        ham = rng.standard_normal(layout.h) \
            + 1j * rng.standard_normal(layout.h)
        x, lam = 0.5 - 0.1j, 0.9 + 0.3j
        y = np.sqrt(complex(curve_c.p(x)))
        vp = eval_R(layout, curve_c, ham, SpectralPoint(x, y, lam)).value
        vm = eval_R(layout, curve_c, ham, SpectralPoint(x, y, -lam)).value
        assert abs(vp + vm) < 1e-12 * (1 + abs(vp))

    def test_sp_parity(self, curve_c):
        """R is even in lambda for the symplectic family."""
        rng = np.random.default_rng(9)
        layout = coefficient_layout(resolve_type("SP", 2), curve_c)
        ham = rng.standard_normal(layout.h) \
            + 1j * rng.standard_normal(layout.h)
        x, lam = 0.5 - 0.1j, 0.9 + 0.3j
        y = np.sqrt(complex(curve_c.p(x)))
        vp = eval_R(layout, curve_c, ham, SpectralPoint(x, y, lam)).value
        vm = eval_R(layout, curve_c, ham, SpectralPoint(x, y, -lam)).value
        assert abs(vp - vm) < 1e-12 * (1 + abs(vp))

    def test_lambda_poly_matches_eval(self, curve_c, gl2):
        rng = np.random.default_rng(2)
        ham = rng.standard_normal(gl2.h) + 1j * rng.standard_normal(gl2.h)
        x = 0.2 + 0.1j
        y = np.sqrt(complex(curve_c.p(x)))
        poly = lambda_poly(gl2, ham, x, y)
        lam = -0.3 + 0.8j
        direct = eval_R(gl2, curve_c, ham, SpectralPoint(x, y, lam)).value
        horner = np.polynomial.polynomial.polyval(lam, poly)
        assert abs(direct - horner) < 1e-12 * (1 + abs(direct))


def reference_eval_R(layout, curve, ham, pt):
    """The per-point evaluation that the array form replaced, kept as the
    oracle: a Python loop over the blocks for one point."""
    spec = layout.spec
    ham = np.asarray(ham, dtype=complex)
    x, y, lam = pt.x, pt.y, pt.lam
    dy_dx = curve.dp(x) / (2.0 * y)
    value = lam ** spec.d
    d_lambda = spec.d * lam ** (spec.d - 1)
    d_x = 0.0 + 0.0j
    grad = np.zeros(layout.h, dtype=complex)
    for j, dj in enumerate(spec.dees):
        hx = ham[layout.x_slice(j)]
        hy = ham[layout.y_slice(j)]
        kx = np.arange(len(hx))
        ks = np.arange(len(hy))
        xpow = x ** kx
        b = hx @ xpow
        db = hx[1:] @ (kx[1:] * x ** (kx[1:] - 1)) if len(hx) > 1 else 0.0
        gx = xpow.astype(complex)
        gy = np.zeros(0, dtype=complex)
        if len(hy):
            spow = x ** ks
            b = b + (hy @ spow) * y
            db = db + (hy[1:] @ (ks[1:] * x ** (ks[1:] - 1))) * y \
                if len(hy) > 1 else db
            db = db + (hy @ spow) * dy_dx
            gy = spow * y
        lam_fac = lam ** (spec.d - dj)
        squared = spec.square_last and j == len(spec.dees) - 1
        if squared:
            value += lam_fac * b * b
            d_x += lam_fac * 2.0 * b * db
            grad[layout.x_slice(j)] = lam_fac * 2.0 * b * gx
            if len(gy):
                grad[layout.y_slice(j)] = lam_fac * 2.0 * b * gy
        else:
            value += lam_fac * b
            d_x += lam_fac * db
            grad[layout.x_slice(j)] = lam_fac * gx
            if len(gy):
                grad[layout.y_slice(j)] = lam_fac * gy
        if spec.d != dj:
            contrib = (spec.d - dj) * lam ** (spec.d - dj - 1)
            d_lambda += contrib * (b * b if squared else b)
    return value, d_lambda, grad, d_x


def reference_lambda_roots(layout, ham, x, y):
    """polyroots on the fiber polynomial, then two Newton polishes."""
    coeffs = lambda_poly(layout, ham, x, y)
    roots = npoly.polyroots(coeffs)
    dcoeffs = npoly.polyder(coeffs)
    for _ in range(2):
        val = npoly.polyval(roots, coeffs)
        der = npoly.polyval(roots, dcoeffs)
        safe = np.abs(der) > 1e-300
        roots = roots - np.where(safe, val / np.where(safe, der, 1.0), 0.0)
    return roots


def random_points(curve, rng, n):
    x = 0.8 * (rng.standard_normal(n) + 1j * rng.standard_normal(n))
    y = np.sqrt(curve.p(x)) * rng.choice([-1.0, 1.0], n)
    lam = rng.standard_normal(n) + 1j * rng.standard_normal(n)
    return x, y, lam


# GL, SL and SO_odd/SP at rank 2 and 3 cover the x-blocks and the y-blocks;
# SO_even(3) has a y-part in its squared block
ARRAY_TYPES = [(f, r) for f in FAMILIES for r in (2, 3)]


class TestArrayForms:
    @pytest.mark.parametrize("family, rank", ARRAY_TYPES)
    @pytest.mark.parametrize("genus", [2, 3])
    def test_eval_R_matches_per_point(self, family, rank, genus):
        rng = np.random.default_rng(23)
        curve = make_curve(np.arange(2 * genus + 1) - 0.5 * genus
                           + 0.3j * np.cos(np.arange(2 * genus + 1)))
        layout = coefficient_layout(resolve_type(family, rank), curve)
        ham = rng.standard_normal(layout.h) \
            + 1j * rng.standard_normal(layout.h)
        x, y, lam = random_points(curve, rng, 7)
        ev = eval_R(layout, curve, ham, SpectralPoint(x, y, lam))
        assert ev.value.shape == ev.d_lambda.shape == ev.d_x.shape == (7,)
        assert ev.grad_h.shape == (7, layout.h)
        for i in range(7):
            ref = reference_eval_R(layout, curve, ham,
                                   SpectralPoint(x[i], y[i], lam[i]))
            got = (ev.value[i], ev.d_lambda[i], ev.grad_h[i], ev.d_x[i])
            for r, g in zip(ref, got):
                assert np.abs(g - r).max() <= 1e-13 * np.abs(r).max()

    def test_scalar_point_gives_scalars(self, curve_c):
        layout = coefficient_layout(resolve_type("SP", 2), curve_c)
        ham = np.arange(layout.h) * (0.3 - 0.1j)
        x = 0.2 - 0.5j
        y = np.sqrt(complex(curve_c.p(x)))
        ev = eval_R(layout, curve_c, ham, SpectralPoint(x, y, 0.4 + 1j))
        assert np.ndim(ev.value) == np.ndim(ev.d_lambda) \
            == np.ndim(ev.d_x) == 0
        assert ev.grad_h.shape == (layout.h,)
        roots = lambda_roots(layout, curve_c, ham, x, y)
        assert roots.shape == (layout.spec.d,)
        assert lambda_poly(layout, ham, x, y).shape == (layout.spec.d + 1,)

    @pytest.mark.parametrize("family, rank", ARRAY_TYPES)
    def test_lambda_roots_match_polyroots(self, family, rank, curve_c):
        rng = np.random.default_rng(31)
        layout = coefficient_layout(resolve_type(family, rank), curve_c)
        ham = rng.standard_normal(layout.h) \
            + 1j * rng.standard_normal(layout.h)
        x, y, _ = random_points(curve_c, rng, 6)
        rows = lambda_roots(layout, curve_c, ham, x, y)
        assert rows.shape == (6, layout.spec.d)
        for i in range(6):
            ref = reference_lambda_roots(layout, ham, x[i], y[i])
            # a scalar call is the per-point computation, bit for bit
            assert np.array_equal(lambda_roots(layout, curve_c, ham,
                                               x[i], y[i]), ref)
            assert np.abs(rows[i] - ref).max() \
                <= 1e-13 * np.abs(ref).max()

    def test_warning_names_the_point(self, curve_c):
        """GL(2) with a double fiber root above x0 only."""
        x0, a = 0.3 - 0.2j, 1.3 + 0.4j
        layout = coefficient_layout(resolve_type("GL", 2), curve_c)
        ham = np.array([-2 * a - 0.5 * x0, 0.5, 0.0, -0.2 * x0, 0.1],
                       dtype=complex)
        ham[2] = a * a - ham[3] * x0 - ham[4] * x0 * x0
        xs = np.array([-0.7 + 0.1j, x0, 0.9 + 0.6j])
        ys = np.sqrt(curve_c.p(xs))
        with pytest.warns(ConditioningWarning) as record:
            roots = lambda_roots(layout, curve_c, ham, xs, ys)
        assert len(record) == 1
        assert f"x={xs[1]}" in str(record[0].message)
        assert np.abs(roots[1] - a).max() < 1e-6


def nearest(roots, lam0):
    """Row i's entry of roots nearest lam0[i]."""
    pick = np.argmin(np.abs(roots - lam0[:, None]), axis=1)
    return roots[np.arange(len(lam0)), pick]


class TestTrackRoots:
    """The fiber route's certified Newton tracker, against the nearest
    root of the eigensolve, and its fallback to that eigensolve."""

    @staticmethod
    def count_fallbacks(monkeypatch):
        rows = []
        real = spectral.lambda_roots

        def counted(layout, curve, ham, x, y):
            rows.append(len(x))
            return real(layout, curve, ham, x, y)
        monkeypatch.setattr(spectral, "lambda_roots", counted)
        return rows

    @pytest.mark.parametrize("family", ["GL", "SP", "SO_even"])
    def test_nearest_root_after_small_steps(self, family, curve_c,
                                            monkeypatch):
        rng = np.random.default_rng(12)
        n = 40
        layout = coefficient_layout(resolve_type(family, 2), curve_c)
        ham = rng.standard_normal(layout.h) \
            + 1j * rng.standard_normal(layout.h)
        x, y, _ = random_points(curve_c, rng, n)
        roots = lambda_roots(layout, curve_c, ham, x, y)
        lam0 = roots[np.arange(n), rng.integers(layout.spec.d, size=n)]
        # steps of 1e-4 to 1e-2 in x, with y continued along them
        x1 = x + 10 ** rng.uniform(-4, -2, n) * np.exp(
            2j * np.pi * rng.random(n))
        y1 = np.sqrt(curve_c.p(x1))
        y1 = np.where(np.abs(y1 - y) < np.abs(y1 + y), y1, -y1)
        expect = nearest(lambda_roots(layout, curve_c, ham, x1, y1), lam0)
        fallbacks = self.count_fallbacks(monkeypatch)
        got = spectral._track_roots(layout, ham, x1, y1, lam0)
        assert fallbacks == []
        assert np.all(np.abs(got - expect) <= 1e-12 * np.abs(expect))

    def test_close_roots_fail_the_certificate(self, curve_c, monkeypatch):
        """GL(2) with the roots m -+ eps above every x, eps = 5e-8 (so
        B1^2 - 4 B2 = 4 eps^2), tracked from between them: Newton
        converges, but Pellet's test cannot isolate one root."""
        m, eps = 1.3 + 0.4j, 5e-8
        layout = coefficient_layout(resolve_type("GL", 2), curve_c)
        ham = np.zeros(layout.h, dtype=complex)
        ham[0], ham[2] = -2 * m, m * m - eps * eps
        x = np.array([-0.4 + 0.6j])
        y = np.sqrt(curve_c.p(x))
        lam0 = np.array([m + 0.4 * eps])
        with pytest.warns(ConditioningWarning):
            expect = nearest(lambda_roots(layout, curve_c, ham, x, y), lam0)
        fallbacks = self.count_fallbacks(monkeypatch)
        with pytest.warns(ConditioningWarning, match=re.escape(f"x={x[0]}")):
            got = spectral._track_roots(layout, ham, x, y, lam0)
        assert fallbacks == [1]
        assert got[0] == expect[0]
        assert abs(got[0] - m) < 1e-6

    def test_roundoff_term_decides_large_roots(self, curve_c, monkeypatch):
        """GL(2) with the roots m -+ eps, |m| = 1.4e4 and eps = 1e-3,
        tracked from 1e-6 beside m + eps.  Rounding m^2 - eps^2 alone moves
        the roots by about 1e-5, so no root can be certified this close to
        its neighbour; the roundoff term gamma b_k of the shifted
        coefficients is what fails Pellet's test, and without it the
        tracker keeps a Newton root 1.7e-5 from m + eps."""
        m, eps = 1e4 * (1.3 + 0.4j), 1e-3
        layout = coefficient_layout(resolve_type("GL", 2), curve_c)
        ham = np.zeros(layout.h, dtype=complex)
        ham[0], ham[2] = -2 * m, m * m - eps * eps
        x = np.array([-0.4 + 0.6j])
        y = np.sqrt(curve_c.p(x))
        lam0 = np.array([m + eps * (1 + 1e-3)])
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", ConditioningWarning)
            expect = nearest(lambda_roots(layout, curve_c, ham, x, y), lam0)
            fallbacks = self.count_fallbacks(monkeypatch)
            got = spectral._track_roots(layout, ham, x, y, lam0)
        assert fallbacks == [1]
        assert got[0] == expect[0]

    @pytest.mark.parametrize("lam_bad", [-0.5, 1e200])
    def test_failed_newton_falls_back(self, curve_c, monkeypatch, lam_bad):
        """R = (lambda - 1)(lambda + 2) above every x: dR/dlambda vanishes
        at -1/2, and lambda0 = 1e200 overflows the shift.  The row beside
        it is tracked."""
        layout = coefficient_layout(resolve_type("GL", 2), curve_c)
        ham = np.zeros(layout.h, dtype=complex)
        ham[0], ham[2] = 1.0, -2.0
        x = np.array([-0.4 + 0.6j, 0.3 - 0.2j])
        y = np.sqrt(curve_c.p(x))
        lam0 = np.array([lam_bad, 1.0 + 1e-3], dtype=complex)
        expect = nearest(lambda_roots(layout, curve_c, ham, x, y), lam0)
        fallbacks = self.count_fallbacks(monkeypatch)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = spectral._track_roots(layout, ham, x, y, lam0)
        assert fallbacks == [1]
        assert np.isfinite(got).all()
        assert got[0] == expect[0]
        assert abs(got[1] - 1.0) < 1e-15
