"""The sheet continuation, adaptive quadrature and Abel map that the
exact product rule, the level-synchronous driver and the branch-point Abel
map replaced, kept as the reference for them: nearest-value sheet tracking
with step halving, a depth-first Gauss-Legendre recursion with the
absolute tol / 2^depth rule, and the Abel map from infinity through the
z-chart and a routed path from its exit."""

from functools import partial

import numpy as np

from hitchsov import curves
from hitchsov.errors import (BranchProximity, ContinuationAmbiguity,
                             CycleDegenerate)

GL_NODES, GL_WEIGHTS = np.polynomial.legendre.leggauss(10)


def branch_distances(curve, xs):
    return np.min(np.abs(xs[:, None] - curve.branch_points[None, :]), axis=1)


def sheet_step(curve, x, y_prev):
    """y above x on the sheet nearest y_prev: scalars, or elementwise on
    arrays of one shape.  ContinuationAmbiguity names the first x where the
    two sheets are too close to tell apart."""
    s = np.sqrt(curve.p(x))
    tied = np.abs(s) < 1e-13 * (1 + np.abs(y_prev))
    if np.any(tied):
        raise ContinuationAmbiguity(
            f"sheets indistinguishable at x={np.ravel(x)[np.argmax(tied)]}")
    return np.where(np.abs(s - y_prev) <= np.abs(-s - y_prev), s, -s)[()]


def track_sheets(curve, xs, y_start):
    """y along the samples xs, each on the sheet nearest the one before:
    the sheet flips at sample i when s_i is nearer -s_{i-1} than s_{i-1}."""
    s = np.sqrt(curve.p(xs))
    prev = np.r_[complex(y_start), s[:-1]]
    tied = np.abs(s) < 1e-13 * (1 + np.abs(prev))
    if tied.any():
        raise ContinuationAmbiguity(
            f"sheets indistinguishable at x={xs[np.argmax(tied)]}")
    flip = np.abs(s - prev) > np.abs(-s - prev)
    return np.where(np.cumsum(flip) % 2 == 1, -s, s)


def continue_nodes(curve, a, xs, y0):
    """y at the nodes xs of the polyline a, xs[0], xs[1], ..., from
    y(a) = y0: every step that changes y by more than 10% of the larger |y|
    is halved, all of them in one pass, and the polyline tracked again."""
    pts = np.r_[complex(a), np.asarray(xs, dtype=complex)]
    node = np.ones(len(pts), dtype=bool)
    node[0] = False
    for halvings in range(49):
        ys = track_sheets(curve, pts[1:], y0)
        prev = np.r_[complex(y0), ys[:-1]]
        size = np.maximum(np.abs(prev), np.abs(ys))
        big = np.abs(ys - prev) > 0.1 * size
        if not big.any():
            return ys[node[1:]]
        if halvings == 48 or len(pts) + big.sum() > 1 << 16:
            raise ContinuationAmbiguity(
                f"continuation step still too large after {halvings} halvings")
        step = np.flatnonzero(big)
        mids = 0.5 * (pts[step] + pts[step + 1])
        if (branch_distances(curve, mids) < curve.exclusion_radius).any():
            raise BranchProximity("continuation forced near a branch point")
        pts = np.insert(pts, step + 1, mids)
        node = np.insert(node, step + 1, False)


def segment_gl(curve, a, b, y0):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    xs = mid + half * GL_NODES
    ys = continue_nodes(curve, a, np.r_[xs, b], y0)
    powers = np.vander(xs, curve.genus, increasing=True).T
    return (powers / ys[:-1]) @ GL_WEIGHTS * half, ys[-1]


def integrate_segment(panel, a, b, y0, tol, depth=0, coarse=None):
    """Depth-first adaptive GL over [a, b]: one panel against its halves,
    each half recursing with tol / 2."""
    if coarse is None:
        coarse, _ = panel(a, b, y0)
    mid = 0.5 * (a + b)
    left, ym = panel(a, mid, y0)
    right, y_end = panel(mid, b, ym)
    fine = left + right
    err = np.max(np.abs(fine - coarse))
    if err <= tol:
        return fine, y_end
    if depth >= 24:
        raise CycleDegenerate(f"quadrature not converged at depth {depth}")
    left, ym = integrate_segment(panel, a, mid, y0, tol / 2, depth + 1, left)
    right, y_end = integrate_segment(panel, mid, b, ym, tol / 2, depth + 1, right)
    return left + right, y_end


def integrate_monomials(curve, waypoints, y_start, tol=1e-10):
    """Integrals of x^(k-1) dx / y along the waypoints, and y at the end."""
    acc = np.zeros(curve.genus, dtype=complex)
    y0 = complex(y_start)
    panel = partial(segment_gl, curve)
    for a, b in zip(waypoints[:-1], waypoints[1:]):
        val, y0 = integrate_segment(panel, a, b, y0, tol)
        acc += val
    return acc, y0


def _chart_exit(curve, z0):
    """The point (x, y) at z = z0 where an Abel path leaves the z-chart.

    x = z0^-2 and y = z0^-(2g+1) sqrt(Q(z0^2)), Q(u) = u^(2g+1) P(1/u), on
    the sheet of the series z^-(2g+1) S(z^2) with S(0) = 1 that the series
    part of the Abel map integrates.
    """
    q = curve.coeffs[::-1]
    u = z0**2
    s_val = np.sqrt(np.polynomial.polynomial.polyval(u, q))
    n_u = curves.SERIES_TERMS // 2 + 2
    inv_s = curves._series_invsqrt(np.pad(q, (0, max(0, n_u - len(q))))[:n_u],
                                   n_u)
    s_series = 1.0 / np.polynomial.polynomial.polyval(u, inv_s)
    if abs(s_val - s_series) > abs(s_val + s_series):
        s_val = -s_val
    return z0 ** (-2.0), z0 ** (-(2 * curve.genus + 1)) * s_val


def abel_map(curve, theta_data, target):
    """Integrals of the normalized differentials from infinity to target:
    the Abel series out to |z| equal to the chart radius, then the
    monomials along the path routed from the chart exit to target."""
    z0 = curves._chart_radius(curve)
    series_part = theta_data.series @ z0 ** np.arange(curves.SERIES_TERMS + 1)
    x_start, y_start = _chart_exit(curve, z0)
    way = curves.route_path(curve, x_start, target.x)
    x_part, y_end = curves.integrate_monomials(curve, way, y_start)
    total = series_part + np.asarray(theta_data.normalization) @ x_part
    if abs(y_end - target.y) <= abs(y_end + target.y):
        return total
    return -total  # started on the opposite sheet: flip z0 -> -z0
