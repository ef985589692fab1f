"""Hyperelliptic curve arithmetic.

A curve is given by ``y^2 = P(x)`` with ``P`` monic of odd degree ``2g+1``,
so there is a single point at infinity.  The module provides analytic
continuation of ``y`` along paths in the ``x``-plane, holomorphic
differentials ``x^(k-1) dx / y``, period matrices for the standard
hyperelliptic homology basis, and Abel maps based at infinity.  y is
continued along straight segments exactly, as y = prod_k (x - e_k)^(1/2)
(``_sheet_ratio``), and integrals run on one level-synchronous adaptive
Gauss-Legendre driver (``_adaptive_gl``).  Every series at infinity, in
the local parameter ``z`` with ``x = z^-2``, is read from one expansion
of ``1/sqrt(Q(z^2))`` held by the curve.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import cached_property, partial

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    BranchProximity,
    ContinuationAmbiguity,
    CycleDegenerate,
    DegreeError,
    DuplicateBranchPoint,
)

_GL_NODES, _GL_WEIGHTS = np.polynomial.legendre.leggauss(10)

# terms in z of the series at infinity: the longest any caller reads
SERIES_TERMS = 96


@dataclass(frozen=True)
class CurvePoint:
    """A finite point (x, y) on the curve."""

    x: complex = 0.0
    y: complex = 0.0


@dataclass
class ThetaData:
    """Period data of a curve: tau, a-period normalization, and (optionally)
    the Riemann constant vector."""

    tau: np.ndarray
    normalization: np.ndarray
    riemann_constants: np.ndarray | None = None


class HyperellipticCurve:
    """Genus-g curve y^2 = P(x), P monic of degree 2g+1 with simple roots."""

    def __init__(self, coeffs, branch_points):
        self.coeffs = np.asarray(coeffs, dtype=complex)  # ascending powers
        self.branch_points = np.asarray(branch_points, dtype=complex)
        self.degree = len(self.coeffs) - 1
        self.genus = (self.degree - 1) // 2
        seps = np.abs(self.branch_points[:, None] - self.branch_points[None, :])
        np.fill_diagonal(seps, np.inf)
        self.min_separation = float(seps.min())
        self.exclusion_radius = 1e-3 * self.min_separation
        # comfortable clearance used for routing; never below the exclusion radius
        self.clearance = 0.05 * self.min_separation
        self._dcoeffs = npoly.polyder(self.coeffs)

    def p(self, x):
        return _horner(self.coeffs, x)

    def dp(self, x):
        return _horner(self._dcoeffs, x)

    def point(self, x, y_hint=None) -> CurvePoint:
        """Point on the curve above x, on the sheet nearest y_hint."""
        y = np.sqrt(self.p(x))
        if y_hint is not None and abs(y - y_hint) > abs(-y - y_hint):
            y = -y
        return CurvePoint(complex(x), complex(y))

    def nearest_branch_distance(self, x):
        """Distance from x (scalar or array) to the nearest branch point."""
        return np.abs(np.asarray(x)[..., None] - self.branch_points).min(axis=-1)

    @cached_property
    def invsqrt_series(self):
        """1/sqrt(Q(u)) to SERIES_TERMS // 2 + 2 terms in u = z^2, where
        Q(u) = u^(2g+1) P(1/u), so y = z^-(2g+1) sqrt(Q(z^2)).  Built on
        first use, once per curve, and read-only: every caller shares it."""
        n_u = SERIES_TERMS // 2 + 2
        q = np.pad(self.coeffs[::-1], (0, max(0, n_u - len(self.coeffs))))
        series = _series_invsqrt(q[:n_u], n_u)
        series.flags.writeable = False
        return series


def _horner(c, x):
    """sum_k c[k] x^k by the recurrence of numpy's ``polyval``, so the
    values match it bit for bit, without its per-call argument handling."""
    c0 = c[-1] + x * 0
    for ck in c[-2::-1]:
        c0 = ck + c0 * x
    return c0


def build_curve(coeffs, genus_one_ok=False) -> HyperellipticCurve:
    """Validate coefficients and locate the branch points.

    ``coeffs`` are ascending-power coefficients of a monic polynomial of odd
    degree 2g+1 >= 5 (or 3 when ``genus_one_ok`` is set, for elliptic test
    cases).  Roots come from the companion-matrix eigensolve and are polished
    with two Newton steps.

    Raises ``DuplicateBranchPoint`` unless ``root_cluster_margin`` certifies
    the polished roots as pairwise distinct, i.e. their Newton inclusion
    discs are disjoint.  The test scales with each root's conditioning, not
    with a fixed distance: a double or triple root is always rejected
    (double precision resolves it only to about eps^(1/m)), roots 1e-4 apart
    build, and pairs about 1e-6 apart fall in a grey zone where double
    precision cannot certify them and some are rejected.
    """
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.size and coeffs[-1] == 0:
        raise DegreeError("leading coefficient must be nonzero")
    deg = len(coeffs) - 1
    min_deg = 3 if genus_one_ok else 5
    if deg < min_deg or deg % 2 == 0:
        raise DegreeError(f"degree must be odd and >= {min_deg}, got {deg}")
    if abs(coeffs[-1] - 1.0) > 1e-12:
        coeffs = coeffs / coeffs[-1]
    roots = npoly.polyroots(coeffs)
    dcoeffs = npoly.polyder(coeffs)
    for _ in range(2):  # Newton polish
        dp = npoly.polyval(roots, dcoeffs)
        mask = np.abs(dp) > 1e-14
        roots[mask] -= npoly.polyval(roots[mask], coeffs)[mask] / dp[mask]
    margin = root_cluster_margin(coeffs, roots)
    if not margin > 1.0:
        seps = np.abs(roots[:, None] - roots[None, :])
        np.fill_diagonal(seps, np.inf)
        raise DuplicateBranchPoint(
            f"branch points not certified distinct (min separation "
            f"{seps.min():.3e}, cluster margin {margin:.3g} <= 1)"
        )
    return HyperellipticCurve(coeffs, roots)


def root_cluster_margin(coeffs, roots) -> float:
    """Smallest ratio |r_i - r_j| / (rho_i + rho_j) over pairs of roots.

    ``rho_i = n (|P(r_i)| + gamma_4n sum_k |a_k| |r_i|^k) / |P'(r_i)|`` is
    the radius of the Newton inclusion disc around the computed root r_i of
    the degree-n polynomial P (ascending ``coeffs``): that disc contains a
    true root of P.  The second term bounds the roundoff of evaluating P by
    Horner's rule in complex arithmetic (Higham, *Accuracy and Stability of
    Numerical Algorithms*, sections 3.6 and 5.1; the real-arithmetic
    constant gamma_2n doubles).  A margin above 1 means the n discs are
    pairwise disjoint, so each holds exactly one root and all roots are
    simple.  A margin at or below 1 means double precision cannot tell the
    roots apart: a repeated root always lands here, and so can a pair of
    roots closer than about 1e-6 relative to the coefficients.  A root with
    P'(r) = 0 gets an infinite disc.  Returns inf for fewer than two roots.
    """
    # scalar loops: for the n <= 7 roots met here they beat numpy's overhead
    desc = [(a, abs(a)) for a in map(complex, coeffs[::-1])]
    n = len(desc) - 1
    u = 2.0**-53  # unit roundoff of double precision
    gamma = 4 * n * u / (1 - 4 * n * u)
    roots = [complex(r) for r in roots]
    rho = []
    for r in roots:
        val = der = 0j
        bound, abs_r = 0.0, abs(r)
        for a, abs_a in desc:  # Horner for P(r), P'(r), sum |a_k||r|^k
            der = der * r + val
            val = val * r + a
            bound = bound * abs_r + abs_a
        radius = n * (abs(val) + gamma * bound) / abs(der) if der else np.inf
        rho.append(np.inf if math.isnan(radius) else radius)  # nan: overflow
    margin = np.inf
    for (ri, pi), (rj, pj) in itertools.combinations(zip(roots, rho), 2):
        # both radii vanish only for two exact roots at 0 (a_0 = 0): a repeat
        margin = min(margin, abs(ri - rj) / (pi + pj) if pi + pj else 0.0)
    return float(margin)


# ----------------------------------------------------------------------
# analytic continuation of y
# ----------------------------------------------------------------------

def _sheet_ratio(curve, a, x):
    """y(x) / y(a) for y continued along the straight segment from a to x.

    P is monic, so y = prod_k (x - e_k)^(1/2).  Along a segment that misses
    every branch point, each ratio (x - e_k) / (a - e_k) starts at 1 and
    cannot cross the negative real axis, so its principal square root is
    the continuous one.  Broadcasts over a and x; nothing is sampled.
    """
    e = curve.branch_points
    return np.sqrt((x[..., None] - e) / (a[..., None] - e)).prod(axis=-1)


def continue_y(curve: HyperellipticCurve, path, y_start):
    """Continue y = sqrt(P(x)) along the polyline through the x-values path.

    Returns y at the waypoints: y_start times the running product of the
    exact segment ratios of ``_sheet_ratio``.  Raises ContinuationAmbiguity
    when y_start is not on the curve above path[0] and BranchProximity when
    a segment passes within the exclusion radius of a branch point.
    """
    path = np.asarray(path, dtype=complex)
    y0 = complex(y_start)
    scale = 1.0 + abs(curve.p(path[0]))
    if abs(y0**2 - curve.p(path[0])) > 1e-8 * scale * (1 + abs(y0) ** 2):
        raise ContinuationAmbiguity("y_start does not lie on the curve above path[0]")
    a, seg = path[:-1, None], np.diff(path)[:, None]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = np.real(np.conj(seg) * (curve.branch_points - a)) / np.abs(seg) ** 2
    near = a + np.nan_to_num(np.clip(t, 0, 1)) * seg  # nearest to each e_k
    dist = np.abs(near - curve.branch_points)
    if dist.size and dist.min() < curve.exclusion_radius:
        raise BranchProximity(f"continuation forced through "
                              f"x={near.flat[np.argmin(dist)]} near a branch point")
    return y0 * np.cumprod(np.r_[1.0, _sheet_ratio(curve, path[:-1], path[1:])])


def _sample_sheets(curve, xs, y_start):
    """+-sqrt(P) at the vertices of the polyline xs, continued from y_start
    at xs[0]: the sign flips where sqrt(P) is nearer minus its predecessor
    times the exact step ratio, so no roundoff accumulates over samples."""
    s = np.sqrt(curve.p(xs))
    prev = np.r_[xs[0], xs[:-1]]
    # blocks of samples keep the (samples, branch points) temporaries small
    ratio = np.concatenate([_sheet_ratio(curve, prev[i:i + 512], xs[i:i + 512])
                            for i in range(0, len(xs), 512)])
    pred = np.r_[complex(y_start), s[:-1]] * ratio
    flip = np.abs(s - pred) > np.abs(s + pred)
    return np.where(np.cumsum(flip) % 2 == 1, -s, s)


# ----------------------------------------------------------------------
# routing and quadrature
# ----------------------------------------------------------------------

def route_path(curve: HyperellipticCurve, x_from, x_to):
    """Waypoints from x_from to x_to avoiding branch points by circular arcs."""
    out = [complex(x_from)]
    _route_segment(curve, complex(x_from), complex(x_to), out, set())
    return np.array(out)


def _route_segment(curve, a, b, out, visited, depth=0):
    if depth > 3 * len(curve.branch_points) + 8:
        raise CycleDegenerate("path routing did not converge")
    seg = b - a
    length = abs(seg)
    if length == 0:
        return
    blocking = None
    best_t = np.inf
    for k, e in enumerate(curve.branch_points):
        t = np.real(np.conj(seg) * (e - a)) / length**2
        if 1e-12 < t < 1 - 1e-12:
            d = abs(a + t * seg - e)
            if d < curve.clearance * 0.999 and t < best_t and k not in visited:
                blocking, best_t = k, t
    if blocking is None:
        out.append(b)
        return
    e = curve.branch_points[blocking]
    r = curve.clearance
    # entry/exit points on the circle of radius r, swept through the side
    # away from the segment
    u = seg / length
    foot = a + best_t * seg
    side = foot - e
    if abs(side) < 1e-14 * (1 + abs(e)):
        side = 1j * u
    side /= abs(side)
    p_in = e + r * _unit(a - e)
    p_out = e + r * _unit(b - e)
    _route_segment(curve, a, p_in, out, visited | {blocking}, depth + 1)
    # arc from p_in to p_out passing through e + r*side
    ang0 = np.angle(p_in - e)
    ang2 = np.angle(p_out - e)
    angm = np.angle(side)
    sweep = _arc_angles(ang0, angm, ang2)
    for ang in sweep[1:]:
        out.append(e + r * np.exp(1j * ang))
    _route_segment(curve, out[-1], b, out, visited | {blocking}, depth + 1)


def _unit(v):
    return v / abs(v)


def _arc_angles(a0, am, a2, n=12):
    """Angles from a0 to a2 passing through am."""
    d1 = np.angle(np.exp(1j * (am - a0)))
    d2 = np.angle(np.exp(1j * (a2 - am)))
    return np.concatenate(
        [a0 + np.linspace(0, d1, n // 2 + 1), am + np.linspace(0, d2, n // 2 + 1)[1:]]
    )


def integrate_monomials(curve: HyperellipticCurve, waypoints, y_start, tol=1e-10):
    """Integrate the g monomial differentials x^(k-1) dx / y along a path.

    y at the waypoints is the running product of the exact segment ratios,
    and all segments go through one ``_adaptive_gl`` call.  Returns (vector
    of g integrals, y at path end).
    """
    way = np.asarray(waypoints, dtype=complex)
    ys = continue_y(curve, way, y_start)
    vals, _ = _adaptive_gl(partial(_monomial_panels, curve), way[:-1], way[1:],
                           ys[:-1], tol)
    return vals.sum(axis=0), ys[-1]


def _panel_nodes(a, b):
    """Half-widths (n, 1) of the panels [a_i, b_i], and their GL nodes
    followed by b_i, shape (n, 11)."""
    half = (0.5 * (b - a))[:, None]
    mid = (0.5 * (a + b))[:, None]
    return half, np.concatenate((mid + half * _GL_NODES, b[:, None]), axis=1)


def _monomial_panels(curve, a, b, ya):
    """GL panels [a_i, b_i] of x^(k-1) / y from y(a_i) = ya_i: the (n, g)
    integrals and y at each b_i."""
    half, xs = _panel_nodes(a, b)
    ys = ya[:, None] * _sheet_ratio(curve, a[:, None], xs)
    powers = np.vander(xs[:, :-1].ravel(), curve.genus, increasing=True)
    vals = _GL_WEIGHTS @ (powers.reshape(len(a), -1, curve.genus) / ys[:, :-1, None])
    return vals * half, ys[:, -1]


# active panels of one _adaptive_gl level, and so a bound on its memory: a
# level can double them
_MAX_PANELS = 1 << 12
# |fine - coarse| below this share of |fine| is roundoff, and accepted
_ULP_FLOOR = 16 * np.finfo(float).eps


def _adaptive_gl(panel, a, b, start, tol):
    """Adaptive Gauss-Legendre integrals over the segments [a_i, b_i].

    panel(a, b, start) -> (values (n, m), end) integrates n panels at once
    from start, the datum at each a continued along the path (y, or y and
    a fiber root), and returns the datum at each b.  Each level splits all
    active panels in two batched calls: left halves from their parents'
    start data, then right halves from the left halves' end data.  A panel
    at depth d is accepted when max |fine - coarse| (its halves' sum
    against its own value) is at most tol / 2^d or _ULP_FLOOR max |fine|.
    Returns the (len(a), m) segment integrals and the datum at each b_i;
    raises CycleDegenerate at depth 24 or past _MAX_PANELS active panels.
    """
    a = np.asarray(a, dtype=complex)
    b = seg_end = np.asarray(b, dtype=complex)
    start, seg = np.asarray(start), np.arange(len(a))
    coarse, end_data = panel(a, b, start)
    end_data, total = np.array(end_data), np.zeros_like(coarse)
    for depth in range(25):  # every active panel is 2^-depth of its segment
        mid = 0.5 * (a + b)
        left, mid_data = panel(a, mid, start)
        right, b_data = panel(mid, b, mid_data)
        fine = left + right
        err = np.abs(fine - coarse).max(axis=1)
        size = np.abs(fine).max(axis=1)
        ok = (err <= tol * 0.5**depth) | (err <= _ULP_FLOOR * size)
        np.add.at(total, seg[ok], fine[ok])
        done = ok & (b == seg_end[seg])
        end_data[seg[done]] = b_data[done]
        bad = ~ok
        if not bad.any():
            return total, end_data
        if depth == 24 or 2 * bad.sum() > _MAX_PANELS:
            worst = np.argmax(np.where(bad, err, -1.0))
            cause = "" if depth == 24 else (
                f" (splitting {bad.sum()} would pass the cap of {_MAX_PANELS})")
            raise CycleDegenerate(
                f"quadrature not converged at depth {depth} with {len(a)} "
                f"active panels{cause}: worst |fine - coarse| "
                f"{err[worst]:.3e} against |fine| {size[worst]:.3e}")
        # the children: left halves, then right halves
        a, b, start, coarse, seg = (np.concatenate(pair) for pair in (
            (a[bad], mid[bad]), (mid[bad], b[bad]), (start[bad], mid_data[bad]),
            (left[bad], right[bad]), (seg[bad], seg[bad])))


# ----------------------------------------------------------------------
# homology contours and periods
# ----------------------------------------------------------------------

@dataclass
class _Contour:
    center: complex
    axes: tuple  # (A, B)
    angle: float

    def sample(self, n):
        th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        rot = np.exp(1j * self.angle)
        xs = self.center + rot * (self.axes[0] * np.cos(th) + 1j * self.axes[1] * np.sin(th))
        dxs = rot * (-self.axes[0] * np.sin(th) + 1j * self.axes[1] * np.cos(th))
        return xs, dxs, 2 * np.pi / n


def _winding(xs, e):
    rel = xs - e
    return int(round(np.sum(np.angle(rel[np.r_[1:len(rel), 0]] / rel)) / (2 * np.pi)))


def _enclosing_contour(curve, inside_idx):
    """Ellipse enclosing exactly the branch points with the given indices."""
    pts = curve.branch_points[inside_idx]
    others = np.delete(curve.branch_points, inside_idx)
    c = pts.mean()
    rel = pts - c
    # principal axis of the enclosed set
    cov = np.array(
        [
            [np.sum(rel.real**2), np.sum(rel.real * rel.imag)],
            [np.sum(rel.real * rel.imag), np.sum(rel.imag**2)],
        ]
    )
    w, v = np.linalg.eigh(cov)
    angle = float(np.arctan2(v[1, -1], v[0, -1]))
    loc = rel * np.exp(-1j * angle)
    a_ext, b_ext = np.max(np.abs(loc.real)), np.max(np.abs(loc.imag))
    gap = (
        np.min(np.abs(others[:, None] - pts[None, :])) if len(others) else curve.min_separation
    )
    for frac in (0.45, 0.3, 0.2, 0.12, 0.07):
        delta = max(frac * gap, 2 * curve.exclusion_radius)
        cont = _Contour(c, (a_ext + delta, b_ext + delta), angle)
        xs, _, _ = cont.sample(512)
        dist = np.min(np.abs(xs[:, None] - curve.branch_points[None, :]))
        if dist < 2 * curve.exclusion_radius:
            continue
        if all(_winding(xs, e) == 1 for e in pts) and all(
            _winding(xs, e) == 0 for e in others
        ):
            return cont
    raise CycleDegenerate(f"no valid contour around branch points {inside_idx}")


def homology_contours(curve: HyperellipticCurve):
    """Ellipse contours of the a- and b-cycles.

    With branch points sorted by real part (ties by imaginary part),
    a_i encircles the pair (e_{2i-1}, e_{2i}) and b_i encircles
    e_{2i}, ..., e_{2g+1}; nested in-plane contours keep the lifted
    intersection pairing canonical.
    """
    order = np.lexsort((curve.branch_points.imag, curve.branch_points.real))
    g = curve.genus
    a_cycles = [_enclosing_contour(curve, order[2 * i : 2 * i + 2]) for i in range(g)]
    b_cycles = [_enclosing_contour(curve, order[2 * i + 1 :]) for i in range(g)]
    return a_cycles, b_cycles


def _anchor(curve):
    e = curve.branch_points
    span = max(np.max(np.abs(e - e.mean())), curve.min_separation)
    x0 = e.mean() + 3.0 * span + 2.0
    return complex(x0), complex(np.sqrt(curve.p(x0)))


def _cycle_periods(curve, contour, y_start, tol=1e-11):
    """Integrals of the g monomial differentials around a closed contour,
    started on the sheet of y_start at its first sample.

    The sample count doubles from 256 until two successive values agree to
    tol; raises CycleDegenerate when 2^15 samples do not get there.
    """
    prev = None
    n = 256
    while n <= 1 << 15:
        xs, dxs, dth = contour.sample(n)
        ys = _sample_sheets(curve, np.r_[xs, xs[:1]], y_start)
        ys, y_close = ys[:-1], ys[-1]
        powers = np.vander(xs, curve.genus, increasing=True).T
        vals = (powers * dxs / ys) @ np.ones(n) * dth
        if abs(y_close - y_start) > 0.5 * abs(y_start):
            raise CycleDegenerate("contour encloses an odd number of branch points")
        if prev is not None:
            diff = np.max(np.abs(vals - prev))
            if diff < tol * (1 + np.max(np.abs(vals))):
                return vals
        prev = vals
        n *= 2
    raise CycleDegenerate(
        f"contour periods not converged at {n // 2} samples "
        f"(last refinement difference {diff:.3e})"
    )


# segments per block in _segment_crossings: two ellipses cross at most four
# times, so few of the block pairs have overlapping bounding boxes
_CROSSING_BLOCK = 64


def _block_boxes(xs, pad):
    """Padded closed bounding boxes (re_lo, re_hi, im_lo, im_hi) of the
    blocks of _CROSSING_BLOCK consecutive segments of a closed polyline."""
    n = len(xs)
    starts = np.arange(0, n, _CROSSING_BLOCK)
    ends = np.minimum(starts + _CROSSING_BLOCK, n) % n  # last vertex of block
    boxes = []
    for part in (xs.real, xs.imag):
        lo = np.minimum(np.minimum.reduceat(part, starts), part[ends])
        hi = np.maximum(np.maximum.reduceat(part, starts), part[ends])
        boxes += [lo - pad, hi + pad]
    return boxes


def _segment_crossings(xs1, xs2):
    """Indices and parameters of crossings between two closed polylines.

    Segment i of xs1 runs from xs1[i] to xs1[i+1] (cyclically) and meets
    segment j of xs2 at xs1[i] + t (xs1[i+1] - xs1[i]) for t and the
    matching s in [0, 1).  Returns (i, j, t, orientation) in row-major
    (i, j) order.  The segment-pair test runs only on blocks of segments
    whose bounding boxes, padded by 1e-12 (1 + max|x|) against roundoff,
    overlap, so time and memory stay near-linear in the sample counts.
    """
    pad = 1e-12 * (1 + max(np.abs(xs1).max(), np.abs(xs2).max()))
    r1lo, r1hi, i1lo, i1hi = _block_boxes(xs1, pad)
    r2lo, r2hi, i2lo, i2hi = _block_boxes(xs2, pad)
    overlap = (
        (r1lo[:, None] <= r2hi[None, :]) & (r2lo[None, :] <= r1hi[:, None])
        & (i1lo[:, None] <= i2hi[None, :]) & (i2lo[None, :] <= i1hi[:, None])
    )
    a, b = xs1, np.r_[xs1[1:], xs1[:1]]
    c, d = xs2, np.r_[xs2[1:], xs2[:1]]
    cross = lambda u, v: u.real * v.imag - u.imag * v.real
    hits = []
    for k1, k2 in np.argwhere(overlap):
        r1 = slice(k1 * _CROSSING_BLOCK, (k1 + 1) * _CROSSING_BLOCK)
        r2 = slice(k2 * _CROSSING_BLOCK, (k2 + 1) * _CROSSING_BLOCK)
        d1 = (b[r1] - a[r1])[:, None]
        d2 = (d[r2] - c[r2])[None, :]
        rel = c[r2][None, :] - a[r1][:, None]
        denom = cross(d1, d2)
        with np.errstate(divide="ignore", invalid="ignore"):
            t = cross(rel, d2) / denom
            s = cross(rel, d1) / denom
        hit = (denom != 0) & (t >= 0) & (t < 1) & (s >= 0) & (s < 1)
        for i, j in np.argwhere(hit):
            hits.append((i + r1.start, j + r2.start, t[i, j], np.sign(denom[i, j])))
    hits.sort(key=lambda h: (h[0], h[1]))
    return hits


def _lifted_intersection(curve, cyc1, cyc2):
    """Intersection number of two sampled cycles on the surface."""
    xs1, ys1 = cyc1
    xs2, ys2 = cyc2
    total = 0
    for i, j, t, orient in _segment_crossings(xs1, xs2):
        x_star = xs1[i] + t * (xs1[(i + 1) % len(xs1)] - xs1[i])
        s = np.sqrt(curve.p(x_star))
        sheet1 = 1 if abs(s - ys1[i]) <= abs(s + ys1[i]) else -1
        sheet2 = 1 if abs(s - ys2[j]) <= abs(s + ys2[j]) else -1
        if sheet1 == sheet2:
            total += int(orient)
    return total


def _symplectic_transform(j_mat):
    """Integer T with T J T^t in canonical (a_1..a_g, b_1..b_g) form."""
    j = np.array(np.rint(j_mat), dtype=np.int64)
    n = j.shape[0]
    g = n // 2
    t = np.eye(n, dtype=np.int64)
    placed = 0
    guard = 0
    while placed < 2 * g:
        guard += 1
        if guard > 64 * n:
            raise CycleDegenerate("symplectic reduction did not converge")
        block = j[placed:, placed:]
        nz = np.argwhere(block != 0)
        if len(nz) == 0:
            raise CycleDegenerate("candidate cycles do not span the homology")
        i0, j0 = min(nz, key=lambda ij: abs(block[ij[0], ij[1]]))
        i0 += placed
        j0 += placed
        _swap(j, t, placed, i0)
        if j0 == placed:
            j0 = i0
        _swap(j, t, placed + 1, j0)
        if j[placed, placed + 1] < 0:
            _negate(j, t, placed + 1)
        pivot = j[placed, placed + 1]
        for k in range(placed + 2, n):
            q = j[placed, k] // pivot
            if q:
                _add_multiple(j, t, k, placed + 1, -q)
            q = j[placed + 1, k] // pivot
            if q:
                _add_multiple(j, t, k, placed, q)
        if all(j[placed, k] == 0 == j[placed + 1, k] for k in range(placed + 2, n)):
            if pivot != 1:
                raise CycleDegenerate("intersection pairing is not unimodular")
            placed += 2
    order = [2 * i for i in range(g)] + [2 * i + 1 for i in range(g)]
    return t[order]


def _swap(j, t, a, b):
    if a != b:
        j[[a, b]] = j[[b, a]]
        j[:, [a, b]] = j[:, [b, a]]
        t[[a, b]] = t[[b, a]]


def _negate(j, t, a):
    j[a] *= -1
    j[:, a] *= -1
    t[a] *= -1


def _add_multiple(j, t, dst, src, q):
    """Row/column operation: cycle_dst += q * cycle_src."""
    j[dst] += q * j[src]
    j[:, dst] += q * j[:, src]
    t[dst] += q * t[src]


def period_matrix(curve: HyperellipticCurve) -> ThetaData:
    """Normalized period matrix tau and the a-period normalization matrix.

    Candidate cycles are the standard hyperelliptic contours; their lifted
    intersection pairing is computed numerically and reduced to the
    canonical symplectic form, so the result is valid for branch-point
    configurations where the naive pairing is not itself canonical.

    The normalization matrix N maps monomial differentials to the basis
    normalized against the a-cycles: sum_k N[s,k] x^k dx/y has a_j-period
    delta_sj; tau is the matrix of its b-periods.

    Postconditions (Riemann bilinear relations), else CycleDegenerate: tau
    is symmetric to |tau - tau^T| < 1e-6 (1 + |tau|) and is returned
    symmetrized; Im tau is positive definite once the b-cycles are flipped
    (tau -> -tau) for the opposite orientation convention.
    """
    g = curve.genus
    a_cycles, b_cycles = homology_contours(curve)
    contours = a_cycles + b_cycles
    ax, ay = _anchor(curve)
    # y at each contour's first sample, continued from the anchor
    starts = [continue_y(curve, route_path(curve, ax, c.sample(1)[0][0]), ay)[-1]
              for c in contours]
    periods = np.column_stack(
        [_cycle_periods(curve, c, y0) for c, y0 in zip(contours, starts)]
    )  # g x 2g, columns per candidate cycle
    n = 2 * g
    scale = np.abs(periods).max() ** 2
    nsamp = 4096
    while True:
        xss = [c.sample(nsamp)[0] for c in contours]
        sampled = [(xs, _sample_sheets(curve, xs, y0)) for xs, y0 in zip(xss, starts)]
        j_mat = np.zeros((n, n), dtype=np.int64)
        for i in range(n):
            for k in range(i + 1, n):
                j_mat[i, k] = _lifted_intersection(curve, sampled[i], sampled[k])
                j_mat[k, i] = -j_mat[i, k]
        # Riemann bilinear relation: the measured periods must be isotropic
        # for the measured pairing; a violation means a crossing was
        # attributed to the wrong sheet, which finer sampling resolves.
        resid = np.abs(periods @ np.linalg.inv(j_mat) @ periods.T).max()
        if resid < 1e-6 * scale:
            break
        nsamp *= 2
        if nsamp > 2 ** 16:
            raise CycleDegenerate(
                "intersection pairing inconsistent with measured periods "
                f"(bilinear residual {resid:.3e})"
            )
    t = _symplectic_transform(j_mat)
    new_periods = periods @ t.T.astype(float)
    tau, norm = _normalized_tau(new_periods[:, :g], new_periods[:, g:])
    return ThetaData(tau=tau, normalization=norm)


def _normalized_tau(pa, pb):
    """tau = N pb and N, where N pa = I, with tau's two postconditions.

    Raises CycleDegenerate when |tau - tau^T| >= 1e-6 (1 + |tau|) (Frobenius
    norms), and when Im tau is not positive definite after the b-cycles are
    flipped (tau -> -tau) for an Im tau with a negative eigenvalue.
    """
    g = pa.shape[0]
    norm = np.linalg.solve(pa.T, np.eye(g)).T  # N @ pa = I
    tau = norm @ pb
    asym = np.linalg.norm(tau - tau.T)
    if not asym < 1e-6 * (1 + np.linalg.norm(tau)):
        raise CycleDegenerate(f"period matrix not symmetric (|tau - tau^T| = {asym:.3e})")
    tau = 0.5 * (tau + tau.T)
    if np.min(np.linalg.eigvalsh(tau.imag)) < 0:
        # opposite orientation convention; flip the b-cycles
        tau = -tau
    least = np.min(np.linalg.eigvalsh(tau.imag))
    if not least > 0:
        raise CycleDegenerate(
            f"Im tau not positive definite (least eigenvalue {least:.3e})")
    return tau, norm


# ----------------------------------------------------------------------
# series at infinity
# ----------------------------------------------------------------------

def _series_invsqrt(q, nterms):
    """Power-series 1/sqrt(q) with q[0]=1, by Newton iteration."""
    t = np.zeros(nterms, dtype=complex)
    t[0] = 1.0
    length = 1
    while length < nterms:
        length = min(2 * length, nterms)
        qt = npoly.polymul(npoly.polymul(t, t)[:length], q[:length])[:length]
        qt = np.pad(qt, (0, length - len(qt)))
        t = npoly.polymul(t, np.r_[1.5, np.zeros(length - 1)] - 0.5 * qt)[:length]
        t = np.pad(t, (0, length - len(t)))
    return t[:nterms]


def differential_series(curve: HyperellipticCurve, normalization, nterms):
    """Series in z of the normalized differentials at infinity.

    Returns W with ω_s = (sum_m W[s, m] z^m) dz for m < nterms in the chart
    x = z^-2, y = z^-(2g+1) (1 + O(z^2)).  Raises ValueError for nterms
    above SERIES_TERMS, the length of the curve's series.
    """
    if nterms > SERIES_TERMS:
        raise ValueError(f"nterms {nterms} exceeds SERIES_TERMS = {SERIES_TERMS}")
    g = curve.genus
    w = np.zeros((g, nterms), dtype=complex)
    for k in range(1, g + 1):  # monomial x^(k-1) dx / y = -2 z^(2(g-k)) S^-1(z^2) dz
        row = w[k - 1, 2 * (g - k)::2]
        row[:] = -2.0 * curve.invsqrt_series[:row.size]
    return np.asarray(normalization, dtype=complex) @ w


def abel_series(curve: HyperellipticCurve, theta_data: ThetaData, nterms):
    """Vector power series A(z) of the Abel map from infinity in z.

    Returns out with A_s(z) = sum_l out[s, l] z^l for l = 0..nterms, where
    out[s, l] = W[s, l-1] / l = phi_s^(l) / l (W of differential_series).
    """
    w = differential_series(curve, theta_data.normalization, nterms)
    out = np.zeros((w.shape[0], nterms + 1), dtype=complex)
    out[:, 1:] = w / np.arange(1, nterms + 1)[None, :]
    return out


def _chart_radius(curve):
    rad = float(np.max(np.abs(curve.branch_points))) + 1.0
    return min(0.1, 0.5 / np.sqrt(rad))


def _chart_exit(curve, z0):
    """The point (x, y) at z = z0 where an Abel path leaves the z-chart.

    x = z0^-2 and y = z0^-(2g+1) sqrt(Q(z0^2)), Q(u) = u^(2g+1) P(1/u), on
    the sheet of the series z^-(2g+1) S(z^2) with S(0) = 1 that the series
    part of the Abel map integrates.
    """
    q = curve.coeffs[::-1]
    u = z0**2
    s_val = np.sqrt(npoly.polyval(u, q))
    s_series = 1.0 / npoly.polyval(u, curve.invsqrt_series)
    if abs(s_val - s_series) > abs(s_val + s_series):
        s_val = -s_val
    return z0 ** (-2.0), z0 ** (-(2 * curve.genus + 1)) * s_val


def abel_map(curve: HyperellipticCurve, theta_data: ThetaData,
             target: CurvePoint):
    """Abel map: integrals of the normalized differentials from infinity to
    target.

    The integration starts at infinity in the z-chart and switches to the
    x-chart at |z| equal to the chart radius.
    """
    z0 = _chart_radius(curve)
    series_part = abel_series(curve, theta_data, SERIES_TERMS) @ (
        z0 ** np.arange(SERIES_TERMS + 1))
    x_start, y_start = _chart_exit(curve, z0)
    way = route_path(curve, x_start, target.x)
    x_part, y_end = integrate_monomials(curve, way, y_start)
    x_part = np.asarray(theta_data.normalization, dtype=complex) @ x_part
    total = series_part + x_part
    if abs(y_end - target.y) <= abs(y_end + target.y):
        return total
    return -total  # started on the opposite sheet: flip z0 -> -z0


def lattice_reduce(theta_data: ThetaData, v):
    """Reduce a vector modulo the lattice Z^g + tau Z^g (nearest lattice point)."""
    tau = theta_data.tau
    g = tau.shape[0]
    basis = np.hstack([np.eye(g), tau])
    real_basis = np.vstack([basis.real, basis.imag])  # 2g x 2g
    rhs = np.concatenate([np.real(v), np.imag(v)])
    coeff = np.linalg.solve(real_basis, rhs)
    return np.asarray(v) - basis @ np.round(coeff)
