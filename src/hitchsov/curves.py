"""Hyperelliptic curve arithmetic.

A curve is given by ``y^2 = P(x)`` with ``P`` monic of odd degree ``2g+1``,
so there is a single point at infinity.  The module provides analytic
continuation of ``y`` along paths in the ``x``-plane, holomorphic
differentials ``x^(k-1) dx / y``, period matrices, and the Abel map.
y is continued along straight segments exactly, as
y = prod_k (x - e_k)^(1/2) (``_sheet_ratio``).  Where only the sheet of y
is wanted, ``_sheet_root`` takes +-sqrt(P(x)) with the sign nearest the
segment's start value, which a short segment's certificate proves to be
the continued one, and runs the product only where the certificate
fails.  Path integrals run on one level-synchronous adaptive
Gauss-Kronrod integrator (``_adaptive_gl``).
The homology basis lies on the chain of the branch points in (real, imag)
order: every cycle is a loop about a run of the chain, its period a sum
of integrals along the chain's edges (the cuts), each two half-edges
from its ends to its midpoint, with y on the chain's one right-hand
bank.  Each chain point's Abel image is a fixed half-period: the Abel
map starts from the nearest one, on the half-edges' panels.  The chain
and the Abel series at infinity (in ``z``, ``x = z^-2``) are built once,
on the read-only ``ThetaData`` of ``period_matrix``; a curve holds none.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from numpy.polynomial import polynomial as npoly

from .errors import (
    BranchProximity,
    ContinuationAmbiguity,
    CycleDegenerate,
    DegreeError,
    DuplicateBranchPoint,
)


def _gauss_kronrod(x, kronrod, gauss):
    """A Gauss-Kronrod pair on [-1, 1] from its nodes in [0, 1], descending
    to 0, every second one a Gauss node: the nodes, ascending, and the
    weights of the Kronrod rule, then of the Gauss rule, which vanish at
    the Kronrod-only nodes."""
    w = np.zeros((2, len(x)))
    w[0], w[1, 1::2] = kronrod, gauss
    x = np.array(x)
    return np.r_[-x[:-1], x[::-1]], np.hstack((w[:, :-1], w[:, ::-1]))


# the 10/21 pair, K21 and G10 (QUADPACK's qk21; Piessens et al., 1983)
_GK_NODES, _GK_WEIGHTS = _gauss_kronrod([
    0.995657163025808080735527280689, 0.973906528517171720077964012084,
    0.930157491355708226001207180059, 0.865063366688984510732096688423,
    0.780817726586416897063717578345, 0.679409568299024406234327365114,
    0.562757134668604683339000099272, 0.433395394129247190799265943165,
    0.294392862701460198131126603103, 0.148874338981631210884826001129,
    0.0,
], [
    0.011694638867371874278064396062, 0.032558162307964727478818972459,
    0.054755896574351996031381300244, 0.075039674810919952767043140916,
    0.093125454583697605535065465083, 0.109387158802297641899210590325,
    0.123491976262065851077923342716, 0.134709217311473325928054001771,
    0.142775938577060080797094273138, 0.147739104901338491374841515972,
    0.149445554002916905664936468389,
], [
    0.066671344308688137593568809893, 0.149451349150580593145776339657,
    0.219086362515982043995534934228, 0.269266719309996355091226921569,
    0.295524224714752870173892994651,
])
# the 3/7 pair, K7 and G3 (Kronrod, 1965): G3's nodes 0 and +-sqrt(3/5),
# and the roots of the Stieltjes polynomial x^4 - 10/9 x^2 + 155/891
_GK7_NODES, _GK7_WEIGHTS = _gauss_kronrod([
    0.960491268708020283423507092629, 0.774596669241483377035853079956,
    0.434243749346802558002071502845, 0.0,
], [
    0.104656226026467265193823857192, 0.268488089868333440728569280667,
    0.401397414775962222905051818618, 0.450916538658474142345110087046,
], [5 / 9, 8 / 9])

# terms in z of the series at infinity: the longest any caller reads
SERIES_TERMS = 96


@dataclass(frozen=True)
class CurvePoint:
    """A finite point (x, y) on the curve."""

    x: complex = 0.0
    y: complex = 0.0


@dataclass
class ThetaData:
    """Read-only period data from ``period_matrix``: tau, the normalization,
    K, and the per-curve data that abel_map, theta and lattice_reduce read:
    the chain, the Abel series (with dA/dz and the chart radius for
    ``theta.sigma_contour``), the lattice basis, and Im tau with its least
    eigenvalue for the theta lattices."""

    tau: np.ndarray
    normalization: np.ndarray
    riemann_constants: np.ndarray
    chain: np.ndarray            # the branch points in chain order
    others: np.ndarray           # row k: the chain less its point k
    characteristics: np.ndarray  # m, n of _chain_characteristics
    series: np.ndarray           # the Abel series at infinity to SERIES_TERMS
    contour_series: np.ndarray   # its rows, then the rows of its dA/dz
    chart_radius: np.ndarray     # of the z-chart at infinity, 0-d
    basis: np.ndarray            # the lattice basis [I, tau]
    real_basis: np.ndarray       # its real and imaginary parts, stacked
    im_tau: np.ndarray           # Im tau, contiguous
    im_tau_least: np.ndarray     # its least eigenvalue, 0-d

    def __post_init__(self):
        for value in vars(self).values():
            value.flags.writeable = False


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


def _horner(c, x):
    """sum_k c[k] x^k by the recurrence of numpy's ``polyval``, so the
    values match it bit for bit, without its per-call argument handling."""
    c0 = c[-1] + x * 0
    for ck in c[-2::-1]:
        c0 = ck + c0 * x
    return c0


def _binomials(n):
    """The exact binomials C(j, k), j, k = 0..n, at [k, j] (0 for k > j)."""
    return np.array([[math.comb(j, k) for j in range(n + 1)]
                     for k in range(n + 1)])


def build_curve(coeffs) -> HyperellipticCurve:
    """Validate coefficients and locate the branch points.

    ``coeffs`` are ascending-power coefficients of a monic polynomial of odd
    degree 2g+1 >= 5.  Roots come from the companion-matrix eigensolve and
    are polished with two Newton steps.

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
    if deg < 5 or deg % 2 == 0:
        raise DegreeError(f"degree must be odd and >= 5, got {deg}")
    if abs(coeffs[-1] - 1.0) > 1e-12:
        coeffs = coeffs / coeffs[-1]
    roots = npoly.polyroots(coeffs)
    dcoeffs = npoly.polyder(coeffs)
    for _ in range(2):  # Newton polish
        dp = npoly.polyval(roots, dcoeffs)
        mask = np.abs(dp) > 1e-14
        roots[mask] -= npoly.polyval(roots[mask], coeffs) / dp[mask]
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
    ``continue_y`` and the Abel panels run it everywhere, ``_sheet_root``
    only where its certificate fails.
    """
    return math.prod(np.sqrt((x - e) / (a - e)) for e in curve.branch_points)


def _sheet_root(curve, a, ya, x):
    """+-sqrt(P(x)) on the sheet that y reaches when it is continued from
    y(a) = ya along the straight segment from a to x: a and ya of shape
    (n,) or (n, 1), and x of the broadcast shape.

    Where rho = |x - a| sum_k 1 / |a - e_k| <= 1, each factor
    (x - e_k) / (a - e_k) stays in the disc of radius
    rho_k = |x - a| / |a - e_k| < 1 about 1, so
    |arg y(x) / y(a)| <= sum_k asin(rho_k) / 2 <= (pi / 4) rho <= pi / 4:
    the root within pi/2 of ya is the continued one, by a margin of
    cos(pi/4), far above roundoff.  Where rho > 1 the sign is the one
    nearest ya times the exact ``_sheet_ratio``, run at those points
    alone.  The sum is taken at a, never over the nodes x.
    """
    far = np.abs(x - a) * (1.0 / np.abs(a[..., None] - curve.branch_points)
                           ).sum(axis=-1) > 1
    ref = np.conj(ya)
    if far.any():
        ref = np.array(np.broadcast_to(ref, x.shape))
        ref[far] *= np.conj(_sheet_ratio(
            curve, np.broadcast_to(a, x.shape)[far], x[far]))
    s = np.sqrt(curve.p(x))
    return np.negative(s, out=s, where=(s * ref).real < 0)


def _off_curve(curve, x, y):
    """Whether y is not +-sqrt(P(x)), elementwise: |y^2 - P| too large."""
    px = curve.p(x)
    return np.abs(y * y - px) > 1e-8 * (1 + np.abs(px)) * (1 + np.abs(y) ** 2)


def continue_y(curve: HyperellipticCurve, path, y_start):
    """Continue y = sqrt(P(x)) along the polyline through the x-values path.

    Returns y at the waypoints: y_start times the running product of the
    exact segment ratios of ``_sheet_ratio``.  Raises ContinuationAmbiguity
    when y_start is not on the curve above path[0] and BranchProximity when
    a segment passes within the exclusion radius of a branch point.
    """
    path = np.asarray(path, dtype=complex)
    y0 = complex(y_start)
    if _off_curve(curve, path[0], y0):
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


# ----------------------------------------------------------------------
# routing and quadrature
# ----------------------------------------------------------------------

def route_path(curve: HyperellipticCurve, x_from, x_to):
    """Waypoints from x_from to x_to avoiding branch points by circular arcs."""
    out = [complex(x_from)]
    _route_segment(curve, complex(x_from), complex(x_to), out, set())
    return np.array(out)


def _route_segment(curve, a, b, out, visited):
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
    _route_segment(curve, a, p_in, out, visited | {blocking})
    # arc from p_in to p_out passing through e + r*side
    ang0 = np.angle(p_in - e)
    ang2 = np.angle(p_out - e)
    angm = np.angle(side)
    sweep = _arc_angles(ang0, angm, ang2)
    for ang in sweep[1:]:
        out.append(e + r * np.exp(1j * ang))
    _route_segment(curve, out[-1], b, out, visited | {blocking})


def _unit(v):
    return v / abs(v)


def _arc_angles(a0, am, a2):
    """13 angles from a0 to a2 passing through am, 6 steps on each side."""
    d1 = np.angle(np.exp(1j * (am - a0)))
    d2 = np.angle(np.exp(1j * (a2 - am)))
    return np.concatenate(
        [a0 + np.linspace(0, d1, 7), am + np.linspace(0, d2, 7)[1:]]
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


def _panel_nodes(a, b, nodes):
    """Half-widths (n, 1) of the panels [a_i, b_i], and the Gauss-Kronrod
    nodes (on [-1, 1]) mapped onto them, followed by b_i: shape (n, m + 1)
    for m nodes."""
    half = (0.5 * (b - a))[:, None]
    mid = (0.5 * (a + b))[:, None]
    return half, np.concatenate((mid + half * nodes, b[:, None]), axis=1)


def _monomial_panels(curve, a, b, ya):
    """Panels [a_i, b_i] of x^(k-1) / y from y(a_i) = ya_i: the (n, 2, g)
    K21 and G10 integrals and y at each b_i."""
    half, xs = _panel_nodes(a, b, _GK_NODES)
    ys = ya[:, None] * _sheet_ratio(curve, a[:, None], xs)
    powers = np.vander(xs[:, :-1].ravel(), curve.genus, increasing=True)
    sums = _GK_WEIGHTS @ (powers.reshape(len(a), -1, curve.genus)
                          / ys[:, :-1, None])
    return sums * half[:, None], ys[:, -1]


# active panels of one _adaptive_gl level, and so a bound on its memory: a
# level can double them
_MAX_PANELS = 1 << 12
# |fine - coarse| below this share of |fine| is roundoff, and accepted
_ULP_FLOOR = 16 * np.finfo(float).eps


def _adaptive_gl(panel, a, b, start, tol):
    """Adaptive Gauss-Kronrod integrals over the segments [a_i, b_i].

    panel(a, b, start) -> (sums (n, 2, m), end) integrates n panels at
    once from start, the datum at each a continued along the path (y, or
    y and a fiber root), by the Kronrod rule (sums[:, 0], "fine") and the
    Gauss rule (sums[:, 1], "coarse") of one Gauss-Kronrod pair on one set
    of nodes, and returns the datum at each b.  Each panel function fixes
    its pair: 10/21 (``_GK_NODES``, ``_GK_WEIGHTS``) for the Abel and
    monomial panels, 3/7 (``_GK7_NODES``, ``_GK7_WEIGHTS``) for the angle
    densities of ``flows``.  A panel at depth d is accepted, with its
    Kronrod value, when max |fine - coarse|, the Gauss rule's error, is at
    most tol / 2^d or _ULP_FLOOR max |fine|.  Each level splits only the
    rejected panels, in two batched calls: left halves from their parents'
    start data, then right halves from the left halves' end data.
    Returns the (len(a), m) segment integrals and the datum at each b_i;
    raises CycleDegenerate at depth 24 or past _MAX_PANELS active panels.
    """
    a = np.asarray(a, dtype=complex)
    b = seg_end = np.asarray(b, dtype=complex)
    start, seg = np.asarray(start), np.arange(len(a))
    sums, b_data = panel(a, b, start)
    end_data, total = np.array(b_data), np.zeros_like(sums[:, 0])
    for depth in range(25):  # every active panel is 2^-depth of its segment
        fine = sums[:, 0]
        err = np.abs(fine - sums[:, 1]).max(axis=1)
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
        a, b, start, seg = a[bad], b[bad], start[bad], seg[bad]
        mid = 0.5 * (a + b)
        left, mid_data = panel(a, mid, start)
        right, end = panel(mid, b, mid_data)
        a, b, start, sums, b_data, seg = (np.concatenate(pair) for pair in (
            (a, mid), (mid, b), (start, mid_data), (left, right),
            (mid_data, end), (seg, seg)))


# ----------------------------------------------------------------------
# homology basis and periods
# ----------------------------------------------------------------------

def _bank_values(curve, chain):
    """y at the midpoint of each edge [e_j, e_{j+1}] of the chain, all on
    the chain's right-hand bank: y from sqrt(P) at the first midpoint is
    continued, in one ``continue_y`` call, along the chain through every
    midpoint, round each shared vertex by an arc of radius
    min_separation / 4 on the right."""
    mids = 0.5 * (chain[:-1] + chain[1:])
    r = 0.25 * curve.min_separation
    legs, at = [mids[:1]], [0]  # the polyline, and where each mid is on it
    for j in range(1, len(mids)):
        v = chain[j]
        back, ahead = _unit(chain[j - 1] - v), _unit(chain[j + 1] - v)
        a0 = np.angle(back)
        sweep = np.angle(ahead / back) % (2 * np.pi)  # counterclockwise
        arc = v + r * np.exp(1j * _arc_angles(a0, a0 + sweep / 2, a0 + sweep))
        legs += [arc, mids[j:j + 1]]
        at.append(at[-1] + len(arc) + 1)
    return continue_y(curve, np.concatenate(legs),
                      np.sqrt(curve.p(mids[0])))[at]


def _edge_integrals(chain, others, ys):
    """(g, 2g) integrals of x^k dx / y, k < g, over the edges [e_j, e_{j+1}]
    of the chain, with y(m_j) = ys[j] at the edge midpoint m_j; others[k]
    is the chain less its point k.

    Each edge is two half-edges, int_{e_j}^{m_j} - int_{e_{j+1}}^{m_j},
    each from its branch point e under x = e + (m_j - e) s^2 as in
    ``abel_map``, which removes the 1/y end singularity at e; all 4g go
    through one ``_adaptive_gl`` call on ``_branch_panels``.
    """
    n = len(ys)
    k = np.r_[0:n, 1:n + 1]  # the branch point each half-edge starts from
    e, mids = chain[k], np.tile(0.5 * (chain[:-1] + chain[1:]), 2)
    coef = 2 * (mids - e) / np.tile(ys, 2)
    ints, _ = _adaptive_gl(partial(_branch_panels, e, mids, others[k], coef),
                           np.zeros(2 * n), np.ones(2 * n), np.arange(2 * n),
                           tol=1e-10)
    return (ints[:n] - ints[n:]).T


def _branch_chain(curve):
    """The branch points by real part, ties (within 1e-9 min_separation) by
    imaginary part: a column is walked upwards, whatever its roundoff."""
    e = curve.branch_points[np.argsort(curve.branch_points.real)]
    column = np.r_[0, np.cumsum(np.diff(e.real) > 1e-9 * curve.min_separation)]
    return e[np.lexsort((e.imag, column))]


def _chain_periods(curve, chain, others):
    """(g, 2g) periods of x^k dx / y, k < g, on the cycles a_1..a_g,
    b_1..b_g of the chain (``period_matrix``; others: ``_edge_integrals``)."""
    edges = 2 * _edge_integrals(chain, others, _bank_values(curve, chain))
    pa = edges[:, 0::2]
    pb = np.cumsum(edges[:, :0:-2], axis=1)[:, ::-1]
    sign = 1.0 if pa[0, 0].real > 0 else -1.0  # the sheet with Re of a_1 > 0
    return sign * np.hstack((pa, pb))


def period_matrix(curve: HyperellipticCurve) -> ThetaData:
    """Normalized period matrix tau, the a-period normalization matrix and
    the vector of Riemann constants K.

    The cycles lie on the chain e_1 -> ... -> e_{2g+1} of the branch points
    in (real, imag) order, real parts within 1e-9 min_separation counting
    as equal.  It is monotone in Re x, so it never crosses
    itself, and a thin loop about a run of consecutive points encloses
    exactly that run: a_i about (e_{2i-1}, e_{2i}), b_i about
    e_{2i}, ..., e_{2g+1}.  Each loop collapses onto its cuts: a_i's period
    is 2 int over the edge [e_{2i-1}, e_{2i}], b_i's the sum of
    2 int over the edges [e_{2m}, e_{2m+1}], m >= i, each the difference
    of its two half-edges to the midpoint (``_edge_integrals``), all in
    one ``_adaptive_gl`` call as in ``abel_map``.  Every edge takes y on
    the chain's one right-hand bank (``_bank_values``): of the two
    crossings of a_i and b_i by e_{2i}, only the one below it lies on a
    single sheet, and no other pair of cycles meets, so the pairing is
    canonical up to one global sign, which the orientation flip below
    fixes.  The overall sheet is the one with Re of the a_1-period of
    dx/y positive.  Raises BranchProximity when the bank's polyline
    through the edge midpoints passes within the exclusion radius of a
    branch point.

    The normalization matrix N maps monomial differentials to the basis
    normalized against the a-cycles: sum_k N[s,k] x^k dx/y has a_j-period
    delta_sj; tau is the matrix of its b-periods.  K is the sum of A(e_k)
    over odd k (Mumford's set U, ``_chain_characteristics``), the
    half-period (m + tau n) / 2.  The rest of ``ThetaData`` is built here,
    once per curve, the Abel series at infinity by ``_series_at_infinity``.

    Postconditions (Riemann bilinear relations), else CycleDegenerate: tau
    is symmetric to |tau - tau^T| < 1e-6 (1 + |tau|) and is returned
    symmetrized; Im tau is positive definite once the b-cycles are flipped
    (tau -> -tau) for the opposite orientation convention.
    """
    g = curve.genus
    chain = _branch_chain(curve)
    others = np.array([np.delete(chain, j) for j in range(2 * g + 1)])
    periods = _chain_periods(curve, chain, others)
    tau, norm = _normalized_tau(periods[:, :g], periods[:, g:])
    chars = np.array(_chain_characteristics(g))
    m, n = chars[:, ::2].sum(axis=1) % 2
    basis = np.hstack([np.eye(g), tau])
    series = _series_at_infinity(curve, norm)
    # rows of A and of dA/dz = sum_l (l + 1) a_(l+1) z^l, one transform
    contour_series = np.vstack([series, np.zeros_like(series)])
    contour_series[g:, :-1] = series[:, 1:] * np.arange(1, SERIES_TERMS + 1)
    im_tau, least = _im_tau(tau)
    return ThetaData(
        tau=tau, normalization=norm, riemann_constants=0.5 * (m + tau @ n),
        chain=chain, others=others, characteristics=chars, series=series,
        contour_series=contour_series,
        chart_radius=np.array(_chart_radius(curve)),
        basis=basis, real_basis=np.vstack([basis.real, basis.imag]),
        im_tau=im_tau, im_tau_least=np.array(least))


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


def _im_tau(tau):
    """Im tau, contiguous, and its least eigenvalue: what every theta
    lattice of tau reads (``theta._lattice_points``).  ``period_matrix``
    stores both on ThetaData; bare-tau callers take them here.  ValueError
    when Im tau is not positive definite."""
    y = np.ascontiguousarray(tau.imag)
    least = np.linalg.eigvalsh(y).min()
    if least <= 0:
        raise ValueError("Im tau not positive definite")
    return y, least


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


def _series_at_infinity(curve, normalization):
    """The (g, SERIES_TERMS + 1) Abel series from infinity in the chart
    x = z^-2, y = z^-(2g+1) S(z^2), S = sqrt(Q(u)), Q(u) = u^(2g+1) P(1/u):
    A_s(z) = sum_l out[s, l] z^l, out[s, l] = W[s, l - 1] / l for the
    normalized differentials omega_s = (sum_m W[s, m] z^m) dz, from S^-1
    to SERIES_TERMS // 2 + 2 terms in u = z^2."""
    g, n_u = curve.genus, SERIES_TERMS // 2 + 2
    q = np.pad(curve.coeffs[::-1], (0, max(0, n_u - len(curve.coeffs))))
    inv_s = _series_invsqrt(q[:n_u], n_u)
    w = np.zeros((g, SERIES_TERMS), dtype=complex)
    for k in range(1, g + 1):  # monomial x^(k-1) dx / y = -2 z^(2(g-k)) S^-1(z^2) dz
        row = w[k - 1, 2 * (g - k)::2]
        row[:] = -2.0 * inv_s[:row.size]
    return np.hstack([np.zeros((g, 1)),
                      normalization @ w / np.arange(1, SERIES_TERMS + 1)])


def _chart_radius(curve):
    rad = float(np.max(np.abs(curve.branch_points))) + 1.0
    return min(0.1, 0.5 / np.sqrt(rad))


def _chain_characteristics(g):
    """(2g+1, g) integer m, n with A(e_k) = (m_k + tau n_k) / 2 for the k-th
    chain point (row k - 1) in the basis of ``period_matrix``: Mumford's map
    eta (*Tata Lectures on Theta II*, ch. IIIa, sec. 5)."""
    k, s = np.arange(1, 2 * g + 2)[:, None], np.arange(1, g + 1)
    return (s <= k // 2).astype(int), (s == (k + 1) // 2).astype(int)


def _branch_panels(e, x, rest, coef, a, b, idx):
    """Panels [a_i, b_i] in s of int x^(j-1) dx / y from e_k to the target
    P = x of idx_i under x = e_k + (P - e_k) s^2, where y = y(P) s prod_m
    ((x - e_m) / (P - e_m))^(1/2) over the other branch points (rest) and
    coef = 2 (P - e_k) / y(P): the (n, 2, g) K21 and G10 sums, and idx."""
    half, nodes = _panel_nodes(a, b, _GK_NODES)
    e, x, rest, coef = e[idx, None], x[idx, None], rest[idx], coef[idx]
    xs = e + (x - e) * nodes[:, :-1] ** 2
    ratio = np.sqrt((xs[..., None] - rest[:, None]) / (x - rest)[:, None])
    powers = xs[..., None] ** np.arange(rest.shape[1] // 2)
    sums = _GK_WEIGHTS @ (powers / ratio.prod(axis=-1)[..., None])
    return sums * (coef[:, None] * half)[..., None], idx


def abel_map(curve: HyperellipticCurve, theta_data: ThetaData, target):
    """Abel map from infinity of target, a CurvePoint (result (g,)) or a
    sequence of them (result (n, g)), all in one ``_adaptive_gl`` call.

    A(P) = A(e_k) + N int_{e_k}^{P} x^j dx / y for the chain point e_k
    nearest P (``_chain_characteristics``), along [e_k, P], which keeps half
    the least separation from the other branch points; A(e_k) exactly at
    P = e_k.  Raises ContinuationAmbiguity if y is not +-sqrt(P(x)).
    """
    targets = [target] if isinstance(target, CurvePoint) else target
    x, y = np.array([(p.x, p.y) for p in targets], dtype=complex).T
    off = _off_curve(curve, x, y)
    if off.any():
        raise ContinuationAmbiguity(
            f"target y does not lie on the curve above x={x[off][0]}")
    k = np.abs(x[:, None] - theta_data.chain).argmin(axis=1)
    e, rest = theta_data.chain[k], theta_data.others[k]
    # y(P) = +-sqrt(P - e_k) q, exact near e_k, with the sign nearest y
    root, q = np.sqrt(x - e), np.sqrt(x[:, None] - rest).prod(axis=1)
    sign = np.where(np.abs(root * q - y) <= np.abs(root * q + y), 2.0, -2.0)
    ints, _ = _adaptive_gl(partial(_branch_panels, e, x, rest, sign * root / q),
                           np.zeros(len(x)), np.ones(len(x)),
                           np.arange(len(x)), tol=1e-10)
    m, n = theta_data.characteristics
    images = (0.5 * (m[k] + n[k] @ theta_data.tau.T)
              + ints @ np.asarray(theta_data.normalization, dtype=complex).T)
    return images[0] if isinstance(target, CurvePoint) else images


def lattice_reduce(theta_data: ThetaData, v):
    """Reduce a vector of shape (g,), or each row of one of shape (m, g),
    modulo the lattice Z^g + tau Z^g (nearest lattice point), in one solve."""
    v = np.asarray(v)
    rhs = np.concatenate([np.real(v), np.imag(v)], axis=-1)
    coeff = np.linalg.solve(theta_data.real_basis, rhs.T).T
    # einsum, not a matrix product, rounds a row as it does alone
    return v - np.einsum('...k,jk->...j', np.round(coeff), theta_data.basis)
