"""Riemann theta functions and the inversion of Newton sums.

The power sums sigma_1..sigma_k of the separating x-coordinates are
recovered from a point phi of the Jacobian in two independent ways, each
giving every sigma_j from one evaluation: from the Taylor coefficients of
ln theta composed with the Abel series at infinity, and from the contour
residues on a small circle in the z-chart.  Both leave out additive
constants, which Jacobi inversion calibrates once on a known divisor.
Agreement of the two routes is the module's central consistency check.

The series route builds one lattice for every phi of a call (Jacobi
inversion passes the reference and the target together).  At each
lattice point n the term exp(2 pi i n.A(z)) is a power series in z, from
the recurrence of the exponential, so theta(v0 + A(z)) is one weighted
sum of those series for each phi, and its logarithm follows by the
matching recurrence.  The contour route samples theta and its gradient
on the circle instead and shares no step with it after the Abel series
(``ThetaData.series``).  Its samples are the radius times roots of
unity, so the Abel series reaches them by one inverse FFT of its
coefficients folded modulo the sample count, and the residues are
coefficients of the FFT of d ln theta: O(n log n) a circle, with no table
of powers.

Theta sums are truncated to a lattice built once for a batch of arguments
(Deconinck, Heil, Bobenko, van Hoeij and Schmies, *Computing Riemann theta
functions*, Math. Comp. 73, 2004): the union of the ellipsoids
(n - c).Y.(n - c) <= lam_min r^2 about the centres c = -Y^{-1} Im z of all
rows z, Y = Im tau, of the least radius on a 0.1 grid, found by bisection in
floats, at which their bound for derivatives of order N puts the tail at
1e-18 of the peak: N = 0 for values, 1 for the contour's gradient, N for
``theta_deriv_table`` and 2k for ``sigma_series``.  For one row the lattice
is that row's own ellipsoid; for many it holds every term any row would have
summed alone, and each row also sums terms of its own tail.  The contour
route evaluates theta and its gradient on all samples of a circle from one
lattice, each term the base term at the centre v0 times one tabled phase
per coordinate.  The Riemann constants, the Abel series at infinity (with
the contour's dA/dz rows and chart radius), the lattice basis, and Im tau
with its least eigenvalue come with the period data
(``curves.period_matrix``), once.
"""

import bisect
import itertools
import math

import numpy as np

from .errors import TruncationOverflow, ThetaDivisor, ResidueUnstable
from .curves import SERIES_TERMS, _im_tau, abel_map, lattice_reduce

# points on the sigma contour's first circle: 2 _CONTOUR_SAMPLES samples
_CONTOUR_SAMPLES = 64


def _lattice_points(y, lam_min, zs, order):
    """Integer points covering the significant Gaussian mass of the sums at
    all rows of zs (shape (m, g)) and of their derivatives up to order N:
    0 for values, 1 for the contour's gradient, N for ``theta_deriv_table``
    and 2k for ``sigma_series``.

    The sum at z peaks at c = -Y^{-1} Im z for Y = Im tau (y, contiguous,
    with its least eigenvalue lam_min > 0: ``curves._im_tau``).  A point
    is kept when it lies in the ellipsoid (n - c).Y.(n - c) <=
    lam_min (R / rho)^2 about any row's center.  R is the least radius, in steps of 0.1 from
    rho/2 + sqrt(g + N) (where the bound holds), at which the tail of the
    terms times (2 pi |n|)^N is at most 1e-18 of the peak by the bound of
    Deconinck et al. (sec. 4): (2 pi)^N g/2 (2/rho)^g sum_(i=0..N) C(N, i)
    rho^-i |c|^(N - i) Gamma((g + i)/2, (R - rho/2)^2), for |c| the largest
    center norm and rho = sqrt(pi lam_min) <= |sqrt(pi) T n|, Y = T^T T, on
    every n != 0.  ``_radius`` finds R by bisection on that grid; raises
    TruncationOverflow when no R / rho up to 60 meets the bound."""
    g = y.shape[0]
    centers = -np.linalg.solve(y, np.imag(zs).T).T  # (m, g)
    rho = np.sqrt(np.pi * lam_min)
    radius = _radius(g, order, rho, np.linalg.norm(centers, axis=1).max())
    lo = np.floor(centers.min(axis=0) - radius).astype(int)
    hi = np.ceil(centers.max(axis=0) + radius).astype(int)
    pts = (np.indices(hi - lo + 1).reshape(g, -1).T + lo).astype(float)
    # q(n - c) = n.Y.n - 2 n.Y.c + c.Y.c for every point n and center c,
    # summed in place: (npts, m) can be large
    yc = centers @ y
    quad = pts @ (-2.0 * yc.T)
    quad += _quad_form(pts, y)[:, None]
    quad += np.einsum('ij,ij->i', yc, centers)[None, :]
    keep = (quad <= lam_min * radius ** 2).any(axis=1)
    return pts[keep] if keep.any() else pts


def _radius(g, order, rho, c):
    """R_j / rho, R_j = rho/2 + sqrt(g + N) + 0.1 j, for the least j < 160
    whose bound (``_lattice_points``) is at most 1e-18, if R_j <= 60 rho.
    Its terms are weights (numpy scalars, so inf past double precision)
    times Gamma(a, (R - rho/2)^2): the R_j that pass are a suffix, bisected
    in at most 8 bounds on floats."""
    start, half = float(rho / 2 + np.sqrt(g + order)), float(rho / 2)
    scale = float((2 * np.pi) ** order * g / 2 * (2 / rho) ** g)
    weights = [float(math.comb(order, i) * rho ** -i * c ** (order - i))
               for i in range(order + 1)]

    def met(j):
        d = start + 0.1 * j - half
        gammas = _upper_gammas(g + order, d * d)[g - 1:]
        return scale * sum(w * gam for w, gam in zip(weights, gammas)) <= 1e-18

    j = bisect.bisect_left(range(160), True, key=met)
    if j == 160 or start + 0.1 * j > 60.0 * rho:
        raise TruncationOverflow(f"no radius up to {min(60, (start + 15.9) / rho):.1f} "
                                 f"meets the 1e-18 bound of order {order}")
    return (start + 0.1 * j) / rho


def _upper_gammas(n, x):
    """Gamma(m/2, x), m = 1..n, at a float x: sqrt(pi) erfc(sqrt(x)), e^-x,
    then Gamma(a + 1, x) = a Gamma(a, x) + x^a e^-x, a sum of positive terms."""
    gammas = [math.sqrt(math.pi) * math.erfc(math.sqrt(x)), math.exp(-x)]
    for m in range(1, n - 1):
        gammas.append(m / 2 * gammas[-2] + x ** (m / 2) * gammas[1])
    return gammas[:n]


def _quad_form(d, m):
    """d.M.d for every row of d."""
    return np.einsum('ij,jk,ik->i', d, m, d)


def _lattice_terms(zs, tau, y, lam_min, order):
    """Lattice points and the exponential terms of the theta sums at the
    rows of zs: terms[r, i] = exp(pi i n_i.tau.n_i + 2 pi i n_i.zs[r]),
    with y = Im tau and lam_min as ``_lattice_points`` reads them."""
    pts = _lattice_points(y, lam_min, zs, order)
    expo = zs @ (2j * np.pi * pts).T  # updated in place, like quad above
    expo += np.pi * 1j * _quad_form(pts, tau)
    return pts, np.exp(expo, out=expo)


def _theta_and_gradient(v0, shifts, tau, y, lam_min):
    """theta and its gradient at the rows v0 + shifts (shifts of shape
    (m, g)), summed over their union lattice with the radius of a first
    derivative (y = Im tau and lam_min as ``_lattice_points`` reads them).

    Each term exp(pi i n.tau.n + 2 pi i n.(v0 + shift)) is the base term
    at v0 times one phase exp(2 pi i n_s shift_s) per coordinate s, and
    the phases of a row are tabled once for each integer value of n_s: one
    exponential per lattice point and one per row and value, not one per
    row and point.  The split holds to roundoff while no factor overflows.
    The shifts are the Abel series on the contour's circle, so |Im shift|
    is small (below 0.04 on the test suite's curves): no phase can
    overflow, and the base terms are those of v0's own ellipsoid.  Rows
    far apart (``sigma_series``, ``theta_deriv_table``) go through
    ``_lattice_terms``.
    """
    pts = _lattice_points(y, lam_min, v0 + shifts, 1)
    base = 2j * np.pi * (pts @ v0)
    base += np.pi * 1j * _quad_form(pts, tau)
    terms = np.exp(base, out=base)
    for s, col in enumerate(pts.T.astype(int)):
        lo = col.min()  # phase[r, j] = exp(2 pi i (lo + j) shifts[r, s])
        phase = np.exp(2j * np.pi * shifts[:, s, None]
                       * np.arange(lo, col.max() + 1))
        terms = terms * phase[:, col - lo]
    return terms.sum(axis=1), 2j * np.pi * (terms @ pts)


def riemann_theta(z, tau, deriv=None):
    """Theta value (or a termwise partial derivative) by truncated sum.

    deriv is a tuple of non-negative per-component derivative orders;
    each order j multiplies the terms by (2 pi i n_s)^j.  The value is
    the entry of ``theta_deriv_table`` at deriv.
    """
    deriv = tuple(deriv) if deriv else (0,) * np.shape(z)[0]
    return theta_deriv_table(z, tau, sum(deriv))[deriv]


def theta_deriv_table(z, tau, max_order):
    """All partial derivatives D^j theta(z) with |j| <= max_order.

    Returns a dict multi-index -> value, computed in one lattice pass.
    Raises TruncationOverflow when a value is not finite, as at z far from
    the fundamental domain, where the terms overflow double precision;
    numpy's overflow warnings are silenced, since that check reports it.
    """
    z = np.asarray(z, dtype=complex)
    tau = np.asarray(tau, dtype=complex)
    g = len(z)
    with np.errstate(over="ignore", invalid="ignore"):
        pts, terms = _lattice_terms(z[None, :], tau, *_im_tau(tau), max_order)
        terms = terms[0]
        factors = 2j * np.pi * pts  # (npts, g)
        table = {}
        for j in itertools.product(range(max_order + 1), repeat=g):
            if sum(j) > max_order:
                continue
            weighted = terms
            for s, order in enumerate(j):
                if order:
                    weighted = weighted * factors[:, s] ** order
            table[j] = np.sum(weighted)
            if not np.isfinite(table[j]):
                raise TruncationOverflow(
                    f"theta derivative {j} at z = {z} is not finite: the "
                    f"sum's terms overflow")
    return table


def riemann_constants(curve, theta_data, rng=None):
    """Vector K with theta(A(D) + K) = 0 for effective degree-(g-1) D, as
    ``curves.period_matrix`` stores it on theta_data.  curve and rng are
    ignored; callers of the former search (bench/workloads.py) pass them.
    """
    return theta_data.riemann_constants


def sigma_series(theta_data, phi, k):
    """sigma_1..sigma_k(phi), less their additive constants, via the Taylor
    coefficients of ln theta at infinity.  theta_data holds all that is
    read of the curve: tau, K and the Abel series (``period_matrix``).

    sigma_j = const_j - 2j [z^(2j)] ln theta(A(z) - phi - K), every j from
    the one series to order 2k.  phi of shape (g,) gives (k,); phi of shape
    (m, g) gives (m, k), every row from one lattice, at the radius of a
    derivative of order 2k, that holds the rows v0 = -phi - K (reduced) and
    0, the scale of the divisor test.  ValueError for 2k > SERIES_TERMS.
    """
    if 2 * k > SERIES_TERMS:
        raise ValueError(f"2k = {2 * k} exceeds SERIES_TERMS = {SERIES_TERMS}")
    tau = theta_data.tau
    g = tau.shape[0]
    n = 2 * k + 1
    kvec = theta_data.riemann_constants
    phis = np.asarray(phi, dtype=complex)
    rows = lattice_reduce(theta_data, -np.atleast_2d(phis) - kvec)
    pts, terms = _lattice_terms(np.vstack([rows, np.zeros(g)]), tau,
                                theta_data.im_tau, theta_data.im_tau_least,
                                2 * k)
    th = terms.sum(axis=1)
    for r, ratio in enumerate(np.abs(th[:-1]) / abs(th[-1])):
        if ratio < 1e-10:
            raise ThetaDivisor(f"|theta(-phi-K)|/|theta(0)| = {ratio:.2e} "
                               f"below 1e-10 at row {r} of phi")
    # ja[i, j] = j a_j for a(z) = 2 pi i n_i.A(z); exp(a) = sum_m e_m z^m
    # by m e_m = sum_j j a_j e_(m-j)
    ja = (2j * np.pi * pts) @ theta_data.series[:, :n] * np.arange(n)
    e = np.zeros_like(ja)
    e[:, 0] = 1.0
    for m in range(1, n):
        e[:, m] = np.sum(ja[:, 1:m + 1] * e[:, m - 1::-1], axis=1) / m
    sigmas = []
    for row_terms in terms[:-1]:
        f = row_terms @ e  # theta(v0 + A(z)) = sum_m f_m z^m
        # jl[j] = j [z^j] ln f, by m f_m = sum_j j [z^j] ln f f_(m-j)
        jl = np.zeros(n, dtype=complex)
        for m in range(1, n):
            jl[m] = (m * f[m] - jl[1:m] @ f[m - 1:0:-1]) / f[0]
        sigmas.append(-jl[2::2])
    return np.array(sigmas) if phis.ndim == 2 else sigmas[0]


def _on_circle(coeffs, nn):
    """sum_l coeffs[:, l] w^(l j) for w = exp(2 pi i / nn) at j = 0..nn-1,
    shape (nn, rows): the coefficients folded modulo nn, since w^nn = 1,
    then one inverse FFT of length nn."""
    rows, n = coeffs.shape
    folded = np.zeros((rows, n + -n % nn), dtype=complex)
    folded[:, :n] = coeffs
    folded = folded.reshape(rows, -1, nn).sum(axis=1)
    return (nn * np.fft.ifft(folded, axis=1)).T


def _residues(dlog, radius, k):
    """r_j = mean of dlog z^(1 - 2j), j = 1..k, over every other one of the
    n samples z = radius w^i of a circle and over all of them: coefficient
    (2j - 1) mod its length of the FFT of dlog[::2] and of dlog, times
    radius^(1 - 2j)."""
    j = np.arange(1, k + 1)
    scale = radius ** (1.0 - 2 * j)
    return tuple(np.fft.fft(d)[(2 * j - 1) % len(d)] / len(d) * scale
                 for d in (dlog[::2], dlog))


def sigma_contour(theta_data, phi, k):
    """sigma_1..sigma_k(phi), less their additive constants, by the
    residues of x^j d ln theta at infinity.  theta_data holds all that is
    read of the curve: tau, K, the chart radius and the contour's Abel
    series (``period_matrix``).

    Samples a z-chart circle at 2 _CONTOUR_SAMPLES points by the trapezoid
    rule.  The samples are the circle's radius times roots of unity, so the
    Abel series and its derivative reach them by one folded inverse FFT,
    and the residues at each sample count are coefficients of the FFT of
    d ln theta on those samples.  The sum is the residue at infinity only
    with no zero of theta(v0 + A(z)) inside, so the circle, first of half
    the chart radius, is halved until theta winds 0 times on it and
    min |theta| >= 1e-2 |theta(centre)| (the samples' mean); then the
    samples double until every other sample's sum agrees with the full
    one, r_j, to 1e-6 max(1, |r_j|).  ThetaDivisor (6 halvings) and
    ResidueUnstable (3 doublings) name radius and samples.
    """
    radius = 0.5 * theta_data.chart_radius
    series = theta_data.contour_series
    g = len(theta_data.series)
    v0 = lattice_reduce(theta_data, -np.asarray(phi, dtype=complex)
                        - theta_data.riemann_constants)
    nsamples, halvings, doublings = _CONTOUR_SAMPLES, 0, 0
    while True:
        # the 2n-point circle; its even-indexed samples are the n-point one
        nn = 2 * nsamples
        circle = _on_circle(series * radius ** np.arange(SERIES_TERMS + 1), nn)
        th, grad = _theta_and_gradient(v0, circle[:, :g], theta_data.tau,
                                       theta_data.im_tau,
                                       theta_data.im_tau_least)
        if not np.abs(th).min() >= 1e-2 * abs(th.mean()) or round(
                np.angle(np.roll(th, -1) / th).sum() / (2 * np.pi)):
            if halvings == 6:
                raise ThetaDivisor(f"theta has a zero in or near the circle of "
                                   f"radius {radius:.3e} at {nn} samples")
            radius, halvings = 0.5 * radius, halvings + 1
            continue
        dlog = np.sum(grad * circle[:, g:], axis=1) / th
        r1, r2 = _residues(dlog, radius, k)
        shifted = (np.abs(r1 - r2) / np.maximum(1.0, np.abs(r2))).max()
        if shifted <= 1e-6:
            return -r2
        if doublings == 3:
            raise ResidueUnstable(
                f"residue shifted by {shifted:.2e} under sample doubling on "
                f"the circle of radius {radius:.3e} at {nn} samples")
        nsamples, doublings = 2 * nsamples, doublings + 1


def jacobi_inversion_check(curve, theta_data, points, ref_points):
    """Recover the x-multiset of `points` from phi = sum A(gamma_i).

    ref_points calibrates the additive constants: the power sums of their
    x less sigma_series at their phi.  Returns a report with the recovered
    roots, both sigma routes, and the recovery error.
    """
    g = theta_data.tau.shape[0]
    images = abel_map(curve, theta_data, [*points, *ref_points])
    phi, ref_phi = images[:len(points)].sum(0), images[len(points):].sum(0)
    truth = np.array([sum(p.x ** k for p in ref_points)
                      for k in range(1, g + 1)])
    ref_series, series = sigma_series(theta_data, [ref_phi, phi], g)
    const = truth - ref_series
    sigmas = series + const
    sigmas_contour = sigma_contour(theta_data, phi, g) + const
    # Newton's identities: e_1..e_g from the power sums
    e = [1.0 + 0.0j]
    for m in range(1, g + 1):
        e.append(sum((-1) ** (i - 1) * e[m - i] * sigmas[i - 1]
                     for i in range(1, m + 1)) / m)
    coeffs = np.array([(-1) ** m * e[m] for m in range(g, -1, -1)],
                      dtype=complex)  # ascending: (-1)^g e_g, ..., -e_1, 1
    roots = np.polynomial.polynomial.polyroots(coeffs)
    target = np.array(sorted([p.x for p in points],
                             key=lambda v: (v.real, v.imag)))
    got = np.array(sorted(roots, key=lambda v: (v.real, v.imag)))
    return {
        "sigma_series": sigmas,
        "sigma_contour": sigmas_contour,
        "roots": got,
        "target": target,
        "error": float(np.abs(got - target).max()),
        "route_gap": float(np.abs(sigmas - sigmas_contour).max()),
    }
