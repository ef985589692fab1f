"""Spectral polynomials of the classical Lie types.

The characteristic polynomial of the twisted Higgs field on a genus-g
hyperelliptic base is encoded as

    R(lambda, x, y) = lambda^d + sum_j lambda^(d - d_j) B_j(x, y),

where B_j collects the coefficient block of the j-th basic invariant:
a polynomial part sum_k H0[j,k] x^k and (for higher-degree invariants)
a y-part sum_s H1[j,s] x^s y.  For so(2n) the last block enters squared.
"""

import warnings
from dataclasses import dataclass, field

import numpy as np

from .curves import _binomials, _horner, root_cluster_margin
from .errors import RankError, ConditioningWarning

FAMILIES = ("GL", "SL", "SO_odd", "SP", "SO_even")


@dataclass(frozen=True)
class LieTypeSpec:
    family: str
    rank: int
    d: int                     # matrix size of the defining representation
    deltas: tuple              # degrees of the basic invariants
    dees: tuple                # lambda-exponent offsets d_j
    square_last: bool          # so(2n): the Pfaffian block enters squared
    dim: int                   # dim of the Lie algebra


def resolve_type(family, rank) -> LieTypeSpec:
    """Resolve (family, rank) to invariant degrees and exponents."""
    if family not in FAMILIES:
        raise RankError(f"unknown family {family!r}; expected one of {FAMILIES}")
    n = int(rank)
    if n < 1:
        raise RankError(f"rank must be >= 1, got {rank}")
    square_last = False
    if family == "GL":
        deltas = tuple(range(1, n + 1))
        d, dim = n, n * n
    elif family == "SL":
        if n < 2:
            raise RankError("SL needs rank >= 2")
        deltas = tuple(range(2, n + 1))
        d, dim = n, n * n - 1
    elif family == "SO_odd":
        deltas = tuple(range(2, 2 * n + 1, 2))
        d, dim = 2 * n + 1, n * (2 * n + 1)
    elif family == "SP":
        deltas = tuple(range(2, 2 * n + 1, 2))
        d, dim = 2 * n, n * (2 * n + 1)
    else:  # SO_even
        if n < 2:
            raise RankError("SO_even needs rank >= 2")
        deltas = tuple(range(2, 2 * n - 1, 2)) + (n,)
        d, dim = 2 * n, n * (2 * n - 1)
        square_last = True
    dees = tuple(2 * dl if (square_last and j == len(deltas) - 1) else dl
                 for j, dl in enumerate(deltas))
    return LieTypeSpec(family=family, rank=n, d=d, deltas=deltas, dees=dees,
                       square_last=square_last, dim=dim)


@dataclass(frozen=True)
class CoefficientLayout:
    """Block sizes and flat-vector offsets of the Hamiltonian coefficients."""
    spec: LieTypeSpec
    genus: int
    x_sizes: tuple
    y_sizes: tuple
    x_offsets: tuple
    y_offsets: tuple
    h: int
    binomials: np.ndarray = field(compare=False, repr=False)  # C(j, k), j <= d

    def x_slice(self, j):
        return slice(self.x_offsets[j], self.x_offsets[j] + self.x_sizes[j])

    def y_slice(self, j):
        return slice(self.y_offsets[j], self.y_offsets[j] + self.y_sizes[j])


def coefficient_layout(spec: LieTypeSpec, curve) -> CoefficientLayout:
    """Coefficient blocks for a given curve."""
    g = curve.genus
    x_sizes, y_sizes = [], []
    for dl in spec.deltas:
        x_sizes.append(dl * (g - 1) + 1)
        y_sizes.append(max(0, (dl - 1) * (g - 1) - 1))
    x_off, y_off, pos = [], [], 0
    for xs, ys in zip(x_sizes, y_sizes):
        x_off.append(pos)
        pos += xs
        y_off.append(pos)
        pos += ys
    return CoefficientLayout(spec=spec, genus=g, x_sizes=tuple(x_sizes),
                             y_sizes=tuple(y_sizes), x_offsets=tuple(x_off),
                             y_offsets=tuple(y_off), h=pos,
                             binomials=_binomials(spec.d))


@dataclass
class SpectralPoint:
    """A point (x, y, lambda) of the spectral cover over the base curve,
    n points when x, y and lam are arrays of shape (n,), or m rows of n
    points when they have shape (m, n)."""
    x: complex
    y: complex
    lam: complex

    def __getitem__(self, i):
        """Point i, or for arrays of shape (m, n) the n points of row i."""
        return SpectralPoint(self.x[i], self.y[i], self.lam[i])


@dataclass
class REval:
    value: complex
    d_lambda: complex
    grad_h: np.ndarray      # gradient over all coefficients, (h,) or (n, h)
    d_x: complex            # on-curve total derivative (dy/dx = P'/(2y))


def eval_R(layout: CoefficientLayout, curve, ham, pt: SpectralPoint) -> REval:
    """Evaluate R and its partials at a spectral point.

    ham is the flat coefficient vector in the layout's order.  The gradient
    is analytic; for so(2n) the squared block carries the factor 2 B_n.
    The x-derivative treats y as a function of x on the base curve.

    A point of scalars gives scalars and a length-h gradient.  A point of
    arrays of shape (n,) gives value, d_lambda and d_x of shape (n,) and
    grad_h of shape (n, h), one row per point, from one power matrix; any
    other shape S is flattened to that and gives S and S + (h,).
    """
    spec = layout.spec
    ham = np.asarray(ham, dtype=complex)
    shape = np.shape(pt.x)
    x, y, lam = (np.ravel(np.asarray(v, dtype=complex))
                 for v in (pt.x, pt.y, pt.lam))
    if any(layout.y_sizes):
        dy_dx = curve.dp(x) / (2.0 * y)
    # one power matrix for all blocks, and its x-derivative
    xpow = x[:, None] ** np.arange(max(layout.x_sizes))
    dpow = xpow[:, :-1] * np.arange(1, xpow.shape[1])
    value = lam ** spec.d
    d_lambda = spec.d * lam ** (spec.d - 1)
    d_x = np.zeros(len(x), dtype=complex)
    grad = np.zeros((len(x), layout.h), dtype=complex)
    for j, dj in enumerate(spec.dees):
        hx = ham[layout.x_slice(j)]
        hy = ham[layout.y_slice(j)]
        b = xpow[:, :len(hx)] @ hx
        db = dpow[:, :len(hx) - 1] @ hx[1:]
        if len(hy):
            by = xpow[:, :len(hy)] @ hy
            b = b + by * y
            db = db + (dpow[:, :len(hy) - 1] @ hy[1:]) * y + by * dy_dx
        lam_fac = lam ** (spec.d - dj)
        squared = spec.square_last and j == len(spec.dees) - 1
        fac = lam_fac * 2.0 * b if squared else lam_fac
        value = value + (lam_fac * b * b if squared else lam_fac * b)
        d_x = d_x + fac * db
        grad[:, layout.x_slice(j)] = fac[:, None] * xpow[:, :len(hx)]
        if len(hy):
            grad[:, layout.y_slice(j)] = \
                fac[:, None] * (xpow[:, :len(hy)] * y[:, None])
        if spec.d != dj:
            contrib = (spec.d - dj) * lam ** (spec.d - dj - 1)
            d_lambda = d_lambda + contrib * (b * b if squared else b)
    out = (value, d_lambda, grad, d_x)
    if shape == ():
        return REval(*(a[0] for a in out))
    return REval(*(a.reshape(shape + a.shape[1:]) for a in out))


def _lambda_blocks(layout: CoefficientLayout, ham, x, y):
    """The blocks B_j and R's lambda coefficients at (x, y).

    For x and y of shape S: the list of the B_j, each of shape S, the
    so(2n) block not yet squared, and the d + 1 ascending coefficients of R
    in lambda, a list of arrays of shape S and 0 or 1 where constant.  Each
    B_j comes from its coefficient blocks by Horner, with no matrix product:
    numpy's complex matrix-vector products on many rows can run threaded,
    and far slower, on a busy host.
    """
    spec = layout.spec
    ham = np.asarray(ham, dtype=complex)
    x = np.asarray(x, dtype=complex)
    coeffs = [0.0] * spec.d + [1.0]
    blocks = []
    for j, dj in enumerate(spec.dees):
        b = _horner(ham[layout.x_slice(j)], x)
        hy = ham[layout.y_slice(j)]
        if len(hy):
            b = b + _horner(hy, x) * y
        blocks.append(b)
        squared = spec.square_last and j == len(spec.dees) - 1
        coeffs[spec.d - dj] = b * b if squared else b
    return blocks, coeffs


def lambda_poly(layout: CoefficientLayout, ham, x, y):
    """Coefficients (ascending) of R as a polynomial in lambda at fixed (x,y).

    x and y of shape S give shape S + (d + 1,); scalars give (d + 1,).
    """
    coeffs = _lambda_blocks(layout, ham, x, y)[1]
    out = np.empty(np.broadcast_shapes(*map(np.shape, coeffs))
                   + (len(coeffs),), dtype=complex)
    for k, c in enumerate(coeffs):
        out[..., k] = c
    return out


def lambda_roots(layout: CoefficientLayout, curve, ham, x, y):
    """All d fiber roots of R(., x, y), companion eigensolve + Newton polish.

    Scalars x, y give the d roots sorted as ``polyroots`` sorts them.
    Arrays of shape (n,) give shape (n, d), row i sorted the same way: the
    n companion matrices, built as in ``polycompanion``, go through one
    stacked eigensolve and both Newton polishes run on all rows at once.

    Issues a ``ConditioningWarning``, naming x, for every point where
    ``root_cluster_margin`` cannot certify the d roots as distinct (a
    repeated fiber root, or a pair too close to resolve in double
    precision); the roots are returned anyway.

    Called through ``_track_roots`` (the fiber route and the angle
    integrals) for the rows its tracking certificate rejects.
    """
    d = layout.spec.d
    coeffs = lambda_poly(layout, ham, x, y)
    comp = np.zeros(coeffs.shape[:-1] + (d, d), dtype=complex)
    comp[..., np.arange(1, d), np.arange(d - 1)] = 1.0
    comp[..., -1] -= coeffs[..., :-1] / coeffs[..., -1:]
    roots = np.sort(np.linalg.eigvals(comp), axis=-1)
    # coefficient axis first: polyval then takes each row at its own roots
    c, dc = (np.moveaxis(a, -1, 0)[..., None]
             for a in (coeffs, coeffs[..., 1:] * np.arange(1, d + 1)))
    for _ in range(2):
        val = np.polynomial.polynomial.polyval(roots, c, tensor=False)
        der = np.polynomial.polynomial.polyval(roots, dc, tensor=False)
        safe = np.abs(der) > 1e-300
        roots = roots - np.where(safe, val / np.where(safe, der, 1.0), 0.0)
    for i in np.ndindex(coeffs.shape[:-1]):
        margin = root_cluster_margin(coeffs[i], roots[i])
        if not margin > 1.0:
            warnings.warn(f"fiber roots not certified distinct at "
                          f"x={np.asarray(x)[i]} (cluster margin "
                          f"{margin:.3g} <= 1)", ConditioningWarning)
    return roots


def _track_roots(layout: CoefficientLayout, ham, x, y, lam0):
    """Row i's root of R(., x_i, y_i) nearest lam0_i; arrays of shape (n,).

    Newton runs from lam0 to a 4-ulp step on the Taylor coefficients a_k of
    R at lam0, whose roundoff is at most gamma b_k, b_k the same shift of
    |R| to |lam0|.  Its result zeta = lam0 + t, with the Newton inclusion
    radius rho of ``curves.root_cluster_margin``, is kept when Pellet's test
    |a_1| r > sum_{k != 1} |a_k| r^k, each a_k widened by its roundoff, puts
    exactly one root in D(lam0, r), r = 2(|t| + rho): that root lies in
    D(zeta, rho) and all others are r or more from lam0.  The other rows
    take the nearest of their ``lambda_roots``, which warns as it does.
    """
    d = layout.spec.d
    u = 2.0**-53
    gamma = 4 * (2 * d + 1) * u / (1 - 4 * (2 * d + 1) * u)  # shift, then sum
    k = np.arange(d + 1)
    c = lambda_poly(layout, ham, x, y)[..., None]          # (n, d + 1, 1)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        shift = lam0[:, None, None] ** np.maximum(k - k[:, None], 0) \
            * layout.binomials                         # C(j, k) lam0^(j - k)
        a = (shift @ c)[..., 0]
        b = (np.abs(shift) @ np.abs(c))[..., 0]
        value_slope = np.zeros(a.shape + (2,), dtype=complex)
        value_slope[..., 0] = a
        value_slope[:, :-1, 1] = a[:, 1:] * k[1:]
        t = np.zeros(len(lam0), dtype=complex)
        tol = 4 * u * np.abs(lam0)
        for _ in range(8):
            tpow = t[:, None] ** k
            val, der = (tpow[:, None] @ value_slope)[:, 0].T
            step = val / der
            converged = np.abs(step) <= tol
            if converged.all():
                break
            t = np.where(converged, t, t - step)
        # at the last point evaluated: rho, then Pellet's test in the form
        # 2 |a_1| r > sum_k (|a_k| + gamma b_k) r^k
        abs_a = np.abs(a)
        bound = ((abs_a + b) * np.abs(tpow)).sum(axis=1)
        rho = d * (np.abs(val) + gamma * bound) / np.abs(der)
        r = 2 * (np.abs(t) + rho)
        ok = converged & (2 * abs_a[:, 1] * r > (
            (abs_a + gamma * b) * r[:, None] ** k).sum(axis=1))
    zeta = lam0 + t
    if not ok.all():
        roots = lambda_roots(layout, None, ham, x[~ok], y[~ok])
        zeta[~ok] = roots[np.arange(len(roots)), np.argmin(
            np.abs(roots - lam0[~ok, None]), axis=1)]
    return zeta
