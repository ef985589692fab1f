"""Parabolic-type combinatorics and local spectral models.

Partitions at marked points determine level functions, the dimensions of
the parabolic Hitchin base, the invariant Delta_P, and the parabolic
degree.  The local model of a singular spectral curve is a monic
polynomial over truncated power series in t, analysed through its t-adic
Newton polygon and Eisenstein factorization.
"""

import math
from bisect import bisect_left
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import accumulate

from .errors import (IndeterminateDimension, TruncationInsufficient,
                     NotIntegral, ValidationError)

DEFAULT_TRUNCATION = 16


# ----------------------------------------------------------------------
# partitions
# ----------------------------------------------------------------------

def _check_partition(n):
    n = tuple(int(v) for v in n)
    if not n or any(v <= 0 for v in n) or any(
            a < b for a, b in zip(n, n[1:])):
        raise ValidationError(
            f"not a weakly decreasing positive partition: {n}")
    return n


def dual_partition(n):
    """Conjugate partition mu_j = #{l : n_l >= j}."""
    n = _check_partition(n)
    return tuple(sum(1 for v in n if v >= j) for j in range(1, n[0] + 1))


def level_function(n, j):
    """Level gamma_j: the step of the dual-partition staircase holding j."""
    n = _check_partition(n)
    r = sum(n)
    if not 1 <= j <= r:
        raise IndexError(f"j must be in 1..{r}, got {j}")
    # the first level whose running sum of mu reaches j; mu sums to r
    return bisect_left(list(accumulate(dual_partition(n))), j) + 1


# ----------------------------------------------------------------------
# parabolic types
# ----------------------------------------------------------------------

@dataclass
class MarkedPoint:
    partition: tuple
    weights: tuple = ()

    def __post_init__(self):
        self.partition = _check_partition(self.partition)
        self.weights = tuple(Fraction(w) for w in self.weights)
        if self.weights:
            if len(self.weights) != len(self.partition):
                raise ValidationError(
                    "weights and partition lengths differ")
            if any(not 0 <= w < 1 for w in self.weights) or any(
                    a > b for a, b in zip(self.weights, self.weights[1:])):
                raise ValidationError(
                    "weights must be non-decreasing in [0, 1)")


@dataclass
class ParabolicType:
    genus: int
    rank: int
    points: list = field(default_factory=list)

    def __post_init__(self):
        self.points = [p if isinstance(p, MarkedPoint) else MarkedPoint(*p)
                       for p in self.points]
        for p in self.points:
            if sum(p.partition) != self.rank:
                raise ValidationError(
                    f"partition {p.partition} does not sum to rank "
                    f"{self.rank}")
        if 2 * self.genus - 2 + len(self.points) <= 0:
            raise ValidationError(
                "2g - 2 + #points must be positive")


def parabolic_base_dims(ptype: ParabolicType):
    """Per-index dimensions of the parabolic Hitchin base and their sum.

    The j-th summand is sections of a line bundle of degree
    d_j = j(2g - 2) + sum_x (j - gamma_j(x)); Riemann-Roch settles the
    dimension when d_j > 2g - 2 (dim d_j - g + 1) or d_j < 0 (dim 0),
    and j = 1 is the canonical bundle itself (dim g).
    """
    g = ptype.genus
    dims = []
    for j in range(1, ptype.rank + 1):
        dj = j * (2 * g - 2) + sum(j - level_function(p.partition, j)
                                   for p in ptype.points)
        if j == 1:
            # gamma_1 = 1 at every point, so d_1 = 2g - 2 is canonical
            dims.append(g)
        elif dj > 2 * g - 2:
            dims.append(dj - g + 1)
        elif dj < 0:
            dims.append(0)
        else:
            raise IndeterminateDimension(
                f"degree {dj} in the special range [0, {2 * g - 2}] "
                f"at index {j}")
    return dims, sum(dims)


def delta_p(ptype: ParabolicType):
    """gcd over part sizes and points of the dual-partition multiplicities."""
    if not ptype.points:
        raise ValidationError("Delta_P needs at least one marked point")
    acc = 0
    for p in ptype.points:
        mu = dual_partition(p.partition)
        for i in range(1, ptype.rank + 1):
            acc = math.gcd(acc, sum(1 for m in mu if m == i))
    return acc


def parabolic_degree(deg_e, ptype: ParabolicType):
    """deg E + sum_x sum_j alpha_j(x) m^j(x), an exact rational."""
    total = Fraction(deg_e)
    for p in ptype.points:
        for alpha, m in zip(p.weights, p.partition):
            total += alpha * m
    return total


# ----------------------------------------------------------------------
# truncated power series over Q
# ----------------------------------------------------------------------

def series(coeffs, trunc=DEFAULT_TRUNCATION):
    s = [Fraction(0)] * trunc
    for i, c in enumerate(coeffs[:trunc]):
        s[i] = Fraction(c)
    return s


def _ser_ord(a):
    for i, c in enumerate(a):
        if c != 0:
            return i
    return None


@dataclass
class LocalCharPoly:
    """Monic lambda^r + sum_j a_j lambda^(r-j), a_j truncated t-series."""
    coeffs: list                # coeffs[j-1] = series of a_j
    rank: int
    trunc: int = DEFAULT_TRUNCATION

    @classmethod
    def from_lists(cls, coeff_lists, trunc=DEFAULT_TRUNCATION):
        r = len(coeff_lists)
        return cls([series(c, trunc) for c in coeff_lists], r, trunc)

    def orders(self):
        """t-adic valuations of a_1..a_r (None when zero to truncation)."""
        return [_ser_ord(a) for a in self.coeffs]


def newton_polygon(f: LocalCharPoly):
    """Vertices of the lower Newton polygon of f.

    Points are (j, ord a_j) for j = 0..r with a_0 = 1; the hull runs from
    (0, 0) to (r, ord a_r).
    """
    orders = f.orders()
    pts = [(0, 0)]
    for j, o in enumerate(orders, start=1):
        if o is not None:
            pts.append((j, o))
    if orders[-1] is None:
        raise TruncationInsufficient(
            "constant coefficient vanishes to the truncation order")
    # lower convex hull, Andrew scan over the (sorted) point list
    hull = []
    for p in pts:
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (x2 - x1) * (p[1] - y1) <= (p[0] - x1) * (y2 - y1):
                hull.pop()
            else:
                break
        hull.append(p)
    return hull


def _segment_residual(f, j1, v1, p, q, deg):
    """Residual polynomial of the polygon segment from (j1, v1) of slope
    p/q in lowest terms: its deg + 1 coefficients in u, leading first, the
    t^(v1 + k p)-coefficients of a_(j1 + k q).  Every v1 + k p is at most
    the segment's end valuation, which lies below the truncation.
    """
    coeffs_full = [series([1], f.trunc)] + f.coeffs
    return [coeffs_full[j1 + k * q][v1 + k * p] for k in range(deg + 1)]


def _poly_gcd(a, b):
    """Euclid's gcd over Q of two coefficient lists, leading first and
    with nonzero leading coefficients."""
    while b:
        while len(a) >= len(b):         # a <- a mod b
            f = a[0] / b[0]
            a = [x - f * y for x, y in zip(a[1:], b[1:] + [0] * len(a))]
            while a and a[0] == 0:
                a = a[1:]
        a, b = b, a
    return a


def residual_str(c):
    """The nonzero polynomial in u with rational coefficients c (leading
    first), as ``str(sympy.Poly(c, u).as_expr())`` prints it:
    ``-u**3/2 + 3*u/2 - 1``, save that of two terms a positive constant
    goes first when the other is negative (``1 - u**2``)."""
    terms = []                          # (coefficient, |term| text)
    for power, a in zip(range(len(c) - 1, -1, -1), c):
        if a == 0:
            continue
        text = str(abs(a))
        if power:
            mono = "u" if power == 1 else f"u**{power}"
            num, den = abs(a.numerator), a.denominator
            text = mono if num == 1 else f"{num}*{mono}"
            text += "" if den == 1 else f"/{den}"
        terms.append((a, text))
    if len(terms) == 2 and terms[0][0] < 0 < c[-1]:
        terms.reverse()
    (lead, text), *rest = terms
    return ("-" if lead < 0 else "") + text + "".join(
        (" - " if a < 0 else " + ") + text for a, text in rest)


def newton_eisenstein_check(f: LocalCharPoly, expected_mu=None):
    """Newton-polygon factor analysis of a local characteristic polynomial.

    Returns a report with the polygon vertices, the factor degree
    multiset, and whether the factorization is distinguished: all slopes
    of the form 1/mu (Eisenstein factors) and all residual polynomials
    squarefree, which makes equal-degree factors differ in their constant
    terms at exact valuation 1.
    """
    hull = newton_polygon(f)
    degrees = []
    distinguished = True
    residuals = []
    for (j1, v1), (j2, v2) in zip(hull[:-1], hull[1:]):
        rise, run = v2 - v1, j2 - j1
        if rise <= 0:
            raise NotIntegral(
                f"polygon segment of slope {Fraction(rise, run)} shows a "
                "unit factor")
        gcd = math.gcd(rise, run)
        p, q = rise // gcd, run // gcd
        nfactors = run // q
        res = _segment_residual(f, j1, v1, p, q, nfactors)
        residuals.append(res)
        degrees.extend([q] * nfactors)
        if p != 1:
            distinguished = False     # constant terms have valuation p > 1
        deriv = [(nfactors - k) * a for k, a in enumerate(res[:-1])]
        if len(_poly_gcd(res, deriv)) > 1:
            distinguished = False     # repeated residual root
    degrees.sort(reverse=True)
    report = {
        "vertices": hull,
        "orders": f.orders(),
        "factor_degrees": tuple(degrees),
        "distinguished": bool(distinguished),
        "residuals": residuals,
    }
    if expected_mu is not None:
        report["matches_expected"] = tuple(sorted(expected_mu, reverse=True)) \
            == report["factor_degrees"]
    return report
