from fractions import Fraction

import numpy as np
import pytest
import sympy
from hypothesis import assume, given, settings, strategies as st

from hitchsov import parabolic as pb
from hitchsov.errors import (IndeterminateDimension, NotIntegral,
                             TruncationInsufficient, ValidationError)


def partitions(n, cap=None):
    if cap is None:
        cap = n
    if n == 0:
        yield ()
        return
    for first in range(min(n, cap), 0, -1):
        for rest in partitions(n - first, first):
            yield (first,) + rest



def levels(n):
    """All levels gamma_1..gamma_r at once."""
    return tuple(pb.level_function(n, j) for j in range(1, sum(n) + 1))


def _ser_add(a, b):
    return [x + y for x, y in zip(a, b)]


def _ser_mul(a, b):
    n = len(a)
    out = [Fraction(0)] * n
    for i, x in enumerate(a):
        if x == 0:
            continue
        for j, y in enumerate(b[:n - i]):
            if y != 0:
                out[i + j] += x * y
    return out


def poly_mul(fa, fb, trunc):
    """Product of two series-coefficient polynomials (descending, monic)."""
    # represent as full coefficient lists including the leading 1
    one = pb.series([1], trunc)
    ca = [one] + fa
    cb = [one] + fb
    out = [[Fraction(0)] * trunc
           for _ in range(len(ca) + len(cb) - 1)]
    for i, a in enumerate(ca):
        for j, b in enumerate(cb):
            out[i + j] = _ser_add(out[i + j], _ser_mul(a, b))
    assert out[0][0] == 1
    return out[1:]


def synthesize_eisenstein(mu, rng, trunc=pb.DEFAULT_TRUNCATION):
    """Random product of Eisenstein factors with degree multiset mu.

    Each factor is lambda^m + sum c_j(t) lambda^(m-j) with all c_j of
    positive valuation and the constant term of exact valuation 1; the
    constant-term leading coefficients are drawn distinct so the result
    is distinguished.
    """
    leads = rng.permutation(range(1, 10 * len(mu)))[:len(mu)]
    factors = []
    for m, lead in zip(mu, leads):
        coeffs = []
        for j in range(1, m + 1):
            c = [Fraction(0)] * trunc
            for order in range(1, 4):
                c[order] = Fraction(int(rng.integers(-5, 6)))
            if j == m:
                c[1] = Fraction(int(lead))
            coeffs.append(pb.series(c, trunc))
        factors.append(coeffs)
    prod = factors[0]
    for fac in factors[1:]:
        prod = poly_mul(prod, fac, trunc)
    return pb.LocalCharPoly(prod, sum(mu), trunc)


def random_rational_poly(rng):
    """A rational polynomial of degree 1-5, leading first: a product of
    factors of degree 1 or 2, each once or squared, or (one time in three)
    free coefficients of which some are zero."""
    def rational():
        return Fraction(int(rng.integers(-9, 10)),
                        int(rng.choice([1, 1, 2, 3, 7])))

    if rng.random() < 1 / 3:
        deg = int(rng.integers(1, 6))
        c = [rational() * (rng.random() < 0.6) for _ in range(deg + 1)]
        c[0] = c[0] or Fraction(int(rng.choice([-2, -1, 1, 3])))
        return c
    c = [Fraction(1)]
    while len(c) < 2 or rng.random() < 0.5:
        deg = int(rng.integers(1, 3))
        factor = [rational() or Fraction(-1)] + [rational()
                                                 for _ in range(deg)]
        for _ in range(int(rng.integers(1, 3))):
            if len(c) + deg > 6:
                break
            c = list(np.convolve(c, factor))
    return c


def sympy_residual(c):
    """The residual string that sympy prints for c, and whether sympy
    finds c squarefree."""
    u = sympy.Symbol("u")
    poly = sympy.Poly([sympy.Rational(a.numerator, a.denominator)
                       for a in c], u)
    return (str(poly.as_expr()),
            sympy.degree(sympy.gcd(poly, poly.diff())) == 0)


class TestPartitions:
    def test_dual_examples(self):
        assert pb.dual_partition((2, 2)) == (2, 2)
        assert pb.dual_partition((3, 1)) == (2, 1, 1)
        assert pb.dual_partition((1, 1, 1, 1)) == (4,)

    @pytest.mark.parametrize("r", range(1, 13))
    def test_dual_involution(self, r):
        for p in partitions(r):
            assert pb.dual_partition(pb.dual_partition(p)) == p
            assert sum(pb.dual_partition(p)) == r

    def test_levels(self):
        assert levels((2, 2)) == (1, 1, 2, 2)
        assert levels((3, 1)) == (1, 1, 2, 3)
        assert levels((4,)) == (1, 2, 3, 4)

    @pytest.mark.parametrize("r", range(1, 9))
    def test_levels_weakly_increasing(self, r):
        for p in partitions(r):
            lv = levels(p)
            assert all(a <= b for a, b in zip(lv, lv[1:]))
            assert lv[-1] == p[0]

    def test_invalid_partition(self):
        with pytest.raises(ValidationError):
            pb.dual_partition((1, 2))
        with pytest.raises(ValidationError):
            pb.dual_partition((2, 0))


class TestDims:
    # hand-computed Riemann-Roch values: (genus, rank, partitions, dims)
    CASES = [
        (2, 4, [(2, 2)], [2, 4, 6, 9]),
        (2, 4, [(1, 1, 1, 1)], [2, 4, 7, 10]),
        (2, 2, [(1, 1)], [2, 4]),
        (2, 2, [(2,)], [2, 3]),
        (2, 3, [(1, 1, 1)], [2, 4, 7]),
        (2, 3, [(2, 1)], [2, 4, 6]),
        (2, 3, [(3,)], [2, 3, 5]),
        (3, 2, [(1, 1)], [3, 7]),
        (3, 2, [(2,)], [3, 6]),
        (2, 2, [(1, 1), (1, 1)], [2, 5]),
        (0, 2, [(1, 1)] * 3, [0, 0]),             # d_2 = -1 < 0
    ]

    @pytest.mark.parametrize("genus,rank,parts,expect", CASES)
    def test_hand_cases(self, genus, rank, parts, expect):
        ptype = pb.ParabolicType(genus, rank,
                                 [pb.MarkedPoint(p) for p in parts])
        dims, total = pb.parabolic_base_dims(ptype)
        assert dims == expect
        assert total == sum(expect)

    @settings(max_examples=200, deadline=None)
    @given(st.integers(0, 4), st.integers(1, 6), st.data())
    def test_half_moduli_dimension(self, genus, rank, data):
        """A check independent of Riemann-Roch: the parabolic Hitchin map
        is a Lagrangian fibration, so the base has half the dimension of
        the moduli space, r^2 (g - 1) + 1 plus, per point, half of
        r^2 - sum_l n_l^2, the flag variety of block sizes n_l.  It holds
        wherever Riemann-Roch settles every index j >= 2 by degree alone,
        d_j > 2g - 2."""
        parts = data.draw(st.lists(st.sampled_from(list(partitions(rank))),
                                   max_size=4))
        assume(2 * genus - 2 + len(parts) > 0)
        assume(all(j * (2 * genus - 2)
                   + sum(j - pb.level_function(n, j) for n in parts)
                   > 2 * genus - 2 for j in range(2, rank + 1)))
        ptype = pb.ParabolicType(genus, rank,
                                 [pb.MarkedPoint(n) for n in parts])
        flags = sum(rank ** 2 - sum(v * v for v in n) for n in parts)
        assert pb.parabolic_base_dims(ptype)[1] \
            == rank ** 2 * (genus - 1) + 1 + flags // 2
        assert flags % 2 == 0

    def test_indeterminate_range(self):
        # genus 1, single-block marking: d_2 = 0 lands in [0, 2g-2]
        bad = pb.ParabolicType(1, 2, [pb.MarkedPoint((2,))])
        with pytest.raises(IndeterminateDimension):
            pb.parabolic_base_dims(bad)


class TestTypeValidation:
    @pytest.mark.parametrize("build, match", [
        (lambda: pb.MarkedPoint((2, 2), (0,)), "lengths differ"),
        (lambda: pb.MarkedPoint((1, 1), (Fraction(1, 2), Fraction(1, 4))),
         "non-decreasing"),
        (lambda: pb.MarkedPoint((1, 1), (0, 1)), r"in \[0, 1\)"),
        (lambda: pb.ParabolicType(2, 4, [pb.MarkedPoint((2, 1))]),
         "does not sum to rank 4"),
        (lambda: pb.ParabolicType(0, 2, [pb.MarkedPoint((1, 1))]),
         r"2g - 2 \+ #points must be positive"),
        (lambda: pb.delta_p(pb.ParabolicType(2, 2)), "at least one"),
    ])
    def test_rejected(self, build, match):
        with pytest.raises(ValidationError, match=match):
            build()


class TestDeltaP:
    def test_full_flag_gives_one(self):
        for r in (2, 3, 4, 6):
            ptype = pb.ParabolicType(2, r, [pb.MarkedPoint((1,) * r)])
            assert pb.delta_p(ptype) == 1

    def test_two_two(self):
        ptype = pb.ParabolicType(2, 4, [pb.MarkedPoint((2, 2))])
        assert pb.delta_p(ptype) == 2

    @pytest.mark.parametrize("r", range(2, 7))
    def test_divides_counts(self, r):
        for p in partitions(r):
            ptype = pb.ParabolicType(2, r, [pb.MarkedPoint(p)])
            d = pb.delta_p(ptype)
            mu = pb.dual_partition(p)
            for i in range(1, r + 1):
                cnt = sum(1 for m in mu if m == i)
                if cnt:
                    assert cnt % d == 0

    def test_full_flag_anywhere_gives_one(self):
        ptype = pb.ParabolicType(2, 4, [pb.MarkedPoint((2, 2)),
                                        pb.MarkedPoint((1, 1, 1, 1))])
        assert pb.delta_p(ptype) == 1


class TestParabolicDegree:
    def test_zero_weights(self):
        ptype = pb.ParabolicType(2, 2, [pb.MarkedPoint((1, 1), (0, 0))])
        assert pb.parabolic_degree(3, ptype) == 3

    def test_direct_sum(self):
        from fractions import Fraction
        ptype = pb.ParabolicType(
            2, 2, [pb.MarkedPoint((1, 1), (0, Fraction(1, 2)))])
        assert pb.parabolic_degree(0, ptype) == Fraction(1, 2)

    def test_mehta_seshadri_zero(self):
        from fractions import Fraction
        ptype = pb.ParabolicType(
            2, 2, [pb.MarkedPoint((1, 1), (Fraction(1, 4),
                                           Fraction(3, 4)))])
        assert pb.parabolic_degree(-1, ptype) == 0


class TestNewtonEisenstein:
    def test_reference_ord_pattern(self):
        # ord(a1..a4) = (1,1,2,2) -> two Eisenstein factors of degree 2
        f = pb.LocalCharPoly.from_lists(
            [[0, 1], [0, 3], [0, 0, 1], [0, 0, 2]])
        rep = pb.newton_eisenstein_check(f, expected_mu=(2, 2))
        assert rep["orders"] == [1, 1, 2, 2]
        assert rep["factor_degrees"] == (2, 2)
        assert rep["matches_expected"]
        assert rep["distinguished"]

    def test_classical_eisenstein(self):
        for r in (2, 3, 5):
            coeffs = [[0]] * (r - 1) + [[0, 1]]
            f = pb.LocalCharPoly.from_lists(coeffs)
            rep = pb.newton_eisenstein_check(f)
            assert rep["factor_degrees"] == (r,)
            assert rep["distinguished"]

    def test_square_not_distinguished(self):
        # (lambda^2 + t)^2: repeated residual root
        f = pb.LocalCharPoly.from_lists([[0], [0, 2], [0], [0, 0, 1]])
        rep = pb.newton_eisenstein_check(f)
        assert rep["factor_degrees"] == (2, 2)
        assert not rep["distinguished"]

    def test_slope_above_one(self):
        # lambda^2 - t^3: one segment of slope 3/2, constant term of
        # valuation 3 > 1
        f = pb.LocalCharPoly.from_lists([[0], [0, 0, 0, -1]])
        rep = pb.newton_eisenstein_check(f)
        assert rep["vertices"] == [(0, 0), (2, 3)]
        assert rep["factor_degrees"] == (2,)
        assert not rep["distinguished"]

    def test_unit_factor_rejected(self):
        f = pb.LocalCharPoly.from_lists([[1], [0, 1]])
        with pytest.raises(NotIntegral):
            pb.newton_eisenstein_check(f)

    def test_truncation_insufficient(self):
        f = pb.LocalCharPoly.from_lists([[0, 1], [0]], trunc=4)
        with pytest.raises(TruncationInsufficient):
            pb.newton_eisenstein_check(f)

    def test_generate_and_verify(self):
        rng = np.random.default_rng(77)
        checked = 0
        while checked < 100:
            k = int(rng.integers(1, 4))
            mu = sorted(rng.integers(1, 4, size=k).tolist(), reverse=True)
            if sum(mu) > 6:
                continue
            f = synthesize_eisenstein(mu, rng, trunc=12)
            rep = pb.newton_eisenstein_check(f, expected_mu=mu)
            assert rep["matches_expected"], (mu, rep["factor_degrees"])
            checked += 1


class TestResidualOracle:
    """Residual strings and the squarefree test against sympy."""

    @pytest.mark.parametrize("c, text", [
        ([-1, 0, 1], "1 - u**2"),
        ([-2, 5], "5 - 2*u"),
        (["-1/2", 1], "1 - u/2"),
        ([-1, 1, 0], "-u**2 + u"),
        ([-1, 0, 1, 3], "-u**3 + u + 3"),
        ([1, -1], "u - 1"),
        (["-1/2", 0, "3/2", -1], "-u**3/2 + 3*u/2 - 1"),
        (["1/7", 0, "-1/3"], "u**2/7 - 1/3"),
        ([-3, 0, 0, 0], "-3*u**3"),
    ])
    def test_examples(self, c, text):
        c = [Fraction(a) for a in c]
        assert pb.residual_str(c) == text == sympy_residual(c)[0]

    def test_random_polynomials(self):
        rng = np.random.default_rng(31)
        squares = constant_first = 0
        for _ in range(500):
            c = random_rational_poly(rng)
            text, squarefree = sympy_residual(c)
            assert pb.residual_str(c) == text, c
            derivative = [(len(c) - 1 - k) * a for k, a in enumerate(c[:-1])]
            assert (len(pb._poly_gcd(c, derivative)) == 1) == squarefree, c
            squares += not squarefree
            constant_first += sum(map(bool, c)) == 2 and c[0] < 0 < c[-1]
        assert squares > 100 and constant_first > 5

    def test_distinguished_by_squarefree_residual(self):
        """One slope-1 segment whose residual is a monic c: the report is
        distinguished exactly when sympy finds c squarefree."""
        rng = np.random.default_rng(32)
        for _ in range(150):
            c = random_rational_poly(rng)
            if c[-1] == 0:
                continue
            c = [a / c[0] for a in c]
            f = pb.LocalCharPoly.from_lists(
                [[0] * k + [a] for k, a in enumerate(c[1:], start=1)])
            rep = pb.newton_eisenstein_check(f)
            assert rep["vertices"] == [(0, 0), (len(c) - 1, len(c) - 1)]
            assert rep["residuals"] == [c]
            assert rep["distinguished"] == sympy_residual(c)[1], c


@settings(max_examples=50, deadline=None)
@given(st.lists(st.integers(1, 6), min_size=1, max_size=6))
def test_dual_involution_property(parts):
    p = tuple(sorted(parts, reverse=True))
    assert pb.dual_partition(pb.dual_partition(p)) == p
