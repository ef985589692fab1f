import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hitchsov import sl2
from hitchsov.errors import (DegenerateLine, PoleCollision, ChartSingularity,
                             StepRejected)


def random_point(rng):
    return sl2.GeomPhasePoint(
        rng.standard_normal(3) + 1j * rng.standard_normal(3),
        rng.standard_normal(3) + 1j * rng.standard_normal(3))


@pytest.fixture(scope="module")
def z6():
    rng = np.random.default_rng(5)
    return rng.standard_normal(6) + 1j * rng.standard_normal(6)


finite = st.floats(-3, 3, allow_nan=False, allow_infinity=False)


class TestPlucker:
    @settings(max_examples=30, deadline=None)
    @given(st.lists(finite, min_size=16, max_size=16))
    def test_relation_holds(self, vals):
        v = np.array(vals[:8]) + 1j * np.array(vals[8:])
        a, p = v[:4], v[4:]
        try:
            pi = sl2.plucker(a, p)
        except DegenerateLine:
            return
        res = sl2.plucker_relation(pi)
        assert abs(res) < 1e-10 * (1 + np.abs(pi).max() ** 2)

    def test_degenerate_line(self):
        a = np.array([1.0, 2.0, 3.0, 4.0])
        with pytest.raises(DegenerateLine):
            sl2.plucker(a, 2.0 * a)


class TestKleinCalibration:
    def test_columns_isotropic(self):
        """Columns of x lie on the Klein quadric: sum_n x_nm^2 = 0."""
        rng = np.random.default_rng(1)
        x = sl2.x_matrix(random_point(rng))
        assert np.abs(np.sum(x * x, axis=0)).max() < 1e-12

    def test_skew(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            assert sl2.skew_defect(random_point(rng)) < 1e-12

    def test_so6(self):
        rng = np.random.default_rng(3)
        adj, dis = sl2.so6_relations(random_point(rng))
        assert adj < 1e-8 and dis < 1e-8

    def test_calibration_prefers_frozen(self):
        # the convention is determined up to a global sign flip, which
        # preserves every skew/so(6) relation
        sigma, defect = sl2.calibrate_convention(np.random.default_rng(0))
        assert tuple(sigma) in (tuple(sl2.SIGMA), tuple(-sl2.SIGMA))
        assert defect < 1e-10

    def test_tensor_matches_loop_reference(self):
        """x and its chart gradients against the per-entry definition
        x_ij = d_i d_j q^T epsilon_i^T C_j p, in every chart."""
        d = np.where(sl2.SIGMA < 0, 1j, 1.0)
        c = [0.5 * sl2.SIGMA[j] * sl2.EPSILON[j] for j in range(6)]
        rng = np.random.default_rng(15)
        for chart in range(4):
            pp = random_point(rng)
            pp.chart = chart
            q, p = pp.homogeneous()
            keep = [a for a in range(4) if a != chart]
            x = np.empty((6, 6), dtype=complex)
            gq = np.empty((6, 6, 3), dtype=complex)
            gp = np.empty((6, 6, 3), dtype=complex)
            for i in range(6):
                for j in range(6):
                    m = d[i] * d[j] * sl2.EPSILON[i].T @ c[j]
                    mp, qm = m @ p, q @ m
                    x[i, j] = q @ mp
                    for a in range(3):
                        # p_chart = -pa . qa depends on both arguments
                        gq[i, j, a] = mp[keep[a]] - qm[chart] * pp.pa[a]
                        gp[i, j, a] = qm[keep[a]] - qm[chart] * pp.qa[a]
            tol = 1e-13 * np.abs(x).max()
            assert np.abs(sl2.x_matrix(pp) - x).max() < tol
            for got, ref in zip(sl2.x_gradients(pp), (gq, gp)):
                assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()

    def test_calibration_is_pure(self):
        pp = random_point(np.random.default_rng(14))
        before = (sl2.SIGMA.copy(), sl2.KLEIN.copy(), sl2.x_matrix(pp))
        sl2.calibrate_convention(np.random.default_rng(0))
        after = (sl2.SIGMA, sl2.KLEIN, sl2.x_matrix(pp))
        for a, b in zip(before, after):
            assert a.tobytes() == b.tobytes()

    def test_gradients_fd(self):
        rng = np.random.default_rng(4)
        pp = random_point(rng)
        gq, gp = sl2.x_gradients(pp)
        h = 1e-7
        for a in range(3):
            e = np.zeros(3)
            e[a] = h
            fd = (sl2.x_matrix(sl2.GeomPhasePoint(pp.qa + e, pp.pa))
                  - sl2.x_matrix(sl2.GeomPhasePoint(pp.qa - e, pp.pa))) \
                / (2 * h)
            assert np.abs(gq[:, :, a] - fd).max() < 1e-6


class TestCharts:
    def test_roundtrip(self):
        rng = np.random.default_rng(6)
        pp = random_point(rng)
        other = pp.to_chart(1)
        back = other.to_chart(3)
        assert np.abs(back.qa - pp.qa).max() < 1e-12
        assert np.abs(back.pa - pp.pa).max() < 1e-12

    def test_x_chart_invariant(self):
        rng = np.random.default_rng(7)
        pp = random_point(rng)
        x1 = sl2.x_matrix(pp)
        x2 = sl2.x_matrix(pp.to_chart(0))
        assert np.abs(x1 - x2).max() < 1e-10 * np.abs(x1).max()

    def test_chart_singularity(self):
        pp = sl2.GeomPhasePoint(np.array([0.0, 1.0, 1.0]),
                                np.array([1.0, 1.0, 1.0]))
        with pytest.raises(ChartSingularity):
            pp.to_chart(0)


class TestHamiltonians:
    def test_quadratic_scaling(self, z6):
        rng = np.random.default_rng(8)
        pp = random_point(rng)
        doubled = sl2.GeomPhasePoint(pp.qa, 2.0 * pp.pa)
        h1 = sl2.gp_hamiltonians(pp, z6)
        h2 = sl2.gp_hamiltonians(doubled, z6)
        assert np.abs(h2 - 4.0 * h1).max() < 1e-10 * np.abs(h1).max()

    def test_sum_vanishes(self, z6):
        """sum_i H_i = 0 by antisymmetry of the defining sum."""
        rng = np.random.default_rng(9)
        h = sl2.gp_hamiltonians(random_point(rng), z6)
        assert abs(h.sum()) < 1e-10 * np.abs(h).max()


class TestLax:
    def test_pole_collision(self, z6):
        rng = np.random.default_rng(10)
        pp = random_point(rng)
        with pytest.raises(PoleCollision):
            sl2.lax_pair(pp, z6, 0.3, 0.3, 2)

    def test_quadratic_flow_is_trivial(self, z6):
        """tr L(zeta)^2 is constant on the Klein quadric: zero motion."""
        rng = np.random.default_rng(11)
        pp = random_point(rng)
        states, report = sl2.lax_flow(pp, z6, 0.3, 2, 0.05, 1e-3)
        assert np.abs(states[-1].qa - pp.qa).max() < 1e-12
        assert report["eigenvalue_drift"] < 1e-12

    def test_quartic_flow_isospectral(self, z6):
        rng = np.random.default_rng(12)
        pp = random_point(rng)
        states, report = sl2.lax_flow(pp, z6, 0.3, 4, 0.1, 5e-4)
        moved = np.abs(states[-1].qa - pp.qa).max()
        assert moved > 1e-3          # genuinely nontrivial flow
        assert report["eigenvalue_drift"] < 1e-7
        assert report["hamiltonian_drift"] < 1e-6

    def test_lax_residual(self, z6):
        rng = np.random.default_rng(13)
        pp = random_point(rng)
        res = sl2.lax_residual(pp, z6, 0.3, 0.51, 4)
        assert res < 1e-6

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_rejected(self):
        """Standard complex normal z6, q, p whose level-4 flow blows up
        (|p| near 1e36 at step 95): a typed error, not a NaN eigensolve,
        and no numpy overflow warning on the way."""
        rng = np.random.default_rng([1, 13])
        z6, qa, pa = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                      for n in (6, 3, 3))
        with pytest.raises(StepRejected) as info:
            sl2.lax_flow(sl2.GeomPhasePoint(qa, pa), z6, 0.3, 4, 0.2, 1e-3)
        assert info.value.suggested_dt == 5e-4
