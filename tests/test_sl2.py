import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from hitchsov import sl2
from hitchsov.flows import integrate
from hitchsov.errors import (DegenerateLine, PoleCollision, ChartSingularity,
                             StepRejected)
import sl2_oracle as oracle


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
        sigma, defect = oracle.calibrate_convention(np.random.default_rng(0))
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
        oracle.calibrate_convention(np.random.default_rng(0))
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

    def test_lax_residual_sees_a_wrong_velocity(self, z6, monkeypatch):
        """Roundoff of [M, L] for the true velocity; of the size of [M, L]
        for the sign-flipped one, which moves L by -[M, L]."""
        rng = np.random.default_rng(13)
        pp = random_point(rng)
        lz, m = sl2.lax_pair(pp, z6, 0.3, 0.51, 4)
        scale = np.linalg.norm(m @ lz - lz @ m)
        assert sl2.lax_residual(pp, z6, 0.3, 0.51, 4) < 1e-13 * scale
        real = sl2._lax_velocity
        monkeypatch.setattr(sl2, "_lax_velocity",
                            lambda *args: lambda state: -real(*args)(state))
        assert sl2.lax_residual(pp, z6, 0.3, 0.51, 4) >= 0.1 * scale

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_rejected(self, z6):
        """|p| near 1e90 overflows (L^3 p) in the velocity at t = 0: a
        typed error, not a NaN eigensolve, and no numpy overflow warning on
        the way."""
        pp = sl2.GeomPhasePoint(np.array([0.5, -1.0j, 0.3 + 0.2j]),
                                1e90 * np.array([1.0, 1.0j, -1.0]))
        with pytest.raises(StepRejected, match="at t=0"):
            sl2.lax_flow(pp, z6, 0.3, 4, 0.2, 1e-3)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_huge_finite_velocity_rejected(self, z6):
        """|p| = 1e80 gives a finite velocity near 1e302 whose RMS over the
        tolerance scale overflows: the starting step names its size, not a
        zero step below the floor."""
        pp = sl2.GeomPhasePoint(np.array([0.5, -1.0j, 0.3 + 0.2j]),
                                1e80 * np.array([1.0, 1.0j, -1.0]))
        with pytest.raises(StepRejected, match=(
                r"velocity of size \S+e\+30\d overflows the starting-step "
                r"estimate at t=0")):
            sl2.lax_flow(pp, z6, 0.3, 4, 0.2, 1e-3)

    @pytest.mark.parametrize("seed", [[1, 13], [1, 72]],
                             ids=["normal-1-13", "normal-1-72"])
    def test_hard_input_matches_fine_rk4(self, seed):
        """Standard complex normal z6, q, p on which RK4 at dt = 1e-3
        fails: [1, 13] overflows at step 95 on a flow that stays below
        |state| = 350, [1, 72] ends with eigenvalue drift 5e-5.  The
        controller's steps pass the 1e-6 gate and end where RK4 at
        dt = 5e-5 does."""
        rng = np.random.default_rng(seed)
        z6, qa, pa = (rng.standard_normal(n) + 1j * rng.standard_normal(n)
                      for n in (6, 3, 3))
        pp = sl2.GeomPhasePoint(qa, pa)
        states, report = sl2.lax_flow(pp, z6, 0.3, 4, 0.2, 1e-3)
        assert report["eigenvalue_drift"] < 1e-9
        assert state_error(states[-1:],
                           rk4_states(pp, z6, 0.2, 5e-5)[-1:]) < 1e-9


def rk4_states(pp, z6, t_end, dt):
    """States of lax_flow's level-4 velocity at zeta = 0.3 by fixed RK4
    steps, on integrate's fixed-step path."""
    rows = integrate(sl2._lax_velocity(z6, 0.3, 4), sl2._advance,
                     sl2._state(pp), dt, int(round(t_end / dt)),
                     after=sl2._recenter)
    return [sl2._point(r) for r in rows]


def state_error(states, ref):
    """Largest gap between two state lists, relative to the state size."""
    assert [s.chart for s in states] == [s.chart for s in ref]
    return max(np.abs(np.r_[a.qa - b.qa, a.pa - b.pa]).max()
               / np.abs(np.r_[b.qa, b.pa]).max() for a, b in zip(states, ref))


class TestLaxVelocity:
    """The bilinear-form velocity, the flat-state loop and the batched
    drift against the direct computations of sl2_oracle."""

    def test_matches_oracle_in_every_chart(self, z6):
        rng = np.random.default_rng(16)
        for chart in range(4):
            pp = random_point(rng)
            pp.chart = chart
            for l in (4, 5):    # tr L^2 and tr L^3 are constant: x is skew
                                # with isotropic columns
                got = sl2._lax_velocity(z6, 0.3, l)(sl2._state(pp))
                fq, fp = oracle.trace_power_gradient(pp, z6, 0.3, l)
                ref = np.concatenate((-fp, fq))
                assert np.abs(got - ref).max() < 1e-13 * np.abs(ref).max()

    def test_matches_finite_difference(self, z6):
        """(-dF/dpa, dF/dqa) of F = tr L(zeta)^4 by central differences."""
        rng = np.random.default_rng(17)
        pp = random_point(rng)
        pp.chart = 1

        def trace_power(v):
            x = sl2.x_matrix(sl2.GeomPhasePoint(v[:3], v[3:], pp.chart))
            return np.trace(np.linalg.matrix_power(0.3 * x + np.diag(z6), 4))

        v0, h = sl2._state(pp).v[0], 1e-6
        grad = np.array([(trace_power(v0 + h * e) - trace_power(v0 - h * e))
                         / (2 * h) for e in np.eye(6)])
        got = sl2._lax_velocity(z6, 0.3, 4)(sl2._state(pp))
        ref = np.concatenate((-grad[3:], grad[:3]))
        assert np.abs(got - ref).max() < 1e-7 * np.abs(ref).max()

    def test_chart_switch_matches_oracle_loop(self, z6):
        """A start with |qa| just under 1e3 leaves chart 3 in the first
        steps; the states match the oracle-driven loop's."""
        pp = sl2.GeomPhasePoint(np.array([999.0, 2.0 - 1.0j, 0.5j]),
                                np.array([1e-6, 1e-3, 1e-3j]))
        states, _ = sl2.lax_flow(pp, z6, 0.3, 4, 0.02, 1e-3)
        assert [s.chart for s in states[:3]] == [3, 0, 0]
        assert state_error(states, oracle.flow(pp, z6, 0.3, 4, 0.02, 1e-3)) \
            < 1e-12

    def test_rows_match_rk4_reference(self):
        """The rows at dt = 1e-3, read from dopri5's continuous extension,
        against RK4 at dt = 1e-4 (lax workload input [1, 3])."""
        rng = np.random.default_rng([1, 3])
        z6, qa, pa = (0.5 * (rng.standard_normal(n)
                             + 1j * rng.standard_normal(n))
                      for n in (6, 3, 3))
        pp = sl2.GeomPhasePoint(qa, pa)
        states, _ = sl2.lax_flow(pp, z6, 0.3, 4, 0.2, 1e-3)
        ref = rk4_states(pp, z6, 0.2, 1e-4)[::10]
        assert len(states) == len(ref) == 201
        assert state_error(states, ref) < 1e-10

    def test_batched_drift_matches_loop(self, z6):
        rng = np.random.default_rng(19)
        states, _ = sl2.lax_flow(random_point(rng), z6, 0.3, 4, 0.05, 1e-3)
        # mixed charts in one batch; chart 0 alone would not catch a wrong
        # ordering, since swapping coordinates (0, 1) with (2, 3) in both q
        # and p leaves the drift unchanged
        states[20] = states[20].to_chart(0)
        states[30] = states[30].to_chart(1)
        got = sl2.lax_drift(states, z6, 0.3)
        ref = oracle.drift(states, z6, 0.5 * 0.3 + 0.25j)
        assert np.abs(got - ref).max() < 1e-13
