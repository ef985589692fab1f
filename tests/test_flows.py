import re
import tracemalloc

import numpy as np
import pytest

from hitchsov import curves, flows, separation, spectral
from hitchsov.curves import _GK_WEIGHTS, _panel_nodes
from hitchsov.spectral import (FAMILIES, resolve_type, coefficient_layout,
                               SpectralPoint, lambda_poly, lambda_roots)
from hitchsov.separation import (PhaseConfiguration, solve_hamiltonians,
                                 implicit_gradients)
from hitchsov.errors import (StepRejected, BranchLocus, IllConditioned,
                             SingularJacobian, BranchCollision,
                             NewtonDivergence)
from hitchsov.flows import (jacobi_matrix, flow_fiber, flow_poisson,
                            match_states, angle_increments,
                            hamiltonian_drift, discriminant_zero_count,
                            integrate, Trajectory, _integrand_vector,
                            _continue_sheets)

from conftest import sample_fiber_config
import flow_oracle


@pytest.fixture(scope="module")
def system(curve_c, gl2):
    """Planted GL(2) system with a tame flow direction."""
    rng = np.random.default_rng(17)
    ham = rng.standard_normal(gl2.h) + 1j * rng.standard_normal(gl2.h)
    cfg = sample_fiber_config(gl2, curve_c, ham, rng)
    jm = jacobi_matrix(gl2, curve_c, ham, cfg)
    w = 0.1 * rng.standard_normal(gl2.h)
    c = jm @ w      # keeps the separating-point velocity of order 0.1
    return ham, cfg, c


class TestTwoRoutes:
    def test_fiber_vs_poisson(self, curve_c, gl2, system):
        ham, cfg, c = system
        t_end, dt = 0.2, 1e-3
        tf = flow_fiber(gl2, curve_c, ham, cfg, c, t_end, dt)
        tp = flow_poisson(gl2, curve_c, cfg, c, t_end, dt)
        dist = match_states(tf.states[-1], tp.states[-1])
        assert dist < 1e-8
        assert hamiltonian_drift(gl2, curve_c, tf) < 1e-8
        assert hamiltonian_drift(gl2, curve_c, tp) < 1e-8

    def test_swap_fails_gate(self, curve_c, gl2, system):
        """Points are compared row by row, so the Poisson end state with
        two rows swapped reads far above the two-route gate of 1e-6."""
        ham, cfg, c = system
        tf = flow_fiber(gl2, curve_c, ham, cfg, c, 0.05, 1e-3)
        end = flow_poisson(gl2, curve_c, cfg, c, 0.05, 1e-3).states[-1]
        order = np.r_[1, 0, 2:len(end.x)]
        swapped = SpectralPoint(end.x[order], end.y[order], end.lam[order])
        assert match_states(tf.states[-1], end) < 1e-6
        assert match_states(tf.states[-1], swapped) > 1e-6

    def test_euler_first_order(self, curve_c, gl2, system):
        ham, cfg, c = system
        t_end = 0.1
        ref = flow_fiber(gl2, curve_c, ham, cfg, c, t_end, 1e-3,
                         scheme="rk4")
        e1 = flow_fiber(gl2, curve_c, ham, cfg, c, t_end, 2e-3,
                        scheme="euler")
        e2 = flow_fiber(gl2, curve_c, ham, cfg, c, t_end, 1e-3,
                        scheme="euler")
        d1 = match_states(e1.states[-1], ref.states[-1])
        d2 = match_states(e2.states[-1], ref.states[-1])
        assert 1.8 < d1 / d2 < 2.2

    def test_motion_happens(self, curve_c, gl2, system):
        ham, cfg, c = system
        traj = flow_fiber(gl2, curve_c, ham, cfg, c, 0.2, 1e-3)
        dist = match_states(traj.states[0], traj.states[-1])
        assert dist > 1e-3


class TestAngles:
    def test_linearity(self, curve_c, gl2, system):
        """Exact increments put both routes on phi(0) + c t to near
        roundoff; the trapezoid oracle agrees to its own O(dt^2)."""
        ham, cfg, c = system
        t_end, dt = 0.2, 1e-3
        for traj in (flow_fiber(gl2, curve_c, ham, cfg, c, t_end, dt),
                     flow_poisson(gl2, curve_c, cfg, c, t_end, dt)):
            expect = np.outer(traj.times, c)
            shifts = angle_increments(gl2, curve_c, ham, traj)
            assert np.abs(shifts - expect).max() < 1e-10 * t_end
            trapezoid = flow_oracle.angle_shift(gl2, curve_c, ham, traj)
            assert np.abs(trapezoid - expect).max() < 1e-5 * t_end

    def test_euler_leaves_the_line(self, curve_c, gl2, system):
        # explicit Euler's O(dt) error shows in the exact increments
        ham, cfg, c = system
        traj = flow_fiber(gl2, curve_c, ham, cfg, c, 0.2, 1e-2, "euler")
        err = np.abs(angle_increments(gl2, curve_c, ham, traj)
                     - np.outer(traj.times, c)).max()
        assert err > 1e-5

    @pytest.mark.parametrize("segments", [128, 10])
    def test_sheet_jump_rejected(self, curve_c, gl2, system, monkeypatch,
                                 segments):
        # 10 segments per call: two rows of the five points per block
        monkeypatch.setattr(flows, "_ANGLE_SEGMENTS", segments)
        ham, cfg, c = system
        traj = flow_fiber(gl2, curve_c, ham, cfg, c, 0.01, 1e-3)
        s = traj.states[4]
        flipped = s.y.copy()
        flipped[2] *= -1
        traj.states[4] = SpectralPoint(s.x, flipped, s.lam)
        with pytest.raises(BranchLocus, match="point 2 .* rows 3 and 4"):
            angle_increments(gl2, curve_c, ham, traj)

    @pytest.mark.parametrize("segments", [128, 10])
    def test_root_swap_rejected(self, curve_c, gl2, system, monkeypatch,
                                segments):
        # the lambda half of the sheet gate: the other root of the fiber
        # at the same (x, y)
        monkeypatch.setattr(flows, "_ANGLE_SEGMENTS", segments)
        ham, cfg, c = system
        traj = flow_fiber(gl2, curve_c, ham, cfg, c, 0.01, 1e-3)
        s = traj.states[4]
        roots = lambda_roots(gl2, None, ham, s.x[2:3], s.y[2:3])[0]
        swapped = s.lam.copy()
        swapped[2] = roots[np.argmax(np.abs(roots - s.lam[2]))]
        traj.states[4] = SpectralPoint(s.x, s.y, swapped)
        with pytest.raises(BranchLocus, match="point 2 .* rows 3 and 4"):
            angle_increments(gl2, curve_c, ham, traj)

    @pytest.mark.parametrize("family", ["GL", "SP"])
    def test_stored_lambda_on_its_root(self, curve_c, gl2, system, family):
        # under dopri5 both routes' stored lambda lies far inside the gate's
        # 1e-6 (1 + |lambda|) of the fiber root nearest it, so the gate
        # compares the certified end lambda with the stored one and tracks
        # no root of its own
        if family == "GL":
            layout, (ham, cfg, c) = gl2, system
        else:
            layout, ham, cfg, c = planted(family, curve_c, 8)
        for traj in (flow_fiber(layout, curve_c, ham, cfg, c, 0.1, 1e-3),
                     flow_poisson(layout, curve_c, cfg, c, 0.1, 1e-3)):
            assert root_offset(layout, ham, traj) < 1e-9

    def test_euler_poisson_off_its_fiber(self, curve_c, gl2, system):
        # euler's O(dt) error leaves the Poisson route's stored lambda off
        # the fiber of the fixed H by more than the gate's tolerance: the
        # gate compares those rows with the fiber root nearest them, and
        # still catches a swapped root
        ham, cfg, c = system
        traj = flow_poisson(gl2, curve_c, cfg, c, 0.2, 1e-2, "euler")
        assert root_offset(gl2, ham, traj) > 1e-5
        err = np.abs(angle_increments(gl2, curve_c, ham, traj)
                     - np.outer(traj.times, c)).max()
        assert err > 1e-5
        s = traj.states[4]
        roots = lambda_roots(gl2, None, ham, s.x[2:3], s.y[2:3])[0]
        swapped = s.lam.copy()
        swapped[2] = roots[np.argmax(np.abs(roots - s.lam[2]))]
        traj.states[4] = SpectralPoint(s.x, s.y, swapped)
        with pytest.raises(BranchLocus, match="point 2 .* rows 3 and 4"):
            angle_increments(gl2, curve_c, ham, traj)

    def test_one_root_pass_per_panel_call(self, curve_c, gl2, system,
                                          monkeypatch):
        # the sheet gate reads the lambda the panels certified, so on a
        # dopri5 trajectory the check tracks roots only in _density_panels
        ham, cfg, c = system
        traj = flow_fiber(gl2, curve_c, ham, cfg, c, 0.05, 1e-3)
        calls = {"panels": 0, "roots": 0}

        def counted(name, f):
            def wrapped(*args):
                calls[name] += 1
                return f(*args)
            return wrapped
        monkeypatch.setattr(flows, "_density_panels",
                            counted("panels", flows._density_panels))
        monkeypatch.setattr(flows, "_track_roots",
                            counted("roots", flows._track_roots))
        angle_increments(gl2, curve_c, ham, traj)
        assert calls["roots"] == calls["panels"] > 0

    # GL(2) has x-blocks only, SP(2) a y-part, SO_even(2) the squared block
    @pytest.mark.parametrize("family", ["GL", "SP", "SO_even"])
    def test_blocks_add_up(self, curve_c, gl2, system, monkeypatch, family):
        if family == "GL":
            layout, (ham, cfg, c) = gl2, system
        else:
            layout, ham, cfg, c = planted(family, curve_c, 8)
        traj = flow_fiber(layout, curve_c, ham, cfg, c, 0.02, 1e-3)
        whole = angle_increments(layout, curve_c, ham, traj)
        # 15 segments: 3 rows a block for GL(2), 2 for SO_even(2), 1 for SP(2)
        monkeypatch.setattr(flows, "_ANGLE_SEGMENTS", 15)
        blocks = angle_increments(layout, curve_c, ham, traj)
        assert np.abs(blocks - whole).max() <= 1e-15 * np.abs(whole).max()

    def test_peak_memory(self, curve_c):
        # the panel sums hold no (nodes x h) array: one call on 101 SP(2)
        # rows in 128-segment blocks peaks near 0.87 MB (1.68 MB when the
        # sums were taken from the whole (21 n, h) density array)
        layout, ham, cfg, c = planted("SP", curve_c, 8)
        traj = flow_fiber(layout, curve_c, ham, cfg, c, 0.1, 1e-3)
        assert len(traj.states) == 101 and flows._ANGLE_SEGMENTS == 128
        tracemalloc.start()
        try:
            angle_increments(layout, curve_c, ham, traj)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.2e6

    def test_one_panel_call_per_block(self, curve_c, gl2, system,
                                      monkeypatch):
        # each segment of a smooth trajectory passes on its first
        # Gauss-Kronrod panel, so a block of rows costs one panel call
        ham, cfg, c = system
        traj = flow_fiber(gl2, curve_c, ham, cfg, c, 0.05, 1e-3)
        calls = []
        panels = flows._density_panels

        def counted(*args):
            calls.append(len(args[3]))
            return panels(*args)
        monkeypatch.setattr(flows, "_density_panels", counted)
        angle_increments(gl2, curve_c, ham, traj)
        rows = flows._ANGLE_SEGMENTS // gl2.h         # 25 rows a block
        assert calls == [rows * gl2.h] * (50 // rows)

    def test_single_row(self, curve_c, gl2, system):
        ham, cfg, c = system
        traj = Trajectory(np.zeros(1), [cfg])
        assert np.array_equal(angle_increments(gl2, curve_c, ham, traj),
                              np.zeros((1, gl2.h)))


class TestDensities:
    """The angle densities from the lambda-coefficient blocks against
    eval_R's gradient (``flow_oracle.integrand_vector``)."""

    @staticmethod
    def system(curve, family):
        rng = np.random.default_rng(61)
        layout = coefficient_layout(resolve_type(family, 2), curve)
        ham = rng.standard_normal(layout.h) \
            + 1j * rng.standard_normal(layout.h)
        x = 0.8 * (rng.standard_normal((3, 8))
                   + 1j * rng.standard_normal((3, 8)))
        y = np.sqrt(curve.p(x)) * rng.choice([-1.0, 1.0], x.shape)
        # the largest root: never SO_odd's lambda = 0, where all vanish
        roots = lambda_roots(layout, curve, ham, x.ravel(), y.ravel())
        lam = roots[np.arange(x.size), np.abs(roots).argmax(axis=1)]
        return layout, ham, SpectralPoint(x, y, lam.reshape(x.shape))

    # SO_even(2) has the squared block; SP(2) and SO_odd(2) y-parts
    @pytest.mark.parametrize("family", FAMILIES)
    def test_match_eval_R(self, curve_c, family):
        layout, ham, pts = self.system(curve_c, family)
        got = _integrand_vector(layout, ham, pts)
        ref = flow_oracle.integrand_vector(layout, curve_c, ham, pts)
        assert got.shape == ref.shape == pts.x.shape + (layout.h,)
        scale = np.abs(ref).max(axis=-1, keepdims=True)
        assert (np.abs(got - ref) <= 1e-13 * scale).all()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_branch_locus(self, curve_c, family):
        # point 1 at a root of dR/dlambda, the others on their fibers
        npoly = np.polynomial.polynomial
        layout, ham, pts = self.system(curve_c, family)
        x, y, lam = (a[0, :3].copy() for a in (pts.x, pts.y, pts.lam))
        coeffs = lambda_poly(layout, ham, x[1], y[1])
        lam[1] = npoly.polyroots(npoly.polyder(coeffs))[0]
        pt = SpectralPoint(x, y, lam)
        for densities in (lambda: _integrand_vector(layout, ham, pt),
                          lambda: flow_oracle.integrand_vector(
                              layout, curve_c, ham, pt)):
            with pytest.raises(BranchLocus,
                               match=re.escape(f"at x={x[1]}")):
                densities()

    @pytest.mark.parametrize("family", FAMILIES)
    def test_panel_sums_match_densities(self, curve_c, family, monkeypatch):
        # the column-by-column sums against the weights times the (21 n, h)
        # density array, on the nodes and polished lambda the panels used
        layout, ham, pts = self.system(curve_c, family)
        rng = np.random.default_rng(62)
        a = pts.x.ravel()
        b = a + 0.05 * (rng.standard_normal(a.size)
                        + 1j * rng.standard_normal(a.size))
        start = np.stack((pts.y.ravel(), pts.lam.ravel()), axis=1)
        seen = []
        factors = flows._density_factors

        def spy(*args):
            seen.append(args)
            return factors(*args)
        monkeypatch.setattr(flows, "_density_factors", spy)
        sums, _ = flows._density_panels(layout, curve_c, ham, a, b, start)
        half, nodes = _panel_nodes(a, b)
        args = seen[0]
        assert np.array_equal(args[1], nodes[:, :-1].ravel())
        dens = _integrand_vector(layout, ham, SpectralPoint(*args[1:4]))
        dens = dens.reshape(a.size, -1, layout.h)
        ref = half[:, None] * (_GK_WEIGHTS @ dens)
        assert sums.shape == ref.shape == (a.size, 2, layout.h)
        scale = np.abs(ref).max(axis=-1, keepdims=True)
        assert (np.abs(sums - ref) <= 1e-14 * scale).all()

    def test_panel_branch_locus(self, curve_c, gl2):
        # R = (lambda - 1)^2 + x - x0 has the double root 1 at the panel's
        # middle node x0, where four Newton steps from 1 + 1e-12 leave
        # lambda next to it and dR/dlambda below the gate
        a, b = np.array([0.2 + 0.1j]), np.array([0.3 + 0.2j])
        x0 = 0.5 * (a[0] + b[0])
        ham = np.array([-2.0, 0.0, 1.0 - x0, 1.0, 0.0])
        start = np.array([[np.sqrt(curve_c.p(a[0])), 1.0 + 1e-12]])
        with pytest.raises(BranchLocus, match=re.escape(f"at x={x0}")):
            flows._density_panels(gl2, curve_c, ham, a, b, start)


class TestPrymParity:
    @pytest.mark.parametrize("family", ["SO_odd", "SP"])
    def test_integrand_antiinvariant(self, family, curve_c):
        """Angle densities are odd under the fiber involution."""
        rng = np.random.default_rng(41)
        layout = coefficient_layout(resolve_type(family, 2), curve_c)
        ham = rng.standard_normal(layout.h) \
            + 1j * rng.standard_normal(layout.h)
        worst = 0.0
        for _ in range(25):
            x = rng.standard_normal() + 1j * rng.standard_normal()
            y = np.sqrt(complex(curve_c.p(x)))
            lam = 1.0 + rng.random() + 1j * rng.random()
            for j in range(layout.h):
                plus = flow_oracle.angle_integrand(
                    layout, ham, j, SpectralPoint(x, y, lam))
                minus = flow_oracle.angle_integrand(
                    layout, ham, j, SpectralPoint(x, y, -lam))
                worst = max(worst,
                            abs(plus + minus) / (1 + abs(plus)))
        assert worst < 1e-12


class TestDiscriminant:
    def test_branch_count_gl2(self, curve_c, gl2, system):
        ham, _, _ = system
        count = discriminant_zero_count(gl2, curve_c, ham)
        assert count == 8
        # Riemann-Hurwitz for the double cover of the base curve: the 8
        # weighted zeros sit at count/4 = 2 x-values, i.e. 4 simple branch
        # points on the curve, so 2 ghat - 2 = 2(2g - 2) + 4
        n, g = 2, curve_c.genus
        ghat = 2 * g - 1 + count // 4
        assert ghat == n * n * (g - 1) + 1


class TestIntegrate:
    # y' = A y with A = -0.5 + 2 J: exp(A t) = exp(-t/2) R(2t)
    A = np.array([[-0.5, 2.0], [-2.0, -0.5]])
    Y0 = np.array([1.0, 0.3j])

    def _error(self, scheme, n):
        ys = integrate(lambda y: self.A @ y, lambda y, d: y + d, self.Y0,
                       1.0 / n, n, scheme)
        c, s = np.cos(2.0), np.sin(2.0)
        exact = np.exp(-0.5) * np.array([[c, s], [-s, c]]) @ self.Y0
        assert len(ys) == n + 1 and ys[0] is self.Y0
        return np.abs(ys[-1] - exact).max()

    @pytest.mark.parametrize("scheme, order", [("euler", 1), ("rk4", 4)])
    def test_convergence_order(self, scheme, order):
        ratio = self._error(scheme, 20) / self._error(scheme, 40)
        assert 0.85 * 2 ** order < ratio < 1.15 * 2 ** order

    def test_after_hook_sees_every_step(self):
        seen = []

        def after(y):
            seen.append(y)
            return y
        ys = integrate(lambda y: -y, lambda y, d: y + d, np.ones(2), 0.1, 5,
                       after=after)
        assert len(seen) == 5 and all(a is b for a, b in zip(seen, ys[1:]))

    def test_non_finite_velocity_rejected(self):
        # the velocity is NaN beyond y = 1, first met by a stage of step 2
        with pytest.raises(StepRejected, match="step 2"):
            integrate(lambda y: np.where(y > 1.0, np.nan, 1.0),
                      lambda y, d: y + d, np.zeros(1), 0.5, 10)

    def test_unknown_scheme(self):
        with pytest.raises(ValueError):
            integrate(lambda y: y, lambda y, d: y + d, np.ones(1), 0.1, 1,
                      "midpoint")

    def exact(self, t):
        c, s = np.cos(2.0 * t), np.sin(2.0 * t)
        return np.exp(-0.5 * t) * np.array([[c, s], [-s, c]]) @ self.Y0

    def _dopri5(self, dt, n):
        """dopri5's rows and the number of velocity evaluations."""
        calls = []

        def rhs(y):
            calls.append(None)
            return self.A @ y
        ys = integrate(rhs, lambda y, d: y + d, self.Y0, dt, n, "dopri5")
        assert len(ys) == n + 1 and ys[0] is self.Y0
        return ys, len(calls)

    @pytest.mark.parametrize("dt, n", [(1e-3, 1000), (0.01, 100),
                                       (0.5, 2), (-0.01, 100)])
    def test_dopri5_rows_on_exact_solution(self, dt, n):
        # every row, the endpoint included, backward too (dt < 0)
        ys, _ = self._dopri5(dt, n)
        assert max(np.abs(y - self.exact(k * dt)).max()
                   for k, y in enumerate(ys)) < 1e-10

    def test_dopri5_stages_independent_of_spacing(self):
        _, fine = self._dopri5(1e-3, 1000)
        _, coarse = self._dopri5(0.5, 2)
        assert fine == coarse < 4 * 1000 / 5      # RK4 takes 4000 here

    def test_dopri5_zero_span(self):
        ys, calls = self._dopri5(0.1, 0)
        assert calls == 0

    def test_dopri5_step_floor(self):
        # y' = y^2 from y = 1 blows up at t = 1
        with pytest.raises(StepRejected, match="below the floor") as info:
            integrate(lambda y: y * y, lambda y, d: y + d, np.ones(1), 0.5,
                      4, "dopri5")
        reached = float(re.search(r"at t=(\S+),", str(info.value))[1])
        assert 1 - 1e-6 < reached < 1
        assert "last error estimate" in str(info.value)

    def test_dopri5_probe_backs_off(self):
        """A starting-step probe whose advance raises BranchCollision is
        retried at a tenth of its step, and the run goes on as before."""
        incrs = []

        def advance(y, d):
            incrs.append(d)
            if len(incrs) == 1:
                raise BranchCollision("probe on the branch locus")
            return y + d
        ys = integrate(lambda y: self.A @ y, advance, self.Y0, 0.01, 100,
                       "dopri5")
        np.testing.assert_allclose(incrs[1], 0.1 * incrs[0], rtol=1e-15)
        assert max(np.abs(y - self.exact(k * 0.01)).max()
                   for k, y in enumerate(ys)) < 1e-10

    def test_dopri5_probe_floor(self):
        """A probe that collides at every size re-raises BranchCollision
        once its step falls below _MIN_STEP of the span."""
        steps = []
        k1 = np.abs(self.A @ self.Y0).max()

        def advance(y, d):
            steps.append(np.abs(d).max() / k1)
            raise BranchCollision("probe on the branch locus")
        with pytest.raises(BranchCollision, match="probe on the branch"):
            integrate(lambda y: self.A @ y, advance, self.Y0, 0.01, 100,
                      "dopri5")
        np.testing.assert_allclose(np.array(steps[1:]) / steps[:-1], 0.1)
        floor = flows._MIN_STEP * 1.0
        assert 0.1 * steps[-1] < floor <= steps[-1]

    def test_dopri5_rows_in_one_batch(self):
        # advance and after see each step's rows as one (m, n) batch
        seen = []

        def after(y):
            seen.append(np.shape(y))
            return y
        ys = integrate(lambda y: -y, lambda y, d: y + d, np.ones(3), 0.01,
                       100, "dopri5", after)
        rows = [shape[0] for shape in seen if len(shape) == 2]
        assert sum(rows) == 100 and len(rows) < 50
        assert np.abs(np.array(ys) - np.exp(-0.01 * np.arange(101))[:, None]
                      ).max() < 1e-10


def root_offset(layout, ham, traj):
    """The largest |stored lambda - nearest fiber root| / (1 + |lambda|)
    over a trajectory's rows."""
    x, y, lam = (np.concatenate([getattr(s, a) for s in traj.states])
                 for a in ("x", "y", "lam"))
    root = spectral._track_roots(layout, ham, x, y, lam)
    return (np.abs(root - lam) / (1 + np.abs(lam))).max()


def planted(family, curve, seed):
    """A planted system of the given family on the curve, with a tame
    flow direction, as in the ``system`` fixture."""
    rng = np.random.default_rng(seed)
    layout = coefficient_layout(resolve_type(family, 2), curve)
    ham = rng.standard_normal(layout.h) + 1j * rng.standard_normal(layout.h)
    cfg = sample_fiber_config(layout, curve, ham, rng)
    c = jacobi_matrix(layout, curve, ham, cfg) \
        @ (0.1 * rng.standard_normal(layout.h))
    return layout, ham, cfg, c


class TestTypedErrors:
    """Each typed error of the flow layer, raised through the array path
    from a constructed input, with the offending point in the message."""

    def test_branch_locus(self, curve_c, gl2):
        # R = (lambda - a)^2 above every x: dR/dlambda = 0 at lambda = a
        a = 1.3 + 0.4j
        ham = np.zeros(gl2.h, dtype=complex)
        ham[0], ham[2] = -2 * a, a * a
        xs = np.array([0.4 + 0.1j, -0.6 + 0.5j, 0.2 - 0.9j])
        pts = SpectralPoint(xs, np.sqrt(curve_c.p(xs)),
                            np.array([a + 0.5, a, a]))
        with pytest.raises(BranchLocus, match=re.escape(f"at x={xs[1]}")):
            _integrand_vector(gl2, ham, pts)

    def test_ill_conditioned(self, curve_c, gl2, system):
        ham, cfg, _ = system
        copies = PhaseConfiguration([cfg.points[0]] * gl2.h)
        with pytest.raises(IllConditioned, match="above 1e12"):
            jacobi_matrix(gl2, curve_c, ham, copies)

    def test_singular_solve(self, curve_c, gl2, system):
        """B2 = 0 puts lambda = 0 on every fiber, where block 1's densities
        vanish: J has zero rows, np.linalg.solve raises LinAlgError, and
        the gate reports an infinite condition number."""
        ham = np.zeros(gl2.h, dtype=complex)
        ham[:2] = 0.7 - 0.2j, 0.4 + 0.5j
        cfg = PhaseConfiguration([SpectralPoint(x, np.sqrt(curve_c.p(x)), 0j)
                                  for x in system[1].x])
        with pytest.raises(np.linalg.LinAlgError):
            np.linalg.solve(_integrand_vector(gl2, ham, cfg).T, np.eye(gl2.h))
        with pytest.raises(IllConditioned, match="condition inf above 1e12"):
            jacobi_matrix(gl2, curve_c, ham, cfg)

    def test_exact_condition_number(self, curve_c, gl2, system):
        """Two points 1e-13 apart: the solve goes through, and the gate
        reads the exact 1-norm condition number ||J||_1 ||J^-1||_1."""
        ham, cfg, _ = system
        pts = cfg.points
        pts[1] = SpectralPoint(pts[0].x + 1e-13, pts[0].y, pts[0].lam)
        jm = _integrand_vector(gl2, ham, PhaseConfiguration(pts)).T
        cond = np.linalg.cond(jm, 1)
        assert 1e12 < cond < np.inf
        with pytest.raises(IllConditioned, match="above 1e12") as info:
            jacobi_matrix(gl2, curve_c, ham, PhaseConfiguration(pts))
        got = float(re.search(r"condition (\S+) above", str(info.value))[1])
        assert got == pytest.approx(cond, rel=1e-2)
        assert np.linalg.cond(jacobi_matrix(gl2, curve_c, ham, cfg), 1) < 1e12

    def test_singular_jacobian(self, curve_c, gl2, system):
        ham, cfg, _ = system
        copies = PhaseConfiguration([cfg.points[0]] * gl2.h)
        with pytest.raises(SingularJacobian):
            implicit_gradients(gl2, curve_c, copies, ham)

    def test_branch_collision(self, curve_c):
        e = curve_c.branch_points[2]
        xs = np.array([0.4 + 0.1j, e, 0.2 - 0.9j])
        ys = np.sqrt(curve_c.p(xs + 1e-2))
        with pytest.raises(BranchCollision, match=re.escape(
                f"point 1 hit the branch locus at x={e}")):
            _continue_sheets(curve_c, xs + 1e-2, ys, xs)

    def test_newton_divergence(self, curve_c, monkeypatch):
        layout, _, cfg, _ = planted("SO_even", curve_c, 5)
        monkeypatch.setattr(separation, "_NEWTON_TOL", 0.0)
        monkeypatch.setattr(separation, "_NEWTON_STARTS", 1)
        with pytest.raises(NewtonDivergence, match=re.escape(
                "no Newton start reached residual 0.00e+00 (1 starts, best ")
                + r"\d\.\d\de[+-]\d\d\)$"):
            solve_hamiltonians(layout, curve_c, cfg)


class TestCallCounts:
    """Exact calls per RK4 step, whatever h: on the fiber route no eval_R
    and one density build a stage; on the Poisson route two eval_R a
    stage; no lambda_roots call on either route, since the fiber route
    tracks its roots."""

    @staticmethod
    def counted(monkeypatch):
        counts = {"eval_R": 0, "_lambda_blocks": 0, "lambda_roots": 0}

        def counter(name):
            real = getattr(spectral, name)

            def wrapped(*args):
                counts[name] += 1
                return real(*args)
            return wrapped

        monkeypatch.setattr(separation, "eval_R", counter("eval_R"))
        # the densities of the Jacobi solve (and of the angle check)
        monkeypatch.setattr(flows, "_lambda_blocks", counter("_lambda_blocks"))
        # the tracker's fallback, the one lambda_roots call of either route
        monkeypatch.setattr(spectral, "lambda_roots", counter("lambda_roots"))
        return counts

    @pytest.mark.parametrize("route", ["fiber", "poisson"])
    def test_calls_per_step(self, curve_c, monkeypatch, route):
        dt = 1e-3
        systems = [planted(family, curve_c, 8) for family in ("GL", "SP")]
        counts = self.counted(monkeypatch)
        per_step = ({"eval_R": 0, "_lambda_blocks": 4} if route == "fiber"
                    else {"eval_R": 8, "_lambda_blocks": 0})
        for layout, ham, cfg, c in systems:         # h = 5 and h = 10
            for n in (2, 5):
                for name in counts:
                    counts[name] = 0
                if route == "fiber":
                    flow_fiber(layout, curve_c, ham, cfg, c, n * dt, dt,
                               "rk4")
                else:
                    flow_poisson(layout, curve_c, cfg, c, n * dt, dt, "rk4")
                assert counts == {"lambda_roots": 0, **{
                    name: k * n for name, k in per_step.items()}}

    @pytest.mark.parametrize("family", ["GL", "SP"])
    def test_no_sheet_ratio_on_short_steps(self, curve_c, gl2, system,
                                           monkeypatch, family):
        """Both routes and the angle check put y on its sheet by the
        certificate of ``curves._sheet_root`` alone: their steps and
        panels are short next to the branch points, so the exact product
        of ``_sheet_ratio`` never runs."""
        if family == "GL":
            layout, (ham, cfg, c) = gl2, system
        else:
            layout, ham, cfg, c = planted(family, curve_c, 8)
        calls = []
        real = curves._sheet_ratio

        def counted(*args):
            calls.append(None)
            return real(*args)
        for mod in (curves, flows):     # flows too, were it bound there
            monkeypatch.setattr(mod, "_sheet_ratio", counted, raising=False)
        for traj in (flow_fiber(layout, curve_c, ham, cfg, c, 0.1, 1e-3),
                     flow_poisson(layout, curve_c, cfg, c, 0.1, 1e-3)):
            assert len(traj.states) == 101
            angle_increments(layout, curve_c, ham, traj)
        assert calls == []

    def test_so_even_poisson_stage(self, curve_c, monkeypatch):
        """On so(2n) each Poisson stage solves H once, and its implicit
        gradients read the Newton's last accepted evaluation: every eval_R
        call is made inside the stage's solve."""
        layout, _, cfg, c = planted("SO_even", curve_c, 8)
        counts = self.counted(monkeypatch)
        per_solve = []
        real = flows.solve_hamiltonians

        def solving(*args, **kwargs):
            before = counts["eval_R"]
            out = real(*args, **kwargs)
            per_solve.append(counts["eval_R"] - before)
            return out
        monkeypatch.setattr(flows, "solve_hamiltonians", solving)
        n = 5
        flow_poisson(layout, curve_c, cfg, c, n * 1e-3, 1e-3, "rk4")
        assert len(per_solve) == 4 * n
        assert counts["eval_R"] == sum(per_solve)
        assert counts["lambda_roots"] == 0

    def test_one_eval_per_newton_trial(self, curve_c, monkeypatch):
        """The so(2n) Newton evaluates R once at each start and trial H; the
        step from an accepted trial reuses that trial's evaluation."""
        layout, _, cfg, _ = planted("SO_even", curve_c, 8)
        hams = []
        real = spectral.eval_R

        def recording(layout, curve, ham, pt):
            hams.append(np.array(ham))
            return real(layout, curve, ham, pt)
        monkeypatch.setattr(separation, "eval_R", recording)
        solve_hamiltonians(layout, curve_c, cfg)
        assert len(hams) > 3
        assert not any(np.array_equal(a, b)
                       for i, a in enumerate(hams) for b in hams[:i])


class TestStackedStates:
    """Flow states are stacked points, not lists of per-point objects:
    one SpectralPoint per RK4 stage."""

    @pytest.mark.parametrize("route", ["fiber", "poisson"])
    def test_constructions_per_step(self, curve_c, monkeypatch, route):
        dt = 1e-3
        systems = [planted(family, curve_c, 8) for family in ("GL", "SP")]
        built = []
        real = SpectralPoint.__init__

        def counting(self, *args):
            built.append(None)
            real(self, *args)
        monkeypatch.setattr(SpectralPoint, "__init__", counting)
        per_system = []                  # h = 5 and h = 10
        for layout, ham, cfg, c in systems:
            per_n = []
            for n in (2, 5):
                built.clear()
                if route == "fiber":
                    flow_fiber(layout, curve_c, ham, cfg, c, n * dt, dt,
                               "rk4")
                else:
                    flow_poisson(layout, curve_c, cfg, c, n * dt, dt, "rk4")
                per_n.append(len(built))
            per_system.append(per_n)
        assert per_system[0] == per_system[1]
        short, long = per_system[0]
        # one point per advanced stage
        assert long - short == 3 * 4
        assert short <= 2 * 5

    @pytest.mark.parametrize("family", ["GL", "SP"])
    def test_angle_shift_matches_state_loop(self, curve_c, family):
        layout, ham, cfg, c = planted(family, curve_c, 8)
        traj = flow_fiber(layout, curve_c, ham, cfg, c, 0.05, 1e-3)
        # the per-state loop that angle_shift replaced
        n, h = len(traj.states), layout.h
        dens = np.empty((n, h, h), dtype=complex)      # (time, j, point)
        for k, s in enumerate(traj.states):
            dens[k] = _integrand_vector(layout, ham, s).T
        xs = np.array([s.x for s in traj.states])
        expect = np.zeros((n, h), dtype=complex)
        for k in range(1, n):
            avg = 0.5 * (dens[k - 1] + dens[k])
            expect[k] = expect[k - 1] + avg @ (xs[k] - xs[k - 1])
        got = flow_oracle.angle_shift(layout, curve_c, ham, traj)
        assert np.abs(got - expect).max() <= 1e-13 * np.abs(expect).max()


class TestFiberOracle:
    """The tracked fiber route against the eigensolve route it replaced."""

    @pytest.mark.parametrize("family", ["GL", "SP", "SO_even"])
    def test_matches_eigensolve_route(self, curve_c, family):
        layout, ham, cfg, c = planted(family, curve_c, 8)
        got = flow_fiber(layout, curve_c, ham, cfg, c, 0.1, 1e-3, "rk4")
        ref = flow_oracle.flow_fiber(layout, curve_c, ham, cfg, c, 0.1, 1e-3)
        assert len(got.states) == len(ref.states) == 101
        for a, b in zip(got.states, ref.states):
            for name in ("x", "y", "lam"):
                assert np.abs(getattr(a, name)
                              - getattr(b, name)).max() < 1e-12
