"""Angle coordinates and trajectory integration by two independent routes.

Route 1 integrates x_dot = J^{-1} c where J is the matrix of angle
densities (the quadrature scheme); route 2 integrates the canonical
equations of the Hamiltonian c . H directly through the implicit
gradients.  Agreement of the two is the module's central consistency
check.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .curves import _sheet_step
from .errors import (BranchLocus, IllConditioned, StepRejected,
                     BranchCollision)
from .spectral import SpectralPoint, eval_R, lambda_roots
from .separation import PhaseConfiguration, implicit_gradients, \
    solve_hamiltonians


def angle_integrand(layout, curve, ham, j, pt: SpectralPoint):
    """dx-density of the j-th angle differential at a spectral point."""
    return _integrand_vector(layout, curve, ham, pt)[j]


def _integrand_vector(layout, curve, ham, pt):
    ev = eval_R(layout, curve, ham, pt)
    if abs(ev.d_lambda) < 1e-10:
        raise BranchLocus(
            f"|dR/dlambda| = {abs(ev.d_lambda):.2e} at x={pt.x}")
    return -ev.grad_h / (ev.d_lambda * pt.y)


def jacobi_matrix(layout, curve, ham, cfg):
    """J[j, k] = angle density j evaluated at the k-th separating point."""
    h = layout.h
    jm = np.empty((h, h), dtype=complex)
    for k, p in enumerate(cfg.points):
        jm[:, k] = _integrand_vector(layout, curve, ham, p)
    if np.linalg.cond(jm) > 1e12:
        raise IllConditioned("Jacobi matrix condition estimate above 1e12")
    return jm


def integrate(rhs, advance, state, dt, nsteps, scheme="rk4", after=None):
    """Explicit Euler or classical RK4; returns the nsteps + 1 states.

    rhs(state) is the velocity vector and advance(state, incr) the state
    moved by incr; after(state, step), when given, turns each step's
    result into the accepted state (a re-projection or a chart switch).
    A stage velocity that is not finite raises StepRejected; numpy's
    overflow and invalid-value warnings are silenced while stepping, since
    that check is what reports a blow-up.
    """
    if scheme not in ("euler", "rk4"):
        raise ValueError(f"unknown scheme {scheme!r}")

    def velocity(s, step):
        k = rhs(s)
        if not np.all(np.isfinite(k)):
            raise StepRejected(f"non-finite velocity in step {step}",
                               suggested_dt=dt / 2)
        return k

    states = [state]
    with np.errstate(over="ignore", invalid="ignore"):
        for step in range(nsteps):
            k1 = velocity(state, step)
            if scheme == "euler":
                state = advance(state, dt * k1)
            else:
                k2 = velocity(advance(state, 0.5 * dt * k1), step)
                k3 = velocity(advance(state, 0.5 * dt * k2), step)
                k4 = velocity(advance(state, dt * k3), step)
                state = advance(state, dt / 6.0 * (k1 + 2 * k2 + 2 * k3 + k4))
            if after is not None:
                state = after(state, step)
            states.append(state)
    return states


def _continue_sheets(curve, xs, ys_prev):
    """y above each x on the sheet nearest the previous y."""
    ys = np.empty_like(ys_prev)
    for i, x in enumerate(xs):
        if curve.nearest_branch_distance(x) < curve.exclusion_radius:
            raise BranchCollision(
                f"separating point {i} hit the branch locus at x={x}")
        ys[i] = _sheet_step(curve, x, ys_prev[i])
    return ys


def _refit_lambda(layout, curve, ham, x, y, lam_prev):
    """Fiber root at (x, y) nearest the predictor lam_prev."""
    roots = lambda_roots(layout, curve, ham, x, y)
    return roots[np.argmin(np.abs(roots - lam_prev))]


@dataclass
class Trajectory:
    times: np.ndarray
    states: list              # list of PhaseConfiguration
    scheme: str
    direction: np.ndarray

    def state_arrays(self, k):
        cfg = self.states[k]
        return cfg.xs(), cfg.ys(), cfg.lambdas()


def _cfg_from_arrays(xs, ys, lams):
    return PhaseConfiguration(
        [SpectralPoint(x, y, l) for x, y, l in zip(xs, ys, lams)])


def _trajectory(states, dt, scheme, c):
    return Trajectory(times=np.arange(len(states)) * dt,
                      states=[_cfg_from_arrays(*s) for s in states],
                      scheme=scheme, direction=c)


def flow_fiber(layout, curve, ham, cfg0, c, t_end, dt, scheme="rk4"):
    """Route 1: integrate x_dot = J^{-1} c with the coefficients frozen."""
    c = np.asarray(c, dtype=complex)

    def velocity(state):
        jm = jacobi_matrix(layout, curve, ham, _cfg_from_arrays(*state))
        return np.linalg.solve(jm, c)

    def advance(state, dxs):
        # move every point by dx, carrying sheet and fiber root along
        xs, ys, lams = state
        new_xs = xs + dxs
        new_ys = _continue_sheets(curve, new_xs, ys)
        new_lams = np.array([
            _refit_lambda(layout, curve, ham, x, y, lam)
            for x, y, lam in zip(new_xs, new_ys, lams)])
        return new_xs, new_ys, new_lams

    def reproject(state, step):
        # on-fiber re-projection: one Newton step on R = 0 in lambda
        xs, ys, lams = state
        for i in range(len(xs)):
            pt = SpectralPoint(xs[i], ys[i], lams[i])
            ev = eval_R(layout, curve, ham, pt)
            if abs(ev.d_lambda) > 1e-12:
                lams[i] = lams[i] - ev.value / ev.d_lambda
        resid = max(abs(eval_R(layout, curve, ham,
                               SpectralPoint(x, y, l)).value)
                    for x, y, l in zip(xs, ys, lams))
        if not np.isfinite(resid) or resid > 1e-3:
            raise StepRejected(
                f"fiber residual {resid:.2e} after step {step}",
                suggested_dt=dt / 2)
        return state

    states = integrate(velocity, advance,
                       (cfg0.xs(), cfg0.ys(), cfg0.lambdas()),
                       dt, int(round(t_end / dt)), scheme, reproject)
    return _trajectory(states, dt, scheme, c)


def flow_poisson(layout, curve, cfg0, c, t_end, dt, scheme="rk4"):
    """Route 2: canonical flow of c . H through the implicit gradients."""
    c = np.asarray(c, dtype=complex)

    def velocity(state):
        cfg = _cfg_from_arrays(*state)
        ham = solve_hamiltonians(layout, curve, cfg)
        dh_dlam, dh_dx = implicit_gradients(layout, curve, cfg, ham)
        ys = state[1]
        return np.concatenate((ys * (c @ dh_dlam), -ys * (c @ dh_dx)))

    def advance(state, incr):
        xs, ys, lams = state
        n = len(xs)
        new_xs = xs + incr[:n]
        return new_xs, _continue_sheets(curve, new_xs, ys), lams + incr[n:]

    states = integrate(velocity, advance,
                       (cfg0.xs(), cfg0.ys(), cfg0.lambdas()),
                       dt, int(round(t_end / dt)), scheme)
    return _trajectory(states, dt, scheme, c)


def match_states(cfg_a, cfg_b):
    """Optimal pairing distance between two unordered point sets."""
    pa = np.array([[p.x, p.y, p.lam] for p in cfg_a.points])
    pb = np.array([[p.x, p.y, p.lam] for p in cfg_b.points])
    cost = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max(), cols


def angle_shift(layout, curve, ham, trajectory: Trajectory):
    """phi(t_k) - phi(0) along the trajectory's own deformation path.

    The endpoint paths are the trajectories of the separating points
    themselves, so the homotopy class is consistent by construction.
    The quadrature is trapezoid in t on the stored states, which are the
    natural sample points of the deformation.
    """
    n = len(trajectory.states)
    h = layout.h
    dens = np.empty((n, h, h), dtype=complex)  # (time, j, point)
    for k, cfg in enumerate(trajectory.states):
        for i, p in enumerate(cfg.points):
            dens[k, :, i] = _integrand_vector(layout, curve, ham, p)
    xs = np.array([cfg.xs() for cfg in trajectory.states])  # (n, h)
    shifts = np.zeros((n, h), dtype=complex)
    for k in range(1, n):
        dx = xs[k] - xs[k - 1]
        avg = 0.5 * (dens[k - 1] + dens[k])
        shifts[k] = shifts[k - 1] + avg @ dx
    return shifts


def _integrate_density(layout, curve, ham, x0, y0, lam0, x1, tol=1e-10):
    """Integrate all angle densities along the routed x-path x0 -> x1.

    y is continued by nearest-sheet steps and lambda by nearest fiber
    root; Gauss-Legendre panels are halved until two refinements agree.
    """
    from .curves import route_path
    way = route_path(curve, x0, x1)
    nodes, weights = np.polynomial.legendre.leggauss(10)
    total = np.zeros(layout.h, dtype=complex)
    y, lam = y0, lam0

    def panel(a, b, y_in, lam_in):
        mid = 0.5 * (a + b)
        half = 0.5 * (b - a)
        acc = np.zeros(layout.h, dtype=complex)
        y_c, lam_c = y_in, lam_in
        for t, wgt in zip(nodes, weights):
            x = mid + half * t
            y_c = _sheet_step(curve, x, y_c)
            lam_c = _refit_lambda(layout, curve, ham, x, y_c, lam_c)
            acc += wgt * _integrand_vector(
                layout, curve, ham, SpectralPoint(x, y_c, lam_c))
        y_end = _sheet_step(curve, b, y_c)
        lam_end = _refit_lambda(layout, curve, ham, b, y_end, lam_c)
        return acc * half, y_end, lam_end

    for a, b in zip(way[:-1], way[1:]):
        stack = [(a, b, y, lam)]
        while stack:
            sa, sb, sy, slam = stack.pop()
            coarse, _, _ = panel(sa, sb, sy, slam)
            smid = 0.5 * (sa + sb)
            left, ym, lm = panel(sa, smid, sy, slam)
            right, ye, le = panel(smid, sb, ym, lm)
            if np.abs(coarse - (left + right)).max() < tol:
                total += left + right
                y, lam = ye, le
            else:
                stack.append((smid, sb, ym, lm))
                stack.append((sa, smid, sy, slam))
    return total, y, lam


def angle_coordinates(layout, curve, ham, cfg, base: SpectralPoint,
                      tol=1e-10):
    """phi_j = sum_i integral from base to gamma_i of the j-th density."""
    phi = np.zeros(layout.h, dtype=complex)
    for p in cfg.points:
        part, y_end, lam_end = _integrate_density(
            layout, curve, ham, base.x, base.y, base.lam, p.x, tol)
        if abs(y_end - p.y) > abs(y_end + p.y) or \
                abs(lam_end - p.lam) > 1e-6 * (1 + abs(p.lam)):
            # arrival datum on a different sheet of the cover than the
            # target: the caller's configuration fixes the homotopy class
            raise BranchLocus(
                "path arrived on a different sheet of the spectral cover; "
                "choose a base on the same sheet or refine the routing")
        phi += part
    return phi


def newton_sums(cfg, k_max):
    """Power sums sigma_k = sum_i x_i^k of the separating x-coordinates."""
    xs = cfg.xs()
    return np.array([np.sum(xs ** k) for k in range(1, k_max + 1)])


def hamiltonian_drift(layout, curve, trajectory):
    """Relative drift of the re-solved coefficients along a trajectory."""
    ham0 = solve_hamiltonians(layout, curve, trajectory.states[0])
    scale = np.abs(ham0).max()
    worst = 0.0
    for cfg in trajectory.states[1:]:
        ham = solve_hamiltonians(layout, curve, cfg)
        worst = max(worst, np.abs(ham - ham0).max() / scale)
    return worst


def discriminant_zero_count(layout, curve, ham):
    """Zeros (with multiplicity) on the curve of the d=2 fiber discriminant.

    For a rank-2 layout with polynomial blocks, R = lambda^2 + B1 lambda
    + B2 and the branch locus of the lambda-cover is B1^2 - 4 B2 = 0.
    Zeros are counted on the spectral cover: each x-root lifts to the two
    sheets of the base curve, and each such point is a ramification point
    of the cover where the pulled-back discriminant vanishes doubly.
    """
    spec = layout.spec
    if spec.d != 2:
        raise ValueError("discriminant count implemented for d = 2")
    if any(s > 0 for s in layout.y_sizes):
        raise ValueError("y-blocks not supported in the discriminant count")
    ham = np.asarray(ham, dtype=complex)
    b1 = np.zeros(layout.x_sizes[0], dtype=complex)
    b1[:] = ham[layout.x_slice(0)]
    b2 = ham[layout.x_slice(1)]
    disc = np.polynomial.polynomial.polysub(
        np.polynomial.polynomial.polymul(b1, b1), 4.0 * b2)
    disc = np.trim_zeros(disc, 'b')
    roots = np.polynomial.polynomial.polyroots(disc)
    # two sheets of the base per x-root, times the double vanishing of the
    # pull-back at each ramification point of the lambda-cover
    return 4 * len(roots)
