"""Angle coordinates and trajectory integration by two routes.

Route 1 integrates x_dot = J^{-1} c where J is the matrix of angle
densities, with the coefficients H frozen and each lambda kept on its
fiber: every stage tracks it from the step's lambda by certified Newton
(``spectral._track_roots``), with an eigensolve only where the certificate
fails; route 2 integrates the canonical equations of the Hamiltonian
c . H through the implicit gradients, re-solving H at every stage from
the previous stage's H, so that on so(2n), whose quadratic system has
several solutions, the route keeps its branch.  Both carry the h
separating points as one stacked SpectralPoint.

The two routes integrate the same vector field (J^{-1} c equals
y c dH/dlambda) with the same RK4 stages, so their distance certifies
the algebra (Jacobi matrix, separation solve, implicit gradients), not
the time integration: a step-size error common to both stays unseen.
"""

from dataclasses import dataclass

import numpy as np
from scipy.optimize import linear_sum_assignment

from .curves import (_GL_WEIGHTS, _adaptive_gl, _panel_nodes, _sheet_ratio,
                     route_path)
from .errors import (BranchLocus, IllConditioned, StepRejected,
                     BranchCollision)
from .spectral import SpectralPoint, _track_roots, eval_R, lambda_roots
from .separation import implicit_gradients, solve_hamiltonians


def angle_integrand(layout, curve, ham, j, pt: SpectralPoint):
    """dx-density of the j-th angle differential at a spectral point."""
    return _integrand_vector(layout, curve, ham, pt)[..., j]


def _integrand_vector(layout, curve, ham, pt):
    """The h angle densities at pt: shape (h,), or (n, h) for n points."""
    ev = eval_R(layout, curve, ham, pt)
    small = np.abs(ev.d_lambda) < 1e-10
    if np.any(small):
        i = np.argmax(small)
        raise BranchLocus(f"|dR/dlambda| = {abs(np.ravel(ev.d_lambda)[i]):.2e}"
                          f" at x={np.ravel(pt.x)[i]}")
    return -ev.grad_h / np.asarray(ev.d_lambda * pt.y)[..., None]


def jacobi_matrix(layout, curve, ham, cfg):
    """J[j, k] = angle density j evaluated at the k-th separating point."""
    jm = _integrand_vector(layout, curve, ham, cfg).T
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
        if not np.isfinite(k).all():
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


def _continue_sheets(curve, xs_prev, ys_prev, xs):
    """+-sqrt(P(xs)), each on the sheet that y continued along the straight
    step from (xs_prev, ys_prev) reaches: the one nearer to ys_prev times
    the exact step ratio, i.e. at an angle of at most pi/2 from it."""
    near = curve.nearest_branch_distance(xs) < curve.exclusion_radius
    if near.any():
        i = np.argmax(near)
        raise BranchCollision(
            f"separating point {i} hit the branch locus at x={xs[i]}")
    s = np.sqrt(curve.p(xs))
    pred = ys_prev * _sheet_ratio(curve, xs_prev, xs)
    return np.where((s * pred.conj()).real >= 0, s, -s)


@dataclass
class Trajectory:
    times: np.ndarray
    states: list              # one stacked SpectralPoint per time


def flow_fiber(layout, curve, ham, cfg0, c, t_end, dt, scheme="rk4"):
    """Route 1: integrate x_dot = J^{-1} c with the coefficients frozen."""
    c = np.asarray(c, dtype=complex)

    def velocity(state):
        return np.linalg.solve(jacobi_matrix(layout, curve, ham, state), c)

    def advance(state, dxs):
        # move every point by dx, carrying sheet and fiber root along
        xs = state.x + dxs
        ys = _continue_sheets(curve, state.x, state.y, xs)
        # each point's fiber root nearest its previous lambda
        return SpectralPoint(xs, ys, _track_roots(layout, ham, xs, ys,
                                                  state.lam))

    def reproject(state, step):
        # the tracked lambdas are converged roots: only gate the residual
        resid = np.abs(eval_R(layout, curve, ham, state).value).max()
        if not np.isfinite(resid) or resid > 1e-3:
            raise StepRejected(
                f"fiber residual {resid:.2e} after step {step}",
                suggested_dt=dt / 2)
        return state

    states = integrate(velocity, advance, cfg0, dt, int(round(t_end / dt)),
                       scheme, reproject)
    return Trajectory(np.arange(len(states)) * dt, states)


def flow_poisson(layout, curve, cfg0, c, t_end, dt, scheme="rk4"):
    """Route 2: canonical flow of c . H through the implicit gradients."""
    c = np.asarray(c, dtype=complex)
    ham = None

    def velocity(state):
        nonlocal ham  # each stage's Newton starts from the last stage's H
        ham = solve_hamiltonians(layout, curve, state, start=ham)
        dh_dlam, dh_dx = implicit_gradients(layout, curve, state, ham)
        return np.concatenate((state.y * (c @ dh_dlam),
                               -state.y * (c @ dh_dx)))

    def advance(state, incr):
        n = len(state.x)
        xs = state.x + incr[:n]
        return SpectralPoint(xs, _continue_sheets(curve, state.x, state.y, xs),
                             state.lam + incr[n:])

    states = integrate(velocity, advance, cfg0, dt, int(round(t_end / dt)),
                       scheme)
    return Trajectory(np.arange(len(states)) * dt, states)


def match_states(cfg_a, cfg_b):
    """Optimal pairing distance between two unordered point sets."""
    pa = np.column_stack((cfg_a.x, cfg_a.y, cfg_a.lam))
    pb = np.column_stack((cfg_b.x, cfg_b.y, cfg_b.lam))
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
    n, h = len(trajectory.states), layout.h
    xs, ys, lams = (np.array([getattr(s, a) for s in trajectory.states])
                    for a in ("x", "y", "lam"))            # (n, h) each
    dens = _integrand_vector(layout, curve, ham, SpectralPoint(
        xs.ravel(), ys.ravel(), lams.ravel())).reshape(n, h, h)
    # trapezoid on each step, dens[k, point, j] against that point's dx
    steps = np.einsum("kij,ki->kj", 0.5 * (dens[:-1] + dens[1:]),
                      np.diff(xs, axis=0))
    return np.vstack((np.zeros((1, h), dtype=complex),
                      np.cumsum(steps, axis=0)))


def _integrate_density(layout, curve, ham, x0, y0, lam0, x1, tol=1e-10):
    """Integrate all angle densities along the routed x-path x0 -> x1.

    y is continued by the exact segment ratios and lambda by nearest fiber
    root, node after node, on ``_adaptive_gl`` panels: one call per
    waypoint segment, since lambda at a segment's end starts the next.
    """
    def panels(a, b, start):
        half, xs = _panel_nodes(a, b)
        ys = start[:, :1] * _sheet_ratio(curve, a[:, None], xs)
        roots = lambda_roots(layout, curve, ham, xs.ravel(), ys.ravel())
        roots = roots.reshape(xs.shape + (-1,))
        lams = np.empty_like(xs)
        lam, rows = start[:, 1], np.arange(len(xs))
        for i in range(xs.shape[1]):  # nearest root, all panels at once
            near = np.argmin(np.abs(roots[:, i] - lam[:, None]), axis=1)
            lam = lams[:, i] = roots[rows, i, near]
        dens = _integrand_vector(layout, curve, ham, SpectralPoint(
            *(v[:, :-1].ravel() for v in (xs, ys, lams))))
        vals = _GL_WEIGHTS @ dens.reshape(len(xs), -1, layout.h)
        return vals * half, np.stack((ys[:, -1], lams[:, -1]), axis=1)

    total = np.zeros(layout.h, dtype=complex)
    start = np.array([y0, lam0], dtype=complex)
    way = route_path(curve, x0, x1)
    for a, b in zip(way[:-1], way[1:]):
        part, end = _adaptive_gl(panels, [a], [b], start[None, :], tol)
        total += part[0]
        start = end[0]
    return (total, *start)


def angle_coordinates(layout, curve, ham, cfg, base: SpectralPoint,
                      tol=1e-10):
    """phi_j = sum_i integral from base to gamma_i of the j-th density."""
    phi = np.zeros(layout.h, dtype=complex)
    for x, y, lam in zip(cfg.x, cfg.y, cfg.lam):
        part, y_end, lam_end = _integrate_density(
            layout, curve, ham, base.x, base.y, base.lam, x, tol)
        if abs(y_end - y) > abs(y_end + y) or \
                abs(lam_end - lam) > 1e-6 * (1 + abs(lam)):
            # arrival datum on a different sheet of the cover than the
            # target: the caller's configuration fixes the homotopy class
            raise BranchLocus(
                "path arrived on a different sheet of the spectral cover; "
                "choose a base on the same sheet or refine the routing")
        phi += part
    return phi


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
