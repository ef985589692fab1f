"""Flow references for the tests.

``flow_fiber`` is ``flows.flow_fiber`` before certified root tracking:
each stage's lambda is taken from a full ``lambda_roots`` eigensolve, as
the root nearest the previous lambda, and each step is re-projected by
one Newton step on R = 0 before the 1e-3 residual gate.  ``angle_shift``
is the angle check before ``flows.angle_increments``: the trapezoid in t
on the stored states.  ``integrand_vector`` is the angle densities as
they were read off ``eval_R``'s gradient, before they were built from the
lambda-coefficient blocks.  ``angle_integrand`` is one of the densities
that ``flows`` builds from those blocks.  ``angle_increments`` is
``flows.angle_increments`` on the Gauss-Kronrod 10/21 pair, before the
angle check moved to the 3/7 pair, without its sheet gate.
"""

from functools import partial

import numpy as np

from hitchsov.curves import _GK_NODES, _GK_WEIGHTS, _adaptive_gl, \
    _panel_nodes, _sheet_root
from hitchsov.errors import BranchLocus, StepRejected
from hitchsov.flows import (_ANGLE_TOL, Trajectory, _continue_sheets,
                            _integrand_vector, integrate, jacobi_matrix)
from hitchsov.spectral import (SpectralPoint, _track_roots, eval_R,
                               lambda_poly, lambda_roots)

npoly = np.polynomial.polynomial


def flow_fiber(layout, curve, ham, cfg0, c, t_end, dt, scheme="rk4"):
    c = np.asarray(c, dtype=complex)

    def velocity(state):
        return np.linalg.solve(jacobi_matrix(layout, curve, ham, state), c)

    def advance(state, dxs):
        xs = state.x + dxs
        ys = _continue_sheets(curve, state.x, state.y, xs)
        roots = lambda_roots(layout, curve, ham, xs, ys)
        pick = np.argmin(np.abs(roots - state.lam[:, None]), axis=1)
        return SpectralPoint(xs, ys, roots[np.arange(len(xs)), pick])

    def reproject(state):
        ev = eval_R(layout, curve, ham, state)
        ok = np.abs(ev.d_lambda) > 1e-12
        state = SpectralPoint(state.x, state.y, state.lam - np.where(
            ok, ev.value / np.where(ok, ev.d_lambda, 1), 0))
        resid = np.abs(eval_R(layout, curve, ham, state).value).max()
        if not np.isfinite(resid) or resid > 1e-3:
            raise StepRejected(f"fiber residual {resid:.2e}")
        return state

    states = integrate(velocity, advance,
                       SpectralPoint(cfg0.x, cfg0.y, cfg0.lam), dt,
                       int(round(t_end / dt)), scheme, reproject)
    return Trajectory(np.arange(len(states.x)) * dt, states)


def angle_integrand(layout, ham, j, pt: SpectralPoint):
    """dx-density of the j-th angle differential at a spectral point."""
    return _integrand_vector(layout, ham, pt)[..., j]


def angle_shift(layout, curve, ham, trajectory: Trajectory):
    """phi(t_k) - phi(0) along the trajectory's own deformation path, by
    the trapezoid in t on the stored states: its error is the quadrature's
    O(dt^2), not the flow's."""
    n, h = len(trajectory.times), layout.h
    s = trajectory.states
    xs, ys, lams = s.x, s.y, s.lam                         # (n, h) each
    dens = _integrand_vector(layout, ham, SpectralPoint(
        xs.ravel(), ys.ravel(), lams.ravel())).reshape(n, h, h)
    # trapezoid on each step, dens[k, point, j] against that point's dx
    steps = np.einsum("kij,ki->kj", 0.5 * (dens[:-1] + dens[1:]),
                      np.diff(xs, axis=0))
    return np.vstack((np.zeros((1, h), dtype=complex),
                      np.cumsum(steps, axis=0)))


def integrand_vector(layout, curve, ham, pt):
    """The h angle densities -grad_h R / (R_lambda y) at pt, by eval_R."""
    ev = eval_R(layout, curve, ham, pt)
    small = np.abs(ev.d_lambda) < 1e-10
    if np.any(small):
        i = np.argmax(small)
        raise BranchLocus(f"|dR/dlambda| = {abs(np.ravel(ev.d_lambda)[i]):.2e}"
                          f" at x={np.ravel(pt.x)[i]}")
    return -ev.grad_h / np.asarray(ev.d_lambda * pt.y)[..., None]


def density_panels(layout, curve, ham, a, b, start):
    """``flows._density_panels`` on the 10/21 pair: the (n, 2, h) K21 and
    G10 sums of the densities at the 21 nodes, with lambda polished there
    by four Newton steps from start's, and (y, lambda) at each b_i."""
    half, xs = _panel_nodes(a, b, _GK_NODES)
    ys = _sheet_root(curve, a[:, None], start[:, :1], xs)
    end = np.stack((ys[:, -1], _track_roots(layout, ham, xs[:, -1],
                                            ys[:, -1], start[:, 1])), axis=1)
    xs, ys = xs[:, :-1], ys[:, :-1]
    coeffs = np.moveaxis(lambda_poly(layout, ham, xs, ys), -1, 0)
    lams = np.repeat(start[:, 1:], xs.shape[1], axis=1)
    for _ in range(4):
        lams = lams - npoly.polyval(lams, coeffs, tensor=False) \
            / npoly.polyval(lams, npoly.polyder(coeffs), tensor=False)
    dens = _integrand_vector(layout, ham, SpectralPoint(xs, ys, lams))
    return half[:, None] * (_GK_WEIGHTS @ dens), end


def angle_increments(layout, curve, ham, trajectory: Trajectory):
    """phi(t_k) - phi(0) by ``density_panels``, in blocks of 128 segments."""
    s = trajectory.states
    xs, ys, lams = s.x, s.y, s.lam                    # (rows, points) each
    rows = max(1, 128 // xs.shape[1])
    steps = [np.zeros((1, layout.h), dtype=complex)]
    for k in range(0, len(xs) - 1, rows):
        x, y, lam = (a[k:k + rows + 1] for a in (xs, ys, lams))
        start = np.stack((y[:-1].ravel(), lam[:-1].ravel()), axis=1)
        parts, _ = _adaptive_gl(
            partial(density_panels, layout, curve, ham), x[:-1].ravel(),
            x[1:].ravel(), start, _ANGLE_TOL)
        steps.append(parts.reshape(x[1:].shape + (layout.h,)).sum(axis=1))
    return np.cumsum(np.concatenate(steps), axis=0)
