"""Flow references for the tests.

``flow_fiber`` is ``flows.flow_fiber`` before certified root tracking:
each stage's lambda is taken from a full ``lambda_roots`` eigensolve, as
the root nearest the previous lambda, and each step is re-projected by
one Newton step on R = 0 before the 1e-3 residual gate.  ``angle_shift``
is the angle check before ``flows.angle_increments``: the trapezoid in t
on the stored states.  ``integrand_vector`` is the angle densities as
they were read off ``eval_R``'s gradient, before they were built from the
lambda-coefficient blocks.  ``angle_integrand`` is one of the densities
that ``flows`` builds from those blocks.
"""

import numpy as np

from hitchsov.errors import BranchLocus, StepRejected
from hitchsov.flows import (Trajectory, _continue_sheets, _integrand_vector,
                            integrate, jacobi_matrix)
from hitchsov.spectral import SpectralPoint, eval_R, lambda_roots


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

    states = integrate(velocity, advance, cfg0, dt, int(round(t_end / dt)),
                       scheme, reproject)
    return Trajectory(np.arange(len(states)) * dt, states)


def angle_integrand(layout, ham, j, pt: SpectralPoint):
    """dx-density of the j-th angle differential at a spectral point."""
    return _integrand_vector(layout, ham, pt)[..., j]


def angle_shift(layout, curve, ham, trajectory: Trajectory):
    """phi(t_k) - phi(0) along the trajectory's own deformation path, by
    the trapezoid in t on the stored states: its error is the quadrature's
    O(dt^2), not the flow's."""
    n, h = len(trajectory.states), layout.h
    xs, ys, lams = (np.array([getattr(s, a) for s in trajectory.states])
                    for a in ("x", "y", "lam"))            # (n, h) each
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
