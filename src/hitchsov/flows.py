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
y c dH/dlambda).  Under the default ``dopri5`` each route chooses its own
steps, so their distance measures the time integration as well as the
algebra (Jacobi matrix, separation solve, implicit gradients); under the
fixed-step schemes both take the same stages and it certifies the algebra
alone.  ``angle_increments`` checks a route against the exact flow: its
angle coordinates must move as phi(0) + c t.
"""

import math
from dataclasses import dataclass
from functools import partial

import numpy as np
from scipy.linalg import lapack
from scipy.optimize import linear_sum_assignment

from .curves import (_GL_WEIGHTS, _adaptive_gl, _panel_nodes, _sheet_ratio,
                     route_path)
from .errors import (BranchLocus, IllConditioned, StepRejected,
                     BranchCollision)
from .spectral import SpectralPoint, _track_roots, eval_R, lambda_poly
from .separation import implicit_gradients, solve_hamiltonians

# zgesv is zgetrf then zgetrs in one call; its solution matches
# np.linalg.solve bit for bit, separate getrf and getrs calls do not
_gesv, _gecon = lapack.get_lapack_funcs(("gesv", "gecon"), dtype=complex)

# Dormand-Prince 5(4) (Hairer, Norsett and Wanner, Solving ODEs I, II.5):
# the stage rows, the last of which holds the 5th-order weights (first
# same as last), the error weights b - b_hat, and the weights of the
# 4th-order continuous extension (II.6)
_DP_A = [np.array(row) for row in (
    [1 / 5],
    [3 / 40, 9 / 40],
    [44 / 45, -56 / 15, 32 / 9],
    [19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729],
    [9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656],
    [35 / 384, 0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84])]
_DP_E = np.array([71 / 57600, 0, -71 / 16695, 71 / 1920, -17253 / 339200,
                  22 / 525, -1 / 40])
_DP_D = np.array([-12715105075 / 11282082432, 0, 87487479700 / 32700410799,
                  -10690763975 / 1880347072, 701980252875 / 199316789632,
                  -1453857185 / 822651844, 69997945 / 29380423])
# Error tolerances of dopri5.  At rtol 1e-11, atol 1e-13 the flow rows
# land within about 1e-10 of RK4 at dt = 1e-4; at rtol 1e-9 the error
# reaches 1.6e-8.
_RTOL, _ATOL = 1e-11, 1e-13
# step-size factors of the controller: safety, and the bounds per step
_SAFETY, _FAC_MIN, _FAC_MAX = 0.9, 0.2, 5.0
# a step below this share of the run's span stalls the integration
_MIN_STEP = 1e-12
# angle_increments: the absolute tolerance of each segment's integral, and
# the segments per _adaptive_gl call.  That bounds the call's memory and
# keeps its matrix-vector products (1280 nodes by the coefficient blocks)
# small enough that OpenBLAS runs them on one thread: threaded, they took
# twice as long on a 2-core host with the other core busy.
_ANGLE_TOL = 1e-13
_ANGLE_SEGMENTS = 128


def angle_integrand(layout, curve, ham, j, pt: SpectralPoint):
    """dx-density of the j-th angle differential at a spectral point."""
    return _integrand_vector(layout, curve, ham, pt)[..., j]


def _integrand_vector(layout, curve, ham, pt):
    """The h angle densities at pt: shape (h,), or S + (h,) for points of
    shape S."""
    ev = eval_R(layout, curve, ham, pt)
    small = np.abs(ev.d_lambda) < 1e-10
    if np.any(small):
        i = np.argmax(small)
        raise BranchLocus(f"|dR/dlambda| = {abs(np.ravel(ev.d_lambda)[i]):.2e}"
                          f" at x={np.ravel(pt.x)[i]}")
    return -ev.grad_h / np.asarray(ev.d_lambda * pt.y)[..., None]


def _jacobi_solve(layout, curve, ham, cfg, rhs):
    """J (as in ``jacobi_matrix``) and the solution v of J v = rhs, from
    one LU factorization (zgesv), on which LAPACK estimates the 1-norm
    condition number (zgecon).  Raises IllConditioned when that estimate
    passes 1e12."""
    jm = _integrand_vector(layout, curve, ham, cfg).T
    lu, _, v, _ = _gesv(jm, rhs)
    rcond, _ = _gecon(lu, np.abs(jm).sum(axis=0).max())
    if not rcond > 1e-12:
        raise IllConditioned("Jacobi matrix condition estimate above 1e12")
    return jm, v


def jacobi_matrix(layout, curve, ham, cfg):
    """J[j, k] = angle density j evaluated at the k-th separating point.

    Raises IllConditioned when LAPACK's 1-norm condition estimate of J
    passes 1e12.
    """
    return _jacobi_solve(layout, curve, ham, cfg, np.zeros(layout.h))[0]


def integrate(rhs, advance, state, dt, nsteps, scheme="rk4", after=None,
              size=np.abs):
    """The nsteps + 1 states at t = k dt, k = 0..nsteps, by explicit Euler,
    classical RK4 or Dormand-Prince 5(4).

    rhs(state) is the velocity vector and advance(state, incr) the state
    moved by incr; after(state, step), when given, turns each step's
    result into the accepted state (a re-projection or a chart switch).
    euler and rk4 take fixed steps of dt, and a stage velocity that is not
    finite raises StepRejected.  dopri5 chooses its own steps and reads
    the states at t = k dt from its continuous extension (``_dopri5``), so
    dt is only their spacing; size(state) gives the magnitudes of the
    integrated coordinates that scale its relative tolerance.  numpy's
    overflow and invalid-value warnings are silenced while stepping, since
    those checks are what report a blow-up.
    """
    if scheme not in ("euler", "rk4", "dopri5"):
        raise ValueError(f"unknown scheme {scheme!r}")

    def velocity(s, step):
        k = rhs(s)
        if not np.isfinite(k).all():
            raise StepRejected(f"non-finite velocity in step {step}",
                               suggested_dt=dt / 2)
        return k

    with np.errstate(over="ignore", invalid="ignore"):
        if scheme == "dopri5":
            return _dopri5(rhs, advance, state, dt, nsteps, after, size)
        states = [state]
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


def _rms(v, scale):
    return np.sqrt(np.mean(np.abs(v / scale) ** 2))


def _dopri5(rhs, advance, state, dt, nsteps, after, size):
    """Dormand-Prince 5(4) under the step-size controller of Hairer,
    Norsett and Wanner (Solving ODEs I, II.4), from their starting step.

    A step passes when the RMS of its error estimate, each component over
    _ATOL + _RTOL max(size(start), size(end)), is at most 1; a stage
    velocity that is not finite fails it too.  The states at t = k dt that
    a step passes come from its continuous extension (II.6) through one
    advance(start, incrs) call, incrs of shape (m,) + incr.shape, then one
    after(rows, step) call, so both take a batch of m rows and return one
    object whose [i] is row i; after also sees each step's end state.
    Raises StepRejected, with the time reached and the last error
    estimate, when a step would fall below _MIN_STEP of the span, and at
    t=0 when the velocity is not finite or too large to scale.
    """
    states = [state]
    span = nsteps * dt
    if nsteps == 0:
        return states
    k1 = rhs(state)
    if not np.isfinite(k1).all():
        raise StepRejected("non-finite velocity at t=0", suggested_dt=dt / 2)
    # the starting step: an Euler probe of how fast the velocity changes
    scale = _ATOL + _RTOL * size(state)
    d0, d1 = _rms(size(state), scale), _rms(k1, scale)
    if not (math.isfinite(d0) and math.isfinite(d1)):
        raise StepRejected(f"velocity of size {np.abs(k1).max():.2e} overflows "
                           f"the starting-step estimate at t=0",
                           suggested_dt=dt / 2)
    h0 = 1e-6 if min(d0, d1) < 1e-5 else 0.01 * d0 / d1
    d2 = _rms(rhs(advance(state, math.copysign(h0, dt) * k1)) - k1,
              scale) / h0
    h = min(100 * h0, (0.01 / max(d1, d2)) ** 0.2 if max(d1, d2) > 1e-15
            else max(1e-6, 1e-3 * h0))
    t, err, step, fac_max = 0.0, 0.0, 0, _FAC_MAX
    while len(states) <= nsteps:
        last = abs(h) >= abs(span - t)
        h = span - t if last else math.copysign(h, dt)
        if abs(h) < _MIN_STEP * abs(span):
            raise StepRejected(
                f"step size {abs(h):.2e} below the floor "
                f"{_MIN_STEP * abs(span):.2e} at t={t:.10g}, last error "
                f"estimate {err:.2e}")
        ks = [k1]
        for row in _DP_A:
            incr = h * (row @ np.array(ks))
            end = advance(state, incr)
            ks.append(rhs(end))
            if not np.isfinite(ks[-1]).all():
                break
        ks = np.array(ks)
        err = np.inf if len(ks) < 7 else _rms(
            h * (_DP_E @ ks), _ATOL + _RTOL * np.maximum(size(state),
                                                         size(end)))
        if not err <= 1:
            h *= max(_FAC_MIN, _SAFETY * err ** -0.2)
            fac_max = 1.0       # no growth right after a rejection
            continue
        theta = (np.arange(len(states), nsteps + 1) * dt - t) / h
        if not last:
            theta = theta[:np.searchsorted(theta, 1.0, side="right")]
        if len(theta):
            th, th1 = theta[:, None], 1 - theta[:, None]
            bspl = h * ks[0] - incr
            rest = incr - h * ks[6] - bspl
            rows = advance(state, th * (incr + th1 * (
                bspl + th * (rest + th1 * h * (_DP_D @ ks)))))
            if after is not None:
                rows = after(rows, step)
            states += [rows[i] for i in range(len(theta))]
        state = end if after is None else after(end, step)
        k1 = ks[6] if state is end else rhs(state)
        t = span if last else t + h
        h *= min(fac_max, max(_FAC_MIN, _SAFETY * err ** -0.2)) if err > 0 \
            else fac_max
        fac_max, step = _FAC_MAX, step + 1
    return states


def _continue_sheets(curve, xs_prev, ys_prev, xs):
    """+-sqrt(P(xs)), each on the sheet that y continued along the straight
    step from (xs_prev, ys_prev) reaches: the one nearer to ys_prev times
    the exact step ratio, i.e. at an angle of at most pi/2 from it.  xs of
    shape (m, n) continues xs_prev, of shape (n,), to m rows at once."""
    near = curve.nearest_branch_distance(xs) < curve.exclusion_radius
    if near.any():
        i = np.argmax(near)
        raise BranchCollision(
            f"separating point {i % xs.shape[-1]} hit the branch locus at "
            f"x={xs.flat[i]}")
    s = np.sqrt(curve.p(xs))
    pred = ys_prev * _sheet_ratio(curve, xs_prev, xs)
    return np.where((s * pred.conj()).real >= 0, s, -s)


@dataclass
class Trajectory:
    times: np.ndarray
    states: list              # one stacked SpectralPoint per time


def flow_fiber(layout, curve, ham, cfg0, c, t_end, dt, scheme="dopri5"):
    """Route 1: integrate x_dot = J^{-1} c with the coefficients frozen."""
    c = np.asarray(c, dtype=complex)

    def velocity(state):
        return _jacobi_solve(layout, curve, ham, state, c)[1]

    def advance(state, dxs):
        # move every point by dx, carrying sheet and fiber root along; dxs
        # of shape (m, n) moves the step's start to each of m rows
        xs = state.x + dxs
        ys = _continue_sheets(curve, state.x, state.y, xs)
        # each point's fiber root nearest its previous lambda
        lams = _track_roots(layout, ham, xs.ravel(), ys.ravel(),
                            np.broadcast_to(state.lam, xs.shape).ravel())
        return SpectralPoint(xs, ys, lams.reshape(xs.shape))

    def reproject(state, step):
        # the tracked lambdas are converged roots: only gate the residual
        resid = np.abs(eval_R(layout, curve, ham, state).value).max()
        if not np.isfinite(resid) or resid > 1e-3:
            raise StepRejected(
                f"fiber residual {resid:.2e} after step {step}",
                suggested_dt=dt / 2)
        return state

    states = integrate(velocity, advance, cfg0, dt, int(round(t_end / dt)),
                       scheme, reproject, lambda s: np.abs(s.x))
    return Trajectory(np.arange(len(states)) * dt, states)


def flow_poisson(layout, curve, cfg0, c, t_end, dt, scheme="dopri5"):
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
        # x and lambda move by incr, y follows x; incr of shape (m, 2n)
        # moves the step's start to each of m rows
        n = len(state.x)
        xs = state.x + incr[..., :n]
        return SpectralPoint(xs, _continue_sheets(curve, state.x, state.y, xs),
                             state.lam + incr[..., n:])

    states = integrate(velocity, advance, cfg0, dt, int(round(t_end / dt)),
                       scheme, size=lambda s: np.abs(np.r_[s.x, s.lam]))
    return Trajectory(np.arange(len(states)) * dt, states)


def match_states(cfg_a, cfg_b):
    """Optimal pairing distance between two unordered point sets."""
    pa = np.column_stack((cfg_a.x, cfg_a.y, cfg_a.lam))
    pb = np.column_stack((cfg_b.x, cfg_b.y, cfg_b.lam))
    cost = np.linalg.norm(pa[:, None, :] - pb[None, :, :], axis=2)
    rows, cols = linear_sum_assignment(cost)
    return cost[rows, cols].max(), cols


def _density_panels(layout, curve, ham, a, b, start):
    """GL panels [a_i, b_i] of the h angle densities, from start_i =
    (y, lambda) at a_i: the (n, h) integrals and (y, lambda) at each b_i.

    y is continued by the exact segment ratio.  lambda at b_i, which
    starts the next panel, is the root that ``_track_roots`` certifies
    nearest start's; at the nodes, four Newton steps from start's polish
    it, the panels being short next to the root spacing (a node that
    Newton takes to another root leaves the panel's fine and coarse sums
    apart, so ``_adaptive_gl`` splits it).
    """
    half, xs = _panel_nodes(a, b)
    ys = start[:, :1] * _sheet_ratio(curve, a[:, None], xs)
    end = np.stack((ys[:, -1], _track_roots(layout, ham, xs[:, -1],
                                            ys[:, -1], start[:, 1])), axis=1)
    xs, ys = xs[:, :-1].ravel(), ys[:, :-1].ravel()
    coeffs = lambda_poly(layout, ham, xs, ys).T
    lams = np.repeat(start[:, 1], len(_GL_WEIGHTS))
    for _ in range(4):
        val, der = coeffs[-1], 0.0
        for ck in coeffs[-2::-1]:      # Horner for R and dR/dlambda
            der = der * lams + val
            val = val * lams + ck
        lams = lams - val / der
    dens = _integrand_vector(layout, curve, ham, SpectralPoint(
        xs, ys, lams)).reshape(len(a), len(_GL_WEIGHTS), layout.h)
    return half * (_GL_WEIGHTS @ dens), end


def _missed(y_end, lam_end, y, lam):
    """Where a continued (y_end, lam_end) is not on the sheet of y or not
    the fiber root lam."""
    return (np.abs(y_end - y) > np.abs(y_end + y)) \
        | (np.abs(lam_end - lam) > 1e-6 * (1 + np.abs(lam)))


def angle_increments(layout, curve, ham, trajectory: Trajectory):
    """phi(t_k) - phi(0) along a trajectory, one row per stored state.

    Each point's h angle densities are integrated along the straight
    segment between its consecutive stored positions, with y and lambda
    continued from the stored row at the segment's start: every point and
    segment of a block of rows in one ``_adaptive_gl`` call, a block
    holding at most _ANGLE_SEGMENTS segments.  Raises BranchLocus where
    that continuation does not arrive on the next stored row's sheet and
    at the fiber root nearest its lambda.  On the exact flow of c, row k
    is c t_k.
    """
    xs, ys, lams = (np.array([getattr(s, a) for s in trajectory.states])
                    for a in ("x", "y", "lam"))       # (rows, points) each
    rows = max(1, _ANGLE_SEGMENTS // xs.shape[1])
    steps = [np.zeros((1, layout.h), dtype=complex)]
    for k in range(0, len(xs) - 1, rows):
        block = slice(k, k + rows + 1)
        steps.append(_segment_increments(layout, curve, ham, xs[block],
                                         ys[block], lams[block], k))
    return np.cumsum(np.concatenate(steps), axis=0)


def _segment_increments(layout, curve, ham, xs, ys, lams, first):
    """The (rows - 1, h) increments of phi between consecutive rows of the
    (rows, points) arrays xs, ys and lams, row 0 being trajectory row
    first, by one ``_adaptive_gl`` call over all their segments."""
    start = np.stack((ys[:-1].ravel(), lams[:-1].ravel()), axis=1)
    parts, end = _adaptive_gl(partial(_density_panels, layout, curve, ham),
                              xs[:-1].ravel(), xs[1:].ravel(), start,
                              _ANGLE_TOL)
    # the stored lambda of an integrated route is off its fiber by the
    # route's error: compare with the fiber root nearest to it
    xb, yb = xs[1:].ravel(), ys[1:].ravel()
    missed = _missed(end[:, 0], end[:, 1], yb,
                     _track_roots(layout, ham, xb, yb, lams[1:].ravel()))
    if missed.any():
        k, i = np.unravel_index(np.argmax(missed), xs[1:].shape)
        raise BranchLocus(f"point {i} left its sheet or fiber root between "
                          f"rows {first + k} and {first + k + 1}")
    return parts.reshape(xs[1:].shape + (layout.h,)).sum(axis=1)


def _integrate_density(layout, curve, ham, x0, y0, lam0, x1, tol=1e-10):
    """Integrate all angle densities along the routed x-path x0 -> x1, on
    ``_density_panels``: one ``_adaptive_gl`` call per waypoint segment,
    since (y, lambda) at a segment's end starts the next."""
    total = np.zeros(layout.h, dtype=complex)
    start = np.array([y0, lam0], dtype=complex)
    way = route_path(curve, x0, x1)
    for a, b in zip(way[:-1], way[1:]):
        part, end = _adaptive_gl(partial(_density_panels, layout, curve, ham),
                                 [a], [b], start[None, :], tol)
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
        if _missed(y_end, lam_end, y, lam):
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
