"""Angle coordinates and trajectory integration by two routes.

Route 1 integrates x_dot = J^{-1} c where J is the matrix of angle
densities, with the coefficients H frozen and each lambda kept on its
fiber: every stage tracks it from the step's lambda by certified Newton
(``spectral._track_roots``), with an eigensolve only where the certificate
fails; route 2 integrates the canonical equations of the Hamiltonian
c . H through the implicit gradients, re-solving H at every stage from
the previous stage's H, so that on so(2n), whose quadratic system has
several solutions, the route keeps its branch.  Both carry the h
separating points as one stacked SpectralPoint, and store their run as
one SpectralPoint of (times, h) arrays.

The two routes integrate the same vector field (J^{-1} c equals
y c dH/dlambda).  Under the default ``dopri5`` each route chooses its own
steps, so their distance measures the time integration as well as the
algebra (Jacobi matrix, separation solve, implicit gradients); under the
fixed-step schemes both take the same stages and it certifies the algebra
alone.  ``angle_increments`` checks a route against the exact flow: its
angle coordinates, integrated along each segment between stored rows by
the Gauss-Kronrod 3/7 pair, must move as phi(0) + c t, and its sheet
gate reads the end lambda that each segment's last panel certified.
"""

import math
from dataclasses import dataclass, fields, is_dataclass
from functools import partial

import numpy as np

from .curves import (_GK7_NODES, _GK7_WEIGHTS, _adaptive_gl, _panel_nodes,
                     _sheet_root)
from .errors import BranchCollision, BranchLocus, IllConditioned, StepRejected
from .spectral import SpectralPoint, _lambda_blocks, _track_roots
from .separation import implicit_gradients, solve_hamiltonians

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
# the segments per _adaptive_gl call, which bound its memory as a node
# budget: the panel sums hold (segments x 7) node values per density
# column, and 384 segments hold 2,688 nodes, as 128 did on 21 nodes.
# Blocks of 128 segments on 7 nodes take the angle check a fifth longer,
# for their per-call overhead.
_ANGLE_TOL = 1e-13
_ANGLE_SEGMENTS = 384


def _integrand_vector(layout, ham, pt):
    """The h angle densities at pt (``_density_factors``): shape (h,), or
    S + (h,) for points of shape S."""
    x, y, lam = (np.ravel(np.asarray(v, dtype=complex))
                 for v in (pt.x, pt.y, pt.lam))
    xpow = x[:, None] ** np.arange(max(layout.x_sizes))
    dens = np.empty((len(x), layout.h), dtype=complex)
    for cols, fac in _density_factors(layout, x, y, lam,
                                      *_lambda_blocks(layout, ham, x, y)):
        dens[:, cols] = fac[:, None] * xpow[:, :cols.stop - cols.start]
    return dens.reshape(np.shape(pt.x) + (layout.h,))


def _value_slope(coeffs, lam):
    """R and dR/dlambda at lam, by Horner on the list of the d + 1
    ascending lambda coefficients."""
    val, der = coeffs[-1], 0.0
    for ck in coeffs[-2::-1]:
        der = der * lam + val
        val = val * lam + ck
    return val, der


def _density_factors(layout, x, y, lam, blocks, coeffs):
    """Each column slice of the h angle densities -dR/dH / (R_lambda y) at
    n points with its (n,) factor, from the blocks and lambda coefficients
    of ``spectral._lambda_blocks`` at (x, y); column k of a slice is the
    factor times x^k.  On block j: -lambda^(d - d_j) / (R_lambda y), times
    2 B_j on the squared so(2n) block, and times y on its y-part.  Raises
    BranchLocus where |R_lambda| < 1e-10."""
    spec = layout.spec
    d_lambda = _value_slope(coeffs, lam)[1]
    small = np.abs(d_lambda) < 1e-10
    if np.any(small):
        i = np.argmax(small)
        raise BranchLocus(f"|dR/dlambda| = {abs(d_lambda[i]):.2e}"
                          f" at x={x[i]}")
    inv = -1.0 / (d_lambda * y)
    for j, dj in enumerate(spec.dees):
        fac = lam ** (spec.d - dj) * inv
        if spec.square_last and j == len(spec.dees) - 1:
            fac = fac * 2.0 * blocks[j]
        yield layout.x_slice(j), fac
        if layout.y_sizes[j]:
            yield layout.y_slice(j), fac * y


def _jacobi_solve(layout, ham, cfg, rhs):
    """J and the solution v of J v = rhs, from one LU factorization that also
    gives J^-1.  Raises IllConditioned when J is singular or its exact 1-norm
    condition number (never below LAPACK's estimate, zgecon) passes 1e12."""
    jm = _integrand_vector(layout, ham, cfg).T
    try:
        sol = np.linalg.solve(jm, np.column_stack((rhs, np.eye(len(rhs)))))
        cond = np.linalg.norm(jm, 1) * np.linalg.norm(sol[:, 1:], 1)
    except np.linalg.LinAlgError:               # J is singular
        cond = np.inf
    if not cond <= 1e12:
        raise IllConditioned(f"Jacobi matrix condition {cond:.2e} above 1e12")
    return jm, sol[:, 0]


def jacobi_matrix(layout, curve, ham, cfg):
    """J[j, k] = angle density j evaluated at the k-th separating point.

    Raises IllConditioned when J is singular or its exact 1-norm condition
    number passes 1e12 (``_jacobi_solve``)."""
    return _jacobi_solve(layout, ham, cfg, np.zeros(layout.h))[0]


def integrate(rhs, advance, state, dt, nsteps, scheme="rk4", after=None,
              size=np.abs):
    """The nsteps + 1 states at t = k dt, k = 0..nsteps, by explicit Euler,
    classical RK4 or Dormand-Prince 5(4), as one state (``_stack``).

    rhs(state) is the velocity vector and advance(state, incr) the state
    moved by incr; after(state), when given, turns each step's
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
            raise StepRejected(f"non-finite velocity in step {step}")
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
                state = after(state)
            states.append(state)
    return _stack(states)


def _stack(states, batches=()):
    """The states, then the rows of each batch, as one state whose first
    axis counts them: an array, or a dataclass whose type is called on its
    fields stacked one by one (so not a PhaseConfiguration)."""
    if is_dataclass(states[0]):
        return type(states[0])(*(
            _stack([getattr(s, f.name) for s in states],
                   [getattr(b, f.name) for b in batches])
            for f in fields(states[0])))
    return np.concatenate((states, *batches))


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
    after(rows) call, so both take a batch of m rows and return it as one
    state whose first axis counts the rows; after also sees each step's
    end state.  Raises StepRejected, with the time reached and the last
    error estimate, when a step would fall below _MIN_STEP of the span,
    and at t=0 when the velocity is not finite or too large to scale.
    """
    start, batches, stored = state, [], 1
    span = nsteps * dt
    if nsteps == 0:
        return _stack([start])
    k1 = rhs(state)
    if not np.isfinite(k1).all():
        raise StepRejected("non-finite velocity at t=0")
    # the starting step: an Euler probe of how fast the velocity changes
    scale = _ATOL + _RTOL * size(state)
    d0, d1 = _rms(size(state), scale), _rms(k1, scale)
    if not (math.isfinite(d0) and math.isfinite(d1)):
        raise StepRejected(f"velocity of size {np.abs(k1).max():.2e} overflows "
                           f"the starting-step estimate at t=0")
    h0 = 1e-6 if min(d0, d1) < 1e-5 else 0.01 * d0 / d1
    while True:     # a probe that lands on a branch point backs off
        try:
            probe = advance(state, math.copysign(h0, dt) * k1)
            break
        except BranchCollision:
            if (h0 := 0.1 * h0) < _MIN_STEP * abs(span):
                raise
    d2 = _rms(rhs(probe) - k1, scale) / h0
    h = min(100 * h0, (0.01 / max(d1, d2)) ** 0.2 if max(d1, d2) > 1e-15
            else max(1e-6, 1e-3 * h0))
    t, err, fac_max = 0.0, 0.0, _FAC_MAX
    while stored <= nsteps:
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
        theta = (np.arange(stored, nsteps + 1) * dt - t) / h
        if not last:
            theta = theta[:np.searchsorted(theta, 1.0, side="right")]
        if len(theta):
            th, th1 = theta[:, None], 1 - theta[:, None]
            bspl = h * ks[0] - incr
            rest = incr - h * ks[6] - bspl
            rows = advance(state, th * (incr + th1 * (
                bspl + th * (rest + th1 * h * (_DP_D @ ks)))))
            batches.append(rows if after is None else after(rows))
            stored += len(theta)
        state = end if after is None else after(end)
        k1 = ks[6] if state is end else rhs(state)
        t = span if last else t + h
        h *= min(fac_max, max(_FAC_MIN, _SAFETY * err ** -0.2)) if err > 0 \
            else fac_max
        fac_max = _FAC_MAX
    return _stack([start], batches)


def _continue_sheets(curve, xs_prev, ys_prev, xs):
    """+-sqrt(P(xs)), each on the sheet that y continued along the straight
    step from (xs_prev, ys_prev) reaches (``curves._sheet_root``): the one
    within pi/2 of ys_prev where the step is short next to the branch
    points, else the one nearer to ys_prev times the exact step ratio.  xs
    of shape (m, n) continues xs_prev, of shape (n,), to m rows at once."""
    near = curve.nearest_branch_distance(xs) < curve.exclusion_radius
    if near.any():
        i = np.argmax(near)
        raise BranchCollision(
            f"separating point {i % xs.shape[-1]} hit the branch locus at "
            f"x={xs.flat[i]}")
    return _sheet_root(curve, xs_prev, ys_prev, xs)


@dataclass
class Trajectory:
    """A flow run: times t_k, and states of (times, h) arrays, row k at t_k."""
    times: np.ndarray
    states: SpectralPoint


def flow_fiber(layout, curve, ham, cfg0, c, t_end, dt, scheme="dopri5"):
    """Route 1: integrate x_dot = J^{-1} c with the coefficients frozen."""
    c = np.asarray(c, dtype=complex)

    def velocity(state):
        return _jacobi_solve(layout, ham, state, c)[1]

    def advance(state, dxs):
        # move every point by dx, carrying sheet and fiber root along; dxs
        # of shape (m, n) moves the step's start to each of m rows
        xs = state.x + dxs
        ys = _continue_sheets(curve, state.x, state.y, xs)
        # each point's fiber root nearest its previous lambda
        lams = _track_roots(layout, ham, xs.ravel(), ys.ravel(),
                            np.broadcast_to(state.lam, xs.shape).ravel())
        return SpectralPoint(xs, ys, lams.reshape(xs.shape))

    start = SpectralPoint(cfg0.x, cfg0.y, cfg0.lam)    # not a subclass
    states = integrate(velocity, advance, start, dt, int(round(t_end / dt)),
                       scheme, size=lambda s: np.abs(s.x))
    return Trajectory(np.arange(len(states.x)) * dt, states)


def flow_poisson(layout, curve, cfg0, c, t_end, dt, scheme="dopri5"):
    """Route 2: canonical flow of c . H through the implicit gradients."""
    c = np.asarray(c, dtype=complex)
    ham = None

    def velocity(state):
        nonlocal ham  # each stage's Newton starts from the last stage's H
        ham, ev = solve_hamiltonians(layout, curve, state, start=ham,
                                     with_eval=True)
        dh_dlam, dh_dx = implicit_gradients(layout, curve, state, ham, ev)
        return np.concatenate((state.y * (c @ dh_dlam),
                               -state.y * (c @ dh_dx)))

    def advance(state, incr):
        # x and lambda move by incr, y follows x; incr of shape (m, 2n)
        # moves the step's start to each of m rows
        n = len(state.x)
        xs = state.x + incr[..., :n]
        return SpectralPoint(xs, _continue_sheets(curve, state.x, state.y, xs),
                             state.lam + incr[..., n:])

    start = SpectralPoint(cfg0.x, cfg0.y, cfg0.lam)    # not a subclass
    states = integrate(velocity, advance, start, dt, int(round(t_end / dt)),
                       scheme, size=lambda s: np.abs(np.r_[s.x, s.lam]))
    return Trajectory(np.arange(len(states.x)) * dt, states)


def match_states(cfg_a, cfg_b):
    """Largest distance in (x, y, lambda) between the i-th points of two
    configurations.  Every route carries point i from input row i, so a
    swap of two points counts as a difference."""
    pa = np.column_stack((cfg_a.x, cfg_a.y, cfg_a.lam))
    pb = np.column_stack((cfg_b.x, cfg_b.y, cfg_b.lam))
    return np.linalg.norm(pa - pb, axis=1).max()


def _density_panels(layout, curve, ham, a, b, start):
    """Panels [a_i, b_i] of the h angle densities, from start_i =
    (y, lambda) at a_i: the (n, 2, h) integrals by the Gauss-Kronrod 3/7
    pair, K7 and G3 (``curves._GK7_NODES``), and (y, lambda) at each b_i.

    y at the nodes and at b_i is +-sqrt(P(x)) on the sheet continued from
    start's y (``curves._sheet_root``: the exact segment ratio runs only
    where the panel is too long for the sheet's certificate, next to the
    distances from a_i to the branch points).  lambda at b_i is the root
    that ``_track_roots`` certifies nearest start's; it starts the next
    panel, and at a segment's end it is the lambda that the sheet gate of
    ``angle_increments`` reads.  At the nodes, four Newton steps from
    start's polish it, the panels being short next to the root spacing (a
    node that Newton takes to another root leaves the panel's K7 and G3
    sums apart, so ``_adaptive_gl`` splits it).  A density column's sums
    are its block's factor (``_density_factors``) on the (n, 7) nodes,
    times x once per column, against the K7 and G3 weights.  These
    segments pass the 3/7 pair on their first panel as they passed the
    10/21 pair, at a third of the nodes.
    """
    half, xs = _panel_nodes(a, b, _GK7_NODES)
    ys = _sheet_root(curve, a[:, None], start[:, :1], xs)
    end = np.stack((ys[:, -1], _track_roots(layout, ham, xs[:, -1],
                                            ys[:, -1], start[:, 1])), axis=1)
    xs, ys = xs[:, :-1].ravel(), ys[:, :-1].ravel()
    blocks, coeffs = _lambda_blocks(layout, ham, xs, ys)
    lams = np.repeat(start[:, 1], len(_GK7_NODES))
    for _ in range(4):
        val, der = _value_slope(coeffs, lams)
        lams = lams - val / der
    sums = np.empty((len(a), 2, layout.h), dtype=complex)
    for cols, fac in _density_factors(layout, xs, ys, lams, blocks, coeffs):
        for k in range(cols.start, cols.stop):
            sums[:, :, k] = fac.reshape(len(a), -1) @ _GK7_WEIGHTS.T
            fac = fac * xs
    return sums * half[:, None], end


def angle_increments(layout, curve, ham, trajectory: Trajectory):
    """phi(t_k) - phi(0) along a trajectory, one row per stored state.

    Each point's h angle densities are integrated along the straight
    segment between its consecutive stored positions, with y and lambda
    continued from the stored row at the segment's start: every point and
    segment of a block of rows in one ``_adaptive_gl`` call on the 3/7
    pair (``_density_panels``), a block holding at most _ANGLE_SEGMENTS
    segments (384: 2,688 nodes on a first pass).  Raises BranchLocus where
    that continuation does not arrive on the next stored row's sheet, or
    where the end lambda that ``_density_panels`` certified lies more than
    1e-6 (1 + |lambda|) from the next row's stored lambda and, where it
    does, from the fiber root nearest that.  On the exact flow of c, row k
    is c t_k.
    """
    states = trajectory.states
    xs, ys, lams = states.x, states.y, states.lam     # (rows, points) each
    rows = max(1, _ANGLE_SEGMENTS // xs.shape[1])
    steps = [np.zeros((1, layout.h), dtype=complex)]
    for k in range(0, len(xs) - 1, rows):
        x, y, lam = (a[k:k + rows + 1] for a in (xs, ys, lams))
        start = np.stack((y[:-1].ravel(), lam[:-1].ravel()), axis=1)
        parts, end = _adaptive_gl(
            partial(_density_panels, layout, curve, ham), x[:-1].ravel(),
            x[1:].ravel(), start, _ANGLE_TOL)
        xb, yb, lb = x[1:].ravel(), y[1:].ravel(), lam[1:].flatten()
        # an integrated route's stored lambda is off its fiber by its error,
        # O(dt) under euler: where it misses, take the fiber root nearest it
        off = np.abs(end[:, 1] - lb) > 1e-6 * (1 + np.abs(lb))
        if off.any():
            lb[off] = _track_roots(layout, ham, xb[off], yb[off], lb[off])
        missed = (np.abs(end[:, 0] - yb) > np.abs(end[:, 0] + yb)) \
            | (np.abs(end[:, 1] - lb) > 1e-6 * (1 + np.abs(lb)))
        if missed.any():
            r, i = np.unravel_index(np.argmax(missed), x[1:].shape)
            raise BranchLocus(f"point {i} left its sheet or fiber root "
                              f"between rows {k + r} and {k + r + 1}")
        steps.append(parts.reshape(x[1:].shape + (layout.h,)).sum(axis=1))
    return np.cumsum(np.concatenate(steps), axis=0)


def hamiltonian_drift(layout, curve, trajectory):
    """Relative drift of the re-solved coefficients along a trajectory."""
    ham0 = solve_hamiltonians(layout, curve, trajectory.states[0])
    scale = np.abs(ham0).max()
    worst = 0.0
    for k in range(1, len(trajectory.times)):
        ham = solve_hamiltonians(layout, curve, trajectory.states[k])
        worst = max(worst, np.abs(ham - ham0).max() / scale)
    return worst


def discriminant_zero_count(layout, ham):
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
    b1 = ham[layout.x_slice(0)]
    b2 = ham[layout.x_slice(1)]
    disc = np.polynomial.polynomial.polysub(
        np.polynomial.polynomial.polymul(b1, b1), 4.0 * b2)
    disc = np.trim_zeros(disc, 'b')
    roots = np.polynomial.polynomial.polyroots(disc)
    # two sheets of the base per x-root, times the double vanishing of the
    # pull-back at each ramification point of the lambda-cover
    return 4 * len(roots)
