"""Separating equations: coefficients from points, gradients, brackets.

A phase configuration is h spectral points gamma_i = (x_i, y_i, lambda_i),
held as one stacked SpectralPoint whose x, y and lam are arrays of shape
(h,); every function here reads those arrays.  Requiring R(gamma_i) = 0
for all i determines the full coefficient vector H: linearly for types
whose blocks are linear in H, by damped Newton for so(2n) where the last
block enters squared.
"""

import numpy as np

from .errors import (SingularConfiguration, SingularJacobian,
                     NewtonDivergence)
from .spectral import SpectralPoint, eval_R

_ON_CURVE_TOL = 1e-10   # |y^2 - P(x)| allowed, per unit of 1 + |P(x)|
_NEWTON_TOL = 1e-9      # so(2n) residual target, per unit of max(1 + |lam|)^d
_NEWTON_STARTS = 8      # ``start`` (or H = 0), then random starts


class PhaseConfiguration(SpectralPoint):
    """h separating points, stacked once into a SpectralPoint of (h,)
    arrays; ``points`` gives them back one by one."""

    def __init__(self, points):
        points = list(points)
        super().__init__(np.array([p.x for p in points]),
                         np.array([p.y for p in points]),
                         np.array([p.lam for p in points]))

    @property
    def points(self):
        return [SpectralPoint(*p) for p in zip(self.x, self.y, self.lam)]


def validate_configuration(cfg, curve, layout):
    """Raise SingularConfiguration unless the stacked point cfg has the
    layout's h points, all on the curve and with separated x."""
    xs, ys = cfg.x, cfg.y
    if len(xs) != layout.h:
        raise SingularConfiguration(
            f"expected {layout.h} points, got {len(xs)}")
    pxs = curve.p(xs)
    off = np.abs(ys ** 2 - pxs)
    bad = off > _ON_CURVE_TOL * (1.0 + np.abs(pxs))
    if bad.any():
        i = np.argmax(bad)
        raise SingularConfiguration(
            f"point off curve: x={xs[i]}, |y^2-P| = {off[i]:.2e}")
    if len(xs) > 1:
        sep = np.abs(xs[:, None] - xs[None, :])
        np.fill_diagonal(sep, np.inf)
        if sep.min() < 1e-8:
            raise SingularConfiguration("x-coordinates not separated")


def solve_hamiltonians(layout, curve, cfg: SpectralPoint,
                       rng=None, start=None, with_eval=False):
    """Coefficient vector H with R(gamma_i; H) = 0 for every point.

    Types with all blocks linear in H reduce to one linear solve, and
    ``start`` is ignored.  For so(2n) the system is quadratic in the last
    block and has several solutions; it is solved by damped Newton from
    ``start`` (H = 0 when None) and then from random starts.  A start near
    a known solution, such as the previous stage's H along a flow, keeps
    that solution's branch.

    With ``with_eval`` the result is (H, ev): for so(2n) ev is the
    ``eval_R`` at (cfg, H) that the Newton accepted last, which
    ``implicit_gradients`` takes in place of its own; for the linear types,
    which evaluate R at H = 0 only, it is None.
    """
    validate_configuration(cfg, curve, layout)
    spec = layout.spec
    d = spec.d
    lams = cfg.lam
    rhs = -lams ** d
    scale = np.max(1.0 + np.abs(lams)) ** d
    if not spec.square_last:
        # rows: gradient of R in H at each point, R being linear in H
        m = eval_R(layout, curve, np.zeros(layout.h), cfg).grad_h
        try:
            ham = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularConfiguration(str(exc)) from exc
        resid = np.abs(m @ ham - rhs).max()
        if not np.isfinite(resid) or resid > 1e-6 * scale:
            raise SingularConfiguration(
                f"linear solve residual {resid:.2e} above tolerance")
        return (ham, None) if with_eval else ham

    if rng is None:
        rng = np.random.default_rng(0)

    best = np.inf
    for attempt in range(_NEWTON_STARTS):
        if attempt == 0:
            ham = np.zeros(layout.h, complex) if start is None else start
        else:
            ham = rng.standard_normal(layout.h) \
                + 1j * rng.standard_normal(layout.h)
        ev = eval_R(layout, curve, ham, cfg)
        for _ in range(60):
            try:
                step = np.linalg.solve(ev.grad_h, ev.value)
            except np.linalg.LinAlgError:
                break
            damp = 1.0
            for _ in range(30):
                trial = ham - damp * step
                ev_trial = eval_R(layout, curve, trial, cfg)
                if np.linalg.norm(ev_trial.value) < np.linalg.norm(ev.value):
                    ham, ev = trial, ev_trial
                    break
                damp *= 0.5
            else:
                break
            if np.abs(ev.value).max() < _NEWTON_TOL * scale:
                ham, ev = _polish(layout, curve, cfg, ham, ev)
                return (ham, ev) if with_eval else ham
        best = min(best, np.abs(ev.value).max())
    raise NewtonDivergence(
        f"no Newton start reached residual {_NEWTON_TOL * scale:.2e} "
        f"({_NEWTON_STARTS} starts, best {best:.2e})")


def _polish(layout, curve, cfg, ham, ev):
    """Full Newton steps from a converged ham while the residual still
    falls, so that every caller's H sits at roundoff, not merely below
    ``_NEWTON_TOL``: the two flow routes solve H from different starts,
    and a gap of the tolerance's size between them grows along the flow
    with cond(dR/dH).  Returns the last accepted H and its evaluation."""
    resid = np.abs(ev.value).max()
    while True:
        try:
            trial = ham - np.linalg.solve(ev.grad_h, ev.value)
        except np.linalg.LinAlgError:
            return ham, ev
        ev_trial = eval_R(layout, curve, trial, cfg)
        trial_resid = np.abs(ev_trial.value).max()
        if not trial_resid < resid:
            return ham, ev
        ham, ev, resid = trial, ev_trial, trial_resid


def implicit_gradients(layout, curve, cfg, ham, ev=None):
    """Per-point derivatives of the coefficients along the configuration.

    Returns (dh_dlam, dh_dx), each h x h with column m the derivative of H
    with respect to lambda_m resp. x_m (y following x on the curve).  ev,
    when given, is ``eval_R`` at (cfg, ham), as ``solve_hamiltonians``
    returns it, and R is not evaluated again.
    """
    if ev is None:
        ev = eval_R(layout, curve, ham, cfg)
    try:
        minv = np.linalg.inv(ev.grad_h)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(str(exc)) from exc
    return -minv * ev.d_lambda, -minv * ev.d_x


def involution_check(layout, curve, cfg, ham):
    """Magnitudes |{H_j, H_k}| of all pairwise coefficient brackets, and
    the scale that normalizes them: gradient norms times max |y|."""
    dh_dlam, dh_dx = implicit_gradients(layout, curve, cfg, ham)
    # bracket[j,k] = sum_i y_i (dHj/dlam_i dHk/dx_i - dHk/dlam_i dHj/dx_i)
    a = dh_dlam * cfg.y[None, :]
    br = a @ dh_dx.T - dh_dx @ a.T
    norms = np.sqrt(np.sum(np.abs(dh_dlam) ** 2 + np.abs(dh_dx) ** 2, axis=1))
    return np.abs(br), np.outer(norms, norms) * np.abs(cfg.y).max() + 1e-300
