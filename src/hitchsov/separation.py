"""Separating equations: coefficients from points, gradients, brackets.

A phase configuration is a collection of h spectral points gamma_i =
(x_i, y_i, lambda_i).  Requiring R(gamma_i) = 0 for all i determines the
full coefficient vector H: linearly for types whose blocks are linear in
H, by damped Newton for so(2n) where the last block enters squared.
"""

from dataclasses import dataclass

import numpy as np

from .errors import (SingularConfiguration, SingularJacobian,
                     NewtonDivergence)
from .spectral import SpectralPoint, eval_R


@dataclass
class PhaseConfiguration:
    """h separating points with their sheet bookkeeping."""
    points: list

    def __post_init__(self):
        self.points = list(self.points)

    def __len__(self):
        return len(self.points)

    def validate(self, curve, layout=None, tol=1e-10):
        if layout is not None and len(self.points) != layout.h:
            raise SingularConfiguration(
                f"expected {layout.h} points, got {len(self.points)}")
        xs, ys = self.xs(), self.ys()
        pxs = curve.p(xs)
        off = np.abs(ys ** 2 - pxs)
        bad = off > tol * (1.0 + np.abs(pxs))
        if bad.any():
            i = np.argmax(bad)
            raise SingularConfiguration(
                f"point off curve: x={xs[i]}, |y^2-P| = {off[i]:.2e}")
        if len(xs) > 1:
            sep = np.abs(xs[:, None] - xs[None, :])
            np.fill_diagonal(sep, np.inf)
            if sep.min() < 1e-8:
                raise SingularConfiguration("x-coordinates not separated")

    def lambdas(self):
        return np.array([p.lam for p in self.points])

    def xs(self):
        return np.array([p.x for p in self.points])

    def ys(self):
        return np.array([p.y for p in self.points])


def _stacked(cfg):
    """The configuration's points as one SpectralPoint of arrays."""
    return SpectralPoint(cfg.xs(), cfg.ys(), cfg.lambdas())


def _design_matrix(layout, curve, cfg):
    """Rows: gradient of R in H at each point (valid for linear blocks)."""
    return eval_R(layout, curve, np.zeros(layout.h), _stacked(cfg)).grad_h


def solve_hamiltonians(layout, curve, cfg: PhaseConfiguration,
                       rng=None, tol=1e-9, max_starts=8):
    """Coefficient vector H with R(gamma_i; H) = 0 for every point.

    Types with all blocks linear in H reduce to one linear solve.  For
    so(2n) the system is quadratic in the last block and is solved by
    damped Newton with multi-start seeding.
    """
    cfg.validate(curve, layout)
    spec = layout.spec
    d = spec.d
    lams = cfg.lambdas()
    rhs = -lams ** d
    scale = np.max(1.0 + np.abs(lams)) ** d
    if not spec.square_last:
        m = _design_matrix(layout, curve, cfg)
        try:
            ham = np.linalg.solve(m, rhs)
        except np.linalg.LinAlgError as exc:
            raise SingularConfiguration(str(exc)) from exc
        resid = np.abs(m @ ham - rhs).max()
        if not np.isfinite(resid) or resid > 1e-6 * scale:
            raise SingularConfiguration(
                f"linear solve residual {resid:.2e} above tolerance")
        return ham

    if rng is None:
        rng = np.random.default_rng(0)

    pts = _stacked(cfg)

    def fvec(ham):
        return eval_R(layout, curve, ham, pts).value

    def jac(ham):
        return eval_R(layout, curve, ham, pts).grad_h

    best = np.inf
    for start in range(max_starts):
        if start == 0:
            ham = np.zeros(layout.h, dtype=complex)
        else:
            ham = rng.standard_normal(layout.h) \
                + 1j * rng.standard_normal(layout.h)
        f = fvec(ham)
        for _ in range(60):
            try:
                step = np.linalg.solve(jac(ham), f)
            except np.linalg.LinAlgError:
                break
            damp = 1.0
            for _ in range(30):
                trial = ham - damp * step
                ftrial = fvec(trial)
                if np.linalg.norm(ftrial) < np.linalg.norm(f):
                    ham, f = trial, ftrial
                    break
                damp *= 0.5
            else:
                break
            if np.abs(f).max() < tol * scale:
                return ham
        best = min(best, np.abs(f).max())
    raise NewtonDivergence(
        f"no Newton start reached residual {tol * scale:.2e}",
        best_residual=best)


def implicit_gradients(layout, curve, cfg, ham):
    """Per-point derivatives of the coefficients along the configuration.

    Returns (dh_dlam, dh_dx), each h x h with column m the derivative of H
    with respect to lambda_m resp. x_m (y following x on the curve).
    """
    ev = eval_R(layout, curve, ham, _stacked(cfg))
    try:
        minv = np.linalg.inv(ev.grad_h)
    except np.linalg.LinAlgError as exc:
        raise SingularJacobian(str(exc)) from exc
    return -minv * ev.d_lambda, -minv * ev.d_x


def poisson_bracket(f_grads, g_grads, cfg):
    """{f, g} = sum_i y_i (f_lam_i g_x_i - g_lam_i f_x_i)."""
    f_lam, f_x = f_grads
    g_lam, g_x = g_grads
    ys = cfg.ys()
    return np.sum(ys * (np.asarray(f_lam) * np.asarray(g_x)
                        - np.asarray(g_lam) * np.asarray(f_x)))


def involution_check(layout, curve, cfg, ham=None):
    """Magnitudes |{H_j, H_k}| of all pairwise coefficient brackets."""
    if ham is None:
        ham = solve_hamiltonians(layout, curve, cfg)
    dh_dlam, dh_dx = implicit_gradients(layout, curve, cfg, ham)
    ys = cfg.ys()
    # bracket[j,k] = sum_i y_i (dHj/dlam_i dHk/dx_i - dHk/dlam_i dHj/dx_i)
    a = dh_dlam * ys[None, :]
    br = a @ dh_dx.T - dh_dx @ a.T
    return np.abs(br)


def gradient_scale(layout, curve, cfg, ham):
    """Normalization for bracket magnitudes: gradient norms times |y|."""
    dh_dlam, dh_dx = implicit_gradients(layout, curve, cfg, ham)
    norms = np.sqrt(np.sum(np.abs(dh_dlam) ** 2 + np.abs(dh_dx) ** 2, axis=1))
    ymax = np.abs(cfg.ys()).max()
    return np.outer(norms, norms) * ymax + 1e-300
