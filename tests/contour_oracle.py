"""The ellipse cycles that the branch-point chain replaced, kept as the
reference for its periods: an ellipse about each run of branch points,
found by search, and its periods by the trapezoid rule with sample
doubling, started on the sheet continued from an anchor right of every
branch point."""

from dataclasses import dataclass

import numpy as np

from hitchsov.curves import _sheet_ratio, continue_y, route_path
from hitchsov.errors import CycleDegenerate


@dataclass
class Contour:
    center: complex
    axes: tuple  # (A, B)
    angle: float

    def sample(self, n):
        th = np.linspace(0.0, 2 * np.pi, n, endpoint=False)
        rot = np.exp(1j * self.angle)
        xs = self.center + rot * (self.axes[0] * np.cos(th) + 1j * self.axes[1] * np.sin(th))
        dxs = rot * (-self.axes[0] * np.sin(th) + 1j * self.axes[1] * np.cos(th))
        return xs, dxs, 2 * np.pi / n


def winding(xs, e):
    rel = xs - e
    return int(round(np.sum(np.angle(rel[np.r_[1:len(rel), 0]] / rel)) / (2 * np.pi)))


def enclosing_contour(curve, inside_idx):
    """Ellipse enclosing exactly the branch points with the given indices."""
    pts = curve.branch_points[inside_idx]
    others = np.delete(curve.branch_points, inside_idx)
    c = pts.mean()
    rel = pts - c
    # principal axis of the enclosed set
    cov = np.array([[np.sum(rel.real**2), np.sum(rel.real * rel.imag)],
                    [np.sum(rel.real * rel.imag), np.sum(rel.imag**2)]])
    _, v = np.linalg.eigh(cov)
    angle = float(np.arctan2(v[1, -1], v[0, -1]))
    loc = rel * np.exp(-1j * angle)
    a_ext, b_ext = np.max(np.abs(loc.real)), np.max(np.abs(loc.imag))
    gap = (np.min(np.abs(others[:, None] - pts[None, :])) if len(others)
           else curve.min_separation)
    for frac in (0.45, 0.3, 0.2, 0.12, 0.07):
        delta = max(frac * gap, 2 * curve.exclusion_radius)
        cont = Contour(c, (a_ext + delta, b_ext + delta), angle)
        xs, _, _ = cont.sample(512)
        dist = np.min(np.abs(xs[:, None] - curve.branch_points[None, :]))
        if dist < 2 * curve.exclusion_radius:
            continue
        if all(winding(xs, e) == 1 for e in pts) and all(
                winding(xs, e) == 0 for e in others):
            return cont
    raise CycleDegenerate(f"no valid contour around branch points {inside_idx}")


def homology_contours(curve):
    """With branch points sorted by real part (ties by imaginary part), a_i
    encircles the pair (e_{2i-1}, e_{2i}) and b_i encircles
    e_{2i}, ..., e_{2g+1}."""
    order = np.lexsort((curve.branch_points.imag, curve.branch_points.real))
    g = curve.genus
    a_cycles = [enclosing_contour(curve, order[2 * i:2 * i + 2]) for i in range(g)]
    b_cycles = [enclosing_contour(curve, order[2 * i + 1:]) for i in range(g)]
    return a_cycles + b_cycles


def anchor(curve):
    e = curve.branch_points
    span = max(np.max(np.abs(e - e.mean())), curve.min_separation)
    x0 = e.mean() + 3.0 * span + 2.0
    return complex(x0), complex(np.sqrt(curve.p(x0)))


def sample_sheets(curve, xs, y_start):
    """+-sqrt(P) at the vertices of the polyline xs, continued from y_start
    at xs[0]: the sign flips where sqrt(P) is nearer minus its predecessor
    times the exact step ratio."""
    s = np.sqrt(curve.p(xs))
    prev = np.r_[xs[0], xs[:-1]]
    ratio = np.concatenate([_sheet_ratio(curve, prev[i:i + 512], xs[i:i + 512])
                            for i in range(0, len(xs), 512)])
    pred = np.r_[complex(y_start), s[:-1]] * ratio
    flip = np.abs(s - pred) > np.abs(s + pred)
    return np.where(np.cumsum(flip) % 2 == 1, -s, s)


def cycle_periods(curve, contour, y_start, tol=1e-11):
    """Integrals of the g monomial differentials around a closed contour,
    started on the sheet of y_start at its first sample.  The sample count
    doubles from 256 until two successive values agree to tol; raises
    CycleDegenerate when 2^15 samples do not get there."""
    prev = None
    n = 256
    while n <= 1 << 15:
        xs, dxs, dth = contour.sample(n)
        ys = sample_sheets(curve, np.r_[xs, xs[:1]], y_start)
        ys, y_close = ys[:-1], ys[-1]
        powers = np.vander(xs, curve.genus, increasing=True).T
        vals = (powers * dxs / ys) @ np.ones(n) * dth
        if abs(y_close - y_start) > 0.5 * abs(y_start):
            raise CycleDegenerate("contour encloses an odd number of branch points")
        if prev is not None:
            diff = np.max(np.abs(vals - prev))
            if diff < tol * (1 + np.max(np.abs(vals))):
                return vals
        prev = vals
        n *= 2
    raise CycleDegenerate(f"contour periods not converged at {n // 2} samples "
                          f"(last refinement difference {diff:.3e})")


def periods(curve):
    """(g, 2g) periods of x^k dx / y on the ellipses a_1..a_g, b_1..b_g,
    each started on the sheet continued from the anchor to its first
    sample."""
    ax, ay = anchor(curve)
    cols = []
    for c in homology_contours(curve):
        y0 = continue_y(curve, route_path(curve, ax, c.sample(1)[0][0]), ay)[-1]
        cols.append(cycle_periods(curve, c, y0))
    return np.column_stack(cols)
