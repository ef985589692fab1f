"""The search for the vector of Riemann constants that the closed form
replaced, kept as the reference for it: every half-period (m + tau n) / 2
is scored by |theta(A(D) + K)| on six random divisors D of degree g - 1,
all from one lattice, and the least score wins."""

import itertools

import numpy as np

from hitchsov.curves import CurvePoint, abel_map, lattice_reduce
from hitchsov.errors import CycleDegenerate
from hitchsov.theta import _lattice_terms


def riemann_constants(curve, theta_data, rng=None):
    """The half-period with theta(A(D) + K) = 0 on six random divisors;
    raises CycleDegenerate when none gets within 1e-5 of theta(0)."""
    if rng is None:
        rng = np.random.default_rng(0)
    tau = theta_data.tau
    g = tau.shape[0]
    divisors = []
    while len(divisors) < 6:
        pts = []
        for _ in range(g - 1):
            x = 2.0 * (rng.standard_normal() + 1j * rng.standard_normal())
            if curve.nearest_branch_distance(x) < 2 * curve.exclusion_radius:
                continue
            y = np.sqrt(curve.p(x))
            if rng.random() < 0.5:
                y = -y
            pts.append(CurvePoint(x, y))
        if len(pts) == g - 1:
            divisors.append(sum((abel_map(curve, theta_data, p) for p in pts),
                                np.zeros(g, dtype=complex)))
    halves = [0.5 * (np.array(mbits, dtype=complex)
                     + tau @ np.array(nbits, dtype=complex))
              for mbits in itertools.product((0, 1), repeat=g)
              for nbits in itertools.product((0, 1), repeat=g)]
    # row 0 gives the scale, then each half-period against every divisor
    zs = np.array([np.zeros(g, dtype=complex)]
                  + [lattice_reduce(theta_data, a + k)
                     for k in halves for a in divisors])
    _, terms = _lattice_terms(zs, tau, 0)
    vals = np.abs(terms.sum(axis=1))
    scores = vals[1:].reshape(len(halves), len(divisors)).max(axis=1)
    best_at = int(np.argmin(scores))  # the first of equal scores
    if scores[best_at] > 1e-5 * vals[0]:
        raise CycleDegenerate(
            f"no half-period satisfies Riemann vanishing "
            f"(best residual {scores[best_at]:.2e})")
    return halves[best_at]
