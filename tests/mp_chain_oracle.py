"""tau on the branch-point chain at high precision: every edge integral by
mpmath's tanh-sinh quadrature, split where another branch point comes
nearest the edge, for a reference that shares no quadrature with
``curves._edge_integrals``.  Only the sheet at each edge midpoint, the
basis convention, is read from ``curves._bank_values``."""

import mpmath
import numpy as np

from hitchsov import curves


def edge_integrals(chain, bank, dps):
    """(g, 2g) integrals of x^k dx / y over the chain's edges, y continued
    from sqrt(P) at each midpoint on the sheet nearest bank[j]."""
    with mpmath.workdps(dps):
        e = [mpmath.mpc(z) for z in chain]
        g = (len(e) - 1) // 2
        out = np.empty((g, len(e) - 1), dtype=complex)
        for j in range(len(e) - 1):
            lo, step = e[j], e[j + 1] - e[j]
            mid = lo + step / 2
            y_mid = mpmath.sqrt(mpmath.fprod(mid - z for z in e))
            if abs(y_mid + complex(bank[j])) < abs(y_mid - complex(bank[j])):
                y_mid = -y_mid
            # y = y(mid) prod (x - e_m)^(1/2) / (mid - e_m)^(1/2): each
            # ratio stays off the negative real axis along the edge
            splits = sorted(float(t) for t in (
                mpmath.re(mpmath.conj(step) * (z - lo)) / abs(step) ** 2
                for z in e[:j] + e[j + 2:]) if 0 < t < 1)
            for k in range(g):
                out[k, j] = complex(step * mpmath.quad(
                    lambda t: (lo + t * step) ** k / (y_mid * mpmath.fprod(
                        mpmath.sqrt((lo + t * step - z) / (mid - z))
                        for z in e)),
                    [0, *splits, 1]))
        return out


def tau(curve, dps=30):
    """The normalized period matrix of ``curves.period_matrix``, from
    edge integrals at dps digits."""
    chain = curves._branch_chain(curve)
    edges = edge_integrals(chain, curves._bank_values(curve, chain), dps)
    pa = edges[:, 0::2]
    pb = np.cumsum(edges[:, :0:-2], axis=1)[:, ::-1]
    t = np.linalg.solve(pa, pb)  # N pb with N pa = I, N = pa^-1
    t = 0.5 * (t + t.T)
    return -t if np.linalg.eigvalsh(t.imag).min() < 0 else t
