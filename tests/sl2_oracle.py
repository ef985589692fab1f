"""Reference SL2 computations that the tests check the library against.

``calibrate_convention`` re-derives the frozen Klein convention
``sl2.SIGMA`` from a search over all candidates.  ``trace_power_gradient``
is the chart gradient of tr L(zeta)^l by the direct route: L^(l-1)
contracted with the (6, 6, 3) gradients of x.  ``flow`` is the integration
of ``sl2.lax_flow`` driven by that gradient, with each row moved to a new
chart one at a time, and ``drift`` the columns of ``sl2.lax_drift``
computed one row at a time.
"""

import itertools

import numpy as np

from hitchsov import sl2
from hitchsov.flows import integrate


def homogeneous(pp):
    """Homogeneous (q, p) of a phase point, by insertion at the chart."""
    q = np.insert(pp.qa, pp.chart, 1.0)
    return q, np.insert(pp.pa, pp.chart, -pp.pa @ pp.qa)


def klein_x(pp, klein):
    q, p = homogeneous(pp)
    return np.einsum('a,ijab,b->ij', q, klein, p)


def klein_gradients(pp, klein):
    q, p = homogeneous(pp)
    c = pp.chart
    keep = [a for a in range(4) if a != c]
    mp = np.einsum('ijab,b->ija', klein, p)
    qm = np.einsum('a,ijab->ijb', q, klein)
    # p_c = -pa . qa depends on both arguments
    gq = mp[:, :, keep] - qm[:, :, c, None] * pp.pa
    gp = qm[:, :, keep] - qm[:, :, c, None] * pp.qa
    return gq, gp


def calibrate_convention(rng=None, trials=3):
    """Search the finite set of Klein conventions for the consistent one.

    Candidates are sign patterns sigma in {+-1}^6 defining C_j =
    (sigma_j/2) epsilon_j with conjugation factors i on the negative
    entries.  Returns the (sigma, defect) pair minimizing the combined
    skew and so(6) defect; the shipped SIGMA is the frozen winner.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    pts = [sl2.GeomPhasePoint(
        rng.standard_normal(3) + 1j * rng.standard_normal(3),
        rng.standard_normal(3) + 1j * rng.standard_normal(3))
        for _ in range(trials)]
    best, best_def = None, np.inf
    for bits in itertools.product((1, -1), repeat=6):
        sigma = np.array(bits)
        klein = sl2._klein_tensor(sigma)
        defect = max(sl2._skew(klein_x(pp, klein)) for pp in pts)
        if defect < 1e-10:
            defect += sl2._bracket_residuals(
                klein_x(pts[0], klein), *klein_gradients(pts[0], klein))[0]
        if defect < best_def:
            best, best_def = sigma, defect
    return best, best_def


def trace_power_gradient(pp, z6, zeta, l):
    """Analytic chart gradient (F_q, F_p) of tr L(zeta)^l."""
    z6 = np.asarray(z6, dtype=complex)
    lmat = zeta * klein_x(pp, sl2.KLEIN) + np.diag(z6)
    lpow = np.linalg.matrix_power(lmat, l - 1)
    gq, gp = klein_gradients(pp, sl2.KLEIN)
    # d tr L^l = l tr(L^(l-1) dL), dL = zeta dX
    fq = l * zeta * np.einsum('mn,nma->a', lpow, gq)
    fp = l * zeta * np.einsum('mn,nma->a', lpow, gp)
    return fq, fp


def to_chart(pp, chart):
    """One phase point in another chart: q over q_chart, p times it."""
    q, p = homogeneous(pp)
    keep = [a for a in range(4) if a != chart]
    return sl2.GeomPhasePoint(q[keep] / q[chart], p[keep] * q[chart], chart)


def flow(pp0, z6, zeta, l, t_end, dt):
    """States of the dopri5 flow of tr L(zeta)^l, switching to the chart of
    the largest homogeneous coordinate once |qa| passes 1e3.  The rows of
    a batch are recentered one by one."""
    def rhs(pp):
        fq, fp = trace_power_gradient(pp, z6, zeta, l)
        return np.concatenate((-fp, fq))

    def shift(pp, incr):
        return sl2.GeomPhasePoint(pp.qa + incr[..., :3], pp.pa + incr[..., 3:],
                                  np.full(incr.shape[:-1], pp.chart))

    def recenter_one(pp):
        if np.abs(pp.qa).max() > 1e3:
            return to_chart(pp, int(np.argmax(np.abs(homogeneous(pp)[0]))))
        return pp

    def recenter(pp):
        if pp.qa.ndim == 1:
            return recenter_one(pp)
        rows = [recenter_one(pp[k]) for k in range(len(pp.qa))]
        return sl2.GeomPhasePoint(np.array([r.qa for r in rows]),
                                  np.array([r.pa for r in rows]),
                                  np.array([r.chart for r in rows]))

    return integrate(rhs, shift, pp0, dt, int(round(t_end / dt)), "dopri5",
                     recenter, lambda pp: np.abs(np.r_[pp.qa, pp.pa]))


def drift(states, z6, probe):
    """max_i |H_i - H_i(0)| and the largest move of the sorted eigenvalues
    of L(probe), per row of states."""
    z6 = np.asarray(z6, dtype=complex)
    hams, spectra = [], []
    for k in range(len(states.qa)):
        x = klein_x(states[k], sl2.KLEIN)
        hams.append([sum(x[i, j] ** 2 / (z6[i] - z6[j])
                         for j in range(6) if j != i) for i in range(6)])
        spectra.append(np.sort_complex(np.linalg.eigvals(
            probe * x + np.diag(z6))))
    hams, spectra = np.array(hams), np.array(spectra)
    return np.column_stack((np.abs(hams - hams[0]).max(axis=1),
                            np.abs(spectra - spectra[0]).max(axis=1)))
