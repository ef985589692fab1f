"""The rank-2 genus-2 system on T*P^3: Klein coordinates and Lax flows.

Six linear maps epsilon_i send a point q of P^3 to hyperplanes; the line
through epsilon_i(q) and the covector p has Plucker coordinates, and a
fixed Klein matrix turns them into a skew 6x6 matrix x satisfying the
so(6) bracket relations.  The Hamiltonians H_i = sum x_ij^2/(z_i - z_j)
commute, and the flows admit a Lax representation L(zeta) = zeta x +
diag(z).
"""

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import (DegenerateLine, PoleCollision, ChartSingularity)
from .flows import integrate

# rows of epsilon_i as (source index, sign) per output component
_EPSILON_SPECS = (
    ((1, 1), (0, -1), (3, 1), (2, -1)),
    ((1, 1), (0, -1), (3, -1), (2, 1)),
    ((2, 1), (3, 1), (0, -1), (1, -1)),
    ((2, 1), (3, -1), (0, -1), (1, 1)),
    ((3, 1), (2, 1), (1, -1), (0, -1)),
    ((3, 1), (2, -1), (1, 1), (0, -1)),
)


def _emat(spec):
    e = np.zeros((4, 4))
    for r, (c, s) in enumerate(spec):
        e[r, c] = s
    return e


EPSILON = np.array([_emat(s) for s in _EPSILON_SPECS])


def _klein_tensor(sigma):
    """KLEIN[i, j] = d_i d_j epsilon_i^T C_j of the convention sigma.

    C_j = (sigma_j / 2) epsilon_j, and d_i = i where sigma_i < 0, else 1.
    """
    d = np.where(sigma < 0, 1j, 1.0 + 0j)
    c = 0.5 * sigma[:, None, None] * EPSILON
    return np.einsum('i,j,iba,jbc->ijac', d, d, EPSILON, c)


# Frozen calibration of the Klein convention (see calibrate_convention):
# this sigma makes the x-matrix skew and the so(6) relations exact.
SIGMA = np.array([-1, 1, 1, -1, -1, 1])
KLEIN = _klein_tensor(SIGMA)

_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))


def plucker(a, p):
    """Line coordinates pi_mu_nu = a_mu p_nu - a_nu p_mu through a and p."""
    a = np.asarray(a, dtype=complex)
    p = np.asarray(p, dtype=complex)
    pi = np.array([a[m] * p[n] - a[n] * p[m] for m, n in _PAIRS])
    scale = max(np.abs(a).max() * np.abs(p).max(), 1e-300)
    if np.abs(pi).max() < 1e-12 * scale:
        raise DegenerateLine("points are proportional")
    return pi


def plucker_relation(pi):
    """The quadric identity pi01 pi23 - pi02 pi13 + pi03 pi12 of a line."""
    return pi[0] * pi[5] - pi[1] * pi[4] + pi[2] * pi[3]


@dataclass
class GeomPhasePoint:
    """Point of T*P^3 in an affine chart.

    qa are the three affine coordinates (homogeneous coordinate `chart`
    set to 1) and pa the conjugate momenta.
    """
    qa: np.ndarray
    pa: np.ndarray
    chart: int = 3

    def __post_init__(self):
        self.qa = np.asarray(self.qa, dtype=complex)
        self.pa = np.asarray(self.pa, dtype=complex)

    def homogeneous(self):
        """Homogeneous (q, p) with the incidence p.q = 0."""
        q = np.insert(self.qa, self.chart, 1.0)
        p_rest = self.pa
        p_chart = -p_rest @ self.qa
        p = np.insert(p_rest, self.chart, p_chart)
        return q, p

    def to_chart(self, chart):
        q, p = self.homogeneous()
        s = q[chart]
        if abs(s) < 1e-12:
            raise ChartSingularity(f"q_{chart} vanishes")
        q = q / s
        p = p * s
        keep = [a for a in range(4) if a != chart]
        return GeomPhasePoint(q[keep], p[keep], chart)


def _klein_x(pp, klein):
    q, p = pp.homogeneous()
    return np.einsum('a,ijab,b->ij', q, klein, p)


def _klein_gradients(pp, klein):
    q, p = pp.homogeneous()
    c = pp.chart
    keep = [a for a in range(4) if a != c]
    mp = np.einsum('ijab,b->ija', klein, p)
    qm = np.einsum('a,ijab->ijb', q, klein)
    # p_c = -pa . qa depends on both arguments
    gq = mp[:, :, keep] - qm[:, :, c, None] * pp.pa
    gp = qm[:, :, keep] - qm[:, :, c, None] * pp.qa
    return gq, gp


def x_matrix(pp: GeomPhasePoint):
    """Skew 6x6 Klein matrix of the phase point."""
    return _klein_x(pp, KLEIN)


def x_gradients(pp: GeomPhasePoint):
    """d x_ij / d(qa, pa) in the chart, shape (6, 6, 3) each."""
    return _klein_gradients(pp, KLEIN)


def _skew(x):
    return np.linalg.norm(x + x.T) / max(np.linalg.norm(x), 1e-300)


def skew_defect(pp):
    return _skew(x_matrix(pp))


def calibrate_convention(rng=None, trials=3):
    """Search the finite set of Klein conventions for the consistent one.

    Candidates are sign patterns sigma in {+-1}^6 defining C_j =
    (sigma_j/2) epsilon_j with conjugation factors i on the negative
    entries.  Returns the (sigma, defect) pair minimizing the combined
    skew and so(6) defect; the shipped SIGMA is the frozen winner.
    """
    if rng is None:
        rng = np.random.default_rng(0)
    pts = [GeomPhasePoint(rng.standard_normal(3) + 1j * rng.standard_normal(3),
                          rng.standard_normal(3) + 1j * rng.standard_normal(3))
           for _ in range(trials)]
    best, best_def = None, np.inf
    for bits in itertools.product((1, -1), repeat=6):
        sigma = np.array(bits)
        klein = _klein_tensor(sigma)
        defect = max(_skew(_klein_x(pp, klein)) for pp in pts)
        if defect < 1e-10:
            defect += _bracket_residuals(
                _klein_x(pts[0], klein), *_klein_gradients(pts[0], klein))[0]
        if defect < best_def:
            best, best_def = sigma, defect
    return best, best_def


def _bracket_residuals(x, gq, gp):
    def pb(i1, j1, i2, j2):
        return np.sum(gq[i1, j1] * gp[i2, j2] - gp[i1, j1] * gq[i2, j2])

    adjacent = max(abs(pb(n, m, m, p) + x[n, p])
                   for n, m, p in itertools.permutations(range(6), 3))
    disjoint = max(abs(pb(n, m, p, q))
                   for n, m, p, q in itertools.permutations(range(6), 4))
    return adjacent, disjoint


def so6_relations(pp):
    """Worst residuals of the so(6) bracket relations at a phase point.

    Returns (adjacent, disjoint): max |{x_nm, x_mp} + x_np| over triples
    and max |{x_nm, x_pq}| over disjoint index pairs.
    """
    return _bracket_residuals(x_matrix(pp), *x_gradients(pp))


def gp_hamiltonians(pp, z6):
    """H_i = sum_{j != i} x_ij^2 / (z_i - z_j)."""
    z6 = np.asarray(z6, dtype=complex)
    x = x_matrix(pp)
    out = np.empty(6, dtype=complex)
    for i in range(6):
        out[i] = sum(x[i, j] ** 2 / (z6[i] - z6[j])
                     for j in range(6) if j != i)
    return out


def lax_pair(pp, z6, zeta, zeta_p, l):
    """(L(zeta'), M_l(zeta, zeta')) of the hierarchy."""
    if abs(zeta - zeta_p) < 1e-10 or abs(zeta + zeta_p) < 1e-10:
        raise PoleCollision("zeta' collides with a pole of M at +-zeta")
    z6 = np.asarray(z6, dtype=complex)
    x = x_matrix(pp)
    lz = zeta_p * x + np.diag(z6)
    l_at = zeta * x + np.diag(z6)
    l_neg = -zeta * x + np.diag(z6)
    m = (l * zeta * zeta_p / (zeta - zeta_p)
         * np.linalg.matrix_power(l_at, l - 1)
         + l * zeta * zeta_p / (zeta + zeta_p)
         * np.linalg.matrix_power(l_neg, l - 1))
    return lz, m


def _trace_power_gradient(pp, z6, zeta, l):
    """Analytic chart gradient of tr L(zeta)^l."""
    z6 = np.asarray(z6, dtype=complex)
    x = x_matrix(pp)
    lmat = zeta * x + np.diag(z6)
    lpow = np.linalg.matrix_power(lmat, l - 1)
    gq, gp = x_gradients(pp)
    # d tr L^l = l tr(L^(l-1) dL), dL = zeta dX
    fq = l * zeta * np.einsum('mn,nma->a', lpow, gq)
    fp = l * zeta * np.einsum('mn,nma->a', lpow, gp)
    return fq, fp


def _lax_velocity(z6, zeta, l):
    """Flow of {tr L(zeta)^l, .} on (qa, pa): qdot = -F_p, pdot = F_q."""
    def rhs(pp):
        fq, fp = _trace_power_gradient(pp, z6, zeta, l)
        return np.concatenate((-fp, fq))
    return rhs


def _shift(pp, incr):
    return GeomPhasePoint(pp.qa + incr[:3], pp.pa + incr[3:], pp.chart)


def _recenter(pp, step):
    """Switch to the chart of the largest homogeneous coordinate once the
    affine coordinates grow large."""
    if np.abs(pp.qa).max() > 1e3:
        q_hom, _ = pp.homogeneous()
        return pp.to_chart(int(np.argmax(np.abs(q_hom))))
    return pp


def lax_drift(states, z6, zeta, l, probe=None):
    """Drift from states[0] along states, one row per state.

    Column 0 is max_i |H_i - H_i(0)| of the quadratic Hamiltonians and
    column 1 the largest move of the sorted eigenvalues of L(probe).
    """
    if probe is None:
        probe = 0.5 * zeta + 0.25j
    hams = np.array([gp_hamiltonians(pp, z6) for pp in states])
    spectra = np.array([np.sort_complex(np.linalg.eigvals(
        lax_pair(pp, z6, zeta, probe, l)[0])) for pp in states])
    return np.column_stack((np.abs(hams - hams[0]).max(axis=1),
                            np.abs(spectra - spectra[0]).max(axis=1)))


def lax_flow(pp0: GeomPhasePoint, z6, zeta, l, t_end, dt, probe=None):
    """RK4 canonical flow of tr L(zeta)^l with an isospectrality report.

    The chart is switched automatically when the affine coordinates grow
    large.  Returns (states, report) with the eigenvalue drift of
    L(probe) and the drift of the quadratic Hamiltonians.
    """
    z6 = np.asarray(z6, dtype=complex)
    pp = GeomPhasePoint(pp0.qa.copy(), pp0.pa.copy(), pp0.chart)
    states = integrate(_lax_velocity(z6, zeta, l), _shift, pp, dt,
                       int(round(t_end / dt)), after=_recenter)
    ham_drift, eig_drift = lax_drift(
        [states[0], states[-1]], z6, zeta, l, probe)[-1]
    report = {
        "eigenvalue_drift": float(eig_drift),
        "hamiltonian_drift": float(ham_drift),
    }
    return states, report


def lax_residual(pp, z6, zeta, zeta_p, l, h=1e-5):
    """|dL/dt - [M_l, L]| with the time derivative by Richardson FD."""
    rhs = _lax_velocity(z6, zeta, l)

    def deriv(step):
        fwd = integrate(rhs, _shift, pp, step, 1)[-1]
        bwd = integrate(rhs, _shift, pp, -step, 1)[-1]
        la = lax_pair(fwd, z6, zeta, zeta_p, l)[0]
        lb = lax_pair(bwd, z6, zeta, zeta_p, l)[0]
        return (la - lb) / (2 * step)

    d1 = deriv(h)
    d2 = deriv(h / 2)
    dl_dt = (4 * d2 - d1) / 3
    lz, m = lax_pair(pp, z6, zeta, zeta_p, l)
    return np.linalg.norm(dl_dt - (m @ lz - lz @ m))
