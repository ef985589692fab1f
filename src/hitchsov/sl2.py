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


# Frozen calibration of the Klein convention (tests/sl2_oracle.py
# re-derives it): this sigma makes the x-matrix skew and the so(6)
# relations exact.
SIGMA = np.array([-1, 1, 1, -1, -1, 1])
KLEIN = _klein_tensor(SIGMA)

# Each chart c orders the homogeneous coordinates as (the three affine
# ones, c): (q, p) = ((qa, 1), (pa, -pa.qa)), so that p.q = 0.
# _KLEIN_AT[c] is KLEIN in that order with (a, b) flattened:
# x.ravel() = _KLEIN_AT[c] @ (q p^T).ravel().
_ORDER = np.array([[a for a in range(4) if a != c] + [c] for c in range(4)])
# _AT[c] reads homogeneous (q, p) from chart c's order
_AT = np.argsort(_ORDER, axis=1)
_KLEIN_AT = np.stack([KLEIN[:, :, o][:, :, :, o].reshape(36, 16)
                      for o in _ORDER])

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
        q, p = _homogeneous(self.qa[None], self.pa[None], [self.chart])
        return q[0], p[0]

    def to_chart(self, chart):
        q, p = self.homogeneous()
        s = q[chart]
        if abs(s) < 1e-12:
            raise ChartSingularity(f"q_{chart} vanishes")
        keep = _ORDER[chart, :3]
        return GeomPhasePoint(q[keep] / s, p[keep] * s, chart)


def _chart_qp(qa, pa):
    """(q, p) = ((qa, 1), (pa, -pa.qa)) in chart order, of one state or,
    for qa and pa of shape (m, 3), of m rows."""
    return (np.concatenate((qa, np.ones_like(qa[..., :1])), axis=-1),
            np.concatenate((pa, -(pa * qa).sum(axis=-1, keepdims=True)),
                           axis=-1))


def _x(q, p, chart):
    """x_ij = q_a KLEIN_ijab p_b of chart-ordered (q, p)."""
    return (_KLEIN_AT[chart] @ np.outer(q, p).ravel()).reshape(6, 6)


def x_matrix(pp: GeomPhasePoint):
    """Skew 6x6 Klein matrix of the phase point."""
    return _x(*_chart_qp(pp.qa, pp.pa), pp.chart)


def x_gradients(pp: GeomPhasePoint):
    """d x_ij / d(qa, pa) in the chart, shape (6, 6, 3) each."""
    q, p = _chart_qp(pp.qa, pp.pa)
    klein = _KLEIN_AT[pp.chart].reshape(6, 6, 4, 4)
    mp = klein @ p
    qm = q @ klein
    # p_c = -pa . qa depends on both arguments
    gq = mp[:, :, :3] - qm[:, :, 3, None] * pp.pa
    gp = qm[:, :, :3] - qm[:, :, 3, None] * pp.qa
    return gq, gp


def _skew(x):
    return np.linalg.norm(x + x.T) / max(np.linalg.norm(x), 1e-300)


def skew_defect(pp):
    return _skew(x_matrix(pp))


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


def _hamiltonians(x, z6):
    """H_i = sum_{j != i} x_ij^2 / (z_i - z_j) of x, or of a stack of x."""
    off = 1 - np.eye(6)
    return np.sum(x ** 2 * (off / (z6[:, None] - z6 + np.eye(6))), axis=-1)


def gp_hamiltonians(pp, z6):
    """H_i = sum_{j != i} x_ij^2 / (z_i - z_j)."""
    return _hamiltonians(x_matrix(pp), np.asarray(z6, dtype=complex))


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


@dataclass
class _Rows:
    """The flat state of the Lax flow: m rows v[k] = qa ++ pa, each in its
    own chart[k]; one state is a batch of one row."""
    v: np.ndarray           # (m, 6)
    chart: np.ndarray       # (m,)

    def __getitem__(self, k):
        """Row k, as a batch of one."""
        return _Rows(self.v[k, None], self.chart[k, None])


def _lax_velocity(z6, zeta, l):
    """Flow of {tr L(zeta)^l, .} on a one-row state: qdot = -F_p,
    pdot = F_q.

    x_ij = q_a KLEIN_ijab p_b makes d tr L^l = l zeta (dq.B p + q.B dp)
    with B_ab = sum_ij (L^(l-1))_ji KLEIN_ijab.  In chart order q_3 = 1
    and p_3 = -pa.qa, so F_q = l zeta ((B p)_:3 - (q B)_3 pa) and
    F_p = l zeta ((q B)_:3 - (q B)_3 qa).
    """
    diag = np.diag(np.asarray(z6, dtype=complex))
    scale = l * zeta * np.repeat([1, -1], 3)

    def rhs(state):
        v, chart = state.v[0], state.chart[0]
        q, p = _chart_qp(v[:3], v[3:])
        lpow = np.linalg.matrix_power(zeta * _x(q, p, chart) + diag, l - 1)
        b = (lpow.T.ravel() @ _KLEIN_AT[chart]).reshape(4, 4)
        qb, bp = q @ b, b @ p
        return scale * (qb[3] * v - np.concatenate((qb[:3], bp[:3])))
    return rhs


def _state(pp):
    """The one-row state of a phase point."""
    return _Rows(np.concatenate((pp.qa, pp.pa))[None], np.array([pp.chart]))


def _point(state):
    """The phase point of a one-row state."""
    return GeomPhasePoint(state.v[0, :3], state.v[0, 3:], int(state.chart[0]))


def _advance(state, incr):
    """The one-row state moved by incr, or by each row of incr."""
    v = state.v + incr
    return _Rows(v, np.repeat(state.chart, len(v)))


def _homogeneous(qa, pa, chart):
    """Homogeneous (q, p), shape (m, 4) each, of m rows (qa, pa) in their
    charts."""
    q, p = _chart_qp(qa, pa)
    at = _AT[chart]
    return np.take_along_axis(q, at, 1), np.take_along_axis(p, at, 1)


def _recenter(rows):
    """Switch each row whose affine coordinates pass 1e3 to the chart of
    its largest homogeneous coordinate."""
    far = np.abs(rows.v[:, :3]).max(axis=1) > 1e3
    if not far.any():
        return rows
    q, p = _homogeneous(rows.v[far, :3], rows.v[far, 3:], rows.chart[far])
    chart = np.abs(q).argmax(axis=1)
    s = np.take_along_axis(q, chart[:, None], 1)    # |s| > 1e3
    keep = _ORDER[chart, :3]
    v, charts = rows.v.copy(), rows.chart.copy()
    v[far] = np.concatenate((np.take_along_axis(q, keep, 1) / s,
                             np.take_along_axis(p, keep, 1) * s), axis=1)
    charts[far] = chart
    return _Rows(v, charts)


def lax_drift(states, z6, zeta):
    """Drift from states[0] along states, one row per state.

    Column 0 is max_i |H_i - H_i(0)| of the quadratic Hamiltonians and
    column 1 the largest move of the sorted eigenvalues of L(probe), at
    probe = zeta/2 + 0.25i.
    """
    probe = 0.5 * zeta + 0.25j
    z6 = np.asarray(z6, dtype=complex)
    q, p = _homogeneous(np.array([s.qa for s in states]),
                        np.array([s.pa for s in states]),
                        [s.chart for s in states])
    x = np.einsum('na,ijab,nb->nij', q, KLEIN, p)
    hams = _hamiltonians(x, z6)
    spectra = np.sort_complex(np.linalg.eigvals(probe * x + np.diag(z6)))
    return np.column_stack((np.abs(hams - hams[0]).max(axis=1),
                            np.abs(spectra - spectra[0]).max(axis=1)))


def lax_flow(pp0: GeomPhasePoint, z6, zeta, l, t_end, dt):
    """Canonical flow of tr L(zeta)^l with an isospectrality report.

    Dormand-Prince 5(4) steps (``flows.integrate``, scheme dopri5) choose
    their own sizes; the states at t = k dt come from the continuous
    extension, so dt is only their spacing.  Each row whose affine
    coordinates grow large moves to another chart.  Returns (states,
    report) with the two drifts of lax_drift from the first to the last
    state.
    """
    states = [_point(s) for s in integrate(
        _lax_velocity(z6, zeta, l), _advance, _state(pp0), dt,
        int(round(t_end / dt)), "dopri5", _recenter, lambda s: np.abs(s.v))]
    ham_drift, eig_drift = lax_drift([states[0], states[-1]], z6, zeta)[-1]
    report = {
        "eigenvalue_drift": float(eig_drift),
        "hamiltonian_drift": float(ham_drift),
    }
    return states, report


def lax_residual(pp, z6, zeta, zeta_p, l):
    """|dL/dt - [M_l, L]| at pp, with dL/dt = zeta' dx/dt from the velocity.

    x is bilinear in chart-ordered (q, p), so dx/dt = x(dq, p) + x(q, dp)
    with dq = (dqa, 0) and dp = (dpa, -(dpa.qa + pa.dqa)).
    """
    dqa, dpa = np.split(_lax_velocity(z6, zeta, l)(_state(pp)), 2)
    q, p = _chart_qp(pp.qa, pp.pa)
    dq = np.append(dqa, 0.0)
    dp = np.append(dpa, -(dpa @ pp.qa + pp.pa @ dqa))
    dl_dt = zeta_p * (_x(dq, p, pp.chart) + _x(q, dp, pp.chart))
    lz, m = lax_pair(pp, z6, zeta, zeta_p, l)
    return np.linalg.norm(dl_dt - (m @ lz - lz @ m))
