"""Acceptance gate: the ten release criteria, one pass/fail line each.

Run with `pytest -v -s tests/test_acceptance.py` to see the lines as the
criteria complete; each test prints exactly one PASS line on success
(pytest reports FAIL through the usual assertion machinery).
"""

import numpy as np
import pytest

from hitchsov.curves import abel_map, build_curve, continue_y
from hitchsov.spectral import (resolve_type, coefficient_layout,
                               SpectralPoint, eval_R, lambda_roots,
                               _track_roots)
from hitchsov.separation import solve_hamiltonians, involution_check
from hitchsov.flows import (jacobi_matrix, flow_fiber, flow_poisson,
                            match_states, angle_increments,
                            hamiltonian_drift, discriminant_zero_count)
from hitchsov.theta import riemann_theta, jacobi_inversion_check
from hitchsov import sl2
from hitchsov import parabolic as pb

from conftest import make_curve, sample_fiber_config, random_config
from test_parabolic import partitions
from flow_oracle import angle_integrand
from test_theta import q_series_theta, random_tau

FAMILIES = ["GL", "SL", "SO_odd", "SP", "SO_even"]

DIMS = {"GL": lambda n: n * n, "SL": lambda n: n * n - 1,
        "SO_odd": lambda n: n * (2 * n + 1), "SP": lambda n: n * (2 * n + 1),
        "SO_even": lambda n: n * (2 * n - 1)}


def report(line):
    print(f"\nPASS: {line}")


def test_criterion_1_kostant_layout_audit():
    for family in FAMILIES:
        for rank in range(1, 5):
            if rank < 2 and family != "GL":
                continue
            spec = resolve_type(family, rank)
            dim = DIMS[family](rank)
            assert sum(2 * d - 1 for d in spec.deltas) == dim
            for genus in (2, 3):
                curve = make_curve(range(1, 2 * genus + 2))
                layout = coefficient_layout(spec, curve)
                expect = dim * (genus - 1) + (1 if family == "GL" else 0)
                assert layout.h == expect
    report("criterion 1 - Kostant identity and coefficient counts exact "
           "for all families, ranks <= 4, g in {2,3}")


def test_criterion_2_involution(curve_c):
    worst = 0.0
    for family, rank in [("GL", 2), ("SL", 2), ("SP", 2), ("SO_odd", 2)]:
        layout = coefficient_layout(resolve_type(family, rank), curve_c)
        rng = np.random.default_rng(100)
        for _ in range(20):
            cfg = random_config(layout, curve_c, rng)
            ham = solve_hamiltonians(layout, curve_c, cfg)
            br, scale = involution_check(layout, curve_c, cfg, ham)
            worst = max(worst, float((br / scale).max()))
    assert worst < 1e-7
    report(f"criterion 2 - involution: max normalized bracket {worst:.2e} "
           "< 1e-7 over GL(2)/SL(2)/SP(4)/SO(5), 20 configs each")


def test_criterion_3_forward_backward(curve_c):
    worst = 0.0
    for family in FAMILIES:
        layout = coefficient_layout(resolve_type(family, 2), curve_c)
        rng = np.random.default_rng(200)
        for _ in range(50):
            ham = rng.standard_normal(layout.h) \
                + 1j * rng.standard_normal(layout.h)
            cfg = sample_fiber_config(layout, curve_c, ham, rng)
            got = solve_hamiltonians(layout, curve_c, cfg,
                                     rng=np.random.default_rng(0))
            if layout.spec.square_last:
                # quadratic last block: interpolation through h samples is
                # not injective, so verify on the separating identity
                scale = (1 + np.abs(cfg.lam).max()) ** layout.spec.d
                err = max(abs(eval_R(layout, curve_c, got, p).value)
                          for p in cfg.points) / scale
            else:
                err = np.abs(got - ham).max() / np.abs(ham).max()
            worst = max(worst, err)
    assert worst < 1e-8
    report(f"criterion 3 - forward-backward: worst relative error "
           f"{worst:.2e} < 1e-8 over 50 trials per family")


@pytest.fixture(scope="module")
def gl2_flow(curve_c, gl2):
    rng = np.random.default_rng(300)
    ham = rng.standard_normal(gl2.h) + 1j * rng.standard_normal(gl2.h)
    cfg = sample_fiber_config(gl2, curve_c, ham, rng)
    c = jacobi_matrix(gl2, curve_c, ham, cfg) \
        @ (0.1 * rng.standard_normal(gl2.h))
    t_end, dt = 1.0, 1e-3
    tf = flow_fiber(gl2, curve_c, ham, cfg, c, t_end, dt)
    tp = flow_poisson(gl2, curve_c, cfg, c, t_end, dt)
    return ham, cfg, c, tf, tp


def test_criterion_4_two_route_flow(curve_c, gl2, gl2_flow):
    ham, cfg, c, tf, tp = gl2_flow
    dist = match_states(tf.states[-1], tp.states[-1])
    assert dist < 1e-6
    drift = max(hamiltonian_drift(gl2, curve_c, tf),
                hamiltonian_drift(gl2, curve_c, tp))
    assert drift < 1e-7
    # Euler first-order scaling against the dopri5 reference
    t_short = 0.1
    ref = flow_fiber(gl2, curve_c, ham, cfg, c, t_short, 1e-3)
    e1 = flow_fiber(gl2, curve_c, ham, cfg, c, t_short, 2e-3,
                    scheme="euler")
    e2 = flow_fiber(gl2, curve_c, ham, cfg, c, t_short, 1e-3,
                    scheme="euler")
    r = match_states(e1.states[-1], ref.states[-1]) \
        / match_states(e2.states[-1], ref.states[-1])
    assert 1.8 < r < 2.2
    report(f"criterion 4 - two-route flow: distance {dist:.2e} < 1e-6, "
           f"Hamiltonian drift {drift:.2e} < 1e-7, Euler ratio {r:.3f}")


def test_criterion_5_angle_linearity(curve_c, gl2, gl2_flow):
    ham, cfg, c, tf, tp = gl2_flow
    # exact increments of phi along the rows of each route
    err = max(np.abs(angle_increments(gl2, curve_c, ham, traj)
                     - np.outer(traj.times, c)).max() for traj in (tf, tp))
    t_end = float(tf.times[-1])
    assert err < 1e-10 * t_end
    report(f"criterion 5 - angle linearity: |phi(t)-phi(0)-ct| {err:.2e} "
           f"< 1e-10 t over t = {t_end:g}, both routes")


def test_criterion_6_prym_parity(curve_c):
    rng = np.random.default_rng(600)
    worst = 0.0
    evals = 0
    for family in ("SO_odd", "SP"):
        layout = coefficient_layout(resolve_type(family, 2), curve_c)
        ham = rng.standard_normal(layout.h) \
            + 1j * rng.standard_normal(layout.h)
        while evals < (50 if family == "SO_odd" else 100):
            x = rng.standard_normal() + 1j * rng.standard_normal()
            y = np.sqrt(complex(curve_c.p(x)))
            lam = 1.0 + rng.random() + 1j * rng.random()
            j = int(rng.integers(layout.h))
            plus = angle_integrand(layout, ham, j, SpectralPoint(x, y, lam))
            minus = angle_integrand(layout, ham, j, SpectralPoint(x, y, -lam))
            worst = max(worst, abs(plus + minus) / (1 + abs(plus)))
            evals += 1
    assert evals == 100 and worst < 1e-12
    report(f"criterion 6 - Prym parity: anti-invariance residual "
           f"{worst:.2e} < 1e-12 on 100 evaluations")


def swapped(layout, curve, ham, centre, radius, sheet, steps=400):
    """Carry both fiber roots of the d = 2 cover by _track_roots once round
    the circle |x - centre| = radius, on the y-sheet of sign sheet at its
    start; True when they arrive exchanged."""
    x = centre + radius * np.exp(2j * np.pi * np.arange(steps + 1) / steps)
    y = continue_y(curve, x, sheet * np.sqrt(complex(curve.p(x[0]))))
    lam = start = lambda_roots(layout, curve, ham, x[0], y[0])
    for xk, yk in zip(x[1:], y[1:]):
        lam = _track_roots(layout, ham, np.full(2, xk), np.full(2, yk), lam)
    # back on the fiber above x[0], one root each
    gap = np.abs(lam[:, None] - start[None, :])
    assert gap.min(axis=1).max() < 1e-9 * (1 + np.abs(start).max())
    assert gap.argmin(axis=1)[0] != gap.argmin(axis=1)[1]
    return bool(gap[0, 1] < gap[0, 0])


def test_criterion_7_branch_count(curve_c, gl2, gl2_flow):
    ham = gl2_flow[0]
    count = discriminant_zero_count(gl2, ham)
    assert count == 8
    ghat = 2 * curve_c.genus - 1 + count // 4
    assert ghat == 4 * (curve_c.genus - 1) + 1 == 5
    # independently: the two fiber roots swap round each x-root of the
    # discriminant B1^2 - 4 B2, on each y-sheet, and not round a circle
    # that encloses none
    b1, b2 = ham[gl2.x_slice(0)], ham[gl2.x_slice(1)]
    npoly = np.polynomial.polynomial
    disc = npoly.polyroots(npoly.polysub(npoly.polymul(b1, b1), 4 * b2))
    special = np.r_[disc, curve_c.branch_points]
    sep = np.abs(special[:, None] - special[None, :])
    radius = 0.125 * sep[sep > 0].min()
    swaps = sum(swapped(gl2, curve_c, ham, e, radius, sheet)
                for e in disc for sheet in (1, -1))
    assert swaps == 2 * len(disc) == 4
    assert not any(swapped(gl2, curve_c, ham, disc[0] + 3 * radius, radius,
                           sheet) for sheet in (1, -1))
    # Riemann-Hurwitz for the 2-sheeted cover of the genus-g base
    ghat = 2 * (curve_c.genus - 1) + 1 + swaps // 2
    assert ghat == gl2.h == 5
    report("criterion 7 - branch count: 8 weighted discriminant zeros, "
           "spectral genus 5 via Riemann-Hurwitz; the fiber roots swap "
           "round all 4 ramification points and no other circle")


def test_criterion_8_theta_suite(curve15, theta15):
    # quasi-periodicity, g <= 3
    qp = 0.0
    for g in (1, 2, 3):
        rng = np.random.default_rng(800 + g)
        tau = random_tau(g, rng)
        z = rng.standard_normal(g) + 1j * rng.standard_normal(g)
        m = rng.integers(-2, 3, size=g).astype(float)
        n = rng.integers(-2, 3, size=g).astype(float)
        fac = np.exp(-1j * np.pi * n @ tau @ n - 2j * np.pi * n @ z)
        t0 = riemann_theta(z, tau)
        t1 = riemann_theta(z + m + tau @ n, tau)
        qp = max(qp, abs(t1 - fac * t0) / abs(fac * t0))
    assert qp < 1e-10
    # g = 1 independent q-series
    rng = np.random.default_rng(801)
    tau1 = np.array([[0.2 + 1.1j]])
    z1 = np.array([0.37 + 0.21j])
    q_err = abs(riemann_theta(z1, tau1) - q_series_theta(z1, tau1))
    assert q_err < 1e-12
    # sigma routes and Jacobi inversion on branch points {1..5}
    rng = np.random.default_rng(802)

    def pick():
        pts = []
        for _ in range(curve15.genus):
            x = rng.standard_normal() + 1j * rng.standard_normal()
            y = np.sqrt(complex(curve15.p(x)))
            if rng.random() < 0.5:
                y = -y
            pts.append(curve15.point(x, y))
        return pts

    rep = jacobi_inversion_check(curve15, theta15, pick(), pick())
    assert rep["route_gap"] < 1e-6
    assert rep["error"] < 1e-5
    report(f"criterion 8 - theta suite: quasi-periodicity {qp:.2e}, "
           f"q-series gap {q_err:.2e}, sigma routes {rep['route_gap']:.2e},"
           f" Jacobi inversion {rep['error']:.2e}")


def test_criterion_9_sl2():
    rng = np.random.default_rng(900)
    z6 = rng.standard_normal(6) + 1j * rng.standard_normal(6)
    pp = sl2.GeomPhasePoint(
        rng.standard_normal(3) + 1j * rng.standard_normal(3),
        rng.standard_normal(3) + 1j * rng.standard_normal(3))
    skew = sl2.skew_defect(pp)
    adj, dis = sl2.so6_relations(pp)
    assert max(skew, adj, dis) < 1e-8
    # tr L(zeta)^2 flow: isospectral drift per unit time
    _, rep2 = sl2.lax_flow(pp, z6, 0.3, 2, 1.0, 1e-2)
    assert rep2["eigenvalue_drift"] < 1e-6
    # conserved quantities and Lax residual on the first nontrivial flow
    _, rep4 = sl2.lax_flow(pp, z6, 0.3, 4, 0.2, 5e-4)
    assert rep4["hamiltonian_drift"] < 1e-6
    resid = sl2.lax_residual(pp, z6, 0.3, 0.51, 4)
    assert resid < 1e-6
    report(f"criterion 9 - SL2: so(6)/skew {max(skew, adj, dis):.2e}, "
           f"quadratic-flow drift {rep2['eigenvalue_drift']:.2e}, "
           f"Hamiltonian drift {rep4['hamiltonian_drift']:.2e}, "
           f"Lax residual {resid:.2e}")


def test_criterion_10_parabolic():
    # the ord pattern (1,1,2,2) with factor degrees (2,2)
    f = pb.LocalCharPoly.from_lists([[0, 1], [0, 3], [0, 0, 1], [0, 0, 2]])
    rep = pb.newton_eisenstein_check(f, expected_mu=(2, 2))
    assert rep["orders"] == [1, 1, 2, 2]
    assert rep["factor_degrees"] == (2, 2) and rep["matches_expected"]
    # dual involution on all partitions of r <= 12
    for r in range(1, 13):
        for p in partitions(r):
            assert pb.dual_partition(pb.dual_partition(p)) == p
    # full flag anywhere forces Delta_P = 1
    for other in [(2, 2), (4,), (3, 1)]:
        ptype = pb.ParabolicType(2, 4, [pb.MarkedPoint(other),
                                        pb.MarkedPoint((1, 1, 1, 1))])
        assert pb.delta_p(ptype) == 1
    # hand-computed Riemann-Roch dimensions
    from test_parabolic import TestDims
    for genus, rank, parts, expect in TestDims.CASES:
        ptype = pb.ParabolicType(genus, rank,
                                 [pb.MarkedPoint(p) for p in parts])
        assert pb.parabolic_base_dims(ptype)[0] == expect
    report("criterion 10 - parabolic suite: (2,2) example, dual involution "
           "r <= 12, full-flag Delta_P = 1, 10 Riemann-Roch cases")
