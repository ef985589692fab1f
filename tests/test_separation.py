import numpy as np
import pytest

from hitchsov.errors import SingularConfiguration
from hitchsov.spectral import (resolve_type, coefficient_layout,
                               SpectralPoint, eval_R)
from hitchsov.separation import (PhaseConfiguration, solve_hamiltonians,
                                 implicit_gradients, involution_check,
                                 validate_configuration)

from conftest import sample_fiber_config, random_config

LINEAR_FAMILIES = ["GL", "SL", "SO_odd", "SP"]


class TestValidation:
    def test_point_off_curve(self, curve_c, gl2):
        pts = [SpectralPoint(0.1 * k + 0.2j, 1.0, 0.5) for k in range(5)]
        with pytest.raises(SingularConfiguration):
            validate_configuration(PhaseConfiguration(pts), curve_c, gl2)

    def test_wrong_count(self, curve_c, gl2):
        x = 0.3 + 0.1j
        y = np.sqrt(complex(curve_c.p(x)))
        with pytest.raises(SingularConfiguration):
            validate_configuration(
                PhaseConfiguration([SpectralPoint(x, y, 0.5)]), curve_c, gl2)

    def test_points_round_trip(self):
        pts = [SpectralPoint(0.1 * k + 0.2j, 1.0 - k, 0.5j * k)
               for k in range(5)]
        cfg = PhaseConfiguration(pts)
        assert cfg.x.shape == cfg.y.shape == cfg.lam.shape == (5,)
        assert cfg.points == pts

    def test_coincident_x_rejected(self, curve_c, gl2):
        x = 0.3 + 0.1j
        y = np.sqrt(complex(curve_c.p(x)))
        pts = [SpectralPoint(x, y, 0.1 * k) for k in range(5)]
        with pytest.raises(SingularConfiguration):
            validate_configuration(PhaseConfiguration(pts), curve_c, gl2)


class TestLinearSolve:
    """The two typed failures of the linear solve, from constructed
    inputs on GL(2): R = lambda^2 + B1 lambda + B2, linear in H."""

    @staticmethod
    def config(curve, lams):
        xs = 0.1 + (0.3 + 0.2j) * np.arange(5)
        return PhaseConfiguration([SpectralPoint(x, np.sqrt(curve.p(x)), lam)
                                   for x, lam in zip(xs, lams)])

    def test_singular(self, curve_c, gl2):
        # every lambda = 0 zeroes the columns of the B1 block
        with pytest.raises(SingularConfiguration, match="Singular matrix"):
            solve_hamiltonians(gl2, curve_c, self.config(curve_c, [0.0] * 5))

    def test_residual_not_finite(self, curve_c, gl2):
        # lambda^2 overflows at one point, so the residual is not finite
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(
                SingularConfiguration, match="linear solve residual nan"):
            solve_hamiltonians(gl2, curve_c, self.config(
                curve_c, [1e200, 2.0, 3.0, 4.0, 5.0]))


class TestForwardBackward:
    @pytest.mark.parametrize("family", LINEAR_FAMILIES)
    def test_planted_recovery(self, family, curve_c):
        rng = np.random.default_rng(21)
        layout = coefficient_layout(resolve_type(family, 2), curve_c)
        for _ in range(5):
            ham = rng.standard_normal(layout.h) \
                + 1j * rng.standard_normal(layout.h)
            cfg = sample_fiber_config(layout, curve_c, ham, rng)
            got = solve_hamiltonians(layout, curve_c, cfg)
            err = np.abs(got - ham).max() / np.abs(ham).max()
            assert err < 1e-8

    def test_so_even_fixed_configuration(self, curve_c):
        """The quadratic family is checked on the separating identity.

        Interpolation through h fiber samples does not pin down the
        quadratic last block uniquely, so the forward-backward loop
        verifies that the solved coefficients annihilate R on the very
        configuration that produced them.
        """
        rng = np.random.default_rng(22)
        layout = coefficient_layout(resolve_type("SO_even", 2), curve_c)
        for _ in range(3):
            ham = rng.standard_normal(layout.h) \
                + 1j * rng.standard_normal(layout.h)
            cfg = sample_fiber_config(layout, curve_c, ham, rng)
            got = solve_hamiltonians(layout, curve_c, cfg,
                                     rng=np.random.default_rng(0))
            scale = (1 + np.abs(cfg.lam).max()) ** layout.spec.d
            for p in cfg.points:
                assert abs(eval_R(layout, curve_c, got, p).value) \
                    < 1e-8 * scale


class TestBrackets:
    def test_canonical_pair(self, curve_c, gl2):
        """{lambda_i, x_i} = y_i on the separating coordinates."""
        rng = np.random.default_rng(3)
        cfg = random_config(gl2, curve_c, rng)
        h = gl2.h
        # gradients of the coordinate functions lambda_1 and x_1
        e = np.zeros(h)
        e[0] = 1.0
        lam_grads = (e, np.zeros(h))
        x_grads = (np.zeros(h), e)
        # {f, g} = sum_i y_i (f_lam_i g_x_i - g_lam_i f_x_i)
        br = np.sum(cfg.y * (lam_grads[0] * x_grads[1]
                             - x_grads[0] * lam_grads[1]))
        assert abs(br - cfg.points[0].y) < 1e-14 * (1 + abs(br))

    @pytest.mark.parametrize("family",
                             ["GL", "SL", "SO_odd", "SP", "SO_even"])
    def test_involution(self, family, curve_c):
        rng = np.random.default_rng(31)
        layout = coefficient_layout(resolve_type(family, 2), curve_c)
        for _ in range(3):
            if layout.spec.square_last:
                ham = rng.standard_normal(layout.h) \
                    + 1j * rng.standard_normal(layout.h)
                cfg = sample_fiber_config(layout, curve_c, ham, rng)
            else:
                cfg = random_config(layout, curve_c, rng)
                ham = solve_hamiltonians(layout, curve_c, cfg)
            br, scale = involution_check(layout, curve_c, cfg, ham)
            assert (br / scale).max() < 1e-7

    def test_implicit_gradients_fd(self, curve_c, gl2):
        """Columns of dH/dlam match finite differences of the solve."""
        rng = np.random.default_rng(13)
        cfg = random_config(gl2, curve_c, rng)
        ham = solve_hamiltonians(gl2, curve_c, cfg)
        dh_dlam, _ = implicit_gradients(gl2, curve_c, cfg, ham)
        k, h = 2, 1e-7
        pts = list(cfg.points)
        p = pts[k]
        for sgn in (+1, -1):
            pts[k] = SpectralPoint(p.x, p.y, p.lam + sgn * h)
            if sgn > 0:
                up = solve_hamiltonians(gl2, curve_c,
                                        PhaseConfiguration(pts))
            else:
                dn = solve_hamiltonians(gl2, curve_c,
                                        PhaseConfiguration(pts))
        fd = (up - dn) / (2 * h)
        assert np.abs(dh_dlam[:, k] - fd).max() < 1e-5 * (1 + np.abs(fd).max())
