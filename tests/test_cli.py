import json

import numpy as np
import pytest
from click.testing import CliRunner

from hitchsov.cli import main, export_plot
from hitchsov.flows import Trajectory
from hitchsov.spectral import SpectralPoint
from hitchsov.separation import PhaseConfiguration

npoly = np.polynomial.polynomial


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


@pytest.fixture(scope="module")
def gl2_input(tmp_path_factory):
    """Consistent GL(2) genus-2 system description on disk."""
    from hitchsov.curves import build_curve
    from hitchsov.spectral import resolve_type, coefficient_layout
    from hitchsov.flows import jacobi_matrix
    from conftest import sample_fiber_config

    rng = np.random.default_rng(3)
    coeffs = npoly.polyfromroots([0.0, 1.0, -1.2, 2.0 + 0.5j, -0.3 - 1.1j])
    cv = build_curve(coeffs)
    layout = coefficient_layout(resolve_type("GL", 2), cv)
    ham = rng.standard_normal(layout.h) + 1j * rng.standard_normal(layout.h)
    cfg = sample_fiber_config(layout, cv, ham, rng)
    c = jacobi_matrix(layout, cv, ham, cfg) @ (0.1 * rng.standard_normal(5))
    data = {
        "curve": {"coeffs": [_pair(z) for z in coeffs]},
        "lie_type": {"family": "GL", "rank": 2},
        "points": [{"x": _pair(p.x), "y": _pair(p.y),
                    "lambda": _pair(p.lam)} for p in cfg.points],
        "flow": {"direction": [_pair(z) for z in c]},
    }
    path = tmp_path_factory.mktemp("cli") / "system.json"
    path.write_text(json.dumps(data))
    return path, ham


runner = CliRunner()


class TestCurveInfo:
    def test_basic(self, gl2_input, tmp_path):
        path, _ = gl2_input
        res = runner.invoke(main, ["curve", "info", "--input", str(path),
                                   "--output", str(tmp_path)])
        assert res.exit_code == 0, res.output
        info = json.loads((tmp_path / "curve_info.json").read_text())
        assert info["genus"] == 2
        assert len(info["branch_points"]) == 5
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["input_sha256"]
        assert str(tmp_path / "curve_info.json") in manifest["outputs"]


class TestHam:
    def test_solve_recovers(self, gl2_input, tmp_path):
        path, ham = gl2_input
        res = runner.invoke(main, ["ham", "solve", "--input", str(path),
                                   "--output", str(tmp_path)])
        assert res.exit_code == 0, res.output
        out = json.loads((tmp_path / "hamiltonians.json").read_text())
        got = np.array([complex(a, b) for a, b in out["hamiltonians"]])
        assert np.abs(got - ham).max() < 1e-8

    def test_check_strict_passes(self, gl2_input, tmp_path):
        path, _ = gl2_input
        res = runner.invoke(main, ["ham", "check", "--input", str(path),
                                   "--output", str(tmp_path), "--strict"])
        assert res.exit_code == 0, res.output
        lines = (tmp_path / "bracket_check.csv").read_text().splitlines()
        assert lines[0].startswith("H1,")
        assert len(lines) == 6      # header + 5x5 matrix

    def test_check_strict_fails_on_impossible_tolerance(self, gl2_input,
                                                        tmp_path):
        path, _ = gl2_input
        res = runner.invoke(main, ["ham", "check", "--input", str(path),
                                   "--output", str(tmp_path), "--strict",
                                   "--tolerance", "0"])
        assert res.exit_code == 4


class TestExitCodes:
    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = runner.invoke(main, ["ham", "solve", "--input", str(bad)])
        assert res.exit_code == 3

    def test_missing_field_path_reported(self, tmp_path):
        f = tmp_path / "x.json"
        f.write_text(json.dumps({"curve": {}}))
        res = runner.invoke(main, ["curve", "info", "--input", str(f)])
        assert res.exit_code == 3
        assert "$.curve.coeffs" in res.output

    def test_double_branch_point_rejected(self, tmp_path):
        coeffs = npoly.polyfromroots([1.0, 1.0, 2.0, 3.0, 4.0])
        f = tmp_path / "double.json"
        f.write_text(json.dumps({"curve": {"coeffs": [_pair(z) for z in coeffs]}}))
        res = runner.invoke(main, ["curve", "info", "--input", str(f),
                                   "--output", str(tmp_path)])
        assert res.exit_code == 3
        assert "validation error" in res.output
        assert not (tmp_path / "curve_info.json").exists()

    def test_usage_error(self):
        res = runner.invoke(main, ["ham", "frobnicate"])
        assert res.exit_code == 2

    def test_numerical_failure(self, gl2_input, tmp_path):
        path, _ = gl2_input
        data = json.loads(path.read_text())
        for p in data["points"]:
            p["x"] = data["points"][0]["x"]     # degenerate configuration
            p["y"] = data["points"][0]["y"]
        f = tmp_path / "dup.json"
        f.write_text(json.dumps(data))
        res = runner.invoke(main, ["ham", "solve", "--input", str(f)])
        assert res.exit_code == 4


class TestFlowRun:
    def test_both_routes(self, gl2_input, tmp_path):
        path, _ = gl2_input
        res = runner.invoke(main, [
            "flow", "run", "--input", str(path), "--output", str(tmp_path),
            "--route", "both", "--t-end", "0.05", "--strict", "--plot"])
        assert res.exit_code == 0, res.output
        cmp_report = json.loads((tmp_path / "flow_compare.json").read_text())
        assert cmp_report["max_point_set_distance"] < 1e-6
        header = (tmp_path / "flow_fiber.csv").read_text().splitlines()[0]
        assert header == "t,i,re_x,im_x,re_y,im_y,re_lambda,im_lambda"
        assert (tmp_path / "flow_fiber.svg").exists()

    def test_determinism(self, gl2_input, tmp_path):
        path, _ = gl2_input
        for d in ("a", "b"):
            res = runner.invoke(main, [
                "flow", "run", "--input", str(path),
                "--output", str(tmp_path / d),
                "--route", "fiber", "--t-end", "0.02", "--plot"])
            assert res.exit_code == 0, res.output
        assert (tmp_path / "a" / "flow_fiber.csv").read_bytes() \
            == (tmp_path / "b" / "flow_fiber.csv").read_bytes()
        assert (tmp_path / "a" / "flow_fiber.svg").read_bytes() \
            == (tmp_path / "b" / "flow_fiber.svg").read_bytes()

    def test_direction_flag_overrides(self, gl2_input, tmp_path):
        path, _ = gl2_input
        direction = json.dumps([[0.0, 0.0]] * 5)
        res = runner.invoke(main, [
            "flow", "run", "--input", str(path), "--output", str(tmp_path),
            "--route", "fiber", "--t-end", "0.01",
            "--direction", direction])
        assert res.exit_code == 0, res.output
        rows = [r.split(",") for r in
                (tmp_path / "flow_fiber.csv").read_text().splitlines()[1:]]
        point1 = [r for r in rows if r[1] == "1"]
        first = np.array([float(v) for v in point1[0][2:]])
        last = np.array([float(v) for v in point1[-1][2:]])
        assert np.abs(first - last).max() < 1e-12   # zero direction



class TestExportPlot:
    def _traj(self, series, times):
        states = [PhaseConfiguration(
            [SpectralPoint(x, 1.0, 0.0) for x in row]) for row in series]
        return Trajectory(np.array(times), states, "rk4", np.zeros(1))

    def test_constant_trajectory_horizontal(self, tmp_path):
        traj = self._traj([[0.5, -0.25]] * 3, [0.0, 0.5, 1.0])
        out = export_plot(traj, tmp_path / "c.svg")
        text = (tmp_path / "c.svg").read_text()
        for line in text.splitlines():
            if "polyline" in line:
                ys = {p.split(",")[1] for p in
                      line.split('points="')[1].split('"')[0].split()}
                assert len(ys) == 1         # horizontal
        assert "Re x1" in text and "Re x2" in text

    def test_two_state_segments(self, tmp_path):
        traj = self._traj([[0.0], [1.0]], [0.0, 1.0])
        export_plot(traj, tmp_path / "s.svg")
        text = (tmp_path / "s.svg").read_text()
        seg = [l for l in text.splitlines() if "polyline" in l]
        assert len(seg) == 1
        assert len(seg[0].split('points="')[1].split('"')[0].split()) == 2


class TestThetaSigma:
    def test_sigma_routes(self, curve15, theta15, tmp_path):
        from hitchsov.curves import abel_map
        x = 0.4 + 0.3j
        p = curve15.point(x, np.sqrt(complex(curve15.p(x))))
        phi = 2.0 * abel_map(curve15, theta15, p)
        data = {
            "curve": {"coeffs": [_pair(z) for z in curve15.coeffs]},
            "phi": [_pair(z) for z in phi],
            "k": 1,
        }
        f = tmp_path / "theta.json"
        f.write_text(json.dumps(data))
        res = runner.invoke(main, ["theta", "sigma", "--input", str(f),
                                   "--output", str(tmp_path), "--strict"])
        assert res.exit_code == 0, res.output
        out = json.loads((tmp_path / "theta_sigma.json").read_text())
        assert out["route_gap"] < 1e-6
        assert len(out["tau"]) == 2


class TestSl2Demo:
    def test_demo(self, tmp_path):
        rng = np.random.default_rng(5)
        data = {
            "z6": [_pair(z) for z in rng.standard_normal(6)
                   + 1j * rng.standard_normal(6)],
            "q": [_pair(z) for z in rng.standard_normal(3)
                  + 1j * rng.standard_normal(3)],
            "p": [_pair(z) for z in rng.standard_normal(3)
                  + 1j * rng.standard_normal(3)],
            "zeta": _pair(0.3),
        }
        f = tmp_path / "sl2.json"
        f.write_text(json.dumps(data))
        res = runner.invoke(main, ["sl2", "demo", "--input", str(f),
                                   "--output", str(tmp_path), "--strict",
                                   "--t-end", "0.05"])
        assert res.exit_code == 0, res.output
        rep = json.loads((tmp_path / "sl2_report.json").read_text())
        assert rep["eigenvalue_drift"] < 1e-6
        assert rep["lax_residual"] < 1e-6
        lines = (tmp_path / "sl2_demo.csv").read_text().splitlines()
        assert lines[0] == "t,ham_drift,eig_drift"

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_exits_4(self, tmp_path):
        rng = np.random.default_rng([1, 13])   # the flow blows up by t=0.1
        data = {key: [_pair(z) for z in rng.standard_normal(n)
                      + 1j * rng.standard_normal(n)]
                for key, n in (("z6", 6), ("q", 3), ("p", 3))}
        data["zeta"] = _pair(0.3)
        f = tmp_path / "sl2.json"
        f.write_text(json.dumps(data))
        res = runner.invoke(main, ["sl2", "demo", "--input", str(f),
                                   "--output", str(tmp_path),
                                   "--t-end", "0.2"])
        assert res.exit_code == 4, res.output
        assert "StepRejected" in res.stderr
        assert not (tmp_path / "sl2_report.json").exists()


class TestParabolicCli:
    def test_dims(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"genus": 2, "rank": 4,
                                 "points": [{"partition": [2, 2]}]}))
        res = runner.invoke(main, ["parabolic", "dims", "--input", str(f),
                                   "--output", str(tmp_path)])
        assert res.exit_code == 0, res.output
        out = json.loads((tmp_path / "parabolic_dims.json").read_text())
        assert out["dims"] == [2, 4, 6, 9]

    def test_delta_with_weights(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({
            "genus": 2, "rank": 4, "deg_e": 1,
            "points": [{"partition": [2, 2], "weights": ["0", "1/3"]}]}))
        res = runner.invoke(main, ["parabolic", "delta", "--input", str(f),
                                   "--output", str(tmp_path)])
        assert res.exit_code == 0, res.output
        out = json.loads((tmp_path / "parabolic_delta.json").read_text())
        assert out["delta_p"] == 2
        assert out["parabolic_degree"] == "5/3"

    def test_local(self, tmp_path):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({
            "local": {"coeffs": [[0, 1], [0, 3], [0, 0, 1], [0, 0, 2]],
                      "expected_mu": [2, 2]}}))
        res = runner.invoke(main, ["parabolic", "local", "--input", str(f),
                                   "--output", str(tmp_path)])
        assert res.exit_code == 0, res.output
        out = json.loads((tmp_path / "parabolic_local.json").read_text())
        assert out["factor_degrees"] == [2, 2]
        assert out["distinguished"] and out["matches_expected"]
