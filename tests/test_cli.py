import json

import numpy as np
import pytest
from click.testing import CliRunner

from hitchsov import sl2
from hitchsov.cli import main, _parse_system, _svg, _traj_csv
from hitchsov.errors import StepRejected
from hitchsov.flows import Trajectory, flow_fiber
from hitchsov.spectral import SpectralPoint
from hitchsov.separation import involution_check

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

    def test_check_csv_same_bytes_as_per_value_formatter(self, gl2_input,
                                                         tmp_path):
        """bracket_check.csv against one f-string per value of the bracket
        matrix, solved as the command solves it."""
        path, _ = gl2_input
        res = runner.invoke(main, ["ham", "check", "--input", str(path),
                                   "--output", str(tmp_path)])
        assert res.exit_code == 0, res.output
        cv, layout, cfg, hamv = _parse_system(json.loads(path.read_text()), 0)
        br, _ = involution_check(layout, cv, cfg, hamv)
        lines = [",".join(f"H{k + 1}" for k in range(layout.h))]
        lines += [",".join(f"{float(v):.17e}" for v in row) for row in br]
        assert (tmp_path / "bracket_check.csv").read_text() \
            == "\n".join(lines) + "\n"

    def test_check_strict_fails_on_impossible_tolerance(self, gl2_input,
                                                        tmp_path):
        path, _ = gl2_input
        res = runner.invoke(main, ["ham", "check", "--input", str(path),
                                   "--output", str(tmp_path), "--strict",
                                   "--tolerance", "0"])
        assert res.exit_code == 4
        # a failed gate still writes every artifact and the manifest
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["tolerance"] == 0.0
        assert manifest["outputs"] == [str(tmp_path / "bracket_check.csv")]


class TestExitCodes:
    def test_malformed_json(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        res = runner.invoke(main, ["ham", "solve", "--input", str(bad)])
        assert res.exit_code == 3

    def test_undecodable_input(self, tmp_path):
        bad = tmp_path / "latin1.json"
        bad.write_bytes(b'{"curve": "\xff"}')
        res = runner.invoke(main, ["curve", "info", "--input", str(bad),
                                   "--output", str(tmp_path / "out")])
        assert res.exit_code == 3, res.output
        assert "malformed JSON" in res.output
        assert not (tmp_path / "out").exists()

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

    @pytest.mark.parametrize("coeffs", [[0, 0, 0, 0, 0, 1],
                                        [0, 0, 0, -1, 0, 1]])
    def test_exactly_repeated_branch_point(self, tmp_path, coeffs):
        f = tmp_path / "repeated.json"
        f.write_text(json.dumps({"curve": {"coeffs": coeffs}}))
        out = tmp_path / "out"
        res = runner.invoke(main, ["curve", "info", "--input", str(f),
                                   "--output", str(out)])
        assert res.exit_code == 3, res.output
        assert "branch points not certified distinct" in res.output
        assert not out.exists()

    def test_repeated_z6_point(self, tmp_path):
        z6 = [[0.1, 0.2], [0.1, 0.2], [0.5, 0.0], [1.0, 0.0], [-1.0, 0.3],
              [0.2, -0.7]]
        f = tmp_path / "sl2.json"
        f.write_text(json.dumps({"z6": z6, "q": [[0.3, 0.1]] * 3,
                                 "p": [[0.2, -0.4]] * 3}))
        res = runner.invoke(main, ["sl2", "demo", "--input", str(f),
                                   "--output", str(tmp_path), "--strict"])
        assert res.exit_code == 3, res.output
        assert "$.z6" in res.output
        assert not (tmp_path / "sl2_report.json").exists()

    def test_usage_error(self):
        res = runner.invoke(main, ["ham", "frobnicate"])
        assert res.exit_code == 2

    def test_empty_local_coefficients(self, tmp_path):
        f = tmp_path / "local.json"
        f.write_text(json.dumps({"local": {"coeffs": []}}))
        res = runner.invoke(main, ["parabolic", "local", "--input", str(f)])
        assert res.exit_code == 3, res.output
        assert "$.local.coeffs" in res.output

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


CURVE15 = {"coeffs": [_pair(z) for z in
                     npoly.polyfromroots([1.0, 2.0, 3.0, 4.0, 5.0])]}
SL2 = {key: [[0.1 * i, 0.2] for i in range(n)]
       for key, n in (("z6", 6), ("q", 3), ("p", 3))}
# GL(2) on y^2 = (x - 1)...(x - 5), the curve of CURVE15: h = 5 points
# with generic lambda
GL2 = {"curve": CURVE15, "lie_type": {"family": "GL", "rank": 2},
       "points": [{"x": _pair(x), "lambda": [k + 1.0, 0.5],
                   "y": _pair(np.sqrt(np.prod(x - np.arange(1, 6))))}
                  for k, x in enumerate(0.1 + (0.3 + 0.2j) * np.arange(5))]}


class TestMalformedFields:
    """A field of the wrong type or out of range exits 3 with its path."""

    @pytest.mark.parametrize("command, data, path", [
        ("parabolic dims", {"genus": 2, "rank": 4, "points": 5}, "$.points"),
        ("parabolic dims", {"genus": "two", "rank": 4,
                            "points": [{"partition": [2, 2]}]}, "$.genus"),
        ("parabolic dims", {"genus": 2, "rank": 4,
                            "points": [{"partition": 3}]},
         "$.points[0].partition"),
        ("sl2 demo", dict(SL2, chart=7), "$.chart"),
        ("ham solve", {"curve": CURVE15,
                       "lie_type": {"family": "GL", "rank": "x"}},
         "$.lie_type.rank"),
        ("theta sigma", {"curve": CURVE15, "k": "one",
                         "phi": [[0.1, 0.0], [0.2, 0.0]]}, "$.k"),
        ("parabolic local", {"local": {"coeffs": [[0, 1]], "expected_mu": 5}},
         "$.local.expected_mu"),
        ("ham solve", {"curve": CURVE15,
                       "lie_type": {"family": "GL", "rank": 0}},
         "$.lie_type.rank"),
        ("ham solve", {"curve": CURVE15,
                       "lie_type": {"family": 5, "rank": 2}},
         "$.lie_type.family"),
        ("ham solve", {"curve": CURVE15,
                       "lie_type": {"family": "SL", "rank": 1}},
         "$.lie_type.rank"),
        ("curve info", {"curve": {"coeffs": CURVE15["coeffs"][:5] + ["one"]}},
         "$.curve.coeffs[5]"),
        ("ham solve", dict(GL2, points=GL2["points"][:4]), "$.points"),
        ("flow run --direction [1,", GL2, "--direction"),
        ("flow run --direction [1,2]", GL2, "--direction"),
        ("flow run", dict(GL2, flow={"direction": [1, 2]}),
         "$.flow.direction"),
        ("theta sigma", {"curve": CURVE15, "k": 1, "phi": [[0.1, 0.0]]},
         "$.phi"),
        ("sl2 demo", dict(SL2, q=SL2["q"][:2]), "$"),
        ("parabolic dims", {"genus": 2, "rank": 2, "points": [
            {"partition": [1, 1], "weights": ["a", 0]}]},
         "$.points[0].weights"),
        ("parabolic local", {"local": {"coeffs": [["a"]]}}, "$.local.coeffs"),
        ("ham solve", dict(GL2, points=[dict(GL2["points"][0], x=np.nan),
                                        *GL2["points"][1:]]),
         "$.points[0].x"),
        ("ham solve", dict(GL2, points=[dict(GL2["points"][0],
                                             **{"lambda": [np.inf, 0]}),
                                        *GL2["points"][1:]]),
         "$.points[0].lambda"),
        ("curve info", {"curve": {"coeffs": CURVE15["coeffs"][:5] + [np.nan]}},
         "$.curve.coeffs[5]"),
        ("theta sigma", {"curve": CURVE15, "k": 1, "const": np.inf,
                         "phi": [[0.1, 0.0], [0.2, 0.0]]}, "$.const"),
        ("curve info", {"curve": {"coeffs": CURVE15["coeffs"][:5]
                                  + [[1, 10 ** 400]]}}, "$.curve.coeffs[5]"),
        ("theta sigma", {"curve": CURVE15, "k": 1, "const": -10 ** 400,
                         "phi": [[0.1, 0.0], [0.2, 0.0]]}, "$.const"),
        # a JSON boolean is not the number 1 in any kind of numeric field:
        # a complex number, either half of an [re, im] pair, a fraction
        ("curve info", {"curve": {"coeffs": [True, 0, 0, 0, 0, 1]}},
         "$.curve.coeffs[0]"),
        ("curve info", {"curve": {"coeffs": CURVE15["coeffs"][:5]
                                  + [[1, False]]}}, "$.curve.coeffs[5]"),
        ("ham solve", dict(GL2, points=[dict(GL2["points"][0], x=[True, 0]),
                                        *GL2["points"][1:]]),
         "$.points[0].x"),
        ("sl2 demo", dict(SL2, q=[True] + SL2["q"][1:]), "$.q[0]"),
        ("sl2 demo", dict(SL2, zeta=True), "$.zeta"),
        ("parabolic dims", {"genus": 2, "rank": 2, "points": [
            {"partition": [1, 1], "weights": [True, 0]}]},
         "$.points[0].weights"),
        ("parabolic local", {"local": {"coeffs": [[0, True]]}},
         "$.local.coeffs"),
        ("parabolic local", {"local": {"coeffs": ["12"]}}, "$.local.coeffs"),
    ])
    def test_exit_3_with_path(self, tmp_path, command, data, path):
        f = tmp_path / "in.json"
        f.write_text(json.dumps(data))
        res = runner.invoke(main, command.split() + [
            "--input", str(f), "--output", str(tmp_path)])
        assert res.exit_code == 3, res.output
        assert f"(at {path})" in res.output

    def test_unreadable_input(self, tmp_path):
        missing = tmp_path / "missing.json"
        res = runner.invoke(main, ["curve", "info", "--input", str(missing),
                                   "--output", str(tmp_path / "out")])
        assert res.exit_code == 3, res.output
        assert f"(at {missing})" in res.output
        assert list(tmp_path.iterdir()) == []


class TestTimeOptions:
    """A time option that is not finite, a zero step, a t_end/dt below 0
    or a level below 1 is a usage error that names the option."""

    @pytest.mark.parametrize("command, options, name", [
        ("flow run", ["--dt", "0"], "--dt"),
        ("flow run", ["--dt", "nan"], "--dt"),
        ("flow run", ["--t-end", "inf"], "--t-end"),
        ("flow run", ["--dt", "-1e-3", "--t-end", "0.01"], "--dt"),
        ("flow run", ["--t-end", "-0.01"], "--t-end"),
        ("sl2 demo", ["--dt", "0"], "--dt"),
        ("sl2 demo", ["--dt", "nan"], "--dt"),
        ("sl2 demo", ["--t-end", "-inf"], "--t-end"),
        ("sl2 demo", ["--level", "0"], "--level"),
        ("sl2 demo", ["--level", "-1"], "--level"),
    ])
    def test_exit_2_naming_the_option(self, tmp_path, command, options, name):
        res = runner.invoke(main, command.split() + options + [
            "--input", str(tmp_path / "unread.json"),
            "--output", str(tmp_path)])
        assert res.exit_code == 2, res.output
        assert "Invalid value for" in res.output and name in res.output
        assert list(tmp_path.iterdir()) == []

    def test_euler_both_routes_pass_the_sheet_gate(self, gl2_input,
                                                    tmp_path):
        # the Poisson route's stored lambda drifts O(dt) off the fiber of
        # the input's H under euler: its angle error shows that drift, and
        # the sheet gate does not mistake it for a root swap
        path, _ = gl2_input
        res = runner.invoke(main, [
            "flow", "run", "--route", "both", "--scheme", "euler",
            "--dt", "1e-2", "--t-end", "0.2", "--input", str(path),
            "--output", str(tmp_path)])
        assert res.exit_code == 0, res.output
        assert "poisson angle error to t=0.2 (euler" in res.output

    def test_negative_pair_integrates_backward(self, gl2_input, tmp_path):
        path, _ = gl2_input
        res = runner.invoke(main, [
            "flow", "run", "--input", str(path), "--output", str(tmp_path),
            "--t-end", "-0.002", "--dt", "-1e-3"])
        assert res.exit_code == 0, res.output
        assert "to t=-0.002" in res.output
        times = {r.split(",")[0] for r in
                 (tmp_path / "flow_fiber.csv").read_text().splitlines()[1:]}
        assert len(times) == 3


# SO_even(2) systems on which the two routes once disagreed: curve
# coefficients, the points as (x, y, lambda) and the flow direction, each
# complex number as [re, im].  On the first two, a Poisson route that
# re-solved H from H = 0 at every stage landed on another solution of the
# quadratic separation system and ended O(1) from the fiber route.
SO_EVEN_SYSTEMS = {
    "t0.073": (
        [[0.47773614804160214, 2.262808287536835], [6.049336414647739, 1.423340322662479], [-5.865119371919823, -2.9202170140857056], [2.8933069992596394, -0.008186389794143656], [-2.274221748185, 0.47743284153325377], [1.0, 0.0]],
        [[[-0.863089849862279, -1.7878911393196912], [6.501499473863254, 2.7894008064990445], [1.2077388731347098, 2.5647021565418884]], [[-0.09437641390560866, 0.18738236714858153], [-1.2776642151272295, -1.3840083471838929], [0.16259846297100633, -1.0588623722333033]], [[0.7200855987008574, -0.6024985945775277], [1.6749801505130673, 0.8098865416198193], [1.2335365030613799, -1.9202418223021867]], [[0.7578622352697523, -0.20149019702280002], [-1.5766763623043423, -0.6084854394894348], [-0.6387715999973806, -1.7318548266631617]], [[-0.7506307798299908, -1.150707407055702], [4.509977872395488, -0.5929093427695952], [0.6413680542620894, 1.8546518313356077]], [[0.09397417556331848, -1.7670587038252745], [0.9597669672816075, 0.8927846430762051], [0.012586749671694156, 3.076336655704819]]],
        [[0.021259391619121517, 0.014812243774266095], [0.007247226606806315, 0.005031043061586865], [0.004137456502886021, -0.0068865035810480365], [0.029597409116797604, -0.000994758484169211], [-0.005472587596075474, -0.012583812978581216], [-0.01114275478514623, -0.007976639993875035]],
    ),
    "t0.048": (
        [[-0.11511276712699459, 2.009545222859625], [-2.5604982144659587, -3.5625573814280234], [5.82215649103074, 1.8067303522844613], [-4.552824492229196, 3.544782478326622], [-0.941212386206084, -3.4518364714230723], [1.0, 0.0]],
        [[[0.4780638620861113, 0.46306834137625374], [-0.48760769242008223, -0.6226643646783051], [1.0513315776638046, 1.1218284240707745]], [[0.4746305071012126, -0.46472434898528664], [-0.012123152388746708, 0.6368180446250442], [0.8414753697635853, 0.19528882506717762]], [[-0.3011579175051875, -0.8628679285156342], [0.9779784226024134, 3.9536679849617187], [-0.1956747891360716, 0.7087185476009739]], [[-1.6880756247006783, 0.40281379910213344], [2.9304601692743324, -3.881932976746813], [1.8388740243564614, -0.5026752464739909]], [[0.16902791773804943, -0.46423710059756074], [-0.19195593526227017, -1.5999163662128222], [0.44704689703516093, 0.24031210366682548]], [[-0.25761001839174175, -0.8219586473105056], [0.8431116629261786, 3.678326783362701], [-0.16793956672589228, 0.6741929495798592]]],
        [[-0.0271070842111796, 0.01686642243950788], [-0.01011651095033617, 0.01599794703505196], [0.005762754552696128, -0.013922809807759241], [-0.04757915740520953, -0.051941082501595334], [-0.0636423239692042, -0.018928505900062415], [0.03063569761213021, -0.011501375571850214]],
    ),
    # flow_full seed 3 job 230 (bench/workloads.py): while each route took
    # H only to the Newton tolerance, their end states lay 1.7e-6 apart.
    "seed3-job230": (
        [[-1.1488951395592366, -1.0088044132202902], [0.8277819000173614, -1.8918353375539243], [0.7180609607022438, -3.272100711726286], [-2.832750755288405, -0.9882329740005869], [0.35628079043879013, 2.556504059151809], [1.0, 0.0]],
        [[[0.16461898295528168, -0.36931995900805414], [-0.4478683739035216, 1.4998604560763418], [-0.9854976353516967, -0.9530090894661766]], [[2.4484276096614033, -0.4481237218764461], [9.39010764331427, -1.4756034035531205], [1.940431025431207, -1.3240209296819108]], [[-1.1632733524044976, 0.982641583694619], [3.786262046358363, -3.674729988948019], [-0.32922684255512136, -2.385569614610825]], [[1.230195457288615, 0.6226919228551124], [-1.9375216643640734, 2.8686488001906874], [-1.218476339976561, 2.2513746616385903]], [[-0.6020773745510728, 1.2688193112930288], [0.050199569237148196, -5.273343540182027], [1.0311935029458963, 2.319711558294497]], [[-0.4923228917373038, -0.23324959120459765], [0.12383427577203124, -1.1702368255213986], [0.6387684707157056, 0.9245695311053741]]],
        [[0.015824799840251515, 0.008546122607731896], [-0.025607063617396016, -0.01105963299619852], [0.002959618851967951, 0.01660714764164195], [-0.007668162335997302, 0.010885789349843529], [0.01646861592044668, -0.02948873236348218], [-0.020617277211645524, 0.005017584608861672]],
    ),
}


# flow seed 9101 job 7 (bench/workloads.py), SP(2): the Poisson route's
# starting-step probe, an Euler step of 0.01 d0/d1, landed 5.5e-4 from the
# branch point -0.0299-0.1809i, inside its exclusion radius of 5.7e-4
SP_PROBE_SYSTEM = (
    [[0.12380700666784324, 0.11226666954986428], [1.0975556935317876, -0.6375720548589924], [0.04872867523216795, -2.6486164795050273], [-3.1659053528362118, -0.9258232109852532], [-0.2096918747732044, 2.5390292419433056], [1.0, 0.0]],
    [[[-1.303720505893887, 1.0205737131434478], [-4.909728526616463, 3.361017361174558], [-1.3507104635444334, 0.2707120228851817]], [[-0.6087285900771553, 1.3362299136011384], [0.05218505562642032, -5.641680774028132], [1.973659168786537, 0.8111737555602534]], [[0.46741541147450927, -0.9800621689366347], [-0.47394042229243105, -0.8074538752264168], [1.3277876226528103, 1.3562250375965]], [[-0.6895078561031114, -0.4980833546141085], [-0.010808285023100755, 0.7142173401016559], [0.6462822789915685, 0.2577839116318929]], [[-0.8156381632902475, -0.14686897315949426], [0.5773460228342194, 0.5949188488943394], [-0.20827154988045998, -1.1184493469678463]], [[0.7331389005730463, 0.518903400142153], [1.9914749199205355, -0.9587756888622075], [0.33369608505790066, -1.5661051204955887]], [[-0.025448269295729593, -0.18135947758339374], [-0.0473548611943896, 0.025323441128259242], [-0.7416886092760803, -1.006864354461016]], [[0.6207359431006104, 0.8973990697571781], [-3.384613655670538, 0.29615196349079165], [-1.5125579376772502, 0.7539585486031298]], [[0.4162096799388107, 0.0487335383679974], [0.8059810100554371, -0.3845247165013413], [-0.671434386743356, -0.9288158871896702]], [[-0.51182122051425, -0.09489014487258746], [0.17209451666660833, 0.3247737102322259], [0.06089498586776237, -0.7456316392171706]]],
    [[0.3116236072894324, -0.2635600358612036], [-0.109257474843557, 0.02361860800482732], [-0.0028810759289795915, -0.021033589257825433], [-0.15656825197467894, 0.07921057882915566], [0.025965696579689574, -0.0860406835675373], [-0.020765153531589017, 0.0775251187559115], [0.04048870756755649, -0.036683624838519814], [-0.017206365345709858, 0.0011862026178890896], [-0.07248617397403877, 0.05592959193299253], [0.070809829698052, -0.0028244291350358044]],
)


class TestFlowRun:
    def test_branch_locus_exits_4(self, tmp_path):
        """GL(2) whose fiber above the first point is (lambda - a)^2."""
        from hitchsov.curves import build_curve
        from hitchsov.spectral import (resolve_type, coefficient_layout,
                                       lambda_roots)

        coeffs = npoly.polyfromroots([0.0, 1.0, -1.2, 2.0 + 0.5j,
                                      -0.3 - 1.1j])
        cv = build_curve(coeffs)
        layout = coefficient_layout(resolve_type("GL", 2), cv)
        x0, a = 0.3 - 0.2j, 1.3 + 0.4j
        ham = np.array([-2 * a - 0.5 * x0, 0.5, 0.0, -0.2 * x0, 0.1])
        ham[2] = a * a - ham[3] * x0 - ham[4] * x0 * x0
        xs = np.array([x0, -0.7 + 0.1j, 0.9 + 0.6j, -0.2 + 0.8j, 0.5 - 0.9j])
        ys = np.sqrt(cv.p(xs))
        lams = np.r_[a, lambda_roots(layout, cv, ham, xs[1:], ys[1:])[:, 0]]
        f = tmp_path / "system.json"
        f.write_text(json.dumps({
            "curve": {"coeffs": [_pair(z) for z in coeffs]},
            "lie_type": {"family": "GL", "rank": 2},
            "points": [{"x": _pair(x), "y": _pair(y), "lambda": _pair(lam)}
                       for x, y, lam in zip(xs, ys, lams)],
            "flow": {"direction": [[0.01, 0.0]] * layout.h},
        }))
        res = runner.invoke(main, [
            "flow", "run", "--input", str(f), "--output", str(tmp_path),
            "--route", "both", "--t-end", "0.01"])
        assert res.exit_code == 4, res.output
        assert "BranchLocus: |dR/dlambda|" in res.output
        assert f"at x={complex(x0)}" in res.output
        assert not (tmp_path / "flow_fiber.csv").exists()

    @pytest.mark.parametrize("name", sorted(SO_EVEN_SYSTEMS))
    def test_so_even_poisson_keeps_branch(self, name, tmp_path):
        """The Poisson route's Newton solves start from the previous
        stage's H, and both routes polish H to roundoff, so the routes
        agree to t = 0.25: past a jump, and on job 230."""
        coeffs, points, direction = SO_EVEN_SYSTEMS[name]
        f = tmp_path / "system.json"
        f.write_text(json.dumps({
            "curve": {"coeffs": coeffs},
            "lie_type": {"family": "SO_even", "rank": 2},
            "points": [{"x": x, "y": y, "lambda": lam}
                       for x, y, lam in points],
            "flow": {"direction": direction},
        }))
        res = runner.invoke(main, [
            "flow", "run", "--input", str(f), "--output", str(tmp_path),
            "--route", "both", "--strict", "--t-end", "0.25",
            "--dt", "0.001"])
        assert res.exit_code == 0, res.output
        cmp_report = json.loads((tmp_path / "flow_compare.json").read_text())
        assert cmp_report["max_point_set_distance"] < 1e-6

    def test_probe_backs_off_a_branch_point(self, tmp_path):
        """The starting-step probe that would hit a branch point is retried
        at a tenth of its step, and the run passes the strict gate."""
        coeffs, points, direction = SP_PROBE_SYSTEM
        f = tmp_path / "system.json"
        f.write_text(json.dumps({
            "curve": {"coeffs": coeffs},
            "lie_type": {"family": "SP", "rank": 2},
            "points": [{"x": x, "y": y, "lambda": lam}
                       for x, y, lam in points],
            "flow": {"direction": direction},
        }))
        res = runner.invoke(main, [
            "flow", "run", "--input", str(f), "--output", str(tmp_path),
            "--route", "both", "--strict", "--t-end", "0.1", "--dt", "0.001"])
        assert res.exit_code == 0, res.output
        cmp_report = json.loads((tmp_path / "flow_compare.json").read_text())
        assert cmp_report["max_point_set_distance"] < 1e-6

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

    def test_failed_route_writes_nothing(self, gl2_input, tmp_path,
                                         monkeypatch):
        """A route that raises after the other one ran leaves no CSV."""
        def rejected(*args):
            raise StepRejected("planted failure")

        monkeypatch.setattr("hitchsov.cli.flow_poisson", rejected)
        path, _ = gl2_input
        out = tmp_path / "out"
        out.mkdir()
        res = runner.invoke(main, [
            "flow", "run", "--input", str(path), "--output", str(out),
            "--route", "both", "--t-end", "0.01", "--plot"])
        assert res.exit_code == 4, res.output
        assert "StepRejected: planted failure" in res.output
        assert list(out.iterdir()) == []

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



class TestFlowAccuracy:
    @staticmethod
    def rows(path, tmp_path, name, *options):
        res = runner.invoke(main, [
            "flow", "run", "--input", str(path), "--output",
            str(tmp_path / name), "--route", "both", "--t-end", "0.05",
            *options])
        assert res.exit_code == 0, res.output
        return {route: np.loadtxt(tmp_path / name / f"flow_{route}.csv",
                                  delimiter=",", skiprows=1)
                for route in ("fiber", "poisson")}

    def test_rows_match_rk4_reference(self, gl2_input, tmp_path):
        """dopri5's rows at the default spacing against RK4 at dt = 1e-4,
        whose error is below 1e-13 here."""
        path, _ = gl2_input
        got = self.rows(path, tmp_path, "dopri5", "--strict")
        ref = self.rows(path, tmp_path, "rk4", "--scheme", "rk4",
                        "--dt", "1e-4")
        for route, rows in got.items():
            h = 5                     # ten reference times per output time
            expect = ref[route].reshape(-1, h, 8)[::10].reshape(-1, 8)
            assert rows.shape == expect.shape == (51 * h, 8)
            assert np.array_equal(rows[:, :2], expect[:, :2])
            assert np.abs(rows[:, 2:] - expect[:, 2:]).max() < 1e-9


def traj_csv_per_value(traj):
    """The trajectory CSV as _traj_csv wrote it before it formatted each
    line with one format string: one f-string per value."""
    lines = ["t,i,re_x,im_x,re_y,im_y,re_lambda,im_lambda"]
    for k, t in enumerate(traj.times):
        s = traj.states[k]
        rows = np.column_stack((s.x, s.y, s.lam)).astype(complex).view(float)
        for i, row in enumerate(rows):
            lines.append(",".join([f"{float(t):.12g}", str(i + 1)]
                                  + [f"{float(v):.17e}" for v in row]))
    return "\n".join(lines) + "\n"


class TestTrajCsv:
    def test_same_bytes_as_per_value_formatter(self, curve_c, gl2):
        from test_flows import planted
        layout, ham, cfg, c = planted("GL", curve_c, 8)
        traj = flow_fiber(layout, curve_c, ham, cfg, c, -0.01, -1e-3)
        assert str(traj.times[0]) == "-0.0"          # a backward run
        s = traj.states
        s.x[3, 0] = complex(-0.0, -0.0)
        s.x[3, 1] = complex(1e-310, -1e300)          # subnormal, huge
        s.lam[3, 2] = complex(0.0, -0.0)
        text = _traj_csv(traj)
        assert text == traj_csv_per_value(traj)
        assert "-0.00000000000000000e+00" in text


class TestExportPlot:
    def _traj(self, series, times):
        x = np.array(series, dtype=complex)
        return Trajectory(np.array(times),
                          SpectralPoint(x, np.ones_like(x), np.zeros_like(x)))

    def test_constant_trajectory_horizontal(self):
        traj = self._traj([[0.5, -0.25]] * 3, [0.0, 0.5, 1.0])
        text = _svg(traj)
        for line in text.splitlines():
            if "polyline" in line:
                ys = {p.split(",")[1] for p in
                      line.split('points="')[1].split('"')[0].split()}
                assert len(ys) == 1         # horizontal
        assert "Re x1" in text and "Re x2" in text

    def test_two_state_segments(self):
        traj = self._traj([[0.0], [1.0]], [0.0, 1.0])
        text = _svg(traj)
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

    def test_strict_gate_is_relative_to_sigma(self, tmp_path):
        # sigma_2 is near 1.3e7 - 9.6e6i here: the routes agree to about
        # 2e-13 of it, an absolute gap near 2.8e-6
        branch = [-1.5112034036902033 + 0.15424432420558207j,
                  0.7533063003293653 - 1.7067179879096064j,
                  1.3273035641224462 + 0.8711169472225528j,
                  0.009442735146064602 + 1.852825225198015j,
                  0.2500058519690584 - 0.7105822815939855j]
        phi = [0.2667676187739458 + 0.2510830458248336j,
               -0.27520643419546365 + 0.2989725044237943j]
        data = {"curve": {"coeffs": [_pair(z) for z in
                                     npoly.polyfromroots(branch)]},
                "phi": [_pair(z) for z in phi], "k": 2}
        f = tmp_path / "theta.json"
        f.write_text(json.dumps(data))
        res = runner.invoke(main, ["theta", "sigma", "--input", str(f),
                                   "--output", str(tmp_path), "--strict"])
        assert res.exit_code == 0, res.output
        out = json.loads((tmp_path / "theta_sigma.json").read_text())
        sigma = complex(*out["sigma_series"])
        assert abs(sigma) > 1e7
        assert 1e-7 < out["route_gap"] < 1e-12 * abs(sigma)

    def test_theta_divisor_exits_4(self, curve15, theta15, tmp_path):
        # phi = -A(P) puts theta(-phi - K) on the theta divisor
        from hitchsov.curves import abel_map
        x = 0.4 + 0.3j
        p = curve15.point(x, np.sqrt(complex(curve15.p(x))))
        data = {
            "curve": {"coeffs": [_pair(z) for z in curve15.coeffs]},
            "phi": [_pair(z) for z in -abel_map(curve15, theta15, p)],
            "k": 1,
        }
        f = tmp_path / "theta.json"
        f.write_text(json.dumps(data))
        res = runner.invoke(main, ["theta", "sigma", "--input", str(f),
                                   "--output", str(tmp_path)])
        assert res.exit_code == 4, res.output
        assert "ThetaDivisor" in res.output
        assert not (tmp_path / "theta_sigma.json").exists()


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

    def test_csv_same_bytes_as_per_value_formatter(self, tmp_path):
        """sl2_demo.csv of a backward run to t = -0.5, whose first t prints
        as -0 and whose 501 states are written every second one, against
        one f-string per value over lax_drift's rows."""
        rng = np.random.default_rng(5)
        z6, qa, pa = (0.5 * (rng.standard_normal(n)
                             + 1j * rng.standard_normal(n)) for n in (6, 3, 3))
        f = tmp_path / "sl2.json"
        f.write_text(json.dumps({"z6": [_pair(z) for z in z6],
                                 "q": [_pair(z) for z in qa],
                                 "p": [_pair(z) for z in pa]}))
        t_end, dt = -0.5, -1e-3
        res = runner.invoke(main, ["sl2", "demo", "--input", str(f),
                                   "--output", str(tmp_path), "--t-end",
                                   str(t_end), "--dt", str(dt)])
        assert res.exit_code == 0, res.output
        states, _ = sl2.lax_flow(sl2.GeomPhasePoint(qa, pa), z6, 0.3, 4,
                                 t_end, dt)
        rows = range(0, 501, 2)
        drift = sl2.lax_drift(states[::2], z6, 0.3)
        lines = ["t,ham_drift,eig_drift"]
        lines += [f"{k * dt:.12g},{float(hd):.17e},{float(ed):.17e}"
                  for k, (hd, ed) in zip(rows, drift, strict=True)]
        text = (tmp_path / "sl2_demo.csv").read_text()
        assert text == "\n".join(lines) + "\n"
        assert lines[1].startswith("-0,") and lines[2].startswith("-0.002,")

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflow_exits_4(self, tmp_path):
        rng = np.random.default_rng(5)
        data = {key: [_pair(z) for z in rng.standard_normal(n)
                      + 1j * rng.standard_normal(n)]
                for key, n in (("z6", 6), ("q", 3))}
        # |p| near 1e90: the velocity overflows at t = 0
        data["p"] = [_pair(z) for z in 1e90 * np.array([1, 1j, -1])]
        data["zeta"] = _pair(0.3)
        f = tmp_path / "sl2.json"
        f.write_text(json.dumps(data))
        res = runner.invoke(main, ["sl2", "demo", "--input", str(f),
                                   "--output", str(tmp_path),
                                   "--t-end", "0.2"])
        assert res.exit_code == 4, res.output
        assert "StepRejected" in res.stderr
        assert not (tmp_path / "sl2_report.json").exists()


# The residuals and distinguished flags that `parabolic local` printed
# while sympy built the residual polynomials: on the inputs of
# test_parabolic.py, and on rational inputs whose residuals take sympy's
# constant-first order or have fractional coefficients.
LOCAL_RESIDUALS = [
    ([[0, 1], [0, 3], [0, 0, 1], [0, 0, 2]], ["u**2 + 3*u + 2"], True),
    ([[0], [0, 2], [0], [0, 0, 1]], ["u**2 + 2*u + 1"], False),
    ([[0], [0, 0, 0, -1]], ["u - 1"], False),
    ([[0], [0, 1]], ["u + 1"], True),
    ([[0], [0], [0], [0], [0, 1]], ["u + 1"], True),
    ([[0, "-4/7", "-3"], [0, 0, 0, 0, "2/7", "-7/2"]],
     ["u - 4/7", "2/7 - 4*u/7"], False),
    ([[0, "-7/3"], [0, 0, 0, -1, -5, 3]], ["u - 7/3", "-7*u/3 - 1"], False),
    ([[0, "-1/7"], [0, -3], [0, 0, 0, "5/2", "-5/3", "8/3"], [0, 0, 0, "4/7"]],
     ["u - 3", "4/7 - 3*u**2"], True),
    ([[0, 0, 0, 0, "-7/2"], [0, 0, 0, 0, "-3/2", "-5/2"],
      [0, -1, "-5/2", 2], [0, 0, 0, "4/7", "7/3", 2]],
     ["u - 1", "4/7 - u"], False),
    ([[0, "7/2", "-4/3"], [0, 0, 0, 0, "8/3", 1, 7], [0, 0, 0, -7],
      [0, 0, 0, 0, "1/2"]], ["u**4 + 7*u**3/2 - 7*u + 1/2"], True),
    ([[0, 0, "-1/7"], [0, 0, 0, 0, "-9/2", "8/7", "-3/2"]],
     ["u**2 - u/7 - 9/2"], False),
]


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

    @pytest.mark.parametrize("coeffs, residuals, distinguished",
                             LOCAL_RESIDUALS)
    def test_local_residuals(self, tmp_path, coeffs, residuals,
                             distinguished):
        f = tmp_path / "p.json"
        f.write_text(json.dumps({"local": {"coeffs": coeffs}}))
        res = runner.invoke(main, ["parabolic", "local", "--input", str(f),
                                   "--output", str(tmp_path)])
        assert res.exit_code == 0, res.output
        out = json.loads((tmp_path / "parabolic_local.json").read_text())
        assert out["residuals"] == residuals
        assert out["distinguished"] is distinguished


# The options of each command besides --input and --output: --seed where
# it draws random numbers, --strict and --tolerance where it has a gate.
OPTIONS = {
    "curve info": ["--periods"],
    "ham solve": ["--seed"],
    "ham check": ["--seed", "--strict", "--tolerance"],
    "flow run": ["--seed", "--strict", "--tolerance", "--t-end", "--dt",
                 "--scheme", "--direction", "--route", "--plot"],
    "theta sigma": ["--strict", "--tolerance"],
    "sl2 demo": ["--strict", "--tolerance", "--t-end", "--dt", "--level"],
    "parabolic dims": [],
    "parabolic delta": [],
    "parabolic local": [],
}


class TestCommandOptions:
    def test_every_command_listed(self):
        assert sorted(f"{group} {name}"
                      for group, cmds in main.commands.items()
                      for name in cmds.commands) == sorted(OPTIONS)

    @pytest.mark.parametrize("command", sorted(OPTIONS))
    def test_options_are_the_ones_read(self, command):
        group, name = command.split()
        params = main.commands[group].commands[name].params
        assert sorted(opt for p in params for opt in p.opts) \
            == sorted(["--input", "--output"] + OPTIONS[command])


@pytest.fixture(scope="module")
def inputs(gl2_input, curve15, theta15, tmp_path_factory):
    """An input file per kind of command."""
    from hitchsov.curves import abel_map
    x = 0.4 + 0.3j
    phi = 2.0 * abel_map(curve15, theta15,
                         curve15.point(x, np.sqrt(complex(curve15.p(x)))))
    rng = np.random.default_rng(5)
    data = {
        "theta": {"curve": {"coeffs": [_pair(z) for z in curve15.coeffs]},
                  "phi": [_pair(z) for z in phi], "k": 1},
        "sl2": dict({key: [_pair(z) for z in rng.standard_normal(n)
                           + 1j * rng.standard_normal(n)]
                     for key, n in (("z6", 6), ("q", 3), ("p", 3))},
                    zeta=_pair(0.3)),
        "ptype": {"genus": 2, "rank": 4, "deg_e": 1,
                  "points": [{"partition": [2, 2], "weights": ["0", "1/3"]}],
                  "local": {"coeffs": [[0, 1], [0, 3], [0, 0, 1], [0, 0, 2]],
                            "expected_mu": [2, 2]}},
    }
    root = tmp_path_factory.mktemp("inputs")
    paths = {"system": gl2_input[0]}
    for kind, d in data.items():
        paths[kind] = root / f"{kind}.json"
        paths[kind].write_text(json.dumps(d))
    return paths


class TestManifest:
    """One successful run per command: the manifest lists every file the
    run wrote and the seed and tolerance it applied (null where the
    command has no such option)."""

    @pytest.mark.parametrize("command, kind, options, seed, tolerance", [
        ("curve info", "system", [], None, None),
        ("ham solve", "system", ["--seed", "4"], 4, None),
        ("ham check", "system", ["--strict"], 0, 1e-7),
        ("flow run", "system", ["--route", "both", "--plot", "--t-end",
                                "0.01", "--strict"], 0, 1e-6),
        ("theta sigma", "theta", ["--strict"], None, 1e-6),
        ("sl2 demo", "sl2", ["--t-end", "0.01", "--tolerance", "1e-3"],
         None, 1e-3),
        ("parabolic dims", "ptype", [], None, None),
        ("parabolic delta", "ptype", [], None, None),
        ("parabolic local", "ptype", [], None, None),
    ])
    def test_outputs_and_options(self, inputs, tmp_path, command, kind,
                                 options, seed, tolerance):
        res = runner.invoke(main, command.split() + options + [
            "--input", str(inputs[kind]), "--output", str(tmp_path)])
        assert res.exit_code == 0, res.output
        manifest = json.loads((tmp_path / "manifest.json").read_text())
        assert manifest["outputs"] == sorted(
            str(p) for p in tmp_path.iterdir() if p.name != "manifest.json")
        assert manifest["seed"] == seed
        assert manifest["tolerance"] == tolerance
        assert "total" in manifest["timings"]
