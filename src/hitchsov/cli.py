"""Command-line front end.

Every command is registered by ``_command``, one runner that loads the
``--input`` JSON, calls the command's body, writes the body's artifacts
and ``manifest.json`` into ``--output``, then echoes the body's summary
line or gates its ``(name, value)`` pair at ``--tolerance``.  A body only
parses and computes.  A command takes ``--seed`` only if it draws random
numbers, and ``--strict``/``--tolerance`` only if it has a gate.  Complex
numbers are serialized as [re, im] pairs throughout.  Exit codes: 2
usage, 3 input validation, 4 numerical failure (including strict-mode
tolerance violations); exit 3 or 4 from the library writes no file.
"""

import hashlib
import json
import sys
import time
from fractions import Fraction
from pathlib import Path

import click
import numpy as np

from . import __version__
from .errors import (HitchsovError, ValidationError, DegreeError,
                     DuplicateBranchPoint, RankError)
from .curves import build_curve, period_matrix
from .spectral import FAMILIES, resolve_type, coefficient_layout, SpectralPoint
from .separation import (PhaseConfiguration, solve_hamiltonians,
                         involution_check)
from .flows import flow_fiber, flow_poisson, match_states, angle_increments
from .theta import sigma_series, sigma_contour
from . import sl2
from . import parabolic as pb


# ----------------------------------------------------------------------
# serialization helpers
# ----------------------------------------------------------------------

def _finite(v, path):
    """v, a JSON int or float, as a finite float."""
    try:
        x = float(v)
    except OverflowError:  # an integer beyond the float range
        x = np.inf
    if not np.isfinite(x):
        raise ValidationError("expected a finite number", path)
    return x


def _cplx(v, path):
    """v, a JSON number or [re, im] pair of numbers (not booleans), as a
    complex."""
    pair = v if isinstance(v, (list, tuple)) and len(v) == 2 else (v, 0)
    if any(isinstance(u, bool) or not isinstance(u, (int, float))
           for u in pair):
        raise ValidationError("expected number or [re, im] pair", path)
    return complex(_finite(pair[0], path), _finite(pair[1], path))


def _num(v, path, kind=int, lo=-np.inf, hi=np.inf):
    """v as a JSON integer (kind=int) or finite number (kind=float) in
    [lo, hi]."""
    types = int if kind is int else (int, float)
    if isinstance(v, bool) or not isinstance(v, types):
        raise ValidationError(f"expected {kind.__name__}", path)
    if kind is float:
        v = _finite(v, path)
    if not lo <= v <= hi:
        raise ValidationError(f"expected a value in [{lo}, {hi}]", path)
    return kind(v)


def _list(v, path):
    if not isinstance(v, list):
        raise ValidationError("expected a list", path)
    return v


def _cvec(v, path):
    return np.array([_cplx(u, f"{path}[{i}]")
                     for i, u in enumerate(_list(v, path))])


def _fractions(v, path):
    """v, a JSON list of numbers and fraction strings ("1/3"), as
    Fractions; a boolean is not a number."""
    if any(isinstance(u, bool) for u in _list(v, path)):
        raise ValidationError("expected numbers, not booleans", path)
    try:
        return [Fraction(u) for u in v]
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise ValidationError(str(exc), path)


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _pairs(vec):
    return [_pair(z) for z in np.asarray(vec).ravel()]


def _csv(header, line, table):
    """header, then one line per row of the 2-d table, each row's values
    formatted by the %-format line."""
    return (header + "\n" + (line + "\n") * len(table)
            % tuple(np.ravel(table).tolist()))


def _field(data, name, path="$"):
    if not isinstance(data, dict) or name not in data:
        raise ValidationError("missing required field", f"{path}.{name}")
    return data[name]


def _json(obj):
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"


def _timed(fn):
    """fn() and the seconds it took."""
    t0 = time.perf_counter()
    return fn(), time.perf_counter() - t0


# ----------------------------------------------------------------------
# system description
# ----------------------------------------------------------------------

def _parse_curve(data):
    coeffs = _cvec(_field(_field(data, "curve"), "coeffs", "$.curve"),
                   "$.curve.coeffs")
    return build_curve(coeffs)


def _parse_system(data, seed):
    """Curve, coefficient layout, point configuration and the H solved from
    them (random draws seeded by seed) of a system description."""
    cv = _parse_curve(data)
    lt = _field(data, "lie_type")
    family = _field(lt, "family", "$.lie_type")
    rank = _num(_field(lt, "rank", "$.lie_type"), "$.lie_type.rank")
    try:
        spec = resolve_type(family, rank)
    except RankError as exc:
        name = "family" if family not in FAMILIES else "rank"
        raise ValidationError(str(exc), f"$.lie_type.{name}") from exc
    layout = coefficient_layout(spec, cv)
    pts = _list(_field(data, "points"), "$.points")
    if len(pts) != layout.h:
        raise ValidationError(
            f"layout needs h={layout.h} points, got {len(pts)}", "$.points")
    points = []
    for i, p in enumerate(pts):
        path = f"$.points[{i}]"
        points.append(SpectralPoint(
            _cplx(_field(p, "x", path), f"{path}.x"),
            _cplx(_field(p, "y", path), f"{path}.y"),
            _cplx(_field(p, "lambda", path), f"{path}.lambda")))
    cfg = PhaseConfiguration(points)
    hamv = solve_hamiltonians(layout, cv, cfg,
                              rng=np.random.default_rng(seed))
    return cv, layout, cfg, hamv


# ----------------------------------------------------------------------
# the command runner
# ----------------------------------------------------------------------

def _time_option(ctx, param, value):
    """Callback of --t-end and --dt: both finite, dt nonzero, and t_end/dt
    >= 0, so a negative pair integrates backward and no pair runs away
    from t_end.  The option read second checks the sign."""
    need = "finite and nonzero" if param.name == "dt" else "finite"
    if not np.isfinite(value) or (param.name == "dt" and value == 0):
        raise click.BadParameter(f"must be {need}, got {value!r}")
    other = ctx.params.get("dt" if param.name == "t_end" else "t_end")
    if other is not None and np.sign(value) * np.sign(other) < 0:
        raise click.BadParameter(
            "--t-end and --dt have opposite signs (t_end/dt must be >= 0)")
    return value


def _load_input(path):
    """(sha256 hex digest of the file, its parsed JSON)."""
    try:
        with open(path, "rb") as fh:
            raw = fh.read()
        return hashlib.sha256(raw).hexdigest(), json.loads(raw)
    except OSError as exc:
        raise ValidationError(str(exc), str(path))
    except ValueError as exc:
        raise ValidationError(f"malformed JSON: {exc}", str(path))


def _command(group, name, *options, seed=None, tol=None):
    """Register body as the command `group name`.

    The command takes --input and --output, then --seed (default seed)
    unless seed is None, --strict and --tolerance (default tol) unless tol
    is None, then options.  body(data, **values) gets the loaded input
    and the values of --seed and of options; it returns (artifacts,
    report) or (artifacts, report, stage timings).  artifacts maps file
    names to text, or to a dict written as JSON; report is a line to echo
    or a list of (name, value) pairs, each gated at --tolerance.  Library
    errors exit 3 (input) or 4 (numerical) before any file is written; a
    failed strict gate exits 4 after all of them are.
    """
    common = [click.option("--input", "input_file", required=True,
                           type=click.Path(exists=False)),
              click.option("--output", "outdir", default=".",
                           type=click.Path(file_okay=False))]
    if seed is not None:
        common.append(click.option("--seed", default=seed, type=int))
    if tol is not None:
        common += [click.option("--strict", is_flag=True),
                   click.option("--tolerance", default=tol, type=float)]

    def register(body):
        def run(input_file, outdir, strict=False, tolerance=None, **values):
            t0 = time.perf_counter()
            try:
                digest, data = _load_input(input_file)
                artifacts, report, *stages = body(data, **values)
            except (ValidationError, DegreeError, DuplicateBranchPoint) as exc:
                click.echo(f"validation error: {exc}", err=True)
                sys.exit(3)
            except HitchsovError as exc:
                click.echo(f"numerical failure: {type(exc).__name__}: {exc}",
                           err=True)
                sys.exit(4)
            out = Path(outdir)
            out.mkdir(parents=True, exist_ok=True)
            for fname, content in artifacts.items():
                (out / fname).write_text(
                    content if isinstance(content, str) else _json(content))
            timings = dict(*stages, total=time.perf_counter() - t0)
            (out / "manifest.json").write_text(_json({
                "input": str(input_file),
                "input_sha256": digest,
                "version": __version__,
                "seed": values.get("seed"),
                "tolerance": tolerance,
                "timings": {k: round(v, 6) for k, v in timings.items()},
                "outputs": sorted(str(out / fname) for fname in artifacts),
            }))
            if isinstance(report, str):
                click.echo(report)
                return
            for label, value in report:
                click.echo(f"{label}: {value:.3e} (tolerance {tolerance:.1e})")
            failed = [(label, value) for label, value in report
                      if not value < tolerance]
            if strict and failed:
                for label, value in failed:
                    click.echo(f"strict: {label} {value:.3e} exceeds "
                               f"{tolerance:.1e}", err=True)
                sys.exit(4)

        for option in reversed(common + list(options)):
            run = option(run)
        return group.command(name, help=body.__doc__)(run)
    return register


# ----------------------------------------------------------------------
# command tree
# ----------------------------------------------------------------------

@click.group()
@click.version_option(__version__)
def main():
    """Hitchin systems on hyperelliptic curves by separation of variables."""


@main.group()
def curve():
    """Base-curve queries."""


@_command(curve, "info", click.option(
    "--periods", is_flag=True, help="also compute the period matrix (slower)"))
def curve_info(data, periods):
    """Genus, branch points, and optionally the period matrix."""
    cv = _parse_curve(data)
    info = {
        "genus": cv.genus,
        "degree": cv.degree,
        "coeffs": _pairs(cv.coeffs),
        "branch_points": _pairs(np.sort_complex(cv.branch_points)),
        "min_separation": cv.min_separation,
        "exclusion_radius": cv.exclusion_radius,
    }
    if periods:
        info["tau"] = [_pairs(row) for row in period_matrix(cv).tau]
    return {"curve_info.json": info}, (
        f"genus {cv.genus}, {len(cv.branch_points)} finite branch "
        f"points, min separation {cv.min_separation:.6g}")


@main.group()
def ham():
    """Hamiltonian coefficients from separating points."""


@_command(ham, "solve", seed=0)
def ham_solve(data, seed):
    """Solve the separating equations for the coefficient vector H."""
    _, layout, _, hamv = _parse_system(data, seed)
    return {"hamiltonians.json": {
        "family": layout.spec.family,
        "rank": layout.spec.rank,
        "h": layout.h,
        "hamiltonians": _pairs(hamv),
    }}, (f"solved {layout.h} coefficients "
         f"({layout.spec.family} rank {layout.spec.rank})")


@_command(ham, "check", seed=0, tol=1e-7)
def ham_check(data, seed):
    """Pairwise Poisson brackets of the coefficients, as a CSV matrix."""
    cv, layout, cfg, hamv = _parse_system(data, seed)
    br, scale = involution_check(layout, cv, cfg, hamv)
    return ({"bracket_check.csv": _csv(
                ",".join(f"H{k + 1}" for k in range(layout.h)),
                ",".join(["%.17e"] * layout.h), br)},
            [("max normalized bracket", float((br / scale).max()))])


@main.group()
def flow():
    """Trajectory integration."""


def _traj_csv(traj):
    """One line per time and point i: t, i, then re and im of x_i, y_i
    and lambda_i, formatted as %.12g, %d and %.17e."""
    s = traj.states
    vals = np.stack((s.x, s.y, s.lam), axis=-1).astype(complex).view(float)
    n_times, n = vals.shape[:2]                           # (times, n, 6)
    return _csv("t,i,re_x,im_x,re_y,im_y,re_lambda,im_lambda",
                "%.12g,%d" + ",%.17e" * 6, np.column_stack((
                    np.repeat(np.asarray(traj.times, float), n),
                    np.tile(np.arange(1.0, n + 1), n_times),
                    vals.reshape(-1, 6))))


_SVG_COLORS = ["#1f77b4", "#d62728", "#2ca02c", "#9467bd", "#ff7f0e",
               "#8c564b", "#e377c2", "#17becf"]


def _svg(trajectory):
    """SVG polylines of Re x_i(t) with a legend; deterministic layout."""
    times = np.asarray(trajectory.times, dtype=float)
    series = np.real(trajectory.states.x)                     # (n, h)
    width, height, margin = 640.0, 400.0, 50.0
    t_lo, t_hi = times.min(), max(times.max(), times.min() + 1e-12)
    v_lo, v_hi = series.min(), series.max()
    if v_hi - v_lo < 1e-12:
        v_lo, v_hi = v_lo - 1.0, v_hi + 1.0

    def sx(t):
        return margin + (t - t_lo) / (t_hi - t_lo) * (width - 2 * margin)

    def sy(v):
        return height - margin - (v - v_lo) / (v_hi - v_lo) \
            * (height - 2 * margin)

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{width:.0f}" '
        f'height="{height:.0f}" viewBox="0 0 {width:.0f} {height:.0f}">',
        f'<rect width="{width:.0f}" height="{height:.0f}" fill="white"/>',
        f'<line x1="{margin:.1f}" y1="{height - margin:.1f}" '
        f'x2="{width - margin:.1f}" y2="{height - margin:.1f}" '
        'stroke="black"/>',
        f'<line x1="{margin:.1f}" y1="{margin:.1f}" x2="{margin:.1f}" '
        f'y2="{height - margin:.1f}" stroke="black"/>',
    ]
    for i in range(series.shape[1]):
        color = _SVG_COLORS[i % len(_SVG_COLORS)]
        pts = " ".join(f"{sx(t):.4f},{sy(v):.4f}"
                       for t, v in zip(times, series[:, i]))
        parts.append(f'<polyline points="{pts}" fill="none" '
                     f'stroke="{color}" stroke-width="1.5"/>')
        ly = margin + 16.0 * i
        parts.append(f'<line x1="{width - margin + 5:.1f}" y1="{ly:.1f}" '
                     f'x2="{width - margin + 25:.1f}" y2="{ly:.1f}" '
                     f'stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{width - margin + 28:.1f}" '
                     f'y="{ly + 4:.1f}" font-size="11" '
                     f'font-family="monospace">Re x{i + 1}</text>')
    parts.append("</svg>")
    return "\n".join(parts) + "\n"


@_command(flow, "run",
          click.option("--t-end", default=1.0, type=float,
                       callback=_time_option),
          click.option("--dt", default=1e-3, type=float,
                       callback=_time_option),
          click.option("--scheme", default="dopri5",
                       type=click.Choice(["euler", "rk4", "dopri5"]),
                       help="dopri5 chooses its own steps, and --dt is only "
                            "the output spacing"),
          click.option("--direction", default=None,
                       help="JSON vector of [re, im] pairs; overrides the "
                            "input file"),
          click.option("--route", default="fiber",
                       type=click.Choice(["fiber", "poisson", "both"])),
          click.option("--plot", is_flag=True,
                       help="emit an SVG of Re x_i(t)"),
          seed=0, tol=1e-6)
def flow_run(data, seed, t_end, dt, scheme, direction, route, plot):
    """Integrate the flow of a direction in coefficient space."""
    cv, layout, cfg, hamv = _parse_system(data, seed)
    if direction is not None:
        path = "--direction"
        try:
            c = _cvec(json.loads(direction), path)
        except json.JSONDecodeError as exc:
            raise ValidationError(f"malformed JSON: {exc}", path)
    else:
        path = "$.flow.direction"
        c = _cvec(_field(data.get("flow", {}), "direction", "$.flow"), path)
    if len(c) != layout.h:
        raise ValidationError(f"direction must have length h={layout.h}", path)
    runs = {
        "fiber": lambda: flow_fiber(layout, cv, hamv, cfg, c,
                                    t_end, dt, scheme),
        "poisson": lambda: flow_poisson(layout, cv, cfg, c,
                                        t_end, dt, scheme),
    }
    keys = list(runs) if route == "both" else [route]
    trajs, stages, artifacts, angle_error = {}, {}, {}, {}
    for key in keys:
        trajs[key], stages[key] = _timed(runs[key])
        artifacts[f"flow_{key}.csv"] = _traj_csv(trajs[key])
        # |phi(t_k) - phi(0) - c t_k| by exact increments along the rows
        angle_error[key] = float(np.abs(
            angle_increments(layout, cv, hamv, trajs[key])
            - np.outer(trajs[key].times, c)).max())
    if plot:
        artifacts[f"flow_{keys[0]}.svg"] = _svg(trajs[keys[0]])
    report = [(f"{key} angle error to t={t_end:g} ({scheme}, dt={dt:g})",
               value) for key, value in angle_error.items()]
    if route != "both":
        return artifacts, report, stages
    dist = match_states(trajs["fiber"].states[-1],
                        trajs["poisson"].states[-1])
    artifacts["flow_compare.json"] = {
        "t_end": t_end, "dt": dt, "scheme": scheme,
        "max_point_set_distance": float(dist),
        "angle_error": angle_error,
    }
    return artifacts, [("two-route point-set distance", float(dist))] \
        + report, stages


@main.group()
def theta():
    """Theta-function utilities."""


@_command(theta, "sigma", tol=1e-6)
def theta_sigma(data):
    """Power-sum symmetric function sigma_k from theta derivatives.

    Evaluates sigma_k at the given phi by the series route and the
    contour route and reports both with their difference, gated relative
    to max(1, |sigma_k|), the scale of the contour's own doubling test.
    """
    cv = _parse_curve(data)
    k = _num(_field(data, "k"), "$.k", lo=1, hi=cv.genus)
    phi = _cvec(_field(data, "phi"), "$.phi")
    if len(phi) != cv.genus:
        raise ValidationError(f"phi must have length g={cv.genus}", "$.phi")
    const = _num(data.get("const", 0.0), "$.const", float)
    td = period_matrix(cv)
    series = sigma_series(td, phi, k)[k - 1]
    s_series = series + const
    s_contour = sigma_contour(td, phi, k)[k - 1] + const
    gap = abs(s_series - s_contour)
    return {"theta_sigma.json": {
        "k": k,
        "const": const,
        "tau": [_pairs(row) for row in td.tau],
        "riemann_constants": _pairs(td.riemann_constants),
        "sigma_series": _pair(s_series),
        "sigma_contour": _pair(s_contour),
        "route_gap": gap,
    }}, [("series/contour gap / max(1, |sigma_k|)",
           gap / max(1.0, abs(series)))]


@main.group(name="sl2")
def sl2_group():
    """Genus-2 SL2 Lax system via the Klein correspondence."""


@_command(sl2_group, "demo",
          click.option("--t-end", default=0.2, type=float,
                       callback=_time_option),
          click.option("--dt", default=1e-3, type=float,
                       callback=_time_option,
                       help="spacing of the stored states; dopri5 chooses "
                            "its own steps"),
          click.option("--level", default=4, type=click.IntRange(min=1),
                       help="power l of tr L(zeta)^l generating the flow"),
          tol=1e-6)
def sl2_demo(data, t_end, dt, level):
    """Flow the Lax system and emit conserved-quantity drift CSV."""
    z6 = _cvec(_field(data, "z6"), "$.z6")
    if len(z6) != 6 or len(set(z6.tolist())) != 6:
        raise ValidationError("z6 must list six distinct points", "$.z6")
    qa = _cvec(_field(data, "q"), "$.q")
    pa = _cvec(_field(data, "p"), "$.p")
    if len(qa) != 3 or len(pa) != 3:
        raise ValidationError("q and p must have three components", "$")
    zeta = _cplx(data.get("zeta", 0.3), "$.zeta")
    pp0 = sl2.GeomPhasePoint(qa, pa,
                             _num(data.get("chart", 3), "$.chart", lo=0, hi=3))
    states, report = sl2.lax_flow(pp0, z6, zeta, level, t_end, dt)
    rows = np.arange(0, len(states.qa), max(1, len(states.qa) // 200))
    drift = sl2.lax_drift(states[rows], z6, zeta)
    resid = float(sl2.lax_residual(pp0, z6, zeta, zeta + 0.21, level))
    return {
        "sl2_demo.csv": _csv("t,ham_drift,eig_drift", "%.12g,%.17e,%.17e",
                             np.column_stack((rows * dt, drift))),
        "sl2_report.json": {
            "level": level, "t_end": t_end, "dt": dt,
            "eigenvalue_drift": report["eigenvalue_drift"],
            "hamiltonian_drift": report["hamiltonian_drift"],
            "lax_residual": resid,
        },
    }, [("max(eigenvalue drift, Lax residual)",
         max(report["eigenvalue_drift"], resid))]


@main.group(name="parabolic")
def parabolic_group():
    """Parabolic-type combinatorics."""


def _parse_ptype(data):
    pts = []
    for i, p in enumerate(_list(_field(data, "points"), "$.points")):
        path = f"$.points[{i}]"
        part = _list(_field(p, "partition", path), f"{path}.partition")
        part = [_num(m, f"{path}.partition[{j}]", lo=1)
                for j, m in enumerate(part)]
        weights = _fractions(p.get("weights", []), f"{path}.weights")
        pts.append(pb.MarkedPoint(tuple(part), tuple(weights)))
    return pb.ParabolicType(_num(_field(data, "genus"), "$.genus"),
                            _num(_field(data, "rank"), "$.rank"), pts)


@_command(parabolic_group, "dims")
def parabolic_dims(data):
    """Dimensions of the parabolic Hitchin base."""
    ptype = _parse_ptype(data)
    dims, total = pb.parabolic_base_dims(ptype)
    return {"parabolic_dims.json": {
        "genus": ptype.genus, "rank": ptype.rank,
        "dims": dims, "total": total,
    }}, f"dims {dims}, total {total}"


@_command(parabolic_group, "delta")
def parabolic_delta(data):
    """The gcd invariant Delta_P of a parabolic type."""
    ptype = _parse_ptype(data)
    value = pb.delta_p(ptype)
    pdeg = pb.parabolic_degree(_num(data.get("deg_e", 0), "$.deg_e"), ptype)
    return {"parabolic_delta.json": {
        "delta_p": value,
        "parabolic_degree": str(pdeg),
    }}, f"Delta_P = {value}, pdeg = {pdeg}"


@_command(parabolic_group, "local")
def parabolic_local(data):
    """Newton-polygon analysis of a local characteristic polynomial."""
    local = _field(data, "local")
    raw = _list(_field(local, "coeffs", "$.local"), "$.local.coeffs")
    if not raw:
        raise ValidationError("expected at least one series", "$.local.coeffs")
    trunc = _num(local.get("truncation", pb.DEFAULT_TRUNCATION),
                 "$.local.truncation", lo=1)
    f = pb.LocalCharPoly.from_lists(
        [_fractions(series, "$.local.coeffs") for series in raw], trunc)
    path = "$.local.expected_mu"
    expected = [_num(m, f"{path}[{i}]") for i, m in
                enumerate(_list(local.get("expected_mu", []), path))]
    report = pb.newton_eisenstein_check(
        f, tuple(expected) if expected else None)
    payload = {
        "vertices": [list(v) for v in report["vertices"]],
        "orders": report["orders"],
        "factor_degrees": list(report["factor_degrees"]),
        "distinguished": report["distinguished"],
        "residuals": [pb.residual_str(r) for r in report["residuals"]],
    }
    if "matches_expected" in report:
        payload["matches_expected"] = report["matches_expected"]
    return {"parabolic_local.json": payload}, (
        f"factor degrees {report['factor_degrees']}, "
        f"distinguished: {report['distinguished']}")


if __name__ == "__main__":
    main()
