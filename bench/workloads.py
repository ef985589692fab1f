"""Seeded inputs, jobs and per-job output checks of the workloads.

Every job's inputs come from ``numpy.random.default_rng([seed, index])``,
so job ``index`` of a seed is the same in every run and in the traced
replay.  Inputs are never filtered on how the program handles them: a job
the program fails on is counted as failed, with its failure class.
BENCHMARK.json lists the workloads on which no job fails (inversion,
flow, lax); periods, flow_full and lax_normal show the failures and are
run by hand.

Distributions (also stated in README.md):
- branch points uniform in the disc |x| <= 2, pairwise separation >= 0.5;
- fiber configurations by planted-H sampling: H standard complex normal,
  x = 0.8 * standard complex normal, a random sheet of y and a random
  root lambda of the fiber above (x, y);
- flow directions c = J @ (0.1 * N(0, 1)), J the Jacobi matrix at the
  configuration;
- SL2 z6, q and p standard complex normals (re and im each N(0, 1)),
  times 0.5 in lax."""

import contextlib
import io
import json
import shutil
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import hitchsov.cli
from hitchsov import curves, theta
from hitchsov.errors import (HitchsovError, ValidationError, DegreeError,
                             DuplicateBranchPoint)
from hitchsov.flows import jacobi_matrix
from hitchsov.separation import PhaseConfiguration
from hitchsov.spectral import (resolve_type, coefficient_layout,
                               SpectralPoint, lambda_roots)

npoly = np.polynomial.polynomial

# Failure classes, in report order.  exit3/exit4 are the CLI's typed exits
# (or the typed errors behind them on library calls), crash an exception
# that is not a HitchsovError, check a job that finished but whose outputs
# fail the benchmark's check.
FAILURES = ("exit3", "exit4", "crash", "check")


@dataclass
class Job:
    kind: str
    call: Callable          # the timed work; returns what check() reads
    check: Callable         # result -> None, or a message on failure


def _cnormal(rng, n=None):
    return rng.standard_normal(n) + 1j * rng.standard_normal(n)


def _pair(z):
    z = complex(z)
    return [z.real, z.imag]


def _pairs(vec):
    return [_pair(z) for z in np.ravel(vec)]


def branch_points(rng, n, radius=2.0, min_sep=0.5):
    """n points uniform in the disc of the given radius, kept pairwise
    at least min_sep apart by rejection."""
    pts = []
    while len(pts) < n:
        r = radius * np.sqrt(rng.random())
        x = r * np.exp(2j * np.pi * rng.random())
        if all(abs(x - p) >= min_sep for p in pts):
            pts.append(x)
    return np.array(pts)


def sample_fiber_config(layout, curve, ham, rng, spread=0.8):
    """h points on the spectral cover of the planted coefficients ``ham``.

    Fiber roots within 1e-6 of lambda = 0 are skipped: for the odd
    orthogonal family lambda = 0 lies on every fiber.
    """
    points = []
    while len(points) < layout.h:
        x = spread * _cnormal(rng)
        if any(abs(x - p.x) < 1e-3 for p in points):
            continue
        y = np.sqrt(complex(curve.p(x)))
        if rng.random() < 0.5:
            y = -y
        roots = [r for r in lambda_roots(layout, curve, ham, x, y)
                 if abs(r) > 1e-6]
        if not roots:
            continue
        lam = roots[int(rng.integers(len(roots)))]
        points.append(SpectralPoint(x, y, lam))
    return PhaseConfiguration(points)


def classify_exception(exc):
    if isinstance(exc, (ValidationError, DegreeError, DuplicateBranchPoint)):
        return "exit3"
    if isinstance(exc, HitchsovError):
        return "exit4"
    return "crash"


def run_cli(args):
    """``hitchsov <args>`` in-process; returns (exit code, captured output).

    Exceptions other than SystemExit propagate: they are crashes.
    """
    buf = io.StringIO()
    code = 0
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        try:
            hitchsov.cli.main(args, standalone_mode=False)
        except SystemExit as exc:
            code = 0 if exc.code is None else exc.code
    return code, buf.getvalue()


def _exit_status(code, output):
    """Failure message for a nonzero exit, or None for exit 0."""
    if code == 0:
        return None
    tail = output.strip().splitlines()[-1:] or [""]
    cls = {3: "exit3", 4: "exit4"}.get(code, "crash")
    return cls, f"exit {code}: {tail[0]}"


class Workload:
    """A fixed cyclic job mix.  ``kinds`` lists one cycle; runs stop only
    at cycle boundaries, so every run sees the mix in the same ratio.

    Library calls that a job or setup times go through their module
    (``theta.f``, not a name bound here), so that the traced run's
    wrappers see them.
    """

    name = ""
    kinds = ()
    trace_cycles = 1        # cycles replayed by the traced run

    def __init__(self, seed, workdir):
        self.seed = seed
        self.workdir = Path(workdir)

    def setup(self):
        """Per-workload precompute, timed into setup_s."""

    def job_dir(self):
        d = self.workdir / "job"
        shutil.rmtree(d, ignore_errors=True)
        d.mkdir(parents=True)
        return d

    def rng(self, index):
        return np.random.default_rng([self.seed, index])

    def make(self, index):
        raise NotImplementedError


class Periods(Workload):
    """``theta sigma --strict`` on a fresh genus-2 curve per job."""

    name = "periods"
    kinds = ("g2",)
    trace_cycles = 2

    def make(self, index):
        rng = self.rng(index)
        g = 2
        coeffs = npoly.polyfromroots(branch_points(rng, 2 * g + 1))
        k = int(rng.integers(1, g + 1))
        phi = 0.3 * _cnormal(rng, g)
        d = self.job_dir()
        inp = d / "theta.json"
        inp.write_text(json.dumps({"curve": {"coeffs": _pairs(coeffs)},
                                   "phi": _pairs(phi), "k": k}))
        args = ["theta", "sigma", "--input", str(inp), "--output", str(d),
                "--strict"]

        def check(res):
            bad = _exit_status(*res)
            if bad:
                return bad
            out = json.loads((d / "theta_sigma.json").read_text())
            tau = np.array([[complex(*v) for v in row] for row in out["tau"]])
            asym = float(np.abs(tau - tau.T).max())
            if asym > 1e-10:
                return "check", f"tau asymmetric by {asym:.2e}"
            lam = float(np.linalg.eigvalsh(0.5 * (tau.imag + tau.imag.T)).min())
            if lam <= 0:
                return "check", f"Im tau not positive definite ({lam:.2e})"
            return None

        return Job("g2", lambda: run_cli(args), check)


class Inversion(Workload):
    """``jacobi_inversion_check`` on fresh point sets over a fixed pool of
    curves whose tau and Riemann constants are computed once, in setup."""

    name = "inversion"
    # Branch points of the pool: the test suite's genus-2 curves with real
    # and with complex branch points, and a rotated regular pentagon.  The
    # pool is the same for every seed; the seed draws the point sets.
    POOL = {
        "real": [1.0, 2.0, 3.0, 4.0, 5.0],
        "complex": [0.0, 1.0, -1.2, 2.0 + 0.5j, -0.3 - 1.1j],
        "pentagon": [1.5 * np.exp(2j * np.pi * k / 5 + 0.3j)
                     for k in range(5)],
    }
    kinds = tuple(POOL)         # one job per pool curve in a cycle
    trace_cycles = 2

    def setup(self):
        self.pool = []
        for i, roots in enumerate(self.POOL.values()):
            cv = curves.build_curve(npoly.polyfromroots(roots))
            td = curves.period_matrix(cv)
            theta.riemann_constants(cv, td, rng=np.random.default_rng(i))
            self.pool.append((cv, td))

    def make(self, index):
        rng = self.rng(index)
        kind = self.kinds[index % len(self.kinds)]
        cv, td = self.pool[index % len(self.kinds)]

        def pick():
            pts = []
            for _ in range(cv.genus):
                x = _cnormal(rng)
                y = np.sqrt(complex(cv.p(x)))
                if rng.random() < 0.5:
                    y = -y
                pts.append(cv.point(x, y))
            return pts

        points, refs = pick(), pick()

        def check(rep):
            if not rep["error"] < 1e-5:
                return "check", f"recovery error {rep['error']:.2e}"
            if not rep["route_gap"] < 1e-6:
                return "check", f"route gap {rep['route_gap']:.2e}"
            return None

        return Job(kind,
                   lambda: theta.jacobi_inversion_check(cv, td, points, refs),
                   check)


class Flow(Workload):
    """``flow run --route both --strict`` on planted genus-2 GL(2) and SP(2)
    systems, whose Hamiltonians come from the linear solve."""

    name = "flow"
    kinds = ("GL", "SP")
    trace_cycles = 3
    t_end, dt = 0.1, 1e-3

    def make(self, index):
        rng = self.rng(index)
        family = self.kinds[index % len(self.kinds)]
        coeffs = npoly.polyfromroots(branch_points(rng, 5))
        cv = curves.build_curve(coeffs)
        layout = coefficient_layout(resolve_type(family, 2), cv)
        ham = _cnormal(rng, layout.h)
        cfg = sample_fiber_config(layout, cv, ham, rng)
        w = 0.1 * rng.standard_normal(layout.h)
        try:
            c = jacobi_matrix(layout, cv, ham, cfg) @ w
        except HitchsovError as exc:   # the flow would stop on it too
            def fail():
                raise exc
            return Job(family, fail, lambda res: None)
        d = self.job_dir()
        inp = d / "system.json"
        inp.write_text(json.dumps({
            "curve": {"coeffs": _pairs(coeffs)},
            "lie_type": {"family": family, "rank": 2},
            "points": [{"x": _pair(p.x), "y": _pair(p.y),
                        "lambda": _pair(p.lam)} for p in cfg.points],
            "flow": {"direction": _pairs(c)},
        }))
        args = ["flow", "run", "--input", str(inp), "--output", str(d),
                "--route", "both", "--strict", "--t-end", str(self.t_end),
                "--dt", str(self.dt)]
        n_times = int(round(self.t_end / self.dt)) + 1

        def check(res):
            bad = _exit_status(*res)
            if bad:
                return bad
            for route in ("fiber", "poisson"):
                lines = (d / f"flow_{route}.csv").read_text().splitlines()
                times = {ln.split(",", 1)[0] for ln in lines[1:]}
                if len(times) != n_times or len(lines) != 1 + n_times * layout.h:
                    return "check", (f"flow_{route}.csv has {len(times)} "
                                     f"times, {len(lines) - 1} rows")
            return None

        return Job(family, lambda: run_cli(args), check)


class FlowFull(Flow):
    """The flow mix with SO_even(2) added, whose Poisson route runs a damped
    Newton solve at every stage, to t = 0.25.  The strict two-route gate
    fails on some SO_even inputs (exit 4), so this workload is run by hand
    and is not listed in BENCHMARK.json."""

    name = "flow_full"
    kinds = ("GL", "SP", "SO_even")
    trace_cycles = 1
    t_end = 0.25


class Lax(Workload):
    """``sl2 demo --strict`` (level 4, t_end 0.2, dt 1e-3) per job, on
    z6, q and p drawn as ``scale`` times standard complex normals."""

    name = "lax"
    kinds = ("sl2",)
    trace_cycles = 12
    tol = 1e-6
    scale = 0.5

    def make(self, index):
        rng = self.rng(index)
        d = self.job_dir()
        inp = d / "sl2.json"
        inp.write_text(json.dumps({
            "z6": _pairs(self.scale * _cnormal(rng, 6)),
            "q": _pairs(self.scale * _cnormal(rng, 3)),
            "p": _pairs(self.scale * _cnormal(rng, 3)), "zeta": [0.3, 0.0]}))
        args = ["sl2", "demo", "--input", str(inp), "--output", str(d),
                "--strict", "--level", "4", "--t-end", "0.2", "--dt", "1e-3"]

        def check(res):
            bad = _exit_status(*res)
            if bad:
                return bad
            rep = json.loads((d / "sl2_report.json").read_text())
            worst = max(rep["eigenvalue_drift"], rep["lax_residual"])
            if not worst < self.tol:
                return "check", f"drift {worst:.2e} passed the strict gate"
            lines = (d / "sl2_demo.csv").read_text().splitlines()
            if lines[0] != "t,ham_drift,eig_drift" or len(lines) < 2:
                return "check", "sl2_demo.csv malformed"
            return None

        return Job("sl2", lambda: run_cli(args), check)


_PROBE = np.random.default_rng(0).standard_normal((8, 8)) * (1 + 0.5j)


def probe():
    """Wall time of a fixed piece of work that does not touch hitchsov:
    small dense eigenproblems and a Python loop of complex arithmetic, the
    two kinds of work the jobs do.  It gauges how fast the shared host
    runs at the moment."""
    t0 = time.perf_counter()
    for i in range(200):
        np.linalg.eigvals(_PROBE + i)
        x = complex(i)
        for _ in range(300):
            x = x * 0.999 + 1j
    return time.perf_counter() - t0


def execute(wl, index, tracer=None):
    """Make job ``index`` (untimed), run it (timed) between two host probes
    (untimed), check it (untimed).  ``probe_s`` is the mean of the two
    probes: the host's speed around the job."""
    job = wl.make(index)
    probe_s = probe()
    if tracer is not None:
        tracer.job = index
    t0 = time.perf_counter()
    try:
        result = job.call()
        bad = None
    except Exception as exc:
        bad = classify_exception(exc), f"{type(exc).__name__}: {exc}"
    wall = time.perf_counter() - t0
    if tracer is not None:
        tracer.job = None
    probe_s = (probe_s + probe()) / 2
    if bad is None:
        try:
            bad = job.check(result)
        except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
            bad = "check", f"unreadable output: {type(exc).__name__}: {exc}"
    status, message = bad if bad else ("ok", "")
    return {"index": index, "kind": job.kind, "wall_s": wall,
            "probe_s": probe_s, "status": status, "message": message[:300]}


def run_cycles(wl, seconds=None, cycles=None, tracer=None):
    """Whole cycles of the job mix, until ``seconds`` of loop time have
    passed or ``cycles`` cycles are done."""
    jobs, index, done = [], 0, 0
    t0 = time.perf_counter()
    while True:
        for _ in wl.kinds:
            jobs.append(execute(wl, index, tracer))
            index += 1
        done += 1
        if cycles is not None and done >= cycles:
            return jobs
        if seconds is not None and time.perf_counter() - t0 >= seconds:
            return jobs


class LaxNormal(Lax):
    """``lax`` on standard complex normals.  About one input in ten fails:
    the strict drift gate (exit 4), or a LinAlgError that escapes the
    CLI's error handling (a crash).  Run by hand; not listed in
    BENCHMARK.json."""

    name = "lax_normal"
    scale = 1.0


WORKLOADS = {w.name: w for w in (Periods, Inversion, Flow, FlowFull, Lax,
                                 LaxNormal)}
