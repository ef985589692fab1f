"""Closed-loop benchmark of the hitchsov library and CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace {0,1}

NAME is one of inversion, flow and lax (listed in BENCHMARK.json), or
periods, flow_full and lax_normal (run by hand; see README.md).

Run from the root of a source checkout; the package is imported from
``src``.  One client runs one job at a time, in this process, with BLAS
pinned to one thread.  Jobs are drawn from the seed (see workloads.py)
and every job's outputs are checked.  CLI jobs go through
``hitchsov.cli.main(args, standalone_mode=False)``.

With ``--trace 0`` the run repeats whole job cycles until ``--seconds``
have passed and reports the end-to-end metrics, with the bounded times
scaled to the baseline host's speed by probes run around each job.  With
``--trace 1`` it runs a fixed job list twice, untraced and then traced,
and reports the per-layer metrics of the traced pass and the tracing
overhead (traced wall minus untraced wall).  A human-readable summary goes to stdout, the
full record to ``bench/out/``, and the last stdout line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
IMPORT_REPEATS = 5      # import timings per run, in-process one included
TAIL_BEYOND = 10        # jobs that must lie beyond the tail percentile
PROBE_NOMINAL_S = 0.012  # workloads.probe() wall on the quiet baseline host

clock = time.perf_counter


def time_import_subprocess():
    code = ("import time; t = time.perf_counter(); import hitchsov.cli; "
            "print(time.perf_counter() - t)")
    env = dict(os.environ, PYTHONPATH=str(SRC))
    res = subprocess.run([sys.executable, "-c", code], env=env, cwd=ROOT,
                         capture_output=True, text=True, timeout=120,
                         check=True)
    return float(res.stdout.strip().splitlines()[-1])


def tail(walls):
    """Highest order statistic with TAIL_BEYOND jobs beyond it, as
    (value, percentile); None when the run has fewer than 2*TAIL_BEYOND
    jobs, where that statistic would not lie above the median."""
    n = len(walls)
    if n < 2 * TAIL_BEYOND:
        return None
    k = n - TAIL_BEYOND
    return sorted(walls)[k - 1], 100.0 * k / n


def environment(args):
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), platform.processor())
    except OSError:
        cpu = platform.processor()
    return {
        "python": platform.python_version(),
        **{pkg: metadata.version(pkg)
           for pkg in ("numpy", "scipy", "sympy", "click")},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "blas_threads": {v: os.environ.get(v) for v in
                         ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
                          "MKL_NUM_THREADS")},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


def lower_quartile(values):
    return statistics.quantiles(values, n=4, method="inclusive")[0] \
        if len(values) > 1 else values[0]


def mix_rate(jobs, cost):
    """Passed jobs per second at the workload's fixed job mix, where
    ``cost(job)`` gives a job's seconds.

    Each job kind costs the mean cost of its passed jobs (of all its jobs
    if none passed), and the mix runs one job of each kind.  A failure
    cannot move the rate by dropping an expensive or a cheap job from the
    passed set, and a job that fails fast cannot raise it."""
    if not any(j["status"] == "ok" for j in jobs):
        return 0.0
    kinds = {}
    for j in jobs:
        kinds.setdefault(j["kind"], []).append(j)
    total = 0.0
    for runs in kinds.values():
        passed = [j for j in runs if j["status"] == "ok"] or runs
        total += statistics.mean(cost(j) for j in passed)
    return len(kinds) / total


def nominal_s(job):
    """A job's wall scaled to the baseline host's speed by the probes
    taken around it."""
    return job["wall_s"] * PROBE_NOMINAL_S / job["probe_s"]


def host_speed(jobs):
    """The host's speed during the run relative to the baseline host:
    PROBE_NOMINAL_S over the lower quartile of the jobs' probe times."""
    return PROBE_NOMINAL_S / lower_quartile([j["probe_s"] for j in jobs])


def end_to_end(wl, args, import_s):
    """Bounded metrics, plus job_p50_s, job_tail_s and fail_share, which
    are reported but not bounded: the median moves with the host's speed,
    and the other two can be absent or zero.

    The shared host's speed drifts by up to half within minutes, so the
    bounded times are scaled to the baseline host's speed: each job's wall
    by the probes around it, setup by host_speed().  The unscaled values
    are recorded next to them."""
    from workloads import run_cycles
    t0 = clock()
    wl.setup()
    setup_s = statistics.median(import_s) + (clock() - t0)
    jobs = run_cycles(wl, seconds=args.seconds)
    speed = host_speed(jobs)
    walls = [j["wall_s"] for j in jobs if j["status"] == "ok"]
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "jobs_per_s": (mix_rate(jobs, nominal_s), "1/s"),
        "setup_s": (setup_s * speed, "s"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    t = tail(walls)
    extra = {
        "host_speed": speed,
        "unscaled": {"jobs_per_s": mix_rate(jobs, lambda j: j["wall_s"]),
                     "setup_s": setup_s},
        "job_p50_s": {"value": statistics.median(walls) if walls else None,
                      "unit": "s", "jobs": len(walls)},
        "job_tail_s": None if t is None else
        {"value": t[0], "unit": "s", "percentile": t[1], "jobs": len(walls)},
        "fail_share": {"value": 1 - len(walls) / len(jobs), "unit": "ratio"},
        "failed_wall_s": sum(j["wall_s"] for j in jobs) - sum(walls),
        "import_s": import_s,
    }
    return jobs, metrics, extra


def timed_pass(wl, tracer=None):
    """Setup then trace_cycles cycles; returns (jobs, setup + job wall)."""
    from workloads import run_cycles
    if tracer is not None:
        tracer.job = "setup"
    t0 = clock()
    wl.setup()
    setup_wall = clock() - t0
    if tracer is not None:
        tracer.job = None
    jobs = run_cycles(wl, cycles=wl.trace_cycles, tracer=tracer)
    return jobs, setup_wall + sum(j["wall_s"] for j in jobs)


def traced(wl, args):
    from spans import Tracer
    plain, plain_wall = timed_pass(wl)
    tracer = Tracer()
    tracer.install()
    try:
        jobs, traced_wall = timed_pass(wl, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(traced_wall)
    metrics["trace.untraced_wall_s"] = (plain_wall, "s")
    metrics["trace.overhead_s"] = (traced_wall - plain_wall, "s")
    spans_path = OUT / f"{wl.name}-seed{args.seed}-spans.csv.gz"
    tracer.write(spans_path)
    extra = {"traced_wall_s": traced_wall,
             "self_s": tracer.self_seconds(), "spans": str(spans_path),
             "span_count": len(tracer.spans), "untraced_jobs": plain}
    return jobs, metrics, extra


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not (SRC / "hitchsov" / "cli.py").is_file():
        sys.exit(f"no hitchsov sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = clock()
    import hitchsov.cli  # noqa: F401  (timed: part of setup_s)
    import_s = [clock() - t0]
    from workloads import WORKLOADS, FAILURES
    if args.workload not in WORKLOADS:
        sys.exit(f"unknown workload {args.workload!r}; "
                 f"expected one of {sorted(WORKLOADS)}")
    OUT.mkdir(exist_ok=True)
    wl = WORKLOADS[args.workload](args.seed, OUT / args.workload)

    if args.trace:
        jobs, metrics, extra = traced(wl, args)
    else:
        import_s += [time_import_subprocess()
                     for _ in range(IMPORT_REPEATS - 1)]
        jobs, metrics, extra = end_to_end(wl, args, import_s)

    fails = {c: sum(j["status"] == c for j in jobs) for c in FAILURES}
    failed = sum(fails.values())
    kinds = {k: sum(j["kind"] == k for j in jobs) for k in wl.kinds}
    reported = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {
        "environment": environment(args),
        "job_counts": {"attempted": len(jobs), "failed": failed,
                       "by_kind": kinds, "by_failure": fails},
        "metrics": reported,
        **extra,
        "jobs": jobs,
    }
    name = f"{wl.name}-seed{args.seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1, default=str) + "\n")

    print(f"workload {wl.name} seed {args.seed}: {len(jobs)} jobs "
          f"{kinds}, {failed} failed {fails}")
    for k, (v, u) in metrics.items():
        print(f"  {k} {v:.6g} {u}")
    for k, v in extra.get("self_s", {}).items():
        print(f"  {k}.self_s {v:.6g} s")
    if not args.trace:
        print(f"  host_speed {extra['host_speed']:.6g} (unscaled: " + ", ".join(
            f"{k} {v:.6g}" for k, v in extra["unscaled"].items()) + ")")
        p50, t = extra["job_p50_s"], extra["job_tail_s"]
        print("  job_p50_s " + ("absent (no passed job)" if p50["value"] is None
                                else f"{p50['value']:.6g} s"))
        print("  job_tail_s " + (
            "absent (fewer than "
            f"{2 * TAIL_BEYOND} passed jobs)" if t is None else
            f"{t['value']:.6g} s (p{t['percentile']:.1f} of {t['jobs']})"))
        print(f"  fail_share {extra['fail_share']['value']:.6g} ratio")
    for j in jobs:
        if j["status"] != "ok":
            print(f"  job {j['index']} {j['kind']} {j['status']}: "
                  f"{j['message']}")
    print(f"  record {OUT / name}")
    print(json.dumps({
        "correct": fails["check"] == 0,
        "attempted": len(jobs),
        "failed": failed,
        "metrics": reported,
    }))


if __name__ == "__main__":
    main()
