"""Span tracing of hitchsov's public functions, installed from outside.

Each wrapped function records a span (id, name, start, end, parent, job)
in memory.  Wrappers replace the attribute on the defining module, so that
calls through module globals are caught, and every alias the other
hitchsov modules bound with ``from .x import f``.
"""

import functools
import gzip
import importlib
import sys
import time
from collections import Counter, defaultdict

# The layers and the functions traced in each.  Per-layer metrics are
# named <module>.<function>.calls / .self_share, in this order.
TARGETS = {
    "curves": ["build_curve", "period_matrix", "abel_map", "route_path",
               "integrate_monomials"],
    "spectral": ["eval_R", "lambda_roots"],
    "separation": ["solve_hamiltonians", "implicit_gradients"],
    "flows": ["flow_fiber", "flow_poisson", "jacobi_matrix", "match_states"],
    "theta": ["riemann_theta", "theta_deriv_table", "riemann_constants",
              "sigma_series", "sigma_contour", "jacobi_inversion_check"],
    "sl2": ["lax_flow", "x_matrix", "x_gradients", "lax_pair",
            "gp_hamiltonians", "lax_residual"],
}
LAYERS = ["cli"] + list(TARGETS)


class Tracer:
    """In-memory span recorder with per-function call counts and self time.

    Spans are recorded only while ``job`` is set.  Self time is a span's
    duration minus the time its child spans cover.  Time of a job outside
    all its spans is charged to ``cli``.
    """

    def __init__(self):
        self.spans = []          # (id, name, start, end, parent, job)
        self.calls = Counter()
        self.self_s = defaultdict(float)
        self.top_s = 0.0         # summed duration of spans without a parent
        self.job = None
        self._stack = []         # [span id, time covered by children]
        self._next_id = 0
        self._patched = []

    def wrap(self, name, fn):
        stack, spans = self._stack, self.spans
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.job is None:     # between jobs: input generation
                return fn(*args, **kwargs)
            sid = self._next_id
            self._next_id += 1
            parent = stack[-1] if stack else None
            frame = [sid, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                dur = end - start
                if parent is None:
                    self.top_s += dur
                    pid = None
                else:
                    parent[1] += dur
                    pid = parent[0]
                self.calls[name] += 1
                self.self_s[name] += dur - frame[1]
                spans.append((sid, name, start, end, pid, self.job))
        return traced

    def install(self):
        """Patch every traced function and each of its hitchsov aliases."""
        mods = [m for k, m in sys.modules.items()
                if k == "hitchsov" or k.startswith("hitchsov.")]
        for mod_name, names in TARGETS.items():
            mod = importlib.import_module(f"hitchsov.{mod_name}")
            for fname in names:
                orig = getattr(mod, fname)
                wrapped = self.wrap(f"{mod_name}.{fname}", orig)
                for m in mods:
                    for attr, val in list(vars(m).items()):
                        if val is orig:
                            setattr(m, attr, wrapped)
                            self._patched.append((m, attr, orig))

    def uninstall(self):
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    def write(self, path):
        """Spans as gzipped CSV: id,name,start,end,parent,job."""
        with gzip.open(path, "wt") as fh:
            fh.write("id,name,start,end,parent,job\n")
            for sid, name, start, end, pid, job in self.spans:
                fh.write(f"{sid},{name},{start:.9f},{end:.9f},"
                         f"{'' if pid is None else pid},{job}\n")

    def layer_metrics(self, wall):
        """Per-layer metrics: calls and self_share per function,
        self_share per layer, and cli.self_s.

        ``wall`` is the traced wall time the spans fall inside; the layer
        self times plus cli.self_s add up to it, so the layer shares add up
        to 1.  Self time per function is reported as a share of ``wall``,
        not in seconds: a function that a workload never reaches then reads
        0 as a ratio, not as a time.  Seconds are in ``self_seconds``.
        """
        out = {}
        layer_self = defaultdict(float)
        for mod_name, names in TARGETS.items():
            for fname in names:
                key = f"{mod_name}.{fname}"
                out[f"{key}.calls"] = (self.calls[key], "count")
                out[f"{key}.self_share"] = (self.self_s[key] / wall, "ratio")
                layer_self[mod_name] += self.self_s[key]
        layer_self["cli"] = wall - self.top_s
        out["cli.self_s"] = (layer_self["cli"], "s")
        for layer in LAYERS:
            out[f"{layer}.self_share"] = (layer_self[layer] / wall, "ratio")
        return out

    def self_seconds(self):
        """Self time in seconds of each function that was called."""
        return {key: self.self_s[key] for key in self.calls}
