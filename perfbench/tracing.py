"""Span tracer for the benchmark's traced run.

The tracer rebinds public functions of the `ohtlab` modules to timing
wrappers from outside the program.  A function is rebound under every
module attribute that holds it, so a name imported with `from .x import f`
is caught as well as calls through `x.f`.  Spans stay in memory; the child
process writes them out when its command has finished.
"""

from __future__ import annotations

import functools
import inspect
import os
import sys
import time
from collections import defaultdict

#: public functions timed per module; private helpers are left unwrapped so
#: their time shows in their public caller's self time
LAYERS = {
    "cli": ("load_config",),
    "states": ("make_state", "hermite_psi_all"),
    "detection": ("sample_quadratures", "pdf_table", "detector_counts", "calibration_curve"),
    "formats": ("write_quadrature_dataset", "read_quadrature_dataset", "write_wigner_csv",
                "write_array_frames", "write_manifest"),
    "radon": ("filtered_backprojection", "bootstrap_backprojection", "ramp_kernel_profile"),
    "patterns": ("build_pattern_functions", "rho_from_quadratures"),
    "moments": ("moment_report", "g2_single"),
    "twomode": ("combined_quadrature_samples", "two_time_g2"),
    "arrays": ("simulate_array_frames", "difference_correlation_matrix", "optimal_mode"),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in LAYERS.items() for fn in fns)


#: per-call counts recorded after the wrapped call returns, from its arguments
EXTRAS = {
    "formats.write_quadrature_dataset": lambda a: {"bytes": os.path.getsize(a["path"])},
    "formats.read_quadrature_dataset": lambda a: {"bytes": os.path.getsize(a["path"])},
    "radon.bootstrap_backprojection": lambda a: {"n_boot": a["n_boot"]},
}


class Tracer:
    """Records one span per wrapped call: name, start, end and parent span."""

    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def wrap(self, name: str, fn, extra=None):
        sig = inspect.signature(fn) if extra is not None else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = {"id": len(self.spans), "name": name,
                    "parent": self._stack[-1]["id"] if self._stack else None,
                    "start": self.clock(), "end": None}
            self.spans.append(span)
            self._stack.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = self.clock()
                self._stack.pop()
            if extra is not None:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                span.update(extra(bound.arguments))
            return result
        return traced


def install(tracer: Tracer, package: str = "ohtlab") -> list[str]:
    """Wrap every function in LAYERS; return the names that no longer exist."""
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    missing = []
    for modname, fns in LAYERS.items():
        mod = sys.modules[f"{package}.{modname}"]
        for fname in fns:
            span_name = f"{modname}.{fname}"
            orig = getattr(mod, fname, None)
            if orig is None:
                missing.append(span_name)
                continue
            wrapper = tracer.wrap(span_name, orig, EXTRAS.get(span_name))
            for m in modules:
                for attr, value in list(vars(m).items()):
                    if value is orig:
                        setattr(m, attr, wrapper)
    return missing


def self_times(spans: list[dict]) -> dict[int, float]:
    """Span id -> duration minus the time its child spans cover.

    Wrapped calls nest synchronously on one thread, so a span's children
    are disjoint intervals inside it and their durations add.
    """
    covered = defaultdict(float)
    for s in spans:
        if s["parent"] is not None:
            covered[s["parent"]] += s["end"] - s["start"]
    return {s["id"]: s["end"] - s["start"] - covered[s["id"]] for s in spans}


def _zero() -> dict:
    return {"self_s": 0.0, "calls": 0, "total_s": 0.0, "bytes": 0, "n_boot": 0}


def summarize(spans: list[dict], cmd_start: float, cmd_end: float) -> dict:
    """Per-name totals for one command, plus the command time no span covers.

    The self times of all spans add up to the top-level spans' time, and
    `other_s` is the rest of the command window.  Raises ValueError when
    the spans cannot account for the command that way: a negative self
    time, or top-level spans that overlap or leave the command window.
    """
    selfs = self_times(spans)
    if any(v < -1e-9 for v in selfs.values()):
        raise ValueError("negative span self time")
    top = sorted((s["start"], s["end"]) for s in spans if s["parent"] is None)
    edge = cmd_start
    for start, end in top:
        if start < edge or end > cmd_end:
            raise ValueError("top-level spans overlap or leave the command window")
        edge = end
    by_name = {name: _zero() for name in SPAN_NAMES}
    for s in spans:
        agg = by_name.setdefault(s["name"], _zero())
        agg["self_s"] += selfs[s["id"]]
        agg["calls"] += 1
        agg["total_s"] += s["end"] - s["start"]
        agg["bytes"] += s.get("bytes", 0)
        agg["n_boot"] += s.get("n_boot", 0)
    covered = sum(selfs.values())
    return {"layers": by_name, "other_s": (cmd_end - cmd_start) - covered}
