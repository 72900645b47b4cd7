"""Span tracing of the library's layers, installed from outside the package.

`install()` wraps every public module-level function of the layer modules
and rebinds the wrapper in every `qutrit_bell` module that holds the
function (for example `protocols.amplitude_rows`), so the traced run takes
the same `cli.main` path as the untraced one. A function that no longer
exists is simply absent from the trace.

Each span records name, start, end, parent, op id and whether it raised.
Self time (a span's duration minus the time its child spans cover), the
rise of the RSS high-water mark and the number of spans are summed online
per metric group, so they stay exact past the cap on kept spans.
"""

from __future__ import annotations

import functools
import inspect
import resource
import sys
import time
from collections import defaultdict

LAYERS = ("topology", "dynamics", "measurement", "protocols", "oracle")

#: time-metric group of each function; unlisted public functions go to "other"
GROUPS = {
    "topology": {"build_cross": "build", "build_loop": "build", "path_distance": "build",
                 "find_protocol_automorphism": "automorphism"},
    "dynamics": {"enumerate_basis": "assemble", "assemble_hamiltonian": "assemble",
                 "initial_state": "assemble", "pair_index": "assemble",
                 "spectral_decompose": "eigh", "amplitude_rows": "amplitude_rows",
                 "find_peak": "find_peak", "select_peak": "find_peak",
                 "refine_maximum": "find_peak", "success_curve": "find_peak",
                 "scan_success": "find_peak", "evolve": "evolve"},
    "measurement": {"outcome_distribution": "outcome", "post_state": "post_state"},
    "protocols": {"plan_protocol2": "plan", "plan_regular": "plan",
                  "protocol2_limit_check": "plan", "build_protocol_report": "report",
                  "protocol1_required": "report", "protocol1_cumulative": "report",
                  "protocol2_no_reset": "report", "protocol2_total": "report"},
    "oracle": {"su3_algebra_check": "su3", "generator_matrix": "su3",
               "sector_restriction": "sector", "full_evolve_compare": "compare",
               "full_hamiltonian": "compare", "full_initial_index": "compare",
               "symmetry_check": "symmetry"},
}
#: spans kept per op for the trace file. Every op at seed stays far below it
#: except the max-margin hang, whose `protocol1_required` loop calls
#: `protocol1_cumulative` 1.6-2.1 million times before the deadline; keeping
#: those spans would cost about 400 MB of memory and a 250 MB trace file.
MAX_SPANS_PER_OP = 20000

def _failure_metric(layer: str, group: str) -> str | None:
    """Metric that counts a raising span of this group, if any."""
    if layer == "oracle":
        return "oracle.failed"
    if (layer, group) == ("protocols", "report"):
        return "protocols.report_failed"
    return None


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _count_spectral(args, result):
    return {"dynamics.eigh_calls": 1, "dynamics.eigh_dim_sum": args["h"].matrix.shape[0]}


def _count_rows(args, result):
    d = len(args["e"].eigenvalues)
    return {"dynamics.amplitude_rows_calls": 1,
            "dynamics.phase_bytes": 16 * d * len(args["t_grid"])}


def _count_plan(args, result):
    return {"protocols.steps_planned": len(result.steps),
            "protocols.steps_requested": args["n_max"]}


def _count_full_dim(args, result):
    return {"oracle.full_dim_sum": 3 ** args["g"].n_vertices}


#: counters taken from a call's arguments (by name) and result
COUNTERS = {
    "dynamics.spectral_decompose": _count_spectral,
    "dynamics.amplitude_rows": _count_rows,
    "dynamics.refine_maximum": lambda args, result: {"dynamics.refine_calls": 1},
    "dynamics.evolve": lambda args, result: {"dynamics.evolve_calls": 1},
    "measurement.outcome_distribution": lambda args, result: {"measurement.outcome_calls": 1},
    "measurement.post_state": lambda args, result: {"measurement.post_state_calls": 1},
    "protocols.plan_protocol2": _count_plan,
    "protocols.plan_regular": _count_plan,
    "oracle.sector_restriction": _count_full_dim,
    "oracle.full_evolve_compare": _count_full_dim,
}


class Tracer:
    """Span stack, kept spans and online aggregates of one worker process."""

    def __init__(self):
        self.op_id = ""
        self.spans: list[tuple] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.evolve_s: list[float] = []
        self._stack: list[list] = []
        self._next_id = 0

    def begin_op(self, op_id: str) -> None:
        self.op_id, self.spans = op_id, []
        self.totals, self.evolve_s = defaultdict(float), []
        self._stack = []

    def op_record(self) -> dict:
        return {"totals": dict(self.totals), "evolve_s": self.evolve_s,
                "spans": self.spans}

    def enter(self, layer: str, group: str, name: str) -> None:
        self._next_id += 1
        parent = self._stack[-1][0] if self._stack else 0
        # [span id, parent id, layer, group, name, start, child time,
        #  rss at start, child rss rise]
        self._stack.append([self._next_id, parent, layer, group, name,
                            time.perf_counter(), 0.0, _maxrss_mb(), 0.0])

    def exit(self, failed: bool) -> None:
        end, rss = time.perf_counter(), _maxrss_mb()
        span_id, parent, layer, group, name, start, child_t, rss0, child_rss = self._stack.pop()
        dur, rise = end - start, rss - rss0
        self.totals[f"{layer}.{group}_s"] += dur - child_t
        self.totals[f"{layer}.rss_rise_mb"] += rise - child_rss
        self.totals["trace.spans"] += 1
        up = self._stack[-1] if self._stack else None
        if up is not None:
            up[6] += dur
            up[8] += rise
        metric = _failure_metric(layer, group) if failed else None
        if metric and (up is None or _failure_metric(up[2], up[3]) != metric):
            self.totals[metric] += 1  # count the outermost raising span only
        if name == "dynamics.evolve":
            self.evolve_s.append(dur)
        if len(self.spans) < MAX_SPANS_PER_OP:
            self.spans.append((self.op_id, span_id, parent, name, start, end, failed))

    def count(self, counter, signature, args, kwargs, result) -> None:
        try:
            bound = signature.bind(*args, **kwargs)
            bound.apply_defaults()
            increments = counter(bound.arguments, result)
        except (TypeError, AttributeError, KeyError):
            return  # the function's signature changed; its span still counts
        for key, value in increments.items():
            self.totals[key] += value

    def wrap(self, layer: str, fn):
        name = f"{layer}.{fn.__name__}"
        group = GROUPS[layer].get(fn.__name__, "other")
        counter = COUNTERS.get(name)
        signature = inspect.signature(fn) if counter else None

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self.enter(layer, group, name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self.exit(failed=True)
                raise
            self.exit(failed=False)
            if counter:
                self.count(counter, signature, args, kwargs, result)
            return result

        return traced


def install(tracer: Tracer) -> list[str]:
    """Wrap the layers' public functions wherever the package binds them."""
    package = [m for name, m in list(sys.modules.items())
               if m is not None and (name == "qutrit_bell" or name.startswith("qutrit_bell."))]
    wrapped = []
    for layer in LAYERS:
        module = sys.modules.get(f"qutrit_bell.{layer}")
        if module is None:
            continue
        for attr, fn in list(vars(module).items()):
            if attr.startswith("_") or not inspect.isfunction(fn) \
                    or fn.__module__ != module.__name__:
                continue
            traced = tracer.wrap(layer, fn)
            for holder in package:
                for key, value in list(vars(holder).items()):
                    if value is fn:
                        setattr(holder, key, traced)
            wrapped.append(f"{layer}.{attr}")
    return wrapped
