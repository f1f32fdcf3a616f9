"""In-memory tracer for the benchmark's traced run.

The tracer wraps the program's public functions at the module attributes
through which callers reach them (both ``supopt.maximize_over_pure_states``
and ``measures.maximize_over_pure_states``, for example), so no file of the
program is edited.  Each wrapped call records a span ``[name, start, end,
parent span, operation id]``.  The objective passed into a supremum is
wrapped too; its evaluations are counted and timed, not spanned, because
there are thousands per call.  A target that no longer exists is skipped,
and its metrics read zero.

A layer's self time is its span's duration minus the time its child spans
cover.  Calls are single-threaded, so children never overlap.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict

clock = time.perf_counter

# (span name, hook, [(module, attribute), ...]).  The hook says what else
# the wrapper records: "supremum" counts and times the objective,
# "minimize" adds the result's nfev, "kind" puts the measure kind into
# the span name, "bytes" adds the length of the returned text.
TARGETS = (
    ("supopt.pure", "supremum", (("supopt", "maximize_over_pure_states"),
                                 ("measures", "maximize_over_pure_states"))),
    ("supopt.bipartite", "supremum",
     (("supopt", "maximize_over_bipartite_pure_states"),
      ("measures", "maximize_over_bipartite_pure_states"))),
    ("scipy.minimize", "minimize", (("supopt", "minimize"),
                                    ("experiment", "minimize"))),
    ("qmath.herm_eigvals", None, (("qmath", "herm_eigvals"),
                                  ("states", "herm_eigvals"))),
    ("qmath.partial_trace", None, (("qmath", "partial_trace"),
                                   ("measures", "partial_trace"),
                                   ("schemes", "partial_trace"))),
    ("measures.measurement_error", None,
     (("measures", "measurement_error_estimate"),)),
    ("measures.disturbance", "kind", (("measures", "disturbance_estimate"),)),
    ("instruments.build", None, (
        ("instruments", "make_optimal_instrument"),
        ("instruments", "make_diagonal_instrument"),
        ("instruments", "povm_of"),
        ("instruments", "validate_instrument"),
        ("measures", "povm_of"),
        ("measures", "validate_instrument"),
        ("experiment", "povm_of"),
        ("experiment", "validate_instrument"),
        ("schemes", "cloner_induced_povm"),
        ("schemes", "cloner_system_channel_spec"),
        ("schemes", "swap_induced_povm"),
        ("schemes", "swap_system_channel_spec"))),
    ("experiment.simulate_dataset", None,
     (("experiment", "simulate_dataset"),)),
    ("experiment.dataset_to_json", "bytes", (("experiment", "dataset_to_json"),)),
    ("experiment.reconstruct_branch_states", None,
     (("experiment", "reconstruct_branch_states"),)),
    ("experiment.estimate_delta", None, (("experiment", "estimate_delta"),)),
    ("experiment.estimate_Delta", None, (("experiment", "estimate_Delta"),)),
)

KINDS = ("worst-case-trace-norm", "diamond", "worst-case-hilbert-schmidt",
         "worst-case-infidelity", "state-averaged-trace-norm")

# Every per-layer metric with its unit, in the order they are printed.
# setup.import_s and trace.overhead_ms_per_op are filled in by the worker
# and the runner.
METRICS = (
    ("supopt.pure.calls_per_op", "count"),
    ("supopt.pure.evals_per_call", "count"),
    ("supopt.pure.ms_per_op", "ms"),
    ("supopt.pure.objective_ms_per_op", "ms"),
    ("supopt.bipartite.calls_per_op", "count"),
    ("supopt.bipartite.evals_per_call", "count"),
    ("supopt.bipartite.ms_per_op", "ms"),
    ("supopt.bipartite.objective_ms_per_op", "ms"),
    ("scipy.minimize.calls_per_op", "count"),
    ("scipy.minimize.nfev_per_op", "count"),
    ("qmath.herm_eigvals.calls_per_op", "count"),
    ("qmath.herm_eigvals.us_per_call", "us"),
    ("qmath.herm_eigvals.ms_per_op", "ms"),
    ("qmath.partial_trace.calls_per_op", "count"),
    ("measures.measurement_error.ms_per_call", "ms"),
    *((f"measures.disturbance.{k}.ms_per_call", "ms") for k in KINDS),
    ("measures.self_ms_per_op", "ms"),
    ("instruments.build_ms_per_op", "ms"),
    ("experiment.simulate_dataset.ms_per_op", "ms"),
    ("experiment.dataset_to_json.ms_per_op", "ms"),
    ("experiment.reconstruct_branch_states.calls_per_op", "count"),
    ("experiment.reconstruct_branch_states.ms_per_op", "ms"),
    ("experiment.estimate_delta.ms_per_op", "ms"),
    ("experiment.estimate_Delta.ms_per_op", "ms"),
    ("experiment.dataset_json_bytes", "bytes"),
    ("setup.import_s", "s"),
    ("trace.overhead_ms_per_op", "ms"),
)


def _kind_of(args, kwargs):
    kind = args[1] if len(args) > 1 else kwargs.get("kind", KINDS[0])
    return getattr(kind, "value", kind)


class Tracer:
    """Spans and counters of the operations run while it is installed."""

    def __init__(self, modules):
        self.modules = modules
        self.spans = []
        self.stack = []
        self.op = None
        self.counts = defaultdict(float)
        self._saved = []

    def install(self):
        for name, hook, attrs in TARGETS:
            for mod_name, attr in attrs:
                mod = self.modules.get(mod_name)
                fn = getattr(mod, attr, None)
                if callable(fn):
                    self._saved.append((mod, attr, fn))
                    setattr(mod, attr, self._wrap(name, hook, fn))

    def uninstall(self):
        for mod, attr, fn in reversed(self._saved):
            setattr(mod, attr, fn)
        self._saved.clear()

    def _counted(self, name, f):
        counts = self.counts

        def objective(x):
            t = clock()
            try:
                return f(x)
            finally:
                counts[name + ".objective_s"] += clock() - t
                counts[name + ".evals"] += 1

        return objective

    def _wrap(self, name, hook, fn):
        spans, stack, counts = self.spans, self.stack, self.counts

        def wrapper(*args, **kwargs):
            span = name
            if hook == "supremum":
                if args:
                    args = (self._counted(name, args[0]),) + args[1:]
                else:
                    kwargs["f"] = self._counted(name, kwargs["f"])
            elif hook == "kind":
                span = f"{name}.{_kind_of(args, kwargs)}"
            idx = len(spans)
            spans.append([span, clock(), 0.0, stack[-1] if stack else -1,
                          self.op])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = clock()
            if hook == "minimize":
                counts[name + ".nfev"] += getattr(result, "nfev", 0)
            elif hook == "bytes":
                counts[name + ".bytes"] += len(result.encode())
            return result

        return wrapper

    def layer_metrics(self, n_ops):
        """Per-layer metrics averaged over ``n_ops`` traced operations."""
        calls = defaultdict(int)
        total = defaultdict(float)
        child = defaultdict(float)
        measures_self = 0.0
        build = 0.0
        for name, start, end, parent, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        for i, (name, start, end, parent, _) in enumerate(self.spans):
            if name.startswith("measures."):
                measures_self += end - start - child[i]
            elif name == "instruments.build" and not self._inside(i, name):
                build += end - start
        c = self.counts
        n = max(n_ops, 1)

        def per_call(num, den):
            return num / den if den else 0.0

        m = {}
        for key in ("supopt.pure", "supopt.bipartite"):
            m[f"{key}.calls_per_op"] = calls[key] / n
            m[f"{key}.evals_per_call"] = per_call(c[key + ".evals"], calls[key])
            m[f"{key}.ms_per_op"] = 1e3 * total[key] / n
            m[f"{key}.objective_ms_per_op"] = 1e3 * c[key + ".objective_s"] / n
        m["scipy.minimize.calls_per_op"] = calls["scipy.minimize"] / n
        m["scipy.minimize.nfev_per_op"] = c["scipy.minimize.nfev"] / n
        eig = "qmath.herm_eigvals"
        m[f"{eig}.calls_per_op"] = calls[eig] / n
        m[f"{eig}.us_per_call"] = 1e6 * per_call(total[eig], calls[eig])
        m[f"{eig}.ms_per_op"] = 1e3 * total[eig] / n
        m["qmath.partial_trace.calls_per_op"] = calls["qmath.partial_trace"] / n
        err = "measures.measurement_error"
        m[f"{err}.ms_per_call"] = 1e3 * per_call(total[err], calls[err])
        for k in KINDS:
            key = f"measures.disturbance.{k}"
            m[f"{key}.ms_per_call"] = 1e3 * per_call(total[key], calls[key])
        m["measures.self_ms_per_op"] = 1e3 * measures_self / n
        m["instruments.build_ms_per_op"] = 1e3 * build / n
        for key in ("simulate_dataset", "dataset_to_json",
                    "reconstruct_branch_states", "estimate_delta",
                    "estimate_Delta"):
            m[f"experiment.{key}.ms_per_op"] = (
                1e3 * total[f"experiment.{key}"] / n)
        rb = "experiment.reconstruct_branch_states"
        m[f"{rb}.calls_per_op"] = calls[rb] / n
        js = "experiment.dataset_to_json"
        m["experiment.dataset_json_bytes"] = per_call(c[js + ".bytes"],
                                                      calls[js])
        return m

    def _inside(self, i, name):
        parent = self.spans[i][3]
        while parent >= 0:
            if self.spans[parent][0] == name:
                return True
            parent = self.spans[parent][3]
        return False

    def dump(self, path):
        """Write the spans and counters as one JSON document."""
        with open(path, "w") as fh:
            json.dump({"fields": ["name", "start_s", "end_s", "parent", "op"],
                       "spans": self.spans, "counts": dict(self.counts)}, fh)
