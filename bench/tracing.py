"""Outside-in tracing of one workload process.

Wrappers are installed on the public functions and methods that the
studies call across layer boundaries, where the caller looks the name up:
on the defining module, on every gridstudies module that imported the same
object by name, and on the class for methods.  Each call becomes a span
(name, start, end, parent) kept in memory; counters are read from return
values, never by wrapping per-step calls.  Nothing inside the program is
edited, so traced outputs stay byte-identical to untraced ones.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time


def _emt_run(tr, sim, _result):
    tr.count("emt.steps", sim.n)


def _simulate_event(tr, _self, res):
    tr.count("lightning.line_strokes")
    tr.count("lightning.flashovers", int(res.flashover))
    tr.count("lightning.replays_failed", int(res.failed))


def _simulate(tr, _self, res):
    tr.count("stability.rk4_steps", len(res.trace.times) - 1)


def _svm_train(tr, _self, model):
    tr.first("ml.svm_kkt_residual", model.kkt_residual)
    tr.count("ml.svm_support_vectors",
             sum(len(m.sv_coeff) for m in model.machines))


def _mlp_train(tr, _self, model):
    tr.first("ml.mlp_final_loss", model.loss_history[-1])


def _solve_snapshot(tr, _self, snap):
    tr.count("distsim.pf_iterations", snap.iterations)


def _build_dataset(tr, _self, rows):
    tr.count("faultlab.rows", len(rows))


# (module, attribute, hook).  A dotted attribute is a method on a class.
# A hook reads counters from (tracer, self or None, return value).
TARGETS = (
    ("lightning", "run_study", None),
    ("lightning", "sample_strokes", None),
    ("lightning", "classify_impact", None),
    ("lightning", "simulate_event", _simulate_event),
    ("lightning", "build_strike_network", None),
    ("lightning", "write_events_csv", None),
    ("lightning", "summary_lines", None),
    ("emt", "EmtNetwork.assemble", None),
    ("emt", "EmtSimulation.run", _emt_run),
    ("stability", "sweep", None),
    ("stability", "simulate", _simulate),
    ("stability", "sweep_to_dataset", None),
    ("stability", "write_sweep_csv", None),
    ("stability", "write_trace_csv", None),
    ("ml", "split", None),
    ("ml", "svm_train", _svm_train),
    ("ml", "mlp_train", _mlp_train),
    ("ml", "mlp_init", None),
    ("ml", "knn_fit", None),
    ("ml", "evaluate", None),
    ("ml", "gradient_check", None),
    ("ml", "save_model", None),
    ("distsim", "build_case", None),
    ("distsim", "run_daily", None),
    ("distsim", "run_monte_carlo", None),
    ("distsim", "solve_snapshot", _solve_snapshot),
    ("distsim", "write_daily_csv", None),
    ("distsim", "write_mc_csv", None),
    ("distsim", "meter_rows", None),
    ("faultlab", "enumerate_train_cases", None),
    ("faultlab", "sample_test_cases", None),
    ("faultlab", "build_dataset", _build_dataset),
    ("faultlab", "rows_to_dataset", None),
    ("faultlab", "write_dataset", None),
    ("phasor", "apply_fault", None),
    ("phasor", "solve_steady_state", None),
    ("svg", "render_series", None),
    ("svg", "render_histogram", None),
    ("svg", "render_scatter", None),
    ("svg", "write_svg", None),
    ("report", "summary_block", None),
    ("report", "write_text", None),
    ("report", "write_manifest", None),
)

ROOT_SPAN = "cli.main"

# Per-layer metric (seconds) -> span names whose summed duration it is.
SPAN_TIMES = {
    "emt.assemble_s": ("emt.EmtNetwork.assemble",),
    "emt.run_s": ("emt.EmtSimulation.run",),
    "lightning.sample_strokes_s": ("lightning.sample_strokes",),
    "lightning.classify_impact_s": ("lightning.classify_impact",),
    "lightning.build_strike_network_s": ("lightning.build_strike_network",),
    "lightning.write_events_csv_s": ("lightning.write_events_csv",),
    "stability.sweep_s": ("stability.sweep",),
    "stability.simulate_s": ("stability.simulate",),
    "stability.write_csv_s": ("stability.write_sweep_csv",
                              "stability.write_trace_csv"),
    "ml.svm_train_s": ("ml.svm_train",),
    "ml.mlp_train_s": ("ml.mlp_train",),
    "ml.evaluate_s": ("ml.evaluate",),
    "ml.gradient_check_s": ("ml.gradient_check",),
    "ml.save_model_s": ("ml.save_model",),
    "distsim.run_daily_s": ("distsim.run_daily",),
    "distsim.run_monte_carlo_s": ("distsim.run_monte_carlo",),
    "distsim.solve_snapshot_s": ("distsim.solve_snapshot",),
    "distsim.write_csv_s": ("distsim.write_daily_csv", "distsim.write_mc_csv"),
    "faultlab.build_dataset_s": ("faultlab.build_dataset",),
    "faultlab.write_dataset_s": ("faultlab.write_dataset",),
    "phasor.apply_fault_s": ("phasor.apply_fault",),
    "phasor.solve_steady_state_s": ("phasor.solve_steady_state",),
    "svg.render_s": ("svg.render_series", "svg.render_histogram",
                     "svg.render_scatter"),
    "report.write_manifest_s": ("report.write_manifest",),
}

# Per-layer metric -> span name whose number of calls it is.
SPAN_CALLS = {
    "lightning.classify_impact_calls": "lightning.classify_impact",
    "stability.simulate_calls": "stability.simulate",
    "distsim.snapshots": "distsim.solve_snapshot",
    "phasor.solves": "phasor.solve_steady_state",
}

# Counters filled by the hooks above.
COUNTERS = ("emt.steps", "lightning.line_strokes", "lightning.flashovers",
            "lightning.replays_failed", "stability.rk4_steps",
            "ml.svm_support_vectors", "distsim.pf_iterations",
            "faultlab.rows")
VALUES = ("ml.svm_kkt_residual", "ml.mlp_final_loss")


class Tracer:
    """In-memory spans and counters of one process."""

    def __init__(self):
        self.spans = []      # [name, start, end, parent index or -1]
        self._stack = []
        self.counters = dict.fromkeys(COUNTERS, 0)
        self.values = {}

    def count(self, name, amount=1):
        self.counters[name] += amount

    def first(self, name, value):
        """Keep the value from the first call only (the main model)."""
        self.values.setdefault(name, float(value))

    def call(self, name, fn, args, kwargs, hook=None, is_method=False):
        parent = self._stack[-1] if self._stack else -1
        idx = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, parent])
        self._stack.append(idx)
        try:
            result = fn(*args, **kwargs)
        finally:
            self.spans[idx][2] = time.perf_counter()
            self._stack.pop()
        if hook is not None:
            hook(self, args[0] if is_method else None, result)
        return result

    def wrap(self, name, fn, hook=None, is_method=False):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, hook, is_method)
        return traced

    def install(self):
        """Patch every target for the rest of the process."""
        modules = [m for n, m in sys.modules.items()
                   if n.startswith("gridstudies.") and m is not None]
        for mod_name, attr, hook in TARGETS:
            mod = importlib.import_module(f"gridstudies.{mod_name}")
            owner_name, _, fn_name = attr.rpartition(".")
            name = f"{mod_name}.{attr}"
            if owner_name:
                owner = getattr(mod, owner_name)
                original = owner.__dict__[fn_name]
                setattr(owner, fn_name, self.wrap(name, original, hook, True))
                continue
            original = getattr(mod, fn_name)
            wrapped = self.wrap(name, original, hook)
            for other in modules:
                if getattr(other, fn_name, None) is original:
                    setattr(other, fn_name, wrapped)

    def self_times(self) -> list:
        """Each span's duration minus the durations of its direct children."""
        own = [end - start for _, start, end, _ in self.spans]
        for _, start, end, parent in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def metrics(self, wall_s: float) -> dict:
        """Per-layer metrics as {name: (value, unit)}.

        wall_s is the worker's time around all root spans; cli.self_s is
        the root spans' self time plus the rest of wall_s outside them, so
        trace.top_level_s + cli.self_s adds up to wall_s.
        """
        totals, calls = {}, {}
        top_level = 0.0
        roots = {i for i, span in enumerate(self.spans) if span[0] == ROOT_SPAN}
        for name, start, end, parent in self.spans:
            totals[name] = totals.get(name, 0.0) + (end - start)
            calls[name] = calls.get(name, 0) + 1
            if parent in roots:
                top_level += end - start
        own = self.self_times()
        root_total = totals.get(ROOT_SPAN, 0.0)
        cli_self = sum(own[i] for i in roots) + (wall_s - root_total)
        out = {m: (sum(totals.get(s, 0.0) for s in spans), "s")
               for m, spans in SPAN_TIMES.items()}
        out.update({m: (calls.get(s, 0), "count") for m, s in SPAN_CALLS.items()})
        out.update({m: (v, "count") for m, v in self.counters.items()})
        out.update({m: (self.values.get(m, 0.0), "1") for m in VALUES})
        steps = self.counters["emt.steps"]
        out["emt.us_per_step"] = (
            1e6 * out["emt.run_s"][0] / steps if steps else 0.0, "us")
        rk4 = self.counters["stability.rk4_steps"]
        out["stability.us_per_rk4_step"] = (
            1e6 * out["stability.simulate_s"][0] / rk4 if rk4 else 0.0, "us")
        out["trace.top_level_s"] = (top_level, "s")
        out["cli.self_s"] = (cli_self, "s")
        return out

    def dump(self, path):
        """Write every span with its self time, in start order."""
        own = self.self_times()
        rows = [{"name": name, "start": start, "end": end, "parent": parent,
                 "self": own[i]}
                for i, (name, start, end, parent) in enumerate(self.spans)]
        with open(path, "w") as fh:
            json.dump(rows, fh)
