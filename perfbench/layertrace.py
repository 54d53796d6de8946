"""Span tracing of fracrate's layers from outside the package.

``Tracer.install`` replaces every public function of each layer module, in
every ``fracrate`` namespace that binds it (``fracrate.cli.simulate`` and
``fracrate.ldp_harness.simulate`` are the same function), with a wrapper
that records a span: name, layer, start, end, parent, and whether it
raised.  It also wraps the ``HurstContext`` table methods, the
``GridPath`` CSV round trip, and the callables of every ``LimitDrift`` that
``build_limit_drift`` returns.  Spans stay in memory; ``layer_metrics``
reduces them after the timed region.  Self time is a span's duration minus
the durations of its child spans.
"""
from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter, defaultdict

LAYERS = (
    "fbm_gen", "multiscale_sim", "cameron_martin", "frac_calc", "poisson_cell",
    "rate_fn", "ldp_harness", "cli", "config", "gridpath",
)
TABLES = {"cell_table": "_cell_table", "kdot_matrix": "_kdot_matrix", "inverse_tables": "_inverse_tables"}
DRIFT_FIELDS = ("cbar", "grad_psi_g_bar", "sigma1_bar", "sigma1_sq_bar", "qqt_bar", "q_bins")

# Counters read off the arguments or the result at a layer boundary.
def _fine_steps(bound, result):
    return {"multiscale_sim.fine_steps": bound["noise"].bh.n - 1}


def _fbm_points(bound, result):
    return {"fbm_gen.points": bound["n"] * bound.get("dim", bound.get("size", 1))}


def _ldp_trials(bound, result):
    return {
        "ldp_harness.trials": sum(int(row["trials"]) for row in result),
        "ldp_harness.aborted": sum(int(row["aborted"]) for row in result),
    }


COUNTERS = {
    "multiscale_sim.simulate": _fine_steps,
    "multiscale_sim.simulate_controlled": _fine_steps,
    "fbm_gen.sample_fbm": _fbm_points,
    "fbm_gen.sample_fbm_batch": _fbm_points,
    "ldp_harness.estimate_rare_event": _ldp_trials,
    "ldp_harness.estimate_laplace": _ldp_trials,
}


class Tracer:
    """Records spans and counters at fracrate's layer boundaries."""

    def __init__(self):
        self.spans = []  # [name, layer, start, end, parent index, raised]
        self.stack = []
        self.counts = Counter()
        self._undo = []

    def wrap(self, layer, name, fn, counter=None):
        spans, stack, counts = self.spans, self.stack, self.counts
        signature = inspect.signature(fn) if counter else None
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = [name, layer, clock(), 0.0, stack[-1] if stack else -1, False]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            except Exception:
                span[5] = True
                raise
            finally:
                span[3] = clock()
                stack.pop()
            if counter:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                counts.update(counter(bound.arguments, result))
            return result

        return traced

    def _replace(self, owner, attr, value):
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def install(self):
        import fracrate  # noqa: F401  (imports every layer module)
        from fracrate.cameron_martin import HurstContext
        from fracrate.gridpath import GridPath

        modules = [m for n, m in sys.modules.items() if n == "fracrate" or n.startswith("fracrate.")]
        for layer in LAYERS:
            module = sys.modules[f"fracrate.{layer}"]
            for attr, fn in list(vars(module).items()):
                if attr.startswith("_") or not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                key = f"{layer}.{attr}"
                traced = self.wrap(layer, key, fn, COUNTERS.get(key))
                if key == "rate_fn.build_limit_drift":
                    traced = self._drift_wrapper(traced)
                for mod in modules:
                    for name, obj in list(vars(mod).items()):
                        if obj is fn:
                            self._replace(mod, name, traced)
        for method, cache in TABLES.items():
            self._replace(HurstContext, method, self._table_wrapper(method, cache, vars(HurstContext)[method]))
        self._replace(GridPath, "to_csv", self.wrap("gridpath", "gridpath.GridPath.to_csv", GridPath.to_csv))
        from_csv = vars(GridPath)["from_csv"].__func__
        self._replace(GridPath, "from_csv", classmethod(self.wrap("gridpath", "gridpath.GridPath.from_csv", from_csv)))

    def uninstall(self):
        while self._undo:
            owner, attr, value = self._undo.pop()
            setattr(owner, attr, value)

    def _table_wrapper(self, method, cache, fn):
        """Cold builds (empty cache) and warm look-ups are separate spans."""
        cold = self.wrap("cameron_martin", f"cameron_martin.HurstContext.{method}.cold", fn)
        warm = self.wrap("cameron_martin", f"cameron_martin.HurstContext.{method}", fn)
        counts = self.counts

        @functools.wraps(fn)
        def table(ctx):
            if getattr(ctx, cache) is None:
                counts["cameron_martin.table_builds"] += 1
                counts["cameron_martin.table_mb"] += ctx.n * ctx.n * 8 / 1e6
                return cold(ctx)
            return warm(ctx)

        return table

    def _drift_wrapper(self, build):
        @functools.wraps(build)
        def build_traced(*args, **kwargs):
            drift = build(*args, **kwargs)
            for name in DRIFT_FIELDS:
                setattr(drift, name, self.wrap("rate_fn", f"rate_fn.LimitDrift.{name}", getattr(drift, name)))
            return drift

        return build_traced

    def layer_metrics(self, wall_s):
        """Per-layer self times and counters of the recorded spans."""
        spans = self.spans
        child = [0.0] * len(spans)
        for name, layer, start, end, parent, _ in spans:
            if parent >= 0:
                child[parent] += end - start
        self_s = defaultdict(float)
        incl = defaultdict(float)
        calls = Counter()
        raised = Counter()
        cold_s = warm_s = top_s = 0.0
        for i, (name, layer, start, end, parent, err) in enumerate(spans):
            dur = end - start
            own = dur - child[i]
            self_s[layer] += own
            incl[name] += dur
            calls[name] += 1
            calls[layer] += 1
            raised[name] += err
            if layer == "cameron_martin":
                if name.endswith(".cold"):
                    cold_s += own
                else:
                    warm_s += own
            if parent < 0:
                top_s += dur
        c = self.counts

        def named(prefix):
            return sum(v for k, v in calls.items() if k.startswith(prefix))

        fine = c["multiscale_sim.fine_steps"]
        trials = c["ldp_harness.trials"]
        return {
            "multiscale_sim.self_s": self_s["multiscale_sim"],
            "multiscale_sim.calls": calls["multiscale_sim"],
            "multiscale_sim.fine_steps": fine,
            "multiscale_sim.us_per_fine_step": 1e6 * self_s["multiscale_sim"] / fine if fine else 0.0,
            "multiscale_sim.aborted": raised["multiscale_sim.simulate"] + raised["multiscale_sim.simulate_controlled"],
            "fbm_gen.self_s": self_s["fbm_gen"],
            "fbm_gen.calls": calls["fbm_gen"],
            "fbm_gen.points": c["fbm_gen.points"],
            "fbm_gen.path_norms_s": incl["fbm_gen.path_norms"],
            "cameron_martin.table_s": cold_s,
            "cameron_martin.table_builds": c["cameron_martin.table_builds"],
            "cameron_martin.table_mb": c["cameron_martin.table_mb"],
            "cameron_martin.apply_s": warm_s,
            "rate_fn.self_s": self_s["rate_fn"],
            "rate_fn.evals": named("rate_fn.eval_rate_"),
            "rate_fn.drift_calls": named("rate_fn.LimitDrift."),
            "poisson_cell.self_s": self_s["poisson_cell"],
            "poisson_cell.effective_q_calls": calls["poisson_cell.effective_q"],
            "poisson_cell.average_coeff_calls": calls["poisson_cell.average_coeff"],
            "frac_calc.self_s": self_s["frac_calc"],
            "frac_calc.calls": calls["frac_calc"],
            "frac_calc.young_integral_s": incl["frac_calc.young_integral"],
            "ldp_harness.self_s": self_s["ldp_harness"],
            "ldp_harness.trials": trials,
            "ldp_harness.useful_ratio": (trials - c["ldp_harness.aborted"]) / trials if trials else 0.0,
            "cli.self_s": self_s["cli"],
            "config.self_s": self_s["config"],
            "config.validate_s": incl["config.validate"],
            "gridpath.self_s": self_s["gridpath"],
            "gridpath.csv_s": incl["gridpath.GridPath.to_csv"] + incl["gridpath.GridPath.from_csv"],
            "trace.outside_s": wall_s - top_s,
        }
