"""Spans around the public functions of each crlab module, from outside.

The traced run wraps the functions below in place; nothing under src/ is
edited.  A span records its name, start, end and parent; spans are kept in
memory and written when the run ends.  A span's self time is its duration
minus the time its child spans cover.

A hook whose target no longer exists (a function removed or renamed by a
later change) is reported as missing with a warning; the metrics that
depend on it read 0 and are listed as missing, and the run goes on.
"""

import functools
import gzip
import importlib
import json
import sys
import time

import numpy as np

# layer span name -> (module, attribute path); the layer is the part of the
# span name before the first dot, named after the crlab module
HOOKS = {
    "coupling.build_tensor": ("crlab.coupling", "build_tensor"),
    "coupling.load_tensor": ("crlab.coupling", "load_tensor"),
    "coupling.reference_weights": ("crlab.coupling", "reference_weights"),
    "kernels.rhs_apply": ("crlab.kernels", "rhs_apply"),
    "kernels.pairing_apply": ("crlab.kernels", "pairing_apply"),
    "dynamics.evolve": ("crlab.dynamics", "FlowKernel.evolve"),
    "measures.sample_ensemble": ("crlab.measures", "sample_ensemble"),
    "invariance_lab.invariance_test": ("crlab.invariance_lab", "invariance_test"),
    "invariance_lab.cauchy_study": ("crlab.invariance_lab", "cauchy_study"),
    "invariance_lab.concentration_study": ("crlab.invariance_lab", "concentration_study"),
    "invariance_lab.observables": ("crlab.invariance_lab", "ObservableSet.evaluate"),
    "invariance_lab.stats": ("scipy.stats", "ks_2samp"),
    "cli.run": ("crlab.cli", "run"),
}

# per-layer metric -> (unit, hooks it needs)
METRICS = {
    "coupling.build_s": ("s", ("coupling.build_tensor",)),
    "coupling.cache_load_s": ("s", ("coupling.load_tensor",)),
    "coupling.entries": ("count", ("coupling.build_tensor", "coupling.load_tensor")),
    "coupling.calibration_s": ("s", ("coupling.reference_weights",)),
    "kernels.rhs_calls": ("count", ("kernels.rhs_apply",)),
    "kernels.rhs_rows": ("count", ("kernels.rhs_apply",)),
    "kernels.rhs_s": ("s", ("kernels.rhs_apply",)),
    "kernels.rhs_us_per_row_p50": ("us", ("kernels.rhs_apply",)),
    "kernels.rhs_us_per_row_p99": ("us", ("kernels.rhs_apply",)),
    "kernels.entries_per_s": ("1/s", ("kernels.rhs_apply",)),
    "kernels.bytes_per_row_computed": ("B", ("kernels.rhs_apply",)),
    "kernels.pairing_calls": ("count", ("kernels.pairing_apply",)),
    "kernels.pairing_s": ("s", ("kernels.pairing_apply",)),
    "dynamics.evolve_calls": ("count", ("dynamics.evolve",)),
    "dynamics.evolve_s": ("s", ("dynamics.evolve",)),
    "dynamics.self_s": ("s", ("dynamics.evolve",)),
    "dynamics.overhead_us_per_rhs": ("us", ("dynamics.evolve", "kernels.rhs_apply")),
    "dynamics.rhs_per_trajectory": ("count", ("dynamics.evolve", "kernels.rhs_apply")),
    "measures.draws": ("count", ("measures.sample_ensemble",)),
    "measures.sample_s": ("s", ("measures.sample_ensemble",)),
    "measures.us_per_draw": ("us", ("measures.sample_ensemble",)),
    "invariance_lab.observables_s": ("s", ("invariance_lab.observables",)),
    "invariance_lab.stats_s": ("s", ("invariance_lab.stats",)),
    "invariance_lab.self_s": ("s", ("invariance_lab.invariance_test",
                                    "invariance_lab.cauchy_study",
                                    "invariance_lab.concentration_study")),
    "cli.self_s": ("s", ("cli.run",)),
    "cli.output_bytes": ("B", ()),
}

# the arrays one rhs row reads from a contraction plan; a plan without them
# is costed by every array it holds
_RHS_PLAN_ARRAYS = ("w", "in1", "in2", "conj", "out")


def _plan_bytes(plan):
    arrays = [getattr(plan, name, None) for name in _RHS_PLAN_ARRAYS]
    if any(a is None for a in arrays):
        arrays = [a for a in vars(plan).values() if isinstance(a, np.ndarray)]
    return sum(int(a.nbytes) for a in arrays)


def _rhs_work(args, kwargs, result):
    """(state rows, modes, plan) of one rhs_apply call.

    Only cheap lookups happen per call; each distinct plan is costed once,
    in rhs_costs, so the tracing overhead stays small on short calls.
    """
    plan, c = args[0], args[1]
    shape = np.shape(c)
    return (shape[0] if len(shape) > 1 else 1), shape[-1], plan


def rhs_costs(calls):
    """(rows, plan rows, computed bytes per row) per rhs_apply call.

    The plan is read once per call and the input and output vectors once
    per row.
    """
    sizes = {}
    out = []
    for rows, n_modes, plan in calls:
        if id(plan) not in sizes:
            sizes[id(plan)] = len(plan), _plan_bytes(plan)
        plan_rows, plan_bytes = sizes[id(plan)]
        out.append((rows, plan_rows, plan_bytes / rows + 2 * 16 * n_modes))
    return np.asarray(out, dtype=np.float64).reshape(-1, 3)


def _draws(args, kwargs, result):
    return int(kwargs["count"] if "count" in kwargs else args[1])


def _entries(args, kwargs, result):
    return len(result)


# span name -> function of (args, kwargs, result) giving the work it did
_WORK = {
    "kernels.rhs_apply": _rhs_work,
    "measures.sample_ensemble": _draws,
    "coupling.build_tensor": _entries,
    "coupling.load_tensor": _entries,
}


def spans_name(workload, seed):
    """File name of the spans a traced run of workload and seed writes."""
    return f"spans-{workload}-seed{seed}.json.gz"


class Tracer:
    """Spans in memory: parallel lists indexed by span id."""

    def __init__(self):
        self.name = []
        self.start = []
        self.end = []
        self.parent = []
        self.work = {}
        self._stack = []
        self._undo = []
        self.missing = []

    def wrap(self, name, fn):
        work = _WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            sid = len(self.name)
            self.name.append(name)
            self.parent.append(self._stack[-1] if self._stack else -1)
            self.end.append(0.0)
            self._stack.append(sid)
            self.start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[sid] = clock()
                self._stack.pop()
            if work is not None:
                self.work[sid] = work(args, kwargs, result)
            return result

        return traced

    def install(self):
        """Wrap every hook that resolves; warn about the ones that do not."""
        for name, (module_name, path) in HOOKS.items():
            try:
                owner = importlib.import_module(module_name)
                *parents, attr = path.split(".")
                for part in parents:
                    owner = getattr(owner, part)
                original = getattr(owner, attr)
            except (ImportError, AttributeError):
                if name not in self.missing:
                    self.missing.append(name)
                    print(f"perfbench: warning: hook {module_name}.{path} is missing; "
                          f"metrics of {name} are reported as missing", file=sys.stderr)
                continue
            self._replace(owner, attr, original, self.wrap(name, original))

    def _replace(self, owner, attr, original, traced):
        # crlab modules that imported the function by name hold it too
        targets = [(owner, attr)]
        for mod_name, module in list(sys.modules.items()):
            if mod_name.startswith("crlab") and module is not owner:
                targets += [(module, k) for k, v in vars(module).items() if v is original]
        for target, key in targets:
            setattr(target, key, traced)
            self._undo.append((target, key, original))

    def uninstall(self):
        for target, key, original in reversed(self._undo):
            setattr(target, key, original)
        self._undo.clear()

    def __len__(self):
        return len(self.name)

    def write(self, path):
        """All spans, columnar, gzip-compressed JSON."""
        doc = {"name": self.name, "start": self.start, "end": self.end,
               "parent": self.parent, "missing": self.missing}
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))


def self_times(tracer):
    """Per-span duration minus the time its children cover."""
    dur = np.asarray(tracer.end) - np.asarray(tracer.start)
    child = np.zeros_like(dur)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    has = parent >= 0
    np.add.at(child, parent[has], dur[has])
    return dur, dur - child


def layer_metrics(tracer, invocations, output_bytes):
    """Per-layer metrics of a traced run.

    invocations: span-id ranges [lo, hi) of the traced workload invocations;
    spans outside them (set-up) count only towards the per-call tensor
    build and load times.  Per-invocation values are medians over the
    invocations; per-call kernel times pool every call.
    """
    names = np.asarray(tracer.name, dtype=object)
    dur, own = self_times(tracer)
    parent = np.asarray(tracer.parent, dtype=np.int64)
    layer = np.array([n.split(".", 1)[0] for n in names], dtype=object)

    def med(values):
        return float(np.median(values)) if len(values) else 0.0

    def per_inv(fn):
        return med([fn(np.arange(lo, hi)) for lo, hi in invocations])

    def sel(ids, name):
        return ids[names[ids] == name]

    def work(ids, k=None):
        vals = [tracer.work[i] for i in ids if i in tracer.work]
        return [v[k] for v in vals] if k is not None else vals

    all_ids = np.arange(len(names))
    m = {}
    m["coupling.build_s"] = med(dur[sel(all_ids, "coupling.build_tensor")])
    m["coupling.cache_load_s"] = med(dur[sel(all_ids, "coupling.load_tensor")])
    tensors = work(sel(all_ids, "coupling.build_tensor")) + work(sel(all_ids, "coupling.load_tensor"))
    m["coupling.entries"] = float(max(tensors, default=0))
    m["coupling.calibration_s"] = per_inv(lambda ids: dur[sel(ids, "coupling.reference_weights")].sum())

    inv_ids = np.concatenate([np.arange(lo, hi) for lo, hi in invocations]) if invocations else all_ids[:0]
    rhs = sel(inv_ids, "kernels.rhs_apply")
    rows, plan_rows, row_bytes = rhs_costs(work(rhs)).T
    per_row_us = dur[rhs] / rows * 1e6 if len(rhs) else np.zeros(0)
    m["kernels.rhs_calls"] = per_inv(lambda ids: float(len(sel(ids, "kernels.rhs_apply"))))
    m["kernels.rhs_rows"] = per_inv(lambda ids: float(sum(work(sel(ids, "kernels.rhs_apply"), 0))))
    m["kernels.rhs_s"] = per_inv(lambda ids: own[sel(ids, "kernels.rhs_apply")].sum())
    m["kernels.rhs_us_per_row_p50"] = float(np.percentile(per_row_us, 50)) if len(rhs) else 0.0
    m["kernels.rhs_us_per_row_p99"] = float(np.percentile(per_row_us, 99)) if len(rhs) else 0.0
    busy = float(dur[rhs].sum())
    m["kernels.entries_per_s"] = float((rows * plan_rows).sum()) / busy if busy > 0 else 0.0
    m["kernels.bytes_per_row_computed"] = med(row_bytes)
    m["kernels.pairing_calls"] = per_inv(lambda ids: float(len(sel(ids, "kernels.pairing_apply"))))
    m["kernels.pairing_s"] = per_inv(lambda ids: own[sel(ids, "kernels.pairing_apply")].sum())

    def evolve_stats(ids):
        ev = sel(ids, "dynamics.evolve")
        nested = np.isin(parent[ids], ev) & (names[ids] == "kernels.rhs_apply")
        return ev, int(nested.sum())

    m["dynamics.evolve_calls"] = per_inv(lambda ids: float(len(sel(ids, "dynamics.evolve"))))
    m["dynamics.evolve_s"] = per_inv(lambda ids: dur[sel(ids, "dynamics.evolve")].sum())
    m["dynamics.self_s"] = per_inv(lambda ids: own[sel(ids, "dynamics.evolve")].sum())

    def overhead(ids):
        ev, n_rhs = evolve_stats(ids)
        return own[ev].sum() / n_rhs * 1e6 if n_rhs else 0.0

    def per_trajectory(ids):
        ev, n_rhs = evolve_stats(ids)
        return n_rhs / len(ev) if len(ev) else 0.0

    m["dynamics.overhead_us_per_rhs"] = per_inv(overhead)
    m["dynamics.rhs_per_trajectory"] = per_inv(per_trajectory)

    m["measures.draws"] = per_inv(lambda ids: float(sum(work(sel(ids, "measures.sample_ensemble")))))
    m["measures.sample_s"] = per_inv(lambda ids: own[ids[layer[ids] == "measures"]].sum())
    draws = sum(work(sel(inv_ids, "measures.sample_ensemble")))
    sample_busy = float(own[inv_ids][layer[inv_ids] == "measures"].sum())
    m["measures.us_per_draw"] = sample_busy / draws * 1e6 if draws else 0.0

    studies = ("invariance_lab.invariance_test", "invariance_lab.cauchy_study",
               "invariance_lab.concentration_study")
    m["invariance_lab.observables_s"] = per_inv(lambda ids: own[sel(ids, "invariance_lab.observables")].sum())
    m["invariance_lab.stats_s"] = per_inv(lambda ids: own[sel(ids, "invariance_lab.stats")].sum())
    m["invariance_lab.self_s"] = per_inv(lambda ids: own[ids][np.isin(names[ids], studies)].sum())
    m["cli.self_s"] = per_inv(lambda ids: own[sel(ids, "cli.run")].sum())
    m["cli.output_bytes"] = med(output_bytes)

    missing = [k for k, (_, needs) in METRICS.items() if any(h in tracer.missing for h in needs)]
    for k in missing:
        m[k] = 0.0
    return {k: {"value": m[k], "unit": METRICS[k][0]} for k in METRICS}, missing
