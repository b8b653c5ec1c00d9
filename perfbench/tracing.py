"""Spans around starfdr's layer functions, recorded from outside the package.

`Tracer.install` replaces each public layer function by a wrapper under
every name its callers look it up by: the package namespace the benchmark
calls through, and the modules (`experiments`, `netsim`, `oracleopt`,
`procedures`) that import layer functions by name.  A span is
(name, start, end, parent index); spans stay in memory until `write`.
`layer_metrics` derives per-call times, self times and counts from them.
"""

from __future__ import annotations

import contextlib
import functools
import os
import time
from collections import Counter

# span name -> [(module, attribute), ...] under which callers find it;
# "starfdr" is the package namespace the benchmark itself calls through
LAYERS = {
    "distmodel.sample_trial": [("experiments", "sample_trial"), ("starfdr", "sample_trial")],
    "estimators.spacing_estimate": [("netsim", "spacing_estimate")],
    "procedures.bh_procedure": [("procedures", "bh_procedure"), ("netsim", "bh_procedure")],
    "procedures.confusion_metrics": [("netsim", "confusion_metrics")],
    "procedures.asymptotic_threshold": [("oracleopt", "asymptotic_threshold")],
    "greedy.selection_asymptotics": [("oracleopt", "selection_asymptotics")],
    "netsim.run_no_comm": [("experiments", "run_no_comm"), ("starfdr", "run_no_comm")],
    "netsim.run_pooled_bh": [("experiments", "run_pooled_bh"), ("starfdr", "run_pooled_bh")],
    "netsim.run_proportion_matching": [
        ("experiments", "run_proportion_matching"), ("starfdr", "run_proportion_matching")],
    "netsim.run_greedy_aggregation": [
        ("experiments", "run_greedy_aggregation"), ("starfdr", "run_greedy_aggregation")],
    "netsim.replay_greedy_transcript": [("starfdr", "replay_greedy_transcript")],
    "oracleopt.level_region": [("oracleopt", "level_region")],
    "oracleopt.optimal_region": [("experiments", "optimal_region"), ("starfdr", "optimal_region")],
    "oracleopt.fdr_bound_null_heterogeneity": [("starfdr", "fdr_bound_null_heterogeneity")],
    "oracleopt.measure_alt_heterogeneity": [("starfdr", "measure_alt_heterogeneity")],
    "oracleopt.alt_heterogeneity_bounds": [("starfdr", "alt_heterogeneity_bounds")],
    "experiments.run_experiment": [("starfdr", "run_experiment")],
    "experiments.write_csv": [("experiments", "write_csv")],
}
AR1_SAMPLE = "distmodel.sample_trial_ar1"
SERIALIZE = "netsim.transcript_serialize"

# run_* span -> prefix of the communication counts read from its result
_COMM = {
    "netsim.run_greedy_aggregation": "netsim.greedy",
    "netsim.run_proportion_matching": "netsim.prop_match",
    "netsim.run_pooled_bh": "netsim.pooled_bh",
}

# spans timed per call, as "<span>.ms" in ms/call
TIMED = [
    "distmodel.sample_trial", AR1_SAMPLE, "estimators.spacing_estimate",
    "procedures.bh_procedure", "procedures.confusion_metrics",
    "procedures.asymptotic_threshold", "netsim.run_no_comm", "netsim.run_pooled_bh",
    "netsim.run_proportion_matching", "netsim.run_greedy_aggregation", SERIALIZE,
    "netsim.replay_greedy_transcript", "oracleopt.optimal_region",
    "oracleopt.fdr_bound_null_heterogeneity", "oracleopt.measure_alt_heterogeneity",
    "oracleopt.alt_heterogeneity_bounds", "experiments.write_csv",
]

# every per-layer metric: name -> unit
PER_LAYER = {
    "import.starfdr_s": "s",
    **{f"{name}.ms": "ms/call" for name in TIMED},
    "estimators.spacing_estimate.calls_per_trial": "count",
    "greedy.selection_asymptotics.calls_per_solve": "count",
    "oracleopt.level_region.calls_per_solve": "count",
    "netsim.greedy.rounds_per_run": "count",
    "netsim.greedy.bits_per_run": "bits",
    "netsim.prop_match.bits_per_run": "bits",
    "netsim.pooled_bh.bits_per_run": "bits",
    "experiments.run_experiment.self_ms_per_trial": "ms",
    "experiments.write_csv.bytes": "bytes",
    "trace.ops_per_s": "1/s",
}


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = Counter()  # communication totals and CSV bytes
        self.paused = False  # set during warm-up and output checks
        self._stack = []

    def _wrap(self, name, fn, extract=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.paused:
                return fn(*args, **kwargs)
            span_name = name(args) if callable(name) else name
            idx = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(idx)
            t0 = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = time.perf_counter()
                stack.pop()
                spans[idx] = (span_name, t0, t1, parent)
            if extract is not None:
                extract(result, args)
            return result

        return traced

    @contextlib.contextmanager
    def pause(self):
        """Calls inside the block leave no spans."""
        self.paused = True
        try:
            yield
        finally:
            self.paused = False

    def install(self, sf):
        """Wrap every layer function of the imported package `sf`."""
        modules = {"starfdr": sf, "experiments": sf.experiments, "netsim": sf.netsim,
                   "oracleopt": sf.oracleopt, "procedures": sf.procedures}
        for name, places in LAYERS.items():
            mod, attr = places[0]
            label = _sample_label if name == "distmodel.sample_trial" else name
            traced = self._wrap(label, getattr(modules[mod], attr), self._extractor(name))
            for mod, attr in places:
                setattr(modules[mod], attr, traced)
        transcript = sf.netsim.Transcript
        transcript.serialize = self._wrap(SERIALIZE, transcript.serialize)

    def _extractor(self, name):
        counts = self.counts
        if name in _COMM:
            prefix = _COMM[name]

            def comm(result, _args):
                counts[prefix + ".bits"] += result.transcript.total_bits
                counts[prefix + ".rounds"] += result.transcript.rounds
            return comm
        if name == "experiments.write_csv":
            def size(_result, args):
                counts["experiments.write_csv.bytes"] += os.path.getsize(args[1])
            return size
        return None

    def write(self, path):
        """Write the spans as tab-separated lines: index, name, start, end, parent."""
        with open(path, "w") as fh:
            fh.write("index\tname\tstart\tend\tparent\n")
            for i, (name, t0, t1, parent) in enumerate(self.spans):
                fh.write(f"{i}\t{name}\t{t0:.9f}\t{t1:.9f}\t{parent}\n")


def _sample_label(args):
    dep = args[2] if len(args) > 2 else None
    if dep is not None and dep.rho > 0.0:
        return AR1_SAMPLE
    return "distmodel.sample_trial"


def layer_metrics(spans, counts, lo=0):
    """Per-layer metrics of spans[lo:] and their communication counts.

    Times are inclusive per call, except the run_experiment self time,
    which excludes its direct children.  A metric whose layer has no
    spans in the range is left out."""
    calls, total = Counter(), Counter()
    child_time = Counter()
    in_exp, in_solve = {}, {}
    exp_trials = exp_spacing = solve_sel = solve_level = 0
    for i in range(lo, len(spans)):
        name, t0, t1, parent = spans[i]
        calls[name] += 1
        total[name] += t1 - t0
        if parent >= lo:
            child_time[parent] += t1 - t0
        in_exp[i] = name == "experiments.run_experiment" or in_exp.get(parent, False)
        in_solve[i] = name == "oracleopt.optimal_region" or in_solve.get(parent, False)
        if in_exp[i]:
            exp_trials += name in ("distmodel.sample_trial", AR1_SAMPLE)
            exp_spacing += name == "estimators.spacing_estimate"
        if in_solve[i]:
            solve_sel += name == "greedy.selection_asymptotics"
            solve_level += name == "oracleopt.level_region"

    out = {f"{name}.ms": 1e3 * total[name] / calls[name] for name in TIMED if calls[name]}
    if exp_trials:
        out["estimators.spacing_estimate.calls_per_trial"] = exp_spacing / exp_trials
        exp_self = sum(spans[i][2] - spans[i][1] - child_time[i]
                       for i in range(lo, len(spans))
                       if spans[i][0] == "experiments.run_experiment")
        out["experiments.run_experiment.self_ms_per_trial"] = 1e3 * exp_self / exp_trials
    solves = calls["oracleopt.optimal_region"]
    if solves:
        out["greedy.selection_asymptotics.calls_per_solve"] = solve_sel / solves
        out["oracleopt.level_region.calls_per_solve"] = solve_level / solves
    for span, prefix in _COMM.items():
        if calls[span]:
            out[f"{prefix}.bits_per_run"] = counts[prefix + ".bits"] / calls[span]
    if calls["netsim.run_greedy_aggregation"]:
        out["netsim.greedy.rounds_per_run"] = (
            counts["netsim.greedy.rounds"] / calls["netsim.run_greedy_aggregation"])
    if calls["experiments.write_csv"]:
        out["experiments.write_csv.bytes"] = (
            counts["experiments.write_csv.bytes"] / calls["experiments.write_csv"])
    return out
