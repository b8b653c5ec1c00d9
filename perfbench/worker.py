"""One workload process: import starfdr, set up, and (unless --setup-only)
run whole rounds of timed operations for the given seconds.

Run by run.py; prints one JSON object on its last line.  `ready` is the
monotonic clock reading just before the first timed operation, so the
parent can measure set-up from before it started this process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

import tracing  # stdlib only; starfdr is imported first, and timed

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def import_starfdr():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    t0 = time.perf_counter()
    import starfdr
    seconds = time.perf_counter() - t0
    if Path(starfdr.__file__).resolve().parent != src / "starfdr":
        raise SystemExit(f"starfdr imported from {starfdr.__file__}, not from {src}")
    return starfdr, seconds


def measure(workload, seconds, tracer):
    """Whole rounds of the workload's operations until `seconds` have passed."""
    passed, failures = [], []
    attempted = 0
    busy = 0.0  # summed time inside timed calls, failed ones included
    deadline = time.perf_counter() + seconds
    while True:
        for key in workload.keys:
            error = None
            t0 = time.perf_counter()
            try:
                output = workload.run(key)
            except Exception as exc:  # a failed op is counted, not fatal
                error = f"raised {exc!r}"
            t1 = time.perf_counter()
            attempted += 1
            busy += t1 - t0
            if error is None:
                try:
                    with tracer.pause():
                        workload.check(key, output)
                except Exception as exc:
                    error = f"check: {exc}"
            if error is None:
                passed.append(t1 - t0)
            else:
                failures.append((key, error))
        if time.perf_counter() >= deadline:
            return passed, failures, attempted, busy


def main(argv=None):
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    sf, import_s = import_starfdr()
    import workloads

    out_dir = HERE / "out"
    out_dir.mkdir(exist_ok=True)
    tracer = tracing.Tracer()
    traced = args.trace == 1 and not args.setup_only
    if traced:
        tracer.install(sf)
    workload = workloads.WORKLOADS[args.workload](sf, args.seed, str(out_dir))
    with tracer.pause():  # so that traced counts cover whole rounds only
        workload.warm_up()
    ready = time.monotonic()
    result = {"ready": ready, "import_s": import_s}
    if args.setup_only:
        print(json.dumps(result))
        return

    passed, failures, attempted, busy = measure(workload, args.seconds, tracer)
    for key, error in failures:
        if key not in workload.known_faults:
            print(f"unexpected failure on {workload.label(key)}: {error}", file=sys.stderr)
    result.update(
        attempted=attempted,
        failed=len(failures),
        unexpected=sum(key not in workload.known_faults for key, _ in failures),
        failed_ops=sorted({workload.label(key) for key, _ in failures}),
        latencies=passed,
        busy_s=busy,
        peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    )
    if traced:
        result["layers"] = layers_with_probe(sf, tracer, workloads, args)
        tracer.write(out_dir / f"trace-{args.workload}.tsv")
    print(json.dumps(result))


def layers_with_probe(sf, tracer, workloads, args):
    """Per-layer metrics of the traced run.  Layers the workload never
    reaches are filled from a probe: the probe keys of each other workload,
    traced after the measurement."""
    layers = tracing.layer_metrics(tracer.spans, tracer.counts)
    missing = set(tracing.PER_LAYER) - set(layers) - {"import.starfdr_s", "trace.ops_per_s"}
    for name, cls in workloads.WORKLOADS.items():
        if name == args.workload or not missing:
            continue
        start, before = len(tracer.spans), tracer.counts.copy()
        probe = cls(sf, args.seed, str(HERE / "out"))
        with tracer.pause():
            probe.warm_up()
        for key in probe.probe_keys:
            probe.run(key)
        probe_layers = tracing.layer_metrics(tracer.spans, tracer.counts - before, start)
        for metric in missing & set(probe_layers):
            layers[metric] = probe_layers[metric]
        missing -= set(probe_layers)
    return layers


if __name__ == "__main__":
    main()
