"""End-to-end benchmark of starfdr.

    python3 perfbench/run.py --workload sweep_m3k --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout.  Each run starts fresh,
single-threaded worker processes: SETUPS of them set up the workload, and
the last one then measures it.  set-up time is the median over those
processes, from before each starts to its first timed operation.  The last
line of standard output is one JSON object with `correct`, `attempted`,
`failed` and `metrics`: the end-to-end metrics with --trace 0, the
per-layer metrics of a traced run with --trace 1.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from tracing import PER_LAYER  # noqa: E402  (stdlib only)

WORKLOADS = ("sweep_m3k", "protocol_m300k", "oracle")
SETUPS = 3
# numeric libraries stay on one thread; the worker processes are the only
# ones that import them
SINGLE_THREAD = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
SETUP_TIMEOUT_S = 60
MEASURE_GRACE_S = 90


def worker(args, setup_only, timeout):
    """Run one worker process; returns (seconds from start to ready, result)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    env = {**os.environ, **SINGLE_THREAD}
    started = time.monotonic()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=timeout,
                          cwd=ROOT, env=env)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise SystemExit(f"worker exited with code {proc.returncode}")
    sys.stderr.write(proc.stderr)
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    return result["ready"] - started, result


def percentile(values, pct):
    ordered = sorted(values)
    pos = (len(ordered) - 1) * pct / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_percentile(n):
    """Highest percentile of the ladder p90, p99, p99.9 with at least ten
    ops beyond it; the median when there are fewer than 100 ops.  The wide
    ladder keeps one percentile over the range of op counts that machine
    noise gives a workload."""
    best = 50.0
    for pct in (90.0, 99.0, 99.9):
        if int(n * (100.0 - pct) / 100.0 + 1e-9) >= 10:
            best = pct
    return best


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (ROOT / "src" / "starfdr" / "__init__.py").is_file():
        raise SystemExit(f"no starfdr sources under {ROOT / 'src'}")

    setups, imports = [], []
    for _ in range(SETUPS - 1):
        setup_s, res = worker(args, True, SETUP_TIMEOUT_S)
        setups.append(setup_s)
        imports.append(res["import_s"])
    setup_s, res = worker(args, False, SETUP_TIMEOUT_S + args.seconds + MEASURE_GRACE_S)
    setups.append(setup_s)
    imports.append(res["import_s"])

    lat_ms = [1e3 * x for x in res["latencies"]]
    n = len(lat_ms)
    if n == 0:
        raise SystemExit(f"no operation passed its checks: {res['failed_ops']}")
    ops_per_s = n / res["busy_s"]
    if args.trace:
        metrics = dict(res["layers"])
        metrics["import.starfdr_s"] = statistics.median(imports)
        metrics["trace.ops_per_s"] = ops_per_s
        units = PER_LAYER
    else:
        tail = tail_percentile(n)
        metrics = {
            "ops_per_s": ops_per_s,
            "op_p50_ms": percentile(lat_ms, 50.0),
            "op_tail_ms": percentile(lat_ms, tail),
            "peak_rss_mb": res["peak_rss_mb"],
            "setup_s": statistics.median(setups),
        }
        units = {"ops_per_s": "1/s", "op_p50_ms": "ms", "op_tail_ms": "ms",
                 "peak_rss_mb": "MiB", "setup_s": "s"}
        print(f"op_tail_ms is p{tail:g} of {n} passing ops")
    missing = set(units) - set(metrics)
    if missing:
        raise SystemExit(f"metrics not measured: {sorted(missing)}")

    print(f"workload {args.workload}, seed {args.seed}: {res['attempted']} ops attempted, "
          f"{res['failed']} failed {res['failed_ops']}")
    for name, unit in units.items():
        print(f"{name:48s} {metrics[name]:14.6g} {unit}")
    print(json.dumps({
        "correct": res["unexpected"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in units.items()},
    }))


if __name__ == "__main__":
    main()
