"""Command-line interface.

Subcommands:
  experiment <id>   run a built-in Monte Carlo sweep and emit CSV
  simulate          run a custom single-sweep config from a key=value file
  optimal-region    print the asymptotically optimal rejection regions
  bench             quick timing of the core operations
"""

from __future__ import annotations

import argparse
import os
import sys
import time

import numpy as np

from .distmodel import (
    CAUCHY,
    GAUSSIAN,
    AlternativeModel,
    NetworkModel,
    NodeModel,
    sample_trial,
)
from .experiments import (
    METHODS,
    ExperimentConfig,
    builtin_config,
    default_output_dir,
    run_experiment,
)
from .netsim import run_greedy_aggregation, run_pooled_bh
from .oracleopt import (alt_heterogeneity_bounds, fdr_bound_null_heterogeneity,
                        measure_alt_heterogeneity, optimal_region)
from .procedures import bh_procedure

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_RUNTIME = 2


# the keys each config reader takes
_NETWORK_KEYS = frozenset({"q", "r0", "mu", "kind"})
_CUSTOM_KEYS = frozenset({
    "id", "sweep", "sweep_values", "n", "nodes", "alpha", "kind", "mu_slope", "mu_flat",
    "jitter", "eps_multiplier", "rho", "trials", "seed", "methods", "estimator",
})


def _parse_config_file(path: str, keys) -> dict:
    """Line-oriented key=value format; '#' starts a comment.  A key not in
    keys, the ones the command reads, raises ValueError."""
    out = {}
    with open(path) as fh:
        for lineno, line in enumerate(fh, 1):
            line = line.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value")
            key, value = (part.strip() for part in line.split("=", 1))
            if key not in keys:
                raise ValueError(
                    f"{path}:{lineno}: unknown key {key!r} (known: {', '.join(sorted(keys))})")
            out[key] = value
    return out


def _floats(text: str):
    return tuple(float(v) for v in text.split(","))


def _network_from_config(cfg: dict) -> NetworkModel:
    q = _floats(cfg["q"])
    r0 = _floats(cfg["r0"])
    mu = _floats(cfg["mu"])
    kinds = cfg.get("kind", GAUSSIAN)
    kinds = tuple(kinds.split(",")) if "," in kinds else (kinds,) * len(q)
    if not len(q) == len(r0) == len(mu) == len(kinds):
        raise ValueError("q, r0, mu (and kind) must have matching lengths")
    return NetworkModel(
        [NodeModel(qi, ri, AlternativeModel(k, m)) for qi, ri, m, k in zip(q, r0, mu, kinds)]
    )


def _custom_config(cfg: dict) -> ExperimentConfig:
    n_nodes = int(cfg.get("nodes", 5))
    kinds = cfg.get("kind", GAUSSIAN)
    kinds = tuple(kinds.split(",")) if "," in kinds else (kinds,) * n_nodes
    methods = tuple(cfg.get("methods", ",".join(METHODS)).split(","))
    return ExperimentConfig(
        id=cfg.get("id", "custom"),
        sweep=cfg.get("sweep", "n"),
        sweep_values=_floats(cfg.get("sweep_values", cfg.get("n", "1000"))),
        n=int(float(cfg.get("n", 1000))),
        n_nodes=n_nodes,
        alpha=float(cfg.get("alpha", 0.2)),
        kinds=kinds,
        mu_slope=float(cfg.get("mu_slope", 0.0)),
        mu_flat=float(cfg.get("mu_flat", 0.0)),
        jitter=float(cfg.get("jitter", 0.5)),
        eps_multiplier=float(cfg.get("eps_multiplier", 1.0)),
        rho=float(cfg.get("rho", 0.0)),
        trials=int(cfg.get("trials", 100)),
        seed=int(cfg.get("seed", 0)),
        methods=methods,
        estimator=cfg.get("estimator", "spacing"),
    )


def _cmd_experiment(args) -> int:
    config = builtin_config(args.id, trials=args.trials, seed=args.seed)
    if args.methods:
        config = ExperimentConfig(**{**config.__dict__, "methods": tuple(args.methods.split(","))})
    out = args.out or os.path.join(default_output_dir(), f"experiment_{args.id}.csv")
    rows = run_experiment(config, out_csv=out)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def _cmd_simulate(args) -> int:
    cfg = _parse_config_file(args.config, _CUSTOM_KEYS)
    config = _custom_config(cfg)
    out = args.out or os.path.join(default_output_dir(), f"simulate_{config.id}.csv")
    rows = run_experiment(config, out_csv=out)
    print(f"wrote {len(rows)} rows to {out}")
    return EXIT_OK


def _cmd_optimal_region(args) -> int:
    cfg = _parse_config_file(args.config, _NETWORK_KEYS)
    net = _network_from_config(cfg)
    regions, fdr, power = optimal_region(net, args.alpha)
    for i, region in enumerate(regions):
        if region:
            spans = ", ".join(f"({a:.6f}, {b:.6f})" for a, b in region)
        else:
            spans = "(empty)"
        print(f"node {i}: {spans}")
    print(f"asymptotic FDR {fdr:.6f}")
    print(f"asymptotic power {power:.6f}")
    return EXIT_OK


# the bench network of the alternative-heterogeneity calculators, criterion
# 9's first: its Lipschitz constant (5.07) is below beta* (14.33), so both
# bounds are computed rather than refused early
_BOUND_NET = NetworkModel([
    NodeModel(0.5, 0.7, AlternativeModel(GAUSSIAN, 1.8)),
    NodeModel(0.5, 0.7, AlternativeModel(GAUSSIAN, 2.2)),
])


def _cmd_bench(args) -> int:
    rng_net = NetworkModel(
        [
            NodeModel(0.5, 0.7, AlternativeModel(GAUSSIAN, 2.0)),
            NodeModel(0.5, 0.8, AlternativeModel(CAUCHY, 3.0)),
        ]
    )
    sample = sample_trial(rng_net, (50_000, 50_000), seed=0)
    t0 = time.perf_counter()
    bh_procedure(np.concatenate(sample.pvalues), 0.2)
    t1 = time.perf_counter()
    run_pooled_bh(sample, 0.2)
    t2 = time.perf_counter()
    run_greedy_aggregation(sample, 0.2, 0.001)
    t3 = time.perf_counter()
    optimal_region(rng_net, 0.2)
    t4 = time.perf_counter()
    # the rest of the oracle workload's op
    fdr_bound_null_heterogeneity(rng_net, 0.2)
    t5 = time.perf_counter()
    deltas, lipschitz = measure_alt_heterogeneity(_BOUND_NET, 0.2)
    t6 = time.perf_counter()
    alt_heterogeneity_bounds(_BOUND_NET, 0.2, deltas, lipschitz)
    t7 = time.perf_counter()
    run_experiment(ExperimentConfig(**{**builtin_config("2c", trials=40).__dict__,
                                       "sweep_values": (3,)}))
    t8 = time.perf_counter()
    print(f"bh on 1e5 p-values:     {t1 - t0:.4f} s")
    print(f"pooled protocol:        {t2 - t1:.4f} s")
    print(f"greedy protocol:        {t3 - t2:.4f} s")
    print(f"optimal region search:  {t4 - t3:.4f} s")
    print(f"null FDR bound:         {t5 - t4:.4f} s")
    print(f"alt heterogeneity:      {t6 - t5:.4f} s")
    print(f"alt bounds:             {t7 - t6:.4f} s")
    print(f"sweep 2c@3, 40 trials:  {t8 - t7:.4f} s")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="starfdr")
    sub = parser.add_subparsers(dest="command", required=True)

    p_exp = sub.add_parser("experiment", help="run a built-in experiment sweep")
    p_exp.add_argument("id", choices=["1", "2a", "2b", "2c", "3"])
    p_exp.add_argument("--trials", type=int, default=1000)
    p_exp.add_argument("--seed", type=int, default=0)
    p_exp.add_argument("--out", default=None)
    p_exp.add_argument("--methods", default=None, help="comma-separated subset of methods")
    p_exp.set_defaults(func=_cmd_experiment)

    p_sim = sub.add_parser("simulate", help="run a custom key=value config")
    p_sim.add_argument("--config", required=True)
    p_sim.add_argument("--out", default=None)
    p_sim.set_defaults(func=_cmd_simulate)

    p_opt = sub.add_parser("optimal-region", help="print optimal rejection regions")
    p_opt.add_argument("--config", required=True)
    p_opt.add_argument("--alpha", type=float, default=0.2)
    p_opt.set_defaults(func=_cmd_optimal_region)

    p_bench = sub.add_parser("bench", help="quick timing of core operations")
    p_bench.set_defaults(func=_cmd_bench)
    return parser


def cli(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except (OSError, ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_RUNTIME


def main() -> None:
    sys.exit(cli())


if __name__ == "__main__":
    main()
