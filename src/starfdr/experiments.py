"""Experiment configurations, Monte Carlo orchestration, and CSV emission.

The built-in configurations reproduce the simulation sweeps: five nodes,
per-node alternative fraction 0.5 - (i-1)/10, target FDR 0.2, per-trial
location jitter of +-0.5, and the documented epsilon rules for the greedy
method.
"""

from __future__ import annotations

import csv
import io
import math
import os
from dataclasses import dataclass

import numpy as np

from .distmodel import (
    CAUCHY,
    GAUSSIAN,
    AlternativeModel,
    DependenceSpec,
    NetworkModel,
    NodeModel,
    node_columns,
    sample_rows,
    sample_trial,
)
from .greedy import default_epsilon, estimate_grid, greedy_rows, row_cells
from .netsim import (
    greedy_cost,
    make_estimator,
    row_estimates,
    run_greedy_aggregation,
    run_no_comm,
    run_pooled_bh,
    run_proportion_matching,
)
from .oracleopt import optimal_region
from .procedures import bh_threshold, estimate_levels, usable_estimates

CSV_HEADER = [
    "sweep", "method", "fdr", "fdr_se", "power", "power_se",
    "bits_up", "bits_down", "rounds", "trials",
]

METHODS = ("no_comm", "pooled_bh", "prop_match", "greedy", "optimal")

DEFAULT_ALPHA = 0.2
DEFAULT_N = 5
JITTER = 0.5


@dataclass(frozen=True)
class ExperimentConfig:
    id: str
    sweep: str  # name of the swept variable: n, eta, mu, rho
    sweep_values: tuple
    n: int = 1000  # size parameter when not swept
    n_nodes: int = DEFAULT_N
    alpha: float = DEFAULT_ALPHA
    kinds: tuple = (GAUSSIAN,) * DEFAULT_N
    # node i (1-based) has base mu = mu_flat + mu_slope * i; the swept value
    # takes mu_flat's place in a mu sweep and mu_slope's in an eta sweep
    mu_slope: float = 0.0
    mu_flat: float = 0.0
    jitter: float = JITTER
    eps_multiplier: float = 1.0
    eps_scales_with_sweep: bool = False  # experiment 2a couples eps to eta
    rho: float = 0.0
    trials: int = 1000
    seed: int = 0
    methods: tuple = METHODS
    estimator: str = "spacing"

    def __post_init__(self):
        if self.sweep not in ("n", "eta", "mu", "rho"):
            raise ValueError(f"unknown sweep {self.sweep!r}: sweep one of n, eta, mu, rho")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if len(self.sweep_values) == 0:
            raise ValueError("sweep grid must be nonempty")
        if len(self.kinds) != self.n_nodes:
            raise ValueError("one statistic kind per node required")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        swept = self.sweep == "n"
        for n in [int(v) for v in self.sweep_values] if swept else [self.n]:
            sizes = self.sizes(n).tolist()
            if min(sizes) < 1:
                raise ValueError(
                    f"{'sweep value ' if swept else ''}n={n} leaves node "
                    f"{sizes.index(min(sizes)) + 1} with no p-values (sizes {sizes})")

    def r0(self, i: int) -> float:
        """Null proportion at node i (1-based): 1 - (0.5 - (i-1)/10)."""
        return 1.0 - (0.5 - (i - 1) / 10.0)

    def sizes(self, n: int) -> np.ndarray:
        return np.array(
            [round((1.0 - 0.2 * (i - 1)) * n) for i in range(1, self.n_nodes + 1)]
        )

    def instantiate(self, sweep_value):
        """Resolve one sweep point into (net, sizes, dep, epsilon, jitter)."""
        n = int(sweep_value) if self.sweep == "n" else self.n
        sizes = self.sizes(n)
        m = int(sizes.sum())
        q = sizes / m

        slope = float(sweep_value) if self.sweep == "eta" else self.mu_slope
        flat = float(sweep_value) if self.sweep == "mu" else self.mu_flat
        net = NetworkModel(
            NodeModel(q[i - 1], self.r0(i), AlternativeModel(self.kinds[i - 1], flat + slope * i))
            for i in range(1, self.n_nodes + 1)
        )
        dep = DependenceSpec(float(sweep_value) if self.sweep == "rho" else self.rho)

        mult = self.eps_multiplier
        if self.eps_scales_with_sweep:
            mult *= float(sweep_value)
        eps = default_epsilon(self.alpha, m, mult)
        return net, sizes, dep, eps, self.jitter


def builtin_config(exp_id, trials: int = 1000, seed: int = 0) -> ExperimentConfig:
    """The documented experiment sweeps: 1, 2a, 2b, 2c, 3."""
    exp_id = str(exp_id)
    common = dict(trials=trials, seed=seed)
    if exp_id == "1":
        return ExperimentConfig(
            "1", sweep="n",
            sweep_values=(100, 316, 1000, 3162, 10000, 31623, 100000),
            mu_slope=1.25, **common,
        )
    if exp_id == "2a":
        return ExperimentConfig(
            "2a", sweep="eta",
            sweep_values=(0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0),
            eps_scales_with_sweep=True, **common,
        )
    if exp_id == "2b":
        return ExperimentConfig(
            "2b", sweep="mu", sweep_values=(2, 3, 4, 5, 6, 7, 8, 9, 10),
            kinds=(CAUCHY,) * DEFAULT_N, eps_multiplier=2.5, **common,
        )
    if exp_id == "2c":
        return ExperimentConfig(
            "2c", sweep="mu", sweep_values=(2, 2.5, 3, 3.5, 4, 4.5, 5),
            kinds=(CAUCHY, GAUSSIAN, CAUCHY, GAUSSIAN, CAUCHY),
            eps_multiplier=2.5, **common,
        )
    if exp_id == "3":
        return ExperimentConfig(
            "3", sweep="rho", sweep_values=(0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9),
            mu_slope=1.25, **common,
        )
    raise ValueError(f"unknown experiment id {exp_id!r}")


@dataclass(frozen=True)
class ResultRow:
    sweep: float
    method: str
    fdr: float
    fdr_se: float
    power: float
    power_se: float
    bits_up: float
    bits_down: float
    rounds: float
    trials: int

    def as_record(self):
        def fmt(v):
            return f"{v:.10g}"
        return [
            fmt(self.sweep), self.method, fmt(self.fdr), fmt(self.fdr_se),
            fmt(self.power), fmt(self.power_se), fmt(self.bits_up),
            fmt(self.bits_down), fmt(self.rounds), str(self.trials),
        ]


# elements per stacked array in one block of trials: 43 trials at m = 3,000,
# one from m = 131,072 up, so memory stays flat as m and the trial count grow
BLOCK_ELEMENTS = 2**17


class _TrialBlock:
    """Consecutive trials of one sweep point: sample_rows' (t, m) rows, and
    per node (t, m_i) views of the p-values and null labels, the sorted
    p-values and one estimate per row (r0, (t, n), NaN where the estimator
    failed or gave 0, by usable_estimates), each computed once."""

    def __init__(self, P, N, sizes, choice, est):
        cols = node_columns(sizes)
        self.P = [P[:, c] for c in cols]
        self.N = [N[:, c] for c in cols]
        self.S = [np.sort(p, axis=1) for p in self.P]
        self.r0 = usable_estimates(np.column_stack([
            row_estimates(choice, est, srt, i)[0] for i, srt in enumerate(self.S)
        ]))
        self.sizes = sizes
        self.m1 = np.count_nonzero(~N, axis=1)
        self._rows = P, N
        self._choice, self._est = choice, est

    def pooled(self):
        """The pooled rows: (p-values, sorted, null labels, estimates), the
        pool estimated at node index None."""
        P, N = self._rows
        srt = np.sort(P, axis=1)
        return P, srt, N, row_estimates(self._choice, self._est, srt, None)[0]


def _bh_rv(P, S, N, levels):
    """R and V per row of BH at per-row levels; a NaN level rejects nothing."""
    k, tau = bh_threshold(S, levels)
    return k, np.count_nonzero(N & (P <= tau[:, None]), axis=1)


def _local_bh(block, levels, cost):
    """Records of BH at every node, at per-(trial, node) levels (t, n)."""
    R = V = 0
    for i, (P, S, N) in enumerate(zip(block.P, block.S, block.N)):
        k, v = _bh_rv(P, S, N, levels[:, i])
        R, V = R + k, V + v
    return _records(R, V, block.m1, cost)


def _records(R, V, m1, cost):
    """Per-trial (fdp, tdp, bits_up, bits_down, rounds), FDP and TDP from
    the same integer formulas as procedures.confusion_metrics."""
    rec = np.empty((len(R), 5))
    rec[:, 0] = V / np.maximum(R, 1)
    rec[:, 1] = (R - V) / np.maximum(m1, 1)
    rec[:, 2:] = cost
    return rec


def _no_comm(block, alpha, eps, cost):
    return _local_bh(block, estimate_levels(block.r0, block.sizes, alpha).no_comm, cost)


def _pooled_bh(block, alpha, eps, cost):
    P, S, N, r0 = block.pooled()
    level = estimate_levels(r0[:, None], [P.shape[1]], alpha).pooled_bh[:, 0]
    return _records(*_bh_rv(P, S, N, level), block.m1, cost)


def _prop_match(block, alpha, eps, cost):
    """run_proportion_matching(adaptive=True) on every row."""
    levels = estimate_levels(block.r0, block.sizes, alpha, adaptive=True).prop_match
    return _local_bh(block, levels, cost)


def _greedy(block, alpha, eps, _cost):
    """Greedy aggregation over all of a block's trials at once: each node's
    cells on the (t, n) estimate_grid from row_cells, the protocol's
    selection order per trial from greedy_rows, and the cost from the
    message schedule."""
    sizes = block.sizes
    t, n = block.r0.shape
    m = int(sizes.sum())
    grid = estimate_grid(eps, sizes, block.r0)
    L, K = grid.lengths, grid.counts
    # every trial's candidate cells in (node, cell) order: node i has cells
    # 1..max K in every row, and those beyond a trial's own K count 0, so
    # that trial never selects them
    bins = {i: row_cells(block.P[i], L[:, i], K[:, i]) for i in np.flatnonzero(K.any(axis=0))}
    H = np.concatenate([np.zeros((t, 0))] + [c for _, c in bins.values()], axis=1) / (eps * m)
    order, k, _ = greedy_rows(H, alpha)
    chosen = np.zeros(H.shape, dtype=bool)
    np.put_along_axis(chosen, order, np.arange(H.shape[1]) < k[:, None], axis=1)
    granted = np.zeros((t, n), dtype=int)
    R = V = np.zeros(t, dtype=int)
    start = 0
    for i, (idx, counts) in bins.items():
        width = counts.shape[1]
        table = np.zeros((t, width + 2), dtype=bool)  # cells 0..max K + 1 of each trial
        table[:, 1:-1] = chosen[:, start : start + width]
        start += width
        granted[:, i] = np.count_nonzero(table, axis=1)
        hit = table.ravel()[idx]
        R, V = R + np.count_nonzero(hit, axis=1), V + np.count_nonzero(hit & block.N[i], axis=1)
    return _records(R, V, block.m1, np.column_stack(greedy_cost(sizes, K, granted)))


_BATCHED = {
    "no_comm": _no_comm,
    "pooled_bh": _pooled_bh,
    "prop_match": _prop_match,
    "greedy": _greedy,
}


def _protocol_record(method, sample, alpha, eps, est):
    """(fdp, tdp, bits_up, bits_down, rounds) of the transcript protocol."""
    if method == "no_comm":
        res = run_no_comm(sample, alpha, est)
    elif method == "pooled_bh":
        res = run_pooled_bh(sample, alpha, est)
    elif method == "prop_match":
        res = run_proportion_matching(sample, alpha, est, adaptive=True)
    else:
        res = run_greedy_aggregation(sample, alpha, eps, est)
    ts = res.transcript
    return (res.metrics.fdp, res.metrics.tdp, ts.bits_up, ts.bits_down, ts.rounds)


def _simulate_point(config, s_idx, point, methods):
    """Per-trial records of each simulated method at one sweep point, as a
    (trials, 5) array per method.

    Trials run in blocks of at most BLOCK_ELEMENTS p-values per stacked
    array, drawn together by sample_rows.  Trial 0 is also drawn on its own
    by sample_trial and run through the transcript protocols, which must
    give the same record exactly, so the check covers the block sampler
    too.  no_comm, pooled_bh and prop_match send the same messages on every
    trial, so their cost columns are taken from that run.
    """
    net, sizes, dep, eps, jitter = point
    # the resolved callable, not the name, so that the cross-check runs the
    # protocols on the engine's own estimator
    est = make_estimator(config.estimator, net)

    def rng(t):
        return np.random.default_rng(np.random.SeedSequence([config.seed, s_idx, t]))

    trial0 = sample_trial(net, sizes, dep, jitter, seed=rng(0))
    reference = {
        mth: _protocol_record(mth, trial0, config.alpha, eps, est)
        for mth in methods
    }
    per_block = max(1, BLOCK_ELEMENTS // int(sizes.sum()))
    out = {mth: np.empty((config.trials, 5)) for mth in methods}
    for start in range(0, config.trials, per_block):
        rngs = [rng(t) for t in range(start, min(start + per_block, config.trials))]
        P, N = sample_rows(net, sizes, dep, jitter, rngs)
        block = _TrialBlock(P, N, sizes, config.estimator, est)
        stop = start + len(rngs)
        for mth in methods:
            out[mth][start:stop] = _BATCHED[mth](block, config.alpha, eps, reference[mth][2:])
    for mth in methods:
        if tuple(out[mth][0].tolist()) != reference[mth]:
            raise RuntimeError(
                f"experiment {config.id} sweep={config.sweep_values[s_idx]} method={mth}: "
                f"trial 0 gives {tuple(out[mth][0].tolist())} in batch and "
                f"{reference[mth]} in the protocol"
            )
    return out


def run_experiment(config: ExperimentConfig, out_csv=None):
    """Monte Carlo sweep: per sweep value and method, mean FDR/power with
    standard errors and mean communication cost.  Deterministic given the
    config seed; every trial counts, and an estimator that fails at a node
    falls back as the protocols do (see README, "Sweep engine")."""
    rows = []
    sim_methods = [mth for mth in config.methods if mth != "optimal"]
    for s_idx, sweep_value in enumerate(config.sweep_values):
        point = config.instantiate(sweep_value)
        acc = _simulate_point(config, s_idx, point, sim_methods) if sim_methods else {}
        for mth in sim_methods:
            data = acc[mth]
            k = data.shape[0]
            mean = data.mean(axis=0)
            se = data[:, :2].std(axis=0, ddof=1) / math.sqrt(k) if k > 1 else (0.0, 0.0)
            rows.append(ResultRow(
                float(sweep_value), mth, mean[0], float(se[0]), mean[1], float(se[1]),
                mean[2], mean[3], mean[4], k,
            ))
        if "optimal" in config.methods:
            _, fdr, power = optimal_region(point[0], config.alpha)
            rows.append(ResultRow(
                float(sweep_value), "optimal", fdr, 0.0, power, 0.0, 0.0, 0.0, 0.0, 0,
            ))
    if out_csv is not None:
        write_csv(rows, out_csv)
    return rows


def write_csv(rows, path) -> None:
    """Write result rows; the file appears only on success."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_HEADER)
    for row in rows:
        writer.writerow(row.as_record())
    with open(path, "w") as fh:
        fh.write(buf.getvalue())


def default_output_dir() -> str:
    return os.environ.get("STARFDR_OUT_DIR", ".")
