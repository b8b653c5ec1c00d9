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
from dataclasses import dataclass, fields
from functools import cached_property

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

METHODS = ("no_comm", "pooled_bh", "prop_match", "greedy", "optimal")

DEFAULT_N = 5

# the field each sweep sets from its sweep values
_SWEPT_FIELDS = {"n": "n", "eta": "mu_slope", "mu": "mu_flat", "rho": "rho"}


@dataclass(frozen=True)
class ExperimentConfig:
    id: str
    sweep: str  # name of the swept variable: n, eta, mu, rho
    sweep_values: tuple
    n: int = 1000  # size parameter when not swept, a whole number
    alpha: float = 0.2
    kinds: tuple = (GAUSSIAN,) * DEFAULT_N  # one statistic kind per node
    # node i (1-based) has base mu = mu_flat + mu_slope * i; the swept value
    # takes mu_flat's place in a mu sweep and mu_slope's in an eta sweep
    mu_slope: float = 0.0
    mu_flat: float = 0.0
    jitter: float = 0.5
    eps_multiplier: float = 1.0  # an eta sweep multiplies it by eta
    rho: float = 0.0
    trials: int = 1000
    seed: int = 0
    methods: tuple = METHODS
    estimator: str = "spacing"

    def __post_init__(self):
        if self.sweep not in _SWEPT_FIELDS:
            raise ValueError(
                f"unknown sweep {self.sweep!r}: sweep one of {', '.join(_SWEPT_FIELDS)}")
        field = _SWEPT_FIELDS[self.sweep]
        if getattr(self, field) != self.__dataclass_fields__[field].default:
            raise ValueError(
                f"sweep = {self.sweep} takes {field} from sweep_values: "
                f"{field} = {getattr(self, field)!r} would be ignored")
        if self.trials < 1:
            raise ValueError("trials must be >= 1")
        if len(self.sweep_values) == 0:
            raise ValueError("sweep grid must be nonempty")
        if len(self.kinds) == 0:
            raise ValueError("kinds is empty: a config needs at least one node")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must lie in (0, 1)")
        unknown = set(self.methods) - set(METHODS)
        if unknown:
            raise ValueError(f"unknown methods {sorted(unknown)}")
        # every sweep point resolves here, so a bad value raises before any trial runs
        for value in self.sweep_values:
            net = self.instantiate(value)[0]
        make_estimator(self.estimator, net)

    @property
    def n_nodes(self) -> int:
        return len(self.kinds)

    def r0(self, i: int) -> float:
        """Null proportion at node i (1-based): 1 - (0.5 - (i-1)/10)."""
        return 1.0 - (0.5 - (i - 1) / 10.0)

    def sizes(self, n: int) -> np.ndarray:
        return np.array(
            [round((1.0 - 0.2 * (i - 1)) * n) for i in range(1, self.n_nodes + 1)]
        )

    def instantiate(self, sweep_value):
        """Resolve one sweep point into (net, sizes, dep, epsilon, jitter):
        this config's fields, with the swept one set to sweep_value."""
        setting = vars(self) | {_SWEPT_FIELDS[self.sweep]: sweep_value}
        label = "sweep value " if self.sweep == "n" else ""
        if not float(setting["n"]).is_integer():
            raise ValueError(f"{label}n={setting['n']!r} is not a whole number")
        n = int(setting["n"])
        sizes = self.sizes(n)
        if min(sizes) < 1:
            raise ValueError(f"{label}n={n} leaves node {sizes.argmin() + 1} with no "
                             f"p-values (sizes {sizes.tolist()})")
        m = int(sizes.sum())
        slope, flat = setting["mu_slope"], setting["mu_flat"]
        net = NetworkModel(
            NodeModel(m_i / m, self.r0(i), AlternativeModel(kind, flat + slope * i))
            for i, (m_i, kind) in enumerate(zip(sizes, self.kinds), 1)
        )
        eps = default_epsilon(self.alpha, m,
                              self.eps_multiplier * (slope if self.sweep == "eta" else 1.0))
        return net, sizes, DependenceSpec(setting["rho"]), eps, self.jitter


# each built-in sweep's settings beyond ExperimentConfig's defaults; a
# simulate file with the same keys runs the same sweep
BUILTINS = {
    "1": dict(sweep="n", sweep_values=(100, 316, 1000, 3162, 10000, 31623, 100000),
              mu_slope=1.25),
    "2a": dict(sweep="eta", sweep_values=(0.5, 0.75, 1.0, 1.25, 1.5, 1.75, 2.0)),
    "2b": dict(sweep="mu", sweep_values=(2, 3, 4, 5, 6, 7, 8, 9, 10),
               kinds=(CAUCHY,) * DEFAULT_N, eps_multiplier=2.5),
    "2c": dict(sweep="mu", sweep_values=(2, 2.5, 3, 3.5, 4, 4.5, 5),
               kinds=(CAUCHY, GAUSSIAN, CAUCHY, GAUSSIAN, CAUCHY), eps_multiplier=2.5),
    "3": dict(sweep="rho", sweep_values=(0.0, 0.15, 0.3, 0.45, 0.6, 0.75, 0.9),
              mu_slope=1.25),
}


def builtin_config(exp_id, trials: int = 1000, seed: int = 0) -> ExperimentConfig:
    """The documented experiment sweeps: one per key of BUILTINS."""
    exp_id = str(exp_id)
    if exp_id not in BUILTINS:
        raise ValueError(f"unknown experiment id {exp_id!r}")
    return ExperimentConfig(exp_id, trials=trials, seed=seed, **BUILTINS[exp_id])


@dataclass(frozen=True)
class ResultRow:
    """One CSV row: the columns are these fields, in this order."""

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
        """The row's CSV fields: a float as .10g, anything else by str."""
        return [f"{v:.10g}" if isinstance(v, (float, np.floating)) else str(v)
                for v in vars(self).values()]


CSV_HEADER = [f.name for f in fields(ResultRow)]


# elements per stacked array in one block of trials: 43 trials at m = 3,000,
# one from m = 131,072 up, so memory stays flat as m and the trial count grow
BLOCK_ELEMENTS = 2**17


class _TrialBlock:
    """Consecutive trials of one sweep point: sample_rows' (t, m) rows, and
    per node (t, m_i) views of the p-values and null labels, the sorted
    p-values and one estimate per row (r0, (t, n), NaN where the estimator
    failed or gave 0, by usable_estimates), each computed once."""

    def __init__(self, P, N, sizes, choice, est, alpha):
        cols = node_columns(sizes)
        self.P = [P[:, c] for c in cols]
        self.N = [N[:, c] for c in cols]
        self.S = [np.sort(p, axis=1) for p in self.P]
        self.r0 = usable_estimates(np.column_stack([
            row_estimates(choice, est, srt, i)[0] for i, srt in enumerate(self.S)
        ]))
        self.sizes = sizes
        self.alpha = alpha
        self.m1 = np.count_nonzero(~N, axis=1)
        self._rows = P, N
        self._choice, self._est = choice, est

    @cached_property
    def levels(self):
        """The node levels, adaptive as prop_match runs (no_comm's do not
        depend on it), read by both methods."""
        return estimate_levels(self.r0, self.sizes, self.alpha, adaptive=True)

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


def _pooled_bh(block, eps, cost):
    P, S, N, r0 = block.pooled()
    level = estimate_levels(r0[:, None], [P.shape[1]], block.alpha).pooled_bh[:, 0]
    return _records(*_bh_rv(P, S, N, level), block.m1, cost)


def _greedy(block, eps, _cost):
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
    order, k, _ = greedy_rows(H, block.alpha)
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


# each simulated method: its transcript protocol on one sample (sample,
# alpha, eps, est), and its batch form on a _TrialBlock (block, eps, cost);
# the protocols look run_* up when called, so a replaced one is the one run
_SIMULATED = {
    "no_comm": (lambda s, alpha, eps, est: run_no_comm(s, alpha, est),
                lambda block, eps, cost: _local_bh(block, block.levels.no_comm, cost)),
    "pooled_bh": (lambda s, alpha, eps, est: run_pooled_bh(s, alpha, est), _pooled_bh),
    "prop_match": (
        lambda s, alpha, eps, est: run_proportion_matching(s, alpha, est, adaptive=True),
        lambda block, eps, cost: _local_bh(block, block.levels.prop_match, cost)),
    "greedy": (lambda s, alpha, eps, est: run_greedy_aggregation(s, alpha, eps, est), _greedy),
}


def _simulate_point(config, s_idx, point, methods):
    """Per-trial records of each simulated method at one sweep point, as a
    (trials, 5) array per method.

    Trials run in blocks of at most BLOCK_ELEMENTS p-values per stacked
    array, drawn together by sample_rows.  Trial 0 is also drawn on its own
    by sample_trial and run through the transcript protocols, which must
    give the same (fdp, tdp, bits_up, bits_down, rounds) exactly, so the
    check covers the block sampler too.  no_comm, pooled_bh and prop_match
    send the same messages on every trial, so their cost columns are taken
    from that run.
    """
    net, sizes, dep, eps, jitter = point
    # the resolved callable, not the name, so that the cross-check runs the
    # protocols on the engine's own estimator
    est = make_estimator(config.estimator, net)

    def rng(t):
        return np.random.default_rng(np.random.SeedSequence([config.seed, s_idx, t]))

    trial0 = sample_trial(net, sizes, dep, jitter, seed=rng(0))
    reference = {}
    for mth in methods:
        res = _SIMULATED[mth][0](trial0, config.alpha, eps, est)
        ts = res.transcript
        reference[mth] = (res.metrics.fdp, res.metrics.tdp, ts.bits_up, ts.bits_down, ts.rounds)
    per_block = max(1, BLOCK_ELEMENTS // int(sizes.sum()))
    out = {mth: np.empty((config.trials, 5)) for mth in methods}
    for start in range(0, config.trials, per_block):
        rngs = [rng(t) for t in range(start, min(start + per_block, config.trials))]
        P, N = sample_rows(net, sizes, dep, jitter, rngs)
        block = _TrialBlock(P, N, sizes, config.estimator, est, config.alpha)
        stop = start + len(rngs)
        for mth in methods:
            out[mth][start:stop] = _SIMULATED[mth][1](block, eps, reference[mth][2:])
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
    sim_methods = [mth for mth in config.methods if mth in _SIMULATED]
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
