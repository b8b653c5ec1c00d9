"""The benchmark's three workloads.

A workload builds its inputs from the seed (`__init__`), warms up
(`warm_up`, untraced) and then offers `keys`: one round of operations, run
in that order.  `probe_keys` are the fewest of them that reach every layer
the workload calls.  `run(key)`
is the timed call into starfdr; `check(key, output)` runs untimed and
raises `CheckFailed` when the output disagrees with the references.
Inputs depend on the seed only; the same seed gives the same inputs.
"""

from __future__ import annotations

import dataclasses
import os

import numpy as np

ALPHA = 0.2


class CheckFailed(Exception):
    pass


def _require(ok, what):
    if not ok:
        raise CheckFailed(what)


def _refs():
    # imported on first check, after set-up is timed
    import refs
    return refs


def _round_order(seed, n):
    """The seed's fixed permutation of one round of n operations."""
    # a stream apart from the input streams, which use [seed, k] with small k
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xB0]))
    return [int(k) for k in rng.permutation(n)]


def _check_metrics(res, sample):
    """FDP and TDP recomputed from the null labels of the rejected indices."""
    R = V = 0
    for out, labels in zip(res.outcomes, sample.null_labels):
        idx = np.asarray(out.rejected, dtype=int)
        R += idx.size
        V += int(np.count_nonzero(labels[idx]))
    m1 = sum(int(np.count_nonzero(~lab)) for lab in sample.null_labels)
    met = res.metrics
    _require((met.R, met.V) == (R, V), f"R, V = {met.R}, {met.V}; expected {R}, {V}")
    _require(met.fdp == V / max(R, 1) and met.tdp == (R - V) / max(m1, 1), "FDP/TDP")


def _same_rejections(outcomes, expected, what):
    for i, (out, ref) in enumerate(zip(outcomes, expected)):
        got = np.sort(np.asarray(out.rejected, dtype=int))
        _require(np.array_equal(got, ref), f"{what}: node {i} rejects {got.size}, "
                 f"reference {len(ref)}")


# --- sweep_m3k --------------------------------------------------------------

class SweepM3k:
    """Every sweep point of experiments 2c and 3 at the default n (m = 3000),
    one `run_experiment` call per point with the four simulated methods."""

    name = "sweep_m3k"
    EXPERIMENTS = ("2c", "3")
    METHODS = ("no_comm", "pooled_bh", "prop_match", "greedy")
    TRIALS = 40

    def __init__(self, sf, seed, out_dir):
        self.sf = sf
        self.points = []  # (label, config, csv path, sizes)
        csv_dir = os.path.join(out_dir, "csv")
        os.makedirs(csv_dir, exist_ok=True)
        for exp in self.EXPERIMENTS:
            base = sf.builtin_config(exp, trials=self.TRIALS)
            for v in base.sweep_values:
                k = len(self.points)
                point_seed = int(np.random.SeedSequence([seed, k]).generate_state(1)[0])
                cfg = dataclasses.replace(base, sweep_values=(v,), methods=self.METHODS,
                                          seed=point_seed)
                path = os.path.join(csv_dir, f"{exp}_{v:g}.csv")
                self.points.append((f"{exp}@{v:g}", cfg, path, cfg.sizes(cfg.n)))
        self.keys = _round_order(seed, len(self.points))
        self.known_faults = frozenset()
        self._csv = {}  # key -> bytes of the point's first CSV
        # the last point of each experiment: both samplers (3@0.9 is AR(1))
        self.probe_keys = [max(k for k, p in enumerate(self.points) if p[0].startswith(exp + "@"))
                           for exp in self.EXPERIMENTS]

    def warm_up(self):
        """The probe points at two trials: every method and the CSV writer."""
        for key in self.probe_keys:
            _, cfg, path, _ = self.points[key]
            self.sf.run_experiment(dataclasses.replace(cfg, trials=2), out_csv=path)

    def label(self, key):
        return self.points[key][0]

    def run(self, key):
        _, cfg, path, _ = self.points[key]
        return self.sf.run_experiment(cfg, out_csv=path)

    def check(self, key, rows):
        refs = _refs()
        _, cfg, path, sizes = self.points[key]
        by_method = {r.method: r for r in rows}
        _require(len(rows) == len(self.METHODS) and set(by_method) == set(self.METHODS),
                 f"methods {sorted(by_method)}")
        eps = cfg.instantiate(cfg.sweep_values[0])[3]
        for r in rows:
            _require(r.trials == self.TRIALS, f"{r.method}: {r.trials} trials")
            _require(0.0 <= r.fdr <= 1.0 and 0.0 <= r.power <= 1.0,
                     f"{r.method}: fdr {r.fdr}, power {r.power}")
        nc, pb, pm, gr = (by_method[m] for m in self.METHODS)
        _require((nc.bits_up, nc.bits_down, nc.rounds) == (0, 0, 0), "no_comm cost")
        _require((pb.bits_up, pb.bits_down, pb.rounds) == (*refs.pooled_bits(sizes), 1),
                 "pooled_bh cost")
        _require((pm.bits_up, pm.bits_down, pm.rounds) == (*refs.prop_match_bits(sizes), 1),
                 "prop_match cost")
        _require(gr.bits_up > 0 and 1 <= gr.rounds <= ALPHA / eps + 5, "greedy rounds")
        with open(path, "rb") as fh:
            text = fh.read()
        if key not in self._csv:
            if not self._csv:  # once per run: rerun the point with its seed
                self.sf.run_experiment(cfg, out_csv=path)
                with open(path, "rb") as fh:
                    _require(fh.read() == text, "rerun with the same seed changed the CSV")
            self._csv[key] = text
        _require(text == self._csv[key], "CSV differs from the first run of this point")


# --- protocol_m300k ---------------------------------------------------------

class ProtocolM300k:
    """The four protocols plus greedy serialize and replay, on samples of
    experiment 1 at n = 100,000 (m = 300,000), drawn during set-up."""

    name = "protocol_m300k"
    SAMPLES = 6

    def __init__(self, sf, seed, out_dir):
        self.sf = sf
        cfg = sf.builtin_config("1")
        net, self.sizes, dep, self.eps, jitter = cfg.instantiate(100_000)
        self.samples = [
            sf.sample_trial(net, self.sizes, dep, mean_jitter=jitter,
                            seed=np.random.default_rng(np.random.SeedSequence([seed, k])))
            for k in range(self.SAMPLES)
        ]
        self.keys = _round_order(seed, self.SAMPLES)
        self.known_faults = frozenset()
        self._refs = {}
        self.probe_keys = self.keys[:1]

    def warm_up(self):
        self.run(self.probe_keys[0])

    def label(self, key):
        return f"sample{key}"

    def run(self, key):
        sf, s, eps = self.sf, self.samples[key], self.eps
        no_comm = sf.run_no_comm(s, ALPHA)
        pooled = sf.run_pooled_bh(s, ALPHA)
        prop = sf.run_proportion_matching(s, ALPHA, adaptive=True)
        greedy = sf.run_greedy_aggregation(s, ALPHA, eps)
        text = greedy.transcript.serialize()
        replay = sf.replay_greedy_transcript(greedy.transcript, s, eps)
        return no_comm, pooled, prop, greedy, text, replay

    def _reference(self, key):
        """Per-sample references, computed once: BH rejections from their
        definition, max-spacing estimates and ranked greedy cells."""
        if key not in self._refs:
            refs = _refs()
            s = self.samples[key]
            m = s.m
            pooled = refs.adaptive_bh_reject(np.concatenate(s.pvalues), ALPHA)
            bounds = np.cumsum([0, *s.m_per_node])
            self._refs[key] = {
                "no_comm": [refs.adaptive_bh_reject(p, ALPHA) for p in s.pvalues],
                "pooled": [pooled[(pooled >= a) & (pooled < b)] - a
                           for a, b in zip(bounds[:-1], bounds[1:])],
                "cells": [refs.greedy_cells(p, p.size, m, refs.max_spacing_r0(p), self.eps)
                          for p in s.pvalues],
            }
        return self._refs[key]

    def check(self, key, output):
        refs = _refs()
        no_comm, pooled, prop, greedy, text, replay = output
        s, ref = self.samples[key], self._reference(key)
        for res in (no_comm, pooled, prop, greedy):
            _check_metrics(res, s)
        _same_rejections(no_comm.outcomes, ref["no_comm"], "no_comm")
        _same_rejections(pooled.outcomes, ref["pooled"], "pooled_bh")
        ts = no_comm.transcript
        _require((ts.bits_up, ts.bits_down) == (0, 0), "no_comm sent bits")
        ts = pooled.transcript
        _require((ts.bits_up, ts.bits_down) == refs.pooled_bits(self.sizes), "pooled bits")
        ts = prop.transcript
        _require((ts.bits_up, ts.bits_down) == refs.prop_match_bits(self.sizes),
                 "prop_match bits")
        self._check_greedy(greedy, text, replay, ref["cells"], s)

    def _check_greedy(self, greedy, text, replay, cells, sample):
        ts = greedy.transcript
        m = sample.m
        reported = [[] for _ in cells]  # UP counts from round 1 on, per node
        grants = [0] * len(cells)
        for msg in ts.messages:
            if msg.direction == "up" and msg.round >= 1:
                reported[msg.sender].append(msg.payload[0])
            elif msg.direction == "down" and msg.payload == (1,):
                grants[msg.receiver] += 1
        sum_h = 0.0
        expected = []
        for i, (L, ranked) in enumerate(cells):
            counts = [c for c, _ in ranked]
            want = (counts + [-1] * len(reported[i]))[:len(reported[i])]
            _require(reported[i] == want, f"greedy node {i}: UP counts differ from its cells")
            chosen = [cell for _, cell in ranked[:grants[i]]]
            sum_h += sum(c for c, _ in ranked[:grants[i]]) / (self.eps * m)
            p_cells = np.ceil(sample.pvalues[i] / L).astype(np.int64)
            expected.append(np.flatnonzero(np.isin(p_cells, chosen)))
        k = sum(grants)
        _require(k <= ALPHA * sum_h * (1 + 1e-12), f"greedy selected {k} cells, "
                 f"alpha * sum h = {ALPHA * sum_h}")
        _same_rejections(greedy.outcomes, expected, "greedy")
        _same_rejections(replay, expected, "replay")
        _require(ts.rounds <= ALPHA / self.eps + 5, f"greedy used {ts.rounds} rounds")
        _require(ts.serialize() == text, "serialize gave different text on a rerun")


# --- oracle -----------------------------------------------------------------

class Oracle:
    """optimal_region and the three bound calculators for the network of
    every sweep point of experiments 1, 2a, 2b and 2c, plus a one-node
    rare-signal network (r0 = 0.9999, Gaussian mu = 4)."""

    name = "oracle"
    EXPERIMENTS = ("1", "2a", "2b", "2c")
    POWER_TOL = 1e-5
    # fault (a): the fixed grid in level_region misses regions narrower
    # than 1e-4; fault (b): measure_alt_heterogeneity calls alt_pdf at 0
    # when one node's slope crossing is 0 and another's is positive
    KNOWN_FAULTS = frozenset(
        ["rare", "2a@1.5", "2a@1.75", "2a@2"]  # (a)
        + ["2a@0.5"] + [f"2c@{v:g}" for v in (2, 2.5, 3, 3.5, 4, 4.5, 5)]  # (b)
    )

    def __init__(self, sf, seed, out_dir):
        self.sf = sf
        self.networks = []
        for exp in self.EXPERIMENTS:
            cfg = sf.builtin_config(exp)
            for v in cfg.sweep_values:
                self.networks.append((f"{exp}@{v:g}", cfg.instantiate(v)[0]))
        self.networks.append(
            ("rare", sf.NetworkModel([sf.NodeModel(1.0, 0.9999, sf.gaussian_alt(4.0))])))
        self.keys = _round_order(seed, len(self.networks))
        self.known_faults = frozenset(
            k for k, (label, _) in enumerate(self.networks) if label in self.KNOWN_FAULTS)
        self._refs = {}
        # a network on which all four calls complete
        self.probe_keys = [next(k for k in self.keys if k not in self.known_faults)]

    def warm_up(self):
        self.run(self.probe_keys[0])

    def label(self, key):
        return self.networks[key][0]

    def run(self, key):
        sf, net = self.sf, self.networks[key][1]
        regions, fdr, power = sf.optimal_region(net, ALPHA)
        null_bound = sf.fdr_bound_null_heterogeneity(net, ALPHA)
        deltas, lipschitz = sf.measure_alt_heterogeneity(net, ALPHA)
        alt_bounds = sf.alt_heterogeneity_bounds(net, ALPHA, deltas, lipschitz)
        return regions, fdr, power, null_bound, deltas, lipschitz, alt_bounds

    def check(self, key, output):
        refs = _refs()
        regions, fdr, power, null_bound, deltas, lipschitz, alt_bounds = output
        net = self.networks[key][1]
        nodes = [(nd.q, nd.r0, nd.alt.kind, nd.alt.mu) for nd in net.nodes]
        if key not in self._refs:
            self._refs[key] = refs.oracle_optimum(nodes, ALPHA)[2]
        best = self._refs[key]
        _require(fdr <= ALPHA, f"optimal_region FDR {fdr}")
        _require(refs.regions_fdr(nodes, regions) <= ALPHA + 1e-9,
                 "FDR of the returned regions exceeds alpha")
        _require(abs(power - best) <= self.POWER_TOL,
                 f"optimal power {power:.6f}, closed form {best:.6f}")
        floor = sum(q * r0 for q, r0, _, _ in nodes) * ALPHA * (1 - 1e-12)
        _require(null_bound is None or null_bound >= floor, f"null bound {null_bound}")
        d = np.asarray(deltas, dtype=float)
        _require(d.shape == (len(nodes),) and np.all(d >= 0.0) and lipschitz >= 0.0,
                 "heterogeneity measures")
        _require(alt_bounds is None or alt_bounds[0] >= floor, f"alt bound {alt_bounds}")


WORKLOADS = {w.name: w for w in (SweepM3k, ProtocolM300k, Oracle)}

