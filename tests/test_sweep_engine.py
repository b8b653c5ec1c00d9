"""The batched sweep engine against the per-trial protocol loop it replaced,
the closed-form greedy cost against protocol transcripts, and the failures
that sweeps used to drop silently."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starfdr as sf
from starfdr import estimators, experiments, netsim, procedures

SIM = ("no_comm", "pooled_bh", "prop_match", "greedy")

RUN = {
    "no_comm": lambda s, a, eps, est: sf.run_no_comm(s, a, est),
    "pooled_bh": lambda s, a, eps, est: sf.run_pooled_bh(s, a, est),
    "prop_match": lambda s, a, eps, est: sf.run_proportion_matching(s, a, est, adaptive=True),
    "greedy": lambda s, a, eps, est: sf.run_greedy_aggregation(s, a, eps, est),
}


def _reference_records(config):
    """The per-trial loop: every protocol runs on every trial's sample."""
    rows = []
    for s_idx, v in enumerate(config.sweep_values):
        net, sizes, dep, eps, jitter = config.instantiate(v)
        acc = {mth: [] for mth in config.methods}
        for t in range(config.trials):
            rng = np.random.default_rng(np.random.SeedSequence([config.seed, s_idx, t]))
            s = sf.sample_trial(net, sizes, dep, mean_jitter=jitter, seed=rng)
            for mth in config.methods:
                res = RUN[mth](s, config.alpha, eps, config.estimator)
                ts = res.transcript
                acc[mth].append(
                    (res.metrics.fdp, res.metrics.tdp, ts.bits_up, ts.bits_down, ts.rounds)
                )
        for mth in config.methods:
            data = np.array(acc[mth], dtype=float)
            k = data.shape[0]
            mean = data.mean(axis=0)
            se = data[:, :2].std(axis=0, ddof=1) / math.sqrt(k) if k > 1 else (0.0, 0.0)
            rows.append(sf.ResultRow(
                float(v), mth, mean[0], float(se[0]), mean[1], float(se[1]),
                mean[2], mean[3], mean[4], k,
            ).as_record())
    return rows


def _tiny(**kw):
    base = dict(id="t", sweep="n", sweep_values=(400,), mu_slope=1.25, trials=15, seed=1,
                methods=SIM)
    base.update(kw)
    return sf.ExperimentConfig(**base)


def _builtin(exp_id, values, trials):
    cfg = sf.builtin_config(exp_id, trials=trials, seed=3)
    return dataclasses.replace(cfg, sweep_values=values, methods=SIM)


@pytest.mark.parametrize("config", [
    _builtin("1", (1000,), 15),
    _builtin("1", (100_000,), 2),  # m = 300,000: one trial per block
    _builtin("2a", (0.5, 2.0), 15),
    _builtin("2b", (2, 10), 15),
    _builtin("2c", (2, 5), 15),
    _builtin("3", (0.15, 0.9), 15),  # AR(1)
    _tiny(sweep_values=(3,)),  # sizes [3, 2, 2, 1, 1]: m <= 2 nodes cannot be estimated
    _tiny(estimator="storey"),
    # no p > 1/2 among the 9 p-values on trials 72, 83 and 102: storey gives 0 for the
    # pool and at every node, so prop_match's nodes all send 0 nulls
    _tiny(sweep_values=(3,), estimator="storey", trials=110),
    _tiny(trials=1),
    _tiny(methods=("greedy", "no_comm")),
    # three blocks each: 43 + 43 + 4 trials at m = 3,000, and one trial per block at
    # m = 94,870; the greedy cell counts K differ across the rows of a block
    _builtin("2c", (3,), 90),
    _builtin("3", (0.9,), 90),
    _builtin("1", (31623,), 3),
], ids=["1@1000", "1@100000", "2a", "2b", "2c", "3", "n=3", "storey", "pooled-r0=0", "trials=1",
     "subset", "2c-3-blocks", "3-3-blocks", "1-3-blocks"])
def test_engine_matches_per_trial_loop(config):
    rows = [r.as_record() for r in sf.run_experiment(config)]
    assert rows == _reference_records(config)


def test_multi_block_cases_span_three_blocks():
    for exp, value, trials in (("2c", 3, 90), ("3", 0.9, 90), ("1", 31623, 3)):
        sizes = _builtin(exp, (value,), trials).instantiate(value)[1]
        assert trials > 2 * max(1, experiments.BLOCK_ELEMENTS // int(sizes.sum()))
    # in the first block of 2c@3 (43 trials), node 0's cell count K varies by trial
    cfg = _builtin("2c", (3,), 90)
    net, sizes, dep, eps, jitter = cfg.instantiate(3)
    K = set()
    for t in range(experiments.BLOCK_ELEMENTS // int(sizes.sum())):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, t]))
        p = sf.sample_trial(net, sizes, dep, mean_jitter=jitter, seed=rng).pvalues[0]
        r0 = sf.make_estimator("spacing")(p, 0).value
        K.add(int(sf.build_grid(eps, [sizes[0] / sizes.sum()], [r0]).counts[0]))
    assert len(K) > 1


def test_zero_estimate_prop_match_rejects_nothing():
    # trial 72: all nine p-values are at or below 1/2, so storey estimates 0 at every
    # node; prop_match used to reject all 9 there (V = 6, FDP 0.67)
    cfg = _tiny(sweep_values=(3,), estimator="storey", trials=73, methods=("prop_match",))
    point = cfg.instantiate(3)
    net, sizes, dep, eps, jitter = point
    rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, 72]))
    s = sf.sample_trial(net, sizes, dep, mean_jitter=jitter, seed=rng)
    assert all(sf.storey_estimate(p).value == 0.0 for p in s.pvalues)
    res = sf.run_proportion_matching(s, cfg.alpha, "storey", adaptive=True)
    assert res.metrics.R == 0
    assert sum("estimate of 0" in note for note in res.transcript.notes) == len(sizes)
    engine = experiments._simulate_point(cfg, 0, point, ["prop_match"])["prop_match"]
    assert engine[72, :2].tolist() == [0.0, 0.0]


def test_trial_zero_cross_check(monkeypatch):
    real = experiments.run_no_comm
    monkeypatch.setattr(experiments, "run_no_comm", lambda s, a, est: real(s, a / 4, est))
    with pytest.raises(RuntimeError, match="sweep=400 method=no_comm"):
        sf.run_experiment(_tiny(trials=3))


def test_row_cores_match_single_vector():
    rng = np.random.default_rng(5)
    rows = np.sort(rng.uniform(0, 1, (6, 40)) ** 3, axis=1)
    rows[2] = 0.25  # fully tied row
    levels = np.array([0.2, 0.5, 1.0, np.nan, 0.05, 0.9])
    k = procedures.bh_step_up(rows, levels)
    for r in range(6):
        want = 0 if np.isnan(levels[r]) else sf.bh_procedure(rows[r], levels[r]).k_hat
        assert k[r] == want
    values = estimators.spacing_values(rows, 3)
    assert np.isnan(values[2])
    for r in (0, 1, 3, 4, 5):
        assert values[r] == sf.spacing_estimate(rows[r], 3).value


def _greedy_cost_from_protocol(sample, alpha, eps, est):
    res = sf.run_greedy_aggregation(sample, alpha, eps, est)
    m = sample.m
    K = []
    for i, p in enumerate(sample.pvalues):
        r0 = est(p, i).value
        K.append(int(sf.build_grid(eps, [len(p) / m], [r0]).counts[0]) if len(p) else 0)
    granted = np.bincount([node for node, _ in res.selection.cells], minlength=sample.n_nodes)
    ts = res.transcript
    closed = tuple(int(v) for v in netsim.greedy_cost(sample.m_per_node, K, granted))
    return res, closed, (ts.bits_up, ts.bits_down, ts.rounds)


def _fixed_r0(r0s):
    return lambda _p, i: sf.oracle_estimate(r0s[i])


_TIED = np.full(50, 0.1)  # one cell of 50 p-values, then empty cells


@pytest.mark.parametrize("pvalues, r0s, eps, alpha, rounds, cells", [
    # the second-best cell is empty
    pytest.param([_TIED], [0.5], 0.125, 0.5, 2, ((0, 1),), id="budget_exhausted"),
    # the second-best cell would take the estimate above alpha
    pytest.param([np.r_[_TIED, np.linspace(0.3, 0.99, 50)]], [0.5], 0.125, 0.3, 2, ((0, 1),),
                 id="fdr_exceeded"),
    # even the best cell fails the first test
    pytest.param([np.linspace(0.01, 0.99, 100)], [1.0], 0.1, 0.05, 1, (), id="no_rejections"),
    # node 0: L = 0.42, K = 2, both cells nonempty and granted; node 1: L = 8.4, K = 0
    pytest.param([np.r_[np.full(60, 0.2), np.full(40, 0.6)], np.full(5, 0.5)], [0.5, 0.5],
                 0.2, 0.5, 3, ((0, 1), (0, 2)), id="all_rejected"),
])
def test_greedy_stop_reasons(request, pvalues, r0s, eps, alpha, rounds, cells):
    sample = sf.LabeledSample(pvalues, [np.ones(len(p), dtype=bool) for p in pvalues])
    est = _fixed_r0(r0s)
    res, closed, transcript = _greedy_cost_from_protocol(sample, alpha, eps, est)
    assert res.transcript.termination == request.node.callspec.id
    assert (res.transcript.rounds, res.selection.cells) == (rounds, cells)
    replay = sf.replay_greedy_transcript(res.transcript, sample, eps, est)
    assert [o.rejected.tolist() for o in replay] == [o.rejected.tolist() for o in res.outcomes]
    assert sf.batch_equivalent_selection(sample, alpha, eps, est).cells == cells
    assert closed == transcript


@settings(max_examples=60, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 80), min_size=1, max_size=4),
    r0s=st.lists(st.floats(0.05, 1.0), min_size=4, max_size=4),
    signal=st.floats(0.0, 1.0),
    alpha=st.floats(0.05, 0.9),
    eps=st.floats(0.005, 0.5),
    seed=st.integers(0, 2**16),
)
def test_greedy_cost_matches_transcript(sizes, r0s, signal, alpha, eps, seed):
    if sum(sizes) == 0:
        sizes = [1] + sizes[1:]
    rng = np.random.default_rng(seed)
    pvalues, labels = [], []
    for mi in sizes:
        null = rng.random(mi) >= signal
        pvalues.append(np.where(null, rng.random(mi), rng.random(mi) ** 6))
        labels.append(null)
    sample = sf.LabeledSample(pvalues, labels)
    _, closed, transcript = _greedy_cost_from_protocol(sample, alpha, eps, _fixed_r0(r0s))
    assert closed == transcript


def test_oracle_estimator_sweep():
    cfg = _tiny(trials=3, estimator="oracle")
    rows = {r.method: r for r in sf.run_experiment(cfg)}
    assert set(rows) == set(SIM) and all(r.trials == 3 for r in rows.values())
    net, sizes, dep, eps, jitter = cfg.instantiate(400)
    node_est = sf.make_estimator("oracle", net)
    pooled_est = lambda _p, _i: sf.oracle_estimate(net.r0_star)
    fdp = {mth: [] for mth in ("no_comm", "pooled_bh")}
    for t in range(3):
        rng = np.random.default_rng(np.random.SeedSequence([cfg.seed, 0, t]))
        s = sf.sample_trial(net, sizes, dep, mean_jitter=jitter, seed=rng)
        fdp["no_comm"].append(sf.run_no_comm(s, 0.2, node_est).metrics.fdp)
        fdp["pooled_bh"].append(sf.run_pooled_bh(s, 0.2, pooled_est).metrics.fdp)
    for mth, values in fdp.items():
        assert rows[mth].fdr == pytest.approx(np.mean(values))


def test_rare_signal_regime_is_pinned():
    # exp 2b at mu 2, m = 3,000: five Cauchy nodes whose limit rejects
    # nothing.  The local-BH methods lose FDR control there (prop_match
    # about 3 alpha, no_comm 2.5 alpha), greedy holds alpha; values and
    # standard errors measured at seed 0 and 200 trials
    cfg = dataclasses.replace(sf.builtin_config("2b", trials=200, seed=0),
                              sweep_values=(2,), methods=SIM)
    rows = {r.method: r for r in sf.run_experiment(cfg)}
    for mth, fdr, se in (("prop_match", 0.628, 0.026), ("no_comm", 0.507, 0.028)):
        assert abs(rows[mth].fdr - fdr) <= 4.0 * se
    assert rows["greedy"].fdr <= cfg.alpha


@pytest.mark.parametrize("bad", [dict(alpha=1.5), dict(alpha=0.0), dict(methods=("bh",))])
def test_config_errors_raise_up_front(bad):
    with pytest.raises(ValueError):
        _tiny(**bad)


def test_programming_errors_propagate():
    def typo(p, i):
        raise TypeError("not an estimator failure")

    s = sf.sample_trial(sf.builtin_config("1").instantiate(100)[0], (100, 80, 60, 40, 20))
    with pytest.raises(TypeError):
        sf.run_no_comm(s, 0.2, typo)
    with pytest.raises(TypeError):
        sf.run_pooled_bh(s, 0.2, typo)
    with pytest.raises(TypeError):
        sf.run_experiment(_tiny(trials=2, estimator=typo))


def test_estimator_failures_fall_back_without_dropping_trials():
    def tied_or_spacing(p, i):
        if i == 1:
            raise sf.DegenerateSpacingError("tied")
        return sf.make_estimator("spacing")(p, i)

    cfg = _tiny(trials=4, estimator=tied_or_spacing)
    rows = sf.run_experiment(cfg)
    assert [r.trials for r in rows] == [4] * 4
    assert [r.as_record() for r in rows] == _reference_records(cfg)
