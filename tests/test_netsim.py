import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starfdr as sf
from starfdr import greedy, netsim, procedures

NET2 = sf.NetworkModel([
    sf.NodeModel(0.5, 0.7, sf.gaussian_alt(2.0)),
    sf.NodeModel(0.5, 0.8, sf.gaussian_alt(2.5)),
])


def _trial(net=NET2, sizes=(800, 800), seed=0, jitter=None):
    return sf.sample_trial(net, sizes, seed=seed, mean_jitter=jitter)


class TestNoComm:
    def test_zero_communication(self):
        res = sf.run_no_comm(_trial(), 0.2)
        t = res.transcript
        assert t.bits_up == 0 and t.bits_down == 0 and t.rounds == 0

    def test_single_node_equals_adaptive_bh(self):
        net = sf.NetworkModel([sf.NodeModel(1.0, 0.7, sf.gaussian_alt(2.0))])
        s = _trial(net, (500,), seed=1)
        res = sf.run_no_comm(s, 0.2, "storey")
        direct = sf.adaptive_bh(s.pvalues[0], 0.2, sf.storey_estimate(s.pvalues[0]))
        assert np.array_equal(res.outcomes[0].rejected, direct.rejected)

    def test_estimator_failure_degrades(self):
        def broken(p, i):
            if i == 1:
                raise RuntimeError("boom")
            return sf.oracle_estimate(0.7)

        res = sf.run_no_comm(_trial(), 0.2, broken)
        assert res.outcomes[1].k_hat == 0
        assert any("node 1" in note for note in res.transcript.notes)

    def test_pooling_inequality(self):
        for seed in range(20):
            res = sf.run_no_comm(_trial(seed=seed), 0.2, "storey")
            node_fdps = [m.fdp for m in res.per_node_metrics]
            assert res.metrics.fdp <= max(node_fdps) + 1e-12

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            sf.run_no_comm(sf.LabeledSample([], []), 0.2)

    def test_small_node_is_estimated(self):
        # a 10-p-value node used to fail spacing estimation and reject nothing
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 0.5, sf.gaussian_alt(5.0)),
            sf.NodeModel(0.5, 0.8, sf.gaussian_alt(5.0)),
        ])
        s = sf.sample_trial(net, (10, 10000), seed=1)
        res = sf.run_no_comm(s, 0.2)
        alternatives = np.flatnonzero(~s.null_labels[0])
        assert alternatives.size > 0
        assert np.isin(alternatives, res.outcomes[0].rejected).all()
        assert not any("estimator failed" in note for note in res.transcript.notes)


class TestPooledBH:
    def test_bit_convention(self):
        s = _trial(sizes=(3000, 2000))
        res = sf.run_pooled_bh(s, 0.2)
        assert res.transcript.bits_up == 64 * 5000 == 320000

    def test_single_node_equals_no_comm(self):
        net = sf.NetworkModel([sf.NodeModel(1.0, 0.7, sf.gaussian_alt(2.0))])
        s = _trial(net, (600,), seed=2)
        a = sf.run_pooled_bh(s, 0.2, "storey")
        b = sf.run_no_comm(s, 0.2, "storey")
        assert np.array_equal(a.outcomes[0].rejected, b.outcomes[0].rejected)

    def test_outcome_split_consistent(self):
        s = _trial(seed=3)
        res = sf.run_pooled_bh(s, 0.2)
        total = sum(o.rejected.size for o in res.outcomes)
        assert total == res.metrics.R

    def test_oracle_variant(self):
        s = _trial(seed=4)
        res = sf.run_pooled_bh(s, 0.2, lambda _p, _i: sf.oracle_estimate(NET2.r0_star))
        level = min(0.2 / NET2.r0_star, 1.0)
        direct = sf.bh_procedure(np.concatenate(s.pvalues), level)
        assert res.metrics.R == direct.k_hat


class TestProportionMatching:
    def test_bit_formulas(self):
        net5 = sf.NetworkModel(
            [sf.NodeModel(0.2, 0.7, sf.gaussian_alt(2.0)) for _ in range(5)]
        )
        s = _trial(net5, (1000,) * 5, seed=5)
        res = sf.run_proportion_matching(s, 0.2)
        ups = [m for m in res.transcript.messages if m.direction == netsim.UP]
        assert all(m.bits == 20 for m in ups)  # 2*ceil(log2 1000)
        down = [m for m in res.transcript.messages if m.direction == netsim.BCAST]
        assert len(down) == 1 and down[0].bits == 26  # 2*ceil(log2 5000)
        assert res.transcript.rounds == 1

    def test_single_node_reduces_to_bh(self):
        net = sf.NetworkModel([sf.NodeModel(1.0, 0.7, sf.gaussian_alt(2.0))])
        for seed in range(5):
            s = _trial(net, (997,), seed=seed)
            res = sf.run_proportion_matching(s, 0.2, "storey")
            direct = sf.bh_procedure(s.pvalues[0], 0.2)
            assert np.array_equal(res.outcomes[0].rejected, direct.rejected)

    def test_homogeneous_adaptive_equals_no_comm(self):
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 0.8, sf.gaussian_alt(2.0)),
            sf.NodeModel(0.5, 0.8, sf.gaussian_alt(2.5)),
        ])
        est = lambda p, i: sf.oracle_estimate(0.8)
        s = _trial(net, (1000, 1000), seed=6)
        a = sf.run_proportion_matching(s, 0.2, est, adaptive=True)
        b = sf.run_no_comm(s, 0.2, est)
        for oa, ob in zip(a.outcomes, b.outcomes):
            assert np.array_equal(oa.rejected, ob.rejected)

    def test_all_null_estimates(self):
        est = lambda p, i: sf.oracle_estimate(1.0)
        res = sf.run_proportion_matching(_trial(seed=7), 0.2, est)
        assert res.metrics.R == 0
        assert res.transcript.termination == netsim.TERM_NO_REJECTIONS

    def test_matches_calibration_math(self):
        s = _trial(seed=8)
        est = sf.make_estimator("storey")
        ests = [est(p, i) for i, p in enumerate(s.pvalues)]
        lv = sf.estimate_levels([[e.value for e in ests]], s.m_per_node, 0.2)
        res = sf.run_proportion_matching(s, 0.2, "storey")
        for i, out in enumerate(res.outcomes):
            r0q = min(lv.m0[0, i] / s.m_per_node[i], procedures.R0_STAR_CLAMP)
            level = min(sf.local_alpha(lv.beta[0], r0q), 1.0)
            direct = sf.bh_procedure(s.pvalues[i], level)
            assert np.array_equal(out.rejected, direct.rejected)

    def test_all_null_node_rejects_nothing(self):
        """A node whose Storey estimate rounds to m0 = m_i rejects nothing,
        with a note naming it.  Its matched level was once about 1, which
        took this network's mean FDP at alpha = 0.2 to 0.303."""
        net = sf.NetworkModel([sf.NodeModel(q, r0, sf.gaussian_alt(3.0))
                               for q, r0 in ((0.4, 0.6), (0.4, 0.7), (0.2, 1.0))])
        fdp, noted = [], 0
        for seed in range(300):
            s = sf.sample_trial(net, (1000, 1000, 500), seed=seed)
            res = sf.run_proportion_matching(s, 0.2, "storey")
            fdp.append(res.metrics.fdp)
            if "node 2: estimates every hypothesis null, rejects nothing" in res.transcript.notes:
                noted += 1
                assert res.outcomes[2].k_hat == 0
        assert noted > 0
        assert np.mean(fdp) < 0.2


class TestGreedyAggregation:
    def test_all_empty_cells(self):
        # every p-value above the covered prefix: one round, no rejections
        s = sf.LabeledSample([np.full(50, 0.99)], [np.ones(50, dtype=bool)])
        res = sf.run_greedy_aggregation(s, 0.2, 0.3, lambda p, i: sf.oracle_estimate(0.5))
        assert res.metrics.R == 0
        assert res.transcript.rounds == 1
        assert res.transcript.termination == netsim.TERM_NO_REJECTIONS

    def test_protocol_batch_equivalence(self):
        eps = sf.default_epsilon(0.2, 1600)
        for seed in range(25):
            s = _trial(seed=seed, jitter=0.5)
            res = sf.run_greedy_aggregation(s, 0.2, eps)
            batch = sf.batch_equivalent_selection(s, 0.2, eps)
            assert res.selection.cells == batch.cells
            assert res.selection.fdr_hat == batch.fdr_hat

    def test_round_bound(self):
        eps = sf.default_epsilon(0.2, 1600)
        for seed in range(10):
            res = sf.run_greedy_aggregation(_trial(seed=seed), 0.2, eps)
            assert res.transcript.rounds <= res.selection.m_selected + 1

    def test_mstar_constraint(self):
        eps = sf.default_epsilon(0.2, 1600)
        res = sf.run_greedy_aggregation(_trial(seed=9), 0.2, eps)
        sel = res.selection
        if sel.m_selected:
            assert sel.fdr_hat <= 0.2 + 1e-12

    def test_determinism(self):
        eps = sf.default_epsilon(0.2, 1600)
        a = sf.run_greedy_aggregation(_trial(seed=10), 0.2, eps)
        b = sf.run_greedy_aggregation(_trial(seed=10), 0.2, eps)
        assert a.transcript.serialize() == b.transcript.serialize()

    def test_replay(self):
        eps = sf.default_epsilon(0.2, 1600)
        s = _trial(seed=11)
        res = sf.run_greedy_aggregation(s, 0.2, eps)
        replayed = sf.replay_greedy_transcript(res.transcript, s, eps)
        for a, b in zip(res.outcomes, replayed):
            assert np.array_equal(a.rejected, b.rejected)

    def test_no_post_termination_density_messages(self):
        eps = sf.default_epsilon(0.2, 1600)
        res = sf.run_greedy_aggregation(_trial(seed=12), 0.2, eps)
        last = res.transcript.rounds
        for msg in res.transcript.messages:
            assert msg.round <= last

    def test_bits_are_counts_not_floats(self):
        eps = sf.default_epsilon(0.2, 1600)
        s = _trial(seed=13)
        res = sf.run_greedy_aggregation(s, 0.2, eps)
        count_bits = math.ceil(math.log2(s.m + 1))
        for msg in res.transcript.messages:
            if msg.direction == netsim.UP and msg.round >= 1 and msg.payload != (-1,):
                assert msg.bits == count_bits
                assert 0 <= msg.payload[0] <= s.m

    def test_replay_rejects_mismatched_transcript(self):
        eps = sf.default_epsilon(0.2, 1600)
        s = _trial(seed=11)
        res = sf.run_greedy_aggregation(s, 0.2, eps)
        with pytest.raises(ValueError, match=r"node \d+, round \d+"):
            sf.replay_greedy_transcript(res.transcript, s, 2 * eps)
        with pytest.raises(ValueError, match=r"node \d+, round \d+"):
            sf.replay_greedy_transcript(res.transcript, s, eps, "storey")
        three = _trial(sf.NetworkModel([sf.NodeModel(1 / 3, 0.7, sf.gaussian_alt(2.0))] * 3),
                       (500, 500, 500))
        with pytest.raises(ValueError, match="no node 2"):
            sf.replay_greedy_transcript(sf.run_greedy_aggregation(three, 0.2, eps).transcript,
                                        s, eps)
        grant = netsim.Transcript()
        grant.add(1, netsim.DOWN, netsim.CENTER, 0, (1,), netsim.CONTROL_BITS)
        with pytest.raises(ValueError, match="node 0, round 1: grant to an exhausted node"):
            sf.replay_greedy_transcript(grant, s, 0.6)  # L > 1: node 0 has no cells

    def test_batch_equivalence_with_failed_node(self):
        def est(p, i):
            if i == 1:
                raise ValueError("boom")
            return sf.oracle_estimate(0.7)

        net = sf.NetworkModel([sf.NodeModel(1 / 3, 0.7, sf.gaussian_alt(2.5))] * 3)
        eps = sf.default_epsilon(0.2, 2400)
        for seed in range(5):
            s = _trial(net, (800, 800, 800), seed=seed)
            res = sf.run_greedy_aggregation(s, 0.2, eps, est)
            batch = sf.batch_equivalent_selection(s, 0.2, eps, est)
            assert res.selection.m_selected > 0
            assert res.selection.cells == batch.cells
            assert res.selection.fdr_hat == batch.fdr_hat

    @pytest.mark.parametrize("p, eps, alpha, cells, rejected", [
        # L = 0.3, K = 3: 0.3 is cell 1's right endpoint; 0.95 and p = 1
        # lie in the uncovered tail (0.9, 1]
        ([0.05] * 40 + [0.3, 0.31, 0.95, 1.0], 0.15, 0.2, ((0, 1),), range(41)),
        # L = 0.5, K = 2: K*L = 1, so p = 1 is the right endpoint of cell 2
        ([1.0] * 30 + [0.7, 0.2], 0.25, 0.4, ((0, 2),), range(31)),
        # L = 0.5, K = 2: p = 0 is in cell 1, which is closed at 0
        ([0.0] * 30 + [0.2, 0.7], 0.25, 0.4, ((0, 1),), range(31)),
    ])
    def test_cell_lookup_edges(self, p, eps, alpha, cells, rejected):
        p = np.asarray(p)
        s = sf.LabeledSample([p], [np.ones(p.size, dtype=bool)])
        est = lambda _p, _i: sf.oracle_estimate(0.5)
        res = sf.run_greedy_aggregation(s, alpha, eps, est)
        assert res.selection.cells == cells
        replayed = sf.replay_greedy_transcript(res.transcript, s, eps, est)
        for outcome in (res.outcomes[0], replayed[0]):
            assert np.array_equal(outcome.rejected, np.arange(len(rejected)))

    def test_invalid_args(self):
        with pytest.raises(ValueError):
            sf.run_greedy_aggregation(_trial(), 0.2, 0.0)
        with pytest.raises(ValueError):
            sf.run_greedy_aggregation(_trial(), 1.5, 0.01)


class TestTranscript:
    def test_serialization_format(self):
        res = sf.run_proportion_matching(_trial(seed=14), 0.2)
        text = res.transcript.serialize()
        for line in text.splitlines():
            fields = line.split("\t")
            assert len(fields) == 6
            int(fields[0])  # round
            assert fields[1] in (netsim.UP, netsim.DOWN, netsim.BCAST)
            int(fields[5])  # bits

    def test_totals_consistent(self):
        res = sf.run_greedy_aggregation(_trial(seed=15), 0.2, 0.005)
        t = res.transcript
        assert t.total_bits == t.bits_up + t.bits_down
        assert t.total_bits == sum(m.bits for m in t.messages)


_PROTOCOLS = [
    lambda s, alpha: sf.run_no_comm(s, alpha),
    lambda s, alpha: sf.run_pooled_bh(s, alpha),
    lambda s, alpha: sf.run_proportion_matching(s, alpha, adaptive=True),
    lambda s, alpha: sf.run_greedy_aggregation(s, alpha, sf.default_epsilon(alpha, s.m)),
]


@settings(max_examples=40, deadline=None)
@given(protocol=st.sampled_from(_PROTOCOLS), seed=st.integers(0, 2**32 - 1),
       sizes=st.lists(st.integers(0, 300), min_size=1, max_size=4).filter(any),
       alpha=st.sampled_from([0.05, 0.2, 0.5]))
def test_transcript_text_round_trip(protocol, seed, sizes, alpha):
    net = sf.NetworkModel([sf.NodeModel(1.0 / len(sizes), 0.6, sf.gaussian_alt(3.0))
                           for _ in sizes])
    t = protocol(sf.sample_trial(net, sizes, seed=seed), alpha).transcript
    text = t.serialize()
    parsed = sf.Transcript.parse(text)
    assert parsed.serialize() == text
    assert parsed.messages == t.messages and parsed.rounds == t.rounds


def test_transcript_parse_payloads_and_errors():
    parsed = sf.Transcript.parse("1\tup\t0\t-1\tpvalues,120\t7680\n3\tup\t1\t-1\t-1\t2")
    assert [m.payload for m in parsed.messages] == [("pvalues", 120), (-1,)]
    assert parsed.rounds == 3 and parsed.notes == []
    assert sf.Transcript.parse("").messages == [] and sf.Transcript.parse("").rounds == 0
    with pytest.raises(ValueError, match="line 2"):
        sf.Transcript.parse("0\tup\t0\t-1\t5\t3\n0\tup\t1")


def test_replay_of_a_parsed_greedy_transcript():
    s = _trial(seed=16)
    eps = sf.default_epsilon(0.2, s.m)
    t = sf.run_greedy_aggregation(s, 0.2, eps).transcript
    want = sf.replay_greedy_transcript(t, s, eps)
    got = sf.replay_greedy_transcript(sf.Transcript.parse(t.serialize()), s, eps)
    assert [o.rejected.tolist() for o in got] == [o.rejected.tolist() for o in want]
    assert sum(o.k_hat for o in want) > 0


def test_make_estimator_variants():
    p = np.linspace(0.01, 0.99, 99)
    assert sf.make_estimator("storey")(p, 0).method == "storey"
    assert sf.make_estimator("spacing")(p, 0).method == "spacing"
    assert sf.make_estimator("oracle", NET2)(p, 1).value == 0.8
    with pytest.raises(ValueError):
        sf.make_estimator("oracle")
    with pytest.raises(ValueError):
        sf.make_estimator("magic")


_NET5 = sf.NetworkModel(
    [sf.NodeModel(0.2, r0, sf.gaussian_alt(2.5)) for r0 in (0.6, 0.7, 0.8, 0.9, 0.5)]
)


def _edge_sample():
    """Five nodes: three drawn, one fully tied and one with m = 2, both of
    which the spacing estimator cannot estimate."""
    drawn = sf.sample_trial(_NET5, (400, 300, 200, 0, 0), seed=21)
    p = [*drawn.pvalues[:3], np.full(25, 0.4), np.array([0.3, 0.001])]
    return sf.LabeledSample(p, [np.arange(x.size) % 3 > 0 for x in p])


def _all_zero_storey_sample():
    """Every p-value at or below Storey's lambda, so every Storey estimate,
    the pooled one too, is 0."""
    rng = np.random.default_rng(23)
    p = [rng.uniform(0.0, 0.5, mi) ** 2 for mi in (300, 200, 150, 100, 50)]
    return sf.LabeledSample(p, [np.arange(x.size) % 2 > 0 for x in p])


def _failing(p, i):
    if i == 1:
        raise RuntimeError("boom")
    return sf.storey_estimate(p, 0.3)


_ESTIMATORS = ["spacing", "storey", sf.make_estimator("oracle", _NET5), _failing]


def _composed_estimates(pvalues, estimator, name="node {}"):
    """make_estimator's callable on each unsorted p-value array: the (1, n)
    estimates, NaN where it raised, and the notes a protocol writes.  The
    pool, named "pool", is estimated at node index None."""
    est = sf.make_estimator(estimator)
    r0, failed, zero = [], [], []
    for i, p in enumerate(pvalues):
        try:
            r0.append(est(p, None if name == "pool" else i).value)
        except (ValueError, RuntimeError) as exc:
            r0.append(math.nan)
            failed.append(f"{name.format(i)}: estimator failed: {exc}")
        if r0[-1] == 0.0:
            zero.append(f"{name.format(i)}: an estimate of 0 is treated as failed")
    return np.array([r0]), failed + zero


def _bh_at(p, level):
    if np.isnan(level):
        return procedures.RejectionOutcome(np.empty(0, dtype=int), 0, 0.0)
    return sf.bh_procedure(p, float(level))


def _bits(n):
    return math.ceil(math.log2(n)) if n > 1 else 0


def _assert_same(res, outcomes, text, notes, sample):
    assert [o.rejected.tolist() for o in res.outcomes] == [o.rejected.tolist() for o in outcomes]
    assert (res.metrics, res.per_node_metrics) == sf.confusion_metrics(outcomes, sample)
    assert res.transcript.serialize() == text
    assert res.transcript.notes == notes


@pytest.mark.parametrize("sample", [_edge_sample(), _all_zero_storey_sample()],
                         ids=["edge_nodes", "all_zero_storey"])
@pytest.mark.parametrize("estimator", _ESTIMATORS, ids=["spacing", "storey", "oracle", "callable"])
def test_protocols_equal_estimate_then_bh(sample, estimator):
    """Each protocol equals make_estimator on the unsorted p-values, the
    level from estimate_levels and bh_procedure, written out here."""
    alpha, sizes, m = 0.2, sample.m_per_node, sample.m
    r0, notes = _composed_estimates(sample.pvalues, estimator)

    levels = sf.estimate_levels(r0, sizes, alpha).no_comm[0]
    outcomes = [_bh_at(p, level) for p, level in zip(sample.pvalues, levels)]
    _assert_same(sf.run_no_comm(sample, alpha, estimator), outcomes, "", notes, sample)

    for adaptive in (False, True):
        lv = sf.estimate_levels(r0, sizes, alpha, adaptive)
        outcomes = [_bh_at(p, level) for p, level in zip(sample.pvalues, lv.prop_match[0])]
        ups = [f"1\tup\t{i}\t-1\t{mi},{c}\t{2 * _bits(mi)}"
               for i, (mi, c) in enumerate(zip(sizes, lv.m0[0]))]
        text = "\n".join(ups + [f"1\tbcast\t-1\t-1\t{m},{lv.m0[0].sum()}\t{2 * _bits(m)}"])
        # the network-wide note when every count is m_i, else one per node
        # whose usable estimate rounds to m_i
        if np.isnan(lv.prop_match).all():
            null_notes = ["all nodes estimate every hypothesis null"]
        else:
            null_notes = [f"node {i}: estimates every hypothesis null, rejects nothing"
                          for i in np.flatnonzero(~np.isnan(lv.r0[0]) & (lv.m0[0] == sizes))]
        res = sf.run_proportion_matching(sample, alpha, estimator, adaptive)
        _assert_same(res, outcomes, text, notes + null_notes, sample)

    pool = np.concatenate(sample.pvalues)
    r0, pool_notes = _composed_estimates([pool], estimator, "pool")
    level = sf.estimate_levels(r0, [m], alpha).pooled_bh[0, 0]
    rejected = np.zeros(m, dtype=bool)
    rejected[_bh_at(pool, level).rejected] = True
    ends = np.cumsum(sizes)
    idx = [np.flatnonzero(rejected[e - mi:e]) for mi, e in zip(sizes, ends)]
    outcomes = [procedures.RejectionOutcome(i, i.size, 0.0) for i in idx]
    text = "\n".join(f"1\tup\t{i}\t-1\tpvalues,{mi}\t{64 * mi}" for i, mi in enumerate(sizes))
    _assert_same(sf.run_pooled_bh(sample, alpha, estimator), outcomes, text, pool_notes, sample)

    # greedy, against the same protocol fed those estimates by a callable
    est = sf.make_estimator(estimator)
    results = []
    for i, p in enumerate(sample.pvalues):
        try:
            results.append(est(p, i))
        except (ValueError, RuntimeError) as exc:
            results.append(exc)

    def composed(_p, i):
        if isinstance(results[i], Exception):
            raise results[i]
        return results[i]

    eps = sf.default_epsilon(alpha, m)
    want = sf.run_greedy_aggregation(sample, alpha, eps, composed)
    res = sf.run_greedy_aggregation(sample, alpha, eps, estimator)
    _assert_same(res, want.outcomes, want.transcript.serialize(), want.transcript.notes, sample)
    replayed = sf.replay_greedy_transcript(res.transcript, sample, eps, estimator)
    assert [o.rejected.tolist() for o in replayed] == [o.rejected.tolist() for o in want.outcomes]


def test_protocol_calls_on_a_sample_sort_each_node_once(monkeypatch):
    """Under a named estimator the first protocol call on a sample sorts
    each node once, later calls on it sort nothing, pooled BH sorts its
    pool on every call, and a fresh sample is sorted again.  A sort is a
    call of np.sort (bh_procedure's) or of netsim._sort_in_place, through
    which the protocol layer sorts."""
    netsim._sample_work.cache_clear()
    s, fresh = _edge_sample(), _edge_sample()
    calls = []
    real_sort, real_in_place = np.sort, netsim._sort_in_place
    monkeypatch.setattr(np, "sort", lambda *a, **kw: calls.append(1) or real_sort(*a, **kw))
    monkeypatch.setattr(netsim, "_sort_in_place", lambda a: calls.append(1) or real_in_place(a))
    eps = sf.default_epsilon(0.2, s.m)
    greedy_run = []
    runs = {
        "no_comm": (lambda: sf.run_no_comm(s, 0.2), s.n_nodes),
        "prop_match": (lambda: sf.run_proportion_matching(s, 0.2), 0),
        "pooled_bh": (lambda: sf.run_pooled_bh(s, 0.2), 1),
        "greedy": (lambda: greedy_run.append(sf.run_greedy_aggregation(s, 0.2, eps)), 0),
        "replay": (lambda: sf.replay_greedy_transcript(greedy_run[0].transcript, s, eps), 0),
        "batch": (lambda: sf.batch_equivalent_selection(s, 0.2, eps), 0),
        "fresh_sample": (lambda: sf.run_proportion_matching(fresh, 0.2), fresh.n_nodes),
        # Storey reads each node unsorted, but the slot keeps the ascending
        # copies BH reads: the first Storey call sorts every node, later ones
        # none
        "no_comm_storey": (lambda: sf.run_no_comm(s, 0.2, "storey"), s.n_nodes),
        "prop_match_storey": (lambda: sf.run_proportion_matching(s, 0.2, "storey"), 0),
        "no_comm_storey_again": (lambda: sf.run_no_comm(s, 0.2, "storey"), 0),
        "greedy_storey": (lambda: sf.run_greedy_aggregation(s, 0.2, eps, "storey"), 0),
    }
    for name, (run, sorts) in runs.items():
        calls.clear()
        run()
        assert len(calls) == sorts, name


def test_pooled_storey_sorts_the_pool_in_place():
    """Under Storey, as under spacing, pooled BH sorts its own pool rather
    than a copy of it: on an experiment-1 sample of 300,000 p-values (a
    2.3 MiB pool) the call's peak stays below 1.5 pools."""
    net, sizes, dep, jitter, _ = sf.builtin_config("1").instantiate(100_000)
    s = sf.sample_trial(net, sizes, dep, jitter, seed=0)
    pool_bytes = 8 * s.m
    for estimator in ("storey", "spacing"):
        tracemalloc.start()
        try:
            sf.run_pooled_bh(s, 0.2, estimator)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * pool_bytes, estimator


def test_slot_serves_the_calls_of_one_op():
    """A protocol benchmark op (no_comm, pooled BH, prop-match, greedy and
    its replay on one sample) misses the slot once and hits it three
    times; the next op, on another sample, misses again.  The slot then
    holds the op's estimates and greedy's cells at its epsilon, one entry
    per node.  A callable estimator shares the slot, keyed by identity: its
    first call on the sample misses and replaces the named entry, later
    calls hit, and it sees the same estimates and sorted copies.  The pool
    never uses the slot."""
    netsim._sample_work.cache_clear()
    for seed in (30, 31):
        s = _trial(seed=seed)
        eps = sf.default_epsilon(0.2, s.m)
        before = netsim._sample_work.cache_info()
        sf.run_no_comm(s, 0.2)
        sf.run_pooled_bh(s, 0.2)
        sf.run_proportion_matching(s, 0.2, adaptive=True)
        res = sf.run_greedy_aggregation(s, 0.2, eps)
        sf.replay_greedy_transcript(res.transcript, s, eps)
        after = netsim._sample_work.cache_info()
        assert (after.hits - before.hits, after.misses - before.misses) == (3, 1)
        work = netsim._sample_work(s, "spacing")  # one more hit, to read the slot
        assert work.r0.shape == (1, s.n_nodes) and len(work.sorted_pvalues) == s.n_nodes
        assert work.cells[0] == eps and len(work.cells[1]) == s.n_nodes
    est = sf.make_estimator("spacing")
    before = netsim._sample_work.cache_info()
    sf.run_no_comm(s, 0.2, est)
    sf.run_pooled_bh(s, 0.2, est)
    res = sf.run_greedy_aggregation(s, 0.2, eps, est)
    sf.replay_greedy_transcript(res.transcript, s, eps, est)
    after = netsim._sample_work.cache_info()
    assert (after.hits - before.hits, after.misses - before.misses) == (2, 1)
    slot = netsim._sample_work(s, est)
    assert slot is not work and slot.cells[0] == eps
    np.testing.assert_array_equal(slot.r0, work.r0)
    for mine, named in zip(slot.sorted_pvalues, work.sorted_pvalues):
        np.testing.assert_array_equal(mine, named)


@pytest.mark.parametrize("sample", [_trial(seed=25), _edge_sample()], ids=["trial", "edge_nodes"])
@pytest.mark.parametrize("name", ["spacing", "storey"])
def test_name_equals_its_callable(sample, name):
    """An estimator name and make_estimator's callable for it give the same
    rejections, transcript text, notes and termination on all four
    protocols, and the same greedy replay."""
    est = sf.make_estimator(name)
    eps = sf.default_epsilon(0.2, sample.m)
    runs = [
        lambda e: sf.run_no_comm(sample, 0.2, e),
        lambda e: sf.run_pooled_bh(sample, 0.2, e),
        lambda e: sf.run_proportion_matching(sample, 0.2, e, adaptive=True),
        lambda e: sf.run_greedy_aggregation(sample, 0.2, eps, e),
    ]
    for run in runs:
        want, got = run(name), run(est)
        _assert_same(got, want.outcomes, want.transcript.serialize(), want.transcript.notes,
                     sample)
        assert got.transcript.termination == want.transcript.termination
    replays = [sf.replay_greedy_transcript(want.transcript, sample, eps, e) for e in (name, est)]
    assert [o.rejected.tolist() for o in replays[0]] == [o.rejected.tolist() for o in replays[1]]


@pytest.mark.parametrize("epsilon", [math.nan, math.inf])
def test_greedy_rejects_nan_and_inf_epsilon(epsilon):
    """A NaN epsilon would reject nothing without a word, and an infinite
    one would give no node any cells: every greedy entry point raises."""
    s = _trial(seed=26)
    ts = sf.run_greedy_aggregation(s, 0.2, sf.default_epsilon(0.2, s.m)).transcript
    for run in (lambda: sf.run_greedy_aggregation(s, 0.2, epsilon),
                lambda: sf.replay_greedy_transcript(ts, s, epsilon),
                lambda: sf.batch_equivalent_selection(s, 0.2, epsilon)):
        with pytest.raises(ValueError, match="epsilon must be positive and finite"):
            run()


def test_subnormal_alpha_rejects_nothing():
    """At the smallest subnormal alpha, prop-match's slope overflows and
    its levels are 0: the protocols reject nothing instead of raising."""
    s = _trial(seed=27)
    for run in (sf.run_no_comm, sf.run_proportion_matching,
                lambda s, a: sf.run_proportion_matching(s, a, adaptive=True)):
        assert run(s, 5e-324).metrics.R == 0


def _count_binning(monkeypatch):
    """A list that gains an item on every greedy.row_cells call."""
    calls = []
    real = greedy.row_cells
    monkeypatch.setattr(greedy, "row_cells", lambda *a: calls.append(1) or real(*a))
    return calls


def test_greedy_bins_each_node_once_for_its_replay_and_batch(monkeypatch):
    """A greedy run bins each node with cells once; its replay and batch
    selection on the same sample and epsilon bin nothing.  A new epsilon,
    a new sample or a new callable estimator (each make_estimator call
    makes one) bins again, and the cached cell arrays are read-only."""
    netsim._sample_work.cache_clear()
    s, other = _edge_sample(), _edge_sample()
    eps = sf.default_epsilon(0.2, s.m)
    K = greedy.estimate_grid(eps, s.m_per_node, netsim._sample_work(s, "spacing").r0[0]).counts
    with_cells = np.count_nonzero(K)
    assert 0 < with_cells < s.n_nodes  # the tied and m = 2 nodes have no cells
    calls = _count_binning(monkeypatch)
    res = sf.run_greedy_aggregation(s, 0.2, eps)
    assert len(calls) == with_cells
    j = netsim._sample_work(s, "spacing").cells[1][0][0]
    with pytest.raises(ValueError, match="read-only"):
        j[0] = 0
    calls.clear()
    sf.replay_greedy_transcript(res.transcript, s, eps)
    sf.batch_equivalent_selection(s, 0.2, eps)
    sf.run_greedy_aggregation(s, 0.2, eps)
    assert calls == []
    for run in (lambda: sf.run_greedy_aggregation(s, 0.2, eps / 2),
                lambda: sf.run_greedy_aggregation(other, 0.2, eps),
                lambda: sf.run_greedy_aggregation(s, 0.2, eps, sf.make_estimator("spacing")),
                lambda: sf.run_greedy_aggregation(s, 0.2, eps, sf.make_estimator("spacing"))):
        calls.clear()
        run()
        assert len(calls) == with_cells


def test_callable_estimator_gets_ascending_copies():
    """A callable estimator gets each node's read-only ascending copy, a
    view of the one BH reads from the slot, in the first protocol call on
    the sample; later calls read the slot and do not call it.  Pooled BH
    gives it the pool, sorted in place, at node index None, on every call."""
    netsim._sample_work.cache_clear()
    s = _trial(seed=24)
    seen = {}

    def est(p, i):
        seen[i] = p
        return sf.storey_estimate(p)

    eps = sf.default_epsilon(0.2, s.m)
    sf.run_no_comm(s, 0.2, est)
    assert seen.keys() == {0, 1}
    work = netsim._sample_work(s, est)
    for i, p in enumerate(s.pvalues):
        np.testing.assert_array_equal(seen[i], np.sort(p))
        assert np.shares_memory(seen[i], work.sorted_pvalues[i]) and not seen[i].flags.writeable
    seen.clear()
    sf.run_proportion_matching(s, 0.2, est)
    sf.run_greedy_aggregation(s, 0.2, eps, est)
    assert seen == {}
    for _ in range(2):
        sf.run_pooled_bh(s, 0.2, est)
        np.testing.assert_array_equal(seen.pop(None), np.sort(np.concatenate(s.pvalues)))


@pytest.mark.parametrize("sample", [_edge_sample(), _all_zero_storey_sample()],
                         ids=["edge_nodes", "all_zero_storey"])
@pytest.mark.parametrize("estimator", _ESTIMATORS, ids=["spacing", "storey", "oracle", "callable"])
def test_batch_selection_bins_once(sample, estimator, monkeypatch):
    """batch_equivalent_selection returns the protocol's IntervalSelection.
    After the run it bins nothing, under a callable estimator as under a
    named one: the slot keeps the run's cells."""
    eps = sf.default_epsilon(0.2, sample.m)
    want = sf.run_greedy_aggregation(sample, 0.2, eps, estimator).selection
    r0 = netsim._node_work(sample, estimator, netsim.Transcript()).r0[0]
    grid = greedy.estimate_grid(eps, sample.m_per_node, r0)
    calls = _count_binning(monkeypatch)
    assert sf.batch_equivalent_selection(sample, 0.2, eps, estimator) == want
    assert calls == []
    # against the batch selector on densities binned afresh
    dens = [sf.CellDensity(i, cell, c / (eps * sample.m))
            for i, (p, L, K) in enumerate(zip(sample.pvalues, grid.lengths, grid.counts)) if K
            for cell, c in enumerate(greedy.node_cells(p, L, K)[1].tolist(), start=1)]
    assert sf.greedy_select(dens, 0.2) == want


def test_pooled_oracle_estimates_the_pool_at_r0_star():
    """make_estimator("oracle", net) answers r0* for the pool (node index
    None), so pooled BH runs at alpha / r0*, as the engine's pooled oracle
    does; it used to estimate the pool as node 0 (r0 = 0.5 on experiment 1,
    1,108 rejections on this sample, against 990 at r0* = 0.633)."""
    net, sizes, dep, _, jitter = sf.builtin_config("1").instantiate(1000)
    s = sf.sample_trial(net, sizes, dep, jitter, seed=3)
    est = sf.make_estimator("oracle", net)
    assert est(s.pvalues[0], None).value == net.r0_star
    res = sf.run_pooled_bh(s, 0.2, est)
    want = sf.bh_procedure(np.concatenate(s.pvalues), 0.2 / net.r0_star)
    assert res.metrics.R == want.k_hat == 990


@dataclasses.dataclass
class _Unhashable:
    """A callable estimator whose instances do not hash (eq without frozen)."""

    r0: float

    def __call__(self, p, i):
        return sf.oracle_estimate(self.r0)


def test_unhashable_estimator_raises_one_type_error():
    """Every protocol, the replay, batch selection and the engine reject an
    unhashable callable estimator with make_estimator's TypeError, before
    any slot is keyed by it; pooled BH, which has no slot, too."""
    netsim._sample_work.cache_clear()
    s = _trial(seed=26)
    est, eps = _Unhashable(0.7), sf.default_epsilon(0.2, s.m)
    transcript = sf.run_greedy_aggregation(s, 0.2, eps).transcript
    calls = {
        "no_comm": lambda: sf.run_no_comm(s, 0.2, est),
        "pooled_bh": lambda: sf.run_pooled_bh(s, 0.2, est),
        "prop_match": lambda: sf.run_proportion_matching(s, 0.2, est),
        "greedy": lambda: sf.run_greedy_aggregation(s, 0.2, eps, est),
        "replay": lambda: sf.replay_greedy_transcript(transcript, s, eps, est),
        "batch": lambda: sf.batch_equivalent_selection(s, 0.2, eps, est),
        "make_estimator": lambda: sf.make_estimator(est),
    }
    for name, call in calls.items():
        with pytest.raises(TypeError, match="is unhashable: the protocols key their sample slot"):
            call()
    cfg = dataclasses.replace(sf.builtin_config("1", trials=2), sweep_values=(100,),
                              estimator=est)
    with pytest.raises(TypeError, match="is unhashable"):
        sf.run_experiment(cfg)
