"""Edge inputs at the protocol layer: one node of each sample is an edge
case, and every protocol, greedy replay and batch selection runs on it
under the spacing and Storey estimators.  Each call runs twice on the same
sample, first filling the one-slot estimate cache and then reading it, and
both runs must agree exactly."""

import numpy as np
import pytest

import starfdr as sf
from starfdr import netsim

ALPHA = 0.2
_NET = sf.NetworkModel([sf.NodeModel(0.5, r0, sf.gaussian_alt(3.0)) for r0 in (0.6, 0.7)])
_BASE = sf.sample_trial(_NET, (300, 200), seed=3)  # nodes 0 and 1 of every case

# node 2 of each case
_EDGE_NODES = {
    "p_zero": np.r_[np.zeros(15), np.linspace(0.05, 1.0, 25)],
    "p_one": np.r_[np.full(15, 1e-4), np.linspace(0.3, 1.0, 21), np.ones(4)],
    "tied": np.full(25, 0.4),
    "m_1": np.array([1e-4]),
    "m_2": np.array([0.8, 1e-4]),
    "empty": np.empty(0),
    "lists": [1e-4, 2e-4, 0.5, 0.9],  # the whole sample is built from lists
}

_ENTRIES = ("no_comm", "pooled_bh", "prop_match", "greedy", "replay", "batch")

# rejections at node 2 for each entry point in _ENTRIES order (batch: node
# 2's selected cells); a node the estimator cannot estimate (fully tied,
# m_i <= 2 for spacing, an estimate of 0 for Storey, empty) rejects nothing
# except through pooled BH, which estimates the pool; so does a node whose
# estimate is 1 under prop-match
_EXPECTED = {
    ("p_zero", "spacing"): (18, 18, 17, 19, 19, 1),
    ("p_zero", "storey"): (18, 18, 16, 19, 19, 1),
    ("p_one", "spacing"): (15, 15, 15, 15, 15, 1),
    ("p_one", "storey"): (15, 15, 15, 15, 15, 1),
    ("tied", "spacing"): (0, 0, 0, 0, 0, 0),
    ("tied", "storey"): (0, 0, 0, 0, 0, 0),
    ("m_1", "spacing"): (0, 1, 0, 0, 0, 0),
    ("m_1", "storey"): (0, 1, 0, 0, 0, 0),
    ("m_2", "spacing"): (0, 1, 0, 0, 0, 0),
    # Storey estimates r0 = 1 here: prop-match gives a node whose count is
    # m_i no level, so it rejects nothing (the matched level of about 1
    # once rejected both p-values, 0.8 too)
    ("m_2", "storey"): (1, 1, 0, 0, 0, 0),
    ("empty", "spacing"): (0, 0, 0, 0, 0, 0),
    ("empty", "storey"): (0, 0, 0, 0, 0, 0),
    ("lists", "spacing"): (2, 2, 2, 0, 0, 0),
    ("lists", "storey"): (2, 2, 2, 0, 0, 0),
}


def _sample(case):
    p = _EDGE_NODES[case]
    labels = np.arange(len(p)) % 2 > 0
    if case == "lists":
        return sf.LabeledSample([x.tolist() for x in _BASE.pvalues] + [p],
                                [x.tolist() for x in _BASE.null_labels] + [labels.tolist()])
    return sf.LabeledSample([*_BASE.pvalues, p], [*_BASE.null_labels, labels])


def _run(entry, s, estimator, greedy_transcript=None):
    """What the entry point gives on s, in a form that compares by value:
    per-node rejections, metrics and the transcript's text, notes and
    termination.  replay replays greedy_transcript."""
    eps = sf.default_epsilon(ALPHA, s.m)
    if entry == "batch":
        return sf.batch_equivalent_selection(s, ALPHA, eps, estimator)
    if entry == "replay":
        replayed = sf.replay_greedy_transcript(greedy_transcript, s, eps, estimator)
        return [o.rejected.tolist() for o in replayed]
    run = {
        "no_comm": lambda: sf.run_no_comm(s, ALPHA, estimator),
        "pooled_bh": lambda: sf.run_pooled_bh(s, ALPHA, estimator),
        "prop_match": lambda: sf.run_proportion_matching(s, ALPHA, estimator),
        "greedy": lambda: sf.run_greedy_aggregation(s, ALPHA, eps, estimator),
    }[entry]
    res = run()
    ts = res.transcript
    return ([o.rejected.tolist() for o in res.outcomes], res.metrics, res.per_node_metrics,
            res.selection, ts.serialize(), ts.notes, ts.termination, ts.rounds)


def _greedy_transcript(s, estimator):
    return sf.run_greedy_aggregation(s, ALPHA, sf.default_epsilon(ALPHA, s.m), estimator).transcript


def _node2_rejections(entry, result):
    if entry == "batch":
        return sum(node == 2 for node, _ in result.cells)
    outcomes = result if entry == "replay" else result[0]
    return len(outcomes[2])


@pytest.mark.parametrize("estimator", ["spacing", "storey"])
@pytest.mark.parametrize("case", list(_EDGE_NODES))
def test_edge_node(case, estimator):
    s = _sample(case)
    ts = _greedy_transcript(s, estimator)
    got = []
    for entry in _ENTRIES:
        netsim._named_estimates.cache_clear()
        first = _run(entry, s, estimator, ts)  # fills the slot
        before = netsim._named_estimates.cache_info()
        again = _run(entry, s, estimator, ts)  # reads it
        after = netsim._named_estimates.cache_info()
        assert again == first, entry
        # the pool never uses the slot; every other entry point reads it once
        hits = 0 if entry == "pooled_bh" else 1
        assert (after.hits - before.hits, after.misses - before.misses) == (hits, 0), entry
        got.append(_node2_rejections(entry, first))
    assert tuple(got) == _EXPECTED[case, estimator]


def test_list_built_sample_runs_as_arrays():
    """A sample built from lists gives exactly what the same values as
    arrays give."""
    s = _sample("lists")
    arrays = sf.LabeledSample([np.asarray(p) for p in s.pvalues],
                              [np.asarray(lab) for lab in s.null_labels])
    ts = _greedy_transcript(s, "spacing")
    for entry in _ENTRIES:
        assert _run(entry, s, "spacing", ts) == _run(entry, arrays, "spacing", ts), entry


def test_zero_and_one_pvalues():
    """p = 0 is rejected by every entry point: BH at any positive level,
    and greedy's first cell is closed at 0.  p = 1 is rejected by none."""
    for case, idx, rejected in (("p_zero", range(15), True), ("p_one", range(36, 40), False)):
        s = _sample(case)
        ts = _greedy_transcript(s, "spacing")
        for entry in _ENTRIES[:5]:
            result = _run(entry, s, "spacing", ts)
            node2 = set((result if entry == "replay" else result[0])[2])
            assert (set(idx) <= node2) if rejected else not (set(idx) & node2), (case, entry)
