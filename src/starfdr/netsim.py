"""Deterministic star-network protocol simulation with exact bit accounting.

Four protocols: local BH with no communication, pooled BH (p-value
shipping), one-shot proportion matching, and the round-based greedy
interval aggregation.  Every run produces a Transcript whose messages and
bit sizes are exactly reproducible.
"""

from __future__ import annotations

import functools
import math
import re
from dataclasses import dataclass, field

import numpy as np

from .distmodel import LabeledSample
from .estimators import (
    DegenerateSpacingError,
    default_spacing_schedule,
    oracle_estimate,
    spacing_estimate,
    spacing_values,
    storey_estimate,
)
from .greedy import (
    CellDensity,
    IntervalSelection,
    estimate_grid,
    greedy_select,
    node_cells,
)
from .procedures import (
    ConfusionMetrics,
    RejectionOutcome,
    _empty_outcome,
    bh_procedure,
    bh_threshold,
    confusion_metrics,
    estimate_levels,
    usable_estimates,
)

CENTER = -1

UP = "up"  # node -> center
DOWN = "down"  # center -> node
BCAST = "bcast"  # center -> broadcast

TERM_COMPLETE = "complete"
TERM_NO_REJECTIONS = "no_rejections"
TERM_FDR_EXCEEDED = "fdr_exceeded"
TERM_ALL_REJECTED = "all_rejected"
TERM_BUDGET_EXHAUSTED = "budget_exhausted"

# what an estimator raises when it cannot estimate a sample, so that the node
# falls back instead (ValueError covers DegenerateSpacingError); any other
# exception is a programming error and propagates
ESTIMATOR_FAILURES = (ValueError, RuntimeError)

CONTROL_BITS = 2  # encodes the {1, 0, -1} control alphabet
PVALUE_BITS = 64  # reporting convention for shipping one real p-value


_INT_TOKEN = re.compile(r"-?[0-9]+")  # what str gives for an int


def _bits_for_count(n: int) -> int:
    """ceil(log2(n)) for a positive integer payload range."""
    return max(0, math.ceil(math.log2(n))) if n > 1 else 0


@dataclass(frozen=True)
class Message:
    round: int
    direction: str
    sender: int
    receiver: int
    payload: tuple
    bits: int

    def serialize(self) -> str:
        payload = ",".join(str(v) for v in self.payload)
        return f"{self.round}\t{self.direction}\t{self.sender}\t{self.receiver}\t{payload}\t{self.bits}"


@dataclass
class Transcript:
    messages: list = field(default_factory=list)
    rounds: int = 0
    termination: str = TERM_COMPLETE
    notes: list = field(default_factory=list)

    def add(self, round_, direction, sender, receiver, payload, bits):
        self.messages.append(Message(round_, direction, sender, receiver, tuple(payload), bits))

    @property
    def bits_up(self) -> int:
        return sum(msg.bits for msg in self.messages if msg.direction == UP)

    @property
    def bits_down(self) -> int:
        return sum(msg.bits for msg in self.messages if msg.direction != UP)

    @property
    def total_bits(self) -> int:
        return sum(msg.bits for msg in self.messages)

    def serialize(self) -> str:
        return "\n".join(msg.serialize() for msg in self.messages)

    @classmethod
    def parse(cls, text: str) -> Transcript:
        """The inverse of serialize: one message per line.  A payload token
        that is an integer literal becomes an int, and any other stays a
        string (pooled BH's "pvalues").  rounds is the last message's
        round, 0 for empty text.  termination and notes are not in the
        text, so they keep their defaults.  Raises ValueError on a line
        without the six tab-separated fields."""
        transcript = cls()
        for k, line in enumerate(text.split("\n") if text else [], 1):
            fields = line.split("\t")
            if len(fields) != 6:
                raise ValueError(f"line {k}: {len(fields)} tab-separated fields, not 6")
            round_, direction, sender, receiver, payload, bits = fields
            values = [int(v) if _INT_TOKEN.fullmatch(v) else v for v in payload.split(",")]
            transcript.add(int(round_), direction, int(sender), int(receiver),
                           values if payload else (), int(bits))
        if transcript.messages:
            transcript.rounds = transcript.messages[-1].round
        return transcript


@dataclass
class ProtocolResult:
    outcomes: list  # per-node RejectionOutcome
    metrics: ConfusionMetrics
    per_node_metrics: list
    transcript: Transcript
    selection: IntervalSelection | None = None  # greedy runs only


def make_estimator(choice, net=None):
    """Resolve an estimator spec into a callable (pvalues, i), where i is
    the index of the node whose p-values these are, or None for the pool.

    choice is "spacing", "storey", "oracle" (needs net: a node's true r0,
    and r0* for the pool), or already a callable, which must be hashable
    (every function, lambda and functools.partial is): the protocols key
    their sample slot by it, so an unhashable one raises TypeError here.
    """
    if callable(choice):
        try:
            hash(choice)
        except TypeError:
            raise TypeError(f"estimator {choice!r} is unhashable: the protocols key their "
                            "sample slot by the estimator, so a callable one must hash, "
                            "as a function or a frozen dataclass does") from None
        return choice
    if choice == "spacing":
        def est(p, _i):
            return spacing_estimate(p, default_spacing_schedule(len(p)))
        return est
    if choice == "storey":
        return lambda p, _i: storey_estimate(p)
    if choice == "oracle":
        if net is None:
            raise ValueError("oracle estimator needs the generative network model")
        return lambda _p, i: oracle_estimate(net.r0_star if i is None else net.nodes[i].r0)
    raise ValueError(f"unknown estimator choice {choice!r}")


def row_estimates(choice, est, sorted_rows, i):
    """Node i's null-proportion estimate on each row (trial) of its (t, m_i)
    p-values sorted ascending (i is None for the pool), NaN where the
    estimator failed, and what it raised there: (values, {row: exception}).
    est is make_estimator's callable for choice.  "spacing" reads the rows
    at once through spacing_values; any other estimator gets each sorted
    row in turn (the Storey and oracle values do not depend on the order)."""
    if choice == "spacing":
        try:
            values = spacing_values(sorted_rows, default_spacing_schedule(sorted_rows.shape[1]))
        except ValueError as exc:  # too few p-values for the schedule
            return np.full(len(sorted_rows), np.nan), dict.fromkeys(range(len(sorted_rows)), exc)
        tied = np.flatnonzero(np.isnan(values)).tolist()
        return values, {r: DegenerateSpacingError() for r in tied}
    values, failures = np.full(len(sorted_rows), np.nan), {}
    for r, p in enumerate(sorted_rows):
        try:
            values[r] = est(p, i).value
        except ESTIMATOR_FAILURES as exc:  # a failed node must not abort the network
            failures[r] = exc
    return values, failures


def _sort_in_place(a: np.ndarray) -> np.ndarray:
    """a sorted ascending in place, and returned.  Every sort of this
    module goes through here: a caller that needs the original order sorts
    a copy."""
    a.sort()
    return a


@dataclass
class _NodeWork:
    """What protocol calls on one sample and estimator share: the (1, n)
    row estimate_levels takes, NaN for a failed or zero estimate; the
    ascending copies of the nodes' p-values, which every estimator and BH
    read; the transcript notes of the estimates; and greedy's cells at the
    last epsilon asked for, as (epsilon, cells) with cells as from
    _greedy_cells, or None before any.  Arrays are read-only and notes a
    tuple, so that one value can serve several calls."""

    r0: np.ndarray
    sorted_pvalues: tuple
    notes: tuple
    cells: tuple | None = None


def _estimates(sorted_pvalues, estimator, pool=False) -> _NodeWork:
    """row_estimates of each node's ascending p-values, made read-only
    first, with a note for each failed or zero estimate, under "node i";
    with pool=True the one array is the pool, estimated at index None and
    noted under "pool"."""
    est = make_estimator(estimator)
    r0 = np.full((1, len(sorted_pvalues)), np.nan)
    name = "pool" if pool else "node {}"
    notes = []
    for i, srt in enumerate(sorted_pvalues):
        srt.flags.writeable = False
        r0[:, i], failures = row_estimates(estimator, est, srt[None], None if pool else i)
        notes += [f"{name.format(i)}: estimator failed: {exc}" for exc in failures.values()]
    usable = usable_estimates(r0)
    for i in np.flatnonzero(np.isnan(usable[0]) & ~np.isnan(r0[0])):
        notes.append(f"{name.format(i)}: an estimate of 0 is treated as failed")
    usable.flags.writeable = False
    return _NodeWork(usable, tuple(sorted_pvalues), tuple(notes))


@functools.lru_cache(maxsize=1)
def _sample_work(sample: LabeledSample, estimator) -> _NodeWork:
    """_estimates of sample's nodes, each node sorted once, kept for the
    next call.  The estimator is a name or a callable, keyed by identity.
    One slot: successive protocol calls on one sample (a run and its
    replay, or each protocol in turn) share it, only the last sample's
    sorted copies and cells stay in memory, and the sample, immutable and
    keyed by identity, cannot change under it."""
    return _estimates([_sort_in_place(p.copy()) for p in sample.pvalues], estimator)


def _node_work(sample: LabeledSample, estimator, transcript: Transcript) -> _NodeWork:
    """The _NodeWork of sample under estimator, from the slot of
    _sample_work, its notes added to transcript.  The spec is resolved
    first, so an unhashable callable raises make_estimator's TypeError
    before the slot is keyed by it."""
    make_estimator(estimator)
    work = _sample_work(sample, estimator)
    transcript.notes.extend(work.notes)
    return work


def _local_bh(pvalues, sorted_pvalues, levels) -> list:
    """Per-node outcomes of BH at each node's level on the slot's sorted
    copies.  A NaN level rejects nothing, and so does a level of 0, which a
    subnormal alpha gives prop-match when its slope overflows."""
    return [bh_procedure(p, level, srt) if level > 0.0 else _empty_outcome()
            for p, srt, level in zip(pvalues, sorted_pvalues, levels)]


def _finish(outcomes, sample, transcript) -> ProtocolResult:
    glob, per_node = confusion_metrics(outcomes, sample)
    if transcript.termination == TERM_COMPLETE and glob.R == 0:
        transcript.termination = TERM_NO_REJECTIONS
    return ProtocolResult(outcomes, glob, per_node, transcript)


def run_no_comm(sample: LabeledSample, alpha: float, estimator="spacing") -> ProtocolResult:
    """Each node runs adaptive BH at alpha / r0_hat; zero communication."""
    if sample.m == 0:
        raise ValueError("sample is empty")
    transcript = Transcript()
    work = _node_work(sample, estimator, transcript)
    levels = estimate_levels(work.r0, sample.m_per_node, alpha).no_comm[0]
    return _finish(_local_bh(sample.pvalues, work.sorted_pvalues, levels), sample, transcript)


def run_pooled_bh(sample: LabeledSample, alpha: float, estimator="spacing") -> ProtocolResult:
    """Centralized baseline: ship all p-values, adaptive BH on the pool.

    Bit accounting uses the 64-bits-per-p-value shipping convention; this
    is a reporting choice for comparison plots.  A failed or zero pooled
    estimate falls back to r0 = 1, with a transcript note.
    """
    if sample.m == 0:
        raise ValueError("sample is empty")
    transcript = Transcript(rounds=1)
    for i, mi in enumerate(sample.m_per_node):
        transcript.add(1, UP, i, CENTER, ("pvalues", int(mi)), PVALUE_BITS * int(mi))
    # the pool is this call's own array, so it is sorted in place
    srt = _sort_in_place(np.concatenate(sample.pvalues))
    work = _estimates([srt], estimator, pool=True)
    transcript.notes.extend(work.notes)
    level = estimate_levels(work.r0, [sample.m], alpha).pooled_bh[0]
    k, tau = bh_threshold(srt[None], level)
    idx = [np.flatnonzero(p <= tau[0]) for p in sample.pvalues]  # none where tau = -inf
    tau = float(tau[0]) if k[0] else 0.0
    return _finish([RejectionOutcome(i, int(i.size), tau) for i in idx], sample, transcript)


def run_proportion_matching(
    sample: LabeledSample, alpha: float, estimator="spacing", adaptive: bool = False
) -> ProtocolResult:
    """One-shot calibration protocol.

    Each node sends (m_i, rounded null count) in 2*ceil(log2(m_i)) bits;
    the center broadcasts (m, summed null count) in 2*ceil(log2(m)) bits;
    each node recomputes the shared slope and runs BH at its matched local
    size.  With adaptive=True the target level is scaled to
    alpha / r0_star_hat (the configuration used in the experiment sweeps).
    A node whose estimate fails or is 0 sends m0 = m_i and rejects nothing,
    with a transcript note; so does a node whose estimate rounds to
    m0 = m_i, since an all-null node has no matched threshold.
    """
    if sample.m == 0:
        raise ValueError("sample is empty")
    transcript = Transcript(rounds=1)
    work = _node_work(sample, estimator, transcript)
    levels = estimate_levels(work.r0, sample.m_per_node, alpha, adaptive)
    m0 = levels.m0[0].tolist()
    for i, mi in enumerate(sample.m_per_node):
        transcript.add(1, UP, i, CENTER, (int(mi), m0[i]), 2 * _bits_for_count(int(mi)))
    transcript.add(1, BCAST, CENTER, CENTER, (sample.m, sum(m0)), 2 * _bits_for_count(sample.m))
    if np.isnan(levels.prop_match).all():  # the counts sum to m: no signal anywhere
        transcript.notes.append("all nodes estimate every hypothesis null")
    else:
        for i in np.flatnonzero(~np.isnan(levels.r0[0]) & (levels.m0[0] == sample.m_per_node)):
            transcript.notes.append(f"node {i}: estimates every hypothesis null, rejects nothing")
    return _finish(_local_bh(sample.pvalues, work.sorted_pvalues, levels.prop_match[0]),
                   sample, transcript)


def _greedy_cells(sample: LabeledSample, epsilon: float, work: _NodeWork):
    """Per node, what it reports on the protocol's estimate_grid from the
    estimates in work: (j, cells, counts) with each p-value's cell j from
    node_cells (a read-only array; None for a node without cells, which
    has nothing to bin), the cells 1..K in rank order, and their counts in
    that order followed by the -1 an exhausted node reports.  Kept in
    work.cells for the next call at the same epsilon, so that a run, its
    replay and batch selection bin each node once."""
    if work.cells is not None and work.cells[0] == epsilon:
        return work.cells[1]
    grid = estimate_grid(epsilon, sample.m_per_node, work.r0[0])
    nodes = []
    for p, L, K in zip(sample.pvalues, grid.lengths.tolist(), grid.counts.tolist()):
        if K == 0:
            nodes.append((None, (), (-1,)))
            continue
        j, counts, ranking = node_cells(p, L, K)
        j.flags.writeable = False
        nodes.append((j, tuple(ranking.tolist()), tuple(counts[ranking - 1].tolist()) + (-1,)))
    work.cells = (epsilon, tuple(nodes))
    return work.cells[1]


def run_greedy_aggregation(
    sample: LabeledSample,
    alpha: float,
    epsilon: float,
    estimator="spacing",
) -> ProtocolResult:
    """Round-based interval aggregation.

    Setup: nodes report sizes, the center broadcasts the total (needed for
    the density scale and per-node weights).  Round 1: every node sends
    its best cell count; afterwards only the previous winner updates.
    Density messages carry raw cell counts in ceil(log2(m+1)) bits;
    control signals (1/0/-1) cost 2 bits.  The center stops when the
    running rejection-rate estimate would exceed alpha, when only empty
    cells remain, or when all nodes are exhausted.
    """
    if sample.m == 0:
        raise ValueError("sample is empty")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")

    transcript = Transcript()
    m = sample.m
    n = sample.n_nodes
    count_bits = _bits_for_count(m + 1)

    # setup exchange: sizes up, total broadcast down (round 0)
    for i, mi in enumerate(sample.m_per_node):
        transcript.add(0, UP, i, CENTER, (int(mi),), _bits_for_count(int(mi) + 1))
    transcript.add(0, BCAST, CENTER, CENTER, (m,), count_bits)

    nodes = _greedy_cells(sample, epsilon, _node_work(sample, estimator, transcript))
    cursor = [0] * n  # rank of the cell each node hands out next
    scale = epsilon * m
    selected = []  # (node, cell) in selection order
    sum_h = 0.0  # running density total, accumulated in selection order
    latest = [-1] * n  # last reported count per node; -1 = exhausted
    rounds = 0

    while True:
        rounds += 1
        # round 1: every node reports; afterwards only the previous winner
        for i in range(n) if rounds == 1 else (selected[-1][0],):
            latest[i] = nodes[i][2][cursor[i]]
            bits = CONTROL_BITS if latest[i] < 0 else count_bits
            transcript.add(rounds, UP, i, CENTER, (latest[i],), bits)
        best = max(latest)
        winner = latest.index(best)  # ties go to the lowest node
        if best < 0:
            transcript.termination = TERM_ALL_REJECTED
            break
        if best == 0:
            transcript.termination = TERM_BUDGET_EXHAUSTED
            break
        # same float expression as the batch selector: k <= alpha * sum(h)
        if not len(selected) + 1 <= alpha * (sum_h + best / scale):
            transcript.termination = TERM_FDR_EXCEEDED
            break
        transcript.add(rounds, DOWN, CENTER, winner, (1,), CONTROL_BITS)
        if rounds == 1:
            for i in range(n):
                if i != winner:
                    transcript.add(1, DOWN, CENTER, i, (0,), CONTROL_BITS)
        selected.append((winner, nodes[winner][1][cursor[winner]]))
        cursor[winner] += 1
        sum_h = sum_h + best / scale
    if not selected:
        transcript.termination = TERM_NO_REJECTIONS

    transcript.add(rounds, BCAST, CENTER, CENTER, (0,), CONTROL_BITS)
    transcript.rounds = rounds

    selection = IntervalSelection(
        tuple(selected), len(selected), len(selected) / sum_h if selected else 0.0
    )
    outcomes = _cells_to_outcomes(selected, nodes)
    glob, per_node = confusion_metrics(outcomes, sample)
    return ProtocolResult(outcomes, glob, per_node, transcript, selection)


def greedy_cost(m_per_node, cells_per_node, granted):
    """(bits_up, bits_down, rounds) of greedy runs, from the message schedule.

    cells_per_node holds each node's cell count K (0 for a node without
    cells) and granted how many of its cells the center granted; both are
    (..., n) arrays, one row per run.  Setup sends every size up and the
    total down.  In round 1 each node reports a count, or the 2-bit
    exhausted signal when it has no cells.  Each grant costs a 2-bit signal
    down (the first, in round 1, also sends 0 to the other n-1 nodes) and
    one update from the winner in the next round: a count, or the exhausted
    signal after its last cell.  A final 2-bit broadcast ends the run, so
    rounds = grants + 1.
    """
    count_bits = _bits_for_count(int(sum(m_per_node)) + 1)
    K, g = np.asarray(cells_per_node), np.asarray(granted)
    grants = g.sum(axis=-1)
    exhausted = np.count_nonzero((K > 0) & (g == K), axis=-1)
    bits_up = (
        sum(_bits_for_count(int(mi) + 1) for mi in m_per_node)
        + np.where(K > 0, count_bits, CONTROL_BITS).sum(axis=-1)
        + grants * count_bits - exhausted * (count_bits - CONTROL_BITS)
    )
    zeros = np.where(grants > 0, len(m_per_node) - 1, 0)
    bits_down = count_bits + CONTROL_BITS * (grants + zeros + 1)
    return bits_up, bits_down, grants + 1


def _cells_to_outcomes(selected, nodes):
    """Per-node outcomes that reject every p-value in a selected cell, with
    nodes as from _greedy_cells."""
    picked = [[] for _ in nodes]
    for i, cell in selected:
        picked[i].append(cell)
    outcomes = []
    for (j, cells, _), chosen in zip(nodes, picked):
        if not chosen:
            outcomes.append(_empty_outcome())
            continue
        table = np.zeros(len(cells) + 2, dtype=bool)  # cells 0..K+1, as j runs
        table[chosen] = True
        idx = np.flatnonzero(table[j])
        outcomes.append(RejectionOutcome(idx, int(idx.size), 0.0))
    return outcomes


def replay_greedy_transcript(
    transcript: Transcript,
    sample: LabeledSample,
    epsilon: float,
    estimator="spacing",
):
    """Re-apply a greedy transcript's center decisions to the same sample.

    The per-node cell rankings are those the run used, read from the
    slot.  Every UP message from round 1 on must carry the count the node
    reports next (-1 once exhausted), and each center->node grant rejects
    that node's next-best cell.  Raises ValueError, naming the node and
    round, on the first message the sample, epsilon and estimator do not
    reproduce.  Returns the per-node RejectionOutcome list.
    """
    nodes = _greedy_cells(sample, epsilon, _node_work(sample, estimator, Transcript()))
    cursor = [0] * len(nodes)
    selected = []
    for msg in transcript.messages:
        i = msg.sender if msg.direction == UP else msg.receiver
        if msg.direction != BCAST and not 0 <= i < len(nodes):
            raise ValueError(f"round {msg.round}: the sample has no node {i}")
        if msg.direction == UP and msg.round >= 1:
            want = nodes[i][2][cursor[i]]
            if msg.payload != (want,):
                raise ValueError(
                    f"node {i}, round {msg.round}: transcript reports "
                    f"{msg.payload}, the sample gives {(want,)}"
                )
        elif msg.direction == DOWN and msg.payload == (1,):
            if nodes[i][2][cursor[i]] < 0:
                raise ValueError(f"node {i}, round {msg.round}: grant to an exhausted node")
            selected.append((i, nodes[i][1][cursor[i]]))
            cursor[i] += 1
    return _cells_to_outcomes(selected, nodes)


def batch_equivalent_selection(sample: LabeledSample, alpha, epsilon, estimator="spacing"):
    """Batch-form selection on the same estimates and cells the protocol
    uses, with the empirical densities h = count / (epsilon m)."""
    nodes = _greedy_cells(sample, epsilon, _node_work(sample, estimator, Transcript()))
    scale = epsilon * sample.m
    return greedy_select([CellDensity(i, cell, c / scale)
                          for i, (_, cells, counts) in enumerate(nodes)
                          for cell, c in zip(cells, counts)], alpha)
