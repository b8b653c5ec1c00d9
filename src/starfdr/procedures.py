"""BH-family rejection procedures, the levels each method runs BH at from
null-proportion estimates, asymptotic threshold solving, and confusion
metrics."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .distmodel import LabeledSample
from .estimators import NullProportionEstimate

R0_STAR_CLAMP = 1.0 - 1e-6


@dataclass(frozen=True)
class RejectionOutcome:
    """Indices rejected by a threshold procedure, with the realized threshold."""

    rejected: np.ndarray  # indices into the input p-value vector
    k_hat: int
    tau: float


def _empty_outcome() -> RejectionOutcome:
    return RejectionOutcome(np.empty(0, dtype=int), 0, 0.0)


# ranks per block of bh_step_up's screen: the rank-by-rank comparison covers
# only the blocks the screen cannot settle
_STEP_UP_BLOCK = 64


def bh_step_up(sorted_rows, levels) -> np.ndarray:
    """Row-wise step-up count of BH on rows of ascending p-values.

    Per row, the largest k with P_(k) <= level*k/m, or 0 when there is none
    (always 0 for a NaN level).  sorted_rows is (t, m) and levels (t,).

    Only a prefix of the rows can pass: level*k/m is nondecreasing in k,
    and so are the column minima of ascending rows, so no k beyond the count
    c of column minima at or below the largest level*m/m passes.  That
    prefix is screened by blocks of ranks, each against the threshold of its
    last rank.  A block whose last p-value is at or below it passes at its
    last rank, so k reaches the block's end; a block whose first p-value is
    above it holds no passing rank, as every p-value of the block is at
    least that one and every threshold of the block at most that one.  Only
    the ranks between the lowest row's highest passing end and the highest
    end of a block that may pass are compared one by one.
    """
    rows = np.asarray(sorted_rows, dtype=float)
    levels = np.asarray(levels, dtype=float)
    t, m = rows.shape
    if m == 0:
        return np.zeros(t, dtype=int)
    top = np.fmax.reduce(levels * m / m, initial=-np.inf)  # fmax skips NaN levels
    # one ascending row is its own column minima
    minima = rows[0] if t == 1 else np.fmin.reduce(rows, axis=0, initial=np.inf)
    c = int(np.searchsorted(minima, top, "right"))
    if c == 0:
        return np.zeros(t, dtype=int)
    ends = np.minimum(np.arange(_STEP_UP_BLOCK, c + _STEP_UP_BLOCK, _STEP_UP_BLOCK), c)
    bounds = levels[:, None] * ends.astype(float)
    bounds /= m  # the threshold of each block's last rank, as below
    sure = np.where(rows[:, ends - 1] <= bounds, ends, 0).max(axis=1)
    may = np.where(rows[:, :c:_STEP_UP_BLOCK] <= bounds, ends, 0).max(axis=1)
    hi = int(may.max())
    # a row with no block that may pass, a NaN level's among them, passes
    # nowhere, so it does not pull the window's start down to 0
    lo = int(sure.min(where=may > 0, initial=hi))
    if lo == hi:
        return sure
    thresholds = levels[:, None] * np.arange(lo + 1, hi + 1, dtype=float)
    thresholds /= m
    ok = rows[:, lo:hi] <= thresholds
    return np.maximum(sure, np.where(ok.any(axis=1), hi - np.argmax(ok[:, ::-1], axis=1), 0))


def bh_threshold(sorted_rows, levels):
    """Per row, BH's step-up count k and the threshold tau = level*k/m it
    rejects at (every p <= tau), or -inf where k = 0."""
    k = bh_step_up(sorted_rows, levels)
    m = max(np.shape(sorted_rows)[1], 1)
    return k, np.where(k > 0, np.asarray(levels, dtype=float) * k / m, -np.inf)


def bh_procedure(pvalues, alpha: float, sorted_pvalues=None) -> RejectionOutcome:
    """Step-up BH: reject the k largest-feasible smallest p-values.

    k_hat is the largest k with P_(k) <= alpha*k/m; everything at or below
    tau = alpha*k_hat/m is rejected (ties at the threshold included).  k_hat
    comes from sorted_pvalues, the ascending copy of pvalues, when given,
    and from a sort of pvalues otherwise: the one-row bh_threshold.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    p = np.asarray(pvalues, dtype=float)
    srt = np.sort(p) if sorted_pvalues is None else sorted_pvalues
    k = int(bh_step_up(srt[None], [alpha])[0])
    if k == 0:
        return _empty_outcome()
    tau = alpha * k / srt.size
    return RejectionOutcome(np.flatnonzero(p <= tau), k, float(tau))


def adaptive_bh(pvalues, alpha: float, estimate: NullProportionEstimate) -> RejectionOutcome:
    """BH at the adapted level min(alpha / r0_hat, 1)."""
    if estimate.value == 0.0:
        raise ValueError("null-proportion estimate of 0 gives an undefined level")
    return bh_procedure(pvalues, min(alpha / estimate.value, 1.0))


def _slope(alpha, r0):
    return (1.0 / alpha - r0) / (1.0 - r0)


def _matched(beta_star, r0_local):
    return 1.0 / ((1.0 - r0_local) * beta_star + r0_local)


def _every(ok) -> bool:
    """Whether a comparison holds at every element: one reduction for an
    array, none for a scalar, so scalar calls stay plain comparisons."""
    return bool(ok.all()) if isinstance(ok, np.ndarray) else bool(ok)


def beta_slope(alpha, r0):
    """Slope of the line whose supremum crossing with F is the BH threshold.

    Elementwise over floats or arrays; any element out of range raises."""
    if not _every((0.0 < alpha) & (alpha <= 1.0)):
        raise ValueError("alpha must lie in (0, 1]")
    if not _every((0.0 <= r0) & (r0 < 1.0)):
        raise ValueError("r0 must lie in [0, 1); the all-null case is degenerate")
    return _slope(alpha, r0)


def local_alpha(beta_star, r0_local):
    """Local test size matching a global slope: 1 / ((1-r0)*beta + r0).

    Elementwise over floats or arrays; any element out of range raises."""
    if not _every(beta_star >= 1.0):
        raise ValueError("beta_star must be >= 1")
    if not _every((0.0 <= r0_local) & (r0_local < 1.0)):
        raise ValueError("r0_local must lie in [0, 1)")
    return _matched(beta_star, r0_local)


def usable_estimates(estimates) -> np.ndarray:
    """Estimates with NaN in place of a failed (NaN) or zero one: the one
    fallback rule, read by estimate_levels and by greedy's cells."""
    r0 = np.asarray(estimates, dtype=float)
    return np.where(r0 > 0.0, r0, np.nan)


@dataclass(frozen=True)
class Levels:
    """BH levels per trial (row) and node (column); NaN rejects nothing."""

    r0: np.ndarray  # usable_estimates of the input
    no_comm: np.ndarray  # min(alpha / r0, 1)
    pooled_bh: np.ndarray  # the same with r0 = 1 where r0 is NaN
    m0: np.ndarray  # prop-match wire counts floor(r0*m_i + 1/2), m_i where r0 is NaN
    r0_star: np.ndarray  # (t,) pooled proportion sum(m0) / m, clamped below 1
    beta: np.ndarray  # (t,) shared slope
    prop_match: np.ndarray  # matched local levels


def estimate_levels(estimates, sizes, alpha: float, adaptive: bool = False) -> Levels:
    """The level each method runs BH at, from (t, n) estimates and sizes m_i.

    This is the one proportion-matching calibration.  A node whose estimate
    failed (NaN) or is 0 rejects nothing under no communication and
    proportion matching; an estimate outside [0, 1] raises ValueError.
    Proportion matching works on the wire counts m0 alone, as every node
    sees them, so one node's level is its target: the slope
    beta_slope(target, sum(m0) / m), with target alpha, or
    min(alpha / r0_star, 1) when adaptive, and the level
    local_alpha(beta, m0_i / m_i).  A node whose count is m0_i = m_i gets a
    NaN level: its matched threshold is the crossing of its alternative CDF
    with the line beta t, and an all-null node has none.  The rule covers a
    failed estimate, which sends m0_i = m_i, an empty node, and every node
    of a row whose counts sum to m.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    raw = np.asarray(estimates, dtype=float)
    if np.any((raw < 0.0) | (raw > 1.0)):
        raise ValueError("estimates must be NaN or lie in [0, 1]")
    r0 = usable_estimates(raw)
    sizes = np.asarray(sizes, dtype=int)
    failed = np.isnan(r0)
    m0 = np.floor(np.where(failed, 1.0, r0) * sizes + 0.5).astype(int)
    m0_total = m0.sum(axis=1)
    m = int(sizes.sum())
    # alpha over a tiny r0 or r0_star = 0 gives the full level, and a
    # subnormal alpha an infinite slope, so a matched level of 0
    with np.errstate(divide="ignore", over="ignore"):
        no_comm = np.minimum(alpha / r0, 1.0)
        pooled = np.minimum(alpha / np.where(failed, 1.0, r0), 1.0)
        r0_star = np.minimum(m0_total / max(m, 1), R0_STAR_CLAMP)
        target = np.minimum(alpha / r0_star, 1.0) if adaptive else np.full(len(r0), alpha)
        # the formulas of beta_slope and local_alpha without their checks:
        # target lies in (0, 1], r0_star and r0_local in [0, 1), so beta >= 1
        beta = _slope(target, r0_star)
        r0_local = np.minimum(m0 / np.maximum(sizes, 1), R0_STAR_CLAMP)
        matched = np.minimum(_matched(beta[:, None], r0_local), 1.0)
    matched[m0 >= sizes] = np.nan
    return Levels(r0, no_comm, pooled, m0, r0_star, beta, matched)


# log-spaced down to the smallest normal float so that thresholds far below
# the uniform step are bracketed too; t = 0 is left out
_TINY = np.finfo(float).tiny
_THRESHOLD_GRID = np.union1d(np.geomspace(_TINY, 1.0, 1000), np.linspace(0.0, 1.0, 10_001)[1:])
_THRESHOLD_RTOL = 1e-10
# exponents of one largest_crossing pass: 256 geometric cells per bracket
_PASS_STEPS = np.linspace(0.0, 1.0, 257)


def largest_crossing(h, lo: float, hi: float) -> float:
    """Largest t in [lo, hi] where h falls through 0, given h(hi) < 0, to
    the relative tolerance _THRESHOLD_RTOL; 0 when h < 0 at every probe
    from max(lo, smallest normal float) up.

    h takes an array.  Each pass evaluates it at the lower ends of 256
    geometric cells of the bracket and keeps the cell after the last point
    where h >= 0, so a bracket spanning many decades shrinks as fast as a
    narrow one.
    """
    while hi - lo > _THRESHOLD_RTOL * hi:
        lo = max(lo, _TINY)
        ts = lo * (hi / lo) ** _PASS_STEPS
        ts[-1] = hi
        pos = np.flatnonzero(h(ts[:-1]) >= 0.0)
        if pos.size == 0:
            return 0.0
        i = int(pos[-1])
        lo, hi = float(ts[i]), float(ts[i + 1])
    return 0.5 * (lo + hi)


def newton_crossing(h_slope, lo: float, hi: float) -> float:
    """The t in [lo, hi] where a strictly decreasing h falls through 0,
    given h(hi) < 0, to the relative tolerance _THRESHOLD_RTOL; 0 when
    h < 0 at max(lo, smallest normal float).

    h_slope(t) returns (h(t), h'(t)) at one point.  Safeguarded Newton: each
    step keeps the bracket [lo, hi] with h(lo) >= 0 > h(hi) and aims a
    quarter tolerance past Newton's root, so that once Newton has converged
    the next two points close the bracket from both sides.  A step that
    leaves the bracket, or that h' >= 0 leaves undefined, is a geometric
    bisection step instead.  largest_crossing remains for curves that do
    not fit this: it needs no derivative, and it finds the largest
    crossing of an h that may cross 0 more than once.
    """
    t = max(lo, _TINY)
    v, d = h_slope(t)
    if v < 0.0:
        return 0.0
    lo = t
    while hi - lo > _THRESHOLD_RTOL * hi:
        nudge = 0.25 * _THRESHOLD_RTOL * hi
        t_next = t - v / d + (nudge if v >= 0.0 else -nudge) if d < 0.0 else math.inf
        t = t_next if lo < t_next < hi else math.sqrt(lo) * math.sqrt(hi)
        v, d = h_slope(t)
        if v >= 0.0:
            lo = t
        else:
            hi = t
    return 0.5 * (lo + hi)


def asymptotic_threshold(cdf, alpha: float) -> float:
    """Largest fixed point of G(t) = t/alpha on [0, 1].

    Scans a fixed grid down from t=1 for a sign change of G(t) - t/alpha,
    shrinks the bracketing cell with largest_crossing, and returns 0 when
    the curve never rises above the line away from the origin.  A CDF
    G <= 1 can meet t/alpha only at t <= alpha, so the scan stops at the
    first grid point above alpha: the grid's points lie at least 3e-5
    apart in relative terms, so every later one has t/alpha > 1 + 3e-5,
    out of reach of G and of its rounding.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    grid = _THRESHOLD_GRID
    ts = grid[: int(np.searchsorted(grid, alpha, "right")) + 1]
    pos = np.flatnonzero(np.asarray(cdf(ts), dtype=float) - ts / alpha >= 0.0)
    if pos.size == 0:
        return 0.0
    i = int(pos[-1])
    if i == grid.size - 1:
        return 1.0
    return largest_crossing(lambda t: np.asarray(cdf(t), dtype=float) - t / alpha,
                            float(grid[i]), float(grid[i + 1]))


@dataclass(frozen=True)
class ConfusionMetrics:
    R: int
    V: int
    fdp: float
    tdp: float


def _metrics(R: int, V: int, m1: int) -> ConfusionMetrics:
    return ConfusionMetrics(R, V, V / max(R, 1), (R - V) / max(m1, 1))


def confusion_metrics(outcomes, sample: LabeledSample):
    """Global and per-node (R, V, FDP, TDP) for per-node rejection outcomes."""
    if len(outcomes) != sample.n_nodes:
        raise ValueError("one outcome per node required")
    per_node = []
    R_tot = V_tot = m1_tot = 0
    for out, labels in zip(outcomes, sample.null_labels):
        idx = np.asarray(out.rejected, dtype=int)
        if idx.size and (idx.min() < 0 or idx.max() >= labels.size):
            raise IndexError("rejected index out of range for node sample")
        R = int(idx.size)
        V = int(np.count_nonzero(labels[idx])) if R else 0
        m1 = labels.size - int(np.count_nonzero(labels))
        per_node.append(_metrics(R, V, m1))
        R_tot += R
        V_tot += V
        m1_tot += m1
    return _metrics(R_tot, V_tot, m1_tot), per_node
