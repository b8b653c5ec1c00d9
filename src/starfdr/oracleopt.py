"""Asymptotically optimal rejection regions (superlevel sets of the
mixture-to-null density ratio) and heterogeneity bound calculators."""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .distmodel import (GAUSSIAN, AltColumns, MixtureColumns, NetworkModel, NodeModel,
                        _cauchy_pdf, _cot_pi, alt_cdf_pdf, superlevel_ends,
                        superlevel_pieces)
from .greedy import selection_asymptotics
from .procedures import (_THRESHOLD_GRID, asymptotic_threshold, beta_slope, local_alpha,
                         newton_crossing)

_LEVEL_TOL = 1e-6  # absolute, on the level t in c_alpha_search
# c_alpha_search tries t = 0 and doubles t from 1; when no level up to 2^39
# is feasible it returns _EMPTY_LEVEL and the regions are taken as empty
_DOUBLING_LEVELS = np.concatenate([[0.0], 2.0 ** np.arange(40)])
_EMPTY_LEVEL = 2.0 ** 40
# bisection steps replayed from one feasibility table: 2^6 - 1 levels each
_TREE_DEPTH = 6
_SUP_GRID = 10_000  # points on measure_alt_heterogeneity's bracket
# its coarse pass takes every _SUP_STRIDE-th point; a cell is evaluated
# where its bound, times 1 + _BOUND_REL plus _BOUND_ABS, can reach the
# running maximum, margins far above the formulas' rounding
_SUP_STRIDE = 64
_BOUND_REL = 1e-9
_BOUND_ABS = 1e-12


class _Signal(NamedTuple):
    """The nodes with signal (r1 > 0) of one network as the columns of its
    FDR tables, with the constants every table takes: the level scale
    r0/r1, and per node the null weight q r0 and the total weight q, laid
    out (node, 1, [null, total], 1) to scale the tables' masses."""

    cols: MixtureColumns
    scale: np.ndarray
    weights: np.ndarray


def _signal(net: NetworkModel) -> _Signal:
    cols = MixtureColumns([nd for nd in net.nodes if nd.r1 > 0.0])
    weights = np.stack([cols.q * cols.r0, cols.q], axis=1)[:, None, :, None]
    return _Signal(cols, cols.r0 / cols.r1, weights)


def _level_ends(alts, scale, ts) -> np.ndarray:
    """superlevel_ends of each set {x: f_i(x) > scale_i t} at each level t
    in ts: shape (len(ts), len(alts), 4)."""
    return superlevel_ends(alts, np.multiply.outer(ts, scale))


def level_region(node: NodeModel, t: float):
    """Superlevel set {x in (0,1): g(x)/r0 > t+1} as sorted intervals,
    i.e. {x: f(x) > (r0/r1) t}, in closed form."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if node.r1 == 0.0:  # all-null node: g/r0 = 1 never exceeds t+1
        return []
    return superlevel_pieces(_level_ends([node.alt], [node.r0 / node.r1], [t])[0, 0].tolist())


def _fdr_table(sig: _Signal, ts) -> np.ndarray:
    """FDR of the level_region sets at each level t in ts, as
    selection_asymptotics computes it: running sums from 0 of the null and
    total masses, node by node and piece by piece (an empty piece adds
    exactly 0).  The mixture CDFs of all ends come from one pass; the two
    sums run side by side, one in-place add per (node, piece)."""
    ends = _level_ends(sig.cols.alts, sig.scale, ts)
    n, size = ends.shape[1], len(ts)
    g = sig.cols.cdf(ends, np.arange(n)[:, None])
    # the masses as (node, piece, [null, total], level): each add reads one
    # contiguous block
    mass = np.empty((n, 2, 2, size))
    np.subtract(ends[..., 1::2], ends[..., ::2], out=mass[:, :, 0].transpose(2, 0, 1))
    np.subtract(g[..., 1::2], g[..., ::2], out=mass[:, :, 1].transpose(2, 0, 1))
    mass *= sig.weights
    sums = np.zeros((2, size))
    for part in mass.reshape(2 * n, 2, size):
        sums += part
    num, den = sums
    return np.divide(num, den, out=np.zeros(size), where=den > 0.0)


def _splits(lo: float, hi: float) -> bool:
    """Whether bisecting (lo, hi) still narrows it: wider than _LEVEL_TOL
    and with its midpoint strictly inside.  Past 2^33 adjacent floats are
    further apart than _LEVEL_TOL, and the midpoint of two of them is one
    of the two."""
    return hi - lo > _LEVEL_TOL and lo < 0.5 * (lo + hi) < hi


def _bisection_tree(lo: float, hi: float) -> list:
    """The midpoints the next _TREE_DEPTH steps of bisecting (lo, hi) can
    visit, in heap order: the halves of node k are nodes 2k+1 (lower) and
    2k+2 (upper).  Each is 0.5*(lo+hi) of its own bracket, as in the loop.
    The brackets of one depth lie between consecutive entries of edges, the
    2^D + 1 bracket ends in order, whose midpoints the next depth fills in."""
    n = 1 << _TREE_DEPTH
    edges = [lo] * n + [hi]
    tree, step = [], n
    while step > 1:
        half = step // 2
        for j in range(half, n, step):
            edges[j] = 0.5 * (edges[j - half] + edges[j + half])
        tree += edges[half::step]
        step = half
    return tree


def c_alpha_search(net: NetworkModel, alpha: float) -> float:
    """Smallest level t whose superlevel regions satisfy FDR <= alpha.

    Bisection is valid because regions shrink as t grows; empty regions
    have FDR 0 and are always feasible.  The search is the scalar loop
    (try 0, double from 1, bisect to _LEVEL_TOL or until the midpoint is
    an end of the bracket) replayed from feasibility tables: one over all
    doubling levels, then one per _TREE_DEPTH bisection steps, so it takes
    the loop's path even where FDR(t) is not monotone.  When no level up to
    2^39 is feasible it returns 2^40, where the regions are taken as empty.
    """
    return _level_search(_signal(net), alpha)


def _level_search(sig: _Signal, alpha: float) -> float:
    """c_alpha_search on the network's signal columns."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    ok = (_fdr_table(sig, _DOUBLING_LEVELS) <= alpha).tolist()
    if ok[0]:
        return 0.0
    if not any(ok):
        return _EMPTY_LEVEL
    hi = float(_DOUBLING_LEVELS[ok.index(True)])
    lo = hi / 2.0 if hi > 1.0 else 0.0
    while _splits(lo, hi):
        tree = _bisection_tree(lo, hi)
        ok = (_fdr_table(sig, np.array(tree)) <= alpha).tolist()
        k = 0
        for _ in range(_TREE_DEPTH):
            if not _splits(lo, hi):
                break
            if ok[k]:
                hi, k = tree[k], 2 * k + 1
            else:
                lo, k = tree[k], 2 * k + 2
    return hi


def optimal_region(net: NetworkModel, alpha: float):
    """Optimal per-node regions with their asymptotic FDR and power.  An
    all-null network (r0* = 1), or one where no level up to 2^39 meets
    alpha, gets empty regions, FDR 0 and power 0."""
    sig = _signal(net)
    c = _level_search(sig, alpha)
    if c == _EMPTY_LEVEL:
        regions = [[] for _ in net.nodes]
    else:  # level_region(nd, c) for every node, in one superlevel_ends call
        ends = iter(_level_ends(sig.cols.alts, sig.scale, [c])[0].tolist())
        regions = [superlevel_pieces(next(ends)) if nd.r1 > 0.0 else [] for nd in net.nodes]
    fdr, power = selection_asymptotics(regions, net)
    return regions, fdr, power


def heterogeneity_delta(net: NetworkModel) -> float:
    """Weighted dispersion of null proportions around the network value."""
    return float(np.dot(net.q, np.abs(net.r0 - net.r0_star)))


def _slope_gap(alt, beta: float, t: float) -> tuple[float, float]:
    """h(t) = F(t) - beta t and its slope f(t) - beta, at one interior t."""
    cdf, pdf = alt_cdf_pdf(alt, t)
    return cdf - beta * t, pdf - beta


def _node_thresholds(alts: AltColumns, betas) -> np.ndarray:
    """sup{t: F_i(t) = beta_i * t} for each alternative, bracketed in closed
    form.

    h(t) = F_i(t) - beta t has h' = f_i - beta, so h falls outside the set
    {f_i > beta}, which for beta > 1 is at most one interval (a, b): the
    crossing lies in [b, 1) when h(b) >= 0 and is 0 otherwise, as when the
    set is empty or ends at 1 (a Gaussian mu < 0).  A Gaussian mu > 0 has
    the set (0, b) with h(b) > 0, also where b underflows to 0.0 and the
    set comes out empty.  One superlevel_ends call covers all of them.  On
    [b, 1) h is strictly decreasing, so the crossing is its one root there,
    found by newton_crossing with the closed-form density in h'.
    """
    betas = np.asarray(betas, dtype=float)
    ends = superlevel_ends(alts, betas[None])[0].tolist()
    taus = []
    for alt, beta, row in zip(alts.alts, betas.tolist(), ends):
        spans = superlevel_pieces(row)
        if beta <= 1.0:
            tau = 1.0
        elif not spans and not (alt.kind == GAUSSIAN and alt.mu > 0.0):
            tau = 0.0
        else:
            b = spans[-1][1] if spans else 0.0
            tau = 0.0 if b >= 1.0 else newton_crossing(
                lambda t: _slope_gap(alt, beta, t), b, 1.0)
        taus.append(tau)
    return np.array(taus)


def fdr_bound_null_heterogeneity(net: NetworkModel, alpha: float,
                                 limiting_r0=None) -> float | None:
    """FDR bound for proportion matching under unequal null proportions.

    With limiting_r0=None the per-node estimators are taken consistent and
    the bound is anchored at r0* * alpha; otherwise limiting_r0 gives the
    almost-sure limits of the (possibly upward-biased) estimators and the
    bound is anchored at alpha.  Returns None when inapplicable (the
    dispersion term reaches the rejection mass, or the upward-bias
    compatibility condition fails).  An all-null network (r0* = 1) raises
    ValueError, from beta_slope: the all-null case is degenerate.
    """
    q, r0s = net.q, net.r0
    r0_star, r1_star = net.r0_star, net.r1_star
    delta = heterogeneity_delta(net)
    beta_star = beta_slope(alpha, r0_star)
    if limiting_r0 is None:
        base = r0_star * alpha
        betas = np.full(len(net), beta_star)
    else:
        rbar = np.asarray(limiting_r0, dtype=float)
        if np.any(rbar < r0s):
            raise ValueError("limiting estimates cannot undershoot the true r0")
        if r0_star > np.min((1.0 - rbar) / (1.0 - r0s)) + 1e-12:
            return None
        base = alpha
        rbar_star = float(np.dot(q, rbar))
        beta_bar = beta_slope(alpha, min(rbar_star, 1.0 - 1e-9))
        betas = beta_slope(local_alpha(beta_bar, rbar), r0s)
    taus = _node_thresholds(AltColumns(nd.alt for nd in net.nodes), betas)
    # F_i(tau_i) by the solver's closed form; F = tau at tau in {0, 1}
    fmass = np.array([alt_cdf_pdf(nd.alt, tau)[0] if 0.0 < tau < 1.0 else tau
                      for nd, tau in zip(net.nodes, taus.tolist())])
    v = r0_star * float(np.dot(q, taus))
    r = v + r1_star * float(np.dot(q, fmass))
    if delta >= r:
        return None
    return base + (v + r) / (r - delta) ** 2 * delta


def _pooled(net: NetworkModel, rows):
    """(1/r1*) sum q r1 F_i from the rows F_i of each node, in node order."""
    return sum(nd.q * nd.r1 * row for nd, row in zip(net.nodes, rows)) / net.r1_star


def pooled_alt_cdf(net: NetworkModel, t):
    """Network-level alternative CDF: (1/r1*) sum q r1 F_i."""
    return _pooled(net, AltColumns(nd.alt for nd in net.nodes).grid(t)[0])


def _cell_density_bounds(alts: AltColumns, ends, pdf):
    """(upper, lower) bounds of each alternative's density on each cell
    [ends[j], ends[j+1]], shape (alternatives, cells), from the densities
    pdf at the ends, shape (alternatives, len(ends)); a NaN end gives NaN
    bounds.  A Gaussian density is monotone in t, so its ends bound it.  A
    Cauchy density, in the decreasing c = cot(pi t), has f'(c) =
    2 mu (1 + mu c - c^2)/((c - mu)^2 + 1)^2, so its extremes lie at the
    roots c = (mu +- sqrt(mu^2 + 4))/2, whose product is -1: a cell that
    holds one takes its value too."""
    upper = np.maximum(pdf[:, :-1], pdf[:, 1:])
    lower = np.minimum(pdf[:, :-1], pdf[:, 1:])
    cauchy = np.flatnonzero(~alts.gauss)
    if cauchy.size:
        mu = alts.mu[cauchy, None]
        c = _cot_pi(np.asarray(ends, dtype=float))
        far = 0.5 * (mu + np.copysign(np.sqrt(mu * mu + 4.0), mu))
        for root in (far, -1.0 / far):
            held = (c[1:] <= root) & (root <= c[:-1])
            value = _cauchy_pdf(root, mu)
            upper[cauchy] = np.where(held, np.maximum(upper[cauchy], value), upper[cauchy])
            lower[cauchy] = np.where(held, np.minimum(lower[cauchy], value), lower[cauchy])
    return upper, lower


def _may_reach(bound, best) -> np.ndarray:
    """Whether a cell bound, widened by the rounding margins, can reach the
    running maximum best: True where either is NaN."""
    return ~(bound * (1.0 + _BOUND_REL) + _BOUND_ABS < best)


def _distances(net: NetworkModel, which, rows) -> list:
    """|F_k - P| for each distinct alternative's CDF row F_k, where node i
    reads row which[i] and P is pooled from the nodes' rows in node order."""
    pooled = _pooled(net, [rows[k] for k in which])
    return [np.abs(row - pooled) for row in rows]


def measure_alt_heterogeneity(net: NetworkModel, alpha: float):
    """Numerically measure per-node sup-distances to the pooled alternative
    CDF and the Lipschitz constant of that CDF on the bracketing interval
    [min tau_i, max tau_i] of the per-node slope crossings, on _SUP_GRID
    even points.  A bracket from 0 also takes the points of
    procedures._THRESHOLD_GRID within its first step, where a Gaussian CDF
    can rise steeply.  There the pooled density diverges (constant inf) if a
    node has signal with a Gaussian shift mu > 0; densities are taken at
    interior points.
    An all-null network (r0* = 1) raises ValueError, from beta_slope.

    The maxima are the grid's, bit for bit, from part of it.  A coarse pass
    takes every _SUP_STRIDE-th point and the last, which cut the grid into
    cells, and one gather evaluates only the cells whose bound can reach a
    running maximum.  On a cell [a, b], |F_i - P| is at most the mean of
    its end values plus (b - a)/2 times a bound of |f_i - p|, and the pooled
    density p lies between the weighted sums of the nodes' density bounds
    (_cell_density_bounds).  Each distinct alternative is evaluated once,
    and so is its distance; the pooled sums keep node order."""
    bs = beta_slope(alpha, net.r0_star)
    distinct = {}  # node i reads row which[i] of the distinct alternatives' rows
    which = [distinct.setdefault(nd.alt, len(distinct)) for nd in net.nodes]
    alts = AltColumns(distinct)
    taus = _node_thresholds(alts, np.full(len(distinct), bs))
    lo, hi = float(taus.min()), float(taus.max())
    if hi - lo < 1e-9:
        lo = max(lo - 1e-3, 1e-6)
        hi = min(hi + 1e-3, 1.0 - 1e-6)
    ts = np.linspace(lo, hi, _SUP_GRID)
    if lo == 0.0:
        ts = np.concatenate([[0.0], _THRESHOLD_GRID[_THRESHOLD_GRID < ts[1]], ts[1:]])
    finite = not (lo == 0.0 and any(nd.r1 > 0.0 and nd.alt.kind == GAUSSIAN and nd.alt.mu > 0.0
                                    for nd in net.nodes))
    ends = ts[np.append(np.arange(0, len(ts) - 1, _SUP_STRIDE), len(ts) - 1)]
    cdf_rows, pdf_rows = alts.grid(ends)
    dist = np.array(_distances(net, which, list(cdf_rows)))
    deltas = dist.max(axis=1)
    pdf = list(pdf_rows)
    # hi < 1, so only ends[0] = lo can fall outside (0, 1): at lo = 0, where
    # F = 0 and there is no density, so the first cell's bounds are NaN
    gap = np.full((len(distinct), len(ends) - len(pdf[0])), np.nan)
    upper, lower = _cell_density_bounds(alts, ends, np.hstack([gap, pdf]))
    # the pooled density's bounds, from each distinct alternative's weight
    w = np.bincount(which, [nd.q * nd.r1 / net.r1_star for nd in net.nodes], len(distinct))
    p_upper, p_lower = w @ upper, w @ lower
    slope = np.maximum(upper - p_lower, p_upper - lower)
    bound = 0.5 * (dist[:, :-1] + dist[:, 1:]) + 0.5 * np.diff(ends) * slope
    cells = _may_reach(bound, deltas[:, None]).any(axis=0)
    if finite:
        lipschitz = np.max(_pooled(net, [pdf[k] for k in which]))
        cells |= _may_reach(p_upper, lipschitz)
    # the grid points strictly inside the cells that may hold a maximum
    inside = np.repeat(cells, _SUP_STRIDE)[:len(ts) - 1]
    inside[::_SUP_STRIDE] = False
    if inside.any():
        cdf_rows, pdf_rows = alts.grid(ts[:-1][inside])
        deltas = np.maximum(deltas, [np.max(d) for d in _distances(net, which, list(cdf_rows))])
        if finite:
            pdf = list(pdf_rows)
            lipschitz = np.maximum(lipschitz, np.max(_pooled(net, [pdf[k] for k in which])))
    return deltas[which], float(lipschitz) if finite else np.inf


def alt_heterogeneity_bounds(net: NetworkModel, alpha: float, deltas,
                             lipschitz_c: float):
    """(FDR upper bound, power lower bound) under heterogeneous alternatives.

    deltas are per-node sup-distances between F_i and the pooled
    alternative CDF; lipschitz_c bounds the pooled CDF's slope on the
    bracketing interval.  Returns None when inapplicable (lipschitz_c >=
    global slope, inf included, or the aggregated distance reaches the
    rejection mass).  An all-null network (r0* = 1) raises ValueError, from
    beta_slope.
    """
    deltas = np.asarray(deltas, dtype=float)
    if np.any(deltas < 0.0) or lipschitz_c < 0.0:
        raise ValueError("deltas and lipschitz_c must be nonnegative")
    q, r0s = net.q, net.r0
    r0_star, r1_star = net.r0_star, net.r1_star
    beta_star = beta_slope(alpha, r0_star)
    if lipschitz_c >= beta_star:
        return None
    # one AltColumns for the grid scan, every largest_crossing pass and p_star
    alts = AltColumns(nd.alt for nd in net.nodes)
    tau_star = asymptotic_threshold(lambda t: _pooled(net, alts.grid(t)[0]), 1.0 / beta_star)
    dprime = float(np.dot(q, (r0s + beta_star * (1.0 - r0s)) * deltas)) / (
        beta_star - lipschitz_c
    )
    r_check = (r0_star + r1_star * beta_star) * tau_star
    v_check = r0_star * tau_star
    if dprime >= r_check:
        return None
    fdr_bound = r0_star * alpha + (v_check + r_check) / (r_check - dprime) ** 2 * dprime
    p_star = float(_pooled(net, alts.grid(tau_star)[0]))
    power_bound = p_star - min(
        float(deltas.max()) / (1.0 - lipschitz_c / beta_star), dprime / r1_star
    )
    return fdr_bound, power_bound
