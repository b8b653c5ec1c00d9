"""Asymptotically optimal rejection regions (superlevel sets of the
mixture-to-null density ratio) and heterogeneity bound calculators."""

from __future__ import annotations

import numpy as np

from .distmodel import GAUSSIAN, NetworkModel, NodeModel, alt_cdf, alt_pdf, alt_superlevel
from .greedy import selection_asymptotics
from .procedures import asymptotic_threshold, beta_slope, largest_crossing, local_alpha

_LEVEL_TOL = 1e-6  # absolute, on the level t in c_alpha_search
_SUP_GRID = 10_000  # points on measure_alt_heterogeneity's bracket


def level_region(node: NodeModel, t: float):
    """Superlevel set {x in (0,1): g(x)/r0 > t+1} as sorted intervals,
    i.e. {x: f(x) > (r0/r1) t}, in closed form from alt_superlevel."""
    if t < 0.0:
        raise ValueError("t must be nonnegative")
    if node.r1 == 0.0:  # all-null node: g/r0 = 1 never exceeds t+1
        return []
    return alt_superlevel(node.alt, node.r0 / node.r1 * t)


def c_alpha_search(net: NetworkModel, alpha: float) -> float:
    """Smallest level t whose superlevel regions satisfy FDR <= alpha.

    Bisection is valid because regions shrink as t grows; empty regions
    have FDR 0 and are always feasible.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")

    def feasible(t: float) -> bool:
        fdr, _ = selection_asymptotics([level_region(nd, t) for nd in net.nodes], net)
        return fdr <= alpha

    if feasible(0.0):
        return 0.0
    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
        if hi > 1e12:
            return hi  # regions effectively empty; FDR convention 0
    lo = hi / 2.0 if hi > 1.0 else 0.0
    while hi - lo > _LEVEL_TOL:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


def optimal_region(net: NetworkModel, alpha: float):
    """Optimal per-node regions with their asymptotic FDR and power."""
    c = c_alpha_search(net, alpha)
    regions = [level_region(nd, c) for nd in net.nodes]
    fdr, power = selection_asymptotics(regions, net)
    return regions, fdr, power


def heterogeneity_delta(net: NetworkModel) -> float:
    """Weighted dispersion of null proportions around the network value."""
    return float(np.dot(net.q, np.abs(net.r0 - net.r0_star)))


def _node_threshold(node: NodeModel, beta: float) -> float:
    """sup{t: F_i(t) = beta * t}, bracketed in closed form.

    h(t) = F_i(t) - beta t has h' = f_i - beta, so h falls outside
    alt_superlevel(alt, beta), which for beta > 1 is at most one interval
    (a, b): the crossing lies in [b, 1) when h(b) >= 0 and is 0 otherwise,
    as when the set is empty or ends at 1 (a Gaussian mu < 0).  A Gaussian
    mu > 0 has the set (0, b) with h(b) > 0, also where b underflows to 0.0
    and alt_superlevel drops it.
    """
    if beta <= 1.0:
        return 1.0
    alt = node.alt
    spans = alt_superlevel(alt, beta)
    if spans:
        b = spans[-1][1]
    elif alt.kind == GAUSSIAN and alt.mu > 0.0:
        b = 0.0
    else:
        return 0.0
    if b >= 1.0:
        return 0.0
    return largest_crossing(lambda t: alt_cdf(alt, t) - beta * t, b, 1.0)


def fdr_bound_null_heterogeneity(net: NetworkModel, alpha: float,
                                 limiting_r0=None) -> float | None:
    """FDR bound for proportion matching under unequal null proportions.

    With limiting_r0=None the per-node estimators are taken consistent and
    the bound is anchored at r0* * alpha; otherwise limiting_r0 gives the
    almost-sure limits of the (possibly upward-biased) estimators and the
    bound is anchored at alpha.  Returns None when inapplicable (the
    dispersion term reaches the rejection mass, or the upward-bias
    compatibility condition fails).
    """
    q, r0s = net.q, net.r0
    r0_star, r1_star = net.r0_star, net.r1_star
    delta = heterogeneity_delta(net)
    if limiting_r0 is None:
        base = r0_star * alpha
        beta_star = beta_slope(alpha, r0_star)
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
        alphas = np.array([local_alpha(beta_bar, rb) for rb in rbar])
        betas = np.array([beta_slope(a, r) for a, r in zip(alphas, r0s)])
    taus = np.array([_node_threshold(nd, b) for nd, b in zip(net.nodes, betas)])
    fmass = np.array([alt_cdf(nd.alt, tau) for nd, tau in zip(net.nodes, taus)])
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
    t = np.asarray(t, dtype=float)
    return _pooled(net, (alt_cdf(nd.alt, t) for nd in net.nodes))


def measure_alt_heterogeneity(net: NetworkModel, alpha: float):
    """Numerically measure per-node sup-distances to the pooled alternative
    CDF and the Lipschitz constant of that CDF on the bracketing interval
    [min tau_i, max tau_i] of the per-node slope crossings.  At a bracket
    from 0 the pooled density diverges (constant inf) if a node has signal
    with a Gaussian shift mu > 0; densities are taken at interior points."""
    bs = beta_slope(alpha, net.r0_star)
    taus = np.array([_node_threshold(nd, bs) for nd in net.nodes])
    lo, hi = float(taus.min()), float(taus.max())
    if hi - lo < 1e-9:
        lo = max(lo - 1e-3, 1e-6)
        hi = min(hi + 1e-3, 1.0 - 1e-6)
    ts = np.linspace(lo, hi, _SUP_GRID)
    rows = [alt_cdf(nd.alt, ts) for nd in net.nodes]
    pooled = _pooled(net, rows)
    deltas = np.array([float(np.max(np.abs(row - pooled))) for row in rows])
    if lo == 0.0 and any(nd.r1 > 0.0 and nd.alt.kind == GAUSSIAN and nd.alt.mu > 0.0
                         for nd in net.nodes):
        return deltas, np.inf
    ts = ts[ts > 0.0]
    dens = sum(nd.q * nd.r1 * alt_pdf(nd.alt, ts) for nd in net.nodes) / net.r1_star
    return deltas, float(np.max(dens))


def alt_heterogeneity_bounds(net: NetworkModel, alpha: float, deltas,
                             lipschitz_c: float):
    """(FDR upper bound, power lower bound) under heterogeneous alternatives.

    deltas are per-node sup-distances between F_i and the pooled
    alternative CDF; lipschitz_c bounds the pooled CDF's slope on the
    bracketing interval.  Returns None when inapplicable (lipschitz_c >=
    global slope, inf included, or the aggregated distance reaches the
    rejection mass).
    """
    deltas = np.asarray(deltas, dtype=float)
    if np.any(deltas < 0.0) or lipschitz_c < 0.0:
        raise ValueError("deltas and lipschitz_c must be nonnegative")
    q, r0s = net.q, net.r0
    r0_star, r1_star = net.r0_star, net.r1_star
    beta_star = beta_slope(alpha, r0_star)
    if lipschitz_c >= beta_star:
        return None
    tau_star = asymptotic_threshold(lambda t: pooled_alt_cdf(net, t), 1.0 / beta_star)
    dprime = float(np.dot(q, (r0s + beta_star * (1.0 - r0s)) * deltas)) / (
        beta_star - lipschitz_c
    )
    r_check = (r0_star + r1_star * beta_star) * tau_star
    v_check = r0_star * tau_star
    if dprime >= r_check:
        return None
    fdr_bound = r0_star * alpha + (v_check + r_check) / (r_check - dprime) ** 2 * dprime
    p_star = float(pooled_alt_cdf(net, tau_star))
    power_bound = p_star - min(
        float(deltas.max()) / (1.0 - lipschitz_c / beta_star), dprime / r1_star
    )
    return fdr_bound, power_bound
