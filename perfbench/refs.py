"""Independent references the benchmark checks starfdr's outputs against.

Nothing here imports starfdr.  Each reference is written from the
definition in the paper or from the closed form of the model, so a fault in
the program cannot hide by being copied into its check.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import optimize, stats

GAUSSIAN = "gaussian"
CAUCHY = "cauchy"


# --- BH and the null-proportion estimate ------------------------------------

def bh_reject(p, level):
    """Step-up BH: with k the largest index such that P_(k) <= level*k/m,
    reject every p-value at or below P_(k).  Returns rejected indices."""
    p = np.asarray(p, dtype=float)
    m = p.size
    ps = np.sort(p)
    k = np.arange(1, m + 1)
    below = np.flatnonzero(ps <= level * k / m)
    if below.size == 0:
        return np.empty(0, dtype=int)
    return np.flatnonzero(p <= ps[below[-1]])


def spacing_schedule(m):
    """The estimator's spacing parameter s = max(1, round(m^0.7))."""
    return max(1, round(m ** 0.7))


def max_spacing_r0(p):
    """Max-spacing null-proportion estimate min(2s / (m Z), 1), where Z is
    the widest gap P_(j+s) - P_(j-s) over j = s+1, ..., m-s (1-based)."""
    ps = np.sort(np.asarray(p, dtype=float))
    m = ps.size
    s = spacing_schedule(m)
    j = np.arange(s + 1, m - s + 1)
    z = float(np.max(ps[j + s - 1] - ps[j - s - 1]))
    return min(2.0 * s / (m * z), 1.0)


def adaptive_bh_reject(p, alpha):
    """BH at level min(alpha / r0_hat, 1) with the max-spacing r0_hat."""
    return bh_reject(p, min(alpha / max_spacing_r0(p), 1.0))


# --- communication cost -----------------------------------------------------

def ceil_log2(n):
    """ceil(log2(n)) for a positive integer, exactly."""
    return (int(n) - 1).bit_length()


def pooled_bits(sizes):
    """(up, down): 64 bits per shipped p-value, nothing sent back."""
    return 64 * int(sum(sizes)), 0


def prop_match_bits(sizes):
    """(up, down): 2 ceil(log2 m_i) per node up, 2 ceil(log2 m) broadcast."""
    return sum(2 * ceil_log2(mi) for mi in sizes), 2 * ceil_log2(sum(sizes))


# --- greedy cells -----------------------------------------------------------

def greedy_cells(p, m_node, m_total, r0_hat, epsilon):
    """A node's cell length and its cells ranked by count descending, then
    cell index ascending: (L, [(count, cell), ...]).  Cells are (a, b] of
    length L = epsilon / (q r0_hat) with q = m_i / m, K = floor(1/L)."""
    L = epsilon / ((m_node / m_total) * r0_hat)
    K = int(math.floor(1.0 / L))
    cell = np.ceil(np.asarray(p) / L).astype(np.int64)
    counts = np.bincount(cell[(cell >= 1) & (cell <= K)], minlength=K + 1)[1:]
    order = np.lexsort((np.arange(K), -counts))
    return L, [(int(counts[j]), int(j) + 1) for j in order]


# --- oracle regions in closed form ------------------------------------------

def _node_masses(kind, mu, log_T):
    """(null mass, alternative mass) of {x in (0,1): f(x) > T} for one
    node, where f is the alternative-to-null density ratio of p-values.

    Gaussian (mu > 0): f(x) = exp(mu z - mu^2/2) with z = Q^-1(x) is
    decreasing, so the set is [0, Q(z_T)) with z_T = (ln T + mu^2/2) / mu.

    Cauchy: with c = cot(pi x), f = (1 + c^2) / (1 + (c - mu)^2), and
    f > T is the quadratic (1-T) c^2 + 2 T mu c + (1 - T - T mu^2) > 0.
    x decreases in c, so a set of c values maps to at most two intervals
    in x, and its null and alternative masses are Cauchy(0) and Cauchy(mu)
    probabilities of the c set.
    """
    if not mu > 0.0:
        raise ValueError("reference covers location shifts mu > 0 only")
    if kind == GAUSSIAN:
        z = (log_T + 0.5 * mu * mu) / mu
        null, alt = stats.norm.sf([z, z - mu])
        return float(null), float(alt)
    if kind != CAUCHY:
        raise ValueError(f"unknown alternative kind {kind!r}")
    T = math.exp(log_T)
    if T == 1.0:  # linear: 2 mu c - mu^2 > 0
        lo, hi = -math.inf, 0.5 * mu
    else:
        disc = T * mu * mu - (1.0 - T) ** 2  # quarter discriminant
        if disc <= 0.0:  # no sign change: all of (0,1) when T < 1, else empty
            return (1.0, 1.0) if T < 1.0 else (0.0, 0.0)
        # roots of a c^2 + 2 b c + k without cancellation
        a, b, k = 1.0 - T, T * mu, 1.0 - T - T * mu * mu
        qq = -(b + math.sqrt(disc))
        lo, hi = sorted((qq / a, k / qq))
    # rows: c = lo, hi; columns: null Cauchy(0), alternative Cauchy(mu)
    cdf = stats.cauchy.cdf(np.array([[lo], [hi]]), loc=np.array([0.0, mu]))
    if T <= 1.0:  # c < lo or c > hi
        masses = cdf[0] + (1.0 - cdf[1])
    else:  # lo < c < hi
        masses = cdf[1] - cdf[0]
    return float(masses[0]), float(masses[1])


def _metrics_at(nodes, log_t):
    """(FDR, power) of the level-t regions {(r1/r0) f > t} of every node.

    nodes are (q, r0, kind, mu) tuples; an empty union has FDR 0."""
    num = den = gain = 0.0
    r1_star = 0.0
    for q, r0, kind, mu in nodes:
        r1 = 1.0 - r0
        r1_star += q * r1
        null, alt = _node_masses(kind, mu, log_t + math.log(r0 / r1))
        num += q * r0 * null
        den += q * (r0 * null + r1 * alt)
        gain += q * r1 * alt
    return (num / den if den > 0.0 else 0.0), gain / r1_star


def oracle_optimum(nodes, alpha):
    """Closed-form optimal rule (Sun & Cai 2007): threshold the density
    ratio at the common level t whose regions have FDR exactly alpha.

    The FDR of these level sets falls as t grows, so the level is found by
    brentq in log t after a log-spaced bracket.  Returns (log_t, FDR,
    power)."""
    def excess(u):
        return _metrics_at(nodes, u)[0] - alpha

    grid = np.arange(-40.0, 41.0, 1.0)
    if excess(grid[0]) <= 0.0:
        raise ValueError("FDR at t ~ 0 is already below alpha; no level to find")
    for lo, hi in zip(grid[:-1], grid[1:]):
        if excess(hi) <= 0.0:
            u = optimize.brentq(excess, lo, hi, xtol=1e-13, rtol=1e-14)
            return (u, *_metrics_at(nodes, u))
    raise ValueError("FDR never falls to alpha for t up to e^40")


def gaussian_threshold(r0, mu, log_t):
    """Right end of the one-node Gaussian region [0, b) at level log t."""
    z = (log_t + math.log(r0 / (1.0 - r0)) + 0.5 * mu * mu) / mu
    return float(stats.norm.sf(z))


def alt_cdf(kind, mu, x):
    """Alternative p-value CDF F(x) = P(p <= x) from scipy.stats."""
    if x <= 0.0:
        return 0.0
    if x >= 1.0:
        return 1.0
    if kind == GAUSSIAN:
        return float(stats.norm.sf(stats.norm.isf(x) - mu))
    return float(stats.cauchy.sf(math.tan(math.pi * (0.5 - x)), loc=mu))


def regions_fdr(nodes, regions):
    """FDR of per-node interval unions, with masses from scipy.stats."""
    num = den = 0.0
    for (q, r0, kind, mu), intervals in zip(nodes, regions):
        for a, b in intervals:
            null = b - a
            alt = alt_cdf(kind, mu, b) - alt_cdf(kind, mu, a)
            num += q * r0 * null
            den += q * (r0 * null + (1.0 - r0) * alt)
    return num / den if den > 0.0 else 0.0
