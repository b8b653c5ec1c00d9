"""Interval-grid machinery: candidate cells per node, p-value densities,
the greedy top-M* selection, and asymptotic FDR/power of interval unions."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .distmodel import MixtureColumns, NetworkModel, mixture_cdf


@dataclass(frozen=True)
class IntervalGrid:
    """Per-node cell length L and cell count K = floor(1/L); K=0 means the
    node has no candidate intervals.  estimate_grid also builds (t, n)
    grids, one row per trial."""

    lengths: np.ndarray
    counts: np.ndarray
    epsilon: float

    @property
    def n_nodes(self) -> int:
        return self.lengths.shape[-1]

    @property
    def total_cells(self) -> int:
        return int(self.counts.sum())

    def cell_bounds(self, node: int, cell: int) -> tuple[float, float]:
        """Half-open support (a, b] of one cell (1-based cell index)."""
        L = float(self.lengths[node])
        return (cell - 1) * L, cell * L


def build_grid(epsilon: float, q_hat, r0_hat) -> IntervalGrid:
    """Cell length L_i = epsilon / (q_i * r0_i) per node; epsilon must lie
    in (0, inf)."""
    if not 0.0 < epsilon < np.inf:  # NaN fails both comparisons
        raise ValueError("epsilon must be positive and finite")
    q = np.asarray(q_hat, dtype=float)
    r0 = np.asarray(r0_hat, dtype=float)
    if np.any(q <= 0.0) or np.any(r0 <= 0.0):
        raise ValueError("q and r0 must be positive at every node")
    lengths = epsilon / (q * r0)
    counts = np.floor(1.0 / lengths).astype(int)
    return IntervalGrid(lengths, counts, epsilon)


def estimate_grid(epsilon: float, sizes, r0) -> IntervalGrid:
    """The grid greedy aggregation runs on: build_grid at q_i = m_i / m and
    the estimates r0, (n,) or (t, n) with NaN for a failed one.  An empty
    node or a failed estimate gets no cells (K = 0, L = 0), so does every
    node of an empty sample."""
    sizes, r0 = np.asarray(sizes), np.asarray(r0, dtype=float)
    has = ~np.isnan(r0) & (sizes > 0)
    q = sizes / max(int(sizes.sum()), 1)
    grid = build_grid(epsilon, np.broadcast_to(q, r0.shape)[has], r0[has])
    lengths, counts = np.zeros(r0.shape), np.zeros(r0.shape, dtype=int)
    lengths[has], counts[has] = grid.lengths, grid.counts
    return IntervalGrid(lengths, counts, epsilon)


@dataclass(frozen=True)
class CellDensity:
    node: int  # 0-based node index
    cell: int  # 1-based cell index
    h: float


def row_cells(P, L, K):
    """Bin t rows of one node's p-values (t, m_i), all in [0, 1], into each
    row's K cells of length L (both length t; a row with K = 0 has no cells).

    Cell 1 is the closed [0, L] and the others are half-open ((j-1)L, jL]:
    a p-value exactly at a right endpoint belongs to that cell.  A p-value's
    1-based cell is j = max(ceil(p/L), 1), which is K+1 for p above K*L (in
    no cell).  Returns (idx, counts): idx = r*(max K + 2) + j, each p-value's
    position in a flat (t, max K + 2) table over cells 0..max K + 1, and the
    (t, max K) counts of cells 1..max K, zero beyond a row's K.
    """
    K = np.asarray(K, dtype=int)
    width = int(K.max(initial=0)) + 2
    L = np.where(K > 0, L, np.inf)[:, None]
    q = np.asarray(P, dtype=float) / L
    idx = np.ceil(q, out=q).astype(int)
    np.maximum(idx, 1, out=idx)
    if len(K) > 1:
        idx += np.arange(len(K))[:, None] * width
    counts = np.bincount(idx.ravel(), minlength=len(K) * width).reshape(-1, width)[:, 1:-1]
    counts[np.arange(1, width - 1) > K[:, None]] = 0
    return idx, counts


def node_cells(p, L: float, K: int):
    """row_cells for one node's p-values: (j, counts, ranking), with each
    p-value's cell j, the counts of cells 1..K, and the cells 1..K ordered
    by count descending, then cell ascending."""
    j, counts = row_cells(np.asarray(p, dtype=float)[None], [L], [K])
    counts = counts[0]
    return j[0], counts, np.argsort(-counts, kind="stable") + 1


@dataclass(frozen=True)
class IntervalSelection:
    cells: tuple  # (node, cell) pairs in selection order
    m_selected: int
    fdr_hat: float


def greedy_rows(H, alpha: float):
    """Array form of the greedy selection: one selection per row of the
    densities H (t, C), whose columns are the candidate cells in (node,
    cell) order.

    In each row, cells go by density descending, ties by column, so by
    node and then cell ascending.  The k-th is selected while
    k <= alpha * (running sum of the first k densities, accumulated in that
    order, as the protocol does) and its density is positive.  Returns
    (order, k, total): each row's columns in that order, how many of them
    are selected, and the selected density total.
    """
    H = np.asarray(H, dtype=float)
    t, C = H.shape
    order = np.argsort(-H, axis=1, kind="stable")
    hs = np.zeros((t, C + 1))  # the zero column ends every row
    hs[:, :C] = np.take_along_axis(H, order, axis=1)
    run = np.cumsum(hs, axis=1)
    ok = (np.arange(1, C + 2) <= alpha * run) & (hs > 0.0)
    k = np.argmin(ok, axis=1)
    return order, k, np.where(k > 0, run[np.arange(t), k - 1], 0.0)


def greedy_select(densities, alpha: float) -> IntervalSelection:
    """Batch form of the round-based aggregation: greedy_rows for one
    selection over cells given in any order, so top-M cells by density,
    ties broken by (node, cell) ascending."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must lie in (0, 1)")
    node = np.array([c.node for c in densities], dtype=int)
    cell = np.array([c.cell for c in densities], dtype=int)
    by_cell = np.lexsort((cell, node))
    h = np.array([c.h for c in densities], dtype=float)
    order, k, total = greedy_rows(h[by_cell][None], alpha)
    picked = by_cell[order[0, : k[0]]]
    chosen = tuple(zip(node[picked].tolist(), cell[picked].tolist()))
    return IntervalSelection(chosen, len(chosen), len(chosen) / float(total[0]) if chosen else 0.0)


def true_cell_densities(net: NetworkModel, grid: IntervalGrid) -> list[CellDensity]:
    """Population densities h = q * G_i(cell) / epsilon."""
    out = []
    for i, node in enumerate(net.nodes):
        K = int(grid.counts[i])
        if K == 0:
            continue
        L = float(grid.lengths[i])
        edges = mixture_cdf(node, np.arange(K + 1) * L)
        mass = np.diff(edges)
        for cell in range(1, K + 1):
            out.append(CellDensity(i, cell, node.q * float(mass[cell - 1]) / grid.epsilon))
    return out


def oracle_interval_set(net: NetworkModel, epsilon: float, alpha: float):
    """Selection under the true model: M* largest population densities.

    Returns (grid, selection).
    """
    grid = build_grid(epsilon, net.q, net.r0)
    return grid, greedy_select(true_cell_densities(net, grid), alpha)


def selection_regions(grid: IntervalGrid, selection: IntervalSelection, n_nodes: int):
    """Per-node sorted disjoint intervals covered by the selected cells."""
    regions = [[] for _ in range(n_nodes)]
    for node, cell in selection.cells:
        regions[node].append(grid.cell_bounds(node, cell))
    return [sorted(r) for r in regions]


def selection_asymptotics(regions, net: NetworkModel) -> tuple[float, float]:
    """Asymptotic FDR and power of per-node interval unions.

    regions is one list of (a, b) intervals per node, disjoint within a
    node.  FDR is the null mass over total mass of the union; power is the
    alternative mass scaled by 1/r1*.  Both are clipped to [0, 1], which
    rounding in the masses can overstep by an ulp (power 1 + 2e-16 when an
    all-null node sits next to a node rejecting everything).
    """
    if len(regions) != len(net):
        raise ValueError("one region list per node required")
    regions = [sorted(intervals) for intervals in regions]
    for intervals in regions:
        prev_end = -np.inf
        for a, b in intervals:
            if not (0.0 <= a <= b <= 1.0):
                raise ValueError(f"interval ({a}, {b}) outside [0, 1]")
            if a < prev_end:
                raise ValueError("intervals within a node must be disjoint")
            prev_end = b
    owner = [i for i, intervals in enumerate(regions) for _ in intervals]
    spans = [ab for intervals in regions for ab in intervals]
    # the mixture CDFs at every interval end, in one pass over all nodes
    ends = MixtureColumns(net.nodes).cdf(np.array(spans, dtype=float).reshape(-1, 2),
                                         np.array(owner, dtype=int)[:, None])
    num = den = gain = 0.0
    for i, (a, b), g_mass in zip(owner, spans, (ends[:, 1] - ends[:, 0]).tolist()):
        node = net.nodes[i]
        num += node.q * node.r0 * (b - a)
        den += node.q * g_mass
        gain += node.q * (g_mass - node.r0 * (b - a))
    fdr = min(num / den, 1.0) if den > 0.0 else 0.0
    power = min(max(gain / net.r1_star, 0.0), 1.0) if net.r1_star > 0.0 else 0.0
    return fdr, power


def default_epsilon(alpha: float, m: int, multiplier: float = 1.0) -> float:
    """Grid parameter epsilon = multiplier * alpha / sqrt(m)."""
    if m < 1:
        raise ValueError("m must be positive")
    if not 0.0 < multiplier < np.inf:
        raise ValueError(f"epsilon multiplier must be positive and finite (got {multiplier!r})")
    return multiplier * alpha / np.sqrt(m)
