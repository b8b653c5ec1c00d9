import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starfdr as sf
from starfdr.greedy import estimate_grid, node_cells


class TestBuildGrid:
    def test_arithmetic(self):
        g = sf.build_grid(0.05, [0.5], [0.5])
        assert g.lengths[0] == pytest.approx(0.2)
        assert g.counts[0] == 5

    def test_oversized_cell(self):
        g = sf.build_grid(0.3, [0.5], [0.5])
        assert g.counts[0] == 0

    def test_uncovered_tail(self):
        g = sf.build_grid(0.03, [0.2], [0.5])
        assert g.lengths[0] == pytest.approx(0.3)
        assert g.counts[0] == 3
        a, b = g.cell_bounds(0, 3)
        assert b == pytest.approx(0.9)

    def test_coverage_invariant(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            q = rng.uniform(0.05, 1.0)
            r0 = rng.uniform(0.05, 1.0)
            eps = rng.uniform(0.001, 0.5)
            g = sf.build_grid(eps, [q], [r0])
            assert g.counts[0] * g.lengths[0] <= 1.0 + 1e-12

    def test_errors(self):
        with pytest.raises(ValueError):
            sf.build_grid(0.0, [0.5], [0.5])
        with pytest.raises(ValueError):
            sf.build_grid(0.1, [0.0], [0.5])

    def test_estimate_grid(self):
        # rows are trials; node 1 is empty and trial 1's node 0 estimate failed
        r0 = np.array([[0.5, 0.7, 0.25], [np.nan, 0.7, 1.0]])
        sizes = [30, 0, 10]
        g = estimate_grid(0.05, sizes, r0)
        assert g.n_nodes == 3
        for (t, i), r in np.ndenumerate(r0):
            if sizes[i] and not np.isnan(r):
                want = sf.build_grid(0.05, [sizes[i] / 40], [r])
                assert (g.lengths[t, i], g.counts[t, i]) == (want.lengths[0], want.counts[0])
            else:
                assert (g.lengths[t, i], g.counts[t, i]) == (0.0, 0)
        with np.errstate(all="raise"):  # an empty sample has no cells and no 0/0
            assert estimate_grid(0.05, [0, 0], [np.nan, 0.5]).counts.tolist() == [0, 0]
        with pytest.raises(ValueError, match="epsilon must be positive"):
            estimate_grid(0.0, [30], [0.5])


class TestCellDensities:
    """The cell counts behind the empirical densities, from node_cells."""

    @staticmethod
    def _counts(grid, p):
        return node_cells(p, float(grid.lengths[0]), int(grid.counts[0]))[1].tolist()

    def test_counts_and_scale(self):
        # 8 p-values in the first cell of 10 cells of length 0.1
        g = sf.build_grid(0.1, [1.0], [1.0])
        p = np.concatenate([np.full(8, 0.05), np.linspace(0.15, 0.95, 92)])
        counts = self._counts(g, p)
        assert len(counts) == 10 and counts[0] == 8 and sum(counts) == 100

    def test_empty_cell_zero(self):
        g = sf.build_grid(0.25, [1.0], [1.0])
        assert self._counts(g, [0.9]) == [0, 0, 0, 1]

    def test_right_endpoint_belongs_to_cell(self):
        g = sf.build_grid(0.25, [1.0], [1.0])  # L = 0.25, K = 4
        assert self._counts(g, [0.25, 0.5])[:3] == [1, 1, 0]

    def test_tail_pvalues_uncounted(self):
        g = sf.build_grid(0.03, [0.2], [0.5])  # covers (0, 0.9]
        assert sum(self._counts(g, [0.95, 0.99])) == 0

    def test_total_count_bounded(self):
        rng = np.random.default_rng(1)
        p = rng.random(200)
        g = sf.build_grid(0.04, [1.0], [0.7])
        counts = self._counts(g, p)
        assert sum(counts) <= 200 and min(counts) >= 0


class TestSelectMstar:
    """M*, the number of cells the greedy selection takes: greedy_select's
    count, and its argument check."""

    @staticmethod
    def _mstar(h, alpha):
        dens = [sf.CellDensity(0, j + 1, float(x)) for j, x in enumerate(h)]
        return sf.greedy_select(dens, alpha).m_selected

    def test_examples(self):
        assert self._mstar([15, 6, 2], 0.1) == 2
        assert self._mstar([5], 0.1) == 0
        assert self._mstar([30, 10, 4], 0.1) == 3
        # the running sum in selection order is 7.999999999999999, not 8, so the
        # fourth cell fails 4 <= 0.5 * sum, as it does in the protocol
        assert self._mstar([3.3, 3.3, 1.1, 0.3], 0.5) == 3

    def test_empty(self):
        assert self._mstar([], 0.2) == 0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            sf.greedy_select([sf.CellDensity(0, 1, 1.0)], 1.0)

    @settings(max_examples=100, deadline=None)
    @given(
        h=st.lists(st.floats(0.0, 100.0), min_size=1, max_size=30),
        alpha=st.floats(0.01, 0.99),
    )
    def test_prefix_property(self, h, alpha):
        mstar = self._mstar(h, alpha)
        hs = np.sort(np.asarray(h))[::-1]
        csum = np.cumsum(hs)
        for M in range(1, len(h) + 1):
            # greedy_select also stops at the first cell of density 0
            ok = M <= alpha * csum[M - 1] and hs[M - 1] > 0.0
            assert ok == (M <= mstar)


class TestGreedySelect:
    def _densities(self, hs):
        return [sf.CellDensity(0, j + 1, h) for j, h in enumerate(hs)]

    def test_example(self):
        sel = sf.greedy_select(self._densities([15, 6, 2]), 0.1)
        assert sel.m_selected == 2
        assert sel.fdr_hat == pytest.approx(2 / 21)
        assert set(sel.cells) == {(0, 1), (0, 2)}

    def test_all_zero(self):
        sel = sf.greedy_select(self._densities([0.0, 0.0]), 0.2)
        assert sel.m_selected == 0 and sel.cells == ()

    def test_single_big_cell(self):
        sel = sf.greedy_select(self._densities([11.0]), 0.1)
        assert sel.m_selected == 1

    def test_fdr_hat_controlled(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            hs = rng.uniform(0, 50, rng.integers(1, 20))
            sel = sf.greedy_select(self._densities(hs), 0.15)
            if sel.m_selected:
                assert sel.fdr_hat <= 0.15 + 1e-12

    def test_tie_break_lexicographic(self):
        dens = [
            sf.CellDensity(1, 1, 30.0),
            sf.CellDensity(0, 2, 30.0),
            sf.CellDensity(0, 1, 30.0),
        ]
        sel = sf.greedy_select(dens, 0.1)
        assert sel.cells[:2] == ((0, 1), (0, 2))


class TestOracleIntervalSet:
    def test_all_uniform_empty(self):
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 0.6, sf.gaussian_alt(0.0)),
            sf.NodeModel(0.5, 0.8, sf.gaussian_alt(0.0)),
        ])
        grid, sel = sf.oracle_interval_set(net, 0.02, 0.2)
        assert sel.m_selected == 0

    def test_monotone_prefix(self):
        net = sf.NetworkModel([sf.NodeModel(1.0, 0.5, sf.gaussian_alt(3.0))])
        eps = 0.05  # L = 0.1, K = 10
        grid, sel = sf.oracle_interval_set(net, eps, 0.2)
        assert grid.counts[0] == 10
        cells = [c for _, c in sel.cells]
        # monotone density: selection is the prefix of low-t cells, in order
        assert cells == list(range(1, len(cells) + 1))
        assert sel.m_selected >= 1

    def test_true_density_floor(self):
        # population densities are never below 1 (cell carries its null mass)
        net = sf.NetworkModel([
            sf.NodeModel(0.4, 0.6, sf.gaussian_alt(2.0)),
            sf.NodeModel(0.6, 0.9, sf.cauchy_alt(2.0)),
        ])
        grid = sf.build_grid(0.01, net.q, net.r0)
        dens = sf.true_cell_densities(net, grid)
        assert min(d.h for d in dens) >= 1.0 - 1e-9

    def test_matches_greedy_select_on_true_h(self):
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 0.6, sf.gaussian_alt(2.5)),
            sf.NodeModel(0.5, 0.8, sf.gaussian_alt(1.5)),
        ])
        grid, sel = sf.oracle_interval_set(net, 0.02, 0.2)
        sel2 = sf.greedy_select(sf.true_cell_densities(net, grid), 0.2)
        assert sel.cells == sel2.cells


class TestSelectionAsymptotics:
    def test_empty(self):
        net = sf.NetworkModel([sf.NodeModel(1.0, 0.5, sf.gaussian_alt(2.0))])
        assert sf.selection_asymptotics([[]], net) == (0.0, 0.0)

    def test_threshold_formula(self):
        node = sf.NodeModel(1.0, 0.5, sf.gaussian_alt(2.0))
        net = sf.NetworkModel([node])
        t = 0.1
        fdr, power = sf.selection_asymptotics([[(0.0, t)]], net)
        assert fdr == pytest.approx(0.5 * t / sf.mixture_cdf(node, t))
        assert power == pytest.approx(sf.alt_cdf(node.alt, t))

    def test_all_null_node_contribution(self):
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 1.0, sf.gaussian_alt(0.0)),
            sf.NodeModel(0.5, 0.5, sf.gaussian_alt(3.0)),
        ])
        fdr, _ = sf.selection_asymptotics([[(0.2, 0.4)], []], net)
        assert fdr == pytest.approx(1.0)  # pure-null region: all mass is null

    def test_overlap_rejected(self):
        net = sf.NetworkModel([sf.NodeModel(1.0, 0.5, sf.gaussian_alt(2.0))])
        with pytest.raises(ValueError):
            sf.selection_asymptotics([[(0.0, 0.3), (0.2, 0.5)]], net)

    def test_out_of_range_rejected(self):
        net = sf.NetworkModel([sf.NodeModel(1.0, 0.5, sf.gaussian_alt(2.0))])
        with pytest.raises(ValueError):
            sf.selection_asymptotics([[(0.5, 1.2)]], net)


def _per_node_asymptotics(regions, net):
    """selection_asymptotics as a loop of one mixture_cdf call per node."""
    num = den = gain = 0.0
    for node, intervals in zip(net.nodes, regions):
        intervals = sorted(intervals)
        if not intervals:
            continue
        ends = sf.mixture_cdf(node, np.array(intervals, dtype=float))
        for (a, b), g_mass in zip(intervals, (ends[:, 1] - ends[:, 0]).tolist()):
            num += node.q * node.r0 * (b - a)
            den += node.q * g_mass
            gain += node.q * (g_mass - node.r0 * (b - a))
    fdr = min(num / den, 1.0) if den > 0.0 else 0.0
    power = min(max(gain / net.r1_star, 0.0), 1.0) if net.r1_star > 0.0 else 0.0
    return fdr, power


@st.composite
def _cell_selections(draw):
    """A mixed network with, per node, a greedy-style union of grid cells
    (hundreds of them at small L, in any order) or no interval at all."""
    n = draw(st.integers(1, 5))
    w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    net = sf.NetworkModel([
        sf.NodeModel(float(q), draw(st.just(1.0) | st.floats(0.05, 0.99)),
                     sf.AlternativeModel(draw(st.sampled_from([sf.GAUSSIAN, sf.CAUCHY])),
                                         draw(st.just(0.0) | st.floats(-4.0, 8.0))))
        for q in w / w.sum()
    ])
    regions = []
    for _ in range(n):
        K = draw(st.integers(1, 1000))
        L = 1.0 / (K + draw(st.floats(0.01, 0.99)))
        count, seed = draw(st.integers(0, min(K, 400))), draw(st.integers(0, 2**32 - 1))
        cells = np.random.default_rng(seed).choice(K, count, replace=False) + 1
        regions.append([((c - 1) * L, c * L) for c in cells.tolist()])
    return net, regions


class TestSelectionAsymptoticsOnePass:
    @settings(max_examples=60, deadline=None)
    @given(case=_cell_selections())
    def test_equals_per_node_loop(self, case):
        net, regions = case
        assert sf.selection_asymptotics(regions, net) == _per_node_asymptotics(regions, net)

    def test_oracle_selection(self):
        net = sf.builtin_config("2b").instantiate(4.0)[0]
        grid, sel = sf.oracle_interval_set(net, sf.default_epsilon(0.2, 1000), 0.2)
        regions = sf.selection_regions(grid, sel, len(net))
        assert sum(map(len, regions)) > len(net)
        assert sf.selection_asymptotics(regions, net) == _per_node_asymptotics(regions, net)


def test_selection_regions_roundtrip():
    net = sf.NetworkModel([
        sf.NodeModel(0.5, 0.6, sf.gaussian_alt(2.5)),
        sf.NodeModel(0.5, 0.8, sf.gaussian_alt(1.5)),
    ])
    grid, sel = sf.oracle_interval_set(net, 0.02, 0.2)
    regions = sf.selection_regions(grid, sel, len(net))
    total_len = sum(b - a for r in regions for a, b in r)
    expect = sum(grid.lengths[nd] for nd, _ in sel.cells)
    assert total_len == pytest.approx(expect)
    fdr, power = sf.selection_asymptotics(regions, net)
    assert fdr <= 0.2 + 1e-9
    assert power > 0


def test_default_epsilon():
    assert sf.default_epsilon(0.2, 10**4) == pytest.approx(0.002)
    assert sf.default_epsilon(0.2, 10**4, 2.5) == pytest.approx(0.005)
    with pytest.raises(ValueError):
        sf.default_epsilon(0.2, 0)


@pytest.mark.parametrize("multiplier", [0.0, -1.0, float("inf"), float("nan")])
def test_default_epsilon_refuses_a_bad_multiplier(multiplier):
    # an eta sweep value of at most 0 gives such a multiplier too
    with pytest.raises(ValueError, match="epsilon multiplier must be positive and finite"):
        sf.default_epsilon(0.2, 10**4, multiplier)
