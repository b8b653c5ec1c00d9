import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import optimize

import starfdr as sf
from starfdr import distmodel, oracleopt, procedures

_TINY = np.finfo(float).tiny

# (kind, mu, density level, number of intervals) covering every branch of the
# closed-form superlevel sets
_BRACKET_CASES = [
    ("cauchy", 3.0, 0.5, 2),  # T < 1: the two outer intervals
    ("cauchy", 3.0, 1.0, 1),  # T = 1: the linear case c > mu/2
    ("cauchy", -2.0, 1.0, 1),  # T = 1 with mu < 0: c < mu/2
    ("cauchy", 3.0, 4.0, 1),  # T > 1: the inner interval
    ("cauchy", -3.0, 4.0, 1),
    ("cauchy", 0.5, 0.2, 1),  # disc <= 0, T < 1: everything
    ("cauchy", 2.0, 6.0, 0),  # disc <= 0, T > 1: nothing
    ("gaussian", -1.5, 0.5, 1),  # mu < 0: a suffix
]


class TestLevelRegion:
    def test_base_height_covers_support(self):
        node = sf.NodeModel(1.0, 0.5, sf.gaussian_alt(2.0))
        reg = sf.level_region(node, 0.0)
        # f_{G,mu} > 0 everywhere on (0,1)
        assert len(reg) == 1
        a, b = reg[0]
        assert a == pytest.approx(0.0) and b == pytest.approx(1.0)

    def test_gaussian_closed_form(self):
        # f_{G,2}(x) = 1  <=>  Q^{-1}(x) = 1  <=>  x = Q(1)
        node = sf.NodeModel(1.0, 0.5, sf.gaussian_alt(2.0))
        reg = sf.level_region(node, 1.0)
        assert len(reg) == 1
        a, b = reg[0]
        assert a == pytest.approx(0.0)
        assert b == pytest.approx(sf.normal_tail(1.0), abs=1e-6)

    def test_huge_level_empty(self):
        # the Gaussian density is unbounded at 0: f > 1e9 on [0, Q(11.36...))
        node = sf.NodeModel(1.0, 0.5, sf.gaussian_alt(2.0))
        reg = sf.level_region(node, 1e9)
        assert len(reg) == 1 and reg[0][0] == 0.0
        b = sf.normal_tail((np.log(1e9) + 2.0) / 2.0)
        assert reg[0][1] == pytest.approx(b, rel=1e-12)
        assert 3e-30 < reg[0][1] < 3.5e-30
        # the Cauchy density is bounded by (mu^2 + 2 + mu sqrt(mu^2 + 4)) / 2
        cauchy = sf.NodeModel(1.0, 0.5, sf.cauchy_alt(2.0))
        assert sf.level_region(cauchy, (6.0 + 2.0 * np.sqrt(8.0)) / 2.0 * (1 + 1e-9)) == []

    def test_all_null_node_empty(self):
        node = sf.NodeModel(1.0, 1.0, sf.gaussian_alt(2.0))
        assert sf.level_region(node, 0.5) == []

    def test_region_monotone_in_t(self):
        node = sf.NodeModel(1.0, 0.6, sf.cauchy_alt(3.0))
        for t1, t2 in [(0.1, 0.5), (0.5, 2.0), (2.0, 8.0)]:
            r1 = sf.level_region(node, t1)
            r2 = sf.level_region(node, t2)
            len1 = sum(b - a for a, b in r1)
            len2 = sum(b - a for a, b in r2)
            assert len2 <= len1 + 1e-6
            # containment on a grid
            xs = np.linspace(0.001, 0.999, 400)
            in1 = np.array([any(a < x <= b for a, b in r1) for x in xs])
            in2 = np.array([any(a < x <= b for a, b in r2) for x in xs])
            assert not np.any(in2 & ~in1)

    def test_cauchy_interior_region(self):
        # Cauchy shift gives an interior high-density bump, not a prefix
        node = sf.NodeModel(1.0, 0.5, sf.cauchy_alt(5.0))
        reg = sf.level_region(node, 2.0)
        assert len(reg) >= 1
        assert all(0.0 < a < b < 1.0 for a, b in reg) or reg[0][0] > 0.0

    @pytest.mark.parametrize("kind, mu, level, n_intervals", _BRACKET_CASES)
    def test_endpoints_bracket_level(self, kind, mu, level, n_intervals):
        alt = sf.AlternativeModel(kind, mu)
        # r0 = 1/2 makes the node's level the density level itself
        reg = sf.level_region(sf.NodeModel(1.0, 0.5, alt), level)
        assert len(reg) == n_intervals
        excess = lambda x: sf.alt_pdf(alt, x) - level
        for a, b in reg:
            assert 0.0 <= a < b <= 1.0
            for x, inside in ((a, a + 1e-7), (b, b - 1e-7)):
                if 0.0 < x < 1.0:
                    assert excess(inside) > 0.0
                    assert excess(2 * x - inside) < 0.0
        xs = np.linspace(1e-4, 1.0 - 1e-4, 2001)
        inside = np.array([any(a < x < b for a, b in reg) for x in xs])
        assert np.array_equal(inside, excess(xs) > 0.0)


def _closed_form(alt, level):
    """The superlevel set {f > level} from the scalar closed form in math.*,
    the form the array core in distmodel.superlevel_ends replaced."""
    T, mu = float(level), alt.mu
    if T <= 0.0 or mu == 0.0:
        return [(0.0, 1.0)] if T < 1.0 else []
    if alt.kind == sf.GAUSSIAN:
        x = float(sf.normal_tail((math.log(T) + 0.5 * mu * mu) / mu))
        spans = [(0.0, x)] if mu > 0.0 else [(x, 1.0)]
    elif T == 1.0:
        x = math.atan2(1.0, 0.5 * mu) / math.pi
        spans = [(0.0, x)] if mu > 0.0 else [(x, 1.0)]
    else:
        a, b, k = 1.0 - T, T * mu, 1.0 - T - T * mu * mu
        disc = b * b - a * k
        if disc <= 0.0:
            return [(0.0, 1.0)] if T < 1.0 else []
        qq = -(b + math.copysign(math.sqrt(disc), b))
        x1, x2 = sorted(math.atan2(1.0, c) / math.pi for c in (qq / a, k / qq))
        spans = [(0.0, x1), (x2, 1.0)] if T < 1.0 else [(x1, x2)]
    return [(x0, x1) for x0, x1 in spans if x0 < x1]


def _assert_within_2_ulp(alt, level):
    """The array core's one-level set against _closed_form: each end within
    2 ulp.  np.log and math.log may differ in the last place, and a Gaussian
    end Q(s), s = (ln T + mu^2/2)/mu, carries 2 ulp of ln T and of s through
    Q's slope phi(s)."""
    got = distmodel.superlevel_pieces(distmodel.superlevel_ends([alt], [level])[0].tolist())
    want = _closed_form(alt, level)
    assert len(got) == len(want)
    slack = 0.0
    if alt.kind == sf.GAUSSIAN and level > 0.0 and alt.mu != 0.0:
        log_t = math.log(level)
        s = (log_t + 0.5 * alt.mu**2) / alt.mu
        ulps = np.spacing(abs(s)) + np.spacing(abs(log_t)) / abs(alt.mu)
        slack = 2.0 * ulps * math.exp(-0.5 * s * s) / math.sqrt(2.0 * math.pi)
    for x, y in zip(np.ravel(got), np.ravel(want)):
        assert abs(x - y) <= 2.0 * np.spacing(abs(y)) + slack


class TestSuperlevelEnds:
    @pytest.mark.parametrize("kind, mu, level, n_intervals", _BRACKET_CASES)
    def test_one_level_matches_closed_form(self, kind, mu, level, n_intervals):
        _assert_within_2_ulp(sf.AlternativeModel(kind, mu), level)

    @pytest.mark.parametrize("kind", [sf.GAUSSIAN, sf.CAUCHY])
    def test_one_level_matches_closed_form_random(self, kind):
        rng = np.random.default_rng(0)
        for mu, level in zip(rng.uniform(-10.0, 10.0, 4000), np.exp(rng.uniform(-8.0, 8.0, 4000))):
            _assert_within_2_ulp(sf.AlternativeModel(kind, float(mu)), float(level))

    def test_table_is_its_one_level_cases(self):
        # every (level, node) cell of one table equals the one-level call
        rng = np.random.default_rng(1)
        alts = [sf.AlternativeModel(k, float(m)) for k, m in zip(
            [sf.GAUSSIAN, sf.CAUCHY] * 3, [2.0, 3.0, -1.5, -2.0, 0.0, 6.0])]
        levels = np.exp(rng.uniform(-4.0, 4.0, (40, len(alts))))
        levels[:4] = np.array([0.0, 1.0, 0.5, 20.0])[:, None]
        table = distmodel.superlevel_ends(alts, levels)
        for (i, j), level in np.ndenumerate(levels):
            one = distmodel.superlevel_ends([alts[j]], [level])[0]
            assert np.array_equal(table[i, j], one)


def _superlevel_ends_reference(alts, levels):
    """superlevel_ends as it was before AltColumns cached its columns: every
    call builds the mu and kind columns and their partitions anew."""
    T = np.asarray(levels, dtype=float)
    cols = alts if isinstance(alts, distmodel.AltColumns) else distmodel.AltColumns(alts)
    mu, gauss = cols.mu, cols.gauss
    x1, x2 = np.ones(T.shape), np.ones(T.shape)
    outer = np.ones(T.shape, dtype=bool)
    flat = np.flatnonzero(mu == 0.0)
    x1[..., flat] = T[..., flat] < 1.0
    cols = np.flatnonzero(gauss & (mu != 0.0))
    if cols.size:
        m = mu[cols]
        with np.errstate(divide="ignore", over="ignore"):
            x = sf.normal_tail((np.log(np.maximum(T[..., cols], 0.0)) + 0.5 * m * m) / m)
        x1[..., cols] = np.where(m > 0.0, x, 0.0)
        x2[..., cols] = np.where(m > 0.0, 1.0, x)
    cols = np.flatnonzero(~gauss & (mu != 0.0))
    if cols.size:
        t, m = T[..., cols], mu[cols]
        with np.errstate(all="ignore"):
            a, b = 1.0 - t, t * m
            k = a - b * m
            disc = b * b - a * k
            qq = -(b + np.copysign(np.sqrt(disc), b))
            xa, xb = np.arctan2(1.0, qq / a) / np.pi, np.arctan2(1.0, k / qq) / np.pi
        lo, hi = np.minimum(xa, xb), np.maximum(xa, xb)
        none = ~(disc > 0.0) | (t <= 0.0)
        lo[none], hi[none] = 1.0, 1.0
        xu = np.arctan2(1.0, 0.5 * m) / np.pi
        unit = t == 1.0
        x1[..., cols] = np.where(unit, np.where(m > 0.0, xu, 0.0), lo)
        x2[..., cols] = np.where(unit, np.where(m > 0.0, 1.0, xu), hi)
        outer[..., cols] = t <= 1.0
    ends = np.empty(T.shape + (4,))
    ends[..., 0] = np.where(outer, 0.0, x1)
    ends[..., 1] = np.where(outer, x1, x2)
    ends[..., 2] = np.where(outer, x2, 1.0)
    ends[..., 3] = 1.0
    return ends


_SPECIAL_LEVELS = [0.0, -0.0, -1.0, -1e300, 1.0, 20.0, 1e300, np.inf]


@st.composite
def _superlevel_inputs(draw):
    """1-6 alternatives of both kinds, mu in [-80, 80] with exact zeros, and
    levels with 0, negatives, exactly 1, 20, 1e300 and inf."""
    alts = draw(st.lists(st.builds(
        sf.AlternativeModel, st.sampled_from([sf.GAUSSIAN, sf.CAUCHY]),
        st.sampled_from([0.0, -0.0, -80.0, 80.0]) | st.floats(-80.0, 80.0)),
        min_size=1, max_size=6))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    levels = np.exp(rng.uniform(-12.0, 12.0, (63, len(alts))))
    special = rng.random(levels.shape) < 0.3
    levels[special] = rng.choice(_SPECIAL_LEVELS, int(special.sum()))
    return alts, levels


@settings(max_examples=150, deadline=None)
@given(inputs=_superlevel_inputs())
def test_cached_columns_change_no_bit(inputs):
    # the same bytes as the uncached reference in each shape, from a fresh
    # AltColumns per call and from one reused across all of them
    alts, levels = inputs
    shared = distmodel.AltColumns(alts)
    for shape_levels in (levels[0], levels[:1], levels):
        want = _superlevel_ends_reference(alts, shape_levels).tobytes()
        assert distmodel.superlevel_ends(alts, shape_levels).tobytes() == want
        assert distmodel.superlevel_ends(shared, shape_levels).tobytes() == want


def test_superlevel_ends_without_alternatives():
    cols = distmodel.AltColumns([])
    assert distmodel.superlevel_ends(cols, np.empty(0)).shape == (0, 4)
    assert distmodel.superlevel_ends(cols, np.empty((63, 0))).shape == (63, 0, 4)


def _count_calls(monkeypatch, owner, name):
    """Wrap owner.name so that each call appends to the returned list."""
    calls, real = [], getattr(owner, name)

    def counted(*args, **kwargs):
        calls.append(1)
        return real(*args, **kwargs)

    monkeypatch.setattr(owner, name, counted)
    return calls


@pytest.mark.parametrize("exp, value", [("1", 1000), ("2a", 2)])
def test_bounds_build_their_columns_once(monkeypatch, exp, value):
    net = sf.builtin_config(exp).instantiate(value)[0]
    deltas, lipschitz = sf.measure_alt_heterogeneity(net, 0.2)
    built = _count_calls(monkeypatch, distmodel.AltColumns, "__init__")
    sf.alt_heterogeneity_bounds(net, 0.2, deltas, lipschitz)
    assert len(built) == 1


def test_optimal_region_builds_its_signal_once(monkeypatch):
    signals = _count_calls(monkeypatch, oracleopt, "_signal")
    sf.optimal_region(sf.builtin_config("2c").instantiate(3)[0], 0.2)
    assert len(signals) == 1


def _scalar_search(feasible):
    """c_alpha_search as a plain loop, one feasibility test per level."""
    if feasible(0.0):
        return 0.0
    hi = 1.0
    while not feasible(hi):
        hi *= 2.0
        if hi > 1e12:
            return hi
    lo = hi / 2.0 if hi > 1.0 else 0.0
    # past 2^33 adjacent floats are further apart than the tolerance
    while hi - lo > oracleopt._LEVEL_TOL and lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    return hi


@st.composite
def _networks(draw):
    n = draw(st.integers(1, 5))
    w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    return sf.NetworkModel([
        sf.NodeModel(float(q), draw(st.just(1.0) | st.floats(0.05, 0.99)),
                     sf.AlternativeModel(draw(st.sampled_from([sf.GAUSSIAN, sf.CAUCHY])),
                                         draw(st.floats(-4.0, 8.0))))
        for q in w / w.sum()
    ])


class TestCAlphaSearch:
    def test_all_null_network(self):
        net = sf.NetworkModel([sf.NodeModel(1.0, 1.0, sf.gaussian_alt(0.0))])
        c = sf.c_alpha_search(net, 0.2)
        regions, fdr, power = sf.optimal_region(net, 0.2)
        assert regions == [[]]
        assert fdr == 0.0 and power == 0.0

    def test_single_node_matches_threshold_oracle(self):
        # monotone Gaussian density: the optimum is a threshold region whose
        # endpoint the fixed-point solver finds independently
        node = sf.NodeModel(1.0, 0.5, sf.gaussian_alt(2.0))
        net = sf.NetworkModel([node])
        alpha = 0.2
        regions, fdr, power = sf.optimal_region(net, alpha)
        assert len(regions[0]) == 1
        a, b = regions[0][0]
        tau = sf.asymptotic_threshold(
            lambda t: sf.mixture_cdf(node, t), min(alpha / node.r0, 1.0)
        )
        assert a == pytest.approx(0.0, abs=1e-6)
        assert b == pytest.approx(tau, abs=1e-4)

    def test_fdr_at_boundary(self):
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 0.6, sf.gaussian_alt(2.0)),
            sf.NodeModel(0.5, 0.8, sf.gaussian_alt(3.0)),
        ])
        _, fdr, _ = sf.optimal_region(net, 0.2)
        assert 0.2 - 1e-4 <= fdr <= 0.2

    def test_rare_signal(self):
        # one node, r0 = 0.9999, Gaussian mu = 4: the optimal region is a
        # threshold [0, tau) far narrower than any uniform grid step
        node = sf.NodeModel(1.0, 0.9999, sf.gaussian_alt(4.0))
        alpha = 0.2
        tau = optimize.brentq(
            lambda t: node.r0 * t / sf.mixture_cdf(node, t) - alpha, 1e-12, 1e-2,
            xtol=1e-20, rtol=1e-14,
        )
        assert tau == pytest.approx(9.86e-6, rel=1e-3)
        got = sf.asymptotic_threshold(lambda t: sf.mixture_cdf(node, t), alpha / node.r0)
        assert got == pytest.approx(tau, rel=1e-8)
        regions, fdr, power = sf.optimal_region(sf.NetworkModel([node]), alpha)
        assert len(regions[0]) == 1 and regions[0][0][0] == 0.0
        assert regions[0][0][1] == pytest.approx(tau, rel=1e-4)
        assert fdr == pytest.approx(alpha, abs=1e-5)
        assert power == pytest.approx(sf.alt_cdf(node.alt, tau), abs=1e-6)
        assert power == pytest.approx(0.394, abs=1e-3)

    @settings(max_examples=60, deadline=None)
    @given(net=_networks(), alpha=st.floats(0.02, 0.5))
    def test_replay_matches_scalar_bisection(self, net, alpha):
        def feasible(t):
            regions = [sf.level_region(nd, t) for nd in net.nodes]
            return sf.selection_asymptotics(regions, net)[0] <= alpha

        assert sf.c_alpha_search(net, alpha) == _scalar_search(feasible)

    @settings(max_examples=60, deadline=None)
    @given(net=_networks(), lo=st.floats(0.0, 50.0), width=st.floats(1e-6, 50.0))
    def test_fdr_table_is_selection_asymptotics(self, net, lo, width):
        tree = oracleopt._bisection_tree(lo, lo + width)
        ts = np.concatenate([oracleopt._DOUBLING_LEVELS[:8], tree])
        want = [sf.selection_asymptotics([sf.level_region(nd, t) for nd in net.nodes], net)[0]
                for t in ts.tolist()]
        assert oracleopt._fdr_table(oracleopt._signal(net), ts).tolist() == want

    @pytest.mark.parametrize("below, above, expect", [
        (0.3, 0.1, None),  # FDR crosses alpha back and forth in [2.5, 4.5]
        (0.3, 0.3, 2.0 ** 40),  # never feasible
        (0.1, 0.1, 0.0),  # feasible at 0
    ])
    def test_replay_follows_non_monotone_feasibility(self, monkeypatch, below, above, expect):
        alpha = 0.2

        def fdr(sig, ts):
            ts = np.asarray(ts, dtype=float)
            # alpha -+ about 4 ulp, flipping with sin(1e7 t)
            band = alpha + np.where(np.sin(1e7 * ts) > 0.0, 1e-16, -1e-16)
            if below == above:  # no crossing and no band
                return np.full(ts.shape, below)
            return np.where(ts < 2.5, below, np.where(ts > 4.5, above, band))

        seen = {}

        def feasible(t):
            seen[t] = bool(fdr(None, [t])[0] <= alpha)
            return seen[t]

        monkeypatch.setattr(oracleopt, "_fdr_table", fdr)
        want = _scalar_search(feasible)
        assert sf.c_alpha_search(sf.NetworkModel([sf.NodeModel(1.0, 0.5, sf.gaussian_alt(2.0))]),
                                 alpha) == want
        if expect is None:
            assert {ok for t, ok in seen.items() if 2.5 <= t <= 4.5} == {True, False}
        else:
            assert want == expect


class TestSmallAlpha:
    """exp 1's network at n = 1000: feasible levels past 2^33, where adjacent
    floats are further apart than the level tolerance, and past 2^39."""

    NET = sf.builtin_config("1").instantiate(1000)[0]

    @pytest.mark.parametrize("alpha", [1e-9, 1e-12])
    def test_returns_within_alpha(self, monkeypatch, alpha):
        # at 1e-12 the bracket is [2^37, 2^38]: the search ends where the
        # midpoint is an end of the bracket, about 10 tables in all
        tables = []
        real = oracleopt._fdr_table

        def counted(sig, ts):
            tables.append(len(ts))
            if len(tables) > 12:
                raise AssertionError("the level search does not end")
            return real(sig, ts)

        monkeypatch.setattr(oracleopt, "_fdr_table", counted)
        c = sf.c_alpha_search(self.NET, alpha)
        assert 2.0 ** 27 < c < 2.0 ** 39
        tables.clear()
        regions, fdr, power = sf.optimal_region(self.NET, alpha)
        assert all(len(r) == 1 for r in regions)
        assert 0.0 < fdr <= alpha and power > 0.0

    def test_no_feasible_level_rejects_nothing(self):
        assert sf.c_alpha_search(self.NET, 1e-15) == 2.0 ** 40
        assert sf.optimal_region(self.NET, 1e-15) == ([[]] * 5, 0.0, 0.0)

    def test_one_quantile_per_table(self, monkeypatch):
        # five Gaussian nodes: each FDR table and the final
        # selection_asymptotics take the normal quantile of all their
        # interval ends in one call
        calls, per_table, per_selection = [0], [], []
        real_ndtri, real_table = distmodel.ndtri, oracleopt._fdr_table
        real_selection = oracleopt.selection_asymptotics

        def ndtri(p):
            calls[0] += 1
            return real_ndtri(p)

        def counted(into, real):
            def wrapped(*args):
                before = calls[0]
                out = real(*args)
                into.append(calls[0] - before)
                return out
            return wrapped

        monkeypatch.setattr(distmodel, "ndtri", ndtri)
        monkeypatch.setattr(oracleopt, "_fdr_table", counted(per_table, real_table))
        monkeypatch.setattr(oracleopt, "selection_asymptotics",
                            counted(per_selection, real_selection))
        sf.optimal_region(self.NET, 0.2)
        assert len(per_table) >= 2 and set(per_table) == {1}
        assert per_selection == [1]


class TestOptimalRegion:
    def test_noise_node_excluded(self):
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 0.5, sf.gaussian_alt(3.0)),
            sf.NodeModel(0.5, 0.5, sf.gaussian_alt(0.0)),
        ])
        regions, fdr, power = sf.optimal_region(net, 0.2)
        assert regions[1] == []
        assert len(regions[0]) >= 1
        assert fdr <= 0.2

    def test_dominates_interval_selections(self):
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 0.6, sf.gaussian_alt(2.0)),
            sf.NodeModel(0.5, 0.8, sf.gaussian_alt(3.0)),
        ])
        _, _, opt_power = sf.optimal_region(net, 0.2)
        for eps in (0.05, 0.02, 0.005):
            grid, sel = sf.oracle_interval_set(net, eps, 0.2)
            regions = sf.selection_regions(grid, sel, len(net))
            _, power = sf.selection_asymptotics(regions, net)
            assert power <= opt_power + 1e-9

    def test_beats_threshold_procedure(self):
        # non-monotone Cauchy density: the optimum strictly beats the best
        # single-threshold region
        net = sf.NetworkModel([sf.NodeModel(1.0, 0.5, sf.cauchy_alt(6.0))])
        node = net.nodes[0]
        _, fdr, power = sf.optimal_region(net, 0.2)
        tau = sf.asymptotic_threshold(lambda t: sf.mixture_cdf(node, t), 0.4)
        _, thr_power = sf.selection_asymptotics([[(0.0, tau)]], net)
        assert power >= thr_power - 1e-9

    def test_power_at_most_one(self):
        # an all-null node next to a node that rejects everything: the
        # summed masses give 0.2 / 0.19999999999999996 = 1 + 2e-16
        net = sf.NetworkModel([sf.NodeModel(0.5, 1.0, sf.gaussian_alt(2.0)),
                               sf.NodeModel(0.5, 0.6, sf.gaussian_alt(3.0))])
        regions, fdr, power = sf.optimal_region(net, 0.9)
        assert regions == [[], [(0.0, 1.0)]]
        assert power == 1.0
        assert fdr == pytest.approx(0.6, rel=1e-15)


class TestAllNullNetwork:
    """r0* = 1: the optimum rejects nothing, and the bounds are undefined."""

    NET = sf.NetworkModel([sf.NodeModel(0.5, 1.0, sf.gaussian_alt(2.0)),
                           sf.NodeModel(0.5, 1.0, sf.cauchy_alt(3.0))])

    def test_optimal_region_rejects_nothing(self):
        assert sf.optimal_region(self.NET, 0.2) == ([[], []], 0.0, 0.0)

    @pytest.mark.parametrize("bound", [
        lambda net: sf.fdr_bound_null_heterogeneity(net, 0.2),
        lambda net: sf.fdr_bound_null_heterogeneity(net, 0.2, limiting_r0=[1.0, 1.0]),
        lambda net: sf.measure_alt_heterogeneity(net, 0.2),
        lambda net: sf.alt_heterogeneity_bounds(net, 0.2, [0.0, 0.0], 0.0),
    ], ids=["null", "null_limiting", "measure_alt", "alt"])
    def test_bounds_raise(self, bound):
        with pytest.raises(ValueError, match="the all-null case is degenerate"):
            bound(self.NET)


class TestHeterogeneityDelta:
    def test_homogeneous(self):
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 0.7, sf.gaussian_alt(1.0)),
            sf.NodeModel(0.5, 0.7, sf.gaussian_alt(2.0)),
        ])
        assert sf.heterogeneity_delta(net) == 0.0

    def test_symmetric(self):
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 0.4, sf.gaussian_alt(1.0)),
            sf.NodeModel(0.5, 0.6, sf.gaussian_alt(1.0)),
        ])
        assert sf.heterogeneity_delta(net) == pytest.approx(0.1)

    def test_weighted(self):
        net = sf.NetworkModel([
            sf.NodeModel(0.9, 0.5, sf.gaussian_alt(1.0)),
            sf.NodeModel(0.1, 0.9, sf.gaussian_alt(1.0)),
        ])
        assert sf.heterogeneity_delta(net) == pytest.approx(0.072)


class TestNullHeterogeneityBound:
    def test_homogeneous_consistent(self):
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 0.7, sf.gaussian_alt(2.0)),
            sf.NodeModel(0.5, 0.7, sf.gaussian_alt(2.5)),
        ])
        bound = sf.fdr_bound_null_heterogeneity(net, 0.2)
        assert bound == pytest.approx(0.7 * 0.2, abs=1e-12)

    def test_homogeneous_general(self):
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 0.7, sf.gaussian_alt(2.0)),
            sf.NodeModel(0.5, 0.7, sf.gaussian_alt(2.5)),
        ])
        bound = sf.fdr_bound_null_heterogeneity(net, 0.2, limiting_r0=[0.7, 0.7])
        assert bound == pytest.approx(0.2, abs=1e-12)

    def test_heterogeneous_exceeds_base(self):
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 0.6, sf.gaussian_alt(2.5)),
            sf.NodeModel(0.5, 0.8, sf.gaussian_alt(2.5)),
        ])
        bound = sf.fdr_bound_null_heterogeneity(net, 0.2)
        assert bound is not None
        assert bound > net.r0_star * 0.2

    def test_inapplicable_when_dispersion_dominates(self):
        # weak signal: rejection mass tiny, dispersion huge
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 0.35, sf.gaussian_alt(0.3)),
            sf.NodeModel(0.5, 0.99, sf.gaussian_alt(0.3)),
        ])
        assert sf.fdr_bound_null_heterogeneity(net, 0.05) is None

    def test_undershooting_estimates_rejected(self):
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 0.6, sf.gaussian_alt(2.0)),
            sf.NodeModel(0.5, 0.8, sf.gaussian_alt(2.0)),
        ])
        with pytest.raises(ValueError):
            sf.fdr_bound_null_heterogeneity(net, 0.2, limiting_r0=[0.5, 0.8])


def _crossing(alt, beta, lo):
    """brentq's root of F(t) - beta t on [lo, 1], h(lo) > 0."""
    return optimize.brentq(lambda t: sf.alt_cdf(alt, t) - beta * t, lo, 1.0,
                           xtol=1e-300, rtol=1e-14)


def _cauchy_density_end(mu, beta):
    """brentq's right end b of {f > beta} for a Cauchy shift mu: the root
    of f - beta between the density peak, where cot(pi x) solves
    c^2 - mu c - 1 = 0, and x = 1/2, where f = 1 / (mu^2 + 1)."""
    peak = np.arctan2(1.0, 0.5 * (mu + np.hypot(mu, 2.0))) / np.pi
    return optimize.brentq(lambda x: sf.alt_pdf(sf.cauchy_alt(mu), x) - beta, peak, 0.5,
                           xtol=1e-15, rtol=1e-15)


def _threshold(node, beta):
    return oracleopt._node_thresholds(distmodel.AltColumns([node.alt]), [beta])[0]


class TestNodeThreshold:
    """oracleopt._node_thresholds, the largest root of F(t) = beta t, against
    brentq on brackets that do not use superlevel_ends."""

    # h(tiny) > 0 for these: the Gaussian density exceeds beta near 0; at
    # mu = 80 the right end of {f > beta} underflows to 0.0
    @pytest.mark.parametrize("mu", [0.5, 2.5, 10.0, 40.0, 80.0])
    def test_gaussian(self, mu):
        alt = sf.gaussian_alt(mu)
        got = _threshold(sf.NodeModel(1.0, 0.5, alt), 12.0)
        assert got > 0.0
        assert got == pytest.approx(_crossing(alt, 12.0, _TINY), rel=1e-9, abs=0.0)

    @pytest.mark.parametrize("alt", [sf.gaussian_alt(0.0), sf.gaussian_alt(-1.5),
                                     sf.cauchy_alt(0.0), sf.cauchy_alt(-1.5)])
    def test_nonpositive_shift_is_zero(self, alt):
        # F(t) <= t < beta t on (0, 1]
        assert _threshold(sf.NodeModel(1.0, 0.5, alt), 12.0) == 0.0

    @pytest.mark.parametrize("beta", [0.5, 1.0])
    def test_slope_at_most_one_is_one(self, beta):
        node = sf.NodeModel(1.0, 0.5, sf.gaussian_alt(2.0))
        assert _threshold(node, beta) == 1.0

    # F(b) = 12 b near mu = 6.02: below it h < 0 on (0, 1], above it the
    # crossing lies beyond b
    @pytest.mark.parametrize("mu", [5.0, 5.5, 6.0, 6.1, 6.5])
    def test_cauchy_switch(self, mu):
        alt = sf.cauchy_alt(mu)
        b = _cauchy_density_end(mu, 12.0)
        got = _threshold(sf.NodeModel(1.0, 0.5, alt), 12.0)
        if sf.alt_cdf(alt, b) - 12.0 * b < 0.0:
            assert mu <= 6.0 and got == 0.0
        else:
            assert mu >= 6.1 and got > b
            assert got == pytest.approx(_crossing(alt, 12.0, b), rel=1e-9, abs=0.0)

    def test_rare_signal(self):
        net = sf.NetworkModel([sf.NodeModel(1.0, 0.9999, sf.gaussian_alt(4.0))])
        beta = sf.beta_slope(0.2, net.r0_star)
        got = _threshold(net.nodes[0], beta)
        assert got == pytest.approx(_crossing(net.nodes[0].alt, beta, _TINY), rel=1e-9, abs=0.0)

    def test_points_per_crossing(self, monkeypatch):
        # five Gaussian nodes, every crossing in (0, 1): count the points at
        # which their CDFs and densities are taken, whatever the solver
        net = sf.builtin_config("1").instantiate(1000)[0]
        points = []
        real = distmodel.ndtri
        monkeypatch.setattr(distmodel, "ndtri", lambda p: points.append(np.size(p)) or real(p))
        alts = distmodel.AltColumns(nd.alt for nd in net.nodes)
        taus = oracleopt._node_thresholds(alts, np.full(len(net), sf.beta_slope(0.2, net.r0_star)))
        assert np.all((taus > 0.0) & (taus < 1.0))
        assert sum(points) <= 64 * len(net)

    # beta from 1.01: nearer 1, F(t) and beta t agree to rounding on wide spans
    @settings(max_examples=100, deadline=None)
    @given(kind=st.sampled_from([sf.GAUSSIAN, sf.CAUCHY]), mu=st.floats(-5.0, 90.0),
           beta=st.floats(1.01, 1e4))
    def test_matches_grid_scan(self, kind, mu, beta):
        alt = sf.AlternativeModel(kind, mu)
        want = sf.asymptotic_threshold(lambda t: sf.alt_cdf(alt, t), 1.0 / beta)
        got = _threshold(sf.NodeModel(1.0, 0.5, alt), beta)
        assert got == pytest.approx(want, rel=1e-9, abs=0.0)


class TestAltHeterogeneityBounds:
    def _net(self, mus):
        return sf.NetworkModel([
            sf.NodeModel(0.5, 0.7, sf.gaussian_alt(mus[0])),
            sf.NodeModel(0.5, 0.7, sf.gaussian_alt(mus[1])),
        ])

    def test_homogeneous_limits(self):
        net = self._net((2.0, 2.0))
        out = sf.alt_heterogeneity_bounds(net, 0.2, [0.0, 0.0], 0.0)
        assert out is not None
        fdr_bound, power_bound = out
        assert fdr_bound == pytest.approx(net.r0_star * 0.2, abs=1e-12)
        beta = sf.beta_slope(0.2, net.r0_star)
        tau = sf.asymptotic_threshold(lambda t: sf.pooled_alt_cdf(net, t), 1.0 / beta)
        assert power_bound == pytest.approx(sf.pooled_alt_cdf(net, tau))

    def test_measured_inputs(self):
        net = self._net((1.8, 2.2))
        deltas, c = sf.measure_alt_heterogeneity(net, 0.2)
        assert np.all(deltas >= 0.0) and c > 0.0
        out = sf.alt_heterogeneity_bounds(net, 0.2, deltas, c)
        assert out is not None
        fdr_bound, power_bound = out
        assert fdr_bound > net.r0_star * 0.2
        assert 0.0 < power_bound < 1.0

    def test_remark_dprime_bound(self):
        # Delta' <= max delta / (alpha (beta* - C)), since r0* + r1* beta* = 1/alpha
        rng = np.random.default_rng(4)
        for _ in range(50):
            alpha = rng.uniform(0.05, 0.5)
            q = rng.dirichlet(np.ones(3))
            r0 = rng.uniform(0.3, 0.95, 3)
            net = sf.NetworkModel(
                [sf.NodeModel(qi, ri, sf.gaussian_alt(2.0)) for qi, ri in zip(q, r0)]
            )
            beta = sf.beta_slope(alpha, net.r0_star)
            deltas = rng.uniform(0, 0.1, 3)
            c = rng.uniform(0.0, 0.9 * beta)
            r0s, r1s = net.r0, 1.0 - net.r0
            dprime = float(np.dot(net.q, (r0s + beta * r1s) * deltas)) / (beta - c)
            assert dprime <= deltas.max() / (alpha * (beta - c)) + 1e-12
            identity = net.r0_star + net.r1_star * beta
            assert identity == pytest.approx(1.0 / alpha, rel=1e-9)

    def test_bracket_at_zero(self):
        # the Cauchy nodes' slope crossings are 0 and the Gaussian ones'
        # positive; Gaussian mu > 0 makes the pooled density unbounded at 0
        net = sf.builtin_config("2c").instantiate(2)[0]
        deltas, c = sf.measure_alt_heterogeneity(net, 0.2)
        assert deltas.shape == (5,) and np.all(deltas >= 0.0)
        assert c == np.inf
        assert sf.alt_heterogeneity_bounds(net, 0.2, deltas, c) is None

    def test_first_step_from_zero_is_resolved(self):
        # the bracket is [0, 0.085], whose first linear step is 8.5e-6, and
        # node 2's gap to the pooled CDF peaks near t = 7e-9, inside it
        net = sf.NetworkModel([
            sf.NodeModel(0.548, 0.56, sf.gaussian_alt(7.73)),
            sf.NodeModel(0.331, 0.641, sf.cauchy_alt(-1.19)),
            sf.NodeModel(0.121, 0.898, sf.gaussian_alt(3.44)),
        ])
        deltas, c = sf.measure_alt_heterogeneity(net, 0.2)
        ts = np.geomspace(1e-12, 1e-6, 20_001)
        rows = list(distmodel.AltColumns(nd.alt for nd in net.nodes).grid(ts)[0])
        sup = float(np.max(np.abs(rows[2] - oracleopt._pooled(net, rows))))
        assert sup == pytest.approx(0.6225, abs=1e-4)
        assert deltas[2] == pytest.approx(sup, rel=1e-3)
        assert c == np.inf and sf.alt_heterogeneity_bounds(net, 0.2, deltas, c) is None

    def test_one_quantile_per_grid(self, monkeypatch):
        # five Gaussian nodes, all crossings positive: the CDF and density
        # rows of each AltColumns.grid call share one z = Q^{-1}(t), and the
        # coarse pass and its bounds leave most of the grid unevaluated
        net = sf.builtin_config("1").instantiate(1000)[0]
        sizes, grids = [], []
        real, real_grid = distmodel.normal_tail_inv, distmodel.AltColumns.grid
        monkeypatch.setattr(distmodel, "normal_tail_inv", lambda p: sizes.append(np.size(p))
                            or real(p))
        monkeypatch.setattr(distmodel.AltColumns, "grid", lambda self, t: grids.append(
            np.size(t)) or real_grid(self, t))
        _, c = sf.measure_alt_heterogeneity(net, 0.2)
        assert np.isfinite(c)
        assert sizes == grids and sum(grids) < oracleopt._SUP_GRID

    def test_inapplicable_lipschitz(self):
        net = self._net((1.8, 2.2))
        beta = sf.beta_slope(0.2, net.r0_star)
        assert sf.alt_heterogeneity_bounds(net, 0.2, [0.01, 0.01], beta + 1.0) is None

    def test_invalid_inputs(self):
        net = self._net((1.8, 2.2))
        with pytest.raises(ValueError):
            sf.alt_heterogeneity_bounds(net, 0.2, [-0.1, 0.0], 0.5)


def test_pooled_alt_cdf_one_quantile_per_grid(monkeypatch):
    # five Gaussian nodes: one call on a grid takes z = Q^{-1}(t) once
    net = sf.builtin_config("1").instantiate(1000)[0]
    sizes = []
    real = distmodel.normal_tail_inv
    monkeypatch.setattr(distmodel, "normal_tail_inv", lambda p: sizes.append(np.size(p))
                        or real(p))
    sf.pooled_alt_cdf(net, np.linspace(1e-4, 0.5, 777))
    assert sizes == [777]


def test_pooled_alt_cdf_is_mixture_of_nodes():
    net = sf.NetworkModel([
        sf.NodeModel(0.4, 0.6, sf.gaussian_alt(2.0)),
        sf.NodeModel(0.6, 0.8, sf.cauchy_alt(3.0)),
    ])
    t = 0.1
    expect = (
        0.4 * 0.4 * sf.alt_cdf(net.nodes[0].alt, t)
        + 0.6 * 0.2 * sf.alt_cdf(net.nodes[1].alt, t)
    ) / net.r1_star
    assert sf.pooled_alt_cdf(net, t) == pytest.approx(expect)


def _full_grid_heterogeneity(net, alpha):
    """measure_alt_heterogeneity evaluated at every point of its grid, one
    row per node: the reference its pruned form must equal bit for bit."""
    bs = sf.beta_slope(alpha, net.r0_star)
    alts = distmodel.AltColumns(nd.alt for nd in net.nodes)
    taus = oracleopt._node_thresholds(alts, np.full(len(net), bs))
    lo, hi = float(taus.min()), float(taus.max())
    if hi - lo < 1e-9:
        lo = max(lo - 1e-3, 1e-6)
        hi = min(hi + 1e-3, 1.0 - 1e-6)
    ts = np.linspace(lo, hi, oracleopt._SUP_GRID)
    grid = procedures._THRESHOLD_GRID
    if lo == 0.0:
        ts = np.concatenate([[0.0], grid[grid < ts[1]], ts[1:]])
    skip = int(lo == 0.0)
    cdf_rows, pdf_rows = alts.grid(ts[skip:])
    rows = [np.concatenate([[0.0], row]) if skip else row for row in cdf_rows]
    pooled = oracleopt._pooled(net, rows)
    deltas = np.array([float(np.max(np.abs(row - pooled))) for row in rows])
    if lo == 0.0 and any(nd.r1 > 0.0 and nd.alt.kind == sf.GAUSSIAN and nd.alt.mu > 0.0
                         for nd in net.nodes):
        return deltas, np.inf
    return deltas, float(np.max(oracleopt._pooled(net, pdf_rows)))


def _heterogeneity_reprs(measure, net, alpha):
    deltas, c = measure(net, alpha)
    return repr(deltas.tolist()), repr(c), repr(sf.alt_heterogeneity_bounds(net, alpha, deltas, c))


def _oracle_networks():
    """The network of every sweep point of experiments 1, 2a, 2b and 2c,
    the one-node rare-signal network, a bracket from 0 whose first linear
    step holds a node's largest distance, and a network whose pooled
    density peaks inside a cell that no distance bound reaches (at alpha
    0.2 and 0.5)."""
    nets = [sf.builtin_config(exp).instantiate(v)[0] for exp in ("1", "2a", "2b", "2c")
            for v in sf.builtin_config(exp).sweep_values]
    return nets + [
        sf.NetworkModel([sf.NodeModel(1.0, 0.9999, sf.gaussian_alt(4.0))]),
        sf.NetworkModel([
            sf.NodeModel(0.548, 0.56, sf.gaussian_alt(7.73)),
            sf.NodeModel(0.331, 0.641, sf.cauchy_alt(-1.19)),
            sf.NodeModel(0.121, 0.898, sf.gaussian_alt(3.44)),
        ]),
        sf.NetworkModel([
            sf.NodeModel(0.43, 0.76, sf.cauchy_alt(0.66)),
            sf.NodeModel(0.11, 0.6, sf.cauchy_alt(0.66)),
            sf.NodeModel(0.45, 0.57, sf.gaussian_alt(0.0)),
            sf.NodeModel(0.01, 0.4, sf.cauchy_alt(6.92)),
        ]),
    ]


class TestPrunedGrid:
    """measure_alt_heterogeneity, which evaluates only the grid cells that
    may hold a maximum, against every point of its grid."""

    @pytest.mark.parametrize("alpha", [0.05, 0.2, 0.5])
    def test_oracle_networks(self, alpha):
        for net in _oracle_networks():
            assert (_heterogeneity_reprs(sf.measure_alt_heterogeneity, net, alpha)
                    == _heterogeneity_reprs(_full_grid_heterogeneity, net, alpha))

    # a few alternatives that several nodes may share, mu = 0 and negative
    # Cauchy shifts included
    @settings(max_examples=200, deadline=None)
    @given(
        alts=st.lists(st.tuples(st.sampled_from([sf.GAUSSIAN, sf.CAUCHY]),
                                st.one_of(st.just(0.0), st.floats(-4.0, 9.0))),
                      min_size=1, max_size=4),
        nodes=st.lists(st.tuples(st.integers(0, 3), st.floats(0.05, 1.0),
                                 st.sampled_from([0.3, 0.55, 0.8, 0.95, 1.0])),
                       min_size=1, max_size=6),
        alpha=st.sampled_from([0.05, 0.2, 0.5]),
    )
    def test_random_networks(self, alts, nodes, alpha):
        total = sum(w for _, w, _ in nodes)
        net = sf.NetworkModel([
            sf.NodeModel(w / total, r0, sf.AlternativeModel(*alts[k % len(alts)]))
            for k, w, r0 in nodes])
        assume(net.r0_star < 1.0)
        assert (_heterogeneity_reprs(sf.measure_alt_heterogeneity, net, alpha)
                == _heterogeneity_reprs(_full_grid_heterogeneity, net, alpha))

    @pytest.mark.parametrize("mu", [3.0, 0.7, -0.7, -3.0])
    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_cauchy_cells_hold_their_extremes(self, mu, sign):
        # the density of a Cauchy shift peaks at cot(pi t) = (mu + sqrt(mu^2
        # + 4))/2 and dips at the other root, (mu - sqrt(mu^2 + 4))/2; a
        # cell around either, wide enough that its ends are far from that
        # value, must be bounded by it
        alts = distmodel.AltColumns([sf.cauchy_alt(mu)])
        c = 0.5 * (mu + sign * math.sqrt(mu * mu + 4.0))
        t = math.atan2(1.0, c) / math.pi
        for left, right in ((0.05, 0.08), (0.002, 0.15), (0.2, 0.01)):
            ends = np.array([max(t - left, 1e-6), min(t + right, 1.0 - 1e-6)])
            pdf = np.array(list(alts.grid(ends)[1]))
            upper, lower = oracleopt._cell_density_bounds(alts, ends, pdf)
            f = sf.alt_pdf(alts.alts[0], np.linspace(*ends, 20_001))
            assert lower[0, 0] <= f.min() * (1.0 + 1e-12)
            assert f.max() <= upper[0, 0] * (1.0 + 1e-12)
            # the extreme is inside the cell, not at its ends
            assert (f.max() > pdf.max() * (1.0 + 1e-6)) or (f.min() < pdf.min() * (1.0 - 1e-6))
