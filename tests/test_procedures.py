import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import starfdr as sf
from starfdr import estimators, procedures


def bh_brute_force(pvalues, alpha):
    """Independent oracle: direct maximization over k."""
    ps = sorted(pvalues)
    m = len(ps)
    for k in range(m, 0, -1):
        if ps[k - 1] <= alpha * k / m:
            return k
    return 0


class TestBH:
    def test_hand_example(self):
        out = sf.bh_procedure([0.01, 0.04, 0.03, 0.9], 0.1)
        assert out.k_hat == 3
        assert out.tau == pytest.approx(0.075)
        assert sorted(out.rejected.tolist()) == [0, 1, 2]

    def test_nothing_rejected(self):
        out = sf.bh_procedure([1.0, 1.0, 1.0], 0.2)
        assert out.k_hat == 0 and out.rejected.size == 0

    def test_single(self):
        out = sf.bh_procedure([0.01], 0.05)
        assert out.k_hat == 1 and out.tau == pytest.approx(0.05)

    def test_empty_input(self):
        assert sf.bh_procedure([], 0.1).k_hat == 0

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            sf.bh_procedure([0.5], 0.0)

    def test_matches_brute_force_random(self):
        rng = np.random.default_rng(3)
        for _ in range(500):
            m = rng.integers(1, 30)
            p = np.round(rng.random(m), 3)
            alpha = rng.uniform(0.01, 0.99)
            assert sf.bh_procedure(p, alpha).k_hat == bh_brute_force(p, alpha)

    def test_ties_at_threshold_all_rejected(self):
        # two p-values exactly at tau
        out = sf.bh_procedure([0.05, 0.05, 0.9, 0.9], 0.1)
        assert out.k_hat == 2
        assert sorted(out.rejected.tolist()) == [0, 1]


def _step_up_full(rows, levels):
    """bh_step_up written out over every column: per row, the largest k with
    P_(k) <= level*k/m, or 0."""
    ks = []
    for row, level in zip(rows, levels):
        ok = row <= level * np.arange(1, row.size + 1) / row.size
        ks.append(int(np.flatnonzero(ok)[-1]) + 1 if ok.any() else 0)
    return ks


@st.composite
def _step_up_inputs(draw, t=st.integers(1, 4)):
    """(t, m) ascending rows with ties, p = 0 and 1 and values exactly at
    some row's level*k/m, and (t,) levels mixing NaN and (0, 1]."""
    t, m = draw(t), draw(st.integers(0, 30))
    levels = draw(st.lists(st.one_of(st.just(math.nan), st.floats(0.001, 1.0)),
                           min_size=t, max_size=t))
    finite = [level for level in levels if not math.isnan(level)] or [0.2]
    at_threshold = st.builds(lambda level, k: level * k / m,
                             st.sampled_from(finite), st.integers(1, max(m, 1)))
    value = st.one_of(st.sampled_from([0.0, 0.01, 0.05, 1.0]), st.floats(0.0, 1.0),
                      at_threshold)
    rows = draw(st.lists(st.lists(value, min_size=m, max_size=m), min_size=t, max_size=t))
    return np.sort(np.array(rows, dtype=float).reshape(t, m), axis=1), np.array(levels)


@settings(max_examples=400, deadline=None)
@given(inputs=_step_up_inputs())
@example(inputs=(np.empty((1, 0)), np.array([0.2])))
@example(inputs=(np.array([[0.2]]), np.array([0.2])))
@example(inputs=(np.array([[0.0]]), np.array([math.nan])))
# level*m/m = 0.1*3/3 rounds above 0.1, and row 0 passes only at k = 3, on it
@example(inputs=(np.array([[0.1, 0.1 * 3 / 3, 0.1 * 3 / 3], [0.0, 0.0, 0.5]]),
                 np.array([0.1, math.nan])))
@example(inputs=(np.array([[1.0, 1.0, 1.0], [0.0, 1.0, 1.0]]), np.array([1.0, 0.5])))
def test_step_up_prefix_matches_full_formula(inputs):
    rows, levels = inputs
    k = procedures.bh_step_up(rows, levels)
    assert k.shape == (rows.shape[0],)
    assert k.tolist() == _step_up_full(rows, levels)


def _step_up_column_minima(rows, levels):
    """bh_step_up as it was before its one-row path and its block screen:
    the prefix length c from the column minima of every row, one row
    included, and every rank of the prefix compared at once."""
    t, m = rows.shape
    if m == 0:
        return [0] * t
    top = np.fmax.reduce(levels * m / m, initial=-np.inf)
    c = int(np.searchsorted(np.fmin.reduce(rows, axis=0, initial=np.inf), top, "right"))
    if c == 0:
        return [0] * t
    ok = rows[:, :c] <= levels[:, None] * np.arange(1, c + 1) / m
    return np.where(ok.any(axis=1), c - np.argmax(ok[:, ::-1], axis=1), 0).tolist()


@settings(max_examples=400, deadline=None)
@given(inputs=_step_up_inputs(t=st.just(1)))
@example(inputs=(np.empty((1, 0)), np.array([0.2])))  # m = 0
@example(inputs=(np.array([[0.5, 0.7, 0.9]]), np.array([0.2])))  # c = 0
@example(inputs=(np.array([[0.0, 0.0, 1.0]]), np.array([math.nan])))
@example(inputs=(np.array([[0.0, 0.3, 0.3, 1.0]]), np.array([1.0])))
@example(inputs=(np.array([[0.1, 0.1, 0.1, 1.0]]), np.array([0.4])))
def test_one_row_step_up_matches_column_minima_formula(inputs):
    """A single row is its own column minima, so the one-row path gives the
    k of the formula that reduced over columns."""
    rows, levels = inputs
    assert procedures.bh_step_up(rows, levels).tolist() == _step_up_column_minima(rows, levels)


_B = procedures._STEP_UP_BLOCK


@st.composite
def _screened_inputs(draw):
    """(t, m) ascending rows a few step-up blocks long and (t,) levels mixing
    NaN, 1 and (0, 1).  Each row runs under its line level*k/m up to its
    own drawn rank and over it after, so rows cross in different blocks;
    ties, p at 0 and 1 and values exactly on the line or one ulp above it
    are mixed in."""
    t = draw(st.integers(1, 4))
    m = draw(st.one_of(st.sampled_from([0, 1, _B - 1, _B, _B + 1, 2 * _B + 1]),
                       st.integers(0, 5 * _B)))
    levels = np.array(draw(st.lists(st.one_of(st.just(math.nan), st.just(1.0),
                                              st.floats(0.001, 1.0)),
                                    min_size=t, max_size=t)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    k = np.arange(1, m + 1)
    rows = np.empty((t, m))
    for r, level in enumerate(levels):
        line = (0.3 if math.isnan(level) else level) * k / m
        cross = draw(st.integers(0, m))
        factor = np.where(k <= cross, rng.uniform(0.0, 1.0, m), rng.uniform(1.0, 3.0, m))
        row = np.minimum(line * factor, 1.0)
        special = rng.random(m) < draw(st.sampled_from([0.0, 0.05, 0.3]))
        row[special] = rng.choice([0.0, 1.0, *line, *np.nextafter(line, 1.0)], special.sum())
        ties = rng.random(m) < draw(st.sampled_from([0.0, 0.2]))
        row[1:][ties[1:]] = row[:-1][ties[1:]]
        rows[r] = row
    return np.sort(rows, axis=1), levels


def _on_line(level, m, c, tail):
    """One row of m p-values: the first c exactly on level*k/m, the rest tail."""
    k = np.arange(1, m + 1)
    return np.where(k <= c, level * k / m, tail)


@settings(max_examples=400, deadline=None)
@given(inputs=_screened_inputs())
@example(inputs=(np.empty((2, 0)), np.array([0.2, 1.0])))  # m = 0
# prefixes c = B - 1, B and B + 1, one row passing at c and one nowhere
@example(inputs=(np.array([_on_line(0.5, 3 * _B, _B - 1, 0.9)]), np.array([0.5])))
@example(inputs=(np.array([_on_line(0.5, 3 * _B, _B, 0.9)]), np.array([0.5])))
@example(inputs=(np.array([_on_line(0.5, 3 * _B, _B + 1, 0.9)]), np.array([0.5])))
@example(inputs=(np.array([_on_line(0.5, 3 * _B, _B + 1, 0.9),
                           np.full(3 * _B, 0.6)]), np.array([0.5, 0.5])))
# a NaN-level row and a row that passes nowhere beside rows crossing late
@example(inputs=(np.array([_on_line(0.5, 4 * _B, 3 * _B + 5, 0.9),
                           np.zeros(4 * _B),
                           _on_line(0.5, 4 * _B, 2 * _B, 0.95),
                           np.full(4 * _B, 0.95)]),
                 np.array([0.5, math.nan, 0.5, 0.5])))
@example(inputs=(np.array([np.full(3 * _B, 0.0), np.full(3 * _B, 1.0)]),
                 np.array([1.0, 1.0])))
def test_screened_step_up_matches_full_prefix(inputs):
    """The block screen gives the k of comparing every rank of the prefix."""
    rows, levels = inputs
    k = procedures.bh_step_up(rows, levels)
    assert k.shape == (rows.shape[0],)
    assert k.tolist() == _step_up_column_minima(rows, levels)


def test_sorted_row_kernels_allocate_no_full_length_temporary():
    """On one sorted row of 300,000 p-values (2.3 MiB), neither the step-up
    at level 0.5 (a prefix of about 150,000 ranks) nor the max-spacing
    estimate allocates as much as a quarter of the row at once."""
    row = np.sort(np.random.default_rng(0).uniform(size=300_000))[None]
    assert 140_000 < np.searchsorted(row[0], 0.5) < 160_000
    s = sf.default_spacing_schedule(row.size)
    for kernel in (lambda: procedures.bh_step_up(row, np.array([0.5])),
                   lambda: estimators.spacing_values(row, s)):
        tracemalloc.start()
        try:
            kernel()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < row.nbytes / 4


class TestAdaptiveBH:
    def test_no_adaptation(self):
        p = [0.01, 0.2, 0.5]
        a = sf.adaptive_bh(p, 0.1, sf.oracle_estimate(1.0))
        b = sf.bh_procedure(p, 0.1)
        assert a.k_hat == b.k_hat and a.tau == b.tau

    def test_doubles_level(self):
        p = [0.01, 0.2, 0.5]
        a = sf.adaptive_bh(p, 0.1, sf.oracle_estimate(0.5))
        b = sf.bh_procedure(p, 0.2)
        assert a.k_hat == b.k_hat and a.tau == b.tau

    def test_level_clamps_to_one(self):
        p = [0.9, 0.99]
        a = sf.adaptive_bh(p, 0.2, sf.oracle_estimate(0.05))
        b = sf.bh_procedure(p, 1.0)
        assert a.k_hat == b.k_hat

    def test_zero_estimate_rejected(self):
        with pytest.raises(ValueError):
            sf.adaptive_bh([0.5], 0.1, sf.oracle_estimate(0.0))


class TestCalibrationMath:
    def test_beta_slope_values(self):
        assert sf.beta_slope(0.2, 0.5) == pytest.approx(9.0)
        assert sf.beta_slope(1.0, 0.3) == pytest.approx(1.0)
        assert sf.beta_slope(0.2, 0.0) == pytest.approx(5.0)

    def test_beta_slope_degenerate(self):
        with pytest.raises(ValueError):
            sf.beta_slope(0.2, 1.0)

    def test_local_alpha_values(self):
        assert sf.local_alpha(9.0, 0.5) == pytest.approx(0.2)
        assert sf.local_alpha(1.0, 0.3) == pytest.approx(1.0)
        assert sf.local_alpha(43.0 / 3.0, 0.9) == pytest.approx(1.0 / (7.0 / 3.0))

    def test_calibrate_two_nodes(self):
        lv = sf.estimate_levels([[0.5, 0.9]], [100, 100], 0.2)
        assert lv.r0_star[0] == pytest.approx(0.7)
        assert lv.beta[0] == pytest.approx(43.0 / 3.0, rel=1e-9)
        assert lv.prop_match[0, 0] == pytest.approx(0.1304347826, rel=1e-6)
        assert lv.prop_match[0, 1] == pytest.approx(0.4285714286, rel=1e-6)

    def test_single_node_reduces_to_alpha(self):
        lv = sf.estimate_levels([[0.73]], [500], 0.2)
        assert lv.prop_match[0, 0] == pytest.approx(0.2, abs=1e-12)

    def test_homogeneous_no_correction(self):
        lv = sf.estimate_levels([[0.8, 0.8, 0.8]], [100, 300, 50], 0.1)
        assert np.allclose(lv.prop_match[0], 0.1, atol=1e-12)

    def test_integer_message_variant(self):
        lv = sf.estimate_levels([[0.5, 0.9]], [100, 100], 0.2)
        assert lv.m0[0].tolist() == [50, 90]
        assert lv.r0_star[0] == pytest.approx(0.7)

    def test_integer_rounding(self):
        lv = sf.estimate_levels([[0.5]], [3], 0.2)
        # floor(1.5 + 0.5) = 2
        assert lv.m0[0].tolist() == [2]

    def test_levels_come_from_the_wire_counts(self):
        # demo 02's sample, where no r0_hat * m_i is a whole number; the levels
        # once came from the raw estimates (node 0: 0.1792, the protocol 0.1794)
        net = sf.NetworkModel([
            sf.NodeModel(q, r0, sf.gaussian_alt(mu)) for q, r0, mu in
            zip((5 / 15, 4 / 15, 3 / 15, 2 / 15, 1 / 15), (0.5, 0.6, 0.7, 0.8, 0.9),
                (1.25, 2.5, 3.75, 5.0, 6.25))
        ])
        sizes = (1000, 800, 600, 400, 200)
        s = sf.sample_trial(net, sizes, mean_jitter=0.5, seed=7)
        ests = [sf.make_estimator("spacing")(p, i) for i, p in enumerate(s.pvalues)]
        assert all(e.value * m_i != round(e.value * m_i) for e, m_i in zip(ests, sizes))
        lv = sf.estimate_levels([[e.value for e in ests]], sizes, 0.2)
        res = sf.run_proportion_matching(s, 0.2)
        for i, m_i in enumerate(sizes):
            r0q = min(lv.m0[0, i] / m_i, procedures.R0_STAR_CLAMP)
            assert lv.prop_match[0, i] == min(sf.local_alpha(lv.beta[0], r0q), 1.0)
            direct = sf.bh_procedure(s.pvalues[i], lv.prop_match[0, i])
            assert np.array_equal(res.outcomes[i].rejected, direct.rejected)

    def test_all_null_estimates_reject_nothing(self):
        # the counts sum to m: every level is NaN, so no node rejects
        lv = sf.estimate_levels([[1.0, 1.0]], [10, 10], 0.2)
        assert np.isnan(lv.prop_match).all()

    @pytest.mark.parametrize("estimate", [1.5, -0.1, math.inf])
    def test_estimate_out_of_range_raises(self, estimate):
        with pytest.raises(ValueError, match="estimates"):
            sf.estimate_levels([[estimate, 0.5]], [10, 10], 0.2)

    def test_elementwise_formulas_match_scalar_calls(self):
        rng = np.random.default_rng(0)
        alphas, r0s = rng.uniform(0.01, 1.0, 50), rng.uniform(0.0, 0.99, 50)
        betas = sf.beta_slope(alphas, r0s)
        levels = sf.local_alpha(betas, r0s[::-1])
        for i, (a, r) in enumerate(zip(alphas.tolist(), r0s.tolist())):
            assert betas[i] == sf.beta_slope(a, r)
            assert levels[i] == sf.local_alpha(sf.beta_slope(a, r), r0s[::-1][i].item())

    @pytest.mark.parametrize("alpha, r0", [
        ([0.2, 0.0], [0.5, 0.5]), ([0.2, 1.5], [0.5, 0.5]), ([0.2, np.nan], [0.5, 0.5]),
        ([0.2, 0.2], [0.5, 1.0]), ([0.2, 0.2], [-0.1, 0.5]), ([0.2, 0.2], [0.5, np.nan]),
    ])
    def test_beta_slope_any_bad_element_raises(self, alpha, r0):
        with pytest.raises(ValueError):
            sf.beta_slope(np.array(alpha), np.array(r0))

    @pytest.mark.parametrize("beta, r0", [
        ([9.0, 0.5], [0.5, 0.5]), ([9.0, np.nan], [0.5, 0.5]),
        ([9.0, 9.0], [0.5, 1.0]), ([9.0, 9.0], [np.nan, 0.5]),
    ])
    def test_local_alpha_any_bad_element_raises(self, beta, r0):
        with pytest.raises(ValueError):
            sf.local_alpha(np.array(beta), np.array(r0))

    @settings(max_examples=100, deadline=None)
    @given(r0=st.floats(0.0, 0.99), alpha=st.floats(0.01, 1.0))
    def test_fixed_point(self, r0, alpha):
        beta = sf.beta_slope(alpha, r0)
        assert sf.local_alpha(beta, r0) == pytest.approx(alpha, abs=1e-12)


def _scalar_levels(r0s, sizes, alpha, adaptive):
    """The per-node formulas of run_no_comm, run_pooled_bh and
    run_proportion_matching before they shared estimate_levels, with
    proportion matching's all-null node rule: a node whose count m0_i is
    m_i rejects nothing.  (no_comm, pooled_bh, m0, prop_match) for one
    trial."""
    failed = [math.isnan(r) or r == 0.0 for r in r0s]
    no_comm = [math.nan if f else min(alpha / r, 1.0) for f, r in zip(failed, r0s)]
    pooled = [min(alpha / (1.0 if f else r), 1.0) for f, r in zip(failed, r0s)]
    m0 = [int(math.floor((1.0 if f else r) * mi + 0.5)) for f, r, mi in zip(failed, r0s, sizes)]
    m = sum(sizes)
    if sum(m0) >= m:
        return no_comm, pooled, m0, [math.nan] * len(r0s)
    r0_star = min(sum(m0) / m, procedures.R0_STAR_CLAMP)
    if not adaptive:
        target = alpha
    else:
        target = min(alpha / r0_star, 1.0) if r0_star > 0.0 else 1.0
    beta = max(sf.beta_slope(target, r0_star) if target < 1.0 else 1.0, 1.0)
    matched = [
        math.nan if c >= mi
        else min(sf.local_alpha(beta, min(c / mi, procedures.R0_STAR_CLAMP)), 1.0)
        for c, mi in zip(m0, sizes)
    ]
    return no_comm, pooled, m0, matched


_ESTIMATE = st.one_of(
    st.sampled_from([math.nan, 0.0, 1.0]),
    st.floats(0.0, 1.0, exclude_min=True, exclude_max=True),
)


@st.composite
def _level_inputs(draw):
    """(t, n) estimates mixing NaN, 0, 1 and (0, 1), and sizes m_i >= 0."""
    t, n = draw(st.integers(1, 4)), draw(st.integers(1, 5))
    sizes = draw(st.lists(st.integers(0, 60), min_size=n, max_size=n).filter(any))
    r0 = draw(st.lists(st.lists(_ESTIMATE, min_size=n, max_size=n), min_size=t, max_size=t))
    return np.array(r0, dtype=float), np.array(sizes)


class TestEstimateLevels:
    FIELDS = ("r0", "no_comm", "pooled_bh", "m0", "r0_star", "beta", "prop_match")

    @settings(max_examples=300, deadline=None)
    @given(inputs=_level_inputs(), alpha=st.floats(0.01, 1.0))
    @example(inputs=(np.array([[np.nan, 0.0, np.nan], [0.0, 0.0, 0.0]]), np.array([5, 0, 7])),
             alpha=0.2)
    @example(inputs=(np.array([[1.0, 1.0], [0.999, 1.0]]), np.array([40, 60])), alpha=0.2)
    @example(inputs=(np.array([[0.3, 0.5, 0.25]]), np.array([10, 0, 4])), alpha=1.0)
    def test_rows_match_scalar_protocol_formulas(self, inputs, alpha):
        r0, sizes = inputs
        for adaptive in (False, True):
            full = sf.estimate_levels(r0, sizes, alpha, adaptive)
            for r, row in enumerate(r0):
                one = sf.estimate_levels(row[None], sizes, alpha, adaptive)
                for name in self.FIELDS:
                    np.testing.assert_array_equal(getattr(full, name)[r], getattr(one, name)[0])
                want = _scalar_levels(row.tolist(), sizes.tolist(), alpha, adaptive)
                got = (full.no_comm[r], full.pooled_bh[r], full.m0[r], full.prop_match[r])
                for w, g in zip(want, got):
                    np.testing.assert_array_equal(g, np.array(w, dtype=g.dtype))
                failed = np.isnan(row) | (row == 0.0)
                assert np.isnan(full.prop_match[r][failed | (full.m0[r] == sizes)]).all()
                if failed.all() or (full.m0[r] == sizes).all():
                    assert np.isnan(full.prop_match[r]).all()
                if failed.all():
                    assert np.isnan(full.no_comm[r]).all()

    def test_invalid_alpha(self):
        with pytest.raises(ValueError):
            sf.estimate_levels([[0.5]], [10], 0.0)


def _full_scan(cdf, alpha):
    """asymptotic_threshold with its grid scanned all the way to t = 1."""
    ts = procedures._THRESHOLD_GRID
    pos = np.flatnonzero(np.asarray(cdf(ts), dtype=float) - ts / alpha >= 0.0)
    if pos.size == 0:
        return 0.0
    i = int(pos[-1])
    if i == ts.size - 1:
        return 1.0
    return procedures.largest_crossing(lambda t: np.asarray(cdf(t), dtype=float) - t / alpha,
                                       float(ts[i]), float(ts[i + 1]))


@st.composite
def _model_cdfs(draw):
    """A node's mixture CDF, a network's mixture CDF or its pooled
    alternative CDF, for a random network of mixed kinds."""
    n = draw(st.integers(1, 4))
    w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=n, max_size=n)))
    net = sf.NetworkModel([
        sf.NodeModel(float(q), draw(st.floats(0.05, 0.999)),
                     sf.AlternativeModel(draw(st.sampled_from([sf.GAUSSIAN, sf.CAUCHY])),
                                         draw(st.floats(-4.0, 40.0))))
        for q in w / w.sum()
    ])
    which = draw(st.sampled_from(["node", "network", "pooled"]))
    if which == "node":
        return lambda t: sf.mixture_cdf(net.nodes[0], t)
    if which == "network":  # the q-weighted average of the node mixtures
        return lambda t: sum(nd.q * sf.mixture_cdf(nd, t) for nd in net.nodes)
    return lambda t: sf.pooled_alt_cdf(net, t)


class TestAsymptoticThreshold:
    # alpha from 1e-300: below, t / alpha overflows on the full grid
    @settings(max_examples=100, deadline=None)
    @given(cdf=_model_cdfs(), alpha=st.floats(1e-300, 1.0, exclude_max=True))
    @example(cdf=lambda t: np.minimum(1.0, 0.3 * np.sqrt(t) + 0.7 * np.asarray(t)), alpha=0.5)
    def test_scan_stopped_at_alpha_is_the_full_scan(self, cdf, alpha):
        assert sf.asymptotic_threshold(cdf, alpha) == _full_scan(cdf, alpha)

    def test_all_null_is_zero(self):
        assert sf.asymptotic_threshold(lambda t: np.asarray(t, dtype=float), 0.2) == 0.0

    def test_sqrt_closed_form(self):
        # sqrt(t) = 5t  =>  t = 1/25
        got = sf.asymptotic_threshold(lambda t: np.sqrt(np.asarray(t, dtype=float)), 0.2)
        assert got == pytest.approx(0.04, abs=1e-6)

    def test_matches_large_m_bh(self):
        node = sf.NodeModel(1.0, 0.5, sf.gaussian_alt(2.0))
        tau = sf.asymptotic_threshold(lambda t: sf.mixture_cdf(node, t), 0.2)
        net = sf.NetworkModel([node])
        s = sf.sample_trial(net, (10**6,), seed=0)
        emp = sf.bh_procedure(s.pvalues[0], 0.2).tau
        assert tau == pytest.approx(emp, abs=0.005)

    def test_supremum_crossing(self):
        # piecewise curve crossing the line twice: must return the larger root
        def cdf(t):
            t = np.asarray(t, dtype=float)
            return np.minimum(1.0, 0.3 * np.sqrt(t) + 0.7 * t)

        got = sf.asymptotic_threshold(cdf, 0.5)
        # 0.3 sqrt(t) + 0.7 t = 2t  =>  sqrt(t) = 3/13... solve: t = (0.3/1.3)^2
        assert got == pytest.approx((0.3 / 1.3) ** 2, abs=1e-6)


class TestNewtonCrossing:
    def test_flat_start_bisects(self):
        # h' = -3 t^2 is -0.0 at the smallest normal float: no Newton step there
        got = procedures.newton_crossing(lambda t: (0.3 - t**3, -3.0 * t * t), 0.0, 1.0)
        assert got == pytest.approx(0.3 ** (1 / 3), rel=1e-10)

    def test_below_zero_at_start_is_zero(self):
        assert procedures.newton_crossing(lambda t: (-t, -1.0), 0.0, 1.0) == 0.0

    @pytest.mark.parametrize("root", [1e-300, 1e-12, 0.3, 1.0 - 1e-9])
    def test_root_of_concave_curve(self, root):
        # h = sqrt(root) - sqrt(t): convex, steep near 0 and flat towards 1
        def h_slope(t):
            return math.sqrt(root) - math.sqrt(t), -0.5 / math.sqrt(t)

        got = procedures.newton_crossing(h_slope, 0.0, 1.0)
        assert got == pytest.approx(root, rel=1e-10)


class TestConfusionMetrics:
    def _sample(self, labels):
        labels = [np.asarray(l, dtype=bool) for l in labels]
        return sf.LabeledSample([np.zeros(len(l)) for l in labels], labels)

    def test_no_rejections(self):
        s = self._sample([[True, False, False]])
        glob, per = sf.confusion_metrics([sf.RejectionOutcome(np.array([], int), 0, 0.0)], s)
        assert glob.fdp == 0.0 and glob.tdp == 0.0

    def test_perfect(self):
        s = self._sample([[True, False, False]])
        out = sf.RejectionOutcome(np.array([1, 2]), 2, 0.5)
        glob, per = sf.confusion_metrics([out], s)
        assert glob.fdp == 0.0 and glob.tdp == 1.0

    def test_arithmetic(self):
        labels = [True] * 1 + [False] * 3 + [True] * 6 + [False] * 7
        s = self._sample([labels])
        out = sf.RejectionOutcome(np.array([0, 1, 2, 3]), 4, 0.5)
        glob, _ = sf.confusion_metrics([out], s)
        assert glob.fdp == pytest.approx(0.25)
        assert glob.tdp == pytest.approx(0.3)

    def test_out_of_range(self):
        s = self._sample([[True, False]])
        with pytest.raises(IndexError):
            sf.confusion_metrics([sf.RejectionOutcome(np.array([5]), 1, 0.5)], s)


@settings(max_examples=60, deadline=None)
@given(
    p=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=25),
    a1=st.floats(0.01, 0.99),
    a2=st.floats(0.01, 0.99),
)
def test_khat_monotone_in_alpha(p, a1, a2):
    lo, hi = sorted((a1, a2))
    assert sf.bh_procedure(p, lo).k_hat <= sf.bh_procedure(p, hi).k_hat


@settings(max_examples=60, deadline=None)
@given(p=st.lists(st.floats(0.0, 1.0), min_size=1, max_size=25), alpha=st.floats(0.01, 0.99))
def test_threshold_consistency(p, alpha):
    out = sf.bh_procedure(p, alpha)
    p = np.asarray(p)
    rejected = np.zeros(p.size, dtype=bool)
    rejected[out.rejected] = True
    assert np.all(p[rejected] <= out.tau)
    assert np.all(p[~rejected] > out.tau)
    assert out.rejected.size == np.count_nonzero(p <= out.tau)


@settings(max_examples=80, deadline=None)
@given(
    rv=st.lists(
        st.tuples(st.integers(0, 20), st.integers(0, 20)), min_size=1, max_size=6
    )
)
def test_pooling_mediant_inequality(rv, ):
    # global FDP <= max node FDP, for any per-node (R, V) with V <= R
    pairs = [(max(r, v), v) for r, v in rv]
    fdps = [v / max(r, 1) for r, v in pairs]
    R = sum(r for r, _ in pairs)
    V = sum(v for _, v in pairs)
    assert V / max(R, 1) <= max(fdps) + 1e-12
