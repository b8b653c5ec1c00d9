import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, signal, special, stats

import starfdr as sf
from starfdr import distmodel
from starfdr.distmodel import sample_rows

SRC = Path(__file__).resolve().parents[1] / "src"

ALTS = [
    sf.gaussian_alt(0.5),
    sf.gaussian_alt(1.0),
    sf.gaussian_alt(2.0),
    sf.gaussian_alt(3.0),
    sf.cauchy_alt(0.5),
    sf.cauchy_alt(1.0),
    sf.cauchy_alt(2.0),
    sf.cauchy_alt(5.0),
]


class TestNormalTail:
    def test_symmetry(self):
        assert sf.normal_tail(0.0) == pytest.approx(0.5)
        assert sf.normal_tail_inv(0.5) == pytest.approx(0.0, abs=1e-12)

    def test_quantile_value(self):
        # oracle: quadrature of the standard normal density over [1.6449, inf)
        x = sf.normal_tail_inv(0.05)
        tail, _ = integrate.quad(stats.norm.pdf, x, np.inf)
        assert tail == pytest.approx(0.05, abs=1e-9)

    def test_round_trip(self):
        ps = np.linspace(0.001, 0.999, 57)
        back = sf.normal_tail(sf.normal_tail_inv(ps))
        assert np.allclose(back, ps, rtol=1e-9)

    def test_strictly_decreasing(self):
        xs = np.linspace(-5, 5, 101)
        assert np.all(np.diff(sf.normal_tail(xs)) < 0)

    def test_inverse_domain(self):
        for bad in (0.0, 1.0, -0.1, 1.5):
            with pytest.raises(ValueError):
                sf.normal_tail_inv(bad)


class TestAltModel:
    def test_validation(self):
        with pytest.raises(ValueError):
            sf.AlternativeModel("laplace", 1.0)
        with pytest.raises(ValueError):
            sf.AlternativeModel(sf.GAUSSIAN, float("inf"))

    def test_cdf_null_is_uniform(self):
        ts = np.linspace(0, 1, 101)
        for alt in (sf.gaussian_alt(0.0), sf.cauchy_alt(0.0)):
            assert np.allclose(sf.alt_cdf(alt, ts), ts, atol=1e-9)

    def test_cdf_cauchy_value(self):
        # 1/2 + arctan(1)/pi = 0.75 at the median with unit shift
        assert sf.alt_cdf(sf.cauchy_alt(1.0), 0.5) == pytest.approx(0.75, abs=1e-12)

    def test_cdf_gaussian_value(self):
        # oracle: Monte Carlo of P(p <= 0.05) with shifted Gaussian draws
        val = sf.alt_cdf(sf.gaussian_alt(2.0), 0.05)
        rng = np.random.default_rng(7)
        p = sf.normal_tail(2.0 + rng.standard_normal(10**7))
        assert val == pytest.approx(np.mean(p <= 0.05), abs=1e-3)
        assert val == pytest.approx(0.63876, abs=1e-4)

    def test_cdf_endpoints(self):
        for alt in ALTS:
            assert sf.alt_cdf(alt, 0.0) == 0.0
            assert sf.alt_cdf(alt, 1.0) == 1.0

    def test_cdf_nondecreasing(self):
        ts = np.linspace(0, 1, 501)
        for alt in ALTS:
            assert np.all(np.diff(sf.alt_cdf(alt, ts)) >= 0)

    def test_pdf_null_is_one(self):
        ts = np.linspace(0.01, 0.99, 25)
        assert np.allclose(sf.alt_pdf(sf.gaussian_alt(0.0), ts), 1.0)
        assert sf.alt_pdf(sf.cauchy_alt(0.0), 0.25) == pytest.approx(1.0)

    def test_pdf_gaussian_value(self):
        # oracle: central finite difference of the CDF
        alt = sf.gaussian_alt(2.0)
        h = 1e-6
        fd = (sf.alt_cdf(alt, 0.05 + h) - sf.alt_cdf(alt, 0.05 - h)) / (2 * h)
        assert sf.alt_pdf(alt, 0.05) == pytest.approx(fd, rel=1e-4)
        assert sf.alt_pdf(alt, 0.05) == pytest.approx(3.6317, abs=1e-3)

    def test_pdf_matches_finite_differences(self):
        ts = np.arange(0.01, 0.995, 0.01)
        h = 1e-5
        for alt in ALTS:
            fd = (sf.alt_cdf(alt, ts + h) - sf.alt_cdf(alt, ts - h)) / (2 * h)
            assert np.allclose(sf.alt_pdf(alt, ts), fd, rtol=1e-3)

    def test_pdf_integrates_to_one(self):
        for alt in ALTS:
            total, _ = integrate.quad(lambda t: sf.alt_pdf(alt, t), 0.0, 1.0, limit=200)
            assert total == pytest.approx(1.0, abs=1e-6)

    def test_pdf_rejects_endpoints(self):
        for bad in (0.0, 1.0):
            with pytest.raises(ValueError):
                sf.alt_pdf(sf.gaussian_alt(1.0), bad)

    def test_scalar_path_matches_arrays(self):
        # alt_cdf_pdf, the one-point path Newton steps on, takes the array
        # paths' formulas: the CDF bit for bit, the density within 2 ulp
        rng = np.random.default_rng(0)
        ts = np.concatenate([rng.random(1500), np.geomspace(1e-300, 0.5, 500),
                             1.0 - np.geomspace(1e-16, 0.5, 250)])
        for kind in (sf.GAUSSIAN, sf.CAUCHY):
            for mu in (-6.0, -2.5, -0.3, 0.0, 0.4, 1.25, 2.0, 3.7, 8.0):
                alt = sf.AlternativeModel(kind, mu)
                cdf, pdf = np.array([distmodel.alt_cdf_pdf(alt, t) for t in ts.tolist()]).T
                assert np.array_equal(cdf, sf.alt_cdf(alt, ts))
                want = sf.alt_pdf(alt, ts)
                assert np.all(np.abs(pdf - want) <= 2.0 * np.spacing(want))


_NAN_NET = sf.NetworkModel([sf.NodeModel(0.6, 0.7, sf.gaussian_alt(2.0)),
                            sf.NodeModel(0.4, 0.5, sf.cauchy_alt(1.0))])


@pytest.mark.parametrize("cdf", [
    lambda x: sf.alt_cdf(sf.gaussian_alt(2.0), x),
    lambda x: sf.alt_cdf(sf.cauchy_alt(1.0), x),
    lambda x: sf.mixture_cdf(_NAN_NET.nodes[0], x),
    lambda x: sf.mixture_cdf(_NAN_NET.nodes[1], x),
    lambda x: sf.pooled_alt_cdf(_NAN_NET, x),
    lambda x: distmodel.MixtureColumns(_NAN_NET.nodes).cdf(
        x, (np.arange(np.size(x)) % 2).reshape(np.shape(x))),
], ids=["alt_gaussian", "alt_cauchy", "mixture_gaussian", "mixture_cauchy", "pooled",
        "mixture_columns"])
def test_cdf_is_nan_at_nan(cdf):
    # one rule for every CDF: NaN at a NaN point, the edges exact beside it
    got = np.asarray(cdf(np.array([np.nan, 0.0, 1.0, -0.5, 1.5, 0.3])))
    assert np.isnan(got[0]) and got[1:5].tolist() == [0.0, 1.0, 0.0, 1.0]
    assert 0.0 < got[5] < 1.0
    assert np.isnan(cdf(np.nan))


def test_pdf_is_nan_at_nan():
    for alt in (sf.gaussian_alt(2.0), sf.cauchy_alt(1.0)):
        assert np.isnan(sf.alt_pdf(alt, np.nan))


class TestMixture:
    def test_all_null(self):
        node = sf.NodeModel(1.0, 1.0, sf.gaussian_alt(2.0))
        assert sf.mixture_cdf(node, 0.4) == pytest.approx(0.4)

    def test_uniform_alternative(self):
        node = sf.NodeModel(1.0, 0.5, sf.gaussian_alt(0.0))
        assert sf.mixture_cdf(node, 0.7) == pytest.approx(0.7)

    def test_cauchy_mixture_value(self):
        node = sf.NodeModel(1.0, 0.5, sf.cauchy_alt(1.0))
        assert sf.mixture_cdf(node, 0.5) == pytest.approx(0.625)


# the ends of [0, 1] and the floats next to them, which the one-pass CDF
# takes without the normal quantile or the tangent
_EDGE_POINTS = [0.0, 1.0, 5e-324, np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg]


@st.composite
def _mixed_nodes(draw):
    n = draw(st.integers(1, 6))
    return [sf.NodeModel(1.0, draw(st.just(1.0) | st.floats(0.01, 0.99)),
                         sf.AlternativeModel(draw(st.sampled_from([sf.GAUSSIAN, sf.CAUCHY])),
                                             draw(st.just(0.0) | st.floats(-6.0, 8.0))))
            for _ in range(n)]


class TestMixtureColumns:
    @settings(max_examples=80, deadline=None)
    @given(nodes=_mixed_nodes(), data=st.data())
    def test_one_pass_is_mixture_cdf(self, nodes, data):
        # points of every node in one array, in any order: each equals the
        # node's own mixture_cdf bit for bit, including all-null nodes,
        # mu = 0 and mu < 0, and the points at and next to 0 and 1
        k = data.draw(st.integers(1, 40))
        x = np.array(data.draw(st.lists(st.sampled_from(_EDGE_POINTS) | st.floats(0.0, 1.0),
                                        min_size=k, max_size=k)))
        node = np.array(data.draw(st.lists(st.integers(0, len(nodes) - 1),
                                           min_size=k, max_size=k)))
        got = distmodel.MixtureColumns(nodes).cdf(x, node)
        want = [sf.mixture_cdf(nodes[i], t) for i, t in zip(node.tolist(), x.tolist())]
        assert got.tolist() == want

    def test_table_layout(self):
        # a (levels, nodes, 4) table with the node on axis 1, as the FDR
        # tables lay out their interval ends
        nodes = [sf.NodeModel(0.5, 0.6, sf.gaussian_alt(2.0)),
                 sf.NodeModel(0.5, 0.9, sf.cauchy_alt(-3.0))]
        x = np.random.default_rng(3).random((7, 2, 4))
        x[0, :, 0], x[1, :, 3] = 0.0, 1.0
        got = distmodel.MixtureColumns(nodes).cdf(x, np.arange(2)[:, None])
        for j, nd in enumerate(nodes):
            assert np.array_equal(got[:, j], sf.mixture_cdf(nd, x[:, j]))


class TestNetwork:
    def test_weights_must_sum_to_one(self):
        with pytest.raises(ValueError):
            sf.NetworkModel([sf.NodeModel(0.5, 0.7, sf.gaussian_alt(1.0))])

    def test_r0_star(self):
        net = sf.NetworkModel([
            sf.NodeModel(0.5, 0.4, sf.gaussian_alt(1.0)),
            sf.NodeModel(0.5, 0.6, sf.gaussian_alt(1.0)),
        ])
        assert net.r0_star == pytest.approx(0.5)
        assert net.r1_star == pytest.approx(0.5)


class TestDependenceSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            sf.DependenceSpec(1.0)
        with pytest.raises(ValueError):
            sf.DependenceSpec(-0.5)


NET1 = sf.NetworkModel([sf.NodeModel(1.0, 0.7, sf.gaussian_alt(2.0))])


class TestSampleTrial:
    def test_empty(self):
        s = sf.sample_trial(NET1, (0,), seed=0)
        assert s.m == 0 and s.m1 == 0

    def test_negative_counts_rejected(self):
        with pytest.raises(ValueError):
            sf.sample_trial(NET1, (-1,), seed=0)

    def test_all_null_uniform_ks(self):
        net = sf.NetworkModel([sf.NodeModel(1.0, 1.0, sf.gaussian_alt(2.0))])
        s = sf.sample_trial(net, (100,), seed=11)
        assert np.all(s.null_labels[0])
        # oracle: KS critical value 1.36/sqrt(100) at the 95% level
        d = stats.kstest(s.pvalues[0], "uniform").statistic
        assert d < 0.136

    def test_seed_reproducible(self):
        a = sf.sample_trial(NET1, (500,), seed=42, mean_jitter=0.5)
        b = sf.sample_trial(NET1, (500,), seed=42, mean_jitter=0.5)
        assert np.array_equal(a.pvalues[0], b.pvalues[0])
        assert np.array_equal(a.null_labels[0], b.null_labels[0])

    def test_zero_jitter_is_no_jitter(self):
        net = sf.builtin_config("2c").instantiate(3)[0]
        a = sf.sample_trial(net, (50, 40, 30, 20, 10), mean_jitter=0.0, seed=5)
        b = sf.sample_trial(net, (50, 40, 30, 20, 10), mean_jitter=None, seed=5)
        for x, y in zip(a.pvalues + a.null_labels, b.pvalues + b.null_labels):
            assert x.tobytes() == y.tobytes()

    def test_rho_zero_matches_independent(self):
        dep = sf.DependenceSpec(0.0)
        a = sf.sample_trial(NET1, (500,), dep, seed=5)
        b = sf.sample_trial(NET1, (500,), seed=5)
        assert np.array_equal(a.pvalues[0], b.pvalues[0])

    def test_ar_lag_one_autocorrelation(self):
        net = sf.NetworkModel([sf.NodeModel(1.0, 1.0, sf.gaussian_alt(0.0))])
        dep = sf.DependenceSpec(0.9)
        s = sf.sample_trial(net, (10_000,), dep, seed=1)
        # recover the underlying statistics from null p-values
        x = sf.normal_tail_inv(s.pvalues[0])
        x = x - x.mean()
        rho_hat = np.dot(x[1:], x[:-1]) / np.dot(x, x)
        assert rho_hat == pytest.approx(0.9, abs=0.03)

    def test_ar_draw_loads_no_scipy_signal(self):
        """In a fresh interpreter, import starfdr loads neither scipy.signal
        nor scipy.linalg, and an AR(1) draw loads scipy.linalg alone."""
        code = (
            "import sys, starfdr as sf\n"
            "before = {'scipy.signal', 'scipy.linalg'} & set(sys.modules)\n"
            "net = sf.builtin_config('3').instantiate(0.9)[0]\n"
            "sf.sample_trial(net, (50, 40, 30, 20, 10), sf.DependenceSpec(0.9))\n"
            "print(sorted(before), 'scipy.signal' in sys.modules, 'scipy.linalg' in sys.modules)\n"
        )
        path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["[]", "False", "True"]

    def test_total_count_rejected(self):
        """sizes are per node: a single total count is refused."""
        with pytest.raises(ValueError, match="one count per node"):
            sf.sample_trial(NET1, 1000, seed=0)

    def test_label_proportions(self):
        s = sf.sample_trial(NET1, (20_000,), seed=9)
        frac_null = np.mean(s.null_labels[0])
        assert frac_null == pytest.approx(0.7, abs=0.02)

    def test_cauchy_null_marginal_uniform(self):
        net = sf.NetworkModel([sf.NodeModel(1.0, 1.0, sf.cauchy_alt(3.0))])
        s = sf.sample_trial(net, (5000,), seed=8)
        assert stats.kstest(s.pvalues[0], "uniform").pvalue > 0.01


class TestLabeledSample:
    def test_built_from_lists(self):
        s = sf.LabeledSample([[0.01, 0.5], [1]], [[False, True], [1]])
        assert [p.dtype for p in s.pvalues] == [np.float64] * 2
        assert [lab.dtype for lab in s.null_labels] == [np.bool_] * 2
        assert s.m == 3 and s.m1 == 1 and s.m_per_node.tolist() == [2, 1]

    def test_immutable(self):
        p, labels = np.array([0.01, 0.5]), np.array([False, True])
        s = sf.LabeledSample([p], [labels])
        p[0], labels[0] = 0.9, True  # the sample holds its own copies
        assert s.pvalues[0][0] == 0.01 and not s.null_labels[0][0]
        with pytest.raises(ValueError):
            s.pvalues[0][0] = 0.5
        with pytest.raises(ValueError):
            s.null_labels[0][0] = True
        with pytest.raises(AttributeError):
            s.pvalues = ()

    def test_identity(self):
        a = sf.LabeledSample([[0.1]], [[True]])
        b = sf.LabeledSample([[0.1]], [[True]])
        assert a == a and a != b and len({a, b}) == 2

    @pytest.mark.parametrize("pvalues, labels", [
        ([[0.1, 0.2]], []),  # node counts differ
        ([[0.1, 0.2, 0.3]], [[True, False]]),  # lengths differ at a node
        ([[0.1], [0.2, 0.3]], [[True], [True, False, True]]),
        ([[[0.1, 0.2]]], [[[True, False]]]),  # not one row per node
        ([0.1], [True]),
    ])
    def test_mismatch_rejected(self, pvalues, labels):
        with pytest.raises(ValueError):
            sf.LabeledSample(pvalues, labels)

    @pytest.mark.parametrize("bad", [np.nan, -1e-300, 1.0 + 1e-15, np.inf])
    def test_bad_pvalue_rejected(self, bad):
        with pytest.raises(ValueError, match=r"node 1: p-values must lie in \[0, 1\]"):
            sf.LabeledSample([[0.1, 0.2], [0.3, bad]], [[True, False], [True, True]])


EPS, TOP = np.finfo(float).tiny, 1.0 - np.finfo(float).epsneg


def _per_trial_draw(net, sizes, dep, mean_jitter, rng):
    """The per-trial sampler that sample_rows replaced: node by node, draw
    and transform one trial's p-values."""
    rho = dep.rho
    pvals, labels = [], []
    for node, mi in zip(net.nodes, sizes):
        mu = node.alt.mu
        if mean_jitter is not None:
            mu = rng.uniform(mu - mean_jitter, mu + mean_jitter)
        is_null = rng.random(mi) < node.r0
        z = rng.standard_normal(mi)
        if mi and rho:
            x = z * np.sqrt(1.0 - rho * rho)
            x[0] = z[0]
            z = signal.lfilter([1.0], [1.0, -rho], x)
        shift = np.where(is_null, 0.0, mu)
        if node.alt.kind == sf.GAUSSIAN:
            p = sf.normal_tail(shift + z)
        else:
            u = np.clip(special.ndtr(z), EPS, TOP)
            p = 0.5 - np.arctan(shift + np.tan(np.pi * (u - 0.5))) / np.pi
        pvals.append(np.clip(p, EPS, TOP))
        labels.append(is_null)
    return pvals, labels


TAPER_0 = sf.DependenceSpec(0.0)
AR_9 = sf.DependenceSpec(0.9)
SAMPLER_CASES = {  # name: (experiment, sweep value, sizes or None for the config's, dep, jitter)
    "gaussian": ("1", 100, None, sf.DependenceSpec(), 0.5),
    "cauchy": ("2b", 4, None, sf.DependenceSpec(), None),
    "mixed": ("2c", 3, None, sf.DependenceSpec(), 0.5),
    "ar1": ("3", 0.9, None, AR_9, 0.5),
    "taper-rho0": ("2c", 2, None, TAPER_0, None),
    "zero-size-node": ("2c", 5, (40, 0, 30, 1, 25), AR_9, 0.5),
    "ar1-rho0.15": ("3", 0.15, None, sf.DependenceSpec(0.15), 0.5),
    "ar1-rho0.999999": ("3", 0.999999, None, sf.DependenceSpec(0.999999), 0.5),
    "mixed-ar1": ("2c", 3, None, AR_9, 0.25),
}


@pytest.mark.parametrize("t", [1, 7, 40])
@pytest.mark.parametrize("case", SAMPLER_CASES)
def test_sample_rows_match_per_trial_draws(case, t):
    exp, value, sizes, dep, jitter = SAMPLER_CASES[case]
    net, cfg_sizes, _, _, _ = sf.builtin_config(exp).instantiate(value)
    sizes = cfg_sizes if sizes is None else np.array(sizes)
    P, N = sample_rows(net, sizes, dep, jitter, [np.random.default_rng([9, r]) for r in range(t)])
    assert P.shape == N.shape == (t, sizes.sum())
    for r in range(t):
        want_p, want_n = _per_trial_draw(net, sizes, dep, jitter, np.random.default_rng([9, r]))
        s = sf.sample_trial(net, sizes, dep, jitter, seed=np.random.default_rng([9, r]))
        for got_p, got_n in ((np.concatenate(s.pvalues), np.concatenate(s.null_labels)),
                             (P[r], N[r])):
            assert got_p.tobytes() == np.concatenate(want_p).tobytes()
            assert np.array_equal(got_n, np.concatenate(want_n))
        assert [len(p) for p in s.pvalues] == sizes.tolist()


@settings(max_examples=30, deadline=None)
@given(
    mu=st.floats(-4, 4),
    kind=st.sampled_from([sf.GAUSSIAN, sf.CAUCHY]),
    t=st.floats(0.001, 0.999),
)
def test_cdf_bounds_property(mu, kind, t):
    alt = sf.AlternativeModel(kind, mu)
    v = sf.alt_cdf(alt, t)
    assert 0.0 <= v <= 1.0
    assert sf.alt_pdf(alt, t) >= 0.0
