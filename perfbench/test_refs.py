"""Self-tests of the benchmark's references, outside the package's suite.

    python3 -m pytest perfbench
"""

import itertools
import math

import numpy as np
import pytest
from scipy import stats

import refs


def _bh_brute_force(p, level):
    """Try every k from m down; reject all p-values at or below P_(k)."""
    ps = sorted(p)
    m = len(ps)
    for k in range(m, 0, -1):
        if ps[k - 1] <= level * k / m:
            return [i for i, x in enumerate(p) if x <= ps[k - 1]]
    return []


def test_bh_matches_brute_force():
    grid = [round(0.05 * k, 2) for k in range(21)]
    cases = [list(c) for m in range(1, 6)
             for c in itertools.combinations_with_replacement(grid, m)]
    rng = np.random.default_rng(0)
    cases += [list(rng.random(int(rng.integers(1, 60))) ** 3) for _ in range(2000)]
    for p in cases:
        for level in (0.1, 0.35):
            assert refs.bh_reject(p, level).tolist() == _bh_brute_force(p, level)


def test_max_spacing_matches_loop():
    rng = np.random.default_rng(1)
    for _ in range(200):
        p = rng.random(int(rng.integers(13, 300))) ** 2
        ps = sorted(p)
        m = len(ps)
        s = max(1, round(m ** 0.7))
        z = max(ps[j + s - 1] - ps[j - s - 1] for j in range(s + 1, m - s + 1))
        assert refs.max_spacing_r0(p) == min(2 * s / (m * z), 1.0)


def test_greedy_cells_match_loop():
    rng = np.random.default_rng(2)
    p = rng.random(500) ** 2
    L, ranked = refs.greedy_cells(p, 500, 1500, 0.8, 0.01)
    K = int(1 / L)
    counts = [sum(1 for x in p if (j - 1) * L < x <= j * L) for j in range(1, K + 1)]
    assert ranked == sorted(((c, j + 1) for j, c in enumerate(counts)),
                            key=lambda cj: (-cj[0], cj[1]))


def test_bit_counts():
    for n in range(1, 5000):
        assert refs.ceil_log2(n) == (math.ceil(math.log2(n)) if n > 1 else 0)
    assert refs.pooled_bits([3000, 2000]) == (320000, 0)
    assert refs.prop_match_bits([1000, 800, 600, 400, 200]) == (94, 24)


def _scan_masses(kind, mu, T):
    """Null and alternative mass of {f > T} by a fine scan of the density
    ratio on a grid that is log-spaced towards both ends of (0, 1)."""
    tail = np.logspace(-15, -2, 20_000)
    x = np.unique(np.concatenate([tail, np.linspace(1e-2, 1 - 1e-2, 200_000), 1 - tail]))
    if kind == refs.GAUSSIAN:
        z = stats.norm.isf(x)
        cdf = stats.norm.sf(z - mu)
        mid = stats.norm.isf(0.5 * (x[1:] + x[:-1]))
        ratio = stats.norm.pdf(mid - mu) / stats.norm.pdf(mid)
    else:
        cdf = stats.cauchy.sf(np.tan(np.pi * (0.5 - x)), loc=mu)
        mid = np.tan(np.pi * (0.5 - 0.5 * (x[1:] + x[:-1])))
        ratio = stats.cauchy.pdf(mid, loc=mu) / stats.cauchy.pdf(mid)
    inside = ratio > T
    return float(np.diff(x)[inside].sum()), float(np.diff(cdf)[inside].sum())


@pytest.mark.parametrize("kind, mu", [("gaussian", 1.0), ("gaussian", 4.0),
                                      ("cauchy", 1.0), ("cauchy", 3.0), ("cauchy", 6.0)])
@pytest.mark.parametrize("T", [0.3, 0.9, 1.0, 1.7, 5.0])
def test_closed_form_regions_match_scan(kind, mu, T):
    null, alt = refs._node_masses(kind, mu, math.log(T))
    scan_null, scan_alt = _scan_masses(kind, mu, T)
    assert null == pytest.approx(scan_null, abs=5e-5)
    assert alt == pytest.approx(scan_alt, abs=5e-5)


def test_rare_signal_optimum():
    log_t, fdr, power = refs.oracle_optimum([(1.0, 0.9999, "gaussian", 4.0)], 0.2)
    assert fdr == pytest.approx(0.2, abs=1e-12)
    assert refs.gaussian_threshold(0.9999, 4.0, log_t) == pytest.approx(9.86e-6, rel=1e-3)
    assert power == pytest.approx(0.394, abs=5e-4)
