import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import starfdr as sf
from starfdr import estimators
from starfdr.estimators import DegenerateSpacingError


class TestStorey:
    def test_hand_count(self):
        est = sf.storey_estimate([0.01, 0.02, 0.03, 0.9], 0.5)
        assert est.value == pytest.approx(0.5)
        assert est.method == "storey"

    def test_clamped_at_one(self):
        assert sf.storey_estimate([0.1, 0.2, 0.6, 0.8], 0.5).value == 1.0

    def test_empty_upper_tail(self):
        assert sf.storey_estimate([0.1, 0.2, 0.3], 0.5).value == 0.0

    def test_errors(self):
        with pytest.raises(ValueError):
            sf.storey_estimate([], 0.5)
        with pytest.raises(ValueError):
            sf.storey_estimate([0.5], 0.0)

    def test_all_null_mean_near_one(self):
        # r0 = 1 data: the clamped estimator should average close to 1
        rng = np.random.default_rng(0)
        vals = [sf.storey_estimate(rng.random(1000), 0.5).value for _ in range(1000)]
        assert np.mean(vals) >= 0.97


class TestSpacing:
    def test_hand_enumeration(self):
        # spacings of width 2: 0.3-0.1, 0.6-0.2, 0.9-0.3 -> Z=0.6
        est = sf.spacing_estimate([0.1, 0.2, 0.3, 0.6, 0.9], 1)
        assert est.value == pytest.approx(2.0 / 3.0)

    def test_uniform_grid_forces_one(self):
        for m in (5, 20, 101):
            p = np.arange(1, m + 1) / (m + 1)
            assert sf.spacing_estimate(p, 1).value == 1.0

    def test_single_admissible_window(self):
        assert sf.spacing_estimate([0.0, 0.5, 1.0], 1).value == pytest.approx(2.0 / 3.0)

    def test_too_few_pvalues(self):
        with pytest.raises(ValueError):
            sf.spacing_estimate([0.1, 0.2], 1)

    def test_degenerate_ties(self):
        with pytest.raises(DegenerateSpacingError):
            sf.spacing_estimate([0.3, 0.3, 0.3, 0.3, 0.3], 1)

    def test_subnormal_spacing_is_one_without_warning(self):
        # 2s / (m Z) overflows for the subnormal Z = 1e-323
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert sf.spacing_estimate([0.0, 5e-324, 1e-323], 1).value == 1.0

    def test_invalid_s(self):
        with pytest.raises(ValueError):
            sf.spacing_estimate([0.1, 0.2, 0.3], 0)

    def test_statistical_consistency(self):
        # Gaussian one-sided model, r0=0.8: estimate should land near r0
        net = sf.NetworkModel([sf.NodeModel(1.0, 0.8, sf.gaussian_alt(2.0))])
        hits = 0
        trials = 40
        for t in range(trials):
            s = sf.sample_trial(net, (20_000,), seed=t)
            est = sf.spacing_estimate(s.pvalues[0], sf.default_spacing_schedule(20_000))
            hits += 0.76 <= est.value <= 0.86
        assert hits >= 0.9 * trials


class TestSchedule:
    def test_values(self):
        assert sf.default_spacing_schedule(1) == 1
        assert sf.default_spacing_schedule(100) == 25
        assert sf.default_spacing_schedule(10**5) == 3162

    def test_growth_conditions(self):
        # faster than log m, slower than m, over a wide range
        for m in (10, 10**3, 10**5, 10**7):
            s = sf.default_spacing_schedule(m)
            assert s < m
            assert s / np.log(m + 1) > 0.4

    def test_invalid(self):
        with pytest.raises(ValueError):
            sf.default_spacing_schedule(0)

    def test_small_m_is_estimable(self):
        # s is capped so that m >= 2s + 1 holds for every m >= 3
        for m in range(3, 40):
            s = sf.default_spacing_schedule(m)
            assert m >= 2 * s + 1
            sf.spacing_estimate(np.linspace(0.01, 0.99, m), s)


def test_oracle_estimate():
    est = sf.oracle_estimate(0.75)
    assert est.value == 0.75 and est.method == "oracle"


def test_estimate_range_validation():
    with pytest.raises(ValueError):
        sf.NullProportionEstimate(1.2, "storey")


@settings(max_examples=50, deadline=None)
@given(
    p=st.lists(st.floats(0.0, 1.0), min_size=3, max_size=40),
    seed=st.integers(0, 10**6),
)
def test_permutation_invariance(p, seed):
    rng = np.random.default_rng(seed)
    perm = rng.permutation(p)
    assert sf.storey_estimate(p, 0.5).value == sf.storey_estimate(perm, 0.5).value
    try:
        a = sf.spacing_estimate(p, 1).value
    except DegenerateSpacingError:
        with pytest.raises(DegenerateSpacingError):
            sf.spacing_estimate(perm, 1)
        return
    assert a == sf.spacing_estimate(perm, 1).value
    assert 0.0 <= a <= 1.0


def _spacing_one_shot(rows, s):
    """spacing_values as it was before it ran in chunks: every spacing of
    every row in one difference array."""
    m = rows.shape[1]
    z = np.max(rows[:, 2 * s:] - rows[:, : m - 2 * s], axis=1)
    with np.errstate(over="ignore"):
        return np.minimum(2.0 * s / (m * np.where(z == 0.0, np.nan, z)), 1.0)


@st.composite
def _spacing_inputs(draw):
    """(t, m) ascending rows and s: rows a few spacings wide or a few columns
    either side of a multiple of the chunk width, each row uniform, with
    ties and p at 0 and 1, fully tied (NaN) or with a subnormal Z (1)."""
    t, s = draw(st.integers(1, 5)), draw(st.integers(1, 30))
    step = estimators._SPACING_CHUNK // t
    width = draw(st.one_of(
        st.integers(1, 200),
        st.builds(lambda j, d: j * step + d, st.integers(1, 3), st.integers(-2, 2)),
    ))
    m = width + 2 * s
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    rows = np.empty((t, m))
    for r in range(t):
        kind = draw(st.sampled_from(["uniform", "ties", "tied", "subnormal"]))
        if kind == "uniform":
            rows[r] = rng.uniform(size=m) ** draw(st.sampled_from([1, 4]))
        elif kind == "ties":
            rows[r] = rng.integers(0, 5, m) / 4
        elif kind == "tied":
            rows[r] = draw(st.sampled_from([0.0, 0.4, 1.0]))
        else:
            rows[r] = rng.integers(0, 3, m) * 5e-324
    return np.sort(rows, axis=1), s


@settings(max_examples=200, deadline=None)
@given(inputs=_spacing_inputs())
def test_chunked_spacing_matches_one_shot(inputs):
    """The chunked running maximum gives the one-shot values bit for bit."""
    rows, s = inputs
    values = estimators.spacing_values(rows, s)
    assert values.tobytes() == _spacing_one_shot(rows, s).tobytes()
