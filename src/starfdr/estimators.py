"""Null-proportion estimators: Storey's upper-tail estimator and the
maximum-spacing estimator, plus the plug-in used for oracle runs."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

STOREY = "storey"
SPACING = "spacing"
ORACLE = "oracle"

DEFAULT_STOREY_LAMBDA = 0.5

# elements in spacing_values' difference buffer
_SPACING_CHUNK = 2**15


class DegenerateSpacingError(ValueError):
    """All relevant order-statistic spacings collapsed to zero (tied sample)."""

    def __init__(self, message="all spacings are zero; sample is fully tied"):
        super().__init__(message)


@dataclass(frozen=True)
class NullProportionEstimate:
    value: float
    method: str

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError("estimate must lie in [0, 1]")


def storey_estimate(pvalues, lam: float = DEFAULT_STOREY_LAMBDA) -> NullProportionEstimate:
    """min{ (fraction of p > lam) / (1 - lam), 1 }."""
    p = np.asarray(pvalues, dtype=float)
    if p.size == 0:
        raise ValueError("storey_estimate requires a nonempty p-value list")
    if not 0.0 < lam < 1.0:
        raise ValueError("lambda must lie in (0, 1)")
    upper = np.count_nonzero(p > lam) / p.size
    value = min(upper / (1.0 - lam), 1.0)
    return NullProportionEstimate(value, STOREY)


def spacing_values(sorted_rows, s: int) -> np.ndarray:
    """Row-wise max-spacing estimates min{ 2s / (m * Z), 1 } on rows of
    ascending p-values, with Z a row's widest 2s-wide order spacing.

    Z = max over admissible j of P_(j+s) - P_(j-s); requires m >= 2s + 1.
    A row whose spacings are all zero (a fully tied sample) gives NaN, and a
    subnormal Z the value 1.
    """
    rows = np.asarray(sorted_rows, dtype=float)
    m = rows.shape[1]
    s = int(s)
    if s < 1:
        raise ValueError("spacing parameter must be a positive integer")
    if m < 2 * s + 1:
        raise ValueError(f"need at least {2 * s + 1} p-values for s={s} (got {m})")
    # the spacings are taken a chunk of columns at a time into one buffer
    # of at most _SPACING_CHUNK elements, keeping each row's running maximum
    t, width = len(rows), m - 2 * s
    step = max(1, min(width, _SPACING_CHUNK // max(t, 1)))
    buf = np.empty((t, step))
    z = np.full(t, -np.inf)
    for j in range(0, width, step):
        w = min(step, width - j)
        np.subtract(rows[:, 2 * s + j: 2 * s + j + w], rows[:, j: j + w], out=buf[:, :w])
        np.maximum(z, buf[:, :w].max(axis=1), out=z)
    with np.errstate(over="ignore"):  # 2s / (m Z) is inf for a subnormal Z
        return np.minimum(2.0 * s / (m * np.where(z == 0.0, np.nan, z)), 1.0)


def spacing_estimate(pvalues, s: int) -> NullProportionEstimate:
    """The max-spacing estimate of one sample; see spacing_values."""
    value = float(spacing_values(np.sort(np.asarray(pvalues, dtype=float))[None], s)[0])
    if np.isnan(value):
        raise DegenerateSpacingError()
    return NullProportionEstimate(value, SPACING)


def default_spacing_schedule(m: int) -> int:
    """Spacing parameter s = max(1, min(round(m^0.7), (m - 1) // 2)).

    Grows faster than log(m) and slower than m, as the estimator's
    consistency conditions require.  The cap keeps m >= 2s + 1, which
    spacing_estimate needs; it binds only for m <= 12.  Nodes with m <= 2
    still cannot be estimated (s = 1 needs 3 p-values).
    """
    if m < 1:
        raise ValueError("m must be positive")
    return max(1, min(round(m**0.7), (m - 1) // 2))


def oracle_estimate(r0: float) -> NullProportionEstimate:
    """Testing plug-in that returns the generative null proportion."""
    return NullProportionEstimate(float(r0), ORACLE)
