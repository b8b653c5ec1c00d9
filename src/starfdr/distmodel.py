"""Generative models for p-values in a star network.

Each node emits p-values from a two-component mixture: true nulls are
uniform on [0,1], alternatives follow a one-sided p-value distribution
induced by a Gaussian or Cauchy location shift of the test statistic.
Samplers cover independent draws and an AR(1) tapering-covariance regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
from scipy.special import ndtr, ndtri

GAUSSIAN = "gaussian"
CAUCHY = "cauchy"

INDEPENDENT = "independent"
TAPERING_AR = "tapering_ar"

# p-values at exact 0/1 are clamped into the open interval so that
# downstream densities stay finite
_P_EPS = np.finfo(float).tiny
_P_TOP = 1.0 - np.finfo(float).epsneg


def normal_tail(x):
    """Upper-tail probability of the standard normal, Q(x) = 1 - Phi(x)."""
    return ndtr(-np.asarray(x, dtype=float))


def normal_tail_inv(p):
    """Inverse of normal_tail; rejects arguments outside (0, 1)."""
    p = np.asarray(p, dtype=float)
    if np.any(p <= 0.0) or np.any(p >= 1.0):
        raise ValueError("normal_tail_inv requires p in the open interval (0, 1)")
    return -ndtri(p)


@dataclass(frozen=True)
class AlternativeModel:
    """One-sided p-value distribution under the alternative.

    kind is "gaussian" or "cauchy"; mu is the location shift of the
    underlying test statistic.
    """

    kind: str
    mu: float

    def __post_init__(self):
        if self.kind not in (GAUSSIAN, CAUCHY):
            raise ValueError(f"unknown alternative kind {self.kind!r}")
        if not math.isfinite(self.mu):
            raise ValueError("mu must be finite")


def gaussian_alt(mu: float) -> AlternativeModel:
    return AlternativeModel(GAUSSIAN, mu)


def cauchy_alt(mu: float) -> AlternativeModel:
    return AlternativeModel(CAUCHY, mu)


def _cot_pi(t):
    # cot(pi*t) evaluated stably on (0,1)
    return np.tan(np.pi * (0.5 - t))


# The closed forms of the alternative CDF and density, in the transform of
# t that each kind shares across alternatives: z = Q^{-1}(t) for a Gaussian
# shift, u = tan(pi t/2) for a Cauchy CDF and c = cot(pi t) for its density.
def _gaussian_cdf(z, mu):
    # Q(z - mu) as Phi(mu - z), one pass fewer: fl(mu - z) = -fl(z - mu)
    return ndtr(mu - z)


def _gaussian_pdf(z, mu):
    return np.exp(-0.5 * mu**2 + mu * z)


def _cauchy_cdf(u, mu):
    # 0.5 - arctan(cot(pi t) - mu)/pi in half-angle atan2 form: no
    # cancellation near 0
    return np.arctan2(2.0 * u, 1.0 - u * (u + 2.0 * mu)) / np.pi


def _cauchy_pdf(c, mu):
    return (c**2 + 1.0) / ((c - mu) ** 2 + 1.0)


class AltColumns:
    """The alternatives of several nodes as columns, the shifts mu and the
    Gaussian-kind mask, and their CDFs F and densities f by the closed forms
    above, in the layout the caller's points take.  On a grid (grid) every
    alternative takes the same points; at points (cdf) each point carries
    the index of its alternative.  Either way a transform is taken once per
    kind: once per grid, or once for all the points of that kind.  A total
    CDF is x clipped to [0, 1] at and beyond the ends, and NaN at NaN."""

    def __init__(self, alts):
        self.alts = tuple(alts)
        self.mu = np.array([alt.mu for alt in self.alts])
        self.gauss = np.array([alt.kind == GAUSSIAN for alt in self.alts], dtype=bool)
        kinds = {alt.kind for alt in self.alts}
        self.kind = kinds.pop() if len(kinds) == 1 else None  # the kind all share

    @cached_property
    def _superlevel(self):
        """superlevel_ends' per-column constants, made on its first call
        and kept: (flat, gauss, cauchy).  flat holds the columns with
        mu = 0, or is None.  gauss holds, for each sign of mu present,
        (columns, end, -mu, mu^2/2), where end is the index in
        (a1, b1, a2, b2) of the one end that moves: b1 of (0, x) for
        mu > 0, a2 of (x, 1) for mu < 0.  cauchy is None or (columns, mu,
        x1, x2) with (x1, x2) the set at T = 1: (x(mu/2), 1) for mu > 0 and
        (0, x(mu/2)) for mu < 0, where x(c) = atan2(1, c)/pi."""
        flat, above, below, cauchy = [], [], [], []
        for j, alt in enumerate(self.alts):
            if alt.mu == 0.0:
                flat.append(j)
            elif alt.kind == CAUCHY:
                cauchy.append(j)
            else:
                (above if alt.mu > 0.0 else below).append(j)
        gauss = []
        for end, cols in ((1, above), (2, below)):
            if cols:
                m = self.mu[cols]
                gauss.append((_columns(cols), end, -m, 0.5 * m * m))
        cauchy_form = None
        if cauchy:
            m = self.mu[cauchy]
            xu = np.arctan2(1.0, 0.5 * m) / np.pi
            cauchy_form = (_columns(cauchy), m, np.where(m > 0.0, xu, 0.0),
                           np.where(m > 0.0, 1.0, xu))
        return (_columns(flat) if flat else None), gauss, cauchy_form

    def grid(self, t):
        """(CDF rows, density rows) at the points t: two lazy iterators
        over the alternatives in turn, the CDFs at every point and the
        densities at the points strictly inside (0, 1).  A row is made when
        it is asked for, so a caller that stops early or takes only CDFs
        pays for no more; the Gaussian rows share z = Q^{-1}(t), the
        Cauchy CDFs tan(pi t/2) and the Cauchy densities cot(pi t)."""
        t = np.asarray(t, dtype=float)
        inner = ~((t <= 0.0) | (t >= 1.0))  # NaN included: it gives NaN
        ti = t if inner.all() else t[inner]
        z = normal_tail_inv(ti) if self.gauss.any() else None
        return self._cdf_rows(t, inner, ti, z), self._pdf_rows(ti, z)

    def _cdf_rows(self, t, inner, ti, z):
        edges = None if ti is t else np.asarray(t.clip(0.0, 1.0))
        u = None
        for alt in self.alts:
            if alt.kind == GAUSSIAN:
                row = _gaussian_cdf(z, alt.mu)
            else:
                u = np.tan(0.5 * np.pi * ti) if u is None else u
                row = _cauchy_cdf(u, alt.mu)
            if edges is not None:
                out = edges.copy()
                out[inner] = row
                row = out
            yield row

    def _pdf_rows(self, ti, z):
        c = None
        for alt in self.alts:
            if alt.kind == GAUSSIAN:
                yield _gaussian_pdf(z, alt.mu)
            else:
                c = _cot_pi(ti) if c is None else c
                yield _cauchy_pdf(c, alt.mu)

    def cdf(self, t, i):
        """F_i(t) at points t strictly inside (0, 1), where i (t's shape) is
        the index of each point's alternative.  Each point takes the grid's
        operations, so the value is its grid row's bit for bit; the
        quantile skips normal_tail_inv's range check, which every point
        passes.  Alternatives of one kind take no split by kind."""
        mu = self.mu[i]
        if self.kind is not None:
            return _point_cdf(self.kind, t, mu)
        f = np.empty_like(t)
        gauss = self.gauss[i]
        for kind, at in ((GAUSSIAN, gauss), (CAUCHY, ~gauss)):
            f[at] = _point_cdf(kind, t[at], mu[at])
        return f


def _point_cdf(kind, t, mu):
    """F at points t strictly inside (0, 1) of alternatives of one kind with
    shifts mu (t's shape)."""
    if kind == GAUSSIAN:
        return _gaussian_cdf(-ndtri(t), mu)
    return _cauchy_cdf(np.tan(0.5 * np.pi * t), mu)


def _columns(cols: list):
    """Column indices as a slice where they are contiguous, so that reading
    and writing them takes views, else as an index array."""
    lo, hi = cols[0], cols[-1] + 1
    return slice(lo, hi) if hi - lo == len(cols) else np.array(cols)


# (a1, b1, a2, b2) of the empty set: superlevel_ends' starting ends
_EMPTY_ENDS = np.array([0.0, 0.0, 1.0, 1.0])


def _float_or_array(out):
    return float(out) if out.ndim == 0 else out


def alt_cdf_pdf(alt: AlternativeModel, t: float) -> tuple[float, float]:
    """(CDF, density) of the alternative at one point t strictly inside
    (0, 1), by AltColumns' formulas without its array checks: for a solver
    that steps one point at a time.  The CDF equals alt_cdf's bit for bit;
    the Cauchy density, with cot(pi t) taken on a scalar, can differ from
    alt_pdf's by 2 ulp."""
    if alt.kind == GAUSSIAN:
        z = -ndtri(t)
        return float(_gaussian_cdf(z, alt.mu)), float(_gaussian_pdf(z, alt.mu))
    u = np.tan(0.5 * np.pi * t)
    return float(_cauchy_cdf(u, alt.mu)), float(_cauchy_pdf(_cot_pi(t), alt.mu))


def alt_cdf(alt: AlternativeModel, t):
    """CDF of the alternative p-value distribution, total on [0, 1]."""
    return _float_or_array(next(AltColumns([alt]).grid(t)[0]))


def alt_pdf(alt: AlternativeModel, t):
    """Density of the alternative p-value distribution on the open interval.

    Rejects t in {0, 1}: the Gaussian density diverges at the endpoint in
    the direction of the shift.
    """
    t = np.asarray(t, dtype=float)
    if np.any(t <= 0.0) or np.any(t >= 1.0):
        raise ValueError("alt_pdf requires t strictly inside (0, 1)")
    return _float_or_array(next(AltColumns([alt]).grid(t)[1]))


def superlevel_ends(alts, levels):
    """Ends of {x in (0,1): alt_pdf(alts[j], x) > T} for each level T in
    column j of levels, which has one column per alternative of alts, an
    AltColumns or the alternatives to build one from.

    Returns levels.shape + (4,): (a1, b1, a2, b2) with the set (a1, b1) u
    (a2, b2) and a1 <= b1 <= a2 <= b2; an empty piece has a == b.  Gaussian:
    f = exp(mu z - mu^2/2) is monotone in z = Q^{-1}(x).  Cauchy: with
    c = cot(pi x), f > T is (1-T) c^2 + 2 T mu c + (1 - T - T mu^2) > 0,
    linear at T = 1; its c set maps back by the decreasing x = atan2(1, c)/pi.
    An AltColumns makes its per-column constants on its first call and keeps
    them, so a series of calls passes one AltColumns.
    """
    T = np.asarray(levels, dtype=float)
    cols = alts if isinstance(alts, AltColumns) else AltColumns(alts)
    flat, gauss, cauchy = cols._superlevel
    ends = np.empty(T.shape + (4,))
    ends[...] = _EMPTY_ENDS  # each form below writes the ends it moves
    # T <= 0 takes log 0 = -inf; T = inf and Cauchy's roots go through
    # inf - inf and 0/0, which the masks below replace
    with np.errstate(all="ignore"):
        if flat is not None:  # f = 1: everything for T < 1, else nothing
            ends[..., flat, 1] = T[..., flat] < 1.0
        for c, end, neg_mu, half_mu2 in gauss:
            # x = Q((ln T + mu^2/2)/mu), as Phi of the quotient by -mu; T <= 0
            # gives x = 1 for mu > 0 and x = 0 for mu < 0: everything
            ends[..., c, end] = ndtr((np.log(np.maximum(T[..., c], 0.0)) + half_mu2) / neg_mu)
        if cauchy is not None:
            c, m, unit1, unit2 = cauchy
            t = T[..., c]
            a, b = 1.0 - t, t * m
            k = a - b * m  # = 1 - T - T mu^2
            disc = b * b - a * k  # quarter discriminant, = T mu^2 - (1-T)^2
            qq = -(b + np.copysign(np.sqrt(disc), b))  # roots without cancellation
            xa, xb = np.arctan2(1.0, qq / a) / np.pi, np.arctan2(1.0, k / qq) / np.pi
            lo, hi = np.minimum(xa, xb), np.maximum(xa, xb)
            # no sign change, or T <= 0: the sign of a throughout, everything
            # for T < 1 and nothing for T > 1
            none = ~(np.minimum(disc, t) > 0.0)
            lo[none], hi[none] = 1.0, 1.0
            # T = 1: 2 mu c > mu^2, one-sided like the Gaussian
            unit = t == 1.0
            np.copyto(lo, unit1, where=unit)
            np.copyto(hi, unit2, where=unit)
            # the two outer intervals for T <= 1, the inner one for T > 1
            outer = t <= 1.0
            ends[..., c, 0] = np.where(outer, 0.0, lo)
            ends[..., c, 1] = np.where(outer, lo, hi)
            ends[..., c, 2] = np.where(outer, hi, 1.0)
    return ends


def superlevel_pieces(ends) -> list:
    """The nonempty pieces (a, b) of one set of superlevel_ends, in order."""
    a1, b1, a2, b2 = ends
    return [(a, b) for a, b in ((a1, b1), (a2, b2)) if a < b]


@dataclass(frozen=True)
class NodeModel:
    """Per-node mixture: null proportion r0 and alternative distribution."""

    q: float
    r0: float
    alt: AlternativeModel

    def __post_init__(self):
        if not 0.0 < self.q <= 1.0:
            raise ValueError("q must lie in (0, 1]")
        # r0 = 1 (all-null node) is tolerated for testing degenerate mixtures
        if not 0.0 < self.r0 <= 1.0:
            raise ValueError("r0 must lie in (0, 1]")

    @property
    def r1(self) -> float:
        return 1.0 - self.r0


def mixture_cdf(node: NodeModel, t):
    """G(t) = r0*t + (1-r0)*F(t) for one node, total on [0, 1]."""
    return _float_or_array(MixtureColumns([node]).cdf(t, 0))


class MixtureColumns:
    """The mixture CDFs of several nodes, evaluated in one pass over points
    of all of them, and the per-node constants as arrays: q, r0, r1 and the
    alternatives' columns."""

    def __init__(self, nodes):
        self.alts = AltColumns(nd.alt for nd in nodes)
        self.q = np.array([nd.q for nd in nodes])
        self.r0 = np.array([nd.r0 for nd in nodes])
        self.r1 = np.array([nd.r1 for nd in nodes])

    def cdf(self, x, node):
        """G_i(x) = r0_i x + r1_i F_i(x) at points x, where i is the index in
        node (broadcast to x's shape) of the point's node: the one place the
        mixture is formed.  Total on [0, 1] as F is: G = x clipped to [0, 1]
        at and beyond the ends, which is r0 x + r1 x there (r0 + (1 - r0)
        rounds to exactly 1), and NaN at NaN.
        """
        x = np.asarray(x, dtype=float)
        g = np.asarray(x.clip(0.0, 1.0))
        # the interior points by flat index (the clip gives NaN at NaN), and
        # each one's node
        k = ((x > 0.0) & (x < 1.0)).ravel().nonzero()[0]
        nodes = np.empty(x.shape, dtype=np.intp)
        nodes[...] = node
        t, i = x.take(k), nodes.take(k)
        g.put(k, self.r0[i] * t + self.r1[i] * self.alts.cdf(t, i))
        return g


@dataclass(frozen=True)
class NetworkModel:
    """Ordered collection of node models; weights q must sum to one."""

    nodes: tuple[NodeModel, ...]

    def __init__(self, nodes):
        object.__setattr__(self, "nodes", tuple(nodes))
        if len(self.nodes) < 1:
            raise ValueError("network needs at least one node")
        qsum = sum(nd.q for nd in self.nodes)
        if abs(qsum - 1.0) > 1e-9:
            raise ValueError(f"node weights must sum to 1 (got {qsum})")

    def __len__(self) -> int:
        return len(self.nodes)

    @property
    def q(self) -> np.ndarray:
        return np.array([nd.q for nd in self.nodes])

    @property
    def r0(self) -> np.ndarray:
        return np.array([nd.r0 for nd in self.nodes])

    @cached_property
    def r0_star(self) -> float:
        # kept once made: the nodes are frozen, and the oracle calls read it often
        return float(np.dot(self.q, self.r0))

    @property
    def r1_star(self) -> float:
        return 1.0 - self.r0_star


@dataclass(frozen=True)
class DependenceSpec:
    """Dependence regime for the underlying statistics within each node."""

    kind: str = INDEPENDENT
    rho: float = 0.0

    def __post_init__(self):
        if self.kind not in (INDEPENDENT, TAPERING_AR):
            raise ValueError(f"unknown dependence kind {self.kind!r}")
        if not 0.0 <= self.rho < 1.0:
            raise ValueError("rho must lie in [0, 1)")
        if self.kind == INDEPENDENT and self.rho != 0.0:
            raise ValueError("independent spec cannot carry nonzero rho")


@dataclass(frozen=True, eq=False)
class LabeledSample:
    """One trial: per-node p-values plus ground-truth null labels.

    An immutable value: construction copies each node's p-values into a
    read-only 1-D float array and its labels into a read-only bool array
    of the same length, from arrays or lists alike, and raises ValueError
    on a mismatch or on a p-value that is NaN or outside [0, 1].  A sample
    hashes and compares by identity, so protocol calls on one sample can
    share its per-node work (netsim)."""

    pvalues: tuple  # per node, a read-only float array
    null_labels: tuple  # per node, a read-only bool array, True = truly null

    def __post_init__(self):
        if len(self.pvalues) != len(self.null_labels):
            raise ValueError("pvalues and null_labels must align per node")
        pvalues = tuple(_read_only(p, float) for p in self.pvalues)
        labels = tuple(_read_only(lab, bool) for lab in self.null_labels)
        for i, (p, lab) in enumerate(zip(pvalues, labels)):
            if p.ndim != 1 or lab.shape != p.shape:
                raise ValueError(f"node {i}: p-values of shape {p.shape} against "
                                 f"null labels of shape {lab.shape}")
            # min and max are NaN when any p-value is, and NaN fails both
            if p.size and not (p.min() >= 0.0 and p.max() <= 1.0):
                raise ValueError(f"node {i}: p-values must lie in [0, 1] and not be NaN")
        object.__setattr__(self, "pvalues", pvalues)
        object.__setattr__(self, "null_labels", labels)

    @property
    def n_nodes(self) -> int:
        return len(self.pvalues)

    @property
    def m_per_node(self) -> np.ndarray:
        return np.array([len(p) for p in self.pvalues])

    @property
    def m(self) -> int:
        return int(self.m_per_node.sum())

    @property
    def m1(self) -> int:
        return sum(lab.size - int(np.count_nonzero(lab)) for lab in self.null_labels)


def _read_only(values, dtype) -> np.ndarray:
    """A copy of values as a read-only array of dtype."""
    a = np.array(values, dtype=dtype)
    a.flags.writeable = False
    return a


def node_columns(sizes) -> list:
    """Each node's column slice of sample_rows' (t, m) rows, in node order."""
    ends = np.cumsum(sizes, dtype=int).tolist()
    return [slice(a, b) for a, b in zip([0] + ends[:-1], ends)]


def sample_rows(net: NetworkModel, sizes, dep: DependenceSpec, mean_jitter, rngs):
    """Draw one trial per generator in rngs as stacked rows: (P, N).

    P holds the p-values and N the null labels (True = truly null), both
    (t, m) with t = len(rngs) and node i in columns node_columns(sizes)[i].
    Row r is the trial sample_trial draws from rngs[r] at these per-node
    sizes, bit for bit: each generator makes the same calls in the same
    order (per node, the jitter uniform if mean_jitter is nonzero, then
    random(m_i), then standard_normal(m_i)), and the arithmetic after the
    draws runs once per node over all rows, in place.
    """
    counts = np.asarray(sizes, dtype=int)
    if counts.shape != (len(net),):
        raise ValueError("sizes must provide one count per node")
    if np.any(counts < 0):
        raise ValueError("counts must be nonnegative")
    t, m = len(rngs), int(counts.sum())
    cols = node_columns(counts)
    U, P = np.empty((t, m)), np.empty((t, m))
    mu = np.tile([node.alt.mu for node in net.nodes], (t, 1))
    for r, rng in enumerate(rngs):
        for i, c in enumerate(cols):
            if mean_jitter:  # rng.uniform(lo, hi)'s formula and double, without its call
                lo, hi = mu[r, i] - mean_jitter, mu[r, i] + mean_jitter
                mu[r, i] = lo + (hi - lo) * rng.random()
            rng.random(out=U[r, c])
            rng.standard_normal(out=P[r, c])

    N = np.empty((t, m), dtype=bool)
    rho = dep.rho if dep.kind == TAPERING_AR else 0.0
    for node, c, mu_i in zip(net.nodes, cols, mu.T):
        if c.start == c.stop:
            continue
        null, z = N[:, c], P[:, c]
        np.less(U[:, c], node.r0, out=null)
        if rho > 0.0:
            z[...] = _ar1_rows(z, rho)
        # the shift is mu for an alternative and a zero for a null (-0.0 when
        # mu < 0, which gives the same p-value as 0.0)
        shift = np.multiply(~null, mu_i[:, None])
        if node.alt.kind == GAUSSIAN:  # p = Q(z + shift)
            z += shift
            ndtr(np.negative(z, out=z), out=z)
        else:
            # Gaussian copula keeps the rho^|i-j| latent structure while
            # the marginal statistic stays standard Cauchy
            np.clip(ndtr(z, out=z), _P_EPS, _P_TOP, out=z)
            z -= 0.5
            z *= np.pi
            np.tan(z, out=z)
            z += shift
            np.arctan(z, out=z)
            z /= np.pi
            np.subtract(0.5, z, out=z)
    np.clip(P, _P_EPS, _P_TOP, out=P)
    return P, N


def _ar1_rows(eps: np.ndarray, rho: float) -> np.ndarray:
    """Stationary AR(1) rows with unit marginals and corr rho^|i-j|.

    The recursion y_j = x_j + rho * y_(j-1) is a unit lower-bidiagonal
    solve, which LAPACK's dgtsv does in place on the rows as right-hand
    sides.  For 0 < rho < 1 it is exact, the same bits as
    lfilter([1], [1, -rho]): it never pivots (|1| > rho), its multiplier
    is exactly -rho and its diagonal stays 1 (the superdiagonal is 0), so
    its forward sweep rounds rho * y and then x + rho * y, as the filter
    does, and its back substitution divides by 1 and subtracts 0 * y.
    """
    from scipy.linalg.lapack import dgtsv  # here: only AR(1) draws load scipy.linalg

    x = eps * math.sqrt(1.0 - rho * rho)
    x[:, 0] = eps[:, 0]
    m = x.shape[1]
    if m < 2:  # AR(1) over one value is the identity, and dgtsv needs two
        return x
    _, _, _, y, _ = dgtsv(np.full(m - 1, -rho), np.ones(m), np.zeros(m - 1), x.T,
                          overwrite_dl=True, overwrite_d=True, overwrite_du=True, overwrite_b=True)
    return y.T  # x itself: x.T is Fortran-ordered, so dgtsv solves in place


def sample_trial(
    net: NetworkModel,
    sizes,
    dep: DependenceSpec = DependenceSpec(),
    mean_jitter: float | None = None,
    seed=0,
) -> LabeledSample:
    """Draw one labeled trial from the network model.

    sizes is either a per-node sequence of counts, or a single total count
    in which case each p-value is assigned to node i with probability q_i.
    When mean_jitter is set and nonzero, each node draws one location shift
    per trial uniformly within +-mean_jitter of its base mu; a jitter of 0
    draws nothing and gives the same sample as None.  Identical seeds give
    identical samples; the rho=0 tapering regime coincides with the
    independent path draw for draw.  This is sample_rows with one row.
    """
    rng = seed if isinstance(seed, np.random.Generator) else np.random.default_rng(seed)
    if np.isscalar(sizes):
        total = int(sizes)
        if total < 0:
            raise ValueError("total count must be nonnegative")
        sizes = rng.multinomial(total, net.q)
    P, N = sample_rows(net, sizes, dep, mean_jitter, [rng])
    cols = node_columns(sizes)
    return LabeledSample([P[0, c] for c in cols], [N[0, c] for c in cols])
