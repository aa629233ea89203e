"""Estimators and hypothesis checks for the limit laws.

Cauchy fitting is deliberately robust: location by the median, scale by half
the interquartile range (for the Cauchy family IQR = 2c), goodness of fit by
the one-sample Kolmogorov-Smirnov distance against the fitted CDF, and the
tail index by the Hill estimator on the top order statistics of the absolute
centered sample.  A maximum-likelihood scale is available as a cross-check
but the quantile estimators are the primary ones.

Everything here is plain Python and imports no numpy: the drift and
recurrence summaries, every fit and the accumulation diagnostic.  Where
these replace a numpy expression they keep its bits: a mean sums as numpy's
pairwise ``np.sum`` does (``_pairwise_sum``, ``_column_means``), so the
Gaussian fit's mean and sd are those of ``mean()`` and ``std(ddof=1)``.  The
Kolmogorov-Smirnov distance and the Hill estimator take ``math.atan`` and
``math.log``, which may differ from numpy's vectorized ones in the last bit.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Sequence

from ._record import record
from . import hyp2
from .cover import CoverSystem, IntVec
from .walk import MeasureSpec, TrajectoryResult


class DegenerateSamplesError(ValueError):
    """The sample has no spread where spread is required."""


# numpy's pairwise summation: blocks of at most this many terms are summed in
# eight interleaved accumulators
_PAIRWISE_BLOCK = 128


def _pairwise(x: Sequence[float], lo: int, n: int) -> float:
    """numpy's ``pairwise_sum`` of x[lo:lo + n]."""
    if n < 8:
        res = -0.0
        for i in range(lo, lo + n):
            res += x[i]
        return res
    if n <= _PAIRWISE_BLOCK:
        r0, r1, r2, r3, r4, r5, r6, r7 = x[lo:lo + 8]
        end = lo + n - n % 8
        for i in range(lo + 8, end, 8):
            r0 += x[i]
            r1 += x[i + 1]
            r2 += x[i + 2]
            r3 += x[i + 3]
            r4 += x[i + 4]
            r5 += x[i + 5]
            r6 += x[i + 6]
            r7 += x[i + 7]
        res = ((r0 + r1) + (r2 + r3)) + ((r4 + r5) + (r6 + r7))
        for i in range(end, lo + n):
            res += x[i]
        return res
    n2 = n // 2
    n2 -= n2 % 8
    return _pairwise(x, lo, n2) + _pairwise(x, lo + n2, n - n2)


def _pairwise_sum(x: Sequence[float]) -> float:
    """``np.sum`` of a 1-D float64 array, bit for bit: numpy adds the pairwise
    sum to the reduction's identity 0.0."""
    return 0.0 + _pairwise(x, 0, len(x))


def _column_means(rows: Sequence[Sequence[float]]) -> list[float]:
    """``np.mean(rows, axis=0)`` of K rows of d floats, bit for bit.  A column
    of a (K, 1) array is summed pairwise; with d >= 2 numpy adds the rows in
    order.  Each sum is divided by K."""
    k = len(rows)
    cols = list(zip(*rows))
    if len(cols) == 1:
        return [_pairwise_sum(cols[0]) / k]
    means = []
    for col in cols:
        s = 0.0
        for v in col:
            s += v
        means.append(s / k)
    return means


def _max(values: Iterable[float]) -> float:
    """``np.max``: a NaN among the values gives NaN."""
    values = list(values)
    return math.nan if any(map(math.isnan, values)) else max(values)


def _ptp(values: Sequence[float]) -> float:
    """``np.ptp``: the max minus the min, NaN where a value is NaN."""
    return _max(values) - min(values)


def quantile(x, q: float | None = None):
    """``np.quantile(x, q, axis=0)`` (the linear method), or with q None
    ``np.median(x, axis=0)``, bit for bit, in plain Python: a float for a
    sample of numbers, a list of floats, one per column, for a sample of rows.

    The sample is sorted along axis 0.  Quantile q lies at (n - 1) q between
    order statistics a and b, at fraction t, and is a + (b - a) t for
    t < 1/2 and b - (b - a) (1 - t) from 1/2 on, as numpy interpolates.  The
    median of an even count is (a + b) / 2 of the middle two, as np.mean
    forms it; note that it can differ from quantile 1/2 in the last bit.  A
    column that holds a NaN gives a NaN."""
    rows = list(x)
    if rows and hasattr(rows[0], "__len__"):
        return [_quantile(col, q) for col in zip(*rows)]
    return _quantile(rows, q)


def _quantile(col: Iterable, q: float | None) -> float:
    s = sorted(map(float, col))
    for v in s:
        if v != v:
            return v
    n = len(s)
    if q is None:
        h = n // 2
        return s[h] if n % 2 else (s[h - 1] + s[h]) / 2
    v = (n - 1) * q
    i = min(math.floor(v), n - 1)
    a, b = s[i], s[min(i + 1, n - 1)]
    t = v - i
    return a + (b - a) * t if t < 0.5 else b - (b - a) * (1 - t)


def ks_distance(samples: Sequence[float], cdf: Callable[[float], float]) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a CDF of one float."""
    x = sorted(map(float, samples))
    n = len(x)
    f = [cdf(t) for t in x]
    up = _max([(i + 1) / n - fi for i, fi in enumerate(f)])
    lo = _max([fi - i / n for i, fi in enumerate(f)])
    return float(max(up, lo))


def hill_tail_index(samples: Sequence[float], center: float | None = None) -> float:
    """Hill estimator of the tail index on the top 5% (at least 10) order
    statistics of the absolute centered sample.  Cauchy data gives roughly 1,
    Gaussian data a much larger value."""
    x = list(map(float, samples))
    if center is None:
        center = quantile(x)
    a = sorted(t for t in (abs(v - center) for v in x) if t > 0)
    n = len(a)
    k = max(10, int(0.05 * n))
    if n < k + 1:
        raise DegenerateSamplesError("not enough nonzero samples for a tail")
    ref = a[n - k - 1]
    h = _pairwise_sum([math.log(t / ref) for t in a[n - k:]]) / k
    if h <= 0:
        raise DegenerateSamplesError("degenerate order statistics in the tail")
    return 1.0 / h


@record
class CauchyFit:
    location: float
    scale: float
    ks_distance: float
    tail_index: float
    n: int


def cauchy_fit(samples: Sequence[float]) -> CauchyFit:
    """Median / half-IQR fit of a centered-Cauchy-type sample."""
    x = list(map(float, samples))
    if len(x) < 100:
        raise DegenerateSamplesError(f"need at least 100 samples, got {len(x)}")
    loc = quantile(x)
    q1, q3 = quantile(x, 0.25), quantile(x, 0.75)
    c = 0.5 * (q3 - q1)
    if c <= 0:
        raise DegenerateSamplesError("interquartile range is zero")
    ks = ks_distance(x, lambda t: 0.5 + math.atan((t - loc) / c) / math.pi)
    tail = hill_tail_index(x, center=loc)
    return CauchyFit(location=loc, scale=c, ks_distance=ks, tail_index=tail, n=len(x))


def cauchy_scale_mle(samples: Sequence[float], location: float | None = None) -> float:
    """Maximum-likelihood scale given the median location (cross-check only).

    Solves (1/n) sum c^2/(c^2 + (x-m)^2) = 1/2 by bisection; the left side is
    increasing in c."""
    x = list(map(float, samples))
    m = quantile(x) if location is None else location
    r2 = [(v - m) * (v - m) for v in x]
    n = len(x)
    lo, hi = 1e-12, _max([abs(v - m) for v in x]) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        c2 = mid * mid
        if _pairwise_sum([c2 / (c2 + r) for r in r2]) / n < 0.5:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@record
class GaussianFit:
    mean: float
    sd: float
    ks_distance: float
    n: int


def gaussian_fit(samples: Sequence[float]) -> GaussianFit:
    x = list(map(float, samples))
    n = len(x)
    if n < 3:
        raise DegenerateSamplesError("need at least 3 samples")
    mean = _pairwise_sum(x) / n
    sd = math.sqrt(_pairwise_sum([(v - mean) * (v - mean) for v in x]) / (n - 1))
    if sd <= 0:
        raise DegenerateSamplesError("zero standard deviation")
    scale = sd * math.sqrt(2.0)
    ks = ks_distance(x, lambda t: 0.5 * (1.0 + math.erf((t - mean) / scale)))
    return GaussianFit(mean=mean, sd=sd, ks_distance=ks, n=n)


# ---------------------------------------------------------------------------
# drift summaries and the exact finite-orbit target

@record
class DriftSummary:
    per_trajectory: tuple[tuple[float, ...], ...]
    mean: tuple[float, ...]
    target: tuple[float, ...] | None
    max_dev_from_target: float | None


def drift_summary(
    results: Iterable[TrajectoryResult],
    target: Sequence[float] | None = None,
) -> DriftSummary:
    """The terminal drifts, their mean and, given a target, the largest
    Euclidean distance of a drift from it (as ``np.linalg.norm`` forms it:
    the square root of the squares' pairwise sum)."""
    drifts = [tuple(map(float, r.summary.terminal_drift)) for r in results]
    if not drifts:
        raise DegenerateSamplesError("no trajectories")
    dev = None
    tgt = None
    if target is not None:
        tgt = tuple(float(t) for t in target)
        dev = _max(
            math.sqrt(_pairwise_sum([(v - t) * (v - t) for v, t in zip(row, tgt)]))
            for row in drifts
        )
    return DriftSummary(
        per_trajectory=tuple(drifts),
        mean=tuple(_column_means(drifts)),
        target=tgt,
        max_dev_from_target=dev,
    )


def exact_finite_orbit_target(
    system: CoverSystem,
    measure: MeasureSpec,
    start: hyp2.UnitTangent,
) -> tuple[float, ...] | None:
    """The exact expected one-step index change for a finite orbit: enumerate
    the orbit of the reduced start under the atom semigroup
    (``CoverSystem.orbit_table``), then average the integer index increments
    over orbit x atoms.  Returns None when the orbit has more than 4096 states
    (treated as infinite)."""
    if measure.kind != "atoms":
        raise ValueError("finite-orbit targets need an atomic measure")

    atoms = [(g, prob) for g, prob in measure.atoms if prob > 0]
    table = system.orbit_table(start, tuple(g for g, _ in atoms), 4096)
    if table is None:
        return None
    total = [0.0] * system.d
    for row in table.moves:
        for (_, delta), (_, prob) in zip(row, atoms):
            total = [s + prob * float(v) for s, v in zip(total, delta)]
    states = len(table.reps)
    return tuple(s / states for s in total)


# ---------------------------------------------------------------------------
# accumulation-set diagnostic

@record
class OscillationReport:
    span_range: tuple[float, ...]        # per trajectory: range inside E_C
    complement_range: tuple[float, ...]  # per trajectory: range transverse to E_C
    total_range: tuple[float, ...]       # per trajectory: full-vector range
    frac_span_above: float
    frac_complement_below: float
    span_threshold: float
    complement_threshold: float


def accumulation_diagnostic(
    series_by_traj: dict[int, Iterable[tuple[float, Sequence[float]]]],
    ec_basis: Sequence[IntVec],
    d: int,
    span_threshold: float,
    complement_threshold: float,
    n_min: float = 0.0,
) -> OscillationReport:
    """Oscillation of the normalized index over a checkpoint grid.

    For each trajectory the drift checkpoints (n, sigma/n) with n >= n_min,
    any iterable of pairs read once, are projected on an orthonormal basis
    of the span of the cusp translations and on its complement; the report
    gives componentwise max-minus-min ranges and the pooled fractions
    against the thresholds."""
    u = _orthonormal(ec_basis)
    v = _complement(u, d)
    span_r, comp_r, tot_r = [], [], []
    for traj, series in sorted(series_by_traj.items()):
        cols = list(zip(*[p for n, p in series if n >= n_min]))
        if not cols:
            continue
        tot_r.append(_max(map(_ptp, cols)) if len(cols[0]) > 1 else 0.0)
        span_r.append(_spread(cols, u))
        comp_r.append(_spread(cols, v))
    if not tot_r:
        raise DegenerateSamplesError("no checkpoints above n_min")
    k = len(tot_r)
    return OscillationReport(
        span_range=tuple(span_r),
        complement_range=tuple(comp_r),
        total_range=tuple(tot_r),
        frac_span_above=sum(r > span_threshold for r in span_r) / k,
        frac_complement_below=sum(r < complement_threshold for r in comp_r) / k,
        span_threshold=span_threshold,
        complement_threshold=complement_threshold,
    )


def _spread(cols: list[Sequence[float]], dirs: list[list[float]]) -> float:
    """The largest range of the projections on the unit vectors dirs of
    the points whose coordinates are the columns cols, each projection
    summed as ``_dot`` sums it; 0.0 with no direction."""
    if not dirs:
        return 0.0
    ranges = []
    for w in dirs:
        proj = [x * w[0] for x in cols[0]]
        for j in range(1, len(w)):
            proj = [s + x * w[j] for s, x in zip(proj, cols[j])]
        ranges.append(_ptp(proj))
    return _max(ranges)


def _dot(p: Sequence[float], w: Sequence[float]) -> float:
    s = p[0] * w[0]
    for j in range(1, len(w)):
        s += p[j] * w[j]
    return s


def _residual(vec: Sequence[float], basis: list[list[float]]) -> list[float]:
    """vec less its projection on the orthonormal basis, by modified
    Gram-Schmidt taken twice, so that the residual of a nearly dependent
    vector stays orthogonal to the basis."""
    r = list(vec)
    for _ in range(2):
        for q in basis:
            c = _dot(r, q)
            r = [ri - c * qi for ri, qi in zip(r, q)]
    return r


def _orthonormal(basis: Sequence[IntVec]) -> list[list[float]]:
    """An orthonormal basis of the span of independent integer vectors, by
    Gram-Schmidt in their order (as QR forms it, up to signs)."""
    out: list[list[float]] = []
    for vec in basis:
        r = _residual([float(v) for v in vec], out)
        norm = math.sqrt(_dot(r, r))
        out.append([ri / norm for ri in r])
    return out


def _complement(u: list[list[float]], d: int) -> list[list[float]]:
    """An orthonormal basis of the orthogonal complement of the orthonormal
    rows u in R^d: the unit vectors e_1, e_2, ... orthogonalized against u
    and each other, skipping those whose residual is below 1e-12."""
    out: list[list[float]] = []
    for i in range(d):
        if len(u) + len(out) >= d:
            break
        r = _residual([float(i == j) for j in range(d)], u + out)
        norm = math.sqrt(_dot(r, r))
        if norm > 1e-12:
            out.append([ri / norm for ri in r])
    return out


# ---------------------------------------------------------------------------
# recurrence report

@record
class RecurrenceReport:
    grid: tuple[int, ...]
    return_fraction: tuple[float, ...]        # ever returned by grid n
    window_fraction: tuple[float, ...]        # >= 1 return inside (prev, n]
    median_first_return: float | None
    median_max_excursion: tuple[float, ...]   # by grid n
    d: int
    dim_EC: int
    verdict_hint: str


def recurrence_verdict(d: int, dim_ec: int) -> str:
    if d == 1 or (d == 2 and dim_ec == 0):
        return "recurrent"
    return "transient"


def recurrence_report(
    results: Iterable[TrajectoryResult],
    d: int,
    dim_ec: int,
) -> RecurrenceReport:
    """Statistical recurrence indicators from trajectories run with return
    tracking.  The verdict hint is the dichotomy by (d, dim E_C); the
    empirical fractions are evidence, not proof."""
    stats = [r.summary.returns for r in results]
    if not stats or any(s is None for s in stats):
        raise ValueError("trajectories were not run with return tracking")
    grid = [n for n, _ in stats[0].returned_by]
    k = len(stats)
    ever = [0] * len(grid)
    window = [0] * len(grid)
    exc: list[list[float]] = [[] for _ in grid]
    firsts = []
    for s in stats:
        for i, (_, flag) in enumerate(s.returned_by):
            ever[i] += 1 if flag else 0
        for i, (_, cnt) in enumerate(s.window_returns):
            window[i] += 1 if cnt > 0 else 0
        for i, (_, m) in enumerate(s.max_excursion_by):
            exc[i].append(m)
        if s.first_return is not None:
            firsts.append(s.first_return)
    return RecurrenceReport(
        grid=tuple(grid),
        return_fraction=tuple(e / k for e in ever),
        window_fraction=tuple(w / k for w in window),
        median_first_return=quantile(firsts) if firsts else None,
        median_max_excursion=tuple(quantile(e) for e in exc),
        d=d,
        dim_EC=dim_ec,
        verdict_hint=recurrence_verdict(d, dim_ec),
    )
