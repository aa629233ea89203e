"""Estimators and hypothesis checks for the limit laws.

Cauchy fitting is deliberately robust: location by the median, scale by half
the interquartile range (for the Cauchy family IQR = 2c), goodness of fit by
the one-sample Kolmogorov-Smirnov distance against the fitted CDF, and the
tail index by the Hill estimator on the top order statistics of the absolute
centered sample.  A maximum-likelihood scale is available as a cross-check
but the quantile estimators are the primary ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Sequence

import numpy as np

from . import hyp2
from . import fuchsian
from .cover import CoverSystem, IntVec
from .hyp2 import GroupElement
from .walk import MeasureSpec, TrajectoryResult


class DegenerateSamplesError(ValueError):
    """The sample has no spread where spread is required."""


class NonIntegrableConfigurationError(RuntimeError):
    """The requested mean does not exist: an unfolded cusp makes the index
    change non-integrable against the Haar measure."""


def ks_distance(samples: np.ndarray, cdf: Callable[[np.ndarray], np.ndarray]) -> float:
    """One-sample Kolmogorov-Smirnov statistic against a given CDF."""
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    f = cdf(x)
    up = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(up - f), np.max(f - lo)))


def hill_tail_index(samples: Sequence[float], center: float | None = None) -> float:
    """Hill estimator of the tail index on the top 5% (at least 10) order
    statistics of the absolute centered sample.  Cauchy data gives roughly 1,
    Gaussian data a much larger value."""
    x = np.asarray(samples, dtype=float)
    if center is None:
        center = float(np.median(x))
    a = np.abs(x - center)
    a = a[a > 0]
    a.sort()
    n = len(a)
    k = max(10, int(0.05 * n))
    if n < k + 1:
        raise DegenerateSamplesError("not enough nonzero samples for a tail")
    top = a[n - k:]
    ref = a[n - k - 1]
    h = float(np.mean(np.log(top / ref)))
    if h <= 0:
        raise DegenerateSamplesError("degenerate order statistics in the tail")
    return 1.0 / h


@dataclass(frozen=True)
class CauchyFit:
    location: float
    scale: float
    ks_distance: float
    tail_index: float
    n: int


def cauchy_fit(samples: Sequence[float]) -> CauchyFit:
    """Median / half-IQR fit of a centered-Cauchy-type sample."""
    x = np.asarray(samples, dtype=float)
    if len(x) < 100:
        raise DegenerateSamplesError(f"need at least 100 samples, got {len(x)}")
    loc = float(np.median(x))
    q1, q3 = np.quantile(x, [0.25, 0.75])
    c = float(0.5 * (q3 - q1))
    if c <= 0:
        raise DegenerateSamplesError("interquartile range is zero")
    cdf = lambda t: 0.5 + np.arctan((t - loc) / c) / math.pi
    ks = ks_distance(x, cdf)
    tail = hill_tail_index(x, center=loc)
    return CauchyFit(location=loc, scale=c, ks_distance=ks, tail_index=tail, n=len(x))


def cauchy_scale_mle(samples: Sequence[float], location: float | None = None) -> float:
    """Maximum-likelihood scale given the median location (cross-check only).

    Solves (1/n) sum c^2/(c^2 + (x-m)^2) = 1/2 by bisection; the left side is
    increasing in c."""
    x = np.asarray(samples, dtype=float)
    m = float(np.median(x)) if location is None else location
    r2 = (x - m) ** 2
    lo, hi = 1e-12, float(np.max(np.abs(x - m))) + 1.0

    def f(c: float) -> float:
        c2 = c * c
        return float(np.mean(c2 / (c2 + r2))) - 0.5

    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@dataclass(frozen=True)
class GaussianFit:
    mean: float
    sd: float
    ks_distance: float
    n: int


def gaussian_fit(samples: Sequence[float]) -> GaussianFit:
    x = np.asarray(samples, dtype=float)
    if len(x) < 3:
        raise DegenerateSamplesError("need at least 3 samples")
    mean = float(x.mean())
    sd = float(x.std(ddof=1))
    if sd <= 0:
        raise DegenerateSamplesError("zero standard deviation")
    from math import erf, sqrt

    def cdf(t: np.ndarray) -> np.ndarray:
        z = (t - mean) / (sd * math.sqrt(2.0))
        return 0.5 * (1.0 + np.vectorize(erf)(z))

    ks = ks_distance(x, cdf)
    return GaussianFit(mean=mean, sd=sd, ks_distance=ks, n=len(x))


# ---------------------------------------------------------------------------
# Haar mean of the one-step index change

@dataclass(frozen=True)
class HaarMeanResult:
    mean: tuple[float, ...]
    se: tuple[float, ...]
    ci_lo: tuple[float, ...]
    ci_hi: tuple[float, ...]
    n: int


def haar_mean_sigma(
    g: GroupElement,
    n_samples: int,
    system: CoverSystem,
    rng,
    n_boot: int = 400,
) -> HaarMeanResult:
    """Monte Carlo mean of the one-step index change from Haar-random starts,
    with a bootstrap confidence interval.  Refuses when any cusp is unfolded:
    the index change then has an exact Cauchy-type non-integrable tail and the
    mean does not exist (identity increments are exactly zero and are allowed
    regardless)."""
    if hyp2.psl_distance(g, hyp2.IDENTITY) <= 1e-12:
        z = (0.0,) * system.d
        return HaarMeanResult(mean=z, se=z, ci_lo=z, ci_hi=z, n=n_samples)
    if any(system.spec.unfolded):
        raise NonIntegrableConfigurationError(
            "an unfolded cusp makes the one-step index change non-integrable"
        )
    parts = system.haar_parts
    vals = np.empty((n_samples, system.d), dtype=float)
    for i in range(n_samples):
        x = fuchsian.haar_sample(
            system.polygon, system.cusps, system.pres, rng, parts
        )
        p = system.start_point(x)
        q = system.apply_step(p, g)
        vals[i] = q.index
    mean = vals.mean(axis=0)
    se = vals.std(axis=0, ddof=1) / math.sqrt(n_samples)
    boots = np.empty((n_boot, system.d))
    n = n_samples
    for b in range(n_boot):
        pick = rng.integers(0, n, n)
        boots[b] = vals[pick].mean(axis=0)
    lo = np.quantile(boots, 0.0015, axis=0)
    hi = np.quantile(boots, 0.9985, axis=0)
    return HaarMeanResult(
        mean=tuple(map(float, mean)),
        se=tuple(map(float, se)),
        ci_lo=tuple(map(float, lo)),
        ci_hi=tuple(map(float, hi)),
        n=n,
    )


# ---------------------------------------------------------------------------
# drift summaries and the exact finite-orbit target

@dataclass(frozen=True)
class DriftSummary:
    per_trajectory: tuple[tuple[float, ...], ...]
    mean: tuple[float, ...]
    covariance: tuple[tuple[float, ...], ...]
    target: tuple[float, ...] | None
    max_dev_from_target: float | None


def drift_summary(
    results: Iterable[TrajectoryResult],
    target: Sequence[float] | None = None,
) -> DriftSummary:
    drifts = np.array([r.summary.terminal_drift for r in results], dtype=float)
    if drifts.size == 0:
        raise DegenerateSamplesError("no trajectories")
    mean = drifts.mean(axis=0)
    if len(drifts) > 1:
        cov = np.cov(drifts.T).reshape(drifts.shape[1], drifts.shape[1])
    else:
        cov = np.zeros((drifts.shape[1], drifts.shape[1]))
    dev = None
    tgt = None
    if target is not None:
        tgt = tuple(float(t) for t in target)
        dev = float(np.max(np.linalg.norm(drifts - np.asarray(tgt), axis=1)))
    return DriftSummary(
        per_trajectory=tuple(tuple(row) for row in drifts),
        mean=tuple(mean),
        covariance=tuple(tuple(row) for row in cov),
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
    total = np.zeros(system.d)
    for row in table.moves:
        for (_, delta), (_, prob) in zip(row, atoms):
            total += prob * np.asarray(delta, dtype=float)
    return tuple(float(v) for v in total / len(table.reps))


# ---------------------------------------------------------------------------
# accumulation-set diagnostic

@dataclass(frozen=True)
class OscillationReport:
    span_range: tuple[float, ...]        # per trajectory: range inside E_C
    complement_range: tuple[float, ...]  # per trajectory: range transverse to E_C
    total_range: tuple[float, ...]       # per trajectory: full-vector range
    frac_span_above: float
    frac_complement_below: float
    span_threshold: float
    complement_threshold: float


def accumulation_diagnostic(
    series_by_traj: dict[int, list[tuple[float, tuple[float, ...]]]],
    ec_basis: Sequence[IntVec],
    d: int,
    span_threshold: float,
    complement_threshold: float,
    n_min: float = 0.0,
) -> OscillationReport:
    """Oscillation of the normalized index over a checkpoint grid.

    For each trajectory the drift checkpoints (n, sigma/n) with n >= n_min are
    projected on an orthonormal basis of the span of the cusp translations
    and on its complement; the report gives componentwise max-minus-min
    ranges and the pooled fractions against the thresholds."""
    u = _orthonormal(ec_basis, d)
    v = _complement(u, d)
    span_r, comp_r, tot_r = [], [], []
    for traj, series in sorted(series_by_traj.items()):
        pts = np.array([p for n, p in series if n >= n_min], dtype=float)
        if len(pts) == 0:
            continue
        tot = float(np.max(np.ptp(pts, axis=0))) if len(pts) > 1 else 0.0
        if u.size:
            proj = pts @ u.T
            span_r.append(float(np.max(np.ptp(proj, axis=0))))
        else:
            span_r.append(0.0)
        if v.size:
            proj = pts @ v.T
            comp_r.append(float(np.max(np.ptp(proj, axis=0))))
        else:
            comp_r.append(0.0)
        tot_r.append(tot)
    if not tot_r:
        raise DegenerateSamplesError("no checkpoints above n_min")
    span_arr = np.array(span_r)
    comp_arr = np.array(comp_r)
    return OscillationReport(
        span_range=tuple(span_r),
        complement_range=tuple(comp_r),
        total_range=tuple(tot_r),
        frac_span_above=float((span_arr > span_threshold).mean()),
        frac_complement_below=float((comp_arr < complement_threshold).mean()),
        span_threshold=span_threshold,
        complement_threshold=complement_threshold,
    )


def _orthonormal(basis: Sequence[IntVec], d: int) -> np.ndarray:
    if not basis:
        return np.zeros((0, d))
    m = np.asarray(basis, dtype=float)
    q, _ = np.linalg.qr(m.T)
    return q.T[: len(basis)]


def _complement(u: np.ndarray, d: int) -> np.ndarray:
    if u.shape[0] >= d:
        return np.zeros((0, d))
    a = np.vstack([u, np.eye(d)])
    q, r = np.linalg.qr(a.T)
    keep = []
    for j in range(q.shape[1]):
        if abs(r[j, j]) > 1e-12 and j >= u.shape[0]:
            keep.append(j)
    return q.T[keep][: d - u.shape[0]]


# ---------------------------------------------------------------------------
# recurrence report

@dataclass(frozen=True)
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
        median_first_return=float(np.median(firsts)) if firsts else None,
        median_max_excursion=tuple(float(np.median(e)) for e in exc),
        d=d,
        dim_EC=dim_ec,
        verdict_hint=recurrence_verdict(d, dim_ec),
    )
