"""The Haar mean of the one-step index change, with a bootstrap interval:
a Monte Carlo check of the mean-zero property of the index change on a
folded cover, used by the tests (``TestHaarMeanSigma``)."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from covwalk import fuchsian, hyp2
from covwalk.cover import CoverSystem
from covwalk.hyp2 import GroupElement
from covwalk.stats import quantile


class NonIntegrableConfigurationError(RuntimeError):
    """The requested mean does not exist: an unfolded cusp makes the index
    change non-integrable against the Haar measure."""


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
    lo = quantile(boots, 0.0015)
    hi = quantile(boots, 0.9985)
    return HaarMeanResult(
        mean=tuple(map(float, mean)),
        se=tuple(map(float, se)),
        ci_lo=tuple(map(float, lo)),
        ci_hi=tuple(map(float, hi)),
        n=n,
    )
