import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covwalk import cover as C
from covwalk import fuchsian as F
from covwalk import hyp2 as H
from covwalk import stats as S
from covwalk import walk as W


def cauchy_samples(rng, n, c=1.0, loc=0.0):
    return loc + c * np.tan(math.pi * (rng.random(n) - 0.5))


@pytest.fixture(scope="module")
def torus_d1():
    pres, poly, cusps = F.builtin_lattice("punctured_square_torus")
    spec = C.validate_cover(pres, cusps, {"g1": (0,), "g2": (1,)})
    return C.cover_system(pres, poly, cusps, spec)


def same_bits(got, want) -> bool:
    return np.asarray(got, float).tobytes() == np.asarray(want, float).tobytes()


class TestQuantile:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), rows=st.integers(1, 41), cols=st.integers(0, 3),
           q=st.one_of(st.sampled_from([0.0, 0.0015, 0.25, 0.5, 0.75, 0.9985, 1.0]),
                       st.floats(0.0, 1.0)))
    def test_numpy_bits(self, data, rows, cols, q):
        # odd and even counts, 1-D (cols 0) and by column; + 0.0 turns -0.0
        # into 0.0, since a sort may put either zero first
        shape = (rows,) if cols == 0 else (rows, cols)
        x = np.array(data.draw(st.lists(
            st.floats(allow_nan=False, allow_infinity=False, width=64),
            min_size=math.prod(shape), max_size=math.prod(shape),
        ))).reshape(shape) + 0.0
        assert same_bits(S.quantile(x), np.median(x, axis=0))
        assert same_bits(S.quantile(x, q), np.quantile(x, q, axis=0))

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(x=st.lists(st.integers(-10**6, 10**6), min_size=1, max_size=41))
    def test_integer_median(self, x):
        # recurrence_report takes the median of first-return steps
        assert same_bits(S.quantile(x), np.median(x))

    def test_nan_column(self):
        x = np.array([[1.0, 2.0], [np.nan, 3.0], [0.5, 4.0], [2.0, 5.0]])
        for got, want in ((S.quantile(x), np.median(x, axis=0)),
                          (S.quantile(x, 0.25), np.quantile(x, 0.25, axis=0))):
            assert np.isnan(got[0]) and np.isnan(want[0])
            assert same_bits(got[1], want[1])


class TestCauchyFit:
    def test_synthetic_scale(self):
        rng = np.random.default_rng(1)
        fit = S.cauchy_fit(cauchy_samples(rng, 10000))
        assert 0.95 <= fit.scale <= 1.05
        assert fit.ks_distance <= 0.02
        assert 0.8 <= fit.tail_index <= 1.3

    def test_constant_samples_degenerate(self):
        with pytest.raises(S.DegenerateSamplesError):
            S.cauchy_fit(np.ones(500))

    def test_too_few_samples(self):
        with pytest.raises(S.DegenerateSamplesError):
            S.cauchy_fit(np.arange(50, dtype=float))

    def test_gaussian_has_heavy_tail_index(self):
        rng = np.random.default_rng(2)
        g = rng.normal(0, 1, 10000)
        assert S.hill_tail_index(g) >= 3.0

    def test_scale_equivariance_exact(self):
        rng = np.random.default_rng(3)
        x = cauchy_samples(rng, 5000)
        f1 = S.cauchy_fit(x)
        f2 = S.cauchy_fit(3.0 * x)
        assert f2.scale == pytest.approx(3.0 * f1.scale, rel=1e-12)

    def test_contraction_to_truth(self):
        rng = np.random.default_rng(4)
        good = 0
        for _ in range(50):
            fit = S.cauchy_fit(cauchy_samples(rng, 10000))
            if abs(fit.scale - 1.0) <= 0.05:
                good += 1
        assert good >= 45

    def test_mle_cross_check(self):
        rng = np.random.default_rng(5)
        x = cauchy_samples(rng, 20000, c=2.5)
        assert S.cauchy_scale_mle(x) == pytest.approx(2.5, rel=0.05)

    def test_hill_separates_laws(self):
        rng = np.random.default_rng(6)
        ok = 0
        for _ in range(100):
            cau = S.hill_tail_index(cauchy_samples(rng, 10000))
            gau = S.hill_tail_index(rng.normal(0, 1, 10000))
            if 0.8 <= cau <= 1.3 and gau >= 3.0:
                ok += 1
        assert ok >= 95


class TestGaussianFit:
    def test_synthetic(self):
        rng = np.random.default_rng(7)
        fit = S.gaussian_fit(rng.normal(0, 1, 10000))
        assert fit.ks_distance <= 0.02

    def test_shifted_mean_recovered(self):
        rng = np.random.default_rng(8)
        x = rng.normal(1.7, 2.0, 4000)
        fit = S.gaussian_fit(x)
        assert abs(fit.mean - 1.7) <= 3.0 * 2.0 / math.sqrt(4000)

    def test_degenerate(self):
        with pytest.raises(S.DegenerateSamplesError):
            S.gaussian_fit(np.zeros(100))


class TestHaarMeanSigma:
    def test_identity_exact_zero(self, torus_d1):
        rng = np.random.default_rng(9)
        res = S.haar_mean_sigma(H.IDENTITY, 5, torus_d1, rng)
        assert res.mean == (0.0,)

    def test_unfolded_refused(self):
        pres, poly, cusps = F.builtin_lattice("gamma2")
        spec = C.validate_cover(pres, cusps, {"A": (1,), "B": (0,)})
        system = C.cover_system(pres, poly, cusps, spec)
        rng = np.random.default_rng(10)
        with pytest.raises(S.NonIntegrableConfigurationError):
            S.haar_mean_sigma(pres.gen_map()["A"], 100, system, rng)

    def test_zero_mean_on_folded_cover(self, torus_d1):
        rng = np.random.default_rng(11)
        g = torus_d1.pres.gen_map()["g2"]
        res = S.haar_mean_sigma(g, 20000, torus_d1, rng)
        assert res.ci_lo[0] <= 0.0 <= res.ci_hi[0]

    def test_ci_coverage(self, torus_d1):
        # the 3-SE-style bootstrap interval contains zero in nearly all runs
        g = torus_d1.pres.gen_map()["g2"]
        hits = 0
        for rep in range(100):
            rng = np.random.default_rng(1000 + rep)
            res = S.haar_mean_sigma(g, 800, torus_d1, rng, n_boot=200)
            if res.ci_lo[0] <= 0.0 <= res.ci_hi[0]:
                hits += 1
        assert hits >= 93


class TestDriftSummary:
    def test_exact_half_target(self, torus_d1):
        mu = W.two_atom_measure(torus_d1.pres)
        target = S.exact_finite_orbit_target(torus_d1, mu, H.BASE_TANGENT)
        assert target == (0.5,)

    def test_symmetric_target_zero(self, torus_d1):
        gm = torus_d1.pres.gen_map()
        mu = W.measure_from_atoms(
            [
                (gm["g1"], 0.25),
                (H.inverse(gm["g1"]), 0.25),
                (gm["g2"], 0.25),
                (H.inverse(gm["g2"]), 0.25),
            ]
        )
        target = S.exact_finite_orbit_target(torus_d1, mu, H.BASE_TANGENT)
        assert target == (0.0,)

    def test_single_step_trajectory(self, torus_d1):
        mu = W.two_atom_measure(torus_d1.pres)
        cfg = W.WalkConfig(steps=1, trajectories=1, master_seed=3,
                           start=W.StartSpec(mode="fixed", tangent=H.BASE_TANGENT),
                           count_atoms=True)
        res = W.simulate_trajectory(torus_d1, mu, cfg, 0)
        ds = S.drift_summary([res])
        assert ds.per_trajectory[0][0] in (0.0, 1.0)
        assert ds.per_trajectory[0][0] == float(res.summary.final_index[0])

    def test_pooled_against_target(self, torus_d1):
        mu = W.two_atom_measure(torus_d1.pres)
        cfg = W.WalkConfig(steps=2000, trajectories=30, master_seed=4,
                           start=W.StartSpec(mode="fixed", tangent=H.BASE_TANGENT))
        outs = W.run_trajectories(torus_d1, mu, cfg)
        ds = S.drift_summary(outs, target=(0.5,))
        assert ds.max_dev_from_target < 0.1


class TestAccumulation:
    def test_synthetic_deterministic_drift(self):
        # a fabricated linear path has zero range in every direction
        series = {
            0: [(n, (2.0, 0.0)) for n in (10, 100, 1000)],
        }
        rep = S.accumulation_diagnostic(series, [(1, 0)], 2, 0.5, 0.1)
        assert rep.span_range[0] == 0.0
        assert rep.complement_range[0] == 0.0

    def test_span_vs_complement_split(self):
        series = {
            0: [(10, (0.5, 0.001)), (100, (-0.5, 0.0)), (1000, (0.2, -0.001))],
        }
        rep = S.accumulation_diagnostic(series, [(1, 0)], 2, 0.3, 0.1)
        assert rep.frac_span_above == 1.0
        assert rep.frac_complement_below == 1.0


class TestRecurrenceReport:
    def test_verdict_table(self):
        assert S.recurrence_verdict(1, 0) == "recurrent"
        assert S.recurrence_verdict(1, 1) == "recurrent"
        assert S.recurrence_verdict(2, 0) == "recurrent"
        assert S.recurrence_verdict(2, 1) == "transient"
        assert S.recurrence_verdict(2, 2) == "transient"
        assert S.recurrence_verdict(3, 0) == "transient"

    def test_report_fields(self, torus_d1):
        pres, poly, cusps = F.builtin_lattice("punctured_square_torus")
        spec = C.validate_cover(pres, cusps, {"g1": (1, 0), "g2": (0, 1)})
        sys2 = C.cover_system(pres, poly, cusps, spec)
        mu = W.two_atom_measure(pres)
        cfg = W.WalkConfig(steps=5000, trajectories=12, master_seed=5,
                           checkpoints=W.CheckpointPlan(stride=5000),
                           returns=W.ReturnSpec(radius=2.0, grid=(1000, 5000)))
        outs = W.run_trajectories(sys2, mu, cfg)
        rep = S.recurrence_report(outs, 2, 0)
        assert rep.grid == (1000, 5000)
        assert rep.verdict_hint == "recurrent"
        assert all(0.0 <= fr <= 1.0 for fr in rep.return_fraction)
        assert rep.return_fraction[0] <= rep.return_fraction[1]

    def test_missing_tracking_raises(self, torus_d1):
        mu = W.two_atom_measure(torus_d1.pres)
        cfg = W.WalkConfig(steps=100, trajectories=2, master_seed=6)
        outs = W.run_trajectories(torus_d1, mu, cfg)
        with pytest.raises(ValueError):
            S.recurrence_report(outs, 1, 1)


class TestKS:
    def test_uniform_exact(self):
        x = np.arange(1, 101) / 101.0
        d = S.ks_distance(x, lambda t: t)
        assert d < 0.02
