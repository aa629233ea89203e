import functools
import math
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covwalk import cover as C
from covwalk import fuchsian as F
from covwalk import hyp2 as H
from covwalk import stats as S
from covwalk import walk as W
from haar_mean import NonIntegrableConfigurationError, haar_mean_sigma


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
        # a NaN away from the middle, where a plain sort leaves it
        assert np.isnan(S.quantile([np.nan, 1.0, 2.0, 3.0, 4.0]))


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
        res = haar_mean_sigma(H.IDENTITY, 5, torus_d1, rng)
        assert res.mean == (0.0,)

    def test_unfolded_refused(self):
        pres, poly, cusps = F.builtin_lattice("gamma2")
        spec = C.validate_cover(pres, cusps, {"A": (1,), "B": (0,)})
        system = C.cover_system(pres, poly, cusps, spec)
        rng = np.random.default_rng(10)
        with pytest.raises(NonIntegrableConfigurationError):
            haar_mean_sigma(pres.gen_map()["A"], 100, system, rng)

    def test_zero_mean_on_folded_cover(self, torus_d1):
        rng = np.random.default_rng(11)
        g = torus_d1.pres.gen_map()["g2"]
        res = haar_mean_sigma(g, 20000, torus_d1, rng)
        assert res.ci_lo[0] <= 0.0 <= res.ci_hi[0]

    def test_ci_coverage(self, torus_d1):
        # the 3-SE-style bootstrap interval contains zero in nearly all runs
        g = torus_d1.pres.gen_map()["g2"]
        hits = 0
        for rep in range(100):
            rng = np.random.default_rng(1000 + rep)
            res = haar_mean_sigma(g, 800, torus_d1, rng, n_boot=200)
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


# ---------------------------------------------------------------------------
# The numpy expressions that the run path's plain-Python statistics replace,
# kept as references for the parity tests below.

def np_ks_distance(samples, cdf):
    x = np.sort(np.asarray(samples, dtype=float))
    n = len(x)
    f = cdf(x)
    up = np.arange(1, n + 1) / n
    lo = np.arange(0, n) / n
    return float(max(np.max(up - f), np.max(f - lo)))


def np_hill_tail_index(samples, center=None):
    x = np.asarray(samples, dtype=float)
    if center is None:
        center = float(np.median(x))
    a = np.abs(x - center)
    a = a[a > 0]
    a.sort()
    n = len(a)
    k = max(10, int(0.05 * n))
    return 1.0 / float(np.mean(np.log(a[n - k:] / a[n - k - 1])))


def np_gaussian_moments(samples):
    x = np.asarray(samples, dtype=float)
    return float(x.mean()), float(x.std(ddof=1))


def np_cauchy_scale_mle(samples, location=None):
    x = np.asarray(samples, dtype=float)
    m = float(np.median(x)) if location is None else location
    r2 = (x - m) ** 2
    lo, hi = 1e-12, float(np.max(np.abs(x - m))) + 1.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        c2 = mid * mid
        if float(np.mean(c2 / (c2 + r2))) - 0.5 < 0:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def np_exact_finite_orbit_target(system, measure, start):
    atoms = [(g, prob) for g, prob in measure.atoms if prob > 0]
    table = system.orbit_table(start, tuple(g for g, _ in atoms), 4096)
    if table is None:
        return None
    total = np.zeros(system.d)
    for row in table.moves:
        for (_, delta), (_, prob) in zip(row, atoms):
            total += prob * np.asarray(delta, dtype=float)
    return tuple(float(v) for v in total / len(table.reps))


def np_orthonormal(basis, d):
    if not basis:
        return np.zeros((0, d))
    q, _ = np.linalg.qr(np.asarray(basis, dtype=float).T)
    return q.T[: len(basis)]


def np_complement(u, d):
    if u.shape[0] >= d:
        return np.zeros((0, d))
    q, r = np.linalg.qr(np.vstack([u, np.eye(d)]).T)
    keep = [j for j in range(q.shape[1])
            if abs(r[j, j]) > 1e-12 and j >= u.shape[0]]
    return q.T[keep][: d - u.shape[0]]


def np_ranges(series_by_traj, ec_basis, d):
    """Per trajectory (span, complement, total) range, and the number of
    complement directions, by QR."""
    u = np_orthonormal(ec_basis, d)
    v = np_complement(u, d)
    out = []
    for _, series in sorted(series_by_traj.items()):
        pts = np.array([p for _, p in series], dtype=float)
        tot = float(np.max(np.ptp(pts, axis=0))) if len(pts) > 1 else 0.0
        span = float(np.max(np.ptp(pts @ u.T, axis=0))) if u.size else 0.0
        comp = float(np.max(np.ptp(pts @ v.T, axis=0))) if v.size else 0.0
        out.append((span, comp, tot))
    return out, len(v)


def spread_values(draw, count):
    """count floats of mixed sign and magnitudes 1e-8 .. 1e8, some of them
    signed zeros, from a hypothesis-drawn seed."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.standard_normal(count) * 10.0 ** rng.uniform(-8, 8, count)
    if draw(st.booleans()):
        x[rng.random(count) < 0.2] = 0.0
        x[rng.random(count) < 0.1] = -0.0
    return x.tolist()


# K values on both sides of the 8-lane and 128-term block boundaries
SIZES = st.one_of(
    st.integers(1, 600),
    st.sampled_from([7, 8, 9, 15, 16, 17, 127, 128, 129, 135, 136, 137,
                     255, 256, 257, 263, 264, 511, 512, 513]),
)


def fake_results(rows):
    return [SimpleNamespace(summary=SimpleNamespace(terminal_drift=tuple(r)))
            for r in rows]


class TestNumpyParity:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), k=SIZES, d=st.sampled_from([1, 2, 3]))
    def test_column_means(self, data, k, d):
        flat = spread_values(data.draw, k * d)
        rows = [tuple(flat[i * d:(i + 1) * d]) for i in range(k)]
        assert same_bits(S._column_means(rows), np.array(rows).mean(axis=0))
        if d == 1:
            assert same_bits(S._pairwise_sum(flat), np.array(flat).sum())

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), k=SIZES, d=st.sampled_from([1, 2, 3]))
    def test_abs_median(self, data, k, d):
        a = np.array(spread_values(data.draw, k * d)).reshape(k, d)
        got = S.quantile([[abs(v) for v in row] for row in a.tolist()])
        assert same_bits(got, np.median(np.abs(a), axis=0))

    @settings(max_examples=150, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), k=st.integers(1, 60), d=st.integers(1, 10))
    def test_target_distance(self, data, k, d):
        a = np.array(spread_values(data.draw, k * d)).reshape(k, d)
        tgt = spread_values(data.draw, d)
        ds = S.drift_summary(fake_results(a.tolist()), target=tgt)
        want = np.max(np.linalg.norm(a - np.asarray(tgt), axis=1))
        assert same_bits(ds.max_dev_from_target, want)
        assert same_bits(ds.mean, a.mean(axis=0))

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(cover=st.sampled_from(["d1", "d2", "gamma2"]),
           raw=st.lists(st.integers(0, 50), min_size=4, max_size=4)
           .filter(lambda w: sum(w) > 0))
    def test_exact_finite_orbit_target(self, cover, raw):
        system = COVERS[cover]()
        (_, a), (_, b) = system.pres.generators
        gens = [a, b, H.inverse(a), H.inverse(b)]
        mu = W.measure_from_atoms([(g, w / sum(raw)) for g, w in zip(gens, raw)])
        got = S.exact_finite_orbit_target(system, mu, H.BASE_TANGENT)
        want = np_exact_finite_orbit_target(system, mu, H.BASE_TANGENT)
        assert got is not None
        assert same_bits(got, want)

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(100, 3000),
           law=st.sampled_from(["cauchy", "normal"]))
    def test_ks_and_hill(self, seed, n, law):
        rng = np.random.default_rng(seed)
        x = cauchy_samples(rng, n, 0.1) if law == "cauchy" else rng.normal(0, 1, n)
        fit = S.cauchy_fit(x.tolist())
        loc, c = fit.location, fit.scale
        want_ks = np_ks_distance(x, lambda t: 0.5 + np.arctan((t - loc) / c) / math.pi)
        assert fit.ks_distance == pytest.approx(want_ks, rel=1e-12)
        assert fit.tail_index == pytest.approx(np_hill_tail_index(x, loc), rel=1e-12)
        assert S.hill_tail_index(x) == pytest.approx(np_hill_tail_index(x), rel=1e-12)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), n=SIZES.filter(lambda k: k >= 3))
    def test_gaussian_moments(self, data, n):
        x = spread_values(data.draw, n)
        mean, sd = np_gaussian_moments(x)
        if sd > 0:
            fit = S.gaussian_fit(x)
            assert same_bits((fit.mean, fit.sd), (mean, sd))
        else:  # every value zero
            with pytest.raises(S.DegenerateSamplesError):
                S.gaussian_fit(x)

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(3, 3000),
           c=st.floats(1e-6, 1e6), loc=st.floats(-1e3, 1e3),
           given_location=st.booleans())
    def test_cauchy_scale_mle(self, seed, n, c, loc, given_location):
        x = cauchy_samples(np.random.default_rng(seed), n, c, loc).tolist()
        m = loc if given_location else None
        assert same_bits(S.cauchy_scale_mle(x, m), np_cauchy_scale_mle(x, m))

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), d=st.integers(1, 4))
    def test_accumulation(self, data, d):
        r = data.draw(st.integers(0, d))
        basis = data.draw(independent_basis(d, r))
        series = {
            t: [(n, tuple(spread_values(data.draw, d))) for n in range(m)]
            for t, m in enumerate(data.draw(st.lists(st.integers(1, 12),
                                                     min_size=1, max_size=5)))
        }
        rep = S.accumulation_diagnostic(series, basis, d, 0.1, 0.1)
        want, n_complement = np_ranges(series, basis, d)
        scale = max(abs(v) for s in series.values() for _, p in s for v in p)
        for got, (span, comp, tot) in zip(
            zip(rep.span_range, rep.complement_range, rep.total_range), want
        ):
            assert got[2] == tot
            assert got[0] == pytest.approx(span, rel=1e-12, abs=1e-12 * scale)
            if n_complement == d - r:
                assert got[1] == pytest.approx(comp, rel=1e-12, abs=1e-12 * scale)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(data=st.data(), d=st.integers(1, 5))
    def test_complement_is_whole(self, data, d):
        # orthonormal rows: dim E_C of them for E_C and d - dim E_C for its
        # complement, also where a unit vector e_i lies in E_C (which the QR
        # construction of the references above misses)
        r = data.draw(st.integers(0, d))
        u = S._orthonormal(data.draw(independent_basis(d, r)))
        v = S._complement(u, d)
        assert len(u) == r and len(v) == d - r
        m = np.array(u + v).reshape(d, d)
        assert np.allclose(m @ m.T, np.eye(d), rtol=0, atol=1e-12)

    def test_complement_of_a_unit_vector(self):
        u = S._orthonormal([(1, 0)])
        assert np.allclose(np.abs(S._complement(u, 2)), [[0.0, 1.0]])


def independent_basis(d, r):
    """r linearly independent integer vectors of length d."""
    return (st.lists(st.lists(st.integers(-4, 4), min_size=d, max_size=d)
                     .map(tuple), min_size=r, max_size=r)
            .filter(lambda b: not b or np.linalg.matrix_rank(np.array(b)) == r))


def torus_cover(weights):
    pres, poly, cusps = F.builtin_lattice("punctured_square_torus")
    return C.cover_system(pres, poly, cusps, C.validate_cover(pres, cusps, weights))


def gamma2_cover():
    pres, poly, cusps = F.builtin_lattice("gamma2")
    return C.cover_system(
        pres, poly, cusps, C.validate_cover(pres, cusps, {"A": (1,), "B": (0,)}))


COVERS = {
    "d1": functools.cache(lambda: torus_cover({"g1": (0,), "g2": (1,)})),
    "d2": functools.cache(lambda: torus_cover({"g1": (1, 0), "g2": (0, 1)})),
    "gamma2": functools.cache(gamma2_cover),
}
