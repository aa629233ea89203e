"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one `ACCEPTANCE <k> PASS/FAIL` line (run with `-s` to see
them live).  Long runs are shared between criteria through module fixtures;
all seeds are fixed, so the suite is reproducible bit for bit.
"""

import math

import numpy as np
import pytest

from covwalk import cover as C
from covwalk import fuchsian as F
from covwalk import hyp2 as H
from covwalk import stats as S
from covwalk import walk as W

pytestmark = pytest.mark.acceptance

SEED = 20240601


def criterion(k: int, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {k} {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, f"criterion {k}: {detail}"


# ---------------------------------------------------------------------------
# shared geometry

@pytest.fixture(scope="module")
def gamma2_d1():
    pres, poly, cusps = F.builtin_lattice("gamma2")
    spec = C.validate_cover(pres, cusps, {"A": (1,), "B": (0,)})
    return C.cover_system(pres, poly, cusps, spec)


@pytest.fixture(scope="module")
def gamma2_d2():
    pres, poly, cusps = F.builtin_lattice("gamma2")
    spec = C.validate_cover(pres, cusps, {"A": (1, 0), "B": (0, 1)})
    return C.cover_system(pres, poly, cusps, spec)


@pytest.fixture(scope="module")
def torus_d1():
    pres, poly, cusps = F.builtin_lattice("punctured_square_torus")
    spec = C.validate_cover(pres, cusps, {"g1": (0,), "g2": (1,)})
    return C.cover_system(pres, poly, cusps, spec)


@pytest.fixture(scope="module")
def torus_d2():
    pres, poly, cusps = F.builtin_lattice("punctured_square_torus")
    spec = C.validate_cover(pres, cusps, {"g1": (1, 0), "g2": (0, 1)})
    return C.cover_system(pres, poly, cusps, spec)


PARAMETRIC = W.parametric_measure(0.5, 1.5)
RETURNS = W.ReturnSpec(radius=2.0, grid=(10_000, 100_000))
GEOM_CPS = W.CheckpointPlan(kind="geometric", n0=1000, ratio=1.25)


# ---------------------------------------------------------------------------
# shared runs

@pytest.fixture(scope="module")
def torus_d2_run(torus_d2):
    """Torus cover of rank two, fair two-atom measure, Haar starts:
    n = 1e5, K = 200.  Feeds criteria 2, 8 and 9."""
    mu = W.two_atom_measure(torus_d2.pres)
    cfg = W.WalkConfig(
        steps=100_000,
        trajectories=200,
        master_seed=SEED + 2,
        checkpoints=GEOM_CPS,
        returns=RETURNS,
    )
    return W.run_trajectories(torus_d2, mu, cfg)


@pytest.fixture(scope="module")
def gamma2_d1_run(gamma2_d1):
    """gamma2 rank-one cover, parametric measure, Haar starts:
    n = 1e5, K = 200.  Feeds criteria 8 and 9."""
    cfg = W.WalkConfig(
        steps=100_000,
        trajectories=200,
        master_seed=SEED + 8,
        checkpoints=GEOM_CPS,
        returns=RETURNS,
    )
    return W.run_trajectories(gamma2_d1, PARAMETRIC, cfg)


@pytest.fixture(scope="module")
def gamma2_d2_run(gamma2_d2):
    """gamma2 full-abelianization cover (transient case): n = 1e5, K = 200."""
    cfg = W.WalkConfig(
        steps=100_000,
        trajectories=200,
        master_seed=SEED + 9,
        checkpoints=GEOM_CPS,
        returns=RETURNS,
    )
    return W.run_trajectories(gamma2_d2, PARAMETRIC, cfg)


@pytest.fixture(scope="module")
def geodesic_gamma2_run(gamma2_d1):
    """Geodesic flow on the gamma2 cover: T = 200, N = 5000 Haar starts."""
    cfg = W.WalkConfig(
        steps=800,
        trajectories=5000,
        master_seed=SEED + 5,
        dt=0.25,
        checkpoints=W.CheckpointPlan(stride=800),
    )
    return W.run_trajectories(gamma2_d1, None, cfg, geodesic=True)


@pytest.fixture(scope="module")
def geodesic_cauchy_fit(geodesic_gamma2_run):
    drifts = [r.summary.terminal_drift[0] for r in geodesic_gamma2_run]
    return S.cauchy_fit(drifts)


@pytest.fixture(scope="module")
def walk_cauchy_run(gamma2_d1):
    """gamma2 walk with the parametric measure: n = 2000, K = 5000."""
    cfg = W.WalkConfig(
        steps=2000,
        trajectories=5000,
        master_seed=SEED + 6,
        checkpoints=W.CheckpointPlan(stride=2000),
    )
    return W.run_trajectories(gamma2_d1, PARAMETRIC, cfg)


@pytest.fixture(scope="module")
def lyapunov_parametric():
    return W.lyapunov_estimate(PARAMETRIC, steps=4000, trajectories=2000,
                               master_seed=SEED + 7)


# ---------------------------------------------------------------------------
# criteria

def test_c01_exact_combinatorial_drift_identity(torus_d1):
    """Distinguished start, fair two-atom measure: the sheet index equals the
    count of axis letters exactly, and the terminal drift sits in [.45,.55]."""
    mu = W.two_atom_measure(torus_d1.pres)
    cfg = W.WalkConfig(
        steps=10_000,
        trajectories=100,
        master_seed=SEED + 1,
        checkpoints=W.CheckpointPlan(stride=10_000),
        start=W.StartSpec(mode="fixed", tangent=H.BASE_TANGENT),
        count_atoms=True,
    )
    outs = W.run_trajectories(torus_d1, mu, cfg)
    exact = sum(
        1 for r in outs if r.summary.final_index[0] == r.summary.atom_counts[1]
    )
    in_band = sum(1 for r in outs if 0.45 <= r.summary.terminal_drift[0] <= 0.55)

    # per-step form of the identity on a few trajectories
    gm = torus_d1.pres.gen_map()
    per_step_ok = True
    for traj in range(3):
        rng = W.trajectory_rng(SEED + 1, traj)
        picks = rng.random(4096)
        step = torus_d1.stepper(torus_d1.start_point(H.BASE_TANGENT))
        count = 0
        for j in range(2000):
            b = picks[j] >= 0.5
            count += int(b)
            p = step(gm["g2"] if b else gm["g1"])
            if p.index != (count,):
                per_step_ok = False
                break

    ok = exact == 100 and in_band >= 99 and per_step_ok
    criterion(
        1,
        ok,
        f"exact identity {exact}/100, drift in [0.45,0.55] {in_band}/100, "
        f"per-step identity {per_step_ok}",
    )


def test_c02_zero_drift_no_unfolded_cusp(torus_d2_run):
    """Haar starts on the torus cover: the normalized index vanishes."""
    norms = [math.hypot(*r.summary.terminal_drift) for r in torus_d2_run]
    frac = sum(1 for v in norms if v <= 0.05) / len(norms)
    criterion(
        2,
        frac >= 0.95,
        f"||drift|| <= 0.05 for {frac:.1%} of {len(norms)} trajectories "
        f"(max {max(norms):.5f})",
    )


def test_c03_symmetric_measure_zero_drift(torus_d1):
    """Symmetric four-atom measure at the distinguished start: the exact
    orbit-enumerated target is zero and the empirical drift concentrates."""
    gm = torus_d1.pres.gen_map()
    mu = W.measure_from_atoms(
        [
            (gm["g2"], 0.25),
            (H.inverse(gm["g2"]), 0.25),
            (gm["g1"], 0.25),
            (H.inverse(gm["g1"]), 0.25),
        ]
    )
    target = S.exact_finite_orbit_target(torus_d1, mu, H.BASE_TANGENT)
    cfg = W.WalkConfig(
        steps=10_000,
        trajectories=100,
        master_seed=SEED + 3,
        checkpoints=W.CheckpointPlan(stride=10_000),
        start=W.StartSpec(mode="fixed", tangent=H.BASE_TANGENT),
    )
    outs = W.run_trajectories(torus_d1, mu, cfg)
    close = sum(1 for r in outs if abs(r.summary.terminal_drift[0]) <= 0.05)
    ok = target == (0.0,) and close >= 95
    criterion(
        3,
        ok,
        f"exact target {target}, |drift| <= 0.05 for {close}/100",
    )


def test_c04_haar_cusp_density(gamma2_d1):
    """Tail mass of the Haar law above cusp height h decays like e^{-h}."""
    rng = np.random.default_rng(SEED + 4)
    system = gamma2_d1
    parts = F.cusp_neighborhoods(system.polygon, system.cusps, 0.0)
    n = 100_000
    heights = np.empty(n)
    for i in range(n):
        x = F.haar_sample(system.polygon, system.cusps, system.pres, rng, parts)
        bp = x.base_point()
        heights[i] = F.cusp_height(system.cusps, bp.x, bp.y)
    hs = np.arange(1, 6)
    mass = np.array([(heights > h).mean() for h in hs])
    slope = float(np.polyfit(hs, np.log(mass), 1)[0])
    criterion(4, abs(slope + 1.0) <= 0.1, f"log tail-mass slope {slope:.4f} vs -1")


def test_c05_geodesic_winding_cauchy_law(geodesic_cauchy_fit):
    """Normalized index of the geodesic flow at T = 200 is Cauchy."""
    fit = geodesic_cauchy_fit
    ok = fit.ks_distance <= 0.05 and 0.8 <= fit.tail_index <= 1.3
    criterion(
        5,
        ok,
        f"KS {fit.ks_distance:.4f} (<= 0.05), Hill tail index "
        f"{fit.tail_index:.3f} (in [0.8, 1.3]), scale {fit.scale:.4f}",
    )


def test_c06_walk_cauchy_and_lyapunov_scaling(
    walk_cauchy_run, geodesic_cauchy_fit, lyapunov_parametric
):
    """Walk drifts are Cauchy and the walk scale is the Lyapunov exponent
    times the geodesic scale."""
    drifts = [r.summary.terminal_drift[0] for r in walk_cauchy_run]
    fit = S.cauchy_fit(drifts)
    lam = lyapunov_parametric.value
    ratio = fit.scale / (lam * geodesic_cauchy_fit.scale)
    ok = (
        fit.ks_distance <= 0.06
        and 0.8 <= fit.tail_index <= 1.3
        and 0.8 <= ratio <= 1.25
    )
    criterion(
        6,
        ok,
        f"KS {fit.ks_distance:.4f} (<= 0.06), tail {fit.tail_index:.3f}, "
        f"scale ratio c_walk/(lambda*c_geo) = {ratio:.4f} (in [0.8, 1.25], "
        f"lambda = {lam:.4f})",
    )


def test_c07_gaussian_regime_when_span_trivial(torus_d1):
    """Folded cover: index/sqrt(t) of the geodesic flow at t = 400 is
    Gaussian with a light tail."""
    cfg = W.WalkConfig(
        steps=1600,
        trajectories=5000,
        master_seed=SEED + 10,
        dt=0.25,
        checkpoints=W.CheckpointPlan(stride=1600),
    )
    outs = W.run_trajectories(torus_d1, None, cfg, geodesic=True)
    vals = [r.summary.final_index[0] / math.sqrt(400.0) for r in outs]
    fit = S.gaussian_fit(vals)
    tail = S.hill_tail_index(vals)
    ok = fit.ks_distance <= 0.05 and tail >= 3.0
    criterion(
        7,
        ok,
        f"KS {fit.ks_distance:.4f} (<= 0.05), tail index {tail:.2f} (>= 3)",
    )


def test_c08_accumulation_vs_convergence_dichotomy(
    gamma2_d1, torus_d2, gamma2_d1_run, torus_d2_run
):
    """Unfolded cover: the normalized index keeps oscillating by at least
    half the fitted Cauchy scale; folded cover: it settles below 0.1."""
    drifts = [r.summary.terminal_drift[0] for r in gamma2_d1_run]
    c_hat = S.cauchy_fit(drifts).scale
    series_g = {
        r.summary.traj: [(rec.n, rec.drift) for rec in r.records]
        for r in gamma2_d1_run
    }
    rep_g = S.accumulation_diagnostic(
        series_g,
        gamma2_d1.spec.E_C_basis,
        1,
        span_threshold=0.5 * c_hat,
        complement_threshold=0.1,
        n_min=1000,
    )
    series_t = {
        r.summary.traj: [(rec.n, rec.drift) for rec in r.records]
        for r in torus_d2_run
    }
    rep_t = S.accumulation_diagnostic(
        series_t,
        torus_d2.spec.E_C_basis,
        2,
        span_threshold=0.1,
        complement_threshold=0.1,
        n_min=1000,
    )
    frac_small = float(np.mean(np.array(rep_t.total_range) < 0.1))
    ok = rep_g.frac_span_above >= 0.8 and frac_small >= 0.95
    criterion(
        8,
        ok,
        f"unfolded: span range > 0.5*c ({0.5 * c_hat:.4f}) for "
        f"{rep_g.frac_span_above:.1%}; folded: total range < 0.1 for "
        f"{frac_small:.1%}",
    )


def test_c09_recurrence_criterion(gamma2_d1_run, torus_d2_run, gamma2_d2_run):
    """Return statistics exhibit the recurrence dichotomy."""
    rr_g1 = S.recurrence_report(gamma2_d1_run, 1, 1)
    rr_t2 = S.recurrence_report(torus_d2_run, 2, 0)
    rr_g2 = S.recurrence_report(gamma2_d2_run, 2, 2)

    ok_g1 = (
        rr_g1.return_fraction[1] >= 0.9
        and rr_g1.return_fraction[0] <= rr_g1.return_fraction[1]
    )
    ok_t2 = (
        rr_t2.return_fraction[1] >= 0.6
        and rr_t2.return_fraction[0] <= rr_t2.return_fraction[1]
    )
    # transient: no fresh returns in the later window, excursions grow
    ok_g2 = (
        rr_g2.window_fraction[1] < rr_g2.window_fraction[0]
        and rr_g2.median_max_excursion[1] > rr_g2.median_max_excursion[0]
    )
    ok = ok_g1 and ok_t2 and ok_g2
    criterion(
        9,
        ok,
        "recurrent d=1: ever-returned "
        f"{rr_g1.return_fraction} (>= 0.9 at 1e5); recurrent (2,0): "
        f"{rr_t2.return_fraction} (>= 0.6); transient (2,2): window "
        f"{rr_g2.window_fraction} decreasing, max excursion "
        f"{rr_g2.median_max_excursion} increasing",
    )


def test_c10_kernel_roundtrips_and_exact_cocycle(gamma2_d1, torus_d1):
    """Decomposition round-trips at 1e-12, integer-exact cocycle identity,
    Gauss-Bonnet areas at 1e-6."""
    rng = np.random.default_rng(SEED + 11)
    worst_i = worst_c = 0.0
    for _ in range(100_000):
        g = H.IDENTITY
        for _ in range(3):
            g = H.compose_all(
                g,
                H.rotation(rng.random() * 2 * math.pi),
                H.translation(rng.random() * 9 - 4.5),
            )
        scale = max(1.0, max(abs(v) for v in g.as_tuple()))
        worst_i = max(
            worst_i, H.psl_distance(g, H.iwasawa_reconstruct(H.iwasawa(g))) / scale
        )
        cc = H.cartan(g)
        worst_c = max(
            worst_c,
            H.psl_distance(g, H.cartan_reconstruct(cc)) / scale,
            0.0 if cc.t >= 0 else 1.0,
        )
    roundtrips_ok = worst_i <= 1e-12 and worst_c <= 1e-12

    gm = gamma2_d1.pres.gen_map()
    els = [gm["A"], H.inverse(gm["A"]), gm["B"], H.inverse(gm["B"])]
    cocycle_ok = True
    for _ in range(10_000):
        u = [els[i] for i in rng.integers(0, 4, int(rng.integers(1, 50)))]
        v = [els[i] for i in rng.integers(0, 4, int(rng.integers(1, 50)))]
        g0 = H.compose(
            H.rotation(rng.random() * 2 * math.pi),
            H.translation(rng.random() * 2 - 1),
        )
        p = gamma2_d1.start_point(H.UnitTangent(g0))
        s_uv = gamma2_d1.sigma(p, u + v)
        s_u = gamma2_d1.sigma(p, u)
        step = gamma2_d1.stepper(p)
        for g in u:
            q = step(g)
        s_v = gamma2_d1.sigma(q, v)
        if s_uv != tuple(a + b for a, b in zip(s_u, s_v)):
            cocycle_ok = False
            break

    area_ok = (
        abs(gamma2_d1.polygon.area - 2 * math.pi) <= 1e-6
        and abs(torus_d1.polygon.area - 2 * math.pi) <= 1e-6
    )
    ok = roundtrips_ok and cocycle_ok and area_ok
    criterion(
        10,
        ok,
        f"iwasawa worst {worst_i:.2e}, cartan worst {worst_c:.2e} "
        f"(<= 1e-12 each over 1e5 elements); cocycle exact over 1e4 word "
        f"pairs: {cocycle_ok}; polygon areas within 1e-6: {area_ok}",
    )
