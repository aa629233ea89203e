import itertools
import math
import os
import subprocess
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covwalk import cover as C
from covwalk import fuchsian as F
from covwalk import hyp2 as H
from covwalk import segments as S
from covwalk import walk as W

L_DEFAULT = 2.0 * math.asinh(1.0)


@pytest.fixture(scope="module")
def torus_d1():
    pres, poly, cusps = F.builtin_lattice("punctured_square_torus")
    spec = C.validate_cover(pres, cusps, {"g1": (0,), "g2": (1,)})
    return C.cover_system(pres, poly, cusps, spec)


@pytest.fixture(scope="module")
def gamma2_d1():
    pres, poly, cusps = F.builtin_lattice("gamma2")
    spec = C.validate_cover(pres, cusps, {"A": (1,), "B": (0,)})
    return C.cover_system(pres, poly, cusps, spec)


@pytest.fixture
def kernel():
    """Runs the test on the compiled segment kernel."""
    if S.load_kernel() != "c":
        pytest.skip("the C segment kernel cannot be built here")
    return "c"


class OnPython:
    """Mixin: the tests of the class it is mixed into, on the Python segment
    loop; its ``kernel`` fixture overrides the module's."""

    @pytest.fixture
    def kernel(self, monkeypatch):
        monkeypatch.setattr(S, "_kernel", False)
        return "python"


def on_both_kernels(call):
    """call() on the C kernel, then on the Python one."""
    if S.load_kernel() != "c":
        pytest.skip("the C segment kernel cannot be built here")
    lib = S._kernel
    try:
        on_c = call()
        S._kernel = False
        on_python = call()
    finally:
        S._kernel = lib
    return on_c, on_python


class TestMeasures:
    def test_atom_validation(self):
        with pytest.raises(ValueError):
            W.measure_from_atoms([(H.IDENTITY, 0.7)])
        with pytest.raises(ValueError):
            W.measure_from_atoms([(H.IDENTITY, -0.2), (H.IDENTITY, 1.2)])

    def test_parametric_validation(self):
        with pytest.raises(ValueError):
            W.parametric_measure(0.0, 1.0)
        with pytest.raises(ValueError):
            W.parametric_measure(2.0, 1.0)


class TestZariski:
    def test_two_atom_preset_passes(self, torus_d1):
        m = W.two_atom_measure(torus_d1.pres)
        assert W.zariski_density_check(m).passed

    def test_single_axis_fails(self):
        m = W.measure_from_atoms([(H.translation(1.0), 1.0)])
        res = W.zariski_density_check(m)
        assert not res.passed and res.reason

    def test_commuting_atoms_fail(self):
        m = W.measure_from_atoms([(H.translation(1.0), 0.5), (H.translation(2.0), 0.5)])
        assert not W.zariski_density_check(m).passed

    def test_parametric_passes(self):
        assert W.zariski_density_check(W.parametric_measure(0.5, 1.5)).passed


class TestCheckpointPlan:
    def test_linear(self):
        assert W.CheckpointPlan("linear", stride=3).steps(10) == [3, 6, 9, 10]

    def test_geometric(self):
        got = W.CheckpointPlan("geometric", n0=10, ratio=2.0).steps(100)
        assert got == [10, 20, 40, 80, 100]

    def test_zero(self):
        assert W.CheckpointPlan("linear", stride=5).steps(0) == []

    def test_geometric_stops_at_n(self):
        # 100 * 1.5**3 = 337.5 rounds to 338, one step past the run
        assert W.CheckpointPlan("geometric", n0=100, ratio=1.5).steps(337) == [
            100, 150, 225, 337]

    def test_walk_ends_at_n(self, torus_d1):
        mu = W.two_atom_measure(torus_d1.pres)
        geo = W.WalkConfig(steps=337, trajectories=1, master_seed=3,
                           checkpoints=W.CheckpointPlan("geometric", n0=100, ratio=1.5))
        lin = W.WalkConfig(steps=337, trajectories=1, master_seed=3,
                           checkpoints=W.CheckpointPlan(stride=337))
        got = W.simulate_trajectory(torus_d1, mu, geo, 0)
        assert [r.n for r in got.records] == [100, 150, 225, 337]
        assert got.summary == W.simulate_trajectory(torus_d1, mu, lin, 0).summary


class TestReturnGrid:
    @pytest.mark.parametrize("grid", [(0,), (1001,), (500, 500)])
    def test_rejected(self, grid):
        with pytest.raises(ValueError, match="return grid"):
            W.WalkConfig(steps=1000, trajectories=1,
                         returns=W.ReturnSpec(grid=grid))


class TestEngine:
    def test_zero_steps(self, torus_d1):
        cfg = W.WalkConfig(steps=0, trajectories=1,
                           start=W.StartSpec(mode="fixed", tangent=H.BASE_TANGENT))
        res = W.simulate_trajectory(torus_d1, W.two_atom_measure(torus_d1.pres), cfg, 0)
        assert res.summary.final_index == (0,)
        assert res.records[0].index == (0,)

    def test_bit_reproducible(self, gamma2_d1, kernel):
        mu = W.parametric_measure(0.5, 1.5)
        cfg = W.WalkConfig(steps=800, trajectories=3, master_seed=9,
                           checkpoints=W.CheckpointPlan(stride=100))
        a = W.run_trajectories(gamma2_d1, mu, cfg)
        b = W.run_trajectories(gamma2_d1, mu, cfg)
        assert all(x.records == y.records for x, y in zip(a, b))
        assert all(x.summary == y.summary for x, y in zip(a, b))

    def test_parallel_matches_sequential(self, torus_d1, gamma2_d1, kernel):
        # records and summaries at 1, 2 and 3 threads, in every shape
        for system, measure, cfg, geodesic in thread_shapes(torus_d1, gamma2_d1):
            one, two, three = (
                W.run_trajectories(system, measure, cfg, geodesic, workers=w)
                for w in (1, 2, 3)
            )
            assert one == two == three
            assert [r.summary.traj for r in one] == list(range(cfg.trajectories))

    def test_walk_with_flow_atom_equals_geodesic(self, gamma2_d1):
        mu = W.measure_from_atoms([(H.translation(0.25), 1.0)])
        cfgw = W.WalkConfig(steps=400, trajectories=2, master_seed=11,
                            checkpoints=W.CheckpointPlan(stride=25))
        cfgg = W.WalkConfig(steps=400, trajectories=2, master_seed=11, dt=0.25,
                            checkpoints=W.CheckpointPlan(stride=25))
        rw = W.run_trajectories(gamma2_d1, mu, cfgw)
        rg = W.run_trajectories(gamma2_d1, None, cfgg, geodesic=True)
        for a, b in zip(rw, rg):
            assert tuple(r.index for r in a.records) == tuple(r.index for r in b.records)

    def test_closed_geodesic_exact_winding(self, torus_d1, kernel):
        # the distinguished tangent rides the axis of the second generator;
        # every full period advances the index by exactly one
        cfg = W.WalkConfig(steps=400, trajectories=1, master_seed=0, dt=L_DEFAULT / 4,
                           checkpoints=W.CheckpointPlan(stride=40),
                           start=W.StartSpec(mode="fixed", tangent=H.BASE_TANGENT))
        res = W.simulate_trajectory(torus_d1, None, cfg, 0, geodesic=True)
        assert [r.index[0] for r in res.records] == list(range(10, 101, 10))

    def test_exact_letter_count_identity(self, torus_d1):
        mu = W.two_atom_measure(torus_d1.pres)
        cfg = W.WalkConfig(steps=30000, trajectories=1, master_seed=77,
                           checkpoints=W.CheckpointPlan(stride=30000),
                           start=W.StartSpec(mode="fixed", tangent=H.BASE_TANGENT),
                           count_atoms=True)
        s = W.simulate_trajectory(torus_d1, mu, cfg, 0).summary
        assert s.final_index[0] == s.atom_counts[1]

    def test_cartan_t_median_increasing(self, gamma2_d1):
        mu = W.parametric_measure(0.5, 1.5)
        cfg = W.WalkConfig(steps=2000, trajectories=10, master_seed=4,
                           checkpoints=W.CheckpointPlan(stride=500))
        outs = W.run_trajectories(gamma2_d1, mu, cfg)
        by_n = {}
        for r in outs:
            for rec in r.records:
                by_n.setdefault(rec.n, []).append(rec.cartan_t)
        ns = sorted(by_n)
        medians = [float(np.median(by_n[n])) for n in ns]
        assert all(a < b for a, b in zip(medians, medians[1:]))
        # t_n/n roughly stabilizes between the two largest grid points
        r1 = medians[-2] / ns[-2]
        r2 = medians[-1] / ns[-1]
        assert abs(r1 - r2) < 0.2 * max(r1, r2)

    def test_equidistribution_diagnostic(self, torus_d1):
        # empirical time averages of bounded observables approach their
        # Haar means (estimated by the Haar sampler) within 3 combined SE
        mu = W.two_atom_measure(torus_d1.pres)
        cfg = W.WalkConfig(steps=60000, trajectories=1, master_seed=6,
                           checkpoints=W.CheckpointPlan(stride=1))
        res = W.simulate_trajectory(torus_d1, mu, cfg, 0)
        heights = np.array([rec.cusp_height for rec in res.records])
        walk_means = np.array([
            (heights > 0.5).mean(),
            np.exp(-np.maximum(heights, 0.0)).mean(),
            (heights > 1.5).mean(),
        ])
        rng = np.random.default_rng(8)
        parts = F.cusp_neighborhoods(torus_d1.polygon, torus_d1.cusps, 0.0)
        n = 20000
        hs = np.empty(n)
        for i in range(n):
            x = F.haar_sample(torus_d1.polygon, torus_d1.cusps, torus_d1.pres, rng, parts)
            bp = x.base_point()
            hs[i] = F.cusp_height(torus_d1.cusps, bp.x, bp.y)
        haar_means = np.array([
            (hs > 0.5).mean(),
            np.exp(-np.maximum(hs, 0.0)).mean(),
            (hs > 1.5).mean(),
        ])
        # conservative SE: walk samples are correlated, use an effective
        # sample size of steps/50 plus the Haar-sampler SE
        for wm, hm in zip(walk_means, haar_means):
            se = math.sqrt(hm * (1 - hm) + 1e-6) * (1 / math.sqrt(60000 / 50) + 1 / math.sqrt(n))
            assert abs(wm - hm) <= 4.0 * se


class TestEngineOnPython(OnPython):
    test_bit_reproducible = TestEngine.test_bit_reproducible
    test_parallel_matches_sequential = TestEngine.test_parallel_matches_sequential
    test_closed_geodesic_exact_winding = TestEngine.test_closed_geodesic_exact_winding


def thread_shapes(torus_d1, gamma2_d1):
    """(system, measure, cfg, geodesic) of five trajectories in each shape a
    threaded run can take: parametric Haar starts across a letter block,
    atoms with returns and atom counts, an orbit table, and a flow."""
    pres, poly, cusps = F.builtin_lattice("punctured_square_torus")
    torus_d2 = C.cover_system(
        pres, poly, cusps, C.validate_cover(pres, cusps, {"g1": (1, 0), "g2": (0, 1)}))
    gm = torus_d1.pres.gen_map()
    fixed = W.StartSpec(mode="fixed", tangent=H.BASE_TANGENT)
    kw = dict(trajectories=5, master_seed=12, checkpoints=W.CheckpointPlan(stride=100))
    return [
        (gamma2_d1, W.parametric_measure(0.5, 1.5), W.WalkConfig(steps=1500, **kw), False),
        (torus_d2, W.two_atom_measure(pres),
         W.WalkConfig(steps=1000, count_atoms=True,
                      returns=W.ReturnSpec(radius=2.0, grid=(300, 1000)), **kw), False),
        (torus_d1, W.measure_from_atoms(
            [(gm["g2"], 0.3), (H.inverse(gm["g2"]), 0.2),
             (gm["g1"], 0.25), (H.inverse(gm["g1"]), 0.25)]),
         W.WalkConfig(steps=1000, start=fixed, **kw), False),
        (gamma2_d1, None, W.WalkConfig(steps=400, dt=0.25, **kw), True),
    ]


class TestWorkerBlocks:
    def test_no_worker_without_a_trajectory(self):
        assert W._worker_blocks([0, 1, 2], 10**6) == [[0], [1], [2]]
        assert W._worker_blocks(list(range(5)), 2) == [[0, 2, 4], [1, 3]]
        assert W._worker_blocks([], 4) == []
        assert W._worker_blocks([0, 1], 0) == [[0, 1]]


class TestThreads:
    def test_lowest_failing_trajectory_raises(self, gamma2_d1, monkeypatch):
        # trajectories 1 and 3 of 4 fail, 3 first; every thread count raises
        # trajectory 1's failure, as the one-thread run does
        simulate = W.simulate_trajectory

        def failing(system, measure, cfg, traj, *args):
            if traj == 1:
                time.sleep(0.05)
                raise ZeroDivisionError("trajectory 1")
            if traj == 3:
                raise OverflowError("trajectory 3")
            return simulate(system, measure, cfg, traj, *args)

        mu = W.parametric_measure(0.5, 1.5)
        cfg = W.WalkConfig(steps=200, trajectories=4, master_seed=3,
                           checkpoints=W.CheckpointPlan(stride=100))
        before = threading.active_count()
        assert len(W.run_trajectories(gamma2_d1, mu, cfg, workers=3)) == 4
        assert threading.active_count() == before
        monkeypatch.setattr(W, "simulate_trajectory", failing)
        for workers in (1, 2, 3, 4):
            with pytest.raises(ZeroDivisionError, match="^trajectory 1$"):
                W.run_trajectories(gamma2_d1, mu, cfg, workers=workers)
            assert threading.active_count() == before, workers

    def test_more_threads_than_cpus_with_fast_switching(self, gamma2_d1, kernel):
        # every thread writes its own slots of one results list; a lost or
        # misplaced write would show as a missing or reordered trajectory
        mu = W.parametric_measure(0.5, 1.5)
        cfg = W.WalkConfig(steps=300, trajectories=24, master_seed=21,
                           checkpoints=W.CheckpointPlan(stride=30))
        want = W.run_trajectories(gamma2_d1, mu, cfg, workers=1)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = W.run_trajectories(gamma2_d1, mu, cfg, workers=8)
        finally:
            sys.setswitchinterval(interval)
        assert got == want

    @pytest.mark.parametrize("value, want", [
        (None, 1), ("1", 1), ("2", 2), ("3", 3), ("4", 3), (str(10**9), 3),
        ("0", 1), ("-2", 1), ("two", 1),
    ])
    def test_worker_count_capped_at_usable_cpus(self, monkeypatch, kernel, value, want):
        # counts only: nothing is started
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 5, 7}, raising=False)
        if value is None:
            monkeypatch.delenv("COVWALK_THREADS", raising=False)
        else:
            monkeypatch.setenv("COVWALK_THREADS", value)
        assert W.worker_count() == want
        monkeypatch.setattr(S, "_kernel", False)
        assert W.worker_count() == 1, "the Python fallback runs one thread"


def base_xy(m):
    """The base point (x, y) of the tangent m, with the engine's formula."""
    a, b, c, d = m.as_tuple()
    den = c * c + d * d
    return (a * c + b * d) / den, 1.0 / den


def atom_draws(measure, cfg, traj):
    """The atoms simulate_trajectory draws for trajectory traj, in order:
    one uniform per step from the trajectory's Philox stream, inverted
    through the cumulative weights."""
    rng = W.trajectory_rng(cfg.master_seed, traj)
    cum = list(itertools.accumulate(p for _, p in measure.atoms))
    uni, pos = rng.random(S._RNG_BLOCK), 0
    for _ in range(cfg.steps):
        if pos >= len(uni):
            uni, pos = rng.random(S._RNG_BLOCK), 0
        u = uni[pos]
        pos += 1
        ai = 0
        while cum[ai] < u:
            ai += 1
        yield measure.atoms[ai][0]


def parametric_draws(measure, cfg, traj):
    rng = W.trajectory_rng(cfg.master_seed, traj)
    uni, pos = rng.random(S._RNG_BLOCK), 0
    for _ in range(cfg.steps):
        if pos + 3 > len(uni):
            uni, pos = rng.random(S._RNG_BLOCK), 0
        yield engine_increment(measure, *uni[pos:pos + 3])
        pos += 3


@pytest.mark.usefixtures("kernel")
class TestHistoryFreeEngine:
    @pytest.mark.parametrize("kind", ["fair", "symmetric"])
    def test_orbit_table_matches_stepper(self, torus_d1, kind):
        # the upward tangent at i is a one-state orbit: the engine walks its
        # table over the atoms, CoverSystem.stepper its table over the
        # generators and their inverses, and the index paths agree exactly
        gm = torus_d1.pres.gen_map()
        if kind == "fair":
            mu = W.two_atom_measure(torus_d1.pres)
        else:
            mu = W.measure_from_atoms(
                [(gm["g2"], 0.25), (H.inverse(gm["g2"]), 0.25),
                 (gm["g1"], 0.25), (H.inverse(gm["g1"]), 0.25)]
            )
        cfg = W.WalkConfig(steps=6000, trajectories=3, master_seed=31,
                           checkpoints=W.CheckpointPlan(stride=500),
                           start=W.StartSpec(mode="fixed", tangent=H.BASE_TANGENT))
        for traj in range(cfg.trajectories):
            res = W.simulate_trajectory(torus_d1, mu, cfg, traj)
            assert res.summary.orbit_states == 1
            step = torus_d1.stepper(torus_d1.start_point(H.BASE_TANGENT))
            want = []
            for k, g in enumerate(atom_draws(mu, cfg, traj), 1):
                p = step(g)
                if k % 500 == 0:
                    want.append(p.index)
            assert [r.index for r in res.records] == want

    def test_large_finite_orbit_walks_its_table(self, gamma2_d1):
        # z -> z + 1/5 has a 36-state orbit under A and B, more than the
        # stepper's table holds; the plain kernel leaves it within ~30 steps
        system = gamma2_d1
        start = H.UnitTangent(H.unipotent(0.2))
        mu = W.two_atom_measure(system.pres)
        table = system.orbit_table(start, tuple(g for g, _ in mu.atoms), 4096)
        assert len(table.reps) == 36
        cfg = W.WalkConfig(steps=6000, trajectories=1, master_seed=1,
                           checkpoints=W.CheckpointPlan(stride=500),
                           start=W.StartSpec(mode="fixed", tangent=start))
        res = W.simulate_trajectory(system, mu, cfg, 0)
        assert res.summary.orbit_states == 36
        letter = {g.as_tuple(): j for j, (g, _) in enumerate(mu.atoms)}
        state, index, want = 0, 0, []
        for k, g in enumerate(atom_draws(mu, cfg, 0), 1):
            state, delta = table.moves[state][letter[g.as_tuple()]]
            index += delta[0]
            if k % 500 == 0:
                x, y = base_xy(table.reps[state].rep)
                want.append(((index,), F.cusp_height(system.cusps, x, y)))
        assert [(r.index, r.cusp_height) for r in res.records] == want

    @pytest.mark.parametrize("kind", ["atoms", "parametric"])
    def test_plain_kernel_matches_apply_step(self, gamma2_d1, kind):
        # a generic fixed start has an infinite orbit, so the engine runs the
        # plain kernel; with no cache it is a pure function of (state,
        # letter) and an apply_step replay follows it exactly
        system = gamma2_d1
        start = H.UnitTangent(H.compose(H.translation(0.37), H.rotation(1.234)))
        if kind == "atoms":
            mu = W.two_atom_measure(system.pres)
            draws = atom_draws
        else:
            mu = W.parametric_measure(0.5, 1.5)
            draws = parametric_draws
        cfg = W.WalkConfig(steps=5000, trajectories=2, master_seed=17,
                           checkpoints=W.CheckpointPlan(stride=500),
                           start=W.StartSpec(mode="fixed", tangent=start))
        for traj in range(cfg.trajectories):
            res = W.simulate_trajectory(system, mu, cfg, traj)
            assert res.summary.orbit_states is None
            p = system.start_point(start)
            want = []
            for k, g in enumerate(draws(mu, cfg, traj), 1):
                p = system.apply_step(p, g)
                if k % 500 == 0:
                    want.append(p.index)
            assert [r.index for r in res.records] == want
            assert res.summary.final_index == p.index

    def test_haar_start_uses_its_own_geometry(self):
        # systems built and dropped in turn reuse ids; each Haar start must
        # still come from its own system's cusp partition
        mu = W.parametric_measure(0.5, 1.5)
        cfg = W.WalkConfig(steps=0, trajectories=1, master_seed=5)
        covers = [("punctured_square_torus", {"g1": (0,), "g2": (1,)}),
                  ("gamma2", {"A": (1,), "B": (0,)})]
        for i in range(40):
            name, weights = covers[i % 2]
            pres, poly, cusps = F.builtin_lattice(name)
            system = C.cover_system(pres, poly, cusps,
                                    C.validate_cover(pres, cusps, weights))
            res = W.simulate_trajectory(system, mu, cfg, i)
            assert res.summary.orbit_states is None
            rep = res.summary.start_rep
            again = system.start_point(H.UnitTangent(H.GroupElement(*rep)))
            assert again.rep.rep.as_tuple() == rep
            own = F.haar_sample(poly, cusps, pres, W.trajectory_rng(5, i),
                                F.cusp_neighborhoods(poly, cusps, 0.0))
            assert system.start_point(own).rep.rep.as_tuple() == rep


class TestHistoryFreeEngineOnPython(OnPython, TestHistoryFreeEngine):
    pass


class TestReturns:
    def test_return_requires_departure(self, torus_d1):
        pres = torus_d1.pres
        mu = W.two_atom_measure(pres)
        cfg = W.WalkConfig(steps=3000, trajectories=6, master_seed=10,
                           checkpoints=W.CheckpointPlan(stride=3000),
                           returns=W.ReturnSpec(radius=2.0, grid=(1000, 3000)))
        outs = W.run_trajectories(torus_d1, mu, cfg)
        for r in outs:
            st = r.summary.returns
            assert st is not None
            grid = [n for n, _ in st.returned_by]
            assert grid == [1000, 3000]
            flags = [f for _, f in st.returned_by]
            assert flags[0] <= flags[1]  # monotone
            if st.first_return is not None:
                assert st.first_return >= 2  # must leave the zero sheet first


def engine_increment(measure, u1, u2, u3):
    """The parametric increment exactly as simulate_trajectory builds it
    from three uniforms: rotation(th1) translation(tau) rotation(th2)."""
    th1 = u1 * 6.283185307179586
    tau = measure.tau_min + u2 * (measure.tau_max - measure.tau_min)
    th2 = u3 * 6.283185307179586
    c1, s1 = math.cos(0.5 * th1), math.sin(0.5 * th1)
    c2, s2 = math.cos(0.5 * th2), math.sin(0.5 * th2)
    e = math.exp(0.5 * tau)
    ei = 1.0 / e
    return H.GroupElement(
        c1 * e * c2 - s1 * ei * s2,
        -c1 * e * s2 - s1 * ei * c2,
        s1 * e * c2 + c1 * ei * s2,
        -s1 * e * s2 + c1 * ei * c2,
    )


def replay(system, measure, cfg, traj):
    """simulate_trajectory's output rebuilt without its shortcuts: the
    trajectory's Philox stream drawn one rng.random(_RNG_BLOCK) block at a
    time, atoms chosen by a linear scan of the cumulative weights, parametric
    letters built by engine_increment, every step taken through
    CoverSystem.stepper, the Cartan product multiplied in sequence with the
    renormalization every 64 steps, and returns counted as entries into the
    start tile.  Returns (records, atom_counts, ReturnStats or None)."""
    rng = W.trajectory_rng(cfg.master_seed, traj)
    if cfg.start.mode == "haar":
        x0 = F.haar_sample(system.polygon, system.cusps, system.pres, rng,
                           system.haar_parts)
    else:
        x0 = cfg.start.tangent
    p = system.start_point(x0)
    step = system.stepper(p)
    sx, sy = base_xy(p.rep.rep)
    atoms = measure.kind == "atoms"
    cum = list(itertools.accumulate(w for _, w in measure.atoms))
    counts = [0] * len(measure.atoms)
    checkpoints = set(cfg.checkpoints.steps(cfg.steps))
    ret = cfg.returns
    in_tile, returns, exc_path = True, [], []
    ta, tb, tc, td, tlog = 1.0, 0.0, 0.0, 1.0, 0.0
    uni, pos = [], 0
    records = []
    for k in range(1, cfg.steps + 1):
        if atoms:
            if pos >= len(uni):
                uni, pos = rng.random(S._RNG_BLOCK), 0
            u = uni[pos]
            pos += 1
            ai = 0
            while cum[ai] < u:
                ai += 1
            counts[ai] += 1
            g = measure.atoms[ai][0]
        else:
            if pos + 3 > len(uni):
                uni, pos = rng.random(S._RNG_BLOCK), 0
            g = engine_increment(measure, *uni[pos:pos + 3])
            pos += 3
        p = step(g)
        ta, tb, tc, td = (ta * g.a + tb * g.c, ta * g.b + tb * g.d,
                          tc * g.a + td * g.c, tc * g.b + td * g.d)
        if k % 64 == 0:
            mm = max(abs(ta), abs(tb), abs(tc), abs(td))
            if mm > 1.0:
                ta, tb, tc, td = ta / mm, tb / mm, tc / mm, td / mm
                tlog += math.log(mm)
        x, y = base_xy(p.rep.rep)
        if ret is not None:
            exc = max(abs(v) for v in p.index)
            exc_path.append(exc)
            dx, dy = x - sx, y - sy
            now = exc == 0 and (
                1.0 + (dx * dx + dy * dy) / (2.0 * y * sy) <= math.cosh(ret.radius)
            )
            if now and not in_tile:
                returns.append(k)
            in_tile = now
        if k in checkpoints:
            s1, _ = H.singular_values(ta, tb, tc, td)
            cart = 2.0 * (math.log(s1) + tlog) if s1 > 0 else 0.0
            records.append(W.CheckpointRecord(
                traj=traj, n=k, index=p.index,
                drift=tuple(v / k for v in p.index),
                cusp_height=F.cusp_height(system.cusps, x, y),
                cartan_t=max(cart, 0.0),
            ))
    stats = None
    if ret is not None:
        grid = sorted(set(ret.grid) | {cfg.steps})
        lows = [0] + grid[:-1]
        stats = W.ReturnStats(
            first_return=returns[0] if returns else None,
            n_returns=len(returns),
            returned_by=tuple((m, any(k <= m for k in returns)) for m in grid),
            window_returns=tuple(
                (m, sum(lo < k <= m for k in returns)) for lo, m in zip(lows, grid)
            ),
            max_excursion_by=tuple((m, float(max(exc_path[:m]))) for m in grid),
        )
    return tuple(records), tuple(counts), stats


@pytest.mark.usefixtures("kernel")
class TestReplayOracle:
    """Every record field, the atom counts and the return statistics equal a
    replay of the same Philox stream; the runs cross letter-block boundaries
    and have checkpoints off the 64-step renormalization grid."""

    def check(self, system, measure, cfg):
        for traj in range(cfg.trajectories):
            res = W.simulate_trajectory(system, measure, cfg, traj)
            records, counts, stats = replay(system, measure, cfg, traj)
            assert res.records == records
            assert res.summary.final_index == records[-1].index
            assert res.summary.terminal_drift == records[-1].drift
            assert res.summary.cartan_t == records[-1].cartan_t
            assert res.summary.atom_counts == (counts if cfg.count_atoms else ())
            assert res.summary.returns == stats
            yield res

    def test_torus_table_run(self, torus_d1):
        mu = W.two_atom_measure(torus_d1.pres)
        cfg = W.WalkConfig(steps=5000, trajectories=2, master_seed=41,
                           checkpoints=W.CheckpointPlan(stride=100),
                           start=W.StartSpec(mode="fixed", tangent=H.BASE_TANGENT),
                           count_atoms=True)
        for res in self.check(torus_d1, mu, cfg):
            assert res.summary.orbit_states == 1

    def test_gamma2_parametric_haar(self, gamma2_d1):
        mu = W.parametric_measure(0.5, 1.5)
        cfg = W.WalkConfig(steps=3000, trajectories=2, master_seed=42,
                           checkpoints=W.CheckpointPlan("geometric", n0=50, ratio=1.7))
        for res in self.check(gamma2_d1, mu, cfg):
            assert res.summary.orbit_states is None

    def test_torus_d2_returns(self):
        pres, poly, cusps = F.builtin_lattice("punctured_square_torus")
        system = C.cover_system(
            pres, poly, cusps,
            C.validate_cover(pres, cusps, {"g1": (1, 0), "g2": (0, 1)}),
        )
        mu = W.two_atom_measure(pres)
        cfg = W.WalkConfig(steps=3000, trajectories=3, master_seed=43,
                           checkpoints=W.CheckpointPlan(stride=700),
                           returns=W.ReturnSpec(radius=2.0, grid=(500, 2000)))
        returned = sum(res.summary.returns.n_returns
                       for res in self.check(system, mu, cfg))
        assert returned > 0


class TestReplayOracleOnPython(OnPython, TestReplayOracle):
    pass


class TestIndexLimit:
    """A sheet index coordinate at or past 2**62 after a step is refused on
    both kernels: a start one move short of the limit takes one move
    towards it."""

    @pytest.mark.parametrize("sign", [1, -1], ids=["up", "down"])
    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("path", ["c", "python"])
    def test_refused_at_2_62(self, path, dim, sign, monkeypatch):
        pres, poly, cusps = F.builtin_lattice("punctured_square_torus")
        weights = {"g1": (0,) * (dim - 1) + (0,), "g2": (0,) * (dim - 1) + (1,)}
        if dim == 2:
            weights["g1"] = (1, 0)
        system = C.cover_system(pres, poly, cusps,
                                C.validate_cover(pres, cusps, weights))
        g2 = pres.gen_map()["g2"]
        mu = W.measure_from_atoms([(g2 if sign > 0 else H.inverse(g2), 1.0)])
        start = system.start_point(H.BASE_TANGENT)
        near = C.CoverPoint(rep=start.rep,
                            index=(0,) * (dim - 1) + (sign * (2**62 - 2),))
        monkeypatch.setattr(system, "start_point", lambda x: near)
        if path == "python":
            monkeypatch.setattr(S, "_kernel", False)
        elif S.load_kernel() != "c":
            pytest.skip("the C segment kernel cannot be built here")

        def walk(steps):
            cfg = W.WalkConfig(steps=steps, trajectories=1,
                               checkpoints=W.CheckpointPlan(stride=1),
                               start=W.StartSpec(mode="fixed", tangent=H.BASE_TANGENT))
            return W.simulate_trajectory(system, mu, cfg, 0)

        last = walk(1).summary
        assert last.orbit_states == 1
        assert last.final_index == (0,) * (dim - 1) + (sign * (2**62 - 1),)
        with pytest.raises(OverflowError):
            walk(2)


# the shapes a run can take in the engine: atoms from Haar starts, a
# parametric measure, a flow, an orbit table, and return tracking
SHAPES = ("atoms", "parametric", "flow", "table", "returns")


class TestKernelParity:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(shape=st.sampled_from(SHAPES), seed=st.integers(0, 2**63 - 1),
           steps=st.integers(0, 5000), stride=st.integers(1, 5000),
           grid=st.lists(st.integers(1, 5000), max_size=3, unique=True))
    def test_same_records_and_summaries(self, torus_d1, gamma2_d1, shape, seed,
                                        steps, stride, grid):
        system, measure, geodesic = gamma2_d1, W.two_atom_measure(gamma2_d1.pres), False
        kw = dict(steps=steps, trajectories=2, master_seed=seed,
                  checkpoints=W.CheckpointPlan(stride=stride), count_atoms=True)
        if shape == "parametric":
            measure = W.parametric_measure(0.5, 1.5)
        elif shape == "flow":
            measure, geodesic = None, True
        elif shape == "table":
            gm = torus_d1.pres.gen_map()
            measure = W.measure_from_atoms(
                [(gm["g2"], 0.3), (H.inverse(gm["g2"]), 0.2),
                 (gm["g1"], 0.25), (H.inverse(gm["g1"]), 0.25)])
            system = torus_d1
            kw["start"] = W.StartSpec(mode="fixed", tangent=H.BASE_TANGENT)
        elif shape == "returns":
            pres, poly, cusps = F.builtin_lattice("punctured_square_torus")
            system = C.cover_system(
                pres, poly, cusps,
                C.validate_cover(pres, cusps, {"g1": (1, 0), "g2": (0, 1)}))
            measure = W.two_atom_measure(pres)
            kw["returns"] = W.ReturnSpec(
                radius=2.0, grid=tuple(g for g in grid if g <= steps))
        cfg = W.WalkConfig(**kw)
        on_c, on_python = on_both_kernels(
            lambda: W.run_trajectories(system, measure, cfg, geodesic, workers=1))
        assert on_c == on_python
        if shape == "table":
            assert {r.summary.orbit_states for r in on_c} == {1}


class _ConstantStream:
    """Stands in for a trajectory's Philox generator: every uniform is u."""

    def __init__(self, u):
        self.u = u

    def random(self, size):
        return np.full(size, self.u)


class TestBlockDraws:
    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**63 - 1),
           tau_min=st.floats(0.01, 3.0), width=st.floats(0.0, 3.0))
    def test_parametric_matches_engine_increment(self, seed, tau_min, width):
        mu = W.parametric_measure(tau_min, tau_min + width)
        got = S._draw_block(W.trajectory_rng(seed, 0), mu, None)
        uni = W.trajectory_rng(seed, 0).random(S._RNG_BLOCK)
        want = [engine_increment(mu, *uni[i:i + 3]).as_tuple()
                for i in range(0, S._RNG_BLOCK - 2, 3)]
        assert len(got) == len(want) == S._RNG_BLOCK // 3
        assert np.array_equal(np.array(got).view(np.uint64),
                              np.array(want).view(np.uint64))

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**63 - 1),
           raw=st.lists(st.integers(0, 100), min_size=2, max_size=5)
           .filter(lambda w: sum(w) > 0))
    def test_atoms_match_linear_scan(self, seed, raw):
        mu = W.measure_from_atoms([(H.IDENTITY, w / sum(raw)) for w in raw])
        got = S._draw_block(W.trajectory_rng(seed, 0), mu, S._cumulative_weights(mu))
        cum = list(itertools.accumulate(p for _, p in mu.atoms))
        want = []
        for u in W.trajectory_rng(seed, 0).random(S._RNG_BLOCK):
            ai = 0
            while cum[ai] < u:
                ai += 1
            want.append(ai)
        assert got == want

    @pytest.mark.parametrize("start", ["base", "generic"])
    def test_draw_past_last_weight(self, torus_d1, monkeypatch, start):
        # the weights sum to 1 - 1e-13, within measure_from_atoms' tolerance;
        # a uniform above that sum still lands on the last atom.  Every
        # uniform of the walk is 1 - 2**-53: on the Python kernel a constant
        # stream stands in for the trajectory's generator, and on the C
        # kernel the stream's four-word buffer is filled with 2**64 - 1,
        # which draws that uniform, so the walk takes four steps
        gm = torus_d1.pres.gen_map()
        mu = W.measure_from_atoms([(gm["g1"], 0.5), (gm["g2"], 0.5 - 1e-13)])
        tangent = H.BASE_TANGENT if start == "base" else H.UnitTangent(
            H.compose(H.translation(0.37), H.rotation(1.234)))
        monkeypatch.setattr(W, "trajectory_rng",
                            lambda seed, traj: _ConstantStream(1.0 - 2.0**-53))
        seeded = S._CTrajectory.__init__

        def top_words(self, *args):
            seeded(self, *args)
            self.w.buffer[:] = [2**64 - 1] * 4
            self.w.buffer_pos = 0

        monkeypatch.setattr(S._CTrajectory, "__init__", top_words)
        cfg = W.WalkConfig(steps=4, trajectories=1,
                           checkpoints=W.CheckpointPlan(stride=2),
                           start=W.StartSpec(mode="fixed", tangent=tangent),
                           count_atoms=True)

        def walk():
            return W.simulate_trajectory(torus_d1, mu, cfg, 0)

        kernels = on_both_kernels(walk) if S.load_kernel() == "c" else (walk(),)
        for res in kernels:
            assert (res.summary.orbit_states is None) == (start == "generic")
            assert res.summary.atom_counts == (0, 4)
            if start == "base":
                assert res.summary.final_index == (4,)


# integers on both sides of each 32-bit word boundary up to 2**96, and wide ones
SEED_WORDS = st.one_of(
    st.integers(0, 3),
    st.builds(lambda e, off: max(0, 2**e + off),
              st.sampled_from([32, 64, 96]), st.integers(-3, 3)),
    st.integers(0, 2**200),
)


@pytest.mark.usefixtures("kernel")
class TestStream:
    """The C kernel's uniforms against numpy's Generator(Philox(SeedSequence
    ([seed, traj]))): the Haar sampler's scalar draws, then a block."""

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(seed=SEED_WORDS, traj=SEED_WORDS, scalars=st.integers(0, 9),
           block=st.integers(1, 4099).filter(lambda n: n % 4))
    def test_matches_trajectory_rng(self, gamma2_d1, seed, traj, scalars, block):
        cfg = W.WalkConfig(steps=10, trajectories=1, master_seed=seed)
        loop = W._Run(gamma2_d1, W.parametric_measure(0.5, 1.5), cfg, False).loop(traj)
        rng = W.trajectory_rng(seed, traj)
        want = [rng.random() for _ in range(scalars)] + rng.random(block).tolist()
        got = [loop.random() for _ in range(scalars + block)]
        assert np.array_equal(np.array(got).view(np.uint64),
                              np.array(want).view(np.uint64))

    def test_negative_seed_refused(self):
        with pytest.raises(ValueError, match="expected non-negative integer"):
            S._seed_words(5, -1)
        assert S._seed_words(0, 2**32, 2**64 + 5) == [0, 0, 1, 5, 0, 1]


@pytest.mark.usefixtures("kernel")
class TestReturnDetector:
    def test_matches_independent_count(self, gamma2_d1):
        # replay Haar-start parametric walks on the gamma2 d=1 cover from the
        # engine's own Philox streams through CoverSystem.apply_step, and
        # count returns afresh as entries into the start tile: sheet zero
        # and base point within the radius of the start
        system = gamma2_d1
        mu = W.parametric_measure(0.5, 1.5)
        n, radius, grid = 10_000, 2.0, (1_000, 3_000, 10_000)
        cfg = W.WalkConfig(
            steps=n,
            trajectories=4,
            master_seed=20240609,  # the c9 fixture gamma2_d1_run's seed
            checkpoints=W.CheckpointPlan(stride=n),
            returns=W.ReturnSpec(radius=radius, grid=grid),
        )
        parts = F.cusp_neighborhoods(system.polygon, system.cusps, 0.0)
        total_returns = 0
        for traj in range(cfg.trajectories):
            res = W.simulate_trajectory(system, mu, cfg, traj)
            rng = W.trajectory_rng(cfg.master_seed, traj)
            x0 = F.haar_sample(system.polygon, system.cusps, system.pres, rng, parts)
            p = system.start_point(x0)
            z0 = p.rep.base_point()
            uni, pos = rng.random(S._RNG_BLOCK), 0
            in_tile, returns = True, []
            for k in range(1, n + 1):
                if pos + 3 > len(uni):
                    uni, pos = rng.random(S._RNG_BLOCK), 0
                p = system.apply_step(p, engine_increment(mu, *uni[pos:pos + 3]))
                pos += 3
                now = p.index == (0,) and H.distance(p.rep.base_point(), z0) <= radius
                if now and not in_tile:
                    returns.append(k)
                in_tile = now
            assert p.index == res.summary.final_index, "replay left the engine's path"
            got = res.summary.returns
            lows = (0,) + grid[:-1]
            assert got.first_return == (returns[0] if returns else None)
            assert got.n_returns == len(returns)
            assert got.returned_by == tuple(
                (m, any(k <= m for k in returns)) for m in grid
            )
            assert got.window_returns == tuple(
                (m, sum(lo < k <= m for k in returns)) for lo, m in zip(lows, grid)
            )
            total_returns += len(returns)
        assert total_returns > 0


class TestReturnDetectorOnPython(OnPython, TestReturnDetector):
    pass


# Loads the kernel from the cache directory argv[1] in a fresh process and
# prints which kernel runs and the final index and height of a short
# parametric walk on the gamma2 d=1 cover.
LOAD_AND_WALK = """
import sys
from covwalk import cover as C, fuchsian as F, segments as S, walk as W
S._kernel = S._load_library(sys.argv[1]) or False
pres, poly, cusps = F.builtin_lattice("gamma2")
system = C.cover_system(pres, poly, cusps,
                        C.validate_cover(pres, cusps, {"A": (1,), "B": (0,)}))
cfg = W.WalkConfig(steps=2000, trajectories=1, master_seed=3,
                   checkpoints=W.CheckpointPlan(stride=2000))
res = W.simulate_trajectory(system, W.parametric_measure(0.5, 1.5), cfg, 0)
print(S.load_kernel(), res.summary.final_index[0], res.records[-1].cusp_height.hex())
"""


def load_and_walk(cache_dir, path_env=None):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.dirname(os.path.dirname(W.__file__)),
                    env.get("PYTHONPATH")) if p)
    if path_env is not None:
        env["PATH"] = path_env
    return subprocess.Popen(
        [sys.executable, "-c", LOAD_AND_WALK, str(cache_dir)],
        env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)


def finished(proc):
    out, err = proc.communicate(timeout=300)
    assert proc.returncode == 0, err
    return out.split()


@pytest.fixture(scope="module")
def python_walk():
    """LOAD_AND_WALK's line, on the Python kernel in this process."""
    pres, poly, cusps = F.builtin_lattice("gamma2")
    system = C.cover_system(pres, poly, cusps,
                            C.validate_cover(pres, cusps, {"A": (1,), "B": (0,)}))
    cfg = W.WalkConfig(steps=2000, trajectories=1, master_seed=3,
                       checkpoints=W.CheckpointPlan(stride=2000))
    lib = S._kernel
    S._kernel = False
    try:
        res = W.simulate_trajectory(system, W.parametric_measure(0.5, 1.5), cfg, 0)
    finally:
        S._kernel = lib
    return ["c", str(res.summary.final_index[0]), res.records[-1].cusp_height.hex()]


class TestKernelBuild:
    """The build cache: one compile per source, flags and machine; every
    later load, in any process, reads the cached library."""

    def test_second_load_runs_no_compiler(self, tmp_path, python_walk):
        if S.load_kernel() != "c":
            pytest.skip("the C segment kernel cannot be built here")
        assert finished(load_and_walk(tmp_path)) == python_walk
        (lib,) = tmp_path.iterdir()
        assert lib.name.startswith("_segment-") and lib.suffix == ".so"
        built = lib.stat().st_mtime_ns
        # with no compiler on PATH a build would fall back to "python"
        assert finished(load_and_walk(tmp_path, path_env="")) == python_walk
        assert list(tmp_path.iterdir()) == [lib]
        assert lib.stat().st_mtime_ns == built

    def test_concurrent_first_loads(self, tmp_path, python_walk):
        if S.load_kernel() != "c":
            pytest.skip("the C segment kernel cannot be built here")
        procs = [load_and_walk(tmp_path) for _ in range(2)]
        assert [finished(p) for p in procs] == [python_walk, python_walk]
        (lib,) = tmp_path.iterdir()
        assert lib.suffix == ".so"

    def test_foreign_file_under_the_name_is_rebuilt(self, tmp_path, python_walk):
        if S.load_kernel() != "c":
            pytest.skip("the C segment kernel cannot be built here")
        first = tmp_path / "first"
        assert finished(load_and_walk(first)) == python_walk
        (lib,) = first.iterdir()
        # a library of another source under this source's name: the key it
        # returns differs, so it is replaced by a fresh build
        other = tmp_path / "other"
        other.mkdir()
        foreign = tmp_path / "foreign.c"
        with open(S._KERNEL_SOURCE, encoding="utf-8") as fh:
            foreign.write_text(fh.read() + "\nint64_t covwalk_unused = 1;\n")
        res = subprocess.run(["cc", *S._KERNEL_FLAGS, "-o", str(other / lib.name),
                              str(foreign), "-lm"], capture_output=True)
        assert res.returncode == 0, res.stderr
        stale = (other / lib.name).read_bytes()
        assert finished(load_and_walk(other)) == python_walk
        assert (other / lib.name).read_bytes() != stale
        assert [p.name for p in other.iterdir()] == [lib.name]


class TestLyapunov:
    def test_pure_translation_exact(self):
        m = W.measure_from_atoms([(H.translation(1.0), 1.0)])
        est = W.lyapunov_estimate(m, 500, 20, override_zariski=True)
        assert est.value == pytest.approx(1.0, abs=1e-10)
        assert est.se == pytest.approx(0.0, abs=1e-10)

    def test_requires_zariski(self):
        m = W.measure_from_atoms([(H.translation(1.0), 1.0)])
        with pytest.raises(W.ZariskiCheckError):
            W.lyapunov_estimate(m, 100, 10)

    def test_two_atom_preset(self, torus_d1):
        mu = W.two_atom_measure(torus_d1.pres)
        est = W.lyapunov_estimate(mu, 3000, 200, master_seed=1)
        assert 0.0 < est.value <= L_DEFAULT
        assert est.se / est.value < 0.05

    def test_doubling_consistency(self):
        mu = W.parametric_measure(0.5, 1.5)
        e1 = W.lyapunov_estimate(mu, 2000, 300, master_seed=2)
        e2 = W.lyapunov_estimate(mu, 4000, 300, master_seed=3)
        assert abs(e1.value - e2.value) <= 2.0 * (e1.se + e2.se) + 1e-3
