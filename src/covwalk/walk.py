"""Random walk and geodesic flow trajectory engine.

A trajectory multiplies a reduced tangent by random increments, reduces it
back into the fundamental polygon after each step, and charges the deck
moves to an exact integer sheet index.

A run's start, Haar-sampled or fixed, is reduced as
``CoverSystem.start_point`` reduces it.  Each step is a pure function of
the current state and the letter drawn, with the same split as
``CoverSystem.stepper``.
A fixed start whose orbit under the step letters (the atoms, or the flow
step) has at most ``ENGINE_ORBIT_STATES`` states walks that orbit's compiled
``OrbitTable`` in integers, so its index path is exact however long the run.
Every other run (Haar starts, parametric measures, larger orbits) multiplies
and reduces with no cache, step for step as ``CoverSystem.apply_step``.
``run_trajectories`` runs all trajectories of a walk or flow run, in
``COVWALK_THREADS`` threads of one process (``worker_count``).

Randomness is counter-based and splittable: trajectory k of a run seeded
with s draws from Philox keyed by SeedSequence([s, k]) (``trajectory_rng``),
so runs are bit-reproducible under any scheduling of trajectories.  The
threads of a run share only what ``_Run`` builds before they start, and
read it; each trajectory owns its stream, its start and its loop's state.

``simulate_trajectory`` runs the trajectory's loop once and turns the
state it reports at the checkpoints into the columns of its records
(``Checkpoints``).  The loop draws a Haar start from the trajectory's
stream and reduces it, then walks every step, in the compiled C kernel,
which draws the same stream in C, or in its Python reference where the
kernel cannot be built (``segments``, imported when a run starts, so that
importing this module builds nothing).  On the C kernel a trajectory is
one call that releases the GIL, from the Haar draw to the last step.
numpy is imported only where it is used: in ``trajectory_rng``, which only
the Python kernel and the tests call, in ``zariski_density_check`` for a
parametric measure, and in ``lyapunov_estimate``; a run on the C kernel
imports none, and neither do ``stats`` and the CLI's ``fit`` and
``report``.
The greedy descent tries ``CoverSystem.fast_unwind`` on its iterations 7,
15, 23, ... (``cover.UNWIND_MASK``): descent depth has the 1/x tail of the
Haar cusp law, so a Haar start spends a good share of its pairings in cusp
windings deeper than 8.
"""

from __future__ import annotations

import itertools
import math
import os
import threading
from collections.abc import Sequence
from typing import TYPE_CHECKING

from ._record import record
from . import hyp2
from . import fuchsian
from . import cover as cover_mod
from .hyp2 import GroupElement, UnitTangent
from .cover import CoverSystem, IntVec

if TYPE_CHECKING:
    import numpy

# A fixed start whose orbit under the step letters has at most this many
# states walks it as an OrbitTable.  Finite orbits this large occur: the
# gamma2 start z -> z + 1/5 has 36 states under A and B, and the plain
# kernel leaves it within a few dozen steps.  Giving up on an infinite
# orbit costs this many states times the number of letters in apply_step
# calls: about 0.8 ms per trajectory for two atoms on a 2-vCPU Xeon.
ENGINE_ORBIT_STATES = 64

# Names the engine's output bits in summary.json; bumped by every change that
# alters the records of some config and seed.  Engine 1 (summaries without
# an id) tried fast_unwind after every 64 descent iterations, engine 2 after
# every 8.
ENGINE_ID = 2


class ZariskiCheckError(RuntimeError):
    """The step measure failed the Zariski-density certificate."""


# ---------------------------------------------------------------------------
# step measures

@record
class MeasureSpec:
    """Either finitely many atoms or the rotation-translation-rotation family
    with uniform angles and uniform translation length in [tau_min, tau_max].
    Compact support holds by construction."""

    kind: str  # "atoms" | "parametric"
    atoms: tuple[tuple[GroupElement, float], ...] = ()
    tau_min: float = 0.0
    tau_max: float = 0.0


def measure_from_atoms(atoms: list[tuple[GroupElement, float]]) -> MeasureSpec:
    if not atoms:
        raise ValueError("need at least one atom")
    total = sum(p for _, p in atoms)
    if any(p < 0 for _, p in atoms) or abs(total - 1.0) > 1e-12:
        raise ValueError(f"atom probabilities must be >= 0 and sum to 1, got {total}")
    return MeasureSpec(kind="atoms", atoms=tuple(atoms))


def parametric_measure(tau_min: float, tau_max: float) -> MeasureSpec:
    if not (0.0 < tau_min <= tau_max):
        raise ValueError("need 0 < tau_min <= tau_max")
    return MeasureSpec(kind="parametric", tau_min=tau_min, tau_max=tau_max)


def two_atom_measure(pres: fuchsian.LatticePresentation) -> MeasureSpec:
    """Equal weight on the two generators (the distinguished preset measure)."""
    (_, g1), (_, g2) = pres.generators
    return measure_from_atoms([(g1, 0.5), (g2, 0.5)])


@record
class ZariskiResult:
    passed: bool
    reason: str = ""


def zariski_density_check(m: MeasureSpec) -> ZariskiResult:
    """Heuristic density certificate for the generated sub-semigroup.

    Looks for two hyperbolic elements among semigroup words of length at most
    6 (over six sampled increments for a parametric measure) with no shared
    boundary fixed point (all four separated on the boundary circle).  That
    rules out the solvable obstructions (common axis or common fixed point);
    it is a certificate, not a proof.
    """
    if m.kind == "atoms":
        gens = [g for g, p in m.atoms if p > 0]
    else:
        import numpy as np

        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(20240601)))
        gens = []
        for _ in range(6):
            th1, th2 = rng.random() * 2 * math.pi, rng.random() * 2 * math.pi
            tau = m.tau_min + rng.random() * (m.tau_max - m.tau_min)
            gens.append(
                hyp2.compose_all(
                    hyp2.rotation(th1), hyp2.translation(tau), hyp2.rotation(th2)
                )
            )
    if not gens:
        return ZariskiResult(False, "empty support")

    words = list(gens)
    frontier = list(gens)
    for _ in range(5):  # words of length 2 .. 6
        nxt = []
        for w in frontier:
            for g in gens:
                nxt.append(hyp2.compose(w, g))
        words.extend(nxt)
        frontier = nxt
        if len(words) > 4000:
            break

    hyps = []
    for w in words:
        if hyp2.classify(w).kind == "hyperbolic":
            fps = hyp2.fixed_points_on_boundary(w)
            if len(fps) == 2:
                hyps.append(fps)
        if len(hyps) > 400:
            break
    if not hyps:
        return ZariskiResult(False, "no hyperbolic element in bounded words")

    for i in range(len(hyps)):
        for j in range(i + 1, len(hyps)):
            pts = [fuchsian._cayley_boundary(u) for u in hyps[i] + hyps[j]]
            ok = all(
                abs(pts[a] - pts[b]) > 1e-6
                for a in range(4)
                for b in range(a + 1, 4)
            )
            if ok:
                return ZariskiResult(True)
    return ZariskiResult(
        False, "all bounded-length hyperbolic elements share fixed points"
    )


# ---------------------------------------------------------------------------
# run configuration

@record
class CheckpointPlan:
    """linear: every `stride` steps; geometric: n0, n0*ratio, ... (rounded,
    none past n).  The final step is always a checkpoint."""

    kind: str = "linear"  # "linear" | "geometric"
    stride: int = 1000
    n0: int = 100
    ratio: float = 1.5

    def steps(self, n: int) -> list[int]:
        if n <= 0:
            return []
        out: list[int] = []
        if self.kind == "linear":
            out = list(range(self.stride, n + 1, self.stride))
        elif self.kind == "geometric":
            x = float(self.n0)
            while x <= n:
                k = int(round(x))
                if not out or k > out[-1]:
                    out.append(k)
                x *= self.ratio
        else:
            raise ValueError(f"unknown checkpoint kind {self.kind!r}")
        if not out or out[-1] != n:
            out.append(n)
        return out


@record
class ReturnSpec:
    """Return/excursion tracking.  The start tile is sheet index zero with
    the base point within `radius` of the start; a 'return' is a step that
    re-enters the start tile after having left it since the previous return
    (or since the start).  Leaving it means either the index leaving zero or
    the base point leaving the ball while the index is still zero."""

    radius: float = 2.0
    grid: tuple[int, ...] = ()


@record
class StartSpec:
    mode: str = "haar"  # "haar" | "fixed"
    tangent: UnitTangent | None = None


@record
class WalkConfig:
    steps: int
    trajectories: int
    master_seed: int = 0
    checkpoints: CheckpointPlan = CheckpointPlan()
    start: StartSpec = StartSpec()
    dt: float = 0.25
    returns: ReturnSpec | None = None
    count_atoms: bool = False

    def __post_init__(self) -> None:
        grid = () if self.returns is None else self.returns.grid
        if len(set(grid)) != len(grid) or not all(1 <= g <= self.steps for g in grid):
            raise ValueError(
                f"return grid entries must differ and lie in 1..{self.steps}, got {grid}"
            )


@record(slots=True)
class CheckpointRecord:
    traj: int
    n: float  # step count (walk) or flow time (geodesic)
    index: IntVec
    drift: tuple[float, ...]
    cusp_height: float
    cartan_t: float


@record
class ReturnStats:
    first_return: int | None
    n_returns: int
    returned_by: tuple[tuple[int, bool], ...]       # (grid n, any return <= n)
    window_returns: tuple[tuple[int, int], ...]     # (grid n, returns in (prev, n])
    max_excursion_by: tuple[tuple[int, float], ...]  # (grid n, max sup-norm <= n)


@record
class TrajectorySummary:
    traj: int
    steps: int
    final_index: IntVec
    terminal_drift: tuple[float, ...]
    cartan_t: float
    start_rep: tuple[float, float, float, float]
    returns: ReturnStats | None = None
    atom_counts: tuple[int, ...] = ()
    orbit_states: int | None = None  # OrbitTable size when the run walked one


class Checkpoints(Sequence):
    """A trajectory's checkpoint records, kept as columns with one entry
    per checkpoint: the abscissa ``n``, the sheet ``index`` and the
    ``drift`` (each entry a tuple), the ``cusp_height`` and ``cartan_t``.
    An item is the CheckpointRecord, built when it is read; ``records.csv``,
    ``records.jsonl`` and the accumulation diagnostic read the columns.
    Equal to any tuple or list of the same records."""

    __slots__ = ("traj", "n", "index", "drift", "cusp_height", "cartan_t")

    def __init__(self, traj: int, n: Sequence[float], index: Sequence[IntVec],
                 drift: Sequence[tuple[float, ...]], cusp_height: Sequence[float],
                 cartan_t: Sequence[float]) -> None:
        self.traj, self.n, self.index, self.drift = traj, n, index, drift
        self.cusp_height, self.cartan_t = cusp_height, cartan_t

    def __len__(self) -> int:
        return len(self.n)

    def __getitem__(self, i: int) -> CheckpointRecord:
        return CheckpointRecord(self.traj, self.n[i], self.index[i], self.drift[i],
                                self.cusp_height[i], self.cartan_t[i])

    def __iter__(self):
        return map(CheckpointRecord, itertools.repeat(self.traj), self.n,
                   self.index, self.drift, self.cusp_height, self.cartan_t)

    def __eq__(self, other):
        if isinstance(other, (Checkpoints, tuple, list)):
            return tuple(self) == tuple(other)
        return NotImplemented

    def __repr__(self) -> str:
        return f"Checkpoints({list(self)!r})"


@record
class TrajectoryResult:
    records: Checkpoints
    summary: TrajectorySummary


def trajectory_rng(master_seed: int, traj: int) -> numpy.random.Generator:
    """Trajectory traj's uniform stream as numpy draws it: the Python
    kernel's generator, and the reference for the C kernel's own."""
    import numpy as np

    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([master_seed, traj]))
    )


# ---------------------------------------------------------------------------
# the engine

class _Run:
    """What the trajectories of one run share, built before any of its
    threads starts and only read after: the run's system, measure, config
    and step letters, the Haar sampler's parts (a ``cached_property`` of the
    system, filled here), a fixed start's reduced point and orbit table, the
    checkpoint and return grid steps, and the trajectory loops with their
    constant arrays (``segments.trajectory_loops``)."""

    def __init__(self, system: CoverSystem, measure: MeasureSpec | None,
                 cfg: WalkConfig, geodesic: bool) -> None:
        self.system, self.measure, self.cfg, self.geodesic = (
            system, measure, cfg, geodesic
        )
        # the step letters: the flow step, the atoms, or none for a
        # parametric measure, whose letters are built from the uniforms
        if geodesic:
            self.letters = (hyp2.translation(cfg.dt),)
        elif measure.kind == "atoms":
            self.letters = tuple(g for g, _ in measure.atoms)
        else:
            self.letters = ()
        self.haar_parts = self.start = self.table = None
        if cfg.start.mode == "haar":
            self.haar_parts = system.haar_parts
        else:
            x0 = cfg.start.tangent if cfg.start.tangent is not None else hyp2.BASE_TANGENT
            self.start = system.start_point(x0)
            # a fixed start may lie on a finite orbit of the step letters; a
            # Haar start almost surely does not, and parametric letters are
            # never reused
            if self.letters:
                self.table = system.orbit_table(x0, self.letters, ENGINE_ORBIT_STATES)
        n = cfg.steps
        # a run of no steps records its start
        self.checkpoints = tuple(cfg.checkpoints.steps(n)) or (0,)
        self.grid: list[int] = []
        if cfg.returns is not None:
            self.grid = sorted(cfg.returns.grid) if cfg.returns.grid else [n]
            if self.grid[-1] != n:
                self.grid.append(n)
        from . import segments

        self.loop = segments.trajectory_loops(self)


def simulate_trajectory(
    system: CoverSystem,
    measure: MeasureSpec | None,
    cfg: WalkConfig,
    traj: int,
    geodesic: bool = False,
    run: _Run | None = None,
) -> TrajectoryResult:
    """Run one trajectory; deterministic given (system, measure, cfg, traj).

    With ``geodesic`` the increment is the fixed flow step a_{dt} and record
    abscissae/normalizations use flow time instead of step count.  ``run``
    is what the run's trajectories share, built from the other arguments
    (``run_trajectories`` builds it once for all of them); built here when
    None.
    """
    if run is None:
        run = _Run(system, measure, cfg, geodesic)
    n = cfg.steps
    start, state, index, at_grid, counts = run.loop(traj).run(run.start)
    records = _checkpoints(run, traj, state, index)

    rstats = None
    if cfg.returns is not None:
        first_return, n_returns, _ = at_grid[-1]
        before = [0] + [r[1] for r in at_grid[:-1]]
        rstats = ReturnStats(
            first_return=first_return,
            n_returns=n_returns,
            returned_by=tuple(
                (g, first_return is not None and first_return <= g) for g in run.grid
            ),
            window_returns=tuple(
                (g, r[1] - b) for g, r, b in zip(run.grid, at_grid, before)
            ),
            max_excursion_by=tuple((g, float(r[2])) for g, r in zip(run.grid, at_grid)),
        )

    idx = records.index[-1]
    tt = (n * cfg.dt if geodesic else n) or 1  # a run of no steps has drift 0
    summary = TrajectorySummary(
        traj=traj,
        steps=n,
        final_index=idx,
        terminal_drift=tuple(v / tt for v in idx),
        cartan_t=records.cartan_t[-1],
        start_rep=start,
        returns=rstats,
        atom_counts=counts,
        orbit_states=None if run.table is None else len(run.table.reps),
    )
    return TrajectoryResult(records=records, summary=summary)


def _checkpoints(run: _Run, traj: int, state: list[float],
                 index: list[int]) -> Checkpoints:
    """Trajectory traj's records, a column at a time, from its loop's
    (cusp height, ta, tb, tc, td, tlog) and sheet index at each checkpoint,
    each laid end to end.  The Cartan product is (ta, tb, tc, td) times
    e^tlog; flow runs use the flow time instead."""
    dim, dt = run.system.d, run.cfg.dt
    if run.geodesic:
        n = cartan = [k * dt for k in run.checkpoints]
    else:
        n, cartan = run.checkpoints, []
        for ta, tb, tc, td, tlog in zip(state[1::6], state[2::6], state[3::6],
                                        state[4::6], state[5::6]):
            s1, _ = hyp2.singular_values(ta, tb, tc, td)
            cart = 2.0 * (math.log(s1) + tlog) if s1 > 0 else 0.0
            cartan.append(0.0 if cart < 0.0 else cart)
    columns = [index[i::dim] for i in range(dim)]
    tts = [tt or 1 for tt in n]  # the start has drift 0
    drift = [[v / tt for v, tt in zip(col, tts)] for col in columns]
    return Checkpoints(traj, n, list(zip(*columns)), list(zip(*drift)),
                       state[0::6], cartan)


# ---------------------------------------------------------------------------
# multi-trajectory runners

def worker_count() -> int:
    """The threads a run asks for: ``COVWALK_THREADS`` (1 when unset or not
    an integer), capped at the CPUs this process may run on.  The kernel is
    CPU-bound, so more threads than CPUs cannot speed a run up.  On the
    Python fallback the count is 1: it holds the GIL, so threads would only
    take turns, and the switching between them slows a run down."""
    from . import segments

    try:
        workers = int(os.environ.get("COVWALK_THREADS", "1"))
    except ValueError:
        return 1
    if segments.load_kernel() != "c":
        return 1
    if hasattr(os, "sched_getaffinity"):
        cpus = len(os.sched_getaffinity(0))
    else:  # no affinity mask on this platform
        cpus = os.cpu_count() or 1
    return max(1, min(workers, cpus))


def run_trajectories(
    system: CoverSystem,
    measure: MeasureSpec | None,
    cfg: WalkConfig,
    geodesic: bool = False,
    workers: int | None = None,
) -> list[TrajectoryResult]:
    """All trajectories of a run, in trajectory order.

    The trajectories are dealt round robin over min(workers, trajectories)
    threads (``worker_count()`` when workers is None): the calling thread
    runs the first block, and a daemon thread each other one.  The compiled
    kernel releases the GIL for every trajectory, so the threads run at once;
    on the Python fallback they take turns.  Per-trajectory seeding makes
    the merged output identical to the one-thread run.  A thread stops its
    block at its first failing trajectory, and the run raises the failure of
    the lowest-numbered failing trajectory: the one a one-thread run raises.
    """
    if workers is None:
        workers = worker_count()
    run = _Run(system, measure, cfg, geodesic)
    # a run of no trajectories has one empty block
    first, *rest = _worker_blocks(list(range(cfg.trajectories)), workers) or [[]]
    # each thread writes only its own trajectories' slots and keys
    results: list[TrajectoryResult | None] = [None] * cfg.trajectories
    failures: dict[int, Exception] = {}

    def run_block(block: list[int]) -> None:
        for t in block:
            try:
                results[t] = simulate_trajectory(system, measure, cfg, t, geodesic, run)
            except Exception as exc:  # raised below, in trajectory order
                failures[t] = exc
                return

    threads = [
        threading.Thread(target=run_block, args=(block,), daemon=True)
        for block in rest
    ]
    for thread in threads:
        thread.start()
    run_block(first)
    for thread in threads:
        thread.join()
    if failures:
        raise failures[min(failures)]
    return results


def _worker_blocks(ids: list[int], workers: int) -> list[list[int]]:
    """The trajectories of each thread, dealt round robin; no thread is left
    without one."""
    count = min(max(workers, 1), len(ids))
    return [ids[i::count] for i in range(count)]


# ---------------------------------------------------------------------------
# Lyapunov exponent

@record
class LyapunovEstimate:
    value: float
    se: float
    steps: int
    trajectories: int


def lyapunov_estimate(
    measure: MeasureSpec,
    steps: int,
    trajectories: int,
    master_seed: int = 0,
    override_zariski: bool = False,
) -> LyapunovEstimate:
    """Mean of t_n / n over independent random matrix products, where t_n is
    twice the log of the top singular value; the standard error is across
    trajectories.  Vectorized over trajectories."""
    if not override_zariski:
        z = zariski_density_check(measure)
        if not z.passed:
            raise ZariskiCheckError(z.reason)
    import numpy as np

    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence([master_seed, 0x17A9]))
    )
    K = trajectories
    P = np.tile(np.eye(2), (K, 1, 1))
    logs = np.zeros(K)
    if measure.kind == "atoms":
        mats = np.array([[[g.a, g.b], [g.c, g.d]] for g, _ in measure.atoms])
        probs = np.array([p for _, p in measure.atoms])
    for k in range(steps):
        if measure.kind == "atoms":
            choice = rng.choice(len(probs), size=K, p=probs)
            G = mats[choice]
        else:
            th1 = rng.random(K) * (2 * np.pi)
            th2 = rng.random(K) * (2 * np.pi)
            tau = measure.tau_min + rng.random(K) * (measure.tau_max - measure.tau_min)
            c1, s1 = np.cos(th1 / 2), np.sin(th1 / 2)
            c2, s2 = np.cos(th2 / 2), np.sin(th2 / 2)
            e = np.exp(tau / 2)
            ei = 1.0 / e
            G = np.empty((K, 2, 2))
            G[:, 0, 0] = c1 * e * c2 - s1 * ei * s2
            G[:, 0, 1] = -c1 * e * s2 - s1 * ei * c2
            G[:, 1, 0] = s1 * e * c2 + c1 * ei * s2
            G[:, 1, 1] = -s1 * e * s2 + c1 * ei * c2
        P = P @ G
        if (k + 1) % 32 == 0:
            mm = np.abs(P).max(axis=(1, 2))
            P /= mm[:, None, None]
            logs += np.log(mm)
    ee = 0.5 * (P[:, 0, 0] + P[:, 1, 1])
    ff = 0.5 * (P[:, 0, 0] - P[:, 1, 1])
    gg = 0.5 * (P[:, 0, 1] + P[:, 1, 0])
    hh = 0.5 * (P[:, 1, 0] - P[:, 0, 1])
    smax = np.hypot(ee, hh) + np.hypot(ff, gg)
    t_n = 2.0 * (np.log(smax) + logs)
    lam = t_n / steps
    value = float(lam.mean())
    se = float(lam.std(ddof=1) / math.sqrt(K)) if K > 1 else 0.0
    if value <= 0:
        raise ZariskiCheckError(
            f"estimated top Lyapunov exponent {value} is not positive"
        )
    return LyapunovEstimate(value=value, se=se, steps=steps, trajectories=K)
