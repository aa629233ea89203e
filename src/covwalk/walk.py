"""Random walk and geodesic flow trajectory engine.

A trajectory multiplies a reduced tangent by random increments, reduces it
back into the fundamental polygon after each step, and charges the deck
moves to an exact integer sheet index.  The per-step loop is written with
plain floats and tuples on purpose: it runs tens of millions of times in
the acceptance experiments.

Each step is a pure function of the current state and the letter drawn,
with the same split as ``CoverSystem.stepper``.  A fixed start whose orbit
under the step letters (the atoms, or the flow step) has at most
``ENGINE_ORBIT_STATES`` states walks that orbit's compiled ``OrbitTable`` in
integers, so its index path is exact however long the run.  Every other
run (Haar starts, parametric measures, larger orbits) multiplies and
reduces with no cache, step for step as ``CoverSystem.apply_step``.

Randomness is counter-based and splittable: trajectory k of a run seeded
with s draws from Philox keyed by SeedSequence([s, k]), so runs are
bit-reproducible under any scheduling of trajectories.  The stream is read
``_RNG_BLOCK`` uniforms at a time, and each block is turned into its letters
in one pass (``_draw_block``): an atom index per uniform, or a parametric
increment per three uniforms, with the same bits as the scalar formula.

The sheet index is only read at checkpoints unless a per-step observer
(return tracking or a step trace) is on.  Without one, the descent counts
the pairings it applies per polygon side and a random walk on an orbit table
counts its (state, letter) moves; both are folded into the index at each
checkpoint, and the last checkpoint is always the final step.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import hyp2
from . import fuchsian
from . import cover as cover_mod
from .hyp2 import GroupElement, UnitTangent
from .cover import CoverSystem, IntVec

_RNG_BLOCK = 4096
# the orbit-table loop ends its segments on the 64-step Cartan renormalization
# grid and expects every block end to fall on it
assert _RNG_BLOCK % 64 == 0

# A fixed start whose orbit under the step letters has at most this many
# states walks it as an OrbitTable.  Finite orbits this large occur: the
# gamma2 start z -> z + 1/5 has 36 states under A and B, and the plain
# kernel leaves it within a few dozen steps.  Giving up on an infinite
# orbit costs this many states times the number of letters in apply_step
# calls: about 0.8 ms per trajectory for two atoms on a 2-vCPU Xeon.
ENGINE_ORBIT_STATES = 64


class ZariskiCheckError(RuntimeError):
    """The step measure failed the Zariski-density certificate."""


# ---------------------------------------------------------------------------
# step measures

@dataclass(frozen=True)
class MeasureSpec:
    """Either finitely many atoms or the rotation-translation-rotation family
    with uniform angles and uniform translation length in [tau_min, tau_max].
    Compact support holds by construction."""

    kind: str  # "atoms" | "parametric"
    atoms: tuple[tuple[GroupElement, float], ...] = ()
    atom_labels: tuple[str, ...] = ()
    tau_min: float = 0.0
    tau_max: float = 0.0


def measure_from_atoms(
    atoms: list[tuple[GroupElement, float]], labels: list[str] | None = None
) -> MeasureSpec:
    if not atoms:
        raise ValueError("need at least one atom")
    total = sum(p for _, p in atoms)
    if any(p < 0 for _, p in atoms) or abs(total - 1.0) > 1e-12:
        raise ValueError(f"atom probabilities must be >= 0 and sum to 1, got {total}")
    return MeasureSpec(
        kind="atoms",
        atoms=tuple(atoms),
        atom_labels=tuple(labels) if labels else tuple(f"atom{i}" for i in range(len(atoms))),
    )


def parametric_measure(tau_min: float, tau_max: float) -> MeasureSpec:
    if not (0.0 < tau_min <= tau_max):
        raise ValueError("need 0 < tau_min <= tau_max")
    return MeasureSpec(kind="parametric", tau_min=tau_min, tau_max=tau_max)


def two_atom_measure(pres: fuchsian.LatticePresentation) -> MeasureSpec:
    """Equal weight on the two generators (the distinguished preset measure)."""
    (l1, g1), (l2, g2) = pres.generators
    return measure_from_atoms([(g1, 0.5), (g2, 0.5)], labels=[l1, l2])


@dataclass(frozen=True)
class ZariskiResult:
    passed: bool
    reason: str = ""


def zariski_density_check(
    m: MeasureSpec, word_length: int = 6, n_parametric_atoms: int = 6
) -> ZariskiResult:
    """Heuristic density certificate for the generated sub-semigroup.

    Looks for two hyperbolic elements among semigroup words with no shared
    boundary fixed point (all four separated on the boundary circle).  That
    rules out the solvable obstructions (common axis or common fixed point);
    it is a certificate, not a proof.
    """
    if m.kind == "atoms":
        gens = [g for g, p in m.atoms if p > 0]
    else:
        rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(20240601)))
        gens = []
        for _ in range(n_parametric_atoms):
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
    for _ in range(word_length - 1):
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

    def chart(u: float) -> complex:
        if math.isinf(u):
            return complex(1.0, 0.0)
        w = complex(u, -1.0) / complex(u, 1.0)
        return w / abs(w)

    for i in range(len(hyps)):
        for j in range(i + 1, len(hyps)):
            pts = [chart(u) for u in hyps[i] + hyps[j]]
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

@dataclass(frozen=True)
class CheckpointPlan:
    """linear: every `stride` steps; geometric: n0, n0*ratio, ... (rounded).
    The final step is always a checkpoint."""

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
            while x <= n + 0.5:
                k = int(round(x))
                if not out or k > out[-1]:
                    out.append(k)
                x *= self.ratio
        else:
            raise ValueError(f"unknown checkpoint kind {self.kind!r}")
        if not out or out[-1] != n:
            out.append(n)
        return out


@dataclass(frozen=True)
class ReturnSpec:
    """Return/excursion tracking.  The start tile is sheet index zero with
    the base point within `radius` of the start; a 'return' is a step that
    re-enters the start tile after having left it since the previous return
    (or since the start).  Leaving it means either the index leaving zero or
    the base point leaving the ball while the index is still zero."""

    radius: float = 2.0
    grid: tuple[int, ...] = ()


@dataclass(frozen=True)
class StartSpec:
    mode: str = "haar"  # "haar" | "fixed"
    tangent: UnitTangent | None = None


@dataclass(frozen=True)
class WalkConfig:
    steps: int
    trajectories: int
    master_seed: int = 0
    checkpoints: CheckpointPlan = field(default_factory=CheckpointPlan)
    start: StartSpec = field(default_factory=StartSpec)
    dt: float = 0.25
    returns: ReturnSpec | None = None
    count_atoms: bool = False


@dataclass(frozen=True, slots=True)
class CheckpointRecord:
    traj: int
    n: float  # step count (walk) or flow time (geodesic)
    index: IntVec
    drift: tuple[float, ...]
    cusp_height: float
    cartan_t: float


@dataclass(frozen=True)
class ReturnStats:
    first_return: int | None
    n_returns: int
    returned_by: tuple[tuple[int, bool], ...]       # (grid n, any return <= n)
    window_returns: tuple[tuple[int, int], ...]     # (grid n, returns in (prev, n])
    max_excursion_by: tuple[tuple[int, float], ...]  # (grid n, max sup-norm <= n)


@dataclass(frozen=True)
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


@dataclass(frozen=True)
class TrajectoryResult:
    records: tuple[CheckpointRecord, ...]
    summary: TrajectorySummary


def trajectory_rng(master_seed: int, traj: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([master_seed, traj]))
    )


# ---------------------------------------------------------------------------
# the engine

def simulate_trajectory(
    system: CoverSystem,
    measure: MeasureSpec | None,
    cfg: WalkConfig,
    traj: int,
    geodesic: bool = False,
    step_trace: list | None = None,
    trace_height: float = 0.0,
) -> TrajectoryResult:
    """Run one trajectory; deterministic given (system, measure, cfg, traj).

    With ``geodesic`` the increment is the fixed flow step a_{dt} and record
    abscissae/normalizations use flow time instead of step count.  An optional
    ``step_trace`` collects (t, cusp_id, height, index) per step for the
    excursion analyses (small runs only).
    """
    rng = trajectory_rng(cfg.master_seed, traj)
    n = cfg.steps

    if cfg.start.mode == "haar":
        x0 = fuchsian.haar_sample(
            system.polygon, system.cusps, system.pres, rng, system.haar_parts
        )
    else:
        x0 = cfg.start.tangent if cfg.start.tangent is not None else hyp2.BASE_TANGENT
    p0 = system.start_point(x0)
    a, b, c, d = p0.rep.rep.as_tuple()
    start_rep = (a, b, c, d)
    sx, sy = _base_xy(a, b, c, d)
    dim = system.d
    idx = list(p0.index)

    planes = system.planes
    mats = system.pair_mats
    phis = system.pair_phis
    eps = fuchsian.EPS_GEOM
    max_iter = fuchsian.MAX_REDUCE_ITER

    atoms = not geodesic and measure is not None and measure.kind == "atoms"
    cum = None  # parametric letters are built from the uniforms
    if geodesic:
        ga, gb, gc, gd = hyp2.translation(cfg.dt).as_tuple()
    elif atoms:
        mats_atoms = [g.as_tuple() for g, _ in measure.atoms]
        cum = _cumulative_weights(measure)
    counts = [0] * len(measure.atoms) if atoms and cfg.count_atoms else None
    block: list = []  # the letters of the current Philox block
    upos = 0

    # a fixed start may lie on a finite orbit of the step letters; a Haar
    # start almost surely does not, and parametric letters are never reused
    table = None
    if cfg.start.mode != "haar" and (geodesic or atoms):
        letters = (
            (hyp2.translation(cfg.dt),)
            if geodesic
            else tuple(g for g, _ in measure.atoms)
        )
        table = system.orbit_table(x0, letters, ENGINE_ORBIT_STATES)
    if table is not None:
        moves = table.moves
        state_xy = tuple(_base_xy(*r.rep.as_tuple()) for r in table.reps)
        state = 0
        ai = 0  # a flow run's only letter

    checkpoints = cfg.checkpoints.steps(n)
    cps = iter(checkpoints)
    next_cp = next(cps, n + 1)
    records: list[CheckpointRecord] = []

    ret = cfg.returns
    track_returns = ret is not None
    if track_returns:
        cosh_r = math.cosh(ret.radius)
        grid = sorted(ret.grid) if ret.grid else [n]
        if grid[-1] != n:
            grid.append(n)
        left_zero = False
        first_return: int | None = None
        n_returns = 0
        window_counts = [0] * len(grid)
        max_exc = 0
        max_exc_by = [0] * len(grid)
        returned_by = [False] * len(grid)
        gpos = 0
    # without a per-step observer the index is only read at checkpoints
    observe = track_returns or step_trace is not None

    # running product for the Cartan displacement (walk runs only)
    ta, tb, tc, td = 1.0, 0.0, 0.0, 1.0
    tlog = 0.0

    if table is not None and not observe and not geodesic:
        # walk the table in segments that end at a checkpoint or at a
        # multiple of 64 (the Cartan renormalization, and the end of every
        # _RNG_BLOCK atom letters); moves are counted per (state, letter)
        # and folded into the index at checkpoints.  Move t = row + letter,
        # where row = state * n_letters; nxt[t] is the row of the next state
        n_letters = len(moves[0])
        nxt = [s * n_letters for out in moves for s, _ in out]
        deltas = [dl for out in moves for _, dl in out]
        tcount = [0] * len(nxt)
        row = 0
        k = 0
        while k < n:
            if upos == len(block):
                block = _draw_block(rng, measure, cum)
                upos = 0
            stop = min(next_cp, (k | 63) + 1)
            for ai in block[upos:upos + stop - k]:
                t = row + ai
                tcount[t] += 1
                row = nxt[t]
                ga, gb, gc, gd = mats_atoms[ai]
                ta, tb, tc, td = (
                    ta * ga + tb * gc,
                    ta * gb + tb * gd,
                    tc * ga + td * gc,
                    tc * gb + td * gd,
                )
            upos += stop - k
            if stop & 63 == 0:
                mm = max(abs(ta), abs(tb), abs(tc), abs(td))
                if mm > 1.0:
                    ta, tb, tc, td = ta / mm, tb / mm, tc / mm, td / mm
                    tlog += math.log(mm)
            k = stop
            if k == next_cp:
                for t, m in enumerate(tcount):
                    if m:
                        for j, v in enumerate(deltas[t]):
                            idx[j] += m * v
                        if counts is not None:
                            counts[t % n_letters] += m
                tcount = [0] * len(nxt)
                px, py = state_xy[row // n_letters]
                records.append(_checkpoint(
                    system, traj, k, idx, px, py, ta, tb, tc, td, tlog, False, cfg.dt
                ))
                next_cp = next(cps, n + 1)
    else:
        hits = [0] * len(phis)  # pairings applied since the last checkpoint
        for k in range(1, n + 1):
            # -- draw the increment
            if not geodesic:
                if upos == len(block):
                    block = _draw_block(rng, measure, cum)
                    upos = 0
                if atoms:
                    ai = block[upos]
                    ga, gb, gc, gd = mats_atoms[ai]
                    if counts is not None:
                        counts[ai] += 1
                else:
                    ga, gb, gc, gd = block[upos]
                upos += 1

            # -- position update: walk the orbit table, or multiply and reduce
            if table is not None:
                state, delta = moves[state][ai]
                for j in range(dim):
                    idx[j] += delta[j]
                px, py = state_xy[state]
            else:
                a, b, c, d = (
                    a * ga + b * gc,
                    a * gb + b * gd,
                    c * ga + d * gc,
                    c * gb + d * gd,
                )
                it = 0
                while True:
                    den = c * c + d * d
                    px = (a * c + b * d) / den
                    py = 1.0 / den
                    pr2 = px * px + py * py
                    hit = -1
                    i = 0
                    for (al, be, de) in planes:
                        if al * pr2 + be * px + de > eps:
                            hit = i
                            break
                        i += 1
                    if hit < 0:
                        break
                    if it & 63 == 63:
                        # deep cusp winding: unwind whole strip widths in one stroke
                        unw = system.fast_unwind(a, b, c, d)
                        if unw is not None:
                            a, b, c, d, kw_, ph = unw
                            for j in range(dim):
                                idx[j] += kw_ * ph[j]
                            it += 1
                            continue
                    pa, pb, pc, pd = mats[hit]
                    a, b, c, d = (
                        pa * a + pb * c,
                        pa * b + pb * d,
                        pc * a + pd * c,
                        pc * b + pd * d,
                    )
                    det = a * d - b * c
                    if abs(det - 1.0) > 1e-12:
                        s = 1.0 / math.sqrt(det)
                        a, b, c, d = a * s, b * s, c * s, d * s
                    if observe:
                        ph = phis[hit]
                        for j in range(dim):
                            idx[j] -= ph[j]
                    else:
                        hits[hit] += 1
                    it += 1
                    if it > max_iter:
                        raise fuchsian.NonTerminationError(
                            f"trajectory {traj} step {k}: reduction did not terminate"
                        )

            # -- running Cartan product (walk mode only)
            if not geodesic:
                ta, tb, tc, td = (
                    ta * ga + tb * gc,
                    ta * gb + tb * gd,
                    tc * ga + td * gc,
                    tc * gb + td * gd,
                )
                if k & 63 == 0:
                    mm = max(abs(ta), abs(tb), abs(tc), abs(td))
                    if mm > 1.0:
                        ta, tb, tc, td = ta / mm, tb / mm, tc / mm, td / mm
                        tlog += math.log(mm)

            # -- per-step instrumentation
            if step_trace is not None:
                hgt = system.cusp_height_xy(px, py)
                cid = system.which_cusp_xy(px, py, trace_height) if hgt > trace_height else -1
                tt = k * cfg.dt if geodesic else k
                step_trace.append((tt, cid, hgt, tuple(idx)))

            if track_returns:
                # the start tile is: sheet index zero AND base within the radius
                # of the start; a return is re-entering it after having left
                exc = 0
                for j in range(dim):
                    v = idx[j]
                    if v < 0:
                        v = -v
                    if v > exc:
                        exc = v
                if exc > max_exc:
                    max_exc = exc
                if exc > 0:
                    left_zero = True
                else:
                    dx = px - sx
                    dy = py - sy
                    inside = 1.0 + (dx * dx + dy * dy) / (2.0 * py * sy) <= cosh_r
                    if left_zero and inside:
                        n_returns += 1
                        left_zero = False
                        if first_return is None:
                            first_return = k
                        gi = gpos
                        while gi < len(grid) and grid[gi] < k:
                            gi += 1
                        if gi < len(grid):
                            window_counts[gi] += 1
                            for g2 in range(gi, len(grid)):
                                returned_by[g2] = True
                    elif not left_zero and not inside:
                        left_zero = True
                while gpos < len(grid) and grid[gpos] <= k:
                    max_exc_by[gpos] = max_exc
                    gpos += 1

            # -- checkpoint
            if k == next_cp:
                for i, m in enumerate(hits):
                    if m:
                        ph = phis[i]
                        for j in range(dim):
                            idx[j] -= m * ph[j]
                        hits[i] = 0
                records.append(_checkpoint(
                    system, traj, k, idx, px, py, ta, tb, tc, td, tlog, geodesic, cfg.dt
                ))
                next_cp = next(cps, n + 1)

    if track_returns:
        for gi in range(gpos, len(grid)):
            max_exc_by[gi] = max_exc
        rstats = ReturnStats(
            first_return=first_return,
            n_returns=n_returns,
            returned_by=tuple(zip(grid, returned_by)),
            window_returns=tuple(zip(grid, window_counts)),
            max_excursion_by=tuple((g, float(v)) for g, v in zip(grid, max_exc_by)),
        )
    else:
        rstats = None

    tt = n * cfg.dt if geodesic else max(n, 1)
    if n == 0:
        records = [
            CheckpointRecord(
                traj=traj,
                n=0.0 if geodesic else 0,
                index=tuple(idx),
                drift=tuple(0.0 for _ in idx),
                cusp_height=system.cusp_height_xy(sx, sy),
                cartan_t=0.0,
            )
        ]
    summary = TrajectorySummary(
        traj=traj,
        steps=n,
        final_index=tuple(idx),
        terminal_drift=tuple(v / tt for v in idx),
        cartan_t=records[-1].cartan_t if records else 0.0,
        start_rep=start_rep,
        returns=rstats,
        atom_counts=() if counts is None else tuple(counts),
        orbit_states=None if table is None else len(table.reps),
    )
    return TrajectoryResult(records=tuple(records), summary=summary)


def _cumulative_weights(measure: MeasureSpec) -> list[float]:
    """Running sums of the atom weights, capped at 1.0 and ending at 1.0.

    ``measure_from_atoms`` lets the weights sum to 1 within 1e-12; with the
    last sum pinned, a uniform in [0, 1) cannot fall past the last atom, and
    every uniform the plain running sums place lands on the same atom."""
    cum = [min(v, 1.0) for v in itertools.accumulate(p for _, p in measure.atoms)]
    cum[-1] = 1.0
    return cum


def _draw_block(
    rng: np.random.Generator, measure: MeasureSpec, cum: list[float] | None
) -> list:
    """The letters of the next ``_RNG_BLOCK`` uniforms of a trajectory's stream.

    Atoms (``cum`` from ``_cumulative_weights``): one atom index per uniform
    u, the first whose cumulative weight is >= u.  Parametric (``cum`` None):
    one increment rotation(th1) translation(tau) rotation(th2) as (a, b, c, d)
    per three uniforms; the block's last uniform is not used.  The angles, tau
    and entries are formed in the scalar formula's operation order, and cos,
    sin and exp come from ``math``: ``np.exp`` rounds differently from
    ``math.exp`` on a few percent of inputs."""
    u = rng.random(_RNG_BLOCK)
    if cum is not None:
        return np.searchsorted(cum, u, side="left").tolist()
    u = u[: _RNG_BLOCK - _RNG_BLOCK % 3].reshape(-1, 3)
    th1 = u[:, 0] * 6.283185307179586
    tau = measure.tau_min + u[:, 1] * (measure.tau_max - measure.tau_min)
    th2 = u[:, 2] * 6.283185307179586
    h1 = (0.5 * th1).tolist()
    h2 = (0.5 * th2).tolist()
    m = len(h1)
    c1 = np.fromiter(map(math.cos, h1), float, m)
    s1 = np.fromiter(map(math.sin, h1), float, m)
    c2 = np.fromiter(map(math.cos, h2), float, m)
    s2 = np.fromiter(map(math.sin, h2), float, m)
    e = np.fromiter(map(math.exp, (0.5 * tau).tolist()), float, m)
    ei = 1.0 / e
    return list(zip(
        (c1 * e * c2 - s1 * ei * s2).tolist(),
        (-c1 * e * s2 - s1 * ei * c2).tolist(),
        (s1 * e * c2 + c1 * ei * s2).tolist(),
        (-s1 * e * s2 + c1 * ei * c2).tolist(),
    ))


def _checkpoint(
    system: CoverSystem,
    traj: int,
    k: int,
    idx: list[int],
    px: float,
    py: float,
    ta: float,
    tb: float,
    tc: float,
    td: float,
    tlog: float,
    geodesic: bool,
    dt: float,
) -> CheckpointRecord:
    """The record after step k at base point (px, py); the Cartan product is
    (ta, tb, tc, td) times e^tlog (flow runs use the flow time instead)."""
    tt = k * dt if geodesic else k
    if geodesic:
        cart = tt
    else:
        s1, _ = hyp2.singular_values(ta, tb, tc, td)
        cart = 2.0 * (math.log(s1) + tlog) if s1 > 0 else 0.0
        if cart < 0.0:
            cart = 0.0
    return CheckpointRecord(
        traj=traj,
        n=tt,
        index=tuple(idx),
        drift=tuple(v / tt for v in idx),
        cusp_height=system.cusp_height_xy(px, py),
        cartan_t=cart,
    )


def _base_xy(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    den = c * c + d * d
    return (a * c + b * d) / den, 1.0 / den


# ---------------------------------------------------------------------------
# multi-trajectory runners

@dataclass(frozen=True)
class RunPlan:
    """Everything a worker process needs to simulate a block of trajectories."""

    pres: fuchsian.LatticePresentation
    polygon: fuchsian.FundamentalPolygon
    cusps: tuple[fuchsian.CuspData, ...]
    spec: cover_mod.CoverSpec
    measure: MeasureSpec | None
    cfg: WalkConfig
    geodesic: bool = False


def _run_block(plan: RunPlan, trajs: list[int]) -> list[TrajectoryResult]:
    system = CoverSystem(plan.pres, plan.polygon, plan.cusps, plan.spec)
    return [
        simulate_trajectory(system, plan.measure, plan.cfg, t, geodesic=plan.geodesic)
        for t in trajs
    ]


def worker_count() -> int:
    raw = os.environ.get("COVWALK_THREADS", "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def run_trajectories(
    system: CoverSystem,
    measure: MeasureSpec | None,
    cfg: WalkConfig,
    geodesic: bool = False,
    workers: int | None = None,
) -> list[TrajectoryResult]:
    """All trajectories of a run, in trajectory order.  With workers > 1 the
    trajectories are distributed over processes; per-trajectory seeding makes
    the merged output identical to the sequential run."""
    if workers is None:
        workers = worker_count()
    ids = list(range(cfg.trajectories))
    if workers <= 1 or len(ids) <= 1:
        return [
            simulate_trajectory(system, measure, cfg, t, geodesic=geodesic)
            for t in ids
        ]
    plan = RunPlan(
        pres=system.pres,
        polygon=system.polygon,
        cusps=system.cusps,
        spec=system.spec,
        measure=measure,
        cfg=cfg,
        geodesic=geodesic,
    )
    blocks = [ids[i::workers] for i in range(workers)]
    out: dict[int, TrajectoryResult] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for results in pool.map(_run_block, [plan] * len(blocks), blocks):
            for r in results:
                out[r.summary.traj] = r
    return [out[t] for t in ids]


def run_walk(
    system: CoverSystem,
    measure: MeasureSpec,
    cfg: WalkConfig,
    workers: int | None = None,
):
    """Stream of checkpoint records over all trajectories of a walk run."""
    for res in run_trajectories(system, measure, cfg, geodesic=False, workers=workers):
        yield from res.records


def run_geodesic(
    system: CoverSystem,
    cfg: WalkConfig,
    workers: int | None = None,
):
    """Stream of checkpoint records for geodesic-flow runs (haar starts).

    cfg.steps counts flow increments of length cfg.dt; record abscissae are
    flow times and drifts are index/time."""
    if cfg.dt > 0.5:
        raise ValueError("flow step dt must be <= 0.5 to keep reduction local")
    for res in run_trajectories(system, None, cfg, geodesic=True, workers=workers):
        yield from res.records


# ---------------------------------------------------------------------------
# Lyapunov exponent

@dataclass(frozen=True)
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
