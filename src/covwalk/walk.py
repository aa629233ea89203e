"""Random walk and geodesic flow trajectory engine.

A trajectory multiplies a reduced tangent by random increments, reduces it
back into the fundamental polygon after each step, and charges the deck
moves to an exact integer sheet index.  The step loops are written with
plain floats and tuples on purpose: they run tens of millions of times in
the acceptance experiments.

A run's start, Haar-sampled or fixed, is reduced by
``CoverSystem.start_point``.  Each step is a pure function of the current
state and the letter drawn, with the same split as ``CoverSystem.stepper``.
A fixed start whose orbit under the step letters (the atoms, or the flow
step) has at most ``ENGINE_ORBIT_STATES`` states walks that orbit's compiled
``OrbitTable`` in integers, so its index path is exact however long the run.
Every other run (Haar starts, parametric measures, larger orbits) multiplies
and reduces with no cache, step for step as ``CoverSystem.apply_step``: the
loop below inlines ``CoverSystem.reduce_raw``, its reference, with the index
packed.  ``run_trajectories`` runs all trajectories of a walk or flow run.

Randomness is counter-based and splittable: trajectory k of a run seeded
with s draws from Philox keyed by SeedSequence([s, k]), so runs are
bit-reproducible under any scheduling of trajectories.  The stream is read
``_RNG_BLOCK`` uniforms at a time, and each block is turned into its letters
in one pass (``_draw_block``): an atom index per uniform, or a parametric
increment per three uniforms, with the same bits as the scalar formula.

A run advances in segments.  A segment ends at the next checkpoint, at the
next multiple of 64 steps or at the end of the current block of letters;
the block refill, the renormalization of the running Cartan product (every
64 steps) and the checkpoint record happen between segments.  Inside a
segment one of two loops runs.  A random walk on an orbit table with no
observer runs the tight loop: it counts its (state, letter) moves and folds
them into the index at checkpoints.  Every other run takes the per-step
loop: the letter, the table move or the multiply and reduce, the Cartan
product and return tracking, the one per-step observer.

The sheet index is carried as one packed integer (``_pack``/``_unpack``):
each pairing of the descent subtracts its side's packed phi charge, a cusp
unwind adds k times the packed charge of its corner, and a table step adds
its packed index change.  The index is decoded only where it is read: at
checkpoints, at the end of the run, and for return tracking (where a zero
code is sheet zero) on a step whose moves could have carried the index's
sup-norm past its running maximum.  The last checkpoint is always the final
step.

The greedy descent tries ``CoverSystem.fast_unwind`` on its iterations 7,
15, 23, ... (``cover.UNWIND_MASK``), as ``CoverSystem.reduce_raw`` does:
descent depth has the 1/x tail of the Haar cusp law, so a Haar start spends
a good share of its pairings in cusp windings deeper than 8.
"""

from __future__ import annotations

import functools
import itertools
import math
import os
from dataclasses import dataclass, field

import numpy as np

from . import hyp2
from . import fuchsian
from . import cover as cover_mod
from .hyp2 import GroupElement, UnitTangent
from .cover import CoverSystem, IntVec

_RNG_BLOCK = 4096
# atom and flow blocks then end on the 64-step renormalization grid, so only
# parametric blocks (a third as many letters) add segment ends of their own
assert _RNG_BLOCK % 64 == 0

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
) -> TrajectoryResult:
    """Run one trajectory; deterministic given (system, measure, cfg, traj).

    With ``geodesic`` the increment is the fixed flow step a_{dt} and record
    abscissae/normalizations use flow time instead of step count.
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
    code = _pack(p0.index)

    planes = system.planes
    pmats = system.pair_mats
    pcodes = [_pack(ph) for ph in system.pair_phis]
    eps = fuchsian.EPS_GEOM
    max_iter = fuchsian.MAX_REDUCE_ITER
    unwind_mask = cover_mod.UNWIND_MASK

    # a letter is an index into mats: an atom, the flow step (letter 0), or an
    # increment of the current parametric block
    atoms = not geodesic and measure is not None and measure.kind == "atoms"
    parametric = not geodesic and not atoms
    cum = None  # parametric letters are built from the uniforms
    if geodesic:
        letters = (hyp2.translation(cfg.dt),)
    elif atoms:
        letters = tuple(g for g, _ in measure.atoms)
        cum = _cumulative_weights(measure)
    mats = [] if parametric else [g.as_tuple() for g in letters]
    counts = [0] * len(measure.atoms) if atoms and cfg.count_atoms else None

    # a fixed start may lie on a finite orbit of the step letters; a Haar
    # start almost surely does not, and parametric letters are never reused
    table = None
    if cfg.start.mode != "haar" and not parametric:
        table = system.orbit_table(x0, letters, ENGINE_ORBIT_STATES)
    if table is not None:
        moves = tuple(
            tuple((s, _pack(dl)) for s, dl in out) for out in table.moves
        )
        state_xy = tuple(_base_xy(*r.rep.as_tuple()) for r in table.reps)
        state = 0

    cps = iter(cfg.checkpoints.steps(n))
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
        # the index is decoded only when the step's moves could have carried
        # its sup-norm past max_exc: slack is a lower bound on max_exc minus
        # the current sup-norm, and one pairing or table move changes a
        # coordinate by at most charge_max (a cusp unwind sets slack to -1)
        charges = list(system.pair_phis)
        if table is not None:
            charges += [dl for out in table.moves for _, dl in out]
        charge_max = max(abs(v) for dl in charges for v in dl)
        slack = 0

    # the tight loop's move t = row + letter, where row = state * n_letters;
    # nxt[t] is the row of the next state
    tight = table is not None and not track_returns and not geodesic
    if tight:
        n_letters = len(moves[0])
        nxt = [s * n_letters for out in moves for s, _ in out]
        dcodes = [dc for out in moves for _, dc in out]
        tcount = [0] * len(nxt)
        row = 0

    # running product for the Cartan displacement (walk runs only)
    ta, tb, tc, td = 1.0, 0.0, 0.0, 1.0
    tlog = 0.0

    # the segment loop (see the module docstring); steps b0 + 1 .. bend take
    # their letters from block
    block: list[int] | range = []
    b0 = bend = 0
    k = 0
    while k < n:
        if k == bend:
            if geodesic:
                block = [0] * _RNG_BLOCK
            else:
                block = _draw_block(rng, measure, cum)
                if parametric:
                    mats, block = block, range(len(block))
            b0, bend = k, k + len(block)
        stop = min(next_cp, (k | 63) + 1, bend)
        seg = block[k - b0:stop - b0]
        if counts is not None:
            for j in range(len(counts)):
                counts[j] += seg.count(j)
        if tight:
            for ai in seg:
                t = row + ai
                tcount[t] += 1
                row = nxt[t]
                ga, gb, gc, gd = mats[ai]
                ta, tb, tc, td = (
                    ta * ga + tb * gc,
                    ta * gb + tb * gd,
                    tc * ga + td * gc,
                    tc * gb + td * gd,
                )
        else:
            for k, ai in enumerate(seg, k + 1):
                ga, gb, gc, gd = mats[ai]
                # -- position update: walk the orbit table, or multiply and reduce
                if table is not None:
                    state, dc = moves[state][ai]
                    code += dc
                    it = 1  # one move, for the return tracking's slack
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
                        if it & unwind_mask == unwind_mask:
                            # deep cusp winding: unwind whole strip widths in one stroke
                            unw = system.fast_unwind(a, b, c, d)
                            if unw is not None:
                                a, b, c, d, kw_, ph = unw
                                code += kw_ * _pack(ph)
                                slack = -1
                                it += 1
                                continue
                        pa, pb, pc, pd = pmats[hit]
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
                        code -= pcodes[hit]
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

                if track_returns:
                    # the start tile is: sheet index zero AND base within the radius
                    # of the start; a return is re-entering it after having left
                    if code:
                        slack -= it * charge_max
                        if slack < 0:
                            exc = max(map(abs, _unpack(code, dim)))
                            if exc > max_exc:
                                max_exc = exc
                            slack = max_exc - exc
                        left_zero = True
                    else:
                        slack = max_exc
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
        k = stop

        # -- between segments
        if k & 63 == 0:
            mm = max(abs(ta), abs(tb), abs(tc), abs(td))
            if mm > 1.0:
                ta, tb, tc, td = ta / mm, tb / mm, tc / mm, td / mm
                tlog += math.log(mm)
        if k == next_cp:
            if tight:
                for t, m in enumerate(tcount):
                    if m:
                        code += m * dcodes[t]
                tcount = [0] * len(nxt)
                px, py = state_xy[row // n_letters]
            records.append(_checkpoint(
                system, traj, k, _unpack(code, dim), px, py,
                ta, tb, tc, td, tlog, geodesic, cfg.dt,
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

    idx = _unpack(code, dim)
    tt = n * cfg.dt if geodesic else max(n, 1)
    if n == 0:
        records = [
            CheckpointRecord(
                traj=traj,
                n=0.0 if geodesic else 0,
                index=idx,
                drift=tuple(0.0 for _ in idx),
                cusp_height=fuchsian.cusp_height(system.cusps, sx, sy),
                cartan_t=0.0,
            )
        ]
    summary = TrajectorySummary(
        traj=traj,
        steps=n,
        final_index=idx,
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
    idx: IntVec,
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
        index=idx,
        drift=tuple(v / tt for v in idx),
        cusp_height=fuchsian.cusp_height(system.cusps, px, py),
        cartan_t=cart,
    )


# The sheet index in Z^d is carried through a run as one Python int, the code
# sum(idx[j] * 2**(64 * j)), so a deck move charges it with one integer add.
# Decoding reads balanced base-2**64 digits, exact while every coordinate is
# below 2**63 in magnitude; a coordinate of 2**62 or more is refused.
_INDEX_LIMIT = 1 << 62


def _pack(index: IntVec) -> int:
    code = 0
    for v in reversed(index):
        code = (code << 64) + v
    return code


def _unpack(code: int, dim: int) -> IntVec:
    out = []
    for _ in range(dim - 1):
        v = code & 0xFFFFFFFFFFFFFFFF
        if v >= 1 << 63:
            v -= 1 << 64
        out.append(v)
        code = (code - v) >> 64
    out.append(code)
    if max(map(abs, out)) >= _INDEX_LIMIT:
        raise OverflowError(f"sheet index {out} is beyond +-2**62")
    return tuple(out)


def _base_xy(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    den = c * c + d * d
    return (a * c + b * d) / den, 1.0 / den


# ---------------------------------------------------------------------------
# multi-trajectory runners

def _run_block(
    system: CoverSystem,
    measure: MeasureSpec | None,
    cfg: WalkConfig,
    geodesic: bool,
    trajs: list[int],
) -> list[TrajectoryResult]:
    return [simulate_trajectory(system, measure, cfg, t, geodesic) for t in trajs]


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
    run_block = functools.partial(_run_block, system, measure, cfg, geodesic)
    if workers <= 1 or len(ids) <= 1:
        return run_block(ids)
    # imported here: one-worker runs need not load the multiprocessing stack
    from concurrent.futures import ProcessPoolExecutor

    blocks = [ids[i::workers] for i in range(workers)]
    out: dict[int, TrajectoryResult] = {}
    with ProcessPoolExecutor(max_workers=workers) as pool:
        for results in pool.map(run_block, blocks):
            for r in results:
                out[r.summary.traj] = r
    return [out[t] for t in ids]


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
