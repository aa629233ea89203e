"""The trajectory loop in Python: the fallback where the C kernel of
``segments`` cannot be built, and the reference it is tested against.

``_PySegments.run`` draws a Haar start with ``fuchsian.haar_sample`` and
``CoverSystem.start_point`` when it is given no start, and walks a
trajectory in one loop, as ``_segment.c``'s ``covwalk_trajectory`` does,
with the walk's state in its locals: an outer loop stops at each
checkpoint, each return grid point and each end of a block of letters, and
an inner loop takes the steps between them.
``segments.trajectory_loops`` imports this module only when the C kernel
does not load, so a run on the C kernel neither compiles nor imports it.
Its uniforms come from numpy's generator of ``walk.trajectory_rng``; the
letters are made from them by ``_draw_block``.
"""

from __future__ import annotations

import math
import operator
from typing import TYPE_CHECKING

import numpy as np

from . import fuchsian
from . import walk as walk_mod
from .segments import _cumulative_weights, base_xy

if TYPE_CHECKING:
    from .walk import MeasureSpec, _Run

# the uniforms drawn at once: a block is 4096 atom letters, or 1365
# parametric ones
_RNG_BLOCK = 4096

# A sheet index coordinate at or past this after a step is refused
# (OverflowError): the C kernel keeps the index in int64.
_INDEX_LIMIT = 1 << 62


class _PySegments:
    """One trajectory's loop, with the interface of ``segments._CTrajectory``.
    A position moves by its orbit table, or by a multiply and
    ``CoverSystem.reduce_raw`` with a tuple index."""

    def __init__(self, shared: _Run, traj: int):
        self.shared = shared
        self.rng = walk_mod.trajectory_rng(shared.cfg.master_seed, traj)
        self.random = self.rng.random

    def run(self, p0) -> tuple[tuple, list, list, list, tuple[int, ...]]:
        shared, rng, system = self.shared, self.rng, self.shared.system
        measure, letters, flow, cfg = (
            shared.measure, shared.letters, shared.geodesic, shared.cfg
        )
        checkpoints, grid, cusps = shared.checkpoints, shared.grid, system.cusps
        reduce = system.reduce_raw
        if p0 is None:
            p0 = system.start_point(fuchsian.haar_sample(
                system.polygon, cusps, system.pres, rng, shared.haar_parts
            ))
        cum = _cumulative_weights(measure) if letters and not flow else None
        mats = [g.as_tuple() for g in letters]
        # a flow's every letter is the flow step, letter 0
        block: list | range = [0] * _RNG_BLOCK if flow else []
        block_len = _RNG_BLOCK if letters else _RNG_BLOCK // 3
        moves = table_xy = None
        if shared.table is not None:
            moves = shared.table.moves
            table_xy = [base_xy(*r.rep.as_tuple()) for r in shared.table.reps]
        counts = [0] * len(letters) if cfg.count_atoms and cum is not None else None
        cosh_r = None if cfg.returns is None else math.cosh(cfg.returns.radius)

        a, b, c, d = p0.rep.rep.as_tuple()
        index, state = p0.index, 0
        px, py = sx, sy = base_xy(a, b, c, d)
        ta, tb, tc, td, tlog = 1.0, 0.0, 0.0, 1.0, 0.0  # flow runs keep no product
        left_zero, first_return, n_returns, max_exc = False, None, 0, 0
        cp_state: list[float] = []
        cp_index: list[int] = []
        at_grid: list[tuple[int | None, int, int]] = []
        # steps b0 + 1 .. bend take their letters from the current block
        k = b0 = bend = cp = gp = 0
        while True:
            if gp < len(grid) and grid[gp] == k:
                at_grid.append((first_return, n_returns, max_exc))
                gp += 1
            if checkpoints[cp] == k:
                cp_state += (fuchsian.cusp_height(cusps, px, py), ta, tb, tc, td, tlog)
                cp_index += index
                cp += 1
                if cp == len(checkpoints):  # the last checkpoint is the last step
                    break
            if k == bend:
                if cum is not None:
                    block = _draw_block(rng, measure, cum)
                elif not flow:
                    mats = _draw_block(rng, measure, None)
                    block = range(len(mats))
                b0, bend = k, k + block_len
            stop = min(bend, checkpoints[cp], grid[gp] if gp < len(grid) else bend)
            seg = block[k - b0:stop - b0]
            if counts is not None:
                for j in range(len(counts)):
                    counts[j] += seg.count(j)
            for k, ai in enumerate(seg, k + 1):
                ga, gb, gc, gd = mats[ai]
                if moves is not None:
                    state, dl = moves[state][ai]
                    index = tuple(map(operator.add, index, dl))
                    px, py = table_xy[state]
                else:
                    (a, b, c, d), index, _ = reduce((
                        a * ga + b * gc,
                        a * gb + b * gd,
                        c * ga + d * gc,
                        c * gb + d * gd,
                    ), index)
                    px, py = base_xy(a, b, c, d)
                exc = max(map(abs, index))
                if exc >= _INDEX_LIMIT:
                    raise OverflowError(f"step {k}: sheet index {index} is beyond +-2**62")
                if not flow:
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
                if cosh_r is not None:
                    # the start tile is: sheet index zero AND base within the
                    # radius of the start; a return is re-entering it after
                    # having left it
                    if exc:
                        if exc > max_exc:
                            max_exc = exc
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
                        elif not left_zero and not inside:
                            left_zero = True
        return (p0.rep.rep.as_tuple(), cp_state, cp_index, at_grid,
                () if counts is None else tuple(counts))


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
