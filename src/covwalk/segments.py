"""The trajectory engine's segment loop, in C and in Python.

``walk.simulate_trajectory`` advances a run in segments, which end at
checkpoints, at return grid points and at the end of a block of uniforms.
Python does what lies between segments: the Philox draws
(``rng.random(_RNG_BLOCK)``), the checkpoint records and the return counts
at grid points.  It also does what lies before the first: Haar sampling,
``CoverSystem.start_point`` and the orbit table.  A segment itself runs in
one of two kernels with the same output bits, behind ``segment_loop``:

- The C kernel (``_segment.c``, called through ``ctypes`` once per segment)
  does every step: the letter, the table move or the multiply, greedy
  descent, ``CoverSystem.fast_unwind`` at ``cover.UNWIND_MASK`` and
  determinant renormalization exactly as ``CoverSystem.reduce_raw`` does
  them, the int64 sheet index, the running Cartan product with its
  renormalization every 64 steps, the atom counts and return tracking.
- The Python kernel (``_PySegments``) does the same steps through
  ``CoverSystem.reduce_raw`` with a tuple index.  It is the reference the C
  kernel is tested against, and the fallback.

A letter comes from the uniforms as ``_draw_block`` makes it: an atom per
uniform, the first whose cumulative weight is >= u, or a parametric
increment per three uniforms (the block's last uniform is not used).  A
sheet index coordinate at or past 2**62 after a step is refused with
``OverflowError`` on both kernels.

``load_kernel`` builds the C kernel on first use: ``walk.run_trajectories``
calls it before any worker process is forked, and ``segment_loop`` on a
trajectory run without it.  Nothing is built or loaded when the module is
imported, and ``walk`` imports this module only when a run starts.  The
build runs ``cc`` with ``_KERNEL_FLAGS`` and caches the library in
``__pycache__`` next to the source, under a name that carries a hash of the
source, the flags and the machine; where that directory is not writable,
the library is built in a per-process temporary directory.  When no library
can be built the Python kernel runs, and ``summary.json`` says which kernel
ran (``engine.kernel``).
"""

from __future__ import annotations

import ctypes
import hashlib
import itertools
import math
import operator
import os
import platform
import tempfile
from typing import TYPE_CHECKING

import numpy as np

from . import cover as cover_mod
from . import fuchsian

if TYPE_CHECKING:
    from .walk import MeasureSpec

_RNG_BLOCK = 4096


def segment_loop(system, measure, cfg, geodesic, letters, table, p0, traj):
    """The segment loop of one trajectory from the reduced start p0: on the
    C kernel when it loads, else in Python.  ``letters`` are the step
    letters (the flow step, the atoms, or none for a parametric measure) and
    ``table`` the orbit table they walk, or None.  The loop draws its blocks
    with ``refill(rng)``, each of ``block_len`` steps, advances with
    ``run(j0, k0, k1)`` over steps k0 + 1 .. k1 from letter j0 of the block,
    and reports ``position()``, ``returns()`` and ``counts()``."""
    kernel = _CSegments if load_kernel() == "c" else _PySegments
    return kernel(system, measure, cfg, geodesic, letters, table, p0, traj)


# A sheet index coordinate at or past this after a step is refused
# (OverflowError): the C kernel keeps the index in int64.
_INDEX_LIMIT = 1 << 62


class _PySegments:
    """The segment loop in Python: the fallback where the C kernel cannot be
    built, and the reference the kernel is tested against.  A position moves
    by its orbit table, or by a multiply and ``CoverSystem.reduce_raw`` with
    a tuple index.  ``run`` holds the state in locals over a segment."""

    def __init__(self, system, measure, cfg, geodesic, letters, table, p0, traj):
        self.block_len = _RNG_BLOCK if letters else _RNG_BLOCK // 3
        self.reduce = system.reduce_raw
        self.measure = measure
        self.flow = geodesic
        self.cum = _cumulative_weights(measure) if letters and not geodesic else None
        self.mats = [g.as_tuple() for g in letters]
        self.block: list | range = [0] * _RNG_BLOCK if geodesic else []
        self.moves = None if table is None else table.moves
        self.table_xy = None if table is None else [
            base_xy(*r.rep.as_tuple()) for r in table.reps
        ]
        self.m = p0.rep.rep.as_tuple()
        self.index = p0.index
        self.state = 0
        self.xy = self.start_xy = base_xy(*self.m)
        self.cartan = (1.0, 0.0, 0.0, 1.0, 0.0)  # flow runs keep no product
        self.atom_counts = [0] * len(letters) if cfg.count_atoms and self.cum else None
        self.cosh_r = None if cfg.returns is None else math.cosh(cfg.returns.radius)
        self.ret = (False, None, 0, 0)  # left_zero, first_return, n_returns, max_exc

    def refill(self, rng: np.random.Generator) -> None:
        if self.flow:
            return  # every letter is the flow step, letter 0
        if self.cum is not None:
            self.block = _draw_block(rng, self.measure, self.cum)
        else:
            self.mats = _draw_block(rng, self.measure, None)
            self.block = range(len(self.mats))

    def run(self, j0: int, k0: int, k1: int) -> None:
        seg = self.block[j0:j0 + k1 - k0]
        if self.atom_counts is not None:
            for j in range(len(self.atom_counts)):
                self.atom_counts[j] += seg.count(j)
        mats, moves, table_xy = self.mats, self.moves, self.table_xy
        reduce = self.reduce
        a, b, c, d = self.m
        px, py = self.xy
        index, state = self.index, self.state
        flow = self.flow
        ta, tb, tc, td, tlog = self.cartan
        cosh_r = self.cosh_r
        sx, sy = self.start_xy
        left_zero, first_return, n_returns, max_exc = self.ret
        for k, ai in enumerate(seg, k0 + 1):
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
        self.m, self.xy, self.index, self.state = (a, b, c, d), (px, py), index, state
        self.cartan = (ta, tb, tc, td, tlog)
        self.ret = (left_zero, first_return, n_returns, max_exc)

    def position(self) -> tuple:
        """(index, px, py, ta, tb, tc, td, tlog) after the last step."""
        return (self.index, *self.xy, *self.cartan)

    def returns(self) -> tuple[int | None, int, int]:
        """(first return, number of returns, maximum excursion) so far."""
        return self.ret[1:]

    def counts(self) -> tuple[int, ...]:
        return () if self.atom_counts is None else tuple(self.atom_counts)


# ---------------------------------------------------------------------------
# the compiled segment kernel

_F64, _I64 = ctypes.c_double, ctypes.c_int64
_PF64, _PI64 = ctypes.POINTER(_F64), ctypes.POINTER(_I64)


def _fields(ctype, names: str) -> list[tuple[str, type]]:
    return [(name, ctype) for name in names.split()]


class _Walk(ctypes.Structure):
    """``walk_t`` of _segment.c, field for field."""

    _fields_ = (
        _fields(_I64, "dim n_sides n_corners unwind_mask max_iter")
        + _fields(_F64, "eps")
        + _fields(_PF64, "planes pair_mats")
        + _fields(_PI64, "pair_phis")
        + _fields(_PF64, "corner_mats corner_inv_mats corner_widths")
        + _fields(_PI64, "corner_phis")
        + _fields(_I64, "letters n_letters")
        + _fields(_PF64, "cum mats")
        + _fields(_F64, "tau_min tau_span")
        + _fields(_I64, "cartan")
        + _fields(_PI64, "table_next table_delta")
        + _fields(_PF64, "table_xy")
        + _fields(_I64, "returns")
        + _fields(_F64, "sx sy cosh_r a b c d px py ta tb tc td tlog")
        + _fields(_I64, "state")
        + _fields(_PI64, "index counts")
        + _fields(_I64, "left_zero first_return n_returns max_exc fail_step")
    )


_LETTERS_ATOMS, _LETTERS_PARAMETRIC, _LETTERS_FLOW = 0, 1, 2

# the kernel's return codes, by number: the exception and what happened
_KERNEL_ERRORS = {
    1: (OverflowError, "a sheet index coordinate reached 2**62"),
    2: (fuchsian.NonTerminationError, "reduction did not terminate"),
    3: (ZeroDivisionError, "float division by zero"),
    4: (ValueError, "math domain error"),
    5: (OverflowError, "float overflow"),
}


def _array(ctype, rows) -> ctypes.Array:
    """The rows laid end to end in a C array of ctype."""
    flat = [v for row in rows for v in row]
    return (ctype * len(flat))(*flat)


class _CSegments:
    """The segment loop in the compiled kernel: one ``covwalk_segment`` call
    per segment on a ``_Walk`` that holds the trajectory's state."""

    def __init__(self, system, measure, cfg, geodesic, letters, table, p0, traj):
        self.block_len = _RNG_BLOCK if letters else _RNG_BLOCK // 3
        self.traj = traj
        self.flow = geodesic
        self.u_ptr = None
        w = self.w = _Walk()
        w.dim = system.d
        w.n_sides = len(system.planes)
        w.n_corners = len(system.corner_mats)
        w.unwind_mask = cover_mod.UNWIND_MASK
        w.max_iter = fuchsian.MAX_REDUCE_ITER
        w.eps = fuchsian.EPS_GEOM
        w.planes = _array(_F64, system.planes)
        w.pair_mats = _array(_F64, system.pair_mats)
        w.pair_phis = _array(_I64, system.pair_phis)
        w.corner_mats = _array(_F64, system.corner_mats)
        w.corner_inv_mats = _array(_F64, system.corner_inv_mats)
        w.corner_widths = _array(_F64, [system.corner_widths])
        w.corner_phis = _array(_I64, system.corner_signed_phi)
        if geodesic:
            w.letters = _LETTERS_FLOW
        elif letters:
            w.letters = _LETTERS_ATOMS
            w.cum = _array(_F64, [_cumulative_weights(measure)])
        else:
            w.letters = _LETTERS_PARAMETRIC
            w.tau_min = measure.tau_min
            w.tau_span = measure.tau_max - measure.tau_min
        w.n_letters = len(letters)
        w.mats = _array(_F64, [g.as_tuple() for g in letters])
        w.cartan = not geodesic
        if table is not None:
            moves = [move for out in table.moves for move in out]
            w.table_next = _array(_I64, [[s for s, _ in moves]])
            w.table_delta = _array(_I64, [dl for _, dl in moves])
            w.table_xy = _array(
                _F64, [base_xy(*r.rep.as_tuple()) for r in table.reps]
            )
        if cfg.returns is not None:
            w.returns = 1
            w.cosh_r = math.cosh(cfg.returns.radius)
        w.a, w.b, w.c, w.d = p0.rep.rep.as_tuple()
        w.px, w.py = w.sx, w.sy = base_xy(w.a, w.b, w.c, w.d)
        w.ta = w.td = 1.0
        w.index = self.index = _array(_I64, [p0.index])
        self.atom_counts = None
        if cfg.count_atoms and w.letters == _LETTERS_ATOMS:
            w.counts = self.atom_counts = (_I64 * len(letters))()
        w.first_return = -1
        self.ref = ctypes.byref(w)
        self.segment = _kernel.covwalk_segment

    def refill(self, rng: np.random.Generator) -> None:
        if not self.flow:
            # kept referenced while the kernel reads it
            self.u = np.ascontiguousarray(rng.random(_RNG_BLOCK), np.float64)
            self.u_ptr = self.u.ctypes.data

    def run(self, j0: int, k0: int, k1: int) -> None:
        code = self.segment(self.ref, self.u_ptr, j0, k0, k1)
        if code:
            exc, what = _KERNEL_ERRORS[code]
            raise exc(f"trajectory {self.traj} step {self.w.fail_step}: {what}")

    def position(self) -> tuple:
        w = self.w
        return (tuple(self.index), w.px, w.py, w.ta, w.tb, w.tc, w.td, w.tlog)

    def returns(self) -> tuple[int | None, int, int]:
        w = self.w
        first = w.first_return
        return (None if first < 0 else first, w.n_returns, w.max_exc)

    def counts(self) -> tuple[int, ...]:
        return () if self.atom_counts is None else tuple(self.atom_counts)


_KERNEL_SOURCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "_segment.c"
)
# -fno-builtin keeps libm's cos, sin, exp, log, pow and floor (see _segment.c)
_KERNEL_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-builtin")
_BUILD_TIMEOUT_S = 120

# the loaded kernel library; False once it could not be built, None before
# the first try
_kernel = None


def load_kernel() -> str:
    """Load the compiled segment kernel, building it on first use.  Returns
    "c", or "python" when it cannot be built and the Python segment loop
    runs instead.  The build is cached in ``__pycache__`` next to the
    source, or, where that is not writable, made in a per-process temporary
    directory that is removed once the library is loaded."""
    global _kernel
    if _kernel is None:
        try:
            here = os.path.dirname(_KERNEL_SOURCE)
            lib = _load_library(os.path.join(here, "__pycache__"))
        except OSError:
            try:
                with tempfile.TemporaryDirectory(prefix="covwalk-") as tmp:
                    lib = _load_library(tmp)
            except OSError:
                lib = None
        _kernel = lib or False
    return "c" if _kernel else "python"


def _load_library(cache_dir: str) -> ctypes.CDLL | None:
    """The kernel from ``cache_dir``, compiled into it first when it is not
    there.  The file name carries a hash of the source, the flags and the
    machine, and the library must return that key, so no build of another
    source is ever loaded.  A build is written to a temporary file, loaded
    from there and moved into place with ``os.replace``, so processes that
    build at once each load a whole file.  Returns None when the compiler
    fails; raises OSError when ``cache_dir`` cannot be written."""
    with open(_KERNEL_SOURCE, "rb") as fh:
        source = fh.read()
    key = hashlib.sha256(b"\0".join(
        [source, " ".join(_KERNEL_FLAGS).encode(), platform.machine().encode()]
    )).hexdigest()[:24]
    path = os.path.join(cache_dir, f"_segment-{key}.so")
    if os.path.exists(path):
        lib = _open_library(path, key)
        if lib is not None:
            return lib
    import subprocess  # only a build needs it

    os.makedirs(cache_dir, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        prefix=f"_segment-{key}.", suffix=".tmp", dir=cache_dir
    )
    os.close(fd)
    try:
        cmd = ["cc", *_KERNEL_FLAGS, f'-DCOVWALK_KERNEL_KEY="{key}"',
               "-o", tmp, _KERNEL_SOURCE, "-lm"]
        try:
            built = subprocess.run(
                cmd, capture_output=True, timeout=_BUILD_TIMEOUT_S
            ).returncode == 0
        except (OSError, subprocess.SubprocessError):
            built = False
        lib = _open_library(tmp, key) if built else None
        if lib is not None:
            os.replace(tmp, path)
        return lib
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _open_library(path: str, key: str) -> ctypes.CDLL | None:
    """The library at path, or None unless it is the kernel built as key
    with the struct layout of ``_Walk``."""
    try:
        lib = ctypes.CDLL(path)
        lib.covwalk_kernel_key.restype = ctypes.c_char_p
        lib.covwalk_walk_size.restype = _I64
        if (lib.covwalk_kernel_key() != key.encode()
                or lib.covwalk_walk_size() != ctypes.sizeof(_Walk)):
            return None
        segment = lib.covwalk_segment
    except (OSError, AttributeError):
        return None
    segment.argtypes = [ctypes.POINTER(_Walk), ctypes.c_void_p, _I64, _I64, _I64]
    segment.restype = ctypes.c_int
    return lib


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


def base_xy(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    den = c * c + d * d
    return (a * c + b * d) / den, 1.0 / den
