"""The trajectory engine's inner loop, in C and in Python.

``walk.simulate_trajectory`` takes a trajectory's loop from
``trajectory_loops`` and calls its ``run`` with the run's reduced fixed
start, or with None where the run has Haar starts: the loop then draws a
Haar start from its own uniform stream, as ``fuchsian.haar_sample`` does,
and reduces it as ``CoverSystem.start_point`` does.  ``run`` walks every
step and returns the reduced start, the state at each checkpoint and the
return counts at each grid point.  Both kernels run a trajectory in one
function whose locals hold the walk's state: an outer loop stops at each of
the run's checkpoints and return grid points (``walk._Run.checkpoints`` and
``.grid``, each ascending, the last checkpoint being the last step) and at
each end of a block of uniforms, and an inner loop takes the steps between
them.  The two kernels give the same output bits, each step reading the
same uniforms of the stream:

- The C kernel (``_segment.c``, one ``covwalk_trajectory`` call through
  ``ctypes`` per trajectory, which releases the GIL for the call) draws and
  reduces a Haar start and does every step: the Philox draws, the letter
  (a parametric block's letters are built when its uniforms are drawn),
  the table move or the multiply, greedy descent,
  ``CoverSystem.fast_unwind`` at ``cover.UNWIND_MASK`` and determinant
  renormalization exactly as ``CoverSystem.reduce_raw`` does them, the
  int64 sheet index, the running Cartan product with its renormalization
  every 64 steps, the atom counts and return tracking, and
  ``fuchsian.cusp_height`` at each checkpoint.  Its uniform stream is
  Philox4x64-10 keyed by SeedSequence([seed, traj]), drawn in C bit for bit
  as numpy's ``walk.trajectory_rng`` draws it, so a run imports no numpy.
  It draws each block of uniforms only as far as the trajectory's last
  step, so nothing past the last step is drawn.
- The Python kernel (``_pykernel._PySegments``) draws a Haar start with
  ``fuchsian.haar_sample`` and ``CoverSystem.start_point`` and does the
  same steps through ``CoverSystem.reduce_raw`` with a tuple index, on the
  numpy generator of ``walk.trajectory_rng``.  It is the reference the C
  kernel is tested against, and the fallback.  It holds the GIL, so the
  threads of a run take turns on it.  ``trajectory_loops`` imports it only
  when the C kernel does not load, and with it numpy.

A letter comes from the uniforms as ``_pykernel._draw_block`` makes it: an
atom per uniform, the first whose cumulative weight is >= u, or a parametric
increment per three uniforms (the block's last uniform is not used).  The C
kernel takes that atom as the count of cumulative weights below u, with no
branch to mispredict; ``_cumulative_weights`` never decrease, zero-weight
atoms included, so the weights below u are the ones before the first >= u,
and the count is the index numpy's ``searchsorted(side="left")`` gives.  A
sheet index coordinate at or past 2**62 after a step is refused with
``OverflowError`` on both kernels.

``load_kernel`` builds the C kernel on first use: ``trajectory_loops`` calls
it when a run starts, before ``walk.run_trajectories`` starts any thread, so
the threads of a run read a kernel that is already loaded.  Nothing is
built or loaded when the module is imported, and ``walk`` imports this
module only when a run starts.  The build runs ``cc`` with
``_KERNEL_FLAGS`` and caches the library in ``__pycache__`` next to the
source, under a name that carries a hash of the source, the flags and the
machine; where that directory is not writable, the library is built in a
per-process temporary directory.  When no library can be built the Python
kernel runs, and ``summary.json`` says which kernel ran
(``engine.kernel``).
"""

from __future__ import annotations

import ctypes
import functools
import itertools
import math
import os
import tempfile
from typing import TYPE_CHECKING

from . import cover as cover_mod
from . import fuchsian

if TYPE_CHECKING:
    from .walk import MeasureSpec, _Run


def trajectory_loops(run: _Run):
    """The trajectory loops of the run ``run`` (``walk._Run``): on the C
    kernel when it loads, else in Python.  The loops read the run's system,
    measure, config, step letters (the flow step, the atoms, or none for a
    parametric measure), orbit table or None, and its checkpoint and return
    grid steps, each ascending, and for Haar starts its ``haar_parts``.
    Returns ``loop``: ``loop(traj)`` is trajectory traj's loop, keyed by
    ``cfg.master_seed`` and traj.  Its ``random()`` draws one uniform of the
    stream (the tests' probe of it), and ``run(p0)`` walks from the reduced
    start p0, or from a Haar start it draws when p0 is None, and returns
    (start, state, index, returns, counts): the reduced start's entries
    (a, b, c, d); the list of (cusp height, ta, tb, tc, td, tlog) laid end
    to end over the checkpoints, where the Cartan product is (ta, tb, tc, td)
    times e^tlog; the list of the checkpoints' sheet indices laid end to
    end; per grid point (first return or None, returns, maximum excursion);
    and the atom counts.

    The C kernel's constant arrays (the cover, the letters and cumulative
    weights, the Haar sectors and core, the orbit table, the stops) are
    built here, once per run, and
    only read after.  Each loop owns its state, so the loops of a run may
    run in threads at once."""
    if load_kernel() == "c":
        return functools.partial(_CTrajectory, _CShared(run))
    from ._pykernel import _PySegments

    return functools.partial(_PySegments, run)


_F64, _I64, _U64 = ctypes.c_double, ctypes.c_int64, ctypes.c_uint64
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
        + _fields(_F64, "cosh_r")
        + _fields(_I64, "haar n_sectors max_proposals")
        + _fields(_PF64, "sectors")
        + _fields(_F64, "area core_height core_x_min core_x_max core_inv_lo"
                        " core_inv_hi a b c d px py")
        + _fields(_PI64, "index counts")
        + _fields(_I64, "fail_step")
        + _fields(_PI64, "checkpoints")
        + _fields(_I64, "n_checkpoints")
        + _fields(_PI64, "grid")
        + _fields(_I64, "n_grid")
        + _fields(_PF64, "cp_state")
        + _fields(_PI64, "cp_index grid_returns")
        + [("ctr", _U64 * 4), ("key", _U64 * 2), ("buffer", _U64 * 4)]
        + _fields(_I64, "buffer_pos")
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
_ERR_HAAR = 6  # the Haar core accepted none of its proposals


def _array(ctype, rows) -> ctypes.Array:
    """The rows laid end to end in a C array of ctype."""
    flat = [v for row in rows for v in row]
    return (ctype * len(flat))(*flat)


def _seed_words(*values: int) -> list[int]:
    """The 32-bit words SeedSequence(values) mixes: each value's words, least
    significant first, and [0] for a zero, as numpy's
    ``_int_to_uint32_array`` splits them."""
    words = []
    for v in values:
        if v < 0:
            raise ValueError("expected non-negative integer")
        words.append(v & 0xFFFFFFFF)
        v >>= 32
        while v:
            words.append(v & 0xFFFFFFFF)
            v >>= 32
    return words


class _CShared:
    """What the compiled trajectory loops of one run share: ``walk``, a
    ``_Walk`` that holds the run's constants (the cover, the letters, the
    Haar sectors and core with ``fuchsian.HAAR_MAX_PROPOSALS`` as it reads
    now, the orbit table, the return radius, the stops).  The arrays it
    points at live as long as it does; the kernel only reads them."""

    def __init__(self, run: _Run):
        system, cfg, letters = run.system, run.cfg, run.letters
        self.master_seed = cfg.master_seed
        w = self.walk = _Walk()
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
        if run.geodesic:
            w.letters = _LETTERS_FLOW
        elif letters:
            w.letters = _LETTERS_ATOMS
            w.cum = _array(_F64, [_cumulative_weights(run.measure)])
        else:
            w.letters = _LETTERS_PARAMETRIC
            w.tau_min = run.measure.tau_min
            w.tau_span = run.measure.tau_max - run.measure.tau_min
        w.n_letters = len(letters)
        w.mats = _array(_F64, [g.as_tuple() for g in letters])
        w.cartan = not run.geodesic
        if run.table is not None:
            moves = [move for out in run.table.moves for move in out]
            w.table_next = _array(_I64, [[s for s, _ in moves]])
            w.table_delta = _array(_I64, [dl for _, dl in moves])
            w.table_xy = _array(
                _F64, [base_xy(*r.rep.as_tuple()) for r in run.table.reps]
            )
        if cfg.returns is not None:
            w.returns = 1
            w.cosh_r = math.cosh(cfg.returns.radius)
        if run.haar_parts is not None:
            sectors, self.core = run.haar_parts
            w.n_sectors = len(sectors)
            w.max_proposals = fuchsian.HAAR_MAX_PROPOSALS
            w.sectors = _array(_F64, [
                (s.area, s.width, math.exp(s.height),
                 *system.cusps[s.cusp_index].normalizer.as_tuple())
                for s in sectors
            ])
            w.area = system.polygon.area
            w.core_height = self.core.height
            w.core_x_min, w.core_x_max = self.core.x_min, self.core.x_max
            w.core_inv_lo = 1.0 / self.core.y_min
            w.core_inv_hi = 1.0 / self.core.y_max
        w.checkpoints = _array(_I64, [run.checkpoints])
        w.n_checkpoints = len(run.checkpoints)
        w.grid = _array(_I64, [run.grid])
        w.n_grid = len(run.grid)
        counted = cfg.count_atoms and w.letters == _LETTERS_ATOMS
        self.n_counts = len(letters) if counted else 0


class _CTrajectory:
    """One trajectory on the compiled kernel: its start, its outputs and its
    Philox stream live in ``w``, a copy of the run's ``_CShared.walk``.
    ``run`` is one ``covwalk_trajectory`` call, Haar start included, for
    which ``ctypes`` releases the GIL; the seeding and ``random`` are short
    calls that keep it."""

    def __init__(self, shared: _CShared, traj: int):
        self.shared = shared  # keeps the arrays the copy points at alive
        self.traj = traj
        w = self.w = _Walk.from_buffer_copy(shared.walk)
        self.ref = ctypes.byref(w)
        words = _seed_words(shared.master_seed, traj)
        _kernel.covwalk_seed(
            self.ref, (ctypes.c_uint32 * len(words))(*words), len(words)
        )

    def random(self) -> float:
        return _kernel.covwalk_random(self.ref)

    def run(self, p0) -> tuple[tuple, list, list, list, tuple[int, ...]]:
        shared, w = self.shared, self.w
        n_cp = w.n_checkpoints
        # w keeps the arrays it points at alive
        w.haar = p0 is None
        if p0 is None:  # the kernel draws the start and writes it here
            w.index = (_I64 * w.dim)()
        else:
            w.a, w.b, w.c, w.d = p0.rep.rep.as_tuple()
            w.px, w.py = base_xy(w.a, w.b, w.c, w.d)
            w.index = _array(_I64, [p0.index])
        counts = None
        if shared.n_counts:  # NULL otherwise: the kernel counts no atoms
            w.counts = counts = (_I64 * shared.n_counts)()
        w.cp_state = cp_state = (_F64 * (6 * n_cp))()
        w.cp_index = cp_index = (_I64 * (w.dim * n_cp))()
        w.grid_returns = grid = (_I64 * (3 * w.n_grid))()
        code = _kernel.covwalk_trajectory(self.ref)
        if code == _ERR_HAAR:
            raise fuchsian.haar_refusal(w.max_proposals, shared.core)
        if code:
            exc, what = _KERNEL_ERRORS[code]
            raise exc(f"trajectory {self.traj} step {w.fail_step}: {what}")
        g = grid[:]
        at_grid = [
            (None if g[i] < 0 else g[i], g[i + 1], g[i + 2])
            for i in range(0, len(g), 3)
        ]
        return ((w.a, w.b, w.c, w.d), cp_state[:], cp_index[:], at_grid,
                () if counts is None else tuple(counts))


_KERNEL_SOURCE = os.path.join(
    os.path.dirname(os.path.abspath(__file__)), "_segment.c"
)
# -fno-builtin keeps the libm calls _segment.c makes as it makes them (see
# its header)
_KERNEL_FLAGS = ("-O2", "-fPIC", "-shared", "-ffp-contract=off", "-fno-builtin")
_BUILD_TIMEOUT_S = 120

# the loaded kernel library; False once it could not be built, None before
# the first try
_kernel = None


def load_kernel() -> str:
    """Load the compiled segment kernel, building it on first use.  Returns
    "c", or "python" when it cannot be built and the Python trajectory loop
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
    key = _kernel_key()
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


def _kernel_key() -> str:
    """The kernel's cache key: a hash of the source, the flags and the
    machine."""
    from .config import sha256  # the interpreter's own, without OpenSSL

    with open(_KERNEL_SOURCE, "rb") as fh:
        source = fh.read()
    return sha256(b"\0".join(
        [source, " ".join(_KERNEL_FLAGS).encode(), os.uname().machine.encode()]
    )).hexdigest()[:24]


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
        trajectory = lib.covwalk_trajectory
        # the short calls keep the GIL: a release per call would let the
        # threads of a run switch at each one
        held = ctypes.PyDLL(path)
        lib.covwalk_seed, lib.covwalk_random = held.covwalk_seed, held.covwalk_random
    except (OSError, AttributeError):
        return None
    walk_p = ctypes.POINTER(_Walk)
    trajectory.argtypes = [walk_p]
    trajectory.restype = ctypes.c_int
    lib.covwalk_seed.argtypes = [walk_p, ctypes.POINTER(ctypes.c_uint32), _I64]
    lib.covwalk_seed.restype = None
    lib.covwalk_random.argtypes = [walk_p]
    lib.covwalk_random.restype = _F64
    return lib


def _cumulative_weights(measure: MeasureSpec) -> list[float]:
    """Running sums of the atom weights, capped at 1.0 and ending at 1.0.

    ``measure_from_atoms`` lets the weights sum to 1 within 1e-12; with the
    last sum pinned, a uniform in [0, 1) cannot fall past the last atom, and
    every uniform the plain running sums place lands on the same atom."""
    cum = [min(v, 1.0) for v in itertools.accumulate(p for _, p in measure.atoms)]
    cum[-1] = 1.0
    return cum


def base_xy(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    den = c * c + d * d
    return (a * c + b * d) / den, 1.0 / den
