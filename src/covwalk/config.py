"""Experiment configuration: INI-style files, canonical form, hashing.

A config has sections [lattice], [weights], [measure], [walk] and [analysis].
Parsing produces a typed bundle; the canonical serializer emits a normalized
text whose SHA-256 is the config hash, and round-trips byte-identically:
two configs get the same hash exactly when every semantic field agrees.

    [lattice]
    preset = gamma2              # or: file = path/to/lattice.txt
    # punctured_square_torus accepts l1 = ..., l2 = ...
    center = 0.0 1.0             # Dirichlet center for file lattices

    [weights]
    A = 1
    B = 0

    [measure]
    type = atoms                 # or: parametric
    atom.1 = A 0.5               # word then probability
    atom.2 = B 0.5
    tau_min = 0.5                # parametric only
    tau_max = 1.5

    [walk]
    mode = walk                  # or: geodesic
    steps = 10000                # >= 0; geodesic: number of dt-increments
    trajectories = 100           # >= 1
    seed = 1
    checkpoints = linear:1000    # or geometric:100:1.25 (n0 >= 1, ratio > 1)
    start = haar                 # or: special  (the upward tangent at i)
    dt = 0.25                    # geodesic only: 0 < dt <= 0.5
    return_radius = 2.0          # > 0; presence switches return tracking on
    return_grid = 10000 100000   # distinct, each in 1..steps

    [analysis]
    reports = drift cauchy

Any key not shown above, other than [weights] labels and atom.N, is refused.
"""

from __future__ import annotations

import configparser
import io
import math

# CPython's own SHA-256 (``_sha2`` from 3.12, ``_sha256`` before): hashlib
# would load OpenSSL's libcrypto, about 3 MB of mapped pages, for two digests
try:
    from _sha2 import sha256
except ImportError:
    try:
        from _sha256 import sha256
    except ImportError:
        from hashlib import sha256

from ._record import record
from . import hyp2
from . import fuchsian
from . import cover as cover_mod
from . import walk as walk_mod


class ConfigError(ValueError):
    def __init__(self, message: str, section: str = "", key: str = ""):
        where = f" [{section}] {key}".rstrip() if section else ""
        super().__init__(f"config error{where}: {message}")
        self.section = section
        self.key = key


_SECTIONS = ("lattice", "weights", "measure", "walk", "analysis")
# the Dirichlet center of a file lattice, in a run and in ``lattice check``
DEFAULT_CENTER = (0.0, 1.0)


@record
class ExperimentConfig:
    """Typed, validated experiment description (canonical field order)."""

    preset: str = ""
    lattice_file: str = ""
    l1: float | None = None
    l2: float | None = None
    center: tuple[float, float] = DEFAULT_CENTER
    weights: tuple[tuple[str, tuple[int, ...]], ...] = ()
    measure_type: str = "atoms"
    atoms: tuple[tuple[str, float], ...] = ()  # (word text, probability)
    tau_min: float = 0.5
    tau_max: float = 1.5
    mode: str = "walk"
    steps: int = 1000
    trajectories: int = 1
    seed: int = 0
    checkpoints: str = "linear:1000"
    start: str = "haar"
    dt: float = 0.25
    return_radius: float | None = None
    return_grid: tuple[int, ...] = ()
    reports: tuple[str, ...] = ()


def parse_config_text(text: str) -> ExperimentConfig:
    cp = configparser.ConfigParser(
        delimiters=("=",),
        comment_prefixes=("#",),
        inline_comment_prefixes=("#",),
        interpolation=None,
    )
    cp.optionxform = str  # generator labels are case-sensitive
    try:
        cp.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(str(exc)) from None
    for sec in cp.sections():
        if sec not in _SECTIONS:
            raise ConfigError(f"unknown section [{sec}]", sec)

    read: set[tuple[str, str]] = set()

    def get(sec: str, key: str, default=None):
        read.add((sec, key))
        if cp.has_option(sec, key):
            return cp.get(sec, key).strip()
        return default

    def number(sec: str, key: str, default, kind=float):
        """key's value converted by kind, or None when absent with no
        default; a value kind refuses is a ConfigError naming the key."""
        raw = get(sec, key, default)
        try:
            return None if raw is None else kind(raw)
        except ValueError:
            raise ConfigError(f"not a valid number: {raw!r}", sec, key) from None

    lat = "lattice"
    preset = get(lat, "preset", "") or ""
    lattice_file = get(lat, "file", "") or ""
    if bool(preset) == bool(lattice_file):
        raise ConfigError("give exactly one of 'preset' or 'file'", lat)
    l1 = number(lat, "l1", None)
    l2 = number(lat, "l2", None)
    center_raw = get(lat, "center")
    try:
        cx, cy = DEFAULT_CENTER if center_raw is None else map(float, center_raw.split())
    except ValueError:
        raise ConfigError("center needs two floats", lat, "center") from None

    weights: list[tuple[str, tuple[int, ...]]] = []
    if cp.has_section("weights"):
        for key, val in cp.items("weights"):
            try:
                weights.append((key, tuple(int(v) for v in val.split())))
            except ValueError:
                raise ConfigError("weights must be integers", "weights", key) from None
    weights.sort()

    mtype = get("measure", "type", "atoms")
    if mtype not in ("atoms", "parametric"):
        raise ConfigError(f"unknown measure type {mtype!r}", "measure", "type")
    atoms: list[tuple[str, float]] = []
    if cp.has_section("measure"):
        for key, val in cp.items("measure"):
            if key.startswith("atom."):
                parts = val.rsplit(None, 1)
                if len(parts) != 2:
                    raise ConfigError(
                        "atom needs 'word probability'", "measure", key
                    )
                try:
                    atoms.append((parts[0].strip(), float(parts[1])))
                except ValueError:
                    raise ConfigError("bad probability", "measure", key) from None
    tau_min = number("measure", "tau_min", "0.5")
    tau_max = number("measure", "tau_max", "1.5")

    wk = "walk"
    mode = get(wk, "mode", "walk")
    if mode not in ("walk", "geodesic"):
        raise ConfigError(f"unknown mode {mode!r}", wk, "mode")
    if mode == "walk" and mtype == "atoms" and not atoms:
        raise ConfigError("atoms measure needs atom.N entries", "measure")
    steps = number(wk, "steps", "1000", int)
    if steps < 0:
        raise ConfigError(f"steps must be >= 0, got {steps}", wk, "steps")
    trajectories = number(wk, "trajectories", "1", int)
    if trajectories < 1:
        raise ConfigError(
            f"trajectories must be >= 1, got {trajectories}", wk, "trajectories"
        )
    seed = number(wk, "seed", "0", int)
    if seed < 0:
        raise ConfigError(f"seed must be >= 0, got {seed}", wk, "seed")
    # kept as the parsed plan's text, so equal plans hash equal
    checkpoints = _checkpoint_text(
        _parse_checkpoints(get(wk, "checkpoints", "linear:1000"))
    )
    start = get(wk, "start", "haar")
    if start not in ("haar", "special"):
        raise ConfigError(f"unknown start mode {start!r}", wk, "start")
    dt = number(wk, "dt", "0.25")
    if mode == "geodesic" and not 0.0 < dt <= 0.5:
        # a longer flow step would move the point too far for a local reduction
        raise ConfigError(f"flow step dt must be in (0, 0.5], got {dt}", wk, "dt")
    return_radius = number(wk, "return_radius", None)
    if return_radius is not None and not return_radius > 0.0:
        raise ConfigError(f"must be > 0, got {return_radius}", wk, "return_radius")
    return_grid = number(wk, "return_grid", "", lambda v: tuple(map(int, v.split())))
    if not all(1 <= g <= steps for g in return_grid):
        raise ConfigError(
            f"entries must lie in 1..{steps}, got {return_grid}", wk, "return_grid"
        )
    if len(set(return_grid)) != len(return_grid):
        raise ConfigError(f"entries must differ, got {return_grid}", wk, "return_grid")

    reports = tuple((get("analysis", "reports", "") or "").split())
    normalized = [r for r in reports if r in ("cauchy", "gaussian")]
    if steps == 0 and normalized:
        # both divide the final index by the run's length
        raise ConfigError(
            f"{' and '.join(normalized)} need steps >= 1, got steps = 0",
            "analysis", "reports",
        )

    for sec in cp.sections():
        for key in cp.options(sec):
            listed = sec == "weights" or (sec == "measure" and key.startswith("atom."))
            if not listed and (sec, key) not in read:
                raise ConfigError("unknown key", sec, key)

    return ExperimentConfig(
        preset=preset,
        lattice_file=lattice_file,
        l1=l1,
        l2=l2,
        center=(cx, cy),
        weights=tuple(weights),
        measure_type=mtype,
        atoms=tuple(atoms),
        tau_min=tau_min,
        tau_max=tau_max,
        mode=mode,
        steps=steps,
        trajectories=trajectories,
        seed=seed,
        checkpoints=checkpoints,
        start=start,
        dt=dt,
        return_radius=return_radius,
        return_grid=return_grid,
        reports=reports,
    )


def _parse_checkpoints(text: str) -> walk_mod.CheckpointPlan:
    parts = text.split(":")
    try:
        if parts[0] == "linear" and len(parts) == 2:
            plan = walk_mod.CheckpointPlan(kind="linear", stride=int(parts[1]))
            if plan.stride >= 1:
                return plan
        elif parts[0] == "geometric" and len(parts) == 3:
            plan = walk_mod.CheckpointPlan(
                kind="geometric", n0=int(parts[1]), ratio=float(parts[2])
            )
            if plan.n0 >= 1 and plan.ratio > 1.0:
                return plan
    except ValueError:
        pass
    raise ConfigError(
        "checkpoints must be linear:STRIDE (STRIDE >= 1) or geometric:N0:RATIO"
        f" (N0 >= 1, RATIO > 1), got {text!r}",
        "walk",
        "checkpoints",
    )


def _checkpoint_text(plan: walk_mod.CheckpointPlan) -> str:
    if plan.kind == "linear":
        return f"linear:{plan.stride}"
    return f"geometric:{plan.n0}:{plan.ratio!r}"


def canonical_text(cfg: ExperimentConfig) -> str:
    """Normalized rendering: fixed section and key order, repr'd numbers.
    Hash two configs equal iff this text is byte-identical."""
    out = io.StringIO()
    out.write("[lattice]\n")
    if cfg.preset:
        out.write(f"preset = {cfg.preset}\n")
        if cfg.l1 is not None:
            out.write(f"l1 = {cfg.l1!r}\n")
        if cfg.l2 is not None:
            out.write(f"l2 = {cfg.l2!r}\n")
    else:
        out.write(f"file = {cfg.lattice_file}\n")
        out.write(f"center = {cfg.center[0]!r} {cfg.center[1]!r}\n")
    out.write("[weights]\n")
    for lab, vec in cfg.weights:
        out.write(f"{lab} = " + " ".join(str(v) for v in vec) + "\n")
    out.write("[measure]\n")
    out.write(f"type = {cfg.measure_type}\n")
    if cfg.measure_type == "atoms":
        for i, (word, p) in enumerate(cfg.atoms, 1):
            out.write(f"atom.{i} = {word} {p!r}\n")
    else:
        out.write(f"tau_min = {cfg.tau_min!r}\n")
        out.write(f"tau_max = {cfg.tau_max!r}\n")
    out.write("[walk]\n")
    out.write(f"mode = {cfg.mode}\n")
    out.write(f"steps = {cfg.steps}\n")
    out.write(f"trajectories = {cfg.trajectories}\n")
    out.write(f"seed = {cfg.seed}\n")
    out.write(f"checkpoints = {cfg.checkpoints}\n")
    out.write(f"start = {cfg.start}\n")
    if cfg.mode == "geodesic":
        out.write(f"dt = {cfg.dt!r}\n")
    if cfg.return_radius is not None:
        out.write(f"return_radius = {cfg.return_radius!r}\n")
        if cfg.return_grid:
            out.write("return_grid = " + " ".join(map(str, cfg.return_grid)) + "\n")
    out.write("[analysis]\n")
    if cfg.reports:
        out.write("reports = " + " ".join(cfg.reports) + "\n")
    return out.getvalue()


def config_hash(cfg: ExperimentConfig) -> str:
    return sha256(canonical_text(cfg).encode()).hexdigest()[:16]


# ---------------------------------------------------------------------------
# bundle assembly

@record
class Bundle:
    """Everything an experiment needs, built once from a config."""

    config: ExperimentConfig
    pres: fuchsian.LatticePresentation
    polygon: fuchsian.FundamentalPolygon
    cusps: tuple[fuchsian.CuspData, ...]
    spec: cover_mod.CoverSpec
    system: cover_mod.CoverSystem
    measure: walk_mod.MeasureSpec | None


def load_lattice(
    preset: str,
    lattice_file: str,
    center: tuple[float, float],
    l1: float | None = None,
    l2: float | None = None,
) -> tuple[
    fuchsian.LatticePresentation,
    fuchsian.FundamentalPolygon,
    tuple[fuchsian.CuspData, ...],
    dict[str, tuple[int, ...]] | None,
]:
    """The preset lattice ``preset`` (with lengths l1, l2), or else the one in
    ``lattice_file`` with its Dirichlet domain about ``center``, certified at
    the first word bound that passes; last come the file's weights (None
    for a preset)."""
    if preset:
        pres, polygon, cusps = fuchsian.builtin_lattice(preset, l1=l1, l2=l2)
        return pres, polygon, cusps, None
    with open(lattice_file, "r", encoding="utf-8") as fh:
        pres, file_weights = fuchsian.parse_lattice_text(fh.read())
    pres.validate()
    polygon, cusps = fuchsian.dirichlet_domain(pres, hyp2.PointH(*center))
    return pres, polygon, cusps, file_weights


def build_bundle(cfg: ExperimentConfig) -> Bundle:
    pres, polygon, cusps, file_weights = load_lattice(
        cfg.preset, cfg.lattice_file, cfg.center, cfg.l1, cfg.l2
    )
    weights = dict(cfg.weights) if cfg.weights else (file_weights or {})
    if not weights:
        raise ConfigError("no weights given (config [weights] or lattice file)")
    spec = cover_mod.validate_cover(pres, cusps, weights)
    system = cover_mod.cover_system(pres, polygon, cusps, spec)
    measure = build_measure(cfg, pres)
    return Bundle(
        config=cfg,
        pres=pres,
        polygon=polygon,
        cusps=cusps,
        spec=spec,
        system=system,
        measure=measure,
    )


def build_measure(
    cfg: ExperimentConfig, pres: fuchsian.LatticePresentation
) -> walk_mod.MeasureSpec | None:
    if cfg.mode == "geodesic":
        return None
    if cfg.measure_type == "parametric":
        return walk_mod.parametric_measure(cfg.tau_min, cfg.tau_max)
    gens = pres.gen_map()
    atoms = []
    for word_text, p in cfg.atoms:
        word = fuchsian.parse_word(word_text)
        try:
            atoms.append((fuchsian.evaluate_word(gens, word), p))
        except KeyError as exc:
            raise ConfigError(f"unknown generator {exc} in atom word") from None
    try:
        return walk_mod.measure_from_atoms(atoms)
    except ValueError as exc:
        raise ConfigError(str(exc), "measure") from None


def walk_config(cfg: ExperimentConfig) -> walk_mod.WalkConfig:
    plan = _parse_checkpoints(cfg.checkpoints)
    if cfg.start == "special":
        start = walk_mod.StartSpec(mode="fixed", tangent=hyp2.BASE_TANGENT)
    else:
        start = walk_mod.StartSpec(mode="haar")
    returns = None
    if cfg.return_radius is not None:
        returns = walk_mod.ReturnSpec(
            radius=cfg.return_radius, grid=tuple(cfg.return_grid)
        )
    return walk_mod.WalkConfig(
        steps=cfg.steps,
        trajectories=cfg.trajectories,
        master_seed=cfg.seed,
        checkpoints=plan,
        start=start,
        dt=cfg.dt,
        returns=returns,
    )
