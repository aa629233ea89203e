"""Command-line experiment runner.

Every command is a load, which reads and checks its inputs, and a run, which
does the rest.  Only ``main`` maps what they raise to exit codes: 0 success,
2 (``error: ...``) for ``CONFIG_ERRORS`` from a load, 3 (``runtime error:
...``) for ``RUNTIME_ERRORS`` from a run.  All files are written atomically
(temp file + rename) so interrupted runs never leave half-written artifacts.

The commands that run trajectories (``walk run``, ``geodesic run``,
``recurrence``) are here; ``lattice check``, ``lyapunov``, ``fit`` and
``report`` are in ``tools``, which is imported only when one of them is asked
for, so a run does not compile them.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import sys
import tempfile

from . import __version__
from . import config as config_mod
from . import fuchsian
from . import hyp2
from . import segments
from . import stats as stats_mod
from . import walk as walk_mod

# A load exits 2 on a config, lattice, cover or sample file that cannot be
# read or built (ConfigError, the lattice-file and presentation errors and
# the cover errors are ValueErrors), and a run exits 3 when it fails (a
# too-small sample for a fit is a ValueError, as is a math domain error, and
# an output that cannot be written is an OSError).
CONFIG_ERRORS = (OSError, ValueError, fuchsian.AreaMismatchError,
                 fuchsian.EllipticCenterError)
RUNTIME_ERRORS = (fuchsian.NonTerminationError, walk_mod.ZariskiCheckError,
                  ValueError, ArithmeticError, OSError)


@contextlib.contextmanager
def _atomic_file(path: str):
    """A text file opened for writing in path's directory, renamed onto path
    when the block ends without an exception and removed when it raises."""
    d = os.path.dirname(os.path.abspath(path))
    os.makedirs(d, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=d, prefix=".tmp-covwalk-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _atomic_write(path: str, data: str) -> None:
    with _atomic_file(path) as fh:
        fh.write(data)


# JSON's names for the non-finite floats whose repr is nan, inf or -inf
_JSON_FLOATS = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _write_records(results, d: int, csv_fh, jsonl_fh) -> None:
    """``records.csv`` to csv_fh and ``records.jsonl`` to jsonl_fh, one
    trajectory at a time from its record columns (``walk.Checkpoints``), so
    neither file's text is ever whole in memory.

    Each row's number text is built once and serves both files: CSV keeps
    repr (``nan``, ``inf``), and JSON writes the text ``json.dumps`` would,
    with ``NaN``, ``Infinity`` and ``-Infinity`` for a non-finite drift or
    ``cartan_t`` and ``null`` for a non-finite cusp height; only a row whose
    CSV line holds such a repr (the only numbers with an ``n``) is mapped.
    ``n`` is an int for walks and a float for flows, in both files.  A run
    with no records writes an empty line to ``records.jsonl``."""
    header = (
        ["traj", "n"]
        + [f"k{i+1}" for i in range(d)]
        + [f"drift{i+1}" for i in range(d)]
        + ["cusp_height", "cartan_t"]
    )
    csv_fh.write(",".join(header) + "\n")
    js = _JSON_FLOATS.get
    for res in results:
        cps = res.records
        traj = repr(cps.traj)
        csv_lines = []
        json_lines = []
        for n, index, drift, h, cart in zip(
            map(repr, cps.n), _row_texts(cps.index), _row_texts(cps.drift),
            map(repr, cps.cusp_height), map(repr, cps.cartan_t),
        ):
            line = f"{traj},{n},{index},{drift},{h},{cart}\n"
            csv_lines.append(line)
            if "n" in line:  # a nan or inf repr, which JSON names otherwise
                n, cart = js(n, n), js(cart, cart)
                h = "null" if h in _JSON_FLOATS else h
                drift = ",".join([js(v, v) for v in drift.split(",")])
            json_lines.append(
                f'{{"traj":{traj},"n":{n},"index":[{index}],"drift":[{drift}],'
                f'"cusp_height":{h},"cartan_t":{cart}}}\n'
            )
        csv_fh.write("".join(csv_lines))
        jsonl_fh.write("".join(json_lines))
    if not any(res.records for res in results):
        jsonl_fh.write("\n")


def _row_texts(rows):
    """Each row of numbers as its reprs joined by commas."""
    return map(",".join, zip(*[map(repr, col) for col in zip(*rows)]))


def _summary(bundle, results, extra: dict) -> dict:
    cfg = bundle.config
    drifts = [r.summary.terminal_drift for r in results]
    summary = {
        "build": {"package": "covwalk", "version": __version__},
        "config_hash": config_mod.config_hash(cfg),
        "config": config_mod.canonical_text(cfg),
        "d": bundle.spec.d,
        "dim_EC": bundle.spec.dim_EC,
        "unfolded": list(bundle.spec.unfolded),
        "v": [list(v) for v in bundle.spec.v],
        "trajectories": len(results),
        "steps": cfg.steps,
        "mode": cfg.mode,
        "drift_mean": stats_mod._column_means(drifts),
        "drift_abs_median": stats_mod.quantile(
            [[abs(v) for v in row] for row in drifts]
        ),
    }
    summary.update(extra)
    return summary


def _analysis(bundle, results) -> dict:
    cfg = bundle.config
    out: dict = {}
    reports = set(cfg.reports)
    t_norm = cfg.steps * cfg.dt if cfg.mode == "geodesic" else cfg.steps
    if "drift" in reports or not reports:
        target = None
        if (
            cfg.start == "special"
            and bundle.measure is not None
            and bundle.measure.kind == "atoms"
        ):
            target = stats_mod.exact_finite_orbit_target(
                bundle.system, bundle.measure, hyp2.BASE_TANGENT
            )
        ds = stats_mod.drift_summary(results, target=target)
        out["drift"] = {
            "mean": list(ds.mean),
            "target": None if ds.target is None else list(ds.target),
            "max_dev_from_target": ds.max_dev_from_target,
        }
    if "cauchy" in reports:
        basis = bundle.spec.E_C_basis or tuple(
            tuple(1 if i == j else 0 for i in range(bundle.spec.d))
            for j in range(bundle.spec.d)
        )
        fits = []
        for vec in basis:
            norm = math.sqrt(sum(v * v for v in vec))
            samples = [
                sum(v * k for v, k in zip(vec, r.summary.final_index)) / (norm * t_norm)
                for r in results
            ]
            f = stats_mod.cauchy_fit(samples)
            fits.append(
                {
                    "basis_vector": list(vec),
                    "location": f.location,
                    "scale": f.scale,
                    "ks": f.ks_distance,
                    "tail_index": f.tail_index,
                }
            )
        out["cauchy"] = fits
    if "gaussian" in reports:
        rt = math.sqrt(t_norm)
        fits = []
        for j in range(bundle.spec.d):
            samples = [r.summary.final_index[j] / rt for r in results]
            f = stats_mod.gaussian_fit(samples)
            fits.append(
                {"component": j, "mean": f.mean, "sd": f.sd, "ks": f.ks_distance}
            )
        out["gaussian"] = fits
    if "recurrence" in reports:
        rep = stats_mod.recurrence_report(
            results, bundle.spec.d, bundle.spec.dim_EC
        )
        out["recurrence"] = {
            **_recurrence_fields(rep),
            "verdict_hint": rep.verdict_hint + " (statistical indicator, not a proof)",
        }
    if "accumulation" in reports:
        series = {
            r.summary.traj: zip(r.records.n, r.records.drift) for r in results
        }
        thr = 0.1
        rep = stats_mod.accumulation_diagnostic(
            series,
            bundle.spec.E_C_basis,
            bundle.spec.d,
            span_threshold=thr,
            complement_threshold=thr,
        )
        out["accumulation"] = {
            "span_threshold": rep.span_threshold,
            "complement_threshold": rep.complement_threshold,
            "frac_span_above": rep.frac_span_above,
            "frac_complement_below": rep.frac_complement_below,
            "median_total_range": stats_mod.quantile(rep.total_range),
        }
    return out


def _recurrence_fields(rep) -> dict:
    """The fields of a ``stats.RecurrenceReport`` that ``summary.json`` and
    ``recurrence.json`` both write, in their order."""
    return {
        "grid": list(rep.grid),
        "return_fraction": list(rep.return_fraction),
        "window_fraction": list(rep.window_fraction),
        "median_first_return": rep.median_first_return,
        "median_max_excursion": list(rep.median_max_excursion),
    }


# ---------------------------------------------------------------------------
# commands

def _tool(name: str):
    """``tools.<name>``, a load or run of a command that runs no
    trajectories, looked up when it is called."""
    def call(*args):
        from . import tools

        return getattr(tools, name)(*args)
    return call


def _load_bundle(path: str):
    with open(path, "r", encoding="utf-8") as fh:
        cfg = config_mod.parse_config_text(fh.read())
    return config_mod.build_bundle(cfg)


def _load_run(args, mode: str):
    """The bundle and walk config of a run whose config has ``mode``
    ("walk" or "geodesic"), or of a ``recurrence`` (mode "recurrence"),
    which takes either and needs return tracking."""
    bundle = _load_bundle(args.config)
    cfg = bundle.config
    if mode == "recurrence":
        if cfg.return_radius is None:
            raise config_mod.ConfigError(
                "recurrence needs return_radius (and return_grid) in [walk]"
            )
    elif cfg.mode != mode:
        raise config_mod.ConfigError(f"config mode must be {mode!r}")
    return bundle, config_mod.walk_config(cfg)


def _run_trajectories(bundle, wcfg):
    """The run's results and the threads it used: never more than it has
    trajectories."""
    workers = min(walk_mod.worker_count(), wcfg.trajectories)
    results = walk_mod.run_trajectories(
        bundle.system, bundle.measure, wcfg,
        geodesic=bundle.config.mode == "geodesic", workers=workers,
    )
    return results, workers


def _write_json(path: str, data: dict) -> None:
    _atomic_write(path, json.dumps(data, indent=2) + "\n")


def cmd_run(args, loaded) -> int:
    bundle, wcfg = loaded
    results, workers = _run_trajectories(bundle, wcfg)
    analysis = _analysis(bundle, results)
    outdir = args.out or "."
    # only fixed starts build a table, and all trajectories share that start
    engine = {
        "id": walk_mod.ENGINE_ID,
        "orbit_states": results[0].summary.orbit_states if results else None,
        "kernel": segments.load_kernel(),
        "workers": workers,
    }
    summary = _summary(bundle, results, {"engine": engine, "analysis": analysis})
    with _atomic_file(os.path.join(outdir, "records.csv")) as csv_fh, \
            _atomic_file(os.path.join(outdir, "records.jsonl")) as jsonl_fh:
        _write_records(results, bundle.spec.d, csv_fh, jsonl_fh)
    _write_json(os.path.join(outdir, "summary.json"), summary)
    print(f"wrote records.csv, records.jsonl, summary.json to {outdir}")
    for key, val in analysis.items():
        print(f"{key}: {json.dumps(val)}")
    return 0


def cmd_recurrence(args, loaded) -> int:
    bundle, wcfg = loaded
    results, _ = _run_trajectories(bundle, wcfg)
    rep = stats_mod.recurrence_report(results, bundle.spec.d, bundle.spec.dim_EC)
    print(f"d = {rep.d}, dim E_C = {rep.dim_EC}: expected {rep.verdict_hint}")
    for i, n in enumerate(rep.grid):
        print(
            f"  n <= {n}: return fraction {rep.return_fraction[i]:.4f},"
            f" window fraction {rep.window_fraction[i]:.4f},"
            f" median max excursion {rep.median_max_excursion[i]:.1f}"
        )
    print(f"  median first return: {rep.median_first_return}")
    if args.out:
        _write_json(
            os.path.join(args.out, "recurrence.json"),
            {
                "config_hash": config_mod.config_hash(bundle.config),
                "d": rep.d,
                "dim_EC": rep.dim_EC,
                "verdict_hint": rep.verdict_hint,
                **_recurrence_fields(rep),
            },
        )
    return 0


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="covwalk",
        description="random walks and geodesic flow on Z^d-covers of "
        "finite-area hyperbolic surfaces",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_lat = sub.add_parser("lattice", help="lattice utilities")
    lat_sub = p_lat.add_subparsers(dest="subcommand", required=True)
    p_check = lat_sub.add_parser("check", help="validate a preset or lattice file")
    p_check.add_argument("lattice")
    p_check.add_argument("--word-bound", type=int, default=fuchsian.DEFAULT_WORD_BOUND,
                         help="cap for a lattice file (default %(default)s): the build"
                         " stops at the first word bound that passes, and the cusp"
                         " rescale reads the same words; at least 1")
    p_check.set_defaults(load=_tool("load_lattice_check"), run=_tool("cmd_lattice_check"))

    for mode, text in (("walk", "random walk runs"), ("geodesic", "geodesic flow runs")):
        p_mode = sub.add_parser(mode, help=text)
        p_run = p_mode.add_subparsers(dest="subcommand", required=True).add_parser("run")
        p_run.add_argument("--config", required=True)
        p_run.add_argument("--out", default=None)
        p_run.set_defaults(load=lambda a, mode=mode: _load_run(a, mode), run=cmd_run)

    p_ly = sub.add_parser("lyapunov", help="top Lyapunov exponent of the measure")
    p_ly.add_argument("--config", required=True)
    p_ly.add_argument("--out", default=None)
    p_ly.add_argument("--override-zariski", action="store_true")
    p_ly.set_defaults(load=_tool("load_lyapunov"), run=_tool("cmd_lyapunov"))

    p_fit = sub.add_parser("fit", help="fit a limit law to samples")
    p_fit.add_argument("law", choices=["cauchy", "gaussian"])
    p_fit.add_argument("--in", dest="infile", required=True)
    p_fit.add_argument("--column", default=None)
    p_fit.set_defaults(load=_tool("load_fit"), run=_tool("cmd_fit"))

    p_rec = sub.add_parser("recurrence", help="return statistics of a walk")
    p_rec.add_argument("--config", required=True)
    p_rec.add_argument("--out", default=None)
    p_rec.set_defaults(load=lambda a: _load_run(a, "recurrence"), run=cmd_recurrence)

    p_rep = sub.add_parser("report", help="collate JSON summaries in a directory")
    p_rep.add_argument("--dir", required=True)
    p_rep.set_defaults(load=_tool("load_report"), run=_tool("cmd_report"))

    args = parser.parse_args(argv)
    try:
        loaded = args.load(args)
    except CONFIG_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return args.run(args, loaded)
    except RUNTIME_ERRORS as exc:
        print(f"runtime error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
