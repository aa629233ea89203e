"""Command-line experiment runner.

Every command is a load, which reads and checks its inputs, and a run, which
does the rest.  Only ``main`` maps what they raise to exit codes: 0 success,
2 (``error: ...``) for ``CONFIG_ERRORS`` from a load, 3 (``runtime error:
...``) for ``RUNTIME_ERRORS`` from a run.  All files are written atomically
(temp file + rename) so interrupted runs never leave half-written artifacts.
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
from . import cover as cover_mod
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

def _load_lattice(args):
    name = args.lattice
    preset = name if name in ("gamma2", "punctured_square_torus") else ""
    try:
        return config_mod.load_lattice(
            preset, "" if preset else name, config_mod.DEFAULT_CENTER, args.word_bound
        )
    except FileNotFoundError:
        raise FileNotFoundError(f"no such preset or file: {name}") from None


def cmd_lattice_check(args, lattice) -> int:
    pres, polygon, cusps, weights = lattice
    print(f"lattice: {args.lattice}")
    for lab, g in pres.generators:
        cl = hyp2.classify(g)
        extra = (
            f" length {cl.translation_length:.6f}"
            if cl.kind == "hyperbolic"
            else ""
        )
        print(f"  generator {lab}: {cl.kind}{extra}")
    print(f"  relators: {len(pres.relators)} (all evaluate to the identity)")
    chi = pres.euler_characteristic()
    expected = 2 * math.pi * abs(chi)
    print(
        f"  polygon: {len(polygon.sides)} sides, area {polygon.area:.9f}"
        f" (Gauss-Bonnet 2*pi*|chi| = {expected:.9f})"
    )
    print(f"  cusps: {len(cusps)}")
    for j, c in enumerate(cusps):
        fp = "inf" if math.isinf(c.fixed_point) else f"{c.fixed_point:.6f}"
        print(
            f"    cusp {j}: fixed point {fp}, width {c.width:.6f},"
            f" loop {fuchsian.word_str(c.parabolic_word)}"
        )

    trials: list[dict[str, tuple[int, ...]]] = []
    if weights:
        trials.append(weights)
    else:
        labels = pres.labels
        for j in range(len(labels)):
            trials.append(
                {lab: ((1,) if i == j else (0,)) for i, lab in enumerate(labels)}
            )
    code = 0
    for w in trials:
        desc = ", ".join(f"{k}={' '.join(map(str, v))}" for k, v in sorted(w.items()))
        try:
            spec = cover_mod.validate_cover(pres, cusps, w)
            print(
                f"  weights {desc}: v = {list(spec.v)},"
                f" unfolded = {list(spec.unfolded)}, dim E_C = {spec.dim_EC}"
            )
        except (cover_mod.RelatorNotKilledError, cover_mod.QuotientNotFreeRankError) as exc:
            print(f"  weights {desc}: INVALID ({exc})")
            code = 2
    return code


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


def _load_lyapunov(args):
    bundle = _load_bundle(args.config)
    if bundle.measure is None:
        raise config_mod.ConfigError("lyapunov needs a walk measure")
    return bundle


def cmd_lyapunov(args, bundle) -> int:
    est = walk_mod.lyapunov_estimate(
        bundle.measure,
        steps=bundle.config.steps,
        trajectories=bundle.config.trajectories,
        master_seed=bundle.config.seed,
        override_zariski=args.override_zariski,
    )
    print(f"lyapunov = {est.value!r} se = {est.se!r} "
          f"(n = {est.steps}, K = {est.trajectories})")
    if args.out:
        _write_json(
            os.path.join(args.out, "lyapunov.json"),
            {
                "lyapunov": est.value,
                "se": est.se,
                "steps": est.steps,
                "trajectories": est.trajectories,
                "config_hash": config_mod.config_hash(bundle.config),
            },
        )
    return 0


def _read_samples(path: str, column: str | None) -> list[float]:
    """A column (drift1 by default) of a CSV file with a header, at the last
    checkpoint of each trajectory where it has traj and n; or a file of one
    number a line with ``#`` comments and blank lines, as ``np.loadtxt`` reads
    it."""
    import csv  # a run writes its records without it

    with open(path, "r", encoding="utf-8") as fh:
        first = fh.readline()
        fh.seek(0)
        try:
            float(first.split(",")[0])
            has_header = False
        except ValueError:
            has_header = True
        if not has_header:
            if column is not None:
                raise ValueError(f"column {column!r} given, but {path} has no header")
            samples = []
            for i, line in enumerate(fh, 1):
                text = line.split("#", 1)[0].strip()
                try:  # float() also reads "1_0" and non-ASCII digits
                    if "_" in text or not text.isascii():
                        raise ValueError
                    if text:
                        samples.append(float(text))
                except ValueError:
                    raise ValueError(
                        f"line {i} of {path} is not one number: {text!r}"
                    ) from None
            return samples
        rows = list(csv.DictReader(fh))
    if not rows:
        raise ValueError(f"no samples in {path}")
    col = column or "drift1"
    if col not in rows[0]:
        raise ValueError(f"column {column!r} not found; available: {list(rows[0])}")
    by_traj = "traj" in rows[0] and "n" in rows[0]
    # csv leaves None where a row is shorter than the header
    for i, r in enumerate(rows, 1):
        for key in (col, "traj", "n") if by_traj else (col,):
            if r[key] is None:
                raise ValueError(f"row {i} of {path} has no {key!r} value")
    # terminal checkpoint per trajectory when the file has many rows
    if by_traj:
        last: dict[str, dict] = {}
        for r in rows:
            prev = last.get(r["traj"])
            if prev is None or float(r["n"]) > float(prev["n"]):
                last[r["traj"]] = r
        rows = list(last.values())
    return [float(r[col]) for r in rows]


def _load_fit(args) -> str:
    """The fit's line; fitting in the load makes a sample too small or too
    degenerate to fit exit 2, as a file that cannot be read does."""
    samples = _read_samples(args.infile, args.column)
    if args.law == "cauchy":
        f = stats_mod.cauchy_fit(samples)
        return (
            f"cauchy fit: location {f.location!r} scale {f.scale!r} "
            f"ks {f.ks_distance!r} tail_index {f.tail_index!r} n {f.n}"
        )
    f = stats_mod.gaussian_fit(samples)
    return f"gaussian fit: mean {f.mean!r} sd {f.sd!r} ks {f.ks_distance!r} n {f.n}"


def cmd_fit(args, line: str) -> int:
    print(line)
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


def _load_report(args) -> list[tuple[str, dict]]:
    """Each JSON object under the directory with its path; a file that cannot
    be read, is not JSON or holds no object is skipped."""
    import glob

    paths = sorted(glob.glob(os.path.join(args.dir, "**", "*.json"), recursive=True))
    summaries = []
    for p in paths:
        try:
            with open(p, "r", encoding="utf-8") as fh:
                data = json.load(fh)
        except (OSError, json.JSONDecodeError):
            continue
        if isinstance(data, dict):
            summaries.append((p, data))
    if not summaries:
        raise ValueError(f"no JSON summaries under {args.dir}")
    return summaries


def cmd_report(args, summaries) -> int:
    lines = [f"covwalk report over {len(summaries)} summaries", ""]
    for p, data in summaries:
        lines.append(f"== {os.path.relpath(p, args.dir)}")
        for key in ("config_hash", "mode", "steps", "trajectories",
                    "drift_mean", "lyapunov", "verdict_hint", "engine"):
            if key in data:
                lines.append(f"   {key}: {data[key]}")
        analysis = data.get("analysis")
        if isinstance(analysis, dict):  # skipped when it holds no object
            for key, val in analysis.items():
                lines.append(f"   {key}: {json.dumps(val)}")
        lines.append("")
    text = "\n".join(lines)
    print(text)
    _atomic_write(os.path.join(args.dir, "dashboard.txt"), text + "\n")

    # gnuplot-ready drift ECDFs next to each records.csv
    for p, _ in summaries:
        d = os.path.dirname(p)
        csv_path = os.path.join(d, "records.csv")
        if not os.path.exists(csv_path):
            continue
        try:
            samples = _read_samples(csv_path, None)
        except ValueError:
            continue
        samples.sort(key=lambda v: (v != v, v))  # NaNs last, as np.sort puts them
        n = len(samples)
        body = "# terminal drift (column 1) vs empirical CDF (column 2)\n"
        body += "\n".join(f"{x!r} {i / n!r}" for i, x in enumerate(samples, 1))
        _atomic_write(os.path.join(d, "drift_ecdf.dat"), body + "\n")
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
    p_check.add_argument("--word-bound", type=int, default=12)
    p_check.set_defaults(load=_load_lattice, run=cmd_lattice_check)

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
    p_ly.set_defaults(load=_load_lyapunov, run=cmd_lyapunov)

    p_fit = sub.add_parser("fit", help="fit a limit law to samples")
    p_fit.add_argument("law", choices=["cauchy", "gaussian"])
    p_fit.add_argument("--in", dest="infile", required=True)
    p_fit.add_argument("--column", default=None)
    p_fit.set_defaults(load=_load_fit, run=cmd_fit)

    p_rec = sub.add_parser("recurrence", help="return statistics of a walk")
    p_rec.add_argument("--config", required=True)
    p_rec.add_argument("--out", default=None)
    p_rec.set_defaults(load=lambda a: _load_run(a, "recurrence"), run=cmd_recurrence)

    p_rep = sub.add_parser("report", help="collate JSON summaries in a directory")
    p_rep.add_argument("--dir", required=True)
    p_rep.set_defaults(load=_load_report, run=cmd_report)

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
