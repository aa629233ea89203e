"""The CLI commands that run no trajectories: ``lattice check``,
``lyapunov``, ``fit`` and ``report``, each a load and a run as in ``cli``.

``cli.main`` imports this module only when one of these commands is asked
for, so a ``walk run`` never compiles it.  ``main`` maps what the loads and
runs raise to exit codes, as for every command.
"""

from __future__ import annotations

import json
import math
import os

from . import config as config_mod
from . import cover as cover_mod
from . import fuchsian
from . import hyp2
from . import stats as stats_mod
from . import walk as walk_mod
from . import cli


def load_lattice_check(args):
    if args.word_bound < 1:
        raise ValueError(f"--word-bound must be at least 1, got {args.word_bound}")
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
    cap = fuchsian.DEFAULT_WORD_BOUND if weights is None else args.word_bound
    print(f"  certified at word bound {polygon.certified_bound} (cap {cap})")
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


def load_lyapunov(args):
    bundle = cli._load_bundle(args.config)
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
        cli._write_json(
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


def load_fit(args) -> str:
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


def load_report(args) -> list[tuple[str, dict]]:
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
    cli._atomic_write(os.path.join(args.dir, "dashboard.txt"), text + "\n")

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
        cli._atomic_write(os.path.join(d, "drift_ecdf.dat"), body + "\n")
    return 0
