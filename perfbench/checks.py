"""Output checks for one CLI run of a workload.

A run's outputs are checked row by row and as a whole.  A row that breaks
an exact identity fails its trajectory; a missing file, a wrong row count,
a wrong config hash or a failed analysis check fails the whole run, that
is every trajectory of it.
"""

from __future__ import annotations

import csv
import hashlib
import json
import math
import os

from workloads import Workload

OUTPUT_FILES = ("records.csv", "records.jsonl", "summary.json")

# Terminal drift band of the finite-orbit workload (acceptance criterion 1).
ORBIT_DRIFT_BAND = (0.45, 0.55)

# Cauchy sanity bounds of walk-unfolded: the fitted scale lies in
# CAUCHY_SCALE and the fitted location within CAUCHY_LOC_SCALES * scale of 0.
# Over seeds 1..40 the fits gave scale 0.070-0.103 and |location|/scale
# <= 0.43; the bounds leave a margin of about half that range again.
CAUCHY_SCALE = (0.035, 0.2)
CAUCHY_LOC_SCALES = 0.75


class RunCheck:
    """The verdict on one run: which trajectories failed, and why."""

    def __init__(self, trajectories: int):
        self.trajectories = trajectories
        self.failed: set[int] = set()
        self.problems: list[str] = []
        self.digest: str | None = None
        self.out_bytes = 0

    def fail_run(self, why: str) -> None:
        self.failed = set(range(self.trajectories))
        self.problems.append(why)

    def fail_traj(self, traj: int, why: str) -> None:
        if traj not in self.failed and len(self.problems) < 20:
            self.problems.append(why)
        self.failed.add(traj)


def records_digest(outdir: str) -> str:
    h = hashlib.sha256()
    for name in ("records.csv", "records.jsonl"):
        with open(os.path.join(outdir, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


def check_run(
    w: Workload, outdir: str, returncode: int, config_hash: str, d: int
) -> RunCheck:
    rc = RunCheck(w.trajectories)
    if returncode != 0:
        rc.fail_run(f"exit code {returncode}")
        return rc
    missing = [f for f in OUTPUT_FILES if not os.path.exists(os.path.join(outdir, f))]
    if missing:
        rc.fail_run(f"missing outputs {missing}")
        return rc
    rc.out_bytes = sum(os.path.getsize(os.path.join(outdir, f)) for f in OUTPUT_FILES)
    rc.digest = records_digest(outdir)
    terminal = _check_records(w, os.path.join(outdir, "records.csv"), d, rc)
    with open(os.path.join(outdir, "summary.json"), encoding="utf-8") as fh:
        summary = json.load(fh)
    if summary.get("config_hash") != config_hash:
        rc.fail_run(
            f"config_hash {summary.get('config_hash')!r} != {config_hash!r}"
        )
    _check_analysis(w, summary.get("analysis") or {}, terminal, rc)
    return rc


def _check_records(w: Workload, path: str, d: int, rc: RunCheck) -> dict:
    """Row checks; returns the terminal drift vector of each trajectory."""
    header = (
        ["traj", "n"]
        + [f"k{i + 1}" for i in range(d)]
        + [f"drift{i + 1}" for i in range(d)]
        + ["cusp_height", "cartan_t"]
    )
    cps = w.checkpoint_steps()
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != header:
        rc.fail_run(f"records.csv header {rows[0] if rows else None} != {header}")
        return {}
    rows = rows[1:]
    if len(rows) != w.trajectories * len(cps):
        rc.fail_run(
            f"records.csv has {len(rows)} rows, expected "
            f"{w.trajectories} x {len(cps)}"
        )
        return {}
    terminal: dict[int, list[float]] = {}
    for i, row in enumerate(rows):
        traj, step = divmod(i, len(cps))
        try:
            if int(row[0]) != traj:
                raise ValueError(f"traj {row[0]} in row {i + 1}")
            n = int(row[1])
            if n != cps[step]:
                raise ValueError(f"n {n} != {cps[step]}")
            ks = [int(v) for v in row[2 : 2 + d]]
            drifts = [float(v) for v in row[2 + d : 2 + 2 * d]]
            if any(dr != k / n for k, dr in zip(ks, drifts)):
                raise ValueError(f"drift {drifts} != k/n for k {ks}, n {n}")
            cart = float(row[3 + 2 * d])
            if not (math.isfinite(cart) and cart >= 0.0):
                raise ValueError(f"cartan_t {cart}")
        except (ValueError, IndexError) as exc:
            rc.fail_traj(traj, f"trajectory {traj}: {exc}")
            continue
        if step == len(cps) - 1:
            terminal[traj] = drifts
    return terminal


def _check_analysis(
    w: Workload, analysis: dict, terminal: dict, rc: RunCheck
) -> None:
    if w.name == "orbit-pinned":
        target = (analysis.get("drift") or {}).get("target")
        if target != [0.5]:
            rc.fail_run(f"drift target {target} != [0.5]")
        lo, hi = ORBIT_DRIFT_BAND
        for traj, dr in terminal.items():
            if not lo <= dr[0] <= hi:
                rc.fail_traj(traj, f"trajectory {traj}: terminal drift {dr[0]}")
    elif w.name == "recurrence-long":
        rec = analysis.get("recurrence") or {}
        if not str(rec.get("verdict_hint", "")).startswith("recurrent"):
            rc.fail_run(f"recurrence verdict {rec.get('verdict_hint')!r}")
        frac = rec.get("return_fraction") or []
        if not frac or any(b < a for a, b in zip(frac, frac[1:])):
            rc.fail_run(f"return_fraction {frac} is not nondecreasing")
    elif w.name == "walk-unfolded":
        fits = analysis.get("cauchy") or []
        if len(fits) != 1:
            rc.fail_run(f"expected one Cauchy fit, got {len(fits)}")
            return
        loc, scale = fits[0]["location"], fits[0]["scale"]
        lo, hi = CAUCHY_SCALE
        if not lo <= scale <= hi:
            rc.fail_run(f"Cauchy scale {scale} outside [{lo}, {hi}]")
        if abs(loc) > CAUCHY_LOC_SCALES * scale:
            rc.fail_run(f"Cauchy location {loc} too far from 0 at scale {scale}")
