"""covwalk benchmark: config to records.csv + summary.json, per workload.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a covwalk checkout; the package is imported from
./src.  The workload's config is generated from its template and the seed,
then the real CLI (`covwalk walk run`) runs in a fresh process,
repeatedly, for S seconds (at least three times).  Every run's outputs are
checked (see checks.py) and every run of one invocation must give the same
records digest.

--trace 0 reports the end-to-end metrics, all times in reference seconds
(see below):
  wall_s       exec of the CLI process until it exits with all outputs
               written; the mean repeat
  setup_s      a fresh process that imports covwalk, parses the config and
               builds the bundle and walk config, exec to exit; one probe per
               repeat, the median probe
  steps_per_s  trajectory-steps K*n / (wall_s - setup_s)
  peak_rss_mb  sum of the peak resident set of the CLI process and of each
               worker process it starts (COVWALK_THREADS); the median repeat
fail_frac (failed / attempted trajectories) is printed with them and carried
in the result's "attempted" and "failed" fields.

A reference second is a measured second scaled by REF_S over the mean time
of a fixed pure-Python loop (reference.py), run before every repeat and
after the last one.  Each timed process is kept on the CPUs of cpu_set, one
for each worker, and a copy of the loop runs on each of those CPUs.  The
machine the bounds were set on changes speed by up to 1.8x in phases of a
fraction of a second to minutes; the loop, on the same CPUs, slows with the
program, so the scaled times follow the program rather than the phase.  The
measured values are printed above the result line.

--trace 1 alternates an untraced CLI run with a traced one (one worker,
fresh processes) and reports the per-layer metrics of BENCHMARK.json.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from checks import RunCheck, check_run  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402

MIN_REPEATS = 3
REFERENCE = os.path.join(HERE, "reference.py")
# A reference second: reference.py's loop takes REF_S of them.  REF_S is close to
# the loop's time in seconds on the 2-core Xeon of README.md in its faster
# phases, so that there a reference second is about a second.
REF_S = 0.7
HARD_STOP_S = 90.0  # start no repeat after this, whatever --seconds says
RUN_TIMEOUT_S = 40.0

CLI = "import sys; from covwalk.cli import main; sys.exit(main(sys.argv[1:]))"
INFO_PROBE = (
    "import sys, numpy, covwalk.config as c\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    cfg = c.parse_config_text(fh.read())\n"
    "print(c.config_hash(cfg), len(cfg.weights[0][1]), numpy.__version__)\n"
)
SETUP_PROBE = (
    "import sys, covwalk.config as c\n"
    "with open(sys.argv[1], encoding='utf-8') as fh:\n"
    "    b = c.build_bundle(c.parse_config_text(fh.read()))\n"
    "c.walk_config(b.config)\n"
)


# ---------------------------------------------------------------------------
# processes


def _children(pid: int) -> list[int]:
    out: list[int] = []
    try:
        tasks = os.listdir(f"/proc/{pid}/task")
    except OSError:
        return out
    for tid in tasks:
        try:
            with open(f"/proc/{pid}/task/{tid}/children") as fh:
                out.extend(int(p) for p in fh.read().split())
        except OSError:
            pass
    return out


def _hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0


class _TreePeak(threading.Thread):
    """Samples the peak RSS (VmHWM) of a process and its descendants."""

    def __init__(self, pid: int):
        super().__init__(daemon=True)
        self.pid = pid
        self.peak_kb: dict[int, int] = {}
        self.stop = threading.Event()

    def run(self) -> None:
        while not self.stop.is_set():
            todo = [self.pid]
            while todo:
                p = todo.pop()
                hwm = _hwm_kb(p)
                if hwm > self.peak_kb.get(p, 0):
                    self.peak_kb[p] = hwm
                todo.extend(_children(p))
            self.stop.wait(0.02)


def cpu_set(threads: int) -> set[int]:
    """The CPUs a run with `threads` workers is kept on: the last `threads`
    this process may use.  The reference loop runs on the same ones, so
    that it meets the contention the program meets."""
    cpus = sorted(os.sched_getaffinity(0))
    return set(cpus[-threads:])


def run_process(
    cmd: list[str], env: dict, log: str, cpus: set[int]
) -> tuple[int, float, float]:
    """Runs cmd on `cpus` to completion; returns (exit code, wall s, peak
    RSS MB of the process tree)."""
    with open(log, "wb") as fh:
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            cmd, env=env, stdout=fh, stderr=subprocess.STDOUT, start_new_session=True
        )
        # Set before the interpreter has finished starting; the processes
        # it starts later inherit the set.
        try:
            os.sched_setaffinity(proc.pid, cpus)
        except ProcessLookupError:
            pass  # already gone; its exit code tells
        sampler = _TreePeak(proc.pid)
        sampler.start()
        killer = threading.Timer(RUN_TIMEOUT_S, os.killpg, (proc.pid, signal.SIGKILL))
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.perf_counter() - t0
        finally:
            killer.cancel()
            sampler.stop.set()
            sampler.join()
        proc.returncode = os.waitstatus_to_exitcode(status)
    # Workers are gone by now; sweep any straggler of the session.
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        pass
    own_kb = max(usage.ru_maxrss, sampler.peak_kb.pop(proc.pid, 0))
    return proc.returncode, wall, (own_kb + sum(sampler.peak_kb.values())) / 1024.0


# ---------------------------------------------------------------------------
# one workload invocation


class Bench:
    def __init__(self, w: Workload, seed: int, root: str):
        self.w = w
        self.root = root
        self.work = os.path.join(root, ".perfbench_out", f"{w.name}-{os.getpid()}")
        shutil.rmtree(self.work, ignore_errors=True)
        os.makedirs(self.work)
        self.config_path = os.path.join(self.work, "run.cfg")
        text = w.config_text(seed)
        with open(self.config_path, "w", encoding="utf-8") as fh:
            fh.write(text)
        # Asked of a child process: the harness imports neither covwalk nor
        # numpy, so that its own memory stays small next to the CLI's (a
        # child's peak RSS can include the image it was started from).
        try:
            info = subprocess.run(
                [sys.executable, "-c", INFO_PROBE, self.config_path],
                env=self.env(1), capture_output=True, text=True, check=True,
            ).stdout.split()
        except subprocess.CalledProcessError as exc:
            self.close()
            raise SystemExit(f"error: covwalk cannot read the config:\n{exc.stderr}")
        self.config_hash, self.d, self.numpy = info[0], int(info[1]), info[2]
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.digests: set[str] = set()
        self.n = 0

    def env(self, threads: int) -> dict:
        env = dict(os.environ)
        env["PYTHONPATH"] = os.path.join(self.root, "src")
        env["COVWALK_THREADS"] = str(threads)
        env.pop("PYTHONSTARTUP", None)
        return env

    def _outdir(self) -> str:
        self.n += 1
        return os.path.join(self.work, f"out{self.n}")

    def _account(self, rc: RunCheck) -> None:
        self.attempted += self.w.trajectories
        self.failed += len(rc.failed)
        self.problems.extend(rc.problems)
        if rc.digest is not None:
            self.digests.add(rc.digest)

    def cli(self, threads: int) -> tuple[float, float, RunCheck]:
        out = self._outdir()
        cmd = [sys.executable, "-c", CLI, "walk", "run",
               "--config", self.config_path, "--out", out]
        code, wall, rss = run_process(cmd, self.env(threads), out + ".log", cpu_set(threads))
        rc = check_run(self.w, out, code, self.config_hash, self.d)
        self._account(rc)
        shutil.rmtree(out, ignore_errors=True)
        return wall, rss, rc

    def traced_cli(self) -> tuple[float, dict, RunCheck]:
        out = self._outdir()
        spans = out + ".spans.json"
        cmd = [sys.executable, os.path.join(HERE, "trace_cli.py"), spans,
               "walk", "run", "--config", self.config_path, "--out", out]
        code, wall, _ = run_process(cmd, self.env(1), out + ".log", cpu_set(1))
        rc = check_run(self.w, out, code, self.config_hash, self.d)
        self._account(rc)
        shutil.rmtree(out, ignore_errors=True)
        trace = {}
        if code == 0:
            with open(spans, encoding="utf-8") as fh:
                trace = json.load(fh)
            with open(spans + ".dump_s", encoding="utf-8") as fh:
                wall -= json.load(fh)
        return wall, trace, rc

    def setup(self) -> float:
        code, wall, _ = run_process(
            [sys.executable, "-c", SETUP_PROBE, self.config_path],
            self.env(1),
            os.path.join(self.work, "setup.log"),
            cpu_set(1),
        )
        if code != 0:
            self.problems.append(f"setup probe exit code {code}")
            self.failed += self.w.trajectories
            self.attempted += self.w.trajectories
        return wall

    def consistent(self) -> bool:
        if len(self.digests) > 1:
            self.problems.append(f"{len(self.digests)} distinct records digests")
            return False
        return True

    def close(self) -> None:
        shutil.rmtree(self.work, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(self.work))
        except OSError:
            pass


def _repeat(seconds: float, body) -> None:
    """Calls body until the next call would likely end after `seconds`."""
    t0 = time.perf_counter()
    reps = 0
    while True:
        t = time.perf_counter()
        body()
        reps += 1
        now = time.perf_counter()
        if now - t0 >= HARD_STOP_S or (
            reps >= MIN_REPEATS and now - t0 + (now - t) > seconds
        ):
            return


def reference(threads: int) -> float:
    """Runs a copy of the reference loop on each CPU of cpu_set(threads), at
    once; returns their mean time in seconds."""
    procs = []
    try:
        for cpu in sorted(cpu_set(threads)):
            procs.append(subprocess.Popen(
                [sys.executable, REFERENCE], stdout=subprocess.PIPE, text=True
            ))
            os.sched_setaffinity(procs[-1].pid, {cpu})
        outs = [p.communicate(timeout=RUN_TIMEOUT_S)[0] for p in procs]
    finally:
        for p in procs:
            p.kill()
            p.wait()
    if any(p.returncode != 0 for p in procs):
        raise RuntimeError("the reference loop failed")
    return statistics.fmean(float(o) for o in outs)


def end_to_end(b: Bench, seconds: float) -> dict:
    walls: list[float] = []
    setups: list[float] = []
    rsss: list[float] = []
    refs: list[float] = []

    # Warm-up, untimed but checked: compiles the sources to bytecode and
    # fills the file cache, which a user pays once per checkout.
    b.setup()
    b.cli(b.w.threads)

    def body() -> None:
        refs.append(reference(b.w.threads))
        setups.append(b.setup())
        wall, rss, _ = b.cli(b.w.threads)
        walls.append(wall)
        rsss.append(rss)

    _repeat(seconds, body)
    refs.append(reference(b.w.threads))
    # Totals, not a fastest or median repeat: the phases of the machine
    # come and go within a run, and the reference loop, interleaved with
    # the repeats, has sampled them in the same proportion.
    scale = REF_S / statistics.fmean(refs)
    wall = statistics.fmean(walls) * scale
    setup = statistics.median(setups) * scale
    for name, vals in (
        ("measured wall_s", walls),
        ("measured setup_s", setups),
        ("reference_loop_s", refs),
        ("peak_rss_mb", rsss),
    ):
        print(f"  {name} over {len(vals)} runs: " + " ".join(f"{v:.4f}" for v in vals))
    print(f"  scale to reference seconds: {scale:.4f}")
    return {
        "wall_s": {"value": wall, "unit": "s"},
        "setup_s": {"value": setup, "unit": "s"},
        "steps_per_s": {"value": b.w.trajectory_steps / (wall - setup), "unit": "1/s"},
        "peak_rss_mb": {"value": statistics.median(rsss), "unit": "MB"},
    }


def layer_metrics(trace: dict, w: Workload) -> dict[str, float]:
    """Per-layer numbers of one traced run."""
    agg = trace["agg"]

    def a(name: str, i: int) -> float:
        return agg.get(name, [0, 0.0, 0.0])[i]

    def layer(prefix: str, i: int, skip: tuple = ()) -> float:
        return sum(v[i] for k, v in agg.items() if k.startswith(prefix) and k not in skip)

    spans = trace["spans"]
    main = [s for s in spans if s[2] == "cli.main"]
    trajs = [s for s in spans if s[2] == "walk.simulate_trajectory"]
    traj_ms = [(s[4] - s[3]) * 1e3 for s in trajs]
    calls = a("cover.fast_unwind", 0)
    return {
        "config.parse_s": a("config.parse_config_text", 1),
        "config.build_s": a("config.build_bundle", 1),
        "fuchsian.lattice_s": a("fuchsian.builtin_lattice", 1),
        "cover.validate_s": a("cover.validate_cover", 1),
        "fuchsian.haar_sample.calls": a("fuchsian.haar_sample", 0),
        "fuchsian.haar_sample.s": a("fuchsian.haar_sample", 1),
        "fuchsian.reduce.calls": a("fuchsian.reduce", 0),
        "fuchsian.reduce.s": a("fuchsian.reduce", 1),
        "cover.fast_unwind.calls": calls,
        "cover.fast_unwind.engaged": trace["unwind_engaged"],
        "cover.fast_unwind.winding": trace["unwind_winding"],
        "cover.fast_unwind.s": a("cover.fast_unwind", 1),
        "cover.fast_unwind.engaged_frac": trace["unwind_engaged"] / calls if calls else 0.0,
        "walk.run_s": a("walk.run_trajectories", 1),
        "walk.traj_ms.p50": statistics.median(traj_ms),
        "walk.traj_ms.p80": statistics.quantiles(traj_ms, n=5, method="inclusive")[3],
        "walk.step_us": sum(s[4] - s[3] - s[5] for s in trajs) / w.trajectory_steps * 1e6,
        "stats.s": layer("stats.", 2, ("stats.exact_finite_orbit_target",)),
        "stats.exact_orbit_s": a("stats.exact_finite_orbit_target", 1),
        "hyp2.calls": layer("hyp2.", 0),
        "hyp2.s": layer("hyp2.", 2),
        "cli.self_s": sum(s[4] - s[3] - s[5] for s in main),
    }


PER_LAYER_UNITS = {
    "calls": "count", "engaged": "count", "winding": "count",
    "engaged_frac": "ratio", "step_us": "us", "p50": "ms", "p80": "ms",
}


def traced(b: Bench, seconds: float) -> dict:
    plain: list[float] = []
    traced_walls: list[float] = []
    layers: list[dict[str, float]] = []
    out_bytes: list[int] = []

    def body() -> None:
        wall, _, rc = b.cli(1)
        plain.append(wall)
        out_bytes.append(rc.out_bytes)
        wall, trace, _ = b.traced_cli()
        if trace:
            traced_walls.append(wall)
            layers.append(layer_metrics(trace, b.w))

    _repeat(seconds, body)
    metrics: dict[str, dict] = {}
    if not layers:
        return metrics
    for name in layers[0]:
        vals = [m[name] for m in layers]
        unit = PER_LAYER_UNITS.get(name.rsplit(".", 1)[-1], "s")
        if unit == "count" and len(set(vals)) > 1:
            b.problems.append(f"count {name} differs between traced runs: {vals}")
        metrics[name] = {"value": statistics.median(vals), "unit": unit}
    metrics["cli.out_bytes"] = {"value": statistics.median(out_bytes), "unit": "bytes"}
    metrics["trace.overhead_frac"] = {
        "value": statistics.median(traced_walls) / statistics.median(plain) - 1.0,
        "unit": "ratio",
    }
    return metrics


def provenance(b: Bench, trace: bool) -> dict:
    cpu = platform.processor() or ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "workload": b.w.name,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": b.numpy,
        "COVWALK_THREADS": 1 if trace else b.w.threads,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "covwalk", "cli.py")):
        print(f"error: no covwalk sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]
    b = Bench(w, args.seed, root)
    try:
        print("provenance:", json.dumps(provenance(b, bool(args.trace))))
        print(f"{w.name}: K={w.trajectories} n={w.steps} seed={args.seed}")
        if args.trace:
            metrics = traced(b, args.seconds)
        else:
            metrics = end_to_end(b, args.seconds)
        consistent = b.consistent()
    finally:
        b.close()
    fail_frac = b.failed / b.attempted if b.attempted else 1.0
    for name, m in metrics.items():
        print(f"{name}: {m['value']:.6g} {m['unit']}")
    print(f"fail_frac: {fail_frac:.6g} ({b.failed} of {b.attempted} trajectories)")
    for p in b.problems[:20]:
        print(f"problem: {p}")
    result = {
        "correct": consistent and b.failed == 0 and b.attempted > 0,
        "attempted": max(b.attempted, 1),
        "failed": b.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
