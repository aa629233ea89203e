import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest

from covwalk import cli
from covwalk import config as CFG
from covwalk import hyp2 as H
from covwalk import walk as W

DRIFT_HALF = """
[lattice]
preset = punctured_square_torus

[weights]
g1 = 0
g2 = 1

[measure]
type = atoms
atom.1 = g1 0.5
atom.2 = g2 0.5

[walk]
mode = walk
steps = 2000
trajectories = 20
seed = 2024
checkpoints = linear:500
start = special

[analysis]
reports = drift
"""

RECURRENCE = """
[lattice]
preset = punctured_square_torus
[weights]
g1 = 1 0
g2 = 0 1
[measure]
type = atoms
atom.1 = g1 0.5
atom.2 = g2 0.5
[walk]
steps = 3000
trajectories = 10
seed = 5
checkpoints = linear:3000
return_radius = 2.0
return_grid = 1000 3000
"""


def run_cli(*argv) -> tuple[int, str]:
    import contextlib
    import io

    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
        code = cli.main(list(argv))
    return code, buf.getvalue()


class TestConfigParsing:
    def test_roundtrip_byte_identical(self):
        cfg = CFG.parse_config_text(DRIFT_HALF)
        text = CFG.canonical_text(cfg)
        cfg2 = CFG.parse_config_text(text)
        assert CFG.canonical_text(cfg2) == text
        assert cfg2 == cfg

    def test_hash_tracks_semantics(self):
        cfg = CFG.parse_config_text(DRIFT_HALF)
        h = CFG.config_hash(cfg)
        # cosmetic reformatting does not move the hash
        noisy = DRIFT_HALF.replace("steps = 2000", "steps =    2000   # comment")
        assert CFG.config_hash(CFG.parse_config_text(noisy)) == h
        # any semantic change does
        other = DRIFT_HALF.replace("steps = 2000", "steps = 2001")
        assert CFG.config_hash(CFG.parse_config_text(other)) != h
        other = DRIFT_HALF.replace("seed = 2024", "seed = 2025")
        assert CFG.config_hash(CFG.parse_config_text(other)) != h

    def test_bad_section(self):
        with pytest.raises(CFG.ConfigError):
            CFG.parse_config_text("[nope]\nx = 1\n")

    def test_preset_xor_file(self):
        with pytest.raises(CFG.ConfigError):
            CFG.parse_config_text("[lattice]\npreset = gamma2\nfile = x\n")

    def test_bad_probability(self):
        bad = DRIFT_HALF.replace("atom.1 = g1 0.5", "atom.1 = g1 0.9")
        with pytest.raises(CFG.ConfigError):
            CFG.build_bundle(CFG.parse_config_text(bad))

    def test_checkpoint_grammar(self):
        with pytest.raises(CFG.ConfigError):
            CFG.parse_config_text(
                DRIFT_HALF.replace("checkpoints = linear:500", "checkpoints = every:5")
            )

    def test_build_bundle(self):
        bundle = CFG.build_bundle(CFG.parse_config_text(DRIFT_HALF))
        assert bundle.spec.d == 1
        assert bundle.measure is not None and bundle.measure.kind == "atoms"


class TestLatticeCheckCommand:
    def test_gamma2(self):
        code, out = run_cli("lattice", "check", "gamma2")
        assert code == 0
        assert "cusps: 3" in out
        assert "6.283185307" in out

    def test_torus(self):
        code, out = run_cli("lattice", "check", "punctured_square_torus")
        assert code == 0
        assert "cusps: 1" in out
        assert "unfolded = [False]" in out

    def test_missing(self):
        code, _ = run_cli("lattice", "check", "no_such_thing")
        assert code == 2

    def test_lattice_file_with_bad_weights(self, tmp_path):
        p = tmp_path / "lat.txt"
        p.write_text(
            "[generator] A = 1 2 0 1\n"
            "[generator] B = 1 0 2 1\n"
            "[relator] A B A^-1 B^-1\n"
            "[weights]\n"
            "A = 1\n"
            "B = 0\n"
        )
        # the relator does not hold for these generators -> validation error
        code, out = run_cli("lattice", "check", str(p), "--word-bound", "3")
        assert code == 2

    def test_lattice_file_weights_not_killing_relator(self, tmp_path):
        # free presentation with an explicit relator that phi does not kill
        p = tmp_path / "lat2.txt"
        p.write_text(
            "[generator] A = 1 2 0 1\n"
            "[generator] B = 1 0 2 1\n"
            "[weights]\n"
            "A = 1\n"
            "B = 2\n"
        )
        code, out = run_cli("lattice", "check", str(p), "--word-bound", "6")
        assert code == 0
        assert "v = " in out


class TestRunCommands:
    def test_walk_run_deterministic(self, tmp_path):
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(DRIFT_HALF)
        out1 = tmp_path / "o1"
        out2 = tmp_path / "o2"
        code, _ = run_cli("walk", "run", "--config", str(cfgp), "--out", str(out1))
        assert code == 0
        code, _ = run_cli("walk", "run", "--config", str(cfgp), "--out", str(out2))
        assert code == 0
        assert (out1 / "records.csv").read_bytes() == (out2 / "records.csv").read_bytes()
        assert (out1 / "records.jsonl").read_bytes() == (out2 / "records.jsonl").read_bytes()

        header = (out1 / "records.csv").read_text().splitlines()[0]
        assert header == "traj,n,k1,drift1,cusp_height,cartan_t"

        summary = json.loads((out1 / "summary.json").read_text())
        assert summary["config_hash"]
        assert summary["build"]["package"] == "covwalk"
        assert summary["analysis"]["drift"]["target"] == [0.5]
        assert abs(summary["drift_mean"][0] - 0.5) < 0.05
        # the upward tangent at i is a one-state orbit of g1 and g2
        assert summary["engine"] == {"orbit_states": 1}

    def test_mode_mismatch(self, tmp_path):
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(DRIFT_HALF)
        code, _ = run_cli("geodesic", "run", "--config", str(cfgp))
        assert code == 2

    def test_missing_config(self):
        code, _ = run_cli("walk", "run", "--config", "/no/such/file.cfg")
        assert code == 2

    def test_geodesic_run(self, tmp_path):
        text = """
[lattice]
preset = gamma2
[weights]
A = 1
B = 0
[walk]
mode = geodesic
steps = 200
trajectories = 10
seed = 3
checkpoints = linear:200
dt = 0.25
"""
        cfgp = tmp_path / "geo.cfg"
        cfgp.write_text(text)
        out = tmp_path / "g"
        code, _ = run_cli("geodesic", "run", "--config", str(cfgp), "--out", str(out))
        assert code == 0
        rows = (out / "records.csv").read_text().splitlines()
        assert rows[0] == "traj,n,k1,drift1,cusp_height,cartan_t"
        assert len(rows) == 11
        summary = json.loads((out / "summary.json").read_text())
        assert summary["engine"] == {"orbit_states": None}  # Haar starts

    @pytest.mark.parametrize(
        "exc",
        [ZeroDivisionError("float division by zero"),
         OverflowError("math range error"),
         H.DegenerateImageError("image at infinity")],
        ids=lambda e: type(e).__name__,
    )
    def test_arithmetic_error_exits_3(self, tmp_path, monkeypatch, exc):
        def fail(*args, **kwargs):
            raise exc

        monkeypatch.setattr(W, "run_trajectories", fail)
        for command, text in (("walk run", DRIFT_HALF), ("recurrence", RECURRENCE)):
            cfgp = tmp_path / "exp.cfg"
            cfgp.write_text(text)
            out = tmp_path / "o"
            code, printed = run_cli(*command.split(), "--config", str(cfgp), "--out", str(out))
            assert code == 3, command
            assert f"runtime error: {exc}" in printed
            assert "Traceback" not in printed
            assert not out.exists()


class TestFitCommand:
    def test_cauchy_single_column(self, tmp_path):
        rng = np.random.default_rng(0)
        samples = np.tan(math.pi * (rng.random(10000) - 0.5))
        p = tmp_path / "c.csv"
        p.write_text("\n".join(repr(float(v)) for v in samples) + "\n")
        code, out = run_cli("fit", "cauchy", "--in", str(p))
        assert code == 0
        scale = float(out.split("scale ")[1].split()[0])
        assert 0.95 <= scale <= 1.05

    def test_gaussian(self, tmp_path):
        rng = np.random.default_rng(1)
        p = tmp_path / "g.csv"
        p.write_text("\n".join(repr(float(v)) for v in rng.normal(0, 1, 5000)) + "\n")
        code, out = run_cli("fit", "gaussian", "--in", str(p))
        assert code == 0
        assert "ks" in out

    def test_walk_csv_terminal_rows(self, tmp_path):
        p = tmp_path / "records.csv"
        p.write_text(
            "traj,n,k1,drift1,cusp_height,cartan_t\n"
            + "\n".join(
                f"{t},{n},0,{0.001*t*n},0.0,1.0"
                for t in range(200)
                for n in (10, 20)
            )
            + "\n"
        )
        code, out = run_cli("fit", "gaussian", "--in", str(p), "--column", "drift1")
        assert code == 0

    def test_degenerate(self, tmp_path):
        p = tmp_path / "d.csv"
        p.write_text("\n".join("1.0" for _ in range(500)) + "\n")
        code, _ = run_cli("fit", "cauchy", "--in", str(p))
        assert code == 2


class TestRecurrenceCommand:
    def test_runs_and_reports(self, tmp_path):
        cfgp = tmp_path / "rec.cfg"
        cfgp.write_text(RECURRENCE)
        code, out = run_cli("recurrence", "--config", str(cfgp), "--out", str(tmp_path))
        assert code == 0
        assert "expected recurrent" in out
        data = json.loads((tmp_path / "recurrence.json").read_text())
        assert data["grid"] == [1000, 3000]

    def test_requires_return_tracking(self, tmp_path):
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(DRIFT_HALF)
        code, _ = run_cli("recurrence", "--config", str(cfgp))
        assert code == 2


class TestReportCommand:
    def test_empty_dir(self, tmp_path):
        code, _ = run_cli("report", "--dir", str(tmp_path))
        assert code == 2

    def test_collates(self, tmp_path):
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(DRIFT_HALF)
        out = tmp_path / "o"
        run_cli("walk", "run", "--config", str(cfgp), "--out", str(out))
        code, text = run_cli("report", "--dir", str(tmp_path))
        assert code == 0
        assert "config_hash" in text
        assert "engine: {'orbit_states': 1}" in text
        assert (tmp_path / "dashboard.txt").exists()
        assert (out / "drift_ecdf.dat").exists()


class TestEntryPoint:
    def test_subprocess_invocation(self, tmp_path):
        env = dict(os.environ)
        res = subprocess.run(
            [sys.executable, "-c", "import covwalk.cli as c, sys; sys.exit(c.main(['lattice','check','gamma2']))"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert res.returncode == 0
        assert "cusps: 3" in res.stdout

    @pytest.mark.parametrize("module", ["covwalk.cli", "covwalk"])
    def test_python_dash_m(self, module):
        # runpy warns when the package's __init__ has already imported the
        # module it is asked to run; as an error that warning fails the run
        src = os.path.dirname(os.path.dirname(cli.__file__))
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        res = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
             "lattice", "check", "gamma2"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert res.returncode == 0, res.stderr
        assert "cusps: 3" in res.stdout
