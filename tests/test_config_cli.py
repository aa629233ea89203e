import glob
import json
import math
import os
import re
import subprocess
import sys
import tempfile

import numpy as np
import pytest

import csv
import io
from types import SimpleNamespace

from hypothesis import given, settings, strategies as st

import covwalk
from covwalk import cli
from covwalk import config as CFG
from covwalk import fuchsian as F
from covwalk import hyp2 as H
from covwalk import segments as S
from covwalk import walk as W
from covwalk import tools
from helpers import format_lattice_text

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


GEODESIC = """
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

ALL_REPORTS = """
[lattice]
preset = gamma2
[weights]
A = 1
B = 0
[measure]
type = parametric
tau_min = 0.5
tau_max = 1.5
[walk]
steps = 60
trajectories = 100
seed = 8
checkpoints = linear:20
return_radius = 2.0
return_grid = 30 60
[analysis]
reports = drift cauchy accumulation recurrence
"""

GAUSSIAN = """
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
steps = 100
trajectories = 100
seed = 6
checkpoints = linear:50
[analysis]
reports = gaussian
"""

# two hyperbolics on one axis, B = A^2: infinite covolume, and a word ball
# that grows by four words a length
COMMUTING_LATTICE = (
    "[generator] A = 3 0 0 0.3333333333333333\n"
    "[generator] B = 9 0 0 0.1111111111111111\n"
    "[weights]\nA = 1\nB = 0\n"
)

CONFIGS = sorted(
    glob.glob(os.path.join(os.path.dirname(os.path.dirname(__file__)), "configs", "*.cfg"))
)

# modules whose import cost a covwalk process does not pay: dataclasses
# compiles each generated method with its own exec and brings inspect (and
# with it dis, ast and tokenize); platform served one machine name; hashlib
# maps OpenSSL's libcrypto through _hashlib for two SHA-256 digests, which
# the interpreter's built-in module takes; fractions brings decimal to rank
# a few integer vectors
STARTUP_MODULES = {"dataclasses", "inspect", "platform",
                   "hashlib", "_hashlib", "fractions", "decimal"}


def with_value(text: str, key: str, value: str) -> str:
    """The config text with the one line of ``key`` set to ``value``."""
    out, n = re.subn(rf"^{key} = .*$", f"{key} = {value}", text, flags=re.MULTILINE)
    assert n == 1, key
    return out


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
        # equal checkpoint plans hash equal however they are written
        for a, b in (("linear:3000", "linear: 3000"),
                     ("geometric:100:1.25", "geometric:100:1.250")):
            ha, hb = (
                CFG.config_hash(CFG.parse_config_text(
                    with_value(DRIFT_HALF, "checkpoints", v)))
                for v in (a, b)
            )
            assert ha == hb

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

    @pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
    def test_shipped_config(self, path):
        with open(path, encoding="utf-8") as fh:
            cfg = CFG.parse_config_text(fh.read())
        text = CFG.canonical_text(cfg)
        again = CFG.parse_config_text(text)
        assert again == cfg
        assert CFG.canonical_text(again) == text
        CFG.build_bundle(cfg)

    def test_configs_found(self):
        assert len(CONFIGS) >= 4


# one case per [walk] bound: (base config, key, value out of bounds)
WALK_BOUNDS = {
    "dt-zero": (GEODESIC, "dt", "0"),
    "dt-above-half": (GEODESIC, "dt", "0.7"),
    "trajectories-zero": (DRIFT_HALF, "trajectories", "0"),
    "steps-negative": (DRIFT_HALF, "steps", "-5"),
    "linear-stride-zero": (DRIFT_HALF, "checkpoints", "linear:0"),
    "geometric-n0-zero": (DRIFT_HALF, "checkpoints", "geometric:0:2"),
    "geometric-ratio-one": (DRIFT_HALF, "checkpoints", "geometric:10:1"),
    "return-radius-zero": (RECURRENCE, "return_radius", "0"),
    "return-grid-zero": (RECURRENCE, "return_grid", "0 3000"),
    "return-grid-past-steps": (RECURRENCE, "return_grid", "1000 5000"),
    "return-grid-repeated": (RECURRENCE, "return_grid", "1000 1000"),
    "seed-negative": (DRIFT_HALF, "seed", "-1"),
}


class TestWalkBounds:
    @pytest.mark.parametrize("case", sorted(WALK_BOUNDS))
    def test_rejected(self, case, tmp_path):
        base, key, value = WALK_BOUNDS[case]
        text = with_value(base, key, value)
        with pytest.raises(CFG.ConfigError) as ei:
            CFG.parse_config_text(text)
        assert (ei.value.section, ei.value.key) == ("walk", key)
        if value.startswith("geometric:"):
            # an unchecked geometric plan never ends its checkpoint list, so
            # only the parser is asked
            return
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(text)
        out = tmp_path / "o"
        mode = "geodesic" if base is GEODESIC else "walk"
        code, printed = run_cli(mode, "run", "--config", str(cfgp), "--out", str(out))
        assert code == 2
        assert f"config error [walk] {key}" in printed
        assert not out.exists()


def with_key(text: str, section: str, key: str, value: str) -> str:
    """The config text with ``key`` set to ``value`` in ``section``, added
    after the section header when the text does not set it."""
    if re.search(rf"^{key} = ", text, flags=re.MULTILINE):
        return with_value(text, key, value)
    return text.replace(f"[{section}]\n", f"[{section}]\n{key} = {value}\n", 1)


# keys no section reads: misspellings, and word_bound, which the build no
# longer takes
UNKNOWN_KEYS = [
    ("lattice", "word_bound"),
    ("walk", "word_bound"),
    ("walk", "stepz"),
    ("walk", "return_raduis"),
    ("measure", "atom1"),
    ("analysis", "report"),
]

# every number the parser converts, with a value it cannot convert
BAD_NUMBERS = [
    ("lattice", "l1", "one"),
    ("lattice", "l2", "one"),
    ("measure", "tau_min", "half"),
    ("measure", "tau_max", "half"),
    ("walk", "steps", "1.5"),
    ("walk", "trajectories", "1.5"),
    ("walk", "seed", "1.5"),
    ("walk", "dt", "quarter"),
    ("walk", "return_radius", "two"),
    ("walk", "return_grid", "1000 1.5"),
]


class TestConfigErrors:
    @pytest.mark.parametrize("section, key, value", BAD_NUMBERS,
                             ids=[k for _, k, _ in BAD_NUMBERS])
    def test_bad_number_names_its_key(self, section, key, value):
        text = with_key(RECURRENCE, section, key, value)
        with pytest.raises(CFG.ConfigError) as ei:
            CFG.parse_config_text(text)
        assert (ei.value.section, ei.value.key) == (section, key)
        assert str(ei.value).startswith(f"config error [{section}] {key}: ")
        assert repr(value) in str(ei.value)

    def test_bad_number_through_cli(self, tmp_path):
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(with_value(DRIFT_HALF, "steps", "1.5"))
        code, printed = run_cli("walk", "run", "--config", str(cfgp))
        assert code == 2
        assert "error: config error [walk] steps: not a valid number: '1.5'" in printed

    @pytest.mark.parametrize("section, key", UNKNOWN_KEYS,
                             ids=[f"{s}-{k}" for s, k in UNKNOWN_KEYS])
    def test_unknown_key(self, tmp_path, section, key):
        # a misspelt or retired key is refused rather than left at its default
        text = with_key(DRIFT_HALF, section, key, "4")
        with pytest.raises(CFG.ConfigError) as ei:
            CFG.parse_config_text(text)
        assert (ei.value.section, ei.value.key) == (section, key)
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(text)
        out = tmp_path / "o"
        code, printed = run_cli("walk", "run", "--config", str(cfgp), "--out", str(out))
        assert (code, printed) == (2, f"error: config error [{section}] {key}: unknown key\n")
        assert not out.exists()

    def test_every_known_key_parses(self):
        # each key the parser reads, atom.N and any [weights] label, at once
        text = (
            "[lattice]\npreset = punctured_square_torus\nl1 = 1.7627471740390859\n"
            "l2 = 1.7627471740390859\ncenter = 0.0 1.0\n"
            "[weights]\ng1 = 1 0\ng2 = 0 1\nanything = 0 0\n"
            "[measure]\ntype = atoms\natom.1 = g1 0.5\natom.7 = g2 0.5\n"
            "tau_min = 0.5\ntau_max = 1.5\n"
            "[walk]\nmode = walk\nsteps = 10\ntrajectories = 1\nseed = 1\n"
            "checkpoints = linear:5\nstart = haar\ndt = 0.25\nreturn_radius = 2.0\n"
            "return_grid = 5 10\n"
            "[analysis]\nreports = drift\n"
        )
        cfg = CFG.parse_config_text(text)
        assert cfg.atoms == (("g1", 0.5), ("g2", 0.5))
        assert CFG.parse_config_text(CFG.canonical_text(cfg)) == cfg

    def test_word_bound_flag_is_gone(self, capsys):
        with pytest.raises(SystemExit) as ei:
            cli.main(["lattice", "check", "gamma2", "--word-bound", "5"])
        assert ei.value.code == 2
        assert "unrecognized arguments: --word-bound 5" in capsys.readouterr().err

    def test_no_section(self):
        assert str(CFG.ConfigError("bad")) == "config error: bad"
        assert str(CFG.ConfigError("bad", "walk")) == "config error [walk]: bad"

    @pytest.mark.parametrize("command, base, report", [
        ("walk run", DRIFT_HALF, "cauchy"),
        ("walk run", DRIFT_HALF, "gaussian"),
        ("geodesic run", GEODESIC + "[analysis]\nreports = drift\n", "cauchy"),
    ], ids=["walk-cauchy", "walk-gaussian", "geodesic-cauchy"])
    def test_zero_steps_with_normalized_report(self, tmp_path, command, base, report):
        # both reports divide the final index by the run's length
        text = with_value(with_value(base, "steps", "0"), "reports", f"drift {report}")
        with pytest.raises(CFG.ConfigError) as ei:
            CFG.parse_config_text(text)
        assert (ei.value.section, ei.value.key) == ("analysis", "reports")
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(text)
        out = tmp_path / "o"
        code, printed = run_cli(*command.split(), "--config", str(cfgp), "--out", str(out))
        assert (code, printed) == (
            2, f"error: config error [analysis] reports: {report} need steps >= 1,"
               " got steps = 0\n")
        assert not out.exists()
        # with steps the same config runs; with no normalized report too
        CFG.parse_config_text(with_value(text, "steps", "1"))
        CFG.parse_config_text(with_value(text, "reports", "drift"))

    @pytest.mark.parametrize("command", ["walk run", "recurrence", "lyapunov"])
    def test_infinite_covolume_exits_2(self, tmp_path, command):
        # two hyperbolics on one axis, B = A^2: an elementary group, whose
        # Dirichlet domain keeps a free boundary at every word bound
        lat = tmp_path / "lat.txt"
        lat.write_text(COMMUTING_LATTICE)
        text = RECURRENCE.replace(
            "preset = punctured_square_torus", f"file = {lat}"
        ).replace("g1 = 1 0\ng2 = 0 1\n", "A = 1\nB = 0\n")
        text = text.replace("atom.1 = g1", "atom.1 = A").replace("atom.2 = g2", "atom.2 = B")
        cfgp = tmp_path / "inf.cfg"
        cfgp.write_text(text)
        out = tmp_path / "o"
        code, printed = run_cli(*command.split(), "--config", str(cfgp), "--out", str(out))
        assert code == 2
        assert printed.startswith("error: no domain certified up to word bound 12: domain has"
                                  " free boundary")
        assert "Traceback" not in printed
        assert not out.exists()


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
        code, out = run_cli("lattice", "check", str(p))
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
        code, out = run_cli("lattice", "check", str(p))
        assert code == 0
        assert "v = " in out

    def test_file_lattice_polygon_is_the_runs(self, tmp_path):
        # check and a run build a file lattice's domain about one center
        pres, _, _ = F.builtin_lattice("gamma2")
        p = tmp_path / "gamma2.txt"
        p.write_text(
            "".join(f"[generator] {lab} = {g.a!r} {g.b!r} {g.c!r} {g.d!r}\n"
                    for lab, g in pres.generators)
            + "[weights]\nA = 1\nB = 0\n"
        )
        code, out = run_cli("lattice", "check", str(p))
        bundle = CFG.build_bundle(CFG.parse_config_text(
            f"[lattice]\nfile = {p}\n[measure]\ntype = parametric\n"
        ))
        assert code == 0
        assert f"polygon: {len(bundle.polygon.sides)} sides," in out

    @pytest.mark.parametrize("command", ["lattice check", "walk run"])
    def test_words_past_double_precision_exit_2(self, tmp_path, command):
        # three parabolics of infinite covolume: before the ball reaches
        # MAX_BALL_WORDS the entries of its words pass 1e8, and a*d - b*c
        # cancels to 0
        lat = tmp_path / "lat.txt"
        lat.write_text(
            "[generator] A = 1 6 0 1\n[generator] B = 1 0 6 1\n"
            "[generator] C = 19 -54 6 -17\n[weights]\nA = 1\nB = 0\nC = 0\n"
        )
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(f"[lattice]\nfile = {lat}\n[measure]\ntype = parametric\n")
        out = tmp_path / "o"
        argv = ([str(lat)] if command == "lattice check"
                else ["--config", str(cfgp), "--out", str(out)])
        code, printed = run_cli(*command.split(), *argv)
        assert code == 2
        assert printed.startswith("error: no domain certified up to word bound ")
        assert "outgrew double precision" in printed
        assert "Traceback" not in printed
        assert not out.exists()

    def test_preset_certified_bound(self):
        code, out = run_cli("lattice", "check", "gamma2")
        assert code == 0
        assert "  certified at word bound 1\n" in out

    def test_file_certified_bound(self, tmp_path):
        # gamma2's generators as a file: check reads the bound the domain
        # about the default center was certified at
        pres, _, _ = F.builtin_lattice("gamma2")
        p = tmp_path / "gamma2.txt"
        p.write_text(format_lattice_text(pres, {"A": (1,), "B": (0,)}))
        poly, _ = F.dirichlet_domain(pres, H.PointH(*CFG.DEFAULT_CENTER))
        code, out = run_cli("lattice", "check", str(p))
        assert code == 0
        assert f"  certified at word bound {poly.certified_bound}\n" in out

    @pytest.mark.parametrize("command", ["lattice check", "walk run"])
    @pytest.mark.parametrize("lattice", ["commuting", "long-generator"])
    def test_degenerate_lattice_file_exits_2(self, tmp_path, monkeypatch, command,
                                             lattice):
        # B = A^2 grows the word ball by four words a length, so only
        # MAX_WORD_BOUND stops the build: its bound-12 ball of 48 words is
        # far inside a ball limit of 200.  The long generator (translation
        # length 35) puts an orbit point of the center at height 1.6e15,
        # whose bisector with the center is a circle about 0 of radius 4e7;
        # taken for a vertical line, it divided by zero (so did B = A^2 from
        # word bound 8)
        monkeypatch.setattr(F, "MAX_BALL_WORDS", 200)
        lat = tmp_path / "lat.txt"
        lat.write_text(COMMUTING_LATTICE if lattice == "commuting" else (
            "[generator] A = 39824784.39757623 0 0 2.5109991557439816e-08\n"
            "[generator] B = 1 0 2 1\n[weights]\nA = 1\nB = 0\n"))
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(f"[lattice]\nfile = {lat}\n[measure]\ntype = parametric\n")
        out = tmp_path / "o"
        argv = ([str(lat)] if command == "lattice check"
                else ["--config", str(cfgp), "--out", str(out)])
        code, printed = run_cli(*command.split(), *argv)
        assert code == 2
        assert "Traceback" not in printed
        assert not out.exists()
        if lattice == "commuting":
            assert printed == (
                "error: no domain certified up to word bound 12: domain has free boundary"
                " (word bound too small or infinite covolume)\n")
        else:
            assert printed.startswith("error: ")


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
        assert summary["build"]["version"] == covwalk.__version__
        # engine 2 unwinds cusp windings after 8 descent pairings; the id
        # changes with the output bits, so a bump is an edit here.  The
        # upward tangent at i is a one-state orbit of g1 and g2.  A run
        # starts no more threads than its 20 trajectories
        assert summary["engine"] == {
            "id": 2, "orbit_states": 1, "kernel": S.load_kernel(),
            "workers": min(W.worker_count(), 20),
        }

    def test_wide_seed_runs_on_both_kernels(self, tmp_path, monkeypatch):
        # a seed of three 32-bit words: SeedSequence mixes all of them
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(with_value(ALL_REPORTS, "seed", str(2**64 + 5)))
        kernels = ["c", "python"] if S.load_kernel() == "c" else ["python"]
        outputs = []
        for kernel in kernels:
            if kernel == "python":
                monkeypatch.setattr(S, "_kernel", False)
            out = tmp_path / kernel
            code, _ = run_cli("walk", "run", "--config", str(cfgp), "--out", str(out))
            assert code == 0
            outputs.append([(out / f).read_bytes() for f in ("records.csv", "records.jsonl")])
        assert all(o == outputs[0] for o in outputs)
        summary = json.loads((tmp_path / kernels[0] / "summary.json").read_text())
        assert f"seed = {2**64 + 5}" in summary["config"]

    def test_mode_mismatch(self, tmp_path):
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(DRIFT_HALF)
        code, _ = run_cli("geodesic", "run", "--config", str(cfgp))
        assert code == 2

    def test_missing_config(self):
        code, _ = run_cli("walk", "run", "--config", "/no/such/file.cfg")
        assert code == 2

    def test_geodesic_run(self, tmp_path):
        cfgp = tmp_path / "geo.cfg"
        cfgp.write_text(GEODESIC)
        out = tmp_path / "g"
        code, _ = run_cli("geodesic", "run", "--config", str(cfgp), "--out", str(out))
        assert code == 0
        rows = (out / "records.csv").read_text().splitlines()
        assert rows[0] == "traj,n,k1,drift1,cusp_height,cartan_t"
        assert len(rows) == 11
        summary = json.loads((out / "summary.json").read_text())
        # Haar starts
        assert summary["engine"] == {
            "id": W.ENGINE_ID, "orbit_states": None, "kernel": S.load_kernel(),
            "workers": min(W.worker_count(), 10),
        }

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


    def test_haar_core_that_accepts_nothing_exits_3(self, tmp_path, monkeypatch):
        # with no proposal allowed every core draw gives up; RECURRENCE's ten
        # Haar starts on the torus, whose core is most of the surface, draw
        # from the core
        monkeypatch.setattr(F, "HAAR_MAX_PROPOSALS", 0)
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(RECURRENCE)
        out = tmp_path / "o"
        code, printed = run_cli("walk", "run", "--config", str(cfgp), "--out", str(out))
        assert code == 3
        assert "runtime error: Haar core sampling accepted none of 0 proposals" in printed
        assert "Traceback" not in printed
        assert not out.exists()

    @pytest.mark.parametrize("command, text", [
        ("walk run", DRIFT_HALF), ("geodesic run", GEODESIC),
        ("recurrence", RECURRENCE), ("lyapunov", DRIFT_HALF),
    ], ids=["walk", "geodesic", "recurrence", "lyapunov"])
    def test_out_that_cannot_be_created_exits_3(self, tmp_path, command, text):
        # a directory under a regular file cannot be made, even by root
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(text)
        blocker = tmp_path / "blocker"
        blocker.write_text("")
        out = blocker / "o"
        code, printed = run_cli(*command.split(), "--config", str(cfgp), "--out", str(out))
        assert code == 3
        assert "runtime error: [Errno 20] Not a directory" in printed
        assert "Traceback" not in printed
        assert sorted(p.name for p in tmp_path.iterdir()) == ["blocker", "exp.cfg"]
        assert blocker.read_text() == ""

    @pytest.mark.parametrize(
        "report, trajectories", [("cauchy", 99), ("gaussian", 2)]
    )
    def test_too_few_samples_exits_3(self, tmp_path, report, trajectories):
        # the fits refuse small samples only after the whole simulation
        text = with_value(GEODESIC, "trajectories", str(trajectories))
        text = with_value(text, "steps", "20")
        text = with_value(text, "checkpoints", "linear:20")
        cfgp = tmp_path / "geo.cfg"
        cfgp.write_text(text + f"[analysis]\nreports = {report}\n")
        out = tmp_path / "o"
        code, printed = run_cli("geodesic", "run", "--config", str(cfgp), "--out", str(out))
        assert code == 3
        assert "runtime error: need at least" in printed
        assert "Traceback" not in printed
        assert not out.exists()


def old_records_csv(results, d: int) -> str:
    """records.csv as csv.writer wrote it before the one-pass writer."""
    out = io.StringIO()
    w = csv.writer(out, lineterminator="\n")
    w.writerow(
        ["traj", "n"]
        + [f"k{i+1}" for i in range(d)]
        + [f"drift{i+1}" for i in range(d)]
        + ["cusp_height", "cartan_t"]
    )
    for res in results:
        for r in res.records:
            w.writerow(
                [r.traj, repr(r.n) if isinstance(r.n, float) else r.n]
                + list(r.index)
                + [repr(v) for v in r.drift]
                + [repr(r.cusp_height), repr(r.cartan_t)]
            )
    return out.getvalue()


def old_records_jsonl(results) -> str:
    """records.jsonl as one json.dumps per row wrote it."""
    lines = []
    for res in results:
        for r in res.records:
            h = r.cusp_height if math.isfinite(r.cusp_height) else None
            lines.append(json.dumps(
                {"traj": r.traj, "n": r.n, "index": list(r.index),
                 "drift": list(r.drift), "cusp_height": h, "cartan_t": r.cartan_t},
                separators=(",", ":"),
            ))
    return "\n".join(lines) + "\n"


FLOATS = st.one_of(
    st.floats(allow_nan=True, allow_infinity=True),
    st.sampled_from([math.nan, math.inf, -math.inf, -0.0, 0.0, 1e300, 5e-324]),
)
INDICES = st.one_of(st.integers(-2**62, 2**62),
                    st.sampled_from([2**53, 2**53 + 1, -2**53 - 1, 2**62 - 1]))


@st.composite
def record_sets(draw):
    d = draw(st.integers(1, 2))
    flow = draw(st.booleans())
    results = []
    for traj in range(draw(st.integers(0, 3))):
        rows = []  # (n, index, drift, cusp_height, cartan_t) per record
        for _ in range(draw(st.integers(1, 3))):
            n = draw(st.floats(0.0, 1e6)) if flow else draw(st.integers(0, 10**6))
            rows.append((
                n,
                tuple(draw(INDICES) for _ in range(d)),
                tuple(draw(FLOATS) for _ in range(d)),
                draw(FLOATS),
                draw(FLOATS),
            ))
        columns = [list(col) for col in zip(*rows)]
        results.append(SimpleNamespace(records=W.Checkpoints(traj, *columns)))
    return d, results


class TestRecordsText:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(record_sets())
    def test_same_bytes_as_the_two_writers(self, case):
        d, results = case
        csv_fh, jsonl_fh = io.StringIO(), io.StringIO()
        cli._write_records(results, d, csv_fh, jsonl_fh)
        assert (csv_fh.getvalue(), jsonl_fh.getvalue()) == (
            old_records_csv(results, d), old_records_jsonl(results)
        )

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        # records.csv and records.jsonl are renamed into place only when
        # both are written whole; a write that raises leaves neither behind
        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_write_records", fail)
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(DRIFT_HALF)
        out = tmp_path / "o"
        code, printed = run_cli("walk", "run", "--config", str(cfgp), "--out", str(out))
        assert code == 3
        assert "runtime error: disk full" in printed
        assert list(out.iterdir()) == []


class TestSha256:
    """covwalk's SHA-256 is the interpreter's built-in one, not OpenSSL's;
    its digests are hashlib's."""

    @pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
    def test_config_text(self, path):
        import hashlib

        with open(path, encoding="utf-8") as fh:
            cfg = CFG.parse_config_text(fh.read())
        text = CFG.canonical_text(cfg).encode()
        assert CFG.sha256(text).hexdigest() == hashlib.sha256(text).hexdigest()
        assert CFG.config_hash(cfg) == hashlib.sha256(text).hexdigest()[:16]

    def test_config_hash_is_pinned(self):
        with open(os.path.join(os.path.dirname(CONFIGS[0]), "drift_half.cfg"),
                  encoding="utf-8") as fh:
            cfg = CFG.parse_config_text(fh.read())
        assert CFG.config_hash(cfg) == "5c7b51ffc91c8929"

    def test_kernel_key(self):
        import hashlib

        with open(S._KERNEL_SOURCE, "rb") as fh:
            source = fh.read()
        text = b"\0".join(
            [source, " ".join(S._KERNEL_FLAGS).encode(), os.uname().machine.encode()]
        )
        assert S._kernel_key() == hashlib.sha256(text).hexdigest()[:24]


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

    @pytest.mark.parametrize("text", ["traj,n,k1,drift1,cusp_height,cartan_t\n", ""],
                             ids=["header-only", "empty"])
    def test_no_samples(self, tmp_path, text):
        p = tmp_path / "records.csv"
        p.write_text(text)
        code, printed = run_cli("fit", "gaussian", "--in", str(p))
        assert (code, printed) == (2, f"error: no samples in {p}\n")

    @pytest.mark.parametrize("text, row, key", [
        ("traj,n,drift1\n0,1\n", 1, "drift1"),
        ("traj,n,drift1\n0,1,0.5\n1\n", 2, "drift1"),
        ("drift1,traj,n\n0.5,0,1\n0.25,1\n", 2, "n"),
    ], ids=["first-row", "later-row", "no-n"])
    def test_short_row(self, tmp_path, text, row, key):
        # a row shorter than the header has no value for the chosen column
        p = tmp_path / "records.csv"
        p.write_text(text)
        code, printed = run_cli("fit", "gaussian", "--in", str(p))
        assert (code, printed) == (2, f"error: row {row} of {p} has no {key!r} value\n")

    def test_column_on_headerless_file(self, tmp_path):
        p = tmp_path / "x.txt"
        p.write_text("\n".join("0.5" for _ in range(200)) + "\n")
        code, printed = run_cli("fit", "cauchy", "--in", str(p), "--column", "drift2")
        assert (code, printed) == (
            2, f"error: column 'drift2' given, but {p} has no header\n")

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(lines=st.lists(st.tuples(
        st.sampled_from(["", " ", "\t"]),
        st.one_of(st.none(), st.floats(width=64)),
        st.sampled_from(["", " ", "# note", "  #1.5 2.5"]),
    ), min_size=1, max_size=40))
    def test_headerless_as_loadtxt(self, lines):
        # blank lines and # comments are skipped, as np.loadtxt skips them
        lines = [(" ", 1.0, "")] + lines  # a number first: no header
        text = "".join(f"{pad}{'' if v is None else repr(v)}{note}\n"
                       for pad, v, note in lines)
        with tempfile.TemporaryDirectory() as d:
            p = os.path.join(d, "x.txt")
            with open(p, "w", encoding="utf-8") as fh:
                fh.write(text)
            got = tools._read_samples(p, None)
        want = np.loadtxt(io.StringIO(text), ndmin=1)
        assert np.array(got).tobytes() == want.tobytes()

    @pytest.mark.parametrize("bad", ["1.0 2.0", "1,5", "1_000", "\u0661", "x"])
    def test_headerless_bad_line(self, tmp_path, bad):
        p = tmp_path / "x.txt"
        p.write_text(f"1.0\n\n# note\n{bad}  # note\n2.0\n")
        with pytest.raises(ValueError):
            np.loadtxt(str(p), ndmin=1, dtype=float)
        code, printed = run_cli("fit", "gaussian", "--in", str(p))
        assert (code, printed) == (
            2, f"error: line 4 of {p} is not one number: {bad!r}\n")


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
        code, printed = run_cli("recurrence", "--config", str(cfgp))
        assert code == 2
        assert "error: config error: recurrence needs return_radius" in printed


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
        assert (f"engine: {{'id': {W.ENGINE_ID}, 'orbit_states': 1, "
                f"'kernel': '{S.load_kernel()}', "
                f"'workers': {min(W.worker_count(), 20)}}}") in text
        assert (tmp_path / "dashboard.txt").exists()
        assert (out / "drift_ecdf.dat").exists()

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(drifts=st.lists(st.floats(width=64), min_size=1, max_size=300))
    def test_ecdf_numpy_bits(self, drifts):
        # + 0.0 turns -0.0 into 0.0, since a sort may put either zero first
        drifts = [v + 0.0 for v in drifts]
        with tempfile.TemporaryDirectory() as d:
            with open(os.path.join(d, "summary.json"), "w") as fh:
                fh.write('{"mode": "walk"}')
            with open(os.path.join(d, "records.csv"), "w") as fh:
                fh.write("traj,n,k1,drift1,cusp_height,cartan_t\n" + "".join(
                    f"{t},{n},0,{v if n == 2 else 0.5!r},0.0,1.0\n"
                    for t, v in enumerate(drifts) for n in (1, 2)))
            code, _ = run_cli("report", "--dir", d)
            with open(os.path.join(d, "drift_ecdf.dat")) as fh:
                got = fh.read()
        x = np.sort(np.array(drifts))
        ecdf = np.arange(1, len(x) + 1) / len(x)
        want = "# terminal drift (column 1) vs empirical CDF (column 2)\n" + "\n".join(
            f"{float(v)!r} {float(e)!r}" for v, e in zip(x, ecdf)) + "\n"
        assert (code, got) == (0, want)

    def test_skips_json_that_is_no_object(self, tmp_path):
        (tmp_path / "list.json").write_text("[1, 2]")
        (tmp_path / "number.json").write_text("3")
        code, printed = run_cli("report", "--dir", str(tmp_path))
        assert (code, printed) == (2, f"error: no JSON summaries under {tmp_path}\n")
        (tmp_path / "summary.json").write_text('{"mode": "walk"}')
        code, text = run_cli("report", "--dir", str(tmp_path))
        assert code == 0
        assert text.startswith("covwalk report over 1 summaries\n")

    def test_skips_analysis_that_is_no_object(self, tmp_path):
        (tmp_path / "summary.json").write_text('{"mode": "walk", "analysis": [1]}')
        code, text = run_cli("report", "--dir", str(tmp_path))
        assert code == 0
        assert text == ("covwalk report over 1 summaries\n\n"
                        "== summary.json\n   mode: walk\n\n")

    def test_skips_records_without_samples(self, tmp_path):
        (tmp_path / "summary.json").write_text('{"mode": "walk"}')
        (tmp_path / "records.csv").write_text("traj,n,k1,drift1,cusp_height,cartan_t\n")
        code, _ = run_cli("report", "--dir", str(tmp_path))
        assert code == 0
        assert (tmp_path / "dashboard.txt").exists()
        assert not (tmp_path / "drift_ecdf.dat").exists()

    def test_failed_dashboard_write_exits_3(self, tmp_path, monkeypatch):
        def fail(*args):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_atomic_write", fail)
        (tmp_path / "summary.json").write_text('{"mode": "walk"}')
        code, printed = run_cli("report", "--dir", str(tmp_path))
        assert code == 3
        assert "runtime error: disk full" in printed
        assert not (tmp_path / "dashboard.txt").exists()


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
        res = subprocess.run(
            [sys.executable, "-W", "error::RuntimeWarning", "-m", module,
             "lattice", "check", "gamma2"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert res.returncode == 0, res.stderr
        assert "cusps: 3" in res.stdout

    def test_import_leaves_process_pool_out(self):
        # no module of covwalk needs the multiprocessing stack
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, covwalk.config; "
             "print('concurrent.futures.process' in sys.modules)"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == "False"

    def test_threaded_run_leaves_numpy_ma_and_process_pools_out(self, tmp_path):
        # a walk run at two threads, with every report that takes a median
        # or a quantile; np.median and np.quantile import numpy.ma.  On the
        # C kernel the run imports no numpy at all, and no run imports the
        # start-up costs of STARTUP_MODULES, nor the commands of covwalk.tools
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(ALL_REPORTS)
        env = src_env()
        env["COVWALK_THREADS"] = "2"
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys; before = set(sys.modules)\n"
             "import covwalk.cli as c\n"
             f"code = c.main(['walk', 'run', '--config', {str(cfgp)!r}, "
             f"'--out', {str(tmp_path / 'o')!r}])\n"
             "print(code, c.segments.load_kernel(), *(m in sys.modules for m in "
             "('numpy.ma', 'concurrent.futures', 'multiprocessing', "
             "'numpy.random', 'numpy', 'covwalk.tools')))\n"
             f"print(*sorted(set(sys.modules) - before & {STARTUP_MODULES!r}))"],
            capture_output=True,
            text=True,
            env=env,
        )
        assert res.returncode == 0, res.stderr
        line, startup = res.stdout.split("\n")[-3:-1]
        code, kernel, *imported = line.split()
        assert code == "0"
        # the C kernel draws the uniforms; only the Python one uses numpy's
        on_python = str(kernel != "c")
        assert imported == ["False", "False", "False", on_python, on_python, "False"]
        # numpy.random, which only the Python kernel imports, loads hashlib
        allowed = {"hashlib", "_hashlib"} if kernel != "c" else set()
        assert set(startup.split()) <= allowed
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert set(summary["analysis"]) == {"drift", "cauchy", "accumulation", "recurrence"}

    def test_fit_report_and_gaussian_run_import_no_numpy(self, tmp_path):
        # numpy is left to the Python kernel, lyapunov and their helpers: a
        # run with a gaussian report on the C kernel, fit and report load none
        cfgp = tmp_path / "exp.cfg"
        cfgp.write_text(GAUSSIAN)
        out = str(tmp_path / "o")
        records = os.path.join(out, "records.csv")
        commands = [
            ["walk", "run", "--config", str(cfgp), "--out", out],
            ["fit", "cauchy", "--in", records],
            ["fit", "gaussian", "--in", records],
            ["report", "--dir", out],
        ]
        for argv in commands:
            res = subprocess.run(
                [sys.executable, "-c",
                 "import sys; before = set(sys.modules)\n"
                 "import covwalk.cli as c\n"
                 "code = c.main(sys.argv[1:])\n"
                 "loaded = 'numpy' in sys.modules, *sorted("
                 f"set(sys.modules) - before & {STARTUP_MODULES!r})\n"
                 "print(code, c.segments.load_kernel(), *loaded)",
                 *argv],
                capture_output=True,
                text=True,
                env=src_env(),
            )
            assert res.returncode == 0, res.stderr
            code, kernel, numpy, *startup = res.stdout.split("\n")[-2].split()
            assert code == "0", argv
            # only a run on the Python kernel draws numpy's uniforms, and
            # numpy.random loads hashlib
            on_python = argv[0] == "walk" and kernel == "python"
            assert numpy == str(on_python), argv
            assert set(startup) <= ({"hashlib", "_hashlib"} if on_python else set())
        summary = json.loads((tmp_path / "o" / "summary.json").read_text())
        assert set(summary["analysis"]) == {"gaussian"}
        assert os.path.exists(os.path.join(out, "drift_ecdf.dat"))

    @pytest.mark.parametrize("path", CONFIGS, ids=os.path.basename)
    def test_setup_probe_imports_no_numpy(self, path):
        # the set-up a run makes before it simulates: import, parse the
        # config, build the bundle and the walk config; modules that site
        # loaded before covwalk do not count
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys; before = set(sys.modules)\n"
             "import covwalk.config as c\n"
             "with open(sys.argv[1], encoding='utf-8') as fh:\n"
             "    b = c.build_bundle(c.parse_config_text(fh.read()))\n"
             "c.walk_config(b.config)\n"
             f"print(*sorted(set(sys.modules) - before & {STARTUP_MODULES | {'numpy'}!r}))\n",
             path],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.strip() == ""

    def test_import_leaves_the_kernel_unloaded(self):
        # the kernel is loaded by the first run, not by an import
        res = subprocess.run(
            [sys.executable, "-c",
             "import sys, covwalk.config; "
             "print('covwalk.segments' in sys.modules, 'subprocess' in sys.modules)"],
            capture_output=True,
            text=True,
            env=src_env(),
        )
        assert res.returncode == 0, res.stderr
        assert res.stdout.split() == ["False", "False"]

    def test_version_matches_pyproject(self):
        root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
        with open(os.path.join(root, "pyproject.toml"), encoding="utf-8") as fh:
            m = re.search(r'^version\s*=\s*"([^"]+)"', fh.read(), re.MULTILINE)
        assert m is not None
        assert covwalk.__version__ == m.group(1)


def src_env() -> dict:
    """The environment with this checkout's covwalk first on PYTHONPATH."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
