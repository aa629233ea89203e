"""The benchmark's workloads: config templates, sizes and expected outputs.

Each workload is one covwalk experiment config, filled in from a template
with the run's seed.  The seed only picks the Philox master seed of the
config, so two runs with the same seed simulate the same trajectories.
The sizes keep one CLI run near two seconds on a 2-core Xeon, so that a
run of the benchmark can repeat it several times.
"""

from __future__ import annotations

from dataclasses import dataclass

_GAMMA2_UNFOLDED = """\
[lattice]
preset = gamma2

[weights]
A = 1
B = 0
"""

_TORUS_ATOMS = """\
[measure]
type = atoms
atom.1 = g1 0.5
atom.2 = g2 0.5
"""


@dataclass(frozen=True)
class Workload:
    name: str
    template: str  # str.format template with {seed}
    trajectories: int
    steps: int
    checkpoints: str
    threads: int

    def config_text(self, seed: int) -> str:
        return self.template.format(
            seed=seed,
            steps=self.steps,
            trajectories=self.trajectories,
            checkpoints=self.checkpoints,
        )

    def checkpoint_steps(self) -> list[int]:
        """The checkpoint step counts the config asks for, derived here from
        the config grammar rather than taken from covwalk."""
        kind, _, rest = self.checkpoints.partition(":")
        n = self.steps
        out: list[int] = []
        if kind == "linear":
            out = list(range(int(rest), n + 1, int(rest)))
        else:
            n0, ratio = rest.split(":")
            x = float(n0)
            while x <= n + 0.5:
                k = int(round(x))
                if not out or k > out[-1]:
                    out.append(k)
                x *= float(ratio)
        if not out or out[-1] != n:
            out.append(n)
        return out

    @property
    def trajectory_steps(self) -> int:
        return self.trajectories * self.steps


WALK_UNFOLDED = Workload(
    name="walk-unfolded",
    template=_GAMMA2_UNFOLDED
    + """
[measure]
type = parametric
tau_min = 0.5
tau_max = 1.5

[walk]
mode = walk
steps = {steps}
trajectories = {trajectories}
seed = {seed}
checkpoints = {checkpoints}
start = haar

[analysis]
reports = drift cauchy accumulation
""",
    trajectories=200,
    steps=1000,
    checkpoints="geometric:100:1.25",
    threads=1,
)

ORBIT_PINNED = Workload(
    name="orbit-pinned",
    template="""\
[lattice]
preset = punctured_square_torus

[weights]
g1 = 0
g2 = 1

"""
    + _TORUS_ATOMS
    + """
[walk]
mode = walk
steps = {steps}
trajectories = {trajectories}
seed = {seed}
checkpoints = {checkpoints}
start = special

[analysis]
reports = drift
""",
    trajectories=50,
    steps=10000,
    checkpoints="linear:1000",
    threads=1,
)

RECURRENCE_LONG = Workload(
    name="recurrence-long",
    template="""\
[lattice]
preset = punctured_square_torus

[weights]
g1 = 1 0
g2 = 0 1

"""
    + _TORUS_ATOMS
    + """
[walk]
mode = walk
steps = {steps}
trajectories = {trajectories}
seed = {seed}
checkpoints = {checkpoints}
start = haar
return_radius = 2.0
return_grid = 2000 {steps}

[analysis]
reports = drift recurrence
""",
    trajectories=50,
    steps=10000,
    checkpoints="linear:10000",
    threads=2,
)

WORKLOADS = {
    w.name: w
    for w in (WALK_UNFOLDED, ORBIT_PINNED, RECURRENCE_LONG)
}
