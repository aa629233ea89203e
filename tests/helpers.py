"""Helpers only the tests use: word reduction, lattice-file formatting, the
hexagon lattice's generators, the geodesic flow of one tangent, cusp excursions of a per-step trace, the
empirical cusp bound of the one-step index change and a rational-arithmetic
reference for ``cover.integer_rank``."""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from covwalk import hyp2
from covwalk.cover import CoverSystem, IntVec
from covwalk.fuchsian import LatticePresentation, Word, word_str
from covwalk.hyp2 import GroupElement, UnitTangent


def free_reduce(word: Word) -> Word:
    out: list[tuple[str, int]] = []
    for letter in word:
        if out and out[-1][0] == letter[0] and out[-1][1] == -letter[1]:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def format_lattice_text(
    pres: LatticePresentation, weights: dict[str, tuple[int, ...]] | None = None
) -> str:
    """A lattice file that ``fuchsian.parse_lattice_text`` reads back."""
    lines = []
    for lab, g in pres.generators:
        lines.append(f"[generator] {lab} = {g.a!r} {g.b!r} {g.c!r} {g.d!r}")
    for w in pres.relators:
        lines.append(f"[relator] {word_str(w)}")
    if weights:
        lines.append("[weights]")
        for lab in sorted(weights):
            lines.append(f"{lab} = " + " ".join(str(k) for k in weights[lab]))
    return "\n".join(lines) + "\n"


def hexagon_generators() -> tuple[tuple[str, GroupElement], ...]:
    """The regular ideal hexagon about i with opposite sides paired: the
    translations by 2 ln(2 + sqrt 3) along the axes through i at angles 0,
    pi/3 and 2pi/3.  The surface is a torus with two punctures, and no
    ideal vertex lies at infinity."""
    length = 2.0 * math.log(2.0 + math.sqrt(3.0))
    return tuple(
        (f"g{k + 1}", hyp2.compose_all(hyp2.rotation(k * math.pi / 3),
                                       hyp2.translation(length),
                                       hyp2.rotation(-k * math.pi / 3)))
        for k in range(3)
    )


def geodesic_flow(x: UnitTangent, t: float) -> UnitTangent:
    """Move the tangent time t along its own geodesic."""
    return UnitTangent(hyp2.compose(x.rep, hyp2.translation(t)))


@dataclass(frozen=True)
class ExcursionRecord:
    """One maximal interval a trajectory spends above height h in a cusp."""

    cusp_id: int
    entry: float
    exit: float
    index_delta: IntVec
    max_height: float


def cusp_excursions(
    steps: list[tuple[float, int, float, IntVec]],
) -> list[ExcursionRecord]:
    """Maximal intervals above the cusp height threshold, from a per-step
    trajectory trace of (time_or_step, cusp_id_or_-1, height, index)."""
    out: list[ExcursionRecord] = []
    open_cusp = -1
    entry_t = 0.0
    entry_idx: IntVec = ()
    peak = -math.inf
    last_t = 0.0
    last_idx: IntVec = ()
    for t, cusp, h, idx in steps:
        if open_cusp >= 0 and cusp != open_cusp:
            out.append(
                ExcursionRecord(
                    cusp_id=open_cusp,
                    entry=entry_t,
                    exit=t,
                    index_delta=tuple(a - b for a, b in zip(idx, entry_idx)),
                    max_height=peak,
                )
            )
            open_cusp = -1
        if cusp >= 0 and open_cusp < 0:
            open_cusp = cusp
            entry_t = t
            entry_idx = idx
            peak = h
        elif cusp >= 0:
            peak = max(peak, h)
        last_t, last_idx = t, idx
    if open_cusp >= 0:
        out.append(
            ExcursionRecord(
                cusp_id=open_cusp,
                entry=entry_t,
                exit=last_t,
                index_delta=tuple(a - b for a, b in zip(last_idx, entry_idx)),
                max_height=peak,
            )
        )
    return out


def sigma_cusp_bound_check(
    system: CoverSystem,
    cusp_index: int,
    atoms: list[GroupElement],
    heights: list[float],
    samples_per_height: int,
    rng,
) -> list[tuple[float, float]]:
    """Empirical sup of |sigma(x, g)| / e^t over points x at cusp height t.

    The single-step index change of a point that sits at height t in a cusp
    is at most C e^t; the returned ratios should stay bounded (and tend to
    zero when the cusp is not unfolded).
    """
    cusp = system.cusps[cusp_index]
    out = []
    for t in heights:
        worst = 0.0
        for _ in range(samples_per_height):
            u = rng.random() * cusp.width
            theta = rng.random() * 2.0 * math.pi
            g = hyp2.compose(
                cusp.normalizer,
                hyp2.compose(hyp2.unipotent(u), hyp2.translation(t)),
            )
            x = UnitTangent(hyp2.compose(g, hyp2.rotation(theta)))
            p = system.start_point(x)
            for atom in atoms:
                q = system.apply_step(p, atom)
                norm = math.sqrt(sum(k * k for k in q.index))
                worst = max(worst, norm / math.exp(t))
        out.append((t, worst))
    return out


def integer_rank_fraction(vectors: list[IntVec]) -> tuple[int, list[int]]:
    """``cover.integer_rank`` by Gaussian elimination over the rationals:
    the rank and the indices of the vectors outside the span of those
    before them."""
    basis: list[tuple[int, list[Fraction]]] = []  # (lead position, row)
    chosen: list[int] = []
    for idx, vec in enumerate(vectors):
        v = [Fraction(x) for x in vec]
        for lead, row in sorted(basis, key=lambda p: p[0]):
            if v[lead]:
                f = v[lead] / row[lead]
                v = [x - f * y for x, y in zip(v, row)]
        nz = next((i for i, x in enumerate(v) if x != 0), None)
        if nz is not None:
            basis.append((nz, v))
            chosen.append(idx)
    return len(chosen), chosen
