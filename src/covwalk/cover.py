"""Z^d-cover bookkeeping: the abelianization homomorphism, sheet indices,
and the drift cocycle.

A cover is specified by integer weight vectors, one per generator.  A point
of the cover is a reduced tangent on the base polygon plus an integer sheet
index; one walk step multiplies the tangent, reduces it back into the
polygon, and charges phi of the deck word to the index.  The index never
touches floating arithmetic.

Sign convention, fixed once: moving the representative back into the polygon
by the deck element w means the true point sat in sheet index - phi(w)
relative to the representative, so

    index' = index - phi(deck word of the reduction)

With this sign, on the square punctured torus with the upward tangent at i,
one step of the axis translation g2 raises the index by exactly phi(g2).
"""

from __future__ import annotations

import math
from functools import cached_property

from ._record import record
from . import hyp2
from . import fuchsian
from .hyp2 import GroupElement, UnitTangent
from .fuchsian import (
    CuspData,
    FundamentalPolygon,
    LatticePresentation,
    Word,
)


class RelatorNotKilledError(ValueError):
    """A relator has nonzero image under the weight homomorphism."""


class QuotientNotFreeRankError(ValueError):
    """The weight matrix does not present a free quotient of full rank d."""


IntVec = tuple[int, ...]


def phi_word(weights: dict[str, IntVec], d: int, word: Word) -> IntVec:
    out = [0] * d
    for lab, s in word:
        w = weights[lab]
        if s > 0:
            for i in range(d):
                out[i] += w[i]
        else:
            for i in range(d):
                out[i] -= w[i]
    return tuple(out)


def smith_invariants(rows: list[list[int]]) -> list[int]:
    """Nonzero invariant factors of an integer matrix (exact arithmetic)."""
    m = [list(r) for r in rows]
    if not m or not m[0]:
        return []
    nr, nc = len(m), len(m[0])
    invs: list[int] = []
    r = c = 0
    while r < nr and c < nc:
        # find a pivot with minimal nonzero absolute value
        piv = None
        for i in range(r, nr):
            for j in range(c, nc):
                if m[i][j] != 0 and (piv is None or abs(m[i][j]) < abs(m[piv[0]][piv[1]])):
                    piv = (i, j)
        if piv is None:
            break
        i0, j0 = piv
        m[r], m[i0] = m[i0], m[r]
        for row in m:
            row[c], row[j0] = row[j0], row[c]
        again = True
        while again:
            again = False
            for i in range(r + 1, nr):
                q = m[i][c] // m[r][c]
                if q:
                    for j in range(c, nc):
                        m[i][j] -= q * m[r][j]
                if m[i][c]:
                    m[r], m[i] = m[i], m[r]
                    again = True
            for j in range(c + 1, nc):
                q = m[r][j] // m[r][c]
                if q:
                    for i in range(r, nr):
                        m[i][j] -= q * m[i][c]
                if m[r][j]:
                    for row in m:
                        row[c], row[j] = row[j], row[c]
                    again = True
        invs.append(abs(m[r][c]))
        r += 1
        c += 1
    # enforce divisibility chain (sufficient here: tests only need unit factors)
    for i in range(len(invs) - 1):
        for j in range(i + 1, len(invs)):
            a, b = invs[i], invs[j]
            g = math.gcd(a, b)
            invs[i], invs[j] = g, a // g * b
    invs.sort()
    return invs


def integer_rank(vectors: list[IntVec]) -> tuple[int, list[int]]:
    """Rank over the rationals and indices of a maximal independent subset
    (exact arithmetic; rational and real rank agree).

    A vector is chosen when it is not in the span of those before it.  Each
    is reduced against the chosen rows in turn by fraction-free integer
    elimination: a multiple of the row is subtracted from a multiple of the
    vector, which clears the row's lead position and keeps the span test
    exact.  A chosen row is zero at the leads of the rows before it, so
    later steps keep earlier leads clear; it is divided by the gcd of its
    entries to keep them small."""
    basis: list[tuple[int, list[int]]] = []  # (lead position, row)
    chosen: list[int] = []
    for idx, vec in enumerate(vectors):
        v = list(vec)
        for lead, row in basis:
            if v[lead]:
                f, r = v[lead], row[lead]
                v = [r * x - f * y for x, y in zip(v, row)]
        nz = next((i for i, x in enumerate(v) if x), None)
        if nz is not None:
            g = math.gcd(*v)
            basis.append((nz, [x // g for x in v]))
            chosen.append(idx)
    return len(chosen), chosen


@record
class CoverSpec:
    """A validated Z^d cover of the base lattice.

    v[j] is the integer translation picked up by the j-th cusp loop, E_C_basis
    a maximal independent subset of the v's (defining the real span E_C), and
    unfolded[j] just v[j] != 0, all in exact integer arithmetic.
    """

    d: int
    weights: dict[str, IntVec]
    v: tuple[IntVec, ...]
    E_C_basis: tuple[IntVec, ...]
    unfolded: tuple[bool, ...]

    @property
    def dim_EC(self) -> int:
        return len(self.E_C_basis)

    def phi(self, word: Word) -> IntVec:
        return phi_word(self.weights, self.d, word)


def validate_cover(
    pres: LatticePresentation,
    cusps: tuple[CuspData, ...],
    weights: dict[str, IntVec],
    d: int | None = None,
) -> CoverSpec:
    """Check the weights define a surjection onto Z^d with free quotient and
    fill in the cusp translation data.

    Relators must map to zero exactly; the Smith normal form of the weight
    matrix must have exactly d invariant factors, all equal to one.
    """
    labels = pres.labels
    missing = [lab for lab in labels if lab not in weights]
    if missing:
        raise QuotientNotFreeRankError(f"missing weights for generators {missing}")
    dims = {len(weights[lab]) for lab in labels}
    if len(dims) != 1:
        raise QuotientNotFreeRankError("weight vectors have mixed lengths")
    dd = dims.pop()
    if d is not None and d != dd:
        raise QuotientNotFreeRankError(f"weights have length {dd}, expected d={d}")
    d = dd
    if d < 1:
        raise QuotientNotFreeRankError("d must be at least 1")

    for rel in pres.relators:
        img = phi_word(weights, d, rel)
        if any(img):
            raise RelatorNotKilledError(
                f"relator {fuchsian.word_str(rel)!r} maps to {img}, not zero"
            )

    rows = [list(weights[lab]) for lab in labels]
    invs = smith_invariants(rows)
    if len(invs) != d or any(f != 1 for f in invs):
        raise QuotientNotFreeRankError(
            f"Smith invariant factors {invs} do not certify a free rank-{d} quotient"
        )

    v = tuple(phi_word(weights, d, c.parabolic_word) for c in cusps)
    nonzero = [vec for vec in v if any(vec)]
    _, chosen = integer_rank(nonzero)
    basis = tuple(nonzero[i] for i in chosen)
    unfolded = tuple(any(vec) for vec in v)
    return CoverSpec(d=d, weights=dict(weights), v=v, E_C_basis=basis, unfolded=unfolded)


@record
class CoverPoint:
    """A reduced tangent on the base plus an exact integer sheet index."""

    rep: UnitTangent
    index: IntVec


@record
class OrbitTable:
    """A finite orbit compiled to integers: ``reps[s]`` is the reduced tangent
    of state s (state 0 is the start) and ``moves[s][j]`` the state reached
    by letter j together with the index change of that step."""

    reps: tuple[UnitTangent, ...]
    moves: tuple[tuple[tuple[int, IntVec], ...], ...]


# the greedy descent tries CoverSystem.fast_unwind on its iterations 7, 15,
# 23, ... (it & UNWIND_MASK == UNWIND_MASK); the trajectory engine and
# reduce_raw share this cadence, so a replay through apply_step is bit-exact.
# Descent depth has the 1/x tail of the Haar cusp law, so deep windings are
# common enough that an early unwind saves more pairings than its tries cost.
UNWIND_MASK = 7

# orbits of at most this many states under the generators and their inverses
# are walked through an OrbitTable by CoverSystem.stepper
ORBIT_TABLE_STATES = 16


class CoverSystem:
    """Compiled geometry + cover: the hot path of the whole laboratory.

    Precomputes, per polygon side, the inequality coefficients, the pairing
    matrix and its integer phi charge, so a walk step is a handful of float
    multiplies plus integer additions.
    """

    def __init__(
        self,
        pres: LatticePresentation,
        polygon: FundamentalPolygon,
        cusps: tuple[CuspData, ...],
        spec: CoverSpec,
    ):
        self.pres = pres
        self.polygon = polygon
        self.cusps = cusps
        self.spec = spec
        self.d = spec.d
        self.planes = tuple(
            (s.plane.alpha, s.plane.beta, s.plane.delta) for s in polygon.sides
        )
        self.pair_mats = tuple(s.pairing.as_tuple() for s in polygon.sides)
        self.pair_phis = tuple(
            spec.phi(s.pairing_word) for s in polygon.sides
        )
        self.pair_words = tuple(s.pairing_word for s in polygon.sides)
        self.corner_mats = tuple(
            corner.chart.as_tuple() for c in cusps for corner in c.corners
        )
        self.zero = (0,) * spec.d
        gens = tuple(g for _, g in pres.generators)
        self.letters = gens + tuple(hyp2.inverse(g) for g in gens)
        self._build_fast_unwind()

    def _build_fast_unwind(self) -> None:
        """Per corner: the data needed to unwind many horocyclic deck moves
        in one stroke.  In the corner chart the cusp's deck translations are
        u -> u + width; pulling n(-k*width) back through the chart applies the
        k-th power of (a conjugate of) the primitive parabolic, whose phi
        charge is k times the cusp translation vector, exactly."""
        inv_mats = []
        signed_phis = []
        widths = []
        for phi_p, cusp in zip(self.spec.v, self.cusps):
            for corner in cusp.corners:
                mv = corner.chart
                mvi = hyp2.inverse(mv)
                strip_step = hyp2.compose(
                    hyp2.compose(mvi, hyp2.unipotent(cusp.width)), mv
                )
                a_inv = hyp2.compose(cusp.normalizer, mv)  # the corner's deck element
                conj = hyp2.compose(
                    hyp2.compose(hyp2.inverse(a_inv), cusp.parabolic), a_inv
                )
                if hyp2.psl_distance(strip_step, conj) < 1e-6:
                    s = 1
                elif hyp2.psl_distance(strip_step, hyp2.inverse(conj)) < 1e-6:
                    s = -1
                else:
                    raise fuchsian.AreaMismatchError(
                        "corner chart translation is not a parabolic power"
                    )
                inv_mats.append(mvi.as_tuple())
                signed_phis.append(tuple(s * v for v in phi_p))
                widths.append(cusp.width)
        self.corner_inv_mats = tuple(inv_mats)
        self.corner_signed_phi = tuple(signed_phis)
        self.corner_widths = tuple(widths)

    def fast_unwind(
        self, a: float, b: float, c: float, d: float
    ) -> tuple[float, float, float, float, int, IntVec] | None:
        """If the base point winds deep in some cusp sector, jump it back by
        the whole number of strip widths in one move.  Returns the moved
        matrix, the winding count k and the phi charge per unit k (so the
        caller's index gains k * phi), or None when not applicable."""
        den = c * c + d * d
        x = (a * c + b * d) / den
        y = 1.0 / den
        best, best_im = -1, math.e  # engage only above cusp height 1
        for i, (ma, mb, mc, md) in enumerate(self.corner_mats):
            t = mc * x + md
            im = y / (t * t + (mc * y) ** 2)
            if im > best_im:
                best, best_im = i, im
        if best < 0:
            return None
        ma, mb, mc, md = self.corner_mats[best]
        sa = ma * a + mb * c
        sb = ma * b + mb * d
        sc = mc * a + md * c
        sd = mc * b + md * d
        sden = sc * sc + sd * sd
        u = (sa * sc + sb * sd) / sden
        w = self.corner_widths[best]
        k = math.floor(u / w)
        if k == 0:
            return None
        kw = k * w
        sa -= kw * sc
        sb -= kw * sd
        ia, ib, ic, id_ = self.corner_inv_mats[best]
        return (
            ia * sa + ib * sc,
            ia * sb + ib * sd,
            ic * sa + id_ * sc,
            ic * sb + id_ * sd,
            k,
            self.corner_signed_phi[best],
        )

    @cached_property
    def haar_parts(
        self,
    ) -> tuple[tuple[fuchsian.CuspSector, ...], fuchsian.CoreRegion]:
        """The cusp sectors and compact core at height 0 that
        ``fuchsian.haar_sample`` draws from; computed on first use."""
        return fuchsian.cusp_neighborhoods(self.polygon, self.cusps, 0.0)

    # -- fast primitives ----------------------------------------------------

    def reduce_raw(
        self,
        m: tuple[float, float, float, float],
        index: IntVec,
        collect_word: bool = False,
    ) -> tuple[tuple[float, float, float, float], IntVec, Word | None]:
        """Greedy Dirichlet descent on raw matrix entries: the one Python
        descent and the trajectory engine's reference.

        While the base point violates some side inequality by more than
        EPS_GEOM, apply the first such side's pairing (sides in stored
        order) and charge its phi to the index; each pairing strictly
        decreases the distance to the polygon center, and discreteness makes
        the descent finite.  Without ``collect_word``, iterations 7, 15, 23,
        ... try ``fast_unwind`` first, as the engine does.  Returns the
        reduced matrix (not sign-canonicalized), the updated index, and with
        ``collect_word`` the deck word (newest letter leftmost; no unwind is
        then tried, so every pairing is a letter)."""
        a, b, c, d = m
        planes = self.planes
        mats = self.pair_mats
        phis = self.pair_phis
        eps = fuchsian.EPS_GEOM
        word: list | None = [] if collect_word else None
        for it in range(fuchsian.MAX_REDUCE_ITER):
            den = c * c + d * d
            px = (a * c + b * d) / den
            py = 1.0 / den
            pr2 = px * px + py * py
            hit = -1
            for i, (al, be, de) in enumerate(planes):
                if al * pr2 + be * px + de > eps:
                    hit = i
                    break
            if hit < 0:
                w = None if word is None else tuple(reversed(word))
                return (a, b, c, d), index, w
            if word is None and it & UNWIND_MASK == UNWIND_MASK:
                unw = self.fast_unwind(a, b, c, d)
                if unw is not None:
                    a, b, c, d, k, ph = unw
                    index = tuple(q + k * p for q, p in zip(index, ph))
                    continue
            pa, pb, pc, pd = mats[hit]
            a, b, c, d = (
                pa * a + pb * c,
                pa * b + pb * d,
                pc * a + pd * c,
                pc * b + pd * d,
            )
            det = a * d - b * c
            if abs(det - 1.0) > 1e-12:
                s = 1.0 / math.sqrt(det)
                a, b, c, d = a * s, b * s, c * s, d * s
            ph = phis[hit]
            index = tuple(q - p for q, p in zip(index, ph))
            if word is not None:
                word.extend(reversed(self.pair_words[hit]))
        raise fuchsian.NonTerminationError(
            "reduction did not terminate; invalid geometry"
        )

    # -- public operations ---------------------------------------------------

    def start_point(self, x: UnitTangent) -> CoverPoint:
        """Reduce a raw tangent with reduce_raw and assign it sheet index
        zero; the representative is rebuilt by ``hyp2.element``."""
        m, _, _ = self.reduce_raw(x.rep.as_tuple(), self.zero)
        return CoverPoint(rep=UnitTangent(hyp2.element(*m)), index=self.zero)

    def apply_step(self, p: CoverPoint, g: GroupElement) -> CoverPoint:
        """One step with the trajectory engine's arithmetic: multiply, reduce
        with reduce_raw, and keep the determinant as reduce_raw leaves it
        (only the sign is canonicalized; ``hyp2.element`` would rescale at a
        tighter threshold than the engine does).  A replay through apply_step
        therefore follows the engine's path bit for bit."""
        m = p.rep.rep
        moved = (
            m.a * g.a + m.b * g.c,
            m.a * g.b + m.b * g.d,
            m.c * g.a + m.d * g.c,
            m.c * g.b + m.d * g.d,
        )
        new_m, new_idx, _ = self.reduce_raw(moved, p.index)
        return CoverPoint(
            rep=UnitTangent(GroupElement(*hyp2.canonical_entries(*new_m))),
            index=new_idx,
        )

    def orbit_table(
        self,
        start: UnitTangent,
        letters: tuple[GroupElement, ...],
        max_states: int,
    ) -> OrbitTable | None:
        """Enumerate the orbit of the reduced start under the letters, breadth
        first, and compile it to integers.  States are told apart by their
        entries rounded to 1e-9, up to sign.  Returns None when the orbit has
        more than ``max_states`` states (treated as infinite)."""
        p0 = self.start_point(start)
        reps = [p0.rep]
        ids = {_orbit_key(p0.rep.rep): 0}
        moves = []
        for rep in reps:  # grows while we scan it; every rep is reduced
            base = CoverPoint(rep=rep, index=self.zero)
            row = []
            for g in letters:
                q = self.apply_step(base, g)
                key = _orbit_key(q.rep.rep)
                t = ids.get(key)
                if t is None:
                    if len(reps) >= max_states:
                        return None
                    t = ids[key] = len(reps)
                    reps.append(q.rep)
                row.append((t, q.index))
            moves.append(tuple(row))
        return OrbitTable(reps=tuple(reps), moves=tuple(moves))

    def stepper(self, p: CoverPoint):
        """Step function from p; each step is a pure function of the current
        state and the letter, so no step depends on the path that led there.

        Conjugation by hyperbolic increments amplifies floating error
        exponentially, so recomputing a finite orbit in floats drifts off it
        within ~100 steps.  When the orbit of p under the generators and their
        inverses has at most ORBIT_TABLE_STATES states, steps by those letters
        therefore walk its compiled OrbitTable, (state, letter) -> (state,
        index change), in integers.  Any other letter, and every step after
        it, goes through apply_step: the plain reduce_raw kernel, no cache.
        The trajectory engine makes the same split over its step letters.
        """
        table = self.orbit_table(p.rep, self.letters, ORBIT_TABLE_STATES)
        letter_pos = {g.as_tuple(): j for j, g in enumerate(self.letters)}
        cur = p
        state = 0 if table is not None else -1

        def step(g: GroupElement) -> CoverPoint:
            nonlocal cur, state
            j = letter_pos.get(g.as_tuple()) if state >= 0 else None
            if j is None:
                state = -1
                cur = self.apply_step(cur, g)
            else:
                state, delta = table.moves[state][j]
                cur = CoverPoint(
                    rep=table.reps[state],
                    index=tuple(a + b for a, b in zip(cur.index, delta)),
                )
            return cur

        return step

    def sigma_path(
        self, p: CoverPoint, word: list[GroupElement]
    ) -> list[IntVec]:
        """Cumulative index changes after each letter (exact integers), taken
        through ``stepper``: the finite-orbit table where it applies, the plain
        kernel otherwise.  Both are history-free, so the cocycle identity
        sigma(p, uv) = sigma(p, u) + sigma(q, v), q = p moved by u, holds
        exactly."""
        out: list[IntVec] = []
        step = self.stepper(p)
        base = p.index
        for g in word:
            cur = step(g)
            out.append(tuple(a - b for a, b in zip(cur.index, base)))
        return out

    def sigma(self, p: CoverPoint, word: list[GroupElement]) -> IntVec:
        path = self.sigma_path(p, word)
        return path[-1] if path else self.zero


def _orbit_key(m: GroupElement) -> tuple[int, ...]:
    """Entries rounded to 1e-9, the same for m and -m: the sign-canonical
    form flips with the sign of c when c is a rounding error from zero."""
    key = tuple(round(v * 1e9) for v in m.as_tuple())
    return min(key, tuple(-v for v in key))


def cover_system(
    pres: LatticePresentation,
    polygon: FundamentalPolygon,
    cusps: tuple[CuspData, ...],
    spec: CoverSpec,
) -> CoverSystem:
    return CoverSystem(pres, polygon, cusps, spec)
