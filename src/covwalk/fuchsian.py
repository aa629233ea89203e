"""Lattices in PSL(2,R): presentations, fundamental polygons, cusps.

The polygon machinery works in two charts at once.  Construction happens in
the Klein disk, where geodesics are straight chords and a Dirichlet domain
is a finite intersection of Euclidean half-planes, clipped with standard
convex-polygon clipping.  Membership tests happen in the upper half-plane
(as does the greedy reduction, ``cover.CoverSystem.reduce_raw``), where
every bounding geodesic is one inequality

    alpha * (x^2 + y^2) + beta * x + delta <= 0

covering vertical lines (alpha = 0) and semicircles centered on the real
axis alike.

A word in the generators is a tuple of (label, +1|-1) letters and evaluates
left-to-right as a matrix product.
"""

from __future__ import annotations

import math

from ._record import record
from . import hyp2
from .hyp2 import GroupElement, PointH, UnitTangent

EPS_GEOM = 1e-9          # side-inequality tolerance for membership / reduction
MAX_REDUCE_ITER = 10**6  # greedy descent iteration guard
_KLEIN_BOX = 4.0         # initial clipping square half-width (disk has radius 1)
_IDEAL_TOL = 1e-7        # |k| within this of 1 counts as an ideal vertex


class PresentationError(ValueError):
    """A lattice presentation failed validation."""


class AreaMismatchError(RuntimeError):
    """Polygon area disagrees with the Euler-characteristic prediction."""


class EllipticCenterError(RuntimeError):
    """Dirichlet center is fixed by a nontrivial group element."""


class NonTerminationError(RuntimeError):
    """Greedy reduction, or the Haar sampler's core rejection loop, failed to
    terminate (bad polygon/presentation pair)."""


class OverlappingHoroballsError(RuntimeError):
    """Requested cusp height is too low: horoball sectors would overlap."""


# ---------------------------------------------------------------------------
# words

Word = tuple[tuple[str, int], ...]


def parse_word(text: str) -> Word:
    """Parse 'A B^-1 g1' into ((A,1),(B,-1),(g1,1)).  Empty text: identity."""
    letters = []
    for tok in text.split():
        if "^" in tok:
            label, exp = tok.split("^", 1)
            e = int(exp)
            if e == 0:
                continue
            sign = 1 if e > 0 else -1
            letters.extend([(label, sign)] * abs(e))
        else:
            letters.append((tok, 1))
    return tuple(letters)


def word_str(word: Word) -> str:
    return " ".join(lab if s > 0 else f"{lab}^-1" for lab, s in word)


def word_inverse(word: Word) -> Word:
    return tuple((lab, -s) for lab, s in reversed(word))


def evaluate_word(gens: dict[str, GroupElement], word: Word) -> GroupElement:
    g = hyp2.IDENTITY
    for lab, s in word:
        h = gens[lab]
        g = hyp2.compose(g, h if s > 0 else hyp2.inverse(h))
    return g


# ---------------------------------------------------------------------------
# presentations

@record
class LatticePresentation:
    """Ordered generators plus relator words (empty for free groups)."""

    generators: tuple[tuple[str, GroupElement], ...]
    relators: tuple[Word, ...] = ()

    @property
    def labels(self) -> tuple[str, ...]:
        return tuple(lab for lab, _ in self.generators)

    def gen_map(self) -> dict[str, GroupElement]:
        return dict(self.generators)

    def evaluate(self, word: Word) -> GroupElement:
        return evaluate_word(self.gen_map(), word)

    def validate(self) -> None:
        seen = set()
        for lab, g in self.generators:
            if lab in seen:
                raise PresentationError(f"duplicate generator label {lab!r}")
            seen.add(lab)
            kind = hyp2.classify(g).kind
            if kind == "elliptic":
                raise PresentationError(f"generator {lab!r} is elliptic (torsion)")
            if kind == "identity":
                raise PresentationError(f"generator {lab!r} is the identity")
        for w in self.relators:
            g = self.evaluate(w)
            if hyp2.psl_distance(g, hyp2.IDENTITY) > 1e-9:
                raise PresentationError(
                    f"relator {word_str(w)!r} does not evaluate to the identity"
                )

    def euler_characteristic(self) -> int:
        # presentation complex of a surface group: one 0-cell, one 1-cell per
        # generator, one 2-cell per relator
        return 1 - len(self.generators) + len(self.relators)


# ---------------------------------------------------------------------------
# half-planes in the upper half-plane model

@record(slots=True)
class HalfPlane:
    """The region alpha*(x^2+y^2) + beta*x + delta <= 0."""

    alpha: float
    beta: float
    delta: float

    def value(self, x: float, y: float) -> float:
        return self.alpha * (x * x + y * y) + self.beta * x + self.delta

    def endpoints(self) -> tuple[float, float]:
        """Ideal endpoints of the bounding geodesic (math.inf for infinity)."""
        if abs(self.alpha) < 1e-14 * max(abs(self.beta), 1.0):
            return (-self.delta / self.beta, math.inf)
        disc = self.beta * self.beta - 4.0 * self.alpha * self.delta
        rt = math.sqrt(max(disc, 0.0))
        u1 = (-self.beta - rt) / (2.0 * self.alpha)
        u2 = (-self.beta + rt) / (2.0 * self.alpha)
        return (u1, u2)


def bisector_halfplane(center: complex, other: complex) -> HalfPlane:
    """Points at least as close to center as to other (hyperbolically)."""
    y1, y2 = center.imag, other.imag
    alpha = y2 - y1
    w = y2 * center - y1 * other
    beta = -2.0 * w.real
    delta = y2 * abs(center) ** 2 - y1 * abs(other) ** 2
    scale = max(abs(alpha), abs(beta), abs(delta))
    return HalfPlane(alpha / scale, beta / scale, delta / scale)


# ---------------------------------------------------------------------------
# boundary charts: half-plane <-> Poincare disk <-> Klein disk

def _cayley_boundary(u: float) -> complex:
    """Boundary point of H (real or +inf) to the unit circle."""
    if math.isinf(u):
        return complex(1.0, 0.0)
    w = complex(u, -1.0) / complex(u, 1.0)
    return w / abs(w)


def _cayley_interior(z: complex) -> complex:
    return (z - 1j) / (z + 1j)


def _klein_from_disk(w: complex) -> complex:
    return 2.0 * w / (1.0 + abs(w) ** 2)


def _disk_from_klein(k: complex) -> complex:
    r2 = abs(k) ** 2
    return k / (1.0 + math.sqrt(max(0.0, 1.0 - r2)))


def _halfplane_point_from_disk(w: complex) -> complex:
    return 1j * (1.0 + w) / (1.0 - w)


# ---------------------------------------------------------------------------
# polygon data

@record(slots=True)
class Vertex:
    """Polygon vertex; ideal vertices sit on the boundary circle.

    For an ideal vertex, ``boundary`` is the real coordinate (math.inf for
    the vertex at infinity) and (x, y) is meaningless.  Finite vertices carry
    half-plane coordinates.
    """

    x: float
    y: float
    ideal: bool
    boundary: float = math.nan


@record
class Side:
    """One polygon side: a bounding geodesic plus its pairing.

    ``pairing`` is the element to apply to a point that violates this side's
    inequality; it strictly decreases the distance to the polygon center.
    ``source_word`` is the group word gamma whose bisector with the center
    produced the side; pairing = gamma^{-1}.
    """

    plane: HalfPlane
    source_word: Word
    pairing_word: Word
    pairing: GroupElement


@record
class FundamentalPolygon:
    """A finite-sided Dirichlet domain with ccw side/vertex lists.

    sides[i] runs from vertices[i] to vertices[(i+1) % n].  ``area`` is the
    hyperbolic area from the Gauss-Bonnet angle formula.
    """

    center: PointH
    sides: tuple[Side, ...]
    vertices: tuple[Vertex, ...]
    area: float

    @property
    def ideal_vertices(self) -> tuple[float, ...]:
        return tuple(v.boundary for v in self.vertices if v.ideal)

    def contains(self, x: float, y: float, tol: float = EPS_GEOM) -> bool:
        for s in self.sides:
            if s.plane.value(x, y) > tol:
                return False
        return True


# ---------------------------------------------------------------------------
# group enumeration

def enumerate_ball(
    pres: LatticePresentation, word_length_bound: int
) -> list[tuple[Word, GroupElement]]:
    """All nontrivial elements given by reduced words up to the bound.

    Deduplicates by the canonical matrix (catches relator coincidences), and
    evaluates words incrementally.
    """
    gens = pres.gen_map()
    letters: list[tuple[tuple[str, int], GroupElement]] = []
    for lab, g in pres.generators:
        letters.append(((lab, 1), g))
        letters.append(((lab, -1), hyp2.inverse(g)))

    seen = {_matrix_key(hyp2.IDENTITY)}
    out: list[tuple[Word, GroupElement]] = []
    frontier: list[tuple[Word, GroupElement]] = [((), hyp2.IDENTITY)]
    for _ in range(word_length_bound):
        nxt: list[tuple[Word, GroupElement]] = []
        for word, g in frontier:
            for letter, mat in letters:
                if word and word[-1] == (letter[0], -letter[1]):
                    continue  # free cancellation
                w2 = word + (letter,)
                g2 = hyp2.compose(g, mat)
                k = _matrix_key(g2)
                if k in seen:
                    continue
                seen.add(k)
                nxt.append((w2, g2))
        out.extend(nxt)
        frontier = nxt
    return out


# ---------------------------------------------------------------------------
# Dirichlet domain construction (clipping in the Klein disk)

def _chord_line(
    plane: HalfPlane, center_k: complex
) -> tuple[float, float, float]:
    """Klein-model Euclidean half-plane (nx, ny, c): n . k <= c equals the
    hyperbolic half-plane, oriented to contain center_k."""
    u1, u2 = plane.endpoints()
    p = _cayley_boundary(u1)
    q = _cayley_boundary(u2)
    dx, dy = q.real - p.real, q.imag - p.imag
    nx, ny = -dy, dx
    norm = math.hypot(nx, ny)
    nx, ny = nx / norm, ny / norm
    c = nx * p.real + ny * p.imag
    if nx * center_k.real + ny * center_k.imag > c:
        nx, ny, c = -nx, -ny, -c
    return nx, ny, c


def _clip(
    poly: list[tuple[complex, int]], nx: float, ny: float, c: float, src: int
) -> list[tuple[complex, int]]:
    """Clip a ccw polygon (vertex, id-of-edge-leaving-vertex) by n.k <= c."""
    if not poly:
        return poly
    out: list[tuple[complex, int]] = []
    n = len(poly)
    vals = [nx * v.real + ny * v.imag - c for v, _ in poly]
    tol = 1e-13
    for i in range(n):
        (v1, s1), f1 = poly[i], vals[i]
        (v2, _), f2 = poly[(i + 1) % n], vals[(i + 1) % n]
        in1, in2 = f1 <= tol, f2 <= tol
        if in1:
            out.append((v1, s1))
            if not in2:
                t = f1 / (f1 - f2)
                out.append((v1 + t * (v2 - v1), src))
        elif in2:
            t = f1 / (f1 - f2)
            out.append((v1 + t * (v2 - v1), s1))
    # drop degenerate (duplicate) vertices, preferring to keep the edge id of
    # the vertex that opens a genuinely new edge
    cleaned: list[tuple[complex, int]] = []
    for v, s in out:
        if cleaned and abs(v - cleaned[-1][0]) < 1e-12:
            continue
        cleaned.append((v, s))
    if len(cleaned) >= 2 and abs(cleaned[0][0] - cleaned[-1][0]) < 1e-12:
        cleaned.pop()
    return cleaned


_FREE_SRC = -1


def dirichlet_domain(
    pres: LatticePresentation,
    center: PointH,
    word_length_bound: int,
) -> FundamentalPolygon:
    """Dirichlet domain about ``center``: the points at least as close to the
    center as to every enumerated orbit point.

    The hyperbolic area must match 2*pi*|chi| of the presentation within 1e-6
    (certifying that the word bound sufficed and the group is the lattice it
    claims to be); otherwise AreaMismatchError, which a domain with free
    boundary arcs (an infinite-area group) raises too.
    """
    elements = enumerate_ball(pres, word_length_bound)
    c = complex(center.x, center.y)

    candidates: list[tuple[float, Word, GroupElement, complex]] = []
    for word, g in elements:
        gc = complex(*hyp2.mobius_xy(g.a, g.b, g.c, g.d, center.x, center.y))
        d = hyp2.distance(center, PointH(gc.real, gc.imag)) if gc.imag > 0 else 0.0
        if d <= 1e-9:
            raise EllipticCenterError(
                f"center fixed by nontrivial element {word_str(word)!r}"
            )
        candidates.append((d, word, g, gc))
    candidates.sort(key=lambda t: t[0])

    center_k = _klein_from_disk(_cayley_interior(c))
    box = _KLEIN_BOX
    poly: list[tuple[complex, int]] = [
        (complex(-box, -box), _FREE_SRC),
        (complex(box, -box), _FREE_SRC),
        (complex(box, box), _FREE_SRC),
        (complex(-box, box), _FREE_SRC),
    ]
    planes: list[HalfPlane] = []
    for idx, (_, _, g, gc) in enumerate(candidates):
        plane = bisector_halfplane(c, gc)
        planes.append(plane)
        nx, ny, cc = _chord_line(plane, center_k)
        poly = _clip(poly, nx, ny, cc, idx)
        if not poly:
            raise AreaMismatchError("half-planes clipped the domain away entirely")

    if not candidates:
        raise AreaMismatchError("word bound produced no group elements")

    has_free = any(s == _FREE_SRC for _, s in poly) or any(
        abs(v) > 1.0 + _IDEAL_TOL for v, _ in poly
    )
    if has_free:
        raise AreaMismatchError(
            "domain has free boundary (word bound too small or infinite covolume)"
        )

    # surviving sides in ccw order, with their vertices
    sides: list[Side] = []
    vertices: list[Vertex] = []
    srcs = [s for _, s in poly]
    for i, (kv, src) in enumerate(poly):
        r = abs(kv)
        if r >= 1.0 - _IDEAL_TOL:
            w = kv / r
            if abs(w - 1.0) < 1e-7:
                vertices.append(Vertex(math.nan, math.nan, True, math.inf))
            else:
                z = _halfplane_point_from_disk(w)
                vertices.append(Vertex(math.nan, math.nan, True, z.real))
        else:
            z = _halfplane_point_from_disk(_disk_from_klein(kv))
            vertices.append(Vertex(z.real, z.imag, False))
        _, word, g, _ = candidates[src]
        sides.append(
            Side(
                plane=planes[src],
                source_word=word,
                pairing_word=word_inverse(word),
                pairing=hyp2.inverse(g),
            )
        )

    area = _gauss_bonnet_area(sides, vertices)
    chi = pres.euler_characteristic()
    expected = 2.0 * math.pi * abs(chi)
    if not math.isfinite(area) or abs(area - expected) > 1e-6:
        raise AreaMismatchError(
            f"polygon area {area:.9f} vs 2*pi*|chi| = {expected:.9f}; "
            "increase the word length bound"
        )
    _partner_table(sides)  # raises when a side has no partner
    return FundamentalPolygon(
        center=center, sides=tuple(sides), vertices=tuple(vertices), area=area
    )


def _gauss_bonnet_area(sides: list, vertices: list[Vertex]) -> float:
    """(n-2)*pi minus the interior angles; ideal vertices contribute zero.

    Interior angle between adjacent half-planes at a shared finite vertex
    comes from their outward normals (the model is conformal, so Euclidean
    angles are hyperbolic angles).
    """
    n = len(sides)
    total = (n - 2) * math.pi
    for i, v in enumerate(vertices):
        if v.ideal:
            continue
        prev_side = sides[i - 1]
        next_side = sides[i]
        g1 = _grad(prev_side.plane, v.x, v.y)
        g2 = _grad(next_side.plane, v.x, v.y)
        dot = (g1[0] * g2[0] + g1[1] * g2[1]) / (
            math.hypot(*g1) * math.hypot(*g2)
        )
        dot = max(-1.0, min(1.0, dot))
        total -= math.pi - math.acos(dot)
    return total


def _grad(plane: HalfPlane, x: float, y: float) -> tuple[float, float]:
    return (2.0 * plane.alpha * x + plane.beta, 2.0 * plane.alpha * y)


# ---------------------------------------------------------------------------
# cusps

@record
class CornerChart:
    """One polygon corner belonging to a cusp.

    ``chart`` maps the corner's ideal vertex to infinity and the corner into
    the standard strip of the cusp, so Im(chart . z) > e^h tests membership
    of the height-h horoball sector through this corner.
    """

    vertex_index: int
    chart: GroupElement


@record
class CuspData:
    """One cusp of the quotient surface.

    ``normalizer`` g maps infinity to the fixed point; conjugating the
    primitive parabolic by g^{-1} gives the upper-unipotent translation by
    ``width``.  Charts are normalized so horoball sectors at height h >= 0
    are embedded and pairwise disjoint.
    """

    fixed_point: float                 # real coordinate, math.inf at infinity
    normalizer: GroupElement
    parabolic_word: Word
    parabolic: GroupElement
    width: float
    corners: tuple[CornerChart, ...]


def _act_boundary(g: GroupElement, u: float) -> float:
    if math.isinf(u):
        return g.a / g.c if abs(g.c) > 1e-14 else math.inf
    den = g.c * u + g.d
    if abs(den) < 1e-12 * max(1.0, abs(g.a * u + g.b)):
        return math.inf
    return (g.a * u + g.b) / den


def derive_cusps(
    polygon: FundamentalPolygon,
    pres: LatticePresentation,
    ball: list[tuple[Word, GroupElement]] | None = None,
) -> tuple[CuspData, ...]:
    """Group the polygon's ideal vertices into cusp cycles.

    Walking a vertex cycle multiplies the side pairings encountered around
    the cusp; the product is the primitive parabolic of that cusp.  The
    accumulated partial products give the corner charts.  All normalizers are
    rescaled by a common factor so that horoball sectors at height h >= 0
    embed (tangency bound 1/|c| over conjugated group elements, taken over
    ``ball`` or else the words of length at most 6).
    """
    n = len(polygon.sides)
    verts = polygon.vertices
    sides = polygon.sides

    partner = _partner_table(sides)

    ideal_idx = [i for i, v in enumerate(verts) if v.ideal]
    # start cycles at the infinity vertex first so it becomes the fixed point
    ideal_idx.sort(key=lambda i: 0 if math.isinf(verts[i].boundary) else 1)

    visited: set[int] = set()
    raw: list[tuple[int, Word, GroupElement, list[tuple[int, GroupElement, Word]]]] = []
    for start in ideal_idx:
        if start in visited:
            continue
        corners: list[tuple[int, GroupElement, Word]] = []
        acc = hyp2.IDENTITY
        acc_word: Word = ()
        vi, si = start, start  # outgoing side has the vertex's own index
        for _ in range(4 * n + 4):
            visited.add(vi)
            corners.append((vi, acc, acc_word))
            side = sides[si]
            img = _act_boundary(side.pairing, verts[vi].boundary)
            sj = partner[si]
            # endpoints of the partner side are vertices sj and sj+1
            cands = [sj, (sj + 1) % n]
            img_pt = _cayley_boundary(img)

            def _gap(j: int) -> float:
                if not verts[j].ideal:
                    return math.inf
                return abs(_cayley_boundary(verts[j].boundary) - img_pt)

            best = min(cands, key=_gap)
            if _gap(best) > 1e-6:
                raise AreaMismatchError(
                    "side pairing does not map vertices onto vertices"
                )
            acc = hyp2.compose(side.pairing, acc)
            acc_word = side.pairing_word + acc_word
            vi = best
            # continue along the other side incident to the image vertex
            si = (sj - 1) % n if best == sj else (sj + 1) % n
            if vi == start and si == start:
                break
        else:
            raise AreaMismatchError("cusp cycle did not close")
        raw.append((start, acc_word, acc, corners))

    # first pass: normalizers and raw widths
    data = []
    for start, cyc_word, cyc, corners in raw:
        fp = verts[start].boundary
        kind = hyp2.classify(cyc)
        if kind.kind != "parabolic":
            raise AreaMismatchError(
                f"cusp cycle product is {kind.kind}, expected parabolic"
            )
        if math.isinf(fp):
            g = hyp2.IDENTITY
        else:
            g = hyp2.element(fp, -1.0, 1.0, 0.0)
        q = hyp2.compose(hyp2.compose(hyp2.inverse(g), cyc), g)
        if abs(q.c) > 1e-7:
            raise AreaMismatchError("cusp cycle does not stabilize its vertex")
        w = q.b / q.a  # q = +/- [[1, w], [0, 1]] up to rounding
        word, par = cyc_word, cyc
        if w < 0:
            w = -w
            word = word_inverse(cyc_word)
            par = hyp2.inverse(cyc)
        data.append([fp, g, word, par, w, corners])

    # common rescale so horoballs at height >= 1 embed
    if ball is None:
        ball = enumerate_ball(pres, 6)
    y_star = 1.0
    norms = [g for _, g, _, _, _, _ in data]
    # the max over (gj, gk, gamma) is taken in any order, so gk^-1 gamma is
    # composed once per (gk, gamma) and shared by every gj
    for gk in norms:
        gk_inv = hyp2.inverse(gk)
        for _, gamma in [((), hyp2.IDENTITY)] + ball:
            ka, kb, kc, kd = hyp2.compose(gk_inv, gamma).as_tuple()
            for gj in norms:
                c = _composed_abs_c(ka, kb, kc, kd, gj)
                if c > 1e-9:
                    y_star = max(y_star, 1.0 / c)
    s = math.log(y_star)
    scale = hyp2.translation(s)

    out = []
    for fp, g, word, par, w, corners in data:
        g2 = hyp2.compose(g, scale)
        w2 = w / y_star
        charts = tuple(
            CornerChart(
                vertex_index=vi,
                chart=hyp2.compose(hyp2.inverse(g2), hyp2.inverse(acc)),
            )
            for vi, acc, _ in corners
        )
        out.append(
            CuspData(
                fixed_point=fp,
                normalizer=g2,
                parabolic_word=word,
                parabolic=par,
                width=w2,
                corners=charts,
            )
        )

    out.sort(key=lambda c: (0, 0.0) if math.isinf(c.fixed_point) else (1, c.fixed_point))
    _check_corner_widths(polygon, out)
    return tuple(out)


def _composed_abs_c(
    ka: float, kb: float, kc: float, kd: float, g: GroupElement
) -> float:
    """|c| of ``hyp2.compose(k, g)`` for k = (ka, kb, kc, kd), bit for bit,
    without building it: the same products and the determinant rescale of
    ``hyp2.element``; its sign flip leaves |c| as it is."""
    a = ka * g.a + kb * g.c
    b = ka * g.b + kb * g.d
    c = kc * g.a + kd * g.c
    d = kc * g.b + kd * g.d
    det = a * d - b * c
    m = max(abs(a), abs(b), abs(c), abs(d))
    if abs(det - 1.0) > 1e-13 * (1.0 + m * m):
        c = c * (1.0 / math.sqrt(det))
    return abs(c)


def _matrix_key(g: GroupElement) -> tuple[int, ...]:
    """g's entries rounded to 1e-9: equal for matrices equal up to rounding."""
    return tuple(round(v * 1e9) for v in g.as_tuple())


def _partner_table(sides: tuple[Side, ...] | list[Side]) -> list[int]:
    """For each side, the index of the side whose pairing is its pairing's
    inverse; AreaMismatchError when a side has none."""
    by_key = {_matrix_key(s.pairing): i for i, s in enumerate(sides)}
    partner = []
    for s in sides:
        j = by_key.get(_matrix_key(hyp2.inverse(s.pairing)))
        if j is None:
            raise AreaMismatchError(
                f"side from {word_str(s.source_word)!r} has no partner side"
            )
        partner.append(j)
    return partner


def _check_corner_widths(polygon: FundamentalPolygon, cusps: list[CuspData]) -> None:
    """The corner slices of each cusp must tile exactly one strip width.

    Under a corner chart the two sides through the ideal vertex become
    vertical lines; the slice width is their u-distance, and the widths of
    all corners of one cusp must sum to the cusp width.
    """
    n = len(polygon.sides)
    for cusp in cusps:
        total = 0.0
        for corner in cusp.corners:
            i = corner.vertex_index
            m = corner.chart
            us = []
            for side in (polygon.sides[i - 1], polygon.sides[i]):
                e1, e2 = side.plane.endpoints()
                v = polygon.vertices[i].boundary
                other = e2 if _same_boundary(e1, v) else e1
                us.append(_act_boundary(m, other))
            if any(math.isinf(u) for u in us):
                raise AreaMismatchError("corner chart failed to rectify sides")
            total += abs(us[1] - us[0])
        if abs(total - cusp.width) > 1e-6:
            raise AreaMismatchError(
                f"corner widths {total:.9f} disagree with cusp width {cusp.width:.9f}"
            )


def _same_boundary(u: float, v: float) -> bool:
    return abs(_cayley_boundary(u) - _cayley_boundary(v)) < 1e-7


def cusp_height(cusps: tuple[CuspData, ...], x: float, y: float) -> float:
    """Log height of the deepest cusp sector containing the point (it may be
    negative when the point sits in the compact core)."""
    best = -math.inf
    for cusp in cusps:
        for corner in cusp.corners:
            m = corner.chart
            cx = m.c * x + m.d
            im = y / (cx * cx + (m.c * y) ** 2)
            if im > 0:
                h = math.log(im)
                if h > best:
                    best = h
    return best


# ---------------------------------------------------------------------------
# builtin lattices

ARCSINH1 = math.asinh(1.0)


def builtin_lattice(
    name: str, l1: float | None = None, l2: float | None = None
) -> tuple[LatticePresentation, FundamentalPolygon, tuple[CuspData, ...]]:
    """Certified preset lattices.

    gamma2: the level-two congruence group, free on the two parabolics
        A = [[1,2],[0,1]] and B = [[1,0],[2,1]]; quotient is a sphere with
        three cusps at infinity, 0 and 1, total area 2*pi.

    punctured_square_torus(l1, l2): free on the hyperbolics
        g1 = rotation(-pi/2) a_{l1} rotation(pi/2) and g2 = a_{l2}, whose axes
        cross orthogonally at i.  Finite area with a single cusp requires
        sinh(l1/2) sinh(l2/2) = 1 (the commutator is then parabolic); defaults
        l1 = l2 = 2 asinh(1).
    """
    if name == "gamma2":
        pres = LatticePresentation(
            generators=(
                ("A", hyp2.element(1.0, 2.0, 0.0, 1.0)),
                ("B", hyp2.element(1.0, 0.0, 2.0, 1.0)),
            ),
        )
        center = PointH(0.0, 1.0)
        bound = 3
    elif name == "punctured_square_torus":
        l1 = 2.0 * ARCSINH1 if l1 is None else l1
        l2 = 2.0 * ARCSINH1 if l2 is None else l2
        if l1 <= 0 or l2 <= 0:
            raise PresentationError("torus lengths must be positive")
        if abs(math.sinh(0.5 * l1) * math.sinh(0.5 * l2) - 1.0) > 1e-9:
            raise PresentationError(
                "punctured torus needs sinh(l1/2)*sinh(l2/2) = 1 "
                "(otherwise the commutator is not parabolic and the quotient "
                "is not a finite-area one-cusp surface)"
            )
        ch, sh = math.cosh(0.5 * l1), math.sinh(0.5 * l1)
        pres = LatticePresentation(
            generators=(
                ("g1", hyp2.element(ch, -sh, -sh, ch)),
                ("g2", hyp2.translation(l2)),
            ),
        )
        center = PointH(0.0, 1.0)
        bound = 3
    else:
        raise PresentationError(f"unknown preset {name!r}")

    pres.validate()
    polygon = dirichlet_domain(pres, center, bound)
    ball = enumerate_ball(pres, 4)
    cusps = derive_cusps(polygon, pres, ball=ball)
    return pres, polygon, cusps


# ---------------------------------------------------------------------------
# cusp neighborhoods and Haar sampling

@record
class CuspSector:
    """Horoball sector of one cusp above log-height h (normalized chart)."""

    cusp_index: int
    height: float
    width: float
    area: float  # width * e^{-h}


@record
class CoreRegion:
    """Complement of the cusp sectors in the polygon, with a bounding box
    for rejection sampling of the hyperbolic area measure dx dy / y^2."""

    height: float
    area: float
    x_min: float
    x_max: float
    y_min: float
    y_max: float


def cusp_neighborhoods(
    polygon: FundamentalPolygon,
    cusps: tuple[CuspData, ...],
    h: float,
) -> tuple[tuple[CuspSector, ...], CoreRegion]:
    """Split the surface at cusp height h into horoball sectors plus the
    compact core.  Charts are normalized with embedded sectors for h >= 0;
    below that the horoballs would overlap."""
    if h < -1e-9:
        raise OverlappingHoroballsError(
            f"cusp height {h} below the embeddedness threshold 0"
        )
    sectors = tuple(
        CuspSector(
            cusp_index=j,
            height=h,
            width=c.width,
            area=c.width * math.exp(-h),
        )
        for j, c in enumerate(cusps)
    )
    total = sum(s.area for s in sectors)
    if total >= polygon.area:
        raise OverlappingHoroballsError(
            "sector areas exceed the surface area; horoballs overlap"
        )
    box = _core_box(polygon, cusps, h)
    core = CoreRegion(
        height=h,
        area=polygon.area - total,
        x_min=box[0],
        x_max=box[1],
        y_min=box[2],
        y_max=box[3],
    )
    return sectors, core


def _core_box(
    polygon: FundamentalPolygon, cusps: tuple[CuspData, ...], h: float
) -> tuple[float, float, float, float]:
    xs: list[float] = []
    for v in polygon.vertices:
        if v.ideal:
            if not math.isinf(v.boundary):
                xs.append(v.boundary)
        else:
            xs.append(v.x)
    x_min, x_max = min(xs), max(xs)

    has_inf_corner = False
    e_h = math.exp(h)
    y_min = math.inf
    for cusp in cusps:
        for corner in cusp.corners:
            m = corner.chart
            vtx = polygon.vertices[corner.vertex_index]
            if math.isinf(vtx.boundary):
                has_inf_corner = True
                # sector there is Im(m z) > e^h with m fixing infinity
                y_cap = e_h / (m.a * m.a)
                continue
            # horoball at the finite vertex: disk of diameter 1/(c^2 e^h)
            dia = 1.0 / (m.c * m.c * e_h)
            v = vtx.boundary
            for side in (
                polygon.sides[corner.vertex_index - 1],
                polygon.sides[corner.vertex_index],
            ):
                y = _lowest_crossing(side.plane, v, dia)
                if y is not None:
                    y_min = min(y_min, y)
    if not has_inf_corner:
        y_top = 0.0
        for v in polygon.vertices:
            if not v.ideal:
                y_top = max(y_top, v.y)
        for s in polygon.sides:
            p = s.plane
            if abs(p.alpha) > 1e-14:
                r2 = (p.beta / (2 * p.alpha)) ** 2 - p.delta / p.alpha
                if r2 > 0:
                    y_top = max(y_top, math.sqrt(r2))
        y_cap = y_top
    if not math.isfinite(y_min):
        y_min = min(v.y for v in polygon.vertices if not v.ideal)
    return (x_min, x_max, 0.9 * y_min, y_cap)


def _lowest_crossing(plane: HalfPlane, v: float, dia: float) -> float | None:
    """Lowest intersection height of the horoball boundary circle (tangent to
    the real axis at v, diameter dia) with the side geodesic."""
    r_h = 0.5 * dia
    if abs(plane.alpha) < 1e-14:
        # vertical line x = x0
        x0 = -plane.delta / plane.beta
        d2 = r_h * r_h - (x0 - v) ** 2
        if d2 <= 0:
            return None
        y = r_h - math.sqrt(d2)
        return y if y > 0 else r_h
    cx = -plane.beta / (2 * plane.alpha)
    r2 = cx * cx - plane.delta / plane.alpha
    if r2 <= 0:
        return None
    r = math.sqrt(r2)
    # circle centered (cx, 0) radius r vs circle centered (v, r_h) radius r_h
    dx, dy = v - cx, r_h
    d = math.hypot(dx, dy)
    if d > r + r_h or d < abs(r - r_h) or d == 0.0:
        return None
    a = (r * r - r_h * r_h + d * d) / (2 * d)
    h2 = r * r - a * a
    if h2 < 0:
        return None
    hh = math.sqrt(h2)
    mx, my = cx + a * dx / d, a * dy / d
    ys = (my - hh * dx / d, my + hh * dx / d)
    # the side ends at v, so one root is v itself, which rounding can leave
    # a few ulps above the axis; a crossing must stand clear of the figure's
    # scale
    floor = 1e-9 * max(dia, r, abs(v))
    pos = [y for y in ys if y > floor]
    return min(pos) if pos else None


# proposals the core rejection loop of haar_sample makes before it gives up:
# the lattices here accept about one proposal in six to ten, so the loop
# ends after a handful, and a box the core hardly meets fails within a
# second instead of spinning
HAAR_MAX_PROPOSALS = 100_000


def haar_sample(
    polygon: FundamentalPolygon,
    cusps: tuple[CuspData, ...],
    pres: LatticePresentation,
    rng,
    parts: tuple[tuple[CuspSector, ...], CoreRegion],
) -> UnitTangent:
    """One tangent vector with the normalized Haar law of the unit tangent
    bundle of the quotient surface; ``parts`` is ``cusp_neighborhoods`` at
    height 0 (``CoverSystem.haar_parts``); ``rng.random()`` draws each
    uniform, from a numpy Generator or a trajectory's stream.

    Cusp sectors are sampled exactly (horocyclic coordinate uniform over the
    width, log-height exponential with unit rate, fibre angle uniform) and
    returned in the sector's normalized chart, which need not lie in the
    polygon: ``CoverSystem.start_point`` reduces the draw.  Cusp height is a
    function on the surface, so ``cusp_height`` reads the same on the draw
    as on its reduction, up to rounding.  The compact core is
    rejection-sampled from a bounding box with the area density dx dy / y^2,
    so a core draw lies in the polygon.  ``pres`` is not used; it stays
    because the acceptance suite passes ``parts`` by position after it.
    """
    sectors, core = parts
    total = polygon.area
    u = rng.random() * total
    theta = rng.random() * hyp2.TWO_PI
    for s in sectors:
        if u < s.area:
            cusp = cusps[s.cusp_index]
            uu = rng.random() * s.width
            y = math.exp(s.height) / (1.0 - rng.random())
            g = hyp2.compose(
                cusp.normalizer,
                hyp2.compose(hyp2.unipotent(uu), hyp2.translation(math.log(y))),
            )
            return UnitTangent(hyp2.compose(g, hyp2.rotation(theta)))
        u -= s.area
    inv_lo = 1.0 / core.y_min
    inv_hi = 1.0 / core.y_max
    for _ in range(HAAR_MAX_PROPOSALS):
        x = core.x_min + rng.random() * (core.x_max - core.x_min)
        y = 1.0 / (inv_lo - rng.random() * (inv_lo - inv_hi))
        if not polygon.contains(x, y):
            continue
        if cusp_height(cusps, x, y) > core.height:
            continue
        g = hyp2.compose(hyp2.unipotent(x), hyp2.translation(math.log(y)))
        return UnitTangent(hyp2.compose(g, hyp2.rotation(theta)))
    raise NonTerminationError(
        f"Haar core sampling accepted none of {HAAR_MAX_PROPOSALS} proposals"
        f" from the box {core}"
    )


# ---------------------------------------------------------------------------
# lattice file format
#
#   # comment
#   [generator] A = 1 2 0 1
#   [relator] A B A^-1 B^-1
#   [weights]
#   A = 1 0
#   B = 0 1


class LatticeFileError(ValueError):
    def __init__(self, message: str, line: int):
        super().__init__(f"line {line}: {message}")
        self.line = line


def parse_lattice_text(
    text: str,
) -> tuple[LatticePresentation, dict[str, tuple[int, ...]] | None]:
    generators: list[tuple[str, GroupElement]] = []
    relators: list[Word] = []
    weights: dict[str, tuple[int, ...]] = {}
    in_weights = False
    for ln, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line == "[weights]":
            in_weights = True
            continue
        if line.startswith("[generator]"):
            in_weights = False
            body = line[len("[generator]"):].strip()
            if "=" not in body:
                raise LatticeFileError("expected 'label = a b c d'", ln)
            label, rest = (p.strip() for p in body.split("=", 1))
            vals = rest.split()
            if len(vals) != 4:
                raise LatticeFileError("generator needs four matrix entries", ln)
            try:
                a, b, c, d = (float(v) for v in vals)
                generators.append((label, hyp2.element(a, b, c, d)))
            except ValueError as exc:
                raise LatticeFileError(str(exc), ln) from None
            continue
        if line.startswith("[relator]"):
            in_weights = False
            relators.append(parse_word(line[len("[relator]"):].strip()))
            continue
        if in_weights:
            if "=" not in line:
                raise LatticeFileError("expected 'label = k1 k2 ...'", ln)
            label, rest = (p.strip() for p in line.split("=", 1))
            try:
                weights[label] = tuple(int(v) for v in rest.split())
            except ValueError:
                raise LatticeFileError("weights must be integers", ln) from None
            continue
        raise LatticeFileError(f"unrecognized line {line!r}", ln)
    if not generators:
        raise LatticeFileError("no generators given", 1)
    pres = LatticePresentation(
        generators=tuple(generators), relators=tuple(relators)
    )
    return pres, (weights or None)
