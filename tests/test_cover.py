import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covwalk import cover as C
from covwalk import fuchsian as F
from covwalk import hyp2 as H
from helpers import cusp_excursions, integer_rank_fraction, sigma_cusp_bound_check


@pytest.fixture(scope="module")
def gamma2_d1():
    pres, poly, cusps = F.builtin_lattice("gamma2")
    spec = C.validate_cover(pres, cusps, {"A": (1,), "B": (0,)})
    return C.cover_system(pres, poly, cusps, spec)


@pytest.fixture(scope="module")
def torus_d1():
    pres, poly, cusps = F.builtin_lattice("punctured_square_torus")
    spec = C.validate_cover(pres, cusps, {"g1": (0,), "g2": (1,)})
    return C.cover_system(pres, poly, cusps, spec)


PRESET_WEIGHTS = {
    "gamma2": {"A": (1,), "B": (0,)},
    "punctured_square_torus": {"g1": (0,), "g2": (1,)},
}


@pytest.fixture(scope="module", params=sorted(PRESET_WEIGHTS))
def preset_d1(request):
    pres, poly, cusps = F.builtin_lattice(request.param)
    spec = C.validate_cover(pres, cusps, PRESET_WEIGHTS[request.param])
    return C.cover_system(pres, poly, cusps, spec)


def assert_cocycle(system, p, u, v):
    s_uv = system.sigma(p, u + v)
    s_u = system.sigma(p, u)
    step = system.stepper(p)
    for g in u:
        q = step(g)
    s_v = system.sigma(q, v)
    assert s_uv == tuple(a + b for a, b in zip(s_u, s_v))
    return s_uv


class TestSmith:
    def test_identity_like(self):
        assert C.smith_invariants([[1, 0], [0, 1]]) == [1, 1]

    def test_torsion(self):
        assert C.smith_invariants([[2, 0], [0, 3]]) == [1, 6]

    def test_rank_deficient(self):
        assert C.smith_invariants([[1, 1], [1, 1]]) == [1]

    def test_known(self):
        # textbook example: invariant factors 2 | 6 | 12
        assert C.smith_invariants([[2, 4, 4], [-6, 6, 12], [10, -4, -16]]) == [2, 6, 12]
        assert C.smith_invariants([[2, 4, 4], [-6, 6, 12], [10, 4, 16]]) == [2, 2, 156]


@st.composite
def integer_vectors(draw):
    """Lists of integer vectors of one length, with repeats, multiples and
    sums of earlier vectors mixed in so dependent ones are common."""
    d = draw(st.integers(1, 5))
    entries = st.one_of(st.integers(-3, 3), st.integers(-10**20, 10**20))
    vectors: list[tuple[int, ...]] = []
    for _ in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(["new", "zero", "multiple", "sum"]))
        if kind == "zero":
            vectors.append((0,) * d)
        elif kind == "new" or not vectors:
            vectors.append(tuple(draw(entries) for _ in range(d)))
        elif kind == "multiple":
            k = draw(st.integers(-5, 5))
            vectors.append(tuple(k * x for x in draw(st.sampled_from(vectors))))
        else:
            u, w = draw(st.sampled_from(vectors)), draw(st.sampled_from(vectors))
            a, b = draw(st.integers(-4, 4)), draw(st.integers(-4, 4))
            vectors.append(tuple(a * x + b * y for x, y in zip(u, w)))
    return vectors


class TestIntegerRank:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(integer_vectors())
    def test_matches_rational_elimination(self, vectors):
        assert C.integer_rank(vectors) == integer_rank_fraction(vectors)

    def test_known(self):
        assert C.integer_rank([]) == (0, [])
        assert C.integer_rank([(0, 0), (2, 4), (-1, -2), (1, 0), (3, 3)]) == (2, [1, 3])
        assert C.integer_rank([(1, 0), (0, 1)]) == (2, [0, 1])
        # rows whose lead positions arrive out of order
        assert C.integer_rank([(0, 0, 3), (0, 2, 1), (5, 0, 0), (5, 2, 4)]) == (3, [0, 1, 2])


class TestValidateCover:
    def test_gamma2_standard(self, gamma2_d1):
        spec = gamma2_d1.spec
        assert spec.v == ((1,), (0,), (-1,))
        assert spec.unfolded == (True, False, True)
        assert spec.E_C_basis == ((1,),)
        assert spec.dim_EC == 1

    def test_torus_any_surjection_folds(self):
        pres, poly, cusps = F.builtin_lattice("punctured_square_torus")
        rng = np.random.default_rng(0)
        for _ in range(20):
            w = {
                "g1": (int(rng.integers(-3, 4)),),
                "g2": (int(rng.integers(-3, 4)),),
            }
            try:
                spec = C.validate_cover(pres, cusps, w)
            except C.QuotientNotFreeRankError:
                continue
            assert spec.v == ((0,),)
            assert spec.unfolded == (False,)
            assert spec.dim_EC == 0

    def test_rank_deficient_rejected(self):
        pres, poly, cusps = F.builtin_lattice("gamma2")
        with pytest.raises(C.QuotientNotFreeRankError):
            C.validate_cover(pres, cusps, {"A": (1, 0), "B": (1, 0)})

    def test_non_surjective_rejected(self):
        pres, poly, cusps = F.builtin_lattice("gamma2")
        with pytest.raises(C.QuotientNotFreeRankError):
            C.validate_cover(pres, cusps, {"A": (2,), "B": (0,)})

    def test_relator_must_die(self):
        pres0, poly, cusps = F.builtin_lattice("gamma2")
        pres = F.LatticePresentation(
            generators=pres0.generators, relators=(F.parse_word("A"),)
        )
        with pytest.raises(C.RelatorNotKilledError):
            C.validate_cover(pres, cusps, {"A": (1,), "B": (0,)})

    def test_unfolded_iff_nonzero_translation(self):
        pres, poly, cusps = F.builtin_lattice("gamma2")
        rng = np.random.default_rng(1)
        tried = 0
        while tried < 100:
            w = {
                "A": tuple(int(v) for v in rng.integers(-2, 3, 1)),
                "B": tuple(int(v) for v in rng.integers(-2, 3, 1)),
            }
            try:
                spec = C.validate_cover(pres, cusps, w)
            except C.QuotientNotFreeRankError:
                continue
            tried += 1
            for vec, flag in zip(spec.v, spec.unfolded):
                assert flag == any(vec)


class TestReduce:
    """CoverSystem.reduce_raw, the greedy descent, and start_point."""

    def test_inside_is_fixed(self, gamma2_d1):
        x = H.element(1.0, 0.3, 0.0, 1.0)
        m, idx, word = gamma2_d1.reduce_raw(x.as_tuple(), (0,), collect_word=True)
        assert word == () and idx == (0,)
        assert m == x.as_tuple()
        assert H.psl_distance(gamma2_d1.start_point(H.UnitTangent(x)).rep.rep, x) < 1e-14

    def test_single_deck_move(self, gamma2_d1):
        x = H.element(1.0, 0.3, 0.0, 1.0)
        moved = H.compose(gamma2_d1.pres.gen_map()["A"], x)
        _, idx, word = gamma2_d1.reduce_raw(moved.as_tuple(), (0,), collect_word=True)
        assert word == (("A", -1),)
        assert idx == (1,)  # index' = index - phi(A^-1)

    def test_replay_oracle_and_monotone_descent(self, gamma2_d1):
        system = gamma2_d1
        pres, poly = system.pres, system.polygon
        # each side pairing is one letter, so the letters of the deck word,
        # oldest (rightmost) first, replay the descent pairing by pairing
        assert all(len(w) == 1 for w in system.pair_words)
        gens = pres.gen_map()
        rng = np.random.default_rng(7)
        checked = 0
        for _ in range(150):
            g = H.IDENTITY
            for _ in range(6):
                g = H.compose_all(
                    g,
                    H.rotation(rng.random() * 2 * math.pi),
                    H.translation(rng.random() * 4 - 2),
                )
            x = H.UnitTangent(g)
            if H.distance(x.base_point(), poly.center) > 30:
                continue
            m, idx, word = system.reduce_raw(g.as_tuple(), (0,), collect_word=True)
            assert idx == tuple(-v for v in system.spec.phi(word))
            trace = [H.distance(x.base_point(), poly.center)]
            cur = g
            for lab, sgn in reversed(word):
                h = gens[lab] if sgn > 0 else H.inverse(gens[lab])
                cur = H.compose(h, cur)
                trace.append(H.distance(H.UnitTangent(cur).base_point(), poly.center))
            assert all(trace[i + 1] <= trace[i] + 1e-9 for i in range(len(trace) - 1))
            red = H.element(*m)
            replay = H.compose(pres.evaluate(word), g)
            scale = max(1.0, max(abs(v) for v in replay.as_tuple()))
            assert H.psl_distance(replay, red) / scale < 1e-12
            bp = system.start_point(x).rep.base_point()
            assert poly.contains(bp.x, bp.y, tol=1e-7)
            checked += len(word) > 0
        assert checked > 50

    def test_idempotence(self, torus_d1):
        rng = np.random.default_rng(8)
        for _ in range(80):
            g = H.compose(
                H.rotation(rng.random() * 2 * math.pi),
                H.translation(rng.random() * 6 - 3),
            )
            p = torus_d1.start_point(H.UnitTangent(g))
            _, idx, word = torus_d1.reduce_raw(
                p.rep.rep.as_tuple(), (0,), collect_word=True
            )
            assert word == () and idx == (0,)
            assert torus_d1.start_point(p.rep) == p

    @settings(max_examples=60, deadline=None, derandomize=True, database=None)
    @given(corner=st.integers(0, 3), s=st.floats(-300.0, 300.0),
           t=st.floats(-4.0, 16.0), theta=st.floats(0.0, 2 * math.pi),
           t2=st.floats(0.0, 3.0))
    def test_idempotence_property(self, preset_d1, corner, s, t, theta, t2):
        # the start lies up to 150 strip widths across in a corner's cusp
        # chart, often high in the cusp, where the descent winds for many
        # pairings and calls fast_unwind (on about two draws in three)
        chart = H.element(*preset_d1.corner_inv_mats[corner])
        x = H.UnitTangent(H.compose_all(
            chart, H.unipotent(s), H.translation(t), H.rotation(theta),
            H.translation(t2),
        ))
        p = preset_d1.start_point(x)
        assert preset_d1.start_point(p.rep) == p
        _, idx, word = preset_d1.reduce_raw(
            p.rep.rep.as_tuple(), p.index, collect_word=True
        )
        assert word == () and idx == p.index

    def test_equivariance(self, gamma2_d1):
        rng = np.random.default_rng(9)
        for _ in range(60):
            g = H.compose(
                H.rotation(rng.random() * 2 * math.pi),
                H.translation(rng.random() * 4 - 2),
            )
            base = gamma2_d1.start_point(H.UnitTangent(g))
            for lab, gg in gamma2_d1.pres.generators:
                red = gamma2_d1.start_point(H.UnitTangent(H.compose(gg, g)))
                assert H.psl_distance(red.rep.rep, base.rep.rep) < 1e-8

    def test_haar_draw_keeps_its_cusp_height(self, preset_d1):
        # haar_sample leaves cusp-sector draws in their sector chart; the
        # cusp height is a function on the surface, so reducing the draw
        # does not move it
        system = preset_d1
        rng = np.random.default_rng(12)
        moved = 0
        for _ in range(3000):
            x = F.haar_sample(system.polygon, system.cusps, system.pres, rng,
                              system.haar_parts)
            p = system.start_point(x)
            moved += p.rep.rep != x.rep
            raw, red = x.base_point(), p.rep.base_point()
            h_raw = F.cusp_height(system.cusps, raw.x, raw.y)
            h_red = F.cusp_height(system.cusps, red.x, red.y)
            assert abs(h_raw - h_red) <= 1e-12
        assert moved > 300


class TestApplyStep:
    def test_axis_translation_advances_index(self, torus_d1):
        x0 = torus_d1.start_point(H.BASE_TANGENT)
        g2 = torus_d1.pres.gen_map()["g2"]
        p = torus_d1.apply_step(x0, g2)
        assert p.index == (1,)
        assert H.psl_distance(p.rep.rep, H.IDENTITY) < 1e-12

    def test_cross_translation_fixes_index(self, torus_d1):
        x0 = torus_d1.start_point(H.BASE_TANGENT)
        g1 = torus_d1.pres.gen_map()["g1"]
        p = torus_d1.apply_step(x0, g1)
        assert p.index == (0,)
        assert H.psl_distance(p.rep.rep, H.IDENTITY) < 1e-12

    def test_identity_step(self, torus_d1):
        x0 = torus_d1.start_point(H.BASE_TANGENT)
        p = torus_d1.apply_step(x0, H.IDENTITY)
        assert p.index == x0.index
        assert H.psl_distance(p.rep.rep, x0.rep.rep) < 1e-12

    def test_letter_count_identity(self, torus_d1):
        # from the distinguished start, the index counts the axis letters,
        # exactly and for arbitrarily long words
        gm = torus_d1.pres.gen_map()
        rng = np.random.default_rng(5)
        for _ in range(20):
            n = int(rng.integers(1, 800))
            picks = rng.integers(0, 2, n)
            step = torus_d1.stepper(torus_d1.start_point(H.BASE_TANGENT))
            count = 0
            for b in picks:
                cur = step(gm["g2"] if b else gm["g1"])
                count += int(b)
                assert cur.index == (count,)


class TestSigma:
    def test_empty_word(self, gamma2_d1):
        p = gamma2_d1.start_point(H.UnitTangent(H.element(1, 0.2, 0, 1)))
        assert gamma2_d1.sigma(p, []) == (0,)
        assert gamma2_d1.sigma_path(p, []) == []

    def test_cocycle_identity_exact(self, gamma2_d1):
        gm = gamma2_d1.pres.gen_map()
        els = [gm["A"], H.inverse(gm["A"]), gm["B"], H.inverse(gm["B"])]
        rng = np.random.default_rng(11)
        for _ in range(200):
            u = [els[i] for i in rng.integers(0, 4, int(rng.integers(1, 50)))]
            v = [els[i] for i in rng.integers(0, 4, int(rng.integers(1, 50)))]
            g0 = H.compose(
                H.rotation(rng.random() * 6.28), H.translation(rng.random() * 2 - 1)
            )
            assert_cocycle(gamma2_d1, gamma2_d1.start_point(H.UnitTangent(g0)), u, v)

    def test_cocycle_exact_on_finite_orbit(self, torus_d1):
        # the upward tangent at i is a one-state orbit of g1^+-1, g2^+-1, so
        # the stepper walks the compiled table; the identity and the signed
        # axis-letter count hold for words of a few hundred letters
        table = torus_d1.orbit_table(
            H.BASE_TANGENT, torus_d1.letters, C.ORBIT_TABLE_STATES
        )
        assert table is not None and len(table.reps) == 1
        els = torus_d1.letters  # g1, g2, g1^-1, g2^-1
        rng = np.random.default_rng(17)
        p = torus_d1.start_point(H.BASE_TANGENT)
        for _ in range(100):
            iu = rng.integers(0, 4, int(rng.integers(1, 300)))
            iv = rng.integers(0, 4, int(rng.integers(1, 300)))
            s_uv = assert_cocycle(
                torus_d1, p, [els[i] for i in iu], [els[i] for i in iv]
            )
            picks = np.concatenate([iu, iv])
            assert s_uv == (int(np.sum(picks == 1)) - int(np.sum(picks == 3)),)

    def test_inverse_pairing_exact(self, gamma2_d1):
        gm = gamma2_d1.pres.gen_map()
        rng = np.random.default_rng(13)
        els = [gm["A"], gm["B"], H.inverse(gm["A"]), H.inverse(gm["B"])]
        for _ in range(100):
            g = els[int(rng.integers(0, 4))]
            g0 = H.compose(
                H.rotation(rng.random() * 6.28), H.translation(rng.random() * 2 - 1)
            )
            p = gamma2_d1.start_point(H.UnitTangent(g0))
            s1 = gamma2_d1.sigma(p, [g])
            q = gamma2_d1.apply_step(p, g)
            s2 = gamma2_d1.sigma(q, [H.inverse(g)])
            assert tuple(a + b for a, b in zip(s1, s2)) == (0,)

    def test_intrinsic_under_center_change(self):
        # the index maps of two different Dirichlet domains differ by a
        # globally bounded amount: along one realized trajectory, reading the
        # second domain's sheet off the first domain's representative gives
        # a uniformly bounded discrepancy (the domain-overlap charge)
        pres, poly1, cusps1 = F.builtin_lattice("gamma2")
        poly2, cusps2 = F.dirichlet_domain(pres, H.PointH(0.1, 1.7))
        w = {"A": (1,), "B": (0,)}
        s1 = C.cover_system(pres, poly1, cusps1, C.validate_cover(pres, cusps1, w))
        s2 = C.cover_system(pres, poly2, cusps2, C.validate_cover(pres, cusps2, w))
        gm = pres.gen_map()
        els = [gm["A"], H.inverse(gm["A"]), gm["B"], H.inverse(gm["B"])]
        rng = np.random.default_rng(3)
        start = H.UnitTangent(H.element(1.0, 0.15, 0.0, 1.0))
        step = s1.stepper(s1.start_point(start))
        worst = 0
        for i in rng.integers(0, 4, 10000):
            p = step(els[i])
            _, delta, _ = s2.reduce_raw(p.rep.rep.as_tuple(), (0,))
            worst = max(worst, abs(delta[0]))
        assert worst <= 64


# indices into CoverSystem.letters, lengths spread over 1..300
WORDS = st.integers(1, 300).flatmap(
    lambda n: st.lists(st.integers(0, 3), min_size=n, max_size=n)
)


class TestCocycleProperty:
    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(
        u=WORDS,
        v=WORDS,
        start=st.one_of(
            st.none(),
            st.tuples(st.floats(0.0, 2 * math.pi), st.floats(-1.0, 1.0)),
        ),
    )
    def test_cocycle_exact(self, preset_d1, u, v, start):
        # None is the upward tangent at i, a finite orbit on both presets
        # (table branch); other starts take the plain kernel
        if start is None:
            x = H.BASE_TANGENT
        else:
            x = H.UnitTangent(
                H.compose(H.rotation(start[0]), H.translation(start[1]))
            )
        els = preset_d1.letters
        assert_cocycle(
            preset_d1,
            preset_d1.start_point(x),
            [els[i] for i in u],
            [els[i] for i in v],
        )


class TestFastUnwind:
    def test_matches_naive(self, gamma2_d1):
        # offsets of up to 150 strip widths: most descents pass the unwind
        # cadence, so the unwinding path is compared with plain pairing
        rng = np.random.default_rng(0)
        deep = 0
        for _ in range(200):
            g = H.compose_all(
                H.unipotent(rng.uniform(-300, 300)),
                H.translation(rng.uniform(0, 9)),
                H.rotation(rng.uniform(0, 2 * math.pi)),
            )
            m = g.as_tuple()
            r1, i1, _ = gamma2_d1.reduce_raw(m, (0,))
            r2, i2, word = gamma2_d1.reduce_raw(m, (0,), collect_word=True)
            deep += len(word) > C.UNWIND_MASK
            assert i1 == i2
            assert H.psl_distance(H.element(*r1), H.element(*r2)) < 1e-9
        assert deep >= 150

    def test_deep_cusp_is_cheap(self, gamma2_d1):
        g = H.compose_all(
            H.unipotent(0.37), H.translation(16.0), H.rotation(2.1), H.translation(1.0)
        )
        _, idx, _ = gamma2_d1.reduce_raw(g.as_tuple(), (0,))
        assert abs(idx[0]) > 10**5  # enormous winding, handled in one stroke


UNWIND_COVERS = {
    "gamma2": {"A": (1,), "B": (0,)},
    "punctured_square_torus": {"g1": (1, 0), "g2": (0, 1)},
}

# the worst relative state gap seen on deep walk points is below 3e-8
UNWIND_STATE_TOL = 1e-6


@pytest.fixture(scope="module", params=sorted(UNWIND_COVERS))
def unwind_cover(request):
    pres, poly, cusps = F.builtin_lattice(request.param)
    spec = C.validate_cover(pres, cusps, UNWIND_COVERS[request.param])
    return C.cover_system(pres, poly, cusps, spec)


def deep_walk_points(system, seed, parametric, want=12, max_steps=4000):
    """Points of a Haar-start walk whose plain descent takes at least
    UNWIND_MASK + 1 pairings: (reduced state times letter, index before the
    step).  Letters are the generators with equal weight, or rotation,
    translation by [0.5, 1.5], rotation; the walk steps with apply_step."""
    rng = np.random.default_rng(seed)
    x0 = F.haar_sample(system.polygon, system.cusps, system.pres, rng,
                       system.haar_parts)
    p = system.start_point(x0)
    gens = [g for _, g in system.pres.generators]
    out = []
    for _ in range(max_steps):
        if parametric:
            g = H.compose_all(H.rotation(rng.uniform(0, 2 * math.pi)),
                              H.translation(rng.uniform(0.5, 1.5)),
                              H.rotation(rng.uniform(0, 2 * math.pi)))
        else:
            g = gens[rng.integers(len(gens))]
        m = p.rep.rep
        moved = (m.a * g.a + m.b * g.c, m.a * g.b + m.b * g.d,
                 m.c * g.a + m.d * g.c, m.c * g.b + m.d * g.d)
        # every side pairing of these presets is a single letter
        _, _, word = system.reduce_raw(moved, p.index, collect_word=True)
        if len(word) > C.UNWIND_MASK:
            out.append((moved, p.index))
            if len(out) == want:
                break
        p = system.apply_step(p, g)
    return out


def side_margin(system, m):
    """How far the base point of m clears the nearest polygon side."""
    a, b, c, d = m
    den = c * c + d * d
    x, y = (a * c + b * d) / den, 1.0 / den
    return -max(al * (x * x + y * y) + be * x + de for al, be, de in system.planes)


def relative_gap(m, ref):
    """Largest entry difference of m from ref up to sign, over ref's largest
    entry."""
    big = max(abs(v) for v in ref)
    return min(max(abs(u - v) for u, v in zip(m, ref)),
               max(abs(u + v) for u, v in zip(m, ref))) / big


def exact_deck_image(system, word, moved):
    """The deck word (newest letter leftmost) applied to moved at 60 digits,
    each generator scaled to determinant one."""
    with mpmath.workdps(60):
        letter = {}
        for lab, g in system.pres.generators:
            mg = mpmath.matrix([[g.a, g.b], [g.c, g.d]])
            mg /= mpmath.sqrt(mpmath.det(mg))
            letter[(lab, 1)], letter[(lab, -1)] = mg, mg ** -1
        out = mpmath.matrix([[moved[0], moved[1]], [moved[2], moved[3]]])
        for lt in reversed(word):
            out = letter[lt] * out
        return [out[0, 0], out[0, 1], out[1, 0], out[1, 1]]


class TestFastUnwindAgreement:
    """reduce_raw unwinds cusp windings after every UNWIND_MASK + 1 pairings;
    on real walk points its result agrees with plain descent, and both are
    close to the exact image under the plain descent's deck word."""

    @settings(max_examples=25, deadline=None, derandomize=True, database=None)
    @given(seed=st.integers(0, 2**32 - 1), parametric=st.booleans())
    def test_matches_plain_descent(self, unwind_cover, seed, parametric):
        system = unwind_cover
        points = deep_walk_points(system, seed, parametric)
        assert points
        engaged = 0
        for moved, index in points:
            plain, plain_idx, word = system.reduce_raw(moved, index, collect_word=True)
            fast, fast_idx, _ = system.reduce_raw(moved, index)
            # the points reach windings fast_unwind takes in one stroke
            engaged += system.fast_unwind(*moved) is not None
            if side_margin(system, plain) <= 1e-6:
                # a rounding error may put the two one pairing apart
                continue
            assert fast_idx == plain_idx
            assert relative_gap(fast, plain) <= UNWIND_STATE_TOL
            with mpmath.workdps(60):
                exact = exact_deck_image(system, word, moved)
                assert relative_gap(plain, exact) <= UNWIND_STATE_TOL
                assert relative_gap(fast, exact) <= UNWIND_STATE_TOL
        assert engaged


def flow_trace(system, cfg, height):
    """The per-step trace (t, cusp_id, cusp height, index) of trajectory 0 of
    a flow run, replayed through CoverSystem.apply_step from the engine's
    start.  cusp_id is the cusp of the first corner chart whose horoball of
    log height ``height`` holds the base point, or -1 when the point's cusp
    height is at most ``height``."""
    from covwalk import walk as W

    rng = W.trajectory_rng(cfg.master_seed, 0)
    if cfg.start.mode == "haar":
        x0 = F.haar_sample(system.polygon, system.cusps, system.pres, rng,
                           system.haar_parts)
    else:
        x0 = cfg.start.tangent
    p = system.start_point(x0)
    g = H.translation(cfg.dt)
    eh = math.exp(height)
    trace = []
    for k in range(1, cfg.steps + 1):
        p = system.apply_step(p, g)
        a, b, c, d = p.rep.rep.as_tuple()
        den = c * c + d * d
        x, y = (a * c + b * d) / den, 1.0 / den
        h = F.cusp_height(system.cusps, x, y)
        cid = -1
        if h > height:
            cid = next(
                (j for j, cusp in enumerate(system.cusps) for corner in cusp.corners
                 if y / ((corner.chart.c * x + corner.chart.d) ** 2
                         + (corner.chart.c * y) ** 2) > eh),
                -1,
            )
        trace.append((k * cfg.dt, cid, h, p.index))
    return trace


class TestCuspExcursions:
    def test_no_cusp_entry(self):
        steps = [(k, -1, -1.0, (0,)) for k in range(10)]
        assert cusp_excursions(steps) == []

    def test_partition_of_deltas(self, gamma2_d1):
        from covwalk import walk as W

        cfg = W.WalkConfig(
            steps=4000,
            trajectories=1,
            master_seed=21,
            checkpoints=W.CheckpointPlan(kind="linear", stride=4000),
            dt=0.25,
        )
        trace = flow_trace(gamma2_d1, cfg, 1.0)
        res = W.simulate_trajectory(gamma2_d1, None, cfg, 0, geodesic=True)
        assert res.summary.final_index == trace[-1][3], "replay left the engine's path"
        recs = cusp_excursions(trace)
        total_exc = sum(r.index_delta[0] for r in recs)
        inside = {r.cusp_id for r in recs}
        assert inside <= {0, 1, 2}
        final = trace[-1][3][0]
        # excursion deltas plus the complement deltas add up to the total
        comp = final - total_exc
        assert isinstance(comp, int)
        # above height 1 only unfolded cusps move the index substantially;
        # the complement contribution stays comparatively small
        assert abs(comp) <= max(8, abs(final) // 2 + 8)

    def test_aimed_excursion_winding_oracle(self, gamma2_d1):
        # geodesic pointed into the infinity cusp with known endpoints:
        # the winding is the horocyclic displacement over the width
        from covwalk import walk as W

        x0 = H.UnitTangent(
            H.compose(H.unipotent(0.21), H.rotation(0.35))
        )  # base i + 0.21, tilted
        cfg = W.WalkConfig(
            steps=120,
            trajectories=1,
            master_seed=0,
            checkpoints=W.CheckpointPlan(kind="linear", stride=120),
            dt=0.25,
            start=W.StartSpec(mode="fixed", tangent=x0),
        )
        trace = flow_trace(gamma2_d1, cfg, 1.0)
        recs = [r for r in cusp_excursions(trace) if r.cusp_id == 0]
        assert len(recs) >= 1
        first = recs[0]
        # winding oracle: the geodesic through the tangent rep g runs from
        # g(0) to g(infinity); its horocyclic displacement near the infinity
        # cusp is the endpoint gap, and each deck translation there spans 2
        g = x0.rep
        fwd = g.a / g.c if abs(g.c) > 1e-12 else math.inf
        back = g.b / g.d
        assert not math.isinf(fwd)
        expected = abs(fwd - back) / 2.0
        assert abs(abs(first.index_delta[0]) - expected) <= max(4.0, 0.5 * expected)


class TestSigmaCuspBound:
    def test_folded_cusp_ratios_vanish(self, torus_d1):
        rng = np.random.default_rng(4)
        gm = torus_d1.pres.gen_map()
        out = sigma_cusp_bound_check(
            torus_d1, 0, [gm["g1"], gm["g2"]], [2.0, 4.0, 6.0], 60, rng
        )
        ratios = [r for _, r in out]
        assert ratios[-1] < 0.1
        assert ratios[-1] <= ratios[0] + 1e-9

    def test_unfolded_cusp_ratio_bounded(self, gamma2_d1):
        rng = np.random.default_rng(5)
        gm = gamma2_d1.pres.gen_map()
        atoms = [gm["A"], gm["B"], H.inverse(gm["A"]), H.inverse(gm["B"])]
        out = sigma_cusp_bound_check(
            gamma2_d1, 0, atoms, [2.0, 3.0, 4.0, 5.0, 6.0], 100, rng
        )
        ratios = [r for _, r in out]
        assert max(ratios) < 50.0
        # no systematic growth across heights
        assert ratios[-1] <= 3.0 * max(ratios[0], 0.1)
