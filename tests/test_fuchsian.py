import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from covwalk import cover as C
from covwalk import fuchsian as F
from covwalk import hyp2 as H
from helpers import free_reduce, format_lattice_text, hexagon_generators

R2 = math.sqrt(2.0)


@pytest.fixture(scope="module")
def gamma2():
    return F.builtin_lattice("gamma2")


@pytest.fixture(scope="module")
def torus():
    return F.builtin_lattice("punctured_square_torus")


class TestWords:
    def test_parse_and_format(self):
        w = F.parse_word("A B^-1 g1^2")
        assert w == (("A", 1), ("B", -1), ("g1", 1), ("g1", 1))
        assert F.parse_word(F.word_str(w)) == w

    def test_inverse_and_reduce(self):
        w = F.parse_word("A B^-1")
        assert F.word_inverse(w) == (("B", 1), ("A", -1))
        assert free_reduce(w + F.word_inverse(w)) == ()


class TestPresets:
    def test_gamma2_polygon(self, gamma2):
        pres, poly, cusps = gamma2
        assert abs(poly.area - 2 * math.pi) < 1e-6
        assert len(poly.sides) == 4
        finite = sorted(u for u in poly.ideal_vertices if not math.isinf(u))
        assert finite == pytest.approx([-1.0, 0.0, 1.0], abs=1e-9)
        assert any(math.isinf(u) for u in poly.ideal_vertices)

    def test_gamma2_explicit_side_geodesics(self, gamma2):
        # the polygon is |Re z| <= 1 between the unit-diameter circles at -1/2, 1/2
        _, poly, _ = gamma2
        expected = {
            (0.0, 1.0, -1.0),   # x <= 1
            (0.0, -1.0, -1.0),  # -x <= 1
            # |2z+1| >= 1  <->  -(x^2+y^2) - x <= 0 (normalized below)
        }
        seen = set()
        for s in poly.sides:
            p = s.plane
            scale = max(abs(p.alpha), abs(p.beta), abs(p.delta))
            seen.add(
                (
                    round(p.alpha / scale, 9),
                    round(p.beta / scale, 9),
                    round(p.delta / scale, 9),
                )
            )
        assert (0.0, 1.0, -1.0) in seen
        assert (0.0, -1.0, -1.0) in seen
        assert (-1.0, -1.0, 0.0) in seen or (1.0, 1.0, 0.0) in seen
        assert (-1.0, 1.0, 0.0) in seen or (1.0, -1.0, 0.0) in seen

    def test_gamma2_cusps(self, gamma2):
        pres, _, cusps = gamma2
        fps = [c.fixed_point for c in cusps]
        assert math.isinf(fps[0]) and fps[1:] == pytest.approx([0.0, 1.0], abs=1e-9)
        for c in cusps:
            assert c.width == pytest.approx(2.0, abs=1e-9)
            g = pres.evaluate(c.parabolic_word)
            assert H.classify(g).kind == "parabolic"
            # conjugating by the inverse normalizer gives the unipotent of the width
            q = H.compose_all(H.inverse(c.normalizer), g, c.normalizer)
            assert H.psl_distance(q, H.unipotent(c.width)) < 1e-9

    def test_torus_polygon(self, torus):
        pres, poly, cusps = torus
        assert abs(poly.area - 2 * math.pi) < 1e-6
        assert len(poly.sides) == 4
        verts = sorted(poly.ideal_vertices)
        assert verts == pytest.approx(
            [-(R2 + 1), -(R2 - 1), R2 - 1, R2 + 1], abs=1e-9
        )
        assert len(cusps) == 1

    def test_torus_commutator_parabolic(self, torus):
        pres, _, cusps = torus
        comm = pres.evaluate(F.parse_word("g1 g2 g1^-1 g2^-1"))
        assert abs(abs(comm.trace) - 2.0) <= 1e-9
        # the preset cusp loop is a commutator-type word: length 4, both
        # letters appearing with exponent sum zero
        word = cusps[0].parabolic_word
        assert len(word) == 4
        for lab in ("g1", "g2"):
            assert sum(s for l, s in word if l == lab) == 0

    def test_torus_trace_identity(self):
        # tr[g1,g2] = -2 reduces to (x^2-4)(y^2-4) = 16 for x = 2cosh(l1/2),
        # y = 2cosh(l2/2) and tr(g1 g2) = xy/2; the preset enforces it
        l1 = 1.3
        s2 = 1.0 / math.sinh(l1 / 2)
        l2 = 2.0 * math.asinh(s2)
        pres, _, _ = F.builtin_lattice("punctured_square_torus", l1=l1, l2=l2)
        x = 2 * math.cosh(l1 / 2)
        y = 2 * math.cosh(l2 / 2)
        assert (x * x - 4) * (y * y - 4) == pytest.approx(16.0, abs=1e-9)

    def test_torus_bad_parameters(self):
        with pytest.raises(F.PresentationError):
            F.builtin_lattice("punctured_square_torus", l1=1.0, l2=1.0)

    def test_unknown_preset(self):
        with pytest.raises(F.PresentationError):
            F.builtin_lattice("nope")

    def test_relators_validate(self, gamma2, torus):
        for pres, _, _ in (gamma2, torus):
            pres.validate()

    def test_elliptic_generator_rejected(self):
        pres = F.LatticePresentation(generators=(("r", H.rotation(1.0)),))
        with pytest.raises(F.PresentationError):
            pres.validate()


class TestDirichlet:
    def test_generic_center_area(self, gamma2):
        pres, _, _ = gamma2
        poly, _ = F.dirichlet_domain(pres, H.PointH(0.1, 1.7), 8)
        assert abs(poly.area - 2 * math.pi) < 1e-6

    def test_zero_bound_fails(self, gamma2):
        pres, _, _ = gamma2
        with pytest.raises(F.AreaMismatchError):
            F.dirichlet_domain(pres, H.PointH(0.1, 1.7), 0)

    def test_insufficient_bound_fails(self, torus):
        pres, _, _ = torus
        with pytest.raises(F.AreaMismatchError):
            # one-letter ball about a far-off center cannot close the domain
            F.dirichlet_domain(pres, H.PointH(4.0, 0.05), 1)

    def test_pingpong_free_group(self):
        h1 = H.translation(10.0)
        u = H.compose(H.translation(12.0), H.rotation(math.pi / 2))
        h2 = H.compose_all(u, h1, H.inverse(u))
        pres = F.LatticePresentation(generators=(("h1", h1), ("h2", h2)))
        # a Schottky group has infinite covolume: its domain keeps free
        # boundary arcs, and no finite-area polygon is certified
        with pytest.raises(F.AreaMismatchError, match="free boundary"):
            F.dirichlet_domain(pres, H.PointH(0.0, 1.0), 2)

    def test_ball_past_word_limit_fails(self, monkeypatch):
        # a Schottky group never certifies: the build stops at the first bound
        # whose ball would pass MAX_BALL_WORDS rather than at the cap, and
        # names the last bound it tried
        gs = [H.compose_all(H.rotation(k * math.pi / 3), H.translation(4.0),
                            H.rotation(-k * math.pi / 3)) for k in range(3)]
        pres = F.LatticePresentation(generators=tuple(zip("ABC", gs)))
        monkeypatch.setattr(F, "MAX_BALL_WORDS", 200)  # 6 + 30 + 150 words fit
        with pytest.raises(F.AreaMismatchError,
                           match="up to word bound 3, and the ball of word bound 4 "
                                 "holds more than 200 words"):
            F.dirichlet_domain(pres, H.PointH(0.0, 1.0), F.DEFAULT_WORD_BOUND)

    def test_elliptic_center_guard(self):
        pres = F.LatticePresentation(
            generators=(("a", H.translation(1.0)), ("s", H.element(0, -1, 1, 0)))
        )
        with pytest.raises((F.EllipticCenterError, F.PresentationError)):
            pres.validate()
            F.dirichlet_domain(pres, H.PointH(0.0, 1.0), 2)


class TestCuspNeighborhoods:
    def test_gamma2_infinity_sector(self, gamma2):
        _, poly, cusps = gamma2
        sectors, core = F.cusp_neighborhoods(poly, cusps, 1.0)
        s_inf = sectors[0]
        assert cusps[s_inf.cusp_index].fixed_point == math.inf
        assert s_inf.width == pytest.approx(2.0, abs=1e-9)
        # normalizer of the infinity cusp is the identity: sector is the strip
        # |Re z| <= 1 (mod the width-2 translation) above height e
        assert H.psl_distance(cusps[0].normalizer, H.IDENTITY) < 1e-9
        assert s_inf.area == pytest.approx(2.0 * math.exp(-1.0), rel=1e-12)

    def test_torus_single_sector(self, torus):
        _, poly, cusps = torus
        sectors, _ = F.cusp_neighborhoods(poly, cusps, 1.0)
        assert len(sectors) == 1

    def test_sector_area_decay(self, gamma2):
        _, poly, cusps = gamma2
        for h in (2.0, 4.0, 6.0):
            sectors, _ = F.cusp_neighborhoods(poly, cusps, h)
            for s in sectors:
                assert s.area == pytest.approx(s.width * math.exp(-h), rel=1e-12)

    def test_overlap_guard(self, gamma2):
        _, poly, cusps = gamma2
        with pytest.raises(F.OverlappingHoroballsError):
            F.cusp_neighborhoods(poly, cusps, -0.5)


@pytest.fixture(scope="module")
def samples(gamma2):
    pres, poly, cusps = gamma2
    rng = np.random.default_rng(42)
    parts = F.cusp_neighborhoods(poly, cusps, 0.0)
    heights = np.empty(30000)
    angles = np.empty(4000)
    for i in range(len(heights)):
        x = F.haar_sample(poly, cusps, pres, rng, parts)
        bp = x.base_point()
        heights[i] = F.cusp_height(cusps, bp.x, bp.y)
        if i < len(angles):
            angles[i] = H.iwasawa(x.rep).theta
    return heights, angles, poly, cusps


class TestHaarSampler:
    def test_cusp_tail_mass(self, samples):
        heights, _, poly, cusps = samples
        total_w = sum(c.width for c in cusps)
        n = len(heights)
        for h in (1.0, 2.0, 3.0):
            expected = total_w * math.exp(-h) / poly.area
            emp = float((heights > h).mean())
            se = math.sqrt(expected * (1 - expected) / n)
            assert abs(emp - expected) <= 3.5 * se

    def test_tail_exponent(self, samples):
        heights, _, _, _ = samples
        hs = np.arange(1, 6)
        mass = np.array([(heights > h).mean() for h in hs])
        slope = np.polyfit(hs, np.log(mass), 1)[0]
        assert abs(slope + 1.0) < 0.1

    def test_angle_uniform(self, samples):
        _, angles, _, _ = samples
        a = np.sort(angles) / (2 * math.pi)
        n = len(a)
        ks = max(
            np.max(np.arange(1, n + 1) / n - a), np.max(a - np.arange(0, n) / n)
        )
        assert ks <= 0.03

    def test_right_invariance_smoke(self, torus):
        # the law of x is right-invariant: E f(x g) ~ E f(x) for bounded f
        # of the reduced points
        pres, poly, cusps = torus
        system = C.cover_system(
            pres, poly, cusps, C.validate_cover(pres, cusps, {"g1": (0,), "g2": (1,)})
        )
        rng = np.random.default_rng(11)
        g = H.compose(H.rotation(0.7), H.translation(0.4))
        f = lambda x: math.exp(-H.distance(system.start_point(x).rep.base_point(), H.POINT_I))
        n = 4000
        diffs = np.empty(n)
        for i in range(n):
            x = F.haar_sample(poly, cusps, pres, rng, system.haar_parts)
            diffs[i] = f(H.UnitTangent(H.compose(x.rep, g))) - f(x)
        assert abs(diffs.mean()) <= 4.0 * diffs.std(ddof=1) / math.sqrt(n)


class TestLatticeFile:
    GOOD = """
# the level-two congruence lattice
[generator] A = 1 2 0 1
[generator] B = 1 0 2 1
[weights]
A = 1
B = 0
"""

    def test_roundtrip(self):
        pres, weights = F.parse_lattice_text(self.GOOD)
        assert pres.labels == ("A", "B")
        assert weights == {"A": (1,), "B": (0,)}
        text = format_lattice_text(pres, weights)
        pres2, weights2 = F.parse_lattice_text(text)
        assert weights2 == weights
        for (l1, g1), (l2, g2) in zip(pres.generators, pres2.generators):
            assert l1 == l2 and H.psl_distance(g1, g2) == 0.0

    def test_errors_carry_line_numbers(self):
        with pytest.raises(F.LatticeFileError) as ei:
            F.parse_lattice_text("[generator] A = 1 2 0\n")
        assert ei.value.line == 1
        with pytest.raises(F.LatticeFileError) as ei:
            F.parse_lattice_text("[generator] A = 1 2 0 1\n[weights]\nA = x\n")
        assert ei.value.line == 3

    def test_relator_line(self):
        text = self.GOOD + "[relator] A A^-1\n"
        pres, _ = F.parse_lattice_text(text)
        assert pres.relators == ((("A", 1), ("A", -1)),)
        pres.validate()


class TestCoreBox:
    # the boxes the Haar sampler draws the shipped presets' cores from, as
    # they were before the crossing at the vertex itself was dropped; a
    # change here moves every Haar-start record
    PINNED = {
        "gamma2": "CoreRegion(height=0.0, area=0.28318530717958623, x_min=-1.0,"
                  " x_max=1.0, y_min=0.44999999999999996, y_max=1.0)",
        "punctured_square_torus": "CoreRegion(height=0.0, area=5.111612431925776,"
                                  " x_min=-2.4142135623730945, x_max=2.414213562373096,"
                                  " y_min=0.14806461960133802, y_max=2.414213562373095)",
    }

    @pytest.mark.parametrize("name", sorted(PINNED))
    def test_presets_unchanged(self, name):
        _, poly, cusps = F.builtin_lattice(name)
        assert repr(F.cusp_neighborhoods(poly, cusps, 0.0)[1]) == self.PINNED[name]

    def test_crossing_at_the_vertex_is_dropped(self):
        # the unit circle ends at v = 1; a horoball at 1 of diameter 1/2
        # meets it at 1 and at height dia r^2 / (r^2 + (dia/2)^2) = 8/17,
        # which is the crossing that counts
        plane = F.HalfPlane(alpha=1.0, beta=0.0, delta=-1.0)
        y = F._lowest_crossing(plane, 1.0, 0.5)
        assert y == pytest.approx(8.0 / 17.0, rel=1e-12)


class TestHexagonLattice:
    """A lattice whose polygon has only finite ideal vertices: its core box
    once reached down to the axis and the Haar sampler never returned."""

    @pytest.fixture(scope="class")
    def hexagon(self, tmp_path_factory):
        from covwalk import config as CFG

        pres = F.LatticePresentation(generators=hexagon_generators(), relators=())
        path = tmp_path_factory.mktemp("hexagon") / "hexagon.txt"
        path.write_text(format_lattice_text(
            pres, {"g1": (1, 0), "g2": (0, 1), "g3": (0, 0)}))
        cfg = CFG.parse_config_text(
            f"[lattice]\nfile = {path}\n"
            "[measure]\ntype = parametric\n[walk]\nsteps = 200\n"
            "trajectories = 20\nseed = 11\ncheckpoints = linear:100\n"
        )
        return path, CFG.build_bundle(cfg)

    def test_builds(self, hexagon):
        _, bundle = hexagon
        assert len(bundle.polygon.sides) == 6
        assert bundle.polygon.area == pytest.approx(4.0 * math.pi, rel=1e-9)
        assert len(bundle.cusps) == 2
        assert all(math.isfinite(c.fixed_point) for c in bundle.cusps)
        assert bundle.spec.dim_EC == 1

    def test_haar_draws_finish(self, hexagon):
        _, bundle = hexagon
        system = bundle.system
        _, core = system.haar_parts
        assert core.y_min > 0.01

        class Counting:
            def __init__(self):
                self.rng = np.random.default_rng(3)
                self.calls = 0

            def random(self):
                self.calls += 1
                return self.rng.random()

        rng = Counting()
        core_draws = proposals = 0
        for _ in range(2000):
            before = rng.calls
            x = F.haar_sample(system.polygon, system.cusps, system.pres, rng,
                              system.haar_parts)
            bp = x.base_point()
            # a core draw lies in the polygon below the cusp sectors; it took
            # two uniforms of area and angle, then two per proposal
            if F.cusp_height(system.cusps, bp.x, bp.y) <= core.height:
                core_draws += 1
                proposals += (rng.calls - before - 2) // 2
        assert core_draws > 1000
        assert 0.05 < core_draws / proposals < 0.2

    def test_walk_run(self, hexagon, tmp_path):
        from covwalk import cli

        path, _ = hexagon
        cfgp = tmp_path / "hex.cfg"
        cfgp.write_text(
            f"[lattice]\nfile = {path}\n"
            "[measure]\ntype = parametric\n[walk]\nsteps = 200\n"
            "trajectories = 20\nseed = 11\ncheckpoints = linear:100\n"
        )
        assert cli.main(["walk", "run", "--config", str(cfgp),
                         "--out", str(tmp_path / "o")]) == 0
        assert len((tmp_path / "o" / "records.csv").read_text().splitlines()) == 41


def certified_lattices():
    """The presentations the certified build is checked on: both presets,
    the torus at unequal lengths l1 != l2 and the hexagon."""
    l1 = 1.3
    l2 = 2.0 * math.asinh(1.0 / math.sinh(l1 / 2))
    return {
        "gamma2": F.builtin_lattice("gamma2")[0],
        "torus": F.builtin_lattice("punctured_square_torus")[0],
        "torus_unequal": F.builtin_lattice("punctured_square_torus", l1=l1, l2=l2)[0],
        "hexagon": F.LatticePresentation(generators=hexagon_generators()),
    }


class TestCertifiedBuild:
    """The Dirichlet domain stops at the first word bound that certifies it,
    and its cusp rescale reads that bound's ball."""

    LATTICES = certified_lattices()

    @settings(max_examples=40, deadline=None, derandomize=True, database=None)
    @given(name=st.sampled_from(sorted(LATTICES)),
           x=st.floats(-0.5, 0.5), y=st.floats(0.7, 1.6))
    def test_first_passing_bound_is_the_domain(self, name, x, y):
        pres = self.LATTICES[name]
        center = H.PointH(x, y)
        # a cap of 6 keeps a failure small: the hexagon's ball at the default
        # cap would hold about 4e8 words
        poly, cusps = F.dirichlet_domain(pres, center, 6)
        b = poly.certified_bound
        assert 1 <= b <= 4
        # one bound lower does not pass, and two more cut nothing off
        if b > 1:
            with pytest.raises(F.AreaMismatchError):
                F.dirichlet_domain(pres, center, b - 1)
        wider = F._certified_polygon(pres, center, F.enumerate_ball(pres, b + 2))
        assert repr(wider) == repr(poly)
        # the tangency bound of a wider ball moves the rescale by rounding
        # only: y_star picks up the rounding of longer words
        ref = F.derive_cusps(poly, F.enumerate_ball(pres, b + 3))
        assert len(ref) == len(cusps)
        for got, want in zip(cusps, ref):
            assert math.isclose(got.width, want.width, rel_tol=1e-12)
            scale = max(abs(v) for v in want.normalizer.as_tuple())
            for u, v in zip(got.normalizer.as_tuple(), want.normalizer.as_tuple()):
                assert math.isclose(u, v, rel_tol=1e-12, abs_tol=1e-12 * scale)

    @pytest.mark.parametrize("name,radius", [
        ("gamma2", 8), ("torus", 8), ("hexagon", 6),
    ])
    def test_default_center_cusps_match_a_wide_ball(self, name, radius):
        pres = self.LATTICES[name]
        poly, cusps = F.dirichlet_domain(pres, H.PointH(0.0, 1.0), 6)
        assert poly.certified_bound == 1
        assert repr(F.derive_cusps(poly, F.enumerate_ball(pres, radius))) == repr(cusps)

    @pytest.mark.parametrize("name,x,y,bound", [
        ("torus", 0.0, 1.15, 3), ("torus_unequal", 0.0, 0.7, 3), ("gamma2", 0.1, 0.7, 2),
    ])
    def test_vertex_of_two_clips_keeps_the_later_edge(self, name, x, y, bound):
        # about these centers two bisectors cross at one vertex, and the
        # first clip's edge between the two copies of that vertex has no
        # length; keeping it instead of the second clip's edge once gave a
        # wrong area or a free boundary at every bound
        poly, _ = F.dirichlet_domain(self.LATTICES[name], H.PointH(x, y), 6)
        assert poly.certified_bound == bound
        assert poly.area == pytest.approx(2.0 * math.pi, abs=1e-9)


class TestTangencyBound:
    def test_entry_matches_compose(self, gamma2):
        # every product derive_cusps' tangency bound reads on gamma2, against
        # the |c| of the element hyp2.compose builds, bit for bit
        pres, _, cusps = gamma2
        ball = F.enumerate_ball(pres, 6)
        norms = [c.normalizer for c in cusps]
        for gk in norms:
            for _, gamma in [((), H.IDENTITY)] + ball:
                k = H.compose(H.inverse(gk), gamma)
                for gj in norms:
                    got = F._composed_abs_c(*k.as_tuple(), gj)
                    assert got == abs(H.compose(k, gj).c)

    def test_entry_matches_compose_when_rescaled(self):
        # a left factor of determinant 1 + 1e-9, built without element's
        # rescale, so that every product is rescaled
        rng = np.random.default_rng(5)
        for _ in range(500):
            a, b, c = rng.normal(size=3) * 3.0
            k = H.GroupElement(a, b, c, (1.0 + 1e-9 + b * c) / a)
            g = H.compose(H.rotation(rng.uniform(0, 6.3)), H.translation(rng.normal()))
            assert F._composed_abs_c(*k.as_tuple(), g) == abs(H.compose(k, g).c)
