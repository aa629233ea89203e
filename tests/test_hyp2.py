import math
import random

import pytest

from covwalk import hyp2 as H
from helpers import geodesic_flow


def rand_elt(rng, scale=3.0, factors=4):
    g = H.IDENTITY
    for _ in range(factors):
        g = H.compose(
            g,
            H.compose(
                H.rotation(rng.uniform(0, 2 * math.pi)),
                H.translation(rng.uniform(-scale, scale)),
            ),
        )
    return g


def rel_err(g, h):
    scale = max(1.0, max(abs(v) for v in g.as_tuple()))
    return H.psl_distance(g, h) / scale


class TestCompose:
    def test_identity(self):
        rng = random.Random(0)
        g = rand_elt(rng)
        assert H.psl_distance(H.compose(H.IDENTITY, g), g) < 1e-14

    def test_one_parameter_subgroup(self):
        g = H.compose(H.translation(0.7), H.translation(1.6))
        assert H.psl_distance(g, H.translation(2.3)) < 1e-14

    def test_rotated_translation_closed_form(self):
        # R_{-pi/2} a_l R_{pi/2} = [[cosh(l/2), -sinh(l/2)], [-sinh(l/2), cosh(l/2)]]
        l = 2.0
        g = H.compose_all(H.rotation(-math.pi / 2), H.translation(l), H.rotation(math.pi / 2))
        ch, sh = math.cosh(l / 2), math.sinh(l / 2)
        assert H.psl_distance(g, H.element(ch, -sh, -sh, ch)) < 1e-14

    def test_determinant_drift_over_many_composes(self):
        # compact-set products keep entries bounded; drift stays tiny
        rng = random.Random(1)
        els = [H.rotation(rng.uniform(0, 2 * math.pi)) for _ in range(48)]
        els += [
            H.compose_all(H.rotation(a), H.translation(0.3), H.rotation(-a), H.translation(-0.3))
            for a in (0.1, 0.2, 0.3, 0.4)
        ]
        g = H.IDENTITY
        for k in range(10**6):
            g = H.compose(g, els[k % len(els)])
        assert abs(g.det - 1.0) < 1e-8


class TestInverse:
    def test_identity(self):
        assert H.inverse(H.IDENTITY) == H.IDENTITY

    def test_translation(self):
        assert H.psl_distance(H.inverse(H.translation(1.3)), H.translation(-1.3)) < 1e-15

    def test_adjugate(self):
        g = H.element(1, 2, 0, 1)
        assert H.psl_distance(H.inverse(g), H.element(1, -2, 0, 1)) < 1e-15
        assert H.psl_distance(H.compose(g, H.inverse(g)), H.IDENTITY) < 1e-12

    def test_roundtrip_random(self):
        rng = random.Random(2)
        for _ in range(500):
            g = rand_elt(rng)
            assert H.psl_distance(H.compose(g, H.inverse(g)), H.IDENTITY) < 1e-10


class TestGenerators:
    def test_translation_zero(self):
        assert H.psl_distance(H.translation(0.0), H.IDENTITY) == 0.0

    def test_rotation_full_turn(self):
        assert H.psl_distance(H.rotation(2 * math.pi), H.IDENTITY) < 1e-14

    def test_silver_ratio_translation(self):
        t = 2.0 * math.log(1.0 + math.sqrt(2.0))
        want = H.element(1 + math.sqrt(2), 0, 0, math.sqrt(2) - 1)
        assert H.psl_distance(H.translation(t), want) < 1e-14


class TestMobius:
    def test_identity(self):
        z = H.PointH(0.3, 2.0)
        assert H.mobius(H.IDENTITY, z) == z

    def test_diagonal(self):
        z = H.mobius(H.translation(1.5), H.POINT_I)
        assert abs(z.x) < 1e-15 and abs(z.y - math.exp(1.5)) < 1e-12

    def test_horizontal(self):
        z = H.mobius(H.element(1, 2, 0, 1), H.POINT_I)
        assert z.x == pytest.approx(2.0) and z.y == pytest.approx(1.0)

    def test_point_validation(self):
        with pytest.raises(ValueError):
            H.PointH(0.0, -1.0)


class TestDistance:
    def test_zero(self):
        z = H.PointH(1.0, 2.0)
        assert H.distance(z, z) == 0.0

    def test_vertical_geodesic(self):
        for t in (-2.0, 0.5, 3.0):
            assert H.distance(H.POINT_I, H.PointH(0.0, math.exp(t))) == pytest.approx(abs(t))

    def test_invariance(self):
        rng = random.Random(3)
        for _ in range(1000):
            g = rand_elt(rng)
            z = H.PointH(rng.uniform(-5, 5), rng.uniform(0.1, 5))
            w = H.PointH(rng.uniform(-5, 5), rng.uniform(0.1, 5))
            d1 = H.distance(z, w)
            d2 = H.distance(H.mobius(g, z), H.mobius(g, w))
            assert abs(d1 - d2) < 1e-10


class TestIwasawa:
    def test_identity(self):
        co = H.iwasawa(H.IDENTITY)
        assert (co.u, co.t, co.theta) == (0.0, 0.0, 0.0)

    def test_already_decomposed(self):
        g = H.compose(H.unipotent(2.3), H.translation(0.7))
        co = H.iwasawa(g)
        assert co.u == pytest.approx(2.3, abs=1e-13)
        assert co.t == pytest.approx(0.7, abs=1e-13)
        assert co.theta == pytest.approx(0.0, abs=1e-13)

    def test_roundtrip(self):
        rng = random.Random(4)
        for _ in range(3000):
            g = rand_elt(rng, scale=6.0)
            assert rel_err(g, H.iwasawa_reconstruct(H.iwasawa(g))) < 1e-12


class TestCartan:
    def test_identity(self):
        assert H.cartan(H.IDENTITY).t == 0.0

    def test_translation(self):
        for t in (0.5, 2.0, -3.0):
            assert H.cartan(H.translation(t)).t == pytest.approx(abs(t), abs=1e-13)

    def test_rotation_invariance(self):
        rng = random.Random(5)
        for _ in range(300):
            a, b = rng.uniform(0, 2 * math.pi), rng.uniform(0, 2 * math.pi)
            l = rng.uniform(0.01, 8.0)
            g = H.compose_all(H.rotation(a), H.translation(l), H.rotation(b))
            assert H.cartan(g).t == pytest.approx(l, abs=1e-11)

    def test_roundtrip(self):
        rng = random.Random(6)
        for _ in range(3000):
            g = rand_elt(rng, scale=6.0)
            co = H.cartan(g)
            assert co.t >= 0.0
            assert rel_err(g, H.cartan_reconstruct(co)) < 1e-12

    def test_subadditivity(self):
        rng = random.Random(7)
        for _ in range(500):
            g, h = rand_elt(rng), rand_elt(rng)
            tgh = H.cartan_t(H.compose(g, h))
            assert tgh <= H.cartan_t(g) + H.cartan_t(h) + 1e-9


class TestClassify:
    def test_translation(self):
        c = H.classify(H.translation(1.7))
        assert c.kind == "hyperbolic"
        assert c.translation_length == pytest.approx(1.7)

    def test_parabolic(self):
        assert H.classify(H.element(1, 2, 0, 1)).kind == "parabolic"

    def test_identity(self):
        assert H.classify(H.IDENTITY).kind == "identity"

    def test_elliptic(self):
        assert H.classify(H.rotation(1.0)).kind == "elliptic"


class TestFlow:
    def test_zero(self):
        x = H.UnitTangent(H.rotation(0.4))
        assert geodesic_flow(x, 0.0).rep == x.rep

    def test_flow_property(self):
        x = H.UnitTangent(H.element(1, 1, 0, 1))
        a = geodesic_flow(geodesic_flow(x, 0.8), 0.5)
        b = geodesic_flow(x, 1.3)
        assert H.psl_distance(a.rep, b.rep) < 1e-13

    def test_upright_tangent_moves_vertically(self):
        x = geodesic_flow(H.BASE_TANGENT, 1.2)
        bp = x.base_point()
        assert abs(bp.x) < 1e-15 and bp.y == pytest.approx(math.exp(1.2))


class TestGroupLaws:
    def test_associativity(self):
        rng = random.Random(8)
        for _ in range(300):
            g, h, k = rand_elt(rng), rand_elt(rng), rand_elt(rng)
            lhs = H.compose(H.compose(g, h), k)
            rhs = H.compose(g, H.compose(h, k))
            assert rel_err(lhs, rhs) < 1e-10
