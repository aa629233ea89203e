"""Numerical kernel for PSL(2,R) and the hyperbolic upper half-plane.

A group element is a real 2x2 matrix of determinant one, taken modulo sign.
It doubles as a unit tangent vector on the half-plane through the usual
identification: the identity matrix is the upward tangent at i, and g acts
on tangents by left multiplication.  Right multiplication by ``translation(t)``
runs the geodesic flow for time t; right multiplication by ``rotation(theta)``
spins the tangent in its fibre.

Everything here is pure and allocation-light: the walk engine calls these
operations millions of times.
"""

from __future__ import annotations

import math

from ._record import record

TRACE_TOL = 1e-9      # elliptic/parabolic/hyperbolic classification margin
Y_MIN = 1e-300        # images below this height signal numeric overflow

TWO_PI = 2.0 * math.pi


class DegenerateImageError(ArithmeticError):
    """A Mobius image collapsed onto the boundary (numeric overflow)."""


def _wrap_angle(theta: float) -> float:
    """Map an angle into [0, 2*pi)."""
    t = math.fmod(theta, TWO_PI)
    if t < 0.0:
        t += TWO_PI
    if t >= TWO_PI:  # fmod can round up to 2*pi exactly
        t = 0.0
    return t


@record(slots=True)
class GroupElement:
    """A PSL(2,R) element stored as its sign-canonical det-1 representative.

    The stored representative satisfies (c > 0), or (c == 0 and a > 0),
    or (c == a == 0 and b > 0).  Use :func:`element` to construct one from
    raw entries; the constructor itself does not normalize.
    """

    a: float
    b: float
    c: float
    d: float

    @property
    def det(self) -> float:
        return self.a * self.d - self.b * self.c

    @property
    def trace(self) -> float:
        return self.a + self.d

    def as_tuple(self) -> tuple[float, float, float, float]:
        return (self.a, self.b, self.c, self.d)

    def __repr__(self) -> str:  # compact, matrix-shaped
        return f"[[{self.a:.12g}, {self.b:.12g}], [{self.c:.12g}, {self.d:.12g}]]"


def canonical_entries(
    a: float, b: float, c: float, d: float
) -> tuple[float, float, float, float]:
    """Pick the sign-canonical representative of +/-(a,b,c,d)."""
    if c < 0.0 or (c == 0.0 and (a < 0.0 or (a == 0.0 and b < 0.0))):
        return (-a, -b, -c, -d)
    return (a, b, c, d)


def element(a: float, b: float, c: float, d: float) -> GroupElement:
    """Build a group element, renormalizing the determinant by scaling.

    The rescale is skipped while |det - 1| sits below the floating noise
    floor of the determinant itself (~eps * max-entry^2): below that floor a
    rescale would inject the cancellation error of a*d - b*c into otherwise
    accurate entries.  Raises ValueError on a non-positive determinant.
    """
    det = a * d - b * c
    if not det > 0.0:
        raise ValueError(f"matrix determinant must be positive, got {det}")
    m = max(abs(a), abs(b), abs(c), abs(d))
    if abs(det - 1.0) > 1e-13 * (1.0 + m * m):
        s = 1.0 / math.sqrt(det)
        a, b, c, d = a * s, b * s, c * s, d * s
    return GroupElement(*canonical_entries(a, b, c, d))


IDENTITY = GroupElement(1.0, 0.0, 0.0, 1.0)


def compose(g: GroupElement, h: GroupElement) -> GroupElement:
    """Matrix product g*h, renormalized and sign-canonicalized."""
    a = g.a * h.a + g.b * h.c
    b = g.a * h.b + g.b * h.d
    c = g.c * h.a + g.d * h.c
    d = g.c * h.b + g.d * h.d
    return element(a, b, c, d)


def compose_all(*gs: GroupElement) -> GroupElement:
    out = IDENTITY
    for g in gs:
        out = compose(out, g)
    return out


def inverse(g: GroupElement) -> GroupElement:
    """Inverse via the adjugate (determinant is one)."""
    return element(g.d, -g.b, -g.c, g.a)


def translation(t: float) -> GroupElement:
    """diag(e^{t/2}, e^{-t/2}): geodesic-flow one-parameter subgroup."""
    e = math.exp(0.5 * t)
    return GroupElement(*canonical_entries(e, 0.0, 0.0, 1.0 / e))


def rotation(theta: float) -> GroupElement:
    """Rotation of the tangent fibre by theta (matrix angle theta/2)."""
    c = math.cos(0.5 * theta)
    s = math.sin(0.5 * theta)
    return GroupElement(*canonical_entries(c, -s, s, c))


def unipotent(u: float) -> GroupElement:
    """Upper-unipotent [[1, u], [0, 1]]: horocyclic translation at infinity."""
    return GroupElement(*canonical_entries(1.0, u, 0.0, 1.0))


@record(slots=True)
class PointH:
    """A point of the upper half-plane, y > 0 strictly."""

    x: float
    y: float

    def __post_init__(self) -> None:
        if not self.y > 0.0:
            raise ValueError(f"half-plane point needs y > 0, got y={self.y}")


POINT_I = PointH(0.0, 1.0)


def mobius(g: GroupElement, z: PointH) -> PointH:
    """Fractional-linear action (az+b)/(cz+d); always lands in the half-plane.

    Raises DegenerateImageError when the image height underflows, which flags
    numeric overflow in the matrix entries rather than genuine geometry.
    """
    x, y = mobius_xy(g.a, g.b, g.c, g.d, z.x, z.y)
    if not (y > Y_MIN and math.isfinite(x)):
        raise DegenerateImageError(f"image height {y} below tolerance")
    return PointH(x, y)


def mobius_xy(
    a: float, b: float, c: float, d: float, x: float, y: float
) -> tuple[float, float]:
    """Raw Mobius action on coordinates, no validation (hot-path helper)."""
    # (az+b)(conj(cz+d)) = (ax+b)(cx+d) + acy^2 + i*y*(ad-bc)
    cxd = c * x + d
    den = cxd * cxd + (c * y) * (c * y)
    xn = ((a * x + b) * cxd + a * c * y * y) / den
    yn = y * (a * d - b * c) / den
    return xn, yn


def distance(z: PointH, w: PointH) -> float:
    """Hyperbolic distance: cosh d = 1 + |z-w|^2 / (2 Im z Im w)."""
    dx = z.x - w.x
    dy = z.y - w.y
    arg = 1.0 + (dx * dx + dy * dy) / (2.0 * z.y * w.y)
    if arg < 1.0:
        arg = 1.0
    return math.acosh(arg)


@record(slots=True)
class UnitTangent:
    """A unit tangent vector, stored as the group element moving the
    base tangent (i, upward) onto it."""

    rep: GroupElement

    def base_point(self) -> PointH:
        return mobius(self.rep, POINT_I)


BASE_TANGENT = UnitTangent(IDENTITY)


@record(slots=True)
class IwasawaCoords:
    """g = unipotent(u) * translation(t) * rotation(theta), theta in [0, 2pi)."""

    u: float
    t: float
    theta: float


def iwasawa(g: GroupElement) -> IwasawaCoords:
    """Decompose g = n(u) a_t k.  Total: every element decomposes.

    The bottom row of n(u) a_t R_theta is e^{-t/2} (sin(theta/2), cos(theta/2)),
    so the K-angle and the flow coordinate read off the bottom row and u off
    the top row.  Sign flips stay inside the PSL quotient.
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    h = math.hypot(c, d)
    t = -2.0 * math.log(h)
    half = math.atan2(c, d)
    if half < 0.0 or half >= math.pi:
        # use the -g representative so that theta/2 lands in [0, pi)
        a, b, c, d = -a, -b, -c, -d
        half = math.atan2(c, d)
    sh = c / h
    ch = d / h
    u = (a * sh + b * ch) / h  # e^{t/2} = 1/h
    return IwasawaCoords(u=u, t=t, theta=_wrap_angle(2.0 * half))


def iwasawa_reconstruct(co: IwasawaCoords) -> GroupElement:
    return compose(compose(unipotent(co.u), translation(co.t)), rotation(co.theta))


@record(slots=True)
class CartanCoords:
    """g = rotation(theta1) * translation(t) * rotation(theta2), t >= 0."""

    theta1: float
    t: float
    theta2: float


def singular_values(a: float, b: float, c: float, d: float) -> tuple[float, float]:
    """Singular values of a 2x2 matrix, closed form (largest first)."""
    e = 0.5 * (a + d)
    f = 0.5 * (a - d)
    gg = 0.5 * (b + c)
    h = 0.5 * (c - b)
    q = math.hypot(e, h)
    r = math.hypot(f, gg)
    return q + r, abs(q - r)


def cartan(g: GroupElement) -> CartanCoords:
    """Closed-form 2x2 singular value decomposition into K A K.

    t equals twice the log of the largest singular value, so it measures
    the hyperbolic displacement of the base point i under g.
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    e = 0.5 * (a + d)
    f = 0.5 * (a - d)
    gg = 0.5 * (b + c)
    h = 0.5 * (c - b)
    q = math.hypot(e, h)
    r = math.hypot(f, gg)
    s1 = q + r
    sum_angle = math.atan2(h, e)
    diff_angle = math.atan2(gg, f) if r > 0.0 else 0.0
    left = 0.5 * (sum_angle + diff_angle)
    right = 0.5 * (sum_angle - diff_angle)
    t = 2.0 * math.log(s1) if s1 > 1.0 else 0.0
    return CartanCoords(
        theta1=_wrap_angle(2.0 * left), t=t, theta2=_wrap_angle(2.0 * right)
    )


def cartan_reconstruct(co: CartanCoords) -> GroupElement:
    return compose(compose(rotation(co.theta1), translation(co.t)), rotation(co.theta2))


@record(slots=True)
class Classification:
    kind: str  # "identity" | "elliptic" | "parabolic" | "hyperbolic"
    translation_length: float | None = None


def classify(g: GroupElement) -> Classification:
    """Conjugacy type by |trace| against 2."""
    tr = abs(g.trace)
    if tr > 2.0 + TRACE_TOL:
        return Classification("hyperbolic", 2.0 * math.acosh(0.5 * tr))
    if tr >= 2.0 - TRACE_TOL:
        off = max(abs(g.b), abs(g.c), abs(g.a - g.d))
        if off <= TRACE_TOL:
            return Classification("identity", 0.0)
        return Classification("parabolic", 0.0)
    return Classification("elliptic", None)


def psl_distance(g: GroupElement, h: GroupElement) -> float:
    """Max-norm distance between canonical representatives, mod sign."""
    d1 = max(
        abs(g.a - h.a), abs(g.b - h.b), abs(g.c - h.c), abs(g.d - h.d)
    )
    d2 = max(
        abs(g.a + h.a), abs(g.b + h.b), abs(g.c + h.c), abs(g.d + h.d)
    )
    return min(d1, d2)


def fixed_points_on_boundary(g: GroupElement) -> tuple:
    """Fixed points of g on the boundary R u {inf}; inf encoded as math.inf.

    Hyperbolic elements give two points, parabolic one, elliptic none.
    """
    a, b, c, d = g.a, g.b, g.c, g.d
    if abs(c) <= 1e-15:
        # fixes infinity; other fixed point solves (a-d) z + b = 0
        if abs(a - d) <= TRACE_TOL:
            return (math.inf,)
        return (math.inf, b / (d - a))
    disc = (a + d) ** 2 - 4.0
    if disc < -TRACE_TOL:
        return ()
    if disc <= TRACE_TOL:
        return ((a - d) / (2.0 * c),)
    rt = math.sqrt(max(disc, 0.0))
    # roots of c z^2 + (d-a) z - b = 0
    return ((a - d + rt) / (2.0 * c), (a - d - rt) / (2.0 * c))
