"""Regions of two-dimensional Minkowski space and the Einstein cylinder.

Points are kept in lightray coordinates ``a_L = (a0 - a1)/sqrt(2)``,
``a_R = (a0 + a1)/sqrt(2)``, in which every region of interest is a
product of one open interval per lightray.  The cylinder is the plane of
lifted lightray angles ``u = 2 atan(x)`` modulo the identification
``(u_L, u_R) ~ (u_L - 2 pi, u_R + 2 pi)``; the Minkowski copy centred at
``(a, b)`` is the open angle square ``(a - pi, a + pi) x (b - pi, b + pi)``.

All geometry is interval arithmetic; regions are open and no 2D point
sets are ever materialized.
"""

from __future__ import annotations

import enum
import math

from .mobius import INF, angle_of_point, point_of_angle

#: tolerance for endpoint comparisons of regions
GEOM_TOL = 1e-9

_TWO_PI = 2.0 * math.pi


class RegionKind(enum.Enum):
    DOUBLE_CONE = "DoubleCone"
    WEDGE_RIGHT = "WedgeRight"
    WEDGE_LEFT = "WedgeLeft"
    LIGHTCONE_FWD = "LightconeFwd"
    LIGHTCONE_BWD = "LightconeBwd"
    HALF_BAND_R = "HalfBandR"
    HALF_BAND_L = "HalfBandL"


def _interval_shape(iv):
    lo, hi = iv
    below = lo == -INF
    above = hi == INF
    if below and above:
        raise ValueError("interval must not be the whole line")
    if below:
        return "lower"
    if above:
        return "upper"
    return "bounded"


# shape of (left ray interval, right ray interval) -> region kind; the
# half-band chirality follows the spatial direction in which the band
# extends (a_1 = (a_R - a_L)/sqrt(2) unbounded above = right)
_KIND_TABLE = {
    ("bounded", "bounded"): RegionKind.DOUBLE_CONE,
    ("lower", "upper"): RegionKind.WEDGE_RIGHT,
    ("upper", "lower"): RegionKind.WEDGE_LEFT,
    ("upper", "upper"): RegionKind.LIGHTCONE_FWD,
    ("lower", "lower"): RegionKind.LIGHTCONE_BWD,
    ("bounded", "upper"): RegionKind.HALF_BAND_R,
    ("lower", "bounded"): RegionKind.HALF_BAND_R,
    ("upper", "bounded"): RegionKind.HALF_BAND_L,
    ("bounded", "lower"): RegionKind.HALF_BAND_L,
}


class Region:
    """An open product region ``leftInterval x rightInterval``.

    The kind tag is derived from the interval shapes (and validated when
    supplied explicitly).
    """

    __slots__ = ("left", "right", "kind")

    def __init__(self, left, right, kind=None):
        left = (float(left[0]), float(left[1]))
        right = (float(right[0]), float(right[1]))
        for lo, hi in (left, right):
            if not lo < hi:
                raise ValueError("interval endpoints must satisfy lo < hi")
        derived = _KIND_TABLE[(_interval_shape(left), _interval_shape(right))]
        if kind is not None and RegionKind(kind) is not derived:
            raise ValueError(
                f"kind {kind!r} inconsistent with interval shapes ({derived})"
            )
        self.left = left
        self.right = right
        self.kind = derived

    # -- catalogue ------------------------------------------------------

    @classmethod
    def double_cone(cls, left, right):
        return cls(left, right)

    @classmethod
    def unit_double_cone(cls):
        return cls((0.0, 1.0), (0.0, 1.0))

    @classmethod
    def wedge_right(cls, corner=(0.0, 0.0)):
        return cls((-INF, corner[0]), (corner[1], INF))

    @classmethod
    def wedge_left(cls, corner=(0.0, 0.0)):
        return cls((corner[0], INF), (-INF, corner[1]))

    @classmethod
    def forward_cone(cls, apex=(0.0, 0.0)):
        return cls((apex[0], INF), (apex[1], INF))

    @classmethod
    def backward_cone(cls, apex=(0.0, 0.0)):
        return cls((-INF, apex[0]), (-INF, apex[1]))

    @classmethod
    def half_band_right(cls):
        return cls((0.0, 1.0), (0.0, INF))

    @classmethod
    def half_band_left(cls):
        return cls((0.0, INF), (0.0, 1.0))

    # -- basic geometry -------------------------------------------------

    def translate(self, shift):
        a, b = shift
        return Region((self.left[0] + a, self.left[1] + a),
                      (self.right[0] + b, self.right[1] + b))

    def contains(self, other, tol=GEOM_TOL):
        return (self.left[0] <= other.left[0] + tol
                and other.left[1] <= self.left[1] + tol
                and self.right[0] <= other.right[0] + tol
                and other.right[1] <= self.right[1] + tol)

    def contains_point(self, p):
        return (self.left[0] < p[0] < self.left[1]
                and self.right[0] < p[1] < self.right[1])

    def __eq__(self, other):
        if not isinstance(other, Region):
            return NotImplemented
        return all(
            _endpoint_close(a, b)
            for a, b in zip(self.left + self.right, other.left + other.right)
        )

    def __hash__(self):
        raise TypeError("Region is not hashable")

    def __repr__(self):
        return (f"Region({self.kind.value}, left={self.left!r}, "
                f"right={self.right!r})")


def _endpoint_close(a, b, tol=GEOM_TOL):
    if a == b:  # covers matching infinities
        return True
    if math.isinf(a) or math.isinf(b):
        return False
    return abs(a - b) < tol


# ---------------------------------------------------------------------------
# causal structure
# ---------------------------------------------------------------------------


def _intervals_ordered(i, j, tol=GEOM_TOL):
    """True when interval i lies entirely below interval j."""
    return i[1] <= j[0] + tol


def spacelike(r1, r2):
    """Pointwise spacelike separation of two product regions.

    Open products are spacelike exactly when one sits in the other's
    left-over wedge: the left-ray intervals and the right-ray intervals
    are ordered in opposite directions.
    """
    return (
        (_intervals_ordered(r1.left, r2.left)
         and _intervals_ordered(r2.right, r1.right))
        or (_intervals_ordered(r2.left, r1.left)
            and _intervals_ordered(r1.right, r2.right))
    )


def causal_complement(region):
    """The two wedge components of the causal complement of a double cone.

    Returned in the order (left wedge translate, right wedge translate);
    their union is the complement and each is spacelike to the input.
    """
    if region.kind is not RegionKind.DOUBLE_CONE:
        raise ValueError(
            "causal complement splits into two wedges only for double cones"
        )
    (a, b), (c, d) = region.left, region.right
    w_left = Region((b, INF), (-INF, c))
    w_right = Region((-INF, a), (d, INF))
    return w_left, w_right


def reflect(region, wedge=None):
    """Spacetime reflection of a region.

    With no wedge this is the point reflection ``(a_L, a_R) -> (-a_L, -a_R)``
    through the origin; given a wedge it is the conjugated reflection
    fixing the wedge's corner, which exchanges the wedge with its causal
    complement.
    """
    if wedge is None:
        ca = cb = 0.0
    else:
        ca, cb = wedge_corner(wedge)
    return Region((2 * ca - region.left[1], 2 * ca - region.left[0]),
                  (2 * cb - region.right[1], 2 * cb - region.right[0]))


def wedge_corner(wedge):
    """The corner (edge point) of a wedge region, in lightray coordinates."""
    if wedge.kind is RegionKind.WEDGE_RIGHT:
        return wedge.left[1], wedge.right[0]
    if wedge.kind is RegionKind.WEDGE_LEFT:
        return wedge.left[0], wedge.right[1]
    raise ValueError("corner is defined for wedge regions only")


# ---------------------------------------------------------------------------
# the cylinder
# ---------------------------------------------------------------------------


class CylinderRegion:
    """A region together with the Minkowski copy it is read in.

    ``copy_center`` is the pair (a, b) of the angle square
    ``(a - pi, a + pi) x (b - pi, b + pi)``; the region's intervals always
    land inside that square under the angle map, so the invariant holds by
    construction.  Canonical form keeps the first centre coordinate inside
    (-pi, pi] by applying deck shifts (-2 pi, +2 pi).
    """

    __slots__ = ("region", "copy_center")

    def __init__(self, region, copy_center=(0.0, 0.0)):
        a, b = float(copy_center[0]), float(copy_center[1])
        k = math.floor((math.pi - a) / _TWO_PI)
        self.region = region
        self.copy_center = (a + _TWO_PI * k, b - _TWO_PI * k)

    def angle_rect(self):
        """Absolute cylinder-cover coordinates of the region."""
        a, b = self.copy_center
        al = (a + angle_of_point(self.region.left[0]),
              a + angle_of_point(self.region.left[1]))
        be = (b + angle_of_point(self.region.right[0]),
              b + angle_of_point(self.region.right[1]))
        return al, be

    @classmethod
    def from_angle_rect(cls, al, be):
        """Centre a raw angle rectangle in its own copy square."""
        a = 0.5 * (al[0] + al[1])
        b = 0.5 * (be[0] + be[1])
        region = Region(
            (point_of_angle(al[0] - a), point_of_angle(al[1] - a)),
            (point_of_angle(be[0] - b), point_of_angle(be[1] - b)),
        )
        return cls(region, (a, b))

    def __eq__(self, other):
        if not isinstance(other, CylinderRegion):
            return NotImplemented
        al1, be1 = self.angle_rect()
        al2, be2 = other.angle_rect()
        k = round((0.5 * (al1[0] + al1[1]) - 0.5 * (al2[0] + al2[1])) / _TWO_PI)
        return (
            abs(al2[0] + _TWO_PI * k - al1[0]) < GEOM_TOL
            and abs(al2[1] + _TWO_PI * k - al1[1]) < GEOM_TOL
            and abs(be2[0] - _TWO_PI * k - be1[0]) < GEOM_TOL
            and abs(be2[1] - _TWO_PI * k - be1[1]) < GEOM_TOL
        )

    def __hash__(self):
        raise TypeError("CylinderRegion is not hashable")

    def __repr__(self):
        return f"CylinderRegion({self.region!r}, center={self.copy_center!r})"


def g_act(g, cyl_region):
    """Action of a two-dimensional group element on a cylinder region.

    Plain regions are promoted to the copy centred at the origin.  The
    copy centre is kept whenever the image still fits in the same square,
    so affine images of subregions of a copy compare as plain regions.
    """
    if isinstance(cyl_region, Region):
        cyl_region = CylinderRegion(cyl_region)
    al, be = cyl_region.angle_rect()
    al2 = (g.left.act_lifted(al[0]), g.left.act_lifted(al[1]))
    be2 = (g.right.act_lifted(be[0]), g.right.act_lifted(be[1]))
    a, b = cyl_region.copy_center
    if (al2[0] >= a - math.pi - 1e-12 and al2[1] <= a + math.pi + 1e-12
            and be2[0] >= b - math.pi - 1e-12 and be2[1] <= b + math.pi + 1e-12):
        region = Region(
            (point_of_angle_signed(al2[0] - a), point_of_angle_signed(al2[1] - a)),
            (point_of_angle_signed(be2[0] - b), point_of_angle_signed(be2[1] - b)),
        )
        return CylinderRegion(region, (a, b))
    return CylinderRegion.from_angle_rect(al2, be2)


def point_of_angle_signed(u):
    """Like :func:`modnet.mobius.point_of_angle` but distinguishing -pi.

    Angles at the lower edge of a copy square map to -inf, at the upper
    edge to +inf.
    """
    if u <= -math.pi + 1e-12:
        return -INF
    if u >= math.pi - 1e-12:
        return INF
    return point_of_angle(u)


def copy_view(cyl_region, new_center):
    """Reinterpret a cylinder region in the copy centred at ``new_center``.

    Raises ValueError when no deck representative of the region fits
    inside the new copy square.
    """
    if isinstance(cyl_region, Region):
        cyl_region = CylinderRegion(cyl_region)
    al, be = cyl_region.angle_rect()
    na, nb = float(new_center[0]), float(new_center[1])
    k = round((0.5 * (al[0] + al[1]) - na) / _TWO_PI)
    al = (al[0] - _TWO_PI * k, al[1] - _TWO_PI * k)
    be = (be[0] + _TWO_PI * k, be[1] + _TWO_PI * k)
    tol = 1e-12
    if not (al[0] >= na - math.pi - tol and al[1] <= na + math.pi + tol
            and be[0] >= nb - math.pi - tol and be[1] <= nb + math.pi + tol):
        raise ValueError(
            f"region with angle rectangle {al} x {be} does not fit in the "
            f"copy square centred at {(na, nb)}"
        )
    region = Region(
        (point_of_angle_signed(al[0] - na), point_of_angle_signed(al[1] - na)),
        (point_of_angle_signed(be[0] - nb), point_of_angle_signed(be[1] - nb)),
    )
    return CylinderRegion(region, (na, nb))
