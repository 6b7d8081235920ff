"""Regions of two-dimensional Minkowski space.

Points are kept in lightray coordinates ``a_L = (a0 - a1)/sqrt(2)``,
``a_R = (a0 + a1)/sqrt(2)``, in which every region of interest is a
product of one open interval per lightray.

All geometry is interval arithmetic; regions are open and no 2D point
sets are ever materialized.
"""

from __future__ import annotations

import enum
import math

#: tolerance for endpoint comparisons of regions
GEOM_TOL = 1e-9


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
    below = lo == -math.inf
    above = hi == math.inf
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

    The kind tag is derived from the interval shapes.
    """

    __slots__ = ("left", "right", "kind")

    def __init__(self, left, right):
        left = (float(left[0]), float(left[1]))
        right = (float(right[0]), float(right[1]))
        for lo, hi in (left, right):
            if not lo < hi:
                raise ValueError("interval endpoints must satisfy lo < hi")
        self.left = left
        self.right = right
        self.kind = _KIND_TABLE[(_interval_shape(left),
                                 _interval_shape(right))]

    # -- catalogue ------------------------------------------------------

    @classmethod
    def double_cone(cls, left, right):
        return cls(left, right)

    @classmethod
    def unit_double_cone(cls):
        return cls((0.0, 1.0), (0.0, 1.0))

    @classmethod
    def wedge_right(cls, corner=(0.0, 0.0)):
        return cls((-math.inf, corner[0]), (corner[1], math.inf))

    @classmethod
    def wedge_left(cls, corner=(0.0, 0.0)):
        return cls((corner[0], math.inf), (-math.inf, corner[1]))

    @classmethod
    def forward_cone(cls, apex=(0.0, 0.0)):
        return cls((apex[0], math.inf), (apex[1], math.inf))

    # -- basic geometry -------------------------------------------------

    def translate(self, shift):
        a, b = shift
        return Region((self.left[0] + a, self.left[1] + a),
                      (self.right[0] + b, self.right[1] + b))

    def __repr__(self):
        return (f"Region({self.kind.value}, left={self.left!r}, "
                f"right={self.right!r})")


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


def wedge_corner(wedge):
    """The corner (edge point) of a wedge region, in lightray coordinates."""
    if wedge.kind is RegionKind.WEDGE_RIGHT:
        return wedge.left[1], wedge.right[0]
    if wedge.kind is RegionKind.WEDGE_LEFT:
        return wedge.left[0], wedge.right[1]
    raise ValueError("corner is defined for wedge regions only")


def minimal_wedges(cone):
    """The two minimal wedges (W_R, W_L) around a double cone: the cone
    (al, bl) x (ar, br) has W_R corner (bl, ar) and W_L corner (al, br)."""
    if cone.kind is not RegionKind.DOUBLE_CONE:
        raise ValueError("minimal wedges are defined for double cones")
    (al, bl), (ar, br) = cone.left, cone.right
    return Region.wedge_right((bl, ar)), Region.wedge_left((al, br))
