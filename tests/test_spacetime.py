"""Tests for lightray-coordinate region geometry."""

import math

import numpy as np
import pytest

from modnet.spacetime import (
    Region,
    RegionKind,
    spacelike,
    wedge_corner,
)


def sample_points(rng, region, n=30):
    """Random points of a (possibly unbounded) product region."""
    pts = []
    for lo, hi in (region.left, region.right):
        lo_f = lo if lo != -math.inf else min(hi, 0.0) - 10.0
        hi_f = hi if hi != math.inf else max(lo, 0.0) + 10.0
        pts.append(rng.uniform(lo_f + 1e-6, hi_f - 1e-6, size=n))
    return np.column_stack(pts)


# ---------------------------------------------------------------------------
# region catalogue
# ---------------------------------------------------------------------------


def test_catalogue_kinds():
    assert Region.unit_double_cone().kind is RegionKind.DOUBLE_CONE
    assert Region.wedge_right().kind is RegionKind.WEDGE_RIGHT
    assert Region.wedge_left().kind is RegionKind.WEDGE_LEFT
    assert Region.forward_cone().kind is RegionKind.LIGHTCONE_FWD
    assert Region((-math.inf, 0.0), (-math.inf, 0.0)).kind \
        is RegionKind.LIGHTCONE_BWD
    assert Region((0.0, 1.0), (0.0, math.inf)).kind is RegionKind.HALF_BAND_R
    assert Region((0.0, math.inf), (0.0, 1.0)).kind is RegionKind.HALF_BAND_L


def test_standard_wedges_in_lightray_coordinates():
    w = Region.wedge_right()
    assert w.left == (-math.inf, 0.0)
    assert w.right == (0.0, math.inf)
    w = Region.wedge_left()
    assert w.left == (0.0, math.inf)
    assert w.right == (-math.inf, 0.0)


def test_kind_validation():
    with pytest.raises(ValueError):
        Region((-math.inf, math.inf), (0.0, 1.0))
    with pytest.raises(ValueError):
        Region((1.0, 0.0), (0.0, 1.0))


def test_half_band_chirality_covers_time_reflection():
    # the time-reflected right half-band still extends to the spatial right
    r = Region((-math.inf, 0.0), (-1.0, 0.0))
    assert r.kind is RegionKind.HALF_BAND_R
    r = Region((0.0, 1.0), (-math.inf, 0.0))
    assert r.kind is RegionKind.HALF_BAND_L


def test_translate_moves_each_lightray_interval():
    moved = Region.unit_double_cone().translate((2.0, -0.5))
    assert (moved.left, moved.right) == ((2.0, 3.0), (-0.5, 0.5))
    wedge = Region.wedge_right().translate((1.5, -0.5))
    want = Region.wedge_right((1.5, -0.5))
    assert (wedge.left, wedge.right) == (want.left, want.right)


# ---------------------------------------------------------------------------
# spacelike separation
# ---------------------------------------------------------------------------


def test_spacelike_symmetry_random():
    rng = np.random.default_rng(107)
    for _ in range(50):
        r1 = Region(np.sort(rng.normal(size=2) * 2),
                    np.sort(rng.normal(size=2) * 2))
        r2 = Region(np.sort(rng.normal(size=2) * 2),
                    np.sort(rng.normal(size=2) * 2))
        assert spacelike(r1, r2) == spacelike(r2, r1)


def test_causal_complement_pointwise_spacelike():
    # the causal complement of (a, b) x (c, d) is the wedge pair
    # (b, oo) x (-oo, c) and (-oo, a) x (d, oo); spacelike() must agree
    # with the separation of sampled points
    rng = np.random.default_rng(101)
    cone = Region((0.3, 1.1), (-0.4, 0.7))
    for w in (Region((1.1, math.inf), (-math.inf, -0.4)),
              Region((-math.inf, 0.3), (0.7, math.inf))):
        assert spacelike(cone, w)
        for p in sample_points(rng, cone, 20):
            for q in sample_points(rng, w, 20):
                dl, dr = q[0] - p[0], q[1] - p[1]
                assert dl * dr < 0.0  # spacelike separation of points


def test_spacelike_basics():
    assert spacelike(Region.wedge_left(), Region.wedge_right())
    assert not spacelike(Region.forward_cone(), Region.wedge_right())
    assert not spacelike(Region.unit_double_cone(),
                         Region.unit_double_cone())
    # lightlike touching is not spacelike
    assert not spacelike(Region((0.0, 1.0), (0.0, 1.0)),
                         Region((1.0, 2.0), (0.0, 1.0)))


# ---------------------------------------------------------------------------
# wedge corners
# ---------------------------------------------------------------------------


def test_wedge_corner_of_both_wedges():
    assert wedge_corner(Region.wedge_right((1.5, -0.5))) == (1.5, -0.5)
    assert wedge_corner(Region.wedge_left((1.5, -0.5))) == (1.5, -0.5)


def test_wedge_corner_rejects_cones():
    with pytest.raises(ValueError):
        wedge_corner(Region.forward_cone())

