"""Tests for lightray-coordinate region geometry and the cylinder action."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modnet.mobius import INF, CoverElement, GElement
from modnet.spacetime import (
    CylinderRegion,
    Region,
    RegionKind,
    causal_complement,
    copy_view,
    g_act,
    reflect,
    spacelike,
    wedge_corner,
)

TWO_PI = 2.0 * math.pi


def affine_g(rng, shift_scale=2.0, dil_scale=1.0):
    """A random element of the translation-dilation-boost subgroup."""
    left = (CoverElement.translation(shift_scale * rng.normal())
            @ CoverElement.dilation(dil_scale * rng.normal()))
    right = (CoverElement.translation(shift_scale * rng.normal())
             @ CoverElement.dilation(dil_scale * rng.normal()))
    return GElement(left, right)


def sample_points(rng, region, n=30):
    """Random points of a (possibly unbounded) product region."""
    pts = []
    for lo, hi in (region.left, region.right):
        lo_f = lo if lo != -INF else min(hi, 0.0) - 10.0
        hi_f = hi if hi != INF else max(lo, 0.0) + 10.0
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
    assert Region.backward_cone().kind is RegionKind.LIGHTCONE_BWD
    assert Region.half_band_right().kind is RegionKind.HALF_BAND_R
    assert Region.half_band_left().kind is RegionKind.HALF_BAND_L


def test_standard_wedges_in_lightray_coordinates():
    w = Region.wedge_right()
    assert w.left == (-INF, 0.0)
    assert w.right == (0.0, INF)
    w = Region.wedge_left()
    assert w.left == (0.0, INF)
    assert w.right == (-INF, 0.0)


def test_kind_validation():
    with pytest.raises(ValueError):
        Region((0.0, 1.0), (0.0, 1.0), kind="WedgeRight")
    with pytest.raises(ValueError):
        Region((-INF, INF), (0.0, 1.0))
    with pytest.raises(ValueError):
        Region((1.0, 0.0), (0.0, 1.0))


def test_half_band_chirality_covers_time_reflection():
    # the time-reflected right half-band still extends to the spatial right
    r = Region((-INF, 0.0), (-1.0, 0.0))
    assert r.kind is RegionKind.HALF_BAND_R
    r = Region((0.0, 1.0), (-INF, 0.0))
    assert r.kind is RegionKind.HALF_BAND_L


def test_region_contains():
    big = Region.forward_cone()
    assert big.contains(Region((1.0, 2.0), (0.5, 3.0)))
    assert not big.contains(Region((-1.0, 2.0), (0.5, 3.0)))
    assert big.contains_point((0.5, 0.5))
    assert not big.contains_point((-0.5, 0.5))


# ---------------------------------------------------------------------------
# causal complement
# ---------------------------------------------------------------------------


def test_causal_complement_of_unit_double_cone():
    w1, w2 = causal_complement(Region.unit_double_cone())
    assert w1 == Region((1.0, INF), (-INF, 0.0))
    assert w2 == Region((-INF, 0.0), (1.0, INF))
    assert w1.kind is RegionKind.WEDGE_LEFT
    assert w2.kind is RegionKind.WEDGE_RIGHT


def test_causal_complement_pointwise_spacelike():
    rng = np.random.default_rng(101)
    cone = Region((0.3, 1.1), (-0.4, 0.7))
    for w in causal_complement(cone):
        assert spacelike(cone, w)
        for p in sample_points(rng, cone, 20):
            for q in sample_points(rng, w, 20):
                dl, dr = q[0] - p[0], q[1] - p[1]
                assert dl * dr < 0.0  # spacelike separation of points


def test_causal_complement_symmetric_cone_reflects_onto_itself():
    cone = Region((-1.0, 1.0), (-1.0, 1.0))
    w1, w2 = causal_complement(cone)
    assert reflect(w1) == w2
    assert reflect(w2) == w1


def test_causal_complement_translation_equivariance():
    rng = np.random.default_rng(103)
    for _ in range(10):
        shift = rng.normal(size=2) * 3
        cone = Region((0.0, 1.0), (0.0, 1.0))
        moved = cone.translate(shift)
        got = causal_complement(moved)
        expect = tuple(w.translate(shift) for w in causal_complement(cone))
        assert got[0] == expect[0] and got[1] == expect[1]


def test_causal_complement_rejects_unbounded():
    with pytest.raises(ValueError):
        causal_complement(Region.wedge_right())


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


def test_spacelike_basics():
    assert spacelike(Region.wedge_left(), Region.wedge_right())
    assert not spacelike(Region.forward_cone(), Region.wedge_right())
    assert not spacelike(Region.unit_double_cone(),
                         Region.unit_double_cone())
    # lightlike touching is not spacelike
    assert not spacelike(Region((0.0, 1.0), (0.0, 1.0)),
                         Region((1.0, 2.0), (0.0, 1.0)))


# ---------------------------------------------------------------------------
# reflections
# ---------------------------------------------------------------------------


def test_reflect_cone_and_wedges():
    assert reflect(Region.forward_cone()) == Region.backward_cone()
    assert reflect(Region.wedge_right()) == Region.wedge_left()
    r = Region((0.2, 0.9), (-1.2, 0.4))
    assert reflect(reflect(r)) == r


def test_wedge_reflection_fixes_corner_and_swaps_complement():
    w = Region.wedge_right((1.5, -0.5))
    assert wedge_corner(w) == (1.5, -0.5)
    image = reflect(w, wedge=w)
    assert image == Region.wedge_left((1.5, -0.5))
    assert spacelike(w, image)
    # reflecting about the standard wedge exchanges it with its complement
    assert reflect(Region.wedge_right(), wedge=Region.wedge_right()) \
        == Region.wedge_left()


def test_wedge_corner_rejects_cones():
    with pytest.raises(ValueError):
        wedge_corner(Region.forward_cone())


# ---------------------------------------------------------------------------
# cylinder action
# ---------------------------------------------------------------------------


def test_dilation_preserves_forward_cone():
    g = GElement(CoverElement.dilation(-0.8), CoverElement.dilation(-0.8))
    out = g_act(g, Region.forward_cone())
    assert out.region == Region.forward_cone()
    assert out == CylinderRegion(Region.forward_cone())


def test_boost_preserves_left_wedge():
    t = 1.3
    g = GElement(CoverElement.dilation(-t), CoverElement.dilation(t))
    out = g_act(g, Region.wedge_left())
    assert out.region == Region.wedge_left()


def test_deck_rotation_acts_trivially():
    g = GElement(CoverElement.rotation(-TWO_PI),
                 CoverElement.rotation(TWO_PI))
    r = CylinderRegion(Region((0.1, 0.6), (-0.4, 0.2)))
    assert g_act(g, r) == r


def test_affine_action_matches_interval_arithmetic():
    rng = np.random.default_rng(109)
    for _ in range(25):
        a, b = rng.normal(size=2) * 2
        s, u = rng.normal(size=2)
        g = GElement(CoverElement.translation(a) @ CoverElement.dilation(s),
                 CoverElement.translation(b) @ CoverElement.dilation(u))
        r = Region(np.sort(rng.normal(size=2) * 2),
                   np.sort(rng.normal(size=2) * 2))
        out = g_act(g, r).region
        es, eu = math.exp(s), math.exp(u)
        expect = Region((es * r.left[0] + a, es * r.left[1] + a),
                        (eu * r.right[0] + b, eu * r.right[1] + b))
        assert out == expect


def test_rotation_moves_cone_out_of_copy():
    g = GElement(CoverElement.rotation(math.pi),
                 CoverElement.rotation(math.pi))
    out = g_act(g, Region.unit_double_cone())
    assert out.region.kind is RegionKind.DOUBLE_CONE
    back = g_act(g.inverse(), out)
    assert back == CylinderRegion(Region.unit_double_cone())


def test_action_preserves_inclusion_and_wedge_family():
    rng = np.random.default_rng(113)
    for _ in range(20):
        g = affine_g(rng)
        w = Region.wedge_right(rng.normal(size=2))
        assert g_act(g, w).region.kind is RegionKind.WEDGE_RIGHT
        small = Region((0.0, 1.0), (0.0, 1.0)).translate(rng.normal(size=2))
        big = Region((small.left[0] - 0.5, small.left[1] + 0.5),
                     (small.right[0] - 0.5, small.right[1] + 0.5))
        gs, gb = g_act(g, small), g_act(g, big)
        assert gb.region.contains(gs.region)


def test_copy_center_canonicalisation():
    r = Region((0.1, 0.5), (0.2, 0.8))
    a = CylinderRegion(r, (0.0, 0.0))
    b = CylinderRegion(r, (-TWO_PI, TWO_PI))
    assert a.copy_center == b.copy_center == (0.0, 0.0)
    assert a == b


# ---------------------------------------------------------------------------
# copy views
# ---------------------------------------------------------------------------


def test_right_wedge_is_left_wedge_in_shifted_copy():
    out = copy_view(Region.wedge_right(), (-math.pi, math.pi))
    assert out.region == Region.wedge_left()
    # the requested centre is stored in canonical deck position
    assert out.copy_center == (math.pi, -math.pi)
    assert out == CylinderRegion(Region.wedge_right())


def test_right_wedge_is_double_cone_in_slightly_shifted_copy():
    eps = 0.3
    out = copy_view(Region.wedge_right(), (-eps, eps))
    assert out.region.kind is RegionKind.DOUBLE_CONE
    # same cylinder subset either way
    assert out == CylinderRegion(Region.wedge_right())


def test_copy_view_identity_and_roundtrip():
    d0 = Region.unit_double_cone()
    assert copy_view(d0, (0.0, 0.0)).region == d0
    rng = np.random.default_rng(127)
    for _ in range(10):
        c = rng.uniform(-0.5, 0.5, size=2)
        there = copy_view(d0, c)
        back = copy_view(there, (0.0, 0.0))
        assert back.region == d0


def test_copy_view_rejects_region_leaving_the_square():
    wide = Region((-50.0, 50.0), (-50.0, 50.0))
    with pytest.raises(ValueError, match="does not fit"):
        copy_view(wide, (2.5, 0.0))
    with pytest.raises(ValueError, match="does not fit"):
        copy_view(Region.wedge_right(), (2.5, 0.0))
