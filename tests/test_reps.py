"""Tests for the grid-realized one-particle representations."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modnet.mobius import (
    INF,
    CoverElement,
    GElement,
    Interval,
    MobiusElement,
    interval_dilation,
)
from modnet.reps import (
    ChiralGrid,
    LatticeRep,
    RapidityGrid,
    apply,
    build_rep,
)

CHIRAL = {"kind": "chiral", "n": 64, "h": 0.1, "u0": -3.2}
MASSIVE = {"kind": "massive", "n": 64, "h": 0.1, "theta0": -3.2, "mass": 1.0}
SUM = {"kind": "productChiralSum",
       "left": {"n": 48, "h": 0.1, "u0": -2.4},
       "right": {"n": 64, "h": 0.1, "u0": -3.2}}
DIRECT = {"kind": "directIntegral", "mass_min": 0.5, "mass_max": 2.5,
          "mass_count": 8, "theta": {"n": 32, "h": 0.2, "theta0": -3.2}}
GEOMETRIC = dict(DIRECT, spacing="geometric")

ALL_CONFIGS = [CHIRAL, MASSIVE, SUM, DIRECT]


def pair(t_l=0.0, s_l=0.0, t_r=0.0, s_r=0.0):
    """G element tau(t_L) delta(s_L) x tau(t_R) delta(s_R)."""
    left = CoverElement.translation(t_l).compose(CoverElement.dilation(s_l))
    right = CoverElement.translation(t_r).compose(CoverElement.dilation(s_r))
    return GElement(left, right)


def boost(s):
    return pair(s_l=-s, s_r=s)


def unitarity_deviation(rep, g, rng, samples):
    """max | ||U(g) xi|| - ||xi|| | / ||xi|| over random vectors xi."""
    worst = 0.0
    for _ in range(samples):
        xi = rep.random_vector(rng)
        worst = max(worst, abs(rep.norm(apply(rep, g, xi)) - rep.norm(xi))
                    / rep.norm(xi))
    return worst


def central_half(n):
    mask = np.zeros(n, dtype=bool)
    mask[n // 4:(3 * n) // 4] = True
    return mask


def central_vector(rep, rng):
    """Random vector supported in the central half of every shifted grid
    axis, where the lattice elements drawn here see no wrap-around; the
    uniformly spaced masses of a direct integral never shift."""
    if rep.kind == "directIntegral":
        mask = central_half(rep.grids[0].n)[None, :]
    else:
        mask = np.concatenate([central_half(g.n) for g in rep.grids])
    return rep.random_vector(rng) * mask


def random_lattice_element(rng, rep):
    """Random element of the implemented (lattice) subgroup."""
    h = rep.grids[0].h
    if rep.kind == "chiral":
        g = MobiusElement.translation(rng.uniform(-1, 1))
        return g @ MobiusElement.dilation(h * int(rng.integers(-3, 4)))
    t_l, t_r = rng.uniform(-1, 1, size=2)
    if rep.kind == "productChiralSum":
        s_l = rep.grids[0].h * int(rng.integers(-3, 4))
        s_r = rep.grids[1].h * int(rng.integers(-3, 4))
    else:
        b = rep.grids[0].h * int(rng.integers(-3, 4))
        s_l, s_r = -b, b
    return pair(t_l, s_l, t_r, s_r)


# ---------------------------------------------------------------------------
# grids
# ---------------------------------------------------------------------------


def test_chiral_grid_measure():
    g = ChiralGrid(16, 0.25, -2.0)
    assert np.all(g.momenta > 0)
    assert np.all(g.weights > 0)
    assert_allclose(g.weights, g.momenta**2 * 0.25)
    assert_allclose(g.momenta[1:] / g.momenta[:-1], math.exp(0.25))


def test_rapidity_grid_mass_shell():
    g = RapidityGrid(32, 0.2, -3.2, mass=1.5)
    omega, p1 = 1.5 * np.cosh(g.theta), 1.5 * np.sinh(g.theta)
    assert_allclose(omega**2 - p1**2, 1.5**2 * np.ones(32), rtol=1e-12)
    assert np.all(omega > 0)
    assert_allclose(g.weights, 0.1)
    p_l, p_r = g.lightray_momenta()
    assert_allclose(2 * p_l * p_r, np.full(32, 1.5**2), rtol=1e-12)
    assert_allclose((p_l - p_r) / math.sqrt(2), p1, rtol=1e-12, atol=1e-12)


def test_grid_validation():
    with pytest.raises(ValueError):
        ChiralGrid(1, 0.1, 0.0)
    with pytest.raises(ValueError):
        ChiralGrid(8, -0.1, 0.0)
    with pytest.raises(ValueError):
        RapidityGrid(31, 0.1, 0.0, 1.0)
    with pytest.raises(ValueError):
        RapidityGrid(32, 0.1, 0.0, -1.0)


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def test_build_shapes():
    assert build_rep(CHIRAL).shape == (64,)
    assert build_rep(MASSIVE).shape == (64,)
    assert build_rep(SUM).shape == (112,)
    assert build_rep(DIRECT).shape == (8, 32)


def test_build_rejects_bad_configs():
    with pytest.raises(ValueError):
        build_rep({"kind": "nonsense"})
    with pytest.raises(ValueError):
        build_rep(dict(DIRECT, mass_min=-1.0))
    with pytest.raises(ValueError):
        build_rep(dict(DIRECT, spacing="random"))


def test_direct_integral_mass_weights():
    rep = build_rep(DIRECT)
    masses = np.array([g.mass for g in rep.grids])
    dm = 0.25
    assert_allclose(masses, 0.5 + dm * (np.arange(8) + 0.5))
    assert_allclose(rep.mass_weights, masses**3 * dm / 4.0)
    geo = build_rep(GEOMETRIC)
    ratios = [geo.grids[i + 1].mass / geo.grids[i].mass for i in range(7)]
    assert_allclose(ratios, ratios[0], rtol=1e-12)


# ---------------------------------------------------------------------------
# elementary actions
# ---------------------------------------------------------------------------


def test_zero_translation_is_identity():
    rng = np.random.default_rng(3)
    for cfg in ALL_CONFIGS:
        rep = build_rep(cfg)
        xi = rep.random_vector(rng)
        g = (MobiusElement.translation(0.0) if cfg is CHIRAL
             else GElement.identity())
        assert_allclose(apply(rep, g, xi), xi, atol=0)


def test_massive_boost_is_cyclic_shift():
    rep = build_rep(MASSIVE)
    rng = np.random.default_rng(5)
    xi = rep.random_vector(rng)
    out = apply(rep, boost(rep.grids[0].h), xi)
    assert_allclose(out, np.roll(xi, 1), atol=0)
    assert rep.norm(out) == pytest.approx(rep.norm(xi), rel=1e-14)


def test_chiral_dilation_weighted_shift():
    # the flow of R_+ acts by (xi)(p) -> e^{-t} xi(e^{-t} p): for t = h
    # this is the backward weighted shift with Jacobian e^{-h}
    rep = build_rep(CHIRAL)
    h = rep.grids[0].h
    rng = np.random.default_rng(7)
    xi = rep.random_vector(rng)
    lam = interval_dilation(Interval.from_line(0.0, INF), h)
    out = apply(rep, lam, xi)
    assert_allclose(out[1:], math.exp(-h) * xi[:-1], rtol=1e-13)
    assert abs(rep.norm(out) - rep.norm(xi)) < 1e-12 * rep.norm(xi)


def test_chiral_translation_is_diagonal_phase():
    rep = build_rep(CHIRAL)
    rng = np.random.default_rng(9)
    xi = rep.random_vector(rng)
    out = apply(rep, MobiusElement.translation(0.7), xi)
    assert_allclose(out, np.exp(0.7j * rep.grids[0].momenta) * xi, rtol=1e-13)


def test_reflection_is_antiunitary_involution():
    rng = np.random.default_rng(11)
    for cfg in ALL_CONFIGS:
        rep = build_rep(cfg)
        xi = rep.random_vector(rng)
        assert_allclose(apply(rep, "j", apply(rep, "j", xi)), xi, atol=0)
        assert_allclose(apply(rep, "j", 2j * xi), -2j * apply(rep, "j", xi),
                        atol=0)


def test_massive_translation_phases():
    rep = build_rep(MASSIVE)
    grid = rep.grids[0]
    omega = grid.mass * np.cosh(grid.theta)
    p1 = grid.mass * np.sinh(grid.theta)
    rng = np.random.default_rng(13)
    xi = rep.random_vector(rng)
    # pure time translation a = (a0, 0): lightray pair (a0, a0)/sqrt(2)
    a0 = 0.43
    g = pair(t_l=a0 / math.sqrt(2), t_r=a0 / math.sqrt(2))
    assert_allclose(apply(rep, g, xi), np.exp(1j * a0 * omega) * xi,
                    rtol=1e-12)
    # pure space translation a = (0, a1): lightray pair (-a1, a1)/sqrt(2)
    a1 = -0.81
    g = pair(t_l=-a1 / math.sqrt(2), t_r=a1 / math.sqrt(2))
    assert_allclose(apply(rep, g, xi), np.exp(-1j * a1 * p1) * xi,
                    rtol=1e-12)


# ---------------------------------------------------------------------------
# representation properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cfg", ALL_CONFIGS,
                         ids=[c["kind"] for c in ALL_CONFIGS])
def test_unitarity_of_random_elements(cfg):
    rep = build_rep(cfg)
    rng = np.random.default_rng(17)
    for _ in range(20):
        g = random_lattice_element(rng, rep)
        assert unitarity_deviation(rep, g, rng, samples=2) < 1e-10


@pytest.mark.parametrize("cfg", ALL_CONFIGS,
                         ids=[c["kind"] for c in ALL_CONFIGS])
def test_group_law(cfg):
    # wrap-around slots see inconsistent translation phases, so the
    # group law is exact only on centrally supported vectors
    rep = build_rep(cfg)
    rng = np.random.default_rng(19)
    for _ in range(100 if cfg is CHIRAL else 40):
        g1 = random_lattice_element(rng, rep)
        g2 = random_lattice_element(rng, rep)
        xi = central_vector(rep, rng)
        a = apply(rep, g1, apply(rep, g2, xi))
        b = apply(rep, g1 @ g2, xi)
        assert rep.norm(a - b) < 1e-10 * rep.norm(xi)


def test_energy_positivity():
    # translations act by e^{i a.p}: the multipliers are the spectrum
    assert build_rep(CHIRAL).grids[0].momenta.min() > 0
    assert min((g.mass * np.cosh(g.theta)).min()
               for g in build_rep(DIRECT).grids) > 0


def test_direct_integral_block_structure():
    rep = build_rep(DIRECT)
    rng = np.random.default_rng(23)
    for i in (0, 5):
        xi = np.zeros(rep.shape, dtype=complex)
        xi[i] = rng.normal(size=32) + 1j * rng.normal(size=32)
        out = apply(rep, pair(0.3, -0.2 * 5, -0.1, 0.2 * 5), xi)
        support = np.flatnonzero(np.any(out != 0, axis=1))
        assert list(support) == [i]


# ---------------------------------------------------------------------------
# rejections
# ---------------------------------------------------------------------------


def test_rotation_factor_rejected():
    rep = build_rep(CHIRAL)
    xi = np.ones(64, dtype=complex)
    with pytest.raises(ValueError, match="rotation"):
        apply(rep, MobiusElement.rotation(0.3), xi)


def test_off_lattice_dilation_rejected():
    rep = build_rep(CHIRAL)
    xi = np.ones(64, dtype=complex)
    with pytest.raises(ValueError, match="integer multiple"):
        apply(rep, MobiusElement.dilation(0.1234), xi)


def test_massive_rejects_overall_dilation():
    rep = build_rep(MASSIVE)
    xi = np.ones(64, dtype=complex)
    with pytest.raises(ValueError, match="fixed-mass"):
        apply(rep, pair(s_l=0.1, s_r=0.1), xi)


def test_uniform_masses_reject_dilation_but_geometric_shift():
    xi = np.ones((8, 32), dtype=complex)
    with pytest.raises(ValueError, match="mass family"):
        apply(build_rep(DIRECT), pair(s_l=0.2, s_r=0.2), xi)
    geo = build_rep(GEOMETRIC)
    hm = math.log(geo.grids[1].mass / geo.grids[0].mass)
    g = pair(s_l=hm, s_r=hm)
    rng = np.random.default_rng(29)
    assert unitarity_deviation(geo, g, rng, samples=3) < 1e-10


def test_paired_element_required_for_2d_kinds():
    rep = build_rep(MASSIVE)
    xi = np.ones(64, dtype=complex)
    with pytest.raises(TypeError, match="paired"):
        apply(rep, MobiusElement.translation(0.1), xi)
    with pytest.raises(TypeError, match="single"):
        apply(build_rep(CHIRAL), GElement.identity(), np.ones(64, complex))
