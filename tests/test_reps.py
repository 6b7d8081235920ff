"""Tests for the lattice realization of the one-particle representation."""

import math

import numpy as np
import pytest
from numpy.testing import assert_allclose

from modnet.mobius import Interval, interval_dilation
from modnet.reps import apply, build_rep, rapidity_factor, translation_phases

SUM = {"kind": "chiralSum", "n": 33, "h": 0.1}
TWISTED = dict(SUM, kind="twisted")
MASSIVE = {"kind": "massive", "n": 64, "h": 0.1, "mass": 1.0}
DIRECT = {"kind": "directIntegral", "mass_min": 0.5, "mass_max": 2.5,
          "mass_count": 8, "n": 32, "h": 0.2}

ALL_CONFIGS = [SUM, MASSIVE, DIRECT, TWISTED]
IDS = [c["kind"] for c in ALL_CONFIGS]


def pair(t_l=0.0, s_l=0.0, t_r=0.0, s_r=0.0):
    """The lightray maps x -> e^{s_L} x + t_L and x -> e^{s_R} x + t_R, as
    the (translation, dilation) arguments of :func:`apply`."""
    return (t_l, t_r), (s_l, s_r)


def boost(s):
    return pair(s_l=-s, s_r=s)


def compose(g1, g2):
    """g1 g2 per lightray: (t1, s1)(t2, s2) = (t1 + e^{s1} t2, s1 + s2)."""
    (t1, s1), (t2, s2) = g1, g2
    return (tuple(a + math.exp(s) * b for a, s, b in zip(t1, s1, t2)),
            tuple(a + b for a, b in zip(s1, s2)))


def size(factors):
    return sum(f.n for f in factors)


def random_vector(factors, rng):
    shape = (size(factors),)
    return rng.normal(size=shape) + 1j * rng.normal(size=shape)


def central_vector(factors, rng):
    """Random vector supported in the central half of every factor, where
    the lattice elements drawn here see no wrap-around."""
    mask = np.concatenate([np.abs(np.arange(f.n) - f.n / 2) < f.n / 4
                           for f in factors])
    return random_vector(factors, rng) * mask


def random_lattice_element(rng, factors):
    """Random element of the implemented (lattice) subgroup."""
    t_l, t_r = rng.uniform(-1, 1, size=2)
    if factors[0].rapidity:
        b = factors[0].h * int(rng.integers(-3, 4))
        s_l, s_r = -b, b
    else:
        s_l = factors[0].h * int(rng.integers(-3, 4))
        s_r = factors[1].h * int(rng.integers(-3, 4))
    return pair(t_l, s_l, t_r, s_r)


# ---------------------------------------------------------------------------
# factor records
# ---------------------------------------------------------------------------


def test_chiral_records_are_log_momentum_grids():
    left, right = build_rep(SUM)
    assert (left.ray, right.ray) == (0, 1)
    for p, other in ((left.p_l, left.p_r), (right.p_r, right.p_l)):
        assert np.all(p > 0) and not other.any()
        assert_allclose(p[1:] / p[:-1], math.exp(0.1))
        # symmetric about u = 0
        assert_allclose(p * p[::-1], 1.0, rtol=1e-13)


def test_rapidity_grid_mass_shell():
    (f,) = build_rep(dict(MASSIVE, mass=1.5))
    theta = np.log(math.sqrt(2) * f.p_l / 1.5)
    assert_allclose(np.diff(theta), 0.1, rtol=1e-9)
    assert_allclose(theta, -theta[::-1], atol=1e-12)
    assert_allclose(2 * f.p_l * f.p_r, np.full(64, 1.5**2), rtol=1e-12)
    omega = (f.p_l + f.p_r) / math.sqrt(2)
    p1 = (f.p_l - f.p_r) / math.sqrt(2)
    assert_allclose(omega**2 - p1**2, 1.5**2, rtol=1e-12)
    assert_allclose(p1, 1.5 * np.sinh(theta), rtol=1e-12, atol=1e-12)


def test_lightcone_study_record_is_the_massive_record():
    (f,) = build_rep(dict(MASSIVE, mass=0.7))
    g = rapidity_factor(64, 0.1, 0.7)
    assert (f.n, f.h, f.ray) == (g.n, g.h, g.ray)
    assert np.array_equal(f.p_l, g.p_l) and np.array_equal(f.p_r, g.p_r)


def test_grid_validation():
    for cfg, match in (
            (dict(SUM, n=1), "at least 2"),
            (dict(SUM, h=0.0), "positive"),
            (dict(TWISTED, n=8), "odd"),
            (dict(SUM, n=257, h=math.pi), "normal doubles"),
            (dict(MASSIVE, n=31), "even"),
            (dict(MASSIVE, h=-0.1), "positive"),
            (dict(MASSIVE, mass=-1.0), "positive"),
            (dict(MASSIVE, n=600, h=2.5), "normal doubles")):
        with pytest.raises(ValueError, match=match):
            build_rep(cfg)


def test_build_shapes():
    assert [f.n for f in build_rep(SUM)] == [33, 33]
    twisted = build_rep(TWISTED)
    assert [f.ray for f in twisted] == [0, 1, 0, 1]
    assert twisted[:2] == twisted[2:]
    assert [f.n for f in build_rep(MASSIVE)] == [64]
    assert [f.n for f in build_rep(DIRECT)] == [32] * 8


def test_build_rejects_bad_configs():
    with pytest.raises(ValueError, match="unknown"):
        build_rep({"kind": "nonsense"})
    with pytest.raises(ValueError, match="mass window"):
        build_rep(dict(DIRECT, mass_min=-1.0))
    with pytest.raises(ValueError, match="at least one"):
        build_rep(dict(DIRECT, mass_count=0))
    with pytest.raises(ValueError, match="distinct"):
        build_rep(dict(DIRECT, mass_min=1.0, mass_max=1.0000000000000004,
                       mass_count=4))


def test_direct_integral_midpoint_masses():
    masses = [math.sqrt(2 * f.p_l[0] * f.p_r[0]) for f in build_rep(DIRECT)]
    assert_allclose(masses, 0.5 + 0.25 * (np.arange(8) + 0.5), rtol=1e-13)


# ---------------------------------------------------------------------------
# elementary actions
# ---------------------------------------------------------------------------


def test_zero_translation_is_identity():
    rng = np.random.default_rng(3)
    for cfg in ALL_CONFIGS:
        factors = build_rep(cfg)
        xi = random_vector(factors, rng)
        assert_allclose(apply(factors, xi), xi, atol=0)


def test_massive_boost_is_cyclic_shift():
    factors = build_rep(MASSIVE)
    rng = np.random.default_rng(5)
    xi = random_vector(factors, rng)
    out = apply(factors, xi, *boost(factors[0].h))
    assert np.array_equal(out, np.roll(xi, 1))


def test_chiral_dilation_is_cyclic_shift():
    # the flow of R_+ at t = h is x -> e^{-h} x, which acts by
    # xi(p) -> xi(e^{-h} p) on the orthonormal slots: it moves every slot
    # one step up, the top slot wrapping to the bottom, with no Jacobian
    factors = build_rep(SUM)
    h = factors[0].h
    rng = np.random.default_rng(7)
    xi = random_vector(factors, rng)
    lam = interval_dilation(Interval.from_line(0.0, math.inf), h)
    # lam . 1 on homogeneous coordinates (1, 1)
    image = lam.mat @ np.ones(2)
    assert image[0] / image[1] == pytest.approx(math.exp(-h), rel=1e-14)
    out = apply(factors, xi, dilation=(-h, 0.0))
    assert np.array_equal(out[:33], np.roll(xi[:33], 1))
    assert np.array_equal(out[33:], xi[33:])
    out = apply(factors, xi, *pair(s_r=2 * h))
    assert np.array_equal(out[:33], xi[:33])
    assert np.array_equal(out[33:], np.roll(xi[33:], -2))


def test_chiral_translation_is_diagonal_phase():
    factors = build_rep(SUM)
    left, right = factors
    rng = np.random.default_rng(9)
    xi = random_vector(factors, rng)
    out = apply(factors, xi, translation=(0.7, -0.2))
    assert_allclose(out[:33], np.exp(0.7j * left.p_l) * xi[:33], rtol=1e-13)
    assert_allclose(out[33:], np.exp(-0.2j * right.p_r) * xi[33:],
                    rtol=1e-13)


def test_massive_translation_phases():
    factors = build_rep(MASSIVE)
    (f,) = factors
    omega = (f.p_l + f.p_r) / math.sqrt(2)
    p1 = (f.p_l - f.p_r) / math.sqrt(2)
    rng = np.random.default_rng(13)
    xi = random_vector(factors, rng)
    # pure time translation a = (a0, 0): lightray pair (a0, a0)/sqrt(2)
    a0 = 0.43
    g = pair(t_l=a0 / math.sqrt(2), t_r=a0 / math.sqrt(2))
    assert_allclose(apply(factors, xi, *g), np.exp(1j * a0 * omega) * xi,
                    rtol=1e-12)
    # pure space translation a = (0, a1): lightray pair (-a1, a1)/sqrt(2)
    a1 = -0.81
    g = pair(t_l=-a1 / math.sqrt(2), t_r=a1 / math.sqrt(2))
    assert_allclose(apply(factors, xi, *g), np.exp(-1j * a1 * p1) * xi,
                    rtol=1e-12)


def test_apply_takes_columns_and_checks_the_slot_count():
    factors = build_rep(SUM)
    rng = np.random.default_rng(15)
    cols = np.stack([random_vector(factors, rng) for _ in range(3)], axis=1)
    g = pair(0.3, 0.1, -0.2, -0.2)
    out = apply(factors, cols, *g)
    for j in range(3):
        assert np.array_equal(out[:, j], apply(factors, cols[:, j], *g))
    with pytest.raises(ValueError, match="rep shape"):
        apply(factors, cols[:-1], *g)
    with pytest.raises(ValueError, match="rep shape"):
        apply(factors, cols[..., None], *g)


# ---------------------------------------------------------------------------
# representation properties
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=IDS)
def test_unitarity_of_random_elements(cfg):
    factors = build_rep(cfg)
    eye = np.eye(size(factors))
    rng = np.random.default_rng(17)
    for _ in range(20):
        u = apply(factors, eye, *random_lattice_element(rng, factors))
        assert np.linalg.norm(u.conj().T @ u - eye, 2) < 1e-13


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=IDS)
def test_group_law(cfg):
    # wrap-around slots see inconsistent translation phases, so the
    # group law is exact only on centrally supported vectors
    factors = build_rep(cfg)
    rng = np.random.default_rng(19)
    for _ in range(40):
        g1 = random_lattice_element(rng, factors)
        g2 = random_lattice_element(rng, factors)
        xi = central_vector(factors, rng)
        a = apply(factors, apply(factors, xi, *g2), *g1)
        b = apply(factors, xi, *compose(g1, g2))
        assert np.linalg.norm(a - b) < 1e-10 * np.linalg.norm(xi)


@pytest.mark.parametrize("cfg", ALL_CONFIGS, ids=IDS)
def test_affine_map_is_translation_after_dilation(cfg):
    # U(x -> e^sigma x + t) = diag(translation phases) U(delta(sigma))
    factors = build_rep(cfg)
    eye = np.eye(size(factors))
    rng = np.random.default_rng(21)
    for _ in range(5):
        translation, dilation = random_lattice_element(rng, factors)
        got = apply(factors, eye, translation, dilation)
        phases = translation_phases(factors, *translation)
        want = phases[:, None] * apply(factors, eye, dilation=dilation)
        assert np.array_equal(got, want)


def test_energy_positivity():
    # translations act by e^{i a.p}: the multipliers are the spectrum
    for cfg in ALL_CONFIGS:
        for f in build_rep(cfg):
            assert np.all(f.p_l >= 0) and np.all(f.p_r >= 0)
            assert np.all(f.p_l + f.p_r > 0)


def test_direct_integral_block_structure():
    factors = build_rep(DIRECT)
    rng = np.random.default_rng(23)
    for i in (0, 5):
        xi = np.zeros((8, 32), dtype=complex)
        xi[i] = rng.normal(size=32) + 1j * rng.normal(size=32)
        out = apply(factors, xi.ravel(), *pair(0.3, -0.2 * 5, -0.1, 0.2 * 5))
        support = np.flatnonzero(np.any(out.reshape(8, 32) != 0, axis=1))
        assert list(support) == [i]


# ---------------------------------------------------------------------------
# rejections
# ---------------------------------------------------------------------------


def test_off_lattice_dilation_rejected():
    xi = np.ones(66, dtype=complex)
    with pytest.raises(ValueError, match="integer multiple"):
        apply(build_rep(SUM), xi, dilation=(0.1234, 0.0))
    with pytest.raises(ValueError, match="integer multiple"):
        apply(build_rep(MASSIVE), xi[:64], *boost(0.1234))


def test_massive_rejects_overall_dilation():
    for cfg in (MASSIVE, DIRECT):
        factors = build_rep(cfg)
        xi = np.ones(size(factors), dtype=complex)
        with pytest.raises(ValueError, match="fixed-mass"):
            apply(factors, xi, dilation=(0.2, 0.2))

