"""Tests for the Mobius layer: matrices, cover elements, interval flows."""

import __future__
import math
import types

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose

from modnet import mobius
from modnet.mobius import (
    INF,
    CoverElement,
    Interval,
    MobiusDomainError,
    MobiusElement,
    commutation_parameters,
    commutation_residual,
    commutation_residuals,
    dilation_conjugator,
    interval_dilation,
    kan_matrix,
    mobius_through,
    nested_commutation_parameters,
    wrap_angle,
)

ATOL = 1e-12
LOOSE = 1e-9

TWO_PI = 2.0 * math.pi

# the kinds of MobiusElement.generators and CoverElement.generators
ROT, DIL, TRA = range(3)

ID = MobiusElement(np.eye(2))
COVER_ID = CoverElement(ID, 0.0)


def random_element(rng, scale=1.0):
    """A random group element built from the three generator families."""
    g = MobiusElement.generators(ROT, rng.uniform(-math.pi, math.pi))
    g = g @ MobiusElement.generators(DIL, scale * rng.normal())
    g = g @ MobiusElement.generators(TRA, scale * rng.normal())
    return g


def same(g, h):
    """Equality of elements: canonical matrices equal up to sign, and for
    cover elements lifted angles equal too."""
    if isinstance(g, CoverElement):
        return same(g.base, h.base) and abs(g.phi - h.phi) < 1e-7
    return min(np.max(np.abs(g.mat - h.mat)),
               np.max(np.abs(g.mat + h.mat))) < 1e-9


def lift(base):
    """The cover element over ``base`` with phi in (-pi, pi]."""
    return CoverElement(base, base.iwasawa()[0])


def on_line(g, x):
    """g . x on the extended line: the matrix on homogeneous coordinates
    (x, 1), or (1, 0) for infinity."""
    v = g.mat @ (np.array([1.0, 0.0]) if x in (INF, -INF)
                 else np.array([x, 1.0]))
    return INF if v[1] == 0.0 else v[0] / v[1]


# ---------------------------------------------------------------------------
# the Cayley matrices behind the circle action
# ---------------------------------------------------------------------------


def _cayley_of(x):
    """C(x) through the Cayley matrix, on homogeneous coordinates."""
    v = mobius._CAYLEY @ (np.array([1.0, 0.0]) if x == INF
                          else np.array([x, 1.0]))
    return v[0] / v[1]


def test_cayley_reference_points():
    assert_allclose(_cayley_of(INF), -1.0, atol=ATOL)
    assert_allclose(_cayley_of(0.0), 1.0, atol=ATOL)
    assert_allclose(_cayley_of(1.0), 1j, atol=ATOL)
    assert_allclose(_cayley_of(-1.0), -1j, atol=ATOL)


def test_cayley_roundtrip():
    rng = np.random.default_rng(7)
    for x in rng.standard_cauchy(50):
        assert abs(abs(_cayley_of(x)) - 1.0) < ATOL
    # the inverse matrix undoes the map up to a scalar
    prod = mobius._CAYLEY_INV @ mobius._CAYLEY
    assert_allclose(prod, prod[0, 0] * np.eye(2), atol=ATOL)


# ---------------------------------------------------------------------------
# the matrix group
# ---------------------------------------------------------------------------


def test_rotation_matrix_convention():
    th = 0.7
    k = MobiusElement.generators(ROT, th).mat
    c, s = math.cos(th / 2), math.sin(th / 2)
    assert_allclose(k, [[c, s], [-s, c]], atol=ATOL)


def test_rotation_moves_angles_by_parameter():
    rng = np.random.default_rng(23)
    for _ in range(20):
        th = rng.uniform(-3, 3)
        u = rng.uniform(-math.pi, math.pi)
        got = MobiusElement.generators(ROT, th).act_angle(u)
        assert abs(wrap_angle(got - (u + th))) < 1e-10


def test_compose_and_inverse_match_matrix_arithmetic():
    rng = np.random.default_rng(5)
    for _ in range(50):
        g, h = random_element(rng), random_element(rng)
        prod = g @ h
        direct = MobiusElement(g.mat @ h.mat)
        assert same(prod, direct)
        assert same(g @ g.inverse(), ID)
        raw = g.mat @ g.inverse().mat  # equals the identity only up to sign
        assert min(np.max(np.abs(raw - np.eye(2))),
                   np.max(np.abs(raw + np.eye(2)))) < 1e-10


def test_determinant_normalisation_and_sign():
    g = MobiusElement([[-2.0, 0.0], [0.0, -8.0]])
    assert g.mat[0, 0] > 0
    assert_allclose(np.linalg.det(g.mat), 1.0, atol=ATOL)


def test_iwasawa_roundtrip():
    rng = np.random.default_rng(17)
    for _ in range(60):
        g = random_element(rng, scale=2.0)
        th, a, n = g.iwasawa()
        assert -math.pi < th <= math.pi
        assert_allclose(kan_matrix(th, a, n), g.mat, atol=1e-10)


def test_iwasawa_of_generators():
    th, a, n = MobiusElement.generators(ROT, 1.2).iwasawa()
    assert_allclose([th, a, n], [1.2, 0.0, 0.0], atol=ATOL)
    th, a, n = MobiusElement.dilation(0.8).iwasawa()
    assert_allclose([th, a, n], [0.0, 0.8, 0.0], atol=ATOL)
    th, a, n = MobiusElement.generators(TRA, -1.5).iwasawa()
    assert_allclose([th, a, n], [0.0, 0.0, -1.5], atol=ATOL)


# ---------------------------------------------------------------------------
# the universal cover
# ---------------------------------------------------------------------------


def test_cover_rotation_phi_is_additive_beyond_full_turns():
    r1 = CoverElement.generators(ROT, 5.0)
    r2 = CoverElement.generators(ROT, 4.0)
    prod = r1 @ r2
    assert same(prod.base, MobiusElement.generators(ROT, 9.0))
    assert_allclose(prod.phi, 9.0, atol=ATOL)


def test_full_turn_is_central_not_identity():
    z = CoverElement.generators(ROT, TWO_PI)
    assert same(z.base, ID)
    assert not same(z, COVER_ID)
    rng = np.random.default_rng(2)
    for _ in range(10):
        g = lift(random_element(rng))
        left = z @ g
        right = g @ z
        assert same(left.base, right.base) and same(right.base, g.base)
        assert_allclose(left.phi, g.phi + TWO_PI, atol=1e-9)
        assert_allclose(right.phi, g.phi + TWO_PI, atol=1e-9)


def test_cover_phi_reduces_to_iwasawa_angle():
    rng = np.random.default_rng(29)
    g = COVER_ID
    for _ in range(40):
        g = g @ lift(random_element(rng, scale=0.6))
        d = wrap_angle(g.phi - g.base.iwasawa()[0])
        assert min(abs(d), abs(abs(d) - TWO_PI)) < 1e-8


def test_degenerate_matrices_raise():
    # rank-one input must surface as an error rather than silent nonsense
    with pytest.raises(ValueError, match="singular"):
        MobiusElement(np.full((2, 2), 1e9))
    with pytest.raises(ValueError, match="determinant"):
        MobiusElement([[0.0, 1.0], [1.0, 0.0]])


def _reference_normal_form(m):
    """The one-matrix normal form: extended-precision rescale to unit
    determinant, then the sign that makes the first entry above 1e-8
    of the largest positive."""
    ml = np.asarray(m, dtype=float).astype(np.longdouble)
    det = ml[0, 0] * ml[1, 1] - ml[0, 1] * ml[1, 0]
    return _reference_sign(np.asarray(ml / np.sqrt(det), dtype=float))


def _reference_sign(mat):
    flat = (mat[0, 0], mat[0, 1], mat[1, 0], mat[1, 1])
    scale = max(abs(v) for v in flat)
    for v in flat:
        if abs(v) > 1e-8 * scale:
            return -mat if v < 0.0 else mat
    raise AssertionError("zero matrix")


def _hard_stack(rng, count):
    """Positive-determinant matrices, many with entries that vanish or
    sit below the sign threshold, negative leads and large entries."""
    m = rng.normal(size=(count, 2, 2))
    flip = np.linalg.det(m) < 0
    m[flip, 0, :] *= -1.0
    for (i, j), value in (((0, 0), 0.0), ((0, 1), 1e-12), ((0, 0), -1e-9),
                          ((1, 0), 3e-9), ((1, 1), 0.0)):
        m[rng.random(count) < 0.25, i, j] = value
    m[rng.random(count) < 0.1] *= 1e6
    return m[np.linalg.det(m) > 1e-6]


def test_stacked_normal_form_matches_one_matrix_at_a_time():
    stack = _hard_stack(np.random.default_rng(83), 4000)
    out = mobius._unimodular(stack)
    ref = np.array([_reference_normal_form(m) for m in stack])
    assert out.shape == stack.shape
    # bit for bit, signs of zeros included
    assert np.array_equal(out, ref)
    assert np.array_equal(np.signbit(out), np.signbit(ref))
    for m, row in zip(stack[:300], out):
        assert np.array_equal(MobiusElement(m).mat, row)
    # a (2, N, 2, 2) stack keeps its layout
    assert np.array_equal(mobius._unimodular(stack[:40].reshape(2, 20, 2, 2)),
                          out[:40].reshape(2, 20, 2, 2))


def test_canonical_sign_of_a_stack_matches_one_matrix_at_a_time():
    stack = _hard_stack(np.random.default_rng(89), 2000) * 0.37
    out = mobius._canonical_sign(stack)
    assert np.array_equal(out, np.array([_reference_sign(m) for m in stack]))


@pytest.mark.parametrize("bad,match", [
    (np.full((2, 2), 1e9), "singular"),
    (np.array([[0.0, 1.0], [1.0, 0.0]]), "positive determinant"),
    (np.zeros((2, 2)), "positive determinant"),
    (np.array([[np.inf, 0.0], [0.0, 1.0]]), "positive determinant"),
    (np.array([[np.nan, 0.0], [0.0, 1.0]]), "positive determinant"),
])
def test_stacked_normal_form_raises_on_any_bad_matrix(bad, match):
    stack = np.repeat(np.eye(2)[None], 5, axis=0)
    stack[3] = bad
    with pytest.raises(ValueError, match=match):
        mobius._unimodular(stack)
    with pytest.raises(ValueError, match=match):
        MobiusElement(bad)


def test_circle_action_and_cached_inverse_match_their_formulas():
    rng = np.random.default_rng(97)
    g = random_element(rng)
    circle = mobius._CAYLEY @ g.mat.astype(complex) @ mobius._CAYLEY_INV
    z = complex(math.cos(0.4), math.sin(0.4))
    # the action runs on arrays (a stack of one), never on numpy scalars
    zs = np.array([z])
    w = (circle[0, 0] * zs + circle[0, 1]) / (circle[1, 0] * zs + circle[1, 1])
    assert g.act_circle(z) == (w / np.abs(w))[0]
    a, b, c, d = g.mat.ravel()
    assert g.inverse() is g.inverse()
    assert np.array_equal(g.inverse().mat,
                          MobiusElement(np.array([[d, -b], [-c, a]])).mat)
    i = Interval.from_line(-1.0, 3.0)
    assert dilation_conjugator(i) is dilation_conjugator(i)
    assert np.array_equal(
        dilation_conjugator(i).mat,
        mobius_through(i.left, i.midpoint(), i.right).mat)


def test_stacked_elements_match_single_elements():
    # products, inverses, the circle action, the Iwasawa decomposition,
    # K A N matrices and the cover lift act member by member and give
    # each member exactly its single-element result
    rng = np.random.default_rng(53)
    kinds = rng.integers(3, size=(6, 3))
    x = rng.uniform(-2.0, 2.0, size=(6, 3))
    x[0] = 2.8                              # rotations past a half turn
    kinds[0] = 0
    u = rng.uniform(-math.pi, math.pi, size=(6, 5))
    letters = [MobiusElement.generators(kinds[:, k, None], x[:, k, None])
               for k in range(3)]
    prod = letters[0] @ letters[1] @ letters[2]
    acted = prod.act_angle(u)
    inv = prod.inverse()
    theta, a, n = prod.iwasawa()
    kan = kan_matrix(theta, a, n)
    lifts = [CoverElement.generators(kinds[:, k], x[:, k]) for k in range(3)]
    lifted = (lifts[0] @ lifts[1]) @ lifts[2]
    assert prod.mat.shape == (6, 1, 2, 2) and acted.shape == (6, 5)
    for i in range(6):
        singles = [MobiusElement.generators(kinds[i, k], x[i, k])
                   for k in range(3)]
        for k in range(3):
            assert np.array_equal(letters[k].mat[i, 0], singles[k].mat)
        one = singles[0] @ singles[1] @ singles[2]
        assert np.array_equal(prod.mat[i, 0], one.mat)
        assert np.array_equal(inv.mat[i, 0], one.inverse().mat)
        assert [one.act_angle(v) for v in u[i]] == list(acted[i])
        assert (theta[i, 0], a[i, 0], n[i, 0]) == one.iwasawa()
        assert np.array_equal(kan[i, 0], kan_matrix(*one.iwasawa()))
        assert bool(prod.is_rotation()[i, 0]) == bool(one.is_rotation())
        covers = [CoverElement.generators(kinds[i, k], x[i, k])
                  for k in range(3)]
        one_lift = (covers[0] @ covers[1]) @ covers[2]
        assert lifted.phi[i] == one_lift.phi
        assert np.array_equal(lifted.base.mat[i], one_lift.base.mat)
    assert np.all(lifted.phi[0] == 3 * 2.8)


def test_generators_refuse_bad_parameters():
    for kind, name in enumerate(mobius.GENERATORS):
        with pytest.raises(ValueError, match=f"{name} parameter must be "
                                             "finite"):
            MobiusElement.generators([kind, kind], [0.5, math.nan])
    with pytest.raises(ValueError, match="generator kinds"):
        MobiusElement.generators([0, 3], [0.5, 0.5])


def test_cover_composition_handles_negative_trace():
    # products whose matrix path crosses trace -2 still lift correctly
    g = CoverElement.generators(ROT, 3.0) @ CoverElement.generators(DIL, 1.0)
    h = CoverElement.generators(ROT, 3.0) @ CoverElement.generators(DIL, -0.5)
    prod = g @ h
    assert same(prod.base, g.base @ h.base)
    d = wrap_angle(prod.phi - prod.base.iwasawa()[0])
    assert min(abs(d), abs(abs(d) - TWO_PI)) < 1e-8


def test_cover_composition_is_associative():
    # associativity pins the winding of the lifted angle of a product,
    # also for factors beyond a full turn
    rng = np.random.default_rng(37)
    for _ in range(20):
        g, h, k = (CoverElement.generators(ROT, rng.uniform(-7, 7))
                   @ lift(random_element(rng))
                   for _ in range(3))
        assert same((g @ h) @ k, g @ (h @ k))


def _unwrapped_lift(g, h, samples=20001):
    """Reference lift of g h: the Iwasawa angle along
    tau -> g K(tau theta_h) A(tau a_h) N(tau n_h), unwrapped on a fine
    tau grid, plus the deck winding of h."""
    theta, a, n = h.base.iwasawa()
    tau = np.linspace(0.0, 1.0, samples)
    # first column of K(tau theta) A(tau a) N(tau n); n does not enter
    stretch = np.exp(0.5 * tau * a)
    col = g.base.mat @ np.vstack([np.cos(0.5 * tau * theta) * stretch,
                                  -np.sin(0.5 * tau * theta) * stretch])
    angle = np.unwrap(2.0 * np.arctan2(-col[1], col[0]), period=TWO_PI)
    winding = TWO_PI * round((h.phi - theta) / TWO_PI)
    return g.phi + angle[-1] - angle[0] + winding


def test_cover_composition_keeps_full_turns():
    # a strongly hyperbolic factor sweeps almost a full turn while the
    # rotation it meets turns by 2; no step of the product may drop it
    d, r = CoverElement.generators(DIL, 6.0), CoverElement.generators(ROT, 2.0)
    assert abs((d @ r).phi - _unwrapped_lift(d, r)) < 1e-6
    assert same((d @ r) @ r, d @ (r @ r))
    rng = np.random.default_rng(11)
    for _ in range(120):
        g, h = (CoverElement.generators(ROT, rng.uniform(-7, 7))
                @ lift(random_element(rng, scale=3.0))
                for _ in range(2))
        assert abs((g @ h).phi - _unwrapped_lift(g, h)) < 1e-6
    # a factor that is the identity up to rounding moves phi by rounding
    for t in rng.uniform(-3.0, 3.0, size=200):
        h = lift(MobiusElement.generators(ROT, t)
                 @ MobiusElement.generators(ROT, -t))
        g = (CoverElement.generators(ROT, rng.uniform(-7, 7))
             @ lift(random_element(rng, scale=2.0)))
        assert abs((g @ h).phi - g.phi) < 1e-9


# ---------------------------------------------------------------------------
# intervals
# ---------------------------------------------------------------------------


def test_interval_halfline_endpoints():
    i = Interval.from_line(0.0, INF)
    assert (i.left, i.right) == (0.0, INF)
    j = Interval.from_line(-INF, 0.0)
    assert (j.left, j.right) == (-INF, 0.0)
    # endpoints read back as given, not through a circle angle
    assert Interval.from_line(1.0, INF).left == 1.0
    assert Interval.from_line(0.0, 1.0).right == 1.0


@pytest.mark.parametrize("a,b", [(1.0, -1.0), (1.0, 1.0), (math.nan, 1.0),
                                 (0.0, math.nan), (INF, INF),
                                 (-INF, INF)])
def test_interval_refuses_reversed_equal_nan_and_whole_line(a, b):
    with pytest.raises(ValueError):
        Interval.from_line(a, b)


def test_interval_midpoint_of_unit_interval():
    i = Interval.from_line(0.0, 1.0)
    assert_allclose(i.midpoint(), math.sqrt(2.0) - 1.0, atol=ATOL)


def test_interval_midpoint_is_the_circle_midpoint_bit_for_bit():
    rng = np.random.default_rng(43)
    ends = np.sort(rng.standard_cauchy((400, 2)) * 10.0, axis=1)
    ends[:40, 0] = -INF
    ends[40:80, 1] = INF
    for a, b in ends.tolist():
        want = math.tan(0.5 * (math.atan(a) + math.atan(b)))
        assert Interval.from_line(a, b).midpoint() == want


def test_interval_contains_and_complement():
    i = Interval.from_line(0.0, INF)
    assert i.contains(Interval.from_line(1.0, 3.0))
    assert i.contains(Interval.from_line(0.0, INF))
    assert not i.contains(Interval.from_line(-1.0, 3.0))
    assert not i.contains(Interval.from_line(-INF, 0.0))


def test_mobius_through_reference_triples():
    g = mobius_through(0.0, 1.0, INF)
    assert same(g, ID)
    g = mobius_through(1.0, 2.0, INF)
    assert_allclose([on_line(g, x) for x in (0.0, 1.0)], [1.0, 2.0], atol=ATOL)
    g = mobius_through(-INF, -1.0, 0.0)
    assert on_line(g, 0.0) == INF or abs(on_line(g, 0.0)) > 1e12
    assert_allclose(on_line(g, 1.0), -1.0, atol=ATOL)


def test_dilation_conjugator_maps_halfline_onto_interval():
    rng = np.random.default_rng(47)
    for _ in range(15):
        a = rng.normal() * 2
        b = a + abs(rng.normal()) + 0.1
        i = Interval.from_line(a, b)
        g = dilation_conjugator(i)
        assert_allclose(on_line(g, 0.0), a, atol=1e-9)
        assert_allclose(on_line(g, INF), b, atol=1e-9)


# ---------------------------------------------------------------------------
# interval dilation flows
# ---------------------------------------------------------------------------


def test_halfline_dilations_are_plain_dilations():
    t = 0.9
    lam = interval_dilation(Interval.from_line(0.0, INF), t)
    assert same(lam, MobiusElement.dilation(-t))
    lam = interval_dilation(Interval.from_line(-INF, 0.0), t)
    assert same(lam, MobiusElement.dilation(t))


def test_shifted_halfline_dilation_is_affine():
    # the flow of (1, inf) contracts toward the left endpoint 1
    t = 0.6
    lam = interval_dilation(Interval.from_line(1.0, INF), t)
    rng = np.random.default_rng(53)
    for x in rng.normal(size=10) * 3:
        assert_allclose(on_line(lam, x), math.exp(-t) * (x - 1.0) + 1.0,
                        rtol=1e-9, atol=1e-9)


def test_unit_interval_dilation_closed_form():
    s = 1.3
    lam = interval_dilation(Interval.from_line(0.0, 1.0), s)
    e = math.exp(-s / 2)
    expect = np.array([[e, 0.0], [e - 1.0 / e, 1.0 / e]])
    assert_allclose(lam.mat, expect, atol=1e-9)


def test_interval_dilation_independent_of_conjugator():
    # another conjugator of R_+ onto the interval, sending 1 to 0 instead
    # of the midpoint, gives the same flow
    i = Interval.from_line(-2.0, 5.0)
    g = mobius_through(i.left, 0.0, i.right)
    other = g @ MobiusElement.dilation(-0.8) @ g.inverse()
    assert same(interval_dilation(i, 0.8), other)


def test_interval_dilation_flow_property():
    i = Interval.from_line(0.5, 4.0)
    one = interval_dilation(i, 0.4) @ interval_dilation(i, 0.35)
    two = interval_dilation(i, 0.75)
    assert same(one, two)


def test_interval_dilation_preserves_interval():
    rng = np.random.default_rng(59)
    i = Interval.from_line(-1.0, 2.0)
    lam = interval_dilation(i, 1.1)
    for _ in range(20):
        x = rng.uniform(-1.0, 2.0)
        assert i.left < on_line(lam, x) < i.right


# ---------------------------------------------------------------------------
# commutation relations
# ---------------------------------------------------------------------------


def test_commutation_frozen_log2_example():
    ln2 = math.log(2.0)
    s_p, t_p = commutation_parameters(ln2, ln2, "halfline_bounded")
    assert_allclose([s_p, t_p], [math.log(3.0), math.log(4.0 / 3.0)], atol=ATOL)
    s_p, t_p = commutation_parameters(ln2, ln2, "halfline_shifted")
    assert_allclose([s_p, t_p], [math.log(4.0 / 3.0), math.log(3.0)], atol=ATOL)


@pytest.mark.parametrize("pair", ["halfline_bounded", "halfline_shifted"])
def test_commutation_residual_vanishes(pair):
    rng = np.random.default_rng(61)
    count = 0
    while count < 100:
        t, s = rng.uniform(-2.0, 2.0, size=2)
        try:
            r = commutation_residual(t, s, pair)
        except MobiusDomainError:
            continue
        count += 1
        assert r < 1e-9


@pytest.mark.parametrize("pair,t,s", [
    ("halfline_bounded", 5.0, -10.0),
    ("halfline_shifted", -5.0, 10.0),
])
def test_commutation_inadmissible_raises(pair, t, s):
    with pytest.raises(MobiusDomainError):
        commutation_parameters(t, s, pair)


@pytest.mark.parametrize("pair,sign", [("halfline_bounded", 1.0),
                                       ("halfline_shifted", -1.0)])
def test_commutation_parameters_match_the_scalar_formula(pair, sign):
    # one draw of the array route makes the same math-module calls as
    # the closed form, so it gives the same bits, as Python floats
    rng = np.random.default_rng(73)
    for t, s in rng.uniform(-3.0, 3.0, size=(200, 2)).tolist():
        arg = math.exp(sign * (t + s)) + 1.0 - math.exp(sign * t)
        if arg <= 0.0:
            with pytest.raises(MobiusDomainError, match="inadmissible"):
                commutation_parameters(t, s, pair)
            continue
        s_p = sign * math.log(arg)
        got = commutation_parameters(t, s, pair)
        assert got == (s_p, t + s - s_p)
        assert all(type(x) is float for x in got)


def test_commutation_parameter_sum_is_preserved():
    rng = np.random.default_rng(67)
    for _ in range(40):
        t, s = rng.uniform(-1.5, 1.5, size=2)
        try:
            s_p, t_p = commutation_parameters(t, s, "halfline_bounded")
        except MobiusDomainError:
            continue
        assert_allclose(t_p + s_p, t + s, atol=ATOL)


def test_nested_commutation_generalises_by_conjugation():
    # a nested pair sharing its left endpoint behaves like (R_+, (0,1))
    big = Interval.from_line(1.0, INF)
    small = Interval.from_line(1.0, 4.0)
    t, s = 0.8, 0.5
    s_p, t_p = nested_commutation_parameters(big, small, t, s)
    assert (s_p, t_p) == commutation_parameters(t, s, "halfline_bounded")
    lhs = interval_dilation(big, t) @ interval_dilation(small, s)
    rhs = interval_dilation(small, s_p) @ interval_dilation(big, t_p)
    assert same(lhs, rhs)


def test_nested_commutation_shared_right_endpoint():
    big = Interval.from_line(-3.0, 2.0)
    small = Interval.from_line(0.0, 2.0)
    t, s = 0.4, 0.9
    s_p, t_p = nested_commutation_parameters(big, small, t, s)
    assert (s_p, t_p) == commutation_parameters(t, s, "halfline_shifted")
    lhs = interval_dilation(big, t) @ interval_dilation(small, s)
    rhs = interval_dilation(small, s_p) @ interval_dilation(big, t_p)
    assert same(lhs, rhs)


_PAIR_INTERVALS = {
    "halfline_bounded": (Interval.from_line(0.0, INF),
                         Interval.from_line(0.0, 1.0)),
    "halfline_shifted": (Interval.from_line(0.0, INF),
                         Interval.from_line(1.0, INF)),
}


def _reference_residual(t, s, pair):
    """One draw at a time, through four interval dilations."""
    s_p, t_p = commutation_parameters(t, s, pair)
    big, small = _PAIR_INTERVALS[pair]
    lhs = interval_dilation(big, t).mat @ interval_dilation(small, s).mat
    rhs = interval_dilation(small, s_p).mat @ interval_dilation(big, t_p).mat
    return float(np.linalg.norm(_reference_sign(lhs) - _reference_sign(rhs)))


@pytest.mark.parametrize("pair", mobius.COMMUTATION_PAIRS)
@pytest.mark.parametrize("span,count", [(2.0, 400), (6.0, 400), (6.0, 1)])
def test_batch_residuals_match_the_scalar_route(pair, span, count):
    # span 6 rejects about a quarter of the draws, so rounds mix
    # admissible and inadmissible draws
    draws = np.random.default_rng(101).uniform(-span, span, size=(count, 2))
    admissible, residuals = commutation_residuals(draws[:, 0], draws[:, 1],
                                                  pair)
    ref_mask, ref = [], []
    for t, s in draws:
        try:
            ref.append(_reference_residual(t, s, pair))
        except MobiusDomainError:
            ref_mask.append(False)
            continue
        ref_mask.append(True)
        assert commutation_residual(t, s, pair) == ref[-1]
    assert admissible.tolist() == ref_mask
    assert residuals.tolist() == ref
    if span == 6.0 and count > 1:
        assert 0 < admissible.sum() < count


def test_batch_residuals_of_inadmissible_draws_only():
    admissible, residuals = commutation_residuals(
        [5.0, 4.0], [-10.0, -9.0], "halfline_bounded")
    assert admissible.tolist() == [False, False]
    assert residuals.shape == (0,)
    with pytest.raises(ValueError, match="unknown pair"):
        commutation_residuals([0.1], [0.2], "halfline")
    with pytest.raises(ValueError, match="equal length"):
        commutation_residuals([0.1, 0.2], [0.2], "halfline_bounded")


def test_shared_endpoint_kind_counts_equal_infinities_as_shared():
    assert mobius.shared_endpoint_kind(Interval.from_line(0.0, INF),
                                       Interval.from_line(1.0, INF)) == "right"
    assert mobius.shared_endpoint_kind(Interval.from_line(-INF, 0.0),
                                       Interval.from_line(-INF, -1.0)) == "left"
    with pytest.raises(ValueError, match="exactly one endpoint"):
        mobius.shared_endpoint_kind(Interval.from_line(0.0, INF),
                                    Interval.from_line(0.0, INF))


def test_commutation_rejects_non_nested():
    with pytest.raises(ValueError):
        nested_commutation_parameters(
            Interval.from_line(0.0, 1.0), Interval.from_line(0.5, 2.0), 0.1, 0.1
        )


# ---------------------------------------------------------------------------
# group law as a property
# ---------------------------------------------------------------------------

_GENERATORS = {name: kind for kind, name in enumerate(mobius.GENERATORS)}

_WORDS = st.lists(
    st.tuples(st.sampled_from(sorted(_GENERATORS)),
              st.floats(-2.0, 2.0, allow_nan=False)),
    min_size=1, max_size=5)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(word=_WORDS, u=st.floats(-math.pi, math.pi))
def test_composed_word_acts_as_its_letters_in_turn(word, u):
    letters = [MobiusElement.generators(_GENERATORS[name], x)
               for name, x in word]
    combined = letters[0]
    for g in letters[1:]:
        combined = combined.compose(g)
    stepped = u
    for g in reversed(letters):
        stepped = g.act_angle(stepped)
    assert abs(wrap_angle(combined.act_angle(u) - stepped)) < 1e-10


# ---------------------------------------------------------------------------
# the public surface
# ---------------------------------------------------------------------------

# who reads each public name: the verify-mobius command, acceptance
# criterion 01, a perfbench/tracing.py hook, the interval-flow oracle of
# ROADMAP item 11, or the name's internal caller
_READERS = ("verify-mobius", "criterion 01", "perfbench hook", "item 11")

_SURFACE = {
    "mobius": {
        "INF": "criterion 01",
        "MobiusDomainError": "criterion 01",
        "wrap_angle": "verify-mobius",
        "GENERATORS": "internal: MobiusElement.generators",
        "MobiusElement": "verify-mobius, criterion 01",
        "kan_matrix": "verify-mobius",
        "CoverElement": "verify-mobius",
        "Interval": "criterion 01, item 11",
        "mobius_through": "internal: dilation_conjugator",
        "dilation_conjugator": "criterion 01",
        "interval_dilation": "item 11",
        "COMMUTATION_PAIRS": "verify-mobius, criterion 01",
        "commutation_parameters": "item 11",
        "commutation_residuals": "verify-mobius, item 11",
        "commutation_residual": "criterion 01, perfbench hook",
        "shared_endpoint_kind": "internal: nested_commutation_parameters",
        "nested_commutation_parameters": "criterion 01",
    },
    "MobiusElement": {
        "mat": "verify-mobius, criterion 01",
        "generators": "verify-mobius",
        "dilation": "criterion 01",
        "compose": "verify-mobius, criterion 01, perfbench hook",
        "inverse": "criterion 01",
        "is_rotation": "internal: CoverElement.compose",
        "act_circle": "internal: MobiusElement.act_angle",
        "act_angle": "verify-mobius, perfbench hook",
        "iwasawa": "verify-mobius",
    },
    "CoverElement": {
        "base": "verify-mobius",
        "phi": "verify-mobius",
        "generators": "verify-mobius",
        "compose": "verify-mobius, perfbench hook",
    },
    "Interval": {
        "left": "internal: dilation_conjugator",
        "right": "internal: dilation_conjugator",
        "from_line": "criterion 01",
        "midpoint": "internal: dilation_conjugator",
        "contains": "internal: shared_endpoint_kind",
    },
}


def test_public_surface_is_what_its_readers_read():
    def public(namespace):
        return {name for name, value in vars(namespace).items()
                if not name.startswith("_")
                and not isinstance(value, types.ModuleType)
                and value is not __future__.annotations}

    surface = {"mobius": public(mobius)}
    surface.update((cls.__name__, public(cls))
                   for cls in (MobiusElement, CoverElement, Interval))
    assert {k: set(v) for k, v in _SURFACE.items()} == surface
    for readers in (r for names in _SURFACE.values() for r in names.values()):
        assert (readers.startswith("internal: ")
                or set(readers.split(", ")) <= set(_READERS)), readers
