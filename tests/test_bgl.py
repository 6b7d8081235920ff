"""Tests for the region-indexed nets of standard subspaces."""

import functools
import itertools
import math
import threading

import numpy as np
import pytest

from modnet import bgl
from modnet import cli
from modnet import reps
from modnet import spacetime
from modnet import stdspace

EXACT_TOL = 1e-10
RESIDUAL_TOL = 1e-8
RECON_TOL = 1e-7
FORMULA_TOL = 1e-8
LADDER_TOL = 2e-3
MONOTONE_BUDGET = cli.CHECKS["lightcone-defect"]["cone-defect-monotone"][0]

_TWO_PI = 2.0 * math.pi


@functools.lru_cache(maxsize=None)
def _model(kind):
    return {
        "chiralSum": bgl.NetModel.chiral_sum,
        "massive": bgl.NetModel.massive,
        "directIntegral": bgl.NetModel.direct_integral,
        "twisted": bgl.NetModel.twisted,
    }[kind]()


def _origin_wedges():
    return (spacetime.Region.wedge_right((0.0, 0.0)),
            spacetime.Region.wedge_left((0.0, 0.0)))


def _scatter(stack, tiles):
    """The n x n matrix with tile t of an operator's ``stack`` at the slots
    tiles[t], else 0: the tests' own dense reference."""
    out = np.zeros((tiles.size, tiles.size), dtype=stack.dtype)
    out[tiles[:, :, None], tiles[:, None, :]] = stack
    return out


def _gather(a, rows, cols):
    """The stack holding tile t of the matrix ``a`` at (rows[t], cols[t])."""
    return a[rows[:, :, None], cols[:, None, :]]


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind,total", [
    ("chiralSum", 66), ("massive", 128),
    ("directIntegral", 128), ("twisted", 132),
])
def test_constructors_fix_the_ambient_dimension(kind, total):
    net = _model(kind)
    assert net.kind == kind
    assert net.tiles.size == total
    assert net.wedge_subspace(spacetime.Region.wedge_right()).basis.shape == (
        2 * total, total)


@pytest.mark.parametrize("ctor", [bgl.NetModel.chiral_sum,
                                  bgl.NetModel.twisted])
def test_even_chiral_grids_rejected(ctor):
    # an even grid zeroes the unpaired Nyquist mode, so odd-step dilation
    # flows would be off by O(1)
    with pytest.raises(ValueError, match="odd"):
        ctor(n=8)


def test_unknown_kind_rejected():
    with pytest.raises(ValueError, match="unknown model kind"):
        bgl.NetModel("spaghetti", None)


def test_factors_of_unequal_size_rejected():
    # a model's wedge data is one stack of factor tiles, so its factors
    # have one size: rapidity factors of 2 and 4 slots are refused, with
    # both sizes named
    factors = (reps.rapidity_factor(2, 1.0, 1.0),
               reps.rapidity_factor(4, 1.0, 2.0))
    with pytest.raises(ValueError, match=r"one size, got sizes \[2, 4\]"):
        bgl.NetModel("directIntegral", factors)


def test_each_tile_gets_the_bits_it_gets_alone():
    # twisted lists chiralSum's factor pair once per copy, at the same
    # (n, h): its wedge tiles are chiralSum's repeated, bit for bit, and
    # the Bisognano-Wichmann residual, a largest tile norm, is the same
    chiral, twisted = _model("chiralSum"), _model("twisted")
    w_r, _ = _origin_wedges()
    tiles = chiral.wedge_subspace(w_r).tiles
    assert np.array_equal(twisted.wedge_subspace(w_r).tiles,
                          np.concatenate([tiles, tiles]))
    chiral_bw, twisted_bw = (bgl.axioms_report(net)["bisognano-wichmann"]
                             for net in (chiral, twisted))
    assert chiral_bw.residual == twisted_bw.residual


def test_model_budget_floor_and_magnitude():
    net = _model("chiralSum")
    assert net.epsilon >= bgl.BUDGET_FACTOR * bgl.BUDGET_FLOOR
    assert net.epsilon < 1e-8


def test_model_budget_is_measured_on_first_read():
    net = bgl.NetModel.chiral_sum(n=9)
    assert "epsilon" not in vars(net)
    assert net.epsilon == bgl.NetModel.chiral_sum(n=9).epsilon
    assert "epsilon" in vars(net)


def test_repr_names_kind_and_budget():
    text = repr(_model("massive"))
    assert "massive" in text and "epsilon" in text


# ---------------------------------------------------------------------------
# lattice generator helpers
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("n", [9, 16, 33])
def test_kappa_spectrum_is_paired(n):
    kap = bgl._kappa(n, 1.3)
    assert np.allclose(np.sort(kap), -np.sort(kap)[::-1], atol=1e-14)
    if n % 2 == 0:
        assert kap[n // 2] == 0.0


@pytest.mark.parametrize("orient,shift", [(+1, -1), (-1, +1)])
def test_halfline_flow_is_one_slot_shift(orient, shift):
    # the forward (backward) cone is the half-line (0, oo) ((-oo, 0)) on
    # both factors: one grid step of the flow rolls each factor's slots
    n, h = 11, 0.9
    net = bgl.NetModel.chiral_sum(n=n, h=h)
    cone = (spacetime.Region.forward_cone() if orient > 0 else
            spacetime.Region((-math.inf, 0.0), (-math.inf, 0.0)))
    steps = net.wedge_modular(cone).power_tiles(1j * h / _TWO_PI)
    assert len(steps) == 2                    # one tile per factor
    for step in steps:
        assert np.linalg.norm(step - bgl._roll(n, shift), 2) < EXACT_TOL


def _eigen_subspace(net, region):
    """fix(J Delta^{1/2}) of a region at any apex: the eigenpair formula
    on its exact eigen form, on the model's tiles."""
    log_delta, vecs, _ = bgl._wedge_eigen(net.factors, region)
    return bgl._eigenpair_fix(net.tiles, log_delta, vecs)


def test_halfline_block_is_a_valid_eigen_form():
    net = bgl.NetModel.chiral_sum(n=13, h=1.1)
    log_delta, vecs, z = bgl._wedge_eigen(
        net.factors, spacetime.Region.wedge_right((0.3, -0.2)))
    assert log_delta.shape == z.shape == (2, 13)
    # the eigenvectors are unitary and J exchanges column m with -m mod s
    pair = -np.arange(13) % 13
    for lam, v, zt in zip(log_delta, vecs, z):
        assert np.linalg.norm(v.conj().T @ v - np.eye(13), 2) < 1e-13
        assert np.allclose(zt[:, None] * v.conj(), v[:, pair], atol=1e-14)
        assert np.array_equal(lam[pair], -lam)
    # so the stacks are modular data as they stand, with no dense Delta,
    # kept in the order they are handed
    md = stdspace.ModularData(vecs, log_delta, z[..., None] * np.eye(13),
                              tiling=net.tiles)
    assert np.array_equal(md.log_delta, log_delta)
    assert np.array_equal(md._v, vecs)


def test_phased_block_balances_j_and_delta():
    # spacing keeps cond(Delta) ~ 1e5 so the inverse is trustworthy
    net = bgl.NetModel.chiral_sum(n=9, h=3.0)
    log_delta, vecs, z = bgl._wedge_eigen(
        net.factors, spacetime.Region.wedge_right((0.37, -0.5)))
    for lam, v, zt in zip(log_delta, vecs, z):
        delta = (v * np.exp(lam)) @ v.conj().T
        j_mat = np.diag(zt)
        lhs = j_mat @ delta.conj() @ j_mat.conj()
        rhs = np.linalg.inv(delta)
        assert np.linalg.norm(lhs - rhs, 2) / np.linalg.norm(rhs, 2) < 1e-9


def test_dyadic_cone_family_counts_and_scales():
    boxes = bgl._dyadic_cones(8)
    assert len(boxes) == 8
    assert boxes[0] == (0.0, 1.0, 0.0, 1.0)
    assert boxes[1] == (0.0, 0.5, 0.5, 1.0)
    for al, bl, ar, br in boxes:
        assert 0.0 <= al < bl and 0.0 <= ar < br


# ---------------------------------------------------------------------------
# wedge subspaces
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", bgl.MODEL_KINDS)
def test_wedge_subspaces_are_standard(kind):
    net = _model(kind)
    for region in _origin_wedges():
        report = stdspace.standardness(net.wedge_subspace(region))
        assert report.standard
        assert net.wedge_subspace(region).dim == net.tiles.size


@pytest.mark.parametrize("kind", bgl.MODEL_KINDS)
def test_wedge_duality(kind):
    net = _model(kind)
    w_r, w_l = _origin_wedges()
    comp = stdspace.symplectic_complement(net.wedge_subspace(w_r))
    assert stdspace.subspace_distance(comp, net.wedge_subspace(w_l)) < 1e-9


@pytest.mark.parametrize("kind", bgl.MODEL_KINDS)
def test_modular_roundtrip_within_budget(kind):
    net = _model(kind)
    w_r, _ = _origin_wedges()
    md = net.wedge_modular(w_r)
    md2 = stdspace.modular_data(net.wedge_subspace(w_r))
    assert np.linalg.norm(md.jc - md2.jc, 2) < net.epsilon
    rel = (np.linalg.norm(md.power(1.0) - md2.power(1.0), 2)
           / md.delta_norm)
    assert rel < net.epsilon


def test_modular_roundtrip_sees_wrong_modular_data():
    # valid modular data off the wedge's by a stretched log Delta or by a
    # phase on J: the roundtrip residual is the mismatch
    net = _model("chiralSum")
    w_r, _ = _origin_wedges()
    h = net.wedge_subspace(w_r)
    md = net.wedge_modular(w_r)
    assert stdspace.modular_roundtrip(md, h) < net.epsilon
    # tile t's columns of the dense V sit on its slots, the model's tiles
    # in slot order: the flat log Delta is the tiles' in turn
    lam = md.log_delta.ravel()
    wrong = stdspace.ModularData(md.vecs, 1.01 * lam, md.jc)
    want = (np.linalg.norm(wrong.power(1.0) - md.power(1.0), 2)
            / wrong.delta_norm)
    assert want > 0.01
    assert stdspace.modular_roundtrip(wrong, h) == pytest.approx(want,
                                                                 rel=1e-9)
    turned = stdspace.ModularData(md.vecs, lam, np.exp(0.3j) * md.jc)
    assert stdspace.modular_roundtrip(turned, h) == pytest.approx(
        abs(np.exp(0.3j) - 1.0), rel=1e-9)


@pytest.mark.parametrize("kind", bgl.MODEL_KINDS)
def test_wedge_modular_takes_the_block_eigenpair(monkeypatch, kind):
    # the region's spectrum and eigenvectors are exact, so neither the
    # validation nor the modular flow diagonalises the dense Delta
    net = _model(kind)
    region = spacetime.Region.wedge_right((0.3, -0.2))
    log_delta = bgl._wedge_eigen(net.factors, region)[0]

    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolve inside wedge_modular")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    md = net.wedge_modular(region)
    flow = md.delta_it(0.37)
    monkeypatch.undo()
    top = math.exp(log_delta.max())
    assert md.delta_norm == pytest.approx(top, rel=1e-12)
    dense = md.power(1.0)
    w, u = np.linalg.eigh(dense)
    assert w[-1] == pytest.approx(top, rel=1e-12)
    # the flow of the dense Delta's own eigensolve, an independent route
    eigh_flow = (u * w ** 0.37j) @ u.conj().T
    assert np.linalg.norm(flow - eigh_flow, 2) < RESIDUAL_TOL


def test_wedge_cache_returns_the_same_object():
    net = bgl.NetModel.chiral_sum(n=9)
    region = spacetime.Region.wedge_right((0.2, -0.1))
    assert net.wedge_subspace(region) is net.wedge_subspace(region)


def test_wedge_cache_is_thread_consistent():
    net = bgl.NetModel.chiral_sum(n=9)
    region = spacetime.Region.wedge_left((0.05, 0.4))
    seen = []

    def worker():
        seen.append(net.wedge_subspace(region))

    threads = [threading.Thread(target=worker) for _ in range(8)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    assert len({id(s) for s in seen}) == 1


def test_fresh_model_reproduces_cached_subspace():
    region = spacetime.Region.wedge_right((0.7, -0.3))
    a = bgl.NetModel.chiral_sum(n=9).wedge_subspace(region)
    b = bgl.NetModel.chiral_sum(n=9).wedge_subspace(region)
    assert stdspace.subspace_distance(a, b) < EXACT_TOL


@pytest.mark.parametrize("kind", ["chiralSum", "massive", "directIntegral"])
def test_translation_covariance_is_exact(kind):
    net = _model(kind)
    shift = (0.45, -0.15)
    u = net.unit_matrix_of(translation=shift)
    w_r, _ = _origin_wedges()
    moved = net.wedge_subspace(spacetime.Region.wedge_right(shift))
    h = net.wedge_subspace(w_r)
    # on the model's tiles and on one dense tile
    for image in (h.transform(u, net.tiles),
                  h.transform(_scatter(u, net.tiles))):
        assert stdspace.subspace_distance(moved, image) < 1e-11


# ROADMAP item 1: the translation phases are formed in doubles, so U(a)
# U(b) misses U(a + b) at order one on every default grid
_PHASES_DO_NOT_COMPOSE = pytest.mark.xfail(
    strict=True, reason="ROADMAP item 1: max |U(a) U(b) - U(a + b)| is 2.0 "
                        "on chiralSum, twisted and massive and 1.82 on "
                        "directIntegral")


@_PHASES_DO_NOT_COMPOSE
@pytest.mark.parametrize("kind", bgl.MODEL_KINDS)
def test_translations_compose_on_the_default_grid(kind):
    u = _model(kind).unit_matrix_of
    a, b = (0.25, -0.4), (0.1, 0.3)
    product = u(translation=a) @ u(translation=b)
    summed = u(translation=(a[0] + b[0], a[1] + b[1]))
    assert np.max(np.abs(product - summed)) < bgl.BLOCK_TOL


@pytest.mark.parametrize("kind", bgl.MODEL_KINDS)
def test_unit_matrix_of_translation_is_orthogonal(kind):
    net = _model(kind)
    u = net.unit_matrix_of(translation=(0.31, -0.08))
    assert u.shape == net.tiles.shape + net.tiles.shape[-1:]
    # unitary, so its real form is orthogonal
    assert stdspace.tile_norm(u.conj().swapaxes(-1, -2) @ u
                              - np.eye(u.shape[-1])) < 1e-11


def _unit_matrix_one_column_at_a_time(net, translation, dilation):
    return np.column_stack([reps.apply(net.factors, e, translation, dilation)
                            for e in np.eye(net.tiles.size)])


@pytest.mark.parametrize("kind", bgl.MODEL_KINDS)
def test_unit_matrix_of_matches_column_by_column(kind):
    net = _model(kind)
    h = net.factors[0].h
    # (translation, dilation) lightray pairs; the last composes the
    # dilation after the translation, which scales the shift by e^{-h}
    t, zero = (0.31, -0.08), (0.0, 0.0)
    elements = [(t, zero), (zero, (2 * h, -2 * h)), (t, (2 * h, -2 * h))]
    if kind in ("chiralSum", "twisted"):
        elements += [(zero, (-h, -h)),
                     (tuple(math.exp(-h) * a for a in t), (-h, -h))]
    tiles = net.tiles
    for translation, dilation in elements:
        got = net.unit_matrix_of(translation, dilation)
        dense = _unit_matrix_one_column_at_a_time(net, translation, dilation)
        # the factor tiles hold every nonzero of the dense action
        assert np.array_equal(_scatter(got, tiles), dense)
        want = _gather(dense, tiles, tiles)
        # signed zeros too, in the real and imaginary parts
        assert np.array_equal(np.signbit(got.view(float)),
                              np.signbit(want.view(float)))


@pytest.mark.parametrize("kind", bgl.MODEL_KINDS)
def test_factor_records_match_the_representation(kind):
    net = _model(kind)
    # translations: the record's phases are the implemented two-lightray
    # translation
    for apex in ((0.3, -0.2), (-0.5, 0.5)):
        phases = reps.translation_phases(net.factors, *apex)
        dev = np.max(np.abs(np.diag(phases) - _scatter(
            net.unit_matrix_of(translation=apex), net.tiles)))
        assert dev < 1e-12
    # positivity of energy: P_L and P_R are nonnegative on every block
    for f in net.factors:
        assert np.all(f.p_l >= 0) and np.all(f.p_r >= 0)
    # orientation: each block's W_R flow is the implemented boost
    s = 2 * net.factors[0].h
    w_r, _ = _origin_wedges()
    assert stdspace.tile_norm(net.wedge_flow(w_r, s / _TWO_PI)
                              - net.unit_matrix_of(dilation=(s, -s))) < 1e-9


@pytest.mark.parametrize("ctor", [bgl.NetModel.chiral_sum,
                                  bgl.NetModel.twisted])
def test_implemented_grid_dilation_is_a_phased_permutation_at_n_129(ctor):
    # at n = 129 and h = pi the momenta span e^{+-201}; the dilation by a
    # grid step moves slots and forms no ratio of their momenta, so it
    # stays finite and unitary
    net = ctor(n=129)
    h = net.factors[0].h
    for s in (h, -h):
        u = _scatter(net.implemented_dilation(s), net.action_tiles)
        assert np.all(np.isfinite(u))
        one = np.abs(np.abs(u) - 1.0) <= 1e-15
        assert np.all(one.sum(axis=0) == 1) and np.all(one.sum(axis=1) == 1)


@pytest.mark.parametrize("kind", ["chiralSum", "twisted"])
def test_implemented_dilation_dilates_both_lightrays(kind):
    # the dilation by s is (sigma_L, sigma_R) = (s, s), followed on the
    # twisted model by the inner rotation V(q s), which mixes the copies
    net = _model(kind)
    s = -2 * net.factors[0].h
    want = reps.apply(net.factors, np.eye(net.tiles.size), dilation=(s, s))
    if kind == "twisted":
        c, si = math.cos(net.charge * s), math.sin(net.charge * s)
        eye = np.eye(net.tiles.size // 2)
        want = want @ np.block([[c * eye, -si * eye], [si * eye, c * eye]])
    got = net.implemented_dilation(s)
    assert got.shape == net.action_tiles.shape + net.action_tiles.shape[-1:]
    assert np.array_equal(_scatter(got, net.action_tiles), want)


def test_apply_takes_a_trailing_column_axis():
    net = _model("directIntegral")
    rng = np.random.default_rng(5)
    s = 2 * net.factors[0].h
    g = (0.2, 0.0), (s, -s)
    cols = rng.normal(size=(net.tiles.size, 3)) \
        + 1j * rng.normal(size=(net.tiles.size, 3))
    out = reps.apply(net.factors, cols, *g)
    for j in range(3):
        assert np.array_equal(out[..., j],
                              reps.apply(net.factors, cols[..., j], *g))
    with pytest.raises(ValueError, match="rep shape"):
        reps.apply(net.factors, cols[..., None], *g)


def test_chiral_wedge_flow_matches_implemented_dilations():
    net = _model("chiralSum")
    h = net.factors[0].h
    t = h / _TWO_PI
    w_r, _ = _origin_wedges()
    dev = stdspace.tile_norm(net.wedge_flow(w_r, t)
                             - net.unit_matrix_of(dilation=(h, -h)))
    assert dev < EXACT_TOL


def test_cone_flow_matches_implemented_dilations():
    net = _model("chiralSum")
    h = net.factors[0].h
    t = h / _TWO_PI
    cone = spacetime.Region.forward_cone((0.0, 0.0))
    dev = stdspace.tile_norm(net.wedge_flow(cone, t)
                             - net.unit_matrix_of(dilation=(-h, -h)))
    assert dev < EXACT_TOL


@pytest.mark.parametrize("kind", ["massive", "directIntegral"])
def test_massive_wedge_flow_matches_boosts_at_even_steps(kind):
    # even rapidity grids carry an unpaired top mode; flow comparisons
    # are configured on even step counts where its phase squares away
    net = _model(kind)
    h = net.factors[0].h
    s = 2 * h
    t = s / _TWO_PI
    w_r, w_l = _origin_wedges()
    assert stdspace.tile_norm(net.wedge_flow(w_r, t)
                              - net.unit_matrix_of(dilation=(s, -s))) < 1e-9
    assert stdspace.tile_norm(net.wedge_flow(w_l, t)
                              - net.unit_matrix_of(dilation=(-s, s))) < 1e-9


def test_wedge_subspace_rejects_half_bands():
    with pytest.raises(ValueError, match="not wedge-like"):
        _model("chiralSum").wedge_subspace(
            spacetime.Region((0.0, 1.0), (0.0, math.inf)))


def test_massive_lightcone_is_not_wedge_data():
    for apex in ((0.0, 0.0), (0.3, -0.2)):
        with pytest.raises(ValueError, match="not wedge data"):
            _model("massive").wedge_subspace(
                spacetime.Region.forward_cone(apex))


@pytest.mark.parametrize("kind", bgl.MODEL_KINDS)
def test_translated_wedges_match_the_block_route(kind):
    # H(W + a) = U(a) H(W): the translate of the cached apex-0 subspace
    # against the eigenpair formula on the translated eigen form
    net = _model(kind)
    regions = []
    for apex in ((0.0, 0.0), (0.3, -0.2), (0.25, -0.4)):
        regions += [spacetime.Region.wedge_right(apex),
                    spacetime.Region.wedge_left(apex)]
    if kind in ("chiralSum", "twisted"):
        regions += [spacetime.Region.forward_cone((0.3, -0.2)),
                    spacetime.Region((-math.inf, 0.25),
                                     (-math.inf, -0.4))]
    for region in regions:
        assert stdspace.subspace_distance(
            net.wedge_subspace(region),
            _eigen_subspace(net, region)) < 1e-12, (kind, region)


def _study_geometry(grid):
    """Lightray momenta (p_L, p_R) and origin bases (W_R, W_L) of one
    lightcone-study level at mass 1."""
    theta = (np.arange(grid) - (grid - 1) / 2.0) * bgl.STUDY_SPACING
    p_l, p_r = np.exp(theta) / math.sqrt(2.0), np.exp(-theta) / math.sqrt(2.0)
    net = _study_model(grid)
    return ((p_l, p_r), *(_eigen_subspace(net, w) for w in _origin_wedges()))


def _phases(p_l, p_r, corner):
    """Translation phases e^{i(a p_L + b p_R)} of a corner (a, b)."""
    return np.exp(1j * (corner[0] * p_l + corner[1] * p_r))


def _cone_wedges(grid, count):
    """(H(W_R), H(W_L)) of the minimal wedges of each dyadic cone, as
    the translates of the origin bases to the corners (bl, ar), (al, br)."""
    (p_l, p_r), origin_r, origin_l = _study_geometry(grid)
    for al, bl, ar, br in bgl._dyadic_cones(count):
        yield tuple(
            origin.phased(_phases(p_l, p_r, corner))
            for origin, corner in ((origin_r, (bl, ar)), (origin_l, (al, br))))


def test_study_wedges_match_the_block_route():
    grid = 33
    net = _study_model(grid)
    pairs = _cone_wedges(grid, 8)
    for (al, bl, ar, br), (w_r, w_l) in zip(bgl._dyadic_cones(8), pairs):
        for sub, region in (
                (w_r, spacetime.Region.wedge_right((bl, ar))),
                (w_l, spacetime.Region.wedge_left((al, br)))):
            assert stdspace.subspace_distance(
                sub, _eigen_subspace(net, region)) < 1e-12, region


# ---------------------------------------------------------------------------
# dual-prescription regions
# ---------------------------------------------------------------------------


def test_minimal_wedges_share_the_cone_corners():
    cone = spacetime.Region.double_cone((-1.0, 2.0), (0.5, 3.0))
    w_r, w_l = spacetime.minimal_wedges(cone)
    assert spacetime.wedge_corner(w_r) == (2.0, 0.5)
    assert spacetime.wedge_corner(w_l) == (-1.0, 3.0)


def test_minimal_wedges_require_double_cones():
    with pytest.raises(ValueError, match="double cones"):
        spacetime.minimal_wedges(spacetime.Region.wedge_right((0.0, 0.0)))


def test_dual_exact_and_alternating_agree_on_unit_cone():
    net = _model("chiralSum")
    cone = spacetime.Region.unit_double_cone()
    exact = net.region_subspace_dual(cone, method="exact")
    halp = net.region_subspace_dual(cone, method="halperin")
    assert exact.dim == halp.dim


def test_dual_rejects_wedge_regions():
    with pytest.raises(ValueError, match="dual prescription covers "
                                         "double cones"):
        _model("chiralSum").region_subspace_dual(
            spacetime.Region.wedge_right((0.0, 0.0)))


def test_dual_rejects_lightcones_on_all_kinds():
    # a lightcone is wedge-like: its subspace is wedge_subspace's
    for kind in ("chiralSum", "massive"):
        with pytest.raises(ValueError, match="dual prescription covers "
                                             "double cones"):
            _model(kind).region_subspace_dual(
                spacetime.Region.forward_cone((0.0, 0.0)))


# ---------------------------------------------------------------------------
# axiom reports
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("kind", ["chiralSum", "massive", "directIntegral"])
def test_axioms_pass_on_untwisted_models(kind):
    report = bgl.axioms_report(_model(kind))
    failing = [k for k, e in report.items() if not e.passed]
    assert all(e.passed for e in report.values()), failing


def test_axioms_core_entries_present():
    report = bgl.axioms_report(_model("chiralSum"))
    for name in ("isotony", "poincare-covariance", "positivity-of-energy",
                 "reeh-schlieder", "locality", "bisognano-wichmann"):
        assert name in report
        assert report[name].residual < report[name].budget


def test_axioms_dilation_entries_only_on_chiral_models():
    assert "dilation-covariance" in bgl.axioms_report(_model("chiralSum"))
    assert ("dilation-covariance"
            not in bgl.axioms_report(_model("massive")))


@pytest.mark.parametrize("kind,count", [
    ("chiralSum", 11), ("twisted", 11), ("massive", 6),
    ("directIntegral", 6)])
def test_axioms_report_keys_follow_the_checks_table(kind, count):
    # the report's keys are the names the CLI declares, in table order:
    # all of them on the scale-covariant models, the wedge axioms only
    # on the others
    net = {"chiralSum": lambda: bgl.NetModel.chiral_sum(n=9),
           "twisted": lambda: bgl.NetModel.twisted(n=9),
           "massive": lambda: bgl.NetModel.massive(n=8),
           "directIntegral": lambda: bgl.NetModel.direct_integral(
               masses=2, n=8)}[kind]()
    report = bgl.axioms_report(net)
    assert list(report) == list(cli.CHECKS["bgl-axioms"])[:count]
    assert all(isinstance(m, bgl.Measurement) and m.budget is not None
               for m in report.values())


def test_twisted_model_fails_exactly_dilation_bw():
    report = bgl.axioms_report(_model("twisted"))
    assert not all(e.passed for e in report.values())
    failing = {k for k, e in report.items() if not e.passed}
    assert failing == {"dilation-bisognano-wichmann"}
    # at charge 1 the first dilation grid point sits at t = 1/2, where
    # the twist phase is -1 and the deviation is exactly 2
    assert report["dilation-bisognano-wichmann"].residual == pytest.approx(
        2.0, abs=1e-10)


def test_strong_additivity_fails_on_a_planted_halperin_result(monkeypatch):
    # the exact dual cone is trivial here; a non-trivial Halperin result
    # must be compared with it, not waved through
    net = bgl.NetModel.chiral_sum(n=9)
    exact_dual = net.region_subspace_dual

    def planted(region, method="exact", **kwargs):
        if method == "halperin":
            return stdspace.RealSubspace(
                np.eye(2 * net.tiles.size)[:, :1])
        return exact_dual(region, method=method, **kwargs)

    monkeypatch.setattr(net, "region_subspace_dual", planted)
    entry = bgl.axioms_report(net)["strong-additivity"]
    assert not entry.passed
    assert entry.residual == pytest.approx(1.0)
    assert entry.detail == "dual cone dim 0 (exact) / 1 (Halperin)"


def test_report_notes_surface_the_translation_obstruction():
    report = bgl.axioms_report(_model("chiralSum"))
    assert "translated wedge" in report["isotony"].detail


# ---------------------------------------------------------------------------
# reconstruction of the interval flows
# ---------------------------------------------------------------------------


def test_reconstruction_identity_holds():
    checks, _ = bgl.reconstruct_ur(_model("chiralSum"))
    assert checks["reconstruction-identity"].residual < RECON_TOL
    assert checks["reconstruction-at-zero"].residual < EXACT_TOL


def test_reconstruction_flows_commute():
    checks, _ = bgl.reconstruct_ur(_model("chiralSum"))
    assert checks["reconstruction-commutator"].residual < RECON_TOL


def test_reconstruction_left_factor_cancels():
    checks, _ = bgl.reconstruct_ur(_model("chiralSum"), t_values=(0.5, 1.0))
    assert checks["reconstruction-left-cancellation"].residual < RECON_TOL


@pytest.mark.parametrize("n", [33, 129])
def test_reconstruction_regions_are_translated_forward_cones(n):
    # the per-factor designation the regions replace: a half-line factor
    # (0, oo) is the origin block, a unit-interval factor (0, 1) the
    # half-line (1, oo); the two factor subspaces are summed blockwise
    net = bgl.NetModel.chiral_sum(n=n)

    def factor(f, shift):
        # the factor's own half-line (shift, oo): the forward cone of the
        # one-factor model at the apex (shift, shift)
        return _eigen_subspace(bgl.NetModel("chiralSum", (f,)),
                               spacetime.Region.forward_cone((shift, shift)))

    for apex in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
        designated = bgl.assemble_blockwise(
            [factor(f, a) for f, a in zip(net.factors, apex)])
        cone = net.wedge_subspace(spacetime.Region.forward_cone(apex))
        assert stdspace.subspace_distance(designated, cone) <= 1e-13, apex


def _ulps_apart(tiled, dense, ulps=4):
    """Whether two residuals agree to a few ulps at the unit scale of the
    operators they measure (or at their own size, if larger)."""
    return abs(tiled - dense) <= ulps * np.finfo(float).eps * max(1.0, dense)


def _dense_symmetry_residuals(h, u):
    """symmetry_commutation_check's residuals as dense n x n products."""
    m = stdspace.modular_data(h)
    return [np.linalg.norm((u @ x) @ right - x, 2) / scale
            for x, right, scale in ((m.tomita_matrix(), u.T, 1.0),
                                    (m.power(1.0), u.conj().T, m.delta_norm),
                                    (m.jc, u.T, 1.0))]


def test_tiled_reconstruction_residuals_match_a_dense_reference():
    # U_R(t) = Delta_{B_L}^{it} U(delta(2 pi t) x 1) as dense matrices, the
    # dilation of one factor taken from the representation: the tile
    # stacks, column rolls and tile norms give the same residuals
    net = bgl.NetModel.chiral_sum(n=17)
    n, one = net.factors[0].n, np.eye(net.tiles.size)
    md_bl, md_br, md_d0 = (
        stdspace.modular_data(net.wedge_subspace(
            spacetime.Region.forward_cone(apex)))
        for apex in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0)))

    def u(md, t, dilation):
        return md.power(1j * t) @ reps.apply(net.factors, one,
                                              dilation=dilation)

    checks, tables = bgl.reconstruct_ur(net)
    _, rows = tables["flow"]
    for row in rows:
        t = row["t"]
        a = u(md_bl, t, (_TWO_PI * t, 0.0))
        b = u(md_br, t, (0.0, _TWO_PI * t))
        want = (np.linalg.norm(md_d0.power(1j * t) - a @ b, 2),
                np.linalg.norm(a @ b - b @ a, 2),
                np.linalg.norm(a[:n, :n] - np.eye(n), 2))
        got = (row["identity_residual"], row["commutator_residual"],
               row["left_cancellation"])
        assert all(map(_ulps_apart, got, want)), (t, got, want)
    zero = u(md_bl, 0.0, (0.0, 0.0)) @ u(md_br, 0.0, (0.0, 0.0)) - one
    assert _ulps_apart(checks["reconstruction-at-zero"].residual,
                       np.linalg.norm(zero, 2))


def test_tiled_counterexample_residuals_match_a_dense_reference():
    # the twisted flow deviations on the copy-paired tiles, the roundtrip
    # on the factor tiles and the gauge residuals on the joint tiles of
    # the rotation, against dense n x n differences
    net = bgl.NetModel.twisted(n=17)
    cone = spacetime.Region.forward_cone((0.0, 0.0))
    checks, tables = bgl.counterexample_bw(net)
    _, rows = tables["deviation"]
    for row in rows:
        t, dev = row["t"], row["deviation"]
        want = np.linalg.norm(
            _scatter(net.wedge_flow(cone, t), net.tiles)
            - _scatter(net.implemented_dilation(-_TWO_PI * t),
                       net.action_tiles), 2)
        assert _ulps_apart(dev, want), (t, dev, want)
    w_r, _ = _origin_wedges()
    md = net.wedge_modular(w_r)
    md2 = stdspace.modular_data(net.wedge_subspace(w_r))
    want = max(np.linalg.norm(md.jc - md2.jc, 2),
               np.linalg.norm(md.power(1.0) - md2.power(1.0), 2)
               / md.delta_norm)
    assert _ulps_apart(checks["counterexample-wedge-roundtrip"].residual,
                       want)
    c, s = math.cos(0.7), math.sin(0.7)
    eye = np.eye(net.tiles.size // 2)
    rotation = np.block([[c * eye, -s * eye], [s * eye, c * eye]])
    want = _dense_symmetry_residuals(net.wedge_subspace(cone), rotation)
    assert _ulps_apart(checks["counterexample-gauge-invariance"].residual,
                       max(want))


@pytest.mark.parametrize("kind", ["chiralSum", "twisted"])
def test_tiled_symmetry_residuals_match_a_dense_reference(kind):
    # a modular unitary of the cone is a symmetry on both models, handed
    # in on the factor tiles of its modular data
    net = {"chiralSum": bgl.NetModel.chiral_sum,
           "twisted": bgl.NetModel.twisted}[kind](n=17)
    h_v = net.wedge_subspace(spacetime.Region.forward_cone((0.0, 0.0)))
    md = stdspace.modular_data(h_v)
    assert np.array_equal(md.tiling, net.tiles)
    rep = stdspace.symmetry_commutation_check(h_v, md.power_tiles(0.3j),
                                              net.tiles)
    got = (rep.s_residual, rep.delta_residual, rep.j_residual)
    want = _dense_symmetry_residuals(h_v, md.delta_it(0.3))
    assert all(map(_ulps_apart, got, want)), (got, want)


def test_reconstruction_residual_path_reads_no_tiling(monkeypatch):
    # every residual of the reconstruction runs on the tiling the cone
    # subspaces carry, the model's factor tiles: no flow is moved
    net = bgl.NetModel.chiral_sum(n=17)
    flows = []
    power_tiles = stdspace.ModularData.power_tiles
    monkeypatch.setattr(stdspace.ModularData, "power_tiles", lambda md, z: (
        flows.append(md.tiling) or power_tiles(md, z)))

    def moved(*args):
        raise AssertionError("a flow was moved to another tiling")

    # every move between tilings, dense views included, is a merge
    monkeypatch.setattr(stdspace, "merged", moved)
    checks, _ = bgl.reconstruct_ur(net)
    # two flows per t, D_0's read from them, and two at 0
    assert len(flows) == 2 * 4 + 2
    assert all(np.array_equal(rows, net.tiles) for rows in flows)
    assert checks["reconstruction-identity"].residual < RECON_TOL


@pytest.mark.parametrize("n", [33, 129])
def test_d0_record_is_the_half_band_records_tiles(n):
    # D_0 = (1, oo) x (1, oo): its recomputed record is B_R's left tile and
    # B_L's right tile bit for bit, and so is its flow, which the
    # reconstruction reads from theirs
    net = bgl.NetModel.chiral_sum(n=n)
    md_bl, md_br, md_d0 = (
        stdspace.modular_data(net.wedge_subspace(
            spacetime.Region.forward_cone(apex)))
        for apex in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0)))
    assembled = stdspace.ModularData(
        *(np.stack([x(md_br)[0], x(md_bl)[1]]) for x in (
            lambda m: m._v, lambda m: m.log_delta, lambda m: m._j)),
        tiling=net.tiles)
    for x, y in ((assembled._v, md_d0._v), (assembled._j, md_d0._j),
                 (assembled.log_delta, md_d0.log_delta)):
        assert np.array_equal(x, y)
    for t in (0.5, 1.0, 1.5, 2.0):
        flows = [m.power_tiles(1j * t) for m in (md_br, md_bl)]
        assert np.array_equal(np.stack([flows[0][0], flows[1][1]]),
                              md_d0.power_tiles(1j * t))


def test_reconstruction_needs_grid_parameters():
    with pytest.raises(ValueError, match="not an integer multiple"):
        bgl.reconstruct_ur(_model("chiralSum"), t_values=(0.3,))


def test_reconstruction_runs_on_the_summed_model_only():
    with pytest.raises(ValueError, match="solvable summed model"):
        bgl.reconstruct_ur(_model("massive"))


# ---------------------------------------------------------------------------
# the twisted counterexample
# ---------------------------------------------------------------------------


def test_counterexample_matches_the_phase_formula():
    checks, tables = bgl.counterexample_bw(_model("twisted"))
    _, rows = tables["deviation"]
    # the prediction at charge 1
    assert [row["predicted"] for row in rows] == pytest.approx(
        [2.0, 0.0, 2.0], abs=FORMULA_TOL)
    assert checks["counterexample-formula"].residual < FORMULA_TOL
    assert rows[0]["deviation"] == pytest.approx(2.0, abs=FORMULA_TOL)
    assert rows[1]["deviation"] == pytest.approx(0.0, abs=FORMULA_TOL)


@pytest.mark.parametrize("charge", [0.5, 2.0])
def test_counterexample_charge_scaling(charge):
    net = bgl.NetModel.twisted(n=17, charge=charge)
    _, tables = bgl.counterexample_bw(net, t_values=(0.5, 1.0))
    for row in tables["deviation"][1]:
        assert row["deviation"] == pytest.approx(
            abs(np.exp(2j * np.pi * charge * row["t"]) - 1.0),
            abs=FORMULA_TOL)


def test_counterexample_vanishes_at_zero_charge():
    net = bgl.NetModel.twisted(n=17, charge=0.0)
    _, tables = bgl.counterexample_bw(net)
    assert max(row["deviation"] for row in tables["deviation"][1]) \
        < FORMULA_TOL


def test_counterexample_leaves_wedge_theory_untouched():
    checks, _ = bgl.counterexample_bw(_model("twisted"))
    assert checks["counterexample-wedge-roundtrip"].residual \
        < _model("twisted").epsilon


def test_counterexample_roundtrip_budget_is_the_scaled_epsilon():
    net = _model("twisted")
    checks, _ = bgl.counterexample_bw(net, t_values=(0.5,), budget_scale=3.0)
    assert checks["counterexample-wedge-roundtrip"].budget == 3.0 * net.epsilon


def test_counterexample_inner_rotation_is_gauge():
    checks, _ = bgl.counterexample_bw(_model("twisted"))
    assert checks["counterexample-gauge-invariance"].residual < RESIDUAL_TOL


def test_scalar_phase_is_not_a_subspace_symmetry():
    # a bare phase twist moves H(V+); only the two-copy rotation
    # survives the gauge precondition
    net = _model("twisted")
    cone = spacetime.Region.forward_cone((0.0, 0.0))
    h_v = net.wedge_subspace(cone)
    phase = np.exp(0.7j) * np.eye(net.tiles.size)
    with pytest.raises(ValueError, match="does not preserve"):
        stdspace.symmetry_commutation_check(h_v, phase)


def test_counterexample_needs_grid_parameters():
    with pytest.raises(ValueError, match="not an integer multiple"):
        bgl.counterexample_bw(_model("twisted"), t_values=(0.33,))


# ---------------------------------------------------------------------------
# lightcone separating study
# ---------------------------------------------------------------------------


def test_lightcone_study_reproduces_the_ladder():
    checks, tables = bgl.lightcone_separating_study()
    defects = [row["defect"] for row in tables["ladder"][1]]
    assert defects == pytest.approx([0.9412, 0.8788, 0.7538], abs=LADDER_TOL)
    assert checks["cone-defect-monotone"].residual <= MONOTONE_BUDGET
    below = checks["cone-defect-below-frozen"]
    assert below.residual < below.budget


SCALED_LADDER = ((17, 2), (33, 8), (65, 32), (129, 128))


def _shapes(count):
    """Distinct cone shapes (al - bl, br - ar), in the order first met."""
    return list(dict.fromkeys((al - bl, br - ar) for al, bl, ar, br
                              in bgl._dyadic_cones(count)))


def test_scaled_ladder_decisions_are_a_decade_from_the_angle_tolerance():
    # every direction the per-shape intersections keep or drop is at
    # least a factor 10 away from ANGLE_TOL, so round-off in the wedge
    # bases cannot flip a ladder row
    kept, dropped, shapes = 0.0, 1.0, 0
    for grid, count in SCALED_LADDER:
        (p_l, p_r), origin_r, origin_l = _study_geometry(grid)
        for shape in _shapes(count):
            w_l = origin_l.phased(_phases(p_l, p_r, shape))
            sines, _ = stdspace.principal_angles(w_l.basis, origin_r.basis)
            small = sines <= stdspace.ANGLE_TOL
            kept = max(kept, sines[small].max(initial=0.0))
            dropped = min(dropped, sines[~small].min(initial=1.0))
            shapes += 1
    assert shapes == 30
    assert kept <= stdspace.ANGLE_TOL / 10
    assert dropped >= 10 * stdspace.ANGLE_TOL
    _, tables = bgl.lightcone_separating_study(ladder=SCALED_LADDER)
    assert [row["defect"] for row in tables["ladder"][1]] == [
        16 / 17, 29 / 33, 49 / 65, 65 / 129]


def _study_model(grid):
    """The lightcone study's model of one ladder level at mass 1."""
    return bgl.NetModel(
        "massive", (reps.rapidity_factor(grid, bgl.STUDY_SPACING, 1.0),))


def _study_duals(grid, count):
    """The dual of each dyadic cone of one level, from its model."""
    net = _study_model(grid)
    return [net.region_subspace_dual(
        spacetime.Region.double_cone((al, bl), (ar, br)))
        for al, bl, ar, br in bgl._dyadic_cones(count)]


def test_study_duals_match_the_direct_intersection():
    # each cone's dual, translated from its shape's dual, against the
    # intersection of its own two translated minimal wedges.  The
    # rapidity momenta reach 9.3e10 at grid 129, so a phase e^{i a.p}
    # carries about 1e-5 rad of round-off in the top modes on either
    # route; that bounds the agreement there, not the translation rule.
    for grid, count in SCALED_LADDER:
        duals = _study_duals(grid, count)
        bound = 1e-11 if grid <= 65 else 1e-6
        for pair, dual in zip(_cone_wedges(grid, count), duals):
            direct = stdspace.intersect(list(pair))
            assert dual.dim == direct.dim, grid
            assert stdspace.subspace_distance(dual, direct) <= bound, grid


#: the isotony and strong-additivity cones of the axioms report, and one
#: off-centre cone
DUAL_CONES = (spacetime.Region.double_cone((-1.0, 1.0), (-1.0, 1.0)),
              spacetime.Region.unit_double_cone(),
              spacetime.Region.double_cone((0.25, 1.5), (-0.75, 0.5)))


@pytest.mark.parametrize("method", ["exact", "halperin"])
@pytest.mark.parametrize("make", [
    lambda: bgl.NetModel.chiral_sum(n=9), lambda: bgl.NetModel.massive(n=8),
    lambda: bgl.NetModel.direct_integral(masses=2, n=8),
    lambda: bgl.NetModel.twisted(n=9), lambda: _study_model(9)],
    ids=[*bgl.MODEL_KINDS, "study"])
def test_shape_duals_match_the_direct_intersection(make, method):
    # the dual intersected once per shape at the origin and moved by its
    # W_R corner's phase, against the intersection of the cone's own two
    # minimal wedges; the study's odd rapidity grid keeps a real line in
    # every dual, so there the distance is between lines
    net = make()
    for cone in DUAL_CONES:
        dual = net.region_subspace_dual(cone, method=method)
        direct = stdspace.intersect(
            [net.wedge_subspace(w) for w in spacetime.minimal_wedges(cone)],
            method=method, max_iter=1 << 26)
        assert dual.dim == direct.dim
        assert stdspace.subspace_distance(dual, direct) <= 1e-11


def test_a_second_query_of_a_cone_intersects_nothing(monkeypatch):
    # the shape's dual is cached per method: the same cone again runs no
    # intersection, the other method runs its own
    calls = []
    intersect = stdspace.intersect
    monkeypatch.setattr(stdspace, "intersect",
                        lambda subs, method, **kw: calls.append(method)
                        or intersect(subs, method=method, **kw))
    net = _study_model(17)
    cone = spacetime.Region.double_cone((0.5, 1.0), (0.0, 0.5))
    first = net.region_subspace_dual(cone)
    assert calls == ["exact"]
    calls.clear()
    again = net.region_subspace_dual(cone)
    assert calls == []
    assert np.array_equal(first.basis, again.basis)
    net.region_subspace_dual(cone, method="halperin")
    assert calls == ["halperin"]


def _one_tile(net):
    """The model declaring one tile, of no label: every subspace, modular
    data and unitary it hands is one tile, so every primitive takes the
    dense call.  Its wedge data is the dense scatter of the factor stacks
    a tiled copy of the model builds."""
    tiled = bgl.NetModel(net.kind, net.factors, charge=net.charge)

    def subspace(region):
        return stdspace.RealSubspace(tiled.wedge_subspace(region).basis)

    def modular(region):
        # the factor tiles in slot order: the flat log Delta is theirs in
        # turn
        md = tiled.wedge_modular(region)
        return stdspace.ModularData(md.vecs, md.log_delta.ravel(), md.jc)

    one = np.arange(net.tiles.size)[None]

    def unit(*args, **kwargs):
        # the factor stack of the tiled copy, merged into the one tile
        return stdspace.merged(tiled.unit_matrix_of(*args, **kwargs),
                               tiled.tiles, one)

    # the budget reads factor 0's tile: measured, and cached, before the
    # model hides its factor tiles
    assert net.epsilon == tiled.epsilon
    net.wedge_subspace, net.wedge_modular = subspace, modular
    net.unit_matrix_of = unit
    net.labels = net.action_labels = lambda *args, **kwargs: None
    net.tiles = net.action_tiles = one
    return net


def test_one_tile_operands_take_the_dense_call():
    # the study's rapidity operands and a massive model are one tile: no
    # tiling is handed to the 170 duals of the scaled ladder, and the
    # massive model's one factor is its one tile
    duals = [d for grid, count in SCALED_LADDER
             for d in _study_duals(grid, count)]
    assert len(duals) == 170
    assert all(d.tiling[0].shape[0] == 1 for d in duals)
    net = bgl.NetModel.massive()
    w_r, _ = _origin_wedges()
    h = net.wedge_subspace(w_r)
    slots = (h.tiling[0], stdspace.modular_data(h).tiling,
             net.wedge_modular(w_r).tiling, net.action_tiles)
    assert all(rows.shape[0] == 1 for rows in slots)


@pytest.mark.parametrize("kind", ["chiralSum", "directIntegral", "twisted"])
def test_direct_sum_models_run_tiled_and_agree_with_the_dense_call(kind):
    # wedge bases, modular data and their residuals of the direct-sum
    # models are tiled; the model declaring one tile gives them to
    # round-off
    make = {"chiralSum": bgl.NetModel.chiral_sum,
            "directIntegral": bgl.NetModel.direct_integral,
            "twisted": bgl.NetModel.twisted}[kind]

    def entries(net):
        h_r = net.wedge_subspace(_origin_wedges()[0])
        return h_r, bgl.axioms_report(net)

    h_r, report = entries(make())
    n = h_r.n
    derived = (h_r.tiling[0], stdspace.symplectic_complement(h_r).tiling[0],
               stdspace.modular_data(h_r).tiling)
    assert all(rows.shape[0] > 1 for rows in derived)
    dense_h, dense = entries(_one_tile(make()))
    # the derived tilings are one tile too: the dense call is compared
    # with the tiled one, not with itself
    derived = (dense_h.tiling[0],
               stdspace.symplectic_complement(dense_h).tiling[0],
               stdspace.modular_data(dense_h).tiling,
               dense_h.phased(np.ones(n)).tiling[0])
    assert all(rows.shape[0] == 1 for rows in derived)
    # a check of the helper only: its one-tile subspace is the scatter of
    # the tiled one
    assert stdspace.subspace_distance(h_r, dense_h) < 1e-12
    for name, entry in report.items():
        assert entry.passed == dense[name].passed, name
        assert entry.residual == pytest.approx(dense[name].residual,
                                               abs=1e-11), name


#: tiles of the wedge subspaces at each kind's default: its factors
WEDGE_TILES = {"chiralSum": 2, "twisted": 4, "massive": 1,
               "directIntegral": 4}


@pytest.mark.parametrize("kind", bgl.MODEL_KINDS)
def test_every_claim_path_runs_on_the_declared_tiles(monkeypatch, kind):
    # nothing reads a tiling from zero patterns: a producer that stopped
    # handing its tiling would run dense without an error, so the tile
    # count of each claim path is pinned
    net = _model(kind)
    images = []
    transform = stdspace.RealSubspace.transform

    def recorded(h, u, tiles=None, labels=None):
        image = transform(h, u, tiles, labels)
        images.append(image.tiling[0].shape[0])
        return image

    monkeypatch.setattr(stdspace.RealSubspace, "transform", recorded)
    factors = WEDGE_TILES[kind]
    regions = list(_origin_wedges())
    if kind in bgl.DILATION_KINDS:
        regions.append(spacetime.Region.forward_cone((0.0, 0.0)))
    assert [net.wedge_subspace(r).tiling[0].shape[0]
            for r in regions] == [factors] * len(regions)
    # poincare-covariance on the factors; dilation-covariance on the
    # tiles of the group action, each factor paired with its copy on
    # twisted; modular-covariance on the factors
    bgl.axioms_report(net)
    action = 2 if kind == "twisted" else factors
    assert images == [factors] + ([action, factors]
                                  if kind in bgl.DILATION_KINDS else [])
    if kind == "twisted":
        images.clear()
        bgl.counterexample_bw(net, t_values=(0.5,))
        assert images == [2]            # the gauge check
    if kind == "chiralSum":
        # the reconstruction's cones and their modular data
        cones = [net.wedge_subspace(spacetime.Region.forward_cone(apex))
                 for apex in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0))]
        assert [stdspace.modular_data(h).tiling.shape[0]
                for h in cones] == [2, 2, 2]


#: small models of each kind, at most 33 slots per factor
SMALL_MODELS = {"chiralSum": lambda: bgl.NetModel.chiral_sum(n=17),
                "twisted": lambda: bgl.NetModel.twisted(n=9),
                "massive": lambda: bgl.NetModel.massive(n=32),
                "directIntegral": lambda: bgl.NetModel.direct_integral(n=8)}


def _dense_shaped(obj, n):
    """The attributes of ``obj`` holding an array of a dense shape: a
    basis (2n, k), a matrix (n, n), or a stack of them."""
    arrays = {name: getattr(obj, name) for name in obj.__slots__}
    return [name for name, a in arrays.items()
            if isinstance(a, np.ndarray) and a.ndim >= 2
            and (a.shape[-2] == 2 * n or a.shape[-2:] == (n, n))]


@pytest.mark.parametrize("kind", bgl.MODEL_KINDS)
def test_subspaces_and_modular_data_store_only_their_tiles(kind):
    # every cached wedge subspace and dual, every transform image and
    # every modular data holds its tile stacks and nothing of a dense
    # shape; the dense basis and B formed on request are the values dense
    # storage held, bit for bit, and the dense V and jc the scatters of
    # the stacks their producer handed
    net = SMALL_MODELS[kind]()
    n, tiles = net.tiles.size, WEDGE_TILES[kind]
    s = n // tiles
    bgl.axioms_report(net)                 # fills the wedge and dual cache
    w_r, w_l = _origin_wedges()
    h = net.wedge_subspace(w_r)
    image = h.transform(net.unit_matrix_of(translation=(0.3, -0.2)),
                        net.tiles)
    cached = [sub for sub in net._cache.values()
              if isinstance(sub, stdspace.RealSubspace)]
    assert sum(sub.dim > 0 for sub in cached) >= 4
    for sub in cached + [image]:
        rows, cols = sub.tiling
        if sub.dim:
            assert sub.tiles.shape == (tiles, 2 * s, s)
            assert tiles == 1 or not _dense_shaped(sub, n)
        else:                              # no columns: one empty tile
            assert sub.tiles.shape == (1, 2 * n, 0)
        assert not sub.tiles.flags.writeable
        basis = sub.basis
        real = stdspace._doubled(rows, n)
        assert np.array_equal(_gather(basis, real, cols), sub.tiles)
        assert np.count_nonzero(basis) == np.count_nonzero(sub.tiles)
        assert np.array_equal(sub.complex_basis(),
                              basis[:n] + 1j * basis[n:])

    for region in (w_r, w_l):
        # modular_data: the SVD stacks of the tiles of B
        h = net.wedge_subspace(region)
        md = stdspace.modular_data(h)
        u, sv, wh = np.linalg.svd(h.complex_tiles())
        pair = sv[..., ::-1]
        jc = ((u * sv[..., None, :]) @ (wh @ wh.swapaxes(-1, -2))
              / pair[..., None, :]) @ u.swapaxes(-1, -2)
        # wedge_modular: the exact factor stacks, J = diag(z)
        log_delta, vecs, z = bgl._wedge_eigen(net.factors, region)
        wanted = {md: (u, jc, 2.0 * np.log(pair / sv)),
                  net.wedge_modular(region): (
                      vecs, z[..., None] * np.eye(s), log_delta)}
        for got, (v, jc, lam) in wanted.items():
            assert got._v.shape == got._j.shape == (tiles, s, s)
            assert tiles == 1 or not _dense_shaped(got, n)
            assert np.array_equal(got._v, v)
            assert np.array_equal(got._j, jc)
            assert np.array_equal(got.log_delta, lam)
            assert np.array_equal(got.vecs, _scatter(v, net.tiles))
            assert np.array_equal(got.jc, _scatter(jc, net.tiles))


#: the model path at small n: each model's axioms, the counterexample
#: and the reconstruction
MODEL_PATH = {
    "chiralSum": lambda: bgl.axioms_report(bgl.NetModel.chiral_sum(n=9)),
    "massive": lambda: bgl.axioms_report(bgl.NetModel.massive(n=8)),
    "directIntegral": lambda: bgl.axioms_report(
        bgl.NetModel.direct_integral(masses=2, n=8)),
    "twisted": lambda: bgl.axioms_report(bgl.NetModel.twisted(n=9)),
    "counterexample": lambda: bgl.counterexample_bw(bgl.NetModel.twisted(n=9)),
    "reconstruction": lambda: bgl.reconstruct_ur(bgl.NetModel.chiral_sum(n=9)),
}


@pytest.mark.parametrize("path", list(MODEL_PATH))
def test_the_model_path_reads_no_dense_view(monkeypatch, path):
    # every operator of the checks, flows and group actions included,
    # arrives as the stack of its tiles: no dense basis, V, J, power or S
    # is formed on the way to a residual
    def dense(*args):
        raise AssertionError("a dense view was formed")

    for name in ("vecs", "jc"):
        monkeypatch.setattr(stdspace.ModularData, name, property(dense))
    for name in ("power", "delta_it", "tomita_matrix"):
        monkeypatch.setattr(stdspace.ModularData, name, dense)
    monkeypatch.setattr(stdspace.RealSubspace, "basis", property(dense))
    monkeypatch.setattr(stdspace.RealSubspace, "complex_basis", dense)
    MODEL_PATH[path]()


@pytest.mark.parametrize("ladder,calls", [(SCALED_LADDER, 30),
                                          (bgl.CONE_LADDER, 14)])
def test_study_intersects_once_per_cone_shape(monkeypatch, ladder, calls):
    # every intersection of the study is an exact one
    seen = []
    intersect = stdspace.intersect
    monkeypatch.setattr(stdspace, "intersect",
                        lambda subs, method, **kw: seen.append(method)
                        or intersect(subs, method=method, **kw))
    bgl.lightcone_separating_study(ladder=ladder)
    assert seen == ["exact"] * calls
    assert calls == sum(len(_shapes(c)) for _, c in ladder)


def test_lightcone_study_dims_track_the_cone_count():
    _, tables = bgl.lightcone_separating_study(ladder=((17, 2), (33, 8)))
    for row in tables["ladder"][1]:
        assert row["sum_dim"] == row["cones"]


def test_lightcone_study_restarts_the_ladder_for_each_mass():
    # a repeated mass starts its own ladder: its coarse level after the
    # previous finest level is no rise
    checks, _ = bgl.lightcone_separating_study(masses=(1.0, 1.0),
                                               ladder=((17, 2), (33, 8)))
    assert checks["cone-defect-monotone"].residual == 0.0


def test_lightcone_study_zero_cones_gives_full_defect():
    _, tables = bgl.lightcone_separating_study(ladder=((17, 0),))
    [row] = tables["ladder"][1]
    assert row["defect"] == 1.0
    assert row["sum_dim"] == 0


def test_lightcone_study_rejects_empty_ladder():
    with pytest.raises(ValueError, match="empty refinement ladder"):
        bgl.lightcone_separating_study(ladder=())
    with pytest.raises(ValueError, match="nonnegative"):
        bgl.lightcone_separating_study(ladder=((17, -1),))


def test_eigenpair_route_agrees_with_modular_route():
    # same wedge, two constructions: the closed per-pair formula behind
    # wedge_subspace and wedge_flow, against the kernel of S - 1 and the
    # flow of the dense modular data
    corner = (0.3, -0.2)
    for kind in bgl.MODEL_KINDS:
        net = _model(kind)
        regions = [spacetime.Region.wedge_right(corner),
                   spacetime.Region.wedge_left(corner)]
        if kind in ("chiralSum", "twisted"):
            regions.append(spacetime.Region.forward_cone((0.0, 0.0)))
        for region in regions:
            md = net.wedge_modular(region)
            assert stdspace.subspace_distance(
                net.wedge_subspace(region),
                stdspace.subspace_from_modular(md)) < 1e-10, (kind, region)
            # the flow of a dense eigh of Delta
            w, v = np.linalg.eigh(md.power(1.0))
            for t in (0.37, -1.1):
                dense = (v * np.exp(1j * t * np.log(w))) @ v.conj().T
                dev = np.linalg.norm(
                    _scatter(net.wedge_flow(region, t), net.tiles) - dense, 2)
                assert dev < bgl.BLOCK_TOL, (kind, region, t)


@pytest.mark.parametrize("n", [8, 9])
def test_eigenpair_basis_keeps_the_pair_column_order(n):
    # reference: one column per self-paired mode, two per pair, in the
    # order the pairs are first met
    kap = -bgl._kappa(n, 0.4)
    cols = bgl._dft(n).conj().T
    pair = [(n - m) % n for m in range(n)]
    ref, seen = [], set()
    for m in range(n):
        if m in seen:
            continue
        mp = pair[m]
        seen.update((m, mp))
        if mp == m:
            ref.append(cols[:, m])
            continue
        if kap[m] < 0:
            m, mp = mp, m
        damp = math.exp(-math.pi * abs(kap[m]))
        v1 = damp * cols[:, m] + cols[:, mp]
        v2 = 1j * (-damp * cols[:, m] + cols[:, mp])
        ref += [v1 / np.linalg.norm(v1), v2 / np.linalg.norm(v2)]
    ref = np.array(ref).T
    q, r = np.linalg.qr(np.vstack([ref.real, ref.imag]))
    got = bgl._eigenpair_fix(np.arange(n)[None], _TWO_PI * kap[None],
                             cols[None])
    assert np.max(np.abs(got.basis - q * np.sign(np.diag(r)))) < 1e-14


def test_study_intersections_are_centrally_supported():
    _, tables = bgl.lightcone_separating_study(ladder=((33, 1),))
    [row] = tables["ladder"][1]
    assert row["sum_dim"] == 1


# ---------------------------------------------------------------------------
# tile labels
# ---------------------------------------------------------------------------


#: the apexes at which the model commands place wedges and cones
COMMAND_APEXES = ((0.0, 0.0), (0.0, 1.0), (1.0, 0.0), (1.0, 1.0),
                  (0.25, -0.4))


def _sound(labels, stack):
    """Assert that the tiles of ``stack`` (tile axis -3) that share a
    label are bitwise equal; the number of such pairs."""
    pairs = 0
    for i, j in itertools.combinations(range(len(labels)), 2):
        if labels[i] == labels[j]:
            assert np.array_equal(stack[..., i, :, :], stack[..., j, :, :]), (
                f"tiles {i} and {j} share a label and differ")
            pairs += 1
    return pairs


def _record_stacks(md):
    return md._v, md._j, md.log_delta[..., None]


@pytest.mark.parametrize("kind", bgl.MODEL_KINDS)
def test_tiles_of_one_label_are_bitwise_equal(kind):
    # every label the model declares, on the regions and operators its
    # commands use, against tiles computed one by one: the exact eigen
    # form, the eigenpair bases, their translates, recomputed records,
    # complements, flows and the group action; and the labelled route
    # hands the same arrays as the tile-by-tile one
    net = SMALL_MODELS[kind]()
    h = net.factors[0].h
    makes = [spacetime.Region.wedge_right, spacetime.Region.wedge_left]
    if kind in bgl.DILATION_KINDS:
        makes.append(spacetime.Region.forward_cone)
    pairs = 0
    for apex, make in itertools.product(COMMAND_APEXES, makes):
        region = make(apex)
        orients, _ = bgl._wedge_geometry(region)
        log_delta, vecs, z = bgl._wedge_eigen(net.factors, region)
        labels = net.labels(orients, apex)
        for stack in (vecs, z[..., None], log_delta[..., None]):
            pairs += _sound(labels, stack)
        md = net.wedge_modular(region)
        assert md.labels == labels
        # the eigenpair basis at 0 and its translate, with no labels
        at_0, vecs_0, _ = bgl._wedge_eigen(net.factors, make((0.0, 0.0)))
        one_by_one = bgl._eigenpair_fix(net.tiles, at_0, vecs_0).phased(
            reps.translation_phases(net.factors, *apex))
        sub = net.wedge_subspace(region)
        assert np.array_equal(sub.tiles, one_by_one.tiles)
        pairs += _sound(sub.labels, one_by_one.tiles)
        got, want = stdspace.modular_data(sub), stdspace.modular_data(
            one_by_one)
        for x, y in zip(_record_stacks(got), _record_stacks(want)):
            assert np.array_equal(x, y)
            pairs += _sound(got.labels, y)
        got = stdspace.symplectic_complement(sub).tiles
        want = stdspace.symplectic_complement(one_by_one).tiles
        assert np.array_equal(got, want)
        pairs += _sound(sub.labels, want)
        unlabelled = stdspace.ModularData(md._v, md.log_delta, md._j,
                                          tiling=md.tiling)
        for t in (0.0, h / _TWO_PI):
            got = md.power_tiles(1j * t)
            want = unlabelled.power_tiles(1j * t)
            assert np.array_equal(got, want)
            pairs += _sound(md.labels, want)
        pairs += _sound(net.labels(translation=apex),
                        net.unit_matrix_of(translation=apex))
    pairs += _sound(net.labels(dilation=(h, -h)),
                    net.unit_matrix_of(dilation=(h, -h)))
    if kind in bgl.DILATION_KINDS:
        pairs += _sound(net.action_labels(dilation=(h, h)),
                        net.implemented_dilation(h))
    # the duals the axioms read, against the intersection of the origin
    # wedges with their labels dropped
    origin = [stdspace.RealSubspace(w.tiles, w.tiling) for w in (
        net.wedge_subspace(r) for r in _origin_wedges())]
    for cone in (spacetime.Region.double_cone((-1.0, 1.0), (-1.0, 1.0)),
                 spacetime.Region.unit_double_cone()):
        w_r, w_l = spacetime.minimal_wedges(cone)
        corner, far = spacetime.wedge_corner(w_r), spacetime.wedge_corner(w_l)
        shape = reps.translation_phases(net.factors, far[0] - corner[0],
                                        far[1] - corner[1])
        one_by_one = stdspace.intersect(
            [origin[0], origin[1].phased(shape)]).phased(
                reps.translation_phases(net.factors, *corner))
        dual = net.region_subspace_dual(cone)
        assert np.array_equal(dual.tiles, one_by_one.tiles)
        pairs += _sound(dual.labels or (), one_by_one.tiles)
    # twisted's copies, chiralSum's factors on the cone at 0 and the
    # direct integral's mass fibres at 0 share their labels
    assert pairs > 0 or kind == "massive"


def test_a_planted_label_fails_the_soundness_check():
    # W_R's left and right tiles declared equal: they differ
    net = bgl.NetModel.chiral_sum(n=9)
    h_r = net.wedge_subspace(spacetime.Region.wedge_right())
    with pytest.raises(AssertionError, match="share a label"):
        _sound(("one", "one"), h_r.tiles)


def test_labels_skip_the_copies_in_twisted_axioms(monkeypatch):
    # the matrices handed to np.linalg.svd in twisted n = 9 axioms: the
    # four factor tiles are two classes on every wedge and one on the
    # cone at 0, so the modular data of V+ runs one tile, not four
    net = bgl.NetModel.twisted(n=9)
    handed = []
    svd = np.linalg.svd

    def counted(a, *args, **kwargs):
        handed.append(int(np.prod(np.shape(a)[:-2])))
        return svd(a, *args, **kwargs)

    monkeypatch.setattr(np.linalg, "svd", counted)
    bgl.axioms_report(net)
    assert (len(handed), sum(handed)) == (23, 37)     # 71 tiles unlabelled
    handed.clear()
    stdspace.modular_data(net.wedge_subspace(
        spacetime.Region.forward_cone((0.0, 0.0))))
    assert handed == [1]


def test_wedge_modular_is_cached_beside_the_subspaces():
    net = bgl.NetModel.twisted(n=9)
    w_r = spacetime.Region.wedge_right()
    md = net.wedge_modular(w_r)
    h_r = net.wedge_subspace(w_r)
    assert net.wedge_modular(w_r) is md
    assert net.wedge_subspace(w_r) is h_r
    assert isinstance(h_r, stdspace.RealSubspace)
    assert net.wedge_modular(spacetime.Region.wedge_left()) is not md
    # a dual cone cached next to them leaves both as they are
    net.region_subspace_dual(spacetime.Region.unit_double_cone())
    assert net.wedge_modular(w_r) is md and net.wedge_subspace(w_r) is h_r


# ---------------------------------------------------------------------------
# closed-form spectral checks
# ---------------------------------------------------------------------------


def test_spin_statistics_integer_pairs_pass():
    worst = bgl.spin_statistics_spectrum_check(
        [(0.5, 1.5), (2.0, 5.0), (0.25, 3.25), (1.0, 1.0)])
    assert worst < 1e-12


def test_spin_statistics_fractional_pair_fails():
    worst = bgl.spin_statistics_spectrum_check([(0.5, 1.0)])
    assert worst == pytest.approx(0.5, abs=1e-12)


def test_spin_statistics_empty_battery_is_vacuous():
    assert bgl.spin_statistics_spectrum_check([]) == 0.0


def test_trace_class_closed_form_at_log_two():
    value, closed, diff, _ = bgl.trace_class_partition(math.log(2.0))
    assert closed == 1.0
    assert diff < 1e-15


@pytest.mark.parametrize("beta", [0.3, 1.0, 2.7])
def test_trace_class_truncation_error_bounded(beta):
    value, closed, diff, tail = bgl.trace_class_partition(beta, n_terms=80)
    assert diff <= tail + 1e-30
    assert value == pytest.approx(closed, abs=2 * tail + 1e-15)


def test_trace_class_rejects_nonpositive_temperature():
    for beta in (0.0, -1.5):
        with pytest.raises(ValueError, match="positive"):
            bgl.trace_class_partition(beta)
