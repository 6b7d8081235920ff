"""Tests for the region-indexed nets of standard subspaces."""

import functools
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
    assert net.parent.n == total
    assert net.parent.real_dim == 2 * total


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


def test_model_budget_floor_and_magnitude():
    net = _model("chiralSum")
    assert net.epsilon >= bgl.BUDGET_FACTOR * bgl.BUDGET_FLOOR
    assert net.epsilon < 1e-8


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
    n, h = 11, 0.9
    block = bgl._halfline_block(n, h, orient)
    step = block.flow(h / _TWO_PI)
    assert np.linalg.norm(step - bgl._roll(n, shift), 2) < EXACT_TOL


def test_halfline_block_is_a_valid_eigen_form():
    block = bgl._halfline_block(13, 1.1, +1).translate(
        np.exp(1j * np.linspace(0, 2, 13)))
    # the eigenvectors are unitary and J exchanges the paired columns
    vecs = block.vecs
    assert np.linalg.norm(vecs.conj().T @ vecs - np.eye(13), 2) < 1e-13
    assert np.allclose(block.z[:, None] * vecs.conj(), vecs[:, block.pair],
                       atol=1e-14)
    assert np.array_equal(block.kap[block.pair], -block.kap)
    # so the block is modular data as it stands, with no dense Delta
    md = stdspace.ModularData(stdspace.ComplexSpace(13), vecs,
                              _TWO_PI * block.kap, np.diag(block.z))
    assert np.array_equal(md.log_delta, np.sort(_TWO_PI * block.kap))


def test_phased_block_balances_j_and_delta():
    # spacing keeps cond(Delta) ~ 1e5 so the inverse is trustworthy
    n = 9
    phases = np.exp(1j * 0.37 * np.arange(n) ** 1.5)
    block = bgl._halfline_block(n, 3.0, +1).translate(phases)
    delta = block._apply(np.exp(_TWO_PI * block.kap))
    j_mat = np.diag(block.z)
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
        assert net.wedge_subspace(region).dim == net.parent.n


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
    assert bgl._modular_roundtrip(md, h) < net.epsilon
    wrong = stdspace.ModularData(net.parent, md.vecs, 1.01 * md.log_delta,
                                 md.jc)
    want = (np.linalg.norm(wrong.power(1.0) - md.power(1.0), 2)
            / wrong.delta_norm)
    assert want > 0.01
    assert bgl._modular_roundtrip(wrong, h) == pytest.approx(want, rel=1e-9)
    turned = stdspace.ModularData(net.parent, md.vecs, md.log_delta,
                                  np.exp(0.3j) * md.jc)
    assert bgl._modular_roundtrip(turned, h) == pytest.approx(
        abs(np.exp(0.3j) - 1.0), rel=1e-9)


@pytest.mark.parametrize("kind", bgl.MODEL_KINDS)
def test_wedge_modular_takes_the_block_eigenpair(monkeypatch, kind):
    # the block's spectrum and eigenvectors are exact, so neither the
    # validation nor the modular flow diagonalises the dense Delta
    net = _model(kind)
    region = spacetime.Region.wedge_right((0.3, -0.2))
    kap = net.wedge_block(region).kap

    def forbidden(*args, **kwargs):
        raise AssertionError("eigensolve inside wedge_modular")

    monkeypatch.setattr(np.linalg, "eigh", forbidden)
    monkeypatch.setattr(np.linalg, "eigvalsh", forbidden)
    md = net.wedge_modular(region)
    flow = md.delta_it(0.37)
    monkeypatch.undo()
    top = math.exp(_TWO_PI * kap.max())
    assert md.delta_norm == pytest.approx(top, rel=1e-12)
    dense = md.power(1.0)
    assert np.linalg.eigvalsh(dense)[-1] == pytest.approx(top, rel=1e-12)
    assert np.linalg.norm(flow - net.wedge_flow(region, 0.37), 2) < 1e-12


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
    assert stdspace.subspace_distance(
        moved, net.wedge_subspace(w_r).transform(u)) < 1e-11


@pytest.mark.parametrize("kind", bgl.MODEL_KINDS)
def test_unit_matrix_of_translation_is_orthogonal(kind):
    net = _model(kind)
    u = net.unit_matrix_of(translation=(0.31, -0.08))
    # unitary, so its real form is orthogonal
    assert np.linalg.norm(u.conj().T @ u - np.eye(u.shape[0]), 2) < 1e-11


def _unit_matrix_one_column_at_a_time(net, translation, dilation):
    return np.column_stack([reps.apply(net.factors, e, translation, dilation)
                            for e in np.eye(net.parent.n)])


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
    for translation, dilation in elements:
        got = net.unit_matrix_of(translation, dilation)
        want = _unit_matrix_one_column_at_a_time(net, translation, dilation)
        assert np.array_equal(got, want)
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
        dev = np.max(np.abs(np.diag(phases)
                            - net.unit_matrix_of(translation=apex)))
        assert dev < 1e-12
    # positivity of energy: P_L and P_R are nonnegative on every block
    for f in net.factors:
        assert np.all(f.p_l >= 0) and np.all(f.p_r >= 0)
    # orientation: each block's W_R flow is the implemented boost
    s = 2 * net.factors[0].h
    w_r, _ = _origin_wedges()
    assert np.linalg.norm(net.wedge_flow(w_r, s / _TWO_PI)
                          - net.unit_matrix_of(dilation=(s, -s)), 2) < 1e-9


@pytest.mark.parametrize("ctor", [bgl.NetModel.chiral_sum,
                                  bgl.NetModel.twisted])
def test_implemented_grid_dilation_is_a_phased_permutation_at_n_129(ctor):
    # at n = 129 and h = pi the momenta span e^{+-201}; the dilation by a
    # grid step moves slots and forms no ratio of their momenta, so it
    # stays finite and unitary
    net = ctor(n=129)
    h = net.factors[0].h
    for s in (h, -h):
        u = net.implemented_dilation(s)
        assert np.all(np.isfinite(u))
        one = np.abs(np.abs(u) - 1.0) <= 1e-15
        assert np.all(one.sum(axis=0) == 1) and np.all(one.sum(axis=1) == 1)


@pytest.mark.parametrize("kind", ["chiralSum", "twisted"])
def test_implemented_dilation_dilates_both_lightrays(kind):
    # the dilation by s is (sigma_L, sigma_R) = (s, s), followed on the
    # twisted model by the inner rotation V(q s)
    net = _model(kind)
    s = -2 * net.factors[0].h
    want = reps.apply(net.factors, np.eye(net.parent.n), dilation=(s, s))
    if kind == "twisted":
        want = want @ net.inner_rotation(net.charge * s)
    assert np.array_equal(net.implemented_dilation(s), want)


def test_apply_takes_a_trailing_column_axis():
    net = _model("directIntegral")
    rng = np.random.default_rng(5)
    s = 2 * net.factors[0].h
    g = (0.2, 0.0), (s, -s)
    cols = rng.normal(size=(net.parent.n, 3)) \
        + 1j * rng.normal(size=(net.parent.n, 3))
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
    dev = np.linalg.norm(net.wedge_flow(w_r, t)
                         - net.unit_matrix_of(dilation=(h, -h)), 2)
    assert dev < EXACT_TOL


def test_cone_flow_matches_implemented_dilations():
    net = _model("chiralSum")
    h = net.factors[0].h
    t = h / _TWO_PI
    cone = spacetime.Region.forward_cone((0.0, 0.0))
    dev = np.linalg.norm(net.wedge_flow(cone, t)
                         - net.unit_matrix_of(dilation=(-h, -h)), 2)
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
    assert np.linalg.norm(net.wedge_flow(w_r, t)
                          - net.unit_matrix_of(dilation=(s, -s)), 2) < 1e-9
    assert np.linalg.norm(net.wedge_flow(w_l, t)
                          - net.unit_matrix_of(dilation=(-s, s)), 2) < 1e-9


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
    # against the eigenpair formula on the translated block
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
        block = net.wedge_block(region).subspace(net.parent)
        assert stdspace.subspace_distance(
            net.wedge_subspace(region), block) < 1e-12, (kind, region)


def _study_geometry(grid, spacing=bgl.STUDY_SPACING):
    """Lightray momenta (p_L, p_R) and origin bases (W_R, W_L) of one
    lightcone-study level at mass 1."""
    parent = stdspace.ComplexSpace(grid)
    theta = (np.arange(grid) - (grid - 1) / 2.0) * spacing
    p_l, p_r = np.exp(theta) / math.sqrt(2.0), np.exp(-theta) / math.sqrt(2.0)
    return ((p_l, p_r),
            bgl._halfline_block(grid, spacing, -1).subspace(parent),
            bgl._halfline_block(grid, spacing, +1).subspace(parent))


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
    grid, spacing = 33, bgl.STUDY_SPACING
    parent = stdspace.ComplexSpace(grid)
    (p_l, p_r), _, _ = _study_geometry(grid)
    pairs = _cone_wedges(grid, 8)
    for (al, bl, ar, br), (w_r, w_l) in zip(bgl._dyadic_cones(8), pairs):
        for sub, orient, corner in ((w_r, -1, (bl, ar)), (w_l, +1, (al, br))):
            block = bgl._halfline_block(grid, spacing, orient).translate(
                _phases(p_l, p_r, corner))
            assert stdspace.subspace_distance(
                sub, block.subspace(parent)) < 1e-12, corner


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
    # lightcone duals come from the lightcone study's per-shape route
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
                net.parent, np.eye(net.parent.real_dim)[:, :1])
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
    rec = bgl.reconstruct_ur(_model("chiralSum"))
    assert rec.max_identity < RECON_TOL
    assert rec.identity_at_zero < EXACT_TOL


def test_reconstruction_flows_commute():
    rec = bgl.reconstruct_ur(_model("chiralSum"))
    assert rec.max_commutator < RECON_TOL


def test_reconstruction_left_factor_cancels():
    rec = bgl.reconstruct_ur(_model("chiralSum"), t_values=(0.5, 1.0))
    assert max(rec.left_cancellation) < RECON_TOL


@pytest.mark.parametrize("n", [33, 129])
def test_reconstruction_regions_are_translated_forward_cones(n):
    # the per-factor designation the regions replace: a half-line factor
    # (0, oo) is the origin block, a unit-interval factor (0, 1) the
    # half-line (1, oo); the two factor subspaces are summed blockwise
    net = bgl.NetModel.chiral_sum(n=n)

    def factor(f, shift):
        block = bgl._halfline_block(f.n, f.h, +1).translate(
            np.exp(1j * shift * (f.p_l + f.p_r)))
        return block.subspace(stdspace.ComplexSpace(f.n))

    for apex in ((0.0, 1.0), (1.0, 0.0), (1.0, 1.0)):
        designated = bgl.assemble_blockwise(
            [factor(f, a) for f, a in zip(net.factors, apex)])
        cone = net.wedge_subspace(spacetime.Region.forward_cone(apex))
        assert stdspace.subspace_distance(designated, cone) <= 1e-13, apex


def test_reconstruction_roll_is_the_permutation_product():
    rng = np.random.default_rng(3)
    mat = rng.normal(size=(12, 12)) + 1j * rng.normal(size=(12, 12))
    for cols, k in ((slice(0, 5), 2), (slice(5, 12), -3)):
        blocks = [np.eye(cols.start), bgl._roll(cols.stop - cols.start, k),
                  np.eye(12 - cols.stop)]
        want = mat @ bgl._direct_sum([b for b in blocks if b.size])
        assert np.array_equal(bgl._roll_columns(mat.copy(), cols, k), want)


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
    report = bgl.counterexample_bw(_model("twisted"))
    assert report.charge == 1.0
    assert report.max_formula_residual < FORMULA_TOL
    assert report.deviations[0] == pytest.approx(2.0, abs=FORMULA_TOL)
    assert report.deviations[1] == pytest.approx(0.0, abs=FORMULA_TOL)


@pytest.mark.parametrize("charge", [0.5, 2.0])
def test_counterexample_charge_scaling(charge):
    net = bgl.NetModel.twisted(n=17, charge=charge)
    report = bgl.counterexample_bw(net, t_values=(0.5, 1.0))
    for t, dev in zip(report.t_values, report.deviations):
        assert dev == pytest.approx(
            abs(np.exp(2j * np.pi * charge * t) - 1.0), abs=FORMULA_TOL)


def test_counterexample_vanishes_at_zero_charge():
    net = bgl.NetModel.twisted(n=17, charge=0.0)
    report = bgl.counterexample_bw(net)
    assert max(report.deviations) < FORMULA_TOL


def test_counterexample_leaves_wedge_theory_untouched():
    report = bgl.counterexample_bw(_model("twisted"))
    assert report.wedge_roundtrip < _model("twisted").epsilon


def test_counterexample_inner_rotation_is_gauge():
    report = bgl.counterexample_bw(_model("twisted"))
    assert report.gauge_residual < RESIDUAL_TOL


def test_scalar_phase_is_not_a_subspace_symmetry():
    # a bare phase twist moves H(V+); only the two-copy rotation
    # survives the gauge precondition
    net = _model("twisted")
    cone = spacetime.Region.forward_cone((0.0, 0.0))
    h_v = net.wedge_subspace(cone)
    phase = np.exp(0.7j) * np.eye(net.parent.n)
    with pytest.raises(ValueError, match="does not preserve"):
        stdspace.symmetry_commutation_check(h_v, phase)


def test_counterexample_needs_grid_parameters():
    with pytest.raises(ValueError, match="not an integer multiple"):
        bgl.counterexample_bw(_model("twisted"), t_values=(0.33,))


# ---------------------------------------------------------------------------
# lightcone separating study
# ---------------------------------------------------------------------------


def test_lightcone_study_reproduces_the_ladder():
    study = bgl.lightcone_separating_study()
    defects = [row.defect for row in study.rows]
    assert defects == pytest.approx([0.9412, 0.8788, 0.7538], abs=LADDER_TOL)
    assert study.max_rise <= MONOTONE_BUDGET
    assert study.below_frozen


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
    study = bgl.lightcone_separating_study(ladder=SCALED_LADDER)
    assert [row.defect for row in study.rows] == [16 / 17, 29 / 33,
                                                  49 / 65, 65 / 129]


def test_translated_cone_duals_match_the_direct_intersection():
    # each cone's dual, translated from its shape's dual, against the
    # intersection of its own two translated minimal wedges.  The
    # rapidity momenta reach 9.3e10 at grid 129, so a phase e^{i a.p}
    # carries about 1e-5 rad of round-off in the top modes on either
    # route; that bounds the agreement there, not the translation rule.
    for grid, count in SCALED_LADDER:
        duals = bgl._cone_duals(1.0, grid, count, bgl.STUDY_SPACING)
        bound = 1e-11 if grid <= 65 else 1e-6
        for pair, dual in zip(_cone_wedges(grid, count), duals):
            direct = stdspace.intersect(list(pair))
            assert dual.dim == direct.dim, grid
            assert stdspace.subspace_distance(dual, direct) <= bound, grid


def _scaled_duals_and_massive_data():
    duals = [d.basis for grid, count in SCALED_LADDER
             for d in bgl._cone_duals(1.0, grid, count, bgl.STUDY_SPACING)]
    net = bgl.NetModel.massive()
    w_r, _ = _origin_wedges()
    md = stdspace.modular_data(net.wedge_subspace(w_r))
    block = net.wedge_modular(w_r)
    return duals, [md.tomita_matrix(), md.vecs, md.log_delta, md.jc,
                   block.vecs, block.log_delta, block.jc]


def _tiling_off(monkeypatch):
    """Make every operand one tile, as if none decoupled: every tiling
    a subspace or its modular data keeps is read by ``_tiles`` or built
    from a tiling it read."""
    monkeypatch.setattr(stdspace, "_decoupled", lambda ops, square: None)


def test_one_tile_operands_take_the_dense_call(monkeypatch):
    # the study's rapidity operands and a massive model are one tile: the
    # 170 duals of the scaled ladder and the massive modular data are the
    # arrays that result with tiling switched off
    duals, data = _scaled_duals_and_massive_data()
    _tiling_off(monkeypatch)
    dense_duals, dense_data = _scaled_duals_and_massive_data()
    assert len(duals) == len(dense_duals) == 170
    assert all(np.array_equal(a, b) for a, b in zip(duals, dense_duals))
    assert all(np.array_equal(a, b) for a, b in zip(data, dense_data))


@pytest.mark.parametrize("kind", ["chiralSum", "directIntegral", "twisted"])
def test_direct_sum_models_run_tiled_and_agree_with_the_dense_call(
        monkeypatch, kind):
    # wedge bases, modular data and their residuals of the direct-sum
    # models are tiled; the dense call gives them to round-off
    def entries():
        net = {"chiralSum": bgl.NetModel.chiral_sum,
               "directIntegral": bgl.NetModel.direct_integral,
               "twisted": bgl.NetModel.twisted}[kind]()
        h_r = net.wedge_subspace(_origin_wedges()[0])
        return h_r, bgl.axioms_report(net)

    h_r, report = entries()
    n = h_r.parent.n
    assert stdspace._tiles(h_r.basis[:n] + 1j * h_r.basis[n:])[0].shape[0] > 1
    derived = (h_r.tiling, stdspace.symplectic_complement(h_r).tiling,
               stdspace.modular_data(h_r)._tiling)
    assert all(rows.shape[0] > 1 for rows, _ in derived)
    _tiling_off(monkeypatch)
    dense_h, dense = entries()
    # the kept tilings, the derived ones included, are off too: the
    # dense call is compared with the tiled one, not with itself
    derived = (dense_h.tiling, stdspace.symplectic_complement(dense_h).tiling,
               stdspace.modular_data(dense_h)._tiling,
               dense_h.phased(np.ones(n)).tiling)
    assert all(rows.shape[0] == 1 for rows, _ in derived)
    assert stdspace.subspace_distance(h_r, dense_h) < 1e-12
    for name, entry in report.items():
        assert entry.passed == dense[name].passed, name
        assert entry.residual == pytest.approx(dense[name].residual,
                                               abs=1e-11), name


@pytest.mark.parametrize("ladder,calls", [(SCALED_LADDER, 30),
                                          (bgl.CONE_LADDER, 14)])
def test_study_intersects_once_per_cone_shape(monkeypatch, ladder, calls):
    seen = []
    intersect = stdspace.intersect
    monkeypatch.setattr(stdspace, "intersect",
                        lambda subs, **kw: seen.append(1)
                        or intersect(subs, **kw))
    bgl.lightcone_separating_study(ladder=ladder)
    assert len(seen) == calls == sum(len(_shapes(c)) for _, c in ladder)


def test_lightcone_study_dims_track_the_cone_count():
    study = bgl.lightcone_separating_study(ladder=((17, 2), (33, 8)))
    for row in study.rows:
        assert row.sum_dim == row.cones


def test_lightcone_study_restarts_the_ladder_for_each_mass():
    # a repeated mass starts its own ladder: its coarse level after the
    # previous finest level is no rise
    study = bgl.lightcone_separating_study(masses=(1.0, 1.0),
                                           ladder=((17, 2), (33, 8)))
    assert study.max_rise == 0.0


def test_lightcone_study_zero_cones_gives_full_defect():
    study = bgl.lightcone_separating_study(ladder=((17, 0),))
    assert study.rows[0].defect == 1.0
    assert study.rows[0].sum_dim == 0


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
                dev = np.linalg.norm(net.wedge_flow(region, t) - dense, 2)
                assert dev < bgl.BLOCK_TOL, (kind, region, t)


@pytest.mark.parametrize("n", [8, 9])
def test_eigenpair_basis_keeps_the_pair_column_order(n):
    # reference: one column per self-paired mode, two per pair, in the
    # order the pairs are first met
    parent = stdspace.ComplexSpace(n)
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
    got = bgl._eigenpair_fix(parent, kap, cols, pair)
    assert np.max(np.abs(got.basis - q * np.sign(np.diag(r)))) < 1e-14


def test_study_intersections_are_centrally_supported():
    study = bgl.lightcone_separating_study(ladder=((33, 1),))
    assert study.rows[0].sum_dim == 1


# ---------------------------------------------------------------------------
# closed-form spectral checks
# ---------------------------------------------------------------------------


def test_spin_statistics_integer_pairs_pass():
    ok, worst = bgl.spin_statistics_spectrum_check(
        [(0.5, 1.5), (2.0, 5.0), (0.25, 3.25), (1.0, 1.0)])
    assert ok and worst < 1e-12


def test_spin_statistics_fractional_pair_fails():
    ok, worst = bgl.spin_statistics_spectrum_check([(0.5, 1.0)])
    assert not ok
    assert worst == pytest.approx(0.5, abs=1e-12)


def test_spin_statistics_empty_battery_is_vacuous():
    ok, worst = bgl.spin_statistics_spectrum_check([])
    assert ok and worst == 0.0


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
