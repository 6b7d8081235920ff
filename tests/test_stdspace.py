"""Tests for standard subspaces, modular data and subspace lattices."""

import math
import re
import tracemalloc

import numpy as np
import pytest
import scipy.linalg as sla
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose
from realform import real_antilinear, real_linear

from modnet import bgl, spacetime, stdspace
from modnet.stdspace import (
    RANK_REL_TOL,
    ConditioningWarning,
    HalperinNonConvergence,
    ModularData,
    RealSubspace,
    _orthonormal_basis,
    containment_gap,
    intersect,
    make_subspace,
    modular_data,
    modular_roundtrip,
    principal_angles,
    standardness,
    subspace_distance,
    subspace_from_modular,
    sum_closure,
    symmetry_commutation_check,
    symplectic_complement,
)

ATOL = 1e-10
LOOSE = 1e-8


def real_slice(n):
    """The subspace R^n of C^n (conjugation-fixed vectors)."""
    return make_subspace(np.eye(n))


def random_subspace(rng, n, k):
    return make_subspace(rng.normal(size=(k, n))
                         + 1j * rng.normal(size=(k, n)))


def random_standard(rng, n):
    """Generic n-dimensional real subspaces are standard."""
    while True:
        h = random_subspace(rng, n, n)
        if standardness(h).standard:
            return h


def random_modular_pair(rng, n):
    """Random admissible (J, Delta) with paired eigenvalues (lam, 1/lam)."""
    m = n // 2
    lam = np.exp(rng.uniform(-1.5, 1.5, size=m))
    d_eigs = np.concatenate([lam, 1.0 / lam])
    perm = np.zeros((n, n))
    perm[:m, m:] = np.eye(m)
    perm[m:, :m] = np.eye(m)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    v, _ = np.linalg.qr(z)
    return ModularData(v, np.log(d_eigs), v @ perm @ v.T)


def _projector(h):
    """The orthogonal projection onto H in R^{2n}."""
    return h.basis @ h.basis.T


def times_i(n):
    """Real form of the multiplication by i on C^n."""
    return real_linear(1j * np.eye(n))


# ---------------------------------------------------------------------------
# the real form of C^n
# ---------------------------------------------------------------------------


def test_imaginary_form_identity():
    # Im<x, y> = -Re<x, i y>: the real pairing of the bases of the real
    # lines through x and i y, the form whose annihilator the symplectic
    # complement is
    rng = np.random.default_rng(2)
    for _ in range(10):
        x = rng.normal(size=5) + 1j * rng.normal(size=5)
        y = rng.normal(size=5) + 1j * rng.normal(size=5)
        scale = np.linalg.norm(x) * np.linalg.norm(y)
        hx, hy = (RealSubspace.from_complex(v[:, None] / np.linalg.norm(v))
                  for v in (x, 1j * y))
        im = -scale * (hx.basis.T @ hy.basis)[0, 0]
        assert_allclose(im, np.vdot(x, y).imag, atol=ATOL)
        assert_allclose(hx.complex_basis()[:, 0] * np.linalg.norm(x), x,
                        atol=ATOL)


# ---------------------------------------------------------------------------
# building subspaces
# ---------------------------------------------------------------------------


def test_make_subspace_zero_vector():
    h = make_subspace([np.zeros(3)])
    assert h.dim == 0
    assert make_subspace(np.zeros((0, 3))).dim == 0


def test_make_subspace_complex_line():
    e1 = np.array([1.0, 0.0])
    h = make_subspace([e1, 1j * e1])
    assert h.dim == 2


def test_make_subspace_generic_rank():
    rng = np.random.default_rng(5)
    vecs = rng.normal(size=(50, 10)) + 1j * rng.normal(size=(50, 10))
    assert make_subspace(list(vecs)).dim == 20


def test_subspace_validation():
    with pytest.raises(ValueError):
        RealSubspace(np.ones((4, 2)))
    with pytest.raises(ValueError):
        RealSubspace(np.eye(3))
    # a NaN Gram error is no error within tolerance
    with pytest.raises(ValueError, match="orthonormal"):
        RealSubspace(np.full((4, 2), np.nan))
    h = RealSubspace(np.eye(4)[:, :2])
    op = np.eye(2, dtype=complex)
    op[1, 0] = np.nan
    with pytest.raises(ValueError):
        h.transform(op)


def test_n_is_the_slots_of_the_tiling():
    # a subspace or modular record states n once, by its arrays: the
    # slots of a handed tiling, else the rows of its one tile
    rng = np.random.default_rng(5)
    h = _direct_sum_basis(rng, 2, 2, 2, rng.permutation(4),
                          rng.permutation(4))
    assert h.n == h.tiling[0].size == 4
    assert h.basis.shape == (8, 4)
    assert standardness(h).cyclic
    assert modular_data(h).n == 4
    net, wedge = _tiled_chiral_wedge()
    assert wedge.n == net.tiles.size == 18
    assert net.wedge_modular(spacetime.Region.wedge_right()).n == 18
    one = RealSubspace(np.eye(10)[:, :3])
    assert one.n == 5 and one.tiling[0].shape == (1, 5)
    assert ModularData(np.eye(3), np.zeros(3), np.eye(3)).n == 3
    assert make_subspace(np.zeros((0, 7))).n == 7


@pytest.mark.parametrize("shape", [(3, 1), (7, 2), (0, 0), (2, 3, 1),
                                   (2, 0, 0)])
def test_a_one_tile_basis_needs_an_even_positive_number_of_rows(shape):
    basis = np.zeros(shape)
    basis[..., :shape[-1], :] = np.eye(*shape[-2:])[:shape[-1]]
    with pytest.raises(ValueError, match=re.escape("(2n x k)")):
        RealSubspace(basis)


def test_no_operand_of_zero_n_is_taken():
    for vectors in (np.zeros((2, 0)), np.zeros((0, 0)), np.zeros((3, 2, 0)),
                    np.zeros(3)):
        with pytest.raises(ValueError, match=re.escape("(..., k, n)")):
            make_subspace(vectors)
    with pytest.raises(ValueError, match="n >= 1"):
        ModularData(np.zeros((0, 0)), np.zeros(0), np.zeros((0, 0)))
    empty = np.zeros((0, 2), dtype=int)
    with pytest.raises(ValueError, match="n >= 1"):
        ModularData(np.zeros((0, 2, 2)), np.zeros((0, 2)),
                    np.zeros((0, 2, 2)), tiling=empty)


def test_transform_refuses_a_scaled_rotation():
    # the image basis is taken as it is: an operator off unitary by 1e-6
    # fails the constructor's Gram check instead of being re-spanned
    rng = np.random.default_rng(53)
    n = 4
    h = random_subspace(rng, n, 3)
    rot = np.linalg.qr(rng.normal(size=(4, 4))
                       + 1j * rng.normal(size=(4, 4)))[0]
    h.transform(rot)
    with pytest.raises(ValueError, match="orthonormal"):
        h.transform(rot * (1.0 + 1e-6))


def test_transform_of_a_unitary_spans_the_orthonormalised_image():
    rng = np.random.default_rng(59)
    n = 6
    z = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    u = np.linalg.qr(z)[0]
    frame = np.linalg.qr(rng.normal(size=(12, 12)))[0]
    for k in range(2 * n + 1):
        h = RealSubspace(frame[:, :k])
        moved = h.transform(u)
        # the image as the SVD re-orthonormalisation of the real form
        # gives it
        svd_image = RealSubspace(_orthonormal_basis(real_linear(u) @ h.basis))
        assert moved.dim == k
        assert subspace_distance(moved, svd_image) < 1e-13


# ---------------------------------------------------------------------------
# symplectic complement
# ---------------------------------------------------------------------------


def test_complement_of_everything_and_nothing():
    n = 3
    full = RealSubspace(np.eye(2 * n))
    assert symplectic_complement(full).dim == 0
    assert symplectic_complement(RealSubspace(np.zeros((2 * n, 0)))).dim == 6


def test_real_slice_is_self_complementary():
    n = 4
    h = real_slice(n)
    assert subspace_distance(symplectic_complement(h), h) < ATOL


def test_complement_dimension_and_involution():
    rng = np.random.default_rng(7)
    n = 4
    for _ in range(30):
        h = random_subspace(rng, n, rng.integers(0, 5))
        hp = symplectic_complement(h)
        assert hp.dim == 2 * n - h.dim
        assert subspace_distance(symplectic_complement(hp), h) < 1e-9


@pytest.mark.parametrize("n", [1, 3])
def test_complement_from_one_qr_is_orthogonal_to_i_h(n):
    # H' is the trailing 2n - k columns of a complete QR of i b, for
    # every k including the empty and the full subspace, alone and stacked
    rng = np.random.default_rng(61 + n)
    d = 2 * n
    for k in sorted({0, 1, n, d - 1, d}):
        stack = RealSubspace(np.stack(
            [np.linalg.qr(rng.normal(size=(d, d)))[0][:, :k]
             for _ in range(3)]))
        duals = symplectic_complement(stack)
        assert duals.basis.shape == (3, d, d - k)
        for i in range(3):
            rotated = times_i(n) @ stack.basis[i]
            one = symplectic_complement(RealSubspace(stack.basis[i]))
            assert one.dim == d - k
            assert np.max(np.abs(rotated.T @ one.basis), initial=0.0) <= 1e-14
            assert np.array_equal(duals.basis[i], one.basis)


# ---------------------------------------------------------------------------
# standardness
# ---------------------------------------------------------------------------


def test_real_slice_standard_with_right_angle():
    rep = standardness(real_slice(3))
    assert rep.cyclic and rep.separating
    assert_allclose(rep.minimal_angle, math.pi / 2, atol=1e-9)


def test_complex_line_not_standard():
    h = make_subspace([np.array([1.0, 0.0]), np.array([1j, 0.0])])
    rep = standardness(h)
    assert not rep.cyclic
    assert not rep.separating


def test_frozen_example_is_standard():
    h = make_subspace([np.array([1.0, 2.0]), np.array([1j, -2j])])
    assert standardness(h).standard


# ---------------------------------------------------------------------------
# modular data
# ---------------------------------------------------------------------------


def test_real_slice_has_trivial_modular_operator():
    n = 3
    m = modular_data(real_slice(n))
    # S = J = conj
    assert_allclose(m.tomita_matrix(), np.eye(3), atol=1e-9)
    assert_allclose(m.power(1.0), np.eye(3), atol=1e-9)
    assert_allclose(m.jc, np.eye(3), atol=1e-9)


def test_one_dimensional_subspaces_have_trivial_delta():
    rng = np.random.default_rng(11)
    for _ in range(10):
        theta = rng.uniform(0, 2 * math.pi)
        h = make_subspace([np.array([np.exp(1j * theta)])])
        m = modular_data(h)
        assert_allclose(m.power(1.0), np.eye(1), atol=1e-9)


def test_frozen_c2_modular_pair():
    # H = {(w, 2 conj(w))} has Delta = diag(4, 1/4) and J = swap o conj
    h = make_subspace([np.array([1.0, 2.0]), np.array([1j, -2j])])
    m = modular_data(h)
    assert_allclose(m.power(1.0), np.diag([4.0, 0.25]), atol=1e-9)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    assert_allclose(m.jc, swap, atol=1e-9)


def test_modular_rejects_non_standard_with_named_reason():
    line = make_subspace([np.array([1.0, 0.0]), np.array([1j, 0.0])])
    with pytest.raises(ValueError, match="cyclic"):
        modular_data(line)
    crowded = make_subspace(
        [np.array([1.0, 0.0]), np.array([1j, 0.0]), np.array([0.0, 1.0])])
    with pytest.raises(ValueError, match="separating"):
        modular_data(crowded)


def test_tomita_invariants_on_random_standard_subspaces():
    rng = np.random.default_rng(13)
    n = 3
    eye = np.eye(3)
    for _ in range(15):
        h = random_standard(rng, n)
        m = modular_data(h)
        # S = a conj fixes H pointwise and squares to one
        a, b = m.tomita_matrix(), h.complex_basis()
        assert_allclose(a @ b.conj(), b, atol=1e-8)
        assert_allclose(a @ a.conj(), eye, atol=1e-8)
        # polar pieces reproduce S: J Delta^{1/2} = jc conj(Delta^{1/2})
        assert_allclose(m.jc @ m.power(0.5).conj(), a, atol=1e-8)
        # J H = H' and the commutant's Tomita operator is the adjoint
        hp = symplectic_complement(h)
        jh = RealSubspace.from_complex(m.jc @ b.conj())
        assert subspace_distance(jh, hp) < 1e-8
        assert_allclose(modular_data(hp).tomita_matrix(), a.T, atol=1e-7)
        # modular flow preserves H
        for t in (-5.0, -1.0, -0.1, 0.1, 1.0, 5.0):
            assert subspace_distance(h.transform(m.delta_it(t)), h) < 1e-8


def test_delta_flow_is_a_one_parameter_unitary_group():
    rng = np.random.default_rng(17)
    n = 3
    m = modular_data(random_standard(rng, n))
    u, v = m.delta_it(0.7), m.delta_it(-0.3)
    assert_allclose(u.conj().T @ u, np.eye(3), atol=1e-10)
    assert_allclose(u @ v, m.delta_it(0.4), atol=1e-10)
    assert_allclose(m.delta_it(0.0), np.eye(3), atol=ATOL)


# ---------------------------------------------------------------------------
# subspace from modular data
# ---------------------------------------------------------------------------


def test_trivial_modular_data_gives_real_slice():
    n = 3
    m = ModularData(np.eye(3), np.zeros(3), np.eye(3))
    h = subspace_from_modular(m)
    assert subspace_distance(h, real_slice(n)) < ATOL


def test_frozen_c2_fixed_points():
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    m = ModularData(np.eye(2), np.log([4.0, 0.25]), swap)
    h = subspace_from_modular(m)
    expect = make_subspace([np.array([1.0, 2.0]), np.array([1j, -2j])])
    assert h.dim == 2
    assert subspace_distance(h, expect) < 1e-9


def test_modular_roundtrip_on_random_pairs():
    rng = np.random.default_rng(19)
    for _ in range(10):
        m = random_modular_pair(rng, 4)
        h = subspace_from_modular(m)
        assert h.dim == 4
        assert standardness(h).standard
        m2 = modular_data(h)
        assert (np.linalg.norm(m2.power(1.0) - m.power(1.0), 2)
                < 1e-8 * m.delta_norm)
        assert np.linalg.norm(m2.jc - m.jc, 2) < 1e-8


def test_eigen_form_validation_messages():
    eye = np.eye(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    lam = np.array([1.0, -1.0])
    m = ModularData(eye, lam, swap)
    # one tile, its log Delta kept in the order handed
    assert np.array_equal(m.log_delta, [[1.0, -1.0]])
    assert m.delta_norm == pytest.approx(math.e)
    # each eigen form breaks the named invariant first
    violations = {
        "finite data": (eye, np.array([np.inf, 1.0]), swap),
        "V unitary": (2.0 * eye, lam, swap),
        "J orthogonal": (eye, lam, 2.0 * swap),
        "J involutive": (eye, lam, np.array([[0.0, 1.0], [-1.0, 0.0]])),
        # J pairs log Delta = -1 with 2
        "J Delta J = Delta^-1": (eye, np.array([-1.0, 2.0]), swap),
    }
    for name, args in violations.items():
        pattern = f"modular invariant violated: {re.escape(name)}"
        with pytest.raises(ValueError, match=pattern):
            ModularData(*args)
    with pytest.raises(ValueError, match="n x n"):
        ModularData(np.eye(3), lam, swap)
    # arrays of too few axes are refused by shape, not by indexing
    with pytest.raises(ValueError, match="n x n"):
        ModularData(np.ones(2), np.zeros(2), np.ones(2))
    # NaN data is a violation, not a pass
    with pytest.raises(ValueError, match="finite data"):
        ModularData(eye, lam, np.full((2, 2), np.nan))


def test_every_eigen_form_violation_raises_on_any_member_of_a_stack():
    eye = np.eye(2)
    swap = np.array([[0.0, 1.0], [1.0, 0.0]])
    lam = np.array([1.0, -1.0])
    good = (eye, lam, swap)
    stacked = ModularData(*(np.stack([a] * 3) for a in good))
    assert np.array_equal(stacked.log_delta, [[[1.0, -1.0]]] * 3)
    assert np.array_equal(stacked.delta_norm, [math.e] * 3)
    violations = {
        "finite data": (eye, np.array([np.inf, 1.0]), swap),
        "V unitary": (2.0 * eye, lam, swap),
        "J orthogonal": (eye, lam, 2.0 * swap),
        "J involutive": (eye, lam, np.array([[0.0, 1.0], [-1.0, 0.0]])),
        "J Delta J = Delta^-1": (eye, np.array([-1.0, 2.0]), swap),
    }
    for name, bad in violations.items():
        for k in range(3):
            members = [good] * 3
            members[k] = bad
            args = (np.stack(parts) for parts in zip(*members))
            with pytest.raises(ValueError, match=re.escape(name)):
                ModularData(*args)
    with pytest.raises(ValueError, match="n x n"):
        ModularData(np.stack([eye] * 3), np.stack([lam] * 2),
                    np.stack([swap] * 3))


def _stack_of(subspaces):
    return RealSubspace(np.stack([h.basis for h in subspaces]))


def test_stacked_primitives_match_single_calls():
    # a stack is evaluated in one LAPACK/BLAS call per step, and each
    # member gets exactly what it gets alone
    rng = np.random.default_rng(43)
    n = 4
    hs = [random_standard(rng, n) for _ in range(3)]
    ks = [random_subspace(rng, n, 3) for _ in range(3)]
    h, k = _stack_of(hs), _stack_of(ks)
    md = modular_data(h)
    dual = symplectic_complement(h)
    rep = standardness(h)
    sines, vecs = principal_angles(h.basis, k.basis)
    moved = h.transform(md.delta_it(0.7))
    dist = subspace_distance(moved, k)
    for i, (hi, ki) in enumerate(zip(hs, ks)):
        md_one = modular_data(hi)
        for field in ("vecs", "log_delta", "jc"):
            assert np.array_equal(getattr(md, field)[i],
                                  getattr(md_one, field))
        assert md.delta_norm[i] == md_one.delta_norm
        assert np.array_equal(md.tomita_matrix()[i], md_one.tomita_matrix())
        assert np.array_equal(dual.basis[i], symplectic_complement(hi).basis)
        rep_one = standardness(hi)
        assert (rep.cyclic[i], rep.separating[i], rep.minimal_angle[i]) == (
            rep_one.cyclic, rep_one.separating, rep_one.minimal_angle)
        sines_one, vecs_one = principal_angles(hi.basis, ki.basis)
        assert np.array_equal(sines[i], sines_one)
        assert np.array_equal(vecs[i], vecs_one)
        moved_one = hi.transform(md_one.delta_it(0.7))
        assert np.array_equal(moved.basis[i], moved_one.basis)
        assert dist[i] == subspace_distance(moved_one, ki)
    # a stack of one is a stack like any other
    md_first = modular_data(_stack_of(hs[:1]))
    assert np.array_equal(md_first.vecs[0], md.vecs[0])
    assert np.array_equal(md_first.jc[0], md.jc[0])


def test_stacks_refuse_mixed_members():
    rng = np.random.default_rng(47)
    n = 3
    vecs = rng.normal(size=(2, 3, 3)) + 1j * rng.normal(size=(2, 3, 3))
    assert make_subspace(vecs).basis.shape == (2, 6, 3)
    vecs[1, 2] = vecs[1, 0]
    with pytest.raises(ValueError, match="differ in rank"):
        make_subspace(vecs)
    # a stack is standard only if every member is
    h = _stack_of([random_standard(rng, n), real_slice(n),
                   make_subspace([np.array([1.0, 0, 0]),
                                  np.array([1j, 0, 0]),
                                  np.array([0, 1.0, 0])])])
    assert list(standardness(h).standard) == [True, True, False]
    with pytest.raises(ValueError, match="not cyclic"):
        modular_data(h)


def test_invariant_errors_are_the_real_form_entries():
    # the complex-form checks report the largest entry of the real-form
    # residuals V^T V - 1, J^T J - 1 and J J - 1
    rng = np.random.default_rng(23)
    eye = np.eye(6)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    unitary, _ = np.linalg.qr(z)
    cases = (
        ("V unitary", z, np.eye(3),
         lambda: real_linear(z).T @ real_linear(z) - eye),
        ("J orthogonal", np.eye(3), z,
         lambda: real_antilinear(z).T @ real_antilinear(z) - eye),
        ("J involutive", np.eye(3), unitary,
         lambda: real_antilinear(unitary) @ real_antilinear(unitary) - eye),
    )
    for name, vecs, jc, residual in cases:
        with pytest.raises(ValueError, match=name) as info:
            ModularData(vecs, np.zeros(3), jc)
        reported = float(str(info.value).split("error ")[1].rstrip(")"))
        assert reported == pytest.approx(
            np.max(np.abs(residual())), rel=1e-3), name


def _solve_eigh_polar_route(h):
    """Reference route without the SVD formulas: C = B conj(B)^{-1} by
    solve, Delta = C^T conj(C) by eigh, and J the unitary polar factor of
    C conj(Delta^{-1/2}); returns (C, Delta, jc)."""
    n = h.n
    b = h.basis[:n] + 1j * h.basis[n:]
    c = np.linalg.solve(b.conj().T, b.T).T
    delta = c.T @ c.conj()
    delta = (delta + delta.conj().T) / 2
    w, v = np.linalg.eigh(delta)
    uu, _, vv = np.linalg.svd(c @ ((v / np.sqrt(w)) @ v.conj().T).conj())
    return c, delta, uu @ vv


def _assert_routes_agree(h, tol=1e-10):
    c, delta, jc = _solve_eigh_polar_route(h)
    md = modular_data(h)
    scale = np.linalg.norm(delta, 2)
    assert np.linalg.norm(md.power(1.0) - delta, 2) <= tol * scale
    assert np.linalg.norm(md.jc - jc, 2) <= tol
    assert md.delta_norm == pytest.approx(scale, rel=tol)
    assert (np.linalg.norm(md.tomita_matrix() - c, 2)
            <= tol * np.linalg.norm(c, 2))
    return md


@pytest.mark.parametrize("n", range(1, 9))
def test_one_svd_route_matches_the_solve_eigh_polar_route(n):
    rng = np.random.default_rng(100 + n)
    for _ in range(5):
        _assert_routes_agree(random_standard(rng, n))


@pytest.mark.parametrize("kind", bgl.MODEL_KINDS)
def test_one_svd_route_matches_the_dense_route_on_wedges(kind):
    net = {"chiralSum": bgl.NetModel.chiral_sum,
           "massive": bgl.NetModel.massive,
           "directIntegral": bgl.NetModel.direct_integral,
           "twisted": bgl.NetModel.twisted}[kind]()
    region = spacetime.Region.wedge_right((0.0, 0.0))
    md = _assert_routes_agree(net.wedge_subspace(region))
    # the agreement above is bounded by the polar factor; against the
    # block's exact conjugation the one-SVD J is closer still
    assert np.linalg.norm(md.jc - net.wedge_modular(region).jc, 2) < 1e-11


def test_modular_data_takes_one_svd_and_no_eigensolve(monkeypatch):
    rng = np.random.default_rng(29)
    n = 4
    h = random_standard(rng, n)
    _, delta, _ = _solve_eigh_polar_route(h)
    w, v = np.linalg.eigh(delta)
    calls = []

    def counted(name, fn):
        return lambda *a, **k: calls.append(name) or fn(*a, **k)

    for name in ("svd", "eigh", "eigvalsh", "solve", "inv"):
        monkeypatch.setattr(np.linalg, name,
                            counted(name, getattr(np.linalg, name)))
    md = modular_data(h)
    assert calls == ["svd"]
    flow = md.delta_it(0.3)
    md.power(0.5)
    md.tomita_matrix()
    assert calls == ["svd"]
    monkeypatch.undo()
    # the eigen-form flow is the one a dense eigh of Delta gives
    dense = (v * np.exp(0.3j * np.log(w))) @ v.conj().T
    assert np.linalg.norm(flow - dense, 2) < 1e-12


def test_badly_conditioned_kernel_warns():
    # With a very wide modular spectrum the relative rank threshold
    # swallows genuine non-fixed directions (singular value 5.2 vs cut
    # 1e-8 * 1e9 = 10), so the kernel is overcounted and flagged.
    eigs = [1e18, 1e4, 25.0]
    perm = np.zeros((6, 6))
    perm[:3, 3:] = np.eye(3)
    perm[3:, :3] = np.eye(3)
    m = ModularData(np.eye(6), np.log(eigs + [1.0 / e for e in eigs]),
                    perm)
    with pytest.warns(ConditioningWarning):
        h = subspace_from_modular(m)
    assert h.dim == 8  # true fixed-point dimension is 6


# ---------------------------------------------------------------------------
# intersections and sums
# ---------------------------------------------------------------------------


def test_intersect_coordinate_planes():
    e = np.eye(4)  # the real form of C^2
    h1 = RealSubspace(e[:, [0, 1]])
    h2 = RealSubspace(e[:, [1, 2]])
    got = intersect([h1, h2])
    assert got.dim == 1
    assert subspace_distance(got, RealSubspace(e[:, [1]])) < ATOL
    assert subspace_distance(intersect([h1, h1]), h1) < ATOL


@pytest.mark.parametrize("method", ["exact", "halperin"])
def test_intersect_with_shared_core(method):
    rng = np.random.default_rng(23)
    core = rng.normal(size=(8, 2))
    h1 = RealSubspace(np.linalg.qr(
        np.hstack([core, rng.normal(size=(8, 2))]))[0][:, :4])
    h2 = RealSubspace(np.linalg.qr(
        np.hstack([core, rng.normal(size=(8, 2))]))[0][:, :4])
    got = intersect([h1, h2], method=method)
    assert got.dim == 2
    for col in core.T:
        v = col / np.linalg.norm(col)
        assert np.linalg.norm(got.basis @ (got.basis.T @ v) - v) < 1e-6


def test_halperin_matches_exact_on_random_pairs():
    rng = np.random.default_rng(29)
    for _ in range(100):
        shared = rng.integers(0, 3)
        core = rng.normal(size=(16, shared)) if shared else np.zeros((16, 0))
        mats = []
        for _ in range(2):
            extra = rng.normal(size=(16, 6 - shared))
            mats.append(np.linalg.qr(np.hstack([core, extra]))[0][:, :6])
        h1, h2 = (RealSubspace(b) for b in mats)
        a = intersect([h1, h2], method="exact")
        b = intersect([h1, h2], method="halperin", max_iter=5000, tol=1e-9)
        assert subspace_distance(a, b) < 1e-7


def test_halperin_nonconvergence_reports_residual():
    eps = 1e-4
    h1 = RealSubspace(np.array([[1.0], [0.0]]))
    h2 = RealSubspace(np.array([[math.cos(eps)], [math.sin(eps)]]))
    with pytest.raises(HalperinNonConvergence) as err:
        intersect([h1, h2], method="halperin", max_iter=64, tol=1e-12)
    assert err.value.residual > 0.0


def test_sum_closure_basics():
    rng = np.random.default_rng(31)
    n = 3
    h = random_subspace(rng, n, 2)
    zero = RealSubspace(np.zeros((2 * n, 0)))
    assert subspace_distance(sum_closure([h, zero]), h) < ATOL
    chain = [RealSubspace(h.basis[:, :1]), h]
    assert subspace_distance(sum_closure(chain), h) < ATOL


@pytest.mark.parametrize("primitive", ["exact", "halperin", "sum_closure",
                                       "subspace_distance",
                                       "containment_gap"])
def test_operands_of_different_n_are_refused(primitive):
    # every primitive between subspaces runs one check that they share n
    rng = np.random.default_rng(41)
    a, b = random_subspace(rng, 3, 2), random_subspace(rng, 4, 2)
    calls = {"exact": lambda f: intersect(f, method="exact"),
             "halperin": lambda f: intersect(f, method="halperin"),
             "sum_closure": sum_closure,
             "subspace_distance": lambda f: subspace_distance(*f),
             "containment_gap": lambda f: containment_gap(*f)}
    for family in ([a, b], [b, a]):
        with pytest.raises(ValueError,
                           match=re.escape("one C^n, got n in [3, 4]")):
            calls[primitive](family)
    if primitive not in ("subspace_distance", "containment_gap"):
        with pytest.raises(ValueError,
                           match=re.escape("one C^n, got n in []")):
            calls[primitive]([])


@pytest.mark.parametrize("primitive", ["exact", "halperin", "sum_closure",
                                       "subspace_from_modular",
                                       "modular_roundtrip",
                                       "symmetry_commutation_check"])
def test_intersect_and_sum_closure_refuse_stacks(primitive):
    rng = np.random.default_rng(43)
    stack = make_subspace(rng.normal(size=(2, 3, 4))
                          + 1j * rng.normal(size=(2, 3, 4)))
    single = random_subspace(rng, 4, 3)
    if primitive not in ("exact", "halperin", "sum_closure"):
        # a stack of three standard C^4 subspaces and one of them alone
        stack = make_subspace(rng.normal(size=(3, 4, 4))
                              + 1j * rng.normal(size=(3, 4, 4)))
        single = random_standard(rng, 4)
        calls = {
            "subspace_from_modular": [
                lambda: subspace_from_modular(modular_data(stack))],
            "modular_roundtrip": [
                lambda: modular_roundtrip(modular_data(stack), single),
                lambda: modular_roundtrip(modular_data(single), stack)],
            "symmetry_commutation_check": [
                lambda: symmetry_commutation_check(stack, np.eye(4))],
        }[primitive]
        for call in calls:
            with pytest.raises(ValueError,
                               match=f"{primitive} takes single"):
                call()
        return
    name = "sum_closure" if primitive == "sum_closure" else "intersect"
    for family in ([stack, single], [single, stack], [stack]):
        with pytest.raises(ValueError,
                           match=f"{name} takes single subspaces"):
            if primitive == "sum_closure":
                sum_closure(family)
            else:
                intersect(family, method=primitive)


def test_de_morgan_laws():
    rng = np.random.default_rng(37)
    n = 4
    for _ in range(20):
        h1 = random_subspace(rng, n, rng.integers(1, 4))
        h2 = random_subspace(rng, n, rng.integers(1, 4))
        lhs = symplectic_complement(sum_closure([h1, h2]))
        rhs = intersect([symplectic_complement(h1), symplectic_complement(h2)])
        assert subspace_distance(lhs, rhs) < 1e-8
        lhs = symplectic_complement(intersect([h1, h2]))
        rhs = sum_closure([symplectic_complement(h1),
                           symplectic_complement(h2)])
        assert subspace_distance(lhs, rhs) < 1e-8


# ---------------------------------------------------------------------------
# principal angles and complex-form norms (properties)
# ---------------------------------------------------------------------------

# derandomized, so that every run draws the same examples
PROPERTY = settings(max_examples=40, deadline=None, derandomize=True,
                    database=None,
                    suppress_health_check=[HealthCheck.too_slow])
SEEDS = st.integers(0, 2 ** 32 - 1)


def _orthonormal_frame(rng, d):
    return np.linalg.qr(rng.normal(size=(d, d)))[0]


@PROPERTY
@given(n=st.integers(2, 6), seed=SEEDS, data=st.data())
def test_planted_intersection_exact_matches_halperin(n, seed, data):
    d = 2 * n
    core = data.draw(st.integers(0, d - 3), label="core")
    extra_a = data.draw(st.integers(1, d - 2 - core), label="extra_a")
    extra_b = data.draw(st.integers(1, d - 1 - core - extra_a),
                        label="extra_b")
    rng = np.random.default_rng(seed)
    shared = rng.normal(size=(d, core))
    h1, h2 = (RealSubspace(np.linalg.qr(
        np.hstack([shared, rng.normal(size=(d, extra))]))[0])
        for extra in (extra_a, extra_b))
    exact = intersect([h1, h2], method="exact")
    halp = intersect([h1, h2], method="halperin", max_iter=1 << 26,
                     tol=1e-9)
    assert exact.dim == halp.dim == core
    assert subspace_distance(exact, halp) < 1e-7


@PROPERTY
@given(n=st.integers(1, 6), seed=SEEDS, data=st.data())
def test_complement_of_intersection_is_sum_of_complements(n, seed, data):
    # (H cap K)' = H' + K', with shared directions planted so that the
    # intersection is the shared span, of any dimension
    d = 2 * n
    core = data.draw(st.integers(0, d), label="core")
    extra_h = data.draw(st.integers(0, d - core), label="extra_h")
    extra_k = data.draw(st.integers(0, d - core - extra_h), label="extra_k")
    rng = np.random.default_rng(seed)
    shared = rng.normal(size=(d, core))
    h, k = (RealSubspace(np.linalg.qr(
        np.hstack([shared, rng.normal(size=(d, extra))]))[0])
        for extra in (extra_h, extra_k))
    lhs = symplectic_complement(intersect([h, k]))
    rhs = sum_closure([symplectic_complement(h), symplectic_complement(k)])
    assert lhs.dim == rhs.dim == d - core
    assert subspace_distance(lhs, rhs) <= 1e-12


@PROPERTY
@given(n=st.integers(1, 6), seed=SEEDS, near=st.booleans(), data=st.data())
def test_subspace_distance_is_the_projector_gap(n, seed, near, data):
    d = 2 * n
    k1 = data.draw(st.integers(0, d), label="k1")
    rng = np.random.default_rng(seed)
    h1 = RealSubspace(_orthonormal_frame(rng, d)[:, :k1])
    if near:
        # a small rotation of h1: the distance is of order 1e-5
        gen = rng.normal(size=(d, d)) * 1e-5
        rot = np.linalg.qr(np.eye(d) + gen - gen.T)[0]
        h2 = RealSubspace(rot @ h1.basis)
    else:
        k2 = data.draw(st.integers(0, d), label="k2")
        h2 = RealSubspace(_orthonormal_frame(rng, d)[:, :k2])
    projector_gap = np.linalg.norm(_projector(h1) - _projector(h2), 2)
    assert abs(subspace_distance(h1, h2) - projector_gap) < 1e-12
    assert subspace_distance(h1, h2) == subspace_distance(h2, h1)


@PROPERTY
@given(n=st.integers(1, 8), seed=SEEDS,
       kind=st.sampled_from(["linear", "antilinear"]))
def test_complex_norm_equals_real_form_norm(n, seed, kind):
    # residuals are spectral norms of complex n x n matrices: those of
    # their real 2n x 2n forms, at about an eighth of the SVD
    rng = np.random.default_rng(seed)
    c = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    r = (real_linear if kind == "linear" else real_antilinear)(c)
    real = np.linalg.norm(r, 2)
    assert abs(np.linalg.norm(c, 2) - real) <= 1e-12 * real


@PROPERTY
@given(n=st.integers(3, 6), seed=SEEDS)
def test_angle_tolerance_separates_1e6_from_1e10(n, seed):
    rng = np.random.default_rng(seed)
    q = _orthonormal_frame(rng, 2 * n)
    h1 = RealSubspace(q[:, [0, 1, 4]])
    for angle, dim in ((1e-6, 1), (1e-10, 2)):
        tilted = math.cos(angle) * q[:, 0] + math.sin(angle) * q[:, 2]
        h2 = RealSubspace(np.column_stack([tilted, q[:, 3], q[:, 4]]))
        sines, _ = principal_angles(h1.basis, h2.basis)
        assert sines[1] == pytest.approx(angle, rel=1e-6)
        assert intersect([h1, h2]).dim == dim
        assert containment_gap(h1, intersect([h1, h2])) < 1e-8


@PROPERTY
@given(n=st.integers(1, 6), seed=SEEDS, planted=st.booleans(),
       data=st.data())
def test_complement_and_tomita_match_scipy_references(n, seed, planted,
                                                      data):
    # scipy is the test-only reference for the numpy kernels: the SVD
    # null space behind H' and the linear solve behind C
    rng = np.random.default_rng(seed)
    d = 2 * n
    k = data.draw(st.integers(2 if planted else 1, d), label="k")
    cols = rng.normal(size=(d, k))
    if planted:
        # a complex line xi, i xi inside H: H meets iH nontrivially
        cols[:, 1] = times_i(n) @ cols[:, 0]
    h = RealSubspace(np.linalg.qr(cols)[0])
    ours = symplectic_complement(h)
    ref = RealSubspace(sla.null_space((times_i(n) @ h.basis).T,
                                          rcond=RANK_REL_TOL))
    assert ours.dim == ref.dim == d - k
    assert subspace_distance(ours, ref) <= 1e-12
    if k != n or planted:
        return
    b = h.complex_basis()
    c_ref = sla.solve(b.conj().T, b.T).T
    dev = np.linalg.norm(modular_data(h).tomita_matrix() - c_ref, 2)
    assert dev <= 1e-12 * np.linalg.cond(b) * np.linalg.norm(c_ref, 2)


def test_containment_gap_is_the_largest_sine():
    n = 2
    e = np.eye(4)
    big = RealSubspace(e[:, [0, 1]])
    tilted = RealSubspace(np.column_stack(
        [e[:, 0], math.cos(0.3) * e[:, 1] + math.sin(0.3) * e[:, 2]]))
    assert containment_gap(big, tilted) == pytest.approx(math.sin(0.3))
    zero = RealSubspace(np.zeros((2 * n, 0)))
    assert containment_gap(big, zero) == 0.0
    assert containment_gap(zero, big) == pytest.approx(1.0)


# ---------------------------------------------------------------------------
# complex-form modular theory against real-form references (properties)
# ---------------------------------------------------------------------------


def _real_standardness(h):
    """Reference: rank of [b, i b] and the principal-angle route."""
    rotated = times_i(h.n) @ h.basis
    s = np.linalg.svd(np.hstack([h.basis, rotated]), compute_uv=False)
    cyclic = bool(np.sum(s > RANK_REL_TOL * s[0]) == 2 * h.n)
    sines, v = principal_angles(h.basis, rotated)
    cosine = np.linalg.norm(h.basis.T @ (rotated @ v[:, 0]))
    return cyclic, math.atan2(sines[0], cosine)


def _real_modular(h):
    """Reference (S, J, Delta) from real 2n x 2n solve, eigh and SVD."""
    b, rotated = h.basis, times_i(h.n) @ h.basis
    s_op = np.linalg.solve(np.hstack([b, rotated]).T,
                           np.hstack([b, -rotated]).T).T
    delta = s_op.T @ s_op
    w, v = np.linalg.eigh((delta + delta.T) / 2)
    uu, _, vv = np.linalg.svd(s_op @ (v / np.sqrt(w)) @ v.T)
    return s_op, uu @ vv, (delta + delta.T) / 2


def _halperin_reference(subspaces, tol=1e-9):
    """Reference: the compressed squaring loop K <- K C K deciding on the
    spectral norm alone; returns the squaring count and the basis."""
    first, last = subspaces[0].basis, subspaces[-1].basis
    k = np.eye(first.shape[1])
    for a, b in zip(subspaces, subspaces[1:]):
        k = (b.basis.T @ a.basis) @ k
    c = first.T @ last
    squarings = 0
    while True:
        k2 = k @ c @ k
        residual = np.linalg.norm(k2 - k, 2)
        k = k2
        squarings += 1
        if residual <= tol:
            break
    u, s, _ = np.linalg.svd(k, full_matrices=False)
    return squarings, last @ u[:, s > 0.5]


def _dense_halperin(subspaces, tol=1e-9):
    """The squaring loop on the dense T = P_m ... P_1, kept in the tests
    only: the spectral norm of T^2 - T at every squaring until it is at
    most tol, and the near-1 eigenvectors of the limit."""
    t = np.eye(2 * subspaces[0].n)
    for h in subspaces:
        t = _projector(h) @ t
    residuals = []
    while not residuals or residuals[-1] > tol:
        t2 = t @ t
        residuals.append(np.linalg.norm(t2 - t, 2))
        t = t2
    w, v = np.linalg.eigh((t + t.T) / 2)
    return residuals, v[:, w > 0.5]


@PROPERTY
@given(n=st.integers(1, 6), seed=SEEDS)
def test_complex_modular_data_matches_the_real_form(n, seed):
    rng = np.random.default_rng(seed)
    while True:
        h = random_subspace(rng, n, n)
        rep = standardness(h)
        if rep.standard and rep.minimal_angle > 0.05:
            break
    m = modular_data(h)
    s_ref, j_ref, d_ref = _real_modular(h)
    s_op = real_antilinear(m.tomita_matrix())
    assert np.linalg.norm(s_op - s_ref, 2) < 1e-10
    assert np.linalg.norm(real_antilinear(m.jc) - j_ref, 2) < 1e-10
    assert (np.linalg.norm(real_linear(m.power(1.0)) - d_ref, 2)
            < 1e-10 * m.delta_norm)


@PROPERTY
@given(n=st.integers(1, 6), seed=SEEDS,
       shape=st.sampled_from(["generic", "complex-line"]), data=st.data())
def test_complex_standardness_matches_the_real_form(n, seed, shape, data):
    # every dimension k from 1 to 2n: k < n is never cyclic, k > n never
    # separating; a planted complex line makes H meet iH for any k
    k = data.draw(st.integers(1, 2 * n), label="k")
    rng = np.random.default_rng(seed)
    vecs = list(rng.normal(size=(k, n)) + 1j * rng.normal(size=(k, n)))
    if shape == "complex-line":
        vecs = vecs[:max(k - 2, 0)] + [vecs[-1], 1j * vecs[-1]]
    h = make_subspace(vecs)
    rep = standardness(h)
    cyclic, angle = _real_standardness(h)
    assert rep.cyclic == cyclic
    assert rep.separating == (angle > 1e-8)
    assert abs(rep.minimal_angle - angle) < 1e-12
    if shape == "complex-line" or h.dim > n:
        assert not rep.separating
    if h.dim < n:
        assert not rep.cyclic


def _gather(a, rows, cols):
    """The stack holding tile t of the matrix ``a`` at (rows[t], cols[t]):
    the tests' own gather of a dense reference onto its tiles."""
    return a[..., rows[:, :, None], cols[:, None, :]]


def _permuted_tiles(perm, tiles):
    """Where ``tiles`` equal blocks of consecutive indices land when the
    indices are permuted as x[perm]: the tiling handed in for x."""
    return np.sort(np.argsort(perm).reshape(tiles, -1), axis=-1)


def _halperin_family(rng, tiles, r, core, extras):
    """Subspaces of C^(tiles r) that meet in ``core`` real dimensions
    per tile: on each tile of r slots, the span of a shared core and of
    ``extra`` random columns, orthonormalised; the tiles' slots are
    permuted alike and handed in as their tiling.  One tile is the span
    on the whole of C^r."""
    n = tiles * r
    slots = rng.permutation(n) if tiles > 1 else np.arange(n)
    shared = [rng.normal(size=(2 * r, core)) for _ in range(tiles)]
    family = []
    for extra in extras:
        k = core + extra
        c = np.zeros((n, tiles * k), dtype=complex)
        for t in range(tiles):
            q = np.linalg.qr(np.hstack([shared[t],
                                        rng.normal(size=(2 * r, extra))]))[0]
            c[t * r:(t + 1) * r, t * k:(t + 1) * k] = q[:r] + 1j * q[r:]
        tiling = (_permuted_tiles(slots, tiles),
                  np.arange(tiles * k).reshape(tiles, k))
        family.append(RealSubspace.from_complex(_gather(c[slots], *tiling),
                                                tiling))
    assert stdspace._joint(*family)[0].shape[0] == tiles
    return family


@PROPERTY
@given(r=st.integers(2, 6), seed=SEEDS, tiles=st.integers(1, 3),
       data=st.data())
def test_halperin_bounds_keep_the_spectral_decisions(r, seed, tiles, data):
    # on one tile and on direct sums of 2 or 3 tiles, which run as a
    # stack of tile iterates
    d = 2 * r
    core = data.draw(st.integers(0, d - 3), label="core")
    extra_a = data.draw(st.integers(1, d - 2 - core), label="extra_a")
    extra_b = data.draw(st.integers(1, d - 1 - core - extra_a),
                        label="extra_b")
    rng = np.random.default_rng(seed)
    pair = _halperin_family(rng, tiles, r, core, (extra_a, extra_b))
    squarings, basis = _halperin_reference(pair)
    # the loop squares while 2^(squarings so far) <= max_iter
    got = intersect(pair, method="halperin", max_iter=2 ** (squarings - 1))
    assert got.dim == tiles * core
    if tiles == 1:
        # the same iterates: the same singular vectors of the same limit K
        assert np.array_equal(got.basis, basis)
    else:
        assert subspace_distance(
            got, RealSubspace(basis)) < 1e-12
    with pytest.raises(HalperinNonConvergence):
        intersect(pair, method="halperin", max_iter=2 ** (squarings - 1) - 1)


@PROPERTY
@given(r=st.integers(2, 6), seed=SEEDS, members=st.sampled_from([2, 3]),
       tiles=st.integers(1, 3), data=st.data())
def test_compressed_halperin_matches_the_dense_cyclic_product(r, seed,
                                                              members, tiles,
                                                              data):
    # the tiled iterates of a direct sum stop where the dense product of
    # the projections on the whole space stops
    d = 2 * r
    core = data.draw(st.integers(0, d - 3), label="core")
    extra_a = data.draw(st.integers(1, d - 2 - core), label="extra_a")
    extra_b = data.draw(st.integers(1, d - 1 - core - extra_a),
                        label="extra_b")
    extras = [extra_a, extra_b]
    if members == 3:
        extras.append(data.draw(st.integers(1, d - 1 - core),
                                label="extra_c"))
    rng = np.random.default_rng(seed)
    family = _halperin_family(rng, tiles, r, core, extras)
    residuals, basis = _dense_halperin(family)
    squarings = len(residuals)
    # the same squaring count: converged within 2^(squarings - 1) ...
    got = intersect(family, method="halperin", max_iter=2 ** (squarings - 1))
    assert got.dim == basis.shape[1] == tiles * core
    assert subspace_distance(got, RealSubspace(basis)) < 1e-12
    # ... and not one squaring earlier
    with pytest.raises(HalperinNonConvergence) as err:
        intersect(family, method="halperin",
                  max_iter=2 ** (squarings - 1) - 1)
    if squarings == 1:
        return
    # the residual is ||T^2 - T||: relative agreement where it is large,
    # absolute round-off where it is about to pass tol
    assert abs(err.value.residual - residuals[-2]) <= 1e-14
    with pytest.raises(HalperinNonConvergence) as first:
        intersect(family, method="halperin", max_iter=1)
    assert first.value.residual == pytest.approx(residuals[0], rel=1e-12)


def test_halperin_without_iterations_raises():
    h = RealSubspace(np.eye(4)[:, :2])
    with pytest.raises(HalperinNonConvergence) as err:
        intersect([h, h], method="halperin", max_iter=0)
    assert err.value.residual == math.inf


def test_halperin_with_a_zero_dimensional_member():
    n = 2
    h = RealSubspace(np.eye(4)[:, :2])
    zero = RealSubspace(np.zeros((2 * n, 0)))
    for family in ([h, zero], [zero, h], [h, zero, h], [zero]):
        got = intersect(family, method="halperin", max_iter=1)
        assert got.basis.shape == (4, 0)


def test_halperin_on_the_twisted_cone_allocates_no_dense_iterate():
    # the two minimal wedges of the unit double cone at real dimension
    # 520: the compressed iterates are 260 x 260, so the whole
    # intersection peaks below two 520 x 520 float64 arrays (4.33 MB)
    net = bgl.NetModel.twisted(n=65)
    d = 2 * net.tiles.size
    assert d == 520
    pair = [net.wedge_subspace(w) for w in
            spacetime.minimal_wedges(spacetime.Region.unit_double_cone())]
    tracemalloc.start()
    try:
        intersect(pair, method="halperin", max_iter=1 << 26)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2 * d * d * 8


@PROPERTY
@given(n=st.integers(1, 5), seed=SEEDS,
       kinds=st.tuples(*[st.sampled_from(["linear", "antilinear"])] * 2))
def test_operator_algebra_matches_the_real_form(n, seed, kinds):
    # the complex n x n rules the residual formulas rest on, against the
    # real 2n x 2n forms: products, transposes and U X U^T - X
    rng = np.random.default_rng(seed)
    a, b = (rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
            for _ in range(2))

    def real(c, kind):
        return (real_linear if kind == "linear" else real_antilinear)(c)

    ka, kb = kinds
    ra, rb = real(a, ka), real(b, kb)
    # a conj(b conj(xi)) = a conj(b) xi
    product = a @ (b.conj() if ka == "antilinear" else b)
    # the transpose is the adjoint of a linear operator and
    # xi -> a^T conj(xi) of an antilinear one
    transpose = a.conj().T if ka == "linear" else a.T
    # U = a linear: U X U^T - X is (a b) a* - b or (a b) a^T - b
    ru = real_linear(a)
    moved = (a @ b) @ (a.conj().T if kb == "linear" else a.T) - b
    want = ru @ rb @ ru.T - rb
    for got, ref in (
            (real(product, "linear" if ka == kb else "antilinear"), ra @ rb),
            (real(transpose, ka), ra.T),
            (real(moved, kb), want)):
        assert_allclose(got, ref, atol=1e-12)
    norm = np.linalg.norm(want, 2)
    assert abs(np.linalg.norm(moved, 2) - norm) < 1e-12 * max(1.0, norm)


@PROPERTY
@given(n=st.integers(2, 4), seed=SEEDS,
       kind=st.sampled_from(["flow", "odd phase"]))
def test_symmetry_check_keeps_every_part_of_u(n, seed, kind):
    # the residuals equal those of the real forms, U X U^T - X
    rng = np.random.default_rng(seed)
    h = random_standard(rng, n)
    m = modular_data(h)
    t = rng.uniform(-2.0, 2.0)
    # e^{i f(log Delta)} with f odd commutes with J and Delta, so it
    # preserves H; f(x) = t x gives the modular flow
    phase = t * m.log_delta if kind == "flow" else t * m.log_delta ** 3
    u = (m.vecs * np.exp(1j * phase)) @ m.vecs.conj().T
    rep = symmetry_commutation_check(h, u)
    ru = real_linear(u)
    for got, x, scale in (
            (rep.s_residual, real_antilinear(m.tomita_matrix()), 1.0),
            (rep.delta_residual, real_linear(m.power(1.0)), m.delta_norm),
            (rep.j_residual, real_antilinear(m.jc), 1.0)):
        want = np.linalg.norm(ru @ x @ ru.T - x, 2) / scale
        assert abs(got - want) < 1e-12 * max(1.0, want)
    assert rep.max_residual < 1e-8


# ---------------------------------------------------------------------------
# modular-theoretic checks
# ---------------------------------------------------------------------------


def test_symmetry_commutation_trivial_and_modular():
    rng = np.random.default_rng(67)
    h = random_standard(rng, 3)
    rep = symmetry_commutation_check(h, np.eye(3))
    assert rep.max_residual < 1e-12
    m = modular_data(h)
    rep = symmetry_commutation_check(h, m.power(0.8j))
    assert rep.max_residual < 1e-8


def test_symmetry_commutation_rejects_moving_unitary():
    rng = np.random.default_rng(71)
    n = 3
    h = random_standard(rng, n)
    z = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    u = np.linalg.qr(z)[0]
    with pytest.raises(ValueError, match="preserve"):
        symmetry_commutation_check(h, u)


# ---------------------------------------------------------------------------
# tiles: exactly decoupled operands run as stacks
# ---------------------------------------------------------------------------


def _direct_sum_basis(rng, tiles, r, k, slots, columns):
    """The direct sum of ``tiles`` random k-dimensional real subspaces
    of C^r, its slots and columns permuted, handed the tiling they
    give."""
    n = tiles * r
    c = np.zeros((n, tiles * k), dtype=complex)
    for t in range(tiles):
        z = rng.normal(size=(k, r)) + 1j * rng.normal(size=(k, r))
        c[t * r:(t + 1) * r, t * k:(t + 1) * k] = make_subspace(
            list(z)).complex_basis()
    tiling = _permuted_tiles(slots, tiles), _permuted_tiles(columns, tiles)
    return RealSubspace.from_complex(_gather(c[slots][:, columns], *tiling),
        tiling)


def _dense_modular(h):
    """The one-SVD modular data on the whole complex basis, of one
    subspace or of a stack: (log Delta, V with its columns in that order,
    jc, S's complex matrix, Delta^{0.3 i})."""
    n = h.n
    u, s, wh = np.linalg.svd(h.basis[..., :n, :] + 1j * h.basis[..., n:, :])
    pair = s[..., ::-1]
    a = (u * s[..., None, :]) @ (wh @ wh.swapaxes(-1, -2))
    lam = 2.0 * np.log(pair / s)
    ut = u.swapaxes(-1, -2)
    flow = (u * np.exp(0.3j * lam)[..., None, :]) @ ut.conj()
    return (lam, u, (a / pair[..., None, :]) @ ut,
            (a / s[..., None, :]) @ ut, flow)


def _sines(a, b):
    """Ascending singular values of (1 - P_a) b on the whole arrays."""
    return np.linalg.svd(b - a @ (a.T @ b), compute_uv=False)[::-1]


@PROPERTY
@given(seed=SEEDS, tiles=st.integers(2, 4), r=st.integers(1, 5),
       data=st.data())
def test_tiled_primitives_give_the_dense_results(seed, tiles, r, data):
    rng = np.random.default_rng(seed)
    n = tiles * r
    slots = rng.permutation(n)
    k = data.draw(st.integers(1, 2 * r))
    h = _direct_sum_basis(rng, tiles, r, r, slots, rng.permutation(n))
    g = _direct_sum_basis(rng, tiles, r, k, slots,
                          rng.permutation(tiles * k))
    assert stdspace._joint(h, g)[0].shape[0] == tiles
    b = h.complex_basis()

    # singular values, standardness verdict and minimal angle
    dense_s = np.linalg.svd(b, compute_uv=False)
    assert_allclose(stdspace._descending(
        np.linalg.svd(_gather(b, *h.tiling), compute_uv=False)),
        dense_s, atol=1e-12)
    rep, ref = standardness(h), stdspace._standardness_of(dense_s, h)
    assert (rep.cyclic, rep.separating) == (ref.cyclic, ref.separating)
    assert rep.minimal_angle == pytest.approx(ref.minimal_angle, abs=1e-12)

    # principal-angle sines, and vectors at those angles
    for a, c in ((h.basis, g.basis), (g.basis, h.basis)):
        want = _sines(a, c)
        sines, v = principal_angles(a, c)
        assert_allclose(sines, want, atol=1e-12)
        assert_allclose(v.T @ v, np.eye(c.shape[1]), atol=1e-12)
        moved = c @ v
        assert_allclose(np.linalg.norm(moved - a @ (a.T @ moved), axis=0),
                        sines, atol=1e-12)
    gaps = [_sines(x, y)[-1]
            for x, y in ((h.basis, g.basis), (g.basis, h.basis))]
    assert containment_gap(h, g) == pytest.approx(gaps[0], abs=1e-12)
    assert subspace_distance(h, g) == pytest.approx(max(gaps), abs=1e-12)

    # log Delta, J and S when H is standard
    if rep.standard:
        lam, _, jc, sc, flow = _dense_modular(h)
        md = modular_data(h)
        scale = max(1.0, np.max(np.abs(lam)))
        # the tiles' spectra together are the dense one
        assert_allclose(np.sort(md.log_delta, axis=None), lam,
                        atol=1e-12 * scale)
        assert_allclose(md.power(0.3j), flow, atol=1e-12 * scale)
        assert_allclose(md.jc, jc, atol=1e-12)
        assert_allclose(md.tomita_matrix(), sc,
                        atol=1e-12 * np.exp(scale / 2))

    # the complement projector
    comp = symplectic_complement(g)
    q = np.linalg.qr(times_i(n) @ g.basis, mode="complete")[0][:, k * tiles:]
    assert_allclose(_projector(comp), q @ q.T, atol=1e-12)

    # the largest tile norm, rows and columns permuted independently
    x = np.zeros((n, 2 * n), dtype=complex)
    for t in range(tiles):
        x[t * r:(t + 1) * r, 2 * t * r:2 * (t + 1) * r] = (
            rng.normal(size=(r, 2 * r)) + 1j * rng.normal(size=(r, 2 * r)))
    rows, cols = rng.permutation(n), rng.permutation(2 * n)
    x = x[rows][:, cols]
    stack = _gather(x, _permuted_tiles(rows, tiles),
                    _permuted_tiles(cols, tiles))
    assert stdspace.tile_norm(stack) == pytest.approx(np.linalg.norm(x, 2),
                                                      rel=1e-12)


def test_one_tile_primitives_are_the_plain_numpy_calls():
    # one tile runs the stack body on a view with a tile axis of length 1
    # and merges nothing, so every primitive returns, bit for bit, what
    # the numpy call on the whole array returns: on a matrix and a stack
    rng = np.random.default_rng(11)
    x = rng.normal(size=(9, 6)) + 1j * rng.normal(size=(9, 6))
    assert stdspace.tile_norm(x[None]) == np.linalg.norm(x, 2)
    for a in (x, rng.normal(size=(3, 9, 6))):
        q, r = np.linalg.qr(a)
        signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
        assert np.array_equal(stdspace.qr_basis(a), q * signs[..., None, :])

    n = 6
    standard = [bgl.NetModel.massive().wedge_subspace(
        spacetime.Region.wedge_right((0.0, 0.0)))]
    for shape in ((), (3,)):
        def span(k):
            z = (rng.normal(size=shape + (k, n))
                 + 1j * rng.normal(size=shape + (k, n)))
            return make_subspace(z)

        h, g = span(n), span(4)
        standard.append(h)
        b_h, b_g = h.basis, g.basis
        _, s, vt = np.linalg.svd(b_g - b_h @ (b_h.swapaxes(-1, -2) @ b_g),
                                 full_matrices=False)
        sines, v = principal_angles(b_h, b_g)
        assert np.array_equal(sines, s[..., ::-1])
        assert np.array_equal(v, vt[..., ::-1, :].swapaxes(-1, -2))
        q = np.linalg.qr(times_i(n) @ b_g, mode="complete")[0]
        assert np.array_equal(symplectic_complement(g).basis, q[..., 4:])

    for h in standard:
        lam, u, jc, _, _ = _dense_modular(h)
        md = modular_data(h)
        assert np.array_equal(md.log_delta[..., 0, :], lam)
        assert np.array_equal(md.vecs, u)
        assert np.array_equal(md.jc, jc)


def test_tilings_meet_on_the_coarser_where_one_refines_the_other():
    n = 8
    fine = np.arange(n).reshape(4, 2)
    pairs = np.array([[0, 1, 4, 5], [2, 3, 6, 7]])
    across = np.array([[0, 1, 2, 4], [3, 5, 6, 7]])
    one = np.arange(n)[None]
    assert np.array_equal(stdspace._common(n, fine, pairs), pairs)
    assert np.array_equal(stdspace._common(n, pairs, fine, fine), pairs)
    assert np.array_equal(stdspace._common(n, fine, None), one)
    # neither of two tilings refines the other: one tile
    assert np.array_equal(stdspace._common(n, pairs, across), one)
    assert np.array_equal(stdspace._common(n, pairs[::-1], pairs), pairs[::-1])
    # a basis moves with the union of its tiles' columns, ascending
    cols = np.array([[6, 1], [0, 7], [2, 5], [3, 4]])
    assert np.array_equal(stdspace._moved(pairs, fine, cols),
                          [[1, 2, 5, 6], [0, 3, 4, 7]])
    assert np.array_equal(stdspace._moved(fine, fine, cols), cols)
    assert np.array_equal(stdspace._moved(one, fine, cols), [np.arange(n)])


def test_transform_runs_on_the_tiles_of_the_unitary():
    # four tiles of 2 slots, moved by a unitary that mixes tile t with
    # tile t + 2: the image is formed and kept on those pairs of tiles
    rng = np.random.default_rng(12)
    n = 8
    h = _direct_sum_basis(rng, 4, 2, 2, np.arange(n), np.arange(n))
    pairs = np.array([[0, 1, 4, 5], [2, 3, 6, 7]])
    u = np.zeros((n, n), dtype=complex)
    for p in pairs:
        z = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
        u[np.ix_(p, p)] = np.linalg.qr(z)[0]
    moved = h.transform(_gather(u, pairs, pairs), pairs)
    assert np.array_equal(moved.tiling[0], pairs)
    dense = RealSubspace.from_complex(u @ h.complex_basis())
    assert dense.tiling[0].shape[0] == 1
    assert subspace_distance(moved, dense) < 1e-14
    assert h.transform(u).tiling[0].shape[0] == 1


def _tiled_chiral_wedge():
    """H(W_R) of the chiral sum at n = 9: two tiles of 9 slots."""
    net = bgl.NetModel.chiral_sum(n=9)
    h = net.wedge_subspace(spacetime.Region.wedge_right((0.0, 0.0)))
    assert h.tiling[0].shape == (2, 9)
    return net, h


def test_a_stack_of_tiled_subspaces_is_read_member_by_member():
    # two subspaces on the chiral sum's two tiles, stacked: each member's
    # tile spectra are sorted on their own, so the stack's reports are
    # those of each member alone
    net, h = _tiled_chiral_wedge()
    g = net.wedge_subspace(spacetime.Region.wedge_right((0.3, -0.2)))
    assert g.tiling is h.tiling
    stack = RealSubspace(np.stack([h.tiles, g.tiles]), h.tiling)
    swapped = RealSubspace(np.stack([g.tiles, h.tiles]), h.tiling)
    rep, md = standardness(stack), modular_data(stack)
    dist = subspace_distance(stack, swapped)
    gap = containment_gap(stack, swapped)
    assert rep.cyclic.shape == dist.shape == gap.shape == (2,)
    for i, (one, other) in enumerate(((h, g), (g, h))):
        alone = standardness(one)
        assert (rep.cyclic[i], rep.separating[i], rep.minimal_angle[i]) == (
            alone.cyclic, alone.separating, alone.minimal_angle)
        md_one = modular_data(one)
        for x, y in ((md.log_delta, md_one.log_delta), (md._v, md_one._v),
                     (md._j, md_one._j)):
            assert np.array_equal(x[i], y)
        assert dist[i] == subspace_distance(one, other) > 0.1
        assert gap[i] == containment_gap(one, other)


@pytest.mark.parametrize("shape", [(18, 19), (1, 1), (18,), (2, 17, 17),
                                   (9, 9), (3, 9, 9)])
def test_a_unitary_off_its_tiling_is_refused(shape):
    # a wrong shape is named where the operand enters, on the model's
    # tiles and on one tile alike, by transform and by the symmetry check
    net, h = _tiled_chiral_wedge()
    u = np.ones(shape, dtype=complex)
    for tiles in (net.tiles, None):
        with pytest.raises(ValueError, match=re.escape(f"{shape}")):
            h.transform(u, tiles)
        with pytest.raises(ValueError, match=re.escape(f"{shape}")):
            symmetry_commutation_check(h, u, tiles)
    # the stack of the tiles is refused as one tile, and the one tile as
    # the stack
    stack = np.broadcast_to(np.eye(9), (2, 9, 9))
    for u, tiles in ((stack, None), (np.eye(18), net.tiles)):
        with pytest.raises(ValueError, match=re.escape(f"{u.shape}")):
            h.transform(u, tiles)
    for u, tiles in ((stack, net.tiles), (np.eye(18), None)):
        assert symmetry_commutation_check(h, u, tiles).max_residual == 0.0


def _scattered(stack, rows, cols):
    """The dense matrix with tile t of ``stack`` at (rows[t], cols[t]),
    else 0, of each member of a stack."""
    out = np.zeros(stack.shape[:-3] + (rows.size, cols.size),
                   dtype=stack.dtype)
    out[..., rows[:, :, None], cols[:, None, :]] = stack
    return out


def _merge_case(name, rng):
    """(stack, rows, new, cols, new_cols) of one move to a coarser tiling."""
    def normal(*shape):
        return rng.normal(size=shape) + 1j * rng.normal(size=shape)

    if name == "action tiles":
        # twisted's factor tiles onto the tiles of its copy rotation
        net = bgl.NetModel.twisted(n=5)
        rows, new = net.tiles, net.action_tiles
        return normal(4, 5, 5), rows, new, rows, new
    if name == "subspace":
        # a basis's real-form rows and its columns, each tile paired
        # with the one two further on
        n = 8
        h = _direct_sum_basis(rng, 4, 2, 2, rng.permutation(n),
                              rng.permutation(n))
        own, cols = h.tiling
        coarse = np.hstack(np.split(own, 2))
        return (h.tiles, stdspace._doubled(own, n),
                stdspace._doubled(coarse, n), cols,
                stdspace._moved(coarse, own, cols))
    if name == "one tile":
        rows = _permuted_tiles(rng.permutation(12), 3)
        cols = _permuted_tiles(rng.permutation(6), 3)
        return (normal(3, 4, 2), rows, np.arange(12)[None], cols,
                np.arange(6)[None])
    # a leading stack axis, onto coarse tiles whose slots are not sorted
    fine = _permuted_tiles(rng.permutation(8), 4)
    coarse = np.hstack([fine[[0, 1]], fine[[3, 2]]])
    return normal(2, 3, 4, 2, 2), fine, coarse, fine, coarse


@pytest.mark.parametrize("case", ["action tiles", "subspace", "one tile",
                                  "stack"])
def test_merge_is_the_gather_of_the_dense_scatter(case):
    stack, rows, new, cols, new_cols = _merge_case(
        case, np.random.default_rng(29))
    got = stdspace.merged(stack, rows, new, cols, new_cols)
    want = _gather(_scattered(stack, rows, cols), new, new_cols)
    assert got.shape == stack.shape[:-3] + new.shape + new_cols.shape[-1:]
    assert got.dtype == stack.dtype
    assert np.array_equal(got, want)
    # a stack on the tiling it has is returned as it is
    assert stdspace.merged(got, new, new, new_cols, new_cols) is got


@pytest.mark.parametrize("shape", [(1,), (17,), (19,), (18, 1), (2, 18)])
def test_phased_refuses_phases_that_are_not_one_per_slot(shape):
    # a length-1 vector is not a global phase, and a longer one is not
    # read by each tile's slots
    _, h = _tiled_chiral_wedge()
    with pytest.raises(ValueError, match=re.escape(f"{shape}")):
        h.phased(np.ones(shape, dtype=complex))
    assert h.phased(np.ones(18)).dim == h.dim


def test_a_handed_tiling_must_hold_every_nonzero():
    rng = np.random.default_rng(3)
    n = 6
    h = _direct_sum_basis(rng, 3, 2, 2, rng.permutation(n),
                          rng.permutation(n))
    rows, cols = h.tiling
    assert rows.shape == cols.shape == (3, 2)
    # a subspace handed a tiling is handed its tiles, which hold every
    # nonzero by their shape: they are the gather of the dense basis, and
    # the dense basis handed with the tiling is refused
    assert h.tiles.shape == (3, 4, 2)
    assert np.array_equal(
        h.tiles, _gather(h.basis, stdspace._doubled(rows, n), cols))
    assert RealSubspace(h.tiles, h.tiling).dim == n
    with pytest.raises(ValueError, match="do not match the tiling"):
        RealSubspace(h.basis, h.tiling)
    # so is an operator: the dense matrix handed tiles is refused by its
    # shape, and its one n x n tile is taken whole
    u = np.eye(n, dtype=complex)
    with pytest.raises(ValueError, match=re.escape(f"{u.shape}")):
        h.transform(u, rows)
    assert h.transform(u).tiling[0].shape[0] == 1


def test_modular_data_takes_a_handed_tiling_and_refuses_dense_data():
    rng = np.random.default_rng(8)
    n = 6
    h = _direct_sum_basis(rng, 3, 2, 2, rng.permutation(n),
                          rng.permutation(n))
    md = modular_data(h)                  # handed the slots of h's tiles
    rows = md.tiling
    assert np.array_equal(rows, h.tiling[0]) and rows.shape == (3, 2)
    assert md._v.shape == md._j.shape == (3, 2, 2)
    assert md.log_delta.shape == (3, 2)
    # a producer's eigenvector tiles may come in any order: each tile's
    # columns, shuffled with their log Delta, are kept as handed and give
    # the same operators
    p = np.array([rng.permutation(2) for _ in range(3)])
    read = ModularData(np.take_along_axis(md._v, p[:, None, :], axis=-1),
        np.take_along_axis(md.log_delta, p, axis=-1), md._j, tiling=rows)
    assert read.tiling is rows
    assert np.array_equal(read.log_delta,
                          np.take_along_axis(md.log_delta, p, axis=-1))
    assert_allclose(read.power(0.3j), md.power(0.3j), atol=1e-14)
    assert read.delta_norm == md.delta_norm
    # data handed no tiling is one tile: V's dense columns sit on the
    # slots of their tiles, and so does the flat log Delta; dense data
    # handed a tiling is refused
    flat = np.empty(n)
    flat[rows] = md.log_delta
    dense = ModularData(md.vecs, flat, md.jc)
    assert dense.tiling.shape[0] == 1
    assert np.array_equal(dense.vecs, md.vecs)
    assert_allclose(dense.power(0.3j), md.power(0.3j), atol=1e-14)
    with pytest.raises(ValueError, match="the tiles of each"):
        ModularData(md.vecs, md.log_delta, md.jc, tiling=md.tiling)
    # a modular unitary moves H on the tiles of its stack, and its dense
    # matrix on one tile, to the same image
    moved = h.transform(md.power_tiles(0.3j), rows)
    assert np.array_equal(moved.tiling[0], rows)
    dense = h.transform(md.delta_it(0.3))
    assert dense.tiling[0].shape[0] == 1
    assert subspace_distance(moved, dense) < 1e-14


def test_producers_hand_their_tiling_to_the_subspaces_they_build():
    rng = np.random.default_rng(4)
    n, tiles = 6, 3
    h = _direct_sum_basis(rng, tiles, 2, 2, rng.permutation(n),
                          rng.permutation(n))
    rows = h.tiling[0]
    # the real-orthonormalised span of complex columns: qr_basis on the
    # real form of each tile of the columns, so the span of a tiled
    # orthonormal basis, tiled as that basis
    spanned = RealSubspace.orthonormalised(h.complex_tiles(),
                                           h.tiling)
    assert subspace_distance(spanned, h) < 1e-12
    assert np.array_equal(spanned.tiling[0], rows)
    assert RealSubspace.orthonormalised(
        h.complex_basis()).tiling[0].shape[0] == 1
    # the complement keeps the slots of each tile
    assert np.array_equal(symplectic_complement(h).tiling[0], rows)
    # a phase move keeps the tiling itself and needs unit phases
    phases = np.exp(1j * rng.normal(size=n))
    moved = h.phased(phases)
    assert moved.tiling is h.tiling
    assert np.array_equal(moved.basis, RealSubspace.from_complex(
        phases[:, None] * h.complex_basis()).basis)
    assert subspace_distance(moved, h.transform(np.diag(phases))) < 1e-14
    for bad in (1.01 * phases, np.where(np.arange(n) == 2, np.nan, phases)):
        with pytest.raises(ValueError, match="modulus 1"):
            h.phased(bad)


def test_tiles_of_unequal_intersection_dimension_merge_untiled():
    # two tiles that meet in 2 and in 0 real dimensions: the tiles keep
    # unequal numbers of columns, so the intersection is placed tile by
    # tile and keeps no tiling of its own
    rng = np.random.default_rng(6)
    r = 3
    shared = rng.normal(size=(2 * r, 2))
    family = []
    for _ in range(2):
        c = np.zeros((2 * r, 6), dtype=complex)
        for t, core in enumerate((shared, shared[:, :0])):
            extra = rng.normal(size=(2 * r, 3 - core.shape[1]))
            q = np.linalg.qr(np.hstack([core, extra]))[0]
            c[t * r:(t + 1) * r, 3 * t:3 * (t + 1)] = q[:r] + 1j * q[r:]
        tiling = np.arange(2 * r).reshape(2, r), np.arange(6).reshape(2, 3)
        family.append(RealSubspace.from_complex(_gather(c, *tiling), tiling))
    assert stdspace._joint(*family)[0].shape[0] == 2
    exact = intersect(family)
    halperin = intersect(family, method="halperin", max_iter=1 << 20)
    assert exact.dim == halperin.dim == 2
    assert subspace_distance(exact, halperin) < 1e-8
    assert np.all(exact.basis[np.r_[r:2 * r, 3 * r:4 * r]] == 0.0)
    assert exact.tiling[0].shape[0] == 1
