"""Tests for the second-quantization layer.

The matrix oracle here is built from scratch: sparse ladder operators
on the truncated occupancy basis, field operators a(f) + a*(f), and
Weyl operators through the exponential map.  Symbolic reductions,
exponential vectors, and the lifted involution are all checked against
it or against closed forms.
"""

import math

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse.linalg import expm_multiply

from modnet import bgl
from modnet import cli
from modnet import fock
from modnet import spacetime
from modnet import stdspace

PHASE_TOL = 1e-8
EXACT_TOL = 1e-10
ASSOC_TOL = 1e-12

N_MODES = 4
ORDER = 12


# ---------------------------------------------------------------------------
# the truncated-Fock matrix oracle
# ---------------------------------------------------------------------------


def _oracle_ladders(n=N_MODES, order=ORDER):
    bases = [fock.occupancy_basis(n, k) for k in range(order + 1)]
    offs = np.cumsum([0] + [len(b) for b in bases])
    dim = int(offs[-1])
    raised = []
    for i in range(n):
        rows, cols, vals = [], [], []
        for k in range(order):
            nxt = {a: p for p, a in enumerate(bases[k + 1])}
            for p, alpha in enumerate(bases[k]):
                up = list(alpha)
                up[i] += 1
                rows.append(offs[k + 1] + nxt[tuple(up)])
                cols.append(offs[k] + p)
                vals.append(math.sqrt(alpha[i] + 1))
        raised.append(sp.csr_matrix((vals, (rows, cols)), shape=(dim, dim)))
    return raised, dim


_RAISED, _DIM = _oracle_ladders()


def _oracle_weyl(f, v):
    """Apply W(f) = exp(i(a*(f) + a(f))) on the truncated space."""
    gen = sp.csr_matrix((_DIM, _DIM), dtype=complex)
    for i in range(N_MODES):
        gen = gen + f[i] * _RAISED[i] + np.conj(f[i]) * _RAISED[i].T
    return expm_multiply(1j * gen.tocsc(), v)


def _oracle_vacuum():
    v = np.zeros(_DIM, dtype=complex)
    v[0] = 1.0
    return v


def _flatten(v):
    return np.concatenate([v.coeffs[k] for k in range(v.order + 1)])


def _random_amp(rng, scale=0.6):
    f = rng.normal(size=N_MODES) + 1j * rng.normal(size=N_MODES)
    return f * (scale / np.linalg.norm(f))


# ---------------------------------------------------------------------------
# symbolic Weyl reduction
# ---------------------------------------------------------------------------


def test_single_letter_reduces_to_itself():
    f = np.array([1.0, 2.0j, 0.0, -1.0])
    phase, amp = fock.weyl_reduce(fock.WeylWord.of(f))
    assert phase == 1.0
    assert np.array_equal(amp, f)


def test_identity_letter_is_neutral():
    f = np.array([0.5, -0.25j, 1.0, 0.0])
    phase, amp = fock.weyl_reduce(fock.WeylWord.of(f, np.zeros(4)))
    assert phase == pytest.approx(1.0)
    assert np.allclose(amp, f)


def test_equal_letters_double_without_phase():
    f = np.array([0.3 + 0.4j, -1.0, 0.2j, 0.0])
    phase, amp = fock.weyl_reduce(fock.WeylWord.of(f, f))
    assert phase == pytest.approx(1.0, abs=1e-15)
    assert np.allclose(amp, 2 * f)


def test_inverse_word_reduces_to_identity():
    rng = np.random.default_rng(3)
    f = _random_amp(rng)
    val = fock.vacuum_expectation(fock.WeylWord.of(f, -f))
    assert val == pytest.approx(1.0, abs=1e-14)


def test_empty_word_is_the_unit():
    phase, amp = fock.weyl_reduce(fock.WeylWord(()))
    assert phase == 1.0 and amp.size == 0
    assert fock.vacuum_expectation(fock.WeylWord(())) == pytest.approx(1.0)


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_reduction_bracketings_agree(seed):
    rng = np.random.default_rng(seed)
    letters = [_random_amp(rng) for _ in range(5)]
    flat = fock.weyl_reduce(letters)
    # fold the same word in several bracketings through compose
    left = fock.weyl_reduce(letters[:1])
    for f in letters[1:]:
        left = fock.weyl_compose(left, fock.weyl_reduce([f]))
    mid = fock.weyl_compose(fock.weyl_reduce(letters[:2]),
                            fock.weyl_reduce(letters[2:]))
    nested = fock.weyl_compose(
        fock.weyl_reduce(letters[:1]),
        fock.weyl_compose(fock.weyl_reduce(letters[1:3]),
                          fock.weyl_reduce(letters[3:])))
    for other in (left, mid, nested):
        assert abs(flat[0] - other[0]) < ASSOC_TOL
        assert np.allclose(flat[1], other[1], atol=ASSOC_TOL)


def test_reduction_phase_matches_matrix_oracle():
    rng = np.random.default_rng(9)
    f, g = _random_amp(rng), _random_amp(rng, 0.5)
    v = _oracle_vacuum()
    for amp in (-f - g, g, f):
        v = _oracle_weyl(amp, v)
    oracle_phase = np.vdot(_oracle_vacuum(), v)
    phase, amp = fock.weyl_reduce(fock.WeylWord.of(f, g, -f - g))
    assert np.linalg.norm(amp) == 0.0
    assert abs(phase) == pytest.approx(1.0, abs=1e-12)
    assert abs(phase - oracle_phase) < PHASE_TOL


def test_vacuum_functional_closed_form():
    f = np.array([1.0, 1.0, 0.0, 0.0])    # ||f||^2 = 2
    val = fock.vacuum_expectation(fock.WeylWord.of(f))
    assert val == pytest.approx(math.exp(-1.0), abs=1e-15)


def test_vacuum_overlap_matches_oracle():
    rng = np.random.default_rng(13)
    f, g = _random_amp(rng), _random_amp(rng, 0.45)
    symbolic = fock.vacuum_expectation(fock.WeylWord.of(-f, g))
    oracle = np.vdot(_oracle_weyl(f, _oracle_vacuum()),
                     _oracle_weyl(g, _oracle_vacuum()))
    assert abs(symbolic - oracle) < PHASE_TOL


def test_gram_matrix_of_weyl_states_is_positive():
    rng = np.random.default_rng(17)
    amps = [np.zeros(N_MODES)] + [_random_amp(rng, 0.7) for _ in range(5)]
    gram = np.array([[fock.vacuum_expectation(fock.WeylWord.of(-fi, fj))
                      for fj in amps] for fi in amps])
    assert np.linalg.norm(gram - gram.conj().T, 2) < 1e-13
    eig = np.linalg.eigvalsh((gram + gram.conj().T) / 2)
    assert eig.min() > -fock.tail_bound(0.7, ORDER)


# ---------------------------------------------------------------------------
# Fock vectors
# ---------------------------------------------------------------------------


def test_vacuum_vector_is_unit_and_degree_zero():
    v = fock.FockVector.vacuum(N_MODES, ORDER)
    assert v.norm() == pytest.approx(1.0)
    assert all(np.linalg.norm(v.coeffs[k]) == 0.0
               for k in range(1, ORDER + 1))


def test_exponential_vector_of_zero_is_vacuum():
    v = fock.exponential_vector(np.zeros(N_MODES), ORDER)
    assert (v - fock.FockVector.vacuum(N_MODES, ORDER)).norm() == 0.0


def test_exponential_vector_overlap_formula():
    rng = np.random.default_rng(21)
    f, g = _random_amp(rng, 0.8), _random_amp(rng, 0.7)
    ev_f = fock.exponential_vector(f, ORDER)
    ev_g = fock.exponential_vector(g, ORDER)
    expected = np.exp(np.vdot(f, g))
    assert ev_f.inner(ev_g) == pytest.approx(expected, abs=1e-10)


def test_weyl_vacuum_vector_norm_and_overlap():
    rng = np.random.default_rng(23)
    f = _random_amp(rng, 1.0)
    w = fock.weyl_vacuum_vector(f, ORDER)
    assert abs(w.norm() - 1.0) < PHASE_TOL
    vac = fock.FockVector.vacuum(N_MODES, ORDER)
    expected = math.exp(-0.5 * float(np.vdot(f, f).real))
    assert vac.inner(w) == pytest.approx(expected, abs=1e-10)


def test_weyl_vacuum_vector_matches_oracle_componentwise():
    rng = np.random.default_rng(29)
    f = _random_amp(rng, 0.6)
    module = _flatten(fock.weyl_vacuum_vector(f, ORDER))
    oracle = _oracle_weyl(f, _oracle_vacuum())
    assert np.linalg.norm(module - oracle) < PHASE_TOL


def test_weyl_overlaps_match_symbolic_reduction():
    rng = np.random.default_rng(31)
    f, g = _random_amp(rng, 0.5), _random_amp(rng, 0.5)
    lhs = fock.weyl_vacuum_vector(f, ORDER).inner(
        fock.weyl_vacuum_vector(g, ORDER))
    rhs = fock.vacuum_expectation(fock.WeylWord.of(-f, g))
    tail = fock.tail_bound(1.0, ORDER)
    assert abs(lhs - rhs) < tail + 1e-10


def test_fock_vector_shape_validation():
    with pytest.raises(ValueError, match="wrong length"):
        fock.FockVector(2, 1, [np.ones(1), np.ones(5)])
    with pytest.raises(ValueError, match="per degree"):
        fock.FockVector(2, 2, [np.ones(1), np.ones(2)])


def test_tail_bound_shrinks_with_order():
    values = [fock.tail_bound(1.0, k) for k in (4, 8, 12)]
    assert values[0] > values[1] > values[2]
    assert values[2] == pytest.approx(1.0 / math.sqrt(math.factorial(13)))


# ---------------------------------------------------------------------------
# the second-quantization functor
# ---------------------------------------------------------------------------


def test_gamma_identity_is_identity():
    rng = np.random.default_rng(41)
    v = fock.exponential_vector(_random_amp(rng), ORDER)
    assert (fock.gamma_apply(np.eye(N_MODES), v) - v).norm() == 0.0


def test_gamma_on_exponential_vectors():
    rng = np.random.default_rng(43)
    a = rng.normal(size=(N_MODES, N_MODES)) \
        + 1j * rng.normal(size=(N_MODES, N_MODES))
    a *= 0.8 / np.linalg.norm(a, 2)
    g = _random_amp(rng, 0.9)
    lhs = fock.gamma_apply(a, fock.exponential_vector(g, ORDER))
    rhs = fock.exponential_vector(a @ g, ORDER)
    assert (lhs - rhs).norm() < EXACT_TOL


def test_gamma_functoriality_on_random_vectors():
    rng = np.random.default_rng(47)
    mats = []
    for _ in range(2):
        m = rng.normal(size=(N_MODES, N_MODES)) \
            + 1j * rng.normal(size=(N_MODES, N_MODES))
        mats.append(m * (0.9 / np.linalg.norm(m, 2)))
    a, b = mats
    v = fock.FockVector(N_MODES, ORDER, [
        rng.normal(size=len(fock.occupancy_basis(N_MODES, k)))
        + 1j * rng.normal(size=len(fock.occupancy_basis(N_MODES, k)))
        for k in range(ORDER + 1)])
    lhs = fock.gamma_apply(a @ b, v)
    rhs = fock.gamma_apply(a, fock.gamma_apply(b, v))
    assert (lhs - rhs).norm() < EXACT_TOL * v.norm()


def test_gamma_adjoint_compatibility():
    rng = np.random.default_rng(53)
    a = rng.normal(size=(N_MODES, N_MODES)) \
        + 1j * rng.normal(size=(N_MODES, N_MODES))
    a *= 0.8 / np.linalg.norm(a, 2)
    u = fock.exponential_vector(_random_amp(rng, 0.8), ORDER)
    w = fock.exponential_vector(_random_amp(rng, 0.7), ORDER)
    lhs = fock.gamma_apply(a, u).inner(w)
    rhs = u.inner(fock.gamma_apply(a.conj().T, w))
    assert lhs == pytest.approx(rhs, abs=1e-10)


def test_gamma_antilinear_on_exponential_vectors():
    rng = np.random.default_rng(59)
    m = rng.normal(size=(N_MODES, N_MODES)) \
        + 1j * rng.normal(size=(N_MODES, N_MODES))
    m *= 0.8 / np.linalg.norm(m, 2)
    g = _random_amp(rng, 0.9)
    lhs = fock.gamma_apply(m, fock.exponential_vector(g, ORDER),
                           antilinear=True)
    rhs = fock.exponential_vector(m @ np.conj(g), ORDER)
    assert (lhs - rhs).norm() < EXACT_TOL


def _reference_gamma_blocks(a, order):
    """Degree blocks one column at a time, scattering each creation mode
    with ``np.add.at``."""
    n = a.shape[0]
    blocks = [np.ones((1, 1), dtype=complex)]
    for k in range(1, order + 1):
        src = fock.occupancy_basis(n, k)
        prev_pos = {alpha: p for p, alpha in
                    enumerate(fock.occupancy_basis(n, k - 1))}
        up_pos = {alpha: p for p, alpha in enumerate(src)}
        block = np.zeros((len(src), len(src)), dtype=complex)
        for p, alpha in enumerate(src):
            j = next(i for i in range(n) if alpha[i])
            down = list(alpha)
            down[j] -= 1
            col = blocks[k - 1][:, prev_pos[tuple(down)]]
            out = np.zeros(len(src), dtype=complex)
            for i in range(n):
                if a[i, j] == 0:
                    continue
                tgt, fac = [], []
                for beta in fock.occupancy_basis(n, k - 1):
                    up = list(beta)
                    up[i] += 1
                    tgt.append(up_pos[tuple(up)])
                    fac.append(math.sqrt(beta[i] + 1))
                np.add.at(out, np.array(tgt), a[i, j] * np.array(fac) * col)
            block[:, p] = out / math.sqrt(alpha[j])
        blocks.append(block)
    return blocks


@pytest.mark.parametrize("antilinear", [False, True])
@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_gamma_blocks_match_the_column_loop(n, antilinear):
    rng = np.random.default_rng(60 + n)
    for order in range(7):
        a = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
        if not antilinear:
            # structural zeros: the column loop skips those modes
            a[rng.random((n, n)) < 0.3] = 0.0
        blocks = fock._gamma_blocks(a, order)
        ref = _reference_gamma_blocks(a, order)
        for got, want in zip(blocks, ref):
            assert np.array_equal(got, want)
            assert np.array_equal(np.signbit(got.view(float)),
                                  np.signbit(want.view(float)))
        v = fock.FockVector(n, order, [
            rng.normal(size=len(fock.occupancy_basis(n, k)))
            + 1j * rng.normal(size=len(fock.occupancy_basis(n, k)))
            for k in range(order + 1)])
        out = fock.gamma_apply(a, v, antilinear=antilinear)
        for k in range(order + 1):
            c = np.conj(v.coeffs[k]) if antilinear else v.coeffs[k]
            assert np.array_equal(out.coeffs[k], ref[k] @ c)


def test_gamma_rejects_mismatched_operator():
    v = fock.FockVector.vacuum(N_MODES, 2)
    with pytest.raises(ValueError, match="one-particle space"):
        fock.gamma_apply(np.eye(3), v)


# ---------------------------------------------------------------------------
# lifted Tomita consistency
# ---------------------------------------------------------------------------


def _real_slice(n):
    return stdspace.RealSubspace(np.vstack([np.eye(n), np.zeros((n, n))]))


def test_tomita_zero_vector_is_exact():
    h = _real_slice(N_MODES)
    assert fock.second_quantized_tomita_check(
        h, np.zeros(N_MODES), ORDER) == 0.0


def test_tomita_on_the_real_slice():
    rng = np.random.default_rng(61)
    h = _real_slice(N_MODES)
    f = rng.normal(size=N_MODES)
    f /= np.linalg.norm(f)
    assert fock.second_quantized_tomita_check(h, f, ORDER) < PHASE_TOL


def test_tomita_on_model_wedges():
    net = bgl.NetModel.massive(n=4, h=2.5)
    region = spacetime.Region.wedge_right((0.0, 0.0))
    sub = net.wedge_subspace(region)
    for col in range(0, sub.dim, 2):
        f = sub.complex_basis()[:, col] * 0.8
        residual = fock.second_quantized_tomita_check(sub, f, ORDER)
        bound = net.epsilon + fock.tail_bound(np.linalg.norm(f), ORDER)
        assert residual < bound + PHASE_TOL


def test_tomita_combination_vectors():
    net = bgl.NetModel.massive(n=4, h=2.5)
    sub = net.wedge_subspace(spacetime.Region.wedge_right((0.0, 0.0)))
    rng = np.random.default_rng(67)
    w = rng.normal(size=sub.dim)
    f = sub.complex_basis() @ w
    f *= 0.9 / np.linalg.norm(f)
    residual = fock.second_quantized_tomita_check(sub, f, ORDER)
    assert residual < net.epsilon + fock.tail_bound(0.9, ORDER) + PHASE_TOL


def test_tomita_rejects_outside_vectors():
    h = _real_slice(N_MODES)
    with pytest.raises(ValueError, match="not in the subspace"):
        fock.second_quantized_tomita_check(
            h, 1j * np.ones(N_MODES), ORDER)


def test_tomita_rejects_wrong_dimension():
    h = _real_slice(N_MODES)
    with pytest.raises(ValueError, match=r"\(3,\) is not"):
        fock.second_quantized_tomita_check(h, np.ones(3), ORDER)


# ---------------------------------------------------------------------------
# one-particle locality
# ---------------------------------------------------------------------------


def test_locality_of_dual_wedges():
    net = bgl.NetModel.chiral_sum(n=9)
    w_r = spacetime.Region.wedge_right((0.0, 0.0))
    w_l = spacetime.Region.wedge_left((0.0, 0.0))
    report = fock.locality_commutation_check(net, w_r, w_l)
    assert report.max_form <= cli.CHECKS["fock-checks"]["weyl-locality"][0]
    # every pair of basis vectors, none sampled away
    assert report.pairs_checked == (net.wedge_subspace(w_r).dim
                                    * net.wedge_subspace(w_l).dim)


def test_locality_rejects_overlapping_regions():
    net = bgl.NetModel.chiral_sum(n=9)
    with pytest.raises(ValueError, match="spacelike"):
        fock.locality_commutation_check(
            net, spacetime.Region.wedge_right((0.0, 0.0)),
            spacetime.Region.wedge_right((1.0, -1.0)))


def test_locality_handles_trivial_subspaces():
    net = bgl.NetModel.chiral_sum(n=9)
    cone = spacetime.Region.double_cone((-2.0, -1.0), (1.0, 2.0))
    wedge = spacetime.Region.wedge_right((-3.0, 3.0))
    if spacetime.spacelike(cone, wedge):
        report = fock.locality_commutation_check(net, cone, wedge)
        assert report.max_form == 0.0
        assert report.pairs_checked == 0
