"""Bosonic second quantization over finite one-particle spaces.

Weyl operators are handled symbolically: a word W(f_1)...W(f_k)
reduces to a single phase and amplitude through the canonical
commutation cocycle, and the vacuum functional evaluates reduced words
in closed form.  For checks that need actual vectors, truncated Fock
spaces are realized in occupancy coordinates (one orthonormal basis
element per multi-index), where exponential vectors, the
second-quantization functor, and the lifted Tomita involution of a
standard subspace all have explicit desk-scale forms; the functor's
degree blocks are filled column-parallel from per-degree index tables.
Truncation errors are tracked by the tail bound ||f||^(N+1)/sqrt((N+1)!).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import math

import numpy as np

from . import spacetime
from . import stdspace

#: default occupancy truncation of Fock-space computations
DEFAULT_ORDER = 12

#: tolerance for membership of a test vector in a real subspace
MEMBERSHIP_TOL = 1e-10


# ---------------------------------------------------------------------------
# symbolic Weyl algebra
# ---------------------------------------------------------------------------


def _pairing(f, g):
    """The session's one-particle pairing (f, g), linear in ``f``."""
    return complex(np.vdot(np.asarray(g), np.asarray(f)))


@dataclasses.dataclass(frozen=True)
class WeylWord:
    """An ordered product of Weyl generators, one amplitude per letter."""

    letters: tuple

    @classmethod
    def of(cls, *amplitudes):
        return cls(tuple(np.asarray(a, dtype=complex) for a in amplitudes))


def weyl_reduce(word):
    """Collapse a Weyl word to its (phase, amplitude) normal form.

    Letters multiply left to right; each step contributes the cocycle
    phase e^{i Im(acc, f)} and extends the amplitude additively.  Plain
    sequences of vectors are accepted in place of a word.
    """
    letters = word.letters if isinstance(word, WeylWord) else tuple(word)
    if not letters:
        return 1.0 + 0.0j, np.zeros(0, dtype=complex)
    acc = np.zeros_like(np.asarray(letters[0], dtype=complex))
    phase = 1.0 + 0.0j
    for f in letters:
        f = np.asarray(f, dtype=complex)
        phase *= np.exp(1j * _pairing(acc, f).imag)
        acc = acc + f
    return phase, acc


def weyl_compose(left, right):
    """Combine two reduced forms as the reduction of their product."""
    p1, a1 = left
    p2, a2 = right
    return p1 * p2 * np.exp(1j * _pairing(a1, a2).imag), a1 + a2


def vacuum_expectation(word):
    """Vacuum functional of a Weyl word: phase times e^{-||f||^2 / 2}."""
    phase, amp = weyl_reduce(word)
    return phase * math.exp(-0.5 * float(np.vdot(amp, amp).real))


# ---------------------------------------------------------------------------
# occupancy-coordinate Fock vectors
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=None)
def occupancy_basis(n, degree):
    """Multi-indices of total degree over n modes, lexicographic."""
    out = []
    for combo in itertools.combinations_with_replacement(range(n), degree):
        alpha = [0] * n
        for i in combo:
            alpha[i] += 1
        out.append(tuple(alpha))
    return tuple(out)


@functools.lru_cache(maxsize=None)
def _positions(n, degree):
    return {alpha: i for i, alpha in enumerate(occupancy_basis(n, degree))}


@functools.lru_cache(maxsize=None)
def _raisers(n, degree):
    """Index maps of a_i^dag from degree to degree + 1.

    Returns per-mode arrays (targets, factors): the normalized basis
    element alpha goes to sqrt(alpha_i + 1) times alpha + e_i.
    """
    src = occupancy_basis(n, degree)
    pos = _positions(n, degree + 1)
    maps = []
    for i in range(n):
        tgt = np.empty(len(src), dtype=np.intp)
        fac = np.empty(len(src))
        for p, alpha in enumerate(src):
            up = list(alpha)
            up[i] += 1
            tgt[p] = pos[tuple(up)]
            fac[p] = math.sqrt(alpha[i] + 1)
        maps.append((tgt, fac))
    return tuple(maps)


@functools.lru_cache(maxsize=None)
def _lowerings(n, degree):
    """Column data of the degree block of the functor (degree >= 1).

    Returns per-element arrays (lead, down, norm): the first occupied
    mode j of alpha, the position of alpha - e_j one degree down, and
    sqrt(alpha_j).
    """
    src = occupancy_basis(n, degree)
    pos = _positions(n, degree - 1)
    lead = np.empty(len(src), dtype=np.intp)
    down = np.empty(len(src), dtype=np.intp)
    norm = np.empty(len(src))
    for p, alpha in enumerate(src):
        j = next(i for i in range(n) if alpha[i])
        lower = list(alpha)
        lower[j] -= 1
        lead[p], down[p], norm[p] = j, pos[tuple(lower)], math.sqrt(alpha[j])
    return lead, down, norm


class FockVector:
    """A truncated symmetric-tensor vector in occupancy coordinates.

    ``coeffs[k]`` holds the degree-k component over the orthonormal
    occupancy basis of ``occupancy_basis(n, k)``.
    """

    __slots__ = ("n", "order", "coeffs")

    def __init__(self, n, order, coeffs):
        self.n = int(n)
        self.order = int(order)
        self.coeffs = [np.asarray(c, dtype=complex) for c in coeffs]
        if len(self.coeffs) != self.order + 1:
            raise ValueError("need one component per degree up to the order")
        for k, c in enumerate(self.coeffs):
            if c.shape != (len(occupancy_basis(self.n, k)),):
                raise ValueError(f"degree {k} component has wrong length")

    @classmethod
    def vacuum(cls, n, order):
        coeffs = [np.zeros(len(occupancy_basis(n, k)), dtype=complex)
                  for k in range(order + 1)]
        coeffs[0][0] = 1.0
        return cls(n, order, coeffs)

    def inner(self, other):
        if (self.n, self.order) != (other.n, other.order):
            raise ValueError("vectors live in different truncations")
        return complex(sum(np.vdot(a, b)
                           for a, b in zip(self.coeffs, other.coeffs)))

    def norm(self):
        return math.sqrt(max(self.inner(self).real, 0.0))

    def __sub__(self, other):
        return FockVector(self.n, self.order,
                          [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __add__(self, other):
        return FockVector(self.n, self.order,
                          [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def scaled(self, z):
        return FockVector(self.n, self.order, [z * c for c in self.coeffs])

    def __repr__(self):
        return (f"FockVector(n={self.n}, order={self.order}, "
                f"norm={self.norm():.6f})")


def exponential_vector(g, order):
    """e(g) with degree-k coefficients prod g_i^{alpha_i} / sqrt(alpha!)."""
    g = np.asarray(g, dtype=complex)
    n = g.size
    coeffs = []
    for k in range(order + 1):
        basis = occupancy_basis(n, k)
        c = np.empty(len(basis), dtype=complex)
        for p, alpha in enumerate(basis):
            term = 1.0 + 0.0j
            for gi, ai in zip(g, alpha):
                if ai:
                    term *= gi ** ai / math.sqrt(math.factorial(ai))
            c[p] = term
        coeffs.append(c)
    return FockVector(n, order, coeffs)


def weyl_vacuum_vector(f, order):
    """W(f) applied to the vacuum: e^{-||f||^2 / 2} e(i f)."""
    f = np.asarray(f, dtype=complex)
    scale = math.exp(-0.5 * float(np.vdot(f, f).real))
    return exponential_vector(1j * f, order).scaled(scale)


def tail_bound(f_norm, order):
    """Norm bound of the discarded degrees of e(if) past the order."""
    return float(f_norm) ** (order + 1) / math.sqrt(
        math.factorial(order + 1))


# ---------------------------------------------------------------------------
# second quantization
# ---------------------------------------------------------------------------


def _gamma_blocks(a, order):
    """Degree-block matrices of the functor for a one-particle matrix.

    Built by the ladder recursion: the image of a normalized occupancy
    element alpha is a_j^dag (in the columns of ``a``) applied to the
    image of alpha - e_j, divided by sqrt(alpha_j), where j is the first
    occupied mode of alpha.  Each degree block is filled for all its
    columns at once, one creation mode i at a time.
    """
    a = np.asarray(a, dtype=complex)
    n = a.shape[0]
    blocks = [np.ones((1, 1), dtype=complex)]
    for k in range(1, order + 1):
        lead, down, norm = _lowerings(n, k)
        prev = blocks[k - 1][:, down]
        coef = a[:, lead]
        block = np.zeros((len(lead), len(lead)), dtype=complex)
        for i, (tgt, fac) in enumerate(_raisers(n, k - 1)):
            block[tgt] += (coef[i][None, :] * fac[:, None]) * prev
        blocks.append(block / norm)
    return blocks


def gamma_apply(a, v, antilinear=False):
    """Apply the second quantization of a one-particle operator.

    ``a`` is the complex matrix of the operator; for an antilinear
    operator pass its linear part (the matrix with the conjugation
    factored out on the right) together with ``antilinear=True``.
    """
    a = np.asarray(a, dtype=complex)
    if a.shape != (v.n, v.n):
        raise ValueError("operator does not match the one-particle space")
    blocks = _gamma_blocks(a, v.order)
    coeffs = []
    for k in range(v.order + 1):
        c = np.conj(v.coeffs[k]) if antilinear else v.coeffs[k]
        coeffs.append(blocks[k] @ c)
    return FockVector(v.n, v.order, coeffs)


# ---------------------------------------------------------------------------
# lifted Tomita consistency
# ---------------------------------------------------------------------------


def second_quantized_tomita_check(h, f, order=DEFAULT_ORDER):
    """Residual of the lifted involution on a Weyl vacuum vector.

    For f in the standard subspace the one-particle Tomita operator
    fixes f, so its second quantization must send W(f) vacuum to
    W(-f) vacuum; the returned residual is the norm of the difference
    at the given truncation and is controlled by the tail bound plus
    the modular recomputation error.
    """
    f = np.asarray(f, dtype=complex)
    if f.shape != (h.n,):
        raise ValueError(f"test vector of shape {f.shape} is not ({h.n},)")
    # the real projection onto H is B Re(B* f)
    b = h.complex_basis()
    scale = max(float(np.linalg.norm(f)), 1.0)
    gap = float(np.linalg.norm(f - b @ (b.conj().T @ f).real))
    if gap > MEMBERSHIP_TOL * scale:
        raise ValueError(
            f"test vector is not in the subspace (distance {gap:.3e})")
    lifted = gamma_apply(stdspace.modular_data(h).tomita_matrix(),
                         weyl_vacuum_vector(f, order), antilinear=True)
    return (lifted - weyl_vacuum_vector(-f, order)).norm()


# ---------------------------------------------------------------------------
# one-particle locality
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class LocalityReport:
    max_form: float
    pairs_checked: int


def _region_subspace(net, region):
    kinds = spacetime.RegionKind
    if region.kind is kinds.DOUBLE_CONE:
        return net.region_subspace_dual(region)
    return net.wedge_subspace(region)


def locality_commutation_check(net, region_a, region_b):
    """Imaginary pairing between subspaces of spacelike regions.

    A vanishing form makes every pair of Weyl operators over the two
    subspaces commute (the cocycle phase is 1), so max |Im (f, g)| over
    every pair of basis vectors, the entries of one product B* A, is the
    locality residual.  Non-spacelike regions are rejected.
    """
    if not spacetime.spacelike(region_a, region_b):
        raise ValueError("regions are not spacelike separated")
    sub_a = _region_subspace(net, region_a)
    sub_b = _region_subspace(net, region_b)
    if sub_a.dim == 0 or sub_b.dim == 0:
        return LocalityReport(0.0, 0)
    form = sub_b.complex_basis().conj().T @ sub_a.complex_basis()
    return LocalityReport(float(np.max(np.abs(form.imag))), form.size)
