"""Standard subspaces and finite-dimensional modular theory.

Vectors and operators live on the complex space C^n, where n is the
number of slots of an object's tiling (below), read from the shape of
its one tile if it is handed none: no object is handed n apart from its
arrays, and operands of different n are refused.  An operator is a
complex n x n matrix, linear (xi -> x xi) or antilinear (xi -> x
conj(xi)), and a residual is the spectral norm of such a matrix.  A
real subspace H is the real span of the columns of a complex n x k
matrix B.  :class:`RealSubspace` stores the orthonormal real basis [Re
B; Im B] of each of its tiles (below), which the lattice operations
(intersections, sums, complements, principal angles) need, and is the
one place that knows this layout: ``complex_tiles`` reads B's tiles,
``from_complex`` builds a subspace from them, ``transform`` moves H by
a unitary as u B, and the dense real basis b = [Re B; Im B] of R^{2n}
and B itself are formed on request.

Modular theory runs on B.  One SVD gives its standardness and, by the
Rieffel-van Daele formulas, its whole modular data, held in eigen form
(eigenvectors V, the log Delta of each of their columns, the complex
matrix of J) by :class:`ModularData`, the one record of modular data; S,
the flows and the powers of Delta are formed only on request, and no
dense Delta is formed to validate it.

Subspaces and modular data also take stacks: a basis of shape (...,
2n, k) holds one subspace per leading index, all of dimension k, and
every matrix operation runs over the stack at once (numpy's ``svd`` and
``@`` loop over it in LAPACK/BLAS).  A single subspace is a stack
without leading axes, so there is one code path, and each member of a
stack gets the same floating-point result as it gets alone.  The
primitives that take stacks are :func:`make_subspace`,
:func:`standardness`, :func:`modular_data`, :func:`symplectic_complement`,
:func:`subspace_distance`, :func:`containment_gap`,
:func:`principal_angles`, ``transform`` and ``phased``; the others,
:func:`intersect`, :func:`sum_closure`, :func:`subspace_from_modular`,
:func:`modular_roundtrip` and :func:`symmetry_commutation_check`, refuse
them by name.

Tiles are a direct sum, a stack is a batch.  The models are direct sums
(two chiral factors, two copies of them, one rapidity block per mass),
and the modular data of a direct sum of standard subspaces is the
direct sum of the summands' data.  The producer of an object declares
its tiling, the slots of each tile (and a subspace's basis columns of
each), and an object handed none is one tile: nothing is read from zero
patterns.
A subspace, modular data or operator handed a tiling is handed the
stack of its tiles, so nothing outside the tiles can be handed in.
Every primitive runs the stack of an operand's tiles through its one
stack body, and the results merge back: spectra are concatenated and
sorted before any threshold reads them, and a norm is the largest tile
norm.  One tile is a view of the whole array.  Operands on different
tilings meet on the coarser one where one refines the other, a lookup
of each slot's tile, else on one tile, and :func:`merged` moves each
stack there.  Subspaces and modular data store only their tile stacks,
log Delta by tile in the column order its producer hands; a dense
basis, V, J or power is their merge into one tile, formed for a
consumer that asks for one.

Labels declare which tiles are equal.  The producer of a tiled object
may hand a label per tile, and tiles of one label are bitwise equal:
the model reads them from the factor records and the region, never
from array entries (see :mod:`bgl`).  Every stack body runs on the first
tile of each class and indexes the other tiles from it; numpy gives
each stack member the result it would get alone, so no result moves.
Counts and sorted spectra are taken after that indexing, over every
tile.  Operands that meet on a tiling meet as the tuple of their labels
there, and a tile merged from several carries the set of their labels,
each with its place in it (:func:`merged_labels`).  An object handed no
labels has one class per tile.
"""

from __future__ import annotations

import dataclasses
import math
import warnings

import numpy as np

#: relative singular-value threshold for rank/kernel decisions
RANK_REL_TOL = 1e-8
#: tolerance on structural invariants (orthogonality, involutivity, ...)
INVARIANT_TOL = 1e-10
#: relative tolerance for the modular balance J Delta J = Delta^{-1}
BALANCE_TOL = 1e-9
#: default tolerance on subspace distances
SUBSPACE_TOL = 1e-8
#: smallest principal-angle sine counted as nonzero (separating test,
#: exact intersections)
ANGLE_TOL = 1e-8
#: kernel-extraction conditioning gap below which a warning is issued
GAP_WARN = 1e2


def _T(a):
    """Transpose of the last two axes: of one matrix or of each of a stack."""
    return a.swapaxes(-1, -2)


def _common_rank(s):
    """Numerical rank from descending singular values s (..., k), counted
    against ``RANK_REL_TOL`` * s_max; equal over a stack, or ValueError."""
    rank = (s > RANK_REL_TOL * s[..., :1]).sum(axis=-1)
    ranks = set(np.ravel(rank).tolist())
    if len(ranks) > 1:
        raise ValueError("the members of a stack differ in rank")
    return ranks.pop() if ranks else 0


class HalperinNonConvergence(RuntimeError):
    """Cyclic projection iteration failed to settle within the budget."""

    def __init__(self, residual, iterations):
        super().__init__(
            f"alternating projections did not converge: residual {residual:.3e} "
            f"after {iterations} effective iterations"
        )
        self.residual = residual
        self.iterations = iterations


class ConditioningWarning(UserWarning):
    """Kernel extraction performed near its conditioning limit."""


class RealSubspace:
    """A real-linear subspace of C^n: the real span of the columns of a
    complex n x k matrix B, held as its tiles' orthonormal real bases.

    ``tiling`` is (slots (T, s), columns of B (T, k_t)) of each tile, as
    handed in by the producer, else one tile; n is the number of its
    slots, and ``labels`` those of its tiles, or None.  Only ``tiles``
    (..., T, 2s, k_t) is stored: tile t's block of B in real form, rows
    [Re slots; Im slots]; leading axes hold a stack of subspaces.  The
    dense ``basis`` b = [Re B; Im B] (2n x k) and ``complex_basis`` B
    are their merges into one tile, formed on request.
    """

    __slots__ = ("tiles", "tiling", "labels")

    def __init__(self, basis, tiling=None, labels=None):
        """``basis`` is the stack of tiles on a handed ``tiling``, else
        the one tile (..., 2n, k), n >= 1 read from its rows; a tiling of
        no columns is one tile, of no labels."""
        b = np.asarray(basis, dtype=float)
        if tiling is not None and not tiling[1].size:
            b, tiling = np.zeros(b.shape[:-3] + (2 * tiling[0].size, 0)), None
            labels = None
        if tiling is None:
            if b.ndim < 2 or b.shape[-2] % 2 or not b.shape[-2]:
                raise ValueError("basis must be a (2n x k) matrix or a "
                                 "stack, n >= 1")
            b = b[..., None, :, :]
            tiling = _one_tile(b.shape[-2] // 2), _one_tile(b.shape[-1])
        rows, cols = tiling
        if b.shape[-3:] != (len(rows), 2 * rows.shape[1], cols.shape[1]):
            raise ValueError(f"tiles of shape {b.shape} do not match the "
                             f"tiling of {rows.shape} slots")
        # orthonormal tile by tile; "not <=" refuses a NaN error too
        first = _take(b, _classes(labels, len(rows))[0])
        gram = _T(first) @ first - np.eye(b.shape[-1])
        if not np.max(np.abs(gram), initial=0.0) <= INVARIANT_TOL:
            raise ValueError("basis columns are not orthonormal")
        b.setflags(write=False)
        self.tiles, self.tiling, self.labels = b, tiling, labels

    @classmethod
    def from_complex(cls, c, tiling=None, labels=None):
        """The real span of the complex columns c, whose real form must be
        orthonormal: c is the stack of tiles on a handed ``tiling``, else
        the one n x k tile (or a stack of them)."""
        c = np.asarray(c, dtype=complex)
        return cls(np.concatenate([c.real, c.imag], axis=-2), tiling, labels)

    @classmethod
    def orthonormalised(cls, c, tiling=None, labels=None):
        """The real span of the complex columns c, of real rank k, by
        :func:`qr_basis` of the real form of each tile: c as in
        :meth:`from_complex`."""
        first, inverse = _classes(labels, 1 if tiling is None
                                  else len(tiling[0]))
        c = _take(np.asarray(c, dtype=complex), first)
        q = qr_basis(np.concatenate([c.real, c.imag], axis=-2))
        return cls(_take(q, inverse), tiling, labels)

    n = property(lambda self: self.tiling[0].size)
    dim = property(lambda self: self.tiling[1].size)

    @property
    def basis(self):
        """The dense real basis b = [Re B; Im B] (..., 2n, k)."""
        rows, cols = self.tiling
        return _dense(self.tiles, _doubled(rows, self.n), cols)

    def complex_tiles(self):
        """The tiles of B, (..., T, s, k_t)."""
        return _complexified(self.tiles)

    def complex_basis(self):
        """B = b[:n] + i b[n:]: H is the real span of the columns of B."""
        return _dense(self.complex_tiles(), *self.tiling)

    def transform(self, u, tiles=None, labels=None):
        """Image under a unitary, given as the stack u (..., T, s, s) of
        its complex tiles on the slots ``tiles`` (T, s), of the tile
        ``labels``, or with None as the one n x n tile; a stack of
        unitaries maps each member of a stack of subspaces.  u B is taken
        tile by tile on the common tiling of u and H, kept by the image
        with the meet of their labels, and the constructor's Gram check
        refuses a u that is not unitary."""
        u, tiles = _operator(u, tiles, self.n)
        rows = _common(self.n, self.tiling[0], tiles)
        stack, own = _tiles_on(self, rows)
        labels = _meet(merged_labels(labels, tiles, rows), own)
        first, inverse = _classes(labels, len(rows))
        image = (_take(merged(u, tiles, rows), first)
                 @ _complexified(_take(stack, first)))
        return RealSubspace.from_complex(
            _take(image, inverse), (rows, _moved(rows, *self.tiling)), labels)

    def phased(self, phases, labels=None):
        """Image under the diagonal unitary diag(phases), phases (n,) of
        modulus 1, taken on each tile's slots, with ``labels`` those of
        the phases on each tile: an orthonormal basis, tiled as this one
        and labelled by the meet, needs no check."""
        phases = np.asarray(phases)
        if phases.shape != (self.n,):
            raise ValueError(f"phases of shape {phases.shape} are not "
                             f"({self.n},)")
        if not np.max(np.abs(np.abs(phases) - 1.0)) <= INVARIANT_TOL:
            raise ValueError("phases must have modulus 1")
        _classes(labels, len(self.tiling[0]))    # refuses a wrong count
        c = phases[self.tiling[0]][..., None] * self.complex_tiles()
        moved = object.__new__(RealSubspace)
        moved.tiling, moved.labels = self.tiling, _meet(self.labels, labels)
        moved.tiles = np.concatenate([c.real, c.imag], axis=-2)
        moved.tiles.setflags(write=False)
        return moved

    def __repr__(self):
        return f"RealSubspace(dim={self.dim} of R^{2 * self.n})"


def _max_entry(c):
    """Largest entry of the real form of a complex matrix: the largest
    modulus of its real and imaginary parts."""
    return np.maximum(np.max(np.abs(c.real)), np.max(np.abs(c.imag)))


# ---------------------------------------------------------------------------
# tiles: the declared direct sum of an operand
# ---------------------------------------------------------------------------


def _one_tile(n):
    """The tiling of n indices as one tile."""
    return np.arange(n)[None]


def _classes(labels, count):
    """The first tile of each class of the ``count`` tile ``labels``, and
    the class of each tile, as index arrays; (None, None), which index
    nothing, where each tile is its own class.  Labels of another count
    are refused."""
    if labels is None:
        return None, None
    if len(labels) != count:
        raise ValueError(f"{len(labels)} labels for {count} tiles")
    seen = {}
    inverse = [seen.setdefault(label, len(seen)) for label in labels]
    if len(seen) == count:
        return None, None
    return np.unique(inverse, return_index=True)[1], np.array(inverse)


def _take(x, index, axis=-3):
    """x at the tiles ``index`` of its tile axis (-3 for a stack of
    matrices, -2 for one of spectra); x itself for None."""
    return x if index is None else np.take(x, index, axis=axis)


def _meet(*labels):
    """The labels of operands on one tiling, met tile by tile: the tuple
    of theirs, or None where one operand has none."""
    if any(label is None for label in labels):
        return None
    return tuple(zip(*labels))


def merged_labels(labels, rows, new, cols=None, new_cols=None):
    """The labels of the tiles of :func:`merged` with the same tilings:
    each the set of its tiles' labels, each with the places it lands at;
    None stays None."""
    if cols is None:
        cols, new_cols = rows, new
    if labels is None or (np.array_equal(rows, new)
                          and np.array_equal(cols, new_cols)):
        return labels
    tile, at_r = np.divmod(np.argsort(new, axis=None)[rows], new.shape[1])
    at_c = np.argsort(new_cols, axis=None)[cols] % new_cols.shape[1]
    parts = [set() for _ in new]
    for label, k, r, c in zip(labels, tile[:, 0], at_r.tolist(),
                              at_c.tolist()):
        parts[k].add((label, tuple(r), tuple(c)))
    return tuple(map(frozenset, parts))


def _common(n, *tilings):
    """The tiling the slot tilings meet on (None is one tile): the
    coarsest of them if every other refines it, which a lookup of each
    slot's tile in the coarsest decides, else one tile."""
    tilings = [_one_tile(n) if t is None else t for t in tilings]
    coarse = min(tilings, key=len)
    label = np.argsort(coarse, axis=None) // coarse.shape[1]
    if all(np.all(label[r] == label[r[:, :1]]) for r in tilings):
        return coarse
    return _one_tile(n)


def _moved(rows, own, cols):
    """The columns of each tile of ``rows`` for the tiling (own, cols)
    that refines it: the union of the columns of its tiles, ascending."""
    if np.array_equal(own, rows):
        return cols
    label = np.argsort(rows, axis=None) // rows.shape[1]
    order = np.argsort(label[own[:, 0]], kind="stable")
    return np.sort(cols[order].reshape(rows.shape[0], -1), axis=-1)


def _doubled(slots, n):
    """The rows of [Re; Im] of the slots of each tile."""
    return np.hstack([slots, slots + n])


def _complexified(stack):
    """The complex tiles of real-form tiles [Re; Im] (..., 2s, k)."""
    s = stack.shape[-2] // 2
    return stack[..., :s, :] + 1j * stack[..., s:, :]


def _tiles_on(h, rows):
    """The real-form tiles of H on the slots ``rows`` of a tiling that its
    own refines (:func:`_common`), and their labels."""
    (own, cols), n = h.tiling, h.n
    new_cols = _moved(rows, own, cols)
    return (merged(h.tiles, _doubled(own, n), _doubled(rows, n),
                   cols, new_cols),
            merged_labels(h.labels, own, rows, cols, new_cols))


def _operator(u, tiles, n):
    """The stack u (..., T, s, s) of an operator's tiles on the slots
    ``tiles`` (T, s), and those slots; with None, u is the one n x n
    tile.  A u of another shape is refused."""
    u = np.asarray(u)
    shape = (n, n) if tiles is None else tiles.shape + tiles.shape[-1:]
    if u.shape[-len(shape):] != shape:
        raise ValueError(f"unitary of shape {u.shape} is not "
                         f"(..., {', '.join(map(str, shape))})")
    if tiles is None:
        u, tiles = u[..., None, :, :], _one_tile(n)
    return u, tiles


def merged(stack, rows, new, cols=None, new_cols=None):
    """The ``stack`` (..., T, a, b) of tiles on ``rows`` as the stack on
    ``new``, a tiling that ``rows`` refines: each tile lands at its
    indices within the tile of ``new`` that holds them, every other entry
    is 0, and the columns move from ``cols`` to ``new_cols`` (the rows if
    None).  A stack on the tiling it has is returned as it is."""
    if cols is None:
        cols, new_cols = rows, new
    if np.array_equal(rows, new) and np.array_equal(cols, new_cols):
        return stack
    tile, at_r = np.divmod(np.argsort(new, axis=None)[rows], new.shape[1])
    at_c = np.argsort(new_cols, axis=None)[cols] % new_cols.shape[1]
    out = np.zeros(stack.shape[:-3] + new.shape + new_cols.shape[-1:],
                   dtype=stack.dtype)
    out[..., tile[:, :1, None], at_r[:, :, None], at_c[:, None, :]] = stack
    return out


def _dense(stack, rows, cols=None):
    """The matrix of ``stack`` on ``rows`` and ``cols``: one merged tile."""
    cols = rows if cols is None else cols
    return merged(stack, rows, _one_tile(rows.size), cols,
                  _one_tile(cols.size))[..., 0, :, :]


def _descending(s):
    """The tiles' spectra (..., T, k) of each member of a stack, sorted
    together, descending."""
    if s.shape[-2] == 1:
        return s[..., 0, :]
    return np.sort(s.reshape(s.shape[:-2] + (-1,)), axis=-1)[..., ::-1]


def tile_norm(stack, labels=None):
    """The norm of the direct sum of ``stack``, of the tile ``labels``:
    one values-only SVD of a tile of each class."""
    first, _ = _classes(labels, stack.shape[-3] if stack.ndim > 2 else 1)
    return float(np.max(np.linalg.svd(_take(stack, first),
                                      compute_uv=False)[..., 0]))


def qr_basis(a):
    """Q of the reduced QR of a full-rank a (or of each of a stack), its
    columns signed so that R has a positive diagonal: the one such
    orthonormal basis of the leading spans of a."""
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _orthonormal_basis(columns):
    """Orthonormal basis of the column span, rank by relative threshold.

    ``columns`` may be a stack (..., 2n, k); its spans must share a rank.
    """
    a = np.asarray(columns, dtype=float)
    if a.size == 0:
        return np.zeros(a.shape[:-1] + (0,))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[..., :_common_rank(s)]


def make_subspace(vectors):
    """Real span of a family of complex vectors, as a RealSubspace.

    ``vectors`` is an array (..., k, n) of k vectors of C^n, n >= 1 read
    from its last axis; k = 0 gives the zero subspace, and leading axes
    hold families whose spans form a stack.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.ndim < 2 or not v.shape[-1]:
        raise ValueError("vectors must be an array (..., k, n), n >= 1")
    cols = _T(np.concatenate([v.real, v.imag], axis=-1))
    return RealSubspace(_orthonormal_basis(cols))


def principal_angles(a, b):
    """Principal-angle sines of span(b) against span(a), ascending.

    ``a`` and ``b`` are orthonormal bases (d x k_a, d x k_b).  The sines
    are the k_b singular values of (1 - P_a) b, taken on the thin
    d x k_b matrix: small angles keep absolute accuracy near machine
    epsilon, where the cosine route loses half the digits (Bjorck-Golub
    1973, Knyazev-Argentati 2002).  When k_b > k_a the surplus directions
    of span(b) have sine 1.  Returns ``(sines, v)``: ``b @ v[:, j]`` is the
    unit vector of span(b) at angle ``arcsin(sines[j])`` to span(a).
    Stacks of bases (..., d, k) give stacks of sines and vectors.
    """
    _, s, vt = np.linalg.svd(b - a @ (_T(a) @ b), full_matrices=False)
    return s[..., ::-1], _T(vt[..., ::-1, :])


def _largest_sine(a, b, labels):
    """||(1 - P_a) b||, the largest sine of span(b) against span(a), for
    the tile stacks a and b of a pair of the tile ``labels``: the largest
    over the tiles, one of each class."""
    first, _ = _classes(labels, a.shape[-3])
    a, b = _take(a, first), _take(b, first)
    s = _descending(np.linalg.svd(b - a @ (_T(a) @ b), compute_uv=False))
    return s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])


def containment_gap(big, small):
    """Largest sine of small against big: ||(1 - P_big) B_small||."""
    _, stacks, labels = _joint(big, small)
    return _largest_sine(*stacks, labels)


def subspace_distance(h1, h2):
    """Operator norm ||P_1 - P_2|| of the difference of the projections.

    Equal to the larger of the two containment gaps, so it is computed
    on the thin bases and never forms a projector; the pair is tiled
    once for both.
    """
    _, (b1, b2), labels = _joint(h1, h2)
    return np.maximum(_largest_sine(b2, b1, labels),
                      _largest_sine(b1, b2, labels))


def _times_i(b, n):
    """i times the real-form columns b (..., 2n, k): the slot swap
    [-Im; Re], a signed permutation, so every entry is exact; adding 0
    turns each -0 into +0."""
    return np.concatenate([-b[..., n:, :], b[..., :n, :]], axis=-2) + 0.0


def symplectic_complement(h):
    """H' = {xi : Im<xi, eta> = 0 for all eta in H} = (i H)^perp: the
    trailing 2n - k columns of one complete QR of i b, which is
    orthonormal and so has rank exactly k = dim H; of each tile of i b,
    on that tile's rows, one of each class, and H' keeps the tiling and
    labels of H."""
    rows, cols = h.tiling
    first, inverse = _classes(h.labels, len(rows))
    q = np.linalg.qr(_times_i(_take(h.tiles, first), rows.shape[1]),
                     mode="complete")[0][..., cols.shape[1]:]
    slots = np.arange(len(rows) * q.shape[-1]).reshape(len(rows), -1)
    return RealSubspace(_take(q, inverse), (rows, slots), h.labels)


@dataclasses.dataclass(frozen=True)
class StandardnessReport:
    """Standardness of a subspace; of a stack, arrays over its members."""

    cyclic: bool
    separating: bool
    minimal_angle: float

    @property
    def standard(self):
        return self.cyclic & self.separating


def _standardness_of(s, h):
    """The standardness report of H from the singular values s of B."""
    n = h.n
    cyclic = np.sum(s > RANK_REL_TOL * s[..., :1], axis=-1) == n
    if h.dim == 0:
        minimal = np.full(s.shape[:-1], math.pi / 2)
    else:
        s_min = s[..., -1] if h.dim <= n else np.zeros(s.shape[:-1])
        minimal = 2.0 * np.arcsin(np.minimum(s_min / math.sqrt(2.0), 1.0))
    # [()] turns the 0-d results of a single subspace into scalars
    return StandardnessReport(cyclic[()], (minimal > ANGLE_TOL)[()],
                              minimal[()])


def standardness(h):
    """Cyclicity (H + iH dense), separation (H with iH trivial), angles.

    With b orthonormal and b_i = [-Im B; Re B] the real basis of iH,
    B* B = 1 - i b^T b_i, so the singular values of the n x k complex B
    are sqrt(1 +- cos theta_j) over the angles theta_j between H and iH,
    and [b, b_i] has each of them twice.  H is cyclic when B has full
    rank n (the relative count of ``RANK_REL_TOL``), and the minimal
    angle is 2 asin(sigma_min / sqrt 2), accurate near 0 and near pi/2
    alike; for k > n, B has a kernel and the angle is 0.  A tiled B
    gives its tiles' singular values together, one SVD per class.
    """
    first, inverse = _classes(h.labels, len(h.tiling[0]))
    s = np.linalg.svd(_complexified(_take(h.tiles, first)),
                      compute_uv=False)
    return _standardness_of(_descending(_take(s, inverse, -2)), h)


# ---------------------------------------------------------------------------
# modular data
# ---------------------------------------------------------------------------


def _require(checks):
    """Raise on the first invariant whose error exceeds ``INVARIANT_TOL``
    or is NaN."""
    for name, err in checks.items():
        if not err <= INVARIANT_TOL:
            raise ValueError(f"modular invariant violated: {name} "
                             f"(error {err:.3e})")


class ModularData:
    """Modular pair (J, Delta) of a standard subspace, in eigen form.

    Delta = V diag(e^{log_delta}) V* with V = ``vecs`` unitary and
    ``log_delta`` real, and J = ``jc`` conj.  Validated at construction:
    finite data, V unitary, J orthogonal and involutive, and J Delta J =
    Delta^{-1}; Delta > 0 by construction.  The ``tiling`` is the slots
    (T, s) of each tile, as handed in by the producer, else one tile; n
    is the number of its slots, and ``labels`` those of its tiles, or
    None; the invariants are required of one tile of each class.
    Stored are the (..., T, s, s) tiles of V and jc and ``log_delta``
    (..., T, s), the eigenvalues of each tile's columns of V, all in the
    order the producer hands them; tile t's columns of the dense ``vecs``
    sit on its slots.  The dense ``vecs`` and ``jc`` are scatters, and
    flows, powers and the matrix of S are formed only on request.  Handed
    a tiling, the constructor takes the tiles, else the one tile (n, n),
    (n) and (n, n).  Leading axes hold a stack of modular data; each
    invariant is then required of every member, and the properties and
    methods return stacks.
    """

    __slots__ = ("log_delta", "tiling", "labels", "_v", "_j")

    def __init__(self, vecs, log_delta, jc, tiling=None, labels=None):
        v = np.asarray(vecs, dtype=complex)
        lam = np.asarray(log_delta, dtype=float)
        j = np.asarray(jc, dtype=complex)
        if tiling is None:
            # the one tile's axis, inserted whatever the shapes; a wrong
            # shape is refused below
            v, j, lam = (a.reshape(a.shape[:-k] + (1,) + a.shape[-k:])
                         for a, k in ((v, 2), (j, 2), (lam, 1)))
            tiling = _one_tile(v.shape[-1])
        if (not tiling.size or v.shape[-3:] != tiling.shape + tiling.shape[-1:]
                or j.shape != v.shape or lam.shape != v.shape[:-1]):
            raise ValueError("V and jc must be n x n, log Delta of length n, "
                             "n >= 1, or the tiles of each")
        # validated tile by tile, one of each class, as one stack
        first, _ = _classes(labels, len(tiling))
        self.log_delta, self.tiling, self.labels = lam, tiling, labels
        self._v, self._j = v, j
        v, lam, j = _take(v, first), _take(lam, first, -2), _take(j, first)
        if not all(np.isfinite(a).all() for a in (v, lam, j)):
            raise ValueError("modular invariant violated: finite data")
        eye = np.eye(v.shape[-1])
        vh = _T(v.conj())
        # errors are the largest real-form entries of the residuals
        _require({
            "V unitary": _max_entry(vh @ v - eye),
            "J orthogonal": _max_entry(_T(j.conj()) @ j - eye),
            "J involutive": _max_entry(j @ j.conj() - eye),
        })
        # balance: X = V* jc conj(V) may couple lambda_i only with
        # -lambda_i.  J Delta^{1/2} = Delta^{-1/2} J reads X_ij e^{lambda_j/2}
        # = e^{-lambda_i/2} X_ij; its defect relative to the entry's size
        # is |X_ij tanh((lambda_i + lambda_j) / 4)|, free of any scale
        x = vh @ j @ v.conj()
        rel = float(np.max(np.abs(x) * np.abs(np.tanh(
            (lam[..., :, None] + lam[..., None, :]) / 4.0))))
        if not rel <= BALANCE_TOL:
            raise ValueError("modular invariant violated: J Delta J = "
                             f"Delta^-1 (relative error {rel:.3e})")

    n = property(lambda self: self.tiling.size)
    vecs = property(lambda self: _dense(self._v, self.tiling))
    jc = property(lambda self: _dense(self._j, self.tiling))

    @property
    def delta_norm(self):
        return np.exp(np.max(self.log_delta, axis=(-2, -1)))

    def power_tiles(self, z):
        """Delta^z = V diag(e^{z log Delta}) V*, its stack of tiles, one
        product per class."""
        first, inverse = _classes(self.labels, len(self.tiling))
        v = _take(self._v, first)
        values = np.exp(z * _take(self.log_delta, first, -2))[..., None, :]
        return _take((v * values) @ _T(v.conj()), inverse)

    def power(self, z):
        """Delta^z as a complex n x n matrix; Delta^{it} at z = i t."""
        return _dense(self.power_tiles(z), self.tiling)

    def delta_it(self, t):
        """The modular unitary Delta^{it}, as a complex n x n matrix."""
        return self.power(1j * t)

    def tomita_tiles(self):
        """Complex matrix jc conj(V) e^{log Delta / 2} V^T of S = J
        Delta^{1/2}, its stack of tiles, one product per class."""
        first, inverse = _classes(self.labels, len(self.tiling))
        v, j = _take(self._v, first), _take(self._j, first)
        lam = _take(self.log_delta, first, -2)
        half = v.conj() * np.exp(lam / 2.0)[..., None, :]
        return _take(j @ half @ _T(v), inverse)

    def tomita_matrix(self):
        """The complex matrix of S: S xi = tomita_matrix() conj(xi)."""
        return _dense(self.tomita_tiles(), self.tiling)

    def __repr__(self):
        return f"ModularData(n={self.n})"


def modular_data(h):
    """Modular data of a standard subspace, as a :class:`ModularData`.

    All of it comes from one complex SVD B = U s W* (Rieffel-van Daele
    1977): R = P_H + P_iH = B B*, P_H - P_iH = B B^T conj, Delta = (2 - R)
    R^{-1} and J is the phase of P_H - P_iH.  The singular values pair as
    sqrt(1 +- cos theta), so 2 - s_k^2 = s_{n-1-k}^2 =: s'_k^2, and with
    M = W* conj(W)

        log Delta = 2 log(s' / s) on the columns of U (ascending),
        J = U s M s'^{-1} U^T conj.

    The cyclic/separating gate reads the same singular values.  A stack
    of subspaces gives a stack of modular data, and is refused if any
    member is not standard.  B runs as the stack of its tiles, one of
    each class; the gate reads every tile's singular values sorted
    together, and V, log Delta and J are handed over as the tiles'
    stacks, labelled as H.
    """
    first, inverse = _classes(h.labels, len(h.tiling[0]))
    u, s, wh = np.linalg.svd(_complexified(_take(h.tiles, first)))
    rep = _standardness_of(_descending(_take(s, inverse, -2)), h)
    if not rep.cyclic.all():
        raise ValueError("subspace is not cyclic: H + iH does not span")
    if not rep.separating.all():
        raise ValueError(
            "subspace is not separating: H meets iH at angle "
            f"{np.min(rep.minimal_angle):.3e}"
        )
    pair = s[..., ::-1]
    a = (u * s[..., None, :]) @ (wh @ _T(wh))   # W* conj(W) = wh wh^T
    lam = 2.0 * np.log(pair / s)
    jc = (a / pair[..., None, :]) @ _T(u)
    # a standard B has square tiles, whose eigenvectors sit on their slots
    return ModularData(_take(u, inverse), _take(lam, inverse, -2),
                       _take(jc, inverse), tiling=h.tiling[0],
                       labels=h.labels)


def subspace_from_modular(m):
    """The standard subspace with the given modular data.

    Computed as the kernel of (S - 1) with S = J Delta^{1/2} in real
    form: S = x + i y acts on [Re; Im] as [[x, y], [y, -x]].  The
    conditioning of the split is monitored and a small spectral gap
    triggers :class:`ConditioningWarning`.
    """
    _one_record(m, "subspace_from_modular")
    x = m.tomita_matrix()
    s_op = np.block([[x.real, x.imag], [x.imag, -x.real]])
    u, sv, vt = np.linalg.svd(s_op - np.eye(2 * m.n))
    cut = RANK_REL_TOL * sv[0] if sv[0] > 0 else np.inf
    kernel_mask = sv <= cut
    if not np.any(kernel_mask):
        raise ValueError("S - 1 has trivial kernel; modular data degenerate")
    kept = sv[~kernel_mask]
    dropped = sv[kernel_mask]
    if kept.size and dropped.size and dropped.max() > 0:
        gap = kept.min() / dropped.max()
        if gap < GAP_WARN:
            warnings.warn(
                f"kernel split gap {gap:.1e} below {GAP_WARN:.0e}; "
                "fixed points of S are poorly resolved",
                ConditioningWarning,
                stacklevel=2,
            )
    basis = vt[kernel_mask.nonzero()[0], :].T
    return RealSubspace(basis)


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------


def _one_record(m, name):
    """Refuse a stack of modular data to the primitive ``name``."""
    if m.log_delta.ndim > 2:
        raise ValueError(f"{name} takes single modular data, not stacks")


def _one_n(subspaces, name=None):
    """The n of operands that must live in one C^n (subspaces, or modular
    data when no ``name`` is given); a primitive ``name`` given takes no
    stacks."""
    if name and any(h.tiles.ndim > 3 for h in subspaces):
        raise ValueError(f"{name} takes single subspaces, not stacks")
    ns = {h.n for h in subspaces}
    if len(ns) != 1:
        raise ValueError(f"need subspaces of one C^n, got n in {sorted(ns)}")
    return ns.pop()


def intersect(subspaces, method="exact", max_iter=5000, tol=1e-9):
    """Intersection of real subspaces.

    ``exact`` folds the family pairwise through :func:`principal_angles`:
    the running intersection keeps exactly the directions whose
    principal-angle sine against the next subspace is at most
    ``ANGLE_TOL``, so two subspaces meeting at an angle above ``ANGLE_TOL``
    count as disjoint there.  ``halperin`` squares the cyclic product
    T = P_m ... P_1 of the projections (Halperin 1962) in compressed form,
    T = b_m K b_1^T with K = (b_m^T b_{m-1}) ... (b_2^T b_1), as K <- K C K
    with C = b_1^T b_m; the isometries b_m, b_1 give K C K - K the norms of
    T^2 - T, and the intersection is b_m times the near-1 left singular
    vectors of the limit K.  Both run tile by tile on the family's joint
    tiling, one tile of each class of the met labels, K as a stack whose
    stop rule reads all its tiles; beyond that checked split the oracle
    shares no code with the exact method.
    """
    _one_n(subspaces, "intersect")
    if method == "exact":
        h = subspaces[0]
        for g in subspaces[1:]:
            rows, stacks, labels = _joint(g, h)
            pick, _ = _classes(labels, len(rows))
            a, b = (_take(x, pick) for x in stacks)
            sines, v = principal_angles(a, b)
            h = _spanned(rows, b, v, sines <= ANGLE_TOL, labels)
        return h
    if method != "halperin":
        raise ValueError(f"unknown method {method!r}")
    rows, stacks, labels = _joint(*subspaces)
    pick, _ = _classes(labels, len(rows))
    stacks = [_take(x, pick) for x in stacks]
    first, last = stacks[0], stacks[-1]
    k = np.eye(first.shape[-1])
    for a, b in zip(stacks, stacks[1:]):
        k = (_T(b) @ a) @ k
    c = _T(first) @ last
    iters = 1
    step = None
    while iters <= max_iter:
        k2 = k @ c @ k
        step = k2 - k
        k = k2
        iters *= 2
        # converged when ||T^2 - T||, the largest tile norm of step, is
        # <= tol; the largest entry bounds it from below and the Frobenius
        # norm from above, so the SVDs run only when neither bound decides
        if np.max(np.abs(step), initial=0.0) > tol:
            continue
        if np.linalg.norm(step) <= tol or tile_norm(step) <= tol:
            break
    else:
        residual = np.inf if step is None else tile_norm(step)
        raise HalperinNonConvergence(residual, iters)
    u, s, _ = np.linalg.svd(k, full_matrices=False)
    return _spanned(rows, last, u, s > 0.5, labels)


def _joint(*subspaces):
    """The slots of each tile, the tiles of each basis and the meet of
    their labels, on the common tiling of the subspaces
    (:func:`_common`), which share one n."""
    rows = _common(_one_n(subspaces), *(h.tiling[0] for h in subspaces))
    stacks, labels = zip(*(_tiles_on(h, rows) for h in subspaces))
    return rows, list(stacks), _meet(*labels)


def _spanned(rows, stack, vecs, keep, labels):
    """The span of stack[c] @ vecs[c][:, keep[c]] on the slots of each
    tile of class c of the tile ``labels``, the arguments given for the
    first tile of each class: their stack when every tile keeps as many
    columns, else one tile holding them tile after tile."""
    parts = [x @ v[:, m] for x, v, m in zip(stack, vecs, keep)]
    _, inverse = _classes(labels, len(rows))
    if inverse is not None:
        parts = [parts[c] for c in inverse]
    widths = [p.shape[1] for p in parts]
    cols = np.split(np.arange(sum(widths)), np.cumsum(widths)[:-1])
    if len(set(widths)) == 1:
        return RealSubspace(np.stack(parts), (rows, np.array(cols)), labels)
    out = np.zeros((2 * rows.size, sum(widths)))
    for r, c, p in zip(_doubled(rows, rows.size), cols, parts):
        out[r[:, None], c] = p
    return RealSubspace(out)


def sum_closure(subspaces):
    """Closed real span of a family of subspaces."""
    _one_n(subspaces, "sum_closure")
    return RealSubspace(_orthonormal_basis(
        np.hstack([h.basis for h in subspaces])))


# ---------------------------------------------------------------------------
# modular-theoretic checks
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class SymmetryReport:
    s_residual: float
    delta_residual: float
    j_residual: float

    @property
    def max_residual(self):
        return max(self.s_residual, self.delta_residual, self.j_residual)


def symmetry_commutation_check(h, u, tiles=None, labels=None):
    """A unitary preserving H commutes with its whole modular family.

    ``u`` is the stack of the unitary's complex tiles on the slots
    ``tiles``, of the tile ``labels``, or with None its one n x n tile,
    as in :meth:`RealSubspace.transform`.  U X U* - X is (u x) u* - x for a
    linear X and (u x) u^T - x for an antilinear one (xi -> x conj(xi));
    their spectral norms are the residuals, taken on the common tiling of
    u and the modular data, one tile of each class of their labels met.
    """
    u, tiles = _operator(np.asarray(u, dtype=complex), tiles,
                         _one_n([h], "symmetry_commutation_check"))
    d = subspace_distance(h, h.transform(u, tiles, labels))
    if d > SUBSPACE_TOL:
        raise ValueError(f"U does not preserve H (subspace distance {d:.3e})")
    m = modular_data(h)
    rows = _common(h.n, m.tiling, tiles)
    first, _ = _classes(_meet(merged_labels(labels, tiles, rows),
                              merged_labels(m.labels, m.tiling, rows)),
                        len(rows))
    ut = _take(merged(u, tiles, rows), first)
    s, delta, j = (_take(merged(x, m.tiling, rows), first)
                   for x in (m.tomita_tiles(), m.power_tiles(1.0), m._j))

    def deviation(x, right):
        return tile_norm((ut @ x) @ right - x)

    return SymmetryReport(
        deviation(s, _T(ut)),
        deviation(delta, _T(ut.conj())) / m.delta_norm,
        deviation(j, _T(ut)))


def modular_roundtrip(m1, h):
    """max(||J - J'||, ||Delta - Delta'|| / ||Delta||) between ``m1`` and
    the pair recomputed from ``h``, on the common tiling of the two."""
    _one_record(m1, "modular_roundtrip")
    _one_n([h], "modular_roundtrip")
    _one_n([m1, h])
    m2 = modular_data(h)
    rows = _common(h.n, m1.tiling, m2.tiling)
    first, _ = _classes(_meet(*(merged_labels(m.labels, m.tiling, rows)
                                for m in (m1, m2))), len(rows))
    (j1, d1), (j2, d2) = ([_take(merged(x, m.tiling, rows), first)
                           for x in (m._j, m.power_tiles(1.0))]
                          for m in (m1, m2))
    return max(tile_norm(j1 - j2), tile_norm(d1 - d2) / float(m1.delta_norm))
