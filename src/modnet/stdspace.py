"""Standard subspaces and finite-dimensional modular theory.

Vectors and operators live on the complex space C^n: an operator is a
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
(eigenvectors V, ascending log Delta, the complex matrix of J); S, the
flows and the powers of Delta are formed only on request, and no dense
Delta is formed to validate it.

Subspaces, modular data and the primitives between them also take
stacks: a basis of shape (..., 2n, k) holds one subspace per leading
index, all of dimension k, and every matrix operation runs over the
stack at once (numpy's ``svd`` and ``@`` loop over it in LAPACK/BLAS).
A single subspace is a stack without leading axes, so there is one
code path, and each member of a stack gets the same floating-point
result as it gets alone.

Tiles are a direct sum, a stack is a batch.  The models are direct sums
(two chiral factors, two copies of them, one rapidity block per mass),
and the modular data of a direct sum of standard subspaces is the
direct sum of the summands' data.  The producer of an object declares
its tiling, the slots of each tile (and the basis columns of each), and
an object handed none is one tile: nothing is read from zero patterns.
A subspace or modular data handed a tiling is handed its tiles; a dense
operator handed one is refused unless its tiles hold every nonzero.
Every primitive runs the stack of an operand's tiles through its one
stack body, and the results merge back: spectra are concatenated and
sorted before any threshold reads them, and a norm is the largest tile
norm.  One tile is a view of the whole array.  Operands on different
tilings meet on the coarser one where one refines the other, a lookup
of each slot's tile, else on one tile.  Subspaces and modular data
store only their tile stacks (and the ascending log Delta); a dense
basis, V, J or power is their scatter, formed for a consumer that asks
for one.
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


class ComplexSpace:
    """The complex space C^n, of real dimension 2n."""

    __slots__ = ("n",)

    def __init__(self, n):
        if n < 1:
            raise ValueError("complex dimension must be positive")
        self.n = int(n)

    @property
    def real_dim(self):
        return 2 * self.n

    def __eq__(self, other):
        return isinstance(other, ComplexSpace) and other.n == self.n

    def __hash__(self):
        return hash(("ComplexSpace", self.n))

    def __repr__(self):
        return f"ComplexSpace(n={self.n})"


class RealSubspace:
    """A real-linear subspace of C^n: the real span of the columns of a
    complex n x k matrix B, held as its tiles' orthonormal real bases.

    ``tiling`` is (slots (T, s), columns of B (T, k_t)) of each tile, as
    handed in by the producer, else one tile.  Only ``tiles`` (..., T,
    2s, k_t) is stored: tile t's block of B in real form, rows [Re
    slots; Im slots]; leading axes hold a stack of subspaces.  The dense
    ``basis`` b = [Re B; Im B] (2n x k) and ``complex_basis`` B are
    their scatters, formed on request.
    """

    __slots__ = ("parent", "tiles", "tiling")

    def __init__(self, parent, basis, tiling=None):
        """``basis`` is the stack of tiles on a handed ``tiling``, else
        the one tile (..., 2n, k); a tiling of no columns is one tile."""
        b = np.asarray(basis, dtype=float)
        if tiling is not None and not tiling[1].size:
            b, tiling = np.zeros(b.shape[:-3] + (parent.real_dim, 0)), None
        if tiling is None:
            if b.ndim < 2 or b.shape[-2] != parent.real_dim:
                raise ValueError("basis must be a (2n x k) matrix or a stack")
            b = b[..., None, :, :]
            tiling = _one_tile(parent.n), _one_tile(b.shape[-1])
        rows, cols = tiling
        if b.shape[-3:] != (len(rows), 2 * rows.shape[1], cols.shape[1]):
            raise ValueError(f"tiles of shape {b.shape} do not match the "
                             f"tiling of {rows.shape} slots")
        # orthonormal tile by tile; "not <=" refuses a NaN error too
        gram = _T(b) @ b - np.eye(b.shape[-1])
        if not np.max(np.abs(gram), initial=0.0) <= INVARIANT_TOL:
            raise ValueError("basis columns are not orthonormal")
        b.setflags(write=False)
        self.parent, self.tiles, self.tiling = parent, b, tiling

    @classmethod
    def from_complex(cls, parent, c, tiling=None):
        """The real span of the complex columns c, whose real form must be
        orthonormal: c is the stack of tiles on a handed ``tiling``, else
        the one n x k tile (or a stack of them)."""
        c = np.asarray(c, dtype=complex)
        return cls(parent, np.concatenate([c.real, c.imag], axis=-2), tiling)

    @classmethod
    def orthonormalised(cls, parent, c, tiling=None):
        """The real span of the complex columns c, of real rank k, by
        :func:`qr_basis` of the real form of each tile: c as in
        :meth:`from_complex`."""
        c = np.asarray(c, dtype=complex)
        return cls(parent, qr_basis(np.concatenate([c.real, c.imag],
                                                   axis=-2)), tiling)

    @classmethod
    def zero(cls, parent):
        return cls(parent, np.zeros((parent.real_dim, 0)))

    @classmethod
    def full(cls, parent):
        return cls(parent, np.eye(parent.real_dim))

    @property
    def dim(self):
        return self.tiling[1].size

    @property
    def basis(self):
        """The dense real basis b = [Re B; Im B] (..., 2n, k)."""
        rows, cols = self.tiling
        return _scatter(self.tiles, _doubled(rows, self.parent.n), cols)

    def complex_tiles(self):
        """The tiles of B, (..., T, s, k_t)."""
        return _complexified(self.tiles)

    def complex_basis(self):
        """B = b[:n] + i b[n:]: H is the real span of the columns of B."""
        return _scatter(self.complex_tiles(), *self.tiling)

    def transform(self, u, tiles=None):
        """Image under the unitary with complex n x n matrix u, on the
        slots ``tiles`` (one tile if None) that hold its every nonzero; a
        stack of unitaries maps each member of a stack of subspaces.  u B
        is taken tile by tile on the common tiling of u and H, kept by
        the image, and the constructor's Gram check refuses a u that is
        not unitary."""
        n = self.parent.n
        u = np.asarray(u)
        if u.shape[-2:] != (n, n):
            raise ValueError(f"unitary of shape {u.shape} is not "
                             f"(..., {n}, {n})")
        rows = _common(n, self.tiling[0], tiles)
        image = (_on_tiles(u, rows, rows)
                 @ _complexified(_tiles_on(self, rows)))
        return RealSubspace.from_complex(
            self.parent, image, (rows, _moved(rows, *self.tiling)))

    def phased(self, phases):
        """Image under the diagonal unitary diag(phases), phases (n,) of
        modulus 1, taken on each tile's slots: an orthonormal basis,
        tiled as this one, needs no check."""
        phases = np.asarray(phases)
        if phases.shape != (self.parent.n,):
            raise ValueError(f"phases of shape {phases.shape} are not "
                             f"({self.parent.n},)")
        if not np.max(np.abs(np.abs(phases) - 1.0)) <= INVARIANT_TOL:
            raise ValueError("phases must have modulus 1")
        c = phases[self.tiling[0]][..., None] * self.complex_tiles()
        moved = object.__new__(RealSubspace)
        moved.parent, moved.tiling = self.parent, self.tiling
        moved.tiles = np.concatenate([c.real, c.imag], axis=-2)
        moved.tiles.setflags(write=False)
        return moved

    def __repr__(self):
        return f"RealSubspace(dim={self.dim} of R^{self.parent.real_dim})"


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
    own refines (:func:`_common`): its stored tiles, or where the tilings
    differ, its basis gathered on the coarser tiles."""
    if np.array_equal(rows, h.tiling[0]):
        return h.tiles
    return _gather(h.basis, _doubled(rows, h.parent.n),
                   _moved(rows, *h.tiling))


# The gather and the merges below take an operand to its tiles and
# per-tile results back to the operand's indices.  One tile is its own
# result: it is returned as a view, never sorted, gathered or copied.


def _gather(a, rows, cols):
    """The stack holding tile t of ``a`` at (rows[t], cols[t])."""
    if rows.shape[0] == 1:
        return a[..., None, :, :]
    return a[rows[:, :, None], cols[:, None, :]]


def _on_tiles(a, rows, cols):
    """:func:`_gather` on a handed tiling, refused unless its tiles hold
    every nonzero of ``a``."""
    stack = _gather(a, rows, cols)
    if stack.shape[-3] > 1 and np.count_nonzero(stack) != np.count_nonzero(a):
        raise ValueError("operand has a nonzero outside its tiles")
    return stack


def _scatter(stack, rows, cols=None):
    """The matrix with tile t of ``stack`` at (rows[t], cols[t]), else 0;
    with the columns of a slot-to-slot operator, cols = rows."""
    cols = rows if cols is None else cols
    if stack.shape[-3] == 1:
        return stack[..., 0, :, :]
    out = np.zeros(stack.shape[:-3] + (rows.size, cols.size),
                   dtype=stack.dtype)
    out[..., rows[:, :, None], cols[:, None, :]] = stack
    return out


def retiled(stack, rows, new):
    """Tiles ``stack`` on the slots ``rows`` as tiles on ``new``, refused
    unless they hold every nonzero."""
    if np.array_equal(rows, new):
        return stack
    return _on_tiles(_scatter(stack, rows), new, new)


def _placed(values, index):
    """The vector holding tile t's ``values`` at index[t]."""
    if values.shape[-2] == 1:
        return values[..., 0, :]
    out = np.empty(values.shape[:-2] + (index.size,), dtype=values.dtype)
    out[..., index] = values
    return out


def _descending(s):
    """The tiles' descending spectra (..., T, k) sorted together."""
    if s.shape[-2] == 1:
        return s[..., 0, :]
    return np.sort(s, axis=None)[::-1]


def tile_norm(stack):
    """The norm of the direct sum of ``stack``: one values-only SVD."""
    return float(np.max(np.linalg.svd(stack, compute_uv=False)[..., 0]))


def qr_basis(a):
    """Q of the reduced QR of a full-rank a (or of each of a stack), its
    columns signed so that R has a positive diagonal: the one such
    orthonormal basis of the leading spans of a."""
    q, r = np.linalg.qr(a)
    return q * np.sign(np.diagonal(r, axis1=-2, axis2=-1))[..., None, :]


def _orthonormal_basis(columns, parent):
    """Orthonormal basis of the column span, rank by relative threshold.

    ``columns`` may be a stack (..., 2n, k); its spans must share a rank.
    """
    a = np.asarray(columns, dtype=float)
    if a.size == 0:
        return np.zeros(a.shape[:-2] + (parent.real_dim, 0))
    u, s, _ = np.linalg.svd(a, full_matrices=False)
    return u[..., :_common_rank(s)]


def make_subspace(vectors, parent):
    """Real span of a family of complex vectors, as a RealSubspace.

    ``vectors`` holds k vectors of C^n, or an array (..., k, n) of
    families, whose spans then form a stack.
    """
    v = np.asarray(vectors, dtype=complex)
    if v.size == 0:
        return RealSubspace.zero(parent)
    if v.ndim < 2 or v.shape[-1] != parent.n:
        raise ValueError("vectors must have n entries each")
    cols = _T(np.concatenate([v.real, v.imag], axis=-1))
    return RealSubspace(parent, _orthonormal_basis(cols, parent))


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


def _largest_sine(a, b):
    """||(1 - P_a) b||, the largest sine of span(b) against span(a), for
    the tile stacks a and b of a pair: the largest over the tiles."""
    s = _descending(np.linalg.svd(b - a @ (_T(a) @ b), compute_uv=False))
    return s[..., 0] if s.shape[-1] else np.zeros(s.shape[:-1])


def containment_gap(big, small):
    """Largest sine of small against big: ||(1 - P_big) B_small||."""
    return _largest_sine(*_joint(big, small)[1])


def subspace_distance(h1, h2):
    """Operator norm ||P_1 - P_2|| of the difference of the projections.

    Equal to the larger of the two containment gaps, so it is computed
    on the thin bases and never forms a projector; the pair is tiled
    once for both.
    """
    _, (b1, b2) = _joint(h1, h2)
    return np.maximum(_largest_sine(b2, b1), _largest_sine(b1, b2))


def _times_i(b, n):
    """i times the real-form columns b (..., 2n, k): the slot swap
    [-Im; Re], a signed permutation, so every entry is exact; adding 0
    turns each -0 into +0."""
    return np.concatenate([-b[..., n:, :], b[..., :n, :]], axis=-2) + 0.0


def symplectic_complement(h):
    """H' = {xi : Im<xi, eta> = 0 for all eta in H} = (i H)^perp: the
    trailing 2n - k columns of one complete QR of i b, which is
    orthonormal and so has rank exactly k = dim H; of each tile of i b,
    on that tile's rows, and H' keeps the tiling of H."""
    rows, cols = h.tiling
    q = np.linalg.qr(_times_i(h.tiles, rows.shape[1]),
                     mode="complete")[0][..., cols.shape[1]:]
    slots = np.arange(q.shape[-3] * q.shape[-1]).reshape(q.shape[-3], -1)
    return RealSubspace(h.parent, q, (rows, slots))


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
    n = h.parent.n
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
    gives its tiles' singular values together.
    """
    s = np.linalg.svd(h.complex_tiles(), compute_uv=False)
    return _standardness_of(_descending(s), h)


# ---------------------------------------------------------------------------
# modular data
# ---------------------------------------------------------------------------


def _require(checks, atol):
    """Raise on the first invariant whose error exceeds atol or is NaN."""
    for name, err in checks.items():
        if not err <= atol:
            raise ValueError(f"modular invariant violated: {name} "
                             f"(error {err:.3e})")


class ModularData:
    """Modular pair (J, Delta) of a standard subspace, in eigen form.

    Delta = V diag(e^{log_delta}) V* with V = ``vecs`` unitary and
    ``log_delta`` real (sorted ascending here), and J = ``jc`` conj.
    Validated at construction: finite data, V unitary, J orthogonal and
    involutive, and J Delta J = Delta^{-1}; Delta > 0 by construction.
    Stored are ``log_delta``, the ``tiling`` (slots (T, s), V's columns
    (T, s)) and the (..., T, s, s) tiles of V and jc; the dense ``vecs``
    and ``jc`` are their scatters, and flows, powers and the matrix of S
    are formed only on request.  Handed a tiling (slots, the labels of
    V's columns), the constructor takes the tiles (T, s, s), (T, s) and
    (T, s, s), else the one tile (n, n), (n) and (n, n); each tile's
    columns are sorted by their places in the ascending log Delta.
    Leading axes hold a stack of modular data; each invariant is then
    required of every member, and the properties and methods return
    stacks.
    """

    __slots__ = ("parent", "log_delta", "tiling", "_v", "_j")

    def __init__(self, parent, vecs, log_delta, jc, atol=INVARIANT_TOL,
                 tiling=None):
        v = np.asarray(vecs, dtype=complex)
        lam = np.asarray(log_delta, dtype=float)
        j = np.asarray(jc, dtype=complex)
        n = parent.n
        if tiling is None:
            v, j = v[..., None, :, :], j[..., None, :, :]
            lam, tiling = lam[..., None, :], (_one_tile(n),) * 2
        rows, cols = tiling
        if (v.shape[-3:] != rows.shape + rows.shape[-1:] or j.shape != v.shape
                or lam.shape != v.shape[:-1] or cols.shape != rows.shape):
            raise ValueError("V and jc must be n x n, log Delta of length n, "
                             "or the tiles of each")
        if not all(np.isfinite(a).all() for a in (v, lam, j)):
            raise ValueError("modular invariant violated: finite data")
        # log Delta ascending, stably in V's column labels; each tile's
        # columns in that order, labelled by their places in it
        flat = _placed(lam, cols)
        order = np.argsort(flat, axis=-1, kind="stable")
        place = np.argsort(order, axis=-1)[..., cols]
        v = np.take_along_axis(v, np.argsort(place)[..., None, :], axis=-1)
        lam = np.take_along_axis(flat, order, axis=-1)
        if rows.shape[0] > 1:
            cols = np.sort(place, axis=-1)
        # validated tile by tile, as one stack
        lt = lam[..., cols]
        eye = np.eye(v.shape[-1])
        vh = _T(v.conj())
        # errors are the largest real-form entries of the residuals
        _require({
            "V unitary": _max_entry(vh @ v - eye),
            "J orthogonal": _max_entry(_T(j.conj()) @ j - eye),
            "J involutive": _max_entry(j @ j.conj() - eye),
        }, atol)
        # balance: X = V* jc conj(V) may couple lambda_i only with
        # -lambda_i.  J Delta^{1/2} = Delta^{-1/2} J reads X_ij e^{lambda_j/2}
        # = e^{-lambda_i/2} X_ij; its defect relative to the entry's size
        # is |X_ij tanh((lambda_i + lambda_j) / 4)|, free of any scale
        x = vh @ j @ v.conj()
        rel = float(np.max(np.abs(x) * np.abs(np.tanh(
            (lt[..., :, None] + lt[..., None, :]) / 4.0))))
        if not rel <= BALANCE_TOL:
            raise ValueError("modular invariant violated: J Delta J = "
                             f"Delta^-1 (relative error {rel:.3e})")
        self.parent = parent
        self.log_delta = lam
        self.tiling = rows, cols
        self._v, self._j = v, j

    vecs = property(lambda self: _scatter(self._v, *self.tiling))
    jc = property(lambda self: _scatter(self._j, self.tiling[0]))

    @property
    def delta_norm(self):
        return np.exp(self.log_delta[..., -1])

    def power_tiles(self, z):
        """Delta^z = V diag(e^{z log Delta}) V*, its stack of tiles."""
        lt = self.log_delta[..., self.tiling[1]]
        return (self._v * np.exp(z * lt)[..., None, :]) @ _T(self._v.conj())

    def power(self, z):
        """Delta^z as a complex n x n matrix; Delta^{it} at z = i t."""
        return _scatter(self.power_tiles(z), self.tiling[0])

    def delta_it(self, t):
        """The modular unitary Delta^{it}, as a complex n x n matrix."""
        return self.power(1j * t)

    def tomita_tiles(self):
        """Complex matrix jc conj(V) e^{log Delta / 2} V^T of S = J
        Delta^{1/2}, its stack of tiles."""
        lt = self.log_delta[..., self.tiling[1]]
        half = self._v.conj() * np.exp(lt / 2.0)[..., None, :]
        return self._j @ half @ _T(self._v)

    def tomita_matrix(self):
        """The complex matrix of S: S xi = tomita_matrix() conj(xi)."""
        return _scatter(self.tomita_tiles(), self.tiling[0])

    def __repr__(self):
        return f"ModularData(parent={self.parent!r})"


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
    member is not standard.  B runs as the stack of its tiles; the gate
    reads their singular values sorted together, and V, log Delta and J
    are handed over as the tiles' stacks.
    """
    u, s, wh = np.linalg.svd(h.complex_tiles())
    rep = _standardness_of(_descending(s), h)
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
    # a standard B has square tiles; tile t's eigenvectors take the
    # labels of its own slots
    rows = h.tiling[0]
    return ModularData(h.parent, u, lam, jc, tiling=(rows, rows))


def subspace_from_modular(m):
    """The standard subspace with the given modular data.

    Computed as the kernel of (S - 1) with S = J Delta^{1/2} in real
    form: S = x + i y acts on [Re; Im] as [[x, y], [y, -x]].  The
    conditioning of the split is monitored and a small spectral gap
    triggers :class:`ConditioningWarning`.
    """
    x = m.tomita_matrix()
    s_op = np.block([[x.real, x.imag], [x.imag, -x.real]])
    u, sv, vt = np.linalg.svd(s_op - np.eye(m.parent.real_dim))
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
    return RealSubspace(m.parent, basis)


# ---------------------------------------------------------------------------
# lattice operations
# ---------------------------------------------------------------------------


def _common_parent(subspaces):
    if not subspaces:
        raise ValueError("need at least one subspace")
    parent = subspaces[0].parent
    if any(h.parent != parent for h in subspaces):
        raise ValueError("subspaces live in different parent spaces")
    return parent


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
    tiling, K as a stack whose stop rule reads all tiles; beyond that
    checked split the oracle shares no code with the exact method.
    """
    parent = _common_parent(subspaces)
    if method == "exact":
        h = subspaces[0]
        for g in subspaces[1:]:
            rows, (a, b) = _joint(g, h)
            sines, v = principal_angles(a, b)
            h = _spanned(parent, rows, b, v, sines <= ANGLE_TOL)
        return h
    if method != "halperin":
        raise ValueError(f"unknown method {method!r}")
    rows, stacks = _joint(*subspaces)
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
    return _spanned(parent, rows, last, u, s > 0.5)


def _joint(*subspaces):
    """The slots of each tile and the tiles of each basis, on the common
    tiling of the subspaces (:func:`_common`)."""
    rows = _common(subspaces[0].parent.n, *(h.tiling[0] for h in subspaces))
    return rows, [_tiles_on(h, rows) for h in subspaces]


def _spanned(parent, rows, stack, vecs, keep):
    """The span of stack[t] @ vecs[t][:, keep[t]] on the slots rows[t]:
    their stack when every tile keeps as many columns, else one tile
    holding them tile after tile."""
    parts = [x @ v[:, m] for x, v, m in zip(stack, vecs, keep)]
    widths = [p.shape[1] for p in parts]
    cols = np.split(np.arange(sum(widths)), np.cumsum(widths)[:-1])
    if len(set(widths)) == 1:
        return RealSubspace(parent, np.stack(parts), (rows, np.array(cols)))
    out = np.zeros((parent.real_dim, sum(widths)))
    for r, c, p in zip(_doubled(rows, parent.n), cols, parts):
        out[r[:, None], c] = p
    return RealSubspace(parent, out)


def sum_closure(subspaces):
    """Closed real span of a family of subspaces."""
    parent = _common_parent(subspaces)
    cols = np.hstack([h.basis for h in subspaces])
    return RealSubspace(parent, _orthonormal_basis(cols, parent))


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


def symmetry_commutation_check(h, u, tiles=None, tol=SUBSPACE_TOL):
    """A unitary preserving H commutes with its whole modular family.

    ``u`` is the complex n x n matrix of the unitary, tiled on the slots
    ``tiles`` (one tile if None).  U X U* - X is (u x) u* - x for a
    linear X and (u x) u^T - x for an antilinear one (xi -> x conj(xi));
    their spectral norms are the residuals, taken on the common tiling of
    u and the modular data.
    """
    u = np.asarray(u, dtype=complex)
    d = subspace_distance(h, h.transform(u, tiles))
    if d > tol:
        raise ValueError(f"U does not preserve H (subspace distance {d:.3e})")
    m = modular_data(h)
    rows = _common(h.parent.n, m.tiling[0], tiles)
    ut = _on_tiles(u, rows, rows)
    s, delta, j = (retiled(x, m.tiling[0], rows)
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
    m2 = modular_data(h)
    rows = _common(h.parent.n, m1.tiling[0], m2.tiling[0])
    (j1, d1), (j2, d2) = ([retiled(x, m.tiling[0], rows)
                           for x in (m._j, m.power_tiles(1.0))]
                          for m in (m1, m2))
    return max(tile_norm(j1 - j2), tile_norm(d1 - d2) / float(m1.delta_norm))
