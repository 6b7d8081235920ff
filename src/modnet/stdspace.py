"""Standard subspaces and finite-dimensional modular theory.

A complex Hilbert space C^n is handled as the real space R^{2n} with the
multiplication by i represented by a fixed orthogonal block matrix J_i.
Real subspaces are matrices with orthonormal columns; antilinear
operators are ordinary real matrices anticommuting with J_i, which turns
the whole Tomita machinery (S = J Delta^{1/2}, modular flows,
half-sided inclusions) into finite linear algebra.

Modular theory itself runs on n x n complex matrices: a real subspace
with basis b is the real span of the columns of B = b[:n] + i b[n:].
One SVD of B gives its standardness and, by the Rieffel-van Daele
formulas, its whole modular data, held in eigen form (eigenvectors V,
ascending log Delta, the complex matrix of J); real forms are built only
on request, and no dense Delta is formed to validate it.  Operators
pass between modules as complex n x n matrices, and their residuals
are taken there; an operator is realified only to move a
:class:`RealSubspace`.

Subspaces, modular data and the primitives between them also take
stacks: a basis of shape (..., 2n, k) holds one subspace per leading
index, all of dimension k, and every matrix operation runs over the
stack at once (numpy's ``svd`` and ``@`` loop over it in LAPACK/BLAS).
A single subspace is a stack without leading axes, so there is one
code path, and each member of a stack gets the same floating-point
result as it gets alone.
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
    """The complex space C^n in its real form R^{2n}.

    Vectors are stacked as [Re; Im]; ``J_i`` implements multiplication
    by i and is orthogonal with J_i^2 = -1 by construction.
    """

    __slots__ = ("n", "J_i")

    def __init__(self, n):
        if n < 1:
            raise ValueError("complex dimension must be positive")
        self.n = int(n)
        eye = np.eye(n)
        zero = np.zeros((n, n))
        self.J_i = np.block([[zero, -eye], [eye, zero]])
        self.J_i.setflags(write=False)

    @property
    def real_dim(self):
        return 2 * self.n

    def embed(self, vector):
        """Real form of a complex vector."""
        v = np.asarray(vector, dtype=complex).reshape(self.n)
        return np.concatenate([v.real, v.imag])

    def extract(self, real_vector):
        r = np.asarray(real_vector, dtype=float).reshape(2 * self.n)
        return r[: self.n] + 1j * r[self.n:]

    def realify_linear(self, c_matrix):
        """Real 2n x 2n form of a complex-linear operator (or of a stack)."""
        c = np.asarray(c_matrix, dtype=complex)
        x, y = c.real, c.imag
        return np.block([[x, -y], [y, x]])

    def realify_antilinear(self, c_matrix):
        """Real form of the antilinear map xi -> C conj(xi)."""
        c = np.asarray(c_matrix, dtype=complex)
        x, y = c.real, c.imag
        return np.block([[x, y], [y, -x]])

    def __eq__(self, other):
        return isinstance(other, ComplexSpace) and other.n == self.n

    def __hash__(self):
        return hash(("ComplexSpace", self.n))

    def __repr__(self):
        return f"ComplexSpace(n={self.n})"


class RealSubspace:
    """A real-linear subspace of C^n given by an orthonormal real basis.

    A basis of shape (..., 2n, k) holds a stack of k-dimensional
    subspaces; ``transform`` and the module's primitives act on each.
    """

    __slots__ = ("parent", "basis")

    def __init__(self, parent, basis):
        b = np.asarray(basis, dtype=float)
        if b.ndim < 2 or b.shape[-2] != parent.real_dim:
            raise ValueError("basis must be a (2n x k) matrix or a stack")
        if b.shape[-1] > parent.real_dim:
            raise ValueError("more basis columns than the real dimension")
        if b.shape[-1]:
            gram = _T(b) @ b
            # "not <=" refuses a NaN error too
            if not np.max(np.abs(gram - np.eye(b.shape[-1]))) <= INVARIANT_TOL:
                raise ValueError("basis columns are not orthonormal")
        self.parent = parent
        self.basis = b
        self.basis.setflags(write=False)

    @classmethod
    def zero(cls, parent):
        return cls(parent, np.zeros((parent.real_dim, 0)))

    @classmethod
    def full(cls, parent):
        return cls(parent, np.eye(parent.real_dim))

    @property
    def dim(self):
        return self.basis.shape[-1]

    def projector(self):
        return self.basis @ _T(self.basis)

    def transform(self, op):
        """Image under an orthogonal (or unitary real-form) operator; a
        stack of operators maps each member of a stack of subspaces.  The
        image basis is taken as it is, so the constructor's Gram check
        refuses an operator that is not orthogonal."""
        return RealSubspace(self.parent, op @ self.basis)

    def __repr__(self):
        return f"RealSubspace(dim={self.dim} of R^{self.parent.real_dim})"


def _split(parent, r):
    """Complex matrices (L, A) with R = realify_linear(L) +
    realify_antilinear(A), by block averages; exact for a real form."""
    n = parent.n
    a, b, c, d = r[:n, :n], r[:n, n:], r[n:, :n], r[n:, n:]
    return (a + d) / 2 + 0.5j * (c - b), (a - d) / 2 + 0.5j * (b + c)


def _max_entry(c):
    """Largest entry of the real form of a complex matrix: the largest
    modulus of its real and imaginary parts."""
    return np.maximum(np.max(np.abs(c.real)), np.max(np.abs(c.imag)))


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


def principal_angles(a, b, vectors=True):
    """Principal-angle sines of span(b) against span(a), ascending.

    ``a`` and ``b`` are orthonormal bases (d x k_a, d x k_b).  The sines
    are the k_b singular values of (1 - P_a) b, taken on the thin
    d x k_b matrix: small angles keep absolute accuracy near machine
    epsilon, where the cosine route loses half the digits (Bjorck-Golub
    1973, Knyazev-Argentati 2002).  When k_b > k_a the surplus directions
    of span(b) have sine 1.  Returns ``(sines, v)``: ``b @ v[:, j]`` is the
    unit vector of span(b) at angle ``arcsin(sines[j])`` to span(a).  With
    ``vectors=False`` only the sines are computed and returned.  Stacks
    of bases (..., d, k) give stacks of sines and vectors.
    """
    r = b - a @ (_T(a) @ b)
    if not vectors:
        return np.linalg.svd(r, compute_uv=False)[..., ::-1]
    _, s, vt = np.linalg.svd(r, full_matrices=False)
    return s[..., ::-1], _T(vt[..., ::-1, :])


def containment_gap(big, small):
    """Largest sine of small against big: ||(1 - P_big) B_small||."""
    sines = principal_angles(big.basis, small.basis, vectors=False)
    return sines[..., -1] if sines.shape[-1] else np.zeros(sines.shape[:-1])


def subspace_distance(h1, h2):
    """Operator norm ||P_1 - P_2|| of the difference of the projections.

    Equal to the larger of the two containment gaps, so it is computed
    on the thin bases and never forms a projector.
    """
    return np.maximum(containment_gap(h2, h1), containment_gap(h1, h2))


def symplectic_complement(h):
    """H' = {xi : Im<xi, eta> = 0 for all eta in H} = (i H)^perp: the
    trailing 2n - k columns of one complete QR of J_i b, which is
    orthonormal and so has rank exactly k = dim H."""
    q = np.linalg.qr(h.parent.J_i @ h.basis, mode="complete")[0]
    return RealSubspace(h.parent, q[..., h.dim:])


@dataclasses.dataclass(frozen=True)
class StandardnessReport:
    """Standardness of a subspace; of a stack, arrays over its members."""

    cyclic: bool
    separating: bool
    minimal_angle: float

    @property
    def standard(self):
        return self.cyclic & self.separating


def _complex_basis(h):
    """B = b[:n] + i b[n:]: H is the real span of the columns of B."""
    n = h.parent.n
    return h.basis[..., :n, :] + 1j * h.basis[..., n:, :]


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

    With b orthonormal, B* B = 1 - i b^T J_i b, so the singular values of
    the n x k complex B are sqrt(1 +- cos theta_j) over the angles theta_j
    between H and iH; [b, J_i b] is the real form of B and has each of
    them twice.  H is cyclic when B has full rank n (the relative count of
    ``RANK_REL_TOL``), and the minimal angle is 2 asin(sigma_min / sqrt 2),
    accurate near 0 and near pi/2 alike; for k > n, B has a kernel and the
    angle is 0.
    """
    return _standardness_of(
        np.linalg.svd(_complex_basis(h), compute_uv=False), h)


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
    Real forms, flows, powers and S are formed only on request.

    Arrays (..., n, n), (..., n) and (..., n, n) hold a stack of modular
    data; each invariant is then required of every member, and the
    properties and methods return stacks.
    """

    __slots__ = ("parent", "vecs", "log_delta", "jc")

    def __init__(self, parent, vecs, log_delta, jc, atol=INVARIANT_TOL):
        vecs = np.asarray(vecs, dtype=complex)
        lam = np.asarray(log_delta, dtype=float)
        jc = np.asarray(jc, dtype=complex)
        n = parent.n
        if (vecs.shape[-2:] != (n, n) or jc.shape != vecs.shape
                or lam.shape != vecs.shape[:-1]):
            raise ValueError("V and jc must be n x n, log Delta of length n")
        if not all(np.isfinite(a).all() for a in (vecs, lam, jc)):
            raise ValueError("modular invariant violated: finite data")
        order = np.argsort(lam, axis=-1, kind="stable")
        vecs = np.take_along_axis(vecs, order[..., None, :], axis=-1)
        lam = np.take_along_axis(lam, order, axis=-1)
        eye = np.eye(n)
        vh = _T(vecs.conj())
        # errors are the largest real-form entries of the residuals
        _require({
            "V unitary": _max_entry(vh @ vecs - eye),
            "J orthogonal": _max_entry(_T(jc.conj()) @ jc - eye),
            "J involutive": _max_entry(jc @ jc.conj() - eye),
        }, atol)
        # balance: X = V* jc conj(V) may couple lambda_i only with
        # -lambda_i.  J Delta^{1/2} = Delta^{-1/2} J reads X_ij e^{lambda_j/2}
        # = e^{-lambda_i/2} X_ij; its defect relative to the entry's size
        # is |X_ij tanh((lambda_i + lambda_j) / 4)|, free of any scale
        x = vh @ jc @ vecs.conj()
        rel = float(np.max(np.abs(x) * np.abs(np.tanh(
            (lam[..., :, None] + lam[..., None, :]) / 4.0))))
        if not rel <= BALANCE_TOL:
            raise ValueError("modular invariant violated: J Delta J = "
                             f"Delta^-1 (relative error {rel:.3e})")
        self.parent = parent
        self.vecs = vecs
        self.log_delta = lam
        self.jc = jc

    @classmethod
    def from_dense(cls, parent, J, Delta, atol=INVARIANT_TOL):
        """Modular data from the real forms of J and Delta: J antilinear,
        Delta complex-linear, symmetric and positive, then one ``eigh`` of
        the complex Delta gives the eigen form."""
        d = parent.real_dim
        if np.shape(J) != (d, d) or np.shape(Delta) != (d, d):
            raise ValueError("J and Delta must be 2n x 2n")
        j_lin, jc = _split(parent, np.asarray(J, dtype=float))
        dc, d_anti = _split(parent, np.asarray(Delta, dtype=float))
        _require({"J antilinear": _max_entry(j_lin),
                  "Delta complex-linear": _max_entry(d_anti),
                  "Delta symmetric": _max_entry(dc - dc.conj().T)}, atol)
        w, v = np.linalg.eigh((dc + dc.conj().T) / 2)
        if w[0] <= 0.0:
            raise ValueError("modular invariant violated: Delta positive "
                             f"(min eigenvalue {w[0]:.3e})")
        return cls(parent, v, np.log(w), jc, atol)

    @property
    def delta_norm(self):
        return np.exp(self.log_delta[..., -1])

    @property
    def J(self):
        return self.parent.realify_antilinear(self.jc)

    @property
    def Delta(self):
        return self.delta_power(1.0)

    def power(self, z):
        """Delta^z = V diag(e^{z log Delta}) V* as a complex n x n matrix;
        z = i t gives the modular unitary Delta^{it}."""
        scaled = self.vecs * np.exp(z * self.log_delta)[..., None, :]
        return scaled @ _T(self.vecs.conj())

    def delta_power(self, p):
        """Delta^p as a real (complex-linear) matrix, p real."""
        return self.parent.realify_linear(self.power(p))

    def delta_it(self, t):
        """The modular unitary Delta^{it}, as a real orthogonal matrix."""
        return self.parent.realify_linear(self.power(1j * t))

    def tomita_matrix(self):
        """Complex matrix jc conj(V) e^{log Delta / 2} V^T of S = J
        Delta^{1/2}: S xi = tomita_matrix() conj(xi)."""
        half = self.vecs.conj() * np.exp(self.log_delta / 2.0)[..., None, :]
        return self.jc @ half @ _T(self.vecs)

    def tomita(self):
        """S = J Delta^{1/2}, in real form."""
        return self.parent.realify_antilinear(self.tomita_matrix())

    def __repr__(self):
        return f"ModularData(parent={self.parent!r})"


def modular_data(h):
    """Tomita operator and modular pair of a standard subspace.

    Returns ``(S, ModularData)`` where S is the real form of the closed
    antilinear involution fixing H pointwise.  All of it comes from one
    complex SVD B = U s W* (Rieffel-van Daele 1977): R = P_H + P_iH = B B*,
    P_H - P_iH = B B^T conj, Delta = (2 - R) R^{-1} and J is the phase of
    P_H - P_iH.  The singular values pair as sqrt(1 +- cos theta), so
    2 - s_k^2 = s_{n-1-k}^2 =: s'_k^2, and with M = W* conj(W)

        log Delta = 2 log(s' / s) on the columns of U (ascending),
        J = U s M s'^{-1} U^T conj,  S = U s M s^{-1} U^T conj.

    The cyclic/separating gate reads the same singular values.  A stack
    of subspaces gives stacks of S and of modular data, and is refused
    if any member is not standard.
    """
    u, s, wh = np.linalg.svd(_complex_basis(h))
    rep = _standardness_of(s, h)
    if not rep.cyclic.all():
        raise ValueError("subspace is not cyclic: H + iH does not span")
    if not rep.separating.all():
        raise ValueError(
            "subspace is not separating: H meets iH at angle "
            f"{np.min(rep.minimal_angle):.3e}"
        )
    pair = s[..., ::-1]
    a = (u * s[..., None, :]) @ (wh @ _T(wh))   # W* conj(W) = wh wh^T
    md = ModularData(h.parent, u, 2.0 * np.log(pair / s),
                     (a / pair[..., None, :]) @ _T(u))
    return h.parent.realify_antilinear((a / s[..., None, :]) @ _T(u)), md


def subspace_from_modular(m):
    """The standard subspace with the given modular data.

    Computed as the kernel of (S - 1) with S = J Delta^{1/2}; the
    conditioning of the split is monitored and a small spectral gap
    triggers :class:`ConditioningWarning`.
    """
    d = m.parent.real_dim
    s_op = m.tomita()
    u, sv, vt = np.linalg.svd(s_op - np.eye(d))
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
    vectors of the limit K.  It shares no code with the exact method and
    serves as its independent oracle.
    """
    parent = _common_parent(subspaces)
    if method == "exact":
        basis = subspaces[0].basis
        for h in subspaces[1:]:
            sines, v = principal_angles(h.basis, basis)
            basis = basis @ v[:, sines <= ANGLE_TOL]
        return RealSubspace(parent, basis)
    if method != "halperin":
        raise ValueError(f"unknown method {method!r}")
    first, last = subspaces[0].basis, subspaces[-1].basis
    k = np.eye(first.shape[1])
    for a, b in zip(subspaces, subspaces[1:]):
        k = (b.basis.T @ a.basis) @ k
    c = first.T @ last
    iters = 1
    step = None
    while iters <= max_iter:
        k2 = k @ c @ k
        step = k2 - k
        k = k2
        iters *= 2
        # converged when ||T^2 - T|| = ||step|| <= tol; the largest entry
        # bounds the spectral norm from below and the Frobenius norm from
        # above, so the SVD runs only when neither bound decides
        if np.max(np.abs(step), initial=0.0) > tol:
            continue
        if np.linalg.norm(step) <= tol or np.linalg.norm(step, 2) <= tol:
            break
    else:
        residual = np.inf if step is None else float(np.linalg.norm(step, 2))
        raise HalperinNonConvergence(residual, iters)
    u, s, _ = np.linalg.svd(k, full_matrices=False)
    return RealSubspace(parent, last @ u[:, s > 0.5])


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


def symmetry_commutation_check(h, u, tol=SUBSPACE_TOL):
    """A unitary preserving H commutes with its whole modular family.

    ``u`` is the complex n x n matrix of the unitary.  U X U* - X is
    (u x) u* - x for a linear X and (u x) u^T - x for an antilinear one
    (xi -> x conj(xi)); their spectral norms are the residuals.
    """
    u = np.asarray(u, dtype=complex)
    d = subspace_distance(h, h.transform(h.parent.realify_linear(u)))
    if d > tol:
        raise ValueError(f"U does not preserve H (subspace distance {d:.3e})")
    s_op, m = modular_data(h)

    def deviation(x, right):
        return float(np.linalg.norm((u @ x) @ right - x, 2))

    return SymmetryReport(
        deviation(_split(h.parent, s_op)[1], u.T),
        deviation(m.power(1.0), u.conj().T) / m.delta_norm,
        deviation(m.jc, u.T))
