"""Nets of real standard subspaces built from lattice representations.

Given a momentum-lattice representation, the half-line dilation flows of
its chiral (or rapidity) factors have exact lattice generators, and each
wedge-like region of two-dimensional Minkowski space determines a
modular pair (J, Delta) blockwise from them.  This module assembles
those pairs into a region-indexed family of real subspaces, verifies the
net axioms with measured residuals, and runs the associated studies: the
one-parameter-group reconstruction on the exactly solvable summed model,
the twisted representation that breaks dilation covariance by a
computable phase, a lightcone separating study over double-cone
families, and two closed-form spectral checks.

A model's geometry is the tuple of :class:`reps.Factor` records that
:func:`reps.build_rep` makes, one per half-line block in slot order.
The implemented group action, wedge blocks, translation phases and
positivity of energy read these records the same way for every model
kind, and the lightcone study runs each level on a one-factor massive
model of one rapidity record.  The group action is
the translation-dilation subgroup in lightray coordinates, passed
through to :func:`reps.apply` as the pairs (t_L, t_R) and
(sigma_L, sigma_R); this module imports no Mobius code.

The modular data of every wedge-like region is known exactly, one tile
per factor, as stacks: log Delta = 2 pi kappa, the eigenvectors V (apex
phases times the inverse DFT) and J = diag(phases^2) conj, which maps
column m of a tile to column -m mod s (every factor of a model has one
size s).  Its one record is :class:`stdspace.ModularData` on the factor
tiles: ``NetModel.wedge_modular`` validates it and ``wedge_flow`` is the
stack of its flow's tiles.  Wedge subspaces come from the closed
per-eigenpair fixed-point formula on the raw stacks, unvalidated, so
neither route forms Delta and both hold at any grid spacing.  The
formula runs once per orientation, at the origin: by covariance the
subspace of the region with apex a is H(W + a) = U(a) H(W), and on the
momentum lattice U(a) = e^{i a.p} is a diagonal phase, so every other
apex multiplies the origin basis by that phase and needs no
re-orthonormalisation.  The same rule moves dual double cones: the dual
H(W_R) cap H(W_L) of a cone is, up to the phase of its W_R corner, a
function of the cone's shape alone, so a model intersects once per shape
and translates the result to every cone of that shape.

The Bisognano-Wichmann entries recompute a wedge's modular data from
its subspace alone: one SVD of the complex basis gives (V, log Delta,
J), and Delta is compared with the defining one.  The model declares
its tilings: ``NetModel.tiles``, the slots of each factor, over which
the wedge data is block-diagonal, and ``NetModel.action_tiles``, those
of the group action (on twisted each factor with the copy the rotation
mixes it with).  Every operator, eigenvectors, flows, powers and the
group action, arrives as the stack of its tiles, the checks' products
and norms run on the stacks, a stack moves to the action tiles only by
:func:`stdspace.merged`, and what is handed no tiling is one tile (see
:mod:`stdspace`).  The limit that roundtrip meets is |log Delta|, about
2 pi^2 / h on a chiral grid of spacing h: where it is large the
singular values near sqrt 2 cluster and the recomputed J loses its
orthogonality, so the chiralSum and twisted models at h = 1.0 raise
(at n = 33 as at n = 129) while h = 1.5 runs.
"""

from __future__ import annotations

import dataclasses
import functools
import math
import threading

import mpmath
import numpy as np

from . import reps
from . import spacetime
from . import stdspace

MODEL_KINDS = ("chiralSum", "massive", "directIntegral", "twisted")
#: the kinds with dilations, whose axioms report adds the dilation rows
DILATION_KINDS = ("chiralSum", "twisted")

#: blockwise / axiom comparison tolerance
BLOCK_TOL = 1e-8

#: multiplier and floor of the per-model residual budget
BUDGET_FACTOR = 10.0
BUDGET_FLOOR = 1e-10

#: frozen regression value for the lightcone separating study (the
#: finest configured level must come in below this)
FROZEN_CONE_DEFECT = 0.76

#: refinement ladder for the lightcone study: (grid size, cone count)
CONE_LADDER = ((17, 2), (33, 8), (65, 32))

#: rapidity spacing of the lightcone study, which never forms Delta
STUDY_SPACING = 0.4

#: spacing of the solvable model: at pi the dilation grid contains 2 pi t
#: for every half-integer t, and max |log Delta| (about 2 pi^2 / h) stays
#: well inside what the Bisognano-Wichmann roundtrip resolves
SOLVABLE_SPACING = math.pi

_TWO_PI = 2.0 * math.pi


# ---------------------------------------------------------------------------
# lattice building blocks (unit frame)
# ---------------------------------------------------------------------------


@functools.lru_cache(maxsize=16)
def _dft(n):
    j = np.arange(n)
    out = np.exp(-2j * np.pi * np.outer(j, j) / n) / math.sqrt(n)
    out.setflags(write=False)
    return out


def _kappa(n, h):
    """Modular spectrum of the one-step lattice dilation generator.

    Centered integer frequencies scaled to [-pi/h, pi/h); an even grid
    has its unpaired top frequency zeroed so that the spectrum is exactly
    symmetric and J K J = -K holds to the last bit.
    """
    m = np.fft.fftfreq(n, d=1.0 / n)
    kap = -_TWO_PI * m / (n * h)
    if n % 2 == 0:
        kap[n // 2] = 0.0
    return kap


def _roll(n, k):
    """Matrix of the cyclic slot shift psi_j -> psi_{j+k}."""
    return np.roll(np.eye(n), k, axis=1)


def _direct_sum(mats):
    """Block-diagonal direct sum of matrices."""
    rows, cols = np.sum([m.shape for m in mats], axis=0)
    out = np.zeros((rows, cols), dtype=np.result_type(*mats))
    r = c = 0
    for m in mats:
        out[r:r + m.shape[0], c:c + m.shape[1]] = m
        r, c = r + m.shape[0], c + m.shape[1]
    return out


# ---------------------------------------------------------------------------
# window-free eigenpair subspaces
# ---------------------------------------------------------------------------


def _eigenpair_fix(tiles, log_delta, vecs, labels=None):
    """Orthonormal basis of fix(J Delta^{1/2}) from paired eigenvectors.

    Never forms Delta: ``vecs`` (T, s, s) and ``log_delta`` (T, s) are
    the eigen form on the slots ``tiles`` of each factor, and J maps
    column m of a tile to column -m mod s, of the negated log Delta.  For
    an eigenpair (lambda, -lambda) with J-exchanged columns c, c' the
    fixed plane is spanned by e^{-|lambda|/2} c + c' and
    i(-e^{-|lambda|/2} c + c'), c the column of lambda > 0; a self-paired
    column contributes its real line.  Valid for arbitrarily large
    |lambda|.  The columns of a tile come in the order the pairs are
    first met, and the fixed columns are handed over as the stack of the
    tiles, orthonormalised once per class of the tile ``labels``.
    """
    s = vecs.shape[-1]
    mate = -np.arange(s) % s
    lead = np.flatnonzero(np.arange(s) <= mate)           # one per pair
    mate = mate[lead]
    paired = mate != lead
    m, mp = lead[paired], mate[paired]
    lam = log_delta[..., None, m]
    a, b = vecs[..., m], vecs[..., mp]
    c, c2 = np.where(lam < 0, b, a), np.where(lam < 0, a, b)
    damp = np.exp(-np.abs(lam) / 2.0)
    v1 = damp * c + c2
    v2 = 1j * (-damp * c + c2)
    # columns in pair order: (v1, v2) per pair, the column alone when
    # self-paired
    out = np.zeros(vecs.shape[:-1] + (lead.size, 2), dtype=complex)
    out[..., 0] = vecs[..., lead]
    out[..., paired, 0] = v1 / np.linalg.norm(v1, axis=-2, keepdims=True)
    out[..., paired, 1] = v2 / np.linalg.norm(v2, axis=-2, keepdims=True)
    keep = np.stack([np.ones_like(paired), paired], axis=1).ravel()
    out = out.reshape(vecs.shape[:-1] + (-1,))[..., keep]
    return stdspace.RealSubspace.orthonormalised(out, (tiles, tiles), labels)


# ---------------------------------------------------------------------------
# the net model
# ---------------------------------------------------------------------------


def _wedge_geometry(region):
    """Per-factor orientations and the apex of a wedge-like region.

    Chiral factor i is the half-line (a_i, oo) for orientation +1 and
    (-oo, a_i) for -1, with a_i the apex coordinate on its lightray.
    A rapidity block follows the first orientation: W_R is the
    orientation -1 half-line in rapidity, W_L the +1 one.
    """
    kinds = spacetime.RegionKind
    if region.kind is kinds.WEDGE_RIGHT:
        return (-1, +1), spacetime.wedge_corner(region)
    if region.kind is kinds.WEDGE_LEFT:
        return (+1, -1), spacetime.wedge_corner(region)
    if region.kind is kinds.LIGHTCONE_FWD:
        return (+1, +1), (region.left[0], region.right[0])
    if region.kind is kinds.LIGHTCONE_BWD:
        return (-1, -1), (region.left[1], region.right[1])
    raise ValueError(
        f"region kind {region.kind.name} is not wedge-like; use "
        "region_subspace_dual for double cones"
    )


def _wedge_eigen(factors, region):
    """The exact eigen form of a wedge-like region's modular data, one
    tile per factor: log Delta = 2 pi kappa (T, s), the eigenvectors V =
    apex phases times the inverse DFT (T, s, s), and the phases z (T, s)
    of J = diag(z) conj, which maps column m of a tile to column -m mod s.

    A lightcone is wedge data only where every factor moves along one
    lightray; a rapidity factor carries momentum along both.
    """
    orients, apex = _wedge_geometry(region)
    if orients[0] == orients[1] and any(f.rapidity for f in factors):
        raise ValueError(
            "lightcone modular data is not wedge data in a massive "
            "model; lightcone subspaces exist on the chiral models"
        )
    log_delta = np.stack([orients[f.ray] * _TWO_PI * _kappa(f.n, f.h)
                          for f in factors])
    phases = reps.translation_phases(factors, *apex).reshape(log_delta.shape)
    vecs = phases[..., None] * _dft(log_delta.shape[-1]).conj().T
    return log_delta, vecs, phases ** 2


def _reads(f, pair):
    """The components of a lightray pair that a factor reads: its own
    lightray's for a chiral factor, both for a rapidity factor."""
    return tuple(pair) if f.rapidity else (pair[f.ray],)


class NetModel:
    """A lattice representation together with its net of wedge subspaces.

    The wedge family is generated tile by tile from the factor
    half-lines; every wedge subspace and wedge record is cached under its
    canonical region key, every dual double cone under its shape and
    method, and each is reproduced bit-stably on re-query.

    The model declares which of its tiles are equal (:mod:`stdspace`):
    :meth:`labels` labels each factor tile of what it builds by what the
    tile is made of, read from the factor records and the region alone,
    never from array entries, and :meth:`action_labels` those of the
    action tiles.  Its subspaces and records carry their labels; an
    operator's are handed beside its stack.
    """

    def __init__(self, kind, factors, *, charge=0.0):
        """A model on C^n, n the slots of all ``factors``: ``tiles``
        holds each factor's slots as one tile, so n is ``tiles.size``."""
        if kind not in MODEL_KINDS:
            raise ValueError(f"unknown model kind {kind!r}")
        self.kind = kind
        self.factors = tuple(factors)
        self.charge = float(charge)
        self._cache = {}
        self._lock = threading.Lock()
        sizes = sorted({f.n for f in self.factors})
        if len(sizes) > 1:
            raise ValueError(f"the factors of a model must have one size, "
                             f"got sizes {sizes}")
        # the slots of each factor: the tiles of the model's operators
        self.tiles = np.arange(sum(f.n for f in self.factors)).reshape(
            len(self.factors), -1)
        # the tiles of the group action: the twisted model's copy rotation
        # pairs each factor with its copy
        self.action_tiles = (np.hstack(np.split(self.tiles, 2))
                             if kind == "twisted" else self.tiles)

    # -- constructors ------------------------------------------------------

    @classmethod
    def chiral_sum(cls, n=33, h=SOLVABLE_SPACING):
        """Sum of two chiral factors on symmetric log-momentum grids."""
        return cls("chiralSum",
                   reps.build_rep({"kind": "chiralSum", "n": n, "h": h}))

    @classmethod
    def massive(cls, n=128, h=2.5, mass=1.0):
        return cls("massive", reps.build_rep(
            {"kind": "massive", "n": n, "h": h, "mass": mass}))

    @classmethod
    def direct_integral(cls, masses=4, n=32, h=2.5,
                        mass_min=0.5, mass_max=4.0):
        return cls("directIntegral", reps.build_rep({
            "kind": "directIntegral", "n": n, "h": h,
            "mass_min": mass_min, "mass_max": mass_max,
            "mass_count": masses,
        }))

    @classmethod
    def twisted(cls, n=33, h=SOLVABLE_SPACING, charge=1.0):
        """Two copies of the summed model mixed by an inner rotation.

        The deformed family U_V(g) = U(g) V(q sigma) with sigma the
        overall dilation parameter of g leaves the Poincare subgroup
        untouched and rotates the two copies under dilations.
        """
        return cls("twisted",
                   reps.build_rep({"kind": "twisted", "n": n, "h": h}),
                   charge=charge)

    @functools.cached_property
    def epsilon(self):
        """The model residual budget: BUDGET_FACTOR times the one-step
        consistency residual of the modular flow with the shift, plus the
        floor; measured on first read.  The flow is the first tile of the
        origin wedge oriented +1 on factor 0's lightray: its half-line
        (0, oo)."""
        f = self.factors[0]
        k = 1 if f.n % 2 else 2        # even grids compare even steps only
        region = (spacetime.Region.wedge_right() if f.ray
                  else spacetime.Region.wedge_left())
        step = self.wedge_modular(region).power_tiles(1j * k * f.h / _TWO_PI)
        residual = stdspace.tile_norm(step[0] - _roll(f.n, -k))
        return BUDGET_FACTOR * (residual + BUDGET_FLOOR)

    # -- tile labels -------------------------------------------------------

    def labels(self, orients=(0, 0), translation=(0.0, 0.0),
               dilation=(0.0, 0.0)):
        """The label of each factor tile of what the model builds at the
        orientations ``orients`` and the lightray pairs ``translation``
        and ``dilation`` (0 where it has none); tiles of one label are
        bitwise equal.  A label holds what its tile is made of: n, h, the
        orientation on the factor's lightray, the dilation components the
        factor reads and the translation it carries.  A chiral factor's
        momenta e^{u0 + j h} are fixed by (n, h), so it carries its own
        lightray's component; a rapidity factor's depend on its mass,
        which the record does not hold, so a nonzero translation makes
        its tile a class of its own."""
        labels = []
        for i, f in enumerate(self.factors):
            carried = _reads(f, translation)
            if f.rapidity and any(carried):
                carried = (i,) + carried
            labels.append((f.n, f.h, orients[f.ray], _reads(f, dilation),
                           carried))
        return tuple(labels)

    def action_labels(self, orients=(0, 0), dilation=(0.0, 0.0)):
        """The labels of the action tiles: each the set of its factor
        tiles' :meth:`labels`, with their places in it."""
        return stdspace.merged_labels(
            self.labels(orients, dilation=dilation), self.tiles,
            self.action_tiles)

    # -- wedge construction ------------------------------------------------

    def _region_key(self, region):
        return (region.kind.name,
                float(region.left[0]), float(region.left[1]),
                float(region.right[0]), float(region.right[1]))

    def _cached(self, key, build):
        """The cached value of ``key``, built on a miss."""
        with self._lock:
            hit = self._cache.get(key)
        if hit is None:
            hit = build()
            with self._lock:
                hit = self._cache.setdefault(key, hit)
        return hit

    def wedge_modular(self, region):
        """Validated modular data of a wedge-like region (cached), its
        exact eigen form (:func:`_wedge_eigen`) on the factor tiles, J as
        diag(z) on each: no eigensolve and no dense Delta, V or J."""
        def build():
            orients, apex = _wedge_geometry(region)
            log_delta, vecs, z = _wedge_eigen(self.factors, region)
            return stdspace.ModularData(
                vecs, log_delta, z[..., None] * np.eye(z.shape[-1]),
                tiling=self.tiles, labels=self.labels(orients, apex))
        # a 6-tuple: no subspace (5) or dual cone (2) key equals it
        return self._cached(("modular",) + self._region_key(region), build)

    def wedge_subspace(self, region):
        """The real standard subspace of a wedge-like region (cached).

        Only an apex-0 region runs the eigenpair formula; any other apex
        is the translate H(W + a) = U(a) H(W) of the cached apex-0
        subspace of the same orientations.
        """
        def build():
            orients, apex = _wedge_geometry(region)
            if any(apex):
                origin = self.wedge_subspace(
                    region.translate((-apex[0], -apex[1])))
                return self._translated(origin, apex)
            log_delta, vecs, _ = _wedge_eigen(self.factors, region)
            return _eigenpair_fix(self.tiles, log_delta, vecs,
                                  self.labels(orients))
        return self._cached(self._region_key(region), build)

    def _translated(self, h, apex):
        """U(a) H for the lightray pair a = ``apex``: H phased, the
        phases labelled on the tiles of H."""
        return h.phased(reps.translation_phases(self.factors, *apex),
                        stdspace.merged_labels(self.labels(translation=apex),
                                               self.tiles, h.tiling[0]))

    def wedge_flow(self, region, t):
        """Delta_W^{it}, the flow of :meth:`wedge_modular`, as the stack
        of its tiles on ``tiles``."""
        return self.wedge_modular(region).power_tiles(1j * t)

    # -- dual-prescription regions ----------------------------------------

    def region_subspace_dual(self, region, method="exact"):
        """Dual-net subspace H(W_R) cap H(W_L) of a double cone.

        Moved so that the corner of its minimal W_R sits at the origin, a
        cone's minimal wedges depend only on its shape, the W_L corner
        relative to the W_R corner.  The intersection runs once per shape
        and method (cached), between the origin H(W_R) and the origin
        H(W_L) phased to the shape; by covariance the cone's dual is that
        one phased by its W_R corner.  The alternating projection method
        gets a large iteration allowance, which squaring makes cheap.
        """
        if region.kind is not spacetime.RegionKind.DOUBLE_CONE:
            raise ValueError("dual prescription covers double cones, "
                             f"not {region.kind.name}")
        w_r, w_l = spacetime.minimal_wedges(region)
        corner, far = spacetime.wedge_corner(w_r), spacetime.wedge_corner(w_l)
        shape = (far[0] - corner[0], far[1] - corner[1])

        def build():
            origin_l = self.wedge_subspace(spacetime.Region.wedge_left())
            return stdspace.intersect(
                [self.wedge_subspace(spacetime.Region.wedge_right()),
                 self._translated(origin_l, shape)],
                method=method, max_iter=1 << 26)
        return self._translated(self._cached((shape, method), build), corner)

    def mass_fiber_models(self):
        """Single-mass models of the integrand fibers (directIntegral).

        The fibers share the rapidity grids of the integral, so their
        assembled wedge data reproduces the global block structure.
        """
        if self.kind != "directIntegral":
            raise ValueError("fiber models exist for directIntegral only")
        return [NetModel("massive", (f,)) for f in self.factors]

    # -- representation consistency ---------------------------------------

    def unit_matrix_of(self, translation=(0.0, 0.0), dilation=(0.0, 0.0)):
        """U(x -> e^sigma x + t) on the orthonormal slot basis, with
        lightray pairs ``translation`` = (t_L, t_R) and ``dilation`` =
        (sigma_L, sigma_R) (see :func:`reps.apply`), as the stack of its
        complex tiles on ``tiles``: U of each factor's unit columns."""
        t, s = self.tiles.shape
        return reps.apply(self.factors, np.tile(np.eye(s), (t, 1)),
                          translation, dilation).reshape(t, s, s)

    def implemented_dilation(self, s):
        """The dilation by s on both lightrays, then on twisted the inner
        rotation V(q s): the stack of its tiles on ``action_tiles``, of
        the ``action_labels(dilation=(s, s))``."""
        u = stdspace.merged(self.unit_matrix_of(dilation=(s, s)),
                            self.tiles, self.action_tiles)
        return _rotated(u, self.charge * s) if self.kind == "twisted" else u

    def __repr__(self):
        return (f"NetModel(kind={self.kind!r}, n={self.tiles.size}, "
                f"epsilon={self.epsilon:.2e})")


def _rotated(x, s):
    """x V(s) for the copy rotation V(s) = [[c, -s], [s, c]] (c = cos s):
    the column mix [c A + s B, c B - s A] of the copy halves [A, B] of x
    or of each of its action tiles."""
    a, b = np.split(x, 2, axis=-1)
    c, s = math.cos(s), math.sin(s)
    return np.concatenate([c * a + s * b, c * b - s * a], axis=-1)


def _dyadic_cones(count):
    """Dyadic double-cone boxes accumulating at the tip and the spine."""
    boxes = []
    level = 0
    while len(boxes) < count:
        scale = 2.0 ** (-level)
        for kx in range(level + 1):
            if len(boxes) >= count:
                break
            ky = level - kx
            boxes.append((scale * kx, scale * (kx + 1),
                          scale * ky, scale * (ky + 1)))
        level += 1
    return boxes


# ---------------------------------------------------------------------------
# axiom report
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class Measurement:
    """One check: its measured residual, the budget that residual is held
    to, and a free-text detail.  ``budget`` is None where the check's
    ``cli.CHECKS`` row fixes the budget itself."""

    residual: float
    budget: float = None
    detail: str = ""

    #: whether the residual must come in strictly below its budget
    strict: bool = False

    @property
    def passed(self):
        if self.strict:
            return self.residual < self.budget
        return self.residual <= self.budget


def _dilation_deviation(net, t):
    """||Delta^{it} - U(delta(-2 pi t))|| on the forward cone at 0, on the
    tiles of the group action."""
    s = -_TWO_PI * t
    u = net.implemented_dilation(s)   # refuses an off-grid t
    flow = net.wedge_flow(spacetime.Region.forward_cone((0.0, 0.0)), t)
    # a tile of the difference is labelled by the cone's orientations
    # and the dilation together
    return stdspace.tile_norm(
        stdspace.merged(flow, net.tiles, net.action_tiles) - u,
        net.action_labels((+1, +1), (s, s)))


def axioms_report(net, tol=BLOCK_TOL):
    """Residuals of the net axioms on the configured sample families, as
    ``{check name: Measurement}`` in the order of ``cli.CHECKS``.

    The configured families are the ones the lattice can represent
    coherently: same-corner wedge/cone relations, grid-multiple flow
    parameters, and blockwise product structure.  The containment of
    translated wedges is stated in the isotony detail; momentum lattices
    do not resolve it (see the bundled studies).
    """
    entries = {}
    w_r = spacetime.Region.wedge_right((0.0, 0.0))
    w_l = spacetime.Region.wedge_left((0.0, 0.0))
    h_r = net.wedge_subspace(w_r)
    h_l = net.wedge_subspace(w_l)

    # SS1 isotony: dual double-cone spaces sit inside their minimal
    # wedges; verify on a sample cone.  Translated wedge containment is
    # not a configured family: momentum lattices fail it at order one.
    cone = spacetime.Region.double_cone((-1.0, 1.0), (-1.0, 1.0))
    dual = net.region_subspace_dual(cone)
    iso = max(stdspace.containment_gap(net.wedge_subspace(w), dual)
              for w in spacetime.minimal_wedges(cone))
    inner = net.wedge_subspace(spacetime.Region.wedge_right((-0.5, 0.5)))
    gap = stdspace.containment_gap(h_r, inner)
    entries["isotony"] = Measurement(
        iso, tol, f"dual cone dim {dual.dim}; translated wedge containment "
                  f"defect {gap:.3f} (unresolved on momentum lattices)")

    # SS2 covariance under translations: wedge data transported by an
    # implemented translation matches the translated wedge's own data.
    shift = (0.25, -0.4)
    moved = spacetime.Region.wedge_right(shift)
    u = net.unit_matrix_of(translation=shift)
    cov = stdspace.subspace_distance(
        net.wedge_subspace(moved),
        h_r.transform(u, net.tiles, net.labels(translation=shift)))
    entries["poincare-covariance"] = Measurement(cov, tol)

    # SS3 positivity of energy: the lightray translation generators P_L
    # and P_R are diagonal on every factor; their minimum is the residual.
    spec_min = min(float(np.min(p)) for f in net.factors
                   for p in (f.p_l, f.p_r))
    entries["positivity-of-energy"] = Measurement(
        max(0.0, -spec_min), tol, f"spectral minimum {spec_min:.3e}")

    # SS4 Reeh-Schlieder: wedges are cyclic and separating.
    std_r = stdspace.standardness(h_r)
    std_l = stdspace.standardness(h_l)
    entries["reeh-schlieder"] = Measurement(
        0.0 if (std_r.standard and std_l.standard) else 1.0, tol,
        f"minimal angles {std_r.minimal_angle:.2e}/"
        f"{std_l.minimal_angle:.2e}")

    # SS5 locality: the left wedge sits inside the symplectic complement
    # of the right wedge (here: exact wedge duality).
    loc = stdspace.containment_gap(stdspace.symplectic_complement(h_r), h_l)
    entries["locality"] = Measurement(loc, tol)

    # SS6 Bisognano-Wichmann: the independently recomputed modular data
    # of H(W_R) reproduces the defining pair.
    bw = stdspace.modular_roundtrip(net.wedge_modular(w_r), h_r)
    entries["bisognano-wichmann"] = Measurement(bw, max(tol, net.epsilon))

    if net.kind in DILATION_KINDS:
        _hk_entries(net, entries, tol)
    return entries


def _hk_entries(net, entries, tol):
    """Dilation-era axioms for the summed (and twisted) chiral models."""
    cone = spacetime.Region.forward_cone((0.0, 0.0))
    h_v = net.wedge_subspace(cone)

    # HK7 dilation covariance: a grid dilation maps the cone family to
    # itself; transported subspace vs stored subspace.
    h = net.factors[0].h
    u = net.implemented_dilation(h)
    cov = stdspace.subspace_distance(
        h_v, h_v.transform(u, net.action_tiles,
                           net.action_labels(dilation=(h, h))))
    entries["dilation-covariance"] = Measurement(cov, tol)

    # HK8: the cone subspace is cyclic and separating.
    std = stdspace.standardness(h_v)
    entries["cone-standardness"] = Measurement(
        0.0 if std.standard else 1.0, tol,
        f"minimal angle {std.minimal_angle:.2e}")

    # HK9 Bisognano-Wichmann for dilations: Delta_{V+}^{it} against the
    # (possibly twisted) implemented dilation flow at grid multiples.
    t = h / _TWO_PI
    entries["dilation-bisognano-wichmann"] = Measurement(
        _dilation_deviation(net, t), tol,
        "twisted flow deviates by |e^{2 pi i q t} - 1|"
        if net.kind == "twisted" else "")

    # HK10 modular covariance: the modular flow of the cone preserves
    # the wedge family it generates (checked on H(W_R) at a grid step).
    w_r = spacetime.Region.wedge_right((0.0, 0.0))
    h_r = net.wedge_subspace(w_r)
    moved = h_r.transform(net.wedge_flow(cone, t), net.tiles,
                          net.labels((+1, +1)))
    target = net.wedge_subspace(w_r)  # dilations about 0 fix the corner
    hk10 = stdspace.subspace_distance(moved, target)
    entries["modular-covariance"] = Measurement(hk10, tol)

    # HK10b strong additivity surrogate on the lattice: the dual double
    # cone of the unit cell is recovered from its two minimal wedges by
    # construction; report the Halperin/exact agreement instead.  The
    # exact dual is trivial on these lattices, as the detail states.
    cone2 = spacetime.Region.unit_double_cone()
    exact = net.region_subspace_dual(cone2, method="exact")
    halp = net.region_subspace_dual(cone2, method="halperin")
    add = stdspace.subspace_distance(exact, halp)
    entries["strong-additivity"] = Measurement(
        add, tol,
        f"dual cone dim {exact.dim} (exact) / {halp.dim} (Halperin)")


# ---------------------------------------------------------------------------
# reconstruction on the solvable model
# ---------------------------------------------------------------------------


def assemble_blockwise(subspaces):
    """Direct sum of per-factor real subspaces on the product space.

    The factors' complex bases are summed directly into a subspace of
    the joint complex space, so blockwise computations can be compared
    against global ones on the assembled lattice.
    """
    return stdspace.RealSubspace.from_complex(
        _direct_sum([s.complex_basis() for s in subspaces]))


def grid_steps(t, h):
    """Dilation steps of spacing h in 2 pi t, by the rule the
    representation applies to the dilation itself."""
    return reps.shift_steps(_TWO_PI * t, h, "dilation")


def reconstruct_ur(net, t_values=(0.5, 1.0, 1.5, 2.0)):
    """Rebuild the interval one-parameter groups from half-band data.

    On the summed two-factor model the candidates U_R(t) =
    Delta_{B_L}^{it} U(delta(2 pi t) x 1) and the mirrored U_L(t) are
    formed from independently recomputed modular data of the half-band
    subspaces.  Returns ``(checks, tables)``: the ``flow`` table has one
    row per t of the residuals of the product identity against the
    modular flow of the double cone, of the mutual commutator and of the
    left-factor cancellation, and the ``reconstruction-*`` checks of
    ``cli.CHECKS`` are their maxima and the identity at t = 0.  Every
    2 pi t must be a grid multiple.

    The lattice implements exactly one Cartan flow per factor, so no
    grid operator realizes the interval dilations: each unit interval
    (0, 1) is designated by the half-line (1, oo) sharing its right
    endpoint.  B_L = (0, oo) x (0, 1), B_R = (0, 1) x (0, oo) and
    D_0 = (0, 1) x (0, 1) are thus the model's forward lightcones at
    the apexes (0, 1), (1, 0) and (1, 1).  The identities hold for any
    consistent designation; the geometric deficit is reported, not
    hidden.

    D_0's half-lines are (1, oo) on both lightrays: its left tile is B_R's
    and its right tile B_L's, bit for bit, so D_0's data is read from
    theirs.  Two records are recomputed, and D_0's flow at t is
    assembled from the two flows at t, which are taken anyway.
    """
    if net.kind != "chiralSum":
        raise ValueError(
            "reconstruction runs on the exactly solvable summed model; "
            f"got kind {net.kind!r}")
    md_bl, md_br = (
        stdspace.modular_data(net.wedge_subspace(
            spacetime.Region.forward_cone(apex)))
        for apex in ((0.0, 1.0), (1.0, 0.0)))
    norm = stdspace.tile_norm

    def dilated(md, t, i):
        # Delta^{it} U(delta(2 pi t)) on factor i alone, on the cones'
        # tiles, the factors: tile i's columns roll, a permutation, so
        # the product is exact
        x = md.power_tiles(1j * t)
        x[i] = np.roll(x[i], grid_steps(t, net.factors[i].h), axis=-1)
        return x

    one = np.eye(net.factors[0].n)
    rows = []
    for t in t_values:
        a, b = dilated(md_bl, t, 0), dilated(md_br, t, 1)   # U_R, U_L
        # D_0's flow: the tiles that a and b leave unrolled
        d0 = np.stack([b[0], a[1]])
        ab = a @ b
        rows.append({
            "t": t, "identity_residual": norm(d0 - ab),
            "commutator_residual": norm(ab - b @ a),
            # U_R acts trivially on the left factor, tile 0
            "left_cancellation": norm(a[0] - one)})
    zero = norm(dilated(md_bl, 0.0, 0) @ dilated(md_br, 0.0, 1) - one)

    def worst(field):
        return Measurement(max(row[field] for row in rows))

    checks = {"reconstruction-identity": worst("identity_residual"),
              "reconstruction-commutator": worst("commutator_residual"),
              "reconstruction-left-cancellation": worst("left_cancellation"),
              "reconstruction-at-zero": Measurement(zero)}
    fields = ("t", "identity_residual", "commutator_residual",
              "left_cancellation")
    return checks, {"flow": (fields, rows)}


# ---------------------------------------------------------------------------
# the twisted counterexample
# ---------------------------------------------------------------------------


def counterexample_bw(net, t_values=(0.5, 1.0, 1.5), budget_scale=1.0):
    """Measure how the twisted dilation flow misses the modular flow.

    Precondition: the inner rotation is a gauge symmetry, i.e. preserves
    H(V+) and commutes with its modular data; a symmetry failing the
    preservation check is rejected.  For charge q the deviation at
    modular parameter t is |e^{2 pi i q t} - 1| exactly; wedge modular
    theory is untouched by the twist.  Returns ``(checks, tables)``: the
    ``counterexample-*`` checks of ``cli.CHECKS``, the wedge roundtrip
    held to the model epsilon times ``budget_scale``, and the
    ``deviation`` table of the measured and predicted deviation per t.
    """
    if net.kind != "twisted":
        raise ValueError("the counterexample runs on the twisted model")
    cone = spacetime.Region.forward_cone((0.0, 0.0))
    h_v = net.wedge_subspace(cone)

    tiles = net.action_tiles
    rotation = np.stack([_rotated(np.eye(tiles.shape[1]), 0.7)] * len(tiles))
    sym = stdspace.symmetry_commutation_check(h_v, rotation, tiles,
                                              net.action_labels())

    rows = [{"t": t, "deviation": _dilation_deviation(net, t),
             "predicted": abs(np.exp(2j * np.pi * net.charge * t) - 1.0)}
            for t in t_values]

    w_r = spacetime.Region.wedge_right((0.0, 0.0))
    roundtrip = stdspace.modular_roundtrip(net.wedge_modular(w_r),
                                           net.wedge_subspace(w_r))
    checks = {
        "counterexample-formula": Measurement(max(
            abs(row["deviation"] - row["predicted"]) for row in rows)),
        "counterexample-wedge-roundtrip": Measurement(
            roundtrip, net.epsilon * budget_scale),
        "counterexample-gauge-invariance": Measurement(sym.max_residual),
    }
    return checks, {"deviation": (("t", "deviation", "predicted"), rows)}


# ---------------------------------------------------------------------------
# lightcone separating study
# ---------------------------------------------------------------------------


def lightcone_separating_study(masses=(1.0,), ladder=CONE_LADDER,
                               spacing=STUDY_SPACING,
                               frozen=FROZEN_CONE_DEFECT):
    """Separating defect of the forward cone under double-cone sums.

    For each mass and each ladder level (grid size, cone count) the
    sampled dyadic double cones contribute their dual subspaces; the
    defect is dim of the symplectic complement of their closed sum over
    the full real dimension.  Each level is a one-factor massive model
    of one rapidity record, whose wedge subspaces come from the
    window-free eigenpair formula, so the fine-grid levels never form
    Delta.  The model's :meth:`NetModel.region_subspace_dual` intersects
    once per cone shape; every cone of dyadic level l has widths
    (2^-l, 2^-l), so a level costs one intersection.

    Returns ``(checks, tables)``: the ``ladder`` table has one row per
    mass and level; ``cone-defect-monotone`` is the largest defect
    increase between consecutive levels of one mass's ladder, clamped at
    0, and ``cone-defect-below-frozen`` the finest defect, which must
    come in strictly below ``frozen``.
    """
    ladder = tuple(ladder)
    if not ladder:
        raise ValueError("empty refinement ladder")
    for _, count in ladder:
        if count < 0:
            raise ValueError("cone count must be nonnegative")
    rows = []
    max_rise = 0.0
    for mass in masses:
        previous = None
        for grid, count in ladder:
            net = NetModel("massive",
                           (reps.rapidity_factor(grid, spacing, mass),))
            duals = (net.region_subspace_dual(
                spacetime.Region.double_cone((al, bl), (ar, br)))
                for al, bl, ar, br in _dyadic_cones(count))
            nonzero = [s for s in duals if s.dim]
            if nonzero:
                total = stdspace.sum_closure(nonzero)
                comp = stdspace.symplectic_complement(total)
                defect = comp.dim / (2.0 * grid)
                sdim = total.dim
            else:
                defect, sdim = 1.0, 0
            rows.append({"mass": mass, "grid": grid, "cones": count,
                         "sum_dim": sdim, "defect": defect})
            if previous is not None:
                max_rise = max(max_rise, defect - previous)
            previous = defect
    finest = min(row["defect"] for row in rows)
    checks = {"cone-defect-monotone": Measurement(max_rise),
              "cone-defect-below-frozen": Measurement(finest, frozen,
                                                      strict=True)}
    fields = ("mass", "grid", "cones", "sum_dim", "defect")
    return checks, {"ladder": (fields, rows)}


# ---------------------------------------------------------------------------
# closed-form spectral checks
# ---------------------------------------------------------------------------


def spin_statistics_spectrum_check(pairs):
    """Largest distance of a rotation-spectrum difference from the
    integers; the check's budget is its ``cli.CHECKS`` row.

    ``pairs`` iterates over (mu, lam) lowest-weight pairs; an empty
    battery reads 0.
    """
    worst = 0.0
    for mu, lam in pairs:
        diff = float(mu) - float(lam)
        worst = max(worst, abs(diff - round(diff)))
    return worst


def trace_class_partition(beta, n_terms=200):
    """Squared geometric partition sum against its closed form.

    Returns (truncated value, closed form, absolute difference, tail
    bound).  The value at beta = ln 2 is exactly 1.
    """
    if beta <= 0:
        raise ValueError("inverse temperature must be positive")
    with mpmath.workdps(60):
        q = mpmath.exp(-mpmath.mpf(beta))
        q_n = q ** n_terms
        one_q, one_q_n = 1 - q, 1 - q_n
        partial = q * one_q_n / one_q
        closed = (q / one_q) ** 2
        value = partial ** 2
        tail = 2 * closed * q_n / one_q_n
        return (float(value), float(closed), float(abs(value - closed)),
                float(tail))
