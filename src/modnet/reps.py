"""Grid realizations of the one-particle representations.

Chiral fibers live on log-momentum grids (so dilations are exact weighted
shifts), massive fibers on periodic rapidity grids (so boosts are exact
cyclic shifts); translations are diagonal phase multiplications in either
picture.  All shift actions carry the quadrature-weight Jacobian
sqrt(w_src / w_dst) per slot, which makes them exactly unitary for the
grid inner product, including the wrap-around slots.  Every action is
elementwise along the vector axes, so :func:`apply` also acts on a
stack of vectors held as a trailing column axis.
"""

from __future__ import annotations

import dataclasses
import math
from typing import Mapping

import numpy as np

from .mobius import CoverElement, GElement, MobiusElement

AFFINE_TOL = 1e-12
STEP_TOL = 1e-9

_SQRT2 = math.sqrt(2.0)


def _require_normal(grid, name, values):
    """Refuse grid values that are not finite positive normal doubles: an
    overflowed or underflowed weight would silently change the model."""
    lo, hi = float(np.min(values)), float(np.max(values))
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    if not tiny <= lo <= hi <= huge:
        raise ValueError(f"{grid!r} {name} span {lo:.3g} to {hi:.3g}, outside "
                         f"the normal doubles [{tiny:.3g}, {huge:.3g}]")


class ChiralGrid:
    """Log-spaced momentum grid for L^2(R_+, p dp).

    Points u_j = u0 + j h carry momenta p_j = e^{u_j} and quadrature
    weights w_j = p_j^2 h (the measure p dp in log coordinates).
    """

    __slots__ = ("n", "h", "u0", "points", "momenta", "weights")

    def __init__(self, n, h, u0):
        if n < 2:
            raise ValueError("grid needs at least 2 points")
        if h <= 0:
            raise ValueError("grid spacing must be positive")
        self.n = int(n)
        self.h = float(h)
        self.u0 = float(u0)
        self.points = self.u0 + self.h * np.arange(self.n)
        with np.errstate(over="ignore"):
            self.momenta = np.exp(self.points)
            self.weights = self.momenta**2 * self.h
        _require_normal(self, "momenta", self.momenta)
        _require_normal(self, "weights", self.weights)

    def inner(self, x, y):
        return complex(np.sum(self.weights * np.conj(x) * y))

    def norm(self, x):
        return math.sqrt(max(self.inner(x, x).real, 0.0))

    def __repr__(self):
        return f"ChiralGrid(n={self.n}, h={self.h}, u0={self.u0})"


class RapidityGrid:
    """Periodic rapidity grid for a mass-m fiber L^2(R, dp1 / 2 omega).

    theta_j = theta0 + j h with p1 = m sinh(theta), omega = m cosh(theta);
    the measure dp1/(2 omega) becomes d(theta)/2, so all weights are h/2.
    """

    __slots__ = ("n", "h", "theta0", "mass", "theta", "weights")

    def __init__(self, n, h, theta0, mass):
        if n < 2 or n % 2:
            raise ValueError("rapidity grid size must be even and >= 2")
        if h <= 0:
            raise ValueError("grid spacing must be positive")
        if mass <= 0:
            raise ValueError("mass must be positive")
        self.n = int(n)
        self.h = float(h)
        self.theta0 = float(theta0)
        self.mass = float(mass)
        self.theta = self.theta0 + self.h * np.arange(self.n)
        with np.errstate(over="ignore"):
            m_exp = self.mass * np.exp([self.theta, -self.theta])
        _require_normal(self, "m e^{+-theta}", m_exp)
        self.weights = np.full(self.n, self.h / 2.0)

    def lightray_momenta(self):
        """(p_L, p_R) = (m e^{theta}, m e^{-theta}) / sqrt(2)."""
        p_l = self.mass * np.exp(self.theta) / _SQRT2
        p_r = self.mass * np.exp(-self.theta) / _SQRT2
        return p_l, p_r

    def inner(self, x, y):
        return complex(np.sum(self.weights * np.conj(x) * y))

    def __repr__(self):
        return (f"RapidityGrid(n={self.n}, h={self.h}, "
                f"theta0={self.theta0}, mass={self.mass})")


KINDS = ("chiral", "massive", "productChiralSum", "directIntegral")


class LatticeRep:
    """A grid-realized unitary representation of (a subgroup of) G.

    The implemented subgroup is generated by arbitrary lightray
    translations together with dilations/boosts whose parameters are
    integer multiples of the grid spacings.  ``apply`` realizes group
    elements; everything is immutable and pure.
    """

    __slots__ = ("kind", "grids", "mass_weights", "mass_spacing")

    def __init__(self, kind, grids, mass_weights=None, mass_spacing=None):
        if kind not in KINDS:
            raise ValueError(f"unknown representation kind {kind!r}")
        self.kind = kind
        self.grids = tuple(grids)
        self.mass_weights = mass_weights
        self.mass_spacing = mass_spacing

    # -- geometry ----------------------------------------------------------

    @property
    def shape(self):
        if self.kind == "chiral":
            return (self.grids[0].n,)
        if self.kind == "massive":
            return (self.grids[0].n,)
        if self.kind == "productChiralSum":
            return (self.grids[0].n + self.grids[1].n,)
        return (len(self.grids), self.grids[0].n)

    def weight_array(self):
        """Quadrature weights, shaped like the vectors."""
        if self.kind in ("chiral", "massive"):
            return self.grids[0].weights
        if self.kind == "productChiralSum":
            return np.concatenate([self.grids[0].weights,
                                   self.grids[1].weights])
        theta_w = self.grids[0].weights
        return self.mass_weights[:, None] * theta_w[None, :]

    def inner(self, x, y):
        return complex(np.sum(self.weight_array() * np.conj(x) * y))

    def norm(self, x):
        return math.sqrt(max(self.inner(x, x).real, 0.0))

    def random_vector(self, rng):
        re = rng.normal(size=self.shape)
        im = rng.normal(size=self.shape)
        return re + 1j * im

    def apply(self, g, xi):
        return apply(self, g, xi)

    def __repr__(self):
        return f"LatticeRep(kind={self.kind!r}, shape={self.shape})"


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _chiral_grid(params):
    return ChiralGrid(params["n"], params["h"], params["u0"])


def build_rep(params: Mapping) -> LatticeRep:
    """Build a lattice representation from a configuration mapping.

    Recognized kinds: chiral {n, h, u0}; massive {n, h, theta0, mass};
    productChiralSum {left, right}; directIntegral
    {mass_min, mass_max, mass_count, theta: {n, h, theta0},
    spacing: "uniform" | "geometric"}.
    """
    kind = params.get("kind")
    if kind == "chiral":
        return LatticeRep(kind, (_chiral_grid(params),))
    if kind == "massive":
        grid = RapidityGrid(params["n"], params["h"], params["theta0"],
                            params["mass"])
        return LatticeRep(kind, (grid,))
    if kind == "productChiralSum":
        return LatticeRep(kind, (_chiral_grid(params["left"]),
                                 _chiral_grid(params["right"])))
    if kind == "directIntegral":
        count = int(params["mass_count"])
        lo, hi = float(params["mass_min"]), float(params["mass_max"])
        if not 0 < lo < hi:
            raise ValueError("mass window must satisfy 0 < mass_min < mass_max")
        if count < 1:
            raise ValueError("need at least one mass")
        spacing = params.get("spacing", "uniform")
        if spacing == "uniform":
            # midpoint masses; d(mu) = dm/4 makes the product
            # identification with its factor 2 an exact isometry
            dm = (hi - lo) / count
            masses = lo + dm * (np.arange(count) + 0.5)
            mass_weights = masses**3 * (dm / 4.0)
        elif spacing == "geometric":
            hm = (math.log(hi) - math.log(lo)) / count
            masses = np.exp(math.log(lo) + hm * (np.arange(count) + 0.5))
            mass_weights = masses**3 * (masses * hm / 4.0)
        else:
            raise ValueError(f"unknown mass spacing {spacing!r}")
        if np.unique(masses).size != masses.size:
            raise ValueError("masses must be distinct")
        t = params["theta"]
        grids = tuple(RapidityGrid(t["n"], t["h"], t["theta0"], m)
                      for m in masses)
        return LatticeRep(kind, grids, mass_weights=mass_weights,
                          mass_spacing=spacing)
    raise ValueError(f"unknown representation kind {kind!r}")


# ---------------------------------------------------------------------------
# group elements: affine data extraction
# ---------------------------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class _Affine:
    """One factor of the translation-dilation subgroup: x -> e^sigma x + t."""

    t: float
    sigma: float


def _affine_of(element, side=""):
    if isinstance(element, CoverElement):
        element = element.base
    if not isinstance(element, MobiusElement):
        raise TypeError(f"expected a group element, got {type(element)!r}")
    m = element.mat
    scale = np.max(np.abs(m))
    if abs(m[1, 0]) > AFFINE_TOL * scale:
        where = f"{side} factor " if side else ""
        raise ValueError(
            f"{where}has a rotation/special-conformal part; only the "
            "translation-dilation subgroup acts on a momentum lattice"
        )
    a, b = float(m[0, 0]), float(m[0, 1])
    if a <= 0:
        a, b = -a, -b
    return _Affine(t=a * b, sigma=2.0 * math.log(a))


def _shift_steps(sigma, h, what):
    steps = sigma / h
    k = round(steps)
    if abs(steps - k) > STEP_TOL:
        raise ValueError(
            f"{what} parameter {sigma:.6g} is not an integer multiple "
            f"of the grid spacing {h:.6g}"
        )
    return int(k)


def _pair_of(g):
    if isinstance(g, GElement):
        return _affine_of(g.left, "left"), _affine_of(g.right, "right")
    raise TypeError(
        "two-dimensional representations act through paired elements; "
        f"got {type(g)!r}"
    )


# ---------------------------------------------------------------------------
# elementary actions
# ---------------------------------------------------------------------------


def _weighted_shift(weights, xi, k):
    """Cyclic shift by k source slots along the first axis, with the exact
    measure Jacobian."""
    if k == 0:
        return xi.copy()
    src = np.roll(np.arange(weights.size), -k)
    jac = np.sqrt(weights[src] / weights)
    return xi[src] * jac.reshape((weights.size,) + (1,) * (xi.ndim - 1))


def _chiral_factor_action(grid, aff, xi):
    k = _shift_steps(aff.sigma, grid.h, "dilation")
    out = _weighted_shift(grid.weights, xi, k)
    phase = np.exp(1j * aff.t * grid.momenta)
    return out * phase.reshape((grid.n,) + (1,) * (out.ndim - 1))


def _massive_fiber_action(grid, t_l, t_r, boost, xi):
    k = _shift_steps(boost, grid.h, "boost")
    out = np.roll(xi, k, axis=0) if k else xi.copy()
    p_l, p_r = grid.lightray_momenta()
    phase = np.exp(1j * (t_l * p_l + t_r * p_r))
    return out * phase.reshape((grid.n,) + (1,) * (out.ndim - 1))


def apply(rep: LatticeRep, g, xi):
    """Act with a group element (or ``"j"``) on a vector.

    ``g`` may be a MobiusElement/CoverElement (chiral kind), a GElement
    (all two-dimensional kinds), or the string ``"j"`` for the antiunitary
    reflection, which is componentwise complex conjugation in every
    momentum picture here.  ``xi`` may carry one trailing axis of
    columns, each acted on as a vector; every elementary action is
    elementwise, so a column comes out as it would alone.
    """
    xi = np.asarray(xi, dtype=complex)
    if xi.shape[:len(rep.shape)] != rep.shape or xi.ndim > len(rep.shape) + 1:
        raise ValueError(f"vector shape {xi.shape} != rep shape {rep.shape}")
    if isinstance(g, str):
        if g == "j":
            return np.conj(xi)
        raise ValueError(f"unknown symbolic element {g!r}")

    if rep.kind == "chiral":
        if isinstance(g, GElement):
            raise TypeError(
                "a chiral fiber implements a single translation-dilation "
                "factor; got a paired element"
            )
        aff = _affine_of(g)
        return _chiral_factor_action(rep.grids[0], aff, xi)

    left, right = _pair_of(g)

    if rep.kind == "productChiralSum":
        gl, gr = rep.grids
        out = np.empty_like(xi)
        out[:gl.n] = _chiral_factor_action(gl, left, xi[:gl.n])
        out[gl.n:] = _chiral_factor_action(gr, right, xi[gl.n:])
        return out

    # massive kinds: split delta(s_L) x delta(s_R) into a boost
    # (antisymmetric part) and an overall dilation (symmetric part)
    boost = (right.sigma - left.sigma) / 2.0
    dilation = (right.sigma + left.sigma) / 2.0

    if rep.kind == "massive":
        if abs(dilation) > AFFINE_TOL:
            raise ValueError(
                "overall dilation component not implementable on a "
                "fixed-mass fiber"
            )
        return _massive_fiber_action(rep.grids[0], left.t, right.t, boost,
                                     xi)

    out = np.empty_like(xi)
    for i, grid in enumerate(rep.grids):
        out[i] = _massive_fiber_action(grid, left.t, right.t, boost, xi[i])
    if abs(dilation) > AFFINE_TOL:
        if rep.mass_spacing != "geometric" or len(rep.grids) < 2:
            raise ValueError(
                "overall dilation component not implementable on a "
                "uniformly spaced mass family"
            )
        hm = math.log(rep.grids[1].mass / rep.grids[0].mass)
        k = _shift_steps(dilation, hm, "dilation")
        out = _weighted_shift(rep.mass_weights, out, k)
    return out
