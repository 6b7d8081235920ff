"""Lattice realization of the one-particle representation U.

A model's geometry is a tuple of factor records, one per half-line
block in slot order: its size, its dilation spacing, the lightray whose
orientation it follows (0 left, 1 right), and the diagonals of P_L and
P_R on its slots.  A chiral factor lives on a log-momentum grid and
carries momentum along its own lightray only; a rapidity factor of mass
m carries (p_L, p_R) = (m e^theta, m e^-theta) / sqrt 2 along both.

U acts on the orthonormal slot basis of these records.  The lattice
implements the translation-dilation subgroup only, and :func:`apply`
takes it in lightray coordinates: on each lightray the map
x -> e^sigma x + t, given as the pairs (t_L, t_R) and (sigma_L,
sigma_R).  The translation multiplies every slot by
e^{i(t_L p_L + t_R p_R)}; a dilation by a grid multiple sigma of a
chiral factor's lightray rolls its slots by sigma / h, and a boost
(sigma_R - sigma_L) / 2 rolls a rapidity factor's slots by that over h.
Every action is a phase or a permutation, so U is exactly unitary,
wrap-around slots included, and needs no quadrature weight.  Every
action is elementwise along the slot axis, so :func:`apply` also acts
on a stack of vectors held as a trailing column axis.
"""

from __future__ import annotations

import math
from typing import Mapping, NamedTuple

import numpy as np

STEP_TOL = 1e-9

_SQRT2 = math.sqrt(2.0)


class Factor(NamedTuple):
    """One half-line block of a model: ``n`` slots at dilation spacing
    ``h``, oriented like lightray ``ray`` (0 left, 1 right), with the
    diagonals ``p_l`` and ``p_r`` of P_L and P_R on its slots."""

    n: int
    h: float
    ray: int
    p_l: np.ndarray
    p_r: np.ndarray

    @property
    def rapidity(self):
        """Whether the factor carries momentum along both lightrays."""
        return bool(self.p_l.any() and self.p_r.any())


def _require_normal(grid, name, values):
    """Refuse grid values that are not finite positive normal doubles: an
    overflowed or underflowed value would silently change the model."""
    lo, hi = float(np.min(values)), float(np.max(values))
    tiny, huge = np.finfo(float).tiny, np.finfo(float).max
    if not tiny <= lo <= hi <= huge:
        raise ValueError(f"{grid} {name} span {lo:.3g} to {hi:.3g}, outside "
                         f"the normal doubles [{tiny:.3g}, {huge:.3g}]")


def _rapidities(n, h):
    """theta_j = (j - (n - 1) / 2) h: n rapidities symmetric about 0."""
    return (np.arange(n) - (n - 1) / 2.0) * h


# ---------------------------------------------------------------------------
# construction
# ---------------------------------------------------------------------------


def _chiral_pair(n, h):
    """Two chiral factors, left and right, on one log-momentum grid
    p_j = e^{u_j}, u_j = u0 + j h, symmetric about u = 0.

    Slot j stands for the normalised indicator of its log-momentum cell,
    whose L^2(R_+, p dp) mass p_j^2 h must be a normal double, as the
    momenta must.
    """
    n, h = int(n), float(h)
    if n < 2:
        raise ValueError("grid needs at least 2 points")
    if h <= 0:
        raise ValueError("grid spacing must be positive")
    u0 = -(n - 1) * h / 2.0
    grid = f"ChiralGrid(n={n}, h={h}, u0={u0})"
    with np.errstate(over="ignore"):
        p = np.exp(u0 + h * np.arange(n))
        mass = p**2 * h
    _require_normal(grid, "momenta", p)
    _require_normal(grid, "p^2 h", mass)
    if n % 2 == 0:
        # the modular spectrum zeroes the unpaired Nyquist mode of an even
        # grid, which leaves the odd-step dilation flows off by O(1)
        raise ValueError(f"chiral grids need an odd size, got {n}")
    zero = np.zeros(n)
    return (Factor(n, h, 0, p, zero), Factor(n, h, 1, zero, p))


def rapidity_factor(n, h, mass):
    """The mass-``mass`` factor on the symmetric rapidity grid of ``n``
    points at spacing ``h``; the boost rolls its slots.  Refused unless
    n >= 2, h > 0, mass > 0 and every m e^{+-theta} is a normal double."""
    n, h, mass = int(n), float(h), float(mass)
    if n < 2:
        raise ValueError(f"rapidity grid size must be at least 2, got {n}")
    if not h > 0:
        raise ValueError(f"grid spacing must be positive, got {h}")
    if not mass > 0:
        raise ValueError(f"mass must be positive, got {mass}")
    theta = _rapidities(n, h)
    with np.errstate(over="ignore"):
        m_exp = mass * np.exp([theta, -theta])
    _require_normal(f"RapidityGrid(n={n}, h={h}, theta0={theta[0]}, "
                    f"mass={mass})", "m e^{+-theta}", m_exp)
    return Factor(n, h, 0, mass * np.exp(theta) / _SQRT2,
                  mass * np.exp(-theta) / _SQRT2)


def _rapidity_factors(n, h, masses):
    """Rapidity factors, one per mass, on one shared grid of even size."""
    if int(n) % 2:
        raise ValueError("rapidity grid size must be even and >= 2")
    return tuple(rapidity_factor(n, h, mass) for mass in masses)


def build_rep(params: Mapping) -> tuple:
    """The factor records of a model from a configuration mapping.

    Recognized kinds: chiralSum and twisted {n, h}; massive {n, h, mass};
    directIntegral {n, h, mass_min, mass_max, mass_count}.  Every grid is
    symmetric about 0.  The twisted model lists its chiral pair twice,
    once per copy; the direct integral has one rapidity factor per
    midpoint mass of its window.
    """
    kind = params.get("kind")
    if kind in ("chiralSum", "twisted"):
        pair = _chiral_pair(params["n"], params["h"])
        return pair * 2 if kind == "twisted" else pair
    if kind == "massive":
        return _rapidity_factors(params["n"], params["h"], [params["mass"]])
    if kind == "directIntegral":
        count = int(params["mass_count"])
        lo, hi = float(params["mass_min"]), float(params["mass_max"])
        if not 0 < lo < hi:
            raise ValueError("mass window must satisfy 0 < mass_min < mass_max")
        if count < 1:
            raise ValueError("need at least one mass")
        dm = (hi - lo) / count
        masses = lo + dm * (np.arange(count) + 0.5)
        if np.unique(masses).size != masses.size:
            raise ValueError("masses must be distinct")
        return _rapidity_factors(params["n"], params["h"], masses)
    raise ValueError(f"unknown representation kind {kind!r}")


# ---------------------------------------------------------------------------
# the action
# ---------------------------------------------------------------------------


def shift_steps(sigma, h, what):
    """Grid steps of spacing h in sigma, which must be an integer
    multiple of h up to STEP_TOL in units of h."""
    steps = sigma / h
    k = round(steps)
    if abs(steps - k) > STEP_TOL:
        raise ValueError(
            f"{what} parameter {sigma:.6g} is not an integer multiple "
            f"of the grid spacing {h:.6g}"
        )
    return int(k)


def translation_phases(factors, t_l, t_r):
    """Diagonal of the lightray translation e^{i(t_L P_L + t_R P_R)}."""
    return np.concatenate([np.exp(1j * (t_l * f.p_l + t_r * f.p_r))
                           for f in factors])


def _slot_steps(f, sigma_l, sigma_r):
    """Slots a factor rolls by under the dilation (sigma_L, sigma_R).

    A chiral factor follows its own lightray; a rapidity factor, with
    momentum along both, implements only the boost (sigma_R - sigma_L)/2
    and refuses an overall dilation, which would change its mass.
    """
    if not f.rapidity:
        return -shift_steps((sigma_l, sigma_r)[f.ray], f.h, "dilation")
    if sigma_l + sigma_r != 0:
        raise ValueError(
            "overall dilation component not implementable on a "
            "fixed-mass fiber"
        )
    return shift_steps((sigma_r - sigma_l) / 2.0, f.h, "boost")


def apply(factors, xi, translation=(0.0, 0.0), dilation=(0.0, 0.0)):
    """Act with U(x -> e^sigma x + t) on a slot vector, one map per
    lightray: ``translation`` = (t_L, t_R) and ``dilation`` = (sigma_L,
    sigma_R), each sigma a multiple of the grid spacing it acts on.

    U(x -> e^sigma x + t) = U(tau(t)) U(delta(sigma)): the slots roll,
    then take the translation phase.  ``xi`` may carry one trailing axis
    of columns, each acted on as a vector; every action is elementwise
    along the slots, so a column comes out as it would alone.
    """
    xi = np.asarray(xi, dtype=complex)
    n = sum(f.n for f in factors)
    if xi.shape[:1] != (n,) or xi.ndim > 2:
        raise ValueError(f"vector shape {xi.shape} != rep shape {(n,)}")
    out = np.empty_like(xi)
    start = 0
    for f in factors:
        rows = slice(start, start + f.n)
        out[rows] = np.roll(xi[rows], _slot_steps(f, *dilation), axis=0)
        start += f.n
    phases = translation_phases(factors, *translation)
    return out * phases.reshape((n,) + (1,) * (xi.ndim - 1))
