"""Mobius group of the (compactified) line, its universal cover, and
interval dilation flows: the group layer that ``verify-mobius``,
acceptance criterion 01 and the interval-flow oracle read.

Elements of the Mobius group are kept as canonical-sign matrices in
SL(2, R), the matrix [[a, b], [c, d]] standing for the fractional linear
map x -> (a x + b) / (c x + d) of the extended real line; the flows are
read and compared as these matrices.  The one action formed is that on
the circle (``act_circle``, ``act_angle``), through the Cayley map

    C(x) = -(x - i) / (x + i),            C(0) = 1, C(1) = i, C(inf) = -1,

which identifies the extended line with the unit circle.  An
:class:`Interval` is an open interval of the line, given by its two
endpoints, and its dilation flow is conjugated from that of the
positive half-line.

The universal cover is parametrised by a base element together with a
lifted rotation angle ``phi`` (a real lift of the Iwasawa angle, fixed on
products by the monotone turn of the first column, see
``CoverElement.compose``).  The lattice models take only the
translation-dilation part of one copy per lightray, as plain
coordinates (see :mod:`modnet.reps`), so no module of the net layer
imports this one.

The normal form (unit determinant, canonical sign) is one rule on stacks
of 2x2 matrices: an element applies it to its one matrix, and
``commutation_residuals`` to the flows of a whole batch of sampled
parameters at once.  Elements themselves may hold stacks: a matrix of
shape (..., 2, 2) is one element per leading index, and the generators,
products, inverses, the circle action, the Iwasawa decomposition and
the cover lift act member by member, each member getting the result it
gets alone.  Transcendental functions run through the math module (see
``_elementwise``), so that a stack reproduces single elements to the
last bit.
"""

from __future__ import annotations

import functools
import math

import numpy as np

INF = math.inf

_TWO_PI = 2.0 * math.pi

# complex matrix of the Cayley map and (projective) inverse
_CAYLEY = np.array([[-1.0, 1.0j], [1.0, 1.0j]])
_CAYLEY_INV = np.array([[1.0j, -1.0j], [-1.0, -1.0]])


class MobiusDomainError(ValueError):
    """Raised when parameters leave the admissible domain of an identity."""


def _elementwise(fn, *xs):
    """``fn`` of the math module over arrays broadcast together.

    numpy's vectorised exp, log, atan2, ... can differ from the math
    module in the last place, which would move the sampled residuals.
    Scalars give a numpy scalar.
    """
    if all(np.ndim(x) == 0 for x in xs):
        return np.float64(fn(*map(float, xs)))
    xs = np.broadcast_arrays(*(np.asarray(x, dtype=float) for x in xs))
    return np.fromiter(map(fn, *(x.ravel().tolist() for x in xs)), float,
                       xs[0].size).reshape(xs[0].shape)


def _scalar(x):
    """A single element's result as a Python float; a stack's as it is."""
    return float(x) if np.ndim(x) == 0 else x


def _mat2(a, b, c, d):
    """The matrix [[a, b], [c, d]], or the stack of them over arrays of
    equal shape."""
    return np.stack([a, b, c, d], axis=-1).reshape(np.shape(a) + (2, 2))


def wrap_angle(u):
    """Reduce an angle (or an array of angles) to the interval (-pi, pi]."""
    v = np.fmod(u, _TWO_PI)
    return _scalar(np.where(v > math.pi, v - _TWO_PI,
                            np.where(v <= -math.pi, v + _TWO_PI, v)))


# weights of (a, b, c, d): each outweighs all later ones together, so the
# sign of the weighted sum of signs is the sign of the first entry counted
_LEAD_WEIGHTS = np.array([8.0, 4.0, 2.0, 1.0])


def _canonical_sign(mats):
    """Flip the overall sign of each matrix of a stack of 2x2 matrices so
    that its first nonzero of (a, b, c, d) is > 0.

    Entries below a relative threshold count as zero, so that roundoff
    in a structurally vanishing entry cannot flip the representative.
    A zero matrix has no such entry and is returned as it is.
    """
    flat = mats.reshape(mats.shape[:-2] + (4,))
    mag = np.abs(flat)
    live = mag > 1e-8 * np.maximum.reduce(mag, axis=-1, keepdims=True)
    lead = np.copysign(live, flat) @ _LEAD_WEIGHTS
    return mats * np.copysign(1.0, lead)[..., None, None]


def _unimodular(mats):
    """Rescale a stack of real 2x2 matrices to determinant one and
    canonical sign: the normal form of :class:`MobiusElement`.

    The determinant of a near-unimodular matrix with large entries
    cancels catastrophically in double precision; extended precision
    keeps the rescaling meaningful up to entry sizes around 1e9.
    Raises ValueError unless every determinant is positive.
    """
    m = np.asarray(mats, dtype=float)
    ml = m.astype(np.longdouble)
    # read through the transpose, the entries of one matrix are numpy
    # scalars, whose arithmetic costs less than 0-d arrays; for a stack a
    # second transpose puts the stack axes back in order
    t = ml.T
    det = (t[0, 0] * t[1, 1] - t[1, 0] * t[0, 1]).T
    ok = (det > 0.0) & (det < np.inf)
    if not ok.all():
        k = np.unravel_index(np.argmin(ok), np.shape(ok))
        size = float(np.max(np.abs(m[k])))
        if np.isfinite(det[k]) and abs(det[k]) < 64.0 * size ** 2 * 2.3e-16:
            raise ValueError(
                "matrix is numerically singular: entries of size ~%.1e "
                "with a unit determinant exhaust double precision" % size
            )
        raise ValueError("matrix must have positive determinant")
    return _canonical_sign((ml / np.sqrt(det)[..., None, None]).astype(float))


#: the one-parameter subgroups, in the order of the ``kinds`` codes of
#: :meth:`MobiusElement.generators`
GENERATORS = ("rotation", "dilation", "translation")

# sign pattern of the adjugate [[d, -b], [-c, a]] of [[a, b], [c, d]]
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])


def _adjugate(m):
    """Adjugate of a 2x2 matrix or of each of a stack: its inverse up to
    the determinant."""
    return m[..., ::-1, ::-1].swapaxes(-1, -2) * _ADJUGATE_SIGNS


class MobiusElement:
    """An element of the Mobius group PSL(2, R), stored canonically.

    Parameters
    ----------
    mat : array_like, shape (2, 2) or (..., 2, 2)
        Real matrix with positive determinant; it is rescaled to
        determinant one and sign-canonicalised.  A stack of matrices
        makes a stack of elements, which every method but the repr
        handles member by member.
    """

    __slots__ = ("mat", "_inverse")

    def __init__(self, mat):
        m = np.asarray(mat, dtype=float)
        if m.shape[-2:] != (2, 2):
            raise ValueError("expected a 2x2 matrix")
        self.mat = _unimodular(m)
        self.mat.setflags(write=False)
        # the inverse, formed on first use
        self._inverse = None

    # -- constructors -------------------------------------------------

    @classmethod
    def generators(cls, kinds, x):
        """The generators ``GENERATORS[kinds]`` at parameters ``x``
        (broadcast together; arrays give a stack).

        The rotation by x in the circle picture is [[cos x/2, sin x/2],
        [-sin x/2, cos x/2]], the dilation y -> e^x y is diag(e^{x/2},
        e^{-x/2}) and the translation y -> y + x is [[1, x], [0, 1]].
        """
        kinds, x = np.broadcast_arrays(np.asarray(kinds),
                                       np.asarray(x, dtype=float))
        rot, dil, tra = (kinds == k for k in range(3))
        if not (rot | dil | tra).all():
            raise ValueError(f"generator kinds index {GENERATORS}")
        bad = ~np.isfinite(x)
        if bad.any():
            raise ValueError(f"{GENERATORS[kinds[bad][0]]} parameter "
                             "must be finite")
        half = 0.5 * x
        a, b = np.ones(x.shape), np.zeros(x.shape)
        c, d = np.zeros(x.shape), np.ones(x.shape)
        cos, sin = (_elementwise(f, half[rot]) for f in (math.cos, math.sin))
        a[rot], b[rot], c[rot], d[rot] = cos, sin, -sin, cos
        e = _elementwise(math.exp, half[dil])
        a[dil], d[dil] = e, 1.0 / e
        b[tra] = x[tra]
        return cls(_mat2(a, b, c, d))

    @classmethod
    def dilation(cls, s):
        """The map x -> exp(s) x."""
        return cls.generators(1, s)

    # -- group structure ----------------------------------------------

    def compose(self, other):
        return MobiusElement(self.mat @ other.mat)

    __matmul__ = compose

    def inverse(self):
        if self._inverse is None:
            self._inverse = MobiusElement(_adjugate(self.mat))
        return self._inverse

    def __repr__(self):
        a, b, c, d = self.mat.ravel()
        return f"MobiusElement([[{a:.6g}, {b:.6g}], [{c:.6g}, {d:.6g}]])"

    # -- predicates ----------------------------------------------------

    def is_rotation(self, tol=1e-12):
        m = self.mat
        return ((np.abs(m[..., 0, 0] - m[..., 1, 1]) <= tol)
                & (np.abs(m[..., 0, 1] + m[..., 1, 0]) <= tol))

    # -- actions --------------------------------------------------------

    def act_circle(self, z):
        """Action on the unit circle (complex points of modulus one).

        ``z`` broadcasts against the stack of elements.  The arithmetic
        always runs on arrays, never on numpy scalars, whose complex
        product, quotient and modulus round differently: a single
        element acts as a stack of one.
        """
        m = _CAYLEY @ self.mat.astype(complex) @ _CAYLEY_INV
        z = np.asarray(z, dtype=complex)
        shape = np.broadcast_shapes(m.shape[:-2], z.shape)
        z = np.broadcast_to(z, shape).reshape(-1)
        m = np.broadcast_to(m, shape + (2, 2)).reshape(-1, 2, 2)
        w = (m[:, 0, 0] * z + m[:, 0, 1]) / (m[:, 1, 0] * z + m[:, 1, 1])
        return (w / np.abs(w)).reshape(shape)[()]

    def act_angle(self, u):
        """Action on circle angles, result in (-pi, pi]; ``u`` broadcasts
        against the stack of elements."""
        u = np.asarray(u, dtype=float)
        z = np.empty(u.shape, dtype=complex)
        z.real, z.imag = _elementwise(math.cos, u), _elementwise(math.sin, u)
        w = self.act_circle(z)
        return _scalar(_elementwise(math.atan2, np.imag(w), np.real(w)))

    # -- Iwasawa decomposition -----------------------------------------

    def iwasawa(self):
        """Decompose as K(theta) A(a) N(n); returns ``(theta, a, n)``.

        ``theta`` lies in (-pi, pi] and ``K(theta) A(a) N(n)`` reproduces
        the element (as a projective matrix) to high accuracy.  A stack
        gives three arrays.
        """
        m = self.mat
        a0, b0, c0, d0 = m[..., 0, 0], m[..., 0, 1], m[..., 1, 0], m[..., 1, 1]
        r = _elementwise(math.hypot, a0, c0)
        theta = wrap_angle(2.0 * _elementwise(math.atan2, -c0, a0))
        # R = K(theta)^-1 g is upper triangular with R00 = r > 0
        ch = _elementwise(math.cos, 0.5 * theta)
        sh = _elementwise(math.sin, 0.5 * theta)
        r01 = ch * b0 - sh * d0
        a_par = 2.0 * _elementwise(math.log, r)
        n_par = r01 / r
        return theta, _scalar(a_par), _scalar(n_par)


def kan_matrix(theta, a, n):
    """Matrix of K(theta) A(a) N(n); arrays of parameters give a stack."""
    theta, a, n = np.broadcast_arrays(*(np.asarray(p, dtype=float)
                                        for p in (theta, a, n)))
    c = _elementwise(math.cos, 0.5 * theta)
    s = _elementwise(math.sin, 0.5 * theta)
    e = _elementwise(math.exp, 0.5 * a)
    # A(a) N(n) = [[e, e*n], [0, 1/e]]
    return _mat2(c * e, c * e * n + s / e, -s * e, -s * e * n + c / e)


class CoverElement:
    """Element of the universal cover: a base element plus a lifted angle.

    ``phi`` reduces, modulo 2 pi, to the Iwasawa angle of the base
    element; distinct choices of ``phi`` differing by 2 pi k describe the
    k-th deck translate.
    """

    __slots__ = ("base", "phi")

    def __init__(self, base, phi):
        self.base = base
        self.phi = _scalar(np.asarray(phi, dtype=float))

    @classmethod
    def generators(cls, kinds, x):
        """Lifts of :meth:`MobiusElement.generators`: phi is the
        parameter of a rotation and 0 otherwise."""
        phi = np.where(np.asarray(kinds) == 0, x, 0.0)
        return cls(MobiusElement.generators(kinds, x), phi)

    # -- group structure ----------------------------------------------

    def compose(self, other):
        """Product in the cover.

        With h = K(theta_h) A N, the lift of g h follows the Iwasawa angle
        along tau -> g K(tau theta_h); A and N leave the direction of the
        first column alone.  Since det g > 0 keeps the order of
        directions, that angle turns monotonically in the sense of
        theta_h, by less than a full turn, and by less than
        |theta_h| ||g||_F^2.  So the gain of phi is the residue of
        theta(g h) - phi_g in [0, 2 pi) for theta_h > 0 and in (-2 pi, 0]
        for theta_h < 0, or the nearest residue where that bound is below
        pi; the latter keeps a theta_h that is zero up to rounding from
        adding a full turn.  Two rotations add their angles.  Stacks
        compose member by member.
        """
        base = self.base.compose(other.base)
        theta_h = other.base.iwasawa()[0]
        gain = _elementwise(math.remainder, base.iwasawa()[0] - self.phi,
                            _TWO_PI)
        wide = (np.abs(theta_h) * np.sum(self.base.mat ** 2, axis=(-2, -1))
                >= math.pi)
        gain = np.where(wide & (theta_h > 0) & (gain < 0), gain + _TWO_PI,
                        np.where(wide & (theta_h < 0) & (gain > 0),
                                 gain - _TWO_PI, gain))
        winding = _TWO_PI * np.round((other.phi - theta_h) / _TWO_PI)
        phi = np.where(self.base.is_rotation() & other.base.is_rotation(),
                       self.phi + other.phi, self.phi + gain + winding)
        return CoverElement(base, phi)

    __matmul__ = compose

    def __repr__(self):
        return f"CoverElement({self.base!r}, phi={self.phi:.6g})"


# ---------------------------------------------------------------------------
# intervals of the line
# ---------------------------------------------------------------------------


class Interval:
    """An open interval (left, right) of the line, given by its endpoints.

    -inf <= left < right <= inf, and the interval is not the whole line.
    The endpoints are kept as given, so they read back exactly.
    """

    __slots__ = ("left", "right", "_conjugator")

    def __init__(self, left, right):
        left, right = float(left), float(right)
        if not left < right:
            raise ValueError(f"interval endpoints must satisfy left < right, "
                             f"got ({left!r}, {right!r})")
        if left == -INF and right == INF:
            raise ValueError("the whole line is not an interval")
        self.left = left
        self.right = right
        # the midpoint dilation conjugator, formed on first use
        self._conjugator = None

    @classmethod
    def from_line(cls, a, b):
        """The interval (a, b): ``from_line(0, 1)`` is the open unit
        interval, ``from_line(0, inf)`` the positive half-line and
        ``from_line(-inf, 0)`` the negative one."""
        return cls(a, b)

    def midpoint(self):
        """The point halfway between the endpoints on the circle,
        tan((atan left + atan right) / 2)."""
        return math.tan(0.5 * (math.atan(self.left) + math.atan(self.right)))

    def contains(self, other, tol=1e-12):
        """Whether ``other`` lies inside, endpoints compared up to ``tol``."""
        return (other.left >= self.left - tol
                and other.right <= self.right + tol)

    def __repr__(self):
        return f"Interval.from_line({self.left!r}, {self.right!r})"


def mobius_through(p0, p1, pinf):
    """The Mobius element sending 0, 1, inf to the given ordered triple.

    The triple must be counterclockwise on the circle, which makes the
    constructed matrix orientation preserving; p1 is finite, as an
    interval's midpoint is.
    """
    if pinf == INF or pinf == -INF:
        mat = np.array([[p1 - p0, p0], [0.0, 1.0]])
    elif p0 == INF or p0 == -INF:
        mat = np.array([[pinf, p1 - pinf], [1.0, 0.0]])
    else:
        mat = np.array(
            [[pinf * (p1 - p0), p0 * (pinf - p1)], [p1 - p0, pinf - p1]]
        )
    return MobiusElement(mat)


def dilation_conjugator(interval):
    """A Mobius element g with g(R_+) = interval.

    Sends 0 to the left endpoint, infinity to the right endpoint and 1 to
    the midpoint; formed once per interval.
    """
    if interval._conjugator is None:
        interval._conjugator = mobius_through(
            interval.left, interval.midpoint(), interval.right)
    return interval._conjugator


def _flow_matrices(g, t):
    """Matrices of g delta(-t) g^{-1} for conjugators g broadcast against
    an array of times t, before normalisation."""
    e = _elementwise(math.exp, -0.5 * t)
    d = np.zeros(e.shape + (2, 2))
    d[..., 0, 0] = e
    d[..., 1, 1] = 1.0 / e
    return g @ d @ _adjugate(g)


def interval_dilation(interval, t):
    """The dilation flow of an interval at time ``t``.

    Defined as g delta(-t) g^{-1} for any g taking the positive half-line
    onto the interval (:func:`dilation_conjugator`); for the half-lines
    this reduces to Lambda_{R_+}(t) = delta(-t) and Lambda_{R_-}(t) =
    delta(t).
    """
    g = dilation_conjugator(interval).mat
    return MobiusElement(_flow_matrices(g, float(t)))


# ---------------------------------------------------------------------------
# commutation relations between nested interval dilations
# ---------------------------------------------------------------------------

#: interval pairs for which the parameter transformation is implemented:
#: ``halfline_bounded`` is (R_+, (0,1)) (endpoint shared on the left),
#: ``halfline_shifted`` is (R_+, R_+ + 1) (endpoint shared on the right).
COMMUTATION_PAIRS = ("halfline_bounded", "halfline_shifted")

# per pair: the sign sigma of the parameter map (see _pair_parameters),
# the pair's name in messages, and the line endpoints of (I, J)
_PAIRS = {
    "halfline_bounded": (1.0, "(R_+, (0,1))", ((0.0, INF), (0.0, 1.0))),
    "halfline_shifted": (-1.0, "(R_+, R_+ + 1)", ((0.0, INF), (1.0, INF))),
}


def _pair(pair):
    try:
        return _PAIRS[pair]
    except KeyError:
        raise ValueError(f"unknown pair {pair!r}") from None


def _pair_parameters(t, s, pair):
    """Admissibility mask and (s', t') of the admissible entries, for
    1-d arrays t and s: s' is sigma log(e^{sigma (t+s)} + 1 - e^{sigma t})
    where that argument is positive, and t' = t + s - s'."""
    sign = _pair(pair)[0]
    arg = (_elementwise(math.exp, sign * (t + s)) + 1.0
           - _elementwise(math.exp, sign * t))
    # a NaN argument is not inadmissible: it fails later, as a matrix
    admissible = ~(arg <= 0.0)
    s_p = sign * _elementwise(math.log, arg[admissible])
    return admissible, s_p, (t + s)[admissible] - s_p


def commutation_parameters(t, s, pair):
    """Parameters (s', t') with Lambda_I(t) Lambda_J(s) = Lambda_J(s') Lambda_I(t').

    One draw of :func:`_pair_parameters`; raises
    :class:`MobiusDomainError` outside the admissible domain.
    """
    admissible, s_p, t_p = _pair_parameters(np.array([float(t)]),
                                            np.array([float(s)]), pair)
    if not admissible[0]:
        raise MobiusDomainError(
            f"inadmissible parameters for the {_pair(pair)[1]} relation")
    return float(s_p[0]), float(t_p[0])


@functools.lru_cache(maxsize=None)
def _pair_conjugators(pair):
    """Dilation conjugators of the pair's (I, J), shaped (2, 1, 2, 2) to
    broadcast against a (2, N) array of times."""
    g = np.stack([dilation_conjugator(Interval.from_line(a, b)).mat
                  for a, b in _pair(pair)[2]])[:, None]
    g.setflags(write=False)
    return g


def _residuals(t, s, s_p, t_p, pair):
    """Residual norms at admissible draws with their (s', t')."""
    n = len(t)
    # rows: Lambda_I at (t, t'), Lambda_J at (s, s')
    times = np.concatenate([t, t_p, s, s_p]).reshape(2, 2 * n)
    big, small = _unimodular(_flow_matrices(_pair_conjugators(pair), times))
    sides = _canonical_sign(np.concatenate([big[:n] @ small[:n],
                                            small[n:] @ big[n:]]))
    diff = (sides[:n] - sides[n:]).reshape(n, 4)
    return np.sqrt((diff[:, None, :] @ diff[:, :, None])[:, 0, 0])


def commutation_residuals(t, s, pair):
    """Residuals of the commutation relation over arrays of parameters.

    Returns ``(admissible, residuals)``: a mask over the draws (t[k],
    s[k]) that lie in the admissible domain, and for those draws, in
    order, the Frobenius norm of Lambda_I(t) Lambda_J(s) -
    Lambda_J(s') Lambda_I(t') of canonical-sign matrices.  All four
    flows are formed as one stack of 2x2 matrices from the pair's two
    dilation conjugators.
    """
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    if t.ndim != 1 or t.shape != s.shape:
        raise ValueError("t and s must be 1-d arrays of equal length")
    admissible, s_p, t_p = _pair_parameters(t, s, pair)
    return admissible, _residuals(t[admissible], s[admissible], s_p, t_p,
                                  pair)


def commutation_residual(t, s, pair):
    """Matrix norm of (LHS - RHS) of the commutation relation.

    LHS is Lambda_I(t) Lambda_J(s) and RHS uses the transformed
    parameters from :func:`commutation_parameters`; one draw of
    :func:`commutation_residuals`.
    """
    s_p, t_p = commutation_parameters(t, s, pair)
    return float(_residuals(np.array([float(t)]), np.array([float(s)]),
                            np.array([s_p]), np.array([t_p]), pair)[0])


def shared_endpoint_kind(big, small, tol=1e-9):
    """Classify a nested pair sharing exactly one endpoint.

    Returns ``"left"`` or ``"right"`` according to which endpoint is
    shared; equal infinities count as shared.  Raises ValueError
    otherwise.
    """
    if not big.contains(small):
        raise ValueError("pair is not nested")
    same_left, same_right = (x == y or abs(x - y) < tol for x, y in (
        (big.left, small.left), (big.right, small.right)))
    if same_left and not same_right:
        return "left"
    if same_right and not same_left:
        return "right"
    raise ValueError("pair must share exactly one endpoint")


def nested_commutation_parameters(big, small, t, s):
    """Parameter transformation for a general nested shared-endpoint pair.

    Conjugation carries any such pair onto one of the two implemented
    model pairs without rescaling the flow parameters, so only the kind
    of the shared endpoint matters.
    """
    kind = shared_endpoint_kind(big, small)
    pair = "halfline_bounded" if kind == "left" else "halfline_shifted"
    return commutation_parameters(t, s, pair)
