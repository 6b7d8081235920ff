"""Numerical toolkit for Mobius covariance and standard-subspace nets.

The package is organised in two parts that meet only in the runner:

* :mod:`modnet.mobius` -- the Mobius group of the line/circle, its universal
  cover and interval dilation flows, checked by ``verify-mobius``.

and the net layer, a small tower that imports no Mobius code:

* :mod:`modnet.spacetime` -- regions of two-dimensional Minkowski space in
  lightray coordinates.
* :mod:`modnet.stdspace` -- real standard subspaces of finite-dimensional
  complex Hilbert spaces and their modular theory.
* :mod:`modnet.reps` -- lattice one-particle representations (chiral sums,
  massive fibers, direct integrals) with exactly unitary translation and
  dilation actions, taken in lightray coordinates.
* :mod:`modnet.bgl` -- wedge subspaces, dual nets, axiom reports and the
  counterexample / reconstruction experiments built on top of the above.
* :mod:`modnet.fock` -- a truncated bosonic Fock layer (Weyl words, vacuum
  functional, second quantisation).

The runner sits on both:

* :mod:`modnet.cli` -- the ``modnet`` command line runner.
"""

__version__ = "0.1.0"

__all__ = [
    "mobius",
    "spacetime",
    "stdspace",
    "reps",
    "bgl",
    "fock",
    "cli",
]
