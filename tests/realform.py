"""Real 2n x 2n forms of complex n x n operators, the tests' reference.

A vector xi of C^n is [Re xi; Im xi] in R^{2n}, the layout of a
``RealSubspace`` basis.  The package keeps operators as complex
matrices; these forms recompute its identities in the real picture.
"""

import numpy as np


def real_linear(c):
    """Real form of xi -> c xi, of one matrix or of each of a stack."""
    return np.block([[c.real, -c.imag], [c.imag, c.real]])


def real_antilinear(c):
    """Real form of xi -> c conj(xi), of one matrix or of each of a stack."""
    return np.block([[c.real, c.imag], [c.imag, -c.real]])
