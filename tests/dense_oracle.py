"""Dense references: the integration operators of SpectralOperators, by
O(n^3) products, and the semismooth block over whole n x n arrays.

Shared by the tests and scripts/bench_build_operators.py.  It imports only
functions that every version of chebfred.spectral_core has, so the
benchmark can check a baseline checkout against it too.
"""

import numpy as np

from chebfred.spectral_core import cosine_matrix, inverse_cosine_matrix


def _antiderivative_factor_loop(n):
    # the antiderivative recurrence written out row by row
    B = np.zeros((n + 1, n + 1))
    B[1, 0] = 1.0
    if n >= 2:
        B[1, 2] = -0.5
    for j in range(2, n):
        B[j, j - 1] = 1.0 / (2 * j)
        B[j, j + 1] = -1.0 / (2 * j)
    if n >= 2:
        B[n, n - 1] = 1.0 / (2 * n)
    return B


# the fields and lazy properties of SpectralOperators that dense_operators rebuilds
OPERATOR_NAMES = ("order", "int_left", "int_right", "full_weights")


def dense_operators(n):
    """Reference for build_operators: the integration operators by plain
    dense products.

    W = C (L B) C^-1 and V = C (R B) C^-1 with L and R written out, costing
    O(n^3); no closed form is used.
    """
    C = cosine_matrix(n)
    Ci = inverse_cosine_matrix(n)
    B = _antiderivative_factor_loop(n)
    L = np.eye(n + 1)
    L[0, 1:] = (-1.0) ** (np.arange(1, n + 1) + 1)
    R = -np.eye(n + 1)
    R[0, :] = 1.0
    SL = L @ B
    SR = R @ B
    return {
        "order": n,
        "int_left": C @ SL @ Ci,
        "int_right": C @ SR @ Ci,
        "full_weights": np.ones(n + 1) @ SL @ Ci,
    }


def row_slices(k1, k2):
    """The row sampler ``fredholm_solver.semismooth_block`` reads, taking
    rows of the whole branch samples K1 and K2."""

    def branches(start, stop):
        return k1[start:stop], k2[start:stop]

    return branches


def semismooth_block_reference(ops, k1, k2, scale):
    """I + scale [K1 o a + K2 o c + (K1 - K2) o B] in one shot over whole
    n x n arrays, with the cached bracket B.

    ``fredholm_solver.semismooth_block`` takes the same elementwise steps in
    the same order, one row block at a time, so the two agree bitwise.
    """
    n1 = ops.order + 1
    block = np.subtract(k1, k2)
    block *= ops.bracket
    scratch = np.multiply(k1, ops.left_offset)
    block += scratch
    block += np.multiply(k2, ops.right_offset, out=scratch)
    block *= scale
    block.reshape(-1)[:: n1 + 1] += 1.0
    return block
