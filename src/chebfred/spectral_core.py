"""Chebyshev grids and spectral integration operators.

Everything here lives on the reference interval [-1, 1].  The nodes are the
roots of T_{n+1} in descending order, so interpolation and quadrature are
spectrally accurate for smooth integrands.  The two integration operators map
samples of f at the nodes to samples of the running integrals from -1 up to
each node (``int_left``) and from each node up to +1 (``int_right``).

Closed form of the integration operators
----------------------------------------
The operators are W = C S_L C^-1 and V = C S_R C^-1, with C the cosine
matrix and S_L = L B, S_R = R B the coefficient-space maps (B the
antiderivative recurrence, L and R fixing the integration constant).  At
first-kind nodes the products have a closed form that costs O(n^2), the fast
version of the Clenshaw-Curtis construction (Clenshaw & Curtis, Numer. Math.
1960; Waldvogel, BIT 2006).

Let N = n + 1 and theta_m = (2m+1) pi/(2N), so tau_m = cos(theta_m),
C[k, j] = cos(j theta_k) and C^-1[j, m] = (2 - [j = 0]) cos(j theta_m)/N.
Row j >= 1 of B applies (a_{j-1} - a_{j+1})/(2j), with a_0 counted twice, so

    (B C^-1)[j, m] = (cos((j-1) theta_m) - cos((j+1) theta_m)) / (j N)
                   = (2/N) sin(j theta_m) sin(theta_m) / j.

The truncated last row j = n lacks the a_{n+1} term, and fits the same
formula because cos((n+1) theta_m) = 0.  Summing against cos(j theta_k),

    sum_j cos(j theta_k) sin(j theta_m) / j = (S(m-k) + S(m+k+1)) / 2,

since theta_m -+ theta_k are multiples of pi/N.  Here
U(p) = sum_{j=1..n} sin(j p pi/(2N))/j, which has period 4N, and
S(q) = U(2q).  Row 0 of S_L C^-1 sums the rows j >= 1 with signs
(-1)^(j+1), which shifts theta_m by pi; row 0 of S_R C^-1 sums them
unsigned.  With b_m = sin(theta_m)/N, a_m = -2 b_m U(2m+1+2N) and
c_m = 2 b_m U(2m+1):

    W[k, m]  = a_m + b_m [S(m-k) + S(m+k+1)]
    V[k, m]  = c_m - b_m [S(m-k) + S(m+k+1)]
    sigma_m  = a_m + c_m          (the full-interval weights)

The bracket is a Toeplitz plus a Hankel matrix, scaled by column.  U at all
4N points is -Im of one length-4N FFT of h_j = 1/j (j = 1..n, zero
elsewhere).  The formulas are exact, not a further approximation: they
differ from the dense products only by rounding.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "ChebGrid",
    "SpectralOperators",
    "chebyshev_nodes",
    "cosine_matrix",
    "inverse_cosine_matrix",
    "spectral_matrix_left",
    "spectral_matrix_right",
    "build_operators",
    "cheb_grid",
    "chebyshev_eval",
]


def chebyshev_nodes(n: int) -> np.ndarray:
    """Roots of T_{n+1}, descending.

    Parameters
    ----------
    n : int
        Polynomial order; the grid has n+1 points.

    Returns
    -------
    ndarray
        cos((2k+1)pi/(2(n+1))) for k = 0..n, strictly inside (-1, 1) and
        strictly decreasing.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    k = np.arange(n + 1)
    return np.cos((2 * k + 1) * np.pi / (2 * (n + 1)))


def cosine_matrix(n: int) -> np.ndarray:
    """Matrix C with C[k, j] = T_j(tau_k), built in closed form.

    T_j(cos theta) = cos(j theta), so no polynomial recurrence is needed.  The
    argument j theta_k is pi/(2(n+1)) times the integer (2k+1) j, which is
    reduced exactly modulo 4(n+1) and looked up in a table of 4(n+1) cosines,
    so the entries are accurate to rounding for any order.  C maps Chebyshev
    coefficients to node values.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    N = n + 1
    table = np.cos(np.arange(4 * N) * (np.pi / (2 * N)))
    # (2k+1) j < 2 N^2 fits in 32 bits below N = 2^15, which halves the
    # memory traffic of the reduction and the lookup
    itype = np.int32 if N < 2**15 else np.int64
    turns = np.multiply.outer(np.arange(1, 2 * N, 2, dtype=itype), np.arange(N, dtype=itype))
    turns %= 4 * N
    return table[turns]


def inverse_cosine_matrix(n: int, cosine: np.ndarray | None = None) -> np.ndarray:
    """Inverse of :func:`cosine_matrix`, i.e. the node-values-to-coefficients map.

    By discrete orthogonality of cosines at the first-kind points the inverse
    is a row-scaled transpose: diag(1/(n+1), 2/(n+1), ..., 2/(n+1)) @ C.T.
    """
    if cosine is None:
        cosine = cosine_matrix(n)
    inverse = cosine.T * (2.0 / (n + 1))
    inverse[0] *= 0.5
    return inverse


def _antiderivative_factor(n: int) -> np.ndarray:
    # Coefficient map of f -> int f: b_j = (a_{j-1} - a_{j+1})/(2j) for j >= 2
    # and b_1 = a_0 - a_2/2, truncated to degree n (the degree-(n+1)
    # coefficient is dropped; it only shifts node values by the constant
    # a_n/(2(n+1)) since T_{n+1} vanishes at the nodes).  Needs n >= 1.
    B = np.zeros((n + 1, n + 1))
    inv_2j = 0.5 / np.arange(1, n + 1)
    flat = B.reshape(-1)
    flat[n + 1 :: n + 2] = inv_2j  # B[j, j-1], j = 1..n
    flat[n + 3 :: n + 2] = -inv_2j[:-1]  # B[j, j+1], j = 1..n-1
    B[1, 0] = 1.0
    return B


def _one_sided_factors(n: int) -> tuple[np.ndarray, np.ndarray]:
    # S_L = L B and S_R = R B from one banded B, in O(n^2).  L and R differ
    # from +I and -I only in row 0, and row 0 of B is zero.  R's row 0 is all
    # ones, so row 0 of S_R holds the column sums of B.  L's row 0 is
    # (-1)^(j+1); column i of B is nonzero only in rows i - 1 and i + 1, whose
    # signs are both (-1)^i, so row 0 of S_L is row 0 of S_R with odd columns
    # negated.
    SL = _antiderivative_factor(n)
    SR = -SL
    SR[0] = SL.sum(axis=0)
    SL[0] = SR[0]
    SL[0, 1::2] *= -1.0
    return SL, SR


def spectral_matrix_left(n: int) -> np.ndarray:
    """Coefficient-space map a(f) -> a(F) with F(x) = integral from -1 to x of f.

    Row 0 fixes the integration constant so that F(-1) = 0, using
    T_j(-1) = (-1)^j.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    return _one_sided_factors(n)[0]


def spectral_matrix_right(n: int) -> np.ndarray:
    """Coefficient-space map for F(x) = integral from x to +1 of f (so F(1) = 0)."""
    if n < 1:
        raise ValueError("order must be >= 1")
    return _one_sided_factors(n)[1]


@dataclass(frozen=True)
class SpectralOperators:
    """Bundle of the order-n transforms and integration matrices.

    Attributes
    ----------
    order : int
    cosine, cosine_inv : ndarray
        Coefficients-to-values map and its inverse.
    coeff_int_left, coeff_int_right : ndarray
        Coefficient-space antiderivative maps.
    int_left, int_right : ndarray
        Node-space running-integral operators: (int_left @ f)[k] approximates
        the integral of f from -1 to tau_k; int_right integrates tau_k to 1.
    full_weights : ndarray
        Quadrature weights for the whole interval, ones @ coeff_int_left
        @ cosine_inv; strictly positive and summing to 2.
    """

    order: int
    cosine: np.ndarray
    cosine_inv: np.ndarray
    coeff_int_left: np.ndarray
    coeff_int_right: np.ndarray
    int_left: np.ndarray
    int_right: np.ndarray
    full_weights: np.ndarray


def build_operators(n: int) -> SpectralOperators:
    """Construct all order-n spectral operators in O(n^2).

    ``int_left``, ``int_right`` and ``full_weights`` come from the closed form
    in the module docstring: with b_m = sin(theta_m)/N,
    a_m = -2 b_m U(2m+1+2N), c_m = 2 b_m U(2m+1) and S(q) = U(2q),

        int_left[k, m]  = a_m + b_m [S(m-k) + S(m+k+1)]
        int_right[k, m] = c_m - b_m [S(m-k) + S(m+k+1)]
        full_weights[m] = a_m + c_m

    which equal C S_L C^-1, C S_R C^-1 and ones @ S_L @ C^-1 up to rounding.
    One length-4N FFT gives U at every p; the bracket is a Toeplitz plus a
    Hankel matrix, both strided views of one vector of S values.  S_L and
    S_R are the banded B with row 0 replaced.  No step costs more than
    O(n^2).

    Cheap debug-mode sanity checks assert the O(n^2) row-sum identities; the
    full inverse and exactness checks live in the test suite.

    Raises ValueError for n < 1.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    N = n + 1
    C = cosine_matrix(n)
    Ci = inverse_cosine_matrix(n, C)
    SL, SR = _one_sided_factors(n)
    h = np.zeros(4 * N)
    h[: 3 * N : -1] = 1.0 / np.arange(1, N)  # h[-j] = 1/j, so Im fft(h) = +U
    U = np.fft.fft(h).imag  # U(p) for p = 0..4N-1
    S = U[::2]  # S(q) for q = 0..2N-1, with period 2N
    S = np.concatenate((S[N + 1 :], S))  # S[i] = S(i - n), i = 0..3n+1
    U_odd = U[1 : 2 * N : 2]  # U(2m+1)
    b = np.sin(np.arange(1, 2 * N, 2) * (np.pi / (2 * N))) / N
    two_b = 2.0 * b
    a = two_b * U_odd[::-1]  # U(2m+1+2N) = -U(2N-2m-1)
    c = two_b * U_odd
    # S(m-k) and S(m+k+1) as strided views of S: a Toeplitz and a Hankel
    # matrix.  numpy checks that both stay inside S.
    step = S.itemsize
    toeplitz = np.ndarray((N, N), S.dtype, S, n * step, (-step, step))
    hankel = np.ndarray((N, N), S.dtype, S, (n + 1) * step, (step, step))
    T = toeplitz + hankel
    T *= b
    W = a + T
    V = np.subtract(c, T, out=T)  # V takes over T's memory
    sigma = a + c
    if __debug__:
        tau = C[:, 1]  # T_1 at the nodes
        scale = 1e-13 * n
        assert np.abs(W.sum(axis=1) - (tau + 1)).max() < scale
        assert np.abs(V.sum(axis=1) - (1 - tau)).max() < scale
        gap = W + V  # one n-by-n temporary: sigma broadcasts, so W + V - sigma would take two
        gap -= sigma
        assert np.abs(gap, out=gap).max() < scale
    return SpectralOperators(
        order=n,
        cosine=C,
        cosine_inv=Ci,
        coeff_int_left=SL,
        coeff_int_right=SR,
        int_left=W,
        int_right=V,
        full_weights=sigma,
    )


@dataclass(frozen=True)
class ChebGrid:
    """First-kind Chebyshev grid mapped onto [a, b].

    ``ref_nodes`` are the reference nodes on (-1, 1), ``nodes`` their affine
    images on (a, b); both descending.  ``order`` is the polynomial order, so
    there are order+1 points.
    """

    order: int
    a: float
    b: float
    ref_nodes: np.ndarray
    nodes: np.ndarray

    @property
    def width(self) -> float:
        return self.b - self.a

    def to_reference(self, t: np.ndarray) -> np.ndarray:
        """Map points of [a, b] back to the reference interval."""
        return (2.0 * np.asarray(t, dtype=float) - (self.a + self.b)) / (self.b - self.a)


def cheb_grid(n: int, a: float, b: float) -> ChebGrid:
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    ref = chebyshev_nodes(n)
    return ChebGrid(
        order=n,
        a=float(a),
        b=float(b),
        ref_nodes=ref,
        nodes=0.5 * (b - a) * ref + 0.5 * (a + b),
    )


def chebyshev_eval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate sum_j coeffs[j] T_j(x) by the three-term recurrence.

    ``x`` is on the reference interval; scalar or array.
    """
    coeffs = np.asarray(coeffs, dtype=float)
    x = np.asarray(x, dtype=float)
    result = np.full_like(x, coeffs[0])
    if len(coeffs) == 1:
        return result
    t_prev = np.ones_like(x)
    t_cur = x.copy()
    result = result + coeffs[1] * t_cur
    for c in coeffs[2:]:
        t_next = 2.0 * x * t_cur - t_prev
        result = result + c * t_next
        t_prev, t_cur = t_cur, t_next
    return result
