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

What is stored
--------------
``build_operators`` computes only the vectors a, b, c, sigma and the S
values, in O(n log n).  The bracket, W and V are cached properties of
``SpectralOperators``, built in O(n^2) the first time they are read.  C and
C^-1 are built by ``cosine_matrix`` and ``inverse_cosine_matrix``; S_L and
S_R exist only in the derivation above, and no solve forms them.

Assembly without W or V
-----------------------
Write B[k, m] = b_m [S(m-k) + S(m+k+1)] for the bracket, so W = a + B and
V = c - B, with a and c added to every row.  For branch samples K1 and K2,

    W o K1 + V o K2 = (a + B) o K1 + (c - B) o K2
                    = K1 o a + K2 o c + (K1 - K2) o B,

where K1 o a scales column m of K1 by a_m.  The right side reads the
vectors a and c and the single matrix B, so the semismooth block
I + s (W o K1 + V o K2) is assembled without forming W or V
(``fredholm_solver.semismooth_block``).  It forms no B either: entry
(k, m) of B needs only b_m and two values of S, so the block is built a
few rows at a time, each row block reading its rows of B from the
Toeplitz and Hankel views of S (``SpectralOperators.bracket_rows``).
Where the branches agree, K1 - K2 vanishes and the rule reduces to the
full weights sigma = a + c.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.polynomial.chebyshev import chebval

__all__ = [
    "ChebGrid",
    "SpectralOperators",
    "chebyshev_nodes",
    "cosine_matrix",
    "inverse_cosine_matrix",
    "build_operators",
    "chebyshev_coefficients",
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


def inverse_cosine_matrix(n: int) -> np.ndarray:
    """Inverse of :func:`cosine_matrix`, i.e. the node-values-to-coefficients map.

    By discrete orthogonality of cosines at the first-kind points the inverse
    is a row-scaled transpose: diag(1/(n+1), 2/(n+1), ..., 2/(n+1)) @ C.T.
    """
    inverse = cosine_matrix(n).T * (2.0 / (n + 1))
    inverse[0] *= 0.5
    return inverse


def chebyshev_coefficients(values: np.ndarray) -> np.ndarray:
    """Chebyshev coefficients of the interpolant through node values.

    ``values`` holds f at the n+1 nodes of :func:`chebyshev_nodes`.  The
    result equals ``inverse_cosine_matrix(n) @ values`` up to rounding, but
    is a DCT-II in O(n log n): with N = n + 1, theta_m = (2m+1) pi/(2N) and
    Y the FFT of the even extension (f_0, ..., f_n, f_n, ..., f_0),

        sum_m f_m cos(j theta_m) = Re(exp(-i pi j/(2N)) Y_j) / 2,

    and coefficient j is that sum times (2 - [j = 0])/N.
    """
    f = np.asarray(values, dtype=float)
    if f.ndim != 1 or f.size == 0:
        raise ValueError(f"need a non-empty vector of node values, got shape {f.shape}")
    N = f.size
    Y = np.fft.rfft(np.concatenate((f, f[::-1])))[:N]
    Y *= np.exp(np.arange(N) * (-0.5j * np.pi / N))
    coeffs = Y.real * (1.0 / N)
    coeffs[0] *= 0.5
    return coeffs


@dataclass(frozen=True)
class SpectralOperators:
    """The order-n spectral operators, stored as the vectors of the closed form.

    The fields are the O(n) vectors of the closed form in the module
    docstring, filled by :func:`build_operators`.  Every (n+1)-by-(n+1)
    matrix is a cached property: it is built the first time it is read and
    kept on the instance, so a solve pays only for the matrices it reads.

    Fields (eager)
    --------------
    order : int
    left_offset, right_offset : ndarray
        a_m and c_m, the column offsets of W and V.
    bracket_scale : ndarray
        b_m = sin(theta_m)/N, the column scale of the bracket.
    s_values : ndarray
        S(q) for q = -n .. 2n+1, the values that the bracket's Toeplitz and
        Hankel parts read.
    full_weights : ndarray
        Quadrature weights for the whole interval, a + c, equal to
        ones @ S_L @ C^-1; strictly positive and summing to 2.

    Properties (lazy)
    -----------------
    bracket : ndarray
        B[k, m] = b_m [S(m-k) + S(m+k+1)]; ``bracket_rows`` gives any of its
        rows without building it.
    int_left, int_right : ndarray
        Node-space running-integral operators W = a + B and V = c - B:
        (int_left @ f)[k] approximates the integral of f from -1 to tau_k;
        int_right integrates tau_k to 1.

    The debug-mode checks run when a matrix is built: the row sums
    W 1 = tau + 1 and V 1 = 1 - tau with the bracket (``semismooth_block``
    runs them on the row sums of its row blocks), and W + V = sigma with
    either integration operator.
    """

    order: int
    left_offset: np.ndarray
    right_offset: np.ndarray
    bracket_scale: np.ndarray
    s_values: np.ndarray
    full_weights: np.ndarray

    @cached_property
    def bracket(self) -> np.ndarray:
        B = self.bracket_rows(0, self.order + 1)
        if __debug__:
            self.check_bracket_row_sums(B.sum(axis=1))
        return B

    def bracket_rows(self, start: int, stop: int, out: np.ndarray | None = None) -> np.ndarray:
        """Rows start .. stop-1 of the bracket B, bitwise those of ``bracket``,
        computed into ``out`` if given.

        S(m-k) and S(m+k+1) are read through strided views of S, a Toeplitz
        and a Hankel matrix (numpy checks that both stay inside S), so a row
        block costs no more than its own rows.
        """
        n = self.order
        S = self.s_values
        step = S.itemsize
        shape = (stop - start, n + 1)
        toeplitz = np.ndarray(shape, S.dtype, S, (n - start) * step, (-step, step))
        hankel = np.ndarray(shape, S.dtype, S, (n + 1 + start) * step, (step, step))
        rows = np.add(toeplitz, hankel, out=out)
        rows *= self.bracket_scale
        return rows

    def check_bracket_row_sums(self, row_sums: np.ndarray) -> None:
        """Debug check of the bracket's row sums B 1 against the row sums of
        the integration operators: W 1 = sum(a) + B 1 = tau + 1 and
        V 1 = sum(c) - B 1 = 1 - tau."""
        tau = chebyshev_nodes(self.order)
        scale = 1e-13 * self.order
        assert np.abs(self.left_offset.sum() + row_sums - (tau + 1)).max() < scale
        assert np.abs(self.right_offset.sum() - row_sums - (1 - tau)).max() < scale

    @cached_property
    def int_left(self) -> np.ndarray:
        W = self.left_offset + self.bracket
        if __debug__:
            V = self.__dict__.get("int_right")
            self._check_full_weights(W, self.right_offset - self.bracket if V is None else V)
        return W

    @cached_property
    def int_right(self) -> np.ndarray:
        V = self.right_offset - self.bracket
        if __debug__:
            W = self.__dict__.get("int_left")
            self._check_full_weights(self.left_offset + self.bracket if W is None else W, V)
        return V

    def _check_full_weights(self, W: np.ndarray, V: np.ndarray) -> None:
        gap = W + V  # one n-by-n temporary: sigma broadcasts, so W + V - sigma would take two
        gap -= self.full_weights
        assert np.abs(gap, out=gap).max() < 1e-13 * self.order

    def coefficients(self, values: np.ndarray) -> np.ndarray:
        """Chebyshev coefficients from node values: ``inverse_cosine_matrix(n)
        @ values`` in O(n log n), without building that matrix."""
        values = np.asarray(values, dtype=float)
        if values.shape != (self.order + 1,):
            raise ValueError(f"need {self.order + 1} node values, got shape {values.shape}")
        return chebyshev_coefficients(values)


def build_operators(n: int) -> SpectralOperators:
    """Construct the order-n spectral operators in O(n log n).

    Only the vectors of the closed form in the module docstring are built:
    with b_m = sin(theta_m)/N, a_m = -2 b_m U(2m+1+2N), c_m = 2 b_m U(2m+1)
    and S(q) = U(2q),

        int_left[k, m]  = a_m + b_m [S(m-k) + S(m+k+1)]
        int_right[k, m] = c_m - b_m [S(m-k) + S(m+k+1)]
        full_weights[m] = a_m + c_m

    which equal C S_L C^-1, C S_R C^-1 and ones @ S_L @ C^-1 up to rounding.
    One length-4N FFT gives U at every p.  The matrices are built from these
    vectors only when read (see :class:`SpectralOperators`).

    Raises ValueError for n < 1.
    """
    if n < 1:
        raise ValueError("order must be >= 1")
    N = n + 1
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
    return SpectralOperators(
        order=n,
        left_offset=a,
        right_offset=c,
        bracket_scale=b,
        s_values=S,
        full_weights=a + c,
    )


@dataclass(frozen=True)
class ChebGrid:
    """First-kind Chebyshev grid mapped onto [a, b].

    ``nodes`` are the affine images on (a, b) of the reference nodes on
    (-1, 1), descending.  ``order`` is the polynomial order, so there are
    order+1 points.
    """

    order: int
    a: float
    b: float
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
    return ChebGrid(order=n, a=float(a), b=float(b), nodes=0.5 * (b - a) * ref + 0.5 * (a + b))


def chebyshev_eval(coeffs: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Evaluate sum_j coeffs[j] T_j(x) by Clenshaw's recurrence.

    ``x`` is on the reference interval; scalar or array.
    """
    return chebval(np.asarray(x, dtype=float), np.asarray(coeffs, dtype=float))
