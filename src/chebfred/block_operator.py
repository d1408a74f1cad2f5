"""Panel-blocked system matrices, stored as an array or as factors.

A composite system is an N x N matrix cut at panel boundaries into m x m
blocks.  ``BlockOperator`` is what the solvers read from such a matrix:
products with A, the column and row sums of |A| (hence its 1- and
infinity-norms), a finiteness check, and ``dense``, which forms the square
array of a range of panels only when a dense factorization needs it.  That
array is a plain C-order copy: its transpose is the same memory in Fortran
order, so LAPACK factors A^T in place and solves with A through ``trans``
(``hierarchical._lu``).  ``share_key`` tells the hierarchical solver which
panel ranges carry the same matrix.  For a block off the diagonal, a
storage gives either its own factors U V^T (``off_diagonal_factors``), so
that the solver compresses nothing, or the block itself as a view of its
array (``view``), which the solver's cross approximation indexes.

Two storages implement it:

* ``DenseBlocks``: the array itself is the storage, and a range of panels
  is a view of it (``view``).  It is the N x N array of a system of
  several panels, every block written at its own nodes, or the one block
  of a one-panel system.
* ``FactoredBlocks``: a difference kernel stated by factor pairs on equal
  panels.  The m diagonal blocks are stored, one (m, n, n) array, and
  every block off the diagonal is a product of the branch factors at the
  nodes, F_j G_i^T, scaled per column; nothing N x N and nothing per block
  diagonal is kept.  A product is one batched product with the diagonal
  blocks plus, for each panel j, F_j times a prefix sum (below the
  diagonal) or suffix sum (above it) of the panels' G_i^T (c w x)_i, in
  O(m n^2 + N r).  ``dense`` forms entries term by term, bitwise those of
  the same kernel sampled at its own nodes.  The |A| sums take each
  diagonal block and the first block of each block diagonal, formed from
  the factors a chunk of panels at a time, and add the latter along its
  diagonal.  Ranges of the same panel count carry the same matrix up to
  the rounding of their nodes, so ``share_key`` is the panel count, and
  refinement corrects the difference.  It has no ``view``: the
  hierarchical solver takes its stated factors.

``as_block_operator`` wraps a plain array as ``DenseBlocks``, cut at given
offsets or taken as one panel.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = [
    "BlockOperator", "DenseBlocks", "FactoredBlocks", "abs_sums", "as_block_operator",
]


def abs_sums(matrix):
    """Column and row sums of |A|, without an n x n temporary.  The rows are
    taken 64 at a time, which fixes the summation order of the column sums."""
    rows = 64
    cols = np.zeros(matrix.shape[1])
    row_sums = np.empty(matrix.shape[0])
    buf = np.empty((min(rows, len(matrix)), matrix.shape[1]))
    for i in range(0, len(matrix), rows):
        chunk = matrix[i : i + rows]
        chunk = np.abs(chunk, out=buf[: len(chunk)])
        cols += chunk.sum(axis=0)
        row_sums[i : i + rows] = chunk.sum(axis=1)
    return cols, row_sums


class BlockOperator:
    """An N x N matrix cut at ``offsets`` (0 = offsets[0] < ... < offsets[-1] = N).

    Panel ranges are half-open pairs ``(p0, p1)``; None means every panel.
    A storage provides ``block``, ``share_key``, ``is_finite``, ``dense``,
    ``_apply`` (the product with a 2-D operand), ``_abs_sums``, and either
    ``off_diagonal_factors`` or ``view``, which gives A[rows, cols] as an
    array view.

    ``coarse`` is None or the same rule at a lower order for a one-panel
    system: ``coarse(order)`` returns a fresh C-order array, the system
    matrix of the same kernel, lambda and interval on order + 1 nodes
    (``composite_solver.assemble_blocks``), or of the same potential
    (Schrodinger ``assemble``, which gives none when the kernel's branch
    rows are not resolved at a quarter of the order).
    """

    coarse = None

    def __init__(self, offsets):
        self.offsets = np.asarray(offsets, dtype=int)
        self.panels = len(self.offsets) - 1
        self._sums = None

    def __len__(self):
        return int(self.offsets[-1])

    def _span(self, panels):
        p0, p1 = panels or (0, self.panels)
        return p0, p1, int(self.offsets[p0]), int(self.offsets[p1])

    def matmul(self, x):
        """A @ x, for x of one or two dimensions."""
        x = np.asarray(x, dtype=float)
        if len(x) != len(self):
            raise ValueError(f"operand has {len(x)} rows, expected {len(self)}")
        out = self._apply(x[:, None] if x.ndim == 1 else x)
        return out.reshape(-1) if x.ndim == 1 else out

    def abs_sums(self):
        """Column and row sums of |A| (computed once)."""
        if self._sums is None:
            self._sums = self._abs_sums()
        return self._sums

    def norm1(self):
        return float(self.abs_sums()[0].max())

    def norm_inf(self):
        return float(self.abs_sums()[1].max())

    def off_diagonal_factors(self, rows, cols):
        """(U, V) with A[rows, cols] = U V^T, for panel ranges that do not
        overlap, when the storage holds that block as factors; else None."""
        return None


class DenseBlocks(BlockOperator):
    """The N x N ``matrix`` itself, cut at ``offsets``; nothing is shared."""

    def __init__(self, matrix, offsets, coarse=None):
        super().__init__(offsets)
        self.matrix = matrix
        self.coarse = coarse

    def share_key(self, p0, p1):
        return (p0, p1)

    def view(self, rows, cols):
        """A[rows, cols] (panel ranges), a view of the array."""
        (*_, r0, r1), (*_, c0, c1) = self._span(rows), self._span(cols)
        return self.matrix[r0:r1, c0:c1]

    def block(self, j, i):
        return self.view((j, j + 1), (i, i + 1))

    def _apply(self, x):
        return self.matrix @ x

    def _abs_sums(self):
        return abs_sums(self.matrix)

    def is_finite(self):
        return bool(np.isfinite(self.matrix).all())

    def dense(self, p0=0, p1=None):
        """A fresh C-order copy of A[p0:p1, p0:p1] (panels; default all)."""
        span = (p0, self.panels if p1 is None else p1)
        return np.array(self.view(span, span), order="C")


class FactoredBlocks(BlockOperator):
    """Block (j, i) is ``diagonal[j]`` on the diagonal, and off it

        (c_i o sum_r F[rows j, r] G[cols i, r]^T) o w_i,

    with (F, G) the ``lower`` factors for i < j and the ``upper`` ones for
    i > j, each an N x r array at the nodes, and c and w the N-vectors of
    the column scale and the weights; every panel has the same size."""

    def __init__(self, offsets, diagonal, lower, upper, col_scale, weights):
        super().__init__(offsets)
        self.diagonal = diagonal
        self.lower, self.upper = lower, upper
        self.col_scale, self.weights = col_scale, weights
        self._cw = col_scale * weights
        self.size = int(self.offsets[1])

    def share_key(self, p0, p1):
        """Ranges of the same number of panels carry the same matrix but for
        the rounding of their nodes, which refinement corrects."""
        return p1 - p0

    def _entries(self, factors, rows, cols):
        """A[rows, cols] (index slices) of one side of the diagonal, term by
        term and in the order of the sampled kernel."""
        f, g = factors[0][rows], factors[1][cols]
        total = f[:, :1] * g[:, 0]
        for k in range(1, f.shape[1]):
            total = total + f[:, k : k + 1] * g[:, k]
        return self.col_scale[cols] * total * self.weights[cols]

    def _panels(self, p0, p1):
        return slice(*self._span((p0, p1))[2:])

    def block(self, j, i):
        if i == j:
            return self.diagonal[j]
        rows, cols = self._panels(j, j + 1), self._panels(i, i + 1)
        return self._entries(self.lower if i < j else self.upper, rows, cols)

    def off_diagonal_factors(self, rows, cols):
        """(U, V) with A[rows, cols] = U V^T to rounding: F at the rows, and G
        at the columns scaled by c o w."""
        f, g = self.lower if rows[0] >= cols[1] else self.upper
        rows, cols = self._panels(*rows), self._panels(*cols)
        return f[rows], g[cols] * self._cw[cols, None]

    def _apply(self, x):
        # the diagonal blocks in one batched product; off the diagonal, panel
        # j takes F_j times the sum of G_i^T (c o w o x)_i over the panels
        # i < j (lower) or i > j (upper)
        m, k = self.panels, x.shape[1]
        out = np.matmul(self.diagonal, x.reshape(m, self.size, k))
        y = (self._cw[:, None] * x).reshape(m, self.size, k)
        for (f, g), below in ((self.lower, True), (self.upper, False)):
            z = np.matmul(g.reshape(m, self.size, -1).transpose(0, 2, 1), y)
            acc = np.zeros_like(z)
            if below:
                np.cumsum(z[:-1], axis=0, out=acc[1:])
            else:
                acc[:-1] = np.cumsum(z[:0:-1], axis=0)[::-1]
            out += np.matmul(f.reshape(m, self.size, -1), acc)
        return out.reshape(-1, k)

    def _first_blocks(self):
        """(p0, p1, |diagonal blocks p0 .. p1-1|, |blocks (d, 0)|, |blocks
        (0, d)|) for d from p0 .. p1-1 (none for d = 0), a chunk of about
        sqrt(m) panels at a time, in one work array.  The blocks off the
        diagonal are products of their factors, equal to the entries to
        rounding."""
        n, m = self.size, self.panels
        step = max(1, math.isqrt(m))
        work = np.empty((3, step, n, n))
        for p0 in range(0, m, step):
            p1 = min(p0 + step, m)
            diagonal = np.abs(self.diagonal[p0:p1], out=work[0, : p1 - p0])
            q0 = max(p0, 1)
            lower, upper = work[1, : p1 - q0], work[2, : p1 - q0]
            u, v = self.off_diagonal_factors((q0, p1), (0, 1))
            np.matmul(u, v.T, out=lower.reshape(-1, n))
            # the transposes of the blocks (0, d), stacked
            u, v = self.off_diagonal_factors((0, 1), (q0, p1))
            np.matmul(v, u.T, out=upper.reshape(-1, n))
            yield p0, p1, diagonal, np.abs(lower, out=lower), np.abs(upper, out=upper).transpose(0, 2, 1)

    def _abs_sums(self):
        """Every diagonal block's sums, and those of the first block of each
        block diagonal, (d, 0) or (0, d), added to every panel along that
        diagonal: its blocks are the first one up to the rounding of their
        nodes."""
        n, m = self.size, self.panels
        cols, rows = np.zeros((m, n)), np.zeros((m, n))
        # by d: the row and column sums of |block (d, 0)| and |block (0, d)|
        lower_rows, lower_cols = np.zeros((m, n)), np.zeros((m, n))
        upper_rows, upper_cols = np.zeros((m, n)), np.zeros((m, n))
        ones = np.ones(n)
        for p0, p1, diagonal, lower, upper in self._first_blocks():
            rows[p0:p1] += diagonal @ ones
            cols[p0:p1] += ones @ diagonal
            q0 = p1 - len(lower)
            lower_rows[q0:p1], lower_cols[q0:p1] = lower @ ones, ones @ lower
            upper_rows[q0:p1], upper_cols[q0:p1] = upper @ ones, ones @ upper
        # row panel j meets diagonals d = 1 .. j below and 1 .. m-1-j above;
        # column panel i meets d = 1 .. m-1-i below and 1 .. i above
        rows += np.cumsum(lower_rows, axis=0) + np.cumsum(upper_rows, axis=0)[::-1]
        cols += np.cumsum(lower_cols, axis=0)[::-1] + np.cumsum(upper_cols, axis=0)
        return cols.reshape(-1), rows.reshape(-1)

    def is_finite(self):
        return all(np.isfinite(a).all() for chunk in self._first_blocks() for a in chunk[2:])

    def dense(self, p0=0, p1=None):
        """A fresh C-order array holding A[p0:p1, p0:p1] (panels; default all),
        row panel by row panel: its diagonal block, the strip left of it and
        the strip above it."""
        p0, p1, lo, hi = self._span((p0, self.panels if p1 is None else p1))
        out = np.empty((hi - lo, hi - lo))
        for j in range(p0, p1):
            rows = self._panels(j, j + 1)
            local = slice(rows.start - lo, rows.stop - lo)
            out[local, local] = self.diagonal[j]
            if rows.start > lo:
                before = slice(lo, rows.start)
                out[local, : local.start] = self._entries(self.lower, rows, before)
                out[: local.start, local] = self._entries(self.upper, before, rows)
        return out


def as_block_operator(matrix, offsets=None):
    """``matrix`` itself if it is a BlockOperator, else the array cut at
    ``offsets`` (default: one panel)."""
    if isinstance(matrix, BlockOperator):
        return matrix
    matrix = np.asarray(matrix, dtype=float)
    n = len(matrix)
    off = np.asarray((0, n) if offsets is None else offsets, dtype=int)
    if matrix.shape != (n, n) or off[0] != 0 or off[-1] != n or np.any(np.diff(off) <= 0):
        raise ValueError(f"offsets {off.tolist()} do not cut a square {matrix.shape} matrix")
    return DenseBlocks(matrix, off)
