"""Panel-blocked system matrices, stored so that each distinct block is kept once.

A composite system is an N x N matrix cut at panel boundaries into m x m
blocks.  ``BlockOperator`` is what the solvers read from such a matrix:
products with A and A^T over any range of panels, the column and row sums
of |A| (hence its 1- and infinity-norms), a finiteness check, and ``dense``,
which forms the square array of a range of panels only when a dense
factorization needs it.  That array is a plain C-order copy: its transpose
is the same memory in Fortran order, so LAPACK factors A^T in place and
solves with A through ``trans`` (``hierarchical._lu``).  ``share_key``
tells the hierarchical solver which panel ranges carry the same matrix.

Two storages implement it:

* ``ToeplitzBlocks``: block (j, i) depends on j - i only (a difference
  kernel on equal panels), so the 2m - 1 distinct blocks hold the whole
  matrix.  Every product is one matrix product per distinct block, applied
  to all the panel pairs along its diagonal at once, and every sum and
  check runs once per distinct block; the N x N array is never formed.
* ``DenseBlocks``: every block is distinct, so the N x N array is itself
  the storage, and a range of panels is a view of it.

``as_block_operator`` wraps a plain array as ``DenseBlocks``, cut at given
offsets or taken as one panel.
"""

from __future__ import annotations

import numpy as np

__all__ = ["BlockOperator", "DenseBlocks", "ToeplitzBlocks", "abs_sums", "as_block_operator"]


def abs_sums(matrix, rows=64):
    """Column and row sums of |A|, without an n x n temporary."""
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
    ``_apply`` (the product over spans from ``_span``) and ``_abs_sums``.
    """

    def __init__(self, offsets):
        self.offsets = np.asarray(offsets, dtype=int)
        self.panels = len(self.offsets) - 1
        self._sums = None

    def __len__(self):
        return int(self.offsets[-1])

    @property
    def shape(self):
        return (len(self), len(self))

    def _span(self, panels):
        p0, p1 = panels or (0, self.panels)
        return p0, p1, int(self.offsets[p0]), int(self.offsets[p1])

    def matmul(self, x, rows=None, cols=None):
        """A[rows, cols] @ x, for x of one or two dimensions."""
        return self._product(x, rows, cols, transpose=False)

    def rmatmul(self, x, rows=None, cols=None):
        """A[rows, cols]^T @ x, for x of one or two dimensions."""
        return self._product(x, rows, cols, transpose=True)

    def _product(self, x, rows, cols, transpose):
        rows, cols = self._span(rows), self._span(cols)
        src = rows if transpose else cols
        x = np.asarray(x, dtype=float)
        if len(x) != src[3] - src[2]:
            raise ValueError(f"operand has {len(x)} rows, expected {src[3] - src[2]}")
        out = self._apply(x.reshape(len(x), -1), rows, cols, transpose)
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


class DenseBlocks(BlockOperator):
    """The N x N ``matrix`` itself, cut at ``offsets``; nothing is shared."""

    def __init__(self, matrix, offsets):
        super().__init__(offsets)
        self.matrix = matrix

    def share_key(self, p0, p1):
        return (p0, p1)

    def _view(self, rows, cols):
        return self.matrix[rows[2] : rows[3], cols[2] : cols[3]]

    def block(self, j, i):
        return self._view(self._span((j, j + 1)), self._span((i, i + 1)))

    def _apply(self, x, rows, cols, transpose):
        view = self._view(rows, cols)
        return view.T @ x if transpose else view @ x

    def _abs_sums(self):
        return abs_sums(self.matrix)

    def is_finite(self):
        return bool(np.isfinite(self.matrix).all())

    def dense(self, p0=0, p1=None):
        """A fresh C-order copy of A[p0:p1, p0:p1] (panels; default all)."""
        span = self._span((p0, self.panels if p1 is None else p1))
        return np.array(self._view(span, span), order="C")


class ToeplitzBlocks(BlockOperator):
    """Block (j, i) is ``diagonals[j - i]``, for d = j - i from 1 - m to m - 1;
    every panel has the same size."""

    def __init__(self, offsets, diagonals):
        super().__init__(offsets)
        self.diagonals = diagonals
        self.size = int(self.offsets[1])

    def share_key(self, p0, p1):
        """Every range of the same number of panels carries the same matrix."""
        return p1 - p0

    def block(self, j, i):
        return self.diagonals[j - i]

    def _diagonals(self, rows, cols):
        """(d, j0, j1): row panels j0 .. j1-1 meet column panels j0-d .. j1-1-d
        in the block of diagonal d, for every d the ranges cross."""
        (p0, p1), (q0, q1) = rows[:2], cols[:2]
        for d in range(p0 - q1 + 1, p1 - q0):
            yield d, max(p0, q0 + d), min(p1, q1 + d)

    def _apply(self, x, rows, cols, transpose):
        # Panel p's k columns sit side by side at columns p*k .. p*k+k-1, so
        # the panel pairs along one diagonal are one product with its block.
        n, k = self.size, x.shape[1]
        src, dst = (rows, cols) if transpose else (cols, rows)
        xt = x.reshape(-1, n, k).transpose(1, 0, 2).reshape(n, -1)
        out = np.zeros((n, (dst[1] - dst[0]) * k))
        for d, j0, j1 in self._diagonals(rows, cols):
            block, (a, b) = self.diagonals[d], (j0 - d, j0)
            if transpose:
                block, (a, b) = block.T, (b, a)
            a, b, count = (a - src[0]) * k, (b - dst[0]) * k, (j1 - j0) * k
            out[:, b : b + count] += block @ xt[:, a : a + count]
        return out.reshape(n, -1, k).transpose(1, 0, 2).reshape(-1, k)

    def _abs_sums(self):
        n, m = self.size, self.panels
        cols, rows = np.zeros((m, n)), np.zeros((m, n))
        for d, j0, j1 in self._diagonals((0, m), (0, m)):
            col_sums, row_sums = abs_sums(self.diagonals[d])
            rows[j0:j1] += row_sums
            cols[j0 - d : j1 - d] += col_sums
        return cols.reshape(-1), rows.reshape(-1)

    def is_finite(self):
        return all(np.isfinite(block).all() for block in self.diagonals.values())

    def dense(self, p0=0, p1=None):
        """A fresh C-order array holding A[p0:p1, p0:p1] (panels; default all)."""
        count = (self.panels if p1 is None else p1) - p0
        n = self.size
        out = np.empty((count * n, count * n))
        for j in range(count):
            for i in range(count):
                out[j * n : (j + 1) * n, i * n : (i + 1) * n] = self.diagonals[j - i]
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
