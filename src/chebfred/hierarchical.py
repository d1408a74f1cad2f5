"""Hierarchical (HODLR) solve for composite systems with low-rank coupling.

Away from s = t the kernel is infinitely differentiable, so every block that
couples two disjoint groups of panels is numerically low-rank.  The system
matrix is cut recursively at the panel boundary nearest the middle of each
node; the two off-diagonal blocks of a node are compressed, A12 ~ U1 V2^T
and A21 ~ U2 V1^T, and the node is solved with the Sherman-Morrison-Woodbury
formula on top of its two children:

    A^{-1} = D^{-1} - Y C^{-1} V^T D^{-1},  D = diag(A11, A22),
    Y = D^{-1} U,  C = I + V^T Y,

with one small LU of the capacitance matrix C per node and a dense LU per
leaf (Martinsson & Rokhlin, JCP 2005; Ambikasaran & Darve, J. Sci. Comput.
2013).  Solves with A^T use the same factors with the roles of U and V
swapped: A^{-T} = D^{-T} (I - V C^{-T} Y^T).

The matrix is a ``BlockOperator``, and the solver forms no N x N array of
its own.  A storage that holds an off-diagonal block as factors
(``BlockOperator.off_diagonal_factors``, the factor pairs of
``FactoredBlocks``) gives them as the compression, with no QR or SVD.
Otherwise compression reads the block a row and a column at a time from
its view (``BlockOperator.view``).  A leaf forms only its own diagonal
part, when it is factored.  Nodes are memoised by
``BlockOperator.share_key``.  Under ``FactoredBlocks`` every range of the
same number of panels carries the same matrix up to the rounding of its
nodes, so the key is the panel count: the tree holds one node per panel
count, built from the first such range, compressed and factored once, and
refinement against the stored operator corrects the difference; a node
whose two children are one object solves both halves in one batched call.
Under ``DenseBlocks`` the key is the panel range, and nothing is shared.

Compression without stated factors is adaptive cross approximation with
partial pivoting
(Bebendorf, Numer. Math. 86, 2000; Bebendorf & Rjasanow, Computing 70,
2003): a block of rank r is read as r of its rows and r of its columns, with
no product with the whole block.  The crosses are then recompressed, by a QR
of each factor and an SVD of the small core, and truncated at ``SKETCH_TOL``
times the 1-norm of the whole matrix.  Every step is deterministic, so every
run is bitwise repeatable.  A block that needs a rank near half its smaller
side, or whose stated factors have more columns than that, is not
compressed, and neither is a node whose ranks make the Woodbury
update cost more than a dense LU of the node: either is a dense leaf.

The factorization is only an approximate inverse:
``fredholm_solver.refined_solve`` refines its answer against the exact
matrix, whose residual is computed block by block, and falls back to dense
LU when that does not converge to working accuracy.  The condition estimate
is LAPACK's dlacn2 iteration (Hager 1984; Higham, ACM TOMS 1988), the
estimator ``gecon`` runs, applied through the hierarchical solves.

LU, its condition estimate and every dense solve are LAPACK's ``getrf``,
``gecon`` and ``getrs`` in double precision (``dgetrf``, ``dgecon``,
``dgetrs``) from scipy's compiled LAPACK module,
``scipy.linalg._flapack``, loaded on its own: the ``scipy.linalg`` package
costs each process about 0.3 s and 25 MB at import, and nothing else of it
is used.  The QR and SVD of the recompression are ``numpy.linalg``'s.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import pathlib
import sys

import numpy as np

__all__ = [
    "CROSSOVER_N", "LEAF_SIZE", "SKETCH_TOL", "hierarchical_solve",
]

# Smallest system the hierarchical path is tried on, and the largest node
# factored as a dense leaf; both from scripts/bench_composite_solve.py.
CROSSOVER_N = 1024
LEAF_SIZE = 128
# Cross approximation stops at a cross below SKETCH_TOL * ||A||_1, and the
# recompression drops singular values below it.
SKETCH_TOL = 1e-12
# dlacn2's iteration limit.
ITMAX = 5


def _load_flapack():
    """``scipy.linalg._flapack``, run without scipy's or scipy.linalg's __init__.

    It is registered under that name, so a later ``import scipy.linalg``
    shares the one module.
    """
    name = "scipy.linalg._flapack"
    if name not in sys.modules:
        scipy = importlib.util.find_spec("scipy")  # locates the package without running it
        if scipy is None:
            raise ImportError("chebfred needs scipy for its LAPACK extension _flapack")
        where = pathlib.Path(scipy.submodule_search_locations[0], "linalg")
        path = where / f"_flapack{importlib.machinery.EXTENSION_SUFFIXES[0]}"
        if not path.is_file():
            raise ImportError(f"scipy's LAPACK extension {path.name} not found in {where}")
        spec = importlib.util.spec_from_file_location(name, path)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
        sys.modules[name] = module
    return sys.modules[name]


_flapack = _load_flapack()
_getrf, _gecon, _getrs = _flapack.dgetrf, _flapack.dgecon, _flapack.dgetrs


def _lu(matrix, getrf=_getrf):
    """LU factors of A^T, for a fresh C-order array A.

    A^T is the same memory in Fortran order, so LAPACK factors it in place,
    with no transposing copy.  ``_lu_solve`` solves with A or A^T from it.
    ``getrf`` is the LAPACK routine of A's precision.
    """
    lu, piv, info = getrf(matrix.T, overwrite_a=True)
    if info > 0:  # an exactly zero pivot
        raise np.linalg.LinAlgError("zero pivot")
    return lu, piv


def _lu_solve(factors, b, trans=0):
    """A^{-1} b, or A^{-T} b with trans=1, from ``_lu``'s factors of A^T."""
    x, _info = _getrs(factors[0], factors[1], b, trans=1 - trans)
    return x


def _lu_rcond(factors, anorm):
    """``gecon``'s estimate of 1 / (||A||_1 ||A^{-1}||_1) from ``_lu``'s
    factors of A^T, given ||A||_1: for A^T that is the infinity norm."""
    rcond, _info = _gecon(factors[0], anorm, norm="I")
    return float(rcond)


class _Leaf:
    """Dense LU of the diagonal part over panels p0 .. p1-1, formed on first factor()."""

    def __init__(self, op, p0, p1):
        self.op, self.p0, self.p1 = op, p0, p1
        self.size = int(op.offsets[p1] - op.offsets[p0])
        self.factor_flops = 2.0 / 3.0 * self.size**3
        self.solve_flops = 2.0 * self.size**2
        self.lu = None

    def factor(self):
        if self.lu is None:
            self.lu = _lu(self.op.dense(self.p0, self.p1))

    def solve(self, b):
        return _lu_solve(self.lu, b)

    def solve_t(self, b):
        return _lu_solve(self.lu, b, trans=1)


def _solve_children(left, right, b1, b2, transpose=False):
    """(left^{-1} b1, right^{-1} b2), one batched solve when both are one shared node."""
    if left is right:
        z = left.solve_t(np.hstack([b1, b2])) if transpose else left.solve(np.hstack([b1, b2]))
        return z[:, : b1.shape[1]], z[:, b1.shape[1] :]
    if transpose:
        return left.solve_t(b1), right.solve_t(b2)
    return left.solve(b1), right.solve(b2)


class _Node:
    """A12 = U1 V2^T, A21 = U2 V1^T over children of sizes n1 and n2.

    Solves take and return 2-D arrays, one column per right-hand side.
    """

    def __init__(self, left, right, u1, v2, u2, v1):
        self.left, self.right = left, right
        self.u1, self.v2, self.u2, self.v1 = u1, v2, u2, v1
        n1, n2 = left.size, right.size
        r1, r2 = u1.shape[1], u2.shape[1]
        self.size, self.r1 = n1 + n2, r1
        self.solve_flops = (
            left.solve_flops + right.solve_flops
            + 4.0 * (n1 + n2) * (r1 + r2) + 2.0 * (r1 + r2) ** 2
        )
        self.factor_flops = (
            left.factor_flops + right.factor_flops
            + r1 * left.solve_flops + r2 * right.solve_flops
            + 4.0 * (n1 + n2) * r1 * r2 + 2.0 / 3.0 * (r1 + r2) ** 3
        )
        self.factored = False

    def factor(self):
        if self.factored:
            return
        self.left.factor()
        self.right.factor()
        self.y1, self.y2 = _solve_children(self.left, self.right, self.u1, self.u2)
        r1 = self.r1
        cap = np.eye(r1 + self.u2.shape[1])
        cap[:r1, r1:] = self.v2.T @ self.y2
        cap[r1:, :r1] = self.v1.T @ self.y1
        self.cap = _lu(cap) if len(cap) else None
        self.factored = True

    def solve(self, b):
        n1, r1 = self.left.size, self.r1
        z1, z2 = _solve_children(self.left, self.right, b[:n1], b[n1:])
        if self.cap is None:
            return np.concatenate([z1, z2])
        w = _lu_solve(self.cap, np.concatenate([self.v2.T @ z2, self.v1.T @ z1]))
        return np.concatenate([z1 - self.y1 @ w[:r1], z2 - self.y2 @ w[r1:]])

    def solve_t(self, b):
        n1, r1 = self.left.size, self.r1
        b1, b2 = b[:n1], b[n1:]
        if self.cap is not None:
            w = _lu_solve(self.cap, np.concatenate([self.y1.T @ b1, self.y2.T @ b2]), trans=1)
            b1 = b1 - self.v1 @ w[r1:]
            b2 = b2 - self.v2 @ w[:r1]
        return np.concatenate(_solve_children(self.left, self.right, b1, b2, transpose=True))


def _compress(op, rows, cols, tol):
    """(U, V) with block ~ U V^T to within about tol, or None if the block's
    rank is near half its smaller side.

    The block is A[rows, cols] (panel ranges) of the BlockOperator ``op``.
    When the storage holds it as factors (``op.off_diagonal_factors``),
    they are the answer, or None when they have more columns than half the
    block's smaller side.  Otherwise the block's view (``op.view``) is read
    one row and one column at a time by partial-pivot cross approximation:
    each step takes the residual of the next row, pivots on its entry of
    largest magnitude, reads the residual of the pivot's column, and adds
    the cross through the pivot, which zeroes that row and column of the
    residual.  The next row is the one where the new column is largest
    among the rows not yet used; a row whose residual is zero moves on to
    the first such row, unless it is the first row read and the whole
    block is zero (rank 0).  The steps stop once a cross is no larger than
    tol in the Frobenius norm, or once every row is used.  The crosses are then recompressed: a QR of each factor, an SVD of
    the small core, and truncation of its singular values at tol.
    """
    off = op.offsets
    m, n = off[rows[1]] - off[rows[0]], off[cols[1]] - off[cols[0]]
    max_rank = min(m, n) // 2
    stated = op.off_diagonal_factors(rows, cols)
    if stated is not None:
        return None if stated[0].shape[1] > max_rank else stated
    block = op.view(rows, cols)
    # the crosses' columns and rows, one per row of us and vs, grown by doubling
    us, vs = np.empty((8, m)), np.empty((8, n))
    unused = np.ones(m, dtype=bool)
    rank, i = 0, 0
    while True:
        unused[i] = False
        residual = block[i] - us[:rank, i] @ vs[:rank]
        j = int(np.argmax(np.abs(residual)))
        if residual[j] == 0.0:
            # a zero row says nothing of the rows not yet read, but a zero
            # first row makes it worth one look at the whole block
            if not unused.any() or (i == 0 and not block.any()):
                break
            i = int(np.argmax(unused))
            continue
        if rank == max_rank:
            return None
        if rank == len(us):
            us, vs = np.concatenate([us, np.empty_like(us)]), np.concatenate([vs, np.empty_like(vs)])
        u = us[rank] = block[:, j] - vs[:rank, j] @ us[:rank]
        v = vs[rank] = residual / residual[j]
        rank += 1
        if (u @ u) * (v @ v) <= tol * tol or not unused.any():
            break
        i = int(np.argmax(np.where(unused, np.abs(u), -1.0)))
    qu, ru = np.linalg.qr(us[:rank].T)
    qv, rv = np.linalg.qr(vs[:rank].T)
    ub, s, vt = np.linalg.svd(ru @ rv.T)
    rank = int(np.count_nonzero(s > tol))
    return (qu @ ub[:, :rank]) * s[:rank], qv @ vt[:rank].T


def _build(op, p0, p1, tol, memo):
    """Tree over panels p0 .. p1-1, compressed top-down.

    ``memo`` maps ``op.share_key`` to the subtree already built for it, so
    ranges whose matrices are equal share one subtree, compressed and later
    factored once.
    """
    key = op.share_key(p0, p1)
    if key not in memo:
        memo[key] = _split(op, p0, p1, tol, memo)
    return memo[key]


def _split(op, p0, p1, tol, memo):
    offsets = op.offsets
    lo, hi = int(offsets[p0]), int(offsets[p1])
    if p1 - p0 < 2 or hi - lo <= LEAF_SIZE:
        return _Leaf(op, p0, p1)
    k = p0 + 1 + int(np.argmin(np.abs(offsets[p0 + 1 : p1] - (lo + hi) / 2.0)))
    upper = _compress(op, (p0, k), (k, p1), tol)
    if upper is None:
        return _Leaf(op, p0, p1)
    lower = _compress(op, (k, p1), (p0, k), tol)
    if lower is None:
        return _Leaf(op, p0, p1)
    node = _Node(
        _build(op, p0, k, tol, memo),
        _build(op, k, p1, tol, memo),
        upper[0], upper[1], lower[0], lower[1],
    )
    if node.factor_flops > 2.0 / 3.0 * node.size**3:
        return _Leaf(op, p0, p1)
    return node


def _inverse_norm1_estimate(solve, solve_t, n):
    """dlacn2: a lower bound on ||A^{-1}||_1 from solves with A and A^T."""
    x = solve(np.full(n, 1.0 / n))
    est = np.sum(np.abs(x))
    sign = np.where(x >= 0.0, 1.0, -1.0)
    x = solve_t(sign)
    j = int(np.argmax(np.abs(x)))
    iteration = 2
    while True:
        x = solve(np.eye(1, n, j)[0])
        est_old, est = est, np.sum(np.abs(x))
        new_sign = np.where(x >= 0.0, 1.0, -1.0)
        if np.array_equal(new_sign, sign) or est <= est_old:
            break
        sign = new_sign
        x = solve_t(sign)
        j_last, j = j, int(np.argmax(np.abs(x)))
        if x[j_last] == abs(x[j]) or iteration >= ITMAX:
            break
        iteration += 1
    alternating = (1.0 + np.arange(n) / (n - 1)) * np.where(np.arange(n) % 2, -1.0, 1.0)
    return max(est, 2.0 * np.sum(np.abs(solve(alternating))) / (3.0 * n))


def hierarchical_solve(op, anorm):
    """(solve, rcond) from a hierarchical factorization of ``op``, or None
    when the top split has no low-rank coupling.

    ``op`` is a ``BlockOperator`` of several panels and ``anorm`` its
    ||A||_1, finite.  ``solve(b)`` applies the factorization's inverse to a
    vector and ``rcond()`` is dlacn2's estimate of 1 / (||A||_1
    ||A^{-1}||_1) through solves with A and A^T.  A zero pivot raises
    ``LinAlgError``.  The factorization forms no N x N array.
    """
    root = _build(op, 0, op.panels, SKETCH_TOL * anorm, {})
    if isinstance(root, _Leaf):
        return None
    root.factor()

    def solve(b):
        return root.solve(b[:, None])[:, 0]

    def rcond():
        ainvnm = _inverse_norm1_estimate(solve, lambda b: root.solve_t(b[:, None])[:, 0], len(op))
        return 1.0 / ainvnm / anorm if ainvnm != 0.0 else 0.0

    return solve, rcond
