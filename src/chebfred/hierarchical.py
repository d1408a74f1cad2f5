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
its own.  Compression sketches an off-diagonal block through the operator's
blockwise products with A and A^T; a leaf forms only its own diagonal part,
when it is factored.  Nodes are memoised by ``BlockOperator.share_key``: under Toeplitz
block structure every node over the same number of panels has the same
matrix, so the tree holds one node per panel count, compressed and factored
once, and a node whose two children are one object solves both halves in one
batched call.  Without that structure the key is the panel range, and
nothing is shared.

Compression is a seeded randomized range finder (Halko, Martinsson & Tropp,
SIAM Rev. 2011): sketch, QR, SVD of the small projection, truncation at
``SKETCH_TOL`` times the 1-norm of the whole matrix.  The fixed seed makes
every run bitwise repeatable.  A node whose ranks make the Woodbury update
cost more than a dense LU of the node is a dense leaf instead.

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
is used.  The QR and SVD of the range finder are ``numpy.linalg``'s.
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
# Singular values below SKETCH_TOL * ||A||_1 are dropped.
SKETCH_TOL = 1e-12
SEED = 20130501
# Range-finder sketch width: first try, and columns kept beyond the rank.
SKETCH_START = 8
OVERSAMPLE = 6
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


def _compress(op, rows, cols, tol, rng, start):
    """(U, V) with block ~ U V^T to within tol in the 2-norm, or None if the
    block's rank is near half its smaller side.

    The block is A[rows, cols] (panel ranges) of the BlockOperator ``op``,
    seen only through the operator's products with it and its transpose.
    The sketch starts ``start`` columns wide and grows, keeping the columns
    it has, until it holds OVERSAMPLE columns more than the rank it finds.
    """
    off = op.offsets
    m, n = off[rows[1]] - off[rows[0]], off[cols[1]] - off[cols[0]]
    side = min(m, n)
    sketch = op.matmul(rng.standard_normal((n, min(max(start, SKETCH_START), side))), rows, cols)
    while True:
        ell = sketch.shape[1]
        q, _ = np.linalg.qr(sketch)
        # SVD of the ell x n projection q^T block through a QR of its transpose
        q2, r2 = np.linalg.qr(op.rmatmul(q, rows, cols))
        ub, s, vt = np.linalg.svd(r2.T)
        rank = int(np.count_nonzero(s > tol))
        if rank + OVERSAMPLE <= ell or ell == side:
            break
        if 2 * ell >= side:
            return None
        # a full sketch says nothing about the rank beyond it: double it
        grow = ell if rank == ell else rank + 2 * OVERSAMPLE - ell
        omega = rng.standard_normal((n, min(grow, side - ell)))
        sketch = np.hstack([sketch, op.matmul(omega, rows, cols)])
    return (q @ ub[:, :rank]) * s[:rank], q2 @ vt[:rank].T


def _build(op, p0, p1, tol, rng, memo):
    """Tree over panels p0 .. p1-1, compressed top-down.

    ``memo`` maps ``op.share_key`` to the subtree already built for it, so
    ranges whose matrices are equal share one subtree, compressed and later
    factored once.
    """
    key = op.share_key(p0, p1)
    if key not in memo:
        memo[key] = _split(op, p0, p1, tol, rng, memo)
    return memo[key]


def _split(op, p0, p1, tol, rng, memo):
    offsets = op.offsets
    lo, hi = int(offsets[p0]), int(offsets[p1])
    if p1 - p0 < 2 or hi - lo <= LEAF_SIZE:
        return _Leaf(op, p0, p1)
    k = p0 + 1 + int(np.argmin(np.abs(offsets[p0 + 1 : p1] - (lo + hi) / 2.0)))
    upper = _compress(op, (p0, k), (k, p1), tol, rng, SKETCH_START)
    if upper is None:
        return _Leaf(op, p0, p1)
    # the transposed coupling usually has a similar rank: start the sketch there
    lower = _compress(op, (k, p1), (p0, k), tol, rng, upper[0].shape[1] + OVERSAMPLE)
    if lower is None:
        return _Leaf(op, p0, p1)
    node = _Node(
        _build(op, p0, k, tol, rng, memo),
        _build(op, k, p1, tol, rng, memo),
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
    root = _build(op, 0, op.panels, SKETCH_TOL * anorm, np.random.default_rng(SEED), {})
    if isinstance(root, _Leaf):
        return None
    root.factor()

    def solve(b):
        return root.solve(b[:, None])[:, 0]

    def rcond():
        ainvnm = _inverse_norm1_estimate(solve, lambda b: root.solve_t(b[:, None])[:, 0], len(op))
        return 1.0 / ainvnm / anorm if ainvnm != 0.0 else 0.0

    return solve, rcond
