"""Nystrom-style discretization and solve for second-kind integral equations.

Both rules collocate x(t) + lam * int_a^b k(t,s) x(s) ds = y(t) at Chebyshev
nodes.  The branch-split rule keeps the two kernel branches separate and
pairs each with the one-sided integration matrix that is exact for
polynomial integrands up to the discretization degree, which is what
preserves spectral accuracy when the kernel has a kink or jump on the
diagonal; ``semismooth_block`` forms one panel's matrix of it, from
samples of the two branches or, for branches stated by factor pairs, from
the factors at the nodes.  The
composite solver (``composite_solver``) assembles these blocks on a
partition of [a, b], and ``solve_fredholm`` is its one-panel case:
``discretize_semismooth`` is ``assemble_blocks`` on one panel.
``discretize_smooth`` (the ``alg1`` baseline) treats the kernel as one
smooth function and needs only the full-interval weight row.

This module also holds what every solver shares: ``dense_solve``, with the
refinement of its fast paths, the rhs check, and ``solve_system``, which
solves and builds the ``ChebSolution``.  A one-panel system from
``assemble_blocks`` carries its rule at any lower order, and so does a
Schrodinger system whose branch rows a quarter of its nodes resolve
(``BlockOperator.coarse``), so the rule converging spectrally also gives
its solve:
``twogrid_solve`` factors the system at a quarter of the order or more and
refines against the full one, in O(n^2) a step, where an LU costs O(n^3).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate

import numpy as np

from . import hierarchical
from .block_operator import DenseBlocks, abs_sums, as_block_operator
from .hierarchical import _flapack, _lu, _lu_rcond, _lu_solve
from .kernel_catalog import KernelEvaluationError, as_semismooth
from .spectral_core import (
    ChebGrid, SpectralOperators, build_operators, cheb_grid, chebyshev_coefficients, chebyshev_eval, chebyshev_values,
)

__all__ = [
    "SingularMatrixError",
    "ChebSolution",
    "dense_solve",
    "semismooth_block",
    "discretize_semismooth",
    "discretize_smooth",
    "solve_system",
    "solve_fredholm",
    "relative_sup_error",
]

RCOND_WARN = 1e-12
# Entries per row block of ``semismooth_block``, from
# scripts/bench_build_operators.py: 32 rows at n = 1000.
ROW_BLOCK_ENTRIES = 32768
# Smallest one-panel system solved by a float32 LU refined in float64.  In
# the float32 sweep of scripts/bench_build_operators.py
# (BENCH_build_operators.json) it beats float64 LU on all three systems
# from n = 383 up, in all but one reading (x0.97, example2 at n = 639),
# and by x1.32-1.47 at n = 1023; the gain below n = 512 is within the
# noise.  513 keeps every system of N <= 512 on float64 LU, bitwise: every
# error-table row but the one panel of order 1023 in longrange.csv.
FLOAT32_CROSSOVER_N = 513
# Smallest one-panel system offered to the two-grid iteration
# (``twogrid_solve``).  In the path sweep of scripts/bench_build_operators.py
# (BENCH_build_operators.json, medians of 3 workers) it beats float64 LU on
# example1 and example2 at every order from n = 351 up, and at n = 255-319
# in all but one reading.  But a system it declines pays the decline on top
# of float64 LU: the script's decline sweep, run with this constant at 288,
# read x1.31 at n = 319 and x1.03-1.07 at n = 383-447.  So it starts at 384.
TWOGRID_CROSSOVER_N = 384
# The two-grid's gate: the largest Chebyshev coefficient of the coarse
# solution over its trailing TWOGRID_TAIL_FRACTION, as a multiple of the
# largest.  In the tail sweep of the same file (example2, T = 50 pi, the
# coarse rule at a quarter of the order), refinement failed at every coarse
# tail of 1.05e-9 or more (n <= 767), took all MAX_REFINE steps at 6.7e-11
# (n = 783), and 3-6 steps at 3.7e-12 or less (n >= 799).
TWOGRID_TAIL = 1e-11
TWOGRID_TAIL_FRACTION = 0.125
# Iterative refinement: most steps, and the largest normwise backward error
# accepted from a refinement that stopped contracting, in units of eps.
MAX_REFINE = 8
BERR_EPS = 8.0

_EPS = np.finfo(float).eps


class SingularMatrixError(np.linalg.LinAlgError):
    """LU factorization hit an exactly zero pivot."""


def dense_solve(matrix, rhs: np.ndarray):
    """Solve A x = y; returns (x, rcond, warning).

    ``rcond`` is the reciprocal condition estimate in the 1-norm and
    ``warning`` is True when it drops below 1e-12.

    ``matrix`` is a ``BlockOperator`` (a system cut at panel boundaries,
    stored as an array or as factors) or a plain array, taken as one panel.
    ||A||_1 comes from the operator's column sums of |A|, and only when it
    is not finite does an exact finiteness check of the stored entries
    decide between ``ValueError`` and an overflowed norm.  A non-finite
    right-hand side raises ``ValueError`` too.

    The refined paths are chosen by the operator's shape
    (``refined_solve``): a hierarchical factorization
    (``hierarchical.hierarchical_solve``) with several panels and N at or
    above ``hierarchical.CROSSOVER_N``; with one panel, the two-grid
    iteration (``twogrid_solve``) when the operator carries its rule at
    lower orders, N is at or above ``TWOGRID_CROSSOVER_N`` and the coarse
    rule resolves the solution, and otherwise a float32 LU
    (``float32_solve``) with N at or above ``FLOAT32_CROSSOVER_N``.  The
    answer is refined against the exact float64 A and kept only when it
    reaches working accuracy.

    Otherwise, and whenever that path gives up, float64 LU answers, bitwise
    as if the path had not been tried: ``BlockOperator.dense`` forms a plain
    C-order copy of A, and LAPACK factors its transpose, which is the same
    memory in Fortran order, in place by LU with partial pivoting
    (``hierarchical._lu``, the helper the hierarchical leaves use too).  The
    factors are those of A^T, so ``getrs`` solves A x = y with ``trans``
    flipped (``_lu_solve``), and rcond is ``gecon``'s infinity-norm estimate
    for A^T from ||A^T||_inf = ||A||_1, which is its 1-norm estimate for A
    (``_lu_rcond``).  A zero pivot raises ``SingularMatrixError``.
    """
    rhs = np.asarray(rhs, dtype=float)
    op = as_block_operator(matrix)
    if rhs.shape != (len(op),):
        raise ValueError(f"rhs has shape {rhs.shape}, expected {(len(op),)}")
    if not np.all(np.isfinite(rhs)):
        raise ValueError("rhs contains non-finite values")
    anorm = op.norm1()
    if not (np.isfinite(anorm) or op.is_finite()):
        raise ValueError("system matrix contains non-finite entries")
    solved = refined_solve(op, rhs, anorm)
    if solved is None:
        try:
            factors = _lu(op.dense())
        except np.linalg.LinAlgError:
            raise SingularMatrixError("discretized operator is singular to working precision") from None
        solved = _lu_solve(factors, rhs), _lu_rcond(factors, anorm)
    x, rcond = solved
    return x, rcond, bool(rcond < RCOND_WARN)


def refined_solve(op, rhs, anorm):
    """(x, rcond) from the refined path that ``dense_solve`` picks for the
    ``BlockOperator`` ``op``, or None to solve by float64 LU.

    ``anorm`` is ||A||_1.  Each candidate builder gets it in the builder's
    working precision and returns an approximate inverse, which ``_refine``
    refines against A, or declines, and then the next candidate is tried.
    None follows when no candidate applies or all decline, when the norm is
    not finite in a candidate's precision, when a builder hits a zero
    pivot, and when refinement does not reach working accuracy.  rcond is
    the builder's estimate, made only after refinement converged.
    """
    n = len(op)
    candidates = []
    if op.panels > 1 and n >= hierarchical.CROSSOVER_N:
        candidates.append((hierarchical.hierarchical_solve, np.float64))
    if op.panels == 1 and op.coarse is not None and n >= TWOGRID_CROSSOVER_N:
        candidates.append((lambda op, _norm: twogrid_solve(op, rhs), np.float64))
    if op.panels == 1 and n >= FLOAT32_CROSSOVER_N:
        candidates.append((float32_solve, np.float32))
    if not candidates:
        return None
    # overflow, an inf from a float32-subnormal pivot, or a zero pivot
    # anywhere hands the system back to float64 LU
    with np.errstate(all="ignore"):
        for build, precision in candidates:
            norm = precision(anorm)
            if not np.isfinite(norm):
                return None
            try:
                built = build(op, norm)
                if built is None:
                    continue
                solve, rcond = built
                x = _refine(op.matmul, rhs, solve, op.norm_inf())
                return None if x is None else (x, float(rcond()))
            except np.linalg.LinAlgError:
                return None
    return None


def _refine(matmul, rhs, solve, anorm_inf):
    """x <- x + H^{-1}(y - A x) until the correction is below eps ||x||.

    ``matmul(x)`` is A x in float64 and ``solve`` applies H^{-1}, an
    approximate inverse.  A refinement that stops contracting is accepted
    only at a normwise backward error of at most BERR_EPS * eps; anything
    else returns None.
    """
    x = solve(rhs)
    rhs_norm = np.max(np.abs(rhs))
    previous = np.inf
    for _ in range(MAX_REFINE):
        residual = rhs - matmul(x)
        correction = solve(residual)
        size = np.max(np.abs(correction))
        refined = x + correction
        if size <= _EPS * np.max(np.abs(refined)):
            return refined
        if not size < 0.5 * previous:
            berr = np.max(np.abs(residual)) / (anorm_inf * np.max(np.abs(x)) + rhs_norm)
            return x if berr <= BERR_EPS * _EPS else None
        x, previous = refined, size
    return None


def twogrid_solve(op, rhs):
    """(solve, rcond) from the same rule at a quarter of the order or more,
    the two-grid approximate inverse of a one-panel ``op`` that carries its
    rule (``op.coarse``), or None when the coarse rule does not resolve the
    solution for ``rhs`` (Atkinson & Brakhage; Atkinson, *The Numerical
    Solution of Integral Equations of the Second Kind*, CUP 1997, ch. 6).

    With N = n + 1 fine nodes, the coarse system A_m on M nodes is
    assembled and LU-factored once, and

        H^{-1} r = r + P (A_m^{-1} - I) R r,

    where R keeps the first M Chebyshev coefficients of r and evaluates
    them at the coarse nodes, and P evaluates coarse coefficients at the
    fine nodes (``chebyshev_coefficients``, ``chebyshev_values``).  R is
    exact on polynomials of degree below M, so (A_m^{-1} - I) R r is taken
    in coefficient space, and the part of r above degree M passes through
    unchanged: a second-kind operator I + K damps it there, K being
    smoothing.  A solve costs two DCTs of length N, two of length M and one
    ``getrs`` of order M, so refinement costs O(n^2) a step, the product
    with A.

    M is ceil(N / 4), or twice the degree d that resolves the right-hand
    side y if that is more: the coarse rule integrates k(t, s) x(s), whose
    degree is about that of the kernel plus that of x, and x is about as
    wide as y.  Past ceil(N / 2) the coarse assembly and LU would take a
    good part of what the float32 path costs, so the path declines there,
    at the cost of one DCT.  "d resolves y" and "resolved" below mean that
    the Chebyshev coefficients from d on, or the trailing
    TWOGRID_TAIL_FRACTION of them, are at most TWOGRID_TAIL times the
    largest.  The path is taken only when the coarse solution
    A_m^{-1} R y is resolved.  A coarse assembly that samples a non-finite
    kernel value, or a coarse zero pivot, declines too.  ``rcond()`` is
    ``gecon``'s estimate for A_m from ||A_m||_1.
    """
    n = len(op)
    coeffs = chebyshev_coefficients(rhs)
    size = np.abs(coeffs)
    wide = np.flatnonzero(size > TWOGRID_TAIL * size.max())
    m = max(-(-n // 4), 2 * (wide[-1] + 1 if wide.size else 0))
    if m > -(-n // 2):
        return None
    try:
        coarse = op.coarse(m - 1)
        coarse_norm = float(abs_sums(coarse)[0].max())
        factors = _lu(coarse)
    except (KernelEvaluationError, np.linalg.LinAlgError):
        return None

    def coarse_solution(c):
        # the Chebyshev coefficients of A_m^{-1} at the coarse values of c
        return chebyshev_coefficients(_lu_solve(factors, chebyshev_values(c, m - 1)))

    def solve(r):
        c = chebyshev_coefficients(r)[:m]
        return r + chebyshev_values(coarse_solution(c) - c, n - 1)

    z = np.abs(coarse_solution(coeffs[:m]))
    if not z[-math.ceil(TWOGRID_TAIL_FRACTION * m) :].max() <= TWOGRID_TAIL * z.max():
        return None
    return solve, lambda: _lu_rcond(factors, coarse_norm)


def float32_solve(op, anorm):
    """(solve, rcond) from a float32 LU of the one panel of ``op``, the
    approximate inverse that ``refined_solve`` refines in float64
    (Langou et al., SC 2006; Carson & Higham, SIAM J. Sci. Comput. 2018).

    ``anorm`` is ||A||_1 in float32, finite, so no entry, which it bounds,
    overflows the cast.  ``hierarchical._lu`` factors a float32 copy of the
    panel's stored block with ``sgetrf``, and the residual reads the stored
    block, so the path makes no N x N float64 copy.  Single-precision LU takes about half the time and half the
    memory of double, and a second-kind system converges in a few steps,
    given rcond well above float32's eps, 6e-8.  Each right-hand side of an
    inner ``sgetrs`` solve is scaled by a power of two near its max-norm
    before its cast, so it neither overflows nor underflows, and the result
    is scaled back exactly.  ``rcond()`` is ``sgecon``'s estimate from the
    float32 factors.  A zero pivot raises ``LinAlgError``.
    """
    lu, piv = _lu(np.array(op.block(0, 0), dtype=np.float32, order="C"), _flapack.sgetrf)

    def solve(b):
        e = np.frexp(np.max(np.abs(b)))[1]
        x, _info = _flapack.sgetrs(lu, piv, np.ldexp(b, -e).astype(np.float32), trans=1)
        return np.ldexp(x.astype(float), e)

    return solve, lambda: _flapack.sgecon(lu, anorm, norm="I")[0]


def semismooth_block(ops: SpectralOperators, lower, upper, scale: float) -> np.ndarray:
    """I + scale * (W o K1 + V o K2), the one-panel semismooth system matrix.

    ``lower(rows)`` and ``upper(rows)`` return the branch samples K1 and
    K2 on the given slice of rows, every column.  With W = a + B and
    V = c - B (``spectral_core``), the sum is formed as
    K1 o a + K2 o c + (K1 - K2) o B, so W and V are never built.  Neither
    is B, nor a whole branch sample: the block is formed ROW_BLOCK_ENTRIES
    entries at a time, each row block asking both samplers for its rows of
    K1 and K2 and computing its rows of B into the block itself
    (``ops.bracket_rows``), so that a row block's rows of K1, K2, B and the
    result stay in cache through every elementwise step.  The steps and
    their order are those of the whole-array formula (B is computed first
    and multiplied by K1 - K2, and a product of two doubles does not depend
    on the order of its factors), so the result is bitwise the same.
    Besides the result it allocates one row block of work space, and holds
    the samples of one row block at a time.  A reflected kernel, whose K2
    is K1^T, is sampled the same way, its upper sampler reading the lower
    branch with the arguments swapped (``kernel_catalog``).

    ``lower`` and ``upper`` may instead be the branches' factors at the
    nodes, pairs (F1, G1) and (F2, G2) of n x r arrays with K1 = F1 G1^T
    and K2 = F2 G2^T (``kernel_catalog.Separable``), and then nothing is
    sampled.  With T + H the Toeplitz plus Hankel part of the bracket
    before its column scale b (``ops.toeplitz_hankel_rows``), so that
    B = (T + H) diag(b), the block is

        I + (T + H) o (P Q^T) + R S^T,

    with P = [F1, -F2], Q = scale [G1, G2] o b, R = [F1, F2] and
    S = scale [G1 o a, G2 o c], the products o b, o a and o c scaling rows
    of G.  Each row block is two thin matrix products, one into the block
    and one into a work array that first holds its rows of T + H, one
    multiply and one add; the factors are O(n r), and the work array is one
    row block.  It agrees with the sampled block to rounding, not bitwise.
    The factors may carry a leading panel axis, m x n x r for m panels of
    the same order, with ``scale`` one per panel: then the m blocks are
    filled together, an m x n x n array, each bitwise its own call.  The
    rows of T + H serve every panel, and R S^T is formed a few panels at a
    time in the one row block of work space.

    Under ``__debug__`` every call checks the row sums of B
    (``ops.check_bracket_row_sums``), on the factored fill as (T + H) b.
    Samples of the wrong shape raise ValueError.
    """
    if isinstance(lower, tuple):
        return _factored_blocks(ops, lower, upper, scale)
    n1 = ops.order + 1
    block = np.empty((n1, n1))
    row_sums = np.zeros(n1) if __debug__ else None
    rows_per_block = max(1, ROW_BLOCK_ENTRIES // n1)
    scratch = np.empty((min(rows_per_block, n1), n1))

    def sampled(sampler, rows):
        k = np.asarray(sampler(rows), dtype=float)
        shape = (rows.stop - rows.start, n1)
        if k.shape != shape:
            raise ValueError(f"shape mismatch {shape} vs {k.shape} in rows {rows.start}:{rows.stop}")
        return k

    for start in range(0, n1, rows_per_block):
        rows = slice(start, min(start + rows_per_block, n1))
        k1, k2 = sampled(lower, rows), sampled(upper, rows)
        # (K1 - K2) o B + K1 o a + K2 o c on the row block: B first, summed
        # by the debug check before it is multiplied in place
        out, work = block[rows], scratch[: rows.stop - rows.start]
        bracket = ops.bracket_rows(rows.start, rows.stop, out=out)
        if __debug__:
            row_sums[rows] = bracket.sum(axis=1)
        out *= np.subtract(k1, k2, out=work)
        out += np.multiply(k1, ops.left_offset, out=work)
        out += np.multiply(k2, ops.right_offset, out=work)
        out *= scale
        # freed before the next row block is sampled, so one row block of
        # samples is alive at a time
        del k1, k2
    if __debug__:
        ops.check_bracket_row_sums(row_sums)
    block.reshape(-1)[:: n1 + 1] += 1.0
    return block


def _factored_blocks(ops, lower, upper, scale):
    """``semismooth_block`` from the factor pairs ``lower`` = (F1, G1) and
    ``upper`` = (F2, G2), of one panel (n x r arrays, one block) or of
    several panels of the same order (m x n x r, with ``scale`` one per
    panel, an m x n x n array of blocks)."""
    (f1, g1), (f2, g2) = lower, upper
    stacked = f1.ndim == 3
    if not stacked:
        f1, g1, f2, g2 = f1[None], g1[None], f2[None], g2[None]
    m, n1 = len(f1), ops.order + 1
    rows_per_block = max(1, ROW_BLOCK_ENTRIES // n1)
    # a row of column scales per panel: scale b, scale a and scale c
    scale = np.reshape(scale, (-1, 1))
    b = ops.bracket_scale
    p, r = np.concatenate((f1, -f2), axis=2), np.concatenate((f1, f2), axis=2)
    qt = np.concatenate((g1, g2), axis=2).transpose(0, 2, 1) * (scale * b)[:, None]
    st = np.concatenate((
        g1.transpose(0, 2, 1) * (scale * ops.left_offset)[:, None],
        g2.transpose(0, 2, 1) * (scale * ops.right_offset)[:, None],
    ), axis=1)
    blocks = np.empty((m, n1, n1))
    # one row block of work space, for a few panels of R S^T at a time; its
    # first panel holds the rows of T + H first, which serve every panel
    rows_in_work = min(rows_per_block, n1)
    step = max(1, ROW_BLOCK_ENTRIES // (rows_in_work * n1))
    work = np.empty((min(step, m), rows_in_work, n1))
    row_sums = np.zeros(n1) if __debug__ else None
    for start in range(0, n1, rows_per_block):
        rows = slice(start, min(start + rows_per_block, n1))
        out, th = blocks[:, rows], work[0, : rows.stop - rows.start]
        np.matmul(p[:, rows], qt, out=out)
        ops.toeplitz_hankel_rows(rows.start, rows.stop, out=th)
        if __debug__:
            row_sums[rows] = th @ b
        out *= th
        for j in range(0, m, step):
            few = slice(j, min(j + step, m))
            out[few] += np.matmul(r[few, rows], st[few], out=work[: few.stop - j, : len(th)])
    if __debug__:
        ops.check_bracket_row_sums(row_sums)
    blocks.reshape(m, -1)[:, :: n1 + 1] += 1.0
    return blocks if stacked else blocks[0]


def _rhs_values(rhs, nodes: np.ndarray) -> np.ndarray:
    """The right-hand side at ``nodes``, from a callable or an array of their
    shape; a wrong shape or a non-finite value raises ValueError."""
    if callable(rhs):
        vals = np.asarray(rhs(nodes), dtype=float)
    else:
        vals = np.asarray(rhs, dtype=float)
    if vals.shape != nodes.shape:
        raise ValueError(f"rhs has shape {vals.shape}, expected {nodes.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("rhs contains non-finite values")
    return vals


def discretize_semismooth(kernel, grid: ChebGrid, lam: float, rhs):
    """Branch-split discretization on one panel: ``assemble_blocks`` on the
    partition of [grid.a, grid.b] into ``grid`` alone, a one-panel
    ``BlockSystem`` whose operator holds the ``semismooth_block`` itself."""
    # composite_solver imports this module, so it is imported at call time
    from .composite_solver import Partition, assemble_blocks

    return assemble_blocks(kernel, Partition(np.array([grid.a, grid.b]), (grid,)), lam, rhs)


def discretize_smooth(kernel, grid: ChebGrid, lam: float, rhs):
    """Plain product-quadrature discretization with the full weight row.

    Returns a one-panel ``BlockSystem`` whose operator holds the assembled
    matrix itself.  ``kernel`` may be a two-branch kernel (sampled with the
    branch selected by the side of the diagonal) or any callable k(t, s).
    """
    # composite_solver imports this module, so it is imported at call time
    from .composite_solver import BlockSystem, Partition

    ops = build_operators(grid.order)
    t = grid.nodes
    k_vals = as_semismooth(kernel).eval(t[:, None], t[None, :])
    scale = lam * grid.width / 2.0
    matrix = np.eye(grid.order + 1) + scale * k_vals * ops.full_weights[None, :]
    partition = Partition(np.array([grid.a, grid.b]), (grid,))
    return BlockSystem(DenseBlocks(matrix, partition.offsets), _rhs_values(rhs, t), partition)


@dataclass(frozen=True)
class ChebSolution:
    """Piecewise-Chebyshev solution: node values plus coefficients per panel."""

    grids: tuple
    values: tuple
    coeffs: tuple
    rcond: float
    cond_warning: bool

    @property
    def breakpoints(self) -> np.ndarray:
        return np.concatenate(
            [[self.grids[0].a], [g.b for g in self.grids]]
        )

    @property
    def nodes(self) -> np.ndarray:
        return np.concatenate([g.nodes for g in self.grids])

    @property
    def node_values(self) -> np.ndarray:
        return np.concatenate(self.values)

    def evaluate(self, t) -> np.ndarray:
        """Evaluate the interpolant; t must lie in the solved interval."""
        t_arr = np.atleast_1d(np.asarray(t, dtype=float))
        bps = self.breakpoints
        a, b = bps[0], bps[-1]
        slack = 1e-12 * (1.0 + abs(a) + abs(b))
        if np.any(t_arr < a - slack) or np.any(t_arr > b + slack):
            raise ValueError(f"evaluation point outside [{a}, {b}]")
        t_arr = np.clip(t_arr, a, b)
        idx = np.searchsorted(bps[1:-1], t_arr, side="left")
        out = np.empty_like(t_arr)
        for p in range(len(self.grids)):
            mask = idx == p
            if not np.any(mask):
                continue
            g = self.grids[p]
            out[mask] = chebyshev_eval(self.coeffs[p], g.to_reference(t_arr[mask]))
        return out if np.ndim(t) else out[0]


def solve_system(grids, matrix, rhs) -> ChebSolution:
    """Solve ``matrix`` x = ``rhs`` with ``dense_solve`` and return the
    solution on ``grids``: x is split at the panel offsets, and each panel's
    node values give its Chebyshev coefficients."""
    x, rcond, warn = dense_solve(matrix, rhs)
    bounds = list(accumulate((g.order + 1 for g in grids), initial=0))
    values = tuple(x[lo:hi] for lo, hi in zip(bounds, bounds[1:]))
    coeffs = tuple(build_operators(g.order).coefficients(v) for g, v in zip(grids, values))
    return ChebSolution(grids=tuple(grids), values=values, coeffs=coeffs, rcond=rcond, cond_warning=warn)


def solve_fredholm(
    kernel, a: float, b: float, lam: float, rhs, order: int, smooth: bool = False
) -> ChebSolution:
    """One-call path: the composite solve on [a, b] as one panel.

    The system is discretized branch-split (``discretize_semismooth``, the
    default) or with the full weight row (``discretize_smooth``) and solved
    by ``solve_composite``.  Kernel singular points are not made
    breakpoints; ``solve_partitioned`` does that.
    """
    # composite_solver imports this module, so it is imported at call time
    from .composite_solver import solve_composite

    disc = discretize_smooth if smooth else discretize_semismooth
    return solve_composite(disc(kernel, cheb_grid(order, a, b), lam, rhs))


def relative_sup_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """max|approx - exact| / max|exact|; absolute if exact is all zero."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    denom = np.max(np.abs(exact))
    num = np.max(np.abs(approx - exact))
    return float(num) if denom == 0.0 else float(num / denom)
