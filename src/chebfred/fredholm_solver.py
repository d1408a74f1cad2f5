"""Nystrom-style discretization and solve for second-kind integral equations.

Both discretizations collocate x(t) + lam * int_a^b k(t,s) x(s) ds = y(t) at
the Chebyshev nodes of a single panel.  ``discretize_smooth`` treats the
kernel as one smooth function and needs only the full-interval weight row;
``discretize_semismooth`` keeps the two branches separate and pairs each with
the one-sided integration matrix that is exact for polynomial integrands up
to the discretization degree, which is what preserves spectral accuracy when
the kernel has a kink or jump on the diagonal.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy import linalg

from .block_operator import BlockOperator, abs_sums, as_block_operator
from .hierarchical import hierarchical_solve
from .spectral_core import ChebGrid, SpectralOperators, build_operators, cheb_grid, chebyshev_eval

__all__ = [
    "SingularMatrixError",
    "DiscreteSystem",
    "ChebSolution",
    "dense_solve",
    "schur_product",
    "semismooth_block",
    "discretize_smooth",
    "discretize_semismooth",
    "solve_system",
    "solve_fredholm",
    "relative_sup_error",
]

RCOND_WARN = 1e-12


class SingularMatrixError(np.linalg.LinAlgError):
    """LU factorization hit an exactly zero pivot."""


def dense_solve(matrix, rhs: np.ndarray, blocks=None):
    """Solve A x = y; returns (x, rcond, warning).

    ``rcond`` is the reciprocal condition estimate in the 1-norm and
    ``warning`` is True when it drops below 1e-12.

    ``matrix`` is an array or a ``BlockOperator`` (a composite system cut at
    panel boundaries, each distinct block stored once).  An array with
    ``blocks``, the panel boundaries of a composite system
    (``Partition.offsets``), is wrapped as an operator that shares no blocks.  A plain array is solved by LU with
    partial pivoting and the LAPACK ``gecon`` estimate; ||A||_1 comes from
    one chunked pass over |A|, and only when it is not finite does an exact
    finiteness check decide between ``ValueError`` and an overflowed norm.

    An operator is checked for finite entries once per distinct block.  With
    at least two panels and N at or above ``hierarchical.CROSSOVER_N``, it
    is then factored hierarchically from its blocks, forming no N x N array:
    the matrix is bisected at panel boundaries, each off-diagonal block is
    compressed to low rank by a seeded randomized range finder working
    through blockwise products, and the factorization solves through the
    Sherman-Morrison-Woodbury formula.  Under Toeplitz block structure each
    distinct subtree is compressed and factored once.  That answer is refined
    against the exact operator and kept only when the last correction is
    below eps ||x||, or when refinement stagnates at a normwise backward
    error of a few eps; rcond then comes from the same estimator ``gecon``
    uses (dlacn2), run on hierarchical solves with A and A^T.  A node whose
    ranks make the Woodbury update cost more than a dense LU of the node is
    factored densely.  Every other outcome (N below the crossover, no
    low-rank split, a zero pivot, refinement that does not converge) forms
    the dense array and takes the LU path, which factors it in place, so a
    singular system still raises ``SingularMatrixError``.
    """
    rhs = np.asarray(rhs, dtype=float)
    fresh = False
    if isinstance(matrix, BlockOperator) or blocks is not None:
        op = as_block_operator(matrix, blocks)
        if not (np.isfinite(op.norm1()) or op.is_finite()):
            raise ValueError("system matrix contains non-finite entries")
        solved = hierarchical_solve(op, rhs)
        if solved is not None:
            x, rcond = solved
            return x, rcond, bool(rcond < RCOND_WARN)
        matrix, fresh = op.dense(), True
    else:
        matrix = np.asarray(matrix, dtype=float)
    anorm = abs_sums(matrix)[0].max()
    if not np.isfinite(anorm) and not np.all(np.isfinite(matrix)):
        raise ValueError("system matrix contains non-finite entries")
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", linalg.LinAlgWarning)
        lu, piv = linalg.lu_factor(matrix, overwrite_a=fresh, check_finite=False)
    if np.min(np.abs(np.diag(lu))) == 0.0:
        raise SingularMatrixError("discretized operator is singular to working precision")
    gecon = linalg.get_lapack_funcs("gecon", (lu,))
    rcond, _info = gecon(lu, anorm)
    x = linalg.lu_solve((lu, piv), rhs, check_finite=False)
    return x, float(rcond), bool(rcond < RCOND_WARN)


def schur_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Entrywise product, with a shape check that fails loudly."""
    a = np.asarray(a)
    b = np.asarray(b)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch {a.shape} vs {b.shape}")
    return a * b


def semismooth_block(
    ops: SpectralOperators, k1_vals: np.ndarray, k2_vals: np.ndarray, scale: float
) -> np.ndarray:
    """I + scale * (W o K1 + V o K2), the one-panel semismooth system matrix.

    With W = a + B and V = c - B (``spectral_core``), the sum is formed as
    K1 o a + K2 o c + (K1 - K2) o B, so W and V are never built: besides
    the operators' cached bracket B it allocates the result and one scratch
    array.  Branch samples of the wrong shape raise ValueError.
    """
    n1 = ops.order + 1
    k1 = np.asarray(k1_vals, dtype=float)
    k2 = np.asarray(k2_vals, dtype=float)
    for k in (k1, k2):
        if k.shape != (n1, n1):
            raise ValueError(f"shape mismatch {(n1, n1)} vs {k.shape}")
    block = np.subtract(k1, k2)
    block *= ops.bracket
    scratch = np.multiply(k1, ops.left_offset)
    block += scratch
    block += np.multiply(k2, ops.right_offset, out=scratch)
    block *= scale
    block.reshape(-1)[:: n1 + 1] += 1.0
    return block


@dataclass(frozen=True)
class DiscreteSystem:
    matrix: np.ndarray
    rhs: np.ndarray
    grid: ChebGrid
    ops: SpectralOperators
    lam: float
    kind: str  # "smooth" or "semismooth"


def _rhs_values(rhs, nodes: np.ndarray) -> np.ndarray:
    if callable(rhs):
        vals = np.asarray(rhs(nodes), dtype=float)
    else:
        vals = np.asarray(rhs, dtype=float)
    if vals.shape != nodes.shape:
        raise ValueError(f"rhs has shape {vals.shape}, expected {nodes.shape}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("rhs contains non-finite values")
    return vals


def discretize_smooth(kernel, grid: ChebGrid, lam: float, rhs) -> DiscreteSystem:
    """Plain product-quadrature discretization with the full weight row.

    ``kernel`` may be a two-branch kernel (sampled with the branch selected by
    the side of the diagonal) or any callable k(t, s).
    """
    ops = build_operators(grid.order)
    t = grid.nodes
    if hasattr(kernel, "eval"):
        k_vals = kernel.eval(t[:, None], t[None, :])
    else:
        k_vals = np.asarray(kernel(t[:, None], t[None, :]), dtype=float)
    scale = lam * grid.width / 2.0
    matrix = np.eye(grid.order + 1) + scale * k_vals * ops.full_weights[None, :]
    return DiscreteSystem(matrix, _rhs_values(rhs, t), grid, ops, lam, "smooth")


def discretize_semismooth(kernel, grid: ChebGrid, lam: float, rhs) -> DiscreteSystem:
    """Branch-split discretization: each branch gets its one-sided matrix."""
    ops = build_operators(grid.order)
    t = grid.nodes
    if hasattr(kernel, "eval_lower"):
        k1_vals = kernel.eval_lower(t[:, None], t[None, :])
        k2_vals = kernel.eval_upper(t[:, None], t[None, :])
    else:
        k1_vals = np.asarray(kernel(t[:, None], t[None, :]), dtype=float)
        k2_vals = k1_vals
    scale = lam * grid.width / 2.0
    matrix = semismooth_block(ops, k1_vals, k2_vals, scale)
    return DiscreteSystem(matrix, _rhs_values(rhs, t), grid, ops, lam, "semismooth")


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


def solve_system(system: DiscreteSystem) -> ChebSolution:
    vals, rcond, warn = dense_solve(system.matrix, system.rhs)
    coeffs = system.ops.coefficients(vals)
    return ChebSolution(
        grids=(system.grid,),
        values=(vals,),
        coeffs=(coeffs,),
        rcond=rcond,
        cond_warning=warn,
    )


def solve_fredholm(
    kernel, a: float, b: float, lam: float, rhs, order: int, smooth: bool = False
) -> ChebSolution:
    """One-call path: grid, discretize (semismooth by default), dense solve."""
    grid = cheb_grid(order, a, b)
    disc = discretize_smooth if smooth else discretize_semismooth
    return solve_system(disc(kernel, grid, lam, rhs))


def relative_sup_error(approx: np.ndarray, exact: np.ndarray) -> float:
    """max|approx - exact| / max|exact|; absolute if exact is all zero."""
    approx = np.asarray(approx, dtype=float)
    exact = np.asarray(exact, dtype=float)
    denom = np.max(np.abs(exact))
    num = np.max(np.abs(approx - exact))
    return float(num) if denom == 0.0 else float(num / denom)
