"""Composite rule: the semismooth discretization on a partition of [a, b].

Each panel keeps its own Chebyshev grid.  Diagonal blocks are the one-panel
semismooth matrices; an off-diagonal block couples target nodes in panel j to
source nodes in panel i, where the whole source panel lies on one side of
every target node, so only one kernel branch and the plain full-interval
weights of the source panel are involved.  Forcing interior kernel
singularities onto panel boundaries keeps every sampled point regular, since
Chebyshev nodes of the first kind never touch panel endpoints.

Because the kernel is smooth away from s = t, every block that couples two
disjoint groups of panels is numerically low-rank.  ``solve_composite``
passes the panel offsets to ``dense_solve``, which from
``hierarchical.CROSSOVER_N`` unknowns on factors the system hierarchically:
bisection at panel boundaries, randomized compression of the off-diagonal
blocks, Sherman-Morrison-Woodbury solves, refinement against the exact
matrix, and dense LU as the fallback whenever that answer does not reach
working accuracy (see ``dense_solve``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fredholm_solver import ChebSolution, dense_solve, semismooth_block
from .spectral_core import ChebGrid, build_operators, cheb_grid

__all__ = [
    "Partition",
    "BlockSystem",
    "build_partition",
    "detect_toeplitz",
    "assemble_blocks",
    "solve_composite",
    "solve_partitioned",
]


@dataclass(frozen=True)
class Partition:
    breakpoints: np.ndarray  # m+1 ascending edges, including both endpoints
    grids: tuple  # m ChebGrid panels

    @property
    def a(self) -> float:
        return float(self.breakpoints[0])

    @property
    def b(self) -> float:
        return float(self.breakpoints[-1])

    @property
    def panels(self) -> int:
        return len(self.grids)

    @property
    def orders(self) -> tuple:
        return tuple(g.order for g in self.grids)

    @property
    def offsets(self) -> np.ndarray:
        """Start index of each panel's rows in the global system, plus the total."""
        sizes = [g.order + 1 for g in self.grids]
        return np.concatenate([[0], np.cumsum(sizes)])


def build_partition(
    a: float,
    b: float,
    breakpoints=(),
    orders=16,
    singular_points=(),
) -> Partition:
    """Split [a, b] at the given interior breakpoints plus any singular points.

    ``orders`` is one int for all panels or a per-panel sequence; a short
    sequence is padded by repeating its last entry, a long one is an error.
    Singular points outside the open interval are ignored (nodes never touch
    endpoints, so a singularity there needs no isolation).
    """
    a, b = float(a), float(b)
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    bps = [float(c) for c in breakpoints]
    if any(y <= x for x, y in zip(bps, bps[1:])):
        raise ValueError("breakpoints must be strictly increasing")
    if any(not a < c < b for c in bps):
        raise ValueError(f"breakpoints must lie inside ({a}, {b})")
    tol = 1e-12 * (b - a)
    for c in singular_points:
        c = float(c)
        if not a + tol < c < b - tol:
            continue
        if all(abs(c - x) > tol for x in bps):
            bps.append(c)
    bps.sort()
    edges = np.array([a] + bps + [b])
    m = len(edges) - 1
    if np.isscalar(orders):
        per_panel = [int(orders)] * m
    else:
        per_panel = [int(n) for n in orders]
        if len(per_panel) > m:
            raise ValueError(f"{len(per_panel)} orders given for {m} panels")
        if not per_panel:
            raise ValueError("orders sequence is empty")
        per_panel += [per_panel[-1]] * (m - len(per_panel))
    grids = tuple(
        cheb_grid(n, edges[i], edges[i + 1]) for i, n in enumerate(per_panel)
    )
    return Partition(breakpoints=edges, grids=grids)


def detect_toeplitz(kernel, partition: Partition) -> bool:
    """True when blocks repeat along diagonals: difference-form kernel,
    equal panel widths, equal panel orders."""
    if not getattr(kernel, "difference_form", False):
        return False
    widths = np.array([g.width for g in partition.grids])
    if not np.allclose(widths, widths[0], rtol=1e-12, atol=0.0):
        return False
    return len(set(partition.orders)) == 1


@dataclass(frozen=True)
class BlockSystem:
    matrix: np.ndarray
    rhs: np.ndarray
    partition: Partition
    lam: float
    toeplitz: bool


def assemble_blocks(kernel, partition: Partition, lam: float, rhs) -> BlockSystem:
    """Build the global block matrix and right-hand side.

    When the block structure is Toeplitz, each distinct block (indexed by the
    panel offset j - i) is sampled once and reused along its diagonal.
    """
    grids = partition.grids
    offsets = partition.offsets
    total = offsets[-1]
    matrix = np.zeros((total, total))
    ops_cache = {}
    for g in grids:
        if g.order not in ops_cache:
            ops_cache[g.order] = build_operators(g.order)
    toeplitz = detect_toeplitz(kernel, partition)
    block_cache = {}
    for j, gj in enumerate(grids):
        rows = slice(offsets[j], offsets[j + 1])
        for i, gi in enumerate(grids):
            cols = slice(offsets[i], offsets[i + 1])
            key = j - i
            if toeplitz and key in block_cache:
                matrix[rows, cols] = block_cache[key]
                continue
            ops_i = ops_cache[gi.order]
            if i == j:
                k1 = kernel.eval_lower(gj.nodes[:, None], gj.nodes[None, :])
                k2 = kernel.eval_upper(gj.nodes[:, None], gj.nodes[None, :])
                block = semismooth_block(ops_i, k1, k2, lam * gj.width / 2.0)
            else:
                tt = gj.nodes[:, None]
                ss = gi.nodes[None, :]
                kv = kernel.eval_lower(tt, ss) if i < j else kernel.eval_upper(tt, ss)
                block = (lam * gi.width / 2.0) * kv * ops_i.full_weights[None, :]
            matrix[rows, cols] = block
            if toeplitz:
                block_cache[key] = block
    if callable(rhs):
        rhs_vec = np.concatenate([np.asarray(rhs(g.nodes), dtype=float) for g in grids])
    else:
        rhs_vec = np.asarray(rhs, dtype=float)
    if rhs_vec.shape != (total,):
        raise ValueError(f"rhs has shape {rhs_vec.shape}, expected ({total},)")
    if not np.all(np.isfinite(rhs_vec)):
        raise ValueError("rhs contains non-finite values")
    return BlockSystem(matrix, rhs_vec, partition, lam, toeplitz)


def solve_composite(system: BlockSystem) -> ChebSolution:
    offsets = system.partition.offsets
    vals, rcond, warn = dense_solve(system.matrix, system.rhs, blocks=offsets)
    grids = system.partition.grids
    values = tuple(vals[offsets[p] : offsets[p + 1]] for p in range(len(grids)))
    coeffs = tuple(
        build_operators(g.order).coefficients(v) for g, v in zip(grids, values)
    )
    return ChebSolution(
        grids=grids, values=values, coeffs=coeffs, rcond=rcond, cond_warning=warn
    )


def solve_partitioned(
    kernel,
    a: float,
    b: float,
    lam: float,
    rhs,
    breakpoints=(),
    orders=16,
) -> ChebSolution:
    """One-call composite path; kernel singular points become breakpoints."""
    partition = build_partition(
        a,
        b,
        breakpoints=breakpoints,
        orders=orders,
        singular_points=getattr(kernel, "singular_points", ()),
    )
    return solve_composite(assemble_blocks(kernel, partition, lam, rhs))
