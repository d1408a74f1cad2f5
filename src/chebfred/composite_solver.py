"""Composite rule: the semismooth discretization on a partition of [a, b].

This is the package's one discretization path: a single-panel solve
(``fredholm_solver.solve_fredholm``) is the partition into one panel.  Each
panel keeps its own Chebyshev grid.  Diagonal blocks are the one-panel
semismooth matrices; an off-diagonal block couples target nodes in panel j to
source nodes in panel i, where the whole source panel lies on one side of
every target node, so only one kernel branch and the plain full-interval
weights of the source panel are involved.  Forcing interior kernel
singularities onto panel boundaries keeps every sampled point regular, since
Chebyshev nodes of the first kind never touch panel endpoints.

``assemble_blocks`` returns the system matrix as a ``BlockOperator``
(``block_operator``).  When ``detect_toeplitz`` holds (one panel, or a
difference kernel on panels of equal width and order), block (j, i) depends
on j - i only, so the operator keeps the 2m - 1 distinct blocks, each
sampled once, and no N x N array is formed.  Otherwise every block is
distinct, and the N x N array they are written into is the operator's
storage.

Because the kernel is smooth away from s = t, every block that couples two
disjoint groups of panels is numerically low-rank.  ``solve_composite``
passes the operator to ``dense_solve`` (through ``solve_system``), which from
``hierarchical.CROSSOVER_N`` unknowns on factors the system hierarchically
from its blocks: bisection at panel boundaries, randomized compression of
the off-diagonal blocks through blockwise products, one compression and
factorization per distinct subtree under Toeplitz structure,
Sherman-Morrison-Woodbury solves, and refinement against the exact operator.
Under Toeplitz structure the N x N array is formed only for dense LU: for
one panel, below the crossover, and as the fallback whenever the
hierarchical answer does not reach working accuracy (see ``dense_solve``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .block_operator import BlockOperator, DenseBlocks, ToeplitzBlocks
from .fredholm_solver import ChebSolution, _rhs_values, semismooth_block, solve_system
from .kernel_catalog import as_semismooth
from .spectral_core import build_operators, cheb_grid

__all__ = [
    "Partition",
    "BlockOperator",
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
    """True when blocks repeat along diagonals: one panel, whose single block
    depends on j - i trivially, or a difference-form kernel on panels of
    equal width and order."""
    if partition.panels == 1:
        return True
    if not getattr(kernel, "difference_form", False):
        return False
    widths = np.array([g.width for g in partition.grids])
    if not np.allclose(widths, widths[0], rtol=1e-12, atol=0.0):
        return False
    return len(set(partition.orders)) == 1


@dataclass(frozen=True)
class BlockSystem:
    matrix: BlockOperator
    rhs: np.ndarray
    partition: Partition


def assemble_blocks(kernel, partition: Partition, lam: float, rhs) -> BlockSystem:
    """Build the system as a BlockOperator of panel blocks, plus the right-hand side.

    ``kernel`` is a two-branch kernel or a plain callable k(t, s), taken as
    equal branches.  When the block structure is Toeplitz, each distinct
    block (indexed by the panel offset j - i) is sampled once, from the first
    (j, i) on its diagonal, which the operator reuses along that diagonal,
    and no N x N array is formed; a one-panel system is its one block.
    Otherwise every block (j, i) is sampled and written into the N x N array
    that the operator wraps.
    """
    kernel = as_semismooth(kernel)
    grids = partition.grids
    offsets = partition.offsets
    total = offsets[-1]
    ops_cache = {}
    for g in grids:
        if g.order not in ops_cache:
            ops_cache[g.order] = build_operators(g.order)

    def block(j, i):
        gj, gi = grids[j], grids[i]
        ops_i = ops_cache[gi.order]
        if i == j:
            k1 = kernel.eval_lower(gj.nodes[:, None], gj.nodes[None, :])
            k2 = kernel.eval_upper(gj.nodes[:, None], gj.nodes[None, :])
            return semismooth_block(ops_i, k1, k2, lam * gj.width / 2.0)
        tt = gj.nodes[:, None]
        ss = gi.nodes[None, :]
        kv = kernel.eval_lower(tt, ss) if i < j else kernel.eval_upper(tt, ss)
        return (lam * gi.width / 2.0) * kv * ops_i.full_weights[None, :]

    m = len(grids)
    if detect_toeplitz(kernel, partition):
        # diagonal d is sampled at its first (j, i) in row-major order
        diagonals = {d: block(d, 0) if d >= 0 else block(0, -d) for d in range(1 - m, m)}
        matrix = ToeplitzBlocks(offsets, diagonals)
    else:
        dense = np.empty((total, total))
        for j in range(m):
            for i in range(m):
                dense[offsets[j] : offsets[j + 1], offsets[i] : offsets[i + 1]] = block(j, i)
        matrix = DenseBlocks(dense, offsets)
    rhs_vec = _rhs_values(rhs, np.concatenate([g.nodes for g in grids]))
    return BlockSystem(matrix, rhs_vec, partition)


def solve_composite(system: BlockSystem) -> ChebSolution:
    return solve_system(system.partition.grids, system.matrix, system.rhs)


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
