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
(``block_operator``) in one of two storages:

* a difference kernel stated by factor pairs (``SemismoothKernel.factors``)
  on several panels of equal width and order is ``FactoredBlocks``: the m
  diagonal blocks, filled at their own panels' nodes in one call, and the
  branch factors at all N nodes, which state every block off the diagonal;
* otherwise every block is distinct, and the storage is ``DenseBlocks``:
  the N x N array the blocks are written into, or a one-panel system's one
  block.

Every entry of either storage is that of its block at its own nodes.  A
difference kernel given as plain callables is written into the N x N
array: copies of one block along its diagonal would hold block (j, i) at
the nodes of panels j - i and 0, which are those of panels j and i shifted
only up to rounding (ulp(628) = 1.1e-13 at T = 200 pi), and on example2 at
T = 200 pi, 8 panels of order 127, such copies solve to 1.6e-11 where the
blocks at their own nodes solve to 2.1e-13.  That array grows as N^2, so a
long-interval difference kernel is best stated by factor pairs.

Because the kernel is smooth away from s = t, every block that couples two
disjoint groups of panels is numerically low-rank.  ``solve_composite``
passes the operator to ``dense_solve`` (through ``solve_system``), whose
hierarchical path factors a large system from its blocks and forms no N x N
array; ``dense_solve`` says which path runs when.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .block_operator import BlockOperator, DenseBlocks, FactoredBlocks
from .fredholm_solver import ChebSolution, _rhs_values, semismooth_block, solve_system
from .kernel_catalog import as_semismooth
from .spectral_core import build_operators, cheb_grid

__all__ = [
    "Partition",
    "BlockOperator",
    "BlockSystem",
    "build_partition",
    "assemble_blocks",
    "solve_composite",
    "solve_partitioned",
]


@dataclass(frozen=True)
class Partition:
    breakpoints: np.ndarray  # m+1 ascending edges, including both endpoints
    grids: tuple  # m ChebGrid panels

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


@dataclass(frozen=True)
class BlockSystem:
    matrix: BlockOperator
    rhs: np.ndarray
    partition: Partition


def assemble_blocks(kernel, partition: Partition, lam: float, rhs) -> BlockSystem:
    """Build the system as a BlockOperator of panel blocks, plus the right-hand side.

    ``kernel`` is a two-branch kernel or a plain callable k(t, s), taken as
    equal branches.  A diagonal block is ``semismooth_block``: when both
    branches are stated by factor pairs (``SemismoothKernel.factors``), it
    is filled from the factors at the panel's nodes and nothing is sampled;
    otherwise it samples both branches one row block at a time, a reflected
    kernel's upper branch being its lower one with the arguments swapped.
    Block (j, i) off the diagonal is (lam w_i / 2) K diag(full_weights_i),
    with w_i the width of source panel i and K the lower branch for i < j,
    the upper for i > j.  One ``kernel.eval_mirrored`` call samples a run
    of blocks below the diagonal and their mirrors above it (the mirror of
    a reflected kernel is the transpose of its lower sample, so off the
    diagonal its upper branch is never called), and the factor and the
    weights apply per column, in the order (factor * sample) * weights.
    Every block is written into the N x N array that the operator wraps,
    panel j taking one call for the row strip left of its diagonal block
    and, mirrored, the column strip above it; a one-panel system's operator
    wraps its one block, and carries the rule at any order, for a coarse
    solve.

    A kernel with factor pairs and ``difference_form``, on several panels
    of equal width and order, is stored as ``FactoredBlocks`` instead, and
    nothing is sampled: the factors are evaluated once at all N nodes,
    every diagonal block is filled from them at its own panel's nodes by
    one ``semismooth_block`` call over all panels, and the blocks off the
    diagonal are the factors with the column factor and weights above,
    entries that are bitwise those the same kernel samples with
    ``difference_form=False``.
    """
    kernel = as_semismooth(kernel)
    grids = partition.grids
    offsets = partition.offsets
    total = offsets[-1]
    operators = functools.cache(build_operators)

    def diagonal(g):
        t = g.nodes
        ops, scale = operators(g.order), lam * g.width / 2.0
        factors = kernel.factors(t)
        if factors is not None:
            f1, g1, f2, g2 = factors
            return semismooth_block(ops, (f1, g1), (f2, g2), scale)

        def lower(rows):
            return kernel.eval_lower(t[rows, None], t[None, :])

        def upper(rows):
            return kernel.eval_upper(t[rows, None], t[None, :])

        return semismooth_block(ops, lower, upper, scale)

    def per_column():
        """lam w_i / 2 and full_weights_i per column of each source panel i."""
        scale = np.repeat([lam * g.width / 2.0 for g in grids], np.diff(offsets))
        return scale, np.concatenate([operators(g.order).full_weights for g in grids])

    m = len(grids)
    nodes = np.concatenate([g.nodes for g in grids])
    widths = np.array([g.width for g in grids])
    factored = (
        m > 1 and kernel.difference_form and len(set(partition.orders)) == 1
        and np.allclose(widths, widths[0], rtol=1e-12, atol=0.0)
    )
    factors = kernel.factors(nodes) if factored else None
    if factors is not None:
        # every diagonal block filled at its own panel's nodes, in one call
        n1 = offsets[1]
        f1, g1, f2, g2 = (f.reshape(m, n1, -1) for f in factors)
        scale = np.array([lam * g.width / 2.0 for g in grids])
        diagonal = semismooth_block(operators(grids[0].order), (f1, g1), (f2, g2), scale)
        matrix = FactoredBlocks(offsets, diagonal, factors[:2], factors[2:], *per_column())
    elif m == 1:
        # the block itself is the storage: no N x N copy of it
        g0 = grids[0]
        matrix = DenseBlocks(diagonal(g0), offsets, lambda order: diagonal(cheb_grid(order, g0.a, g0.b)))
    else:
        col_scale, weights = per_column()
        dense = np.empty((total, total))
        for j, g in enumerate(grids):
            lo, hi = offsets[j], offsets[j + 1]
            dense[lo:hi, lo:hi] = diagonal(g)
            if lo > 0:
                # the row strip left of the diagonal block, and the column
                # strip above it
                left, above = kernel.eval_mirrored(g.nodes[:, None], nodes[None, :lo])
                dense[lo:hi, :lo] = col_scale[:lo] * left * weights[:lo]
                dense[:lo, lo:hi] = col_scale[lo:hi] * above * weights[lo:hi]
        matrix = DenseBlocks(dense, offsets)
    rhs_vec = _rhs_values(rhs, nodes)
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
