"""Radial Schrodinger equation with a nonlocal potential, in integral form.

The scattering problem on [0, T] with a nonlocal potential v(p, r') is
recast as a second-kind integral equation for the wave function psi.  The
equation's kernel involves integrals of the potential against sin/cos
factors; those integrals are themselves computed with the one-sided spectral
matrices, so a potential with a kink across p = r' is handled branch by
branch end to end.  The assembled system is

    [I + (T/2k) D_c (W o K11 + V o K12) + (T/2k) D_s (W o K21 + V o K22)] psi = rhs

with D_c = diag(cos(k t_i)), D_s = diag(sin(k t_i)) and K11..K22 the
matrices of ``build_kernel_matrices``.  Since D (W o K) = W o (D K), it is
the semismooth block I + (T/2k) (W o K1 + V o K2) of the spliced branches
K1 = D_c K11 + D_s K21 and K2 = D_c K12 + D_s K22.  The default right-hand
side is the free solution sin(k t); tests with a manufactured solution
override it.  ``assemble`` returns it as a one-panel ``BlockSystem``
(``SchrodingerSystem``), solved by ``solve_composite`` as any one-panel
Fredholm system.  From ``fredholm_solver.TWOGRID_CROSSOVER_N`` nodes on,
its operator carries the same potential's rule at lower orders when a
quarter of the nodes resolve the kernel's branch rows, so the two-grid
iteration (``fredholm_solver.twogrid_solve``) may solve it; otherwise the
system declines the two-grid at assembly (``_rows_resolved``).

Assembly through one shared operator
------------------------------------
Row scaling commutes with the matrix products inside K11..K22, so the two
spliced branches share one integration operator M.  With cos and sin the
vectors cos(k t) and sin(k t), V1 and V2 the lower and upper potential
samples and Delta = V1 - V2,

    M  = D_c W D_s + D_s V D_c
    K1 = (T/2) [M V2 + cos d^T]
    K2 = (T/2) [M V1 + sin e^T]

where d_i = sum_l W[i, l] sin_l Delta[l, i] and
e_i = -sum_l V[i, l] cos_l Delta[l, i] are the splice diagonals.  With
W = a + B and V = c - B (``spectral_core``), M is built entrywise from the
vectors a, c and the bracket B,

    M = B o (cos sin^T - sin cos^T) + cos (sin o a)^T + sin (cos o c)^T,

and d and e read B, a and c against Delta^T.  For a potential past the
rank cap below, ``assemble`` forms K1 and K2 so, whole, by the two n-by-n
products M V2 and M V1, which cost 4n^3 flops (``_spliced_branches``).  It
forms neither W nor V on either path.
``build_kernel_matrices`` is kept as the K11..K22 reference that tests
check the splice against.

Low-rank potentials
-------------------
The sampled potentials are numerically low-rank: the Perey-Buck potential
has rank 5 and the separable one rank 1 at every order from 8 to 512.
At every order, ``assemble`` factors V1 = X1 Y1^T, with
n-by-r factors, by cross approximation, and accepts the factors only when
every entry of V1 - X1 Y1^T is within (n + 1) eps max|V1|
(``_cross_factors``).  A reflected potential has V2 = V1^T = Y1 X1^T.  One
with an explicit upper branch factors V2^T the same way, so an unreflected
copy of a reflected potential gets bitwise the reflected factors.  With
V2 = X2 Y2^T, row scaling again commutes with the products:

    (T/2) M X = (T/2) [cos o W (sin o X) + sin o V (cos o X)],
    (T/2) d   =  (T/2) [(Y1 o W (sin o X1)) 1 - (Y2 o W (sin o X2)) 1],
    (T/2) e   = -(T/2) [(Y1 o V (cos o X1)) 1 - (Y2 o V (cos o X2)) 1],

where u o X scales row l of X by u_l and 1 sums over the r columns.  With
W = a + B and V = c - B, all of them read one product of B with the
2 (r1 + r2) columns Z = [sin o X1, sin o X2, cos o X1, cos o X2], formed a
row block of B at a time, and the O(n r) offset rows a^T Z and c^T Z.  Then

    K1 = [(T/2) M X2, cos] [Y2, (T/2) d]^T,
    K2 = [(T/2) M X1, sin] [Y1, (T/2) e]^T

are products of n-by-(r + 1) factors.  The samplers that
``semismooth_block`` reads answer each request by one product of the
factors' rows and columns asked for, so K1 and K2 are formed a row block at
a time as the block is.  A BLAS product rounds an entry by the request it
lies in, so an entry asked for among other rows may differ in its last
bits.  The work is O(n^2 r), and no n-by-n array remains but the sample and
the block.  A potential whose rank exceeds LOWRANK_MAX_RANK is given up on,
and the dense products answer (``_spliced_branches``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import fredholm_solver
from .block_operator import DenseBlocks
from .composite_solver import BlockSystem, Partition, solve_composite
from .fredholm_solver import (
    ROW_BLOCK_ENTRIES, ChebSolution, _rhs_values, relative_sup_error, semismooth_block
)
from .kernel_catalog import NonlocalPotential, SchrodingerProblem
from .spectral_core import ChebGrid, SpectralOperators, build_operators, cheb_grid, chebyshev_coefficients

__all__ = [
    "NonlocalPotential",
    "SchrodingerProblem",
    "SchrodingerSystem",
    "build_kernel_matrices",
    "assemble",
    "solve_schrodinger",
    "self_convergence",
]

# Rank past which ``assemble`` gives up on the factored path and forms K1 and
# K2 by the dense products; the rank alone picks the path, at every order.
# From the path sweep of scripts/bench_schrodinger_assembly.py: rank 11 wins
# from n = 160 up and rank 16 from n = 192 up; rank 17 loses up to n = 256.
# Below n = 128 the dense products are faster for every rank from 11, by up
# to about 0.3 ms an assembly.  Giving up costs the factorisation to the cap.
LOWRANK_MAX_RANK = 16
_EPS = np.finfo(float).eps


def build_kernel_matrices(potential: NonlocalPotential, grid: ChebGrid, ops: SpectralOperators):
    """Sample the potential and spectrally integrate it into K11, K12, K21, K22.

    V1[l, j] = v_lower(t_l, t_j) and V2[l, j] = v_upper(t_l, t_j): the row
    index is the integration variable.  Row i of W integrates over [0, t_i],
    row i of V over [t_i, T], so for instance K12[i, j] approximates
    int_0^{t_i} sin(k p) v_lower(p, t_j) dp up to the (T/2) interval scaling.
    The d and e columns splice the two branches of the inner integral where it
    crosses the diagonal; exactness of the splice shows up as continuity of
    K11 vs K12 (and K21 vs K22) along the diagonal.  W = a + B and V = c - B
    are formed in full here; no solve calls this.
    """
    t = grid.nodes
    v1 = potential.eval_lower(t[:, None], t[None, :])
    v2 = potential.eval_upper(t[:, None], t[None, :])
    kappa = potential.kappa
    half_t = grid.width / 2.0
    bracket = ops.bracket_rows(0, ops.order + 1)
    w_sin = (ops.left_offset + bracket) * np.sin(kappa * t)[None, :]  # W D_s
    v_cos = (ops.right_offset - bracket) * np.cos(kappa * t)[None, :]  # V D_c
    # only the diagonals of W D_s (V1 - V2) and V D_c (V2 - V1) are needed
    d = np.einsum("ij,ji->i", w_sin, v1 - v2)
    e = np.einsum("ij,ji->i", v_cos, v2 - v1)
    k11 = half_t * (d[None, :] + w_sin @ v2)
    k12 = half_t * (w_sin @ v1)
    k21 = half_t * (v_cos @ v2)
    k22 = half_t * (v_cos @ v1 + e[None, :])
    return k11, k12, k21, k22


@dataclass(frozen=True)
class SchrodingerSystem(BlockSystem):
    """The assembled system, a one-panel ``BlockSystem``: ``matrix`` holds
    the semismooth block of the spliced branches, and from
    ``fredholm_solver.TWOGRID_CROSSOVER_N`` nodes on carries the same
    potential's rule at any lower order as ``matrix.coarse``, or None when
    a quarter of the nodes do not resolve its branch rows."""

    @property
    def grid(self) -> ChebGrid:
        return self.partition.grids[0]


def _spliced_branches(ops: SpectralOperators, v1, v2, half_t, sin_t, cos_t):
    """K1 and K2 through the shared operator M (module docstring), from the
    whole branch samples V1 and V2.

    Besides the bracket, the two branch samples and the two results, this
    allocates M and one scratch array.  The T/2 factor is folded into the
    row vectors hc and hs.  A reflected potential's V2 is a C-order copy of
    V1^T: the BLAS product with the transposed view itself rounds
    differently below about n = 128.
    """
    a, c, bracket = ops.left_offset, ops.right_offset, ops.bracket_rows(0, ops.order + 1)
    hc = half_t * cos_t
    hs = half_t * sin_t
    # (T/2) d and (T/2) e: with W = a + B, d_i = (Delta^T (a o sin))_i
    # + ((B o Delta^T) sin)_i, and likewise e with V = c - B.  Delta^T is the
    # transpose of a C-order Delta whatever the layout of V2, since the
    # layout decides how the products below round
    work = np.subtract(v1, v2).T
    splice = work @ np.column_stack((a * hs, -(c * hc)))
    work *= bracket
    splice += work @ np.column_stack((hs, hc))
    # (T/2) M = B o (hc sin^T - hs cos^T) + hc (sin o a)^T + hs (cos o c)^T
    m = np.multiply.outer(hc, sin_t)
    m -= np.multiply.outer(hs, cos_t, out=work)
    m *= bracket
    m += np.matmul(
        np.column_stack((hc, hs)), np.vstack((sin_t * a, cos_t * c)), out=work
    )
    k1 = m @ v2
    k1 += np.multiply.outer(cos_t, splice[:, 0], out=work)
    k2 = m @ v1
    k2 += np.multiply.outer(sin_t, splice[:, 1], out=work)
    return k1, k2


def _cross_factors(sample, max_rank: int):
    """(X^T, Y^T) for n-by-r factors with |sample - X Y^T| at most
    (n + 1) eps max|sample| in every entry, or None if that needs a rank
    above ``max_rank``.  The rows of the two (r, n + 1) arrays are the
    factors' columns.

    Cross approximation with complete pivoting (Bebendorf, Numer. Math.
    86, 2000): each step takes the residual's entry of largest magnitude as
    pivot and adds the cross through it, the pivot's residual column over
    the pivot times its residual row, which zeroes that row and column of
    the residual.  The residual is formed afresh each step as
    sample - X Y^T, one BLAS product and one subtraction, so the next
    pivot is the exact check: every entry is tested, and the sample is
    left as it was.  The first pivot is max|sample|.  The steps read the
    sample's values alone, not its layout.
    """
    n1 = sample.shape[1]
    xs, ys = np.empty((max_rank, len(sample))), np.empty((max_rank, n1))
    residual, product, rank = sample, None, 0
    while True:
        hi, lo = residual.argmax(), residual.argmin()
        index = hi if residual.flat[hi] >= -residual.flat[lo] else lo
        pivot = residual.flat[index]
        if rank == 0:
            tol = n1 * _EPS * abs(pivot)
        if abs(pivot) <= tol:
            return xs[:rank], ys[:rank]
        if rank == max_rank:
            return None
        i, j = divmod(int(index), n1)
        np.divide(residual[:, j], pivot, out=xs[rank])
        ys[rank] = residual[i]
        rank += 1
        product = np.dot(xs[:rank].T, ys[:rank], out=product)
        residual = np.subtract(sample, product, out=product)


def _factored_branches(ops: SpectralOperators, x1, y1, x2, y2, half_t, sin_t, cos_t):
    """Samplers of K1 and K2 from V1 = X1 Y1^T and V2 = X2 Y2^T (module
    docstring), given as x1 = X1^T, y1 = Y1^T, x2 = X2^T and y2 = Y2^T.
    One product of B with the columns Z = [sin o X1, sin o X2, cos o X1,
    cos o X2], formed by row blocks of B, gives W (sin o X) and V (cos o X)
    for X = [X1, X2], and from them (T/2) M X1, (T/2) M X2 and the splice
    diagonals, each held by rows as the factors are.  A sampler answers
    ``rows`` with one product of the left factor's rows and the whole right
    factor."""
    n1 = ops.order + 1
    r = len(x1)
    z = np.vstack((x1 * sin_t, x2 * sin_t, x1 * cos_t, x2 * cos_t))
    bz = np.empty((len(z), n1))
    step = max(1, ROW_BLOCK_ENTRIES // n1)
    for start in range(0, n1, step):
        stop = min(start + step, n1)
        bz[:, start:stop] = z @ ops.bracket_rows(start, stop).T
    # row k of g is W (sin o X)[:, k], of h V (cos o X)[:, k]
    half = len(z) // 2
    g = bz[:half]
    g += (z[:half] @ ops.left_offset)[:, None]
    h = bz[half:]
    np.subtract((z[half:] @ ops.right_offset)[:, None], h, out=h)
    p = half_t * cos_t * g + half_t * sin_t * h  # (T/2) M X, by rows
    d = half_t * ((y1 * g[:r]).sum(axis=0) - (y2 * g[r:]).sum(axis=0))
    e = -half_t * ((y1 * h[:r]).sum(axis=0) - (y2 * h[r:]).sum(axis=0))
    left1, right1 = np.vstack((p[r:], cos_t)), np.vstack((y2, d))
    left2, right2 = np.vstack((p[:r], sin_t)), np.vstack((y1, e))
    return (
        lambda rows: left1[:, rows].T @ right1,
        lambda rows: left2[:, rows].T @ right2,
    )


def _branch_samplers(potential: NonlocalPotential, grid: ChebGrid, ops: SpectralOperators):
    """Samplers of the spliced branches K1 and K2, ``sample(rows)`` giving
    the rows asked for, every column.

    V1 is sampled once, and V2 only for a potential with an explicit upper
    branch.  V1 and V2^T are factored (``_cross_factors``), and a reflected
    potential's V2 = Y1 X1^T takes V1's factors swapped; then the samples
    are dropped, and K1 and K2 are formed from the factors a row block at a
    time (``_factored_branches``).  Past the rank cap, the whole K1 and K2
    are formed by the dense products (``_spliced_branches``).
    """
    t = grid.nodes
    half_t = grid.width / 2.0
    sin_t = np.sin(potential.kappa * t)
    cos_t = np.cos(potential.kappa * t)
    v1 = potential.eval_lower(t[:, None], t[None, :])
    v2 = None if potential.upper is None else potential.eval_upper(t[:, None], t[None, :])
    f1 = _cross_factors(v1, LOWRANK_MAX_RANK)
    # V2^T = P Q^T gives V2 = Q P^T, so X2 = Q and Y2 = P
    f2 = f1 if v2 is None or f1 is None else _cross_factors(v2.T, LOWRANK_MAX_RANK)
    if f2 is not None:
        return _factored_branches(ops, *f1, f2[1], f2[0], half_t, sin_t, cos_t)
    v2 = np.ascontiguousarray(v1.T) if v2 is None else v2
    k1, k2 = _spliced_branches(ops, v1, v2, half_t, sin_t, cos_t)
    return (lambda rows: k1[rows]), (lambda rows: k2[rows])


def _spliced_block(potential: NonlocalPotential, grid: ChebGrid):
    """The semismooth block of the spliced branches on ``grid``, and the
    branch samplers it was read through."""
    ops = build_operators(grid.order)
    samplers = _branch_samplers(potential, grid, ops)
    return semismooth_block(ops, *samplers, grid.width / (2.0 * potential.kappa)), samplers


def _rows_resolved(samplers, n1: int) -> bool:
    """Whether the first, middle and last rows of K1 and K2 on n1 nodes are
    resolved at degree ceil(n1 / 4), the fewest coarse nodes that
    ``fredholm_solver.twogrid_solve`` uses: their Chebyshev coefficients
    from that degree on are at most TWOGRID_TAIL times the row's largest.

    Row i of the coarse rule integrates k(t_i, s) x(s) over s, so a branch
    row that the coarse nodes cannot interpolate leaves the coarse solution
    unresolved whatever x is, and the two-grid's gate would decline it only
    after the coarse assembly, the LU and a solve.  A row resolved at the
    fewest coarse nodes is resolved at any more.  The rows are read with
    one request per branch and transformed one at a time, stopping at the
    first that is not resolved.
    """
    picked, m = [0, n1 // 2, n1 - 1], -(-n1 // 4)
    rows = np.vstack([sample(picked) for sample in samplers])
    sizes = (np.abs(chebyshev_coefficients(row)) for row in rows)
    return all(size[m:].max() <= fredholm_solver.TWOGRID_TAIL * size.max() for size in sizes)


def assemble(potential: NonlocalPotential, grid: ChebGrid, rhs_override=None) -> SchrodingerSystem:
    if not (grid.a == 0.0 and grid.b == potential.cutoff):
        raise ValueError(
            f"grid [{grid.a}, {grid.b}] must span [0, {potential.cutoff}]"
        )
    if not potential.kappa > 0.0:
        raise ValueError(f"need kappa > 0, got {potential.kappa}")
    block, samplers = _spliced_block(potential, grid)
    n1 = grid.order + 1
    # only a system that dense_solve offers to the two-grid, and whose rows
    # the coarse nodes resolve, carries its rule at lower orders
    resolved = n1 >= fredholm_solver.TWOGRID_CROSSOVER_N and _rows_resolved(samplers, n1)
    coarse = (lambda order: _spliced_block(potential, cheb_grid(order, grid.a, grid.b))[0]) if resolved else None
    t = grid.nodes
    rhs = np.sin(potential.kappa * t) if rhs_override is None else _rhs_values(rhs_override, t)
    partition = Partition(np.array([grid.a, grid.b]), (grid,))
    return SchrodingerSystem(DenseBlocks(block, partition.offsets, coarse), rhs, partition)


def solve_schrodinger(potential: NonlocalPotential, order: int, rhs_override=None) -> ChebSolution:
    return solve_composite(assemble(potential, cheb_grid(order, 0.0, potential.cutoff), rhs_override))


def self_convergence(
    potential: NonlocalPotential, order: int, rhs_override=None, solutions=None
) -> float:
    """Relative sup distance between the order-n and order-2n solutions,
    measured at the order-n nodes through the finer solution's interpolant.

    ``solutions``, if given, maps orders to solutions of this same potential
    and right-hand side.  Orders it lacks are solved and added, so a caller
    that passes one dict across orders n, 2n, 4n, ... solves each once.
    """
    if order < 4:
        raise ValueError(f"need order >= 4, got {order}")
    solutions = {} if solutions is None else solutions
    for n in (order, 2 * order):
        if n not in solutions:
            solutions[n] = solve_schrodinger(potential, n, rhs_override)
    coarse, fine = solutions[order], solutions[2 * order]
    nodes = coarse.grids[0].nodes
    return relative_sup_error(coarse.node_values, fine.evaluate(nodes))
