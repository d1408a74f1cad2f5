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
override it.

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

and d and e read B, a and c against Delta^T.  ``assemble`` therefore
forms neither W nor V, and its two n-by-n products M V2 and M V1 cost
4n^3 flops, half of the four products that K11..K22 take.
``build_kernel_matrices`` is kept as the K11..K22 reference that tests
check the splice against.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fredholm_solver import (
    ChebSolution, _rhs_values, relative_sup_error, semismooth_block, solve_system
)
from .kernel_catalog import NonlocalPotential, SchrodingerProblem
from .spectral_core import ChebGrid, SpectralOperators, build_operators, cheb_grid

__all__ = [
    "NonlocalPotential",
    "SchrodingerProblem",
    "SchrodingerSystem",
    "build_kernel_matrices",
    "assemble",
    "solve_schrodinger",
    "self_convergence",
]


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
class SchrodingerSystem:
    """The assembled system: ``k1`` and ``k2`` are the spliced branches, and
    ``matrix`` is their semismooth block."""

    grid: ChebGrid
    k1: np.ndarray
    k2: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray


def _spliced_branches(
    potential: NonlocalPotential, grid: ChebGrid, ops: SpectralOperators, sin_t, cos_t
):
    """K1 and K2 through the shared operator M (module docstring).

    Besides the bracket, the two branch samples and the two results, this
    allocates M and one scratch array.  The T/2 factor is folded into the
    row vectors hc and hs.  V1 and V2 come from one
    ``potential.eval_mirrored`` call, so a reflected potential is sampled
    once, and its V2 is a C-order copy of V1^T: the BLAS product with the
    transposed view itself rounds differently below about n = 128.
    """
    t = grid.nodes
    v1, v2 = potential.eval_mirrored(t[:, None], t[None, :])
    half_t = grid.width / 2.0
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


def assemble(potential: NonlocalPotential, grid: ChebGrid, rhs_override=None) -> SchrodingerSystem:
    if not (grid.a == 0.0 and grid.b == potential.cutoff):
        raise ValueError(
            f"grid [{grid.a}, {grid.b}] must span [0, {potential.cutoff}]"
        )
    kappa = potential.kappa
    if not kappa > 0.0:
        raise ValueError(f"need kappa > 0, got {kappa}")
    ops = build_operators(grid.order)
    t = grid.nodes
    sin_t = np.sin(kappa * t)
    cos_t = np.cos(kappa * t)
    k1, k2 = _spliced_branches(potential, grid, ops, sin_t, cos_t)
    matrix = semismooth_block(
        ops, lambda rows, cols: k1[rows, cols], lambda rows, cols: k2[rows, cols], grid.width / (2.0 * kappa)
    )
    rhs = sin_t if rhs_override is None else _rhs_values(rhs_override, t)
    return SchrodingerSystem(grid=grid, k1=k1, k2=k2, matrix=matrix, rhs=rhs)


def solve_schrodinger(potential: NonlocalPotential, order: int, rhs_override=None) -> ChebSolution:
    grid = cheb_grid(order, 0.0, potential.cutoff)
    system = assemble(potential, grid, rhs_override)
    return solve_system((grid,), system.matrix, system.rhs)


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
