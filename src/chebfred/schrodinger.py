"""Radial Schrodinger equation with a nonlocal potential, in integral form.

The scattering problem on [0, T] with a nonlocal potential v(p, r') is
recast as a second-kind integral equation for the wave function psi.  The
equation's kernel involves integrals of the potential against sin/cos
factors; those integrals are themselves computed with the one-sided spectral
matrices, so a potential with a kink across p = r' is handled branch by
branch end to end.  The assembled system is

    [I + (T/2k) D_c (W o K11 + V o K12) + (T/2k) D_s (W o K21 + V o K22)] psi = rhs

with D_c = diag(cos(k t_i)), D_s = diag(sin(k t_i)) and the K matrices built
below.  Since D (W o K) = W o (D K), it is the semismooth block
I + (T/2k) (W o K1 + V o K2) of the spliced branches K1 = D_c K11 + D_s K21
and K2 = D_c K12 + D_s K22.  The default right-hand side is the free
solution sin(k t); tests with a manufactured solution override it.
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
    K11 vs K12 (and K21 vs K22) along the diagonal.
    """
    t = grid.nodes
    v1 = potential.eval_lower(t[:, None], t[None, :])
    v2 = potential.eval_upper(t[:, None], t[None, :])
    kappa = potential.kappa
    half_t = grid.width / 2.0
    w_sin = ops.int_left * np.sin(kappa * t)[None, :]  # W D_s
    v_cos = ops.int_right * np.cos(kappa * t)[None, :]  # V D_c
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
    grid: ChebGrid
    k11: np.ndarray
    k12: np.ndarray
    k21: np.ndarray
    k22: np.ndarray
    matrix: np.ndarray
    rhs: np.ndarray


def assemble(potential: NonlocalPotential, grid: ChebGrid, rhs_override=None) -> SchrodingerSystem:
    if not (grid.a == 0.0 and grid.b == potential.cutoff):
        raise ValueError(
            f"grid [{grid.a}, {grid.b}] must span [0, {potential.cutoff}]"
        )
    kappa = potential.kappa
    if not kappa > 0.0:
        raise ValueError(f"need kappa > 0, got {kappa}")
    ops = build_operators(grid.order)
    k11, k12, k21, k22 = build_kernel_matrices(potential, grid, ops)
    t = grid.nodes
    sin_t = np.sin(kappa * t)
    cos_t = np.cos(kappa * t)
    # row scaling commutes with the Hadamard product: D (W o K) = W o (D K)
    k1 = cos_t[:, None] * k11
    k1 += sin_t[:, None] * k21
    k2 = cos_t[:, None] * k12
    k2 += sin_t[:, None] * k22
    matrix = semismooth_block(ops, k1, k2, grid.width / (2.0 * kappa))
    rhs = sin_t if rhs_override is None else _rhs_values(rhs_override, t)
    return SchrodingerSystem(
        grid=grid, k11=k11, k12=k12, k21=k21, k22=k22, matrix=matrix, rhs=rhs
    )


def solve_schrodinger(potential: NonlocalPotential, order: int, rhs_override=None) -> ChebSolution:
    grid = cheb_grid(order, 0.0, potential.cutoff)
    system = assemble(potential, grid, rhs_override)
    return solve_system((grid,), system.matrix, system.rhs)


def self_convergence(potential: NonlocalPotential, order: int, rhs_override=None) -> float:
    """Relative sup distance between the order-n and order-2n solutions,
    measured at the order-n nodes through the finer solution's interpolant."""
    if order < 4:
        raise ValueError(f"need order >= 4, got {order}")
    coarse = solve_schrodinger(potential, order, rhs_override)
    fine = solve_schrodinger(potential, 2 * order, rhs_override)
    nodes = coarse.grids[0].nodes
    return relative_sup_error(coarse.node_values, fine.evaluate(nodes))
