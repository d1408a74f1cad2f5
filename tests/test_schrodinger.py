"""Nonlocal-potential scattering solver: kernel assembly and convergence."""

import numpy as np
import pytest
from dense_oracle import integration_matrices, record_branch_calls, semismooth_block_reference, unreflected

import chebfred.schrodinger as schrodinger
from chebfred.kernel_catalog import NonlocalPotential, catalog_lookup
from chebfred.schrodinger import (
    assemble,
    build_kernel_matrices,
    self_convergence,
    solve_schrodinger,
)
from chebfred.spectral_core import build_operators, cheb_grid

T_CUT = 20.0


def _zero_potential():
    zero = lambda p, r2: np.zeros(np.broadcast(p, r2).shape)
    return NonlocalPotential(lower=zero, upper=zero, strength=0.0, kappa=1.0, cutoff=T_CUT)


def test_zero_potential_gives_free_solution():
    pot = _zero_potential()
    grid = cheb_grid(16, 0.0, T_CUT)
    system = assemble(pot, grid)
    assert np.all(system.k1 == 0.0) and np.all(system.k2 == 0.0)
    assert np.array_equal(system.matrix, np.eye(17))
    sol = solve_schrodinger(pot, 16)
    assert np.max(np.abs(sol.node_values - np.sin(grid.nodes))) < 1e-13


def test_smooth_potential_has_no_splice_correction():
    # identical branches make the diagonal splice columns exactly zero
    smooth = lambda p, r2: 0.1 * np.exp(-((p - r2) ** 2) / 4.0)
    pot = NonlocalPotential(lower=smooth, upper=smooth, strength=0.1, kappa=1.0, cutoff=T_CUT)
    grid = cheb_grid(12, 0.0, T_CUT)
    ops = build_operators(12)
    k11, k12, k21, k22 = build_kernel_matrices(pot, grid, ops)
    t = grid.nodes
    v = smooth(t[:, None], t[None, :])
    half_t = grid.width / 2.0
    W, V = integration_matrices(ops)
    w_sin = W * np.sin(t)[None, :]
    v_cos = V * np.cos(t)[None, :]
    assert np.array_equal(k11, half_t * (w_sin @ v))
    assert np.array_equal(k22, half_t * (v_cos @ v))
    assert np.array_equal(k11, k12)
    assert np.array_equal(k21, k22)


def _reference_kernel_matrices(potential, grid, ops):
    """K11..K22 with the splice diagonals taken from full matrix products."""
    t = grid.nodes
    v1 = potential.eval_lower(t[:, None], t[None, :])
    v2 = potential.eval_upper(t[:, None], t[None, :])
    W, V = integration_matrices(ops)
    w_sin = W * np.sin(potential.kappa * t)[None, :]
    v_cos = V * np.cos(potential.kappa * t)[None, :]
    d = np.diag(w_sin @ (v1 - v2))
    e = np.diag(v_cos @ (v2 - v1))
    half_t = grid.width / 2.0
    return (
        half_t * (d[None, :] + w_sin @ v2),
        half_t * (w_sin @ v1),
        half_t * (v_cos @ v2),
        half_t * (v_cos @ v1 + e[None, :]),
    )


@pytest.mark.parametrize("reflected", [False, True])
@pytest.mark.parametrize("name", ["schrod_pereybuck", "schrod_separable"])
def test_assemble_samples_each_branch_once(monkeypatch, name, reflected):
    # both potentials are reflected: V2 is V1^T and the upper branch is
    # never sampled.  ``unreflected`` gives them an explicit upper branch
    pot = catalog_lookup(name).potential
    assert pot.upper is None
    if not reflected:
        pot = unreflected(pot)
    calls = []
    record_branch_calls(monkeypatch, NonlocalPotential, calls)
    grid = cheb_grid(48, 0.0, pot.cutoff)
    system = assemble(pot, grid)
    assert [branch for branch, _, _ in calls] == (["lower"] if reflected else ["lower", "upper"])
    k11, k12, k21, k22 = _reference_kernel_matrices(pot, grid, build_operators(48))
    sin_t = np.sin(pot.kappa * grid.nodes)[:, None]
    cos_t = np.cos(pot.kappa * grid.nodes)[:, None]
    # relative to the spliced terms: on the separable potential the splice
    # cancels e^T-scale entries
    term_scale = max(np.max(np.abs(k)) for k in (k11, k12, k21, k22))
    for k, ref in ((system.k1, cos_t * k11 + sin_t * k21), (system.k2, cos_t * k12 + sin_t * k22)):
        assert np.max(np.abs(k - ref)) <= 1e-13 * term_scale


def _hadamard_matrix(potential, grid):
    """I + s D_c (W o K11 + V o K12) + s D_s (W o K21 + V o K22), s = T/(2 kappa),
    formed from explicit Hadamard products with W and V."""
    ops = build_operators(grid.order)
    k11, k12, k21, k22 = build_kernel_matrices(potential, grid, ops)
    t = grid.nodes
    scale = grid.width / (2.0 * potential.kappa)
    W, V = integration_matrices(ops)
    matrix = (
        np.eye(grid.order + 1)
        + scale * np.cos(potential.kappa * t)[:, None] * (W * k11 + V * k12)
        + scale * np.sin(potential.kappa * t)[:, None] * (W * k21 + V * k22)
    )
    return matrix, scale * max(np.max(np.abs(k)) for k in (k11, k12, k21, k22))


@pytest.mark.parametrize("order", [8, 32, 128, 256])
@pytest.mark.parametrize("name", ["schrod_pereybuck", "schrod_separable"])
def test_matrix_is_semismooth_block_of_spliced_branches(name, order):
    """The spliced-branch assembly agrees with the Hadamard-product formula.

    The bound is relative to s max|K|, the size of the summed terms, not to
    max|A|: on the separable potential the splice cancels e^T-scale terms
    to order one, so the difference is a rounding residue of the terms.
    """
    pot = catalog_lookup(name).potential
    grid = cheb_grid(order, 0.0, pot.cutoff)
    reference, term_scale = _hadamard_matrix(pot, grid)
    matrix = assemble(pot, grid).matrix
    assert np.max(np.abs(matrix - reference)) <= 1e-14 * term_scale


@pytest.mark.parametrize("order", [8, 127, 255, 384])
@pytest.mark.parametrize("name", ["schrod_pereybuck", "schrod_separable"])
def test_matrix_is_bitwise_the_whole_array_block_of_spliced_branches(name, order):
    """The row-blocked ``semismooth_block`` gives the spliced branches'
    block bitwise as the whole-array formula does."""
    pot = catalog_lookup(name).potential
    grid = cheb_grid(order, 0.0, pot.cutoff)
    system = assemble(pot, grid)
    scale = grid.width / (2.0 * pot.kappa)
    reference = semismooth_block_reference(build_operators(order), system.k1, system.k2, scale)
    assert np.array_equal(system.matrix, reference)


@pytest.mark.parametrize("order", [8, 32, 128])
@pytest.mark.parametrize("name", ["schrod_pereybuck", "schrod_separable"])
def test_matrix_is_semismooth_block_at_kappa_2(name, order):
    """The oracle comparison above at kappa = 2, where sin and cos of the
    nodes no longer share the potential's unit length scale."""
    pot = catalog_lookup(name, kappa=2.0).potential
    grid = cheb_grid(order, 0.0, pot.cutoff)
    reference, term_scale = _hadamard_matrix(pot, grid)
    matrix = assemble(pot, grid).matrix
    assert np.max(np.abs(matrix - reference)) <= 1e-14 * term_scale


def test_assemble_forms_neither_integration_matrix(monkeypatch):
    """``assemble`` reads the bracket and the offset vectors only: it never
    calls ``build_kernel_matrices``, which forms W, V and K11..K22."""

    def forbidden(*args):
        raise AssertionError("assemble called build_kernel_matrices")

    monkeypatch.setattr(schrodinger, "build_kernel_matrices", forbidden)
    for name in ("schrod_pereybuck", "schrod_separable"):
        pot = catalog_lookup(name).potential
        schrodinger.assemble(pot, cheb_grid(32, 0.0, pot.cutoff))


def test_inner_integral_matrix_against_row_quadrature():
    # K12[i, j] integrates sin(kappa p) v_lower(p, t_j) over [0, t_i]
    problem = catalog_lookup("schrod_pereybuck")
    pot = problem.potential
    grid = cheb_grid(32, 0.0, pot.cutoff)
    _, k12, _, _ = build_kernel_matrices(pot, grid, build_operators(32))
    t = grid.nodes
    oracle = np.empty_like(k12)
    for i, ti in enumerate(t):
        p = np.linspace(0.0, ti, 10**5 + 1)
        integrand = np.sin(pot.kappa * p)[:, None] * pot.eval_lower(p[:, None], t[None, :])
        oracle[i] = np.trapezoid(integrand, p, axis=0)
    assert np.max(np.abs(k12 - oracle)) / np.max(np.abs(oracle)) < 1e-6


@pytest.mark.parametrize("order", [8, 16, 32, 64])
def test_diagonal_splice_is_continuous(order):
    """K11/K12 (and K21/K22) sample the same inner integral on the diagonal.

    For the optical-model potential the agreement is absolute.  The separable
    exponential potential carries entries on the e^(+-T) scale, so agreement
    on its diagonal is to machine precision relative to the matrix scale.
    """
    pb = catalog_lookup("schrod_pereybuck").potential
    grid = cheb_grid(order, 0.0, pb.cutoff)
    ops = build_operators(order)
    k11, k12, k21, k22 = build_kernel_matrices(pb, grid, ops)
    assert np.max(np.abs(np.diag(k11 - k12))) < 1e-12
    assert np.max(np.abs(np.diag(k21 - k22))) < 1e-12

    sep = catalog_lookup("schrod_separable").potential
    k11, k12, k21, k22 = build_kernel_matrices(sep, grid, ops)
    scale_1 = max(np.max(np.abs(k11)), np.max(np.abs(k12)))
    scale_2 = max(np.max(np.abs(k21)), np.max(np.abs(k22)))
    assert np.max(np.abs(np.diag(k11 - k12))) / scale_1 < 1e-12
    assert np.max(np.abs(np.diag(k21 - k22))) / scale_2 < 1e-12


def _nested_lhs(potential, psi, nodes, panels=10_000):
    """Left-hand side of the nested integral form, by composite trapezium.

    J(s) = int_0^T v(s, p) psi(p) dp is tabulated on a fine grid, then the
    outer split integrals int_0^r sin(kappa s) J and int_r^T cos(kappa s) J
    are accumulated with a partial end panel at each off-grid node r.
    """
    cutoff, kappa = potential.cutoff, potential.kappa
    s = np.linspace(0.0, cutoff, panels + 1)
    psi_s = psi(s)
    j_vals = np.empty_like(s)
    for start in range(0, len(s), 500):
        block = s[start : start + 500, None]
        v = np.where(
            block <= s[None, :],
            potential.eval_lower(block, s[None, :]),
            potential.eval_upper(block, s[None, :]),
        )
        j_vals[start : start + 500] = np.trapezoid(v * psi_s[None, :], s, axis=1)
    sin_j = np.sin(kappa * s) * j_vals
    cos_j = np.cos(kappa * s) * j_vals
    out = np.empty_like(nodes)
    for i, r in enumerate(nodes):
        k = int(np.searchsorted(s, r)) - 1
        j_r = np.interp(r, s, j_vals)
        left = np.trapezoid(sin_j[: k + 1], s[: k + 1])
        left += 0.5 * (r - s[k]) * (sin_j[k] + np.sin(kappa * r) * j_r)
        right = np.trapezoid(cos_j[k + 1 :], s[k + 1 :])
        right += 0.5 * (s[k + 1] - r) * (np.cos(kappa * r) * j_r + cos_j[k + 1])
        out[i] = psi(r) + (np.cos(kappa * r) / kappa) * left + (np.sin(kappa * r) / kappa) * right
    return out


def test_assembled_rows_match_nested_quadrature():
    """Applying the assembled operator to the analytic solution reproduces the
    nested integral form of the equation.

    The agreement bound is 2e-4, not quadrature-limited: the splice columns
    of the kernel matrices combine terms on the e^(+T) scale, and at order 32
    with T = 20 the cancellation leaves an absolute residue near 1e-4.  That
    is the double-precision floor of this formulation at this order (the same
    floor the solution error hits), so the assertion pins it as a regression
    guard.  The oracle itself is validated against the manufactured
    right-hand side far more tightly.
    """
    problem = catalog_lookup("schrod_separable")
    pot = problem.potential
    grid = cheb_grid(32, 0.0, pot.cutoff)
    system = assemble(pot, grid, rhs_override=problem.rhs)
    psi_bar = problem.solution(grid.nodes)
    oracle = _nested_lhs(pot, problem.solution, grid.nodes)
    assert np.max(np.abs(oracle - problem.rhs(grid.nodes))) < 1e-7
    assert np.max(np.abs(system.matrix @ psi_bar - oracle)) < 2e-4


def test_separable_potential_analytic_solution():
    problem = catalog_lookup("schrod_separable")
    sol = solve_schrodinger(problem.potential, 64, rhs_override=problem.rhs)
    exact = problem.solution(sol.nodes)
    err = np.max(np.abs(sol.node_values - exact)) / np.max(np.abs(exact))
    assert err < 1e-7


def test_optical_potential_self_convergence_decay():
    pot = catalog_lookup("schrod_pereybuck").potential
    errors = [self_convergence(pot, n) for n in (8, 16, 32, 64, 128)]
    assert 1e-5 < errors[1] < 1e-2
    assert errors[2] < 1e-7
    assert errors[3] < 1e-12
    for prev, cur in zip(errors, errors[1:]):
        assert cur < prev or cur < 1e-12


def test_assemble_validates_grid_and_kappa():
    pot = catalog_lookup("schrod_pereybuck").potential
    with pytest.raises(ValueError, match="span"):
        assemble(pot, cheb_grid(8, 0.0, 10.0))
    zero = lambda p, r2: np.zeros(np.broadcast(p, r2).shape)
    bad = NonlocalPotential(lower=zero, upper=zero, strength=0.0, kappa=0.0, cutoff=T_CUT)
    with pytest.raises(ValueError, match="kappa"):
        assemble(bad, cheb_grid(8, 0.0, T_CUT))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_rhs_override_rejects_nonfinite_values(bad):
    pot = catalog_lookup("schrod_pereybuck").potential
    with pytest.raises(ValueError, match="non-finite"):
        solve_schrodinger(pot, 16, rhs_override=lambda t: np.where(t > 1.0, bad, 0.0))


def test_self_convergence_rejects_tiny_orders():
    pot = catalog_lookup("schrod_pereybuck").potential
    with pytest.raises(ValueError, match="order"):
        self_convergence(pot, 2)
