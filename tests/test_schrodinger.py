"""Nonlocal-potential scattering solver: kernel assembly and convergence."""

import dataclasses
import math
import pathlib
import subprocess
import sys
import tracemalloc

import numpy as np
import pytest
from dense_oracle import (
    hadamard_matrix, integration_matrices, record_branch_calls, semismooth_block_reference, unreflected, whole_branches
)

import chebfred.schrodinger as schrodinger
from chebfred import composite_solver, fredholm_solver
from chebfred.cli import schrodinger_error
from chebfred.composite_solver import BlockSystem
from chebfred.fredholm_solver import ROW_BLOCK_ENTRIES
from chebfred.kernel_catalog import NonlocalPotential, catalog_lookup
from chebfred.schrodinger import (
    LOWRANK_MAX_RANK,
    SchrodingerSystem,
    assemble,
    build_kernel_matrices,
    self_convergence,
    solve_schrodinger,
)
from chebfred.spectral_core import build_operators, cheb_grid

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import pass_calls  # noqa: E402

T_CUT = 20.0
# n + 1 = 181 nodes fill one row block of ROW_BLOCK_ENTRIES and 182 take two,
# in semismooth_block and in the factored branches alike; and the largest
# order of the benchmark's schrodinger workload
ONE_ROW_BLOCK = math.isqrt(ROW_BLOCK_ENTRIES)
AROUND_ONE_ROW_BLOCK = (ONE_ROW_BLOCK - 1, ONE_ROW_BLOCK, 384)
# 0.1 exp(-(p - r')^2 - p / 20) has rank about 80, past LOWRANK_MAX_RANK
# from order 32 on, so its K1 and K2 come from the dense products; the
# factor exp(-p / 20) makes V1 unsymmetric, so that the splice is not zero
HIGH_RANK = "high_rank_gaussian"
HIGH_RANK_ORDERS = (32, ONE_ROW_BLOCK, 384)


def _gaussian_potential(alpha, upper=None):
    lower = lambda p, r2: 0.1 * np.exp(-alpha * (p - r2) ** 2)
    return NonlocalPotential(lower=lower, upper=upper, kappa=1.0, cutoff=T_CUT)


def _potential(name):
    if name != HIGH_RANK:
        return catalog_lookup(name).potential
    lower = lambda p, r2: 0.1 * np.exp(-((p - r2) ** 2) - p / 20.0)
    return NonlocalPotential(lower=lower, kappa=1.0, cutoff=T_CUT)


def _with_high_rank(orders):
    """(name, order): both catalog potentials at ``orders``, and the
    high-rank Gaussian at HIGH_RANK_ORDERS."""
    catalog = [(name, order) for name in ("schrod_pereybuck", "schrod_separable") for order in orders]
    return catalog + [(HIGH_RANK, order) for order in HIGH_RANK_ORDERS]


def _record_dense_products(monkeypatch):
    """The calls of ``_spliced_branches`` from here on, which still run."""
    calls = []
    spliced = schrodinger._spliced_branches
    monkeypatch.setattr(schrodinger, "_spliced_branches", lambda *args: calls.append(args) or spliced(*args))
    return calls


def _branches(pot, grid, rows_per_block=None):
    """K1 and K2 in full, through the samplers that ``assemble`` reads."""
    samplers = schrodinger._branch_samplers(pot, grid, build_operators(grid.order))
    return whole_branches(samplers, grid.order + 1, rows_per_block)


def _zero_potential():
    zero = lambda p, r2: np.zeros(np.broadcast(p, r2).shape)
    return NonlocalPotential(lower=zero, upper=zero, kappa=1.0, cutoff=T_CUT)


@pytest.mark.parametrize("order", [16, ONE_ROW_BLOCK])
def test_zero_potential_gives_free_solution(order):
    # the zero sample factors with rank 0
    pot = _zero_potential()
    grid = cheb_grid(order, 0.0, T_CUT)
    system = assemble(pot, grid)
    k1, k2 = _branches(pot, grid)
    assert np.all(k1 == 0.0) and np.all(k2 == 0.0)
    assert np.array_equal(system.matrix.block(0, 0), np.eye(order + 1))
    xs, ys = schrodinger._cross_factors(np.zeros((order + 1, order + 1)), LOWRANK_MAX_RANK)
    assert xs.shape == ys.shape == (0, order + 1)
    sol = solve_schrodinger(pot, order)
    assert np.max(np.abs(sol.node_values - np.sin(grid.nodes))) < 1e-13


def test_smooth_potential_has_no_splice_correction():
    # identical branches make the diagonal splice columns exactly zero
    smooth = lambda p, r2: 0.1 * np.exp(-((p - r2) ** 2) / 4.0)
    pot = NonlocalPotential(lower=smooth, upper=smooth, kappa=1.0, cutoff=T_CUT)
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


def _reference_branches(potential, grid):
    """K1 and K2 spliced from the reference K11..K22, and the size of the
    spliced terms: on the separable potential the splice cancels e^T-scale
    entries, so bounds are relative to it."""
    k11, k12, k21, k22 = _reference_kernel_matrices(potential, grid, build_operators(grid.order))
    sin_t = np.sin(potential.kappa * grid.nodes)[:, None]
    cos_t = np.cos(potential.kappa * grid.nodes)[:, None]
    term_scale = max(np.max(np.abs(k)) for k in (k11, k12, k21, k22))
    return (cos_t * k11 + sin_t * k21, cos_t * k12 + sin_t * k22), term_scale


@pytest.mark.parametrize("order", [48, *AROUND_ONE_ROW_BLOCK])
@pytest.mark.parametrize("reflected", [False, True])
@pytest.mark.parametrize("name", ["schrod_pereybuck", "schrod_separable"])
def test_assemble_samples_each_branch_once(monkeypatch, name, reflected, order):
    # both potentials are reflected: V2 is V1^T and the upper branch is
    # never sampled.  ``unreflected`` gives them an explicit upper branch
    pot = catalog_lookup(name).potential
    assert pot.upper is None
    if not reflected:
        pot = unreflected(pot)
    calls = []
    record_branch_calls(monkeypatch, NonlocalPotential, calls)
    grid = cheb_grid(order, 0.0, pot.cutoff)
    system = assemble(pot, grid)
    assert [branch for branch, _, _ in calls] == (["lower"] if reflected else ["lower", "upper"])
    references, term_scale = _reference_branches(pot, grid)
    for k, ref in zip(_branches(pot, grid), references):
        assert np.max(np.abs(k - ref)) <= 1e-13 * term_scale


def _hadamard_matrix(potential, grid):
    ops = build_operators(grid.order)
    return hadamard_matrix(potential, grid, ops, build_kernel_matrices(potential, grid, ops))


@pytest.mark.parametrize("name, order", _with_high_rank([8, 32, 128, 256, *AROUND_ONE_ROW_BLOCK]))
def test_matrix_is_semismooth_block_of_spliced_branches(monkeypatch, name, order):
    """The spliced-branch assembly agrees with the Hadamard-product formula,
    from the factors for the catalog potentials and from the dense products
    for the high-rank one.

    The bound is relative to s max|K|, the size of the summed terms, not to
    max|A|: on the separable potential the splice cancels e^T-scale terms
    to order one, so the difference is a rounding residue of the terms.
    """
    pot = _potential(name)
    grid = cheb_grid(order, 0.0, pot.cutoff)
    reference, term_scale = _hadamard_matrix(pot, grid)
    dense = _record_dense_products(monkeypatch)
    matrix = assemble(pot, grid).matrix.block(0, 0)
    assert bool(dense) == (name == HIGH_RANK)
    assert np.max(np.abs(matrix - reference)) <= 1e-14 * term_scale


@pytest.mark.parametrize("name, order", _with_high_rank([8, 127, 255, *AROUND_ONE_ROW_BLOCK]))
def test_matrix_is_bitwise_the_whole_array_block_of_spliced_branches(monkeypatch, name, order):
    """The row-blocked ``semismooth_block`` gives the spliced branches'
    block bitwise as the whole-array formula does, on K1 and K2 read by
    the same row blocks, so that how a BLAS rounds a row inside a row block
    against inside the whole product does not enter."""
    pot = _potential(name)
    grid = cheb_grid(order, 0.0, pot.cutoff)
    dense = _record_dense_products(monkeypatch)
    system = assemble(pot, grid)
    assert bool(dense) == (name == HIGH_RANK)
    scale = grid.width / (2.0 * pot.kappa)
    rows_per_block = max(1, ROW_BLOCK_ENTRIES // (order + 1))
    branches = _branches(pot, grid, rows_per_block)
    reference = semismooth_block_reference(build_operators(order), *branches, scale)
    assert np.array_equal(system.matrix.block(0, 0), reference)


@pytest.mark.parametrize("order", [8, 32, 128, *AROUND_ONE_ROW_BLOCK])
@pytest.mark.parametrize("name", ["schrod_pereybuck", "schrod_separable"])
def test_matrix_is_semismooth_block_at_kappa_2(name, order):
    """The oracle comparison above at kappa = 2, where sin and cos of the
    nodes no longer share the potential's unit length scale."""
    pot = catalog_lookup(name, kappa=2.0).potential
    grid = cheb_grid(order, 0.0, pot.cutoff)
    reference, term_scale = _hadamard_matrix(pot, grid)
    matrix = assemble(pot, grid).matrix.block(0, 0)
    assert np.max(np.abs(matrix - reference)) <= 1e-14 * term_scale


def test_assemble_returns_a_one_panel_block_system_with_its_coarse_rule(monkeypatch):
    assert [field.name for field in dataclasses.fields(SchrodingerSystem)] == ["matrix", "rhs", "partition"]
    pot = catalog_lookup("schrod_pereybuck").potential
    grid = cheb_grid(384, 0.0, pot.cutoff)
    system = assemble(pot, grid)
    assert isinstance(system, BlockSystem)
    assert system.matrix.panels == 1 and system.grid is grid and system.partition.grids == (grid,)
    # the coarse rule is the same potential assembled on fewer nodes: at the
    # fewest that the two-grid uses at n = 384 and at the most
    for order in (96, 192):
        coarse = assemble(pot, cheb_grid(order, 0.0, pot.cutoff)).matrix.block(0, 0)
        assert np.array_equal(system.matrix.coarse(order), coarse)
    # below the two-grid's crossover, where dense_solve asks for none, there is none
    below = assemble(pot, cheb_grid(fredholm_solver.TWOGRID_CROSSOVER_N - 2, 0.0, pot.cutoff))
    assert below.matrix.coarse is None
    # and solve_schrodinger solves the assembled system by solve_composite
    solved = []
    solve = composite_solver.solve_composite
    monkeypatch.setattr(schrodinger, "solve_composite", lambda system: solved.append(system) or solve(system))
    sol = solve_schrodinger(pot, 384)
    assert len(solved) == 1 and np.array_equal(solved[0].matrix.block(0, 0), system.matrix.block(0, 0))
    assert np.array_equal(sol.node_values, solve(system).node_values)


@pytest.mark.parametrize("order", [383, 511])
def test_the_separable_coarse_rule_declines_without_sampling(order, monkeypatch):
    """The spliced rows of the separable potential sit on a rounding floor
    of about 5e-9 of their largest coefficient, so ``assemble``, which reads
    them, gives the system no coarse rule, and its solve samples nothing."""
    pot = catalog_lookup("schrod_separable").potential
    system = assemble(pot, cheb_grid(order, 0.0, pot.cutoff))
    assert system.matrix.coarse is None
    calls = []
    record_branch_calls(monkeypatch, NonlocalPotential, calls)
    monkeypatch.setattr(schrodinger, "semismooth_block", None)
    composite_solver.solve_composite(system)
    assert calls == []


def test_assemble_forms_neither_integration_matrix(monkeypatch):
    """``assemble`` reads the bracket and the offset vectors only: it never
    calls ``build_kernel_matrices``, which forms W, V and K11..K22."""

    def forbidden(*args):
        raise AssertionError("assemble called build_kernel_matrices")

    monkeypatch.setattr(schrodinger, "build_kernel_matrices", forbidden)
    for name in ("schrod_pereybuck", "schrod_separable"):
        pot = catalog_lookup(name).potential
        schrodinger.assemble(pot, cheb_grid(32, 0.0, pot.cutoff))


def _forbid_dense_products(monkeypatch):
    def forbidden(*args):
        raise AssertionError("assemble formed K1 and K2 by the dense products")

    monkeypatch.setattr(schrodinger, "_spliced_branches", forbidden)


def test_catalog_potentials_take_the_factored_path(monkeypatch):
    """The catalog potentials (ranks 5 and 1) are assembled from their
    factors at every order that the CLI's default orders, the error tables
    (both the catalog's orders, and twice them for Perey-Buck's
    self-convergence), the benchmark's tables and schrodinger workloads and
    the two-grid's coarse rules reach: the dense products never run."""
    _forbid_dense_products(monkeypatch)
    assembled = set()
    samplers = schrodinger._branch_samplers
    monkeypatch.setattr(
        schrodinger, "_branch_samplers", lambda pot, grid, ops: assembled.add(grid.order) or samplers(pot, grid, ops)
    )
    runs = {(name, n) for name in ("schrod_pereybuck", "schrod_separable") for n in catalog_lookup(name).orders}
    for workload in ("tables", "schrodinger"):
        runs |= {(call.label, n) for call in pass_calls(workload, None) if call.methods == ("-",) for n in call.orders}
    for name, n in sorted(runs):
        schrodinger_error(catalog_lookup(name), n)
    # Perey-Buck's order-384 solve takes the two-grid, whose coarse rule is
    # assembled at order ceil(385 / 4) - 1 = 96
    assert assembled == {16, 32, 64, 96, 128, 192, 256, 384}


@pytest.mark.parametrize("order", [ONE_ROW_BLOCK, 384])
@pytest.mark.parametrize("name", ["schrod_pereybuck", "schrod_separable"])
def test_samplers_match_the_reference_whichever_rows_are_asked(name, order):
    """Single rows and runs across row blocks of K1 and K2 agree with the
    K11..K22 reference within the bound of
    ``test_assemble_samples_each_branch_once``.  They are not bitwise the
    whole arrays' entries: a BLAS product rounds a row by the request it
    lies in."""
    pot = catalog_lookup(name).potential
    grid = cheb_grid(order, 0.0, pot.cutoff)
    samplers = schrodinger._branch_samplers(pot, grid, build_operators(order))
    references, term_scale = _reference_branches(pot, grid)
    asked = [slice(i, i + 1) for i in (0, 1, 57, order)] + [slice(3, order - 2)]
    for sample, ref in zip(samplers, references):
        for rows in asked:
            assert np.max(np.abs(sample(rows) - ref[rows])) <= 1e-13 * term_scale, rows


@pytest.mark.parametrize("order", HIGH_RANK_ORDERS)
def test_high_rank_potential_is_bitwise_the_dense_products(monkeypatch, order):
    """A potential whose rank exceeds the cap is given up on, and its system
    is bitwise the one the dense products give with a rank cap of 0."""
    pot = _potential(HIGH_RANK)
    grid = cheb_grid(order, 0.0, pot.cutoff)
    sample = pot.eval_lower(grid.nodes[:, None], grid.nodes[None, :])
    assert schrodinger._cross_factors(sample, LOWRANK_MAX_RANK) is None
    system = assemble(pot, grid)
    branches = _branches(pot, grid)
    monkeypatch.setattr(schrodinger, "LOWRANK_MAX_RANK", 0)
    dense = assemble(pot, grid)
    assert np.array_equal(system.matrix.block(0, 0), dense.matrix.block(0, 0))
    for k, ref in zip(branches, _branches(pot, grid)):
        assert np.array_equal(k, ref)


@pytest.mark.parametrize("order", [32, ONE_ROW_BLOCK, 384])
def test_explicit_upper_branch_matches_the_oracle(monkeypatch, order):
    """A potential whose upper branch is not its mirrored lower one: V2 is
    factored through V2^T on its own, and the system matches the oracle."""
    upper = lambda p, r2: 0.05 * np.exp(-(p + 2.0 * r2) / 10.0) * np.cos(0.3 * p)
    pot = _gaussian_potential(0.003, upper=upper)
    grid = cheb_grid(order, 0.0, pot.cutoff)
    _forbid_dense_products(monkeypatch)
    reference, term_scale = _hadamard_matrix(pot, grid)
    matrix = assemble(pot, grid).matrix.block(0, 0)
    assert np.max(np.abs(matrix - reference)) <= 1e-14 * term_scale


def test_factored_solve_peak_at_n_384():
    # with the dense products a solve at n = 384 peaked at 8.48e6 bytes;
    # the factored assembly holds the sample, one product and the block
    pot = catalog_lookup("schrod_pereybuck").potential
    tracemalloc.start()
    try:
        solve_schrodinger(pot, 384)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4.24e6


def test_solve_does_not_import_numpy_random():
    """Importing numpy.random loads 19 more modules and about 6 MB more
    resident memory than numpy alone; the factorisation is deterministic
    and needs none."""
    code = (
        "import sys\n"
        "from chebfred.kernel_catalog import catalog_lookup\n"
        "from chebfred.schrodinger import solve_schrodinger\n"
        "solve_schrodinger(catalog_lookup('schrod_pereybuck').potential, 384)\n"
        "assert 'numpy.random' not in sys.modules, 'numpy.random was imported'\n"
    )
    subprocess.run([sys.executable, "-c", code], check=True)


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
    assert np.max(np.abs(system.matrix.block(0, 0) @ psi_bar - oracle)) < 2e-4


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
    bad = NonlocalPotential(lower=zero, upper=zero, kappa=0.0, cutoff=T_CUT)
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
