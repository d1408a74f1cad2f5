"""One-panel systems, dense solve, and off-grid evaluation."""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from dense_oracle import integration_matrices, inverse_cosine_matrix, semismooth_block_reference, slice_sampler
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg

from chebfred import composite_solver, fredholm_solver
from chebfred.block_operator import DenseBlocks
from chebfred.composite_solver import assemble_blocks, build_partition, solve_composite
from chebfred.fredholm_solver import (
    SingularMatrixError,
    dense_solve,
    discretize_semismooth,
    discretize_smooth,
    relative_sup_error,
    semismooth_block,
    solve_fredholm,
)
from chebfred.kernel_catalog import catalog_lookup
from chebfred.spectral_core import build_operators, cheb_grid


def test_dense_solve_identity():
    rhs = np.array([3.0, -1.0, 2.0])
    x, rcond, warn = dense_solve(np.eye(3), rhs)
    assert x == pytest.approx(rhs)
    assert rcond == pytest.approx(1.0)
    assert not warn


def test_dense_solve_diagonal():
    x, _, _ = dense_solve(np.array([[2.0, 0.0], [0.0, 4.0]]), np.array([2.0, 8.0]))
    assert x == pytest.approx([1.0, 2.0])


def test_dense_solve_round_trip():
    rng = np.random.default_rng(7)
    a = np.eye(20) + 0.1 * rng.standard_normal((20, 20))
    x = rng.standard_normal(20)
    recovered, _, warn = dense_solve(a, a @ x)
    assert np.max(np.abs(recovered - x)) < 1e-11
    assert not warn


def test_dense_solve_singular_raises():
    with pytest.raises(SingularMatrixError):
        dense_solve(np.array([[1.0, 2.0], [2.0, 4.0]]), np.array([1.0, 2.0]))


def _unbalanced(n, seed):
    """A well-conditioned nonsymmetric matrix whose rows and columns are
    scaled unevenly, so that its 1- and infinity-norm condition numbers
    differ, and A and A^T have different solutions."""
    rng = np.random.default_rng(seed)
    a = np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n)
    return a * np.logspace(0, 3, n)[:, None] * rng.uniform(0.5, 2.0, n)


def _one_panel_matrix(name, n):
    problem = catalog_lookup(name)
    part = build_partition(problem.a, problem.b, orders=n)
    return assemble_blocks(problem.kernel, part, problem.lam, problem.rhs).matrix


def _matrices():
    yield "unbalanced-5", _unbalanced(5, 1)
    yield "unbalanced-200", _unbalanced(200, 2)
    yield "example1-300", _one_panel_matrix("example1", 300).dense()
    yield "example2-511", _one_panel_matrix("example2", 511).dense()


@pytest.mark.parametrize("label, matrix", list(_matrices()))
def test_dense_solve_matches_numpy(label, matrix):
    rhs = np.random.default_rng(len(matrix)).standard_normal(len(matrix))
    x, _, _ = dense_solve(matrix, rhs)
    expected = np.linalg.solve(matrix, rhs)
    assert np.max(np.abs(x - expected)) <= 1e-12 * np.max(np.abs(expected))


@pytest.mark.parametrize("label, matrix", list(_matrices()))
def test_dense_solve_rcond_matches_fortran_layout_gecon(label, matrix):
    # reference: LAPACK on a Fortran-order copy of A itself, 1-norm estimate
    getrf, gecon = linalg.get_lapack_funcs(("getrf", "gecon"), (matrix,))
    lu, _piv, info = getrf(np.asfortranarray(matrix))
    assert info == 0
    expected, _ = gecon(lu, np.linalg.norm(matrix, 1))
    _, rcond, _ = dense_solve(matrix, np.ones(len(matrix)))
    assert rcond == pytest.approx(expected, rel=1e-9)


@pytest.mark.parametrize("where", ["row", "column"])
def test_dense_solve_zero_row_or_column_raises(where):
    matrix = _unbalanced(40, 3)
    if where == "row":
        matrix[17] = 0.0
    else:
        matrix[:, 17] = 0.0
    with pytest.raises(SingularMatrixError):
        dense_solve(matrix, np.ones(40))


def test_dense_solve_near_singular_warns():
    a = np.array([[1.0, 0.0], [0.0, 1e-15]])
    x, rcond, warn = dense_solve(a, np.array([1.0, 1e-15]))
    assert warn
    assert rcond < 1e-12
    assert x == pytest.approx([1.0, 1.0])


def test_a_refinement_that_keeps_contracting_gives_up_after_max_refine(monkeypatch):
    # H^{-1} = 0.6 A^{-1} leaves 0.4 of the error after each step, so every
    # correction is below half the last, and working accuracy is some 40
    # steps away, past MAX_REFINE
    rng = np.random.default_rng(7)
    a = np.eye(40) + 0.3 * rng.standard_normal((40, 40)) / np.sqrt(40)
    rhs = rng.standard_normal(40)
    inverse = np.linalg.inv(a)
    solves = []

    def solve(r):
        solves.append(r)
        return 0.6 * (inverse @ r)

    norm_inf = np.abs(a).sum(axis=1).max()
    assert fredholm_solver._refine(lambda x: a @ x, rhs, solve, norm_inf) is None
    assert len(solves) == 1 + fredholm_solver.MAX_REFINE
    monkeypatch.setattr(fredholm_solver, "MAX_REFINE", 60)
    x = fredholm_solver._refine(lambda x: a @ x, rhs, solve, norm_inf)
    assert np.max(np.abs(a @ x - rhs)) <= 1e-14 * np.max(np.abs(rhs))


def test_dense_solve_rejects_wrong_length_rhs():
    with pytest.raises(ValueError, match="rhs has shape"):
        dense_solve(np.eye(3), np.ones(2))


def test_dense_solve_rejects_nonfinite_matrix():
    a = np.array([[1.0, np.nan], [0.0, 1.0]])
    with pytest.raises(ValueError):
        dense_solve(a, np.array([1.0, 1.0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_dense_solve_rejects_nonfinite_rhs(bad):
    # a well-conditioned matrix: LU would return x all NaN and no warning
    with pytest.raises(ValueError, match="non-finite"):
        dense_solve(np.eye(3) + 0.1, np.array([1.0, bad, 2.0]))


@given(st.integers(0, 2**32 - 1))
@settings(max_examples=200, deadline=None)
def test_schur_vector_action_identity(seed):
    # (A o B) c equals the diagonal of A diag(c) B^T
    rng = np.random.default_rng(seed)
    a = rng.uniform(-1.0, 1.0, (5, 5))
    b = rng.uniform(-1.0, 1.0, (5, 5))
    c = rng.uniform(-1.0, 1.0, 5)
    lhs = (a * b) @ c
    rhs = np.diag(a @ np.diag(c) @ b.T)
    assert np.max(np.abs(lhs - rhs)) < 1e-13


def _fused_and_split_blocks(kernel, grid, lam):
    # the fused semismooth block, and the same block from W and V
    ops = build_operators(grid.order)
    t = grid.nodes
    k1 = kernel.eval_lower(t[:, None], t[None, :])
    k2 = kernel.eval_upper(t[:, None], t[None, :])
    scale = lam * grid.width / 2.0
    W, V = integration_matrices(ops)
    split = np.eye(grid.order + 1) + scale * (W * k1 + V * k2)
    return semismooth_block(ops, slice_sampler(k1), slice_sampler(k2), scale), split


@pytest.mark.parametrize("n", [1, 4, 63, 1023])
@pytest.mark.parametrize("name", ["example1", "example2", "example3", "example4"])
def test_semismooth_block_matches_split_operators(name, n):
    # the fused assembly never forms W or V; it must agree with them to
    # rounding.  example4 is singular at t = s = 0, so it is checked on both
    # panels of the partition at 0
    problem = catalog_lookup(name)
    kernel = problem.kernel
    part = build_partition(problem.a, problem.b, orders=n, singular_points=kernel.singular_points)
    for grid in part.grids:
        fused, split = _fused_and_split_blocks(kernel, grid, problem.lam)
        assert np.max(np.abs(fused - split)) <= 1e-13 * n * np.max(np.abs(split))


def test_composite_diagonal_block_matches_split_operators():
    problem = catalog_lookup("example2", T=200 * np.pi)
    edges = np.linspace(problem.a, problem.b, 5)
    part = build_partition(problem.a, problem.b, breakpoints=tuple(edges[1:-1]), orders=63)
    system = assemble_blocks(problem.kernel, part, problem.lam, problem.rhs)
    _, split = _fused_and_split_blocks(problem.kernel, part.grids[1], problem.lam)
    assert np.max(np.abs(system.matrix.block(1, 1) - split)) <= 1e-13 * 63 * np.max(np.abs(split))


def _block_orders(entries):
    """Orders whose n + 1 rows, at ``entries`` entries per row block, fill
    less than one block, exactly one, and one block plus a short one."""
    side = math.isqrt(entries)
    return [side - 2, side - 1, side]


@pytest.mark.parametrize(
    "entries, n",
    [(None, n) for n in _block_orders(fredholm_solver.ROW_BLOCK_ENTRIES)]
    + [(None, 1023), (None, 1000)]
    + [(12, n) for n in (1, 2, 3, 5, 6, 20)],
)
def test_semismooth_block_is_bitwise_the_whole_array_formula(monkeypatch, entries, n):
    # the row blocks take the whole-array steps in the same order, so every
    # entry is bitwise the same, below, at and across block boundaries; with
    # 12 entries per block, orders 1..20 cut 2 to 21 rows into blocks of 6
    # rows down to 1
    if entries is not None:
        monkeypatch.setattr(fredholm_solver, "ROW_BLOCK_ENTRIES", entries)
    ops = build_operators(n)
    k1, k2 = np.random.default_rng(n).uniform(-2.0, 2.0, (2, n + 1, n + 1))
    reference = semismooth_block_reference(build_operators(n), k1, k2, 0.37)
    sampled = []

    def lower(rows):
        sampled.append((rows.start, rows.stop))
        return k1[rows]

    assert np.array_equal(semismooth_block(ops, lower, slice_sampler(k2), 0.37), reference)
    assert all(np.ndim(value) <= 1 for value in vars(ops).values())
    # the sampler is asked once per row block, for consecutive row ranges
    rows = max(1, fredholm_solver.ROW_BLOCK_ENTRIES // (n + 1))
    assert sampled == [(start, min(start + rows, n + 1)) for start in range(0, n + 1, rows)]


def test_block_orders_cover_every_case():
    entries = fredholm_solver.ROW_BLOCK_ENTRIES
    shapes = []
    for n in _block_orders(entries):
        rows = max(1, entries // (n + 1))
        shapes.append(((n + 1) // rows, (n + 1) % rows))  # (whole blocks, rows left over)
    below, at, across = shapes
    assert below[0] == 0 and below[1] > 0
    assert at == (1, 0)
    assert across[0] == 1 and across[1] > 0


@pytest.mark.skipif(not __debug__, reason="the row-sum check runs under __debug__ only")
def test_semismooth_block_checks_bracket_row_sums():
    ops = build_operators(40)
    bad = dataclasses.replace(ops, s_values=ops.s_values * 1.001)
    k = np.ones((41, 41))
    with pytest.raises(AssertionError):
        semismooth_block(bad, slice_sampler(k), slice_sampler(k), 1.0)


def test_semismooth_block_rejects_mismatched_shapes(monkeypatch):
    ops = build_operators(4)
    good = np.ones((5, 5))
    for bad in (np.ones((5, 4)), np.ones((4, 4)), np.ones(5)):
        with pytest.raises(ValueError, match="shape mismatch"):
            semismooth_block(ops, lambda rows: bad, slice_sampler(good), 1.0)
        with pytest.raises(ValueError, match="shape mismatch"):
            semismooth_block(ops, slice_sampler(good), lambda rows: bad, 1.0)
    # rows of the wrong shape in one row block only: 2 rows per block here,
    # and the sampler returns the rows asked for everywhere but in rows 2..3
    monkeypatch.setattr(fredholm_solver, "ROW_BLOCK_ENTRIES", 10)

    def one_bad_block(rows):
        return good[rows.start : rows.stop + (rows.start == 2)]

    with pytest.raises(ValueError, match=r"shape mismatch \(2, 5\) vs \(3, 5\) in rows 2:4"):
        semismooth_block(ops, slice_sampler(good), one_bad_block, 1.0)
    # a sampler that returns the whole sample, not the rows it was asked for
    with pytest.raises(ValueError, match=r"shape mismatch \(2, 5\) vs \(5, 5\) in rows 0:2"):
        semismooth_block(ops, lambda rows: good, slice_sampler(good), 1.0)


def _capture_operators(monkeypatch, module):
    built = []

    def capture(n):
        built.append(build_operators(n))
        return built[-1]

    monkeypatch.setattr(module, "build_operators", capture)
    return built


def test_discretizations_build_only_the_matrices_they_read(monkeypatch):
    problem = catalog_lookup("example2")
    part = build_partition(problem.a, problem.b, orders=1023)
    built = _capture_operators(monkeypatch, composite_solver)
    assemble_blocks(problem.kernel, part, problem.lam, problem.rhs)
    (split_ops,) = built
    # the block reads the bracket a row block at a time: no n x n matrix is cached
    assert all(np.ndim(value) <= 1 for value in vars(split_ops).values())
    built = _capture_operators(monkeypatch, fredholm_solver)
    discretize_smooth(problem.kernel, part.grids[0], problem.lam, problem.rhs)
    (smooth_ops,) = built
    assert all(np.ndim(value) <= 1 for value in vars(smooth_ops).values())


def test_smooth_rule_zero_kernel():
    grid = cheb_grid(8, -1.0, 1.0)
    system = discretize_smooth(lambda t, s: t * 0.0 + s * 0.0, grid, 1.0, np.cos)
    assert system.matrix.dense() == pytest.approx(np.eye(9))
    assert system.partition.grids == (grid,)
    sol = solve_composite(system)
    assert sol.node_values == pytest.approx(np.cos(grid.nodes))


def test_smooth_rule_constant_kernel_constant_solution():
    # x + integral over [-1,1] of x = 1 forces the constant solution 1/3
    grid = cheb_grid(10, -1.0, 1.0)
    system = discretize_smooth(lambda t, s: np.ones(np.broadcast(t, s).shape), grid, 1.0, lambda t: np.ones_like(t))
    sol = solve_composite(system)
    assert sol.node_values == pytest.approx(np.full(11, 1.0 / 3.0), abs=1e-13)
    assert sol.evaluate(0.77) == pytest.approx(1.0 / 3.0, abs=1e-13)


def test_semismooth_rule_zero_branches():
    part = build_partition(0.0, 2.0, orders=6)
    zero = lambda t, s: t * 0.0 + s * 0.0
    system = assemble_blocks(
        type("K", (), {"eval_lower": staticmethod(zero), "eval_upper": staticmethod(zero)})(),
        part,
        0.5,
        np.sin,
    )
    sol = solve_composite(system)
    assert sol.node_values == pytest.approx(np.sin(part.grids[0].nodes))


@pytest.mark.parametrize("n", [4, 16, 64])
def test_smooth_and_split_rules_agree_on_smooth_kernel(n):
    # with identical branches the two discretizations coincide; a plain
    # callable kernel is taken as two equal branches
    kernel = lambda t, s: np.exp(t * s)
    part = build_partition(-1.0, 1.0, orders=n)
    rhs = lambda t: np.cosh(t)
    sys_a = discretize_smooth(kernel, part.grids[0], 0.4, rhs)
    sys_b = assemble_blocks(kernel, part, 0.4, rhs)
    rng = np.random.default_rng(n)
    v = rng.uniform(-1.0, 1.0, n + 1)
    num = np.max(np.abs(sys_a.matrix.dense() @ v - sys_b.matrix.dense() @ v))
    assert num / np.max(np.abs(sys_b.matrix.dense() @ v)) < 1e-12
    xa = solve_composite(sys_a).node_values
    xb = solve_composite(sys_b).node_values
    assert np.max(np.abs(xa - xb)) < 1e-13


def test_one_panel_system_keeps_its_block_as_storage():
    # a one-panel system is DenseBlocks of its one block: the operator holds
    # the assembled block itself (8.0 MB at n = 1000), filled from
    # example1's factor pairs one row block at a time, and the solve takes
    # the two-grid, whose coarse system is a quarter of the order.  The peak
    # reads 9.1 MB, so one more n x n array, in the assembly or the solve,
    # fails the bound
    problem = catalog_lookup("example1")
    part = build_partition(problem.a, problem.b, orders=1000)
    system = assemble_blocks(problem.kernel, part, problem.lam, problem.rhs)
    assert isinstance(system.matrix, DenseBlocks)
    assert system.matrix.matrix.shape == (1001, 1001)
    tracemalloc.start()
    try:
        solve_fredholm(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, 1000)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 11e6


def test_discretize_semismooth_is_the_one_panel_assembly():
    problem = catalog_lookup("example1")
    grid = cheb_grid(12, problem.a, problem.b)
    system = discretize_semismooth(problem.kernel, grid, problem.lam, problem.rhs)
    part = build_partition(problem.a, problem.b, orders=12)
    expected = assemble_blocks(problem.kernel, part, problem.lam, problem.rhs)
    assert isinstance(system.matrix, DenseBlocks)
    assert system.partition.grids == (grid,)
    assert np.array_equal(system.matrix.dense(), expected.matrix.dense())
    assert np.array_equal(system.rhs, expected.rhs)


def test_sign_jump_problem_spectral_accuracy():
    problem = catalog_lookup("example1")
    sol = solve_fredholm(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, 16)
    err = relative_sup_error(sol.node_values, problem.solution(sol.nodes))
    assert err < 1e-13


def test_difference_kernel_problem_spectral_accuracy():
    problem = catalog_lookup("example2")
    sol = solve_fredholm(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, 16)
    err = relative_sup_error(sol.node_values, problem.solution(sol.nodes))
    assert err < 1e-12


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_error_decreases_until_rounding_floor(name):
    problem = catalog_lookup(name)
    errors = []
    for n in (4, 8, 12, 16, 20):
        sol = solve_fredholm(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, n)
        errors.append(relative_sup_error(sol.node_values, problem.solution(sol.nodes)))
    assert errors[-1] < 1e-12
    for prev, cur in zip(errors, errors[1:]):
        assert cur < prev or cur < 1e-12


def test_assembled_operator_matches_trapezium_quadrature():
    # (A - I) x / lam reproduces the split integrals of the exact solution
    problem = catalog_lookup("example2")
    part = build_partition(problem.a, problem.b, orders=16)
    grid = part.grids[0]
    system = assemble_blocks(problem.kernel, part, problem.lam, problem.rhs)
    x_exact = problem.solution(grid.nodes)
    integrals = (system.matrix.dense() - np.eye(17)) @ x_exact / problem.lam
    kern, x = problem.kernel, problem.solution
    for i, ti in enumerate(grid.nodes):
        s_left = np.linspace(problem.a, ti, 10**5 + 1)
        s_right = np.linspace(ti, problem.b, 10**5 + 1)
        oracle = np.trapezoid(kern.eval_lower(ti, s_left) * x(s_left), s_left) + np.trapezoid(
            kern.eval_upper(ti, s_right) * x(s_right), s_right
        )
        assert abs(integrals[i] - oracle) < 1e-6


def test_rhs_accepts_arrays_and_validates():
    grid = cheb_grid(4, -1.0, 1.0)
    kernel = lambda t, s: t * 0.0 + s * 0.0
    vals = np.arange(5.0)
    system = discretize_smooth(kernel, grid, 1.0, vals)
    assert system.rhs == pytest.approx(vals)
    with pytest.raises(ValueError):
        discretize_smooth(kernel, grid, 1.0, np.arange(4.0))
    with pytest.raises(ValueError):
        discretize_smooth(kernel, grid, 1.0, np.array([1.0, np.inf, 0.0, 0.0, 0.0]))


def test_evaluate_reproduces_node_values():
    problem = catalog_lookup("example1")
    sol = solve_fredholm(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, 12)
    nodes = sol.nodes
    assert sol.evaluate(nodes) == pytest.approx(sol.node_values, abs=1e-12)


def test_evaluate_off_grid_accuracy():
    problem = catalog_lookup("example1")
    sol = solve_fredholm(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, 16)
    assert abs(sol.evaluate(0.123) - np.exp(-0.123)) < 1e-11


def test_evaluate_constant_interpolant():
    grid = cheb_grid(7, 0.0, 3.0)
    values = np.full(8, 4.5)
    coeffs = inverse_cosine_matrix(7) @ values
    from chebfred.fredholm_solver import ChebSolution

    sol = ChebSolution(grids=(grid,), values=(values,), coeffs=(coeffs,), rcond=1.0, cond_warning=False)
    for t in (0.0, 0.1, 1.7, 3.0):
        assert sol.evaluate(t) == pytest.approx(4.5, abs=1e-12)


def test_evaluate_rejects_exterior_points():
    problem = catalog_lookup("example1")
    sol = solve_fredholm(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, 8)
    with pytest.raises(ValueError):
        sol.evaluate(1.5)
    with pytest.raises(ValueError):
        sol.evaluate(np.array([0.0, -2.0]))


def test_evaluate_near_boundary_probe():
    # measured, not bounded: interpolant error close to the interval ends for
    # the boundary-singular kernel, printed for the record
    problem = catalog_lookup("example3")
    sol = solve_fredholm(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, 32)
    probes = np.linspace(-0.999, 0.999, 4001)
    err = np.max(np.abs(sol.evaluate(probes) - problem.solution(probes)))
    print(f"off-grid sup error near the boundary, order 32: {err:.3e}")
    assert np.isfinite(err)


def test_relative_sup_error_conventions():
    assert relative_sup_error(np.array([1.1, 2.0]), np.array([1.0, 2.0])) == pytest.approx(0.05)
    # all-zero reference falls back to the absolute sup norm
    assert relative_sup_error(np.array([0.5, -0.25]), np.zeros(2)) == pytest.approx(0.5)
