"""Multi-panel assembly: partition handling, block structure, storage."""

import dataclasses
import tracemalloc

import numpy as np
import pytest
from dense_oracle import integration_matrices, plain, record_branch_calls, semismooth_block_reference, unreflected

from chebfred import fredholm_solver
from chebfred.block_operator import DenseBlocks, FactoredBlocks
from chebfred.composite_solver import (
    assemble_blocks,
    build_partition,
    solve_composite,
    solve_partitioned,
)
from chebfred.fredholm_solver import relative_sup_error
from chebfred.kernel_catalog import KernelEvaluationError, SemismoothKernel, catalog_lookup
from chebfred.spectral_core import build_operators, cheb_grid


class TestBuildPartition:
    def test_plain_split(self):
        part = build_partition(0.0, 1.0, breakpoints=(0.25, 0.5), orders=8)
        assert part.breakpoints == pytest.approx([0.0, 0.25, 0.5, 1.0])
        assert len(part.grids) == 3
        assert part.orders == (8, 8, 8)

    def test_unsorted_breakpoints_raise(self):
        with pytest.raises(ValueError, match="increasing"):
            build_partition(0.0, 1.0, breakpoints=(0.5, 0.2))

    def test_exterior_breakpoint_raises(self):
        with pytest.raises(ValueError, match="inside"):
            build_partition(0.0, 1.0, breakpoints=(1.5,))

    def test_empty_interval_raises(self):
        with pytest.raises(ValueError):
            build_partition(1.0, 1.0)

    def test_singular_point_becomes_edge(self):
        part = build_partition(-1.0, 1.0, singular_points=(0.0,))
        assert part.breakpoints == pytest.approx([-1.0, 0.0, 1.0])

    def test_singular_point_deduped_against_breakpoint(self):
        part = build_partition(-1.0, 1.0, breakpoints=(0.0,), singular_points=(0.0,))
        assert len(part.grids) == 2

    def test_endpoint_singularities_ignored(self):
        part = build_partition(0.0, 1.0, singular_points=(0.0, 1.0))
        assert len(part.grids) == 1

    def test_orders_padded_from_short_sequence(self):
        part = build_partition(0.0, 1.0, breakpoints=(0.2, 0.6), orders=(4, 10))
        assert part.orders == (4, 10, 10)

    def test_too_many_orders_raise(self):
        with pytest.raises(ValueError, match="orders"):
            build_partition(0.0, 1.0, orders=(4, 4))

    def test_empty_orders_raise(self):
        with pytest.raises(ValueError, match="empty"):
            build_partition(0.0, 1.0, orders=())

    def test_offsets_are_cumulative_sizes(self):
        part = build_partition(0.0, 1.0, breakpoints=(0.3, 0.7), orders=(4, 6, 8))
        assert part.offsets == pytest.approx([0, 5, 12, 21])


def test_single_panel_matches_single_grid_discretization():
    # with no breakpoints the block system is bit for bit the one-panel
    # system, for a sampled kernel
    problem = catalog_lookup("example2")
    kernel = plain(problem.kernel)
    part = build_partition(problem.a, problem.b, orders=16)
    block = assemble_blocks(kernel, part, problem.lam, problem.rhs)
    grid = cheb_grid(16, problem.a, problem.b)
    t = grid.nodes
    k1 = kernel.eval_lower(t[:, None], t[None, :])
    k2 = kernel.eval_upper(t[:, None], t[None, :])
    single = semismooth_block_reference(build_operators(16), k1, k2, problem.lam * grid.width / 2.0)
    assert np.array_equal(block.matrix.dense(), single)
    assert np.array_equal(block.rhs, problem.rhs(t))


def test_off_diagonal_blocks_consistent_with_split_rule():
    # a source panel entirely on one side of the target contributes through
    # the plain full-interval weights; the split weights must sum to them
    for n in (4, 16, 48):
        ops = build_operators(n)
        rng = np.random.default_rng(n)
        kv = rng.uniform(0.5, 2.0, (n + 1, n + 1))
        W, V = integration_matrices(ops)
        split = (W + V) * kv
        stripped = kv * ops.full_weights[None, :]
        assert np.max(np.abs(split - stripped)) / np.max(np.abs(stripped)) < 1e-13


@pytest.mark.parametrize("orders", [16, (12, 20)])
def test_two_panel_solution_accuracy(orders):
    problem = catalog_lookup("example1")
    sol = solve_partitioned(
        problem.kernel,
        problem.a,
        problem.b,
        problem.lam,
        problem.rhs,
        breakpoints=(0.3,),
        orders=orders,
    )
    err = relative_sup_error(sol.node_values, problem.solution(sol.nodes))
    assert err < 1e-12


# the second probes leave the first two panels empty
@pytest.mark.parametrize("probes", [[-0.7, -0.4, -0.05, 0.3, 0.9], [0.5, 0.9]])
def test_evaluate_across_panels(probes):
    problem = catalog_lookup("example1")
    sol = solve_partitioned(
        problem.kernel,
        problem.a,
        problem.b,
        problem.lam,
        problem.rhs,
        breakpoints=(-0.4, 0.3),
        orders=20,
    )
    probes = np.array(probes)
    assert np.max(np.abs(sol.evaluate(probes) - problem.solution(probes))) < 1e-10


class TestFactoredStorage:
    """A difference kernel stated by factor pairs is stored as its factors
    only on several panels of equal width and order."""

    @staticmethod
    def _storage(name, breakpoints, orders):
        problem = catalog_lookup(name)
        part = build_partition(problem.a, problem.b, breakpoints=breakpoints, orders=orders)
        return type(assemble_blocks(problem.kernel, part, problem.lam, problem.rhs).matrix)

    def test_difference_kernel_uniform_panels(self):
        assert self._storage("example2", (catalog_lookup("example2").b / 2,), 8) is FactoredBlocks

    def test_unequal_widths_disable_factors(self):
        assert self._storage("example2", (catalog_lookup("example2").b / 3,), 8) is DenseBlocks

    def test_unequal_orders_disable_factors(self):
        assert self._storage("example2", (catalog_lookup("example2").b / 2,), (8, 12)) is DenseBlocks

    def test_general_kernel_never_factored(self):
        assert self._storage("example1", (0.0,), 8) is DenseBlocks


@pytest.mark.parametrize("panels, order", [(8, 127), (32, 63)])
def test_a_plain_difference_kernel_is_sampled_at_every_blocks_own_nodes(panels, order):
    # the branches as plain callables carry no factor pairs, so every block
    # is written into the N x N array at its own nodes, bitwise as without
    # the difference flag.  Copies of one block along its diagonal, at nodes
    # shifted by up to ulp(628), solved these to 1.6e-11 and 1.8e-11
    problem = catalog_lookup("example2", T=200.0 * np.pi)
    part = _uniform_partition(problem, panels, order)
    kernel = plain(problem.kernel)
    assert kernel.difference_form
    system = assemble_blocks(kernel, part, problem.lam, problem.rhs)
    assert isinstance(system.matrix, DenseBlocks)
    direct = assemble_blocks(dataclasses.replace(kernel, difference_form=False), part, problem.lam, problem.rhs)
    assert np.array_equal(system.matrix.matrix, direct.matrix.matrix)
    assert np.array_equal(system.rhs, direct.rhs)
    solution = solve_composite(system)
    assert relative_sup_error(solution.node_values, problem.solution(solution.nodes)) < 1e-12


@pytest.mark.parametrize("name, difference_form", [("example1", False), ("example2", True), ("example2", False)])
def test_a_branch_object_assembles_as_the_kernel_it_forwards_to(name, difference_form):
    # any object with eval_lower and eval_upper is the kernel of those two
    # branches, its difference_form flag kept: on three equal panels it
    # assembles to the same doubles as the catalog kernel given as plain
    # callables, reflected or not (the object's branches carry no factor
    # pairs, so its diagonal blocks are sampled)
    problem = catalog_lookup(name)
    kernel = dataclasses.replace(plain(problem.kernel), difference_form=difference_form)
    branches = type(
        "K",
        (),
        {
            "eval_lower": staticmethod(kernel.eval_lower),
            "eval_upper": staticmethod(kernel.eval_upper),
            "difference_form": difference_form,
        },
    )()
    edges = np.linspace(problem.a, problem.b, 4)
    part = build_partition(problem.a, problem.b, breakpoints=tuple(edges[1:-1]), orders=15)
    wrapped = assemble_blocks(branches, part, problem.lam, problem.rhs)
    direct = assemble_blocks(kernel, part, problem.lam, problem.rhs)
    assert isinstance(wrapped.matrix, DenseBlocks)
    assert np.array_equal(wrapped.matrix.dense(), direct.matrix.dense())


def test_long_range_difference_kernel_solution():
    problem = catalog_lookup("example2", T=200.0 * np.pi)
    edges = np.linspace(problem.a, problem.b, 9)
    sol = solve_partitioned(
        problem.kernel,
        problem.a,
        problem.b,
        problem.lam,
        problem.rhs,
        breakpoints=tuple(edges[1:-1]),
        orders=127,
    )
    err = relative_sup_error(sol.node_values, problem.solution(sol.nodes))
    assert err < 1e-9


def test_interior_kink_needs_the_partition():
    problem = catalog_lookup("example4")
    errors = []
    for n in (16, 32, 64):
        sol = solve_partitioned(
            problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, orders=n
        )
        assert sol.breakpoints == pytest.approx([-1.0, 0.0, 1.0])
        errors.append(relative_sup_error(sol.node_values, problem.solution(sol.nodes)))
    assert errors[0] > errors[1] > errors[2]
    assert errors[2] < 5e-7


def _uniform_partition(problem, panels, orders):
    edges = np.linspace(problem.a, problem.b, panels + 1)
    return build_partition(
        problem.a, problem.b, breakpoints=tuple(edges[1:-1]), orders=orders,
        singular_points=problem.kernel.singular_points,
    )


@pytest.mark.parametrize("reflected", [False, True])
@pytest.mark.parametrize("name, panels, orders, overrides", [
    ("example4", 16, 63, {}),
    ("example4", 3, (31, 63, 15), {}),
    ("example2", 32, 63, {"T": 200 * np.pi}),
    ("example2", 2, 63, {"T": 200 * np.pi}),
])
def test_off_diagonal_sampling_takes_one_call_per_branch_per_panel_row(
    monkeypatch, name, panels, orders, overrides, reflected
):
    # DenseBlocks: panel j samples the row strip left of its diagonal block
    # with one lower-branch call and the column strip above it with one
    # upper-branch call.  A diagonal block of order <= 180 is one row
    # block, sampled once per branch.  Both kernels are reflected, and
    # ``unreflected`` gives them an explicit upper branch; reflected, the
    # upper branch is called only on the diagonal blocks, since each
    # lower-branch call off the diagonal also gives its mirror.  The
    # kernels are given as plain callables, so that the diagonal blocks of
    # example2 are sampled
    problem = catalog_lookup(name, **overrides)
    assert problem.kernel.k_upper is None
    part = _uniform_partition(problem, panels, orders)
    kernel = plain(problem.kernel) if reflected else unreflected(plain(problem.kernel))
    calls = []
    record_branch_calls(monkeypatch, SemismoothKernel, calls)
    system = assemble_blocks(kernel, part, problem.lam, problem.rhs)
    m, grids = len(part.grids), part.grids

    def panel(x):
        return int(np.searchsorted(part.breakpoints, x.ravel()[0])) - 1

    off = []
    for branch, t, s in calls:
        j = panel(t)
        if not (np.array_equal(t.ravel(), grids[j].nodes) and np.array_equal(s.ravel(), grids[j].nodes)):
            # a row strip is keyed by its row panel, a column strip by its column panel
            off.append((j if branch == "lower" else panel(s), branch))
    on = len(calls) - len(off)
    assert isinstance(system.matrix, DenseBlocks)
    assert on == 2 * m
    branches = ("lower",) if reflected else ("lower", "upper")
    assert sorted(off) == sorted((j, branch) for j in range(1, m) for branch in branches)


def test_one_panel_assembly_holds_no_whole_branch_sample():
    # at n = 1023 the block is 8.0 MiB; the reflected example2 kernel, as a
    # plain callable, is sampled one row block of 32 rows at a time
    problem = catalog_lookup("example2")
    part = build_partition(problem.a, problem.b, orders=1023)
    tracemalloc.start()
    try:
        system = assemble_blocks(plain(problem.kernel), part, problem.lam, problem.rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    block_bytes = system.matrix.dense().nbytes
    assert block_bytes == 1024 * 1024 * 8
    assert peak < 1.3 * block_bytes


def test_nan_in_the_last_row_block_of_one_panel_raises(monkeypatch):
    # the lower branch is NaN only in the diagonal block's last row, which
    # is sampled by the last of 32 row blocks: the kernel has an explicit
    # upper branch, so it takes the row walk
    problem = catalog_lookup("example2")
    part = build_partition(problem.a, problem.b, orders=1023)
    last = part.grids[0].nodes[-1]
    kernel = dataclasses.replace(
        problem.kernel,
        k_lower=lambda t, s: np.where(t == last, np.nan, np.sin(t - s)),
        k_upper=lambda t, s: np.sin(s - t),
    )
    calls = []
    record_branch_calls(monkeypatch, SemismoothKernel, calls)
    with pytest.raises(KernelEvaluationError, match="lower kernel branch"):
        assemble_blocks(kernel, part, problem.lam, problem.rhs)
    rows = fredholm_solver.ROW_BLOCK_ENTRIES // 1024
    assert len(calls) == 2 * (1024 // rows - 1) + 1


def test_nan_in_one_off_diagonal_panel_of_a_row_raises():
    # example4 on 4 panels is DenseBlocks; the explicit upper branch is NaN
    # only for targets in panel 0 and sources in panel 3, one block of the
    # column strip above panel 3's diagonal block, which panel 3's mirrored
    # call samples after its finite row strip
    problem = catalog_lookup("example4")
    part = _uniform_partition(problem, 4, 31)
    edges = part.breakpoints
    lower = problem.kernel.k_lower
    kernel = dataclasses.replace(
        problem.kernel,
        k_upper=lambda t, s: np.where((t < edges[1]) & (s > edges[3]), np.nan, lower(s, t)),
    )
    # the same kernel with the NaN made finite is assembled as DenseBlocks
    finite = dataclasses.replace(
        kernel, k_upper=lambda t, s: np.where((t < edges[1]) & (s > edges[3]), 0.0, lower(s, t))
    )
    assert isinstance(assemble_blocks(finite, part, problem.lam, problem.rhs).matrix, DenseBlocks)
    with pytest.raises(KernelEvaluationError, match="upper kernel branch"):
        assemble_blocks(kernel, part, problem.lam, problem.rhs)
