"""Multi-panel assembly: partition handling, block structure, Toeplitz reuse."""

import dataclasses

import numpy as np
import pytest

from chebfred.block_operator import ToeplitzBlocks
from chebfred.composite_solver import (
    assemble_blocks,
    build_partition,
    detect_toeplitz,
    solve_composite,
    solve_partitioned,
)
from chebfred.fredholm_solver import relative_sup_error, semismooth_block
from chebfred.kernel_catalog import catalog_lookup
from chebfred.spectral_core import build_operators, cheb_grid


class TestBuildPartition:
    def test_plain_split(self):
        part = build_partition(0.0, 1.0, breakpoints=(0.25, 0.5), orders=8)
        assert part.breakpoints == pytest.approx([0.0, 0.25, 0.5, 1.0])
        assert part.panels == 3
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
        assert part.panels == 2

    def test_endpoint_singularities_ignored(self):
        part = build_partition(0.0, 1.0, singular_points=(0.0, 1.0))
        assert part.panels == 1

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
    # with no breakpoints the block system is bit for bit the one-panel system
    problem = catalog_lookup("example2")
    part = build_partition(problem.a, problem.b, orders=16)
    block = assemble_blocks(problem.kernel, part, problem.lam, problem.rhs)
    grid = cheb_grid(16, problem.a, problem.b)
    t = grid.nodes
    k1 = problem.kernel.eval_lower(t[:, None], t[None, :])
    k2 = problem.kernel.eval_upper(t[:, None], t[None, :])
    single = semismooth_block(build_operators(16), k1, k2, problem.lam * grid.width / 2.0)
    assert np.array_equal(block.matrix.dense(), single)
    assert np.array_equal(block.rhs, problem.rhs(t))


def test_off_diagonal_blocks_consistent_with_split_rule():
    # a source panel entirely on one side of the target contributes through
    # the plain full-interval weights; the split weights must sum to them
    for n in (4, 16, 48):
        ops = build_operators(n)
        rng = np.random.default_rng(n)
        kv = rng.uniform(0.5, 2.0, (n + 1, n + 1))
        split = (ops.int_left + ops.int_right) * kv
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


def test_evaluate_across_panels():
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
    probes = np.array([-0.7, -0.4, -0.05, 0.3, 0.9])
    assert np.max(np.abs(sol.evaluate(probes) - problem.solution(probes))) < 1e-10


class TestToeplitzDetection:
    def test_difference_kernel_uniform_panels(self):
        problem = catalog_lookup("example2")
        part = build_partition(problem.a, problem.b, breakpoints=(problem.b / 2,), orders=8)
        assert detect_toeplitz(problem.kernel, part)

    def test_unequal_widths_disable_reuse(self):
        problem = catalog_lookup("example2")
        part = build_partition(problem.a, problem.b, breakpoints=(problem.b / 3,), orders=8)
        assert not detect_toeplitz(problem.kernel, part)

    def test_unequal_orders_disable_reuse(self):
        problem = catalog_lookup("example2")
        part = build_partition(
            problem.a, problem.b, breakpoints=(problem.b / 2,), orders=(8, 12)
        )
        assert not detect_toeplitz(problem.kernel, part)

    def test_general_kernel_never_reused(self):
        problem = catalog_lookup("example1")
        part = build_partition(problem.a, problem.b, breakpoints=(0.0,), orders=8)
        assert not detect_toeplitz(problem.kernel, part)


def test_toeplitz_reuse_matches_direct_assembly():
    problem = catalog_lookup("example2", T=200.0 * np.pi)
    edges = np.linspace(problem.a, problem.b, 5)
    part = build_partition(problem.a, problem.b, breakpoints=tuple(edges[1:-1]), orders=31)
    reused = assemble_blocks(problem.kernel, part, problem.lam, problem.rhs)
    assert isinstance(reused.matrix, ToeplitzBlocks)
    plain_kernel = dataclasses.replace(problem.kernel, difference_form=False)
    direct = assemble_blocks(plain_kernel, part, problem.lam, problem.rhs)
    assert not isinstance(direct.matrix, ToeplitzBlocks)
    diff = np.max(np.abs(reused.matrix.dense() - direct.matrix.dense()))
    assert diff / np.max(np.abs(direct.matrix.dense())) < 1e-11
    assert np.array_equal(reused.rhs, direct.rhs)


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
