"""The composite system as a block operator, checked against one dense array."""

import tracemalloc

import numpy as np
import pytest

from chebfred import hierarchical
from chebfred.block_operator import DenseBlocks, ToeplitzBlocks, as_block_operator
from chebfred.composite_solver import assemble_blocks, build_partition, solve_composite
from chebfred.fredholm_solver import dense_solve, relative_sup_error, semismooth_block
from chebfred.kernel_catalog import catalog_lookup
from chebfred.spectral_core import build_operators

T_200PI = 200.0 * np.pi
T_2000PI = 2000.0 * np.pi


def _problem_and_partition(name, panels, order, **overrides):
    problem = catalog_lookup(name, **overrides)
    edges = np.linspace(problem.a, problem.b, panels + 1)
    partition = build_partition(
        problem.a, problem.b, breakpoints=tuple(edges[1:-1]), orders=order,
        singular_points=problem.kernel.singular_points,
    )
    return problem, partition


def _dense_assembly(kernel, partition, lam, toeplitz):
    """Reference: every block written into one N x N array, row panel by row
    panel; with ``toeplitz`` the block j - i is sampled at its first (j, i)
    and copied along its diagonal."""
    grids, offsets = partition.grids, partition.offsets
    matrix = np.zeros((offsets[-1], offsets[-1]))
    block_cache = {}
    for j, gj in enumerate(grids):
        rows = slice(offsets[j], offsets[j + 1])
        for i, gi in enumerate(grids):
            cols = slice(offsets[i], offsets[i + 1])
            if toeplitz and j - i in block_cache:
                matrix[rows, cols] = block_cache[j - i]
                continue
            ops_i = build_operators(gi.order)
            if i == j:
                k1 = kernel.eval_lower(gj.nodes[:, None], gj.nodes[None, :])
                k2 = kernel.eval_upper(gj.nodes[:, None], gj.nodes[None, :])
                block = semismooth_block(ops_i, k1, k2, lam * gj.width / 2.0)
            else:
                tt, ss = gj.nodes[:, None], gi.nodes[None, :]
                kv = kernel.eval_lower(tt, ss) if i < j else kernel.eval_upper(tt, ss)
                block = (lam * gi.width / 2.0) * kv * ops_i.full_weights[None, :]
            matrix[rows, cols] = block
            block_cache[j - i] = block
    return matrix


@pytest.fixture(scope="module", params=[
    ("example2", 8, 127, {"T": T_200PI}),
    ("example2", 32, 63, {"T": T_200PI}),
    ("example4", 16, 63, {}),
])
def assembled(request):
    name, panels, order, overrides = request.param
    problem, partition = _problem_and_partition(name, panels, order, **overrides)
    system = assemble_blocks(problem.kernel, partition, problem.lam, problem.rhs)
    # example2 is a difference kernel on equal panels, example4 is not
    toeplitz = isinstance(system.matrix, ToeplitzBlocks)
    assert toeplitz == (name == "example2")
    dense = _dense_assembly(problem.kernel, partition, problem.lam, toeplitz)
    return system, dense


def test_materialisation_is_bitwise_the_dense_assembly(assembled):
    system, dense = assembled
    op = system.matrix
    assert len(op) == len(dense) and op.shape == dense.shape
    assert np.array_equal(op.dense(), dense)
    off = op.offsets
    assert np.array_equal(op.dense(3, 7), dense[off[3] : off[7], off[3] : off[7]])


def test_products_match_the_dense_products(assembled):
    system, dense = assembled
    op, off, m = system.matrix, system.matrix.offsets, system.matrix.panels
    scale = 1e-15 * max(np.linalg.norm(dense, 1), np.linalg.norm(dense, np.inf))
    rng = np.random.default_rng(7)
    for rows, cols in (((0, m), (0, m)), ((0, m // 2), (m // 2, m)), ((m - 3, m), (1, m - 2))):
        block = dense[off[rows[0]] : off[rows[1]], off[cols[0]] : off[cols[1]]]
        for k in (None, 1, 5):
            shape = (block.shape[1],) if k is None else (block.shape[1], k)
            x = rng.standard_normal(shape)
            y = rng.standard_normal((block.shape[0],) + shape[1:])
            assert np.max(np.abs(op.matmul(x, rows, cols) - block @ x)) <= scale * np.max(np.abs(x))
            assert np.max(np.abs(op.rmatmul(y, rows, cols) - block.T @ y)) <= scale * np.max(np.abs(y))


def test_norms_match_numpy(assembled):
    system, dense = assembled
    assert system.matrix.norm1() == pytest.approx(np.linalg.norm(dense, 1), rel=1e-14)
    assert system.matrix.norm_inf() == pytest.approx(np.linalg.norm(dense, np.inf), rel=1e-14)


def test_wrong_operand_length_raises(assembled):
    system, _ = assembled
    with pytest.raises(ValueError, match="rows"):
        system.matrix.matmul(np.ones(len(system.matrix) + 1))


def _tree_nodes(root):
    seen, stack = {}, [root]
    while stack:
        node = stack.pop()
        seen[id(node)] = node
        if isinstance(node, hierarchical._Node):
            stack += [node.left, node.right]
    return list(seen.values())


def test_toeplitz_tree_shares_one_subtree_per_panel_count(monkeypatch):
    problem, partition = _problem_and_partition("example2", 32, 63, T=T_200PI)
    op = assemble_blocks(problem.kernel, partition, problem.lam, problem.rhs).matrix
    assert isinstance(op, ToeplitzBlocks)
    calls = []
    compress = hierarchical._compress

    def counted(*args):
        calls.append(args)
        return compress(*args)

    monkeypatch.setattr(hierarchical, "_compress", counted)
    tol = hierarchical.SKETCH_TOL * op.norm1()
    root = hierarchical._build(op, 0, op.panels, tol, np.random.default_rng(0), {})
    nodes = _tree_nodes(root)
    # panel counts 32, 16, 8, 4 are nodes and 2 is the leaf: one object each
    assert sorted(node.size // 64 for node in nodes) == [2, 4, 8, 16, 32]
    # two off-diagonal blocks per distinct node, where the unshared tree has 30
    assert len(calls) == 8


def test_long_interval_solves_without_the_dense_matrix():
    # 128 panels of order 63: N = 8192, whose dense matrix alone is 537 MB
    problem, partition = _problem_and_partition("example2", 128, 63, T=T_2000PI)
    tracemalloc.start()
    try:
        solution = solve_composite(assemble_blocks(problem.kernel, partition, problem.lam, problem.rhs))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    error = relative_sup_error(solution.node_values, problem.solution(solution.nodes))
    # 64 nodes per panel of width 49 is the resolution limit here
    assert 3.9e-5 < error < 4.0e-5
    assert peak < 537e6 / 20


def _random_operator(seed, toeplitz, panels=8, size=128):
    rng = np.random.default_rng(seed)
    offsets = np.arange(panels + 1) * size
    if toeplitz:
        diagonals = {d: rng.standard_normal((size, size)) / np.sqrt(panels * size)
                     for d in range(1 - panels, panels)}
        diagonals[0] = diagonals[0] + np.eye(size)
        return ToeplitzBlocks(offsets, diagonals)
    n = panels * size
    return DenseBlocks(np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n), offsets)


@pytest.mark.parametrize("toeplitz", [True, False])
def test_full_rank_operator_returns_the_dense_lu_answer(toeplitz):
    op = _random_operator(3, toeplitz)
    rhs = np.ones(len(op))
    assert hierarchical.hierarchical_solve(op, rhs) is None
    plain = dense_solve(op.dense(), rhs)
    blocked = dense_solve(op, rhs)
    assert np.array_equal(plain[0], blocked[0])
    assert abs(blocked[1] - plain[1]) <= 4 * np.finfo(float).eps * plain[1]


@pytest.mark.parametrize("toeplitz", [True, False])
def test_nonfinite_off_diagonal_block_raises(toeplitz):
    op = _random_operator(4, toeplitz)
    op.block(2, 5)[5, 6] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        dense_solve(op, np.ones(len(op)))


def test_offsets_must_cut_the_matrix():
    with pytest.raises(ValueError, match="offsets"):
        as_block_operator(np.eye(4), [0, 2, 5])
