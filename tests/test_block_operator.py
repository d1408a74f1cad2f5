"""The composite system as a block operator, checked against one dense array."""

import itertools
import tracemalloc

import numpy as np
import pytest
from dense_oracle import plain, semismooth_block_reference

from chebfred import fredholm_solver, hierarchical
from chebfred.block_operator import DenseBlocks, FactoredBlocks, as_block_operator
from chebfred.composite_solver import assemble_blocks, build_partition, solve_composite
from chebfred.fredholm_solver import dense_solve, refined_solve, relative_sup_error
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


def _dense_assembly(kernel, partition, lam):
    """Reference: every block written into one N x N array, row panel by row
    panel, each branch sampled on the whole block at its own nodes; a
    diagonal block is the whole-array formula of ``dense_oracle``."""
    grids, offsets = partition.grids, partition.offsets
    matrix = np.zeros((offsets[-1], offsets[-1]))
    for j, gj in enumerate(grids):
        rows = slice(offsets[j], offsets[j + 1])
        for i, gi in enumerate(grids):
            cols = slice(offsets[i], offsets[i + 1])
            ops_i = build_operators(gi.order)
            if i == j:
                k1 = kernel.eval_lower(gj.nodes[:, None], gj.nodes[None, :])
                k2 = kernel.eval_upper(gj.nodes[:, None], gj.nodes[None, :])
                block = semismooth_block_reference(ops_i, k1, k2, lam * gj.width / 2.0)
            else:
                tt, ss = gj.nodes[:, None], gi.nodes[None, :]
                kv = kernel.eval_lower(tt, ss) if i < j else kernel.eval_upper(tt, ss)
                block = (lam * gi.width / 2.0) * kv * ops_i.full_weights[None, :]
            matrix[rows, cols] = block
    return matrix


# example2 and example4 are reflected; example1 and example3 carry an upper
# branch, which DenseBlocks samples in the column strips above the diagonal;
# on 3 panels the column panels (1, m - 2) of the reader test are empty
SYSTEMS = [
    ("example2", 8, 127, {"T": T_200PI}),
    ("example2", 32, 63, {"T": T_200PI}),
    ("example4", 16, 63, {}),
    ("example1", 4, 31, {}),
    ("example3", 4, 20, {}),
    ("example3", 3, 20, {}),
]


@pytest.fixture(scope="module", params=SYSTEMS)
def assembled(request):
    # the kernels as plain callables: the diagonal blocks are sampled, so
    # they are bitwise the whole-array formula
    name, panels, order, overrides = request.param
    problem, partition = _problem_and_partition(name, panels, order, **overrides)
    kernel = plain(problem.kernel)
    system = assemble_blocks(kernel, partition, problem.lam, problem.rhs)
    # a difference kernel given as plain callables (example2) is sampled
    # at every block's own nodes, as the others are
    assert isinstance(system.matrix, DenseBlocks)
    return system, _dense_assembly(kernel, partition, problem.lam)


# one panel of orders 1023 and 1000: 32 whole row blocks of 32 rows, then
# 31 whole ones plus a short last one of 9 rows; example4 on 4 panels (3
# plus the singular point) of orders 31, 63, 15, 15, so one row's source
# panels differ in size and weights; example2 on two panels
@pytest.mark.parametrize("assembled", SYSTEMS + [
    ("example2", 1, 1000, {}),
    ("example2", 1, 1023, {}),
    ("example4", 3, (31, 63, 15), {}),
    ("example2", 2, 63, {"T": T_200PI}),
], indirect=True)
def test_materialisation_is_bitwise_the_dense_assembly(assembled):
    system, dense = assembled
    op = system.matrix
    assert len(op) == len(dense) == dense.shape[1]
    assert np.array_equal(op.dense(), dense)
    off = op.offsets
    p1 = min(7, op.panels)
    p0 = min(3, p1 - 1)
    assert np.array_equal(op.dense(p0, p1), dense[off[p0] : off[p1], off[p0] : off[p1]])


def test_products_match_the_dense_products(assembled):
    system, dense = assembled
    op = system.matrix
    scale = 1e-15 * max(np.linalg.norm(dense, 1), np.linalg.norm(dense, np.inf))
    rng = np.random.default_rng(7)
    for k in (None, 1, 5):
        x = rng.standard_normal((len(dense),) if k is None else (len(dense), k))
        got = op.matmul(x)
        assert got.shape == x.shape
        assert np.max(np.abs(got - dense @ x)) <= scale * np.max(np.abs(x))


def test_view_is_the_slice_of_the_dense_matrix(assembled):
    system, dense = assembled
    op, off, m = system.matrix, system.matrix.offsets, system.matrix.panels
    # whole, halves, unequal panel counts on either side, and one panel
    for rows, cols in (((0, m), (0, m)), ((0, m // 2), (m // 2, m)), ((m // 2, m), (0, m // 2)),
                       ((0, 1), (1, m)), ((1, m), (0, 1)), ((m - 1, m), (m - 1, m)),
                       ((m - 3, m), (1, m - 2))):
        block = dense[off[rows[0]] : off[rows[1]], off[cols[0]] : off[cols[1]]]
        view = op.view(rows, cols)
        assert view.shape == block.shape and np.array_equal(view, block)
        assert view.size == 0 or np.shares_memory(view, op.matrix)


def test_compression_gives_rank_zero_exactly_on_the_zero_blocks():
    # 5 panels of 3: the blocks above the diagonal are zero but for one
    # entry of each block (j, j + 2), which every range crossing it must find
    rng = np.random.default_rng(7)
    dense = np.kron(np.tril(np.ones((5, 5))), np.ones((3, 3))) * rng.standard_normal((15, 15))
    for j in range(3):
        dense[3 * j + 1, 3 * j + 8] = -0.5
    op = as_block_operator(dense, np.arange(0, 16, 3))
    ranks = {}
    for rows in itertools.combinations(range(6), 2):
        for cols in itertools.combinations(range(6), 2):
            block = dense[3 * rows[0] : 3 * rows[1], 3 * cols[0] : 3 * cols[1]]
            factors = hierarchical._compress(op, rows, cols, 1e-12)
            ranks[rows, cols] = None if factors is None else factors[0].shape[1]
            assert (ranks[rows, cols] == 0) == (not block.any()), (rows, cols)
    assert ranks[(0, 2), (2, 5)] != 0 and ranks[(0, 1), (3, 5)] == 0


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
    # example2 by its factor pairs on equal panels is block-Toeplitz
    problem, partition = _problem_and_partition("example2", 32, 63, T=T_200PI)
    op = assemble_blocks(problem.kernel, partition, problem.lam, problem.rhs).matrix
    assert isinstance(op, FactoredBlocks)
    calls = []
    compress = hierarchical._compress

    def counted(*args):
        calls.append(args)
        return compress(*args)

    monkeypatch.setattr(hierarchical, "_compress", counted)
    tol = hierarchical.SKETCH_TOL * op.norm1()
    root = hierarchical._build(op, 0, op.panels, tol, {})
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


def _random_operator(seed, factored, panels=8, size=128):
    rng = np.random.default_rng(seed)
    offsets = np.arange(panels + 1) * size
    n = panels * size
    if factored:
        # diagonal blocks I + D, and below (above) the diagonal every block
        # the one product F G^T of 300 columns, more than half of any panel
        # range; the entries are dyadic, so every product and |A| sum is
        # exact in any order and the Toeplitz rule of the sums holds exactly
        diagonal = np.eye(size) + rng.integers(-1, 2, (panels, size, size)) / 1024.0
        lower, upper = (
            tuple(np.tile(rng.integers(-1, 2, (size, 300)) / 256.0, (panels, 1)) for _ in range(2))
            for _ in range(2)
        )
        return FactoredBlocks(offsets, diagonal, lower, upper, np.ones(n), np.ones(n))
    return DenseBlocks(np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n), offsets)


@pytest.mark.parametrize("factored", [True, False])
def test_full_rank_operator_returns_the_dense_lu_answer(factored, monkeypatch):
    op = _random_operator(3, factored)
    rhs = np.ones(len(op))
    assert refined_solve(op, rhs, op.norm1()) is None
    blocked = dense_solve(op, rhs)
    # the same array as one panel, kept on float64 LU
    monkeypatch.setattr(fredholm_solver, "FLOAT32_CROSSOVER_N", len(op) + 1)
    plain = dense_solve(op.dense(), rhs)
    assert np.array_equal(plain[0], blocked[0])
    assert abs(blocked[1] - plain[1]) <= 4 * np.finfo(float).eps * plain[1]


@pytest.mark.parametrize("factored", [True, False])
def test_nonfinite_off_diagonal_block_raises(factored):
    op = _random_operator(4, factored)
    if factored:
        # block (2, 5) is formed from the upper factors, G at its columns
        op.upper[1][5 * op.size + 6] = np.nan
        assert np.isnan(op.block(2, 5)[:, 6]).all()
    else:
        op.block(2, 5)[5, 6] = np.nan
    with pytest.raises(ValueError, match="non-finite"):
        dense_solve(op, np.ones(len(op)))


def test_offsets_must_cut_the_matrix():
    with pytest.raises(ValueError, match="offsets"):
        as_block_operator(np.eye(4), [0, 2, 5])
