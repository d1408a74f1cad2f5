"""Composite systems of difference kernels stated by factor pairs.

On panels of equal width and order, a kernel whose branches are
``Separable`` is stored as ``FactoredBlocks``: its diagonal blocks, each
filled at its own panel's nodes, and the branch factors at every node.  Its
entries must be bitwise those the same kernel assembles at its own nodes as
``DenseBlocks`` (``difference_form=False``); its products, |A| sums and
stated factors are checked against those entries in long double.
"""

import dataclasses
import math

import numpy as np
import pytest
from dense_oracle import record_branch_calls

from chebfred import hierarchical
from chebfred.block_operator import DenseBlocks, FactoredBlocks
from chebfred.composite_solver import assemble_blocks, build_partition, solve_partitioned
from chebfred.fredholm_solver import dense_solve, relative_sup_error
from chebfred.kernel_catalog import SemismoothKernel, catalog_lookup

EPS = np.finfo(float).eps
WIDE = np.longdouble
T_200PI = 200.0 * math.pi
# the many_panel layouts, then two panels and many small ones
LAYOUTS = [(8, 127), (16, 63), (32, 63), (64, 31), (2, 399), (256, 7)]
MANY_PANEL = LAYOUTS[:4]


def _problem(name="example2", difference_form=True, **overrides):
    problem = catalog_lookup(name, **overrides)
    kernel = dataclasses.replace(problem.kernel, difference_form=difference_form)
    return dataclasses.replace(problem, kernel=kernel)


def _system(problem, panels, order):
    edges = np.linspace(problem.a, problem.b, panels + 1)
    part = build_partition(problem.a, problem.b, breakpoints=tuple(edges[1:-1]), orders=order)
    return assemble_blocks(problem.kernel, part, problem.lam, problem.rhs)


def _wide_product(rows, x):
    """rows @ x in long double, rounded once."""
    return (rows.astype(WIDE) @ x.astype(WIDE)).astype(float)


# example2 at T = 200 pi and at its catalog T; example1's sign kernel, a
# difference kernel whose upper branch has factor pairs of its own
@pytest.mark.parametrize("name, overrides, panels, order", [
    *[("example2", {"T": T_200PI}, p, n) for p, n in LAYOUTS[:5]],
    ("example2", {}, 3, 20),
    ("example1", {}, 4, 15),
])
def test_entries_are_bitwise_the_own_node_assembly(monkeypatch, name, overrides, panels, order):
    problem = _problem(name, **overrides)
    calls = []
    record_branch_calls(monkeypatch, SemismoothKernel, calls)
    op = _system(problem, panels, order).matrix
    assert calls == []
    monkeypatch.undo()
    reference = _system(_problem(name, difference_form=False, **overrides), panels, order).matrix
    assert isinstance(op, FactoredBlocks) and isinstance(reference, DenseBlocks)
    assert np.array_equal(op.dense(), reference.matrix)
    p0, p1 = panels // 3, min(panels, panels // 3 + 3)
    assert np.array_equal(op.dense(p0, p1), reference.dense(p0, p1))
    for j, i in ((0, 0), (panels - 1, 0), (0, panels - 1), (1, 0), (p0, p1 - 1)):
        assert np.array_equal(op.block(j, i), reference.block(j, i))


# at most 0.32 eps; at 2 x 399, where the product of one diagonal block
# sums 400 terms, 1.02
@pytest.mark.parametrize("panels, order", MANY_PANEL + [(256, 7)])
def test_products_are_within_one_eps_of_abs_a_abs_x(panels, order):
    op = _system(_problem(T=T_200PI), panels, order).matrix
    dense = op.dense()
    rng = np.random.default_rng(panels)
    for k in (None, 1, 5):
        x = rng.standard_normal((len(op),) if k is None else (len(op), k))
        got = op.matmul(x)
        assert got.shape == x.shape
        size = np.abs(dense) @ np.abs(x)
        assert np.all(np.abs(got - _wide_product(dense, x)) <= EPS * size)


def test_products_of_2560_panels():
    # N = 10,240: the rows of four row panels, formed block by block in
    # long double, without the 840 MB dense matrix
    op = _system(_problem(T=20000.0 * math.pi), 2560, 3).matrix
    m, n = op.panels, op.size
    x = np.random.default_rng(5).standard_normal(len(op))
    got = op.matmul(x)
    for j in (0, 1, m // 2, m - 1):
        rows = np.hstack([op.block(j, i) for i in range(m)])
        block = slice(j * n, (j + 1) * n)
        assert np.all(np.abs(got[block] - _wide_product(rows, x)) <= EPS * (np.abs(rows) @ np.abs(x)))


@pytest.mark.parametrize("panels, order", MANY_PANEL)
def test_abs_sums_follow_the_toeplitz_rule(panels, order):
    # every diagonal block, and the first block of each block diagonal,
    # (d, 0) or (0, d), counted along its diagonal: within 4 eps of those
    # sums taken exactly (at most 3.0; at 2 x 399 and 256 x 7, where a sum
    # runs over 400 rows or 255 block diagonals, 6.2 and 4.6), and within
    # the rounding of the nodes (at most 57 eps) of the sums of |A| itself
    op = _system(_problem(T=T_200PI), panels, order).matrix
    m, n = op.panels, op.size
    cols, rows = np.zeros((m, n), WIDE), np.zeros((m, n), WIDE)
    for j in range(m):
        for i in range(m):
            d = j - i
            first = np.abs(op.block(*((j, j) if d == 0 else (d, 0) if d > 0 else (0, -d))).astype(WIDE))
            rows[j] += first.sum(axis=1)
            cols[i] += first.sum(axis=0)
    got_cols, got_rows = op.abs_sums()
    for got, exact in ((got_cols, cols.reshape(-1)), (got_rows, rows.reshape(-1))):
        assert np.all(np.abs(got - exact) <= 4 * EPS * exact)
    dense = np.abs(op.dense())
    for got, exact in ((got_cols, dense.sum(axis=0)), (got_rows, dense.sum(axis=1))):
        assert np.all(np.abs(got - exact) <= 1e-13 * exact)


@pytest.mark.parametrize("panels, order", [(8, 127), (32, 63)])
def test_stated_factors_reproduce_each_off_diagonal_range(panels, order):
    op = _system(_problem(T=T_200PI), panels, order).matrix
    dense, off, m = op.dense(), op.offsets, op.panels
    tol = hierarchical.SKETCH_TOL * op.norm1()
    for rows, cols in (((0, m // 2), (m // 2, m)), ((m // 2, m), (0, m // 2)), ((0, 1), (m - 1, m)),
                       ((m - 3, m), (0, 2)), ((2, 5), (5, 6))):
        u, v = op.off_diagonal_factors(rows, cols)
        block = dense[off[rows[0]] : off[rows[1]], off[cols[0]] : off[cols[1]]]
        assert u.shape == (len(block), 2) and v.shape == (block.shape[1], 2)
        assert np.all(np.abs(u @ v.T - block) <= 4 * EPS * (np.abs(u) @ np.abs(v).T))
        # the compression takes them as they are
        compressed = hierarchical._compress(op, rows, cols, tol)
        assert np.array_equal(compressed[0], u) and np.array_equal(compressed[1], v)
    assert [op.share_key(p0, p0 + 4) for p0 in range(m - 4)] == [4] * (m - 4)


def test_factors_wider_than_half_a_range_make_a_dense_leaf():
    # panels of two nodes: a one-panel range holds rank 1 at most, and the
    # factors have 2 columns
    op = _system(_problem(T=T_200PI), 16, 1).matrix
    assert hierarchical._compress(op, (0, 1), (1, 2), 0.0) is None
    assert hierarchical._compress(op, (0, 2), (2, 4), 0.0) is not None


def test_the_hierarchical_tree_shares_one_subtree_per_panel_count():
    op = _system(_problem(T=T_200PI), 32, 63).matrix
    root = hierarchical._build(op, 0, op.panels, hierarchical.SKETCH_TOL * op.norm1(), {})
    node, sizes = root, []
    while isinstance(node, hierarchical._Node):
        assert node.left is node.right
        sizes.append(node.size // 64)
        node = node.left
    assert sizes == [32, 16, 8, 4] and node.size == 128


@pytest.mark.parametrize("panels, order", [(8, 127), (32, 63), (64, 31)])
def test_long_interval_error_is_at_the_rounding_of_the_own_node_system(panels, order):
    # 1.6e-11, 1.8e-11 and 3.7e-11 when the blocks off the diagonal were
    # copies along their diagonals, sampled at other nodes than the rhs
    problem = catalog_lookup("example2", T=T_200PI)
    edges = np.linspace(problem.a, problem.b, panels + 1)
    solution = solve_partitioned(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs,
                                 breakpoints=tuple(edges[1:-1]), orders=order)
    assert relative_sup_error(solution.node_values, problem.solution(solution.nodes)) <= 1e-12


@pytest.mark.parametrize("where", ["diagonal", "factor"])
def test_a_non_finite_entry_raises(where):
    op = _system(_problem(T=T_200PI), 8, 127).matrix
    if where == "diagonal":
        op.diagonal[3][1, 2] = np.nan
    else:
        op.lower[0][700, 1] = np.inf
    assert not op.is_finite()
    with pytest.raises(ValueError, match="non-finite"):
        dense_solve(op, np.ones(len(op)))
