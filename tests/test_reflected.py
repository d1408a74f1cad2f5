"""The reflected-kernel fast path against the plain path.

A kernel or potential given without an upper branch is reflected, and is
sampled through its lower branch alone: ``semismooth_block`` reads its
upper branch as the lower one with the arguments swapped, off the diagonal
``assemble_blocks`` reads the upper samples as transposes
(``eval_mirrored``), and Schrodinger ``assemble`` takes V2 as the transpose
of V1, or its factors as V1's swapped.  The oracle is the same
kernel with its upper branch made explicit (``dense_oracle.unreflected``),
which samples both branches; every matrix must be bitwise the same.  The
catalog kernels are given as plain callables (``dense_oracle.plain``), so
that their one-panel blocks are sampled, not filled from factor pairs.
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from dense_oracle import plain, record_branch_calls, semismooth_block_reference, unreflected, whole_branches

from chebfred import fredholm_solver, schrodinger
from chebfred.block_operator import DenseBlocks
from chebfred.composite_solver import assemble_blocks, build_partition
from chebfred.kernel_catalog import KernelEvaluationError, NonlocalPotential, SemismoothKernel, catalog_lookup
from chebfred.schrodinger import _branch_samplers, assemble
from chebfred.spectral_core import build_operators, cheb_grid

# the most nodes n + 1 whose block is one row block of ``semismooth_block``
ONE_ROW_BLOCK = math.isqrt(fredholm_solver.ROW_BLOCK_ENTRIES)


def _both_paths(kernel, partition, lam, rhs):
    kernel = plain(kernel)
    fast = assemble_blocks(kernel, partition, lam, rhs).matrix
    explicit = assemble_blocks(unreflected(kernel), partition, lam, rhs).matrix
    return fast, explicit


def _uniform(problem, panels, order):
    edges = np.linspace(problem.a, problem.b, panels + 1)
    return build_partition(problem.a, problem.b, breakpoints=tuple(edges[1:-1]), orders=order)


# n + 1 = 2 (order 0 has no operators), one row block short of full, one
# full row block, two row blocks, and three with a short last one
ONE_PANEL_SIZES = (2, ONE_ROW_BLOCK - 1, ONE_ROW_BLOCK, ONE_ROW_BLOCK + 1, 2 * ONE_ROW_BLOCK + 3)


@pytest.mark.parametrize("size", ONE_PANEL_SIZES)
@pytest.mark.parametrize("name, overrides", [
    ("example2", {}),
    ("example2", {"T": 50 * math.pi}),
    ("example4", {}),
])
def test_one_panel_is_bitwise_the_plain_path(name, overrides, size):
    problem = catalog_lookup(name, **overrides)
    assert problem.kernel.k_upper is None
    fast, plain = _both_paths(problem.kernel, build_partition(problem.a, problem.b, orders=size - 1), problem.lam, problem.rhs)
    assert np.array_equal(fast.dense(), plain.dense())


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 7, 20])
def test_small_row_blocks_are_bitwise_the_plain_path(monkeypatch, n):
    # 12 entries per row block make row blocks of 12 // (n + 1) rows, so
    # orders 1..20 cover one row block, a short last one (n = 3), three of
    # two rows (n = 5) and one row per block (n >= 6)
    monkeypatch.setattr(fredholm_solver, "ROW_BLOCK_ENTRIES", 12)
    problem = catalog_lookup("example2", T=3.0)
    fast, plain = _both_paths(problem.kernel, build_partition(problem.a, problem.b, orders=n), problem.lam, problem.rhs)
    assert np.array_equal(fast.dense(), plain.dense())


def test_difference_kernel_blocks_are_bitwise_the_plain_path():
    problem = catalog_lookup("example2", T=200 * np.pi)
    fast, plain = _both_paths(problem.kernel, _uniform(problem, 8, 200), problem.lam, problem.rhs)
    assert isinstance(fast, DenseBlocks)
    assert np.array_equal(fast.dense(), plain.dense())


def test_dense_blocks_are_bitwise_the_plain_path():
    problem = catalog_lookup("example4")
    fast, plain = _both_paths(problem.kernel, _uniform(problem, 16, 63), problem.lam, problem.rhs)
    assert isinstance(fast, DenseBlocks)
    assert np.array_equal(fast.dense(), plain.dense())
    # unequal widths and orders: the mirrored strips are not square, and no
    # column factor lam w_i / 2 is a power of two, whose products are exact
    # in any order
    part = build_partition(problem.a, problem.b, breakpoints=(-0.3, 0.45), orders=(31, 200, 15), singular_points=(0.0,))
    fast, plain = _both_paths(problem.kernel, part, problem.lam, problem.rhs)
    assert np.array_equal(fast.dense(), plain.dense())


# 0.1 exp(-(p - r')^2 - p / 20) is past the rank cap, so both paths take the
# dense products: the reflected one with V2 the transpose of V1 in row-major
# order, which multiplies bitwise as the plain path's sampled V2
HIGH_RANK = NonlocalPotential(
    lower=lambda p, r2: 0.1 * np.exp(-((p - r2) ** 2) - p / 20.0), kappa=1.0, cutoff=20.0
)


# at ONE_ROW_BLOCK - 1 and ONE_ROW_BLOCK, n + 1 is the most nodes that one
# row block holds, and one more
@pytest.mark.parametrize("n", [32, 64, 255, ONE_ROW_BLOCK - 1, ONE_ROW_BLOCK, 384])
@pytest.mark.parametrize("name", ["schrod_separable", "schrod_pereybuck", "high_rank"])
def test_schrodinger_assembly_is_bitwise_the_plain_path(monkeypatch, name, n):
    # the plain path factors V2^T, which is bitwise V1, so it takes the
    # reflected path's factors bitwise
    pot = HIGH_RANK if name == "high_rank" else catalog_lookup(name).potential
    assert pot.upper is None
    dense = []
    spliced = schrodinger._spliced_branches
    monkeypatch.setattr(schrodinger, "_spliced_branches", lambda *args: dense.append(args) or spliced(*args))
    grid = cheb_grid(n, 0.0, pot.cutoff)
    _assert_bitwise_systems(pot, unreflected(pot), grid)
    assert len(dense) == (4 if pot is HIGH_RANK else 0)


def _assert_bitwise_systems(fast, plain, grid):
    """The systems of the potentials ``fast`` and ``plain`` on ``grid``, and
    their spliced branches, are bitwise the same."""
    assert np.array_equal(assemble(fast, grid).matrix.block(0, 0), assemble(plain, grid).matrix.block(0, 0))
    ops, n1 = build_operators(grid.order), grid.order + 1
    branches = [whole_branches(_branch_samplers(pot, grid, ops), n1) for pot in (fast, plain)]
    for k_fast, k_plain in zip(*branches):
        assert np.array_equal(k_fast, k_plain)


def _points(calls, branch):
    return sum(np.broadcast(t, s).size for name, t, s in calls if name == branch)


@pytest.mark.parametrize("explicit", [False, True])
@pytest.mark.parametrize("n", [1, ONE_ROW_BLOCK - 1, 2 * ONE_ROW_BLOCK + 2, 1023])
def test_one_panel_assembly_samples_each_branch_once_per_row_block(monkeypatch, n, explicit):
    # reflected or with its upper branch made explicit, the kernel is
    # sampled the same way: one call per branch per row block, which
    # together cover the (n + 1)^2 node pairs once
    problem = catalog_lookup("example2")
    kernel = unreflected(plain(problem.kernel)) if explicit else plain(problem.kernel)
    part = build_partition(problem.a, problem.b, orders=n)
    calls = []
    record_branch_calls(monkeypatch, SemismoothKernel, calls)
    assemble_blocks(kernel, part, problem.lam, problem.rhs)
    row_blocks = -(-(n + 1) // max(1, fredholm_solver.ROW_BLOCK_ENTRIES // (n + 1)))
    assert [name for name, _, _ in calls] == ["lower", "upper"] * row_blocks
    assert (_points(calls, "lower"), _points(calls, "upper")) == ((n + 1) ** 2, (n + 1) ** 2)


def test_reflected_one_panel_assembly_peak_at_n_1023():
    # the 8 MiB block plus one row block of each branch's samples and one of
    # work space
    problem = catalog_lookup("example2")
    part = build_partition(problem.a, problem.b, orders=1023)
    tracemalloc.start()
    try:
        assemble_blocks(plain(problem.kernel), part, problem.lam, problem.rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.3 * 2**20


def test_nan_in_a_reflected_kernel_raises_from_the_row_block_that_samples_it():
    # the upper branch reads k_lower with the arguments swapped, so a NaN in
    # the last node's row and column is caught in the first row block's
    # upper sample, and named for the lower branch, whose value it is
    problem = catalog_lookup("example2")
    part = build_partition(problem.a, problem.b, orders=2 * ONE_ROW_BLOCK + 2)
    last = part.grids[0].nodes[-1]
    kernel = dataclasses.replace(
        problem.kernel, k_lower=lambda t, s: np.where((t == last) | (s == last), np.nan, np.sin(t - s))
    )
    with pytest.raises(KernelEvaluationError, match="lower kernel branch"):
        assemble_blocks(kernel, part, problem.lam, problem.rhs)


@pytest.mark.parametrize("name", ["example2", "example4"])
def test_replacing_the_lower_branch_replaces_the_mirrored_upper_branch(name):
    # a reflected kernel with a new lower branch f is reflected in f: its
    # upper branch is f(s, t) wherever it is read, in eval_upper and eval as
    # in a one-panel assembly of two row blocks (n + 1 = 182)
    problem = catalog_lookup(name)
    f = lambda t, s: np.exp(0.5 * t) * np.cos(3.0 * s + 0.2)
    kernel = dataclasses.replace(problem.kernel, k_lower=f)
    part = build_partition(problem.a, problem.b, orders=ONE_ROW_BLOCK)
    t, s = part.grids[0].nodes[:, None], part.grids[0].nodes[None, :]
    assert np.array_equal(kernel.eval_upper(t, s), f(s, t))
    assert np.array_equal(kernel.eval(t, s), np.where(s <= t, f(t, s), f(s, t)))
    k1, k2 = kernel.eval_lower(t, s), kernel.eval_upper(t, s)
    scale = problem.lam * part.grids[0].width / 2.0
    reference = semismooth_block_reference(build_operators(ONE_ROW_BLOCK), k1, k2, scale)
    matrix = assemble_blocks(kernel, part, problem.lam, problem.rhs).matrix
    assert np.array_equal(matrix.dense(), reference)


@pytest.mark.parametrize("n", [64, ONE_ROW_BLOCK, 384])
@pytest.mark.parametrize("name", ["schrod_separable", "schrod_pereybuck"])
def test_replacing_the_lower_potential_branch_replaces_the_mirrored_upper_branch(name, n):
    # the same for a potential: assembled with its lower branch alone, it
    # gives bitwise the system of a potential whose two branches are its own
    # eval_lower and eval_upper
    pot = catalog_lookup(name).potential
    g = lambda p, r2: 0.1 * np.exp(-0.3 * p) / (1.0 + r2**2)
    replaced = dataclasses.replace(pot, lower=g)
    p, r2 = np.array([[0.4], [7.0]]), np.array([[1.5, 12.0, 19.0]])
    assert np.array_equal(replaced.eval_upper(p, r2), g(r2, p))
    explicit = NonlocalPotential(
        lower=replaced.eval_lower, upper=replaced.eval_upper, kappa=pot.kappa, cutoff=pot.cutoff
    )
    grid = cheb_grid(n, 0.0, pot.cutoff)
    _assert_bitwise_systems(replaced, explicit, grid)
