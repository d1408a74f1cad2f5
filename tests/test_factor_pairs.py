"""Kernels stated by factor pairs, and the one-panel blocks filled from them.

Example1 and example2 give their branches as ``Separable`` factor pairs.
Their samples must be bitwise the expressions written out, and their
one-panel blocks, which ``semismooth_block`` fills from the factors at the
nodes without sampling, must match the sampled whole-array formula
(``dense_oracle.semismooth_block_reference``) to rounding, stated in units
of eps max|A|.  The sampler walks stay under their own tests, on the same
kernels given as plain callables (``dense_oracle.plain``).
"""

import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from dense_oracle import plain, record_branch_calls, semismooth_block_reference

from chebfred import cli, fredholm_solver
from chebfred.block_operator import DenseBlocks, FactoredBlocks
from chebfred.composite_solver import assemble_blocks, build_partition
from chebfred.fredholm_solver import dense_solve, relative_sup_error
from chebfred.kernel_catalog import KernelEvaluationError, SemismoothKernel, Separable, catalog_lookup
from chebfred.spectral_core import SpectralOperators, build_operators, cheb_grid

EPS = np.finfo(float).eps
# largest entrywise deviation from the sampled block, in eps max|A|; the
# catalog kernels read at most 3.8 (example2 at T = 2000 pi, n = 767) over
# orders 1-39 and 63-1023
BOUND_EPS = 8.0
FACTORED = [("example1", {}), ("example2", {}), ("example2", {"T": 50 * math.pi}), ("example2", {"T": 200 * math.pi})]
# the most nodes n + 1 whose block is one row block of ``semismooth_block``
ONE_ROW_BLOCK = math.isqrt(fredholm_solver.ROW_BLOCK_ENTRIES)


def _sampled_block(problem, grid):
    t = grid.nodes
    k1 = problem.kernel.eval_lower(t[:, None], t[None, :])
    k2 = problem.kernel.eval_upper(t[:, None], t[None, :])
    return semismooth_block_reference(build_operators(grid.order), k1, k2, problem.lam * grid.width / 2.0)


def _assert_close(matrix, reference):
    assert np.max(np.abs(matrix - reference)) <= BOUND_EPS * EPS * np.max(np.abs(reference))


def test_factor_pair_samples_are_bitwise_the_written_out_expressions():
    rng = np.random.default_rng(3)
    t = rng.uniform(-700.0, 700.0, (40, 1))
    s = rng.uniform(-700.0, 700.0, (1, 30))
    k = catalog_lookup("example2").kernel
    addition = lambda t, s: np.sin(t) * np.cos(s) - np.cos(t) * np.sin(s)
    assert isinstance(k.k_lower, Separable) and k.k_upper is None
    assert np.array_equal(k.eval_lower(t, s), addition(t, s))
    assert np.array_equal(k.eval_upper(t, s), addition(s, t))
    assert np.array_equal(k.eval(t, s), np.where(s <= t, addition(t, s), addition(s, t)))
    lower, mirror = k.eval_mirrored(t, s)
    assert np.array_equal(lower, addition(t, s)) and np.array_equal(mirror, addition(t, s).T)
    assert k.eval_lower(0.3, 0.7) == addition(0.3, 0.7)
    k = catalog_lookup("example1").kernel
    assert np.array_equal(k.eval_lower(t, s), np.full((40, 30), 1.0))
    assert np.array_equal(k.eval_upper(t, s), np.full((40, 30), -1.0))
    assert np.array_equal(k.eval(t, s), np.where(s <= t, 1.0, -1.0))
    assert k.eval_upper(0.3, 0.7) == -1.0


def test_a_reflected_kernels_upper_pairs_are_its_swapped_lower_pairs():
    k = catalog_lookup("example2").kernel
    t = cheb_grid(9, 0.0, 3.0).nodes
    f1, g1, f2, g2 = k.factors(t)
    assert np.array_equal(f2, g1) and np.array_equal(g2, f1)


@pytest.mark.parametrize("n", [1, 2, 16, ONE_ROW_BLOCK - 1, ONE_ROW_BLOCK, ONE_ROW_BLOCK + 1, 255, 1023])
@pytest.mark.parametrize("name, overrides", FACTORED)
def test_factored_block_matches_the_sampled_block_and_samples_nothing(monkeypatch, name, overrides, n):
    problem = catalog_lookup(name, **overrides)
    part = build_partition(problem.a, problem.b, orders=n)
    calls = []
    record_branch_calls(monkeypatch, SemismoothKernel, calls)
    matrix = assemble_blocks(problem.kernel, part, problem.lam, problem.rhs).matrix.dense()
    assert calls == []
    monkeypatch.undo()
    _assert_close(matrix, _sampled_block(problem, part.grids[0]))


@pytest.mark.parametrize("n", [1, 2, 3, 5, 6, 20])
def test_factored_row_blocks_of_a_few_rows(monkeypatch, n):
    # 12 entries per row block cut 2 to 21 rows into blocks of 6 rows down
    # to 1, and a short last one
    monkeypatch.setattr(fredholm_solver, "ROW_BLOCK_ENTRIES", 12)
    problem = catalog_lookup("example2", T=3.0)
    part = build_partition(problem.a, problem.b, orders=n)
    matrix = assemble_blocks(problem.kernel, part, problem.lam, problem.rhs).matrix.dense()
    _assert_close(matrix, _sampled_block(problem, part.grids[0]))


@pytest.mark.parametrize("name, panels, orders, overrides, storage", [
    ("example1", 4, 31, {}, DenseBlocks),
    ("example1", 3, (20, 31, 17), {}, DenseBlocks),
    ("example2", 8, 63, {"T": 200 * math.pi}, FactoredBlocks),
])
def test_composite_diagonal_blocks_are_factored_and_the_rest_is_sampled(name, panels, orders, overrides, storage):
    # off the diagonal the blocks are bitwise those the plain callables
    # sample at their own nodes (a difference kernel's too, whose factored
    # storage forms them from the factors); each diagonal block is the
    # factored fill
    problem = catalog_lookup(name, **overrides)
    edges = np.linspace(problem.a, problem.b, panels + 1)
    part = build_partition(problem.a, problem.b, breakpoints=tuple(edges[1:-1]), orders=orders)
    factored = assemble_blocks(problem.kernel, part, problem.lam, problem.rhs).matrix
    own_nodes = dataclasses.replace(plain(problem.kernel), difference_form=False)
    sampled = assemble_blocks(own_nodes, part, problem.lam, problem.rhs).matrix
    assert isinstance(factored, storage) and isinstance(sampled, DenseBlocks)
    for j in range(len(part.grids)):
        for i in range(len(part.grids)):
            if i != j:
                assert np.array_equal(factored.block(j, i), sampled.block(j, i))
        _assert_close(factored.block(j, j), sampled.block(j, j))


@pytest.mark.parametrize("name, overrides", FACTORED[:3])
def test_two_grid_solve_at_n_1023_from_factored_blocks(monkeypatch, name, overrides):
    # the two-grid answers, and its coarse rule is a factored fill too,
    # which samples nothing.  x agrees with the sampled system's answer to
    # the system's condition, 8 eps / rcond, and is as close to the analytic
    # solution (at T = 50 pi, 7.3e-14 against 7.2e-14; float64 LU of either
    # system reads 5e-13 there)
    problem = catalog_lookup(name, **overrides)
    part = build_partition(problem.a, problem.b, orders=1023)
    system = assemble_blocks(problem.kernel, part, problem.lam, problem.rhs)
    calls, built = [], []
    record_branch_calls(monkeypatch, SemismoothKernel, calls)
    twogrid = fredholm_solver.twogrid_solve
    monkeypatch.setattr(fredholm_solver, "twogrid_solve", lambda *args: built.append(args) or twogrid(*args))
    x, rcond, _ = dense_solve(system.matrix, system.rhs)
    assert calls == [] and len(built) == 1
    monkeypatch.undo()
    coarse_grid = cheb_grid(255, problem.a, problem.b)
    _assert_close(system.matrix.coarse(255), _sampled_block(problem, coarse_grid))
    sampled = assemble_blocks(plain(problem.kernel), part, problem.lam, problem.rhs)
    reference = dense_solve(sampled.matrix, sampled.rhs)[0]
    assert np.max(np.abs(x - reference)) <= 8.0 * EPS / rcond * np.max(np.abs(reference))
    exact = problem.solution(part.grids[0].nodes)
    assert relative_sup_error(x, exact) <= max(2.0 * relative_sup_error(reference, exact), 4.0 * EPS)


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_factored_assembly_peak_at_n_1023(name):
    # the 8 MiB block, one row block of work space and the O(n) factors,
    # within the bound of the sampler walks
    problem = catalog_lookup(name)
    part = build_partition(problem.a, problem.b, orders=1023)
    tracemalloc.start()
    try:
        assemble_blocks(problem.kernel, part, problem.lam, problem.rhs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 9.3 * 2**20


@pytest.mark.parametrize("name, branch", [("example1", "k_lower"), ("example1", "k_upper"), ("example2", "k_lower")])
@pytest.mark.parametrize("n", [16, ONE_ROW_BLOCK])
def test_replacing_a_branch_by_a_plain_callable_drops_the_factors(name, branch, n):
    # the replaced kernel is sampled by the row walk, the other branch of
    # example1 keeping its pairs and example2's upper branch reading the
    # replaced lower branch, bitwise the whole-array formula
    problem = catalog_lookup(name)
    replaced = getattr(problem.kernel, branch)
    kernel = dataclasses.replace(problem.kernel, **{branch: lambda t, s: replaced(t, s)})
    part = build_partition(problem.a, problem.b, orders=n)
    t = part.grids[0].nodes
    assert problem.kernel.factors(t) is not None and kernel.factors(t) is None
    matrix = assemble_blocks(kernel, part, problem.lam, problem.rhs).matrix.dense()
    assert np.array_equal(matrix, _sampled_block(dataclasses.replace(problem, kernel=kernel), part.grids[0]))


def _with_lower(problem, lower):
    return dataclasses.replace(problem, kernel=dataclasses.replace(problem.kernel, k_lower=lower))


def test_a_non_finite_factor_exits_4(monkeypatch, capsys):
    # g_1 = cos is NaN at the last node only, which no sampler is asked for
    problem = catalog_lookup("example2")
    last = cheb_grid(1023, problem.a, problem.b).nodes[-1]
    (f1, g1), second = problem.kernel.k_lower.pairs
    broken = Separable(((f1, lambda s: np.where(s == last, np.nan, g1(s))), second))
    monkeypatch.setattr(cli, "catalog_lookup", lambda *args, **kwargs: _with_lower(problem, broken))
    assert cli.main(["solve", "--problem", "example2", "--n", "1023"]) == 4
    assert "lower kernel branch factors evaluated to a non-finite value at 1 point(s)" in capsys.readouterr().err


def test_factors_whose_products_overflow_raise():
    huge = Separable(((lambda t: np.full(np.shape(t), 1e200), lambda s: np.full(np.shape(s), 1e200)),))
    problem = _with_lower(catalog_lookup("example2"), huge)
    part = build_partition(problem.a, problem.b, orders=8)
    with pytest.raises(KernelEvaluationError, match="lower kernel branch factors overflow their products"):
        assemble_blocks(problem.kernel, part, problem.lam, problem.rhs)
    with pytest.raises(KernelEvaluationError, match="lower kernel branch evaluated to a non-finite value"):
        assemble_blocks(plain(problem.kernel), part, problem.lam, problem.rhs)


@pytest.mark.skipif(not __debug__, reason="the bracket row-sum check runs under __debug__")
def test_the_factored_fill_checks_the_bracket_row_sums(monkeypatch):
    # a Toeplitz plus Hankel part off in one entry fails the debug check
    rows = SpectralOperators.toeplitz_hankel_rows

    def off_by_one_entry(self, start, stop, *args, **kwargs):
        out = rows(self, start, stop, *args, **kwargs)
        if start == 0:
            out[0, -1] += 1e-6
        return out

    monkeypatch.setattr(SpectralOperators, "toeplitz_hankel_rows", off_by_one_entry)
    problem = catalog_lookup("example1")
    with pytest.raises(AssertionError):
        assemble_blocks(problem.kernel, build_partition(problem.a, problem.b, orders=64), problem.lam, problem.rhs)
