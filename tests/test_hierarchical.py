"""Hierarchical (HODLR) solve of composite systems, checked against dense LU."""

import pathlib
import subprocess
import sys

import numpy as np
import pytest
from dense_oracle import lu_solve, plain
from scipy import linalg

from chebfred import fredholm_solver, hierarchical
from chebfred.block_operator import DenseBlocks, FactoredBlocks
from chebfred.composite_solver import assemble_blocks, build_partition, solve_composite
from chebfred.fredholm_solver import RCOND_WARN, SingularMatrixError, dense_solve, refined_solve
from chebfred.kernel_catalog import SemismoothKernel, catalog_lookup

T_200PI = 200.0 * np.pi


def _system(name, panels, order, sampled=False, **overrides):
    """The composite system the CLI builds for --panels/--n; with
    ``sampled``, of the kernel's branches as plain callables, so that a
    difference kernel on equal panels is sampled into ``DenseBlocks``
    rather than stored as ``FactoredBlocks``."""
    problem = catalog_lookup(name, **overrides)
    edges = np.linspace(problem.a, problem.b, panels + 1)
    partition = build_partition(
        problem.a,
        problem.b,
        breakpoints=tuple(edges[1:-1]),
        orders=order,
        singular_points=problem.kernel.singular_points,
    )
    kernel = plain(problem.kernel) if sampled else problem.kernel
    return assemble_blocks(kernel, partition, problem.lam, problem.rhs)


def _exact_discrete_solution(matrix, rhs):
    """Dense LU refined with residuals accumulated in extended precision."""
    factors = linalg.lu_factor(matrix)
    x = linalg.lu_solve(factors, rhs)
    wide = np.longdouble
    for _ in range(4):
        residual = np.empty(len(rhs), dtype=wide)
        for i in range(0, len(rhs), 256):
            rows = matrix[i : i + 256].astype(wide)
            residual[i : i + 256] = rhs[i : i + 256].astype(wide) - rows @ x.astype(wide)
        x = (x.astype(wide) + linalg.lu_solve(factors, residual.astype(float))).astype(float)
    return x


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


_EPS = np.finfo(float).eps


@pytest.fixture(scope="module", params=[
    ("example2", 8, 127, {"T": T_200PI}),
    ("example2", 32, 63, {"T": T_200PI}),
    ("example4", 16, 63, {}),
])
def case(request):
    name, panels, order, overrides = request.param
    system = _system(name, panels, order, **overrides)
    dense = system.matrix.dense()
    return system, dense, _exact_discrete_solution(dense, system.rhs)


def _assert_agrees_with_oracle(answer, dense, rhs, exact):
    """``dense_solve``'s answer against plain LU and the exact discrete solution."""
    x, rcond, warn = answer
    x_dense, rcond_dense = lu_solve(dense, rhs)
    # Plain LU is itself off by up to ~cond * eps (5.3e-12 at 32 x 63), so
    # both answers are measured against the exact discrete solution.
    assert _rel(x, exact) < 1e-12
    assert _rel(x, exact) <= max(_rel(x_dense, exact), 1e-13)
    assert _rel(x, x_dense) < 1e-12 + _rel(x_dense, exact)
    assert warn == (rcond_dense < RCOND_WARN)
    assert 0.1 < rcond / rcond_dense < 10.0


def test_hierarchical_path_agrees_with_dense_oracle(case):
    system, dense, exact = case
    assert len(system.matrix) >= hierarchical.CROSSOVER_N
    assert refined_solve(system.matrix, system.rhs, system.matrix.norm1()) is not None
    # the block operator, and the dense array cut at the same offsets
    for matrix in (system.matrix, DenseBlocks(dense, system.partition.offsets)):
        _assert_agrees_with_oracle(dense_solve(matrix, system.rhs), dense, system.rhs, exact)


def test_hierarchical_solve_is_bitwise_repeatable(case):
    system, _, _ = case
    x1, rcond1, _ = dense_solve(system.matrix, system.rhs)
    x2, rcond2, _ = dense_solve(system.matrix, system.rhs)
    assert np.array_equal(x1, x2)
    assert rcond1 == rcond2


def test_bench_details_reports_refinement_steps(monkeypatch):
    # scripts/bench_composite_solve.py reads the solver's internals, so a
    # change to them must keep its details() running
    monkeypatch.syspath_prepend(str(pathlib.Path(__file__).resolve().parents[1] / "scripts"))
    import bench_composite_solve

    system = _system("example2", 8, 127, T=T_200PI)
    dense = system.matrix.dense()
    lu_error = _rel(lu_solve(dense, system.rhs)[0], _exact_discrete_solution(dense, system.rhs))
    report = bench_composite_solve.details(system)
    assert isinstance(report["refinement_steps"], int)
    assert 1 <= report["refinement_steps"] <= fredholm_solver.MAX_REFINE
    # float64 LU is itself off by lu_error (1.4e-12 here), as in
    # test_hierarchical_path_agrees_with_dense_oracle
    assert report["deviation_from_lu"] < 1e-12 + lu_error


def test_factor_solves_with_matrix_and_transpose():
    system = _system("example2", 8, 127, T=T_200PI)
    op, matrix = system.matrix, system.matrix.dense()
    tol = hierarchical.SKETCH_TOL * np.linalg.norm(matrix, 1)
    root = hierarchical._build(op, 0, op.panels, tol, {})
    root.factor()
    b = np.random.default_rng(1).standard_normal((len(matrix), 3))
    assert _rel(matrix @ root.solve(b), b) < 1e-9
    assert _rel(matrix.T @ root.solve(b, 1), b) < 1e-9
    assert root.u1.shape[1] <= 4 and root.u2.shape[1] <= 4


@pytest.mark.parametrize("n", [2, 3, 17, 60])
def test_inverse_norm_estimate_matches_gecon(n):
    rng = np.random.default_rng(n)
    matrix = rng.standard_normal((n, n)) + 0.5 * n * np.diag(rng.uniform(0.01, 1.0, n))
    factors = linalg.lu_factor(matrix)
    estimate = hierarchical._inverse_norm1_estimate(
        lambda b: linalg.lu_solve(factors, b), lambda b: linalg.lu_solve(factors, b, trans=1), n
    )
    anorm = np.linalg.norm(matrix, 1)
    gecon = linalg.get_lapack_funcs("gecon", (matrix,))
    rcond, _ = gecon(factors[0], anorm)
    assert 1.0 / estimate / anorm == pytest.approx(rcond, rel=1e-10)
    assert estimate <= np.linalg.norm(np.linalg.inv(matrix), 1) * (1 + 1e-12)


def _blocked_random(n, panels, seed):
    rng = np.random.default_rng(seed)
    return np.eye(n) + rng.standard_normal((n, n)) / np.sqrt(n), np.linspace(0, n, panels + 1).astype(int)


def _same_lu_answer(plain, other):
    """x bitwise; rcond to a few ulps, since LAPACK gecon run twice on the same
    factors and norm can differ in its last bit; the warning flag exactly."""
    assert np.array_equal(plain[0], other[0])
    assert abs(other[1] - plain[1]) <= 4 * _EPS * plain[1]
    assert plain[2] == other[2]


def test_full_rank_coupling_returns_the_lu_answer(monkeypatch):
    matrix, offsets = _blocked_random(hierarchical.CROSSOVER_N, 4, 3)
    rhs = np.ones(len(matrix))
    blocked = DenseBlocks(matrix, offsets)
    assert refined_solve(blocked, rhs, blocked.norm1()) is None
    answer = dense_solve(blocked, rhs)
    # the same array as one panel, kept on float64 LU
    monkeypatch.setattr(fredholm_solver, "FLOAT32_CROSSOVER_N", len(matrix) + 1)
    _same_lu_answer(dense_solve(matrix, rhs), answer)


def _hard_operator(system, kind):
    """``system``'s matrix with off-diagonal blocks that partial pivoting finds hard.

    "spike" adds one entry of max|A| in the top-right corner block, far from
    every pivot a smooth block leads to; "zero_row" zeroes the first row of
    every block above the diagonal, which is the first row each compression
    of an upper block reads.
    """
    op, off = system.matrix, system.partition.offsets
    dense = op.dense()
    if kind == "spike":
        dense[3, -5] += np.abs(dense).max()
    else:
        for j in range(op.panels - 1):
            dense[off[j], off[j + 1] :] = 0.0
    return DenseBlocks(dense, off)


@pytest.mark.parametrize("kind", ["spike", "zero_row"])
# example2 from its factor pairs (FactoredBlocks) and sampled (DenseBlocks),
# whose diagonal blocks differ in rounding
@pytest.mark.parametrize("name, panels, order, overrides, sampled", [
    ("example2", 8, 127, {"T": T_200PI}, True),
    ("example2", 8, 127, {"T": T_200PI}, False),
    ("example4", 16, 63, {}, False),
])
def test_hard_blocks_agree_with_the_oracle_or_return_the_lu_answer(
    name, panels, order, overrides, sampled, kind, monkeypatch
):
    system = _system(name, panels, order, sampled=sampled, **overrides)
    assert isinstance(system.matrix, FactoredBlocks) == (name == "example2" and not sampled)
    op = _hard_operator(system, kind)
    dense, rhs = op.dense(), system.rhs
    answer = dense_solve(op, rhs)
    refined = refined_solve(op, rhs, op.norm1())
    if kind == "zero_row":
        # a zero first row must not end the compression
        assert refined is not None
    if refined is None:
        monkeypatch.setattr(fredholm_solver, "FLOAT32_CROSSOVER_N", len(dense) + 1)
        _same_lu_answer(dense_solve(dense, rhs), answer)
    else:
        _assert_agrees_with_oracle(answer, dense, rhs, _exact_discrete_solution(dense, rhs))


def test_zero_upper_blocks_are_given_rank_zero_from_one_row(monkeypatch):
    """A Volterra-type kernel (k_upper = 0) makes every block above the
    diagonal exactly zero.  Each such block must cost one row read, not one
    per row, and still take the hierarchical path to the oracle's answer."""
    kernel = SemismoothKernel(
        k_lower=lambda t, s: np.cos(t - s),
        k_upper=lambda t, s: np.zeros(np.broadcast(t, s).shape),
    )
    edges = np.linspace(0.0, 20.0, 17)
    partition = build_partition(0.0, 20.0, breakpoints=tuple(edges[1:-1]), orders=63)
    system = assemble_blocks(kernel, partition, 0.5, lambda t: np.ones_like(t))
    op = system.matrix
    assert isinstance(op, DenseBlocks)
    assert len(op) == hierarchical.CROSSOVER_N
    view, compress, reads, upper = op.view, hierarchical._compress, [0], []

    class Counted(np.ndarray):
        """A block view that counts its row reads, ``block[i]``."""

        def __getitem__(self, index):
            reads[0] += isinstance(index, (int, np.integer))
            return np.asarray(self)[index]

    def counted_view(rows, cols):
        return view(rows, cols).view(Counted)

    def watched_compress(op, rows, cols, tol):
        before = reads[0]
        factors = compress(op, rows, cols, tol)
        if rows[0] < cols[0]:
            upper.append((reads[0] - before, factors[0].shape[1]))
        return factors

    monkeypatch.setattr(op, "view", counted_view)
    monkeypatch.setattr(hierarchical, "_compress", watched_compress)
    answer = dense_solve(op, system.rhs)
    assert upper and all(entry == (1, 0) for entry in upper)
    dense = op.dense()
    _assert_agrees_with_oracle(answer, dense, system.rhs, _exact_discrete_solution(dense, system.rhs))


def _watch_compress(monkeypatch):
    """The ranks (None for a block declined) of every ``_compress`` call, in
    call order."""
    compress, ranks = hierarchical._compress, []

    def watched(*args):
        factors = compress(*args)
        ranks.append(None if factors is None else factors[0].shape[1])
        return factors

    monkeypatch.setattr(hierarchical, "_compress", watched)
    return ranks


def test_a_lower_block_that_does_not_compress_makes_the_root_a_leaf(monkeypatch):
    # the upper quadrant is zero, so it compresses to rank 0, and the lower
    # one is full rank: the root is a dense leaf, and float64 LU answers
    matrix, offsets = _blocked_random(hierarchical.CROSSOVER_N, 4, 5)
    half = offsets[2]
    matrix[:half, half:] = 0.0
    rhs = np.ones(len(matrix))
    blocked = DenseBlocks(matrix, offsets)
    ranks = _watch_compress(monkeypatch)
    assert refined_solve(blocked, rhs, blocked.norm1()) is None
    assert ranks == [0, None]
    answer = dense_solve(blocked, rhs)
    monkeypatch.setattr(fredholm_solver, "FLOAT32_CROSSOVER_N", len(matrix) + 1)
    _same_lu_answer(dense_solve(matrix, rhs), answer)


def _factored_pair(width):
    """``FactoredBlocks`` of 2 x 512 whose off-diagonal blocks are stated by
    factors of ``width`` columns, with dyadic entries.  The two diagonal
    blocks are one block, as in a difference kernel's system, since the
    hierarchical tree shares one leaf between them."""
    rng = np.random.default_rng(width)
    size, n = 512, 1024
    diagonal = np.tile(np.eye(size) + rng.integers(-1, 2, (size, size)) / 1024.0, (2, 1, 1))
    lower, upper = (tuple(rng.integers(-1, 2, (n, width)) / 256.0 for _ in range(2)) for _ in range(2))
    return FactoredBlocks(np.array([0, size, n]), diagonal, lower, upper, np.ones(n), np.ones(n))


# by the flop model, a node of two 512 leaves with both ranks r costs more
# than a dense LU of 1024 from r of about 233 on, below the rank cap of 256
@pytest.mark.parametrize("width", [200, 240])
def test_a_node_whose_update_costs_more_than_a_dense_lu_is_a_leaf(width, monkeypatch):
    op = _factored_pair(width)
    rhs = np.ones(len(op))
    ranks = _watch_compress(monkeypatch)
    root = hierarchical._build(op, 0, op.panels, hierarchical.SKETCH_TOL * op.norm1(), {})
    assert ranks == [width, width]
    assert isinstance(root, hierarchical._Leaf) == (width == 240)
    answer = dense_solve(op, rhs)
    dense = op.dense()
    if width == 240:
        assert refined_solve(op, rhs, op.norm1()) is None
        monkeypatch.setattr(fredholm_solver, "FLOAT32_CROSSOVER_N", len(dense) + 1)
        _same_lu_answer(dense_solve(dense, rhs), answer)
    else:
        assert refined_solve(op, rhs, op.norm1()) is not None
        _assert_agrees_with_oracle(answer, dense, rhs, _exact_discrete_solution(dense, rhs))


def test_a_block_diagonal_system_has_no_capacitance_matrix():
    # every coupling is zero, rank 0, so no node has a capacitance matrix to
    # factor, and a node's solve is its two children's
    matrix, offsets = _blocked_random(hierarchical.CROSSOVER_N, 4, 6)
    for j in range(4):
        lo, hi = offsets[j], offsets[j + 1]
        matrix[lo:hi, :lo] = matrix[lo:hi, hi:] = 0.0
    op = DenseBlocks(matrix, offsets)
    root = hierarchical._build(op, 0, op.panels, hierarchical.SKETCH_TOL * op.norm1(), {})
    root.factor()
    assert root.cap is None and root.left.cap is None and root.right.cap is None
    rhs = np.cos(np.arange(len(matrix)))
    assert refined_solve(op, rhs, op.norm1()) is not None
    _assert_agrees_with_oracle(dense_solve(op, rhs), matrix, rhs, _exact_discrete_solution(matrix, rhs))


def test_a_refinement_that_stagnates_above_the_backward_error_bound_hands_over_to_lu():
    # example4 on 8 x 511 (rcond 2e-11): the hierarchical refinement contracts
    # at only 0.78 a step and stops at a backward error of 15.6 eps, whose
    # iterate is off by 3.7e-4; BERR_EPS = 8 rejects it and float64 LU
    # answers.  A bound above 15.6 eps, or a factorization whose refinement
    # stagnates lower, turns this into a quiet wrong answer
    system = _system("example4", 8, 511)
    solution = solve_composite(system)
    assert np.max(np.abs(solution.node_values - 4.0 * solution.nodes**3)) < 1e-10


def test_singular_blocked_matrix_raises():
    system = _system("example2", 8, 127, T=T_200PI)
    matrix = system.matrix.dense()
    matrix[700] = 0.0
    with pytest.raises(SingularMatrixError):
        dense_solve(DenseBlocks(matrix, system.partition.offsets), system.rhs)


def test_nonfinite_blocked_matrix_raises():
    system = _system("example2", 8, 127, T=T_200PI)
    matrix = system.matrix.dense()
    matrix[3, 900] = np.inf
    with pytest.raises(ValueError, match="non-finite"):
        dense_solve(DenseBlocks(matrix, system.partition.offsets), system.rhs)


def test_below_crossover_is_bitwise_the_lu_path():
    system = _system("example2", 4, 127, T=T_200PI)
    assert len(system.matrix) < hierarchical.CROSSOVER_N
    plain = dense_solve(system.matrix.dense(), system.rhs)
    solution = solve_composite(system)
    _same_lu_answer(plain, (np.concatenate(solution.values), solution.rcond, solution.cond_warning))


_NO_RANDOM = """
import sys
import numpy as np
from chebfred import hierarchical
from chebfred.composite_solver import solve_partitioned
from chebfred.kernel_catalog import SemismoothKernel, catalog_lookup
built = []
build = hierarchical.hierarchical_solve
hierarchical.hierarchical_solve = lambda op, anorm: built.append(build(op, anorm)) or built[-1]
problem = catalog_lookup("example4")
edges = np.linspace(problem.a, problem.b, 17)
solve_partitioned(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs,
                  breakpoints=tuple(edges[1:-1]), orders=63)
assert len(built) == 1 and built[0] is not None, "the hierarchical path was not taken"
assert "numpy.random" not in sys.modules, "numpy.random was imported"
"""


def test_hierarchical_solve_does_not_import_numpy_random():
    """Cross approximation is deterministic and needs no random numbers, and
    importing numpy.random costs each process modules and resident memory."""
    subprocess.run([sys.executable, "-c", _NO_RANDOM], check=True)


_SHARED_FLAPACK = """
import gc, sys, types
import numpy as np
{first}
{second}
from scipy.linalg import lapack
flapack = [m for m in gc.get_objects()
           if isinstance(m, types.ModuleType) and m.__name__ == "scipy.linalg._flapack"]
assert len(flapack) == 1, flapack
assert flapack[0] is sys.modules["scipy.linalg._flapack"] is lapack._flapack
assert chebfred.hierarchical._getrf is lapack.dgetrf
matrix = np.array([[4.0, 1.0], [2.0, 3.0]])
x = scipy.linalg.lu_solve(scipy.linalg.lu_factor(matrix), [1.0, 2.0])
assert np.allclose(matrix @ x, [1.0, 2.0])
"""


@pytest.mark.parametrize("chebfred_first", [True, False])
def test_lapack_extension_is_shared_with_scipy_linalg(chebfred_first):
    # chebfred loads scipy.linalg._flapack without scipy.linalg; whichever
    # is imported first, the two must end up with one module
    imports = ["import chebfred.hierarchical", "import scipy.linalg"]
    first, second = imports if chebfred_first else imports[::-1]
    code = _SHARED_FLAPACK.format(first=first, second=second)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_missing_lapack_extension_raises_import_error_naming_the_directory(monkeypatch):
    monkeypatch.delitem(sys.modules, "scipy.linalg._flapack")
    monkeypatch.setattr(hierarchical.importlib.machinery, "EXTENSION_SUFFIXES", [".missing.so"])
    with pytest.raises(ImportError, match=r"_flapack\.missing\.so not found in .*scipy.linalg$"):
        hierarchical._load_flapack()
