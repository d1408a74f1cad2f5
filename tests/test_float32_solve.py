"""The float32 LU refined in float64, checked against the plain float64 LU."""

import math
import pathlib
import sys
import warnings

import numpy as np
import pytest
from dense_oracle import lu_solve

from chebfred.block_operator import as_block_operator
from chebfred.composite_solver import assemble_blocks, build_partition
from chebfred.fredholm_solver import (
    FLOAT32_CROSSOVER_N, RCOND_WARN, TWOGRID_CROSSOVER_N, dense_solve, refined_solve, relative_sup_error,
)
from chebfred.kernel_catalog import catalog_lookup

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import tolerance  # noqa: E402

# the three systems of the single_panel_large workload
SINGLE_PANEL_LARGE = (("example1", {}), ("example2", {}), ("example2", {"T": 50.0 * math.pi}))


def _system(name, order, panels=1, **overrides):
    problem = catalog_lookup(name, **overrides)
    breakpoints = np.linspace(problem.a, problem.b, panels + 1)[1:-1]
    partition = build_partition(problem.a, problem.b, breakpoints, orders=order)
    return problem, partition, assemble_blocks(problem.kernel, partition, problem.lam, problem.rhs)


def _rel(a, b):
    return float(np.max(np.abs(a - b)) / np.max(np.abs(b)))


def _refined(matrix, rhs):
    """The refined path's answer for ``matrix`` (an operator or an array), or None."""
    op = as_block_operator(matrix)
    return refined_solve(op, rhs, op.norm1())


def _well_conditioned(n=600, seed=5):
    rng = np.random.default_rng(seed)
    return np.eye(n) + 0.3 * rng.standard_normal((n, n)) / np.sqrt(n), rng.standard_normal(n)


@pytest.mark.parametrize("order", [704, 1023])
@pytest.mark.parametrize("name, overrides", SINGLE_PANEL_LARGE)
def test_refined_float32_solve_is_as_accurate_as_float64_lu(name, overrides, order):
    problem, partition, system = _system(name, order, **overrides)
    assert len(system.matrix) >= FLOAT32_CROSSOVER_N
    assert _refined(system.matrix, system.rhs) is not None
    x, rcond, warn = dense_solve(system.matrix, system.rhs)
    x_lu, rcond_lu = lu_solve(system.matrix.dense(), system.rhs)
    exact = problem.solution(partition.grids[0].nodes)
    assert relative_sup_error(x, exact) <= tolerance(relative_sup_error(x_lu, exact))
    assert 0.1 < rcond / rcond_lu < 10.0
    assert warn == (rcond_lu < RCOND_WARN)


def test_refinement_that_fails_returns_the_float64_lu_answer():
    # rcond ~ 1e-9: cond * eps in float32 is far above 1, so refinement diverges
    n = 600
    rng = np.random.default_rng(9)
    q1, _ = np.linalg.qr(rng.standard_normal((n, n)))
    q2, _ = np.linalg.qr(rng.standard_normal((n, n)))
    matrix = (q1 * np.logspace(0, -9, n)) @ q2.T
    rhs = rng.standard_normal(n)
    assert _refined(matrix, rhs) is None
    x, rcond, warn = dense_solve(matrix, rhs)
    x_lu, rcond_lu = lu_solve(matrix, rhs)
    assert 1e-11 < rcond < 1e-8
    assert np.array_equal(x, x_lu)
    assert rcond == pytest.approx(rcond_lu, rel=1e-12)
    assert not warn


@pytest.mark.parametrize("panels, order", [
    (1, TWOGRID_CROSSOVER_N - 2),  # N just below the two-grid crossover, which is below the float32 one
    (2, 399),  # N = 800: several panels stay on float64 LU below the hierarchical crossover too
])
def test_systems_the_float32_path_skips_are_bitwise_the_float64_lu(panels, order):
    _, _, system = _system("example2", order, panels)
    assert _refined(system.matrix, system.rhs) is None
    assert np.array_equal(dense_solve(system.matrix, system.rhs)[0], lu_solve(system.matrix.dense(), system.rhs)[0])


@pytest.mark.parametrize("system, float32", [
    (lambda a, y: (a, y * 1e-50), True),  # the rhs underflows to zero in float32 unless it is scaled
    (lambda a, y: (a, y * 1e50), True),  # and overflows
    (lambda a, y: (a * 1e300, y), False),  # A is finite in float64, infinite in float32
    # 1e-40 is a nonzero float32 pivot, so sgetrf succeeds, but sgetrs gives inf
    (lambda a, y: (np.diag(np.r_[np.ones(len(y) - 1), 1e-40]), y), False),
], ids=["rhs*1e-50", "rhs*1e50", "A*1e300", "subnormal-pivot"])
def test_scaling_never_gives_a_quiet_wrong_answer(system, float32):
    matrix, rhs = system(*_well_conditioned())
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert (_refined(matrix, rhs) is not None) == float32
        x, _, _ = dense_solve(matrix, rhs)
    x_lu, _ = lu_solve(matrix, rhs)
    assert _rel(x, x_lu) < 1e-12
    if not float32:
        assert np.array_equal(x, x_lu)
