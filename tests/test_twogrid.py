"""The two-grid solve of one-panel systems, checked against the plain float64 LU."""

import math
import pathlib
import sys
import warnings

import numpy as np
import pytest
from dense_oracle import lu_solve

from chebfred import fredholm_solver, schrodinger
from chebfred.composite_solver import assemble_blocks, build_partition
from chebfred.fredholm_solver import RCOND_WARN, dense_solve, relative_sup_error
from chebfred.kernel_catalog import KernelEvaluationError, SemismoothKernel, catalog_lookup
from chebfred.spectral_core import cheb_grid, chebyshev_coefficients, chebyshev_values

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

from workloads import LARGE_ORDERS, OFFSETS, tolerance  # noqa: E402

_EPS = np.finfo(float).eps
T_50PI, T_200PI = 50.0 * math.pi, 200.0 * math.pi
# the kernels of the benchmark's single_panel_large workload, each solved at
# its order of LARGE_ORDERS less an offset below OFFSETS
SINGLE_PANEL_LARGE = [("example1", {}), ("example2", {}), ("example2", {"T": T_50PI})]


def _system(name, order, rhs=None, **overrides):
    problem = catalog_lookup(name, **overrides)
    partition = build_partition(problem.a, problem.b, orders=order)
    return problem, partition, assemble_blocks(problem.kernel, partition, problem.lam, rhs or problem.rhs)


def _watch_paths(monkeypatch):
    """Record, in call order, "twogrid" or "declined" for every two-grid
    build and "float32" for every float32 build that ``refined_solve`` makes."""
    paths = []
    twogrid, float32 = fredholm_solver.twogrid_solve, fredholm_solver.float32_solve

    def watched_twogrid(*args):
        built = twogrid(*args)
        paths.append("declined" if built is None else "twogrid")
        return built

    def watched_float32(*args):
        paths.append("float32")
        return float32(*args)

    monkeypatch.setattr(fredholm_solver, "twogrid_solve", watched_twogrid)
    monkeypatch.setattr(fredholm_solver, "float32_solve", watched_float32)
    return paths


def _series_values(coeffs, order):
    """sum_j coeffs[j] T_j at the order+1 nodes, term by term: T_j at node k is
    cos(j (2k+1) pi / (2N)), its angle reduced mod 2 pi in integers first."""
    n1 = order + 1
    turns = np.outer(2 * np.arange(n1) + 1, np.arange(len(coeffs))) % (4 * n1)
    return np.cos(turns * (np.pi / (2 * n1))) @ coeffs


@pytest.mark.parametrize("order", [63, 255, 1023])
def test_restriction_and_prolongation_are_exact_on_coarse_polynomials(order):
    # R: the first M coefficients of fine values, at the coarse nodes; P:
    # coarse coefficients at the fine nodes, as twogrid_solve applies them
    coarse = -(-(order + 1) // 4)
    coeffs = np.random.default_rng(order).standard_normal(coarse)
    fine_values, coarse_values = _series_values(coeffs, order), _series_values(coeffs, coarse - 1)
    scale = np.abs(coeffs).sum()
    restricted = chebyshev_values(chebyshev_coefficients(fine_values)[:coarse], coarse - 1)
    prolonged = chebyshev_values(chebyshev_coefficients(coarse_values), order)
    assert np.max(np.abs(restricted - coarse_values)) <= 4 * _EPS * scale
    assert np.max(np.abs(prolonged - fine_values)) <= 4 * _EPS * scale
    # and the transforms invert each other on the fine grid
    assert np.max(np.abs(chebyshev_coefficients(prolonged)[:coarse] - coeffs)) <= 4 * _EPS * scale
    assert np.max(np.abs(chebyshev_coefficients(prolonged)[coarse:])) <= 4 * _EPS * scale


@pytest.mark.parametrize("order", [704, 1023])
@pytest.mark.parametrize("name, overrides", SINGLE_PANEL_LARGE)
def test_single_panel_large_systems_take_the_two_grid_path(name, overrides, order, monkeypatch):
    problem, partition, system = _system(name, order, **overrides)
    paths = _watch_paths(monkeypatch)
    x, rcond, warn = dense_solve(system.matrix, system.rhs)
    assert paths == ["twogrid"]
    x_lu, rcond_lu = lu_solve(system.matrix.dense(), system.rhs)
    exact = problem.solution(partition.grids[0].nodes)
    assert relative_sup_error(x, exact) <= tolerance(relative_sup_error(x_lu, exact))
    assert 0.1 < rcond / rcond_lu < 10.0
    assert warn == (rcond_lu < RCOND_WARN)


@pytest.mark.parametrize("offset", range(0, OFFSETS, 9))
@pytest.mark.parametrize("kernel, large", list(zip(SINGLE_PANEL_LARGE, LARGE_ORDERS)))
def test_single_panel_large_orders_take_the_two_grid_path(kernel, large, offset, monkeypatch):
    # a stride of the orders that the workload draws
    test_single_panel_large_systems_take_the_two_grid_path(*kernel, large - offset, monkeypatch)


def test_a_coarse_rule_wider_than_a_quarter_takes_the_two_grid_path(monkeypatch):
    # at T = 50 pi and n = 767 a quarter of the order (192) does not resolve
    # the solution; twice the degree of the right-hand side (232) does
    problem, partition, system = _system("example2", 767, T=T_50PI)
    paths = _watch_paths(monkeypatch)
    x, _, _ = dense_solve(system.matrix, system.rhs)
    assert paths == ["twogrid"]
    exact = problem.solution(partition.grids[0].nodes)
    assert relative_sup_error(x, exact) <= tolerance(relative_sup_error(lu_solve(system.matrix.dense(), system.rhs)[0], exact))


@pytest.mark.parametrize("name, order, rhs, overrides", [
    ("example3", 704, None, {}),
    ("example4", 1023, None, {}),
    ("example2", 767, None, {"T": T_200PI}),
    # y = 1 needs no more than a quarter of the order, but the kernel does:
    # the coarse solution's tail declines it
    ("example2", 767, np.ones_like, {"T": T_200PI}),
], ids=["example3", "example4", "example2-T200pi", "example2-T200pi-y=1"])
def test_systems_the_gate_declines_are_bitwise_the_float32_answer(name, order, rhs, overrides, monkeypatch):
    _, _, system = _system(name, order, rhs, **overrides)
    paths = _watch_paths(monkeypatch)
    x, rcond, _ = dense_solve(system.matrix, system.rhs)
    assert paths == ["declined", "float32"]
    monkeypatch.setattr(fredholm_solver, "TWOGRID_CROSSOVER_N", math.inf)
    x32, rcond32, _ = dense_solve(system.matrix, system.rhs)
    assert np.array_equal(x, x32)
    # sgecon's estimate may move by a float32 ulp between calls
    assert rcond == pytest.approx(rcond32, rel=1e-6)


@pytest.mark.parametrize("name, order, overrides", [("example2", 767, {"T": T_200PI}), ("example3", 704, {})])
def test_a_two_grid_refinement_that_fails_returns_the_float64_lu_answer(name, order, overrides, monkeypatch):
    _, _, system = _system(name, order, **overrides)
    # with the gate open, the coarse rule does not resolve these systems
    monkeypatch.setattr(fredholm_solver, "TWOGRID_TAIL", math.inf)
    paths = _watch_paths(monkeypatch)
    assert fredholm_solver.refined_solve(system.matrix, system.rhs, system.matrix.norm1()) is None
    assert paths == ["twogrid"]
    x, rcond, _ = dense_solve(system.matrix, system.rhs)
    x_lu, rcond_lu = lu_solve(system.matrix.dense(), system.rhs)
    assert np.array_equal(x, x_lu)
    assert rcond == pytest.approx(rcond_lu, rel=1e-12)


def test_a_coarse_assembly_that_samples_a_non_finite_value_declines(monkeypatch):
    # 0.1 log|s - c| is finite at the 512 fine nodes, and -inf at the coarse
    # node c of order 127, the rule at a quarter of the order
    c = cheb_grid(127, -1.0, 1.0).nodes[40]
    branch = lambda t, s: 0.1 * np.log(np.abs(s - c)) + 0.0 * t
    kernel = SemismoothKernel(k_lower=branch, k_upper=branch)
    system = assemble_blocks(kernel, build_partition(-1.0, 1.0, orders=511), 1.0, np.cos)
    with pytest.raises(KernelEvaluationError):
        system.matrix.coarse(127)
    paths = _watch_paths(monkeypatch)
    x, rcond, _ = dense_solve(system.matrix, system.rhs)
    assert paths == ["declined"]
    # bitwise the answer of the same system with the two-grid ruled out
    monkeypatch.setattr(fredholm_solver, "TWOGRID_CROSSOVER_N", math.inf)
    x_lu, rcond_lu, _ = dense_solve(system.matrix, system.rhs)
    assert np.array_equal(x, x_lu)
    assert rcond == pytest.approx(rcond_lu, rel=1e-12)


def _schrodinger_system(name, order):
    pot = catalog_lookup(name).potential
    return pot, schrodinger.assemble(pot, cheb_grid(order, 0.0, pot.cutoff))


@pytest.mark.parametrize("order", [383, 511])
def test_the_perey_buck_system_takes_the_two_grid_path(order, monkeypatch):
    pot, system = _schrodinger_system("schrod_pereybuck", order)
    paths = _watch_paths(monkeypatch)
    x, rcond, warn = dense_solve(system.matrix, system.rhs)
    assert paths == ["twogrid"]
    x_lu, rcond_lu = lu_solve(system.matrix.dense(), system.rhs)
    # the reference is the order-2n solution by float64 LU, at these nodes
    monkeypatch.setattr(fredholm_solver, "TWOGRID_CROSSOVER_N", math.inf)
    monkeypatch.setattr(fredholm_solver, "FLOAT32_CROSSOVER_N", math.inf)
    fine = schrodinger.solve_schrodinger(pot, 2 * order).evaluate(system.grid.nodes)
    assert relative_sup_error(x, fine) <= tolerance(relative_sup_error(x_lu, fine))
    assert 0.1 < rcond / rcond_lu < 10.0
    assert warn == (rcond_lu < RCOND_WARN)


def _assert_declined_at_assembly(system, monkeypatch):
    """No coarse rule, so no two-grid build and no coarse assembly, which
    would raise, and x bitwise the float64 LU answer."""
    assert system.matrix.coarse is None
    monkeypatch.setattr(schrodinger, "semismooth_block", None)
    paths = _watch_paths(monkeypatch)
    x, rcond, _ = dense_solve(system.matrix, system.rhs)
    assert paths == []
    x_lu, rcond_lu = lu_solve(system.matrix.dense(), system.rhs)
    assert np.array_equal(x, x_lu)
    assert rcond == pytest.approx(rcond_lu, rel=1e-12)


@pytest.mark.parametrize("order", [383, 511])
def test_the_separable_system_declines_before_the_coarse_assembly(order, monkeypatch):
    # its spliced rows sit on a rounding floor of about 5e-9, above the gate
    _assert_declined_at_assembly(_schrodinger_system("schrod_separable", order)[1], monkeypatch)


def test_a_perey_buck_system_whose_rows_a_quarter_does_not_resolve_declines_at_assembly(monkeypatch):
    # at kappa = 10 the coefficients of the spliced rows from degree
    # ceil(N / 4) = 96 on reach 3e-4 to 2.5e-3 of their largest
    pot = catalog_lookup("schrod_pereybuck", kappa=10.0).potential
    grid = cheb_grid(383, 0.0, pot.cutoff)
    system = schrodinger.assemble(pot, grid)
    # assemble reads the gate when it is called
    with monkeypatch.context() as patch:
        patch.setattr(fredholm_solver, "TWOGRID_TAIL", math.inf)
        assert schrodinger.assemble(pot, grid).matrix.coarse is not None
    _assert_declined_at_assembly(system, monkeypatch)


@pytest.mark.parametrize("scale", [1e-50, 1e50])
def test_a_scaled_rhs_takes_the_two_grid_path_without_a_warning(scale, monkeypatch):
    _, _, system = _system("example2", 704)
    paths = _watch_paths(monkeypatch)
    rhs = system.rhs * scale
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        x, _, _ = dense_solve(system.matrix, rhs)
    assert paths == ["twogrid"]
    x_lu, _ = lu_solve(system.matrix.dense(), rhs)
    assert np.max(np.abs(x - x_lu)) <= 1e-12 * np.max(np.abs(x_lu))

