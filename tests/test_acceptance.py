"""Acceptance checklist for the package: end-to-end accuracy, speed, and
structural properties, each printed as one ``[acceptance] ... PASS/FAIL``
line (run with ``pytest -s`` to watch them stream).

Every bound is asserted at its stated tolerance.  Two assertions fail by
design and stay red as documentation of double-precision limits; their
docstrings carry the analysis:

* criterion 6, order-32 bound for the separable scattering problem;
* criterion 8, entrywise nonnegativity of the one-sided update matrices.
"""

import time

import numpy as np
import pytest
from dense_oracle import cosine_matrix, integration_matrices

from chebfred.baselines import gauss_legendre_rule, nystrom_solve
from chebfred.composite_solver import assemble_blocks, build_partition, solve_partitioned
from chebfred.fredholm_solver import (
    dense_solve,
    discretize_smooth,
    relative_sup_error,
    solve_fredholm,
)
from chebfred.kernel_catalog import catalog_lookup
from chebfred.schrodinger import build_kernel_matrices, self_convergence, solve_schrodinger
from chebfred.spectral_core import build_operators, cheb_grid, chebyshev_coefficients, chebyshev_nodes


def _check(criterion, label, passed, value=None):
    status = "PASS" if passed else "FAIL"
    detail = "" if value is None else f" ({value:.3e})"
    print(f"[acceptance] criterion {criterion} ({label}): {status}{detail}")
    return passed


@pytest.fixture(scope="module", autouse=True)
def _warm_libraries():
    # first dense solve pays BLAS/LAPACK startup; keep it out of timed runs
    rng = np.random.default_rng(0)
    a = 600.0 * np.eye(600) + rng.standard_normal((600, 600))
    dense_solve(a, np.ones(600))
    build_operators(16)


def _benchmark_error(name, order, **kwargs):
    problem = catalog_lookup(name, **kwargs)
    sol = solve_fredholm(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, order)
    return relative_sup_error(sol.node_values, problem.solution(sol.nodes))


def test_criterion_1_sign_jump_kernel_fast_spectral():
    problem = catalog_lookup("example1")
    start = time.perf_counter()
    sol = solve_fredholm(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, 16)
    elapsed = time.perf_counter() - start
    err = relative_sup_error(sol.node_values, problem.solution(sol.nodes))
    ok = _check(1, "sign-jump kernel, n=16, rel err <= 1e-13 in < 0.1 s", err <= 1e-13 and elapsed < 0.1, err)
    assert ok, f"err={err:.3e}, elapsed={elapsed:.3f}s"


def test_criterion_2_difference_kernel_fast_spectral():
    problem = catalog_lookup("example2")
    start = time.perf_counter()
    sol = solve_fredholm(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, 16)
    elapsed = time.perf_counter() - start
    err = relative_sup_error(sol.node_values, problem.solution(sol.nodes))
    ok = _check(2, "difference kernel, n=16, rel err <= 1e-12 in < 0.1 s", err <= 1e-12 and elapsed < 0.1, err)
    assert ok, f"err={err:.3e}, elapsed={elapsed:.3f}s"


def test_criterion_3_long_range_needs_panels():
    start = time.perf_counter()
    problem = catalog_lookup("example2", T=200.0 * np.pi)
    edges = np.linspace(problem.a, problem.b, 9)
    multi = solve_partitioned(
        problem.kernel,
        problem.a,
        problem.b,
        problem.lam,
        problem.rhs,
        breakpoints=tuple(edges[1:-1]),
        orders=127,
    )
    err_multi = relative_sup_error(multi.node_values, problem.solution(multi.nodes))
    single = solve_fredholm(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, 511)
    err_single = relative_sup_error(single.node_values, problem.solution(single.nodes))
    elapsed = time.perf_counter() - start
    ok_multi = _check(3, "T=200*pi, 8 panels of order 127, rel err <= 1e-9", err_multi <= 1e-9, err_multi)
    ok_single = _check(3, "T=200*pi, one panel of order 511, rel err in [1e-4, 1]", 1e-4 <= err_single <= 1.0, err_single)
    assert ok_multi and ok_single and elapsed < 60.0


def test_criterion_4_boundary_layer_kernel():
    err = _benchmark_error("example3", 32)
    ok_split = _check(4, "boundary-singular kernel, n=32, rel err <= 1e-11", err <= 1e-11, err)
    problem = catalog_lookup("example3")
    rule = gauss_legendre_rule(256, problem.a, problem.b)
    base = nystrom_solve(problem.kernel, rule, problem.lam, problem.rhs)
    err_gauss = relative_sup_error(base.values, problem.solution(base.nodes))
    ok_gauss = _check(4, "same kernel, 256-point Gauss rule stays above 1e-5", err_gauss >= 1e-5, err_gauss)
    assert ok_split and ok_gauss


def test_criterion_5_interior_kink_needs_partition():
    start = time.perf_counter()
    problem = catalog_lookup("example4")
    split = solve_partitioned(
        problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, orders=256
    )
    err_split = relative_sup_error(split.node_values, problem.solution(split.nodes))
    best_plain = np.inf
    for order in (15, 31, 63, 127, 255, 511):
        sol = solve_fredholm(
            problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, order, smooth=True
        )
        best_plain = min(
            best_plain, relative_sup_error(sol.node_values, problem.solution(sol.nodes))
        )
    elapsed = time.perf_counter() - start
    ok_split = _check(5, "interior kink, split at 0, order 256, rel err <= 1e-9", err_split <= 1e-9, err_split)
    ok_plain = _check(5, "no split, best over orders up to 511 stays above 1e-7", best_plain >= 1e-7, best_plain)
    assert ok_split and ok_plain and elapsed < 30.0


def test_criterion_6_separable_scattering_accuracy():
    """Order 64 meets its bound; order 32 is red by design.

    The separable potential's spliced kernel branches carry entries on the
    e^(+T) scale (T = 20; about 2.4e7 at order 32), and the semismooth block
    cancels them to entries below 5e4.  In double precision that
    cancellation leaves an absolute residue near 1e-4 in the assembled
    operator at order 32, so the solve cannot land under 1e-5 no matter how
    the linear algebra is arranged; the measured error is 2.34e-5.  The
    bound is asserted as stated and fails honestly.
    """
    problem = catalog_lookup("schrod_separable")
    errors = {}
    for order in (32, 64):
        sol = solve_schrodinger(problem.potential, order, rhs_override=problem.rhs)
        exact = problem.solution(sol.nodes)
        errors[order] = np.max(np.abs(sol.node_values - exact)) / np.max(np.abs(exact))
    ok_32 = _check(6, "separable potential, n=32, rel err <= 1e-5", errors[32] <= 1e-5, errors[32])
    ok_64 = _check(6, "separable potential, n=64, rel err <= 1e-7", errors[64] <= 1e-7, errors[64])
    assert ok_64
    assert ok_32, "red by design: double-precision floor of this formulation at order 32"


def test_criterion_7_optical_potential_self_convergence():
    pot = catalog_lookup("schrod_pereybuck").potential
    e32 = self_convergence(pot, 32)
    e64 = self_convergence(pot, 64)
    ok_32 = _check(7, "optical potential, n=32 vs 64, rel diff <= 1e-7", e32 <= 1e-7, e32)
    ok_64 = _check(7, "optical potential, n=64 vs 128, rel diff <= 1e-12", e64 <= 1e-12, e64)
    assert ok_32 and ok_64


def test_criterion_8_transform_round_trip():
    # column j of C holds the node values of T_j, whose coefficients are e_j
    worst = 0.0
    for n in range(2, 65):
        C = cosine_matrix(n)
        coeffs = np.column_stack([chebyshev_coefficients(column) for column in C.T])
        worst = max(worst, np.max(np.abs(coeffs - np.eye(n + 1))))
    assert _check(8, "property: transform round trip, n=2..64, <= 1e-12", worst <= 1e-12, worst)


def test_criterion_8_one_sided_matrices_nonnegative():
    """Red by design: the nonnegativity claim is false, not just unproven.

    At order 2 the matrix taking node values to left-sided integrals of the
    quadratic interpolant has the exact-arithmetic entry 2/9 - sqrt(3)/6,
    about -0.066, and the truncated variant assembled here reaches about
    -0.13.  The sign violation is structural, so the assertion below fails
    at its stated tolerance and is kept as documentation.
    """
    worst = np.inf
    for n in range(1, 33):
        W, V = integration_matrices(build_operators(n))
        worst = min(worst, np.min(W), np.min(V))
    assert _check(8, "property: one-sided matrices entrywise >= 0", worst >= 0.0, worst), (
        "red by design: refuted at order 2 in exact arithmetic"
    )


def test_criterion_8_polynomial_exactness():
    worst = 0.0
    for n in (2, 5, 12, 31):
        W, V = integration_matrices(build_operators(n))
        tau = chebyshev_nodes(n)
        for d in range(n):
            left = W @ tau**d
            right = V @ tau**d
            worst = max(worst, np.max(np.abs(left - (tau ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1))))
            worst = max(worst, np.max(np.abs(right - (1.0 - tau ** (d + 1)) / (d + 1))))
    assert _check(8, "property: exact on degrees below n, <= 1e-12", worst <= 1e-12, worst)


def test_criterion_8_split_weights_sum_to_full():
    worst = 0.0
    for n in (2, 8, 32, 64):
        ops = build_operators(n)
        W, V = integration_matrices(ops)
        rows = W + V
        worst = max(worst, np.max(np.abs(rows - ops.full_weights[None, :])))
        worst = max(worst, abs(np.sum(ops.full_weights) - 2.0))
    assert _check(8, "property: left + right weights = full weights, <= 1e-12", worst <= 1e-12, worst)


def test_criterion_8_schur_vector_identity():
    rng = np.random.default_rng(2024)
    worst = 0.0
    for _ in range(1000):
        a = rng.uniform(-1.0, 1.0, (5, 5))
        b = rng.uniform(-1.0, 1.0, (5, 5))
        c = rng.uniform(-1.0, 1.0, 5)
        worst = max(worst, np.max(np.abs((a * b) @ c - np.diag(a @ np.diag(c) @ b.T))))
    assert _check(8, "property: Schur product vector identity, <= 1e-12", worst <= 1e-12, worst)


def test_criterion_8_smooth_kernel_equivalence():
    kernel = lambda t, s: np.exp(t * s)
    rhs = np.cosh
    worst = 0.0
    for n in (4, 16, 64):
        grid = cheb_grid(n, -1.0, 1.0)
        mat_a = discretize_smooth(kernel, grid, 0.4, rhs).matrix.dense()
        mat_b = assemble_blocks(kernel, build_partition(-1.0, 1.0, orders=n), 0.4, rhs).matrix.dense()
        v = np.random.default_rng(n).uniform(-1.0, 1.0, n + 1)
        rel = np.max(np.abs((mat_a - mat_b) @ v)) / np.max(np.abs(mat_b @ v))
        worst = max(worst, rel)
    assert _check(8, "property: split rule collapses on smooth kernels, <= 1e-12", worst <= 1e-12, worst)


def test_criterion_8_gauss_rule_exactness():
    worst = 0.0
    for n in (2, 5, 16):
        rule = gauss_legendre_rule(n, -1.0, 1.0)
        for d in range(2 * n):
            exact = 0.0 if d % 2 else 2.0 / (d + 1)
            worst = max(worst, abs(np.sum(rule.weights * rule.nodes**d) - exact))
    assert _check(8, "property: Gauss rule exact through degree 2n-1, <= 1e-13", worst <= 1e-13, worst)


def test_criterion_8_diagonal_splice_continuity():
    # absolute agreement for the well-scaled optical potential; relative to
    # the matrix scale for the separable one, whose entries reach e^(+T)
    pb = catalog_lookup("schrod_pereybuck").potential
    sep = catalog_lookup("schrod_separable").potential
    worst = 0.0
    for n in (8, 16, 32, 64):
        grid_pb = cheb_grid(n, 0.0, pb.cutoff)
        ops = build_operators(n)
        k11, k12, k21, k22 = build_kernel_matrices(pb, grid_pb, ops)
        worst = max(worst, np.max(np.abs(np.diag(k11 - k12))), np.max(np.abs(np.diag(k21 - k22))))
        grid_sep = cheb_grid(n, 0.0, sep.cutoff)
        k11, k12, k21, k22 = build_kernel_matrices(sep, grid_sep, ops)
        scale_1 = max(np.max(np.abs(k11)), np.max(np.abs(k12)))
        scale_2 = max(np.max(np.abs(k21)), np.max(np.abs(k22)))
        worst = max(
            worst,
            np.max(np.abs(np.diag(k11 - k12))) / scale_1,
            np.max(np.abs(np.diag(k21 - k22))) / scale_2,
        )
    assert _check(8, "property: kernel matrices agree on the diagonal, <= 1e-12", worst <= 1e-12, worst)


def test_criterion_9_beats_gauss_and_converges_cleanly():
    err_split = _benchmark_error("example1", 16)
    problem = catalog_lookup("example1")
    rule = gauss_legendre_rule(64, problem.a, problem.b)
    base = nystrom_solve(problem.kernel, rule, problem.lam, problem.rhs)
    err_gauss = relative_sup_error(base.values, problem.solution(base.nodes))
    ratio = err_gauss / err_split
    ok_ratio = _check(9, "n=16 split rule vs 64-point Gauss, ratio >= 1e3", ratio >= 1e3, ratio)
    ok_curves = True
    for name in ("example1", "example2", "example3"):
        prob = catalog_lookup(name)
        errors = [_benchmark_error(name, n) for n in prob.orders]
        for prev, cur in zip(errors, errors[1:]):
            if not (cur < prev or cur <= 1e-11):
                ok_curves = False
    ok_curves = _check(9, "error curves decrease until the rounding floor", ok_curves)
    assert ok_ratio and ok_curves
