"""Node sets, cosine transforms, and the one-sided integration matrices."""

import math
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from dense_oracle import (
    OPERATOR_NAMES,
    cosine_matrix,
    dense_operators,
    integration_matrices,
    inverse_cosine_matrix,
)

import chebfred.composite_solver as composite_solver
import chebfred.schrodinger as schrodinger
from chebfred.composite_solver import assemble_blocks, build_partition
from chebfred.kernel_catalog import catalog_lookup
from chebfred.spectral_core import (
    build_operators,
    cheb_grid,
    chebyshev_coefficients,
    chebyshev_eval,
    chebyshev_nodes,
    chebyshev_values,
)


def test_nodes_small_orders():
    assert chebyshev_nodes(0) == pytest.approx([0.0], abs=1e-16)
    root2 = math.sqrt(2.0) / 2.0
    assert chebyshev_nodes(1) == pytest.approx([root2, -root2], abs=1e-15)
    root3 = math.sqrt(3.0) / 2.0
    assert chebyshev_nodes(2) == pytest.approx([root3, 0.0, -root3], abs=1e-15)


@given(st.integers(min_value=0, max_value=80))
def test_nodes_descending_and_interior(n):
    tau = chebyshev_nodes(n)
    assert len(tau) == n + 1
    assert np.all(np.diff(tau) < 0.0)
    assert np.all(np.abs(tau) < 1.0)


@pytest.mark.parametrize("n", [1, 4, 9, 32])
def test_nodes_are_polynomial_roots(n):
    # the degree-(n+1) first-kind polynomial vanishes at all n+1 nodes
    coeffs = np.zeros(n + 2)
    coeffs[n + 1] = 1.0
    assert np.max(np.abs(chebyshev_eval(coeffs, chebyshev_nodes(n)))) < 1e-11


def test_cosine_matrix_order_one():
    root2 = math.sqrt(2.0) / 2.0
    expected = np.array([[1.0, root2], [1.0, -root2]])
    assert cosine_matrix(1) == pytest.approx(expected, abs=1e-15)


@pytest.mark.parametrize("n", [2, 3, 8, 17, 40, 64])
def test_cosine_inverse_roundtrip(n):
    c = cosine_matrix(n)
    cinv = inverse_cosine_matrix(n)
    eye = np.eye(n + 1)
    assert np.max(np.abs(cinv @ c - eye)) < 1e-12
    assert np.max(np.abs(c @ cinv - eye)) < 1e-12


@given(st.integers(min_value=1, max_value=40), st.integers(min_value=0, max_value=2**32 - 1))
@settings(max_examples=30, deadline=None)
def test_value_coefficient_roundtrip(n, seed):
    # Cinv maps node values to coefficients whose interpolant reproduces them
    rng = np.random.default_rng(seed)
    vals = rng.uniform(-1.0, 1.0, n + 1)
    coeffs = inverse_cosine_matrix(n) @ vals
    assert chebyshev_eval(coeffs, chebyshev_nodes(n)) == pytest.approx(vals, abs=1e-10)


@pytest.mark.parametrize("n", [1, 2, 5, 16, 33, 64])
def test_one_sided_row_sums(n):
    W, V = integration_matrices(build_operators(n))
    tau = chebyshev_nodes(n)
    assert W @ np.ones(n + 1) == pytest.approx(tau + 1.0, abs=1e-12)
    assert V @ np.ones(n + 1) == pytest.approx(1.0 - tau, abs=1e-12)


@pytest.mark.parametrize("n", [3, 8, 21, 50])
def test_left_integration_of_square(n):
    W, _ = integration_matrices(build_operators(n))
    tau = chebyshev_nodes(n)
    assert W @ tau**2 == pytest.approx((tau**3 + 1.0) / 3.0, abs=1e-12)


@pytest.mark.parametrize("n", [2, 5, 12, 31, 64])
def test_polynomial_exactness_below_order(n):
    # integrals of tau^d are exact for every degree d <= n - 1
    W, V = integration_matrices(build_operators(n))
    tau = chebyshev_nodes(n)
    for d in range(n):
        exact_left = (tau ** (d + 1) - (-1.0) ** (d + 1)) / (d + 1)
        exact_right = (1.0 - tau ** (d + 1)) / (d + 1)
        assert np.max(np.abs(W @ tau**d - exact_left)) < 1e-12
        assert np.max(np.abs(V @ tau**d - exact_right)) < 1e-12


@pytest.mark.parametrize("n", [2, 8, 16])
def test_degree_n_residual_is_truncation_constant(n):
    # at degree n the dropped top coefficient leaves a constant residual of
    # known size: the leading Chebyshev coefficient of tau^n is 2^(1-n), and
    # truncating its antiderivative costs 2^(1-n) / (2(n+1)) at every node
    W, _ = integration_matrices(build_operators(n))
    tau = chebyshev_nodes(n)
    exact = (tau ** (n + 1) - (-1.0) ** (n + 1)) / (n + 1)
    res = W @ tau**n - exact
    assert np.ptp(res) < 1e-12
    assert abs(res[0]) == pytest.approx(2.0 ** (1 - n) / (2.0 * (n + 1)), rel=1e-6)


@pytest.mark.parametrize("n", [2, 7, 16, 33, 64])
def test_full_weights_match_sided_rows(n):
    ops = build_operators(n)
    W, V = integration_matrices(ops)
    rows = W + V
    assert np.max(np.abs(rows - ops.full_weights[None, :])) < 1e-12
    assert ops.full_weights.sum() == pytest.approx(2.0, abs=1e-12)


@pytest.mark.parametrize(
    "n,bound", [(4, 1e-3), (8, 1e-7), (16, 1e-13), (24, 1e-13)]
)
def test_superalgebraic_decay_on_entire_function(n, bound):
    # one-sided integrals of exp converge superalgebraically; thresholds are
    # frozen from measured errors 6.6e-04, 1.2e-08, 4.4e-16, 4.4e-16
    W, _ = integration_matrices(build_operators(n))
    tau = chebyshev_nodes(n)
    approx = W @ np.exp(tau)
    exact = np.exp(tau) - math.exp(-1.0)
    assert np.max(np.abs(approx - exact)) < bound


@pytest.mark.parametrize("n", [1, 2, 3, 4, 7, 16, 63, 255, 1023])
def test_build_operators_matches_dense_oracle(n):
    ops = build_operators(n)
    ref = dense_operators(n)
    W, V = integration_matrices(ops)
    got = {"order": ops.order, "int_left": W, "int_right": V, "full_weights": ops.full_weights}
    for name in OPERATOR_NAMES:
        deviation = np.max(np.abs(got[name] - ref[name]))
        assert deviation <= 1e-13 * n, name
    # the exactly reduced cosine table against the plain floating-point argument
    k = np.arange(n + 1)[:, None]
    j = np.arange(n + 1)[None, :]
    plain = np.cos((2 * k + 1) * j * np.pi / (2 * (n + 1)))
    assert np.max(np.abs(cosine_matrix(n) - plain)) <= 1e-13 * n


@pytest.mark.parametrize("n", [0, 1, 2, 7, 63, 1023, 2047])
def test_coefficients_match_inverse_cosine_matrix(n):
    # the O(n log n) DCT against the dense node-values-to-coefficients map
    rng = np.random.default_rng(n)
    for vals in (rng.uniform(-1.0, 1.0, n + 1), 1e3 * np.exp(chebyshev_nodes(n))):
        coeffs = chebyshev_coefficients(vals) if n == 0 else build_operators(n).coefficients(vals)
        assert np.max(np.abs(coeffs - inverse_cosine_matrix(n) @ vals)) <= 1e-15 * np.max(np.abs(vals))


def test_coefficients_reject_wrong_length():
    with pytest.raises(ValueError):
        build_operators(4).coefficients(np.ones(4))
    with pytest.raises(ValueError):
        chebyshev_coefficients(np.ones((2, 2)))
    with pytest.raises(ValueError):
        chebyshev_coefficients(np.ones(0))
    with pytest.raises(ValueError, match="order must be >= 0"):
        chebyshev_nodes(-1)
    # no coefficients, more than order + 1, and an array that is not 1-D
    for coeffs in (np.ones(0), np.ones(6), np.ones((2, 2))):
        with pytest.raises(ValueError, match="need 1 to 5 coefficients"):
            chebyshev_values(coeffs, 4)


def test_operators_hold_only_vectors_after_assembly(monkeypatch):
    """No matrix is kept on the operators, not even after a one-panel
    ``assemble_blocks`` or a Schrodinger ``assemble`` has read them."""
    built = []

    def recording_build(n):
        built.append(build_operators(n))
        return built[-1]

    monkeypatch.setattr(composite_solver, "build_operators", recording_build)
    monkeypatch.setattr(schrodinger, "build_operators", recording_build)
    problem = catalog_lookup("example2")
    partition = build_partition(problem.a, problem.b, orders=63)
    assemble_blocks(problem.kernel, partition, problem.lam, problem.rhs)
    pot = catalog_lookup("schrod_pereybuck").potential
    schrodinger.assemble(pot, cheb_grid(63, 0.0, pot.cutoff))
    assert len(built) == 2
    for ops in built:
        assert all(np.ndim(v) <= 1 for v in vars(ops).values())


@pytest.mark.parametrize("start, stop", [(0, 1), (10, 17), (40, 51), (0, 51)])
def test_bracket_rows_compute_into_out(start, stop):
    ops = build_operators(50)
    out = np.empty((stop - start, 51))
    assert ops.bracket_rows(start, stop, out=out) is out
    assert np.array_equal(out, ops.bracket_rows(0, 51)[start:stop])


@pytest.fixture(scope="module")
def modules_after_cli_import():
    code = "import sys, chebfred.cli; print('\\n'.join(sys.modules))"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


# build_operators uses numpy.fft, which numpy loads anyway, and the solvers
# need only scipy's LAPACK extension; each of these modules would lengthen
# every process start (scipy.linalg's __init__ alone costs about 0.3 s)
@pytest.mark.parametrize(
    "module", ["scipy.fft", "scipy.linalg", "scipy._lib._array_api", "numpy.f2py", "numpy.testing"]
)
def test_cli_import_leaves_module_unloaded(modules_after_cli_import, module):
    assert module not in modules_after_cli_import


def test_left_matrix_requires_order_one():
    with pytest.raises(ValueError):
        build_operators(0)


def test_grid_maps_reference_nodes():
    g = cheb_grid(5, 2.0, 6.0)
    assert g.width == pytest.approx(4.0)
    assert g.nodes == pytest.approx(4.0 + 2.0 * chebyshev_nodes(5), abs=1e-14)
    assert g.to_reference(g.nodes) == pytest.approx(chebyshev_nodes(5), abs=1e-14)
    assert g.to_reference(2.0) == pytest.approx(-1.0)
    assert g.to_reference(6.0) == pytest.approx(1.0)


def test_grid_rejects_empty_interval():
    with pytest.raises(ValueError):
        cheb_grid(4, 1.0, 1.0)
    with pytest.raises(ValueError):
        cheb_grid(4, 2.0, -1.0)


def test_eval_low_degree_closed_forms():
    x = np.array([-0.9, -0.3, 0.0, 0.4, 1.0])
    assert chebyshev_eval(np.array([2.0]), x) == pytest.approx(np.full(5, 2.0))
    assert chebyshev_eval(np.array([0.0, 1.0]), x) == pytest.approx(x)
    assert chebyshev_eval(np.array([0.0, 0.0, 1.0]), x) == pytest.approx(2 * x**2 - 1)
    assert chebyshev_eval(np.array([0.0, 0.0, 0.0, 1.0]), x) == pytest.approx(4 * x**3 - 3 * x)


@given(
    st.integers(min_value=1, max_value=30),
    st.floats(min_value=-1.0, max_value=1.0, allow_nan=False),
)
@settings(max_examples=60, deadline=None)
def test_eval_matches_trigonometric_form(degree, x):
    coeffs = np.zeros(degree + 1)
    coeffs[degree] = 1.0
    expected = math.cos(degree * math.acos(min(1.0, max(-1.0, x))))
    assert chebyshev_eval(coeffs, np.array([x]))[0] == pytest.approx(expected, abs=1e-12)
