"""Dense references for what the package computes without dense matrices.

* ``cosine_matrix`` and ``inverse_cosine_matrix``: the transforms C and C^-1
  between Chebyshev coefficients and node values;
* ``dense_operators``: the integration operators W and V by O(n^3)
  products, and ``integration_matrices``: W and V formed in full from the
  vectors of a ``SpectralOperators``, the ones every solve reads;
* ``semismooth_block_reference``: the semismooth block over whole n x n
  arrays, ``unreflected``: a reflected kernel or potential with its
  upper branch made explicit, which takes the assembly's plain path,
  ``plain``: a kernel with its branches as plain callables, which the
  assembly samples where it would use their factor pairs, and
  ``record_branch_calls``: the branch calls an assembly makes;
* ``hadamard_matrix``: the Schrodinger system by explicit Hadamard
  products, and ``whole_branches``: a Schrodinger system's K1 and K2 in
  full, read at once or by row blocks;
* ``residual_check``: the residual of a catalog problem's analytic solution,
  by trapezium sums;
* ``lu_solve``: the plain float64 LU solve, the dense path that the
  hierarchical and float32 paths refine against and fall back to.

Shared by the tests, scripts/bench_build_operators.py and
scripts/bench_schrodinger_assembly.py.  It imports
nothing from chebfred, so the benchmark can check a baseline checkout
against it too.
"""

import dataclasses

import numpy as np
from scipy.linalg import lapack


def cosine_matrix(n: int) -> np.ndarray:
    """Matrix C with C[k, j] = T_j(tau_k), built in closed form.

    T_j(cos theta) = cos(j theta), so no polynomial recurrence is needed.  The
    argument j theta_k is pi/(2(n+1)) times the integer (2k+1) j, which is
    reduced exactly modulo 4(n+1) and looked up in a table of 4(n+1) cosines,
    so the entries are accurate to rounding for any order.  C maps Chebyshev
    coefficients to node values.
    """
    if n < 0:
        raise ValueError("order must be >= 0")
    N = n + 1
    table = np.cos(np.arange(4 * N) * (np.pi / (2 * N)))
    # (2k+1) j < 2 N^2 fits in 32 bits below N = 2^15, which halves the
    # memory traffic of the reduction and the lookup
    itype = np.int32 if N < 2**15 else np.int64
    turns = np.multiply.outer(np.arange(1, 2 * N, 2, dtype=itype), np.arange(N, dtype=itype))
    turns %= 4 * N
    return table[turns]


def inverse_cosine_matrix(n: int) -> np.ndarray:
    """Inverse of :func:`cosine_matrix`, i.e. the node-values-to-coefficients map.

    By discrete orthogonality of cosines at the first-kind points the inverse
    is a row-scaled transpose: diag(1/(n+1), 2/(n+1), ..., 2/(n+1)) @ C.T.
    """
    inverse = cosine_matrix(n).T * (2.0 / (n + 1))
    inverse[0] *= 0.5
    return inverse


def _antiderivative_factor_loop(n):
    # the antiderivative recurrence written out row by row
    B = np.zeros((n + 1, n + 1))
    B[1, 0] = 1.0
    if n >= 2:
        B[1, 2] = -0.5
    for j in range(2, n):
        B[j, j - 1] = 1.0 / (2 * j)
        B[j, j + 1] = -1.0 / (2 * j)
    if n >= 2:
        B[n, n - 1] = 1.0 / (2 * n)
    return B


# the operators that dense_operators rebuilds
OPERATOR_NAMES = ("order", "int_left", "int_right", "full_weights")


def dense_operators(n):
    """Reference for build_operators: the integration operators by plain
    dense products.

    W = C (L B) C^-1 and V = C (R B) C^-1 with L and R written out, costing
    O(n^3); no closed form is used.
    """
    C = cosine_matrix(n)
    Ci = inverse_cosine_matrix(n)
    B = _antiderivative_factor_loop(n)
    L = np.eye(n + 1)
    L[0, 1:] = (-1.0) ** (np.arange(1, n + 1) + 1)
    R = -np.eye(n + 1)
    R[0, :] = 1.0
    SL = L @ B
    SR = R @ B
    return {
        "order": n,
        "int_left": C @ SL @ Ci,
        "int_right": C @ SR @ Ci,
        "full_weights": np.ones(n + 1) @ SL @ Ci,
    }


def integration_matrices(ops):
    """W = a + B and V = c - B, formed in full from the vectors of ``ops``
    with B = ``ops.bracket_rows(0, n + 1)``: the entries every solve reads,
    a few rows at a time."""
    bracket = ops.bracket_rows(0, ops.order + 1)
    return ops.left_offset + bracket, ops.right_offset - bracket


def slice_sampler(k):
    """The sampler ``fredholm_solver.semismooth_block`` reads, taking a
    slice of rows of a whole branch sample ``k``."""
    return lambda rows: k[rows]


def unreflected(branches):
    """A reflected kernel or potential (given without an upper branch) with
    that branch made explicit: the lower one with its arguments swapped.
    Its samples are the same doubles, but every assembly samples both of its
    branches, so it is the plain-path oracle of the mirrored one."""
    if hasattr(branches, "k_lower"):
        assert branches.k_upper is None
        lower = branches.k_lower
        return dataclasses.replace(branches, k_upper=lambda t, s: lower(s, t))
    assert branches.upper is None
    lower = branches.lower
    return dataclasses.replace(branches, upper=lambda p, r2: lower(r2, p))


def plain(kernel):
    """``kernel`` with each branch wrapped in a plain callable of the same
    samples, so that no branch carries factor pairs
    (``kernel_catalog.Separable``): its one-panel blocks are sampled one
    row block at a time, reflected or not (a reflected kernel stays so),
    which is what every assembly of it did before factor pairs existed."""
    lower, upper = kernel.k_lower, kernel.k_upper
    return dataclasses.replace(
        kernel, k_lower=lambda t, s: lower(t, s), k_upper=None if upper is None else (lambda t, s: upper(t, s))
    )


def hadamard_matrix(potential, grid, ops, kernel_matrices):
    """I + s D_c (W o K11 + V o K12) + s D_s (W o K21 + V o K22), with
    s = T/(2 kappa) and K11..K22 the ``kernel_matrices`` of
    ``schrodinger.build_kernel_matrices``, formed from explicit Hadamard
    products with W and V; and s max|K|, the size of the summed terms."""
    k11, k12, k21, k22 = kernel_matrices
    t = grid.nodes
    scale = grid.width / (2.0 * potential.kappa)
    W, V = integration_matrices(ops)
    matrix = (
        np.eye(grid.order + 1)
        + scale * np.cos(potential.kappa * t)[:, None] * (W * k11 + V * k12)
        + scale * np.sin(potential.kappa * t)[:, None] * (W * k21 + V * k22)
    )
    return matrix, scale * max(np.max(np.abs(k)) for k in kernel_matrices)


def whole_branches(samplers, n1, rows_per_block=None):
    """K1 and K2 of a Schrodinger system on ``n1`` nodes in full, read
    through its ``samplers`` (``schrodinger._branch_samplers``): every row
    at once, or stacked from requests of ``rows_per_block`` rows each.

    A sampler may round an entry by the rows it is asked among, so a test
    that compares bitwise with ``semismooth_block`` asks for its row blocks:
    ``max(1, ROW_BLOCK_ENTRIES // (n + 1))`` rows each."""
    step = n1 if rows_per_block is None else rows_per_block
    blocks = [slice(start, min(start + step, n1)) for start in range(0, n1, step)]
    return tuple(np.vstack([sample(rows) for rows in blocks]) for sample in samplers)


def record_branch_calls(monkeypatch, cls, calls):
    """Append every ``eval_lower`` / ``eval_upper`` call on instances of
    ``cls`` (a kernel or potential class) to ``calls`` as (branch, t, s):
    the calls that the benchmark tracer's ``kernel_catalog.eval`` span
    counts, whichever callables the branches are."""
    for branch in ("lower", "upper"):
        method = getattr(cls, f"eval_{branch}")

        def recorded(self, t, s, branch=branch, method=method):
            calls.append((branch, np.asarray(t), np.asarray(s)))
            return method(self, t, s)

        monkeypatch.setattr(cls, f"eval_{branch}", recorded)


def semismooth_block_reference(ops, k1, k2, scale):
    """I + scale [K1 o a + K2 o c + (K1 - K2) o B] in one shot over whole
    n x n arrays, with the whole bracket B.

    ``fredholm_solver.semismooth_block`` takes the same elementwise steps in
    the same order, one row block at a time, so the two agree bitwise.
    """
    n1 = ops.order + 1
    block = np.subtract(k1, k2)
    block *= ops.bracket_rows(0, n1)
    scratch = np.multiply(k1, ops.left_offset)
    block += scratch
    block += np.multiply(k2, ops.right_offset, out=scratch)
    block *= scale
    block.reshape(-1)[:: n1 + 1] += 1.0
    return block


def residual_check(problem, t, panels=10_000):
    """|x(t) + lam*(int_a^t k_lower x + int_t^b k_upper x) - y(t)| by trapezium.

    Independent of the spectral machinery: two composite trapezium sums split
    at s = t, with the panel budget divided proportionally.  For kernels that
    blow up on the boundary the end samples are pulled inward by a relative
    1e-12, which perturbs the (finite) products k*x by far less than the
    quadrature error.  Requires an analytic solution on the problem.
    """
    if problem.solution is None:
        raise ValueError(f"{problem.name} has no analytic solution to check")
    t_arr = np.atleast_1d(np.asarray(t, dtype=float))
    a, b, lam = problem.a, problem.b, problem.lam
    kern, x, y = problem.kernel, problem.solution, problem.rhs
    nudge = 1e-12 * (b - a) if problem.kernel.boundary_singular else 0.0
    out = np.empty_like(t_arr)
    for i, ti in enumerate(t_arr):
        if not a < ti < b:
            raise ValueError(f"residual point {ti} outside ({a}, {b})")
        n_left = max(2, round(panels * (ti - a) / (b - a)))
        n_right = max(2, panels - n_left)
        s_left = np.linspace(a + nudge, ti, n_left + 1)
        s_right = np.linspace(ti, b - nudge, n_right + 1)
        int_left = np.trapezoid(kern.eval_lower(ti, s_left) * x(s_left), s_left)
        int_right = np.trapezoid(kern.eval_upper(ti, s_right) * x(s_right), s_right)
        out[i] = abs(x(ti) + lam * (int_left + int_right) - y(ti))
    return out if np.ndim(t) else out[0]


def lu_solve(matrix, rhs):
    """(x, rcond) of A x = y by float64 LU with partial pivoting, call for
    call the dense path of ``fredholm_solver.dense_solve``.

    ``getrf`` factors the transpose of a C-order copy of A, which is the
    same memory in Fortran order; ``getrs`` solves with A through
    ``trans=1``; ``gecon`` gives the infinity-norm rcond of A^T from
    ||A^T||_inf = ||A||_1, which is the 1-norm rcond of A.  So x is bitwise
    the dense path's, and rcond agrees to its last bits (||A||_1 is summed
    in another order).
    """
    lu, piv, info = lapack.dgetrf(np.array(matrix, dtype=float, order="C").T, overwrite_a=True)
    if info > 0:
        raise np.linalg.LinAlgError("zero pivot")
    x, _info = lapack.dgetrs(lu, piv, rhs, trans=1)
    rcond, _info = lapack.dgecon(lu, np.linalg.norm(matrix, 1), norm="I")
    return x, float(rcond)
