"""Catalog problems: branch values, manufactured solutions, residual oracle."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chebfred.kernel_catalog import (
    CatalogError,
    KernelEvaluationError,
    SemismoothKernel,
    catalog_lookup,
    catalog_names,
    residual_check,
)

BENCHMARKS = ("example1", "example2", "example3", "example4")
# interior checkpoints, chosen away from example4's singular point at 0
CHECKPOINTS = {
    "example1": (-0.7, -0.2, 0.1, 0.5, 0.9),
    "example2": (0.2, 0.5, 0.8, 1.0, 1.4),
    "example3": (-0.7, -0.2, 0.1, 0.5, 0.9),
    "example4": (-0.8, -0.35, 0.35, 0.6, 0.9),
}


def test_catalog_names():
    assert catalog_names() == (
        "example1",
        "example2",
        "example3",
        "example4",
        "schrod_separable",
        "schrod_pereybuck",
    )


def test_unknown_name_lists_valid_ones():
    with pytest.raises(CatalogError, match="example1"):
        catalog_lookup("nope")


def test_branch_selection_uses_lower_on_diagonal():
    k = catalog_lookup("example1").kernel
    assert k.eval(0.5, 0.2) == 1.0
    assert k.eval(0.2, 0.5) == -1.0
    assert k.eval(0.3, 0.3) == 1.0


@given(st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))
def test_sign_jump_kernel_gap_is_constant(t, s):
    k = catalog_lookup("example1").kernel
    assert k.eval_lower(t, s) - k.eval_upper(t, s) == 2.0


@given(st.floats(0.0, math.pi / 2.0))
def test_difference_kernel_continuous_on_diagonal(t):
    k = catalog_lookup("example2").kernel
    assert k.eval_lower(t, t) == pytest.approx(0.0, abs=1e-15)
    assert k.eval_upper(t, t) == pytest.approx(0.0, abs=1e-15)
    assert k.difference_form


def test_interior_singularity_kernel_values():
    k = catalog_lookup("example4").kernel
    assert k.eval_lower(1.0, 1.0) == pytest.approx(0.5)
    assert k.singular_points == (0.0,)
    with pytest.raises(KernelEvaluationError):
        k.eval_lower(0.0, 0.0)


def test_boundary_singular_kernel_values():
    k = catalog_lookup("example3").kernel
    assert k.boundary_singular
    assert np.isfinite(k.eval_lower(0.5, -0.5))
    with pytest.raises(KernelEvaluationError):
        k.eval_lower(1.0, 0.5)
    with pytest.raises(KernelEvaluationError):
        k.eval_upper(0.5, 1.0)


def test_eval_checks_the_selected_branch_only():
    # a branch may blow up on the far side of the diagonal without harm
    k = SemismoothKernel(k_lower=lambda t, s: 1.0 / (t - s + 1e-30), k_upper=lambda t, s: t * 0 + s * 0)
    assert k.eval(0.0, 0.5) == 0.0
    # but a non-finite value of the selected branch is an error, counted per
    # point: log(t - s) is -inf on the diagonal, where the lower branch is
    # selected, and each branch is nan on the side where it is not
    k = SemismoothKernel(k_lower=lambda t, s: np.log(t - s), k_upper=lambda t, s: np.log(s - t))
    assert k.eval(np.array([0.5, 0.0]), np.array([0.0, 0.5])) == pytest.approx([math.log(0.5)] * 2)
    with pytest.raises(KernelEvaluationError, match="at 2 point"):
        k.eval(np.array([0.5, 0.2, 0.0]), np.array([0.5, 0.2, 0.5]))


@pytest.mark.parametrize("name", BENCHMARKS)
def test_manufactured_solutions_satisfy_equation(name):
    problem = catalog_lookup(name)
    t = np.array(CHECKPOINTS[name])
    res = residual_check(problem, t, panels=10**4)
    tol = 1e-6 * np.maximum(1.0, np.abs(problem.rhs(t)))
    assert np.all(res <= tol)


def test_residual_small_at_single_points():
    assert residual_check(catalog_lookup("example1"), 0.3, panels=10**5) <= 1e-6
    assert residual_check(catalog_lookup("example2"), 1.0, panels=10**5) <= 1e-6


def test_residual_detects_shifted_rhs():
    problem = catalog_lookup("example1")
    shifted = dataclasses.replace(problem, rhs=lambda t: problem.rhs(t) + 1.0)
    assert residual_check(shifted, 0.3, panels=10**4) == pytest.approx(1.0, abs=1e-5)


def test_residual_requires_analytic_solution():
    problem = dataclasses.replace(catalog_lookup("example1"), solution=None)
    with pytest.raises(ValueError, match="analytic"):
        residual_check(problem, 0.3)


def test_residual_rejects_exterior_points():
    with pytest.raises(ValueError):
        residual_check(catalog_lookup("example1"), 1.5)


def test_lam_override_threads_into_rhs():
    lam = 0.3
    problem = catalog_lookup("example1", lam=lam)
    assert problem.lam == lam
    expected = lam * (math.e + 1.0 / math.e) + (1.0 - 2.0 * lam)
    assert problem.rhs(0.0) == pytest.approx(expected)
    assert residual_check(problem, 0.4, panels=10**4) <= 1e-6


def test_interval_override():
    problem = catalog_lookup("example2", T=3.0)
    assert problem.b == 3.0
    assert residual_check(problem, 1.7, panels=10**4) <= 1e-6


def test_unsupported_override_rejected():
    with pytest.raises(ValueError, match="lam"):
        catalog_lookup("example3", lam=0.5)
    with pytest.raises(ValueError, match="kappa"):
        catalog_lookup("example1", kappa=2.0)


def test_non_finite_override_rejected():
    with pytest.raises(ValueError, match="finite"):
        catalog_lookup("example2", T=math.inf)


@pytest.mark.parametrize("name", ["schrod_separable", "schrod_pereybuck"])
def test_potential_branches_agree_on_diagonal(name):
    pot = catalog_lookup(name).potential
    r = np.linspace(0.0, pot.cutoff, 23)
    assert pot.eval_lower(r, r) == pytest.approx(pot.eval_upper(r, r), abs=1e-15)


def test_separable_potential_record():
    problem = catalog_lookup("schrod_separable")
    pot = problem.potential
    assert (pot.strength, pot.kappa, pot.cutoff) == (0.1, 1.0, 20.0)
    assert pot.nonlocal_range is None
    assert pot.eval_lower(1.0, 3.0) == pytest.approx(0.1 * math.exp(-2.0))
    assert problem.solution(0.0) == pytest.approx(1.0)
    # manufactured rhs at r=0: (1 - 3 lam/4) + 3 lam/4 - 0 = 1
    assert problem.rhs(0.0) == pytest.approx(1.0)


def test_pereybuck_potential_record():
    pot = catalog_lookup("schrod_pereybuck").potential
    assert pot.nonlocal_range == 100.0
    # on the diagonal the sigmoid is exactly 1/2
    assert pot.eval_lower(2.0, 2.0) == pytest.approx(0.05)
    assert catalog_lookup("schrod_pereybuck", A=5.0).potential.nonlocal_range == 5.0


def test_kappa_override_drops_manufactured_pair():
    problem = catalog_lookup("schrod_separable", kappa=2.0)
    assert problem.rhs is None
    assert problem.solution is None
    assert problem.potential.kappa == 2.0


def _example4_exceeds_double(t, s):
    # example4's branch is 1/(t^2 + s^4) for s <= t and 1/(s^2 + t^4) above.
    # Near its singular point (0, 0) the exact value is finite but can exceed
    # the largest double: at t = 0, s = 1e-247 it is 1e494.  The denominator
    # is computed exactly in rationals, so no underflow decides the answer.
    t, s = Fraction(t), Fraction(s)
    denominator = t**2 + s**4 if s <= t else s**2 + t**4
    return denominator * Fraction(np.finfo(float).max) < 1


@given(st.integers(0, 3), st.floats(-0.9, 0.9), st.floats(-0.9, 0.9))
@settings(max_examples=40)
def test_benchmark_kernels_finite_at_interior_points(idx, t, s):
    problem = catalog_lookup(BENCHMARKS[idx])
    if problem.name == "example4" and _example4_exceeds_double(t, s):
        return
    a, b = problem.a, problem.b
    tt = a + (t + 1.0) * (b - a) / 2.0 if problem.name == "example2" else t
    ss = a + (s + 1.0) * (b - a) / 2.0 if problem.name == "example2" else s
    assert np.isfinite(problem.kernel.eval(tt, ss))
