"""Catalog problems: branch values, manufactured solutions, residual oracle."""

import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from dense_oracle import residual_check
from hypothesis import strategies as st

from chebfred.composite_solver import build_partition
from chebfred.kernel_catalog import (
    CatalogError,
    KernelEvaluationError,
    NonlocalPotential,
    SemismoothKernel,
    catalog_lookup,
    catalog_names,
)
from chebfred.spectral_core import cheb_grid

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


def test_a_reflected_kernels_upper_sample_names_the_branch_it_reads():
    # a reflected kernel's upper branch is k_lower with the arguments
    # swapped, so a non-finite value there is the lower branch's
    reflected = SemismoothKernel(k_lower=lambda t, s: np.log(t - s))
    with pytest.raises(KernelEvaluationError, match="^lower kernel branch evaluated"):
        reflected.eval_upper(0.5, 0.0)
    explicit = dataclasses.replace(reflected, k_upper=lambda t, s: np.log(s - t))
    with pytest.raises(KernelEvaluationError, match="^upper kernel branch evaluated"):
        explicit.eval_upper(0.5, 0.0)


def test_a_reflected_potentials_upper_sample_names_the_branch_it_reads():
    # likewise for a potential: its upper branch is lower(r', p), so at
    # (0.5, 0) the reflected potential reads log(0 - 0.5)
    reflected = NonlocalPotential(lower=lambda p, r2: np.log(p - r2), kappa=1.0, cutoff=20.0)
    with pytest.raises(KernelEvaluationError, match="^lower potential branch evaluated"):
        reflected.eval_upper(0.5, 0.0)
    explicit = dataclasses.replace(reflected, upper=lambda p, r2: np.log(r2 - p))
    with pytest.raises(KernelEvaluationError, match="^upper potential branch evaluated"):
        explicit.eval_upper(0.5, 0.0)


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
    assert (pot.kappa, pot.cutoff) == (1.0, 20.0)
    # the coupling lam = 0.1 is folded into the branch values
    assert pot.eval_lower(1.0, 3.0) == pytest.approx(0.1 * math.exp(-2.0))
    assert problem.solution(0.0) == pytest.approx(1.0)
    # manufactured rhs at r=0: (1 - 3 lam/4) + 3 lam/4 - 0 = 1
    assert problem.rhs(0.0) == pytest.approx(1.0)


def test_potential_fields_are_keyword_only():
    # upper follows the required fields, so a positional call in the old
    # field order would bind every value one field off
    smooth = lambda p, r2: np.exp(-np.abs(p - r2))
    with pytest.raises(TypeError):
        NonlocalPotential(smooth, smooth, 1.0, 20.0)


def test_pereybuck_potential_record():
    pot = catalog_lookup("schrod_pereybuck").potential
    assert (pot.kappa, pot.cutoff) == (1.0, 20.0)
    # on the diagonal the sigmoid is exactly 1/2
    assert pot.eval_lower(2.0, 2.0) == pytest.approx(0.05)
    # the range A shapes the sigmoid lam / (1 + exp(-(p - r') / A)): at
    # p - r' = 2, 0.1 / (1 + e^-0.02) at the default A = 100, and
    # 0.1 / (1 + e^-0.4) at A = 5
    assert pot.eval_lower(3.0, 1.0) == pytest.approx(0.1 / (1.0 + math.exp(-0.02)), rel=1e-14)
    narrow = catalog_lookup("schrod_pereybuck", A=5.0).potential
    assert narrow.eval_lower(3.0, 1.0) == pytest.approx(0.1 / (1.0 + math.exp(-0.4)), rel=1e-14)


@pytest.mark.parametrize("A", [100.0, 0.03, 0.02])
def test_pereybuck_logistic_takes_its_limit_where_exp_overflows(A):
    # lam e / (1 + e), e = exp((p - r') / A), bitwise wherever e is finite,
    # and lam where e overflows (p - r' > 709.78 A, on [0, 20] only at
    # A = 0.02), not inf / inf
    pot = catalog_lookup("schrod_pereybuck", A=A).potential
    x = np.linspace(0.0, 20.0, 41)
    p, r2 = x[:, None], x[None, :]
    with np.errstate(all="ignore"):
        e = np.exp((p - r2) / A)
        written_out = 0.1 * e / (1.0 + e)
    values = pot.eval_lower(p, r2)
    finite = np.isfinite(e)
    assert np.array_equal(values[finite], written_out[finite])
    assert np.all(values[~finite] == 0.1) and np.any(~finite) == (A == 0.02)
    assert np.all((0.0 <= values) & (values <= 0.1 * (1.0 + 4.0 * np.finfo(float).eps)))


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


def _catalog_entries():
    """(name, branches) for every catalog entry: a kernel or a potential."""
    for name in catalog_names():
        problem = catalog_lookup(name)
        yield name, getattr(problem, "kernel", None) or problem.potential


def _reflection_holds(branches, x):
    """upper(t, s) == lower(s, t) bitwise at every pair of points of ``x``."""
    upper = branches.eval_upper(x[:, None], x[None, :])
    lower = branches.eval_lower(x[:, None], x[None, :])
    return np.array_equal(upper, lower.T)


def _interval(name):
    problem = catalog_lookup(name)
    return (problem.a, problem.b) if hasattr(problem, "kernel") else (0.0, problem.potential.cutoff)


def _reflected(branches):
    """True for a kernel or potential given without an upper branch."""
    return (branches.k_upper if isinstance(branches, SemismoothKernel) else branches.upper) is None


@pytest.mark.parametrize("name", [name for name, branches in _catalog_entries() if _reflected(branches)])
def test_reflected_entries_hold_bitwise(name):
    # the assembly reads a reflected entry's upper samples as transposes of
    # its lower ones, while eval_upper calls the lower branch on swapped
    # arguments: the two must be the same doubles, on one panel's nodes and
    # across the two panels of a layout cut at the midpoint
    branches = dict(_catalog_entries())[name]
    a, b = _interval(name)
    for n in (16, 255, 384):
        assert _reflection_holds(branches, cheb_grid(n, a, b).nodes), n
    two_panels = build_partition(a, b, breakpoints=((a + b) / 2,), orders=(64, 63))
    assert _reflection_holds(branches, np.concatenate([g.nodes for g in two_panels.grids]))


def test_reflected_entries_are_the_four_without_an_upper_branch():
    reflected = {name for name, branches in _catalog_entries() if _reflected(branches)}
    assert reflected == {"example2", "example4", "schrod_separable", "schrod_pereybuck"}
    # the kernels with an upper branch fail the property, so they could not
    # be given without one
    for name in ("example1", "example3"):
        a, b = _interval(name)
        assert not _reflection_holds(catalog_lookup(name).kernel, cheb_grid(16, a, b).nodes)

