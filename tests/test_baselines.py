"""Gauss-Legendre Nystrom and deferred trapezium comparison methods."""

import numpy as np
import pytest

from chebfred import baselines
from chebfred.baselines import (
    MethodNotApplicableError,
    gauss_legendre_rule,
    nystrom_solve,
    trapezium_deferred_solve,
)
from chebfred.fredholm_solver import relative_sup_error, solve_fredholm
from chebfred.kernel_catalog import catalog_lookup


class TestGaussLegendreRule:
    def test_one_point_is_midpoint(self):
        rule = gauss_legendre_rule(1, -1.0, 1.0)
        assert rule.nodes == pytest.approx([0.0], abs=1e-15)
        assert rule.weights == pytest.approx([2.0])

    def test_two_point_closed_form(self):
        rule = gauss_legendre_rule(2, -1.0, 1.0)
        assert rule.nodes == pytest.approx([-1.0 / np.sqrt(3.0), 1.0 / np.sqrt(3.0)])
        assert rule.weights == pytest.approx([1.0, 1.0])

    @pytest.mark.parametrize("n", [2, 5, 16, 64])
    def test_weights_sum_to_interval_length(self, n):
        rule = gauss_legendre_rule(n, 0.5, 3.5)
        assert np.sum(rule.weights) == pytest.approx(3.0, abs=1e-13)
        assert np.all(np.diff(rule.nodes) > 0)

    @pytest.mark.parametrize("n", [2, 5, 16])
    def test_exact_through_degree_2n_minus_1(self, n):
        rule = gauss_legendre_rule(n, -1.0, 1.0)
        for d in range(2 * n):
            exact = 0.0 if d % 2 else 2.0 / (d + 1)
            approx = np.sum(rule.weights * rule.nodes**d)
            assert abs(approx - exact) < 1e-13
        # degree 2n breaks: the rule is not a miracle (error shrinks fast
        # with n but stays far above the exactness threshold used above)
        d = 2 * n
        approx = np.sum(rule.weights * rule.nodes**d)
        assert abs(approx - 2.0 / (d + 1)) > 1e-10

    def test_cached_rule_is_bitwise_the_recurrence_and_fresh(self):
        a, b = 0.5, 3.5
        half, center = (b - a) / 2.0, (a + b) / 2.0
        for n in range(1, 65):
            # the recurrence run afresh, past the cache
            x, w = baselines._reference_rule.__wrapped__(n)
            first, second = gauss_legendre_rule(n, a, b), gauss_legendre_rule(n, a, b)
            for rule in (first, second):
                assert np.array_equal(rule.nodes, center + half * x)
                assert np.array_equal(rule.weights, half * w)
            # each call returns its own writable arrays, not the cached ones
            cached = baselines._reference_rule(n)
            for got, other, kept in ((first.nodes, second.nodes, cached[0]),
                                     (first.weights, second.weights, cached[1])):
                assert got.flags.writeable and not kept.flags.writeable
                assert not np.shares_memory(got, other) and not np.shares_memory(got, kept)
            first.nodes[:] = 0.0
            assert np.array_equal(gauss_legendre_rule(n, a, b).nodes, second.nodes)

    def test_newton_that_does_not_converge_raises(self, monkeypatch):
        # a Legendre pair of NaNs, whose Newton step never falls below the
        # tolerance; the cache is cleared so that the rule is computed, and
        # again so that no later test reads a rule made under the patch
        monkeypatch.setattr(baselines, "_legendre_pair", lambda n, x: (np.full_like(x, np.nan), x))
        baselines._reference_rule.cache_clear()
        try:
            with pytest.raises(RuntimeError, match="did not converge"):
                gauss_legendre_rule(4, -1.0, 1.0)
        finally:
            baselines._reference_rule.cache_clear()

    def test_invalid_inputs_raise(self):
        with pytest.raises(ValueError):
            gauss_legendre_rule(0, -1.0, 1.0)
        with pytest.raises(ValueError):
            gauss_legendre_rule(4, 1.0, 1.0)


def test_nystrom_zero_kernel_returns_rhs():
    rule = gauss_legendre_rule(12, -1.0, 1.0)
    sol = nystrom_solve(lambda t, s: t * 0.0 + s * 0.0, rule, 2.0, np.cos)
    assert sol.values == pytest.approx(np.cos(rule.nodes))


def test_nystrom_spectral_on_smooth_kernel():
    # manufactured problem: x = sinh, kernel exp(t s); y from a high-order rule
    lam = 0.3
    oracle = gauss_legendre_rule(50, -1.0, 1.0)

    def rhs(t):
        t = np.atleast_1d(np.asarray(t, dtype=float))
        integ = np.sum(
            oracle.weights[None, :] * np.exp(t[:, None] * oracle.nodes[None, :]) * np.sinh(oracle.nodes)[None, :],
            axis=1,
        )
        out = np.sinh(t) + lam * integ
        return out if np.ndim(t) else out[0]

    rule = gauss_legendre_rule(16, -1.0, 1.0)
    sol = nystrom_solve(lambda t, s: np.exp(t * s), rule, lam, rhs)
    assert np.max(np.abs(sol.values - np.sinh(rule.nodes))) < 1e-12
    cheb = solve_fredholm(lambda t, s: np.exp(t * s), -1.0, 1.0, lam, rhs, 16, smooth=True)
    assert np.max(np.abs(cheb.node_values - np.sinh(cheb.nodes))) < 1e-12


def test_gauss_rule_degrades_on_kinked_kernel():
    problem = catalog_lookup("example1")
    rule = gauss_legendre_rule(64, problem.a, problem.b)
    sol = nystrom_solve(problem.kernel, rule, problem.lam, problem.rhs)
    err = relative_sup_error(sol.values, problem.solution(sol.nodes))
    assert err > 1e-4


def test_gauss_rule_stalls_on_boundary_layer_problem():
    problem = catalog_lookup("example3")
    rule = gauss_legendre_rule(256, problem.a, problem.b)
    sol = nystrom_solve(problem.kernel, rule, problem.lam, problem.rhs)
    err = relative_sup_error(sol.values, problem.solution(sol.nodes))
    assert 1e-4 < err < 5e-2


@pytest.mark.parametrize("name", ["example1", "example2"])
def test_deferred_trapezium_high_accuracy(name):
    problem = catalog_lookup(name)
    sol = trapezium_deferred_solve(
        problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, 256
    )
    err = relative_sup_error(sol.values, problem.solution(sol.nodes))
    assert err < 1e-12


def test_deferred_trapezium_sixth_order_rate():
    problem = catalog_lookup("example2")
    sizes = np.array([16, 32, 64])
    errors = []
    for m in sizes:
        sol = trapezium_deferred_solve(
            problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, int(m)
        )
        errors.append(relative_sup_error(sol.values, problem.solution(sol.nodes)))
    h = (problem.b - problem.a) / sizes
    slope = np.polyfit(np.log(h), np.log(errors), 1)[0]
    assert slope > 5.0


def test_deferred_trapezium_rejects_singular_kernels():
    for name in ("example3", "example4"):
        problem = catalog_lookup(name)
        with pytest.raises(MethodNotApplicableError):
            trapezium_deferred_solve(
                problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, 16
            )


def test_deferred_trapezium_needs_two_panels():
    problem = catalog_lookup("example1")
    with pytest.raises(ValueError, match="panels"):
        trapezium_deferred_solve(
            problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, 1
        )


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_nystrom_rejects_nonfinite_rhs(bad):
    problem = catalog_lookup("example1")
    rule = gauss_legendre_rule(8, problem.a, problem.b)
    with pytest.raises(ValueError, match="non-finite"):
        nystrom_solve(problem.kernel, rule, problem.lam, lambda t: np.where(t > 0.5, bad, 1.0))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_trapezium_deferred_rejects_nonfinite_rhs(bad):
    problem = catalog_lookup("example1")
    with pytest.raises(ValueError, match="non-finite"):
        trapezium_deferred_solve(
            problem.kernel, problem.a, problem.b, problem.lam, lambda t: np.where(t > 0.5, bad, 1.0), 8
        )
