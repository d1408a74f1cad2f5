"""Comparison discretizations: Gauss-Legendre Nystrom and deferred trapezium.

Neither method knows about the diagonal split beyond branch selection, which
is the point: on kernels with a diagonal kink or jump the Gauss rule loses
its spectral rate, while the trapezium rule keeps its low-order rate because
each row's quadrature is split at the diagonal.  The deferred approach runs
the trapezium discretization at spacings h, h/2, h/4 and eliminates the h^2
and h^4 error terms by extrapolation.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fredholm_solver import _rhs_values, dense_solve
from .kernel_catalog import as_semismooth

__all__ = [
    "MethodNotApplicableError",
    "QuadratureRule",
    "BaselineSolution",
    "gauss_legendre_rule",
    "nystrom_solve",
    "trapezium_deferred_solve",
]


class MethodNotApplicableError(ValueError):
    """The requested baseline cannot be applied to this kernel."""


@dataclass(frozen=True)
class QuadratureRule:
    nodes: np.ndarray
    weights: np.ndarray


def gauss_legendre_rule(n: int, a: float, b: float) -> QuadratureRule:
    """n-point Gauss-Legendre rule on [a, b], nodes ascending.

    The rule on [-1, 1] is computed once per n (``_reference_rule``) and
    scaled to [a, b] into fresh arrays on every call.
    """
    if n < 1:
        raise ValueError(f"need n >= 1, got {n}")
    if not b > a:
        raise ValueError(f"need b > a, got [{a}, {b}]")
    x, w = _reference_rule(n)
    half = (b - a) / 2.0
    center = (a + b) / 2.0
    return QuadratureRule(nodes=center + half * x, weights=half * w)


@functools.lru_cache(maxsize=128)
def _reference_rule(n: int):
    """Read-only (nodes, weights) of the n-point rule on [-1, 1], nodes ascending.

    Roots of the degree-n Legendre polynomial by Newton iteration on the
    three-term recurrence, derivative from (x^2 - 1) P' = n (x P - P_{n-1}).
    """
    i = np.arange(1, n + 1)
    x = np.cos(np.pi * (i - 0.25) / (n + 0.5))
    for _ in range(100):
        p, pm = _legendre_pair(n, x)
        dp = n * (x * p - pm) / (x * x - 1.0)
        dx = p / dp
        x -= dx
        if np.max(np.abs(dx)) <= 1e-14:
            break
    else:
        raise RuntimeError("Newton iteration for Gauss-Legendre nodes did not converge")
    p, pm = _legendre_pair(n, x)
    dp = n * (x * p - pm) / (x * x - 1.0)
    w = 2.0 / ((1.0 - x * x) * dp * dp)
    rule = x[::-1].copy(), w[::-1].copy()
    for array in rule:
        array.flags.writeable = False
    return rule


def _legendre_pair(n: int, x: np.ndarray):
    """(P_n(x), P_{n-1}(x)) by upward recurrence, for n >= 1."""
    p_prev = np.ones_like(x)
    p = x.copy()
    for k in range(2, n + 1):
        p, p_prev = ((2 * k - 1) * x * p - (k - 1) * p_prev) / k, p
    return p, p_prev


@dataclass(frozen=True)
class BaselineSolution:
    nodes: np.ndarray
    values: np.ndarray
    rcond: float
    cond_warning: bool


def nystrom_solve(kernel, rule: QuadratureRule, lam: float, rhs) -> BaselineSolution:
    """x_i + lam * sum_j w_j k(t_i, s_j) x_j = y(t_i), dense solve."""
    t = rule.nodes
    k_vals = as_semismooth(kernel).eval(t[:, None], t[None, :])
    matrix = np.eye(len(t)) + lam * k_vals * rule.weights[None, :]
    vals, rcond, warn = dense_solve(matrix, _rhs_values(rhs, t))
    return BaselineSolution(nodes=t, values=vals, rcond=rcond, cond_warning=warn)


def _trapezium_semismooth(kernel, a: float, b: float, lam: float, rhs, panels: int):
    """Uniform-grid Nystrom with each row's trapezium rule split at s = t."""
    m = panels
    h = (b - a) / m
    t = a + h * np.arange(m + 1)
    jj, ii = np.meshgrid(np.arange(m + 1), np.arange(m + 1))
    w1 = np.where(jj <= ii, h, 0.0)
    w1[:, 0] *= 0.5
    w1[jj == ii] *= 0.5
    w1[0, :] = 0.0  # empty [a, t_0]
    w2 = np.where(jj >= ii, h, 0.0)
    w2[:, -1] *= 0.5
    w2[jj == ii] *= 0.5
    w2[-1, :] = 0.0  # empty [t_m, b]
    kernel = as_semismooth(kernel)
    k1 = kernel.eval_lower(t[:, None], t[None, :])
    k2 = kernel.eval_upper(t[:, None], t[None, :])
    matrix = np.eye(m + 1) + lam * (w1 * k1 + w2 * k2)
    return dense_solve(matrix, _rhs_values(rhs, t)), t


def trapezium_deferred_solve(
    kernel, a: float, b: float, lam: float, rhs, panels: int
) -> BaselineSolution:
    """Trapezium solves at spacings h, h/2, h/4 combined as (64 x3 + x1 - 20 x2)/45.

    The combination cancels the h^2 and h^4 expansion terms, leaving O(h^6)
    on the coarse grid.  Kernels that blow up anywhere on the closed square
    (boundary or an interior diagonal point) are rejected: the uniform grid
    includes the endpoints and, for even panel splits, interior breakpoints.
    """
    if getattr(kernel, "boundary_singular", False) or getattr(kernel, "singular_points", ()):
        raise MethodNotApplicableError(
            "trapezium-based method needs a kernel finite on the closed square"
        )
    if panels < 2:
        raise ValueError(f"need at least 2 panels, got {panels}")
    (x1, _, warn1), t_coarse = _trapezium_semismooth(kernel, a, b, lam, rhs, panels)
    (x2, _, warn2), _ = _trapezium_semismooth(kernel, a, b, lam, rhs, 2 * panels)
    (x3, rcond3, warn3), _ = _trapezium_semismooth(kernel, a, b, lam, rhs, 4 * panels)
    combined = (64.0 * x3[::4] + x1 - 20.0 * x2[::2]) / 45.0
    return BaselineSolution(
        nodes=t_coarse,
        values=combined,
        rcond=rcond3,
        cond_warning=warn1 or warn2 or warn3,
    )
