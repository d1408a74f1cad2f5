"""Benchmark problems: kernels split along the diagonal, with known solutions.

A kernel here is given by two branch functions, each smooth on the whole
square [a,b]^2: ``k_lower`` is used where s <= t and ``k_upper`` where s >= t.
The catalog carries four integral-equation benchmarks with manufactured
right-hand sides plus two nonlocal scattering potentials consumed by the
:mod:`chebfred.schrodinger` module.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "KernelEvaluationError",
    "CatalogError",
    "SemismoothKernel",
    "as_semismooth",
    "BenchmarkProblem",
    "NonlocalPotential",
    "SchrodingerProblem",
    "catalog_lookup",
    "catalog_names",
    "residual_check",
]


class KernelEvaluationError(ValueError):
    """A kernel branch produced a non-finite value where it was sampled."""


class CatalogError(LookupError):
    """Unknown catalog entry."""


def _checked(fn: Callable, t, s, what: str) -> np.ndarray:
    t = np.asarray(t, dtype=float)
    s = np.asarray(s, dtype=float)
    with np.errstate(all="ignore"):
        out = np.asarray(fn(t, s), dtype=float)
    if not np.all(np.isfinite(out)):
        bad = np.argwhere(~np.isfinite(np.atleast_1d(out)))
        raise KernelEvaluationError(
            f"{what} evaluated to a non-finite value at {bad.shape[0]} point(s)"
        )
    return out


@dataclass(frozen=True)
class SemismoothKernel:
    """Two-branch kernel k(t, s), split along s = t.

    ``singular_points`` lists diagonal points c where the kernel blows up at
    (c, c); ``boundary_singular`` flags branches unbounded on the square's
    boundary.  ``difference_form`` marks kernels of the form k(|t-s|), which
    make uniform equal-order partitions block-Toeplitz.
    """

    k_lower: Callable  # branch for s <= t
    k_upper: Callable  # branch for s >= t
    singular_points: tuple = ()
    boundary_singular: bool = False
    difference_form: bool = False

    def eval_lower(self, t, s) -> np.ndarray:
        return _checked(self.k_lower, t, s, "lower kernel branch")

    def eval_upper(self, t, s) -> np.ndarray:
        return _checked(self.k_upper, t, s, "upper kernel branch")

    def eval(self, t, s) -> np.ndarray:
        """Branch-selected value; the diagonal uses the lower branch.  Only
        the selected branch must be finite."""
        return _checked(lambda t, s: np.where(s <= t, self.k_lower(t, s), self.k_upper(t, s)), t, s, "kernel")


def as_semismooth(kernel):
    """A plain callable k(t, s) as ``SemismoothKernel(k, k)``; a kernel with branches as is."""
    if hasattr(kernel, "eval_lower"):
        return kernel
    return SemismoothKernel(kernel, kernel)


@dataclass(frozen=True)
class BenchmarkProblem:
    name: str
    kernel: SemismoothKernel
    a: float
    b: float
    lam: float
    rhs: Callable
    solution: Callable | None
    orders: tuple = (4, 8, 16, 32)
    summary: str = ""


@dataclass(frozen=True)
class NonlocalPotential:
    """Nonlocal potential v(p, r'), split along p = r'.

    ``lower`` is the branch for p <= r', ``upper`` for p >= r'; the first
    argument of both is the integration variable p.  ``strength`` is folded
    into the branch values already and kept only for reporting, as are the
    wavenumber ``kappa``, the domain cutoff ``cutoff`` (the potential is
    treated as negligible past it), and the optional ``nonlocal_range``.
    """

    lower: Callable
    upper: Callable
    strength: float
    kappa: float
    cutoff: float
    nonlocal_range: float | None = None

    def eval_lower(self, p, r2) -> np.ndarray:
        return _checked(self.lower, p, r2, "lower potential branch")

    def eval_upper(self, p, r2) -> np.ndarray:
        return _checked(self.upper, p, r2, "upper potential branch")


@dataclass(frozen=True)
class SchrodingerProblem:
    name: str
    potential: NonlocalPotential
    rhs: Callable | None  # None means the physical sin(kappa*r)
    solution: Callable | None
    orders: tuple = (16, 32, 64, 128)
    summary: str = ""


def _const(value: float) -> Callable:
    def f(t, s):
        return np.full(np.broadcast(np.asarray(t), np.asarray(s)).shape, value)

    return f


def _example1(lam: float) -> BenchmarkProblem:
    kernel = SemismoothKernel(k_lower=_const(1.0), k_upper=_const(-1.0))
    e = math.e

    def rhs(t):
        return lam * (e + 1.0 / e) + (1.0 - 2.0 * lam) * np.exp(-np.asarray(t, float))

    return BenchmarkProblem(
        name="example1",
        kernel=kernel,
        a=-1.0,
        b=1.0,
        lam=lam,
        rhs=rhs,
        solution=lambda t: np.exp(-np.asarray(t, float)),
        orders=(4, 8, 16, 32),
        summary="sign-jump kernel on [-1,1], solution exp(-t)",
    )


def _example2(lam: float, T: float) -> BenchmarkProblem:
    kernel = SemismoothKernel(
        k_lower=lambda t, s: np.sin(t - s),
        k_upper=lambda t, s: np.sin(s - t),
        difference_form=True,
    )

    def rhs(t):
        t = np.asarray(t, float)
        return (1.0 - lam * np.sin(T) ** 2 / 2.0 + lam) * np.sin(t) + (
            T / 2.0 - t - np.sin(2.0 * T) / 4.0
        ) * lam * np.cos(t)

    return BenchmarkProblem(
        name="example2",
        kernel=kernel,
        a=0.0,
        b=T,
        lam=lam,
        rhs=rhs,
        solution=lambda t: np.sin(np.asarray(t, float)),
        orders=(4, 8, 16, 32),
        summary="sin|t-s| kernel on [0,T], solution sin(t); T=200pi stresses partitioning",
    )


def _example3() -> BenchmarkProblem:
    kernel = SemismoothKernel(
        k_lower=lambda t, s: 1.0 / ((1.0 - t**2) * (1.0 - s**4)),
        k_upper=lambda t, s: -1.0 / ((1.0 - t**4) * (1.0 - s**2)),
        boundary_singular=True,
    )

    def rhs(t):
        t = np.asarray(t, float)
        return (
            1.0
            - t**2
            + (np.arctan(t) + np.pi / 4.0) / (1.0 - t**2)
            - 1.0 / ((1.0 + t) * (1.0 + t**2))
        )

    return BenchmarkProblem(
        name="example3",
        kernel=kernel,
        a=-1.0,
        b=1.0,
        lam=1.0,
        rhs=rhs,
        solution=lambda t: 1.0 - np.asarray(t, float) ** 2,
        orders=(8, 16, 32, 64),
        summary="branches blow up on the boundary; nodes stay interior so the rule still converges",
    )


def _example4() -> BenchmarkProblem:
    kernel = SemismoothKernel(
        k_lower=lambda t, s: 1.0 / (t**2 + s**4),
        k_upper=lambda t, s: 1.0 / (s**2 + t**4),
        singular_points=(0.0,),
    )

    def rhs(t):
        t = np.asarray(t, float)
        return (
            2.0 * (1.0 - t**2 + 2.0 * t**3)
            + (1.0 + 2.0 * t**4) * np.log(t**2 + t**4)
            - np.log(1.0 + t**2)
            - 2.0 * t**4 * np.log(1.0 + t**4)
        )

    return BenchmarkProblem(
        name="example4",
        kernel=kernel,
        a=-1.0,
        b=1.0,
        lam=1.0,
        rhs=rhs,
        solution=lambda t: 4.0 * np.asarray(t, float) ** 3,
        orders=(15, 31, 63, 127, 255),
        summary="kernel singular at (0,0); partition at 0, or keep the order odd so no node lands there",
    )


def _schrod_separable(lam: float, kappa: float, T: float) -> SchrodingerProblem:
    potential = NonlocalPotential(
        lower=lambda p, r2: lam * np.exp(p - r2),
        upper=lambda p, r2: lam * np.exp(r2 - p),
        strength=lam,
        kappa=kappa,
        cutoff=T,
    )
    if kappa == 1.0:
        def rhs(r):
            r = np.asarray(r, float)
            return (
                (1.0 - 3.0 * lam * kappa / 4.0) * np.exp(-r)
                + (3.0 * lam * kappa / 4.0) * np.cos(r)
                - (lam * kappa / 2.0) * r * np.exp(-r)
            )

        solution = lambda r: np.exp(-np.asarray(r, float))
    else:
        # the manufactured pair above is specific to kappa = 1
        rhs = None
        solution = None
    return SchrodingerProblem(
        name="schrod_separable",
        potential=potential,
        rhs=rhs,
        solution=solution,
        orders=(16, 32, 64, 128),
        summary="exp(-|p-r'|) potential; analytic solution exp(-r) at kappa=1",
    )


def _schrod_pereybuck(lam: float, kappa: float, A: float, T: float) -> SchrodingerProblem:
    potential = NonlocalPotential(
        lower=lambda p, r2: lam * np.exp((p - r2) / A) / (1.0 + np.exp((p - r2) / A)),
        upper=lambda p, r2: lam * np.exp((r2 - p) / A) / (1.0 + np.exp((r2 - p) / A)),
        strength=lam,
        kappa=kappa,
        cutoff=T,
        nonlocal_range=A,
    )
    return SchrodingerProblem(
        name="schrod_pereybuck",
        potential=potential,
        rhs=None,
        solution=None,
        orders=(16, 32, 64, 128),
        summary="optical-model style potential, kink but no closed form; error via self-convergence",
    )


# name -> (factory, default overrides); the keys of the defaults are the
# overrides the entry accepts
_CATALOG = {
    "example1": (_example1, dict(lam=0.1)),
    "example2": (_example2, dict(lam=-4.0 / math.pi, T=math.pi / 2.0)),
    "example3": (_example3, dict()),
    "example4": (_example4, dict()),
    "schrod_separable": (_schrod_separable, dict(lam=0.1, kappa=1.0, T=20.0)),
    "schrod_pereybuck": (_schrod_pereybuck, dict(lam=0.1, kappa=1.0, A=100.0, T=20.0)),
}


def catalog_names() -> tuple:
    return tuple(_CATALOG)


def catalog_lookup(
    name: str,
    lam: float | None = None,
    T: float | None = None,
    kappa: float | None = None,
    A: float | None = None,
):
    """Build a catalog problem, applying any scalar overrides it supports.

    Returns a :class:`BenchmarkProblem` for the integral-equation entries and
    a :class:`SchrodingerProblem` for the scattering entries.  Overrides that
    an entry does not support, and non-finite overrides, raise ValueError.
    """
    if name not in _CATALOG:
        raise CatalogError(
            f"unknown problem {name!r}; known: {', '.join(_CATALOG)}"
        )
    factory, defaults = _CATALOG[name]
    params = dict(defaults)
    given = {"lam": lam, "T": T, "kappa": kappa, "A": A}
    for key, value in given.items():
        if value is None:
            continue
        if key not in params:
            raise ValueError(f"problem {name!r} does not take a {key} override")
        params[key] = float(value)
        if not math.isfinite(params[key]):
            raise ValueError(f"{key} override must be finite, got {value!r}")
    return factory(**params)


def residual_check(problem: BenchmarkProblem, t, panels: int = 10_000) -> np.ndarray:
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
