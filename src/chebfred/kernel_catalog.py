"""Benchmark problems: kernels split along the diagonal, with known solutions.

A kernel here is given by two branch functions, each smooth on the whole
square [a,b]^2: ``k_lower`` is used where s <= t and ``k_upper`` where s >= t.
The catalog carries four integral-equation benchmarks with manufactured
right-hand sides plus two nonlocal scattering potentials consumed by the
:mod:`chebfred.schrodinger` module.

A kernel or potential given without an upper branch (``k_upper=None``,
``upper=None``) is reflected: its upper branch is its lower branch with the
arguments swapped, k_upper(t, s) = k_lower(s, t), by construction.  A branch
sample over a block of node pairs is then the transpose of the other
branch's over the mirrored block, so the assembly samples the lower branch
alone off the diagonal (``eval_mirrored``), and the Schrodinger assembly
transposes V1 itself.  A diagonal block is sampled one row block at a time
through both branches, the upper one reading ``k_lower`` with the arguments
swapped.  Example2, example4 and both scattering potentials are given so;
example1 and example3 carry both branches.

A branch may be stated by its factor pairs, k(t, s) = sum_r f_r(t) g_r(s)
(``Separable``).  Such a branch is a callable like any other, which sums
the products f_r(t) g_r(s) in the order of its pairs, so its samples are
those of the expression written out term by term.  The factors cannot
disagree with the samples, because they are the branch: replacing the
branch by a plain callable drops them.  A reflected kernel whose lower
branch is ``Separable`` has the swapped pairs (g_r, f_r) as its upper
branch's factors, since k_lower(s, t) = sum_r g_r(t) f_r(s).  When both
branches of a kernel have factor pairs (``SemismoothKernel.factors``), a
one-panel block is filled from the factors at the nodes, and no branch is
sampled (``fredholm_solver.semismooth_block``).

Example1's branches are the constants 1 and -1, one pair each.  Example2's
branch sin(t - s) is stated by its two factor pairs,
sin t cos s - cos t sin s, the same function: a sample on R rows and C
columns then takes R + C sines and cosines and R C products, where
sin(t - s) takes R C sines, and t - s, rounded to ulp(T), is never formed.
Example3, example4 and both scattering potentials are plain callables.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "KernelEvaluationError",
    "CatalogError",
    "Separable",
    "SemismoothKernel",
    "as_semismooth",
    "BenchmarkProblem",
    "NonlocalPotential",
    "SchrodingerProblem",
    "catalog_lookup",
    "catalog_names",
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


def _swapped(fn: Callable) -> Callable:
    return lambda t, s: fn(s, t)


@dataclass(frozen=True)
class Separable:
    """A kernel branch k(t, s) = sum_r f_r(t) g_r(s), stated by its factor
    pairs ``pairs`` = ((f_1, g_1), (f_2, g_2), ...), each factor a function
    of one array argument that returns an array of its shape.

    Calling it gives f_1(t) g_1(s) + f_2(t) g_2(s) + ..., summed in that
    order (module docstring).  A term with a minus sign is a pair whose f
    is negated: (-c) d is -(c d) exactly, and x + (-y) is x - y.
    """

    pairs: tuple

    def __call__(self, t, s):
        (f, g), *rest = self.pairs
        total = f(t) * g(s)
        for f, g in rest:
            total = total + f(t) * g(s)
        return total

    def factors(self, t, what: str):
        """(F, G), with columns r the factors f_r and g_r at the 1-D points
        t.  A non-finite factor raises ``KernelEvaluationError``, and so
        does a factor size that lets a product overflow: the largest |k|
        the factors allow, sum_r max|f_r| max|g_r|, is attained term by
        term among the pairs of points."""
        f = np.empty((len(t), len(self.pairs)))
        g = np.empty_like(f)
        with np.errstate(all="ignore"):
            for r, (fn, gn) in enumerate(self.pairs):
                f[:, r] = fn(t)
                g[:, r] = gn(t)
            bound = np.abs(f).max(axis=0) @ np.abs(g).max(axis=0)
        if not np.isfinite(bound):
            bad = np.count_nonzero(~np.isfinite(f)) + np.count_nonzero(~np.isfinite(g))
            problem = f"evaluated to a non-finite value at {bad} point(s)" if bad else "overflow their products"
            raise KernelEvaluationError(f"{what} factors {problem}")
        return f, g


@dataclass(frozen=True)
class SemismoothKernel:
    """Two-branch kernel k(t, s), split along s = t.

    ``k_upper=None`` makes the kernel reflected: its upper branch is
    k_lower(s, t) (module docstring).  ``singular_points`` lists diagonal
    points c where the kernel blows up at (c, c); ``boundary_singular``
    flags branches unbounded on the square's boundary.  ``difference_form``
    marks kernels of the form k(|t-s|): stated by factor pairs on several
    panels of equal width and order, such a kernel is stored as its factors
    (``composite_solver.assemble_blocks``); on plain callables it changes
    nothing.
    """

    k_lower: Callable  # branch for s <= t
    k_upper: Callable | None = None  # branch for s >= t
    singular_points: tuple = ()
    boundary_singular: bool = False
    difference_form: bool = False

    @property
    def _upper(self) -> Callable:
        return _swapped(self.k_lower) if self.k_upper is None else self.k_upper

    def factors(self, t):
        """(F1, G1, F2, G2), the factors of the lower and the upper branch
        at the points t (``Separable.factors``), or None unless both
        branches are ``Separable``.  A reflected kernel's upper factors are
        its lower ones swapped, F2 = G1 and G2 = F1."""
        if not isinstance(self.k_lower, Separable):
            return None
        f1, g1 = self.k_lower.factors(t, "lower kernel branch")
        if self.k_upper is None:
            return f1, g1, g1, f1
        if not isinstance(self.k_upper, Separable):
            return None
        return (f1, g1, *self.k_upper.factors(t, "upper kernel branch"))

    def eval_lower(self, t, s) -> np.ndarray:
        return _checked(self.k_lower, t, s, "lower kernel branch")

    def eval_upper(self, t, s) -> np.ndarray:
        """The upper branch; a reflected kernel's reads ``k_lower``, and
        names that branch when it is not finite."""
        what = "lower kernel branch" if self.k_upper is None else "upper kernel branch"
        return _checked(self._upper, t, s, what)

    def eval(self, t, s) -> np.ndarray:
        """Branch-selected value; the diagonal uses the lower branch.  Only
        the selected branch must be finite."""
        return _checked(lambda t, s: np.where(s <= t, self.k_lower(t, s), self._upper(t, s)), t, s, "kernel")

    def eval_mirrored(self, t, s):
        """For a column t and a row s: the lower branch on (t, s) and the
        upper branch on (s^T, t^T), a block below the diagonal and its
        mirror above it.  A reflected kernel is sampled once, and the mirror
        is the transpose of that sample."""
        lower = self.eval_lower(t, s)
        if self.k_upper is None:
            return lower, lower.T
        return lower, self.eval_upper(np.transpose(s), np.transpose(t))


def as_semismooth(kernel) -> SemismoothKernel:
    """A ``SemismoothKernel`` as is; any other object with ``eval_lower`` and
    ``eval_upper`` as the kernel of those two branches, keeping its flags;
    a plain callable k(t, s) as ``SemismoothKernel(k, k)``."""
    if isinstance(kernel, SemismoothKernel):
        return kernel
    if not hasattr(kernel, "eval_lower"):
        return SemismoothKernel(kernel, kernel)
    names = ("singular_points", "boundary_singular", "difference_form")
    flags = {f: getattr(kernel, f) for f in names if hasattr(kernel, f)}
    return SemismoothKernel(kernel.eval_lower, kernel.eval_upper, **flags)


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


@dataclass(frozen=True, kw_only=True)
class NonlocalPotential:
    """Nonlocal potential v(p, r'), split along p = r'.

    ``lower`` is the branch for p <= r', ``upper`` for p >= r'; the first
    argument of both is the integration variable p, and ``upper=None``
    makes the potential reflected: its upper branch is lower(r', p) (module
    docstring).  The coupling lam is folded into the branch values.  The
    Schrodinger assembly reads the wavenumber ``kappa`` and solves on
    [0, ``cutoff``], past which the potential is taken as negligible.  The
    fields are keyword-only.
    """

    lower: Callable
    kappa: float
    cutoff: float
    upper: Callable | None = None

    @property
    def _upper(self) -> Callable:
        return _swapped(self.lower) if self.upper is None else self.upper

    def eval_lower(self, p, r2) -> np.ndarray:
        return _checked(self.lower, p, r2, "lower potential branch")

    def eval_upper(self, p, r2) -> np.ndarray:
        """The upper branch; a reflected potential's reads ``lower``, and
        names that branch when it is not finite."""
        what = "lower potential branch" if self.upper is None else "upper potential branch"
        return _checked(self._upper, p, r2, what)


@dataclass(frozen=True)
class SchrodingerProblem:
    name: str
    potential: NonlocalPotential
    rhs: Callable | None  # None means the physical sin(kappa*r)
    solution: Callable | None
    orders: tuple = (16, 32, 64, 128)
    summary: str = ""


def _const(value: float) -> Callable:
    return lambda x: np.full(np.shape(x), value)


def _neg_cos(x):
    return -np.cos(x)


def _example1(lam: float) -> BenchmarkProblem:
    one = _const(1.0)
    kernel = SemismoothKernel(k_lower=Separable(((one, one),)), k_upper=Separable(((_const(-1.0), one),)))
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
    # sin(t - s) by its addition formula (module docstring)
    kernel = SemismoothKernel(k_lower=Separable(((np.sin, np.cos), (_neg_cos, np.sin))), difference_form=True)

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
        summary=(
            "sin|t-s| kernel on [0,T], sampled as sin t cos s - cos t sin s; solution sin(t); "
            "T=200pi stresses partitioning"
        ),
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
    if not A > 0.0:
        raise ValueError(f"need A > 0, got {A}")

    def logistic(p, r2):
        # lam e / (1 + e) with e = exp((p - r') / A); where e overflows, the
        # quotient would be inf / inf, and its limit lam is taken instead
        e = np.exp((p - r2) / A)
        return np.where(e == np.inf, lam, lam * e / (1.0 + e))

    potential = NonlocalPotential(lower=logistic, kappa=kappa, cutoff=T)
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
