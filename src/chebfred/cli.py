"""Command-line harness: run catalog problems and emit CSV or plot data.

Subcommands: ``solve`` (error table for one problem, one or more methods),
``convergence`` (log10-error series per method, gnuplot-friendly),
``schrodinger`` (scattering problems, n vs error table), ``list-problems``.
Options may come from flags or a JSON config file (flags win); both go
through the same parsers.  Exit codes: 0 success, 2 configuration error,
3 method/problem incompatibility, 4 solver failure (out of memory
included).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
import time
from dataclasses import dataclass

import numpy as np

from .baselines import (
    BaselineSolution,
    MethodNotApplicableError,
    gauss_legendre_rule,
    nystrom_solve,
    trapezium_deferred_solve,
)
from .composite_solver import solve_partitioned
from .fredholm_solver import SingularMatrixError, relative_sup_error, solve_fredholm
from .kernel_catalog import (
    CatalogError,
    KernelEvaluationError,
    SchrodingerProblem,
    catalog_lookup,
    catalog_names,
)
from .schrodinger import self_convergence, solve_schrodinger

__all__ = ["main", "run_method", "schrodinger_error", "RunConfig", "ConfigError"]

METHODS = ("schur", "alg1", "gleg", "tdef", "composite")
# every run option, as a flag --<key> and as a config-file key; both are parsed
# by the same code in _load_config
OPTIONS = {
    "problem": "catalog problem name",
    "method": "comma-separated methods: " + ", ".join(METHODS),
    "n": "comma-separated order list",
    "lam": "integral-term multiplier override",
    "T": "interval length override (problems that take one)",
    "kappa": "wavenumber override (scattering problems)",
    "A": "nonlocality range override (Perey-Buck)",
    "panels": "uniform panel count for the composite method",
    "breakpoints": "comma-separated interior breakpoints",
    "output": "output file (default stdout)",
    "format": "output format: csv or plot-data",
}


class ConfigError(ValueError):
    """Bad or inconsistent run configuration."""


@dataclass(frozen=True)
class RunConfig:
    problem: str
    methods: tuple = ("schur",)
    orders: tuple | None = None  # None means the problem's recommended list
    lam: float | None = None
    T: float | None = None
    kappa: float | None = None
    A: float | None = None
    panels: int | None = None
    breakpoints: tuple = ()
    output: str | None = None
    fmt: str = "csv"
    given: frozenset = frozenset()  # the OPTIONS keys given, by flag or config key


@dataclass(frozen=True)
class RunRow:
    n: int
    method: str
    problem: str
    error: float
    cond_warning: bool
    elapsed_ms: float


def _numbers(value, key: str, integral: bool = False) -> tuple:
    """A flag string or a config-file value as a tuple of numbers.  A string is
    split at commas; a boolean, a non-number or (if ``integral``) a fraction
    raises ConfigError."""
    kind = "integers" if integral else "numbers"
    if isinstance(value, str):
        try:
            return tuple((int if integral else float)(p) for p in value.split(",") if p.strip())
        except ValueError:
            raise ConfigError(f"{key}: expected comma-separated {kind}, got {value!r}") from None
    items = value if isinstance(value, list) else (value,)
    for v in items:
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        if not number or (integral and isinstance(v, float) and not v.is_integer()):
            raise ConfigError(f"{key} must hold {kind}, got {v!r}")
    return tuple(int(v) if integral else float(v) for v in items)


def _number(value, key: str, integral: bool = False):
    """``_numbers`` that requires exactly one value, given as a string or a
    bare number: a list, even of one number, raises ConfigError."""
    numbers = () if isinstance(value, list) else _numbers(value, key, integral)
    if len(numbers) != 1:
        raise ConfigError(f"{key} must be one number, got {value!r}")
    return numbers[0]


def _text(value, key: str) -> str:
    if not isinstance(value, str):
        raise ConfigError(f"{key} must be a string, got {value!r}")
    return value


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with config keys; flags override it")
    for key, blurb in OPTIONS.items():
        p.add_argument(f"--{key}", help=blurb)


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The one parser of this process: ``parse_args`` keeps no state between
    calls, and building it costs more than a small solve."""
    parser = argparse.ArgumentParser(
        prog="chebfred",
        description="Spectral solver for integral equations with diagonally kinked kernels",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, blurb in (
        ("solve", "error table for one problem"),
        ("convergence", "log10-error series per method"),
        ("schrodinger", "scattering problem error table"),
    ):
        _add_run_flags(sub.add_parser(name, help=blurb))
    sub.add_parser("list-problems", help="list catalog problems")
    return parser


def _load_config(args: argparse.Namespace, default_fmt: str) -> RunConfig:
    data = {}
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                data = json.load(fh)
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}")
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}")
        if not isinstance(data, dict):
            raise ConfigError("config file must hold a JSON object")
        unknown = sorted(set(data) - set(OPTIONS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")
    # a flag beats the file; a null in the file is an absent key
    raw = {key: value for key, value in data.items() if value is not None}
    raw.update({key: getattr(args, key) for key in OPTIONS if getattr(args, key) is not None})

    def opt(key, parse, *extra):
        return parse(raw[key], key, *extra) if key in raw else None

    problem = opt("problem", _text)
    if not problem:
        raise ConfigError("no problem given (use --problem or the config file)")

    method = raw.get("method", "schur")
    entries = method if isinstance(method, list) else _text(method, "method").split(",")
    methods = tuple(m for m in (_text(e, "method").strip() for e in entries) if m)
    if not methods:
        raise ConfigError("method list is empty")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; known: {', '.join(METHODS)}")

    orders = opt("n", _numbers, True)
    if orders is not None:
        if not orders:
            raise ConfigError("n list is empty")
        if any(n < 0 for n in orders):
            raise ConfigError("orders must be nonnegative")
        orders = tuple(sorted(set(orders)))

    panels = opt("panels", _number, True)
    if panels is not None and panels < 1:
        raise ConfigError(f"panels must be >= 1, got {panels}")
    fmt = _text(raw.get("format", default_fmt), "format")
    if fmt not in ("csv", "plot-data"):
        raise ConfigError(f"unknown format {fmt!r}")

    return RunConfig(
        problem=problem,
        methods=methods,
        orders=orders,
        lam=opt("lam", _number),
        T=opt("T", _number),
        kappa=opt("kappa", _number),
        A=opt("A", _number),
        panels=panels,
        breakpoints=opt("breakpoints", _numbers) or (),
        output=opt("output", _text),
        fmt=fmt,
        given=frozenset(raw),
    )


def _lookup(config: RunConfig):
    return catalog_lookup(
        config.problem, lam=config.lam, T=config.T, kappa=config.kappa, A=config.A
    )


def run_method(problem, method: str, order: int, breakpoints=()):
    """Solve a benchmark problem by one method; returns (nodes, values, cond_warning).

    ``breakpoints`` are the interior panel edges of the ``composite`` method;
    kernel singular points are added to them.  A ``gleg`` order below 1
    raises ValueError.
    """
    kern, a, b, lam, rhs = problem.kernel, problem.a, problem.b, problem.lam, problem.rhs
    if method in ("schur", "alg1"):
        sol = solve_fredholm(kern, a, b, lam, rhs, order, smooth=method == "alg1")
    elif method == "composite":
        sol = solve_partitioned(kern, a, b, lam, rhs, breakpoints=breakpoints, orders=order)
    elif method == "gleg":
        sol = nystrom_solve(kern, gauss_legendre_rule(order, a, b), lam, rhs)
    elif method == "tdef":
        sol = trapezium_deferred_solve(kern, a, b, lam, rhs, order)
    else:
        raise ConfigError(f"unknown method {method!r}; known: {', '.join(METHODS)}")
    values = sol.values if isinstance(sol, BaselineSolution) else sol.node_values
    return sol.nodes, values, sol.cond_warning


def schrodinger_error(problem: SchrodingerProblem, order: int, solutions=None) -> float:
    """Relative sup error of an order-``order`` scattering solve of the
    problem's right-hand side: against the analytic solution if the problem
    has one, else ``self_convergence``.

    ``solutions`` is passed to ``self_convergence``: a caller that keeps one
    dict across the orders of a problem solves each distinct order once.
    """
    if problem.solution is None:
        return self_convergence(problem.potential, order, rhs_override=problem.rhs, solutions=solutions)
    sol = solve_schrodinger(problem.potential, order, rhs_override=problem.rhs)
    return relative_sup_error(sol.node_values, problem.solution(sol.nodes))


def _solve_benchmark(problem, method: str, order: int, config: RunConfig) -> RunRow:
    bps = config.breakpoints
    if method == "composite" and config.panels:
        bps = tuple(np.linspace(problem.a, problem.b, config.panels + 1)[1:-1])
    start = time.perf_counter()
    nodes, values, warn = run_method(problem, method, order, bps)
    elapsed = (time.perf_counter() - start) * 1e3
    error = relative_sup_error(values, problem.solution(nodes))
    if not math.isfinite(error):
        raise RuntimeError(f"{method} on {problem.name} at n={order} gave a non-finite error")
    return RunRow(order, method, problem.name, error, warn, elapsed)


def _format_csv(rows) -> str:
    lines = ["n,method,problem,error,cond_warning,elapsed_ms"]
    for r in rows:
        flag = "true" if r.cond_warning else "false"
        lines.append(f"{r.n},{r.method},{r.problem},{r.error:.6e},{flag},{r.elapsed_ms:.3f}")
    return "\n".join(lines) + "\n"


def _format_plot(rows) -> str:
    groups = {}
    for r in rows:
        groups.setdefault((r.problem, r.method), []).append(r)
    blocks = []
    for (prob, method), rws in groups.items():
        lines = [f"# problem {prob} method {method}"]
        for r in rws:
            lines.append(f"{r.n} {math.log10(max(r.error, 1e-300)):.6f}")
        blocks.append("\n".join(lines))
    return "\n\n".join(blocks) + "\n"


@contextlib.contextmanager
def _output(path: str | None):
    """The stream a table goes to.  A file is opened, and truncated, when the
    block is entered, before any solve, so an unwritable path is a
    ConfigError, not a crash after the work is done."""
    if path is None:
        yield sys.stdout
        return
    try:
        fh = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise ConfigError(f"cannot write output file: {exc}") from None
    with fh:
        yield fh


def _cmd_table(config: RunConfig, min_orders: int) -> int:
    """``solve`` and ``convergence``: one row per method and order."""
    if config.panels is not None and config.breakpoints:
        raise ConfigError("panels and breakpoints exclude each other; give one")
    if (config.panels is not None or config.breakpoints) and "composite" not in config.methods:
        raise ConfigError("panels and breakpoints apply to the composite method only")
    problem = _lookup(config)
    if isinstance(problem, SchrodingerProblem):
        raise MethodNotApplicableError(
            f"{problem.name} is a scattering problem; use the schrodinger subcommand"
        )
    orders = config.orders if config.orders is not None else problem.orders
    if len(orders) < min_orders:
        raise ConfigError(f"need at least {min_orders} orders, got {len(orders)}")
    with _output(config.output) as out:
        rows = [_solve_benchmark(problem, m, n, config) for m in config.methods for n in orders]
        out.write(_format_csv(rows) if config.fmt == "csv" else _format_plot(rows))
    return 0


def _cmd_schrodinger(config: RunConfig) -> int:
    if config.fmt != "csv":
        raise ConfigError("the schrodinger subcommand writes csv only")
    # the one-panel spliced-branch solve reads no method and no partition;
    # method has a default, so what counts is whether the key was given
    ignored = sorted({"method", "panels", "breakpoints"} & config.given)
    if ignored:
        raise ConfigError(f"the schrodinger subcommand takes no {', '.join(ignored)}")
    problem = _lookup(config)
    if not isinstance(problem, SchrodingerProblem):
        raise MethodNotApplicableError(
            f"{problem.name} is not a scattering problem; use solve or convergence"
        )
    orders = config.orders if config.orders is not None else problem.orders
    lines = ["n,error"]
    solutions = {}
    with _output(config.output) as out:
        for n in orders:
            err = schrodinger_error(problem, n, solutions)
            if not math.isfinite(err):
                raise RuntimeError(f"{problem.name} at n={n} gave a non-finite error")
            lines.append(f"{n},{err:.6e}")
        out.write("\n".join(lines) + "\n")
    return 0


def _cmd_list() -> int:
    for name in catalog_names():
        problem = catalog_lookup(name)
        sys.stdout.write(f"{name:18s} {problem.summary}\n")
    return 0


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        if args.command == "list-problems":
            return _cmd_list()
        default_fmt = "plot-data" if args.command == "convergence" else "csv"
        config = _load_config(args, default_fmt)
        if args.command == "schrodinger":
            return _cmd_schrodinger(config)
        return _cmd_table(config, min_orders=2 if args.command == "convergence" else 1)
    except MethodNotApplicableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (KernelEvaluationError, SingularMatrixError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except MemoryError as exc:
        # numpy's message names the size and shape it could not allocate
        print(f"error: out of memory: {exc}" if str(exc) else "error: out of memory", file=sys.stderr)
        return 4
    except (ConfigError, CatalogError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
