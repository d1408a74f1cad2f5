"""Command-line harness: run catalog problems and emit CSV or plot data.

Subcommands: ``solve`` (error table for one problem, one or more methods),
``convergence`` (log10-error series per method, gnuplot-friendly),
``schrodinger`` (scattering problems, n vs error table), ``list-problems``.
Options may come from flags or a JSON config file (flags win).  Exit codes:
0 success, 2 configuration error, 3 method/problem incompatibility,
4 solver failure.
"""

from __future__ import annotations

import argparse
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
CONFIG_KEYS = (
    "problem",
    "method",
    "n",
    "lam",
    "T",
    "kappa",
    "A",
    "panels",
    "breakpoints",
    "output",
    "format",
)


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


@dataclass(frozen=True)
class RunRow:
    n: int
    method: str
    problem: str
    error: float
    cond_warning: bool
    elapsed_ms: float


def _int_list(text: str) -> tuple:
    try:
        return tuple(int(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated integers, got {text!r}")


def _float_list(text: str) -> tuple:
    try:
        return tuple(float(p) for p in text.split(",") if p.strip() != "")
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected comma-separated numbers, got {text!r}")


def _config_numbers(value, key: str, integral: bool) -> tuple:
    """A config-file value as a tuple: a string is parsed as its flag is, and a
    boolean, a non-number or (if ``integral``) a fraction raises ConfigError."""
    if isinstance(value, str):
        try:
            return (_int_list if integral else _float_list)(value)
        except argparse.ArgumentTypeError as exc:
            raise ConfigError(f"{key}: {exc}") from None
    items = value if isinstance(value, (list, tuple)) else (value,)
    for v in items:
        number = isinstance(v, (int, float)) and not isinstance(v, bool)
        if not number or (integral and isinstance(v, float) and not v.is_integer()):
            kind = "integers" if integral else "numbers"
            raise ConfigError(f"{key} must hold {kind}, got {v!r}")
    return tuple(int(v) if integral else float(v) for v in items)


def _add_run_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--config", help="JSON file with config keys; flags override it")
    p.add_argument("--problem", help="catalog problem name")
    p.add_argument("--method", help="comma-separated methods: " + ", ".join(METHODS))
    p.add_argument("--n", type=_int_list, help="comma-separated order list")
    p.add_argument("--lam", type=float, help="integral-term multiplier override")
    p.add_argument("--T", type=float, help="interval length override (problems that take one)")
    p.add_argument("--kappa", type=float, help="wavenumber override (scattering problems)")
    p.add_argument("--A", type=float, help="nonlocality range override (Perey-Buck)")
    p.add_argument("--panels", type=int, help="uniform panel count for the composite method")
    p.add_argument("--breakpoints", type=_float_list, help="comma-separated interior breakpoints")
    p.add_argument("--output", help="output file (default stdout)")
    p.add_argument("--format", choices=("csv", "plot-data"), help="output format")


def _build_parser() -> argparse.ArgumentParser:
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
        unknown = sorted(set(data) - set(CONFIG_KEYS))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    def pick(flag_value, key):
        return flag_value if flag_value is not None else data.get(key)

    problem = pick(args.problem, "problem")
    if not problem:
        raise ConfigError("no problem given (use --problem or the config file)")

    methods = pick(args.method, "method")
    if methods is None:
        methods = ("schur",)
    elif isinstance(methods, str):
        methods = tuple(m.strip() for m in methods.split(",") if m.strip())
    else:
        methods = tuple(str(m) for m in methods)
    if not methods:
        raise ConfigError("method list is empty")
    for m in methods:
        if m not in METHODS:
            raise ConfigError(f"unknown method {m!r}; known: {', '.join(METHODS)}")

    orders = pick(args.n, "n")
    if orders is not None:
        orders = _config_numbers(orders, "n", integral=True)
        if not orders:
            raise ConfigError("n list is empty")
        if any(n < 0 for n in orders):
            raise ConfigError("orders must be nonnegative")
        orders = tuple(sorted(set(orders)))

    bps = pick(args.breakpoints, "breakpoints")
    breakpoints = () if bps is None else _config_numbers(bps, "breakpoints", integral=False)
    panels = pick(args.panels, "panels")
    if panels is not None:
        counts = _config_numbers(panels, "panels", integral=True)
        if len(counts) != 1 or counts[0] < 1:
            raise ConfigError(f"panels must be one integer >= 1, got {panels!r}")
        panels = counts[0]
    fmt = pick(args.format, "format") or default_fmt
    if fmt not in ("csv", "plot-data"):
        raise ConfigError(f"unknown format {fmt!r}")

    def opt_float(flag_value, key):
        v = pick(flag_value, key)
        return None if v is None else float(v)

    return RunConfig(
        problem=str(problem),
        methods=methods,
        orders=orders,
        lam=opt_float(args.lam, "lam"),
        T=opt_float(args.T, "T"),
        kappa=opt_float(args.kappa, "kappa"),
        A=opt_float(args.A, "A"),
        panels=panels,
        breakpoints=breakpoints,
        output=pick(args.output, "output"),
        fmt=fmt,
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


def schrodinger_error(problem: SchrodingerProblem, order: int) -> float:
    """Relative sup error of an order-``order`` scattering solve: against the
    analytic solution if the problem has one, else ``self_convergence``."""
    if problem.solution is None:
        return self_convergence(problem.potential, order)
    sol = solve_schrodinger(problem.potential, order, rhs_override=problem.rhs)
    return relative_sup_error(sol.node_values, problem.solution(sol.nodes))


def _solve_benchmark(problem, method: str, order: int, config: RunConfig) -> RunRow:
    bps = config.breakpoints
    if method == "composite" and not bps and config.panels:
        bps = tuple(np.linspace(problem.a, problem.b, config.panels + 1)[1:-1])
    start = time.perf_counter()
    nodes, values, warn = run_method(problem, method, order, bps)
    elapsed = (time.perf_counter() - start) * 1e3
    error = relative_sup_error(values, problem.solution(nodes))
    if not math.isfinite(error):
        raise RuntimeError(f"{method} on {problem.name} at n={order} gave a non-finite error")
    return RunRow(order, method, problem.name, error, warn, elapsed)


def _run_rows(config: RunConfig) -> list:
    problem = _lookup(config)
    if isinstance(problem, SchrodingerProblem):
        raise MethodNotApplicableError(
            f"{problem.name} is a scattering problem; use the schrodinger subcommand"
        )
    orders = config.orders if config.orders is not None else problem.orders
    rows = []
    for method in config.methods:
        for n in orders:
            rows.append(_solve_benchmark(problem, method, n, config))
    return rows


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


def _emit(text: str, output: str | None) -> None:
    if output is None:
        sys.stdout.write(text)
    else:
        with open(output, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _cmd_solve(config: RunConfig) -> int:
    rows = _run_rows(config)
    text = _format_csv(rows) if config.fmt == "csv" else _format_plot(rows)
    _emit(text, config.output)
    return 0


def _cmd_convergence(config: RunConfig) -> int:
    problem_probe = _lookup(config)
    if isinstance(problem_probe, SchrodingerProblem):
        raise MethodNotApplicableError(
            f"{problem_probe.name} is a scattering problem; use the schrodinger subcommand"
        )
    orders = config.orders if config.orders is not None else problem_probe.orders
    if len(orders) < 2:
        raise ConfigError("convergence needs at least two orders")
    rows = _run_rows(config)
    text = _format_plot(rows) if config.fmt == "plot-data" else _format_csv(rows)
    _emit(text, config.output)
    return 0


def _cmd_schrodinger(config: RunConfig) -> int:
    if config.fmt != "csv":
        raise ConfigError("the schrodinger subcommand writes csv only")
    problem = _lookup(config)
    if not isinstance(problem, SchrodingerProblem):
        raise MethodNotApplicableError(
            f"{problem.name} is not a scattering problem; use solve or convergence"
        )
    orders = config.orders if config.orders is not None else problem.orders
    lines = ["n,error"]
    for n in orders:
        err = schrodinger_error(problem, n)
        if not math.isfinite(err):
            raise RuntimeError(f"{problem.name} at n={n} gave a non-finite error")
        lines.append(f"{n},{err:.6e}")
    _emit("\n".join(lines) + "\n", config.output)
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
        if args.command == "solve":
            return _cmd_solve(config)
        if args.command == "convergence":
            return _cmd_convergence(config)
        return _cmd_schrodinger(config)
    except MethodNotApplicableError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (KernelEvaluationError, SingularMatrixError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4
    except (ConfigError, CatalogError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
