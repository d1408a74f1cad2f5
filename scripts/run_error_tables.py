#!/usr/bin/env python3
"""Regenerate the error tables: every catalog problem, every applicable method.

Writes one CSV per table into --outdir (default results/):

* example{1..4}.csv   method comparison at increasing resolution
* longrange.csv       uniform panel counts on the T = 200*pi problem
* scattering.csv      nonlocal-potential problems, analytic or self-converged

Each run prints one line per file written.  Errors are relative sup norms at
the method's own nodes.  Run as a script, it pins BLAS to one thread before
numpy loads, as the benchmark workers do: some rows move in their last
digits between one and two threads.
"""

import argparse
import csv
import os
import pathlib
import sys
import time

sys.path.insert(0, str(pathlib.Path(__file__).resolve().parents[1] / "perfbench"))

from worker import BLAS_THREAD_VARS  # noqa: E402

if __name__ == "__main__":
    os.environ.update({var: "1" for var in BLAS_THREAD_VARS})  # read when numpy loads

import numpy as np  # noqa: E402

from chebfred.baselines import MethodNotApplicableError  # noqa: E402
from chebfred.cli import run_method, schrodinger_error  # noqa: E402
from chebfred.fredholm_solver import relative_sup_error  # noqa: E402
from chebfred.kernel_catalog import catalog_lookup  # noqa: E402

BENCHMARKS = {
    "example1": ("schur", "alg1", "gleg", "tdef"),
    "example2": ("schur", "alg1", "gleg", "tdef"),
    "example3": ("schur", "gleg"),
    "example4": ("composite", "alg1"),
}


def _run(problem, method, n, breakpoints=()):
    start = time.perf_counter()
    nodes, values, _ = run_method(problem, method, n, breakpoints)
    elapsed = (time.perf_counter() - start) * 1e3
    return relative_sup_error(values, problem.solution(nodes)), elapsed


def write_benchmark_tables(outdir: pathlib.Path) -> None:
    for name, methods in BENCHMARKS.items():
        problem = catalog_lookup(name)
        path = outdir / f"{name}.csv"
        with path.open("w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["n", "method", "error", "elapsed_ms"])
            for method in methods:
                for n in problem.orders:
                    try:
                        err, ms = _run(problem, method, n)
                    except MethodNotApplicableError:
                        continue
                    writer.writerow([n, method, f"{err:.6e}", f"{ms:.3f}"])
        print(f"wrote {path}")


def write_longrange_table(outdir: pathlib.Path) -> None:
    problem = catalog_lookup("example2", T=200.0 * np.pi)
    cases = [(m, n) for m in (1, 2, 4, 8) for n in (63, 127)]
    cases += [(1, 511), (1, 1023)]
    path = outdir / "longrange.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["panels", "n", "error", "elapsed_ms"])
        for m, n in cases:
            edges = np.linspace(problem.a, problem.b, m + 1)
            err, ms = _run(problem, "composite", n, tuple(edges[1:-1]))
            writer.writerow([m, n, f"{err:.6e}", f"{ms:.3f}"])
    print(f"wrote {path}")


def write_scattering_table(outdir: pathlib.Path) -> None:
    path = outdir / "scattering.csv"
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["problem", "n", "error", "elapsed_ms"])
        for name in ("schrod_separable", "schrod_pereybuck"):
            problem = catalog_lookup(name)
            solutions = {}  # each order is solved once; a row times only its new solves
            for n in problem.orders:
                start = time.perf_counter()
                err = schrodinger_error(problem, n, solutions)
                ms = (time.perf_counter() - start) * 1e3
                writer.writerow([name, n, f"{err:.6e}", f"{ms:.3f}"])
    print(f"wrote {path}")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--outdir", default="results", help="directory for the CSV files")
    args = parser.parse_args(argv)
    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    write_benchmark_tables(outdir)
    write_longrange_table(outdir)
    write_scattering_table(outdir)


if __name__ == "__main__":
    main()
