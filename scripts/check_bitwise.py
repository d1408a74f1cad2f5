#!/usr/bin/env python3
"""Check that the working tree computes bitwise what a baseline commit does.

Usage, from the root of a checkout:

    python3 scripts/check_bitwise.py --baseline <commit> [--threads 2]

The baseline's ``src/`` is taken with ``git archive``; the working tree's
``src/`` is the change.  Each side runs once in a fresh worker process with
``--threads`` BLAS threads (default one) and hashes, through public API
only, so that any baseline from commit 9036b52 on runs it:

* one-panel matrices of example1-4, and example2 at T = 50 pi, at orders
  from 1 to 1023, around the largest block that is one row block
  (n + 1 = 181) and past it;
* systems of example2 at T = 200 pi on equal panels (``FactoredBlocks``),
  and DenseBlocks systems of example1, example3 and example4, some with
  unequal orders;
* the same example2 systems and their ``dense_solve`` node values with the
  branches given as plain callables (``dense_oracle.plain``), which carry
  no factor pairs and so are stored as ``DenseBlocks``, every block at its
  own nodes;
* a plain callable kernel on panels of orders 20, 31 and 17;
* example1 and example2 (T = pi/2 and 50 pi) with their branches given as
  plain callables (``dense_oracle.plain``), so that their one-panel blocks
  are sampled as at any baseline, not filled from factor pairs: the matrix
  and the ``dense_solve`` node values at orders 32, 255 and 1023;
* the Schrodinger matrix of both catalog potentials, which ``assemble``
  forms from their cross-approximation factors, at orders from 16 to 384,
  and of two Gaussian potentials whose rank exceeds the rank cap, which it
  forms by the dense products, at orders 32 and 255: 0.1 exp(-(p - r')^2),
  and the same times exp(-p / 20), whose splice columns are not zero;
* the node values of the gleg, alg1 and tdef solves of example2 and
  example4 at their catalog orders;
* the node values x of ``dense_solve`` on systems that take each of its
  paths: hierarchical (example2 at T = 200 pi, 8 x 127 and 16 x 63;
  example4, 16 x 63; and a Volterra-type kernel, cos(t - s) below the
  diagonal and 0 above it, on [0, 20] in 16 x 63, whose zero blocks take
  the cross approximation's zero-block exit), the hierarchical refinement
  stagnating and handing over to float64 LU (example4, 8 x 511, whose
  stagnated iterate reads 15.6 eps of backward error and 9.3e-5 of error,
  where ``BERR_EPS`` is 8), the two-grid iteration (example2, 1 x 767; example2
  at T = 50 pi, 1 x 1023; the Perey-Buck potential, 1 x 383 and 1 x 511),
  float32 LU refined in float64 (example3, 1 x 767, which the two-grid's
  gate declines) and float64 LU (example1, 1 x 255, below the two-grid's
  crossover; example2 at T = 200 pi, 2 x 399; the separable potential,
  1 x 383 and 1 x 511, and the Perey-Buck potential at kappa = 10,
  1 x 383, which ``assemble`` gives no coarse rule, since a quarter of
  their nodes do not resolve their branch rows);
* the six CSVs of scripts/run_error_tables.py, without ``elapsed_ms``.

The solves hash x and not rcond, which is not reproducible to the bit:
``gecon``'s estimate for the same float64 LU differed in its last bits
between two processes of the same code whose environments differed in one
variable (example2, 1 x 511: 0x1.f37df414b52e2p-7 against ...e4p-7), and
``sgecon``'s moved by one float32 ulp between two versions of the code whose
x agreed bitwise (example1, 1 x 1023: 0x1.377388p-1 against 0x1.37738ap-1).  The tests hold rcond to a relative tolerance.

It prints every item whose hash differs, or raised on one side only, and
exits 1 if there is one.
"""

import argparse
import contextlib
import csv
import dataclasses
import hashlib
import json
import math
import pathlib
import sys
import tempfile
from types import SimpleNamespace

import _ab
import numpy as np

sys.path.insert(0, str(_ab.ROOT / "tests"))

ONE_PANEL_ORDERS = (1, 2, 16, 63, 179, 180, 181, 182, 255, 362, 511, 1023)
ONE_PANEL = (
    ("example1", {}), ("example2", {}), ("example2", {"T": 50 * math.pi}), ("example3", {}), ("example4", {}),
)
# (name, overrides, panels, orders): uniform panels, plus the singular points
LAYOUTS = (
    ("example2", {"T": 200 * math.pi}, 8, 127),
    ("example2", {"T": 200 * math.pi}, 16, 63),
    ("example1", {}, 4, 31),
    ("example1", {}, 2, 200),
    ("example3", {}, 3, 20),
    ("example4", {}, 16, 63),
    ("example4", {}, 4, 31),
    ("example4", {}, 2, 200),
    ("example4", {}, 3, (31, 63, 15)),
)
# (name, overrides, panels, order) of the dense_solve items, laid out as LAYOUTS
SOLVES = (
    ("example2", {"T": 200 * math.pi}, 8, 127),
    ("example2", {"T": 200 * math.pi}, 16, 63),
    ("example4", {}, 16, 63),
    ("example4", {}, 8, 511),
    ("example2", {}, 1, 767),
    ("example2", {"T": 50 * math.pi}, 1, 1023),
    ("example3", {}, 1, 767),
    ("example1", {}, 1, 255),
    ("example2", {"T": 200 * math.pi}, 2, 399),
)
# (name, overrides) assembled and solved as one panel at PLAIN_ORDERS with
# plain callable branches
PLAIN = (("example1", {}), ("example2", {}), ("example2", {"T": 50 * math.pi}))
PLAIN_ORDERS = (32, 255, 1023)
SCHRODINGER_ORDERS = (16, 32, 64, 127, 128, 159, 160, 192, 256, 384)
HIGH_RANK_ORDERS = (32, 255)
# (potential, overrides, order) of the Schrodinger dense_solve items; 383 is
# the first order that the two-grid is offered
SCHRODINGER_SOLVES = (
    ("schrod_pereybuck", {}, 383),
    ("schrod_pereybuck", {}, 511),
    ("schrod_separable", {}, 383),
    ("schrod_separable", {}, 511),
    ("schrod_pereybuck", {"kappa": 10.0}, 383),
)
BASELINE_METHODS = ("gleg", "alg1", "tdef")


def digest(array):
    a = np.ascontiguousarray(array, dtype=float)
    return hashlib.sha256(repr(a.shape).encode() + a.tobytes()).hexdigest()


def hashes():
    """Item name -> sha256 of what it computes, or the error it raised."""
    import run_error_tables
    from dense_oracle import plain
    from chebfred.baselines import MethodNotApplicableError
    from chebfred.cli import run_method
    from chebfred.composite_solver import assemble_blocks, build_partition
    from chebfred.fredholm_solver import dense_solve
    from chebfred.kernel_catalog import SemismoothKernel, catalog_lookup
    from chebfred.schrodinger import assemble
    from chebfred.spectral_core import cheb_grid

    out = {}

    def record(name, compute):
        try:
            out[name] = compute()
        except (ArithmeticError, ValueError, MethodNotApplicableError) as exc:
            out[name] = f"raised {type(exc).__name__}: {exc}"

    def system(problem, partition):
        return digest(assemble_blocks(problem.kernel, partition, problem.lam, problem.rhs).matrix.dense())

    def solve(problem, partition):
        blocks = assemble_blocks(problem.kernel, partition, problem.lam, problem.rhs)
        return digest(dense_solve(blocks.matrix, blocks.rhs)[0])

    def layout(problem, panels, orders):
        edges = np.linspace(problem.a, problem.b, panels + 1)[1:-1]
        return build_partition(
            problem.a, problem.b, breakpoints=tuple(edges), orders=orders,
            singular_points=problem.kernel.singular_points,
        )

    for name, overrides in ONE_PANEL:
        problem = catalog_lookup(name, **overrides)
        for n in ONE_PANEL_ORDERS:
            part = build_partition(problem.a, problem.b, orders=n)
            record(f"one panel {name} {overrides} n={n}", lambda: system(problem, part))
    for name, overrides, panels, orders in LAYOUTS:
        problem = catalog_lookup(name, **overrides)
        part = layout(problem, panels, orders)
        record(f"layout {name} {overrides} {panels}x{orders}", lambda: system(problem, part))
    for name, overrides, panels, order in SOLVES:
        problem = catalog_lookup(name, **overrides)
        part = layout(problem, panels, order)
        record(f"dense_solve x {name} {overrides} {panels}x{order}", lambda: solve(problem, part))
    volterra = SimpleNamespace(
        kernel=SemismoothKernel(
            k_lower=lambda t, s: np.cos(t - s), k_upper=lambda t, s: np.zeros(np.broadcast(t, s).shape)
        ),
        lam=0.5, rhs=lambda t: np.ones_like(t),
    )
    volterra_part = build_partition(0.0, 20.0, breakpoints=tuple(np.linspace(0.0, 20.0, 17)[1:-1]), orders=63)
    record("dense_solve x volterra cos(t - s) 16x63", lambda: solve(volterra, volterra_part))
    # the multi-panel example2 items again with plain callable branches: a
    # difference kernel whose blocks are sampled, stored as DenseBlocks
    for items, kind, compute in ((LAYOUTS, "layout", system), (SOLVES, "dense_solve x", solve)):
        for name, overrides, panels, order in items:
            if name == "example2" and panels > 1:
                problem = catalog_lookup(name, **overrides)
                sampled = dataclasses.replace(problem, kernel=plain(problem.kernel))
                part = layout(problem, panels, order)
                label = f"{kind} plain callables {name} {overrides} {panels}x{order}"
                record(label, lambda: compute(sampled, part))
    example1 = catalog_lookup("example1")
    plain_part = build_partition(-1.0, 1.0, breakpoints=(-0.3, 0.4), orders=(20, 31, 17))
    record("plain callable kernel 20/31/17", lambda: digest(assemble_blocks(
        lambda t, s: np.exp(-((t - s) ** 2)) * np.cos(t + 2.0 * s), plain_part, example1.lam, example1.rhs
    ).matrix.dense()))
    for name, overrides in PLAIN:
        problem = catalog_lookup(name, **overrides)
        sampled = dataclasses.replace(problem, kernel=plain(problem.kernel))
        for n in PLAIN_ORDERS:
            part = build_partition(problem.a, problem.b, orders=n)
            record(f"plain callables {name} {overrides} n={n} matrix", lambda: system(sampled, part))
            record(f"dense_solve x plain callables {name} {overrides} 1x{n}", lambda: solve(sampled, part))
    for name in ("schrod_separable", "schrod_pereybuck"):
        pot = catalog_lookup(name).potential
        for n in SCHRODINGER_ORDERS:
            record(
                f"schrodinger {name} n={n} matrix",
                lambda: digest(assemble(pot, cheb_grid(n, 0.0, pot.cutoff)).matrix.block(0, 0)),
            )
    # the symmetric Gaussian's splice columns are zero; exp(-p / 20) makes
    # the other one unsymmetric, so that its splice is formed too
    high_rank = {
        "gaussian": lambda p, r2: 0.1 * np.exp(-((p - r2) ** 2)),
        "skewed gaussian": lambda p, r2: 0.1 * np.exp(-((p - r2) ** 2) - p / 20.0),
    }
    for label, lower in high_rank.items():
        # the separable potential's kappa = 1 and cutoff 20, with this branch
        pot = dataclasses.replace(catalog_lookup("schrod_separable").potential, lower=lower)
        for n in HIGH_RANK_ORDERS:
            record(
                f"schrodinger high-rank {label} n={n} matrix",
                lambda: digest(assemble(pot, cheb_grid(n, 0.0, pot.cutoff)).matrix.block(0, 0)),
            )
    for name, overrides, n in SCHRODINGER_SOLVES:
        pot = catalog_lookup(name, **overrides).potential
        schrodinger = assemble(pot, cheb_grid(n, 0.0, pot.cutoff))
        label = f"{name} {overrides}" if overrides else name
        record(f"dense_solve x {label} 1x{n}", lambda: digest(dense_solve(schrodinger.matrix, schrodinger.rhs)[0]))
    for name in ("example2", "example4"):
        problem = catalog_lookup(name)
        for method in BASELINE_METHODS:
            for n in problem.orders:
                record(f"{method} {name} n={n}", lambda: digest(run_method(problem, method, n)[1]))
    with tempfile.TemporaryDirectory() as tmp:
        with contextlib.redirect_stdout(sys.stderr):  # stdout carries the JSON
            run_error_tables.main(["--outdir", tmp])
        for path in sorted(pathlib.Path(tmp).glob("*.csv")):
            with path.open(newline="") as fh:
                rows = list(csv.reader(fh))
            keep = [i for i, column in enumerate(rows[0]) if column != "elapsed_ms"]
            text = "\n".join(",".join(row[i] for i in keep) for row in rows)
            out[f"table {path.name}"] = hashlib.sha256(text.encode()).hexdigest()
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="git commit whose src/ is the 'before' side")
    parser.add_argument("--threads", type=int, default=1, help="BLAS threads of each worker (default 1)")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        json.dump(hashes(), sys.stdout)
        return
    if not args.baseline:
        parser.error("--baseline is required")
    sides = {}
    for _, side, src in _ab.alternating_rounds(args.baseline, 1):
        sides[side] = _ab.run_worker(__file__, src, threads=args.threads)
    before, after = sides["before"], sides["after"]
    differ = [name for name in sorted(before.keys() | after.keys()) if before.get(name) != after.get(name)]
    for name in differ:
        print(f"DIFFERS: {name}\n  before: {before.get(name)}\n  after:  {after.get(name)}")
    commit = _ab.short_commit(args.baseline)
    print(
        f"{len(before.keys() | after.keys())} items at {args.threads} BLAS thread(s), "
        f"working tree against {commit}: {len(differ)} differ"
    )
    sys.exit(1 if differ else 0)


if __name__ == "__main__":
    main()
