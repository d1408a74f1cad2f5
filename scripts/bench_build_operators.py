#!/usr/bin/env python3
"""Time build_operators against a baseline commit and write BENCH_build_operators.json.

Usage, from the root of a checkout:

    python3 scripts/bench_build_operators.py --baseline <commit>

The baseline's ``src/`` is taken with ``git archive``; the working tree's
``src/`` is the change.  Each side runs in fresh single-threaded worker
processes, the sides alternating round by round, and the reported time per
order is the best over every call of every round.  Three things are timed
per order: ``build_operators(n)`` alone; a build followed by
``semismooth_block`` on fixed random branch samples, which is what a
one-panel solve assembles; and ``dense_solve`` of that block held as a fresh
one-panel operator, which is what a one-panel solve factors (the copy that
LU overwrites, the LU, the ``gecon`` estimate and the solve).  The assembly
also gets its ``tracemalloc`` peak (numpy reports its buffers to
tracemalloc; the branch samples are allocated before tracing starts).

Each side also reports its largest entrywise deviation, over the operators
in ``OPERATOR_NAMES`` (``int_left``, ``int_right`` and ``full_weights``),
from the dense reference ``dense_operators`` in tests/dense_oracle.py, and the relative sup error of ``solve_fredholm`` on
the ``SOLVES`` problems, so a speed-up that costs digits shows up here.
When the change's ``fredholm_solver`` has ``ROW_BLOCK_ENTRIES``, its
worker also times ``semismooth_block`` with each value in
``ROW_BLOCK_CANDIDATES``, which is how that constant was chosen.
"""

import argparse
import json
import math
import sys
import tracemalloc

import _ab

sys.path.insert(0, str(_ab.ROOT / "tests"))

ORDERS = (4, 8, 16, 32, 64, 127, 255, 511, 1023, 2047)
# (label, catalog name, overrides) solved at SOLVE_ORDERS for the error columns
SOLVES = (
    ("example1", "example1", {}),
    ("example2", "example2", {}),
    ("example2-T50pi", "example2", {"T": 50 * math.pi}),
)
SOLVE_ORDERS = (511, 767, 1023)
ROW_BLOCK_CANDIDATES = (2048, 4096, 8192, 16384, 32768, 65536, 131072)
ROW_BLOCK_ORDERS = (255, 511, 767, 1023, 2047)
ROUNDS = 3
REPEATS = 5
# smallest total time of one timing sample, so that timer overhead is noise
SAMPLE_S = 0.02
OUT = _ab.ROOT / "BENCH_build_operators.json"


def best_time(call):
    return _ab.best_time(call, SAMPLE_S, REPEATS)


def measure(with_deviation):
    """Worker: best times, the assembly's allocation peak and, in the first
    round, the oracle deviation and the solve errors, per order."""
    import numpy as np

    from chebfred import fredholm_solver
    from chebfred.block_operator import ToeplitzBlocks
    from chebfred.fredholm_solver import dense_solve, relative_sup_error, semismooth_block, solve_fredholm
    from chebfred.kernel_catalog import catalog_lookup
    from chebfred.spectral_core import build_operators
    from dense_oracle import OPERATOR_NAMES, dense_operators

    out = {}
    for n in ORDERS:
        k1, k2 = np.random.default_rng(n).uniform(0.5, 2.0, (2, n + 1, n + 1))
        rhs = np.ones(n + 1)

        def assemble():
            return semismooth_block(build_operators(n), k1, k2, 0.5)

        block = assemble()
        out[n] = {
            "best_s": best_time(lambda: build_operators(n)),
            "assemble_s": best_time(assemble),
            "dense_solve_s": best_time(lambda: dense_solve(ToeplitzBlocks([0, n + 1], {0: block}), rhs)),
        }
        tracemalloc.start()
        assemble()
        out[n]["assemble_peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
        tracemalloc.stop()
        if with_deviation:
            ops, ref = build_operators(n), dense_operators(n)
            out[n]["max_deviation"] = max(
                float(np.max(np.abs(np.asarray(getattr(ops, name)) - ref[name]))) for name in OPERATOR_NAMES
            )
    errors = {}
    if with_deviation:
        for label, name, overrides in SOLVES:
            problem = catalog_lookup(name, **overrides)
            for n in SOLVE_ORDERS:
                sol = solve_fredholm(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, n)
                errors[f"{label}/{n}"] = relative_sup_error(sol.node_values, problem.solution(sol.nodes))
    sweep = {}
    if hasattr(fredholm_solver, "ROW_BLOCK_ENTRIES"):
        for n in ROW_BLOCK_ORDERS:
            ops = build_operators(n)
            k1, k2 = np.random.default_rng(n).uniform(0.5, 2.0, (2, n + 1, n + 1))
            for entries in ROW_BLOCK_CANDIDATES:
                fredholm_solver.ROW_BLOCK_ENTRIES = entries
                sweep[f"{entries}/{n}"] = best_time(lambda: semismooth_block(ops, k1, k2, 0.5))
    return {"orders": out, "errors": errors, "row_block_sweep": sweep, "machine": _ab.machine()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="git commit whose src/ is the 'before' side")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--deviation", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(measure(args.deviation)))
        return 0
    if not args.baseline:
        parser.error("--baseline is required")
    commit = _ab.short_commit(args.baseline)
    best = {"before": {}, "after": {}}
    errors, sweep = {}, {}
    for r, side, src in _ab.alternating_rounds(commit, ROUNDS):
        result = _ab.run_worker(__file__, src, *(["--deviation"] if r == 0 else []))
        for n, v in result["orders"].items():
            entry = best[side].setdefault(int(n), dict(v))
            for key in ("best_s", "assemble_s", "dense_solve_s", "assemble_peak_mb"):
                entry[key] = min(entry[key], v[key])
        for key, err in result["errors"].items():
            errors.setdefault(key, {})[side] = err
        for key, t in result["row_block_sweep"].items():
            sweep[key] = min(sweep.get(key, t), t)
    rows = [
        {
            "n": n,
            "before_s": best["before"][n]["best_s"],
            "after_s": best["after"][n]["best_s"],
            "speedup": best["before"][n]["best_s"] / best["after"][n]["best_s"],
            "assemble_before_s": best["before"][n]["assemble_s"],
            "assemble_after_s": best["after"][n]["assemble_s"],
            "assemble_speedup": best["before"][n]["assemble_s"] / best["after"][n]["assemble_s"],
            "assemble_before_peak_mb": best["before"][n]["assemble_peak_mb"],
            "assemble_after_peak_mb": best["after"][n]["assemble_peak_mb"],
            "dense_solve_before_s": best["before"][n]["dense_solve_s"],
            "dense_solve_after_s": best["after"][n]["dense_solve_s"],
            "dense_solve_speedup": best["before"][n]["dense_solve_s"] / best["after"][n]["dense_solve_s"],
            "before_max_deviation": best["before"][n]["max_deviation"],
            "after_max_deviation": best["after"][n]["max_deviation"],
        }
        for n in ORDERS
    ]
    solve_errors = [
        {"problem": key.rsplit("/", 1)[0], "n": int(key.rsplit("/", 1)[1]), **sides_err}
        for key, sides_err in errors.items()
    ]
    report = {
        "benchmark": (
            "spectral_core.build_operators, build_operators followed by fredholm_solver.semismooth_block "
            "(assemble_*), and fredholm_solver.dense_solve of that block as a fresh one-panel operator "
            "(dense_solve_*: copy, LU, gecon, getrs), best-of-k wall time per call; "
            "assemble_*_peak_mb is the tracemalloc peak of one assembly"
        ),
        "command": f"python3 scripts/bench_build_operators.py --baseline {commit}",
        "before": f"src/ at {commit}",
        "after": "src/ of the checkout this file is committed in",
        "method": (
            f"{ROUNDS} rounds of fresh worker processes, sides alternating; "
            f"{REPEATS} timing samples of about {SAMPLE_S} s per order per round, the calls per sample "
            "sized from warm calls; best sample / calls"
        ),
        "deviation": "max entrywise |op - dense_operators(n)[op]| over every operator in OPERATOR_NAMES",
        "solve_errors_note": "relative sup error of solve_fredholm at its nodes against the analytic solution",
        "machine": result["machine"],
        "results": rows,
        "solve_errors": solve_errors,
    }
    if sweep:
        report["row_block_sweep"] = {
            "note": (
                "after side only: best semismooth_block time (s) on a prebuilt SpectralOperators, "
                "per fredholm_solver.ROW_BLOCK_ENTRIES value and order"
            ),
            "orders": list(ROW_BLOCK_ORDERS),
            "best_s": {
                str(entries): [sweep[f"{entries}/{n}"] for n in ROW_BLOCK_ORDERS] for entries in ROW_BLOCK_CANDIDATES
            },
        }
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    for row in rows:
        print(
            f"n={row['n']:5d}  build {row['before_s'] * 1e3:8.3f} -> {row['after_s'] * 1e3:7.3f} ms"
            f"  x{row['speedup']:6.2f}  +assembly {row['assemble_before_s'] * 1e3:8.3f} ->"
            f" {row['assemble_after_s'] * 1e3:8.3f} ms  x{row['assemble_speedup']:5.2f}"
            f"  peak {row['assemble_before_peak_mb']:6.1f} -> {row['assemble_after_peak_mb']:6.1f} MB"
            f"  dense_solve {row['dense_solve_before_s'] * 1e3:8.3f} -> {row['dense_solve_after_s'] * 1e3:8.3f} ms"
            f"  dev {row['before_max_deviation']:.1e} / {row['after_max_deviation']:.1e}"
        )
    for row in solve_errors:
        print(f"{row['problem']:>15s} n={row['n']:5d}  error {row['before']:.6e} -> {row['after']:.6e}")
    if sweep:
        for entries, times in report["row_block_sweep"]["best_s"].items():
            cells = "  ".join(f"n={n}: {t * 1e3:7.3f} ms" for n, t in zip(ROW_BLOCK_ORDERS, times))
            print(f"ROW_BLOCK_ENTRIES={entries:>7s}  {cells}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
