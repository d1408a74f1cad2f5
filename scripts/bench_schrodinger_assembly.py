#!/usr/bin/env python3
"""Time Schrodinger assembly against a baseline commit and write BENCH_schrodinger_assembly.json.

Usage, from the root of a checkout:

    python3 scripts/bench_schrodinger_assembly.py --baseline <commit>

The baseline's ``src/`` is taken with ``git archive``; the working tree's
``src/`` is the change.  Each side runs in fresh single-threaded worker
processes, the sides alternating round by round, and the reported time per
potential and order is the best over every call of every round.  What is
timed is ``schrodinger.assemble`` on the catalog potential: sampling both
branches, the spliced kernel and the semismooth block.  Each call also gets
its ``tracemalloc`` peak (numpy reports its buffers to tracemalloc), and its
largest entrywise deviation from the explicit Hadamard-product formula of
tests/test_schrodinger.py, relative to s max|K| as that test bounds it.
Each side also reports the error of every scattering configuration that the
error tables and the benchmark's ``schrodinger`` workload print, through
``cli.schrodinger_error``.
"""

import argparse
import json
import sys
import tracemalloc

import _ab

sys.path.insert(0, str(_ab.ROOT / "tests"))

POTENTIALS = ("schrod_pereybuck", "schrod_separable")
ORDERS = (64, 96, 128, 192, 256, 384, 512)
# the catalog orders of both problems plus the perfbench schrodinger workload's
ERROR_ORDERS = {"schrod_pereybuck": (16, 32, 64, 128, 192), "schrod_separable": (16, 32, 64, 128, 256)}
ROUNDS = 3
REPEATS = 5
# smallest total time of one timing sample, so that timer overhead is noise
SAMPLE_S = 0.05
OUT = _ab.ROOT / "BENCH_schrodinger_assembly.json"


def best_time(call):
    return _ab.best_time(call, SAMPLE_S, REPEATS)


def measure(with_accuracy):
    """Worker: best time and allocation peak per potential and order, and
    optionally the oracle deviations and the configuration errors."""
    import numpy as np

    from chebfred.cli import schrodinger_error
    from chebfred.kernel_catalog import catalog_lookup
    from chebfred.schrodinger import assemble
    from chebfred.spectral_core import cheb_grid
    from test_schrodinger import _hadamard_matrix

    timings, errors = {}, {}
    for name in POTENTIALS:
        pot = catalog_lookup(name).potential
        for n in ORDERS:
            grid = cheb_grid(n, 0.0, pot.cutoff)
            row = {"best_s": best_time(lambda: assemble(pot, grid))}
            tracemalloc.start()
            matrix = assemble(pot, grid).matrix
            row["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            if with_accuracy:
                reference, term_scale = _hadamard_matrix(pot, grid)
                row["oracle_deviation"] = float(np.max(np.abs(matrix - reference)) / term_scale)
            timings[f"{name}/{n}"] = row
        if with_accuracy:
            problem = catalog_lookup(name)
            for n in ERROR_ORDERS[name]:
                errors[f"{name}/{n}"] = schrodinger_error(problem, n)
    return {"timings": timings, "errors": errors, "machine": _ab.machine()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="git commit whose src/ is the 'before' side")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--accuracy", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(measure(args.accuracy)))
        return 0
    if not args.baseline:
        parser.error("--baseline is required")
    commit = _ab.short_commit(args.baseline)
    best = {"before": {}, "after": {}}
    errors = {}
    for r, side, src in _ab.alternating_rounds(commit, ROUNDS):
        result = _ab.run_worker(__file__, src, *(["--accuracy"] if r == 0 else []))
        for key, v in result["timings"].items():
            entry = best[side].setdefault(key, dict(v))
            for field in ("best_s", "peak_mb"):
                entry[field] = min(entry[field], v[field])
        if r == 0:
            errors[side] = result["errors"]
    rows = []
    for key in best["before"]:
        before, after = best["before"][key], best["after"][key]
        name, n = key.split("/")
        rows.append(
            {
                "potential": name,
                "n": int(n),
                "before_s": before["best_s"],
                "after_s": after["best_s"],
                "speedup": before["best_s"] / after["best_s"],
                "before_peak_mb": before["peak_mb"],
                "after_peak_mb": after["peak_mb"],
                "before_oracle_deviation": before["oracle_deviation"],
                "after_oracle_deviation": after["oracle_deviation"],
            }
        )
    error_rows = [
        {"configuration": key, "before": errors["before"][key], "after": errors["after"][key]}
        for key in errors["before"]
    ]
    report = {
        "benchmark": (
            "schrodinger.assemble on the catalog potentials, best-of-k wall time per call; "
            "peak_mb is the tracemalloc peak of one call"
        ),
        "command": f"python3 scripts/bench_schrodinger_assembly.py --baseline {commit}",
        "before": f"src/ at {commit}",
        "after": "src/ of the checkout this file is committed in",
        "method": (
            f"{ROUNDS} rounds of fresh worker processes, sides alternating; "
            f"{REPEATS} timing samples of about {SAMPLE_S} s per order per round, the calls per sample "
            "sized from warm calls; best sample / calls"
        ),
        "oracle_deviation": (
            "max entrywise |assemble(...).matrix - Hadamard formula| / (s max|K11..K22|), "
            "the quantity tests/test_schrodinger.py bounds by 1e-14"
        ),
        "errors": (
            "cli.schrodinger_error per configuration: the analytic error for schrod_separable, "
            "self-convergence against order 2n for schrod_pereybuck"
        ),
        "machine": result["machine"],
        "results": rows,
        "configuration_errors": error_rows,
    }
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    for row in rows:
        print(
            f"{row['potential']:17s} n={row['n']:4d}  assemble {row['before_s'] * 1e3:8.3f} ->"
            f" {row['after_s'] * 1e3:8.3f} ms  x{row['speedup']:5.2f}"
            f"  peak {row['before_peak_mb']:6.1f} -> {row['after_peak_mb']:6.1f} MB"
            f"  dev {row['before_oracle_deviation']:.1e} / {row['after_oracle_deviation']:.1e}"
        )
    for row in error_rows:
        print(f"{row['configuration']:22s} error {row['before']:.6e} -> {row['after']:.6e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
