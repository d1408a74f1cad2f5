#!/usr/bin/env python3
"""Time Schrodinger assembly against a baseline commit and write BENCH_schrodinger_assembly.json.

Usage, from the root of a checkout:

    python3 scripts/bench_schrodinger_assembly.py --baseline <commit>

The baseline's ``src/`` is taken with ``git archive``; the working tree's
``src/`` is the change.  Each side runs in fresh single-threaded worker
processes, the sides alternating round by round.  What is timed is
``schrodinger.assemble`` on the catalog potential: sampling the branches
(the lower one alone for a reflected potential), the spliced kernel and the
semismooth block.  Each potential and order reports the best sample and the
median and quartiles of every sample of every round, and the rounds won by
the change on each round's median (``_ab.rounds_won``).  Each call also
gets its ``tracemalloc`` peak (numpy reports its buffers to tracemalloc),
and its largest entrywise deviation from the explicit Hadamard-product
formula of tests/test_schrodinger.py, relative to s max|K| as that test
bounds it.
Each side also reports the error of every scattering configuration that the
error tables and the benchmark's ``schrodinger`` workload print, through
``cli.schrodinger_error``.
"""

import argparse
import json
import statistics
import sys
import tracemalloc

import _ab

sys.path.insert(0, str(_ab.ROOT / "tests"))

POTENTIALS = ("schrod_pereybuck", "schrod_separable")
ORDERS = (64, 96, 128, 192, 256, 384, 512)
# the catalog orders of both problems plus the perfbench schrodinger workload's
ERROR_ORDERS = {"schrod_pereybuck": (16, 32, 64, 128, 192), "schrod_separable": (16, 32, 64, 128, 256)}
ROUNDS = 10
REPEATS = 5
# smallest total time of one timing sample, so that timer overhead is noise
SAMPLE_S = 0.05
OUT = _ab.ROOT / "BENCH_schrodinger_assembly.json"


def time_samples(call):
    return _ab.time_samples(call, SAMPLE_S, REPEATS)


def measure(with_accuracy):
    """Worker: every timing sample and the allocation peak per potential and
    order, and optionally the oracle deviations and the configuration errors."""
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
            row = {"samples_s": time_samples(lambda: assemble(pot, grid))}
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
    samples = {"before": {}, "after": {}}  # side -> key -> every sample of every round
    medians = {"before": {}, "after": {}}  # side -> key -> each round's median
    peaks, deviations = {"before": {}, "after": {}}, {"before": {}, "after": {}}
    errors = {}
    for r, side, src in _ab.alternating_rounds(commit, ROUNDS):
        result = _ab.run_worker(__file__, src, *(["--accuracy"] if r == 0 else []))
        for key, v in result["timings"].items():
            samples[side].setdefault(key, []).extend(v["samples_s"])
            medians[side].setdefault(key, []).append(statistics.median(v["samples_s"]))
            peaks[side][key] = min(peaks[side].get(key, v["peak_mb"]), v["peak_mb"])
            if "oracle_deviation" in v:
                deviations[side][key] = v["oracle_deviation"]
        if r == 0:
            errors[side] = result["errors"]
    rows = []
    for key in samples["before"]:
        name, n = key.split("/")
        row = {"potential": name, "n": int(n)}
        for side in ("before", "after"):
            row.update({f"{side}_{k}": v for k, v in _ab.spread(samples[side][key]).items()})
        row["speedup"] = row["before_s"] / row["after_s"]
        row["median_speedup"] = row["before_median_s"] / row["after_median_s"]
        row["rounds_won"] = _ab.rounds_won(medians["before"][key], medians["after"][key])
        for side in ("before", "after"):
            row[f"{side}_peak_mb"] = peaks[side][key]
            row[f"{side}_oracle_deviation"] = deviations[side][key]
        rows.append(row)
    error_rows = [
        {"configuration": key, "before": errors["before"][key], "after": errors["after"][key]}
        for key in errors["before"]
    ]
    report = {
        "benchmark": (
            "schrodinger.assemble on the catalog potentials, wall time per call: the best sample (*_s), the "
            "quartiles of every sample of every round (*_q1_s, *_median_s, *_q3_s) and the rounds won by the "
            "change on per-round medians (rounds_won, ties counted for neither side); peak_mb is the "
            "tracemalloc peak of one call"
        ),
        "command": f"python3 scripts/bench_schrodinger_assembly.py --baseline {commit}",
        "before": f"src/ at {commit}",
        "after": "src/ of the checkout this file is committed in",
        "method": (
            f"{ROUNDS} rounds of fresh worker processes, sides alternating; "
            f"{REPEATS} timing samples of about {SAMPLE_S} s per order per round, the calls per sample "
            "sized from warm calls; time per call = sample / calls"
        ),
        "rounds": ROUNDS,
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
    print(f"times in ms as best / median; won = rounds of {ROUNDS} won by the change")
    for row in rows:
        print(
            f"{row['potential']:17s} n={row['n']:4d}  assemble {row['before_s'] * 1e3:7.3f} /"
            f" {row['before_median_s'] * 1e3:7.3f} -> {row['after_s'] * 1e3:7.3f} / {row['after_median_s'] * 1e3:7.3f}"
            f"  x{row['median_speedup']:5.2f} won {row['rounds_won']:2d}"
            f"  peak {row['before_peak_mb']:6.1f} -> {row['after_peak_mb']:6.1f} MB"
            f"  dev {row['before_oracle_deviation']:.1e} / {row['after_oracle_deviation']:.1e}"
        )
    for row in error_rows:
        print(f"{row['configuration']:22s} error {row['before']:.6e} -> {row['after']:.6e}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
