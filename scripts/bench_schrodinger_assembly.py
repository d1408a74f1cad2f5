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
formula (``hadamard_matrix`` of tests/dense_oracle.py), relative to s max|K|
as tests/test_schrodinger.py bounds it.
Each side also reports the error of every scattering configuration that the
error tables and the benchmark's ``schrodinger`` workload print, through
``cli.schrodinger_error``.

The solve sweep times ``dense_solve`` of each catalog potential's system,
as the CLI assembles it, at ``SOLVE_ORDERS`` on a fresh operator per call
(``_ab.fresh``), so each side takes its own path: the two-grid iteration
where the side gives the system a coarse rule and the gate takes it,
float64 LU otherwise.  It reports the median over the workers of each
worker's median, the rounds won by the change, and, from each side's
first worker, the path that answered, its refinement steps
(``_ab.watched_path``) and ``cli.schrodinger_error``.

The first ``SWEEP_WORKERS`` workers of the change also time ``assemble``
on two paths, at each order of ``SWEEP_ORDERS``, choosing the path by the
rank cap alone: factored up to any rank (``schrodinger.LOWRANK_MAX_RANK``
set above the order) and by the dense products (``LOWRANK_MAX_RANK`` set
to 0, which gives up on any nonzero potential).  It does so for the catalog
potentials and for the Gaussian potentials 0.1 exp(-alpha (p - r')^2) of
``GAUSSIANS``, whose numerical ranks run from 11 to 30 at order 128 and
up, and reports the rank that the factorisation finds.  For the Gaussian
of ``HIGH_RANK_ALPHA``, of rank above the cap at every order, it times the
committed rank cap instead of the factored path: the cost of trying to
factor and giving up.  The report gives each path's median over every
sample and the rounds the first path won on per-round medians, which is
how ``LOWRANK_MAX_RANK`` was chosen.
"""

import argparse
import dataclasses
import json
import statistics
import sys
import tracemalloc

import _ab

sys.path.insert(0, str(_ab.ROOT / "tests"))

POTENTIALS = ("schrod_pereybuck", "schrod_separable")
ORDERS = (16, 32, 64, 96, 128, 159, 160, 192, 224, 256, 384, 512)
# orders of the solve sweep: below, at and above TWOGRID_CROSSOVER_N
SOLVE_ORDERS = (255, 383, 384, 511)
SWEEP_ORDERS = (16, 32, 64, 128, 160, 192, 224, 256, 384, 512)
# alpha of the Gaussian potentials of the sweep: ranks 11, 13, 16, 17, 21, 30
GAUSSIANS = (0.003, 0.007, 0.014, 0.02, 0.04, 0.1)
HIGH_RANK_ALPHA = 1.0
# the catalog orders of both problems plus the perfbench schrodinger workload's
ERROR_ORDERS = {"schrod_pereybuck": (16, 32, 64, 128, 192), "schrod_separable": (16, 32, 64, 128, 256)}
ROUNDS = 10
# workers of the change that run the path sweep, which dominates the run time
SWEEP_WORKERS = 3
REPEATS = 5
# smallest total time of one timing sample, so that timer overhead is noise
SAMPLE_S = 0.05
OUT = _ab.ROOT / "BENCH_schrodinger_assembly.json"


def time_samples(call):
    return _ab.time_samples(call, SAMPLE_S, REPEATS)


def sweep():
    """Worker of the change: every timing sample of the two paths, and the
    rank found, per sweep potential and order."""
    import numpy as np

    from chebfred import schrodinger
    from chebfred.kernel_catalog import catalog_lookup
    from chebfred.spectral_core import cheb_grid

    def gaussian(alpha):
        lower = lambda p, r2: 0.1 * np.exp(-alpha * (p - r2) ** 2)
        # the separable potential's kappa = 1 and cutoff 20, with this branch
        return dataclasses.replace(catalog_lookup("schrod_separable").potential, lower=lower)

    cap = schrodinger.LOWRANK_MAX_RANK
    # path -> LOWRANK_MAX_RANK at order n
    paths = {"factored": lambda n: n + 1, "dense": lambda n: 0, "committed": lambda n: cap}
    # name -> (potential, the path timed against the dense one)
    runs = {name: (catalog_lookup(name).potential, "factored") for name in POTENTIALS}
    runs.update({f"gaussian{alpha}": (gaussian(alpha), "factored") for alpha in GAUSSIANS})
    runs[f"gaussian{HIGH_RANK_ALPHA}"] = (gaussian(HIGH_RANK_ALPHA), "committed")
    out = {}
    try:
        for name, (pot, path) in runs.items():
            for n in SWEEP_ORDERS:
                grid = cheb_grid(n, 0.0, pot.cutoff)
                row = {"path": path}
                for timed in (path, "dense"):
                    schrodinger.LOWRANK_MAX_RANK = paths[timed](n)
                    row[f"{timed}_samples_s"] = time_samples(lambda: schrodinger.assemble(pot, grid))
                sample = pot.eval_lower(grid.nodes[:, None], grid.nodes[None, :])
                factors = schrodinger._cross_factors(sample, paths[path](n))
                row["rank"] = None if factors is None else len(factors[0])
                out[f"{name}/{n}"] = row
    finally:
        schrodinger.LOWRANK_MAX_RANK = cap
    return out


def measure(with_accuracy, with_sweep):
    """Worker: every timing sample and the allocation peak per potential and
    order, optionally the oracle deviations and the configuration errors,
    and optionally the path sweep."""
    import numpy as np

    from chebfred.cli import schrodinger_error
    from chebfred.fredholm_solver import dense_solve
    from chebfred.kernel_catalog import catalog_lookup
    from chebfred.schrodinger import assemble, build_kernel_matrices
    from chebfred.spectral_core import build_operators, cheb_grid
    from dense_oracle import hadamard_matrix

    timings, errors = {}, {}
    for name in POTENTIALS:
        pot = catalog_lookup(name).potential
        for n in ORDERS:
            grid = cheb_grid(n, 0.0, pot.cutoff)
            row = {"samples_s": time_samples(lambda: assemble(pot, grid))}
            tracemalloc.start()
            matrix = assemble(pot, grid).matrix.block(0, 0)
            row["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
            if with_accuracy:
                ops = build_operators(n)
                reference, term_scale = hadamard_matrix(pot, grid, ops, build_kernel_matrices(pot, grid, ops))
                row["oracle_deviation"] = float(np.max(np.abs(matrix - reference)) / term_scale)
            timings[f"{name}/{n}"] = row
        if with_accuracy:
            problem = catalog_lookup(name)
            for n in ERROR_ORDERS[name]:
                errors[f"{name}/{n}"] = schrodinger_error(problem, n)
    solves = {}
    for name in POTENTIALS:
        problem = catalog_lookup(name)
        pot = problem.potential
        for n in SOLVE_ORDERS:
            system = assemble(pot, cheb_grid(n, 0.0, pot.cutoff), problem.rhs)
            samples = time_samples(lambda: dense_solve(_ab.fresh(system), system.rhs))
            row = solves[f"{name}/{n}"] = {"samples_s": samples}
            if with_accuracy:
                row["path"], row["steps"] = _ab.watched_path(system)
                row["error"] = schrodinger_error(problem, n)
    return {
        "timings": timings, "errors": errors, "solves": solves, "sweep": sweep() if with_sweep else {},
        "machine": _ab.machine(),
    }


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="git commit whose src/ is the 'before' side")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--accuracy", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--sweep", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(measure(args.accuracy, args.sweep)))
        return 0
    if not args.baseline:
        parser.error("--baseline is required")
    commit = _ab.short_commit(args.baseline)
    samples = {"before": {}, "after": {}}  # side -> key -> every sample of every round
    medians = {"before": {}, "after": {}}  # side -> key -> each round's median
    peaks, deviations = {"before": {}, "after": {}}, {"before": {}, "after": {}}
    errors = {}
    solve_medians, solve_details = {"before": {}, "after": {}}, {"before": {}, "after": {}}
    sweep_samples, sweep_medians, ranks = {}, {}, {}  # key -> path -> samples / per-round medians
    for r, side, src in _ab.alternating_rounds(commit, ROUNDS):
        flags = (["--accuracy"] if r == 0 else []) + (["--sweep"] if side == "after" and r < SWEEP_WORKERS else [])
        result = _ab.run_worker(__file__, src, *flags)
        for key, v in result["sweep"].items():
            ranks[key] = v["rank"], v["path"]
            for path in (v["path"], "dense"):
                sweep_samples.setdefault(key, {}).setdefault(path, []).extend(v[f"{path}_samples_s"])
                sweep_medians.setdefault(key, {}).setdefault(path, []).append(statistics.median(v[f"{path}_samples_s"]))
        for key, v in result["timings"].items():
            samples[side].setdefault(key, []).extend(v["samples_s"])
            medians[side].setdefault(key, []).append(statistics.median(v["samples_s"]))
            peaks[side][key] = min(peaks[side].get(key, v["peak_mb"]), v["peak_mb"])
            if "oracle_deviation" in v:
                deviations[side][key] = v["oracle_deviation"]
        for key, v in result["solves"].items():
            solve_medians[side].setdefault(key, []).append(statistics.median(v["samples_s"]))
            if "path" in v:
                solve_details[side][key] = {k: v[k] for k in ("path", "steps", "error")}
        if r == 0:
            errors[side] = result["errors"]
    solve_rows = []
    for key in solve_medians["before"]:
        name, n = key.split("/")
        row = {"potential": name, "n": int(n)}
        for side in ("before", "after"):
            row[f"{side}_median_s"] = statistics.median(solve_medians[side][key])
            row.update({f"{side}_{k}": v for k, v in solve_details[side][key].items()})
        row["median_speedup"] = row["before_median_s"] / row["after_median_s"]
        row["rounds_won"] = _ab.rounds_won(solve_medians["before"][key], solve_medians["after"][key])
        solve_rows.append(row)
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
    sweep_rows = []
    for key, paths in sweep_samples.items():
        name, n = key.split("/")
        rank, path = ranks[key]
        row = {"potential": name, "n": int(n), "rank": rank, "path": path}
        row["path_median_s"] = statistics.median(paths[path])
        row["dense_median_s"] = statistics.median(paths["dense"])
        row["speedup"] = row["dense_median_s"] / row["path_median_s"]
        row["rounds_won"] = _ab.rounds_won(sweep_medians[key]["dense"], sweep_medians[key][path])
        sweep_rows.append(row)
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
        "solve_sweep": {
            "what": (
                "fredholm_solver.dense_solve of the system that the CLI assembles (the separable potential with its "
                "manufactured right-hand side, Perey-Buck with sin(kappa r)), on a fresh operator per call; *_median_s "
                "is the median over the side's workers of each worker's median, rounds_won counts the rounds won by "
                "the change on worker medians; path, steps and error (cli.schrodinger_error) are from each side's "
                "first worker"
            ),
            "rows": solve_rows,
        },
        "path_sweep": {
            "what": (
                "schrodinger.assemble of the change on two paths: 'path' is factored (LOWRANK_MAX_RANK above n) "
                "or committed (LOWRANK_MAX_RANK as committed), against dense (LOWRANK_MAX_RANK = 0); medians over "
                "every sample of every round (path_median_s, "
                f"dense_median_s), speedup = dense / path, and the rounds of the change's first {SWEEP_WORKERS} "
                "workers that 'path' won "
                "on per-round medians; gaussian<alpha> is 0.1 exp(-alpha (p - r')^2); rank is the rank the "
                "factorisation finds, null where it gives up at LOWRANK_MAX_RANK"
            ),
            "rounds": len(next(iter(sweep_medians.values()))["dense"]) if sweep_medians else 0,
            "rows": sweep_rows,
        },
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
    for row in solve_rows:
        print(
            f"{row['potential']:17s} n={row['n']:4d}  dense_solve {row['before_median_s'] * 1e3:7.3f} ->"
            f" {row['after_median_s'] * 1e3:7.3f} ms  x{row['median_speedup']:5.2f} won {row['rounds_won']:2d}"
            f"  {row['before_path']} ({row['before_steps']}) -> {row['after_path']} ({row['after_steps']})"
            f"  error {row['before_error']:.3e} -> {row['after_error']:.3e}"
        )
    print("path sweep of the change: dense -> factored or committed median ms, rounds won by the latter")
    for row in sweep_rows:
        rank = "gave up" if row["rank"] is None else f"rank {row['rank']:3d}"
        print(
            f"{row['potential']:17s} n={row['n']:4d} {rank:8s} {row['path']:9s} {row['dense_median_s'] * 1e3:7.3f} ->"
            f" {row['path_median_s'] * 1e3:7.3f}  x{row['speedup']:5.2f} won {row['rounds_won']:2d}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
