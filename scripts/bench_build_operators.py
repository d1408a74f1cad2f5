#!/usr/bin/env python3
"""Time build_operators against a baseline commit and write BENCH_build_operators.json.

Usage, from the root of a checkout:

    python3 scripts/bench_build_operators.py --baseline <commit>

The baseline's ``src/`` is taken with ``git archive``; the working tree's
``src/`` is the change.  Each side runs in fresh single-threaded worker
processes, the sides alternating round by round.  Three things are timed
per order: ``build_operators(n)`` alone; a one-panel ``assemble_blocks`` of
each kernel in ``ASSEMBLIES``, which is what a one-panel solve assembles
(operators, kernel sampling and ``semismooth_block``); and ``dense_solve``
of the example2 block held as a fresh one-panel operator, which is what a
one-panel solve factors (below ``fredholm_solver.FLOAT32_CROSSOVER_N`` the copy
that LU overwrites, the LU, the ``gecon`` estimate and the solve; from it
up the float32 copy, its LU, the refinement and ``sgecon``).
``ASSEMBLIES`` holds the reflected kernels example2 (T = pi/2 and 50 pi)
and example4, which the tile-pair walk samples through the lower branch
alone, and example1, which takes the row-block walk and is the control.  ``build_operators`` reports the best
sample over every round.  The assembly and the dense solve report the best
sample and the median and quartiles of every sample of every round, since
one fast sample on a shared machine can decide a best-of figure, and the
rounds won by the change (``_ab.rounds_won``) on each round's median.  Each
assembly also gets its ``tracemalloc`` peak (numpy reports its buffers to
tracemalloc).

Each side also reports its largest entrywise deviation, over the operators
in ``OPERATOR_NAMES``, from the dense reference ``dense_operators`` in
tests/dense_oracle.py, and the relative sup error of ``solve_fredholm`` on
the ``SOLVES`` problems, so a speed-up that costs digits shows up here.
The integration operators ``int_left`` and ``int_right`` are W = a + B and
V = c - B as ``integration_matrices`` forms them from the vectors that the
solves read, with B from ``SpectralOperators.bracket_rows``, so the
baseline must be a commit that has ``bracket_rows`` (8ba5047 or later).
The change's first worker also times the one-panel assembly with each
value of ``fredholm_solver.ROW_BLOCK_ENTRIES`` in ``ROW_BLOCK_CANDIDATES``,
which is how that constant was chosen, and ``dense_solve`` of each ``SOLVES`` block
at ``FLOAT32_ORDERS`` on the float32 path (a float32 LU refined in float64)
and on float64 LU, by moving ``fredholm_solver.FLOAT32_CROSSOVER_N`` below and
above the system, which is how that constant was chosen.
"""

import argparse
import json
import math
import statistics
import sys
import tracemalloc

import _ab

sys.path.insert(0, str(_ab.ROOT / "tests"))

ORDERS = (4, 8, 16, 32, 64, 127, 255, 511, 1023, 2047)
# (label, catalog name, overrides) assembled as one panel at every order
ASSEMBLIES = (
    ("example1", "example1", {}),
    ("example2", "example2", {}),
    ("example2-T50pi", "example2", {"T": 50 * math.pi}),
    ("example4", "example4", {}),
)
# (label, catalog name, overrides) solved at SOLVE_ORDERS for the error columns
SOLVES = (
    ("example1", "example1", {}),
    ("example2", "example2", {}),
    ("example2-T50pi", "example2", {"T": 50 * math.pi}),
)
SOLVE_ORDERS = (511, 767, 1023)
ROW_BLOCK_CANDIDATES = (2048, 4096, 8192, 16384, 32768, 65536, 131072)
ROW_BLOCK_ORDERS = (255, 511, 767, 1023, 2047)
FLOAT32_ORDERS = (383, 447, 511, 575, 639, 703, 767, 895, 1023)
ROUNDS = 10
REPEATS = 5
# smallest total time of one timing sample, so that timer overhead is noise
SAMPLE_S = 0.02
OUT = _ab.ROOT / "BENCH_build_operators.json"


def best_time(call):
    return _ab.best_time(call, SAMPLE_S, REPEATS)


def time_samples(call):
    return _ab.time_samples(call, SAMPLE_S, REPEATS)


def measure(with_deviation, with_sweep):
    """Worker: per order, the best build time, every dense solve sample,
    every assembly sample and the assembly's allocation peak per kernel
    and, in the first round, the oracle deviation and the solve errors;
    with ``with_sweep``, the best assembly time per ROW_BLOCK_ENTRIES value
    and the best dense solve time of each SOLVES system per path."""
    import numpy as np

    from chebfred import fredholm_solver
    from chebfred.block_operator import ToeplitzBlocks
    from chebfred.composite_solver import assemble_blocks, build_partition
    from chebfred.fredholm_solver import dense_solve, relative_sup_error, solve_fredholm
    from chebfred.kernel_catalog import catalog_lookup
    from chebfred.spectral_core import build_operators
    from dense_oracle import OPERATOR_NAMES, dense_operators, integration_matrices

    problems = {label: catalog_lookup(name, **overrides) for label, name, overrides in ASSEMBLIES}

    def one_panel_assembly(label, n):
        problem = problems[label]
        partition = build_partition(problem.a, problem.b, orders=n)
        return lambda: assemble_blocks(problem.kernel, partition, problem.lam, problem.rhs)

    out = {}
    for n in ORDERS:
        block = one_panel_assembly("example2", n)().matrix.block(0, 0)
        rhs = np.ones(n + 1)
        out[n] = {
            "best_s": best_time(lambda: build_operators(n)),
            "dense_solve_samples_s": time_samples(lambda: dense_solve(ToeplitzBlocks([0, n + 1], {0: block}), rhs)),
            "assemble": {},
        }
        for label in problems:
            assemble = one_panel_assembly(label, n)
            row = out[n]["assemble"][label] = {"samples_s": time_samples(assemble)}
            tracemalloc.start()
            assemble()
            row["peak_mb"] = tracemalloc.get_traced_memory()[1] / 2**20
            tracemalloc.stop()
        if with_deviation:
            ops, ref = build_operators(n), dense_operators(n)
            left, right = integration_matrices(ops)
            got = {"order": ops.order, "int_left": left, "int_right": right, "full_weights": ops.full_weights}
            out[n]["max_deviation"] = max(
                float(np.max(np.abs(np.asarray(got[name]) - ref[name]))) for name in OPERATOR_NAMES
            )
    errors = {}
    if with_deviation:
        for label, name, overrides in SOLVES:
            problem = catalog_lookup(name, **overrides)
            for n in SOLVE_ORDERS:
                sol = solve_fredholm(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, n)
                errors[f"{label}/{n}"] = relative_sup_error(sol.node_values, problem.solution(sol.nodes))
    sweep = {}
    if with_sweep:
        for n in ROW_BLOCK_ORDERS:
            assemble = one_panel_assembly("example2", n)
            for entries in ROW_BLOCK_CANDIDATES:
                fredholm_solver.ROW_BLOCK_ENTRIES = entries
                sweep[f"{entries}/{n}"] = best_time(assemble)
    float32_sweep = {}
    if with_sweep:
        crossover = fredholm_solver.FLOAT32_CROSSOVER_N
        for label, _, _ in SOLVES:  # each is also an ASSEMBLIES label
            for n in FLOAT32_ORDERS:
                system = one_panel_assembly(label, n)()
                block = system.matrix.block(0, 0)
                for path, smallest in (("float32", 0), ("float64", math.inf)):
                    fredholm_solver.FLOAT32_CROSSOVER_N = smallest
                    float32_sweep[f"{label}/{n}/{path}"] = best_time(
                        lambda: dense_solve(ToeplitzBlocks([0, n + 1], {0: block}), system.rhs)
                    )
        fredholm_solver.FLOAT32_CROSSOVER_N = crossover
    return {
        "orders": out, "errors": errors, "row_block_sweep": sweep, "float32_sweep": float32_sweep,
        "machine": _ab.machine(),
    }


def compare(samples, per_round):
    """Before/after columns of one timed quantity: the spread of each side's
    pooled samples, the speed-ups of the best and the median sample, and the
    rounds won by the change on the per-round medians."""
    row = {}
    for side in ("before", "after"):
        row.update({f"{side}_{k}": v for k, v in _ab.spread(samples[side]).items()})
    row["speedup"] = row["before_s"] / row["after_s"]
    row["median_speedup"] = row["before_median_s"] / row["after_median_s"]
    row["rounds_won"] = _ab.rounds_won(per_round["before"], per_round["after"])
    return row


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="git commit whose src/ is the 'before' side")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--deviation", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--sweep", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(measure(args.deviation, args.sweep)))
        return 0
    if not args.baseline:
        parser.error("--baseline is required")
    commit = _ab.short_commit(args.baseline)
    labels = [label for label, _, _ in ASSEMBLIES]
    # (quantity, n) -> side -> pooled samples, and -> side -> each round's median
    samples, per_round = {}, {}
    deviation, errors, sweep, float32_sweep = {}, {}, {}, {}
    for r, side, src in _ab.alternating_rounds(commit, ROUNDS):
        # the sweeps choose constants, not A/B columns: one worker runs them
        flags = (["--deviation"] if r == 0 else []) + (["--sweep"] if (r, side) == (0, "after") else [])
        result = _ab.run_worker(__file__, src, *flags)
        for n, v in result["orders"].items():
            n = int(n)
            timed = {("build", n): [v["best_s"]], ("dense_solve", n): v["dense_solve_samples_s"]}
            for label, a in v["assemble"].items():
                timed[(label, n)] = a["samples_s"]
                samples.setdefault(("peak", label, n), {}).setdefault(side, []).append(a["peak_mb"])
            for key, times in timed.items():
                samples.setdefault(key, {}).setdefault(side, []).extend(times)
                per_round.setdefault(key, {}).setdefault(side, []).append(statistics.median(times))
            if "max_deviation" in v:
                deviation.setdefault(n, {})[side] = v["max_deviation"]
        for key, err in result["errors"].items():
            errors.setdefault(key, {})[side] = err
        sweep.update(result["row_block_sweep"])
        float32_sweep.update(result["float32_sweep"])
    rows, assembly = [], []
    for n in ORDERS:
        build = compare(samples[("build", n)], per_round[("build", n)])
        row = {
            "n": n,
            "before_s": build["before_s"],
            "after_s": build["after_s"],
            "speedup": build["speedup"],
            "rounds_won": build["rounds_won"],
        }
        row.update({f"dense_solve_{k}": v for k, v in compare(samples[("dense_solve", n)], per_round[("dense_solve", n)]).items()})
        row["before_max_deviation"] = deviation[n]["before"]
        row["after_max_deviation"] = deviation[n]["after"]
        rows.append(row)
        for label in labels:
            entry = {"kernel": label, "n": n, **compare(samples[(label, n)], per_round[(label, n)])}
            for side in ("before", "after"):
                entry[f"{side}_peak_mb"] = min(samples[("peak", label, n)][side])
            assembly.append(entry)
    solve_errors = [
        {"problem": key.rsplit("/", 1)[0], "n": int(key.rsplit("/", 1)[1]), **sides_err}
        for key, sides_err in errors.items()
    ]
    report = {
        "benchmark": (
            "spectral_core.build_operators (results: before_s/after_s, best sample), "
            "fredholm_solver.dense_solve of the one-panel example2 block as a fresh one-panel operator "
            "(results: dense_solve_*: copy, LU, gecon, getrs; from fredholm_solver.FLOAT32_CROSSOVER_N up, "
            "float32 copy, sgetrf, refinement in float64, sgecon), and a one-panel composite_solver.assemble_blocks "
            "per kernel of ASSEMBLIES (assembly: operators, kernel sampling and semismooth_block), wall time per "
            "call; dense_solve_* and assembly rows give the best sample (*_s), the quartiles of every sample of "
            "every round (*_q1_s, *_median_s, *_q3_s) and the rounds won by the change on per-round medians "
            "(rounds_won, ties counted for neither side; for build_operators, on per-round best samples); "
            "*_peak_mb is the tracemalloc peak of one assembly"
        ),
        "command": f"python3 scripts/bench_build_operators.py --baseline {commit}",
        "before": f"src/ at {commit}",
        "after": "src/ of the checkout this file is committed in",
        "method": (
            f"{ROUNDS} rounds of fresh worker processes, sides alternating; "
            f"{REPEATS} timing samples of about {SAMPLE_S} s per order per round, the calls per sample "
            "sized from warm calls; time per call = sample / calls"
        ),
        "rounds": ROUNDS,
        "deviation": "max entrywise |op - dense_operators(n)[op]| over every operator in OPERATOR_NAMES",
        "solve_errors_note": "relative sup error of solve_fredholm at its nodes against the analytic solution",
        "machine": result["machine"],
        "results": rows,
        "assembly": assembly,
        "solve_errors": solve_errors,
    }
    if sweep:
        report["row_block_sweep"] = {
            "note": (
                "after side, first round's worker only: best time (s) of the one-panel example2 assemble_blocks, "
                "kernel sampling included, per fredholm_solver.ROW_BLOCK_ENTRIES value and order; example2 is "
                "reflected, so this times the tile-pair walk with tiles of side isqrt(ROW_BLOCK_ENTRIES)"
            ),
            "orders": list(ROW_BLOCK_ORDERS),
            "best_s": {
                str(entries): [sweep[f"{entries}/{n}"] for n in ROW_BLOCK_ORDERS] for entries in ROW_BLOCK_CANDIDATES
            },
        }
    if float32_sweep:
        report["float32_sweep"] = {
            "note": (
                "after side, first round's worker only: best time (s) of dense_solve of the one-panel block of each "
                "SOLVES system as a fresh one-panel operator, on the float32 path (float32 LU refined in float64) "
                "and on float64 LU, chosen by fredholm_solver.FLOAT32_CROSSOVER_N; speedup = float64 / float32"
            ),
            "orders": list(FLOAT32_ORDERS),
            "rows": [
                {
                    "problem": label, "n": n,
                    "float32_s": float32_sweep[f"{label}/{n}/float32"],
                    "float64_s": float32_sweep[f"{label}/{n}/float64"],
                    "speedup": float32_sweep[f"{label}/{n}/float64"] / float32_sweep[f"{label}/{n}/float32"],
                }
                for label, _, _ in SOLVES for n in FLOAT32_ORDERS
            ],
        }
    OUT.write_text(json.dumps(report, indent=2) + "\n")

    def timing(row, side):
        return (
            f"{row[f'{side}_s'] * 1e3:.3f} / {row[f'{side}_median_s'] * 1e3:.3f}"
            f" [{row[f'{side}_q1_s'] * 1e3:.3f}, {row[f'{side}_q3_s'] * 1e3:.3f}]"
        )

    print(f"times in ms as best / median [quartiles]; won = rounds of {ROUNDS} won by the change")
    for row in rows:
        dense = {k[len("dense_solve_"):]: v for k, v in row.items() if k.startswith("dense_solve_")}
        print(
            f"n={row['n']:5d}  build {row['before_s'] * 1e3:.3f} -> {row['after_s'] * 1e3:.3f}"
            f"  x{row['speedup']:.2f} won {row['rounds_won']}"
            f"  dense_solve {timing(dense, 'before')} -> {timing(dense, 'after')} won {dense['rounds_won']}"
            f"  dev {row['before_max_deviation']:.1e} / {row['after_max_deviation']:.1e}"
        )
    for row in assembly:
        print(
            f"{row['kernel']:>15s} n={row['n']:5d}  assembly {timing(row, 'before')} -> {timing(row, 'after')}"
            f"  x{row['median_speedup']:.2f} won {row['rounds_won']}"
            f"  peak {row['before_peak_mb']:.2f} -> {row['after_peak_mb']:.2f} MB"
        )
    for row in solve_errors:
        print(f"{row['problem']:>15s} n={row['n']:5d}  error {row['before']:.6e} -> {row['after']:.6e}")
    if sweep:
        for entries, times in report["row_block_sweep"]["best_s"].items():
            cells = "  ".join(f"n={n}: {t * 1e3:7.3f} ms" for n, t in zip(ROW_BLOCK_ORDERS, times))
            print(f"ROW_BLOCK_ENTRIES={entries:>7s}  {cells}")
    for row in report.get("float32_sweep", {}).get("rows", []):
        print(
            f"{row['problem']:>15s} n={row['n']:5d}  dense_solve float64 {row['float64_s'] * 1e3:.3f}"
            f" -> float32 {row['float32_s'] * 1e3:.3f} ms  x{row['speedup']:.2f}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
