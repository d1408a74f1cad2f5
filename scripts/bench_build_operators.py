#!/usr/bin/env python3
"""Time build_operators and the one-panel solve against a baseline commit and write BENCH_build_operators.json.

Usage, from the root of a checkout:

    python3 scripts/bench_build_operators.py --baseline <commit>

The baseline's ``src/`` is taken with ``git archive``; the working tree's
``src/`` is the change.  Each side runs in fresh single-threaded worker
processes, the sides alternating round by round.  Four things are timed
per order: ``build_operators(n)`` alone; a one-panel ``assemble_blocks`` of
each kernel in ``ASSEMBLIES``, which is what a one-panel solve assembles
(operators, kernel sampling and ``semismooth_block``); ``dense_solve`` of
the one-panel example2 system at ``ORDERS``; and ``dense_solve`` of each
``REGRESSION`` system at ``REGRESSION_ORDERS``.  A solve is timed on a
fresh copy of the assembled operator (``_ab.fresh``), which keeps the
operator's coarse rule where the code under test gives it one, so it
takes the path a one-panel solve takes: the two-grid iteration, the
float32 LU refined in float64, or float64 LU (``dense_solve``).
``ASSEMBLIES`` holds example1 and example2 (T = pi/2 and 50 pi), whose
branches are stated by factor pairs, so that ``semismooth_block`` fills
their blocks from the factors at the nodes and samples nothing; example4,
reflected, whose upper sampler reads the lower branch with the arguments
swapped; and example3, whose two branches are plain callables and which is
the control.  Example3 and example4 both take the row-block walk.
``build_operators`` reports the best sample over every round.  The
assembly and the solves report the best sample and the median and
quartiles of every sample of every round, since one fast sample on a
shared machine can decide a best-of figure, and the rounds won by the
change (``_ab.rounds_won``) on each round's median.  Each assembly also
gets its ``tracemalloc`` peak (numpy reports its buffers to tracemalloc).

Each side's first worker also reports its largest entrywise deviation,
over the operators in ``OPERATOR_NAMES``, from the dense reference
``dense_operators`` in tests/dense_oracle.py, each assembly's largest
entrywise deviation from ``semismooth_block_reference`` on the whole
branch samples, in units of eps max|A|, the relative sup error of
``solve_fredholm`` on the ``SOLVES`` problems, and, for every
``REGRESSION`` system, the path that answered, its refinement steps and
the error of the answer, so a speed-up that costs digits shows up here.
The paths are read by argument-agnostic wrappers of the builders the code
under test has (``_ab.watched_path``).  The integration operators
``int_left`` and ``int_right`` are W = a + B and V = c - B as
``integration_matrices`` forms them from the vectors that the solves read,
with B from ``SpectralOperators.bracket_rows``, so the baseline must be a
commit that has ``bracket_rows`` (8ba5047 or later).

The change's first ``PATH_WORKERS`` workers time ``dense_solve`` of each
``PATH_SWEEP`` system at ``PATH_ORDERS`` on each path, chosen by moving
``fredholm_solver.TWOGRID_CROSSOVER_N`` and ``FLOAT32_CROSSOVER_N`` below
and above the system; the report gives the median over those workers of
each worker's median, from which ``TWOGRID_CROSSOVER_N`` is read.  The
same workers time, in one process, each ``REGRESSION`` and
``UNIT_RHS_DECLINES`` system that tries the two-grid and is answered by
another path with the two-grid allowed and ruled out, alternately: the
cost of a decline, which the A/B columns, across processes, cannot
resolve.  The change's first worker also times the one-panel assembly
of each ``ROW_BLOCK_KERNELS`` kernel with each value of
``fredholm_solver.ROW_BLOCK_ENTRIES`` in ``ROW_BLOCK_CANDIDATES``, which
is how that constant was chosen, and runs
the tail sweep: for each ``REGRESSION`` system at ``TAIL_ORDERS``, with
the gate open (``TWOGRID_TAIL`` infinite, so the coarse rule has a
quarter of the order), the trailing coefficients of the coarse solution
for the right-hand side, as the gate measures them, and whether the
two-grid refinement then converged, and in how many steps; that is how
``TWOGRID_TAIL`` was chosen.
"""

import argparse
import dataclasses
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
    ("example3", "example3", {}),
    ("example4", "example4", {}),
)
# (label, catalog name, overrides) solved at SOLVE_ORDERS for the error columns
SOLVES = (
    ("example1", "example1", {}),
    ("example2", "example2", {}),
    ("example2-T50pi", "example2", {"T": 50 * math.pi}),
)
SOLVE_ORDERS = (511, 767, 1023)
# (label, catalog name, overrides) of the one-panel solves timed on both sides
REGRESSION = (
    ("example1", "example1", {}),
    ("example2", "example2", {}),
    ("example2-T50pi", "example2", {"T": 50 * math.pi}),
    ("example2-T200pi", "example2", {"T": 200 * math.pi}),
    ("example3", "example3", {}),
    ("example4", "example4", {}),
)
REGRESSION_ORDERS = (255, 319, 383, 447, 511, 575, 639, 703, 767, 895, 1023)
# the systems resolved at a quarter of the order, on which the crossover is read
PATH_SWEEP = REGRESSION[:2]
PATH_ORDERS = (127, 191, 223, 255, 287, 319, 351, 383, 447, 511, 767, 1023)
PATHS = ("twogrid", "float32", "float64")
PATH_WORKERS = 3
DECLINE_ALTERNATIONS = 2
# (label, catalog name, overrides, orders) of the systems with the
# right-hand side y = 1 that the decline sweep times besides REGRESSION's:
# resolved at a quarter of the order, on a kernel that is not
UNIT_RHS_DECLINES = (("example2-T200pi-y=1", "example2", {"T": 200 * math.pi}, (575, 767, 1023)),)
TAIL_ORDERS = (255, 383, 511, 575, 639, 703, 735, 751, 767, 783, 799, 815, 831, 895, 959, 1023)
ROW_BLOCK_CANDIDATES = (2048, 4096, 8192, 16384, 32768, 65536, 131072)
# the factored fill and the row-block walk
ROW_BLOCK_KERNELS = ("example2", "example4")
ROW_BLOCK_ORDERS = (255, 511, 767, 1023, 2047)
ROUNDS = 10
REPEATS = 5
# smallest total time of one timing sample, so that timer overhead is noise
SAMPLE_S = 0.02
OUT = _ab.ROOT / "BENCH_build_operators.json"


def best_time(call):
    return _ab.best_time(call, SAMPLE_S, REPEATS)


def time_samples(call):
    return _ab.time_samples(call, SAMPLE_S, REPEATS)


def measure(with_deviation, with_paths, with_sweep):
    """Worker: per order, the best build time, every dense solve sample,
    every assembly sample and the assembly's allocation peak per kernel,
    and every dense solve sample of each REGRESSION system; with
    ``with_deviation``, the oracle deviation, the solve errors and each
    REGRESSION system's path; with ``with_paths``, the median dense solve
    time of each PATH_SWEEP system per path; with ``with_sweep``, the best
    assembly time per ROW_BLOCK_ENTRIES value and the tail sweep."""
    import numpy as np

    from chebfred import fredholm_solver
    from chebfred.composite_solver import assemble_blocks, build_partition
    from chebfred.fredholm_solver import dense_solve, relative_sup_error, solve_fredholm
    from chebfred.kernel_catalog import catalog_lookup
    from chebfred.spectral_core import build_operators
    from dense_oracle import OPERATOR_NAMES, dense_operators, integration_matrices, semismooth_block_reference

    problems = {label: catalog_lookup(name, **overrides) for label, name, overrides in ASSEMBLIES + REGRESSION}
    for label, name, overrides, _ in UNIT_RHS_DECLINES:
        problems[label] = dataclasses.replace(catalog_lookup(name, **overrides), rhs=np.ones_like)

    def one_panel_assembly(label, n):
        problem = problems[label]
        partition = build_partition(problem.a, problem.b, orders=n)
        return lambda: assemble_blocks(problem.kernel, partition, problem.lam, problem.rhs)

    def solve_samples(system):
        return time_samples(lambda: dense_solve(_ab.fresh(system), system.rhs))

    out = {}
    for n in ORDERS:
        system = one_panel_assembly("example2", n)()
        out[n] = {
            "best_s": best_time(lambda: build_operators(n)),
            "dense_solve_samples_s": solve_samples(system),
            "assemble": {},
        }
        for label, _, _ in ASSEMBLIES:
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
            for label, _, _ in ASSEMBLIES:
                problem, row = problems[label], out[n]["assemble"][label]
                matrix = one_panel_assembly(label, n)().matrix.dense()
                t = build_partition(problem.a, problem.b, orders=n).grids[0].nodes
                k1 = problem.kernel.eval_lower(t[:, None], t[None, :])
                k2 = problem.kernel.eval_upper(t[:, None], t[None, :])
                reference = semismooth_block_reference(ops, k1, k2, problem.lam * (problem.b - problem.a) / 2.0)
                del k1, k2
                row["max_deviation_eps"] = float(
                    np.max(np.abs(matrix - reference)) / (np.finfo(float).eps * np.max(np.abs(reference)))
                )
    regression = {}
    for label, _, _ in REGRESSION:
        for n in REGRESSION_ORDERS:
            system = one_panel_assembly(label, n)()
            row = regression[f"{label}/{n}"] = {"samples_s": solve_samples(system)}
            if with_deviation:
                row["path"], row["steps"] = _ab.watched_path(system)
                x = dense_solve(_ab.fresh(system), system.rhs)[0]
                nodes = system.partition.grids[0].nodes
                row["error"] = relative_sup_error(x, problems[label].solution(nodes))
    errors = {}
    if with_deviation:
        for label, name, overrides in SOLVES:
            problem = catalog_lookup(name, **overrides)
            for n in SOLVE_ORDERS:
                sol = solve_fredholm(problem.kernel, problem.a, problem.b, problem.lam, problem.rhs, n)
                errors[f"{label}/{n}"] = relative_sup_error(sol.node_values, problem.solution(sol.nodes))
    paths = {}
    if with_paths:
        settings = {"twogrid": (0, math.inf), "float32": (math.inf, 0), "float64": (math.inf, math.inf)}
        for label, _, _ in PATH_SWEEP:
            for n in PATH_ORDERS:
                system = one_panel_assembly(label, n)()
                for path, (twogrid, float32) in settings.items():
                    with _ab.patched(fredholm_solver, TWOGRID_CROSSOVER_N=twogrid, FLOAT32_CROSSOVER_N=float32):
                        paths[f"{label}/{n}/{path}"] = statistics.median(solve_samples(system))
                        if path == "twogrid":
                            paths[f"{label}/{n}/answered"] = _ab.watched_path(system)[0]
        # what a decline costs, in one process: each REGRESSION and
        # UNIT_RHS_DECLINES system that tries the two-grid and is answered by
        # another path, timed with the two-grid allowed and ruled out,
        # alternately
        declines = [(label, REGRESSION_ORDERS) for label, _, _ in REGRESSION]
        declines += [(label, orders) for label, _, _, orders in UNIT_RHS_DECLINES]
        for label, orders in declines:
            for n in orders:
                system = one_panel_assembly(label, n)()
                if n + 1 < fredholm_solver.TWOGRID_CROSSOVER_N or _ab.watched_path(system)[0] == "twogrid":
                    continue
                allowed, ruled_out = [], []
                for _ in range(DECLINE_ALTERNATIONS):
                    allowed += solve_samples(system)
                    with _ab.patched(fredholm_solver, TWOGRID_CROSSOVER_N=math.inf):
                        ruled_out += solve_samples(system)
                allowed, ruled_out = statistics.median(allowed), statistics.median(ruled_out)
                paths[f"{label}/{n}/decline"] = allowed / ruled_out, allowed - ruled_out
    sweep, tails = {}, {}
    if with_sweep:
        # the tail sweep reads the change's two-grid, which the baseline lacks
        from chebfred.spectral_core import chebyshev_coefficients, chebyshev_values

        for label in ROW_BLOCK_KERNELS:
            for n in ROW_BLOCK_ORDERS:
                assemble = one_panel_assembly(label, n)
                for entries in ROW_BLOCK_CANDIDATES:
                    with _ab.patched(fredholm_solver, ROW_BLOCK_ENTRIES=entries):
                        sweep[f"{label}/{entries}/{n}"] = best_time(assemble)
        for label, _, _ in REGRESSION:
            for n in TAIL_ORDERS:
                system = one_panel_assembly(label, n)()
                coarse = -(-(n + 1) // 4)
                coeffs = chebyshev_coefficients(system.rhs)
                try:
                    z = np.linalg.solve(system.matrix.coarse(coarse - 1), chebyshev_values(coeffs[:coarse], coarse - 1))
                    z = np.abs(chebyshev_coefficients(z))
                    tail = float(z[-math.ceil(fredholm_solver.TWOGRID_TAIL_FRACTION * coarse) :].max() / z.max())
                except ValueError as exc:  # a kernel sampled at a singular point
                    tail = repr(exc)
                wide = np.flatnonzero(np.abs(coeffs) > fredholm_solver.TWOGRID_TAIL * np.abs(coeffs).max())
                with _ab.patched(fredholm_solver, TWOGRID_TAIL=math.inf, TWOGRID_CROSSOVER_N=0):
                    path, steps = _ab.watched_path(system)
                tails[f"{label}/{n}"] = {
                    "coarse_nodes": coarse, "rhs_degree": int(wide[-1] + 1), "coarse_tail": tail,
                    "open_gate_path": path, "open_gate_steps": steps, "gated_path": _ab.watched_path(system)[0],
                }
    return {
        "orders": out, "regression": regression, "errors": errors, "paths": paths,
        "row_block_sweep": sweep, "tails": tails, "machine": _ab.machine(),
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
    parser.add_argument("--paths", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--sweep", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(measure(args.deviation, args.paths, args.sweep)))
        return 0
    if not args.baseline:
        parser.error("--baseline is required")
    commit = _ab.short_commit(args.baseline)
    labels = [label for label, _, _ in ASSEMBLIES]
    # (quantity, n) -> side -> pooled samples, and -> side -> each round's median
    samples, per_round = {}, {}
    deviation, assembly_deviation, errors, details, sweep, tails = {}, {}, {}, {}, {}, {}
    path_medians = {}  # (label, n, path) -> each sweep worker's median
    answered, declines = {}, {}  # declines: "label/n" -> each sweep worker's time ratio
    for r, side, src in _ab.alternating_rounds(commit, ROUNDS):
        # the sweeps choose constants, not A/B columns: the change's workers run them
        flags = ["--deviation"] if r == 0 else []
        if side == "after" and r < PATH_WORKERS:
            flags.append("--paths")
        if (r, side) == (0, "after"):
            flags.append("--sweep")
        result = _ab.run_worker(__file__, src, *flags)
        timed = {}
        for n, v in result["orders"].items():
            n = int(n)
            timed[("build", n)] = [v["best_s"]]
            timed[("dense_solve", n)] = v["dense_solve_samples_s"]
            for label, a in v["assemble"].items():
                timed[(label, n)] = a["samples_s"]
                samples.setdefault(("peak", label, n), {}).setdefault(side, []).append(a["peak_mb"])
                if "max_deviation_eps" in a:
                    assembly_deviation.setdefault((label, n), {})[side] = a["max_deviation_eps"]
            if "max_deviation" in v:
                deviation.setdefault(n, {})[side] = v["max_deviation"]
        for key, v in result["regression"].items():
            timed[("solve", key)] = v["samples_s"]
            if "path" in v:
                details.setdefault(key, {})[side] = {k: v[k] for k in ("path", "steps", "error")}
        for key, times in timed.items():
            samples.setdefault(key, {}).setdefault(side, []).extend(times)
            per_round.setdefault(key, {}).setdefault(side, []).append(statistics.median(times))
        for key, err in result["errors"].items():
            errors.setdefault(key, {})[side] = err
        for key, value in result["paths"].items():
            if key.endswith("/answered"):
                answered[key.rsplit("/", 1)[0]] = value
            elif key.endswith("/decline"):
                declines.setdefault(key.rsplit("/", 1)[0], []).append(value)
            else:
                path_medians.setdefault(key, []).append(value)
        sweep.update(result["row_block_sweep"])
        tails.update(result["tails"])
    rows, assembly, regression = [], [], []
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
                entry[f"{side}_max_deviation_eps"] = assembly_deviation[(label, n)][side]
            assembly.append(entry)
    for label, _, _ in REGRESSION:
        for n in REGRESSION_ORDERS:
            key = f"{label}/{n}"
            entry = {"problem": label, "n": n, **compare(samples[("solve", key)], per_round[("solve", key)])}
            for side in ("before", "after"):
                entry.update({f"{side}_{k}": v for k, v in details[key][side].items()})
            regression.append(entry)
    solve_errors = [
        {"problem": key.rsplit("/", 1)[0], "n": int(key.rsplit("/", 1)[1]), **sides_err}
        for key, sides_err in errors.items()
    ]
    report = {
        "benchmark": (
            "spectral_core.build_operators (results: before_s/after_s, best sample), "
            "fredholm_solver.dense_solve of the one-panel example2 system at ORDERS (results: dense_solve_*) and of "
            "each REGRESSION system at REGRESSION_ORDERS (regression), each on a fresh copy of the assembled operator "
            "with its coarse rule, and a one-panel composite_solver.assemble_blocks per kernel of ASSEMBLIES "
            "(assembly: operators, kernel sampling or factors, and semismooth_block), wall time per call; "
            "dense_solve_*, "
            "regression and assembly rows give the best sample (*_s), the quartiles of every sample of every round "
            "(*_q1_s, *_median_s, *_q3_s) and the rounds won by the change on per-round medians (rounds_won, ties "
            "counted for neither side; for build_operators, on per-round best samples); *_peak_mb is the "
            "tracemalloc peak of one assembly and *_max_deviation_eps its largest entrywise deviation from "
            "semismooth_block_reference on the whole branch samples, over eps max|A|; regression rows also give each "
            "side's path, refinement steps and relative sup error against the analytic solution"
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
        "regression": regression,
        "solve_errors": solve_errors,
    }
    if sweep:
        report["row_block_sweep"] = {
            "note": (
                "after side, first round's worker only: best time (s) of the one-panel assemble_blocks of each "
                "ROW_BLOCK_KERNELS kernel, kernel sampling or factors included, per "
                "fredholm_solver.ROW_BLOCK_ENTRIES value and order; example2's branches are factor pairs, so it "
                "times the factored fill and example4 the sampled row-block walk, both in row blocks of "
                "ROW_BLOCK_ENTRIES entries"
            ),
            "orders": list(ROW_BLOCK_ORDERS),
            "best_s": {
                label: {
                    str(entries): [sweep[f"{label}/{entries}/{n}"] for n in ROW_BLOCK_ORDERS]
                    for entries in ROW_BLOCK_CANDIDATES
                }
                for label in ROW_BLOCK_KERNELS
            },
        }
    if path_medians:
        workers = len(next(iter(path_medians.values())))
        report["path_sweep"] = {
            "note": (
                f"after side, the first {workers} rounds' workers: dense_solve of the one-panel system of each "
                "PATH_SWEEP problem on a fresh copy of its operator, on the two-grid path, on the float32 LU refined "
                "in float64 and on float64 LU, chosen by fredholm_solver.TWOGRID_CROSSOVER_N and "
                "FLOAT32_CROSSOVER_N; *_s is the median over the workers of each worker's median, *_workers_s each "
                "worker's median; twogrid_answered is the path that answered with the two-grid allowed"
            ),
            "workers": workers,
            "rows": [
                {
                    "problem": label, "n": n, "twogrid_answered": answered[f"{label}/{n}"],
                    **{f"{path}_s": statistics.median(path_medians[f"{label}/{n}/{path}"]) for path in PATHS},
                    **{f"{path}_workers_s": path_medians[f"{label}/{n}/{path}"] for path in PATHS},
                }
                for label, _, _ in PATH_SWEEP for n in PATH_ORDERS
            ],
        }
    if declines:
        report["decline_sweep"] = {
            "note": (
                "after side, the path sweep's workers: each REGRESSION system from TWOGRID_CROSSOVER_N up that the "
                "two-grid does not answer, timed in one process with the two-grid allowed and with it ruled out "
                f"(TWOGRID_CROSSOVER_N infinite), alternately, {DECLINE_ALTERNATIONS} times; ratio = median allowed / "
                "median ruled out, the cost of the decline over the path that then answers, and cost_s = median "
                "allowed - median ruled out; *_workers: each worker's, ratio and cost_s: their median; the "
                "UNIT_RHS_DECLINES systems (right-hand side y = 1) are timed too"
            ),
            "rows": [
                {"problem": key.rsplit("/", 1)[0], "n": int(key.rsplit("/", 1)[1]),
                 "ratio": statistics.median(r for r, _ in values), "ratio_workers": [r for r, _ in values],
                 "cost_s": statistics.median(c for _, c in values), "cost_s_workers": [c for _, c in values]}
                for key, values in declines.items()
            ],
        }
    if tails:
        report["tail_sweep"] = {
            "note": (
                "after side, first round's worker only: coarse_nodes = ceil(N/4); rhs_degree = 1 + the last "
                "Chebyshev coefficient of the right-hand side above fredholm_solver.TWOGRID_TAIL times the largest; "
                "coarse_tail = the largest of the trailing TWOGRID_TAIL_FRACTION of the coarse solution's Chebyshev "
                "coefficients over the largest, on coarse_nodes; open_gate_* = the path and refinement steps with "
                "TWOGRID_TAIL infinite, so that the coarse rule has coarse_nodes nodes and the gate passes; "
                "gated_path = the path with the committed constants"
            ),
            "rows": [{"problem": key.rsplit("/", 1)[0], "n": int(key.rsplit("/", 1)[1]), **v} for key, v in tails.items()],
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
            f"  dev {row['before_max_deviation_eps']:.2f} -> {row['after_max_deviation_eps']:.2f} eps max|A|"
        )
    for row in regression:
        print(
            f"{row['problem']:>15s} n={row['n']:5d}  dense_solve {timing(row, 'before')} -> {timing(row, 'after')}"
            f"  x{row['median_speedup']:.2f} won {row['rounds_won']}"
            f"  {row['before_path']} ({row['before_steps']}) -> {row['after_path']} ({row['after_steps']})"
            f"  error {row['before_error']:.3e} -> {row['after_error']:.3e}"
        )
    for row in solve_errors:
        print(f"{row['problem']:>15s} n={row['n']:5d}  error {row['before']:.6e} -> {row['after']:.6e}")
    if sweep:
        for label, by_entries in report["row_block_sweep"]["best_s"].items():
            for entries, times in by_entries.items():
                cells = "  ".join(f"n={n}: {t * 1e3:7.3f} ms" for n, t in zip(ROW_BLOCK_ORDERS, times))
                print(f"{label:>15s} ROW_BLOCK_ENTRIES={entries:>7s}  {cells}")
    for row in report.get("path_sweep", {}).get("rows", []):
        cells = "  ".join(f"{path} {row[f'{path}_s'] * 1e3:7.3f}" for path in PATHS)
        print(f"{row['problem']:>15s} n={row['n']:5d}  dense_solve ms: {cells}  ({row['twogrid_answered']})")
    for row in report.get("decline_sweep", {}).get("rows", []):
        print(
            f"{row['problem']:>15s} n={row['n']:5d}  declined, time with / without the two-grid x{row['ratio']:.3f},"
            f" {row['cost_s'] * 1e3:+.3f} ms"
        )
    for row in report.get("tail_sweep", {}).get("rows", []):
        tail = row["coarse_tail"]
        print(
            f"{row['problem']:>15s} n={row['n']:5d}  M={row['coarse_nodes']:4d} rhs degree {row['rhs_degree']:5d}"
            f"  coarse tail {tail if isinstance(tail, str) else f'{tail:.2e}'}"
            f"  open gate: {row['open_gate_path']} ({row['open_gate_steps']})  gated: {row['gated_path']}"
        )
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
