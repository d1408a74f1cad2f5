#!/usr/bin/env python3
"""Time the composite assembly plus solve against a baseline commit and write BENCH_composite_solve.json.

Usage, from the root of a checkout:

    python3 scripts/bench_composite_solve.py --baseline <commit>

The baseline's ``src/`` is taken with ``git archive``; the working tree's
``src/`` is the change.  Each side runs in fresh single-threaded worker
processes, the sides alternating round by round, and times
``solve_partitioned`` (partition, block assembly and solve, as the CLI's
``--panels``/``--n`` build them) on the five systems of the ``many_panel``
workload plus one long-interval system (T = 2000 pi, 128 panels, N = 8192).
The reported time per system is the best over every call of every round;
each side also reports its relative sup error against the analytic solution.

The resolved long interval (T = 2000 pi, 256 panels of order 63,
N = 16,384) runs once per side per round, each time in a fresh process, so
that the process's peak resident set size is that solve's alone.

The change's first worker also records, for every many_panel system, the
ranks of the hierarchical tree, its distinct nodes and compressions, the
number of refinement steps, the deviation from plain LU and both condition
estimates; a dense-versus-hierarchical table over N from which the crossover
N is read; and sweeps of the leaf size and the sketch tolerance on the
many_panel systems.
"""

import argparse
import json
import math
import time

import _ab


T_200PI = 200.0 * math.pi
T_2000PI = 2000.0 * math.pi
# (label, problem, panels, order, T) as the CLI's --panels/--n/--T build them
MANY_PANEL = (
    ("example2-T200pi-8p", "example2", 8, 127, T_200PI),
    ("example2-T200pi-16p", "example2", 16, 63, T_200PI),
    ("example2-T200pi-32p", "example2", 32, 63, T_200PI),
    ("example2-T200pi-64p", "example2", 64, 31, T_200PI),
    ("example4-16p", "example4", 16, 63, None),
)
# the long-interval case: 128 panels of order 63, N = 8192; at 64 panels of
# order 63 the T = 2000 pi solution is not resolved
LONG_INTERVAL = (("example2-T2000pi-128p", "example2", 128, 63, T_2000PI),)
# resolved at 256 panels (N = 16,384), where the dense matrix alone is 2.1 GB:
# one call per fresh process, for its peak RSS
RESOLVED = ("example2-T2000pi-256p", "example2", 256, 63, T_2000PI)
# dense versus hierarchical below and above the crossover: (problem, T, panels,
# order), with order-63 panels and with the two panels of the CLI's default
# example4 partition (split at the singular point) or of example2 halved
CROSSOVER_CASES = tuple(
    [(name, T, panels, 63) for name, T in (("example2", T_200PI), ("example4", None))
     for panels in (4, 8, 12, 16, 24, 32)]
    + [(name, T, 2, order) for name, T in (("example2", T_200PI), ("example4", None))
       for order in (127, 255, 383, 511)]
)
LEAF_SIZES = (128, 256, 512)
SKETCH_TOLS = (1e-10, 1e-12, 1e-14)
ROUNDS = 3
REPEATS = 3
OUT = _ab.ROOT / "BENCH_composite_solve.json"


def problem_and_partition(problem_name, panels, order, T):
    import numpy as np

    from chebfred.composite_solver import build_partition
    from chebfred.kernel_catalog import catalog_lookup

    problem = catalog_lookup(problem_name, **({} if T is None else {"T": T}))
    edges = np.linspace(problem.a, problem.b, panels + 1)
    partition = build_partition(
        problem.a, problem.b, breakpoints=tuple(edges[1:-1]), orders=order,
        singular_points=problem.kernel.singular_points,
    )
    return problem, partition


def build(problem_name, panels, order, T):
    from chebfred.composite_solver import assemble_blocks

    problem, partition = problem_and_partition(problem_name, panels, order, T)
    return problem, assemble_blocks(problem.kernel, partition, problem.lam, problem.rhs)


def solve_call(problem_name, panels, order, T):
    """(problem, zero-argument call of solve_partitioned) as the CLI makes it."""
    from chebfred.composite_solver import solve_partitioned

    problem, partition = problem_and_partition(problem_name, panels, order, T)
    breakpoints = tuple(partition.breakpoints[1:-1])
    return problem, lambda: solve_partitioned(
        problem.kernel, problem.a, problem.b, problem.lam, problem.rhs,
        breakpoints=breakpoints, orders=order,
    )


def best_time(fn, repeats=REPEATS):
    best, result = math.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def details(system):
    """Ranks per tree level, sharing, refinement steps and the comparison with plain LU."""
    import numpy as np

    from chebfred import hierarchical
    from chebfred.fredholm_solver import dense_solve

    op, rhs = system.matrix, system.rhs
    compressions = []
    compress = hierarchical._compress

    def counted(*args):
        compressions.append(1)
        return compress(*args)

    hierarchical._compress = counted
    try:
        root = hierarchical._build(op, 0, op.panels, hierarchical.SKETCH_TOL * op.norm1(),
                                   np.random.default_rng(hierarchical.SEED), {})
    finally:
        hierarchical._compress = compress
    ranks, distinct = [], {}
    level = [root]
    while level:
        distinct.update((id(node), node) for node in level)
        nodes = [node for node in level if isinstance(node, hierarchical._Node)]
        if nodes:
            ranks.append(sorted({r for node in nodes for r in (node.u1.shape[1], node.u2.shape[1])}))
        level = [child for node in nodes for child in (node.left, node.right)]
    steps = None
    if isinstance(root, hierarchical._Node):
        root.factor()
        solves = []

        def counted_solve(b):
            solves.append(1)
            return root.solve(b[:, None])[:, 0]

        hierarchical._refine(op, rhs, counted_solve, op.norm_inf())
        steps = len(solves) - 1
    x_dense, rcond_dense, _ = dense_solve(op.dense(), rhs)
    x, rcond, _ = dense_solve(op, rhs)
    return {
        "ranks_by_level": ranks,
        "leaf_sizes": sorted({node.size for node in distinct.values()
                              if isinstance(node, hierarchical._Leaf)}),
        "distinct_tree_nodes": len(distinct),
        "compressions": len(compressions),
        "refinement_steps": steps,
        "deviation_from_lu": float(np.max(np.abs(x - x_dense)) / np.max(np.abs(x_dense))),
        "rcond": rcond,
        "rcond_gecon": rcond_dense,
    }


def measure(with_details):
    """Worker: best assembly-plus-solve time and error per system; optionally the details."""
    from chebfred.fredholm_solver import relative_sup_error

    out = {"systems": {}}
    for label, name, panels, order, T in MANY_PANEL + LONG_INTERVAL:
        problem, call = solve_call(name, panels, order, T)
        repeats = 1 if panels * (order + 1) > 2048 else REPEATS
        seconds, sol = best_time(call, repeats)
        entry = {
            "N": len(sol.node_values),
            "best_s": seconds,
            "error": relative_sup_error(sol.node_values, problem.solution(sol.nodes)),
        }
        if with_details and (label, name, panels, order, T) in MANY_PANEL:
            entry.update(details(build(name, panels, order, T)[1]))
        out["systems"][label] = entry
    if with_details:
        out["crossover"] = crossover_table()
        out["sweeps"] = sweeps()
    out["machine"] = _ab.machine()
    return out


def measure_resolved():
    """Worker: one assembly-plus-solve of the resolved long interval, and the peak RSS."""
    import resource

    from chebfred.fredholm_solver import relative_sup_error

    label, name, panels, order, T = RESOLVED
    problem, call = solve_call(name, panels, order, T)
    start = time.perf_counter()
    sol = call()
    seconds = time.perf_counter() - start
    return {
        "N": len(sol.node_values),
        "seconds": seconds,
        "error": relative_sup_error(sol.node_values, problem.solution(sol.nodes)),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def crossover_table():
    from chebfred import hierarchical
    from chebfred.fredholm_solver import dense_solve

    rows = []
    crossover = hierarchical.CROSSOVER_N
    hierarchical.CROSSOVER_N = 0
    try:
        for name, T, panels, order in CROSSOVER_CASES:
            _, system = build(name, panels, order, T)
            op, rhs = system.matrix, system.rhs
            dense_s, _ = best_time(lambda: dense_solve(op.dense(), rhs), 5)
            hier_s, solved = best_time(lambda: hierarchical.hierarchical_solve(op, rhs), 5)
            rows.append({"problem": name, "panels": panels, "order": order, "N": len(op),
                         "dense_s": dense_s, "hierarchical_s": hier_s, "fell_back": solved is None})
    finally:
        hierarchical.CROSSOVER_N = crossover
    return rows


def sweeps():
    """Hierarchical time per many_panel system at other leaf sizes and tolerances."""
    from chebfred import hierarchical

    saved = hierarchical.LEAF_SIZE, hierarchical.SKETCH_TOL
    systems = [(label, build(name, p, n, T)[1]) for label, name, p, n, T in MANY_PANEL]
    out = {"leaf_size": [], "sketch_tol": []}
    try:
        for key, values in (("leaf_size", LEAF_SIZES), ("sketch_tol", SKETCH_TOLS)):
            for value in values:
                hierarchical.LEAF_SIZE, hierarchical.SKETCH_TOL = saved
                setattr(hierarchical, key.upper(), value)
                row = {key: value}
                for label, system in systems:
                    seconds, solved = best_time(lambda: hierarchical.hierarchical_solve(
                        system.matrix, system.rhs), 5)
                    row[label] = None if solved is None else seconds
                out[key].append(row)
    finally:
        hierarchical.LEAF_SIZE, hierarchical.SKETCH_TOL = saved
    return out


def measured_crossover(rows):
    """Smallest N from which the hierarchical path wins on every measured system."""
    sizes = sorted({row["N"] for row in rows})
    for n in sizes:
        if all(r["hierarchical_s"] < r["dense_s"] and not r["fell_back"] for r in rows if r["N"] >= n):
            return n
    return None


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="git commit whose src/ is the 'before' side")
    parser.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--details", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--resolved", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        print(json.dumps(measure_resolved() if args.resolved else measure(args.details)))
        return 0
    if not args.baseline:
        parser.error("--baseline is required")
    commit = _ab.short_commit(args.baseline)
    best = {"before": {}, "after": {}}
    resolved = {"before": [], "after": []}
    extras = None
    for r, side, src in _ab.alternating_rounds(commit, ROUNDS):
        result = _ab.run_worker(__file__, src, *(["--details"] if r == 0 and side == "after" else []))
        if "crossover" in result:
            extras = result
        for label, v in result["systems"].items():
            entry = best[side].setdefault(label, dict(v))
            entry["best_s"] = min(entry["best_s"], v["best_s"])
        resolved[side].append(_ab.run_worker(__file__, src, "--resolved"))
    rows = []
    for label in best["after"]:
        before, after = best["before"][label], best["after"][label]
        row = {"system": label, "N": after["N"], "before_s": before["best_s"], "after_s": after["best_s"],
               "speedup": before["best_s"] / after["best_s"],
               "before_error": before["error"], "after_error": after["error"]}
        row.update({k: after[k] for k in ("ranks_by_level", "leaf_sizes", "distinct_tree_nodes",
                                          "compressions", "refinement_steps",
                                          "deviation_from_lu", "rcond", "rcond_gecon") if k in after})
        rows.append(row)
    resolved_rows = {
        side: {
            "N": runs[0]["N"],
            "best_s": min(run["seconds"] for run in runs),
            "error": runs[0]["error"],
            "peak_rss_mb": max(run["peak_rss_mb"] for run in runs),
            "runs": runs,
        }
        for side, runs in resolved.items()
    }
    report = {
        "benchmark": "composite_solver.solve_partitioned (assembly plus solve), best-of-k wall time per call",
        "command": f"python3 scripts/bench_composite_solve.py --baseline {commit}",
        "before": f"src/ at {commit}",
        "after": "src/ of the checkout this file is committed in",
        "method": (
            f"{ROUNDS} rounds of fresh worker processes, sides alternating; best of {REPEATS} calls "
            "per system per round (1 call for N = 8192); errors are relative sup errors against the "
            "analytic solution; deviation_from_lu is |x - x_LU|_inf / |x_LU|_inf in the change's worker; "
            "the resolved long interval runs once per side per round in its own process, whose "
            "ru_maxrss is its peak_rss_mb (the largest over the rounds is reported)"
        ),
        "machine": extras["machine"],
        "results": rows,
        "resolved_long_interval": {"system": RESOLVED[0], **resolved_rows},
        "crossover": {
            "measured_N": measured_crossover(extras["crossover"]),
            "rule": "smallest N from which the hierarchical path wins on every row; best of 5 per cell",
            "rows": extras["crossover"],
        },
        "sweeps": extras["sweeps"],
    }
    OUT.write_text(json.dumps(report, indent=2) + "\n")
    for row in rows:
        print(
            f"{row['system']:24s} N={row['N']:5d} before {row['before_s'] * 1e3:8.1f} ms  after "
            f"{row['after_s'] * 1e3:7.1f} ms  x{row['speedup']:5.2f}  err {row['before_error']:.6e} / "
            f"{row['after_error']:.6e}  ranks {row.get('ranks_by_level')}  steps {row.get('refinement_steps')}"
        )
    for side, row in resolved_rows.items():
        print(f"{RESOLVED[0]} {side:6s} N={row['N']} {row['best_s']:.2f} s  err {row['error']:.6e}  "
              f"peak RSS {row['peak_rss_mb']:.0f} MB")
    print("measured crossover N:", report["crossover"]["measured_N"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
