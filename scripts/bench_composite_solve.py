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
that the process's peak resident set size is that solve's alone.  So does
the largest system, T = 20000 pi on 2560 panels of order 63 (N = 163,840):
the report keeps its assembly time, its best product time, the megabytes
of arrays its operator stores, the time of ``refined_solve`` (the
hierarchical path and its refinement, without the float64 LU fallback,
whose N x N array would take 200 GiB) with the error of its answer, None
when it declines, and the process's peak RSS.

The first worker of each side also records the details of every many_panel
system.  The report keeps both sides' rank of each compression and number
of refinement steps, and the change's ranks of the hierarchical tree by
level, distinct nodes and compressions, deviation from plain LU and both
condition estimates.  The change's first worker adds a dense-versus-
hierarchical table over N from which the crossover N is read, and sweeps of
the leaf size and the compression tolerance on the many_panel systems.
"""

import argparse
import json
import math
import time

import _ab
from _ab import patched


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
# solved by the refined path alone: the dense fallback cannot be allocated
LARGEST = ("example2-T20000pi-2560p", "example2", 2560, 63, 20000.0 * math.pi)
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


def float64_lu(op, rhs):
    """``dense_solve`` of ``op`` as one dense panel, kept on float64 LU."""
    from chebfred import fredholm_solver

    with patched(fredholm_solver, FLOAT32_CROSSOVER_N=math.inf):
        return fredholm_solver.dense_solve(op.dense(), rhs)


def best_time(fn, repeats=REPEATS):
    best, result = math.inf, None
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        best = min(best, time.perf_counter() - start)
    return best, result


def details(system):
    """Ranks, sharing, refinement steps and the comparison with float64 LU.

    One ``refined_solve`` is watched through wrappers that take whatever
    arguments the solver passes, so the baseline's tree reads as the
    change's: ``_compress`` records the rank of each compression (None where
    it gave up), ``_build`` keeps the tree it returns last, the root, and
    the builder's ``solve`` counts its calls.  The refinement steps are
    those calls less the first; they are None when the hierarchical path
    does not answer.
    """
    import numpy as np

    from chebfred import hierarchical
    from chebfred.fredholm_solver import dense_solve, refined_solve

    op, rhs = system.matrix, system.rhs
    compression_ranks, roots, solves = [], [], []
    compress, build_tree, build = hierarchical._compress, hierarchical._build, hierarchical.hierarchical_solve

    def counted(*args):
        factors = compress(*args)
        compression_ranks.append(None if factors is None else factors[0].shape[1])
        return factors

    def recorded(*args):
        roots.append(build_tree(*args))
        return roots[-1]

    def counted_build(op, anorm):
        built = build(op, anorm)
        if built is None:
            return None
        solve, rcond = built

        def counted_solve(b):
            solves.append(1)
            return solve(b)

        return counted_solve, rcond

    with patched(hierarchical, _compress=counted, _build=recorded, hierarchical_solve=counted_build):
        refined = refined_solve(op, rhs, op.norm1())
    steps = None if refined is None else len(solves) - 1
    ranks, distinct = [], {}
    level = roots[-1:]
    while level:
        distinct.update((id(node), node) for node in level)
        nodes = [node for node in level if isinstance(node, hierarchical._Node)]
        if nodes:
            ranks.append(sorted({r for node in nodes for r in (node.u1.shape[1], node.u2.shape[1])}))
        level = [child for node in nodes for child in (node.left, node.right)]
    x_dense, rcond_dense, _ = float64_lu(op, rhs)
    x, rcond, _ = dense_solve(op, rhs)
    return {
        "ranks_by_level": ranks,
        "compression_ranks": compression_ranks,
        "leaf_sizes": sorted({node.size for node in distinct.values()
                              if isinstance(node, hierarchical._Leaf)}),
        "distinct_tree_nodes": len(distinct),
        "compressions": len(compression_ranks),
        "refinement_steps": steps,
        "deviation_from_lu": float(np.max(np.abs(x - x_dense)) / np.max(np.abs(x_dense))),
        "rcond": rcond,
        "rcond_gecon": rcond_dense,
    }


def measure(with_details, with_tables):
    """Worker: best assembly-plus-solve time and error per system; optionally
    the details, and the crossover table and sweeps."""
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
    if with_tables:
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


def stored_mb(op):
    """Megabytes of the arrays an operator holds, each memory block counted once."""
    import numpy as np

    def arrays(value):
        if isinstance(value, np.ndarray):
            while value.base is not None:
                value = value.base
            yield value
        elif isinstance(value, (tuple, list)):
            for item in value:
                yield from arrays(item)

    owners = {id(a): a.nbytes for a in arrays(list(vars(op).values()))}
    return sum(owners.values()) / 1e6


def measure_largest():
    """Worker: one assembly and the best product of the largest system, what
    its operator stores, one ``refined_solve`` and the peak RSS."""
    import resource

    import numpy as np

    from chebfred.composite_solver import assemble_blocks
    from chebfred.fredholm_solver import refined_solve, relative_sup_error

    label, name, panels, order, T = LARGEST
    problem, partition = problem_and_partition(name, panels, order, T)
    start = time.perf_counter()
    system = assemble_blocks(problem.kernel, partition, problem.lam, problem.rhs)
    assembly_s = time.perf_counter() - start
    stored = stored_mb(system.matrix)
    product_s, _ = best_time(lambda: system.matrix.matmul(system.rhs))
    start = time.perf_counter()
    solved = refined_solve(system.matrix, system.rhs, system.matrix.norm1())
    refined_s = time.perf_counter() - start
    exact = problem.solution(np.concatenate([g.nodes for g in partition.grids]))
    return {
        "N": len(system.matrix),
        "storage": type(system.matrix).__name__,
        "assembly_s": assembly_s,
        "product_s": product_s,
        "stored_mb": stored,
        "refined_s": refined_s,
        "refined_error": None if solved is None else relative_sup_error(solved[0], exact),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def crossover_table():
    """Float64 LU against the refined hierarchical path, with the crossover moved below every case."""
    from chebfred import hierarchical
    from chebfred.fredholm_solver import refined_solve

    rows = []
    with patched(hierarchical, CROSSOVER_N=0):
        for name, T, panels, order in CROSSOVER_CASES:
            _, system = build(name, panels, order, T)
            op, rhs = system.matrix, system.rhs
            dense_s, _ = best_time(lambda: float64_lu(op, rhs), 5)
            hier_s, solved = best_time(lambda: refined_solve(op, rhs, op.norm1()), 5)
            rows.append({"problem": name, "panels": panels, "order": order, "N": len(op),
                         "dense_s": dense_s, "hierarchical_s": hier_s, "fell_back": solved is None})
    return rows


def sweeps():
    """Hierarchical time per many_panel system at other leaf sizes and tolerances."""
    from chebfred import hierarchical
    from chebfred.fredholm_solver import refined_solve

    systems = [(label, build(name, p, n, T)[1]) for label, name, p, n, T in MANY_PANEL]
    out = {"leaf_size": [], "sketch_tol": []}
    for key, values in (("leaf_size", LEAF_SIZES), ("sketch_tol", SKETCH_TOLS)):
        for value in values:
            row = {key: value}
            with patched(hierarchical, **{key.upper(): value}):
                for label, system in systems:
                    op = system.matrix
                    seconds, solved = best_time(lambda: refined_solve(op, system.rhs, op.norm1()), 5)
                    row[label] = None if solved is None else seconds
            out[key].append(row)
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
    parser.add_argument("--tables", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--resolved", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--largest", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.worker:
        if args.largest:
            print(json.dumps(measure_largest()))
        else:
            print(json.dumps(measure_resolved() if args.resolved else measure(args.details, args.tables)))
        return 0
    if not args.baseline:
        parser.error("--baseline is required")
    commit = _ab.short_commit(args.baseline)
    best = {"before": {}, "after": {}}
    resolved = {"before": [], "after": []}
    largest = {"before": [], "after": []}
    extras = None
    for r, side, src in _ab.alternating_rounds(commit, ROUNDS):
        flags = ["--details"] + (["--tables"] if side == "after" else []) if r == 0 else []
        result = _ab.run_worker(__file__, src, *flags)
        if "crossover" in result:
            extras = result
        for label, v in result["systems"].items():
            entry = best[side].setdefault(label, dict(v))
            entry["best_s"] = min(entry["best_s"], v["best_s"])
        resolved[side].append(_ab.run_worker(__file__, src, "--resolved"))
        largest[side].append(_ab.run_worker(__file__, src, "--largest"))
    rows = []
    for label in best["after"]:
        before, after = best["before"][label], best["after"][label]
        row = {"system": label, "N": after["N"], "before_s": before["best_s"], "after_s": after["best_s"],
               "speedup": before["best_s"] / after["best_s"],
               "before_error": before["error"], "after_error": after["error"]}
        row.update({k: after[k] for k in ("ranks_by_level", "leaf_sizes", "distinct_tree_nodes",
                                          "compressions", "deviation_from_lu", "rcond", "rcond_gecon")
                    if k in after})
        row.update({f"{side}_{k}": entry[k] for k in ("compression_ranks", "refinement_steps")
                    for side, entry in (("before", before), ("after", after)) if k in entry})
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
        "largest": {
            "system": LARGEST[0],
            **{side: {"N": runs[0]["N"], "storage": runs[0]["storage"],
                      "best_assembly_s": min(run["assembly_s"] for run in runs),
                      "best_product_s": min(run["product_s"] for run in runs),
                      "stored_mb": runs[0]["stored_mb"],
                      "best_refined_s": min(run["refined_s"] for run in runs),
                      "refined_error": runs[0]["refined_error"],
                      "peak_rss_mb": max(run["peak_rss_mb"] for run in runs), "runs": runs}
               for side, runs in largest.items()},
        },
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
            f"{row['after_error']:.6e}  ranks {row.get('ranks_by_level')}  "
            f"steps {row.get('before_refinement_steps')} / {row.get('after_refinement_steps')}"
        )
    for side, row in resolved_rows.items():
        print(f"{RESOLVED[0]} {side:6s} N={row['N']} {row['best_s']:.2f} s  err {row['error']:.6e}  "
              f"peak RSS {row['peak_rss_mb']:.0f} MB")
    for side in ("before", "after"):
        row = report["largest"][side]
        print(f"{LARGEST[0]} {side:6s} N={row['N']} {row['storage']}: "
              f"assembly {row['best_assembly_s']:.2f} s  product {row['best_product_s'] * 1e3:.1f} ms  "
              f"stored {row['stored_mb']:.0f} MB  refined_solve {row['best_refined_s']:.2f} s, "
              f"error {row['refined_error']}  peak RSS {row['peak_rss_mb']:.0f} MB")
    print("measured crossover N:", report["crossover"]["measured_N"])
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
