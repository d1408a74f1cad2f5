"""Per-layer tracing of chebfred from outside the package.

The tracer wraps the public functions of each ``chebfred`` module in a span
that records calls, self time (duration minus the time covered by wrapped
children) and exceptions.  Several functions may share one span name; their
calls and self times add up.  ``from .x import y`` copies names, so
``install`` rebinds every attribute of every loaded ``chebfred.*`` module that
refers to an original function, and ``restore`` puts the originals back.  A
function that no longer exists is skipped and reported as absent; the
metrics of a span none of whose functions exist read 0.

Counters recorded at the same boundaries:

* ``build_operators`` orders, to count calls for an order already built while
  the tracer was installed in this process;
* kernel and potential sample points, also credited to every span that
  encloses the sampling call;
* dense system sizes N, for the computed (2/3) N^3 LU flop count;
* matrix entries assembled by ``assemble_blocks`` and Schrodinger ``assemble``.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from dataclasses import dataclass, field

# span name -> (module, attribute path) of every function the span covers
SPANS = {
    "cli.main": [("chebfred.cli", "main")],
    "spectral_core.build_operators": [("chebfred.spectral_core", "build_operators")],
    "kernel_catalog.eval": [
        ("chebfred.kernel_catalog", "SemismoothKernel.eval"),
        ("chebfred.kernel_catalog", "SemismoothKernel.eval_lower"),
        ("chebfred.kernel_catalog", "SemismoothKernel.eval_upper"),
        ("chebfred.kernel_catalog", "NonlocalPotential.eval_lower"),
        ("chebfred.kernel_catalog", "NonlocalPotential.eval_upper"),
    ],
    "fredholm_solver.discretize": [
        ("chebfred.fredholm_solver", "semismooth_block"),
        ("chebfred.fredholm_solver", "discretize_smooth"),
        ("chebfred.fredholm_solver", "discretize_semismooth"),
    ],
    "fredholm_solver.dense_solve": [("chebfred.fredholm_solver", "dense_solve")],
    "fredholm_solver.reconstruct": [
        ("chebfred.fredholm_solver", "solve_system"),
        ("chebfred.fredholm_solver", "ChebSolution.evaluate"),
    ],
    "fredholm_solver.solve_fredholm": [("chebfred.fredholm_solver", "solve_fredholm")],
    "composite_solver.assemble_blocks": [("chebfred.composite_solver", "assemble_blocks")],
    "composite_solver.solve_composite": [("chebfred.composite_solver", "solve_composite")],
    "composite_solver.solve_partitioned": [("chebfred.composite_solver", "solve_partitioned")],
    "schrodinger.assemble": [
        ("chebfred.schrodinger", "assemble"),
        ("chebfred.schrodinger", "build_kernel_matrices"),
    ],
    "schrodinger.solve_schrodinger": [("chebfred.schrodinger", "solve_schrodinger")],
    "schrodinger.self_convergence": [("chebfred.schrodinger", "self_convergence")],
    "baselines.gauss_legendre_rule": [("chebfred.baselines", "gauss_legendre_rule")],
    "baselines.nystrom_solve": [("chebfred.baselines", "nystrom_solve")],
    "baselines.trapezium_deferred_solve": [("chebfred.baselines", "trapezium_deferred_solve")],
}

BUILD = "spectral_core.build_operators"
EVAL = "kernel_catalog.eval"
DENSE = "fredholm_solver.dense_solve"
ASSEMBLE_BLOCKS = "composite_solver.assemble_blocks"
SCHRODINGER_ASSEMBLE = "schrodinger.assemble"


@dataclass
class SpanStats:
    calls: int = 0
    self_s: float = 0.0
    errors: int = 0


@dataclass
class PassCounters:
    """What one traced pass recorded; reset between passes."""

    spans: dict = field(default_factory=dict)  # span name -> SpanStats
    build_calls: int = 0
    build_repeats: int = 0
    points: dict = field(default_factory=dict)  # span name -> sample points within it
    entries: dict = field(default_factory=dict)  # span name -> matrix entries assembled
    dense_n_max: int = 0
    dense_flops: float = 0.0


def _record_build(tracer, args, kwargs, result):
    n = args[0] if args else kwargs["n"]
    c = tracer.counters
    c.build_calls += 1
    if n in tracer.orders_built:
        c.build_repeats += 1
    tracer.orders_built.add(n)


def _record_points(tracer, args, kwargs, result):
    size = getattr(result, "size", 1)
    for name in {frame[0] for frame in tracer.stack} | {EVAL}:
        tracer.counters.points[name] = tracer.counters.points.get(name, 0) + size


def _record_dense(tracer, args, kwargs, result):
    matrix = args[0] if args else kwargs["matrix"]
    n = len(matrix)
    c = tracer.counters
    c.dense_n_max = max(c.dense_n_max, n)
    c.dense_flops += 2.0 / 3.0 * n**3


def _entries(span, count):
    def record(tracer, args, kwargs, result):
        entries = tracer.counters.entries
        entries[span] = entries.get(span, 0) + count(result)

    return record


# (module, attribute path) -> counter hook run after a successful call
HOOKS = {
    ("chebfred.spectral_core", "build_operators"): _record_build,
    ("chebfred.fredholm_solver", "dense_solve"): _record_dense,
    ("chebfred.composite_solver", "assemble_blocks"): _entries(
        ASSEMBLE_BLOCKS, lambda system: len(system.matrix) ** 2
    ),
    ("chebfred.schrodinger", "assemble"): _entries(
        SCHRODINGER_ASSEMBLE, lambda system: (system.grid.order + 1) ** 2
    ),
}
for _target in SPANS[EVAL]:
    HOOKS[_target] = _record_points


def _resolve(module_name: str, path: str):
    """(owner, attribute, function) for a dotted attribute path, or None."""
    module = sys.modules.get(module_name)
    if module is None:
        return None
    owner = module
    *parents, attr = path.split(".")
    for name in parents:
        owner = getattr(owner, name, None)
        if owner is None:
            return None
    fn = vars(owner).get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
    return None if fn is None or not callable(fn) else (owner, attr, fn)


class Tracer:
    """Installable set of span wrappers around chebfred's public functions.

    ``clock`` is the time source; tests pass a fake one.
    """

    def __init__(self, spans=None, hooks=None, clock=time.perf_counter):
        self.spans = SPANS if spans is None else spans
        self.hooks = HOOKS if hooks is None else hooks
        self.clock = clock
        self.counters = PassCounters()
        self.orders_built = set()
        self.stack = []  # [span name, start, time covered by wrapped children]
        self.absent = []
        self._bindings = []  # (owner, attribute, original)

    def reset(self) -> PassCounters:
        """Return what was recorded since the last reset and start afresh."""
        done, self.counters = self.counters, PassCounters()
        return done

    def wrap(self, span: str, fn, hook=None):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            frame = [span, tracer.clock(), 0.0]
            tracer.stack.append(frame)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                tracer.stack.pop()
                duration = tracer.clock() - frame[1]
                stats = tracer.counters.spans.setdefault(span, SpanStats())
                stats.calls += 1
                stats.self_s += duration - frame[2]
                stats.errors += failed
                if tracer.stack:
                    tracer.stack[-1][2] += duration
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        return wrapper

    def install(self) -> None:
        if self._bindings:
            raise RuntimeError("tracer is already installed")
        replacements = {}  # id(original) -> wrapper
        self.absent = []
        for span, targets in self.spans.items():
            for module_name, path in targets:
                resolved = _resolve(module_name, path)
                if resolved is None:
                    self.absent.append(f"{module_name}.{path}")
                    continue
                owner, attr, fn = resolved
                wrapper = self.wrap(span, fn, self.hooks.get((module_name, path)))
                replacements[id(fn)] = wrapper
                if isinstance(owner, type):
                    self._bind(owner, attr, wrapper)
        for name, module in list(sys.modules.items()):
            if module is None or not (name == "chebfred" or name.startswith("chebfred.")):
                continue
            for attr, value in list(vars(module).items()):
                if id(value) in replacements:
                    self._bind(module, attr, replacements[id(value)])

    def _bind(self, owner, attr, wrapper) -> None:
        self._bindings.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        for owner, attr, original in reversed(self._bindings):
            setattr(owner, attr, original)
        self._bindings = []


def _ratio(num, den):
    return num / den if den else 0.0


def layer_metrics(passes, overhead_frac: float) -> dict:
    """Per-layer metrics over traced passes: name -> (value, unit).

    Calls and sample points are means per pass, self times medians per pass,
    errors totals.  A layer that did not run, or whose span is absent, reads 0.
    """
    out = {}
    for span in SPANS:
        stats = [p.spans.get(span, SpanStats()) for p in passes]
        out[f"{span}.calls"] = (_ratio(sum(s.calls for s in stats), len(passes)), "count")
        out[f"{span}.self_s"] = (statistics.median([s.self_s for s in stats]) if stats else 0.0, "s")
        out[f"{span}.errors"] = (sum(s.errors for s in stats), "count")

    def total(get):
        return sum(get(p) for p in passes)

    out[f"{BUILD}.repeat_frac"] = (
        _ratio(total(lambda p: p.build_repeats), total(lambda p: p.build_calls)),
        "ratio",
    )
    points = total(lambda p: p.points.get(EVAL, 0))
    eval_self = total(lambda p: p.spans.get(EVAL, SpanStats()).self_s)
    out[f"{EVAL}.points"] = (_ratio(points, len(passes)), "count")
    out[f"{EVAL}.ns_per_point"] = (_ratio(eval_self, points) * 1e9, "ns")
    dense_self = total(lambda p: p.spans.get(DENSE, SpanStats()).self_s)
    out[f"{DENSE}.n_max"] = (max((p.dense_n_max for p in passes), default=0), "count")
    out[f"{DENSE}.gflops"] = (
        _ratio(total(lambda p: p.dense_flops), dense_self) / 1e9,
        "GFLOP/s",
    )
    for prefix, span in (("composite_solver", ASSEMBLE_BLOCKS), ("schrodinger", SCHRODINGER_ASSEMBLE)):
        out[f"{prefix}.samples_per_entry"] = (
            _ratio(total(lambda p: p.points.get(span, 0)), total(lambda p: p.entries.get(span, 0))),
            "ratio",
        )
    out["trace.overhead_frac"] = (overhead_frac, "ratio")
    return out
