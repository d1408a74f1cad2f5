"""Tests of the benchmark's own code.  Run: python3 -m pytest perfbench/tests -q"""

import math
import pathlib
import sys

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1]
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import run  # noqa: E402
import tracer as tracing  # noqa: E402
import workloads  # noqa: E402
import worker  # noqa: E402
from chebfred import cli, composite_solver, spectral_core  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_nested_self_time_subtracts_wrapped_children():
    clock = FakeClock()
    tracer = tracing.Tracer(spans={}, hooks={}, clock=clock)

    def leaf():
        clock.now += 4.0

    def failing():
        clock.now += 0.5
        raise ValueError("boom")

    def inner():
        clock.now += 3.0
        leaf()

    def outer():
        clock.now += 1.0
        inner()
        try:
            failing()
        except ValueError:
            pass
        clock.now += 2.0

    leaf = tracer.wrap("leaf", leaf)
    failing = tracer.wrap("failing", failing)
    inner = tracer.wrap("inner", inner)
    outer = tracer.wrap("outer", outer)
    outer()
    spans = tracer.reset().spans
    assert spans["leaf"].self_s == 4.0
    assert spans["inner"].self_s == 3.0
    assert spans["failing"].self_s == 0.5 and spans["failing"].errors == 1
    assert spans["outer"].self_s == 3.0 and spans["outer"].errors == 0
    assert sum(s.self_s for s in spans.values()) == clock.now
    assert not tracer.stack


def test_shared_span_adds_calls_and_self_time():
    clock = FakeClock()
    tracer = tracing.Tracer(spans={}, hooks={}, clock=clock)

    def block():
        clock.now += 2.0

    def discretize():
        clock.now += 1.0
        block()

    block = tracer.wrap("discretize", block)
    discretize = tracer.wrap("discretize", discretize)
    discretize()
    stats = tracer.reset().spans["discretize"]
    assert (stats.calls, stats.self_s) == (2, 3.0)


def test_traced_composite_solve_counts_operator_builds_and_restores():
    original = spectral_core.build_operators
    spans = dict(tracing.SPANS, gone=[("chebfred.spectral_core", "no_such_function")])
    tracer = tracing.Tracer(spans=spans)
    tracer.install()
    try:
        assert composite_solver.build_operators is not original
        assert composite_solver.build_operators is spectral_core.build_operators
        argv = ["solve", "--problem", "example2", "--T", workloads.T_200PI,
                "--method", "composite", "--panels", "8", "--n", "127"]
        assert cli.main(argv) == 0
    finally:
        tracer.restore()
    assert composite_solver.build_operators is original
    assert spectral_core.build_operators is original
    assert tracer.absent == ["chebfred.spectral_core.no_such_function"]
    counters = tracer.reset()
    # one build in assemble_blocks, one per panel in solve_composite
    assert counters.spans[tracing.BUILD].calls == 9
    assert counters.build_repeats == 8
    assert counters.dense_n_max == 8 * 128
    assert counters.entries[tracing.ASSEMBLE_BLOCKS] == (8 * 128) ** 2


def _example1_csv(errors):
    call = workloads.pass_calls("tables", None)[0]
    lines = ["n,method,problem,error,cond_warning,elapsed_ms"]
    for (method, n), err in zip(((m, n) for m in call.methods for n in call.orders), errors):
        lines.append(f"{n},{method},example1,{err:.6e},false,1.000")
    return call, "\n".join(lines) + "\n"


def test_tolerance_check_accepts_seed_errors_and_rejects_perturbed_answer():
    reference = workloads.load_reference()
    call = workloads.pass_calls("tables", None)[0]
    seed_errors = [reference[k] for k in call.keys()]
    _, csv_text = _example1_csv(seed_errors)
    assert all(ok for *_, ok in workloads.check_call(call, 0, csv_text, reference))

    perturbed = list(seed_errors)
    perturbed[3] *= 10.0  # a spectrally converged schur row loses a digit
    perturbed[5] *= 1.001  # a truncation-dominated alg1 row moves past rounding
    _, csv_text = _example1_csv(perturbed)
    failed = [key for key, _e, _t, ok in workloads.check_call(call, 0, csv_text, reference) if not ok]
    assert failed == [call.keys()[3], call.keys()[5]]


def test_nonzero_exit_and_missing_rows_fail_every_configuration():
    reference = workloads.load_reference()
    call, csv_text = _example1_csv([reference[k] for k in workloads.pass_calls("tables", None)[0].keys()])
    assert not any(ok for *_, ok in workloads.check_call(call, 4, csv_text, reference))
    assert not any(ok for *_, ok in workloads.check_call(call, 0, "garbage\n1,2\n", reference))


class ExitingCli:
    @staticmethod
    def main(argv):
        return 4


def test_loop_counts_a_failing_cli_call_as_failed_solves():
    loop = worker.Loop(ExitingCli, "tables", None, workloads.load_reference())
    loop.run_pass()
    expected = sum(len(c.keys()) for c in workloads.pass_calls("tables", None))
    assert loop.attempted == loop.failed == expected


def test_offsets_are_seeded_and_never_repeat():
    first = workloads.draw_offsets("single_panel_large", 7)
    assert first == workloads.draw_offsets("single_panel_large", 7)
    assert first != workloads.draw_offsets("single_panel_large", 8)
    orders = [c.orders[0] for k in first for c in workloads.pass_calls("single_panel_large", k)]
    assert len(set(orders)) == len(orders)
    assert workloads.draw_offsets("tables", 7) is None


@pytest.mark.parametrize("times, value, pct", [([3.0, 1.0, 2.0], 3.0, 100.0),
                                              (list(range(20)), 9, 50.0)])
def test_tail_leaves_ten_passes_beyond(times, value, pct):
    assert run.tail(times) == (value, pct)


def test_tolerance_regimes():
    assert workloads.tolerance(1e-15) == pytest.approx(4e-15)
    assert workloads.tolerance(1e-2) < 1.0001e-2
    assert math.isclose(workloads.tolerance(1e-2), 1e-2, rel_tol=2e-5)
