"""Workload definitions, seed-drawn inputs and the per-configuration accuracy check.

A *pass* is one run through a workload's fixed list of CLI calls.  Each call
is an argv list for ``chebfred.cli.main``; the rows it must print are the
product of its methods and orders.  A *configuration* is one such row, keyed
``<label>/<method>/<n>``; on ``single_panel_large`` the order moves from pass
to pass, so its configurations are keyed ``<label>/<method>/*`` and one
tolerance covers every order the seed can draw.

This module imports nothing outside the standard library, so the worker can
load it before its set-up clock starts.
"""

from __future__ import annotations

import json
import math
import pathlib
import random
from dataclasses import dataclass

WORKLOADS = ("tables", "single_panel_large", "many_panel", "schrodinger")

# single_panel_large subtracts an offset k in [0, OFFSETS) from every order of a
# pass.  The offsets of one run (every warm-up pass and every timed pass, in
# every worker) are drawn from this pool without replacement, so no order
# repeats within a run; a narrow pool keeps the drawn mix from moving the
# median pass time between seeds.
OFFSETS = 64
LARGE_ORDERS = (511, 767, 1023)

# Errors below this are rounding noise rather than truncation error.
ROUNDING_REGIME = 1e-10

REFERENCE_FILE = pathlib.Path(__file__).with_name("reference_errors.json")

T_50PI = repr(50.0 * math.pi)
T_200PI = repr(200.0 * math.pi)


@dataclass(frozen=True)
class Call:
    label: str  # problem plus overrides; the prefix of each configuration key
    argv: tuple  # arguments for chebfred.cli.main
    methods: tuple  # ("-",) for the schrodinger subcommand, whose rows carry none
    orders: tuple
    varying: bool = False  # order drawn per pass: key the tolerance by "*"

    def keys(self) -> list:
        return [self.key(m, n) for m in self.methods for n in self.orders]

    def key(self, method: str, n: int) -> str:
        return f"{self.label}/{method}/{'*' if self.varying else n}"


def _solve(label, problem, methods, orders, *extra, varying=False) -> Call:
    argv = ("solve", "--problem", problem, "--method", ",".join(methods),
            "--n", ",".join(map(str, orders))) + extra
    return Call(label, argv, tuple(methods), tuple(orders), varying)


def _schrodinger(problem, orders) -> Call:
    argv = ("schrodinger", "--problem", problem, "--n", ",".join(map(str, orders)))
    return Call(problem, argv, ("-",), tuple(orders))


_ALL4 = ("schur", "alg1", "gleg", "tdef")

_TABLES = (
    _solve("example1", "example1", _ALL4, (4, 8, 16, 32)),
    _solve("example2", "example2", _ALL4, (4, 8, 16, 32)),
    _solve("example3", "example3", ("schur", "gleg"), (8, 16, 32, 64)),
    _solve("example4", "example4", ("composite", "alg1"), (15, 31, 63, 127, 255)),
    _schrodinger("schrod_separable", (16, 32, 64)),
    _schrodinger("schrod_pereybuck", (16, 32, 64)),
)


def _composite(label, problem, panels, n, *extra) -> Call:
    return _solve(label, problem, ("composite",), (n,), "--panels", str(panels), *extra)


_MANY_PANEL = (
    _composite("example2-T200pi-8p", "example2", 8, 127, "--T", T_200PI),
    _composite("example2-T200pi-16p", "example2", 16, 63, "--T", T_200PI),
    _composite("example2-T200pi-32p", "example2", 32, 63, "--T", T_200PI),
    _composite("example2-T200pi-64p", "example2", 64, 31, "--T", T_200PI),
    _composite("example4-16p", "example4", 16, 63),
)

_SCHRODINGER = (
    _schrodinger("schrod_pereybuck", (128, 192)),
    _schrodinger("schrod_separable", (256,)),
)


def _single_panel_large(k: int) -> tuple:
    n1, n2, n3 = (n - k for n in LARGE_ORDERS)
    return (
        _solve("example1", "example1", ("schur",), (n1,), varying=True),
        _solve("example2", "example2", ("schur",), (n2,), varying=True),
        _solve("example2-T50pi", "example2", ("schur",), (n3,), "--T", T_50PI, varying=True),
    )


def pass_calls(workload: str, offset: int | None) -> tuple:
    """The CLI calls of one pass; ``offset`` is used by single_panel_large only."""
    if workload == "tables":
        return _TABLES
    if workload == "single_panel_large":
        return _single_panel_large(offset)
    if workload == "many_panel":
        return _MANY_PANEL
    if workload == "schrodinger":
        return _SCHRODINGER
    raise ValueError(f"unknown workload {workload!r}; known: {', '.join(WORKLOADS)}")


def draw_offsets(workload: str, seed: int) -> list | None:
    """Per-pass order offsets, in the order the passes use them.

    Only single_panel_large draws offsets: a seed-shuffled copy of the whole
    pool, so that every pass of a run gets its own offset.  Other workloads
    repeat one fixed pass and return None.
    """
    if workload != "single_panel_large":
        return None
    pool = list(range(OFFSETS))
    random.Random(seed).shuffle(pool)
    return pool


def tolerance(reference: float) -> float:
    """Largest error accepted for a configuration whose seed error is ``reference``.

    A rounding-dominated error may move by a small factor when the order of
    floating-point operations changes; a truncation-dominated one may move only
    in the digits the CLI prints last.
    """
    if reference < ROUNDING_REGIME:
        return 4.0 * max(reference, 1e-16)
    return reference * (1.0 + 1e-5) + 1e-13


def load_reference() -> dict:
    with REFERENCE_FILE.open(encoding="utf-8") as fh:
        return json.load(fh)


def parse_rows(call: Call, csv_text: str) -> dict:
    """Map configuration key -> (error, elapsed_ms or None) from a call's CSV."""
    lines = [ln for ln in csv_text.splitlines() if ln.strip()]
    if not lines:
        return {}
    header = lines[0].split(",")
    rows = {}
    for line in lines[1:]:
        rec = dict(zip(header, line.split(",")))
        method = rec.get("method", "-")
        elapsed = float(rec["elapsed_ms"]) if "elapsed_ms" in rec else None
        rows[call.key(method, int(rec["n"]))] = (float(rec["error"]), elapsed)
    return rows


def check_call(call: Call, exit_code: int, csv_text: str, reference: dict) -> list:
    """One (key, error, elapsed_ms, ok) per expected configuration of a call.

    A non-zero exit fails every configuration of the call; a missing row, a
    non-finite error or an error above the configuration's tolerance fails
    that configuration.  ``error`` is None when no row was printed, and
    ``elapsed_ms`` when the subcommand prints no timing.
    """
    try:
        rows = parse_rows(call, csv_text) if exit_code == 0 else {}
    except (KeyError, ValueError):  # malformed CSV: no configuration was answered
        rows = {}
    out = []
    for key in call.keys():
        err, elapsed = rows.get(key, (None, None))
        ok = (
            err is not None
            and math.isfinite(err)
            and key in reference
            and err <= tolerance(reference[key])
        )
        out.append((key, err, elapsed, ok))
    return out
