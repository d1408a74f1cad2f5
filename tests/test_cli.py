"""Command-line harness: output formats, config handling, exit codes."""

import dataclasses
import json
import subprocess
import sys
import warnings

import numpy as np
import pytest

import chebfred.cli as cli
import chebfred.schrodinger as schrodinger
from chebfred.fredholm_solver import SingularMatrixError
from chebfred.kernel_catalog import catalog_lookup, catalog_names
from chebfred.spectral_core import cheb_grid


def _rows(csv_text):
    lines = csv_text.strip().splitlines()
    return lines[0], [line.split(",") for line in lines[1:]]


def test_list_problems_covers_catalog(capsys):
    assert cli.main(["list-problems"]) == 0
    out = capsys.readouterr().out
    for name in catalog_names():
        assert name in out


def test_solve_csv_output(capsys):
    assert cli.main(["solve", "--problem", "example1", "--n", "16"]) == 0
    header, rows = _rows(capsys.readouterr().out)
    assert header == "n,method,problem,error,cond_warning,elapsed_ms"
    assert len(rows) == 1
    n, method, problem, error, warn, elapsed = rows[0]
    assert (n, method, problem, warn) == ("16", "schur", "example1", "false")
    assert float(error) < 1e-13
    assert float(elapsed) >= 0.0


def test_output_file_deterministic_up_to_timing(tmp_path):
    paths = [tmp_path / "a.csv", tmp_path / "b.csv"]
    for p in paths:
        code = cli.main(
            ["solve", "--problem", "example2", "--n", "4,8", "--output", str(p)]
        )
        assert code == 0
    contents = [p.read_text().strip().splitlines() for p in paths]
    stripped = [[",".join(line.split(",")[:-1]) for line in text] for text in contents]
    assert stripped[0] == stripped[1]


def test_convergence_plot_data(capsys):
    code = cli.main(["convergence", "--problem", "example1", "--n", "4,8,16"])
    assert code == 0
    out = capsys.readouterr().out
    blocks = out.strip().split("\n\n")
    assert len(blocks) == 1
    lines = blocks[0].splitlines()
    assert lines[0] == "# problem example1 method schur"
    ns = [int(line.split()[0]) for line in lines[1:]]
    logs = [float(line.split()[1]) for line in lines[1:]]
    assert ns == [4, 8, 16]
    assert logs[-1] < -12.0


def test_multiple_methods_grouped(capsys):
    code = cli.main(
        ["convergence", "--problem", "example1", "--n", "8,16", "--method", "schur,gleg"]
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "# problem example1 method schur" in out
    assert "# problem example1 method gleg" in out


def test_config_file_and_flag_precedence(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": "example1", "n": [4, 8], "method": "schur"}))
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert [r[0] for r in rows] == ["4", "8"]
    # an explicit flag beats the same key in the file
    assert cli.main(["solve", "--config", str(cfg), "--n", "16"]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert [r[0] for r in rows] == ["16"]


def test_composite_method_with_panels(capsys):
    code = cli.main(
        ["solve", "--problem", "example4", "--method", "composite", "--n", "32", "--panels", "2"]
    )
    assert code == 0
    _, rows = _rows(capsys.readouterr().out)
    assert float(rows[0][3]) < 1e-5


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--problem", "does-not-exist", "--n", "8"],
        ["solve", "--n", "8"],
        ["solve", "--problem", "example1", "--n", ""],
        ["convergence", "--problem", "example1", "--n", "16"],
        ["solve", "--problem", "example2", "--T", "-3"],
        ["schrodinger", "--problem", "schrod_pereybuck", "--format", "plot-data"],
        ["solve", "--problem", "example1", "--method", "gleg", "--n", "0"],
        ["solve", "--problem", "example2", "--T", "inf", "--n", "8"],
        ["schrodinger", "--problem", "schrod_separable", "--kappa", "inf"],
        ["schrodinger", "--problem", "schrod_pereybuck", "--A", "inf", "--n", "8"],
        # a non-positive range, which the catalog's potential does not describe
        ["schrodinger", "--problem", "schrod_pereybuck", "--A", "0", "--n", "16"],
        ["schrodinger", "--problem", "schrod_pereybuck", "--A", "-5", "--n", "16"],
        ["solve", "--problem", "example1", "--n", "8", "--output", "/nonexistent/x.csv"],
        ["solve", "--problem", "example1", "--n", "8", "--output", ""],
        # a partition that the run would silently drop
        ["solve", "--problem", "example2", "--method", "composite", "--panels", "3", "--breakpoints", "0.5", "--n", "8"],
        ["solve", "--problem", "example2", "--method", "schur", "--panels", "4", "--n", "8"],
        ["convergence", "--problem", "example2", "--method", "schur,gleg", "--breakpoints", "0.5", "--n", "8,16"],
        # options the schrodinger subcommand would silently ignore, each
        # alone and together; schur is method's default value
        ["schrodinger", "--problem", "schrod_pereybuck", "--n", "8", "--panels", "4", "--method", "gleg", "--breakpoints", "3"],
        ["schrodinger", "--problem", "schrod_pereybuck", "--n", "8", "--method", "schur"],
        ["schrodinger", "--problem", "schrod_separable", "--n", "8", "--panels", "2"],
        ["schrodinger", "--problem", "schrod_separable", "--n", "8", "--breakpoints", "3"],
        # an empty method list, an unknown method, a negative order, no
        # panels, an unknown format and an unreadable config file
        ["solve", "--problem", "example1", "--n", "8", "--method", ","],
        ["solve", "--problem", "example1", "--n", "8", "--method", "foo"],
        ["solve", "--problem", "example1", "--n", "-1"],
        ["solve", "--problem", "example2", "--method", "composite", "--panels", "0", "--n", "8"],
        ["solve", "--problem", "example1", "--n", "8", "--format", "xml"],
        ["solve", "--config", "/nonexistent/run.json"],
    ],
)
def test_configuration_errors_exit_2(argv, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert cli.main(argv) == 2
    assert not caught, [str(w.message) for w in caught]
    assert "error:" in capsys.readouterr().err


@pytest.mark.parametrize("entry", [{"method": "schur"}, {"panels": 4}, {"breakpoints": [3.0]}])
def test_schrodinger_config_keys_it_would_ignore_exit_2(entry, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": "schrod_pereybuck", "n": 8, **entry}))
    assert cli.main(["schrodinger", "--config", str(cfg)]) == 2
    assert f"takes no {next(iter(entry))}" in capsys.readouterr().err
    # a null in the file is an absent key
    cfg.write_text(json.dumps({"problem": "schrod_pereybuck", "n": 8, **dict.fromkeys(entry)}))
    assert cli.main(["schrodinger", "--config", str(cfg)]) == 0


@pytest.mark.parametrize("command", [["solve", "--problem", "example1"], ["schrodinger", "--problem", "schrod_pereybuck"]])
def test_unwritable_output_fails_before_any_solve(command, tmp_path, monkeypatch, capsys):
    def boom(*args, **kwargs):
        raise AssertionError("solved before checking the output path")

    monkeypatch.setattr(cli, "solve_fredholm", boom)
    monkeypatch.setattr(cli, "self_convergence", boom)
    missing = tmp_path / "no-such-dir" / "x.csv"
    assert cli.main(command + ["--n", "8", "--output", str(missing)]) == 2
    assert "cannot write output file" in capsys.readouterr().err


def test_parser_keeps_no_state_between_calls(capsys):
    # the parser is built once per process and reused by every main call
    assert cli._build_parser() is cli._build_parser()
    first = ["solve", "--problem", "example2", "--method", "alg1,gleg", "--n", "4,8", "--lam", "0.5"]
    second = ["solve", "--problem", "example1", "--n", "8"]
    fresh = cli._build_parser.__wrapped__()
    shared = cli._build_parser()
    shared.parse_args(first)
    assert vars(shared.parse_args(second)) == vars(fresh.parse_args(second))

    assert cli.main(first) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert {(r[0], r[1], r[2]) for r in rows} == {
        (n, m, "example2") for n in ("4", "8") for m in ("alg1", "gleg")
    }
    assert cli.main(second) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert [(r[0], r[1], r[2]) for r in rows] == [("8", "schur", "example1")]


def test_unknown_config_key_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"problem": "example1", "grid": 8}))
    assert cli.main(["solve", "--config", str(cfg)]) == 2
    cfg.write_text("{not json")
    assert cli.main(["solve", "--config", str(cfg)]) == 2
    cfg.write_text(json.dumps([{"problem": "example1"}]))
    assert cli.main(["solve", "--config", str(cfg)]) == 2
    assert "must hold a JSON object" in capsys.readouterr().err


@pytest.mark.parametrize(
    ("n", "expected"),
    [("16", ["16"]), ("4, 8", ["4", "8"]), (16, ["16"]), ([8.0, 4], ["4", "8"])],
)
def test_config_orders_parse_like_the_flag(n, expected, tmp_path, capsys):
    # a string is split at commas, as --n is, not iterated digit by digit
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": "example1", "n": n}))
    assert cli.main(["solve", "--config", str(cfg)]) == 0
    _, rows = _rows(capsys.readouterr().out)
    assert [r[0] for r in rows] == expected


def test_config_breakpoints_string_parses_like_the_flag(tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"breakpoints": "-0.5,0.5"}))
    base = ["solve", "--problem", "example4", "--method", "composite", "--n", "15"]
    assert cli.main(base + ["--config", str(cfg)]) == 0
    from_config = _rows(capsys.readouterr().out)[1]
    assert cli.main(base + ["--breakpoints=-0.5,0.5"]) == 0
    from_flag = _rows(capsys.readouterr().out)[1]
    assert [r[:4] for r in from_config] == [r[:4] for r in from_flag]


@pytest.mark.parametrize(
    "entries",
    [
        {"n": 16.5},
        {"n": True},
        {"n": [8, 16.5]},
        {"n": [None]},
        {"n": "16.5"},
        {"panels": 2.5},
        {"panels": True},
        {"panels": [2, 4]},
        {"breakpoints": [False]},
        {"breakpoints": "half"},
        {"problem": "example2", "lam": True},
        {"problem": "example2", "lam": "x"},
        {"problem": "example2", "lam": [0.1]},
        {"problem": "example2", "T": [1, 2]},
        {"problem": "example2", "T": float("inf")},
        {"method": 5},
        {"output": 7},
    ],
)
def test_config_rejects_non_integral_and_boolean_values(entries, tmp_path, capsys):
    cfg = tmp_path / "run.json"
    cfg.write_text(json.dumps({"problem": "example4", "method": "composite", "n": 15, **entries}))
    assert cli.main(["solve", "--config", str(cfg)]) == 2
    assert "error:" in capsys.readouterr().err


# one sample string per run option; a key added to cli.OPTIONS needs one here
OPTION_SAMPLES = {
    "problem": "example2",
    "method": "schur, gleg",
    "n": "4,8",
    "lam": "-0.5",
    "T": "2.5",
    "kappa": "2",
    "A": "50",
    "panels": "3",
    "breakpoints": "-0.5,0.5",
    "output": "table.csv",
    "format": "plot-data",
}


@pytest.mark.parametrize("key", list(cli.OPTIONS))
def test_flag_and_config_value_parse_alike(key, tmp_path):
    # the one parse path: a key's string gives the same RunConfig either way
    value = OPTION_SAMPLES[key]
    parser = cli._build_parser()
    base, cfg = tmp_path / "base.json", tmp_path / "run.json"
    base.write_text(json.dumps({"problem": "example1"}))
    cfg.write_text(json.dumps({"problem": "example1", key: value}))
    flag_args = parser.parse_args(["solve", "--config", str(base), f"--{key}={value}"])
    file_args = parser.parse_args(["solve", "--config", str(cfg)])
    from_flag = cli._load_config(flag_args, "csv")
    assert from_flag == cli._load_config(file_args, "csv")
    assert from_flag != cli._load_config(parser.parse_args(["solve", "--config", str(base)]), "csv")


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--problem", "example3", "--method", "tdef", "--n", "16"],
        ["solve", "--problem", "schrod_separable", "--n", "16"],
        ["schrodinger", "--problem", "example1", "--n", "16"],
    ],
)
def test_mismatched_method_and_problem_exit_3(argv, capsys):
    assert cli.main(argv) == 3
    assert "error:" in capsys.readouterr().err


def _singular(*args, **kwargs):
    raise SingularMatrixError("synthetic failure")


@pytest.mark.parametrize(("argv", "name", "failure", "message"), [
    (["solve", "--problem", "example1", "--n", "8"], "solve_fredholm", _singular, "synthetic failure"),
    # a table row whose error is not finite
    (["solve", "--problem", "example1", "--n", "8"], "relative_sup_error", lambda *args: np.nan,
     "schur on example1 at n=8 gave a non-finite error"),
    (["schrodinger", "--problem", "schrod_separable", "--n", "8"], "schrodinger_error", lambda *args: np.nan,
     "schrod_separable at n=8 gave a non-finite error"),
], ids=["singular", "nan-solve-row", "nan-schrodinger-row"])
def test_solver_failure_exits_4(argv, name, failure, message, monkeypatch, capsys):
    monkeypatch.setattr(cli, name, failure)
    assert cli.main(argv) == 4
    assert message in capsys.readouterr().err


def test_run_method_rejects_an_unknown_method():
    # the CLI checks its method list first, so only a library call gets here
    with pytest.raises(cli.ConfigError, match="unknown method 'foo'"):
        cli.run_method(catalog_lookup("example1"), "foo", 8)


def test_kernel_failure_in_a_late_row_block_exits_4(monkeypatch, capsys):
    # the lower branch is NaN only in the last row of a one-panel system,
    # which the lower sampler reaches in the last row block; the kernel is
    # reflected, so the first row block's upper sample, the lower branch
    # with the arguments swapped, reads it first, in the last column
    problem = catalog_lookup("example2")
    last = cheb_grid(1023, problem.a, problem.b).nodes[-1]
    kernel = dataclasses.replace(
        problem.kernel, k_lower=lambda t, s: np.where(t == last, np.nan, np.sin(t - s))
    )
    monkeypatch.setattr(cli, "catalog_lookup", lambda *args, **kwargs: dataclasses.replace(problem, kernel=kernel))
    assert cli.main(["solve", "--problem", "example2", "--n", "1023"]) == 4
    assert "lower kernel branch evaluated to a non-finite value" in capsys.readouterr().err


@pytest.mark.parametrize("error", [
    MemoryError("Unable to allocate 74.5 GiB for an array with shape (100001, 100001) and data type float64"),
    MemoryError(),
])
def test_out_of_memory_exits_4(monkeypatch, capsys, error):
    def exhausted(*args, **kwargs):
        raise error

    monkeypatch.setattr(cli, "solve_fredholm", exhausted)
    assert cli.main(["solve", "--problem", "example1", "--n", "100000"]) == 4
    err = capsys.readouterr().err
    assert err.startswith("error: out of memory") and str(error) in err
    assert "Traceback" not in err


def test_schrodinger_self_convergence_table(capsys):
    code = cli.main(["schrodinger", "--problem", "schrod_pereybuck", "--n", "16"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "n,error"
    n, err = lines[1].split(",")
    assert n == "16"
    assert 1e-5 < float(err) < 1e-2


@pytest.mark.parametrize("A", ["0.03", "0.02"])
def test_a_short_range_perey_buck_potential_solves(capsys, A):
    # at A = 0.02 the logistic's exp overflows for p - r' > 14.2, which the
    # default T = 20 reaches; its limit lam keeps every sample finite
    assert cli.main(["schrodinger", "--problem", "schrod_pereybuck", "--n", "16", "--A", A]) == 0
    n, err = capsys.readouterr().out.strip().splitlines()[1].split(",")
    assert n == "16" and np.isfinite(float(err))


def test_schrodinger_solves_each_distinct_order_once(monkeypatch, capsys):
    pot = catalog_lookup("schrod_pereybuck").potential
    separate = [f"{schrodinger.self_convergence(pot, n):.6e}" for n in (16, 32, 64)]
    solved = []
    solve = schrodinger.solve_schrodinger

    def counted(potential, order, rhs_override=None):
        solved.append(order)
        return solve(potential, order, rhs_override)

    monkeypatch.setattr(schrodinger, "solve_schrodinger", counted)
    assert cli.main(["schrodinger", "--problem", "schrod_pereybuck", "--n", "16,32,64"]) == 0
    assert sorted(solved) == [16, 32, 64, 128]
    _, rows = _rows(capsys.readouterr().out)
    assert [err for _, err in rows] == separate


def test_schrodinger_analytic_table(capsys):
    code = cli.main(["schrodinger", "--problem", "schrod_separable", "--n", "64"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert float(lines[1].split(",")[1]) < 1e-6


def test_schrodinger_free_particle(capsys):
    code = cli.main(["schrodinger", "--problem", "schrod_separable", "--lam", "0", "--n", "8,16"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    for line in lines[1:]:
        assert float(line.split(",")[1]) < 1e-13


def test_schrodinger_kappa_override_uses_self_convergence(capsys):
    code = cli.main(["schrodinger", "--problem", "schrod_separable", "--kappa", "2.0", "--n", "16"])
    assert code == 0
    lines = capsys.readouterr().out.strip().splitlines()
    err = float(lines[1].split(",")[1])
    assert np.isfinite(err) and err > 0.0


def test_self_convergence_of_a_problem_without_a_solution_solves_its_own_rhs():
    # the separable problem's manufactured rhs with its solution dropped:
    # the error is the self-convergence of that rhs, not of sin(kappa r),
    # and at n = 32 it reads as the analytic error does (2.336e-5; that of
    # sin(kappa r) is 1.83e-5)
    separable = catalog_lookup("schrod_separable")
    problem = dataclasses.replace(separable, solution=None)
    own = schrodinger.self_convergence(problem.potential, 32, rhs_override=problem.rhs)
    assert cli.schrodinger_error(problem, 32) == own
    assert own != schrodinger.self_convergence(problem.potential, 32)
    assert own == pytest.approx(cli.schrodinger_error(separable, 32), rel=1e-3)


def test_module_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "chebfred", "solve", "--problem", "example1", "--n", "8"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert proc.stdout.startswith("n,method,problem,error")
