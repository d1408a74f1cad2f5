"""scripts/run_error_tables.py: it writes every table, its scattering errors
are the ``chebfred schrodinger`` CLI's, and every error reproduces the
pinned tables in tests/error_tables/."""

import csv
import importlib.util
import os
import pathlib
import subprocess
import sys

import chebfred.cli as cli

ROOT = pathlib.Path(__file__).resolve().parents[1]
SCRIPT = ROOT / "scripts" / "run_error_tables.py"
PINNED = ROOT / "tests" / "error_tables"
TABLES = ("example1", "example2", "example3", "example4", "longrange", "scattering")

sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import tolerance  # noqa: E402


def _load_script():
    spec = importlib.util.spec_from_file_location("run_error_tables", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_error_tables_match_the_cli(tmp_path, capsys):
    _load_script().main(["--outdir", str(tmp_path)])
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{t}.csv" for t in TABLES)
    for table in TABLES:
        with (tmp_path / f"{table}.csv").open(newline="") as fh:
            assert len(list(csv.reader(fh))) > 1
    capsys.readouterr()

    scattering = {}
    with (tmp_path / "scattering.csv").open(newline="") as fh:
        for row in csv.DictReader(fh):
            scattering.setdefault(row["problem"], []).append((row["n"], row["error"]))
    assert set(scattering) == {"schrod_separable", "schrod_pereybuck"}
    for name, rows in scattering.items():
        orders = ",".join(n for n, _ in rows)
        assert cli.main(["schrodinger", "--problem", name, "--n", orders]) == 0
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "n,error"
        assert [tuple(line.split(",")) for line in lines[1:]] == rows


def _errors(path):
    """{row key: error} of one table; the key is every column but the error
    and the time."""
    with path.open(newline="") as fh:
        return {
            tuple(v for k, v in row.items() if k not in ("error", "elapsed_ms")): float(row["error"])
            for row in csv.DictReader(fh)
        }


def test_error_tables_reproduce_the_pinned_errors(tmp_path):
    # run as a script, it pins BLAS to one thread before numpy loads
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])))
    subprocess.run([sys.executable, str(SCRIPT), "--outdir", str(tmp_path)], env=env, check=True, capture_output=True)
    for table in TABLES:
        pinned, regenerated = _errors(PINNED / f"{table}.csv"), _errors(tmp_path / f"{table}.csv")
        assert regenerated.keys() == pinned.keys(), table
        # the benchmark's rule: a rounding-level error may grow 4x, a larger one
        # only in the digits a table prints last
        moved = {key: (ref, regenerated[key]) for key, ref in pinned.items() if not regenerated[key] <= tolerance(ref)}
        assert not moved, f"{table}: (pinned, regenerated) error of {moved}"
