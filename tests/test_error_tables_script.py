"""Smoke test for scripts/run_error_tables.py: it writes every table, and its
scattering errors are the ``chebfred schrodinger`` CLI's."""

import csv
import importlib.util
import pathlib

import chebfred.cli as cli

SCRIPT = pathlib.Path(__file__).resolve().parents[1] / "scripts" / "run_error_tables.py"
TABLES = ("example1", "example2", "example3", "example4", "longrange", "scattering")


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
