"""Write reference_errors.json: the error of every benchmark configuration.

Run from the root of a checkout, on the commit whose accuracy the benchmark
should hold later commits to:

    python3 perfbench/make_reference.py

Each fixed configuration is solved once.  A single_panel_large configuration
is solved at every order the seed can draw, and its reference is the largest
of those errors.  ``workloads.tolerance`` turns a reference into the bound
the benchmark checks.
"""

import contextlib
import io
import json
import os
import pathlib
import sys

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import workloads  # noqa: E402
from chebfred import cli  # noqa: E402


def main() -> int:
    reference = {}
    for workload in workloads.WORKLOADS:
        offsets = range(workloads.OFFSETS) if workload == "single_panel_large" else [None]
        for offset in offsets:
            for call in workloads.pass_calls(workload, offset):
                out = io.StringIO()
                with contextlib.redirect_stdout(out):
                    code = cli.main(list(call.argv))
                if code != 0:
                    raise SystemExit(f"{call.argv} exited {code}")
                for key, (error, _elapsed) in workloads.parse_rows(call, out.getvalue()).items():
                    reference[key] = max(error, reference.get(key, error))
    with workloads.REFERENCE_FILE.open("w", encoding="utf-8") as fh:
        json.dump(dict(sorted(reference.items())), fh, indent=1)
        fh.write("\n")
    print(f"wrote {len(reference)} references to {workloads.REFERENCE_FILE}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
