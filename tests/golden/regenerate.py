"""Rewrite the golden report corpus in this directory.

Each ``<name>.json`` holds one CLI invocation: its argv, its exit code and
its JSON report with ``timing`` and ``config.out`` dropped (the parts
outside the determinism contract).  ``tests/test_golden.py`` replays every
file through ``cli.main`` and compares the reports field by field.

Run from the repository root, with one BLAS thread as in CI::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/golden/regenerate.py

A change that moves report values on purpose reruns this script and lists
the moved fields in CHANGES.md.
"""

from __future__ import annotations

import json
import sys
import tempfile
from pathlib import Path

from normlab.cli import main

HERE = Path(__file__).resolve().parent

INVOCATIONS = {
    "run": ["run"],
    "probe_subspaces": ["probe-subspaces", "--seed", "5", "--n", "64", "--grid", "256"],
    "verify_lemmas": ["verify-lemmas", "--seed", "5", "--trials", "1000"],
    "mc_bounds": ["mc-bounds"],
    "check_params": ["check-params"],
    "sample_norm": ["sample-norm"],
}


def run_invocation(argv: list[str]) -> tuple[int, dict]:
    """Run ``argv`` through ``cli.main``; return the exit code and the report
    without its ``timing`` block and ``config.out`` entry."""
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp) / "report.json"
        code = main(argv + ["--out", str(out)])
        report = json.loads(out.read_text())
    report.pop("timing", None)
    report.get("config", {}).pop("out", None)
    return code, report


def regenerate() -> None:
    for name, argv in INVOCATIONS.items():
        code, report = run_invocation(argv)
        record = {"argv": argv, "exit_code": code, "report": report}
        path = HERE / f"{name}.json"
        path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n")
        print(f"{path.name}: exit {code}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
