"""Golden report corpus: every recorded CLI invocation must reproduce its
report field by field.

Exit codes, keys, list lengths, integers, strings, booleans and nulls must
match exactly (this covers every ``passed``, ``applicable`` and ``ok``).
Floats must match within ``REL_TOL`` relative, or within ``ABS_FLOOR``
absolute: margins, slacks and deficiencies are differences of O(1)
quantities, so their last-bit noise is absolute, not relative.  The
tolerance admits a BLAS build that differs in the last bits; bitwise
determinism on one machine is ``test_run_is_deterministic_modulo_timing``.
Regenerate with ``tests/golden/regenerate.py``.
"""

import json
import math
import sys
from pathlib import Path

import pytest

GOLDEN = Path(__file__).resolve().parent / "golden"
sys.path.insert(0, str(GOLDEN))
from regenerate import run_invocation  # noqa: E402

REL_TOL = 1e-12
ABS_FLOOR = 1e-14


def _floats_match(old: float, new: float) -> bool:
    return abs(new - old) <= max(REL_TOL * max(abs(old), abs(new)), ABS_FLOOR)


def diff_reports(old, new, path: str = "") -> list[str]:
    """Every field where ``new`` moved from ``old``, one line each."""
    if isinstance(old, dict) and isinstance(new, dict):
        moved = [f"{path}.{k}: key {'removed' if k in old else 'added'}"
                 for k in sorted(set(old) ^ set(new))]
        for key in sorted(set(old) & set(new)):
            moved += diff_reports(old[key], new[key], f"{path}.{key}")
        return moved
    if isinstance(old, list) and isinstance(new, list):
        if len(old) != len(new):
            return [f"{path}: length {len(old)} -> {len(new)}"]
        moved = []
        for i, (a, b) in enumerate(zip(old, new)):
            moved += diff_reports(a, b, f"{path}[{i}]")
        return moved
    both_float = isinstance(old, float) and isinstance(new, float)
    if both_float and math.isfinite(old) and math.isfinite(new):
        if _floats_match(old, new):
            return []
        rel = abs(new - old) / max(abs(old), abs(new))
        return [f"{path}: {old!r} -> {new!r} (relative change {rel:.3g})"]
    if type(old) is type(new) and old == new:
        return []
    return [f"{path}: {old!r} -> {new!r}"]


CASES = sorted(GOLDEN.glob("*.json"))


@pytest.mark.parametrize("golden", CASES, ids=[p.stem for p in CASES])
def test_golden_report(golden):
    record = json.loads(golden.read_text())
    code, report = run_invocation(record["argv"])
    moved = diff_reports(record["report"], report, "report")
    if code != record["exit_code"]:
        moved.insert(0, f"exit code: {record['exit_code']} -> {code}")
    assert not moved, f"{len(moved)} field(s) moved:\n" + "\n".join(moved)


def test_diff_reports_catches_perturbations():
    old = {"a": [1.0, 0.5], "passed": True, "n": 3, "s": "x"}
    assert diff_reports(old, json.loads(json.dumps(old))) == []
    assert diff_reports(old, {**old, "a": [1.0 + 1e-10, 0.5]})
    assert diff_reports(old, {**old, "passed": False})
    assert diff_reports(old, {**old, "n": 3.0})
    assert diff_reports(old, {**old, "a": [1.0]})
    assert diff_reports({"m": 0.0}, {"m": 1e-15}) == []
