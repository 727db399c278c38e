import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from normlab.cli import EXIT_BAD_INPUT, EXIT_CHECK_FAILED, EXIT_OK, main


def run_json(tmp_path, name, args):
    out = tmp_path / name
    code = main(args + ["--out", str(out)])
    return code, json.loads(out.read_text())


def test_version_flag():
    with pytest.raises(SystemExit) as ei:
        main(["--version"])
    assert ei.value.code == 0


def test_check_params_passes(tmp_path):
    code, rep = run_json(tmp_path, "chain.json", ["check-params"])
    assert code == EXIT_OK
    assert rep["summary"]["ok"] is True
    assert rep["version"]


def test_run_is_deterministic_modulo_timing(tmp_path):
    args = ["run", "--n", "8", "--trials", "300", "--subspaces", "2",
            "--grid", "256"]
    code1, rep1 = run_json(tmp_path, "a.json", args)
    code2, rep2 = run_json(tmp_path, "b.json", args)
    assert code1 == code2 == EXIT_OK
    for rep in (rep1, rep2):
        rep.pop("timing")
        rep["config"].pop("out")
    assert rep1 == rep2
    assert rep1["summary"]["ok"] is True
    assert rep1["sandwich"]["lower_slack"] >= -1e-9
    assert rep1["sandwich"]["upper_slack"] >= -1e-9


IMPORT_CONTRACT = """
import sys
import normlab
from normlab import cli
out = sys.argv[1]
assert cli.main(["check-params", "--out", out + "/chain.json"]) == 0
assert cli.main(["probe-subspaces", "--subspaces", "1",
                 "--out", out + "/probe.json"]) == 0
print("scipy.special" in sys.modules)
"""


def test_probe_path_does_not_import_scipy(tmp_path):
    # scipy.special serves only the Monte Carlo volume oracle; a fresh
    # interpreter is needed because this pytest process has imported it already
    src = str(Path(__file__).resolve().parent.parent / "src")
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", IMPORT_CONTRACT, str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "False"


def test_csv_output_round_trips(tmp_path):
    out = tmp_path / "report.csv"
    code = main(["sample-norm", "--n", "8", "--trials", "200",
                 "--format", "csv", "--out", str(out)])
    assert code == EXIT_OK
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["path", "value"]
    paths = {r[0]: r[1] for r in rows[1:]}
    assert paths["config.n"] == "8"
    assert paths["summary.ok"] == "True"
    assert "sandwich.min_ratio" in paths


def test_config_file_merging(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text("# comment line\nn = 6\nseed = 7\ntrials = 150\n")
    code, rep = run_json(
        tmp_path, "merged.json", ["sample-norm", str(cfg), "--n", "8"]
    )
    assert code == EXIT_OK
    assert rep["config"]["n"] == 8        # flag beats file
    assert rep["config"]["seed"] == 7     # file beats default
    assert rep["config"]["trials"] == 150


def test_bad_inputs_exit_two(tmp_path):
    bad_key = tmp_path / "bad1.cfg"
    bad_key.write_text("volume = 11\n")
    assert main(["sample-norm", str(bad_key)]) == EXIT_BAD_INPUT

    malformed = tmp_path / "bad2.cfg"
    malformed.write_text("just some words\n")
    assert main(["sample-norm", str(malformed)]) == EXIT_BAD_INPUT

    assert main(["sample-norm", str(tmp_path / "missing.cfg")]) == EXIT_BAD_INPUT
    assert main(["sample-norm", "--n", "1"]) == EXIT_BAD_INPUT
    assert main(["sample-norm", "--eta", "-0.5"]) == EXIT_BAD_INPUT
    # non-finite or negative numbers are rejected before any work is done
    assert main(["sample-norm", "--eta", "nan"]) == EXIT_BAD_INPUT
    assert main(["sample-norm", "--eta", "inf"]) == EXIT_BAD_INPUT
    assert main(["run", "--subspaces", "-2"]) == EXIT_BAD_INPUT
    assert main(["probe-subspaces", "--tol", "nan"]) == EXIT_BAD_INPUT
    assert main(["probe-subspaces", "--tol", "inf"]) == EXIT_BAD_INPUT
    assert main(["probe-subspaces", "--tol=-1e-7"]) == EXIT_BAD_INPUT
    # fewer than one trial is rejected, not left to numpy or clamped
    assert main(["sample-norm", "--trials", "0"]) == EXIT_BAD_INPUT
    assert main(["sample-norm", "--trials", "-3"]) == EXIT_BAD_INPUT
    assert main(["mc-bounds", "--trials", "-1"]) == EXIT_BAD_INPUT
    no_trials = tmp_path / "bad3.cfg"
    no_trials.write_text("trials = 0\n")
    assert main(["mc-bounds", str(no_trials)]) == EXIT_BAD_INPUT
    # an output path that cannot be written is bad input, not a failed check
    unwritable = tmp_path / "no-such-dir" / "x.json"
    assert main(["check-params", "--out", str(unwritable)]) == EXIT_BAD_INPUT


def test_subcommand_smoke(tmp_path):
    code, rep = run_json(
        tmp_path, "probe.json",
        ["probe-subspaces", "--n", "8", "--subspaces", "2", "--grid", "256"],
    )
    assert code == EXIT_OK and rep["summary"]["floor"] > 0

    code, rep = run_json(
        tmp_path, "lemmas.json",
        ["verify-lemmas", "--n", "8", "--trials", "300", "--grid", "256",
         "--subspaces", "2"],
    )
    assert code == EXIT_OK
    ids = {row["lemma_id"] for row in rep["lemmas"]}
    assert "parameter_chain" in ids and "goodness_equivalence" in ids

    code, rep = run_json(
        tmp_path, "mc.json", ["mc-bounds", "--n", "6", "--trials", "2000"]
    )
    assert code == EXIT_OK
    assert rep["summary"]["ok"] is True


def test_goodness_equivalence_samples_every_kth_sweep_angle(tmp_path):
    # a grid that 32 does not divide: the 32 sampled angles become every
    # (300 // 32)-th angle of the one 300-point sweep
    code, rep = run_json(
        tmp_path, "lemmas.json",
        ["verify-lemmas", "--seed", "5", "--trials", "1000", "--grid", "300"],
    )
    assert code == EXIT_OK
    row = next(r for r in rep["lemmas"] if r["lemma_id"] == "goodness_equivalence")
    assert row["trials"] == len(range(0, 300, 300 // 32))


def test_mc_bounds_golden_hits(tmp_path):
    # hit counts of the five Monte Carlo rows, recorded from the per-trial
    # implementation; the stacked one must reproduce them exactly
    args = ["mc-bounds", "--seed", "5", "--trials", "1000"]
    code1, rep1 = run_json(tmp_path, "a.json", args)
    code2, rep2 = run_json(tmp_path, "b.json", args)
    assert code1 == code2 == EXIT_OK
    assert [row["details"]["hits"] for row in rep1["lemmas"]] == [73, 12, 253, 780, 2]
    for rep in (rep1, rep2):
        rep.pop("timing")
        rep["config"].pop("out")
    assert rep1 == rep2


_LEMMA_SUMMARY = {"checks_total", "checks_applicable", "checks_passed",
                  "failed_ids", "not_applicable_ids", "ok"}
_ENVELOPE = {"version", "config", "summary", "timing"}


@pytest.mark.parametrize("command, sections, summary_keys", [
    ("run", {"sandwich", "subspaces", "lemmas"}, _LEMMA_SUMMARY | {"sandwich_ok"}),
    ("sample-norm", {"sandwich"}, {"ok"}),
    ("probe-subspaces", {"subspaces"}, {"ok", "floor"}),
    ("verify-lemmas", {"lemmas"}, _LEMMA_SUMMARY),
    ("check-params", {"parameters"}, {"ok"}),
    ("mc-bounds", {"lemmas"}, _LEMMA_SUMMARY),
])
def test_report_envelope_per_subcommand(tmp_path, command, sections, summary_keys):
    code, rep = run_json(
        tmp_path, "rep.json",
        [command, "--n", "8", "--trials", "300", "--subspaces", "2", "--grid", "256"],
    )
    assert code == EXIT_OK
    assert set(rep) == _ENVELOPE | sections
    assert set(rep["summary"]) == summary_keys
    assert rep["summary"]["ok"] is True
    assert set(rep["timing"]) == {"seconds"}
    if command == "check-params":
        assert rep["config"] == {}
    else:
        assert rep["config"]["n"] == 8 and set(rep["config"]) == {
            "n", "eta", "seed", "trials", "grid", "subspaces", "tol", "format", "out"}


def test_exit_codes_are_distinct():
    assert EXIT_OK == 0
    assert EXIT_CHECK_FAILED == 1
    assert EXIT_BAD_INPUT == 2
