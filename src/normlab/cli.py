"""Command-line front end.

Subcommands
    run              full pipeline: sandwich audit, subspace sweep, verifier
                     battery, exact parameter chain
    sample-norm      construct the norm and audit the two-sided sandwich
    probe-subspaces  sweep random 2-D subspaces, report per-subspace stats
    verify-lemmas    run the quantitative verifier battery
    check-params     exact-arithmetic parameter chain only
    mc-bounds        Monte Carlo incidence/volume checks only

A flat ``key = value`` config file may be given as a positional argument;
explicit flags override file values.  Reports are emitted as JSON (default)
or CSV; timing information is excluded from determinism guarantees.  Exit
codes: 0 all checks passed, 1 a check failed, 2 bad input or config (or an
output path that cannot be written), 3 a solver could not certify its result.
"""

from __future__ import annotations

import argparse
import ast
import csv
import dataclasses
import io
import json
import math
import sys
import time

import numpy as np

from . import __version__
from .exactparams import UndecidableConditionError
from .lemmas import (
    LemmaReport,
    mc_subspace_volume,
    run_parameter_chain,
    small_support_incidence,
    verify_approx_eigenvector,
    verify_frame_escape,
    verify_goodness_equivalence,
    verify_range_support_gap,
    verify_shear_collinearity,
    verify_sigma_spread,
    verify_sign_continuity,
    verify_sign_vector_separation,
    verify_support_characterization,
    verify_typicality_probability,
)
from .linalg import Frame, Seed, sample_frame, sample_unit_sphere
from .norms import DualNormError, make_norm_spec, norm
from .subspaces import probe_subspace, sample_two_d_subspace, sigma_set

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2
EXIT_NO_CONVERGENCE = 3

# every option, in --help order: (key, type, default, help); each is a flag
# --key of every subcommand and a key of the config file
_OPTIONS = (
    ("n", int, 32, "ambient dimension"),
    ("eta", float, 1.0 / 16, "l1 term weight"),
    ("seed", int, 20240801, "master seed"),
    ("trials", int, 2000, "sample count for Monte Carlo sections"),
    ("grid", int, 512, "angular grid size for subspace sweeps"),
    ("subspaces", int, 25, "number of random subspaces to probe"),
    ("tol", float, 1e-7, "deficiency reporting tolerance"),
    ("out", str, None, "output file path"),
    ("format", str, "json", None),
)
_DEFAULTS = {key: default for key, _, default, _ in _OPTIONS}
_FORMATS = ("json", "csv")


def load_config(path: str) -> dict:
    """Parse a flat ``key = value`` file; values go through literal_eval."""
    cfg: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected 'key = value'")
            key, val = (part.strip() for part in line.split("=", 1))
            try:
                cfg[key.replace("-", "_")] = ast.literal_eval(val)
            except (ValueError, SyntaxError):
                cfg[key.replace("-", "_")] = val
    return cfg


def _merge_options(args: argparse.Namespace) -> dict:
    opts = dict(_DEFAULTS)
    if getattr(args, "config", None):
        cfg = load_config(args.config)
        unknown = set(cfg) - set(_DEFAULTS)
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        opts.update(cfg)
    for key in _DEFAULTS:
        val = getattr(args, key, None)
        if val is not None:
            opts[key] = val
    if opts["format"] not in _FORMATS:
        raise ValueError("format must be 'json' or 'csv'")
    if int(opts["n"]) < 2:
        raise ValueError("n must be at least 2")
    if int(opts["trials"]) < 1:
        raise ValueError("trials must be at least 1")
    if not 0 <= float(opts["eta"]) < math.inf:
        raise ValueError("eta must be finite and nonnegative")
    if not 0 <= float(opts["tol"]) < math.inf:
        raise ValueError("tol must be finite and nonnegative")
    if int(opts["subspaces"]) < 0:
        raise ValueError("subspaces must be nonnegative")
    return opts


# ---------------------------------------------------------------------------
# report sections
# ---------------------------------------------------------------------------

def _sandwich_section(opts: dict) -> dict:
    n, eta = int(opts["n"]), float(opts["eta"])
    seed = Seed(int(opts["seed"]), stream=1)
    spec = make_norm_spec(n, eta, seed.derive("spec"))
    x = sample_unit_sphere(n, seed.derive("points"), size=int(opts["trials"]))
    vals = norm(spec, x)
    return {
        "n": n,
        "eta": eta,
        "upper_constant": spec.C,
        "min_ratio": float(vals.min()),
        "max_ratio": float(vals.max()),
        "lower_slack": float(vals.min() - 1.0),
        "upper_slack": float(spec.C - vals.max()),
        "points": int(opts["trials"]),
        "strongly_2_euclidean": spec.strongly_2_euclidean,
    }


def _subspace_section(opts: dict) -> dict:
    n, eta = int(opts["n"]), float(opts["eta"])
    seed = Seed(int(opts["seed"]), stream=2)
    spec = make_norm_spec(n, eta, seed.derive("spec"))
    count = int(opts["subspaces"])
    grid = int(opts["grid"])
    tol = float(opts["tol"])

    reports = [
        probe_subspace(
            spec, sample_two_d_subspace(n, seed.derive("sub", t)), index=t,
            grid_size=grid, tol=tol,
        )
        for t in range(count)
    ]
    rows = [dataclasses.asdict(r) for r in reports]
    deficiencies = [r.worst_deficiency for r in reports]
    return {
        "n": n,
        "eta": eta,
        "count": count,
        "grid": grid,
        "rows": rows,
        "floor": min(deficiencies) if deficiencies else None,
        "max_deficiency": max(deficiencies) if deficiencies else None,
    }


def _lemma_battery(opts: dict) -> list[dict]:
    n, eta = int(opts["n"]), float(opts["eta"])
    trials = max(1000, int(opts["trials"]))
    seed = Seed(int(opts["seed"]), stream=3)
    spec = make_norm_spec(n, eta, seed.derive("spec"))
    sub = sample_two_d_subspace(n, seed.derive("sub"))
    rng = seed.derive("battery").generator()

    reports: list[LemmaReport] = []
    reports.append(
        verify_goodness_equivalence(
            spec, sub, epsilon=0.5, samples=32, grid_size=max(256, int(opts["grid"])),
            seed=seed.derive("eq"),
        )
    )
    x = sample_unit_sphere(n, seed.derive("point"))
    reports.append(
        verify_support_characterization(spec, x, delta=0.5, seed=seed.derive("sc"))
    )
    edge = Frame(np.array([[1.0], [0.0]]))
    y = np.array([1.0, 1.0]) / math.sqrt(2)
    reports.append(verify_approx_eigenvector(edge, y, nu=1.5))
    reports.append(mc_subspace_volume(8, 4, 0.25, trials, seed.derive("vol")))
    reports.append(
        small_support_incidence(6, 3, 1, 0.3, "support", trials, seed.derive("ss"))
    )
    reports.append(
        small_support_incidence(6, 3, 1, 0.3, "distinct", trials, seed.derive("sd"))
    )
    reports.append(verify_range_support_gap(8, trials, seed.derive("rg"), gamma=0.01))
    xa = sample_unit_sphere(n, seed.derive("cont-a"))
    xb = xa + 0.05 * sample_unit_sphere(n, seed.derive("cont-b"))
    reports.append(verify_sign_continuity(xa, xb, xi=0.5))
    reports.append(
        verify_typicality_probability(
            sub, xi=0.1, c=0.5, alpha=0.5, theta_trials=trials,
            seed=seed.derive("typ"),
        )
    )
    scale = 1.0 / math.sqrt(n)
    su = np.zeros(n)
    sv = np.zeros(n)
    m = max(2, n // 2)
    signs_u = rng.choice([-1.0, 1.0], size=m)
    signs_v = signs_u.copy()
    flip = rng.integers(1, m)
    signs_v[:flip] *= -1.0
    su[:m] = signs_u * scale
    sv[:m] = signs_v * scale
    reports.append(verify_sign_vector_separation(su, sv))
    xo = sample_unit_sphere(n, seed.derive("shear-x"))
    yo = sample_unit_sphere(n, seed.derive("shear-y"))
    yo = yo - (yo @ xo) * xo
    yo /= np.linalg.norm(yo)
    reports.append(verify_shear_collinearity(0.7, -0.3, 0.2, 1.1, xo, yo))
    reports.append(
        verify_frame_escape(4, max(8, n // 2), min(trials, 20_000), seed.derive("fe"))
    )
    if n >= 8:
        analysis = sigma_set(sub, alpha=1.0, xi=0.05, c=0.25, beta=0.125)
        w4 = sample_frame(n, 4, seed.derive("w4"))
        reports.append(verify_sigma_spread(analysis, sub, w4))
    reports.append(run_parameter_chain())
    return _lemma_rows(reports)


def _mc_section(opts: dict) -> list[dict]:
    trials = max(1000, int(opts["trials"]))
    seed = Seed(int(opts["seed"]), stream=4)
    return _lemma_rows([
        mc_subspace_volume(2, 1, 0.1, trials, seed.derive("vol-2")),
        mc_subspace_volume(8, 4, 0.25, trials, seed.derive("vol-8")),
        small_support_incidence(6, 3, 1, 0.3, "support", trials, seed.derive("ss")),
        small_support_incidence(6, 3, 1, 0.3, "distinct", trials, seed.derive("sd")),
        verify_range_support_gap(8, trials, seed.derive("rg"), gamma=0.01),
    ])


def _params_section() -> dict:
    report = run_parameter_chain()
    return {
        "passed": report.passed,
        "min_rel_margin": report.measured_value,
        "details": report.details,
    }


def _lemma_rows(reports: list[LemmaReport]) -> list[dict]:
    rows = []
    for r in reports:
        d = dataclasses.asdict(r)
        d["seed"] = list(r.seed) if r.seed is not None else None
        if not math.isfinite(d["margin"]):
            d["margin"] = None
        rows.append(d)
    return rows


def _summary(rows: list[dict], extra_failures: int = 0) -> dict:
    applicable = [r for r in rows if r["applicable"]]
    failed = [r["lemma_id"] for r in applicable if not r["passed"]]
    return {
        "checks_total": len(rows),
        "checks_applicable": len(applicable),
        "checks_passed": sum(r["passed"] for r in applicable),
        "failed_ids": failed,
        "not_applicable_ids": [r["lemma_id"] for r in rows if not r["applicable"]],
        "ok": not failed and extra_failures == 0,
    }


def _sandwich_ok(sandwich: dict) -> bool:
    return sandwich["lower_slack"] >= -1e-9 and sandwich["upper_slack"] >= -1e-9


def _run_summary(sections: dict) -> dict:
    sandwich_ok = _sandwich_ok(sections["sandwich"])
    summary = _summary(sections["lemmas"], extra_failures=0 if sandwich_ok else 1)
    summary["sandwich_ok"] = sandwich_ok
    return summary


def _floor_summary(sections: dict) -> dict:
    floor = sections["subspaces"]["floor"]
    return {"ok": floor is not None and floor > 0, "floor": floor}


# subcommand -> ((report key, section function), ...), summary rule; the
# summary's "ok" decides the exit code
_COMMANDS = {
    "run": (
        (("sandwich", _sandwich_section), ("subspaces", _subspace_section),
         ("lemmas", _lemma_battery)),
        _run_summary,
    ),
    "sample-norm": (
        (("sandwich", _sandwich_section),),
        lambda sec: {"ok": _sandwich_ok(sec["sandwich"])},
    ),
    "probe-subspaces": ((("subspaces", _subspace_section),), _floor_summary),
    "verify-lemmas": (
        (("lemmas", _lemma_battery),),
        lambda sec: _summary(sec["lemmas"]),
    ),
    "check-params": (
        (("parameters", lambda _opts: _params_section()),),
        lambda sec: {"ok": sec["parameters"]["passed"]},
    ),
    "mc-bounds": (
        (("lemmas", _mc_section),),
        lambda sec: _summary(sec["lemmas"]),
    ),
}


# ---------------------------------------------------------------------------
# output plumbing
# ---------------------------------------------------------------------------

def _flatten(prefix: str, obj, rows: list[tuple[str, str]]):
    if isinstance(obj, dict):
        for key in obj:
            _flatten(f"{prefix}.{key}" if prefix else str(key), obj[key], rows)
    elif isinstance(obj, (list, tuple)):
        for i, item in enumerate(obj):
            _flatten(f"{prefix}[{i}]", item, rows)
    elif isinstance(obj, float):
        rows.append((prefix, repr(obj)))
    else:
        rows.append((prefix, "" if obj is None else str(obj)))


def _json_default(obj):
    if isinstance(obj, np.bool_):
        return bool(obj)
    if isinstance(obj, np.integer):
        return int(obj)
    if isinstance(obj, np.floating):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def render_report(report: dict, fmt: str) -> str:
    if fmt == "json":
        return (
            json.dumps(report, indent=2, sort_keys=True, default=_json_default) + "\n"
        )
    rows: list[tuple[str, str]] = []
    _flatten("", report, rows)
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(["path", "value"])
    writer.writerows(rows)
    return buf.getvalue()


def _emit(report: dict, opts: dict) -> None:
    text = render_report(report, opts["format"])
    if opts["out"]:
        with open(opts["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


# ---------------------------------------------------------------------------
# running a subcommand
# ---------------------------------------------------------------------------

def _run_command(command: str, opts: dict) -> tuple[dict, int]:
    """Build the command's sections and wrap them in the report envelope;
    returns the report and its exit code."""
    t0 = time.perf_counter()
    builders, summarize = _COMMANDS[command]
    sections = {key: build(opts) for key, build in builders}
    summary = summarize(sections)
    report = {
        "version": __version__,
        # the parameter chain reads no option, so its report records none
        "config": (
            {} if command == "check-params" else {k: opts[k] for k in sorted(_DEFAULTS)}
        ),
        **sections,
        "summary": summary,
        "timing": {"seconds": time.perf_counter() - t0},
    }
    return report, EXIT_OK if summary["ok"] else EXIT_CHECK_FAILED


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="normlab",
        description="numerical laboratory for a random projection-plus-l1 norm",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        p = sub.add_parser(name)
        p.add_argument("config", nargs="?", default=None,
                       help="optional flat key = value config file")
        for key, kind, _, text in _OPTIONS:
            # None defaults let _merge_options tell a given flag from an absent one
            p.add_argument(f"--{key}", type=kind, default=None, help=text,
                           choices=_FORMATS if key == "format" else None)
    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        opts = _merge_options(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        report, code = _run_command(args.command, opts)
    except (DualNormError, UndecidableConditionError) as exc:
        print(f"solver could not certify its result: {exc}", file=sys.stderr)
        return EXIT_NO_CONVERGENCE
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    try:
        _emit(report, opts)
    except OSError as exc:  # the output path cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    return code


if __name__ == "__main__":
    sys.exit(main())
