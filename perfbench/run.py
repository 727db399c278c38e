"""normlab benchmark: one workload per run, metrics as the last stdout line.

Usage, from the repository root:

    python3 perfbench/run.py --workload subspace-probe --seed 1 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with tracing off.  ``--trace 1``
runs every item twice, untraced and traced, and reports the per-layer
metrics and the tracing overhead.  Both modes check every output against
the certified reference and run the known-answer check.  README.md in this
directory lists the metrics and why each workload exists.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

PINNED = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "NORMLAB_THREADS")
WORKLOADS = ("subspace-probe", "point-certify", "lemma-battery")
SETUP_CHILDREN = 11  # cold set-ups, in child processes, for the median
RSS_ITEMS = 6        # peak memory is read after this many items
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=WORKLOADS)
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", type=float, default=45.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if not 0 <= args.seed < 2**63:
        p.error("--seed must be a nonnegative 63-bit integer")
    if args.seconds <= 0:
        p.error("--seconds must be positive")
    return args


def timed_setup(args):
    """Cold set-up: imports, the norm and the workload's inputs, timed."""
    t0 = perf_counter()
    import workloads

    wl = workloads.make(args.workload, str(OUT_DIR))
    state = wl.setup(args.seed)
    return perf_counter() - t0, workloads, wl, state


def cold_setup(args) -> float:
    """One cold set-up in a fresh interpreter, which is waited for."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
         "--seed", str(args.seed), "--setup-only"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(proc.stdout.strip().splitlines()[-1])["setup_s"]


def env_record(args) -> dict:
    import numpy
    import scipy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "threads": {k: os.environ.get(k) for k in PINNED},
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "commit": git_commit(),
    }


def git_commit() -> str:
    try:
        head = (ROOT / ".git" / "HEAD").read_text().strip()
        if head.startswith("ref: "):
            return (ROOT / ".git" / head[5:]).read_text().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def run_item(wl, state, i):
    """One item, timed; an exception marks the item failed."""
    t = perf_counter()
    try:
        out, err = wl.run_item(state, i), None
    except Exception:  # the run must go on and count the failure
        out, err = None, traceback.format_exc()
        print(f"item {i} raised:\n{err}", file=sys.stderr)
    return out, err, perf_counter() - t


def digest(workloads, outputs: dict, items) -> str:
    canon = [workloads.digest_value(outputs.get(i)) for i in items]
    blob = json.dumps(canon, sort_keys=True, separators=(",", ":")).encode()
    return "sha256:" + hashlib.sha256(blob).hexdigest()


def score(wl, state, outputs: dict, raised: set):
    """Failure reason per failed item, and certified shortfall per item."""
    checked = wl.check(state, {i: o for i, o in outputs.items() if i not in raised})
    fails = {i: "raised" for i in raised}
    fails.update({i: f for i, (f, _) in checked.items() if f})
    for i, why in sorted(fails.items()):
        print(f"item {i} failed: {why}", file=sys.stderr)
    shortfalls = {i: s for i, (_, s) in checked.items() if s is not None}
    return fails, shortfalls


def accuracy(shortfalls: list, tol: float):
    """Largest certified shortfall, and the share of items above ``tol``."""
    if not shortfalls:
        return None, None
    return max(shortfalls), sum(s > tol for s in shortfalls) / len(shortfalls)


def show(name, value, unit, note=""):
    shown = "n/a" if value is None else repr(value)
    print(f"metric {name} = {shown} {unit}" + (f"  ({note})" if note else ""))


def emit(metrics: dict, correct: bool, attempted: int, failed: int) -> None:
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))


def known_answer(workloads) -> bool:
    known = workloads.known_answer()
    print("known-answer: reference {reference!r} (bracket {bracket:.1e}), "
          "dual_norm {dual_norm!r}, shortfall {shortfall:.3e}, inexact {inexact}"
          .format(**known))
    if not known["ok"]:
        print("known-answer check failed: the certified reference is off",
              file=sys.stderr)
    return known["ok"]


def measure(args, workloads, wl, state) -> int:
    """Untraced run: the end-to-end metrics.

    Every item and every child set-up is scaled to reference speed by the
    calibration ticks run during it or around it (see calibrate.py).  The
    child set-ups are spread evenly over the timed phase, so that their
    median samples the same stretch of machine time as the items.  The phase
    times items only: it ends after ``--seconds`` of unscaled item time.
    """
    import calibrate

    known_ok = known_answer(workloads)

    sampler = calibrate.Sampler()
    calibrate.tick_s()  # warm-up, not used
    setups, raw_setups = [], []
    outputs, raised, times, items = {}, set(), [], []
    i = 0

    def cold_setups(upto: int) -> None:
        while len(setups) < upto:
            before = calibrate.tick_s()
            raw_setups.append(cold_setup(args))
            setups.append(calibrate.scaled(raw_setups[-1], [before, calibrate.tick_s()]))

    while i < max(wl.min_items, RSS_ITEMS) or sum(times) < args.seconds:
        cold_setups(min(SETUP_CHILDREN, 1 + int(sum(times) * SETUP_CHILDREN / args.seconds)))
        with sampler:
            outputs[i], err, dt = run_item(wl, state, i)
        if err:
            raised.add(i)
        times.append(dt)
        items.append((dt - sum(sampler.samples), sampler.samples))
        i += 1
        if i == RSS_ITEMS:  # a fixed item count, so the machine's speed cannot move it
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    cold_setups(SETUP_CHILDREN)
    elapsed = sum(times)
    ticks = [t for _, samples in items for t in samples] or [calibrate.tick_s()]
    # an item too short to see a tick is scaled by the run's mean tick
    scaled_s = sum(calibrate.scaled(work, samples or ticks) for work, samples in items)

    fails, shortfalls = score(wl, state, outputs, raised)
    short_max, inexact = accuracy(list(shortfalls.values()), workloads.GOODNESS_TOL)
    done = i - len(raised)
    # the JSON line carries the metrics BENCHMARK.json bounds; the rest are printed
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "items_per_s": (done / scaled_s, "1/s"),
        "peak_rss_mb": (peak, "MB"),
    }
    show("setup_s", metrics["setup_s"][0], "s",
         f"median of {len(setups)} cold set-ups at reference speed; "
         f"unscaled median {statistics.median(raw_setups):.4f} s")
    show("items_per_s", metrics["items_per_s"][0], "1/s",
         f"{done} items in {scaled_s:.2f} s at reference speed; "
         f"unscaled {done / elapsed:.4f} in {elapsed:.2f} s")
    show("tick_s", statistics.fmean(ticks), "s",
         f"mean of {len(ticks)} calibration ticks, "
         f"{sum(ticks) / elapsed:.1%} of item time; reference {calibrate.REFERENCE_TICK_S} s")
    show("item_s_p50", statistics.median(times), "s", f"n={len(times)}")
    show("failed_ratio", len(fails) / i, "ratio", f"{len(fails)}/{i}")
    show("shortfall_max", short_max, "1", f"over {len(shortfalls)} certified items")
    show("inexact_ratio", inexact, "ratio",
         f"shortfall > {workloads.GOODNESS_TOL:g}" if shortfalls else "no certified outputs")
    show("peak_rss_mb", peak, "MB", f"peak after set-up and the first {RSS_ITEMS} items")
    print(f"digest {digest(workloads, outputs, range(wl.min_items))} "
          f"(first {wl.min_items} items)")
    correct = not fails and known_ok
    emit(metrics, correct, i, len(fails))
    return 0 if correct else 1


def measure_traced(args, workloads, wl, state) -> int:
    """Traced run: per-layer metrics over the first ``min_items`` items."""
    import layers
    import tracer as tr

    known_ok = known_answer(workloads)
    tracer = tr.Tracer(workloads.normlab, workloads.MODULES, perf_counter)
    tracer.install()
    t0 = perf_counter()
    wl.setup(args.seed)
    traced_wall = perf_counter() - t0
    tracer.uninstall()

    outputs, raised, mismatched = {}, set(), []
    plain_s = traced_s = 0.0
    start = perf_counter()
    deadline = start + args.seconds
    i = 0
    while i < wl.min_items or perf_counter() < deadline:
        # alternate which copy runs first, so warm caches favour neither
        runs = {}
        for traced in ((False, True) if i % 2 == 0 else (True, False)):
            if traced:
                tracer.item = i
                tracer.install()
            try:
                runs[traced] = run_item(wl, state, i)
            finally:
                tracer.uninstall()
        (out, err, dt_plain), (out_t, err_t, dt_traced) = runs[False], runs[True]
        plain_s += dt_plain
        traced_s += dt_traced
        if i < wl.min_items:
            traced_wall += dt_traced
        outputs[i] = out
        if err or err_t:
            raised.add(i)
        elif workloads.digest_value(out) != workloads.digest_value(out_t):
            mismatched.append(i)
        i += 1

    prefix = range(wl.min_items)
    fails, shortfalls = score(wl, state, outputs, raised)
    for j in mismatched:
        print(f"item {j} failed: traced output differs from untraced", file=sys.stderr)
        fails.setdefault(j, "traced output differs")
    spans = tr.first_spans(tracer.spans, wl.min_items)
    acc = accuracy([shortfalls[j] for j in prefix if j in shortfalls], workloads.GOODNESS_TOL)
    metrics = layers.all_metrics(spans, traced_wall, (traced_s - plain_s) / plain_s, acc)
    print(f"traced set: set-up plus the first {wl.min_items} items; {i} item pairs")
    for name, (value, unit) in metrics.items():
        show(name, value, unit)
    layers.print_shares(metrics)
    print(f"digest {digest(workloads, outputs, prefix)} (first {wl.min_items} items)")

    OUT_DIR.mkdir(exist_ok=True)
    dump = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
    with open(dump, "w", encoding="utf-8") as fh:
        json.dump({"env": env_record(args), "fields": tr.FIELDS, "spans": tracer.spans,
                   "metrics": metrics, "pairs": i}, fh)
    print(f"trace dump: {dump.relative_to(ROOT)} ({len(tracer.spans)} spans, {i} pairs)")
    correct = not fails and known_ok
    emit(metrics, correct, i, len(fails))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = parse_args(argv)
    for key in PINNED:
        os.environ[key] = "1"
    if not (SRC / "normlab" / "__init__.py").is_file():
        print(f"error: normlab sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    OUT_DIR.mkdir(exist_ok=True)

    setup_s, workloads, wl, state = timed_setup(args)
    if not Path(workloads.normlab.__file__).resolve().is_relative_to(SRC):
        print("error: normlab was not imported from this checkout", file=sys.stderr)
        return 2
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s}))
        return 0
    print(f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace}")
    print("env " + json.dumps(env_record(args), sort_keys=True))
    if args.trace:
        return measure_traced(args, workloads, wl, state)
    return measure(args, workloads, wl, state)


if __name__ == "__main__":
    sys.exit(main())
