"""The three benchmark workloads and their output checks.

Each workload builds its inputs from the workload seed in ``setup`` and then
runs one item at a time with ``run_item``.  Library functions are always
looked up through their module (``subspaces.probe_subspace``), so the
tracer's rebinding reaches them.  ``check`` scores a batch of outputs: it
returns, per item, a failure reason (or None) and the certified shortfall
(or None where the item has no certified output).

Shortfall is the certified reference's upper bound minus the reported value.
"""

from __future__ import annotations

import dataclasses
import json
import math
import os
from types import SimpleNamespace

import numpy as np

import normlab
from normlab import cli, exactparams, lemmas, linalg, norms, subspaces
from normlab.linalg import Seed

import reference

N = 32          # the CLI defaults: n, eta, grid
ETA = 1.0 / 16
GRID = 512
GOODNESS_TOL = 1e-7       # deficiencies below this are reported as zero
PAIR_TOL = 2e-6           # |(raw + 1) - ||P_x|||, as in acceptance criterion 3
LEMMA_TRIALS = 3000       # enough that the Monte Carlo lemmas dominate a pass
EPSILON_POW2 = -1017
_SLACK = 1e-10            # rounding room when a solver value meets its bound

MODULES = (linalg, norms, subspaces, lemmas, exactparams, cli)  # the layers


def certified(spec, z):
    """Certified (lower, upper) dual norms of the rows of z."""
    return reference.certified_dual_norm(spec, z, norms.norm)


def _finite(out: dict) -> bool:
    return all(math.isfinite(v) for v in out.values() if isinstance(v, float))


def _unit_rows(x: np.ndarray) -> np.ndarray:
    return x / np.linalg.norm(x, axis=1, keepdims=True)


class SubspaceProbe:
    """``probe_subspace`` on seeded 2-D subspaces, each under its own norm.

    Item ``t`` is the first subspace that ``normlab probe-subspaces --seed m``
    would probe, with ``m`` derived from the workload seed and ``t``.  Giving
    every item its own norm instance keeps one unlucky draw of the norm from
    setting the cost of a whole run.
    """

    name = "subspace-probe"
    min_items = 3
    pool = 32

    def setup(self, seed: int):
        specs, subs, seeds = [], [], []
        for t in range(self.pool):
            base = Seed(Seed(seed).derive("subspace-probe", t).stream, stream=2)
            specs.append(norms.make_norm_spec(N, ETA, base.derive("spec")))
            subs.append(subspaces.sample_two_d_subspace(N, base.derive("sub", 0)))
            seeds.append(base.derive("probe", 0))
        return SimpleNamespace(specs=specs, subs=subs, seeds=seeds)

    def run_item(self, st, i: int) -> dict:
        t = i % self.pool
        rep = subspaces.probe_subspace(
            st.specs[t], st.subs[t], index=0, grid_size=GRID, tol=GOODNESS_TOL,
            seed=st.seeds[t],
        )
        return dataclasses.asdict(rep)

    def check(self, st, outputs: dict) -> dict:
        c = math.sqrt(2.0) + ETA
        thetas = np.arange(GRID) * (np.pi / GRID)
        result = {}
        for i, out in outputs.items():
            spec = st.specs[i % self.pool]
            grid = _unit_rows(st.subs[i % self.pool].point(thetas))
            _, upper = certified(spec, grid)
            raw_upper = float(np.max(upper * norms.norm(spec, grid) - 1.0))
            expected = raw_upper if raw_upper >= GOODNESS_TOL else 0.0
            got = out["worst_deficiency"]
            if not _finite(out):
                fail = "non-finite field"
            elif not 1.0 - _SLACK <= out["proj_norm"] <= c + _SLACK:
                fail = f"proj_norm {out['proj_norm']!r} outside [1, C]"
            elif out["euclidean_ratio"] > out["ratio_upper"]:
                fail = "euclidean_ratio above its enclosure"
            elif got < 0.0:
                fail = "negative deficiency"
            elif got > raw_upper + _SLACK:
                fail = f"deficiency {got!r} above certified bound {raw_upper!r}"
            else:
                fail = None
            result[i] = (fail, max(0.0, expected - got))
        return result


class PointCertify:
    """Cold ``goodness`` plus the rank-1 ``projection_ratio_norm``, per point.

    Point ``t`` is measured in norm instance ``t % norms``.
    """

    name = "point-certify"
    min_items = 64
    pool = 1024
    norms = 16

    def setup(self, seed: int):
        base = Seed(seed).derive("point-certify")
        specs = [norms.make_norm_spec(N, ETA, base.derive("spec", k))
                 for k in range(self.norms)]
        pts = linalg.sample_unit_sphere(N, base.derive("points"), size=self.pool)
        good = [base.derive("goodness", i) for i in range(self.pool)]
        proj = [base.derive("projection", i) for i in range(self.pool)]
        return SimpleNamespace(specs=specs, pts=pts, good=good, proj=proj)

    def run_item(self, st, i: int) -> dict:
        t = i % self.pool
        x, spec = st.pts[t], st.specs[t % self.norms]
        cert = norms.goodness(spec, x, seed=st.good[t])
        pn = norms.projection_ratio_norm(spec, x[:, None], seed=st.proj[t])
        return {"raw": cert.raw, "deficiency": cert.deficiency, "proj_norm": float(pn)}

    def check(self, st, outputs: dict) -> dict:
        exact = {}
        for k, spec in enumerate(st.specs):
            items = [i for i in outputs if i % self.pool % self.norms == k]
            if not items:
                continue
            xu = _unit_rows(st.pts[[i % self.pool for i in items]])
            _, upper = certified(spec, xu)
            # for unit x, ||P_x|| = ||x|| ||x||_* = raw + 1
            exact.update(zip(items, upper * norms.norm(spec, xu)))
        result = {}
        for i, ref in sorted(exact.items()):
            out = outputs[i]
            good, pn = out["raw"] + 1.0, out["proj_norm"]
            if not _finite(out):
                fail = "non-finite field"
            elif abs(good - pn) > PAIR_TOL:
                fail = f"|(raw + 1) - ||P_x||| = {abs(good - pn):.3e} > {PAIR_TOL}"
            elif max(good, pn) > ref + _SLACK:
                fail = f"value {max(good, pn)!r} above certified bound {float(ref)!r}"
            else:
                fail = None
            result[i] = (fail, max(0.0, float(ref) - min(good, pn)))
        return result


class LemmaBattery:
    """``verify-lemmas``, ``mc-bounds`` and ``check-params`` through ``cli.main``."""

    name = "lemma-battery"
    min_items = 2
    pool = 64
    commands = ("verify-lemmas", "mc-bounds", "check-params")

    def __init__(self, scratch_dir: str):
        self.scratch_dir = scratch_dir

    def setup(self, seed: int):
        base = Seed(seed).derive("lemma-battery")
        out = os.path.join(self.scratch_dir, f"battery-{os.getpid()}.json")
        argvs = [
            [[cmd, "--seed", str(base.derive("pass", p).stream),
              "--trials", str(LEMMA_TRIALS), "--out", out] for cmd in self.commands]
            for p in range(self.pool)
        ]
        return SimpleNamespace(argvs=argvs, out=out)

    def run_item(self, st, i: int) -> dict:
        result = {}
        for argv in st.argvs[i % self.pool]:
            code = cli.main(argv)
            with open(st.out, encoding="utf-8") as fh:
                report = json.load(fh)
            os.remove(st.out)
            report.pop("timing", None)
            report.get("config", {}).pop("out", None)
            result[argv[0]] = {"exit": code, "report": report}
        return result

    def check(self, st, outputs: dict) -> dict:
        result = {}
        for i, out in outputs.items():
            fail = None
            for cmd in self.commands:
                code, report = out[cmd]["exit"], out[cmd]["report"]
                if code != 0:
                    fail = f"{cmd} exited {code}"
                elif not report["summary"]["ok"]:
                    fail = f"{cmd} summary.ok is false"
                if fail:
                    break
            else:
                pow2 = out["check-params"]["report"]["parameters"]["details"]["epsilon_pow2"]
                if pow2 != EPSILON_POW2:
                    fail = f"epsilon_pow2 {pow2} != {EPSILON_POW2}"
            result[i] = (fail, None)
        return result


def known_answer() -> dict:
    """The reproduction of the dual solver's known shortfall.

    At this point the reference must give 0.8069890851212822; the current
    ``dual_norm`` falls about 1.1e-6 short of it.  Only the reference value
    is a hard check: a better solver is allowed to close the gap.
    """
    expect = 0.8069890851212822
    spec = norms.make_norm_spec(32, 1 / 16, Seed(1))
    x = linalg.sample_unit_sphere(32, Seed(2), size=256)[233]
    lower, upper = certified(spec, x[None, :])
    value, _ = norms.dual_norm(spec, x, seed=Seed(3).derive(233))
    shortfall = float(upper[0]) - float(value)
    ok = abs(float(upper[0]) - expect) <= 1e-12 and shortfall >= -_SLACK
    return {
        "ok": ok,
        "reference": float(upper[0]),
        "bracket": float(upper[0] - lower[0]),
        "dual_norm": float(value),
        "shortfall": shortfall,
        "inexact": shortfall > GOODNESS_TOL,
    }


def digest_value(obj):
    """Canonical form for hashing: floats by repr, so equal means bit-equal."""
    if isinstance(obj, dict):
        return {str(k): digest_value(v) for k, v in sorted(obj.items())}
    if isinstance(obj, (list, tuple)):
        return [digest_value(v) for v in obj]
    if isinstance(obj, float):
        return repr(obj)
    if isinstance(obj, np.generic):
        return digest_value(obj.item())
    return obj


def make(name: str, scratch_dir: str):
    return {
        "subspace-probe": SubspaceProbe,
        "point-certify": PointCertify,
        "lemma-battery": lambda: LemmaBattery(scratch_dir),
    }[name]()
