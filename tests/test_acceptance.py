"""Acceptance gate: the nine headline checks, each printing one line.

Run with -s (or -rA) to see the lines on success; they also appear in the
captured output of any failure.  Every check states its tolerance and its
wall-clock budget explicitly.
"""

import math
import time
from fractions import Fraction

import numpy as np
import pytest

from normlab import (
    ParameterSet,
    Seed,
    check_parameter_chain,
    goodness,
    make_norm_spec,
    mc_subspace_volume,
    norm,
    sample_two_d_subspace,
    sample_unit_sphere,
    verify_approx_eigenvector,
    verify_frame_escape,
    verify_goodness_equivalence,
    verify_goodness_floor,
    verify_shear_collinearity,
)
from normlab.norms import projection_ratio_norm
from test_norms import diag_spec, primal_dual_norm

SQRT2 = math.sqrt(2.0)


def report(num, ok, detail):
    print(f"criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_1_parameter_chain():
    t0 = time.perf_counter()
    res = check_parameter_chain(ParameterSet.reference_values())
    dt = time.perf_counter() - t0
    ok = (
        res.all_passed
        and res.epsilon == Fraction(1, 2**1017)
        and dt < 1.0
    )
    report(1, ok, f"all {len(res.conditions)} conditions, eps = 2**-1017 exact, {dt:.2f} s")


def test_criterion_2_sandwich_bound():
    t0 = time.perf_counter()
    spec = make_norm_spec(64, 1 / 16, Seed(20240801))
    x = sample_unit_sphere(64, Seed(20240802), size=10_000)
    vals = norm(spec, x)
    dt = time.perf_counter() - t0
    lo_ok = float(vals.min()) >= 1.0 - 1e-9
    hi_ok = float(vals.max()) <= spec.C * (1.0 + 1e-9)
    ok = lo_ok and hi_ok and dt < 5.0
    report(2, ok, f"min {vals.min():.12f} >= 1, max {vals.max():.12f} <= {spec.C:.6f}, {dt:.2f} s")


def test_criterion_3_goodness_matches_projection_norm():
    t0 = time.perf_counter()
    n = 32
    spec = make_norm_spec(n, 1 / 16, Seed(910))
    rng = Seed(911).generator()
    worst = 0.0
    worst_oracle = 0.0
    for t in range(1000):
        x = rng.standard_normal(n)
        x /= np.linalg.norm(x)
        cert = goodness(spec, x, seed=Seed(912).derive(t))
        pn = projection_ratio_norm(spec, x[:, None], seed=Seed(913).derive(t))
        worst = max(worst, abs((cert.raw + 1.0) - pn))
        # the SLSQP primal oracle shares no code with the library's solver
        oracle = norm(spec, x) * primal_dual_norm(spec, x)
        worst_oracle = max(worst_oracle, abs((cert.raw + 1.0) - oracle))
    dt = time.perf_counter() - t0
    ok = worst <= 2e-6 and worst_oracle <= 2e-6 and dt < 120.0
    report(3, ok, f"1000 points, worst |(deficiency+1) - ||P_x||| = {worst:.2e}, "
                  f"worst |(deficiency+1) - primal oracle| = {worst_oracle:.2e}, "
                  f"both <= 2e-6, {dt:.0f} s")


def test_criterion_4_equivalence_inside_eigenspace():
    t0 = time.perf_counter()
    spec = make_norm_spec(16, 0.0, Seed(920), rank=8)
    worst_margin = math.inf
    for t in range(100):
        sub = sample_two_d_subspace(16, Seed(921).derive(t), within=spec.proj.basis)
        rep = verify_goodness_equivalence(spec, sub, epsilon=0.01, seed=Seed(922).derive(t))
        assert rep.applicable
        assert set(rep.details["directions"]) == {
            "forward_goodness", "converse_projection", "converse_distortion"
        }
        worst_margin = min(worst_margin, rep.margin)
    dt = time.perf_counter() - t0
    ok = worst_margin >= -1e-6
    report(4, ok, f"100 subspaces, both directions, worst margin {worst_margin:.2e} >= -1e-6, {dt:.1f} s")


def test_criterion_5_exhaustive_sign_pairs():
    t0 = time.perf_counter()
    total = 0
    worst = math.inf
    violations = 0
    for n in range(2, 11):
        for m in range(1, n + 1):
            k = 1 << m
            idx = np.arange(k, dtype=np.uint32)
            pc = np.array([int(i).bit_count() for i in range(k)], dtype=np.int64)
            bits = (idx[:, None] >> np.arange(m, dtype=np.uint32)) & 1
            s_mat = np.where(bits == 1, 1.0, -1.0) / math.sqrt(n)
            gram = s_mat @ s_mat.T
            disagree = pc[idx[:, None] ^ idx[None, :]]
            agree = m - disagree
            # float path: least-squares residual from the Gram matrix
            resid = np.sqrt(np.clip(m / n - gram * gram * (n / m), 0.0, None))
            # integer path: the exact lower bound 2 sqrt(r s / (m n))
            bound = 2.0 * np.sqrt(agree * disagree / (m * n))
            gap = resid - bound
            worst = min(worst, float(gap.min()))
            violations += int(np.sum(gap < -1e-12))
            total += k * k
    dt = time.perf_counter() - t0
    ok = violations == 0 and dt < 60.0
    report(5, ok, f"{total} sign-pair cases over n <= 10, worst gap {worst:.2e}, "
                  f"{violations} below -1e-12, {dt:.1f} s")


def test_criterion_6_shear_and_frame_sweeps():
    t0 = time.perf_counter()
    rng = Seed(930).generator()
    shear_trials = 100_000
    shear_viol = 0
    shear_applicable = 0
    # draw everything in bulk, verify instance by instance
    xs = rng.standard_normal((shear_trials, 4))
    ys = rng.standard_normal((shear_trials, 4))
    ys -= (np.sum(xs * ys, axis=1) / np.sum(xs * xs, axis=1))[:, None] * xs
    coefs = rng.uniform(-2.0, 2.0, size=(shear_trials, 4))
    for i in range(shear_trials):
        a, b, c, d = coefs[i]
        rep = verify_shear_collinearity(a, b, c, d, xs[i], ys[i], tol=1e-9)
        if rep.applicable:
            shear_applicable += 1
            if rep.margin < -1e-9:
                shear_viol += 1

    frame = verify_frame_escape(3, 8, 100_000, Seed(931), tol=1e-9)
    frame_ok = frame.passed and frame.measured_value >= frame.bound_value - 1e-9
    dt = time.perf_counter() - t0
    ok = shear_viol == 0 and frame_ok
    report(6, ok, f"{shear_applicable} shear instances with 0 violations; "
                  f"1e5 frames, worst escape {frame.measured_value:.6f} >= "
                  f"{frame.bound_value:.6f}; {dt:.0f} s")


def test_criterion_7_monte_carlo_bounds():
    t0 = time.perf_counter()
    rep = mc_subspace_volume(2, 1, 0.1, 1_000_000, Seed(932))
    freq, oracle = rep.measured_value, rep.details["oracle"]
    se = rep.details["standard_error"]
    close = abs(freq - oracle) <= 4 * se
    under_bound = freq <= rep.details["union_bound"]
    rep2 = mc_subspace_volume(20, 10, 1e-4, 1_000_000, Seed(933))
    zero_hits = rep2.details["hits"] == 0
    dt = time.perf_counter() - t0
    ok = close and under_bound and zero_hits
    report(7, ok, f"freq {freq:.6f} vs oracle {oracle:.6f} within 4 SE ({4*se:.6f}), "
                  f"bound respected, (20,10,1e-4) hits = {rep2.details['hits']}; {dt:.0f} s")


def test_criterion_8_eigenvector_equality_case():
    spec = diag_spec([1, 0], eta=0.0)
    y = np.array([1.0, 1.0]) / SQRT2
    rep = verify_approx_eigenvector(spec.proj, y, nu=1.5)
    eq_ok = (
        abs(rep.measured_value - 0.5) <= 1e-12
        and abs(rep.bound_value - 0.5) <= 1e-12
        and abs(rep.details["tau"] - 0.25) <= 1e-12
    )
    report(8, eq_ok and rep.passed,
           f"min(|Py|^2, |Qy|^2) = {rep.measured_value} = 2 tau = {rep.bound_value}")


def test_criterion_9_goodness_floor_probe():
    t0 = time.perf_counter()
    rep32 = verify_goodness_floor(32, 1 / 16, 120, Seed(940), grid_size=256)
    rep32_again = verify_goodness_floor(32, 1 / 16, 120, Seed(940), grid_size=256)
    rep64 = verify_goodness_floor(64, 1 / 16, 100, Seed(941), grid_size=256)
    dt = time.perf_counter() - t0
    reproducible = (
        rep32.details["floor"] == rep32_again.details["floor"]
        and rep32.details["floor_subspace"] == rep32_again.details["floor_subspace"]
        and rep32.details["max_over_subspaces"] == rep32_again.details["max_over_subspaces"]
    )
    floors_ok = all(
        r.details["floor"] > 0 and r.details["floor"] > r.bound_value
        for r in (rep32, rep64)
    )
    ok = reproducible and floors_ok and rep32.passed and rep64.passed and dt < 600.0
    report(9, ok, f"220 subspaces: floor(n=32) = {rep32.details['floor']:.4f}, "
                  f"floor(n=64) = {rep64.details['floor']:.4f}, widths "
                  f"{rep32.bound_value:.4f}/{rep64.bound_value:.4f}, "
                  f"bit-identical rerun = {reproducible}, {dt:.0f} s")
