import hashlib
import math

import numpy as np
import pytest
from dataclasses import replace

from normlab import (
    DualNormError,
    Seed,
    cyclic_interval_signs,
    e_set,
    euclidean_constant,
    goodness,
    make_norm_spec,
    norm,
    probe_subspace,
    projection_ratio_norm,
    sample_two_d_subspace,
    sigma_set,
    span_two,
    two_d_subspace,
    typical_check,
)
from normlab.cli import EXIT_NO_CONVERGENCE, main
from normlab.norms import circle_sweep
from test_norms import diag_spec, euclidean_spec

SQRT2 = math.sqrt(2.0)


def mixed_pq_subspace():
    """span{p, q} with unit p in range(P), q in range(Q) for P = diag(1,1,0,0)."""
    spec = diag_spec([1, 1, 0, 0], eta=0.0)
    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 0.0, 1.0, 0.0])
    return spec, two_d_subspace(u, v)


# ----------------------------------------------------------------------
# parametrization
# ----------------------------------------------------------------------

def test_amplitude_phase_n2():
    sub = two_d_subspace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert np.allclose(sub.r, [1.0, 1.0], atol=1e-15)
    assert np.allclose(sub.phi, [0.0, np.pi / 2], atol=1e-15)


def test_amplitude_phase_n3_and_e_set():
    sub = two_d_subspace(
        np.array([1.0, 0.0, 0.0]), np.array([0.0, 1.0, 0.0])
    )
    assert np.allclose(sub.r, [1, 1, 0], atol=1e-15)
    # the zero-amplitude coordinate never enters E
    for alpha in (0.01, 0.5, 1.0):
        assert 2 not in set(e_set(sub, alpha))


def test_amplitudes_sum_to_two():
    sub = sample_two_d_subspace(16, Seed(1))
    assert np.sum(sub.r**2) == pytest.approx(2.0, abs=1e-10)


def test_point_identities():
    sub = sample_two_d_subspace(16, Seed(2))
    thetas = np.linspace(0, 2 * np.pi, 97)
    pts = sub.point(thetas)
    assert np.max(np.abs(np.linalg.norm(pts, axis=1) - 1)) < 1e-10
    # entrywise sinusoid form
    for th, x in zip(thetas, pts):
        assert np.max(np.abs(x - sub.r * np.sin(th + sub.phi))) < 1e-12


def test_norm_along_circle_is_pi_periodic():
    spec = make_norm_spec(16, 1 / 16, Seed(3))
    sub = sample_two_d_subspace(16, Seed(4))
    thetas = np.linspace(0, np.pi, 50)
    a = norm(spec, sub.point(thetas))
    b = norm(spec, sub.point(thetas + np.pi))
    assert np.max(np.abs(a - b)) < 1e-12


def test_subspace_constructors_validate():
    with pytest.raises(ValueError):
        two_d_subspace(np.array([1.0, 1.0]), np.array([0.0, 1.0]))  # not unit
    with pytest.raises(ValueError):
        span_two(np.array([1.0, 2.0]), np.array([2.0, 4.0]))  # dependent
    with pytest.raises(ValueError):
        span_two(np.zeros(3), np.ones(3))
    # span_two orthonormalizes independent input
    sub = span_two(np.array([2.0, 0.0, 0.0]), np.array([1.0, 1.0, 0.0]))
    assert abs(sub.u @ sub.v) < 1e-12
    assert np.linalg.norm(sub.u) == pytest.approx(1.0, abs=1e-12)


def test_sample_two_d_subspace_within_frame():
    spec = make_norm_spec(10, 0.0, Seed(5), rank=5)
    sub = sample_two_d_subspace(10, Seed(6), within=spec.basis)
    # both spanning vectors live inside range(P)
    u = spec.basis.columns
    assert np.linalg.norm(u @ (u.T @ sub.u) - sub.u) < 1e-10
    assert np.linalg.norm(u @ (u.T @ sub.v) - sub.v) < 1e-10


# ----------------------------------------------------------------------
# euclidean constant / projection norm
# ----------------------------------------------------------------------

def test_euclidean_constant_flat_cases():
    spec = euclidean_spec(6)
    sub = sample_two_d_subspace(6, Seed(7))
    est = euclidean_constant(spec, sub)
    assert est.ratio == pytest.approx(1.0, abs=1e-12)

    spec_p = make_norm_spec(8, 0.0, Seed(8), rank=4)
    sub_p = sample_two_d_subspace(8, Seed(9), within=spec_p.basis)
    est_p = euclidean_constant(spec_p, sub_p)
    assert est_p.ratio == pytest.approx(1.0, abs=1e-12)
    assert est_p.scale_t == pytest.approx(SQRT2, abs=1e-12)


def test_euclidean_constant_mixed_ratio_sqrt2():
    spec, sub = mixed_pq_subspace()
    est = euclidean_constant(spec, sub, grid_size=2048)
    assert est.ratio == pytest.approx(SQRT2, abs=1e-9)
    assert est.ratio <= est.ratio_upper
    assert est.width == pytest.approx(spec.C * np.pi / 2048 / 2)
    with pytest.raises(ValueError):
        euclidean_constant(spec, sub, grid_size=128)


def test_projection_op_norm_cases():
    spec = euclidean_spec(6)
    sub = sample_two_d_subspace(6, Seed(10))
    assert projection_ratio_norm(spec, sub.frame().columns) == pytest.approx(
        1.0, abs=1e-7
    )

    spec_p = make_norm_spec(8, 0.0, Seed(12), rank=4)
    sub_p = sample_two_d_subspace(8, Seed(13), within=spec_p.basis)
    assert projection_ratio_norm(spec_p, sub_p.frame().columns) == pytest.approx(
        1.0, abs=1e-6
    )

    spec_r = make_norm_spec(8, 0.25, Seed(15))
    sub_r = sample_two_d_subspace(8, Seed(16))
    assert projection_ratio_norm(spec_r, sub_r.frame().columns) >= 1 - 1e-7


def test_projection_op_norm_regression_point():
    # a 16-start ascent stopped at 1.0569898013 here
    spec = make_norm_spec(32, 1 / 16, Seed(60))
    sub = sample_two_d_subspace(32, Seed(70))
    cols = sub.frame().columns
    coarse = projection_ratio_norm(spec, cols)
    assert coarse >= 1.0585910587 - 1e-9
    assert 0.0 <= projection_ratio_norm(spec, cols, grid_size=4096) - coarse <= 1e-6


# ----------------------------------------------------------------------
# worst goodness along the circle
# ----------------------------------------------------------------------

def test_worst_goodness_flat_cases():
    spec = euclidean_spec(6)
    sub = sample_two_d_subspace(6, Seed(20))
    assert probe_subspace(spec, sub, grid_size=128).worst_deficiency == 0.0

    spec_p = make_norm_spec(8, 0.0, Seed(21), rank=4)
    sub_p = sample_two_d_subspace(8, Seed(22), within=spec_p.basis)
    assert probe_subspace(spec_p, sub_p, grid_size=128).worst_deficiency == 0.0


def test_worst_goodness_mixed_frozen_value():
    spec, sub = mixed_pq_subspace()
    rep = probe_subspace(spec, sub, grid_size=512)
    assert rep.worst_deficiency == pytest.approx(3 / (2 * SQRT2) - 1, abs=1e-9)
    # two symmetric maximizers on [0, pi)
    theta = rep.worst_theta
    assert min(abs(theta - np.pi / 4), abs(theta - 3 * np.pi / 4)) < 1e-9
    assert rep.deficiency_width == pytest.approx(spec.C * np.pi / 512)
    with pytest.raises(ValueError):
        probe_subspace(spec, sub, grid_size=32)


def test_worst_goodness_deterministic():
    spec = make_norm_spec(12, 1 / 16, Seed(24))
    sub = sample_two_d_subspace(12, Seed(25))
    a = probe_subspace(spec, sub, grid_size=128)
    b = probe_subspace(spec, sub, grid_size=128)
    assert a.worst_deficiency == b.worst_deficiency and a.worst_theta == b.worst_theta


def test_worst_goodness_matches_pointwise_goodness():
    spec = make_norm_spec(12, 1 / 16, Seed(27))
    sub = sample_two_d_subspace(12, Seed(28))
    rep = probe_subspace(spec, sub, grid_size=128)
    cert = goodness(spec, sub.point(rep.worst_theta))
    assert rep.worst_deficiency == pytest.approx(cert.deficiency, abs=1e-12)
    sweep = circle_sweep(spec, sub.frame().columns, 128)
    assert sweep.raw.max() == pytest.approx(cert.raw, abs=1e-12)


def test_uncertified_sweep_raises_and_exits_three(monkeypatch, tmp_path):
    import normlab.norms as norms

    solve = norms.dual_brackets

    def wide(spec, z):
        sol = solve(spec, z)
        return norms.DualBracket(sol.lower, sol.upper + 1e-3, sol.witness)

    monkeypatch.setattr(norms, "dual_brackets", wide)
    spec = make_norm_spec(12, 1 / 16, Seed(29))
    sub = sample_two_d_subspace(12, Seed(30))
    with pytest.raises(DualNormError) as ei:
        goodness(spec, sub.u)
    assert ei.value.upper - ei.value.lower == pytest.approx(1e-3)
    with pytest.raises(DualNormError):
        probe_subspace(spec, sub, grid_size=128)
    args = ["probe-subspaces", "--n", "8", "--subspaces", "1", "--grid", "256",
            "--out", str(tmp_path / "probe.json")]
    assert main(args) == EXIT_NO_CONVERGENCE


# ----------------------------------------------------------------------
# E-set
# ----------------------------------------------------------------------

def test_e_set_frozen_example():
    # amplitudes (1, 0.9, 0.4, sqrt(0.03)), threshold alpha/sqrt(n) = 1/2
    u = np.array([1.0, 0.0, 0.0, 0.0])
    v = np.array([0.0, 0.9, 0.4, math.sqrt(2 - 1.97)])
    sub = two_d_subspace(u, v)
    assert np.allclose(np.sort(sub.r)[::-1], [1.0, 0.9, 0.4, math.sqrt(0.03)])
    assert set(e_set(sub, 1.0)) == {0, 1}
    with pytest.raises(ValueError):
        e_set(sub, 0.0)


def test_e_set_extremes():
    sub = sample_two_d_subspace(9, Seed(30))
    # r_i <= sqrt(2), so alpha > sqrt(2 n) empties E
    assert e_set(sub, math.sqrt(2 * 9) + 0.1).size == 0
    assert e_set(sub, 1e-9).size == np.count_nonzero(sub.r > 1e-9 / 3)


def test_e_set_complement_is_small_on_the_circle():
    sub = sample_two_d_subspace(16, Seed(31))
    alpha = 0.7
    e = e_set(sub, alpha)
    thetas = np.linspace(0, 2 * np.pi, 512, endpoint=False)
    pts = sub.point(thetas)
    keep = np.zeros(16)
    keep[e] = 1.0
    resid = np.linalg.norm(pts * (1 - keep), axis=1)
    assert np.max(resid) <= alpha + 1e-10


# ----------------------------------------------------------------------
# typicality
# ----------------------------------------------------------------------

def test_typical_check_examples():
    sub = two_d_subspace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    assert typical_check(sub, np.pi / 4, xi=0.1, c=0.1, alpha=0.1)
    # theta = -phi_i hits an exact sign change: condition (ii)
    assert not typical_check(sub, -np.pi / 2, xi=0.1, c=0.1, alpha=0.1)
    assert not typical_check(sub, 0.0, xi=0.1, c=0.1, alpha=0.1)
    # xi -> 0 empties the tiny-coordinate set
    assert typical_check(sub, np.pi / 4, xi=1e-300, c=0.1, alpha=0.1)


def test_typical_check_boundary_is_exact_not_tolerant():
    sub = two_d_subspace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    # exactly at the phase hit: rejected by (ii) no matter how small xi is
    assert not typical_check(sub, math.pi, xi=1e-10, c=0.9, alpha=0.1)
    # one ulp away: the phase comparison passes and the coordinate is only
    # ~1e-16, far below any xi scale, but c = 0.9 tolerates one tiny entry
    theta = math.nextafter(math.pi, 4.0)
    assert typical_check(sub, theta, xi=1e-10, c=0.9, alpha=0.1)


# ----------------------------------------------------------------------
# sigma set and separation
# ----------------------------------------------------------------------

def test_sigma_set_four_quadrant_patterns():
    sub = two_d_subspace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    ana = sigma_set(sub, alpha=1.0, xi=0.1, c=0.75, beta=0.5, grid_size=512)
    assert not ana.empty
    pats = {tuple(np.sign(s).astype(int)) for s in ana.sigma_samples}
    assert pats == {(1, 1), (1, -1), (-1, 1), (-1, -1)}
    assert ana.k == 2
    assert ana.V.shape == (4, 2)
    assert ana.kappa <= ana.beta + 1e-12
    # stored antipodes really are antipodes of the representatives
    assert np.allclose(ana.V[ana.k :], -ana.representatives, atol=0)


def test_sigma_set_single_pattern_pair():
    # two big in-phase coordinates, the rest small and a quarter turn away:
    # every typical angle shows the same sign pattern on E, so k = 1
    n = 16
    u = np.zeros(n)
    u[:2] = math.sqrt(0.5)
    v = np.zeros(n)
    v[2:] = 1.0 / math.sqrt(n - 2)
    sub = two_d_subspace(u, v)
    assert set(e_set(sub, 2.0)) == {0, 1}
    ana = sigma_set(sub, alpha=2.0, xi=0.5, c=0.5, beta=0.5, grid_size=1024)
    assert not ana.empty
    assert ana.k == 1


def test_sigma_set_k_at_least_one_when_samples_exist():
    for trial in range(3):
        sub = sample_two_d_subspace(8, Seed(42).derive(trial))
        ana = sigma_set(sub, alpha=1.0, xi=0.05, c=0.25, beta=1.0)
        if not ana.empty:
            assert ana.k >= 1


def test_sigma_set_validates_beta():
    sub = sample_two_d_subspace(4, Seed(45))
    for bad in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            sigma_set(sub, alpha=1.0, xi=0.05, c=0.25, beta=bad)


def test_sigma_set_empty_report():
    # alpha beyond sqrt(2n) empties E, so no angle is ever typical
    sub = sample_two_d_subspace(6, Seed(47))
    ana = sigma_set(sub, alpha=5.0, xi=0.05, c=0.25, beta=0.5)
    assert ana.empty and ana.k == 0
    assert ana.kappa == math.inf
    assert ana.sigma_samples.shape == (0, 6)


def _pair_separations(v, k):
    out = []
    for i in range(k):
        for j in range(i + 1, k):
            out.append(
                min(np.linalg.norm(v[i] - v[j]), np.linalg.norm(v[i] + v[j]))
            )
    return out


def test_sigma_set_separation_and_cover():
    sub = sample_two_d_subspace(16, Seed(48))
    beta = 0.25
    ana = sigma_set(sub, alpha=1.0, xi=0.05, c=0.25, beta=beta)
    assert not ana.empty
    seps = _pair_separations(ana.representatives, ana.k)
    if seps:
        assert min(seps) >= beta - 1e-12
    # maximality makes the greedy set a beta-cover of the samples
    assert ana.kappa <= beta + 1e-12


# (n, subspace seed, grid, beta, alpha, xi, c) ->
# (k, kappa, typical angle count, sha256 prefixes of v_thetas and V bytes);
# the last case is the subspace of the CLI lemma battery at default options
SIGMA_SET_PINS = [
    ((8, Seed(101), 512, 0.25, 1.0, 0.05, 0.25),
     (6, 0.0, 512, "1e906c6ca6dfc02d", "3a75e214841d3ad4")),
    ((8, Seed(102), 2048, 0.125, 1.0, 0.05, 0.25),
     (5, 0.0, 2048, "17ea1fca4834c2bc", "4af4f743cc5bca65")),
    ((16, Seed(103), 512, 0.125, 1.0, 0.05, 0.25),
     (11, 0.0, 512, "ef9e6cda0f141307", "26237ca51b38d130")),
    ((16, Seed(104), 2048, 0.25, 1.0, 0.05, 0.25),
     (8, 0.0, 2048, "558a41182640c7b0", "77ea23ae2ea9b40e")),
    ((32, Seed(105), 512, 0.25, 1.0, 0.05, 0.25),
     (22, 0.0, 512, "3162896aa71a058c", "4458ec563733d427")),
    ((32, Seed(106), 2048, 0.125, 1.0, 0.05, 0.25),
     (19, 0.0, 2048, "017bdff8198ac45e", "546f34475660c56a")),
    ((64, Seed(107), 512, 0.125, 1.0, 0.05, 0.25),
     (33, 0.0, 512, "152a088bd025a584", "56af4c295ed955af")),
    ((64, Seed(108), 2048, 0.25, 1.0, 0.05, 0.25),
     (38, 0.0, 2048, "3b429d321beea977", "f5fb472101dd3e5a")),
    # larger beta and xi: the greedy pass drops patterns, some angles are atypical
    ((32, Seed(109), 1024, 0.5, 0.8, 0.3, 0.1),
     (4, 0.49999999999999994, 336, "83fb0ed101ab6b04", "ee37a8b95525caaa")),
    ((64, Seed(110), 2048, 0.75, 0.7, 0.4, 0.15),
     (1, 0.25, 24, "c28eea3c00a71766", "bcae3e1a525fb107")),
    ((16, Seed(111), 512, 0.6, 1.0, 0.6, 0.2),
     (3, 0.5, 114, "cd8653f9d10fd76d", "e8028ceb4771bb32")),
    ((32, Seed(20240801, stream=3).derive("sub"), 2048, 0.125, 1.0, 0.05, 0.25),
     (23, 0.0, 2048, "9d34981617bdb3f9", "f8879341e2cbe96c")),
]


@pytest.mark.parametrize(
    "case, pinned", SIGMA_SET_PINS,
    ids=[f"n{c[0]}-g{c[2]}-b{c[3]}-{i}" for i, (c, _) in enumerate(SIGMA_SET_PINS)],
)
def test_sigma_set_golden_pins(case, pinned):
    n, seed, grid, beta, alpha, xi, c = case
    ana = sigma_set(
        sample_two_d_subspace(n, seed), alpha=alpha, xi=xi, c=c, beta=beta,
        grid_size=grid,
    )

    def digest(a):
        return hashlib.sha256(a.tobytes()).hexdigest()[:16]

    got = (ana.k, ana.kappa, ana.sigma_samples.shape[0], digest(ana.v_thetas),
           digest(ana.V))
    assert got == pinned


def test_cyclic_interval_signs_genuine_and_synthetic():
    sub = sample_two_d_subspace(10, Seed(53))
    ana = sigma_set(sub, alpha=1.0, xi=0.05, c=0.25, beta=0.25)
    assert not ana.empty
    assert cyclic_interval_signs(ana, sub)
    # synthetic alternating pattern cannot come from any sweep
    e = ana.e_indices
    fake_row = np.zeros(10)
    fake_row[e] = 1.0 / math.sqrt(10)
    order = e[np.argsort(sub.phi[e])]
    fake_row[order[::2]] *= -1.0
    if e.size >= 4:
        fake = replace(
            ana,
            V=np.vstack([fake_row, -fake_row]),
            v_thetas=np.array([0.0, np.pi]),
            k=1,
        )
        assert not cyclic_interval_signs(fake, sub)


# ----------------------------------------------------------------------
# full probe
# ----------------------------------------------------------------------

def test_probe_subspace_report_consistency():
    spec = make_norm_spec(12, 1 / 16, Seed(80))
    sub = sample_two_d_subspace(12, Seed(81))
    rep = probe_subspace(spec, sub, index=3, grid_size=512, seed=Seed(82))
    assert rep.index == 3
    assert rep.euclidean_ratio >= 1.0
    assert rep.euclidean_ratio <= rep.ratio_upper
    assert rep.proj_norm >= 1 - 1e-7
    assert rep.worst_deficiency >= 0.0
    assert rep.deficiency_width > 0
    assert rep.e_set_size >= 1
    assert rep.k >= 1
    # goodness level controls the projection norm: ||P_Y|| <= 1 + eps
    eps = rep.worst_deficiency + rep.deficiency_width
    assert rep.proj_norm <= 1 + eps + 1e-4
