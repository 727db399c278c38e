import math

import numpy as np
import pytest
from dataclasses import replace

from normlab import (
    DualNormError,
    Seed,
    closeness_to_eigenspaces,
    cyclic_interval_signs,
    e_set,
    euclidean_constant,
    goodness,
    make_norm_spec,
    norm,
    probe_subspace,
    projection_op_norm,
    prune_separated,
    sample_two_d_subspace,
    sigma_set,
    sign_decomposition,
    span_two,
    two_d_subspace,
    typical_check,
    worst_goodness,
)
from normlab.cli import EXIT_NO_CONVERGENCE, main
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
    sub = sample_two_d_subspace(10, Seed(6), within=spec.proj.basis)
    # both spanning vectors live inside range(P)
    assert np.linalg.norm(spec.proj.P @ sub.u - sub.u) < 1e-10
    assert np.linalg.norm(spec.proj.P @ sub.v - sub.v) < 1e-10


# ----------------------------------------------------------------------
# euclidean constant / projection norm
# ----------------------------------------------------------------------

def test_euclidean_constant_flat_cases():
    spec = euclidean_spec(6)
    sub = sample_two_d_subspace(6, Seed(7))
    est = euclidean_constant(spec, sub)
    assert est.ratio == pytest.approx(1.0, abs=1e-12)

    spec_p = make_norm_spec(8, 0.0, Seed(8), rank=4)
    sub_p = sample_two_d_subspace(8, Seed(9), within=spec_p.proj.basis)
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
    assert projection_op_norm(spec, sub) == pytest.approx(1.0, abs=1e-7)

    spec_p = make_norm_spec(8, 0.0, Seed(12), rank=4)
    sub_p = sample_two_d_subspace(8, Seed(13), within=spec_p.proj.basis)
    assert projection_op_norm(spec_p, sub_p) == pytest.approx(
        1.0, abs=1e-6
    )

    spec_r = make_norm_spec(8, 0.25, Seed(15))
    sub_r = sample_two_d_subspace(8, Seed(16))
    assert projection_op_norm(spec_r, sub_r) >= 1 - 1e-7


def test_projection_op_norm_regression_point():
    # a 16-start ascent stopped at 1.0569898013 here
    spec = make_norm_spec(32, 1 / 16, Seed(60))
    sub = sample_two_d_subspace(32, Seed(70))
    coarse = projection_op_norm(spec, sub)
    assert coarse >= 1.0585910587 - 1e-9
    assert 0.0 <= projection_op_norm(spec, sub, grid_size=4096) - coarse <= 1e-6


# ----------------------------------------------------------------------
# worst goodness along the circle
# ----------------------------------------------------------------------

def test_worst_goodness_flat_cases():
    spec = euclidean_spec(6)
    sub = sample_two_d_subspace(6, Seed(20))
    wg = worst_goodness(spec, sub, grid_size=128)
    assert wg.deficiency == 0.0
    assert wg.failures == ()

    spec_p = make_norm_spec(8, 0.0, Seed(21), rank=4)
    sub_p = sample_two_d_subspace(8, Seed(22), within=spec_p.proj.basis)
    assert worst_goodness(spec_p, sub_p, grid_size=128).deficiency == 0.0


def test_worst_goodness_mixed_frozen_value():
    spec, sub = mixed_pq_subspace()
    wg = worst_goodness(spec, sub, grid_size=512)
    assert wg.deficiency == pytest.approx(3 / (2 * SQRT2) - 1, abs=1e-9)
    # two symmetric maximizers on [0, pi)
    assert min(abs(wg.theta - np.pi / 4), abs(wg.theta - 3 * np.pi / 4)) < 1e-9
    assert wg.width == pytest.approx(spec.C * np.pi / 512)
    with pytest.raises(ValueError):
        worst_goodness(spec, sub, grid_size=32)


def test_worst_goodness_deterministic():
    spec = make_norm_spec(12, 1 / 16, Seed(24))
    sub = sample_two_d_subspace(12, Seed(25))
    a = worst_goodness(spec, sub, grid_size=128)
    b = worst_goodness(spec, sub, grid_size=128)
    assert a.deficiency == b.deficiency and a.theta == b.theta


def test_worst_goodness_matches_pointwise_goodness():
    spec = make_norm_spec(12, 1 / 16, Seed(27))
    sub = sample_two_d_subspace(12, Seed(28))
    wg = worst_goodness(spec, sub, grid_size=128)
    cert = goodness(spec, sub.point(wg.theta))
    assert wg.deficiency == pytest.approx(cert.deficiency, abs=1e-12)
    assert wg.certificate.raw == pytest.approx(cert.raw, abs=1e-12)


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
        worst_goodness(spec, sub, grid_size=128)
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
    spec = make_norm_spec(2, 0.25, Seed(40), rank=1)
    sub = two_d_subspace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    ana = sigma_set(spec, sub, alpha=1.0, xi=0.1, c=0.75, beta=0.5, grid_size=512)
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
    spec = make_norm_spec(n, 0.1, Seed(41))
    assert set(e_set(sub, 2.0)) == {0, 1}
    ana = sigma_set(spec, sub, alpha=2.0, xi=0.5, c=0.5, beta=0.5, grid_size=1024)
    assert not ana.empty
    assert ana.k == 1


def test_sigma_set_k_at_least_one_when_samples_exist():
    for trial in range(3):
        sub = sample_two_d_subspace(8, Seed(42).derive(trial))
        spec = make_norm_spec(8, 0.1, Seed(43))
        ana = sigma_set(spec, sub, alpha=1.0, xi=0.05, c=0.25, beta=1.0)
        if not ana.empty:
            assert ana.k >= 1


def test_sigma_set_validates_beta():
    spec = make_norm_spec(4, 0.1, Seed(44))
    sub = sample_two_d_subspace(4, Seed(45))
    for bad in (0.0, -1.0, 1.5):
        with pytest.raises(ValueError):
            sigma_set(spec, sub, alpha=1.0, xi=0.05, c=0.25, beta=bad)


def test_sigma_set_empty_report():
    # alpha beyond sqrt(2n) empties E, so no angle is ever typical
    spec = make_norm_spec(6, 0.1, Seed(46))
    sub = sample_two_d_subspace(6, Seed(47))
    ana = sigma_set(spec, sub, alpha=5.0, xi=0.05, c=0.25, beta=0.5)
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
    spec = make_norm_spec(16, 1 / 16, Seed(49))
    beta = 0.25
    ana = sigma_set(spec, sub, alpha=1.0, xi=0.05, c=0.25, beta=beta)
    assert not ana.empty
    seps = _pair_separations(ana.representatives, ana.k)
    if seps:
        assert min(seps) >= beta - 1e-12
    # maximality makes the greedy set a beta-cover of the samples
    assert ana.kappa <= beta + 1e-12


def test_prune_separated_contract():
    # across several sweeps: pruning keeps beta-separation, never increases k,
    # realized cover radius stays within the guaranteed level, and after at
    # most two removals the radius is within 48 beta
    beta = 0.25
    for trial in range(6):
        sub = sample_two_d_subspace(12, Seed(50).derive(trial))
        spec = make_norm_spec(12, 1 / 16, Seed(51))
        ana = sigma_set(spec, sub, alpha=1.0, xi=0.05, c=0.25, beta=beta)
        if ana.empty:
            continue
        pruned = prune_separated(ana)
        assert pruned.k <= ana.k
        assert pruned.prune_rounds <= 3
        assert pruned.k >= 1
        seps = _pair_separations(pruned.representatives, pruned.k)
        if seps:
            assert min(seps) >= beta - 1e-12
        assert pruned.kappa <= pruned.kappa_level + 1e-12
        if pruned.prune_rounds <= 2:
            assert pruned.kappa <= 48 * beta + 1e-12
        # stopping contract: either a single pair is left, the cascade hit its
        # cap, or the survivors are 3-level separated
        if pruned.k >= 2 and pruned.prune_rounds < 3:
            assert min(seps) >= 3 * pruned.kappa_level - 1e-12


def test_prune_separated_forced_cascade():
    # patterns on a fine grid: adjacent quadrant patterns at distance sqrt(2)
    # with beta = 0.9 keep k = 2; raising the working level by hand is not
    # possible, so force a removal by lowering beta after the fact
    spec = make_norm_spec(2, 0.25, Seed(52), rank=1)
    sub = two_d_subspace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    ana = sigma_set(spec, sub, alpha=1.0, xi=0.1, c=0.75, beta=0.5, grid_size=512)
    assert ana.k == 2
    # the two representatives sit sqrt(2) apart; with level = beta = 0.5 the
    # threshold 3 beta = 1.5 exceeds sqrt(2), so one pair is removed
    pruned = prune_separated(ana)
    assert pruned.prune_rounds == 1
    assert pruned.k == 1
    assert pruned.kappa_level == pytest.approx(2.0)  # 4 * beta
    assert pruned.kappa <= pruned.kappa_level


def test_cyclic_interval_signs_genuine_and_synthetic():
    sub = sample_two_d_subspace(10, Seed(53))
    spec = make_norm_spec(10, 1 / 16, Seed(54))
    ana = sigma_set(spec, sub, alpha=1.0, xi=0.05, c=0.25, beta=0.25)
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
# sign decomposition
# ----------------------------------------------------------------------

def test_sign_decomposition_trivial_at_eta_zero():
    spec = make_norm_spec(8, 0.0, Seed(60), rank=4)
    sub = sample_two_d_subspace(8, Seed(61))
    dec = sign_decomposition(spec, sub, sub.point(0.3))
    assert dec.alpha_y == 0.0 and dec.beta_y == 0.0
    assert dec.residual == 0.0 and dec.pair_residual == 0.0


def test_sign_decomposition_exact_when_sign_is_collinear():
    # x = (1,1,0,0)/sqrt2 inside range(P): sign(x) is a multiple of Px
    spec = diag_spec([1, 1, 0, 0], eta=0.25)
    u = np.array([1.0, 1.0, 0.0, 0.0]) / SQRT2
    v = np.array([1.0, -1.0, 0.0, 0.0]) / SQRT2
    sub = two_d_subspace(u, v)
    dec = sign_decomposition(spec, sub, u)
    assert dec.pair_residual == pytest.approx(0.0, abs=1e-12)
    assert dec.residual == pytest.approx(0.0, abs=1e-12)
    # eta * alpha_y recovers the collinearity scale: target = (eta/2) sign(x)
    # = (eta/2) sqrt2 x and Px = x, so the coefficient is eta/sqrt2
    assert dec.alpha_y == pytest.approx(1 / SQRT2, abs=1e-10)


def _grid_refine_residual(b4, target, rounds=15, span=2.0, pts=9):
    """Brute-force 4-D least-squares by nested grid refinement."""
    center = np.zeros(4)
    best = None
    for _ in range(rounds):
        axes = [np.linspace(c - span, c + span, pts) for c in center]
        grid = np.stack(np.meshgrid(*axes, indexing="ij"), axis=-1).reshape(-1, 4)
        resid = np.linalg.norm(target[None, :] - grid @ b4.T, axis=1)
        j = int(np.argmin(resid))
        best = float(resid[j])
        center = grid[j]
        span /= 2.0
    return best


def test_sign_decomposition_matches_grid_oracle():
    spec = make_norm_spec(12, 1 / 16, Seed(62))
    sub = sample_two_d_subspace(12, Seed(63))
    x = sub.point(1.0)
    dec = sign_decomposition(spec, sub, x)
    p, q = spec.proj.P, spec.proj.Q
    b4 = np.column_stack([p @ sub.u, p @ sub.v, q @ sub.u, q @ sub.v])
    target = spec.ell1_weight * np.sign(x)
    oracle = _grid_refine_residual(b4, target)
    assert dec.residual == pytest.approx(oracle, abs=1e-6)
    assert dec.residual <= dec.pair_residual + 1e-12


def test_sign_decomposition_coefficient_bounds():
    # |alpha_y|, |beta_y| <= 2/eta whenever lambda lands in [sqrt2 - 1, 2]
    eta = 1 / 16
    spec = make_norm_spec(16, eta, Seed(64))
    hit = 0
    for trial in range(12):
        sub = sample_two_d_subspace(16, Seed(65).derive(trial))
        dec = sign_decomposition(spec, sub, sub.point(0.1 + trial))
        if SQRT2 - 1 <= dec.lam <= 2:
            hit += 1
            assert abs(dec.alpha_y) <= 2 / eta
            assert abs(dec.beta_y) <= 2 / eta
    assert hit > 0  # the regime actually occurs


def test_sign_decomposition_validates_input():
    spec = make_norm_spec(6, 0.1, Seed(66))
    sub = sample_two_d_subspace(6, Seed(67))
    with pytest.raises(ValueError):
        sign_decomposition(spec, sub, 2.0 * sub.point(0.0))  # not unit
    outside = np.zeros(6)
    outside[0] = 1.0
    with pytest.raises(ValueError):
        sign_decomposition(spec, sub, outside)  # unit but off-subspace


# ----------------------------------------------------------------------
# closeness to eigenspaces
# ----------------------------------------------------------------------

def test_closeness_examples():
    spec = make_norm_spec(8, 0.1, Seed(70), rank=4)
    p = spec.proj.basis.columns[:, 0]
    dP, dQ = closeness_to_eigenspaces(spec, p)
    assert dP == pytest.approx(0.0, abs=1e-12)
    assert dQ == pytest.approx(1.0, abs=1e-12)

    q = spec.proj.Q @ np.ones(8)
    q /= np.linalg.norm(q)
    mixed = (p + q) / SQRT2
    dP, dQ = closeness_to_eigenspaces(spec, mixed)
    assert dP == pytest.approx(1 / SQRT2, abs=1e-12)
    assert dQ == pytest.approx(1 / SQRT2, abs=1e-12)

    x = sample_two_d_subspace(8, Seed(71)).point(0.4)
    dP, dQ = closeness_to_eigenspaces(spec, x)
    assert dP**2 + dQ**2 == pytest.approx(1.0, abs=1e-10)
    with pytest.raises(ValueError):
        closeness_to_eigenspaces(spec, 0.5 * x)


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
