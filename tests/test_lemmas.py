import math
import tracemalloc

import numpy as np
import pytest

from normlab import (
    LemmaReport,
    ParameterSet,
    Seed,
    make_norm_spec,
    mc_subspace_volume,
    probe_subspace,
    run_parameter_chain,
    sample_frame,
    sample_two_d_subspace,
    sample_unit_sphere,
    sigma_set,
    small_support_incidence,
    support_bracket,
    two_d_subspace,
    verify_approx_eigenvector,
    verify_frame_escape,
    verify_goodness_equivalence,
    verify_goodness_floor,
    verify_range_support_gap,
    verify_shear_collinearity,
    verify_sign_continuity,
    verify_sign_vector_separation,
    verify_sigma_spread,
    verify_support_characterization,
    verify_typicality_probability,
)
from normlab import lemmas
from normlab.lemmas import _distinct_value_configs, _support_blocks
from normlab.linalg import _haar_frame
from normlab.norms import circle_sweep
from test_norms import diag_spec, euclidean_spec

SQRT2 = math.sqrt(2.0)


def check_report_flags(rep):
    """passed must mean: applicable and margin within tolerance."""
    assert rep.passed == (rep.applicable and rep.margin >= -rep.tolerance)


def _assert_close(got, want):
    if isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=1e-15)
    else:
        assert got == want


def assert_same_report(rep, expected):
    """Field by field and detail by detail: floats to 1e-12 relative (another
    BLAS may round the last bits differently), everything else exactly, so
    a margin of -inf must stay -inf."""
    for name in LemmaReport.__dataclass_fields__:
        if name != "details":
            _assert_close(getattr(rep, name), getattr(expected, name))
    assert rep.details.keys() == expected.details.keys()
    for key, want in expected.details.items():
        _assert_close(rep.details[key], want)


def not_applicable_report(lemma_id, instance, bound, measured, trials, seed,
                          tol, details):
    return LemmaReport(
        lemma_id=lemma_id, instance=instance, bound_value=bound,
        measured_value=measured, margin=-math.inf, trials=trials, seed=seed,
        passed=False, applicable=False, tolerance=tol, details=details,
    )


# ----------------------------------------------------------------------
# goodness <-> complemented + euclidean
# ----------------------------------------------------------------------

def test_goodness_equivalence_euclidean_case():
    spec = euclidean_spec(6)
    sub = sample_two_d_subspace(6, Seed(100))
    rep = verify_goodness_equivalence(spec, sub, epsilon=0.01, seed=Seed(101))
    assert rep.applicable and rep.passed
    assert set(rep.details["directions"]) == {
        "forward_goodness", "converse_projection", "converse_distortion"
    }
    assert rep.details["euclidean_ratio"] == pytest.approx(1.0, abs=1e-10)
    check_report_flags(rep)


def test_goodness_equivalence_inside_eigenspace():
    spec = make_norm_spec(8, 0.0, Seed(102), rank=4)
    sub = sample_two_d_subspace(8, Seed(103), within=spec.basis)
    rep = verify_goodness_equivalence(spec, sub, epsilon=0.005, seed=Seed(104))
    assert rep.applicable and rep.passed
    check_report_flags(rep)


def test_goodness_equivalence_not_applicable_for_distorted_subspace():
    spec = diag_spec([1, 1, 0, 0], eta=0.0)
    sub = two_d_subspace(
        np.array([1.0, 0.0, 0.0, 0.0]), np.array([0.0, 0.0, 1.0, 0.0])
    )
    # ratio sqrt2 > 1.05 kills the forward premise; 0.05 > 1/(9 pi^2)
    # kills the converse premise
    rep = verify_goodness_equivalence(spec, sub, epsilon=0.05, seed=Seed(105))
    assert not rep.applicable and not rep.passed
    check_report_flags(rep)
    worst = 0.06066017177982119  # 3 / (2 sqrt 2) - 1
    assert_same_report(rep, not_applicable_report(
        "goodness_equivalence", "epsilon=0.05", 0.0, worst, 64, (105, 0), 1e-6,
        {"euclidean_ratio": 1.4142135623730951, "projection_norm": 1.0,
         "worst_deficiency": worst, "directions": []},
    ))


def test_goodness_equivalence_deterministic():
    spec = make_norm_spec(10, 1 / 16, Seed(106))
    sub = sample_two_d_subspace(10, Seed(107))
    a = verify_goodness_equivalence(spec, sub, epsilon=0.2, seed=Seed(108))
    b = verify_goodness_equivalence(spec, sub, epsilon=0.2, seed=Seed(108))
    assert a.margin == b.margin and a.measured_value == b.measured_value


@pytest.mark.parametrize("grid, samples", [(512, 64), (512, 32)])
def test_strided_sweep_rows_equal_a_coarse_sweep_bitwise(grid, samples):
    # verify_goodness_equivalence samples every (grid // samples)-th row of
    # its one sweep; for a power-of-two ratio those rows are the rows of a
    # separate samples-point sweep, bit for bit
    for t, (n, within) in enumerate([(8, False), (16, True), (32, False), (32, True)]):
        spec = make_norm_spec(n, 1 / 16, Seed(109).derive("spec", t))
        sub = sample_two_d_subspace(
            n, Seed(109).derive("sub", t), within=spec.basis if within else None
        )
        cols = sub.frame().columns
        fine = circle_sweep(spec, cols, grid)
        coarse = circle_sweep(spec, cols, samples)
        assert np.array_equal(fine.thetas[:: grid // samples], coarse.thetas)
        assert np.array_equal(fine.raw[:: grid // samples], coarse.raw)
        rep = verify_goodness_equivalence(
            spec, sub, epsilon=0.5, samples=samples, grid_size=grid
        )
        assert rep.trials == samples
        assert rep.details["worst_deficiency"] == float(coarse.raw.max())
        assert rep.details["projection_norm"] == float(fine.proj_ratio.max())


# ----------------------------------------------------------------------
# support pairs
# ----------------------------------------------------------------------

def test_support_bracket_frozen_value():
    assert support_bracket(0.01, 2.0) == pytest.approx(1.0912244897959185, abs=1e-15)
    # hand recomputation: (1.01 * 1.02) / 0.98 + 0.04
    assert support_bracket(0.01, 2.0) == pytest.approx(1.01 * 1.02 / 0.98 + 0.04)
    with pytest.raises(ValueError):
        support_bracket(0.5, 2.0)


def test_support_characterization_euclidean_both_directions():
    spec = euclidean_spec(4)
    x = np.array([1.0, 1.0, 1.0, 1.0]) / 2
    rep = verify_support_characterization(spec, x, delta=0.5, seed=Seed(110))
    assert rep.applicable and rep.passed
    assert rep.details["canonical_gap"] == pytest.approx(0.0, abs=1e-12)
    # the canonical pair already sits at gap 0, so the forward search wins
    assert rep.details["binding_direction"] == "forward_pair"
    check_report_flags(rep)


def test_support_characterization_mixed_forward_pair():
    # deficiency 3/(2 sqrt2) - 1 ~ 0.0607 < delta^2/(8 C^2) = 1/16 at delta=1
    spec = diag_spec([1, 0, 0, 0], eta=0.0)
    x = np.array([1.0, 0.0, 1.0, 0.0]) / SQRT2
    rep = verify_support_characterization(spec, x, delta=1.0, seed=Seed(111))
    assert rep.applicable and rep.passed
    assert rep.details["binding_direction"] == "forward_pair"
    assert rep.details["best_pair_gap"] <= 1.0
    check_report_flags(rep)


def test_support_characterization_records_delta_star():
    # at delta = 0.5 the forward promise lapses: threshold 0.015625 < 0.0607
    spec = diag_spec([1, 0, 0, 0], eta=0.0)
    x = np.array([1.0, 0.0, 1.0, 0.0]) / SQRT2
    rep = verify_support_characterization(spec, x, delta=0.5, seed=Seed(112))
    assert rep.applicable and rep.passed  # converse bracket still holds
    assert rep.details["binding_direction"] == "converse_bracket"
    star = math.sqrt(8 * 2.0 * (3 / (2 * SQRT2) - 1))  # C = sqrt2, C^2 = 2
    assert rep.details["delta_star"] == pytest.approx(star, abs=1e-6)
    assert "descent_norm" in rep.details and "descent_target" in rep.details
    check_report_flags(rep)


def test_support_characterization_not_applicable():
    # the canonical pair sits at 0.34 <= delta, but C delta = 1.66 >= 1 rules
    # out the bracket, and the deficiency 0.051 exceeds the forward threshold
    # delta^2 / (8 C^2) = 0.045: neither direction promises anything
    spec = make_norm_spec(16, 0.25, Seed(5))
    x = sample_unit_sphere(16, Seed(6).derive(0))
    rep = verify_support_characterization(spec, x, delta=1.0)
    check_report_flags(rep)
    assert_same_report(rep, not_applicable_report(
        "support_characterization", "delta=1.0", 0.0, 0.05105546723748078, 1,
        (0, 0), 1e-6,
        {"canonical_gap": 0.3412424358812012,
         "deficiency": 0.05105546723748078, "C": 1.6642135623730951,
         "forward_threshold": 0.04513276066808582,
         "delta_star": 1.0635922838290033, "descent_norm": 1.2332744962326965,
         "descent_target": 1.229412605635075, "descent_achieved": False},
    ))


# ----------------------------------------------------------------------
# approximate eigenvectors
# ----------------------------------------------------------------------

def test_approx_eigenvector_pure_eigenvectors():
    spec = make_norm_spec(8, 0.1, Seed(120), rank=4)
    p = spec.basis.columns[:, 0]
    rep = verify_approx_eigenvector(spec.basis, p, nu=2.0)
    assert rep.passed and rep.measured_value == pytest.approx(0.0, abs=1e-15)
    u = spec.basis.columns
    q = np.arange(1.0, 9.0)
    q = q - u @ (u.T @ q)
    q /= np.linalg.norm(q)
    rep_q = verify_approx_eigenvector(spec.basis, q, nu=1.0)
    assert rep_q.passed and rep_q.details["tau"] == pytest.approx(0.0, abs=1e-15)


def test_approx_eigenvector_equality_case():
    # P = diag(1, 0), y = (1,1)/sqrt2, nu = 3/2: tau = 1/4 exactly and
    # min(|Py|^2, |Qy|^2) = 1/2 = 2 tau -- the bound is tight
    spec = diag_spec([1, 0], eta=0.0)
    y = np.array([1.0, 1.0]) / SQRT2
    rep = verify_approx_eigenvector(spec.basis, y, nu=1.5)
    assert rep.applicable
    assert rep.details["tau"] == pytest.approx(0.25, abs=1e-15)
    assert rep.bound_value == pytest.approx(0.5, abs=1e-12)
    assert rep.measured_value == pytest.approx(0.5, abs=1e-12)
    assert abs(rep.margin) <= 1e-12
    assert rep.passed
    assert rep.details["split_identity_gap"] <= 1e-15
    check_report_flags(rep)


def test_approx_eigenvector_split_identity():
    spec = make_norm_spec(6, 0.0, Seed(121), rank=3)
    rng = Seed(122).generator()
    y = rng.standard_normal(6)
    y /= np.linalg.norm(y)
    rep = verify_approx_eigenvector(spec.basis, y, nu=1.3)
    assert rep.details["split_identity_gap"] <= 1e-12


def test_approx_eigenvector_out_of_regime():
    spec = diag_spec([1, 0], eta=0.0)
    y = np.array([1.0, 1.0]) / SQRT2
    rep = verify_approx_eigenvector(spec.basis, y, nu=0.0)  # tau = 2.5
    assert not rep.applicable and not rep.passed
    assert_same_report(rep, not_applicable_report(
        "approx_eigenvector", "nu=0.0", 4.999999999999999, 0.4999999999999999,
        1, None, 1e-12,
        {"tau": 2.4999999999999996, "py_sq": 0.4999999999999999,
         "qy_sq": 0.4999999999999999, "split_identity_gap": 0.0},
    ))
    with pytest.raises(ValueError):
        verify_approx_eigenvector(spec.basis, 2 * y, nu=1.5)
    with pytest.raises(ValueError):
        verify_approx_eigenvector(spec.basis, np.full(2, np.nan), nu=1.5)


# ----------------------------------------------------------------------
# volume bounds
# ----------------------------------------------------------------------

def test_mc_subspace_volume_against_exact_law():
    rep = mc_subspace_volume(2, 1, 0.1, 50_000, Seed(301))
    assert rep.details["oracle"] == pytest.approx(0.06376856085851985, abs=1e-15)
    se = rep.details["standard_error"]
    assert abs(rep.measured_value - rep.details["oracle"]) <= 4 * se
    assert rep.passed
    # the union-bound hypothesis 2^(n+1) gamma >= 1 fails here and is recorded
    assert rep.details["hypothesis_held"] is False
    assert rep.seed == (301, 0)
    check_report_flags(rep)


def test_mc_subspace_volume_saturated_and_moderate():
    rep = mc_subspace_volume(3, 1, 1.0, 1000, Seed(302))
    assert rep.measured_value == 1.0 and rep.passed
    rep2 = mc_subspace_volume(8, 4, 0.25, 20_000, Seed(303))
    assert rep2.passed
    oracle = rep2.details["oracle"]
    assert oracle == pytest.approx(0.01123046875, abs=1e-12)  # I_{1/16}(2,2)
    assert abs(rep2.measured_value - oracle) <= 4 * rep2.details["standard_error"]
    with pytest.raises(ValueError):
        mc_subspace_volume(4, 2, 0.3, 999, Seed(304))


def test_small_support_incidence_support_mode():
    # n=6, m=1, r=1, gamma=0.6: per-axis events are disjoint, so the exact
    # probability is 6 * P[dist(x, axis) <= gamma] = 0.18449664531049498
    rep = small_support_incidence(6, 1, 1, 0.6, "support", 2000, Seed(302))
    oracle = 0.18449664531049498
    se = math.sqrt(oracle * (1 - oracle) / 2000)
    assert abs(rep.measured_value - oracle) <= 4 * se
    assert rep.passed and rep.details["exhaustive"]
    check_report_flags(rep)


def test_small_support_incidence_distinct_mode():
    # n=6, m=3, one magnitude class, gamma=0.05: 32 sign lines; first-order
    # union gives 0.006785515671219903 with overlap slack below 496 p1^2
    rep = small_support_incidence(6, 3, 1, 0.05, "distinct", 4000, Seed(303))
    oracle = 0.006785515671219903
    se = math.sqrt(oracle * (1 - oracle) / 4000)
    overlap = 496 * (oracle / 32) ** 2
    assert abs(rep.measured_value - oracle) <= 4 * se + overlap
    assert rep.measured_value > 0  # the event genuinely occurs at this size
    assert rep.passed and rep.details["exhaustive"]
    check_report_flags(rep)


def test_small_support_incidence_validation():
    with pytest.raises(ValueError):
        small_support_incidence(6, 1, 0, 0.5, "support", 1000, Seed(1))
    with pytest.raises(ValueError):
        small_support_incidence(6, 1, 6, 0.5, "support", 1000, Seed(1))
    with pytest.raises(ValueError):
        small_support_incidence(6, 1, 1, 0.5, "sparse", 1000, Seed(1))
    with pytest.raises(ValueError):
        small_support_incidence(6, 1, 1, 0.5, "support", 10, Seed(1))


def test_range_support_gap():
    rep = verify_range_support_gap(8, 1000, Seed(304))
    assert rep.applicable and rep.passed
    assert rep.bound_value == pytest.approx((2 / 3) ** 8, abs=1e-15)
    assert rep.measured_value == 0.0
    rep_na = verify_range_support_gap(8, 1000, Seed(305), gamma=0.6)
    assert not rep_na.applicable
    assert_same_report(rep_na, not_applicable_report(
        "range_support_gap", "n=8,gamma=0.6", 0.03901844231062336, 1.0, 1000,
        (305, 0), 0.0,
        {"frequency": 1.0, "standard_error": 0.001, "gamma": 0.6,
         "support_budget": 2, "hits": 1000},
    ))
    with pytest.raises(ValueError):
        verify_range_support_gap(2, 1000, Seed(306))


# Per-trial reference loops: one Haar frame and one small SVD per trial and
# configuration, with the early break of distinct mode.  They share only the
# frame sampler, the seeds and the configuration enumerators with the stacked
# implementations.

def _mc_report(lemma_id, instance, bound, hits, trials, seed, details,
               applicable=True):
    freq = hits / trials
    se = math.sqrt(max(freq * (1 - freq), 1.0 / trials) / trials)
    margin = bound + 4.0 * se - freq
    details = {"frequency": freq, "standard_error": se, **details, "hits": hits}
    return LemmaReport(
        lemma_id=lemma_id, instance=instance, bound_value=float(bound),
        measured_value=float(freq),
        margin=float(margin if applicable else -math.inf), trials=trials,
        seed=(seed.master, seed.stream),
        passed=bool(applicable and margin >= 0.0), applicable=applicable,
        tolerance=0.0, details=details,
    )


def reference_small_support_incidence(n, m, size_param, gamma, mode, trials,
                                      seed, budget=20_000):
    exhaustive = True
    if mode == "support":
        r = size_param
        blocks = _support_blocks(n, r)
        if blocks.shape[0] > budget:
            idx = seed.derive("support-sample").generator().choice(
                blocks.shape[0], size=budget, replace=False)
            blocks = blocks[idx]
            exhaustive = False
        log_b = n * math.log(288.0) + (n - m - r) * math.log(gamma)
    else:
        k = size_param
        configs, exhaustive = _distinct_value_configs(n, k, budget, seed)
        log_b = (k * math.log(3.0 / gamma) + n * math.log(48.0 * k)
                 + (n - m) * math.log(gamma))
    bound = min(1.0, math.exp(min(log_b, 50.0)))
    hits = 0
    for t in range(trials):
        f = _haar_frame(n, m, seed.derive("incidence", t).generator())
        if mode == "support":
            smax = np.linalg.svd(f[blocks], compute_uv=False)[:, 0].max()
        else:
            smax = 0.0
            for lab, signs in configs:
                j = int(lab.max()) + 1
                b = np.zeros((n, j))
                b[np.arange(n), lab] = signs
                b /= np.linalg.norm(b, axis=0, keepdims=True)
                sv = np.linalg.svd(b.T @ f, compute_uv=False)
                smax = max(smax, float(sv[0]))
                if smax * smax >= 1.0 - gamma * gamma:
                    break
        if 1.0 - smax * smax <= gamma * gamma:
            hits += 1
    return _mc_report(
        "small_support", f"n={n},m={m},{mode}={size_param},gamma={gamma}",
        bound, hits, trials, seed,
        {"union_bound": bound, "exhaustive": exhaustive, "mode": mode},
    )


def reference_range_support_gap(n, trials, seed, gamma):
    r, k = n // 4, n // 2
    blocks = _support_blocks(n, r)
    thresh = 1.0 - (2 * gamma) ** 2
    hits = 0
    for t in range(trials):
        full = _haar_frame(n, n, seed.derive("range-gap", t).generator())
        hit = False
        for cols in (full[:, :k], full[:, k:]):
            diag = np.sum(cols * cols, axis=1)
            cand = np.sum(diag[blocks], axis=1) >= thresh
            if np.any(cand):
                s = np.linalg.svd(cols[blocks[cand]], compute_uv=False)
                hit = hit or bool(np.any(s[:, 0] ** 2 >= thresh))
        hits += hit
    return _mc_report(
        "range_support_gap", f"n={n},gamma={gamma}", (2.0 / 3.0) ** n, hits,
        trials, seed, {"gamma": gamma, "support_budget": r},
        applicable=2 * gamma < 1,
    )


SUPPORT_CASES = [
    ((6, 3, 1, 0.3, "support"), 20_000),
    ((6, 3, 1, 0.3, "distinct"), 20_000),   # early break on ~78% of trials
    ((6, 3, 2, 0.3, "distinct"), 50),       # sampled configurations
    ((6, 3, 2, 0.3, "support"), 5),         # sampled supports
    ((7, 3, 3, 0.1, "support"), 20_000),    # 3 x 3 blocks, 674 hits
]


@pytest.mark.parametrize("args, budget", SUPPORT_CASES)
def test_small_support_incidence_matches_per_trial_loop(args, budget):
    seed = Seed(2718)
    rep = small_support_incidence(*args, 1001, seed, budget=budget)
    assert rep == reference_small_support_incidence(*args, 1001, seed, budget)
    assert rep.details["exhaustive"] == (budget == 20_000)


@pytest.mark.parametrize("gamma", [0.01, 0.3])
def test_range_support_gap_matches_per_trial_loop(gamma):
    seed = Seed(2719)
    rep = verify_range_support_gap(8, 1001, seed, gamma=gamma)
    assert rep == reference_range_support_gap(8, 1001, seed, gamma)


@pytest.mark.parametrize("n", [9, 12])
def test_range_support_gap_odd_and_wide_match_per_trial_loop(n):
    # n = 9 splits into halves of 4 and 5 columns; n = 12 has 3 x 6 blocks,
    # which have no closed form (244 and 469 hits)
    seed = Seed(2720)
    rep = verify_range_support_gap(n, 1001, seed, gamma=0.05)
    assert rep == reference_range_support_gap(n, 1001, seed, 0.05)


@pytest.mark.parametrize("n", [6, 8, 9, 12])
def test_one_hot_family_product_is_the_gather(n):
    # the kernel multiplies a support family's one-hot rows into the frames
    # as one flat (c r, n) @ f[t] product per trial; the product must be the
    # gather f[:, blocks] bit for bit, on both halves of stacked Haar frames
    # (4 and 5 columns at n = 9)
    full = next(lemmas._trial_frames(n, n, 64, Seed(2721), "one-hot"))
    k = n // 2
    for r in (1, 2, 3):
        blocks = _support_blocks(n, r)
        flat = np.eye(n)[blocks].reshape(-1, n)
        for half in (full[..., :k], full[..., k:]):
            prod = (flat @ half).reshape(64, blocks.shape[0], r, -1)
            gather = half[:, blocks]
            shape = (64, blocks.shape[0], r, half.shape[2])
            assert prod.shape == gather.shape == shape
            assert prod.tobytes() == gather.tobytes()


@pytest.mark.parametrize("rows", [1, 2])
def test_top_sq_takes_the_svd_near_the_threshold(monkeypatch, rows):
    # 1 x 5 and 2 x 5 blocks (and their transposes) with the threshold within
    # 1e-15 of their top singular value squared: the value must come from the
    # SVD, and so must every decision against the threshold
    rng = np.random.default_rng(31 + rows)
    a = rng.standard_normal((4, rows, 5))
    a *= np.array([0.3, 0.5, 0.7, 0.9])[:, None, None] / np.linalg.norm(
        a, axis=(1, 2), keepdims=True)
    calls = []
    svd = np.linalg.svd
    monkeypatch.setattr(np.linalg, "svd",
                        lambda x, **kw: calls.append(x.shape) or svd(x, **kw))
    for block in (a, np.swapaxes(a, 1, 2)):
        s = svd(block, compute_uv=False)[:, 0]
        svd_sq = s * s
        for i, offset in enumerate((-1e-15, 0.0, 5e-16, 1e-15)):
            thresh = svd_sq[i] + offset
            calls.clear()
            got = lemmas._top_sq(block, thresh)
            assert calls == [(1,) + block.shape[1:]]
            assert got[i] == svd_sq[i]
            assert (got >= thresh)[i] == (svd_sq[i] >= thresh)
            others = np.arange(4) != i
            assert np.allclose(got[others], svd_sq[others], rtol=0, atol=1e-15)
    calls.clear()
    far = lemmas._top_sq(a, 0.99)  # every value is <= 0.81: no SVD at all
    assert calls == [] and np.allclose(far, svd_sq, rtol=0, atol=1e-15)


# a margin of 1.0 sends every block to the SVD; the reports must not change

@pytest.mark.parametrize("args, budget", SUPPORT_CASES)
def test_svd_only_support_decisions_match_per_trial_loop(monkeypatch, args,
                                                          budget):
    monkeypatch.setattr(lemmas, "_SIGMA2_MARGIN", 1.0)
    test_small_support_incidence_matches_per_trial_loop(args, budget)


@pytest.mark.parametrize("gamma", [0.01, 0.3])
def test_svd_only_range_decisions_match_per_trial_loop(monkeypatch, gamma):
    monkeypatch.setattr(lemmas, "_SIGMA2_MARGIN", 1.0)
    test_range_support_gap_matches_per_trial_loop(gamma)


def test_monte_carlo_stacks_are_chunk_invariant_and_bounded(monkeypatch):
    # a 16k-float stack cap cuts trials and configurations into many chunks:
    # the reports must not change, and the traced peak must follow the cap
    # (the default cap stacks ~1.8M floats, 14 MB, for the support case)
    cases = [  # 631, 702 and 778 hits of 1000
        lambda: small_support_incidence(10, 5, 3, 0.1, "support", 1000, Seed(9)),
        lambda: small_support_incidence(8, 5, 2, 0.05, "distinct", 1000, Seed(9),
                                        budget=200),
        lambda: verify_range_support_gap(8, 1000, Seed(9), gamma=0.1),
    ]
    full = [case() for case in cases]
    monkeypatch.setattr(lemmas, "_STACK_FLOATS", 1 << 14)
    for case, rep in zip(cases, full):
        tracemalloc.start()
        try:
            assert case() == rep
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2e6


# ----------------------------------------------------------------------
# sign stability along the circle
# ----------------------------------------------------------------------

def test_sign_continuity_counts():
    x = np.array([1.0, 1.0, 1.0, 1.0]) / 2
    rep0 = verify_sign_continuity(x, x, xi=1.0)
    assert rep0.measured_value == 0 and rep0.passed
    y = x.copy()
    y[0] = -0.5
    rep = verify_sign_continuity(x, y, xi=1.0)
    assert rep.details["flips"] == 1
    assert rep.bound_value == pytest.approx(4.0)  # |x-y|^2 n / xi^2 = 1*4/1
    assert rep.passed
    with pytest.raises(ValueError):
        verify_sign_continuity(x, y[:3], xi=1.0)
    check_report_flags(rep)


def test_typicality_probability_against_arc_length():
    sub = two_d_subspace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    rep = verify_typicality_probability(
        sub, xi=0.01, c=0.5, alpha=0.5, theta_trials=20_000, seed=Seed(305)
    )
    # both amplitudes are 1, the tiny threshold is xi/sqrt2, and the two
    # coordinates go tiny on disjoint arcs: P = (4/pi) asin(xi/sqrt2)
    oracle = (4 / math.pi) * math.asin(0.01 / math.sqrt(2))
    se = math.sqrt(oracle * (1 - oracle) / 20_000)
    assert abs(rep.measured_value - oracle) <= 4 * se
    assert rep.bound_value == pytest.approx(0.04)  # xi / (alpha c)
    assert rep.passed and not rep.details["vacuous"]
    check_report_flags(rep)


def test_typicality_probability_vacuous_and_empty():
    sub = two_d_subspace(np.array([1.0, 0.0]), np.array([0.0, 1.0]))
    rep = verify_typicality_probability(
        sub, xi=0.5, c=0.5, alpha=0.5, theta_trials=2000, seed=Seed(306)
    )
    assert rep.details["vacuous"] and rep.passed
    rep_empty = verify_typicality_probability(
        sub, xi=0.1, c=0.5, alpha=3.0, theta_trials=2000, seed=Seed(307)
    )
    assert not rep_empty.applicable


# ----------------------------------------------------------------------
# sign vectors and shears
# ----------------------------------------------------------------------

def test_sign_vector_separation_frozen_square():
    u = np.array([1.0, 1.0, 1.0, 1.0]) / 2
    v = np.array([1.0, 1.0, -1.0, -1.0]) / 2
    rep = verify_sign_vector_separation(u, v)
    # r = s = 2 on m = n = 4: bound 2 sqrt(rs/(mn)) = 1, met exactly at
    # lambda = 0 because u and v are orthogonal unit vectors
    assert rep.bound_value == pytest.approx(1.0, abs=1e-15)
    assert rep.measured_value == pytest.approx(1.0, abs=1e-12)
    assert abs(rep.margin) <= 1e-12
    assert rep.details["lambda"] == pytest.approx(0.0, abs=1e-12)
    assert rep.details["agreements"] == 2 and rep.details["disagreements"] == 2
    assert rep.passed
    check_report_flags(rep)


def test_sign_vector_separation_collinear_cases():
    u = np.array([1.0, -1.0, 0.0, 1.0]) / 2
    for w, lam in ((u, 1.0), (-u, -1.0)):
        rep = verify_sign_vector_separation(u, w)
        assert rep.bound_value == 0.0
        assert rep.measured_value == pytest.approx(0.0, abs=1e-12)
        assert rep.details["lambda"] == pytest.approx(lam, abs=1e-12)
        assert rep.passed


def test_sign_vector_separation_random_is_an_identity():
    rng = Seed(310).generator()
    n = 16
    for _ in range(10):
        e = np.sort(rng.choice(n, size=9, replace=False))
        u = np.zeros(n)
        v = np.zeros(n)
        u[e] = rng.choice([-1.0, 1.0], size=9) / math.sqrt(n)
        v[e] = rng.choice([-1.0, 1.0], size=9) / math.sqrt(n)
        rep = verify_sign_vector_separation(u, v)
        assert rep.measured_value == pytest.approx(rep.bound_value, abs=1e-9)
        assert rep.margin >= -1e-12


def test_sign_vector_separation_validation():
    u = np.array([0.5, 0.5, 0.0, 0.0])
    v = np.array([0.5, 0.0, 0.5, 0.0])
    with pytest.raises(ValueError):
        verify_sign_vector_separation(u, v)  # different supports
    w = np.array([0.5, 0.3, 0.0, 0.0])
    with pytest.raises(ValueError):
        verify_sign_vector_separation(u, w)  # wrong magnitude


def test_shear_collinearity_cases():
    e1 = np.array([1.0, 0.0, 0.0])
    e2 = np.array([0.0, 1.0, 0.0])
    rep = verify_shear_collinearity(1, 0, 0, 1, e1, e2)
    assert rep.bound_value == pytest.approx(1.0)
    assert rep.measured_value == pytest.approx(1.0, abs=1e-12)
    assert rep.passed
    # proportional rows: u is exactly 2v, residual and bound both vanish
    rep0 = verify_shear_collinearity(2, 4, 1, 2, e1, e2)
    assert rep0.bound_value == pytest.approx(0.0, abs=1e-15)
    assert rep0.measured_value == pytest.approx(0.0, abs=1e-12)
    rep_na = verify_shear_collinearity(1, 1, 0, 0, e1, e2)
    assert not rep_na.applicable
    with pytest.raises(ValueError):
        verify_shear_collinearity(1, 0, 0, 1, e1, e1 + e2)


def test_shear_collinearity_random_sweep():
    rng = Seed(311).generator()
    for _ in range(200):
        x = rng.standard_normal(5)
        y = rng.standard_normal(5)
        y -= (x @ y) / (x @ x) * x
        x *= rng.uniform(0.2, 3.0)
        y *= rng.uniform(0.2, 3.0)
        a, b, c, d = rng.uniform(-2, 2, size=4)
        if abs(c) + abs(d) < 1e-6:
            continue
        rep = verify_shear_collinearity(a, b, c, d, x, y)
        if rep.applicable:
            assert rep.margin >= -1e-12


def test_frame_escape():
    rep1 = verify_frame_escape(1, 4, 1000, Seed(312))
    assert rep1.bound_value == pytest.approx(1.0)
    assert rep1.measured_value == pytest.approx(1.0, abs=1e-9)
    rep2 = verify_frame_escape(2, 4, 2000, Seed(313))
    assert rep2.passed
    assert rep2.measured_value >= 1 / SQRT2 - 1e-9
    with pytest.raises(ValueError):
        verify_frame_escape(5, 4, 1000, Seed(314))
    with pytest.raises(ValueError):
        verify_frame_escape(0, 4, 1000, Seed(314))
    with pytest.raises(ValueError):
        verify_frame_escape(4, 8, 0, Seed(1))


# ----------------------------------------------------------------------
# spread of separated sign pairs
# ----------------------------------------------------------------------

def test_sigma_spread_genuine_instance():
    sub = sample_two_d_subspace(16, Seed(60))
    ana = sigma_set(sub, alpha=1.0, xi=0.05, c=0.25, beta=0.25)
    assert ana.k >= 5
    w = sample_frame(16, 4, Seed(60).derive("w"))
    rep = verify_sigma_spread(ana, sub, w)
    assert rep.applicable and rep.passed
    assert rep.bound_value == pytest.approx(0.25 / (2 * math.sqrt(5)))
    assert rep.margin > 0
    check_report_flags(rep)


def test_sigma_spread_too_few_pairs():
    # two big in-phase coordinates force a single sign pair: k = 1 < 5
    n = 16
    u = np.zeros(n)
    u[:2] = math.sqrt(0.5)
    v = np.zeros(n)
    v[2:] = 1.0 / math.sqrt(n - 2)
    sub = two_d_subspace(u, v)
    ana = sigma_set(sub, alpha=2.0, xi=0.5, c=0.5, beta=0.5, grid_size=1024)
    w = sample_frame(n, 4, Seed(42))
    rep = verify_sigma_spread(ana, sub, w)
    assert not rep.applicable
    assert rep.details["reason"] == "fewer than five separated pairs"
    assert_same_report(rep, not_applicable_report(
        "sign_set_spread", "k=1", 0.0, 0.0, 910, None, 1e-9,
        {"k": 1, "beta": 0.5, "reason": "fewer than five separated pairs"},
    ))
    with pytest.raises(ValueError):
        verify_sigma_spread(ana, sub, sample_frame(n, 3, Seed(43)))


# ----------------------------------------------------------------------
# parameter chain and deficiency floor
# ----------------------------------------------------------------------

def test_run_parameter_chain_reference():
    rep = run_parameter_chain()
    assert rep.instance == "reference"
    assert rep.passed
    assert rep.margin == pytest.approx(0.25, abs=1e-12)
    assert rep.details["binding"] == "c08"
    assert rep.details["epsilon_pow2"] == -1017
    check_report_flags(rep)


def test_run_parameter_chain_custom_failure():
    half = ParameterSet(**{k: 0.5 for k in
                           ("gamma", "beta", "eta", "alpha", "rho", "c", "xi", "delta")})
    rep = run_parameter_chain(half)
    assert rep.instance == "custom"
    assert not rep.passed
    assert not rep.details["conditions"]["c07"]["passed"]


def test_goodness_floor_smoke():
    rep = verify_goodness_floor(12, 1 / 16, 6, Seed(306))
    assert rep.passed
    assert rep.details["floor"] > rep.bound_value  # floor beats grid width
    assert rep.details["floor"] == pytest.approx(0.05076437389157484, abs=1e-12)
    assert rep.details["max_over_subspaces"] >= rep.details["floor"]
    # bit-reproducibility of the whole sweep
    again = verify_goodness_floor(12, 1 / 16, 6, Seed(306))
    assert again.details["floor"] == rep.details["floor"]
    check_report_flags(rep)
    # the floor is the least worst deficiency that probe_subspace reports
    spec = make_norm_spec(12, 1 / 16, Seed(306).derive("floor-spec"))
    probes = [
        probe_subspace(
            spec, sample_two_d_subspace(12, Seed(306).derive("floor-sub", t)),
            grid_size=256,
        )
        for t in range(6)
    ]
    assert rep.details["floor"] == min(p.worst_deficiency for p in probes)
