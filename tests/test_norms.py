import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from normlab import (
    DualNormError,
    Frame,
    Seed,
    dual_brackets,
    dual_norm,
    goodness,
    make_norm_spec,
    norm,
    norm_A,
    projection_ratio_norm,
    sample_unit_sphere,
    spec_from_basis,
    support_functional,
)
from normlab.norms import BRACKET_TOL

SQRT2 = math.sqrt(2.0)


def diag_spec(mask, eta):
    """Norm whose projection is diagonal with the given 0/1 mask."""
    mask = np.asarray(mask, dtype=float)
    return spec_from_basis(Frame(np.eye(mask.size)[:, mask > 0]), eta)


def euclidean_spec(n, eta=0.0):
    return diag_spec(np.zeros(n), eta)


def primal_dual_norm(spec, x):
    """Independent oracle: ||x||_* = 1 / min{ ||y|| : <x, y> = 1 }, by SLSQP.

    Writing y = p - m with p, m >= 0 turns the l1 term into the linear
    w * sum(p + m), so the objective is smooth on the feasible set.  The
    value returned is <x, y> / ||y|| at the solver's point, a lower bound
    on ||x||_* that does not depend on how exactly the constraint holds.
    The quadratic form I + U U^T is formed densely here, from the basis U.
    """
    u, w, n = spec.basis.columns, spec.ell1_weight, x.size
    a = np.eye(n) + u @ u.T
    jac = np.concatenate([x, -x])

    def objective(v):
        y = v[:n] - v[n:]
        ay = a @ y
        q = math.sqrt(float(y @ ay))
        return q + w * v.sum(), np.concatenate([ay / q + w, w - ay / q])

    y0 = x / (x @ x)
    res = minimize(
        objective,
        np.concatenate([np.maximum(y0, 0.0), np.maximum(-y0, 0.0)]),
        jac=True,
        method="SLSQP",
        bounds=[(0.0, None)] * (2 * n),
        constraints=[{"type": "eq", "fun": lambda v: x @ (v[:n] - v[n:]) - 1.0,
                      "jac": lambda v: jac}],
        options={"ftol": 1e-16, "maxiter": 1000},
    )
    y = res.x[:n] - res.x[n:]
    return float(x @ y) / norm(spec, y)


# ----------------------------------------------------------------------
# the norm itself
# ----------------------------------------------------------------------

def test_norm_reduces_to_euclidean():
    spec = euclidean_spec(5)
    x = Seed(1).generator().standard_normal(5)
    assert norm(spec, x) == pytest.approx(np.linalg.norm(x), rel=1e-14)
    assert norm(spec, np.zeros(5)) == 0.0


def test_norm_frozen_example():
    # quadratic part 2 + 1 = 3, ell_1 part (1/4) * (1/2) * 2
    spec = diag_spec([1, 1, 0, 0], eta=0.25)
    x = np.array([1.0, 0.0, 0.0, 1.0])
    assert norm(spec, x) == pytest.approx(math.sqrt(3) + 0.25, abs=1e-15)
    assert norm(spec, x) == pytest.approx(1.9820508075688772, abs=1e-15)


def test_norm_dimension_mismatch():
    spec = diag_spec([1, 0], eta=0.1)
    with pytest.raises(ValueError):
        norm(spec, np.ones(3))


def test_norm_A_frozen_examples():
    spec = diag_spec([1, 1, 0, 0], eta=0.25)
    p_unit = np.array([1.0, 0.0, 0.0, 0.0])
    q_unit = np.array([0.0, 0.0, 1.0, 0.0])
    mixed = np.array([1.0, 0.0, 1.0, 0.0]) / SQRT2
    assert norm_A(spec, p_unit) == pytest.approx(SQRT2, abs=1e-15)
    assert norm_A(spec, q_unit) == pytest.approx(1.0, abs=1e-15)
    assert norm_A(spec, mixed) == pytest.approx(math.sqrt(1.5), abs=1e-15)
    assert norm_A(spec, mixed) == pytest.approx(1.224744871391589, abs=1e-15)


def _array_sizes(obj):
    """Entry counts of every array held by a dataclass, nested ones included."""
    for f in dataclasses.fields(obj):
        val = getattr(obj, f.name)
        if isinstance(val, np.ndarray):
            yield f.name, val.size
        elif dataclasses.is_dataclass(val):
            yield from _array_sizes(val)


def test_norm_spec_stores_only_the_basis():
    n, rank = 64, 32
    spec = make_norm_spec(n, 1 / 16, Seed(64))
    assert [f.name for f in dataclasses.fields(spec)] == ["n", "eta", "basis", "C"]
    sizes = dict(_array_sizes(spec))
    assert sizes and max(sizes.values()) <= n * rank

    # the norm against I + U U^T formed densely from the basis
    u = spec.basis.columns
    assert u.shape == (n, rank)
    x = sample_unit_sphere(n, Seed(65), size=200)
    quad = np.sqrt(np.einsum("ij,ij->i", x, x @ (np.eye(n) + u @ u.T)))
    dense = quad + spec.ell1_weight * np.abs(x).sum(axis=1)
    assert np.max(np.abs(norm(spec, x) / dense - 1.0)) <= 1e-14

    # at eta = 0 the dual is sqrt(<z, (I - U U^T / 2) z>), also formed densely
    spec0 = make_norm_spec(n, 0.0, Seed(64))
    assert np.array_equal(spec0.basis.columns, u)
    closed = np.sqrt(np.einsum("ij,ij->i", x, x @ (np.eye(n) - u @ u.T / 2.0)))
    sol = dual_brackets(spec0, x)
    for end in (sol.lower, sol.upper):
        assert np.max(np.abs(end / closed - 1.0)) <= 1e-14


def test_norm_accepts_row_stacks():
    spec = make_norm_spec(6, 1 / 16, Seed(42))
    xs = sample_unit_sphere(6, Seed(43), size=32)
    batched = norm(spec, xs)
    single = np.array([norm(spec, x) for x in xs])
    assert np.allclose(batched, single, rtol=1e-15)


@settings(max_examples=30, deadline=None)
@given(
    st.integers(2, 10),
    st.floats(0.0, 0.5),
    st.integers(0, 2**32),
    st.floats(-4.0, 4.0),
)
def test_norm_homogeneous_and_triangle(n, eta, master, lam):
    spec = make_norm_spec(n, eta, Seed(master))
    rng = Seed(master).derive("xy").generator()
    x, y = rng.standard_normal((2, n))
    nx, ny, nxy = norm(spec, x), norm(spec, y), norm(spec, x + y)
    assert nxy <= nx + ny + 1e-10 * (1 + nx + ny)
    assert norm(spec, lam * x) == pytest.approx(abs(lam) * nx, rel=1e-12, abs=1e-12)


def test_sandwich_bound_sampled():
    # |x| <= ||x|| <= (sqrt2 + eta) |x| with 1e-9 relative slack
    spec = make_norm_spec(16, 1 / 16, Seed(7))
    xs = Seed(8).generator().standard_normal((2000, 16))
    lens = np.linalg.norm(xs, axis=1)
    vals = norm(spec, xs)
    assert np.all(vals >= lens * (1 - 1e-9))
    assert np.all(vals <= spec.C * lens * (1 + 1e-9))


def test_strongly_2_euclidean_flag():
    assert make_norm_spec(4, 0.5, Seed(1)).strongly_2_euclidean  # 0.5 < 2 - sqrt2
    assert not make_norm_spec(4, 0.6, Seed(1)).strongly_2_euclidean
    with pytest.raises(ValueError):
        make_norm_spec(4, -0.1, Seed(1))


def test_norm_spec_rejects_non_finite_eta():
    for bad in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError):
            make_norm_spec(8, bad, Seed(1))
        with pytest.raises(ValueError):
            spec_from_basis(make_norm_spec(8, 0.0, Seed(1)).basis, bad)


# ----------------------------------------------------------------------
# dual norm
# ----------------------------------------------------------------------

def test_dual_norm_self_dual_euclidean():
    spec = euclidean_spec(6)
    z = Seed(2).generator().standard_normal(6)
    val, y = dual_norm(spec, z)
    assert val == pytest.approx(np.linalg.norm(z), rel=1e-12)
    assert np.linalg.norm(y) <= 1 + 1e-9


def test_dual_norm_projected_direction_closed_form():
    spec = make_norm_spec(6, 0.0, Seed(3), rank=3)
    z = spec.basis.columns[:, 0]  # unit vector in range(P)
    val, y = dual_norm(spec, z)
    assert val == pytest.approx(1 / SQRT2, abs=1e-12)
    assert norm(spec, y) == pytest.approx(1.0, rel=1e-12)


def test_dual_norm_zero_vector():
    spec = make_norm_spec(4, 0.1, Seed(4))
    val, y = dual_norm(spec, np.zeros(4))
    assert val == 0.0 and np.all(y == 0)


def test_dual_norm_against_angular_grid():
    # exhaustive oracle on S^1: one million angles
    spec = make_norm_spec(2, 0.3, Seed(12), rank=1)
    rng = Seed(13).generator()
    thetas = np.arange(1_000_000) * (2 * np.pi / 1_000_000)
    circle = np.column_stack([np.cos(thetas), np.sin(thetas)])
    ratios = circle / norm(spec, circle)[:, None]
    for trial in range(4):
        z = rng.standard_normal(2)
        val, y = dual_norm(spec, z, seed=Seed(14).derive(trial))
        grid_val = float(np.max(ratios @ z))
        assert val == pytest.approx(grid_val, abs=1e-5)
        assert norm(spec, y) <= 1 + 1e-9
        assert z @ y >= val - 1e-9


def test_dual_norm_weak_duality():
    spec = make_norm_spec(8, 0.2, Seed(21))
    rng = Seed(22).generator()
    z = rng.standard_normal(8)
    val, _ = dual_norm(spec, z, seed=Seed(23))
    for _ in range(200):
        y = rng.standard_normal(8)
        y /= norm(spec, y)
        assert z @ y <= val + 1e-7


def test_dual_bracket_encloses_value():
    rng = Seed(31).generator()
    for eta in (0.05, 0.25, 0.5):
        spec = make_norm_spec(8, eta, Seed(32))
        z = rng.standard_normal((5, 8))
        sol = dual_brackets(spec, z)
        assert np.all(sol.upper - sol.lower <= BRACKET_TOL * sol.upper)
        for i in range(5):
            val, _ = dual_norm(spec, z[i], seed=Seed(33))
            oracle = primal_dual_norm(spec, z[i])
            assert sol.lower[i] - BRACKET_TOL <= val <= sol.upper[i] + BRACKET_TOL
            assert sol.lower[i] - 1e-9 <= oracle <= sol.upper[i] + 1e-12
    zero = dual_brackets(spec, np.zeros(8))
    assert zero.lower[0] == zero.upper[0] == 0.0 and not zero.failed.any()


def test_dual_norm_known_point():
    # an ascent-based solver stopped about 1.1e-6 short here
    spec = make_norm_spec(32, 1 / 16, Seed(1))
    x = sample_unit_sphere(32, Seed(2), size=256)[233]
    val, y = dual_norm(spec, x)
    assert val == pytest.approx(0.8069890851212822, abs=1e-12)
    assert norm(spec, y) == pytest.approx(1.0, abs=1e-14)


def test_dual_norm_error_carries_bracket():
    err = DualNormError(0.9, 1.1)
    assert err.lower == 0.9 and err.upper == 1.1


# ----------------------------------------------------------------------
# support functionals
# ----------------------------------------------------------------------

def test_support_functional_frozen_example():
    spec = diag_spec([1, 1, 0, 0], eta=0.25)
    x = np.array([1.0, 0.0, 0.0, 1.0])
    sf = support_functional(spec, x)  # default sign choice: sign(x)
    expected = np.array([2 / math.sqrt(3) + 1 / 8, 0.0, 0.0, 1 / math.sqrt(3) + 1 / 8])
    assert np.allclose(sf.f, expected, atol=1e-15)
    # free entries of the sign choice move only the zero coordinates
    sf2 = support_functional(spec, x, sign_choice=np.array([1.0, 0.5, -1.0, 1.0]))
    expected2 = np.array([2 / math.sqrt(3) + 1 / 8, 1 / 16, -1 / 8, 1 / math.sqrt(3) + 1 / 8])
    assert np.allclose(sf2.f, expected2, atol=1e-15)


def test_support_functional_euclidean_gradient():
    spec = euclidean_spec(5)
    x = Seed(5).generator().standard_normal(5)
    sf = support_functional(spec, x)
    assert np.allclose(sf.f, x / np.linalg.norm(x), atol=1e-14)


def test_support_functional_identities():
    # <f, x> = ||x|| exactly and ||f||* = 1 within solver tolerance
    spec = make_norm_spec(8, 0.2, Seed(41))
    rng = Seed(42).generator()
    for trial in range(5):
        x = rng.standard_normal(8)
        sf = support_functional(spec, x)
        assert sf.f @ x == pytest.approx(norm(spec, x), rel=1e-12)
        val, _ = dual_norm(spec, sf.f, seed=Seed(43).derive(trial))
        assert val == pytest.approx(1.0, abs=1e-6)


def test_support_functional_finite_difference():
    # directional derivative at a smooth point, t = 1e-6, tolerance 1e-4
    spec = make_norm_spec(6, 0.3, Seed(51))
    rng = Seed(52).generator()
    x = rng.standard_normal(6)
    assert np.all(x != 0)
    sf = support_functional(spec, x)
    t = 1e-6
    for _ in range(8):
        v = rng.standard_normal(6)
        fd = (norm(spec, x + t * v) - norm(spec, x)) / t
        assert fd == pytest.approx(sf.f @ v, abs=1e-4)


def test_support_functional_rejects_bad_sign_choices():
    spec = diag_spec([1, 0], eta=0.25)
    x = np.array([1.0, 0.0])
    with pytest.raises(ValueError):
        support_functional(spec, np.zeros(2))
    with pytest.raises(ValueError):
        support_functional(spec, x, sign_choice=np.array([-1.0, 0.0]))
    with pytest.raises(ValueError):
        support_functional(spec, x, sign_choice=np.array([1.0, 1.5]))


# ----------------------------------------------------------------------
# goodness
# ----------------------------------------------------------------------

def test_goodness_euclidean_is_zero():
    spec = euclidean_spec(5)
    x = Seed(61).generator().standard_normal(5)
    cert = goodness(spec, x)
    assert cert.deficiency == 0.0  # clamped at tolerance


def test_goodness_eigenvector_is_zero():
    spec = make_norm_spec(8, 0.0, Seed(62), rank=4)
    x = spec.basis.columns[:, 1]
    assert goodness(spec, x).deficiency == 0.0


def test_goodness_mixed_point_frozen_value():
    # ||x'|| = sqrt(3/2), ||x'||* = sqrt(3)/2, product 3/(2 sqrt 2)
    spec = diag_spec([1, 1, 0, 0], eta=0.0)
    x = np.array([1.0, 0.0, 1.0, 0.0]) / SQRT2
    cert = goodness(spec, x)
    assert cert.deficiency == pytest.approx(3 / (2 * SQRT2) - 1, abs=1e-9)
    assert cert.deficiency == pytest.approx(0.06066017177982121, abs=1e-9)


def test_goodness_scale_invariant_and_witness():
    spec = make_norm_spec(6, 0.2, Seed(63))
    x = Seed(64).generator().standard_normal(6)
    a = goodness(spec, x, seed=Seed(65))
    b = goodness(spec, 3.7 * x, seed=Seed(65))
    assert a.deficiency == pytest.approx(b.deficiency, abs=a.tol)
    # witness certifies the measured value
    lhs = (a.x @ a.witness) * norm(spec, a.x) / norm(spec, a.witness)
    assert lhs >= 1 + a.deficiency - 2 * a.tol
    assert a.raw >= -a.tol


def test_goodness_rejects_zero():
    spec = euclidean_spec(3)
    with pytest.raises(ValueError):
        goodness(spec, np.zeros(3))


# ----------------------------------------------------------------------
# projection operator norms
# ----------------------------------------------------------------------

def test_projection_ratio_norm_euclidean():
    spec = euclidean_spec(6)
    cols = np.linalg.qr(Seed(71).generator().standard_normal((6, 2)))[0]
    assert projection_ratio_norm(spec, cols, seed=Seed(72)) == pytest.approx(
        1.0, abs=1e-7
    )


def test_projection_ratio_norm_inside_eigenspace():
    spec = make_norm_spec(8, 0.0, Seed(73), rank=4)
    cols = spec.basis.columns[:, :2]
    got = projection_ratio_norm(spec, cols, seed=Seed(74))
    assert got == pytest.approx(1.0, abs=1e-6)
    assert got >= 1 - 1e-7  # the projection fixes its own range


def test_projection_ratio_norm_rank_one_and_rank_limit():
    spec = make_norm_spec(8, 0.25, Seed(75))
    u = sample_unit_sphere(8, Seed(76))
    val, _ = dual_norm(spec, u)
    assert projection_ratio_norm(spec, u[:, None]) == val * norm(spec, u)
    cols = np.linalg.qr(Seed(77).generator().standard_normal((8, 3)))[0]
    with pytest.raises(ValueError):
        projection_ratio_norm(spec, cols)
