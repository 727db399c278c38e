import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from normlab import (
    Frame,
    Seed,
    make_norm_spec,
    sample_frame,
    sample_unit_sphere,
    subspace_incidence_probability,
)
from normlab.linalg import _haar_frame, _haar_frames, _stream_normals


def projection_of(spec):
    """P = U U^T formed densely from the norm's basis U."""
    u = spec.basis.columns
    return u @ u.T


# ----------------------------------------------------------------------
# Seed
# ----------------------------------------------------------------------

def test_seed_reproduces_streams():
    a = Seed(20240801).generator().standard_normal(16)
    b = Seed(20240801).generator().standard_normal(16)
    assert np.array_equal(a, b)


def test_seed_derive_is_stable_and_distinct():
    s = Seed(7)
    # derivation is a pure hash of (master, stream, tags); frozen value guards
    # against accidental changes to the hashing scheme
    assert s.derive("x").stream == 10950047584765331172
    assert s.derive("x") == s.derive("x")
    assert s.derive("x") != s.derive("y")
    assert s.derive("x", 0) != s.derive("x", 1)
    # derived child chains further
    assert s.derive("x").derive("y") != s.derive("x")


def test_seed_validates_64_bit_range():
    Seed(0)
    Seed(2**64 - 1)
    with pytest.raises(ValueError):
        Seed(-1)
    with pytest.raises(ValueError):
        Seed(2**64)
    with pytest.raises(ValueError):
        Seed(0, stream=2**64)


# ----------------------------------------------------------------------
# Frame / the sampled projection
# ----------------------------------------------------------------------

def test_frame_rejects_non_orthonormal_columns():
    with pytest.raises(ValueError):
        Frame(np.array([[1.0, 1.0], [0.0, 1.0]]))
    with pytest.raises(ValueError):
        Frame(np.ones(3))  # not 2-d
    f = Frame(np.eye(3)[:, :2])
    assert f.n == 3 and f.dim == 2


def test_projection_pair_invariants_sampled():
    spec = make_norm_spec(4, 0.1, Seed(11), rank=2)
    p = projection_of(spec)
    q = np.eye(4) - p
    assert np.linalg.norm(p - p.T) == 0.0
    assert np.linalg.norm(p @ p - p) <= 1e-10 * 4
    assert np.linalg.norm(p @ q) <= 1e-10 * 4  # complementary
    assert abs(np.trace(p) - 2) <= 1e-8
    # spectrum of a rank-2 projection in dimension 4
    eig = np.sort(np.linalg.eigvalsh(p))
    assert np.allclose(eig, [0, 0, 1, 1], atol=1e-8)


def test_norm_spec_basis_bitwise_deterministic():
    a = make_norm_spec(4, 0.1, Seed(123), rank=2)
    b = make_norm_spec(4, 0.5, Seed(123), rank=2)
    assert np.array_equal(a.basis.columns, b.basis.columns)  # eta draws nothing
    # the basis is the Haar frame of the seed's "projection" stream
    frame = sample_frame(4, 2, Seed(123).derive("projection"))
    assert np.array_equal(a.basis.columns, frame.columns)
    c = make_norm_spec(4, 0.1, Seed(124), rank=2)
    assert not np.array_equal(a.basis.columns, c.basis.columns)


@pytest.mark.parametrize("n, k", [(6, 3), (8, 8)])
def test_haar_frames_stack_matches_per_seed_frames(n, k):
    seeds = [Seed(77).derive("stack", t) for t in range(64)]
    stack = _haar_frames(np.stack([s.generator().standard_normal((n, k))
                                   for s in seeds]))
    assert stack.shape == (64, n, k)
    for s, frame in zip(seeds, stack):
        ref = _haar_frame(n, k, s.generator())
        assert np.array_equal(frame.view(np.uint64), ref.view(np.uint64))


EDGE_WORDS = [0, 1, 2**32 - 1, 2**32, 2**64 - 1]


@pytest.mark.parametrize("shape", [(6, 3), (8, 8)])
def test_stream_normals_match_per_seed_generators(shape):
    # derived streams under edge masters, then directly built streams whose
    # spawn key is one 32-bit word (< 2**32) or two
    cases = [(m, [Seed(m, 5).derive("trial", t).stream for t in range(3, 11)])
             for m in EDGE_WORDS]
    cases += [(m, EDGE_WORDS) for m in (7, 2**64 - 1)]
    for master, streams in cases:
        got = _stream_normals(master, streams, shape)
        ref = np.stack([Seed(master, s).generator().standard_normal(shape)
                        for s in streams])
        assert np.array_equal(got.view(np.uint64), ref.view(np.uint64))
    assert _stream_normals(3, [], shape).shape == (0, *shape)


def test_make_norm_spec_rank_domain():
    with pytest.raises(ValueError):
        make_norm_spec(4, 0.1, Seed(1), rank=0)
    with pytest.raises(ValueError):
        make_norm_spec(4, 0.1, Seed(1), rank=5)
    assert make_norm_spec(5, 0.1, Seed(1)).basis.dim == 2  # floor(n / 2)


def test_haar_invariance_of_projected_length():
    # for fixed unit v, E |Pv|^2 = rank/n; mean over 10^4 draws within 0.02
    n, rank, trials = 8, 4, 10_000
    v = np.zeros(n)
    v[0] = 1.0
    seed = Seed(2024)
    acc = np.empty(trials)
    for t in range(trials):
        u = sample_frame(n, rank, seed.derive("haar", t)).columns
        pv = u @ (u.T @ v)
        acc[t] = pv @ pv
    mean = acc.mean()
    print(f"mean |Pv|^2 over {trials} draws: {mean:.5f} (target 0.5)")
    assert abs(mean - 0.5) < 0.02


@settings(max_examples=20, deadline=None)
@given(st.integers(2, 12), st.integers(0, 2**63))
def test_projection_invariants_property(n, master):
    rank = max(1, n // 2)
    p = projection_of(make_norm_spec(n, 0.1, Seed(master)))
    assert np.linalg.norm(p - p.T) == 0.0
    assert np.linalg.norm(p @ p - p) <= 1e-10 * n
    assert abs(np.trace(p) - rank) <= 1e-8


def test_sample_frame_shapes_and_validation():
    f = sample_frame(6, 3, Seed(3))
    assert f.n == 6 and f.dim == 3
    g = f.columns.T @ f.columns
    assert np.max(np.abs(g - np.eye(3))) < 1e-12
    with pytest.raises(ValueError):
        sample_frame(3, 4, Seed(3))
    with pytest.raises(ValueError):
        sample_frame(3, 0, Seed(3))


# ----------------------------------------------------------------------
# sphere sampling
# ----------------------------------------------------------------------

def test_unit_sphere_norms_and_shapes():
    x = sample_unit_sphere(5, Seed(1))
    assert x.shape == (5,)
    assert abs(np.linalg.norm(x) - 1) < 1e-12
    xs = sample_unit_sphere(5, Seed(1), size=100)
    assert xs.shape == (100, 5)
    assert np.max(np.abs(np.linalg.norm(xs, axis=1) - 1)) < 1e-12


def test_unit_sphere_n1_is_sign():
    xs = sample_unit_sphere(1, Seed(9), size=50)
    assert set(np.unique(xs)) <= {-1.0, 1.0}


def test_unit_sphere_coordinate_means():
    # each coordinate has mean 0, variance 1/3 at n=3; 0.02 is ~11 sigma
    xs = sample_unit_sphere(3, Seed(77), size=100_000)
    means = xs.mean(axis=0)
    print("coordinate means:", means)
    assert np.max(np.abs(means)) < 0.02


# ----------------------------------------------------------------------
# incidence probability oracle
# ----------------------------------------------------------------------

def test_incidence_probability_endpoints():
    assert subspace_incidence_probability(6, 3, 1.0) == pytest.approx(1.0, abs=1e-14)
    assert subspace_incidence_probability(6, 3, 0.0) == 0.0


def test_incidence_probability_arc_length_oracle():
    # on S^1 the distance to a line is |sin| of the angle, so the incidence
    # probability is an arc measure computed by hand: (2/pi) asin(gamma)
    got = subspace_incidence_probability(2, 1, 0.1)
    assert got == pytest.approx(0.06376856085851985, abs=1e-15)
    assert got == pytest.approx((2 / np.pi) * np.arcsin(0.1), abs=1e-15)


def test_incidence_probability_domain():
    with pytest.raises(ValueError):
        subspace_incidence_probability(4, 4, 0.5)
    with pytest.raises(ValueError):
        subspace_incidence_probability(4, 0, 0.5)
    with pytest.raises(ValueError):
        subspace_incidence_probability(4, 2, 1.5)


def test_incidence_probability_matches_monte_carlo():
    # module-level contract: frequency within 4 standard errors of the oracle
    n, m, gamma, trials = 6, 3, 0.5, 100_000
    xs = sample_unit_sphere(n, Seed(606), size=trials)
    d2 = np.sum(xs[:, m:] ** 2, axis=1)  # distance to a coordinate m-plane
    freq = float(np.mean(d2 <= gamma * gamma))
    p = subspace_incidence_probability(n, m, gamma)
    se = np.sqrt(p * (1 - p) / trials)
    print(f"freq {freq:.5f} vs oracle {p:.5f} (se {se:.5f})")
    assert abs(freq - p) <= 4 * se
