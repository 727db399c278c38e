"""Randomized linear-algebra substrate: seeded streams and Haar frames.

Everything downstream (norm construction, subspace probes, Monte Carlo
verifiers) draws its randomness through :class:`Seed` so that every run is
reproducible bit for bit.  The geometric primitives kept here are the ones
with clean, independently checkable contracts: orthonormal frames sampled
from the rotation-invariant ensemble (a frame U carries the orthogonal
projection U U^T onto its span), uniform points of the sphere, and the exact
distribution of the distance from a random unit vector to a fixed subspace.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass

import numpy as np
from scipy.special import betainc

# Tolerances used by constructor validation.  These mirror the contracts the
# test suite enforces; they are deliberately loose multiples of float epsilon.
ORTHONORMALITY_TOL = 1e-10
UNIT_TOL = 1e-12

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class Seed:
    """Master entropy plus a derived stream index.

    Independent consumers (one per section of a run, one per trial) derive
    their own stream with :meth:`derive`, which hashes the tags into a fresh
    64-bit stream id.  Identical (master, stream) pairs always produce
    identical generators.
    """

    master: int
    stream: int = 0

    def __post_init__(self):
        if not 0 <= self.master <= _MASK64:
            raise ValueError("master seed must fit in 64 bits")
        if not 0 <= self.stream <= _MASK64:
            raise ValueError("stream id must fit in 64 bits")

    def derive(self, *tags: object) -> "Seed":
        """Child seed whose stream hashes (master, stream, *tags)."""
        h = hashlib.sha256()
        h.update(repr((self.master, self.stream) + tags).encode())
        return Seed(self.master, int.from_bytes(h.digest()[:8], "big"))

    def generator(self) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence(entropy=self.master, spawn_key=(self.stream,))
        )


@dataclass(frozen=True)
class Frame:
    """Orthonormal columns spanning a subspace of R^n."""

    columns: np.ndarray  # shape (n, k)

    def __post_init__(self):
        cols = np.asarray(self.columns, dtype=float)
        if cols.ndim != 2:
            raise ValueError("frame needs a 2-d array of columns")
        if cols.shape[1]:  # zero columns = the zero subspace, trivially fine
            gram = cols.T @ cols
            if np.max(np.abs(gram - np.eye(cols.shape[1]))) > ORTHONORMALITY_TOL:
                raise ValueError("columns are not orthonormal to working precision")
        object.__setattr__(self, "columns", cols)

    @property
    def n(self) -> int:
        return self.columns.shape[0]

    @property
    def dim(self) -> int:
        return self.columns.shape[1]


def _haar_frame(n: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """Orthonormal n x k frame from the rotation-invariant ensemble.

    QR of a Gaussian matrix, with the sign convention that makes the R factor
    have a positive diagonal; that convention is what makes the distribution
    exactly invariant rather than merely invariant up to column signs.
    """
    g = rng.standard_normal((n, k))
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diag(r))
    signs[signs == 0] = 1.0
    return q * signs


def _haar_frames(n: int, k: int, rngs) -> np.ndarray:
    """Stack of :func:`_haar_frame` draws, shape (len(rngs), n, k).

    Each generator makes the same single Gaussian draw as in _haar_frame and
    one batched QR factors them all, so frame i equals
    ``_haar_frame(n, k, rngs[i])`` bit for bit.
    """
    g = np.stack([rng.standard_normal((n, k)) for rng in rngs])
    q, r = np.linalg.qr(g)
    signs = np.sign(np.diagonal(r, axis1=-2, axis2=-1))
    signs[signs == 0] = 1.0
    return q * signs[:, None, :]


def sample_frame(n: int, k: int, seed: Seed) -> Frame:
    """Rotation-invariant random k-dimensional frame in R^n."""
    if not 0 < k <= n:
        raise ValueError("need 0 < k <= n")
    return Frame(_haar_frame(n, k, seed.generator()))


def sample_unit_sphere(n: int, seed: Seed, size: int | None = None) -> np.ndarray:
    """Uniform point(s) on the Euclidean unit sphere of R^n.

    Returns shape (n,) when ``size`` is None, else (size, n).  Norm of each
    row is 1 to within UNIT_TOL.
    """
    rng = seed.generator()
    if size is None:
        x = rng.standard_normal(n)
        return x / np.linalg.norm(x)
    x = rng.standard_normal((size, n))
    return x / np.linalg.norm(x, axis=1, keepdims=True)


def subspace_incidence_probability(n: int, m: int, gamma: float) -> float:
    """Exact P[d(x, Y) <= gamma] for uniform unit x and a fixed m-dim Y.

    The squared distance from a uniform point of S^{n-1} to an m-dimensional
    subspace is Beta((n-m)/2, m/2) distributed, so the probability is the
    regularized incomplete beta function evaluated at gamma^2.
    """
    if not 1 <= m < n:
        raise ValueError("need 1 <= m < n")
    if not 0 <= gamma <= 1:
        raise ValueError("gamma must lie in [0, 1]")
    return float(betainc((n - m) / 2.0, m / 2.0, gamma * gamma))
