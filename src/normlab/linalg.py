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

# Tolerances used by constructor validation.  These mirror the contracts the
# test suite enforces; they are deliberately loose multiples of float epsilon.
ORTHONORMALITY_TOL = 1e-10
UNIT_TOL = 1e-12

_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_MASK128 = (1 << 128) - 1

# numpy's SeedSequence hash constants (pool of four 32-bit words) and the
# PCG64 128-bit LCG multiplier, for the batched seeding in _stream_normals.
_SS_INIT_A, _SS_MULT_A = 0x43B0D7E5, 0x931E8875
_SS_INIT_B, _SS_MULT_B = 0x8B51F9DD, 0x58F38DED
_SS_MIX_L, _SS_MIX_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


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


def _derived_streams(seed: Seed, tag: object, lo: int, hi: int) -> list[int]:
    """``[seed.derive(tag, t).stream for t in range(lo, hi)]``, bit for bit.

    The hashed text ``repr((master, stream, tag, t))`` shares everything up
    to t, so that prefix is hashed once and each t only copies the hash and
    appends ``"t)"``; no per-t repr or ``Seed`` is built.
    """
    head = repr((seed.master, seed.stream, tag))[:-1] + ", "
    prefix = hashlib.sha256(head.encode())
    out = []
    for t in range(lo, hi):
        h = prefix.copy()
        h.update(b"%d)" % t)
        out.append(int.from_bytes(h.digest()[:8], "big"))
    return out


def _hashmix(value, hc: int, mult: int):
    """SeedSequence's hash step on ints or uint32 arrays: returns the hashed
    value and the next hash constant."""
    value = value ^ hc
    hc = (hc * mult) & _MASK32
    value = (value * hc) & _MASK32
    return value ^ (value >> 16), hc


def _mix(x, y):
    """SeedSequence's mix of two words, on ints or uint32 arrays."""
    r = (_SS_MIX_L * x - _SS_MIX_R * y) & _MASK32
    return r ^ (r >> 16)


def _stream_normals(
    master: int, streams: list[int], shape: tuple[int, ...]
) -> np.ndarray:
    """Stacked ``Seed(master, s).generator().standard_normal(shape)`` over
    the streams s, shape (len(streams), *shape), bit for bit.

    SeedSequence(entropy=master, spawn_key=(s,)) hashes the master,
    zero-padded to four 32-bit words, into its pool the same way for every
    stream; only the spawn key's one word (s < 2**32) or two words differ.
    Those are mixed in as uint32 array arithmetic over all streams at once,
    followed by generate_state(4, uint64) and PCG64's seeding step, so one
    reused PCG64/Generator pair replaces a SeedSequence, a PCG64 and a
    Generator per stream.
    """
    out = np.empty((len(streams), *shape))
    if not streams:
        return out
    hc, pool = _SS_INIT_A, []
    for word in (master & _MASK32, master >> 32, 0, 0):
        v, hc = _hashmix(word, hc, _SS_MULT_A)
        pool.append(v)
    for src in range(4):
        for dst in range(4):
            if src != dst:
                v, hc = _hashmix(pool[src], hc, _SS_MULT_A)
                pool[dst] = _mix(pool[dst], v)
    s = np.array(streams, dtype=np.uint64)
    low = (s & np.uint64(_MASK32)).astype(np.uint32)
    high = (s >> np.uint64(32)).astype(np.uint32)
    pool = [np.full(len(streams), w, dtype=np.uint32) for w in pool]
    for word, active in ((low, True), (high, high != 0)):
        for dst in range(4):
            v, hc = _hashmix(word, hc, _SS_MULT_A)
            pool[dst] = np.where(active, _mix(pool[dst], v), pool[dst])
    hc, state = _SS_INIT_B, []
    for i in range(8):  # generate_state(4, uint64)
        v, hc = _hashmix(pool[i % 4], hc, _SS_MULT_B)
        state.append(v.astype(np.uint64))
    # little-endian pairs of words make the four uint64 state words
    words = [(state[2 * j + 1] << np.uint64(32)) | state[2 * j] for j in range(4)]
    bitgen = np.random.PCG64(0)
    gen = np.random.Generator(bitgen)
    for i, (s0, s1, i0, i1) in enumerate(zip(*(w.tolist() for w in words))):
        inc = ((((i0 << 64) | i1) << 1) | 1) & _MASK128
        st = ((inc + ((s0 << 64) | s1)) * _PCG_MULT + inc) & _MASK128
        bitgen.state = {
            "bit_generator": "PCG64",
            "state": {"state": st, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }
        gen.standard_normal(shape, out=out[i])
    return out


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


def _haar_frames(g: np.ndarray) -> np.ndarray:
    """Stack of :func:`_haar_frame` frames from stacked draws g, (t, n, k).

    One batched QR factors them all, so frame i equals ``_haar_frame(n, k,
    rng)`` bit for bit when ``g[i]`` is that rng's ``standard_normal((n, k))``.
    """
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
    from scipy.special import betainc  # deferred: scipy.special is most of import time

    return float(betainc((n - m) / 2.0, m / 2.0, gamma * gamma))
