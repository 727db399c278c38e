"""Probes of 2-dimensional subspaces under the randomized norm.

A 2-D subspace is carried by an orthonormal pair (u, v) and swept along the
unit circle x(theta) = u sin(theta) + v cos(theta).  Coordinatewise this is
x(theta)_i = r_i sin(theta + phi_i), so each coordinate is a sinusoid with
amplitude r_i and phase phi_i; the amplitudes satisfy sum r_i^2 = 2.  All the
quantities probed here (Euclidean distortion along the circle, operator norm
of the orthogonal projection, worst goodness deficiency, the sign-pattern
geometry of the large-amplitude coordinates) are functions of that sweep.

Grid maxima always carry a Lipschitz enclosure: the norm along the circle is
(sqrt(2) + eta)-Lipschitz in theta and the deficiency is Lipschitz with twice
that constant, so a grid of spacing h pins every reported extremum to within
an explicit width.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .linalg import Frame, Seed
from .norms import NormSpec, circle_sweep, norm

_ORTHO_TOL = 1e-10


@dataclass(frozen=True)
class TwoDSubspace:
    """Orthonormal pair (u, v) with the derived amplitude/phase picture."""

    u: np.ndarray
    v: np.ndarray
    r: np.ndarray
    phi: np.ndarray

    @property
    def n(self) -> int:
        return self.u.shape[0]

    def point(self, theta) -> np.ndarray:
        """x(theta) = u sin(theta) + v cos(theta); theta may be an array."""
        th = np.asarray(theta, dtype=float)
        s, c = np.sin(th), np.cos(th)
        if th.ndim == 0:
            return self.u * s + self.v * c
        return np.outer(s, self.u) + np.outer(c, self.v)

    def frame(self) -> Frame:
        return Frame(np.column_stack([self.u, self.v]))


def two_d_subspace(u: np.ndarray, v: np.ndarray) -> TwoDSubspace:
    """Validate orthonormality of (u, v) and derive amplitudes and phases."""
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u and v must be vectors of the same length")
    if (
        abs(u @ u - 1) > _ORTHO_TOL
        or abs(v @ v - 1) > _ORTHO_TOL
        or abs(u @ v) > _ORTHO_TOL
    ):
        raise ValueError("u, v must be orthonormal to working precision")
    r = np.hypot(u, v)
    phi = np.where(r > 0, np.arctan2(v, u), 0.0)
    phi = np.mod(phi, 2 * np.pi)
    return TwoDSubspace(u=u, v=v, r=r, phi=phi)


def span_two(a: np.ndarray, b: np.ndarray) -> TwoDSubspace:
    """Subspace spanned by two independent vectors, orthonormalized."""
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    an = np.linalg.norm(a)
    if an == 0:
        raise ValueError("first spanning vector is zero")
    u = a / an
    w = b - (u @ b) * u
    wn = np.linalg.norm(w)
    if wn <= 1e-12 * max(1.0, np.linalg.norm(b)):
        raise ValueError("spanning vectors are numerically dependent")
    return two_d_subspace(u, w / wn)


def sample_two_d_subspace(
    n: int, seed: Seed, within: Frame | None = None
) -> TwoDSubspace:
    """Rotation-invariant random 2-D subspace, optionally inside a given span."""
    rng = seed.generator()
    if within is None:
        g = rng.standard_normal((n, 2))
    else:
        g = within.columns @ rng.standard_normal((within.dim, 2))
    return span_two(g[:, 0], g[:, 1])


@dataclass(frozen=True)
class EuclideanEstimate:
    """Distortion of the norm along the subspace circle, with enclosure.

    ``ratio`` is max/min of ||x(theta)|| over the grid and ``scale_t`` the
    grid minimum (the Euclidean comparison scale).  The true ratio lies in
    [ratio, ratio_upper]; ``width`` is the Lipschitz slack C * h / 2 carried
    by each grid extremum.
    """

    ratio: float
    scale_t: float
    ratio_upper: float
    width: float
    grid_size: int


def euclidean_constant(
    spec: NormSpec, sub: TwoDSubspace, grid_size: int = 2048
) -> EuclideanEstimate:
    """Best Euclidean-likeness constant of the subspace, from a theta grid.

    The sweep covers [0, pi) only: x(theta + pi) = -x(theta), so norms repeat
    with period pi.
    """
    if grid_size < 256:
        raise ValueError("grid_size below 256 gives useless enclosures")
    thetas = np.arange(grid_size) * (np.pi / grid_size)
    vals = norm(spec, sub.point(thetas))
    width = spec.C * (np.pi / grid_size) / 2.0
    hi, lo = float(vals.max()), float(vals.min())
    upper = (hi + width) / max(lo - width, 1e-300)
    return EuclideanEstimate(
        ratio=hi / lo,
        scale_t=lo,
        ratio_upper=float(upper),
        width=float(width),
        grid_size=grid_size,
    )


def e_set(sub: TwoDSubspace, alpha: float) -> np.ndarray:
    """Indices of large-amplitude coordinates: r_i >= alpha / sqrt(n).

    Dropping the complement moves any unit vector of the subspace by less
    than alpha, since the discarded amplitudes have squared sum below
    alpha^2.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return np.flatnonzero(sub.r >= alpha / math.sqrt(sub.n))


def _typicality(
    sub: TwoDSubspace, thetas: np.ndarray, e: np.ndarray, xi: float, c: float
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """x(theta) on E for every angle, as (G, |E|), with two masks.

    ``crowded``: at least c |E| of those coordinates are tiny.  ``typical``:
    not crowded and no exact sign change (the rule of :func:`typical_check`).
    """
    xe = sub.point(thetas)[:, e]
    tiny = np.abs(xe) < xi / math.sqrt(sub.n)
    crowded = np.count_nonzero(tiny, axis=1) >= c * e.size
    at_sign_change = np.any(np.fmod(thetas[:, None] + sub.phi[e], np.pi) == 0, axis=1)
    return xe, crowded, ~(crowded | at_sign_change)


def typical_check(
    sub: TwoDSubspace, theta: float, xi: float, c: float, alpha: float
) -> bool:
    """Is theta a typical angle for the large-amplitude coordinate set?

    Typicality requires (i) fewer than c * |E| of the large-amplitude
    coordinates to be tiny (below xi / sqrt(n)) at x(theta), and (ii) no
    large-amplitude coordinate to sit exactly at a sign change, detected by
    exact floating comparison of the phase theta + phi_i against multiples
    of pi, not by a tolerance band.
    """
    thetas = np.array([theta], dtype=float)
    return bool(_typicality(sub, thetas, e_set(sub, alpha), xi, c)[2][0])


@dataclass(frozen=True)
class SignSetAnalysis:
    """Sign-pattern geometry of the sweep, restricted to large amplitudes.

    ``sigma_samples`` holds n**-0.5 * (sign of x(theta) on the E set, zero
    elsewhere) for every typical theta of the grid.  ``V`` is a maximal
    centrally symmetric beta-separated subset, stored with the k pair
    representatives (in grid order) first and their k antipodes after, so
    ``V[:k]`` are the representatives and len(V) == 2 k.  ``kappa`` is the
    realized covering radius of V over the samples.
    """

    sigma_samples: np.ndarray      # (T, n)
    V: np.ndarray                  # (2k, n): representatives then antipodes
    v_thetas: np.ndarray           # (2k,)
    k: int
    kappa: float
    beta: float
    e_indices: np.ndarray
    empty: bool

    @property
    def n(self) -> int:
        return self.sigma_samples.shape[1] if self.sigma_samples.size else 0

    @property
    def representatives(self) -> np.ndarray:
        return self.V[: self.k]


def _pair_min_dist(a: np.ndarray, b: np.ndarray) -> float:
    return min(
        float(np.linalg.norm(a - b)),
        float(np.linalg.norm(a + b)),
    )


def sigma_set(
    sub: TwoDSubspace,
    alpha: float,
    xi: float,
    c: float,
    beta: float,
    grid_size: int = 2048,
) -> SignSetAnalysis:
    """Collect sign patterns over typical angles and separate them.

    Sweeps theta over [0, 2 pi) so the antipodal pairs appear explicitly.
    Each E coordinate changes sign twice per turn, so the typical angles
    show at most 2 |E| distinct patterns.  The greedy pass and the covering
    radius run over those distinct patterns in order of first appearance:
    a pattern is kept when it is at least beta away from every kept pattern
    and every kept antipode, and a repeat never is.  An empty typical set
    is reported, not raised: it flags that the tiny-coordinate budget
    failed everywhere.
    """
    if not 0 < beta <= 1:
        raise ValueError("beta must lie in (0, 1]")
    n = sub.n
    e = e_set(sub, alpha)
    thetas = np.arange(grid_size) * (2 * np.pi / grid_size)
    xe, _, typical = _typicality(sub, thetas, e, xi, c)
    ths = thetas[typical]
    sam = np.zeros((ths.size, n))
    sam[:, e] = np.sign(xe[typical]) / math.sqrt(n)
    first = np.sort(np.unique(sam, axis=0, return_index=True)[1])
    pats = sam[first]

    reps: list[int] = []
    for j in range(pats.shape[0]):
        if all(_pair_min_dist(pats[j], pats[i]) >= beta for i in reps):
            reps.append(j)
    # antipodes after the representatives, their thetas shifted by pi
    kept = first[reps]
    v = np.vstack([sam[kept], -sam[kept]])
    vth = np.concatenate([ths[kept], np.mod(ths[kept] + np.pi, 2 * np.pi)])
    d = np.linalg.norm(pats[:, None, :] - v[None, :, :], axis=2)
    return SignSetAnalysis(
        sigma_samples=sam,
        V=v,
        v_thetas=vth,
        k=len(reps),
        kappa=float(d.min(axis=1).max()) if reps else math.inf,
        beta=beta,
        e_indices=e,
        empty=not reps,
    )


def cyclic_interval_signs(analysis: SignSetAnalysis, sub: TwoDSubspace) -> bool:
    """Do all V members have contiguous positive blocks in phase order?

    Sign patterns that genuinely come from the sweep are +1 exactly on a
    cyclic interval of the E set once its coordinates are sorted by phase;
    synthetic inputs that fail this cannot have come from any sweep.
    """
    e = analysis.e_indices
    if e.size == 0 or analysis.k == 0:
        return False
    order = e[np.argsort(sub.phi[e])]
    for row in analysis.V:
        s = np.sign(row[order])
        if np.any(s == 0):
            return False
        flips = int(np.sum(s != np.roll(s, 1)))
        if flips not in (0, 2):
            return False
    return True


@dataclass(frozen=True)
class SubspaceReport:
    """One subspace's probe summary, as emitted in run reports."""

    index: int
    euclidean_ratio: float
    ratio_upper: float
    scale_t: float
    proj_norm: float
    worst_theta: float
    worst_deficiency: float
    deficiency_width: float
    e_set_size: int
    k: int
    kappa: float


def probe_subspace(
    spec: NormSpec,
    sub: TwoDSubspace,
    index: int = 0,
    grid_size: int = 512,
    tol: float = 1e-7,
    seed: Seed | None = None,
) -> SubspaceReport:
    """Run the full battery on one subspace and fold it into a report.

    One certified dual solve over a theta grid on [0, pi)
    (:func:`circle_sweep`) gives both the worst goodness deficiency and the
    projection norm.  The largest grid deficiency is reported, clamped to
    zero below ``tol``; it is 2C-Lipschitz along the circle, so the true
    supremum exceeds the report by at most ``deficiency_width`` = C * h.
    The sign-set columns come from :func:`sigma_set` with alpha = 1,
    xi = 0.05, c = 0.25 and beta = 0.25.  Raises :class:`DualNormError` if
    any grid point cannot be certified.  ``seed`` is accepted and ignored:
    every probe is deterministic.
    """
    if grid_size < 64:
        raise ValueError("grid_size below 64 gives useless enclosures")
    ec = euclidean_constant(spec, sub, grid_size=max(grid_size, 256))
    sweep = circle_sweep(spec, sub.frame().columns, grid_size)
    j = int(np.argmax(sweep.raw))
    raw = float(sweep.raw[j])
    sig = sigma_set(
        sub, alpha=1.0, xi=0.05, c=0.25, beta=0.25, grid_size=max(grid_size, 256)
    )
    return SubspaceReport(
        index=index,
        euclidean_ratio=ec.ratio,
        ratio_upper=ec.ratio_upper,
        scale_t=ec.scale_t,
        proj_norm=float(sweep.proj_ratio.max()),
        worst_theta=float(sweep.thetas[j]),
        worst_deficiency=raw if raw >= tol else 0.0,
        deficiency_width=float(spec.C * (np.pi / grid_size)),
        e_set_size=int(sig.e_indices.size),
        k=sig.k,
        kappa=sig.kappa if math.isfinite(sig.kappa) else -1.0,
    )
