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
from dataclasses import dataclass, replace

import numpy as np

from .linalg import Frame, Seed
from .norms import (
    CircleSweep,
    GoodnessCertificate,
    NormSpec,
    circle_sweep,
    norm,
    norm_A,
    projection_ratio_norm,
)

_ORTHO_TOL = 1e-10
_UNIT_TOL = 1e-9


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
    theta_max: float
    theta_min: float
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
    imax, imin = int(np.argmax(vals)), int(np.argmin(vals))
    width = spec.C * (np.pi / grid_size) / 2.0
    hi, lo = float(vals[imax]), float(vals[imin])
    upper = (hi + width) / max(lo - width, 1e-300)
    return EuclideanEstimate(
        ratio=hi / lo,
        scale_t=lo,
        ratio_upper=float(upper),
        width=float(width),
        theta_max=float(thetas[imax]),
        theta_min=float(thetas[imin]),
        grid_size=grid_size,
    )


def projection_op_norm(spec: NormSpec, sub: TwoDSubspace, grid_size: int = 512) -> float:
    """Operator norm of the orthogonal projection onto the subspace.

    The grid maximum of :func:`projection_ratio_norm` over ``grid_size``
    angles: a lower bound attained at an explicit point.
    """
    return projection_ratio_norm(spec, sub.frame().columns, grid_size=grid_size)


@dataclass(frozen=True)
class WorstGoodness:
    """Grid maximum of the goodness deficiency along the subspace circle.

    ``failures`` stays empty: a grid point whose dual norm cannot be
    certified raises :class:`DualNormError` instead of being skipped.
    """

    theta: float
    deficiency: float
    width: float          # Lipschitz enclosure: true max <= deficiency + width
    grid_size: int
    certificate: GoodnessCertificate
    failures: tuple = ()


def _sweep(spec: NormSpec, sub: TwoDSubspace, grid_size: int) -> CircleSweep:
    if grid_size < 64:
        raise ValueError("grid_size below 64 gives useless enclosures")
    return circle_sweep(spec, sub.frame().columns, grid_size)


def _worst(spec: NormSpec, sweep: CircleSweep, tol: float) -> WorstGoodness:
    j = int(np.argmax(sweep.raw))
    cert = GoodnessCertificate.from_raw(
        sweep.points[j], sweep.raw[j], sweep.dual.witness[j], tol
    )
    grid_size = sweep.thetas.size
    return WorstGoodness(
        theta=float(sweep.thetas[j]),
        deficiency=cert.deficiency,
        width=float(spec.C * (np.pi / grid_size)),
        grid_size=grid_size,
        certificate=cert,
    )


def worst_goodness(
    spec: NormSpec,
    sub: TwoDSubspace,
    grid_size: int = 512,
    tol: float = 1e-7,
) -> WorstGoodness:
    """Largest goodness deficiency over a theta grid on [0, pi).

    One certified dual solve over the whole grid (:func:`circle_sweep`);
    the largest grid value is reported, clamped to zero below ``tol``.  The
    deficiency is 2C-Lipschitz along the circle, so the true supremum exceeds
    the report by at most ``width`` = C * h.  Raises :class:`DualNormError`
    if any grid point cannot be certified.
    """
    return _worst(spec, _sweep(spec, sub, grid_size), tol)


def e_set(sub: TwoDSubspace, alpha: float) -> np.ndarray:
    """Indices of large-amplitude coordinates: r_i >= alpha / sqrt(n).

    Dropping the complement moves any unit vector of the subspace by less
    than alpha, since the discarded amplitudes have squared sum below
    alpha^2.
    """
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    return np.flatnonzero(sub.r >= alpha / math.sqrt(sub.n))


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
    e = e_set(sub, alpha)
    if e.size == 0:
        return False
    x = sub.point(theta)
    tiny = np.abs(x[e]) < xi / math.sqrt(sub.n)
    if int(tiny.sum()) >= c * e.size:
        return False
    for i in e:
        if math.fmod(theta + float(sub.phi[i]), math.pi) == 0.0:
            return False
    return True


@dataclass(frozen=True)
class SignSetAnalysis:
    """Sign-pattern geometry of the sweep, restricted to large amplitudes.

    ``sigma_samples`` holds n**-0.5 * (sign of x(theta) on the E set, zero
    elsewhere) for every typical theta of the grid.  ``V`` is a maximal
    centrally symmetric beta-separated subset, stored with the k pair
    representatives (in grid order) first and their k antipodes after, so
    ``V[:k]`` are the representatives and len(V) == 2 k.  ``kappa`` is the
    realized covering radius of V over the samples and ``kappa_level`` the
    guaranteed net radius (beta on construction, growing fourfold per
    pruning round).
    """

    sigma_samples: np.ndarray      # (T, n)
    sample_thetas: np.ndarray      # (T,)
    V: np.ndarray                  # (2k, n): representatives then antipodes
    v_thetas: np.ndarray           # (2k,)
    k: int
    kappa: float
    kappa_level: float
    beta: float
    e_indices: np.ndarray
    empty: bool
    prune_rounds: int = 0

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
    spec: NormSpec,
    sub: TwoDSubspace,
    alpha: float,
    xi: float,
    c: float,
    beta: float,
    grid_size: int = 2048,
) -> SignSetAnalysis:
    """Collect sign patterns over typical angles and separate them.

    Sweeps theta over [0, 2 pi) so the antipodal pairs appear explicitly;
    the greedy pass keeps a pattern when it is at least beta away from every
    kept pattern and every kept antipode.  An empty typical set is reported,
    not raised: it flags that the tiny-coordinate budget failed everywhere.
    """
    if not 0 < beta <= 1:
        raise ValueError("beta must lie in (0, 1]")
    n = sub.n
    e = e_set(sub, alpha)
    thetas = np.arange(grid_size) * (2 * np.pi / grid_size)
    samples, kept_thetas = [], []
    for th in thetas:
        if not typical_check(sub, float(th), xi, c, alpha):
            continue
        x = sub.point(float(th))
        s = np.zeros(n)
        s[e] = np.sign(x[e]) / math.sqrt(n)
        samples.append(s)
        kept_thetas.append(float(th))
    if not samples:
        return SignSetAnalysis(
            sigma_samples=np.zeros((0, n)),
            sample_thetas=np.zeros(0),
            V=np.zeros((0, n)),
            v_thetas=np.zeros(0),
            k=0,
            kappa=math.inf,
            kappa_level=beta,
            beta=beta,
            e_indices=e,
            empty=True,
        )
    sam = np.asarray(samples)
    ths = np.asarray(kept_thetas)

    reps: list[int] = []
    for j in range(sam.shape[0]):
        if all(_pair_min_dist(sam[j], sam[i]) >= beta for i in reps):
            reps.append(j)
    v, vth = _symmetrize(sam[reps], ths[reps])
    d = np.linalg.norm(sam[:, None, :] - v[None, :, :], axis=2)
    return SignSetAnalysis(
        sigma_samples=sam,
        sample_thetas=ths,
        V=v,
        v_thetas=vth,
        k=len(reps),
        kappa=float(d.min(axis=1).max()),
        kappa_level=beta,
        beta=beta,
        e_indices=e,
        empty=False,
    )


def _symmetrize(reps: np.ndarray, rep_thetas: np.ndarray):
    """Stack antipodes after the representatives, shifting thetas by pi."""
    if reps.size == 0:
        return reps.reshape(0, reps.shape[1] if reps.ndim == 2 else 0), rep_thetas
    v = np.vstack([reps, -reps])
    vth = np.concatenate([rep_thetas, np.mod(rep_thetas + np.pi, 2 * np.pi)])
    return v, vth


def prune_separated(analysis: SignSetAnalysis, max_rounds: int = 3) -> SignSetAnalysis:
    """Thin V to a 3*level-separated net, quadrupling the level per removal.

    Each round finds the closest pair of representatives (antipodal images
    included); if it is closer than 3 times the current net level, the
    lexicographically later member is dropped together with its antipode
    and the level grows fourfold (points covered by the removed pair are
    still covered through the closest surviving pair).  The cascade runs the
    separation thresholds 3 beta, 12 beta, 48 beta and then stops, so at
    most ``max_rounds`` pairs are removed; it also stops when a single pair
    remains.
    """
    v = [analysis.representatives[i] for i in range(analysis.k)]
    vth = list(analysis.v_thetas[: analysis.k])
    level = analysis.kappa_level
    rounds = analysis.prune_rounds
    while len(v) >= 2 and rounds < max_rounds:
        closest, pair = math.inf, None
        for i in range(len(v)):
            for j in range(i + 1, len(v)):
                dij = _pair_min_dist(v[i], v[j])
                if dij < closest:
                    closest, pair = dij, (i, j)
        if closest >= 3 * level:
            break
        i, j = pair
        drop = j if tuple(v[j]) > tuple(v[i]) else i
        del v[drop]
        del vth[drop]
        level *= 4
        rounds += 1
    if v:
        new_v, new_th = _symmetrize(np.asarray(v), np.asarray(vth))
    else:
        new_v = np.zeros((0, analysis.sigma_samples.shape[1]))
        new_th = np.zeros(0)
    if analysis.sigma_samples.size and new_v.size:
        d = np.linalg.norm(
            analysis.sigma_samples[:, None, :] - new_v[None, :, :], axis=2
        )
        kappa = float(d.min(axis=1).max())
    else:
        kappa = math.inf
    return replace(
        analysis,
        V=new_v,
        v_thetas=new_th,
        k=len(v),
        kappa=kappa,
        kappa_level=level,
        prune_rounds=rounds,
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
class SignDecomposition:
    """Least-squares split of the weighted sign vector over eigen-slices.

    For unit x in the subspace, eta * n**-0.5 * sign(x) is regressed on
    span{Px, Qx} (coefficients eta * alpha_y, eta * beta_y) and on the
    4-dimensional span{Pu, Pv, Qu, Qv} (whose residual is the quantity the
    theory controls).  ``lam`` is the multiplier consistent with the two
    coefficients; ``lam_gap`` how far the two readings disagree.
    """

    x: np.ndarray
    lam: float
    alpha_y: float
    beta_y: float
    residual: float        # distance to the 4-dimensional slice span
    pair_residual: float   # distance to span{Px, Qx}
    lam_gap: float

    @property
    def inverse_multiplier(self) -> float:
        """1 / lam; recorded for reference, no check depends on it."""
        return 1.0 / self.lam if self.lam != 0 else math.inf


def sign_decomposition(
    spec: NormSpec, sub: TwoDSubspace, x: np.ndarray
) -> SignDecomposition:
    """Decompose the weighted sign vector of a unit point of the subspace.

    At eta = 0 the target vector is zero and the decomposition is trivial:
    zero coefficients and zero residuals.
    """
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > _UNIT_TOL:
        raise ValueError("x must be a unit vector")
    fr = sub.frame()
    if np.linalg.norm(x - fr.columns @ (fr.columns.T @ x)) > _UNIT_TOL:
        raise ValueError("x must lie in the subspace")
    target = spec.ell1_weight * np.sign(x)
    p, q = spec.proj.P, spec.proj.Q
    if spec.eta == 0:
        alpha_y = beta_y = 0.0
        pair_residual = residual = 0.0
    else:
        b2 = np.column_stack([p @ x, q @ x])
        coef2, *_ = np.linalg.lstsq(b2, target, rcond=None)
        pair_residual = float(np.linalg.norm(target - b2 @ coef2))
        b4 = np.column_stack([p @ sub.u, p @ sub.v, q @ sub.u, q @ sub.v])
        coef4, *_ = np.linalg.lstsq(b4, target, rcond=None)
        residual = float(np.linalg.norm(target - b4 @ coef4))
        alpha_y = float(coef2[0] / spec.eta)
        beta_y = float(coef2[1] / spec.eta)
    na = norm_A(spec, x)
    lam_a = spec.eta * alpha_y + 2.0 / na
    lam_b = spec.eta * beta_y + 1.0 / na
    return SignDecomposition(
        x=x,
        lam=float((lam_a + lam_b) / 2.0),
        alpha_y=alpha_y,
        beta_y=beta_y,
        residual=residual,
        pair_residual=pair_residual,
        lam_gap=float(abs(lam_a - lam_b)),
    )


def closeness_to_eigenspaces(spec: NormSpec, x: np.ndarray) -> tuple[float, float]:
    """(distance to range P, distance to range Q) for a unit vector x."""
    x = np.asarray(x, dtype=float)
    if abs(np.linalg.norm(x) - 1.0) > 1e-10:
        raise ValueError("x must be a unit vector")
    px = spec.proj.P @ x
    return float(np.linalg.norm(x - px)), float(np.linalg.norm(px))


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
    alpha: float = 1.0,
    xi: float = 0.05,
    c: float = 0.25,
    beta: float = 0.25,
    grid_size: int = 512,
    tol: float = 1e-7,
    seed: Seed | None = None,
) -> SubspaceReport:
    """Run the full battery on one subspace and fold it into a report.

    One certified dual solve along the circle gives both the worst goodness
    deficiency and the projection norm.  ``seed`` is accepted and ignored:
    every probe is deterministic.
    """
    ec = euclidean_constant(spec, sub, grid_size=max(grid_size, 256))
    sweep = _sweep(spec, sub, grid_size)
    wg = _worst(spec, sweep, tol)
    sig = sigma_set(spec, sub, alpha, xi, c, beta, grid_size=max(grid_size, 256))
    return SubspaceReport(
        index=index,
        euclidean_ratio=ec.ratio,
        ratio_upper=ec.ratio_upper,
        scale_t=ec.scale_t,
        proj_norm=float(sweep.proj_ratio.max()),
        worst_theta=wg.theta,
        worst_deficiency=wg.deficiency,
        deficiency_width=wg.width,
        e_set_size=int(e_set(sub, alpha).size),
        k=sig.k,
        kappa=sig.kappa if math.isfinite(sig.kappa) else -1.0,
    )
