"""The randomized norm and its certified dual.

The norm studied here is

    ||x|| = sqrt(<x, (I + P) x>) + eta * n**-0.5 * sum_i |x_i|

for an orthogonal projection P of roughly half rank.  The quadratic part
alone is written ``norm_A``.  The Euclidean norm sandwiches ||.|| between
|x| and (sqrt(2) + eta)|x|, so every dual-side quantity (dual norms, goodness
deficiencies, projection norms) is well conditioned.

The dual of a sum of norms is the inf-convolution of their duals
(Rockafellar, *Convex Analysis*, Thm 16.4).  With A = I + P, whose inverse
is exactly I - P/2, and w = eta / sqrt(n):

    ||z||_* = min t  s.t.  |r|_inf <= w t,  (z - r)^T A^-1 (z - r) <= t^2.

:func:`dual_brackets` solves this for every row of a matrix at once: a
bisection on t, each level a box-constrained quadratic program in r.
Projected gradient with step 1/2 contracts that program by exactly 1/2 per
step, because I - A^-1 = P/2.  Each row comes back with a two-sided
bracket.  The split (z - r, r) bounds the dual norm from above, and the
witness y = A^-1 (z - r), evaluated with :func:`norm`, bounds it from below
by <z, y> / ||y||.  A bracket wider than ``BRACKET_TOL`` raises
:class:`DualNormError` where it is used.  For eta = 0 the closed form
sqrt(<z, A^-1 z>) is exact.

Goodness deficiencies and the norms of rank-one and rank-two orthogonal
projections are read off these solves (:func:`circle_sweep`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import ProjectionPair, Seed, sample_projection

GOODNESS_TOL = 1e-7   # deficiencies below this are reported as zero
BRACKET_TOL = 1e-12   # widest accepted dual bracket, relative to its upper end
_BISECT_STEPS = 64
_INNER_STEPS = 12
_POLISH_STEPS = 200


class DualNormError(RuntimeError):
    """A dual norm could not be certified; carries the bracket reached."""

    def __init__(self, lower: float, upper: float):
        super().__init__(
            f"dual norm not certified: bracket [{lower}, {upper}] is wider "
            f"than {BRACKET_TOL} relative"
        )
        self.lower = lower
        self.upper = upper


@dataclass(frozen=True)
class NormSpec:
    """Frozen description of one sampled norm.

    ``A`` is I + P and ``Ainv`` its exact inverse I - P/2.  ``C`` is the
    Euclidean distortion bound sqrt(2) + eta: |x| <= ||x|| <= C |x| for all x.
    """

    n: int
    eta: float
    proj: ProjectionPair
    A: np.ndarray
    Ainv: np.ndarray
    C: float

    def __post_init__(self):
        if self.eta < 0:
            raise ValueError("eta must be nonnegative")
        if self.proj.n != self.n:
            raise ValueError("projection dimension does not match n")

    @property
    def ell1_weight(self) -> float:
        return self.eta / np.sqrt(self.n)

    @property
    def strongly_2_euclidean(self) -> bool:
        # distortion sqrt(2) + eta stays below 2 exactly when eta <= 2 - sqrt(2)
        return bool(self.eta <= 2.0 - np.sqrt(2.0))


def make_norm_spec(
    n: int, eta: float, seed: Seed, rank: int | None = None
) -> NormSpec:
    """Sample a projection and assemble the norm; rank defaults to floor(n/2)."""
    if rank is None:
        rank = n // 2
    proj = sample_projection(n, rank, seed.derive("projection"))
    return spec_from_projection(proj, eta)


def spec_from_projection(proj: ProjectionPair, eta: float) -> NormSpec:
    n = proj.n
    a = np.eye(n) + proj.P
    ainv = np.eye(n) - proj.P / 2.0
    return NormSpec(
        n=n, eta=float(eta), proj=proj, A=a, Ainv=ainv, C=float(np.sqrt(2.0) + eta)
    )


def norm_A(spec: NormSpec, x: np.ndarray) -> float | np.ndarray:
    """Quadratic part sqrt(<x, A x>).  Accepts a vector or a stack of rows."""
    x = np.asarray(x, dtype=float)
    quad = np.einsum("...i,...i->...", x, x @ spec.A)
    out = np.sqrt(np.maximum(quad, 0.0))
    return float(out) if out.ndim == 0 else out


def norm(spec: NormSpec, x: np.ndarray) -> float | np.ndarray:
    """The full norm: quadratic part plus the weighted ell_1 term."""
    x = np.asarray(x, dtype=float)
    ell1 = np.abs(x).sum(axis=-1)
    out = norm_A(spec, x) + spec.ell1_weight * ell1
    return float(out) if np.ndim(out) == 0 else out


def norm_subgradient(spec: NormSpec, x: np.ndarray) -> np.ndarray:
    """A subgradient of the norm at x, using sign(0) = 0 at kinks."""
    na = norm_A(spec, x)
    quad_part = (x @ spec.A) / na if na > 0 else np.zeros_like(x)
    return quad_part + spec.ell1_weight * np.sign(x)


@dataclass(frozen=True)
class DualBracket:
    """Certified dual norms of a stack of rows: lower <= ||z_i||_* <= upper.

    ``witness[i]`` has norm one and attains <z_i, witness[i]> = lower[i]; a
    zero row gets a zero witness and a zero bracket.
    """

    lower: np.ndarray
    upper: np.ndarray
    witness: np.ndarray

    @property
    def failed(self) -> np.ndarray:
        """Rows whose bracket is wider than ``BRACKET_TOL`` (NaN counts)."""
        return ~(np.abs(self.upper - self.lower) <= BRACKET_TOL * self.upper)

    def check(self) -> "DualBracket":
        """Return self, or raise :class:`DualNormError` for the first failed row."""
        bad = np.flatnonzero(self.failed)
        if bad.size:
            raise DualNormError(float(self.lower[bad[0]]), float(self.upper[bad[0]]))
        return self


def _unit_rows(spec: NormSpec, y: np.ndarray) -> np.ndarray:
    """Rows of y scaled to norm one; zero rows stay zero."""
    ny = norm(spec, y)
    return y / np.where(ny > 0, ny, 1.0)[:, None]


def _box_qp(z, r, radius, ainv, steps):
    """Projected gradient, step 1/2, on min (z - r)^T A^-1 (z - r), |r| <= radius."""
    for _ in range(steps):
        r_next = np.clip(r + (z - r) @ ainv, -radius, radius)
        if np.array_equal(r_next, r):
            break
        r = r_next
    return r


def dual_brackets(spec: NormSpec, z: np.ndarray) -> DualBracket:
    """Certified dual norms of every row of ``z`` (a vector counts as one row).

    Bisects on the level t, warm-starting each level's box program from the
    last split; r = 0 is feasible at t = |z| and no t below |z| / C is.  The
    last feasible level is then polished to convergence.  Never raises on a
    wide bracket: callers decide with :meth:`DualBracket.check`.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    ainv = spec.Ainv
    w = spec.ell1_weight
    if w == 0:
        y = z @ ainv
        val = np.sqrt(np.maximum(np.einsum("ij,ij->i", z, y), 0.0))
        return DualBracket(lower=val, upper=val, witness=_unit_rows(spec, y))

    hi = np.linalg.norm(z, axis=1)
    lo = hi / spec.C
    r = np.zeros_like(z)
    for _ in range(_BISECT_STEPS):
        t = 0.5 * (lo + hi)
        r = _box_qp(z, r, (w * t)[:, None], ainv, _INNER_STEPS)
        resid = z - r
        feasible = np.einsum("ij,ij->i", resid, resid @ ainv) <= t * t
        hi = np.where(feasible, t, hi)
        lo = np.where(feasible, lo, t)
        if np.all(hi - lo <= np.finfo(float).eps * hi):
            break
    radius = (w * hi)[:, None]
    r = _box_qp(z, np.clip(r, -radius, radius), radius, ainv, _POLISH_STEPS)
    resid = z - r
    y = resid @ ainv
    quad = np.sqrt(np.maximum(np.einsum("ij,ij->i", resid, y), 0.0))
    witness = _unit_rows(spec, y)
    return DualBracket(
        lower=np.einsum("ij,ij->i", z, witness),
        upper=np.maximum(quad, np.abs(r).max(axis=1) / w),
        witness=witness,
    )


def dual_norm(
    spec: NormSpec, z: np.ndarray, seed: Seed | None = None
) -> tuple[float, np.ndarray]:
    """sup{ <z, y> : ||y|| <= 1 } together with a maximizer of norm one.

    One row of :func:`dual_brackets`; the value is attained by the returned
    maximizer and certified to ``BRACKET_TOL``, otherwise
    :class:`DualNormError` is raised.  ``seed`` is accepted and ignored: the
    solver is deterministic.
    """
    z = np.asarray(z, dtype=float)
    sol = dual_brackets(spec, z[None, :]).check()
    return float(sol.lower[0]), sol.witness[0]


@dataclass(frozen=True)
class SupportFunctional:
    """A norming functional at x: <f, y> <= ||y|| with equality at y = x."""

    x: np.ndarray
    f: np.ndarray
    sign_choice: np.ndarray


def support_functional(
    spec: NormSpec, x: np.ndarray, sign_choice: np.ndarray | None = None
) -> SupportFunctional:
    """Support functional A x / ||x||_A + eta * n**-0.5 * s with s a sign vector.

    ``sign_choice`` must agree with sign(x_i) wherever x_i != 0 and may take
    any value in [-1, 1] at zero coordinates; it defaults to sign(x) with
    zeros at zeros.
    """
    x = np.asarray(x, dtype=float)
    if np.all(x == 0):
        raise ValueError("support functional requires x != 0")
    s = np.sign(x) if sign_choice is None else np.asarray(sign_choice, dtype=float)
    if np.any(np.abs(s) > 1 + 1e-12):
        raise ValueError("sign choice entries must lie in [-1, 1]")
    live = x != 0
    if np.any(s[live] != np.sign(x[live])):
        raise ValueError("sign choice must match sign(x) on nonzero coordinates")
    f = (x @ spec.A) / norm_A(spec, x) + spec.ell1_weight * s
    return SupportFunctional(x=x, f=f, sign_choice=s)


@dataclass(frozen=True)
class GoodnessCertificate:
    """Measured goodness deficiency of a point, with the maximizing witness.

    ``deficiency`` is ||x'|| * ||x'||_dual - 1 for the Euclidean-normalized
    point x', clamped to exactly 0.0 when it falls below ``tol``.  The
    witness y attains <x', y> * ||x'|| / ||y|| >= 1 + deficiency - tol.
    """

    x: np.ndarray
    deficiency: float
    witness: np.ndarray
    tol: float
    raw: float

    @classmethod
    def from_raw(
        cls, x: np.ndarray, raw: float, witness: np.ndarray, tol: float
    ) -> "GoodnessCertificate":
        raw = float(raw)
        return cls(
            x=x, deficiency=raw if raw >= tol else 0.0, witness=witness, tol=tol, raw=raw
        )


def goodness(
    spec: NormSpec,
    x: np.ndarray,
    tol: float = GOODNESS_TOL,
    seed: Seed | None = None,
) -> GoodnessCertificate:
    """Goodness deficiency of x: how far x is from norming its own direction.

    A point is deficiency-free exactly when the rank-one orthogonal
    projection onto it has operator norm 1 measured in ``spec``'s norm; in
    general that operator norm is 1 + deficiency.  ``seed`` is accepted and
    ignored: the dual solve is deterministic.
    """
    x = np.asarray(x, dtype=float)
    xn = np.linalg.norm(x)
    if xn == 0:
        raise ValueError("goodness needs x != 0")
    xu = x / xn
    val, witness = dual_norm(spec, xu)
    return GoodnessCertificate.from_raw(xu, val * norm(spec, xu) - 1.0, witness, tol)


@dataclass(frozen=True)
class CircleSweep:
    """One certified dual solve along the unit circle of a 2-D span.

    ``points[j]`` is the unit vector c0 sin(theta_j) + c1 cos(theta_j) at
    theta_j = j pi / G; the half circle suffices since the other half is its
    negative.  ``raw[j]`` is the point's goodness deficiency before clamping,
    ||e|| ||e||_* - 1.  ``proj_ratio[j]`` is ||P y|| / ||y|| at the point's
    norming witness y, with P the orthogonal projection onto the span.
    """

    thetas: np.ndarray
    points: np.ndarray
    dual: DualBracket
    raw: np.ndarray
    proj_ratio: np.ndarray


def circle_sweep(spec: NormSpec, cols: np.ndarray, grid_size: int) -> CircleSweep:
    """Solve the dual norm at ``grid_size`` points of the circle of two columns.

    ``cols`` holds two orthonormal columns.  Raises :class:`DualNormError`
    if any grid point's bracket is wider than ``BRACKET_TOL``.
    """
    cols = np.asarray(cols, dtype=float)
    thetas = np.arange(grid_size) * (np.pi / grid_size)
    points = np.outer(np.sin(thetas), cols[:, 0]) + np.outer(np.cos(thetas), cols[:, 1])
    points /= np.linalg.norm(points, axis=1, keepdims=True)
    sol = dual_brackets(spec, points).check()
    projected = (sol.witness @ cols) @ cols.T
    return CircleSweep(
        thetas=thetas,
        points=points,
        dual=sol,
        raw=sol.lower * norm(spec, points) - 1.0,
        proj_ratio=norm(spec, projected) / norm(spec, sol.witness),
    )


def projection_ratio_norm(
    spec: NormSpec,
    frame_cols: np.ndarray,
    grid_size: int = 512,
    seed: Seed | None = None,
) -> float:
    """Operator norm of the orthogonal projection onto one or two columns.

    One column u: u u^T x = <u, x> u, so the norm is ||u|| ||u||_* exactly,
    from a single certified dual solve.  Two orthonormal columns: the norm
    of P is attained at x = the norming witness of some unit e in the span
    (the quotient norm of Px is a maximum of <e, Px> / ||e||_* over the
    span), so it is the supremum over the circle of ||P y_e|| / ||y_e||.
    The grid maximum of :func:`circle_sweep` is returned; each grid value is
    a ratio of norms at an explicit point, hence a lower bound.  More than
    two columns raise ValueError.  ``seed`` is accepted and ignored.
    """
    u = np.asarray(frame_cols, dtype=float)
    if u.ndim == 1:
        u = u[:, None]
    if u.shape[1] == 1:
        val, _ = dual_norm(spec, u[:, 0])
        return float(val * norm(spec, u[:, 0]))
    if u.shape[1] == 2:
        return float(circle_sweep(spec, u, grid_size).proj_ratio.max())
    raise ValueError("projection_ratio_norm handles one or two columns")
