"""Certified dual norm of normlab's norm, used to score the library's outputs.

The norm is ``||y|| = sqrt(<y, A y>) + w |y|_1`` with ``A = I + P`` and
``w = eta / sqrt(n)``.  Its dual is the inf-convolution of the two pieces'
duals (Rockafellar, *Convex Analysis*, Thm 16.4):

    ||z||_* = min t  s.t.  |r|_inf <= w t,  (z - r)^T A^-1 (z - r) <= t^2.

* Upper end: any split ``(r, t)`` with both pieces at most ``t`` bounds
  ``||z||_*`` from above, because ``<z, y> = <z - r, y> + <r, y>``.
* Lower end: the witness ``y = A^-1 (z - r)`` gives ``<z, y> / ||y||``,
  evaluated with the library's own ``norm``.

For fixed ``t`` the split is a box-constrained quadratic program.  Projected
gradient with step 1/2 contracts by exactly 1/2 per step there, since
``A^-1`` has spectrum {1/2, 1}.  An outer bisection on ``t`` finds the
smallest feasible level.  Every row of a batch is solved at once.

This module only checks outputs; nothing in the library imports it.
"""

from __future__ import annotations

import numpy as np

BRACKET_TOL = 1e-12  # a wider bracket means the reference itself failed
_BISECT_STEPS = 64
_INNER_STEPS = 12
_POLISH_STEPS = 200


class BracketError(RuntimeError):
    """The certified bracket came out wider than BRACKET_TOL."""


def quadratic_matrix(spec, norm_fn) -> np.ndarray:
    """Recover ``A`` from norm values alone, by polarization.

    ``(||x|| - w |x|_1)^2 = <x, A x>``, so norms of the unit vectors and of
    their pairwise sums give every entry.  Only the public ``norm`` and
    ``spec.n``/``spec.eta`` are read, so the reference does not depend on
    how the library stores the norm.
    """
    n = spec.n
    w = spec.eta / np.sqrt(n)
    eye = np.eye(n)
    ii, jj = np.triu_indices(n, 1)
    pts = np.vstack([eye, eye[ii] + eye[jj]])
    quad = (norm_fn(spec, pts) - w * np.abs(pts).sum(axis=1)) ** 2
    diag = quad[:n]
    a = np.diag(diag)
    off = (quad[n:] - diag[ii] - diag[jj]) / 2.0
    a[ii, jj] = off
    a[jj, ii] = off
    return a


def _inner(z, r, b, radius, steps):
    """Projected gradient on min_{|r| <= radius} (z - r)^T B (z - r)."""
    for _ in range(steps):
        r_new = np.clip(r + (z - r) @ b, -radius, radius)
        if np.array_equal(r_new, r):
            break
        r = r_new
    return r


def certified_dual_norm(spec, z: np.ndarray, norm_fn) -> tuple[np.ndarray, np.ndarray]:
    """(lower, upper) bracket of ``||z_i||_*`` for each row of ``z``.

    Raises :class:`BracketError` if some bracket is wider than
    ``BRACKET_TOL``; a bracket that wide is never reported as a number.
    """
    z = np.atleast_2d(np.asarray(z, dtype=float))
    w = spec.eta / np.sqrt(spec.n)
    if w <= 0:
        raise ValueError("the certified reference needs eta > 0")
    b = np.linalg.inv(quadratic_matrix(spec, norm_fn))
    b = (b + b.T) / 2.0

    # |z| / (sqrt 2 + eta) <= ||z||_* <= |z|; bisect on the feasible level t
    hi = np.linalg.norm(z, axis=1)[:, None]
    lo = np.zeros_like(hi)
    r = np.zeros_like(z)
    for _ in range(_BISECT_STEPS):
        t = 0.5 * (lo + hi)
        r = _inner(z, r, b, w * t, _INNER_STEPS)
        resid = z - r
        phi = np.sqrt(np.einsum("ij,ij->i", resid, resid @ b))[:, None]
        feasible = phi <= t
        hi = np.where(feasible, t, hi)
        lo = np.where(feasible, lo, t)

    r = _inner(z, np.clip(r, -w * hi, w * hi), b, w * hi, _POLISH_STEPS)
    resid = z - r
    y = resid @ b
    quad = np.sqrt(np.einsum("ij,ij->i", resid, y))
    upper = np.maximum(quad, np.abs(r).max(axis=1) / w)
    lower = np.einsum("ij,ij->i", z, y) / norm_fn(spec, y)
    width = upper - lower
    if not np.all(np.isfinite(width)) or width.max() > BRACKET_TOL or width.min() < -BRACKET_TOL:
        worst = int(np.nanargmax(np.abs(width)))
        raise BracketError(
            f"certified bracket failed on row {worst}: "
            f"[{lower[worst]!r}, {upper[worst]!r}]"
        )
    return lower, np.maximum(upper, lower)
