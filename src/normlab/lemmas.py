"""Quantitative verifiers: every estimate the laboratory relies on, as a check.

Each verifier measures a quantity, compares it against the bound the theory
promises, and folds the outcome into a :class:`LemmaReport`.  The margin is
always oriented so that larger is better and ``passed`` means the margin
cleared minus-tolerance; upper-bound checks use bound - measured, lower-bound
checks measured - bound.  An instance whose hypotheses fail is reported as
not applicable and never counts as a pass.

Monte Carlo verifiers accept within four standard errors and never certify a
probabilistic bound from below; exact-arithmetic checks live in
:mod:`normlab.exactparams` and are only wrapped here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .exactparams import ChainResult, ParameterSet, check_parameter_chain
from .linalg import (
    Frame,
    Seed,
    _haar_frames,
    _stream_normals,
    sample_unit_sphere,
    subspace_incidence_probability,
)
from .norms import (
    NormSpec,
    circle_sweep,
    goodness,
    make_norm_spec,
    norm,
    norm_subgradient,
    support_functional,
)
from .subspaces import (
    SignSetAnalysis,
    TwoDSubspace,
    cyclic_interval_signs,
    euclidean_constant,
    projection_op_norm,
    sample_two_d_subspace,
    worst_goodness,
)

MC_SIGMAS = 4.0  # Monte Carlo acceptance band, in standard errors
# Monte Carlo trials are evaluated in stacks: at most _TRIAL_CHUNK trials at a
# time, and configurations in chunks that keep one stacked block array near
# _STACK_FLOATS entries.
_TRIAL_CHUNK = 1000
_STACK_FLOATS = 1 << 20
# A closed-form top singular value squared of a block with entries <= 1 is
# off by a few ulps; a hit decision is taken from it only when it lies more
# than this far from the threshold, and from the block's SVD otherwise.
_SIGMA2_MARGIN = 1e-12


@dataclass(frozen=True)
class LemmaReport:
    """Outcome of one verifier run.

    ``margin`` is oriented so that >= -tolerance means the check held;
    ``applicable`` is False when the instance failed the hypotheses, in
    which case ``passed`` is always False as well.
    """

    lemma_id: str
    instance: str
    bound_value: float
    measured_value: float
    margin: float
    trials: int
    seed: tuple[int, int] | None
    passed: bool
    applicable: bool
    tolerance: float
    details: dict = field(default_factory=dict)


def _report(
    lemma_id: str,
    instance: str,
    bound: float,
    measured: float,
    margin: float,
    trials: int,
    seed: Seed | None,
    tol: float,
    applicable: bool = True,
    details: dict | None = None,
) -> LemmaReport:
    passed = bool(applicable and margin >= -tol)
    return LemmaReport(
        lemma_id=lemma_id,
        instance=instance,
        bound_value=float(bound),
        measured_value=float(measured),
        margin=float(margin),
        trials=int(trials),
        seed=(seed.master, seed.stream) if seed is not None else None,
        passed=passed,
        applicable=bool(applicable),
        tolerance=float(tol),
        details=details or {},
    )


# ---------------------------------------------------------------------------
# goodness <-> complemented + Euclidean equivalence
# ---------------------------------------------------------------------------

def verify_goodness_equivalence(
    spec: NormSpec,
    sub: TwoDSubspace,
    epsilon: float,
    samples: int = 64,
    grid_size: int = 512,
    tol: float = 1e-6,
    seed: Seed | None = None,
) -> LemmaReport:
    """Both directions of the goodness/complementation equivalence.

    Forward: when the subspace is (1 + epsilon)-complemented (projection
    norm) and (1 + epsilon)-Euclidean (circle distortion), every sampled
    point's deficiency must stay at or below 2 epsilon + epsilon^2.
    Converse: when epsilon <= 1/(9 pi^2) and every sampled deficiency is at
    most epsilon, the projection norm must be at most 1 + epsilon and the
    distortion at most 1 + 3 pi sqrt(epsilon).  Directions whose premises
    fail are skipped; if both are skipped the report is not applicable.
    The sampled points are the ``samples`` angles of one certified
    :func:`circle_sweep`; the projection norm comes from a sweep of
    ``grid_size`` angles.
    """
    seed = seed or Seed(0)
    ec = euclidean_constant(spec, sub, grid_size=grid_size)
    pn = projection_op_norm(spec, sub, grid_size=grid_size)
    worst = float(circle_sweep(spec, sub.frame().columns, samples).raw.max())

    checks: list[tuple[str, float, float]] = []  # (name, bound, measured)
    if ec.ratio <= 1 + epsilon and pn <= 1 + epsilon:
        checks.append(("forward_goodness", 2 * epsilon + epsilon**2, worst))
    if epsilon <= 1 / (9 * math.pi**2) and worst <= epsilon:
        checks.append(("converse_projection", 1 + epsilon, pn))
        checks.append(
            ("converse_distortion", 1 + 3 * math.pi * math.sqrt(epsilon), ec.ratio)
        )
    details = {
        "euclidean_ratio": ec.ratio,
        "projection_norm": pn,
        "worst_deficiency": worst,
        "directions": [name for name, _, _ in checks],
    }
    if not checks:
        return _report(
            "goodness_equivalence",
            f"epsilon={epsilon}",
            0.0,
            worst,
            -math.inf,
            samples,
            seed,
            tol,
            applicable=False,
            details=details,
        )
    name, bound, measured = min(checks, key=lambda c: c[1] - c[2])
    details["binding_direction"] = name
    return _report(
        "goodness_equivalence",
        f"epsilon={epsilon}",
        bound,
        measured,
        bound - measured,
        samples,
        seed,
        tol,
        details=details,
    )


# ---------------------------------------------------------------------------
# goodness <-> nearby support pair
# ---------------------------------------------------------------------------

def support_bracket(delta: float, C: float) -> float:
    """Goodness level forced by a support pair at distance delta.

    Valid for C * delta < 1; grows like 1 + (2 + 3C) delta for small delta.
    """
    if C * delta >= 1:
        raise ValueError("bracket needs C * delta < 1")
    return (1 + delta) * (1 + 2 * delta) / (1 - C * delta) + 2 * C * delta


def _descend_norm(
    spec: NormSpec, x: np.ndarray, arc: float, steps: int = 96
) -> tuple[np.ndarray, float]:
    """Greedy norm descent along the unit sphere, arc length at most ``arc``."""
    y = x / np.linalg.norm(x)
    best_y, best_v = y, norm(spec, y)
    h = arc / steps
    for _ in range(steps):
        g = norm_subgradient(spec, y)
        gt = g - (g @ y) * y
        gn = np.linalg.norm(gt)
        if gn < 1e-13:
            break
        y = y - h * gt / gn
        y /= np.linalg.norm(y)
        v = norm(spec, y)
        if v < best_v:
            best_v, best_y = v, y
    return best_y, float(best_v)


def _support_pair_gap(spec: NormSpec, y: np.ndarray) -> float:
    f = support_functional(spec, y).f
    z = f * (np.linalg.norm(y) / np.linalg.norm(f))
    return float(np.linalg.norm(y - z))


def verify_support_characterization(
    spec: NormSpec,
    x: np.ndarray,
    delta: float,
    C: float | None = None,
    tol: float = 1e-6,
    seed: Seed | None = None,
) -> LemmaReport:
    """Goodness versus nearby unit/support pairs, both directions.

    Converse: if the canonical pair (y = x, z = the support functional at x
    rescaled to |z| = |x|) sits within delta, the deficiency of x must stay
    below the bracket value minus one.  Forward: if the measured deficiency
    is at most delta^2 / (8 C^2), some pair within delta must exist, and a
    local search over nearby base points must produce one.  When the
    deficiency exceeds that threshold the forward direction promises
    nothing; the report then records delta_star (the threshold at which the
    promise would resume) and a best-effort descent witness, without
    asserting either.
    """
    seed = seed or Seed(0)
    x = np.asarray(x, dtype=float)
    xu = x / np.linalg.norm(x)
    C = float(spec.C if C is None else C)
    cert = goodness(spec, xu)
    gap = _support_pair_gap(spec, xu)
    details: dict = {"canonical_gap": gap, "deficiency": cert.raw, "C": C}
    checks: list[tuple[str, float, float, float]] = []  # name, bound, measured, margin

    if C * delta < 1 and gap <= delta:
        bound = support_bracket(delta, C) - 1
        checks.append(("converse_bracket", bound, cert.raw, bound - cert.raw))

    eps_fwd = delta * delta / (8 * C * C)
    details["forward_threshold"] = eps_fwd
    if cert.raw <= eps_fwd - tol:
        # a pair within delta is promised; search near x for one
        best = gap
        base = xu
        for _ in range(12):
            f = support_functional(spec, base).f
            z = f * (1.0 / np.linalg.norm(f))
            cand = base + 0.5 * (z - base)
            cand /= np.linalg.norm(cand)
            if np.linalg.norm(cand - xu) > delta:
                break
            base = cand
            best = min(best, max(_support_pair_gap(spec, base),
                                 float(np.linalg.norm(base - xu))))
        details["best_pair_gap"] = best
        checks.append(("forward_pair", delta, best, delta - best))
    else:
        delta_star = min(math.sqrt(8 * C * C * max(cert.raw, 0.0)), 2.0)
        details["delta_star"] = delta_star
        arc = delta / (2 * C)
        ybar, val = _descend_norm(spec, xu, arc)
        predicted = norm(spec, xu) * (1 - delta * delta / (4 * C * C))
        details["descent_norm"] = val
        details["descent_target"] = predicted
        details["descent_achieved"] = bool(val <= predicted + tol)

    if not checks:
        return _report(
            "support_characterization",
            f"delta={delta}",
            0.0,
            cert.raw,
            -math.inf,
            1,
            seed,
            tol,
            applicable=False,
            details=details,
        )
    name, bound, measured, margin = min(checks, key=lambda c: c[3])
    details["binding_direction"] = name
    return _report(
        "support_characterization",
        f"delta={delta}",
        bound,
        measured,
        margin,
        1,
        seed,
        tol,
        details=details,
    )


# ---------------------------------------------------------------------------
# approximate eigenvectors of A = I + P
# ---------------------------------------------------------------------------

def verify_approx_eigenvector(
    basis: Frame, y: np.ndarray, nu: float, tol: float = 1e-12
) -> LemmaReport:
    """Near-eigenvectors of I + P cling to one of the eigenspaces.

    P is the orthogonal projection onto the span of ``basis`` and Q = I - P.
    With tau = |(I + P) y - nu y|^2 at most 1/4 for unit y, one of
    |Py|^2, |Qy|^2 must be at most 2 tau.  The exact split identity
    tau = (2 - nu)^2 |Py|^2 + (1 - nu)^2 |Qy|^2 is recorded alongside.
    """
    y = np.asarray(y, dtype=float)
    if abs(np.linalg.norm(y) - 1.0) > 1e-10:
        raise ValueError("y must be a unit vector")
    u = basis.columns
    py = u @ (u.T @ y)
    qy = y - py
    ay = y + py
    tau = float(np.sum((ay - nu * y) ** 2))
    p2, q2 = float(py @ py), float(qy @ qy)
    identity = (2 - nu) ** 2 * p2 + (1 - nu) ** 2 * q2
    details = {
        "tau": tau,
        "py_sq": p2,
        "qy_sq": q2,
        "split_identity_gap": abs(identity - tau),
    }
    if tau > 0.25:
        return _report(
            "approx_eigenvector",
            f"nu={nu}",
            2 * tau,
            min(p2, q2),
            -math.inf,
            1,
            None,
            tol,
            applicable=False,
            details=details,
        )
    measured = min(p2, q2)
    bound = 2 * tau
    return _report(
        "approx_eigenvector",
        f"nu={nu}",
        bound,
        measured,
        bound - measured,
        1,
        None,
        tol,
        details=details,
    )


# ---------------------------------------------------------------------------
# Monte Carlo: measure of a subspace's gamma-neighbourhood on the sphere
# ---------------------------------------------------------------------------

def _union_bound_volume(n: int, m: int, gamma: float) -> float:
    if gamma <= 0:
        return 0.0 if n > m else 1.0
    log_b = n * math.log(24.0) + (n - m) * math.log(gamma)
    return min(1.0, math.exp(min(log_b, 50.0)))


def mc_subspace_volume(
    n: int,
    m: int,
    gamma: float,
    trials: int,
    seed: Seed,
    tol: float = 0.0,
) -> LemmaReport:
    """Empirical frequency of a random unit point landing gamma-close to a
    fixed m-dimensional subspace, against the exact law and the union bound.

    The frequency must agree with the exact incidence probability within
    four standard errors and must not exceed 24^n gamma^(n-m) plus the same
    allowance.  The union bound's own hypothesis (2^(n+1) gamma >= 1) is
    recorded; the inequality is checked regardless, with the regime flagged.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials for a meaningful frequency")
    hits = 0
    chunk = 100_000
    g2 = gamma * gamma
    for lo in range(0, trials, chunk):
        count = min(chunk, trials - lo)
        x = sample_unit_sphere(n, seed.derive("mc-volume", lo), size=count)
        hits += int(np.sum(np.sum(x[:, m:] ** 2, axis=1) <= g2))
    freq = hits / trials
    oracle = subspace_incidence_probability(n, m, gamma)
    se = math.sqrt(max(oracle * (1 - oracle), 1.0 / trials) / trials)
    bound = _union_bound_volume(n, m, gamma)
    margin_oracle = MC_SIGMAS * se - abs(freq - oracle)
    margin_bound = bound + MC_SIGMAS * se - freq
    margin = min(margin_oracle, margin_bound)
    details = {
        "frequency": freq,
        "oracle": oracle,
        "standard_error": se,
        "union_bound": bound,
        "hypothesis_held": bool(2 ** (n + 1) * gamma >= 1),
        "hits": hits,
    }
    return _report(
        "subspace_volume",
        f"n={n},m={m},gamma={gamma}",
        bound,
        freq,
        margin,
        trials,
        seed,
        tol,
        details=details,
    )


# ---------------------------------------------------------------------------
# structured vectors near random subspaces
# ---------------------------------------------------------------------------

def _support_blocks(n: int, r: int) -> np.ndarray:
    return np.asarray(list(combinations(range(n), r)), dtype=int)


def _distinct_value_configs(n: int, k: int, budget: int, seed: Seed):
    """Sign-block configurations for vectors with at most k distinct
    magnitudes-with-signs classes: a partition of the coordinates into
    j <= k blocks plus a sign per coordinate, modulo a global flip within
    each block.  Returns a list of (labels, signs) arrays and a flag saying
    whether enumeration was exhaustive or fell back to sampling.
    """

    def total_count() -> int:
        # partitions into <= k blocks (Stirling recurrence), times per-block
        # sign freedom 2^(n - #blocks)
        s = [[0] * (k + 1) for _ in range(n + 1)]
        s[0][0] = 1
        for i in range(1, n + 1):
            for j in range(1, k + 1):
                s[i][j] = s[i - 1][j - 1] + j * s[i - 1][j]
        return sum(s[n][j] * 2 ** (n - j) for j in range(1, k + 1))

    count = total_count()
    if count <= budget:
        configs = []

        def rec(i: int, labels: list[int], nblocks: int):
            if i == n:
                configs.append(tuple(labels))
                return
            for lab in range(min(nblocks + 1, k)):
                labels.append(lab)
                rec(i + 1, labels, max(nblocks, lab + 1))
                labels.pop()

        rec(0, [], 0)
        out = []
        for labels in configs:
            lab = np.asarray(labels)
            nblocks = lab.max() + 1
            first = np.zeros(n, dtype=bool)
            seen = set()
            for i, l in enumerate(labels):
                if l not in seen:
                    first[i] = True
                    seen.add(l)
            free = np.flatnonzero(~first)
            for mask in range(2 ** free.size):
                signs = np.ones(n)
                for b, i in enumerate(free):
                    if (mask >> b) & 1:
                        signs[i] = -1.0
                out.append((lab, signs))
        return out, True
    rng = seed.derive("distinct-configs").generator()
    out = []
    for _ in range(budget):
        j = int(rng.integers(1, k + 1))
        lab = rng.integers(0, j, size=n)
        # ensure all j labels appear, else relabel compactly
        lab = np.unique(lab, return_inverse=True)[1]
        signs = rng.choice([-1.0, 1.0], size=n)
        out.append((lab, signs))
    return out, False


def _trial_frames(n: int, k: int, trials: int, seed: Seed, tag: str):
    """Yield the per-trial Haar frames, in stacks of at most _TRIAL_CHUNK.

    Trial t always draws from ``seed.derive(tag, t)``, so the stacks hold the
    same bits as a per-trial loop, whatever the chunking.
    """
    step = max(1, min(_TRIAL_CHUNK, _STACK_FLOATS // (n * k)))
    for lo in range(0, trials, step):
        hi = min(trials, lo + step)
        streams = [seed.derive(tag, t).stream for t in range(lo, hi)]
        yield _haar_frames(_stream_normals(seed.master, streams, (n, k)))


def _top_sq(a: np.ndarray, thresh: float) -> np.ndarray:
    """Top singular value squared of each block of the stack a (..., p, q),
    as far as comparisons with ``thresh`` go.

    Blocks with min(p, q) <= 2 take the closed form: a row's or column's sum
    of squares, or the larger eigenvalue (x+y)/2 + sqrt(((x-y)/2)^2 + b^2)
    of the 2 x 2 Gram matrix [[x, b], [b, y]].  Larger blocks take their sum
    of squares, which bounds s^2 from above.  An entry within _SIGMA2_MARGIN
    of ``thresh`` (for a bound: above thresh - _SIGMA2_MARGIN) takes
    ``s[0] * s[0]`` from np.linalg.svd of its block instead, so every
    decision against ``thresh`` is the one the SVD alone would make.
    """
    rows = a if a.shape[-2] <= a.shape[-1] else np.swapaxes(a, -1, -2)
    if rows.shape[-2] == 2:
        x = np.einsum("...j,...j->...", rows[..., 0, :], rows[..., 0, :])
        y = np.einsum("...j,...j->...", rows[..., 1, :], rows[..., 1, :])
        b = np.einsum("...j,...j->...", rows[..., 0, :], rows[..., 1, :])
        h = 0.5 * (x - y)
        s2 = 0.5 * (x + y) + np.sqrt(h * h + b * b)
    else:
        s2 = np.einsum("...ij,...ij->...", rows, rows)
    if rows.shape[-2] > 2:  # the sum of squares only bounds s^2 from above
        near = s2 >= thresh - _SIGMA2_MARGIN
    else:
        near = np.abs(s2 - thresh) <= _SIGMA2_MARGIN
    if near.all():
        s = np.linalg.svd(a, compute_uv=False)[..., 0]
        return s * s
    if near.any():
        s = np.linalg.svd(a[near], compute_uv=False)[:, 0]
        s2[near] = s * s
    return s2


def _support_top_sq(f: np.ndarray, blocks: np.ndarray, thresh: float) -> np.ndarray:
    """Per trial, the largest top singular value squared of f[t][block] over
    all blocks, exact for comparisons with ``thresh``."""
    t, _, m = f.shape
    step = max(1, _STACK_FLOATS // (t * blocks.shape[1] * m))
    top = np.zeros(t)
    for c in range(0, blocks.shape[0], step):
        s2 = _top_sq(f[:, blocks[c : c + step]], thresh)
        top = np.maximum(top, s2.max(axis=1))
    return top


def _config_chunks(n: int, m: int, k: int, configs) -> list[list[tuple]]:
    """The normalised block matrices b^T of the configurations, built once.

    Configurations are cut, in order, into chunks that start at 8 and double
    up to the stack cap, so that trials which stop early skip most of them;
    inside a chunk those with j blocks are stacked into one (c_j, j, n)
    array, listed with their positions in the chunk.
    """
    bts = []
    for lab, signs in configs:
        j = int(lab.max()) + 1
        b = np.zeros((n, j))
        b[np.arange(n), lab] = signs
        b /= np.linalg.norm(b, axis=0, keepdims=True)
        bts.append(b.T)
    cap = max(1, _STACK_FLOATS // (_TRIAL_CHUNK * k * m))
    chunks = []
    c, step = 0, min(8, cap)
    while c < len(bts):
        part = bts[c : c + step]
        c, step = c + step, min(2 * step, cap)
        js = np.array([bt.shape[0] for bt in part])
        groups = []
        for j in np.unique(js):
            pos = np.flatnonzero(js == j)
            groups.append((pos, np.stack([part[i] for i in pos])))
        chunks.append(groups)
    return chunks


def _distinct_top_sq(f: np.ndarray, chunks, thresh: float) -> np.ndarray:
    """Per trial, the running maximum of the top singular value squared of
    b^T f[t] over the configurations in order, stopped at the first one that
    reaches ``thresh``; trials that stopped skip the later chunks."""
    top = np.zeros(f.shape[0])
    live = np.arange(f.shape[0])
    for groups in chunks:
        if live.size == 0:
            break
        width = sum(pos.size for pos, _ in groups)
        s2 = np.empty((live.size, width))
        fl = f[live][:, None]
        for pos, bt in groups:
            s2[:, pos] = _top_sq(bt[None] @ fl, thresh)
        cross = s2 >= thresh
        stopped = cross.any(axis=1)
        last = np.where(stopped, cross.argmax(axis=1), width - 1)
        s2[np.arange(width) > last[:, None]] = 0.0
        top[live] = np.maximum(top[live], s2.max(axis=1))
        live = live[~stopped]
    return top


def small_support_incidence(
    n: int,
    m: int,
    size_param: int,
    gamma: float,
    mode: str,
    trials: int,
    seed: Seed,
    budget: int = 20_000,
    tol: float = 0.0,
) -> LemmaReport:
    """How often a random m-dim subspace's gamma-expansion catches a
    structured unit vector.

    mode="support": structured means support of size at most ``size_param``;
    the union bound is 288^n gamma^(n-m-r).  mode="distinct": structured
    means at most ``size_param`` distinct coordinate magnitude classes (signs
    free); the union bound is (3/gamma)^k (48 k)^n gamma^(n-m).  A subspace
    is a hit when its smallest principal sine to some structured subspace is
    at most gamma.  Enumeration beyond ``budget`` configurations falls back
    to sampled configurations, flagged in the details (the frequency is then
    an undercount, which only ever weakens the measured side of the check).

    Trial t draws its subspace from its own stream
    ``seed.derive("incidence", t)``; trials are evaluated in stacks (one
    batched QR, then chunks of configurations), which gives the same hit
    count as a trial-by-trial loop.  Each block's top singular value squared
    is decided in closed form when the block has at most two rows or
    columns, falling back to the SVD within a rounding margin of the
    threshold and for larger blocks (see ``_top_sq``).  In distinct mode a
    trial stops at the first configuration that catches it, and stopped
    trials skip the later chunks.
    """
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    if mode not in ("support", "distinct"):
        raise ValueError("mode must be 'support' or 'distinct'")
    exhaustive = True
    if mode == "support":
        r = size_param
        if not 1 <= r < n:
            raise ValueError("support size out of range")
        blocks = _support_blocks(n, r)
        if blocks.shape[0] > budget:
            idx = seed.derive("support-sample").generator().choice(
                blocks.shape[0], size=budget, replace=False
            )
            blocks = blocks[idx]
            exhaustive = False
        log_b = n * math.log(288.0) + (n - m - r) * math.log(gamma)
    else:
        k = size_param
        configs, exhaustive = _distinct_value_configs(n, k, budget, seed)
        log_b = (
            k * math.log(3.0 / gamma)
            + n * math.log(48.0 * k)
            + (n - m) * math.log(gamma)
        )
        chunks = _config_chunks(n, m, k, configs)
    bound = min(1.0, math.exp(min(log_b, 50.0)))

    g2 = gamma * gamma
    hits = 0
    for f in _trial_frames(n, m, trials, seed, "incidence"):
        if mode == "support":
            top = _support_top_sq(f, blocks, 1.0 - g2)
        else:
            top = _distinct_top_sq(f, chunks, 1.0 - g2)
        hits += int(np.count_nonzero(1.0 - top <= g2))
    freq = hits / trials
    se = math.sqrt(max(freq * (1 - freq), 1.0 / trials) / trials)
    margin = bound + MC_SIGMAS * se - freq
    details = {
        "frequency": freq,
        "standard_error": se,
        "union_bound": bound,
        "exhaustive": exhaustive,
        "hits": hits,
        "mode": mode,
    }
    return _report(
        "small_support",
        f"n={n},m={m},{mode}={size_param},gamma={gamma}",
        bound,
        freq,
        margin,
        trials,
        seed,
        tol,
        details=details,
    )


def verify_range_support_gap(
    n: int,
    trials: int,
    seed: Seed,
    gamma: float = 2.0**-37,
    tol: float = 0.0,
) -> LemmaReport:
    """Random half-rank projections rarely admit sparse near-range vectors.

    Samples rotation-invariant projections and counts how often the
    2 gamma-expansion of either eigenspace's range contains a unit vector
    supported on at most n/4 coordinates; the frequency must stay below
    (2/3)^n plus four standard errors.  If 2 gamma >= 1 every projection
    trivially fails the test and the report is marked not applicable.

    Trial t draws its projection from its own stream
    ``seed.derive("range-gap", t)``; trials are evaluated in stacks, and the
    top singular value squared of every (trial, half, support) block is
    decided against the threshold in closed form when the support has at
    most two coordinates, falling back to the SVD within a rounding margin of
    the threshold and for larger supports (see ``_top_sq``).
    """
    r = n // 4
    if r < 1:
        raise ValueError("need n >= 4 so the support budget is nonempty")
    if trials < 1000:
        raise ValueError("need at least 1000 trials")
    blocks = _support_blocks(n, r)
    k = n // 2
    two_gamma = 2 * gamma
    thresh = 1.0 - two_gamma * two_gamma  # hit iff smax^2 >= thresh
    step = max(1, _STACK_FLOATS // (_TRIAL_CHUNK * r * n))
    hits = 0
    for full in _trial_frames(n, n, trials, seed, "range-gap"):
        hit = np.zeros(full.shape[0], dtype=bool)
        for half in (full[..., :k], full[..., k:]):
            for c in range(0, blocks.shape[0], step):
                live = np.flatnonzero(~hit)
                sub = half[live[:, None, None], blocks[c : c + step]]  # (live, c, r, k)
                hit[live[(_top_sq(sub, thresh) >= thresh).any(axis=1)]] = True
        hits += int(np.count_nonzero(hit))
    freq = hits / trials
    bound = (2.0 / 3.0) ** n
    se = math.sqrt(max(freq * (1 - freq), 1.0 / trials) / trials)
    margin = bound + MC_SIGMAS * se - freq
    details = {
        "frequency": freq,
        "standard_error": se,
        "gamma": gamma,
        "support_budget": r,
        "hits": hits,
    }
    applicable = two_gamma < 1
    return _report(
        "range_support_gap",
        f"n={n},gamma={gamma}",
        bound,
        freq,
        margin if applicable else -math.inf,
        trials,
        seed,
        tol,
        applicable=applicable,
        details=details,
    )


# ---------------------------------------------------------------------------
# sign stability under perturbation
# ---------------------------------------------------------------------------

def verify_sign_continuity(
    x: np.ndarray, y: np.ndarray, xi: float, tol: float = 0.0
) -> LemmaReport:
    """Coordinates above the xi/sqrt(n) scale rarely flip sign.

    Counts indices with |x_i| >= xi / sqrt(n) whose sign differs in y; the
    count must not exceed xi^-2 |x - y|^2 n.  Integer comparison, no slack.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    if x.shape != y.shape or x.ndim != 1:
        raise ValueError("x and y must be vectors of equal length")
    n = x.shape[0]
    delta = float(np.linalg.norm(x - y))
    big = np.abs(x) >= xi / math.sqrt(n)
    flips = int(np.sum(big & (np.sign(x) != np.sign(y))))
    bound = (delta * delta) * n / (xi * xi)
    return _report(
        "sign_continuity",
        f"xi={xi},delta={delta:.6g}",
        bound,
        flips,
        bound - flips,
        1,
        None,
        tol,
        details={"flips": flips, "delta": delta},
    )


def verify_typicality_probability(
    sub: TwoDSubspace,
    xi: float,
    c: float,
    alpha: float,
    theta_trials: int = 4096,
    seed: Seed | None = None,
    tol: float = 0.0,
) -> LemmaReport:
    """Random angles rarely leave many large-amplitude coordinates tiny.

    Estimates the probability that at least c |E| of the E-set coordinates
    of x(theta) fall below xi / sqrt(n) at a uniform random theta; the
    bound is xi / (alpha c), vacuous when that exceeds one (still recorded).
    """
    from .subspaces import e_set

    seed = seed or Seed(0)
    e = e_set(sub, alpha)
    if e.size == 0:
        return _report(
            "typicality",
            f"xi={xi},c={c},alpha={alpha}",
            0.0,
            1.0,
            -math.inf,
            theta_trials,
            seed,
            tol,
            applicable=False,
            details={"reason": "empty amplitude set"},
        )
    rng = seed.derive("typicality").generator()
    thetas = rng.uniform(0.0, 2 * np.pi, size=theta_trials)
    x = sub.point(thetas)
    tiny = np.abs(x[:, e]) < xi / math.sqrt(sub.n)
    bad = np.sum(tiny.sum(axis=1) >= c * e.size)
    freq = float(bad) / theta_trials
    bound = xi / (alpha * c)
    se = math.sqrt(max(freq * (1 - freq), 1.0 / theta_trials) / theta_trials)
    margin = bound + MC_SIGMAS * se - freq
    details = {
        "frequency": freq,
        "standard_error": se,
        "vacuous": bool(bound >= 1),
        "e_size": int(e.size),
    }
    return _report(
        "typicality",
        f"xi={xi},c={c},alpha={alpha}",
        bound,
        freq,
        margin,
        theta_trials,
        seed,
        tol,
        details=details,
    )


# ---------------------------------------------------------------------------
# separation of sign vectors and shear residuals
# ---------------------------------------------------------------------------

def verify_sign_vector_separation(
    u: np.ndarray, v: np.ndarray, tol: float = 1e-12
) -> LemmaReport:
    """No multiple of one sign vector approximates another too well.

    For u, v supported on a common set E with entries +-1/sqrt(n) there,
    with r agreements and s disagreements, the least-squares residual
    min over lambda of |u - lambda v| is exactly 2 sqrt(r s / (m n)); the
    verifier computes the residual numerically and checks it is no smaller.
    """
    u = np.asarray(u, dtype=float)
    v = np.asarray(v, dtype=float)
    if u.shape != v.shape or u.ndim != 1:
        raise ValueError("u and v must be vectors of equal length")
    n = u.shape[0]
    scale = 1.0 / math.sqrt(n)
    supp_u = np.flatnonzero(u)
    supp_v = np.flatnonzero(v)
    if not np.array_equal(supp_u, supp_v):
        raise ValueError("u and v must share a common support set")
    e = supp_u
    if e.size == 0:
        raise ValueError("common support is empty")
    for w in (u, v):
        if np.max(np.abs(np.abs(w[e]) - scale)) > 1e-12:
            raise ValueError("entries on the support must be +-1/sqrt(n)")
    m = int(e.size)
    agree = int(np.sum(u[e] == v[e]))
    disagree = m - agree
    lam = float(u @ v) / float(v @ v)
    measured = float(np.linalg.norm(u - lam * v))
    bound = 2 * math.sqrt(agree * disagree / (m * n))
    return _report(
        "sign_vector_gap",
        f"m={m},r={agree},s={disagree}",
        bound,
        measured,
        measured - bound,
        1,
        None,
        tol,
        details={"lambda": lam, "agreements": agree, "disagreements": disagree},
    )


def verify_shear_collinearity(
    a: float,
    b: float,
    c: float,
    d: float,
    x: np.ndarray,
    y: np.ndarray,
    tol: float = 1e-12,
) -> LemmaReport:
    """Two shears of an orthogonal pair stay nearly collinear.

    For orthogonal x, y and u = a x + b y, v = c x + d y, the multiplier
    lambda = (a c |x|^2 + b d |y|^2) / |v|^2 achieves
    |u - lambda v| <= |x| |y| |a d - b c| / |v|.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    nx, ny = np.linalg.norm(x), np.linalg.norm(y)
    if abs(float(x @ y)) > 1e-10 * max(nx * ny, 1e-30):
        raise ValueError("x and y must be orthogonal")
    u = a * x + b * y
    v = c * x + d * y
    nv = float(np.linalg.norm(v))
    if nv == 0.0:
        return _report(
            "shear_collinearity",
            "degenerate v = 0",
            0.0,
            0.0,
            -math.inf,
            1,
            None,
            tol,
            applicable=False,
        )
    lam = (a * c * nx * nx + b * d * ny * ny) / (nv * nv)
    measured = float(np.linalg.norm(u - lam * v))
    bound = nx * ny * abs(a * d - b * c) / nv
    return _report(
        "shear_collinearity",
        f"a={a},b={b},c={c},d={d}",
        bound,
        measured,
        bound - measured,
        1,
        None,
        tol,
        details={"lambda": lam},
    )


def verify_frame_escape(
    k: int,
    n: int,
    trials: int,
    seed: Seed,
    tol: float = 1e-9,
) -> LemmaReport:
    """k orthonormal vectors cannot all hug a (k-1)-dimensional subspace.

    For every sampled orthonormal k-frame and independent (k-1)-dim
    subspace, the farthest frame vector must be at least 1/sqrt(k) away.
    The report carries the worst (smallest) farthest-distance over all
    trials.
    """
    if not 1 <= k <= n:
        raise ValueError("need 1 <= k <= n")
    worst = math.inf
    chunk = 4096
    for lo in range(0, trials, chunk):
        count = min(chunk, trials - lo)
        rng = seed.derive("frame-escape", lo).generator()
        gu = rng.standard_normal((count, n, k))
        qu, ru = np.linalg.qr(gu)
        if k > 1:
            gw = rng.standard_normal((count, n, k - 1))
            qw, _ = np.linalg.qr(gw)
            proj = np.einsum("tnj,tnk->tjk", qw, qu)  # (t, k-1, k)
            resid = qu - np.einsum("tnj,tjk->tnk", qw, proj)
        else:
            resid = qu
        d = np.linalg.norm(resid, axis=1)  # (t, k)
        worst = min(worst, float(d.max(axis=1).min()))
    bound = 1.0 / math.sqrt(k)
    return _report(
        "frame_escape",
        f"k={k},n={n}",
        bound,
        worst,
        worst - bound,
        trials,
        seed,
        tol,
        details={"worst_max_distance": worst},
    )


# ---------------------------------------------------------------------------
# spread of the separated sign set against low-dimensional subspaces
# ---------------------------------------------------------------------------

def _ordered_difference_family(analysis: SignSetAnalysis) -> np.ndarray | None:
    """Five pair representatives folded to [0, pi) and sorted, returned as
    the difference family (consecutive differences plus first + last) the
    spread bound rests on; None when fewer than five pairs exist."""
    if analysis.k < 5:
        return None
    v = analysis.representatives.copy()
    th = analysis.v_thetas[: analysis.k].copy()
    flip = th >= np.pi
    v[flip] *= -1.0
    th = np.where(flip, th - np.pi, th)
    order = np.argsort(th)[:5]
    u = v[order]
    fam = [u[j + 1] - u[j] for j in range(4)]
    fam.append(u[0] + u[4])
    return np.asarray(fam)


def verify_sigma_spread(
    analysis: SignSetAnalysis,
    sub: TwoDSubspace,
    w_frame: Frame,
    beta: float | None = None,
    tol: float = 1e-9,
) -> LemmaReport:
    """With five separated sign pairs, no 4-dim subspace captures them all.

    Requires k >= 5 separated antipodal pairs whose patterns genuinely come
    from a sweep (contiguous positive blocks in phase order, and a mutually
    orthogonal difference family).  Then some collected sign pattern must
    sit at distance at least beta / (2 sqrt 5) from the given 4-dimensional
    subspace.  Instances failing the structural checks are reported as
    inconsistent and not applicable.
    """
    if w_frame.dim != 4:
        raise ValueError("the test subspace must be 4-dimensional")
    beta = float(analysis.beta if beta is None else beta)
    details: dict = {"k": analysis.k, "beta": beta}
    if analysis.k < 5:
        details["reason"] = "fewer than five separated pairs"
        return _report(
            "sign_set_spread", f"k={analysis.k}", 0.0, 0.0, -math.inf,
            analysis.sigma_samples.shape[0], None, tol,
            applicable=False, details=details,
        )
    reps = analysis.representatives
    seps = [
        min(
            float(np.linalg.norm(reps[i] - reps[j])),
            float(np.linalg.norm(reps[i] + reps[j])),
        )
        for i in range(analysis.k)
        for j in range(i + 1, analysis.k)
    ]
    consistent = min(seps) >= beta - 1e-12
    details["min_pair_separation"] = min(seps)
    if consistent and not cyclic_interval_signs(analysis, sub):
        consistent = False
        details["reason"] = "sign patterns lack the contiguous-block structure"
    fam = _ordered_difference_family(analysis)
    if consistent and fam is not None:
        gram = fam @ fam.T
        off = gram - np.diag(np.diag(gram))
        if np.max(np.abs(off)) > 1e-10:
            consistent = False
            details["reason"] = "difference family is not orthogonal"
        elif np.min(np.diag(gram)) < (beta - 1e-9) ** 2:
            consistent = False
            details["reason"] = "difference family member shorter than beta"
    if not consistent:
        details.setdefault("reason", "separation below beta")
        return _report(
            "sign_set_spread", f"k={analysis.k}", 0.0, 0.0, -math.inf,
            analysis.sigma_samples.shape[0], None, tol,
            applicable=False, details=details,
        )
    pts = analysis.sigma_samples if analysis.sigma_samples.size else analysis.V
    cols = w_frame.columns
    resid = pts - (pts @ cols) @ cols.T
    measured = float(np.linalg.norm(resid, axis=1).max())
    bound = beta / (2 * math.sqrt(5.0))
    return _report(
        "sign_set_spread",
        f"k={analysis.k}",
        bound,
        measured,
        measured - bound,
        pts.shape[0],
        None,
        tol,
        details=details,
    )


# ---------------------------------------------------------------------------
# exact parameter chain, wrapped as a report
# ---------------------------------------------------------------------------

def run_parameter_chain(params: ParameterSet | None = None) -> LemmaReport:
    """Exact-arithmetic audit of the full admissibility chain."""
    params = params or ParameterSet.reference_values()
    result: ChainResult = check_parameter_chain(params)
    margins = [c.rel_margin for c in result.conditions]
    details = {
        "conditions": {
            c.cond_id: {
                "passed": c.passed,
                "strict": c.strict,
                "rel_margin": c.rel_margin,
                "bits": c.bits,
            }
            for c in result.conditions
        },
        "binding": result.binding,
        "epsilon_exact": str(result.epsilon),
        "epsilon_float": float(result.epsilon),
    }
    num, den = result.epsilon.numerator, result.epsilon.denominator
    if num == 1 and den & (den - 1) == 0:
        details["epsilon_pow2"] = -(den.bit_length() - 1)
    return _report(
        "parameter_chain",
        "reference" if params == ParameterSet.reference_values() else "custom",
        0.0,
        min(margins),
        min(margins) if result.all_passed else -math.inf,
        len(result.conditions),
        None,
        0.0,
        applicable=True,
        details=details,
    )


# ---------------------------------------------------------------------------
# counterexample probe: the goodness floor over random subspaces
# ---------------------------------------------------------------------------

def verify_goodness_floor(
    n: int,
    eta: float,
    subspace_trials: int,
    seed: Seed,
    grid_size: int = 256,
    tol: float = 1e-7,
) -> LemmaReport:
    """Sweep random 2-D subspaces for the smallest worst-case deficiency.

    Builds one norm from the seed, probes ``subspace_trials`` independent
    random subspaces with :func:`worst_goodness`, and reports the floor
    (the minimum over subspaces of the per-subspace maximum deficiency).
    The report passes when the floor is strictly positive and, crucially,
    larger than the grid enclosure width, so the positivity is resolved by
    the grid rather than being noise.  No external bound is asserted.
    """
    spec = make_norm_spec(n, eta, seed.derive("floor-spec"))
    floor = math.inf
    floor_index = -1
    worst_thetas = []
    for t in range(subspace_trials):
        sub = sample_two_d_subspace(n, seed.derive("floor-sub", t))
        wg = worst_goodness(spec, sub, grid_size=grid_size, tol=tol)
        worst_thetas.append(wg.deficiency)
        if wg.deficiency < floor:
            floor = wg.deficiency
            floor_index = t
    width = spec.C * (math.pi / grid_size)
    arr = np.asarray(worst_thetas)
    details = {
        "floor": floor,
        "floor_subspace": floor_index,
        "enclosure_width": width,
        "max_over_subspaces": float(arr.max()),
        "mean_over_subspaces": float(arr.mean()),
        "n": n,
        "eta": eta,
        "grid_size": grid_size,
    }
    margin = floor - width
    return _report(
        "goodness_floor",
        f"n={n},eta={eta},subspaces={subspace_trials}",
        width,
        floor,
        margin if floor > 0 else -math.inf,
        subspace_trials,
        seed,
        0.0,
        details=details,
    )
