"""Exact-arithmetic audit of the parameter chain behind the construction.

Every quantitative constant the laboratory takes for granted is a dyadic
rational (a fraction with a power-of-two denominator), and the admissibility
of a parameter set boils down to eleven inequality conditions relating them.
Some conditions are purely rational and are decided exactly; the rest involve
pi, sqrt(2), sqrt(5) or square roots of rationals and are decided with
rational interval arithmetic: each irrational is enclosed in a shrinking
rational interval and the inequality is accepted or rejected only when the
two sides' intervals separate.  Precision escalates automatically and the
audit refuses to guess: a condition still undecided at 4096 bits raises.

No floating point is involved anywhere in the decision path.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

_PRECISION_LADDER = (128, 256, 512, 1024, 2048, 4096)


class UndecidableConditionError(RuntimeError):
    """A condition's sides still overlap at the maximum working precision."""


def _as_dyadic(value) -> Fraction:
    f = Fraction(value)
    d = f.denominator
    if d & (d - 1) != 0:
        raise ValueError(f"{value!r} is not a dyadic rational")
    return f


@dataclass(frozen=True)
class RatInterval:
    """Closed interval with exact rational endpoints."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError("interval endpoints out of order")

    @classmethod
    def point(cls, x) -> "RatInterval":
        f = Fraction(x)
        return cls(f, f)

    def __add__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "RatInterval") -> "RatInterval":
        return RatInterval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "RatInterval") -> "RatInterval":
        cands = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return RatInterval(min(cands), max(cands))

    def __truediv__(self, other: "RatInterval") -> "RatInterval":
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("division by an interval containing zero")
        cands = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return RatInterval(min(cands), max(cands))

    def square(self) -> "RatInterval":
        if self.lo >= 0:
            return RatInterval(self.lo * self.lo, self.hi * self.hi)
        if self.hi <= 0:
            return RatInterval(self.hi * self.hi, self.lo * self.lo)
        return RatInterval(
            Fraction(0), max(self.lo * self.lo, self.hi * self.hi)
        )

    @property
    def mid(self) -> Fraction:
        return (self.lo + self.hi) / 2

    @property
    def width(self) -> Fraction:
        return self.hi - self.lo


def sqrt_lower(q: Fraction, bits: int) -> Fraction:
    """Dyadic lower bound for sqrt(q), within 2**-bits of it."""
    if q < 0:
        raise ValueError("negative radicand")
    scaled = (q.numerator << (2 * bits)) // q.denominator
    return Fraction(isqrt(scaled), 1 << bits)


def sqrt_upper(q: Fraction, bits: int) -> Fraction:
    """Dyadic upper bound for sqrt(q), within 2**-bits of it."""
    if q < 0:
        raise ValueError("negative radicand")
    scaled = (q.numerator << (2 * bits)) // q.denominator
    return Fraction(isqrt(scaled) + 1, 1 << bits)


def sqrt_interval(x, bits: int) -> RatInterval:
    """Enclosure of the square root of a nonnegative rational or interval."""
    if isinstance(x, RatInterval):
        return RatInterval(sqrt_lower(x.lo, bits), sqrt_upper(x.hi, bits))
    q = Fraction(x)
    return RatInterval(sqrt_lower(q, bits), sqrt_upper(q, bits))


def _atan_reciprocal(x: int, bits: int) -> RatInterval:
    """Enclosure of arctan(1/x) for integer x >= 2 by the alternating series."""
    eps = Fraction(1, 1 << (bits + 8))
    s = Fraction(0)
    j = 0
    while True:
        term = Fraction(1, (2 * j + 1) * x ** (2 * j + 1))
        if term < eps:
            # remainder of an alternating decreasing series is bounded
            # in magnitude by the first omitted term
            return RatInterval(s - term, s + term)
        s += term if j % 2 == 0 else -term
        j += 1


_PI_CACHE: dict[int, RatInterval] = {}


def pi_interval(bits: int) -> RatInterval:
    """Enclosure of pi via 16 atan(1/5) - 4 atan(1/239)."""
    if bits not in _PI_CACHE:
        a = _atan_reciprocal(5, bits + 6)
        b = _atan_reciprocal(239, bits + 6)
        sixteen = RatInterval.point(16)
        four = RatInterval.point(4)
        _PI_CACHE[bits] = sixteen * a - four * b
    return _PI_CACHE[bits]


@dataclass(frozen=True)
class ParameterSet:
    """The eight free dyadic parameters of the construction.

    The derived quantities are ``zeta`` = xi / (alpha c), the exact dyadic
    goodness level ``epsilon`` = delta^2 / (8 C^2) with C = 2, and the
    sign-defect budget sigma = (8 pi zeta + 9 delta) / eta, which is
    irrational and only available as an interval enclosure.
    """

    gamma: Fraction
    beta: Fraction
    eta: Fraction
    alpha: Fraction
    rho: Fraction
    c: Fraction
    xi: Fraction
    delta: Fraction

    def __post_init__(self):
        for name in ("gamma", "beta", "eta", "alpha", "rho", "c", "xi", "delta"):
            val = _as_dyadic(getattr(self, name))
            if val <= 0:
                raise ValueError(f"{name} must be positive")
            object.__setattr__(self, name, val)

    @classmethod
    def reference_values(cls) -> "ParameterSet":
        """The audited working point: powers of two, from gamma = 2**-37 down."""
        return cls(
            gamma=Fraction(1, 2**37),
            beta=Fraction(1, 2**6),
            eta=Fraction(1, 2**40),
            alpha=Fraction(1, 2**40),
            rho=Fraction(1, 2**40),
            c=Fraction(1, 2**205),
            xi=Fraction(1, 2**403),
            delta=Fraction(1, 2**506),
        )

    @property
    def zeta(self) -> Fraction:
        return self.xi / (self.alpha * self.c)

    @property
    def C(self) -> Fraction:
        return Fraction(2)

    @property
    def epsilon(self) -> Fraction:
        return self.delta**2 / (8 * self.C**2)

    def sigma_interval(self, bits: int) -> RatInterval:
        pi = pi_interval(bits)
        eight_zeta = RatInterval.point(8 * self.zeta)
        nine_delta = RatInterval.point(9 * self.delta)
        return (pi * eight_zeta + nine_delta) / RatInterval.point(self.eta)


@dataclass(frozen=True)
class ConditionResult:
    """Outcome of one inequality, with exact endpoint record."""

    cond_id: str
    description: str
    strict: bool
    passed: bool
    lhs_lo: Fraction
    lhs_hi: Fraction
    rhs_lo: Fraction
    rhs_hi: Fraction
    rel_margin: float
    bits: int


@dataclass(frozen=True)
class ChainResult:
    """Full audit outcome: per-condition results plus derived exact values."""

    conditions: tuple[ConditionResult, ...]
    all_passed: bool
    binding: str
    epsilon: Fraction

    def by_id(self, cond_id: str) -> ConditionResult:
        for c in self.conditions:
            if c.cond_id == cond_id:
                return c
        raise KeyError(cond_id)


def _condition_table(p: ParameterSet):
    """Yield (id, description, strict, builder) for each admissibility condition.

    Each builder maps a bit precision to (lhs, rhs) rational intervals.
    Purely rational conditions ignore the precision and come back as point
    intervals, decided on the first pass.
    """
    pt = RatInterval.point

    def c02(bits):
        two = pt(2)
        return pt(p.delta + p.eta), two - sqrt_interval(Fraction(2), bits)

    def c03(bits):
        return pt(3 * p.delta + 2 * p.eta), pt(p.gamma)

    def c03a(bits):
        return pt(p.alpha), pt(p.gamma)

    def c04(bits):
        return pt(p.xi), pt(p.alpha * p.c)

    def c05(bits):
        return pt(p.beta), pt(1)

    def c06(bits):
        return pt(p.rho), pt(p.gamma)

    def c07(bits):
        pi = pi_interval(bits)
        core = pi * pt(2 * p.xi / (p.alpha * p.c * p.rho))
        return core.square() + pt(p.beta**2 / 2), pt(Fraction(1, 4))

    def c08(bits):
        return pt(p.beta), pt(Fraction(1, 48))

    def c09(bits):
        lhs = p.c + p.delta**2 / p.xi**2
        return pt(lhs), pt(p.beta**4 / 256)

    def c10(bits):
        return p.sigma_interval(bits), pt(p.beta**2 * p.eta**2 / 2**10)

    def c11(bits):
        sigma = p.sigma_interval(bits)
        lever = pt(1 / (p.eta * p.beta**2))
        root = sqrt_interval(p.c + p.delta**2 / p.xi**2, bits)
        lhs = (
            pt(p.alpha + 4 * p.delta + 2 * p.eta)
            + pt(512) * lever * sigma
            + pt(1024) * lever * root
        )
        return lhs, pt(p.gamma)

    def c12(bits):
        lhs = pt(p.beta**2 / 8 + 5 * p.delta / p.eta)
        rhs = pt(p.beta) / (pt(2) * sqrt_interval(Fraction(5), bits))
        return lhs, rhs

    return (
        ("c02", "distortion budget: delta + eta within the 2-Euclidean slack", False, c02),
        ("c03", "eigenspace attraction: 3 delta + 2 eta at most gamma", False, c03),
        ("c03a", "amplitude cutoff within gamma", False, c03a),
        ("c04", "tiny-coordinate scale strictly below alpha c", True, c04),
        ("c05", "separation parameter at most one", False, c05),
        ("c06", "net resolution within gamma", False, c06),
        ("c07", "phase-drift square plus half beta-square strictly below a quarter", True, c07),
        ("c08", "separation parameter survives the pruning cascade", False, c08),
        ("c09", "flip budget dominated by beta fourth over 256", False, c09),
        ("c10", "sign-defect budget within beta^2 eta^2 / 2^10", False, c10),
        ("c11", "assembled drift below gamma", False, c11),
        ("c12", "spread floor: beta^2/8 plus 5 delta/eta strictly below beta/(2 sqrt 5)", True, c12),
    )


def _decide(lhs: RatInterval, rhs: RatInterval, strict: bool) -> bool | None:
    if strict:
        if lhs.hi < rhs.lo:
            return True
        if lhs.lo >= rhs.hi:
            return False
    else:
        if lhs.hi <= rhs.lo:
            return True
        if lhs.lo > rhs.hi:
            return False
    return None


def check_parameter_chain(params: ParameterSet) -> ChainResult:
    """Decide every admissibility condition exactly.

    Returns per-condition outcomes, the overall verdict, and the binding
    condition (the smallest relative margin among those that passed, or the
    first failure).  Raises :class:`UndecidableConditionError` only if some
    condition cannot be separated at the top rung of the precision ladder.
    """
    results: list[ConditionResult] = []
    for cond_id, desc, strict, builder in _condition_table(params):
        verdict = None
        lhs = rhs = None
        bits_used = 0
        for bits in _PRECISION_LADDER:
            lhs, rhs = builder(bits)
            bits_used = bits
            verdict = _decide(lhs, rhs, strict)
            if verdict is not None:
                break
        if verdict is None:
            raise UndecidableConditionError(
                f"{cond_id} undecided at {bits_used} bits: "
                f"lhs in [{lhs.lo}, {lhs.hi}], rhs in [{rhs.lo}, {rhs.hi}]"
            )
        denom = rhs.mid if rhs.mid != 0 else Fraction(1)
        rel = float((rhs.mid - lhs.mid) / abs(denom))
        results.append(
            ConditionResult(
                cond_id=cond_id,
                description=desc,
                strict=strict,
                passed=verdict,
                lhs_lo=lhs.lo,
                lhs_hi=lhs.hi,
                rhs_lo=rhs.lo,
                rhs_hi=rhs.hi,
                rel_margin=rel,
                bits=bits_used,
            )
        )
    all_passed = all(r.passed for r in results)
    failing = [r for r in results if not r.passed]
    if failing:
        binding = failing[0].cond_id
    else:
        binding = min(results, key=lambda r: r.rel_margin).cond_id
    return ChainResult(
        conditions=tuple(results),
        all_passed=all_passed,
        binding=binding,
        epsilon=params.epsilon,
    )
