"""Finitely supported measures on the positive integers, in exact rationals.

These are the bookkeeping objects for averaging densities over several
scales at once: block averages of uniform measures over a growth schedule,
convex mixtures, and pushforwards under multiplication by a fixed integer.
The repeated mixture built by ``build_mu`` geometrically contracts the
weight of its starting measure, which is what lets a density statement at
one scale be transported to a dilation-invariant one; ``contraction_index``
says how many steps that takes for a given tolerance.

Every weight, mass and bound is a Fraction, and no floating point enters any
computation here.  Long sums run on integer numerators over one common
denominator, the lcm of the few distinct ones, and become a Fraction once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Iterable, Mapping, Sequence

from .core import (
    IntSet, _require_arity, _require_int, _require_rational, _require_within, rational_string,
)
from .errors import FalsificationError, InvalidParameterError

SUPPORT_CAP = 10**6


@dataclass(frozen=True)
class RationalMeasure:
    """Map point -> positive Fraction weight, with mass and support bound tracked."""

    weights: dict
    mass: Fraction
    support_max: int

    @staticmethod
    def from_weights(mapping: Mapping[int, Fraction]) -> "RationalMeasure":
        clean = {}
        sums: dict[int, int] = {}  # denominator -> sum of the numerators over it
        for point, weight in mapping.items():
            _require_int(point, "support point")
            if type(weight) not in (int, Fraction):
                _require_rational(weight, f"weight at {point}")
            numerator = weight.numerator
            if numerator < 0:
                raise InvalidParameterError(f"weights must be >= 0, got {weight} at {point}")
            if numerator:
                clean[point] = weight if type(weight) is Fraction else Fraction(weight)
                sums[weight.denominator] = sums.get(weight.denominator, 0) + numerator
        common, factor = _common_denominator(sums)
        mass = Fraction(sum(n * factor[d] for d, n in sums.items()), common)
        return RationalMeasure(clean, mass, max(clean, default=0))

    def weight_at(self, point: int) -> Fraction:
        return self.weights.get(point, Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.weights))


def _common_denominator(denominators: Iterable[int]) -> tuple[int, dict[int, int]]:
    """The lcm of the denominators, and the factor taking each distinct one to it."""
    factor = dict.fromkeys(denominators)
    common = math.lcm(*factor)
    return common, {d: common // d for d in factor}


def uniform_measure(n: int) -> RationalMeasure:
    """Weight 1/n on each of 1..n."""
    _require_int(n, "uniform measure size n")
    w = Fraction(1, n)
    return RationalMeasure({p: w for p in range(1, n + 1)}, Fraction(1), n)


def mix(coefficients: Sequence[Fraction], measures: Sequence[RationalMeasure]) -> RationalMeasure:
    """Convex combination; coefficients must be nonnegative and sum to 1 exactly."""
    if len(coefficients) != len(measures) or not measures:
        raise InvalidParameterError("mix needs matching, nonempty coefficient and measure lists")
    coeffs = [_require_rational(c, "mix coefficient") for c in coefficients]
    if any(c < 0 for c in coeffs):
        raise InvalidParameterError("mix coefficients must be nonnegative")
    if sum(coeffs) != 1:
        raise InvalidParameterError(f"mix coefficients must sum to 1, got {sum(coeffs)}")
    # c * w is c.n * w.n over c.d * w.d: scale that denominator to the common one
    pairs = [(c, m) for c, m in zip(coeffs, measures) if c]
    common, factor = _common_denominator(
        c.denominator * w.denominator for c, m in pairs for w in m.weights.values()
    )
    numerators: dict[int, int] = {}
    for c, m in pairs:
        cn, cd = c.numerator, c.denominator
        for point, w in m.weights.items():
            scaled = cn * w.numerator * factor[cd * w.denominator]
            numerators[point] = numerators.get(point, 0) + scaled
    weight_of = {n: Fraction(n, common) for n in set(numerators.values())}
    weights = {point: weight_of[n] for point, n in numerators.items()}
    return RationalMeasure(weights, Fraction(sum(numerators.values()), common), max(weights))


def pushforward_scale(m: RationalMeasure, q: int) -> RationalMeasure:
    """Image measure under point -> q * point."""
    _require_int(q, "pushforward scale")
    return RationalMeasure(
        {q * point: weight for point, weight in m.weights.items()},
        m.mass,
        q * m.support_max,
    )


def evaluate(m: RationalMeasure, s: IntSet) -> Fraction:
    """Measure of the set: sum of weights over support points lying in s."""
    return sum((w for point, w in m.weights.items() if point in s), Fraction(0))


@dataclass(frozen=True)
class NuSchedule:
    """A growth sequence n_0 < n_1 < ... with block boundaries i_0 = 0 < i_1 < ... < i_t.

    Block s averages the uniform measures over the scales strictly after
    i_{s-1} up to i_s (with i_{-1} read as -1, so block 0 is just n_0).
    The full-strength growth conditions (scale ratios at least 16k/eps,
    block gaps at least 2k n_{i_s}/eps, and t at least 2/eps) are what the
    density-transport argument needs; they are not checked, because toy
    schedules that ignore them are still perfectly good measures.
    """

    n_sequence: tuple[int, ...]
    block_ends: tuple[int, ...]
    eps: Fraction
    k: int

    def __post_init__(self) -> None:
        if not self.n_sequence:
            raise InvalidParameterError("schedule needs at least one scale")
        prev = 0
        for j, n in enumerate(self.n_sequence):
            _require_int(n, f"scale {j}", prev + 1)  # so the scales strictly increase
            prev = n
        if not self.block_ends or self.block_ends[0] != 0:
            raise InvalidParameterError("block boundaries must start at index 0")
        for lo, hi in zip(self.block_ends, self.block_ends[1:]):
            if hi <= lo:
                raise InvalidParameterError("block boundaries must be strictly increasing")
        if self.block_ends[-1] >= len(self.n_sequence):
            raise InvalidParameterError("block boundaries run past the scale sequence")
        _require_rational(self.eps, "eps", 0)
        _require_arity(self.k)

    @property
    def t(self) -> int:
        return len(self.block_ends) - 1


def build_nu(schedule: NuSchedule) -> RationalMeasure:
    """Average of per-block averages of uniform measures over the schedule."""
    top_scale = schedule.n_sequence[schedule.block_ends[-1]]
    _require_within(top_scale, SUPPORT_CAP, "measure support needs {} points")
    # scale i carries w_i = 1/((t+1) |block| n_i) on each of 1..n_i, so a point
    # in (n_{i-1}, n_i] weighs the suffix sum of w_j over the scales j >= i
    scale_weights = [
        Fraction(1, (schedule.t + 1) * (end - start) * n)
        for start, end in zip((-1,) + schedule.block_ends, schedule.block_ends)
        for n in schedule.n_sequence[start + 1 : end + 1]
    ]
    suffix = sum(scale_weights, Fraction(0))
    accumulated: dict[int, Fraction] = {}
    for below, n, w in zip((0,) + schedule.n_sequence, schedule.n_sequence, scale_weights):
        accumulated |= dict.fromkeys(range(below + 1, n + 1), suffix)
        suffix -= w
    built = RationalMeasure.from_weights(accumulated)
    if built.mass != 1:
        raise FalsificationError(f"block-average measure has mass {built.mass}, expected 1")
    return built


def build_mu(
    i_max: int,
    q: int,
    k: int,
    nu_provider: Callable[[int], RationalMeasure],
    n_start: int = 1,
) -> RationalMeasure:
    """Iterate mu_{i+1} = (k/(k+1)) * (scale-by-q pushforward of mu_i) + (1/(k+1)) * nu.

    Starts from mu_1 = nu_provider(n_start); at each step the provider is
    asked for a measure at q times the current support bound.  Providers
    must return mass-1 measures supported at least as far as the request.
    No request may pass SUPPORT_CAP: request j is at least n_start*q^(j-1),
    so a recursion that must pass it is refused before the provider is called.
    """
    _require_int(i_max, "step count")
    _require_int(q, "scale factor")
    _require_arity(k)
    _require_int(n_start, "starting scale")
    scale, steps = n_start, i_max - 1
    while steps and scale <= SUPPORT_CAP:
        scale, steps = scale * q, steps - 1
    _require_within(scale, SUPPORT_CAP, "measure support needs {} points")

    def fetch(n: int) -> RationalMeasure:
        _require_within(n, SUPPORT_CAP, "measure support needs {} points")
        candidate = nu_provider(n)
        if candidate.mass != 1:
            raise InvalidParameterError(f"nu provider returned mass {candidate.mass} at {n}")
        if candidate.support_max < n:
            raise InvalidParameterError(
                f"nu provider at {n} is supported only up to {candidate.support_max}"
            )
        return candidate

    mu = fetch(n_start)
    keep = Fraction(k, k + 1)
    inject = Fraction(1, k + 1)
    for _ in range(i_max - 1):
        fresh = fetch(q * mu.support_max)
        mu = mix([keep, inject], [pushforward_scale(mu, q), fresh])
        if mu.mass != 1:
            raise FalsificationError(f"mixture lost mass: {mu.mass}")
    return mu


def contraction_index(k: int, eps: Fraction) -> int:
    """Least i with (k/(k+1))**i <= 2*eps."""
    _require_arity(k)
    eps = _require_rational(eps, "eps")
    if not 0 < eps < Fraction(1, 2):
        raise InvalidParameterError(f"eps must lie in (0, 1/2), got {eps}")
    ratio = Fraction(k, k + 1)
    power = ratio
    i = 1
    while power > 2 * eps:
        power *= ratio
        i += 1
    return i


def serialize_measure(m: RationalMeasure) -> str:
    """One line per support point: 'point numerator/denominator', sorted by point."""
    return "".join(f"{point} {rational_string(w)}\n" for point, w in sorted(m.weights.items()))


def parse_measure(text: str) -> RationalMeasure:
    weights: dict[int, Fraction] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if len(parts) != 2:
            raise InvalidParameterError(f"line {lineno}: expected 'point num/den', got {line!r}")
        try:
            point = int(parts[0])
            weight = Fraction(parts[1])
        except (ValueError, ZeroDivisionError):
            raise InvalidParameterError(f"line {lineno}: bad measure entry {line!r}") from None
        if point in weights:
            raise InvalidParameterError(f"line {lineno}: duplicate support point {point}")
        weights[point] = weight
    return RationalMeasure.from_weights(weights)
