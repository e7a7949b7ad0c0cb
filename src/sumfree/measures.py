"""Finitely supported measures on the positive integers, in exact rationals.

These are the bookkeeping objects for averaging densities over several
scales at once: block averages of uniform measures over a growth schedule,
convex mixtures, and pushforwards under multiplication by a fixed integer.
The repeated mixture built by ``build_mu`` geometrically contracts the
weight of its starting measure, which is what lets a density statement at
one scale be transported to a dilation-invariant one.

A measure holds positive integer numerators over one denominator, which its
constructor reduces to lowest terms, and sums run on those integers; its
weights, mass and support bound are derived from them.  Every weight, mass
and bound read out is a Fraction, and no floating point enters any
computation here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from fractions import Fraction
from typing import Callable, Mapping, Sequence

from .core import (
    _require_arity, _require_int, _require_rational, _require_within, rational_string,
)
from .errors import FalsificationError, InvalidParameterError

SUPPORT_CAP = 10**6


@dataclass(frozen=True, repr=False)
class RationalMeasure:
    """Map point -> weight numerators[point] / denominator, each numerator positive.

    Construction reduces to lowest terms (the denominator and the numerators have gcd 1),
    so == compares measures."""

    numerators: dict
    denominator: int

    def __post_init__(self) -> None:
        _require_int(self.denominator, "measure denominator")
        if min(self.numerators.values(), default=1) <= 0:
            raise InvalidParameterError("measure numerators must be positive")
        g = math.gcd(self.denominator, *self.numerators.values())
        if g != 1:  # one reduced int per distinct numerator, shared by the points carrying it
            reduced = {n: n // g for n in set(self.numerators.values())}
            shared = {point: reduced[n] for point, n in self.numerators.items()}
            object.__setattr__(self, "numerators", shared)
            object.__setattr__(self, "denominator", self.denominator // g)

    @staticmethod
    def from_weights(mapping: Mapping[int, Fraction]) -> "RationalMeasure":
        clean = {}
        for point, weight in mapping.items():
            _require_int(point, "support point")
            if type(weight) not in (int, Fraction):
                _require_rational(weight, f"weight at {point}")
            if weight.numerator < 0:
                raise InvalidParameterError(f"weights must be >= 0, got {weight} at {point}")
            if weight.numerator:
                clean[point] = weight
        common = math.lcm(*{w.denominator for w in clean.values()})
        return RationalMeasure(
            {point: w.numerator * (common // w.denominator) for point, w in clean.items()}, common
        )

    @cached_property
    def weights(self) -> dict:
        """Map point -> Fraction weight; points of equal weight share one Fraction."""
        weight_of = {n: Fraction(n, self.denominator) for n in set(self.numerators.values())}
        return {point: weight_of[n] for point, n in self.numerators.items()}

    @cached_property
    def mass(self) -> Fraction:
        return Fraction(sum(self.numerators.values()), self.denominator)

    @cached_property
    def support_max(self) -> int:
        return max(self.numerators, default=0)

    def __repr__(self) -> str:
        fields = f"weights={self.weights!r}, mass={self.mass!r}, support_max={self.support_max!r}"
        return f"RationalMeasure({fields})"

    def weight_at(self, point: int) -> Fraction:
        return self.weights.get(point, Fraction(0))

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self.numerators))


def uniform_measure(n: int) -> RationalMeasure:
    """Weight 1/n on each of 1..n."""
    _require_int(n, "uniform measure size n")
    return RationalMeasure(dict.fromkeys(range(1, n + 1), 1), n)


def mix(coefficients: Sequence[Fraction], measures: Sequence[RationalMeasure]) -> RationalMeasure:
    """Convex combination; coefficients must be nonnegative and sum to 1 exactly."""
    if len(coefficients) != len(measures) or not measures:
        raise InvalidParameterError("mix needs matching, nonempty coefficient and measure lists")
    coeffs = [_require_rational(c, "mix coefficient") for c in coefficients]
    if any(c < 0 for c in coeffs):
        raise InvalidParameterError("mix coefficients must be nonnegative")
    if sum(coeffs) != 1:
        raise InvalidParameterError(f"mix coefficients must sum to 1, got {sum(coeffs)}")
    # c times n / m.d is c.n * n over c.d * m.d: scale that denominator to the common one
    pairs = [(c, m) for c, m in zip(coeffs, measures) if c]
    common = math.lcm(*(c.denominator * m.denominator for c, m in pairs))
    numerators: dict[int, int] = {}
    for c, m in pairs:
        scale = c.numerator * (common // (c.denominator * m.denominator))
        for point, n in m.numerators.items():
            numerators[point] = numerators.get(point, 0) + scale * n
    return RationalMeasure(numerators, common)


def pushforward_scale(m: RationalMeasure, q: int) -> RationalMeasure:
    """Image measure under point -> q * point."""
    _require_int(q, "pushforward scale")
    return RationalMeasure({q * point: n for point, n in m.numerators.items()}, m.denominator)


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
        low = 0
        for j, end in enumerate(self.block_ends):
            _require_int(end, f"block boundary {j}", low)  # so the boundaries strictly increase
            low = end + 1
        if not self.block_ends or self.block_ends[0] != 0:
            raise InvalidParameterError("block boundaries must start at index 0")
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
    # scale n_i in a block of |block| scales puts 1/((t+1) |block| n_i) on each of 1..n_i:
    # an integer share of one common denominator.  A point in (n_{i-1}, n_i] carries the
    # suffix sum of the shares of the scales j >= i, one int shared by the interval, so the
    # work is linear in the top scale however many scales lie below it
    denominators = [
        (schedule.t + 1) * (end - start) * n
        for start, end in zip((-1,) + schedule.block_ends, schedule.block_ends)
        for n in schedule.n_sequence[start + 1 : end + 1]
    ]
    common = math.lcm(*denominators)
    suffix = sum(common // d for d in denominators)
    numerators: dict[int, int] = {}
    for below, n, d in zip((0,) + schedule.n_sequence, schedule.n_sequence, denominators):
        numerators |= dict.fromkeys(range(below + 1, n + 1), suffix)
        suffix -= common // d
    built = RationalMeasure(numerators, common)
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
    must be functions of n, returning mass-1 measures supported at least as
    far as the request.  The iteration stops at a repeated mixture, since a
    step whose mixture equals its input repeats forever: at q = 1, with a
    provider supported up to its request, it answers after one step.
    No request may pass SUPPORT_CAP, nor all requests summed 2*SUPPORT_CAP:
    request j is at least n_start*q^(j-1), so a recursion that must pass
    either is refused before the provider is called.
    """
    _require_int(i_max, "step count")
    _require_int(q, "scale factor")
    _require_arity(k)
    _require_int(n_start, "starting scale")
    scale, total, steps = n_start, n_start, i_max - 1
    while steps and q > 1 and scale <= SUPPORT_CAP:
        scale, total, steps = scale * q, total + scale * q, steps - 1
    _require_within(scale, SUPPORT_CAP, "measure support needs {} points")
    # at q = 1 the walk stops at once, and each of the steps left asks for n_start at least
    _require_within(total + steps * scale, 2 * SUPPORT_CAP, "measure requests sum to {} points")
    keep, inject = Fraction(k, k + 1), Fraction(1, k + 1)
    mu, n, requested = None, n_start, 0
    for _ in range(i_max):
        requested += n
        _require_within(n, SUPPORT_CAP, "measure support needs {} points")
        _require_within(requested, 2 * SUPPORT_CAP, "measure requests sum to {} points")
        fresh = nu_provider(n)
        if fresh.mass != 1:
            raise InvalidParameterError(f"nu provider returned mass {fresh.mass} at {n}")
        if fresh.support_max < n:
            raise InvalidParameterError(
                f"nu provider at {n} is supported only up to {fresh.support_max}"
            )
        mixed = fresh if mu is None else mix([keep, inject], [pushforward_scale(mu, q), fresh])
        if mixed.mass != 1:
            raise FalsificationError(f"mixture lost mass: {mixed.mass}")
        if mixed == mu:  # the next request is n again, so every later step repeats this one
            break
        mu, n = mixed, q * mixed.support_max
    return mu


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
