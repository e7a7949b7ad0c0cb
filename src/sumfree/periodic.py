"""Periodic structure analysis for k-sum-free sets.

Projects a set onto residues modulo Q, tests sum-freeness at residue
level, extracts the difference kernel (residues that can never be hit by
adding k-1 set elements, read off ``core.k_difference_set`` on the
residues lifted to [1, Q]), searches for arithmetic progressions with
constrained difference, and runs the containment-or-density-drop step:
either the residue projection certifies a periodic k-sum-free superset,
or an explicit density drop along a fast-growing schedule is located and
verified.  A failed scan is reported as a falsification together with a
fully replayable instance.
"""

from __future__ import annotations

import json
import re
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    IntSet, _bits, _mask, _require_arity, _require_int, _require_rational, _require_within,
    is_k_sum_free, k_difference_set, rational_string,
)
from .errors import FalsificationError, InvalidParameterError

# bound on the bits of all entries of one geometric schedule (about 12 MB)
SCHEDULE_BIT_CAP = 10**8
PROGRESSION_BIT_CAP = 10**7  # width of the progression search's mask (about 1.2 MB)


def density(s: IntSet, n: int) -> Fraction:
    """Exact density |s ∩ [1, n]| / n."""
    _require_int(n, "density horizon")
    return Fraction(bisect_right(s.elements, n), n)


@dataclass(frozen=True)
class ResidueSet:
    """A set of residues modulo Q, standing for the Q-periodic subset of N."""

    modulus: int
    residues: frozenset

    def __post_init__(self) -> None:
        _require_int(self.modulus, "modulus")
        for r in self.residues:
            if type(r) is not int or not 0 <= r < self.modulus:
                raise InvalidParameterError(
                    f"residue {r!r} out of range for modulus {self.modulus}"
                )

    @classmethod
    def of(cls, modulus: int, residues) -> "ResidueSet":
        _require_int(modulus, "modulus")
        return cls(modulus, frozenset(r % modulus for r in residues))


def periodic_hull(s: IntSet, n0: int, modulus: int) -> ResidueSet:
    """Residues modulo `modulus` hit by s within [1, n0]."""
    _require_int(n0, "horizon")
    return ResidueSet.of(modulus, s.upto(n0))


def difference_kernel(r: ResidueSet, k: int) -> ResidueSet:
    """Residues of r that stay outside r under adding any k-1 residues of r.

    The result is always k-sum-free at residue level: a sum of k kernel
    members is a kernel member plus k-1 members of r, which by the
    defining condition cannot land in r, let alone in the kernel.  r is
    k-sum-free at residue level, and so is the periodic set it stands for,
    exactly when the kernel is all of r.

    x plus k-1 members of r is a member u exactly when x ≡ u minus those k-1,
    so the kernel is r less the residues of ``k_difference_set`` on r lifted
    to [1, Q] (residue 0 stands as Q), and DIFFERENCE_WORK_CAP bounds it.
    """
    q = r.modulus
    reached = k_difference_set(IntSet.of(x or q for x in r.residues), k, q)
    return ResidueSet(q, r.residues - {t % q for t in reached})


def _within_bajnok(size: int, q: int, k: int) -> bool:
    """Whether size <= v(q), Bajnok's largest k-sum-free subset of Z/q: the
    maximum over d | q of the arc width floor((d - 1 - gcd(d, k - 1))/(k + 1)) + 1
    of Z/d, lifted q/d times.  d = q is read first: its width exceeds
    (q - k)/(k + 1), so a size past it puts q below (k + 1)·size + k, and only
    then are the divisors found, by trial up to sqrt(q).
    """

    def lifted(d: int) -> int:
        return ((d - 1 - gcd(d, k - 1)) // (k + 1) + 1) * (q // d)

    if size <= lifted(q):
        return True
    return size <= max(lifted(e) for d in range(1, isqrt(q) + 1) if not q % d for e in (d, q // d))


def _progressions(
    s: IntSet, n0: int, ap_length: int, steps: Iterable[int]
) -> Iterator[tuple[int, int]]:
    """(start, step) of each ap_length-term progression in s ∩ [1, n0].

    A shifted AND: with M the bitmask of s ∩ [1, n0], the starts for step m
    are the set bits of M & M>>m & ... & M>>(ap_length-1)m.  Steps are taken
    in the given order, and starts ascending within a step.  M is as wide as
    max(s ∩ [1, n0]); past PROGRESSION_BIT_CAP it is refused before it is built.
    """
    restricted = s.upto(n0).elements
    _require_within(max(restricted, default=0), PROGRESSION_BIT_CAP, "progression mask has {} bits")
    mask = _mask(restricted)
    for m in steps:
        starts = mask
        for j in range(1, ap_length):
            starts &= mask >> (j * m)
        for x in _bits(starts):
            yield (x, m)


def find_ap(s: IntSet, n0: int, ap_length: int, modulus: int) -> Optional[tuple[int, int]]:
    """An arithmetic progression in s ∩ [1, n0] with step dividing modulus.

    Returns (start, step), preferring the smallest step among divisors of
    the modulus in ascending order and then the smallest start; None when
    no progression of the requested length exists.
    """
    _require_int(ap_length, "progression length")
    _require_int(modulus, "modulus")
    _require_int(n0, "horizon")
    # a progression of two or more terms in [1, n0] has a step below n0, and at
    # length 1 step 1 answers first, so no divisor past n0 can give an answer
    divisors = (m for m in range(1, min(modulus, n0) + 1) if modulus % m == 0)
    return next(_progressions(s, n0, ap_length, divisors), None)


def _drop_expression(ap_length: int, k: int) -> Fraction:
    return Fraction(ap_length + k - 2, ap_length * (k + 1) + k - 3)


def min_ap_length(k: int, eps: Fraction) -> int:
    """Least progression length i with (i+k-2)/(i(k+1)+k-3) <= 1/(k+1) + eps/4.

    The expression decreases to 1/(k+1) as i grows, so a minimum exists
    for every positive eps.  Solved exactly in integers: with eps = a/b,
    i(k+1)+k-3 and (k+1)a/(4b) are positive, so the inequality rearranges to
    i >= (4b(k-1)^2 - (k-3)(k+1)a) / ((k+1)^2 a), and the ceiling is the least i.
    """
    _require_arity(k)
    eps = _require_rational(eps, "eps", 0)
    a, b = eps.numerator, eps.denominator
    numer = 4 * b * (k - 1) ** 2 - (k - 3) * (k + 1) * a
    return max(1, -(-numer // ((k + 1) ** 2 * a)))


def _scales(start: int, ratio: Fraction, count: int) -> Iterator[int]:
    """geometric_schedule's entries, unguarded and lazy; the bit bound is checked at the call."""
    p, q = ratio.numerator, ratio.denominator
    step_bits = (-(-p // q)).bit_length()
    required = count * start.bit_length() + count * (count + 1) // 2 * step_bits
    _require_within(required, SCHEDULE_BIT_CAP, "schedule needs up to {} bits")
    cur = start  # the generator's walrus rebinds it, so each entry grows from the last
    if q == 1:  # every eps = 1/d; a ceiling division by 1 gives the same at 4x the cost
        return (cur := cur * p for _ in range(count))
    return (cur := -(-cur * p // q) for _ in range(count))


def geometric_schedule(start: int, ratio: Fraction, count: int) -> tuple[int, ...]:
    """count integers growing from start by at least the given ratio each step.

    Entry j has at most bit_length(start) + j*bit_length(ceil(ratio)) bits, so
    a schedule whose summed bound exceeds SCHEDULE_BIT_CAP is refused with
    ResourceLimitError before any entry is built.
    """
    _require_int(start, "schedule start")
    ratio = _require_rational(ratio, "schedule ratio", 1)
    _require_int(count, "schedule length", 0)
    return tuple(_scales(start, ratio, count))


@dataclass(frozen=True)
class DensityDropInstance:
    """A replayable certificate request for the density-drop bound.

    Carries the set, the horizon n0, the progression (start, step,
    length) inside [1, n0], a signed difference writable as one set
    member minus k-1 set members and congruent to the start mod step,
    the bound's eps, and the ratio of the scanned schedule: the k*n0
    entries of ``geometric_schedule(n0, ratio, k*n0)``.
    """

    elements: IntSet
    n0: int
    ap_start: int
    ap_step: int
    ap_length: int
    difference: int
    eps: Fraction
    ratio: Fraction
    k: int

    @property
    def schedule(self) -> tuple[int, ...]:
        """The scanned schedule, built from n0, the ratio and k."""
        return tuple(_scales(self.n0, self.ratio, self.k * self.n0))


def serialize_instance(instance: DensityDropInstance) -> str:
    """JSON with "n/d" strings for eps and the schedule ratio."""
    payload = {name: getattr(instance, name) for name in DensityDropInstance.__dataclass_fields__}
    payload.update(
        elements=list(instance.elements.elements),
        eps=rational_string(instance.eps),
        ratio=rational_string(instance.ratio),
    )
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_instance(text: str) -> DensityDropInstance:
    """Read what ``serialize_instance`` writes, in exactly its keys and forms, coercing nothing."""
    try:
        payload = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise InvalidParameterError(f"instance is not valid JSON: {exc}") from None
    names = DensityDropInstance.__dataclass_fields__.keys()
    fields = payload if type(payload) is dict else {}
    if fields.keys() != names:
        unknown, missing = sorted(fields.keys() - names), sorted(names - fields.keys())
        raise InvalidParameterError(f"instance has unknown keys {unknown} and lacks {missing}")
    try:
        for name, low in (("n0", 1), ("ap_start", 1), ("ap_step", 1), ("ap_length", 1), ("k", 2)):
            _require_int(fields[name], name, low)
        difference = fields["difference"]
        if type(difference) is not int:
            raise InvalidParameterError(f"difference must be an integer, got {difference!r}")
        for name in ("eps", "ratio"):
            value = fields[name]
            exact = type(value) is str and re.fullmatch(r"-?[0-9]+/[1-9][0-9]*", value)
            if not exact or rational_string(Fraction(value)) != value:
                raise InvalidParameterError(f"{name} must be 'n/d' in lowest terms, got {value!r}")
            fields[name] = Fraction(value)
        if type(fields["elements"]) is not list:
            raise InvalidParameterError(f"elements must be a list, got {fields['elements']!r}")
        fields.update(elements=IntSet(tuple(fields["elements"])))
        return DensityDropInstance(**fields)
    except (TypeError, ValueError) as exc:
        raise InvalidParameterError(f"malformed instance payload: {exc}") from None


def _require_progression(s: IntSet, start: int, step: int, length: int) -> None:
    """Reject a start, step or length that is not an integer >= 1, and any term outside s."""
    _require_int(start, "progression start")
    _require_int(step, "progression step")
    _require_int(length, "progression length")
    members = s._members
    for j in range(length):
        if start + j * step not in members:
            raise InvalidParameterError(f"progression term {start + j * step} is not in the set")


def _neighboured_count(s: IntSet, n: int, step: int, length: int) -> int:
    """How many members a <= n of s have some a + j*step in s, j in 1..length.

    One ascending pass that keeps the last member seen in each residue class
    mod step: a member has such a neighbour exactly when the next member of
    its class is within length*step of it.  Linear in |s|, whatever max(s) or n.
    """
    reach = length * step
    last: dict[int, int] = {}
    count = 0
    for b in s.elements[: bisect_right(s.elements, n + reach)]:
        r = b % step
        if r in last:
            a = last[r]
            if b - a <= reach and a <= n:
                count += 1
        last[r] = b
    return count


def _first_drop(
    s: IntSet, schedule: Iterable[int], bound: Fraction
) -> Optional[tuple[int, Fraction]]:
    """1-based index and density of the first schedule entry with density <= bound."""
    for index, n in enumerate(schedule, start=1):
        value = density(s, n)
        if value <= bound:
            return index, value
    return None


def verify_density_drop(instance: DensityDropInstance, k: int) -> bool:
    """Check the density-drop conclusion on a hypothesis-satisfying instance.

    Scans the instance's schedule, indices 1..k*n0, for an exact density
    at or below (i+k-2)/(i(k+1)+k-3) + 4k*eps, building each entry as it
    goes and stopping at the first drop.  Hypothesis failures, a ratio
    below 1/eps among them, raise invalid-parameter errors naming the
    failed hypothesis; a scan with no drop returns False, which callers
    must treat as a loud falsification.
    """
    if instance.k != k:
        raise InvalidParameterError(
            f"instance was built for arity {instance.k}, checked with {k}"
        )
    _require_int(instance.n0, "horizon n0")
    _require_progression(instance.elements, instance.ap_start, instance.ap_step, instance.ap_length)
    eps = _require_rational(instance.eps, "eps", 0)
    ratio = _require_rational(instance.ratio, "ratio", 1)
    if ratio < 1 / eps:
        raise InvalidParameterError(f"ratio {ratio} is below 1/eps = {1 / eps}")
    if not is_k_sum_free(instance.elements, k):
        raise InvalidParameterError("set is not k-sum-free on its data")
    last = instance.ap_start + (instance.ap_length - 1) * instance.ap_step
    if last > instance.n0:
        raise InvalidParameterError(
            f"progression reaches {last}, beyond the horizon {instance.n0}"
        )
    if instance.difference not in k_difference_set(instance.elements, k, instance.n0):
        raise InvalidParameterError(
            f"difference {instance.difference} is not writable as one member "
            f"minus {k - 1} members within [1, {instance.n0}]"
        )
    if (instance.difference - instance.ap_start) % instance.ap_step != 0:
        raise InvalidParameterError(
            f"difference {instance.difference} is not congruent to the start "
            f"{instance.ap_start} modulo the step {instance.ap_step}"
        )
    bound = _drop_expression(instance.ap_length, k) + 4 * k * eps
    scales = _scales(instance.n0, ratio, k * instance.n0)
    return _first_drop(instance.elements, scales, bound) is not None


def check_translate_inequality(
    s: IntSet, n: int, x: int, m: int, i: int, k: int
) -> bool:
    """Counting inequality from disjoint shifted copies of the set.

    With B the members having a forward progression neighbor (a + j*m in
    the set for some j in 1..i), checks
    (i+1)|A_n| - (i-1)|B_n| <= n + (k-1)x + (i-1)m exactly.  Under the
    preconditions (k-sum-free set containing the progression
    x, x+m, ..., x+(i-1)m) this provably holds; False is a falsification.
    |B_n| is counted in one pass over the members up to n + i*m, keeping the
    last member of each residue class mod m, so its cost follows |s| and
    neither max(s) nor n.
    """
    _require_int(n, "count horizon")
    _require_progression(s, x, m, i)
    if not is_k_sum_free(s, k):
        raise InvalidParameterError("set is not k-sum-free on its data")
    a_count = bisect_right(s.elements, n)
    b_count = _neighboured_count(s, n, m, i)
    return (i + 1) * a_count - (i - 1) * b_count <= n + (k - 1) * x + (i - 1) * m


@dataclass(frozen=True)
class PeriodicContainment:
    """The horizon slice embeds in the periodic k-sum-free set of this hull."""

    hull: ResidueSet

    tag = "periodic-containment"


@dataclass(frozen=True)
class DensityDrop:
    """Scheduled density fell to 1/(k+1) + eps/2 at this 1-based index."""

    index: int
    value: Fraction

    tag = "density-drop"


@dataclass(frozen=True)
class ApNotFound:
    """No progression of the requested shape; parameters were below guarantee."""

    tag = "ap-not-found"


@dataclass(frozen=True)
class Falsified:
    """Hypotheses held but no density drop appeared; carries a replayable instance."""

    instance: DensityDropInstance
    reason: str

    tag = "falsified"


# a types.UnionType: a typing.Union would sit in typing's cache and keep this
# module alive after the package is imported afresh
StepOutcome = PeriodicContainment | DensityDrop | ApNotFound | Falsified


def fls_step(
    s: IntSet,
    k: int,
    n0: int,
    modulus: int,
    ap_length: int,
    eps: Fraction,
    schedule: Optional[Sequence[int]] = None,
) -> StepOutcome:
    """One containment-or-drop step for a dense k-sum-free set.

    Either the residue hull modulo `modulus` is k-sum-free, certifying a
    periodic k-sum-free superset of the horizon slice, or a density drop
    to 1/(k+1) + eps/2 is located along the schedule.  ApNotFound means
    the supplied (modulus, ap_length, n0) sat below the sizes that would
    guarantee a progression; Falsified means every hypothesis held and
    the scan still failed, which is a bug or a counterexample and ships
    with a replayable instance.  A containment hull larger than Bajnok's
    v(Q), the largest k-sum-free size in Z/Q, raises FalsificationError,
    as only a faulty kernel could keep it.  The step scans the entries of
    ``geometric_schedule(n0, 16k/eps, k*n0)`` as it builds them, up to the
    first drop.  A given schedule must equal that one: the instance of a
    Falsified outcome records only the ratio.
    """
    eps = _require_rational(eps, "eps", 0)
    needed = min_ap_length(k, eps)
    _require_int(ap_length, f"progression length for the drop bound at eps {eps}", needed)
    _require_int(n0, "horizon")
    ratio = Fraction(16 * k) / eps
    scales = _scales(n0, ratio, k * n0)
    if not is_k_sum_free(s, k):
        raise InvalidParameterError("input set is not k-sum-free on its data")
    threshold = Fraction(1, k + 1) + eps
    have = density(s, n0)
    if have < threshold:
        raise InvalidParameterError(
            f"density at {n0} is {have}, below the required {threshold}"
        )
    if schedule is not None and tuple(schedule) != tuple(_scales(n0, ratio, k * n0)):
        raise InvalidParameterError(
            f"a given schedule must equal geometric_schedule(n0, {ratio}, {k * n0})"
        )
    restricted = s.upto(n0)
    hull = ResidueSet.of(modulus, restricted)
    kernel = difference_kernel(hull, k)
    if kernel == hull:
        # a hull the kernel keeps whole is k-sum-free in Z/Q, so Bajnok bounds its size
        if not _within_bajnok(len(hull.residues), modulus, k):
            raise FalsificationError(
                f"the kernel kept a hull of {len(hull.residues)} residues mod {modulus}, "
                f"past the largest {k}-sum-free size in Z/{modulus}"
            )
        return PeriodicContainment(hull)
    candidates = IntSet(tuple(a for a in restricted if a % modulus not in kernel.residues))
    ap = find_ap(candidates, n0, ap_length, modulus)
    if ap is None:
        return ApNotFound()
    drop_bound = Fraction(1, k + 1) + eps / 2
    if (hit := _first_drop(s, scales, drop_bound)) is not None:
        return DensityDrop(*hit)
    x, m = ap
    # only a Falsified instance reads d, so it is derived after the scan fails.
    # x's residue escapes the kernel, so some member minus k-1 members of the
    # restriction is congruent to x mod Q; d is the least such difference
    diffs = k_difference_set(restricted, k, n0)
    d = min((t for t in diffs if (t - x) % modulus == 0), default=None)
    if d is None:
        raise FalsificationError(
            "difference derivation failed although the start residue escapes the kernel"
        )
    instance = DensityDropInstance(
        elements=s,
        n0=n0,
        ap_start=x,
        ap_step=m,
        ap_length=ap_length,
        difference=d,
        eps=eps / (16 * k),
        ratio=ratio,
        k=k,
    )
    return Falsified(
        instance,
        reason=f"no scheduled density at or below {drop_bound} within {k * n0} indices",
    )
