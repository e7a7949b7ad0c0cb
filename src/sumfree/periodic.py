"""Periodic structure analysis for k-sum-free sets.

Projects a set onto residues modulo Q, tests sum-freeness at residue
level, extracts the difference kernel (residues that can never be hit by
adding k-1 set elements), searches for arithmetic progressions with
constrained difference, and runs the containment-or-density-drop step:
either the residue projection certifies a periodic k-sum-free superset,
or an explicit density drop along a fast-growing schedule is located and
verified.  A failed scan is reported as a falsification together with a
fully replayable instance.
"""

from __future__ import annotations

import json
import math
from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Iterator, Optional, Sequence

from .core import (
    IntSet, _bits, _require_arity, _require_int, _require_rational, _require_within, _sums_of,
    difference_witness, is_k_sum_free, rational_string,
)
from .errors import FalsificationError, InvalidParameterError

# bound on the bits of all entries of one geometric schedule (about 12 MB)
SCHEDULE_BIT_CAP = 10**8


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


def is_residue_k_sum_free(r: ResidueSet, k: int) -> bool:
    """No multiset of k residues of r sums, mod Q, to a residue of r.

    Equivalent to the represented periodic set being k-sum-free in N:
    large representatives realize any residue identity with honest sums.
    Decided as difference_kernel(r, k) == r, since a sum of k residues is
    one residue plus k-1 more.
    """
    return difference_kernel(r, k) == r


def difference_kernel(r: ResidueSet, k: int) -> ResidueSet:
    """Residues of r that stay outside r under adding any k-1 residues of r.

    The result is always k-sum-free at residue level: a sum of k kernel
    members is a kernel member plus k-1 members of r, which by the
    defining condition cannot land in r, let alone in the kernel.
    """
    _require_arity(k)
    shifts = {t % r.modulus for t in _sums_of(tuple(r.residues), k - 1)}
    kept = frozenset(
        x for x in r.residues
        if all((x + t) % r.modulus not in r.residues for t in shifts)
    )
    return ResidueSet(r.modulus, kept)


def _progressions(
    s: IntSet, n0: int, ap_length: int, steps: Iterable[int]
) -> Iterator[tuple[int, int]]:
    """(start, step) of each ap_length-term progression in s ∩ [1, n0].

    A shifted AND: with M the bitmask of s ∩ [1, n0], the starts for step m
    are the set bits of M & M>>m & ... & M>>(ap_length-1)m.  Steps are taken
    in the given order, and starts ascending within a step.
    """
    mask = 0
    for a in s.upto(n0).elements:
        mask |= 1 << a
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
    divisors = (m for m in range(1, modulus + 1) if modulus % m == 0)
    return next(_progressions(s, n0, ap_length, divisors), None)


def _drop_expression(ap_length: int, k: int) -> Fraction:
    return Fraction(ap_length + k - 2, ap_length * (k + 1) + k - 3)


def min_ap_length(k: int, eps: Fraction) -> int:
    """Least progression length i with (i+k-2)/(i(k+1)+k-3) <= 1/(k+1) + eps/4.

    The expression decreases to 1/(k+1) as i grows, so a minimum exists
    for every positive eps.  Solved exactly in closed form: i(k+1)+k-3 and
    target(k+1)-1 = (k+1)eps/4 are positive, so the ceiling is the least i.
    """
    _require_arity(k)
    eps = _require_rational(eps, "eps", 0)
    target = Fraction(1, k + 1) + eps / 4
    # (i+k-2) <= target*(i(k+1)+k-3) rearranges to i >= (k-2-target(k-3)) / (target(k+1)-1)
    numer = k - 2 - target * (k - 3)
    denom = target * (k + 1) - 1
    return max(1, math.ceil(numer / denom))


def geometric_schedule(start: int, ratio: Fraction, count: int) -> tuple[int, ...]:
    """count integers growing from start by at least the given ratio each step.

    Entry j has at most bit_length(start) + j*bit_length(ceil(ratio)) bits, so
    a schedule whose summed bound exceeds SCHEDULE_BIT_CAP is refused with
    ResourceLimitError before any entry is built.
    """
    _require_int(start, "schedule start")
    ratio = _require_rational(ratio, "schedule ratio", 1)
    _require_int(count, "schedule length", 0)
    step_bits = (-(-ratio.numerator // ratio.denominator)).bit_length()
    required = count * start.bit_length() + count * (count + 1) // 2 * step_bits
    _require_within(required, SCHEDULE_BIT_CAP, "schedule needs up to {} bits")
    out = []
    cur = start
    for _ in range(count):
        cur = -(-cur * ratio.numerator // ratio.denominator)
        out.append(cur)
    return tuple(out)


@dataclass(frozen=True)
class DensityDropInstance:
    """A replayable certificate request for the density-drop bound.

    Carries the set, the horizon n0, the progression (start, step,
    length) inside [1, n0], a signed difference writable as one set
    member minus k-1 set members and congruent to the start mod step,
    the bound's eps, and the scanning schedule.
    """

    elements: IntSet
    n0: int
    ap_start: int
    ap_step: int
    ap_length: int
    difference: int
    eps: Fraction
    schedule: tuple[int, ...]
    k: int


def serialize_instance(instance: DensityDropInstance) -> str:
    """JSON with an "n/d" eps and "0x" hex schedule entries, which no digit limit stops."""
    payload = {name: getattr(instance, name) for name in DensityDropInstance.__dataclass_fields__}
    payload.update(
        elements=list(instance.elements.elements),
        eps=rational_string(instance.eps),
        schedule=[hex(n) for n in instance.schedule],
    )
    return json.dumps(payload, sort_keys=True, indent=2) + "\n"


def parse_instance(text: str) -> DensityDropInstance:
    """Read what ``serialize_instance`` writes, in exactly its forms, coercing nothing."""
    try:
        payload = json.loads(text)
    except ValueError as exc:  # a JSONDecodeError, or an integer past the digit limit
        raise InvalidParameterError(f"instance is not valid JSON: {exc}") from None
    try:
        fields = {name: payload[name] for name in DensityDropInstance.__dataclass_fields__}
        for name, low in (("n0", 1), ("ap_start", 1), ("ap_step", 1), ("ap_length", 1), ("k", 2)):
            _require_int(fields[name], name, low)
        schedule = tuple(int(n, 16) if type(n) is str else 0 for n in fields["schedule"])
        if any(n < 1 or hex(n) != text for n, text in zip(schedule, fields["schedule"])):
            raise InvalidParameterError("schedule entries must be '0x' hex integers >= 1")
        difference, eps = fields["difference"], fields["eps"]
        if type(difference) is not int:
            raise InvalidParameterError(f"difference must be an integer, got {difference!r}")
        value = Fraction(eps) if type(eps) is str else None
        if value is None or rational_string(value) != eps:
            raise InvalidParameterError(f"eps must be an 'n/d' string in lowest terms, got {eps!r}")
        fields.update(elements=IntSet.of(fields["elements"]), eps=value, schedule=schedule)
        return DensityDropInstance(**fields)
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        raise InvalidParameterError(f"malformed instance payload: {exc}") from None


def _check_schedule(schedule: Sequence[int], base: int, min_ratio: Fraction) -> None:
    p, q = min_ratio.numerator, min_ratio.denominator
    prev = base
    for j, n in enumerate(schedule):
        _require_int(n, f"schedule: entry {j}")
        if n * q < p * prev:
            raise InvalidParameterError(
                f"schedule: entry {j} = {n} grows by less than the required "
                f"ratio {min_ratio} over {prev}"
            )
        prev = n


def _require_progression(s: IntSet, start: int, step: int, length: int) -> None:
    """Reject a start, step or length that is not an integer >= 1, and any term outside s."""
    _require_int(start, "progression start")
    _require_int(step, "progression step")
    _require_int(length, "progression length")
    members = s._members
    for j in range(length):
        if start + j * step not in members:
            raise InvalidParameterError(f"progression term {start + j * step} is not in the set")


def _neighboured(s: IntSet, step: int, length: int) -> list[int]:
    """Members a of s, ascending, with some a + j*step in s for j in 1..length."""
    members = s._members
    return [a for a in s if any(a + j * step in members for j in range(1, length + 1))]


def _first_drop(
    s: IntSet, schedule: Sequence[int], bound: Fraction
) -> Optional[tuple[int, Fraction]]:
    """1-based index and density of the first schedule entry with density <= bound."""
    for index, n in enumerate(schedule, start=1):
        value = density(s, n)
        if value <= bound:
            return index, value
    return None


def verify_density_drop(instance: DensityDropInstance, k: int) -> bool:
    """Check the density-drop conclusion on a hypothesis-satisfying instance.

    Scans schedule indices 1..k*n0 for an exact density at or below
    (i+k-2)/(i(k+1)+k-3) + 4k*eps.  Hypothesis failures raise
    invalid-parameter errors naming the failed hypothesis; a full-length
    scan with no drop returns False, which callers must treat as a loud
    falsification.
    """
    if instance.k != k:
        raise InvalidParameterError(
            f"instance was built for arity {instance.k}, checked with {k}"
        )
    _require_progression(instance.elements, instance.ap_start, instance.ap_step, instance.ap_length)
    eps = _require_rational(instance.eps, "eps", 0)
    if not is_k_sum_free(instance.elements, k):
        raise InvalidParameterError("set is not k-sum-free on its data")
    last = instance.ap_start + (instance.ap_length - 1) * instance.ap_step
    if last > instance.n0:
        raise InvalidParameterError(
            f"progression reaches {last}, beyond the horizon {instance.n0}"
        )
    restricted = instance.elements.upto(instance.n0)
    if difference_witness(restricted, instance.difference, k) is None:
        raise InvalidParameterError(
            f"difference {instance.difference} is not writable as one member "
            f"minus {k - 1} members within [1, {instance.n0}]"
        )
    if (instance.difference - instance.ap_start) % instance.ap_step != 0:
        raise InvalidParameterError(
            f"difference {instance.difference} is not congruent to the start "
            f"{instance.ap_start} modulo the step {instance.ap_step}"
        )
    _check_schedule(instance.schedule, instance.n0, 1 / eps)
    bound = _drop_expression(instance.ap_length, k) + 4 * k * eps
    limit = k * instance.n0
    if _first_drop(instance.elements, instance.schedule[:limit], bound) is not None:
        return True
    if len(instance.schedule) < limit:
        raise InvalidParameterError(
            f"schedule has {len(instance.schedule)} entries but the conclusion "
            f"scans indices 1..{limit}; no drop found in the available prefix"
        )
    return False


def check_translate_inequality(
    s: IntSet, n: int, x: int, m: int, i: int, k: int
) -> bool:
    """Counting inequality from disjoint shifted copies of the set.

    With B the members having a forward progression neighbor (a + j*m in
    the set for some j in 1..i), checks
    (i+1)|A_n| - (i-1)|B_n| <= n + (k-1)x + (i-1)m exactly.  Under the
    preconditions (k-sum-free set containing the progression
    x, x+m, ..., x+(i-1)m) this provably holds; False is a falsification.
    """
    _require_int(n, "count horizon")
    _require_progression(s, x, m, i)
    if not is_k_sum_free(s, k):
        raise InvalidParameterError("set is not k-sum-free on its data")
    a_count = bisect_right(s.elements, n)
    b_count = bisect_right(_neighboured(s, m, i), n)
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
    with a replayable instance.  Without a schedule the step scans
    ``geometric_schedule(n0, 16k/eps, k*n0)``.
    """
    eps = _require_rational(eps, "eps", 0)
    needed = min_ap_length(k, eps)
    _require_int(ap_length, f"progression length for the drop bound at eps {eps}", needed)
    ratio = Fraction(16 * k) / eps
    derived = schedule is None
    schedule = geometric_schedule(n0, ratio, k * n0) if derived else tuple(schedule)
    if not is_k_sum_free(s, k):
        raise InvalidParameterError("input set is not k-sum-free on its data")
    threshold = Fraction(1, k + 1) + eps
    have = density(s, n0)
    if have < threshold:
        raise InvalidParameterError(
            f"density at {n0} is {have}, below the required {threshold}"
        )
    if len(schedule) < k * n0:
        raise InvalidParameterError(
            f"schedule has {len(schedule)} entries, needs at least k*n0 = {k * n0}"
        )
    if not derived:  # a derived schedule meets the ratio by construction
        _check_schedule(schedule, n0, ratio)
    restricted = s.upto(n0)
    hull = ResidueSet.of(modulus, restricted)
    kernel = difference_kernel(hull, k)
    if kernel == hull:
        return PeriodicContainment(hull)
    candidates = IntSet(tuple(a for a in restricted if a % modulus not in kernel.residues))
    ap = find_ap(candidates, n0, ap_length, modulus)
    if ap is None:
        return ApNotFound()
    drop_bound = Fraction(1, k + 1) + eps / 2
    if (hit := _first_drop(s, schedule[: k * n0], drop_bound)) is not None:
        return DensityDrop(*hit)
    x, m = ap
    # only a Falsified instance reads d, so it is derived after the scan fails.
    # x's residue escapes the kernel, so for some sum t of k-1 smallest residue
    # representatives the representative u of x + t exists; d is the least u - t
    smallest: dict = {}
    for a in restricted:
        smallest.setdefault(a % modulus, a)
    sums = _sums_of(tuple(smallest.values()), k - 1)
    found = [smallest[(x + t) % modulus] - t for t in sums if (x + t) % modulus in smallest]
    if not found:
        raise FalsificationError(
            "difference derivation failed although the start residue escapes the kernel"
        )
    instance = DensityDropInstance(
        elements=s,
        n0=n0,
        ap_start=x,
        ap_step=m,
        ap_length=ap_length,
        difference=min(found),
        eps=eps / (16 * k),
        schedule=schedule,
        k=k,
    )
    return Falsified(
        instance,
        reason=f"no scheduled density at or below {drop_bound} within {k * n0} indices",
    )
