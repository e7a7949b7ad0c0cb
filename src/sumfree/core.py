"""Finite sets of positive integers and the k-sum-free predicates.

A set A of positive integers is k-sum-free when no multiset of k elements
of A (repetition allowed) sums to an element of A.  Strong k-sum-freeness
asks the same for every arity from 2 up to k.  This module holds the set
type used throughout the package, the predicates with their violation
certificates, and the difference-set helpers used by the periodic
machinery.

Two independent routes decide the predicate: a bitset route that builds
iterated sumsets by shifted OR on Python integers, and a direct multiset
enumeration with monotone pruning.  They must agree; the test suite
checks that.  ``is_k_sum_free`` estimates the cost of each from |A|,
max A, the mean of A and k, and takes the cheaper: dense sets of small
integers go to the bitsets, sparse sets of large integers to the
enumeration.  ``bitset_cap`` is a hard limit on the bitset route; a set
whose largest element exceeds it is always enumerated.

``_require_int`` is the one parameter guard: the package's integer
counts, moduli, horizons, scales and arities pass through it, so a bool,
a float or a value below the minimum raises InvalidParameterError.
``_require_rational`` does the same for eps and ratios, which must be an int
or a Fraction above an optional bound, so no float enters a decision.
``_require_within`` is the one resource guard: every cap that stops a call
is checked through it, and only it raises ResourceLimitError.
``_bits`` is the one bit-decoding kernel for the package's bitmasks.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import comb, factorial
from typing import Iterable, Iterator, Optional

from .errors import InvalidParameterError, ResourceLimitError

DEFAULT_BITSET_CAP = 1 << 20
# Bits one shift-OR covers in the time of one enumeration step (about 0.2 us
# per step and 14k bits per us, measured with CPython 3.11 on x86-64).
_ENUMERATION_STEP_BITS = 2048


def _require_int(value: int, what: str, low: int = 1) -> None:
    if type(value) is not int or value < low:
        raise InvalidParameterError(f"{what} must be an integer >= {low}, got {value!r}")


def _require_rational(value: Fraction, what: str, above: Optional[int] = None) -> Fraction:
    if type(value) not in (int, Fraction) or above is not None and value <= above:
        bound = "" if above is None else f" > {above}"
        raise InvalidParameterError(f"{what} must be an int or a Fraction{bound}, got {value!r}")
    return value if type(value) is Fraction else Fraction(value)


def _require_within(required: int, cap: int, what: str) -> None:
    # `what` names the amount with a {} placeholder, formatted only on refusal
    if required > cap:
        raise ResourceLimitError(f"{what.format(required)}, over the cap of {cap}", required)


def _require_arity(k: int) -> None:
    _require_int(k, "arity k", 2)


@dataclass(frozen=True)
class IntSet:
    """Immutable finite set of positive integers, stored strictly increasing."""

    elements: tuple[int, ...]

    def __post_init__(self) -> None:
        # _require_int's rule, inline: a call per element would double the build time
        prev = 0
        for value in self.elements:
            if type(value) is not int or value <= prev:
                raise InvalidParameterError(
                    f"set elements must be strictly increasing integers >= 1, got {value!r}"
                )
            prev = value

    @staticmethod
    def of(values: Iterable[int]) -> "IntSet":
        """Build from any iterable, sorting and de-duplicating."""
        return IntSet(tuple(sorted(set(values))))

    @cached_property
    def _members(self) -> frozenset:
        return frozenset(self.elements)

    def __contains__(self, value: object) -> bool:
        return value in self._members

    def __iter__(self) -> Iterator[int]:
        return iter(self.elements)

    def __len__(self) -> int:
        return len(self.elements)

    def __bool__(self) -> bool:
        return bool(self.elements)

    def largest(self) -> int:
        if not self.elements:
            raise InvalidParameterError("empty set has no largest element")
        return self.elements[-1]

    def upto(self, n: int) -> "IntSet":
        """Restriction to [1, n]."""
        _require_int(n, "restriction bound", 0)
        return IntSet(self.elements[: bisect_right(self.elements, n)])


@dataclass(frozen=True)
class Violation:
    """Certificate that a set is not k-sum-free: summands and their total."""

    summands: tuple[int, ...]
    total: int

    def holds_in(self, s: IntSet) -> bool:
        return (
            sum(self.summands) == self.total
            and all(a in s for a in self.summands)
            and self.total in s
        )


def _bits(mask: int) -> list[int]:
    """Positions of the set bits of mask, ascending."""
    positions = []
    while mask:
        low = mask & -mask
        positions.append(low.bit_length() - 1)
        mask ^= low
    return positions


def _bitset_route(elements: tuple[int, ...], k: int) -> bool:
    top = elements[-1]
    mask = 0
    for a in elements:
        mask |= 1 << a
    window = (1 << (top + 1)) - 1
    sums = mask
    for _ in range(k - 1):
        acc = 0
        for a in elements:
            acc |= sums << a
        # sums past the largest element can never land back in the set
        sums = acc & window
        if not sums:
            return True
    return (sums & mask) == 0


def _violations(
    elements: tuple[int, ...], k: int, top: int
) -> Iterator[tuple[tuple[int, ...], int]]:
    """Each (summands, total) with k nondecreasing summands, total <= top, total in A.

    Yields in lexicographic order of the summands.  A summand is pushed only
    above the leaf level, so the last summand is a plain loop; the branch
    stops as soon as the remaining summands cannot stay within ``top``.
    """
    members = frozenset(elements)
    count = len(elements)
    picked: list[int] = []

    def extend(start: int, total: int) -> Iterator[tuple[tuple[int, ...], int]]:
        remaining = k - len(picked)
        if remaining == 1:
            for idx in range(start, count):
                a = elements[idx]
                if total + a > top:
                    break
                if total + a in members:
                    yield (*picked, a), total + a
            return
        for idx in range(start, count):
            a = elements[idx]
            if total + a * remaining > top:
                break
            picked.append(a)
            yield from extend(idx, total + a)
            picked.pop()

    return extend(0, 0)


def _enumeration_route(elements: tuple[int, ...], k: int) -> bool:
    return next(_violations(elements, k, elements[-1]), None) is None


def _enumeration_is_cheaper(elements: tuple[int, ...], k: int) -> bool:
    """Whether the enumeration route is expected to cost less than the bitset route.

    Costs are counted in enumeration steps.  The bitset route does about
    (k-1)*|A| shift-ORs of (max A)-bit integers, each about one step plus
    one step per _ENUMERATION_STEP_BITS bits.  The enumeration route visits
    about one step per k-multiset of A summing to at most max A: there are
    comb(|A|+k-1, k) multisets, and for elements spread uniformly with A's
    mean m, the share with sum at most max A is (max A/(2m))^k/k!, capped
    at 1.  The mean keeps sets packed far below a large maximum on the
    bitset route.  Integer arithmetic throughout: no float steers a route.
    """
    n, top = len(elements), elements[-1]
    spread = factorial(k) * (2 * sum(elements)) ** k
    share = min((n * top) ** k, spread)  # the share above, times `spread`
    enumeration = comb(n + k - 1, k) * share * _ENUMERATION_STEP_BITS
    bitset = (k - 1) * n * (_ENUMERATION_STEP_BITS + top) * spread
    return enumeration < bitset


def is_k_sum_free(s: IntSet, k: int, bitset_cap: int = DEFAULT_BITSET_CAP) -> bool:
    """True iff no k-element multiset from s sums to an element of s.

    The bitset route runs only when the largest element is at most
    ``bitset_cap`` (so a cap of 0 forces enumeration) and a cost estimate
    from |A|, max A, the mean of A and k rates it the cheaper route.
    """
    _require_arity(k)
    if not s:
        return True
    if s.largest() <= bitset_cap and not _enumeration_is_cheaper(s.elements, k):
        return _bitset_route(s.elements, k)
    return _enumeration_route(s.elements, k)


def find_violation(s: IntSet, k: int) -> Optional[Violation]:
    """Smallest witness that s is not k-sum-free, or None.

    Violations are ordered by total first, then by the ascending summand
    tuple, so the answer is reproducible across runs.
    """
    _require_arity(k)
    if not s:
        return None
    # the first hit at or below `top` has the smallest summands there;
    # lowering `top` below each hit's total ends on the smallest total
    found, top = None, s.largest()
    while (hit := next(_violations(s.elements, k, top), None)) is not None:
        found, top = hit, hit[1] - 1
    return None if found is None else Violation(*found)


def is_strongly_k_sum_free(s: IntSet, k: int) -> bool:
    """True iff s is ell-sum-free for every ell in 2..k."""
    _require_arity(k)
    return all(is_k_sum_free(s, ell) for ell in range(2, k + 1))


def _sums_of(elements: tuple[int, ...], count: int) -> set:
    """All sums of ``count`` elements, repetition allowed; {0} when count is 0."""
    sums = {0}
    for _ in range(count):
        sums = {t + a for t in sums for a in elements}
    return sums


def k_difference_set(s: IntSet, k: int, n: int) -> frozenset:
    """The set A_n - (k-1)A_n, i.e. {u - v_1 - ... - v_{k-1}} over A ∩ [1, n].

    May contain zero and negative integers; returned as a plain frozenset.
    """
    _require_arity(k)
    restricted = s.upto(n).elements
    if not restricted:
        return frozenset()
    sums = _sums_of(restricted, k - 1)
    return frozenset(u - t for u in restricted for t in sums)


def difference_witness(s: IntSet, t: int, k: int) -> Optional[int]:
    """Smallest u in s with t = u - v_1 - ... - v_{k-1} for some v_i in s.

    Returns None when no such u exists.  A witness exists exactly when t
    lies in k_difference_set(s, k, max(s)).
    """
    _require_arity(k)
    if not s:
        return None
    sums = _sums_of(s.elements, k - 1)
    for u in s.elements:
        if u - t in sums:
            return u
    return None


def parse_set_text(text: str) -> IntSet:
    """Parse the one-integer-per-line set format (# comments, blank lines ok)."""
    values = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
            value = int(line)
        except ValueError:
            raise InvalidParameterError(f"line {lineno}: not an integer: {line!r}") from None
        if value < 1:
            raise InvalidParameterError(f"line {lineno}: elements must be >= 1, got {value}")
        values.append(value)
    return IntSet.of(values)


def rational_string(value: Fraction) -> str:
    """The exact "n/d" form of a rational, in lowest terms."""
    value = Fraction(value)
    return f"{value.numerator}/{value.denominator}"


def format_set_text(s: IntSet) -> str:
    return "".join(f"{a}\n" for a in s.elements)


def read_set_file(path: str) -> IntSet:
    with open(path, "r", encoding="utf-8") as handle:
        return parse_set_text(handle.read())


def write_set_file(path: str, s: IntSet) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(format_set_text(s))
