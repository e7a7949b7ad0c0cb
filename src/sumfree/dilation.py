"""Dilation extraction: large k-sum-free subsets via rotations of an arc.

Write P = k*k - 1.  The open arc S = (1/P, k/P) on the unit circle is
k-sum-free: the sum of any k of its points falls in the complementary arc.
For a real x, the slice A_x = {a in A : frac(a*x) in S} is therefore a
k-sum-free subset of A, and averaging over x shows E|A_x| = |A|/(k+1),
so some dilator x achieves at least the ceiling of that.

Two ways to pick x:

* ``sweep``    - x -> |A_x| is piecewise constant with breakpoints
  (e + j)/a over a in A, e an arc endpoint, 0 <= j < a.  An event sweep
  sorts the 2*sum(A) entries and exits by exact integer keys and counts
  between them, giving the true maximum and the first interval attaining
  it in O(sum(A) log sum(A)) time.  Every sweep, explicit or picked by
  ``auto``, stops with ResourceLimitError when 2*sum(A) + 2 exceeds
  ``DEFAULT_SWEEP_CAP``, so this is for moderate element sizes.
* ``descent``  - bisection steered by conditional expectation: keep the
  half-interval on which the average of |A_x| is larger until the interval
  sits inside one constancy region.  The average never drops below
  |A|/(k+1), so the landing slice meets the guarantee.  It runs in exact
  integers over dyadic points c/2^d and needs fewer than
  2*bit_length(p*max(A)^2) + 2 halvings (see ``_descend``), each
  O(|A|) integer operations, so the guarantee holds at any element size.

There are also finite averaging variants: over a multiplicative grid F
with a designated k-sum-free S inside it, and the measure-weighted form of
the same thing.  Both report the exact lower bound the averaging argument
proves, and this module checks those bounds and the sum-freeness of every
returned subset, loudly, since a failure would mean a bug rather than bad
input.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

from .core import IntSet, is_k_sum_free, _require_arity, _require_within
from .errors import FalsificationError, InvalidParameterError
from .folner import set_dilation_defect
from .measures import RationalMeasure, _common_denominator

DEFAULT_SWEEP_CAP = 50_000


@dataclass(frozen=True)
class OpenInterval:
    """Open subinterval (lo, hi) of [0, 1], endpoints exact rationals."""

    lo: Fraction
    hi: Fraction

    def __post_init__(self) -> None:
        if not (0 <= self.lo < self.hi <= 1):
            raise InvalidParameterError(f"need 0 <= lo < hi <= 1, got ({self.lo}, {self.hi})")


def erdos_interval(k: int) -> OpenInterval:
    """The arc of length 1/(k+1) centred at 1/(2k-2): (1/(k^2-1), k/(k^2-1))."""
    _require_arity(k)
    p = k * k - 1
    return OpenInterval(Fraction(1, p), Fraction(k, p))


def interval_is_k_sum_free(k: int) -> bool:
    """Exact check that k points of the arc can never sum into the arc (mod 1)."""
    arc = erdos_interval(k)
    lo, hi = arc.lo, arc.hi
    # the k-fold sumset of (lo, hi) is the open arc (k*lo, k*hi) reduced mod 1;
    # for this arc it straddles 1, so it misses (lo, hi) when it starts at or
    # past hi and its wrapped part ends at or before lo
    return k * lo < 1 < k * hi and k * lo >= hi and k * hi - 1 <= lo


@dataclass(frozen=True)
class ExtractionResult:
    """A dilator, the slice it produces, its score, and any proven lower bound."""

    dilator: "Fraction | int"
    subset: IntSet
    score: "int | Fraction"
    lower_bound: Optional[Fraction] = None
    method: str = ""


def _slice_members(elements: tuple[int, ...], x: Fraction, k: int) -> list[int]:
    """Elements a with frac(a*x) strictly inside the arc, by integer arithmetic."""
    p = k * k - 1
    num, den = x.numerator, x.denominator
    out = []
    for a in elements:
        residue = (a * num) % den
        scaled = p * residue
        if den < scaled < k * den:
            out.append(a)
    return out


def _member_mass(a: int, k: int, p: int, c: int, s: int) -> int:
    """p*a*s times the length of {x in [0, c/s) : frac(a*x) in the arc}.

    The arcs of a are ((1 + j*p)/(p*a), (k + j*p)/(p*a)), 0 <= j < a: count
    the ones that end by c/s, then add the part of the next one begun there.
    """
    q = c * p * a
    full = (q - k * s) // (p * s) + 1
    if full <= 0:
        return max(q - s, 0)
    if full >= a:
        return (k - 1) * a * s
    return (k - 1) * full * s + max(q - (1 + full * p) * s, 0)


def _breakpoint_free(elements: tuple[int, ...], k: int, p: int, c: int, s: int) -> bool:
    """True iff no breakpoint (t + j*p)/(p*a) lies in the open interval (c/s, (c+1)/s)."""
    for a in elements:
        u = c * p * a
        for t in (1, k):
            j = max((u - t * s) // (p * s) + 1, 0)
            if j < a and (t + j * p) * s < u + p * a:
                return False
    return True


def _region_midpoint(
    elements: tuple[int, ...], k: int, p: int, lcm: int, c: int, s: int
) -> Fraction:
    """Midpoint between the last breakpoint at or before c/s and the first after it.

    0 and 1 close the ends.  Breakpoints are compared by their integer keys
    (t + j*p)*(lcm/a), which are the breakpoints times p*lcm.
    """
    prev, nxt = 0, p * lcm
    for a in elements:
        u = c * p * a
        weight = lcm // a
        for t in (1, k):
            j = (u - t * s) // (p * s)  # last breakpoint of this kind at or before c/s
            if j >= 0:
                prev = max(prev, (t + min(j, a - 1) * p) * weight)
            if j + 1 < a:
                nxt = min(nxt, (t + (j + 1) * p) * weight)
    return Fraction(prev + nxt, 2 * p * lcm)


def _sweep(elements: tuple[int, ...], k: int) -> tuple[int, Fraction]:
    """Exact maximum of |A_x| and the midpoint of the first maximizing interval.

    Element a is in the slice on the arcs ((1 + j*p)/(p*a), (k + j*p)/(p*a)).
    Each breakpoint is keyed by the integer (t + j*p)*(lcm(A)/a), doubled,
    plus one for an entry, so one integer sort orders the events exactly and
    puts exits before entries at a shared breakpoint.  The count after an
    event is then never above the count of the interval its breakpoint opens,
    so the first event reaching the maximum sits on the first maximizing
    interval's left end, from which ``_region_midpoint`` finds the midpoint,
    as it does for the descent.
    """
    p = k * k - 1
    lcm = math.lcm(*elements)
    events: list[int] = []
    for a in elements:
        unit = 2 * (lcm // a)
        stop = unit * p * a
        events.extend(range(unit + 1, stop, unit * p))
        events.extend(range(k * unit, stop, unit * p))
    events.sort()
    count = best = best_at = 0
    for idx, event in enumerate(events):
        if event & 1:
            count += 1
            if count > best:
                best, best_at = count, idx
        else:
            count -= 1
    return best, _region_midpoint(elements, k, p, lcm, events[best_at] >> 1, p * lcm)


def _descend(elements: tuple[int, ...], k: int) -> Fraction:
    """Conditional-expectation bisection down to one constancy region; returns its midpoint.

    Invariant: the average of |A_x| over the current interval never drops,
    so it stays at least |A|/(k+1); the final region's constant value equals
    that average, which is how the guarantee survives derandomization.

    The interval is [c/2^d, (c+1)/2^d] and masses are kept as integers
    scaled by p*lcm(A)*2^d, so every comparison is exact.  Distinct
    breakpoints differ by at least 1/(p*a*a'), so by depth D =
    bit_length(p*max(A)^2) the interval holds at most one breakpoint inside.
    The halving then keeps that breakpoint only while moving towards an end
    fixed since depth D, which is at least 1/(p*a*2^D) away from it, so
    fewer than 2*D + 2 steps always reach a breakpoint-free interval.
    """
    p = k * k - 1
    lcm = math.lcm(*elements)
    weighted = [(a, lcm // a) for a in elements]
    c, s = 0, 1
    mass_l, mass_r = 0, (k - 1) * lcm * len(elements)
    for _ in range(2 * (p * elements[-1] ** 2).bit_length() + 2):
        if _breakpoint_free(elements, k, p, c, s):
            return _region_midpoint(elements, k, p, lcm, c, s)
        c, s = 2 * c + 1, 2 * s
        mass_m = sum(_member_mass(a, k, p, c, s) * w for a, w in weighted)
        mass_l, mass_r = 2 * mass_l, 2 * mass_r
        if 2 * mass_m >= mass_l + mass_r:
            c, mass_r = c - 1, mass_m
        else:
            mass_l = mass_m
    raise FalsificationError("expectation descent failed to localize a constancy region")


def _finalize_circle_result(s: IntSet, k: int, dilator: Fraction, method: str) -> ExtractionResult:
    subset = IntSet(tuple(_slice_members(s.elements, dilator, k)))
    if not is_k_sum_free(subset, k):
        raise FalsificationError(
            f"arc slice at {dilator} is not {k}-sum-free; this should be impossible"
        )
    score = len(subset)
    if score * (k + 1) < len(s):
        raise FalsificationError(
            f"extraction score {score} fell below |A|/(k+1) = {len(s)}/{k + 1}"
        )
    return ExtractionResult(dilator, subset, score, None, method)


def extract_dilate_exhaustive(s: IntSet, k: int, method: str = "auto") -> ExtractionResult:
    """Deterministic dilation extraction; score is at least ceil(|A|/(k+1)).

    ``method="sweep"`` computes the exact maximum of |A_x| over all x by the
    full breakpoint sweep.  ``method="descent"`` runs the expectation
    bisection, which meets the same guarantee at any element size but does
    not claim global optimality.  ``auto`` sweeps when the breakpoint count
    2*sum(A) + 2 stays within ``DEFAULT_SWEEP_CAP`` and descends otherwise; an
    explicit ``method="sweep"`` over the cap raises ResourceLimitError with
    ``required`` set to that count.
    """
    if not s:
        raise InvalidParameterError("cannot extract from the empty set")
    if not interval_is_k_sum_free(k):
        raise FalsificationError(f"arc for k={k} failed its sum-freeness check")
    required = 2 * sum(s.elements) + 2
    if method == "auto":
        method = "sweep" if required <= DEFAULT_SWEEP_CAP else "descent"
    if method == "sweep":
        _require_within(required, DEFAULT_SWEEP_CAP, "sweep needs {} breakpoints")
        count, mid = _sweep(s.elements, k)
        result = _finalize_circle_result(s, k, mid, "sweep")
        if result.score != count:
            raise FalsificationError("sweep maximizer does not reproduce its count")
        return result
    if method == "descent":
        return _finalize_circle_result(s, k, _descend(s.elements, k), "descent")
    raise InvalidParameterError(f"unknown extraction method {method!r}")


def extract_dilate_folner(s: IntSet, f: IntSet, inner: IntSet, k: int) -> ExtractionResult:
    """Best slice A_x = {a : a*x in S} over grid dilators x in F.

    S must be a k-sum-free subset of F.  This is ``extract_dilate_measure``
    under the counting measure on A, so the averaging bound
    max_x |A_x| >= (|S|/|F|)*|A| - sum_a |aF △ F|/|F| is reported as
    ``lower_bound`` and enforced; the score is the integer |A_x|.
    """
    if not s or not f:
        raise InvalidParameterError("both the source set and the grid must be nonempty")
    counting = RationalMeasure.from_weights(dict.fromkeys(s.elements, 1))
    result = extract_dilate_measure(f, inner, counting, k)
    return ExtractionResult(
        result.dilator, result.subset, len(result.subset), result.lower_bound, "folner"
    )


def extract_dilate_measure(
    f: IntSet, inner: IntSet, m: RationalMeasure, k: int
) -> ExtractionResult:
    """Measure-weighted grid extraction: maximize mu(A_x) over dilators x in F.

    Same averaging as the counting form, weighted: the reported bound is
    (|S|/|F|)*mass(mu) - sum_a mu(a)*|aF △ F|/|F|.
    """
    if not f:
        raise InvalidParameterError("the grid must be nonempty")
    if any(x not in f for x in inner):
        raise InvalidParameterError("designated sum-free set must sit inside the grid")
    if not is_k_sum_free(inner, k):
        raise InvalidParameterError(f"designated subset is not {k}-sum-free")
    inner_members = inner._members
    support = m.support()

    def slice_at(x: int) -> tuple[int, ...]:
        return tuple(a for a in support if a * x in inner_members)

    # the weights as integers over a positive common denominator keep their order;
    # max keeps the first x of greatest weight, in ascending order
    common, factor = _common_denominator(w.denominator for w in m.weights.values())
    scaled = {a: w.numerator * factor[w.denominator] for a, w in m.weights.items()}
    best_x = max(f.elements, key=lambda x: sum(map(scaled.__getitem__, slice_at(x))))
    best_subset = slice_at(best_x)
    best_weight = Fraction(sum(map(scaled.__getitem__, best_subset)), common)
    density = Fraction(len(inner), len(f))
    bound = density * m.mass - sum(
        m.weight_at(a) * set_dilation_defect(f, a) for a in support
    )
    if best_weight < bound:
        raise FalsificationError(
            f"measure extraction score {best_weight} fell below its proven bound {bound}"
        )
    subset = IntSet(best_subset)
    if not is_k_sum_free(subset, k):
        raise FalsificationError("measure slice is not sum-free; this should be impossible")
    return ExtractionResult(best_x, subset, best_weight, bound, "measure")
